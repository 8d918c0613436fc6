//! Shared harness utilities for the per-figure/table benchmark binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (README.md, "Running the figure/table reproducers",
//! is the index). They share the workload preparation here:
//! the Neurospora model's event trace is recorded by *running the real
//! stochastic engine*, then platform models replay it.

use std::sync::Arc;

use biomodels::neurospora::{neurospora_flat, NeurosporaParams};
use cwc::model::Model;
use distrt::workload::{CostModel, WorkloadTrace};

/// The Neurospora model used by all harnesses.
pub fn neurospora_model() -> Arc<Model> {
    Arc::new(neurospora_flat(NeurosporaParams::default()))
}

/// The workload trace of `instances` Neurospora trajectories over
/// `horizon_h` hours in `quanta` quanta, sampled `samples_per_quantum`
/// times per quantum (1 gives a τ-grained trace, one quantum per sample
/// period, which `WorkloadTrace::coarsen` turns into the Q/τ > 1
/// workloads of the same trajectories).
///
/// Recorded by running the real engine after 60 h of burn-in, which
/// decorrelates the oscillator phases (see `WorkloadTrace::record`) as in
/// the paper's long runs; with `quick = true`, synthesised instead
/// around `mean_events` events per quantum, which only that path reads.
/// A denser sampling grid is how a figure matches the paper's analysis
/// share of the work: our statistical engines are cheaper per value than
/// the paper's period-detection stack.
pub fn trace(
    instances: u64,
    quick: bool,
    horizon_h: f64,
    quanta: usize,
    samples_per_quantum: usize,
    mean_events: f64,
) -> WorkloadTrace {
    if quick {
        let mut t = WorkloadTrace::synthetic(instances, quanta, mean_events);
        t.samples_per_instance = (quanta * samples_per_quantum) as u64 + 1;
        t
    } else {
        let quantum = horizon_h / quanta as f64;
        let tau = quantum / samples_per_quantum as f64;
        WorkloadTrace::record(
            neurospora_model(),
            instances,
            2014,
            60.0,
            horizon_h,
            quantum,
            tau,
        )
    }
}

/// Measured unit costs (or nominal ones, with `quick = true`).
pub fn costs(quick: bool) -> CostModel {
    if quick {
        CostModel::nominal()
    } else {
        CostModel::measure(neurospora_model())
    }
}

/// True when `--quick` was passed (synthetic workload, nominal costs).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The value following `flag` on the command line, if any.
pub fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Writes a gate binary's results: to `--out PATH` when given, otherwise
/// to `default` — except under `--check`, which writes only to an
/// explicit `--out`: the default file is the committed baseline a check
/// reads, so writing it first would overwrite the baseline and check the
/// fresh run against itself.
pub fn write_results(default: &str, json: &str) {
    let out = match arg_value("--out") {
        Some(out) => out,
        None if arg_value("--check").is_some() => {
            return note("--check without --out: results not written");
        }
        None => default.to_string(),
    };
    std::fs::write(&out, json).expect("write bench json");
    note(&format!("wrote {out}"));
}

/// The string value of `"key": "…"` in `chunk`, a slice of the flat
/// JSON the gate binaries write (one object per result row).
pub fn str_field(chunk: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\": \"");
    let start = chunk.find(&tag)? + tag.len();
    let end = chunk[start..].find('"')? + start;
    Some(chunk[start..end].to_string())
}

/// The numeric value of `"key": …` in `chunk` (see [`str_field`]).
pub fn num_field(chunk: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    let start = chunk.find(&tag)? + tag.len();
    let rest = &chunk[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// True when `--csv` was passed (comma-separated tables, titles as `#`
/// comment lines — the CI baseline-artifact format).
pub fn csv_mode() -> bool {
    std::env::args().any(|a| a == "--csv")
}

/// Prints a markdown-ish table (or CSV with `--csv`, for the recorded
/// bench baselines CI archives per push).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    let sep = if csv_mode() { "," } else { "\t" };
    if csv_mode() {
        println!("# {title}");
    } else {
        println!("\n== {title}");
    }
    println!("{}", headers.join(sep));
    for row in rows {
        println!("{}", row.join(sep));
    }
}

/// Prints free-form commentary (e.g. the paper-reference reading of a
/// table). In `--csv` mode every line is `#`-prefixed so baseline
/// artifacts stay machine-readable.
pub fn note(text: &str) {
    if csv_mode() {
        for line in text.lines().filter(|l| !l.is_empty()) {
            println!("# {line}");
        }
    } else {
        println!("{text}");
    }
}

/// What produced a bench file: the box, the build, the resolved kernels,
/// and how fast the box was at the start and the end of the run — so two
/// files from different sessions say whether they are comparable
/// (added in commit 238035f; the box's speed drifts between sessions).
#[derive(Debug)]
pub struct RunHeader {
    /// CPU model name (`/proc/cpuinfo`), or `unknown`.
    cpu: String,
    /// Logical CPUs visible to the process.
    logical_cpus: usize,
    /// The kernel set the run resolved to (`avx2` or `scalar`).
    kernel: String,
    /// `git describe --always --dirty` of the working directory, or
    /// `unknown`.
    commit: String,
    /// The fixed-work [`calibration_spin_ms`] timed before measuring.
    calibration_start_ms: f64,
    /// The same spin timed after measuring (see [`RunHeader::finish`]).
    calibration_end_ms: f64,
}

impl RunHeader {
    /// Captures the box, build and kernels and times the start spin.
    pub fn start(kernel: gillespie::kernels::Kernel) -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                    .map(|(_, name)| name.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let commit = std::process::Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        RunHeader {
            cpu: cpu.replace(['"', '\\'], ""),
            logical_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel: format!("{kernel:?}").to_lowercase(),
            commit,
            calibration_start_ms: calibration_spin_ms(),
            calibration_end_ms: f64::NAN,
        }
    }

    /// Times the end spin.
    pub fn finish(&mut self) {
        self.calibration_end_ms = calibration_spin_ms();
    }

    /// The header as a JSON object (no field is named `model`, so the
    /// BENCH readers that pick rows by that key skip it).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu\": \"{}\", \"logical_cpus\": {}, \"kernel\": \"{}\", \"commit\": \"{}\", \
             \"calibration_start_ms\": {:.2}, \"calibration_end_ms\": {:.2}}}",
            self.cpu,
            self.logical_cpus,
            self.kernel,
            self.commit,
            self.calibration_start_ms,
            self.calibration_end_ms
        )
    }
}

/// Measurement passes per row of the engine-loop gates (`step_throughput`,
/// `adaptive_tau`): every row is timed this many times and reports its
/// best pass. Single-shot timings on shared hardware swing by tens of
/// percent (noisy neighbours, turbo decay over the row sequence), which
/// best-of-N absorbs; alternating the pass direction keeps any systematic
/// slowdown over a pass from always penalising the same rows. The fastest
/// quick segments last a few milliseconds, and a single pass let one blip
/// read `neurospora_flat`'s step-throughput ratio as 3.08 against 4.3–4.5
/// in the other quick runs of the same tree.
pub const PASSES: usize = 3;

/// Times `rows` rows [`PASSES`] times each through `measure` (`row →
/// measurement`), alternating the row order per pass, and keeps for each
/// row the pass with the highest `rate`.
pub fn best_of_passes<T>(
    rows: usize,
    mut measure: impl FnMut(usize) -> T,
    rate: impl Fn(&T) -> f64,
) -> Vec<T> {
    let mut best: Vec<Option<T>> = (0..rows).map(|_| None).collect();
    for pass in 0..PASSES {
        for i in 0..rows {
            let row = if pass % 2 == 0 { i } else { rows - 1 - i };
            let m = measure(row);
            if best[row].as_ref().map_or(true, |b| rate(&m) > rate(b)) {
                best[row] = Some(m);
            }
        }
    }
    best.into_iter()
        .map(|b| b.expect("every row measured"))
        .collect()
}

/// A fixed-work reference loop — 2²⁵ dependent xorshift + multiply-add
/// steps, the best of three — timed in milliseconds. Its reading moves
/// only with the box (clock, neighbours), never with this repository's
/// code.
pub fn calibration_spin_ms() -> f64 {
    (0..3)
        .map(|_| {
            let start = std::time::Instant::now();
            let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15u64, 0.0f64);
            for _ in 0..1u32 << 25 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc = acc * 0.999_999 + (x >> 11) as f64;
            }
            std::hint::black_box(acc);
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats seconds with 3 significant decimals.
pub fn secs(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_trace_has_expected_shape() {
        let t = trace(16, true, 12.0, 500, 1, 15.0);
        assert_eq!(t.instances, 16);
        assert_eq!(t.quanta, 500);
        assert_eq!(t.samples_per_instance, 501);
        let dense = trace(16, true, 12.0, 50, 320, 150.0);
        assert_eq!(dense.quanta, 50);
        assert_eq!(dense.samples_per_instance, 50 * 320 + 1);
    }

    #[test]
    fn formatters_behave() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(secs(0.12345), "0.123");
    }
}
