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

/// Standard simulated horizon (hours) of harness runs. Shorter than the
/// paper's 96-day cloud run so harnesses finish in minutes; the workload
/// *shape* (per-quantum imbalance, phase decorrelation) is established
/// well within a few circadian cycles.
pub const HORIZON_H: f64 = 12.0;

/// Quanta per run at the fine (τ-grained) slicing.
pub const FINE_QUANTA: usize = 500;

/// The Neurospora model used by all harnesses.
pub fn neurospora_model() -> Arc<Model> {
    Arc::new(neurospora_flat(NeurosporaParams::default()))
}

/// Records (or synthesises, with `quick = true`) the τ-grained workload
/// trace for `instances` trajectories.
///
/// The fine trace has one quantum per sample period; coarsening by 10
/// yields the Q/τ = 10 workload of the same trajectories.
pub fn fine_trace(instances: u64, quick: bool) -> WorkloadTrace {
    trace_with(instances, quick, HORIZON_H, FINE_QUANTA, 15.0)
}

/// Records (or synthesises) a τ-grained trace with explicit horizon and
/// quantum count. `mean_events` parameterises only the synthetic fallback.
pub fn trace_with(
    instances: u64,
    quick: bool,
    horizon_h: f64,
    fine_quanta: usize,
    mean_events: f64,
) -> WorkloadTrace {
    if quick {
        let mut t = WorkloadTrace::synthetic(instances, fine_quanta, mean_events);
        t.samples_per_instance = fine_quanta as u64 + 1;
        t
    } else {
        let tau = horizon_h / fine_quanta as f64;
        // 60 h of burn-in decorrelates the oscillator phases (see
        // `record_with_burn_in`), matching the paper's long-run regime.
        WorkloadTrace::record_with_burn_in(
            neurospora_model(),
            instances,
            2014,
            60.0,
            horizon_h,
            tau,
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

/// Records a trace with independent quantum and sampling grids: `quanta`
/// quanta, each sampled `samples_per_quantum` times. Used where the
/// analysis share of the total work must match the paper's (our
/// statistical engines are cheaper per value than the paper's
/// period-detection stack, so the sampling grid compensates).
pub fn dense_trace(
    instances: u64,
    quick: bool,
    horizon_h: f64,
    quanta: usize,
    samples_per_quantum: usize,
) -> WorkloadTrace {
    if quick {
        let mut t = WorkloadTrace::synthetic(instances, quanta, 150.0);
        t.samples_per_instance = (quanta * samples_per_quantum) as u64 + 1;
        t
    } else {
        let quantum = horizon_h / quanta as f64;
        let tau = quantum / samples_per_quantum as f64;
        WorkloadTrace::record_with_burn_in(
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

/// True when `--quick` was passed (synthetic workload, nominal costs).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
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
/// (ROADMAP item 1(e); the box's speed drifts between sessions).
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
        let t = fine_trace(16, true);
        assert_eq!(t.instances, 16);
        assert_eq!(t.quanta, FINE_QUANTA);
        assert_eq!(t.samples_per_instance, FINE_QUANTA as u64 + 1);
    }

    #[test]
    fn formatters_behave() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(secs(0.12345), "0.123");
    }
}
