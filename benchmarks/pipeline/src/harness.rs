//! What both bench binaries share: argument parsing, the per-run
//! watchdog, child-process guards, worker-binary resolution and the
//! result record.

use std::fmt::Display;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::Child;
use std::sync::mpsc;
use std::time::Duration;

use crate::json::Value;
use crate::stats::Summary;
use crate::workloads::{self, Workload};

/// A run that takes longer than this is recorded as failed instead of
/// hanging the benchmark.
pub const RUN_TIMEOUT: Duration = Duration::from_secs(120);

/// Arguments of one benchmark invocation (the driver's contract plus the
/// local `--smoke` and `--out`).
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload to run.
    pub workload: &'static Workload,
    /// Becomes `SimConfig::seed`; the program sees nothing else of it.
    pub seed: u64,
    /// How long the timed loop measures.
    pub seconds: f64,
    /// Shrink every workload about 20× and run each phase once.
    pub smoke: bool,
    /// Append the full record (header + statistics) to this JSON-lines file.
    pub out: Option<PathBuf>,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S [--trace 0|1] [--smoke]
    /// [--out FILE]`. `--trace` selects the binary in `run.sh`; here it is
    /// accepted and checked against `expect_trace`.
    ///
    /// # Errors
    ///
    /// Returns a usage message naming the offending argument.
    pub fn parse(args: &[String], expect_trace: u8) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 2014;
        let mut seconds = crate::manifest::RUN_SECONDS as f64;
        let mut smoke = false;
        let mut out = None;
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |what: &str| {
                it.next()
                    .ok_or_else(|| format!("{arg} needs {what}"))
                    .map(String::as_str)
            };
            match arg.as_str() {
                "--workload" => {
                    let name = value("a workload name")?;
                    workload = Some(workloads::by_name(name).ok_or_else(|| {
                        let known: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload `{name}` (known: {})", known.join(", "))
                    })?);
                }
                "--seed" => {
                    seed = value("an unsigned integer")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?;
                }
                "--seconds" => {
                    seconds = value("a positive number")?
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or("--seconds needs a positive number")?;
                }
                "--trace" => {
                    let t = value("0 or 1")?;
                    if t != expect_trace.to_string() {
                        return Err(format!(
                            "--trace {t} is served by the other binary (run.sh dispatches on it)"
                        ));
                    }
                }
                "--smoke" => smoke = true,
                "--out" => out = Some(PathBuf::from(value("a file path")?)),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            smoke,
            out,
        })
    }
}

/// Runs `f` on its own thread and waits at most [`RUN_TIMEOUT`] for it.
/// An `Err` from `f`, a panic or a timeout all come back as `Err` with the
/// reason, so the caller counts a failed operation and moves on. A
/// timed-out thread cannot be killed; the caller is expected to report and
/// exit (at which point any `cwc-shard` child it was driving sees
/// EOF/EPIPE and winds down at its next quantum boundary — the product's
/// own orphan handling).
pub fn run_guarded<T: Send + 'static, E: Display + Send + 'static>(
    label: &str,
    f: impl FnOnce() -> Result<T, E> + Send + 'static,
) -> Result<T, String> {
    run_guarded_for(label, RUN_TIMEOUT, f)
}

fn run_guarded_for<T: Send + 'static, E: Display + Send + 'static>(
    label: &str,
    limit: Duration,
    f: impl FnOnce() -> Result<T, E> + Send + 'static,
) -> Result<T, String> {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::Builder::new()
        .name(format!("run:{label}"))
        .spawn(move || {
            let _ = tx.send(f());
        })
        .map_err(|e| format!("{label}: cannot spawn run thread: {e}"))?;
    match rx.recv_timeout(limit) {
        Ok(outcome) => {
            worker
                .join()
                .expect("run thread already delivered its result");
            outcome.map_err(|e| format!("{label}: {e}"))
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            let panic = worker.join().expect_err("sender dropped without a value");
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            Err(format!("{label}: panicked: {msg}"))
        }
        Err(mpsc::RecvTimeoutError::Timeout) => Err(format!(
            "{label}: exceeded the {} s run limit",
            limit.as_secs_f64()
        )),
    }
}

/// Owns a child process the harness spawned; kills it **and waits for it**
/// when dropped, so no worker survives any exit path, unwinding included.
#[derive(Debug)]
pub struct ChildGuard(pub Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        // Errors mean the child is already gone, which is the goal.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Resolves a worker binary (`cwc-shard`, `cwc-workerd`) next to the
/// running executable — where `run.sh`'s shared target directory puts it
/// and where `ProcessTransport::new()` looks.
///
/// # Errors
///
/// A missing binary is a hard error naming the build command; a benchmark
/// that silently skipped its process or TCP legs would report numbers for
/// a different system.
pub fn worker_binary(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let candidate = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    if candidate.is_file() {
        Ok(candidate)
    } else {
        Err(format!(
            "worker binary `{}` not found; build it into the same target directory with \
             `cargo build --release --bin cwc-shard --bin cwc-workerd` (run.sh does)",
            candidate.display()
        ))
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from the metric tables.
    pub name: &'static str,
    /// Unit from the metric tables.
    pub unit: &'static str,
    /// The reported value (a median where `stats` is present).
    pub value: f64,
    /// The series behind the value, for timings measured more than once.
    pub stats: Option<Summary>,
}

/// The outcome of one invocation, printable in the three shapes needed.
#[derive(Debug, Clone)]
pub struct Record {
    /// Workload name.
    pub workload: &'static str,
    /// 0 for the timed run, 1 for the traced run.
    pub trace: u8,
    /// Every output equalled the oracle's.
    pub correct: bool,
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that failed, timed out or diverged.
    pub failed: u64,
    /// Every metric of the mode, in table order.
    pub metrics: Vec<Metric>,
}

impl Record {
    /// Prints every metric by name with its unit (and the series summary
    /// where there is one), then — as the last line of stdout — the
    /// driver's result object; appends the full record to `out` if given.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of a failed `--out` append.
    pub fn emit(&self, header: &Value, out: Option<&PathBuf>) -> std::io::Result<()> {
        println!(
            "# pipeline {} trace={} attempted={} failed={} correct={}",
            self.workload, self.trace, self.attempted, self.failed, self.correct
        );
        for m in &self.metrics {
            let series = m.stats.as_ref().map_or(String::new(), |s| {
                let high = s
                    .high
                    .map_or(String::new(), |(label, v)| format!(" {label} {v}"));
                format!("  (median of n={}, min {} max {}{high})", s.n, s.min, s.max)
            });
            println!("{:<44} {:>22} {}{series}", m.name, m.value, m.unit);
        }
        if let Some(path) = out {
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                std::fs::create_dir_all(dir)?;
            }
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            writeln!(file, "{}", self.to_json(Some(header)).render())?;
        }
        println!("{}", self.to_json(None).render());
        Ok(())
    }

    /// With a header: the result-file record (series statistics
    /// included). Without: exactly the driver's four keys, each metric
    /// exactly `value` and `unit`.
    pub fn to_json(&self, header: Option<&Value>) -> Value {
        let metrics = Value::obj(self.metrics.iter().map(|m| {
            let mut fields = vec![("value", Value::Num(m.value)), ("unit", Value::str(m.unit))];
            if let (Some(_), Some(s)) = (header, &m.stats) {
                fields.push(("min", Value::Num(s.min)));
                fields.push(("max", Value::Num(s.max)));
                fields.push(("n", Value::Num(s.n as f64)));
                let samples = s.samples.iter().map(|&v| Value::Num(v)).collect();
                fields.push(("samples", Value::Arr(samples)));
            }
            (m.name, Value::obj(fields))
        }));
        let mut pairs = Vec::new();
        if let Some(h) = header {
            pairs.push(("header", h.clone()));
            pairs.push(("workload", Value::str(self.workload)));
            pairs.push(("trace", Value::Num(f64::from(self.trace))));
        }
        pairs.extend([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", metrics),
        ]);
        Value::obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = Args::parse(
            &strings(&[
                "--workload",
                "wide_ssa_farm",
                "--seed",
                "41",
                "--seconds",
                "8",
                "--trace",
                "0",
            ]),
            0,
        )
        .unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.smoke),
            ("wide_ssa_farm", 41, 8.0, false)
        );
        assert!(Args::parse(&strings(&["--workload", "nope"]), 0)
            .unwrap_err()
            .contains("known: neuro_engine_farm"));
        assert!(Args::parse(&strings(&["--seed", "1"]), 0)
            .unwrap_err()
            .contains("--workload is required"));
        assert!(Args::parse(
            &strings(&["--workload", "wide_ssa_farm", "--trace", "1"]),
            0
        )
        .unwrap_err()
        .contains("other binary"));
        assert!(Args::parse(
            &strings(&["--workload", "wide_ssa_farm", "--seconds", "0"]),
            0
        )
        .is_err());
    }

    #[test]
    fn guarded_runs_report_panics_and_timeouts_instead_of_hanging() {
        assert_eq!(run_guarded("ok", || Ok::<_, String>(7)), Ok(7));
        assert_eq!(
            run_guarded("refused", || Err::<u32, _>("bad config")),
            Err("refused: bad config".to_string())
        );
        let panicked =
            run_guarded("boom", || -> Result<u32, String> { panic!("kaboom {}", 1) }).unwrap_err();
        assert!(panicked.contains("panicked: kaboom 1"), "{panicked}");
        // The stuck thread is released right after the assertion so the
        // test process does not carry it to exit.
        let (release, gate) = mpsc::channel::<()>();
        let timed_out = run_guarded_for("stuck", Duration::from_millis(50), move || {
            let _ = gate.recv();
            Ok::<_, String>(())
        })
        .unwrap_err();
        assert!(timed_out.contains("run limit"), "{timed_out}");
        drop(release);
    }

    #[test]
    fn child_guard_kills_and_reaps() {
        let child = std::process::Command::new("sleep")
            .arg("60")
            .spawn()
            .unwrap();
        let pid = child.id();
        drop(ChildGuard(child));
        // Reaped: the pid no longer names a live child of this process.
        assert!(!std::path::Path::new(&format!("/proc/{pid}/stat")).exists());
    }

    #[test]
    fn missing_worker_binary_names_the_build_command() {
        let err = worker_binary("cwc-no-such-worker").unwrap_err();
        assert!(err.contains("cargo build --release --bin cwc-shard --bin cwc-workerd"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let record = Record {
            workload: "wide_ssa_farm",
            trace: 0,
            correct: true,
            attempted: 9,
            failed: 0,
            metrics: vec![Metric {
                name: "run_wall_s",
                unit: "s",
                value: 1.25,
                stats: Some(Summary::of(&[1.0, 1.25, 2.0])),
            }],
        };
        assert_eq!(
            record.to_json(None).render(),
            r#"{"correct":true,"attempted":9,"failed":0,"metrics":{"run_wall_s":{"value":1.25,"unit":"s"}}}"#
        );
        let full = record.to_json(Some(&Value::obj([("seed", Value::Num(1.0))])));
        assert_eq!(
            full.get("workload").and_then(Value::as_str),
            Some("wide_ssa_farm")
        );
        let m = full.get("metrics").unwrap().get("run_wall_s").unwrap();
        assert_eq!(m.get("n").and_then(Value::as_f64), Some(3.0));
    }
}
