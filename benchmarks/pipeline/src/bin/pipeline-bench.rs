//! `pipeline-bench` — the end-to-end half of the `pipeline` benchmark.
//!
//! Load model: batch job, closed loop, one client. One complete run at a
//! time from a single harness thread; the system under test gets
//! `sim_workers = 2`, `stat_workers = 1`. Per invocation, for one
//! workload: the set-up probes (fresh child processes, each paying model
//! build, transport bring-up and one cold run), then timed runs until
//! `--seconds` have elapsed (at least three), then one `run_sequential`
//! oracle run that every other run's output must equal bit for bit.
//!
//! Subcommands: `compare <a> <b>` (see `pipeline_bench::compare`),
//! `manifest` (prints `BENCHMARK.json`), and the internal `setup-probe`.

use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pipeline_bench::harness::{
    run_guarded, worker_binary, Args, ChildGuard, Metric, Record, RUN_TIMEOUT,
};
use pipeline_bench::manifest::{benchmark_json, END_TO_END};
use pipeline_bench::stats::Summary;
use pipeline_bench::workloads::{Digest, Runner};
use pipeline_bench::{compare, header};

/// Fresh-process set-ups measured per invocation; `setup_s` is their
/// median. Three is what the per-invocation time budget affords (each
/// pays a full cold run) and is enough for a median to shed one outlier.
const SETUP_PROBES: usize = 3;
/// Timed runs per invocation, however short `--seconds` is.
const MIN_REPS: usize = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare_files(&args[1..]),
        Some("manifest") => {
            print!("{}", benchmark_json().render_pretty());
            Ok(true)
        }
        Some("setup-probe") => setup_probe(&args[1..]),
        _ => bench(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("pipeline-bench: {msg}");
            ExitCode::from(2)
        }
    }
}

fn compare_files(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("usage: pipeline-bench compare <a.jsonl> <b.jsonl>".into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (report, pass) = compare::compare(&read(a)?, &read(b)?)?;
    print!("{report}");
    Ok(pass)
}

/// The child side of a set-up probe: everything a fresh process pays
/// before its first steady-state run. Prints the cold run's digest so the
/// parent can hold it against the oracle.
fn setup_probe(args: &[String]) -> Result<bool, String> {
    let args = Args::parse(args, 0)?;
    let w = args.workload;
    let model = w.model();
    let cfg = w.config(args.seed, args.smoke);
    if w.runner == Runner::ShardedProcess {
        worker_binary("cwc-shard")?;
    }
    let report = w.run(model, &cfg).map_err(|e| format!("cold run: {e}"))?;
    let d = Digest::of(&report);
    println!("{:016x} {:016x}", d.rows, d.summary);
    Ok(true)
}

/// The parent side: spawns this executable as a set-up probe and times it
/// from spawn to exit — process start and teardown included, since a
/// fresh process pays those too.
fn timed_setup_probe(args: &Args) -> Result<(f64, Digest), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["setup-probe", "--workload", args.workload.name, "--seed"])
        .arg(args.seed.to_string())
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let start = Instant::now();
    let mut child = ChildGuard(
        cmd.spawn()
            .map_err(|e| format!("spawn set-up probe: {e}"))?,
    );
    // Polled rather than `wait_with_output` so the guard keeps the handle
    // and a stuck child is killed at the limit. The probe prints 34 bytes,
    // so it can never block on a full pipe.
    let status = loop {
        match child.0.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if start.elapsed() > RUN_TIMEOUT => {
                return Err("set-up probe exceeded the run limit".into())
            }
            Ok(None) => std::thread::sleep(Duration::from_micros(500)),
            Err(e) => return Err(format!("wait for set-up probe: {e}")),
        }
    };
    let elapsed = start.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!("set-up probe exited with {status}"));
    }
    let mut text = String::new();
    std::io::Read::read_to_string(
        child.0.stdout.as_mut().expect("stdout was piped"),
        &mut text,
    )
    .map_err(|e| format!("read set-up probe: {e}"))?;
    let mut words = text.split_whitespace().map(|w| u64::from_str_radix(w, 16));
    match (words.next(), words.next()) {
        (Some(Ok(rows)), Some(Ok(summary))) => Ok((elapsed, Digest { rows, summary })),
        _ => Err(format!(
            "set-up probe printed {text:?}, expected two hex digests"
        )),
    }
}

fn bench(raw: &[String]) -> Result<bool, String> {
    let args = Args::parse(raw, 0)?;
    let w = args.workload;
    if w.runner == Runner::ShardedProcess {
        worker_binary("cwc-shard")?;
    }
    let header = header::collect(args.seed, args.seconds, args.smoke);
    let (probes, min_reps, seconds) = if args.smoke {
        (1, 1, 0.0)
    } else {
        (SETUP_PROBES, MIN_REPS, args.seconds)
    };

    let mut attempted = 0u64;
    let mut failures: Vec<String> = Vec::new();
    let mut digests: Vec<(&str, Digest)> = Vec::new();

    let mut setups = Vec::new();
    for _ in 0..probes {
        attempted += 1;
        match timed_setup_probe(&args) {
            Ok((secs, digest)) => {
                setups.push(secs);
                digests.push(("set-up probe", digest));
            }
            Err(e) => failures.push(e),
        }
    }

    let model = w.model();
    let cfg = w.config(args.seed, args.smoke);
    let mut walls = Vec::new();
    let timed_start = Instant::now();
    while failures.is_empty()
        && (walls.len() < min_reps || timed_start.elapsed().as_secs_f64() < seconds)
    {
        attempted += 1;
        let (m, c) = (Arc::clone(&model), cfg.clone());
        // Model + config in, report out: the wall a caller waits.
        let start = Instant::now();
        let outcome = run_guarded("timed run", move || w.run(m, &c));
        let wall = start.elapsed().as_secs_f64();
        match outcome {
            Ok(report) => {
                walls.push(wall);
                digests.push(("timed run", Digest::of(&report)));
            }
            Err(e) => failures.push(e),
        }
    }

    attempted += 1;
    let (m, c) = (Arc::clone(&model), cfg.clone());
    let oracle = run_guarded("oracle", move || w.oracle(m, &c))
        .map_err(|e| failures.push(e))
        .ok();
    if let Some(oracle) = &oracle {
        for (what, digest) in &digests {
            if *digest != oracle.digest {
                failures.push(format!(
                    "{what}: output differs from the run_sequential oracle"
                ));
            }
        }
    }
    for f in &failures {
        eprintln!("pipeline-bench: {}: FAILED: {f}", w.name);
    }
    let (Some(oracle), false, false) = (oracle, walls.is_empty(), setups.is_empty()) else {
        return Err(format!("{}: nothing measurable completed", w.name));
    };

    let wall = Summary::of(&walls);
    let setup = Summary::of(&setups);
    let samples = cfg.instances as f64 * oracle.row_count as f64;
    let metric = |name: &str, value: f64, stats: Option<Summary>| {
        let m = END_TO_END
            .iter()
            .find(|m| m.name == name)
            .expect("metric is in the end-to-end table");
        Metric {
            name: m.name,
            unit: m.unit,
            value,
            stats,
        }
    };
    let record = Record {
        workload: w.name,
        trace: 0,
        correct: failures.is_empty(),
        attempted,
        failed: failures.len() as u64,
        metrics: vec![
            metric("run_wall_s", wall.median, Some(wall.clone())),
            metric("samples_per_s", samples / wall.median, None),
            metric("events_per_s", oracle.events as f64 / wall.median, None),
            metric("setup_s", setup.median, Some(setup.clone())),
        ],
    };
    record
        .emit(&header, args.out.as_ref())
        .map_err(|e| format!("--out: {e}"))?;
    Ok(failures.is_empty())
}
