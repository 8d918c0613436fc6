//! `pipeline-trace` — the per-layer half of the `pipeline` benchmark.
//!
//! Per invocation, for one workload: the `run_sequential` oracle (also
//! `baseline.seq_wall_s`), one untraced run through the production runner
//! (speed-up, CPU per wall, the program's own per-node busy shares), the
//! traced single-thread re-composition (see `recompose`), then the probes.
//! Spans are kept in memory and written to
//! `benchmarks/pipeline/out/trace-<workload>.jsonl` at exit.
//!
//! Every layer-internal name the benchmark uses lives in this binary; a
//! layer-API change breaks this build only (`manifest::LAYER_API`).

mod alloc;
mod probes;
mod recompose;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use pipeline_bench::harness::{run_guarded, worker_binary, Args, Metric, Record};
use pipeline_bench::header;
use pipeline_bench::manifest::PER_LAYER;
use pipeline_bench::workloads::{Digest, Runner};

use probes::Metrics;
use recompose::names;
use spans::Tracer;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match trace(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("pipeline-trace: {msg}");
            ExitCode::from(2)
        }
    }
}

fn trace(raw: &[String]) -> Result<bool, String> {
    // `--seconds` is accepted for the driver's sake; the traced run is one
    // pass over the workload, however long that takes.
    let args = Args::parse(raw, 1)?;
    let w = args.workload;
    let sharded = w.runner == Runner::ShardedProcess;
    if sharded {
        worker_binary("cwc-shard")?;
        worker_binary("cwc-workerd")?;
    }
    let header = header::collect(args.seed, args.seconds, args.smoke);
    let model = w.model();
    let cfg = w.config(args.seed, args.smoke);
    let mut m = Metrics::new();
    let mut attempted = 0u64;
    let mut failures: Vec<String> = Vec::new();

    // 1. The oracle; nothing below means anything without it.
    attempted += 1;
    let (mo, co) = (Arc::clone(&model), cfg.clone());
    let oracle = run_guarded("oracle", move || w.oracle(mo, &co))?;
    m.insert("baseline.seq_wall_s", oracle.seq_wall_s);

    // 2. One untraced run through the production runner.
    attempted += 1;
    let (mo, co) = (Arc::clone(&model), cfg.clone());
    let cpu_before = probes::process_cpu_s();
    let start = Instant::now();
    let outcome = run_guarded("production run", move || w.run(mo, &co));
    let wall = start.elapsed().as_secs_f64();
    match outcome {
        Ok(report) => {
            if Digest::of(&report) != oracle.digest {
                failures.push("production run: output differs from the oracle".into());
            }
            m.insert("fastflow.farm.speedup_vs_seq", oracle.seq_wall_s / wall);
            m.insert(
                "fastflow.farm.cpu_per_wall",
                (probes::process_cpu_s() - cpu_before) / wall,
            );
            // The program's own accounting. "Busy" there includes time a
            // node spent blocked pushing into a full downstream channel.
            for (node, name) in [
                ("alignment", "fastflow.node.alignment.busy_share"),
                ("run-summary", "fastflow.node.run-summary.busy_share"),
                ("window-gen", "fastflow.node.window-gen.busy_share"),
            ] {
                let share = report.run_stats.node(node).map_or(0.0, |n| n.utilisation());
                m.insert(name, share);
            }
        }
        Err(e) => failures.push(e),
    }

    // 3. The traced re-composition.
    attempted += 1;
    let mut tracer = Tracer::new();
    let traced =
        recompose::run(&mut tracer, &model, &cfg).map_err(|e| format!("traced run: {e}"))?;
    let got = Digest::of(&traced.report);
    // Unsharded, so its summary is comparable to the oracle's only where
    // the oracle is unsharded too; rows, events and names always are.
    if got.rows != oracle.digest.rows || (!sharded && got.summary != oracle.digest.summary) {
        failures.push("traced run: output differs from the oracle".into());
    }
    layer_metrics(&mut m, &tracer, &traced, oracle.seq_wall_s);

    // 4. Probes outside the traced run.
    probes::engine_kinds(&mut m, &cfg.engines, &traced.cuts);
    probes::fastflow(&mut m);
    if sharded {
        let runs = probes::sharded(&mut m, &model, &cfg, &traced.cuts, oracle.digest)?;
        attempted += runs.attempted;
        failures.extend(runs.failures);
    }
    m.insert("process.cpu_s", probes::process_cpu_s());
    m.insert("process.peak_rss_mb", probes::peak_rss_mb());

    let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
        .join(format!("trace-{}.jsonl", w.name));
    tracer
        .write_jsonl(w.name, &header, &path)
        .map_err(|e| format!("{}: {e}", path.display()))?;

    for f in &failures {
        eprintln!("pipeline-trace: {}: FAILED: {f}", w.name);
    }
    let total = m["trace.total_s"];
    if m["trace.unattributed_s"] > 0.05 * total || m["trace.overhead_ratio"] > 1.10 {
        eprintln!(
            "pipeline-trace: {}: note: unattributed {:.1}% of the trace, overhead ratio {:.3} \
             (targets: 5%, 1.10)",
            w.name,
            100.0 * m["trace.unattributed_s"] / total,
            m["trace.overhead_ratio"]
        );
    }
    if let Some(stray) = m.keys().find(|k| PER_LAYER.iter().all(|l| l.name != **k)) {
        return Err(format!("metric `{stray}` is not in the per-layer table"));
    }
    let record = Record {
        workload: w.name,
        trace: 1,
        correct: failures.is_empty(),
        attempted,
        failed: failures.len() as u64,
        // A layer that is not on this workload's path reads 0.
        metrics: PER_LAYER
            .iter()
            .map(|l| Metric {
                name: l.name,
                unit: l.unit,
                value: m.get(l.name).copied().unwrap_or(0.0),
                stats: None,
            })
            .collect(),
    };
    record
        .emit(&header, args.out.as_ref())
        .map_err(|e| format!("--out: {e}"))?;
    Ok(failures.is_empty())
}

/// Derives the per-layer metrics of the traced run from its span totals
/// and boundary counts.
fn layer_metrics(
    m: &mut Metrics,
    tracer: &Tracer,
    traced: &recompose::Recomposed,
    seq_wall_s: f64,
) {
    let totals = tracer.totals();
    let of = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let c = traced.counts;
    let root = &tracer.spans()[0];
    let total_s = (root.end_ns - root.start_ns) as f64 / 1e9;
    let cuts = traced.cuts.len() as u64;

    let quantum = of(names::QUANTUM);
    m.insert("gillespie.deps.compile_s", of(names::DEPS_COMPILE).secs());
    m.insert("gillespie.engine.busy_s", quantum.secs());
    m.insert("gillespie.engine.quanta", quantum.count as f64);
    m.insert("gillespie.engine.events", c.events as f64);
    m.insert(
        "gillespie.engine.events_per_s",
        c.events as f64 / quantum.secs(),
    );
    m.insert("gillespie.engine.share", quantum.secs() / total_s);
    m.insert(
        "gillespie.engine.allocs_per_quantum",
        per(quantum.self_allocs as f64, quantum.count),
    );

    // The hand-off: what the engines allocate and move to get a sample
    // out. Bytes are computed from the sample layout, not measured.
    let sample_bytes = std::mem::size_of::<(f64, Vec<u64>)>() as u64 + 8 * c.observables;
    m.insert("cwcsim.task.new_s", of(names::TASK_NEW).secs());
    m.insert("cwcsim.task.samples", c.samples as f64);
    m.insert(
        "cwcsim.task.sample_bytes",
        (c.samples * sample_bytes) as f64,
    );
    m.insert(
        "cwcsim.task.allocs_per_sample",
        per(quantum.self_allocs as f64, c.samples),
    );

    let align = of(names::ALIGN);
    m.insert("cwcsim.alignment.busy_s", align.secs());
    m.insert("cwcsim.alignment.batches_in", align.count as f64);
    m.insert("cwcsim.alignment.cuts_out", cuts as f64);
    m.insert(
        "cwcsim.alignment.ns_per_sample",
        per(align.self_ns as f64, c.samples),
    );
    m.insert(
        "cwcsim.alignment.allocs_per_sample",
        per(align.self_allocs as f64, c.samples),
    );
    m.insert("cwcsim.alignment.peak_buffered", c.peak_buffered as f64);

    let summary = of(names::SUMMARY);
    m.insert("cwcsim.merge.summary_busy_s", summary.secs());
    m.insert(
        "cwcsim.merge.summary_ns_per_sample",
        per(summary.self_ns as f64, c.samples),
    );

    let windows_ns = of(names::WINDOWS).self_ns + of(names::WINDOW_DROP).self_ns;
    let engines = of(names::ENGINES);
    m.insert("cwcsim.windows.busy_s", windows_ns as f64 / 1e9);
    m.insert("cwcsim.windows.windows_out", engines.count as f64);
    m.insert("cwcsim.windows.ns_per_cut", per(windows_ns as f64, cuts));
    m.insert("cwcsim.engines.busy_s", engines.secs());
    m.insert("cwcsim.engines.rows_out", traced.report.rows.len() as f64);
    m.insert(
        "cwcsim.engines.ns_per_sample",
        per(engines.self_ns as f64, c.samples),
    );

    m.insert("cwcsim.display.csv_s", of(names::CSV).secs());
    m.insert("cwcsim.display.csv_bytes", c.csv_bytes as f64);

    m.insert("trace.total_s", total_s);
    m.insert("trace.spans", tracer.spans().len() as f64);
    m.insert("trace.unattributed_s", of(names::TOTAL).secs());
    m.insert("trace.overhead_ratio", total_s / seq_wall_s);
}
