//! Quickstart: build a CWC model, run the parallel simulation-analysis
//! pipeline with the exact (SSA) integrator, print the resulting
//! statistics as CSV — then re-run the *same* pipeline under the batched
//! kind and adaptive (CGP) tau-leaping with one config knob
//! (`SimConfig::engine`) and compare.
//!
//! Everything the program needs is imported from the `cwc_repro` umbrella
//! crate: the end-to-end run API (`SimConfig`, `EngineKind`,
//! `run_simulation`, …) lives at the umbrella root, and the model builder
//! is reached through the re-exported `cwc` member crate.
//!
//! Run: `cargo run --release --example quickstart`
//!
//! With `-- --shards N` the run is repeated through the sharded farm —
//! N real `cwc-shard` child processes (build the worker first:
//! `cargo build --release --bin cwc-shard`), each simulating a slice of
//! the trajectories and streaming partial cuts back — and the rows and
//! the whole-run summary are asserted **bit-for-bit identical** to the
//! single-process run (exit code 1 otherwise; the CI sharded smoke leg
//! runs exactly this). `-- --retries N` arms the supervisor's retry
//! budget and `-- --shard-timeout SECS` its watchdog, so the same smoke
//! run also survives an injected worker fault (`CWC_SHARD_FAULT`; the
//! CI fault-injection leg kills one shard mid-run this way and still
//! demands bit-for-bit rows and summary).
//!
//! With `-- --transport tcp --workers host:port,host:port` the sharded
//! re-run places its shards on running `cwc-workerd` daemons over TCP
//! instead of spawning local children (`--connect-timeout SECS` bounds
//! the per-worker connect/handshake). The bit-for-bit assertion is
//! unchanged — worker placement must be invisible in the report; the CI
//! loopback-cluster leg runs exactly this, killing one daemon mid-run.

use std::sync::Arc;

use cwc_repro::cwc::model::Model;
use cwc_repro::{run_simulation, EngineKind, SimConfig, StatEngineKind};

/// Value of `--<name> <v>` parsed as `T` (None when the flag is absent).
fn flag_arg<T: std::str::FromStr>(name: &str) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    let flag = format!("--{name}");
    let i = args.iter().position(|a| *a == flag)?;
    Some(
        args.get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{flag} takes a number")),
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A reversible dimerisation model, written with the fluent builder.
    let mut model = Model::new("quickstart-dimerisation");
    let a = model.species("A");
    model
        .rule("dimerise")
        .consumes("A", 2)
        .produces("D", 1)
        .rate(0.002)
        .build()?;
    model
        .rule("dissociate")
        .consumes("D", 1)
        .produces("A", 2)
        .rate(0.1)
        .build()?;
    model.initial.add_atoms(a, 500);
    model.observe("A", a);
    let d = model.species("D");
    model.observe("D", d);

    // 32 trajectories to t = 20, sampled every 0.5 time units, simulated by
    // a farm of 4 engines with quantum-based rescheduling, analysed by 2
    // statistical engines over sliding windows.
    let cfg = SimConfig::new(32, 20.0)
        .quantum(1.0)
        .sample_period(0.5)
        .sim_workers(4)
        .stat_workers(2)
        .window(5, 1)
        .engines(vec![StatEngineKind::MeanVariance])
        .seed(42);

    let model = Arc::new(model);
    let report = run_simulation(Arc::clone(&model), &cfg)?;
    println!("{}", report.to_csv());
    eprintln!(
        "simulated {} reactions across {} trajectories in {:?}",
        report.events, cfg.instances, report.wall
    );

    // Sharded re-run: same model, same seeds, N child processes — and
    // the per-instance seeding makes the rows bit-for-bit identical; the
    // coordinator summarises the merged cuts, so the summary is too.
    // With a retry budget and/or watchdog armed, that still holds when a
    // worker dies mid-run: the supervisor requeues the slice and the
    // deterministic replay slots straight back into the merge.
    if let Some(shards) = flag_arg::<usize>("shards") {
        let mut sharded_cfg = cfg.clone().shards(shards);
        if let Some(retries) = flag_arg::<usize>("retries") {
            sharded_cfg = sharded_cfg.retries(retries);
        }
        if let Some(secs) = flag_arg::<f64>("shard-timeout") {
            sharded_cfg = sharded_cfg.shard_timeout(secs);
        }
        if let Some(kind) = flag_arg::<cwc_repro::TransportKind>("transport") {
            sharded_cfg = sharded_cfg.transport(kind);
        }
        if let Some(list) = flag_arg::<String>("workers") {
            sharded_cfg = sharded_cfg.workers(list.split(',').map(str::to_owned).collect());
        }
        if let Some(secs) = flag_arg::<f64>("connect-timeout") {
            sharded_cfg = sharded_cfg.connect_timeout(secs);
        }
        let sharded =
            cwc_repro::distrt::shard::run_simulation_sharded(Arc::clone(&model), &sharded_cfg)?;
        if sharded.rows != report.rows
            || sharded.events != report.events
            || sharded.summary != report.summary
        {
            eprintln!("sharded run DIVERGED from the single-process run");
            std::process::exit(1);
        }
        let where_ = match sharded_cfg.transport {
            cwc_repro::TransportKind::Tcp => format!(
                "{} shards on tcp workers [{}]",
                shards,
                sharded_cfg.workers.join(", ")
            ),
            cwc_repro::TransportKind::Process => format!("{shards} worker processes"),
        };
        eprintln!(
            "sharded re-run across {}: {} reactions in {:?} — \
             rows and summary bit-for-bit identical to the single-process run",
            where_, sharded.events, sharded.wall
        );
    }

    // Batched kind: workers pull tasks of 8 instances instead of single
    // instances. Every replica is stepped by scalar SSA on its own RNG
    // stream, so the rows are bit-for-bit identical to the plain SSA run
    // above.
    let batched_cfg = cfg.clone().engine(EngineKind::batched(8)?);
    let batched = run_simulation(Arc::clone(&model), &batched_cfg)?;
    if batched.rows != report.rows || batched.events != report.events {
        eprintln!("batched run DIVERGED from the scalar SSA run");
        std::process::exit(1);
    }
    eprintln!(
        "batched re-run (width 8): {} firings in {:?} — rows bit-for-bit \
         identical to the scalar SSA run",
        batched.events, batched.wall
    );

    // Engine selection: the dimerisation model is flat mass-action, so the
    // approximate adaptive tau-leaping integrator may drive the identical
    // pipeline (compartment models would be rejected here with an engine
    // error). No leap length to pick — every leap is sized from the state
    // so propensities change by at most epsilon per leap (critical
    // reactions near exhaustion still fire exactly).
    let adaptive_cfg = cfg.engine(EngineKind::adaptive_tau(0.03)?);
    let adaptive = run_simulation(model, &adaptive_cfg)?;
    eprintln!(
        "adaptive-tau re-run: {} firings in {:?}; grand mean of A {:.2} vs exact {:.2}",
        adaptive.events,
        adaptive.wall,
        adaptive.grand_mean(0),
        report.grand_mean(0),
    );
    Ok(())
}
