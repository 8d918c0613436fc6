//! FIG4 — Speedup of the distributed simulation farm (Infiniband, IPoIB).
//!
//! Reproduces the paper's Fig. 4: the distributed simulator as a farm of
//! simulation pipelines. Two modes:
//!
//! - **default** — the *real* sharded runner: `cwc-shard` child OS
//!   processes (one per shard) simulate slices of the trajectory
//!   ensemble and stream aligned partial cuts back over a loopback
//!   socket each; the table reports measured wall-clock speedup vs
//!   the single-shard run, with the rows asserted bit-for-bit identical
//!   across shard counts. Build the worker first
//!   (`cargo build --release --bin cwc-shard`); when it cannot be
//!   resolved the bench falls back to the emulated path with a warning.
//! - **`--workers host:port,...`** — the real *network* farm: shards
//!   are placed on running `cwc-workerd` daemons over TCP
//!   (`distrt::net::TcpShardTransport`), so the measured speedup spans
//!   real hosts. Start a daemon per host first
//!   (`cargo run --release --bin cwc-workerd -- --listen 0.0.0.0:7701`);
//!   rows are still asserted bit-for-bit identical across shard counts —
//!   placement must be invisible in the results.
//! - **`--emulated`** — the original DES model of the paper's testbed
//!   (1–8 hosts × 2/4 cores over IPoIB), which predicts *timing* for
//!   hardware we don't have.
//!
//! Run: `cargo run -p bench --release --bin fig4_cluster_speedup`
//! (`--quick` for the CI smoke configuration, `--csv` for baselines).

use std::sync::Arc;
use std::time::Instant;

use bench::{costs, f2, print_table, quick_mode, trace};
use cwcsim::{SimConfig, TransportKind};
use distrt::cluster::{simulate_cluster, ClusterParams};
use distrt::platform::{HostProfile, NetworkProfile};
use distrt::shard::{run_simulation_sharded, ProcessTransport};

/// The paper's DES prediction for the cluster testbed (the pre-sharding
/// behaviour of this reproducer, kept behind `--emulated`).
fn emulated() {
    let quick = quick_mode();
    eprintln!("# FIG4 (emulated): recording workload ...");
    let trace = trace(512, quick, 48.0, 500, 1, 60.0).coarsen(10);
    let cost = costs(quick);

    for cores_per_host in [2usize, 4] {
        let mut rows = Vec::new();
        let mut t1 = None;
        for hosts in 1..=8usize {
            let mut p = ClusterParams::homogeneous(
                hosts,
                HostProfile::xeon12().with_cores(cores_per_host),
                NetworkProfile::ipoib(),
            );
            p.costs = cost;
            let out = simulate_cluster(&trace, &p);
            let t1v = *t1.get_or_insert(out.makespan_s);
            rows.push(vec![
                hosts.to_string(),
                (hosts * cores_per_host).to_string(),
                f2(hosts as f64),         // ideal vs hosts
                f2(t1v / out.makespan_s), // speedup vs 1 host
                f2(out.speedup()),        // speedup vs sequential (aggregated cores)
            ]);
        }
        print_table(
            &format!("FIG4 emulated, {cores_per_host} cores per host, IPoIB, 4 stat engines"),
            &[
                "hosts",
                "agg cores",
                "ideal",
                "speedup vs 1 host",
                "speedup vs sequential",
            ],
            &rows,
        );
    }
    bench::note(
        "\npaper reference: speedup grows near-linearly with hosts; per-core\n\
         efficiency is below the shared-memory run due to network streaming.",
    );
}

/// The real sharded farm: measured wall clock per shard count, rows
/// checked bit-for-bit against the single-shard reference. With a
/// worker list, shards run on remote `cwc-workerd` daemons over TCP
/// instead of local child processes.
fn sharded(workers: Option<Vec<String>>) {
    let quick = quick_mode();
    let (instances, t_end) = if quick { (48, 4.0) } else { (192, 8.0) };
    let model = bench::neurospora_model();
    let mut base = SimConfig::new(instances, t_end)
        .quantum(t_end / 16.0)
        .sample_period(t_end / 160.0)
        .sim_workers(2)
        .stat_workers(2)
        .window(5, 1)
        .seed(42);
    let tcp = workers.is_some();
    if let Some(addrs) = workers {
        base = base.transport(TransportKind::Tcp).workers(addrs);
    }

    eprintln!("# FIG4: real sharded runner, {instances} trajectories to t = {t_end} ...");
    let mut rows = Vec::new();
    let mut reference: Option<(f64, Vec<cwcsim::StatRow>)> = None;
    for shards in [1usize, 2, 3, 4] {
        let cfg = base.clone().shards(shards);
        let start = Instant::now();
        let report = run_simulation_sharded(Arc::clone(&model), &cfg).unwrap_or_else(|e| {
            panic!(
                "sharded run failed ({}): {e}",
                if tcp {
                    "are the cwc-workerd daemons up?"
                } else {
                    "is cwc-shard built?"
                }
            )
        });
        let wall = start.elapsed().as_secs_f64();
        let (t1, ref_rows) = reference.get_or_insert_with(|| (wall, report.rows.clone()));
        assert_eq!(
            &report.rows, ref_rows,
            "shards={shards}: rows diverged from the single-shard run"
        );
        rows.push(vec![
            shards.to_string(),
            if tcp {
                "tcp workers"
            } else if shards == 1 {
                "in-process"
            } else {
                "processes"
            }
            .to_string(),
            bench::secs(wall),
            f2(*t1 / wall),
            report.events.to_string(),
            "identical".to_string(),
        ]);
    }
    print_table(
        &format!(
            "FIG4, real sharded farm ({})",
            if tcp {
                format!("cwc-workerd daemons over TCP: {}", base.workers.join(", "))
            } else {
                format!(
                    "cwc-shard worker processes, wire-v{} over loopback sockets",
                    distrt::wire::VERSION
                )
            }
        ),
        &[
            "shards",
            "workers",
            "wall",
            "speedup vs 1 shard",
            "events",
            "rows vs 1 shard",
        ],
        &rows,
    );
    bench::note(
        "\nsharding ships aligned partial cuts, merged back in instance\n\
         order; per-instance seeding keeps every shard count\n\
         bit-for-bit identical (asserted above). Small configs are\n\
         dominated by process spawn + model compile per shard.",
    );
}

fn main() {
    if std::env::args().any(|a| a == "--emulated") {
        emulated();
        return;
    }
    // Network mode: place shards on the listed cwc-workerd daemons.
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--workers") {
        let list = args
            .get(i + 1)
            .expect("--workers takes a comma-separated host:port list");
        sharded(Some(list.split(',').map(str::to_owned).collect()));
        return;
    }
    // The real path needs the worker binary; degrade gracefully so the
    // bench never hard-fails on a checkout that only built `bench`.
    match ProcessTransport::new() {
        Ok(_) => sharded(None),
        Err(e) => {
            bench::note(&format!(
                "falling back to --emulated: {e} (build it and re-run for the real measurement)"
            ));
            emulated();
        }
    }
}
