//! The TCP shard transport's core contract, end-to-end against real
//! `cwc-workerd` daemon processes on loopback:
//!
//! - a farm of 2–3 daemons produces **bit-for-bit** the same report
//!   (`StatRow`s, event count *and* the whole-run `RunSummary`) as the
//!   sequential reference and the local `ProcessTransport` — for every
//!   engine kind, the batched kind included, and every shard count;
//! - a worker killed mid-run (SIGKILL, no protocol goodbye) is detected
//!   and its slice requeued onto a *surviving* worker, and the merged
//!   report is still bit-for-bit identical;
//! - worker placement is recorded (`TcpShardTransport::placements`), so
//!   the requeue-onto-survivor policy is observable, not inferred.
//!
//! Each daemon is spawned with `--listen 127.0.0.1:0` and its ephemeral
//! port parsed from the `cwc-workerd listening on <addr>` stdout line —
//! the same discovery the CI loopback-cluster leg uses.

use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

use cwc_repro::biomodels;
use cwc_repro::cwc::model::Model;
use cwc_repro::cwcsim::{
    run_sequential, run_simulation, run_simulation_sharded_with, SimConfig, SimReport, Steering,
    TransportKind,
};
use cwc_repro::distrt::net::TcpShardTransport;
use cwc_repro::distrt::shard::ProcessTransport;

mod common;
use common::{assert_reports_identical, cfg, engine_kinds, Workerd};

fn tcp_cfg(base: &SimConfig, shards: usize, daemons: &[Workerd]) -> SimConfig {
    base.clone()
        .shards(shards)
        .transport(TransportKind::Tcp)
        .workers(daemons.iter().map(|d| d.addr.clone()).collect())
        .connect_timeout(10.0)
}

fn run_tcp(model: &Arc<Model>, cfg: &SimConfig) -> (SimReport, TcpShardTransport) {
    let mut transport = TcpShardTransport::from_config(cfg);
    let report =
        run_simulation_sharded_with(Arc::clone(model), cfg, &Steering::new(), &mut transport)
            .expect("tcp run");
    (report, transport)
}

/// The loopback-cluster matrix: every engine kind × shards {1, 2, 3}
/// against two live daemons, asserted bit-for-bit against the
/// sequential reference — and, per kind, the local `ProcessTransport`
/// too, so every deployment agrees exactly.
#[test]
fn tcp_farm_agrees_bit_for_bit_across_the_matrix() {
    let daemons = [Workerd::spawn(&[]), Workerd::spawn(&[])];
    let model = Arc::new(biomodels::simple::decay(60, 1.0));
    for kind in engine_kinds() {
        let base = cfg().engine(kind);
        let single = run_sequential(Arc::clone(&model), &base)
            .unwrap_or_else(|e| panic!("{kind}: sequential reference failed: {e}"));
        assert!(!single.rows.is_empty(), "{kind}: empty reference");

        // The same slices through local child processes.
        let mut process = ProcessTransport::new().expect("cwc-shard built alongside this test");
        let via_process = run_simulation_sharded_with(
            Arc::clone(&model),
            &base.clone().shards(3),
            &Steering::new(),
            &mut process,
        )
        .unwrap_or_else(|e| panic!("{kind}: process-transport run failed: {e}"));
        assert_reports_identical(&via_process, &single, &format!("{kind}/process"));

        for shards in [1usize, 2, 3] {
            let label = format!("{kind}/tcp/shards={shards}");
            let (report, transport) = run_tcp(&model, &tcp_cfg(&base, shards, &daemons));
            assert_reports_identical(&report, &single, &label);
            // Every shard was placed exactly once, all on first attempts.
            let placements = transport.placements();
            assert_eq!(placements.len(), shards, "{label}: {placements:?}");
            assert!(placements.iter().all(|p| p.attempt == 0), "{label}");
        }
    }
}

/// A worker that dies without a goodbye — SIGKILL mid-run — must not
/// poison the run: its slices are requeued onto the surviving daemons
/// and the merged report stays bit-for-bit identical. (If the run wins
/// the race and finishes before the kill lands, the assertion holds
/// trivially — either timing is a pass; the *deterministic* worker
/// death is exercised by the fault-injection matrix.)
#[test]
fn sigkill_mid_run_recovers_bit_for_bit_on_survivors() {
    // A heavier run than the matrix so the kill usually lands mid-run.
    let base = cfg();
    let mut heavy = base.clone().seed(9001);
    heavy.instances = 24;
    let model = Arc::new(biomodels::simple::decay(120, 1.0));
    let single = run_simulation(Arc::clone(&model), &heavy).expect("reference");

    let mut daemons = vec![
        Workerd::spawn(&[]),
        Workerd::spawn(&[]),
        Workerd::spawn(&[]),
    ];
    let run_cfg = tcp_cfg(&heavy, 3, &daemons).retries(2).shard_timeout(10.0);

    let victim_pid = daemons[0].child.id();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        // SIGKILL by pid: no drop handler involved, no clean shutdown.
        let _ = Command::new("kill")
            .args(["-9", &victim_pid.to_string()])
            .status();
    });

    let (report, transport) = run_tcp(&model, &run_cfg);
    killer.join().unwrap();
    assert_reports_identical(&report, &single, "sigkill/tcp");

    // Any requeued slice must have moved to a different worker than its
    // previous attempt — the transport records every placement.
    let placements = transport.placements();
    for p in placements.iter().filter(|p| p.attempt > 0) {
        let prev = placements
            .iter()
            .find(|q| q.shard == p.shard && q.attempt == p.attempt - 1)
            .unwrap_or_else(|| panic!("missing prior attempt for {p:?}"));
        assert_ne!(
            p.worker, prev.worker,
            "retry stayed on the dead worker: {placements:?}"
        );
    }
    for d in &mut daemons {
        d.kill();
    }
}

/// Killing *every* worker mid-run must end in a typed error, never a
/// hang: with no survivor left, the requeue exhausts the (dead)
/// registry and surfaces a typed `ShardError`.
#[test]
fn killing_every_worker_is_a_typed_error_not_a_hang() {
    use cwc_repro::cwcsim::SimError;

    let mut heavy = cfg().seed(4242);
    heavy.instances = 24;
    let model = Arc::new(biomodels::simple::decay(120, 1.0));
    let mut daemons = vec![Workerd::spawn(&[]), Workerd::spawn(&[])];
    let run_cfg = tcp_cfg(&heavy, 2, &daemons).retries(3).connect_timeout(2.0);

    let pids: Vec<u32> = daemons.iter().map(|d| d.child.id()).collect();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(100));
        for pid in pids {
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
        }
    });

    let started = std::time::Instant::now();
    let mut transport = TcpShardTransport::from_config(&run_cfg);
    let result = run_simulation_sharded_with(
        Arc::clone(&model),
        &run_cfg,
        &Steering::new(),
        &mut transport,
    );
    killer.join().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "run did not terminate promptly: {:?}",
        started.elapsed()
    );
    match result {
        // The kill can lose the race on a fast machine — a completed
        // run must then still be bit-for-bit.
        Ok(report) => {
            let single = run_simulation(Arc::clone(&model), &heavy).expect("reference");
            assert_reports_identical(&report, &single, "all-killed-but-finished");
        }
        Err(SimError::Shard(e)) => {
            assert!(!e.to_string().is_empty());
        }
        Err(other) => panic!("expected a shard error, got {other}"),
    }
    for d in &mut daemons {
        d.kill();
    }
}
