//! The TCP shard transport's core contract, end-to-end against real
//! `cwc-workerd` daemon processes on loopback:
//!
//! - a farm of 2–3 daemons produces **bit-for-bit** the same merged
//!   report (`StatRow`s, event count *and* the mergeable `RunSummary`,
//!   compared by its wire encoding) as the single-process runner and as
//!   the local `ProcessTransport` — for every engine kind, the batched
//!   kind included, and every shard count;
//! - a worker killed mid-run (SIGKILL, no protocol goodbye) is detected
//!   and its slice requeued onto a *surviving* worker, and the merged
//!   report is still bit-for-bit identical;
//! - worker placement is recorded (`TcpShardTransport::placements`), so
//!   the requeue-onto-survivor policy is observable, not inferred.
//!
//! Each daemon is spawned with `--listen 127.0.0.1:0` and its ephemeral
//! port parsed from the `cwc-workerd listening on <addr>` stdout line —
//! the same discovery the CI loopback-cluster leg uses.

use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use cwc_repro::biomodels;
use cwc_repro::cwc::model::Model;
use cwc_repro::cwcsim::{
    run_simulation, run_simulation_sharded_with, EngineKind, InProcessTransport, SimConfig,
    SimReport, Steering, TransportKind,
};
use cwc_repro::distrt::net::TcpShardTransport;
use cwc_repro::distrt::shard::ProcessTransport;
use cwc_repro::distrt::wire;

/// One spawned `cwc-workerd` child on an ephemeral loopback port.
/// Killed on drop so no daemon outlives its test.
struct Workerd {
    child: Child,
    addr: String,
}

impl Workerd {
    fn spawn() -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_cwc-workerd"))
            .args(["--listen", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn cwc-workerd");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("workerd announces its address");
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .expect("addr token")
            .to_string();
        assert!(
            line.contains("listening on") && addr.contains(':'),
            "unexpected announcement: {line:?}"
        );
        Workerd { child, addr }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Workerd {
    fn drop(&mut self) {
        self.kill();
    }
}

fn cfg() -> SimConfig {
    SimConfig::new(7, 2.0)
        .quantum(0.5)
        .sample_period(0.25)
        .sim_workers(2)
        .stat_workers(2)
        .window(4, 2)
        .seed(101)
        .shard_backoff(0.0, 0.0)
}

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

/// The portable bit-for-bit contract: merged `StatRow`s and the event
/// count are identical regardless of deployment (single process,
/// in-process shards, child processes, TCP farm).
fn assert_rows_identical(a: &SimReport, b: &SimReport, label: &str) {
    assert_eq!(a.rows, b.rows, "{label}: rows diverged");
    assert_eq!(a.events, b.events, "{label}: event counts diverged");
}

/// Whole-report bit-for-bit equality, including the merged `RunSummary`
/// compared through its canonical wire encoding. The summary folds one
/// partial cut per shard, so its bytes are only comparable between runs
/// with the *same* shard count — rows and events are comparable across
/// any deployment (see [`assert_rows_identical`]).
fn assert_reports_identical(a: &SimReport, b: &SimReport, label: &str) {
    assert_rows_identical(a, b, label);
    assert_eq!(
        wire::to_bytes(&a.summary),
        wire::to_bytes(&b.summary),
        "{label}: merged summaries diverged"
    );
}

/// The loopback-cluster matrix: every engine kind × shards {1, 2, 3}
/// against two live daemons, asserted bit-for-bit against the
/// single-process runner — and, per kind, against the local
/// `ProcessTransport` too, so all three deployments agree exactly.
#[test]
fn tcp_farm_agrees_bit_for_bit_across_the_matrix() {
    let daemons = [Workerd::spawn(), Workerd::spawn()];
    let model = Arc::new(biomodels::simple::decay(60, 1.0));
    let kinds = [
        EngineKind::Ssa,
        EngineKind::AdaptiveTau { epsilon: 0.05 },
        EngineKind::Hybrid {
            epsilon: 0.05,
            threshold: 8.0,
        },
        EngineKind::Batched { width: 3 },
    ];
    for kind in kinds {
        let base = cfg().engine(kind);
        let single = run_simulation(Arc::clone(&model), &base)
            .unwrap_or_else(|e| panic!("{kind}: single-process reference failed: {e}"));
        assert!(!single.rows.is_empty(), "{kind}: empty reference");

        // The same slices through local child processes, for the
        // three-way agreement below.
        let mut process = ProcessTransport::new().expect("cwc-shard built alongside this test");
        let via_process = run_simulation_sharded_with(
            Arc::clone(&model),
            &base.clone().shards(3),
            &Steering::new(),
            &mut process,
        )
        .unwrap_or_else(|e| panic!("{kind}: process-transport run failed: {e}"));
        assert_rows_identical(&via_process, &single, &format!("{kind}/process"));

        for shards in [1usize, 2, 3] {
            let label = format!("{kind}/tcp/shards={shards}");
            let sharded_cfg = tcp_cfg(&base, shards, &daemons);
            // Same shard count through the in-process transport: the
            // reference for whole-report (summary included) equality.
            let in_process = run_simulation_sharded_with(
                Arc::clone(&model),
                &sharded_cfg,
                &Steering::new(),
                &mut InProcessTransport,
            )
            .unwrap_or_else(|e| panic!("{label}: in-process reference failed: {e}"));

            let (report, transport) = run_tcp(&model, &sharded_cfg);
            assert_rows_identical(&report, &single, &label);
            assert_reports_identical(&report, &in_process, &label);
            if shards == 3 {
                assert_reports_identical(&report, &via_process, &label);
            }
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

    let mut daemons = vec![Workerd::spawn(), Workerd::spawn(), Workerd::spawn()];
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
    assert_rows_identical(&report, &single, "sigkill/tcp");

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
    let mut daemons = vec![Workerd::spawn(), Workerd::spawn()];
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
            assert_rows_identical(&report, &single, "all-killed-but-finished");
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
