//! The fault-tolerant shard farm's contract, end-to-end with real
//! `cwc-shard` child processes and the env-driven fault-injection
//! harness (`distrt::fault`):
//!
//! - a worker that crashes, stalls or corrupts its stream mid-run is
//!   detected, its slice is requeued, and the merged report — rows,
//!   events and run summary — is **bit-for-bit** identical to a
//!   fault-free single-process run, for every engine kind, including the
//!   batched kind;
//! - with a zero retry budget the same faults surface as *typed* errors
//!   (`Crashed`, `Frame { offset, .. }`, `Timeout { silent_for }`),
//!   never as a hang;
//! - budget exhaustion carries the full per-attempt history and the
//!   summary of the cuts merged before it.
//!
//! Each test arms its own transport via `ProcessTransport::env`, so the
//! fault plan rides the child's environment and tests stay parallel-safe.
//!
//! The same contract is then re-proven over the network: the TCP matrix
//! at the bottom arms `cwc-workerd` daemons with the identical fault
//! plans and demands recovery land on a *surviving* worker.

use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cwc_repro::biomodels;
use cwc_repro::cwcsim::{
    run_simulation, run_simulation_sharded_with, ShardErrorKind, SimConfig, SimError, SimReport,
    Steering,
};
use cwc_repro::distrt::fault::FAULT_ENV;
use cwc_repro::distrt::net::TcpShardTransport;
use cwc_repro::distrt::shard::ProcessTransport;

mod common;
use common::{assert_reports_identical, cfg, engine_kinds, Workerd};

fn transport(plan: &str) -> ProcessTransport {
    ProcessTransport::new()
        .expect("cwc-shard binary built alongside this test")
        .env(FAULT_ENV, plan)
}

fn run_faulted(cfg: &SimConfig, plan: &str) -> Result<SimReport, SimError> {
    let model = Arc::new(biomodels::simple::decay(40, 1.0));
    run_simulation_sharded_with(model, cfg, &Steering::new(), &mut transport(plan))
}

/// The full matrix: {crash, stall, corrupt-frame, garbage} × retry
/// budget {0, 1, 2} × shards {1, 2, 3}. A budget ≥ 1 must recover
/// bit-for-bit (the plans fault only the first attempt); a budget of 0
/// must surface the fault's typed kind. Either way the run terminates.
#[test]
fn fault_matrix_recovers_bit_for_bit_or_fails_typed() {
    let model = Arc::new(biomodels::simple::decay(40, 1.0));
    let reference = run_simulation(Arc::clone(&model), &cfg()).expect("fault-free reference");

    // (plan prefix, needs watchdog, matcher for the budget-0 kind)
    type KindCheck = fn(&ShardErrorKind) -> bool;
    let faults: [(&str, bool, KindCheck); 4] = [
        ("crash", false, |k| matches!(k, ShardErrorKind::Crashed(_))),
        ("stall", true, |k| {
            matches!(k, ShardErrorKind::Timeout { .. })
        }),
        ("corrupt-frame", false, |k| {
            matches!(k, ShardErrorKind::Frame { .. })
        }),
        ("garbage", false, |k| {
            matches!(k, ShardErrorKind::Frame { .. })
        }),
    ];
    for (fault, needs_watchdog, kind_matches) in faults {
        for shards in [1usize, 2, 3] {
            // Fault the last shard after it has streamed 3 cuts, so
            // recovery has delivered work to skip on replay.
            let plan = format!("{fault}:shard={},cuts=3", shards - 1);
            for retries in [0usize, 1, 2] {
                let mut run_cfg = cfg().shards(shards).retries(retries);
                if needs_watchdog {
                    run_cfg = run_cfg.shard_timeout(0.75);
                }
                let label = format!("{fault}/shards={shards}/retries={retries}");
                match run_faulted(&run_cfg, &plan) {
                    Ok(report) if retries >= 1 => {
                        assert_reports_identical(&report, &reference, &label);
                    }
                    Ok(_) => panic!("{label}: succeeded with no retry budget"),
                    Err(SimError::Shard(e)) if retries == 0 => {
                        assert_eq!(e.shard, shards - 1, "{label}: wrong shard blamed: {e}");
                        assert!(kind_matches(&e.kind), "{label}: unexpected kind: {e}");
                    }
                    Err(e) => panic!("{label}: failed despite retry budget: {e}"),
                }
            }
        }
    }
}

/// Recovery determinism across every engine kind, the batched kind
/// included: crash one of three shards mid-stream, retry once, and the
/// merged rows must equal the fault-free single-process run exactly.
#[test]
fn recovery_is_bit_for_bit_for_every_engine_kind() {
    let model = Arc::new(biomodels::simple::decay(60, 1.0));
    for kind in engine_kinds() {
        let base = cfg().engine(kind);
        let reference =
            run_simulation(Arc::clone(&model), &base).unwrap_or_else(|e| panic!("{kind}: {e}"));
        let recovered = run_simulation_sharded_with(
            Arc::clone(&model),
            &base.clone().shards(3).retries(1),
            &Steering::new(),
            &mut transport("crash:shard=1,cuts=2"),
        )
        .unwrap_or_else(|e| panic!("{kind}: recovery failed: {e}"));
        assert_reports_identical(&recovered, &reference, &kind.to_string());
    }
}

/// The watchdog contract: a stalled worker (frames *and* heartbeats
/// stop, process stays alive) becomes a typed `Timeout` — within the
/// deadline's order of magnitude, never a hang.
#[test]
fn stalled_shard_times_out_typed_never_hangs() {
    let start = Instant::now();
    let err = run_faulted(&cfg().shards(2).shard_timeout(0.75), "stall:shard=1,cuts=1")
        .expect_err("no retry budget: the stall must surface");
    let elapsed = start.elapsed();
    match err {
        SimError::Shard(e) => {
            assert_eq!(e.shard, 1, "{e}");
            match &e.kind {
                ShardErrorKind::Timeout { silent_for } => {
                    assert!(
                        *silent_for >= Duration::from_millis(750),
                        "fired early: {silent_for:?}"
                    );
                }
                other => panic!("expected Timeout, got {other}: {e}"),
            }
        }
        other => panic!("expected SimError::Shard, got {other}"),
    }
    assert!(
        elapsed < Duration::from_secs(30),
        "typed timeout took {elapsed:?} — watchdog is not bounding the wait"
    );
}

/// A late-starting worker (fully silent before its first heartbeat) is
/// ridden out as long as the delay stays under the watchdog deadline —
/// slow is not dead.
#[test]
fn delayed_start_within_the_deadline_still_completes() {
    let reference = run_simulation(Arc::new(biomodels::simple::decay(40, 1.0)), &cfg()).unwrap();
    let report = run_faulted(
        &cfg().shards(2).shard_timeout(3.0),
        "delay-start:shard=0,ms=300",
    )
    .expect("a 0.3s delay under a 3s deadline must not be fatal");
    assert_eq!(report.rows, reference.rows);
    assert_eq!(report.summary, reference.summary);
}

/// Budget exhaustion: a shard that faults on every attempt burns the
/// whole budget, and the error carries one history entry per failed
/// attempt, the blamed shard, and the summary of the one full cut that
/// was merged (every attempt writes one cut, so replays add nothing).
#[test]
fn exhausted_budget_reports_the_full_attempt_history() {
    let err = run_faulted(
        &cfg().shards(2).retries(2),
        "crash:shard=1,cuts=1,attempt=any",
    )
    .expect_err("faulting every attempt must exhaust the budget");
    match err {
        SimError::Shard(e) => {
            assert_eq!(e.shard, 1, "{e}");
            assert!(matches!(e.kind, ShardErrorKind::Crashed(_)), "{e}");
            assert_eq!(
                e.attempts.len(),
                2,
                "one history entry per burned retry: {e}"
            );
            for (i, a) in e.attempts.iter().enumerate() {
                assert_eq!(a.attempt, i);
                assert!(!a.error.is_empty());
            }
            let rendered = e.to_string();
            assert!(rendered.contains("after 2 failed attempts"), "{rendered}");
            assert_eq!(e.merged_cuts, 1);
        }
        other => panic!("expected SimError::Shard, got {other}"),
    }
}

/// A crash report names the child's exit status (the harness's distinct
/// fault exit, 3) and the tail of what it wrote to stderr.
#[test]
fn crash_reports_carry_the_childs_exit_status_and_stderr_tail() {
    let err = run_faulted(&cfg().shards(2), "crash:shard=1,cuts=1")
        .expect_err("no retry budget: the crash must surface");
    match err {
        SimError::Shard(e) => match &e.kind {
            ShardErrorKind::Crashed(detail) => {
                assert!(detail.contains("exit status: 3"), "{detail}");
                assert!(detail.contains("injected fault: crash"), "{detail}");
            }
            other => panic!("expected Crashed, got {other}: {e}"),
        },
        other => panic!("expected SimError::Shard, got {other}"),
    }
}

/// How long an orphaned `cwc-shard` may outlive its coordinator: its
/// stdin lifeline ends it within one read, so this only absorbs
/// scheduling noise.
const ORPHAN_EXIT_BOUND: Duration = Duration::from_secs(5);

/// Spawns a `cwc-shard` the way the process transport does (stdin held
/// as the lifeline) and returns it with the address it announced.
fn spawn_shard_child(plan: &str) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cwc-shard"))
        .env(FAULT_ENV, plan)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn cwc-shard");
    let mut line = String::new();
    std::io::BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("cwc-shard announces its address");
    let addr = line
        .trim()
        .strip_prefix("cwc-shard listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
        .to_string();
    (child, addr)
}

/// Drops the child's lifeline — what the coordinator dying looks like
/// from the child — and waits up to [`ORPHAN_EXIT_BOUND`] for it to exit.
fn orphan_and_wait(mut child: Child, what: &str) {
    drop(child.stdin.take());
    let start = Instant::now();
    while start.elapsed() < ORPHAN_EXIT_BOUND {
        if let Some(status) = child.try_wait().expect("try_wait") {
            assert_eq!(status.code(), Some(2), "{what}: {status}");
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = child.kill();
    let _ = child.wait();
    panic!("{what}: cwc-shard outlived its coordinator by {ORPHAN_EXIT_BOUND:?}");
}

/// No leaked child: a `cwc-shard` whose coordinator never connects, or
/// connects and goes away — even while the shard is stalled by an
/// injected fault and would otherwise never return — exits on its own
/// within [`ORPHAN_EXIT_BOUND`].
#[test]
fn orphaned_cwc_shard_exits_on_its_own() {
    use cwc_repro::cwcsim::coordinator::ShardSpec;
    use cwc_repro::cwcsim::plan::ShardRange;
    use cwc_repro::distrt::net::connect_worker;
    use cwc_repro::distrt::shard::{read_frame, write_frame, ShardJob, ToCoordinator, ToShard};

    let (child, _) = spawn_shard_child("");
    orphan_and_wait(child, "never connected");

    let (child, addr) = spawn_shard_child("stall:cuts=1");
    let (mut stream, _) = connect_worker(&addr, Duration::from_secs(10)).expect("hello");
    let run_cfg = SimConfig::new(2, 1.0e6)
        .quantum(0.5)
        .sample_period(0.5)
        .heartbeat_period(0.05);
    let job = ShardJob {
        model: biomodels::simple::decay(40, 1.0),
        spec: ShardSpec::from_config(
            &run_cfg,
            ShardRange {
                shard: 0,
                first_instance: 0,
                count: 2,
            },
        ),
        deps: None,
    };
    write_frame(&mut stream, &ToShard::Job(Box::new(job))).expect("job frame");
    // The stall has fired once the child, after its first cut, goes
    // silent for ten heartbeat periods while its socket stays open.
    stream
        .set_read_timeout(Some(Duration::from_millis(500)))
        .expect("read timeout");
    let mut cuts = 0;
    loop {
        match read_frame::<ToCoordinator>(&mut stream) {
            Ok(Some(ToCoordinator::Cut(_))) => cuts += 1,
            Ok(Some(_)) => {}
            Ok(None) => panic!("the stalled child closed its socket"),
            Err(_) if cuts > 0 => break,
            Err(e) => panic!("no frame before the stall: {e}"),
        }
    }
    drop(stream);
    orphan_and_wait(child, "stalled, then abandoned");
}

/// The fault matrix again, but over the network: {crash, stall,
/// corrupt-frame} × retry budget {0, 1, 2} × shards {1, 2, 3}, served
/// by two fault-armed `cwc-workerd` daemons. A budget ≥ 1 must recover
/// bit-for-bit with every retry placed on a *different* worker than the
/// failed attempt (a faulting daemon takes its whole process down, so
/// retrying in place could never succeed). A budget of 0 must surface a
/// typed error — though not necessarily blamed on the faulted shard:
/// one daemon serves several shards, so its death also fails co-hosted
/// shards first (collateral `Crashed`/`Frame`), and whichever failure
/// exhausts its budget first wins the race.
#[test]
fn tcp_fault_matrix_recovers_on_a_survivor_or_fails_typed() {
    let model = Arc::new(biomodels::simple::decay(40, 1.0));
    let reference = run_simulation(Arc::clone(&model), &cfg()).expect("fault-free reference");

    type KindCheck = fn(&ShardErrorKind) -> bool;
    let faults: [(&str, bool, KindCheck); 3] = [
        // A crashing daemon can lose the race to a half-written frame,
        // so `Frame` is as legitimate as `Crashed` — and vice versa for
        // a corrupted stream whose collateral shards see a bare EOF.
        ("crash", false, |k| {
            matches!(k, ShardErrorKind::Crashed(_) | ShardErrorKind::Frame { .. })
        }),
        ("stall", true, |k| {
            matches!(k, ShardErrorKind::Timeout { .. })
        }),
        ("corrupt-frame", false, |k| {
            matches!(k, ShardErrorKind::Frame { .. } | ShardErrorKind::Crashed(_))
        }),
    ];
    for (fault, needs_watchdog, kind_matches) in faults {
        for shards in [1usize, 2, 3] {
            let plan = format!("{fault}:shard={},cuts=3", shards - 1);
            for retries in [0usize, 1, 2] {
                let label = format!("tcp/{fault}/shards={shards}/retries={retries}");
                // Fresh daemons per run: a faulted daemon is dead.
                let daemons = [
                    Workerd::spawn(&[(FAULT_ENV, &plan)]),
                    Workerd::spawn(&[(FAULT_ENV, &plan)]),
                ];
                let mut run_cfg = cfg().shards(shards).retries(retries);
                if needs_watchdog {
                    run_cfg = run_cfg.shard_timeout(0.75);
                }
                let mut transport = TcpShardTransport::new(
                    daemons.iter().map(|d| d.addr.clone()).collect(),
                    Duration::from_secs(10),
                );
                let result = run_simulation_sharded_with(
                    Arc::clone(&model),
                    &run_cfg,
                    &Steering::new(),
                    &mut transport,
                );
                match result {
                    Ok(report) if retries >= 1 => {
                        assert_eq!(report.rows, reference.rows, "{label}: rows diverged");
                        assert_eq!(report.events, reference.events, "{label}: events diverged");
                        assert_eq!(report.summary, reference.summary, "{label}: summary");
                        // Requeue-on-survivor: every retry attempt sits
                        // on a different worker than the one that just
                        // failed the same shard.
                        let placements = transport.placements();
                        assert!(
                            placements.iter().any(|p| p.attempt > 0),
                            "{label}: fault fired but nothing was requeued: {placements:?}"
                        );
                        for p in placements.iter().filter(|p| p.attempt > 0) {
                            let prev = placements
                                .iter()
                                .find(|q| q.shard == p.shard && q.attempt == p.attempt - 1)
                                .unwrap_or_else(|| {
                                    panic!("{label}: missing prior attempt for {p:?}")
                                });
                            assert_ne!(
                                p.worker, prev.worker,
                                "{label}: retry stayed on the failed worker: {placements:?}"
                            );
                        }
                    }
                    Ok(_) => panic!("{label}: succeeded with no retry budget"),
                    Err(SimError::Shard(e)) if retries == 0 => {
                        assert!(kind_matches(&e.kind), "{label}: unexpected kind: {e}");
                    }
                    Err(e) => panic!("{label}: failed despite retry budget: {e}"),
                }
            }
        }
    }
}
