//! The sharded farm's core contract: `run_simulation_sharded` with any
//! shard count produces **bit-for-bit** the same `StatRow`s as the
//! single-process `run_simulation` — across models, engine kinds and
//! shard counts — and a failing shard surfaces as a typed error, never a
//! hang.
//!
//! `shards > 1` spawns real `cwc-shard` child processes (cargo builds
//! the binary alongside this test; `distrt` resolves it next to the test
//! executable); `shards = 1` is the degenerate in-process path.

use std::sync::Arc;

use cwc_repro::biomodels;
use cwc_repro::cwc::model::Model;
use cwc_repro::cwcsim::{
    run_simulation, EngineKind, ShardErrorKind, SimConfig, SimError, StatEngineKind,
};
use cwc_repro::distrt::shard::run_simulation_sharded;

fn engine_kinds() -> Vec<EngineKind> {
    vec![
        EngineKind::Ssa,
        EngineKind::AdaptiveTau { epsilon: 0.05 },
        EngineKind::Hybrid {
            epsilon: 0.05,
            threshold: 8.0,
        },
        // The batched kind: shards run farms of 3-instance tasks over
        // their slices (7 instances → uneven tasks inside shards), yet
        // every replica is bit-identical to scalar SSA.
        EngineKind::Batched { width: 3 },
    ]
}

/// Flat models (every engine kind accepts them), scaled small enough to
/// keep the 3 models × 4 kinds × 3 shard counts matrix fast.
fn models() -> Vec<(&'static str, Arc<Model>)> {
    vec![
        ("decay", Arc::new(biomodels::simple::decay(60, 1.0))),
        (
            "dimerisation",
            Arc::new(biomodels::simple::dimerisation(0.01, 0.1, 120)),
        ),
        (
            "schlogl",
            Arc::new(biomodels::schlogl(biomodels::SchloglParams::default())),
        ),
    ]
}

fn cfg() -> SimConfig {
    SimConfig::new(7, 2.0)
        .quantum(0.5)
        .sample_period(0.25)
        .sim_workers(2)
        .stat_workers(2)
        .window(4, 2)
        .seed(101)
}

#[test]
fn sharded_rows_are_bit_for_bit_identical_across_the_matrix() {
    for (name, model) in models() {
        for kind in engine_kinds() {
            let base = cfg().engine(kind);
            let single = run_simulation(Arc::clone(&model), &base)
                .unwrap_or_else(|e| panic!("{name}/{kind}: single-process run failed: {e}"));
            assert!(!single.rows.is_empty(), "{name}/{kind}: empty reference");
            for shards in [1usize, 2, 3] {
                let sharded =
                    run_simulation_sharded(Arc::clone(&model), &base.clone().shards(shards))
                        .unwrap_or_else(|e| panic!("{name}/{kind}/shards={shards}: {e}"));
                assert_eq!(
                    sharded.rows, single.rows,
                    "{name}/{kind}/shards={shards}: rows diverged"
                );
                assert_eq!(
                    sharded.events, single.events,
                    "{name}/{kind}/shards={shards}: event counts diverged"
                );
            }
        }
    }
}

#[test]
fn sharded_summary_merges_the_exact_parts_exactly() {
    let model = Arc::new(biomodels::simple::decay(80, 1.0));
    let base = cfg().engines(vec![
        StatEngineKind::MeanVariance,
        StatEngineKind::Histogram {
            lo: 0.0,
            hi: 100.0,
            bins: 20,
        },
    ]);
    let single = run_simulation(Arc::clone(&model), &base).unwrap();
    let sharded = run_simulation_sharded(model, &base.clone().shards(3)).unwrap();
    let (s, m) = (
        &single.summary.observables()[0],
        &sharded.summary.observables()[0],
    );
    assert_eq!(s.running.count(), m.running.count());
    assert_eq!(s.running.min(), m.running.min());
    assert_eq!(s.running.max(), m.running.max());
    assert!((s.running.mean() - m.running.mean()).abs() < 1e-9);
    let (sh, mh) = (s.histogram.as_ref().unwrap(), m.histogram.as_ref().unwrap());
    for b in 0..sh.bins() {
        assert_eq!(sh.bin_count(b), mh.bin_count(b), "bin {b}");
    }
}

#[test]
fn more_shards_than_instances_still_agrees() {
    let model = Arc::new(biomodels::simple::decay(30, 1.0));
    let mut base = cfg();
    base.instances = 3;
    let single = run_simulation(Arc::clone(&model), &base).unwrap();
    let sharded = run_simulation_sharded(model, &base.clone().shards(8)).unwrap();
    assert_eq!(sharded.rows, single.rows);
}

#[test]
fn crashing_shard_process_is_a_typed_error_not_a_hang() {
    use cwc_repro::cwcsim::{run_simulation_sharded_with, Steering};
    use cwc_repro::distrt::shard::ProcessTransport;

    let model = Arc::new(biomodels::simple::decay(20, 1.0));
    // A "worker" that exits immediately without speaking the protocol.
    let mut transport = ProcessTransport::with_binary("/bin/false");
    let err =
        run_simulation_sharded_with(model, &cfg().shards(2), &Steering::new(), &mut transport)
            .unwrap_err();
    match err {
        SimError::Shard(e) => {
            assert!(
                matches!(
                    e.kind,
                    ShardErrorKind::Crashed(_) | ShardErrorKind::Spawn(_)
                ),
                "unexpected kind: {e}"
            );
        }
        other => panic!("expected SimError::Shard, got: {other}"),
    }
}

#[test]
fn missing_worker_binary_is_a_typed_spawn_error() {
    use cwc_repro::cwcsim::{run_simulation_sharded_with, Steering};
    use cwc_repro::distrt::shard::ProcessTransport;

    let model = Arc::new(biomodels::simple::decay(20, 1.0));
    let mut transport = ProcessTransport::with_binary("/no/such/binary/cwc-shard");
    let err =
        run_simulation_sharded_with(model, &cfg().shards(3), &Steering::new(), &mut transport)
            .unwrap_err();
    assert!(
        matches!(&err, SimError::Shard(e) if matches!(e.kind, ShardErrorKind::Spawn(_))),
        "{err}"
    );
    // The message should point the user at the fix.
    assert!(err.to_string().contains("spawn failed"), "{err}");
}
