//! The sharded farm's core contract: `run_simulation_sharded` with any
//! shard count produces **bit-for-bit** the same `StatRow`s as the
//! single-process `run_simulation`, and the same `RunSummary` as
//! `run_sequential` — across models, engine kinds and shard counts — and
//! a failing shard surfaces as a typed error, never a hang.
//!
//! `shards > 1` spawns real `cwc-shard` child processes (cargo builds
//! the binary alongside this test; `distrt` resolves it next to the test
//! executable); `shards = 1` is the degenerate in-process path.

use std::sync::Arc;

use cwc_repro::biomodels;
use cwc_repro::cwc::model::Model;
use cwc_repro::cwcsim::{
    run_sequential, run_simulation, run_simulation_sharded_in_process, EngineKind, ShardErrorKind,
    SimConfig, SimError, SimReport, StatEngineKind,
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
/// keep the 4 models × 4 kinds × 3 shard counts matrix fast.
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
        // The paper's model: Hill and saturating laws on every kind.
        (
            "neurospora",
            Arc::new(biomodels::neurospora_flat(
                biomodels::NeurosporaParams::default(),
            )),
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
            let seq = run_sequential(Arc::clone(&model), &base).unwrap();
            assert_eq!(single.summary, seq.summary, "{name}/{kind}: farm summary");
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
                assert_eq!(
                    sharded.summary, seq.summary,
                    "{name}/{kind}/shards={shards}: summaries diverged"
                );
            }
        }
    }
}

/// A flat source → six-species chain → sink network observing all six
/// species: more observables than a sample row holds inline, so every
/// sample, cut and cut frame of its runs takes the spilled-row path.
fn six_observable_chain() -> Arc<Model> {
    let mut m = Model::new("six-observable-chain");
    let names = ["A", "B", "C", "D", "E", "F"];
    for name in names {
        let s = m.species(name);
        m.initial.add_atoms(s, 10);
        m.observe(name, s);
    }
    m.rule("source")
        .produces("A", 1)
        .rate(20.0)
        .build()
        .unwrap();
    for pair in names.windows(2) {
        m.rule(&format!("{}->{}", pair[0], pair[1]))
            .consumes(pair[0], 1)
            .produces(pair[1], 1)
            .rate(1.0)
            .build()
            .unwrap();
    }
    m.rule("sink").consumes("F", 1).rate(0.5).build().unwrap();
    Arc::new(m)
}

/// Rows, events and the whole-run `RunSummary` of two reports.
fn assert_reports_identical(a: &SimReport, b: &SimReport, label: &str) {
    assert_eq!(a.rows, b.rows, "{label}: rows diverged");
    assert_eq!(a.events, b.events, "{label}: event counts diverged");
    assert_eq!(a.summary, b.summary, "{label}: summaries diverged");
}

#[test]
fn spilled_rows_agree_bit_for_bit_on_every_runner() {
    let model = six_observable_chain();
    for kind in engine_kinds() {
        let base = cfg().engine(kind).engines(vec![
            StatEngineKind::MeanVariance,
            StatEngineKind::KMeans { k: 2 },
            StatEngineKind::Quantile { p: 0.5 },
            StatEngineKind::Histogram {
                lo: 0.0,
                hi: 60.0,
                bins: 12,
            },
        ]);
        let farm = run_simulation(Arc::clone(&model), &base).unwrap();
        assert_eq!(farm.summary.observables().len(), 6, "{kind}");
        assert!(farm.events > 0, "{kind}: nothing fired");
        let seq = run_sequential(Arc::clone(&model), &base).unwrap();
        assert_reports_identical(&farm, &seq, &format!("{kind}: farm vs sequential"));

        for shards in [1usize, 2, 3] {
            let sharded = base.clone().shards(shards);
            let in_process =
                run_simulation_sharded_in_process(Arc::clone(&model), &sharded).unwrap();
            let processes = run_simulation_sharded(Arc::clone(&model), &sharded).unwrap();
            for (report, runner) in [(in_process, "in-process"), (processes, "process")] {
                let label = format!("{kind}: {shards} {runner} shards vs sequential");
                assert_reports_identical(&report, &seq, &label);
            }
        }
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

/// A name the model text format cannot write fails validation with a
/// typed error naming it, before any engine or shard starts: on an
/// in-process run (an observable with `=`) and on a sharded run, whose
/// jobs would carry the model as text (a species starting with a digit).
#[test]
fn a_name_the_model_text_cannot_write_is_a_typed_model_error() {
    use cwc_repro::cwc::ModelError;

    let mut bad_observable = biomodels::simple::decay(20, 1.0);
    bad_observable.observables[0].name = "A=1".into();
    let err = run_simulation(Arc::new(bad_observable), &cfg()).unwrap_err();
    assert!(
        matches!(&err, SimError::Model(ModelError::BadName { kind: "observable", name }) if name == "A=1"),
        "{err}"
    );

    let mut bad_species = biomodels::simple::decay(20, 1.0);
    bad_species.species("2A");
    let err = run_simulation_sharded(Arc::new(bad_species), &cfg().shards(2)).unwrap_err();
    assert!(
        matches!(&err, SimError::Model(ModelError::BadName { kind: "species", name }) if name == "2A"),
        "{err}"
    );
}
