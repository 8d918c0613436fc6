//! The sharded farm's core contract: any shard count reproduces the
//! sequential reference bit for bit (rows, events, observable names,
//! `RunSummary`) across models, engine kinds and shard counts, and a
//! sharded run that cannot start or whose worker dies surfaces as a typed
//! error, never a hang.
//!
//! `shards > 1` spawns real `cwc-shard` child processes (cargo builds
//! the binary alongside this test; `distrt` resolves it next to the test
//! executable).

use std::sync::Arc;

use cwc_repro::biomodels;
use cwc_repro::cwc::ModelError;
use cwc_repro::cwcsim::{
    run_simulation, run_simulation_sharded_with, ShardErrorKind, SimError, Steering,
};
use cwc_repro::distrt::shard::{run_simulation_sharded, ProcessTransport};

mod common;
use common::cfg;
use common::matrix::{check_all, more_shards_than_instances, sharded_models, spilled_chain};

#[test]
fn sharded_rows_are_bit_for_bit_identical_across_the_matrix() {
    check_all(&sharded_models());
}

#[test]
fn spilled_rows_agree_bit_for_bit_on_every_runner() {
    for oracle in check_all(&spilled_chain()) {
        assert_eq!(oracle.summary.observables().len(), 6);
        assert!(oracle.events > 0, "nothing fired");
    }
}

#[test]
fn more_shards_than_instances_still_agrees() {
    // Empty shards own no instances and contribute nothing to any cut.
    check_all(&more_shards_than_instances());
}

#[test]
fn crashing_shard_process_is_a_typed_error_not_a_hang() {
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
