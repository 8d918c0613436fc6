//! Ablation (beyond the paper): sweep the stochastic integrator under the
//! unchanged parallel harness — the exact direct method, adaptive (CGP)
//! tau-leaping and the hybrid SSA/tau engine.
//! StochKit-FF ships tau-leaping as a first-class alternative to the exact
//! SSA; the multicore-aware-simulators report argues the simulation kernel
//! must be swappable under the same farm. This harness runs the *same*
//! pipeline (farm → alignment → windows → statistics) with each
//! `EngineKind` on the Schlögl and Lotka–Volterra models and reports wall
//! time, event counts and the accuracy of the approximate integrators
//! against the exact one.
//!
//! Run: `cargo run -p bench --release --bin ablation_engine_sweep`
//! (`--quick` shrinks the ensembles, `--csv` emits the CI baseline format)

use std::sync::Arc;

use bench::{print_table, quick_mode, secs};
use biomodels::{lotka_volterra, schlogl, LotkaVolterraParams, SchloglParams};
use cwc::model::Model;
use cwcsim::{run_simulation, EngineKind, SimConfig};

fn sweep(name: &str, model: Arc<Model>, cfg: &SimConfig) {
    let kinds = [
        EngineKind::Ssa,
        EngineKind::AdaptiveTau { epsilon: 0.03 },
        EngineKind::Hybrid {
            epsilon: 0.03,
            threshold: 8.0,
        },
    ];
    let mut rows = Vec::new();
    let mut ssa_mean = None;
    for kind in kinds {
        let cfg = cfg.clone().engine(kind);
        let report = match run_simulation(Arc::clone(&model), &cfg) {
            Ok(r) => r,
            Err(e) => {
                // Pad to the header width and strip commas from the error
                // text so --csv rows stay column-aligned.
                let reason = format!("unsupported: {e}").replace(',', ";");
                let mut row = vec![kind.name().into(), reason];
                row.resize(6, "-".into());
                rows.push(row);
                continue;
            }
        };
        let mean = report.grand_mean(0);
        let ssa = *ssa_mean.get_or_insert(mean);
        let drift = if ssa.abs() > f64::EPSILON {
            100.0 * (mean - ssa) / ssa
        } else {
            0.0
        };
        rows.push(vec![
            kind.name().into(),
            secs(report.wall.as_secs_f64()),
            format!("{}", report.events),
            format!("{:.2}", mean),
            format!("{drift:+.2}%"),
            format!("{}", report.rows.len()),
        ]);
    }
    print_table(
        &format!("engine sweep, {name}"),
        &[
            "engine",
            "wall (s)",
            "events",
            "grand mean",
            "Δ vs ssa",
            "rows",
        ],
        &rows,
    );
}

fn main() {
    let quick = quick_mode();
    let instances = if quick { 8 } else { 48 };
    let t_end = if quick { 2.0 } else { 6.0 };

    let cfg = SimConfig::new(instances, t_end)
        .quantum(t_end / 12.0)
        .sample_period(t_end / 24.0)
        .sim_workers(4)
        .stat_workers(2)
        .seed(2014);

    sweep(
        "schlogl (bistable)",
        Arc::new(schlogl(SchloglParams::default())),
        &cfg,
    );
    sweep(
        "lotka-volterra (oscillatory)",
        Arc::new(lotka_volterra(LotkaVolterraParams::default())),
        &cfg,
    );

    bench::note(
        "\nreading: the leaping engines trade a bounded mean drift\n\
         for firing many reactions per Poisson draw; adaptive-tau sizes its\n\
         leaps from the state (epsilon), the hybrid falls back to the exact\n\
         table whenever leaps stop paying. BENCH_adaptive_tau.json records\n\
         the dedicated speed/accuracy sweep (bin adaptive_tau).",
    );
}
