//! Integration: statistical validation of the stochastic engine against
//! closed-form results, through the *full* pipeline (not just the engine).

use std::sync::Arc;

use cwc_repro::biomodels;
use cwc_repro::cwcsim::{run_simulation, EngineKind, SimConfig, StatEngineKind};

#[test]
fn decay_ensemble_mean_follows_exponential() {
    // E[A(t)] = n0 e^{-kt}; with 64 trajectories of 200 molecules the
    // standard error of the ensemble mean is ≈ sqrt(n0 p (1-p) / 64) < 2.
    let n0 = 200u64;
    let k = 1.0;
    let model = Arc::new(biomodels::simple::decay(n0, k));
    let cfg = SimConfig::new(64, 2.0)
        .quantum(0.5)
        .sample_period(0.5)
        .sim_workers(4)
        .seed(31);
    let report = run_simulation(model, &cfg).unwrap();
    for row in &report.rows {
        let expected = n0 as f64 * (-k * row.time).exp();
        let p = (-k * row.time).exp();
        let se = (n0 as f64 * p * (1.0 - p) / 64.0).sqrt().max(0.5);
        assert!(
            (row.observables[0].mean - expected).abs() < 6.0 * se,
            "t = {}: mean {} vs expected {expected} (se {se})",
            row.time,
            row.observables[0].mean
        );
    }
}

#[test]
fn birth_death_stationary_mean_and_variance_are_poisson() {
    // Stationary law is Poisson(birth/death): mean = variance = 40.
    let model = Arc::new(biomodels::simple::birth_death(40.0, 1.0, 40));
    let cfg = SimConfig::new(96, 12.0)
        .quantum(1.0)
        .sample_period(1.0)
        .sim_workers(4)
        .stat_workers(2)
        .seed(8);
    let report = run_simulation(model, &cfg).unwrap();
    // Average the post-burn-in rows.
    let late: Vec<_> = report.rows.iter().filter(|r| r.time >= 6.0).collect();
    let mean: f64 = late.iter().map(|r| r.observables[0].mean).sum::<f64>() / late.len() as f64;
    let var: f64 = late.iter().map(|r| r.observables[0].variance).sum::<f64>() / late.len() as f64;
    assert!((mean - 40.0).abs() < 3.0, "stationary mean {mean}");
    assert!((var - 40.0).abs() < 15.0, "stationary variance {var}");
}

#[test]
fn schlogl_bimodality_is_visible_to_kmeans_engine() {
    let model = Arc::new(biomodels::schlogl(biomodels::SchloglParams::default()));
    let cfg = SimConfig::new(48, 8.0)
        .quantum(1.0)
        .sample_period(2.0)
        .sim_workers(4)
        .stat_workers(2)
        .engines(vec![
            StatEngineKind::MeanVariance,
            StatEngineKind::KMeans { k: 2 },
        ])
        .seed(55);
    let report = run_simulation(model, &cfg).unwrap();
    let last = report.rows.last().unwrap();
    let centroids = &last.observables[0].centroids;
    assert_eq!(centroids.len(), 2);
    assert!(
        centroids[1] - centroids[0] > 150.0,
        "k-means should separate the Schlögl basins: {centroids:?}"
    );
}

#[test]
fn tau_leap_means_track_exact_ssa_on_schlogl() {
    // The approximate integrator must track the exact one's ensemble mean
    // on the bistable Schlögl system: same per-row comparison through the
    // full pipeline, tolerance set by the ensemble spread (the two basins
    // make the per-row sd large, so the bound is on the standard error of
    // the difference of two 48-trajectory ensemble means).
    let model = Arc::new(biomodels::schlogl(biomodels::SchloglParams::default()));
    let cfg = SimConfig::new(48, 6.0)
        .quantum(0.5)
        .sample_period(0.5)
        .sim_workers(4)
        .stat_workers(2)
        .seed(7);
    let exact = run_simulation(Arc::clone(&model), &cfg).unwrap();
    let leap = run_simulation(
        Arc::clone(&model),
        &cfg.clone().engine(EngineKind::TauLeap { tau: 0.01 }),
    )
    .unwrap();
    assert_eq!(exact.rows.len(), leap.rows.len());
    for (e, l) in exact.rows.iter().zip(&leap.rows) {
        assert_eq!(e.time, l.time);
        let se = ((e.observables[0].variance + l.observables[0].variance) / 48.0)
            .sqrt()
            .max(1.0);
        let diff = (e.observables[0].mean - l.observables[0].mean).abs();
        assert!(
            diff < 6.0 * se,
            "t = {}: tau-leap mean {} vs exact {} (se {se})",
            e.time,
            l.observables[0].mean,
            e.observables[0].mean
        );
    }
}

#[test]
fn adaptive_tau_and_hybrid_means_track_exact_ssa_on_schlogl() {
    // The adaptive and hybrid integrators must track the exact ensemble
    // mean on the bistable Schlögl system — the hard case, where a leap
    // that disturbs the basin balance shows up immediately as mean drift.
    // Same per-row comparison as the fixed-tau test, with the bound on the
    // standard error of the difference of the two 48-trajectory ensemble
    // means.
    let model = Arc::new(biomodels::schlogl(biomodels::SchloglParams::default()));
    let cfg = SimConfig::new(48, 6.0)
        .quantum(0.5)
        .sample_period(0.5)
        .sim_workers(4)
        .stat_workers(2)
        .seed(7);
    let exact = run_simulation(Arc::clone(&model), &cfg).unwrap();
    for kind in [
        EngineKind::AdaptiveTau { epsilon: 0.03 },
        EngineKind::Hybrid {
            epsilon: 0.03,
            threshold: 8.0,
        },
    ] {
        let approx = run_simulation(Arc::clone(&model), &cfg.clone().engine(kind)).unwrap();
        assert_eq!(exact.rows.len(), approx.rows.len(), "{kind}");
        for (e, a) in exact.rows.iter().zip(&approx.rows) {
            assert_eq!(e.time, a.time, "{kind}");
            let se = ((e.observables[0].variance + a.observables[0].variance) / 48.0)
                .sqrt()
                .max(1.0);
            let diff = (e.observables[0].mean - a.observables[0].mean).abs();
            assert!(
                diff < 6.0 * se,
                "{kind} t = {}: mean {} vs exact {} (se {se})",
                e.time,
                a.observables[0].mean,
                e.observables[0].mean
            );
        }
    }
}

#[test]
fn michaelis_menten_mass_balance_holds_in_every_row() {
    let p = biomodels::MichaelisMentenParams::default();
    let model = Arc::new(biomodels::michaelis_menten(p));
    let cfg = SimConfig::new(16, 5.0)
        .quantum(1.0)
        .sample_period(0.5)
        .sim_workers(3)
        .seed(12);
    let report = run_simulation(model, &cfg).unwrap();
    for row in &report.rows {
        // Means of S + ES + P and E + ES are conserved exactly (the
        // conservation holds per trajectory, hence for the mean).
        let s = row.observables[0].mean;
        let e = row.observables[1].mean;
        let es = row.observables[2].mean;
        let prod = row.observables[3].mean;
        assert!((s + es + prod - p.substrate0 as f64).abs() < 1e-9);
        assert!((e + es - p.enzyme0 as f64).abs() < 1e-9);
    }
}

#[test]
fn neurospora_short_run_is_alive_and_bounded() {
    // Smoke-level dynamics check (the full period analysis lives in the
    // biomodels unit tests and the neurospora example).
    let model = Arc::new(biomodels::neurospora_flat(
        biomodels::NeurosporaParams::default(),
    ));
    let cfg = SimConfig::new(4, 30.0)
        .quantum(2.0)
        .sample_period(1.0)
        .sim_workers(2)
        .seed(3);
    let report = run_simulation(model, &cfg).unwrap();
    assert!(
        report.events > 1000,
        "the clock should tick: {}",
        report.events
    );
    for row in &report.rows {
        assert!(row.observables[0].max < 10_000.0, "mRNA bounded");
    }
}
