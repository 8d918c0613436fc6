//! Integration: statistical validation of the stochastic engine against
//! closed-form results, through the *full* pipeline (not just the engine).

use std::sync::Arc;

use cwc_repro::biomodels;
use cwc_repro::cwc::model::Model;
use cwc_repro::cwcsim::{run_simulation, EngineKind, SimConfig, StatEngineKind};
use cwc_repro::gillespie::{ModelDeps, SampleClock};
use cwc_repro::streamstat::period::analyse_period;

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
fn adaptive_tau_and_hybrid_means_track_exact_ssa_on_schlogl() {
    // The adaptive and hybrid integrators must track the exact ensemble
    // mean on the bistable Schlögl system — the hard case, where a leap
    // that disturbs the basin balance shows up immediately as mean drift.
    // Same per-row comparison through the full pipeline, tolerance set by
    // the ensemble spread (the two basins make the per-row sd large, so
    // the bound is on the standard error of the difference of the two
    // 48-trajectory ensemble means).
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

/// Two-sample Kolmogorov–Smirnov test: the statistic `D` (the largest gap
/// between the two empirical CDFs, ties stepped together) and its
/// asymptotic p-value — the smallest α at which the test rejects
/// (Stephens' small-sample correction, as in Numerical Recipes' `kstwo`).
fn ks_two_sample(a: &[f64], b: &[f64]) -> (f64, f64) {
    let sorted = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        v
    };
    let (a, b) = (sorted(a), sorted(b));
    let (n, m) = (a.len() as f64, b.len() as f64);
    let (mut i, mut j, mut d) = (0, 0, 0.0f64);
    while i < a.len() && j < b.len() {
        let x = a[i].min(b[j]);
        while i < a.len() && a[i] <= x {
            i += 1;
        }
        while j < b.len() && b[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / n - j as f64 / m).abs());
    }
    let ne = (n * m / (n + m)).sqrt();
    let lambda = (ne + 0.12 + 0.11 / ne) * d;
    // Q_KS(λ) = 2 Σ_{k≥1} (-1)^{k-1} e^{-2k²λ²}; 1 when it does not settle
    // (λ near zero: no evidence against equality).
    let mut p = 0.0;
    for k in 1..=100 {
        let term = 2.0 * (-2.0 * (k * k) as f64 * lambda * lambda).exp();
        p += if k % 2 == 1 { term } else { -term };
        if term < 1e-12 {
            return (d, p.clamp(0.0, 1.0));
        }
    }
    (d, 1.0)
}

/// The two distributions the leaping tier must reproduce on the paper's
/// model, one entry per trajectory: the mean oscillation period of the
/// frq mRNA after the 48 h transient, and the FRQ_n count at 72 h.
fn neurospora_ensemble(kind: EngineKind, base_seed: u64, instances: u64) -> (Vec<f64>, Vec<f64>) {
    const T_END: f64 = 120.0;
    const TRANSIENT: f64 = 48.0;
    const FRQ_N_AT: f64 = 72.0;
    let model = Arc::new(biomodels::neurospora_flat(
        biomodels::NeurosporaParams::default(),
    ));
    let deps = Arc::new(ModelDeps::compile(&model));
    let (mut periods, mut frq_n) = (Vec::new(), Vec::new());
    for instance in 0..instances {
        let mut engine = kind
            .build_with_deps(Arc::clone(&model), Arc::clone(&deps), base_seed, instance)
            .unwrap();
        let mut clock = SampleClock::new(0.0, 0.5);
        let (mut times, mut mrna) = (Vec::new(), Vec::new());
        engine.run_sampled(T_END, &mut clock, |t, v| {
            if t >= TRANSIENT {
                times.push(t);
                mrna.push(v[0] as f64);
            }
            if t == FRQ_N_AT {
                frq_n.push(v[2] as f64);
            }
        });
        // A trajectory with fewer than two peaks has no period: it ranks
        // above every measured one.
        let analysis = analyse_period(&times, &mrna, 8, 0.3, 20);
        periods.push(analysis.mean_period().unwrap_or(f64::INFINITY));
    }
    (periods, frq_n)
}

#[test]
fn leaping_kinds_match_ssa_in_distribution_on_neurospora() {
    // The CGP bound's law terms (Hill repression of transcription, the
    // saturating degradations) must keep the leaping tier's oscillator
    // the exact one in distribution, not only in mean. Each engine runs
    // its own base seed: before its first switch the hybrid is SSA on the
    // same seeds, which would make the two samples dependent.
    const INSTANCES: u64 = 200;
    const ALPHA: f64 = 0.001;
    let kinds = [
        (EngineKind::Ssa, 1_001),
        (EngineKind::AdaptiveTau { epsilon: 0.03 }, 2_002),
        (
            EngineKind::Hybrid {
                epsilon: 0.03,
                threshold: 8.0,
            },
            3_003,
        ),
        (
            EngineKind::Hybrid {
                epsilon: 0.05,
                threshold: 8.0,
            },
            4_004,
        ),
    ];
    // One thread per engine: the four ensembles are independent.
    let ensembles: Vec<_> = std::thread::scope(|scope| {
        let runs: Vec<_> = (kinds.iter())
            .map(|&(kind, seed)| scope.spawn(move || neurospora_ensemble(kind, seed, INSTANCES)))
            .collect();
        runs.into_iter().map(|run| run.join().unwrap()).collect()
    });
    let (ssa_periods, ssa_frq_n) = &ensembles[0];
    for ((kind, _), (periods, frq_n)) in kinds.iter().zip(&ensembles).skip(1) {
        assert_eq!(frq_n.len(), INSTANCES as usize, "{kind}");
        for (what, exact, approx) in [
            ("period", ssa_periods, periods),
            ("FRQ_n at 72 h", ssa_frq_n, frq_n),
        ] {
            let (d, p) = ks_two_sample(exact, approx);
            eprintln!("{kind} {what}: D = {d:.4}, p = {p:.4}");
            assert!(
                p >= ALPHA,
                "{kind} {what}: KS D = {d:.4}, p = {p:.2e} < {ALPHA}"
            );
        }
    }
}

/// Observable 0 of every trajectory of `kind` on `model` at time `t`,
/// one entry per instance.
fn observable_at(
    model: &Arc<Model>,
    kind: EngineKind,
    base_seed: u64,
    instances: u64,
    t: f64,
) -> Vec<f64> {
    let deps = Arc::new(ModelDeps::compile(model));
    (0..instances)
        .map(|instance| {
            let mut engine = kind
                .build_with_deps(Arc::clone(model), Arc::clone(&deps), base_seed, instance)
                .unwrap();
            let mut at_t = None;
            engine.run_sampled(t, &mut SampleClock::new(0.0, t), |time, v| {
                if time == t {
                    at_t = Some(v[0] as f64);
                }
            });
            at_t.expect("the clock samples the horizon")
        })
        .collect()
}

/// The leaping kinds against SSA on `model`: observable 0 at `t`, 200
/// trajectories per engine, each engine on its own base seed (before its
/// first switch the hybrid is SSA on the same seeds, which would make
/// the samples dependent). Returns `(kind, D, p)` per leaping kind.
fn leaping_kinds_vs_ssa_at(model: Model, t: f64) -> Vec<(EngineKind, f64, f64)> {
    const INSTANCES: u64 = 200;
    let model = Arc::new(model);
    let kinds = [
        (EngineKind::Ssa, 1_001),
        (EngineKind::AdaptiveTau { epsilon: 0.03 }, 2_002),
        (
            EngineKind::Hybrid {
                epsilon: 0.03,
                threshold: 8.0,
            },
            3_003,
        ),
        (
            EngineKind::Hybrid {
                epsilon: 0.05,
                threshold: 8.0,
            },
            4_004,
        ),
    ];
    // One thread per engine: the four ensembles are independent.
    let ensembles: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let runs: Vec<_> = (kinds.iter())
            .map(|&(kind, seed)| {
                let model = &model;
                scope.spawn(move || observable_at(model, kind, seed, INSTANCES, t))
            })
            .collect();
        runs.into_iter().map(|run| run.join().unwrap()).collect()
    });
    (kinds.iter().zip(&ensembles).skip(1))
        .map(|(&(kind, _), approx)| {
            let (d, p) = ks_two_sample(&ensembles[0], approx);
            eprintln!("{kind} on {}: D = {d:.4}, p = {p:.4}", model.name);
            (kind, d, p)
        })
        .collect()
}

/// Asserts that neither leaping kind's KS test against SSA rejects at
/// α = 0.001.
fn assert_leaping_kinds_match_ssa(model: Model, t: f64) {
    const ALPHA: f64 = 0.001;
    let name = model.name.clone();
    for (kind, d, p) in leaping_kinds_vs_ssa_at(model, t) {
        assert!(
            p >= ALPHA,
            "{kind} on {name}: KS D = {d:.4}, p = {p:.2e} < {ALPHA}"
        );
    }
}

/// The bimodal case a mean test cannot judge: X at t = 6, when the
/// ensemble has split between Schlögl's two basins. Measured: D = 0.075
/// (adaptive, p = 0.61), D = 0.080 (hybrid at ε 0.03, p = 0.53) and
/// D = 0.105 (hybrid at ε 0.05, p = 0.21). About 6 s in a debug build on
/// 2 vCPUs.
#[test]
fn leaping_kinds_match_ssa_in_distribution_on_schlogl() {
    assert_leaping_kinds_match_ssa(biomodels::schlogl(biomodels::SchloglParams::default()), 6.0);
}

/// Prey at t = 6 on Lotka–Volterra, the same setup. Measured: D = 0.075
/// (adaptive, p = 0.61), D = 0.095 (hybrid at ε 0.03, p = 0.31) and
/// D = 0.125 (hybrid at ε 0.05, p = 0.081). About 1 s in a debug build on
/// 2 vCPUs.
#[test]
fn leaping_kinds_match_ssa_in_distribution_on_lotka_volterra() {
    assert_leaping_kinds_match_ssa(
        biomodels::lotka_volterra(biomodels::LotkaVolterraParams::default()),
        6.0,
    );
}
