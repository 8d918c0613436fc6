//! Adaptive tau-leaping speed/accuracy sweep: the CGP engine and the
//! hybrid SSA/tau engine vs exact SSA.
//!
//! Adaptive step-size selection re-sizes every leap from the committed
//! state, so no leap length is sized for the worst state a trajectory
//! visits — this harness measures what that buys:
//!
//! - **speed** — reaction firings per wall-second, per engine, running
//!   full trajectories to a fixed horizon (so every engine does the same
//!   physical work);
//! - **accuracy** — ensemble mean of the first observable at the horizon
//!   vs exact SSA, with the standard error of the difference (Schlögl is
//!   bistable, Lotka–Volterra oscillatory: the two hard cases; the wide
//!   conversion cycles — 300 rules, 2 species touched per transition —
//!   isolate per-transition scan cost: the leap-regime case exercises
//!   the kernel-accelerated CGP/Poisson sweeps, the all-critical case
//!   the incidence list and incremental a0 maintenance).
//!
//! Every row is timed [`bench::PASSES`] times in alternated order and
//! keeps its fastest pass. Output: a human table on stdout plus
//! `BENCH_adaptive_tau.json` (override with `--out PATH`), both carrying a
//! run header ([`bench::RunHeader`]: CPU, resolved kernels, commit, and a
//! calibration spin at the start and the end). Flags:
//!
//! - `--quick`    fewer averaged instances (the CI smoke configuration);
//! - `--csv`      emit rows in the CI baseline CSV format instead;
//! - `--check F`  check the fresh run: it must measure exactly the
//!   (model, engine) rows of the committed baseline `F`, the
//!   adaptive-vs-SSA ratio on the leap-regime wide case must clear the
//!   absolute [`SSA_RATIO_FLOORS`] for the resolved kernel dispatch, the
//!   adaptive-vs-full-recompute ratio on the all-critical wide case must
//!   clear [`INCIDENCE_GAIN_FLOORS`], and every approximate engine's mean
//!   must agree with the SSA mean within [`ACCURACY_SIGMA`] standard
//!   errors. Exit non-zero on violation.

use std::sync::Arc;
use std::time::Instant;

use biomodels::{conversion_cycle, lotka_volterra, schlogl, LotkaVolterraParams, SchloglParams};
use cwc::model::Model;
use gillespie::adaptive::AdaptiveTauEngine;
use gillespie::deps::ModelDeps;
use gillespie::engine::EngineKind;
use gillespie::kernels::{Kernel, KernelDispatch};

/// Accuracy gate: |mean − ssa mean| must stay within this many standard
/// errors of the difference of the two ensemble means.
const ACCURACY_SIGMA: f64 = 6.0;

/// The engine whose ratios over `ssa` and its full-recompute replica are
/// gated.
const GATED_ENGINE: &str = "adaptive-0.05";

/// Absolute floors on the [`GATED_ENGINE`]-vs-`ssa` firings/sec ratio of
/// the *fresh* run, per model: `(model, avx2_floor, scalar_floor)`. The
/// AVX2 floor applies when [`KernelDispatch::Auto`] resolves to the SIMD
/// kernels; the scalar floor applies under `CWC_FORCE_SCALAR_KERNELS`
/// or on CPUs without AVX2, so the gate is sound off-AVX2. They pin the
/// kernel-accelerated leap path itself — if it regresses to full-width
/// rescans the leap-regime ratio collapses well below 2 (it reads 43–75×
/// since exact SSA steps on the dense core; 155× before).
///
/// `wide_flat_cycle_crit` is *not* here any more. It cannot leap (every
/// rule is critical), so adaptive and SSA both pay one ordered 300-slot
/// fold per firing and the ratio only says whose constant factor is
/// smaller: 1.2–1.7× while SSA walked a `BTreeMap` term (floor 0.7), 0.50–
/// 0.68× now that SSA steps on dense counts (SSA 1.1 → 4.5 M firings/s,
/// adaptive unchanged at ~2.0–2.6 M). What the floor was there to catch —
/// the hot path falling back to full-width rescans, 0.17× SSA at the seed
/// — is pinned without an SSA denominator by [`INCIDENCE_GAIN_FLOORS`].
const SSA_RATIO_FLOORS: [(&str, f64, f64); 1] = [("wide_flat_cycle", 2.0, 1.0)];

/// Absolute floors on the [`GATED_ENGINE`]-vs-[`FULL_RECOMPUTE_ENGINE`]
/// firings/sec ratio of the *fresh* run: same engine, same draws, same
/// results — the replica rescans all propensities per transition, the
/// gated engine refreshes only the rules incident to changed species.
///
/// *What it guards:* the O(affected) hot path on the all-critical wide
/// case, where one firing touches 2 of 300 rules. If the incremental
/// refresh regresses to full-width rescans (the 0.17×-SSA seed behaviour
/// the old SSA floor guarded) this ratio falls to 1.0. *Derived from:*
/// 14.5× on the full run committed in `BENCH_adaptive_tau.json`, 14.3×
/// `--quick`, 11.9× `--quick` with the kernels forced scalar; 5.0 leaves
/// the same ~0.4× noise headroom the SSA floor had, on both dispatches.
const INCIDENCE_GAIN_FLOORS: [(&str, f64); 1] = [("wide_flat_cycle_crit", 5.0)];

/// The full-recompute replica of the gated engine: identical draws, but
/// every transition rescans all propensities instead of refreshing only
/// the rules incident to changed species. Its firings/sec vs the gated
/// engine's is what the incidence list buys (reported per model; the
/// effect grows with rule count — see the `wide_flat_cycle` case).
const FULL_RECOMPUTE_ENGINE: &str = "adaptive-0.05-fullrecompute";

/// How a measured engine is built (the full-recompute replica is not an
/// `EngineKind` — it is a diagnostic switch on the adaptive engine).
enum EngineSpec {
    Kind(EngineKind),
    AdaptiveFullRecompute { epsilon: f64 },
}

struct Measurement {
    model: &'static str,
    engine: String,
    firings: u64,
    firings_per_sec: f64,
    wall_s: f64,
    mean: f64,
    se: f64,
}

/// Runs `instances` full trajectories of `kind` to `t_end`, timing the
/// whole ensemble; returns (total firings, firings/sec, wall seconds,
/// endpoint mean, endpoint standard error).
fn measure(
    model: &Arc<Model>,
    deps: &Arc<ModelDeps>,
    spec: &EngineSpec,
    instances: u64,
    t_end: f64,
) -> (u64, f64, f64, f64, f64) {
    let mut firings = 0u64;
    let mut endpoints = Vec::with_capacity(instances as usize);
    let start = Instant::now();
    for i in 0..instances {
        match spec {
            EngineSpec::Kind(kind) => {
                let mut engine = kind
                    .build_with_deps(Arc::clone(model), Arc::clone(deps), 1, i)
                    .expect("flat benchmark models");
                firings += engine.run_until(t_end);
                endpoints.push(engine.observe()[0] as f64);
            }
            EngineSpec::AdaptiveFullRecompute { epsilon } => {
                let mut engine =
                    AdaptiveTauEngine::with_deps(Arc::clone(model), Arc::clone(deps), 1, i)
                        .expect("flat benchmark models")
                        .with_epsilon(*epsilon)
                        .with_full_recompute();
                firings += engine.run_until(t_end);
                endpoints.push(engine.observe()[0] as f64);
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let n = endpoints.len() as f64;
    let mean = endpoints.iter().sum::<f64>() / n;
    let var = endpoints.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    let se = (var / n).sqrt();
    (firings, firings as f64 / wall, wall, mean, se)
}

fn engines() -> Vec<(String, EngineSpec)> {
    vec![
        ("ssa".into(), EngineSpec::Kind(EngineKind::Ssa)),
        (
            "adaptive-0.01".into(),
            EngineSpec::Kind(EngineKind::AdaptiveTau { epsilon: 0.01 }),
        ),
        (
            "adaptive-0.03".into(),
            EngineSpec::Kind(EngineKind::AdaptiveTau { epsilon: 0.03 }),
        ),
        (
            "adaptive-0.05".into(),
            EngineSpec::Kind(EngineKind::AdaptiveTau { epsilon: 0.05 }),
        ),
        (
            FULL_RECOMPUTE_ENGINE.into(),
            EngineSpec::AdaptiveFullRecompute { epsilon: 0.05 },
        ),
        (
            "hybrid".into(),
            EngineSpec::Kind(EngineKind::Hybrid {
                epsilon: 0.03,
                threshold: 8.0,
            }),
        ),
    ]
}

fn measure_all(quick: bool) -> Vec<Measurement> {
    let instances = if quick { 12 } else { 48 };
    // (name, model, horizon).
    let cases: Vec<(&'static str, Arc<Model>, f64)> = vec![
        ("schlogl", Arc::new(schlogl(SchloglParams::default())), 6.0),
        (
            "lotka_volterra",
            Arc::new(lotka_volterra(LotkaVolterraParams::default())),
            4.0,
        ),
        // The wide flat case: 300 rules at ~200 molecules per species —
        // wide enough that full-width scans dominate naive engines, and
        // populous enough that every species sits above the critical
        // threshold, so the adaptive tier actually leaps. This is the
        // regime the kernel-accelerated hot path (masked CGP μ/σ
        // accumulation, Poisson leap sweep, active-rule list) is built
        // for, and the case carries the adaptive-vs-SSA ratio floor
        // ([`SSA_RATIO_FLOORS`]).
        (
            "wide_flat_cycle",
            Arc::new(conversion_cycle(300, 60_000, 1.0)),
            0.5,
        ),
        // The all-critical wide case: same 300 rules at ~5 molecules per
        // species, so every reaction is critical and the adaptive engine
        // fires them one at a time (exactly) — it cannot leap, and both
        // it and SSA bottom out on the same serial propensity-fold floor.
        // Each firing touches 2 species = 2 incident rules; the
        // full-recompute replica rescans all 300 propensities per
        // transition. This is the regime the incidence list and the
        // incremental a0 screen exist for — at the seed this case ran at
        // 0.17x SSA; [`INCIDENCE_GAIN_FLOORS`] pins the O(affected)
        // refresh that recovered it.
        (
            "wide_flat_cycle_crit",
            Arc::new(conversion_cycle(300, 1_500, 1.0)),
            2.0,
        ),
    ];
    // One row per (case, engine); every row is timed `bench::PASSES`
    // times and keeps its fastest pass (the means and standard errors are
    // the same in every pass: same seeds, same trajectories).
    let mut rows = Vec::new();
    for (name, model, t_end) in &cases {
        let deps = Arc::new(ModelDeps::compile(model));
        for (engine, spec) in engines() {
            rows.push((*name, model, Arc::clone(&deps), *t_end, engine, spec));
        }
    }
    let best = bench::best_of_passes(
        rows.len(),
        |r| {
            let (_, model, deps, t_end, _, spec) = &rows[r];
            measure(model, deps, spec, instances, *t_end)
        },
        |&(_, rate, ..)| rate,
    );
    rows.into_iter()
        .zip(best)
        .map(
            |((model, _, _, _, engine, _), (firings, rate, wall, mean, se))| Measurement {
                model,
                engine,
                firings,
                firings_per_sec: rate,
                wall_s: wall,
                mean,
                se,
            },
        )
        .collect()
}

fn to_json(results: &[Measurement], quick: bool, header: &bench::RunHeader) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"cwc-repro/adaptive-tau/v1\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"header\": {},\n", header.to_json()));
    s.push_str("  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"model\": \"{}\", \"engine\": \"{}\", \"firings\": {}, \"firings_per_sec\": {:.1}, \"wall_s\": {:.4}, \"mean\": {:.3}, \"se\": {:.3}}}{comma}\n",
            m.model, m.engine, m.firings, m.firings_per_sec, m.wall_s, m.mean, m.se
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn str_field(chunk: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\": \"");
    let start = chunk.find(&tag)? + tag.len();
    let end = chunk[start..].find('"')? + start;
    Some(chunk[start..end].to_string())
}

fn num_field(chunk: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    let start = chunk.find(&tag)? + tag.len();
    let rest = &chunk[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `(model, engine) -> firings/sec` parsed from the emitted JSON.
fn parse_rates(json: &str) -> Vec<((String, String), f64)> {
    json.split('}')
        .filter_map(|chunk| {
            let m = str_field(chunk, "model")?;
            let e = str_field(chunk, "engine")?;
            let r = num_field(chunk, "firings_per_sec")?;
            Some(((m, e), r))
        })
        .collect()
}

/// The [`GATED_ENGINE`]'s firings/sec over engine `over`'s, per model.
fn gated_ratios(json: &str, over: &str) -> Vec<(String, f64)> {
    let rates = parse_rates(json);
    let rate_of = |model: &str, engine: &str| -> Option<f64> {
        rates
            .iter()
            .find(|((m, e), _)| m == model && e == engine)
            .map(|(_, r)| *r)
    };
    let mut models: Vec<String> = rates.iter().map(|((m, _), _)| m.clone()).collect();
    models.dedup();
    models
        .into_iter()
        .filter_map(|m| {
            let gated = rate_of(&m, GATED_ENGINE)?;
            let other = rate_of(&m, over)?;
            (other > 0.0).then_some((m, gated / other))
        })
        .collect()
}

/// Incidence-cache gain per model: the gated engine over its
/// full-recompute replica (same draws, same results — pure
/// propensity-refresh cost).
fn incidence_gains(json: &str) -> Vec<(String, f64)> {
    gated_ratios(json, FULL_RECOMPUTE_ENGINE)
}

/// Adaptive-over-SSA ratio per model (the [`SSA_RATIO_FLOORS`] input).
fn ssa_ratios(json: &str) -> Vec<(String, f64)> {
    gated_ratios(json, "ssa")
}

/// The row-set check (vs the committed baseline) plus the absolute
/// adaptive-vs-SSA and incidence-gain floors plus the accuracy gate
/// (internal to the fresh run: every approximate mean vs the fresh SSA
/// mean).
fn check(committed_path: &str, fresh: &[Measurement], fresh_json: &str) -> Result<(), String> {
    let committed = std::fs::read_to_string(committed_path)
        .map_err(|e| format!("cannot read baseline {committed_path}: {e}"))?;
    let keys = |json: &str| -> Vec<(String, String)> {
        parse_rates(json).into_iter().map(|(key, _)| key).collect()
    };
    let (baseline, current) = (keys(&committed), keys(fresh_json));
    if baseline.is_empty() {
        return Err(format!("no rows in baseline {committed_path}"));
    }
    let mut failures = Vec::new();

    // Rows: the committed file must describe exactly what the harness
    // measures, so a deleted or renamed engine cannot leave a stale row.
    for key @ (model, engine) in &baseline {
        if !current.contains(key) {
            failures.push(format!("{model}/{engine}: missing from fresh run"));
        }
    }
    for key @ (model, engine) in &current {
        if !baseline.contains(key) {
            failures.push(format!(
                "{model}/{engine}: measured, but no committed row in {committed_path}"
            ));
        }
    }

    // Absolute adaptive-vs-SSA ratio floors on the fresh run: the
    // kernel-accelerated hot path must keep its edge over exact SSA on
    // the wide cases, under whichever kernels this process resolved to.
    let avx2 = matches!(KernelDispatch::Auto.resolve(), Kernel::Avx2);
    let fresh_ratios = ssa_ratios(fresh_json);
    for (model, avx2_floor, scalar_floor) in SSA_RATIO_FLOORS {
        let floor = if avx2 { avx2_floor } else { scalar_floor };
        let Some((_, ratio)) = fresh_ratios.iter().find(|(m, _)| m == model) else {
            failures.push(format!("{model}: no {GATED_ENGINE}/ssa ratio in fresh run"));
            continue;
        };
        let kernels = if avx2 { "avx2" } else { "scalar" };
        if *ratio < floor {
            failures.push(format!(
                "{model}: {GATED_ENGINE}/ssa ratio {ratio:.2} below the {floor:.2} \
                 floor ({kernels} kernels)"
            ));
        } else {
            println!("ok {model}: {GATED_ENGINE}/ssa ratio {ratio:.2} >= {floor:.2} ({kernels})");
        }
    }

    // Absolute incidence-gain floors on the fresh run: the O(affected)
    // refresh must keep its edge over the full-recompute replica.
    let fresh_gains = incidence_gains(fresh_json);
    for (model, floor) in INCIDENCE_GAIN_FLOORS {
        let Some((_, gain)) = fresh_gains.iter().find(|(m, _)| m == model) else {
            failures.push(format!(
                "{model}: no {GATED_ENGINE}/{FULL_RECOMPUTE_ENGINE} ratio in fresh run"
            ));
            continue;
        };
        if *gain < floor {
            failures.push(format!(
                "{model}: incidence-list refresh is {gain:.2}x full recompute, below the \
                 {floor:.2} floor"
            ));
        } else {
            println!("ok {model}: incidence-list refresh {gain:.2}x full recompute >= {floor:.2}");
        }
    }

    // Accuracy: statistical agreement with SSA inside the fresh run (the
    // standard-error bound scales itself with the --quick ensemble size).
    for m in fresh {
        if m.engine == "ssa" {
            continue;
        }
        let Some(ssa) = fresh
            .iter()
            .find(|r| r.model == m.model && r.engine == "ssa")
        else {
            failures.push(format!("{}: no ssa reference row", m.model));
            continue;
        };
        let se = (m.se * m.se + ssa.se * ssa.se).sqrt().max(1.0);
        let diff = (m.mean - ssa.mean).abs();
        if diff > ACCURACY_SIGMA * se {
            failures.push(format!(
                "{}/{}: mean {:.2} vs ssa {:.2} — off by {:.1} se (limit {ACCURACY_SIGMA})",
                m.model,
                m.engine,
                m.mean,
                ssa.mean,
                diff / se
            ));
        } else {
            println!(
                "ok {}/{}: mean {:.2} within {:.1} se of ssa {:.2}",
                m.model,
                m.engine,
                m.mean,
                diff / se,
                ssa.mean
            );
        }
    }

    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let quick = bench::quick_mode();
    let mut header = bench::RunHeader::start(KernelDispatch::Auto.resolve());
    let results = measure_all(quick);
    header.finish();
    bench::note(&format!("run header: {}", header.to_json()));

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|m| {
            vec![
                m.model.to_string(),
                m.engine.clone(),
                format!("{}", m.firings),
                format!("{:.0}", m.firings_per_sec),
                format!("{:.2}", m.mean),
                format!("{:.2}", m.se),
            ]
        })
        .collect();
    bench::print_table(
        "adaptive_tau (full trajectories to the horizon)",
        &[
            "model",
            "engine",
            "firings",
            "firings/sec",
            "endpoint mean",
            "se",
        ],
        &rows,
    );
    let json = to_json(&results, quick, &header);
    for (model, r) in ssa_ratios(&json) {
        let floors = SSA_RATIO_FLOORS
            .iter()
            .find(|(m, _, _)| *m == model)
            .map(|(_, avx2, scalar)| format!(" (floors: {avx2} avx2 / {scalar} scalar)"))
            .unwrap_or_default();
        bench::note(&format!("{model}: {GATED_ENGINE} is {r:.2}x ssa{floors}"));
    }
    for (model, g) in incidence_gains(&json) {
        let floor = INCIDENCE_GAIN_FLOORS
            .iter()
            .find(|(m, _)| *m == model)
            .map(|(_, floor)| format!("; floor {floor}"))
            .unwrap_or_default();
        bench::note(&format!(
            "{model}: incidence-list refresh is {g:.2}x full recompute \
             (same draws, bit-identical results{floor})"
        ));
    }

    let out = arg_value("--out").unwrap_or_else(|| "BENCH_adaptive_tau.json".to_string());
    std::fs::write(&out, &json).expect("write bench json");
    bench::note(&format!("wrote {out}"));

    if let Some(baseline) = arg_value("--check") {
        match check(&baseline, &results, &json) {
            Ok(()) => bench::note("adaptive-tau gate: ok"),
            Err(msg) => {
                eprintln!("adaptive-tau gate FAILED:\n{msg}");
                std::process::exit(1);
            }
        }
    }
}
