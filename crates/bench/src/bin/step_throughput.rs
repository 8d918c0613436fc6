//! Step-throughput benchmark: the incremental propensity row vs the naive
//! full re-enumeration it replaced.
//!
//! Measures raw `step()` throughput (steps/second) per model × engine
//! kind, flat and compartmentalised, in two modes:
//!
//! - `incremental` — the real engines, driven by the dependency graph:
//!   the dense core on the flat models, the reaction table
//!   (`gillespie::table`) on the compartment model;
//! - `full_reenum` — a faithful replica of the pre-table step loop (walk
//!   every site, re-match every rule, collect a fresh reaction list per
//!   step), kept here as the recorded *before* number. Both modes produce
//!   bit-for-bit identical trajectories; only the bookkeeping differs.
//!
//! Output: a human table on stdout plus `BENCH_ssa_step.json` (override
//! with `--out PATH`). Both carry a run header ([`bench::RunHeader`]:
//! CPU model, resolved kernels, commit, and a fixed-work calibration spin
//! timed at the start and the end of the run), so a reader can tell
//! whether two files came from comparable boxes. Flags:
//!
//! - `--quick`    fewer averaged instances (the CI smoke configuration);
//! - `--check F`  after measuring (the fresh run is written only to an
//!   explicit `--out`, never over the default file, which is the
//!   baseline), compare the incremental/full speedup
//!   ratio per configuration against the committed baseline `F` and exit
//!   non-zero on a >25 % regression (ratios, not absolute steps/sec, so
//!   the gate is hardware-independent), on a committed configuration
//!   missing from the run, or on a measured one with no committed row.
//!   Only configurations whose committed speedup is ≥ [`GATE_MIN_RATIO`]
//!   are gated; near-1.0 ratios are noise-dominated and reported
//!   informationally.

use std::sync::Arc;
use std::time::Instant;

use biomodels::{
    lotka_volterra, neurospora_compartments, neurospora_flat, schlogl, LotkaVolterraParams,
    NeurosporaParams, SchloglParams,
};
use cwc::matching::{apply_at, choose_assignment, match_count};
use cwc::model::Model;
use cwc::term::{Path, Term};
use gillespie::engine::{EngineKind, EngineStep};
use gillespie::rng::{sim_rng, SimRng};
use gillespie::KernelDispatch;
use rand::Rng;

/// Tolerated regression of the incremental/full speedup ratio vs the
/// committed baseline (CI noise headroom).
const RATIO_TOLERANCE: f64 = 0.25;

/// `--check` only gates configurations whose committed speedup is at
/// least this much: where the two modes are near-equivalent (ratio ≈ 1,
/// e.g. tiny flat models whose enumeration is already cheap) the ratio is
/// dominated by measurement noise and a hard gate would flake; those rows
/// are reported informationally instead.
const GATE_MIN_RATIO: f64 = 1.3;

struct Measurement {
    model: &'static str,
    engine: &'static str,
    mode: &'static str,
    steps: u64,
    steps_per_sec: f64,
}

/// The pre-table direct-method step loop: enumerate every (site, rule)
/// afresh, sum `a0` twice, clone paths — the per-step cost profile of the
/// old engine (minus quantum bookkeeping, which a free-running loop never
/// exercises).
struct NaiveSsa {
    model: Arc<Model>,
    term: Term,
    time: f64,
    rng: SimRng,
}

struct NaiveReaction {
    rule: usize,
    site: Path,
    propensity: f64,
}

impl NaiveSsa {
    fn new(model: Arc<Model>, base_seed: u64, instance: u64) -> Self {
        let term = model.initial.clone();
        NaiveSsa {
            model,
            term,
            time: 0.0,
            rng: sim_rng(base_seed, instance),
        }
    }

    fn reactions(&self) -> Vec<NaiveReaction> {
        let mut out = Vec::new();
        self.term.walk_sites(&mut |path, label, site_term| {
            for (ri, rule) in self.model.rules.iter().enumerate() {
                if rule.site != label || rule.rate == 0.0 {
                    continue;
                }
                let h = match_count(site_term, &rule.lhs);
                if h > 0 {
                    let propensity = rule.law.propensity(rule.rate, h, &site_term.atoms);
                    if propensity > 0.0 {
                        out.push(NaiveReaction {
                            rule: ri,
                            site: path.clone(),
                            propensity,
                        });
                    }
                }
            }
        });
        out
    }

    fn step(&mut self) -> bool {
        // One free-running step of the pre-table loop (no quantum horizon,
        // so no pending-event bookkeeping): enumerate, sum `a0` for the
        // waiting time, sum it again for the selection, clone paths.
        let reactions = self.reactions();
        let t = {
            let a0: f64 = reactions.iter().map(|r| r.propensity).sum();
            if a0 <= 0.0 {
                return false;
            }
            let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
            self.time + (-u1.ln() / a0)
        };
        let chosen = if reactions.len() == 1 {
            0
        } else {
            let a0: f64 = reactions.iter().map(|r| r.propensity).sum();
            let target = self.rng.gen_range(0.0..a0);
            let mut acc = 0.0;
            let mut chosen = reactions.len() - 1;
            for (i, r) in reactions.iter().enumerate() {
                acc += r.propensity;
                if target < acc {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        let reaction = &reactions[chosen];
        let rule = &self.model.rules[reaction.rule];
        let site_term = self.term.site(&reaction.site).expect("site exists");
        let u3: f64 = self.rng.gen_range(0.0..1.0);
        let assignment = choose_assignment(site_term, &rule.lhs, u3).expect("enabled");
        apply_at(&mut self.term, rule, &reaction.site, &assignment).expect("applies");
        self.time = t;
        true
    }
}

/// Measures `instances` independent trajectories, each warmed up and then
/// timed for a *fixed-length* segment from its initial state.
///
/// Fixed segments keep every run — quick CI runs and the committed full
/// baseline alike — in the same trajectory regime, so their speedup ratios
/// are comparable (long free-running measurements drift into different
/// states, e.g. post-extinction Lotka–Volterra, and change the per-step
/// cost profile).
fn time_steps(
    instances: u64,
    warmup: u64,
    measured: u64,
    make_stepper: &dyn Fn(u64) -> Box<dyn FnMut() -> bool>,
) -> (u64, f64) {
    let mut done = 0u64;
    let mut secs = 0.0;
    for instance in 0..instances {
        let mut step = make_stepper(instance);
        for _ in 0..warmup {
            step();
        }
        let start = Instant::now();
        for _ in 0..measured {
            if step() {
                done += 1;
            }
        }
        secs += start.elapsed().as_secs_f64();
    }
    (done, done as f64 / secs)
}

/// Steps measured per instance (identical in quick and full mode — see
/// [`time_steps`]); modes differ only in how many instances they average.
/// Quick mode still averages several instances so one scheduler blip on a
/// shared CI runner cannot dominate a configuration's measurement.
const WARMUP: u64 = 2_000;
const SEGMENT: u64 = 25_000;

/// A per-instance stepper factory: one row of the exact matrix.
type Stepper = Box<dyn Fn(u64) -> Box<dyn FnMut() -> bool>>;

fn measure_all(quick: bool) -> Vec<Measurement> {
    let instances = if quick { 4 } else { 8 };
    let models: Vec<(&'static str, Arc<Model>)> = vec![
        ("schlogl", Arc::new(schlogl(SchloglParams::default()))),
        (
            "lotka_volterra",
            Arc::new(lotka_volterra(LotkaVolterraParams::default())),
        ),
        (
            "neurospora_flat",
            Arc::new(neurospora_flat(NeurosporaParams::default())),
        ),
        (
            "neurospora_compartments",
            Arc::new(neurospora_compartments(NeurosporaParams::default())),
        ),
    ];
    let engine_stepper = |m: &Arc<Model>, kind: EngineKind| -> Stepper {
        let m = Arc::clone(m);
        Box::new(move |i| {
            let mut engine = kind.build(Arc::clone(&m), 1, i).expect("engine builds");
            Box::new(move || !matches!(engine.step(), EngineStep::Exhausted))
        })
    };
    // (model, engine, mode, segment divisor, stepper factory).
    let mut rows: Vec<(&'static str, &'static str, &'static str, u64, Stepper)> = Vec::new();
    for (name, model) in &models {
        // The exact engine: incremental vs the naive replica.
        rows.push((
            name,
            "ssa",
            "incremental",
            1,
            engine_stepper(model, EngineKind::Ssa),
        ));
        let m = Arc::clone(model);
        let naive: Stepper = Box::new(move |i| {
            let mut naive = NaiveSsa::new(Arc::clone(&m), 1, i);
            Box::new(move || naive.step())
        });
        rows.push((name, "ssa", "full_reenum", 1, naive));
        // The leaping kinds (flat models only), reported for the
        // engine × model matrix: adaptive and hybrid share the compiled
        // stoichiometry (the hybrid's exact phase drives the dense core's
        // row). A transition here is one `Engine::step` (a leap may fire
        // many reactions).
        let leaping: [(&'static str, EngineKind); 2] = [
            ("adaptive-tau", EngineKind::AdaptiveTau { epsilon: 0.03 }),
            (
                "hybrid",
                EngineKind::Hybrid {
                    epsilon: 0.03,
                    threshold: 8.0,
                },
            ),
        ];
        for (engine_name, kind) in leaping {
            if kind.build(Arc::clone(model), 1, 0).is_ok() {
                rows.push((
                    name,
                    engine_name,
                    "incremental",
                    10,
                    engine_stepper(model, kind),
                ));
            }
        }
    }
    // Every row is timed `bench::PASSES` times; its fastest pass is kept.
    let best = bench::best_of_passes(
        rows.len(),
        |r| {
            let divisor = rows[r].3;
            time_steps(instances, WARMUP / divisor, SEGMENT / divisor, &rows[r].4)
        },
        |&(_, rate)| rate,
    );
    rows.iter()
        .zip(best)
        .map(
            |(&(model, engine, mode, _, _), (steps, steps_per_sec))| Measurement {
                model,
                engine,
                mode,
                steps,
                steps_per_sec,
            },
        )
        .collect()
}

fn to_json(results: &[Measurement], quick: bool, header: &bench::RunHeader) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"cwc-repro/step-throughput/v1\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"header\": {},\n", header.to_json()));
    s.push_str("  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"model\": \"{}\", \"engine\": \"{}\", \"mode\": \"{}\", \"steps\": {}, \"steps_per_sec\": {:.1}}}{comma}\n",
            m.model, m.engine, m.mode, m.steps, m.steps_per_sec
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// `(model, engine) -> steps/sec` per mode, parsed from the emitted JSON.
fn parse_rates(json: &str, mode: &str) -> Vec<((String, String), f64)> {
    json.split('}')
        .filter_map(|chunk| {
            let m = bench::str_field(chunk, "model")?;
            let e = bench::str_field(chunk, "engine")?;
            let md = bench::str_field(chunk, "mode")?;
            let r = bench::num_field(chunk, "steps_per_sec")?;
            (md == mode).then_some(((m, e), r))
        })
        .collect()
}

/// Speedup ratios incremental/full_reenum per configuration.
fn ratios(json: &str) -> Vec<((String, String), f64)> {
    let inc = parse_rates(json, "incremental");
    let full = parse_rates(json, "full_reenum");
    inc.into_iter()
        .filter_map(|((m, e), i)| {
            let f = full.iter().find(|((fm, fe), _)| *fm == m && *fe == e)?.1;
            (f > 0.0).then_some(((m, e), i / f))
        })
        .collect()
}

fn check(committed_path: &str, fresh_json: &str) -> Result<(), String> {
    let committed = std::fs::read_to_string(committed_path)
        .map_err(|e| format!("cannot read baseline {committed_path}: {e}"))?;
    let baseline = ratios(&committed);
    let current = ratios(fresh_json);
    if baseline.is_empty() {
        return Err(format!("no speedup ratios in baseline {committed_path}"));
    }
    let mut failures = Vec::new();
    for ((model, engine), committed_ratio) in &baseline {
        let Some((_, now)) = current.iter().find(|((m, e), _)| m == model && e == engine) else {
            failures.push(format!("{model}/{engine}: missing from fresh run"));
            continue;
        };
        if *committed_ratio < GATE_MIN_RATIO {
            println!(
                "info {model}/{engine}: ratio {now:.2} (committed {committed_ratio:.2} \
                 < {GATE_MIN_RATIO} — informational, not gated)"
            );
            continue;
        }
        let floor = committed_ratio * (1.0 - RATIO_TOLERANCE);
        if *now < floor {
            failures.push(format!(
                "{model}/{engine}: speedup ratio {now:.2} fell below {floor:.2} \
                 (committed {committed_ratio:.2}, tolerance {}%)",
                RATIO_TOLERANCE * 100.0
            ));
        } else {
            println!("ok {model}/{engine}: ratio {now:.2} (committed {committed_ratio:.2})");
        }
    }
    // The other direction: a new or renamed row would otherwise run ungated.
    for ((model, engine), now) in &current {
        if !baseline.iter().any(|((m, e), _)| m == model && e == engine) {
            failures.push(format!(
                "{model}/{engine}: ratio {now:.2} has no committed row in {committed_path}"
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
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
                m.engine.to_string(),
                m.mode.to_string(),
                format!("{:.0}", m.steps_per_sec),
            ]
        })
        .collect();
    bench::print_table(
        "step_throughput (steps/sec)",
        &["model", "engine", "mode", "steps_per_sec"],
        &rows,
    );
    let json = to_json(&results, quick, &header);
    for ((model, engine), r) in ratios(&json) {
        bench::note(&format!(
            "{model}/{engine}: incremental is {r:.2}x full re-enumeration"
        ));
    }

    bench::write_results("BENCH_ssa_step.json", &json);
    if let Some(baseline) = bench::arg_value("--check") {
        match check(&baseline, &json) {
            Ok(()) => bench::note("step-throughput gate: ok"),
            Err(msg) => {
                eprintln!("step-throughput gate FAILED:\n{msg}");
                std::process::exit(1);
            }
        }
    }
}
