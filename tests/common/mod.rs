//! What the integration suites share: one engine kind of each sort, the
//! base configuration of the transport suites, the bit-for-bit report
//! check, the seeded model generator, the golden suites' trajectory
//! fingerprint, a `cwc-workerd` daemon and the agreement harness with
//! its pinned cases (`matrix`). Each suite uses a subset.
#![allow(dead_code)]

pub mod matrix;

use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

use cwc_repro::cwc::model::{Model, ObservableSite};
use cwc_repro::cwc::multiset::Multiset;
use cwc_repro::cwc::rule::{CompPattern, CompProduction, Pattern, Production, RateLaw, Rule};
use cwc_repro::cwc::species::{Label, Species};
use cwc_repro::cwc::term::{Compartment, Term};
use cwc_repro::cwcsim::{EngineKind, SimConfig, SimReport};
use cwc_repro::gillespie::ssa::SampleClock;

/// One engine kind of each sort. The leaping kinds take every flat
/// model, whatever its kinetic laws; width 3 over 7 instances gives the
/// batched kind uneven tasks.
pub fn engine_kinds() -> [EngineKind; 4] {
    [
        EngineKind::Ssa,
        EngineKind::AdaptiveTau { epsilon: 0.05 },
        EngineKind::Hybrid {
            epsilon: 0.05,
            threshold: 8.0,
        },
        EngineKind::Batched { width: 3 },
    ]
}

/// 7 instances over 2 s: 2 and 3 shards split the slice unevenly.
pub fn cfg() -> SimConfig {
    SimConfig::new(7, 2.0)
        .quantum(0.5)
        .sample_period(0.25)
        .sim_workers(2)
        .stat_workers(2)
        .window(4, 2)
        .seed(101)
}

/// The bit-for-bit contract every runner keeps with `run_sequential`:
/// rows, event count, observable names and the whole-run `RunSummary`.
pub fn assert_reports_identical(a: &SimReport, b: &SimReport, label: &str) {
    assert_eq!(a.rows, b.rows, "{label}: rows diverged");
    assert_eq!(a.events, b.events, "{label}: event counts diverged");
    assert_eq!(
        a.observable_names, b.observable_names,
        "{label}: observable names diverged"
    );
    assert_eq!(a.summary, b.summary, "{label}: summaries diverged");
}

/// FNV-1a over `bytes`, continuing from `h` (0 starts a fresh hash).
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = if h == 0 { 0xcbf2_9ce4_8422_2325 } else { h };
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs `kind` on `model` in irregular quanta and fingerprints the entire
/// sample stream (times and values bit-for-bit, via `f64::to_bits`):
/// (hash, events, final observables).
pub fn fingerprint(
    model: Arc<Model>,
    kind: EngineKind,
    seed: u64,
    instance: u64,
    t_end: f64,
) -> (u64, u64, Vec<u64>) {
    let mut engine = kind.build(Arc::clone(&model), seed, instance).unwrap();
    let mut clock = SampleClock::new(0.0, t_end / 40.0);
    let mut hash = 0u64;
    let mut events = 0u64;
    let quanta = [0.13, 0.29, 0.5, 0.77, 1.0];
    let mut t = 0.0;
    while t < t_end {
        let q = quanta[(events as usize) % quanta.len()] * t_end / 10.0;
        t = (t + q).min(t_end);
        events += engine.run_sampled(t, &mut clock, |ts, v| {
            hash = fnv1a(hash, &ts.to_bits().to_le_bytes());
            for &x in v {
                hash = fnv1a(hash, &x.to_le_bytes());
            }
        });
    }
    (hash, events, engine.observe())
}

/// One golden trajectory fingerprint: (model, engine, seed, instance,
/// sample hash, events, final observables).
pub type GoldenRow = (
    &'static str,
    &'static str,
    u64,
    u64,
    u64,
    u64,
    &'static [u64],
);

/// SplitMix64: every random model, mutation and configuration the
/// suites draw is seeded and deterministic.
pub struct Mix(pub u64);

impl Mix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// One element of `xs`.
    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }

    /// A positive finite `f64` from anywhere in the range, subnormals
    /// included.
    pub fn positive(&mut self) -> f64 {
        let x = f64::from_bits(self.next() & 0x7fef_ffff_ffff_ffff);
        if x > 0.0 {
            x
        } else {
            0.25
        }
    }
}

/// A random valid model: up to four species and three labels, a nested
/// initial term, rules with every law, site, pattern and production kind,
/// and observables at every site kind. Its counts and rates span the
/// whole range the text format must carry, so it is for reading and
/// writing, not for running.
pub fn random_model(seed: u64) -> Model {
    let mut r = Mix(seed);
    let mut m = Model::new(&format!("random {seed}: x->y"));
    let species: Vec<Species> = (0..1 + r.below(4))
        .map(|i| m.species(&format!("S{i}_'")))
        .collect();
    let labels: Vec<Label> = (0..r.below(4)).map(|i| m.label(&format!("L{i}"))).collect();
    let label = |r: &mut Mix| match labels.len() {
        0 => Label::TOP,
        n => labels[r.below(n)],
    };
    let atoms = |r: &mut Mix| -> Multiset {
        (0..r.below(3))
            .map(|_| {
                let n = [1, 2, 7, u64::MAX / 4][r.below(4)];
                (species[r.below(species.len())], n)
            })
            .collect()
    };
    fn term(
        r: &mut Mix,
        depth: usize,
        atoms: &dyn Fn(&mut Mix) -> Multiset,
        label: &dyn Fn(&mut Mix) -> Label,
    ) -> Term {
        let mut t = Term::from_atoms(atoms(r));
        for _ in 0..if depth < 3 { r.below(3) } else { 0 } {
            let content = term(r, depth + 1, atoms, label);
            t.add_compartment(Compartment::new(label(r), atoms(r), content));
        }
        t
    }
    m.initial = term(&mut r, 0, &atoms, &label);
    for i in 0..1 + r.below(5) {
        let lhs = Pattern {
            atoms: atoms(&mut r),
            comps: (0..r.below(3))
                .map(|_| CompPattern {
                    label: label(&mut r),
                    wrap: atoms(&mut r),
                    atoms: atoms(&mut r),
                })
                .collect(),
        };
        let mut comps = Vec::new();
        for index in 0..lhs.comps.len() {
            match r.below(3) {
                0 => comps.push(CompProduction::Keep {
                    index,
                    add_wrap: atoms(&mut r),
                    add_atoms: atoms(&mut r),
                }),
                1 => comps.push(CompProduction::Dissolve { index }),
                _ => {} // destroyed
            }
            if r.below(2) == 0 {
                comps.push(CompProduction::New {
                    label: label(&mut r),
                    wrap: atoms(&mut r),
                    atoms: atoms(&mut r),
                });
            }
        }
        let s = species[r.below(species.len())];
        let law = match r.below(4) {
            0 => RateLaw::MassAction,
            1 => RateLaw::HillRepression {
                inhibitor: s,
                k: r.positive(),
                n: r.positive(),
            },
            2 => RateLaw::HillActivation {
                activator: s,
                k: r.positive(),
                n: r.positive(),
            },
            _ => RateLaw::Saturating {
                substrate: s,
                km: r.positive(),
            },
        };
        let rule = Rule {
            name: format!("r{i}(x)->y"),
            site: label(&mut r),
            lhs,
            rhs: Production {
                atoms: atoms(&mut r),
                comps,
            },
            rate: if r.below(5) == 0 { 0.0 } else { r.positive() },
            law,
        };
        m.push_rule(rule).unwrap();
    }
    for i in 0..r.below(5) {
        let site = match r.below(3) {
            0 => ObservableSite::Everywhere,
            1 => ObservableSite::TopOnly,
            _ => ObservableSite::AtLabel(label(&mut r)),
        };
        let s = species[r.below(species.len())];
        m.observe_at(&format!("obs {i}"), s, site);
    }
    m
}

/// One spawned `cwc-workerd` daemon on an ephemeral loopback port, its
/// address parsed from the `cwc-workerd listening on <addr>` line (the
/// discovery the CI loopback-cluster leg uses). `env` rides its
/// environment (a fault plan, say). Killed on drop, so no daemon
/// outlives its test.
pub struct Workerd {
    pub child: Child,
    pub addr: String,
}

impl Workerd {
    pub fn spawn(env: &[(&str, &str)]) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_cwc-workerd"))
            .args(["--listen", "127.0.0.1:0"])
            .envs(env.iter().copied())
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
            .unwrap_or_default()
            .to_string();
        let announced = line.contains("listening on") && addr.contains(':');
        assert!(announced, "unexpected announcement: {line:?}");
        Workerd { child, addr }
    }

    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Workerd {
    fn drop(&mut self) {
        self.kill();
    }
}
