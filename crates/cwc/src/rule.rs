//! Rewrite rules: the reactions of a CWC model.
//!
//! A rule `ℓ : P → O @ k` applies inside any site (compartment content or
//! the top level) whose label is `ℓ`. The pattern `P` consumes atoms and —
//! optionally — compartments at that site; the production `O` emits atoms,
//! rewrites the matched compartments (keeping their residual content, the
//! `X` variable of the calculus), creates new compartments, or dissolves
//! matched ones. This implements the executable fragment of CWC used by the
//! simulator line of papers (Coppo et al., TCS 2012): one implicit term
//! variable per site and per matched compartment, patterns without deep
//! nesting — which is exactly what tree matching in the stochastic engine
//! needs to stay polynomial.

use crate::multiset::Multiset;
use crate::species::{Label, Species};

/// Pattern for one compartment on a rule's left-hand side.
///
/// Matches any compartment at the site with the same `label`, whose wrap
/// contains `wrap` and whose content atoms contain `atoms`. The rest of the
/// compartment (remaining wrap, remaining atoms, nested compartments) is
/// bound to an implicit variable and survives if the production keeps the
/// compartment.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompPattern {
    /// Required compartment label.
    pub label: Label,
    /// Atoms that must be present on the membrane.
    pub wrap: Multiset,
    /// Atoms that must be present in the content (top level only).
    pub atoms: Multiset,
}

/// Left-hand side of a rule, evaluated at one site.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Pattern {
    /// Atoms consumed at the site.
    pub atoms: Multiset,
    /// Compartments matched at the site (bound by position: the `i`-th
    /// pattern binds variable `i` for the production).
    pub comps: Vec<CompPattern>,
}

impl Pattern {
    /// Pattern consuming only atoms.
    pub fn atoms(atoms: Multiset) -> Self {
        Pattern {
            atoms,
            comps: Vec::new(),
        }
    }
}

/// What the production does with one matched compartment or a new one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompProduction {
    /// Keep matched compartment `index` (0-based into [`Pattern::comps`]):
    /// its matched wrap/content atoms are consumed, the residual survives,
    /// and `add_wrap`/`add_atoms` are added.
    Keep {
        /// Which LHS compartment pattern this rewrites.
        index: usize,
        /// Atoms added to the membrane.
        add_wrap: Multiset,
        /// Atoms added to the content.
        add_atoms: Multiset,
    },
    /// Create a brand-new compartment with the given label, membrane and
    /// content atoms (models compartment creation).
    New {
        /// Label of the created compartment.
        label: Label,
        /// Membrane of the created compartment.
        wrap: Multiset,
        /// Content atoms of the created compartment.
        atoms: Multiset,
    },
    /// Dissolve matched compartment `index`: the compartment disappears and
    /// its residual content (atoms and nested compartments, minus what the
    /// pattern consumed) spills into the site (models membrane rupture).
    Dissolve {
        /// Which LHS compartment pattern this dissolves.
        index: usize,
    },
}

/// Right-hand side of a rule.
///
/// Matched compartments not referenced by any `Keep`/`Dissolve` entry are
/// destroyed together with their content (CWC erasure of an unused
/// variable).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Production {
    /// Atoms produced at the site.
    pub atoms: Multiset,
    /// Compartment rewrites/creations/dissolutions.
    pub comps: Vec<CompProduction>,
}

impl Production {
    /// Production emitting only atoms.
    pub fn atoms(atoms: Multiset) -> Self {
        Production {
            atoms,
            comps: Vec::new(),
        }
    }
}

/// Kinetic law turning a rule's match count into a propensity.
///
/// The CWC simulator line of work allows rules with *rational rate
/// functions* beyond plain mass action (needed e.g. for transcriptional
/// regulation, where gene-state micro-steps are abstracted into Hill
/// kinetics). The species count `c` below is the count of the law's species
/// in the **content atoms of the site** where the rule applies.
///
/// This is the model's (and the wire's) description of a law, and
/// [`propensity_with`](RateLaw::propensity_with) is the *reference
/// definition* of its arithmetic. The engines never evaluate it on a step
/// path: they evaluate the [`CompiledLaw`] that [`compile`](RateLaw::compile)
/// derives once per rule, which reproduces every result bit for bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum RateLaw {
    /// `a = rate · h` — standard Gillespie mass action.
    #[default]
    MassAction,
    /// `a = rate · h · kⁿ / (kⁿ + cⁿ)` — transcription repressed by
    /// `inhibitor` (Hill coefficient `n`, threshold `k` in molecules).
    HillRepression {
        /// Repressing species.
        inhibitor: Species,
        /// Half-repression threshold, in molecules.
        k: f64,
        /// Hill coefficient.
        n: f64,
    },
    /// `a = rate · h · cⁿ / (kⁿ + cⁿ)` — activation by `activator`.
    HillActivation {
        /// Activating species.
        activator: Species,
        /// Half-activation threshold, in molecules.
        k: f64,
        /// Hill coefficient.
        n: f64,
    },
    /// `a = rate · c / (km + c)` — Michaelis–Menten saturated consumption
    /// of `substrate`. Replaces the mass-action factor entirely (the LHS
    /// still consumes the substrate molecule).
    Saturating {
        /// Saturating substrate.
        substrate: Species,
        /// Michaelis constant, in molecules.
        km: f64,
    },
}

impl RateLaw {
    /// Computes the propensity from the rate constant, the match count `h`
    /// and the site's content-atom counts.
    pub fn propensity(&self, rate: f64, h: u64, site_atoms: &Multiset) -> f64 {
        self.propensity_with(rate, h, |s| site_atoms.count(s))
    }

    /// [`propensity`](RateLaw::propensity) over any count lookup — the
    /// reference definition of the law arithmetic, which [`CompiledLaw`]
    /// reproduces bit for bit (pinned by this module's tests).
    pub fn propensity_with(&self, rate: f64, h: u64, count: impl Fn(Species) -> u64) -> f64 {
        match self {
            RateLaw::MassAction => rate * h as f64,
            RateLaw::HillRepression { inhibitor, k, n } => {
                let c = count(*inhibitor) as f64;
                let kn = k.powf(*n);
                rate * h as f64 * kn / (kn + c.powf(*n))
            }
            RateLaw::HillActivation { activator, k, n } => {
                let c = count(*activator) as f64;
                let kn = k.powf(*n);
                let cn = c.powf(*n);
                rate * h as f64 * cn / (kn + cn)
            }
            RateLaw::Saturating { substrate, km } => {
                let c = count(*substrate) as f64;
                if c == 0.0 {
                    0.0
                } else {
                    rate * c / (km + c)
                }
            }
        }
    }

    /// True for plain mass action.
    pub fn is_mass_action(&self) -> bool {
        matches!(self, RateLaw::MassAction)
    }

    /// The step-path form of this law (see [`CompiledLaw`]).
    pub fn compile(&self) -> CompiledLaw {
        match *self {
            RateLaw::MassAction => CompiledLaw::MassAction,
            RateLaw::HillRepression { inhibitor, k, n } => CompiledLaw::HillRepression {
                inhibitor,
                kn: k.powf(n),
                pow: HillPower::new(n),
            },
            RateLaw::HillActivation { activator, k, n } => CompiledLaw::HillActivation {
                activator,
                kn: k.powf(n),
                pow: HillPower::new(n),
            },
            RateLaw::Saturating { substrate, km } => CompiledLaw::Saturating { substrate, km },
        }
    }

    fn validate(&self) -> bool {
        match self {
            RateLaw::MassAction => true,
            RateLaw::HillRepression { k, n, .. } | RateLaw::HillActivation { k, n, .. } => {
                k.is_finite() && *k > 0.0 && n.is_finite() && *n > 0.0
            }
            RateLaw::Saturating { km, .. } => km.is_finite() && *km > 0.0,
        }
    }
}

/// A [`RateLaw`] compiled for the step path: what the engines evaluate,
/// once per propensity refresh, in place of the reference
/// [`RateLaw::propensity_with`].
///
/// Compilation moves everything that does not depend on the counts out of
/// the refresh: a Hill law stores its threshold term `kⁿ` (computed by the
/// same `k.powf(n)` the reference evaluates per call, so the same bits) and
/// a [`HillPower`] that takes `cⁿ` without libm whenever that is exact.
/// The arithmetic after that is the reference's, operation for operation —
/// `rate · h · kⁿ / (kⁿ + cⁿ)` associates left to right in both — so every
/// propensity keeps its bits. The compiled form is derived, never stored in
/// a model or shipped: the engines compile it from [`Rule::law`] when they
/// build their tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CompiledLaw {
    /// `a = rate · h`.
    MassAction,
    /// `a = rate · h · kⁿ / (kⁿ + cⁿ)`.
    HillRepression {
        /// Repressing species.
        inhibitor: Species,
        /// `kⁿ`, precomputed.
        kn: f64,
        /// How `cⁿ` is taken.
        pow: HillPower,
    },
    /// `a = rate · h · cⁿ / (kⁿ + cⁿ)`.
    HillActivation {
        /// Activating species.
        activator: Species,
        /// `kⁿ`, precomputed.
        kn: f64,
        /// How `cⁿ` is taken.
        pow: HillPower,
    },
    /// `a = rate · c / (km + c)`, zero at `c = 0`.
    Saturating {
        /// Saturating substrate.
        substrate: Species,
        /// Michaelis constant, in molecules.
        km: f64,
    },
}

impl CompiledLaw {
    /// The propensity from the rate constant, the match count `h` and a
    /// count lookup: bit-for-bit [`RateLaw::propensity_with`] of the law
    /// this was compiled from.
    #[inline]
    pub fn propensity_with(&self, rate: f64, h: u64, count: impl Fn(Species) -> u64) -> f64 {
        match *self {
            CompiledLaw::MassAction => rate * h as f64,
            CompiledLaw::HillRepression { inhibitor, kn, pow } => {
                rate * h as f64 * kn / (kn + pow.of(count(inhibitor)))
            }
            CompiledLaw::HillActivation { activator, kn, pow } => {
                let cn = pow.of(count(activator));
                rate * h as f64 * cn / (kn + cn)
            }
            CompiledLaw::Saturating { substrate, km } => {
                let c = count(substrate) as f64;
                if c == 0.0 {
                    0.0
                } else {
                    rate * c / (km + c)
                }
            }
        }
    }
}

/// `cⁿ` for one Hill coefficient `n`, as the reference computes it —
/// `(c as f64).powf(n)` — but without the libm call where the answer is
/// known exactly.
///
/// **Exactness argument.** For an integral `n ∈ {1, 2, 3, 4}` and a count
/// with `cⁿ < 2⁵³`, the integer power `cⁿ` is computed without overflow and
/// converts to `f64` exactly (every integer below 2⁵³ is representable).
/// `c as f64` is exact too, so the reference's `powf` is asked for a power
/// whose true value is a representable double, and a `pow` with error below
/// one ulp — glibc's is documented within 0.52 ulp — can only return that
/// double. The two therefore agree bit for bit; `rule.rs`'s exhaustive test
/// pins it against this platform's libm. Every other exponent, and every
/// count at or past the guard, takes `powf` exactly as the reference does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HillPower {
    /// The Hill coefficient.
    n: f64,
    /// `n` as an integer when the exact path applies to it (`1..=4`).
    exact_n: u32,
    /// The exact path covers counts `c < exact_below`, where `cⁿ < 2⁵³`;
    /// zero when `n` has no exact path.
    exact_below: u64,
}

/// For `n = 1..=4`, the smallest count `c` with `cⁿ ≥ 2⁵³` (pinned by a
/// test): the first count the exact path must hand to `powf`.
const EXACT_POWER_BELOW: [u64; 4] = [1 << 53, 94_906_266, 208_064, 9_742];

impl HillPower {
    /// The plan for coefficient `n`.
    fn new(n: f64) -> Self {
        let exact_n = if n.fract() == 0.0 && (1.0..=4.0).contains(&n) {
            n as u32
        } else {
            0
        };
        HillPower {
            n,
            exact_n,
            exact_below: match exact_n {
                0 => 0,
                n => EXACT_POWER_BELOW[n as usize - 1],
            },
        }
    }

    /// Counts below this take the exact integer path (`cⁿ < 2⁵³`); zero
    /// when `n` has none.
    pub fn exact_below(&self) -> u64 {
        self.exact_below
    }

    /// `cⁿ`, bit-for-bit `(c as f64).powf(n)`.
    #[inline]
    fn of(&self, c: u64) -> f64 {
        if c < self.exact_below {
            c.pow(self.exact_n) as f64
        } else {
            (c as f64).powf(self.n)
        }
    }
}

/// A stochastic rewrite rule with rate constant `rate` and kinetic `law`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Human-readable rule name (for traces and reports).
    pub name: String,
    /// Site label at which the rule applies ([`Label::TOP`] for top level).
    pub site: Label,
    /// Left-hand side.
    pub lhs: Pattern,
    /// Right-hand side.
    pub rhs: Production,
    /// Rate constant, interpreted by `law`.
    pub rate: f64,
    /// Kinetic law (default mass action).
    pub law: RateLaw,
}

/// Error produced by [`Rule::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleError {
    /// The rate constant is negative, NaN or infinite.
    InvalidRate,
    /// The kinetic law has non-positive or non-finite parameters.
    InvalidLaw,
    /// A production references an LHS compartment index that does not exist.
    BadCompIndex {
        /// The offending index.
        index: usize,
        /// Number of compartment patterns on the LHS.
        available: usize,
    },
    /// Two productions reference the same LHS compartment.
    DuplicateCompIndex {
        /// The index referenced twice.
        index: usize,
    },
}

impl std::fmt::Display for RuleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuleError::InvalidRate => write!(f, "rule rate must be finite and non-negative"),
            RuleError::InvalidLaw => {
                write!(f, "rate law parameters must be finite and positive")
            }
            RuleError::BadCompIndex { index, available } => write!(
                f,
                "production references compartment {index} but the pattern has {available}"
            ),
            RuleError::DuplicateCompIndex { index } => {
                write!(f, "production references compartment {index} twice")
            }
        }
    }
}

impl std::error::Error for RuleError {}

impl Rule {
    /// Checks structural validity of the rule.
    ///
    /// # Errors
    ///
    /// See [`RuleError`] variants.
    pub fn validate(&self) -> Result<(), RuleError> {
        if !self.rate.is_finite() || self.rate < 0.0 {
            return Err(RuleError::InvalidRate);
        }
        if !self.law.validate() {
            return Err(RuleError::InvalidLaw);
        }
        let available = self.lhs.comps.len();
        let mut seen = vec![false; available];
        for cp in &self.rhs.comps {
            let index = match cp {
                CompProduction::Keep { index, .. } | CompProduction::Dissolve { index } => {
                    Some(*index)
                }
                CompProduction::New { .. } => None,
            };
            if let Some(index) = index {
                if index >= available {
                    return Err(RuleError::BadCompIndex { index, available });
                }
                if seen[index] {
                    return Err(RuleError::DuplicateCompIndex { index });
                }
                seen[index] = true;
            }
        }
        Ok(())
    }

    /// True when the rule touches no compartments (pure multiset rewrite);
    /// such rules take the fast matching path.
    pub fn is_flat(&self) -> bool {
        self.lhs.comps.is_empty() && self.rhs.comps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::species::Species;

    fn sp(i: u32) -> Species {
        Species::from_raw(i)
    }

    fn flat_rule(rate: f64) -> Rule {
        Rule {
            name: "r".into(),
            site: Label::TOP,
            lhs: Pattern::atoms(Multiset::from([(sp(0), 1)])),
            rhs: Production::atoms(Multiset::from([(sp(1), 1)])),
            rate,
            law: RateLaw::MassAction,
        }
    }

    #[test]
    fn valid_flat_rule_passes() {
        let r = flat_rule(0.5);
        r.validate().unwrap();
        assert!(r.is_flat());
    }

    #[test]
    fn invalid_rates_are_rejected() {
        assert_eq!(flat_rule(-1.0).validate(), Err(RuleError::InvalidRate));
        assert_eq!(flat_rule(f64::NAN).validate(), Err(RuleError::InvalidRate));
        assert_eq!(
            flat_rule(f64::INFINITY).validate(),
            Err(RuleError::InvalidRate)
        );
        flat_rule(0.0).validate().unwrap(); // zero rate is allowed (disabled rule)
    }

    #[test]
    fn bad_comp_index_is_rejected() {
        let mut r = flat_rule(1.0);
        r.rhs.comps.push(CompProduction::Keep {
            index: 0,
            add_wrap: Multiset::new(),
            add_atoms: Multiset::new(),
        });
        assert_eq!(
            r.validate(),
            Err(RuleError::BadCompIndex {
                index: 0,
                available: 0
            })
        );
        assert!(!r.is_flat());
    }

    #[test]
    fn duplicate_comp_index_is_rejected() {
        let mut r = flat_rule(1.0);
        r.lhs.comps.push(CompPattern {
            label: Label::from_raw(0),
            wrap: Multiset::new(),
            atoms: Multiset::new(),
        });
        r.rhs.comps.push(CompProduction::Keep {
            index: 0,
            add_wrap: Multiset::new(),
            add_atoms: Multiset::new(),
        });
        r.rhs.comps.push(CompProduction::Dissolve { index: 0 });
        assert_eq!(
            r.validate(),
            Err(RuleError::DuplicateCompIndex { index: 0 })
        );
    }

    #[test]
    fn exact_power_guards_are_the_first_counts_past_two_to_the_53() {
        for (i, &below) in EXACT_POWER_BELOW.iter().enumerate() {
            let n = i as u32 + 1;
            assert!((below - 1).pow(n) < 1 << 53, "n = {n}");
            assert!(
                below.checked_pow(n).map_or(true, |p| p >= 1 << 53),
                "n = {n}"
            );
        }
    }

    #[test]
    fn integer_powers_equal_libm_pow_exhaustively() {
        // Every count below 2¹³ for every exact exponent, and for n = 3, 4
        // the whole guarded range up to and past the guard: the integer
        // power is the bits libm's `pow` returns.
        for n in 1..=4u32 {
            let power = HillPower::new(f64::from(n));
            assert_eq!(power.exact_below(), EXACT_POWER_BELOW[n as usize - 1]);
            let end = (1u64 << 13).max(EXACT_POWER_BELOW[n as usize - 1].min(1 << 18) + 2);
            for c in 0..end {
                let want = (c as f64).powf(f64::from(n));
                if c < EXACT_POWER_BELOW[n as usize - 1] {
                    assert_eq!((c.pow(n) as f64).to_bits(), want.to_bits(), "{c}^{n}");
                }
                assert_eq!(power.of(c).to_bits(), want.to_bits(), "{c}^{n}");
            }
        }
    }

    #[test]
    fn only_small_integral_exponents_take_the_exact_path() {
        for n in [1.0, 2.0, 3.0, 4.0] {
            assert!(HillPower::new(n).exact_below() > 0, "{n}");
        }
        for n in [0.5, 1.5, 2.000_000_1, 5.0, 8.0, 0.0, f64::NAN] {
            assert_eq!(HillPower::new(n).exact_below(), 0, "{n}");
        }
    }

    /// Counts where the exact path matters: zero, both sides of every
    /// guard, and far past it.
    fn edge_counts() -> Vec<u64> {
        let mut out = vec![0, 1, 2, 3, 99, 100, 101, u64::from(u32::MAX), u64::MAX];
        for below in EXACT_POWER_BELOW {
            out.extend([below - 2, below - 1, below, below + 1, below * 7]);
        }
        out
    }

    fn hill_exponents() -> [f64; 8] {
        [1.0, 2.0, 3.0, 4.0, 0.5, 2.5, 4.000_000_1, 7.0]
    }

    proptest::proptest! {
        #[test]
        fn compiled_laws_reproduce_the_reference_bit_for_bit(
            law_idx in 0usize..4,
            n_idx in 0usize..8,
            k in 0.01f64..5_000.0,
            rate in 0.001f64..1_000.0,
            h_idx in 0usize..4,
            h_big in 1u64..u64::MAX,
            c_idx in 0usize..40,
            c_random in 0u64..20_000,
        ) {
            let n = hill_exponents()[n_idx];
            let s = sp(3);
            // Integral thresholds too (Neurospora's is 100 molecules).
            let k = if h_big % 2 == 0 { k.round().max(1.0) } else { k };
            let law = match law_idx {
                0 => RateLaw::MassAction,
                1 => RateLaw::HillRepression { inhibitor: s, k, n },
                2 => RateLaw::HillActivation { activator: s, k, n },
                _ => RateLaw::Saturating { substrate: s, km: k },
            };
            let compiled = law.compile();
            let h = [0, 1, 2, h_big][h_idx];
            let edges = edge_counts();
            let c = edges.get(c_idx).copied().unwrap_or(c_random);
            let count = |q: Species| if q == s { c } else { 0 };
            let want = law.propensity_with(rate, h, count);
            let got = compiled.propensity_with(rate, h, count);
            proptest::prop_assert!(
                got.to_bits() == want.to_bits(),
                "{law:?} rate {rate} h {h} c {c}: compiled {got} vs reference {want}"
            );
        }
    }

    #[test]
    fn new_compartments_do_not_consume_indices() {
        let mut r = flat_rule(1.0);
        r.rhs.comps.push(CompProduction::New {
            label: Label::from_raw(0),
            wrap: Multiset::new(),
            atoms: Multiset::from([(sp(2), 1)]),
        });
        r.validate().unwrap();
    }
}
