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

    /// [`propensity`](RateLaw::propensity) over any count lookup — the one
    /// place the law arithmetic lives, so a dense count vector and a
    /// [`Multiset`] produce the same bits.
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
