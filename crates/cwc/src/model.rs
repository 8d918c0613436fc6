//! CWC models: alphabet + initial term + rules + observables.
//!
//! A [`Model`] is the unit the simulator consumes: everything needed to run
//! trajectories (initial term, rewrite rules) and to report results (named
//! observables sampled at every simulation instant).

use crate::multiset::Multiset;
use crate::parser::{check_names, MAX_NESTING};
use crate::rule::{CompPattern, CompProduction, Pattern, Production, RateLaw, Rule, RuleError};
use crate::species::{Alphabet, Label, Species};
use crate::term::Term;

/// Where an observable counts its species.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObservableSite {
    /// Sum over the whole term, wraps included.
    Everywhere,
    /// Atoms at the top level only.
    TopOnly,
    /// Content atoms of every compartment with this label.
    AtLabel(Label),
}

/// A named species count reported on every trajectory sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observable {
    /// Column name in simulation output.
    pub name: String,
    /// The species being counted.
    pub species: Species,
    /// Where it is counted.
    pub site: ObservableSite,
}

impl Observable {
    /// Evaluates the observable on a term.
    pub fn eval(&self, term: &Term) -> u64 {
        match self.site {
            ObservableSite::Everywhere => term.total_count(self.species),
            ObservableSite::TopOnly => term.atoms.count(self.species),
            ObservableSite::AtLabel(label) => {
                let mut total = 0;
                term.walk_sites(&mut |_, site_label, site_term| {
                    if site_label == label {
                        total += site_term.atoms.count(self.species);
                    }
                });
                total
            }
        }
    }
}

/// A complete CWC model.
#[derive(Debug, Clone, Default)]
pub struct Model {
    /// Model name (used in reports).
    pub name: String,
    /// Interned species and labels.
    pub alphabet: Alphabet,
    /// Rewrite rules.
    pub rules: Vec<Rule>,
    /// Initial term.
    pub initial: Term,
    /// Observables sampled along trajectories.
    pub observables: Vec<Observable>,
}

/// Error raised when assembling a model.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A rule failed validation.
    Rule {
        /// Name of the offending rule.
        rule: String,
        /// The underlying error.
        source: RuleError,
    },
    /// A handle the model's alphabet does not hold (`species #7`,
    /// `label #2`).
    UnknownName(String),
    /// The model has no rules.
    Empty,
    /// A name the text format cannot write (see [`crate::parser`]).
    BadName {
        /// What the name names: `model`, `species`, `label`, `rule` or
        /// `observable`.
        kind: &'static str,
        /// The offending name.
        name: String,
    },
    /// The initial term nests compartments deeper than
    /// [`MAX_NESTING`].
    TooDeep,
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::Rule { rule, source } => write!(f, "rule `{rule}`: {source}"),
            ModelError::UnknownName(n) => write!(f, "unknown species or label `{n}`"),
            ModelError::Empty => write!(f, "model has no rules"),
            ModelError::BadName { kind, name } => write!(
                f,
                "{kind} name {name:?} cannot be written in the model text format"
            ),
            ModelError::TooDeep => write!(
                f,
                "the initial term nests compartments deeper than {MAX_NESTING} levels"
            ),
        }
    }
}

impl std::error::Error for ModelError {}

impl Model {
    /// Creates an empty model with the given name.
    pub fn new(name: &str) -> Self {
        Model {
            name: name.to_owned(),
            ..Model::default()
        }
    }

    /// Interns a species name.
    pub fn species(&mut self, name: &str) -> Species {
        self.alphabet.species(name)
    }

    /// Interns a compartment label name.
    pub fn label(&mut self, name: &str) -> Label {
        self.alphabet.label(name)
    }

    /// Adds a validated rule.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Rule`] when the rule is invalid.
    pub fn push_rule(&mut self, rule: Rule) -> Result<(), ModelError> {
        rule.validate().map_err(|source| ModelError::Rule {
            rule: rule.name.clone(),
            source,
        })?;
        self.rules.push(rule);
        Ok(())
    }

    /// Registers an observable counting `species` everywhere.
    pub fn observe(&mut self, name: &str, species: Species) {
        self.observables.push(Observable {
            name: name.to_owned(),
            species,
            site: ObservableSite::Everywhere,
        });
    }

    /// Registers an observable with an explicit site.
    pub fn observe_at(&mut self, name: &str, species: Species, site: ObservableSite) {
        self.observables.push(Observable {
            name: name.to_owned(),
            species,
            site,
        });
    }

    /// Evaluates every observable on `term`, in registration order.
    pub fn eval_observables(&self, term: &Term) -> Vec<u64> {
        self.observables.iter().map(|o| o.eval(term)).collect()
    }

    /// Names of the observables, in registration order.
    pub fn observable_names(&self) -> Vec<&str> {
        self.observables.iter().map(|o| o.name.as_str()).collect()
    }

    /// Final validation: at least one rule, all rules valid, every name
    /// writable in the text format, every handle in the alphabet, and the
    /// initial term at most [`MAX_NESTING`] deep — so every valid model
    /// survives [`render_model`](crate::parser::render_model) →
    /// [`parse_model`](crate::parser::parse_model) field for field.
    ///
    /// # Errors
    ///
    /// [`ModelError::Empty`] without rules, [`ModelError::Rule`] for the
    /// first invalid rule, [`ModelError::BadName`],
    /// [`ModelError::UnknownName`] or [`ModelError::TooDeep`].
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.rules.is_empty() {
            return Err(ModelError::Empty);
        }
        for rule in &self.rules {
            rule.validate().map_err(|source| ModelError::Rule {
                rule: rule.name.clone(),
                source,
            })?;
        }
        check_names(self)?;
        self.check_handles()
    }

    /// Refuses a handle the alphabet does not hold (a hand-built model can
    /// carry any raw id) and an initial term nested past [`MAX_NESTING`].
    fn check_handles(&self) -> Result<(), ModelError> {
        let (n_species, n_labels) = (self.alphabet.species_count(), self.alphabet.label_count());
        let unknown = |kind: &str, raw: u32| ModelError::UnknownName(format!("{kind} #{raw}"));
        let species = |s: Species| {
            ((s.raw() as usize) < n_species)
                .then_some(())
                .ok_or_else(|| unknown("species", s.raw()))
        };
        let label = |l: Label| {
            (l.is_top() || (l.raw() as usize) < n_labels)
                .then_some(())
                .ok_or_else(|| unknown("label", l.raw()))
        };
        let atoms = |ms: &Multiset| ms.iter().try_for_each(|(s, _)| species(s));
        for rule in &self.rules {
            label(rule.site)?;
            atoms(&rule.lhs.atoms)?;
            atoms(&rule.rhs.atoms)?;
            for c in &rule.lhs.comps {
                label(c.label)?;
                atoms(&c.wrap)?;
                atoms(&c.atoms)?;
            }
            for c in &rule.rhs.comps {
                let (site, wrap, content) = match c {
                    CompProduction::Keep {
                        add_wrap,
                        add_atoms,
                        ..
                    } => (None, add_wrap, add_atoms),
                    CompProduction::New { label, wrap, atoms } => (Some(*label), wrap, atoms),
                    CompProduction::Dissolve { .. } => continue,
                };
                site.map_or(Ok(()), label)?;
                atoms(wrap)?;
                atoms(content)?;
            }
            match rule.law {
                RateLaw::MassAction => {}
                RateLaw::HillRepression { inhibitor: s, .. }
                | RateLaw::HillActivation { activator: s, .. }
                | RateLaw::Saturating { substrate: s, .. } => species(s)?,
            }
        }
        for obs in &self.observables {
            species(obs.species)?;
            if let ObservableSite::AtLabel(l) = obs.site {
                label(l)?;
            }
        }
        let mut stack = vec![(&self.initial, 0)];
        while let Some((term, depth)) = stack.pop() {
            atoms(&term.atoms)?;
            for c in &term.comps {
                if depth == MAX_NESTING {
                    return Err(ModelError::TooDeep);
                }
                label(c.label)?;
                atoms(&c.wrap)?;
                stack.push((&c.content, depth + 1));
            }
        }
        Ok(())
    }

    /// Starts a fluent rule builder; finish with [`RuleBuilder::build`].
    pub fn rule(&mut self, name: &str) -> RuleBuilder<'_> {
        RuleBuilder {
            model: self,
            name: name.to_owned(),
            site: Label::TOP,
            lhs: Pattern::default(),
            rhs: Production::default(),
            rate: 1.0,
            law: RateLaw::MassAction,
        }
    }
}

/// Fluent builder for rules, resolving names through the model's alphabet.
///
/// # Examples
///
/// ```
/// use cwc::model::Model;
///
/// let mut m = Model::new("decay");
/// let a = m.species("A");
/// m.rule("decay").consumes("A", 1).rate(0.1).build().unwrap();
/// m.initial.add_atoms(a, 100);
/// assert_eq!(m.rules.len(), 1);
/// ```
#[derive(Debug)]
pub struct RuleBuilder<'m> {
    model: &'m mut Model,
    name: String,
    site: Label,
    lhs: Pattern,
    rhs: Production,
    rate: f64,
    law: RateLaw,
}

impl RuleBuilder<'_> {
    /// Restricts the rule to sites labelled `label` (default: top level).
    pub fn at(mut self, label: &str) -> Self {
        self.site = self.model.alphabet.label(label);
        self
    }

    /// Adds `n` copies of `species` to the left-hand side.
    pub fn consumes(mut self, species: &str, n: u64) -> Self {
        let s = self.model.alphabet.species(species);
        self.lhs.atoms.insert(s, n);
        self
    }

    /// Adds `n` copies of `species` to the right-hand side.
    pub fn produces(mut self, species: &str, n: u64) -> Self {
        let s = self.model.alphabet.species(species);
        self.rhs.atoms.insert(s, n);
        self
    }

    /// Adds a compartment pattern (label, wrap atoms, content atoms) to the
    /// LHS; returns the pattern's index for use in [`keeps`]/[`dissolves`].
    ///
    /// [`keeps`]: RuleBuilder::keeps
    /// [`dissolves`]: RuleBuilder::dissolves
    pub fn matches_comp(
        mut self,
        label: &str,
        wrap: &[(&str, u64)],
        atoms: &[(&str, u64)],
    ) -> Self {
        let label = self.model.alphabet.label(label);
        let wrap = resolve(&mut self.model.alphabet, wrap);
        let atoms = resolve(&mut self.model.alphabet, atoms);
        self.lhs.comps.push(CompPattern { label, wrap, atoms });
        self
    }

    /// Keeps LHS compartment `index`, adding the given wrap/content atoms.
    pub fn keeps(
        mut self,
        index: usize,
        add_wrap: &[(&str, u64)],
        add_atoms: &[(&str, u64)],
    ) -> Self {
        let add_wrap = resolve(&mut self.model.alphabet, add_wrap);
        let add_atoms = resolve(&mut self.model.alphabet, add_atoms);
        self.rhs.comps.push(CompProduction::Keep {
            index,
            add_wrap,
            add_atoms,
        });
        self
    }

    /// Dissolves LHS compartment `index` (residual spills into the site).
    pub fn dissolves(mut self, index: usize) -> Self {
        self.rhs.comps.push(CompProduction::Dissolve { index });
        self
    }

    /// Creates a new compartment on the RHS.
    pub fn creates_comp(
        mut self,
        label: &str,
        wrap: &[(&str, u64)],
        atoms: &[(&str, u64)],
    ) -> Self {
        let label = self.model.alphabet.label(label);
        let wrap = resolve(&mut self.model.alphabet, wrap);
        let atoms = resolve(&mut self.model.alphabet, atoms);
        self.rhs
            .comps
            .push(CompProduction::New { label, wrap, atoms });
        self
    }

    /// Sets the rate constant (default 1.0).
    pub fn rate(mut self, rate: f64) -> Self {
        self.rate = rate;
        self
    }

    /// Represses the rule by `inhibitor` with Hill kinetics:
    /// `a = rate · h · kⁿ/(kⁿ + cⁿ)`.
    pub fn repressed_by(mut self, inhibitor: &str, k: f64, n: f64) -> Self {
        let inhibitor = self.model.alphabet.species(inhibitor);
        self.law = RateLaw::HillRepression { inhibitor, k, n };
        self
    }

    /// Activates the rule by `activator` with Hill kinetics:
    /// `a = rate · h · cⁿ/(kⁿ + cⁿ)`.
    pub fn activated_by(mut self, activator: &str, k: f64, n: f64) -> Self {
        let activator = self.model.alphabet.species(activator);
        self.law = RateLaw::HillActivation { activator, k, n };
        self
    }

    /// Saturates the rule on `substrate` (Michaelis–Menten):
    /// `a = rate · c/(km + c)`, replacing the mass-action factor.
    pub fn saturating_on(mut self, substrate: &str, km: f64) -> Self {
        let substrate = self.model.alphabet.species(substrate);
        self.law = RateLaw::Saturating { substrate, km };
        self
    }

    /// Validates the rule and adds it to the model.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Rule`] when validation fails.
    pub fn build(self) -> Result<(), ModelError> {
        let rule = Rule {
            name: self.name,
            site: self.site,
            lhs: self.lhs,
            rhs: self.rhs,
            rate: self.rate,
            law: self.law,
        };
        self.model.push_rule(rule)
    }
}

fn resolve(alphabet: &mut Alphabet, pairs: &[(&str, u64)]) -> Multiset {
    pairs
        .iter()
        .map(|(name, n)| (alphabet.species(name), *n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Compartment;

    #[test]
    fn builder_constructs_flat_rule() {
        let mut m = Model::new("t");
        m.rule("conv")
            .consumes("A", 2)
            .produces("B", 1)
            .rate(0.25)
            .build()
            .unwrap();
        assert_eq!(m.rules.len(), 1);
        let r = &m.rules[0];
        assert_eq!(r.rate, 0.25);
        assert!(r.is_flat());
        let a = m.alphabet.find_species("A").unwrap();
        assert_eq!(r.lhs.atoms.count(a), 2);
    }

    #[test]
    fn builder_constructs_compartment_rule() {
        let mut m = Model::new("t");
        m.rule("engulf")
            .at("top")
            .consumes("A", 1)
            .matches_comp("cell", &[("R", 1)], &[])
            .keeps(0, &[], &[("A", 1)])
            .build()
            .unwrap();
        let r = &m.rules[0];
        assert!(r.site.is_top());
        assert_eq!(r.lhs.comps.len(), 1);
        assert_eq!(r.rhs.comps.len(), 1);
    }

    #[test]
    fn builder_rejects_invalid_rule() {
        let mut m = Model::new("t");
        let err = m
            .rule("bad")
            .consumes("A", 1)
            .keeps(3, &[], &[])
            .build()
            .unwrap_err();
        match err {
            ModelError::Rule { rule, .. } => assert_eq!(rule, "bad"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(m.rules.is_empty());
    }

    #[test]
    fn validate_requires_rules() {
        let m = Model::new("empty");
        assert_eq!(m.validate(), Err(ModelError::Empty));
    }

    #[test]
    fn observables_count_at_requested_sites() {
        let mut m = Model::new("obs");
        let a = m.species("A");
        let cell = m.label("cell");
        m.observe("total_A", a);
        m.observe_at("top_A", a, ObservableSite::TopOnly);
        m.observe_at("cell_A", a, ObservableSite::AtLabel(cell));

        let mut term = Term::from_atoms(Multiset::from([(a, 2)]));
        term.add_compartment(Compartment::new(
            cell,
            Multiset::from([(a, 1)]),
            Term::from_atoms(Multiset::from([(a, 5)])),
        ));
        assert_eq!(m.eval_observables(&term), vec![8, 2, 5]);
        assert_eq!(m.observable_names(), vec!["total_A", "top_A", "cell_A"]);
    }

    fn one_rule_model() -> Model {
        let mut m = Model::new("ok");
        let a = m.species("A");
        m.rule("r").consumes("A", 1).rate(1.0).build().unwrap();
        m.observe("count A", a);
        m
    }

    #[test]
    fn names_the_text_format_cannot_write_fail_validation() {
        one_rule_model().validate().unwrap();
        type Spoil = fn(&mut Model);
        let cases: [(&str, Spoil); 12] = [
            ("model", |m| m.name = String::new()),
            ("model", |m| m.name = "a # b".into()),
            ("model", |m| m.name = "a\nb".into()),
            ("species", |m| {
                m.species("");
            }),
            ("species", |m| {
                m.species("9lives");
            }),
            ("species", |m| {
                m.species("A-B");
            }),
            ("label", |m| {
                m.label("a cell");
            }),
            ("rule", |m| m.rules[0].name = "two words".into()),
            ("rule", |m| m.rules[0].name = "a:b".into()),
            ("observable", |m| m.observables[0].name = "a=b".into()),
            ("observable", |m| m.observables[0].name = " A".into()),
            ("observable", |m| m.observables[0].name = "A\n".into()),
        ];
        for (kind, spoil) in cases {
            let mut m = one_rule_model();
            spoil(&mut m);
            match m.validate() {
                Err(ModelError::BadName { kind: k, .. }) => assert_eq!(k, kind),
                other => panic!("{kind}: {other:?}"),
            }
        }
    }

    #[test]
    fn dangling_handles_and_deep_terms_fail_validation() {
        let mut m = one_rule_model();
        m.observables[0].species = Species::from_raw(1);
        assert_eq!(
            m.validate(),
            Err(ModelError::UnknownName("species #1".into()))
        );
        let mut m = one_rule_model();
        m.rules[0].site = Label::from_raw(0);
        assert_eq!(
            m.validate(),
            Err(ModelError::UnknownName("label #0".into()))
        );

        let mut m = one_rule_model();
        let cell = m.label("cell");
        for depth in 0..=MAX_NESTING {
            let inner = std::mem::take(&mut m.initial);
            m.initial
                .add_compartment(Compartment::new(cell, Multiset::new(), inner));
            let expected = if depth < MAX_NESTING {
                Ok(())
            } else {
                Err(ModelError::TooDeep)
            };
            assert_eq!(m.validate(), expected, "depth {}", depth + 1);
        }
    }

    #[test]
    fn display_error_messages() {
        let e = ModelError::UnknownName("Z".into());
        assert_eq!(e.to_string(), "unknown species or label `Z`");
        let e = ModelError::Empty;
        assert_eq!(e.to_string(), "model has no rules");
    }
}
