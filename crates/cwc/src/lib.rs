//! # cwc — the Calculus of Wrapped Compartments
//!
//! A term-rewriting formalism for the representation of biological systems
//! (Coppo et al., TCS 2012), reproduced here as the modelling substrate of
//! the CWC simulator from *"Exercising high-level parallel programming on
//! streams"* (Aldinucci et al., ICDCS 2014).
//!
//! - [`species`]: interned atomic elements and compartment labels;
//! - [`multiset`]: multisets of atoms with mass-action selection counting;
//! - [`term`]: terms as multisets of atoms **and compartments** — dynamic
//!   trees, the reason CWC simulation "is significantly more complex than a
//!   plain Gillespie algorithm";
//! - [`rule`]: stochastic rewrite rules (local reactions, transport,
//!   compartment creation/dissolution/destruction);
//! - [`matching`]: the tree-matching functions — match counting for
//!   propensities and in-place rule application;
//! - [`model`]: alphabet + initial term + rules + observables, with a
//!   fluent [`model::RuleBuilder`];
//! - [`parser`]: the textual model format — [`parse_model`] reads it,
//!   [`render_model`] writes any model in it.
//!
//! ## Example
//!
//! ```
//! use cwc::model::Model;
//! use cwc::matching::{match_count, apply_at};
//! use cwc::term::Path;
//!
//! let mut m = Model::new("dimerisation");
//! let a = m.species("A");
//! let d = m.species("D");
//! m.rule("dimerise").consumes("A", 2).produces("D", 1).rate(0.01).build()?;
//! m.initial.add_atoms(a, 10);
//!
//! // h factor for 2A with n=10 is C(10,2) = 45.
//! assert_eq!(match_count(&m.initial, &m.rules[0].lhs), 45);
//!
//! let mut term = m.initial.clone();
//! apply_at(&mut term, &m.rules[0], &Path::root(), &[])?;
//! assert_eq!(term.atoms.count(a), 8);
//! assert_eq!(term.atoms.count(d), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod matching;
pub mod model;
pub mod multiset;
pub mod parser;
pub mod rule;
pub mod species;
pub mod term;

pub use matching::{
    apply_at, assignments, choose_assignment, choose_assignment_with, match_count,
    match_count_with, ApplyError, MatchScratch,
};
pub use model::{Model, ModelError, Observable, ObservableSite, RuleBuilder};
pub use multiset::Multiset;
pub use parser::{parse_model, render_model, ParseError, MAX_NESTING};
pub use rule::{CompPattern, CompProduction, Pattern, Production, Rule, RuleError};
pub use species::{Alphabet, Label, Species};
pub use term::{Compartment, Path, SiteId, SiteRegistry, Term};
