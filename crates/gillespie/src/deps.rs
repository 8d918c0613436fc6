//! One-time model "compilation": per-rule read/write sets and the reaction
//! dependency graph.
//!
//! The CWC stochastic step is "significantly more complex than a plain
//! Gillespie algorithm" because every propensity is a tree-matching count.
//! Re-running every match after every firing is what makes the naive step
//! loop slow; but one firing perturbs a single site (plus, for transport
//! rules, the compartments it moves atoms across), so only the rules that
//! *read* what the fired rule *wrote* can change propensity. This module
//! derives that information once per model — the optimized-direct-method
//! dependency graph of StochKit lineage, generalised to compartment trees:
//!
//! - per rule, the species it reads at its site (pattern atoms + kinetic
//!   law inputs) and inside matched compartments (wrap / content pattern
//!   atoms);
//! - per rule, the net species it writes: at its own site
//!   ([`RuleDeps::site_delta`], also the stoichiometry vector tau-leaping
//!   uses) and inside each compartment it keeps ([`KeptChild`]);
//! - whether the rule is *structural* — it creates, destroys or dissolves
//!   compartments, changing the site tree itself. Structural firings
//!   invalidate every cached match (the reaction table does a full
//!   rebuild); non-structural firings re-match only the affected lists
//!   below.
//!
//! The affected lists answer "rule `r` just fired at site `S`; which
//! `(site, rule)` propensities may have changed?":
//!
//! - [`same_site_affected`](ModelDeps::same_site_affected): rules at `S`
//!   whose reads intersect `r`'s writes (at the site or inside kept
//!   compartments);
//! - [`child_affected`](ModelDeps::child_affected): rules *inside* each
//!   compartment `r` keeps, when `r` moves atoms across that membrane;
//! - [`parent_affected`](ModelDeps::parent_affected): rules at the parent
//!   of `S` whose compartment patterns read `S`'s content changes from the
//!   outside.
//!
//! Compilation is `O(rules² · pattern size)` — paid once per model, shared
//! by every simulation instance via `Arc` (see
//! [`EngineKind::build_with_deps`](crate::engine::EngineKind::build_with_deps)).

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use cwc::model::Model;
use cwc::multiset::Multiset;
use cwc::rule::{CompProduction, RateLaw, Rule};
use cwc::species::{Label, Species};

use crate::flat::FlatModel;

/// Net effect of a rule on one compartment it keeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeptChild {
    /// Index of the LHS compartment pattern this rewrites.
    pub pattern: usize,
    /// Label of the kept compartment.
    pub label: Label,
    /// Net membrane change `(species, delta)`, ascending species order.
    pub wrap_delta: Vec<(Species, i64)>,
    /// Net content-atom change `(species, delta)`, ascending species order.
    pub content_delta: Vec<(Species, i64)>,
}

/// Compiled read/write summary of one rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleDeps {
    /// Site label the rule applies at.
    pub site: Label,
    /// True when the rule changes the compartment tree itself (creates,
    /// destroys or dissolves a compartment): its write set cannot be known
    /// statically and a firing forces a full table rebuild.
    pub structural: bool,
    /// Species read from the site's own content atoms: pattern atoms plus
    /// kinetic-law inputs. Ascending species order.
    pub site_reads: Vec<Species>,
    /// Species read from matched compartments' membranes.
    pub child_wrap_reads: Vec<Species>,
    /// Species read from matched compartments' content atoms.
    pub child_content_reads: Vec<Species>,
    /// Net species change at the site `(species, delta)`, ascending
    /// species order — exactly the stoichiometry vector of the reaction
    /// for flat rules. Meaningful only when `!structural`.
    pub site_delta: Vec<(Species, i64)>,
    /// Net changes inside each kept compartment (empty for flat rules).
    pub kept: Vec<KeptChild>,
}

impl RuleDeps {
    fn compile(rule: &Rule) -> Self {
        let mut site_reads: Vec<Species> = rule.lhs.atoms.iter().map(|(s, _)| s).collect();
        match rule.law {
            RateLaw::MassAction => {}
            RateLaw::HillRepression { inhibitor, .. } => site_reads.push(inhibitor),
            RateLaw::HillActivation { activator, .. } => site_reads.push(activator),
            RateLaw::Saturating { substrate, .. } => site_reads.push(substrate),
        }
        site_reads.sort_unstable();
        site_reads.dedup();

        let mut child_wrap_reads = Vec::new();
        let mut child_content_reads = Vec::new();
        for cp in &rule.lhs.comps {
            child_wrap_reads.extend(cp.wrap.iter().map(|(s, _)| s));
            child_content_reads.extend(cp.atoms.iter().map(|(s, _)| s));
        }
        child_wrap_reads.sort_unstable();
        child_wrap_reads.dedup();
        child_content_reads.sort_unstable();
        child_content_reads.dedup();

        let mut kept = Vec::new();
        let mut kept_count = 0usize;
        let mut has_new_or_dissolve = false;
        for cp in &rule.rhs.comps {
            match cp {
                CompProduction::Keep {
                    index,
                    add_wrap,
                    add_atoms,
                } => {
                    kept_count += 1;
                    let pat = &rule.lhs.comps[*index];
                    kept.push(KeptChild {
                        pattern: *index,
                        label: pat.label,
                        wrap_delta: multiset_delta(add_wrap, &pat.wrap),
                        content_delta: multiset_delta(add_atoms, &pat.atoms),
                    });
                }
                CompProduction::New { .. } | CompProduction::Dissolve { .. } => {
                    has_new_or_dissolve = true;
                }
            }
        }
        kept.sort_by_key(|k| k.pattern);
        // Any matched compartment not kept is destroyed — also structural.
        let structural = has_new_or_dissolve || kept_count != rule.lhs.comps.len();

        RuleDeps {
            site: rule.site,
            structural,
            site_reads,
            child_wrap_reads,
            child_content_reads,
            site_delta: multiset_delta(&rule.rhs.atoms, &rule.lhs.atoms),
            kept,
        }
    }
}

/// `plus − minus` as a sparse signed delta, ascending species order,
/// zero entries dropped.
fn multiset_delta(plus: &Multiset, minus: &Multiset) -> Vec<(Species, i64)> {
    let mut d: BTreeMap<Species, i64> = BTreeMap::new();
    for (s, n) in plus.iter() {
        *d.entry(s).or_insert(0) += n as i64;
    }
    for (s, n) in minus.iter() {
        *d.entry(s).or_insert(0) -= n as i64;
    }
    d.into_iter().filter(|&(_, v)| v != 0).collect()
}

/// True when the sorted species list intersects the delta's species.
fn reads_hit(reads: &[Species], delta: &[(Species, i64)]) -> bool {
    // Both sides are sorted; merge-walk.
    let mut i = 0;
    let mut j = 0;
    while i < reads.len() && j < delta.len() {
        match reads[i].cmp(&delta[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// State derived lazily from a [`ModelDeps`] and the first flat model an
/// engine was built for with it: the compiled flat form every
/// count-stepping engine shares. It is a cache, not content — two
/// `ModelDeps` compare equal whatever their caches hold, and it never
/// travels on the wire (a worker derives it once from the deps it
/// received).
#[derive(Debug, Clone, Default)]
struct Derived {
    flat: OnceLock<Arc<FlatModel>>,
}

impl PartialEq for Derived {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// Compiled model: per-rule summaries plus the reaction dependency graph.
///
/// Compile once per model ([`ModelDeps::compile`]) and share across
/// instances; construction is the only non-trivial cost.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelDeps {
    rules: Vec<RuleDeps>,
    /// `same_site[r]`: rules (with `r`'s site label) to re-match at the
    /// fired site.
    same_site: Vec<Vec<u32>>,
    /// `child_rules[r][k]`: rules (at `rules[r].kept[k]`'s label) to
    /// re-match inside that kept compartment.
    child_rules: Vec<Vec<Vec<u32>>>,
    /// `parent_rules[r]`: candidate rules to re-match at the fired site's
    /// parent (filter by the parent's actual label at run time).
    parent_rules: Vec<Vec<u32>>,
    /// Lazily derived state (see [`Derived`]).
    derived: Derived,
}

std::thread_local! {
    /// Compilations performed by *this thread* — see
    /// [`ModelDeps::thread_compile_count`].
    static COMPILE_COUNT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl ModelDeps {
    /// Compilations this thread has performed via [`ModelDeps::compile`].
    ///
    /// Diagnostic instrumentation: the distributed farm ships compiled
    /// deps over the wire so workers never recompile a model, and the
    /// tests pinning that contract compare this counter before and after
    /// serving a shard. Thread-local on purpose — `compile` runs on the
    /// caller's thread, so parallel test threads cannot perturb each
    /// other's deltas.
    pub fn thread_compile_count() -> u64 {
        COMPILE_COUNT.with(std::cell::Cell::get)
    }

    /// Compiles `model`'s rules into read/write sets and affected-rule
    /// lists.
    pub fn compile(model: &Model) -> Self {
        COMPILE_COUNT.with(|c| c.set(c.get() + 1));
        let rules: Vec<RuleDeps> = model.rules.iter().map(RuleDeps::compile).collect();
        let n = rules.len();
        let mut same_site = vec![Vec::new(); n];
        let mut child_rules = vec![Vec::new(); n];
        let mut parent_rules = vec![Vec::new(); n];

        for (r, rd) in rules.iter().enumerate() {
            if rd.structural {
                // Structural firings rebuild the whole table; no lists.
                continue;
            }
            for (q, qd) in rules.iter().enumerate() {
                // Rules with zero rate never enter the table.
                if model.rules[q].rate == 0.0 {
                    continue;
                }
                // (a) q at the fired site itself.
                if qd.site == rd.site && same_site_hit(&model.rules[q], qd, rd) {
                    same_site[r].push(q as u32);
                }
                // (c) q at the fired site's parent, reading the site's
                // content from the outside through a compartment pattern.
                if !rd.site_delta.is_empty()
                    && model.rules[q].lhs.comps.iter().any(|p| {
                        p.label == rd.site
                            && rd.site_delta.iter().any(|&(s, _)| p.atoms.count(s) > 0)
                    })
                {
                    parent_rules[r].push(q as u32);
                }
            }
            // (b) q inside each compartment r keeps and writes into.
            for k in &rd.kept {
                let mut qs = Vec::new();
                if !k.content_delta.is_empty() {
                    for (q, qd) in rules.iter().enumerate() {
                        if model.rules[q].rate == 0.0 {
                            continue;
                        }
                        if qd.site == k.label && reads_hit(&qd.site_reads, &k.content_delta) {
                            qs.push(q as u32);
                        }
                    }
                }
                child_rules[r].push(qs);
            }
        }

        ModelDeps {
            rules,
            same_site,
            child_rules,
            parent_rules,
            derived: Derived::default(),
        }
    }

    /// Reassembles compiled deps from their parts — the wire decoder's
    /// entry point, so shipped deps are *received*, never recompiled.
    ///
    /// Only internal consistency is checked here (list lengths line up,
    /// every affected-rule index is in range); semantic agreement with a
    /// model is [`ModelDeps::validate_for`]'s job.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural inconsistency —
    /// callers receiving deps from an untrusted stream must treat it as
    /// a protocol error, not compile around it.
    pub fn from_parts(
        rules: Vec<RuleDeps>,
        same_site: Vec<Vec<u32>>,
        child_rules: Vec<Vec<Vec<u32>>>,
        parent_rules: Vec<Vec<u32>>,
    ) -> Result<Self, String> {
        let n = rules.len();
        if same_site.len() != n || child_rules.len() != n || parent_rules.len() != n {
            return Err(format!(
                "affected-list lengths ({}/{}/{}) do not match the {n} rules",
                same_site.len(),
                child_rules.len(),
                parent_rules.len()
            ));
        }
        let check_indices = |list: &[u32], what: &str| -> Result<(), String> {
            match list.iter().find(|&&q| q as usize >= n) {
                Some(q) => Err(format!("{what} index {q} out of range for {n} rules")),
                None => Ok(()),
            }
        };
        for (r, rd) in rules.iter().enumerate() {
            check_indices(&same_site[r], "same-site affected-rule")?;
            check_indices(&parent_rules[r], "parent affected-rule")?;
            // The compiler emits one child list per kept compartment for
            // non-structural rules and an empty row for structural ones
            // (their firings rebuild the whole table).
            let expected = if rd.structural { 0 } else { rd.kept.len() };
            if child_rules[r].len() != expected {
                return Err(format!(
                    "rule {r} expects {expected} child lists but carries {}",
                    child_rules[r].len()
                ));
            }
            for qs in &child_rules[r] {
                check_indices(qs, "child affected-rule")?;
            }
        }
        Ok(ModelDeps {
            rules,
            same_site,
            child_rules,
            parent_rules,
            derived: Derived::default(),
        })
    }

    /// Checks that these deps could have been compiled *from `model`*:
    /// one summary per rule, every kept-compartment index inside the
    /// rule's LHS pattern list, and every affected rule one that owns a
    /// propensity slot where the list sends it — a non-zero rate and, for
    /// the same-site and kept-compartment lists, the label of that site
    /// (the parent's label is only known at run time, where it is
    /// checked). The engines index slots by those lists without looking
    /// again. A worker receiving deps over the wire
    /// runs this before trusting them — a mismatch means the coordinator
    /// shipped deps for a different model (or the stream was corrupted
    /// in a structurally-consistent way) and simulating with them would
    /// silently produce wrong trajectories.
    ///
    /// # Errors
    ///
    /// Returns a description of the first disagreement with `model`.
    pub fn validate_for(&self, model: &Model) -> Result<(), String> {
        if self.rules.len() != model.rules.len() {
            return Err(format!(
                "deps cover {} rules but the model has {}",
                self.rules.len(),
                model.rules.len()
            ));
        }
        for (r, rd) in self.rules.iter().enumerate() {
            let rule = &model.rules[r];
            if rd.site != rule.site {
                return Err(format!("rule {r}: deps site differs from the model's"));
            }
            for k in &rd.kept {
                if k.pattern >= rule.lhs.comps.len() {
                    return Err(format!(
                        "rule {r}: kept-compartment pattern index {} out of range for {} \
                         LHS compartment patterns",
                        k.pattern,
                        rule.lhs.comps.len()
                    ));
                }
            }
            // `from_parts` bounded every index by the rule count.
            let slotless = |list: &[u32], site: Option<Label>| {
                list.iter().copied().find(|&q| {
                    let q = &model.rules[q as usize];
                    q.rate == 0.0 || site.is_some_and(|label| q.site != label)
                })
            };
            let lists = [
                ("same-site", &self.same_site[r][..], Some(rule.site)),
                ("parent", &self.parent_rules[r][..], None),
            ];
            let children = rd.kept.iter().zip(&self.child_rules[r]).map(|(k, qs)| {
                let label = rule.lhs.comps[k.pattern].label;
                ("child", &qs[..], Some(label))
            });
            for (what, list, site) in lists.into_iter().chain(children) {
                if let Some(q) = slotless(list, site) {
                    return Err(format!(
                        "rule {r}: {what} affected rule {q} has no propensity slot there \
                         (zero rate, or another site label)"
                    ));
                }
            }
        }
        Ok(())
    }

    /// The flat form of `model`, or `None` when any rule uses compartments
    /// or applies below the top level (decided from `model` on every call,
    /// never from the cache). Compiled on first use and kept: every engine
    /// of a run shares the one `Arc`, however many instances it builds.
    ///
    /// The deps summarise the rules only, so one `ModelDeps` may serve
    /// models that differ in what it never looked at — initial term, rate
    /// values and law constants, observables — and the compiled form holds
    /// all of those. The cached form is therefore handed out only to a
    /// model it [was compiled from](FlatModel::compiled_from); any other
    /// gets a form of its own, compiled for the call and not kept.
    pub(crate) fn flat(&self, model: &Model) -> Option<Arc<FlatModel>> {
        if !FlatModel::accepts(model) {
            return None;
        }
        let cached = self
            .derived
            .flat
            .get_or_init(|| Arc::new(FlatModel::compile(model, self)));
        Some(if cached.compiled_from(model) {
            Arc::clone(cached)
        } else {
            Arc::new(FlatModel::compile(model, self))
        })
    }

    /// Number of compiled rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True for a rule-less model.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The compiled summary of rule `r`.
    pub fn rule(&self, r: usize) -> &RuleDeps {
        &self.rules[r]
    }

    /// True when firing rule `r` changes the compartment tree (forces a
    /// full table rebuild).
    pub fn is_structural(&self, r: usize) -> bool {
        self.rules[r].structural
    }

    /// Rules to re-match at the site where `r` fired.
    pub fn same_site_affected(&self, r: usize) -> &[u32] {
        &self.same_site[r]
    }

    /// Rules to re-match inside `r`'s `k`-th kept compartment (indexed
    /// like [`RuleDeps::kept`]).
    pub fn child_affected(&self, r: usize, k: usize) -> &[u32] {
        &self.child_rules[r][k]
    }

    /// All of `r`'s per-kept-compartment affected-rule lists. One list
    /// per [`RuleDeps::kept`] entry for a non-structural rule; **empty**
    /// for a structural rule (a structural firing rebuilds the whole
    /// table, so the compiler skips its lists) — serializers must walk
    /// this row, not `kept`, to reproduce the compiled shape exactly.
    pub fn child_lists(&self, r: usize) -> &[Vec<u32>] {
        &self.child_rules[r]
    }

    /// Candidate rules to re-match at the fired site's parent; callers
    /// filter by the parent site's actual label.
    pub fn parent_affected(&self, r: usize) -> &[u32] {
        &self.parent_rules[r]
    }
}

/// Does firing `r` (non-structural) change `q`'s propensity at the same
/// site? `q` reads the site's atoms, or reads compartments `r` wrote into.
fn same_site_hit(q_rule: &Rule, qd: &RuleDeps, rd: &RuleDeps) -> bool {
    if reads_hit(&qd.site_reads, &rd.site_delta) {
        return true;
    }
    // Compartment patterns of q read the wrap/content of children that r
    // (a transport rule) wrote into — label-aware for precision.
    q_rule.lhs.comps.iter().any(|p| {
        rd.kept.iter().any(|k| {
            k.label == p.label
                && (k.wrap_delta.iter().any(|&(s, _)| p.wrap.count(s) > 0)
                    || k.content_delta.iter().any(|&(s, _)| p.atoms.count(s) > 0))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use biomodels_free::*;

    /// Local model builders (the models crate depends on this one).
    mod biomodels_free {
        use cwc::model::Model;

        pub fn birth_death() -> Model {
            let mut m = Model::new("bd");
            let _ = m.species("A");
            let g = m.species("G");
            m.rule("birth")
                .consumes("G", 1)
                .produces("G", 1)
                .produces("A", 1)
                .rate(2.0)
                .build()
                .unwrap();
            m.rule("death").consumes("A", 1).rate(1.0).build().unwrap();
            m.initial.add_atoms(g, 1);
            m
        }

        pub fn transport() -> Model {
            // in:  A (cell: |)  -> (cell: | A')      [keep, content write]
            // out: (cell: | A') -> A                 [keep, content read]
            // decay inside cell: A' -> ∅             [at cell]
            // make: B -> (cell: |)                   [structural: New]
            // burst: (cell: |) -> ∅ spilled          [structural: Dissolve]
            let mut m = Model::new("transport");
            m.rule("in")
                .consumes("A", 1)
                .matches_comp("cell", &[], &[])
                .keeps(0, &[], &[("Ain", 1)])
                .rate(1.0)
                .build()
                .unwrap();
            m.rule("out")
                .matches_comp("cell", &[], &[("Ain", 1)])
                .keeps(0, &[], &[])
                .produces("A", 1)
                .rate(1.0)
                .build()
                .unwrap();
            m.rule("decay")
                .at("cell")
                .consumes("Ain", 1)
                .rate(1.0)
                .build()
                .unwrap();
            m.rule("make")
                .consumes("B", 1)
                .creates_comp("cell", &[], &[])
                .rate(1.0)
                .build()
                .unwrap();
            m.rule("burst")
                .matches_comp("cell", &[], &[])
                .dissolves(0)
                .rate(1.0)
                .build()
                .unwrap();
            m
        }
    }

    #[test]
    fn flat_rule_reads_and_delta() {
        let m = birth_death();
        let deps = ModelDeps::compile(&m);
        assert_eq!(deps.len(), 2);
        let birth = deps.rule(0);
        assert!(!birth.structural);
        let a = m.alphabet.find_species("A").unwrap();
        let g = m.alphabet.find_species("G").unwrap();
        assert_eq!(birth.site_reads, vec![g]);
        assert_eq!(birth.site_delta, vec![(a, 1)]); // G nets out
        let death = deps.rule(1);
        assert_eq!(death.site_reads, vec![a]);
        assert_eq!(death.site_delta, vec![(a, -1)]);
    }

    #[test]
    fn dependency_graph_is_sparse() {
        let m = birth_death();
        let deps = ModelDeps::compile(&m);
        // birth writes A: only death reads A — birth itself reads G only.
        assert_eq!(deps.same_site_affected(0), &[1]);
        // death writes A(-1): death reads A (itself); birth does not.
        assert_eq!(deps.same_site_affected(1), &[1]);
        assert!(deps.parent_affected(0).is_empty());
        assert!(!deps.is_empty());
    }

    #[test]
    fn structural_rules_are_flagged() {
        let m = transport();
        let deps = ModelDeps::compile(&m);
        assert!(!deps.is_structural(0)); // keep-only transport
        assert!(!deps.is_structural(1));
        assert!(!deps.is_structural(2)); // flat at label
        assert!(deps.is_structural(3)); // creates_comp
        assert!(deps.is_structural(4)); // dissolves
                                        // Structural rules carry no affected lists.
        assert!(deps.same_site_affected(3).is_empty());
        assert!(deps.parent_affected(4).is_empty());
    }

    #[test]
    fn transport_rules_link_across_the_membrane() {
        let m = transport();
        let deps = ModelDeps::compile(&m);
        let ain = m.alphabet.find_species("Ain").unwrap();

        // "in" keeps the cell and writes Ain into it.
        let ind = deps.rule(0);
        assert_eq!(ind.kept.len(), 1);
        assert_eq!(ind.kept[0].content_delta, vec![(ain, 1)]);
        // Inside the cell, "decay" reads Ain → re-matched after "in".
        assert_eq!(deps.child_affected(0, 0), &[2]);
        // At the same (top) site, "in" consumed an A it also reads, and
        // "out" reads the cell's Ain through its compartment pattern.
        assert_eq!(deps.same_site_affected(0), &[0, 1]);

        // "decay" (inside the cell) changes the cell content seen from the
        // top: "out" pattern reads Ain → parent-affected.
        assert_eq!(deps.parent_affected(2), &[1]);

        // "out" consumes the cell's Ain and produces top-level A: at top,
        // "in" reads A → affected; "out" reads cell Ain → affected.
        let out_affected = deps.same_site_affected(1);
        assert_eq!(out_affected, &[0, 1]);
        // And inside the cell, "decay" loses a reactant.
        assert_eq!(deps.child_affected(1, 0), &[2]);
    }

    #[test]
    fn law_inputs_count_as_reads() {
        let mut m = Model::new("hill");
        let _ = m.species("P");
        m.rule("expr")
            .produces("P", 1)
            .rate(1.0)
            .repressed_by("R", 10.0, 2.0)
            .build()
            .unwrap();
        m.rule("repress")
            .produces("R", 1)
            .rate(1.0)
            .build()
            .unwrap();
        let deps = ModelDeps::compile(&m);
        let r = m.alphabet.find_species("R").unwrap();
        assert!(deps.rule(0).site_reads.contains(&r));
        // Producing R re-matches the repressed rule.
        assert_eq!(deps.same_site_affected(1), &[0]);
    }

    /// Disassembles deps into owned parts via the public accessors —
    /// exactly what the wire encoder does.
    #[allow(clippy::type_complexity)]
    fn parts_of(
        deps: &ModelDeps,
    ) -> (
        Vec<RuleDeps>,
        Vec<Vec<u32>>,
        Vec<Vec<Vec<u32>>>,
        Vec<Vec<u32>>,
    ) {
        let n = deps.len();
        (
            (0..n).map(|r| deps.rule(r).clone()).collect(),
            (0..n)
                .map(|r| deps.same_site_affected(r).to_vec())
                .collect(),
            (0..n).map(|r| deps.child_lists(r).to_vec()).collect(),
            (0..n).map(|r| deps.parent_affected(r).to_vec()).collect(),
        )
    }

    #[test]
    fn from_parts_reassembles_compiled_deps_exactly() {
        for m in [birth_death(), transport()] {
            let deps = ModelDeps::compile(&m);
            let (rules, same_site, child_rules, parent_rules) = parts_of(&deps);
            let back = ModelDeps::from_parts(rules, same_site, child_rules, parent_rules)
                .expect("compiled parts are consistent");
            assert_eq!(back, deps);
            back.validate_for(&m)
                .expect("reassembled deps fit the model");
        }
    }

    #[test]
    fn from_parts_rejects_structural_inconsistencies() {
        let m = transport();
        let deps = ModelDeps::compile(&m);
        let (rules, same_site, child_rules, parent_rules) = parts_of(&deps);
        // Mismatched list lengths.
        let err = ModelDeps::from_parts(
            rules.clone(),
            Vec::new(),
            child_rules.clone(),
            parent_rules.clone(),
        )
        .unwrap_err();
        assert!(err.contains("lengths"), "{err}");
        // An affected index beyond the rule count.
        let mut bad = same_site.clone();
        bad[0].push(99);
        let err = ModelDeps::from_parts(
            rules.clone(),
            bad,
            child_rules.clone(),
            parent_rules.clone(),
        )
        .unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        // A kept compartment with a missing child list.
        let mut bad = child_rules.clone();
        bad[0].clear();
        let err = ModelDeps::from_parts(rules, same_site, bad, parent_rules).unwrap_err();
        assert!(err.contains("child lists"), "{err}");
    }

    #[test]
    fn validate_for_rejects_deps_from_another_model() {
        let deps = ModelDeps::compile(&birth_death());
        let err = deps.validate_for(&transport()).unwrap_err();
        assert!(err.contains("rules"), "{err}");
    }

    #[test]
    fn validate_for_rejects_affected_rules_without_a_slot() {
        // transport(): 0 in (top), 1 out (top), 2 decay (cell), 3 make, 4 burst.
        let m = transport();
        let (rules, same_site, child_rules, parent_rules) = parts_of(&ModelDeps::compile(&m));
        let rejects = |model: &Model,
                       same: &[Vec<u32>],
                       child: &[Vec<Vec<u32>>],
                       par: &[Vec<u32>]| {
            let deps =
                ModelDeps::from_parts(rules.clone(), same.to_vec(), child.to_vec(), par.to_vec())
                    .expect("structurally consistent");
            deps.validate_for(model).unwrap_err()
        };
        // A same-site list naming a rule of another label ("decay" lives in
        // the cell, "in" fires at the top).
        let mut bad = same_site.clone();
        bad[0].push(2);
        let err = rejects(&m, &bad, &child_rules, &parent_rules);
        assert!(err.contains("rule 0: same-site affected rule 2"), "{err}");
        // A kept-compartment list naming a top-level rule.
        let mut bad = child_rules.clone();
        bad[0][0].push(1);
        let err = rejects(&m, &same_site, &bad, &parent_rules);
        assert!(err.contains("rule 0: child affected rule 1"), "{err}");
        // Any list naming a zero-rate rule: the engines give it no slot.
        let mut dead = m.clone();
        dead.rules[1].rate = 0.0;
        let err = rejects(&dead, &same_site, &child_rules, &parent_rules);
        assert!(err.contains("same-site affected rule 1"), "{err}");
        let mut same = same_site.clone();
        same.iter_mut().for_each(|l| l.retain(|&q| q != 1));
        let err = rejects(&dead, &same, &child_rules, &parent_rules);
        assert!(err.contains("rule 2: parent affected rule 1"), "{err}");
        // What the compiler emits for that model passes.
        ModelDeps::compile(&dead).validate_for(&dead).unwrap();
    }

    #[test]
    fn compile_counter_is_thread_local_and_monotonic() {
        let before = ModelDeps::thread_compile_count();
        let _ = ModelDeps::compile(&birth_death());
        assert_eq!(ModelDeps::thread_compile_count(), before + 1);
        // Another thread's compilations do not perturb this thread's count.
        std::thread::spawn(|| {
            let _ = ModelDeps::compile(&transport());
        })
        .join()
        .unwrap();
        assert_eq!(ModelDeps::thread_compile_count(), before + 1);
    }

    #[test]
    fn zero_rate_rules_stay_out_of_affected_lists() {
        let mut m = Model::new("z");
        let a = m.species("A");
        m.rule("live").consumes("A", 1).rate(1.0).build().unwrap();
        m.rule("dead").consumes("A", 1).rate(0.0).build().unwrap();
        m.initial.add_atoms(a, 5);
        let deps = ModelDeps::compile(&m);
        assert_eq!(deps.same_site_affected(0), &[0]);
    }
}
