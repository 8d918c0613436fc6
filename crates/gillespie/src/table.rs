//! The persistent reaction table: every `(site, rule)` propensity of the
//! current term, kept up to date *incrementally* — the state of the exact
//! tier's **tree core**, the one that serves models with compartment
//! rules (see [`crate::ssa`] for the two cores and how one is selected).
//!
//! The naive CWC step enumerates the term's sites, re-runs tree matching
//! for every rule at every site and collects the enabled reactions into a
//! fresh `Vec` — per step. This module replaces that with a table built
//! once ([`ReactionTable::build`]) and then *updated* after each firing
//! ([`ReactionTable::post_fire`]): only the propensities the fired rule
//! could have changed — per the compiled dependency graph of
//! [`crate::deps`] — are re-matched. Firings of *structural* rules
//! (compartment creation/destruction/dissolution) rebuild the table, since
//! they change the site tree itself.
//!
//! ## Layout
//!
//! Structure of arrays, site-major: the slots of site `s` are
//! `site_start[s] .. site_start[s + 1]`, one per non-zero-rate rule of the
//! site's label in rule order, so the slot of `(s, rule)` is
//! `site_start[s] + rank[rule]` — `rank` being the rule's position among
//! the rules of its own label, a static number. The slot keys
//! (`slot_site`, `slot_rule`) and the propensities live in separate
//! columns; the propensity column is a `PropensityRow`, the same type the
//! dense core of flat models steps on.
//!
//! ## The shared row and its bit contract
//!
//! `PropensityRow` is the exact tier's one implementation of the
//! direct-method row arithmetic, preserving the exact floating-point
//! behaviour of the naive enumeration it replaced:
//!
//! - slots are ordered site-walk-order × rule-index-order — the same
//!   order the naive walk produced;
//! - `prefix[i]` holds the naive scan's accumulator at slot `i`: the
//!   enabled propensities folded **in slot order from the `-0.0`
//!   identity**, disabled slots skipped. After an update it is refolded
//!   from the lowest changed slot by `kernels::row_fold_from` (reseeded
//!   from the stored `prefix[from - 1]` bits; scalar and AVX2 variants
//!   bit-identical) — or, on rows shorter than `SHORT_ROW_SLOTS`, by its
//!   scalar reference inline. The fold is never re-associated, blocked or
//!   tree-summed: `a0` must be the in-order sum, bit for bit;
//! - `total` reads the last prefix element — exactly the naive `a0` fold —
//!   in O(1), so the waiting-time divisor is bit-identical;
//! - `select` finds the first slot whose prefix exceeds the target with
//!   `kernels::row_select` (short rows: the same index as an inline
//!   branch-free count), then applies the scan's two backstops: the
//!   first enabled slot at or after the crossing (only moves for a
//!   negative target) and the last enabled slot on floating-point
//!   shortfall — every selection is the slot the scan would have chosen.
//!
//! Sites are addressed by dense [`SiteId`]s from the embedded
//! [`SiteRegistry`] — the hot loop never clones a `Path`. Kinetic laws are
//! compiled once per table build ([`cwc::rule::CompiledLaw`]): a re-match
//! evaluates the compiled law, never the reference `RateLaw`.

use cwc::matching::{match_count_with, MatchScratch};
use cwc::model::Model;
use cwc::rule::CompiledLaw;
use cwc::species::Label;
use cwc::term::{SiteId, SiteRegistry, Term};

use crate::batch::kernels::{self, Kernel, KernelDispatch};
use crate::deps::ModelDeps;

/// Rows shorter than this many slots fold with the inline scalar reference
/// (`kernels::row_fold_scalar_from`) and select with the inline branch-free
/// count (`kernels::row_count_uncrossed`) instead of calling through the
/// resolved kernel set. Bit-identical either way — the kernels' proptests
/// pin both against them — so the crossover only moves speed.
///
/// *Derivation.* Engine-only SSA steps/s on `conversion_cycle(n)` (best of
/// five passes, four alternated pairs, AVX2 box), inline vs kernel on every
/// row: ahead 3–4 of 4 pairs at n = 4…24 (+2 … +7 %), level at n = 32
/// (1.00), behind from n = 48 (−8 %, −15 % at 64, −41 % at 300). The
/// `step_throughput` models sit well inside: `lotka_volterra` 3 slots,
/// `schlogl` 4, `neurospora_flat` 6, `neurospora_compartments` 7; its
/// `wide_flat_cycle` (300) stays on the kernels. (The one short row that
/// read behind in the sweep was `lotka_volterra`'s 3 slots, −11 %, ahead
/// in 1 of 4 pairs; the whole change reads 1.04–1.13× there in three of
/// four alternated full `step_throughput` pairs.) The scalar *binary search*
/// (`kernels::row_search`) is not the short-row select: in an isolated
/// fold+select loop it lost to the kernel call at every length from 4 on
/// (29 vs 20 ns at 4 slots, 36 vs 31 at 6, 50 vs 39 at 16), to
/// mispredicted branches, where the count read 19, 23 and 27 ns.
pub(crate) const SHORT_ROW_SLOTS: usize = 32;

/// One SoA row of propensities with its ordered prefix fold — the
/// direct-method state both exact cores step on (see the module docs for
/// the bit contract). A slot with `props[i] == 0.0` is "not currently
/// enabled"; it stays in the row so updates are in place.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PropensityRow {
    props: Vec<f64>,
    /// `prefix[i]` is the cumulative fold of the enabled propensities over
    /// `props[..= i]` — the accumulator the naive linear scan holds after
    /// slot `i` (identity `-0.0`, disabled slots skipped, so a disabled
    /// slot repeats the previous value).
    prefix: Vec<f64>,
    /// Number of slots with positive propensity.
    active: usize,
    /// The row kernels this process resolved to (scalar or AVX2,
    /// bit-identical; `CWC_FORCE_SCALAR_KERNELS` forces the former).
    kernel: Kernel,
}

impl Default for PropensityRow {
    fn default() -> Self {
        PropensityRow {
            props: Vec::new(),
            prefix: Vec::new(),
            active: 0,
            kernel: KernelDispatch::Auto.resolve(),
        }
    }
}

impl PropensityRow {
    /// Empties the row (capacity kept) ahead of a rebuild by
    /// [`push`](Self::push).
    pub fn clear(&mut self) {
        self.props.clear();
        self.active = 0;
    }

    /// Appends a slot; the prefix is stale until
    /// [`refold_from`](Self::refold_from) runs.
    pub fn push(&mut self, p: f64) {
        self.active += usize::from(p > 0.0);
        self.props.push(p);
    }

    /// Overwrites slot `i`; the prefix is stale from `i` on until
    /// [`refold_from`](Self::refold_from) runs.
    #[inline]
    pub fn set(&mut self, i: usize, p: f64) {
        let old = std::mem::replace(&mut self.props[i], p);
        self.active = self.active + usize::from(p > 0.0) - usize::from(old > 0.0);
    }

    /// Replays the cumulative fold over `from ..`, resuming from the
    /// committed accumulator below it (bit-exact: `prefix[from - 1]` *is*
    /// the scan's accumulator there).
    #[inline]
    pub fn refold_from(&mut self, from: usize) {
        self.prefix.resize(self.props.len(), 0.0);
        if self.props.len() < SHORT_ROW_SLOTS {
            kernels::row_fold_scalar_from(&self.props, &mut self.prefix, from);
        } else {
            kernels::row_fold_from(self.kernel, &self.props, &mut self.prefix, from);
        }
    }

    /// Total propensity `a0`: the enabled slots summed in row order from
    /// the `-0.0` identity, read off the prefix in O(1).
    #[inline]
    pub fn total(&self) -> f64 {
        self.prefix.last().copied().unwrap_or(-0.0)
    }

    /// Number of currently enabled slots.
    #[inline]
    pub fn active_count(&self) -> usize {
        self.active
    }

    /// Index of the first enabled slot, if any.
    pub fn first_active(&self) -> Option<usize> {
        self.props.iter().position(|&p| p > 0.0)
    }

    /// Direct-method selection: the first enabled slot whose cumulative
    /// propensity exceeds `target`, in row order; the last enabled slot on
    /// floating-point shortfall (a NaN target never crosses, so it takes
    /// the shortfall backstop exactly like the linear scan did).
    ///
    /// # Panics
    ///
    /// Panics when no slot is enabled (callers check `a0 > 0` first).
    #[inline]
    pub fn select(&self, target: f64) -> usize {
        let crossing = if self.prefix.len() < SHORT_ROW_SLOTS {
            kernels::row_count_uncrossed(&self.prefix, target)
        } else {
            kernels::row_select(self.kernel, &self.prefix, target)
        };
        // The crossing slot is enabled whenever `target >= 0` (a disabled
        // slot repeats the previous prefix value, so it cannot be the
        // *first* crossing); the forward scan only moves for negative
        // targets, where the linear scan answered "first enabled slot".
        if let Some(ahead) = self.props[crossing..].iter().position(|&p| p > 0.0) {
            return crossing + ahead;
        }
        // Shortfall (target >= total): the last enabled slot.
        self.props
            .iter()
            .rposition(|&p| p > 0.0)
            .expect("select called with no enabled reaction")
    }

    /// Iterates `(slot, propensity)` over enabled slots in row order — the
    /// first-reaction method's draw order.
    pub fn active_entries(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.props
            .iter()
            .enumerate()
            .filter(|(_, &p)| p > 0.0)
            .map(|(i, &p)| (i, p))
    }

    /// Total number of slots (enabled or not).
    pub fn len(&self) -> usize {
        self.props.len()
    }
}

/// Persistent propensity table over a term's sites (see module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReactionTable {
    registry: SiteRegistry,
    /// Slots `site_start[s] .. site_start[s + 1]` belong to site `s`.
    site_start: Vec<u32>,
    /// Slot → site.
    slot_site: Vec<SiteId>,
    /// Slot → rule.
    slot_rule: Vec<u32>,
    /// Rule → its position among the non-zero-rate rules of its own site
    /// label: the slot of `(site, rule)` is `site_start[site] + rank[rule]`.
    rank: Vec<u32>,
    /// Rule → its kinetic law, compiled with the table.
    laws: Vec<CompiledLaw>,
    /// Slot → propensity, with the ordered prefix fold.
    row: PropensityRow,
}

impl ReactionTable {
    /// Rebuilds the whole table from `term`: re-interns the sites and
    /// re-matches every rule everywhere. Needed initially and after any
    /// structural rewrite; [`post_fire`](ReactionTable::post_fire) calls
    /// it automatically for structural rules.
    pub fn build(&mut self, model: &Model, term: &Term, scratch: &mut MatchScratch) {
        self.registry.rebuild(term);
        self.laws.clear();
        self.laws
            .extend(model.rules.iter().map(|rule| rule.law.compile()));
        self.rank.clear();
        let mut hosted: Vec<(Label, u32)> = Vec::new();
        for rule in &model.rules {
            if rule.rate == 0.0 {
                self.rank.push(u32::MAX);
                continue;
            }
            let at = match hosted.iter().position(|&(label, _)| label == rule.site) {
                Some(at) => at,
                None => {
                    hosted.push((rule.site, 0));
                    hosted.len() - 1
                }
            };
            self.rank.push(hosted[at].1);
            hosted[at].1 += 1;
        }
        self.slot_site.clear();
        self.slot_rule.clear();
        self.site_start.clear();
        self.row.clear();
        for index in 0..self.registry.len() {
            let id = SiteId::from_index(index);
            self.site_start.push(self.row.len() as u32);
            let label = self.registry.label(id);
            let site_term = term.site(self.registry.path(id)).expect("registry path");
            for (ri, rule) in model.rules.iter().enumerate() {
                if rule.site != label || rule.rate == 0.0 {
                    continue;
                }
                self.slot_site.push(id);
                self.slot_rule.push(ri as u32);
                self.row
                    .push(propensity_of(model, &self.laws, ri, site_term, scratch));
            }
        }
        self.site_start.push(self.row.len() as u32);
        self.row.refold_from(0);
    }

    /// Updates the table after `rule` fired at `site` with the given
    /// compartment `assignment`: re-matches exactly the `(site, rule)`
    /// pairs the dependency graph marks as affected, or rebuilds wholesale
    /// for structural rules.
    #[allow(clippy::too_many_arguments)]
    pub fn post_fire(
        &mut self,
        model: &Model,
        deps: &ModelDeps,
        term: &Term,
        rule: usize,
        site: SiteId,
        assignment: &[usize],
        scratch: &mut MatchScratch,
    ) {
        if deps.is_structural(rule) {
            self.build(model, term, scratch);
            return;
        }
        let mut stale_from = usize::MAX;
        for &q in deps.same_site_affected(rule) {
            stale_from = stale_from.min(self.rematch(model, term, site, q, scratch));
        }
        let rd = deps.rule(rule);
        for (k, kept) in rd.kept.iter().enumerate() {
            let affected = deps.child_affected(rule, k);
            if affected.is_empty() {
                continue;
            }
            let child = self
                .registry
                .child(site, assignment[kept.pattern])
                .expect("kept compartment still exists");
            for &q in affected {
                stale_from = stale_from.min(self.rematch(model, term, child, q, scratch));
            }
        }
        let parents = deps.parent_affected(rule);
        if !parents.is_empty() {
            if let Some(parent) = self.registry.parent(site) {
                let parent_label = self.registry.label(parent);
                for &q in parents {
                    // A candidate the parent's label does not host has no
                    // slot there.
                    if model.rules[q as usize].site == parent_label {
                        stale_from = stale_from.min(self.rematch(model, term, parent, q, scratch));
                    }
                }
            }
        }
        if stale_from != usize::MAX {
            self.row.refold_from(stale_from);
        }
    }

    /// Recomputes the slot of `(site, rule)` in place — `rule` must be a
    /// non-zero-rate rule of `site`'s label, which is all the dependency
    /// graph ever lists (compiled deps by construction, received ones by
    /// [`ModelDeps::validate_for`]) — and returns its index, so the caller
    /// can refold the prefix from the lowest changed slot.
    fn rematch(
        &mut self,
        model: &Model,
        term: &Term,
        site: SiteId,
        rule: u32,
        scratch: &mut MatchScratch,
    ) -> usize {
        let i = (self.site_start[site.index()] + self.rank[rule as usize]) as usize;
        debug_assert!(self.slot_site[i] == site && self.slot_rule[i] == rule);
        let site_term = term.site(self.registry.path(site)).expect("registry path");
        let p = propensity_of(model, &self.laws, rule as usize, site_term, scratch);
        self.row.set(i, p);
        i
    }

    /// The propensity row of the table's slots.
    pub(crate) fn row(&self) -> &PropensityRow {
        &self.row
    }

    /// The `(site, rule)` key of entry `i`.
    pub fn site_rule(&self, i: usize) -> (SiteId, usize) {
        (self.slot_site[i], self.slot_rule[i] as usize)
    }

    /// The site registry backing this table.
    pub fn registry(&self) -> &SiteRegistry {
        &self.registry
    }
}

/// Propensity of rule `ri` at `site_term`: its compiled law (`laws[ri]`)
/// at `(rate, h, atoms)` when the tree-match count `h` is positive, else
/// exactly `0.0`.
fn propensity_of(
    model: &Model,
    laws: &[CompiledLaw],
    ri: usize,
    site_term: &Term,
    scratch: &mut MatchScratch,
) -> f64 {
    let rule = &model.rules[ri];
    let h = match_count_with(site_term, &rule.lhs, scratch);
    if h == 0 {
        return 0.0;
    }
    let p = laws[ri].propensity_with(rule.rate, h, |s| site_term.atoms.count(s));
    if p > 0.0 {
        p
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::ModelDeps;
    use cwc::model::Model;
    use cwc::term::Path;

    fn build_all(model: &Model) -> (ReactionTable, ModelDeps, Term, MatchScratch) {
        let deps = ModelDeps::compile(model);
        let term = model.initial.clone();
        let mut scratch = MatchScratch::default();
        let mut table = ReactionTable::default();
        table.build(model, &term, &mut scratch);
        (table, deps, term, scratch)
    }

    /// The oracle: the naive full enumeration, as `(site path, rule,
    /// propensity)` of enabled reactions in walk × rule order.
    fn naive(model: &Model, term: &Term) -> Vec<(Path, usize, f64)> {
        let mut out = Vec::new();
        term.walk_sites(&mut |path, label, site_term| {
            for (ri, rule) in model.rules.iter().enumerate() {
                if rule.site != label || rule.rate == 0.0 {
                    continue;
                }
                let h = cwc::matching::match_count(site_term, &rule.lhs);
                if h > 0 {
                    let p = rule.law.propensity(rule.rate, h, &site_term.atoms);
                    if p > 0.0 {
                        out.push((path.clone(), ri, p));
                    }
                }
            }
        });
        out
    }

    fn table_view(table: &ReactionTable) -> Vec<(Path, usize, f64)> {
        table
            .row()
            .active_entries()
            .map(|(i, p)| {
                let (site, rule) = table.site_rule(i);
                (table.registry().path(site).clone(), rule, p)
            })
            .collect()
    }

    fn transport_model() -> Model {
        let mut m = Model::new("transport");
        let a = m.species("A");
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
            .rate(0.5)
            .build()
            .unwrap();
        m.rule("decay")
            .at("cell")
            .consumes("Ain", 1)
            .rate(0.25)
            .build()
            .unwrap();
        m.initial.add_atoms(a, 4);
        m.initial.add_compartment(cwc::term::Compartment::new(
            m.alphabet.find_label("cell").unwrap(),
            cwc::multiset::Multiset::new(),
            Term::new(),
        ));
        m
    }

    #[test]
    fn build_matches_naive_enumeration() {
        let m = transport_model();
        let (table, _, term, _) = build_all(&m);
        assert_eq!(table_view(&table), naive(&m, &term));
        assert_eq!(table.row().active_count(), 1); // only "in" enabled initially
        assert_eq!(table.row().len(), 3); // in + out at top-ish… (in, out at root; decay at cell)
    }

    #[test]
    fn post_fire_keeps_table_equal_to_recompute() {
        let m = transport_model();
        let (mut table, deps, mut term, mut scratch) = build_all(&m);
        // Fire "in" at the root: A moves into the cell.
        let root = SiteId::ROOT;
        cwc::matching::apply_at(&mut term, &m.rules[0], &Path::root(), &[0]).unwrap();
        table.post_fire(&m, &deps, &term, 0, root, &[0], &mut scratch);
        assert_eq!(table_view(&table), naive(&m, &term));
        assert_eq!(table.row().active_count(), 3); // in, out, decay all enabled

        // Fire "decay" inside the cell.
        let cell = table.registry().child(root, 0).unwrap();
        let cell_path = table.registry().path(cell).clone();
        cwc::matching::apply_at(&mut term, &m.rules[2], &cell_path, &[]).unwrap();
        table.post_fire(&m, &deps, &term, 2, cell, &[], &mut scratch);
        assert_eq!(table_view(&table), naive(&m, &term));

        // Fire "in" three more times, then "out" until the cell drains.
        for _ in 0..3 {
            cwc::matching::apply_at(&mut term, &m.rules[0], &Path::root(), &[0]).unwrap();
            table.post_fire(&m, &deps, &term, 0, root, &[0], &mut scratch);
            assert_eq!(table_view(&table), naive(&m, &term));
        }
        while table
            .row()
            .active_entries()
            .any(|(i, _)| table.site_rule(i).1 == 1)
        {
            cwc::matching::apply_at(&mut term, &m.rules[1], &Path::root(), &[0]).unwrap();
            table.post_fire(&m, &deps, &term, 1, root, &[0], &mut scratch);
            assert_eq!(table_view(&table), naive(&m, &term));
        }
    }

    #[test]
    fn structural_fire_rebuilds() {
        let mut m = Model::new("s");
        let b = m.species("B");
        m.rule("make")
            .consumes("B", 1)
            .creates_comp("cell", &[], &[("C", 1)])
            .rate(1.0)
            .build()
            .unwrap();
        m.rule("inner")
            .at("cell")
            .consumes("C", 1)
            .rate(1.0)
            .build()
            .unwrap();
        m.initial.add_atoms(b, 2);
        let (mut table, deps, mut term, mut scratch) = build_all(&m);
        assert_eq!(table.registry().len(), 1);
        cwc::matching::apply_at(&mut term, &m.rules[0], &Path::root(), &[]).unwrap();
        table.post_fire(&m, &deps, &term, 0, SiteId::ROOT, &[], &mut scratch);
        assert_eq!(table.registry().len(), 2); // registry re-interned
        assert_eq!(table_view(&table), naive(&m, &term));
    }

    #[test]
    fn total_and_select_follow_table_order() {
        let mut m = Model::new("two");
        let a = m.species("A");
        m.rule("r0").consumes("A", 1).rate(2.0).build().unwrap();
        m.rule("r1").consumes("A", 1).rate(3.0).build().unwrap();
        m.initial.add_atoms(a, 2);
        let (table, _, _, _) = build_all(&m);
        assert_eq!(table.row().total(), 4.0 + 6.0);
        assert_eq!(table.row().active_count(), 2);
        assert_eq!(table.row().first_active(), Some(0));
        assert_eq!(table.row().select(0.0), 0);
        assert_eq!(table.row().select(3.999), 0);
        assert_eq!(table.row().select(4.0), 1);
        assert_eq!(table.row().select(1e9), 1); // shortfall → last enabled
        assert_eq!(table.site_rule(1), (SiteId::ROOT, 1));
        assert!(table.row().props[1] == 6.0 && table.row().len() > 0);
    }

    /// The linear scan `select`/`total` replaced, verbatim.
    fn scan_row(row: &PropensityRow, target: f64) -> usize {
        let mut acc = -0.0;
        let mut last_active = None;
        for (i, &p) in row.props.iter().enumerate() {
            if p <= 0.0 {
                continue;
            }
            last_active = Some(i);
            acc += p;
            if target < acc {
                return i;
            }
        }
        last_active.expect("select called with no enabled reaction")
    }

    /// [`scan_row`] over a table's row.
    fn scan_select(table: &ReactionTable) -> impl Fn(f64) -> usize + '_ {
        |target| scan_row(table.row(), target)
    }

    #[test]
    fn short_rows_fold_and_select_like_the_kernels_at_every_length() {
        // Lengths 1..=40 straddle SHORT_ROW_SLOTS; under both dispatches
        // the row's prefix (full and partial refolds) and crossing index
        // must be the kernels' bits and index, and its selection the scan's.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for dispatch in [KernelDispatch::Scalar, KernelDispatch::Simd] {
            let kernel = dispatch.resolve();
            for len in 1..=40usize {
                let mut row = PropensityRow {
                    kernel,
                    ..PropensityRow::default()
                };
                for j in 0..len {
                    // About a third of the slots disabled.
                    row.push(if next() % 3 == 0 {
                        0.0
                    } else {
                        (j + 1) as f64 * 0.37
                    });
                }
                row.refold_from(0);
                for round in 0..24 {
                    let i = (next() % len as u64) as usize;
                    let p = if round % 4 == 0 {
                        0.0
                    } else {
                        (next() % 1_000) as f64 * 0.013
                    };
                    row.set(i, p);
                    let mut want = row.prefix.clone();
                    kernels::row_fold_from(kernel, &row.props, &mut want, i);
                    row.refold_from(i);
                    let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&row.prefix),
                        bits(&want),
                        "{dispatch} len {len} from {i}"
                    );
                    let total = row.total();
                    for k in 0..=8 {
                        let target = total * k as f64 / 8.0;
                        assert_eq!(
                            kernels::row_count_uncrossed(&row.prefix, target),
                            kernels::row_select(kernel, &row.prefix, target),
                            "{dispatch} len {len} target {target}"
                        );
                        if row.active_count() > 0 {
                            assert_eq!(row.select(target), scan_row(&row, target));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn prefix_select_matches_the_linear_scan_through_incremental_updates() {
        // Drive the transport model through a mixed firing sequence and,
        // at every table state, sweep selection targets across the whole
        // [0, a0) range plus the shortfall edge: binary search over the
        // prefix cache must answer exactly like the scan, including after
        // partial (incremental) prefix rebuilds.
        let m = transport_model();
        let (mut table, deps, mut term, mut scratch) = build_all(&m);
        let root = SiteId::ROOT;
        let check_all_targets = |table: &ReactionTable| {
            let a0: f64 = (0..table.row().len())
                .map(|i| table.row().props[i])
                .filter(|&p| p > 0.0)
                .sum();
            assert_eq!(table.row().total().to_bits(), a0.to_bits());
            let scan = scan_select(table);
            for k in 0..64 {
                let target = a0 * k as f64 / 64.0;
                assert_eq!(table.row().select(target), scan(target), "target {target}");
            }
            for target in [a0, a0 * (1.0 + 1e-9), f64::MAX] {
                assert_eq!(
                    table.row().select(target),
                    scan(target),
                    "shortfall {target}"
                );
            }
        };
        check_all_targets(&table);
        for (rule, assignment) in [(0usize, &[0][..]), (0, &[0]), (1, &[0]), (0, &[0])] {
            cwc::matching::apply_at(&mut term, &m.rules[rule], &Path::root(), assignment).unwrap();
            table.post_fire(&m, &deps, &term, rule, root, assignment, &mut scratch);
            check_all_targets(&table);
        }
    }
}
