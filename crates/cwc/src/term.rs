//! CWC terms: multisets of atoms and nested compartments.
//!
//! "Starting from an alphabet of atomic elements, CWC terms are defined as
//! multisets of elements and compartments. [...] a cell can be represented
//! as a compartment and its nucleus with a separate, nested, compartment."
//! Terms are trees: each compartment wraps a membrane multiset and a
//! content term. This dynamic tree structure is what makes the CWC
//! simulator "significantly more complex than a plain Gillespie algorithm".

use crate::multiset::Multiset;
use crate::species::{Alphabet, Label, Species};

/// A compartment: a labelled membrane (`wrap`) enclosing a content term.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Compartment {
    /// Compartment type label.
    pub label: Label,
    /// Elements of interest on the membrane.
    pub wrap: Multiset,
    /// The wrapped content.
    pub content: Term,
}

impl Compartment {
    /// Creates a compartment with the given label, membrane and content.
    pub fn new(label: Label, wrap: Multiset, content: Term) -> Self {
        Compartment {
            label,
            wrap,
            content,
        }
    }
}

/// A CWC term: atoms at this level plus nested compartments.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Term {
    /// Atoms at this nesting level.
    pub atoms: Multiset,
    /// Compartments at this nesting level, in creation order.
    pub comps: Vec<Compartment>,
}

/// Path from the root of a term to one of its (sub)compartments.
///
/// The empty path denotes the root (top level); `[i, j]` denotes the `j`-th
/// compartment inside the `i`-th top-level compartment.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Path(pub Vec<usize>);

impl Path {
    /// The root path (top level of the term).
    pub fn root() -> Self {
        Path(Vec::new())
    }

    /// Extends this path one level down into child `index`.
    pub fn child(&self, index: usize) -> Self {
        let mut v = self.0.clone();
        v.push(index);
        Path(v)
    }

    /// True for the root path.
    pub fn is_root(&self) -> bool {
        self.0.is_empty()
    }

    /// Nesting depth (0 for the root).
    pub fn depth(&self) -> usize {
        self.0.len()
    }
}

impl Term {
    /// Creates an empty term.
    pub fn new() -> Self {
        Term::default()
    }

    /// Creates a term holding only atoms.
    pub fn from_atoms(atoms: Multiset) -> Self {
        Term {
            atoms,
            comps: Vec::new(),
        }
    }

    /// Adds `n` copies of `species` at the top level.
    pub fn add_atoms(&mut self, species: Species, n: u64) {
        self.atoms.insert(species, n);
    }

    /// Adds a compartment at the top level.
    pub fn add_compartment(&mut self, comp: Compartment) {
        self.comps.push(comp);
    }

    /// Immutable access to the sub-term at `path`.
    ///
    /// Returns `None` when the path does not denote an existing compartment.
    pub fn site(&self, path: &Path) -> Option<&Term> {
        let mut current = self;
        for &i in &path.0 {
            current = &current.comps.get(i)?.content;
        }
        Some(current)
    }

    /// Mutable access to the sub-term at `path`.
    pub fn site_mut(&mut self, path: &Path) -> Option<&mut Term> {
        let mut current = self;
        for &i in &path.0 {
            current = &mut current.comps.get_mut(i)?.content;
        }
        Some(current)
    }

    /// The compartment at `path` (`None` for the root, which is not a
    /// compartment, or for dangling paths).
    pub fn compartment(&self, path: &Path) -> Option<&Compartment> {
        let (&last, prefix) = path.0.split_last()?;
        let mut current = self;
        for &i in prefix {
            current = &current.comps.get(i)?.content;
        }
        current.comps.get(last)
    }

    /// Walks every site (root first, then depth-first) invoking
    /// `f(path, label_of_site, term_at_site)`.
    ///
    /// The label of the root site is [`Label::TOP`]; the label of a
    /// compartment site is the compartment's label.
    pub fn walk_sites<F>(&self, f: &mut F)
    where
        F: FnMut(&Path, Label, &Term),
    {
        fn rec<F>(term: &Term, path: &Path, label: Label, f: &mut F)
        where
            F: FnMut(&Path, Label, &Term),
        {
            f(path, label, term);
            for (i, c) in term.comps.iter().enumerate() {
                let child = path.child(i);
                rec(&c.content, &child, c.label, f);
            }
        }
        rec(self, &Path::root(), Label::TOP, f);
    }

    /// Collects the paths of every site whose label is `label`
    /// (root included when `label` is [`Label::TOP`]).
    pub fn sites_with_label(&self, label: Label) -> Vec<Path> {
        let mut out = Vec::new();
        self.walk_sites(&mut |path, site_label, _| {
            if site_label == label {
                out.push(path.clone());
            }
        });
        out
    }

    /// Total count of `species` across the whole tree (atoms and wraps).
    pub fn total_count(&self, species: Species) -> u64 {
        let mut total = self.atoms.count(species);
        for c in &self.comps {
            total += c.wrap.count(species);
            total += c.content.total_count(species);
        }
        total
    }

    /// Total number of atoms in the whole tree (atoms and wraps).
    pub fn total_atoms(&self) -> u64 {
        let mut total = self.atoms.len();
        for c in &self.comps {
            total += c.wrap.len();
            total += c.content.total_atoms();
        }
        total
    }

    /// Total number of compartments in the whole tree.
    pub fn total_compartments(&self) -> usize {
        self.comps
            .iter()
            .map(|c| 1 + c.content.total_compartments())
            .sum()
    }

    /// Maximum nesting depth (0 for a compartment-free term).
    pub fn depth(&self) -> usize {
        self.comps
            .iter()
            .map(|c| 1 + c.content.depth())
            .max()
            .unwrap_or(0)
    }

    /// Renders the term as a model file's `term:` line writes it: atoms
    /// as `name*count`, compartments as `(label: wrap | content)`;
    /// `<empty>` for the empty term.
    pub fn display(&self, alphabet: &Alphabet) -> String {
        let mut out = String::new();
        crate::parser::write_term(&mut out, alphabet, self);
        match out.strip_prefix(' ') {
            Some(text) => text.to_owned(),
            None => "<empty>".to_owned(),
        }
    }
}

impl From<Multiset> for Term {
    fn from(atoms: Multiset) -> Self {
        Term::from_atoms(atoms)
    }
}

/// Dense handle for one site of a term.
///
/// Site ids are indices into a [`SiteRegistry`] in *walk order* (the
/// pre-order of [`Term::walk_sites`]): the root is always [`SiteId::ROOT`],
/// and children follow their parent in compartment order. Hot simulation
/// paths pass these `Copy` ids around instead of cloning [`Path`]s; a
/// registry maps back to paths when the term must actually be navigated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(u32);

impl SiteId {
    /// The root site (top level of the term), walk index 0.
    pub const ROOT: SiteId = SiteId(0);

    /// The walk-order index of this site.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a site id from a walk-order index.
    ///
    /// Only meaningful against the registry that produced the index.
    pub fn from_index(index: usize) -> Self {
        SiteId(index as u32)
    }
}

/// Interning registry for the sites of one term: dense [`SiteId`]s in walk
/// order, with per-site label, path, parent and children.
///
/// The registry is a *snapshot* of the term's compartment tree. Rewrites
/// that only change multisets (atoms, membranes) keep it valid; rewrites
/// that create, destroy or dissolve compartments invalidate it — callers
/// must [`rebuild`](SiteRegistry::rebuild) after such structural changes.
///
/// # Examples
///
/// ```
/// use cwc::multiset::Multiset;
/// use cwc::species::Label;
/// use cwc::term::{Compartment, SiteId, SiteRegistry, Term};
///
/// let mut t = Term::new();
/// t.add_compartment(Compartment::new(Label::from_raw(0), Multiset::new(), Term::new()));
/// let reg = SiteRegistry::from_term(&t);
/// assert_eq!(reg.len(), 2);
/// let cell = reg.child(SiteId::ROOT, 0).unwrap();
/// assert_eq!(reg.parent(cell), Some(SiteId::ROOT));
/// assert_eq!(reg.path(cell).0, vec![0]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SiteRegistry {
    paths: Vec<Path>,
    labels: Vec<Label>,
    /// `parents[i]` is the walk index of site `i`'s parent; unused for the
    /// root (index 0).
    parents: Vec<u32>,
    children: Vec<Vec<SiteId>>,
}

impl SiteRegistry {
    /// Builds the registry of `term`'s sites.
    pub fn from_term(term: &Term) -> Self {
        let mut reg = SiteRegistry::default();
        reg.rebuild(term);
        reg
    }

    /// Re-snapshots `term`, reusing the registry's allocations where
    /// possible. Must be called after any structural rewrite.
    pub fn rebuild(&mut self, term: &Term) {
        self.paths.clear();
        self.labels.clear();
        self.parents.clear();
        self.children.clear();
        self.push_site(Path::root(), Label::TOP, 0);
        self.walk(term, 0);
    }

    fn push_site(&mut self, path: Path, label: Label, parent: u32) -> usize {
        let id = self.paths.len();
        self.paths.push(path);
        self.labels.push(label);
        self.parents.push(parent);
        self.children.push(Vec::new());
        id
    }

    fn walk(&mut self, term: &Term, me: usize) {
        for (i, c) in term.comps.iter().enumerate() {
            let child_path = self.paths[me].child(i);
            let id = self.push_site(child_path, c.label, me as u32);
            self.children[me].push(SiteId(id as u32));
            self.walk(&c.content, id);
        }
    }

    /// Number of sites (≥ 1: the root always exists).
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Always false — a registry holds at least the root site.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Iterates every site id in walk order.
    pub fn ids(&self) -> impl Iterator<Item = SiteId> + '_ {
        (0..self.paths.len() as u32).map(SiteId)
    }

    /// The path of `id` (borrowed — no clone on the hot path).
    pub fn path(&self, id: SiteId) -> &Path {
        &self.paths[id.index()]
    }

    /// The label of site `id` ([`Label::TOP`] for the root).
    pub fn label(&self, id: SiteId) -> Label {
        self.labels[id.index()]
    }

    /// The parent of `id`, or `None` for the root.
    pub fn parent(&self, id: SiteId) -> Option<SiteId> {
        if id == SiteId::ROOT {
            None
        } else {
            Some(SiteId(self.parents[id.index()]))
        }
    }

    /// The site of the `comp_index`-th compartment of `id`, if present.
    pub fn child(&self, id: SiteId, comp_index: usize) -> Option<SiteId> {
        self.children[id.index()].get(comp_index).copied()
    }

    /// The sites of `id`'s compartments, in compartment order.
    pub fn children(&self, id: SiteId) -> &[SiteId] {
        &self.children[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(i: u32) -> Species {
        Species::from_raw(i)
    }

    fn lb(i: u32) -> Label {
        Label::from_raw(i)
    }

    #[test]
    #[should_panic(expected = "count of Species(0) overflows u64")]
    fn add_atoms_past_u64_max_panics_naming_the_species() {
        let mut t = Term::new();
        t.add_atoms(sp(0), u64::MAX);
        t.add_atoms(sp(0), 1);
    }

    /// `A*2 (cell: m | B (nucleus: | C))`
    fn nested_term() -> Term {
        let mut root = Term::new();
        root.add_atoms(sp(0), 2);
        let mut cell_content = Term::new();
        cell_content.add_atoms(sp(1), 1);
        let nucleus = Compartment::new(
            lb(1),
            Multiset::new(),
            Term::from_atoms(Multiset::from([(sp(2), 1)])),
        );
        cell_content.add_compartment(nucleus);
        let cell = Compartment::new(lb(0), Multiset::from([(sp(3), 1)]), cell_content);
        root.add_compartment(cell);
        root
    }

    #[test]
    fn site_navigation() {
        let t = nested_term();
        assert_eq!(t.site(&Path::root()).unwrap().atoms.count(sp(0)), 2);
        let cell = t.site(&Path(vec![0])).unwrap();
        assert_eq!(cell.atoms.count(sp(1)), 1);
        let nucleus = t.site(&Path(vec![0, 0])).unwrap();
        assert_eq!(nucleus.atoms.count(sp(2)), 1);
        assert!(t.site(&Path(vec![1])).is_none());
        assert!(t.site(&Path(vec![0, 5])).is_none());
    }

    #[test]
    fn compartment_lookup() {
        let t = nested_term();
        assert!(t.compartment(&Path::root()).is_none());
        let cell = t.compartment(&Path(vec![0])).unwrap();
        assert_eq!(cell.label, lb(0));
        assert_eq!(cell.wrap.count(sp(3)), 1);
        let nucleus = t.compartment(&Path(vec![0, 0])).unwrap();
        assert_eq!(nucleus.label, lb(1));
    }

    #[test]
    fn walk_sites_visits_all_levels() {
        let t = nested_term();
        let mut visited = Vec::new();
        t.walk_sites(&mut |path, label, _| visited.push((path.clone(), label)));
        assert_eq!(
            visited,
            vec![
                (Path::root(), Label::TOP),
                (Path(vec![0]), lb(0)),
                (Path(vec![0, 0]), lb(1)),
            ]
        );
    }

    #[test]
    fn sites_with_label_filters() {
        let t = nested_term();
        assert_eq!(t.sites_with_label(Label::TOP), vec![Path::root()]);
        assert_eq!(t.sites_with_label(lb(1)), vec![Path(vec![0, 0])]);
        assert!(t.sites_with_label(lb(9)).is_empty());
    }

    #[test]
    fn totals_include_wraps_and_nesting() {
        let t = nested_term();
        assert_eq!(t.total_count(sp(0)), 2);
        assert_eq!(t.total_count(sp(3)), 1); // membrane atom
        assert_eq!(t.total_atoms(), 5);
        assert_eq!(t.total_compartments(), 2);
        assert_eq!(t.depth(), 2);
    }

    #[test]
    fn site_mut_allows_in_place_edit() {
        let mut t = nested_term();
        t.site_mut(&Path(vec![0, 0]))
            .unwrap()
            .atoms
            .insert(sp(2), 9);
        assert_eq!(t.total_count(sp(2)), 10);
    }

    #[test]
    fn display_renders_nested_structure() {
        let mut ab = Alphabet::new();
        let a = ab.species("A");
        let b = ab.species("B");
        let cell = ab.label("cell");
        let mut t = Term::new();
        t.add_atoms(a, 2);
        t.add_compartment(Compartment::new(
            cell,
            Multiset::from([(b, 1)]),
            Term::from_atoms(Multiset::from([(a, 1)])),
        ));
        assert_eq!(t.display(&ab), "A*2 (cell: B | A)");
        assert_eq!(Term::new().display(&ab), "<empty>");
    }

    #[test]
    fn site_registry_matches_walk_order() {
        let t = nested_term();
        let reg = SiteRegistry::from_term(&t);
        let mut walked = Vec::new();
        t.walk_sites(&mut |path, label, _| walked.push((path.clone(), label)));
        assert_eq!(reg.len(), walked.len());
        for (i, id) in reg.ids().enumerate() {
            assert_eq!(id.index(), i);
            assert_eq!((reg.path(id).clone(), reg.label(id)), walked[i]);
        }
    }

    #[test]
    fn site_registry_links_parents_and_children() {
        let t = nested_term();
        let reg = SiteRegistry::from_term(&t);
        let cell = reg.child(SiteId::ROOT, 0).unwrap();
        let nucleus = reg.child(cell, 0).unwrap();
        assert_eq!(reg.parent(SiteId::ROOT), None);
        assert_eq!(reg.parent(cell), Some(SiteId::ROOT));
        assert_eq!(reg.parent(nucleus), Some(cell));
        assert_eq!(reg.children(SiteId::ROOT), &[cell]);
        assert_eq!(reg.children(nucleus), &[] as &[SiteId]);
        assert_eq!(reg.child(SiteId::ROOT, 1), None);
        assert_eq!(reg.label(nucleus), lb(1));
        assert_eq!(reg.path(nucleus), &Path(vec![0, 0]));
        assert!(!reg.is_empty());
    }

    #[test]
    fn site_registry_rebuild_tracks_structural_change() {
        let mut t = nested_term();
        let mut reg = SiteRegistry::from_term(&t);
        assert_eq!(reg.len(), 3);
        t.add_compartment(Compartment::new(lb(2), Multiset::new(), Term::new()));
        reg.rebuild(&t);
        assert_eq!(reg.len(), 4);
        // New top-level compartment comes last in walk order.
        let extra = reg.child(SiteId::ROOT, 1).unwrap();
        assert_eq!(extra.index(), 3);
        assert_eq!(reg.label(extra), lb(2));
    }

    #[test]
    fn path_helpers() {
        let p = Path::root();
        assert!(p.is_root());
        let c = p.child(3).child(1);
        assert_eq!(c, Path(vec![3, 1]));
        assert_eq!(c.depth(), 2);
    }
}
