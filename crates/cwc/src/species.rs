//! Interned identifiers for atomic elements and compartment labels.
//!
//! The CWC alphabet is fixed per model, so species and labels are interned
//! to small integer handles; the hot matching loops compare integers, and
//! the [`Alphabet`] maps back to names for display and parsing.

use std::collections::HashMap;

/// An atomic element of the CWC alphabet (interned handle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Species(u32);

impl Species {
    /// Builds a species handle from a raw index.
    ///
    /// Normally obtained from [`Alphabet::species`]; the raw constructor
    /// exists for tests and serialisation.
    pub fn from_raw(raw: u32) -> Self {
        Species(raw)
    }

    /// The raw index of this handle.
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// A compartment type label (interned handle).
///
/// The distinguished [`Label::TOP`] denotes the outermost level of a term,
/// written ⊤ in the CWC literature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(u32);

impl Default for Label {
    /// Defaults to [`Label::TOP`].
    fn default() -> Self {
        Label::TOP
    }
}

impl Label {
    /// The top level of a term (not an actual compartment).
    pub const TOP: Label = Label(u32::MAX);

    /// Builds a label handle from a raw index.
    pub fn from_raw(raw: u32) -> Self {
        Label(raw)
    }

    /// The raw index of this handle.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// True for the distinguished top-level label.
    pub fn is_top(self) -> bool {
        self == Label::TOP
    }
}

/// Bidirectional map between names and interned handles.
///
/// # Examples
///
/// ```
/// use cwc::species::Alphabet;
///
/// let mut ab = Alphabet::new();
/// let a = ab.species("A");
/// assert_eq!(ab.species("A"), a); // idempotent
/// assert_eq!(ab.species_name(a), "A");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Alphabet {
    species_names: Vec<String>,
    species_index: HashMap<String, Species>,
    label_names: Vec<String>,
    label_index: HashMap<String, Label>,
}

impl Alphabet {
    /// Creates an empty alphabet.
    pub fn new() -> Self {
        Alphabet::default()
    }

    /// Interns (or looks up) a species by name.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` species are interned.
    pub fn species(&mut self, name: &str) -> Species {
        if let Some(&s) = self.species_index.get(name) {
            return s;
        }
        let s = Species(u32::try_from(self.species_names.len()).expect("alphabet overflow"));
        self.species_names.push(name.to_owned());
        self.species_index.insert(name.to_owned(), s);
        s
    }

    /// Looks a species up without interning.
    pub fn find_species(&self, name: &str) -> Option<Species> {
        self.species_index.get(name).copied()
    }

    /// Name of an interned species.
    ///
    /// # Panics
    ///
    /// Panics if `species` was not produced by this alphabet.
    pub fn species_name(&self, species: Species) -> &str {
        &self.species_names[species.0 as usize]
    }

    /// Interns (or looks up) a compartment label by name.
    ///
    /// The name `"top"` maps to [`Label::TOP`].
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX - 1` labels are interned.
    pub fn label(&mut self, name: &str) -> Label {
        if name == "top" {
            return Label::TOP;
        }
        if let Some(&l) = self.label_index.get(name) {
            return l;
        }
        let l = Label(u32::try_from(self.label_names.len()).expect("alphabet overflow"));
        assert!(l != Label::TOP, "label space exhausted");
        self.label_names.push(name.to_owned());
        self.label_index.insert(name.to_owned(), l);
        l
    }

    /// Looks a label up without interning (`"top"` always resolves).
    pub fn find_label(&self, name: &str) -> Option<Label> {
        if name == "top" {
            return Some(Label::TOP);
        }
        self.label_index.get(name).copied()
    }

    /// Name of an interned label (`"top"` for [`Label::TOP`]).
    ///
    /// # Panics
    ///
    /// Panics if `label` was not produced by this alphabet.
    pub fn label_name(&self, label: Label) -> &str {
        if label.is_top() {
            "top"
        } else {
            &self.label_names[label.0 as usize]
        }
    }

    /// Number of interned species.
    pub fn species_count(&self) -> usize {
        self.species_names.len()
    }

    /// Iterates over all interned species in interning order.
    pub fn all_species(&self) -> impl Iterator<Item = Species> + '_ {
        (0..self.species_names.len()).map(|i| Species(i as u32))
    }

    /// Number of interned labels (excluding `top`).
    pub fn label_count(&self) -> usize {
        self.label_names.len()
    }

    /// Species names, indexed by raw handle (interning order).
    pub fn species_names(&self) -> &[String] {
        &self.species_names
    }

    /// Label names, indexed by raw handle (interning order; `top` is not
    /// among them).
    pub fn label_names(&self) -> &[String] {
        &self.label_names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut ab = Alphabet::new();
        let a = ab.species("A");
        let b = ab.species("B");
        assert_ne!(a, b);
        assert_eq!(ab.species("A"), a);
        assert_eq!(ab.species_count(), 2);
    }

    #[test]
    fn find_does_not_intern() {
        let ab = Alphabet::new();
        assert_eq!(ab.find_species("missing"), None);
        assert_eq!(ab.find_label("missing"), None);
        assert_eq!(ab.find_label("top"), Some(Label::TOP));
    }

    #[test]
    fn names_round_trip() {
        let mut ab = Alphabet::new();
        let s = ab.species("frq_mRNA");
        let l = ab.label("nucleus");
        assert_eq!(ab.species_name(s), "frq_mRNA");
        assert_eq!(ab.label_name(l), "nucleus");
        assert_eq!(ab.label_name(Label::TOP), "top");
    }

    #[test]
    fn top_label_is_distinguished() {
        let mut ab = Alphabet::new();
        assert!(ab.label("top").is_top());
        assert!(!ab.label("cell").is_top());
    }

    #[test]
    fn all_species_enumerates_in_order() {
        let mut ab = Alphabet::new();
        let a = ab.species("A");
        let b = ab.species("B");
        let all: Vec<Species> = ab.all_species().collect();
        assert_eq!(all, vec![a, b]);
    }
}
