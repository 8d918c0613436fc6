//! Multisets of atomic elements.
//!
//! CWC terms are "multisets of elements and compartments"; this module
//! provides the element part. Counts are kept in a sorted map so iteration
//! order — and therefore simulation behaviour under a fixed RNG seed — is
//! deterministic.

use std::collections::BTreeMap;

use crate::species::Species;

/// A multiset of [`Species`] with non-negative integer multiplicities.
///
/// Zero-count entries are never stored, so two multisets with equal contents
/// always compare equal.
///
/// # Examples
///
/// ```
/// use cwc::multiset::Multiset;
/// use cwc::species::Species;
///
/// let a = Species::from_raw(0);
/// let mut ms = Multiset::new();
/// ms.insert(a, 3);
/// ms.remove(a, 1).unwrap();
/// assert_eq!(ms.count(a), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Multiset {
    counts: BTreeMap<Species, u64>,
}

/// Error returned when removing more copies than present.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoveError {
    /// The species whose count was insufficient.
    pub species: Species,
    /// Copies requested for removal.
    pub requested: u64,
    /// Copies actually present.
    pub available: u64,
}

impl std::fmt::Display for RemoveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot remove {} copies of species {:?}: only {} present",
            self.requested, self.species, self.available
        )
    }
}

impl std::error::Error for RemoveError {}

impl Multiset {
    /// Creates an empty multiset.
    pub fn new() -> Self {
        Multiset::default()
    }

    /// Multiplicity of `species` (0 if absent).
    pub fn count(&self, species: Species) -> u64 {
        self.counts.get(&species).copied().unwrap_or(0)
    }

    /// Adds `n` copies of `species`.
    ///
    /// # Panics
    ///
    /// Panics, naming the species, if its count would pass `u64::MAX`.
    pub fn insert(&mut self, species: Species, n: u64) {
        if n == 0 {
            return;
        }
        let count = self.counts.entry(species).or_insert(0);
        *count = count
            .checked_add(n)
            .unwrap_or_else(|| panic!("count of {species:?} overflows u64 ({count} + {n})"));
    }

    /// Removes `n` copies of `species`.
    ///
    /// # Errors
    ///
    /// Returns [`RemoveError`] (leaving the multiset unchanged) when fewer
    /// than `n` copies are present.
    pub fn remove(&mut self, species: Species, n: u64) -> Result<(), RemoveError> {
        if n == 0 {
            return Ok(());
        }
        match self.counts.get_mut(&species) {
            Some(c) if *c > n => {
                *c -= n;
                Ok(())
            }
            Some(c) if *c == n => {
                self.counts.remove(&species);
                Ok(())
            }
            other => Err(RemoveError {
                species,
                requested: n,
                available: other.map(|c| *c).unwrap_or(0),
            }),
        }
    }

    /// True when `other` is contained in `self` with multiplicities.
    pub fn contains(&self, other: &Multiset) -> bool {
        other.iter().all(|(s, n)| self.count(s) >= n)
    }

    /// Adds every element of `other` into `self`.
    pub fn add_all(&mut self, other: &Multiset) {
        for (s, n) in other.iter() {
            self.insert(s, n);
        }
    }

    /// Removes every element of `other` from `self`.
    ///
    /// # Errors
    ///
    /// Returns the first [`RemoveError`] encountered; `self` may have been
    /// partially modified, so callers should check [`contains`] first (the
    /// matching engine always does).
    ///
    /// [`contains`]: Multiset::contains
    pub fn remove_all(&mut self, other: &Multiset) -> Result<(), RemoveError> {
        for (s, n) in other.iter() {
            self.remove(s, n)?;
        }
        Ok(())
    }

    /// Total number of atoms (with multiplicity).
    pub fn len(&self) -> u64 {
        self.counts.values().sum()
    }

    /// True when the multiset holds no atoms.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Number of *distinct* species present.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Iterates over `(species, multiplicity)` pairs in species order.
    pub fn iter(&self) -> impl Iterator<Item = (Species, u64)> + '_ {
        self.counts.iter().map(|(s, n)| (*s, *n))
    }

    /// Number of distinct ways to select `pattern` from `self`:
    /// ∏ᵢ C(nᵢ, kᵢ) over species. This is Gillespie's combinatorial factor
    /// hμ for mass-action propensities.
    ///
    /// Returns 0 when the pattern is not contained in `self`. Saturates at
    /// `u64::MAX` (far beyond any realistic propensity factor).
    pub fn selection_count(&self, pattern: &Multiset) -> u64 {
        let mut total: u64 = 1;
        for (s, k) in pattern.iter() {
            let n = self.count(s);
            if n < k {
                return 0;
            }
            total = total.saturating_mul(binomial(n, k));
            if total == 0 {
                return 0;
            }
        }
        total
    }
}

/// Binomial coefficient C(n, k), saturating at `u64::MAX`.
///
/// `k = 1` and `k = 2` — nearly every reactant of a real model — skip the
/// general loop's divisions: C(n, 1) is `n`, and C(n, 2) is the loop's own
/// last step, `n(n-1)/2` saturating when `n(n-1)` overflows (pinned
/// against the loop by this module's tests).
#[inline]
pub fn binomial(n: u64, k: u64) -> u64 {
    match k {
        1 => return n,
        2 if n >= 2 => return n.checked_mul(n - 1).map_or(u64::MAX, |v| v / 2),
        _ if k > n => return 0,
        _ => {}
    }
    let k = k.min(n - k);
    let mut result: u64 = 1;
    for i in 0..k {
        // result * (n - i) / (i + 1); divide afterwards to stay exact —
        // the product of i+1 consecutive integers is divisible by (i+1)!.
        result = match result.checked_mul(n - i) {
            Some(v) => v / (i + 1),
            None => return u64::MAX,
        };
    }
    result
}

impl FromIterator<(Species, u64)> for Multiset {
    fn from_iter<I: IntoIterator<Item = (Species, u64)>>(iter: I) -> Self {
        let mut ms = Multiset::new();
        for (s, n) in iter {
            ms.insert(s, n);
        }
        ms
    }
}

impl Extend<(Species, u64)> for Multiset {
    fn extend<I: IntoIterator<Item = (Species, u64)>>(&mut self, iter: I) {
        for (s, n) in iter {
            self.insert(s, n);
        }
    }
}

impl<const N: usize> From<[(Species, u64); N]> for Multiset {
    fn from(pairs: [(Species, u64); N]) -> Self {
        pairs.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(i: u32) -> Species {
        Species::from_raw(i)
    }

    #[test]
    fn insert_and_count() {
        let mut ms = Multiset::new();
        assert_eq!(ms.count(sp(1)), 0);
        ms.insert(sp(1), 5);
        ms.insert(sp(1), 2);
        assert_eq!(ms.count(sp(1)), 7);
        assert_eq!(ms.len(), 7);
        assert_eq!(ms.distinct(), 1);
    }

    #[test]
    fn insert_zero_is_noop() {
        let mut ms = Multiset::new();
        ms.insert(sp(1), 0);
        assert!(ms.is_empty());
        assert_eq!(ms, Multiset::new());
    }

    #[test]
    fn remove_exact_clears_entry() {
        let mut ms = Multiset::from([(sp(1), 3)]);
        ms.remove(sp(1), 3).unwrap();
        assert!(ms.is_empty());
        assert_eq!(ms.distinct(), 0);
    }

    #[test]
    fn remove_too_many_fails_and_preserves() {
        let mut ms = Multiset::from([(sp(1), 2)]);
        let err = ms.remove(sp(1), 3).unwrap_err();
        assert_eq!(err.requested, 3);
        assert_eq!(err.available, 2);
        assert_eq!(ms.count(sp(1)), 2);
        let err = ms.remove(sp(9), 1).unwrap_err();
        assert_eq!(err.available, 0);
    }

    #[test]
    fn contains_respects_multiplicity() {
        let big = Multiset::from([(sp(1), 3), (sp(2), 1)]);
        assert!(big.contains(&Multiset::from([(sp(1), 2)])));
        assert!(big.contains(&Multiset::from([(sp(1), 3), (sp(2), 1)])));
        assert!(!big.contains(&Multiset::from([(sp(1), 4)])));
        assert!(!big.contains(&Multiset::from([(sp(3), 1)])));
        assert!(big.contains(&Multiset::new()));
    }

    #[test]
    fn add_all_and_remove_all_roundtrip() {
        let mut ms = Multiset::from([(sp(1), 2), (sp(2), 5)]);
        let delta = Multiset::from([(sp(1), 1), (sp(3), 4)]);
        ms.add_all(&delta);
        assert_eq!(ms.count(sp(1)), 3);
        assert_eq!(ms.count(sp(3)), 4);
        ms.remove_all(&delta).unwrap();
        assert_eq!(ms, Multiset::from([(sp(1), 2), (sp(2), 5)]));
    }

    #[test]
    fn binomial_small_values() {
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 1), 5);
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(4, 5), 0);
        assert_eq!(binomial(100, 3), 161_700);
    }

    #[test]
    fn binomial_saturates_not_panics() {
        assert_eq!(binomial(u64::MAX, 2), u64::MAX);
    }

    /// The general loop of [`binomial`], without its fast paths.
    fn binomial_loop(n: u64, k: u64) -> u64 {
        if k > n {
            return 0;
        }
        let k = k.min(n - k);
        let mut result: u64 = 1;
        for i in 0..k {
            result = match result.checked_mul(n - i) {
                Some(v) => v / (i + 1),
                None => return u64::MAX,
            };
        }
        result
    }

    #[test]
    fn binomial_fast_paths_equal_the_general_loop_up_to_the_overflow_edge() {
        // n(n-1) first overflows u64 at n = 2³² + 1.
        let edge = (1u64 << 32) + 1;
        let ns =
            (0..10_000)
                .chain(edge - 5..edge + 5)
                .chain([u64::MAX / 2, u64::MAX - 1, u64::MAX]);
        for n in ns {
            for k in [1, 2] {
                assert_eq!(binomial(n, k), binomial_loop(n, k), "C({n}, {k})");
            }
        }
        assert_eq!(binomial(edge - 1, 2), (edge - 1) / 2 * (edge - 2));
        assert_eq!(binomial(edge, 2), u64::MAX);
    }

    proptest::proptest! {
        #[test]
        fn binomial_fast_paths_equal_the_general_loop(n in 0u64..u64::MAX, shift in 0u32..64) {
            let n = n >> shift;
            for k in [1, 2] {
                proptest::prop_assert_eq!(binomial(n, k), binomial_loop(n, k));
            }
        }
    }

    #[test]
    fn selection_count_is_mass_action_factor() {
        // A + B with nA=3, nB=4 -> 12 combinations.
        let state = Multiset::from([(sp(1), 3), (sp(2), 4)]);
        let pat = Multiset::from([(sp(1), 1), (sp(2), 1)]);
        assert_eq!(state.selection_count(&pat), 12);
        // 2A with nA=3 -> C(3,2) = 3.
        let pat2 = Multiset::from([(sp(1), 2)]);
        assert_eq!(state.selection_count(&pat2), 3);
        // Missing species -> 0.
        let pat3 = Multiset::from([(sp(7), 1)]);
        assert_eq!(state.selection_count(&pat3), 0);
        // Empty pattern -> exactly one way.
        assert_eq!(state.selection_count(&Multiset::new()), 1);
    }

    #[test]
    fn from_iterator_merges_duplicates() {
        let ms: Multiset = vec![(sp(1), 1), (sp(1), 2), (sp(2), 1)]
            .into_iter()
            .collect();
        assert_eq!(ms.count(sp(1)), 3);
        assert_eq!(ms.count(sp(2)), 1);
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let mut a = Multiset::new();
        a.insert(sp(2), 1);
        a.insert(sp(1), 1);
        let mut b = Multiset::new();
        b.insert(sp(1), 1);
        b.insert(sp(2), 1);
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }
}
