//! Sample rows and time-aligned cuts.
//!
//! The simulation pipeline streams per-instance samples out of the
//! engines — each a grid time and a [`Row`] of observable values; the
//! alignment stage (`cwcsim::alignment`) groups them into [`Cut`]s — "an
//! array containing the results of all simulations at a given simulation
//! time" — which is the unit the analysis pipeline consumes.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// Rows of at most this many observables are stored inline; wider rows
/// spill to the heap. Four covers every built-in model (Michaelis–Menten
/// observes four species, Neurospora three).
const INLINE: usize = 4;

/// One trajectory's observable values at one sample time.
///
/// A sample is a few counts, so a row keeps up to four of them inline:
/// making one costs no heap allocation, and a [`Cut`]'s rows lie
/// contiguously in its `values` vector. A wider row (a user model with
/// more observables) holds a `Vec<u64>` instead. Either way the row
/// derefs to `[u64]`, and equality, hashing and `Debug` go by contents —
/// `Debug` prints exactly what the same values in a `Vec<u64>` print.
///
/// # Examples
///
/// ```
/// use gillespie::trajectory::Row;
///
/// let row = Row::from_slice(&[3, 1, 4]);
/// assert_eq!(row.len(), 3);
/// assert_eq!(row[2], 4);
/// assert_eq!(format!("{row:?}"), format!("{:?}", vec![3u64, 1, 4]));
/// assert_eq!(row, vec![3, 1, 4]);
/// ```
#[derive(Clone)]
pub struct Row(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, values: [u64; INLINE] },
    Spilled(Vec<u64>),
}

impl Row {
    /// Copies `values` into a row (inline when they fit).
    pub fn from_slice(values: &[u64]) -> Row {
        if values.len() <= INLINE {
            let mut inline = [0; INLINE];
            inline[..values.len()].copy_from_slice(values);
            Row(Repr::Inline {
                len: values.len() as u8,
                values: inline,
            })
        } else {
            Row(Repr::Spilled(values.to_vec()))
        }
    }
}

impl Deref for Row {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        match &self.0 {
            Repr::Inline { len, values } => &values[..usize::from(*len)],
            Repr::Spilled(values) => values,
        }
    }
}

impl FromIterator<u64> for Row {
    /// Collects values straight into a row: inline while they fit, one
    /// spill vector (sized from the iterator's hint) past that.
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Row {
        let mut iter = iter.into_iter();
        let mut values = [0; INLINE];
        let mut len = 0;
        while let Some(v) = iter.next() {
            if len == INLINE {
                let mut spill = Vec::with_capacity(INLINE + 1 + iter.size_hint().0);
                spill.extend_from_slice(&values);
                spill.push(v);
                spill.extend(iter);
                return Row(Repr::Spilled(spill));
            }
            values[len] = v;
            len += 1;
        }
        Row(Repr::Inline {
            len: len as u8,
            values,
        })
    }
}

impl PartialEq for Row {
    fn eq(&self, other: &Row) -> bool {
        **self == **other
    }
}

impl Eq for Row {}

impl PartialEq<Vec<u64>> for Row {
    fn eq(&self, other: &Vec<u64>) -> bool {
        **self == **other
    }
}

impl Hash for Row {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// All trajectories' values at one grid time, ready for analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct Cut {
    /// The common simulation time.
    pub time: f64,
    /// `values[i]` holds instance `i`'s observables at `time`.
    pub values: Vec<Row>,
}

impl Cut {
    /// Number of trajectories in the cut.
    pub fn width(&self) -> usize {
        self.values.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut h = DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn rows_up_to_the_inline_capacity_stay_inline_and_wider_ones_spill() {
        let four = [1, 2, 3, 4];
        let five = [1, 2, 3, 4, 5];
        assert!(matches!(
            Row::from_slice(&four).0,
            Repr::Inline { len: 4, .. }
        ));
        assert!(matches!(Row::from_slice(&five).0, Repr::Spilled(ref v) if v.len() == 5));
        assert!(matches!(
            four.into_iter().collect::<Row>().0,
            Repr::Inline { .. }
        ));
        assert!(matches!(
            five.into_iter().collect::<Row>().0,
            Repr::Spilled(_)
        ));
        for values in [&[][..], &[7], &four, &five, &[9; 6]] {
            let row = Row::from_slice(values);
            assert_eq!(&*row, values);
            assert_eq!(&*values.iter().copied().collect::<Row>(), values);
        }
    }

    #[test]
    fn rows_compare_hash_and_print_by_contents_like_a_vec() {
        for values in [vec![], vec![0], vec![3, 1, 4], vec![1, 2, 3, 4], vec![5; 5]] {
            let row = Row::from_slice(&values);
            // Inline and spilled reprs of the same values are equal too.
            let spilled = Row(Repr::Spilled(values.clone()));
            assert_eq!(row, spilled);
            assert_eq!(row, values);
            assert_eq!(hash_of(&row), hash_of(&values));
            assert_eq!(hash_of(&spilled), hash_of(&values));
            assert_eq!(format!("{row:?}"), format!("{values:?}"));
            assert_eq!(format!("{spilled:#?}"), format!("{values:#?}"));
        }
        assert_ne!(Row::from_slice(&[1, 2]), Row::from_slice(&[1, 2, 0]));
        assert_ne!(
            Row::from_slice(&[1, 2, 3, 4, 5]),
            Row::from_slice(&[1, 2, 3, 4, 6])
        );
    }
}
