//! Time-aligned cuts.
//!
//! The simulation pipeline streams per-instance samples out of the
//! engines; the alignment stage (`cwcsim::alignment`) groups them into
//! [`Cut`]s — "an array containing the results of all simulations at a
//! given simulation time" — which is the unit the analysis pipeline
//! consumes.

/// All trajectories' values at one grid time, ready for analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct Cut {
    /// The common simulation time.
    pub time: f64,
    /// `values[i]` holds instance `i`'s observables at `time`.
    pub values: Vec<Vec<u64>>,
}

impl Cut {
    /// Number of trajectories in the cut.
    pub fn width(&self) -> usize {
        self.values.len()
    }

    /// Extracts observable `k` across all trajectories as `f64`s.
    pub fn observable(&self, k: usize) -> Vec<f64> {
        self.values.iter().map(|v| v[k] as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cut_accessors() {
        let c = Cut {
            time: 2.0,
            values: vec![vec![1, 10], vec![3, 30]],
        };
        assert_eq!(c.width(), 2);
        assert_eq!(c.observable(0), vec![1.0, 3.0]);
        assert_eq!(c.observable(1), vec![10.0, 30.0]);
    }
}
