//! # streamstat — on-line statistics for simulation streams
//!
//! The statistical engines of the CWC simulator's analysis pipeline
//! (Aldinucci et al., ICDCS 2014, Fig. 2): every estimator here is
//! single-pass and mergeable, so it can run *while simulations are still
//! running*, inside a farm of statistical engines fed by sliding windows of
//! trajectory cuts.
//!
//! | Engine | Module | Paper reference |
//! |---|---|---|
//! | mean / variance | [`welford`] | "mean, variance" boxes in Fig. 2 |
//! | k-means | [`kmeans`] | "k-means" box in Fig. 2 |
//! | smoothing | [`filter`] | "filtered simulation results" in Fig. 2 |
//! | peak & period detection | [`period`] | "compute the period of each oscillation" |
//! | histogram | [`histogram`] | StochSimGPU-style population histograms |
//! | on-line quantiles | [`quantile`] | big-data-safe distribution summaries |
//! | partial-state merging | [`merge`] | StochKit-FF-style sharded farms |

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod filter;
pub mod histogram;
pub mod kmeans;
pub mod merge;
pub mod period;
pub mod quantile;
pub mod welford;

pub use filter::savitzky_golay;
pub use histogram::Histogram;
pub use kmeans::{bimodality_ratio, kmeans1d, Clustering};
pub use merge::Mergeable;
pub use period::{analyse_period, find_peaks, Peak, PeriodAnalysis};
pub use quantile::P2Quantile;
pub use welford::Running;
