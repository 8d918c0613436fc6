//! # streamstat — on-line statistics for simulation streams
//!
//! The statistical engines of the CWC simulator's analysis pipeline
//! (Aldinucci et al., ICDCS 2014, Fig. 2). Welford moments and
//! histograms are single-pass, and moments merge, so a whole-run summary
//! can grow *while simulations are still running*. A per-cut engine holds
//! the whole cut, so it uses exact forms where they are cheaper: k-means
//! on the cut's sorted counts ([`kmeans1d_counts`]) and, in the pipeline,
//! a nearest-rank quantile read off the same sorted copy and a histogram
//! fed one [`Histogram::push_n`] per run of equal counts.
//!
//! | Engine | Module | Paper reference |
//! |---|---|---|
//! | mean / variance | [`welford`] | "mean, variance" boxes in Fig. 2 |
//! | k-means | [`kmeans`] | "k-means" box in Fig. 2 |
//! | smoothing | [`filter`] | "filtered simulation results" in Fig. 2 |
//! | peak & period detection | [`period`] | "compute the period of each oscillation" |
//! | histogram | [`histogram`] | StochSimGPU-style population histograms |
//! | moment merging | [`merge`] | StochKit-FF-style sharded farms |

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod filter;
pub mod histogram;
pub mod kmeans;
pub mod merge;
pub mod period;
pub mod welford;

pub use filter::savitzky_golay;
pub use histogram::Histogram;
pub use kmeans::{bimodality_ratio, kmeans1d, kmeans1d_counts, Clustering, KMeansScratch};
pub use merge::Mergeable;
pub use period::{analyse_period, find_peaks, Peak, PeriodAnalysis};
pub use welford::Running;
