//! The six named workloads: a model, a configuration and the runner that
//! a user of that deployment would call.
//!
//! Everything here goes through the umbrella-root API only (`SimConfig`
//! builder, `EngineKind`, `StatEngineKind`, `TransportKind`, the three
//! runners, `biomodels` constructors), so the gated end-to-end numbers
//! keep building while layer signatures churn underneath.

use std::sync::Arc;

use cwc_repro::biomodels::neurospora::{neurospora_flat, NeurosporaParams};
use cwc_repro::biomodels::simple::conversion_cycle;
use cwc_repro::cwc::model::Model;
use cwc_repro::distrt::shard::run_simulation_sharded;
use cwc_repro::{
    run_sequential, run_simulation, run_simulation_sharded_in_process, EngineKind, SimConfig,
    SimError, SimReport, StatEngineKind, TransportKind,
};

/// Farm workers of the system under test. Fixed, not derived from the
/// machine: the reference box has 2 cores, and a number read from `nproc`
/// would make two result files incomparable without saying so.
pub const SIM_WORKERS: usize = 2;
/// Stat-engine farm workers of the system under test (fixed, as above).
pub const STAT_WORKERS: usize = 1;

/// Which production entry point runs the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runner {
    /// `run_simulation`: the in-process farm + analysis pipeline.
    Farm,
    /// `distrt::shard::run_simulation_sharded`: real `cwc-shard` children.
    ShardedProcess,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why this workload exists: which layer it loads, which it bypasses.
    pub why: &'static str,
    /// Entry point under test.
    pub runner: Runner,
    model: fn() -> Model,
    config: fn() -> SimConfig,
}

/// Every workload, in report order.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "neuro_engine_farm",
        why: "Neurospora SSA, long quanta, sparse samples: engine stepping and farm scheduling do the work, analysis almost none",
        runner: Runner::Farm,
        model: neurospora,
        config: || {
            SimConfig::new(128, 80.0)
                .quantum(4.0)
                .sample_period(2.0)
                .window(5, 1)
        },
    },
    Workload {
        name: "neuro_analysis_stream",
        why: "1024 trajectories, dense samples, all four stat engines: hand-off, alignment, windows and statistics dominate (paper Fig. 3)",
        runner: Runner::Farm,
        model: neurospora,
        config: || {
            SimConfig::new(1024, 0.8)
                .quantum(0.1)
                .sample_period(0.002)
                .window(10, 1)
                .engines(vec![
                    StatEngineKind::MeanVariance,
                    StatEngineKind::KMeans { k: 2 },
                    StatEngineKind::Quantile { p: 0.5 },
                    StatEngineKind::Histogram {
                        lo: 0.0,
                        hi: 2000.0,
                        bins: 64,
                    },
                ])
        },
    },
    Workload {
        name: "wide_ssa_farm",
        why: "300-rule all-critical cycle on scalar SSA: the AoS ReactionTable and ModelDeps do the work; Neurospora's 6 rules bypass them",
        runner: Runner::Farm,
        model: || conversion_cycle(300, 1500, 1.0),
        config: || SimConfig::new(64, 14.0).quantum(1.0).sample_period(0.5),
    },
    Workload {
        name: "wide_batched_farm",
        why: "same 300-rule model on Batched{8}: SoA lockstep, batch kernels and the BatchSim farm stack, which the scalar workloads bypass",
        runner: Runner::Farm,
        model: || conversion_cycle(300, 1500, 1.0),
        config: || {
            SimConfig::new(128, 14.0)
                .quantum(1.0)
                .sample_period(0.5)
                .engine(EngineKind::batched(8).expect("width 8 is valid"))
        },
    },
    Workload {
        name: "wide_adaptive_leap",
        why: "300-rule cycle at 60000 molecules on AdaptiveTau: the leap-regime kernel path through the real farm, bypassed by every exact workload",
        runner: Runner::Farm,
        model: || conversion_cycle(300, 60_000, 1.0),
        config: || {
            SimConfig::new(64, 34.0)
                .quantum(10.0)
                .sample_period(5.0)
                .engine(EngineKind::adaptive_tau(0.03).expect("epsilon 0.03 is valid"))
        },
    },
    Workload {
        name: "neuro_shard_process",
        why: "2 cwc-shard child processes, dense cuts: wire codec, frames, CutMerger, summary merge and supervisor run only here",
        runner: Runner::ShardedProcess,
        model: neurospora,
        config: || {
            SimConfig::new(512, 16.0)
                .quantum(1.0)
                .sample_period(0.05)
                .shards(2)
                .transport(TransportKind::Process)
        },
    },
];

fn neurospora() -> Model {
    neurospora_flat(NeurosporaParams::default())
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Builds and validates the model — the first thing a fresh process
    /// pays, so it is part of `setup_s`.
    ///
    /// # Panics
    ///
    /// Panics when a built-in model fails validation (a bug in `biomodels`).
    pub fn model(&self) -> Arc<Model> {
        let model = (self.model)();
        model.validate().expect("built-in models are valid");
        Arc::new(model)
    }

    /// The run configuration for `seed`. `smoke` shrinks the horizon and
    /// the trajectory count about 20× in total, keeping every ratio
    /// (Q/τ, window geometry, engines, shards) that defines the regime.
    pub fn config(&self, seed: u64, smoke: bool) -> SimConfig {
        let mut cfg = (self.config)()
            .sim_workers(SIM_WORKERS)
            .stat_workers(STAT_WORKERS)
            .seed(seed);
        if smoke {
            cfg.instances = (cfg.instances / 4).max(4);
            cfg.t_end = (cfg.t_end / 5.0).max(cfg.quantum);
        }
        cfg
    }

    /// One complete run through the workload's production entry point.
    ///
    /// # Errors
    ///
    /// Whatever the runner returns.
    pub fn run(&self, model: Arc<Model>, cfg: &SimConfig) -> Result<SimReport, SimError> {
        match self.runner {
            Runner::Farm => run_simulation(model, cfg),
            Runner::ShardedProcess => run_simulation_sharded(model, cfg),
        }
    }

    /// The oracle run: `run_sequential` decides rows, events and names for
    /// every workload (for `wide_batched_farm` that is the scalar
    /// per-instance path by construction). A sharded run's `RunSummary`
    /// folds one partial per shard, so its floating-point merge order is
    /// only comparable at the same shard count: for the sharded workload
    /// the summary oracle is the in-process sharded runner, whose rows are
    /// in turn checked against `run_sequential`.
    ///
    /// # Errors
    ///
    /// Whatever the runners return.
    pub fn oracle(&self, model: Arc<Model>, cfg: &SimConfig) -> Result<Oracle, SimError> {
        let seq = run_sequential(Arc::clone(&model), cfg)?;
        let seq_wall_s = seq.wall.as_secs_f64();
        let digest = match self.runner {
            Runner::Farm => Digest::of(&seq),
            Runner::ShardedProcess => {
                let sharded = Digest::of(&run_simulation_sharded_in_process(model, cfg)?);
                assert_eq!(
                    sharded.rows,
                    Digest::of(&seq).rows,
                    "in-process sharded rows diverged from run_sequential"
                );
                sharded
            }
        };
        Ok(Oracle {
            digest,
            row_count: seq.rows.len(),
            events: seq.events,
            seq_wall_s,
        })
    }
}

/// What the oracle run established.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Oracle {
    /// Expected digest of every run of the workload.
    pub digest: Digest,
    /// Rows per report.
    pub row_count: usize,
    /// Reactions fired per run.
    pub events: u64,
    /// Wall time of the `run_sequential` pass.
    pub seq_wall_s: f64,
}

/// Bit-faithful fingerprint of a report's deterministic content, so runs
/// in other processes (the set-up probes) can be checked against the
/// oracle by exchanging two numbers. `Debug` prints every `f64` with its
/// shortest round-trip representation, so equal hashes mean equal bits
/// (up to FNV collisions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Hash over `rows`, `events` and `observable_names`.
    pub rows: u64,
    /// Hash over the merged `RunSummary`.
    pub summary: u64,
}

impl Digest {
    /// Fingerprints `report`.
    pub fn of(report: &SimReport) -> Digest {
        Digest {
            rows: fnv1a(&format!(
                "{:?}|{}|{:?}",
                report.rows, report.events, report.observable_names
            )),
            summary: fnv1a(&format!("{:?}", report.summary)),
        }
    }
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_a_valid_model_and_config() {
        for w in &WORKLOADS {
            for smoke in [false, true] {
                w.config(2014, smoke).validate().expect(w.name);
            }
            assert!(w.why.len() <= 200, "{}: why too long", w.name);
            assert!(!w.model().rules.is_empty());
        }
    }

    #[test]
    fn digest_separates_rows_from_summary_and_tracks_the_seed() {
        let w = by_name("neuro_engine_farm").unwrap();
        let model = w.model();
        let a = Digest::of(&run_sequential(Arc::clone(&model), &w.config(1, true)).unwrap());
        let again = Digest::of(&run_sequential(Arc::clone(&model), &w.config(1, true)).unwrap());
        let b = Digest::of(&run_sequential(model, &w.config(2, true)).unwrap());
        assert_eq!(a, again);
        assert_ne!(a.rows, b.rows);
        assert_ne!(a.summary, b.summary);
    }
}
