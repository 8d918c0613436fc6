//! Functional GPU offloading: `ff_mapCUDA` re-created.
//!
//! "The user intervention would amount to writing the CUDA code for a CUDA
//! kernel which runs a simulation quantum for a single instance, then
//! wrapping it into `ff_mapCUDA` nodes". [`DeviceMap`] is that wrapper: it
//! owns the set of resident simulation instances, advances all of them one
//! quantum per "kernel" under the barrier semantics of the CUDA execution
//! model (no outcome is visible until the whole kernel retires), and
//! returns both the *real* simulation results — each lane is the CPU
//! farm's own [`SimTask`], stepped by the same
//! [`SimTask::run_quantum`], so they are bit-identical to a CPU run with
//! the same seeds and engine kind — and the *simulated* device timing from
//! [`crate::executor::simulate_device_run`].

use std::sync::Arc;

use cwc::model::Model;
use gillespie::deps::ModelDeps;
use gillespie::engine::{EngineError, EngineKind};
use gillespie::task::{SampleBatch, SimTask};

use crate::device::DeviceSpec;
use crate::executor::{simulate_device_run, GpuRunReport, WarpPacking};

/// The device-resident map: all instances advance in lockstep quanta.
#[derive(Debug)]
pub struct DeviceMap {
    /// One task per lane, advanced lane by lane (a batched kind's groups
    /// are scalar direct-method tasks too, so its lanes are laid out like
    /// every other kind's).
    lanes: Vec<SimTask>,
    /// Event counts per executed kernel (the timing model's input).
    events_log: Vec<Vec<u64>>,
    /// Samples each thread buffers per kernel, Q/τ: what the timing
    /// model prices occupancy and transfers by.
    samples_per_quantum: f64,
}

impl DeviceMap {
    /// Loads `instances` trajectories of `model`, driven by the given
    /// engine kind, onto the device ([`EngineKind::Ssa`] is the paper's
    /// configuration).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] when `kind` cannot drive `model` (e.g.
    /// adaptive tau-leaping on a compartment model).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        kind: EngineKind,
        model: Arc<Model>,
        instances: u64,
        base_seed: u64,
        t_end: f64,
        quantum: f64,
        sample_period: f64,
    ) -> Result<Self, EngineError> {
        // Compile the model once for the whole device load; every lane's
        // engine shares the dependency graph.
        let deps = Arc::new(ModelDeps::compile(&model));
        let lanes = (0..instances)
            .map(|i| {
                SimTask::with_engine_deps(
                    kind,
                    Arc::clone(&model),
                    Arc::clone(&deps),
                    base_seed,
                    i,
                    t_end,
                    quantum,
                    sample_period,
                )
            })
            .collect::<Result<_, _>>()?;
        Ok(DeviceMap {
            lanes,
            events_log: Vec::new(),
            samples_per_quantum: quantum / sample_period,
        })
    }

    /// True when every instance reached the horizon.
    pub fn is_done(&self) -> bool {
        self.lanes.iter().all(SimTask::is_done)
    }

    /// Executes one kernel: every unfinished instance advances one quantum.
    ///
    /// Returns the batches of all instances (the kernel-wide barrier:
    /// nothing is returned until everything in the kernel finished, exactly
    /// the "collection of outcomes could not start until all the instances
    /// have completed the quantum" constraint). Like the CPU farm's
    /// workers, the map returns only the batches that
    /// [`SampleBatch::should_forward`].
    pub fn run_kernel(&mut self) -> Vec<SampleBatch> {
        let mut events = Vec::with_capacity(self.lanes.len());
        let mut outputs = Vec::with_capacity(self.lanes.len());
        for lane in &mut self.lanes {
            if lane.is_done() {
                // Its final batch has been returned already: it idles.
                events.push(0);
                continue;
            }
            let batch = lane.run_quantum_batch();
            events.push(batch.events);
            if batch.should_forward() {
                outputs.push(batch);
            }
        }
        self.events_log.push(events);
        outputs
    }

    /// Runs kernels until the horizon, returning all outputs.
    pub fn run_to_end(&mut self) -> Vec<SampleBatch> {
        let mut all = Vec::new();
        while !self.is_done() {
            all.extend(self.run_kernel());
        }
        all
    }

    /// Simulated device timing of the kernels executed so far, each
    /// thread buffering the Q/τ samples of its quantum.
    pub fn device_timing(&self, device: &DeviceSpec, packing: WarpPacking) -> GpuRunReport {
        simulate_device_run(&self.events_log, device, packing, self.samples_per_quantum)
    }

    /// Per-kernel event matrix (for external timing models, e.g. the CPU
    /// side of Table I).
    pub fn events_log(&self) -> &[Vec<u64>] {
        &self.events_log
    }

    /// Total SSA events fired across all instances.
    pub fn total_events(&self) -> u64 {
        self.events_log.iter().flatten().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biomodels::simple::decay;
    use gillespie::ssa::SampleClock;
    use gillespie::trajectory::Row;

    fn map() -> DeviceMap {
        DeviceMap::new(
            EngineKind::Ssa,
            Arc::new(decay(30, 1.0)),
            4,
            9,
            2.0,
            0.5,
            0.25,
        )
        .unwrap()
    }

    #[test]
    fn kernels_advance_lockstep() {
        let mut m = map();
        assert!(!m.is_done());
        m.run_kernel();
        assert_eq!(m.events_log().len(), 1);
        m.run_kernel();
        m.run_kernel();
        let last = m.run_kernel();
        assert_eq!(last.len(), 4);
        assert!(last.iter().all(|b| b.finished));
        assert!(m.is_done());
        // A kernel past the horizon finds every lane idle.
        assert!(m.run_kernel().is_empty());
        assert_eq!(m.events_log().last(), Some(&vec![0; 4]));
    }

    #[test]
    fn device_results_match_cpu_results_exactly() {
        // The same seeds on a plain engine must reproduce the device's
        // samples bit-for-bit, for every engine kind: offloading changes
        // *where*, not *what*.
        let model = Arc::new(decay(30, 1.0));
        for kind in [
            EngineKind::Ssa,
            EngineKind::AdaptiveTau { epsilon: 0.05 },
            EngineKind::Hybrid {
                epsilon: 0.05,
                threshold: 8.0,
            },
            // Batched lanes: scalar SSA engines, like `kind.build`.
            EngineKind::Batched { width: 3 },
        ] {
            let mut device =
                DeviceMap::new(kind, Arc::clone(&model), 4, 9, 2.0, 0.5, 0.25).unwrap();
            let outputs = device.run_to_end();

            for i in 0..4u64 {
                let mut engine = kind.build(Arc::clone(&model), 9, i).unwrap();
                let mut clock = SampleClock::new(0.0, 0.25);
                let mut expected = Vec::new();
                engine.run_sampled(2.0, &mut clock, |t, v| {
                    expected.push((t, Row::from_slice(v)))
                });
                let got: Vec<(f64, Row)> = outputs
                    .iter()
                    .filter(|o| o.instance == i)
                    .flat_map(|o| o.samples.clone())
                    .collect();
                assert_eq!(got, expected, "{kind}: instance {i}");
            }
        }
    }

    #[test]
    fn timing_reflects_executed_kernels() {
        let mut m = map();
        m.run_to_end();
        let device = DeviceSpec::tesla_k40(1e-6);
        let t = m.device_timing(&device, WarpPacking::RebalanceEachQuantum);
        assert!(t.total_s > 0.0);
        assert!(t.kernels >= 1);
        assert!(t.divergence >= 1.0);
        assert!(m.total_events() > 0);
    }

    #[test]
    fn timing_prices_the_lanes_sample_buffers() {
        // Q/τ = 2.0 / 0.5 = 4 samples per thread per kernel.
        let mut m = DeviceMap::new(
            EngineKind::Ssa,
            Arc::new(decay(30, 1.0)),
            4,
            9,
            8.0,
            2.0,
            0.5,
        )
        .unwrap();
        m.run_to_end();
        let device = DeviceSpec::tesla_k40(1e-6);
        for packing in [WarpPacking::Static, WarpPacking::RebalanceEachQuantum] {
            assert_eq!(
                m.device_timing(&device, packing),
                simulate_device_run(m.events_log(), &device, packing, 4.0)
            );
        }
        assert_ne!(
            m.device_timing(&device, WarpPacking::Static),
            simulate_device_run(m.events_log(), &device, WarpPacking::Static, 1.0),
            "the buffers cost transfer time"
        );
    }
}
