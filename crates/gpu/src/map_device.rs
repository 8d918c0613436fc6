//! Functional GPU offloading: `ff_mapCUDA` re-created.
//!
//! "The user intervention would amount to writing the CUDA code for a CUDA
//! kernel which runs a simulation quantum for a single instance, then
//! wrapping it into `ff_mapCUDA` nodes". [`DeviceMap`] is that wrapper: it
//! owns the set of resident simulation instances, advances all of them one
//! quantum per "kernel" under the barrier semantics of the CUDA execution
//! model (no outcome is visible until the whole kernel retires), and
//! returns both the *real* simulation results — computed by the actual
//! engines behind the [`Engine`] abstraction, so they are bit-identical to
//! a CPU run with the same seeds and engine kind — and the *simulated*
//! device timing from [`crate::executor::simulate_device_run`].

use std::sync::Arc;

use cwc::model::Model;
use gillespie::engine::{Engine, EngineError, EngineKind};
use gillespie::ssa::SampleClock;

use crate::device::DeviceSpec;
use crate::executor::{simulate_device_run, GpuRunReport, WarpPacking};

/// A batch of samples produced by one instance during one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelOutput {
    /// Instance id.
    pub instance: u64,
    /// `(grid time, observable values)` pairs produced in the quantum.
    pub samples: Vec<(f64, Vec<u64>)>,
}

/// The device-resident map: all instances advance in lockstep quanta.
#[derive(Debug)]
pub struct DeviceMap {
    /// One engine per lane, advanced lane by lane (a batched kind's
    /// groups are scalar direct-method engines too, so its lanes are
    /// laid out like every other kind's).
    lanes: Vec<Engine>,
    clocks: Vec<SampleClock>,
    t_end: f64,
    quantum: f64,
    /// Event counts per executed kernel (the timing model's input).
    events_log: Vec<Vec<u64>>,
    time: f64,
}

impl DeviceMap {
    /// Loads `instances` direct-method (SSA) trajectories of `model` onto
    /// the device — the paper's configuration.
    pub fn new(
        model: Arc<Model>,
        instances: u64,
        base_seed: u64,
        t_end: f64,
        quantum: f64,
        sample_period: f64,
    ) -> Self {
        Self::with_engine(
            EngineKind::Ssa,
            model,
            instances,
            base_seed,
            t_end,
            quantum,
            sample_period,
        )
        .expect("SSA engine construction is infallible")
    }

    /// Loads `instances` trajectories driven by the given engine kind.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] when `kind` cannot drive `model` (e.g.
    /// adaptive tau-leaping on a compartment model).
    #[allow(clippy::too_many_arguments)]
    pub fn with_engine(
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
        let deps = Arc::new(gillespie::deps::ModelDeps::compile(&model));
        let lanes = (0..instances)
            .map(|i| kind.build_with_deps(Arc::clone(&model), Arc::clone(&deps), base_seed, i))
            .collect::<Result<_, _>>()?;
        let clocks = (0..instances)
            .map(|_| SampleClock::new(0.0, sample_period))
            .collect();
        Ok(DeviceMap {
            lanes,
            clocks,
            t_end,
            quantum,
            events_log: Vec::new(),
            time: 0.0,
        })
    }

    /// True when every instance reached the horizon.
    pub fn is_done(&self) -> bool {
        self.time >= self.t_end
    }

    /// Executes one kernel: every unfinished instance advances one quantum.
    ///
    /// Returns the outputs of all instances (the kernel-wide barrier:
    /// nothing is returned until everything in the kernel finished, exactly
    /// the "collection of outcomes could not start until all the instances
    /// have completed the quantum" constraint).
    pub fn run_kernel(&mut self) -> Vec<KernelOutput> {
        let horizon = (self.time + self.quantum).min(self.t_end);
        let mut events = vec![0u64; self.clocks.len()];
        let mut outputs = Vec::with_capacity(self.clocks.len());
        for (i, engine) in self.lanes.iter_mut().enumerate() {
            // The "kernel" only needs advance-one-quantum, whatever the
            // integrator.
            let outcome = engine.advance_quantum(horizon, &mut self.clocks[i]);
            events[i] = outcome.events;
            if !outcome.samples.is_empty() {
                outputs.push(KernelOutput {
                    instance: engine.instance(),
                    samples: outcome.samples,
                });
            }
        }
        self.events_log.push(events);
        self.time = horizon;
        outputs
    }

    /// Runs kernels until the horizon, returning all outputs.
    pub fn run_to_end(&mut self) -> Vec<KernelOutput> {
        let mut all = Vec::new();
        while !self.is_done() {
            all.extend(self.run_kernel());
        }
        all
    }

    /// Simulated device timing of the kernels executed so far.
    pub fn device_timing(&self, device: &DeviceSpec, packing: WarpPacking) -> GpuRunReport {
        simulate_device_run(&self.events_log, device, packing)
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

    fn map() -> DeviceMap {
        DeviceMap::new(Arc::new(decay(30, 1.0)), 4, 9, 2.0, 0.5, 0.25)
    }

    #[test]
    fn kernels_advance_lockstep() {
        let mut m = map();
        assert!(!m.is_done());
        m.run_kernel();
        assert_eq!(m.events_log().len(), 1);
        m.run_kernel();
        m.run_kernel();
        m.run_kernel();
        assert!(m.is_done());
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
                DeviceMap::with_engine(kind, Arc::clone(&model), 4, 9, 2.0, 0.5, 0.25).unwrap();
            let outputs = device.run_to_end();

            for i in 0..4u64 {
                let mut engine = kind.build(Arc::clone(&model), 9, i).unwrap();
                let mut clock = SampleClock::new(0.0, 0.25);
                let expected = engine.advance_quantum(2.0, &mut clock).samples;
                let got: Vec<(f64, Vec<u64>)> = outputs
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
}
