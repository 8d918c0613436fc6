//! Discrete-event model of the multicore simulation-analysis pipeline.
//!
//! Reproduces the performance behaviour of the paper's Fig. 3 (and the CPU
//! column of Table I): `sim_workers` cores execute quanta on demand with
//! feedback rescheduling, a single alignment thread re-groups samples into
//! cuts, and a farm of `stat_engines` analyses complete cuts. The workload
//! matrix comes from real engine runs ([`crate::workload::WorkloadTrace`]),
//! the unit costs from measurements ([`crate::workload::CostModel`]), so
//! the model's only synthetic inputs are core counts and speeds.
//!
//! The characteristic Fig. 3 shape emerges naturally: analysis work per cut
//! grows with the number of trajectories, so with one statistical engine
//! the analysis stage saturates for large datasets ("the speedup decreases
//! with the dimension increasing of the dataset, because of the on-line
//! data filtering and analysis") — and a farm of 4 statistical engines
//! restores scalability.

use std::collections::VecDeque;

use desim::{simulate, Scheduler, World};

use crate::platform::HostProfile;
use crate::workload::{CostModel, WorkloadTrace};

/// Parameters of one multicore pipeline simulation.
#[derive(Debug, Clone)]
pub struct MulticoreParams {
    /// The machine.
    pub host: HostProfile,
    /// Cores devoted to simulation engines.
    pub sim_workers: usize,
    /// Cores devoted to statistical engines.
    pub stat_engines: usize,
    /// Measured unit costs.
    pub costs: CostModel,
    /// Observable values per sample (columns per trajectory per cut).
    pub values_per_sample: usize,
    /// Fixed scheduling overhead per dispatched quantum.
    pub dispatch_overhead_s: f64,
    /// When true (default), alignment and statistics run on their own
    /// cores next to the `sim_workers`. When false, *all* stages compete
    /// for one shared pool of [`pool_cores`](Self::pool_cores) cores — the
    /// right model for a small VM where the whole pipeline shares four
    /// cores (the paper's Fig. 5 setting, whose speedup tops out at 3.15/4
    /// because of "the additional work done by the on-line alignment of
    /// trajectories").
    pub dedicated_stages: bool,
    /// Size of the shared pool when `dedicated_stages` is false
    /// (`None` = same as `sim_workers`). A VM keeps all its cores even
    /// when fewer simulation workers run: analysis then overlaps for free,
    /// which is exactly why the 1-worker baseline excludes analysis time.
    pub pool_cores: Option<usize>,
}

impl MulticoreParams {
    /// Sensible defaults on the given host.
    pub fn new(host: HostProfile, sim_workers: usize, stat_engines: usize) -> Self {
        MulticoreParams {
            host,
            sim_workers,
            stat_engines,
            costs: CostModel::nominal(),
            values_per_sample: 3,
            dispatch_overhead_s: 2e-6,
            dedicated_stages: true,
            pool_cores: None,
        }
    }
}

/// Timing outcome of the pipeline model.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineOutcome {
    /// Wall-clock makespan of the run.
    pub makespan_s: f64,
    /// Aggregate busy time of the simulation cores.
    pub sim_busy_s: f64,
    /// Busy time of the alignment thread.
    pub align_busy_s: f64,
    /// Aggregate busy time of the statistical engines.
    pub stat_busy_s: f64,
    /// Cuts analysed.
    pub cuts: u64,
}

impl PipelineOutcome {
    /// Time a single core would need for the same work (the speedup
    /// baseline of Fig. 3).
    pub fn sequential_time_s(&self) -> f64 {
        self.sim_busy_s + self.align_busy_s + self.stat_busy_s
    }

    /// Speedup of this configuration over the sequential execution.
    pub fn speedup(&self) -> f64 {
        self.sequential_time_s() / self.makespan_s
    }
}

/// Service-completion events: each variant names the stage that finished.
#[derive(Debug)]
enum Ev {
    Sim { instance: usize },
    Align,
    Stat,
}

struct PipelineWorld<'a> {
    trace: &'a WorkloadTrace,
    p: &'a MulticoreParams,
    /// Per-instance next quantum index.
    next_quantum: Vec<usize>,
    /// Instances ready for a simulation core (FIFO = on-demand + feedback).
    ready: VecDeque<usize>,
    sim_busy: usize,
    /// Alignment job queue: number of samples per pending batch.
    align_queue: VecDeque<(usize, u64)>, // (instance, samples)
    align_busy: bool,
    /// Per-cut fill counts.
    cut_fill: Vec<u64>,
    next_cut_to_check: usize,
    /// Stat job queue (cut indices) and busy engines.
    stat_queue: VecDeque<usize>,
    stat_busy: usize,
    cuts_done: u64,
    /// Per-instance samples contributed so far (drives cut filling).
    samples_sent: Vec<u64>,
    // accounting
    sim_busy_s: f64,
    align_busy_s: f64,
    stat_busy_s: f64,
}

impl<'a> PipelineWorld<'a> {
    fn new(trace: &'a WorkloadTrace, p: &'a MulticoreParams) -> Self {
        let n = trace.instances as usize;
        PipelineWorld {
            trace,
            p,
            next_quantum: vec![0; n],
            ready: (0..n).collect(),
            sim_busy: 0,
            align_queue: VecDeque::new(),
            align_busy: false,
            cut_fill: vec![0; trace.samples_per_instance as usize],
            next_cut_to_check: 0,
            stat_queue: VecDeque::new(),
            stat_busy: 0,
            cuts_done: 0,
            samples_sent: vec![0; n],
            sim_busy_s: 0.0,
            align_busy_s: 0.0,
            stat_busy_s: 0.0,
        }
    }

    fn quantum_service(&self, instance: usize) -> f64 {
        let q = self.next_quantum[instance];
        let events = self.trace.events[q][instance];
        self.p.dispatch_overhead_s
            + events as f64 * self.p.costs.sec_per_event / self.p.host.core_rate()
    }

    /// Samples an instance produces in quantum `q` (uniform grid split).
    fn samples_in_quantum(&self, q: usize) -> u64 {
        let total = self.trace.samples_per_instance;
        let quanta = self.trace.quanta as u64;
        // Distribute `total` samples over `quanta` quanta as evenly as the
        // integer grid allows (first quanta carry the remainder).
        let base = total / quanta;
        let extra = total % quanta;
        base + u64::from((q as u64) < extra)
    }

    /// Cores currently taken from the shared pool (only meaningful when
    /// stages are not dedicated).
    fn pool_busy(&self) -> usize {
        self.sim_busy + usize::from(self.align_busy) + self.stat_busy
    }

    fn pool_capacity(&self) -> usize {
        self.p.pool_cores.unwrap_or(self.p.sim_workers)
    }

    fn pool_has_core(&self) -> bool {
        self.p.dedicated_stages || self.pool_busy() < self.pool_capacity()
    }

    fn try_start_all(&mut self, sched: &mut Scheduler<Ev>) {
        // Analysis stages get priority on the shared pool: draining the
        // stream keeps the pipeline's memory footprint bounded, which is
        // how the real scheduler behaves under backpressure.
        self.try_start_align(sched);
        self.try_start_stat(sched);
        self.try_start_sim(sched);
    }

    fn try_start_sim(&mut self, sched: &mut Scheduler<Ev>) {
        while self.sim_busy < self.p.sim_workers && self.pool_has_core() {
            let Some(instance) = self.ready.pop_front() else {
                break;
            };
            let service = self.quantum_service(instance);
            self.sim_busy += 1;
            self.sim_busy_s += service;
            sched.schedule_in(service, Ev::Sim { instance });
        }
    }

    fn try_start_align(&mut self, sched: &mut Scheduler<Ev>) {
        if self.align_busy || !self.pool_has_core() {
            return;
        }
        if let Some((_instance, samples)) = self.align_queue.front().copied() {
            let service =
                samples as f64 * self.p.costs.sec_per_aligned_sample / self.p.host.core_rate();
            self.align_busy = true;
            self.align_busy_s += service;
            sched.schedule_in(service, Ev::Align);
        }
    }

    fn try_start_stat(&mut self, sched: &mut Scheduler<Ev>) {
        while self.stat_busy < self.p.stat_engines && self.pool_has_core() {
            let Some(_cut) = self.stat_queue.pop_front() else {
                break;
            };
            let service = self.trace.instances as f64
                * self.p.values_per_sample as f64
                * self.p.costs.sec_per_stat_value
                / self.p.host.core_rate();
            self.stat_busy += 1;
            self.stat_busy_s += service;
            sched.schedule_in(service, Ev::Stat);
        }
    }
}

impl World for PipelineWorld<'_> {
    type Event = Ev;

    fn handle(&mut self, _time: f64, event: Ev, sched: &mut Scheduler<Ev>) {
        match event {
            Ev::Sim { instance } => {
                self.sim_busy -= 1;
                let q = self.next_quantum[instance];
                let samples = self.samples_in_quantum(q);
                self.next_quantum[instance] += 1;
                if self.next_quantum[instance] < self.trace.quanta {
                    // Feedback: reschedule the incomplete task.
                    self.ready.push_back(instance);
                }
                self.align_queue.push_back((instance, samples));
                self.try_start_all(sched);
            }
            Ev::Align => {
                self.align_busy = false;
                let (instance, samples) = self
                    .align_queue
                    .pop_front()
                    .expect("align completion without job");
                // Fill the instance's next `samples` cut slots.
                let start = self.samples_sent[instance] as usize;
                for k in start..start + samples as usize {
                    if k < self.cut_fill.len() {
                        self.cut_fill[k] += 1;
                    }
                }
                self.samples_sent[instance] += samples;
                // Emit newly complete cuts in order.
                while self.next_cut_to_check < self.cut_fill.len()
                    && self.cut_fill[self.next_cut_to_check] >= self.trace.instances
                {
                    self.stat_queue.push_back(self.next_cut_to_check);
                    self.next_cut_to_check += 1;
                }
                self.try_start_all(sched);
            }
            Ev::Stat => {
                self.stat_busy -= 1;
                self.cuts_done += 1;
                self.try_start_all(sched);
            }
        }
    }
}

/// Runs the pipeline model over a workload trace.
///
/// # Panics
///
/// Panics if the trace is empty or the parameters have zero workers.
pub fn simulate_multicore(trace: &WorkloadTrace, params: &MulticoreParams) -> PipelineOutcome {
    assert!(trace.instances > 0, "trace has no instances");
    assert!(
        params.sim_workers > 0,
        "need at least one simulation worker"
    );
    assert!(
        params.stat_engines > 0,
        "need at least one statistical engine"
    );
    let mut world = PipelineWorld::new(trace, params);
    // Fill all simulation cores with their first quantum; the event loop
    // takes over from there.
    let seed = bootstrap_initial_quanta(&mut world);
    let makespan = simulate(&mut world, seed);
    PipelineOutcome {
        makespan_s: makespan,
        sim_busy_s: world.sim_busy_s,
        align_busy_s: world.align_busy_s,
        stat_busy_s: world.stat_busy_s,
        cuts: world.cuts_done,
    }
}

/// Schedules the initial quantum completions (bootstrap).
fn bootstrap_initial_quanta(world: &mut PipelineWorld<'_>) -> Vec<(f64, Ev)> {
    let mut seed = Vec::new();
    while world.sim_busy < world.p.sim_workers {
        let Some(instance) = world.ready.pop_front() else {
            break;
        };
        let service = world.quantum_service(instance);
        world.sim_busy += 1;
        world.sim_busy_s += service;
        seed.push((service, Ev::Sim { instance }));
    }
    seed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> WorkloadTrace {
        WorkloadTrace::synthetic(64, 20, 200.0)
    }

    fn params(workers: usize, stats: usize) -> MulticoreParams {
        MulticoreParams::new(HostProfile::nehalem32(), workers, stats)
    }

    #[test]
    fn all_cuts_are_analysed() {
        let t = trace();
        let out = simulate_multicore(&t, &params(4, 1));
        assert_eq!(out.cuts, t.samples_per_instance);
    }

    #[test]
    fn more_workers_is_faster_up_to_saturation() {
        let t = trace();
        let t1 = simulate_multicore(&t, &params(1, 4)).makespan_s;
        let t4 = simulate_multicore(&t, &params(4, 4)).makespan_s;
        let t16 = simulate_multicore(&t, &params(16, 4)).makespan_s;
        assert!(t4 < t1 * 0.35, "t1 {t1} t4 {t4}");
        assert!(t16 < t4, "t4 {t4} t16 {t16}");
    }

    #[test]
    fn speedup_is_close_to_ideal_for_few_workers() {
        let t = trace();
        let out = simulate_multicore(&t, &params(4, 4));
        let s = out.speedup();
        assert!(s > 3.2 && s <= 4.2, "speedup {s}");
    }

    #[test]
    fn single_stat_engine_caps_large_ensembles() {
        // With many trajectories, analysis per cut ∝ instances; one stat
        // engine becomes the bottleneck while 4 push the knee out — the
        // Fig. 3 effect. A realistic sample density (Q/τ = 20) is needed
        // for the analysis stream to carry weight.
        let mut t = WorkloadTrace::synthetic(1024, 10, 30.0);
        t.samples_per_instance = 200;
        let one = simulate_multicore(&t, &params(24, 1));
        let four = simulate_multicore(&t, &params(24, 4));
        assert!(
            four.makespan_s < one.makespan_s * 0.85,
            "one {} four {}",
            one.makespan_s,
            four.makespan_s
        );
        assert!(four.speedup() > one.speedup());
    }

    #[test]
    fn sequential_time_dominates_any_parallel_makespan() {
        let t = trace();
        let out = simulate_multicore(&t, &params(8, 2));
        assert!(out.sequential_time_s() > out.makespan_s);
        assert!(out.speedup() > 1.0);
        // Speedup cannot exceed the used core count (sim + align + stat).
        assert!(out.speedup() <= (8 + 1 + 2) as f64 + 1e-9);
    }

    #[test]
    fn makespan_at_least_critical_path_of_one_instance() {
        let t = trace();
        let p = params(64, 8);
        let out = simulate_multicore(&t, &p);
        // The longest single instance cannot be split across cores.
        let longest: u64 = (0..t.instances as usize)
            .map(|i| t.events.iter().map(|row| row[i]).sum::<u64>())
            .max()
            .expect("non-empty");
        let floor = longest as f64 * p.costs.sec_per_event / p.host.core_rate();
        assert!(out.makespan_s >= floor * 0.99);
    }

    #[test]
    #[should_panic(expected = "at least one simulation worker")]
    fn zero_workers_panics() {
        let t = trace();
        simulate_multicore(&t, &params(0, 1));
    }
}
