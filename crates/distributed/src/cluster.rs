//! Discrete-event model of the paper's Fig. 2 pipeline on one or more
//! hosts.
//!
//! "The simulation pipeline was changed to a farm of simulation pipelines
//! that can be run on different platforms. Each farm receives simulation
//! parameters from the node in charge of the generation of simulation
//! tasks, and feeds the alignment of trajectories node with a stream of
//! results." (§IV-B)
//!
//! The model: every host runs a local farm of simulation engines over its
//! cores, executing quanta on demand with feedback rescheduling; instances
//! are partitioned across hosts proportionally to host capacity
//! (parameters are shipped once — cheap). Each completed quantum produces
//! a sample batch for host 0, where a single alignment thread re-groups
//! samples into cuts and a farm of statistical engines analyses complete
//! cuts. Host 0's own batches go straight to alignment; every other host's
//! cross its uplink (a serialised link with latency, bandwidth and
//! per-message overhead from the [`NetworkProfile`]). Hosts may be
//! heterogeneous ([`HostProfile`] per host), which is how the paper's
//! EC2 + Nehalem + Sandy Bridge experiment (Fig. 6 bottom) is deployed;
//! the multicore simulator of Fig. 3 is the one-host case
//! ([`ClusterParams::single_host`]).
//!
//! The workload matrix comes from real engine runs ([`WorkloadTrace`]),
//! the unit costs from measurements ([`CostModel`]), so the model's only
//! synthetic inputs are core counts, speeds and links. The Fig. 3 shape
//! emerges by itself: analysis work per cut grows with the number of
//! trajectories, so with one statistical engine the analysis stage
//! saturates for large datasets, and a farm of 4 restores scalability.

use std::collections::VecDeque;

use desim::Scheduler;

use crate::platform::{HostProfile, NetworkProfile};
use crate::workload::{CostModel, WorkloadTrace};

/// Parameters of one simulation of the pipeline on a set of hosts.
#[derive(Debug, Clone)]
pub struct ClusterParams {
    /// Participating hosts; host 0 also runs alignment and analysis.
    pub hosts: Vec<HostProfile>,
    /// Interconnect from every other host to host 0.
    pub network: NetworkProfile,
    /// Statistical engines on host 0.
    pub stat_engines: usize,
    /// Measured unit costs on the reference core.
    pub costs: CostModel,
    /// Fixed scheduling overhead per dispatched quantum.
    pub dispatch_overhead_s: f64,
    /// `None` (default): alignment and statistics run on their own cores
    /// next to host 0's simulation cores. `Some(n)`: host 0's simulation
    /// engines, alignment and statistics all compete for one pool of `n`
    /// cores — the right model for a small VM where the whole pipeline
    /// shares four cores (the paper's Fig. 5, whose speedup tops out at
    /// 3.15/4 because of "the additional work done by the on-line
    /// alignment of trajectories"). A VM keeps all its cores when fewer
    /// simulation workers run: analysis then overlaps for free, which is
    /// why the 1-worker baseline excludes analysis time.
    pub shared_pool: Option<usize>,
}

impl ClusterParams {
    /// `hosts` on `network`, with the paper's default of 4 statistical
    /// engines on dedicated cores, nominal costs and a 2 µs dispatch.
    pub fn new(hosts: Vec<HostProfile>, network: NetworkProfile) -> Self {
        ClusterParams {
            hosts,
            network,
            stat_engines: 4,
            costs: CostModel::nominal(),
            dispatch_overhead_s: 2e-6,
            shared_pool: None,
        }
    }

    /// A homogeneous cluster of `n` copies of `host` on `network`.
    pub fn homogeneous(n: usize, host: HostProfile, network: NetworkProfile) -> Self {
        Self::new(vec![host; n], network)
    }

    /// The multicore simulator (Fig. 3): one `host` with `sim_workers`
    /// simulation engines and `stat_engines` statistical engines. No batch
    /// crosses the network, so its profile is immaterial.
    pub fn single_host(host: HostProfile, sim_workers: usize, stat_engines: usize) -> Self {
        let host = HostProfile {
            cores: sim_workers,
            ..host
        };
        ClusterParams {
            stat_engines,
            ..Self::new(vec![host], NetworkProfile::ipoib())
        }
    }
}

/// Timing outcome of the model.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterOutcome {
    /// Wall-clock makespan.
    pub makespan_s: f64,
    /// Aggregate simulation busy time (normalised to reference-core
    /// seconds, i.e. the work a 1.0-speed core would need).
    pub sim_work_s: f64,
    /// Alignment busy time on host 0.
    pub align_busy_s: f64,
    /// Aggregate statistical-engine busy time on host 0.
    pub stat_busy_s: f64,
    /// Total time batches of hosts other than host 0 occupied uplinks.
    pub net_busy_s: f64,
    /// Sample batches sent to alignment, one per simulated quantum —
    /// host 0's included, though they cross no link.
    pub messages: u64,
    /// Cuts analysed.
    pub cuts: u64,
}

impl ClusterOutcome {
    /// Single-reference-core execution time of all work (speedup baseline
    /// "w.r.t. aggregated number of cores").
    pub fn sequential_time_s(&self) -> f64 {
        self.sim_work_s + self.align_busy_s + self.stat_busy_s
    }

    /// Speedup over the sequential single-core execution.
    pub fn speedup(&self) -> f64 {
        self.sequential_time_s() / self.makespan_s
    }
}

/// One quantum's samples of one instance, on its way to alignment.
#[derive(Debug, Clone, Copy)]
struct Batch {
    instance: usize,
    samples: u64,
}

#[derive(Debug)]
enum Ev {
    SimDone { host: usize, instance: usize },
    LinkFree { host: usize },
    BatchArrives(Batch),
    AlignDone,
    StatDone,
}

struct HostState {
    /// Instances ready for a simulation core (FIFO = on-demand + feedback).
    ready: VecDeque<usize>,
    busy: usize,
    link_queue: VecDeque<Batch>,
    link_busy: bool,
}

struct ClusterWorld<'a> {
    trace: &'a WorkloadTrace,
    p: &'a ClusterParams,
    /// Per-instance next quantum index.
    next_quantum: Vec<usize>,
    hosts: Vec<HostState>,
    align_queue: VecDeque<Batch>,
    align_busy: bool,
    /// Per-cut fill counts.
    cut_fill: Vec<u64>,
    next_cut: usize,
    /// Complete cuts waiting for a statistical engine.
    stat_queued: u64,
    stat_busy: usize,
    cuts_done: u64,
    /// Per-instance samples aligned so far: the instance's next cut slot.
    samples_aligned: Vec<u64>,
    // accounting
    sim_work_s: f64,
    align_busy_s: f64,
    stat_busy_s: f64,
    net_busy_s: f64,
    messages: u64,
}

impl<'a> ClusterWorld<'a> {
    fn new(trace: &'a WorkloadTrace, p: &'a ClusterParams) -> Self {
        let n = trace.instances as usize;
        // Partition instances proportionally to host capacity.
        let capacities: Vec<f64> = p
            .hosts
            .iter()
            .map(|h| h.cores as f64 * h.core_rate())
            .collect();
        let total_cap: f64 = capacities.iter().sum();
        let mut owner = vec![0usize; n];
        let mut boundaries = Vec::with_capacity(p.hosts.len());
        let mut acc = 0.0;
        for c in &capacities {
            acc += c;
            boundaries.push((acc / total_cap * n as f64).round() as usize);
        }
        let mut lo = 0;
        for (h, &hi) in boundaries.iter().enumerate() {
            for slot in owner.iter_mut().take(hi.min(n)).skip(lo) {
                *slot = h;
            }
            lo = hi.min(n);
        }
        let hosts = (0..p.hosts.len())
            .map(|h| HostState {
                ready: (0..n).filter(|&i| owner[i] == h).collect(),
                busy: 0,
                link_queue: VecDeque::new(),
                link_busy: false,
            })
            .collect();
        ClusterWorld {
            trace,
            p,
            next_quantum: vec![0; n],
            hosts,
            align_queue: VecDeque::new(),
            align_busy: false,
            cut_fill: vec![0; trace.samples_per_instance as usize],
            next_cut: 0,
            stat_queued: 0,
            stat_busy: 0,
            cuts_done: 0,
            samples_aligned: vec![0; n],
            sim_work_s: 0.0,
            align_busy_s: 0.0,
            stat_busy_s: 0.0,
            net_busy_s: 0.0,
            messages: 0,
        }
    }

    /// Samples an instance produces in quantum `q` (uniform grid split:
    /// the first quanta carry the remainder).
    fn samples_in_quantum(&self, q: usize) -> u64 {
        let total = self.trace.samples_per_instance;
        let quanta = self.trace.quanta as u64;
        total / quanta + u64::from((q as u64) < total % quanta)
    }

    /// Whether host 0's stages may take one more core: always, unless
    /// they share a pool.
    fn pool_has_core(&self) -> bool {
        self.p.shared_pool.map_or(true, |cores| {
            self.hosts[0].busy + usize::from(self.align_busy) + self.stat_busy < cores
        })
    }

    fn try_start_all(&mut self, sched: &mut Scheduler<Ev>) {
        // Analysis stages get priority on host 0: draining the stream
        // keeps the pipeline's memory footprint bounded, which is how the
        // real scheduler behaves under backpressure.
        self.try_start_align(sched);
        self.try_start_stat(sched);
        for host in 0..self.hosts.len() {
            self.try_start_sim(host, sched);
            self.try_start_link(host, sched);
        }
    }

    fn try_start_sim(&mut self, host: usize, sched: &mut Scheduler<Ev>) {
        let profile = &self.p.hosts[host];
        while self.hosts[host].busy < profile.cores && (host != 0 || self.pool_has_core()) {
            let Some(instance) = self.hosts[host].ready.pop_front() else {
                break;
            };
            let events = self.trace.events[self.next_quantum[instance]][instance];
            let work = events as f64 * self.p.costs.sec_per_event;
            let service = self.p.dispatch_overhead_s + work / profile.core_rate();
            self.hosts[host].busy += 1;
            self.sim_work_s += work; // reference-core seconds
            sched.schedule_in(service, Ev::SimDone { host, instance });
        }
    }

    fn try_start_link(&mut self, host: usize, sched: &mut Scheduler<Ev>) {
        if self.hosts[host].link_busy {
            return;
        }
        let Some(batch) = self.hosts[host].link_queue.pop_front() else {
            return;
        };
        let occupancy = self.p.network.occupancy(self.trace.mean_batch_bytes);
        self.hosts[host].link_busy = true;
        self.net_busy_s += occupancy;
        // The link frees after `occupancy`; the batch lands `latency` later.
        sched.schedule_in(occupancy, Ev::LinkFree { host });
        sched.schedule_in(
            occupancy + self.p.network.latency_s,
            Ev::BatchArrives(batch),
        );
    }

    fn try_start_align(&mut self, sched: &mut Scheduler<Ev>) {
        if self.align_busy || !self.pool_has_core() {
            return;
        }
        if let Some(batch) = self.align_queue.front() {
            let service = batch.samples as f64 * self.p.costs.sec_per_aligned_sample
                / self.p.hosts[0].core_rate();
            self.align_busy = true;
            self.align_busy_s += service;
            sched.schedule_in(service, Ev::AlignDone);
        }
    }

    fn try_start_stat(&mut self, sched: &mut Scheduler<Ev>) {
        while self.stat_queued > 0 && self.stat_busy < self.p.stat_engines && self.pool_has_core() {
            let service = self.trace.instances as f64
                * self.trace.values_per_sample as f64
                * self.p.costs.sec_per_stat_value
                / self.p.hosts[0].core_rate();
            self.stat_queued -= 1;
            self.stat_busy += 1;
            self.stat_busy_s += service;
            sched.schedule_in(service, Ev::StatDone);
        }
    }

    /// Handles one event, then starts whatever it unblocked.
    fn handle(&mut self, event: Ev, sched: &mut Scheduler<Ev>) {
        match event {
            Ev::SimDone { host, instance } => {
                self.hosts[host].busy -= 1;
                let batch = Batch {
                    instance,
                    samples: self.samples_in_quantum(self.next_quantum[instance]),
                };
                self.next_quantum[instance] += 1;
                if self.next_quantum[instance] < self.trace.quanta {
                    // Feedback: reschedule the incomplete task.
                    self.hosts[host].ready.push_back(instance);
                }
                self.messages += 1;
                if host == 0 {
                    self.align_queue.push_back(batch);
                } else {
                    self.hosts[host].link_queue.push_back(batch);
                }
            }
            Ev::LinkFree { host } => self.hosts[host].link_busy = false,
            Ev::BatchArrives(batch) => self.align_queue.push_back(batch),
            Ev::AlignDone => {
                self.align_busy = false;
                let Batch { instance, samples } =
                    self.align_queue.pop_front().expect("align had a job");
                // A link is FIFO and its latency fixed, so an instance's
                // batches align in the order it sent them: each fills the
                // instance's next `samples` cut slots.
                let start = self.samples_aligned[instance] as usize;
                for fill in self.cut_fill.iter_mut().skip(start).take(samples as usize) {
                    *fill += 1;
                }
                self.samples_aligned[instance] += samples;
                // Emit newly complete cuts in order.
                while self.next_cut < self.cut_fill.len()
                    && self.cut_fill[self.next_cut] >= self.trace.instances
                {
                    self.stat_queued += 1;
                    self.next_cut += 1;
                }
            }
            Ev::StatDone => {
                self.stat_busy -= 1;
                self.cuts_done += 1;
            }
        }
        self.try_start_all(sched);
    }
}

/// Runs the model over a workload trace.
///
/// # Panics
///
/// Panics on an empty host list, a host without cores, an empty trace or
/// zero statistical engines.
pub fn simulate_cluster(trace: &WorkloadTrace, params: &ClusterParams) -> ClusterOutcome {
    assert!(!params.hosts.is_empty(), "cluster needs at least one host");
    assert!(
        params.hosts.iter().all(|h| h.cores > 0),
        "every host needs at least one simulation worker"
    );
    assert!(trace.instances > 0, "trace has no instances");
    assert!(
        params.stat_engines > 0,
        "need at least one statistical engine"
    );
    let mut world = ClusterWorld::new(trace, params);
    let mut cal = Scheduler::new();
    world.try_start_all(&mut cal);
    while let Some(ev) = cal.pop() {
        world.handle(ev, &mut cal);
    }
    ClusterOutcome {
        makespan_s: cal.now(),
        sim_work_s: world.sim_work_s,
        align_busy_s: world.align_busy_s,
        stat_busy_s: world.stat_busy_s,
        net_busy_s: world.net_busy_s,
        messages: world.messages,
        cuts: world.cuts_done,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> WorkloadTrace {
        WorkloadTrace::synthetic(64, 16, 400.0)
    }

    fn cluster(n: usize, cores: usize, net: NetworkProfile) -> ClusterParams {
        ClusterParams::homogeneous(n, HostProfile::xeon12().with_cores(cores), net)
    }

    #[test]
    fn all_cuts_complete() {
        let t = trace();
        let out = simulate_cluster(&t, &cluster(2, 4, NetworkProfile::ipoib()));
        assert_eq!(out.cuts, t.samples_per_instance);
    }

    #[test]
    fn more_hosts_reduce_makespan() {
        let t = trace();
        let t1 = simulate_cluster(&t, &cluster(1, 4, NetworkProfile::ipoib())).makespan_s;
        let t4 = simulate_cluster(&t, &cluster(4, 4, NetworkProfile::ipoib())).makespan_s;
        let t8 = simulate_cluster(&t, &cluster(8, 4, NetworkProfile::ipoib())).makespan_s;
        assert!(t4 < t1 * 0.5, "t1 {t1} t4 {t4}");
        assert!(t8 < t4, "t4 {t4} t8 {t8}");
    }

    #[test]
    fn infiniband_beats_ethernet() {
        let t = WorkloadTrace {
            // Small batches, many messages: network-sensitive regime.
            mean_batch_bytes: 16_384.0,
            ..trace()
        };
        let ib = simulate_cluster(&t, &cluster(8, 12, NetworkProfile::ipoib()));
        let eth = simulate_cluster(&t, &cluster(8, 12, NetworkProfile::gigabit_ethernet()));
        assert!(
            ib.makespan_s <= eth.makespan_s,
            "IB {} vs Eth {}",
            ib.makespan_s,
            eth.makespan_s
        );
        assert!(ib.net_busy_s < eth.net_busy_s);
    }

    #[test]
    fn speedup_grows_with_aggregated_cores() {
        let t = trace();
        let s2 = simulate_cluster(&t, &cluster(1, 2, NetworkProfile::ipoib())).speedup();
        let s8 = simulate_cluster(&t, &cluster(4, 2, NetworkProfile::ipoib())).speedup();
        assert!(s8 > s2 * 2.0, "s2 {s2} s8 {s8}");
    }

    #[test]
    fn heterogeneous_deployment_uses_all_hosts() {
        let t = WorkloadTrace::synthetic(96, 16, 400.0);
        let params = ClusterParams::new(
            vec![
                HostProfile::ec2_quad(),
                HostProfile::nehalem32(),
                HostProfile::sandy_bridge16(),
            ],
            NetworkProfile::ec2(),
        );
        let out = simulate_cluster(&t, &params);
        assert_eq!(out.cuts, t.samples_per_instance);
        // 52 cores total; decent parallelism expected.
        assert!(out.speedup() > 10.0, "speedup {}", out.speedup());
    }

    #[test]
    fn messages_counted_per_quantum_batch() {
        let t = WorkloadTrace::synthetic(8, 4, 50.0);
        let out = simulate_cluster(&t, &cluster(2, 2, NetworkProfile::ipoib()));
        // 8 instances × 4 quanta = 32 batches.
        assert_eq!(out.messages, 32);
    }

    #[test]
    fn a_lagging_instance_holds_back_its_cuts() {
        // Instance 1 spends 1 s in its first quantum while instance 0
        // finishes both of its quanta at once. No cut is complete before
        // instance 1's first batch is aligned, so all 100 cuts' analysis
        // (2 instances × 3 values × 1 ms on one engine) comes after it.
        let t = WorkloadTrace {
            events: vec![vec![1, 1_000_000], vec![1, 1]],
            samples_per_instance: 100,
            ..WorkloadTrace::synthetic(2, 2, 1.0)
        };
        let costs = CostModel {
            sec_per_stat_value: 1e-3,
            ..CostModel::nominal()
        };
        let lag = 1_000_000.0 * costs.sec_per_event;
        let serial_stats = 100.0 * 2.0 * 3.0 * costs.sec_per_stat_value;
        // Reference-speed cores; on two hosts of one core each, instance
        // 1 is host 1's.
        let host = HostProfile::nehalem32();
        let one_host = ClusterParams::single_host(host.clone(), 2, 1);
        let two_hosts = ClusterParams::homogeneous(2, host.with_cores(1), NetworkProfile::ipoib());
        for mut p in [one_host, two_hosts] {
            p.costs = costs;
            p.stat_engines = 1;
            let out = simulate_cluster(&t, &p);
            assert_eq!(out.cuts, 100);
            assert!(
                out.makespan_s >= lag + serial_stats,
                "{} hosts: makespan {} < lag {lag} + stats {serial_stats}",
                p.hosts.len(),
                out.makespan_s
            );
        }
    }

    #[test]
    fn multi_host_runs_reproduce_their_goldens_bit_for_bit() {
        // (makespan_s.to_bits(), net_busy_s.to_bits(), messages): the
        // order of link, latency and alignment events across hosts, which
        // the one-host goldens in `multicore` never exercise.
        let four_hosts = cluster(4, 2, NetworkProfile::ipoib());
        // 1 MiB batches on gigabit Ethernet: the link is busy for all but
        // ~0.1 ms of the run.
        let link_bound = WorkloadTrace {
            mean_batch_bytes: 1_048_576.0,
            ..WorkloadTrace::synthetic(32, 16, 50.0)
        };
        let cases = [
            (
                "4 × xeon12(2) on IPoIB",
                simulate_cluster(&trace(), &four_hosts),
                (0x3fb1c07ea2a6d9b6, 0x3f7af494ae94f04a, 1024),
            ),
            (
                "2 × xeon12(4) on gigabit Ethernet",
                simulate_cluster(
                    &link_bound,
                    &cluster(2, 4, NetworkProfile::gigabit_ethernet()),
                ),
                (0x4002375b809e7e9e, 0x4002372452340807, 512),
            ),
            (
                "2 EC2 VMs + Nehalem + 2 Sandy Bridge",
                crate::cloud::heterogeneous(
                    &WorkloadTrace::synthetic(96, 16, 400.0),
                    crate::cloud::heterogeneous_deployment(2),
                    CostModel::nominal(),
                ),
                (0x3f990130271deef4, 0x3f8ba1d560a87002, 1536),
            ),
        ];
        for (name, out, (makespan, net, messages)) in cases {
            assert_eq!(
                (
                    out.makespan_s.to_bits(),
                    out.net_busy_s.to_bits(),
                    out.messages
                ),
                (makespan, net, messages),
                "{name}: makespan {} net {} vs {} {}",
                out.makespan_s,
                out.net_busy_s,
                f64::from_bits(makespan),
                f64::from_bits(net)
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one host")]
    fn empty_cluster_panics() {
        let t = trace();
        simulate_cluster(&t, &ClusterParams::new(vec![], NetworkProfile::ipoib()));
    }
}
