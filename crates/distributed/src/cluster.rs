//! Discrete-event model of the distributed CWC simulator.
//!
//! "The simulation pipeline was changed to a farm of simulation pipelines
//! that can be run on different platforms. Each farm receives simulation
//! parameters from the node in charge of the generation of simulation
//! tasks, and feeds the alignment of trajectories node with a stream of
//! results." (§IV-B)
//!
//! The model: every host runs a local farm of simulation engines over its
//! cores; instances are partitioned across hosts proportionally to host
//! capacity (parameters are shipped once — cheap). Each completed quantum
//! produces a sample batch that crosses the host's uplink (a serialised
//! link with latency, bandwidth and per-message overhead from the
//! [`NetworkProfile`]) to host 0, where the alignment thread and the farm
//! of statistical engines run, exactly as in the multicore model. Hosts
//! may be heterogeneous ([`HostProfile`] per host), which is how the
//! paper's EC2 + Nehalem + Sandy Bridge experiment (Fig. 6 bottom) is
//! deployed.

use std::collections::VecDeque;

use desim::{simulate, Scheduler, World};

use crate::platform::{HostProfile, NetworkProfile};
use crate::workload::{CostModel, WorkloadTrace};

/// Parameters of one cluster/cloud simulation.
#[derive(Debug, Clone)]
pub struct ClusterParams {
    /// Participating hosts; host 0 also runs alignment and analysis.
    pub hosts: Vec<HostProfile>,
    /// Interconnect between hosts (host 0's stages are reached through it).
    pub network: NetworkProfile,
    /// Statistical engines on host 0.
    pub stat_engines: usize,
    /// Measured unit costs on the reference core.
    pub costs: CostModel,
    /// Observable values per sample.
    pub values_per_sample: usize,
    /// Fixed scheduling overhead per dispatched quantum.
    pub dispatch_overhead_s: f64,
}

impl ClusterParams {
    /// A homogeneous cluster of `n` copies of `host` on `network`, with the
    /// paper's default of 4 statistical engines.
    pub fn homogeneous(n: usize, host: HostProfile, network: NetworkProfile) -> Self {
        ClusterParams {
            hosts: (0..n).map(|_| host.clone()).collect(),
            network,
            stat_engines: 4,
            costs: CostModel::nominal(),
            values_per_sample: 3,
            dispatch_overhead_s: 2e-6,
        }
    }

    /// Total cores across the deployment.
    pub fn total_cores(&self) -> usize {
        self.hosts.iter().map(|h| h.cores).sum()
    }
}

/// Timing outcome of the cluster model.
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
    /// Total time messages spent occupying uplinks.
    pub net_busy_s: f64,
    /// Messages shipped across the network.
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

#[derive(Debug)]
enum Ev {
    SimDone { host: usize, instance: usize },
    LinkFree { host: usize },
    BatchArrives { samples: u64 },
    AlignDone,
    StatDone,
}

struct HostState {
    ready: VecDeque<usize>,
    busy: usize,
    link_queue: VecDeque<u64>, // samples per queued batch
    link_busy: bool,
}

struct ClusterWorld<'a> {
    trace: &'a WorkloadTrace,
    p: &'a ClusterParams,
    next_quantum: Vec<usize>,
    hosts: Vec<HostState>,
    align_queue: VecDeque<u64>,
    align_busy: bool,
    cut_fill: Vec<u64>,
    next_cut: usize,
    stat_queue: VecDeque<usize>,
    stat_busy: usize,
    cuts_done: u64,
    samples_sent: Vec<u64>,
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
        let hosts = p
            .hosts
            .iter()
            .enumerate()
            .map(|(h, _)| HostState {
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
            stat_queue: VecDeque::new(),
            stat_busy: 0,
            cuts_done: 0,
            samples_sent: vec![0; n],
            sim_work_s: 0.0,
            align_busy_s: 0.0,
            stat_busy_s: 0.0,
            net_busy_s: 0.0,
            messages: 0,
        }
    }

    fn samples_in_quantum(&self, q: usize) -> u64 {
        let total = self.trace.samples_per_instance;
        let quanta = self.trace.quanta as u64;
        total / quanta + u64::from((q as u64) < total % quanta)
    }

    fn try_start_sim(&mut self, host: usize, sched: &mut Scheduler<Ev>) {
        let profile = &self.p.hosts[host];
        while self.hosts[host].busy < profile.cores {
            let Some(instance) = self.hosts[host].ready.pop_front() else {
                break;
            };
            let q = self.next_quantum[instance];
            let events = self.trace.events[q][instance];
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
        let Some(&samples) = self.hosts[host].link_queue.front() else {
            return;
        };
        // Host 0's own batches use shared memory, not the network.
        let (occupancy, latency) = if host == 0 {
            let shm = NetworkProfile::shared_memory();
            (
                shm.per_message_s + self.trace.mean_batch_bytes / shm.bandwidth_bps,
                shm.latency_s,
            )
        } else {
            (
                self.p.network.per_message_s
                    + self.trace.mean_batch_bytes / self.p.network.bandwidth_bps,
                self.p.network.latency_s,
            )
        };
        self.hosts[host].link_busy = true;
        self.net_busy_s += occupancy;
        self.messages += 1;
        // The link frees after `occupancy`; the batch lands `latency` later.
        sched.schedule_in(occupancy, Ev::LinkFree { host });
        sched.schedule_in(occupancy + latency, Ev::BatchArrives { samples });
    }

    fn try_start_align(&mut self, sched: &mut Scheduler<Ev>) {
        if self.align_busy {
            return;
        }
        if let Some(&samples) = self.align_queue.front() {
            let service =
                samples as f64 * self.p.costs.sec_per_aligned_sample / self.p.hosts[0].core_rate();
            self.align_busy = true;
            self.align_busy_s += service;
            sched.schedule_in(service, Ev::AlignDone);
        }
    }

    fn try_start_stat(&mut self, sched: &mut Scheduler<Ev>) {
        while self.stat_busy < self.p.stat_engines {
            if self.stat_queue.pop_front().is_none() {
                break;
            }
            let service = self.trace.instances as f64
                * self.p.values_per_sample as f64
                * self.p.costs.sec_per_stat_value
                / self.p.hosts[0].core_rate();
            self.stat_busy += 1;
            self.stat_busy_s += service;
            sched.schedule_in(service, Ev::StatDone);
        }
    }
}

/// The alignment stage needs to know which instance a batch belongs to;
/// since all instances march through the same uniform grid, tracking a
/// FIFO per arrival is equivalent — see `samples_sent` handling below.
impl World for ClusterWorld<'_> {
    type Event = Ev;

    fn handle(&mut self, _time: f64, event: Ev, sched: &mut Scheduler<Ev>) {
        match event {
            Ev::SimDone { host, instance } => {
                self.hosts[host].busy -= 1;
                let q = self.next_quantum[instance];
                let samples = self.samples_in_quantum(q);
                self.next_quantum[instance] += 1;
                if self.next_quantum[instance] < self.trace.quanta {
                    self.hosts[host].ready.push_back(instance);
                }
                // Cut slots are filled when the batch is aligned at host 0;
                // per-instance FIFO order on the link preserves the slot
                // mapping, so only the running total is tracked here.
                self.samples_sent[instance] += samples;
                self.hosts[host].link_queue.push_back(samples);
                self.try_start_sim(host, sched);
                self.try_start_link(host, sched);
            }
            Ev::LinkFree { host } => {
                self.hosts[host].link_busy = false;
                self.hosts[host].link_queue.pop_front();
                self.try_start_link(host, sched);
            }
            Ev::BatchArrives { samples } => {
                self.align_queue.push_back(samples);
                self.try_start_align(sched);
            }
            Ev::AlignDone => {
                self.align_busy = false;
                let samples = self.align_queue.pop_front().expect("align had a job");
                // Fill cut slots: with a uniform grid, each arriving batch
                // contributes one sample to `samples` consecutive cuts; the
                // earliest incomplete cuts fill first.
                let mut remaining = samples;
                let mut k = self.next_cut;
                while remaining > 0 && k < self.cut_fill.len() {
                    if self.cut_fill[k] < self.trace.instances {
                        self.cut_fill[k] += 1;
                        remaining -= 1;
                    }
                    k += 1;
                }
                while self.next_cut < self.cut_fill.len()
                    && self.cut_fill[self.next_cut] >= self.trace.instances
                {
                    self.stat_queue.push_back(self.next_cut);
                    self.next_cut += 1;
                }
                self.try_start_align(sched);
                self.try_start_stat(sched);
            }
            Ev::StatDone => {
                self.stat_busy -= 1;
                self.cuts_done += 1;
                self.try_start_stat(sched);
            }
        }
    }
}

/// Runs the cluster model over a workload trace.
///
/// # Panics
///
/// Panics on an empty host list or empty trace.
pub fn simulate_cluster(trace: &WorkloadTrace, params: &ClusterParams) -> ClusterOutcome {
    assert!(!params.hosts.is_empty(), "cluster needs at least one host");
    assert!(trace.instances > 0, "trace has no instances");
    assert!(
        params.stat_engines > 0,
        "need at least one statistical engine"
    );
    let mut world = ClusterWorld::new(trace, params);
    // Bootstrap every host's cores.
    let mut seed: Vec<(f64, Ev)> = Vec::new();
    for host in 0..params.hosts.len() {
        let profile = &params.hosts[host];
        while world.hosts[host].busy < profile.cores {
            let Some(instance) = world.hosts[host].ready.pop_front() else {
                break;
            };
            let q = world.next_quantum[instance];
            let events = trace.events[q][instance];
            let work = events as f64 * params.costs.sec_per_event;
            let service = params.dispatch_overhead_s + work / profile.core_rate();
            world.hosts[host].busy += 1;
            world.sim_work_s += work;
            seed.push((service, Ev::SimDone { host, instance }));
        }
    }
    let makespan = simulate(&mut world, seed);
    ClusterOutcome {
        makespan_s: makespan,
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
        let params = ClusterParams {
            hosts: vec![
                HostProfile::ec2_quad(),
                HostProfile::nehalem32(),
                HostProfile::sandy_bridge16(),
            ],
            network: NetworkProfile::ec2(),
            stat_engines: 4,
            costs: CostModel::nominal(),
            values_per_sample: 3,
            dispatch_overhead_s: 2e-6,
        };
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
    #[should_panic(expected = "at least one host")]
    fn empty_cluster_panics() {
        let t = trace();
        let params = ClusterParams {
            hosts: vec![],
            network: NetworkProfile::ipoib(),
            stat_engines: 1,
            costs: CostModel::nominal(),
            values_per_sample: 3,
            dispatch_overhead_s: 0.0,
        };
        simulate_cluster(&t, &params);
    }
}
