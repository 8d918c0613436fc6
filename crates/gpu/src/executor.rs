//! SIMT timing simulation of quantum-sliced SSA execution.
//!
//! The paper: "due to the atomic nature of the CUDA kernel execution model,
//! collection of outcomes for a simulation quantum could not start until
//! all the instances have completed the quantum" and "any divergence turns
//! into a performance penalty (thread stall). Due to very uneven execution
//! time of different trajectories (due to random walks of simulation time),
//! thread divergence turns into load balancing and eventually into
//! performance degradation."
//!
//! The model: one kernel per quantum. Threads (instances) execute their
//! quantum's events in lockstep warps — a warp costs the *maximum* of its
//! threads' event counts. Warps are list-scheduled onto the device's warp
//! slots. Between kernels, the stream scheduler may *re-pack* instances
//! into warps sorted by the previous quantum's intensity (the "load
//! re-balancing strategy after the computation of each quantum" that the
//! paper credits for making the same code tunable to GPU hardware):
//! because SSA event intensity is autocorrelated in time, sorting clusters
//! similar-progress instances into the same warp and cuts divergence.

use crate::device::DeviceSpec;

/// How instances are packed into warps between kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WarpPacking {
    /// Keep the initial instance order for the whole run.
    Static,
    /// Re-sort instances by the previous quantum's event count before each
    /// kernel (the paper's per-quantum load rebalancing).
    #[default]
    RebalanceEachQuantum,
}

/// Timing breakdown of one simulated GPU run.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuRunReport {
    /// Total wall time on the device.
    pub total_s: f64,
    /// Number of kernels launched (one per quantum).
    pub kernels: usize,
    /// Time spent computing (sum of kernel makespans).
    pub compute_s: f64,
    /// Time spent on fixed per-kernel overheads (launch + transfers).
    pub overhead_s: f64,
    /// Divergence factor ≥ 1: lane-time actually paid over lane-time that
    /// perfect intra-warp balance would pay.
    pub divergence: f64,
}

/// Simulates the device-side execution of a quantum-sliced run.
///
/// `events_per_quantum[q][i]` is the number of SSA events instance `i`
/// fires during quantum `q` (0 once the instance has finished). The same
/// matrix driven through the pipeline model on one host
/// (`distrt::cluster`) gives the CPU side of Table I, so both sides share
/// the *identical* workload.
///
/// Each thread holds `samples_per_quantum` results on chip, which lowers
/// warp occupancy (see [`DeviceSpec::occupancy_warp_slots`]) — the
/// mechanism that makes large quanta (high Q/τ) pay at high instance
/// counts in Table I. One sample per quantum is the unbuffered case.
pub fn simulate_device_run(
    events_per_quantum: &[Vec<u64>],
    device: &DeviceSpec,
    packing: WarpPacking,
    samples_per_quantum: f64,
) -> GpuRunReport {
    let instances = events_per_quantum.first().map(Vec::len).unwrap_or(0);
    let mut order: Vec<usize> = (0..instances).collect();
    let mut prev_events: Vec<u64> = vec![0; instances];

    let mut compute_s = 0.0;
    let mut overhead_s = 0.0;
    let mut paid_lane_events = 0u64; // Σ warps (warp_size × max)
    let mut useful_lane_events = 0u64; // Σ threads e_i

    for quantum in events_per_quantum {
        // Active instances this kernel (finished ones are not shipped).
        let active: Vec<usize> = order.iter().copied().filter(|&i| quantum[i] > 0).collect();
        if active.is_empty() {
            continue;
        }
        // Warp formation over the (possibly re-sorted) active instances.
        let warp_times: Vec<u64> = active
            .chunks(device.warp_size)
            .map(|warp| {
                let max = warp.iter().map(|&i| quantum[i]).max().expect("non-empty");
                paid_lane_events += max * warp.len() as u64;
                useful_lane_events += warp.iter().map(|&i| quantum[i]).sum::<u64>();
                max
            })
            .collect();
        // List-schedule warps onto the warp slots (greedy, deterministic).
        let slots = device.occupancy_warp_slots(samples_per_quantum);
        let mut slot_load = vec![0u64; slots.min(warp_times.len()).max(1)];
        for &w in &warp_times {
            let min = slot_load
                .iter_mut()
                .min_by_key(|l| **l)
                .expect("at least one slot");
            *min += w;
        }
        let makespan_events = slot_load.iter().copied().max().unwrap_or(0);
        compute_s += makespan_events as f64 * device.sec_per_event;
        overhead_s += device.kernel_overhead_s(active.len(), samples_per_quantum);

        // Rebalance for the next kernel.
        if packing == WarpPacking::RebalanceEachQuantum {
            for (i, e) in quantum.iter().enumerate() {
                prev_events[i] = *e;
            }
            order.sort_by(|&a, &b| prev_events[b].cmp(&prev_events[a]).then(a.cmp(&b)));
        }
    }

    let kernels = events_per_quantum
        .iter()
        .filter(|q| q.iter().any(|&e| e > 0))
        .count();
    GpuRunReport {
        total_s: compute_s + overhead_s,
        kernels,
        compute_s,
        overhead_s,
        divergence: if useful_lane_events == 0 {
            1.0
        } else {
            paid_lane_events as f64 / useful_lane_events as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> DeviceSpec {
        DeviceSpec::tesla_k40(1e-6)
    }

    #[test]
    fn uniform_work_has_no_divergence() {
        let events = vec![vec![100u64; 64]; 4];
        let r = simulate_device_run(&events, &device(), WarpPacking::Static, 1.0);
        assert!((r.divergence - 1.0).abs() < 1e-12);
        assert_eq!(r.kernels, 4);
        // 64 instances = 2 warps ≤ 90 slots -> makespan = 100 events/kernel.
        let expected_compute = 4.0 * 100.0 * device().sec_per_event;
        assert!((r.compute_s - expected_compute).abs() < 1e-12);
    }

    #[test]
    fn divergence_grows_with_skew() {
        // One hot thread per warp: warp pays the max for everyone.
        let mut quantum = vec![10u64; 32];
        quantum[0] = 1000;
        let r = simulate_device_run(&[quantum], &device(), WarpPacking::Static, 1.0);
        assert!(r.divergence > 2.0, "divergence {}", r.divergence);
    }

    #[test]
    fn rebalancing_cuts_divergence_for_autocorrelated_load() {
        // Two intensity classes interleaved: static packing mixes them in
        // every warp, so every warp pays the hot-thread maximum.
        // Rebalancing separates the classes after the first quantum. The
        // wall-time benefit appears when warps outnumber the 90 warp slots
        // (here 8192 threads = 256 warps), because homogeneous cheap warps
        // stop occupying slots for the hot ones.
        let quanta: Vec<Vec<u64>> = (0..20)
            .map(|_| {
                (0..8192)
                    .map(|i| if i % 2 == 0 { 10u64 } else { 1000 })
                    .collect()
            })
            .collect();
        let stat = simulate_device_run(&quanta, &device(), WarpPacking::Static, 1.0);
        let reb = simulate_device_run(&quanta, &device(), WarpPacking::RebalanceEachQuantum, 1.0);
        assert!(
            reb.total_s < stat.total_s * 0.85,
            "rebalanced {} vs static {}",
            reb.total_s,
            stat.total_s
        );
        // The pure compute benefit is larger; fixed per-kernel overheads
        // (launch + unified-memory migration) dilute it in total_s.
        assert!(
            reb.compute_s < stat.compute_s * 0.72,
            "compute: rebalanced {} vs static {}",
            reb.compute_s,
            stat.compute_s
        );
        assert!(reb.divergence < stat.divergence);
    }

    #[test]
    fn rebalancing_cannot_beat_the_global_straggler_below_slot_count() {
        // With fewer warps than slots the kernel ends when the slowest warp
        // does; packing cannot hide a single globally hot thread — the
        // paper's "GPGPU succeed[s] to exploit only a fraction of its peak
        // power" effect.
        let quanta: Vec<Vec<u64>> = (0..5)
            .map(|_| {
                (0..256)
                    .map(|i| if i == 0 { 5000u64 } else { 10 })
                    .collect()
            })
            .collect();
        let stat = simulate_device_run(&quanta, &device(), WarpPacking::Static, 1.0);
        let reb = simulate_device_run(&quanta, &device(), WarpPacking::RebalanceEachQuantum, 1.0);
        assert!((stat.compute_s - reb.compute_s).abs() < 1e-12);
        let floor = 5.0 * 5000.0 * device().sec_per_event;
        assert!((stat.compute_s - floor).abs() < 1e-9);
    }

    #[test]
    fn finished_instances_leave_the_device() {
        // Instance 1 finishes after the first quantum; later kernels ship
        // only instance 0.
        let events = vec![vec![100, 100], vec![100, 0], vec![100, 0]];
        let r = simulate_device_run(&events, &device(), WarpPacking::Static, 1.0);
        assert_eq!(r.kernels, 3);
        // Overhead for kernel 1 covers 2 instances; kernels 2-3 only 1.
        let d = device();
        let expected = d.kernel_overhead_s(2, 1.0) + 2.0 * d.kernel_overhead_s(1, 1.0);
        assert!((r.overhead_s - expected).abs() < 1e-12);
    }

    #[test]
    fn more_warps_than_slots_serialise() {
        // 90 slots; 180 uniform warps -> two rounds.
        let instances = 180 * 32;
        let events = vec![vec![50u64; instances]];
        let r = simulate_device_run(&events, &device(), WarpPacking::Static, 1.0);
        let expected_compute = 2.0 * 50.0 * device().sec_per_event;
        assert!((r.compute_s - expected_compute).abs() < 1e-9);
    }

    #[test]
    fn empty_run_is_zero() {
        let r = simulate_device_run(&[], &device(), WarpPacking::Static, 1.0);
        assert_eq!(r.total_s, 0.0);
        assert_eq!(r.kernels, 0);
        assert_eq!(r.divergence, 1.0);
    }
}
