//! Device specifications for the SIMT execution-model simulator.
//!
//! The paper's GPGPU port targets an NVidia Tesla K40 (15 SMX, 2880 CUDA
//! cores) via CUDA Unified Memory. We do not have the silicon; what Table I
//! actually measures is the *execution model* — lockstep warps, divergence,
//! kernel-grain synchronisation, host–device transfer — so that is what
//! [`DeviceSpec`] parameterises.

/// Hardware parameters of a simulated SIMT device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, for reports.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sms: usize,
    /// Scalar lanes per SM (CUDA cores / SM).
    pub lanes_per_sm: usize,
    /// Threads per warp (lockstep granularity).
    pub warp_size: usize,
    /// Seconds one lane needs per SSA event (scalar speed of a lane).
    pub sec_per_event: f64,
    /// Fixed cost of launching one kernel (driver + dispatch).
    pub kernel_launch_s: f64,
    /// Fixed unified-memory migration latency per kernel.
    pub mem_latency_s: f64,
    /// Bytes of task state migrated per instance per kernel.
    pub bytes_per_instance: f64,
    /// Bytes migrated per buffered sample per instance per kernel (result
    /// rows travelling back through unified memory).
    pub bytes_per_sample: f64,
    /// Host–device bandwidth in bytes/second.
    pub bandwidth_bps: f64,
    /// On-chip budget (registers/local memory), in abstract units, that
    /// bounds how many threads can be resident at once.
    pub occupancy_budget: f64,
    /// Base on-chip footprint of one thread, in the same units.
    pub thread_base_footprint: f64,
    /// Additional footprint per buffered sample (one per τ within the
    /// quantum): larger quanta need larger per-thread result buffers, which
    /// lowers occupancy — the mechanism behind Table I's Q/τ sensitivity.
    pub sample_footprint: f64,
}

impl DeviceSpec {
    /// A Tesla-K40-like device, calibrated against a host CPU whose cores
    /// need `cpu_sec_per_event` seconds per SSA event.
    ///
    /// A K40 lane (745 MHz, in-order, no branch prediction) is taken to be
    /// ~3.3× slower than a ~2 GHz out-of-order Xeon core on this pointer-
    /// chasing workload; with 2880 lanes the aggregate throughput advantage
    /// is ≈ 27× over 32 cores *before* divergence losses — matching the
    /// ≈ 2× net win Table I reports once divergence is paid.
    pub fn tesla_k40(cpu_sec_per_event: f64) -> Self {
        DeviceSpec {
            name: "Tesla K40 (simulated)".to_owned(),
            sms: 15,
            lanes_per_sm: 192,
            warp_size: 32,
            sec_per_event: cpu_sec_per_event * 3.3,
            kernel_launch_s: 10e-6,
            mem_latency_s: 20e-6,
            bytes_per_instance: 64.0,
            bytes_per_sample: 64.0,
            bandwidth_bps: 8e9, // PCIe gen3 x16 effective
            // Calibrated so a 1-sample quantum keeps all 90 warp slots
            // resident while a 10-sample quantum leaves 30 (per-thread
            // result buffers eat registers/local memory).
            occupancy_budget: 4800.0,
            thread_base_footprint: 1.0,
            sample_footprint: 0.4,
        }
    }

    /// Total scalar lanes ("CUDA cores").
    pub fn total_lanes(&self) -> usize {
        self.sms * self.lanes_per_sm
    }

    /// Warps that can execute concurrently across the device.
    pub fn warp_slots(&self) -> usize {
        (self.total_lanes() / self.warp_size).max(1)
    }

    /// Warp slots actually usable when each thread buffers
    /// `samples_per_quantum` samples (occupancy limit).
    pub fn occupancy_warp_slots(&self, samples_per_quantum: f64) -> usize {
        let per_thread = self.thread_base_footprint + self.sample_footprint * samples_per_quantum;
        let resident_threads = (self.occupancy_budget / per_thread).floor() as usize;
        (resident_threads / self.warp_size).clamp(1, self.warp_slots())
    }

    /// Per-kernel overhead (launch + memory migration) for `n` resident
    /// instances each buffering `samples_per_quantum` samples.
    pub fn kernel_overhead_s(&self, instances: usize, samples_per_quantum: f64) -> f64 {
        let per_instance = self.bytes_per_instance + self.bytes_per_sample * samples_per_quantum;
        self.kernel_launch_s
            + self.mem_latency_s
            + (instances as f64 * per_instance) / self.bandwidth_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k40_has_2880_cores() {
        let d = DeviceSpec::tesla_k40(1e-6);
        assert_eq!(d.total_lanes(), 2880);
        assert_eq!(d.warp_slots(), 90);
    }

    #[test]
    fn lane_is_slower_than_cpu_core() {
        let d = DeviceSpec::tesla_k40(2e-6);
        assert!(d.sec_per_event > 2e-6);
    }

    #[test]
    fn occupancy_shrinks_with_quantum_size() {
        let d = DeviceSpec::tesla_k40(1e-6);
        assert_eq!(
            d.occupancy_warp_slots(1.0),
            90,
            "1-sample quanta keep full occupancy"
        );
        assert_eq!(
            d.occupancy_warp_slots(10.0),
            30,
            "10-sample quanta drop to a third"
        );
        assert!(d.occupancy_warp_slots(1000.0) >= 1);
    }

    #[test]
    fn overhead_grows_with_instances_and_samples() {
        let d = DeviceSpec::tesla_k40(1e-6);
        assert!(d.kernel_overhead_s(2048, 1.0) > d.kernel_overhead_s(128, 1.0));
        assert!(d.kernel_overhead_s(128, 10.0) > d.kernel_overhead_s(128, 1.0));
        assert!(d.kernel_overhead_s(0, 1.0) >= d.kernel_launch_s);
    }
}
