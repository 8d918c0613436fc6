//! Host, VM and network profiles of the paper's testbeds.
//!
//! Performance section of the paper, §V: a 32-core Nehalem workstation, an
//! Infiniband (IPoIB) cluster of 12-thread Xeons, Amazon EC2 quad-core VMs
//! and two 16-core Sandy Bridge workstations. These profiles capture the
//! parameters that shape the curves — core counts, relative per-core
//! speed, virtualisation overhead, link latency/bandwidth — not the
//! microarchitecture.

/// A (possibly virtual) machine profile.
#[derive(Debug, Clone, PartialEq)]
pub struct HostProfile {
    /// Display name.
    pub name: String,
    /// Usable cores for simulation work.
    pub cores: usize,
    /// Per-core speed relative to the reference core (1.0 = Nehalem).
    pub speed: f64,
    /// Fractional throughput loss to virtualisation (0 for bare metal).
    pub virt_overhead: f64,
}

impl HostProfile {
    /// Effective events-per-second multiplier of one core.
    pub fn core_rate(&self) -> f64 {
        self.speed * (1.0 - self.virt_overhead)
    }

    /// The paper's 4 × 8-core Nehalem E7-4820 workstation (32 cores).
    pub fn nehalem32() -> Self {
        HostProfile {
            name: "Intel Nehalem 32-core".into(),
            cores: 32,
            speed: 1.0,
            virt_overhead: 0.0,
        }
    }

    /// One 16-core Sandy Bridge workstation (the heterogeneous experiment
    /// uses two). Slightly faster per core than Nehalem.
    pub fn sandy_bridge16() -> Self {
        HostProfile {
            name: "Intel Sandy Bridge 16-core".into(),
            cores: 16,
            speed: 1.25,
            virt_overhead: 0.0,
        }
    }

    /// One cluster node: 2 × six-core Xeon X5670 @3.0 GHz.
    pub fn xeon12() -> Self {
        HostProfile {
            name: "Xeon X5670 12-core node".into(),
            cores: 12,
            speed: 1.2,
            virt_overhead: 0.0,
        }
    }

    /// An EC2 quad-core VM (Intel E5-2670 with virtualisation overhead).
    pub fn ec2_quad() -> Self {
        HostProfile {
            name: "EC2 quad-core VM".into(),
            cores: 4,
            speed: 1.1,
            virt_overhead: 0.08,
        }
    }

    /// Restricts the profile to `cores` cores (e.g. "2 cores per host").
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or exceeds the profile's cores.
    pub fn with_cores(mut self, cores: usize) -> Self {
        assert!(cores > 0 && cores <= self.cores, "invalid core restriction");
        self.cores = cores;
        self
    }
}

/// A network link profile.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkProfile {
    /// Display name.
    pub name: String,
    /// One-way message latency in seconds.
    pub latency_s: f64,
    /// Sustained bandwidth in bytes/second.
    pub bandwidth_bps: f64,
    /// Fixed per-message software overhead in seconds (serialisation,
    /// syscalls) charged on top of size/bandwidth.
    pub per_message_s: f64,
}

impl NetworkProfile {
    /// Time one message of `bytes` holds the link: the per-message
    /// overhead plus size over bandwidth. The message lands
    /// [`latency_s`](Self::latency_s) after the link frees.
    pub fn occupancy(&self, bytes: f64) -> f64 {
        self.per_message_s + bytes / self.bandwidth_bps
    }

    /// Gigabit Ethernet.
    pub fn gigabit_ethernet() -> Self {
        NetworkProfile {
            name: "GbE".into(),
            latency_s: 55e-6,
            bandwidth_bps: 118e6,
            per_message_s: 8e-6,
        }
    }

    /// Infiniband used through the TCP/IP stack (IPoIB), as in the paper.
    pub fn ipoib() -> Self {
        NetworkProfile {
            name: "IPoIB".into(),
            latency_s: 18e-6,
            bandwidth_bps: 900e6,
            per_message_s: 8e-6,
        }
    }

    /// Amazon EC2 internal network (higher latency, ~1 Gb/s class).
    pub fn ec2() -> Self {
        NetworkProfile {
            name: "EC2 network".into(),
            latency_s: 250e-6,
            bandwidth_bps: 120e6,
            per_message_s: 5e-6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_core_counts() {
        assert_eq!(HostProfile::nehalem32().cores, 32);
        assert_eq!(HostProfile::sandy_bridge16().cores, 16);
        assert_eq!(HostProfile::xeon12().cores, 12);
        assert_eq!(HostProfile::ec2_quad().cores, 4);
    }

    #[test]
    fn virtualisation_reduces_core_rate() {
        let vm = HostProfile::ec2_quad();
        assert!(vm.core_rate() < vm.speed);
        let bare = HostProfile::nehalem32();
        assert_eq!(bare.core_rate(), 1.0);
    }

    #[test]
    fn with_cores_restricts() {
        let h = HostProfile::xeon12().with_cores(4);
        assert_eq!(h.cores, 4);
    }

    #[test]
    #[should_panic(expected = "invalid core restriction")]
    fn with_cores_rejects_oversubscription() {
        let _ = HostProfile::ec2_quad().with_cores(8);
    }

    #[test]
    fn network_ordering_matches_physics() {
        let gbe = NetworkProfile::gigabit_ethernet();
        let ib = NetworkProfile::ipoib();
        let msg = 64.0 * 1024.0;
        assert!(ib.occupancy(msg) < gbe.occupancy(msg));
        // Infiniband wins on both latency and bandwidth.
        assert!(ib.latency_s < gbe.latency_s);
        assert!(ib.bandwidth_bps > gbe.bandwidth_bps);
    }

    #[test]
    fn occupancy_scales_with_size() {
        let gbe = NetworkProfile::gigabit_ethernet();
        assert!(gbe.occupancy(1024.0 * 1024.0) > 10.0 * gbe.occupancy(1024.0));
    }
}
