//! Cloud deployments: Amazon EC2 experiments of the paper (§V-B).
//!
//! "By considering an IaaS cloud platform as a virtual cluster of shared
//! memory multi-core platforms, the distributed CWC Simulator can be
//! easily fit to run on this kind of platforms." These helpers assemble
//! the corresponding [`ClusterParams`] deployments:
//!
//! - [`single_vm`]: one quad-core VM, varying usable cores (Fig. 5);
//! - [`virtual_cluster`]: eight quad-core VMs on the EC2 network (Fig. 6
//!   top);
//! - [`heterogeneous`]: EC2 VMs + the 32-core Nehalem + two 16-core Sandy
//!   Bridge workstations (Fig. 6 bottom).

use crate::cluster::{simulate_cluster, ClusterOutcome, ClusterParams};
use crate::platform::{HostProfile, NetworkProfile};
use crate::workload::{CostModel, WorkloadTrace};

/// Fig. 5: the simulator inside a single quad-core VM using `cores` cores.
///
/// # Panics
///
/// Panics if `cores` is 0 or > 4.
pub fn single_vm(trace: &WorkloadTrace, cores: usize, costs: CostModel) -> ClusterOutcome {
    let host = HostProfile::ec2_quad().with_cores(cores);
    // Inside one VM every stage shares the same cores: simulation,
    // alignment and statistics compete, which is why the paper's speedup
    // tops out at 3.15 of 4.
    let mut p = ClusterParams::single_host(host, cores, 1);
    p.costs = costs;
    p.shared_pool = Some(4); // the VM keeps its 4 cores regardless
    simulate_cluster(trace, &p)
}

/// Fig. 6 (top): a virtual cluster of `vms` quad-core EC2 VMs.
pub fn virtual_cluster(trace: &WorkloadTrace, vms: usize, costs: CostModel) -> ClusterOutcome {
    let mut p = ClusterParams::homogeneous(vms, HostProfile::ec2_quad(), NetworkProfile::ec2());
    p.costs = costs;
    simulate_cluster(trace, &p)
}

/// The paper's heterogeneous platform: `vms` quad-core EC2 VMs, one
/// 32-core Nehalem and two 16-core Sandy Bridge workstations — 96 cores
/// when `vms = 8`.
pub fn heterogeneous_deployment(vms: usize) -> Vec<HostProfile> {
    let mut hosts = Vec::with_capacity(vms + 3);
    for _ in 0..vms {
        hosts.push(HostProfile::ec2_quad());
    }
    hosts.push(HostProfile::nehalem32());
    hosts.push(HostProfile::sandy_bridge16());
    hosts.push(HostProfile::sandy_bridge16());
    hosts
}

/// Fig. 6 (bottom): runs the model on an explicit host list over the EC2
/// network.
pub fn heterogeneous(
    trace: &WorkloadTrace,
    hosts: Vec<HostProfile>,
    costs: CostModel,
) -> ClusterOutcome {
    let mut p = ClusterParams::new(hosts, NetworkProfile::ec2());
    p.costs = costs;
    simulate_cluster(trace, &p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> WorkloadTrace {
        WorkloadTrace::synthetic(128, 16, 300.0)
    }

    #[test]
    fn single_vm_speedup_is_sublinear_but_close() {
        // The paper reports 3.15 out of 4 ("not linear because of the
        // additional work done by the on-line alignment of trajectories").
        let t = trace();
        let costs = CostModel::nominal();
        let t1 = single_vm(&t, 1, costs).makespan_s;
        let t4 = single_vm(&t, 4, costs).makespan_s;
        let speedup = t1 / t4;
        assert!(
            speedup > 2.5 && speedup < 4.0,
            "4-core VM speedup {speedup}"
        );
    }

    #[test]
    fn virtual_cluster_scales_to_eight_vms() {
        let t = trace();
        let costs = CostModel::nominal();
        let s1 = virtual_cluster(&t, 1, costs);
        let s8 = virtual_cluster(&t, 8, costs);
        assert!(
            s8.makespan_s < s1.makespan_s / 4.0,
            "1 VM {} vs 8 VMs {}",
            s1.makespan_s,
            s8.makespan_s
        );
        assert_eq!(s8.cuts, t.samples_per_instance);
    }

    #[test]
    fn heterogeneous_platform_has_96_cores() {
        let hosts = heterogeneous_deployment(8);
        let cores: usize = hosts.iter().map(|h| h.cores).sum();
        assert_eq!(cores, 8 * 4 + 32 + 16 + 16);
    }

    #[test]
    fn heterogeneous_beats_vms_alone() {
        let t = WorkloadTrace::synthetic(256, 16, 300.0);
        let costs = CostModel::nominal();
        let vms = virtual_cluster(&t, 8, costs);
        let het = heterogeneous(&t, heterogeneous_deployment(8), costs);
        assert!(
            het.makespan_s < vms.makespan_s,
            "het {} vs vms {}",
            het.makespan_s,
            vms.makespan_s
        );
        assert!(het.speedup() > vms.speedup());
    }
}
