//! FIG6 — Virtual cluster of VMs and the heterogeneous platform.
//!
//! Reproduces the paper's Fig. 6: (top) speedup on a virtual cluster of
//! eight quad-core EC2 VMs against the number of virtual cores (the paper
//! reaches ≈ 28 of 32); (bottom) execution time and speedup on the
//! heterogeneous platform — eight EC2 VMs + one 32-core Nehalem + two
//! 16-core Sandy Bridge machines, 96 cores total, where the paper measures
//! 69.3 s and a gain of ≈ 62×.
//!
//! Run: `cargo run -p bench --release --bin fig6_cloud_heterogeneous`

use bench::{costs, f2, print_table, quick_mode, trace};
use distrt::cloud::{heterogeneous, virtual_cluster};
use distrt::platform::HostProfile;

fn main() {
    let quick = quick_mode();
    eprintln!("# FIG6: recording workload ...");
    let trace = trace(512, quick, 48.0, 500, 1, 60.0).coarsen(10);
    let cost = costs(quick);

    // ---- top: virtual cluster of quad-core VMs -------------------------
    let mut rows = Vec::new();
    let mut seq_vm_core = None;
    for vms in 1..=8usize {
        let out = virtual_cluster(&trace, vms, cost);
        // Baseline: the same work on ONE virtual core.
        let vm_rate = HostProfile::ec2_quad().core_rate();
        let baseline = *seq_vm_core.get_or_insert(out.sequential_time_s() / vm_rate);
        rows.push(vec![
            (vms * 4).to_string(),
            f2((vms * 4) as f64),
            f2(baseline / out.makespan_s),
        ]);
    }
    print_table(
        "FIG6 (top): virtual cluster of eight quad-core EC2 VMs",
        &["virtual cores", "ideal", "speedup"],
        &rows,
    );
    bench::note("paper reference: nearly ideal, max ≈ 28 at 32 virtual cores.");

    // ---- bottom: heterogeneous platform --------------------------------
    // Cumulative deployments matching the paper's x-axis: 4, 32, 48, 64, 96.
    let deployments: Vec<(usize, Vec<HostProfile>)> = vec![
        (4, vec![HostProfile::ec2_quad()]),
        (32, (0..8).map(|_| HostProfile::ec2_quad()).collect()),
        (48, {
            let mut v: Vec<HostProfile> = (0..8).map(|_| HostProfile::ec2_quad()).collect();
            v.push(HostProfile::sandy_bridge16());
            v
        }),
        (64, {
            let mut v: Vec<HostProfile> = (0..8).map(|_| HostProfile::ec2_quad()).collect();
            v.push(HostProfile::sandy_bridge16());
            v.push(HostProfile::sandy_bridge16());
            v
        }),
        (96, {
            let mut v: Vec<HostProfile> = (0..8).map(|_| HostProfile::ec2_quad()).collect();
            v.push(HostProfile::sandy_bridge16());
            v.push(HostProfile::sandy_bridge16());
            v.push(HostProfile::nehalem32());
            v
        }),
    ];
    let mut rows = Vec::new();
    let mut anchor = None; // scale the 4-core point to the paper's 71 minutes
    let mut baseline = None;
    for (cores, hosts) in deployments {
        let out = heterogeneous(&trace, hosts, cost);
        let vm_rate = HostProfile::ec2_quad().core_rate();
        let base = *baseline.get_or_insert(out.sequential_time_s() / vm_rate);
        let scale = *anchor.get_or_insert(71.0 * 60.0 / out.makespan_s);
        let scaled = out.makespan_s * scale;
        let time = if scaled >= 120.0 {
            format!("{:.0}'", scaled / 60.0)
        } else {
            format!("{scaled:.1}''")
        };
        rows.push(vec![
            cores.to_string(),
            f2(cores as f64),
            f2(base / out.makespan_s),
            time,
        ]);
    }
    print_table(
        "FIG6 (bottom): heterogeneous platform (EC2 + Nehalem + 2×Sandy Bridge)",
        &["cores", "ideal", "speedup", "exec time (scaled)"],
        &rows,
    );
    bench::note("paper reference: 71' at 4 cores down to 69.3'' at 96 cores (gain ≈ 62×).");
}
