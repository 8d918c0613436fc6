//! Ablation (beyond the paper): sweep the Q/τ ratio across a decade on
//! both platforms — the CPU as the pipeline DES model of `distrt::cluster`
//! on one 32-core host, the GPU as the SIMT model. Table I samples only Q/τ ∈ {10, 1}; this harness maps
//! the full trade-off — kernel-overhead amortisation vs occupancy and
//! rebalancing — and shows where the optimum sits for each instance count.
//!
//! Run: `cargo run -p bench --release --bin ablation_quantum_sweep`

use bench::{costs, print_table, quick_mode, secs, trace};
use distrt::cluster::{simulate_cluster, ClusterParams};
use distrt::platform::HostProfile;
use simt::executor::simulate_device_run;
use simt::{DeviceSpec, WarpPacking};

fn main() {
    let quick = quick_mode();
    eprintln!("# ablation: recording workload ...");
    let full = trace(1024, quick, 48.0, 600, 1, 60.0);
    let cost = costs(quick);
    let device = DeviceSpec::tesla_k40(cost.sec_per_event);

    for &n in &[256u64, 1024] {
        let fine = full.take_instances(n);
        let mut rows = Vec::new();
        for factor in [1usize, 2, 5, 10, 20, 60] {
            let coarse = fine.coarsen(factor);
            let spq = fine.samples_per_instance as f64 / coarse.quanta as f64;
            let mut p = ClusterParams::single_host(HostProfile::nehalem32(), 32, 4);
            p.costs = cost;
            p.dispatch_overhead_s = 0.3e-6;
            let cpu = simulate_cluster(&coarse, &p).makespan_s;
            let gpu_r = simulate_device_run(
                &coarse.events,
                &device,
                WarpPacking::RebalanceEachQuantum,
                spq,
            );
            let gpu_s = simulate_device_run(&coarse.events, &device, WarpPacking::Static, spq);
            rows.push(vec![
                format!("{factor}"),
                format!("{}", coarse.quanta),
                secs(cpu),
                secs(gpu_r.total_s),
                secs(gpu_s.total_s),
                format!("{:.3}", gpu_r.divergence),
            ]);
        }
        print_table(
            &format!("quantum sweep, {n} instances"),
            &[
                "Q/τ",
                "kernels",
                "CPU (s)",
                "GPU rebalanced (s)",
                "GPU static (s)",
                "divergence",
            ],
            &rows,
        );
    }
    bench::note(
        "\nreading: CPU flat across Q/τ; GPU optimum moves to smaller quanta\n\
         as instance count grows (occupancy + rebalancing beat overhead).",
    );
}
