//! TABLE I — Execution time on multi-core (Intel) vs GPGPU (NVidia K40).
//!
//! Reproduces the paper's Table I: Neurospora execution time for
//! N ∈ {128, 512, 1024, 2048} simulation instances with quantum/sampling
//! ratios Q/τ ∈ {10, 1}, on 32 CPU cores (the pipeline DES model of
//! `distrt::cluster` on one host) and on the simulated Tesla K40.
//!
//! Both platforms replay the *same* recorded workload (the fine τ-grained
//! trace and its 10× coarsening are the same trajectories, thanks to the
//! engine's quantum-exact slicing). Expected shape, per the paper:
//! quantum size barely moves the CPU times; on the GPU it matters — large
//! quanta win at low instance counts (fewer kernel overheads), small
//! quanta win at high counts (occupancy + rebalancing beat divergence) —
//! and the GPU loses at 128 instances but wins ≈ 2× at 1024–2048.
//!
//! Run: `cargo run -p bench --release --bin table1_gpu_vs_cpu`

use bench::{costs, print_table, quick_mode, secs, trace};
use distrt::cluster::{simulate_cluster, ClusterParams};
use distrt::platform::HostProfile;
use simt::executor::simulate_device_run;
use simt::{DeviceSpec, WarpPacking};

fn main() {
    let quick = quick_mode();
    eprintln!("# TABLE I: recording workload ...");
    // A 48 h horizon (after burn-in) gives the compute-to-overhead ratio of
    // the paper's long runs; the divergence/occupancy trade-off only shows
    // when kernels are compute-dominated.
    let full = trace(2048, quick, 48.0, 500, 1, 60.0);
    let cost = costs(quick);
    let device = DeviceSpec::tesla_k40(cost.sec_per_event);

    let paper: &[(u64, [f64; 4])] = &[
        // N, [cpu Q10, cpu Q1, gpu Q10, gpu Q1]
        (128, [22.0, 22.0, 32.0, 39.0]),
        (512, [83.0, 82.0, 47.0, 50.0]),
        (1024, [166.0, 164.0, 70.0, 63.0]),
        (2048, [332.0, 328.0, 165.0, 104.0]),
    ];

    let mut rows = Vec::new();
    for &(n, paper_row) in paper {
        let fine = full.take_instances(n);
        let coarse = fine.coarsen(10);
        let spq_fine = fine.samples_per_instance as f64 / fine.quanta as f64;
        let spq_coarse = fine.samples_per_instance as f64 / coarse.quanta as f64;

        // CPU side: the pipeline on one 32-core Nehalem, 4 stat engines. The
        // FastFlow dispatch costs well under a microsecond per task.
        let mut p = ClusterParams::single_host(HostProfile::nehalem32(), 32, 4);
        p.costs = cost;
        p.dispatch_overhead_s = 0.3e-6;
        let cpu_q10 = simulate_cluster(&coarse, &p).makespan_s;
        let cpu_q1 = simulate_cluster(&fine, &p).makespan_s;

        // GPU side: SIMT model with per-quantum rebalancing.
        let gpu_q10 = simulate_device_run(
            &coarse.events,
            &device,
            WarpPacking::RebalanceEachQuantum,
            spq_coarse,
        )
        .total_s;
        let gpu_q1 = simulate_device_run(
            &fine.events,
            &device,
            WarpPacking::RebalanceEachQuantum,
            spq_fine,
        )
        .total_s;

        rows.push(vec![
            n.to_string(),
            secs(cpu_q10),
            secs(cpu_q1),
            secs(gpu_q10),
            secs(gpu_q1),
            format!(
                "paper: {}/{}/{}/{}",
                paper_row[0], paper_row[1], paper_row[2], paper_row[3]
            ),
        ]);
    }
    print_table(
        "TABLE I: execution time (s), CPU (32 cores) vs GPGPU (2880 SMX cores)",
        &[
            "N sims",
            "CPU Q/τ=10",
            "CPU Q/τ=1",
            "GPU Q/τ=10",
            "GPU Q/τ=1",
            "paper (s)",
        ],
        &rows,
    );
    bench::note(
        "\nshape checks: CPU insensitive to Q/τ; GPU slower than CPU at 128,\n\
         faster at 1024-2048; GPU prefers Q/τ=10 at small N, Q/τ=1 at large N.",
    );
}
