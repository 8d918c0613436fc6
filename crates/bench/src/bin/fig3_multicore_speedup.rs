//! FIG3 — Speedup of the multicore simulator on the Neurospora model.
//!
//! Reproduces the paper's Fig. 3: speedup vs number of simulation workers
//! on the 32-core Nehalem platform model, for 128/512/1024 trajectories,
//! with (top) 1 statistical engine and (bottom) 4 statistical engines.
//!
//! The workload is recorded from real Neurospora engine runs; the platform
//! timing comes from the calibrated pipeline DES model on one host
//! (`distrt::cluster`, the stand-in for hardware we do not have). Expected shape: near-ideal
//! speedup for ≤ 512 trajectories; with 1 statistical engine the
//! 1024-trajectory curve flattens (on-line analysis saturates); 4 engines
//! recover it.
//!
//! Run: `cargo run -p bench --release --bin fig3_multicore_speedup`
//! (add `--quick` for a synthetic workload).

use bench::{costs, f2, print_table, quick_mode, trace};
use distrt::cluster::{simulate_cluster, ClusterParams};
use distrt::platform::HostProfile;

fn main() {
    let quick = quick_mode();
    eprintln!(
        "# FIG3: recording workload ({}) ...",
        if quick {
            "synthetic"
        } else {
            "real Neurospora engines"
        }
    );
    // Dense τ grid (800 samples over 12 h): the analysis stream carries
    // the weight it has in the paper's configuration.
    let full = trace(1024, quick, 12.0, 800, 1, 8.0).coarsen(10); // Q/τ = 10
    let cost = costs(quick);
    let workers = [1usize, 2, 4, 8, 12, 16, 20, 24, 28, 30];
    let trajectory_counts = [128u64, 512, 1024];

    for stat_engines in [1usize, 4] {
        let mut rows: Vec<Vec<String>> = workers
            .iter()
            .map(|w| vec![w.to_string(), f2(*w as f64)])
            .collect();
        for &n in &trajectory_counts {
            let trace = full.take_instances(n);
            let mut base = None;
            for (i, &w) in workers.iter().enumerate() {
                let mut p = ClusterParams::single_host(HostProfile::nehalem32(), w, stat_engines);
                p.costs = cost;
                p.dispatch_overhead_s = 0.3e-6;
                let out = simulate_cluster(&trace, &p);
                // Speedup relative to this configuration's own 1-worker
                // run, as the paper measures it.
                let baseline = *base.get_or_insert(out.makespan_s);
                rows[i].push(f2(baseline / out.makespan_s));
            }
        }
        print_table(
            &format!("FIG3 speedup, {stat_engines} statistical engine(s), Q/τ = 10"),
            &["workers", "ideal", "128 traj", "512 traj", "1024 traj"],
            &rows,
        );
    }
    bench::note(
        "\npaper reference: near-ideal up to 512 traj with 1 stat engine;\n\
         1024-traj curve flattens with 1 stat engine and recovers with 4.",
    );
}
