//! FIG5 — The simulator in a single quad-core VM on Amazon EC2.
//!
//! Reproduces the paper's Fig. 5: speedup and execution time against the
//! number of virtualised cores (1–4) inside one EC2 quad-core VM. The
//! paper reports 224′ sequential → 71′ on 4 cores (speedup 3.15): the
//! sub-linearity comes from "the additional work done by the on-line
//! alignment of trajectories during the simulation".
//!
//! The VM is the pipeline DES model of `distrt::cluster` on one host
//! whose stages share the VM's four cores (`distrt::cloud::single_vm`).
//! Model times are scaled so the 1-core point matches the paper's 224
//! minutes, making the remaining points directly comparable.
//!
//! Run: `cargo run -p bench --release --bin fig5_vm_speedup`

use bench::{costs, f2, print_table, quick_mode, trace};
use distrt::cloud::single_vm;

fn main() {
    let quick = quick_mode();
    eprintln!("# FIG5: recording workload ...");
    // Q/τ = 10 quanta with a dense sampling grid: the on-line analysis
    // carries ≈ 20% of the total work, the share behind the paper's
    // 3.15-of-4 speedup.
    let trace = trace(256, quick, 48.0, 50, 320, 150.0);
    let cost = costs(quick);

    let t1 = single_vm(&trace, 1, cost).makespan_s;
    let scale_to_minutes = 224.0 / t1;
    let mut rows = Vec::new();
    for cores in 1..=4usize {
        let out = single_vm(&trace, cores, cost);
        rows.push(vec![
            cores.to_string(),
            f2(cores as f64),
            f2(t1 / out.makespan_s),
            format!("{:.0}'", out.makespan_s * scale_to_minutes),
        ]);
    }
    print_table(
        "FIG5: single EC2 quad-core VM",
        &["cores", "ideal", "speedup", "exec time (scaled)"],
        &rows,
    );
    bench::note("\npaper reference: 224' -> 123' -> 81' -> 71' (speedup 3.15 at 4 cores).");
}
