//! The distributed simulator, both halves:
//!
//! 1. *functional*: run the farm-of-pipelines deployment as 3 in-process
//!    shards through the production coordinator/supervisor/merge path and
//!    check the results equal local execution (for 3 real `cwc-shard`
//!    worker processes over the wire codec, run
//!    `cargo run --release --example quickstart -- --shards 3`);
//! 2. *performance*: predict the same deployment's timing on the paper's
//!    Infiniband cluster with the calibrated DES model.
//!
//! Run: `cargo run --release --example cluster_simulation`

use std::sync::Arc;

use cwc_repro::biomodels::simple::birth_death;
use cwc_repro::cwcsim::{run_simulation, run_simulation_sharded_in_process, SimConfig};
use cwc_repro::distrt::cluster::{simulate_cluster, ClusterParams};
use cwc_repro::distrt::platform::{HostProfile, NetworkProfile};
use cwc_repro::distrt::workload::{CostModel, WorkloadTrace};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = Arc::new(birth_death(40.0, 1.0, 0));
    let cfg = SimConfig::new(24, 10.0)
        .quantum(1.0)
        .sample_period(0.25)
        .sim_workers(2)
        .seed(99);

    // --- functional: the sharded farm ------------------------------------
    let local = run_simulation(Arc::clone(&model), &cfg)?;
    let sharded = run_simulation_sharded_in_process(Arc::clone(&model), &cfg.clone().shards(3))?;
    assert_eq!(local.rows, sharded.rows, "distribution changed results!");
    assert_eq!(local.events, sharded.events);
    println!("functional: 3 shards produced identical results to local execution");
    println!(
        "            {} rows, {} reactions fired across the shards",
        sharded.rows.len(),
        sharded.events
    );

    // --- performance model ----------------------------------------------
    // A heavier ensemble, so per-quantum compute dominates per-message
    // network costs (the regime the paper's cluster experiments run in).
    let heavy = Arc::new(birth_death(400.0, 1.0, 0));
    let trace = WorkloadTrace::record(Arc::clone(&heavy), 256, 7, 20.0, 2.0, 0.5);
    let costs = CostModel::measure(heavy);
    println!("\nperformance model (Infiniband cluster of 12-core Xeons):");
    println!("hosts\tmakespan\tspeedup vs sequential");
    for hosts in [1usize, 2, 4, 8] {
        let mut p =
            ClusterParams::homogeneous(hosts, HostProfile::xeon12(), NetworkProfile::ipoib());
        p.costs = costs;
        let out = simulate_cluster(&trace, &p);
        println!(
            "{hosts}\t{:.2} ms\t{:.1}x",
            out.makespan_s * 1e3,
            out.speedup()
        );
    }
    Ok(())
}
