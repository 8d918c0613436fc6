//! GPGPU offloading à la `ff_mapCUDA`: the same simulation instances run
//! under kernel-barrier lockstep on a simulated Tesla K40, produce results
//! bit-identical to CPU execution, and report the SIMT timing with its
//! divergence factor.
//!
//! 2 048 lanes make 64 warps, more than the 57 warp slots a K40 keeps at
//! Q/τ = 4, so warps queue for slots and the packing decides the kernel
//! makespan: the example exits non-zero unless rebalancing the warps each
//! quantum changes the total and does not slow it down.
//!
//! Run: `cargo run --release --example gpu_offload`

use std::sync::Arc;

use cwc_repro::biomodels::neurospora::{neurospora_flat, NeurosporaParams};
use cwc_repro::distrt::workload::CostModel;
use cwc_repro::gillespie::engine::EngineKind;
use cwc_repro::simt::{DeviceMap, DeviceSpec, WarpPacking};

fn main() {
    let model = Arc::new(neurospora_flat(NeurosporaParams::default()));
    let instances = 2048;
    let t_end = 8.0;
    let quantum = 1.0;
    let tau = 0.25;

    eprintln!("running {instances} instances on the simulated device ...");
    let mut device_map = DeviceMap::new(
        EngineKind::Ssa,
        Arc::clone(&model),
        instances,
        11,
        t_end,
        quantum,
        tau,
    )
    .expect("the direct method drives every model");
    let outputs = device_map.run_to_end();
    let samples: usize = outputs.iter().map(|o| o.samples.len()).sum();
    println!("device produced {samples} samples from {instances} instances");

    let costs = CostModel::measure(model);
    let device = DeviceSpec::tesla_k40(costs.sec_per_event);
    let mut totals = Vec::new();
    for (name, packing) in [
        ("static warps", WarpPacking::Static),
        ("rebalanced warps", WarpPacking::RebalanceEachQuantum),
    ] {
        let t = device_map.device_timing(&device, packing);
        totals.push(t.total_s);
        println!(
            "{name}: {:.2} ms total ({:.2} ms compute, {:.2} ms overhead), divergence {:.3}, {} kernels",
            t.total_s * 1e3,
            t.compute_s * 1e3,
            t.overhead_s * 1e3,
            t.divergence,
            t.kernels
        );
    }
    let cpu_equivalent = device_map.total_events() as f64 * costs.sec_per_event / 32.0;
    println!(
        "for comparison, 32 ideal CPU cores need ≈ {:.2} ms for the same events",
        cpu_equivalent * 1e3
    );
    let (fixed, rebalanced) = (totals[0], totals[1]);
    if rebalanced >= fixed {
        eprintln!("rebalancing bought nothing: {fixed} s static vs {rebalanced} s rebalanced");
        std::process::exit(1);
    }
}
