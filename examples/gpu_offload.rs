//! GPGPU offloading à la `ff_mapCUDA`: the same simulation instances run
//! under kernel-barrier lockstep on a simulated Tesla K40, produce results
//! bit-identical to CPU execution, and report the SIMT timing with its
//! divergence factor.
//!
//! Run: `cargo run --release --example gpu_offload`

use std::sync::Arc;

use cwc_repro::biomodels::neurospora::{neurospora_flat, NeurosporaParams};
use cwc_repro::distrt::workload::CostModel;
use cwc_repro::gillespie::engine::EngineKind;
use cwc_repro::simt::{DeviceMap, DeviceSpec, WarpPacking};

fn main() {
    let model = Arc::new(neurospora_flat(NeurosporaParams::default()));
    let instances = 256;
    let t_end = 48.0;
    let quantum = 2.0;
    let tau = 0.5;

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
    for (name, packing) in [
        ("static warps", WarpPacking::Static),
        ("rebalanced warps", WarpPacking::RebalanceEachQuantum),
    ] {
        let t = device_map.device_timing(&device, packing);
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
}
