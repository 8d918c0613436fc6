//! The textual CWC model format: parse a nested-compartment model from
//! source, check that it reads back from its own rendering (the form a
//! shard job ships it in), run it, and display the population dynamics.
//!
//! Run: `cargo run --release --example model_dsl`

use std::sync::Arc;

use cwc_repro::cwc::{parse_model, render_model};
use cwc_repro::cwcsim::{ascii_chart, run_simulation, SimConfig, StatEngineKind};

const SOURCE: &str = r"
model infected-cells
# Free virions V infect cells; infected cells produce virions and may burst.
term: V*60 (cell: R |) (cell: R |) (cell: R |) (cell: R |) (cell: R |)
rule infect  @ 0.004 : V (cell: R |) => [1: | V]
rule produce @ 0.4 in cell : V => V V
rule burst   @ 0.05 : (cell: | V*8) => !1
rule decay   @ 0.08 : V =>
observe free_virions = V at top
observe total_virions = V
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = parse_model(SOURCE)?;
    let text = render_model(&model);
    let reparsed = parse_model(&text)?;
    assert_eq!(
        render_model(&reparsed),
        text,
        "the rendering must read back to the same model"
    );
    println!("parsed model, as a shard job ships it:\n{text}");

    let cfg = SimConfig::new(24, 30.0)
        .quantum(1.0)
        .sample_period(0.5)
        .sim_workers(4)
        .stat_workers(1)
        .engines(vec![StatEngineKind::MeanVariance])
        .seed(3);
    let report = run_simulation(Arc::new(model), &cfg)?;

    println!("\ntotal virions (ensemble mean):");
    println!("{}", ascii_chart(&report.rows, 1, 72, 12));
    Ok(())
}
