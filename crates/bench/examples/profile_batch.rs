//! Dev-only profiling loop for the batched tier's hot path: 40M firings
//! of the 32-species conversion cycle at the width given as the first
//! argument (default 32), auto-dispatched kernels, sampling disabled.
//! Point `perf`/`gprofng` (or a stopwatch) at it when optimising the
//! kernel layer; it prints the firing count so the loop cannot be
//! optimised away.
use std::sync::Arc;

use biomodels::simple::conversion_cycle;
use gillespie::batch::BatchedSsaEngine;
use gillespie::ssa::SampleClock;

fn main() {
    let model = Arc::new(conversion_cycle(32, 3_200, 1.0));
    let width: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(32);
    let mut batch = BatchedSsaEngine::new(model, 1, 0, width).expect("flat");
    let mut clocks: Vec<SampleClock> = (0..width).map(|_| SampleClock::new(0.0, 1e18)).collect();
    let mut t = 0.0;
    let mut fired = 0u64;
    while fired < 40_000_000 {
        t += 0.05;
        fired += batch
            .advance_quantum_batch(t, &mut clocks)
            .iter()
            .map(|o| o.events)
            .sum::<u64>();
    }
    println!("{fired}");
}
