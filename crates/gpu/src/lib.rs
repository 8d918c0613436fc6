//! # simt — a SIMT GPGPU execution-model simulator
//!
//! The reproduction's substitute for the paper's NVidia Tesla K40.
//! Table I of the paper is about the *execution model* —
//! "in the SIMT model all threads in a block not necessarily should execute
//! the same instruction, however any divergence turns into a performance
//! penalty" — and about how quantum size interacts with per-quantum load
//! rebalancing. Both are modelled here:
//!
//! - [`device`]: the hardware parameters ([`DeviceSpec::tesla_k40`]);
//! - [`executor`]: lockstep-warp timing with list-scheduled warp slots and
//!   optional per-quantum re-packing of instances into warps;
//! - [`map_device`]: the functional `ff_mapCUDA` equivalent — it advances
//!   one [`gillespie::task::SimTask`] per lane, the CPU farm's own quantum
//!   runner (any [`gillespie::engine::EngineKind`]: SSA, adaptive
//!   tau-leaping, hybrid, batched SSA), under kernel-barrier semantics, so
//!   simulation results are bit-identical to CPU execution while the
//!   timing comes from the SIMT model.
//!
//! ## Example
//!
//! ```
//! use gillespie::engine::EngineKind;
//! use simt::{DeviceMap, DeviceSpec, WarpPacking};
//! use std::sync::Arc;
//!
//! let model = Arc::new(biomodels::simple::decay(50, 1.0));
//! let mut device = DeviceMap::new(EngineKind::Ssa, model, 8, 42, 2.0, 0.5, 0.25)?;
//! let outputs = device.run_to_end(); // the lanes' `SampleBatch`es, kernel by kernel
//! assert!(!outputs.is_empty());
//! let timing = device.device_timing(&DeviceSpec::tesla_k40(1e-6),
//!                                   WarpPacking::RebalanceEachQuantum);
//! assert!(timing.divergence >= 1.0);
//! # Ok::<(), gillespie::engine::EngineError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod device;
pub mod executor;
pub mod map_device;

pub use device::DeviceSpec;
pub use executor::{simulate_device_run, GpuRunReport, WarpPacking};
pub use map_device::DeviceMap;
