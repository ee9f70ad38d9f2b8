//! An execution-driven model of a discrete CUDA-class GPU.
//!
//! This crate is the substrate beneath the join algorithms in `hcj-core`.
//! It does **not** emulate an instruction set; instead it provides:
//!
//! * [`DeviceSpec`] — the physical parameters the paper's results depend on
//!   (shared-memory size, device-memory capacity and bandwidth, PCIe
//!   bandwidth, SM count, warp width, atomic throughput), with presets for
//!   the paper's GTX 1080 and a V100;
//! * [`DeviceMemory`] / [`Reservation`] — device-memory reservations with
//!   strict capacity accounting, so out-of-memory is a real, observable
//!   condition that drives the out-of-GPU execution strategies;
//! * [`SharedMemLayout`] — a per-thread-block shared-memory budget; kernel
//!   configurations that exceed the block's shared memory fail loudly,
//!   which is what bounds the partitioning fanout (paper §III-A);
//! * [`warp`] — lockstep 32-lane warp primitives (`ballot`, `shfl`,
//!   `match_bits`) that the ballot-based nested-loop join (paper Listing 1)
//!   actually executes;
//! * [`KernelCost`] — the roofline-style cost model converting a kernel's
//!   observed memory traffic (coalesced bytes, random transactions, shared
//!   accesses, atomics) into simulated execution time;
//! * [`Gpu`] + [`Stream`] — CUDA-like streams and the two DMA copy engines,
//!   mapped onto `hcj-sim` resources so that transfers and kernels overlap
//!   exactly as the hardware allows. Work is issued through three retrying
//!   primitives: [`Gpu::kernel`], [`Gpu::copy_h2d`] and [`Gpu::copy_d2h`];
//! * [`uva`] / [`unified`] — models of zero-copy (UVA) access and Unified
//!   Memory page migration, used by the paper's Figure 21–22 comparisons.
//!
//! Everything a kernel computes is computed for real on host-side buffers;
//! the model only decides how long it took.

#![warn(missing_docs)]

pub mod cost;
pub mod counters;
pub mod error;
pub mod faults;
pub mod interconnect;
pub mod memory;
pub mod shared;
pub mod spec;
pub mod stream;
pub mod unified;
pub mod uva;
pub mod warp;

pub use cost::KernelCost;
pub use counters::{
    CacheCounters, CounterRollup, CounterSet, KernelStats, LaunchShape, TransferStats,
};
pub use error::{ErrorClass, JoinError};
pub use faults::{
    DeviceFault, FaultConfig, FaultEvent, FaultEventKind, FaultKind, FaultLog, FaultPlan,
    FaultSite, FaultSummary,
};
pub use interconnect::InterconnectLink;
pub use memory::{DeviceMemory, OutOfDeviceMemory, Reservation};
pub use shared::{SharedMemLayout, SharedMemOverflow};
pub use spec::DeviceSpec;
pub use stream::{Gpu, Stream, TransferKind};
pub use unified::UnifiedMemory;
pub use uva::UvaAccessPattern;

/// Warp width on every CUDA-capable device this crate models.
pub const WARP_SIZE: usize = 32;

/// Memory transaction (sector) granularity in bytes: the unit a random
/// access pays for even when it uses only a few bytes of it.
pub const SECTOR_BYTES: u64 = 32;
