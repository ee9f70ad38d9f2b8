//! Hardware-conscious hash joins on (modeled) GPUs.
//!
//! This crate implements the paper's contribution: a family of
//! radix-partitioned GPU join algorithms tuned to GPU hardware, plus the
//! two out-of-GPU execution strategies that keep them fast when data does
//! not fit in device memory.
//!
//! # The family
//!
//! * [`GpuPartitionedJoin`] — both relations GPU-resident (paper §III):
//!   multi-pass radix partitioning into shared-memory-sized co-partitions
//!   (bucket chains in device memory, §III-A), then a per-co-partition join
//!   with either the shared-memory hash join (atomic-exchange wait-free
//!   build, 16-bit offset chains, §III-C) or the warp-ballot nested loop
//!   (§III-B); results are aggregated or materialized through warp-level
//!   output buffering.
//! * [`NonPartitionedJoin`] — the hardware-oblivious comparator: one global
//!   chained hash table in device memory (or a perfect-hash best case).
//! * [`StreamedProbeJoin`] — build side fits on the GPU, probe side does
//!   not (§IV-A): the probe relation streams through double-buffered chunks
//!   with transfers overlapping execution on separate CUDA streams.
//! * [`CoProcessingJoin`] — neither side fits (§IV-B): the CPU radix
//!   partitions both relations into pinned memory (NUMA-staged), working
//!   sets of co-partitions stream to the GPU and are joined there, all
//!   phases pipelined; skew is handled by knapsack working-set packing
//!   (§IV-D).
//! * [`uva_exec`] — the same join executed over UVA zero-copy or Unified
//!   Memory, for the Fig. 21–22 comparisons.
//!
//! Every algorithm really computes its join (validated against an oracle);
//! the time it takes is computed by the device/host models in `hcj-gpu` and
//! `hcj-host` (see DESIGN.md for the substitution argument).

pub mod balance;
pub mod cached_build;
pub mod config;
pub mod coprocess;
pub mod gpu_resident;
pub mod join;
pub mod nonpart;
pub mod outcome;
pub mod output;
pub mod packing;
pub mod partition;
pub mod radix;
pub mod streamprobe;
pub mod uva_exec;

pub use cached_build::{partitioned_footprint, CachedBuild, CachedBuildJoin};
pub use config::{GpuJoinConfig, OutputMode, PassAssignment, ProbeKind};
pub use coprocess::{CoProcessingConfig, CoProcessingJoin};
pub use gpu_resident::GpuPartitionedJoin;
pub use nonpart::{NonPartitionedJoin, NonPartitionedKind};
pub use outcome::{JoinOutcome, Phase, PhaseBreakdown};
pub use streamprobe::{StreamedProbeConfig, StreamedProbeJoin};
