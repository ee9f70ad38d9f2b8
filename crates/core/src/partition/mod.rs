//! Radix partitioning on the (modeled) GPU.
//!
//! The modeled device layout follows paper §III-A: each partition is a
//! linked list of fixed-capacity buckets drawn from a preallocated pool.
//! Bucket capacity is a multiple of the thread-block size so that chain
//! scans stay coalesced; metadata (per-partition fill offset + current
//! bucket) lives in shared memory during a pass. The host stores each
//! partition as one dense run ([`PartitionedRelation`], over
//! [`hcj_workload::Runs`]). The partitioner charges its passes from
//! per-class counts and moves each tuple once, with the shared stable
//! scatter ([`hcj_workload::runs`]); the buckets a pass charges (one
//! allocation atomic and one link write each) and the pool bytes a
//! strategy reserves are functions of run lengths (`bucket.rs`). The §VI
//! histogram comparator is a cost model ([`histogram_passes`]).

mod bucket;
pub(crate) mod gpu;
mod histogram;

/// Minimum tuples per worker chunk inside a partitioning pass: below this
/// the per-chunk histogram and cursor bookkeeping outweighs the scan.
pub(crate) const PART_PAR_MIN: usize = 1 << 15;

pub use bucket::PartitionedRelation;
pub use gpu::{GpuPartitioner, PartitionOutcome, PassStats, RefinePlan};
pub use histogram::histogram_passes;
