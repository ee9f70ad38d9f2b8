//! Allocation guards for the host-side hot paths: the co-processing
//! working-set knapsack, the co-partition join, radix partitioning in one
//! pass and in two, the shared stable scatter, the streamed probe, the PRO
//! CPU baseline, and the CPU oracle and plan canonicalization over compact
//! key domains.
//! Allocation counts and bytes are a deterministic proxy for host time, so
//! these fail on a regression that a wall-clock benchmark would only show
//! as noise.
//!
//! The counting allocator keeps one count and one byte total per thread,
//! and every test runs its pool at one worker, so a count covers exactly
//! the work the test's own thread does.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hcj_core::join::{join_all_copartitions, live_copartitions};
use hcj_core::output::OutputSink;
use hcj_core::packing::{pack_working_sets, PartitionSize};
use hcj_core::partition::GpuPartitioner;
use hcj_core::{GpuJoinConfig, OutputMode, StreamedProbeConfig, StreamedProbeJoin};
use hcj_cpu_join::ProJoin;
use hcj_gpu::DeviceSpec;
use hcj_host::pool::set_jobs;
use hcj_workload::generate::canonical_pair;
use hcj_workload::oracle::{reference_join, JoinCheck};
use hcj_workload::plan::rows_to_relation;
use hcj_workload::rng::{Rng, SmallRng};
use hcj_workload::{KeyDistribution, Relation, RelationSpec, Runs};

/// The system allocator, counting allocations (reallocations included)
/// and the bytes they request, per thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // A const-initialized `Cell` needs no lazy set-up and no destructor,
    // so counting never allocates; `try_with` skips a thread whose locals
    // are already gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; counting touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result, the allocations this thread made while running it and
/// the bytes they requested (a reallocation counts its new size).
fn allocs_during<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    (out, ALLOCS.with(Cell::get) - before.0, BYTES.with(Cell::get) - before.1)
}

/// Fleet-exchange's partitioning: radix 8 into 32-tuple buckets on a
/// 128 KB GTX 1080.
fn fleet_exchange_config() -> GpuJoinConfig {
    let mut config = GpuJoinConfig::paper_default(DeviceSpec::gtx1080().scaled_capacity(1 << 16));
    config.radix_bits = 8;
    config.bucket_capacity = 32;
    config
}

#[test]
fn knapsack_packing_makes_a_constant_number_of_allocations() {
    set_jobs(1);
    // The fleet-exchange shape: 128 CPU partitions of 8-31 tuples at 24 B
    // per tuple (8 B tuples, 3x padding) under a 64 KB working-set budget.
    let mut rng = SmallRng::seed_from_u64(0xA110C);
    let parts: Vec<PartitionSize> = (0..128)
        .map(|id| {
            let tuples = rng.gen_range_u64(8, 31);
            PartitionSize { id, tuples, padded_bytes: tuples * 24 }
        })
        .collect();
    let budget = 64 * 1024;
    let (sets, allocs, _) = allocs_during(|| pack_working_sets(&parts, budget, budget / 4));
    assert_eq!(sets.sets.iter().map(Vec::len).sum::<usize>(), 128);
    // The clone-per-cell DP this replaced made 310,540 allocations here.
    assert!(allocs <= 16, "{allocs} allocations to pack 128 partitions");
}

#[test]
fn copartition_join_allocations_do_not_grow_with_live_copartitions() {
    set_jobs(1);
    // Fleet-exchange's streamed probe: a 1,000-tuple build partitioned at
    // radix 8 into 32-tuple buckets, probed chunk by chunk.
    let config = fleet_exchange_config();
    let r = RelationSpec::unique(1_000, 3).generate();
    let partitioner = GpuPartitioner::new(&config);
    let r_out = partitioner.partition(&r);
    let probe = |tuples: usize| {
        let s = RelationSpec {
            tuples,
            distribution: KeyDistribution::UniformFk { distinct: 1_000 },
            payload_width: 4,
            seed: 4,
        }
        .generate();
        let s_out = partitioner.partition_following((&s.keys, &s.payloads), &r_out.refine_plan);
        let live = live_copartitions(&r_out.partitioned, &s_out.partitioned);
        let mut sink = OutputSink::new(OutputMode::Aggregate, 512);
        let (_, allocs, _) = allocs_during(|| {
            join_all_copartitions(&config, &r_out.partitioned, &s_out.partitioned, &mut sink)
        });
        assert_eq!(sink.check(), JoinCheck::compute(&r, &s), "{tuples}-tuple probe");
        (live, allocs)
    };
    // Warm this thread's build table on every build partition, so the
    // probes below find it grown.
    let mut sink = OutputSink::new(OutputMode::Aggregate, 512);
    join_all_copartitions(&config, &r_out.partitioned, &r_out.partitioned, &mut sink);
    let (few_live, few_allocs) = probe(50);
    let (live, allocs) = probe(500);
    assert!(few_live < 60 && live > 200, "{few_live} and {live} live co-partitions");
    // The one allocation is the live list. A chunk list, result vector and
    // forked sink per co-partition made 456 allocations for the 500-tuple
    // chunk (222 live co-partitions) and 98 for the 50-tuple one (44 live);
    // a fresh build table per call made 3 for either.
    assert_eq!(allocs, 1, "{allocs} allocations for {live} live co-partitions");
    assert_eq!(few_allocs, 1, "{few_allocs} allocations for {few_live} live co-partitions");
}

#[test]
fn partitioning_allocates_about_its_tuples() {
    set_jobs(1);
    // A unique 1,000-tuple relation: 8,000 B of keys and payloads.
    let config = fleet_exchange_config();
    let r = RelationSpec::unique(1_000, 3).generate();
    let (out, _, bytes) = allocs_during(|| GpuPartitioner::new(&config).partition(&r));
    assert_eq!(out.partitioned.total_tuples(), 1_000);
    // Dense runs with one histogram and one cursor per chunk request
    // 14,288 B in all. Summing the histograms into a separate count
    // vector, copying the run starts and cloning per-chunk start vectors
    // requested 20,456 B; host slots for every modeled bucket (about 64 KB
    // for the 8,000 B of tuples) requested 82,080 B.
    assert!(bytes <= 15_000, "{bytes} B allocated to partition 8,000 B of tuples");
}

#[test]
fn grouping_allocates_its_tuples_once() {
    set_jobs(1);
    // Co-processing's CPU level: a unique 20,000-tuple relation grouped 16
    // ways on its low key bits, 160,000 B of keys and payloads.
    let r = RelationSpec::unique(20_000, 3).generate();
    let (runs, allocs, bytes) =
        allocs_during(|| Runs::group(&r.keys, &r.payloads, 16, |k| (k & 15) as usize));
    assert_eq!((runs.fanout(), runs.len()), (16, 20_000));
    // The columns, the offsets and one cursor per partition: 4 allocations
    // requesting 160,264 B. Pushing into 16 growing relations made 321
    // allocations requesting 524,672 B here, and 449 requesting 8,388,992 B
    // for a 320,000-tuple relation (2,560,000 B of tuples).
    assert!(allocs <= 4, "{allocs} allocations to group 20,000 tuples");
    assert!(bytes <= 160_000 + 17 * 8 + 16 * 8, "{bytes} B to group 160,000 B of tuples");
}

#[test]
fn pro_allocations_do_not_grow_with_its_tuples() {
    set_jobs(1);
    // A unique 100,000-tuple build against a 200,000-tuple probe: PRO
    // partitions both sides at radix 1 and joins two co-partitions.
    let (r, s) = canonical_pair(100_000, 200_000, 5);
    let (out, allocs, bytes) = allocs_during(|| ProJoin::paper_default().execute(&r, &s));
    assert_eq!(out.check, JoinCheck::compute(&r, &s));
    // One scatter per side, one table per co-partition and the merge make
    // 14 allocations requesting 3.3 MB. Partitioning through per-thread
    // buffers plus a hash map of per-key vectors made 100,080 on the
    // calling thread alone, requesting 12.5 MB.
    assert!(allocs <= 32, "{allocs} allocations ({bytes} B) for a 300,000-tuple PRO join");
}

#[test]
fn streamed_probe_partitions_its_probe_in_place() {
    set_jobs(1);
    // A 20,000-tuple build on a GTX 1080 at radix 8, streaming a
    // 200,000-tuple probe in 20 chunks of 10,000 tuples.
    let config = GpuJoinConfig::paper_default(DeviceSpec::gtx1080()).with_radix_bits(8);
    let join = StreamedProbeJoin::new(StreamedProbeConfig::paper_default(config));
    let (r, s) = canonical_pair(20_000, 200_000, 5);
    let (out, _, bytes) = allocs_during(|| join.execute(&r, &s).expect("fits a GTX 1080"));
    assert_eq!(out.check, JoinCheck::compute(&r, &s));
    // Each chunk is partitioned from its range of the probe's columns:
    // 2,018,976 B in all. Copying the probe into chunk relations first
    // requested 3,620,096 B, 1,601,120 B of it the copy.
    assert!(bytes <= 2_018_976, "{bytes} B for a 220,000-tuple streamed probe");
}

#[test]
fn compact_oracle_allocates_one_direct_table() {
    set_jobs(1);
    // Generated keys lie in 1..=n: 20,001 slots of count and payload sum.
    let (r, s) = canonical_pair(20_000, 60_000, 5);
    let (check, allocs, bytes) = allocs_during(|| JoinCheck::compute(&r, &s));
    assert_eq!(check.matches, 60_000);
    assert_eq!(allocs, 1, "{allocs} allocations to check a compact 20,000 x 60,000 join");
    assert!(bytes <= 16 * 20_001, "{bytes} B for 20,001 direct slots");

    // Keys up to u32::MAX are sparse: the oracle keeps its hash table,
    // sized by the build's tuples, not by its largest key.
    let mut rng = SmallRng::seed_from_u64(0x5BA45E);
    let mut sparse = |len: usize| {
        let keys = (0..len).map(|i| if i == 0 { u32::MAX } else { rng.next_u64() as u32 });
        Relation::from_columns(keys.collect(), (0..len as u32).collect())
    };
    let (r, s) = (sparse(20_000), sparse(60_000));
    let (_, allocs, bytes) = allocs_during(|| JoinCheck::compute(&r, &s));
    assert_eq!(allocs, 1, "{allocs} allocations to check a sparse join");
    assert!(bytes < 64 * 20_000, "{bytes} B: a hash table of 20,000 keys, not 2^32 slots");
}

#[test]
fn compact_canonicalization_makes_three_allocations() {
    set_jobs(1);
    // A plan operator's 60,000 rows over 20,000 build keys.
    let (r, s) = canonical_pair(20_000, 60_000, 5);
    let rows = reference_join(&r, &s);
    let (rel, allocs, _) = allocs_during(|| rows_to_relation(&rows));
    assert_eq!(rel.len(), 60_000);
    // One scratch buffer of group offsets and payload pairs, then the two
    // columns.
    assert!(allocs <= 3, "{allocs} allocations to canonicalize 60,000 rows");
}

#[test]
fn two_pass_partitioning_moves_its_tuples_once() {
    set_jobs(1);
    // A unique 50,000-tuple relation at radix 12, two 6-bit passes, into
    // 1,024-tuple buckets: 400,000 B of keys and payloads.
    let mut config = GpuJoinConfig::paper_default(DeviceSpec::gtx1080()).with_radix_bits(12);
    config.bucket_capacity = 1024;
    let r = RelationSpec::unique(50_000, 2).generate();
    let (out, allocs, bytes) = allocs_during(|| GpuPartitioner::new(&config).partition(&r));
    assert_eq!((out.passes.len(), out.partitioned.fanout()), (2, 4_096));
    // One scatter into the final layout, through per-class counts and the
    // pass model's level lengths: 19 allocations requesting 533,136 B.
    // Regrouping the first pass's runs into a second set of columns made
    // 160 allocations requesting 937,688 B.
    assert!(allocs <= 24, "{allocs} allocations to partition 50,000 tuples in two passes");
    assert!(bytes <= 540_000, "{bytes} B to partition 400,000 B of tuples in two passes");
}
