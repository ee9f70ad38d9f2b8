//! Per-co-partition join kernels (paper §III-B/§III-C).
//!
//! After partitioning, the join degenerates into many independent small
//! joins between co-partitions `(R_p, S_p)`. The kernels here are the
//! paper's three variants:
//!
//! * [`sm_hash::sm_hash_join`] — hash table in shared memory, 16-bit
//!   offset chains, wait-free atomic-exchange build (the default);
//! * [`ballot_nl::ballot_nl_join`] — warp-cooperative nested loop using
//!   ballot instructions (Listing 1);
//! * [`device_hash::device_hash_join`] — the same chained table kept in
//!   device memory (Fig. 6's strawman).
//!
//! [`join_all_copartitions`] drives one kernel over every co-partition
//! pair and accumulates traffic; long final chains are decomposed across
//! SMs (paper §III-A), so no imbalance factor applies to the probe phase.

pub mod ballot_nl;
pub mod device_hash;
pub mod sm_hash;

use std::cell::Cell;
use std::ops::{AddAssign, Range};

use hcj_gpu::KernelCost;
use hcj_host::Pool;

use crate::config::{GpuJoinConfig, ProbeKind};
use crate::join::sm_hash::BuildTable;
use crate::output::OutputSink;
use crate::partition::PartitionedRelation;

/// Minimum probe tuples worth handing to pool workers: the least per
/// worker chunk inside a single kernel, and the least live probe side
/// [`join_all_copartitions`] fans out over co-partitions for. Below it,
/// forking sinks and merging counters costs more than the loop, so the
/// work stays inline.
pub(crate) const PROBE_PAR_MIN: usize = 8192;

thread_local! {
    /// This thread's build table, reused by every co-partition join it
    /// runs. A probe run takes it and puts it back when done; a run that
    /// panics drops the table it took (see [`BuildTable`]).
    static BUILD_TABLE: Cell<BuildTable> = Cell::new(BuildTable::default());
}

/// What a probe loop counts besides its matches' output: chain steps
/// walked (warp steps for the nested loop) and matches emitted.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ProbeTally {
    pub steps: u64,
    pub matches: u64,
}

impl AddAssign for ProbeTally {
    fn add_assign(&mut self, other: ProbeTally) {
        self.steps += other.steps;
        self.matches += other.matches;
    }
}

/// Run `probe` over the work units `0..len` of a probe side, emitting into
/// `sink`, and return the summed tallies.
///
/// When `pool.chunks(len, min_chunk)` would return a single range (a
/// serial pool, a caller inside a pool worker, or `len` at or below the
/// chunk floor) the loop runs once on the caller's sink, with no chunk
/// list, result vector or forked sink. Otherwise each chunk emits into a
/// forked sink on a pool worker, and tallies and sinks fold back in chunk
/// order. Either way the sink ends bit-identical to the serial loop's
/// (see [`OutputSink::merge`]).
pub(crate) fn probe_chunks<T>(
    pool: Pool,
    len: usize,
    min_chunk: usize,
    sink: &mut OutputSink,
    probe: impl Fn(Range<usize>, &mut OutputSink) -> T + Sync,
) -> T
where
    T: Default + AddAssign + Send,
{
    if one_chunk(pool, len, min_chunk) {
        return probe(0..len, sink);
    }
    let per_chunk = pool.map(&pool.chunks(len, min_chunk), |_, range| {
        let mut local = sink.fork();
        (probe(range.clone(), &mut local), local)
    });
    let mut total = T::default();
    for (tally, local) in per_chunk {
        total += tally;
        sink.merge(local);
    }
    total
}

/// Whether `pool.chunks(len, min_chunk)` returns at most one range.
fn one_chunk(pool: Pool, len: usize, min_chunk: usize) -> bool {
    !pool.is_parallel() || len <= min_chunk.max(1)
}

/// Join every co-partition pair of two identically-partitioned relations,
/// writing matches to `sink`. Returns the aggregate kernel traffic
/// (excluding the sink's own output traffic — add `sink.cost()` once at
/// the end of the probe phase).
pub fn join_all_copartitions(
    config: &GpuJoinConfig,
    r: &PartitionedRelation,
    s: &PartitionedRelation,
    sink: &mut OutputSink,
) -> KernelCost {
    assert_eq!(
        (r.fanout_bits, r.base_bits),
        (s.fanout_bits, s.base_bits),
        "co-partition join requires identically partitioned inputs"
    );
    let shift = r.fixed_bits();
    let is_live = |&p: &usize| r.partition_len(p) > 0 && s.partition_len(p) > 0;
    let mut live = Vec::with_capacity((0..r.fanout()).filter(is_live).count());
    live.extend((0..r.fanout()).filter(is_live));
    // Co-partition pairs are fully independent. Fan out over pool workers
    // only when the live probe side pays for the hand-off; a worker joins
    // a contiguous run of co-partitions into one forked sink on its
    // thread's build table, and runs fold back in partition order.
    let probe_tuples: u64 = live.iter().map(|&p| s.partition_len(p)).sum();
    let pool = if probe_tuples >= PROBE_PAR_MIN as u64 { Pool::current() } else { Pool::new(1) };
    probe_chunks(pool, live.len(), 1, sink, |range, sink| {
        let mut table = BUILD_TABLE.take();
        let mut cost = KernelCost::ZERO;
        for &p in &live[range] {
            let (r_keys, r_pays) = r.partition_columns(p);
            let (s_keys, s_pays) = s.partition_columns(p);
            cost += match config.probe {
                ProbeKind::HashJoin => sm_hash::sm_hash_join(
                    config, shift, r_keys, r_pays, s_keys, s_pays, sink, &mut table,
                ),
                ProbeKind::NestedLoop => {
                    ballot_nl::ballot_nl_join(config, shift, r_keys, r_pays, s_keys, s_pays, sink)
                }
                ProbeKind::DeviceHashJoin => device_hash::device_hash_join(
                    config, shift, r_keys, r_pays, s_keys, s_pays, sink,
                ),
            };
        }
        BUILD_TABLE.set(table);
        cost
    })
}

/// Number of co-partition pairs the join kernel actually launches blocks
/// for: partitions where both sides are non-empty (one thread block per
/// live pair — the grid dimension of the co-partition join, used for
/// occupancy accounting).
pub fn live_copartitions(r: &PartitionedRelation, s: &PartitionedRelation) -> usize {
    (0..r.fanout().min(s.fanout()))
        .filter(|&p| r.partition_len(p) > 0 && s.partition_len(p) > 0)
        .count()
}

/// The in-partition hash function: multiplicative hashing over the key
/// bits *above* the radix bits already equal within a partition
/// (paper §III-C uses a second hash `h2` independent of the partitioning
/// hash `h1`, Fig. 1).
#[inline]
pub fn bucket_hash(key: u32, shift: u32, buckets: usize) -> usize {
    debug_assert!(buckets.is_power_of_two());
    if buckets <= 1 {
        return 0; // a 1-bucket table degenerates to a single chain
    }
    let x = (key >> shift).wrapping_mul(0x9E37_79B1);
    // Take the high bits of the product: better avalanche than the low.
    ((x >> (32 - buckets.trailing_zeros())) as usize) & (buckets - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcj_gpu::DeviceSpec;
    use hcj_workload::oracle::JoinCheck;
    use hcj_workload::{KeyDistribution, RelationSpec};

    use crate::config::OutputMode;
    use crate::partition::GpuPartitioner;

    fn run(
        probe: ProbeKind,
        r_tuples: usize,
        s_tuples: usize,
        bits: u32,
    ) -> (JoinCheck, JoinCheck) {
        let mut cfg = GpuJoinConfig::paper_default(DeviceSpec::gtx1080());
        cfg.radix_bits = bits;
        cfg.bucket_capacity = 1024;
        cfg.probe = probe;
        let r = RelationSpec::unique(r_tuples, 11).generate();
        let s = RelationSpec {
            tuples: s_tuples,
            distribution: KeyDistribution::UniformFk { distinct: r_tuples as u64 },
            payload_width: 4,
            seed: 12,
        }
        .generate();
        let pr = GpuPartitioner::new(&cfg).partition(&r).partitioned;
        let ps = GpuPartitioner::new(&cfg).partition(&s).partitioned;
        let mut sink = OutputSink::new(OutputMode::Aggregate, 512);
        let cost = join_all_copartitions(&cfg, &pr, &ps, &mut sink);
        assert!(cost.time(&cfg.device) > 0.0);
        (sink.check(), JoinCheck::compute(&r, &s))
    }

    #[test]
    fn hash_join_matches_oracle() {
        let (got, want) = run(ProbeKind::HashJoin, 4096, 16384, 6);
        assert_eq!(got, want);
    }

    #[test]
    fn nested_loop_matches_oracle() {
        let (got, want) = run(ProbeKind::NestedLoop, 2048, 8192, 5);
        assert_eq!(got, want);
    }

    #[test]
    fn device_hash_matches_oracle() {
        let (got, want) = run(ProbeKind::DeviceHashJoin, 4096, 16384, 6);
        assert_eq!(got, want);
    }

    #[test]
    fn one_chunk_is_exactly_when_pool_chunks_returns_one_range() {
        for jobs in [1, 2, 4] {
            let pool = Pool::new(jobs);
            for len in 0..200 {
                for min_chunk in [0, 1, 7, 16, 64] {
                    assert_eq!(
                        one_chunk(pool, len, min_chunk),
                        pool.chunks(len, min_chunk).len() <= 1,
                        "{jobs} jobs, len {len}, floor {min_chunk}"
                    );
                }
            }
        }
    }

    #[test]
    fn probe_chunks_matches_the_inline_loop() {
        // A row-capped sink that already holds rows: fanned-out chunks
        // must keep the same prefix and sums as the one inline loop.
        let run = |pool: Pool| {
            let mut sink = OutputSink::new(OutputMode::Materialize, 64).with_row_cap(300);
            for i in 0..50u32 {
                sink.emit(i, i, i);
            }
            let tally = probe_chunks(pool, 1000, 16, &mut sink, |range, out| {
                let mut t = ProbeTally::default();
                for j in range {
                    let j = j as u32;
                    t.steps += u64::from(j % 3);
                    if j % 2 == 0 {
                        t.matches += 1;
                        out.emit(j, j * 7, j * 11);
                    }
                }
                t
            });
            (sink.check(), sink.into_rows(), tally.steps, tally.matches)
        };
        let inline = run(Pool::new(1));
        assert_eq!((inline.1.len(), inline.0.matches), (300, 550));
        assert_eq!(run(Pool::new(4)), inline);
    }

    #[test]
    #[should_panic(expected = "identically partitioned")]
    fn mismatched_partitioning_rejected() {
        let cfg = GpuJoinConfig::paper_default(DeviceSpec::gtx1080());
        let r = PartitionedRelation::from_counts(1024, 3, 0, [0; 8]);
        let s = PartitionedRelation::from_counts(1024, 4, 0, [0; 16]);
        let mut sink = OutputSink::new(OutputMode::Aggregate, 512);
        let _ = join_all_copartitions(&cfg, &r, &s, &mut sink);
    }

    #[test]
    fn bucket_hash_ignores_partition_bits() {
        // Keys differing only in the low `shift` bits hash identically.
        assert_eq!(bucket_hash(0b1010_0011, 4, 256), bucket_hash(0b1010_1111, 4, 256));
        // Keys differing above the shift usually do not all collide.
        let distinct: std::collections::HashSet<usize> =
            (0..1024u32).map(|k| bucket_hash(k << 4, 4, 256)).collect();
        assert!(distinct.len() > 200, "hash too degenerate: {}", distinct.len());
    }

    #[test]
    fn bucket_hash_stays_in_range() {
        for k in (0..100_000u32).step_by(97) {
            assert!(bucket_hash(k, 8, 2048) < 2048);
        }
    }

    #[test]
    fn bucket_hash_single_bucket_degenerates_cleanly() {
        // buckets = 1 is a power of two and passes config validation; the
        // hash must not shift by 32 (debug-build overflow panic).
        for k in [0u32, 1, 12345, u32::MAX] {
            assert_eq!(bucket_hash(k, 0, 1), 0);
        }
    }
}
