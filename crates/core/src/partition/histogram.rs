//! The histogram-based GPU radix partitioner — the alternative the paper
//! argues against (§VI, vs. Rui & Tu SSDBM'17: "our approach avoids an
//! extra pass on each partitioning step by using GPU atomic operations
//! instead of building histograms").
//!
//! Classic two-phase structure per pass: (1) a counting pass builds a
//! per-block histogram of partition sizes; (2) a prefix sum turns counts
//! into exact write offsets; (3) a scatter pass re-reads the input and
//! writes every tuple to its final, contiguous position. The output is
//! dense (no bucket chains, no pool slack) — but every pass reads the
//! input *twice* and runs an extra kernel, which is exactly the traffic
//! the paper's chained-bucket design eliminates.

use hcj_gpu::KernelCost;
use hcj_host::{DisjointSlice, Pool};
use hcj_workload::Relation;

use crate::config::GpuJoinConfig;
use crate::partition::gpu::{PartitionOutcome, PassStats};
use crate::partition::PartitionedRelation;

/// The two-phase histogram partitioner (comparator to
/// [`crate::partition::GpuPartitioner`]).
pub struct HistogramPartitioner<'a> {
    pub config: &'a GpuJoinConfig,
}

impl<'a> HistogramPartitioner<'a> {
    pub fn new(config: &'a GpuJoinConfig) -> Self {
        HistogramPartitioner { config }
    }

    /// Partition `rel` on the low `config.radix_bits`, producing the same
    /// logical result as the bucket-chain partitioner (partitions are
    /// stored as single exact-size "buckets").
    pub fn partition(&self, rel: &Relation) -> PartitionOutcome {
        let plan = self.config.pass_plan();
        let mut passes = Vec::with_capacity(plan.num_passes());

        // Work through the passes over dense intermediate vectors.
        let pool = Pool::current();
        let mut keys: Vec<u32> = rel.keys.clone();
        let mut pays: Vec<u32> = rel.payloads.clone();
        let mut bounds: Vec<usize> = vec![0, keys.len()]; // partition boundaries so far
        for &pass in plan.passes() {
            let fanout = pass.fanout() as usize;
            let n = keys.len() as u64;
            let mut new_keys = vec![0u32; keys.len()];
            let mut new_pays = vec![0u32; pays.len()];
            // Windows are disjoint input ranges whose output also stays
            // inside [lo, hi): each can run on its own pool worker writing
            // through disjoint slots, identical to the serial loop.
            let windows: Vec<(usize, usize)> = bounds.windows(2).map(|w| (w[0], w[1])).collect();
            let hists = {
                let key_slots = DisjointSlice::new(&mut new_keys);
                let pay_slots = DisjointSlice::new(&mut new_pays);
                pool.map(&windows, |_, &(lo, hi)| {
                    // Phase 1: histogram.
                    let mut hist = vec![0usize; fanout];
                    for &k in &keys[lo..hi] {
                        hist[pass.local_index(k) as usize] += 1;
                    }
                    // Phase 2: exclusive prefix sum -> write cursors.
                    let mut cursors = vec![0usize; fanout];
                    let mut acc = lo;
                    for q in 0..fanout {
                        cursors[q] = acc;
                        acc += hist[q];
                    }
                    // Phase 3: scatter.
                    for i in lo..hi {
                        let q = pass.local_index(keys[i]) as usize;
                        // SAFETY: cursors stay within this window's
                        // [lo, hi); windows are disjoint → one writer per
                        // slot.
                        unsafe {
                            key_slots.write(cursors[q], keys[i]);
                            pay_slots.write(cursors[q], pays[i]);
                        }
                        cursors[q] += 1;
                    }
                    hist
                })
            };
            let mut new_bounds = Vec::with_capacity(windows.len() * fanout + 1);
            new_bounds.push(0usize);
            for (&(lo, _), hist) in windows.iter().zip(&hists) {
                let mut acc = lo;
                for &h in hist {
                    acc += h;
                    new_bounds.push(acc);
                }
            }
            keys = new_keys;
            pays = new_pays;
            bounds = new_bounds;

            // Traffic: the histogram pass re-reads every key; the scatter
            // pass reads tuples and writes them (coalesced through the
            // same shared-memory shuffle as the chained variant); prefix
            // sums are cheap. Two kernels per pass.
            let mut cost = KernelCost::ZERO;
            cost.add_coalesced(4 * n); // histogram: keys only
            cost.add_shared_atomics(n); // histogram counters
            cost.add_coalesced(8 * n); // scatter: read tuples
            cost.add_coalesced(8 * n); // scatter: write tuples
            cost.add_shared(2 * 8 * n); // shuffle staging
            cost.add_shared_atomics(n); // scatter cursors
            cost.add_instructions(14 * n + (bounds.len() as u64) * 4);
            let seconds =
                cost.time(&self.config.device) + 2.0 * self.config.device.launch_overhead_s;
            passes.push(PassStats {
                cost,
                seconds,
                imbalance: 1.0,
                buckets_allocated: 0,
                fused_parents: 0,
            });
        }

        // Materialize into the common PartitionedRelation shape (each
        // partition one exact chain; capacity can hold the largest).
        let largest = bounds.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(1).max(1);
        let capacity = largest.next_multiple_of(32);
        // Segments are contiguous runs of one radix partition, but the
        // multi-pass refinement leaves them in parent-major order: derive
        // the partition index from the keys themselves.
        let segments: Vec<(usize, usize, usize)> = bounds
            .windows(2)
            .filter(|w| w[0] < w[1])
            .map(|w| (plan.partition_of(keys[w[0]]) as usize, w[0], w[1]))
            .collect();
        let mut counts = vec![0u64; 1 << plan.total_bits()];
        for &(p, lo, hi) in &segments {
            counts[p] += (hi - lo) as u64;
        }
        let mut out = PartitionedRelation::from_counts(capacity, plan.total_bits(), 0, counts);
        {
            let (out_keys, out_pays, offsets) = out.columns_mut();
            let mut cursor = offsets.to_vec();
            let starts: Vec<usize> = segments
                .iter()
                .map(|&(p, lo, hi)| {
                    let s = cursor[p];
                    cursor[p] += hi - lo;
                    s
                })
                .collect();
            let key_slots = DisjointSlice::new(out_keys);
            let pay_slots = DisjointSlice::new(out_pays);
            pool.map(&segments, |s, &(p, lo, hi)| {
                for i in lo..hi {
                    debug_assert_eq!(plan.partition_of(keys[i]) as usize, p);
                    // SAFETY: the running cursors give every segment a
                    // private slot run; one writer per slot.
                    unsafe {
                        key_slots.write(starts[s] + (i - lo), keys[i]);
                        pay_slots.write(starts[s] + (i - lo), pays[i]);
                    }
                }
            });
        }
        PartitionOutcome { partitioned: out, passes, refine_plan: Default::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::GpuPartitioner;
    use hcj_gpu::DeviceSpec;
    use hcj_workload::RelationSpec;

    fn config(bits: u32) -> GpuJoinConfig {
        GpuJoinConfig::paper_default(DeviceSpec::gtx1080())
            .with_radix_bits(bits)
            .with_tuned_buckets(1 << 14)
    }

    #[test]
    fn produces_a_correct_radix_partition() {
        let rel = RelationSpec::unique(20_000, 91).generate();
        let cfg = config(7);
        let out = HistogramPartitioner::new(&cfg).partition(&rel);
        assert_eq!(out.partitioned.fanout(), 128);
        let mut seen = 0u64;
        for p in 0..128 {
            for t in out.partitioned.tuples_of(p) {
                assert_eq!(t.key & 127, p as u32);
                seen += 1;
            }
        }
        assert_eq!(seen, 20_000);
    }

    #[test]
    fn agrees_with_the_chained_partitioner_per_partition() {
        let rel = RelationSpec::zipf(30_000, 1 << 16, 0.8, 92).generate();
        let cfg = config(9);
        let hist = HistogramPartitioner::new(&cfg).partition(&rel);
        let chain = GpuPartitioner::new(&cfg).partition(&rel);
        for p in 0..hist.partitioned.fanout() {
            let mut a: Vec<u32> = hist.partitioned.tuples_of(p).map(|t| t.key).collect();
            let mut b: Vec<u32> = chain.partitioned.tuples_of(p).map(|t| t.key).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "partition {p}");
        }
    }

    #[test]
    fn histogram_pays_extra_read_traffic() {
        // Per pass, the histogram variant reads every key twice — the §VI
        // argument for the paper's atomic bucket chains.
        let rel = RelationSpec::unique(1 << 18, 93).generate();
        let cfg = config(12);
        let hist = HistogramPartitioner::new(&cfg).partition(&rel);
        let chain = GpuPartitioner::new(&cfg).partition(&rel);
        let h_bytes: u64 = hist.passes.iter().map(|p| p.cost.coalesced_bytes).sum();
        let c_bytes: u64 = chain.passes.iter().map(|p| p.cost.coalesced_bytes).sum();
        assert!(h_bytes > c_bytes, "histogram {h_bytes} vs chained {c_bytes}");
        assert!(
            hist.total_seconds() > chain.total_seconds(),
            "histogram {} vs chained {}",
            hist.total_seconds(),
            chain.total_seconds()
        );
    }

    #[test]
    fn multi_pass_matches_direct_radix() {
        let rel = RelationSpec::unique(4096, 94).generate();
        let cfg = config(10); // 2 passes
        let out = HistogramPartitioner::new(&cfg).partition(&rel);
        assert_eq!(out.passes.len(), 2);
        for p in 0..out.partitioned.fanout() {
            for t in out.partitioned.tuples_of(p) {
                assert_eq!((t.key & 1023) as usize, p);
            }
        }
    }
}
