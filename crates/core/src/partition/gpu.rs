//! The multi-pass GPU radix partitioner (paper §III-A), execution-driven:
//! it really moves every tuple into its partition's run while counting the
//! hardware traffic each pass generates, bucket chains included.

use hcj_gpu::{Gpu, JoinError, KernelCost, LaunchShape, Stream};
use hcj_host::{DisjointSlice, Pool};
use hcj_sim::Sim;
use hcj_workload::{runs, Relation};

use crate::balance::round_robin_imbalance;
use crate::config::{GpuJoinConfig, PassAssignment};
use crate::partition::bucket::PartitionedRelation;
use crate::partition::PART_PAR_MIN;
use crate::radix::PassBits;

/// Per-pass traffic and timing statistics.
#[derive(Clone, Debug)]
pub struct PassStats {
    pub cost: KernelCost,
    /// Modeled execution time: `cost.time(device) * imbalance`.
    pub seconds: f64,
    /// Load-imbalance factor across SMs (1.0 = perfectly balanced).
    pub imbalance: f64,
    /// Buckets drawn from the pool (each draw is one global atomic).
    pub buckets_allocated: u64,
    /// Parents this pass finalized early (fused refinement): their chains
    /// were re-linked, not re-scattered, and contribute no tuple traffic.
    pub fused_parents: u64,
}

/// Which parents each refinement pass finalized early: `finalized[k][p]`
/// is true when refinement pass `k` (pass `k + 1` of the plan) carried
/// parent `p`'s chain over instead of splitting it. A pass whose parents
/// all finalized was skipped outright and the plan ends there.
///
/// The plan is decided on the *build* side and replayed verbatim on the
/// probe side ([`GpuPartitioner::partition_following`]): co-partitions
/// pair by index, so both relations must stop refining the same parents
/// at the same depth even though their sizes differ.
#[derive(Clone, Debug, Default)]
pub struct RefinePlan {
    pub finalized: Vec<Vec<bool>>,
}

impl RefinePlan {
    /// True when some parent was finalized early somewhere in the plan.
    pub fn any_fused(&self) -> bool {
        self.finalized.iter().any(|pass| pass.iter().any(|&f| f))
    }
}

/// The result of fully partitioning one relation.
#[derive(Clone, Debug)]
pub struct PartitionOutcome {
    pub partitioned: PartitionedRelation,
    pub passes: Vec<PassStats>,
    /// The early-stop decisions taken (all-false without fusion); feed to
    /// [`GpuPartitioner::partition_following`] for the other side.
    pub refine_plan: RefinePlan,
}

impl PartitionOutcome {
    /// Sum of the per-pass modeled times.
    pub fn total_seconds(&self) -> f64 {
        self.passes.iter().map(|p| p.seconds).sum()
    }

    /// Charge every pass on `stream` as one `"{label} pass{i}"` kernel
    /// launched with `shape`.
    pub(crate) fn charge_passes(
        &self,
        sim: &mut Sim,
        gpu: &Gpu,
        stream: &mut Stream,
        label: &str,
        shape: LaunchShape,
    ) -> Result<(), JoinError> {
        for (i, pass) in self.passes.iter().enumerate() {
            gpu.kernel(sim, stream, &format!("{label} pass{i}"), pass.seconds, &pass.cost, shape)?;
        }
        Ok(())
    }
}

/// Multi-pass GPU radix partitioner for a fixed configuration.
pub struct GpuPartitioner<'a> {
    pub config: &'a GpuJoinConfig,
}

impl<'a> GpuPartitioner<'a> {
    pub fn new(config: &'a GpuJoinConfig) -> Self {
        GpuPartitioner { config }
    }

    /// Partition `rel` into `2^config.radix_bits` partitions on the low
    /// radix bits.
    pub fn partition(&self, rel: &Relation) -> PartitionOutcome {
        self.run((&rel.keys, &rel.payloads), 0, None)
    }

    /// Partition a relation's or a chunk's key and payload columns,
    /// replaying the early-stop decisions of a previous
    /// [`GpuPartitioner::partition`] — the probe side of a fused join must
    /// stop refining exactly where the build side did so co-partition
    /// indices keep matching. With fusion off the plan is all-false and
    /// this is identical to [`GpuPartitioner::partition`].
    pub fn partition_following(
        &self,
        columns: (&[u32], &[u32]),
        plan: &RefinePlan,
    ) -> PartitionOutcome {
        self.run(columns, 0, Some(plan))
    }

    /// Partition a run's key and payload columns on the key bits
    /// `[base_bits, base_bits + config.radix_bits)` — the GPU-side
    /// refinement of a CPU partition in the co-processing strategy (all of
    /// the run already shares its low `base_bits`).
    pub fn partition_with_base(&self, run: (&[u32], &[u32]), base_bits: u32) -> PartitionOutcome {
        self.run(run, base_bits, None)
    }

    /// Decide the early-stop fate of every parent before a refinement
    /// pass: finalized parents (small enough to build in shared memory
    /// already, empty ones included) are carried; the rest split.
    fn decide(&self, parent: &PartitionedRelation) -> Vec<bool> {
        let active = self.config.fusion_active();
        let threshold = self.config.fuse_threshold();
        (0..parent.fanout()).map(|p| active && parent.partition_len(p) <= threshold).collect()
    }

    fn run(
        &self,
        (keys, payloads): (&[u32], &[u32]),
        base_bits: u32,
        follow: Option<&RefinePlan>,
    ) -> PartitionOutcome {
        let plan = self.config.pass_plan();
        let mut passes = Vec::with_capacity(plan.num_passes());

        // First pass: coalesced scan of the input columns, parallelized as
        // count → prefix → scatter. Per-chunk histograms fix every tuple's
        // output slot before any worker writes, so the result is
        // bit-identical to a serial tuple-by-tuple scan for any worker
        // count (tuple order within a partition is input order either way).
        let first = plan.passes()[0];
        let fanout = first.fanout() as usize;
        let part = |k: u32| first.local_index(k >> base_bits) as usize;
        let pool = Pool::current();
        let ranges = pool.chunks(keys.len(), PART_PAR_MIN);
        let hists = pool.map(&ranges, |_, range| runs::counts(&keys[range.clone()], fanout, part));
        let mut current = PartitionedRelation::from_counts(
            self.config.bucket_capacity,
            first.bits,
            base_bits,
            (0..fanout).map(|p| hists.iter().map(|h| h[p]).sum()),
        );
        let allocs = current.num_buckets() as u64;
        {
            let (out_keys, out_pays, offsets) = current.columns_mut();
            let key_slots = DisjointSlice::new(out_keys);
            let pay_slots = DisjointSlice::new(out_pays);
            pool.map(&ranges, |c, range| {
                // Chunk c writes partition p from its run start on, after
                // what the earlier chunks write there.
                let mut cursor: Vec<usize> = (0..fanout)
                    .map(|p| offsets[p] + hists[..c].iter().map(|h| h[p] as usize).sum::<usize>())
                    .collect();
                let (keys, payloads) = (&keys[range.clone()], &payloads[range.clone()]);
                runs::scatter(keys, payloads, part, &mut cursor, |slot, k, v| {
                    // SAFETY: the prefix sums give every (chunk, partition)
                    // a private slot range; each slot has one writer.
                    unsafe {
                        key_slots.write(slot, k);
                        pay_slots.write(slot, v);
                    }
                });
            });
        }
        passes.push(self.pass_stats(first, keys.len() as u64, allocs, 1.0, 1, 0));

        // Refinement passes: scan the previous pass's bucket chains.
        // Fused refinement may finalize parents early (or skip a pass
        // wholesale when every parent finalized); a follower replays the
        // recorded decisions instead of consulting its own sizes.
        let mut refine_plan = RefinePlan::default();
        for (k, &pass) in plan.passes()[1..].iter().enumerate() {
            let finalized = match follow {
                Some(plan) => {
                    let decisions = plan
                        .finalized
                        .get(k)
                        .cloned()
                        .unwrap_or_else(|| vec![false; current.fanout()]);
                    assert_eq!(
                        decisions.len(),
                        current.fanout(),
                        "followed refine plan disagrees with the pass structure"
                    );
                    decisions
                }
                None => self.decide(&current),
            };
            if finalized.iter().all(|&f| f) {
                // Every parent already fits the build budget: the pass is
                // not launched at all and the plan ends at this depth.
                refine_plan.finalized.push(finalized);
                continue;
            }
            let (next, stats) = self.refine(&current, pass, &finalized);
            refine_plan.finalized.push(finalized);
            current = next;
            passes.push(stats);
        }

        PartitionOutcome { partitioned: current, passes, refine_plan }
    }

    fn refine(
        &self,
        parent: &PartitionedRelation,
        pass: PassBits,
        finalized: &[bool],
    ) -> (PartitionedRelation, PassStats) {
        let new_bits = pass.shift + pass.bits;
        let local_fanout = pass.fanout() as usize;
        let shift = pass.shift as usize;
        let local = |k: u32| pass.local_index(k >> parent.base_bits) as usize;
        let live: Vec<usize> =
            (0..parent.fanout()).filter(|&p| parent.partition_len(p) > 0).collect();
        // Finalized parents carry over whole: their tuples land at child
        // index `p` (local digit 0) and the kernel never touches them —
        // the chain is re-linked under its new index, one random write.
        let refined: Vec<usize> = live.iter().copied().filter(|&p| !finalized[p]).collect();
        let carried: Vec<usize> = live.iter().copied().filter(|&p| finalized[p]).collect();
        // Work units for load balancing: buckets (bucket-at-a-time) or
        // whole chains (partition-at-a-time). The functional result is
        // identical; only the imbalance factor and the per-unit metadata
        // re-initialization differ (paper §III-A).
        let mut unit_weights: Vec<u64> = Vec::new();
        for &p in &refined {
            match self.config.assignment {
                PassAssignment::BucketAtATime => unit_weights.extend(parent.bucket_lens(p)),
                PassAssignment::PartitionAtATime => {
                    unit_weights.push(parent.partition_len(p));
                }
            }
        }
        // Parents refine independently: every child partition
        // `p | (local << shift)` belongs to exactly one parent `p`, so
        // per-parent counting and scattering touch disjoint slot ranges
        // with no cross-parent offsets, and each child's tuple order is
        // its parent's chain order — identical to the serial scan. A
        // carried parent's child index `p` collides with no refined child:
        // those are `q | (local << shift)` with `q` refined, and `q ≠ p`.
        let pool = Pool::current();
        let per_parent = pool.map(&refined, |_, &p| {
            runs::counts(parent.partition_columns(p).0, local_fanout, local)
        });
        let mut counts = vec![0u64; 1 << new_bits];
        for (h, &p) in per_parent.iter().zip(&refined) {
            for (local, &c) in h.iter().enumerate() {
                counts[p | (local << shift)] = c;
            }
        }
        for &p in &carried {
            counts[p] = parent.partition_len(p);
        }
        let mut next = PartitionedRelation::from_counts(
            self.config.bucket_capacity,
            new_bits,
            parent.base_bits,
            counts,
        );
        // Carried chains keep their buckets; only refined children draw
        // from the pool. (The physical copy below is simulation
        // bookkeeping — the modeled kernel re-links, it does not move.)
        let carried_buckets: u64 = carried.iter().map(|&p| next.chain_buckets(p) as u64).sum();
        let allocs = next.num_buckets() as u64 - carried_buckets;
        {
            let (keys, pays, offsets) = next.columns_mut();
            let key_slots = DisjointSlice::new(keys);
            let pay_slots = DisjointSlice::new(pays);
            pool.map(&live, |_, &p| {
                let (keys, payloads) = parent.partition_columns(p);
                let put = |slot, k, v| {
                    // SAFETY: children of distinct parents are disjoint
                    // partitions (a carried parent's one child `p`
                    // included), so every slot has exactly one writer.
                    unsafe {
                        key_slots.write(slot, k);
                        pay_slots.write(slot, v);
                    }
                };
                if finalized[p] {
                    runs::scatter(keys, payloads, |_| 0, &mut [offsets[p]], put);
                } else {
                    let mut cursor: Vec<usize> =
                        (0..local_fanout).map(|l| offsets[p | (l << shift)]).collect();
                    runs::scatter(keys, payloads, local, &mut cursor, put);
                }
            });
        }
        let sms = self.config.device.sms as usize;
        let imbalance = round_robin_imbalance(&unit_weights, sms);
        let n: u64 = refined.iter().map(|&p| parent.partition_len(p)).sum();
        let stats = self.pass_stats(
            pass,
            n,
            allocs,
            imbalance,
            unit_weights.len().max(1) as u64,
            carried.len() as u64,
        );
        (next, stats)
    }

    /// Traffic model of one pass over `n` tuples with `units` work units
    /// (each unit re-initializes the per-partition metadata in shared
    /// memory); `fused` parents were carried whole (one chain re-link
    /// each, no tuple traffic).
    fn pass_stats(
        &self,
        pass: PassBits,
        n: u64,
        buckets_allocated: u64,
        imbalance: f64,
        units: u64,
        fused: u64,
    ) -> PassStats {
        let mut cost = KernelCost::ZERO;
        cost.add_coalesced(8 * n); // read keys+payloads
        if self.config.write_combining {
            // Software write-combining (§III-A): tuples stage into and out
            // of the shared-memory shuffle tile, and the bucket writes
            // leave the SM as full coalesced sectors.
            cost.add_coalesced(8 * n); // write to bucket chains
            cost.add_shared(2 * 8 * n);
        } else {
            // Naive scatter straight from registers: no staging traffic,
            // but a warp's 32 stores land in up to `min(32, fanout)`
            // distinct sectors — each a separate memory transaction.
            let sectors_per_warp = u64::from(pass.fanout()).min(32);
            cost.add_random(n.div_ceil(32) * sectors_per_warp);
        }
        // One shared-memory atomic per tuple: the partition's offset
        // counter.
        cost.add_shared_atomics(n);
        // Partition-index arithmetic and flow control.
        cost.add_instructions(10 * n);
        // Pool allocations are device-memory atomics plus a random write
        // linking the chain.
        cost.add_global_atomics(buckets_allocated);
        cost.add_random(buckets_allocated);
        // Per-unit metadata (re)initialization: one offset + one bucket
        // pointer per in-flight partition of this pass, plus fetching the
        // unit's chain descriptors from device memory — the "more time
        // initializing internal data structures and accessing data in the
        // GPU memory" that bucket-at-a-time pays on uniform inputs
        // (paper §III-A; fine units = many fetches).
        let fanout = u64::from(pass.fanout());
        cost.add_shared(units * fanout * 8);
        cost.add_instructions(units * fanout);
        cost.add_random(2 * units);
        // Re-linking a finalized parent's chain under its child index is
        // one random pointer write.
        cost.add_random(fused);
        let seconds = cost.time(&self.config.device) * imbalance;
        PassStats { cost, seconds, imbalance, buckets_allocated, fused_parents: fused }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcj_gpu::DeviceSpec;
    use hcj_workload::{KeyDistribution, RelationSpec};
    use std::collections::HashMap;

    fn config(radix_bits: u32) -> GpuJoinConfig {
        let mut c = GpuJoinConfig::paper_default(DeviceSpec::gtx1080());
        c.radix_bits = radix_bits;
        c.bucket_capacity = 1024;
        c.partition_block_threads = 1024;
        c
    }

    fn check_is_correct_partition(rel: &Relation, out: &PartitionedRelation) {
        let mask = (out.fanout() - 1) as u32;
        let mut seen = 0u64;
        for p in 0..out.fanout() {
            for t in out.tuples_of(p) {
                assert_eq!(t.key & mask, p as u32, "tuple in wrong partition");
                seen += 1;
            }
        }
        assert_eq!(seen, rel.len() as u64, "tuples lost or duplicated");
        // Multiset equality via key counts.
        let mut want: HashMap<u32, i64> = HashMap::new();
        for t in rel.iter() {
            *want.entry(t.key).or_default() += 1;
        }
        for p in 0..out.fanout() {
            for t in out.tuples_of(p) {
                *want.entry(t.key).or_default() -= 1;
            }
        }
        assert!(want.values().all(|&c| c == 0), "multiset mismatch");
    }

    #[test]
    fn single_pass_partitions_correctly() {
        let rel = RelationSpec::unique(10_000, 1).generate();
        let cfg = config(6);
        let out = GpuPartitioner::new(&cfg).partition(&rel);
        assert_eq!(out.passes.len(), 1);
        check_is_correct_partition(&rel, &out.partitioned);
    }

    #[test]
    fn multi_pass_partitions_correctly() {
        let rel = RelationSpec::unique(50_000, 2).generate();
        let cfg = config(12); // two passes of 6 bits
        let out = GpuPartitioner::new(&cfg).partition(&rel);
        assert_eq!(out.passes.len(), 2);
        assert_eq!(out.partitioned.fanout(), 1 << 12);
        check_is_correct_partition(&rel, &out.partitioned);
    }

    #[test]
    fn zero_bits_gives_one_partition() {
        let rel = RelationSpec::unique(1000, 3).generate();
        let cfg = config(0);
        let out = GpuPartitioner::new(&cfg).partition(&rel);
        assert_eq!(out.partitioned.fanout(), 1);
        assert_eq!(out.partitioned.partition_len(0), 1000);
    }

    #[test]
    fn uniform_partition_sizes_are_even() {
        let rel = RelationSpec::unique(1 << 16, 4).generate();
        let cfg = config(8);
        let out = GpuPartitioner::new(&cfg).partition(&rel);
        for p in 0..256 {
            assert_eq!(out.partitioned.partition_len(p), 256);
        }
    }

    #[test]
    fn passes_report_positive_time_and_traffic() {
        let rel = RelationSpec::unique(100_000, 5).generate();
        let cfg = config(10);
        let out = GpuPartitioner::new(&cfg).partition(&rel);
        for pass in &out.passes {
            assert!(pass.seconds > 0.0);
            assert!(pass.cost.coalesced_bytes >= 2 * 8 * 100_000);
            assert!(pass.imbalance >= 1.0);
        }
        assert!(out.total_seconds() > 0.0);
        assert!(out.partitioned.pool_bytes() > 0);
    }

    #[test]
    fn skew_hurts_partition_at_a_time_more() {
        let rel = RelationSpec {
            tuples: 200_000,
            distribution: KeyDistribution::Zipf { distinct: 1 << 20, theta: 1.0 },
            payload_width: 4,
            seed: 6,
        }
        .generate();
        let mut bucket_cfg = config(12);
        bucket_cfg.assignment = PassAssignment::BucketAtATime;
        let mut chain_cfg = config(12);
        chain_cfg.assignment = PassAssignment::PartitionAtATime;
        let by_bucket = GpuPartitioner::new(&bucket_cfg).partition(&rel);
        let by_chain = GpuPartitioner::new(&chain_cfg).partition(&rel);
        // Functional results agree.
        assert_eq!(by_bucket.partitioned.total_tuples(), by_chain.partitioned.total_tuples());
        // The refinement pass (index 1) must be more imbalanced per chain.
        assert!(
            by_chain.passes[1].imbalance > by_bucket.passes[1].imbalance,
            "chain {} vs bucket {}",
            by_chain.passes[1].imbalance,
            by_bucket.passes[1].imbalance
        );
        assert!(by_chain.passes[1].seconds > by_bucket.passes[1].seconds);
    }

    #[test]
    fn uniform_favors_partition_at_a_time() {
        // For uniform data, bucket-at-a-time pays more metadata
        // re-initialization (the trade-off the paper accepts).
        let rel = RelationSpec::unique(1 << 18, 7).generate();
        let mut bucket_cfg = config(14);
        bucket_cfg.assignment = PassAssignment::BucketAtATime;
        bucket_cfg.bucket_capacity = 1024;
        let mut chain_cfg = bucket_cfg.clone();
        chain_cfg.assignment = PassAssignment::PartitionAtATime;
        let by_bucket = GpuPartitioner::new(&bucket_cfg).partition(&rel);
        let by_chain = GpuPartitioner::new(&chain_cfg).partition(&rel);
        assert!(
            by_bucket.passes[1].cost.shared_bytes > by_chain.passes[1].cost.shared_bytes,
            "bucket-at-a-time must pay more per-unit init traffic"
        );
    }

    #[test]
    fn base_shift_partitions_on_higher_bits() {
        // All keys share the low nibble 0x3 (as if CPU-partitioned 16-way);
        // the GPU refines on bits [4, 10).
        let rel: Relation =
            (0..4096u32).map(|i| hcj_workload::Tuple { key: (i << 4) | 0x3, payload: i }).collect();
        let cfg = config(6);
        let out = GpuPartitioner::new(&cfg).partition_with_base((&rel.keys, &rel.payloads), 4);
        assert_eq!(out.partitioned.base_bits, 4);
        assert_eq!(out.partitioned.fixed_bits(), 10);
        let mut seen = 0u64;
        for p in 0..out.partitioned.fanout() {
            for t in out.partitioned.tuples_of(p) {
                assert_eq!(((t.key >> 4) & 0x3F) as usize, p);
                assert_eq!(t.key & 0xF, 0x3);
                seen += 1;
            }
        }
        assert_eq!(seen, 4096);
    }

    /// Fusion-aware invariant: the fixed low bits every tuple of a child
    /// partition shares are the child's index bits up to the depth its
    /// refinement actually reached — carried parents stop at their pass's
    /// shift, refined children carry the full index. The weakest common
    /// guarantee is agreement on the *first* pass's bits, plus multiset
    /// preservation; the join kernels compare full keys, so deeper
    /// disagreement only lengthens chains.
    fn check_is_fused_partition(rel: &Relation, out: &PartitionedRelation, first_bits: u32) {
        let mask = (1u32 << first_bits) - 1;
        let mut seen = 0u64;
        for p in 0..out.fanout() {
            for t in out.tuples_of(p) {
                assert_eq!(t.key & mask, (p as u32) & mask, "tuple in wrong parent");
                seen += 1;
            }
        }
        assert_eq!(seen, rel.len() as u64, "tuples lost or duplicated");
        let mut want: HashMap<u32, i64> = HashMap::new();
        for t in rel.iter() {
            *want.entry(t.key).or_default() += 1;
        }
        for p in 0..out.fanout() {
            for t in out.tuples_of(p) {
                *want.entry(t.key).or_default() -= 1;
            }
        }
        assert!(want.values().all(|&c| c == 0), "multiset mismatch");
    }

    #[test]
    fn fused_refinement_skips_a_pass_when_every_parent_fits() {
        // 50K tuples, radix 12 (two 6-bit passes): after pass 1 each of
        // the 64 parents holds ~780 tuples ≤ the 4096-element budget, so
        // the refinement pass is never launched.
        let rel = RelationSpec::unique(50_000, 2).generate();
        let mut cfg = config(12);
        cfg.fuse_small_partitions = true;
        let out = GpuPartitioner::new(&cfg).partition(&rel);
        assert_eq!(out.passes.len(), 1, "refinement pass must be skipped");
        assert_eq!(out.partitioned.fanout(), 1 << 6);
        assert!(out.refine_plan.any_fused());
        check_is_correct_partition(&rel, &out.partitioned);
        let unfused = GpuPartitioner::new(&config(12)).partition(&rel);
        assert!(
            out.total_seconds() < unfused.total_seconds(),
            "skipping a pass must be faster: {} vs {}",
            out.total_seconds(),
            unfused.total_seconds()
        );
    }

    #[test]
    fn fused_refinement_carries_only_small_parents_under_skew() {
        // Zipf keys leave some pass-1 parents above the budget (they
        // split) and some below (they carry): a genuinely mixed pass.
        let rel = RelationSpec {
            tuples: 300_000,
            distribution: KeyDistribution::Zipf { distinct: 1 << 20, theta: 1.0 },
            payload_width: 4,
            seed: 9,
        }
        .generate();
        let mut cfg = config(12);
        cfg.fuse_small_partitions = true;
        let partitioner = GpuPartitioner::new(&cfg);
        let out = partitioner.partition(&rel);
        assert_eq!(out.passes.len(), 2, "hot parents must still refine");
        let fused = out.passes[1].fused_parents;
        assert!(fused > 0, "cold parents must carry");
        assert!(out.refine_plan.any_fused());
        check_is_fused_partition(&rel, &out.partitioned, 6);
        // The mixed pass moves fewer tuples than the unfused one.
        let unfused = GpuPartitioner::new(&config(12)).partition(&rel);
        assert!(
            out.passes[1].cost.coalesced_bytes < unfused.passes[1].cost.coalesced_bytes,
            "carried parents contribute no tuple traffic"
        );
        assert!(out.total_seconds() < unfused.total_seconds());
    }

    #[test]
    fn followers_replay_the_build_sides_decisions() {
        // The build side (small) finalizes everything after pass 1; the
        // probe side (large) would have refined on its own. Following
        // must reproduce the build side's structure regardless.
        let r = RelationSpec::unique(50_000, 2).generate();
        let s = RelationSpec::unique(400_000, 9).generate();
        let mut cfg = config(12);
        cfg.fuse_small_partitions = true;
        let partitioner = GpuPartitioner::new(&cfg);
        let r_out = partitioner.partition(&r);
        let s_out = partitioner.partition_following((&s.keys, &s.payloads), &r_out.refine_plan);
        assert_eq!(s_out.partitioned.fanout_bits, r_out.partitioned.fanout_bits);
        assert_eq!(s_out.partitioned.fanout(), 1 << 6);
        check_is_correct_partition(&s, &s_out.partitioned);
        // Left to its own devices, s (6250 tuples/parent) refines fully.
        let s_alone = partitioner.partition(&s);
        assert_eq!(s_alone.partitioned.fanout(), 1 << 12);
    }

    #[test]
    fn following_an_all_false_plan_is_plain_partitioning() {
        let rel = RelationSpec::unique(60_000, 10).generate();
        let cfg = config(12); // fusion off
        let partitioner = GpuPartitioner::new(&cfg);
        let a = partitioner.partition(&rel);
        assert!(!a.refine_plan.any_fused());
        let b = partitioner.partition_following((&rel.keys, &rel.payloads), &a.refine_plan);
        assert_eq!(a.partitioned.fanout(), b.partitioned.fanout());
        assert_eq!(a.total_seconds(), b.total_seconds());
        for p in 0..a.partitioned.fanout() {
            assert_eq!(a.partitioned.partition_len(p), b.partitioned.partition_len(p));
        }
    }

    #[test]
    fn naive_scatter_is_slower_and_more_random() {
        let rel = RelationSpec::unique(200_000, 11).generate();
        let wc_cfg = config(8);
        let mut naive_cfg = config(8);
        naive_cfg.write_combining = false;
        let wc = GpuPartitioner::new(&wc_cfg).partition(&rel);
        let naive = GpuPartitioner::new(&naive_cfg).partition(&rel);
        // Functionally identical — write-combining is a traffic model.
        check_is_correct_partition(&rel, &naive.partitioned);
        assert_eq!(wc.partitioned.total_tuples(), naive.partitioned.total_tuples());
        assert!(
            naive.passes[0].cost.random_transactions > wc.passes[0].cost.random_transactions,
            "uncombined warp stores must issue per-sector transactions"
        );
        assert!(naive.passes[0].cost.coalesced_bytes < wc.passes[0].cost.coalesced_bytes);
        assert!(
            naive.total_seconds() > wc.total_seconds(),
            "naive {} vs combined {}",
            naive.total_seconds(),
            wc.total_seconds()
        );
    }

    #[test]
    fn bucket_allocations_match_chain_structure() {
        let rel = RelationSpec::unique(10_000, 8).generate();
        let cfg = config(4);
        let out = GpuPartitioner::new(&cfg).partition(&rel);
        let total_buckets: usize =
            (0..out.partitioned.fanout()).map(|p| out.partitioned.chain_buckets(p)).sum();
        assert_eq!(out.passes[0].buckets_allocated, total_buckets as u64);
    }
}
