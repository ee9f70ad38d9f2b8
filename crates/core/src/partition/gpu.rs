//! The multi-pass GPU radix partitioner (paper §III-A), execution-driven.
//! The device splits the radix bits into passes because a block's shared
//! memory caps the fanout; on the host that split is only a cost. So the
//! partitioner counts each tuple's radix class once, models every pass from
//! the counts (level lengths, fused early stops, [`PassStats`] with bucket
//! chains), and really moves each tuple once, with one stable scatter into
//! the layout the stable passes would leave.

use hcj_gpu::{Gpu, JoinError, KernelCost, LaunchShape, Stream};
use hcj_host::{DisjointSlice, Pool};
use hcj_sim::Sim;
use hcj_workload::{runs, Relation};

use crate::balance::round_robin_imbalance;
use crate::config::{GpuJoinConfig, PassAssignment};
use crate::partition::bucket::{bucket_lens, num_buckets, PartitionedRelation};
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

/// Class `c`'s partition at a modeled level of `bits` bits: `part_of[c]`
/// once some parent has been finalized, else the class's low `bits` bits.
fn level_index(part_of: &Option<Vec<u32>>, bits: u32, c: usize) -> usize {
    part_of.as_ref().map_or(c & ((1 << bits) - 1), |of| of[c] as usize)
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

    fn run(
        &self,
        (keys, payloads): (&[u32], &[u32]),
        base_bits: u32,
        follow: Option<&RefinePlan>,
    ) -> PartitionOutcome {
        let (plan, capacity) = (self.config.pass_plan(), self.config.bucket_capacity);
        // Count each tuple's radix class, its key bits `[base_bits, base_bits
        // + radix_bits)`, once, per chunk on the pool. The counts alone
        // decide every pass and its traffic, and fix every tuple's output
        // slot before any worker writes.
        let classes = plan.fanout() as usize;
        let class = |k: u32| plan.partition_of(k >> base_bits) as usize;
        let pool = Pool::current();
        let ranges = pool.chunks(keys.len(), PART_PAR_MIN);
        let hists =
            pool.map(&ranges, |_, range| runs::counts(&keys[range.clone()], classes, class));
        let count = |c: usize| hists.iter().map(|h| h[c]).sum::<u64>();

        // Model the passes level by level: the current level has `bits` bits
        // and holds class `c` in partition `level_index(&part_of, bits, c)`,
        // and `lens` holds its run lengths once a refinement has needed them.
        // The first level's partition `p` holds classes `p`, `p + fanout`, …
        let first = plan.passes()[0];
        let mut bits = first.bits;
        let mut part_of: Option<Vec<u32>> = None;
        let mut lens: Option<Vec<u64>> = None;
        let level = |part_of: &Option<Vec<u32>>, bits: u32| {
            let mut lens = vec![0; 1 << bits];
            for c in 0..classes {
                lens[level_index(part_of, bits, c)] += count(c);
            }
            lens
        };
        let fanout = first.fanout() as usize;
        let first_lens =
            (0..fanout).map(|p| (0..classes / fanout).map(|j| count(p + j * fanout)).sum());
        let mut passes = Vec::with_capacity(plan.num_passes());
        let allocs = num_buckets(first_lens, capacity);
        passes.push(self.pass_stats(first, keys.len() as u64, allocs, 1.0, 1, 0));

        // Fused refinement may finalize parents early, or skip a pass
        // wholesale when every parent finalized; a follower replays the
        // recorded decisions instead of consulting its own sizes.
        let (active, threshold) = (self.config.fusion_active(), self.config.fuse_threshold());
        let mut refine_plan = RefinePlan::default();
        for (k, &pass) in plan.passes()[1..].iter().enumerate() {
            let parents = lens.take().unwrap_or_else(|| level(&part_of, bits));
            let finalized: Vec<bool> = match follow {
                Some(plan) => plan.finalized.get(k).cloned().unwrap_or(vec![false; parents.len()]),
                None => parents.iter().map(|&len| active && len <= threshold).collect(),
            };
            let disagree = "followed refine plan disagrees with the pass structure";
            assert_eq!(finalized.len(), parents.len(), "{disagree}");
            // A finalized parent's classes stop at this level, and a skipped
            // pass leaves a gap in the bits a later split consumes: from here
            // on each class's partition is kept.
            if part_of.is_none() && finalized.contains(&true) {
                part_of = Some((0..classes).map(|c| level_index(&None, bits, c) as u32).collect());
            }
            if !finalized.contains(&false) {
                // Every parent already fits the build budget: the pass is
                // not launched at all and the plan ends at this depth.
                refine_plan.finalized.push(finalized);
                lens = Some(parents);
                continue;
            }
            // A refined parent `p` splits into children `p | (local <<
            // shift)`; a finalized one carries over whole as child `p`, which
            // no refined parent's child collides with.
            for (c, p) in part_of.iter_mut().flatten().enumerate() {
                if !finalized[*p as usize] {
                    *p |= pass.local_index(c as u32) << pass.shift;
                }
            }
            bits = pass.shift + pass.bits;
            let children = level(&part_of, bits);
            passes.push(self.refine_stats(pass, &parents, &finalized, &children));
            refine_plan.finalized.push(finalized);
            lens = Some(children);
        }

        // One stable scatter moves each tuple once, from its class to its
        // final partition in input order: the layout the stable passes would
        // leave pass by pass. Without `part_of` every pass split every
        // parent, so each class is its own final partition.
        let land = |c: usize| part_of.as_ref().map_or(c, |of| of[c] as usize);
        let part = |k: u32| land(class(k));
        let final_len = |p: usize| lens.as_ref().map_or_else(|| count(p), |lens| lens[p]);
        let final_lens = (0..1 << bits).map(final_len);
        let mut partitioned =
            PartitionedRelation::from_counts(capacity, bits, base_bits, final_lens);
        {
            let (out_keys, out_pays, offsets) = partitioned.columns_mut();
            let key_slots = DisjointSlice::new(out_keys);
            let pay_slots = DisjointSlice::new(out_pays);
            pool.map(&ranges, |chunk, range| {
                // The chunk writes each partition from its run start on,
                // after what the earlier chunks write there.
                let mut cursor = offsets[..offsets.len() - 1].to_vec();
                for h in &hists[..chunk] {
                    for (c, &n) in h.iter().enumerate() {
                        cursor[land(c)] += n as usize;
                    }
                }
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
        PartitionOutcome { partitioned, passes, refine_plan }
    }

    /// Refinement `pass` from its `parents`' lengths, the parents it
    /// `finalized` and its `children`'s lengths: only refined parents'
    /// tuples move, and only their children draw buckets from the pool;
    /// each carried chain is re-linked under its child index.
    fn refine_stats(
        &self,
        pass: PassBits,
        parents: &[u64],
        finalized: &[bool],
        children: &[u64],
    ) -> PassStats {
        let capacity = self.config.bucket_capacity;
        let live =
            |fin: bool| (0..parents.len()).filter(move |&p| parents[p] > 0 && finalized[p] == fin);
        // Work units for load balancing: buckets (bucket-at-a-time) or
        // whole chains (partition-at-a-time). The functional result is
        // identical; only the imbalance factor and the per-unit metadata
        // re-initialization differ (paper §III-A).
        let unit_weights: Vec<u64> = match self.config.assignment {
            PassAssignment::BucketAtATime => {
                live(false).flat_map(|p| bucket_lens(parents[p], capacity)).collect()
            }
            PassAssignment::PartitionAtATime => live(false).map(|p| parents[p]).collect(),
        };
        let carried = num_buckets(live(true).map(|p| parents[p]), capacity);
        let allocs = num_buckets(children.iter().copied(), capacity) - carried;
        let imbalance = round_robin_imbalance(&unit_weights, self.config.device.sms as usize);
        self.pass_stats(
            pass,
            live(false).map(|p| parents[p]).sum(),
            allocs,
            imbalance,
            unit_weights.len().max(1) as u64,
            live(true).count() as u64,
        )
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
    use crate::config::ProbeKind;
    use hcj_gpu::DeviceSpec;
    use hcj_workload::{KeyDistribution, RelationSpec, Runs};
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
        let lens = (0..out.partitioned.fanout()).map(|p| out.partitioned.partition_len(p));
        assert_eq!(out.passes[0].buckets_allocated, num_buckets(lens, cfg.bucket_capacity));
    }

    /// The pass-by-pass partitioning the one scatter replaces: each level's
    /// runs regrouped with `Runs::group`, a finalized parent landing whole at
    /// child `p`, an all-finalized pass skipped and recorded, and every pass
    /// charged from its inputs through the same cost functions.
    fn pass_by_pass(
        partitioner: &GpuPartitioner,
        (keys, payloads): (&[u32], &[u32]),
        base_bits: u32,
        follow: Option<&RefinePlan>,
    ) -> PartitionOutcome {
        let config = partitioner.config;
        let plan = config.pass_plan();
        let digit = |pass: PassBits| move |k: u32| pass.local_index(k >> base_bits) as usize;
        let split = |(keys, payloads): (&[u32], &[u32]), pass: PassBits| {
            let runs = Runs::group(keys, payloads, pass.fanout() as usize, digit(pass));
            (0..runs.fanout()).map(move |l| {
                let (keys, payloads) = runs.run(l);
                (keys.to_vec(), payloads.to_vec())
            })
        };
        let lens = |level: &[(Vec<u32>, Vec<u32>)]| -> Vec<u64> {
            level.iter().map(|(keys, _)| keys.len() as u64).collect()
        };
        let first = plan.passes()[0];
        let mut level: Vec<(Vec<u32>, Vec<u32>)> = split((keys, payloads), first).collect();
        let allocs = num_buckets(lens(&level), config.bucket_capacity);
        let mut passes = vec![partitioner.pass_stats(first, keys.len() as u64, allocs, 1.0, 1, 0)];
        let mut refine_plan = RefinePlan::default();
        for (k, &pass) in plan.passes()[1..].iter().enumerate() {
            let parents = lens(&level);
            let finalized: Vec<bool> = match follow {
                Some(plan) => plan.finalized.get(k).cloned().unwrap_or(vec![false; parents.len()]),
                None => parents
                    .iter()
                    .map(|&n| config.fusion_active() && n <= config.fuse_threshold())
                    .collect(),
            };
            if finalized.iter().all(|&f| f) {
                refine_plan.finalized.push(finalized);
                continue;
            }
            let mut next = vec![(Vec::new(), Vec::new()); 1 << (pass.shift + pass.bits)];
            for (p, run) in level.into_iter().enumerate() {
                if finalized[p] {
                    next[p] = run;
                } else {
                    for (l, child) in split((&run.0, &run.1), pass).enumerate() {
                        next[p | (l << pass.shift)] = child;
                    }
                }
            }
            passes.push(partitioner.refine_stats(pass, &parents, &finalized, &lens(&next)));
            refine_plan.finalized.push(finalized);
            level = next;
        }
        let bits = level.len().trailing_zeros();
        let mut partitioned =
            PartitionedRelation::from_counts(config.bucket_capacity, bits, base_bits, lens(&level));
        let (out_keys, out_payloads, offsets) = partitioned.columns_mut();
        for (p, (keys, payloads)) in level.iter().enumerate() {
            out_keys[offsets[p]..offsets[p + 1]].copy_from_slice(keys);
            out_payloads[offsets[p]..offsets[p + 1]].copy_from_slice(payloads);
        }
        PartitionOutcome { partitioned, passes, refine_plan }
    }

    /// Partition `columns` both ways and compare the whole outcomes: every
    /// run, the layout's bits and pool, the plan and every pass's stats,
    /// floats by their bits.
    fn check_against_pass_by_pass(
        config: &GpuJoinConfig,
        columns: (&[u32], &[u32]),
        base_bits: u32,
        follow: Option<&RefinePlan>,
        at: &str,
    ) -> PartitionOutcome {
        let partitioner = GpuPartitioner::new(config);
        let got = partitioner.run(columns, base_bits, follow);
        let want = pass_by_pass(&partitioner, columns, base_bits, follow);
        let (a, b) = (&got.partitioned, &want.partitioned);
        assert_eq!((a.fanout_bits, a.base_bits), (b.fanout_bits, b.base_bits), "{at}");
        assert_eq!(a.clone().columns_mut(), b.clone().columns_mut(), "{at}");
        assert_eq!(a.pool_bytes(), b.pool_bytes(), "{at}");
        assert_eq!(got.refine_plan.finalized, want.refine_plan.finalized, "{at}");
        let stats = |p: &PassStats| {
            let (seconds, imbalance) = (p.seconds.to_bits(), p.imbalance.to_bits());
            (p.cost, seconds, imbalance, p.buckets_allocated, p.fused_parents)
        };
        let want: Vec<_> = want.passes.iter().map(stats).collect();
        assert_eq!(got.passes.iter().map(stats).collect::<Vec<_>>(), want, "{at}");
        got
    }

    #[test]
    fn one_scatter_matches_the_pass_by_pass_layout() {
        let zipf = |tuples, seed| {
            let distribution = KeyDistribution::Zipf { distinct: 1 << 20, theta: 1.0 };
            RelationSpec { tuples, distribution, payload_width: 4, seed }.generate()
        };
        let five = |n: usize| {
            let keys = [3, 17, 64, 1 << 20, u32::MAX];
            Relation::from_columns(
                (0..n).map(|i| keys[i * 7 % 5]).collect(),
                (0..n as u32).collect(),
            )
        };
        // More than 32,768 tuples split into chunks on two or more workers.
        let rels = [
            ("empty", Relation::default()),
            ("one tuple", Relation::from_columns(vec![7], vec![70])),
            ("unique 3,000", RelationSpec::unique(3_000, 1).generate()),
            ("zipf 40,000", zipf(40_000, 2)),
            ("five keys 70,000", five(70_000)),
            ("unique 300,000", RelationSpec::unique(300_000, 3).generate()),
            ("zipf 300,000", zipf(300_000, 4)),
        ];
        // Passes that carry some parents and passes skipped outright.
        let (mut mixed, mut skipped) = (0, 0);
        for radix in [0, 6, 9, 12, 15, 16] {
            let plain = config(radix);
            let fused = plain.clone().with_fused_refinement(true);
            let configs = [
                ("fusion off", plain.clone()),
                ("fusion on", fused.clone()),
                ("fusion on, nested loop", fused.clone().with_probe(ProbeKind::NestedLoop)),
                ("partition at a time", fused.with_assignment(PassAssignment::PartitionAtATime)),
                ("no write-combining", plain.with_write_combining(false)),
            ];
            for (name, config) in &configs {
                for (rel_name, rel) in &rels {
                    let at = format!("radix {radix}, {name}, {rel_name}");
                    let columns = (&rel.keys[..], &rel.payloads[..]);
                    let out = check_against_pass_by_pass(config, columns, 0, None, &at);
                    mixed += out.passes.iter().filter(|p| p.fused_parents > 0).count();
                    skipped += config.pass_plan().num_passes() - out.passes.len();
                }
            }
        }
        assert!(mixed > 0 && skipped > 0, "{mixed} mixed and {skipped} skipped passes");

        // Co-processing's GPU level: keys sharing their low four bits.
        let base: Relation = (0..40_000u32)
            .map(|i| hcj_workload::Tuple {
                key: (i.wrapping_mul(2_654_435_761) << 4) | 0x3,
                payload: i,
            })
            .collect();
        for radix in [6, 9, 12] {
            let config = config(radix).with_fused_refinement(true);
            let at = format!("base 4, radix {radix}");
            check_against_pass_by_pass(&config, (&base.keys, &base.payloads), 4, None, &at);
        }

        // Followers replay a smaller build's plan on a larger probe and the
        // reverse; a three-pass plan replays a skip followed by a split.
        let (small, large) = (&rels[3].1, &rels[6].1);
        let mut three_pass = config(12).with_fused_refinement(true);
        three_pass.max_bits_per_pass = 4;
        let skip_then_split = RefinePlan { finalized: vec![vec![true; 16], vec![false; 16]] };
        for (name, config) in
            [("radix 9", config(9)), ("radix 15", config(15)), ("4+4+4", three_pass)]
        {
            let config = config.with_fused_refinement(true);
            let partitioner = GpuPartitioner::new(&config);
            for (lead, follower) in [(small, large), (large, small)] {
                let plan = partitioner.partition(lead).refine_plan;
                let at = format!("{name}, {} following {}", follower.len(), lead.len());
                check_against_pass_by_pass(
                    &config,
                    (&follower.keys, &follower.payloads),
                    0,
                    Some(&plan),
                    &at,
                );
            }
            if config.pass_plan().num_passes() == 3 {
                let columns = (&small.keys[..], &small.payloads[..]);
                check_against_pass_by_pass(&config, columns, 0, Some(&skip_then_split), name);
            }
        }
    }
}
