//! Build-once, probe-many: the staging-aware variant of the GPU-resident
//! partitioned join that the serving layer's build-side cache is made of.
//!
//! [`GpuPartitionedJoin`](crate::GpuPartitionedJoin) assumes both inputs
//! are already device-resident, which is the right model for the paper's
//! warm micro-benchmarks but hides exactly the cost a cache saves. This
//! module splits the join into the two halves a serving system sees
//! (He et al., "Revisiting Co-Processing for Hash Joins on the Coupled
//! CPU-GPU Architecture": keep the hot build-side hash table resident and
//! probe it in place):
//!
//! * [`CachedBuildJoin::execute_cold`] stages *both* relations over PCIe,
//!   partitions both on the GPU and joins — and hands back a
//!   [`CachedBuild`]: the build side's partitioned bucket chains plus the
//!   byte/second cost of rebuilding them, ready to be pinned in device
//!   memory by a cache.
//! * [`CachedBuildJoin::execute_hot`] takes a previously built
//!   [`CachedBuild`] and only stages + partitions the probe side; the
//!   build side is neither transferred nor partitioned. A hit therefore
//!   issues strictly fewer kernel launches, H2D bytes, and device-memory
//!   transactions than the cold path on the same inputs — the saving is
//!   visible in the hardware counters, not asserted by fiat.
//!
//! Correctness stays oracle-observable: the hot path joins the *cached*
//! tuples against the request's probe side, so if a cache ever serves a
//! stale table (content version bumped underneath it) the join result
//! diverges from `JoinCheck::compute` on the request's own inputs and the
//! serving tests catch it.

use hcj_gpu::{Gpu, JoinError, Stream, TransferKind};
use hcj_sim::Sim;
use hcj_workload::Relation;

use crate::config::{GpuJoinConfig, OutputMode};
use crate::join::{join_all_copartitions, live_copartitions};
use crate::outcome::JoinOutcome;
use crate::output::late_materialization_cost;
use crate::partition::{GpuPartitioner, PartitionedRelation};

/// A build side that survived its cold join: the partitioned bucket
/// chains, ready to be probed again, plus what rebuilding them would cost
/// (the currency of cost-aware eviction).
#[derive(Clone, Debug)]
pub struct CachedBuild {
    /// The build relation, radix-partitioned exactly as the cold join
    /// left it on the device.
    pub partitioned: PartitionedRelation,
    /// Logical payload width of the build side (late-materialization
    /// traffic of future probes depends on it).
    pub payload_width: u32,
    /// Build-side cardinality (for `tuples_in` accounting of hot joins).
    pub build_tuples: u64,
    /// Device bytes the partitioned table occupies — what a cache must
    /// keep reserved for as long as the entry lives.
    pub table_bytes: u64,
    /// Simulated seconds the staging + partitioning of the build side
    /// took: the rebuild cost a cache avoids on every hit, and the
    /// numerator of the GreedyDual-Size eviction priority.
    pub build_seconds: f64,
    /// The build partitioning's early-stop decisions (all-false without
    /// fused refinement); every hot probe replays them so its
    /// co-partitions line up with the cached table's.
    pub refine_plan: crate::partition::RefinePlan,
}

/// The cold/hot pair of the build-side cache; shares its configuration
/// (radix bits, bucket tuning, device, fault plan) with every other
/// strategy so cached and uncached partitionings are interchangeable.
#[derive(Clone, Debug)]
pub struct CachedBuildJoin {
    /// Join configuration; the same `fanout_bits`/`base_bits` derive from
    /// it for cold and hot runs, so cached tables always co-partition
    /// with freshly partitioned probe sides.
    pub config: GpuJoinConfig,
}

impl CachedBuildJoin {
    /// Create the strategy; panics if the configuration's kernels cannot
    /// launch on the configured device (mirrors a CUDA launch failure).
    pub fn new(config: GpuJoinConfig) -> Self {
        config.validate().expect("join configuration exceeds the device's shared memory");
        CachedBuildJoin { config }
    }

    /// Cold path: stage both relations over PCIe, partition both on the
    /// GPU, join — and return the reusable build side next to the
    /// outcome. `Err` on OOM, exhausted retries, or device loss, exactly
    /// like the resident strategy.
    pub fn execute_cold(
        &self,
        r: &Relation,
        s: &Relation,
    ) -> Result<(JoinOutcome, CachedBuild), JoinError> {
        self.execute_staged(r, s, false, false)
    }

    /// The residency-aware cold path the plan executor uses: a side
    /// marked resident is a pinned intermediate already in device memory
    /// (a prior join's materialized output), so its PCIe transfer is
    /// skipped — its bytes are still reserved and it is still
    /// radix-partitioned, because pinning preserves materialized rows,
    /// not bucket chains. `execute_staged(r, s, false, false)` is exactly
    /// [`CachedBuildJoin::execute_cold`].
    pub fn execute_staged(
        &self,
        r: &Relation,
        s: &Relation,
        r_resident: bool,
        s_resident: bool,
    ) -> Result<(JoinOutcome, CachedBuild), JoinError> {
        let mut sim = Sim::new();
        let gpu = self.config.build_gpu(&mut sim);
        let mut stream = gpu.stream();
        let partitioner = GpuPartitioner::new(&self.config);

        // ---- stage + partition the build side ----
        let r_input = gpu.mem.reserve(r.bytes())?;
        if !r_resident {
            gpu.copy_h2d(&mut sim, &mut stream, "h2d build", r.bytes(), TransferKind::Pinned)?;
        }
        let r_out = partitioner.partition(r);
        drop(r_input); // bucket-pool recycling, as in the resident join
        let _r_pool = gpu.mem.reserve(r_out.partitioned.pool_bytes())?;
        let r_shape = self.config.partition_launch_shape(r.len());
        r_out.charge_passes(&mut sim, &gpu, &mut stream, "part build", r_shape)?;
        // Rebuild cost of the table just built: all H2D seconds so far
        // belong to the build side (the probe has not been staged yet).
        let build_seconds: f64 =
            gpu.counters().h2d.seconds + r_out.passes.iter().map(|p| p.seconds).sum::<f64>();

        // ---- stage + partition the probe side ----
        let s_input = gpu.mem.reserve(s.bytes())?;
        if !s_resident {
            gpu.copy_h2d(&mut sim, &mut stream, "h2d probe", s.bytes(), TransferKind::Pinned)?;
        }
        let s_out = partitioner.partition_following((&s.keys, &s.payloads), &r_out.refine_plan);
        drop(s_input);
        let _s_pool = gpu.mem.reserve(s_out.partitioned.pool_bytes())?;
        let s_shape = self.config.partition_launch_shape(s.len());
        s_out.charge_passes(&mut sim, &gpu, &mut stream, "part probe", s_shape)?;

        let outcome = join_partitioned(
            &self.config,
            sim,
            &gpu,
            &mut stream,
            &r_out.partitioned,
            r.payload_width,
            &s_out.partitioned,
            s.payload_width,
            (r.len() + s.len()) as u64,
        )?;
        let table_bytes = r_out.partitioned.pool_bytes();
        let cached = CachedBuild {
            partitioned: r_out.partitioned,
            payload_width: r.payload_width,
            build_tuples: r.len() as u64,
            table_bytes,
            build_seconds,
            refine_plan: r_out.refine_plan,
        };
        Ok((outcome, cached))
    }

    /// Hot path: the build side is already partitioned and resident
    /// (`cached`); only the probe side is staged and partitioned. The
    /// cached table's bytes are reserved for the duration of the join, as
    /// they are on the real device.
    pub fn execute_hot(
        &self,
        cached: &CachedBuild,
        s: &Relation,
    ) -> Result<JoinOutcome, JoinError> {
        self.execute_hot_from(cached, s, false)
    }

    /// The residency-aware hot path: like
    /// [`CachedBuildJoin::execute_hot`], but a probe side that is itself a
    /// pinned intermediate skips its PCIe transfer too — the fully warm
    /// case of a chain plan reusing a cached dimension build against a
    /// device-resident prior join output.
    pub fn execute_hot_from(
        &self,
        cached: &CachedBuild,
        s: &Relation,
        s_resident: bool,
    ) -> Result<JoinOutcome, JoinError> {
        let mut sim = Sim::new();
        let gpu = self.config.build_gpu(&mut sim);
        let mut stream = gpu.stream();
        let partitioner = GpuPartitioner::new(&self.config);

        // The resident table occupies its bytes throughout.
        let _table = gpu.mem.reserve(cached.table_bytes)?;

        let s_input = gpu.mem.reserve(s.bytes())?;
        if !s_resident {
            gpu.copy_h2d(&mut sim, &mut stream, "h2d probe", s.bytes(), TransferKind::Pinned)?;
        }
        let s_out = partitioner.partition_following((&s.keys, &s.payloads), &cached.refine_plan);
        drop(s_input);
        let _s_pool = gpu.mem.reserve(s_out.partitioned.pool_bytes())?;
        let s_shape = self.config.partition_launch_shape(s.len());
        s_out.charge_passes(&mut sim, &gpu, &mut stream, "part probe", s_shape)?;

        join_partitioned(
            &self.config,
            sim,
            &gpu,
            &mut stream,
            &cached.partitioned,
            cached.payload_width,
            &s_out.partitioned,
            s.payload_width,
            cached.build_tuples + s.len() as u64,
        )
    }
}

/// Device bytes every partitioned GPU join (resident, staged, hot) holds
/// at its peak: the partition pools it reserves — both sides', or on the
/// hot path only the probe's, beside a cached table the cache entry
/// reserves — plus the result buffer of `result_rows` materialized rows.
/// A pool holds every tuple of its input in a bucket slot, so the input
/// each pool replaces never outweighs it and never sets the peak.
pub fn partitioned_footprint(config: &GpuJoinConfig, pool_bytes: u64, result_rows: u64) -> u64 {
    pool_bytes + config.result_buffer_bytes(result_rows)
}

/// The tail every partitioned GPU join shares (resident, cold, hot):
/// join two partitioned relations, charge the one co-partition join
/// kernel, and package the outcome. Both sides were reordered by
/// partitioning, so late materialization of wide payloads pays scattered
/// fetches on each (Figs. 9–10).
#[allow(clippy::too_many_arguments)]
pub(crate) fn join_partitioned(
    config: &GpuJoinConfig,
    mut sim: Sim,
    gpu: &Gpu,
    stream: &mut Stream,
    r_part: &PartitionedRelation,
    r_width: u32,
    s_part: &PartitionedRelation,
    s_width: u32,
    tuples_in: u64,
) -> Result<JoinOutcome, JoinError> {
    let mut sink = config.make_sink();
    let mut join_cost = join_all_copartitions(config, r_part, s_part, &mut sink);
    join_cost += sink.cost();
    join_cost += late_materialization_cost(sink.matches(), r_width, true);
    join_cost += late_materialization_cost(sink.matches(), s_width, true);
    let _result_buf = match config.output {
        OutputMode::Materialize => {
            Some(gpu.mem.reserve(config.result_buffer_bytes(sink.matches()))?)
        }
        OutputMode::Aggregate => None,
    };
    let join_shape = config.join_launch_shape(live_copartitions(r_part, s_part));
    gpu.kernel(
        &mut sim,
        stream,
        "join copartitions",
        join_cost.time(&gpu.spec),
        &join_cost,
        join_shape,
    )?;
    Ok(JoinOutcome::finish(sim, gpu, sink, tuples_in))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcj_gpu::DeviceSpec;
    use hcj_workload::generate::canonical_pair;
    use hcj_workload::oracle::JoinCheck;

    fn config(bits: u32, tuples: usize) -> GpuJoinConfig {
        GpuJoinConfig::paper_default(DeviceSpec::gtx1080())
            .with_radix_bits(bits)
            .with_tuned_buckets(tuples)
    }

    #[test]
    fn cold_then_hot_both_match_oracle() {
        let (r, s) = canonical_pair(8_192, 32_768, 61);
        let join = CachedBuildJoin::new(config(8, 8_192));
        let expected = JoinCheck::compute(&r, &s);
        let (cold, cached) = join.execute_cold(&r, &s).unwrap();
        assert_eq!(cold.check, expected);
        let hot = join.execute_hot(&cached, &s).unwrap();
        assert_eq!(hot.check, expected, "probing the cached table gives the same join");
        assert!(cached.table_bytes > 0);
        assert!(cached.build_seconds > 0.0);
        assert_eq!(cached.build_tuples, 8_192);
    }

    #[test]
    fn hot_path_issues_strictly_less_work_than_cold() {
        let (r, s) = canonical_pair(16_384, 16_384, 62);
        let join = CachedBuildJoin::new(config(8, 16_384));
        let (cold, cached) = join.execute_cold(&r, &s).unwrap();
        let hot = join.execute_hot(&cached, &s).unwrap();
        let (c, h) = (cold.counters.rollup(), hot.counters.rollup());
        assert!(h.h2d_bytes < c.h2d_bytes, "hot skips the build-side transfer: {h:?} vs {c:?}");
        assert_eq!(h.h2d_bytes, s.bytes(), "hot stages exactly the probe side");
        assert!(h.kernel_launches < c.kernel_launches, "hot skips the build partition passes");
        assert!(h.issued_transactions < c.issued_transactions);
        assert!(h.device_bytes < c.device_bytes);
        assert!(
            hot.total_seconds() < cold.total_seconds(),
            "reuse must be faster: {} vs {}",
            hot.total_seconds(),
            cold.total_seconds()
        );
    }

    #[test]
    fn hot_join_against_stale_content_diverges_from_fresh_oracle() {
        // The stale-cache failure mode the service's version bumps guard
        // against: a content update grows the build relation's key domain,
        // so probing the *old* cached table misses the new keys and the
        // check no longer matches the fresh inputs' oracle. (A reshuffle
        // alone would be oracle-invisible — unique relations with the same
        // cardinality have the same key set — which is why versioned
        // relations must change their domain, not just their seed.)
        use hcj_workload::{KeyDistribution, RelationSpec};
        let r_old = RelationSpec::unique(4_096, 63).generate();
        let r_new = RelationSpec::unique(4_160, 63).generate();
        let s = RelationSpec {
            tuples: 8_192,
            distribution: KeyDistribution::UniformFk { distinct: 4_160 },
            payload_width: 4,
            seed: 99,
        }
        .generate();
        let join = CachedBuildJoin::new(config(7, 4_096));
        let (_, cached_old) = join.execute_cold(&r_old, &s).unwrap();
        let stale = join.execute_hot(&cached_old, &s).unwrap();
        let fresh = JoinCheck::compute(&r_new, &s);
        assert_ne!(stale.check, fresh, "stale reuse is detectable");
        // Rebuilding against the new content restores agreement.
        let (_, cached_new) = join.execute_cold(&r_new, &s).unwrap();
        assert_eq!(join.execute_hot(&cached_new, &s).unwrap().check, fresh);
    }

    #[test]
    fn resident_sides_skip_exactly_their_transfer() {
        let (r, s) = canonical_pair(8_192, 24_576, 66);
        let join = CachedBuildJoin::new(config(8, 8_192));
        let expected = JoinCheck::compute(&r, &s);
        let (cold, _) = join.execute_staged(&r, &s, false, false).unwrap();
        let (probe_res, _) = join.execute_staged(&r, &s, false, true).unwrap();
        let (both_res, cached) = join.execute_staged(&r, &s, true, true).unwrap();
        for outcome in [&cold, &probe_res, &both_res] {
            assert_eq!(outcome.check, expected, "residency never changes the result");
        }
        let (c, p, b) =
            (cold.counters.rollup(), probe_res.counters.rollup(), both_res.counters.rollup());
        assert_eq!(c.h2d_bytes, r.bytes() + s.bytes(), "cold stages both sides");
        assert_eq!(p.h2d_bytes, r.bytes(), "resident probe skips its transfer");
        assert_eq!(b.h2d_bytes, 0, "both resident: no PCIe at all");
        // Partitioning still runs for resident inputs: same kernel count.
        assert_eq!(c.kernel_launches, b.kernel_launches);
        // Fully-warm hot path: cached build + resident probe.
        let warm = join.execute_hot_from(&cached, &s, true).unwrap();
        assert_eq!(warm.check, expected);
        assert_eq!(warm.counters.rollup().h2d_bytes, 0);
        let hot = join.execute_hot_from(&cached, &s, false).unwrap();
        assert_eq!(hot.counters.rollup().h2d_bytes, s.bytes());
    }

    #[test]
    fn cold_and_hot_are_deterministic() {
        let (r, s) = canonical_pair(4_096, 12_288, 65);
        let join = CachedBuildJoin::new(config(7, 4_096));
        let (a, ca) = join.execute_cold(&r, &s).unwrap();
        let (b, cb) = join.execute_cold(&r, &s).unwrap();
        assert_eq!(a.check, b.check);
        assert_eq!(ca.table_bytes, cb.table_bytes);
        assert_eq!(ca.build_seconds, cb.build_seconds);
        let ha = join.execute_hot(&ca, &s).unwrap();
        let hb = join.execute_hot(&cb, &s).unwrap();
        assert_eq!(ha.counters.rollup(), hb.counters.rollup());
        assert_eq!(ha.total_seconds(), hb.total_seconds());
    }
}
