//! The end-to-end GPU-resident partitioned join (paper §III, Figs. 5–10).
//!
//! Orchestration: both relations are radix-partitioned on the GPU into
//! shared-memory-sized bucket chains, then every co-partition pair is
//! joined by the configured probe kernel. All phases run as kernels on one
//! stream (each pass reads the previous pass's output, so in-GPU execution
//! is inherently serial); the simulated timeline therefore reflects kernel
//! durations plus launch overheads.
//!
//! Device-memory pressure is enforced: inputs, bucket pools and
//! materialized results all reserve accounted capacity (at the peak, both
//! pools and the result: [`crate::partitioned_footprint`]), and the
//! strategy reports a typed [`JoinError::OutOfDeviceMemory`] when the
//! working set cannot fit — the condition that sends callers to the
//! out-of-GPU strategies of §IV.
//! With a fault plan armed ([`GpuJoinConfig::faults`]) transient kernel
//! faults are retried with backoff; device-lost propagates for the engine
//! facade to handle (CPU fallback).

use hcj_gpu::JoinError;
use hcj_sim::Sim;
use hcj_workload::Relation;

use crate::cached_build::join_partitioned;
use crate::config::GpuJoinConfig;
use crate::outcome::JoinOutcome;
use crate::partition::GpuPartitioner;

/// The paper's in-GPU partitioned hash/nested-loop join.
#[derive(Clone, Debug)]
pub struct GpuPartitionedJoin {
    pub config: GpuJoinConfig,
}

impl GpuPartitionedJoin {
    /// Create the strategy; panics if the configuration's kernels cannot
    /// launch on the configured device (mirrors a CUDA launch failure).
    pub fn new(config: GpuJoinConfig) -> Self {
        config.validate().expect("join configuration exceeds the device's shared memory");
        GpuPartitionedJoin { config }
    }

    /// Execute over GPU-resident relations; `Err` when device memory
    /// cannot hold the working set, a device fault survives its retries,
    /// or the device is lost.
    pub fn execute(&self, r: &Relation, s: &Relation) -> Result<JoinOutcome, JoinError> {
        let mut sim = Sim::new();
        let gpu = self.config.build_gpu(&mut sim);
        let mut stream = gpu.stream();

        // Inputs are resident for this scenario.
        let r_input = gpu.mem.reserve(r.bytes())?;
        let s_input = gpu.mem.reserve(s.bytes())?;

        // ---- partition both relations ----
        // Bucket-pool recycling: a partitioning pass frees its source
        // buffers as it drains them, so a relation's input and its full
        // partitioned form never coexist (this is how a ~5 GB TPC-H
        // working set fits the paper's 8 GB card, §V-C). The accounting
        // below mirrors that: each input reservation drops when its
        // partitioning completes.
        let partitioner = GpuPartitioner::new(&self.config);
        let r_out = partitioner.partition(r);
        drop(r_input);
        let _r_pool = gpu.mem.reserve(r_out.partitioned.pool_bytes())?;
        let r_shape = self.config.partition_launch_shape(r.len());
        r_out.charge_passes(&mut sim, &gpu, &mut stream, "part r", r_shape)?;
        // The probe side replays the build side's early-stop decisions
        // (inert without fusion) so co-partition indices keep matching.
        let s_out = partitioner.partition_following((&s.keys, &s.payloads), &r_out.refine_plan);
        drop(s_input);
        let _s_pool = gpu.mem.reserve(s_out.partitioned.pool_bytes())?;
        let s_shape = self.config.partition_launch_shape(s.len());
        s_out.charge_passes(&mut sim, &gpu, &mut stream, "part s", s_shape)?;

        // ---- join co-partitions ----
        join_partitioned(
            &self.config,
            sim,
            &gpu,
            &mut stream,
            &r_out.partitioned,
            r.payload_width,
            &s_out.partitioned,
            s.payload_width,
            (r.len() + s.len()) as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcj_gpu::DeviceSpec;
    use hcj_workload::generate::canonical_pair;
    use hcj_workload::oracle::{assert_join_matches, JoinCheck};
    use hcj_workload::RelationSpec;

    use crate::config::{OutputMode, ProbeKind};

    fn small_config(bits: u32, tuples: usize) -> GpuJoinConfig {
        GpuJoinConfig::paper_default(DeviceSpec::gtx1080())
            .with_radix_bits(bits)
            .with_tuned_buckets(tuples)
    }

    #[test]
    fn aggregates_match_oracle() {
        let (r, s) = canonical_pair(16_384, 65_536, 31);
        let join = GpuPartitionedJoin::new(small_config(8, 16_384));
        let out = join.execute(&r, &s).unwrap();
        assert_eq!(out.check, JoinCheck::compute(&r, &s));
        assert!(out.rows.is_none());
        assert!(out.total_seconds() > 0.0);
        assert!(out.throughput_tuples_per_s() > 0.0);
    }

    #[test]
    fn materialization_matches_oracle() {
        let (r, s) = canonical_pair(4096, 8192, 32);
        let join =
            GpuPartitionedJoin::new(small_config(6, 4096).with_output(OutputMode::Materialize));
        let out = join.execute(&r, &s).unwrap();
        assert_join_matches(&r, &s, out.rows.as_ref().unwrap());
    }

    #[test]
    fn materialization_is_slower_but_not_catastrophic() {
        let (r, s) = canonical_pair(32_768, 32_768, 33);
        let agg = GpuPartitionedJoin::new(small_config(9, 32_768)).execute(&r, &s).unwrap();
        let mat =
            GpuPartitionedJoin::new(small_config(9, 32_768).with_output(OutputMode::Materialize))
                .execute(&r, &s)
                .unwrap();
        let t_agg = agg.total_seconds();
        let t_mat = mat.total_seconds();
        assert!(t_mat >= t_agg);
        // Fig. 7: materialization "traces" aggregation — under 2x here.
        assert!(t_mat < 2.0 * t_agg, "agg {t_agg} mat {t_mat}");
    }

    #[test]
    fn nested_loop_probe_matches_oracle() {
        let (r, s) = canonical_pair(4096, 4096, 34);
        let join = GpuPartitionedJoin::new(small_config(7, 4096).with_probe(ProbeKind::NestedLoop));
        let out = join.execute(&r, &s).unwrap();
        assert_eq!(out.check, JoinCheck::compute(&r, &s));
    }

    #[test]
    fn phases_are_populated() {
        let (r, s) = canonical_pair(8192, 8192, 35);
        let out = GpuPartitionedJoin::new(small_config(8, 8192)).execute(&r, &s).unwrap();
        use crate::outcome::Phase;
        assert!(out.phases.time(Phase::GpuPartition).as_nanos() > 0);
        assert!(out.phases.time(Phase::Join).as_nanos() > 0);
        assert_eq!(out.phases.time(Phase::TransferIn).as_nanos(), 0);
        assert!(out.join_phase_throughput() > out.throughput_tuples_per_s());
    }

    #[test]
    fn too_large_working_set_reports_oom() {
        // A 512 B device cannot hold even two 1024-tuple inputs.
        let small = RelationSpec::unique(1024, 36).generate();
        let tiny = DeviceSpec::gtx1080().scaled_capacity(1 << 24);
        let cfg = GpuJoinConfig::paper_default(tiny).with_radix_bits(8);
        let join = GpuPartitionedJoin::new(cfg.with_tuned_buckets(1024));
        let err = join.execute(&small, &small).unwrap_err();
        assert!(err.is_transient());
        match err {
            JoinError::OutOfDeviceMemory(oom) => assert!(oom.requested > 0),
            other => panic!("expected OOM, got {other}"),
        }
    }

    #[test]
    fn fused_refinement_matches_unfused_and_is_no_slower() {
        // Uniform and skewed workloads, fused vs unfused: identical join
        // results (the oracle-differential guarantee the speed campaign
        // rests on), with fused runs at least as fast.
        let workloads = [
            canonical_pair(50_000, 200_000, 41),
            (
                RelationSpec::zipf(30_000, 1 << 16, 1.0, 42).generate(),
                RelationSpec::zipf(120_000, 1 << 16, 1.0, 43).generate(),
            ),
        ];
        for (r, s) in &workloads {
            let base = small_config(12, r.len());
            let unfused = GpuPartitionedJoin::new(base.clone()).execute(r, s).unwrap();
            let fused =
                GpuPartitionedJoin::new(base.with_fused_refinement(true)).execute(r, s).unwrap();
            assert_eq!(fused.check, JoinCheck::compute(r, s));
            assert_eq!(fused.check, unfused.check);
            assert!(
                fused.total_seconds() <= unfused.total_seconds(),
                "fused {} vs unfused {}",
                fused.total_seconds(),
                unfused.total_seconds()
            );
        }
    }

    #[test]
    fn fused_materialization_matches_oracle() {
        let (r, s) = canonical_pair(20_000, 40_000, 44);
        let join = GpuPartitionedJoin::new(
            small_config(10, 20_000)
                .with_fused_refinement(true)
                .with_output(OutputMode::Materialize),
        );
        let out = join.execute(&r, &s).unwrap();
        assert_join_matches(&r, &s, out.rows.as_ref().unwrap());
    }

    #[test]
    fn skewed_inputs_still_join_correctly() {
        let r = RelationSpec::zipf(20_000, 4096, 0.9, 37).generate();
        let s = RelationSpec::zipf(20_000, 4096, 0.9, 38).generate();
        let join = GpuPartitionedJoin::new(small_config(6, 20_000));
        let out = join.execute(&r, &s).unwrap();
        assert_eq!(out.check, JoinCheck::compute(&r, &s));
    }

    #[test]
    fn wide_payloads_slow_the_join() {
        let (mut r, mut s) = canonical_pair(32_768, 32_768, 39);
        let narrow = GpuPartitionedJoin::new(small_config(9, 32_768)).execute(&r, &s).unwrap();
        r.payload_width = 128;
        s.payload_width = 128;
        let wide = GpuPartitionedJoin::new(small_config(9, 32_768)).execute(&r, &s).unwrap();
        assert_eq!(narrow.check, wide.check);
        assert!(wide.total_seconds() > narrow.total_seconds());
    }
}
