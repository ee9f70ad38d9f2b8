//! Every GPU strategy's footprint rule equals the device peak its own
//! execution measures, given the run's real partition pools and result
//! size: resident, streamed probe, co-processing, and the cache's staged
//! and hot paths, aggregating and materializing.

use hcj_core::partition::GpuPartitioner;
use hcj_core::{
    partitioned_footprint, CachedBuildJoin, CoProcessingConfig, CoProcessingJoin, GpuJoinConfig,
    GpuPartitionedJoin, OutputMode, StreamedProbeConfig, StreamedProbeJoin,
};
use hcj_gpu::DeviceSpec;
use hcj_workload::generate::canonical_pair;

#[test]
fn footprint_equals_the_measured_peak() {
    let (r, s) = canonical_pair(4_096, 16_384, 71);
    // 8 MB: every strategy fits, materialized output buffers included.
    let device = DeviceSpec::gtx1080().scaled_capacity(1 << 10);
    for output in [OutputMode::Aggregate, OutputMode::Materialize] {
        let config = GpuJoinConfig::paper_default(device.clone())
            .with_radix_bits(8)
            .with_tuned_buckets(4_096)
            .with_output(output);
        let partitioner = GpuPartitioner::new(&config);
        let r_out = partitioner.partition(&r);
        let s_out = partitioner.partition_following((&s.keys, &s.payloads), &r_out.refine_plan);
        let r_pool = r_out.partitioned.pool_bytes();
        let s_pool = s_out.partitioned.pool_bytes();
        let pools = r_pool + s_pool;

        let resident = GpuPartitionedJoin::new(config.clone()).execute(&r, &s).unwrap();
        let matches = resident.check.matches;
        assert!(matches > 0);
        let expected = partitioned_footprint(&config, pools, matches);
        assert_eq!(resident.device_peak, expected, "resident {output:?}");

        let cached = CachedBuildJoin::new(config.clone());
        let (staged, table) = cached.execute_cold(&r, &s).unwrap();
        assert_eq!(staged.device_peak, expected, "staged {output:?}");
        let hot = cached.execute_hot(&table, &s).unwrap();
        let beside = partitioned_footprint(&config, s_pool, matches);
        assert_eq!(hot.device_peak, table.table_bytes + beside, "hot {output:?}");

        let streamed = StreamedProbeConfig::paper_default(config.clone());
        let peak = StreamedProbeJoin::new(streamed.clone()).execute(&r, &s).unwrap().device_peak;
        assert_eq!(peak, streamed.footprint(r.bytes(), r_pool), "streamed {output:?}");

        let coprocessing = CoProcessingConfig::paper_default(config.clone());
        let peak = CoProcessingJoin::new(coprocessing.clone()).execute(&r, &s).unwrap().device_peak;
        assert_eq!(peak, coprocessing.footprint(s.bytes()), "co-processing {output:?}");
    }
}
