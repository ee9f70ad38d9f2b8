//! Microbenchmarks of the hot kernels and substrate pieces (host wall
//! time of the library itself — the simulated-clock results live in the
//! `repro` binary). Runs on the dependency-free harness in
//! `hcj_bench::microbench`; pace with `HCJ_BENCH_BUDGET_MS`.

use hcj_bench::microbench::{bench, bench_with_setup};

use hcj_core::join::ballot_nl::ballot_nl_join;
use hcj_core::join::sm_hash::{sm_hash_join, BuildTable};
use hcj_core::output::OutputSink;
use hcj_core::packing::{pack_working_sets, PartitionSize};
use hcj_core::partition::GpuPartitioner;
use hcj_core::{GpuJoinConfig, OutputMode};
use hcj_gpu::warp::{ballot_match, Lanes};
use hcj_gpu::DeviceSpec;
use hcj_workload::generate::canonical_pair;
use hcj_workload::rng::{Rng, SmallRng};
use hcj_workload::{RelationSpec, ZipfSampler};

fn bench_partitioning() {
    let n = 1 << 20;
    let rel = RelationSpec::unique(n, 1).generate();
    for bits in [8u32, 12, 15] {
        let config = GpuJoinConfig::paper_default(DeviceSpec::gtx1080())
            .with_radix_bits(bits)
            .with_tuned_buckets(n);
        bench("gpu-radix-partition", &format!("1M-tuples-{bits}bits"), || {
            GpuPartitioner::new(&config).partition(&rel)
        });
    }
}

fn bench_probe_kernels() {
    let n = 4096;
    let config = GpuJoinConfig::paper_default(DeviceSpec::gtx1080());
    let keys: Vec<u32> = (0..n as u32).collect();
    let pays = keys.clone();
    let mut table = BuildTable::default();
    bench_with_setup(
        "probe-kernels",
        "sm-hash-4k-copartition",
        || OutputSink::new(OutputMode::Aggregate, 512),
        |mut sink| sm_hash_join(&config, 0, &keys, &pays, &keys, &pays, &mut sink, &mut table),
    );
    bench_with_setup(
        "probe-kernels",
        "ballot-nl-4k-copartition",
        || OutputSink::new(OutputMode::Aggregate, 512),
        |mut sink| ballot_nl_join(&config, 0, &keys, &pays, &keys, &pays, &mut sink),
    );
}

fn bench_warp_primitives() {
    let mut rng = SmallRng::seed_from_u64(7);
    let mut r: Lanes<u32> = [0; 32];
    let mut s: Lanes<u32> = [0; 32];
    for i in 0..32 {
        r[i] = rng.next_u64() as u32 & 0xFFFF;
        s[i] = rng.next_u64() as u32 & 0xFFFF;
    }
    let bits: Vec<u32> = (0..16).collect();
    bench("warp", "ballot-match-16bits", || {
        ballot_match(std::hint::black_box(&r), std::hint::black_box(&s), &bits, u32::MAX)
    });
}

fn bench_zipf() {
    let z = ZipfSampler::new(1 << 24, 0.9);
    let mut rng = SmallRng::seed_from_u64(3);
    bench("workload", "zipf-sample", || z.sample(&mut rng));
}

fn bench_packing() {
    let mut rng = SmallRng::seed_from_u64(11);
    let parts: Vec<PartitionSize> = (0..64)
        .map(|id| {
            let t = rng.next_u64() % 10_000 + 1;
            PartitionSize { id, tuples: t, padded_bytes: t * 24 }
        })
        .collect();
    let budget = parts.iter().map(|p| p.padded_bytes).max().unwrap() * 6;
    bench("working-set-packing", "knapsack-64-partitions", || {
        pack_working_sets(&parts, budget, budget / 4)
    });
}

fn bench_end_to_end() {
    let n = 1 << 18;
    let (r, s) = canonical_pair(n, n, 5);
    let config = GpuJoinConfig::paper_default(DeviceSpec::gtx1080())
        .with_radix_bits(9)
        .with_tuned_buckets(n);
    bench("end-to-end", "gpu-partitioned-join-256k", || {
        hcj_core::GpuPartitionedJoin::new(config.clone()).execute(&r, &s).unwrap()
    });
}

fn bench_cpu_baselines() {
    let n = 1 << 17;
    let (r, s) = canonical_pair(n, n, 6);
    bench("cpu-baselines", "pro-128k", || hcj_cpu_join::ProJoin::paper_default().execute(&r, &s));
    bench("cpu-baselines", "npo-128k", || hcj_cpu_join::NpoJoin::paper_default().execute(&r, &s));
}

fn bench_partitioner_variants() {
    let n = 1 << 19;
    let rel = RelationSpec::unique(n, 7).generate();
    let config = GpuJoinConfig::paper_default(DeviceSpec::gtx1080())
        .with_radix_bits(12)
        .with_tuned_buckets(n);
    bench("partitioner-variants", "atomic-chains-512k", || {
        GpuPartitioner::new(&config).partition(&rel)
    });
    bench("partitioner-variants", "histogram-512k", || {
        hcj_core::partition::HistogramPartitioner::new(&config).partition(&rel)
    });
}

fn bench_workload_generation() {
    let n = 1 << 18;
    bench("workload-generation", "unique-256k", || RelationSpec::unique(n, 8).generate());
    bench("workload-generation", "zipf-0.9-256k", || {
        RelationSpec::zipf(n, 1 << 20, 0.9, 9).generate()
    });
    bench("workload-generation", "tpch-sf0.01", || {
        hcj_workload::tpch::TpchTables::generate(0.01, 10)
    });
}

fn main() {
    bench_partitioning();
    bench_probe_kernels();
    bench_warp_primitives();
    bench_zipf();
    bench_packing();
    bench_end_to_end();
    bench_cpu_baselines();
    bench_partitioner_variants();
    bench_workload_generation();
}
