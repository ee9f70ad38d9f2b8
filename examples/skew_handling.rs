//! Skew handling: Zipf-distributed keys, working-set packing, and the
//! bucket-at-a-time design choice (paper §III-A, §IV-D, Figs. 17–20).
//!
//! ```text
//! cargo run --release --example skew_handling
//! ```

use hashjoin_gpu::core::balance::round_robin_imbalance;
use hashjoin_gpu::core::packing::{pack_working_sets, PartitionSize};
use hashjoin_gpu::core::partition::GpuPartitioner;
use hashjoin_gpu::prelude::*;

fn main() {
    let n = 1 << 20; // 1M tuples per side
    println!("== in-GPU join under skew (cf. paper Fig. 17) ==");
    for theta in [0.0, 0.5, 0.75, 1.0] {
        let r = RelationSpec::unique(n, 3).generate();
        let s = RelationSpec::zipf(n, n as u64, theta, 4).generate();
        let config = GpuJoinConfig::paper_default(DeviceSpec::gtx1080())
            .with_radix_bits(11)
            .with_tuned_buckets(n);
        let out = GpuPartitionedJoin::new(config).execute(&r, &s).unwrap();
        assert_eq!(out.check, JoinCheck::compute(&r, &s));
        println!(
            "  zipf {theta:>4}: {:>7.2} M tuples/s, {} matches",
            out.throughput_tuples_per_s() / 1e6,
            out.check.matches
        );
    }

    println!("\n== pass assignment under skew (paper §III-A) ==");
    let skewed = RelationSpec::zipf(1 << 19, 1 << 20, 1.0, 5).generate();
    for assignment in [PassAssignment::BucketAtATime, PassAssignment::PartitionAtATime] {
        let config = GpuJoinConfig::paper_default(DeviceSpec::gtx1080())
            .with_radix_bits(12)
            .with_tuned_buckets(1 << 19)
            .with_assignment(assignment);
        let out = GpuPartitioner::new(&config).partition(&skewed);
        let refine = &out.passes[1];
        println!(
            "  {assignment:?}: refinement pass imbalance {:.2}x, {:.3} ms",
            refine.imbalance,
            refine.seconds * 1e3
        );
    }
    println!("  (bucket-at-a-time stays balanced: the paper's choice)");

    println!("\n== working-set packing (paper §IV-D) ==");
    // CPU partition sizes under zipf-1.0 are wildly uneven; knapsack the
    // first working set, pack the rest greedily.
    let skewed = RelationSpec::zipf(1 << 20, 1 << 22, 1.0, 6).generate();
    let counts = hashjoin_gpu::workload::runs::counts(&skewed.keys, 16, |k| (k & 15) as usize);
    let budget = skewed.bytes(); // a GPU budget of one relation's size
    let sizes: Vec<PartitionSize> = counts
        .into_iter()
        .enumerate()
        .map(|(id, tuples)| PartitionSize {
            id,
            tuples,
            padded_bytes: (tuples * 8 * 3).min(budget),
        })
        .collect();
    let min = sizes.iter().map(|p| p.tuples).min().unwrap();
    let max = sizes.iter().map(|p| p.tuples).max().unwrap();
    println!("  16 CPU partitions, smallest {min} tuples, largest {max} tuples");
    let ws = pack_working_sets(&sizes, budget, budget / 4);
    for (i, set) in ws.sets.iter().enumerate() {
        let tuples: u64 = set.iter().map(|&id| sizes[id].tuples).sum();
        println!("  working set {i}: partitions {set:?} ({tuples} tuples)");
    }
    println!("  first set maximizes tuples to hide the CPU partitioning phase");

    println!("\n== probe-side imbalance intuition ==");
    let uniform: Vec<u64> = vec![100; 64];
    let one_giant: Vec<u64> = (0..64).map(|i| if i == 0 { 6300 } else { 1 }).collect();
    println!(
        "  uniform chains over 20 SMs: {:.2}x; one hot chain: {:.2}x",
        round_robin_imbalance(&uniform, 20),
        round_robin_imbalance(&one_giant, 20)
    );
}
