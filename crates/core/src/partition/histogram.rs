//! The cost of the histogram-based GPU radix partitioner — the alternative
//! the paper argues against (§VI, vs. Rui & Tu SSDBM'17: "our approach
//! avoids an extra pass on each partitioning step by using GPU atomic
//! operations instead of building histograms").
//!
//! Classic two-phase structure per pass: (1) a counting pass builds a
//! per-block histogram of partition sizes; (2) a prefix sum turns counts
//! into exact write offsets; (3) a scatter pass re-reads the input and
//! writes every tuple to its final, contiguous position. The output is
//! dense (no bucket chains, no pool slack) — but every pass reads the
//! input *twice* and runs an extra kernel, which is exactly the traffic
//! the paper's chained-bucket design eliminates.
//!
//! The comparison is about that traffic, and the traffic depends on the
//! tuple count and the pass plan alone, so the comparator is a cost model:
//! [`histogram_passes`] charges each pass without moving a tuple.

use hcj_gpu::KernelCost;

use crate::config::GpuJoinConfig;
use crate::partition::gpu::PassStats;

/// The passes the two-phase histogram partitioner runs over `tuples`
/// tuples on `config`'s pass plan — the comparator to
/// [`crate::partition::GpuPartitioner`].
pub fn histogram_passes(config: &GpuJoinConfig, tuples: u64) -> Vec<PassStats> {
    let n = tuples;
    let pass_stats = |pass: &crate::radix::PassBits| {
        // Partition boundaries after this pass: one per partition of the
        // bits consumed so far, plus the end.
        let bounds = (1u64 << (pass.shift + pass.bits)) + 1;
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
        cost.add_instructions(14 * n + bounds * 4);
        let seconds = cost.time(&config.device) + 2.0 * config.device.launch_overhead_s;
        PassStats { cost, seconds, imbalance: 1.0, buckets_allocated: 0, fused_parents: 0 }
    };
    config.pass_plan().passes().iter().map(pass_stats).collect()
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
    fn histogram_pays_extra_read_traffic() {
        // Per pass, the histogram variant reads every key twice — the §VI
        // argument for the paper's atomic bucket chains.
        let rel = RelationSpec::unique(1 << 18, 93).generate();
        let cfg = config(12);
        let hist = histogram_passes(&cfg, rel.len() as u64);
        let chain = GpuPartitioner::new(&cfg).partition(&rel);
        assert_eq!(hist.len(), chain.passes.len());
        let h_bytes: u64 = hist.iter().map(|p| p.cost.coalesced_bytes).sum();
        let c_bytes: u64 = chain.passes.iter().map(|p| p.cost.coalesced_bytes).sum();
        assert!(h_bytes > c_bytes, "histogram {h_bytes} vs chained {c_bytes}");
        let h_seconds: f64 = hist.iter().map(|p| p.seconds).sum();
        assert!(
            h_seconds > chain.total_seconds(),
            "histogram {h_seconds} vs chained {}",
            chain.total_seconds()
        );
    }
}
