//! Executing the partitioned join over alternative data-transfer
//! mechanisms: UVA zero-copy and Unified Memory (paper §V-F, Figs. 21–22).
//!
//! These variants run the *same* functional join; what changes is which
//! phase's memory traffic crosses PCIe instead of staying in device
//! memory. The comparison demonstrates why the paper manages transfers
//! explicitly: the partitioning scatter and the probe's irregular reads
//! are exactly the access patterns UVA and UM serve worst.

use hcj_gpu::{UnifiedMemory, UvaAccessPattern};
use hcj_workload::oracle::JoinCheck;
use hcj_workload::Relation;

use crate::config::GpuJoinConfig;
use crate::join::join_all_copartitions;
use crate::output::OutputSink;
use crate::partition::GpuPartitioner;

/// Which phase is the last to run over the slow mechanism
/// (Fig. 21's x-axis: "last step using technique Y").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransferMechanism {
    /// Baseline: data already GPU-resident (the §III join as-is).
    GpuResident,
    /// Inputs are read over UVA (sequential zero-copy) by the first
    /// partitioning pass; everything after runs in device memory.
    UvaLoad,
    /// Partitioning runs over UVA: input reads stream, but every bucket
    /// write is a scattered zero-copy store across PCIe.
    UvaPartition,
    /// The whole algorithm over UVA: partitioning as above, and the join
    /// phase's co-partition reads also cross PCIe.
    UvaJoin,
    /// Inputs mapped through Unified Memory: pages migrate on first touch
    /// (sequential scan → one fault per page), then the algorithm runs in
    /// device memory.
    UnifiedLoad,
}

/// Throughput and correctness summary of one mechanism variant.
#[derive(Clone, Debug)]
pub struct MechanismOutcome {
    pub mechanism: TransferMechanism,
    pub check: JoinCheck,
    pub seconds: f64,
    pub tuples_in: u64,
}

impl MechanismOutcome {
    pub fn throughput_tuples_per_s(&self) -> f64 {
        self.tuples_in as f64 / self.seconds
    }
}

/// Run the partitioned join with the given mechanism for in-GPU-sized data
/// (Fig. 21).
pub fn run_with_mechanism(
    config: &GpuJoinConfig,
    r: &Relation,
    s: &Relation,
    mechanism: TransferMechanism,
) -> MechanismOutcome {
    let device = &config.device;
    let partitioner = GpuPartitioner::new(config);
    let r_out = partitioner.partition(r);
    let s_out = partitioner.partition_following((&s.keys, &s.payloads), &r_out.refine_plan);
    let mut sink = OutputSink::new(config.output, u64::from(config.join_block_threads));
    let mut join_cost =
        join_all_copartitions(config, &r_out.partitioned, &s_out.partitioned, &mut sink);
    join_cost += sink.cost();

    let part_seconds = r_out.total_seconds() + s_out.total_seconds();
    let join_seconds = join_cost.time(device);
    let input_bytes = r.bytes() + s.bytes();
    let moved_bytes = 8 * (r_out.partitioned.total_tuples() + s_out.partitioned.total_tuples());
    let passes = r_out.passes.len() as u64;

    let seconds = match mechanism {
        TransferMechanism::GpuResident => part_seconds + join_seconds,
        TransferMechanism::UvaLoad => {
            // The first pass's input scan streams over PCIe; it cannot go
            // faster than the link, and the pass's own compute overlaps.
            let load = UvaAccessPattern::Sequential.transfer_time(device, input_bytes);
            part_seconds.max(load) + join_seconds
        }
        TransferMechanism::UvaPartition => {
            // Every pass writes its buckets as scattered 8-byte zero-copy
            // stores, and later passes read them back over the link.
            let scatter = UvaAccessPattern::RandomSector { access_bytes: 8 }
                .transfer_time(device, moved_bytes * passes);
            let reads = UvaAccessPattern::Sequential.transfer_time(device, input_bytes * passes);
            part_seconds.max(scatter + reads) + join_seconds
        }
        TransferMechanism::UvaJoin => {
            let scatter = UvaAccessPattern::RandomSector { access_bytes: 8 }
                .transfer_time(device, moved_bytes * passes);
            let reads = UvaAccessPattern::Sequential.transfer_time(device, input_bytes * passes);
            // The join phase re-reads both partitioned relations across
            // the link: co-partition staging is sequential per chain, the
            // hash-table traffic itself stays in shared memory.
            let join_reads = UvaAccessPattern::Sequential.transfer_time(device, moved_bytes);
            part_seconds.max(scatter + reads) + join_seconds.max(join_reads)
        }
        TransferMechanism::UnifiedLoad => {
            // One page fault per input page; the pager then holds
            // everything (this variant is for GPU-sized data).
            let mut um = UnifiedMemory::new(device.um_page_bytes, device.device_mem_bytes);
            um.access_range(0, input_bytes, false);
            let fault_overhead_s = 20.0e-6; // driver fault handling per page
            let load = um.total_bus_bytes() as f64 / device.pcie_bandwidth
                + um.faults() as f64 * fault_overhead_s;
            part_seconds.max(load) + join_seconds
        }
    };

    MechanismOutcome {
        mechanism,
        check: sink.check(),
        seconds,
        tuples_in: (r.len() + s.len()) as u64,
    }
}

/// Fig. 22's out-of-GPU comparison: the same join when the working set
/// exceeds device memory, per mechanism. Returns `(um, uva)` outcomes; the
/// co-processing bar comes from [`crate::CoProcessingJoin`].
pub fn run_out_of_gpu_mechanisms(
    config: &GpuJoinConfig,
    r: &Relation,
    s: &Relation,
) -> (MechanismOutcome, MechanismOutcome) {
    let device = &config.device;
    let partitioner = GpuPartitioner::new(config);
    let r_out = partitioner.partition(r);
    let s_out = partitioner.partition_following((&s.keys, &s.payloads), &r_out.refine_plan);
    let mut sink = OutputSink::new(config.output, u64::from(config.join_block_threads));
    let mut join_cost =
        join_all_copartitions(config, &r_out.partitioned, &s_out.partitioned, &mut sink);
    join_cost += sink.cost();
    let part_seconds = r_out.total_seconds() + s_out.total_seconds();
    let join_seconds = join_cost.time(device);
    let input_bytes = r.bytes() + s.bytes();
    let moved_bytes = 8 * (r_out.partitioned.total_tuples() + s_out.partitioned.total_tuples());
    let passes = r_out.passes.len() as u64;
    let tuples_in = (r.len() + s.len()) as u64;

    // --- Unified Memory: the partitioning scatter touches bucket pages all
    // over an output region larger than device memory; the LRU pager
    // thrashes, re-migrating pages whose buckets are revisited after
    // eviction. Drive the real pager with the real bucket-write trace.
    let um_seconds = {
        let mut um = UnifiedMemory::new(device.um_page_bytes, device.device_mem_bytes);
        // Input scan faults (sequential, read-only).
        um.access_range(0, input_bytes, false);
        // Scatter trace: one write per tuple at its final partition's
        // region, laid out after the input.
        let fanout = r_out.partitioned.fanout() as u64;
        let region = (moved_bytes / fanout).max(1);
        let mut cursor = vec![0u64; fanout as usize];
        for pr in [&r_out.partitioned, &s_out.partitioned] {
            for (p, cur) in cursor.iter_mut().enumerate().take(pr.fanout()) {
                for t in pr.tuples_of(p) {
                    let _ = t;
                    let off = input_bytes + p as u64 * region + (*cur * 8) % region;
                    *cur += 1;
                    um.access_range(off, 8, true);
                }
            }
        }
        let fault_overhead_s = 20.0e-6;
        let bus = um.total_bus_bytes() as f64 / device.pcie_bandwidth
            + um.faults() as f64 * fault_overhead_s;
        part_seconds.max(bus) + join_seconds
    };
    let um = MechanismOutcome {
        mechanism: TransferMechanism::UnifiedLoad,
        check: sink.check(),
        seconds: um_seconds,
        tuples_in,
    };

    // --- UVA: as UvaJoin, all passes and the join stream across the link.
    let uva_seconds = {
        let scatter = UvaAccessPattern::RandomSector { access_bytes: 8 }
            .transfer_time(device, moved_bytes * passes);
        let reads = UvaAccessPattern::Sequential.transfer_time(device, input_bytes * passes);
        let join_reads = UvaAccessPattern::Sequential.transfer_time(device, moved_bytes);
        part_seconds.max(scatter + reads) + join_seconds.max(join_reads)
    };
    let uva = MechanismOutcome {
        mechanism: TransferMechanism::UvaJoin,
        check: sink.check(),
        seconds: uva_seconds,
        tuples_in,
    };
    (um, uva)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcj_gpu::DeviceSpec;
    use hcj_workload::generate::canonical_pair;

    fn cfg(tuples: usize) -> GpuJoinConfig {
        GpuJoinConfig::paper_default(DeviceSpec::gtx1080())
            .with_radix_bits(10)
            .with_tuned_buckets(tuples)
    }

    #[test]
    fn all_mechanisms_compute_the_same_join() {
        let (r, s) = canonical_pair(50_000, 50_000, 61);
        let config = cfg(50_000);
        let want = JoinCheck::compute(&r, &s);
        for m in [
            TransferMechanism::GpuResident,
            TransferMechanism::UvaLoad,
            TransferMechanism::UvaPartition,
            TransferMechanism::UvaJoin,
            TransferMechanism::UnifiedLoad,
        ] {
            let out = run_with_mechanism(&config, &r, &s, m);
            assert_eq!(out.check, want, "{m:?}");
        }
    }

    #[test]
    fn fig21_ordering_holds() {
        // GPU-resident >= UVA-load >= UVA-partition >= UVA-join, and
        // UM-load below GPU-resident.
        let (r, s) = canonical_pair(500_000, 500_000, 62);
        let config = cfg(500_000);
        let t = |m| run_with_mechanism(&config, &r, &s, m).throughput_tuples_per_s();
        let resident = t(TransferMechanism::GpuResident);
        let uva_load = t(TransferMechanism::UvaLoad);
        let uva_part = t(TransferMechanism::UvaPartition);
        let uva_join = t(TransferMechanism::UvaJoin);
        let um = t(TransferMechanism::UnifiedLoad);
        assert!(resident >= uva_load, "resident {resident:.3e} vs uva_load {uva_load:.3e}");
        assert!(uva_load > uva_part, "uva_load {uva_load:.3e} vs uva_part {uva_part:.3e}");
        assert!(uva_part >= uva_join, "uva_part {uva_part:.3e} vs uva_join {uva_join:.3e}");
        assert!(um < resident, "um {um:.3e} vs resident {resident:.3e}");
        // The partition-over-UVA collapse is the dramatic one (scattered
        // stores): at least 3x below streaming UVA loads.
        assert!(uva_load > 3.0 * uva_part, "uva_load {uva_load:.3e} vs uva_part {uva_part:.3e}");
    }

    #[test]
    fn out_of_gpu_mechanisms_thrash() {
        // Data 4x the (scaled) device memory: UM must re-migrate pages.
        let device = DeviceSpec::gtx1080().scaled_capacity(1 << 12); // 2 MB
        let config = GpuJoinConfig { device, ..cfg(200_000) };
        let (r, s) = canonical_pair(200_000, 200_000, 63); // 3.2 MB of input
        let (um, uva) = run_out_of_gpu_mechanisms(&config, &r, &s);
        assert_eq!(um.check, JoinCheck::compute(&r, &s));
        assert_eq!(um.check, uva.check);
        // Both collapse well below the PCIe streaming bound of the
        // explicit co-processing approach.
        let pcie_stream_tput = config.device.pcie_bandwidth / 8.0;
        assert!(um.throughput_tuples_per_s() < 0.5 * pcie_stream_tput);
        assert!(uva.throughput_tuples_per_s() < 0.5 * pcie_stream_tput);
    }
}
