//! Host machine parameters.

/// Parameters of the modeled dual-socket host.
#[derive(Clone, Debug, PartialEq)]
pub struct HostSpec {
    /// Human-readable machine name (testbed identifier in figure notes).
    pub name: &'static str,
    /// Socket count; the model covers the paper's dual-socket topology.
    pub sockets: u32,
    /// Physical cores per socket.
    pub cores_per_socket: u32,
    /// Hardware threads per core (the paper runs PRO/NPO on 48 threads of
    /// 24 cores).
    pub smt: u32,
    /// Host DRAM capacity in bytes (whole machine).
    pub dram_bytes: u64,
    /// Effective DRAM bandwidth per socket, bytes/second.
    pub socket_mem_bandwidth: f64,
    /// Effective QPI/UPI bandwidth between the sockets, per direction.
    pub qpi_bandwidth: f64,
    /// Total-rate multiplier applied to a socket's DRAM while traffic of
    /// different classes (partitioning vs. DMA reads) overlaps; models the
    /// throughput collapse the paper observed under intense multithreading
    /// (§IV-B).
    pub mem_contention_factor: f64,
    /// Same penalty on QPI (coherence traffic interfering with transfers;
    /// paper Fig. 16).
    pub qpi_contention_factor: f64,
    /// Fraction of the PCIe link rate a DMA engine achieves when reading
    /// across QPI even without contention: peer reads over the socket
    /// interconnect pipeline poorly (the standing reason the paper stages
    /// far-socket data, §IV-B).
    pub qpi_dma_efficiency: f64,
    /// Output throughput of one partitioning thread using software-managed
    /// buffers + non-temporal stores, bytes/second of *input consumed*.
    /// The paper reports ~40 GB/s with 16 threads → 2.5 GB/s per thread.
    pub per_thread_partition_bw: f64,
    /// DRAM traffic amplification of partitioning with non-temporal hints:
    /// read input + write output = 2x the input bytes.
    pub partition_mem_amplification: f64,
    /// Same without non-temporal hints (write-allocate reads the output
    /// cache lines first): 3x.
    pub partition_mem_amplification_no_nt: f64,
    /// memcpy throughput of one staging thread (far-socket → near-socket
    /// pinned buffer), bytes/second.
    pub per_thread_copy_bw: f64,
    /// Per-core share of the last-level cache, bytes (bounds PRO's
    /// cache-sized partitions).
    pub llc_bytes_per_core: u64,
    /// Data-TLB entries; bounds the per-pass fanout of CPU radix
    /// partitioning (Boncz et al.'s argument, paper §II-B).
    pub tlb_entries: u32,
    /// Single-thread hash-join build+probe throughput over a cache-resident
    /// partition, tuples/second (used by the CPU baselines' cost model).
    pub per_thread_join_tuples_per_s: f64,
    /// Single-thread probe throughput when the hash table misses cache on
    /// every lookup (NPO on large tables), tuples/second.
    pub per_thread_uncached_probe_tuples_per_s: f64,
}

impl HostSpec {
    /// The paper's testbed: 2 × 12-core Intel Xeon E5-2650L v3, 256 GB.
    pub fn dual_xeon_e5_2650l_v3() -> Self {
        HostSpec {
            name: "2x Xeon E5-2650L v3",
            sockets: 2,
            cores_per_socket: 12,
            smt: 2,
            dram_bytes: 256 * (1 << 30),
            socket_mem_bandwidth: 55.0e9,
            qpi_bandwidth: 19.2e9,
            mem_contention_factor: 0.8,
            qpi_contention_factor: 0.55,
            qpi_dma_efficiency: 0.6,
            per_thread_partition_bw: 2.5e9,
            partition_mem_amplification: 2.0,
            partition_mem_amplification_no_nt: 3.0,
            per_thread_copy_bw: 6.0e9,
            llc_bytes_per_core: 2560 * 1024, // 30 MB LLC / 12 cores
            tlb_entries: 64,
            per_thread_join_tuples_per_s: 14.0e6,
            per_thread_uncached_probe_tuples_per_s: 5.0e6,
        }
    }

    /// Total hardware threads across the machine.
    pub fn total_threads(&self) -> u32 {
        self.sockets * self.cores_per_socket * self.smt
    }

    /// Total physical cores.
    pub fn total_cores(&self) -> u32 {
        self.sockets * self.cores_per_socket
    }

    /// Aggregate partitioning throughput of `threads` threads, before any
    /// memory-bandwidth ceiling (the ceiling is enforced by the simulated
    /// DRAM resources, not here).
    pub fn partition_bw(&self, threads: u32) -> f64 {
        f64::from(threads) * self.per_thread_partition_bw
    }

    /// The paper's thread-selection rule (§IV-B): the maximum number of
    /// partitioning threads that still leaves the near socket enough DRAM
    /// bandwidth for PCIe transfers to run at full rate. Threads alternate
    /// sockets, so the near socket carries half of their traffic; its
    /// effective bandwidth under mixed traffic is degraded by the
    /// contention factor.
    pub fn recommended_partition_threads(&self, pcie_bw: f64) -> u32 {
        // Constraint 1 (§IV-B): the partitioning output must outrun the
        // link, or transfers starve — a hard lower bound.
        let feed = (pcie_bw / self.per_thread_partition_bw).ceil() as u32 + 1;
        // Constraint 2: leave the near socket DRAM headroom for the
        // transfers — the upper bound, when the link leaves any.
        let usable = self.socket_mem_bandwidth * self.mem_contention_factor.max(0.5);
        let headroom = (usable - pcie_bw).max(0.0);
        let per_thread_near = self.per_thread_partition_bw * self.partition_mem_amplification / 2.0;
        let room = (headroom / per_thread_near).floor() as u32;
        // When the link is faster than the DRAM headroom allows, feeding
        // it wins (transfers will contend either way).
        feed.max(room).clamp(1, self.total_threads())
    }

    /// Scale DRAM capacity for reduced-scale experiments.
    pub fn scaled_capacity(mut self, k: u64) -> Self {
        assert!(k >= 1, "scale factor must be >= 1");
        self.dram_bytes /= k;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_dimensions() {
        let h = HostSpec::dual_xeon_e5_2650l_v3();
        assert_eq!(h.total_cores(), 24);
        assert_eq!(h.total_threads(), 48);
        assert_eq!(h.dram_bytes, 256 << 30);
    }

    #[test]
    fn sixteen_threads_reach_the_papers_40_gbps() {
        let h = HostSpec::dual_xeon_e5_2650l_v3();
        let bw = h.partition_bw(16);
        assert!((39.0e9..=41.0e9).contains(&bw), "bw = {bw}");
    }

    #[test]
    fn partition_bw_exceeds_pcie_with_few_threads() {
        // The pipeline needs the CPU side to outrun the 12 GB/s link; with
        // the paper's constants that takes 5 threads.
        let h = HostSpec::dual_xeon_e5_2650l_v3();
        assert!(h.partition_bw(5) > 12.0e9);
        assert!(h.partition_bw(4) < 12.0e9);
    }

    #[test]
    fn recommended_threads_land_in_the_papers_plateau() {
        // Fig. 13: throughput plateaus from ~12-16 threads and dips past
        // ~26; the rule must pick from the plateau.
        let h = HostSpec::dual_xeon_e5_2650l_v3();
        let t = h.recommended_partition_threads(12.0e9);
        assert!((10..=20).contains(&t), "recommended {t}");
        // A link faster than the DRAM headroom flips to the feeding
        // constraint: enough threads to outrun the link.
        let t_nvlink = h.recommended_partition_threads(45.0e9);
        assert!(
            f64::from(t_nvlink) * h.per_thread_partition_bw > 45.0e9,
            "{t_nvlink} threads cannot feed a 45 GB/s link"
        );
        // Zero-bandwidth link: bounded by the machine.
        let t_max = h.recommended_partition_threads(0.0);
        assert!(t_max <= h.total_threads());
    }

    #[test]
    fn scaling_touches_only_dram() {
        let h = HostSpec::dual_xeon_e5_2650l_v3().scaled_capacity(4);
        assert_eq!(h.dram_bytes, 64 << 30);
        assert_eq!(h.socket_mem_bandwidth, 55.0e9);
    }
}
