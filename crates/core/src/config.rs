//! Configuration of the GPU partitioned join and validation against the
//! device's shared-memory budget.

use hcj_gpu::{DeviceSpec, FaultConfig, Gpu, SharedMemLayout, SharedMemOverflow};
use hcj_sim::Sim;

use crate::output::ROW_BYTES;
use crate::radix::PassPlan;

/// Which per-co-partition probe kernel to run (paper §III-B/§III-C, Fig. 5
/// and Fig. 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeKind {
    /// Shared-memory hash join: hash table with 16-bit offset chains built
    /// by atomic exchange. The paper's default.
    HashJoin,
    /// Warp-ballot nested-loop join (Listing 1).
    NestedLoop,
    /// Hash join with the table in device memory (Fig. 6's comparator).
    DeviceHashJoin,
}

/// What happens to join matches (paper §III-C, Fig. 7).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputMode {
    /// Aggregate payloads into per-thread sums merged atomically.
    Aggregate,
    /// Materialize `(key, r_payload, s_payload)` rows via warp-level
    /// shared-memory output buffering.
    Materialize,
}

/// How refinement passes assign work to CUDA blocks (paper §III-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PassAssignment {
    /// One bucket at a time, round-robin: balanced under skew (the paper's
    /// choice), at the price of re-initializing partition state per bucket.
    BucketAtATime,
    /// A whole partition chain at a time: cheaper bookkeeping but the
    /// longest chain straggles under skew.
    PartitionAtATime,
}

/// Full configuration of the in-GPU partitioned join.
#[derive(Clone, Debug)]
pub struct GpuJoinConfig {
    pub device: DeviceSpec,
    /// Total radix bits (final fanout = `2^radix_bits`).
    pub radix_bits: u32,
    /// Per-pass fanout cap in bits (shared-memory metadata limit).
    pub max_bits_per_pass: u32,
    /// Threads per block in partitioning kernels (paper: 1024).
    pub partition_block_threads: u32,
    /// Threads per block in join kernels (paper: 512).
    pub join_block_threads: u32,
    /// Shared-memory element budget per co-partition build side
    /// (paper: 4096 elements; Fig. 5 uses 2048).
    pub smem_elements: usize,
    /// Hash-table bucket count in shared memory (paper: 2048; Fig. 5: 256).
    pub hash_buckets: usize,
    /// Bucket capacity in elements; a multiple of the block size to keep
    /// chain scans coalesced (§III-A).
    pub bucket_capacity: usize,
    pub probe: ProbeKind,
    pub output: OutputMode,
    pub assignment: PassAssignment,
    /// In materialization mode, keep at most this many result rows in a
    /// fixed device buffer, overwriting beyond it — the paper's device for
    /// isolating in-GPU performance when skew makes the output explode
    /// (§V-E). `None` materializes everything.
    pub row_cap: Option<usize>,
    /// Deterministic fault injection for the simulated device (`--chaos`).
    /// `None` = no fault layer; every strategy then behaves exactly as
    /// before the layer existed.
    pub faults: Option<FaultConfig>,
    /// Software write-combining in the partitioning kernels (§III-A): stage
    /// tuples through the shared-memory shuffle tile so bucket writes leave
    /// the SM as full coalesced sectors. `false` models the naive kernel
    /// that scatters straight from registers — the tile is not reserved,
    /// and every warp's stores pay one memory transaction per distinct
    /// sector they touch. An ablation knob; the paper's kernel combines.
    pub write_combining: bool,
    /// Fused early-stop refinement: a refinement pass skips any parent
    /// partition that already fits the shared-memory build budget
    /// (`smem_elements`), carrying its bucket chain to the child level
    /// untouched instead of re-scattering it. The probe side must replay
    /// the build side's decisions ([`crate::partition::RefinePlan`]) so
    /// co-partition indices keep matching; strategies handle that. Off by
    /// default — the paper's kernel always runs the full pass plan — and
    /// inert for nested-loop probes, whose cost is quadratic in partition
    /// size (see [`GpuJoinConfig::fusion_active`]).
    pub fuse_small_partitions: bool,
}

impl GpuJoinConfig {
    /// The paper's default configuration ("Annotation & configuration",
    /// §V-B): 2^15 partitions, 4096-element shared memory, 2048 hash
    /// buckets, 1024-thread partition blocks, 512-thread join blocks,
    /// shared-memory hash join, aggregation output.
    pub fn paper_default(device: DeviceSpec) -> Self {
        GpuJoinConfig {
            device,
            radix_bits: 15,
            max_bits_per_pass: 8,
            partition_block_threads: 1024,
            join_block_threads: 512,
            smem_elements: 4096,
            hash_buckets: 2048,
            bucket_capacity: 4096,
            probe: ProbeKind::HashJoin,
            output: OutputMode::Aggregate,
            assignment: PassAssignment::BucketAtATime,
            row_cap: None,
            // Binaries can arm a process-wide chaos config (`repro
            // --chaos`); libraries and tests see `None` unless they opt in
            // via `with_faults`.
            faults: hcj_gpu::faults::ambient(),
            write_combining: true,
            fuse_small_partitions: false,
        }
    }

    /// Toggle software write-combining in the partitioning kernels.
    pub fn with_write_combining(mut self, on: bool) -> Self {
        self.write_combining = on;
        self
    }

    /// Toggle fused early-stop refinement (see the field docs).
    pub fn with_fused_refinement(mut self, on: bool) -> Self {
        self.fuse_small_partitions = on;
        self
    }

    /// Whether refinement passes may finalize small parents early. The
    /// point of partitioning to `smem_elements` is that the *build* side
    /// fits a shared-memory hash table; nested-loop probes gain nothing
    /// from early stopping (their per-pair work is quadratic), so fusion
    /// stays off for them regardless of the flag.
    pub fn fusion_active(&self) -> bool {
        self.fuse_small_partitions && self.probe != ProbeKind::NestedLoop
    }

    /// Largest parent partition a refinement pass may finalize early: the
    /// shared-memory build budget the partitioning is working toward.
    pub fn fuse_threshold(&self) -> u64 {
        self.smem_elements as u64
    }

    pub fn with_radix_bits(mut self, bits: u32) -> Self {
        self.radix_bits = bits;
        self
    }

    /// Arm deterministic device-fault injection for every execution using
    /// this configuration.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Register this configuration's device with `sim`, arming the fault
    /// plan when one is configured. All strategies build their `Gpu` here
    /// so fault injection covers every path uniformly.
    pub fn build_gpu(&self, sim: &mut Sim) -> Gpu {
        let mut gpu = Gpu::new(sim, self.device.clone());
        if let Some(f) = &self.faults {
            gpu.arm_faults(f.clone());
        }
        gpu
    }

    pub fn with_probe(mut self, probe: ProbeKind) -> Self {
        self.probe = probe;
        self
    }

    /// Set the output mode. Switching to materialization re-fits the
    /// shared-memory layout if needed: the warp-level output buffer must
    /// coexist with the hash table, so the co-partition element budget
    /// shrinks until the block fits (the paper's materialization runs
    /// trade shared-memory elements for the buffer the same way).
    pub fn with_output(mut self, output: OutputMode) -> Self {
        self.output = output;
        while self.smem_elements > 512 && self.validate_join_kernel().is_err() {
            self.smem_elements -= 512;
        }
        self
    }

    pub fn with_assignment(mut self, assignment: PassAssignment) -> Self {
        self.assignment = assignment;
        self
    }

    /// See the `row_cap` field.
    pub fn with_row_cap(mut self, cap: usize) -> Self {
        self.row_cap = Some(cap);
        self
    }

    /// Build the output sink this configuration implies.
    pub fn make_sink(&self) -> crate::output::OutputSink {
        let sink = crate::output::OutputSink::new(self.output, u64::from(self.join_block_threads));
        match self.row_cap {
            Some(cap) => sink.with_row_cap(cap),
            None => sink,
        }
    }

    /// Device bytes a materialized result of `matches` rows occupies,
    /// honoring the row cap (the capped buffer is fixed-size).
    pub fn result_buffer_bytes(&self, matches: u64) -> u64 {
        match (self.output, self.row_cap) {
            (OutputMode::Aggregate, _) => 0,
            (OutputMode::Materialize, Some(cap)) => matches.min(cap as u64) * ROW_BYTES,
            (OutputMode::Materialize, None) => matches * ROW_BYTES,
        }
    }

    /// Device bytes of the double output buffers the streaming strategies
    /// (streamed probe, co-processing) drain materialized rows through:
    /// two buffers of 64 rows per join-block thread, at most an eighth of
    /// the device; none when aggregating.
    pub fn output_buffer_bytes(&self) -> u64 {
        match self.output {
            OutputMode::Aggregate => 0,
            OutputMode::Materialize => {
                let want = 2 * u64::from(self.join_block_threads) * 64 * ROW_BYTES;
                want.min(self.device.device_mem_bytes / 8)
            }
        }
    }

    /// Pick a bucket capacity suited to `tuples` inputs: roughly twice the
    /// expected final partition size, warp-aligned and clamped to
    /// `[32, 4096]`. Keeps the bucket pool's slack bounded when the fixed
    /// `2^radix_bits` fanout meets a small relation (each non-empty
    /// partition holds at least one bucket).
    pub fn with_tuned_buckets(mut self, tuples: usize) -> Self {
        let per_partition = (2 * tuples) >> self.radix_bits;
        let aligned = per_partition.next_multiple_of(32);
        self.bucket_capacity = aligned.clamp(32, 4096);
        self
    }

    /// The multi-pass partitioning plan implied by this configuration.
    pub fn pass_plan(&self) -> PassPlan {
        PassPlan::new(self.radix_bits, self.max_bits_per_pass)
    }

    /// Grid shape of a partitioning pass over `tuples` inputs, for
    /// occupancy accounting: one `partition_block_threads`-wide block per
    /// tile, with the pass kernel's reserved shared memory per block.
    pub fn partition_launch_shape(&self, tuples: usize) -> hcj_gpu::LaunchShape {
        hcj_gpu::LaunchShape {
            blocks: (tuples as u64).div_ceil(u64::from(self.partition_block_threads)).max(1),
            threads_per_block: self.partition_block_threads,
            shared_bytes_per_block: self
                .validate_partition_kernel()
                .map(|l| l.reserved())
                .unwrap_or(0),
        }
    }

    /// Grid shape of the co-partition join kernel: one
    /// `join_block_threads`-wide block per live co-partition pair, with
    /// the join kernel's reserved shared memory (hash table, chains,
    /// output buffer) per block.
    pub fn join_launch_shape(&self, live_copartitions: usize) -> hcj_gpu::LaunchShape {
        hcj_gpu::LaunchShape {
            blocks: (live_copartitions as u64).max(1),
            threads_per_block: self.join_block_threads,
            shared_bytes_per_block: self.validate_join_kernel().map(|l| l.reserved()).unwrap_or(0),
        }
    }

    /// Validate the join kernel's shared-memory footprint against the
    /// device budget, mirroring a CUDA launch-configuration failure.
    ///
    /// Layout (paper §III): the build co-partition's keys and payloads
    /// (8 B/element), the hash-table bucket heads (2 B, 16-bit offsets),
    /// the chain links (2 B/element), and a warp-level output buffer.
    pub fn validate_join_kernel(&self) -> Result<SharedMemLayout, SharedMemOverflow> {
        let mut l = SharedMemLayout::new(self.device.shared_mem_per_block);
        l.reserve::<u32>("build keys", self.smem_elements)?;
        l.reserve::<u32>("build payloads", self.smem_elements)?;
        match self.probe {
            ProbeKind::HashJoin => {
                l.reserve::<u16>("hash bucket heads", self.hash_buckets)?;
                l.reserve::<u16>("chain links", self.smem_elements)?;
            }
            ProbeKind::NestedLoop => {}
            ProbeKind::DeviceHashJoin => {
                // Table lives in device memory; shared memory only stages
                // the probe tile.
            }
        }
        if self.output == OutputMode::Materialize {
            // One 12-byte result slot per thread of the block.
            l.reserve_bytes("output buffer", u64::from(self.join_block_threads) * 12)?;
        }
        Ok(l)
    }

    /// Validate the partitioning kernel's shared-memory footprint for the
    /// largest pass: per-partition metadata (a 4-byte offset counter and a
    /// 4-byte bucket pointer) plus — when software write-combining is on —
    /// one block-sized shuffle tile. The naive scatter kernel writes
    /// straight from registers and reserves no tile.
    pub fn validate_partition_kernel(&self) -> Result<SharedMemLayout, SharedMemOverflow> {
        let fanout = self.pass_plan().passes().iter().map(|p| p.fanout()).max().unwrap_or(1);
        let mut l = SharedMemLayout::new(self.device.shared_mem_per_block);
        l.reserve::<u32>("partition offsets", fanout as usize)?;
        l.reserve::<u32>("partition bucket ptrs", fanout as usize)?;
        if self.write_combining {
            l.reserve_bytes("shuffle tile", u64::from(self.partition_block_threads) * 8)?;
        }
        Ok(l)
    }

    /// Validate the whole configuration. Called by every strategy before
    /// executing.
    pub fn validate(&self) -> Result<(), SharedMemOverflow> {
        assert!(
            self.smem_elements <= u16::MAX as usize + 1,
            "16-bit chain offsets require shared-memory partitions of at most 65536 elements"
        );
        assert!(self.hash_buckets.is_power_of_two(), "hash bucket count must be a power of two");
        assert!(self.bucket_capacity > 0, "bucket capacity must be positive");
        assert!(
            self.bucket_capacity % 32 == 0,
            "bucket capacity must be a multiple of the warp size for coalesced chain scans"
        );
        assert!(
            self.join_block_threads <= self.device.max_threads_per_block
                && self.partition_block_threads <= self.device.max_threads_per_block,
            "block size exceeds the device limit"
        );
        self.validate_join_kernel()?;
        self.validate_partition_kernel()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_fits_gtx1080() {
        let c = GpuJoinConfig::paper_default(DeviceSpec::gtx1080());
        c.validate().expect("the paper's configuration must fit its own GPU");
        // The join kernel budget is tight: > 40 KB of the 48 KB block.
        let layout = c.validate_join_kernel().unwrap();
        assert!(layout.reserved() > 40 * 1024, "reserved = {}", layout.reserved());
    }

    #[test]
    fn fig5_configuration_fits() {
        // Fig. 5: 2048-element shared memory, 1024 threads, 256 buckets.
        let mut c = GpuJoinConfig::paper_default(DeviceSpec::gtx1080());
        c.smem_elements = 2048;
        c.hash_buckets = 256;
        c.join_block_threads = 1024;
        c.bucket_capacity = 2048;
        c.validate().unwrap();
    }

    #[test]
    fn oversized_smem_elements_fail_validation() {
        let mut c = GpuJoinConfig::paper_default(DeviceSpec::gtx1080());
        c.smem_elements = 8192; // 64 KB of keys+payloads alone
        let err = c.validate_join_kernel().unwrap_err();
        assert!(err.budget == 48 * 1024);
    }

    #[test]
    fn materialization_needs_output_buffer_space() {
        let mut c = GpuJoinConfig::paper_default(DeviceSpec::gtx1080());
        c.output = OutputMode::Materialize;
        // 4096*8 + 2048*2 + 4096*2 + 512*12 = 50 KB > 48 KB: must fail...
        let res = c.validate_join_kernel();
        assert!(res.is_err(), "paper default + materialization exceeds 48 KB");
        // ...and shrinking the co-partition budget fixes it (the paper's
        // materialization runs trade smem elements for the buffer).
        c.smem_elements = 3584;
        c.validate_join_kernel().unwrap();
    }

    #[test]
    fn partition_kernel_fanout_is_bounded() {
        // A single 13-bit pass means 8192 in-flight partitions: 64 KB of
        // metadata alone, over the 48 KB block.
        let mut c = GpuJoinConfig::paper_default(DeviceSpec::gtx1080());
        c.radix_bits = 13;
        c.max_bits_per_pass = 13;
        assert!(c.validate_partition_kernel().is_err());
        // The same depth in two passes fits easily.
        c.max_bits_per_pass = 8;
        c.validate_partition_kernel().unwrap();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_buckets_rejected() {
        let mut c = GpuJoinConfig::paper_default(DeviceSpec::gtx1080());
        c.hash_buckets = 1000;
        let _ = c.validate();
    }

    #[test]
    #[should_panic(expected = "multiple of the warp size")]
    fn misaligned_bucket_capacity_rejected() {
        let mut c = GpuJoinConfig::paper_default(DeviceSpec::gtx1080());
        c.bucket_capacity = 1000;
        let _ = c.validate();
    }

    #[test]
    fn write_combining_gates_the_shuffle_tile() {
        let wc = GpuJoinConfig::paper_default(DeviceSpec::gtx1080());
        let naive = wc.clone().with_write_combining(false);
        let with_tile = wc.validate_partition_kernel().unwrap().reserved();
        let without = naive.validate_partition_kernel().unwrap().reserved();
        assert_eq!(with_tile - without, 1024 * 8, "tile is one 8-byte slot per thread");
    }

    #[test]
    fn fusion_is_inert_for_nested_loop_probes() {
        let c = GpuJoinConfig::paper_default(DeviceSpec::gtx1080()).with_fused_refinement(true);
        assert!(c.fusion_active());
        assert_eq!(c.fuse_threshold(), 4096);
        assert!(!c.with_probe(ProbeKind::NestedLoop).fusion_active());
        assert!(!GpuJoinConfig::paper_default(DeviceSpec::gtx1080()).fusion_active());
    }

    #[test]
    fn builder_methods_chain() {
        let c = GpuJoinConfig::paper_default(DeviceSpec::gtx1080())
            .with_radix_bits(11)
            .with_probe(ProbeKind::NestedLoop)
            .with_output(OutputMode::Materialize)
            .with_assignment(PassAssignment::PartitionAtATime);
        assert_eq!(c.radix_bits, 11);
        assert_eq!(c.probe, ProbeKind::NestedLoop);
        assert_eq!(c.output, OutputMode::Materialize);
        assert_eq!(c.assignment, PassAssignment::PartitionAtATime);
        assert_eq!(c.pass_plan().num_passes(), 2);
    }
}
