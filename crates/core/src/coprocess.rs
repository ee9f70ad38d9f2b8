//! Out-of-GPU strategy 2: CPU–GPU co-processing (paper §IV-B–§IV-D,
//! Fig. 3; evaluated in Figs. 12, 13, 16, 18, 20).
//!
//! Neither relation fits in device memory, so a host-side radix
//! partitioning level is added: both relations are co-partitioned on the
//! CPU (16-way, paper §V-C) into pinned memory; working sets of
//! R partitions that fit the device budget are chosen (knapsack first,
//! greedy rest — §IV-D), and for each working set the matching S
//! partitions stream through the GPU where the in-GPU partitioned join of
//! §III finishes the job. CPU partitioning, PCIe transfers and GPU joins
//! all overlap; with enough partitioning threads the pipeline is
//! PCIe-bound end to end.
//!
//! NUMA handling (§IV-B): data homed on the far socket is staged into
//! near-socket pinned buffers by CPU threads before the DMA engine touches
//! it; the `numa_staging: false` ablation reads the far socket directly
//! across QPI and collides with partitioning coherence traffic (Fig. 16).
//!
//! Recovery is partition-granular: each working set's transfers and joins
//! are independently retried ops, so a transient fault in working set `w`
//! re-issues only the faulted op (after backoff) — working sets `0..w`
//! are checkpointed by construction and their charged cost is never paid
//! twice. Device-lost aborts with a typed error; the facade then falls
//! back to the CPU baseline.

use hcj_gpu::{JoinError, KernelCost, LaunchShape, TransferKind};
use hcj_host::{tasks, CpuTaskKind, HostMachine, HostSpec, Socket};
use hcj_sim::{Op, OpId, Sim, SimTime};
use hcj_workload::{runs, Relation, Runs};

use crate::config::{GpuJoinConfig, OutputMode};
use crate::join::join_all_copartitions;
use crate::outcome::JoinOutcome;
use crate::output::{late_materialization_cost, ROW_BYTES};
use crate::packing::{naive_working_sets, pack_working_sets, PartitionSize};
use crate::partition::GpuPartitioner;

/// CPU-level radix bits (paper: 4 → 16-way).
const CPU_RADIX_BITS: u32 = 4;

/// Fraction of device memory granted to the R working set.
const GPU_BUDGET_FRACTION: f64 = 0.5;

/// Device bytes a partition needs per input byte while being joined
/// (data + sub-partition pools + padding, §IV-D).
const PADDING_FACTOR: f64 = 3.0;

/// Configuration of the co-processing strategy.
#[derive(Clone, Debug)]
pub struct CoProcessingConfig {
    /// The in-GPU join configuration; `join.radix_bits` is the *total*
    /// partitioning depth including the CPU level.
    pub join: GpuJoinConfig,
    pub host: HostSpec,
    /// CPU partitioning threads (paper default: 16; Fig. 13 sweeps this).
    pub cpu_threads: u32,
    /// Probe-relation chunk size in tuples; `None` = an eighth of the
    /// probe side, between a sixteenth and a sixth of device memory.
    pub s_chunk_tuples: Option<usize>,
    /// Stage far-socket data into near-socket pinned memory before DMA
    /// (paper's choice). `false` = the Fig. 16 "direct copy" ablation.
    pub numa_staging: bool,
    /// Use non-temporal stores in CPU partitioning (paper's choice).
    pub non_temporal: bool,
    /// Working-set packing policy (paper §IV-D); `Naive` is the ablation.
    pub packing: PackingPolicy,
}

/// How partitions are grouped into working sets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PackingPolicy {
    /// Knapsack first set, greedy rest, oversize rule (the paper's).
    Knapsack,
    /// First-fit in index order, ignoring skew (the strawman).
    Naive,
}

impl CoProcessingConfig {
    /// The configuration of the paper's §V-C experiments: 16 threads,
    /// 16-way CPU partitioning, non-temporal stores, NUMA staging.
    pub fn paper_default(join: GpuJoinConfig) -> Self {
        CoProcessingConfig {
            join,
            host: HostSpec::dual_xeon_e5_2650l_v3(),
            cpu_threads: 16,
            s_chunk_tuples: None,
            numa_staging: true,
            non_temporal: true,
            packing: PackingPolicy::Knapsack,
        }
    }

    pub fn with_threads(mut self, threads: u32) -> Self {
        self.cpu_threads = threads;
        self
    }

    pub fn with_staging(mut self, staging: bool) -> Self {
        self.numa_staging = staging;
        self
    }

    pub fn with_packing(mut self, packing: PackingPolicy) -> Self {
        self.packing = packing;
        self
    }

    pub fn with_non_temporal(mut self, nt: bool) -> Self {
        self.non_temporal = nt;
        self
    }

    /// Pick the partitioning thread count automatically with the paper's
    /// rule (§IV-B): the most threads that still leave the near socket
    /// enough DRAM bandwidth for transfers at full PCIe rate. The paper
    /// configures this statically and leaves dynamic adjustment as future
    /// work; this implements the static rule from the machine model.
    pub fn with_auto_threads(mut self) -> Self {
        self.cpu_threads = self.host.recommended_partition_threads(self.join.device.pcie_bandwidth);
        self
    }

    /// Device bytes granted to the R working set.
    fn working_set_budget(&self) -> u64 {
        (self.join.device.device_mem_bytes as f64 * GPU_BUDGET_FRACTION) as u64
    }

    /// Probe chunk size in tuples for a probe side of `probe_tuples`:
    /// chunks as large as the remaining device memory allows (paper:
    /// "chunks that can be streamed through the remaining GPU memory"),
    /// but with at least ~8 chunks so the pipeline has stages to overlap.
    /// Too-small chunks re-stage the working set's R co-partitions from
    /// device memory once per chunk and turn the pipeline GPU-bound;
    /// too-few chunks leave nothing to pipeline.
    fn chunk_tuples(&self, probe_tuples: usize) -> usize {
        self.s_chunk_tuples.unwrap_or_else(|| {
            // Budget arithmetic: working set 1/2 + two chunk buffers 2/6 +
            // output buffers 1/8 < 1 device.
            let capacity = self.join.device.device_mem_bytes;
            let cap = (capacity / 6) / 8;
            let floor = (capacity / 16) / 8;
            ((probe_tuples as u64 / 8).clamp(floor.min(cap), cap) as usize).max(1)
        })
    }

    /// Device bytes of the two probe chunk input buffers.
    fn chunk_buffer_bytes(&self, probe_tuples: usize) -> u64 {
        2 * self.chunk_tuples(probe_tuples) as u64 * 8
    }

    /// Device bytes co-processing holds at its peak for a probe side of
    /// `probe_bytes`: the R working-set budget, the two probe chunk
    /// buffers and, when materializing, the output buffers. The build
    /// side is partitioned on the host, so nothing here depends on the
    /// data.
    pub fn footprint(&self, probe_bytes: u64) -> u64 {
        self.working_set_budget()
            + self.chunk_buffer_bytes((probe_bytes / 8) as usize)
            + self.join.output_buffer_bytes()
    }
}

/// The CPU–GPU co-processing join.
pub struct CoProcessingJoin {
    pub config: CoProcessingConfig,
}

impl CoProcessingJoin {
    pub fn new(config: CoProcessingConfig) -> Self {
        config.join.validate().expect("join configuration exceeds the device's shared memory");
        assert!(
            CPU_RADIX_BITS < config.join.radix_bits,
            "the CPU level must leave bits for GPU sub-partitioning"
        );
        assert!(config.cpu_threads >= 1);
        CoProcessingJoin { config }
    }

    /// Execute with both relations in host memory.
    pub fn execute(&self, r: &Relation, s: &Relation) -> Result<JoinOutcome, JoinError> {
        let cfg = &self.config;
        let jcfg = &cfg.join;
        let device = &jcfg.device;

        // ---- functional CPU partitioning ----
        // Possibly deepen the CPU level until every partition fits the
        // device budget (paper §IV-B: oversized co-partitions "are further
        // partitioned"), judged from counts; R is grouped once, at the end.
        // Mono-key partitions cannot shrink; their padded size is clamped
        // and the GPU side degrades gracefully.
        let budget = cfg.working_set_budget();
        let padded = |tuples: u64| ((tuples * 8) as f64 * PADDING_FACTOR) as u64;
        let mut cpu_bits = CPU_RADIX_BITS;
        let max_cpu_bits = (jcfg.radix_bits - 1).min(CPU_RADIX_BITS + 8);
        while cpu_bits < max_cpu_bits
            && runs::counts(&r.keys, 1 << cpu_bits, radix(cpu_bits))
                .into_iter()
                .any(|count| padded(count) > budget)
        {
            cpu_bits += 1;
        }
        let cpu_fanout = 1 << cpu_bits;
        let r_parts = Runs::group(&r.keys, &r.payloads, cpu_fanout, radix(cpu_bits));
        // CPU radix passes needed at this fanout (TLB-bounded fanout per
        // pass, §II-B).
        let tlb_bits = 31 - cfg.host.tlb_entries.leading_zeros();
        let cpu_passes = cpu_bits.div_ceil(tlb_bits).max(1) as u64;

        // ---- working-set packing (§IV-D) ----
        let sizes: Vec<PartitionSize> = (0..cpu_fanout)
            .map(|id| {
                let tuples = r_parts.range(id).len() as u64;
                PartitionSize { id, tuples, padded_bytes: padded(tuples).min(budget) }
            })
            .collect();
        let working_sets = match cfg.packing {
            PackingPolicy::Knapsack => pack_working_sets(&sizes, budget, budget / 4),
            PackingPolicy::Naive => naive_working_sets(&sizes, budget),
        };

        // ---- simulation setup ----
        let mut sim = Sim::new();
        let gpu = jcfg.build_gpu(&mut sim);
        let host = HostMachine::new(&mut sim, cfg.host.clone());
        let pool = host.thread_pool(&mut sim, "partition-threads", cfg.cpu_threads);

        // Device reservations (see `CoProcessingConfig::footprint`): R
        // working-set budget + double chunk input buffers (+ double output
        // buffers when materializing).
        let chunk_tuples = cfg.chunk_tuples(s.len());
        let _ws_budget = gpu.mem.reserve(budget)?;
        let _in_buffers = gpu.mem.reserve(cfg.chunk_buffer_bytes(s.len()))?;
        let _out_buffers = match jcfg.output {
            OutputMode::Materialize => Some(gpu.mem.reserve(jcfg.output_buffer_bytes())?),
            OutputMode::Aggregate => None,
        };

        // ---- sim: CPU partitioning of R ----
        // R is split into thread-count chunks, each partitioned by one
        // local thread; chunks alternate home sockets.
        let r_chunk_count = cfg.cpu_threads as usize;
        let r_chunk_bytes = r.bytes().div_ceil(r_chunk_count as u64);
        let mut r_cpu_ops = Vec::new();
        for i in 0..r_chunk_count {
            let socket = if i % 2 == 0 { Socket::Near } else { Socket::Far };
            r_cpu_ops.push(tasks::cpu_task(
                &mut sim,
                &host,
                pool,
                CpuTaskKind::Partition { non_temporal: cfg.non_temporal },
                r_chunk_bytes * cpu_passes,
                socket,
                &[],
            ));
        }
        let r_ready = sim
            .op(Op::latency(SimTime::ZERO).label("cpu r partitioned").after_all(r_cpu_ops.clone()));

        // ---- functional chunking + per-chunk CPU partitions of S ----
        let s_chunk_parts: Vec<Runs> = (0..s.len())
            .step_by(chunk_tuples)
            .map(|start| {
                let chunk = start..(start + chunk_tuples).min(s.len());
                let (keys, payloads) = (&s.keys[chunk.clone()], &s.payloads[chunk]);
                Runs::group(keys, payloads, cpu_fanout, radix(cpu_bits))
            })
            .collect();

        // ---- the pipeline ----
        // R working-set parts and S chunk parts are sub-partitioned in
        // different pipeline stages, so there is no build-side plan to
        // replay here: fused refinement stays off for the GPU sub-passes
        // (both sides must always reach the full sub-fanout).
        let sub_cfg = GpuJoinConfig {
            radix_bits: jcfg.radix_bits - cpu_bits,
            fuse_small_partitions: false,
            ..jcfg.clone()
        };
        let sub_partitioner = GpuPartitioner::new(&sub_cfg);
        let mut exec = gpu.stream();
        let mut xfer = gpu.stream();
        let mut drain = gpu.stream();
        let mut sink = jcfg.make_sink();
        let mut s_cpu_done: Vec<Option<OpId>> = vec![None; s_chunk_parts.len()];
        let mut prev_ws_last_join: Option<OpId> = None;
        let mut drain_ops: Vec<OpId> = Vec::new();

        for (w, ws) in working_sets.sets.iter().enumerate() {
            // -- transfer the working set's R partitions (pinned) --
            let r_ws_bytes: u64 = ws.iter().map(|&p| r_parts.range(p).len() as u64 * 8).sum();
            let mut deps = vec![r_ready];
            if let Some(j) = prev_ws_last_join {
                deps.push(j); // the budget region is reused across sets
            }
            // Half of the partitioned data lives on the far socket. With
            // staging, CPU threads prefetch this working set's far half
            // into near pinned buffers as soon as R is partitioned — the
            // "CPU phase of the pipeline after the first working set"
            // (§IV-B) — so the stages of later sets are long done before
            // their transfers begin.
            let far_half = if cfg.numa_staging {
                let far = r_ws_bytes / 2;
                let tasks_n = 2u64.min(u64::from(cfg.cpu_threads)).max(1);
                let stages: Vec<OpId> = (0..tasks_n)
                    .map(|_| {
                        tasks::cpu_task(
                            &mut sim,
                            &host,
                            pool,
                            CpuTaskKind::StagingCopy,
                            far.div_ceil(tasks_n),
                            Socket::Far,
                            &[r_ready],
                        )
                    })
                    .collect();
                deps.extend(stages);
                0
            } else {
                r_ws_bytes / 2
            };
            let near_half = r_ws_bytes - far_half;
            let r_xfer = self.transfer_h2d(
                &mut sim,
                &gpu,
                &mut xfer,
                &host,
                format!("h2d r ws{w}"),
                near_half,
                far_half,
                &deps,
            )?;

            // -- GPU sub-partitioning of the working set's R side --
            let mut r_sub = Vec::with_capacity(ws.len());
            let mut part_seconds = 0.0;
            let mut part_cost = KernelCost::ZERO;
            for &p in ws {
                let out = sub_partitioner.partition_with_base(r_parts.run(p), cpu_bits);
                part_seconds += out.total_seconds();
                for pass in &out.passes {
                    part_cost += pass.cost;
                }
                r_sub.push(out.partitioned);
            }
            exec.wait_op(r_xfer);
            let ws_tuples: usize = ws.iter().map(|&p| r_parts.range(p).len()).sum();
            gpu.kernel(
                &mut sim,
                &mut exec,
                &format!("part r ws{w}"),
                part_seconds,
                &part_cost,
                sub_cfg.partition_launch_shape(ws_tuples),
            )?;

            // -- stream S chunk by chunk --
            let mut join_ops: Vec<OpId> = Vec::with_capacity(s_chunk_parts.len());
            for (c, chunk_parts) in s_chunk_parts.iter().enumerate() {
                // During the first working set the CPU partitions each S
                // chunk just in time (overlapped with transfers); later
                // sets reuse the pinned partitions.
                if w == 0 {
                    let socket = if c % 2 == 0 { Socket::Near } else { Socket::Far };
                    let chunk_len_bytes = chunk_parts.len() as u64 * 8;
                    let mut op = tasks::cpu_task(
                        &mut sim,
                        &host,
                        pool,
                        CpuTaskKind::Partition { non_temporal: cfg.non_temporal },
                        chunk_len_bytes * cpu_passes,
                        socket,
                        &[],
                    );
                    if cfg.numa_staging {
                        // Prefetch the chunk's far-half into near pinned
                        // buffers as soon as it is partitioned.
                        let stage = tasks::cpu_task(
                            &mut sim,
                            &host,
                            pool,
                            CpuTaskKind::StagingCopy,
                            chunk_len_bytes / 2,
                            Socket::Far,
                            &[op],
                        );
                        op = sim.op(Op::latency(SimTime::ZERO)
                            .label(format!("stage s chunk{c} done"))
                            .after(op)
                            .after(stage));
                    }
                    s_cpu_done[c] = Some(op);
                }
                let s_bytes: u64 = ws.iter().map(|&p| chunk_parts.range(p).len() as u64 * 8).sum();
                // Transfer deps: chunk partitioned; input buffer freed by
                // the join two chunks back (double buffering).
                let mut tdeps = Vec::new();
                if let Some(op) = s_cpu_done[c] {
                    tdeps.push(op);
                }
                if c >= 2 {
                    tdeps.push(join_ops[c - 2]);
                }
                let far_half = if cfg.numa_staging { 0 } else { s_bytes / 2 };
                let near_half = s_bytes - far_half;
                let s_xfer = self.transfer_h2d(
                    &mut sim,
                    &gpu,
                    &mut xfer,
                    &host,
                    format!("h2d s ws{w} c{c}"),
                    near_half,
                    far_half,
                    &tdeps,
                )?;

                // -- GPU sub-partition + join of this chunk piece --
                let matches_before = sink.matches();
                let mut cost = KernelCost::ZERO;
                let mut sub_seconds = 0.0;
                let mut live = 0usize;
                for (i, &p) in ws.iter().enumerate() {
                    if chunk_parts.range(p).is_empty() {
                        continue;
                    }
                    let s_out = sub_partitioner.partition_with_base(chunk_parts.run(p), cpu_bits);
                    sub_seconds += s_out.total_seconds();
                    for pass in &s_out.passes {
                        cost += pass.cost;
                    }
                    live += crate::join::live_copartitions(&r_sub[i], &s_out.partitioned);
                    cost += join_all_copartitions(jcfg, &r_sub[i], &s_out.partitioned, &mut sink);
                }
                let new_matches = sink.matches() - matches_before;
                cost += late_materialization_cost(new_matches, r.payload_width, true);
                cost += late_materialization_cost(new_matches, s.payload_width, true);
                exec.wait_op(s_xfer);
                let join = gpu.kernel(
                    &mut sim,
                    &mut exec,
                    &format!("join ws{w} c{c}"),
                    sub_seconds + cost.time(device),
                    &cost,
                    jcfg.join_launch_shape(live),
                )?;
                join_ops.push(join);

                // -- drain results (materialization) --
                if jcfg.output == OutputMode::Materialize && new_matches > 0 {
                    drain.wait_op(join);
                    if drain_ops.len() >= 2 {
                        drain.wait_op(drain_ops[drain_ops.len() - 2]);
                    }
                    let d = gpu.copy_d2h(
                        &mut sim,
                        &mut drain,
                        &format!("d2h ws{w} c{c}"),
                        new_matches * ROW_BYTES,
                        TransferKind::Pinned,
                    )?;
                    drain_ops.push(d);
                }
            }
            prev_ws_last_join = join_ops.last().copied().or(prev_ws_last_join);
        }

        // Account the output sink's device-side traffic.
        let sink_cost = sink.cost();
        if sink_cost != KernelCost::ZERO {
            let seconds = sink_cost.time(device);
            let shape = LaunchShape::UNSHAPED;
            gpu.kernel(&mut sim, &mut exec, "join output-flush", seconds, &sink_cost, shape)?;
        }
        Ok(JoinOutcome::finish(sim, &gpu, sink, (r.len() + s.len()) as u64))
    }

    /// One host→device transfer: the PCIe copy and its host-side legs
    /// (DRAM reads; the QPI crossing for far-socket data) run
    /// concurrently — they are one transfer; the returned fence completes
    /// when all legs do. The far-socket span is throttled to the QPI
    /// peer-read rate *while it is being shipped* (legs are sequential
    /// within the buffer), which is why direct copies lose to staging
    /// (Fig. 16). With staging enabled the callers pass `far_bytes = 0`:
    /// the data was prefetched into near pinned buffers beforehand.
    #[allow(clippy::too_many_arguments)]
    fn transfer_h2d(
        &self,
        sim: &mut Sim,
        gpu: &hcj_gpu::Gpu,
        xfer: &mut hcj_gpu::Stream,
        host: &HostMachine,
        label: String,
        near_bytes: u64,
        far_bytes: u64,
        deps: &[OpId],
    ) -> Result<OpId, JoinError> {
        let pcie = gpu.spec.pcie_bandwidth;
        // Shadows align with the copy: they also wait for whatever the
        // copy engine was doing before this transfer.
        let mut shadow_deps: Vec<OpId> = deps.to_vec();
        if let Some(prev) = xfer.last_op() {
            shadow_deps.push(prev);
        }
        for d in deps {
            xfer.wait_op(*d);
        }
        let mut legs: Vec<OpId> = Vec::new();
        if near_bytes > 0 {
            let copy_near = gpu.copy_h2d(
                sim,
                xfer,
                &format!("{label} near"),
                near_bytes,
                TransferKind::Pinned,
            )?;
            legs.push(copy_near);
            legs.push(tasks::dma_host_traffic(
                sim,
                host,
                near_bytes,
                Socket::Near,
                pcie,
                &shadow_deps,
            ));
        }
        if far_bytes > 0 {
            // Inflate the on-engine work so the engine runs this span at
            // `pcie * qpi_dma_efficiency`.
            let inflated = (far_bytes as f64 / host.spec.qpi_dma_efficiency) as u64;
            let copy_far =
                gpu.copy_h2d(sim, xfer, &format!("{label} far"), inflated, TransferKind::Pinned)?;
            legs.push(copy_far);
            legs.push(tasks::dma_host_traffic(
                sim,
                host,
                far_bytes,
                Socket::Far,
                pcie,
                &shadow_deps,
            ));
        }
        let fence = sim.op(Op::latency(SimTime::ZERO).label("h2d-fence").after_all(legs));
        // Later stream work must respect the full transfer, not just the
        // copy legs.
        xfer.wait_op(fence);
        Ok(fence)
    }
}

/// The CPU level's partition function: the low `bits` of the key.
fn radix(bits: u32) -> impl Fn(u32) -> usize {
    move |k| (k & ((1 << bits) - 1)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcj_gpu::DeviceSpec;
    use hcj_workload::generate::canonical_pair;
    use hcj_workload::oracle::{assert_join_matches, JoinCheck};
    use hcj_workload::RelationSpec;

    fn small_device() -> DeviceSpec {
        // 8 MB device: forces out-of-GPU behaviour with test-sized data.
        DeviceSpec::gtx1080().scaled_capacity(1 << 10)
    }

    fn cfg(tuples: usize) -> CoProcessingConfig {
        let join = GpuJoinConfig::paper_default(small_device())
            .with_radix_bits(12)
            .with_tuned_buckets(tuples / 16);
        CoProcessingConfig::paper_default(join)
    }

    #[test]
    fn coprocessing_matches_oracle() {
        let (r, s) = canonical_pair(100_000, 200_000, 52);
        let join = CoProcessingJoin::new(cfg(100_000));
        let out = join.execute(&r, &s).unwrap();
        assert_eq!(out.check, JoinCheck::compute(&r, &s));
        assert_eq!(out.tuples_in, 300_000);
    }

    #[test]
    fn materialized_coprocessing_matches_oracle() {
        let (r, s) = canonical_pair(30_000, 60_000, 53);
        let mut c = cfg(30_000);
        c.join = c.join.with_output(OutputMode::Materialize);
        let out = CoProcessingJoin::new(c).execute(&r, &s).unwrap();
        assert_join_matches(&r, &s, out.rows.as_ref().unwrap());
    }

    #[test]
    fn skewed_input_still_joins_correctly() {
        let r = RelationSpec::zipf(80_000, 1 << 16, 0.9, 54).generate();
        let s = RelationSpec::zipf(160_000, 1 << 16, 0.9, 55).generate();
        let join = CoProcessingJoin::new(cfg(80_000));
        let out = join.execute(&r, &s).unwrap();
        assert_eq!(out.check, JoinCheck::compute(&r, &s));
    }

    #[test]
    fn pipeline_overlaps_cpu_partitioning_with_transfers() {
        let (r, s) = canonical_pair(200_000, 800_000, 56);
        let join = CoProcessingJoin::new(cfg(200_000));
        let out = join.execute(&r, &s).unwrap();
        let overlap = out.schedule.overlap_time(
            |sp| sp.label.starts_with("cpu-Partition"),
            |sp| sp.label.starts_with("h2d"),
        );
        assert!(
            overlap.as_nanos() > 0,
            "CPU partitioning must overlap transfers\n{}",
            out.schedule.render_gantt(80)
        );
    }

    #[test]
    fn more_threads_do_not_slow_the_join() {
        let (r, s) = canonical_pair(150_000, 300_000, 57);
        let slow = CoProcessingJoin::new(cfg(150_000).with_threads(2)).execute(&r, &s).unwrap();
        let fast = CoProcessingJoin::new(cfg(150_000).with_threads(16)).execute(&r, &s).unwrap();
        assert_eq!(slow.check, fast.check);
        assert!(
            fast.total_seconds() <= slow.total_seconds() * 1.05,
            "16 threads {} vs 2 threads {}",
            fast.total_seconds(),
            slow.total_seconds()
        );
    }

    #[test]
    fn staging_beats_direct_copies() {
        let (r, s) = canonical_pair(400_000, 400_000, 58);
        let staged = CoProcessingJoin::new(cfg(400_000)).execute(&r, &s).unwrap();
        let direct =
            CoProcessingJoin::new(cfg(400_000).with_staging(false)).execute(&r, &s).unwrap();
        assert_eq!(staged.check, direct.check);
        assert!(
            staged.total_seconds() < direct.total_seconds(),
            "staged {} vs direct {}",
            staged.total_seconds(),
            direct.total_seconds()
        );
    }

    #[test]
    #[should_panic(expected = "CPU level must leave bits")]
    fn cpu_bits_must_leave_room() {
        let join = GpuJoinConfig::paper_default(small_device()).with_radix_bits(CPU_RADIX_BITS);
        let _ = CoProcessingJoin::new(CoProcessingConfig::paper_default(join));
    }
}
