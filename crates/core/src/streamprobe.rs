//! Out-of-GPU strategy 1: the streamed-probe join (paper §IV-A, Fig. 2
//! and Fig. 4; evaluated in Fig. 11).
//!
//! The build relation R fits in device memory and is partitioned there
//! once. The probe relation S lives in host memory and streams through the
//! GPU in chunks: while chunk *k* is being joined, chunk *k+1* is already
//! crossing PCIe on a separate stream, double-buffered, with CUDA events
//! ordering buffer reuse. The union of the chunk joins equals R ⨝ S, so
//! the whole join completes at near-transfer speed: total time ≈ transfer
//! time of S plus the processing of the final chunk.
//!
//! With materialization enabled, a mirrored double-buffered device→host
//! pipeline drains results on the second DMA engine (§IV-C, Fig. 4).
//!
//! Recovery: with a fault plan armed, every per-chunk transfer and join
//! carries bounded retry with exponential virtual-time backoff — a
//! transient fault costs one chunk a few backoff slots, never the whole
//! stream. The functional join result is computed exactly once per chunk
//! (retries re-issue only the simulated op), so matches are never double
//! counted. Device-lost aborts with a typed error for the facade's CPU
//! fallback.

use hcj_gpu::{JoinError, KernelCost, LaunchShape, TransferKind};
use hcj_host::{tasks, HostMachine, HostSpec, Socket};
use hcj_sim::{OpId, Sim};
use hcj_workload::Relation;

use crate::config::{GpuJoinConfig, OutputMode};
use crate::join::join_all_copartitions;
use crate::outcome::JoinOutcome;
use crate::output::{late_materialization_cost, ROW_BYTES};
use crate::partition::GpuPartitioner;

/// Host memory the probe relation is homed on (it is staged/pinned there
/// before transfer).
const PROBE_SOCKET: Socket = Socket::Near;

/// Configuration of the streamed-probe strategy.
#[derive(Clone, Debug)]
pub struct StreamedProbeConfig {
    pub join: GpuJoinConfig,
    pub host: HostSpec,
    /// Probe chunk size in tuples. The paper uses half the build relation
    /// size; `None` selects that rule.
    pub chunk_tuples: Option<usize>,
    /// Pinned (paper's choice) or pageable host buffers — the transfer
    /// ablation.
    pub transfer: TransferKind,
    /// Input/output buffers per direction: 2 = the paper's double
    /// buffering; 1 serializes copy and join of each chunk (ablation).
    pub buffers: usize,
}

impl StreamedProbeConfig {
    pub fn paper_default(join: GpuJoinConfig) -> Self {
        StreamedProbeConfig {
            join,
            host: HostSpec::dual_xeon_e5_2650l_v3(),
            chunk_tuples: None,
            transfer: TransferKind::Pinned,
            buffers: 2,
        }
    }

    pub fn with_transfer(mut self, transfer: TransferKind) -> Self {
        self.transfer = transfer;
        self
    }

    pub fn with_buffers(mut self, buffers: usize) -> Self {
        assert!((1..=4).contains(&buffers), "1-4 buffers supported");
        self.buffers = buffers;
        self
    }

    /// Probe chunk size in tuples against a build side of `build_tuples`.
    fn chunk_tuples(&self, build_tuples: usize) -> usize {
        self.chunk_tuples.unwrap_or((build_tuples / 2).max(1))
    }

    /// Device bytes of the probe chunk input buffers.
    fn chunk_buffer_bytes(&self, build_tuples: usize) -> u64 {
        self.buffers as u64 * self.chunk_tuples(build_tuples) as u64 * 8
    }

    /// Device bytes the streamed probe holds at its peak, for a build
    /// side of `build_bytes` whose partition pool takes `pool_bytes`: the
    /// pool, the probe chunk buffers and, when materializing, the output
    /// buffers. A pool holds every build tuple in a bucket slot, so the
    /// build input it replaces never outweighs it.
    pub fn footprint(&self, build_bytes: u64, pool_bytes: u64) -> u64 {
        let chunk_buffers = self.chunk_buffer_bytes((build_bytes / 8) as usize);
        pool_bytes + chunk_buffers + self.join.output_buffer_bytes()
    }
}

/// The streamed-probe join strategy.
pub struct StreamedProbeJoin {
    pub config: StreamedProbeConfig,
}

impl StreamedProbeJoin {
    pub fn new(config: StreamedProbeConfig) -> Self {
        config.join.validate().expect("join configuration exceeds the device's shared memory");
        StreamedProbeJoin { config }
    }

    /// Execute with R GPU-resident and S streamed from host memory.
    pub fn execute(&self, r: &Relation, s: &Relation) -> Result<JoinOutcome, JoinError> {
        let cfg = &self.config.join;
        let mut sim = Sim::new();
        let gpu = cfg.build_gpu(&mut sim);
        let host = HostMachine::new(&mut sim, self.config.host.clone());

        let chunk_tuples = self.config.chunk_tuples(r.len());
        let nbuf = self.config.buffers;
        let kind = self.config.transfer;

        // Device residency (see `StreamedProbeConfig::footprint`): R
        // (recycled into its bucket chains — input and partitioned form
        // never coexist, as in the resident strategy) + the S chunk input
        // buffers (+ output buffers when materializing).
        let r_input = gpu.mem.reserve(r.bytes())?;
        let partitioner = GpuPartitioner::new(cfg);
        let r_out = partitioner.partition(r);
        drop(r_input);
        let _r_pool = gpu.mem.reserve(r_out.partitioned.pool_bytes())?;
        let _in_buffers = gpu.mem.reserve(self.config.chunk_buffer_bytes(r.len()))?;
        let _out_buffers = match cfg.output {
            OutputMode::Materialize => Some(gpu.mem.reserve(cfg.output_buffer_bytes())?),
            OutputMode::Aggregate => None,
        };

        // R starts in host memory (paper §V-C: "All tables are originally
        // in CPU memory"): it is transferred once, then partitioned on the
        // GPU, before the probe stream begins.
        let mut exec = gpu.stream();
        let mut xfer = gpu.stream();
        let mut drain = gpu.stream();
        let r_copy = gpu.copy_h2d(&mut sim, &mut xfer, "h2d r", r.bytes(), kind)?;
        let r_shadow = tasks::dma_host_traffic(
            &mut sim,
            &host,
            r.bytes(),
            PROBE_SOCKET,
            cfg.device.pcie_bandwidth,
            &[],
        );
        exec.wait_op(r_copy);
        exec.wait_op(r_shadow);
        let part_shape = cfg.partition_launch_shape(r.len());
        r_out.charge_passes(&mut sim, &gpu, &mut exec, "part r", part_shape)?;

        // Stream S chunk by chunk, each chunk a range of S's columns.
        let chunks = s.len().div_ceil(chunk_tuples);
        let mut sink = cfg.make_sink();
        let mut copy_done: Vec<OpId> = Vec::with_capacity(chunks);
        let mut join_done: Vec<OpId> = Vec::with_capacity(chunks);
        let mut drain_done: Vec<OpId> = Vec::with_capacity(chunks);

        for k in 0..chunks {
            let range = k * chunk_tuples..((k + 1) * chunk_tuples).min(s.len());
            // -- H2D copy of chunk k (double buffering: buffer k%2 is free
            // once join k-2 has consumed it).
            if k >= nbuf {
                xfer.wait_op(join_done[k - nbuf]);
            }
            let bytes = range.len() as u64 * 8;
            // The copy's host-side leg (the DMA engine reading source
            // DRAM) runs concurrently with the PCIe leg; align it with
            // the engine's queue so it cannot run ahead of its transfer.
            let shadow_deps: Vec<OpId> = xfer.last_op().into_iter().collect();
            // Chunk-level bounded retry: a transient PCIe fault re-issues
            // only this chunk's copy (after backoff), not the stream.
            let copy =
                gpu.copy_h2d(&mut sim, &mut xfer, &format!("h2d s chunk{k}"), bytes, kind)?;
            let shadow = tasks::dma_host_traffic(
                &mut sim,
                &host,
                bytes,
                PROBE_SOCKET,
                cfg.device.pcie_bandwidth,
                &shadow_deps,
            );
            let copy_fence = sim.op(hcj_sim::Op::latency(hcj_sim::SimTime::ZERO)
                .label(format!("h2d-fence{k}"))
                .after(copy)
                .after(shadow));
            copy_done.push(copy_fence);

            // -- join chunk k against R (functional: partition the chunk,
            // then join co-partitions).
            let matches_before = sink.matches();
            // Every chunk replays R's early-stop decisions (inert without
            // fusion) so its co-partitions line up with R's.
            let chunk = (&s.keys[range.clone()], &s.payloads[range]);
            let s_out = partitioner.partition_following(chunk, &r_out.refine_plan);
            let mut cost =
                join_all_copartitions(cfg, &r_out.partitioned, &s_out.partitioned, &mut sink);
            for p in &s_out.passes {
                cost += p.cost;
            }
            cost +=
                late_materialization_cost(sink.matches() - matches_before, r.payload_width, true);
            cost +=
                late_materialization_cost(sink.matches() - matches_before, s.payload_width, true);
            exec.wait_op(copy_fence);
            let join_shape = cfg.join_launch_shape(crate::join::live_copartitions(
                &r_out.partitioned,
                &s_out.partitioned,
            ));
            let join = gpu.kernel(
                &mut sim,
                &mut exec,
                &format!("join chunk{k}"),
                cost.time(&gpu.spec),
                &cost,
                join_shape,
            )?;
            join_done.push(join);

            // -- result drain (materialization only): D2H of this chunk's
            // rows, double-buffered on the output side.
            if cfg.output == OutputMode::Materialize {
                let out_bytes = (sink.matches() - matches_before) * ROW_BYTES;
                drain.wait_op(join);
                if drain_done.len() >= nbuf {
                    // Output buffer reuse: join k could only fill a buffer
                    // whose previous drain completed; order explicitly.
                    drain.wait_op(drain_done[drain_done.len() - nbuf]);
                }
                let d = gpu.copy_d2h(
                    &mut sim,
                    &mut drain,
                    &format!("d2h rows chunk{k}"),
                    out_bytes,
                    kind,
                )?;
                drain_done.push(d);
            }
        }
        // Account the output sink's device-side traffic on the final join
        // op's stream position (spread across chunks in reality; the total
        // is what matters for the timeline's last kernel).
        let sink_cost = sink.cost();
        if sink_cost != KernelCost::ZERO {
            let seconds = sink_cost.time(&gpu.spec);
            let shape = LaunchShape::UNSHAPED;
            gpu.kernel(&mut sim, &mut exec, "join output-flush", seconds, &sink_cost, shape)?;
        }
        Ok(JoinOutcome::finish(sim, &gpu, sink, (r.len() + s.len()) as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcj_gpu::DeviceSpec;
    use hcj_workload::generate::canonical_pair;
    use hcj_workload::oracle::{assert_join_matches, JoinCheck};

    fn cfg(bits: u32, tuples: usize) -> GpuJoinConfig {
        GpuJoinConfig::paper_default(DeviceSpec::gtx1080())
            .with_radix_bits(bits)
            .with_tuned_buckets(tuples)
    }

    #[test]
    fn streamed_join_matches_oracle() {
        let (r, s) = canonical_pair(8192, 65_536, 41);
        let join = StreamedProbeJoin::new(StreamedProbeConfig::paper_default(cfg(8, 8192)));
        let out = join.execute(&r, &s).unwrap();
        assert_eq!(out.check, JoinCheck::compute(&r, &s));
        // 16 chunks of half the build size.
        assert_eq!(out.tuples_in, 8192 + 65_536);
    }

    #[test]
    fn materialized_stream_matches_oracle() {
        let (r, s) = canonical_pair(4096, 16_384, 42);
        let mut c =
            StreamedProbeConfig::paper_default(cfg(6, 4096).with_output(OutputMode::Materialize));
        c.chunk_tuples = Some(2048);
        let out = StreamedProbeJoin::new(c).execute(&r, &s).unwrap();
        assert_join_matches(&r, &s, out.rows.as_ref().unwrap());
    }

    #[test]
    fn fused_streamed_join_matches_oracle_and_unfused() {
        // Every S chunk must replay R's early-stop decisions; chunks
        // small enough to have finalized on their own still reach R's
        // depth, and vice versa.
        let (r, s) = canonical_pair(50_000, 400_000, 47);
        let unfused = StreamedProbeJoin::new(StreamedProbeConfig::paper_default(cfg(12, 50_000)))
            .execute(&r, &s)
            .unwrap();
        let fused = StreamedProbeJoin::new(StreamedProbeConfig::paper_default(
            cfg(12, 50_000).with_fused_refinement(true),
        ))
        .execute(&r, &s)
        .unwrap();
        assert_eq!(fused.check, JoinCheck::compute(&r, &s));
        assert_eq!(fused.check, unfused.check);
        assert!(fused.total_seconds() <= unfused.total_seconds());
    }

    #[test]
    fn transfers_overlap_execution() {
        let (r, s) = canonical_pair(16_384, 262_144, 43);
        let join = StreamedProbeJoin::new(StreamedProbeConfig::paper_default(cfg(8, 16_384)));
        let out = join.execute(&r, &s).unwrap();
        let overlap = out.schedule.overlap_time(
            |sp| sp.label.starts_with("join chunk"),
            |sp| sp.label.starts_with("h2d s chunk"),
        );
        let join_total = out.schedule.total_time_labeled("join chunk");
        assert!(
            overlap.as_secs_f64() > 0.5 * join_total.as_secs_f64(),
            "overlap {} of join time {}",
            overlap,
            join_total
        );
    }

    #[test]
    fn throughput_approaches_pcie_for_large_probes() {
        // 1M build, 16M probe: S transfer dominates; the total throughput
        // should exceed half of the PCIe-bound ceiling
        // (pcie_bw / 8 bytes-per-tuple counts only S; the metric counts
        // R+S over the same time, so the ceiling is slightly above S/time).
        let (r, s) = canonical_pair(1 << 20, 16 << 20, 44);
        let join = StreamedProbeJoin::new(StreamedProbeConfig::paper_default(cfg(12, 1 << 20)));
        let out = join.execute(&r, &s).unwrap();
        let pcie_ceiling = 12.0e9 / 8.0; // tuples of S per second
        let tput = out.throughput_tuples_per_s();
        assert!(tput > 0.5 * pcie_ceiling, "tput = {tput:.3e} vs ceiling {pcie_ceiling:.3e}");
        assert!(tput < 2.0 * pcie_ceiling, "tput = {tput:.3e} cannot beat PCIe by 2x");
    }

    #[test]
    fn build_too_large_for_device_errors() {
        let device = DeviceSpec::gtx1080().scaled_capacity(1 << 20); // 8 KB
        let config =
            GpuJoinConfig::paper_default(device).with_radix_bits(4).with_tuned_buckets(4096);
        let (r, s) = canonical_pair(4096, 8192, 45);
        let join = StreamedProbeJoin::new(StreamedProbeConfig::paper_default(config));
        assert!(join.execute(&r, &s).is_err());
    }
}
