//! CUDA-like streams and DMA copy engines over the sim engine.
//!
//! A [`Gpu`] registers three `hcj-sim` resources: the compute engine (one
//! grid at a time — the paper's kernels each saturate the device) and the
//! two DMA copy engines, one per PCIe direction, which is what lets input
//! transfers, kernel execution and result write-back all overlap
//! (paper §IV-A/§IV-C, Figs. 2–4). Work reaches them through the paper's
//! three primitives, [`Gpu::kernel`], [`Gpu::copy_h2d`] and
//! [`Gpu::copy_d2h`], each of which retries a transient fault.
//!
//! [`Stream`] reproduces CUDA stream semantics: operations issued to the
//! same stream serialize in issue order; operations in different streams
//! overlap unless one waits on an op of the other ([`Stream::wait_op`]).

use hcj_sim::{Op, OpId, ResourceId, Schedule, Sim, SimTime};

use crate::cost::KernelCost;
use crate::counters::{CounterHandle, CounterSet, LaunchShape};
use crate::error::JoinError;
use crate::faults::{
    retry_backoff, DeviceFault, FaultConfig, FaultEventKind, FaultHandle, FaultKind, FaultLog,
    FaultPlan, FaultSite, OpVerdict, MAX_ATTEMPTS,
};
use crate::memory::DeviceMemory;
use crate::spec::DeviceSpec;

/// Traffic-class tag carried on kernel sim spans, for timeline analysis.
pub const CLASS_KERNEL: u32 = 1;
/// Traffic-class tag for host→device transfer spans.
pub const CLASS_H2D: u32 = 2;
/// Traffic-class tag for device→host transfer spans.
pub const CLASS_D2H: u32 = 3;
/// Partial work charged by an op that faulted mid-flight.
pub const CLASS_FAULT: u32 = 4;
/// Virtual-time backoff before a retry of a faulted op.
pub const CLASS_RETRY: u32 = 5;

/// Whether a host buffer participating in a transfer is pinned
/// (page-locked) or pageable. Pageable transfers bounce through a driver
/// staging buffer and achieve roughly half the bandwidth, which is why the
/// co-processing strategy stores partitions in pinned memory (paper §IV-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransferKind {
    /// Page-locked host memory: full PCIe bandwidth.
    Pinned,
    /// Pageable host memory: staged through the driver at reduced rate.
    Pageable,
}

/// A modeled GPU: spec + device-memory accountant + sim resources.
pub struct Gpu {
    /// Physical parameters of the modeled device.
    pub spec: DeviceSpec,
    /// The device-memory accountant (strict capacity, typed OOM).
    pub mem: DeviceMemory,
    compute: ResourceId,
    dma_h2d: ResourceId,
    dma_d2h: ResourceId,
    /// Armed fault plan, shared with `mem` so allocation-time shrink
    /// events draw from the same deterministic stream. `None` = the
    /// fault layer is compiled in but inert (zero overhead on the op
    /// stream, identical schedules).
    faults: Option<FaultHandle>,
    /// Always-on hardware counters, updated once per successfully issued
    /// logical op (see [`crate::counters`]). Collection is a map update
    /// per op; only *surfacing* is gated behind `--profile`.
    counters: CounterHandle,
}

impl Gpu {
    /// Register the device's resources with `sim`.
    pub fn new(sim: &mut Sim, spec: DeviceSpec) -> Self {
        let mem = DeviceMemory::new(spec.device_mem_bytes);
        let compute = sim.fifo_resource(format!("{} compute", spec.name), 1.0, 1);
        let dma_h2d = sim.fifo_resource(format!("{} dma-h2d", spec.name), spec.pcie_bandwidth, 1);
        let dma_d2h = sim.fifo_resource(format!("{} dma-d2h", spec.name), spec.pcie_bandwidth, 1);
        let counters = CounterSet::handle(&spec);
        Gpu { spec, mem, compute, dma_h2d, dma_d2h, faults: None, counters }
    }

    /// Arm deterministic fault injection for this device (and its memory
    /// accountant). Every subsequently issued op consults the seeded plan
    /// in issue order.
    pub fn arm_faults(&mut self, cfg: FaultConfig) {
        let plan = FaultPlan::handle(cfg);
        self.mem.arm_faults(FaultHandle::clone(&plan));
        self.faults = Some(plan);
    }

    /// The fault log resolved against a solved schedule: every injection,
    /// retry and shrink stamped with virtual time. Empty when unarmed.
    pub fn fault_log(&self, schedule: &Schedule) -> FaultLog {
        match &self.faults {
            None => FaultLog::default(),
            Some(p) => {
                FaultLog::resolve(p.lock().expect("fault plan poisoned").records(), schedule)
            }
        }
    }

    /// A snapshot of the hardware counters accumulated so far.
    pub fn counters(&self) -> CounterSet {
        self.counters.lock().expect("counter set poisoned").clone()
    }

    /// Record one successfully issued kernel into the counters.
    fn note_kernel(&self, op: OpId, label: &str, cost: &KernelCost, shape: LaunchShape, secs: f64) {
        self.counters.lock().expect("counter set poisoned").record_kernel(
            Some(op),
            label,
            cost,
            shape,
            secs,
            &self.spec,
        );
    }

    /// Record one successfully completed transfer into the counters.
    fn note_transfer(&self, op: OpId, to_device: bool, bytes: u64, kind: TransferKind) {
        let seconds = bytes as f64 * self.pageable_slowdown(kind) / self.spec.pcie_bandwidth;
        self.counters.lock().expect("counter set poisoned").record_transfer(
            Some(op),
            to_device,
            bytes,
            kind == TransferKind::Pageable,
            seconds,
        );
    }

    /// A fresh stream (no prior work).
    pub fn stream(&self) -> Stream {
        Stream { last: None, waits: Vec::new() }
    }

    /// Launch a kernel on `stream` that runs for `seconds` plus the launch
    /// overhead, after every stream-order and waited-on dependency. `cost`
    /// is the traffic behind `seconds` and `shape` the grid geometry; the
    /// counters record both once, for the attempt that succeeds. `Err`
    /// when the device is lost or every attempt faults (see
    /// [`MAX_ATTEMPTS`]).
    pub fn kernel(
        &self,
        sim: &mut Sim,
        stream: &mut Stream,
        label: &str,
        seconds: f64,
        cost: &KernelCost,
        shape: LaunchShape,
    ) -> Result<OpId, JoinError> {
        let op = self.with_retries(sim, stream, label, FaultSite::Kernel, seconds)?;
        self.note_kernel(op, label, cost, shape, seconds);
        Ok(op)
    }

    /// Asynchronous host→device copy of `bytes` on `stream`, retried like
    /// [`kernel`](Self::kernel).
    pub fn copy_h2d(
        &self,
        sim: &mut Sim,
        stream: &mut Stream,
        label: &str,
        bytes: u64,
        kind: TransferKind,
    ) -> Result<OpId, JoinError> {
        let work = bytes as f64 * self.pageable_slowdown(kind);
        let op = self.with_retries(sim, stream, label, FaultSite::H2D, work)?;
        self.note_transfer(op, true, bytes, kind);
        Ok(op)
    }

    /// Asynchronous device→host copy of `bytes` on `stream`, retried like
    /// [`kernel`](Self::kernel).
    pub fn copy_d2h(
        &self,
        sim: &mut Sim,
        stream: &mut Stream,
        label: &str,
        bytes: u64,
        kind: TransferKind,
    ) -> Result<OpId, JoinError> {
        let work = bytes as f64 * self.pageable_slowdown(kind);
        let op = self.with_retries(sim, stream, label, FaultSite::D2H, work)?;
        self.note_transfer(op, false, bytes, kind);
        Ok(op)
    }

    fn pageable_slowdown(&self, kind: TransferKind) -> f64 {
        // The DMA resource rate is the pinned bandwidth; pageable copies
        // are modeled as proportionally more work on the same engine.
        match kind {
            TransferKind::Pinned => 1.0,
            TransferKind::Pageable => self.spec.pcie_bandwidth / self.spec.pcie_pageable_bandwidth,
        }
    }

    /// Issue one op on the engine that serves `site`, consulting the fault
    /// plan (if armed) exactly once. Faulted ops still charge a partial
    /// amount of work on the resource (tagged [`CLASS_FAULT`]), and the
    /// failed attempt stays in stream order so a retry serializes after it.
    fn launch(
        &self,
        sim: &mut Sim,
        stream: &mut Stream,
        label: String,
        site: FaultSite,
        work: f64,
    ) -> Result<OpId, JoinError> {
        let (resource, class, pre) = match site {
            FaultSite::H2D => (self.dma_h2d, CLASS_H2D, SimTime::ZERO),
            FaultSite::D2H => (self.dma_d2h, CLASS_D2H, SimTime::ZERO),
            FaultSite::Kernel | FaultSite::Alloc => {
                (self.compute, CLASS_KERNEL, SimTime::from_secs_f64(self.spec.launch_overhead_s))
            }
        };
        let issue = |sim: &mut Sim, stream: &mut Stream, label: String, work: f64, class: u32| {
            let op = Op::new(resource, work)
                .label(label)
                .class(class)
                .pre_latency(pre)
                .after_all(stream.take_deps());
            let id = sim.op(op);
            stream.last = Some(id);
            id
        };
        let Some(plan) = &self.faults else {
            return Ok(issue(sim, stream, label, work, class));
        };
        let mut plan = plan.lock().expect("fault plan poisoned");
        match plan.verdict(site) {
            OpVerdict::Run => Ok(issue(sim, stream, label, work, class)),
            OpVerdict::Stall(factor) => {
                let id = issue(sim, stream, label.clone(), work * factor, class);
                plan.record(site, FaultEventKind::Stall, label, Some(id));
                Ok(id)
            }
            OpVerdict::Lost => {
                // The device is already gone: nothing to charge, nothing
                // runs. (The op that killed the device was recorded.)
                Err(JoinError::Device(DeviceFault { site, kind: FaultKind::DeviceLost, label }))
            }
            OpVerdict::Fault(kind) => {
                let fraction = plan.partial_fraction();
                let id =
                    issue(sim, stream, format!("{label} [fault]"), work * fraction, CLASS_FAULT);
                let event = match kind {
                    FaultKind::Transient => FaultEventKind::Transient,
                    FaultKind::DeviceLost => FaultEventKind::DeviceLost,
                };
                plan.record(site, event, label.clone(), Some(id));
                Err(JoinError::Device(DeviceFault { site, kind, label }))
            }
        }
    }

    /// Bounded retry around [`launch`](Self::launch): a transient fault is
    /// retried up to [`MAX_ATTEMPTS`] attempts in all, each retry preceded
    /// by a [`CLASS_RETRY`] virtual-time backoff op in stream order, so
    /// recovery costs show up on the timeline. Device loss and the last
    /// attempt's transient fault propagate.
    fn with_retries(
        &self,
        sim: &mut Sim,
        stream: &mut Stream,
        label: &str,
        site: FaultSite,
        work: f64,
    ) -> Result<OpId, JoinError> {
        let mut retries = 0u32;
        loop {
            let attempt =
                if retries == 0 { label.to_string() } else { format!("{label} [retry {retries}]") };
            match self.launch(sim, stream, attempt, site, work) {
                Ok(op) => return Ok(op),
                Err(e) if e.is_transient() && retries + 1 < MAX_ATTEMPTS => {
                    retries += 1;
                    let backoff = Op::latency(retry_backoff(retries))
                        .label(format!("{label} [backoff {retries}]"))
                        .class(CLASS_RETRY)
                        .after_all(stream.take_deps());
                    let id = sim.op(backoff);
                    stream.last = Some(id);
                    if let Some(plan) = &self.faults {
                        plan.lock().expect("fault plan poisoned").record(
                            site,
                            FaultEventKind::Retry { attempt: retries },
                            label.to_string(),
                            Some(id),
                        );
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// An ordered queue of GPU operations (CUDA stream semantics).
#[derive(Clone, Debug, Default)]
pub struct Stream {
    last: Option<OpId>,
    waits: Vec<OpId>,
}

impl Stream {
    /// Make the next operation issued to this stream wait for `op`: an op
    /// of another stream (what a CUDA event orders) or a host-side phase
    /// like CPU partitioning.
    pub fn wait_op(&mut self, op: OpId) {
        self.waits.push(op);
    }

    /// The op id of the last operation issued to this stream, if any.
    /// Depending on it is equivalent to `cudaStreamSynchronize`.
    pub fn last_op(&self) -> Option<OpId> {
        self.last
    }

    fn take_deps(&mut self) -> Vec<OpId> {
        let mut deps = std::mem::take(&mut self.waits);
        if let Some(last) = self.last {
            deps.push(last);
        }
        deps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu(sim: &mut Sim) -> Gpu {
        Gpu::new(sim, DeviceSpec::gtx1080())
    }

    /// A shape-less kernel that runs for exactly what `cost` models.
    fn kernel(
        g: &Gpu,
        sim: &mut Sim,
        s: &mut Stream,
        label: &str,
        cost: &KernelCost,
    ) -> Result<OpId, JoinError> {
        g.kernel(sim, s, label, cost.time(&g.spec), cost, LaunchShape::UNSHAPED)
    }

    /// 1.2 GB over PCIe at `transfer_fault_p` 0.9: seed 7 faults twice,
    /// then succeeds on the third attempt.
    fn recovering_copy() -> (Gpu, Sim, OpId) {
        let cfg = crate::faults::FaultConfig {
            transfer_fault_p: 0.9,
            ..crate::faults::FaultConfig::disabled(7)
        };
        let mut sim = Sim::new();
        let mut g = gpu(&mut sim);
        g.arm_faults(cfg);
        let mut s = g.stream();
        let op = g
            .copy_h2d(&mut sim, &mut s, "h2d r", 1_200_000_000, TransferKind::Pinned)
            .expect("seed 7 recovers within the retry budget");
        (g, sim, op)
    }

    #[test]
    fn same_stream_serializes() {
        let mut sim = Sim::new();
        let g = gpu(&mut sim);
        let mut s = g.stream();
        let a = g.copy_h2d(&mut sim, &mut s, "copy", 12_000_000_000, TransferKind::Pinned).unwrap();
        let k = kernel(&g, &mut sim, &mut s, "join", &KernelCost::coalesced(320_000_000)).unwrap();
        let sched = sim.run();
        // 12 GB at 12 GB/s = 1 s; kernel starts after.
        assert_eq!(sched.finish(a).as_secs_f64(), 1.0);
        assert_eq!(sched.start(k), sched.finish(a));
    }

    #[test]
    fn different_streams_overlap() {
        let mut sim = Sim::new();
        let g = gpu(&mut sim);
        let mut copy_stream = g.stream();
        let mut exec_stream = g.stream();
        let c = g
            .copy_h2d(&mut sim, &mut copy_stream, "copy", 12_000_000_000, TransferKind::Pinned)
            .unwrap();
        let k =
            kernel(&g, &mut sim, &mut exec_stream, "join", &KernelCost::coalesced(320_000_000_000))
                .unwrap();
        let sched = sim.run();
        // Both start at t≈0: the copy does not wait for the kernel.
        assert_eq!(sched.start(c), SimTime::ZERO);
        assert_eq!(sched.start(k), SimTime::ZERO);
        let _ = (c, k);
    }

    #[test]
    fn events_order_across_streams() {
        let mut sim = Sim::new();
        let g = gpu(&mut sim);
        let mut copy_stream = g.stream();
        let mut exec_stream = g.stream();
        let c = g
            .copy_h2d(&mut sim, &mut copy_stream, "copy", 1_200_000_000, TransferKind::Pinned)
            .unwrap();
        exec_stream.wait_op(copy_stream.last_op().expect("the copy was issued"));
        let k = kernel(&g, &mut sim, &mut exec_stream, "join", &KernelCost::coalesced(1)).unwrap();
        let sched = sim.run();
        assert!(sched.start(k) >= sched.finish(c));
    }

    #[test]
    fn h2d_and_d2h_use_separate_engines() {
        let mut sim = Sim::new();
        let g = gpu(&mut sim);
        let mut up = g.stream();
        let mut down = g.stream();
        let a = g.copy_h2d(&mut sim, &mut up, "in", 12_000_000_000, TransferKind::Pinned).unwrap();
        let b =
            g.copy_d2h(&mut sim, &mut down, "out", 12_000_000_000, TransferKind::Pinned).unwrap();
        let sched = sim.run();
        // Full-duplex: both 1 s transfers complete at t = 1 s.
        assert_eq!(sched.finish(a).as_secs_f64(), 1.0);
        assert_eq!(sched.finish(b).as_secs_f64(), 1.0);
    }

    #[test]
    fn two_h2d_copies_share_one_engine() {
        let mut sim = Sim::new();
        let g = gpu(&mut sim);
        let mut s1 = g.stream();
        let mut s2 = g.stream();
        let a = g.copy_h2d(&mut sim, &mut s1, "a", 12_000_000_000, TransferKind::Pinned).unwrap();
        let b = g.copy_h2d(&mut sim, &mut s2, "b", 12_000_000_000, TransferKind::Pinned).unwrap();
        let sched = sim.run();
        // Serialized on the single H2D engine: 1 s then 1 s.
        assert_eq!(sched.finish(a).as_secs_f64(), 1.0);
        assert_eq!(sched.finish(b).as_secs_f64(), 2.0);
    }

    #[test]
    fn pageable_is_slower_than_pinned() {
        let mut sim = Sim::new();
        let g = gpu(&mut sim);
        let mut s = g.stream();
        let a = g
            .copy_h2d(&mut sim, &mut s, "pageable", 6_000_000_000, TransferKind::Pageable)
            .unwrap();
        let sched = sim.run();
        // 6 GB at 6 GB/s pageable = 1 s.
        assert_eq!(sched.finish(a).as_secs_f64(), 1.0);
    }

    #[test]
    fn kernel_includes_launch_overhead() {
        let mut sim = Sim::new();
        let g = gpu(&mut sim);
        let mut s = g.stream();
        let k = kernel(&g, &mut sim, &mut s, "empty", &KernelCost::ZERO).unwrap();
        let sched = sim.run();
        assert_eq!(sched.finish(k).as_secs_f64(), g.spec.launch_overhead_s);
    }

    #[test]
    fn armed_but_disabled_faults_change_nothing() {
        // The CI determinism check in miniature: arming the fault layer
        // with zero probabilities must produce the identical schedule.
        let run = |arm: bool| {
            let mut sim = Sim::new();
            let mut g = gpu(&mut sim);
            if arm {
                g.arm_faults(crate::faults::FaultConfig::disabled(7));
            }
            let mut s = g.stream();
            g.copy_h2d(&mut sim, &mut s, "copy", 12_000_000_000, TransferKind::Pinned).unwrap();
            kernel(&g, &mut sim, &mut s, "join", &KernelCost::coalesced(320_000_000)).unwrap();
            let sched = sim.run();
            (sched.makespan(), sched.spans().len())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn transfer_fault_charges_partial_work_and_errors() {
        let cfg = crate::faults::FaultConfig {
            transfer_fault_p: 1.0,
            ..crate::faults::FaultConfig::disabled(1)
        };
        let mut sim = Sim::new();
        let mut g = gpu(&mut sim);
        g.arm_faults(cfg);
        let mut s = g.stream();
        let err = g
            .copy_h2d(&mut sim, &mut s, "h2d r", 12_000_000_000, TransferKind::Pinned)
            .unwrap_err();
        assert!(err.is_transient());
        assert!(err.to_string().contains("transient h2d fault"));
        let sched = sim.run();
        // Every failed attempt still charged partial time on the DMA engine.
        let faulted: Vec<_> = sched.spans().iter().filter(|sp| sp.class == CLASS_FAULT).collect();
        assert_eq!(faulted.len() as u32, MAX_ATTEMPTS);
        for span in faulted {
            assert!(span.label.contains("[fault]"));
            let t = (span.end - span.start).as_secs_f64();
            assert!(t > 0.0 && t < 1.0, "partial work must be a strict fraction of the 1 s copy");
        }
        let log = g.fault_log(&sched);
        assert_eq!(log.summary().transfer_faults, MAX_ATTEMPTS);
        assert!(log.events[0].at.is_some());
    }

    #[test]
    fn retrying_copy_survives_transient_faults_with_backoff() {
        // At fault probability 1 every attempt faults and the op fails.
        // Use a seed-dependent plan instead: moderate probability so some
        // attempt succeeds.
        let cfg = crate::faults::FaultConfig {
            transfer_fault_p: 0.5,
            ..crate::faults::FaultConfig::disabled(3)
        };
        let mut sim = Sim::new();
        let mut g = gpu(&mut sim);
        g.arm_faults(cfg);
        let mut s = g.stream();
        let mut exhausted = 0;
        for i in 0..32 {
            let label = format!("h2d chunk{i}");
            // A chain that exhausts its attempts is still a *typed*
            // transient error, never a panic.
            if let Err(e) = g.copy_h2d(&mut sim, &mut s, &label, 1_200_000, TransferKind::Pinned) {
                assert!(e.is_transient());
                exhausted += 1;
            }
        }
        let sched = sim.run();
        let log = g.fault_log(&sched).summary();
        // A chain retries after every fault but the last of an exhausted
        // chain, and the log counts the backoffs of exhausted chains too.
        assert_eq!(
            log.retries,
            log.transfer_faults - exhausted,
            "a chain backs off once per fault it recovers from"
        );
        assert!(
            log.retries > (MAX_ATTEMPTS - 1) * exhausted,
            "seed 3 at p=0.5 must recover via retry at least once"
        );
        // Backoff ops appear on the timeline between attempts.
        assert!(sched.spans().iter().any(|sp| sp.class == CLASS_RETRY));
        // Failed attempts and their retries serialize in stream order.
        assert!(sched.spans().iter().any(|sp| sp.label.contains("[retry ")));
    }

    #[test]
    fn device_lost_is_sticky_across_ops_and_streams() {
        let cfg = crate::faults::FaultConfig {
            kernel_fault_p: 1.0,
            device_lost_p: 1.0,
            ..crate::faults::FaultConfig::disabled(2)
        };
        let mut sim = Sim::new();
        let mut g = gpu(&mut sim);
        g.arm_faults(cfg);
        let mut s = g.stream();
        let err =
            kernel(&g, &mut sim, &mut s, "join p0", &KernelCost::coalesced(1 << 20)).unwrap_err();
        assert!(err.is_device_lost());
        // Every subsequent op fails without charging new work...
        let mut other = g.stream();
        let before = sim.op_count();
        let err2 =
            g.copy_h2d(&mut sim, &mut other, "h2d", 1_000, TransferKind::Pinned).unwrap_err();
        assert!(err2.is_device_lost());
        assert_eq!(sim.op_count(), before, "ops after device-lost must not be issued");
        // ...and retrying does not help (fatal, not transient).
        let err3 = kernel(&g, &mut sim, &mut s, "join p1", &KernelCost::coalesced(1)).unwrap_err();
        assert!(err3.is_device_lost());
        let sched = sim.run();
        let log = g.fault_log(&sched).summary();
        assert!(log.device_lost);
        assert_eq!(log.retries, 0, "a lost device is never retried");
    }

    #[test]
    fn stalls_inflate_charged_time_deterministically() {
        let cfg = crate::faults::FaultConfig {
            stall_p: 1.0,
            stall_factor: 4.0,
            ..crate::faults::FaultConfig::disabled(4)
        };
        let run = |arm: bool| {
            let mut sim = Sim::new();
            let mut g = gpu(&mut sim);
            if arm {
                g.arm_faults(cfg.clone());
            }
            let mut s = g.stream();
            let op = g
                .copy_h2d(&mut sim, &mut s, "h2d r", 12_000_000_000, TransferKind::Pinned)
                .unwrap();
            let sched = sim.run();
            (sched.finish(op).as_secs_f64(), g.fault_log(&sched).summary().stalls)
        };
        let (clean, stalls_clean) = run(false);
        let (stalled, stalls) = run(true);
        assert_eq!(clean, 1.0);
        assert_eq!(stalled, 4.0, "stall factor 4 must charge 4x the transfer time");
        assert_eq!((stalls_clean, stalls), (0, 1));
    }

    #[test]
    fn faulted_attempt_stays_in_stream_order() {
        // A faulted op's partial work must still serialize the stream: the
        // retry starts only after the failed attempt (plus backoff).
        let (_, sim, op) = recovering_copy();
        let sched = sim.run();
        let final_start = sched.start(op);
        let recovery: Vec<_> = sched
            .spans()
            .iter()
            .filter(|sp| sp.label.contains("[fault]") || sp.label.contains("[backoff"))
            .collect();
        assert_eq!(recovery.len(), 4, "two faulted attempts, each followed by a backoff");
        for sp in recovery {
            assert!(sp.end <= final_start, "recovery work precedes the final attempt");
        }
        assert_eq!(sched.spans().last().map(|sp| sp.label.as_str()), Some("h2d r [retry 2]"));
    }

    #[test]
    fn counters_record_charged_work_at_launch_points() {
        let mut sim = Sim::new();
        let g = gpu(&mut sim);
        let mut s = g.stream();
        g.copy_h2d(&mut sim, &mut s, "h2d r", 1_000, TransferKind::Pinned).unwrap();
        g.copy_h2d(&mut sim, &mut s, "h2d s chunk0", 500, TransferKind::Pageable).unwrap();
        let cost = KernelCost::coalesced(3200);
        let shape =
            LaunchShape { blocks: 20, threads_per_block: 1024, shared_bytes_per_block: 1024 };
        g.kernel(&mut sim, &mut s, "join chunk0", cost.time(&g.spec), &cost, shape).unwrap();
        g.copy_d2h(&mut sim, &mut s, "d2h rows chunk0", 64, TransferKind::Pinned).unwrap();
        let sched = sim.run();
        let counters = g.counters();
        assert_eq!(counters.h2d.bytes, 1_500);
        assert_eq!(counters.h2d.pageable_bytes, 500);
        assert_eq!(counters.d2h.bytes, 64);
        let join = counters.kernel("join chunk0").expect("kernel recorded");
        assert_eq!(join.launches, 1);
        assert_eq!(join.cost, cost);
        assert_eq!(join.occupancy, Some(1.0));
        // The counter timeline resolves against the solved schedule.
        let tl = counters.counter_timeline(&sched);
        let json = hcj_sim::TraceExporter::new().timeline_to_json(&tl);
        assert!(json.contains("h2d GB/s"));
        assert!(json.contains("occupancy"));
    }

    #[test]
    fn counters_skip_faulted_attempts_and_count_success_once() {
        // A retried transfer records its payload exactly once, no matter
        // how many faulted attempts preceded success: counters reflect
        // useful charged work, so they are chaos-invariant for completed
        // runs.
        let (g, sim, _) = recovering_copy();
        let counters = g.counters();
        assert_eq!(counters.h2d.transfers, 1);
        assert_eq!(counters.h2d.bytes, 1_200_000_000);
        let sched = sim.run();
        let faulted = sched.spans().iter().filter(|sp| sp.label.contains("[fault]")).count();
        assert_eq!(faulted, 2, "the counted copy succeeded after two faulted attempts");
        assert_eq!(g.fault_log(&sched).summary().transfer_faults, 2);
    }

    #[test]
    fn wait_op_ties_to_host_work() {
        let mut sim = Sim::new();
        let cpu = sim.fifo_resource("cpu", 1.0, 1);
        let part = sim.op(Op::new(cpu, 2.0).label("cpu-partition"));
        let g = gpu(&mut sim);
        let mut s = g.stream();
        s.wait_op(part);
        let c = g.copy_h2d(&mut sim, &mut s, "copy", 1, TransferKind::Pinned).unwrap();
        let sched = sim.run();
        assert!(sched.start(c) >= sched.finish(part));
    }
}
