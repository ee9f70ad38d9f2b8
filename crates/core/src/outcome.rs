//! Results of a join execution: correctness artifacts plus the solved
//! timeline and the throughput metrics the paper reports.

use hcj_gpu::{CounterSet, FaultLog, Gpu};
use hcj_sim::{Schedule, Sim, SimTime};
use hcj_workload::oracle::{JoinCheck, JoinRow};

use crate::config::OutputMode;
use crate::output::OutputSink;

/// Phases of a join execution, recognized by span-label prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// GPU partitioning passes (`part`).
    GpuPartition,
    /// Per-co-partition join kernels (`join`).
    Join,
    /// Host→device transfers (`h2d`).
    TransferIn,
    /// Device→host transfers (`d2h`).
    TransferOut,
    /// CPU-side partitioning (`cpu`).
    CpuPartition,
    /// NUMA staging copies (`stage`).
    Staging,
}

impl Phase {
    /// The label prefix strategies use for this phase's spans.
    pub fn prefix(self) -> &'static str {
        match self {
            Phase::GpuPartition => "part",
            Phase::Join => "join",
            Phase::TransferIn => "h2d",
            Phase::TransferOut => "d2h",
            Phase::CpuPartition => "cpu",
            Phase::Staging => "stage",
        }
    }

    pub const ALL: [Phase; 6] = [
        Phase::GpuPartition,
        Phase::Join,
        Phase::TransferIn,
        Phase::TransferOut,
        Phase::CpuPartition,
        Phase::Staging,
    ];
}

/// Summed span durations per phase (durations, not wall-clock union:
/// overlapped pipeline phases can sum past the makespan).
#[derive(Clone, Debug, Default)]
pub struct PhaseBreakdown {
    times: [SimTime; 6],
    pub makespan: SimTime,
}

impl PhaseBreakdown {
    pub fn from_schedule(schedule: &Schedule) -> Self {
        let mut b = PhaseBreakdown { times: [SimTime::ZERO; 6], makespan: schedule.makespan() };
        for (i, phase) in Phase::ALL.iter().enumerate() {
            b.times[i] = schedule.total_time_labeled(phase.prefix());
        }
        b
    }

    pub fn time(&self, phase: Phase) -> SimTime {
        let idx = Phase::ALL.iter().position(|p| *p == phase).expect("phase in ALL");
        self.times[idx]
    }
}

/// The complete result of executing one join strategy.
#[derive(Debug)]
pub struct JoinOutcome {
    /// Aggregate summary of the matches (always computed; compare against
    /// [`JoinCheck::compute`]).
    pub check: JoinCheck,
    /// Materialized rows when the strategy ran in materialization mode.
    pub rows: Option<Vec<JoinRow>>,
    /// The solved execution timeline.
    pub schedule: Schedule,
    /// `|R| + |S|`: the paper's throughput denominator counts both inputs.
    pub tuples_in: u64,
    pub phases: PhaseBreakdown,
    /// Every injected fault, retry and capacity-shrink event, stamped with
    /// virtual time. Empty unless the execution ran with faults armed.
    pub faults: FaultLog,
    /// Simulated hardware counters accumulated at every charge point
    /// (kernel launches, DMA copies); see [`hcj_gpu::counters`]. Empty for
    /// strategies that never touch a simulated device (CPU fallback).
    pub counters: CounterSet,
    /// The execution's own high-water mark of reserved device bytes
    /// (bytes a capacity-shrink fault steals count too); 0 for strategies
    /// that never touch a simulated device (CPU fallback).
    pub device_peak: u64,
}

impl JoinOutcome {
    pub fn new(
        check: JoinCheck,
        rows: Option<Vec<JoinRow>>,
        schedule: Schedule,
        tuples_in: u64,
    ) -> Self {
        let phases = PhaseBreakdown::from_schedule(&schedule);
        JoinOutcome {
            check,
            rows,
            schedule,
            tuples_in,
            phases,
            faults: FaultLog::default(),
            counters: CounterSet::default(),
            device_peak: 0,
        }
    }

    /// The shared end of every strategy that issues work on a `Gpu`:
    /// solve `sim`, then package `gpu`'s fault log, counters and peak
    /// device bytes with `sink`'s check and, when it materializes, its
    /// rows.
    pub(crate) fn finish(sim: Sim, gpu: &Gpu, sink: OutputSink, tuples_in: u64) -> Self {
        let schedule = sim.run();
        let faults = gpu.fault_log(&schedule);
        let counters = gpu.counters();
        let check = sink.check();
        let rows = match sink.mode() {
            OutputMode::Materialize => Some(sink.into_rows()),
            OutputMode::Aggregate => None,
        };
        JoinOutcome {
            faults,
            counters,
            device_peak: gpu.mem.peak(),
            ..JoinOutcome::new(check, rows, schedule, tuples_in)
        }
    }

    /// End-to-end simulated seconds.
    pub fn total_seconds(&self) -> f64 {
        self.schedule.makespan().as_secs_f64()
    }

    /// The paper's headline metric: `(|R| + |S|) / runtime`, tuples/second.
    pub fn throughput_tuples_per_s(&self) -> f64 {
        self.tuples_in as f64 / self.total_seconds()
    }

    /// Throughput of the co-partition join phase alone (the "join
    /// co-partitions" series of Figs. 5–6).
    pub fn join_phase_throughput(&self) -> f64 {
        let t = self.phases.time(Phase::Join).as_secs_f64();
        if t == 0.0 {
            f64::INFINITY
        } else {
            self.tuples_in as f64 / t
        }
    }

    /// End-to-end throughput in GB/s of input bytes (Fig. 16's metric),
    /// with 8-byte tuples.
    pub fn throughput_gbps(&self) -> f64 {
        self.tuples_in as f64 * 8.0 / self.total_seconds() / 1e9
    }

    /// Per-resource utilization over the makespan: `(name, busy fraction)`
    /// for every resource that saw work, sorted by utilization. This is
    /// how the pipelined strategies demonstrate the paper's saturation
    /// claims ("the transfer unit will always be busy", §IV-A).
    pub fn resource_report(&self) -> Vec<(String, f64)> {
        let mut resources: Vec<hcj_sim::ResourceId> =
            self.schedule.spans().iter().filter_map(|sp| sp.resource).collect();
        resources.sort_unstable();
        resources.dedup();
        let mut report: Vec<(String, f64)> = resources
            .into_iter()
            .map(|r| (self.schedule.resource_name(r).to_string(), self.schedule.utilization(r)))
            .collect();
        report.sort_by(|a, b| b.1.total_cmp(&a.1));
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcj_sim::{Op, Sim};

    fn schedule_with_phases() -> Schedule {
        let mut sim = Sim::new();
        let r = sim.fifo_resource("r", 1.0, 4);
        sim.op(Op::new(r, 1.0).label("part pass0"));
        sim.op(Op::new(r, 2.0).label("join copartitions"));
        sim.op(Op::new(r, 0.5).label("h2d chunk0"));
        sim.op(Op::new(r, 0.25).label("cpu partition c0"));
        sim.run()
    }

    #[test]
    fn breakdown_groups_by_prefix() {
        let s = schedule_with_phases();
        let b = PhaseBreakdown::from_schedule(&s);
        assert_eq!(b.time(Phase::GpuPartition).as_secs_f64(), 1.0);
        assert_eq!(b.time(Phase::Join).as_secs_f64(), 2.0);
        assert_eq!(b.time(Phase::TransferIn).as_secs_f64(), 0.5);
        assert_eq!(b.time(Phase::CpuPartition).as_secs_f64(), 0.25);
        assert_eq!(b.time(Phase::TransferOut).as_secs_f64(), 0.0);
    }

    #[test]
    fn outcome_metrics() {
        let s = schedule_with_phases();
        let check = JoinCheck { matches: 10, sum_r_payload: 1, sum_s_payload: 2 };
        let o = JoinOutcome::new(check, None, s, 4_000_000);
        assert_eq!(o.total_seconds(), 2.0); // 4 lanes: makespan = longest op
        assert_eq!(o.throughput_tuples_per_s(), 2_000_000.0);
        assert_eq!(o.join_phase_throughput(), 2_000_000.0);
        assert!((o.throughput_gbps() - 0.016).abs() < 1e-12);
    }

    #[test]
    fn resource_report_sorts_by_utilization() {
        let mut sim = Sim::new();
        let busy = sim.fifo_resource("busy", 1.0, 1);
        let idle = sim.fifo_resource("idle", 1.0, 1);
        sim.op(Op::new(busy, 4.0).label("work"));
        sim.op(Op::new(idle, 1.0).label("blip"));
        let s = sim.run();
        let check = JoinCheck { matches: 0, sum_r_payload: 0, sum_s_payload: 0 };
        let o = JoinOutcome::new(check, None, s, 1);
        let report = o.resource_report();
        assert_eq!(report.len(), 2);
        assert_eq!(report[0].0, "busy");
        assert!((report[0].1 - 1.0).abs() < 1e-9);
        assert!((report[1].1 - 0.25).abs() < 1e-9);
    }

    #[test]
    fn missing_join_phase_reports_infinite() {
        let mut sim = Sim::new();
        let r = sim.fifo_resource("r", 1.0, 1);
        sim.op(Op::new(r, 1.0).label("h2d only"));
        let s = sim.run();
        let check = JoinCheck { matches: 0, sum_r_payload: 0, sum_s_payload: 0 };
        let o = JoinOutcome::new(check, None, s, 100);
        assert!(o.join_phase_throughput().is_infinite());
    }
}
