//! Discrete-event simulation engine used by the GPU and host hardware models.
//!
//! The join algorithms in this workspace execute *functionally* (they really
//! partition, build, probe and materialize), while the time they would take
//! on the paper's hardware is computed by this engine. A strategy describes
//! its execution as a DAG of [`Op`]s bound to [`ResourceId`]s (PCIe links, DMA
//! engines, GPU compute, socket memory buses, CPU threads); the engine then
//! solves the schedule: every operation starts when its dependencies finish
//! and its resource admits it, and runs at a rate determined by the
//! resource's sharing discipline.
//!
//! Two disciplines are supported:
//!
//! * **FIFO** resources ([`Sim::fifo_resource`]) serve up to `lanes`
//!   operations concurrently, each at the full rate. A DMA copy engine is a
//!   1-lane FIFO; the GPU compute engine is a 1-lane FIFO (one grid at a
//!   time, which matches how the paper's kernels saturate the device).
//! * **Shared** resources ([`Sim::shared_resource`]) divide their rate
//!   evenly among all concurrently running operations (processor sharing).
//!   This models memory buses: a socket's DRAM bandwidth is split between
//!   partitioning threads and DMA reads, which is exactly the interference
//!   the paper works around in §IV-B. An optional *contention factor*
//!   degrades the total rate while operations of different [`Op::class`]es
//!   overlap, modeling cache-coherence traffic on QPI (paper Fig. 16).
//!
//! The result of [`Sim::run`] is a [`Schedule`]: per-op start/finish spans on
//! a virtual clock plus analysis helpers (makespan, per-resource busy time,
//! overlap between phases) that the tests use to assert that pipelines
//! actually overlap transfers with execution.
//!
//! ```
//! use hcj_sim::{Sim, Op};
//!
//! let mut sim = Sim::new();
//! let pcie = sim.fifo_resource("pcie-h2d", 12.0e9, 1); // 12 GB/s, one DMA engine
//! let gpu = sim.fifo_resource("gpu", 1.0, 1);          // rate 1.0: work given in seconds
//!
//! // Double-buffered pipeline: copy chunk k, then process it while chunk k+1 copies.
//! let c0 = sim.op(Op::new(pcie, 1.2e9).label("copy-0"));
//! let k0 = sim.op(Op::new(gpu, 0.05).label("join-0").after(c0));
//! let c1 = sim.op(Op::new(pcie, 1.2e9).label("copy-1").after(c0));
//! let k1 = sim.op(Op::new(gpu, 0.05).label("join-1").after(c1).after(k0));
//! let schedule = sim.run();
//! assert!(schedule.finish(k1) > schedule.finish(c1));
//! // The two copies run back-to-back; join-0 overlaps copy-1 entirely.
//! assert_eq!(schedule.start(c1), schedule.finish(c0));
//! ```

pub mod baseline;
mod engine;
pub mod json;
mod op;
mod resource;
mod schedule;
mod time;
pub mod trace;
pub mod validate;

pub use engine::Sim;
pub use op::{Op, OpId};
pub use resource::{ResourceId, ResourceKind};
pub use schedule::{RateSegment, ResourceMeta, Schedule, Span};
pub use time::SimTime;
pub use trace::{CounterId, Timeline, TimelineSpan, TraceExporter, TrackId};
pub use validate::{Invariant, ScheduleValidator, ValidationError, Violation};

/// Convenience: bytes-per-second rate from GB/s (decimal gigabytes).
pub const fn gbps(x: f64) -> f64 {
    // `const fn` floating multiplication is stable.
    x * 1.0e9
}

/// Convenience: mebibytes to bytes, as f64 work units.
pub const fn mib(x: f64) -> f64 {
    x * (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gbps_and_mib_scale() {
        assert_eq!(gbps(12.0), 12.0e9);
        assert_eq!(mib(1.0), 1048576.0);
    }
}
