//! Integration: the facade's runtime escalation loop — what happens when
//! the planner's estimate is wrong and the chosen strategy reports
//! out-of-device-memory *during* execution (paper §V-C: the system
//! "reverts into the streaming variant" when residency fails).
//!
//! Admission models partition pools, so its estimate can be optimistic.
//! The tests start the ladder above what fits with `execute_from`, as
//! admission does on an optimistic estimate, so the strategies' real
//! reservations fail at run time, exercising every edge of the
//! degradation ladder.

use hashjoin_gpu::prelude::*;

fn engine(scale: u64, tuples: usize) -> HcjEngine {
    let device = DeviceSpec::gtx1080().scaled_capacity(scale);
    HcjEngine::new(
        GpuJoinConfig::paper_default(device).with_radix_bits(10).with_tuned_buckets(tuples / 8),
    )
}

/// Regression for the old `.expect()` panic in the co-processing arm: on
/// an absurdly tiny device even the co-processing floor cannot reserve
/// its chunk buffers, and the engine must report the error, not panic.
#[test]
fn coprocessing_floor_oom_propagates_instead_of_panicking() {
    // 8 GB / 2^30 = 8 bytes of device memory: nothing can reserve.
    let engine = engine(1 << 30, 4_000);
    let (r, s) = canonical_pair(4_000, 8_000, 3001);
    let err = engine.execute(&r, &s).unwrap_err();
    let JoinError::OutOfDeviceMemory(oom) = &err else {
        panic!("expected a typed OOM, got {err:?}");
    };
    assert!(oom.requested > oom.capacity, "{err}");
    assert_eq!(oom.capacity, 8);
    // OOM is transient: the service's admission loop may retry it later.
    assert!(err.is_transient());
    // The Display form is the service layer's log line; keep it stable.
    assert!(err.to_string().contains("out of device memory"));
}

/// Edge 1 of the ladder: the join starts GPU-resident, the resident join
/// OOMs at run time, and the engine lands on the streamed probe with a
/// correct result.
#[test]
fn optimistic_resident_plan_escalates_to_streamed() {
    // Device 2 MB. R 80 KB + S 3.2 MB: residency is impossible (inputs
    // alone exceed capacity), while R's partitions and chunk buffers fit.
    let engine = engine(1 << 12, 10_000);
    let (r, s) = canonical_pair(10_000, 400_000, 3002);
    let (strategy, out) = engine.execute_from(PlannedStrategy::GpuResident, &r, &s).unwrap();
    assert_eq!(strategy, PlannedStrategy::StreamedProbe, "must degrade exactly one rung");
    assert_eq!(out.check, JoinCheck::compute(&r, &s));
}

/// Edge 2: the join starts GPU-resident, both the resident join *and* the
/// streamed probe OOM at run time, and the engine walks the whole ladder
/// down to co-processing — still correct.
#[test]
fn optimistic_resident_plan_escalates_to_coprocessing() {
    // Device 256 KB. Both sides 1.6 MB: the build side alone dwarfs the
    // device, so residency and streaming both fail; co-processing chunks
    // through.
    let engine = engine(1 << 15, 200_000);
    let (r, s) = canonical_pair(200_000, 200_000, 3003);
    let (strategy, out) = engine.execute_from(PlannedStrategy::GpuResident, &r, &s).unwrap();
    assert_eq!(strategy, PlannedStrategy::CoProcessing, "must walk both rungs");
    assert_eq!(out.check, JoinCheck::compute(&r, &s));
}

/// Edge 3: the join starts as a streamed probe, the stream's build-side
/// residency OOMs at run time, and the engine lands on co-processing.
#[test]
fn streamed_plan_escalates_to_coprocessing() {
    // Device 256 KB, build side 128 KB, probe side 3.2 MB: the build's
    // real partitions + chunk buffers need ~384 KB, the reservation
    // fails, and co-processing takes over.
    let engine = engine(1 << 15, 16_000);
    let (r, s) = canonical_pair(16_000, 400_000, 3004);
    let (strategy, out) = engine.execute_from(PlannedStrategy::StreamedProbe, &r, &s).unwrap();
    assert_eq!(strategy, PlannedStrategy::CoProcessing);
    assert_eq!(out.check, JoinCheck::compute(&r, &s));
}

/// `execute_from` lets a caller (the service's admission control) start
/// anywhere on the ladder; starting below the plan must not re-escalate
/// upward.
#[test]
fn execute_from_respects_a_degraded_start() {
    let device = DeviceSpec::gtx1080(); // full 8 GB: everything fits
    let engine = HcjEngine::new(
        GpuJoinConfig::paper_default(device).with_radix_bits(8).with_tuned_buckets(2_000),
    );
    let (r, s) = canonical_pair(8_000, 16_000, 3005);
    assert_eq!(engine.plan(&r, &s), PlannedStrategy::GpuResident);
    for start in PlannedStrategy::LADDER {
        let (strategy, out) = engine.execute_from(start, &r, &s).unwrap();
        assert_eq!(strategy, start, "an admissible start must run as-is");
        assert_eq!(out.check, JoinCheck::compute(&r, &s), "start {start}");
    }
}
