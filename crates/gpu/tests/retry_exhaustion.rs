//! Regression test for the retry-exhaustion branch of `Gpu::copy_h2d`.
//! A PR 5 review probe (`tmp_probe_review.rs`) poked this branch with an
//! unconditional `panic!` and was accidentally left in the tree, keeping
//! tier-1 red; this is the real, deterministic test it should have been:
//! under a near-certain per-attempt transfer fault the retry loop must use
//! up its [`MAX_ATTEMPTS`] and surface a *typed transient* [`JoinError`] —
//! never panic, never report success.

use hcj_gpu::faults::{FaultConfig, MAX_ATTEMPTS};
use hcj_gpu::spec::DeviceSpec;
use hcj_gpu::stream::{Gpu, TransferKind};
use hcj_gpu::{JoinError, KernelCost, LaunchShape};
use hcj_sim::Sim;

/// Seed pinned so the fault stream is reproducible: at
/// `transfer_fault_p = 0.9` every one of the 4 attempts faults for seed
/// 12, so the copy exhausts its retries.
#[test]
fn h2d_retry_exhaustion_is_a_typed_transient_error() {
    let cfg = FaultConfig { transfer_fault_p: 0.9, ..FaultConfig::disabled(12) };
    let mut sim = Sim::new();
    let mut g = Gpu::new(&mut sim, DeviceSpec::gtx1080());
    g.arm_faults(cfg);
    let mut s = g.stream();
    let err = g
        .copy_h2d(&mut sim, &mut s, "h2d r", 1_200_000_000, TransferKind::Pinned)
        .expect_err("expected retry exhaustion, got success");
    assert!(err.is_transient(), "exhaustion surfaces the last transient fault: {err}");
    assert!(!err.is_device_lost(), "a faulted transfer is not a lost device");
    assert_eq!(err.tag(), "device-fault");
    assert!(matches!(err, JoinError::Device(_)), "typed device-layer error: {err:?}");
    // The retry loop really ran: all `MAX_ATTEMPTS` tries are in the
    // fault log as transfer faults before the typed error came back.
    let schedule = sim.run();
    let faults = g.fault_log(&schedule).summary();
    assert_eq!(faults.transfer_faults, MAX_ATTEMPTS);
    assert_eq!(faults.retries, MAX_ATTEMPTS - 1);
}

/// A sticky device-lost must short-circuit every retrying op: the loss
/// is not a transient fault, so the retry loop must surface it on
/// the first attempt — never burn backoff attempts on a dead device, and
/// never misreport it as a retryable transfer/kernel fault.
#[test]
fn device_lost_is_sticky_across_retrying_attempts() {
    // Every kernel faults and every kernel fault is sticky: the first
    // launch kills the device.
    let cfg = FaultConfig { kernel_fault_p: 1.0, device_lost_p: 1.0, ..FaultConfig::disabled(5) };
    let mut sim = Sim::new();
    let mut g = Gpu::new(&mut sim, DeviceSpec::gtx1080());
    g.arm_faults(cfg);
    let mut s = g.stream();
    let err = g
        .kernel(&mut sim, &mut s, "join p0", 1e-3, &KernelCost::ZERO, LaunchShape::UNSHAPED)
        .expect_err("a lost device cannot run kernels");
    assert!(err.is_device_lost(), "the loss surfaces typed: {err}");
    assert!(!err.is_transient(), "device-lost must never be classed transient");
    assert_eq!(err.tag(), "device-lost");

    // Every later op — kernel or transfer — sees the same sticky loss
    // immediately, with zero retry attempts charged.
    let err2 = g
        .copy_h2d(&mut sim, &mut s, "h2d r", 1 << 20, TransferKind::Pinned)
        .expect_err("transfers to a lost device fail");
    assert!(err2.is_device_lost(), "stickiness survives across ops: {err2}");
    let err3 = g
        .kernel(&mut sim, &mut s, "join p1", 1e-3, &KernelCost::ZERO, LaunchShape::UNSHAPED)
        .expect_err("the device never comes back");
    assert!(err3.is_device_lost());

    // The fault log shows exactly one device-lost injection and *no*
    // retries: the loop never treated the loss as retryable, and the
    // already-lost ops were not even issued.
    let schedule = sim.run();
    let faults = g.fault_log(&schedule).summary();
    assert!(faults.device_lost);
    assert_eq!(faults.kernel_faults, 1, "one sticky injection, no re-draws");
    assert_eq!(faults.retries, 0, "a dead device must not be retried");
    assert_eq!(faults.transfer_faults, 0, "post-loss ops are not issued, not faulted");
}

/// Control: the identical copy with the fault layer disabled succeeds on
/// the first attempt — the exhaustion above is the fault stream's doing,
/// not a property of the transfer itself.
#[test]
fn same_copy_without_faults_succeeds_first_try() {
    let mut sim = Sim::new();
    let g = Gpu::new(&mut sim, DeviceSpec::gtx1080());
    let mut s = g.stream();
    g.copy_h2d(&mut sim, &mut s, "h2d r", 1_200_000_000, TransferKind::Pinned)
        .expect("unfaulted transfer succeeds");
    let schedule = sim.run();
    assert_eq!(schedule.spans().len(), 1, "one attempt, no backoff");
    assert!(g.fault_log(&schedule).is_empty());
}
