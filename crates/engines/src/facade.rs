//! The hcj engine facade: the paper's "customize the join algorithm based
//! on data location" planner (§IV intro, Fig. 15's adaptive behaviour).
//!
//! Given two host-resident relations, the planner estimates the device
//! working set of each strategy and picks:
//!
//! 1. the in-GPU partitioned join when inputs + partition pools fit device
//!    memory (data is loaded once and cached, the paper's warm protocol);
//! 2. the streamed-probe join when only the build side (plus its
//!    partitions and chunk buffers) fits;
//! 3. CPU–GPU co-processing otherwise.
//!
//! Each rung's estimate is its strategy's own footprint rule in `hcj-core`
//! ([`partitioned_footprint`], [`StreamedProbeConfig::footprint`],
//! [`CoProcessingConfig::footprint`]), the rule its `execute` reserves
//! by. Only the partition pools are modeled, at 1.3x each input, because
//! their real size depends on the keys. The plan is therefore an
//! *estimate*; when the chosen strategy reports a transient error at run
//! time (out-of-device-memory, or a device fault that survived bounded
//! retry) the engine degrades down the same ladder, exactly as the
//! paper's system "reverts into the streaming variant" when residency
//! fails (§V-C). Co-processing is the floor for out-of-memory: it models
//! nothing, and if even its buffers cannot be reserved the error
//! propagates to the caller (nothing panics). The multi-tenant service
//! layer in [`crate::service`] refuses at admission a request that no
//! remaining rung's estimate fits on its device (below about 48 B even
//! the floor does not), instead of backing it off forever.
//!
//! Two failures escape the ladder entirely and land on the CPU baseline
//! ([`PlannedStrategy::CpuFallback`], the PRO radix join): a sticky
//! device-lost fault (the GPU is gone for this context), and a transient
//! device fault that still fails after bounded retry at the
//! co-processing floor (the device is too unreliable to finish). Both
//! still return `Ok` with a correct join result — availability degrades
//! to CPU speed, not to an error.

use hcj_core::{
    partitioned_footprint, CoProcessingConfig, CoProcessingJoin, GpuJoinConfig, GpuPartitionedJoin,
    JoinOutcome, OutputMode, StreamedProbeConfig, StreamedProbeJoin,
};
use hcj_cpu_join::ProJoin;
use hcj_gpu::faults::{FaultEvent, FaultEventKind};
use hcj_gpu::JoinError;
use hcj_sim::{Op, Sim};
use hcj_workload::{build_is_left, Relation};

use crate::result::EngineResult;

/// Modeled partition pool per input byte. A pool's real size depends on
/// the keys (bucket slack, chain depth), which admission does not see, so
/// every estimate models each relation's pool at 1.3x its input; the
/// strategies' own footprint rules do the rest.
const POOL_FACTOR: f64 = 1.3;

/// The modeled partition pool of `bytes` of input.
fn modeled_pool(bytes: u64) -> u64 {
    (bytes as f64 * POOL_FACTOR) as u64
}

/// Headroom factor on a cross-device participant's estimated input share:
/// key partitioning never splits exactly `1/n`, so admission reserves 1.5x
/// the ideal slice on every participant (and the fleet planner only picks
/// a participant count whose padded share fits the smallest device).
pub const CROSS_DEVICE_SLACK: f64 = 1.5;

/// Which strategy the planner chose (or recovery forced).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlannedStrategy {
    /// Both relations fit device memory: partition + join entirely on-GPU.
    GpuResident,
    /// Build side fits, probe side streams over PCIe in chunks.
    StreamedProbe,
    /// The join overflows a single device: both sides are key-partitioned
    /// on the host and joined cooperatively by `n` fleet devices, shuffled
    /// over the modeled interconnect ([`crate::exchange`]). Planned only by
    /// the fleet planner ([`HcjEngine::plan_fleet_sized`]) — a
    /// single-device executor degrades it to [`Self::CoProcessing`] — and
    /// therefore, like [`Self::CpuFallback`], not on [`Self::LADDER`].
    CrossDevice(usize),
    /// Neither fits: host partitions, GPU joins co-partition chunks.
    CoProcessing,
    /// The GPU could not finish the join (device lost, or transient
    /// faults exhausted retry at the co-processing floor); the PRO CPU
    /// radix join ran instead. Never planned up front — only reached
    /// through fault recovery — and therefore not on [`Self::LADDER`].
    CpuFallback,
}

impl PlannedStrategy {
    /// The degradation ladder, most- to least-demanding of device memory.
    /// `CpuFallback` is deliberately absent: the planner never chooses it
    /// and out-of-memory never degrades into it; only device faults do.
    pub const LADDER: [PlannedStrategy; 3] = [
        PlannedStrategy::GpuResident,
        PlannedStrategy::StreamedProbe,
        PlannedStrategy::CoProcessing,
    ];

    /// Position on the degradation order: 0 = GPU-resident, 2 =
    /// co-processing, 3 = CPU fallback. A larger rank is a *more
    /// degraded* (less device-dependent) strategy.
    pub fn rank(self) -> usize {
        match self {
            PlannedStrategy::GpuResident => 0,
            // Cross-device joins share the streamed rung's rank: per
            // participating device they are about as demanding, and their
            // degradation target (`rank + 1` on the ladder) is the
            // single-device co-processing floor.
            PlannedStrategy::StreamedProbe | PlannedStrategy::CrossDevice(_) => 1,
            PlannedStrategy::CoProcessing => 2,
            PlannedStrategy::CpuFallback => 3,
        }
    }

    /// The next strategy down the ladder; `None` at the co-processing
    /// floor. Each step strictly increases [`rank`](Self::rank), so any
    /// escalation loop terminates after at most two steps.
    pub fn degraded(self) -> Option<PlannedStrategy> {
        Self::LADDER.get(self.rank() + 1).copied()
    }
}

impl std::fmt::Display for PlannedStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            PlannedStrategy::GpuResident => "gpu-resident",
            PlannedStrategy::StreamedProbe => "streamed-probe",
            PlannedStrategy::CrossDevice(_) => "cross-device",
            PlannedStrategy::CoProcessing => "co-processing",
            PlannedStrategy::CpuFallback => "cpu-fallback",
        };
        f.write_str(name)
    }
}

/// The paper's engine: planner + the strategy family of `hcj-core`.
#[derive(Clone, Debug)]
pub struct HcjEngine {
    /// Join configuration (device, radix bits, bucket tuning) every
    /// strategy shares.
    pub config: GpuJoinConfig,
}

impl HcjEngine {
    /// An engine running every strategy with `config`.
    pub fn new(config: GpuJoinConfig) -> Self {
        HcjEngine { config }
    }

    fn streamed_config(&self) -> StreamedProbeConfig {
        StreamedProbeConfig::paper_default(self.config.clone())
    }

    fn coprocessing_config(&self) -> CoProcessingConfig {
        CoProcessingConfig::paper_default(self.config.clone())
    }

    /// Estimated peak device-memory footprint of running `strategy` with a
    /// build side of `build_bytes` against a probe side of `probe_bytes`:
    /// the strategy's own footprint in `hcj-core`, with modeled partition
    /// pools and no result rows (a join's result size is unknown until it
    /// runs; aggregation keeps none on the device). This is the quantity
    /// admission control reserves before dispatch, and
    /// [`plan`](Self::plan) is exactly "the highest-ranked strategy whose
    /// estimate fits the device".
    pub fn footprint_estimate_sized(
        &self,
        strategy: PlannedStrategy,
        build_bytes: u64,
        probe_bytes: u64,
    ) -> u64 {
        match strategy {
            PlannedStrategy::GpuResident => {
                partitioned_footprint(&self.config, modeled_pool(build_bytes + probe_bytes), 0)
            }
            PlannedStrategy::StreamedProbe => {
                self.streamed_config().footprint(build_bytes, modeled_pool(build_bytes))
            }
            PlannedStrategy::CoProcessing => self.coprocessing_config().footprint(probe_bytes),
            // One participating device's share of a cross-device exchange
            // join: admission reserves this envelope on *each* of the `n`
            // participants. The slack factor covers partition-assignment
            // imbalance (skewed keys never split perfectly `1/n`).
            PlannedStrategy::CrossDevice(n) => self
                .cross_device_share(build_bytes, probe_bytes, n)
                .min(self.config.device.device_mem_bytes),
            // The CPU fallback touches no device memory at all.
            PlannedStrategy::CpuFallback => 0,
        }
    }

    /// Estimated per-participant device footprint of a cross-device join
    /// split `n` ways (before the capacity clamp): each device holds its
    /// `1/n` slice of both inputs' modeled partition pools, times
    /// [`CROSS_DEVICE_SLACK`] for assignment imbalance.
    pub fn cross_device_share(&self, build_bytes: u64, probe_bytes: u64, n: usize) -> u64 {
        let n = n.max(1) as f64;
        ((build_bytes + probe_bytes) as f64 * POOL_FACTOR * CROSS_DEVICE_SLACK / n) as u64
    }

    /// Plan against a fleet of `devices` serving devices whose smallest
    /// capacity is `min_capacity`. When the single-device planner already
    /// keeps the join resident, a single device is strictly better (no
    /// exchange traffic); otherwise — the single-device footprint estimate
    /// overflowed — the smallest participant count whose per-device share
    /// is resident-sized on every participant wins, and the join becomes
    /// [`PlannedStrategy::CrossDevice`]. Falls back to the single-device
    /// plan when even `devices` ways cannot make the shares fit.
    pub fn plan_fleet_sized(
        &self,
        build_bytes: u64,
        probe_bytes: u64,
        devices: usize,
        min_capacity: u64,
    ) -> PlannedStrategy {
        let single = self.plan_sized(build_bytes, probe_bytes);
        if devices < 2 || single == PlannedStrategy::GpuResident {
            return single;
        }
        for n in 2..=devices {
            if self.cross_device_share(build_bytes, probe_bytes, n) <= min_capacity {
                return PlannedStrategy::CrossDevice(n);
            }
        }
        single
    }

    /// Estimated peak device footprint of probing an already resident
    /// cached build with `probe`: the hot path's footprint, the probe's
    /// modeled pool and no result rows — the cached table's own bytes are
    /// covered by the reservation its cache entry holds.
    pub fn cached_probe_estimate(&self, probe: &Relation) -> u64 {
        partitioned_footprint(&self.config, modeled_pool(probe.bytes()), 0)
    }

    /// Decide the strategy for the given input sizes (`r` is the build
    /// side; [`execute`](Self::execute) swaps so the smaller side builds).
    pub fn plan(&self, r: &Relation, s: &Relation) -> PlannedStrategy {
        self.plan_sized(r.bytes(), s.bytes())
    }

    /// [`plan`](Self::plan) from byte sizes alone (see
    /// [`footprint_estimate_sized`](Self::footprint_estimate_sized)); what
    /// plan admission uses for ops whose inputs are not yet materialized.
    pub fn plan_sized(&self, build_bytes: u64, probe_bytes: u64) -> PlannedStrategy {
        let capacity = self.config.device.device_mem_bytes;
        for strategy in [PlannedStrategy::GpuResident, PlannedStrategy::StreamedProbe] {
            if self.footprint_estimate_sized(strategy, build_bytes, probe_bytes) <= capacity {
                return strategy;
            }
        }
        PlannedStrategy::CoProcessing
    }

    /// Plan and execute; the smaller relation becomes the build side.
    ///
    /// The plan is an *estimate* (bucket-pool slack depends on the data);
    /// if the chosen strategy reports a transient error at run time the
    /// engine degrades to the next one down the ladder. Device-lost (and
    /// transient faults that survive retry at the co-processing floor)
    /// recover onto the CPU baseline instead. `Err` only when even
    /// co-processing cannot reserve its buffers, or on a fatal
    /// non-recoverable error.
    pub fn execute(
        &self,
        r: &Relation,
        s: &Relation,
    ) -> Result<(PlannedStrategy, JoinOutcome), JoinError> {
        let (build, probe) = if build_is_left(r, s) { (r, s) } else { (s, r) };
        self.execute_from(self.plan(build, probe), r, s)
    }

    /// Execute starting at `start` on the ladder (skipping the planner) and
    /// degrading on runtime transient errors. The service layer dispatches
    /// here after admission control has already (possibly) degraded the
    /// planned strategy under memory pressure. The check and any rows come
    /// back in `(r, s)` order, whichever side built.
    pub fn execute_from(
        &self,
        start: PlannedStrategy,
        r: &Relation,
        s: &Relation,
    ) -> Result<(PlannedStrategy, JoinOutcome), JoinError> {
        let r_builds = build_is_left(r, s);
        let (build, probe) = if r_builds { (r, s) } else { (s, r) };
        let (strategy, outcome) = self.execute_built(start, build, probe)?;
        Ok((strategy, in_caller_order(outcome, r_builds)))
    }

    /// [`execute_from`](Self::execute_from) on sides already oriented as
    /// `(build, probe)`; the outcome stays in that orientation.
    pub(crate) fn execute_built(
        &self,
        start: PlannedStrategy,
        build: &Relation,
        probe: &Relation,
    ) -> Result<(PlannedStrategy, JoinOutcome), JoinError> {
        let mut strategy = start;
        // A sticky device-lost caught on the way down. The failed attempt's
        // fault log dies with the attempt, so the loss is re-surfaced as a
        // synthetic log event on the recovery outcome — callers (the fleet
        // health machine above all) must be able to see that the device
        // died even though the join itself recovered onto the CPU.
        let mut lost: Option<FaultEvent> = None;
        loop {
            // A cross-device level reaching a single-device executor (CPU
            // lane, adopter with a one-device fleet) runs as the
            // co-processing floor: the exchange executor lives at the
            // fleet layer ([`crate::exchange`]), not here.
            if matches!(strategy, PlannedStrategy::CrossDevice(_)) {
                strategy = PlannedStrategy::CoProcessing;
            }
            let attempt = match strategy {
                PlannedStrategy::GpuResident => {
                    GpuPartitionedJoin::new(self.config.clone()).execute(build, probe)
                }
                PlannedStrategy::StreamedProbe => {
                    StreamedProbeJoin::new(self.streamed_config()).execute(build, probe)
                }
                PlannedStrategy::CoProcessing => {
                    CoProcessingJoin::new(self.coprocessing_config()).execute(build, probe)
                }
                PlannedStrategy::CrossDevice(_) => unreachable!("rewritten to co-processing above"),
                PlannedStrategy::CpuFallback => {
                    let mut outcome = self.cpu_fallback(build, probe);
                    if let Some(event) = lost.take() {
                        outcome.faults.events.push(event);
                    }
                    return Ok((strategy, outcome));
                }
            };
            match attempt {
                Ok(outcome) => return Ok((strategy, outcome)),
                Err(err) if err.is_device_lost() => {
                    // The GPU is gone for this context; only the CPU can
                    // still finish the join.
                    if let JoinError::Device(fault) = &err {
                        lost = Some(FaultEvent {
                            at: None,
                            site: fault.site,
                            kind: FaultEventKind::DeviceLost,
                            label: fault.label.clone(),
                        });
                    }
                    strategy = PlannedStrategy::CpuFallback;
                }
                Err(err) if err.is_transient() => match strategy.degraded() {
                    Some(next) => strategy = next,
                    // At the co-processing floor: out-of-memory means the
                    // *request* does not fit and must be re-queued by the
                    // caller (the service relies on this), but an
                    // exhausted-retry device fault means the *device* is
                    // unreliable — fall back to the CPU.
                    None if matches!(err, JoinError::Device(_)) => {
                        strategy = PlannedStrategy::CpuFallback;
                    }
                    None => return Err(err),
                },
                Err(err) => return Err(err),
            }
        }
    }

    /// The recovery floor: run the join on the CPU baseline (the PRO
    /// parallel radix join) and wrap its result as a [`JoinOutcome`] with
    /// a one-span schedule, so callers see the same shape they would from
    /// a GPU strategy.
    fn cpu_fallback(&self, build: &Relation, probe: &Relation) -> JoinOutcome {
        let mut pro = ProJoin::paper_default();
        pro.materialize = self.config.output == OutputMode::Materialize;
        let out = pro.execute(build, probe);
        let mut sim = Sim::new();
        let cpu = sim.fifo_resource("host cpu (fallback)", 1.0, 1);
        sim.op(Op::new(cpu, out.seconds).label("cpu fallback join"));
        let schedule = sim.run();
        JoinOutcome::new(out.check, out.rows, schedule, out.tuples_in)
    }

    /// Execute and wrap as an [`EngineResult`] for the engine comparisons.
    pub fn run(&self, r: &Relation, s: &Relation) -> Result<EngineResult, JoinError> {
        let (_, outcome) = self.execute(r, s)?;
        Ok(EngineResult {
            engine: "hcj (this paper)",
            check: outcome.check,
            seconds: outcome.total_seconds(),
            tuples_in: outcome.tuples_in,
        })
    }
}

/// An `outcome` of a join run as `(build, probe)`, in the caller's
/// `(r, s)` order: when `s` built, the payload sums and every row's payload
/// columns swap back.
pub(crate) fn in_caller_order(mut outcome: JoinOutcome, r_builds: bool) -> JoinOutcome {
    if !r_builds {
        let check = &mut outcome.check;
        std::mem::swap(&mut check.sum_r_payload, &mut check.sum_s_payload);
        for row in outcome.rows.iter_mut().flatten() {
            std::mem::swap(&mut row.1, &mut row.2);
        }
    }
    outcome
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hcj_gpu::DeviceSpec;
    use hcj_workload::generate::canonical_pair;
    use hcj_workload::oracle::JoinCheck;

    fn engine(scale: u64, tuples: usize, bits: u32) -> HcjEngine {
        let device = DeviceSpec::gtx1080().scaled_capacity(scale);
        HcjEngine::new(
            GpuJoinConfig::paper_default(device).with_radix_bits(bits).with_tuned_buckets(tuples),
        )
    }

    #[test]
    fn small_inputs_plan_gpu_resident() {
        let (r, s) = canonical_pair(10_000, 10_000, 101);
        let e = engine(1, 10_000, 8);
        assert_eq!(e.plan(&r, &s), PlannedStrategy::GpuResident);
        let (strategy, out) = e.execute(&r, &s).unwrap();
        assert_eq!(strategy, PlannedStrategy::GpuResident);
        assert_eq!(out.check, JoinCheck::compute(&r, &s));
    }

    #[test]
    fn big_probe_plans_streamed() {
        // Device 2 MB; R 80 KB, S 3.2 MB: R fits with pools, R+S does not.
        let (r, s) = canonical_pair(10_000, 400_000, 102);
        let e = engine(1 << 12, 10_000, 8);
        assert_eq!(e.plan(&r, &s), PlannedStrategy::StreamedProbe);
        let (strategy, out) = e.execute(&r, &s).unwrap();
        assert_eq!(strategy, PlannedStrategy::StreamedProbe);
        assert_eq!(out.check, JoinCheck::compute(&r, &s));
    }

    #[test]
    fn nothing_fits_plans_coprocessing() {
        // Device 256 KB; both sides ~1.6 MB.
        let (r, s) = canonical_pair(200_000, 200_000, 103);
        let e = engine(1 << 15, 200_000 / 16, 12);
        assert_eq!(e.plan(&r, &s), PlannedStrategy::CoProcessing);
        let (strategy, out) = e.execute(&r, &s).unwrap();
        assert_eq!(strategy, PlannedStrategy::CoProcessing);
        assert_eq!(out.check, JoinCheck::compute(&r, &s));
    }

    #[test]
    fn build_side_is_the_smaller_relation() {
        let (r, s) = canonical_pair(50_000, 5_000, 104);
        // r is larger here: the engine builds on s, and still reports the
        // check in the caller's (r, s) order.
        let e = engine(1, 5_000, 8);
        let (_, out) = e.execute(&r, &s).unwrap();
        assert_eq!(out.check, JoinCheck::compute(&r, &s));
    }

    /// A 6,000-tuple `r` and a 2,000-tuple `s` whose payloads do not
    /// follow their keys, so a check or row reported in build order
    /// differs from one in `(r, s)` order.
    pub(crate) fn larger_r_with_free_payloads() -> (Relation, Relation) {
        let r =
            Relation::from_columns((0..6_000).collect(), (0..6_000).map(|k| k * 3 + 1).collect());
        let s_keys: Vec<u32> = (0..2_000).map(|i| (i * 7) % 6_000).collect();
        let s_payloads = s_keys.iter().map(|k| k ^ 0x5A5A).collect();
        (r, Relation::from_columns(s_keys, s_payloads))
    }

    #[test]
    fn every_rung_reports_in_the_callers_order_when_s_builds() {
        use hcj_workload::oracle::assert_join_matches;
        let (r, s) = larger_r_with_free_payloads();
        let expected = JoinCheck::compute(&r, &s);
        assert_ne!(expected, JoinCheck::compute(&s, &r), "premise: the orders differ");
        let e = engine(1, 6_000, 8);
        for output in [OutputMode::Aggregate, OutputMode::Materialize] {
            let e = HcjEngine::new(e.config.clone().with_output(output));
            for rung in [
                PlannedStrategy::GpuResident,
                PlannedStrategy::StreamedProbe,
                PlannedStrategy::CoProcessing,
                PlannedStrategy::CpuFallback,
            ] {
                let (strategy, out) = e.execute_from(rung, &r, &s).unwrap();
                assert_eq!(strategy, rung, "{output:?}");
                assert_eq!(out.check, expected, "{rung} {output:?}");
                if output == OutputMode::Materialize {
                    assert_join_matches(&r, &s, out.rows.as_deref().expect("materialized rows"));
                }
            }
        }
    }

    #[test]
    fn ladder_descends_and_terminates() {
        assert_eq!(PlannedStrategy::GpuResident.degraded(), Some(PlannedStrategy::StreamedProbe));
        assert_eq!(PlannedStrategy::StreamedProbe.degraded(), Some(PlannedStrategy::CoProcessing));
        assert_eq!(PlannedStrategy::CoProcessing.degraded(), None);
        for s in PlannedStrategy::LADDER {
            if let Some(next) = s.degraded() {
                assert!(next.rank() > s.rank(), "degrading must strictly descend");
            }
        }
        // The CPU fallback is the most degraded state but never a ladder
        // step: out-of-memory alone must not reach it.
        assert!(!PlannedStrategy::LADDER.contains(&PlannedStrategy::CpuFallback));
        assert_eq!(PlannedStrategy::CpuFallback.rank(), 3);
        assert_eq!(PlannedStrategy::CpuFallback.degraded(), None);
        // Cross-device is off-ladder too, and degrades onto the
        // single-device co-processing floor when the fleet can't host it.
        assert!(!PlannedStrategy::LADDER.contains(&PlannedStrategy::CrossDevice(2)));
        assert_eq!(PlannedStrategy::CrossDevice(3).degraded(), Some(PlannedStrategy::CoProcessing));
        assert!(
            PlannedStrategy::CoProcessing.rank() > PlannedStrategy::CrossDevice(3).rank(),
            "degrading a cross-device join still strictly descends"
        );
    }

    #[test]
    fn fleet_planner_goes_cross_device_only_on_single_device_overflow() {
        let e = engine(1 << 14, 10_000, 8); // 512 KB device
        let cap = e.config.device.device_mem_bytes;
        // Small join: resident on one device, no exchange.
        assert_eq!(e.plan_fleet_sized(10_000, 20_000, 4, cap), PlannedStrategy::GpuResident);
        // Overflows one device, fits split 2 ways: smallest n wins.
        let (b, p) = (300_000u64, 300_000u64);
        assert_ne!(e.plan_sized(b, p), PlannedStrategy::GpuResident, "premise: overflows");
        let plan = e.plan_fleet_sized(b, p, 4, cap);
        match plan {
            PlannedStrategy::CrossDevice(n) => {
                assert!((2..=4).contains(&n));
                assert!(e.cross_device_share(b, p, n) <= cap, "chosen share fits");
                if n > 2 {
                    assert!(e.cross_device_share(b, p, n - 1) > cap, "n is minimal");
                }
                assert_eq!(e.footprint_estimate_sized(plan, b, p), e.cross_device_share(b, p, n));
            }
            other => panic!("expected a cross-device plan, got {other}"),
        }
        // A 1-device fleet can never exchange.
        assert_eq!(e.plan_fleet_sized(b, p, 1, cap), e.plan_sized(b, p));
        // Too big even for the whole fleet: the single-device plan stands.
        let huge = 100 * cap;
        assert_eq!(e.plan_fleet_sized(huge, huge, 4, cap), e.plan_sized(huge, huge));
    }

    #[test]
    fn device_lost_falls_back_to_cpu_and_stays_correct() {
        use hcj_gpu::FaultConfig;
        let (r, s) = canonical_pair(10_000, 10_000, 106);
        let mut e = engine(1, 10_000, 8);
        // Certain device loss on the very first kernel of every strategy
        // (device_lost_p is conditional on a kernel fault).
        let cfg =
            FaultConfig { kernel_fault_p: 1.0, device_lost_p: 1.0, ..FaultConfig::disabled(1) };
        e.config = e.config.with_faults(cfg);
        let (strategy, out) = e.execute(&r, &s).unwrap();
        assert_eq!(strategy, PlannedStrategy::CpuFallback);
        assert_eq!(out.check, JoinCheck::compute(&r, &s));
        assert!(out.total_seconds() > 0.0);
        assert_eq!(out.device_peak, 0, "the CPU holds no device memory");
    }

    #[test]
    fn device_lost_is_surfaced_on_the_recovery_outcome() {
        use hcj_gpu::faults::FaultEventKind;
        use hcj_gpu::FaultConfig;
        let (r, s) = canonical_pair(10_000, 10_000, 106);
        let mut e = engine(1, 10_000, 8);
        let cfg =
            FaultConfig { kernel_fault_p: 1.0, device_lost_p: 1.0, ..FaultConfig::disabled(1) };
        e.config = e.config.with_faults(cfg);
        let (strategy, out) = e.execute(&r, &s).unwrap();
        // The join recovered onto the CPU, but the loss is observable on
        // the outcome's fault log — the fleet health machine depends on it.
        assert_eq!(strategy, PlannedStrategy::CpuFallback);
        assert!(out.faults.summary().device_lost);
        assert_eq!(
            out.faults.events.iter().filter(|e| e.kind == FaultEventKind::DeviceLost).count(),
            1
        );
    }

    #[test]
    fn persistent_transient_faults_exhaust_the_ladder_onto_the_cpu() {
        use hcj_gpu::FaultConfig;
        let (r, s) = canonical_pair(10_000, 10_000, 107);
        let mut e = engine(1, 10_000, 8);
        // Every transfer and kernel faults transiently, every time: each
        // strategy exhausts its bounded retries, the ladder runs out, and
        // the engine lands on the CPU with a correct result.
        let cfg =
            FaultConfig { transfer_fault_p: 1.0, kernel_fault_p: 1.0, ..FaultConfig::disabled(2) };
        e.config = e.config.with_faults(cfg);
        let (strategy, out) = e.execute(&r, &s).unwrap();
        assert_eq!(strategy, PlannedStrategy::CpuFallback);
        assert_eq!(out.check, JoinCheck::compute(&r, &s));
    }

    #[test]
    fn materializing_fallback_produces_rows() {
        use hcj_core::OutputMode;
        use hcj_gpu::FaultConfig;
        use hcj_workload::oracle::assert_join_matches;
        let (r, s) = canonical_pair(5_000, 5_000, 108);
        let mut e = engine(1, 5_000, 8);
        e.config = e.config.with_output(OutputMode::Materialize).with_faults(FaultConfig {
            kernel_fault_p: 1.0,
            device_lost_p: 1.0,
            ..FaultConfig::disabled(3)
        });
        let (strategy, out) = e.execute(&r, &s).unwrap();
        assert_eq!(strategy, PlannedStrategy::CpuFallback);
        assert_join_matches(&r, &s, out.rows.as_ref().unwrap());
    }

    #[test]
    fn planned_estimate_fits_capacity_unless_coprocessing() {
        let (r, s) = canonical_pair(10_000, 40_000, 105);
        let (b, p) = (r.bytes(), s.bytes());
        for scale_pow in 0..20u32 {
            let e = engine(1 << scale_pow, 10_000, 8);
            let capacity = e.config.device.device_mem_bytes;
            let plan = e.plan(&r, &s);
            if plan != PlannedStrategy::CoProcessing {
                assert!(
                    e.footprint_estimate_sized(plan, b, p) <= capacity,
                    "scale 2^{scale_pow}: chosen {plan} must fit its estimate"
                );
            }
            // The co-processing floor is admissible on an idle device of
            // these sizes (16 KB and up).
            assert!(e.footprint_estimate_sized(PlannedStrategy::CoProcessing, b, p) <= capacity);
        }
    }
}
