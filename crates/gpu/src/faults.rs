//! Deterministic fault injection for the simulated device.
//!
//! A [`FaultPlan`] is a seeded source of device misbehaviour: transient
//! PCIe transfer failures, ECC-style kernel faults (transient or sticky
//! device-lost), slow-device stalls that inflate charged time, and
//! capacity-shrink events where a co-tenant steals device bytes mid-run.
//! The plan is consulted once per issued operation, in issue order; since
//! simulation construction is single-threaded, the whole fault sequence is
//! a pure function of the seed and the op stream — runs are byte-identical
//! across repetitions and `--jobs` settings.
//!
//! Faults are drawn from the same xoshiro256** generator family as
//! `hcj_workload::rng` (vendored here: this crate sits below the workload
//! layer). Injection sites live in [`crate::stream::Gpu`] (ops) and
//! [`crate::memory::DeviceMemory`] (allocations). `Gpu` retries a transient
//! op fault up to [`MAX_ATTEMPTS`] attempts in all; every other recovery
//! lives in the layers above.

use std::fmt;
use std::sync::{Arc, Mutex};

use hcj_sim::{OpId, Schedule, SimTime};

/// xoshiro256** seeded via splitmix64 — the same generator family as
/// `hcj_workload::rng::SmallRng`, vendored because `hcj-gpu` sits below
/// the workload crate in the dependency stack.
#[derive(Clone, Debug)]
pub struct FaultRng {
    s: [u64; 4],
}

impl FaultRng {
    /// Seed the generator state via splitmix64, like the reference.
    pub fn seed_from_u64(seed: u64) -> Self {
        FaultRng { s: [0u64, 1, 2, 3].map(|k| mix64(seed.wrapping_add(k.wrapping_mul(GAMMA)))) }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The splitmix64 increment.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One splitmix64 step: add `GAMMA`, then finalize. This crate's copy of
/// `hcj_workload::rng::mix64`, which sits above it in the stack.
fn mix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Where in the device a fault was injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// Host→device DMA transfer.
    H2D,
    /// Device→host DMA transfer.
    D2H,
    /// Kernel execution on the compute engine.
    Kernel,
    /// Device-memory allocation / reservation.
    Alloc,
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultSite::H2D => "h2d",
            FaultSite::D2H => "d2h",
            FaultSite::Kernel => "kernel",
            FaultSite::Alloc => "alloc",
        })
    }
}

/// How badly an operation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// ECC-style transient: the op failed but the device is healthy; a
    /// retry of the same op may succeed.
    Transient,
    /// Sticky device-lost: the device is gone; every subsequent operation
    /// fails until the context is torn down. Recovery means falling back
    /// to the CPU baselines.
    DeviceLost,
}

/// A device-layer failure: the typed payload of
/// [`JoinError::Device`](crate::error::JoinError::Device).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeviceFault {
    /// Where the fault was injected.
    pub site: FaultSite,
    /// Transient or sticky device-lost.
    pub kind: FaultKind,
    /// Label of the operation that failed.
    pub label: String,
}

impl fmt::Display for DeviceFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            FaultKind::Transient => {
                write!(f, "transient {} fault in `{}`", self.site, self.label)
            }
            FaultKind::DeviceLost => write!(f, "device lost during {} `{}`", self.site, self.label),
        }
    }
}

impl std::error::Error for DeviceFault {}

/// Per-site fault probabilities and magnitudes, all drawn from one seed.
/// Probabilities are per *issued operation* (or per allocation for
/// `shrink_p`), so longer pipelines see proportionally more faults.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Seed of the fault stream; same seed + same op order = same faults.
    pub seed: u64,
    /// P(an H2D/D2H transfer fails in flight) — transient, retryable.
    pub transfer_fault_p: f64,
    /// P(a kernel launch hits an ECC-style fault).
    pub kernel_fault_p: f64,
    /// P(a kernel fault is sticky device-lost | kernel fault).
    pub device_lost_p: f64,
    /// P(any op is stalled: charged `stall_factor`× its normal time).
    pub stall_p: f64,
    /// Work multiplier for stalled ops (> 1).
    pub stall_factor: f64,
    /// P(a co-tenant steals device bytes | allocation attempt).
    pub shrink_p: f64,
    /// Fraction of the currently-free bytes a shrink event steals.
    pub shrink_fraction: f64,
}

impl FaultConfig {
    /// The chaos preset used by `serve --chaos SEED` / `repro --chaos
    /// SEED`: a few percent of ops misbehave — enough to exercise every
    /// recovery path in a quick soak without drowning the workload.
    pub fn chaos(seed: u64) -> Self {
        FaultConfig {
            seed,
            transfer_fault_p: 0.02,
            kernel_fault_p: 0.015,
            device_lost_p: 0.04,
            stall_p: 0.03,
            stall_factor: 4.0,
            shrink_p: 0.01,
            shrink_fraction: 0.25,
        }
    }

    /// A fault layer that is armed but injects nothing: every draw is a
    /// no-op. Runs with this config must be byte-identical to runs with no
    /// fault layer at all (checked in CI).
    pub fn disabled(seed: u64) -> Self {
        FaultConfig {
            seed,
            transfer_fault_p: 0.0,
            kernel_fault_p: 0.0,
            device_lost_p: 0.0,
            stall_p: 0.0,
            stall_factor: 1.0,
            shrink_p: 0.0,
            shrink_fraction: 0.0,
        }
    }

    /// Derive an independent fault stream for `stream` (e.g. a service
    /// request id): same seed + same stream always yields the same
    /// faults, while different streams decorrelate — without this, every
    /// request in a multi-tenant run would replay the identical verdict
    /// prefix from the shared seed.
    pub fn reseeded(&self, stream: u64) -> Self {
        let seed = mix64(self.seed.wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9)));
        FaultConfig { seed, ..self.clone() }
    }

    /// Derive an independent fault stream for the pair `(device, request)`
    /// — the fleet analogue of [`FaultConfig::reseeded`]. Mixing the two
    /// ids by xor or addition before reseeding would collide (e.g.
    /// `(1, 0)` and `(0, 1)` share `device ^ request`), replaying the
    /// identical verdict stream on two different devices. Instead the pair
    /// is packed into one word — device in the top 16 bits, request in the
    /// low 48 — so distinct pairs map to distinct streams for any
    /// `device < 2^16` and `request < 2^48`, and the packed word runs
    /// through the same splitmix finalizer as [`FaultConfig::reseeded`]
    /// (which is bijective, so packing distinctness is preserved).
    pub fn reseeded_pair(&self, device: u64, request: u64) -> Self {
        debug_assert!(device < (1 << 16), "device id must fit 16 bits");
        debug_assert!(request < (1 << 48), "request id must fit 48 bits");
        self.reseeded((device << 48) | (request & ((1 << 48) - 1)))
    }
}

/// What the plan decided for one issued operation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OpVerdict {
    /// Run normally.
    Run,
    /// Run, but charged `factor`× the normal time (slow-device stall).
    Stall(f64),
    /// Fail after a partial amount of work.
    Fault(FaultKind),
    /// The device was already lost; the op is not even issued.
    Lost,
}

/// One recorded injection, tied to the sim op that charged its cost.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultRecord {
    /// Where the event was injected.
    pub site: FaultSite,
    /// What happened (injection or recovery action).
    pub kind: FaultEventKind,
    /// Label of the affected operation.
    pub label: String,
    /// The sim op charging the (partial/stalled/backoff) cost, when any.
    pub op: Option<OpId>,
}

/// The kind of event in a fault log (injections *and* recovery actions).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEventKind {
    /// A retryable fault was injected.
    Transient,
    /// The sticky device-lost fault was injected.
    DeviceLost,
    /// The op ran, charged a stall multiple of its normal time.
    Stall,
    /// A recovery retry was issued.
    Retry {
        /// Retry number, 1-based.
        attempt: u32,
    },
    /// A co-tenant stole device capacity at an allocation site.
    Shrink {
        /// Bytes stolen from the free pool.
        bytes: u64,
    },
}

impl fmt::Display for FaultEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultEventKind::Transient => f.write_str("transient"),
            FaultEventKind::DeviceLost => f.write_str("device-lost"),
            FaultEventKind::Stall => f.write_str("stall"),
            FaultEventKind::Retry { attempt } => write!(f, "retry {attempt}"),
            FaultEventKind::Shrink { bytes } => write!(f, "shrink {bytes} B"),
        }
    }
}

/// The seeded fault source. One plan per armed [`crate::Gpu`]; shared with
/// its [`crate::DeviceMemory`] so allocation-time shrink events draw from
/// the same deterministic stream.
#[derive(Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: FaultRng,
    lost: bool,
    records: Vec<FaultRecord>,
}

/// Shared handle: the `Gpu` and its `DeviceMemory` consult one plan.
pub type FaultHandle = Arc<Mutex<FaultPlan>>;

impl FaultPlan {
    /// A fresh plan seeded from `cfg`.
    pub fn new(cfg: FaultConfig) -> Self {
        let rng = FaultRng::seed_from_u64(cfg.seed);
        FaultPlan { cfg, rng, lost: false, records: Vec::new() }
    }

    /// A fresh plan behind a shareable [`FaultHandle`].
    pub fn handle(cfg: FaultConfig) -> FaultHandle {
        Arc::new(Mutex::new(FaultPlan::new(cfg)))
    }

    /// Decide the fate of the next issued op at `site`. Exactly one
    /// decision per op, in issue order — the determinism contract.
    pub fn verdict(&mut self, site: FaultSite) -> OpVerdict {
        if self.lost {
            return OpVerdict::Lost;
        }
        let p_fault = match site {
            FaultSite::H2D | FaultSite::D2H => self.cfg.transfer_fault_p,
            FaultSite::Kernel => self.cfg.kernel_fault_p,
            FaultSite::Alloc => 0.0,
        };
        if p_fault > 0.0 && self.rng.gen_f64() < p_fault {
            let sticky = site == FaultSite::Kernel
                && self.cfg.device_lost_p > 0.0
                && self.rng.gen_f64() < self.cfg.device_lost_p;
            if sticky {
                self.lost = true;
                return OpVerdict::Fault(FaultKind::DeviceLost);
            }
            return OpVerdict::Fault(FaultKind::Transient);
        }
        if self.cfg.stall_p > 0.0 && self.rng.gen_f64() < self.cfg.stall_p {
            return OpVerdict::Stall(self.cfg.stall_factor);
        }
        OpVerdict::Run
    }

    /// Fraction of an op's work charged before a fault manifests.
    pub fn partial_fraction(&mut self) -> f64 {
        0.1 + 0.8 * self.rng.gen_f64()
    }

    /// Draw a capacity-shrink event at an allocation site: `Some(bytes)`
    /// when a co-tenant steals part of the `available` bytes. The steal is
    /// clamped to what is actually free, so accounting can never exceed
    /// capacity.
    pub fn shrink_bytes(&mut self, available: u64) -> Option<u64> {
        if self.lost || self.cfg.shrink_p == 0.0 || available == 0 {
            return None;
        }
        if self.rng.gen_f64() < self.cfg.shrink_p {
            let steal = (available as f64 * self.cfg.shrink_fraction) as u64;
            return Some(steal.min(available));
        }
        None
    }

    /// Append to the fault log.
    pub fn record(
        &mut self,
        site: FaultSite,
        kind: FaultEventKind,
        label: String,
        op: Option<OpId>,
    ) {
        self.records.push(FaultRecord { site, kind, label, op });
    }

    /// Sticky device-lost already drawn?
    pub fn device_lost(&self) -> bool {
        self.lost
    }

    /// Everything recorded so far, in issue order.
    pub fn records(&self) -> &[FaultRecord] {
        &self.records
    }
}

/// A resolved fault log: records stamped with virtual time, ready for
/// timeline instants and summary counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultLog {
    /// All resolved events, in issue order.
    pub events: Vec<FaultEvent>,
}

/// One resolved event: what happened, where, and when (finish time of the
/// op that charged the cost; `None` for events with no charged op).
#[derive(Clone, Debug, PartialEq)]
pub struct FaultEvent {
    /// Finish time of the op that charged the cost; `None` when no op did.
    pub at: Option<SimTime>,
    /// Where the event was injected.
    pub site: FaultSite,
    /// What happened.
    pub kind: FaultEventKind,
    /// Label of the affected operation.
    pub label: String,
}

impl FaultLog {
    /// Stamp `records` against the solved `schedule`.
    pub fn resolve(records: &[FaultRecord], schedule: &Schedule) -> Self {
        let events = records
            .iter()
            .map(|r| FaultEvent {
                at: r.op.map(|op| schedule.finish(op)),
                site: r.site,
                kind: r.kind,
                label: r.label.clone(),
            })
            .collect();
        FaultLog { events }
    }

    /// True when nothing was injected or retried.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Fold the log into aggregate counters.
    pub fn summary(&self) -> FaultSummary {
        let mut s = FaultSummary::default();
        for e in &self.events {
            match e.kind {
                FaultEventKind::Transient => match e.site {
                    FaultSite::Kernel => s.kernel_faults += 1,
                    _ => s.transfer_faults += 1,
                },
                FaultEventKind::DeviceLost => {
                    s.kernel_faults += 1;
                    s.device_lost = true;
                }
                FaultEventKind::Stall => s.stalls += 1,
                FaultEventKind::Retry { .. } => s.retries += 1,
                FaultEventKind::Shrink { bytes } => {
                    s.shrinks += 1;
                    s.stolen_bytes += bytes;
                }
            }
        }
        s
    }
}

/// Aggregate fault counters for one execution (or, summed, one service
/// run) — the numbers `serve` prints and tests assert on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Transient H2D/D2H transfer faults.
    pub transfer_faults: u32,
    /// Kernel faults (transient and device-lost).
    pub kernel_faults: u32,
    /// Slow-device stall events.
    pub stalls: u32,
    /// Recovery retries issued.
    pub retries: u32,
    /// Capacity-shrink events.
    pub shrinks: u32,
    /// Total bytes stolen by shrink events.
    pub stolen_bytes: u64,
    /// Whether the device was lost for good.
    pub device_lost: bool,
}

impl FaultSummary {
    /// True when every counter is zero.
    pub fn is_empty(&self) -> bool {
        *self == FaultSummary::default()
    }

    /// Accumulate another summary into this one.
    pub fn absorb(&mut self, other: &FaultSummary) {
        self.transfer_faults += other.transfer_faults;
        self.kernel_faults += other.kernel_faults;
        self.stalls += other.stalls;
        self.retries += other.retries;
        self.shrinks += other.shrinks;
        self.stolen_bytes += other.stolen_bytes;
        self.device_lost |= other.device_lost;
    }
}

/// Attempts every [`crate::Gpu`] op gets, the first included (so up to 3
/// retries), before its last transient fault surfaces as an error.
pub const MAX_ATTEMPTS: u32 = 4;

/// Backoff before the first retry; it doubles per retry.
const BACKOFF_BASE: SimTime = SimTime::from_nanos(50_000);

/// Upper bound on any backoff.
const BACKOFF_CAP: SimTime = SimTime::from_nanos(1_000_000);

/// Virtual-time backoff before retry number `attempt` (1-based):
/// 50 µs·2^(attempt-1), capped at 1 ms. The issuing stream is charged it,
/// as a driver-level retry loop would be.
pub(crate) fn retry_backoff(attempt: u32) -> SimTime {
    BACKOFF_BASE.backoff(attempt, BACKOFF_CAP)
}

static AMBIENT: Mutex<Option<FaultConfig>> = Mutex::new(None);

/// Set the process-wide ambient fault config consulted by
/// `GpuJoinConfig::paper_default`. Only binaries (`repro --chaos`) set
/// this, once, before any work is spawned; library code and tests pass
/// configs explicitly.
pub fn set_ambient(cfg: Option<FaultConfig>) {
    *AMBIENT.lock().expect("ambient fault config poisoned") = cfg;
}

/// The ambient fault config, if a binary armed one.
pub fn ambient() -> Option<FaultConfig> {
    AMBIENT.lock().expect("ambient fault config poisoned").clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_are_deterministic_per_seed() {
        let draw = || {
            let mut p = FaultPlan::new(FaultConfig::chaos(42));
            (0..256)
                .map(|i| {
                    let site = match i % 3 {
                        0 => FaultSite::H2D,
                        1 => FaultSite::Kernel,
                        _ => FaultSite::D2H,
                    };
                    p.verdict(site)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(), draw());
    }

    #[test]
    fn reseeded_pair_pins_the_mixer() {
        // Regression pin: the (device, request) mixer is part of the
        // determinism contract — fleet chaos summaries replay byte-for-byte
        // only while these exact seeds come out. Update deliberately or
        // never.
        let base = FaultConfig::chaos(7);
        assert_eq!(base.reseeded(0).seed, 0x63CB_E1E4_5932_0DD7);
        assert_eq!(base.reseeded_pair(0, 0).seed, base.reseeded(0).seed);
        assert_eq!(base.reseeded_pair(0, 1).seed, 0x3800_4700_5C67_C096);
        assert_eq!(base.reseeded_pair(1, 0).seed, 0x72D3_7C4C_679C_EE13);
        assert_eq!(base.reseeded_pair(2, 1).seed, 0x5D65_FFEF_A79E_00C9);
    }

    #[test]
    fn reseeded_pair_never_collides_across_pairs() {
        // The xor/sum mixers this replaced collide on swapped pairs; the
        // packed mixer must keep every (device, request) stream distinct.
        use std::collections::HashMap;
        let base = FaultConfig::chaos(23);
        let naive = |d: u64, r: u64| base.reseeded(d ^ r).seed;
        assert_eq!(naive(1, 0), naive(0, 1), "the naive mixer collides (that is the bug)");
        assert_ne!(base.reseeded_pair(1, 0).seed, base.reseeded_pair(0, 1).seed);
        let mut seen: HashMap<u64, (u64, u64)> = HashMap::new();
        for device in 0..48u64 {
            for request in 0..512u64 {
                let seed = base.reseeded_pair(device, request).seed;
                if let Some(prev) = seen.insert(seed, (device, request)) {
                    panic!("stream seed collision: {prev:?} vs ({device}, {request})");
                }
            }
        }
        // Large ids near the packing boundary stay distinct too.
        let hi = base.reseeded_pair((1 << 16) - 1, (1 << 48) - 1).seed;
        assert!(!seen.contains_key(&hi));
    }

    #[test]
    fn disabled_config_injects_nothing() {
        let mut p = FaultPlan::new(FaultConfig::disabled(7));
        for _ in 0..10_000 {
            assert_eq!(p.verdict(FaultSite::Kernel), OpVerdict::Run);
        }
        assert_eq!(p.shrink_bytes(1 << 30), None);
        assert!(p.records().is_empty());
    }

    #[test]
    fn device_lost_is_sticky() {
        // Force device-lost: every kernel faults and every fault is sticky.
        let cfg =
            FaultConfig { kernel_fault_p: 1.0, device_lost_p: 1.0, ..FaultConfig::disabled(3) };
        let mut p = FaultPlan::new(cfg);
        assert_eq!(p.verdict(FaultSite::Kernel), OpVerdict::Fault(FaultKind::DeviceLost));
        assert!(p.device_lost());
        // Everything after — including transfers — reports Lost.
        assert_eq!(p.verdict(FaultSite::Kernel), OpVerdict::Lost);
        assert_eq!(p.verdict(FaultSite::H2D), OpVerdict::Lost);
        assert_eq!(p.shrink_bytes(1 << 20), None);
    }

    #[test]
    fn shrink_clamps_to_available() {
        let cfg = FaultConfig { shrink_p: 1.0, shrink_fraction: 5.0, ..FaultConfig::disabled(11) };
        let mut p = FaultPlan::new(cfg);
        // fraction > 1 would steal more than free: must clamp.
        assert_eq!(p.shrink_bytes(1000), Some(1000));
        assert_eq!(p.shrink_bytes(0), None);
    }

    #[test]
    fn chaos_preset_fires_all_fault_kinds_eventually() {
        let mut p = FaultPlan::new(FaultConfig::chaos(1));
        let mut transfer = 0;
        let mut kernel = 0;
        let mut stall = 0;
        for i in 0..4000 {
            if p.device_lost() {
                break;
            }
            let site = if i % 2 == 0 { FaultSite::H2D } else { FaultSite::Kernel };
            match p.verdict(site) {
                OpVerdict::Fault(_) if site == FaultSite::H2D => transfer += 1,
                OpVerdict::Fault(_) => kernel += 1,
                OpVerdict::Stall(f) => {
                    assert!(f > 1.0);
                    stall += 1;
                }
                _ => {}
            }
        }
        assert!(transfer > 0, "chaos preset must produce transfer faults");
        assert!(kernel > 0, "chaos preset must produce kernel faults");
        assert!(stall > 0, "chaos preset must produce stalls");
    }

    #[test]
    fn retry_policy_backoff_doubles_and_caps() {
        assert_eq!(retry_backoff(1).as_nanos(), 50_000);
        assert_eq!(retry_backoff(2).as_nanos(), 100_000);
        assert_eq!(retry_backoff(3).as_nanos(), 200_000);
        assert_eq!(retry_backoff(30).as_nanos(), 1_000_000);
    }

    #[test]
    fn summary_counts_by_kind_and_site() {
        let records = vec![
            FaultRecord {
                site: FaultSite::H2D,
                kind: FaultEventKind::Transient,
                label: "h2d a".into(),
                op: None,
            },
            FaultRecord {
                site: FaultSite::Kernel,
                kind: FaultEventKind::DeviceLost,
                label: "join b".into(),
                op: None,
            },
            FaultRecord {
                site: FaultSite::Kernel,
                kind: FaultEventKind::Stall,
                label: "join c".into(),
                op: None,
            },
            FaultRecord {
                site: FaultSite::H2D,
                kind: FaultEventKind::Retry { attempt: 1 },
                label: "h2d a".into(),
                op: None,
            },
            FaultRecord {
                site: FaultSite::Alloc,
                kind: FaultEventKind::Shrink { bytes: 4096 },
                label: "reserve".into(),
                op: None,
            },
        ];
        let sim = hcj_sim::Sim::new();
        let sched = sim.run();
        let log = FaultLog::resolve(&records, &sched);
        let s = log.summary();
        assert_eq!(s.transfer_faults, 1);
        assert_eq!(s.kernel_faults, 1);
        assert_eq!(s.stalls, 1);
        assert_eq!(s.retries, 1);
        assert_eq!(s.shrinks, 1);
        assert_eq!(s.stolen_bytes, 4096);
        assert!(s.device_lost);
        let mut total = FaultSummary::default();
        total.absorb(&s);
        total.absorb(&s);
        assert_eq!(total.transfer_faults, 2);
        assert!(total.device_lost);
    }

    #[test]
    fn ambient_round_trip() {
        assert_eq!(ambient(), None);
        set_ambient(Some(FaultConfig::disabled(1)));
        assert_eq!(ambient(), Some(FaultConfig::disabled(1)));
        set_ambient(None);
        assert_eq!(ambient(), None);
    }
}
