//! The join service's one event loop, on a fleet of N simulated GPUs
//! with per-device health and failover. [`FleetService`] runs it on N
//! devices; [`crate::service::JoinService`] is the one-device case of the
//! same loop.
//!
//! Each device owns its own [`DeviceMemory`] accountant, optional
//! [`BuildCache`], bounded dispatch queue and decorrelated fault stream
//! ([`hcj_gpu::FaultConfig::reseeded_pair`] mixes the device id with the
//! request id, so no two (device, request) pairs replay one verdict
//! stream; on device 0 it is the request's plain
//! [`hcj_gpu::FaultConfig::reseeded`] stream). Tenant→device routing is
//! consistent hashing over a replica ring keyed by client id — a tenant's
//! requests land on the same device run after run, which is what gives
//! the per-device build caches their affinity — with
//! spill-to-least-loaded when the preferred queue is full. The ring holds
//! [`RING_REPLICAS`] points per device.
//!
//! The robustness core is a per-device health state machine:
//!
//! ```text
//!   Healthy ──fault seen──▶ Degraded ──K faults in window──▶ Quarantined
//!      ▲                        │                                 │
//!      └──window drains─────────┘        half-open probe clean────┘
//!                 (any state) ──sticky device-lost──▶ Lost
//! ```
//!
//! * **Degraded** — transient faults observed inside the sliding
//!   virtual-time breaker window, still below the trip threshold.
//! * **Quarantined** — the circuit breaker tripped ([`BREAKER_THRESHOLD`]
//!   transient faults inside the sliding [`BREAKER_WINDOW`]): queued
//!   requests are re-routed to surviving devices and new traffic avoids
//!   the device until [`QUARANTINE_COOLDOWN`] expires, after which a
//!   single half-open *probe* request is admitted; a clean probe
//!   re-admits the device, a faulty one re-arms the cooldown.
//! * **Lost** — an execution surfaced the sticky device-lost fault. The
//!   loss *drains* the device: every admitted-but-unfinished request
//!   releases its [`Reservation`] and cache pins, the device's cache is
//!   invalidated wholesale (its [`REWARM_LIMIT`] hottest builds are
//!   deterministically re-warmed onto the adopting device first), and
//!   the drained queue is
//!   re-routed to surviving devices — re-planned against the adopting
//!   device's free capacity, or onto the host CPU when the fleet is
//!   saturated. Lost is terminal.
//!
//! A fleet of one device acts on no health observation: it has no device
//! to fail over to, so it never trips its breaker, never quarantines and
//! never drains. Its faults still play out per request — chunk retries,
//! ladder degradation, CPU fallback — exactly as on any device.
//!
//! The loop is single-threaded and runs in virtual time: one calendar of
//! typed events (submit, backoff wake-up, completion, deadline) keyed by
//! `(SimTime, sequence number)`, and it executes admitted batches itself.
//! With two or more pool workers, a helper thread materializes upcoming
//! requests' inputs beside it (the crate-private `lookahead` module) and
//! maps the loop calls run inline. Inputs are pure functions of their
//! specs, so summaries are byte-identical across `--jobs` counts and
//! runs. Admitted single
//! joins run on the same cache-aware join executor as plan operators
//! ([`crate::dag`]): probe a pinned cached build, stage and build, or
//! walk the ladder from the admitted rung; a failing hit or staged build
//! falls back onto that ladder. Health
//! observations ride on request completions: the loop learns what an
//! execution injected when the execution reports back, which keeps every
//! transition at a deterministic event time.
//!
//! The run renders as one Chrome timeline: a track per client (queue
//! waits, executions, cache-hit, fault and deadline marks), a router
//! track (CPU spills, device losses, drains), the CPU-fallback lane, and
//! per device an execution track, a health track and counters of its
//! reserved and cached bytes.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use hcj_core::CachedBuild;
use hcj_gpu::faults::{DeviceFault, FaultKind, FaultSite};
use hcj_gpu::{DeviceMemory, DeviceSpec, JoinError, OutOfDeviceMemory, Reservation};
use hcj_host::pool::Pool;
use hcj_sim::{CounterId, SimTime, Timeline, TrackId};
use hcj_workload::catalog::BuildRef;
use hcj_workload::plan::PlanSpec;
use hcj_workload::rng::mix64;
use hcj_workload::{build_is_left, Relation};

use crate::cache::{BuildCache, CacheReport, CachedTable};
use crate::dag::{execute_plan, plan_envelope, planned_root, OpReport, PlanRun};
use crate::exchange::ExchangeParticipant;
use crate::executor::{Executed, JoinJob};
use crate::facade::{HcjEngine, PlannedStrategy};
use crate::lookahead::{generate_scans, Inputs, JoinInputs, Lookahead};
use crate::service::{
    CacheRole, ClientSpec, QuerySpec, RequestMetrics, ServiceConfig, ServiceReport, BACKOFF_BASE,
    BACKOFF_CAP, MAX_RETRIES, THINK_TIME,
};

/// Transient faults inside the sliding window that trip a device's
/// circuit breaker.
pub const BREAKER_THRESHOLD: usize = 6;

/// Width of the sliding virtual-time breaker window.
pub const BREAKER_WINDOW: SimTime = SimTime::from_nanos(2_000_000);

/// Quarantine cooldown before a half-open probe is admitted.
pub const QUARANTINE_COOLDOWN: SimTime = SimTime::from_nanos(1_000_000);

/// Virtual ring points per device (consistent-hash replica count).
pub const RING_REPLICAS: usize = 16;

/// Hottest cache entries re-warmed onto the adopting device when a device
/// is lost.
pub const REWARM_LIMIT: usize = 2;

/// Fleet topology (the per-request admission policy rides in
/// [`ServiceConfig`], applied per device; the failover policy is the
/// constants above).
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of simulated devices. Each gets the engine's full device
    /// capacity: an N-device fleet is N times the hardware.
    pub devices: usize,
    /// Admit joins too large for any single device as cross-device
    /// exchange joins ([`crate::exchange`]) instead of degrading them down
    /// the single-device ladder. Off by default: pre-exchange fleets keep
    /// byte-identical behaviour.
    pub exchange: bool,
    /// Per-device hardware specs for a heterogeneous fleet. `None` means
    /// every device runs the engine's configured spec. When set, each
    /// device's capacity comes from its own spec and the exchange weights
    /// partition ownership by per-device throughput.
    pub device_specs: Option<Vec<DeviceSpec>>,
}

impl FleetConfig {
    /// A homogeneous fleet of `devices` without exchange joins.
    pub fn new(devices: usize) -> Self {
        FleetConfig { devices: devices.max(1), exchange: false, device_specs: None }
    }

    /// Enable cross-device exchange joins for oversized requests.
    pub fn with_exchange(mut self) -> Self {
        self.exchange = true;
        self
    }

    /// A heterogeneous fleet: one device per spec, each sized and weighted
    /// by its own hardware.
    pub fn with_device_mix(mut self, specs: Vec<DeviceSpec>) -> Self {
        self.devices = specs.len().max(1);
        self.device_specs = Some(specs);
        self
    }
}

/// Health of one fleet device; see the module docs for the transitions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DeviceHealth {
    /// Serving, no recent faults.
    #[default]
    Healthy,
    /// Serving, transient faults inside the breaker window.
    Degraded,
    /// Breaker tripped: no new traffic except half-open probes.
    Quarantined,
    /// Sticky device-lost observed; drained and terminal.
    Lost,
}

impl DeviceHealth {
    /// Can this device accept (non-probe) work?
    fn serving(self) -> bool {
        matches!(self, DeviceHealth::Healthy | DeviceHealth::Degraded)
    }
}

impl fmt::Display for DeviceHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DeviceHealth::Healthy => "healthy",
            DeviceHealth::Degraded => "degraded",
            DeviceHealth::Quarantined => "quarantined",
            DeviceHealth::Lost => "lost",
        })
    }
}

/// End-of-run aggregate for one fleet device.
#[derive(Clone, Debug, Default)]
pub struct DeviceRollup {
    /// Device id (position in the fleet).
    pub id: usize,
    /// Terminal health state.
    pub health: DeviceHealth,
    /// Admissions onto this device (re-admissions after a drain count).
    pub admitted: u64,
    /// Requests whose completion was finalized on this device.
    pub completed: u64,
    /// Admitted-but-unfinished requests drained off this device by its
    /// loss.
    pub drained: u64,
    /// Requests this device adopted from another device's drain.
    pub adopted: u64,
    /// Cache builds re-warmed onto this device from a lost device.
    pub rewarmed: u64,
    /// Circuit-breaker trips (Quarantined entries).
    pub breaker_trips: u32,
    /// Every health transition, in virtual-time order.
    pub transitions: Vec<(SimTime, DeviceHealth)>,
    /// High-water mark of reserved bytes.
    pub peak_bytes: u64,
    /// Device capacity.
    pub capacity: u64,
    /// Reserved bytes when the run drained (non-zero = leak).
    pub used_at_end: u64,
    /// Per-device build-cache aggregate, when the cache was enabled.
    pub cache: Option<CacheReport>,
}

/// Fleet-level rollup attached to [`ServiceReport::fleet`].
#[derive(Clone, Debug, Default)]
pub struct FleetRollup {
    /// Per-device rollups, in device order.
    pub devices: Vec<DeviceRollup>,
    /// Admitted-but-unfinished requests drained by device losses.
    pub drained: u64,
    /// Drained or displaced requests re-admitted on a surviving device.
    pub rerouted: u64,
    /// Requests that ran host-side because no device could take them.
    pub cpu_spilled: u64,
    /// Cache builds re-warmed onto adopting devices.
    pub rewarmed: u64,
    /// Circuit-breaker trips across the fleet.
    pub breaker_trips: u32,
    /// Cache entries invalidated by device losses.
    pub cache_invalidated: u64,
}

impl FleetRollup {
    /// Devices in the terminal [`DeviceHealth::Lost`] state.
    pub fn lost(&self) -> usize {
        self.devices.iter().filter(|d| d.health == DeviceHealth::Lost).count()
    }
}

/// Calendar events of the virtual-time loop.
enum Event {
    /// A client submits request `index`.
    Submit { client: usize, index: usize },
    /// A backoff timer fired; eligibility is re-checked by the wave.
    Retry,
    /// An admitted request finished its simulated execution. Stale when
    /// the request's epoch moved on (drained by a device loss) or the
    /// request is done (deadline).
    Complete { req: usize, epoch: u32 },
    /// A request's per-request deadline expired. Stale once the request
    /// is done; otherwise cancels it wherever it is.
    Deadline { req: usize },
}

/// The one event calendar: typed events keyed by virtual time, ties
/// broken by scheduling order.
#[derive(Default)]
struct Calendar {
    events: BTreeMap<(SimTime, u64), Event>,
    seq: u64,
}

impl Calendar {
    fn schedule(&mut self, at: SimTime, e: Event) {
        self.events.insert((at, self.seq), e);
        self.seq += 1;
    }
}

/// Where the router decided one request goes.
enum Route {
    /// Queue on this device (possibly as a half-open probe).
    Device { device: usize, probe: bool },
    /// Run host-side: the fleet has no device for it.
    Cpu,
    /// Park in the fleet-level backpressure FIFO.
    Park,
    /// No device exists and the request cannot run host-side (plans need
    /// a device accountant): fail typed.
    Fail,
}

/// Consistent-hash ring: a number of points per device, walk clockwise
/// from the key's hash to the first eligible device.
pub(crate) struct Ring {
    /// `(point, device)`, sorted by point.
    points: Vec<(u64, usize)>,
}

impl Ring {
    /// A ring with `(device, replicas)` points per device: the router
    /// gives every device [`RING_REPLICAS`]; the cross-device exchange
    /// assigns partitions over replica counts proportional to device
    /// throughput, so faster devices own proportionally more partitions.
    pub(crate) fn weighted(replicas: impl IntoIterator<Item = (usize, usize)>) -> Self {
        // The top bit domain-separates ring points from routing keys:
        // without it, device 0's points are `mix64(0..replicas)` — the
        // very values small client/build-id keys hash to — and every key
        // below `replicas` would land exactly on a device-0 point.
        let mut points: Vec<(u64, usize)> = replicas
            .into_iter()
            .flat_map(|(d, reps)| {
                (0..reps.max(1)).map(move |r| (mix64((1 << 63) | ((d as u64) << 32) | r as u64), d))
            })
            .collect();
        points.sort_unstable();
        Ring { points }
    }

    /// First device clockwise from `key`'s hash for which `eligible`
    /// holds. `None` when no device qualifies.
    pub(crate) fn route(&self, key: u64, eligible: impl Fn(usize) -> bool) -> Option<usize> {
        let h = mix64(key);
        let start = self.points.partition_point(|p| p.0 < h);
        (0..self.points.len())
            .map(|i| self.points[(start + i) % self.points.len()].1)
            .find(|&d| eligible(d))
    }
}

/// Live state of one fleet device.
struct DeviceState {
    memory: DeviceMemory,
    cache: Option<BuildCache>,
    queue: VecDeque<usize>,
    /// Virtual times of transient faults observed inside the breaker
    /// window (pruned as the window slides).
    window: VecDeque<SimTime>,
    /// Earliest time a half-open probe may be admitted (Quarantined).
    half_open_at: SimTime,
    /// The in-flight half-open probe request, if any.
    probe: Option<usize>,
    /// Health, transitions and counters, counted in place; the memory and
    /// cache figures are filled in when the run finishes.
    rollup: DeviceRollup,
    /// Timeline track of the executions this device ran.
    exec: TrackId,
    /// Timeline track of this device's health transitions.
    health_track: TrackId,
    /// Reserved-bytes counter, and the cached-bytes counter when the
    /// cache is on.
    mem_counter: CounterId,
    cache_counter: Option<CounterId>,
    /// `(reserved, cached)` bytes at the last counter samples.
    sampled: (u64, u64),
}

impl DeviceState {
    fn new(id: usize, capacity: u64, cache_budget: Option<u64>, timeline: &mut Timeline) -> Self {
        let exec = timeline.track(format!("device {id} · exec"));
        let health_track = timeline.track(format!("device {id} · health"));
        let mem_counter = timeline.counter(format!("device {id} · reserved (B)"));
        let cache_counter =
            cache_budget.map(|_| timeline.counter(format!("device {id} · build cache (B)")));
        DeviceState {
            memory: DeviceMemory::new(capacity),
            cache: cache_budget.map(BuildCache::new),
            queue: VecDeque::new(),
            window: VecDeque::new(),
            half_open_at: SimTime::ZERO,
            probe: None,
            rollup: DeviceRollup { id, capacity, ..DeviceRollup::default() },
            exec,
            health_track,
            mem_counter,
            cache_counter,
            sampled: (0, 0),
        }
    }

    fn health(&self) -> DeviceHealth {
        self.rollup.health
    }

    /// Record a health transition at `at` (state change + instant mark).
    fn transition(&mut self, to: DeviceHealth, at: SimTime, timeline: &mut Timeline) {
        if self.rollup.health == to {
            return;
        }
        self.rollup.health = to;
        self.rollup.transitions.push((at, to));
        timeline.instant(self.health_track, format!("{to}"), 11 + to as u32, at);
    }

    /// Reserve `bytes` on this device. Cached bytes are reclaimable, not
    /// tenants: a rejection evicts cold cache entries (sparing `protect`)
    /// and retries once before the caller treats it as pressure.
    fn reserve(&mut self, bytes: u64, protect: Option<u64>) -> Option<Reservation> {
        match self.memory.reserve(bytes) {
            Ok(res) => Some(res),
            Err(_) => {
                let reclaimed =
                    self.cache.as_mut().is_some_and(|c| c.reclaim(&self.memory, bytes, protect));
                if reclaimed {
                    self.memory.reserve(bytes).ok()
                } else {
                    None
                }
            }
        }
    }

    /// Sample the reserved- and cached-bytes counters when they moved.
    fn sample(&mut self, at: SimTime, timeline: &mut Timeline) {
        let used = self.memory.used();
        if used != self.sampled.0 {
            self.sampled.0 = used;
            timeline.sample(self.mem_counter, at, used as f64);
        }
        if let (Some(cache), Some(counter)) = (self.cache.as_ref(), self.cache_counter) {
            if cache.bytes() != self.sampled.1 {
                self.sampled.1 = cache.bytes();
                timeline.sample(counter, at, self.sampled.1 as f64);
            }
        }
    }
}

/// Per-request live state (metrics plus loop bookkeeping).
struct FleetRequest {
    metrics: RequestMetrics,
    /// Materialized inputs of a single join and their check, held until it
    /// finalizes: a drain re-dispatches from them.
    inputs: Option<JoinInputs>,
    /// Current rung on the ladder (degrades under pressure).
    level: PlannedStrategy,
    /// Failed admissions at the current rung.
    attempts: u32,
    /// Not eligible for admission before this time (backoff).
    eligible_at: SimTime,
    /// Held from admission to completion.
    reservation: Option<Reservation>,
    /// Catalog identity of the build side: the spec's, when its `r`
    /// really is the build side; `None` otherwise (never cached).
    build: Option<BuildRef>,
    /// On a cache hit: the pinned resident table, held from admission to
    /// completion so eviction cannot free it mid-flight.
    hit: Option<Arc<CachedTable>>,
    /// On a cache miss that rebuilt: the table the execution produced,
    /// installed into the cache at completion.
    install: Option<CachedBuild>,
    /// Plan-request state; `None` for single joins.
    plan: Option<PlanWork>,
    /// Set exactly once, by `Complete` or by a deadline cancellation.
    done: bool,
    /// Device currently queued on / running on; `None` while parked or on
    /// the CPU lane.
    assigned: Option<usize>,
    /// Admitted with a pending `Complete`.
    running: bool,
    /// Bumped whenever a drain aborts the in-flight execution; a
    /// `Complete` carrying an older epoch is stale and ignored.
    epoch: u32,
    /// This admission is a half-open probe for its quarantined device.
    probe: bool,
    /// On the CPU lane awaiting host-side execution.
    cpu: bool,
    /// Reservations held on the non-coordinator participants of an
    /// admitted cross-device request, released with the coordinator's.
    extra_reservations: Vec<Reservation>,
    /// Participant device ids of an admitted cross-device request
    /// (coordinator first); empty for single-device requests.
    participants: Vec<usize>,
    /// Participants the exchange observed device-lost, drained by
    /// `observe_completion` when the request finalizes.
    lost_participants: Vec<usize>,
}

impl FleetRequest {
    /// Let go of everything the request holds on devices: its
    /// reservations and participants, its cache pin and pending install,
    /// and a plan run's pins and installs.
    fn release(&mut self) {
        self.reservation = None;
        self.extra_reservations.clear();
        self.participants = Vec::new();
        self.lost_participants = Vec::new();
        self.hit = None;
        self.install = None;
        if let Some(pw) = self.plan.as_mut() {
            pw.run = None;
        }
    }

    /// Admission granted on `device`: hold `reservation` until completion.
    fn admit(&mut self, reservation: Reservation, device: usize, used: u64, now: SimTime) {
        self.reservation = Some(reservation);
        self.running = true;
        self.metrics.admitted_at = now;
        self.metrics.device_used_at_admit = used;
        self.metrics.device = Some(device);
    }

    /// A single join's `(build, probe)` inputs; `None` for plans.
    fn sides(&self) -> Option<(&Relation, &Relation)> {
        let JoinInputs { r, s, .. } = self.inputs.as_ref()?;
        Some(if build_is_left(r, s) { (r, s) } else { (s, r) })
    }

    /// The smallest estimate any rung from the current one down reserves:
    /// on a device whose capacity is below it, the request can never
    /// admit.
    fn smallest_estimate(&self, engine: &HcjEngine) -> u64 {
        if let Some(pw) = &self.plan {
            let rungs = pw.degrade..PlannedStrategy::LADDER.len();
            return rungs.map(|n| plan_envelope(engine, &pw.spec, n)).min().unwrap_or(0);
        }
        let Some((b, p)) = self.sides() else { return 0 };
        std::iter::successors(Some(self.level), |level| level.degraded())
            .map(|level| engine.footprint_estimate_sized(level, b.bytes(), p.bytes()))
            .min()
            .unwrap_or(0)
    }

    /// Admission rejected: count the retry, step one rung down the ladder
    /// after [`MAX_RETRIES`] rejections at the current rung (a plan steps
    /// every join down), back off exponentially, and schedule the wake-up
    /// at which the loop re-checks eligibility.
    fn reject(&mut self, now: SimTime, calendar: &mut Calendar) {
        self.metrics.retries += 1;
        self.attempts += 1;
        if self.attempts > MAX_RETRIES {
            let stepped = match (self.plan.as_mut(), self.level.degraded()) {
                (Some(pw), _) if pw.degrade < PlannedStrategy::LADDER.len() - 1 => {
                    pw.degrade += 1;
                    true
                }
                (None, Some(next)) => {
                    self.level = next;
                    true
                }
                _ => false,
            };
            if stepped {
                self.attempts = 0;
            }
        }
        self.eligible_at = now + BACKOFF_BASE.backoff(self.attempts.max(1), BACKOFF_CAP);
        calendar.schedule(self.eligible_at, Event::Retry);
    }
}

/// Live state of a multi-join plan request.
struct PlanWork {
    /// The operator DAG to execute.
    spec: PlanSpec,
    /// Materialized scan outputs, indexed by op id; taken at dispatch.
    scans: Option<Vec<Option<Relation>>>,
    /// Ladder rungs every join is stepped down (the plan analogue of a
    /// single join's `level`).
    degrade: usize,
    /// The execution's result, held from dispatch to completion: its pins
    /// keep intermediates reserved and its installs await the cache.
    run: Option<PlanRun>,
}

impl PlanWork {
    /// Materialized scan outputs: taken at dispatch, regenerated from the
    /// (pure) spec when a drain discarded the originals.
    fn take_scans(&mut self) -> Vec<Option<Relation>> {
        self.scans.take().unwrap_or_else(|| generate_scans(&self.spec))
    }
}

/// `engine` on the fault stream of request `id` on `device`; `None`
/// without a fault plan.
fn reseeded(engine: &HcjEngine, device: usize, id: usize) -> Option<HcjEngine> {
    engine.config.faults.as_ref().map(|f| {
        let mut e = engine.clone();
        e.config = e.config.clone().with_faults(f.reseeded_pair(device as u64, id as u64));
        e
    })
}

/// The multi-device join fleet; see the module docs.
pub struct FleetService {
    /// Planner + strategies; every device runs the same engine config.
    pub engine: HcjEngine,
    /// Per-device admission/deadline policy.
    pub config: ServiceConfig,
    /// Topology and failover policy.
    pub fleet: FleetConfig,
}

impl FleetService {
    /// A fleet over `engine` with per-device policy `config`.
    pub fn new(engine: HcjEngine, config: ServiceConfig, fleet: FleetConfig) -> Self {
        FleetService { engine, config, fleet }
    }

    /// Drive the whole workload to completion across the fleet.
    pub fn run(&self, workload: &[ClientSpec]) -> ServiceReport {
        serve(Pool::current(), &self.engine, &self.config, &self.fleet, workload)
    }
}

/// Drive `workload` to completion on the event loop, beside the lookahead
/// that materializes upcoming requests' inputs on `pool`'s second worker:
/// the one entry point of both [`FleetService::run`] and
/// [`crate::service::JoinService::run`].
pub(crate) fn serve(
    pool: Pool,
    engine: &HcjEngine,
    config: &ServiceConfig,
    fleet: &FleetConfig,
    workload: &[ClientSpec],
) -> ServiceReport {
    let lookahead = Lookahead::new(workload);
    pool.beside(
        || lookahead.fill(),
        || {
            let _close = lookahead.closer();
            FleetRun::new(engine, config, fleet, workload, &lookahead).run()
        },
    )
}

/// One run's mutable state; [`serve`] drives it.
struct FleetRun<'a> {
    engine: &'a HcjEngine,
    config: &'a ServiceConfig,
    fleet: &'a FleetConfig,
    workload: &'a [ClientSpec],
    /// Upcoming requests' inputs, materialized beside the loop.
    lookahead: &'a Lookahead<'a>,
    ring: Ring,
    devices: Vec<DeviceState>,
    requests: Vec<FleetRequest>,
    /// Fleet-level backpressure FIFO: requests no device had room for.
    parked: VecDeque<usize>,
    /// Requests routed to the host CPU lane, awaiting execution.
    cpu_queue: Vec<usize>,
    calendar: Calendar,
    invariants: Vec<String>,
    timeline: Timeline,
    /// One track per client: queue waits, executions, cache-hit, fault
    /// and deadline marks.
    clients: Vec<TrackId>,
    /// Router-level marks: drains, device losses, CPU spills.
    router: TrackId,
    /// Host-lane execution spans.
    cpu_track: TrackId,
    makespan: SimTime,
    /// Fleet counters, counted in place; the device rollups join them when
    /// the run finishes.
    rollup: FleetRollup,
}

impl<'a> FleetRun<'a> {
    fn new(
        engine: &'a HcjEngine,
        config: &'a ServiceConfig,
        fleet: &'a FleetConfig,
        workload: &'a [ClientSpec],
        lookahead: &'a Lookahead<'a>,
    ) -> Self {
        let mut timeline = Timeline::new("hcj join service");
        let clients: Vec<TrackId> =
            (0..workload.len()).map(|c| timeline.track(format!("client {c}"))).collect();
        let router = timeline.track("router");
        let cpu_track = timeline.track("cpu fallback");
        let default_capacity = engine.config.device.device_mem_bytes;
        let devices: Vec<DeviceState> = (0..fleet.devices)
            .map(|d| {
                // A heterogeneous fleet sizes each device (and its cache
                // budget) from its own spec.
                let capacity = fleet
                    .device_specs
                    .as_ref()
                    .and_then(|specs| specs.get(d))
                    .map_or(default_capacity, |spec| spec.device_mem_bytes);
                let budget = config.cache.as_ref().map(|cfg| cfg.resolved_max_bytes(capacity));
                DeviceState::new(d, capacity, budget, &mut timeline)
            })
            .collect();
        FleetRun {
            engine,
            config,
            fleet,
            workload,
            lookahead,
            ring: Ring::weighted((0..fleet.devices).map(|d| (d, RING_REPLICAS))),
            devices,
            requests: Vec::new(),
            parked: VecDeque::new(),
            cpu_queue: Vec::new(),
            calendar: Calendar::default(),
            invariants: Vec::new(),
            timeline,
            clients,
            router,
            cpu_track,
            makespan: SimTime::ZERO,
            rollup: FleetRollup::default(),
        }
    }

    /// The hardware spec of `device`: its own mix entry, or the engine's
    /// configured spec in a homogeneous fleet.
    fn spec_of(&self, device: usize) -> &DeviceSpec {
        self.fleet
            .device_specs
            .as_ref()
            .and_then(|specs| specs.get(device))
            .unwrap_or(&self.engine.config.device)
    }

    /// Serving (Healthy/Degraded) devices, in id order.
    fn serving_devices(&self) -> Vec<usize> {
        (0..self.devices.len()).filter(|&d| self.devices[d].health().serving()).collect()
    }

    /// Plan one join for this fleet: the fleet-aware planner when exchange
    /// is on (cross-device for single-device overflows), the single-device
    /// planner otherwise.
    fn plan_join(&self, build_bytes: u64, probe_bytes: u64) -> PlannedStrategy {
        if !self.fleet.exchange {
            return self.engine.plan_sized(build_bytes, probe_bytes);
        }
        let serving = self.serving_devices();
        let min_capacity =
            serving.iter().map(|&d| self.devices[d].memory.capacity()).min().unwrap_or(0);
        self.engine.plan_fleet_sized(build_bytes, probe_bytes, serving.len(), min_capacity)
    }

    /// The tracks a request's executions are drawn on: its client's, and
    /// its lane's (the device it ran on, or the CPU fallback lane).
    fn tracks_of(&self, req: usize) -> [TrackId; 2] {
        let st = &self.requests[req];
        let lane = st.assigned.map_or(self.cpu_track, |d| self.devices[d].exec);
        [self.clients[st.metrics.client], lane]
    }

    /// Route `req` (fresh, displaced or drained). `adopting` marks a
    /// drain re-route: the target device counts an adoption and the
    /// request is re-planned against that device's free capacity.
    fn route(&mut self, req: usize, now: SimTime, adopting: bool) {
        let is_plan = self.requests[req].plan.is_some();
        let key = self.requests[req].metrics.client as u64;
        let depth = self.config.queue_depth;
        let primary = self.ring.route(key, |d| self.devices[d].health() != DeviceHealth::Lost);
        let least_loaded = |devs: &[DeviceState], need_room: bool| -> Option<usize> {
            devs.iter()
                .enumerate()
                .filter(|(_, d)| d.health().serving())
                .filter(|(_, d)| !need_room || d.queue.len() < depth)
                .min_by_key(|(i, d)| (d.queue.len(), *i))
                .map(|(i, _)| i)
        };
        let decision = match primary {
            None => {
                // Every device is lost.
                if is_plan {
                    Route::Fail
                } else {
                    Route::Cpu
                }
            }
            Some(p)
                if self.devices[p].health().serving() && self.devices[p].queue.len() < depth =>
            {
                Route::Device { device: p, probe: false }
            }
            Some(p) => {
                if let Some(spill) = least_loaded(&self.devices, true) {
                    // Preferred device full or quarantined: spill to the
                    // least-loaded serving device with room.
                    Route::Device { device: spill, probe: false }
                } else if self.devices[p].health() == DeviceHealth::Quarantined
                    && now >= self.devices[p].half_open_at
                    && self.devices[p].probe.is_none()
                {
                    // Cooldown expired: this request becomes the half-open
                    // probe that decides whether the device re-admits.
                    Route::Device { device: p, probe: true }
                } else if least_loaded(&self.devices, false).is_some() {
                    // Serving devices exist but all queues are full: park.
                    Route::Park
                } else if is_plan {
                    // No serving device at all. Plans need a device-memory
                    // accountant, so queue on the least-loaded surviving
                    // (quarantined) device rather than stall forever.
                    match self
                        .devices
                        .iter()
                        .enumerate()
                        .filter(|(_, d)| d.health() != DeviceHealth::Lost)
                        .min_by_key(|(i, d)| (d.queue.len(), *i))
                        .map(|(i, _)| i)
                    {
                        Some(d) => Route::Device { device: d, probe: false },
                        None => Route::Fail,
                    }
                } else {
                    // Saturated fleet, single join: the CPU escape hatch.
                    Route::Cpu
                }
            }
        };
        match decision {
            Route::Device { device, probe } => {
                let st = &mut self.requests[req];
                st.assigned = Some(device);
                st.probe = probe;
                st.attempts = 0;
                st.eligible_at = now;
                if adopting {
                    self.replan_for(req, device);
                    self.devices[device].rollup.adopted += 1;
                    self.rollup.rerouted += 1;
                }
                if probe {
                    self.devices[device].probe = Some(req);
                }
                self.devices[device].queue.push_back(req);
            }
            Route::Cpu => {
                let st = &mut self.requests[req];
                st.assigned = None;
                st.cpu = true;
                self.cpu_queue.push(req);
                self.rollup.cpu_spilled += 1;
                let (c, i) = (st.metrics.client, st.metrics.index);
                self.timeline.instant(self.router, format!("cpu spill r{c}.{i}"), 12, now);
            }
            Route::Park => {
                self.requests[req].assigned = None;
                self.requests[req].metrics.blocked = true;
                self.parked.push_back(req);
            }
            Route::Fail => {
                let m = &self.requests[req].metrics;
                let (c, i) = (m.client, m.index);
                self.timeline.instant(self.router, format!("fleet lost r{c}.{i}"), 9, now);
                let lost = JoinError::Device(DeviceFault {
                    site: FaultSite::Kernel,
                    kind: FaultKind::DeviceLost,
                    label: "fleet exhausted".into(),
                });
                self.fail(req, lost.tag(), now);
            }
        }
    }

    /// Finish `req` with `error` without running it, and move its client
    /// on to its next request.
    fn fail(&mut self, req: usize, error: &'static str, now: SimTime) {
        let st = &mut self.requests[req];
        st.done = true;
        st.metrics.completed_at = now;
        st.metrics.check_ok = false;
        st.metrics.error = Some(error);
        self.makespan = self.makespan.max(now);
        let (c, i) = (st.metrics.client, st.metrics.index);
        self.next_submit(c, i, now);
    }

    /// Re-plan a request against `device`'s *current free* bytes: the
    /// adopting device may be far fuller than the one that died, so the
    /// drained request steps down the ladder until its estimated
    /// footprint fits what is actually free right now.
    fn replan_for(&mut self, req: usize, device: usize) {
        let available = self.devices[device].memory.available();
        let engine = self.engine;
        let st = &mut self.requests[req];
        if let Some(pw) = st.plan.as_mut() {
            let floor = PlannedStrategy::LADDER.len() - 1;
            pw.degrade = (0..=floor)
                .find(|&n| plan_envelope(engine, &pw.spec, n) <= available)
                .unwrap_or(floor);
            return;
        }
        let Some((b, p)) = st.sides().map(|(b, p)| (b.bytes(), p.bytes())) else { return };
        let mut level = self.plan_join(b, p);
        if matches!(level, PlannedStrategy::CrossDevice(_)) {
            // Still worth an exchange over the surviving devices; the
            // cross admission pre-pass re-reserves its envelopes.
            self.requests[req].level = level;
            return;
        }
        while engine.footprint_estimate_sized(level, b, p) > available {
            match level.degraded() {
                Some(next) => level = next,
                None => break,
            }
        }
        self.requests[req].level = level;
    }

    /// Schedule the client's next closed-loop submission, if any.
    fn next_submit(&mut self, client: usize, index: usize, now: SimTime) {
        if index + 1 < self.workload[client].requests.len() {
            self.calendar.schedule(now + THINK_TIME, Event::Submit { client, index: index + 1 });
        }
    }

    /// The circuit breaker tripped for `device`: quarantine it, start the
    /// cooldown and re-route its queued (not yet admitted) requests.
    fn trip(&mut self, device: usize, now: SimTime) {
        let d = &mut self.devices[device];
        d.rollup.breaker_trips += 1;
        self.rollup.breaker_trips += 1;
        d.transition(DeviceHealth::Quarantined, now, &mut self.timeline);
        d.half_open_at = now + QUARANTINE_COOLDOWN;
        d.probe = None;
        let displaced: Vec<usize> = d.queue.drain(..).collect();
        for req in displaced {
            self.requests[req].assigned = None;
            self.requests[req].probe = false;
            self.route(req, now, false);
        }
    }

    /// Sticky device-lost observed on `device`: transition to Lost, drain
    /// every admitted-but-unfinished request (releasing reservations and
    /// cache pins), re-warm the cache's hottest builds onto the adopting
    /// device, invalidate the rest, and re-route the drained queue.
    fn device_lost(&mut self, device: usize, now: SimTime) {
        if self.devices[device].health() == DeviceHealth::Lost {
            return;
        }
        self.devices[device].transition(DeviceHealth::Lost, now, &mut self.timeline);
        self.devices[device].probe = None;
        self.timeline.instant(self.router, format!("device {device} lost"), 9, now);

        // Admitted-but-unfinished requests: abort the in-flight execution
        // (epoch bump stales its pending Complete), release every held
        // resource, and reset execution-derived metrics — the re-dispatch
        // on the adopting device rewrites them.
        let mut to_reroute: Vec<usize> = Vec::new();
        for req in 0..self.requests.len() {
            let st = &mut self.requests[req];
            // A running cross-device request is drained when *any* of its
            // participants is the lost device — its envelopes span the
            // fleet and its in-flight exchange is aborted wholesale.
            let involved = st.assigned == Some(device) || st.participants.contains(&device);
            if st.done || !involved || !st.running {
                continue;
            }
            st.epoch += 1;
            st.running = false;
            st.release();
            if let Some(pw) = st.plan.as_mut() {
                pw.scans = None; // regenerate from the spec at re-dispatch
            }
            let m = &st.metrics;
            st.metrics = RequestMetrics {
                admitted_at: m.admitted_at,
                retries: m.retries,
                blocked: m.blocked,
                device_used_at_admit: m.device_used_at_admit,
                device: m.device,
                rerouted: m.rerouted + 1,
                ..RequestMetrics::submitted(m.client, m.index, m.submitted_at, m.planned)
            };
            st.probe = false;
            st.assigned = None;
            self.devices[device].rollup.drained += 1;
            self.rollup.drained += 1;
            let (c, i) = (st.metrics.client, st.metrics.index);
            self.timeline.instant(self.router, format!("drain r{c}.{i}"), 9, now);
            to_reroute.push(req);
        }
        // Queued (never admitted) requests are displaced, not drained.
        let displaced: Vec<usize> = self.devices[device].queue.drain(..).collect();
        for &req in &displaced {
            self.requests[req].assigned = None;
            self.requests[req].probe = false;
        }

        // Cache teardown: deterministically re-warm the hottest builds
        // onto the device the ring now maps each build to, then drop the
        // rest. Re-warmed builds are cloned — the survivor reserves its
        // own bytes; nothing keeps pointing at the dead device.
        if let Some(mut cache) = self.devices[device].cache.take() {
            let hot = cache.hottest(REWARM_LIMIT);
            self.rollup.cache_invalidated += cache.invalidate_all() as u64;
            self.devices[device].cache = Some(cache);
            for (bref, build) in hot {
                let adopt = self.ring.route(bref.id, |d| self.devices[d].health().serving());
                if let Some(a) = adopt {
                    let da = &mut self.devices[a];
                    if let Some(c) = da.cache.as_mut() {
                        if c.insert(bref, &da.memory, build) {
                            da.rollup.rewarmed += 1;
                            self.rollup.rewarmed += 1;
                        }
                    }
                }
            }
        }

        // Leak audit: with every reservation, pin and cache entry gone,
        // the lost device must account zero bytes.
        if self.devices[device].memory.used() != 0 {
            self.invariants.push(format!(
                "device {device} still accounts {} B after its drain at {now}",
                self.devices[device].memory.used()
            ));
        }

        // Re-route drained requests first (they were in flight), then the
        // displaced queue, both in FIFO/id order.
        for req in to_reroute {
            self.route(req, now, true);
        }
        for req in displaced {
            self.route(req, now, false);
        }
    }

    /// Health observation at a request's completion: device-lost drains
    /// the device; transient faults feed the breaker window; a finishing
    /// probe decides re-admission.
    fn observe_completion(&mut self, req: usize, now: SimTime) {
        // A lone device has no device to fail over to, so it acts on no
        // health observation: it never trips, quarantines or drains.
        if self.devices.len() == 1 {
            return;
        }
        let Some(device) = self.requests[req].assigned else { return };
        let faults = self.requests[req].metrics.faults;
        let was_probe = self.requests[req].probe;
        if was_probe {
            self.devices[device].probe = None;
            self.requests[req].probe = false;
        }
        if !self.requests[req].participants.is_empty() {
            // Cross-device: health is attributed per participant, not to
            // the coordinator. The exchange already re-ran each lost
            // participant's partitions on an adopter, so the only fleet
            // action left is draining the devices it observed lost.
            // Transient exchange faults skip the coordinator's breaker —
            // they happened fleet-wide, not on one device.
            let lost = std::mem::take(&mut self.requests[req].lost_participants);
            for d in lost {
                self.device_lost(d, now);
            }
            return;
        }
        if faults.device_lost {
            self.device_lost(device, now);
            return;
        }
        let d = &mut self.devices[device];
        let transient = (faults.transfer_faults + faults.kernel_faults) as usize;
        for _ in 0..transient {
            d.window.push_back(now);
        }
        match d.health() {
            DeviceHealth::Healthy | DeviceHealth::Degraded => {
                if d.window.len() >= BREAKER_THRESHOLD {
                    self.trip(device, now);
                } else if transient > 0 && d.health() == DeviceHealth::Healthy {
                    d.transition(DeviceHealth::Degraded, now, &mut self.timeline);
                }
            }
            DeviceHealth::Quarantined if was_probe => {
                if transient == 0 {
                    // Clean probe: the device re-admits with a clear
                    // record.
                    d.window.clear();
                    d.transition(DeviceHealth::Healthy, now, &mut self.timeline);
                } else {
                    // Faulty probe: re-arm the cooldown.
                    d.half_open_at = now + QUARANTINE_COOLDOWN;
                }
            }
            _ => {}
        }
    }

    /// Slide breaker windows forward and let drained-out Degraded devices
    /// recover to Healthy.
    fn health_maintenance(&mut self, now: SimTime) {
        for d in self.devices.iter_mut() {
            while d.window.front().is_some_and(|&t| t + BREAKER_WINDOW <= now) {
                d.window.pop_front();
            }
            if d.health() == DeviceHealth::Degraded && d.window.is_empty() {
                d.transition(DeviceHealth::Healthy, now, &mut self.timeline);
            }
        }
    }

    /// Accounting invariants, audited at every event time: per-device
    /// used ≤ capacity, fleet-wide used ≤ capacity, and lost devices at
    /// exactly zero. Violations are typed entries, never panics.
    fn audit(&mut self, now: SimTime) {
        let mut fleet_used = 0u64;
        let mut fleet_capacity = 0u64;
        for (i, d) in self.devices.iter().enumerate() {
            fleet_used += d.memory.used();
            fleet_capacity += d.memory.capacity();
            if d.memory.used() > d.memory.capacity() {
                self.invariants.push(format!(
                    "device {i} over capacity at {now}: {} B of {} B",
                    d.memory.used(),
                    d.memory.capacity()
                ));
            }
            if d.health() == DeviceHealth::Lost && d.memory.used() != 0 {
                self.invariants
                    .push(format!("lost device {i} still accounts {} B at {now}", d.memory.used()));
            }
        }
        if fleet_used > fleet_capacity {
            self.invariants.push(format!(
                "fleet over capacity at {now}: {fleet_used} B of {fleet_capacity} B"
            ));
        }
    }

    fn run(mut self) -> ServiceReport {
        for (c, client) in self.workload.iter().enumerate() {
            if !client.requests.is_empty() {
                self.calendar.schedule(SimTime::ZERO, Event::Submit { client: c, index: 0 });
            }
        }

        while let Some(((now, _), event)) = self.calendar.events.pop_first() {
            match event {
                Event::Submit { client, index } => self.on_submit(client, index, now),
                Event::Retry => {}
                Event::Complete { req, epoch } => self.on_complete(req, epoch, now),
                Event::Deadline { req } => self.on_deadline(req, now),
            }
            // Handle every event at `now` in sequence order, then run one
            // admission wave over the resulting queue state.
            if self.calendar.events.first_key_value().is_some_and(|(&(at, _), _)| at == now) {
                continue;
            }

            self.health_maintenance(now);

            // Backpressure release: parked requests re-route in FIFO
            // order as queue room opens up (or devices change state).
            for _ in 0..self.parked.len() {
                let Some(req) = self.parked.pop_front() else { break };
                if self.requests[req].done {
                    continue;
                }
                let open_queue = self
                    .devices
                    .iter()
                    .any(|d| d.health().serving() && d.queue.len() < self.config.queue_depth);
                if open_queue || !self.devices.iter().any(|d| d.health().serving()) {
                    self.route(req, now, false);
                } else {
                    self.parked.push_back(req);
                }
            }

            // Admission wave, device by device in id order.
            let mut batch: Vec<usize> = Vec::new();
            for device in 0..self.devices.len() {
                if self.devices[device].health() == DeviceHealth::Lost {
                    continue;
                }
                self.admission_wave(device, now, &mut batch);
            }

            // The CPU lane joins the execution batch unconditionally.
            let cpu: Vec<usize> = std::mem::take(&mut self.cpu_queue);
            batch.extend(cpu.iter().copied());
            for &req in &cpu {
                let st = &mut self.requests[req];
                st.metrics.admitted_at = now;
                st.metrics.device_used_at_admit = 0;
                st.metrics.device = None;
            }

            if !batch.is_empty() {
                self.execute_batch(&batch, now);
            }
            for d in self.devices.iter_mut() {
                d.sample(now, &mut self.timeline);
            }
            self.audit(now);
        }

        self.finish()
    }

    fn on_submit(&mut self, client: usize, index: usize, now: SimTime) {
        // Take the query's inputs from the lookahead (materialize them
        // here on a miss) and plan it: a single join sizes its two
        // relations; a plan sizes its root join.
        let staged = self.lookahead.take(client, index);
        let (inputs, build, plan, planned) = match &self.workload[client].requests[index] {
            QuerySpec::Join(spec) => {
                let join = match staged {
                    Some(Inputs::Join(join)) => join,
                    _ => JoinInputs::generate(spec),
                };
                let r_builds = build_is_left(&join.r, &join.s);
                let (b, p) = if r_builds { (&join.r, &join.s) } else { (&join.s, &join.r) };
                let planned = self.plan_join(b.bytes(), p.bytes());
                (Some(join), spec.build.filter(|_| r_builds), None, planned)
            }
            QuerySpec::Plan(plan) => {
                let scans = match staged {
                    Some(Inputs::Plan(scans)) => scans,
                    _ => generate_scans(plan),
                };
                let work =
                    PlanWork { scans: Some(scans), spec: plan.clone(), degrade: 0, run: None };
                let planned = planned_root(self.engine, plan);
                (None, None, Some(work), planned)
            }
        };
        let id = self.requests.len();
        self.requests.push(FleetRequest {
            metrics: RequestMetrics::submitted(client, index, now, planned),
            inputs,
            level: planned,
            attempts: 0,
            eligible_at: now,
            reservation: None,
            build,
            hit: None,
            install: None,
            plan,
            done: false,
            assigned: None,
            running: false,
            epoch: 0,
            probe: false,
            cpu: false,
            extra_reservations: Vec::new(),
            participants: Vec::new(),
            lost_participants: Vec::new(),
        });
        if let Some(budget) = self.config.deadline {
            self.calendar.schedule(now + budget, Event::Deadline { req: id });
        }
        self.route(id, now, false);
    }

    fn on_complete(&mut self, req: usize, epoch: u32, now: SimTime) {
        if self.requests[req].done || self.requests[req].epoch != epoch {
            // Deadline-cancelled, or drained off a lost device and
            // re-dispatched under a newer epoch.
            return;
        }
        let st = &mut self.requests[req];
        st.done = true;
        st.running = false;
        st.metrics.completed_at = now;
        st.reservation = None; // frees the accounted bytes
        st.extra_reservations.clear();
        st.hit = None; // unpin the cached table, if any
        st.inputs = None;
        let mut installs: Vec<(BuildRef, CachedBuild)> =
            st.build.zip(st.install.take()).into_iter().collect();
        let plan_run = st.plan.as_mut().and_then(|pw| pw.run.take());
        let (client, index, device) = (st.metrics.client, st.metrics.index, st.assigned);
        self.makespan = self.makespan.max(now);

        self.draw_completion(req, plan_run.as_ref().map(|run| &run.ops[..]));
        if let Some(run) = plan_run {
            // Pinned intermediates leave the device; the plan's installs
            // land with a single join's below.
            let PlanRun { ops, pins, installs: built, .. } = run;
            self.requests[req].metrics.plan_ops = ops;
            drop(pins);
            installs.extend(built);
        }
        if let Some(d) = device {
            // Install what a cache-miss execution built, now that the
            // request's own reservation is released — unless the device
            // died while it ran (nothing to install into).
            let da = &mut self.devices[d];
            if da.health() != DeviceHealth::Lost {
                if let Some(c) = da.cache.as_mut() {
                    for (b, built) in installs {
                        c.insert(b, &da.memory, built);
                    }
                }
            }
            da.rollup.completed += 1;
        }
        self.observe_completion(req, now);
        self.next_submit(client, index, now);
    }

    /// Draw a finished request: its queue wait on the client track, then
    /// its executed joins — the single join, or every join op of a plan,
    /// with their cache-hit and fault marks — on the client track and on
    /// the lane track it ran on.
    fn draw_completion(&mut self, req: usize, ops: Option<&[OpReport]>) {
        let [client_track, lane] = self.tracks_of(req);
        let m = &self.requests[req].metrics;
        let (client, index, admitted) = (m.client, m.index, m.admitted_at);
        if m.queue_wait() > SimTime::ZERO {
            self.timeline.span(
                client_track,
                format!("wait r{client}.{index}"),
                0,
                m.submitted_at,
                admitted,
            );
        }
        let Some(ops) = ops else {
            if let Some(executed) = m.executed {
                for track in [client_track, lane] {
                    self.timeline.span(
                        track,
                        format!("{executed} r{client}.{index}"),
                        executed.rank() as u32 + 1,
                        admitted,
                        m.completed_at,
                    );
                }
            }
            return;
        };
        for op in ops.iter().filter(|op| op.kind == "join") {
            let (name, class) = match op.executed {
                Some(e) => (format!("op{} {e} r{client}.{index}", op.op), e.rank() as u32 + 1),
                None => (format!("op{} failed r{client}.{index}", op.op), 9),
            };
            let start = admitted + op.start;
            for track in [client_track, lane] {
                self.timeline.span(track, name.clone(), class, start, admitted + op.finish);
                if op.cache_role == CacheRole::Hit && op.error.is_none() {
                    let hit = format!("cache hit r{client}.{index} op{}", op.op);
                    self.timeline.instant(track, hit, 10, start);
                }
                for (offset, label) in &op.fault_marks {
                    self.timeline.instant(track, label.clone(), 8, start + *offset);
                }
            }
        }
    }

    fn on_deadline(&mut self, req: usize, now: SimTime) {
        if self.requests[req].done {
            return; // completed in time; stale timer
        }
        // Cancel cleanly wherever the request is: parked, queued, backing
        // off, or mid-execution. Everything it holds is released *now*, so
        // the expired request stops occupying the device.
        let st = &mut self.requests[req];
        st.done = true;
        st.running = false;
        st.epoch += 1; // stale any in-flight Complete
        st.release();
        st.inputs = None;
        st.plan = None;
        st.metrics.completed_at = now;
        st.metrics.error = Some(
            JoinError::DeadlineExceeded {
                deadline: self.config.deadline.unwrap_or(SimTime::ZERO),
                elapsed: now - st.metrics.submitted_at,
            }
            .tag(),
        );
        st.metrics.check_ok = false;
        self.makespan = self.makespan.max(now);
        let (client, index) = (st.metrics.client, st.metrics.index);
        let assigned = st.assigned;
        let was_probe = st.probe;
        st.probe = false;
        if let Some(d) = assigned {
            self.devices[d].queue.retain(|&id| id != req);
            if was_probe {
                self.devices[d].probe = None;
            }
        }
        self.parked.retain(|&id| id != req);
        self.cpu_queue.retain(|&id| id != req);
        self.timeline.instant(self.clients[client], format!("deadline r{client}.{index}"), 9, now);
        self.next_submit(client, index, now);
    }

    /// Try to admit one cross-device request coordinated by `device`:
    /// reserve one exchange-share envelope on every participant (coord-
    /// inator first, then serving devices clockwise in id order), or back
    /// off — eventually degrading onto the single-device ladder. Any
    /// reservation failure releases every partial hold before returning.
    /// Returns `true` when the request entered `batch`.
    fn admit_cross(
        &mut self,
        device: usize,
        id: usize,
        now: SimTime,
        batch: &mut Vec<usize>,
    ) -> bool {
        if self.requests[id].eligible_at > now {
            return false;
        }
        let PlannedStrategy::CrossDevice(n) = self.requests[id].level else { return false };
        let serving = self.serving_devices();
        let Some(pos) = serving.iter().position(|&d| d == device).filter(|_| serving.len() >= n)
        else {
            // The fleet shrank below the planned width: step down to the
            // single-device ladder; the wave admits it this round.
            let st = &mut self.requests[id];
            st.level = st.level.degraded().unwrap_or(PlannedStrategy::CpuFallback);
            return false;
        };
        let participants: Vec<usize> =
            (0..serving.len()).map(|k| serving[(pos + k) % serving.len()]).take(n).collect();
        let Some((b, p)) = self.requests[id].sides() else { return false };
        let share = self.engine.cross_device_share(b.bytes(), p.bytes(), n);
        let mut holds: Vec<Reservation> = Vec::with_capacity(n);
        for &d in &participants {
            match self.devices[d].reserve(share, None) {
                Some(res) => holds.push(res),
                None => {
                    drop(holds); // release every partial hold
                    self.requests[id].reject(now, &mut self.calendar);
                    return false;
                }
            }
        }
        let used = self.devices[device].memory.used();
        let st = &mut self.requests[id];
        st.admit(holds.remove(0), device, used, now);
        st.extra_reservations = holds;
        st.participants = participants;
        self.devices[device].rollup.admitted += 1;
        batch.push(id);
        true
    }

    /// One device's admission wave: scan its queue in order, reserve
    /// against its accountant (reclaiming its cache under pressure) and
    /// back off or degrade on rejection. Requests still backing off are
    /// skipped, and a request no remaining rung fits on this device even
    /// when idle fails `out-of-device-memory` at once.
    fn admission_wave(&mut self, device: usize, now: SimTime, batch: &mut Vec<usize>) {
        let mut queue = std::mem::take(&mut self.devices[device].queue);
        // Cross-device pre-pass: exchange requests reserve one envelope on
        // *every* participant, so they are admitted before the retain loop
        // below takes its exclusive borrow of this device.
        if self.fleet.exchange {
            let mut rest = VecDeque::with_capacity(queue.len());
            while let Some(id) = queue.pop_front() {
                let is_cross = self.requests[id].plan.is_none()
                    && matches!(self.requests[id].level, PlannedStrategy::CrossDevice(_));
                if !is_cross || !self.admit_cross(device, id, now, batch) {
                    rest.push_back(id);
                }
            }
            queue = rest;
        }
        let engine = self.engine;
        let d = &mut self.devices[device];
        let requests = &mut self.requests;
        let invariants = &mut self.invariants;
        let calendar = &mut self.calendar;
        let mut refused: Vec<(usize, u64)> = Vec::new();
        queue.retain(|&id| {
            let st = &mut requests[id];
            if st.eligible_at > now {
                return true;
            }
            let admitted = if let Some(pw) = st.plan.as_ref() {
                // A plan reserves its worst single-join envelope at the
                // current degrade level: its joins run one wave at a time
                // against this same accountant, and pins reserve
                // separately.
                d.reserve(plan_envelope(engine, &pw.spec, pw.degrade), None)
                    .map(|res| (res, CacheRole::None))
            } else {
                let Some((build, probe)) = st.sides() else {
                    // "Cannot happen": only undone requests sit in a
                    // queue, and undone requests keep their inputs.
                    // Record it, fail the request typed, and drop it.
                    invariants.push(format!("queued request {id} has no inputs at {now}"));
                    st.metrics.error = Some(JoinError::Internal { detail: String::new() }.tag());
                    st.metrics.completed_at = now;
                    st.done = true;
                    return false;
                };
                // Only a request whose named side really builds consults
                // the cache. A hit reserves its probe beside its own
                // table, which no reclaim may evict. When the two exceed
                // the device the hit can never admit (degrading its rung
                // does not shrink a hit's estimate), so it runs as a miss
                // at its rung instead.
                let role = match (d.cache.as_mut(), st.build) {
                    (Some(c), Some(b)) => {
                        let probe_bytes = engine.cached_probe_estimate(probe);
                        let capacity = d.memory.capacity();
                        let resident = st.level == PlannedStrategy::GpuResident;
                        c.consult(b, resident, |table| probe_bytes + table <= capacity)
                    }
                    _ => CacheRole::None,
                };
                // A hit reserves only its probe-side footprint (its table
                // is already reserved by the cache entry), and the reclaim
                // making room for it must spare that entry.
                let (estimate, protect) = match role {
                    CacheRole::Hit => (engine.cached_probe_estimate(probe), st.build.map(|b| b.id)),
                    _ => (
                        engine.footprint_estimate_sized(st.level, build.bytes(), probe.bytes()),
                        None,
                    ),
                };
                d.reserve(estimate, protect).map(|res| (res, role))
            };
            let Some((res, mut role)) = admitted else {
                let smallest = st.smallest_estimate(engine);
                if smallest > d.memory.capacity() {
                    refused.push((id, smallest));
                    return false;
                }
                st.reject(now, calendar);
                return true;
            };
            st.admit(res, device, d.memory.used(), now);
            // Record the cache outcome once, at successful admission, so
            // backoff retries don't inflate the hit/miss counts.
            if let (Some(c), Some(b)) = (d.cache.as_mut(), st.build) {
                let (recorded, table) = c.record(b, role);
                if recorded != role {
                    // "Cannot happen": the entry was consulted in this
                    // same wave. `record` degraded it to a bypass.
                    invariants.push(format!(
                        "cache hit for request {id} vanished before pinning at {now}"
                    ));
                }
                role = recorded;
                st.hit = table;
            }
            st.metrics.cache_role = role;
            d.rollup.admitted += 1;
            batch.push(id);
            false
        });
        self.devices[device].queue = queue;
        for (id, requested) in refused {
            let memory = &self.devices[device].memory;
            let oom = OutOfDeviceMemory {
                requested,
                available: memory.available(),
                capacity: memory.capacity(),
            };
            let m = &self.requests[id].metrics;
            let (c, i) = (m.client, m.index);
            self.timeline.instant(self.clients[c], format!("refused r{c}.{i}"), 9, now);
            self.fail(id, JoinError::OutOfDeviceMemory(oom).tag(), now);
        }
    }

    /// Execute the admitted batch from the loop thread: single joins
    /// (device lanes and the CPU lane) in batch order, then cross-device
    /// joins, then plans, each settling onto its request as it finishes.
    fn execute_batch(&mut self, batch: &[usize], now: SimTime) {
        let (plans, rest): (Vec<usize>, Vec<usize>) =
            batch.iter().partition(|&&id| self.requests[id].plan.is_some());
        let (cross, singles): (Vec<usize>, Vec<usize>) =
            rest.into_iter().partition(|&id| !self.requests[id].participants.is_empty());

        // A single join whose named build side runs GPU-resident stages
        // and builds (its inputs arrive from the host per request, so h2d
        // traffic is modeled whether or not the cache is on), and only an
        // `Install` keeps the table it built. A cross-device join's
        // request id salts the per-participant fault streams,
        // decorrelating requests.
        for &id in singles.iter().chain(&cross) {
            let st = &self.requests[id];
            let exec = match st.inputs.as_ref() {
                Some(inputs) if st.participants.is_empty() => {
                    let job = JoinJob {
                        r: &inputs.r,
                        s: &inputs.s,
                        expected: inputs.check,
                        start: if st.cpu { PlannedStrategy::CpuFallback } else { st.level },
                        hit: st.hit.as_deref().map(|table| &table.build),
                        stage: !st.cpu
                            && st.build.is_some()
                            && st.level == PlannedStrategy::GpuResident,
                        keep_build: st.metrics.cache_role == CacheRole::Install,
                        resident: (false, false),
                    };
                    // The CPU lane never consults the fault plan, so it
                    // keeps the plain engine.
                    let reseeded =
                        st.metrics.device.and_then(|device| reseeded(self.engine, device, id));
                    job.run(reseeded.as_ref().unwrap_or(self.engine))
                }
                Some(inputs) => {
                    let participants: Vec<ExchangeParticipant> = st
                        .participants
                        .iter()
                        .map(|&d| ExchangeParticipant { device: d, spec: self.spec_of(d).clone() })
                        .collect();
                    Executed::exchange(self.engine, &participants, inputs, id as u64)
                }
                // Admission just verified the inputs.
                None => self.internal(format!("admitted request {id} has no inputs")),
            };
            self.settle(id, exec, now);
        }

        // Plans: one at a time, against their device's accountant and
        // cache, reseeded per (device, request) and again per op.
        for &id in &plans {
            let st = &mut self.requests[id];
            let (Some(pw), Some(device)) = (st.plan.as_mut(), st.metrics.device) else {
                let exec =
                    self.internal(format!("admitted plan request {id} has no device at {now}"));
                self.settle(id, exec, now);
                continue;
            };
            let scans = pw.take_scans();
            let reseeded = reseeded(self.engine, device, id);
            let engine = reseeded.as_ref().unwrap_or(self.engine);
            let d = &mut self.devices[device];
            let run =
                execute_plan(engine, &pw.spec, scans, pw.degrade, &d.memory, d.cache.as_mut());
            let exec = Executed::plan(&run);
            // Held until completion: its pins keep intermediates reserved
            // and its installs await the cache.
            pw.run = Some(run);
            self.settle(id, exec, now);
        }
    }

    /// Record a broken "cannot happen" invariant, and fail the execution
    /// that hit it with the `internal` tag.
    fn internal(&mut self, violation: String) -> Executed {
        self.invariants.push(violation);
        Executed::failed(JoinError::Internal { detail: String::new() }.tag())
    }

    /// The one place an execution lands on its request: its metrics (a
    /// single join's cache role counted as one hit or miss), its cache-hit
    /// and fault marks, and its completion `exec.duration` after `now`.
    fn settle(&mut self, id: usize, exec: Executed, now: SimTime) {
        let tracks = self.tracks_of(id);
        let st = &mut self.requests[id];
        let m = &mut st.metrics;
        m.executed = exec.strategy;
        m.check_ok = exec.check_ok;
        m.matches = exec.matches;
        m.faults = exec.faults;
        m.counters = exec.counters;
        m.error = exec.error;
        m.cache_role.count(&mut m.counters.cache);
        st.install = exec.install;
        st.lost_participants = exec.lost;
        st.running = true; // the CPU lane admits a request as it executes
        let (client, index, admitted) = (m.client, m.index, m.admitted_at);
        let hit = m.cache_role == CacheRole::Hit && m.error.is_none();
        let epoch = st.epoch;
        for track in tracks {
            if hit {
                self.timeline.instant(track, format!("cache hit r{client}.{index}"), 10, admitted);
            }
            for (offset, label) in &exec.fault_marks {
                self.timeline.instant(track, label.clone(), 8, admitted + *offset);
            }
        }
        // Inputs stay held until the Complete finalizes: a device loss
        // mid-flight drains the request, and the re-dispatch on the
        // adopting device needs them (and `replan_for` sizes the degraded
        // strategy from them).
        self.calendar.schedule(now + exec.duration, Event::Complete { req: id, epoch });
    }

    /// Drain bookkeeping into the final [`ServiceReport`].
    fn finish(mut self) -> ServiceReport {
        // Release anything stranded; a healthy run has nothing left to
        // release, and the leak audit below then reads zero.
        for st in self.requests.iter_mut() {
            st.release();
        }
        let mut fleet_cache: Option<CacheReport> = None;
        for d in self.devices {
            let mut rollup = d.rollup;
            rollup.cache = d.cache.as_ref().map(|c| c.report());
            if let Some(r) = rollup.cache {
                let agg = fleet_cache.get_or_insert(CacheReport {
                    counters: Default::default(),
                    peak_bytes: 0,
                    bytes_at_end: 0,
                    entries_at_end: 0,
                });
                agg.counters.absorb(&r.counters);
                agg.peak_bytes += r.peak_bytes;
                agg.bytes_at_end += r.bytes_at_end;
                agg.entries_at_end += r.entries_at_end;
            }
            drop(d.cache); // release cached reservations before the audit
            rollup.peak_bytes = d.memory.peak();
            rollup.used_at_end = d.memory.used();
            self.rollup.devices.push(rollup);
        }
        let sum = |field: fn(&DeviceRollup) -> u64| self.rollup.devices.iter().map(field).sum();
        ServiceReport {
            makespan: self.makespan,
            device_peak: sum(|d| d.peak_bytes),
            device_capacity: sum(|d| d.capacity),
            device_used_at_end: sum(|d| d.used_at_end),
            invariant_violations: self.invariants,
            cache: fleet_cache,
            fleet: Some(self.rollup),
            timeline: self.timeline,
            requests: self.requests.into_iter().map(|st| st.metrics).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::mixed_workload;
    use hcj_core::GpuJoinConfig;
    use hcj_gpu::faults::FaultConfig;
    use hcj_gpu::DeviceSpec;

    fn small_engine(faults: Option<FaultConfig>) -> HcjEngine {
        let device = DeviceSpec::gtx1080().scaled_capacity(1 << 14);
        let mut cfg =
            GpuJoinConfig::paper_default(device).with_radix_bits(8).with_tuned_buckets(8_000);
        if let Some(f) = faults {
            cfg = cfg.with_faults(f);
        }
        HcjEngine::new(cfg)
    }

    #[test]
    fn ring_points_are_domain_separated_from_small_keys() {
        // Regression: ring points hashed `(d << 32) | r`, so device 0's
        // points were `mix64(0..replicas)` — exactly where small client
        // ids hash — and every tenant below `replicas` routed to device
        // 0. The top-bit tag makes small keys spread.
        let ring = Ring::weighted((0..3).map(|d| (d, RING_REPLICAS)));
        let mut seen = [0usize; 3];
        for key in 0..16u64 {
            seen[ring.route(key, |_| true).expect("all eligible")] += 1;
        }
        assert!(seen.iter().all(|&n| n > 0), "16 tenants spread over 3 devices: {seen:?}");
    }

    #[test]
    fn ring_route_skips_ineligible_devices_and_is_stable() {
        let ring = Ring::weighted((0..4).map(|d| (d, RING_REPLICAS)));
        for key in 0..64u64 {
            let primary = ring.route(key, |_| true).unwrap();
            // Knocking out the primary moves the key elsewhere...
            let fallback = ring.route(key, |d| d != primary).unwrap();
            assert_ne!(fallback, primary);
            // ...while keys are sticky: the same key always maps the same
            // way under the same eligibility.
            assert_eq!(ring.route(key, |_| true).unwrap(), primary);
            assert_eq!(ring.route(key, |d| d != primary).unwrap(), fallback);
        }
        assert!(ring.route(7, |_| false).is_none(), "no eligible device, no route");
    }

    #[test]
    fn breaker_trips_and_probe_readmits_under_heavy_transients() {
        // Transient-heavy, loss-free chaos: kernel faults at 40x the
        // chaos default with device-lost disabled. Breakers must trip at
        // least once, every tripped device must record its Quarantined
        // transition, and — since faults are transient — every request
        // still completes oracle-correct.
        let cfg =
            FaultConfig { kernel_fault_p: 0.6, device_lost_p: 0.0, ..FaultConfig::disabled(3) };
        let svc = FleetService::new(
            small_engine(Some(cfg)),
            ServiceConfig::default(),
            FleetConfig::new(3),
        );
        let workload = mixed_workload(12, 20, 1_000, 9);
        let report = svc.run(&workload);
        let summary = report.summary();
        let fleet = report.fleet.as_ref().expect("rollup present");
        assert!(fleet.breaker_trips >= 1, "heavy transients must trip a breaker:\n{summary}");
        assert_eq!(fleet.lost(), 0, "no loss was armed:\n{summary}");
        assert_eq!(report.completed(), 240, "transients never lose requests:\n{summary}");
        assert_eq!(report.checks_passed(), 240, "oracle holds under faults:\n{summary}");
        assert!(report.invariant_violations.is_empty(), "{:?}", report.invariant_violations);
        for d in &fleet.devices {
            if d.breaker_trips > 0 {
                assert!(
                    d.transitions.iter().any(|(_, h)| *h == DeviceHealth::Quarantined),
                    "device {} tripped without recording it:\n{summary}",
                    d.id
                );
            }
        }
    }

    #[test]
    fn lone_device_acts_on_no_health_observation() {
        // The heavy transients that trip a 3-device fleet's breakers, then
        // a chaos plan that arms sticky device-lost: a fleet of one device
        // has nowhere to fail over to, so it never trips, quarantines,
        // drains or spills to the CPU lane. Every fault plays out inside
        // its own request, and every request is accounted for.
        let heavy =
            FaultConfig { kernel_fault_p: 0.6, device_lost_p: 0.0, ..FaultConfig::disabled(3) };
        for faults in [heavy, FaultConfig::chaos(23)] {
            let svc = FleetService::new(
                small_engine(Some(faults)),
                ServiceConfig::default(),
                FleetConfig::new(1),
            );
            let report = svc.run(&mixed_workload(12, 20, 1_000, 9));
            let summary = report.summary();
            let fleet = report.fleet.as_ref().expect("rollup present");
            assert_eq!(fleet.breaker_trips, 0, "a lone device never trips:\n{summary}");
            assert_eq!(fleet.lost(), 0, "a lone device is never lost:\n{summary}");
            assert_eq!(fleet.drained, 0, "a lone device never drains:\n{summary}");
            assert_eq!(fleet.cpu_spilled, 0, "a lone device never spills:\n{summary}");
            assert!(fleet.devices[0].transitions.is_empty(), "{:?}", fleet.devices[0].transitions);
            let accounted = report.completed() + report.deadline_exceeded() + report.errored();
            assert_eq!((report.requests.len(), accounted), (240, 240), "{summary}");
            assert_eq!(report.checks_passed(), report.completed(), "{summary}");
            assert!(report.invariant_violations.is_empty(), "{:?}", report.invariant_violations);
        }
    }

    #[test]
    fn single_device_fleet_matches_structure_and_completes() {
        // A 1-device fleet is the degenerate topology: no spill targets,
        // no failover — everything lands on device 0 and completes.
        let svc =
            FleetService::new(small_engine(None), ServiceConfig::default(), FleetConfig::new(1));
        let report = svc.run(&mixed_workload(4, 5, 1_000, 7));
        let fleet = report.fleet.as_ref().expect("rollup present");
        assert_eq!(fleet.devices.len(), 1);
        assert_eq!(fleet.devices[0].admitted, 20);
        assert_eq!(report.completed(), 20);
        assert_eq!(report.checks_passed(), 20);
    }

    #[test]
    fn oversized_join_completes_as_a_cross_device_exchange() {
        // 20k ⨝ 40k tuples = 480 KB of inputs against 512 KB devices:
        // no single device fits the resident join, but two exchange
        // shares do. With exchange on the planner must go cross-device,
        // the join must complete oracle-correct, and the exchange bytes
        // must surface in the (conditional) summary lines.
        use crate::service::RequestSpec;
        use hcj_workload::RelationSpec;
        let workload = vec![ClientSpec {
            requests: vec![QuerySpec::Join(RequestSpec {
                r: RelationSpec::unique(20_000, 31),
                s: RelationSpec::unique(40_000, 32),
                build: None,
            })],
        }];
        let exchanged = FleetService::new(
            small_engine(None),
            ServiceConfig::default(),
            FleetConfig::new(3).with_exchange(),
        )
        .run(&workload);
        let summary = exchanged.summary();
        assert_eq!(exchanged.completed(), 1, "{summary}");
        assert_eq!(exchanged.checks_passed(), 1, "{summary}");
        assert_eq!(exchanged.cross_device(), 1, "planner kept it single-device:\n{summary}");
        assert!(summary.contains("executed cross-device"), "{summary}");
        assert!(summary.contains("exchange out / in"), "{summary}");
        assert!(exchanged.invariant_violations.is_empty(), "{:?}", exchanged.invariant_violations);
        assert_eq!(exchanged.device_used_at_end, 0, "leaked exchange envelopes:\n{summary}");

        // The same workload with exchange off stays on the single-device
        // ladder and prints none of the conditional lines.
        let plain =
            FleetService::new(small_engine(None), ServiceConfig::default(), FleetConfig::new(3))
                .run(&workload);
        assert_eq!(plain.cross_device(), 0);
        assert!(!plain.summary().contains("cross-device"), "{}", plain.summary());
        assert!(!plain.summary().contains("exchange"), "{}", plain.summary());
        assert_eq!(plain.checks_passed(), 1, "{}", plain.summary());
    }

    #[test]
    fn heterogeneous_mix_sizes_devices_from_their_specs() {
        // GTX 1080 + V100 mix (both capacity-scaled): per-device capacity
        // must come from each device's own spec, and the mixed fleet must
        // still complete a mixed workload clean.
        let mix = vec![
            DeviceSpec::gtx1080().scaled_capacity(1 << 14),
            DeviceSpec::v100().scaled_capacity(1 << 14),
        ];
        let svc = FleetService::new(
            small_engine(None),
            ServiceConfig::default(),
            FleetConfig::new(0).with_device_mix(mix.clone()).with_exchange(),
        );
        let report = svc.run(&mixed_workload(6, 10, 1_000, 13));
        let fleet = report.fleet.as_ref().expect("rollup present");
        assert_eq!(fleet.devices.len(), 2);
        assert_eq!(fleet.devices[0].capacity, mix[0].device_mem_bytes);
        assert_eq!(fleet.devices[1].capacity, mix[1].device_mem_bytes);
        assert!(fleet.devices[1].capacity > fleet.devices[0].capacity, "v100 is bigger");
        assert_eq!(report.completed(), 60, "{}", report.summary());
        assert_eq!(report.checks_passed(), 60, "{}", report.summary());
        assert!(report.invariant_violations.is_empty(), "{:?}", report.invariant_violations);
    }

    #[test]
    fn a_failed_single_join_reports_no_matches() {
        // A co-tenant steals every free byte before each reservation the
        // execution makes, so every rung fails out-of-device-memory at run
        // time: the join reports its error and 0 matches, not the oracle's
        // count.
        use crate::service::RequestSpec;
        use hcj_workload::RelationSpec;
        let steal_all =
            FaultConfig { shrink_p: 1.0, shrink_fraction: 1.0, ..FaultConfig::disabled(1) };
        let workload = vec![ClientSpec {
            requests: vec![QuerySpec::Join(RequestSpec {
                r: RelationSpec::unique(2_000, 1),
                s: RelationSpec::unique(4_000, 2),
                build: None,
            })],
        }];
        let svc = FleetService::new(
            small_engine(Some(steal_all)),
            ServiceConfig::default(),
            FleetConfig::new(1),
        );
        let report = svc.run(&workload);
        let m = &report.requests[0];
        assert_eq!(m.error, Some("out-of-device-memory"), "{}", report.summary());
        assert_eq!((m.executed, m.check_ok, m.matches), (None, false, 0));
        assert_eq!(report.errored(), 1);
    }

    /// A workload of one client sending `query` to a lone 16-byte device:
    /// too small for even the co-processing floor (an 8-byte working set
    /// and two one-tuple chunk buffers). The deadline ends a request that
    /// backs off instead.
    fn on_a_16_byte_device(query: QuerySpec) -> ServiceReport {
        let device = DeviceSpec::gtx1080().scaled_capacity(1 << 29);
        assert_eq!(device.device_mem_bytes, 16);
        let engine = HcjEngine::new(
            GpuJoinConfig::paper_default(device).with_radix_bits(8).with_tuned_buckets(2_000),
        );
        let config = ServiceConfig::default().with_deadline(Some(SimTime::from_nanos(10_000_000)));
        let workload = vec![ClientSpec { requests: vec![query] }];
        FleetService::new(engine, config, FleetConfig::new(1)).run(&workload)
    }

    /// A request no rung fits fails at admission: typed, unretried and
    /// never run.
    fn assert_refused(report: &ServiceReport) {
        let summary = report.summary();
        let m = &report.requests[0];
        assert_eq!(m.error, Some("out-of-device-memory"), "{summary}");
        assert_eq!((m.retries, m.executed, m.check_ok, m.matches), (0, None, false, 0));
        assert_eq!(report.errored(), 1, "{summary}");
        assert_eq!(report.fleet.as_ref().map(|f| f.devices[0].admitted), Some(0));
        assert!(report.invariant_violations.is_empty(), "{:?}", report.invariant_violations);
    }

    #[test]
    fn a_join_no_rung_fits_fails_at_admission() {
        use crate::service::RequestSpec;
        use hcj_workload::RelationSpec;
        assert_refused(&on_a_16_byte_device(QuerySpec::Join(RequestSpec {
            r: RelationSpec::unique(2_000, 1),
            s: RelationSpec::unique(4_000, 2),
            build: None,
        })));
    }

    #[test]
    fn a_plan_no_rung_fits_fails_at_admission() {
        use hcj_workload::catalog::BuildCatalog;
        use hcj_workload::plan::chain_plan;
        let catalog = BuildCatalog::dimension_tables(2, 1_000, 3);
        assert_refused(&on_a_16_byte_device(QuerySpec::Plan(chain_plan(
            &catalog,
            &[0, 1],
            4_000,
            4,
        ))));
    }

    #[test]
    fn health_states_render_lowercase() {
        assert_eq!(DeviceHealth::Healthy.to_string(), "healthy");
        assert_eq!(DeviceHealth::Degraded.to_string(), "degraded");
        assert_eq!(DeviceHealth::Quarantined.to_string(), "quarantined");
        assert_eq!(DeviceHealth::Lost.to_string(), "lost");
    }
}
