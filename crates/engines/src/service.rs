//! A multi-tenant join service over the shared simulated GPU.
//!
//! The ROADMAP's north star is a system serving heavy join traffic, not a
//! benchmark that owns the device. This module adds the missing layer: a
//! service that accepts a stream of join requests from many clients and
//! arbitrates the one device between them, the concurrency regime studied
//! by He et al. (co-processing under shared memory) and Shanbhag et al.
//! (contended-device crossovers).
//!
//! This module holds the service's vocabulary — workloads, per-request
//! metrics, the report — and [`JoinService`], which runs the event loop
//! of [`crate::fleet`] on one device. There is one loop; a fleet of N
//! devices adds routing and failover on top of the same admission path.
//!
//! Design:
//!
//! * **Admission control.** Before a request may dispatch, the service
//!   takes a [`hcj_gpu::DeviceMemory`] reservation for the planner's
//!   footprint estimate of the request's current strategy
//!   ([`HcjEngine::footprint_estimate_sized`]): that strategy's own
//!   footprint rule in `hcj-core`, with partition pools modeled at 1.3x
//!   their inputs. The reservation is held for the whole simulated
//!   execution and freed on completion, so concurrently admitted requests
//!   can never oversubscribe the modeled 8 GB part. Executions are not
//!   bounded by it: a real pool can outgrow its model, and the execution
//!   then degrades at run time.
//! * **Backpressure.** The dispatch queue has bounded depth; submissions
//!   beyond it park in a FIFO of blocked clients and enter the queue as
//!   slots free (closed-loop clients stall, they are not dropped).
//! * **Backoff + degradation.** A rejected reservation retries with capped
//!   exponential backoff ([`BACKOFF_BASE`] doubling up to [`BACKOFF_CAP`]);
//!   after [`MAX_RETRIES`] failures at one rung the request degrades down
//!   the strategy ladder (resident → streamed → co-processing) and starts
//!   over. Co-processing is the floor; it fits every idle device of about
//!   48 B and up, so there every request eventually admits once running
//!   work drains. A request that no remaining rung fits even on the idle
//!   device fails `out-of-device-memory` at admission without a retry —
//!   nothing panics, nothing starves forever.
//! * **Determinism.** The loop is single-threaded and runs in virtual
//!   time (a [`SimTime`]-keyed calendar with a tie-breaking sequence
//!   number), and it executes admitted batches itself. On a pool of two
//!   or more workers, one helper thread started by
//!   [`hcj_host::pool::Pool::beside`] materializes upcoming requests'
//!   inputs, which are pure functions of their specs. All reservations,
//!   queue moves and metric updates happen on the loop thread at
//!   deterministic virtual times, so the same seed reproduces the same
//!   admission decisions byte-for-byte at any `--jobs` value.
//! * **Deadlines.** With [`ServiceConfig::deadline`] set, every request
//!   carries a per-request virtual-time budget from submission. An expired
//!   request cancels cleanly wherever it is — parked, queued, backing off
//!   or mid-execution — releases its reservation immediately, and reports
//!   `deadline-exceeded`; its client moves on to the next request.
//! * **Typed invariants.** The event loop never panics on "cannot happen"
//!   states: broken internal invariants are recorded as typed
//!   [`hcj_gpu::JoinError::Internal`]-style violations, surfaced in the
//!   [`ServiceReport`] and its summary, and the run keeps going.
//! * **Observability.** Every request records queue wait, retries,
//!   planned vs. executed strategy, device occupancy at admission, and
//!   its device fault/retry counters; the whole run renders as one Chrome
//!   timeline ([`hcj_sim::Timeline`]) with a track per client, the
//!   device's execution and health tracks, its reserved- and cached-bytes
//!   counters, and instant markers for cache hits, injected faults and
//!   deadline cancellations.

use hcj_gpu::{CacheCounters, CounterRollup, FaultSummary};
use hcj_host::pool::Pool;
use hcj_sim::{SimTime, Timeline};
use hcj_workload::catalog::{BuildCatalog, BuildRef, PopularityStream};
use hcj_workload::generate::{KeyDistribution, RelationSpec};
use hcj_workload::plan::{chain_plan, star_plan, PlanSpec};
use hcj_workload::rng::{Rng, SmallRng};

use crate::cache::{BuildCacheConfig, CacheReport};
use crate::dag::OpReport;
use crate::facade::{HcjEngine, PlannedStrategy};
use crate::fleet::{serve, FleetConfig, FleetRollup};

/// Failed admissions tolerated per ladder rung before degrading.
pub const MAX_RETRIES: u32 = 3;

/// First admission-retry delay; doubles per failed attempt at the same
/// rung.
pub const BACKOFF_BASE: SimTime = SimTime::from_nanos(50_000);

/// Upper bound on any admission-retry delay.
pub const BACKOFF_CAP: SimTime = SimTime::from_nanos(5_000_000);

/// Closed-loop client think time between completion and next submit.
pub const THINK_TIME: SimTime = SimTime::from_nanos(10_000);

/// Tuning of the service layer (the engine config rides in [`HcjEngine`];
/// the retry policy and think time are the constants above).
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Dispatch-queue depth; submissions beyond it block their client.
    pub queue_depth: usize,
    /// Per-request virtual-time budget from submission; `None` = no
    /// deadline. Expired requests cancel cleanly (reservation released,
    /// `deadline-exceeded` reported) wherever they are in the pipeline.
    pub deadline: Option<SimTime>,
    /// Build-side cache policy; `None` disables the cache entirely (the
    /// service then behaves byte-for-byte as before the cache existed).
    pub cache: Option<BuildCacheConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { queue_depth: 8, deadline: None, cache: None }
    }
}

impl ServiceConfig {
    /// Set (or clear) the per-request completion deadline.
    pub fn with_deadline(mut self, deadline: Option<SimTime>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Enable (or disable) the device-resident build-side cache.
    pub fn with_cache(mut self, cache: Option<BuildCacheConfig>) -> Self {
        self.cache = cache;
        self
    }
}

/// One join a client wants to run: generator specs, not materialized
/// relations, so a whole workload is cheap to describe and perfectly
/// reproducible from its seeds.
#[derive(Clone, Debug)]
pub struct RequestSpec {
    /// Build-side relation recipe.
    pub r: RelationSpec,
    /// Probe-side relation recipe.
    pub s: RelationSpec,
    /// Catalog identity of the build side, when the request joins against
    /// a named, versioned relation ([`BuildRef`]). `None` means the build
    /// side is anonymous and can never be cached. Only honoured when `r`
    /// actually is the smaller (build) side.
    pub build: Option<BuildRef>,
}

/// One unit of client work: a single join, or a whole multi-join plan
/// executed as an operator DAG (scan → join → join → materialize).
/// Single joins follow exactly the pre-plan code paths, so workloads of
/// plain [`RequestSpec`]s behave byte-for-byte as before plans existed.
#[derive(Clone, Debug)]
pub enum QuerySpec {
    /// One join between two generated relations.
    Join(RequestSpec),
    /// A multi-join query plan (see [`hcj_workload::plan`]).
    Plan(PlanSpec),
}

impl From<RequestSpec> for QuerySpec {
    fn from(spec: RequestSpec) -> Self {
        QuerySpec::Join(spec)
    }
}

impl From<PlanSpec> for QuerySpec {
    fn from(plan: PlanSpec) -> Self {
        QuerySpec::Plan(plan)
    }
}

/// The request sequence of one closed-loop client.
#[derive(Clone, Debug, Default)]
pub struct ClientSpec {
    /// Requests issued back-to-back (closed loop: next after previous
    /// completes).
    pub requests: Vec<QuerySpec>,
}

/// A seeded mixed workload: `clients` closed-loop clients with
/// `per_client` requests each, relation sizes in
/// `[base_tuples, 4*base_tuples]`, probe sides 1–6x the build side, skew
/// drawn from {uniform, zipf 0.25/0.75/1.0} and payload widths from
/// {4, 16, 64} bytes. Build sides are unique-key relations and probe keys
/// stay in the build domain, so result cardinality equals the probe size
/// and oracle checks stay cheap.
pub fn mixed_workload(
    clients: usize,
    per_client: usize,
    base_tuples: usize,
    seed: u64,
) -> Vec<ClientSpec> {
    let thetas = [0.0, 0.25, 0.75, 1.0];
    let widths = [4u32, 16, 64];
    (0..clients)
        .map(|c| {
            let mut rng = SmallRng::seed_from_u64(seed ^ (c as u64).wrapping_mul(0x9E37_79B9));
            let requests = (0..per_client)
                .map(|i| {
                    let r_tuples = base_tuples * rng.gen_range_u64(1, 4) as usize;
                    let s_tuples = r_tuples * rng.gen_range_u64(1, 6) as usize;
                    let theta = thetas[rng.gen_range_u64(0, 3) as usize];
                    let width = widths[rng.gen_range_u64(0, 2) as usize];
                    let rs = seed
                        .wrapping_mul(0x100000001B3)
                        .wrapping_add((c as u64) << 20)
                        .wrapping_add(i as u64);
                    let r = RelationSpec::unique(r_tuples, rs).with_payload_width(width);
                    let s = RelationSpec {
                        tuples: s_tuples,
                        distribution: if theta == 0.0 {
                            KeyDistribution::UniformFk { distinct: r_tuples as u64 }
                        } else {
                            KeyDistribution::Zipf { distinct: r_tuples as u64, theta }
                        },
                        payload_width: width,
                        seed: rs ^ 0x5DEE_CE66,
                    };
                    RequestSpec { r, s, build: None }.into()
                })
                .collect();
            ClientSpec { requests }
        })
        .collect()
}

/// A seeded skewed-popularity serving workload over a shared
/// [`BuildCatalog`]: `clients` closed-loop clients draw the build side of
/// every request from a catalog of `catalog_size` dimension tables with
/// Zipf(`theta`) popularity (catalog index 0 is the hottest), so the same
/// few build sides recur across clients — the traffic shape the build
/// cache exists for. Probe sides are fresh per request: 2–5x the build
/// side, foreign keys uniform over the build side's *current* key domain.
/// Every `bump_every`-th draw first updates the drawn relation (content
/// version bump, key domain grows), so cached builds of the old version
/// go stale mid-run; `bump_every = 0` disables updates.
pub fn skewed_workload(
    clients: usize,
    per_client: usize,
    base_tuples: usize,
    catalog_size: usize,
    theta: f64,
    bump_every: usize,
    seed: u64,
) -> Vec<ClientSpec> {
    let mut catalog = BuildCatalog::dimension_tables(catalog_size, base_tuples, seed);
    let mut popularity = PopularityStream::new(catalog_size, theta, seed ^ 0xA5A5_5A5A);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0BAD_CAFE);
    let mut specs: Vec<ClientSpec> = vec![ClientSpec::default(); clients];
    // Draw slot-major (request 0 of every client, then request 1, ...):
    // that interleaving approximates the order closed-loop clients reach
    // each slot, so version bumps land mid-run for every client.
    let mut draw = 0usize;
    for _slot in 0..per_client {
        for (client, spec) in specs.iter_mut().enumerate() {
            draw += 1;
            let idx = popularity.next_index();
            if bump_every > 0 && draw % bump_every == 0 {
                catalog.bump_version(idx);
            }
            let rel = *catalog.get(idx);
            let s_tuples = rel.tuples() * rng.gen_range_u64(2, 5) as usize;
            let s = RelationSpec {
                tuples: s_tuples,
                distribution: KeyDistribution::UniformFk { distinct: rel.tuples() as u64 },
                payload_width: rel.payload_width,
                seed: seed
                    .wrapping_mul(0x100000001B3)
                    .wrapping_add((client as u64) << 24)
                    .wrapping_add(draw as u64),
            };
            spec.requests
                .push(RequestSpec { r: rel.spec(), s, build: Some(rel.build_ref()) }.into());
        }
    }
    specs
}

/// Shape of a generated multi-join plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanShape {
    /// Left-deep chain: each join probes the previous join's output.
    Chain,
    /// Star: every dimension joins the shared fact scan directly.
    Star,
}

/// A seeded multi-join serving workload over a shared [`BuildCatalog`]:
/// every request is a whole 2–4-join plan of the given `shape`, its
/// dimension sides drawn with Zipf(`theta`) popularity (so hot builds
/// recur across plans and the cache matters), its fact side
/// `2–4 x base_tuples` fresh foreign keys. Every `bump_every`-th plan
/// first bumps its hottest drawn dimension's content version, so cached
/// builds go stale mid-run; `bump_every = 0` disables updates.
#[allow(clippy::too_many_arguments)]
pub fn plan_workload(
    shape: PlanShape,
    clients: usize,
    per_client: usize,
    base_tuples: usize,
    catalog_size: usize,
    theta: f64,
    bump_every: usize,
    seed: u64,
) -> Vec<ClientSpec> {
    assert!(catalog_size >= 2, "plans need at least two dimension tables");
    let mut catalog = BuildCatalog::dimension_tables(catalog_size, base_tuples, seed);
    let mut popularity = PopularityStream::new(catalog_size, theta, seed ^ 0x517C_C1B7);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0DDB_A11E);
    let mut specs: Vec<ClientSpec> = vec![ClientSpec::default(); clients];
    // Slot-major draw order, like `skewed_workload`: approximates the
    // order closed-loop clients reach each slot, so version bumps land
    // mid-run for every client.
    let mut draw = 0usize;
    for _slot in 0..per_client {
        for spec in specs.iter_mut() {
            draw += 1;
            // 2-4 *distinct* popular dimensions per plan; popularity
            // redraws are bounded, with an arbitrary-but-deterministic
            // fallback for tiny catalogs.
            let want = (2 + rng.gen_range_u64(0, 2) as usize).min(catalog_size);
            let mut dims: Vec<usize> = Vec::with_capacity(want);
            for _ in 0..want * 8 {
                if dims.len() == want {
                    break;
                }
                let idx = popularity.next_index();
                if !dims.contains(&idx) {
                    dims.push(idx);
                }
            }
            while dims.len() < 2 {
                let next = (0..catalog_size).find(|i| !dims.contains(i)).unwrap_or(0);
                dims.push(next);
            }
            if bump_every > 0 && draw % bump_every == 0 {
                catalog.bump_version(dims[0]);
            }
            let fact = base_tuples * rng.gen_range_u64(2, 4) as usize;
            let plan_seed = seed.wrapping_mul(0x100000001B3).wrapping_add(draw as u64);
            let plan = match shape {
                PlanShape::Chain => chain_plan(&catalog, &dims, fact, plan_seed),
                PlanShape::Star => star_plan(&catalog, &dims, fact, plan_seed),
            };
            spec.requests.push(plan.into());
        }
    }
    specs
}

/// How the build cache participated in a request's admission.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CacheRole {
    /// Cache disabled, or the request named no build relation (or the
    /// named side was not actually the build side).
    #[default]
    None,
    /// Reused a resident cached build: probe-only execution against the
    /// pinned table.
    Hit,
    /// Missed; the execution built the table once and installed it for
    /// later requests.
    Install,
    /// Missed without installing: the request was not going to run
    /// GPU-resident, or it predates a fresher cached version.
    Bypass,
}

impl CacheRole {
    /// Count this role on `counters`: a hit is one hit, either kind of
    /// miss is one miss, the same events the cache's own counters count.
    pub(crate) fn count(self, counters: &mut CacheCounters) {
        match self {
            CacheRole::Hit => counters.hits += 1,
            CacheRole::Install | CacheRole::Bypass => counters.misses += 1,
            CacheRole::None => {}
        }
    }
}

/// Everything the service observed about one request.
#[derive(Clone, Debug)]
pub struct RequestMetrics {
    /// Which client issued the request.
    pub client: usize,
    /// Index within the client's request sequence.
    pub index: usize,
    /// Virtual time the client submitted the request.
    pub submitted_at: SimTime,
    /// Virtual time admission control let it onto the device.
    pub admitted_at: SimTime,
    /// Virtual time its result (or failure) was final.
    pub completed_at: SimTime,
    /// Failed admission attempts (reservation rejections).
    pub retries: u32,
    /// Whether the submission hit queue-depth backpressure.
    pub blocked: bool,
    /// What the planner chose on an idle device.
    pub planned: PlannedStrategy,
    /// What actually ran; `None` when even the co-processing floor failed
    /// at run time (only possible on absurdly tiny devices).
    pub executed: Option<PlannedStrategy>,
    /// Device bytes in use (including this request) right after admission.
    pub device_used_at_admit: u64,
    /// Did the outcome match `JoinCheck::compute` on the inputs?
    pub check_ok: bool,
    /// Join result cardinality; 0 when the execution failed.
    pub matches: u64,
    /// Device fault/retry counters from the execution (empty when the
    /// fault layer is disabled or the request never ran).
    pub faults: FaultSummary,
    /// Simulated hardware-counter rollup from the execution (zeroed when
    /// the request never ran or fell back to the CPU).
    pub counters: CounterRollup,
    /// Stable tag of the terminal error, when the request did not finish
    /// ([`hcj_gpu::JoinError::tag`]; `"deadline-exceeded"` for cancelled
    /// requests).
    pub error: Option<&'static str>,
    /// How the build cache participated (decided at admission).
    pub cache_role: CacheRole,
    /// Per-op reports when the request was a multi-join plan (empty for
    /// single joins): strategy, cache role, pin-vs-spill and virtual
    /// times of every operator, in completion order.
    pub plan_ops: Vec<OpReport>,
    /// The device that ran the request to completion: `Some(0)` on the
    /// single-device service. `None` for requests never admitted, and for
    /// fleet requests that ran host-side (CPU fallback with no surviving
    /// device to account against).
    pub device: Option<usize>,
    /// How many times a device loss drained this request mid-flight and
    /// re-routed it to another device (0 on the single-device service,
    /// whose lone device never drains).
    pub rerouted: u32,
}

impl RequestMetrics {
    /// A request `client` submitted at `at` as its `index`-th, planned as
    /// `planned`, before anything happened to it.
    pub(crate) fn submitted(
        client: usize,
        index: usize,
        at: SimTime,
        planned: PlannedStrategy,
    ) -> Self {
        RequestMetrics {
            client,
            index,
            submitted_at: at,
            admitted_at: at,
            completed_at: at,
            retries: 0,
            blocked: false,
            planned,
            executed: None,
            device_used_at_admit: 0,
            check_ok: false,
            matches: 0,
            faults: FaultSummary::default(),
            counters: CounterRollup::default(),
            error: None,
            cache_role: CacheRole::None,
            plan_ops: Vec::new(),
            device: None,
            rerouted: 0,
        }
    }

    /// Time spent between submission and admission (blocked + queued +
    /// backing off).
    pub fn queue_wait(&self) -> SimTime {
        self.admitted_at - self.submitted_at
    }

    /// Did admission degrade this request below its plan?
    pub fn degraded(&self) -> bool {
        self.executed.is_some_and(|e| e.rank() > self.planned.rank())
    }

    /// Finished with a result (not errored, not cancelled).
    pub fn finished(&self) -> bool {
        self.executed.is_some() && self.error.is_none()
    }
}

/// The result of a whole service run.
#[derive(Debug)]
pub struct ServiceReport {
    /// Per-request metrics, in completion order.
    pub requests: Vec<RequestMetrics>,
    /// Virtual time at which the last request completed.
    pub makespan: SimTime,
    /// High-water mark of reserved device bytes.
    pub device_peak: u64,
    /// Device capacity the run was admitted against.
    pub device_capacity: u64,
    /// Reserved device bytes still held when the loop drained — any
    /// non-zero value is a reservation leak.
    pub device_used_at_end: u64,
    /// Broken "cannot happen" internal invariants, surfaced instead of
    /// panicking. Always empty in a healthy run.
    pub invariant_violations: Vec<String>,
    /// Build-cache aggregate (`None` when the cache was disabled, so
    /// uncached summaries stay byte-identical to pre-cache builds).
    pub cache: Option<CacheReport>,
    /// Per-device health/occupancy rollup when the run was served by a
    /// multi-device fleet (`None` on the single-device service, so its
    /// summaries stay byte-identical to pre-fleet builds).
    pub fleet: Option<FleetRollup>,
    /// The whole run as one Chrome-traceable timeline.
    pub timeline: Timeline,
}

impl ServiceReport {
    /// Requests that produced a result (successfully executed or fell
    /// back to the CPU).
    pub fn completed(&self) -> usize {
        self.requests.iter().filter(|m| m.finished()).count()
    }

    /// Requests cancelled by their per-request deadline.
    pub fn deadline_exceeded(&self) -> usize {
        self.requests.iter().filter(|m| m.error == Some("deadline-exceeded")).count()
    }

    /// Requests that ended in a typed error other than a deadline.
    pub fn errored(&self) -> usize {
        self.requests
            .iter()
            .filter(|m| m.error.is_some() && m.error != Some("deadline-exceeded"))
            .count()
    }

    /// Summed device fault/retry counters across all requests.
    pub fn faults_total(&self) -> FaultSummary {
        let mut total = FaultSummary::default();
        for m in &self.requests {
            total.absorb(&m.faults);
        }
        total
    }

    /// Summed simulated hardware counters across all requests.
    pub fn counters_total(&self) -> CounterRollup {
        let mut total = CounterRollup::default();
        for m in &self.requests {
            total.absorb(&m.counters);
        }
        total
    }

    /// Requests whose result matched the oracle join.
    pub fn checks_passed(&self) -> usize {
        self.requests.iter().filter(|m| m.check_ok).count()
    }

    /// Requests that observably waited before admission.
    pub fn queued(&self) -> usize {
        self.requests.iter().filter(|m| m.queue_wait() > SimTime::ZERO).count()
    }

    /// Total failed admission attempts across all requests.
    pub fn retries_total(&self) -> u64 {
        self.requests.iter().map(|m| u64::from(m.retries)).sum()
    }

    /// Requests that ran below their planned strategy under pressure.
    pub fn degraded(&self) -> usize {
        self.requests.iter().filter(|m| m.degraded()).count()
    }

    /// Requests that hit queue-depth backpressure on submission.
    pub fn backpressured(&self) -> usize {
        self.requests.iter().filter(|m| m.blocked).count()
    }

    /// Finished requests that actually ran under `strategy`.
    pub fn executed_count(&self, strategy: PlannedStrategy) -> usize {
        self.requests.iter().filter(|m| m.finished() && m.executed == Some(strategy)).count()
    }

    /// Finished requests that executed as a cross-device exchange join
    /// (any participant count).
    pub fn cross_device(&self) -> usize {
        self.requests
            .iter()
            .filter(|m| m.finished() && matches!(m.executed, Some(PlannedStrategy::CrossDevice(_))))
            .count()
    }

    /// Requests that were multi-join plans.
    pub fn plan_requests(&self) -> usize {
        self.requests.iter().filter(|m| !m.plan_ops.is_empty()).count()
    }

    /// Plan operators executed across all plan requests.
    pub fn plan_ops_executed(&self) -> usize {
        self.requests.iter().map(|m| m.plan_ops.len()).sum()
    }

    /// Intermediate join outputs kept device-resident for their consumer.
    pub fn pinned_intermediates(&self) -> usize {
        self.requests.iter().flat_map(|m| &m.plan_ops).filter(|o| o.pinned).count()
    }

    /// Intermediate join outputs that fed a later join without a device
    /// pin (took the host round trip).
    pub fn spilled_intermediates(&self) -> usize {
        self.requests.iter().flat_map(|m| &m.plan_ops).filter(|o| o.feeds_join && !o.pinned).count()
    }

    /// Deterministic human-readable summary; the soak harness diffs this
    /// byte-for-byte across runs and `--jobs` counts.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let mut line = |k: &str, v: String| {
            out.push_str(&format!("{k:<26}{v}\n"));
        };
        line("requests completed", format!("{}", self.completed()));
        line("oracle checks", format!("{}/{} ok", self.checks_passed(), self.requests.len()));
        line("queued (waited > 0)", format!("{}", self.queued()));
        line("admission retries", format!("{}", self.retries_total()));
        line("degraded under pressure", format!("{}", self.degraded()));
        line("backpressured submits", format!("{}", self.backpressured()));
        for s in [
            PlannedStrategy::GpuResident,
            PlannedStrategy::StreamedProbe,
            PlannedStrategy::CoProcessing,
            PlannedStrategy::CpuFallback,
        ] {
            line(&format!("executed {s}"), format!("{}", self.executed_count(s)));
        }
        // Conditional: pre-exchange runs stay byte-identical.
        if self.cross_device() > 0 {
            line("executed cross-device", format!("{}", self.cross_device()));
        }
        let f = self.faults_total();
        line("transfer faults", format!("{}", f.transfer_faults));
        line("kernel faults", format!("{}", f.kernel_faults));
        line("device stalls", format!("{}", f.stalls));
        line("fault retries", format!("{}", f.retries));
        line("capacity shrinks", format!("{} ({} B stolen)", f.shrinks, f.stolen_bytes));
        let c = self.counters_total();
        line("kernel launches", format!("{}", c.kernel_launches));
        line("pcie transfers", format!("{}", c.transfers));
        line("device bytes", format!("{} B", c.device_bytes));
        line("h2d / d2h bytes", format!("{} B / {} B", c.h2d_bytes, c.d2h_bytes));
        if c.exchange_transfers > 0 {
            line("exchange transfers", format!("{}", c.exchange_transfers));
            line(
                "exchange out / in",
                format!("{} B / {} B", c.exchange_out_bytes, c.exchange_in_bytes),
            );
        }
        line("coalescing efficiency", format!("{:.3}", c.coalescing_efficiency()));
        if let Some(cache) = &self.cache {
            let cc = cache.counters;
            line("cache hits / misses", format!("{} / {}", cc.hits, cc.misses));
            line("cache evictions", format!("{}", cc.evictions));
            line("cache reclaims", format!("{} ({} B reclaimed)", cc.reclaims, cc.reclaimed_bytes));
            line("cache invalidations", format!("{}", cc.invalidations));
            line(
                "cache peak / resident",
                format!("{} B / {} B", cache.peak_bytes, cache.bytes_at_end),
            );
        }
        if self.plan_requests() > 0 {
            line("plan requests", format!("{}", self.plan_requests()));
            line("plan ops executed", format!("{}", self.plan_ops_executed()));
            line("intermediates pinned", format!("{}", self.pinned_intermediates()));
            line("intermediates spilled", format!("{}", self.spilled_intermediates()));
        }
        line("deadline exceeded", format!("{}", self.deadline_exceeded()));
        line("typed errors", format!("{}", self.errored()));
        line("invariant violations", format!("{}", self.invariant_violations.len()));
        line(
            "device peak",
            format!(
                "{} B of {} B ({:.1}%)",
                self.device_peak,
                self.device_capacity,
                100.0 * self.device_peak as f64 / self.device_capacity.max(1) as f64
            ),
        );
        if let Some(fleet) = &self.fleet {
            line("fleet devices", format!("{} ({} lost)", fleet.devices.len(), fleet.lost()));
            line("fleet drained / rerouted", format!("{} / {}", fleet.drained, fleet.rerouted));
            line("fleet cpu-spilled", format!("{}", fleet.cpu_spilled));
            line("fleet rewarmed builds", format!("{}", fleet.rewarmed));
            line("fleet breaker trips", format!("{}", fleet.breaker_trips));
            line("fleet lost-cache drops", format!("{}", fleet.cache_invalidated));
            for d in &fleet.devices {
                line(
                    &format!("device {}", d.id),
                    format!(
                        "{} | adm {} done {} drain {} adopt {} rewarm {} trips {} hops {} | \
                         peak {} B of {} B",
                        d.health,
                        d.admitted,
                        d.completed,
                        d.drained,
                        d.adopted,
                        d.rewarmed,
                        d.breaker_trips,
                        d.transitions.len(),
                        d.peak_bytes,
                        d.capacity,
                    ),
                );
            }
        }
        line("virtual makespan", format!("{}", self.makespan));
        out
    }
}

/// The multi-tenant join service: one shared device arbitrated between
/// closed-loop clients. It is the one-device case of the fleet's event
/// loop ([`crate::fleet`]), reported without the fleet rollup.
pub struct JoinService {
    /// Planner + strategy implementations shared by all requests.
    pub engine: HcjEngine,
    /// Admission-control and deadline policy.
    pub config: ServiceConfig,
}

impl JoinService {
    /// A service over `engine` with policy `config`.
    pub fn new(engine: HcjEngine, config: ServiceConfig) -> Self {
        JoinService { engine, config }
    }

    /// Drive the whole workload to completion, returning per-request
    /// metrics, the service timeline and aggregate counters.
    pub fn run(&self, workload: &[ClientSpec]) -> ServiceReport {
        let pool = Pool::current();
        let mut report = serve(pool, &self.engine, &self.config, &FleetConfig::new(1), workload);
        report.fleet = None;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcj_core::GpuJoinConfig;
    use hcj_gpu::DeviceSpec;

    /// A device small enough that a handful of concurrent requests contend:
    /// `scale` divides the 8 GB part's capacity.
    fn service(scale: u64, tuned_for: usize) -> JoinService {
        let device = DeviceSpec::gtx1080().scaled_capacity(scale);
        let engine = HcjEngine::new(
            GpuJoinConfig::paper_default(device).with_radix_bits(8).with_tuned_buckets(tuned_for),
        );
        JoinService::new(engine, ServiceConfig::default())
    }

    #[test]
    fn single_request_completes_without_waiting() {
        let svc = service(1 << 10, 2_000); // 8 MB device, tiny join
        let workload = vec![ClientSpec {
            requests: vec![RequestSpec {
                r: RelationSpec::unique(2_000, 1),
                s: RelationSpec::unique(2_000, 2),
                build: None,
            }
            .into()],
        }];
        let report = svc.run(&workload);
        assert_eq!(report.completed(), 1);
        assert_eq!(report.checks_passed(), 1);
        assert_eq!(report.queued(), 0);
        assert_eq!(report.requests[0].executed, Some(PlannedStrategy::GpuResident));
        assert!(report.makespan > SimTime::ZERO);
        assert!(report.timeline.span_count() >= 1);
    }

    #[test]
    fn contended_device_queues_and_degrades() {
        // 512 KB device; 8 clients x 3 requests of ~48-130 KB resident
        // footprint each: a few run resident, the rest must wait or degrade.
        let svc = service(1 << 14, 6_000);
        let workload = mixed_workload(8, 3, 2_000, 42);
        let report = svc.run(&workload);
        assert_eq!(report.completed(), 24);
        assert_eq!(report.checks_passed(), 24);
        assert!(report.queued() > 0, "contention must be observable:\n{}", report.summary());
        assert!(report.retries_total() > 0);
        assert!(report.device_peak <= report.device_capacity);
    }

    #[test]
    fn same_seed_same_report_any_worker_count() {
        let workload = mixed_workload(4, 2, 1_000, 7);
        let mut summaries = Vec::new();
        for jobs in [1usize, 4] {
            hcj_host::pool::set_jobs(jobs);
            let report = service(1 << 14, 4_000).run(&workload);
            summaries.push(report.summary());
        }
        hcj_host::pool::set_jobs(1);
        assert_eq!(summaries[0], summaries[1], "summary must not depend on --jobs");
    }

    #[test]
    fn backpressure_parks_past_queue_depth() {
        let config = ServiceConfig { queue_depth: 1, ..ServiceConfig::default() };
        let device = DeviceSpec::gtx1080().scaled_capacity(1 << 14);
        let engine = HcjEngine::new(
            GpuJoinConfig::paper_default(device).with_radix_bits(8).with_tuned_buckets(4_000),
        );
        let svc = JoinService::new(engine, config);
        // 4 clients submit at t=0 into a depth-1 queue: at least two park.
        let workload = mixed_workload(4, 1, 4_000, 3);
        let report = svc.run(&workload);
        assert_eq!(report.completed(), 4);
        assert!(report.backpressured() >= 2, "{}", report.summary());
    }

    #[test]
    fn mixed_workload_is_deterministic_and_mixed() {
        let a = mixed_workload(3, 5, 1_000, 9);
        let b = mixed_workload(3, 5, 1_000, 9);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let sizes: std::collections::HashSet<usize> = a
            .iter()
            .flat_map(|c| {
                c.requests.iter().filter_map(|q| match q {
                    QuerySpec::Join(j) => Some(j.r.tuples),
                    QuerySpec::Plan(_) => None,
                })
            })
            .collect();
        assert!(sizes.len() > 1, "sizes must vary: {sizes:?}");
    }

    #[test]
    fn tight_deadline_cancels_cleanly_and_releases_reservations() {
        let config = ServiceConfig::default().with_deadline(Some(SimTime::from_nanos(1)));
        let device = DeviceSpec::gtx1080().scaled_capacity(1 << 14);
        let engine = HcjEngine::new(
            GpuJoinConfig::paper_default(device).with_radix_bits(8).with_tuned_buckets(4_000),
        );
        let svc = JoinService::new(engine, config);
        let workload = mixed_workload(4, 2, 2_000, 11);
        let report = svc.run(&workload);
        // A 1 ns budget expires before any execution can complete: every
        // request cancels, every client still advances through its
        // sequence, and no reservation leaks.
        assert_eq!(report.requests.len(), 8, "{}", report.summary());
        assert_eq!(report.deadline_exceeded(), 8, "{}", report.summary());
        assert_eq!(report.completed(), 0);
        assert_eq!(report.device_used_at_end, 0, "cancelled requests must release bytes");
        assert!(report.invariant_violations.is_empty());
        assert!(report.requests.iter().all(|m| m.error == Some("deadline-exceeded")));
    }

    #[test]
    fn generous_deadline_changes_nothing() {
        let workload = mixed_workload(3, 2, 1_000, 13);
        let base = service(1 << 14, 4_000).run(&workload).summary();
        let config = ServiceConfig::default().with_deadline(Some(SimTime::from_secs_f64(1e6)));
        let device = DeviceSpec::gtx1080().scaled_capacity(1 << 14);
        let engine = HcjEngine::new(
            GpuJoinConfig::paper_default(device).with_radix_bits(8).with_tuned_buckets(4_000),
        );
        let with_deadline = JoinService::new(engine, config).run(&workload).summary();
        assert_eq!(base, with_deadline, "an unreachable deadline must be invisible");
    }

    #[test]
    fn deadline_runs_are_deterministic_across_worker_counts() {
        let workload = mixed_workload(4, 2, 1_000, 17);
        let mut summaries = Vec::new();
        for jobs in [1usize, 4] {
            hcj_host::pool::set_jobs(jobs);
            let config = ServiceConfig::default().with_deadline(Some(SimTime::from_nanos(200_000)));
            let device = DeviceSpec::gtx1080().scaled_capacity(1 << 14);
            let engine = HcjEngine::new(
                GpuJoinConfig::paper_default(device).with_radix_bits(8).with_tuned_buckets(4_000),
            );
            summaries.push(JoinService::new(engine, config).run(&workload).summary());
        }
        hcj_host::pool::set_jobs(1);
        assert_eq!(summaries[0], summaries[1]);
    }

    #[test]
    fn no_invariant_violations_or_leaks_in_healthy_runs() {
        let svc = service(1 << 14, 6_000);
        let report = svc.run(&mixed_workload(8, 3, 2_000, 42));
        assert!(report.invariant_violations.is_empty(), "{:?}", report.invariant_violations);
        assert_eq!(report.device_used_at_end, 0);
        assert!(report.summary().contains(&format!("{:<26}0", "invariant violations")));
    }

    #[test]
    fn plan_request_completes_and_folds_matches() {
        use hcj_workload::plan::plan_oracle;
        let svc = service(1 << 8, 4_000); // 32 MB device
        let catalog = BuildCatalog::dimension_tables(4, 2_000, 5);
        let plan = chain_plan(&catalog, &[0, 1, 2], 6_000, 9);
        let oracle = plan_oracle(&plan);
        let n_ops = plan.ops.len();
        let workload = vec![ClientSpec { requests: vec![plan.into()] }];
        let report = svc.run(&workload);
        assert_eq!(report.completed(), 1, "{}", report.summary());
        assert_eq!(report.checks_passed(), 1);
        assert_eq!(report.plan_requests(), 1);
        let m = &report.requests[0];
        assert_eq!(m.matches, oracle.final_matches);
        assert_eq!(m.plan_ops.len(), n_ops, "every op reports");
        for op in &m.plan_ops {
            assert!(op.check_ok, "op {} ({}) failed", op.op, op.kind);
            if op.kind == "join" {
                assert_eq!(op.matches, oracle.checks[op.op].unwrap().matches);
            }
        }
        // The chain's two feeder intermediates pin on an idle 32 MB device
        // and release at completion.
        assert_eq!(report.pinned_intermediates(), 2, "{}", report.summary());
        assert_eq!(report.device_used_at_end, 0, "pins must release");
        assert!(report.invariant_violations.is_empty());
        // One span per join op landed on the timeline (plus the request's
        // wait span, if any).
        assert!(report.timeline.span_count() >= 3);
    }

    #[test]
    fn plan_workloads_are_deterministic_across_worker_counts() {
        for shape in [PlanShape::Chain, PlanShape::Star] {
            let workload = plan_workload(shape, 3, 2, 1_500, 6, 0.75, 5, 11);
            let mut summaries = Vec::new();
            for jobs in [1usize, 2, 4] {
                hcj_host::pool::set_jobs(jobs);
                let config = ServiceConfig::default()
                    .with_cache(Some(crate::cache::BuildCacheConfig::default()));
                let device = DeviceSpec::gtx1080().scaled_capacity(1 << 8);
                let engine = HcjEngine::new(
                    GpuJoinConfig::paper_default(device)
                        .with_radix_bits(8)
                        .with_tuned_buckets(4_000),
                );
                summaries.push(JoinService::new(engine, config).run(&workload).summary());
            }
            hcj_host::pool::set_jobs(1);
            assert_eq!(summaries[0], summaries[1], "{shape:?} summary must not depend on --jobs");
            assert_eq!(summaries[1], summaries[2], "{shape:?} summary must not depend on --jobs");
            assert!(summaries[0].contains("plan requests"), "plan lines present");
        }
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let backoff = |attempts| BACKOFF_BASE.backoff(attempts, BACKOFF_CAP);
        assert_eq!(backoff(1), BACKOFF_BASE);
        assert_eq!(backoff(2).as_nanos(), BACKOFF_BASE.as_nanos() * 2);
        assert_eq!(backoff(3).as_nanos(), BACKOFF_BASE.as_nanos() * 4);
        assert_eq!(backoff(63), BACKOFF_CAP);
    }
}
