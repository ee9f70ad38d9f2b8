//! serve-skew and fleet-exchange: the join service under closed-loop load.
//!
//! Both run the service's own event loop (`run()`), with virtual clients
//! that each submit their next request only after the previous one
//! completes. A round runs several independent workloads, each from its
//! own seed derived from `--seed`, and the simulated metrics pool them, so
//! they hold steady from one seed to the next.
//!
//! The service exposes only `run()`, so the traced pass replays the
//! finished requests through the public calls the service makes —
//! generate, oracle, plan and execute — serially, one span per call.

use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

use hcj_core::{CachedBuild, CachedBuildJoin, GpuJoinConfig, JoinOutcome, Phase};
use hcj_engines::dag::planned_root;
use hcj_engines::{
    execute_exchange, execute_plan, mixed_workload, BuildCacheConfig, CacheRole, ClientSpec,
    ExchangeConfig, ExchangeParticipant, FleetConfig, FleetService, HcjEngine, JoinService,
    PlannedStrategy, QuerySpec, RequestMetrics, RequestSpec, ServiceConfig, ServiceReport,
};
use hcj_gpu::{CounterRollup, DeviceMemory, DeviceSpec, JoinError};
use hcj_host::HostSpec;
use hcj_sim::SimTime;
use hcj_workload::oracle::JoinCheck;
use hcj_workload::plan::{chain_plan, PlanOp, PlanSpec};
use hcj_workload::rng::{Rng, SmallRng};
use hcj_workload::{
    BuildCatalog, BuildRef, KeyDistribution, PopularityStream, Relation, RelationSpec,
};

use crate::metrics::{latency_metrics, set_counters, set_phases, tail, Metrics};
use crate::spans::Tracer;
use crate::{warm_seed, Args, Workload, WorkloadName};

/// Traffic and device of a service workload.
#[derive(Clone, Copy)]
pub struct Shape {
    /// Closed-loop clients issuing single joins.
    pub join_clients: usize,
    /// Closed-loop clients issuing chain plans (serve-skew only).
    pub plan_clients: usize,
    /// Requests per client.
    pub per_client: usize,
    /// Smallest build side; the generators scale everything from it.
    pub base_tuples: usize,
    /// Device capacity divisor (GTX 1080: 8 GB / 16384 = 512 KB).
    pub capacity_div: u64,
    /// Independent workloads per round.
    pub sub_workloads: usize,
}

/// serve-skew: 16 workloads of 16 clients x 32 = 512 requests on one
/// contended 512 KB device; 14 clients join Zipf(0.9)-popular catalog
/// tables, 2 run chain plans over the same catalog. Each workload draws its
/// own catalog, so pooling 16 of them steadies the latency percentiles.
pub const SERVE_SKEW: Shape = Shape {
    join_clients: 14,
    plan_clients: 2,
    per_client: 32,
    base_tuples: 2_000,
    capacity_div: 1 << 14,
    sub_workloads: 16,
};

/// fleet-exchange: 6 workloads of 16 clients x 64 = 1024 mixed joins on a
/// GTX 1080 + V100 + GTX 1080 fleet of 128 KB / 256 KB / 128 KB devices,
/// where about a fifth of the joins overflow every device. Its latencies
/// are clustered: exchange joins that wait for several devices at once sit
/// near 1.2 ms, and just under 1% of requests land there, so p99 needs the
/// 6144 pooled samples to stay in one cluster on most seeds. With 12
/// clients the tail held, but the median jumped between the small joins'
/// latency clusters from seed to seed.
pub const FLEET_EXCHANGE: Shape = Shape {
    join_clients: 16,
    plan_clients: 0,
    per_client: 64,
    base_tuples: 1_000,
    capacity_div: 1 << 16,
    sub_workloads: 6,
};

/// The warm-up inside set-up: one workload of 16 requests per client.
const fn warm_up(shape: Shape) -> Shape {
    Shape { per_client: 16, sub_workloads: 1, ..shape }
}

/// Virtual-time budget of every serve-skew request: 16x its p99 (0.6 ms),
/// far past any healthy request. A request that cannot be admitted (a
/// cache hit whose own pinned table and probe exceed the device retries
/// forever; see README.md) fails with `deadline-exceeded` instead of
/// hanging the run. The fleet runs without a cache and without a deadline:
/// its exchange joins legitimately take several milliseconds.
const DEADLINE: SimTime = SimTime::from_nanos(10_000_000);

/// Catalog of the skewed traffic, as `serve --popularity-skew` uses it.
const CATALOG_SIZE: usize = 12;
const POPULARITY_SKEW: f64 = 0.9;
/// One catalog table's content changes every this many draws.
const BUMP_EVERY: usize = 40;
/// The catalog's tables are part of the workload's definition, like the
/// ladder's sizes: `--seed` draws the traffic over them. Table sizes vary
/// threefold between catalogs, so a seeded catalog would move the latency
/// median from seed to seed by more than any bound worth keeping.
const CATALOG_SEED: u64 = 0xCA7A_1065;

/// The fleet's device mix, in device-id order.
const FLEET_MIX: [fn() -> DeviceSpec; 3] =
    [DeviceSpec::gtx1080, DeviceSpec::v100, DeviceSpec::gtx1080];

enum Service {
    Single(JoinService),
    Fleet(FleetService),
}

/// One round: each workload's report and the host seconds its run took.
pub struct Runs {
    reports: Vec<ServiceReport>,
    host_s: Vec<f64>,
}

pub struct Serving {
    /// The independent workloads of a round, in order.
    subs: Vec<Vec<ClientSpec>>,
    service: Service,
    /// The fleet's devices, for replaying exchange joins.
    participants: Vec<ExchangeParticipant>,
}

/// Seed of the `k`-th workload of a round.
fn sub_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The query a request's metrics refer to.
fn spec<'a>(workload: &'a [ClientSpec], m: &RequestMetrics) -> &'a QuerySpec {
    &workload[m.client].requests[m.index]
}

/// One serve-skew workload: `join_clients` clients of single joins and
/// `plan_clients` clients of 2-4-join chain plans, drawing Zipf-popular
/// tables from one versioned catalog in slot-major order (request 0 of
/// every client, then request 1, ...) so content bumps land mid-run for
/// every client. Popularity, probe sides and plan facts come from `seed`.
fn skew_workload(shape: &Shape, seed: u64) -> Vec<ClientSpec> {
    let mut catalog = BuildCatalog::dimension_tables(CATALOG_SIZE, shape.base_tuples, CATALOG_SEED);
    let mut popularity = PopularityStream::new(CATALOG_SIZE, POPULARITY_SKEW, seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0BAD_CAFE);
    let mut clients = vec![ClientSpec::default(); shape.join_clients + shape.plan_clients];
    let mut draw = 0;
    for _ in 0..shape.per_client {
        for (c, client) in clients.iter_mut().enumerate() {
            draw += 1;
            let query_seed = rng.next_u64();
            let query = if c < shape.join_clients {
                let idx = popularity.next_index();
                if draw % BUMP_EVERY == 0 {
                    catalog.bump_version(idx);
                }
                let rel = *catalog.get(idx);
                let s = RelationSpec {
                    tuples: rel.tuples() * rng.gen_range_u64(2, 5) as usize,
                    distribution: KeyDistribution::UniformFk { distinct: rel.tuples() as u64 },
                    payload_width: rel.payload_width,
                    seed: query_seed,
                };
                RequestSpec { r: rel.spec(), s, build: Some(rel.build_ref()) }.into()
            } else {
                let want = 2 + rng.gen_range_u64(0, 2) as usize;
                let mut dims: Vec<usize> = Vec::with_capacity(want);
                while dims.len() < want {
                    let idx = popularity.next_index();
                    if !dims.contains(&idx) {
                        dims.push(idx);
                    }
                }
                if draw % BUMP_EVERY == 0 {
                    catalog.bump_version(dims[0]);
                }
                let fact = shape.base_tuples * rng.gen_range_u64(2, 4) as usize;
                chain_plan(&catalog, &dims, fact, query_seed).into()
            };
            client.requests.push(query);
        }
    }
    clients
}

impl Serving {
    pub fn build(kind: WorkloadName, shape: &Shape, seed: u64) -> Serving {
        let device = DeviceSpec::gtx1080().scaled_capacity(shape.capacity_div);
        let engine = HcjEngine::new(
            GpuJoinConfig::paper_default(device)
                .with_radix_bits(8)
                .with_tuned_buckets(4 * shape.base_tuples),
        );
        let config = ServiceConfig::default();
        let (clients, per, base) = (shape.join_clients, shape.per_client, shape.base_tuples);
        let seeds = (0..shape.sub_workloads).map(|k| sub_seed(seed, k));
        match kind {
            WorkloadName::FleetExchange => {
                let specs: Vec<DeviceSpec> = FLEET_MIX
                    .iter()
                    .map(|spec| spec().scaled_capacity(shape.capacity_div))
                    .collect();
                let participants = specs
                    .iter()
                    .enumerate()
                    .map(|(device, spec)| ExchangeParticipant { device, spec: spec.clone() })
                    .collect();
                let fleet = FleetConfig::new(0).with_device_mix(specs).with_exchange();
                Serving {
                    subs: seeds.map(|s| mixed_workload(clients, per, base, s)).collect(),
                    service: Service::Fleet(FleetService::new(engine, config, fleet)),
                    participants,
                }
            }
            _ => {
                let subs = seeds.map(|s| skew_workload(shape, s)).collect();
                let config = config
                    .with_cache(Some(BuildCacheConfig::default()))
                    .with_deadline(Some(DEADLINE));
                Serving {
                    subs,
                    service: Service::Single(JoinService::new(engine, config)),
                    participants: Vec::new(),
                }
            }
        }
    }

    fn engine(&self) -> &HcjEngine {
        match &self.service {
            Service::Single(s) => &s.engine,
            Service::Fleet(f) => &f.engine,
        }
    }

    fn run(&self, workload: &[ClientSpec]) -> ServiceReport {
        match &self.service {
            Service::Single(s) => s.run(workload),
            Service::Fleet(f) => f.run(workload),
        }
    }

    /// Each workload with its report.
    fn pairs<'a>(
        &'a self,
        reports: &'a [ServiceReport],
    ) -> impl Iterator<Item = (&'a [ClientSpec], &'a ServiceReport)> {
        self.subs.iter().map(Vec::as_slice).zip(reports)
    }

    /// Every output check a service run must pass.
    fn verify(workload: &[ClientSpec], report: &ServiceReport) -> Result<(), String> {
        if !report.invariant_violations.is_empty() {
            return Err(format!("invariant violations: {:?}", report.invariant_violations));
        }
        let total: usize = workload.iter().map(|c| c.requests.len()).sum();
        let reported: BTreeSet<(usize, usize)> =
            report.requests.iter().map(|m| (m.client, m.index)).collect();
        if report.requests.len() != total || reported.len() != total {
            return Err(format!(
                "{} reports for {} distinct of {total} requests",
                report.requests.len(),
                reported.len()
            ));
        }
        if report.checks_passed() != report.completed() {
            return Err(format!(
                "{} of {} completed requests passed the oracle",
                report.checks_passed(),
                report.completed()
            ));
        }
        let fleet_held: u64 =
            report.fleet.iter().flat_map(|f| &f.devices).map(|d| d.used_at_end).sum();
        if report.device_used_at_end != 0 || fleet_held != 0 {
            return Err(format!("{} device bytes held at the end", report.device_used_at_end));
        }
        let c = report.counters_total();
        if c.exchange_out_bytes != c.exchange_in_bytes {
            return Err(format!(
                "exchange shipped {} B but received {} B",
                c.exchange_out_bytes, c.exchange_in_bytes
            ));
        }
        Ok(())
    }

    /// Replay every finished request of one run through the calls the
    /// service makes, each checked against its oracle; returns the summed
    /// simulated phase breakdown of the replayed single-device joins, in
    /// microseconds.
    fn replay(
        &self,
        workload: &[ClientSpec],
        report: &ServiceReport,
        tracer: &mut Tracer,
    ) -> Result<[f64; 6], String> {
        let mut replay = Replay {
            serving: self,
            host: HostSpec::dual_xeon_e5_2650l_v3(),
            tables: HashMap::new(),
            phases_us: [0.0; 6],
        };
        for (id, m) in report.requests.iter().enumerate().filter(|(_, m)| m.finished()) {
            let id = id as u64;
            let root = tracer.open("replay.request", Some(id));
            let result = match spec(workload, m) {
                QuerySpec::Join(spec) => replay.join(spec, m, id, tracer),
                QuerySpec::Plan(plan) => replay.plan(plan, id, tracer),
            };
            tracer.close(root);
            result.map_err(|e| format!("replaying request {id}: {e}"))?;
        }
        Ok(replay.phases_us)
    }
}

struct Replay<'a> {
    serving: &'a Serving,
    host: HostSpec,
    /// Builds installed by replayed cache misses, probed by later hits.
    tables: HashMap<BuildRef, CachedBuild>,
    phases_us: [f64; 6],
}

impl Replay<'_> {
    fn join(
        &mut self,
        spec: &RequestSpec,
        m: &RequestMetrics,
        id: u64,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        let engine = self.serving.engine();
        let req = Some(id);
        let (r, s) =
            tracer.span("workload.generate", req, || (spec.r.generate(), spec.s.generate()));
        let expected = tracer.span("workload.oracle", req, || JoinCheck::compute(&r, &s));
        let (b, p) = if r.len() <= s.len() { (&r, &s) } else { (&s, &r) };
        let fleet = &self.serving.participants;
        tracer.span("engines.plan", req, || match fleet.len() {
            0 => engine.plan(b, p),
            n => engine.plan_fleet_sized(b.bytes(), p.bytes(), n, min_capacity(fleet)),
        });
        let executed = m.executed.ok_or("a finished request has no executed strategy")?;
        let exec = tracer.open("core.execute", req);
        let check = self.execute(executed, m.cache_role, spec.build, &r, &s, id);
        tracer.close(exec);
        if check.map_err(|e| e.to_string())? != expected {
            return Err("join check mismatch".into());
        }
        Ok(())
    }

    fn execute(
        &mut self,
        executed: PlannedStrategy,
        role: CacheRole,
        build: Option<BuildRef>,
        r: &Relation,
        s: &Relation,
        id: u64,
    ) -> Result<JoinCheck, JoinError> {
        let engine = self.serving.engine();
        if let PlannedStrategy::CrossDevice(n) = executed {
            let participants = &self.serving.participants[..n];
            let cfg = ExchangeConfig::default();
            return execute_exchange(engine, participants, r, s, &cfg, &self.host, id)
                .map(|out| out.check);
        }
        let cached = CachedBuildJoin::new(engine.config.clone());
        let outcome = match (role, build) {
            (CacheRole::Hit, Some(bref)) => match self.tables.get(&bref) {
                Some(table) => cached.execute_hot(table, s)?,
                None => {
                    let (_, table) = cached.execute_cold(r, s)?;
                    cached.execute_hot(&table, s)?
                }
            },
            (CacheRole::Install | CacheRole::Bypass, Some(bref))
                if executed == PlannedStrategy::GpuResident =>
            {
                let (outcome, table) = cached.execute_cold(r, s)?;
                if role == CacheRole::Install {
                    self.tables.insert(bref, table);
                }
                outcome
            }
            _ => engine.execute_from(executed, r, s)?.1,
        };
        self.add_phases(&outcome);
        Ok(outcome.check)
    }

    fn plan(&mut self, plan: &PlanSpec, id: u64, tracer: &mut Tracer) -> Result<(), String> {
        let engine = self.serving.engine();
        let req = Some(id);
        let scans: Vec<Option<Relation>> = tracer.span("workload.generate", req, || {
            plan.ops
                .iter()
                .map(|op| match op {
                    PlanOp::Scan { spec, .. } => Some(spec.generate()),
                    _ => None,
                })
                .collect()
        });
        tracer.span("engines.plan", req, || planned_root(engine, plan));
        // The DAG executor checks every op against its oracle itself, so
        // the oracle's host time of a plan sits in core.execute.
        let device = DeviceMemory::new(engine.config.device.device_mem_bytes);
        let run = tracer
            .span("core.execute", req, || execute_plan(engine, plan, scans, 0, &device, None));
        match (run.check_ok, run.error) {
            (true, None) => Ok(()),
            (_, Some(err)) => Err(format!("plan failed: {err}")),
            (false, None) => Err("plan check mismatch".into()),
        }
    }

    fn add_phases(&mut self, outcome: &JoinOutcome) {
        for (slot, phase) in self.phases_us.iter_mut().zip(Phase::ALL) {
            *slot += outcome.phases.time(phase).as_secs_f64() * 1e6;
        }
    }
}

fn min_capacity(participants: &[ExchangeParticipant]) -> u64 {
    participants.iter().map(|p| p.spec.device_mem_bytes).min().unwrap_or(0)
}

/// A request fails when it errored, was refused (never executed), ran past
/// its deadline or mismatched the oracle.
pub fn failed(m: &RequestMetrics) -> bool {
    !m.finished() || !m.check_ok
}

/// Input tuples of a query: |R| + |S| of a join, the scans of a plan.
fn input_tuples(query: &QuerySpec) -> u64 {
    match query {
        QuerySpec::Join(spec) => (spec.r.tuples + spec.s.tuples) as u64,
        QuerySpec::Plan(plan) => plan
            .ops
            .iter()
            .map(|op| match op {
                PlanOp::Scan { spec, .. } => spec.tuples as u64,
                _ => 0,
            })
            .sum(),
    }
}

/// Input tuples completed while every client still had requests to run,
/// and the length of that steady-state window (until the first client
/// finishes): the closed loop's throughput without its drain.
fn steady_state(workload: &[ClientSpec], report: &ServiceReport) -> (u64, SimTime) {
    let mut last = vec![SimTime::ZERO; workload.len()];
    for m in &report.requests {
        last[m.client] = last[m.client].max(m.completed_at);
    }
    let active = workload.iter().zip(last).filter(|(c, _)| !c.requests.is_empty());
    let window = active.map(|(_, t)| t).min().unwrap_or(SimTime::ZERO);
    let tuples = report
        .requests
        .iter()
        .filter(|m| m.finished() && m.completed_at <= window)
        .map(|m| input_tuples(spec(workload, m)))
        .sum();
    (tuples, window)
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

const STRATEGIES: [(PlannedStrategy, &str); 4] = [
    (PlannedStrategy::GpuResident, "resident"),
    (PlannedStrategy::StreamedProbe, "streamed"),
    (PlannedStrategy::CoProcessing, "coproc"),
    (PlannedStrategy::CpuFallback, "cpu_fallback"),
];

impl Workload for Serving {
    type Round = Runs;

    fn setup(args: &Args, tracer: &mut Tracer) -> Result<Serving, String> {
        let shape = match args.workload {
            WorkloadName::FleetExchange => FLEET_EXCHANGE,
            _ => SERVE_SKEW,
        };
        let warm = tracer.open("setup.warm_up", None);
        let warm_up = Serving::build(args.workload, &warm_up(shape), warm_seed(args.seed));
        warm_up.round(&mut Tracer::off())?;
        tracer.close(warm);
        Ok(Serving::build(args.workload, &shape, args.seed))
    }

    fn round(&self, tracer: &mut Tracer) -> Result<Runs, String> {
        let mut runs = Runs { reports: Vec::new(), host_s: Vec::new() };
        for workload in &self.subs {
            let started = Instant::now();
            let report = tracer.span("engines.service.run", None, || self.run(workload));
            runs.host_s.push(started.elapsed().as_secs_f64());
            Serving::verify(workload, &report)?;
            runs.reports.push(report);
        }
        Ok(runs)
    }

    fn fingerprint(runs: &Runs) -> String {
        runs.reports.iter().map(ServiceReport::summary).collect()
    }

    /// One sample per workload run: its finished input tuples over its
    /// host seconds.
    fn host_rates(&self, runs: &Runs, _round_s: f64) -> Vec<f64> {
        let pairs = self.pairs(&runs.reports).zip(&runs.host_s);
        pairs
            .map(|((workload, report), secs)| {
                let finished = report.requests.iter().filter(|m| m.finished());
                let tuples: u64 = finished.map(|m| input_tuples(spec(workload, m))).sum();
                tuples as f64 / secs / 1e6
            })
            .collect()
    }

    fn outcomes(&self, runs: &Runs) -> (u64, u64) {
        let reports = &runs.reports;
        let total: usize = self.subs.iter().flatten().map(|c| c.requests.len()).sum();
        let ok = reports.iter().flat_map(|r| &r.requests).filter(|m| !failed(m)).count();
        (total as u64, (total - ok) as u64)
    }

    fn simulated(
        &self,
        runs: &Runs,
        e2e: &mut Metrics,
        layers: &mut Metrics,
    ) -> Result<(), String> {
        let reports = &runs.reports;
        let us = |t: SimTime| t.as_secs_f64() * 1e6;
        let requests = || reports.iter().flat_map(|r| &r.requests);

        let (mut window_tuples, mut window_s) = (0u64, 0.0);
        for (workload, report) in self.pairs(reports) {
            let (tuples, window) = steady_state(workload, report);
            window_tuples += tuples;
            window_s += window.as_secs_f64();
        }
        e2e.set("sim_btps", ratio(window_tuples as f64, window_s) / 1e9);
        let latencies: Vec<f64> = requests().map(|m| us(m.completed_at - m.submitted_at)).collect();
        let mut waits: Vec<f64> = requests().map(|m| us(m.queue_wait())).collect();
        let wait_share = waits.iter().sum::<f64>() / latencies.iter().sum::<f64>();
        layers.set("engines.service.wait_share", wait_share);
        waits.sort_by(f64::total_cmp);
        layers.set("engines.service.wait_p99_us", tail(&waits, 99.0).map_or(0.0, |t| t.value));
        latency_metrics(latencies, e2e, layers)?;

        let sum = |f: fn(&ServiceReport) -> usize| reports.iter().map(f).sum::<usize>() as f64;
        layers.set("engines.service.retries", requests().map(|m| m.retries as f64).sum());
        layers.set("engines.service.degraded", sum(ServiceReport::degraded));
        layers.set("engines.service.backpressured", sum(ServiceReport::backpressured));
        let peak = reports
            .iter()
            .map(|r| r.device_peak as f64 / r.device_capacity as f64)
            .fold(0.0, f64::max);
        layers.set("gpu.device_peak_frac", peak);

        for (strategy, name) in STRATEGIES {
            let ran = |r: &ServiceReport| r.executed_count(strategy);
            layers.set(
                &format!("engines.facade.{name}"),
                reports.iter().map(ran).sum::<usize>() as f64,
            );
            if strategy == PlannedStrategy::CpuFallback {
                continue;
            }
            // Simulated execution time of the single joins that ran so.
            let (mut t, mut s) = (0u64, 0.0);
            for (workload, report) in self.pairs(reports) {
                for m in report.requests.iter().filter(|m| m.finished()) {
                    if let (Some(ran), QuerySpec::Join(_)) = (m.executed, spec(workload, m)) {
                        if ran == strategy {
                            t += input_tuples(spec(workload, m));
                            s += (m.completed_at - m.admitted_at).as_secs_f64();
                        }
                    }
                }
            }
            layers.set(&format!("core.{name}_btps"), ratio(t as f64, s) / 1e9);
        }
        layers.set("engines.facade.cross_device", sum(ServiceReport::cross_device));

        let caches: Vec<_> = reports.iter().filter_map(|r| r.cache.map(|c| c.counters)).collect();
        let total =
            |f: fn(&hcj_gpu::CacheCounters) -> u64| caches.iter().map(f).sum::<u64>() as f64;
        let lookups = total(|c| c.hits + c.misses);
        layers.set("engines.cache.lookups", lookups);
        layers.set("engines.cache.hit_ratio", ratio(total(|c| c.hits), lookups));
        layers.set("engines.cache.evictions", total(|c| c.evictions));
        layers.set("engines.cache.reclaims", total(|c| c.reclaims));
        layers.set("engines.cache.invalidations", total(|c| c.invalidations));

        let (pinned, spilled) =
            (sum(ServiceReport::pinned_intermediates), sum(ServiceReport::spilled_intermediates));
        layers.set("engines.dag.ops", sum(ServiceReport::plan_ops_executed));
        layers.set("engines.dag.pin_ratio", ratio(pinned, pinned + spilled));

        let fleets: Vec<_> = reports.iter().filter_map(|r| r.fleet.as_ref()).collect();
        if let Some(first) = fleets.first() {
            let admitted: Vec<u64> = (0..first.devices.len())
                .map(|d| fleets.iter().map(|f| f.devices[d].admitted).sum())
                .collect();
            let (max, min) = (admitted.iter().max(), admitted.iter().min());
            layers.set(
                "engines.fleet.admit_imbalance",
                ratio(max.copied().unwrap_or(0) as f64, min.copied().unwrap_or(0) as f64),
            );
            layers.set(
                "engines.fleet.rerouted",
                fleets.iter().map(|f| f.rerouted).sum::<u64>() as f64,
            );
            let spilled = fleets.iter().map(|f| f.cpu_spilled).sum::<u64>();
            layers.set("engines.fleet.cpu_spilled", spilled as f64);
        }

        let mut counters = CounterRollup::default();
        let mut cross_bytes = 0u64;
        for (workload, report) in self.pairs(reports) {
            counters.absorb(&report.counters_total());
            cross_bytes += report
                .requests
                .iter()
                .filter(|m| {
                    m.finished() && matches!(m.executed, Some(PlannedStrategy::CrossDevice(_)))
                })
                .map(|m| 8 * input_tuples(spec(workload, m)))
                .sum::<u64>();
        }
        layers.set("engines.exchange.joins", sum(ServiceReport::cross_device));
        layers.set("engines.exchange.transfers", counters.exchange_transfers as f64);
        layers.set("engines.exchange.mb", counters.exchange_out_bytes as f64 / 1e6);
        layers.set(
            "engines.exchange.bytes_per_input_byte",
            ratio(counters.exchange_out_bytes as f64, cross_bytes as f64),
        );
        set_counters(&counters, layers);
        Ok(())
    }

    /// Replays the round's first workload only: one run, timed again,
    /// against an untraced and a traced replay of its requests.
    fn traced(
        &self,
        runs: &Runs,
        _round_s: f64,
        tracer: &mut Tracer,
        layers: &mut Metrics,
    ) -> Result<(), String> {
        let (workload, report) = (&self.subs[0], &runs.reports[0]);
        let started = Instant::now();
        Serving::verify(workload, &self.run(workload))?;
        let run_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        self.replay(workload, report, &mut Tracer::off())?;
        let untraced_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let phases_us = self.replay(workload, report, tracer)?;
        let traced_s = started.elapsed().as_secs_f64();
        // The event loop, admission, timeline and pool fan-out: what run()
        // spends beyond the per-request calls it makes.
        layers.set("engines.loop_s", run_s - untraced_s);
        layers.set("trace.untraced_s", untraced_s);
        layers.set("trace.overhead_s", traced_s - untraced_s);
        set_phases(phases_us, layers);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use hcj_gpu::FaultSummary;

    fn request(
        executed: Option<PlannedStrategy>,
        error: Option<&'static str>,
        check_ok: bool,
    ) -> RequestMetrics {
        RequestMetrics {
            client: 0,
            index: 0,
            submitted_at: SimTime::ZERO,
            admitted_at: SimTime::ZERO,
            completed_at: SimTime::from_nanos(10),
            retries: 0,
            blocked: false,
            planned: PlannedStrategy::GpuResident,
            executed,
            device_used_at_admit: 0,
            check_ok,
            matches: 0,
            faults: FaultSummary::default(),
            counters: CounterRollup::default(),
            error,
            cache_role: CacheRole::None,
            plan_ops: Vec::new(),
            device: None,
            rerouted: 0,
        }
    }

    #[test]
    fn failed_counts_refused_errored_late_and_wrong_requests() {
        let ran = Some(PlannedStrategy::GpuResident);
        assert!(!failed(&request(ran, None, true)), "finished and correct");
        assert!(failed(&request(None, None, false)), "refused: never executed");
        assert!(failed(&request(None, Some("out-of-device-memory"), false)), "errored");
        assert!(failed(&request(ran, Some("device-fault"), false)), "errored mid-run");
        assert!(failed(&request(None, Some("deadline-exceeded"), false)), "deadline exceeded");
        assert!(failed(&request(ran, None, false)), "oracle mismatch");
    }

    const TINY: Shape = Shape {
        join_clients: 3,
        plan_clients: 1,
        per_client: 4,
        base_tuples: 500,
        capacity_div: 1 << 14,
        sub_workloads: 2,
    };

    fn sim_metrics(kind: WorkloadName, seed: u64) -> String {
        let serving = Serving::build(kind, &TINY, seed);
        let runs = serving.round(&mut Tracer::off()).unwrap();
        let (mut e2e, mut layers) = (Metrics::new(END_TO_END), Metrics::new(PER_LAYER));
        // Tiny runs have too few requests for a tail; everything set
        // before and after the latency metrics must still repeat.
        let _ = serving.simulated(&runs, &mut e2e, &mut layers);
        format!("{:?} {:?} {}", e2e.to_json(), layers.to_json(), Serving::fingerprint(&runs))
    }

    #[test]
    fn same_seed_repeats_bit_for_bit_and_another_seed_differs() {
        for kind in [WorkloadName::ServeSkew, WorkloadName::FleetExchange] {
            assert_eq!(sim_metrics(kind, 9), sim_metrics(kind, 9), "{kind:?}");
            assert_ne!(sim_metrics(kind, 9), sim_metrics(kind, 10), "{kind:?}");
        }
        assert_ne!(sub_seed(9, 1), sub_seed(9, 0));
    }

    #[test]
    fn replay_checks_every_finished_request() {
        for kind in [WorkloadName::ServeSkew, WorkloadName::FleetExchange] {
            let serving = Serving::build(kind, &TINY, 4);
            let runs = serving.round(&mut Tracer::off()).unwrap();
            let mut tracer = Tracer::on();
            serving.replay(&serving.subs[1], &runs.reports[1], &mut tracer).unwrap();
            let roots = tracer.spans().iter().filter(|s| s.name == "replay.request").count();
            assert_eq!(roots, runs.reports[1].completed(), "{kind:?}");
        }
    }
}
