//! Query-DAG execution: run a multi-join [`PlanSpec`] on the engine.
//!
//! The service's unit of work grows from one join to an operator DAG
//! (scan → join → join → materialize). [`execute_plan`] runs one
//! deterministically and hardware-consciously:
//!
//! * **Level waves.** An op's level is the length of its longest input
//!   chain (scans are level 0). The plan runs level by level, each level's
//!   ops in **ascending op-id order**; because a [`PlanSpec`] is
//!   topologically numbered, every downstream artifact (summaries,
//!   timelines, counters) is byte-identical at any `--jobs` and across
//!   runs at the same seed. A level's join ops fan out onto the host
//!   worker pool (results merged in op-id order, so worker count never
//!   shows); scans and the sink are folded inline at zero simulated cost.
//!   Every join runs on the service's one join executor and is verified
//!   against the per-op CPU oracle on its actual inputs.
//! * **Validation first.** A plan that fails [`PlanSpec::validate`] fails
//!   with the `internal` tag before any op runs.
//!
//! **Intermediates: pin or spill.** A join output that feeds a later join
//! is canonicalized ([`rows_to_relation`]) and then either *pinned* — a
//! [`Reservation`] against the shared service accountant keeps the bytes
//! device-resident, visible to admission control exactly like a cache
//! entry, and the consuming join skips that side's H2D transfer — or
//! *spilled* to the host when the reservation does not fit, in which case
//! the consumer stages it over PCIe like any base relation. The pin is
//! opportunistic: failing to pin degrades bandwidth, never correctness.
//!
//! **Cache interplay.** A join whose build side is a *named* dimension
//! scan consults the [`BuildCache`] through the same
//! [`consult`](BuildCache::consult)/[`record`](BuildCache::record) pair
//! as a single-join request: hits probe the resident table, misses at the
//! GPU-resident tier build once and hand the table back for installation
//! at completion ([`PlanRun::installs`]), and a failing hit or build
//! falls back onto the ladder from the op's rung. A single join counts
//! its hit or miss at admission; a plan op counts it when its level runs.

use std::sync::Arc;

use hcj_core::{CachedBuild, OutputMode};
use hcj_gpu::{CounterRollup, DeviceMemory, FaultSummary, Reservation};
use hcj_host::pool::Pool;
use hcj_sim::SimTime;
use hcj_workload::catalog::BuildRef;
use hcj_workload::oracle::JoinCheck;
use hcj_workload::plan::{rows_to_relation, PlanOp, PlanSpec};
use hcj_workload::{build_is_left, Relation};

use crate::cache::{BuildCache, CachedTable};
use crate::executor::{Executed, JoinJob};
use crate::facade::{HcjEngine, PlannedStrategy};
use crate::service::CacheRole;

/// What one plan operator did: the per-op record the service lifts onto
/// the timeline (spans at `admitted + start .. admitted + finish`) and
/// into [`crate::service::RequestMetrics::plan_ops`]. Times are relative
/// to the plan's own start; scans and the sink take zero simulated time.
#[derive(Clone, Debug)]
pub struct OpReport {
    /// Op id within the plan.
    pub op: usize,
    /// `"scan"`, `"join"` or `"materialize"`.
    pub kind: &'static str,
    /// Display label (`op3 join` etc.); the service prefixes request ids.
    pub label: String,
    /// Virtual start, relative to plan start (max of input finishes).
    pub start: SimTime,
    /// Virtual finish, relative to plan start.
    pub finish: SimTime,
    /// Strategy that actually ran (joins only).
    pub executed: Option<PlannedStrategy>,
    /// Build-cache participation of this op (joins only).
    pub cache_role: CacheRole,
    /// Whether this op's output feeds a later join (pin candidate).
    pub feeds_join: bool,
    /// Whether the output was pinned device-resident (vs. spilled).
    pub pinned: bool,
    /// Join result matched the per-op CPU oracle on its actual inputs.
    pub check_ok: bool,
    /// Matches produced (joins), or folded total (the sink).
    pub matches: u64,
    /// Device fault/retry counters of this op's execution.
    pub faults: FaultSummary,
    /// Simulated hardware counters of this op's execution.
    pub counters: CounterRollup,
    /// `(offset into the op's execution, label)` per injected fault, for
    /// timeline instant markers.
    pub fault_marks: Vec<(SimTime, String)>,
    /// Error tag when the op failed (aborts the rest of the plan).
    pub error: Option<&'static str>,
}

impl OpReport {
    /// A scan or the sink: zero simulated time at `at`, no strategy, no
    /// cache role, nothing pinned, `matches` folded (the sink) or 0.
    fn inline(op: usize, kind: &'static str, at: SimTime, matches: u64) -> Self {
        OpReport {
            op,
            kind,
            label: format!("op{op} {kind}"),
            start: at,
            finish: at,
            executed: None,
            cache_role: CacheRole::None,
            feeds_join: false,
            pinned: false,
            check_ok: true,
            matches,
            faults: FaultSummary::default(),
            counters: CounterRollup::default(),
            fault_marks: Vec::new(),
            error: None,
        }
    }
}

/// The result of executing one plan: per-op reports plus the aggregates
/// the service folds into its request metrics.
#[derive(Debug)]
pub struct PlanRun {
    /// Per-op reports, in completion (op-id) order.
    pub ops: Vec<OpReport>,
    /// Virtual makespan of the whole plan (critical path through op
    /// durations; parallel-safe ops overlap).
    pub duration: SimTime,
    /// Device pins still holding intermediates resident; the service
    /// releases them at completion (admission control sees them until
    /// then, exactly like cache-entry reservations).
    pub pins: Vec<Reservation>,
    /// Builds produced by cache-`Install` ops, for installation into the
    /// [`BuildCache`] at completion.
    pub installs: Vec<(BuildRef, CachedBuild)>,
    /// Intermediates pinned device-resident.
    pub pinned: u32,
    /// Intermediates that fed a later join but had to spill to the host.
    pub spilled: u32,
    /// Strategy of the plan's root join (largest join op id).
    pub executed: Option<PlannedStrategy>,
    /// Every join matched its per-op oracle and nothing errored.
    pub check_ok: bool,
    /// Final matches folded by the sink.
    pub matches: u64,
    /// First error tag, when an op failed and the plan aborted.
    pub error: Option<&'static str>,
}

/// Step `strategy` down the degradation ladder `n` rungs, saturating at
/// the co-processing floor. The service escalates a plan's `degrade`
/// level after exhausting admission retries, exactly as it degrades a
/// single join's planned strategy.
pub fn degrade_n(strategy: PlannedStrategy, n: usize) -> PlannedStrategy {
    let idx = (strategy.rank() + n).min(PlannedStrategy::LADDER.len() - 1);
    PlannedStrategy::LADDER[idx]
}

/// Admission-control footprint envelope for a whole plan at a given
/// degrade level: the worst per-join estimated footprint, each join
/// sized from [`PlanSpec::estimated_rows`] (8 bytes per tuple, smaller
/// estimated side builds) in the engine's output mode, even an op that
/// materializes rows for a later join. Joins run one level at a time
/// against the same accountant, so the peak concurrent demand is bounded
/// by the worst single join plus the (separately reserved) pinned
/// intermediates.
pub fn plan_envelope(engine: &HcjEngine, plan: &PlanSpec, degrade: usize) -> u64 {
    let rows = plan.estimated_rows();
    let mut worst = 0u64;
    for op in &plan.ops {
        if let PlanOp::Join { left, right } = op {
            let (lb, rb) = (rows[*left] * 8, rows[*right] * 8);
            let (b, p) = if lb <= rb { (lb, rb) } else { (rb, lb) };
            let level = degrade_n(engine.plan_sized(b, p), degrade);
            worst = worst.max(engine.footprint_estimate_sized(level, b, p));
        }
    }
    worst
}

/// The strategy the planner would pick for the plan's *root* join (the
/// largest join op id) from size estimates — what the service records as
/// the request's planned strategy at submission.
pub fn planned_root(engine: &HcjEngine, plan: &PlanSpec) -> PlannedStrategy {
    let rows = plan.estimated_rows();
    let mut planned = PlannedStrategy::GpuResident;
    for op in &plan.ops {
        if let PlanOp::Join { left, right } = op {
            let (lb, rb) = (rows[*left] * 8, rows[*right] * 8);
            let (b, p) = if lb <= rb { (lb, rb) } else { (rb, lb) };
            planned = engine.plan_sized(b, p);
        }
    }
    planned
}

/// Per-join prep decided on the calling thread (cache consultation
/// mutates the cache, so it cannot live in the worker closure).
struct JoinPrep {
    op: usize,
    build: usize,
    probe: usize,
    level: PlannedStrategy,
    /// Catalog identity of a named build side.
    bref: Option<BuildRef>,
    role: CacheRole,
    hit: Option<Arc<CachedTable>>,
    feeds_join: bool,
}

/// The plan's ops grouped by level, the length of an op's longest input
/// chain (scans are level 0), each level in ascending op-id order.
fn levels(plan: &PlanSpec) -> Vec<Vec<usize>> {
    let mut level_of = vec![0usize; plan.ops.len()];
    let mut levels: Vec<Vec<usize>> = Vec::new();
    for (id, op) in plan.ops.iter().enumerate() {
        let level = op.inputs().iter().map(|&i| level_of[i] + 1).max().unwrap_or(0);
        level_of[id] = level;
        if level == levels.len() {
            levels.push(Vec::new());
        }
        levels[level].push(id);
    }
    levels
}

/// Execute `plan` level by level. `scans` holds the materialized base
/// relations, indexed by op id (`None` at join/sink positions); `degrade`
/// steps every join's planned strategy down the ladder (admission-retry
/// escalation); `device` is the shared accountant intermediates pin
/// against; `cache` is the service build cache, when enabled.
///
/// Determinism: each level runs in op-id order, worker results merge in
/// that order, and every op draws from its own fault stream (the engine's
/// stream reseeded by op id) — so the run is byte-identical at any worker
/// count.
pub fn execute_plan(
    engine: &HcjEngine,
    plan: &PlanSpec,
    mut scans: Vec<Option<Relation>>,
    degrade: usize,
    device: &DeviceMemory,
    mut cache: Option<&mut BuildCache>,
) -> PlanRun {
    let n = plan.ops.len();
    let mut run = PlanRun {
        ops: Vec::with_capacity(n),
        duration: SimTime::ZERO,
        pins: Vec::new(),
        installs: Vec::new(),
        pinned: 0,
        spilled: 0,
        executed: None,
        check_ok: true,
        matches: 0,
        error: None,
    };
    if plan.validate().is_err() {
        run.error = Some("internal");
        run.check_ok = false;
        return run;
    }
    let consumers = plan.consumers();
    let mut outputs: Vec<Option<Relation>> = (0..n).map(|_| None).collect();
    let mut resident = vec![false; n];
    let mut finish = vec![SimTime::ZERO; n];
    let mut matches_of = vec![0u64; n];
    let root_join = (0..n).filter(|&id| matches!(plan.ops[id], PlanOp::Join { .. })).max();

    'levels: for batch in levels(plan) {
        // Decide each join's strategy, residency and cache role on this
        // thread; the worker closure stays pure over shared state.
        let mut joins: Vec<JoinPrep> = Vec::new();
        for &op in &batch {
            let PlanOp::Join { left, right } = plan.ops[op] else { continue };
            let (Some(lrel), Some(rrel)) = (&outputs[left], &outputs[right]) else {
                run.error = Some("internal");
                break 'levels;
            };
            let (b, p, brel, prel) = if build_is_left(lrel, rrel) {
                (left, right, lrel, rrel)
            } else {
                (right, left, rrel, lrel)
            };
            let level = degrade_n(engine.plan(brel, prel), degrade);
            // The cache only ever holds *named* builds: the build side
            // must be a dimension scan carrying its catalog identity.
            let bref = match &plan.ops[b] {
                PlanOp::Scan { build, .. } => *build,
                _ => None,
            };
            let (role, hit) = match (cache.as_deref_mut(), bref) {
                (Some(c), Some(bref)) => {
                    let role = c.consult(bref, level == PlannedStrategy::GpuResident, |_| true);
                    c.record(bref, role)
                }
                _ => (CacheRole::None, None),
            };
            joins.push(JoinPrep {
                op,
                build: b,
                probe: p,
                level,
                bref,
                role,
                hit,
                feeds_join: consumers[op]
                    .iter()
                    .any(|&c| matches!(plan.ops[c], PlanOp::Join { .. })),
            });
        }

        // Fan the level's joins onto the host pool; results come back in
        // op-id order, so the merge below is worker-count independent.
        let outputs_ref = &outputs;
        let resident_ref = &resident;
        let results: Vec<Executed> = Pool::current().map(&joins, |_, prep| {
            // Each op draws from its own fault stream (mixed with the op
            // id on top of the service's per-request reseed), and ops
            // that feed a later join must materialize rows regardless of
            // the configured output mode.
            let mut engine = engine.clone();
            if let Some(f) = engine.config.faults.clone() {
                engine.config = engine.config.with_faults(f.reseeded(prep.op as u64));
            }
            if prep.feeds_join {
                engine.config = engine.config.with_output(OutputMode::Materialize);
            }
            // GPU-resident ops take the staged path, which skips the H2D
            // copy of any pinned-intermediate side. The op's check comes
            // from the intermediates it joins.
            let r = outputs_ref[prep.build].as_ref().expect("deps done");
            let s = outputs_ref[prep.probe].as_ref().expect("deps done");
            let mut exec = JoinJob {
                r,
                s,
                expected: JoinCheck::compute(r, s),
                start: prep.level,
                hit: prep.hit.as_deref().map(|table| &table.build),
                stage: prep.level == PlannedStrategy::GpuResident,
                keep_build: prep.role == CacheRole::Install,
                resident: (resident_ref[prep.build], resident_ref[prep.probe]),
            }
            .run(&engine);
            if prep.feeds_join && exec.error.is_none() && exec.rows.is_none() {
                exec.error = Some("internal");
            }
            exec
        });

        // Merge the level in op-id order: scans and the sink inline at
        // zero cost, joins from the pool results.
        let mut joined = joins.iter().zip(results);
        for &op in &batch {
            match &plan.ops[op] {
                PlanOp::Scan { .. } => {
                    let Some(rel) = scans[op].take() else {
                        run.error = Some("internal");
                        break 'levels;
                    };
                    outputs[op] = Some(rel);
                    run.ops.push(OpReport::inline(op, "scan", SimTime::ZERO, 0));
                }
                PlanOp::Materialize { inputs } => {
                    let start = inputs.iter().map(|&i| finish[i]).max().unwrap_or(SimTime::ZERO);
                    finish[op] = start;
                    run.matches = inputs.iter().map(|&i| matches_of[i]).sum();
                    run.ops.push(OpReport::inline(op, "materialize", start, run.matches));
                }
                PlanOp::Join { .. } => {
                    let Some((prep, exec)) = joined.next() else {
                        run.error = Some("internal");
                        break 'levels;
                    };
                    let start = finish[prep.build].max(finish[prep.probe]);
                    let end = start + exec.duration;
                    finish[op] = end;
                    matches_of[op] = exec.matches;
                    run.check_ok &= exec.check_ok;
                    if let Some(err) = exec.error {
                        run.error.get_or_insert(err);
                    }
                    if Some(op) == root_join {
                        run.executed = exec.strategy;
                    }
                    if let (Some(bref), Some(built)) = (prep.bref, exec.install) {
                        run.installs.push((bref, built));
                    }
                    // Hand the output downstream: canonicalized, then
                    // pinned on-device when the reservation fits (an
                    // empty intermediate is trivially resident).
                    let mut pinned = false;
                    if prep.feeds_join && exec.error.is_none() {
                        let rel = rows_to_relation(exec.rows.as_deref().unwrap_or(&[]));
                        let bytes = rel.bytes();
                        if bytes == 0 {
                            resident[op] = true;
                        } else if let Ok(pin) = device.reserve(bytes) {
                            run.pins.push(pin);
                            resident[op] = true;
                            pinned = true;
                            run.pinned += 1;
                        } else {
                            run.spilled += 1;
                        }
                        outputs[op] = Some(rel);
                    }
                    run.ops.push(OpReport {
                        op,
                        kind: "join",
                        label: format!("op{op} join"),
                        start,
                        finish: end,
                        executed: exec.strategy,
                        cache_role: prep.role,
                        feeds_join: prep.feeds_join,
                        pinned,
                        check_ok: exec.check_ok,
                        matches: exec.matches,
                        faults: exec.faults,
                        counters: exec.counters,
                        fault_marks: exec.fault_marks,
                        error: exec.error,
                    });
                }
            }
            run.duration = run.duration.max(finish[op]);
            if run.error.is_some() {
                break 'levels;
            }
        }
    }
    if run.error.is_some() {
        run.check_ok = false;
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcj_core::GpuJoinConfig;
    use hcj_gpu::DeviceSpec;
    use hcj_host::pool::set_jobs;
    use hcj_workload::catalog::BuildCatalog;
    use hcj_workload::plan::{chain_plan, plan_oracle, star_plan};

    fn engine(scale: u64) -> HcjEngine {
        let device = DeviceSpec::gtx1080().scaled_capacity(scale);
        HcjEngine::new(GpuJoinConfig::paper_default(device).with_radix_bits(8))
    }

    fn scans_for(plan: &PlanSpec) -> Vec<Option<Relation>> {
        plan.ops
            .iter()
            .map(|op| match op {
                PlanOp::Scan { spec, .. } => Some(spec.generate()),
                _ => None,
            })
            .collect()
    }

    fn run_plan(plan: &PlanSpec, scale: u64) -> PlanRun {
        let e = engine(scale);
        let device = DeviceMemory::new(e.config.device.device_mem_bytes);
        execute_plan(&e, plan, scans_for(plan), 0, &device, None)
    }

    #[test]
    fn plans_run_level_by_level_in_op_id_order() {
        let cat = BuildCatalog::dimension_tables(4, 500, 3);
        let chain = chain_plan(&cat, &[0, 1, 2], 2_000, 1);
        let star = star_plan(&cat, &[0, 1, 2], 2_000, 1);
        // Chain: the four scans, then one join per level, then the sink.
        assert_eq!(levels(&chain), vec![vec![0, 1, 2, 3], vec![4], vec![5], vec![6], vec![7]]);
        // Star: the four scans, all three arms at once, then the sink.
        assert_eq!(levels(&star), vec![vec![0, 1, 2, 3], vec![4, 5, 6], vec![7]]);
        // Op ids that interleave levels: the scan at op 3 runs before the
        // join at op 2, and the arm at op 6 before the join at op 4.
        let scan = |i: usize| chain.ops[i].clone();
        let mixed = PlanSpec {
            ops: vec![
                scan(0),
                scan(1),
                PlanOp::Join { left: 1, right: 0 },
                scan(2),
                PlanOp::Join { left: 3, right: 2 },
                scan(3),
                PlanOp::Join { left: 5, right: 0 },
                PlanOp::Materialize { inputs: vec![4, 6] },
            ],
        };
        assert_eq!(levels(&mixed), vec![vec![0, 1, 3, 5], vec![2, 6], vec![4], vec![7]]);
        for plan in [chain, star, mixed] {
            let run = run_plan(&plan, 1);
            assert!(run.check_ok, "error={:?}", run.error);
            assert_eq!(run.matches, plan_oracle(&plan).final_matches);
            let order: Vec<usize> = run.ops.iter().map(|r| r.op).collect();
            assert_eq!(order, levels(&plan).concat(), "ops report in level order");
        }
    }

    #[test]
    fn an_invalid_plan_fails_before_any_op_runs() {
        let cat = BuildCatalog::dimension_tables(4, 500, 3);
        let mut plan = chain_plan(&cat, &[0, 1], 2_000, 1);
        plan.ops.pop(); // no sink
        assert!(plan.validate().is_err());
        let run = run_plan(&plan, 1);
        assert_eq!(run.error, Some("internal"));
        assert!(!run.check_ok);
        assert!(run.ops.is_empty(), "no op reports: {:?}", run.ops);
        assert_eq!((run.matches, run.duration), (0, SimTime::ZERO));
    }

    #[test]
    fn chain_plan_matches_the_composed_oracle_op_by_op() {
        let cat = BuildCatalog::dimension_tables(4, 600, 5);
        let plan = chain_plan(&cat, &[0, 1, 2], 2_500, 7);
        let oracle = plan_oracle(&plan);
        let run = run_plan(&plan, 1);
        assert!(run.check_ok, "error={:?}", run.error);
        assert_eq!(run.matches, oracle.final_matches);
        assert_eq!(run.executed, Some(PlannedStrategy::GpuResident));
        for r in &run.ops {
            if r.kind == "join" {
                assert!(r.check_ok, "op {} failed its oracle", r.op);
                assert_eq!(r.matches, oracle.checks[r.op].unwrap().matches, "op {}", r.op);
                assert!(r.finish > r.start, "join op {} must take time", r.op);
            }
        }
        // A chain feeds every non-root join output to the next join.
        let feeders = run.ops.iter().filter(|r| r.feeds_join).count();
        assert_eq!(feeders, plan.join_count() - 1);
    }

    #[test]
    fn star_plan_fans_out_and_folds_every_arm() {
        let cat = BuildCatalog::dimension_tables(5, 700, 9);
        let plan = star_plan(&cat, &[1, 2, 4], 3_000, 13);
        let oracle = plan_oracle(&plan);
        let run = run_plan(&plan, 1);
        assert!(run.check_ok, "error={:?}", run.error);
        assert_eq!(run.matches, oracle.final_matches);
        // No star arm feeds another join: nothing pins, nothing spills.
        assert_eq!(run.pinned + run.spilled, 0);
        assert!(run.pins.is_empty());
        // The arms share the fact scan's finish time and overlap: the plan
        // makespan is the slowest arm, not the sum.
        let arm_total: u64 = run
            .ops
            .iter()
            .filter(|r| r.kind == "join")
            .map(|r| (r.finish - r.start).as_nanos())
            .sum();
        assert!(run.duration.as_nanos() < arm_total, "star arms must overlap in virtual time");
    }

    #[test]
    fn intermediates_pin_when_the_device_has_room_and_spill_when_not() {
        let cat = BuildCatalog::dimension_tables(4, 500, 11);
        let plan = chain_plan(&cat, &[0, 1, 2], 2_000, 3);
        let e = engine(1);
        // Roomy accountant: every intermediate pins.
        let roomy = DeviceMemory::new(e.config.device.device_mem_bytes);
        let run = execute_plan(&e, &plan, scans_for(&plan), 0, &roomy, None);
        assert!(run.check_ok);
        assert_eq!(run.pinned as usize, run.pins.len());
        assert!(run.pinned >= 1, "chain intermediates should pin on an idle device");
        assert!(roomy.used() > 0, "pins hold bytes until the run is dropped");
        let held = roomy.used();
        drop(run);
        assert_eq!(roomy.used(), 0, "dropping the run releases {held} pinned bytes");
        // Full accountant: pin reservations fail, intermediates spill,
        // the plan still completes correctly.
        let full = DeviceMemory::new(e.config.device.device_mem_bytes);
        let _hog = full.reserve(full.capacity()).unwrap();
        let run = execute_plan(&e, &plan, scans_for(&plan), 0, &full, None);
        assert!(run.check_ok, "spilling must not affect correctness");
        assert_eq!(run.pinned, 0);
        assert!(run.spilled >= 1);
        assert!(run.pins.is_empty());
    }

    #[test]
    fn plan_runs_are_identical_at_any_worker_count() {
        let cat = BuildCatalog::dimension_tables(6, 800, 17);
        let plan = star_plan(&cat, &[0, 2, 3, 5], 4_000, 19);
        let baseline = run_plan(&plan, 1);
        for jobs in [1usize, 2, 4] {
            set_jobs(jobs);
            let run = run_plan(&plan, 1);
            assert_eq!(run.matches, baseline.matches, "jobs={jobs}");
            assert_eq!(run.duration, baseline.duration, "jobs={jobs}");
            assert_eq!(run.ops.len(), baseline.ops.len(), "jobs={jobs}");
            for (a, b) in run.ops.iter().zip(&baseline.ops) {
                assert_eq!(a.op, b.op, "jobs={jobs}");
                assert_eq!(a.matches, b.matches, "jobs={jobs} op={}", a.op);
                assert_eq!(a.finish, b.finish, "jobs={jobs} op={}", a.op);
                assert_eq!(
                    a.counters.kernel_launches, b.counters.kernel_launches,
                    "jobs={jobs} op={}",
                    a.op
                );
            }
        }
        set_jobs(1);
    }

    #[test]
    fn degraded_plans_still_verify_and_envelope_fits_the_floor() {
        let cat = BuildCatalog::dimension_tables(4, 2_000, 23);
        let plan = chain_plan(&cat, &[0, 1], 60_000, 29);
        // Tiny device: the planner degrades off GPU-resident.
        let e = engine(1 << 12);
        let device = DeviceMemory::new(e.config.device.device_mem_bytes);
        let run = execute_plan(&e, &plan, scans_for(&plan), 1, &device, None);
        assert!(run.check_ok, "error={:?}", run.error);
        assert_eq!(run.matches, plan_oracle(&plan).final_matches);
        // The fully degraded envelope is admissible on this idle device
        // (the co-processing floor exceeds only devices under about 48 B),
        // so a plan that retries down the ladder admits eventually.
        let cap = e.config.device.device_mem_bytes;
        assert!(plan_envelope(&e, &plan, 2) <= cap);
        // planned_root reports the root join's tier from estimates.
        let root = planned_root(&e, &plan);
        assert_ne!(root, PlannedStrategy::CpuFallback);
    }
}
