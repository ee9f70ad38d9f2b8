//! Query-DAG execution: run a multi-join [`PlanSpec`] on the engine.
//!
//! The service's unit of work grows from one join to an operator DAG
//! (scan → join → join → materialize). This module owns the two pieces
//! that make that deterministic and hardware-conscious:
//!
//! * [`DagScheduler`] — a dependency-count scheduler. Every op keeps an
//!   indegree; ops whose inputs are all done enter a ready set drained in
//!   **smallest-op-id order**. Because a [`PlanSpec`] is topologically
//!   numbered, this canonical tie-break makes the wave decomposition — and
//!   therefore every downstream artifact (summaries, timelines, counters)
//!   — byte-identical at any `--jobs` and across runs at the same seed.
//! * [`execute_plan`] — drains the scheduler wave by wave. Each wave's
//!   join ops fan out onto the host worker pool (results merged in op-id
//!   order, so worker count never shows); scans and the sink are folded
//!   inline at zero simulated cost. Every join runs on the service's one
//!   join executor and is verified against the per-op CPU oracle
//!   ([`JoinCheck::compute`](hcj_workload::oracle::JoinCheck::compute) on
//!   its actual inputs).
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
//! its hit or miss at admission; a plan op counts it when its wave runs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use hcj_core::{CachedBuild, OutputMode};
use hcj_gpu::{CounterRollup, DeviceMemory, FaultSummary, Reservation};
use hcj_host::pool::Pool;
use hcj_sim::SimTime;
use hcj_workload::catalog::BuildRef;
use hcj_workload::plan::{rows_to_relation, PlanOp, PlanSpec};
use hcj_workload::{build_is_left, Relation};

use crate::cache::{BuildCache, CachedTable};
use crate::executor::{Executed, JoinJob};
use crate::facade::{HcjEngine, PlannedStrategy};
use crate::service::CacheRole;

/// Deterministic dependency-count scheduler over a topologically numbered
/// op list. Ready ops (indegree zero, not yet issued) drain in ascending
/// op-id order regardless of completion interleaving, which is what keeps
/// plan execution independent of the worker count.
#[derive(Debug)]
pub struct DagScheduler {
    /// Unfinished input count per op.
    indeg: Vec<u32>,
    /// Ops consuming each op's output (forward edges).
    dependents: Vec<Vec<usize>>,
    /// Min-heap of issued-ready op ids.
    ready: BinaryHeap<Reverse<usize>>,
    /// Ops not yet marked done.
    remaining: usize,
}

impl DagScheduler {
    /// Build the scheduler for a plan: indegrees from each op's inputs,
    /// forward edges for completion propagation, sources start ready.
    pub fn new(plan: &PlanSpec) -> Self {
        let n = plan.ops.len();
        let mut indeg = vec![0u32; n];
        let mut dependents = vec![Vec::new(); n];
        for (id, op) in plan.ops.iter().enumerate() {
            let inputs = op.inputs();
            indeg[id] = inputs.len() as u32;
            for input in inputs {
                dependents[input].push(id);
            }
        }
        let mut ready = BinaryHeap::new();
        for (id, &d) in indeg.iter().enumerate() {
            if d == 0 {
                ready.push(Reverse(id));
            }
        }
        DagScheduler { indeg, dependents, ready, remaining: n }
    }

    /// Drain up to `max` ready ops, smallest op id first. An empty result
    /// with [`Self::remaining`] nonzero means every unfinished op still
    /// waits on an issued one.
    pub fn pop_ready_batch(&mut self, max: usize) -> Vec<usize> {
        let mut batch = Vec::new();
        while batch.len() < max {
            match self.ready.pop() {
                Some(Reverse(id)) => batch.push(id),
                None => break,
            }
        }
        batch
    }

    /// Mark `op` complete: its dependents' indegrees drop, and any that
    /// reach zero become ready.
    pub fn mark_done(&mut self, op: usize) {
        self.remaining -= 1;
        for i in 0..self.dependents[op].len() {
            let dep = self.dependents[op][i];
            self.indeg[dep] -= 1;
            if self.indeg[dep] == 0 {
                self.ready.push(Reverse(dep));
            }
        }
    }

    /// Ops not yet marked done.
    pub fn remaining(&self) -> usize {
        self.remaining
    }
}

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
/// estimated side builds). Joins run one wave at a time against the same
/// accountant, so the peak concurrent demand is bounded by the worst
/// single join plus the (separately reserved) pinned intermediates.
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

/// Per-join prep decided on the scheduler thread (cache consultation
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

/// Execute `plan` wave by wave. `scans` holds the materialized base
/// relations, indexed by op id (`None` at join/sink positions); `degrade`
/// steps every join's planned strategy down the ladder (admission-retry
/// escalation); `device` is the shared accountant intermediates pin
/// against; `cache` is the service build cache, when enabled.
///
/// Determinism: ready batches drain in op-id order, worker results merge
/// in batch order, and every op draws from its own fault stream (the
/// engine's stream reseeded by op id) — so the run is byte-identical at
/// any worker count.
pub fn execute_plan(
    engine: &HcjEngine,
    plan: &PlanSpec,
    mut scans: Vec<Option<Relation>>,
    degrade: usize,
    device: &DeviceMemory,
    mut cache: Option<&mut BuildCache>,
) -> PlanRun {
    let n = plan.ops.len();
    let consumers = plan.consumers();
    let mut sched = DagScheduler::new(plan);
    let mut outputs: Vec<Option<Relation>> = (0..n).map(|_| None).collect();
    let mut resident = vec![false; n];
    let mut finish = vec![SimTime::ZERO; n];
    let mut matches_of = vec![0u64; n];
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
    let root_join = plan
        .ops
        .iter()
        .enumerate()
        .filter(|(_, op)| matches!(op, PlanOp::Join { .. }))
        .map(|(id, _)| id)
        .max();

    'waves: while sched.remaining() > 0 {
        let batch = sched.pop_ready_batch(usize::MAX);
        if batch.is_empty() {
            // "Cannot happen" on a validated plan: no ready op but work
            // remains. Abort typed rather than spin.
            run.error = Some("internal");
            run.check_ok = false;
            break;
        }

        // Decide each join's strategy, residency and cache role on this
        // thread; the worker closure stays pure over shared state.
        let mut joins: Vec<JoinPrep> = Vec::new();
        for &op in &batch {
            let PlanOp::Join { left, right } = &plan.ops[op] else { continue };
            let (l, r) = (*left, *right);
            let (lrel, rrel) = match (outputs[l].as_ref(), outputs[r].as_ref()) {
                (Some(lrel), Some(rrel)) => (lrel, rrel),
                _ => {
                    run.error = Some("internal");
                    run.check_ok = false;
                    break 'waves;
                }
            };
            let (b, p) = if build_is_left(lrel, rrel) { (l, r) } else { (r, l) };
            let level = degrade_n(
                engine.plan(outputs[b].as_ref().unwrap(), outputs[p].as_ref().unwrap()),
                degrade,
            );
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

        // Fan the wave's joins onto the host pool; results come back in
        // batch order, so the merge below is worker-count independent.
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
            // copy of any pinned-intermediate side.
            let mut exec = JoinJob {
                r: outputs_ref[prep.build].as_ref().expect("deps done"),
                s: outputs_ref[prep.probe].as_ref().expect("deps done"),
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

        // Merge the wave in op-id order: scans and the sink inline at
        // zero cost, joins from the pool results.
        let mut results = results.into_iter();
        let mut preps = joins.iter();
        for &op in &batch {
            match &plan.ops[op] {
                PlanOp::Scan { .. } => {
                    let Some(rel) = scans[op].take() else {
                        run.error = Some("internal");
                        run.check_ok = false;
                        break 'waves;
                    };
                    outputs[op] = Some(rel);
                    run.ops.push(OpReport {
                        op,
                        kind: "scan",
                        label: format!("op{op} scan"),
                        start: SimTime::ZERO,
                        finish: SimTime::ZERO,
                        executed: None,
                        cache_role: CacheRole::None,
                        feeds_join: false,
                        pinned: false,
                        check_ok: true,
                        matches: 0,
                        faults: FaultSummary::default(),
                        counters: CounterRollup::default(),
                        fault_marks: Vec::new(),
                        error: None,
                    });
                }
                PlanOp::Materialize { inputs } => {
                    let start = inputs.iter().map(|&i| finish[i]).max().unwrap_or(SimTime::ZERO);
                    finish[op] = start;
                    let folded: u64 = inputs.iter().map(|&i| matches_of[i]).sum();
                    run.matches = folded;
                    run.ops.push(OpReport {
                        op,
                        kind: "materialize",
                        label: format!("op{op} materialize"),
                        start,
                        finish: start,
                        executed: None,
                        cache_role: CacheRole::None,
                        feeds_join: false,
                        pinned: false,
                        check_ok: true,
                        matches: folded,
                        faults: FaultSummary::default(),
                        counters: CounterRollup::default(),
                        fault_marks: Vec::new(),
                        error: None,
                    });
                }
                PlanOp::Join { .. } => {
                    let (Some(prep), Some(exec)) = (preps.next(), results.next()) else {
                        run.error = Some("internal");
                        run.check_ok = false;
                        break 'waves;
                    };
                    let start = finish[prep.build].max(finish[prep.probe]);
                    let end = start + exec.duration;
                    finish[op] = end;
                    matches_of[op] = exec.check.matches;
                    let op_ok = exec.check_ok();
                    if !op_ok {
                        run.check_ok = false;
                    }
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
                        check_ok: op_ok,
                        matches: exec.check.matches,
                        faults: exec.faults,
                        counters: exec.counters,
                        fault_marks: exec.fault_marks,
                        error: exec.error,
                    });
                }
            }
            run.duration = run.duration.max(finish[op]);
            sched.mark_done(op);
            if run.error.is_some() {
                break 'waves;
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
    fn scheduler_drains_in_op_id_order() {
        let cat = BuildCatalog::dimension_tables(4, 500, 3);
        let star = star_plan(&cat, &[0, 1, 2], 2_000, 1);
        let mut s = DagScheduler::new(&star);
        // Wave 1: all four scans, ascending.
        assert_eq!(s.pop_ready_batch(usize::MAX), vec![0, 1, 2, 3]);
        assert_eq!(s.pop_ready_batch(usize::MAX), Vec::<usize>::new());
        for op in 0..4 {
            s.mark_done(op);
        }
        // Wave 2: all three star arms, ascending, regardless of the order
        // their inputs finished in.
        assert_eq!(s.pop_ready_batch(usize::MAX), vec![4, 5, 6]);
        for op in [6, 4, 5] {
            s.mark_done(op);
        }
        assert_eq!(s.pop_ready_batch(usize::MAX), vec![7]);
        s.mark_done(7);
        assert_eq!(s.remaining(), 0);
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
        // The fully degraded envelope is always admissible on an idle
        // device (the co-processing floor never exceeds capacity), so a
        // plan that retries down the ladder always admits eventually.
        let cap = e.config.device.device_mem_bytes;
        assert!(plan_envelope(&e, &plan, 2) <= cap);
        // planned_root reports the root join's tier from estimates.
        let root = planned_root(&e, &plan);
        assert_ne!(root, PlannedStrategy::CpuFallback);
    }
}
