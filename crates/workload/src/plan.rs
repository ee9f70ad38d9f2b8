//! Multi-join query plans: operator DAGs over the catalog, plus the
//! plan-level oracle that composes the per-join CPU reference oracle in
//! dependency order.
//!
//! The serving layer's unit of work grows here from one join to a small
//! TPC-H-shaped plan: scans feed joins, joins feed further joins, and a
//! final materialize folds the root(s). A [`PlanSpec`] is a topologically
//! ordered op list (every op only references smaller op ids), which makes
//! the DAG acyclic *by construction* and gives the scheduler a canonical
//! op order for deterministic tie-breaking.
//!
//! Two generated shapes cover the interesting regimes:
//!
//! * **chain** — a left-deep pipeline `(((F ⨝ D1) ⨝ D2) ⨝ D3)`: each
//!   join consumes the previous join's materialized output as its probe
//!   side, which is what exercises the pin-vs-spill decision for
//!   intermediates.
//! * **star** — `F ⨝ D1`, `F ⨝ D2`, `F ⨝ D3` sharing one fact scan:
//!   the joins become ready simultaneously (ready-batch fan-out onto the
//!   host pool) and every dimension is a named, cacheable build side.
//!
//! Intermediate results are canonicalized ([`rows_to_relation`] sorts the
//! join rows before packing them) so a downstream join sees byte-identical
//! input no matter which strategy — or the CPU oracle — produced it. The
//! sort runs on the serving loop's thread for every plan operator that
//! feeds a join, so it follows the oracle's compact-domain rule
//! (`relation::compact_domain`: largest key at most `2 · rows + 4,096`):
//! over a compact domain a stable counting sort by key orders the rows,
//! then each group of equal keys is sorted by its payload pair, in one
//! scratch buffer of at most `24 · rows + 32,784` B beside the relation;
//! a sparse domain keeps the comparison sort of whole rows. Both give the
//! same relation, byte for byte.

use crate::catalog::{BuildCatalog, BuildRef};
use crate::generate::RelationSpec;
use crate::oracle::{reference_join, JoinCheck, JoinRow};
use crate::relation::{build_is_left, compact_domain, Relation, Tuple};

/// One operator of a query plan. Input indices always reference earlier
/// ops (`input < own id`), so any `Vec<PlanOp>` with valid indices is a
/// DAG in topological order.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanOp {
    /// Produce a base relation from its generator spec. `build` names the
    /// catalog relation when this scan is a cacheable dimension table.
    Scan {
        /// Generator of the scanned relation.
        spec: RelationSpec,
        /// Catalog identity, when the relation is named (cacheable).
        build: Option<BuildRef>,
    },
    /// Equi-join the outputs of two earlier ops. Which side builds is
    /// decided by size at execution time (see [`build_is_left`]).
    Join {
        /// Op id of the left input.
        left: usize,
        /// Op id of the right input.
        right: usize,
    },
    /// Terminal sink folding the listed join outputs into the final
    /// result. Always the last op of a well-formed plan.
    Materialize {
        /// Op ids of the join outputs to fold.
        inputs: Vec<usize>,
    },
}

impl PlanOp {
    /// The op ids this op consumes (empty for scans).
    pub fn inputs(&self) -> Vec<usize> {
        match self {
            PlanOp::Scan { .. } => Vec::new(),
            PlanOp::Join { left, right } => vec![*left, *right],
            PlanOp::Materialize { inputs } => inputs.clone(),
        }
    }

    /// Short kind tag for labels and summaries.
    pub fn kind(&self) -> &'static str {
        match self {
            PlanOp::Scan { .. } => "scan",
            PlanOp::Join { .. } => "join",
            PlanOp::Materialize { .. } => "materialize",
        }
    }
}

/// A multi-join query plan: ops in topological order, ending in one
/// [`PlanOp::Materialize`] sink.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanSpec {
    /// The operators, in topological order (inputs < own id).
    pub ops: Vec<PlanOp>,
}

impl PlanSpec {
    /// Check the structural invariants every consumer of a plan relies
    /// on. Returns the first violation as a message.
    ///
    /// * ops non-empty, every input id smaller than the op's own id;
    /// * exactly one materialize, and it is the last op;
    /// * at least one join; join inputs distinct; materialize folds joins;
    /// * no dangling ops: everything except the sink is consumed.
    pub fn validate(&self) -> Result<(), String> {
        if self.ops.is_empty() {
            return Err("empty plan".into());
        }
        let n = self.ops.len();
        let mut consumed = vec![false; n];
        for (id, op) in self.ops.iter().enumerate() {
            for input in op.inputs() {
                if input >= id {
                    return Err(format!("op {id} references op {input} (not topological)"));
                }
                consumed[input] = true;
            }
            match op {
                PlanOp::Join { left, right } if left == right => {
                    return Err(format!("op {id} joins op {left} with itself"));
                }
                PlanOp::Materialize { inputs } => {
                    if id != n - 1 {
                        return Err(format!("materialize at op {id} is not the last op"));
                    }
                    if inputs.is_empty() {
                        return Err("materialize folds no inputs".into());
                    }
                    for &input in inputs {
                        if !matches!(self.ops[input], PlanOp::Join { .. }) {
                            return Err(format!("materialize folds non-join op {input}"));
                        }
                    }
                }
                _ => {}
            }
        }
        if !matches!(self.ops[n - 1], PlanOp::Materialize { .. }) {
            return Err("last op is not a materialize sink".into());
        }
        if self.join_count() == 0 {
            return Err("plan has no joins".into());
        }
        if let Some(id) = (0..n - 1).find(|&id| !consumed[id]) {
            return Err(format!("op {id} is dangling (never consumed)"));
        }
        Ok(())
    }

    /// Number of join ops.
    pub fn join_count(&self) -> usize {
        self.ops.iter().filter(|op| matches!(op, PlanOp::Join { .. })).count()
    }

    /// For every op, the ops that consume its output.
    pub fn consumers(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.ops.len()];
        for (id, op) in self.ops.iter().enumerate() {
            for input in op.inputs() {
                out[input].push(id);
            }
        }
        out
    }

    /// Estimated output cardinality per op, from the specs alone (no
    /// generation): scans report their spec cardinality; a join reports
    /// the larger input (an upper bound for unique-build joins, the shape
    /// the generators emit); the sink reports the sum of its inputs.
    /// Feeds the admission-control footprint envelope.
    pub fn estimated_rows(&self) -> Vec<u64> {
        let mut rows = vec![0u64; self.ops.len()];
        for (id, op) in self.ops.iter().enumerate() {
            rows[id] = match op {
                PlanOp::Scan { spec, .. } => spec.tuples as u64,
                PlanOp::Join { left, right } => rows[*left].max(rows[*right]),
                PlanOp::Materialize { inputs } => inputs.iter().map(|&i| rows[i]).sum(),
            };
        }
        rows
    }
}

/// Combine the two payloads of a join row into the payload of the
/// intermediate tuple handed to downstream joins. Any deterministic
/// mixing works — both the executor and the oracle use this one, so
/// downstream checks agree exactly.
pub fn combine_payloads(r_payload: u32, s_payload: u32) -> u32 {
    r_payload.wrapping_mul(31).wrapping_add(s_payload.rotate_left(16))
}

/// Canonicalize materialized join rows into the intermediate relation a
/// downstream join consumes: rows sorted (strategy output order is
/// worker-count dependent; the sorted order is not), payloads combined
/// via [`combine_payloads`], 4-byte payload width.
pub fn rows_to_relation(rows: &[JoinRow]) -> Relation {
    match compact_domain(rows.iter().map(|row| row.0)) {
        Some(slots) => counting_sorted(rows, slots),
        None => comparison_sorted(rows),
    }
}

/// [`rows_to_relation`] by a comparison sort of whole rows.
fn comparison_sorted(rows: &[JoinRow]) -> Relation {
    let mut sorted = rows.to_vec();
    sorted.sort_unstable();
    let mut rel = Relation::with_capacity(sorted.len());
    for (key, rp, sp) in sorted {
        rel.push(Tuple { key, payload: combine_payloads(rp, sp) });
    }
    rel
}

/// [`rows_to_relation`] by a stable counting sort on keys below `slots`,
/// then a sort of each key's payload pairs. One scratch buffer holds the
/// `slots + 1` group offsets followed by every row's pair packed as
/// `r_payload << 32 | s_payload`, whose order is the pairs' order.
fn counting_sorted(rows: &[JoinRow], slots: usize) -> Relation {
    let mut scratch = vec![0u64; slots + 1 + rows.len()];
    let (offsets, pairs) = scratch.split_at_mut(slots + 1);
    for &(key, _, _) in rows {
        offsets[key as usize + 1] += 1;
    }
    for k in 0..slots {
        offsets[k + 1] += offsets[k];
    }
    // Key k's cursor starts at its group's first slot and ends at its last
    // slot plus one, which is where group k + 1 starts.
    for &(key, rp, sp) in rows {
        let cursor = &mut offsets[key as usize];
        pairs[*cursor as usize] = u64::from(rp) << 32 | u64::from(sp);
        *cursor += 1;
    }
    let mut rel = Relation::with_capacity(rows.len());
    let mut start = 0;
    for (key, &end) in offsets[..slots].iter().enumerate() {
        let group = &mut pairs[start..end as usize];
        group.sort_unstable();
        for &pair in &*group {
            let payload = combine_payloads((pair >> 32) as u32, pair as u32);
            rel.push(Tuple { key: key as u32, payload });
        }
        start = end as usize;
    }
    rel
}

/// Ground truth for one plan, composed op by op with the CPU reference
/// oracle in dependency order.
#[derive(Clone, Debug)]
pub struct PlanOracle {
    /// Per-op expected join summary (`None` for scans and the sink).
    pub checks: Vec<Option<JoinCheck>>,
    /// Per-op output relation (scans and joins; `None` for the sink).
    pub outputs: Vec<Option<Relation>>,
    /// Total matches across the sink's folded join outputs.
    pub final_matches: u64,
}

/// Execute the plan entirely on the CPU oracle: generate every scan,
/// run [`reference_join`] per join in dependency order (same build
/// orientation and payload combination as the real executor), and fold
/// the sink. The per-op `checks` are what any correct executor must
/// reproduce op by op.
pub fn plan_oracle(plan: &PlanSpec) -> PlanOracle {
    plan.validate().expect("oracle requires a well-formed plan");
    let n = plan.ops.len();
    let mut outputs: Vec<Option<Relation>> = vec![None; n];
    let mut checks: Vec<Option<JoinCheck>> = vec![None; n];
    let mut final_matches = 0u64;
    for (id, op) in plan.ops.iter().enumerate() {
        match op {
            PlanOp::Scan { spec, .. } => outputs[id] = Some(spec.generate()),
            PlanOp::Join { left, right } => {
                let l = outputs[*left].as_ref().expect("topological order");
                let r = outputs[*right].as_ref().expect("topological order");
                let (build, probe) = if build_is_left(l, r) { (l, r) } else { (r, l) };
                let rows = reference_join(build, probe);
                checks[id] = Some(JoinCheck::from_rows(&rows));
                outputs[id] = Some(rows_to_relation(&rows));
            }
            PlanOp::Materialize { inputs } => {
                final_matches =
                    inputs.iter().map(|&i| checks[i].expect("sink folds joins").matches).sum();
            }
        }
    }
    PlanOracle { checks, outputs, final_matches }
}

/// A left-deep chain over the catalog: `F ⨝ D1`, then each further
/// dimension joins the previous intermediate. `dims` are catalog indices
/// (one join per entry, 2–4 of them); the fact side draws `fact_tuples`
/// foreign keys over the first dimension's domain so the root join is
/// dense and later joins thin out over the smaller shared domains.
pub fn chain_plan(
    catalog: &BuildCatalog,
    dims: &[usize],
    fact_tuples: usize,
    seed: u64,
) -> PlanSpec {
    let mut ops = scan_ops(catalog, dims, fact_tuples, seed);
    let n = dims.len();
    // Join 1 pairs the first dimension scan (op 1) with the fact scan
    // (op 0); join i pairs dimension scan i with the previous join.
    ops.push(PlanOp::Join { left: 1, right: 0 });
    for i in 2..=n {
        ops.push(PlanOp::Join { left: i, right: n + i - 1 });
    }
    ops.push(PlanOp::Materialize { inputs: vec![2 * n] });
    let plan = PlanSpec { ops };
    debug_assert!(plan.validate().is_ok());
    plan
}

/// A star over the catalog: every dimension joins the same fact scan
/// directly, so all joins become ready in one batch and the sink folds
/// them all.
pub fn star_plan(
    catalog: &BuildCatalog,
    dims: &[usize],
    fact_tuples: usize,
    seed: u64,
) -> PlanSpec {
    let mut ops = scan_ops(catalog, dims, fact_tuples, seed);
    let n = dims.len();
    for i in 1..=n {
        ops.push(PlanOp::Join { left: i, right: 0 });
    }
    ops.push(PlanOp::Materialize { inputs: (n + 1..=2 * n).collect() });
    let plan = PlanSpec { ops };
    debug_assert!(plan.validate().is_ok());
    plan
}

/// Shared scan prefix of both shapes: op 0 scans the fact side (foreign
/// keys over the first dimension's current domain), ops `1..=dims.len()`
/// scan the named dimension tables at their current versions.
fn scan_ops(catalog: &BuildCatalog, dims: &[usize], fact_tuples: usize, seed: u64) -> Vec<PlanOp> {
    assert!((2..=4).contains(&dims.len()), "plans carry 2-4 joins, got {} dimensions", dims.len());
    let first = catalog.get(dims[0]);
    let fact = RelationSpec {
        tuples: fact_tuples,
        distribution: crate::generate::KeyDistribution::UniformFk {
            distinct: first.tuples() as u64,
        },
        payload_width: 4,
        seed: seed ^ 0xA076_1D64_78BD_642F,
    };
    let mut ops = vec![PlanOp::Scan { spec: fact, build: None }];
    for &idx in dims {
        let rel = catalog.get(idx);
        ops.push(PlanOp::Scan { spec: rel.spec(), build: Some(rel.build_ref()) });
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::assert_join_matches;
    use crate::oracle::tests::domain_pairs;
    use crate::rng::{Rng, SmallRng};

    fn catalog() -> BuildCatalog {
        BuildCatalog::dimension_tables(6, 800, 7)
    }

    #[test]
    fn generated_shapes_are_well_formed() {
        let cat = catalog();
        for dims in [vec![0, 1], vec![2, 0, 4], vec![0, 1, 2, 3]] {
            let chain = chain_plan(&cat, &dims, 4_000, 11);
            let star = star_plan(&cat, &dims, 4_000, 11);
            chain.validate().expect("chain well-formed");
            star.validate().expect("star well-formed");
            assert_eq!(chain.join_count(), dims.len());
            assert_eq!(star.join_count(), dims.len());
            // 1 fact scan + n dim scans + n joins + sink.
            assert_eq!(chain.ops.len(), 2 * dims.len() + 2);
            assert_eq!(star.ops.len(), 2 * dims.len() + 2);
        }
    }

    #[test]
    fn validation_rejects_malformed_plans() {
        let scan = PlanOp::Scan { spec: RelationSpec::unique(8, 1), build: None };
        let cases: Vec<(PlanSpec, &str)> = vec![
            (PlanSpec { ops: vec![] }, "empty"),
            (
                PlanSpec {
                    ops: vec![
                        scan.clone(),
                        PlanOp::Join { left: 0, right: 2 },
                        PlanOp::Materialize { inputs: vec![1] },
                    ],
                },
                "not topological",
            ),
            (
                PlanSpec {
                    ops: vec![
                        scan.clone(),
                        PlanOp::Join { left: 0, right: 0 },
                        PlanOp::Materialize { inputs: vec![1] },
                    ],
                },
                "with itself",
            ),
            (
                PlanSpec { ops: vec![scan.clone(), PlanOp::Materialize { inputs: vec![0] }] },
                "non-join",
            ),
            (PlanSpec { ops: vec![scan.clone()] }, "not a materialize"),
            (
                PlanSpec {
                    ops: vec![
                        scan.clone(),
                        scan.clone(),
                        scan.clone(),
                        PlanOp::Join { left: 0, right: 1 },
                        PlanOp::Materialize { inputs: vec![3] },
                    ],
                },
                "dangling",
            ),
        ];
        for (plan, needle) in cases {
            let err = plan.validate().expect_err("must reject");
            assert!(err.contains(needle), "{err:?} lacks {needle:?}");
        }
    }

    #[test]
    fn rows_to_relation_is_order_free_and_checkable() {
        let rows = vec![(3, 30, 300), (1, 10, 100), (2, 20, 200), (1, 11, 100)];
        let mut shuffled = rows.clone();
        shuffled.reverse();
        let a = rows_to_relation(&rows);
        let b = rows_to_relation(&shuffled);
        assert_eq!(a, b, "canonicalization erases production order");
        assert_eq!(a.keys, vec![1, 1, 2, 3]);
        assert_eq!(a.payloads[0], combine_payloads(10, 100));
    }

    #[test]
    fn counting_and_comparison_sorts_agree_byte_for_byte() {
        let mut rng = SmallRng::seed_from_u64(0xC0_0175);
        let mut cases: Vec<Vec<JoinRow>> = Vec::new();
        for (r, s) in domain_pairs() {
            // Sorted as the oracle returns them, and in a production order.
            let rows = reference_join(&r, &s);
            let mut shuffled = rows.clone();
            rng.shuffle(&mut shuffled);
            cases.extend([rows, shuffled]);
        }
        // `n` rows whose largest key is at the bound `2 · n + 4,096` and one
        // past it, with repeated keys, payloads at both extremes and, from
        // 25 rows on, repeated rows.
        for n in [1usize, 6, 1_500] {
            let bound = 2 * n as u32 + 4_096;
            for top in [bound, bound + 1] {
                let mut rows: Vec<JoinRow> = (1..n)
                    .map(|i| {
                        let pay = |r: &mut SmallRng| [0, u32::MAX, r.next_u64() as u32][i % 3];
                        ((i as u32 * 5) % 40, pay(&mut rng), pay(&mut rng))
                    })
                    .collect();
                rows.push((top, u32::MAX, 0));
                cases.push(rows);
            }
        }
        for (case, rows) in cases.iter().enumerate() {
            let want = comparison_sorted(rows);
            let slots = rows.iter().map(|row| row.0).max().map_or(0, |k| k as usize + 1);
            assert_eq!(counting_sorted(rows, slots), want, "case {case}");
            assert_eq!(rows_to_relation(rows), want, "case {case}");
        }
    }

    #[test]
    fn plan_oracle_composes_the_per_join_oracle() {
        let cat = catalog();
        let plan = chain_plan(&cat, &[0, 1, 2], 3_000, 5);
        let oracle = plan_oracle(&plan);
        // Root join: every fact key hits the first dimension (FK domain).
        let root = oracle.checks[4].expect("join op");
        assert_eq!(root.matches, 3_000);
        // Each join's rows must equal the pairwise reference join of its
        // (canonicalized) inputs, in the shared build orientation.
        for (id, op) in plan.ops.iter().enumerate() {
            if let PlanOp::Join { left, right } = op {
                let l = oracle.outputs[*left].as_ref().unwrap();
                let r = oracle.outputs[*right].as_ref().unwrap();
                let (b, p) = if build_is_left(l, r) { (l, r) } else { (r, l) };
                let check = oracle.checks[id].unwrap();
                assert_eq!(check, JoinCheck::compute(b, p), "op {id}");
                let out = oracle.outputs[id].as_ref().unwrap();
                let rows: Vec<JoinRow> = reference_join(b, p);
                assert_join_matches(b, p, &rows);
                assert_eq!(out.len() as u64, check.matches);
            }
        }
        // The sink folds the single chain root.
        let last_join = oracle.checks[6].unwrap();
        assert_eq!(oracle.final_matches, last_join.matches);
    }

    #[test]
    fn star_oracle_folds_every_arm() {
        let cat = catalog();
        let plan = star_plan(&cat, &[1, 3, 5], 2_000, 9);
        let oracle = plan_oracle(&plan);
        let arms: u64 = (4..=6).map(|id| oracle.checks[id].unwrap().matches).sum();
        assert_eq!(oracle.final_matches, arms);
        // The first arm is dense by construction.
        assert_eq!(oracle.checks[4].unwrap().matches, 2_000);
    }

    #[test]
    fn oracle_is_deterministic() {
        let cat = catalog();
        let plan = star_plan(&cat, &[0, 2], 1_500, 3);
        let a = plan_oracle(&plan);
        let b = plan_oracle(&plan);
        assert_eq!(a.checks, b.checks);
        assert_eq!(a.final_matches, b.final_matches);
    }
}
