//! Reference join oracle: a simple, obviously-correct equi-join used to
//! validate every join strategy in the workspace.
//!
//! [`JoinCheck::compute`] checks every join the serving loop, its lookahead
//! helper and the plan executor run, so its cost is host time on every
//! request. When the build side's key domain is compact (the crate's one
//! rule, `relation::compact_domain`: largest key at most `2 · |build| +
//! 4,096`, true of every generated relation, whose keys lie in `1..=n`)
//! it counts in a table indexed by key: 16 B a slot, at most
//! `32 · |build| + 65,552` B, one allocation and one slot read per probe
//! tuple. A sparse domain, such as TPC-H order keys or keys near
//! `u32::MAX`, keeps the hash table. Both give the same check, since
//! counts and wrapping sums do not depend on the order tuples are
//! visited in. [`reference_join`] and [`partition_by_key`] keep their
//! plain bodies: only tests and the composed oracle use them.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::relation::{compact_domain, Relation};
use crate::rng::mix64;

/// One materialized join result row: `(key, r_payload, s_payload)`.
pub type JoinRow = (u32, u32, u32);

/// Hash-join the two relations with a plain `HashMap`, returning the
/// result rows sorted (so strategy outputs can be compared order-free).
pub fn reference_join(r: &Relation, s: &Relation) -> Vec<JoinRow> {
    let mut table: HashMap<u32, Vec<u32>> = HashMap::with_capacity(r.len());
    for t in r.iter() {
        table.entry(t.key).or_default().push(t.payload);
    }
    let mut out = Vec::new();
    for t in s.iter() {
        if let Some(pays) = table.get(&t.key) {
            for &rp in pays {
                out.push((t.key, rp, t.payload));
            }
        }
    }
    out.sort_unstable();
    out
}

/// The oracle table's hasher: one [`mix64`] finalization of the `u32` key
/// instead of SipHash rounds. Deterministic and unkeyed, which is sound
/// here because [`JoinCheck::compute`]'s counts and wrapping sums do not
/// depend on the table's iteration order; the cost is no protection from
/// keys crafted to collide, and the oracle only checks this program's own
/// joins.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = mix64(self.0 ^ u64::from(b));
        }
    }

    fn write_u32(&mut self, key: u32) {
        self.0 = mix64(self.0 ^ u64::from(key));
    }
}

/// Summary facts about the correct join result, for cheap validation of
/// aggregate-only strategies (the paper's aggregation output mode sums the
/// payload columns instead of materializing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JoinCheck {
    /// Number of result rows.
    pub matches: u64,
    /// Sum over results of `r_payload` (wrapping).
    pub sum_r_payload: u64,
    /// Sum over results of `s_payload` (wrapping).
    pub sum_s_payload: u64,
}

impl JoinCheck {
    /// Compute the ground truth from the two inputs: by key directly when
    /// `r`'s key domain is compact, else through a hash table.
    pub fn compute(r: &Relation, s: &Relation) -> JoinCheck {
        match compact_domain(r.keys.iter().copied()) {
            Some(slots) => Self::compute_direct(r, s, slots),
            None => Self::compute_hashed(r, s),
        }
    }

    /// Each build key's tuple count and payload sum in slot `key` of a
    /// table of `slots` slots (more than `r`'s largest key); a probe key
    /// past the table matches nothing.
    fn compute_direct(r: &Relation, s: &Relation, slots: usize) -> JoinCheck {
        let mut table = vec![(0u64, 0u64); slots];
        for t in r.iter() {
            let e = &mut table[t.key as usize];
            e.0 += 1;
            e.1 += u64::from(t.payload);
        }
        let mut check = JoinCheck::ZERO;
        for t in s.iter() {
            if let Some(&(count, pay_sum)) = table.get(t.key as usize) {
                check.add_matches(count, pay_sum, t.payload);
            }
        }
        check
    }

    /// The same counts and sums in a hash table keyed by build key.
    fn compute_hashed(r: &Relation, s: &Relation) -> JoinCheck {
        let mut table: HashMap<u32, (u64, u64), BuildHasherDefault<KeyHasher>> =
            HashMap::with_capacity_and_hasher(r.len(), BuildHasherDefault::default());
        for t in r.iter() {
            let e = table.entry(t.key).or_insert((0, 0));
            e.0 += 1;
            e.1 += u64::from(t.payload);
        }
        let mut check = JoinCheck::ZERO;
        for t in s.iter() {
            if let Some(&(count, pay_sum)) = table.get(&t.key) {
                check.add_matches(count, pay_sum, t.payload);
            }
        }
        check
    }

    /// Add one probe tuple's matches against `count` build tuples whose
    /// payloads sum to `pay_sum`.
    fn add_matches(&mut self, count: u64, pay_sum: u64, s_payload: u32) {
        self.matches += count;
        self.sum_r_payload = self.sum_r_payload.wrapping_add(pay_sum);
        self.sum_s_payload = self.sum_s_payload.wrapping_add(count * u64::from(s_payload));
    }

    /// Fold a materialized result into the same summary shape.
    pub fn from_rows(rows: &[JoinRow]) -> JoinCheck {
        let mut check =
            JoinCheck { matches: rows.len() as u64, sum_r_payload: 0, sum_s_payload: 0 };
        for &(_, rp, sp) in rows {
            check.sum_r_payload = check.sum_r_payload.wrapping_add(u64::from(rp));
            check.sum_s_payload = check.sum_s_payload.wrapping_add(u64::from(sp));
        }
        check
    }

    /// The empty check: additive identity for [`JoinCheck::absorb`].
    pub const ZERO: JoinCheck = JoinCheck { matches: 0, sum_r_payload: 0, sum_s_payload: 0 };

    /// Accumulate a partial (per-partition) check into this one. Because
    /// [`exchange_partition`] partitions by key, partitions join
    /// disjointly and the sum of partial checks equals the full check —
    /// which is what makes the composed cross-device oracle sound.
    pub fn absorb(&mut self, other: &JoinCheck) {
        self.matches += other.matches;
        self.sum_r_payload = self.sum_r_payload.wrapping_add(other.sum_r_payload);
        self.sum_s_payload = self.sum_s_payload.wrapping_add(other.sum_s_payload);
    }
}

/// The exchange partition of `key` among `partitions` buckets: a
/// splitmix64-finalized hash reduced mod the partition count. This is the
/// **single source of truth** shared by the cross-device exchange executor
/// and the composed oracle below — both sides of a join agree on partition
/// membership by construction, and a change here changes both together.
/// A power-of-two count (the exchange always uses one) masks the low bits
/// instead of dividing, which gives the same remainder.
pub fn exchange_partition(key: u32, partitions: usize) -> usize {
    assert!(partitions > 0, "at least one partition");
    let hash = mix64(u64::from(key));
    let n = partitions as u64;
    (if n.is_power_of_two() { hash & (n - 1) } else { hash % n }) as usize
}

/// Split `rel` into `partitions` relations by [`exchange_partition`] of
/// each tuple's key, preserving input order inside every partition and the
/// relation's logical payload width.
pub fn partition_by_key(rel: &Relation, partitions: usize) -> Vec<Relation> {
    let mut parts: Vec<Relation> = (0..partitions)
        .map(|_| Relation { payload_width: rel.payload_width, ..Relation::default() })
        .collect();
    for t in rel.iter() {
        let p = &mut parts[exchange_partition(t.key, partitions)];
        p.keys.push(t.key);
        p.payloads.push(t.payload);
    }
    parts
}

/// The composed cross-device oracle: partition both inputs by key, join
/// each partition pair with the reference oracle, and merge the partial
/// checks in ascending partition order. Equal to [`JoinCheck::compute`] on
/// the whole inputs for every partition count (tested below), so a
/// cross-device exchange join can be validated partition by partition.
pub fn composed_join_check(r: &Relation, s: &Relation, partitions: usize) -> JoinCheck {
    let (r_parts, s_parts) = (partition_by_key(r, partitions), partition_by_key(s, partitions));
    let mut check = JoinCheck::ZERO;
    for (rp, sp) in r_parts.iter().zip(&s_parts) {
        check.absorb(&JoinCheck::compute(rp, sp));
    }
    check
}

/// Assert that `rows` (any order) equals the reference join of `r ⨝ s`.
/// Panics with a diff-oriented message on mismatch. Test helper.
pub fn assert_join_matches(r: &Relation, s: &Relation, rows: &[JoinRow]) {
    let expected = reference_join(r, s);
    let mut got = rows.to_vec();
    got.sort_unstable();
    assert_eq!(
        got.len(),
        expected.len(),
        "result cardinality mismatch: got {}, expected {}",
        got.len(),
        expected.len()
    );
    if got != expected {
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(g, e, "first divergence at sorted row {i}");
        }
        unreachable!("lengths equal and rows compared");
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::generate::{canonical_pair, payload_of, KeyDistribution, RelationSpec};
    use crate::relation::Tuple;
    use crate::rng::{Rng, SmallRng};

    /// Build and probe pairs for comparing a compact-domain path with its
    /// general path: empty and one-tuple relations, key 0, largest build
    /// keys at the compact-domain bound and one past it, duplicate keys on
    /// both sides, Zipf, foreign-key and free-payload inputs, and probe
    /// keys past the build side's largest key (up to `u32::MAX`). Build
    /// keys stay below 2^17, so a direct table over any of them is small.
    pub(crate) fn domain_pairs() -> Vec<(Relation, Relation)> {
        let mut rng = SmallRng::seed_from_u64(0xD1_4EC7);
        let mut free = |keys: Vec<u32>| {
            let payloads = keys.iter().map(|_| rng.next_u64() as u32).collect();
            Relation::from_columns(keys, payloads)
        };
        let (empty, one) = (Relation::default(), free(vec![5]));
        let zero = free(vec![0, 0, 3]);
        let mut pairs = vec![
            (empty.clone(), empty.clone()),
            (empty.clone(), one.clone()),
            (one.clone(), empty),
            (one.clone(), one),
            (free(vec![0]), free(vec![0, 0])),
            (zero.clone(), free(vec![0, 3, 3, 0, 9, u32::MAX])),
            (free(vec![9, 3, 0, 3]), zero),
        ];
        // Largest build key at the bound `2 · n + 4,096` and one past it;
        // probes hit it, miss just past it and draw over both domains.
        for n in [1usize, 7, 2_000] {
            let bound = 2 * n as u32 + 4_096;
            for top in [bound, bound + 1] {
                let mut keys: Vec<u32> = (1..n as u32).map(|i| i * 7 % top).collect();
                keys.push(top);
                let spread = |i: usize| (i as u32).wrapping_mul(2_654_435_761) % (top + 9);
                let mut probe = vec![top, top + 1, 0, u32::MAX];
                probe.extend((0..3 * n).map(spread));
                pairs.push((free(keys), free(probe)));
            }
        }
        let fk = |tuples, distinct, seed| {
            let distribution = KeyDistribution::UniformFk { distinct };
            RelationSpec { tuples, distribution, payload_width: 4, seed }.generate()
        };
        for seed in 0..4 {
            let zipf = |tuples, distinct, seed| RelationSpec::zipf(tuples, distinct, 0.9, seed);
            let generated = [
                canonical_pair(1_000 + 500 * seed as usize, 3_000, seed),
                (zipf(2_000, 300, seed).generate(), zipf(3_000, 600, seed + 10).generate()),
                // The larger side builds, with duplicates, and half the
                // probe keys lie past every build key.
                (fk(5_000, 400, seed + 20), fk(800, 800, seed + 30)),
            ];
            // Each with its generated payloads and with free ones.
            for (r, s) in generated {
                pairs.push((free(r.keys.clone()), free(s.keys.clone())));
                pairs.push((r, s));
            }
        }
        // Free keys over narrow and wide domains, free payloads.
        let mut key_rng = SmallRng::seed_from_u64(0xD0_4A14);
        for (r_len, s_len, key_hi) in [(3_000, 5_000, 300u64), (500, 4_000, 100_000)] {
            let mut keys = |len: usize| -> Vec<u32> {
                (0..len).map(|_| key_rng.gen_range_u64(0, key_hi) as u32).collect()
            };
            let (r_keys, s_keys) = (keys(r_len), keys(s_len));
            pairs.push((free(r_keys), free(s_keys)));
        }
        pairs
    }

    #[test]
    fn direct_and_hashed_checks_agree() {
        for (case, (r, s)) in domain_pairs().iter().enumerate() {
            let hashed = JoinCheck::compute_hashed(r, s);
            let slots = r.keys.iter().max().map_or(0, |&k| k as usize + 1);
            assert_eq!(JoinCheck::compute_direct(r, s, slots), hashed, "case {case}");
            assert_eq!(JoinCheck::compute(r, s), hashed, "case {case}");
            assert_eq!(JoinCheck::from_rows(&reference_join(r, s)), hashed, "case {case}");
        }
    }

    #[test]
    fn exchange_partition_masks_as_it_divides() {
        let mut rng = SmallRng::seed_from_u64(0x3A5C);
        let keys: Vec<u32> =
            [0, 1, u32::MAX].into_iter().chain((0..2_000).map(|_| rng.next_u64() as u32)).collect();
        for partitions in 1..=130usize {
            for &key in &keys {
                let divided = (mix64(u64::from(key)) % partitions as u64) as usize;
                assert_eq!(exchange_partition(key, partitions), divided, "{key} of {partitions}");
            }
        }
    }

    /// [`JoinCheck::compute`] as first written, on the standard library's
    /// SipHash table: the reference for the `mix64`-hashed oracle.
    fn compute_reference(r: &Relation, s: &Relation) -> JoinCheck {
        let mut table: HashMap<u32, (u64, u64)> = HashMap::with_capacity(r.len());
        for t in r.iter() {
            let e = table.entry(t.key).or_insert((0, 0));
            e.0 += 1;
            e.1 += u64::from(t.payload);
        }
        let mut check = JoinCheck { matches: 0, sum_r_payload: 0, sum_s_payload: 0 };
        for t in s.iter() {
            if let Some(&(count, pay_sum)) = table.get(&t.key) {
                check.matches += count;
                check.sum_r_payload = check.sum_r_payload.wrapping_add(pay_sum);
                check.sum_s_payload =
                    check.sum_s_payload.wrapping_add(count * u64::from(t.payload));
            }
        }
        check
    }

    #[test]
    fn compute_matches_the_siphash_reference() {
        let spec = |tuples, distribution, seed| RelationSpec {
            tuples,
            distribution,
            payload_width: 4,
            seed,
        };
        let dists = [
            KeyDistribution::UniqueShuffled,
            KeyDistribution::UniformFk { distinct: 700 },
            KeyDistribution::Zipf { distinct: 900, theta: 0.25 },
            KeyDistribution::Zipf { distinct: 900, theta: 1.0 },
            KeyDistribution::Replicated { replicas: 3 },
        ];
        let mut pairs = Vec::new();
        for (i, &rd) in dists.iter().enumerate() {
            for (j, &sd) in dists.iter().enumerate() {
                let seed = (i * 5 + j) as u64;
                // Either side larger.
                pairs.push((spec(1_000, rd, seed), spec(3_000, sd, seed + 100)));
                pairs.push((spec(4_000, rd, seed + 200), spec(600, sd, seed + 300)));
            }
        }
        let mut rels: Vec<(Relation, Relation)> =
            pairs.iter().map(|(r, s)| (r.generate(), s.generate())).collect();
        // Payloads that do not follow their keys, with keys over the whole
        // u32 range and over a narrow one (many duplicates), either side
        // larger.
        let mut rng = SmallRng::seed_from_u64(0x0AC1E);
        for (r_len, s_len, key_hi) in [(2_000, 5_000, u64::from(u32::MAX)), (5_000, 800, 300)] {
            let mut free = |len: usize| {
                let keys = (0..len).map(|_| rng.gen_range_u64(0, key_hi) as u32).collect();
                let pays = (0..len).map(|_| rng.next_u64() as u32).collect();
                Relation::from_columns(keys, pays)
            };
            rels.push((free(r_len), free(s_len)));
        }
        let (some, _) = canonical_pair(64, 64, 9);
        rels.push((Relation::default(), some.clone()));
        rels.push((some, Relation::default()));
        rels.push((Relation::default(), Relation::default()));
        for (case, (r, s)) in rels.iter().enumerate() {
            assert_eq!(JoinCheck::compute(r, s), compute_reference(r, s), "case {case}");
        }
    }

    #[test]
    fn one_to_one_join() {
        let r: Relation = [(1, 10), (2, 20), (3, 30)]
            .map(|(k, p)| Tuple { key: k, payload: p })
            .into_iter()
            .collect();
        let s: Relation = [(2, 200), (3, 300), (4, 400)]
            .map(|(k, p)| Tuple { key: k, payload: p })
            .into_iter()
            .collect();
        let rows = reference_join(&r, &s);
        assert_eq!(rows, vec![(2, 20, 200), (3, 30, 300)]);
    }

    #[test]
    fn many_to_many_multiplicity() {
        let r: Relation =
            [(7, 1), (7, 2)].map(|(k, p)| Tuple { key: k, payload: p }).into_iter().collect();
        let s: Relation = [(7, 10), (7, 20), (7, 30)]
            .map(|(k, p)| Tuple { key: k, payload: p })
            .into_iter()
            .collect();
        let rows = reference_join(&r, &s);
        assert_eq!(rows.len(), 6);
    }

    #[test]
    fn check_matches_rows_on_canonical_pair() {
        let (r, s) = canonical_pair(128, 512, 11);
        let rows = reference_join(&r, &s);
        assert_eq!(rows.len(), 512); // unique build keys: one match per probe
        let from_rows = JoinCheck::from_rows(&rows);
        let computed = JoinCheck::compute(&r, &s);
        assert_eq!(from_rows, computed);
        // Payloads are payload_of(key) on both sides here.
        assert_eq!(computed.sum_r_payload, computed.sum_s_payload);
        let expect: u64 = s.keys.iter().map(|&k| u64::from(payload_of(k))).sum();
        assert_eq!(computed.sum_s_payload, expect);
    }

    #[test]
    fn skewed_many_to_many_check_consistency() {
        let r = RelationSpec::zipf(500, 40, 0.8, 1).generate();
        let s = RelationSpec::zipf(800, 40, 0.8, 2).generate();
        let rows = reference_join(&r, &s);
        assert_eq!(JoinCheck::from_rows(&rows), JoinCheck::compute(&r, &s));
        assert!(rows.len() as u64 > 800); // data explosion under identical skew
    }

    #[test]
    fn empty_inputs_empty_output() {
        let e = Relation::default();
        let (r, _) = canonical_pair(8, 8, 1);
        assert!(reference_join(&e, &r).is_empty());
        assert!(reference_join(&r, &e).is_empty());
        assert_eq!(
            JoinCheck::compute(&e, &e),
            JoinCheck { matches: 0, sum_r_payload: 0, sum_s_payload: 0 }
        );
    }

    #[test]
    fn composed_check_equals_full_check_for_every_partition_count() {
        for (r, s) in [
            canonical_pair(128, 512, 11),
            (
                RelationSpec::zipf(500, 40, 0.9, 1).generate(),
                RelationSpec::zipf(800, 40, 0.9, 2).generate(),
            ),
        ] {
            let full = JoinCheck::compute(&r, &s);
            for parts in [1usize, 2, 3, 4, 7, 64] {
                assert_eq!(
                    composed_join_check(&r, &s, parts),
                    full,
                    "composed oracle diverges at {parts} partitions"
                );
            }
        }
    }

    #[test]
    fn partition_by_key_conserves_tuples_and_is_key_disjoint() {
        let (r, _) = canonical_pair(1000, 1000, 5);
        let parts = partition_by_key(&r, 8);
        assert_eq!(parts.iter().map(Relation::len).sum::<usize>(), r.len());
        for (i, p) in parts.iter().enumerate() {
            assert_eq!(p.payload_width, r.payload_width);
            for t in p.iter() {
                assert_eq!(exchange_partition(t.key, 8), i, "key {} misplaced", t.key);
            }
        }
        // Same key always lands in the same partition (determinism).
        assert_eq!(exchange_partition(42, 8), exchange_partition(42, 8));
    }

    #[test]
    fn assert_join_matches_accepts_shuffled_rows() {
        let (r, s) = canonical_pair(16, 32, 3);
        let mut rows = reference_join(&r, &s);
        rows.reverse();
        assert_join_matches(&r, &s, &rows);
    }

    #[test]
    #[should_panic(expected = "cardinality mismatch")]
    fn assert_join_matches_rejects_missing_row() {
        let (r, s) = canonical_pair(16, 32, 3);
        let mut rows = reference_join(&r, &s);
        rows.pop();
        assert_join_matches(&r, &s, &rows);
    }
}
