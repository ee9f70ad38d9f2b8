//! Property-style tests of the workload generators and the oracle, over
//! seeded randomized parameter sweeps (reproducible: each case's inputs
//! derive from the case index).

use hcj_workload::generate::{canonical_pair, payload_of};
use hcj_workload::oracle::{reference_join, JoinCheck};
use hcj_workload::rng::{Rng, SmallRng};
use hcj_workload::{KeyDistribution, RelationSpec};

const CASES: u64 = 48;

fn params(case: u64) -> SmallRng {
    SmallRng::seed_from_u64(0xC0FFEE ^ case.wrapping_mul(0x9E37_79B9))
}

/// Unique-shuffled relations are exact permutations of 1..=n.
#[test]
fn unique_is_a_permutation() {
    for case in 0..CASES {
        let mut p = params(case);
        let n = p.gen_range_u64(1, 4999) as usize;
        let r = RelationSpec::unique(n, p.next_u64()).generate();
        let mut keys = r.keys.clone();
        keys.sort_unstable();
        assert_eq!(keys, (1..=n as u32).collect::<Vec<_>>(), "case {case}, n {n}");
    }
}

/// Zipf keys stay within the declared domain, at any skew.
#[test]
fn zipf_stays_in_domain() {
    for case in 0..CASES {
        let mut p = params(100 + case);
        let n = p.gen_range_u64(1, 3999) as usize;
        let distinct = p.gen_range_u64(1, 9_999);
        let theta = p.gen_f64() * 1.5;
        let r = RelationSpec::zipf(n, distinct, theta, p.next_u64()).generate();
        assert_eq!(r.len(), n);
        assert!(
            r.keys.iter().all(|&k| 1 <= k && u64::from(k) <= distinct),
            "case {case}: key out of 1..={distinct}"
        );
    }
}

/// Payloads always follow the checkable mapping, for every generator.
#[test]
fn payload_mapping_is_universal() {
    for case in 0..CASES {
        let mut p = params(200 + case);
        let n = p.gen_range_u64(1, 1999) as usize;
        let distinct = p.gen_range_u64(1, 999);
        let seed = p.next_u64();
        for dist in [
            KeyDistribution::UniqueShuffled,
            KeyDistribution::UniformFk { distinct },
            KeyDistribution::Zipf { distinct, theta: 0.8 },
            KeyDistribution::Replicated { replicas: 3 },
        ] {
            if matches!(dist, KeyDistribution::Replicated { replicas } if n < replicas as usize) {
                continue;
            }
            let r =
                RelationSpec { tuples: n, distribution: dist, payload_width: 4, seed }.generate();
            assert!(r.iter().all(|t| t.payload == payload_of(t.key)), "case {case} {dist:?}");
        }
    }
}

/// The oracle's summary agrees with its own materialized rows, and a join
/// is symmetric in cardinality: |R ⨝ S| == |S ⨝ R|.
#[test]
fn oracle_is_self_consistent_and_symmetric() {
    for case in 0..CASES {
        let mut p = params(300 + case);
        let r_tuples = p.gen_range_u64(1, 799) as usize;
        let s_tuples = p.gen_range_u64(1, 799) as usize;
        let distinct = p.gen_range_u64(1, 199);
        let seed = p.next_u64();
        let r = RelationSpec::zipf(r_tuples, distinct, 0.6, seed).generate();
        let s = RelationSpec::zipf(s_tuples, distinct, 0.6, seed ^ 1).generate();
        let rows = reference_join(&r, &s);
        assert_eq!(JoinCheck::from_rows(&rows), JoinCheck::compute(&r, &s), "case {case}");
        let flipped = reference_join(&s, &r);
        assert_eq!(rows.len(), flipped.len(), "case {case}");
        // Flipping swaps the payload columns row-by-row (after sorting).
        let mut reflipped: Vec<_> = flipped.into_iter().map(|(k, a, b)| (k, b, a)).collect();
        reflipped.sort_unstable();
        assert_eq!(rows, reflipped, "case {case}");
    }
}

/// canonical_pair: every probe key hits exactly one build tuple, so the
/// match count equals the probe cardinality.
#[test]
fn canonical_pair_matches_equal_probe_size() {
    for case in 0..CASES {
        let mut p = params(400 + case);
        let build = p.gen_range_u64(1, 1999) as usize;
        let probe = p.gen_range_u64(1, 3999) as usize;
        let (r, s) = canonical_pair(build, probe, p.next_u64());
        assert_eq!(JoinCheck::compute(&r, &s).matches, probe as u64, "case {case}");
    }
}
