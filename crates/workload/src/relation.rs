//! Columnar relations of narrow tuples.

/// One `(key, payload)` tuple. Both fields are 4 bytes, matching the
/// canonical join micro-benchmark schema the paper adopts (§V-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Tuple {
    pub key: u32,
    /// 4-byte payload, or a row identifier when payloads are late
    /// materialized (Figs. 9–10).
    pub payload: u32,
}

/// A columnar relation: parallel `keys` / `payloads` columns.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Relation {
    pub keys: Vec<u32>,
    pub payloads: Vec<u32>,
    /// Logical payload width in bytes for late-materialization cost
    /// modeling; the functional payload column stays 4 bytes. Defaults to 4
    /// (payload *is* the value).
    pub payload_width: u32,
}

impl Relation {
    /// An empty relation with capacity for `n` tuples.
    pub fn with_capacity(n: usize) -> Self {
        Relation { keys: Vec::with_capacity(n), payloads: Vec::with_capacity(n), payload_width: 4 }
    }

    /// Build from parallel columns.
    pub fn from_columns(keys: Vec<u32>, payloads: Vec<u32>) -> Self {
        assert_eq!(keys.len(), payloads.len(), "column lengths differ");
        Relation { keys, payloads, payload_width: 4 }
    }

    /// Build from tuples.
    pub fn from_tuples(tuples: impl IntoIterator<Item = Tuple>) -> Self {
        let mut r = Relation { payload_width: 4, ..Relation::default() };
        for t in tuples {
            r.push(t);
        }
        r
    }

    pub fn push(&mut self, t: Tuple) {
        self.keys.push(t.key);
        self.payloads.push(t.payload);
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    pub fn tuple(&self, i: usize) -> Tuple {
        Tuple { key: self.keys[i], payload: self.payloads[i] }
    }

    pub fn iter(&self) -> impl Iterator<Item = Tuple> + '_ {
        self.keys.iter().zip(&self.payloads).map(|(&key, &payload)| Tuple { key, payload })
    }

    /// Physical bytes of the narrow columnar representation (8 B/tuple).
    pub fn bytes(&self) -> u64 {
        self.len() as u64 * 8
    }

    /// Logical bytes including the late-materialized payload width.
    pub fn logical_bytes(&self) -> u64 {
        self.len() as u64 * (4 + u64::from(self.payload_width))
    }
}

impl FromIterator<Tuple> for Relation {
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Self {
        Relation::from_tuples(iter)
    }
}

/// The build-side rule every join shares: the smaller input (by staged
/// bytes) builds, ties go left.
pub fn build_is_left(left: &Relation, right: &Relation) -> bool {
    left.bytes() <= right.bytes()
}

/// Slots a compact domain may hold beyond two per key, so that small
/// relations over small domains count as compact too.
const COMPACT_SLACK: u64 = 4_096;

/// The compact-domain rule the CPU oracle and plan canonicalization share:
/// `keys` are compact when their largest key is at most `2 · keys.len() +
/// 4,096`. Then a table indexed by key directly needs `largest + 1` slots,
/// which is returned (0 for no keys); a sparse domain returns `None`.
///
/// At 16 B a slot (the oracle's count and payload sum) a direct table
/// takes at most `32 · len + 65,552` B. The hash table it replaces holds
/// `len` entries of 24 B plus a control byte at a load of at most 7/8,
/// 28.6–57 B per key, so the direct table is never more than about 12%
/// plus 64 KB larger, and it reads one slot per lookup without hashing.
pub(crate) fn compact_domain(keys: impl ExactSizeIterator<Item = u32>) -> Option<usize> {
    let bound = 2 * keys.len() as u64 + COMPACT_SLACK;
    match keys.max() {
        None => Some(0),
        Some(max) if u64::from(max) <= bound => Some(max as usize + 1),
        Some(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(n: u32) -> Relation {
        (0..n).map(|i| Tuple { key: i, payload: i * 10 }).collect()
    }

    #[test]
    fn construction_and_access() {
        let r = rel(4);
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
        assert_eq!(r.tuple(2), Tuple { key: 2, payload: 20 });
        assert_eq!(r.bytes(), 32);
        assert_eq!(r.logical_bytes(), 32);
    }

    #[test]
    fn payload_width_affects_logical_bytes_only() {
        let mut r = rel(10);
        r.payload_width = 64;
        assert_eq!(r.bytes(), 80);
        assert_eq!(r.logical_bytes(), 10 * 68);
    }

    #[test]
    #[should_panic(expected = "column lengths differ")]
    fn mismatched_columns_rejected() {
        let _ = Relation::from_columns(vec![1, 2], vec![1]);
    }

    #[test]
    fn compact_domains_end_at_twice_the_keys_plus_4096() {
        assert_eq!(compact_domain([0u32; 0].into_iter()), Some(0));
        assert_eq!(compact_domain([0].into_iter()), Some(1));
        assert_eq!(compact_domain([u32::MAX].into_iter()), None);
        for n in [1usize, 7, 2_000] {
            let bound = 2 * n as u32 + 4_096;
            let keys = |top: u32| (1..n as u32).chain([top]).collect::<Vec<_>>().into_iter();
            assert_eq!(compact_domain(keys(bound)), Some(bound as usize + 1), "{n} keys");
            assert_eq!(compact_domain(keys(bound + 1)), None, "{n} keys");
        }
    }

    #[test]
    fn iter_yields_tuples_in_order() {
        let r = rel(3);
        let v: Vec<Tuple> = r.iter().collect();
        assert_eq!(v.len(), 3);
        assert_eq!(v[1].payload, 10);
    }
}
