//! The chained hash table both baselines join through: power-of-two
//! `heads`, one `next` link per build tuple, and a multiplicative hash.
//!
//! The build inserts back to front at the chain heads, so every chain runs
//! in build order and a probe emits each probe tuple's matches in build
//! order. A join split into probe chunks (NPO) or co-partitions (PRO) and
//! merged in item order therefore returns the same rows at every `--jobs`.

use hcj_workload::oracle::{JoinCheck, JoinRow};

const NIL: u32 = u32::MAX;

/// A chained hash table over one build slice.
pub struct ChainedTable<'a> {
    keys: &'a [u32],
    payloads: &'a [u32],
    heads: Vec<u32>,
    next: Vec<u32>,
    /// Low key bits every build and probe key shares (a radix partition's),
    /// which the hash skips.
    shift: u32,
}

impl<'a> ChainedTable<'a> {
    /// Build over the columns `keys` and `payloads`, hashing `key >> shift`.
    pub fn build(keys: &'a [u32], payloads: &'a [u32], shift: u32) -> Self {
        assert!(keys.len() < NIL as usize, "build side too large for u32 links");
        let mut heads = vec![NIL; slots(keys.len())];
        let mut next = vec![NIL; keys.len()];
        let mask = heads.len() - 1;
        for (i, &k) in keys.iter().enumerate().rev() {
            let h = hash(k >> shift) as usize & mask;
            next[i] = heads[h];
            heads[h] = i as u32;
        }
        ChainedTable { keys, payloads, heads, next, shift }
    }

    /// Join the probe columns `keys` and `payloads` against the table: the
    /// check, plus the rows in probe order, then build order, when
    /// `materialize` is set.
    pub fn probe(
        &self,
        keys: &[u32],
        payloads: &[u32],
        materialize: bool,
    ) -> (JoinCheck, Vec<JoinRow>) {
        let mask = self.heads.len() - 1;
        let mut check = JoinCheck::ZERO;
        let mut rows = Vec::new();
        for (&k, &sp) in keys.iter().zip(payloads) {
            let mut i = self.heads[hash(k >> self.shift) as usize & mask];
            while i != NIL {
                let at = i as usize;
                if self.keys[at] == k {
                    let rp = self.payloads[at];
                    check.matches += 1;
                    check.sum_r_payload = check.sum_r_payload.wrapping_add(u64::from(rp));
                    check.sum_s_payload = check.sum_s_payload.wrapping_add(u64::from(sp));
                    if materialize {
                        rows.push((k, rp, sp));
                    }
                }
                i = self.next[at];
            }
        }
        (check, rows)
    }
}

/// Head slots of a table over `tuples` build tuples.
pub fn slots(tuples: usize) -> usize {
    tuples.next_power_of_two().max(2)
}

/// Merge per-item join results in item order.
pub fn merge(parts: Vec<(JoinCheck, Vec<JoinRow>)>) -> (JoinCheck, Vec<JoinRow>) {
    let mut check = JoinCheck::ZERO;
    let mut rows = Vec::with_capacity(parts.iter().map(|(_, rows)| rows.len()).sum());
    for (part, mut part_rows) in parts {
        check.absorb(&part);
        rows.append(&mut part_rows);
    }
    (check, rows)
}

#[inline]
fn hash(key: u32) -> u32 {
    key.wrapping_mul(0x9E37_79B1) >> 8
}
