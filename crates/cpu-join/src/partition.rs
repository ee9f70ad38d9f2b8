//! The CPU radix scatter: the first phase of PRO.
//!
//! PRO (Balkesen et al.) partitions in passes whose fanout the TLB bounds
//! (paper §II-B), so deeper fanouts take several passes. Every pass is
//! stable and the last one leaves partition `key & (2^bits - 1)`, so the
//! passes end at the layout one stable counting pass over all the bits
//! produces: `radix_runs` makes that one pass, and the timing model
//! charges [`passes_needed`] passes.

use hcj_workload::Relation;

/// A relation scattered into `2^bits` partitions on its low key bits: one
/// dense run per partition, tuples in input order.
pub(crate) struct RadixRuns {
    keys: Vec<u32>,
    payloads: Vec<u32>,
    /// `fanout + 1` run offsets: partition `p` occupies
    /// `offsets[p]..offsets[p + 1]`.
    offsets: Vec<usize>,
}

impl RadixRuns {
    pub fn fanout(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Partition `p`'s key and payload columns.
    pub fn run(&self, p: usize) -> (&[u32], &[u32]) {
        let run = self.offsets[p]..self.offsets[p + 1];
        (&self.keys[run.clone()], &self.payloads[run])
    }
}

/// Partition `rel` on its low `bits` key bits in one stable counting pass.
pub(crate) fn radix_runs(rel: &Relation, bits: u32) -> RadixRuns {
    let fanout = 1usize << bits;
    let mask = (fanout - 1) as u32;
    let mut offsets = vec![0; fanout + 1];
    for &k in &rel.keys {
        offsets[(k & mask) as usize + 1] += 1;
    }
    for p in 0..fanout {
        offsets[p + 1] += offsets[p];
    }
    let mut cursor = offsets[..fanout].to_vec();
    let (mut keys, mut payloads) = (vec![0; rel.len()], vec![0; rel.len()]);
    for (&k, &v) in rel.keys.iter().zip(&rel.payloads) {
        let slot = &mut cursor[(k & mask) as usize];
        keys[*slot] = k;
        payloads[*slot] = v;
        *slot += 1;
    }
    RadixRuns { keys, payloads, offsets }
}

/// Number of passes PRO needs for `total_bits` at the TLB-bounded fanout.
pub fn passes_needed(total_bits: u32, bits_per_pass: u32) -> u32 {
    total_bits.div_ceil(bits_per_pass).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcj_workload::RelationSpec;

    #[test]
    fn single_pass_partition_is_correct() {
        // Duplicate keys, so stability is visible in the payloads too.
        let rel = RelationSpec::zipf(10_000, 512, 0.8, 2).generate();
        let runs = radix_runs(&rel, 4);
        assert_eq!(runs.fanout(), 16);
        let mut total = 0;
        for p in 0..16 {
            let (keys, payloads) = runs.run(p);
            // Exactly partition p's tuples, in input order.
            let want: Vec<(u32, u32)> = rel
                .keys
                .iter()
                .zip(&rel.payloads)
                .filter(|&(&k, _)| (k & 15) as usize == p)
                .map(|(&k, &v)| (k, v))
                .collect();
            let got: Vec<(u32, u32)> = keys.iter().copied().zip(payloads.iter().copied()).collect();
            assert_eq!(got, want, "partition {p}");
            total += keys.len();
        }
        assert_eq!(total, 10_000);
    }

    #[test]
    fn zero_bits_is_identity() {
        let rel = RelationSpec::unique(100, 6).generate();
        let runs = radix_runs(&rel, 0);
        assert_eq!(runs.fanout(), 1);
        assert_eq!(runs.run(0), (&rel.keys[..], &rel.payloads[..]));
    }

    #[test]
    fn passes_math() {
        assert_eq!(passes_needed(0, 6), 1);
        assert_eq!(passes_needed(6, 6), 1);
        assert_eq!(passes_needed(7, 6), 2);
        assert_eq!(passes_needed(12, 6), 2);
        assert_eq!(passes_needed(13, 6), 3);
    }
}
