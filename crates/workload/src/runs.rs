//! The stable counting scatter every partitioned layout shares: the GPU
//! partitioner (one scatter for all its modeled passes), PRO's radix
//! partitioning, co-processing's CPU level and the exchange's staging all
//! group tuples into one dense run per partition, each run in input order. [`Runs::group`] counts each
//! partition's tuples, prefixes the counts into run offsets and scatters
//! every tuple to its partition's cursor. [`counts`] is its count-only
//! form, and [`scatter`] its scatter step alone, for callers that split
//! their input and give each piece its own cursors. All three take column
//! slices, so no chunk of a relation or earlier run is copied first.

use std::ops::Range;

/// Key and payload columns grouped into dense runs: run `p` occupies
/// slots `offsets[p]..offsets[p + 1]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Runs {
    keys: Vec<u32>,
    payloads: Vec<u32>,
    /// `fanout + 1` run offsets.
    offsets: Vec<usize>,
}

impl Runs {
    /// Group the tuples `(keys[i], payloads[i])` into `fanout` runs, tuple
    /// `i` into run `part(keys[i])` and each run in input order.
    pub fn group(
        keys: &[u32],
        payloads: &[u32],
        fanout: usize,
        part: impl Fn(u32) -> usize,
    ) -> Self {
        // Count straight into the offsets, one slot up, then prefix them.
        let mut offsets = vec![0; fanout + 1];
        for &k in keys {
            offsets[part(k) + 1] += 1;
        }
        for p in 0..fanout {
            offsets[p + 1] += offsets[p];
        }
        let mut cursor = offsets[..fanout].to_vec();
        let mut runs = Runs { keys: vec![0; keys.len()], payloads: vec![0; keys.len()], offsets };
        scatter(keys, payloads, part, &mut cursor, |slot, k, v| {
            runs.keys[slot] = k;
            runs.payloads[slot] = v;
        });
        runs
    }

    /// Zeroed runs of `counts[p]` tuples each: the target of a [`scatter`]
    /// whose pieces were counted apart. Their tuples' slots follow from
    /// [`columns_mut`](Self::columns_mut)'s offsets.
    pub fn from_counts(counts: impl IntoIterator<Item = u64>) -> Runs {
        let counts = counts.into_iter();
        let mut offsets = Vec::with_capacity(counts.size_hint().0 + 1);
        offsets.push(0);
        for count in counts {
            offsets.push(offsets[offsets.len() - 1] + count as usize);
        }
        let tuples = offsets[offsets.len() - 1];
        Runs { keys: vec![0; tuples], payloads: vec![0; tuples], offsets }
    }

    pub fn fanout(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Tuples in all runs.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Run `p`'s slots.
    pub fn range(&self, p: usize) -> Range<usize> {
        self.offsets[p]..self.offsets[p + 1]
    }

    /// Run `p`'s key and payload columns.
    pub fn run(&self, p: usize) -> (&[u32], &[u32]) {
        let range = self.range(p);
        (&self.keys[range.clone()], &self.payloads[range])
    }

    /// Mutable key and payload columns and the `fanout + 1` run offsets,
    /// for a scatter into [`from_counts`](Self::from_counts)'s slots.
    pub fn columns_mut(&mut self) -> (&mut [u32], &mut [u32], &[usize]) {
        (&mut self.keys, &mut self.payloads, &self.offsets)
    }
}

/// How many of `keys` fall in each of `fanout` partitions under `part`:
/// the run lengths [`Runs::group`] would lay out.
pub fn counts(keys: &[u32], fanout: usize, part: impl Fn(u32) -> usize) -> Vec<u64> {
    let mut counts = vec![0; fanout];
    for &k in keys {
        counts[part(k)] += 1;
    }
    counts
}

/// The scatter step alone: in input order, hand each tuple to `put` with
/// its slot, the cursor of partition `part(key)`, and advance that cursor.
/// Cursors that start where earlier pieces of the input end make a split
/// input land exactly as it would whole.
pub fn scatter(
    keys: &[u32],
    payloads: &[u32],
    part: impl Fn(u32) -> usize,
    cursor: &mut [usize],
    mut put: impl FnMut(usize, u32, u32),
) {
    assert_eq!(keys.len(), payloads.len(), "column lengths differ");
    for (&k, &v) in keys.iter().zip(payloads) {
        let slot = &mut cursor[part(k)];
        put(*slot, k, v);
        *slot += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::exchange_partition;
    use crate::rng::{Rng, SmallRng};
    use crate::{Relation, RelationSpec};

    /// The empty relation, a one-tuple relation and 40 seeded relations:
    /// Zipf keys, five distinct keys, and free keys and payloads.
    fn cases() -> Vec<Relation> {
        let mut rng = SmallRng::seed_from_u64(0x5CA7_7E12);
        let mut cases = vec![Relation::default(), Relation::from_columns(vec![7], vec![70])];
        for case in 0..40u64 {
            let n = rng.gen_range_u64(0, 3_000) as usize;
            cases.push(match case % 3 {
                0 => RelationSpec::zipf(n, 1 << 12, 0.9, case).generate(),
                1 => {
                    let five = [3, 17, 64, 1 << 20, u32::MAX];
                    let keys = (0..n).map(|_| five[rng.next_u64() as usize % 5]).collect();
                    Relation::from_columns(keys, (0..n as u32).collect())
                }
                _ => {
                    let mut free = || (0..n).map(|_| rng.next_u64() as u32).collect::<Vec<u32>>();
                    let keys = free();
                    Relation::from_columns(keys, free())
                }
            });
        }
        cases
    }

    /// Group `rel` by `part`, check the runs against the input, and check
    /// that the input split at `cut` lays out the same runs.
    fn check(rel: &Relation, fanout: usize, part: &dyn Fn(u32) -> usize, cut: usize, at: &str) {
        let runs = Runs::group(&rel.keys, &rel.payloads, fanout, part);
        assert_eq!((runs.fanout(), runs.len()), (fanout, rel.len()), "{at}");
        let lens: Vec<u64> = (0..fanout).map(|p| runs.range(p).len() as u64).collect();
        assert_eq!(counts(&rel.keys, fanout, part), lens, "{at}");
        for p in 0..fanout {
            // Exactly partition p's tuples, in input order.
            let want: Vec<(u32, u32)> =
                rel.iter().filter(|t| part(t.key) == p).map(|t| (t.key, t.payload)).collect();
            let (keys, payloads) = runs.run(p);
            let got: Vec<(u32, u32)> = keys.iter().copied().zip(payloads.iter().copied()).collect();
            assert_eq!(got, want, "{at}, partition {p}");
        }

        // The second piece's cursors start after the first piece's tuples,
        // and it is scattered first.
        let (head, tail) = rel.keys.split_at(cut);
        let head_counts = counts(head, fanout, part);
        let tail_counts = counts(tail, fanout, part);
        let mut split = Runs::from_counts(head_counts.iter().zip(&tail_counts).map(|(a, b)| a + b));
        let (keys, payloads, offsets) = split.columns_mut();
        let mut head_cursor = offsets[..fanout].to_vec();
        let mut tail_cursor: Vec<usize> =
            head_cursor.iter().zip(&head_counts).map(|(&o, &c)| o + c as usize).collect();
        let mut put = |slot: usize, k: u32, v: u32| {
            keys[slot] = k;
            payloads[slot] = v;
        };
        scatter(tail, &rel.payloads[cut..], part, &mut tail_cursor, &mut put);
        scatter(head, &rel.payloads[..cut], part, &mut head_cursor, &mut put);
        assert_eq!(split, runs, "{at}, cut at {cut}");
    }

    #[test]
    fn runs_are_the_input_filtered_to_each_partition_in_order() {
        let mut rng = SmallRng::seed_from_u64(0xC07);
        for (case, rel) in cases().iter().enumerate() {
            for fanout in [1usize, 2, 16, 512] {
                let radix = |k: u32| k as usize & (fanout - 1);
                let hashed = |k: u32| exchange_partition(k, fanout);
                let parts: [(&str, &dyn Fn(u32) -> usize); 2] =
                    [("radix", &radix), ("hash", &hashed)];
                for (name, part) in parts {
                    let cut = rng.gen_range_u64(0, rel.len() as u64) as usize;
                    let at = format!("case {case} ({} tuples), {fanout} {name} runs", rel.len());
                    check(rel, fanout, part, cut, &at);
                }
            }
        }
    }
}
