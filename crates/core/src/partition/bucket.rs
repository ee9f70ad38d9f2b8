//! The partition layout: one dense run per partition on the host, with
//! the paper's bucket chains (§III-A) derived from the run lengths.

use hcj_workload::{Runs, Tuple};

/// Buckets in the chain of a `len`-tuple run, `capacity` tuples a bucket.
pub(crate) fn chain_buckets(len: u64, capacity: usize) -> u64 {
    len.div_ceil(capacity as u64)
}

/// The fill of each bucket in a `len`-tuple run's chain, head first: full
/// buckets, then the remainder.
pub(crate) fn bucket_lens(len: u64, capacity: usize) -> impl Iterator<Item = u64> {
    let capacity = capacity as u64;
    (0..len.div_ceil(capacity)).map(move |b| capacity.min(len - b * capacity))
}

/// Buckets in the pool of runs of `lens` tuples: every run's chain.
pub(crate) fn num_buckets(lens: impl IntoIterator<Item = u64>, capacity: usize) -> u64 {
    lens.into_iter().map(|len| chain_buckets(len, capacity)).sum()
}

/// Device-memory bytes of that pool: per bucket, `capacity` key and
/// payload slots plus its fill count and next link.
pub(crate) fn pool_bytes(lens: impl IntoIterator<Item = u64>, capacity: usize) -> u64 {
    num_buckets(lens, capacity) * (8 * capacity as u64 + 8)
}

/// A relation partitioned into `2^fanout_bits` partitions on the key bits
/// `[base_bits, base_bits + fanout_bits)`.
///
/// The host stores each partition as one gap-free run of the key and
/// payload columns ([`Runs`]), which hold exactly the relation's tuples.
/// The modeled device lays a partition out as paper §III-A does: a chain
/// of fixed-capacity buckets drawn from a preallocated pool and linked
/// through indices, which amortizes pointer chasing over `capacity`
/// coalesced elements. A chain is filled tuple by tuple and draws a fresh
/// bucket whenever its tail is full, so its shape depends on the
/// partition's length alone: this module's functions of a run length and a
/// capacity derive it, for [`pool_bytes`](Self::pool_bytes) and for the GPU
/// partitioner's pass model.
///
/// `base_bits > 0` arises in the co-processing strategy (paper §IV-B):
/// the CPU already partitioned on the low `base_bits`, and the GPU refines
/// each CPU partition on the next bits. Within such a relation all keys
/// additionally share their low `base_bits`.
#[derive(Clone, Debug)]
pub struct PartitionedRelation {
    runs: Runs,
    /// Tuples per modeled bucket.
    capacity: usize,
    /// Bits this partitioning consumed: partition `p` holds exactly the
    /// tuples with `(key >> base_bits) & (2^fanout_bits - 1) == p`.
    pub fanout_bits: u32,
    /// Bits below `fanout_bits` that are constant across the whole
    /// relation (consumed by an earlier, external partitioning step).
    pub base_bits: u32,
}

impl PartitionedRelation {
    /// Lay out a relation from its per-partition tuple `counts`, modeled in
    /// buckets of `capacity` tuples — the scatter target of the two-phase
    /// parallel partitioners ([`Runs::from_counts`]; tuple `i` of
    /// partition `p` belongs at column slot `offsets[p] + i` of
    /// [`columns_mut`](Self::columns_mut)).
    pub fn from_counts(
        capacity: usize,
        fanout_bits: u32,
        base_bits: u32,
        counts: impl IntoIterator<Item = u64>,
    ) -> Self {
        assert!(capacity > 0, "bucket capacity must be positive");
        let runs = Runs::from_counts(counts);
        assert_eq!(runs.fanout(), 1 << fanout_bits, "one count per partition");
        PartitionedRelation { runs, capacity, fanout_bits, base_bits }
    }

    /// Total key bits known constant within one partition: the hash
    /// functions of the probe kernels skip exactly these.
    pub fn fixed_bits(&self) -> u32 {
        self.base_bits + self.fanout_bits
    }

    pub fn fanout(&self) -> usize {
        self.runs.fanout()
    }

    pub fn partition_len(&self, p: usize) -> u64 {
        self.runs.range(p).len() as u64
    }

    pub fn total_tuples(&self) -> u64 {
        self.runs.len() as u64
    }

    /// The modeled pool's footprint in device-memory bytes.
    pub fn pool_bytes(&self) -> u64 {
        pool_bytes((0..self.fanout()).map(|p| self.partition_len(p)), self.capacity)
    }

    /// Mutable key/payload columns and the `fanout + 1` run offsets, for
    /// disjoint parallel scatter into the slots advertised by
    /// [`from_counts`](Self::from_counts).
    pub fn columns_mut(&mut self) -> (&mut [u32], &mut [u32], &[usize]) {
        self.runs.columns_mut()
    }

    /// Iterate all tuples of partition `p`.
    pub fn tuples_of(&self, p: usize) -> impl Iterator<Item = Tuple> + '_ {
        let (keys, payloads) = self.partition_columns(p);
        keys.iter().zip(payloads).map(|(&key, &payload)| Tuple { key, payload })
    }

    /// Partition `p`'s key and payload columns.
    pub fn partition_columns(&self, p: usize) -> (&[u32], &[u32]) {
        self.runs.run(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcj_workload::rng::{Rng, SmallRng};

    /// Paper §III-A's pool, grown tuple by tuple: fixed-capacity buckets
    /// linked into per-partition chains through `next` indices, where a
    /// partition draws a fresh bucket whenever its tail is full.
    struct ChainedPool {
        capacity: usize,
        keys: Vec<u32>,
        payloads: Vec<u32>,
        lens: Vec<u32>,
        next: Vec<u32>,
        /// `(head, tail)` bucket ids per partition.
        chains: Vec<Option<(u32, u32)>>,
    }

    const NIL: u32 = u32::MAX;

    impl ChainedPool {
        fn new(capacity: usize, fanout: usize) -> Self {
            ChainedPool {
                capacity,
                keys: Vec::new(),
                payloads: Vec::new(),
                lens: Vec::new(),
                next: Vec::new(),
                chains: vec![None; fanout],
            }
        }

        fn alloc(&mut self) -> u32 {
            self.keys.resize(self.keys.len() + self.capacity, 0);
            self.payloads.resize(self.payloads.len() + self.capacity, 0);
            self.lens.push(0);
            self.next.push(NIL);
            (self.lens.len() - 1) as u32
        }

        fn push(&mut self, p: usize, t: Tuple) {
            let tail = match self.chains[p] {
                None => {
                    let b = self.alloc();
                    self.chains[p] = Some((b, b));
                    b
                }
                Some((head, tail)) if self.lens[tail as usize] as usize == self.capacity => {
                    let b = self.alloc();
                    self.next[tail as usize] = b;
                    self.chains[p] = Some((head, b));
                    b
                }
                Some((_, tail)) => tail,
            };
            let at = tail as usize * self.capacity + self.lens[tail as usize] as usize;
            self.keys[at] = t.key;
            self.payloads[at] = t.payload;
            self.lens[tail as usize] += 1;
        }

        fn buckets_of(&self, p: usize) -> Vec<u32> {
            let mut buckets = Vec::new();
            let mut b = self.chains[p].map_or(NIL, |(head, _)| head);
            while b != NIL {
                buckets.push(b);
                b = self.next[b as usize];
            }
            buckets
        }

        fn tuples_of(&self, p: usize) -> Vec<Tuple> {
            let mut tuples = Vec::new();
            for b in self.buckets_of(p) {
                let start = b as usize * self.capacity;
                for at in start..start + self.lens[b as usize] as usize {
                    tuples.push(Tuple { key: self.keys[at], payload: self.payloads[at] });
                }
            }
            tuples
        }

        /// Every vector the device would hold, at 4 bytes an element.
        fn device_bytes(&self) -> u64 {
            4 * (self.keys.len() + self.payloads.len() + self.lens.len() + self.next.len()) as u64
        }
    }

    /// `tuples` scattered into a [`PartitionedRelation::from_counts`]
    /// layout, partition `assign(i)` for tuple `i`.
    fn scattered(
        capacity: usize,
        fanout_bits: u32,
        tuples: &[Tuple],
        assign: impl Fn(usize) -> usize,
    ) -> PartitionedRelation {
        let mut counts = vec![0u64; 1 << fanout_bits];
        for i in 0..tuples.len() {
            counts[assign(i)] += 1;
        }
        let mut out = PartitionedRelation::from_counts(capacity, fanout_bits, 0, counts);
        let (keys, payloads, offsets) = out.columns_mut();
        let mut cursor = offsets.to_vec();
        for (i, t) in tuples.iter().enumerate() {
            let p = assign(i);
            keys[cursor[p]] = t.key;
            payloads[cursor[p]] = t.payload;
            cursor[p] += 1;
        }
        out
    }

    #[test]
    fn from_counts_matches_push_built_observables() {
        // Seeded cases over fanouts 1-16 and capacities 1-40, with empty
        // partitions and exact multiples of the capacity forced in.
        let mut rng = SmallRng::seed_from_u64(0xB0C4E7);
        let (mut empty, mut multiple, mut unit) = (0, 0, 0);
        for case in 0..320u64 {
            let fanout_bits = (case % 5) as u32;
            let fanout = 1usize << fanout_bits;
            let capacity = if case % 8 == 0 { 1 } else { rng.gen_range_u64(1, 40) as usize };
            let counts: Vec<usize> = (0..fanout)
                .map(|_| match rng.gen_range_u64(0, 3) {
                    0 => 0,
                    1 => capacity * rng.gen_range_u64(1, 4) as usize,
                    _ => rng.gen_range_u64(1, 5 * capacity as u64) as usize,
                })
                .collect();
            empty += counts.iter().filter(|&&c| c == 0).count();
            multiple += counts.iter().filter(|&&c| c > 0 && c % capacity == 0).count();
            unit += usize::from(capacity == 1);
            // Interleave the partitions' tuples in a random order.
            let mut assign: Vec<usize> =
                counts.iter().enumerate().flat_map(|(p, &c)| std::iter::repeat_n(p, c)).collect();
            rng.shuffle(&mut assign);
            let tuples: Vec<Tuple> = (0..assign.len() as u32)
                .map(|i| Tuple { key: rng.next_u64() as u32, payload: i })
                .collect();

            let dense = scattered(capacity, fanout_bits, &tuples, |i| assign[i]);
            let mut chained = ChainedPool::new(capacity, fanout);
            for (i, &t) in tuples.iter().enumerate() {
                chained.push(assign[i], t);
            }
            let at = format!("case {case}: capacity {capacity}, counts {counts:?}");
            assert_eq!(dense.fanout(), fanout, "{at}");
            let lens = (0..fanout).map(|p| dense.partition_len(p));
            assert_eq!(num_buckets(lens, capacity), chained.lens.len() as u64, "{at}");
            assert_eq!(dense.pool_bytes(), chained.device_bytes(), "{at}");
            assert_eq!(dense.total_tuples(), tuples.len() as u64, "{at}");
            for (p, &count) in counts.iter().enumerate() {
                let buckets = chained.buckets_of(p);
                let lens: Vec<u64> =
                    buckets.iter().map(|&b| chained.lens[b as usize].into()).collect();
                let chain = chain_buckets(dense.partition_len(p), capacity);
                assert_eq!(chain, buckets.len() as u64, "{at}, partition {p}");
                let got = bucket_lens(dense.partition_len(p), capacity).collect::<Vec<_>>();
                assert_eq!(got, lens, "{at}, partition {p}");
                assert_eq!(dense.partition_len(p), count as u64, "{at}, partition {p}");
                let got: Vec<Tuple> = dense.tuples_of(p).collect();
                assert_eq!(got, chained.tuples_of(p), "{at}, partition {p}");
            }
        }
        assert!(empty > 0 && multiple > 0 && unit > 0, "{empty} {multiple} {unit}");
    }

    #[test]
    fn chains_grow_and_iterate_in_order() {
        let tuples: Vec<Tuple> = (0..10u32).map(|key| Tuple { key, payload: key * 2 }).collect();
        let pr = scattered(3, 1, &tuples, |i| i % 2); // capacity 3, 2 partitions
        assert_eq!(pr.partition_len(0), 5);
        assert_eq!(pr.partition_len(1), 5);
        assert_eq!(chain_buckets(pr.partition_len(0), 3), 2); // 5 tuples / cap 3
        assert_eq!(bucket_lens(pr.partition_len(0), 3).collect::<Vec<_>>(), vec![3, 2]);
        let keys: Vec<u32> = pr.tuples_of(0).map(|x| x.key).collect();
        assert_eq!(keys, vec![0, 2, 4, 6, 8]); // scatter order preserved
        assert_eq!(pr.total_tuples(), 10);
    }

    #[test]
    fn partition_columns_borrow_a_from_counts_layout() {
        // Partition 1 spans three buckets, partition 2 is empty.
        let counts = [2u64, 7, 0, 3];
        let mut packed = PartitionedRelation::from_counts(3, 2, 0, counts);
        let (keys, pays, offsets) = packed.columns_mut();
        for (p, &count) in counts.iter().enumerate() {
            for i in 0..count as usize {
                let key = (i * 4 + p) as u32;
                keys[offsets[p] + i] = key;
                pays[offsets[p] + i] = key * 2;
            }
        }
        for (p, &count) in counts.iter().enumerate() {
            let want_keys: Vec<u32> = (0..count as u32).map(|i| i * 4 + p as u32).collect();
            let want_pays: Vec<u32> = want_keys.iter().map(|k| k * 2).collect();
            let (keys, pays) = packed.partition_columns(p);
            assert_eq!((keys, pays), (&want_keys[..], &want_pays[..]), "partition {p}");
            let tuples: Vec<(u32, u32)> = packed.tuples_of(p).map(|t| (t.key, t.payload)).collect();
            assert_eq!(tuples, want_keys.iter().copied().zip(want_pays).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_partition_iterates_nothing() {
        let pr = PartitionedRelation::from_counts(4, 2, 0, [3, 0, 0, 5]);
        assert_eq!(pr.tuples_of(2).count(), 0);
        assert_eq!(chain_buckets(pr.partition_len(2), 4), 0);
        assert_eq!(bucket_lens(pr.partition_len(2), 4).count(), 0);
        assert_eq!(pr.partition_columns(2), (&[][..], &[][..]));
    }

    #[test]
    fn device_bytes_track_pool_growth() {
        let bytes = |count| PartitionedRelation::from_counts(128, 0, 0, [count]).pool_bytes();
        assert_eq!(bytes(0), 0);
        assert_eq!(bytes(1), 128 * 8 + 8);
        assert_eq!(bytes(128), 128 * 8 + 8);
        assert_eq!(bytes(129), 2 * (128 * 8 + 8));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = PartitionedRelation::from_counts(0, 0, 0, [0]);
    }
}
