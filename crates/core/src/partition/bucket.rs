//! Bucket pools and partition chains: the paper's partition output layout.

use std::borrow::Cow;

use hcj_workload::Tuple;

/// Sentinel for "no next bucket".
pub const NIL_BUCKET: u32 = u32::MAX;

/// A pool of fixed-capacity buckets storing keys and payloads columnar.
/// Buckets are linked into per-partition chains through `next` indices —
/// the array-of-buckets linked list of paper §III-A, which amortizes
/// pointer chasing over `capacity` coalesced elements.
#[derive(Clone, Debug)]
pub struct BucketPool {
    capacity: usize,
    keys: Vec<u32>,
    payloads: Vec<u32>,
    lens: Vec<u32>,
    next: Vec<u32>,
}

impl BucketPool {
    /// An empty pool of buckets holding `capacity` elements each.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "bucket capacity must be positive");
        BucketPool {
            capacity,
            keys: Vec::new(),
            payloads: Vec::new(),
            lens: Vec::new(),
            next: Vec::new(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn num_buckets(&self) -> usize {
        self.lens.len()
    }

    /// Pool footprint in modeled device-memory bytes (keys + payloads +
    /// per-bucket metadata).
    pub fn device_bytes(&self) -> u64 {
        (self.keys.len() * 8 + self.lens.len() * 8) as u64
    }

    /// Allocate a fresh empty bucket; models the pool-allocation atomic.
    pub fn alloc(&mut self) -> u32 {
        let id = self.lens.len() as u32;
        self.keys.resize(self.keys.len() + self.capacity, 0);
        self.payloads.resize(self.payloads.len() + self.capacity, 0);
        self.lens.push(0);
        self.next.push(NIL_BUCKET);
        id
    }

    /// Try to append to `bucket`; `false` when full.
    pub fn push(&mut self, bucket: u32, t: Tuple) -> bool {
        let b = bucket as usize;
        let len = self.lens[b] as usize;
        if len == self.capacity {
            return false;
        }
        let at = b * self.capacity + len;
        self.keys[at] = t.key;
        self.payloads[at] = t.payload;
        self.lens[b] = (len + 1) as u32;
        true
    }

    pub fn len_of(&self, bucket: u32) -> usize {
        self.lens[bucket as usize] as usize
    }

    pub fn next_of(&self, bucket: u32) -> u32 {
        self.next[bucket as usize]
    }

    pub fn link(&mut self, from: u32, to: u32) {
        debug_assert_eq!(self.next[from as usize], NIL_BUCKET, "bucket already linked");
        self.next[from as usize] = to;
    }

    /// The filled key slice of `bucket`.
    pub fn keys_of(&self, bucket: u32) -> &[u32] {
        let b = bucket as usize;
        &self.keys[b * self.capacity..b * self.capacity + self.lens[b] as usize]
    }

    /// The filled payload slice of `bucket`.
    pub fn payloads_of(&self, bucket: u32) -> &[u32] {
        let b = bucket as usize;
        &self.payloads[b * self.capacity..b * self.capacity + self.lens[b] as usize]
    }
}

/// One partition: a chain of buckets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartitionChain {
    pub head: u32,
    pub tail: u32,
    pub tuples: u64,
}

impl PartitionChain {
    pub const EMPTY: PartitionChain =
        PartitionChain { head: NIL_BUCKET, tail: NIL_BUCKET, tuples: 0 };

    pub fn is_empty(&self) -> bool {
        self.tuples == 0
    }
}

/// A relation partitioned into `2^fanout_bits` bucket chains on the key
/// bits `[base_bits, base_bits + fanout_bits)`.
///
/// `base_bits > 0` arises in the co-processing strategy (paper §IV-B):
/// the CPU already partitioned on the low `base_bits`, and the GPU refines
/// each CPU partition on the next bits. Within such a relation all keys
/// additionally share their low `base_bits`.
#[derive(Clone, Debug)]
pub struct PartitionedRelation {
    pub pool: BucketPool,
    pub chains: Vec<PartitionChain>,
    /// Bits this partitioning consumed: partition `p` holds exactly the
    /// tuples with `(key >> base_bits) & (2^fanout_bits - 1) == p`.
    pub fanout_bits: u32,
    /// Bits below `fanout_bits` that are constant across the whole
    /// relation (consumed by an earlier, external partitioning step).
    pub base_bits: u32,
}

impl PartitionedRelation {
    pub fn new(pool_capacity: usize, fanout_bits: u32) -> Self {
        Self::with_base(pool_capacity, fanout_bits, 0)
    }

    pub fn with_base(pool_capacity: usize, fanout_bits: u32, base_bits: u32) -> Self {
        PartitionedRelation {
            pool: BucketPool::new(pool_capacity),
            chains: vec![PartitionChain::EMPTY; 1 << fanout_bits],
            fanout_bits,
            base_bits,
        }
    }

    /// Total key bits known constant within one partition: the hash
    /// functions of the probe kernels skip exactly these.
    pub fn fixed_bits(&self) -> u32 {
        self.base_bits + self.fanout_bits
    }

    pub fn fanout(&self) -> usize {
        self.chains.len()
    }

    pub fn partition_len(&self, p: usize) -> u64 {
        self.chains[p].tuples
    }

    pub fn total_tuples(&self) -> u64 {
        self.chains.iter().map(|c| c.tuples).sum()
    }

    /// Number of buckets in partition `p`'s chain.
    pub fn chain_buckets(&self, p: usize) -> usize {
        let mut n = 0;
        let mut b = self.chains[p].head;
        while b != NIL_BUCKET {
            n += 1;
            b = self.pool.next_of(b);
        }
        n
    }

    /// Build a relation whose chain layout is fixed up front from the
    /// per-partition tuple `counts` — the scatter target of the two-phase
    /// parallel partitioners. Partition `p` receives *consecutive* bucket
    /// ids, so its tuples occupy one contiguous run of pool slots: tuple
    /// `i` of `p` lives at column slot `base[p] + i`, where `base` is the
    /// returned vector ([`columns_mut`](Self::columns_mut) exposes the
    /// columns). Every observable property — chain lengths, bucket counts,
    /// iteration order, pool footprint — matches a relation grown
    /// tuple-by-tuple with [`push`](Self::push) from the same counts;
    /// only the (unobservable) bucket-id assignment order differs.
    pub fn from_counts(
        pool_capacity: usize,
        fanout_bits: u32,
        base_bits: u32,
        counts: &[u64],
    ) -> (Self, Vec<usize>) {
        assert!(pool_capacity > 0, "bucket capacity must be positive");
        assert_eq!(counts.len(), 1 << fanout_bits, "one count per partition");
        let cap = pool_capacity;
        let total_buckets: usize = counts.iter().map(|&c| (c as usize).div_ceil(cap)).sum();
        let mut lens = Vec::with_capacity(total_buckets);
        let mut next = Vec::with_capacity(total_buckets);
        let mut chains = Vec::with_capacity(counts.len());
        let mut base = Vec::with_capacity(counts.len());
        for &count in counts {
            let count = count as usize;
            base.push(lens.len() * cap);
            if count == 0 {
                chains.push(PartitionChain::EMPTY);
                continue;
            }
            let head = lens.len() as u32;
            let n_buckets = count.div_ceil(cap);
            for b in 0..n_buckets {
                let last = b + 1 == n_buckets;
                lens.push(if last { (count - b * cap) as u32 } else { cap as u32 });
                next.push(if last { NIL_BUCKET } else { head + b as u32 + 1 });
            }
            let tail = head + (n_buckets - 1) as u32;
            chains.push(PartitionChain { head, tail, tuples: count as u64 });
        }
        let pool = BucketPool {
            capacity: cap,
            keys: vec![0u32; total_buckets * cap],
            payloads: vec![0u32; total_buckets * cap],
            lens,
            next,
        };
        (PartitionedRelation { pool, chains, fanout_bits, base_bits }, base)
    }

    /// Mutable key/payload columns of the backing pool, for disjoint
    /// parallel scatter into the slots advertised by
    /// [`from_counts`](Self::from_counts).
    pub fn columns_mut(&mut self) -> (&mut [u32], &mut [u32]) {
        (&mut self.pool.keys, &mut self.pool.payloads)
    }

    /// Append one tuple to partition `p`, extending the chain as needed.
    /// Returns `true` if a new bucket had to be allocated.
    pub fn push(&mut self, p: usize, t: Tuple) -> bool {
        let chain = &mut self.chains[p];
        if chain.head == NIL_BUCKET {
            let b = self.pool.alloc();
            chain.head = b;
            chain.tail = b;
            let ok = self.pool.push(b, t);
            debug_assert!(ok);
            chain.tuples += 1;
            return true;
        }
        if self.pool.push(chain.tail, t) {
            chain.tuples += 1;
            return false;
        }
        let b = self.pool.alloc();
        self.pool.link(chain.tail, b);
        chain.tail = b;
        let ok = self.pool.push(b, t);
        debug_assert!(ok);
        chain.tuples += 1;
        true
    }

    /// Iterate partition `p` bucket by bucket (coalesced chain scan).
    pub fn buckets_of(&self, p: usize) -> BucketIter<'_> {
        BucketIter { pool: &self.pool, bucket: self.chains[p].head }
    }

    /// Iterate all tuples of partition `p`.
    pub fn tuples_of(&self, p: usize) -> impl Iterator<Item = Tuple> + '_ {
        self.buckets_of(p).flat_map(|b| {
            self.pool
                .keys_of(b)
                .iter()
                .zip(self.pool.payloads_of(b))
                .map(|(&key, &payload)| Tuple { key, payload })
        })
    }

    /// Partition `p`'s key and payload columns, borrowed from the pool when
    /// its buckets form one gap-free run of consecutive ids — always the
    /// case for a relation laid out by [`from_counts`](Self::from_counts)
    /// — and otherwise copied by [`collect_partition`](Self::collect_partition).
    pub fn partition_columns(&self, p: usize) -> (Cow<'_, [u32]>, Cow<'_, [u32]>) {
        let chain = self.chains[p];
        let n = chain.tuples as usize;
        if n == 0 {
            return (Cow::Borrowed(&[]), Cow::Borrowed(&[]));
        }
        let cap = self.pool.capacity;
        let contiguous = self.buckets_of(p).all(|b| {
            b == chain.tail || (self.pool.next_of(b) == b + 1 && self.pool.len_of(b) == cap)
        });
        if contiguous {
            let start = chain.head as usize * cap;
            let slots = start..start + n;
            return (
                Cow::Borrowed(&self.pool.keys[slots.clone()]),
                Cow::Borrowed(&self.pool.payloads[slots]),
            );
        }
        let (keys, payloads) = self.collect_partition(p);
        (Cow::Owned(keys), Cow::Owned(payloads))
    }

    /// Collect partition `p` into parallel key/payload vectors (the copy a
    /// join kernel stages into shared memory).
    pub fn collect_partition(&self, p: usize) -> (Vec<u32>, Vec<u32>) {
        let n = self.partition_len(p) as usize;
        let mut keys = Vec::with_capacity(n);
        let mut payloads = Vec::with_capacity(n);
        for b in self.buckets_of(p) {
            keys.extend_from_slice(self.pool.keys_of(b));
            payloads.extend_from_slice(self.pool.payloads_of(b));
        }
        (keys, payloads)
    }
}

/// Iterator over a partition's bucket ids.
pub struct BucketIter<'a> {
    pool: &'a BucketPool,
    bucket: u32,
}

impl Iterator for BucketIter<'_> {
    type Item = u32;
    fn next(&mut self) -> Option<u32> {
        if self.bucket == NIL_BUCKET {
            return None;
        }
        let b = self.bucket;
        self.bucket = self.pool.next_of(b);
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(key: u32) -> Tuple {
        Tuple { key, payload: key * 2 }
    }

    #[test]
    fn pool_alloc_and_push() {
        let mut pool = BucketPool::new(4);
        let b = pool.alloc();
        assert!(pool.push(b, t(1)));
        assert!(pool.push(b, t(2)));
        assert_eq!(pool.len_of(b), 2);
        assert_eq!(pool.keys_of(b), &[1, 2]);
        assert_eq!(pool.payloads_of(b), &[2, 4]);
    }

    #[test]
    fn push_to_full_bucket_fails() {
        let mut pool = BucketPool::new(2);
        let b = pool.alloc();
        assert!(pool.push(b, t(1)));
        assert!(pool.push(b, t(2)));
        assert!(!pool.push(b, t(3)));
        assert_eq!(pool.len_of(b), 2);
    }

    #[test]
    fn chains_grow_and_iterate_in_order() {
        let mut pr = PartitionedRelation::new(3, 1); // capacity 3, 2 partitions
        for k in 0..10u32 {
            pr.push((k % 2) as usize, t(k));
        }
        assert_eq!(pr.partition_len(0), 5);
        assert_eq!(pr.partition_len(1), 5);
        assert_eq!(pr.chain_buckets(0), 2); // 5 tuples / cap 3
        let keys: Vec<u32> = pr.tuples_of(0).map(|x| x.key).collect();
        assert_eq!(keys, vec![0, 2, 4, 6, 8]); // insertion order preserved
        assert_eq!(pr.total_tuples(), 10);
    }

    #[test]
    fn push_reports_bucket_allocations() {
        let mut pr = PartitionedRelation::new(2, 0);
        assert!(pr.push(0, t(1))); // first bucket
        assert!(!pr.push(0, t(2)));
        assert!(pr.push(0, t(3))); // overflow → new bucket
        assert!(!pr.push(0, t(4)));
        assert_eq!(pr.chain_buckets(0), 2);
    }

    #[test]
    fn collect_partition_round_trips() {
        let mut pr = PartitionedRelation::new(4, 2);
        for k in 0..20u32 {
            pr.push((k % 4) as usize, t(k));
        }
        let (keys, payloads) = pr.collect_partition(3);
        assert_eq!(keys, vec![3, 7, 11, 15, 19]);
        assert_eq!(payloads, vec![6, 14, 22, 30, 38]);
    }

    #[test]
    fn partition_columns_borrow_a_from_counts_layout() {
        // Partition 1 spans three buckets, partition 2 is empty.
        let counts = [2u64, 7, 0, 3];
        let (mut packed, base) = PartitionedRelation::from_counts(3, 2, 0, &counts);
        {
            let (keys, pays) = packed.columns_mut();
            for (p, &count) in counts.iter().enumerate() {
                for i in 0..count as usize {
                    let key = (i * 4 + p) as u32;
                    keys[base[p] + i] = key;
                    pays[base[p] + i] = key * 2;
                }
            }
        }
        for p in 0..4 {
            let (keys, pays) = packed.partition_columns(p);
            assert!(
                matches!((&keys, &pays), (Cow::Borrowed(_), Cow::Borrowed(_))),
                "partition {p}"
            );
            let (want_keys, want_pays) = packed.collect_partition(p);
            assert_eq!((keys.as_ref(), pays.as_ref()), (&want_keys[..], &want_pays[..]));
        }
    }

    #[test]
    fn partition_columns_equal_collect_partition_for_interleaved_chains() {
        // Round-robin pushes interleave the partitions' buckets, so no
        // chain is a run of consecutive bucket ids.
        let mut pr = PartitionedRelation::new(2, 2);
        for k in 0..29u32 {
            pr.push((k % 4) as usize, t(k));
        }
        assert_ne!(pr.pool.next_of(pr.chains[1].head), pr.chains[1].head + 1);
        for p in 0..4 {
            let (keys, pays) = pr.partition_columns(p);
            assert!(matches!(keys, Cow::Owned(_)), "partition {p}");
            let (want_keys, want_pays) = pr.collect_partition(p);
            assert_eq!((keys.as_ref(), pays.as_ref()), (&want_keys[..], &want_pays[..]));
        }
    }

    #[test]
    fn empty_partition_iterates_nothing() {
        let pr = PartitionedRelation::new(4, 2);
        assert_eq!(pr.tuples_of(2).count(), 0);
        assert_eq!(pr.chain_buckets(2), 0);
        assert!(pr.chains[2].is_empty());
    }

    #[test]
    fn device_bytes_track_pool_growth() {
        let mut pool = BucketPool::new(128);
        assert_eq!(pool.device_bytes(), 0);
        pool.alloc();
        assert_eq!(pool.device_bytes(), 128 * 8 + 8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = BucketPool::new(0);
    }

    #[test]
    fn from_counts_matches_push_built_observables() {
        // Same tuples, pushed vs counted-then-scattered: every observable
        // must agree (partition 2 left empty, partition 1 spans buckets).
        let assign = |k: u32| (k % 4) as usize;
        let tuples: Vec<Tuple> = (0..23u32).filter(|&k| assign(k) != 2).map(t).collect();
        let mut pushed = PartitionedRelation::new(3, 2);
        let mut counts = vec![0u64; 4];
        for &tp in &tuples {
            pushed.push(assign(tp.key), tp);
            counts[assign(tp.key)] += 1;
        }
        let (mut packed, base) = PartitionedRelation::from_counts(3, 2, 0, &counts);
        {
            let (keys, pays) = packed.columns_mut();
            let mut cursor = base.clone();
            for &tp in &tuples {
                let p = assign(tp.key);
                keys[cursor[p]] = tp.key;
                pays[cursor[p]] = tp.payload;
                cursor[p] += 1;
            }
        }
        assert_eq!(packed.pool.device_bytes(), pushed.pool.device_bytes());
        assert_eq!(packed.pool.num_buckets(), pushed.pool.num_buckets());
        for p in 0..4 {
            assert_eq!(packed.partition_len(p), pushed.partition_len(p), "partition {p}");
            assert_eq!(packed.chain_buckets(p), pushed.chain_buckets(p), "partition {p}");
            let a: Vec<Tuple> = packed.tuples_of(p).collect();
            let b: Vec<Tuple> = pushed.tuples_of(p).collect();
            assert_eq!(a, b, "partition {p}");
        }
    }
}
