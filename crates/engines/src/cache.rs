//! The device-resident build-side cache of the join service.
//!
//! Skewed serving traffic probes the same few dimension tables over and
//! over; rebuilding the partitioned hash table per request wastes the
//! device (He et al. motivate probing cached tables in place). This cache
//! keeps [`CachedBuild`]s — partitioned build sides produced by
//! [`CachedBuildJoin::execute_cold`](hcj_core::CachedBuildJoin::execute_cold)
//! — pinned in device memory between requests, keyed by the relation's
//! catalog id and content version ([`BuildRef`]).
//!
//! **Accounting.** Every resident entry holds a real [`Reservation`]
//! against the *service's* shared [`DeviceMemory`] accountant, so cached
//! bytes are visible to admission control like any tenant's working set —
//! the device-peak invariant (`used <= capacity` by construction) covers
//! the cache for free. The difference is that cached bytes are
//! *reclaimable*: when an admission reservation fails, the service calls
//! [`BuildCache::reclaim`] to evict cold entries until the request fits
//! (this is also how the cache yields under `--chaos` co-tenant capacity
//! shrinks, which reduce what `reserve` can grant).
//!
//! **Eviction policy.** GreedyDual-Size (cost-aware LRU): an entry's
//! priority is `clock + build_seconds / table_bytes` at its last touch,
//! the victim is the minimum priority, and the clock advances to the
//! victim's priority on eviction — so expensive-to-rebuild tables out-live
//! cheap ones, and among equals, the least recently used goes first (ties
//! break on a touch sequence number, then the id: fully deterministic).
//!
//! **Consultation.** Both the fleet's admission and the plan executor
//! decide a join's [`CacheRole`] with [`BuildCache::consult`] (peek,
//! invalidate a stale entry, install only at the resident rung, bypass a
//! newer entry) and count it with [`BuildCache::record`], which also pins
//! a hit's table. The fleet consults on every admission attempt but
//! records only when the request admits, so backoff retries never
//! inflate the hit/miss counts; a plan op does both when its wave runs.
//!
//! **Pinning.** Entries are handed out as `Arc<CachedTable>`: an eviction
//! or invalidation removes the entry from the map immediately, but the
//! device bytes stay reserved until the last in-flight request drops its
//! pin — exactly the drain semantics of freeing device memory that is
//! still referenced by a running kernel.

use std::collections::BTreeMap;
use std::sync::Arc;

use hcj_core::CachedBuild;
use hcj_gpu::{CacheCounters, DeviceMemory, Reservation};
use hcj_workload::BuildRef;

use crate::service::CacheRole;

/// Sizing policy of the [`BuildCache`].
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildCacheConfig {
    /// Absolute byte budget (handy for tests that hand-compute eviction
    /// traces); `None` gives the cache half the device's capacity. Policy
    /// evictions keep resident entries at or below the budget.
    pub max_bytes: Option<u64>,
}

impl BuildCacheConfig {
    /// The byte budget against a device of `capacity` bytes.
    pub fn resolved_max_bytes(&self, capacity: u64) -> u64 {
        self.max_bytes.unwrap_or(capacity / 2)
    }
}

/// A resident cached build: the reusable partitioned table plus the
/// device reservation pinning its bytes. Handed to requests as an `Arc`,
/// so the reservation outlives eviction until the last user completes.
#[derive(Debug)]
pub struct CachedTable {
    /// The partitioned build side and its rebuild cost.
    pub build: CachedBuild,
    /// Holds `build.table_bytes` against the service accountant; freed
    /// when the last `Arc` drops.
    _reservation: Reservation,
}

/// What a (non-mutating) cache consultation found for a [`BuildRef`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CachePeek {
    /// An entry at exactly the requested version: reusable.
    Hit,
    /// An entry at an *older* version: stale, must be invalidated.
    Stale,
    /// An entry at a *newer* version: this request was generated before
    /// the bump and wants content the cache no longer has — bypass
    /// without disturbing the fresher entry.
    Newer,
    /// No entry for this relation.
    Miss,
}

/// One resident entry.
#[derive(Debug)]
struct Entry {
    version: u64,
    /// GreedyDual-Size priority at last touch.
    h: f64,
    /// Monotonic touch sequence; breaks priority ties as pure LRU.
    touched: u64,
    table: Arc<CachedTable>,
}

/// Aggregate cache state for the service report.
#[derive(Clone, Copy, Debug)]
pub struct CacheReport {
    /// Hit/miss/evict/reclaim/invalidation counts.
    pub counters: CacheCounters,
    /// High-water mark of resident cached bytes.
    pub peak_bytes: u64,
    /// Resident cached bytes when the run drained.
    pub bytes_at_end: u64,
    /// Resident entries when the run drained.
    pub entries_at_end: usize,
}

/// The build-side cache; see the module docs for policy and accounting.
#[derive(Debug)]
pub struct BuildCache {
    entries: BTreeMap<u64, Entry>,
    /// GreedyDual-Size clock: advances to the victim's priority on every
    /// eviction, so long-resident entries age relative to fresh ones.
    clock: f64,
    touch_seq: u64,
    max_bytes: u64,
    stats: CacheCounters,
    peak_bytes: u64,
}

impl BuildCache {
    /// An empty cache with a `max_bytes` policy budget.
    pub fn new(max_bytes: u64) -> Self {
        BuildCache {
            entries: BTreeMap::new(),
            clock: 0.0,
            touch_seq: 0,
            max_bytes,
            stats: CacheCounters::default(),
            peak_bytes: 0,
        }
    }

    /// Resident bytes across all entries.
    pub fn bytes(&self) -> u64 {
        self.entries.values().map(|e| e.table.build.table_bytes).sum()
    }

    /// Bytes of the table resident for relation `id`, if any.
    pub fn table_bytes(&self, id: u64) -> Option<u64> {
        self.entries.get(&id).map(|e| e.table.build.table_bytes)
    }

    /// High-water mark of resident bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The policy budget (bytes).
    pub fn max_bytes(&self) -> u64 {
        self.max_bytes
    }

    /// Counters so far (hits and misses are counted by
    /// [`record`](Self::record)).
    pub fn counters(&self) -> CacheCounters {
        self.stats
    }

    /// The end-of-run aggregate for the service report.
    pub fn report(&self) -> CacheReport {
        CacheReport {
            counters: self.stats,
            peak_bytes: self.peak_bytes,
            bytes_at_end: self.bytes(),
            entries_at_end: self.entries.len(),
        }
    }

    /// Non-mutating consultation: what would serving `bref` find?
    pub fn peek(&self, bref: BuildRef) -> CachePeek {
        match self.entries.get(&bref.id) {
            None => CachePeek::Miss,
            Some(e) if e.version == bref.version => CachePeek::Hit,
            Some(e) if e.version < bref.version => CachePeek::Stale,
            Some(_) => CachePeek::Newer,
        }
    }

    /// Record a hit on `id` and pin its table for the caller: the entry's
    /// priority refreshes (GreedyDual touch) and the returned `Arc` keeps
    /// the bytes reserved even if the entry is evicted mid-flight.
    /// `None` if the entry vanished since the peek ("cannot happen" in
    /// the single-threaded service loop; callers degrade to a miss).
    pub fn hit(&mut self, id: u64) -> Option<Arc<CachedTable>> {
        let clock = self.clock;
        let touched = self.next_touch();
        let e = self.entries.get_mut(&id)?;
        e.h = clock + priority_boost(&e.table.build);
        e.touched = touched;
        self.stats.hits += 1;
        Some(Arc::clone(&e.table))
    }

    /// Decide, without counting it, how a join whose build side is
    /// `bref` uses the cache. An entry at `bref`'s version is a
    /// [`CacheRole::Hit`] when `fits` accepts its table bytes. A stale
    /// entry is invalidated on sight. A miss, or a hit that does not fit,
    /// installs what it builds when the join runs at the `resident` rung
    /// and bypasses the cache below it. A newer entry is bypassed
    /// untouched.
    pub fn consult(
        &mut self,
        bref: BuildRef,
        resident: bool,
        fits: impl FnOnce(u64) -> bool,
    ) -> CacheRole {
        let miss = if resident { CacheRole::Install } else { CacheRole::Bypass };
        match self.peek(bref) {
            CachePeek::Hit if fits(self.table_bytes(bref.id).unwrap_or(0)) => CacheRole::Hit,
            CachePeek::Hit | CachePeek::Miss => miss,
            CachePeek::Stale => {
                self.invalidate(bref.id);
                miss
            }
            CachePeek::Newer => CacheRole::Bypass,
        }
    }

    /// Count a [`consult`](Self::consult)ed `role` as one hit or one miss
    /// and pin a hit's table for the caller ([`hit`](Self::hit)). A hit
    /// whose entry vanished since counts as a miss and comes back as
    /// [`CacheRole::Bypass`] without a table; [`CacheRole::None`] counts
    /// nothing.
    pub fn record(
        &mut self,
        bref: BuildRef,
        role: CacheRole,
    ) -> (CacheRole, Option<Arc<CachedTable>>) {
        match role {
            CacheRole::None => (role, None),
            CacheRole::Hit => match self.hit(bref.id) {
                Some(table) => (role, Some(table)),
                None => {
                    self.stats.misses += 1;
                    (CacheRole::Bypass, None)
                }
            },
            CacheRole::Install | CacheRole::Bypass => {
                self.stats.misses += 1;
                (role, None)
            }
        }
    }

    /// Drop the entry for `id` because its content version bumped. The
    /// bytes of a pinned table stay reserved until in-flight users drain.
    pub fn invalidate(&mut self, id: u64) {
        if self.entries.remove(&id).is_some() {
            self.stats.invalidations += 1;
        }
    }

    /// Install a freshly built table for `bref`, evicting under the
    /// policy budget first and reserving the table's bytes against
    /// `device`. Returns `false` (and installs nothing) when the table
    /// exceeds the budget on its own, when an equal-or-newer entry
    /// already landed (duplicate in-flight build), or when the device
    /// cannot grant the reservation even after policy evictions.
    pub fn insert(&mut self, bref: BuildRef, device: &DeviceMemory, build: CachedBuild) -> bool {
        if build.table_bytes > self.max_bytes {
            return false;
        }
        if self.entries.get(&bref.id).is_some_and(|e| e.version >= bref.version) {
            return false;
        }
        // A stale same-id entry is replaced, not evicted: remove it first
        // so the budget loop doesn't pick an unrelated victim for bytes
        // the replacement frees anyway.
        if self.entries.remove(&bref.id).is_some() {
            self.stats.invalidations += 1;
        }
        while self.bytes() + build.table_bytes > self.max_bytes {
            if self.evict_victim(None).is_none() {
                return false; // nothing left to evict (all bytes pinned)
            }
            self.stats.evictions += 1;
        }
        let Ok(reservation) = device.reserve(build.table_bytes) else {
            return false; // device too contended right now; skip caching
        };
        let h = self.clock + priority_boost(&build);
        let touched = self.next_touch();
        self.entries.insert(
            bref.id,
            Entry {
                version: bref.version,
                h,
                touched,
                table: Arc::new(CachedTable { build, _reservation: reservation }),
            },
        );
        self.peak_bytes = self.peak_bytes.max(self.bytes());
        true
    }

    /// The hottest resident entries — maximum GreedyDual priority, ties
    /// broken most-recently-touched then lowest id — as cloned builds,
    /// hottest first. This is the deterministic re-warm set the fleet
    /// copies onto an adopting device when this cache's device is lost;
    /// cloning (not pinning) keeps the dead device's reservations out of
    /// the survivor's accounting.
    pub fn hottest(&self, limit: usize) -> Vec<(BuildRef, CachedBuild)> {
        let mut ranked: Vec<(&u64, &Entry)> = self.entries.iter().collect();
        ranked.sort_by(|(ia, a), (ib, b)| {
            b.h.total_cmp(&a.h).then(b.touched.cmp(&a.touched)).then(ia.cmp(ib))
        });
        ranked
            .into_iter()
            .take(limit)
            .map(|(&id, e)| (BuildRef { id, version: e.version }, e.table.build.clone()))
            .collect()
    }

    /// Drop every entry at once — the device behind this cache is gone.
    /// Each drop is counted as an invalidation; bytes pinned by in-flight
    /// users stay reserved until those users drain (the fleet drains them
    /// in the same event). Returns the number of entries invalidated.
    pub fn invalidate_all(&mut self) -> usize {
        let dropped = self.entries.len();
        self.entries.clear();
        self.stats.invalidations += dropped as u64;
        dropped
    }

    /// Memory-pressure reclaim: evict entries (coldest first) until
    /// `device` can grant `needed` bytes, or nothing evictable remains.
    /// `protect` spares one id — the entry the requester is about to hit,
    /// which must not be reclaimed to make room for its own probe.
    /// Evicting a pinned entry frees nothing until its users drain, so
    /// the loop keeps going past pinned entries. Returns whether `needed`
    /// now fits.
    pub fn reclaim(&mut self, device: &DeviceMemory, needed: u64, protect: Option<u64>) -> bool {
        while !device.fits(needed) {
            let Some(freed) = self.evict_victim(protect) else {
                return false;
            };
            self.stats.reclaims += 1;
            self.stats.reclaimed_bytes += freed;
        }
        true
    }

    /// Remove the GreedyDual-Size victim: minimum `(h, touched, id)`,
    /// skipping the `protect`ed id. Advances the clock to the victim's
    /// priority. Returns the victim's table bytes, or `None` when nothing
    /// is evictable.
    fn evict_victim(&mut self, protect: Option<u64>) -> Option<u64> {
        let (&id, _) = self.entries.iter().filter(|(&id, _)| Some(id) != protect).min_by(
            |(ia, a), (ib, b)| a.h.total_cmp(&b.h).then(a.touched.cmp(&b.touched)).then(ia.cmp(ib)),
        )?;
        let victim = self.entries.remove(&id).expect("victim id just selected");
        self.clock = self.clock.max(victim.h);
        Some(victim.table.build.table_bytes)
    }

    fn next_touch(&mut self) -> u64 {
        self.touch_seq += 1;
        self.touch_seq
    }
}

/// The GreedyDual-Size priority increment of an entry over the current
/// clock: rebuild cost per resident byte.
fn priority_boost(build: &CachedBuild) -> f64 {
    build.build_seconds / build.table_bytes.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcj_core::partition::PartitionedRelation;

    /// A synthetic cached build: the cache only reads `table_bytes` and
    /// `build_seconds`, so an empty partitioned shell suffices.
    fn build(table_bytes: u64, build_seconds: f64) -> CachedBuild {
        CachedBuild {
            partitioned: PartitionedRelation::from_counts(1, 0, 0, [0]),
            payload_width: 4,
            build_tuples: 0,
            table_bytes,
            build_seconds,
            refine_plan: Default::default(),
        }
    }

    fn bref(id: u64, version: u64) -> BuildRef {
        BuildRef { id, version }
    }

    #[test]
    fn uniform_costs_evict_in_lru_order() {
        let device = DeviceMemory::new(1 << 20);
        let mut c = BuildCache::new(2_000);
        assert!(c.insert(bref(1, 0), &device, build(1_000, 1e-3)));
        assert!(c.insert(bref(2, 0), &device, build(1_000, 1e-3)));
        // Touch 1: it becomes the most recently used.
        assert_eq!(c.peek(bref(1, 0)), CachePeek::Hit);
        assert!(c.hit(1).is_some());
        // Installing 3 must evict the LRU entry, which is now 2.
        assert!(c.insert(bref(3, 0), &device, build(1_000, 1e-3)));
        assert_eq!(c.peek(bref(2, 0)), CachePeek::Miss);
        assert_eq!(c.peek(bref(1, 0)), CachePeek::Hit);
        assert_eq!(c.peek(bref(3, 0)), CachePeek::Hit);
        assert_eq!(c.counters().evictions, 1);
    }

    #[test]
    fn expensive_rebuilds_outlive_cheap_ones() {
        let device = DeviceMemory::new(1 << 20);
        let mut c = BuildCache::new(2_000);
        // Same size, but entry 1 costs 100x more to rebuild: GreedyDual
        // keeps it even though entry 2 was used more recently.
        assert!(c.insert(bref(1, 0), &device, build(1_000, 1e-1)));
        assert!(c.insert(bref(2, 0), &device, build(1_000, 1e-3)));
        assert!(c.insert(bref(3, 0), &device, build(1_000, 1e-3)));
        assert_eq!(c.peek(bref(1, 0)), CachePeek::Hit, "expensive entry survives");
        assert_eq!(c.peek(bref(2, 0)), CachePeek::Miss, "cheap entry was the victim");
    }

    #[test]
    fn reclaim_frees_device_bytes_for_admission() {
        let device = DeviceMemory::new(10_000);
        let mut c = BuildCache::new(10_000);
        assert!(c.insert(bref(1, 0), &device, build(4_000, 1e-3)));
        assert!(c.insert(bref(2, 0), &device, build(4_000, 2e-3)));
        assert_eq!(device.used(), 8_000);
        // A 6 KB tenant does not fit; reclaiming must evict the cheaper
        // entry (1) and stop as soon as the tenant fits.
        assert!(c.reclaim(&device, 6_000, None));
        assert_eq!(device.used(), 4_000);
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek(bref(2, 0)), CachePeek::Hit);
        let r = device.reserve(6_000).expect("reclaim made room");
        assert_eq!(c.counters().reclaims, 1);
        assert_eq!(c.counters().reclaimed_bytes, 4_000);
        drop(r);
        // Reclaiming more than everything fails but empties the cache.
        assert!(!c.reclaim(&device, 1 << 30, None));
        assert!(c.is_empty());
    }

    #[test]
    fn reclaim_spares_the_protected_entry() {
        let device = DeviceMemory::new(10_000);
        let mut c = BuildCache::new(10_000);
        assert!(c.insert(bref(1, 0), &device, build(4_000, 1e-3)));
        assert!(c.insert(bref(2, 0), &device, build(4_000, 2e-3)));
        // Entry 1 is the natural (cheapest) victim, but it is the entry
        // the requester is hitting: entry 2 must go instead.
        assert!(c.reclaim(&device, 6_000, Some(1)));
        assert_eq!(c.peek(bref(1, 0)), CachePeek::Hit);
        assert_eq!(c.peek(bref(2, 0)), CachePeek::Miss);
        // With only the protected entry left, reclaim cannot free more.
        assert!(!c.reclaim(&device, 8_000, Some(1)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn pinned_entries_keep_their_bytes_until_dropped() {
        let device = DeviceMemory::new(10_000);
        let mut c = BuildCache::new(10_000);
        assert!(c.insert(bref(1, 0), &device, build(4_000, 1e-3)));
        let pin = c.hit(1).expect("resident");
        c.invalidate(1);
        assert_eq!(c.peek(bref(1, 0)), CachePeek::Miss, "entry gone from the map");
        assert_eq!(device.used(), 4_000, "bytes pinned by the in-flight user");
        drop(pin);
        assert_eq!(device.used(), 0, "last pin drop frees the reservation");
        assert_eq!(c.counters().invalidations, 1);
    }

    #[test]
    fn version_semantics_of_peek_and_insert() {
        let device = DeviceMemory::new(1 << 20);
        let mut c = BuildCache::new(1 << 20);
        assert_eq!(c.peek(bref(7, 0)), CachePeek::Miss);
        assert!(c.insert(bref(7, 1), &device, build(1_000, 1e-3)));
        assert_eq!(c.peek(bref(7, 1)), CachePeek::Hit);
        assert_eq!(c.peek(bref(7, 2)), CachePeek::Stale);
        assert_eq!(c.peek(bref(7, 0)), CachePeek::Newer);
        // Duplicate/downgrade installs are refused...
        assert!(!c.insert(bref(7, 1), &device, build(1_000, 1e-3)));
        assert!(!c.insert(bref(7, 0), &device, build(1_000, 1e-3)));
        // ...but an upgrade replaces in place (counted as invalidation).
        assert!(c.insert(bref(7, 2), &device, build(1_000, 1e-3)));
        assert_eq!(c.len(), 1);
        assert_eq!(c.counters().invalidations, 1);
        assert_eq!(c.peek(bref(7, 2)), CachePeek::Hit);
    }

    #[test]
    fn oversized_and_contended_installs_are_skipped() {
        let device = DeviceMemory::new(2_000);
        let mut c = BuildCache::new(1_000);
        assert!(!c.insert(bref(1, 0), &device, build(1_500, 1e-3)), "over budget");
        let tenant = device.reserve(1_800).unwrap();
        assert!(!c.insert(bref(1, 0), &device, build(900, 1e-3)), "device contended");
        drop(tenant);
        assert!(c.insert(bref(1, 0), &device, build(900, 1e-3)));
        assert_eq!(c.peak_bytes(), 900);
        assert_eq!(c.bytes(), 900);
        assert_eq!(c.max_bytes(), 1_000);
        let rep = c.report();
        assert_eq!(rep.entries_at_end, 1);
        assert_eq!(rep.bytes_at_end, 900);
    }

    #[test]
    fn config_resolves_budget() {
        let cfg = BuildCacheConfig::default();
        assert_eq!(cfg.resolved_max_bytes(1_000), 500);
        let fixed = BuildCacheConfig { max_bytes: Some(123) };
        assert_eq!(fixed.resolved_max_bytes(1_000), 123);
    }
}
