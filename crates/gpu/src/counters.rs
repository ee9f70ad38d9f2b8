//! Simulated hardware performance counters.
//!
//! The cost model ([`KernelCost`]) already counts every byte and every
//! transaction a kernel generates — that is how simulated time is charged.
//! This module stops discarding that breakdown: a [`CounterSet`] lives on
//! every [`crate::Gpu`] and accumulates, at the exact points where
//! [`crate::Gpu::kernel`]/[`crate::Gpu::copy_h2d`] charge time, the same
//! quantities `nvprof`/Nsight would report on real hardware:
//!
//! * device-memory transactions **issued** vs. the **coalesced minimum**
//!   (their ratio is the coalescing efficiency the paper's §III analysis
//!   is built on);
//! * bytes moved per interconnect direction (H2D, D2H, device memory);
//! * shared-memory bytes reserved per block and bank-conflict-equivalent
//!   charges (shared atomics serialize like conflicts in the cost model);
//! * warp-level operation counts ([`crate::WARP_SIZE`]-wide instruction
//!   bundles);
//! * achieved vs. roofline device-memory bandwidth per kernel;
//! * occupancy: blocks resident vs. SM capacity, from the launch shape.
//!
//! Counters are **deterministic by construction**: they are pure functions
//! of the work the strategies charge, recorded once per successfully
//! issued logical op in issue order (which is serial in every strategy —
//! host-side parallelism only splits the *functional* work). They are
//! therefore byte-identical across `--jobs` values, and identical with the
//! fault layer armed-but-disabled; under active chaos a completed run
//! still reports the same useful traffic because faulted partial attempts
//! and backoffs are never counted as kernel work.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use hcj_sim::{json, Schedule, Timeline};

use hcj_sim::OpId;

use crate::cost::KernelCost;
use crate::spec::DeviceSpec;
use crate::SECTOR_BYTES;
use crate::WARP_SIZE;

/// Useful payload bytes assumed per random sector transaction when
/// computing the coalesced minimum: a hash-table entry or tuple touched by
/// a random probe is 4–8 bytes, of which the device still fetches a full
/// [`SECTOR_BYTES`] sector. 8 is the paper's tuple-column width and gives
/// the *most favorable* minimum, so reported efficiency is a lower bound.
pub const RANDOM_USEFUL_BYTES: u64 = 8;

/// Shared handle to a [`CounterSet`], cloned into everything that records
/// (mirrors [`crate::faults::FaultHandle`]).
pub type CounterHandle = Arc<Mutex<CounterSet>>;

/// The grid configuration of a kernel launch, for occupancy accounting.
///
/// Strategies that know their launch geometry pass it to
/// [`crate::Gpu::kernel`]; launches that pass [`LaunchShape::UNSHAPED`]
/// report no occupancy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaunchShape {
    /// Thread blocks in the grid.
    pub blocks: u64,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Shared memory reserved per block, bytes.
    pub shared_bytes_per_block: u64,
}

impl LaunchShape {
    /// The unknown shape: no occupancy is derived from it.
    pub const UNSHAPED: LaunchShape =
        LaunchShape { blocks: 0, threads_per_block: 0, shared_bytes_per_block: 0 };

    /// Achieved occupancy: resident blocks over device block capacity,
    /// clamped to 1. Co-residency per SM is bounded by the thread budget
    /// (`max_threads_per_block / threads_per_block`); `None` when the
    /// shape is [`LaunchShape::UNSHAPED`].
    pub fn occupancy(&self, spec: &DeviceSpec) -> Option<f64> {
        if self.blocks == 0 || self.threads_per_block == 0 {
            return None;
        }
        let per_sm = (spec.max_threads_per_block / self.threads_per_block).max(1);
        let capacity = u64::from(spec.sms) * u64::from(per_sm);
        Some((self.blocks as f64 / capacity as f64).min(1.0))
    }
}

/// Accumulated counters for one kernel (all launches sharing a normalized
/// label, e.g. every `join chunk<k>` launch lands in `join chunk`).
#[derive(Clone, Debug, Default)]
pub struct KernelStats {
    /// Number of launches.
    pub launches: u64,
    /// Total charged kernel seconds (excluding launch overhead).
    pub seconds: f64,
    /// Accumulated traffic across all launches.
    pub cost: KernelCost,
    /// Representative grid: the largest launch recorded under this label.
    pub shape: LaunchShape,
    /// Occupancy of the representative grid, when the shape is known.
    pub occupancy: Option<f64>,
    /// Roofline path bounding the accumulated cost (`"device-mem"`, …).
    pub bottleneck: &'static str,
}

impl KernelStats {
    /// Device-memory transactions actually issued: one sector per
    /// [`SECTOR_BYTES`] of coalesced traffic plus one per random/L2 access.
    pub fn issued_transactions(&self) -> u64 {
        self.cost.coalesced_bytes.div_ceil(SECTOR_BYTES)
            + self.cost.random_transactions
            + self.cost.l2_transactions
    }

    /// The coalesced minimum: transactions a perfectly coalesced kernel
    /// would need to move the same useful bytes (random accesses carry
    /// [`RANDOM_USEFUL_BYTES`] useful bytes each).
    pub fn minimum_transactions(&self) -> u64 {
        let useful = self.cost.coalesced_bytes
            + RANDOM_USEFUL_BYTES * (self.cost.random_transactions + self.cost.l2_transactions);
        useful.div_ceil(SECTOR_BYTES)
    }

    /// Coalescing efficiency = minimum / issued transactions, in `(0, 1]`.
    /// A kernel with no device traffic is perfectly coalesced by
    /// convention.
    pub fn coalescing_efficiency(&self) -> f64 {
        let issued = self.issued_transactions();
        if issued == 0 {
            1.0
        } else {
            self.minimum_transactions() as f64 / issued as f64
        }
    }

    /// Total device-memory bytes moved (each random/L2 access pays a full
    /// sector — this is what the bus actually carries).
    pub fn device_bytes(&self) -> u64 {
        self.cost.coalesced_bytes
            + SECTOR_BYTES * (self.cost.random_transactions + self.cost.l2_transactions)
    }

    /// Warp-level operations: instructions bundled [`WARP_SIZE`] lanes at
    /// a time (lockstep execution issues per warp, not per thread).
    pub fn warp_ops(&self) -> u64 {
        self.cost.instructions.div_ceil(WARP_SIZE as u64)
    }

    /// Achieved device-memory bandwidth, bytes/second (0 for instant
    /// kernels).
    pub fn achieved_bandwidth(&self) -> f64 {
        if self.seconds > 0.0 {
            self.device_bytes() as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// Accumulated counters for one PCIe direction.
#[derive(Clone, Copy, Debug, Default)]
pub struct TransferStats {
    /// Number of copies.
    pub transfers: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Subset of `bytes` moved from/to pageable host memory (bounced
    /// through a staging buffer at roughly half bandwidth).
    pub pageable_bytes: u64,
    /// Total charged transfer seconds.
    pub seconds: f64,
}

impl TransferStats {
    /// Achieved bandwidth, bytes/second (0 when nothing moved).
    pub fn achieved_bandwidth(&self) -> f64 {
        if self.seconds > 0.0 {
            self.bytes as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// What one recorded launch was, for the per-launch timeline samples.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LaunchClass {
    Kernel,
    H2D,
    D2H,
    ExchangeOut,
    ExchangeIn,
}

/// One issued op with the per-launch values the counter tracks plot.
#[derive(Clone, Copy, Debug)]
struct LaunchSample {
    op: OpId,
    class: LaunchClass,
    bytes: u64,
    occupancy: Option<f64>,
}

/// Build-side cache activity, in the same "count what the hardware layer
/// observed" spirit as the kernel/transfer counters. The serving layer's
/// device-resident hash-table cache records here so `repro --profile`
/// tables, profile JSON, and the serve rollups all carry cache behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Requests served from a cached build-side table (rebuild skipped).
    pub hits: u64,
    /// Cache consultations that found no reusable entry.
    pub misses: u64,
    /// Entries evicted by the cache's own capacity policy (cost-aware
    /// LRU at install time).
    pub evictions: u64,
    /// Entries evicted because device admission control needed the bytes
    /// back (memory-pressure reclaim, including `--chaos` capacity
    /// shrinks).
    pub reclaims: u64,
    /// Entries dropped because their relation's content version bumped.
    pub invalidations: u64,
    /// Device bytes released by pressure reclaims.
    pub reclaimed_bytes: u64,
}

impl CacheCounters {
    /// Accumulate another set of cache counters into this one.
    pub fn absorb(&mut self, other: &CacheCounters) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.reclaims += other.reclaims;
        self.invalidations += other.invalidations;
        self.reclaimed_bytes += other.reclaimed_bytes;
    }

    /// True when no cache activity was recorded (e.g. the cache is off).
    pub fn is_empty(&self) -> bool {
        *self == CacheCounters::default()
    }

    /// Hit rate over all consultations (0 when the cache was never
    /// consulted).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A compact per-request rollup of a [`CounterSet`], cheap enough to keep
/// per request in the join service's metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterRollup {
    /// Kernel launches recorded.
    pub kernel_launches: u64,
    /// PCIe copies recorded (both directions).
    pub transfers: u64,
    /// Device-memory bytes moved by kernels.
    pub device_bytes: u64,
    /// Host→device payload bytes.
    pub h2d_bytes: u64,
    /// Device→host payload bytes.
    pub d2h_bytes: u64,
    /// Device transactions issued, across all kernels.
    pub issued_transactions: u64,
    /// Coalesced-minimum transactions, across all kernels.
    pub minimum_transactions: u64,
    /// Inter-device exchange copies (both directions) recorded by
    /// cross-device joins; zero for single-device executions.
    pub exchange_transfers: u64,
    /// Bytes this device shipped to peer devices over the interconnect.
    pub exchange_out_bytes: u64,
    /// Bytes this device received from peer devices over the interconnect.
    pub exchange_in_bytes: u64,
    /// Build-side cache activity attributed to this request/run.
    pub cache: CacheCounters,
}

impl CounterRollup {
    /// Accumulate another rollup into this one.
    pub fn absorb(&mut self, other: &CounterRollup) {
        self.kernel_launches += other.kernel_launches;
        self.transfers += other.transfers;
        self.device_bytes += other.device_bytes;
        self.h2d_bytes += other.h2d_bytes;
        self.d2h_bytes += other.d2h_bytes;
        self.issued_transactions += other.issued_transactions;
        self.minimum_transactions += other.minimum_transactions;
        self.exchange_transfers += other.exchange_transfers;
        self.exchange_out_bytes += other.exchange_out_bytes;
        self.exchange_in_bytes += other.exchange_in_bytes;
        self.cache.absorb(&other.cache);
    }

    /// Aggregate coalescing efficiency (1.0 when no device traffic).
    pub fn coalescing_efficiency(&self) -> f64 {
        if self.issued_transactions == 0 {
            1.0
        } else {
            self.minimum_transactions as f64 / self.issued_transactions as f64
        }
    }
}

/// Per-device accumulated hardware counters; see the module docs.
///
/// Kernels aggregate under a *normalized* label — digit runs are stripped,
/// so `join chunk0` … `join chunk17` report as one `join chunk` line, the
/// way `nvprof` groups launches of one kernel symbol.
#[derive(Clone, Debug, Default)]
pub struct CounterSet {
    device: String,
    mem_bandwidth: f64,
    kernels: BTreeMap<String, KernelStats>,
    /// Host→device transfer totals.
    pub h2d: TransferStats,
    /// Device→host transfer totals.
    pub d2h: TransferStats,
    /// Build-side cache activity (recorded by the serving layer; always
    /// zero for standalone strategy executions).
    pub cache: CacheCounters,
    /// Bytes shipped to peer devices over the inter-device interconnect
    /// (cross-device exchange egress; zero for single-device runs).
    pub exchange_out: TransferStats,
    /// Bytes received from peer devices over the interconnect (exchange
    /// ingress).
    pub exchange_in: TransferStats,
    samples: Vec<LaunchSample>,
}

impl CounterSet {
    /// An empty set attributed to `spec` (knows the roofline bandwidth).
    pub fn for_device(spec: &DeviceSpec) -> Self {
        CounterSet {
            device: spec.name.to_string(),
            mem_bandwidth: spec.mem_bandwidth,
            ..CounterSet::default()
        }
    }

    /// A shareable handle to a fresh set for `spec`.
    pub fn handle(spec: &DeviceSpec) -> CounterHandle {
        Arc::new(Mutex::new(CounterSet::for_device(spec)))
    }

    /// The device name this set was recorded on.
    pub fn device(&self) -> &str {
        &self.device
    }

    /// Peak device-memory bandwidth of the recording device, bytes/second
    /// (0 when the set never saw a device) — the denominator of the
    /// roofline-attainment column and of the perf-gate roofline metric.
    pub fn roofline_bandwidth(&self) -> f64 {
        self.mem_bandwidth
    }

    /// Launch-seconds-weighted mean occupancy across kernels whose grid
    /// shape was recorded; `None` when no kernel carried a shape. One
    /// number per run for the perf gate's occupancy band.
    pub fn mean_occupancy(&self) -> Option<f64> {
        let mut weight = 0.0;
        let mut acc = 0.0;
        for stats in self.kernels.values() {
            if let Some(o) = stats.occupancy {
                weight += stats.seconds;
                acc += o * stats.seconds;
            }
        }
        if weight > 0.0 {
            Some(acc / weight)
        } else {
            None
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
            && self.h2d.transfers == 0
            && self.d2h.transfers == 0
            && self.exchange_out.transfers == 0
            && self.exchange_in.transfers == 0
    }

    /// Per-kernel stats, keyed by normalized label (sorted).
    pub fn kernels(&self) -> &BTreeMap<String, KernelStats> {
        &self.kernels
    }

    /// Look up one kernel's stats by its normalized label.
    pub fn kernel(&self, label: &str) -> Option<&KernelStats> {
        self.kernels.get(&normalize_label(label))
    }

    /// Record one successfully issued kernel launch. `seconds` is the
    /// charged duration (externally scaled costs pass their scaled time);
    /// `op` ties the launch to a schedule span for the counter tracks
    /// (`None` for synthetic recordings outside a [`crate::Gpu`]).
    pub fn record_kernel(
        &mut self,
        op: Option<OpId>,
        label: &str,
        cost: &KernelCost,
        shape: LaunchShape,
        seconds: f64,
        spec: &DeviceSpec,
    ) {
        let stats = self.kernels.entry(normalize_label(label)).or_default();
        stats.launches += 1;
        stats.seconds += seconds;
        stats.cost += *cost;
        if shape.blocks >= stats.shape.blocks {
            stats.shape = shape;
            stats.occupancy = shape.occupancy(spec);
        }
        stats.bottleneck = stats.cost.bottleneck(spec);
        let device_bytes =
            cost.coalesced_bytes + SECTOR_BYTES * (cost.random_transactions + cost.l2_transactions);
        if let Some(op) = op {
            self.samples.push(LaunchSample {
                op,
                class: LaunchClass::Kernel,
                bytes: device_bytes,
                occupancy: shape.occupancy(spec),
            });
        }
    }

    /// Record one successfully completed PCIe copy of `bytes` payload
    /// bytes taking `seconds` (h2d when `to_device`, d2h otherwise).
    pub fn record_transfer(
        &mut self,
        op: Option<OpId>,
        to_device: bool,
        bytes: u64,
        pageable: bool,
        seconds: f64,
    ) {
        let dir = if to_device { &mut self.h2d } else { &mut self.d2h };
        dir.transfers += 1;
        dir.bytes += bytes;
        if pageable {
            dir.pageable_bytes += bytes;
        }
        dir.seconds += seconds;
        if let Some(op) = op {
            self.samples.push(LaunchSample {
                op,
                class: if to_device { LaunchClass::H2D } else { LaunchClass::D2H },
                bytes,
                occupancy: None,
            });
        }
    }

    /// Record one completed inter-device exchange copy of `bytes` payload
    /// bytes taking `seconds` over the modeled interconnect. Each shuffled
    /// partition is recorded twice — as egress (`outgoing`) on the sender's
    /// counter set and as ingress on the receiver's — so per-direction
    /// exchange traffic is visible per device in `repro --profile` output
    /// and serve rollups, at the same layer every other transfer records.
    pub fn record_exchange(&mut self, op: Option<OpId>, outgoing: bool, bytes: u64, seconds: f64) {
        let dir = if outgoing { &mut self.exchange_out } else { &mut self.exchange_in };
        dir.transfers += 1;
        dir.bytes += bytes;
        dir.seconds += seconds;
        if let Some(op) = op {
            self.samples.push(LaunchSample {
                op,
                class: if outgoing { LaunchClass::ExchangeOut } else { LaunchClass::ExchangeIn },
                bytes,
                occupancy: None,
            });
        }
    }

    /// Merge every counter of `other` into this set (used by outcomes that
    /// combine work from several devices or phases).
    pub fn absorb(&mut self, other: &CounterSet) {
        if self.device.is_empty() {
            self.device = other.device.clone();
            self.mem_bandwidth = other.mem_bandwidth;
        }
        for (label, stats) in &other.kernels {
            let mine = self.kernels.entry(label.clone()).or_default();
            mine.launches += stats.launches;
            mine.seconds += stats.seconds;
            mine.cost += stats.cost;
            if stats.shape.blocks >= mine.shape.blocks {
                mine.shape = stats.shape;
                mine.occupancy = stats.occupancy;
            }
            mine.bottleneck = stats.bottleneck;
        }
        for (mine, theirs) in [
            (&mut self.h2d, &other.h2d),
            (&mut self.d2h, &other.d2h),
            (&mut self.exchange_out, &other.exchange_out),
            (&mut self.exchange_in, &other.exchange_in),
        ] {
            mine.transfers += theirs.transfers;
            mine.bytes += theirs.bytes;
            mine.pageable_bytes += theirs.pageable_bytes;
            mine.seconds += theirs.seconds;
        }
        self.cache.absorb(&other.cache);
        self.samples.extend(other.samples.iter().copied());
    }

    /// Kernel totals across all labels.
    pub fn kernel_totals(&self) -> KernelStats {
        let mut total = KernelStats::default();
        for stats in self.kernels.values() {
            total.launches += stats.launches;
            total.seconds += stats.seconds;
            total.cost += stats.cost;
        }
        total
    }

    /// The compact rollup the join service keeps per request.
    pub fn rollup(&self) -> CounterRollup {
        let mut roll = CounterRollup::default();
        for stats in self.kernels.values() {
            roll.kernel_launches += stats.launches;
            roll.device_bytes += stats.device_bytes();
            roll.issued_transactions += stats.issued_transactions();
            roll.minimum_transactions += stats.minimum_transactions();
        }
        roll.transfers = self.h2d.transfers + self.d2h.transfers;
        roll.h2d_bytes = self.h2d.bytes;
        roll.d2h_bytes = self.d2h.bytes;
        roll.exchange_transfers = self.exchange_out.transfers + self.exchange_in.transfers;
        roll.exchange_out_bytes = self.exchange_out.bytes;
        roll.exchange_in_bytes = self.exchange_in.bytes;
        roll.cache = self.cache;
        roll
    }

    /// An `nvprof`-style aligned per-kernel table plus per-direction
    /// transfer totals; deterministic, for `repro --profile` stdout.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let name_w =
            self.kernels.keys().map(|k| k.len()).chain(["kernel".len()]).max().unwrap_or(6).max(6);
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>7} {:>10} {:>9} {:>6} {:>8} {:>5} {:>8} {:>6}  bottleneck",
            "kernel",
            "launch",
            "time-ms",
            "dev-MB",
            "coal",
            "smem-KB",
            "occ",
            "GB/s",
            "roof",
            name_w = name_w,
        );
        for (label, stats) in &self.kernels {
            let occ = match stats.occupancy {
                Some(o) => format!("{o:.2}"),
                None => "-".to_string(),
            };
            let roof = if self.mem_bandwidth > 0.0 {
                format!("{:.0}%", 100.0 * stats.achieved_bandwidth() / self.mem_bandwidth)
            } else {
                "-".to_string()
            };
            let _ = writeln!(
                out,
                "{:<name_w$}  {:>7} {:>10.3} {:>9.1} {:>6.2} {:>8.1} {:>5} {:>8.1} {:>6}  {}",
                label,
                stats.launches,
                stats.seconds * 1e3,
                stats.device_bytes() as f64 / 1e6,
                stats.coalescing_efficiency(),
                stats.shape.shared_bytes_per_block as f64 / 1024.0,
                occ,
                stats.achieved_bandwidth() / 1e9,
                roof,
                stats.bottleneck,
                name_w = name_w,
            );
        }
        for (name, dir) in [("h2d", &self.h2d), ("d2h", &self.d2h)] {
            let _ = writeln!(
                out,
                "{name}: {} transfer(s), {} B ({} B pageable), {:.3} ms, {:.1} GB/s",
                dir.transfers,
                dir.bytes,
                dir.pageable_bytes,
                dir.seconds * 1e3,
                dir.achieved_bandwidth() / 1e9,
            );
        }
        // Exchange lines are conditional so single-device profiles stay
        // byte-identical to their pre-fleet goldens.
        for (name, dir) in
            [("exchange-out", &self.exchange_out), ("exchange-in", &self.exchange_in)]
        {
            if dir.transfers == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{name}: {} transfer(s), {} B, {:.3} ms, {:.1} GB/s",
                dir.transfers,
                dir.bytes,
                dir.seconds * 1e3,
                dir.achieved_bandwidth() / 1e9,
            );
        }
        let cc = &self.cache;
        let _ = writeln!(
            out,
            "cache: {} hit(s), {} miss(es), {} eviction(s), {} reclaim(s) ({} B), {} \
             invalidation(s)",
            cc.hits, cc.misses, cc.evictions, cc.reclaims, cc.reclaimed_bytes, cc.invalidations,
        );
        out
    }

    /// The whole set as a deterministic JSON document (sorted kernel keys,
    /// every [`KernelCost`] field plus the derived metrics), for the
    /// `<figure>.profile.json` files written next to the CSVs.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"device\": {},", json::string(&self.device));
        let _ = writeln!(out, "  \"mem_bandwidth\": {},", json::number(self.mem_bandwidth));
        out.push_str("  \"kernels\": {\n");
        for (i, (label, stats)) in self.kernels.iter().enumerate() {
            let _ = writeln!(out, "    {}: {{", json::string(label));
            let _ = writeln!(out, "      \"launches\": {},", stats.launches);
            let _ = writeln!(out, "      \"seconds\": {},", json::number(stats.seconds));
            let c = &stats.cost;
            let _ = writeln!(out, "      \"coalesced_bytes\": {},", c.coalesced_bytes);
            let _ = writeln!(out, "      \"random_transactions\": {},", c.random_transactions);
            let _ = writeln!(out, "      \"l2_transactions\": {},", c.l2_transactions);
            let _ = writeln!(out, "      \"shared_bytes\": {},", c.shared_bytes);
            let _ = writeln!(out, "      \"shared_atomics\": {},", c.shared_atomics);
            let _ = writeln!(out, "      \"global_atomics\": {},", c.global_atomics);
            let _ = writeln!(out, "      \"instructions\": {},", c.instructions);
            let _ = writeln!(out, "      \"warp_ops\": {},", stats.warp_ops());
            let _ =
                writeln!(out, "      \"issued_transactions\": {},", stats.issued_transactions());
            let _ =
                writeln!(out, "      \"minimum_transactions\": {},", stats.minimum_transactions());
            let _ = writeln!(
                out,
                "      \"coalescing_efficiency\": {},",
                json::number(stats.coalescing_efficiency())
            );
            let _ = writeln!(out, "      \"device_bytes\": {},", stats.device_bytes());
            let _ = writeln!(
                out,
                "      \"achieved_bandwidth\": {},",
                json::number(stats.achieved_bandwidth())
            );
            let roof = if self.mem_bandwidth > 0.0 {
                stats.achieved_bandwidth() / self.mem_bandwidth
            } else {
                0.0
            };
            let _ = writeln!(out, "      \"roofline_fraction\": {},", json::number(roof));
            let _ = writeln!(out, "      \"blocks\": {},", stats.shape.blocks);
            let _ =
                writeln!(out, "      \"threads_per_block\": {},", stats.shape.threads_per_block);
            let _ = writeln!(
                out,
                "      \"shared_bytes_per_block\": {},",
                stats.shape.shared_bytes_per_block
            );
            let occ = match stats.occupancy {
                Some(o) => json::number(o),
                None => "null".to_string(),
            };
            let _ = writeln!(out, "      \"occupancy\": {occ},");
            let _ = writeln!(out, "      \"bottleneck\": {}", json::string(stats.bottleneck));
            let _ = writeln!(out, "    }}{}", if i + 1 < self.kernels.len() { "," } else { "" });
        }
        out.push_str("  },\n");
        for (name, dir) in [
            ("h2d", &self.h2d),
            ("d2h", &self.d2h),
            ("exchange_out", &self.exchange_out),
            ("exchange_in", &self.exchange_in),
        ] {
            let _ = writeln!(
                out,
                "  \"{name}\": {{ \"transfers\": {}, \"bytes\": {}, \"pageable_bytes\": {}, \
                 \"seconds\": {} }},",
                dir.transfers,
                dir.bytes,
                dir.pageable_bytes,
                json::number(dir.seconds),
            );
        }
        let cc = &self.cache;
        let _ = writeln!(
            out,
            "  \"cache\": {{ \"hits\": {}, \"misses\": {}, \"evictions\": {}, \"reclaims\": {}, \
             \"invalidations\": {}, \"reclaimed_bytes\": {}, \"hit_rate\": {} }},",
            cc.hits,
            cc.misses,
            cc.evictions,
            cc.reclaims,
            cc.invalidations,
            cc.reclaimed_bytes,
            json::number(cc.hit_rate()),
        );
        let roll = self.rollup();
        let _ = writeln!(
            out,
            "  \"totals\": {{ \"kernel_launches\": {}, \"transfers\": {}, \"device_bytes\": {}, \
             \"h2d_bytes\": {}, \"d2h_bytes\": {}, \"exchange_out_bytes\": {}, \
             \"exchange_in_bytes\": {}, \"issued_transactions\": {}, \
             \"minimum_transactions\": {}, \"coalescing_efficiency\": {} }}",
            roll.kernel_launches,
            roll.transfers,
            roll.device_bytes,
            roll.h2d_bytes,
            roll.d2h_bytes,
            roll.exchange_out_bytes,
            roll.exchange_in_bytes,
            roll.issued_transactions,
            roll.minimum_transactions,
            json::number(roll.coalescing_efficiency()),
        );
        out.push_str("}\n");
        out
    }

    /// Counter tracks for Chrome tracing, resolved against the solved
    /// `schedule`: per-direction achieved bandwidth (GB/s) while each
    /// recorded op runs, plus kernel occupancy. Merge into a schedule
    /// trace with `TraceExporter::to_json_with_counters`.
    pub fn counter_timeline(&self, schedule: &Schedule) -> Timeline {
        let mut points: [Vec<(hcj_sim::SimTime, f64)>; 6] = std::array::from_fn(|_| Vec::new());
        for sample in &self.samples {
            let (start, end) = (schedule.start(sample.op), schedule.finish(sample.op));
            if end <= start {
                continue;
            }
            let secs = (end - start).as_secs_f64();
            let gbps = sample.bytes as f64 / secs / 1e9;
            let series = match sample.class {
                LaunchClass::Kernel => 0,
                LaunchClass::H2D => 1,
                LaunchClass::D2H => 2,
                LaunchClass::ExchangeOut => 4,
                LaunchClass::ExchangeIn => 5,
            };
            points[series].push((start, gbps));
            points[series].push((end, 0.0));
            if sample.class == LaunchClass::Kernel {
                if let Some(occ) = sample.occupancy {
                    points[3].push((start, occ));
                    points[3].push((end, 0.0));
                }
            }
        }
        let mut timeline = Timeline::new("hcj-counters");
        let names = [
            "device-mem GB/s",
            "h2d GB/s",
            "d2h GB/s",
            "occupancy",
            "xchg-out GB/s",
            "xchg-in GB/s",
        ];
        for (name, mut series) in names.into_iter().zip(points) {
            if series.is_empty() {
                continue;
            }
            // At a shared boundary the closing 0-sample sorts before the
            // opening rate so the counter never dips spuriously.
            series.sort_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).expect("finite samples"));
            let id = timeline.counter(name);
            for (at, value) in series {
                timeline.sample(id, at, value);
            }
        }
        timeline
    }
}

/// Strip digit runs so per-chunk/per-pass launches of one kernel aggregate
/// under one label, and drop any ` [retry n]` suffix so retried launches
/// count with their original kernel.
fn normalize_label(label: &str) -> String {
    let base = label.split(" [").next().unwrap_or(label);
    let mut out = String::with_capacity(base.len());
    for c in base.chars() {
        if !c.is_ascii_digit() {
            out.push(c);
        }
    }
    out.trim_end().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DeviceSpec {
        DeviceSpec::gtx1080()
    }

    fn coalesced_stats(bytes: u64) -> KernelStats {
        let mut set = CounterSet::for_device(&spec());
        set.record_kernel(
            None,
            "scan",
            &KernelCost::coalesced(bytes),
            LaunchShape::UNSHAPED,
            1.0,
            &spec(),
        );
        set.kernel("scan").unwrap().clone()
    }

    #[test]
    fn pure_coalesced_kernel_has_unit_efficiency() {
        let stats = coalesced_stats(1 << 20);
        assert_eq!(stats.coalescing_efficiency(), 1.0);
        assert_eq!(stats.issued_transactions(), (1 << 20) / SECTOR_BYTES);
        assert_eq!(stats.device_bytes(), 1 << 20);
    }

    #[test]
    fn random_traffic_pulls_efficiency_toward_the_payload_ratio() {
        let mut set = CounterSet::for_device(&spec());
        let mut cost = KernelCost::ZERO;
        cost.add_random(1_000_000);
        set.record_kernel(None, "probe", &cost, LaunchShape::UNSHAPED, 1.0, &spec());
        let stats = set.kernel("probe").unwrap();
        let eff = stats.coalescing_efficiency();
        let expect = RANDOM_USEFUL_BYTES as f64 / SECTOR_BYTES as f64;
        assert!((eff - expect).abs() < 1e-9, "eff={eff}");
    }

    #[test]
    fn efficiency_always_in_unit_interval() {
        // Sweep mixes of coalesced and random traffic; every combination
        // must land in (0, 1].
        for coal in [0u64, 1, 31, 32, 33, 1 << 20] {
            for rand in [0u64, 1, 7, 1_000_003] {
                let mut set = CounterSet::for_device(&spec());
                let mut cost = KernelCost::coalesced(coal);
                cost.add_random(rand);
                cost.add_l2(rand / 2);
                set.record_kernel(None, "k", &cost, LaunchShape::UNSHAPED, 0.5, &spec());
                let eff = set.kernel("k").unwrap().coalescing_efficiency();
                assert!(eff > 0.0 && eff <= 1.0, "coal={coal} rand={rand} eff={eff}");
            }
        }
    }

    #[test]
    fn occupancy_is_clamped_and_thread_limited() {
        let s = spec(); // 20 SMs, 1024 max threads/block
        let full = LaunchShape { blocks: 40, threads_per_block: 512, shared_bytes_per_block: 0 };
        // 512-thread blocks co-reside 2/SM → capacity 40 → exactly full.
        assert_eq!(full.occupancy(&s), Some(1.0));
        let tiny = LaunchShape { blocks: 1, threads_per_block: 512, ..full };
        assert_eq!(tiny.occupancy(&s), Some(1.0 / 40.0));
        let over = LaunchShape { blocks: 10_000, threads_per_block: 1024, ..full };
        assert_eq!(over.occupancy(&s), Some(1.0), "occupancy must clamp at 1");
        assert_eq!(LaunchShape::UNSHAPED.occupancy(&s), None);
        for blocks in [1u64, 3, 19, 20, 21, 1000] {
            let shape = LaunchShape { blocks, threads_per_block: 1024, shared_bytes_per_block: 0 };
            let occ = shape.occupancy(&s).unwrap();
            assert!(occ > 0.0 && occ <= 1.0, "blocks={blocks} occ={occ}");
        }
    }

    #[test]
    fn transfers_conserve_bytes_per_direction() {
        let mut set = CounterSet::for_device(&spec());
        set.record_transfer(None, true, 1000, false, 1e-6);
        set.record_transfer(None, true, 500, true, 1e-6);
        set.record_transfer(None, false, 250, false, 1e-6);
        assert_eq!(set.h2d.transfers, 2);
        assert_eq!(set.h2d.bytes, 1500);
        assert_eq!(set.h2d.pageable_bytes, 500);
        assert_eq!(set.d2h.bytes, 250);
        let roll = set.rollup();
        assert_eq!(roll.h2d_bytes, 1500);
        assert_eq!(roll.d2h_bytes, 250);
        assert_eq!(roll.transfers, 3);
    }

    #[test]
    fn labels_normalize_and_aggregate() {
        let mut set = CounterSet::for_device(&spec());
        for i in 0..3 {
            set.record_kernel(
                None,
                &format!("join chunk{i}"),
                &KernelCost::coalesced(100),
                LaunchShape::UNSHAPED,
                0.1,
                &spec(),
            );
        }
        set.record_kernel(
            None,
            "join chunk1 [retry 1]",
            &KernelCost::coalesced(100),
            LaunchShape::UNSHAPED,
            0.1,
            &spec(),
        );
        assert_eq!(set.kernels().len(), 1);
        let stats = set.kernel("join chunk").unwrap();
        assert_eq!(stats.launches, 4);
        assert_eq!(stats.cost.coalesced_bytes, 400);
    }

    #[test]
    fn warp_ops_round_up() {
        let mut set = CounterSet::for_device(&spec());
        let mut cost = KernelCost::ZERO;
        cost.add_instructions(33);
        set.record_kernel(None, "k", &cost, LaunchShape::UNSHAPED, 0.0, &spec());
        assert_eq!(set.kernel("k").unwrap().warp_ops(), 2);
    }

    #[test]
    fn rollup_absorb_accumulates() {
        let mut a = CounterRollup {
            kernel_launches: 1,
            transfers: 2,
            device_bytes: 10,
            h2d_bytes: 5,
            d2h_bytes: 1,
            issued_transactions: 8,
            minimum_transactions: 4,
            exchange_transfers: 3,
            exchange_out_bytes: 7,
            exchange_in_bytes: 9,
            cache: CacheCounters { hits: 3, misses: 1, ..CacheCounters::default() },
        };
        a.absorb(&a.clone());
        assert_eq!(a.kernel_launches, 2);
        assert_eq!(a.device_bytes, 20);
        assert_eq!(a.exchange_transfers, 6);
        assert_eq!(a.exchange_out_bytes, 14);
        assert_eq!(a.exchange_in_bytes, 18);
        assert_eq!(a.cache.hits, 6);
        assert_eq!(a.cache.misses, 2);
        assert_eq!(a.coalescing_efficiency(), 0.5);
        assert_eq!(CounterRollup::default().coalescing_efficiency(), 1.0);
    }

    #[test]
    fn cache_counters_absorb_and_render() {
        let mut set = CounterSet::for_device(&spec());
        set.cache =
            CacheCounters { hits: 5, misses: 3, evictions: 2, reclaims: 1, ..Default::default() };
        set.cache.reclaimed_bytes = 4096;
        set.cache.invalidations = 1;
        assert!((set.cache.hit_rate() - 5.0 / 8.0).abs() < 1e-12);
        assert!(!set.cache.is_empty());
        assert!(CacheCounters::default().is_empty());
        assert_eq!(CacheCounters::default().hit_rate(), 0.0);
        let roll = set.rollup();
        assert_eq!(roll.cache.hits, 5);
        let table = set.render_table();
        assert!(table.contains("cache: 5 hit(s), 3 miss(es), 2 eviction(s), 1 reclaim(s)"));
        let json = set.to_json();
        assert!(json.contains("\"cache\": { \"hits\": 5, \"misses\": 3"));
        let mut other = CounterSet::for_device(&spec());
        other.absorb(&set);
        assert_eq!(other.cache.hits, 5);
        assert_eq!(other.cache.reclaimed_bytes, 4096);
    }

    #[test]
    fn json_and_table_are_deterministic_and_sorted() {
        let build = |n: u64| {
            let mut set = CounterSet::for_device(&spec());
            let mut cost = KernelCost::coalesced(n);
            cost.add_random(n / 8);
            set.record_kernel(
                None,
                "part r pass0",
                &cost,
                LaunchShape { blocks: 64, threads_per_block: 1024, shared_bytes_per_block: 16384 },
                0.002,
                &spec(),
            );
            set.record_kernel(None, "join", &cost, LaunchShape::UNSHAPED, 0.001, &spec());
            set.record_transfer(None, true, n, false, n as f64 / 12e9);
            set
        };
        let (a, b) = (build(1 << 20), build(1 << 20));
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.render_table(), b.render_table());
        let json = a.to_json();
        assert!(json.find("\"join\"").unwrap() < json.find("\"part r pass\"").unwrap());
        assert!(json.contains("\"occupancy\": null"));
        assert!(json.contains("\"totals\""));
        let table = a.render_table();
        assert!(table.contains("bottleneck"));
        assert!(table.contains("h2d: 1 transfer(s)"));
    }

    #[test]
    fn exchange_counters_accumulate_and_render_conditionally() {
        let mut set = CounterSet::for_device(&spec());
        // No exchange recorded: no exchange lines, so single-device
        // profiles stay byte-identical to their goldens.
        assert!(!set.render_table().contains("exchange"));
        set.record_exchange(None, true, 4096, 1e-6);
        set.record_exchange(None, true, 4096, 1e-6);
        set.record_exchange(None, false, 1024, 1e-6);
        assert!(!set.is_empty());
        assert_eq!(set.exchange_out.transfers, 2);
        assert_eq!(set.exchange_out.bytes, 8192);
        assert_eq!(set.exchange_in.bytes, 1024);
        let roll = set.rollup();
        assert_eq!(roll.exchange_transfers, 3);
        assert_eq!(roll.exchange_out_bytes, 8192);
        assert_eq!(roll.exchange_in_bytes, 1024);
        let table = set.render_table();
        assert!(table.contains("exchange-out: 2 transfer(s), 8192 B"));
        assert!(table.contains("exchange-in: 1 transfer(s), 1024 B"));
        let json = set.to_json();
        assert!(json.contains("\"exchange_out\": { \"transfers\": 2, \"bytes\": 8192"));
        assert!(json.contains("\"exchange_out_bytes\": 8192"));
        let mut other = CounterSet::for_device(&spec());
        other.absorb(&set);
        assert_eq!(other.exchange_out.bytes, 8192);
        assert_eq!(other.exchange_in.transfers, 1);
    }

    #[test]
    fn absorb_merges_kernels_and_transfers() {
        let mut a = CounterSet::for_device(&spec());
        a.record_kernel(
            None,
            "join",
            &KernelCost::coalesced(64),
            LaunchShape::UNSHAPED,
            0.1,
            &spec(),
        );
        let mut b = CounterSet::for_device(&spec());
        b.record_kernel(
            None,
            "join",
            &KernelCost::coalesced(64),
            LaunchShape::UNSHAPED,
            0.1,
            &spec(),
        );
        b.record_transfer(None, false, 99, true, 1e-6);
        a.absorb(&b);
        assert_eq!(a.kernel("join").unwrap().launches, 2);
        assert_eq!(a.kernel("join").unwrap().cost.coalesced_bytes, 128);
        assert_eq!(a.d2h.pageable_bytes, 99);
        assert_eq!(a.kernel_totals().launches, 2);
    }
}
