//! Integration soak of the device-resident build-side cache: skewed
//! serving traffic against the multi-tenant join service with the cache
//! on. Covers the acceptance properties end to end — every result
//! oracle-correct, hits with strictly fewer transfers than the uncached
//! baseline of the *same* stream, a hand-computed eviction trace, version
//! bumps invalidating stale tables, reservations never exceeding
//! capacity, and byte-identical summaries across `--jobs` and under an
//! armed-but-zeroed fault layer.

use hashjoin_gpu::prelude::*;

/// The serve-binary regime: the paper's GTX 1080 scaled to 512 KB so a
/// handful of requests contend, buckets tuned for the largest build side.
fn soak_service(cache: bool) -> JoinService {
    let device = DeviceSpec::gtx1080().scaled_capacity(1 << 14);
    let engine = HcjEngine::new(
        GpuJoinConfig::paper_default(device).with_radix_bits(8).with_tuned_buckets(4_000),
    );
    let cache_config = cache.then(BuildCacheConfig::default);
    JoinService::new(engine, ServiceConfig::default().with_cache(cache_config))
}

/// The skewed-popularity stream the cache exists for: 8 clients x 25
/// requests over a 12-relation catalog, Zipf 1.0, a content update every
/// 40 draws (`serve --quick --cache --popularity-skew 1.0`).
fn skewed() -> Vec<ClientSpec> {
    skewed_workload(8, 25, 1_000, 12, 1.0, 40, 7)
}

#[test]
fn skewed_soak_hits_evicts_and_stays_correct() {
    let workload = skewed();
    let total: usize = workload.iter().map(|c| c.requests.len()).sum();
    let report = soak_service(true).run(&workload);
    let summary = report.summary();
    assert_eq!(report.completed(), total, "every request completes:\n{summary}");
    assert_eq!(report.checks_passed(), total, "every oracle check passes:\n{summary}");
    let cache = report.cache.expect("cache was enabled");
    assert!(cache.counters.hits > 0, "skew must produce reuse:\n{summary}");
    assert!(cache.counters.misses > 0);
    assert!(
        cache.counters.evictions + cache.counters.reclaims > 0,
        "a 512 KB device must pressure the cache:\n{summary}"
    );
    assert!(cache.counters.invalidations > 0, "version bumps must invalidate:\n{summary}");
    assert!(cache.peak_bytes > 0);
    // Admission control covers cached bytes: reservations (tenants plus
    // resident cache entries) never exceed capacity, and nothing leaks.
    assert!(report.device_peak <= report.device_capacity, "{summary}");
    assert_eq!(report.device_used_at_end, 0, "cache must release its reservations:\n{summary}");
    assert!(report.invariant_violations.is_empty(), "{:?}", report.invariant_violations);
    // Hit accounting is coherent between the per-request rollups and the
    // service-level cache counters.
    let rollup_hits: u64 = report.requests.iter().map(|m| m.counters.cache.hits).sum();
    assert_eq!(rollup_hits, cache.counters.hits, "{summary}");
    let hit_requests =
        report.requests.iter().filter(|m| m.cache_role == CacheRole::Hit).count() as u64;
    assert_eq!(hit_requests, cache.counters.hits);
}

#[test]
fn cache_strictly_reduces_transfers_on_the_same_stream() {
    let workload = skewed();
    let uncached = soak_service(false).run(&workload);
    let cached = soak_service(true).run(&workload);
    let (u, c) = (uncached.counters_total(), cached.counters_total());
    let hits = cached.cache.expect("cache on").counters.hits;
    assert!(hits > 0, "no reuse, nothing to compare");
    assert!(uncached.cache.is_none(), "cache off reports no cache");
    // Every request stages its inputs from the host; a hit skips the
    // build side entirely, so the cached run moves strictly fewer bytes
    // over PCIe and issues strictly less device-memory traffic.
    assert!(c.h2d_bytes < u.h2d_bytes, "h2d: {} !< {}", c.h2d_bytes, u.h2d_bytes);
    assert!(c.transfers < u.transfers, "transfers: {} !< {}", c.transfers, u.transfers);
    assert!(c.device_bytes < u.device_bytes, "device: {} !< {}", c.device_bytes, u.device_bytes);
    assert!(c.kernel_launches < u.kernel_launches, "hits skip the build/partition kernels");
    // Both runs compute identical joins.
    assert_eq!(uncached.checks_passed(), cached.checks_passed());
}

/// One client, equal-size relations A, B, C and a budget of exactly two
/// tables: the closed-loop sequence A B A C B A A' must produce the
/// hand-computed GreedyDual/LRU trace (equal costs degrade GDS to LRU):
///
/// | # | req | result            | cache after |
/// |---|-----|-------------------|-------------|
/// | 1 | A   | miss, install     | A           |
/// | 2 | B   | miss, install     | A B         |
/// | 3 | A   | hit (A touched)   | A B         |
/// | 4 | C   | miss, evict B     | A C         |
/// | 5 | B   | miss, evict A     | C B         |
/// | 6 | A   | miss, evict C     | B A         |
/// | 7 | A'  | stale: invalidate A, install A' | B A' |
#[test]
fn eviction_sequence_matches_hand_computed_trace() {
    let a = CatalogRelation { id: 0, version: 0, base_tuples: 2_000, payload_width: 4, seed: 101 };
    let b = CatalogRelation { id: 1, version: 0, base_tuples: 2_000, payload_width: 4, seed: 202 };
    let c = CatalogRelation { id: 2, version: 0, base_tuples: 2_000, payload_width: 4, seed: 303 };
    let a2 = CatalogRelation { version: 1, ..a }; // content update of A
    let request = |rel: &CatalogRelation, probe_seed: u64| RequestSpec {
        r: rel.spec(),
        s: RelationSpec {
            tuples: rel.tuples() * 2,
            distribution: KeyDistribution::UniformFk { distinct: rel.tuples() as u64 },
            payload_width: 4,
            seed: probe_seed,
        },
        build: Some(rel.build_ref()),
    };

    // A roomy device (128 MB) so admission never pressures the cache;
    // the policy budget alone drives evictions. Size it to two tables by
    // measuring a real build.
    let device = DeviceSpec::gtx1080().scaled_capacity(1 << 6);
    let config = GpuJoinConfig::paper_default(device).with_radix_bits(8).with_tuned_buckets(2_000);
    let (_, measured) = CachedBuildJoin::new(config.clone())
        .execute_cold(&a.spec().generate(), &request(&a, 9).s.generate())
        .expect("fits easily");
    let table_bytes = measured.table_bytes;
    assert!(table_bytes > 0);

    let cache_config = BuildCacheConfig { max_bytes: Some(table_bytes * 5 / 2) };
    let service = JoinService::new(
        HcjEngine::new(config),
        ServiceConfig::default().with_cache(Some(cache_config)),
    );
    let workload = vec![ClientSpec {
        requests: vec![
            request(&a, 11).into(),
            request(&b, 12).into(),
            request(&a, 13).into(),
            request(&c, 14).into(),
            request(&b, 15).into(),
            request(&a, 16).into(),
            request(&a2, 17).into(),
        ],
    }];
    let report = service.run(&workload);
    let summary = report.summary();
    assert_eq!(report.completed(), 7, "{summary}");
    assert_eq!(report.checks_passed(), 7, "stale reuse would fail the oracle:\n{summary}");
    let roles: Vec<CacheRole> = report.requests.iter().map(|m| m.cache_role).collect();
    assert_eq!(
        roles,
        vec![
            CacheRole::Install, // 1: A cold
            CacheRole::Install, // 2: B cold
            CacheRole::Hit,     // 3: A reused
            CacheRole::Install, // 4: C cold (evicts B)
            CacheRole::Install, // 5: B cold (evicts A)
            CacheRole::Install, // 6: A cold (evicts C)
            CacheRole::Install, // 7: A' invalidates stale A, installs
        ],
        "{summary}"
    );
    let cache = report.cache.expect("cache on");
    assert_eq!(cache.counters.hits, 1, "{summary}");
    assert_eq!(cache.counters.misses, 6, "{summary}");
    assert_eq!(cache.counters.evictions, 3, "{summary}");
    assert_eq!(cache.counters.invalidations, 1, "{summary}");
    assert_eq!(cache.counters.reclaims, 0, "no admission pressure on a 128 MB device");
    assert_eq!(cache.entries_at_end, 2, "B and A' resident at the end");
    assert!(report.invariant_violations.is_empty(), "{:?}", report.invariant_violations);
}

#[test]
fn cached_summaries_are_byte_identical_across_jobs() {
    let workload = skewed();
    let mut summaries: Vec<String> = Vec::new();
    for jobs in [1usize, 2, 2, 4] {
        hashjoin_gpu::host::pool::set_jobs(jobs);
        summaries.push(soak_service(true).run(&workload).summary());
    }
    hashjoin_gpu::host::pool::set_jobs(1);
    assert_eq!(summaries[1], summaries[2], "same seed, same jobs: identical");
    assert_eq!(summaries[0], summaries[1], "jobs 1 vs 2: identical");
    assert_eq!(summaries[0], summaries[3], "jobs 1 vs 4: identical");
}

#[test]
fn armed_but_zeroed_fault_layer_changes_nothing_cached() {
    let workload = skewed();
    let base = soak_service(true).run(&workload).summary();
    let device = DeviceSpec::gtx1080().scaled_capacity(1 << 14);
    let engine = HcjEngine::new(
        GpuJoinConfig::paper_default(device)
            .with_radix_bits(8)
            .with_tuned_buckets(4_000)
            .with_faults(FaultConfig::disabled(0)),
    );
    let armed = JoinService::new(
        engine,
        ServiceConfig::default().with_cache(Some(BuildCacheConfig::default())),
    )
    .run(&workload)
    .summary();
    assert_eq!(base, armed, "chaos seed 0 must be a no-op with the cache on");
}

#[test]
fn chaos_run_with_cache_stays_accounted_and_leak_free() {
    let workload = skewed();
    let device = DeviceSpec::gtx1080().scaled_capacity(1 << 14);
    let engine = HcjEngine::new(
        GpuJoinConfig::paper_default(device)
            .with_radix_bits(8)
            .with_tuned_buckets(4_000)
            .with_faults(FaultConfig::chaos(23)),
    );
    let report = JoinService::new(
        engine,
        ServiceConfig::default().with_cache(Some(BuildCacheConfig::default())),
    )
    .run(&workload);
    let total: usize = workload.iter().map(|c| c.requests.len()).sum();
    let summary = report.summary();
    // Under chaos (including co-tenant capacity shrinks squeezing the
    // cache) every request still resolves typed, every finished result is
    // oracle-correct, and no reservation — cached or not — leaks.
    let accounted = report.completed() + report.deadline_exceeded() + report.errored();
    assert_eq!(accounted, total, "{summary}");
    assert_eq!(report.checks_passed(), report.completed(), "{summary}");
    assert!(report.device_peak <= report.device_capacity, "{summary}");
    assert_eq!(report.device_used_at_end, 0, "{summary}");
    assert!(report.invariant_violations.is_empty(), "{:?}", report.invariant_violations);
}

#[test]
fn cache_is_inert_for_anonymous_build_sides() {
    // The legacy mixed workload names no build relations: with the cache
    // on it must count nothing and cache nothing — and the summary must
    // differ from the uncached run only by the (all-zero) cache lines.
    let workload = mixed_workload(4, 3, 1_000, 7);
    let cached = soak_service(true).run(&workload);
    let uncached = soak_service(false).run(&workload);
    let cache = cached.cache.expect("cache on");
    assert!(cache.counters.is_empty(), "no named builds, no cache events: {:?}", cache.counters);
    assert_eq!(cache.peak_bytes, 0);
    assert_eq!(cache.entries_at_end, 0);
    let stripped: String = cached
        .summary()
        .lines()
        .filter(|l| !l.starts_with("cache "))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(stripped, uncached.summary(), "cache off == cache on minus cache lines");
}

#[test]
fn hit_too_big_to_admit_beside_its_table_runs_as_a_miss() {
    // Regression: a cache hit reserves only its probe-side footprint and
    // protects its own table from the reclaim that makes room. When the
    // two together exceed the device, the hit could never admit, and
    // degrading its rung did not shrink a hit's estimate: the request
    // retried until its deadline (16 retries, then deadline-exceeded).
    // Such a hit now runs as a miss at its rung.
    let device = DeviceSpec::gtx1080().scaled_capacity(1 << 14); // 512 KB
    let engine = HcjEngine::new(
        GpuJoinConfig::paper_default(device).with_radix_bits(8).with_tuned_buckets(8_000),
    );
    let config = ServiceConfig::default()
        .with_cache(Some(BuildCacheConfig::default()))
        .with_deadline(Some(hashjoin_gpu::sim::SimTime::from_nanos(10_000_000)));
    let catalog = BuildCatalog::dimension_tables(1, 4_000, 5);
    let table = catalog.get(0);
    assert_eq!(table.tuples(), 8_000);
    let request = |probe_factor: usize, seed: u64| -> QuerySpec {
        let s = RelationSpec {
            tuples: table.tuples() * probe_factor,
            distribution: KeyDistribution::UniformFk { distinct: table.tuples() as u64 },
            payload_width: table.payload_width,
            seed,
        };
        RequestSpec { r: table.spec(), s, build: Some(table.build_ref()) }.into()
    };
    // One client: the 1x probe installs the table, then the 5x probe
    // finds it resident but cannot fit beside it (a hit reserves its
    // probe's modeled pool, 1.3 x 320,000 B, beside the 133,120 B table).
    let workload = vec![ClientSpec { requests: vec![request(1, 11), request(5, 12)] }];
    let report = JoinService::new(engine, config).run(&workload);
    let summary = report.summary();
    assert_eq!(report.completed(), 2, "both requests complete:\n{summary}");
    assert_eq!(report.checks_passed(), 2, "{summary}");
    assert_eq!(report.deadline_exceeded(), 0, "{summary}");
    let second = &report.requests[1];
    assert_eq!(second.cache_role, CacheRole::Install, "the unadmittable hit ran as a miss");
    assert_eq!(second.retries, 0, "{summary}");
    assert_eq!(report.device_used_at_end, 0, "{summary}");
}
