//! Golden schedules of every GPU strategy in `hcj-core`: the resident
//! partitioned join, the streamed probe (aggregated and materialized),
//! co-processing (both output modes) and the cold, hot and staged paths of
//! the build-side cache. Each run is pinned by one FNV-64 digest over its
//! span list (label, class, resource, start, end), its fault log and its
//! counters JSON, so a change to any op's label, issue order, duration or
//! stream dependencies shows up here. Every strategy runs once without
//! faults and once under a chaos seed that injects at least one transient
//! fault and its retry, which pins the recovery path's spans too.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! cargo test -p hashjoin-gpu --test strategy_golden -- --ignored rewrite
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use hashjoin_gpu::prelude::*;
use hashjoin_gpu::sim::baseline::fnv64_hex;

/// One strategy run: the outcome with the given fault plan (or none).
type Run = fn(Option<FaultConfig>) -> Result<JoinOutcome, JoinError>;

/// `(golden name, chaos seed, run)`. Each seed is one under which the run
/// completes after at least one transient fault and one retry.
const CASES: &[(&str, u64, Run)] = &[
    ("resident", 16, resident),
    ("resident_mat", 36, resident_mat),
    ("streamed_agg", 3, streamed_agg),
    ("streamed_mat", 1, streamed_mat),
    ("coproc_agg", 16, coproc_agg),
    ("coproc_mat", 30, coproc_mat),
    ("cached_cold", 16, cached_cold),
    ("cached_hot", 65, cached_hot),
    ("cached_staged", 16, cached_staged),
];

fn config(
    device: DeviceSpec,
    bits: u32,
    tuples: usize,
    faults: Option<FaultConfig>,
) -> GpuJoinConfig {
    let cfg = GpuJoinConfig::paper_default(device).with_radix_bits(bits).with_tuned_buckets(tuples);
    match faults {
        Some(f) => cfg.with_faults(f),
        None => cfg,
    }
}

fn gtx(bits: u32, tuples: usize, faults: Option<FaultConfig>) -> GpuJoinConfig {
    config(DeviceSpec::gtx1080(), bits, tuples, faults)
}

/// An 8 MB device: the co-processing runs below need several working sets.
fn coproc_config(tuples: usize, faults: Option<FaultConfig>) -> CoProcessingConfig {
    let device = DeviceSpec::gtx1080().scaled_capacity(1 << 10);
    CoProcessingConfig::paper_default(config(device, 12, tuples / 16, faults))
}

fn resident(faults: Option<FaultConfig>) -> Result<JoinOutcome, JoinError> {
    let (r, s) = canonical_pair(8_192, 32_768, 71);
    GpuPartitionedJoin::new(gtx(8, 8_192, faults)).execute(&r, &s)
}

fn resident_mat(faults: Option<FaultConfig>) -> Result<JoinOutcome, JoinError> {
    let (r, s) = canonical_pair(4_096, 8_192, 72);
    GpuPartitionedJoin::new(gtx(6, 4_096, faults).with_output(OutputMode::Materialize))
        .execute(&r, &s)
}

fn streamed_agg(faults: Option<FaultConfig>) -> Result<JoinOutcome, JoinError> {
    let (r, s) = canonical_pair(8_192, 65_536, 73);
    StreamedProbeJoin::new(StreamedProbeConfig::paper_default(gtx(8, 8_192, faults)))
        .execute(&r, &s)
}

fn streamed_mat(faults: Option<FaultConfig>) -> Result<JoinOutcome, JoinError> {
    let (r, s) = canonical_pair(4_096, 16_384, 74);
    let mut cfg = StreamedProbeConfig::paper_default(
        gtx(6, 4_096, faults).with_output(OutputMode::Materialize),
    );
    cfg.chunk_tuples = Some(2_048);
    StreamedProbeJoin::new(cfg).execute(&r, &s)
}

fn coproc_agg(faults: Option<FaultConfig>) -> Result<JoinOutcome, JoinError> {
    let (r, s) = canonical_pair(30_000, 60_000, 75);
    CoProcessingJoin::new(coproc_config(30_000, faults)).execute(&r, &s)
}

fn coproc_mat(faults: Option<FaultConfig>) -> Result<JoinOutcome, JoinError> {
    let (r, s) = canonical_pair(30_000, 60_000, 76);
    let mut cfg = coproc_config(30_000, faults);
    cfg.join = cfg.join.with_output(OutputMode::Materialize);
    CoProcessingJoin::new(cfg).execute(&r, &s)
}

fn cached_cold(faults: Option<FaultConfig>) -> Result<JoinOutcome, JoinError> {
    let (r, s) = canonical_pair(8_192, 24_576, 77);
    CachedBuildJoin::new(gtx(8, 8_192, faults)).execute_cold(&r, &s).map(|(outcome, _)| outcome)
}

/// The table comes from an unfaulted cold run; only the hot probe runs
/// under the fault plan.
fn cached_hot(faults: Option<FaultConfig>) -> Result<JoinOutcome, JoinError> {
    let (r, s) = canonical_pair(8_192, 24_576, 78);
    let (_, cached) = CachedBuildJoin::new(gtx(8, 8_192, None)).execute_cold(&r, &s)?;
    CachedBuildJoin::new(gtx(8, 8_192, faults)).execute_hot(&cached, &s)
}

fn cached_staged(faults: Option<FaultConfig>) -> Result<JoinOutcome, JoinError> {
    let (r, s) = canonical_pair(8_192, 24_576, 79);
    CachedBuildJoin::new(gtx(8, 8_192, faults))
        .execute_staged(&r, &s, true, true)
        .map(|(outcome, _)| outcome)
}

/// FNV-64 over the run's spans, fault log and counters JSON.
fn digest(outcome: &JoinOutcome) -> String {
    let mut text = String::new();
    for sp in outcome.schedule.spans() {
        let _ = writeln!(
            text,
            "{}\t{}\t{:?}\t{}\t{}",
            sp.label,
            sp.class,
            sp.resource,
            sp.start.as_nanos(),
            sp.end.as_nanos()
        );
    }
    for event in &outcome.faults.events {
        let _ = writeln!(
            text,
            "{:?}\t{}\t{}\t{}",
            event.at.map(|t| t.as_nanos()),
            event.site,
            event.kind,
            event.label
        );
    }
    text.push_str(&outcome.counters.to_json());
    fnv64_hex(&text)
}

/// Every golden line, clean run then chaos run per case. Panics when a
/// chaos run fails or stops exercising a retry: its seed no longer pins
/// the recovery path.
fn lines() -> String {
    let mut out = String::new();
    for &(name, seed, run) in CASES {
        let clean = run(None).unwrap_or_else(|e| panic!("{name}: clean run failed: {e}"));
        assert!(clean.faults.is_empty(), "{name}: a run without a fault plan logs no faults");
        let _ = writeln!(out, "{name} clean {}", digest(&clean));
        let chaos = run(Some(FaultConfig::chaos(seed)))
            .unwrap_or_else(|e| panic!("{name}: chaos {seed} run failed: {e}"));
        let faults = chaos.faults.summary();
        assert!(
            faults.transfer_faults + faults.kernel_faults > 0 && faults.retries > 0,
            "{name}: chaos {seed} must inject a transient fault and retry it: {faults:?}"
        );
        assert!(!faults.device_lost, "{name}: chaos {seed} must not lose the device");
        let _ = writeln!(out, "{name} chaos-{seed} {}", digest(&chaos));
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/strategy_schedules.txt"))
}

#[test]
fn strategy_schedules_match_the_golden() {
    let path = golden_path();
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    let got = lines();
    let drifted: Vec<String> = got
        .lines()
        .zip(want.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("got {g:?}, golden {w:?}"))
        .collect();
    assert!(
        drifted.is_empty() && got.lines().count() == want.lines().count(),
        "strategy schedules drifted from {}:\n  {}\nif intentional, regenerate with:\n  cargo test \
         -p hashjoin-gpu --test strategy_golden -- --ignored rewrite",
        path.display(),
        drifted.join("\n  ")
    );
}

/// Not a test: rewrites the golden in place (`-- --ignored rewrite`).
#[test]
#[ignore = "golden rewriter, run explicitly"]
fn rewrite() {
    std::fs::write(golden_path(), lines()).unwrap();
    eprintln!("rewrote {}", golden_path().display());
}
