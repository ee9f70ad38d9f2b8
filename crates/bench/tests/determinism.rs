//! The worker count may only change wall-clock time — never a match
//! count, a simulated schedule, or a rendered byte. These tests pin that
//! guarantee by running representative work at `--jobs 1` and `--jobs 4`
//! and comparing everything observable.

use std::collections::HashMap;
use std::sync::Mutex;

use hcj_bench::figures::common::{resident_config, run_resident};
use hcj_bench::figures::{fig05, fig13};
use hcj_bench::RunConfig;
use hcj_cpu_join::{NpoJoin, ProJoin};
use hcj_host::pool;
use hcj_workload::generate::canonical_pair;
use hcj_workload::oracle::JoinCheck;
use hcj_workload::RelationSpec;

/// `pool::set_jobs` is process-global; tests in this binary serialize
/// their mutations so a parallel test run cannot interleave them.
static JOBS_LOCK: Mutex<()> = Mutex::new(());

fn with_jobs<R>(jobs: usize, f: impl FnOnce() -> R) -> R {
    let _guard = JOBS_LOCK.lock().unwrap();
    let prev = pool::jobs();
    pool::set_jobs(jobs);
    let result = f();
    pool::set_jobs(prev);
    result
}

fn cfg() -> RunConfig {
    RunConfig { scale: 64, quick: true, out_dir: None, trace_dir: None, profile: false }
}

/// An in-GPU figure (kernel-level parallelism: partitioning + probe).
#[test]
fn in_gpu_figure_renders_identically_across_jobs() {
    let serial = with_jobs(1, || fig05::run(&cfg()));
    let parallel = with_jobs(4, || fig05::run(&cfg()));
    assert_eq!(serial.render(), parallel.render(), "rendered table must not depend on --jobs");
    assert_eq!(serial.to_csv(), parallel.to_csv(), "CSV bytes must not depend on --jobs");
}

/// An out-of-GPU figure (sweep-level parallelism over thread counts).
#[test]
fn out_of_gpu_figure_renders_identically_across_jobs() {
    let serial = with_jobs(1, || fig13::run(&cfg()));
    let parallel = with_jobs(4, || fig13::run(&cfg()));
    assert_eq!(serial.render(), parallel.render(), "rendered table must not depend on --jobs");
    assert_eq!(serial.to_csv(), parallel.to_csv(), "CSV bytes must not depend on --jobs");
}

/// The join outcome itself: match counts, checksums and the simulated
/// schedule, span by span. Host-side parallelism must not perturb the
/// modeled timeline, and the parallel-built schedule must still pass the
/// structural validator.
#[test]
fn join_outcome_and_schedule_are_identical_across_jobs() {
    let n = 1 << 17;
    let (r, s) = canonical_pair(n, n, 42);
    let config = resident_config(&cfg(), 15, n);
    let serial = with_jobs(1, || run_resident(config.clone(), &r, &s));
    let parallel = with_jobs(4, || run_resident(config.clone(), &r, &s));

    assert_eq!(serial.check, parallel.check, "match count / checksum diverged");
    assert_eq!(serial.tuples_in, parallel.tuples_in);
    assert_eq!(serial.schedule.makespan(), parallel.schedule.makespan());

    let a = serial.schedule.spans();
    let b = parallel.schedule.spans();
    assert_eq!(a.len(), b.len(), "span count diverged");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.op, y.op);
        assert_eq!(x.label, y.label, "op {:?}", x.op);
        assert_eq!(x.resource, y.resource, "op {} ({})", x.label, "resource");
        assert_eq!(x.start, y.start, "op {} start", x.label);
        assert_eq!(x.end, y.end, "op {} end", x.label);
        assert_eq!(x.deps, y.deps, "op {} deps", x.label);
    }

    parallel.schedule.validate().expect("parallel-built schedule must stay structurally valid");
}

/// `--profile` output: the rendered per-kernel counter tables and the
/// profile JSON are byte-identical across worker counts, run-to-run, and
/// under the chaos-0 control (the armed-but-all-zero fault layer).
#[test]
fn profile_output_is_stable_across_jobs_runs_and_chaos_zero() {
    let profiled = RunConfig { profile: true, ..cfg() };
    let serial = with_jobs(1, || fig05::run(&profiled));
    let parallel = with_jobs(4, || fig05::run(&profiled));
    assert!(
        serial.render().contains("profile [fig05-hash]"),
        "--profile must attach a counter table"
    );
    assert_eq!(serial.render(), parallel.render(), "profiled render must not depend on --jobs");

    let again = with_jobs(1, || fig05::run(&profiled));
    assert_eq!(serial.render(), again.render(), "profiled render must be stable run-to-run");

    // Counter JSON, straight from a join outcome (what --out writes).
    let n = 1 << 16;
    let (r, s) = canonical_pair(n, n, 42);
    let config = resident_config(&profiled, 15, n);
    let baseline = with_jobs(1, || run_resident(config.clone(), &r, &s));
    let rerun = with_jobs(4, || run_resident(config.clone(), &r, &s));
    assert_eq!(baseline.counters.to_json(), rerun.counters.to_json());

    let chaos_zero = with_jobs(1, || {
        hcj_gpu::faults::set_ambient(Some(hcj_gpu::FaultConfig::disabled(0)));
        let out = run_resident(config.clone(), &r, &s);
        hcj_gpu::faults::set_ambient(None);
        out
    });
    assert_eq!(
        baseline.counters.to_json(),
        chaos_zero.counters.to_json(),
        "chaos-0 control must not perturb profile JSON"
    );
}

/// The CPU baselines' materialized rows: the same at `--jobs 1` and
/// `--jobs 4`, NPO's in probe order and then build order, and PRO's in
/// that order stably sorted by radix partition.
#[test]
fn cpu_baseline_rows_are_identical_across_jobs() {
    // Zipf keys repeat on both sides; row-id payloads make every tuple
    // distinguishable, so the row order is visible.
    let with_row_ids = |spec: RelationSpec| {
        let mut rel = spec.generate();
        rel.payloads = (0..rel.len() as u32).collect();
        rel
    };
    let r = with_row_ids(RelationSpec::zipf(100_000, 50_000, 0.5, 91));
    let s = with_row_ids(RelationSpec::zipf(50_000, 50_000, 0.5, 92));
    let pro = ProJoin { materialize: true, ..ProJoin::paper_default() };
    let npo = NpoJoin { materialize: true, ..NpoJoin::paper_default() };
    let bits = pro.radix_bits_for(r.len());
    assert!(bits >= 1, "PRO partitions a {}-tuple build", r.len());

    let run = |jobs| {
        with_jobs(jobs, || {
            let (p, n) = (pro.execute(&r, &s), npo.execute(&r, &s));
            (p.check, p.rows.expect("PRO materializes"), n.check, n.rows.expect("NPO materializes"))
        })
    };
    let (pro_check, pro_rows, npo_check, npo_rows) = run(1);
    assert_eq!(run(4), (pro_check, pro_rows.clone(), npo_check, npo_rows.clone()));
    assert_eq!(pro_check, JoinCheck::compute(&r, &s));
    assert_eq!(npo_check, pro_check);

    // Probe order, then build order.
    let mut build: HashMap<u32, Vec<u32>> = HashMap::new();
    for (&k, &v) in r.keys.iter().zip(&r.payloads) {
        build.entry(k).or_default().push(v);
    }
    let nested: Vec<(u32, u32, u32)> = s
        .keys
        .iter()
        .zip(&s.payloads)
        .flat_map(|(&k, &sp)| build.get(&k).into_iter().flatten().map(move |&rp| (k, rp, sp)))
        .collect();
    assert!(nested.len() > s.len(), "duplicate keys match more than once");
    assert_eq!(npo_rows, nested);

    // PRO: by partition, then NPO's order.
    let mut by_partition = nested;
    by_partition.sort_by_key(|&(k, _, _)| k & ((1 << bits) - 1));
    assert_eq!(pro_rows, by_partition);
}
