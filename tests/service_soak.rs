//! Integration soak of the multi-tenant join service: the CI acceptance
//! run, in-process. 200 seeded closed-loop requests against a 512 KB
//! device must all complete with oracle-correct results, with observable
//! queueing and at least one strategy degradation under memory pressure —
//! and the summary must be byte-identical across runs and worker counts.

use hashjoin_gpu::prelude::*;

/// The same regime as `serve --quick --seed 7`: 8 clients x 25 requests,
/// builds of 1-4 k tuples, device scaled to 512 KB.
fn soak_service() -> JoinService {
    let device = DeviceSpec::gtx1080().scaled_capacity(1 << 14);
    let engine = HcjEngine::new(
        GpuJoinConfig::paper_default(device).with_radix_bits(8).with_tuned_buckets(4_000),
    );
    JoinService::new(engine, ServiceConfig::default())
}

#[test]
fn soak_200_requests_complete_queue_and_degrade() {
    let workload = mixed_workload(8, 25, 1_000, 7);
    let total: usize = workload.iter().map(|c| c.requests.len()).sum();
    assert_eq!(total, 200);
    let report = soak_service().run(&workload);
    let summary = report.summary();
    assert_eq!(report.completed(), 200, "every request completes:\n{summary}");
    assert_eq!(report.checks_passed(), 200, "every oracle check passes:\n{summary}");
    assert!(report.queued() >= 1, "at least one request observably queues:\n{summary}");
    assert!(report.degraded() >= 1, "at least one request degrades:\n{summary}");
    assert!(report.retries_total() >= 1, "backoff must trigger:\n{summary}");
    assert!(report.device_peak <= report.device_capacity, "admission control holds:\n{summary}");
    assert!(report.makespan.as_nanos() > 0);
    // The whole run renders as one Chrome timeline: at least one span per
    // request plus the wait spans of everything that queued.
    assert!(report.timeline.span_count() >= 200 + report.queued());
}

#[test]
fn soak_summary_is_byte_identical_across_runs_and_jobs() {
    let workload = mixed_workload(8, 25, 1_000, 7);
    let mut summaries: Vec<String> = Vec::new();
    for jobs in [1usize, 2, 2, 4] {
        hashjoin_gpu::host::pool::set_jobs(jobs);
        summaries.push(soak_service().run(&workload).summary());
    }
    hashjoin_gpu::host::pool::set_jobs(1);
    assert_eq!(summaries[1], summaries[2], "same seed, same jobs: identical");
    assert_eq!(summaries[0], summaries[1], "jobs 1 vs 2: identical");
    assert_eq!(summaries[0], summaries[3], "jobs 1 vs 4: identical");
}

#[test]
fn per_request_metrics_are_coherent() {
    let workload = mixed_workload(4, 5, 1_000, 11);
    let report = soak_service().run(&workload);
    for m in &report.requests {
        assert!(m.submitted_at <= m.admitted_at, "client {} #{}", m.client, m.index);
        assert!(m.admitted_at < m.completed_at, "execution takes simulated time");
        assert!(m.check_ok, "client {} #{}", m.client, m.index);
        assert!(m.matches > 0, "canonical probe sides always match");
        assert!(m.device_used_at_admit <= report.device_capacity);
        let executed = m.executed.expect("request completed");
        assert!(
            executed.rank() >= m.planned.rank(),
            "execution never runs *above* the plan (client {} #{})",
            m.client,
            m.index
        );
        if m.retries == 0 && !m.blocked {
            assert_eq!(
                m.queue_wait(),
                hashjoin_gpu::sim::SimTime::ZERO,
                "no retries and no backpressure means immediate admission"
            );
        }
    }
    // Closed loop: each client's requests complete in order.
    for c in 0..4 {
        let mut times: Vec<_> = report
            .requests
            .iter()
            .filter(|m| m.client == c)
            .map(|m| (m.index, m.completed_at))
            .collect();
        times.sort_unstable();
        for pair in times.windows(2) {
            assert!(
                pair[0].1 < pair[1].1,
                "client {c}: request {} before {}",
                pair[0].0,
                pair[1].0
            );
        }
    }
}

#[test]
fn service_trace_renders_as_valid_chrome_json() {
    let workload = mixed_workload(2, 3, 1_000, 5);
    let report = soak_service().run(&workload);
    let json = TraceExporter::new().timeline_to_json(&report.timeline);
    // Structural sanity without a JSON parser dependency: balanced
    // braces, the two client tracks, and the device counter all present.
    assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
    assert!(json.contains("\"client 0\""));
    assert!(json.contains("\"client 1\""));
    assert!(json.contains("device 0 · reserved (B)"));
    assert!(json.contains("\"ph\":\"X\""), "duration events present");
    assert!(json.contains("\"ph\":\"C\""), "counter samples present");
}
