//! The one cache-aware join executor behind single-join requests
//! ([`crate::fleet`]) and plan operators ([`crate::dag`]), and the one
//! execution record ([`Executed`]) the event loop settles onto a request,
//! whatever ran: a single join, a cross-device exchange or a whole plan.
//!
//! Every kind's oracle comparison happens here, against a check its
//! caller computed. A request's single join gets its check once, with its
//! inputs (`lookahead::JoinInputs`), and every execution of it compares
//! against that: on a device, on the CPU lane, as an exchange, and again
//! after a drain re-dispatches it. A plan operator's check is computed
//! when its level runs ([`crate::dag`]), because its inputs are
//! intermediates that exist only then.
//!
//! A [`JoinJob`] runs one admitted join on an engine its caller already
//! reseeded: it probes a pinned cached build, or stages both sides and
//! builds on the GPU (the cache's cold path), or walks the degradation
//! ladder from its rung. A failing hot or staged attempt falls back onto
//! that ladder from the same rung, so a cached join degrades exactly like
//! an uncached one. A failed attempt produces no build, so a fallback
//! never has one to install.

use hcj_core::{CachedBuild, CachedBuildJoin};
use hcj_gpu::{CounterRollup, FaultSummary};
use hcj_host::HostSpec;
use hcj_sim::SimTime;
use hcj_workload::oracle::{JoinCheck, JoinRow};
use hcj_workload::{build_is_left, Relation};

use crate::dag::PlanRun;
use crate::exchange::{execute_exchange, ExchangeConfig, ExchangeParticipant};
use crate::facade::{in_caller_order, HcjEngine, PlannedStrategy};
use crate::lookahead::JoinInputs;

/// One admitted join, described for [`JoinJob::run`].
pub(crate) struct JoinJob<'a> {
    /// Left input, in the caller's order: the oracle check sums payloads
    /// per side, so it depends on which side is `r`.
    pub r: &'a Relation,
    /// Right input.
    pub s: &'a Relation,
    /// `JoinCheck::compute(r, s)`, which the outcome must match.
    pub expected: JoinCheck,
    /// The ladder rung the join starts at, and falls back onto.
    pub start: PlannedStrategy,
    /// A pinned cached build to probe instead of building.
    pub hit: Option<&'a CachedBuild>,
    /// Without a hit: stage both sides and build on the GPU instead of
    /// running `start`'s strategy.
    pub stage: bool,
    /// Hand back the build a successful staged run produced.
    pub keep_build: bool,
    /// Whether `r` and `s` already sit on the device (pinned
    /// intermediates), so staging skips their h2d copies.
    pub resident: (bool, bool),
}

/// What one admitted execution produced.
#[derive(Default)]
pub(crate) struct Executed {
    /// The strategy that finished the work; `None` when it failed.
    pub strategy: Option<PlannedStrategy>,
    /// Result cardinality; 0 when the execution failed.
    pub matches: u64,
    /// Finished without error and matched the oracle.
    pub check_ok: bool,
    /// Simulated execution time, at least 1 ns.
    pub duration: SimTime,
    /// Device fault/retry counters.
    pub faults: FaultSummary,
    /// Hardware counters.
    pub counters: CounterRollup,
    /// `(offset into the execution, label)` per fault event of a single
    /// join (a plan draws its ops' marks itself).
    pub fault_marks: Vec<(SimTime, String)>,
    /// Error tag when the execution failed.
    pub error: Option<&'static str>,
    /// The build a staged run kept (`keep_build`), for the cache.
    pub install: Option<CachedBuild>,
    /// Materialized result rows in `(r, s)` order, when the output mode
    /// materializes.
    pub rows: Option<Vec<JoinRow>>,
    /// Exchange participants observed device-lost, in device order.
    pub lost: Vec<usize>,
}

impl Executed {
    /// An execution that failed with `error` before producing anything.
    pub(crate) fn failed(error: &'static str) -> Self {
        Executed { duration: SimTime::from_nanos(1), error: Some(error), ..Executed::default() }
    }

    /// Run `inputs.r ⨝ inputs.s` as a cross-device exchange over
    /// `participants`, checked against `inputs.check`; `salt` (the request
    /// id) decorrelates the participants' fault streams.
    pub(crate) fn exchange(
        engine: &HcjEngine,
        participants: &[ExchangeParticipant],
        inputs: &JoinInputs,
        salt: u64,
    ) -> Self {
        let host = HostSpec::dual_xeon_e5_2650l_v3();
        let JoinInputs { r, s, check } = inputs;
        match execute_exchange(engine, participants, r, s, &ExchangeConfig::default(), &host, salt)
        {
            Ok(out) => Executed {
                strategy: Some(PlannedStrategy::CrossDevice(participants.len())),
                matches: out.check.matches,
                check_ok: out.check == *check,
                duration: SimTime::from_nanos(((out.seconds * 1e9).round() as u64).max(1)),
                faults: out.faults,
                counters: out.counters.rollup(),
                lost: out.lost,
                ..Executed::default()
            },
            Err(err) => Executed::failed(err.tag()),
        }
    }

    /// A plan's run rolled up into one record: the root join's strategy,
    /// the plan's verdict and folded matches, and every op's faults and
    /// counters summed, each consulting op counting its cache hit or miss.
    pub(crate) fn plan(run: &PlanRun) -> Self {
        let mut rollup = Executed {
            strategy: run.executed,
            matches: run.matches,
            check_ok: run.check_ok,
            duration: SimTime::from_nanos(run.duration.as_nanos().max(1)),
            error: run.error,
            ..Executed::default()
        };
        for op in &run.ops {
            rollup.faults.absorb(&op.faults);
            rollup.counters.absorb(&op.counters);
            op.cache_role.count(&mut rollup.counters.cache);
        }
        rollup
    }
}

impl JoinJob<'_> {
    /// Run the job on `engine`; see the module docs.
    pub(crate) fn run(&self, engine: &HcjEngine) -> Executed {
        let r_builds = build_is_left(self.r, self.s);
        let (build, probe, resident) = if r_builds {
            (self.r, self.s, self.resident)
        } else {
            (self.s, self.r, (self.resident.1, self.resident.0))
        };
        let mut install = None;
        let attempt = if let Some(table) = self.hit {
            CachedBuildJoin::new(engine.config.clone())
                .execute_hot_from(table, probe, resident.1)
                .map(|o| (PlannedStrategy::GpuResident, o))
        } else if self.stage {
            CachedBuildJoin::new(engine.config.clone())
                .execute_staged(build, probe, resident.0, resident.1)
                .map(|(o, built)| {
                    install = self.keep_build.then_some(built);
                    (PlannedStrategy::GpuResident, o)
                })
        } else {
            engine.execute_built(self.start, build, probe)
        };
        let attempt = match attempt {
            Err(_) if self.hit.is_some() || self.stage => {
                engine.execute_built(self.start, build, probe)
            }
            other => other,
        };
        let (strategy, outcome) = match attempt {
            Ok((strategy, outcome)) => (strategy, in_caller_order(outcome, r_builds)),
            Err(err) => return Executed::failed(err.tag()),
        };
        Executed {
            strategy: Some(strategy),
            matches: outcome.check.matches,
            check_ok: outcome.check == self.expected,
            duration: SimTime::from_nanos(outcome.schedule.makespan().as_nanos().max(1)),
            faults: outcome.faults.summary(),
            counters: outcome.counters.rollup(),
            fault_marks: outcome
                .faults
                .events
                .iter()
                .map(|e| {
                    let label = format!("{} {} `{}`", e.kind, e.site, e.label);
                    (e.at.unwrap_or(SimTime::ZERO), label)
                })
                .collect(),
            install,
            rows: outcome.rows,
            ..Executed::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facade::tests::larger_r_with_free_payloads;
    use hcj_core::{GpuJoinConfig, OutputMode};
    use hcj_gpu::faults::FaultConfig;
    use hcj_gpu::{DeviceSpec, JoinError};
    use hcj_workload::generate::canonical_pair;
    use hcj_workload::oracle::assert_join_matches;

    #[test]
    fn failed_staged_and_hit_attempts_fall_back_without_a_build() {
        // Every kernel faults transiently, so every GPU attempt uses up
        // its retries. A staged job that would install its build and a
        // cache-hit job must both fall back onto the ladder from the
        // resident rung, run out of rungs and finish on the CPU: correct,
        // error-free, and with no build to install.
        let device = DeviceSpec::gtx1080().scaled_capacity(1 << 10);
        let config =
            GpuJoinConfig::paper_default(device).with_radix_bits(8).with_tuned_buckets(8_000);
        let (r, s) = canonical_pair(2_000, 6_000, 41);
        let (_, table) =
            CachedBuildJoin::new(config.clone()).execute_cold(&r, &s).expect("clean build");
        let faults =
            FaultConfig { kernel_fault_p: 1.0, device_lost_p: 0.0, ..FaultConfig::disabled(5) };
        let engine = HcjEngine::new(config.with_faults(faults));

        let cached = CachedBuildJoin::new(engine.config.clone());
        let exhausted = |e: JoinError| matches!(e, JoinError::Device(_)) && e.is_transient();
        assert!(cached.execute_staged(&r, &s, false, false).map(|_| ()).is_err_and(exhausted));
        assert!(cached.execute_hot(&table, &s).map(|_| ()).is_err_and(exhausted));

        let staged = JoinJob {
            r: &r,
            s: &s,
            expected: JoinCheck::compute(&r, &s),
            start: PlannedStrategy::GpuResident,
            hit: None,
            stage: true,
            keep_build: true,
            resident: (false, false),
        };
        let hit = JoinJob { hit: Some(&table), keep_build: false, ..staged };
        for (name, job) in [("staged", staged), ("hit", hit)] {
            let exec = job.run(&engine);
            assert_eq!(exec.strategy, Some(PlannedStrategy::CpuFallback), "{name}");
            assert_eq!(exec.error, None, "{name}");
            assert_eq!(exec.matches, JoinCheck::compute(&r, &s).matches, "{name}");
            assert!(exec.check_ok, "{name}");
            assert!(exec.install.is_none(), "{name}: a fallback has no build to install");
        }
    }

    #[test]
    fn executions_compare_with_the_check_they_carry() {
        // A wrong expected check fails a correct join, and the right one
        // passes it, on the single-device path and on the exchange.
        let config = GpuJoinConfig::paper_default(DeviceSpec::gtx1080())
            .with_radix_bits(8)
            .with_tuned_buckets(6_000);
        let engine = HcjEngine::new(config);
        let (r, s) = canonical_pair(2_000, 6_000, 7);
        let right = JoinCheck::compute(&r, &s);
        let wrong = JoinCheck { sum_s_payload: right.sum_s_payload ^ 1, ..right };
        let participants: Vec<ExchangeParticipant> = (0..2)
            .map(|device| ExchangeParticipant { device, spec: DeviceSpec::gtx1080() })
            .collect();
        let mut inputs = JoinInputs { r: r.clone(), s: s.clone(), check: right };
        for (expected, ok) in [(right, true), (wrong, false)] {
            let job = JoinJob {
                r: &r,
                s: &s,
                expected,
                start: PlannedStrategy::GpuResident,
                hit: None,
                stage: false,
                keep_build: false,
                resident: (false, false),
            };
            inputs.check = expected;
            for (path, exec) in [
                ("single", job.run(&engine)),
                ("exchange", Executed::exchange(&engine, &participants, &inputs, 1)),
            ] {
                assert_eq!((exec.error, exec.matches), (None, right.matches), "{path}");
                assert_eq!(
                    exec.check_ok,
                    ok,
                    "{path} against the {} check",
                    if ok { "right" } else { "wrong" }
                );
            }
        }
    }

    #[test]
    fn staged_and_hit_paths_report_in_the_callers_order_when_s_builds() {
        // `s` is the smaller side, so it builds; the check and the
        // materialized rows must still come back as `r ⨝ s`.
        let (r, s) = larger_r_with_free_payloads();
        let config = GpuJoinConfig::paper_default(DeviceSpec::gtx1080())
            .with_radix_bits(8)
            .with_tuned_buckets(6_000)
            .with_output(OutputMode::Materialize);
        let engine = HcjEngine::new(config.clone());
        let (_, table) = CachedBuildJoin::new(config).execute_cold(&s, &r).expect("clean build");
        let staged = JoinJob {
            r: &r,
            s: &s,
            expected: JoinCheck::compute(&r, &s),
            start: PlannedStrategy::GpuResident,
            hit: None,
            stage: true,
            keep_build: true,
            resident: (false, false),
        };
        let hit = JoinJob { hit: Some(&table), keep_build: false, ..staged };
        for (name, job) in [("staged", staged), ("hit", hit)] {
            let exec = job.run(&engine);
            assert_eq!(exec.strategy, Some(PlannedStrategy::GpuResident), "{name}");
            assert!(exec.check_ok, "{name}: the check came back in build order");
            assert_join_matches(&r, &s, exec.rows.as_deref().expect("materialized rows"));
        }
    }
}
