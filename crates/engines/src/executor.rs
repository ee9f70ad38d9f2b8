//! The one cache-aware join executor behind single-join requests
//! ([`crate::fleet`]) and plan operators ([`crate::dag`]).
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
use hcj_sim::SimTime;
use hcj_workload::oracle::{JoinCheck, JoinRow};
use hcj_workload::{build_is_left, Relation};

use crate::facade::{HcjEngine, PlannedStrategy};

/// One admitted join, described for [`JoinJob::run`].
pub(crate) struct JoinJob<'a> {
    /// Left input, in the caller's order: the oracle check sums payloads
    /// per side, so it depends on which side is `r`.
    pub r: &'a Relation,
    /// Right input.
    pub s: &'a Relation,
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

/// What one join execution produced.
pub(crate) struct Executed {
    /// The strategy that finished the join; `None` when it failed.
    pub strategy: Option<PlannedStrategy>,
    /// The join's own check.
    pub check: JoinCheck,
    /// The oracle's check on the inputs.
    pub expected: JoinCheck,
    /// Simulated execution time, at least 1 ns.
    pub duration: SimTime,
    /// Device fault/retry counters of the finishing attempt.
    pub faults: FaultSummary,
    /// Hardware counters of the finishing attempt.
    pub counters: CounterRollup,
    /// `(offset into the execution, label)` per fault event.
    pub fault_marks: Vec<(SimTime, String)>,
    /// Error tag when the join failed.
    pub error: Option<&'static str>,
    /// The build a staged run kept (`keep_build`), for the cache.
    pub install: Option<CachedBuild>,
    /// Materialized result rows, when the output mode materializes.
    pub rows: Option<Vec<JoinRow>>,
}

impl Executed {
    /// A join that failed with `error` before producing anything.
    pub(crate) fn failed(expected: JoinCheck, error: &'static str) -> Self {
        Executed {
            strategy: None,
            check: expected,
            expected,
            duration: SimTime::from_nanos(1),
            faults: FaultSummary::default(),
            counters: CounterRollup::default(),
            fault_marks: Vec::new(),
            error: Some(error),
            install: None,
            rows: None,
        }
    }

    /// Finished without error and matched the oracle.
    pub(crate) fn check_ok(&self) -> bool {
        self.error.is_none() && self.strategy.is_some() && self.check == self.expected
    }
}

impl JoinJob<'_> {
    /// Run the job on `engine`; see the module docs.
    pub(crate) fn run(&self, engine: &HcjEngine) -> Executed {
        let expected = JoinCheck::compute(self.r, self.s);
        let (build, probe, resident) = if build_is_left(self.r, self.s) {
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
            engine.execute_from(self.start, self.r, self.s)
        };
        let attempt = match attempt {
            Err(_) if self.hit.is_some() || self.stage => {
                engine.execute_from(self.start, self.r, self.s)
            }
            other => other,
        };
        match attempt {
            Ok((strategy, outcome)) => Executed {
                strategy: Some(strategy),
                check: outcome.check,
                expected,
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
                error: None,
                install,
                rows: outcome.rows,
            },
            Err(err) => Executed::failed(expected, err.tag()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcj_core::GpuJoinConfig;
    use hcj_gpu::faults::FaultConfig;
    use hcj_gpu::{DeviceSpec, JoinError};
    use hcj_workload::generate::canonical_pair;

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
            assert_eq!(exec.check, JoinCheck::compute(&r, &s), "{name}");
            assert!(exec.check_ok(), "{name}");
            assert!(exec.install.is_none(), "{name}: a fallback has no build to install");
        }
    }
}
