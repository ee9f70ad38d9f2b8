//! paper-ladder: the paper's joins at every rung of the strategy ladder.
//!
//! Canonical pairs (unique build keys, an all-hit foreign-key probe) and
//! Zipf-skewed probes at five build sizes, on a GTX 1080 whose capacity is
//! scaled down with the data. Each join runs at every rung through
//! `HcjEngine::execute_from` and once on the PRO CPU baseline, so the
//! kernels, the partitioner, the `Sim::run` solve and cpu-join do all the
//! timed work, and the service, cache, DAG, fleet and exchange layers do
//! none. Inputs and expected checks are built in set-up.

use hcj_core::{GpuJoinConfig, Phase};
use hcj_cpu_join::ProJoin;
use hcj_engines::{HcjEngine, PlannedStrategy};
use hcj_gpu::{CounterRollup, DeviceSpec};
use hcj_workload::generate::{KeyDistribution, RelationSpec};
use hcj_workload::oracle::JoinCheck;
use hcj_workload::rng::{Rng, SmallRng};
use hcj_workload::Relation;

use crate::metrics::{latency_metrics, set_counters, set_phases, Metrics};
use crate::spans::Tracer;
use crate::{warm_seed, Args, Workload};

/// Sizes and device of a ladder.
pub struct Shape {
    /// Nominal build sizes; each pair adds up to 1/256 more, drawn from
    /// the seed, so every seed gives different inputs.
    pub builds: &'static [usize],
    /// Probe tuples per build tuple.
    pub probe_ratio: usize,
    /// Zipf exponent of the skewed probes.
    pub zipf_theta: f64,
    /// GTX 1080 capacity divisor: 8 GB / 64 = 128 MB keeps the largest
    /// pair resident, so every rung runs as itself.
    pub capacity_div: u64,
    /// Radix bits: the paper's 15, less log2 of the capacity divisor.
    pub radix_bits: u32,
}

/// The measured ladder: 5 sizes x 2 probe distributions = 10 pairs, each
/// executed 4 ways = 40 joins per round.
pub const SHAPE: Shape = Shape {
    builds: &[1 << 16, 1 << 17, 1 << 18, 1 << 19, 1 << 20],
    probe_ratio: 2,
    zipf_theta: 0.9,
    capacity_div: 64,
    radix_bits: 9,
};

/// The warm-up ladder: the smallest size only.
const WARM_UP: Shape = Shape { builds: &[1 << 16], ..SHAPE };

/// Reference throughputs in EXPERIMENTS.md, in B tuples/s.
const PAPER_BTPS: [(PlannedStrategy, &str, f64); 3] = [
    (PlannedStrategy::GpuResident, "resident", 4.5),
    (PlannedStrategy::StreamedProbe, "streamed", 1.4),
    (PlannedStrategy::CoProcessing, "coproc", 1.2),
];

/// How a job runs: at a ladder rung, or on the PRO CPU baseline.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Exec {
    Rung(PlannedStrategy),
    Pro,
}

const EXECS: [Exec; 4] = [
    Exec::Rung(PlannedStrategy::GpuResident),
    Exec::Rung(PlannedStrategy::StreamedProbe),
    Exec::Rung(PlannedStrategy::CoProcessing),
    Exec::Pro,
];

struct Pair {
    name: String,
    r: Relation,
    s: Relation,
    expected: JoinCheck,
    engine: HcjEngine,
}

/// Generator specs of every pair of `shape` for `seed`.
pub fn pair_specs(shape: &Shape, seed: u64) -> Vec<(String, RelationSpec, RelationSpec)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut specs = Vec::new();
    for &nominal in shape.builds {
        for skewed in [false, true] {
            let b = nominal + rng.gen_range_u64(0, (nominal / 256) as u64) as usize;
            let r = RelationSpec::unique(b, rng.next_u64());
            let distribution = if skewed {
                KeyDistribution::Zipf { distinct: b as u64, theta: shape.zipf_theta }
            } else {
                KeyDistribution::UniformFk { distinct: b as u64 }
            };
            let s = RelationSpec {
                tuples: b * shape.probe_ratio,
                distribution,
                payload_width: 4,
                seed: rng.next_u64(),
            };
            let kind = if skewed { "zipf" } else { "fk" };
            specs.push((format!("{b}x{}-{kind}", s.tuples), r, s));
        }
    }
    specs
}

/// One execution's result.
#[derive(Clone, Debug)]
pub struct Job {
    /// Strategy that ran; `None` for the PRO baseline or a failed job.
    executed: Option<PlannedStrategy>,
    /// The job returned an error (counted as failed, not a wrong result).
    failed: bool,
    sim_s: f64,
    tuples: u64,
    phases_us: [f64; 6],
    counters: CounterRollup,
}

pub struct LadderRound {
    jobs: Vec<Job>,
}

pub struct Ladder {
    pairs: Vec<Pair>,
}

impl Ladder {
    fn build(shape: &Shape, seed: u64, tracer: &mut Tracer) -> Ladder {
        let pairs = pair_specs(shape, seed)
            .into_iter()
            .enumerate()
            .map(|(i, (name, rs, ss))| {
                let req = Some(i as u64);
                let (r, s) =
                    tracer.span("workload.generate", req, || (rs.generate(), ss.generate()));
                let expected = tracer.span("workload.oracle", req, || JoinCheck::compute(&r, &s));
                let device = DeviceSpec::gtx1080().scaled_capacity(shape.capacity_div);
                let config = GpuJoinConfig::paper_default(device)
                    .with_radix_bits(shape.radix_bits)
                    .with_tuned_buckets(rs.tuples)
                    .with_fused_refinement(true);
                Pair { name, r, s, expected, engine: HcjEngine::new(config) }
            })
            .collect();
        Ladder { pairs }
    }

    fn job(&self, pair: &Pair, exec: Exec, req: u64, tracer: &mut Tracer) -> Result<Job, String> {
        let tuples = (pair.r.len() + pair.s.len()) as u64;
        let (executed, outcome) = match exec {
            Exec::Rung(rung) => {
                let result = tracer.span("core.execute", Some(req), || {
                    pair.engine.execute_from(rung, &pair.r, &pair.s)
                });
                match result {
                    Ok((ran, outcome)) => (Some(ran), outcome),
                    Err(err) => {
                        eprintln!("{} at {rung}: {err}", pair.name);
                        return Ok(Job {
                            executed: None,
                            failed: true,
                            sim_s: 0.0,
                            tuples,
                            phases_us: [0.0; 6],
                            counters: CounterRollup::default(),
                        });
                    }
                }
            }
            Exec::Pro => {
                let out = tracer.span("cpu-join.pro", Some(req), || {
                    ProJoin::paper_default().execute(&pair.r, &pair.s)
                });
                if out.check != pair.expected {
                    return Err(format!("{} on PRO: join check mismatch", pair.name));
                }
                return Ok(Job {
                    executed: None,
                    failed: false,
                    sim_s: out.seconds,
                    tuples,
                    phases_us: [0.0; 6],
                    counters: CounterRollup::default(),
                });
            }
        };
        if outcome.check != pair.expected {
            return Err(format!("{} at {exec:?}: join check mismatch", pair.name));
        }
        let mut phases_us = [0.0; 6];
        for (slot, phase) in phases_us.iter_mut().zip(Phase::ALL) {
            *slot = outcome.phases.time(phase).as_secs_f64() * 1e6;
        }
        Ok(Job {
            executed,
            failed: false,
            sim_s: outcome.total_seconds(),
            tuples,
            phases_us,
            counters: outcome.counters.rollup(),
        })
    }
}

impl Workload for Ladder {
    type Round = LadderRound;

    fn setup(args: &Args, tracer: &mut Tracer) -> Result<Ladder, String> {
        let mut ladder = Ladder::build(&SHAPE, args.seed, tracer);
        if args.wrong_check {
            ladder.pairs[0].expected.matches += 1;
        }
        let warm = tracer.open("setup.warm_up", None);
        Ladder::build(&WARM_UP, warm_seed(args.seed), &mut Tracer::off())
            .round(&mut Tracer::off())?;
        tracer.close(warm);
        Ok(ladder)
    }

    fn round(&self, tracer: &mut Tracer) -> Result<LadderRound, String> {
        let mut jobs = Vec::with_capacity(self.pairs.len() * EXECS.len());
        for pair in &self.pairs {
            for exec in EXECS {
                let req = jobs.len() as u64;
                jobs.push(self.job(pair, exec, req, tracer)?);
            }
        }
        Ok(LadderRound { jobs })
    }

    fn fingerprint(round: &LadderRound) -> String {
        let jobs: Vec<_> = round
            .jobs
            .iter()
            .map(|j| (j.executed, j.failed, j.sim_s.to_bits(), j.counters))
            .collect();
        format!("{jobs:?}")
    }

    fn host_rates(&self, round: &LadderRound, round_s: f64) -> Vec<f64> {
        vec![round.jobs.iter().map(|j| j.tuples).sum::<u64>() as f64 / round_s / 1e6]
    }

    fn outcomes(&self, round: &LadderRound) -> (u64, u64) {
        (round.jobs.len() as u64, round.jobs.iter().filter(|j| j.failed).count() as u64)
    }

    fn simulated(
        &self,
        round: &LadderRound,
        e2e: &mut Metrics,
        layers: &mut Metrics,
    ) -> Result<(), String> {
        let ok: Vec<&Job> = round.jobs.iter().filter(|j| !j.failed).collect();
        let tuples: u64 = ok.iter().map(|j| j.tuples).sum();
        let sim_s: f64 = ok.iter().map(|j| j.sim_s).sum();
        e2e.set("sim_btps", tuples as f64 / sim_s / 1e9);
        latency_metrics(ok.iter().map(|j| j.sim_s * 1e6).collect(), e2e, layers)?;

        let mut phases_us = [0.0; 6];
        for j in &ok {
            for (sum, us) in phases_us.iter_mut().zip(j.phases_us) {
                *sum += us;
            }
        }
        set_phases(phases_us, layers);
        for (strategy, name, paper) in PAPER_BTPS {
            let ran: Vec<&&Job> = ok.iter().filter(|j| j.executed == Some(strategy)).collect();
            let facade = format!("engines.facade.{name}");
            layers.set(&facade, ran.len() as f64);
            if ran.is_empty() {
                continue;
            }
            let t: u64 = ran.iter().map(|j| j.tuples).sum();
            let s: f64 = ran.iter().map(|j| j.sim_s).sum();
            let btps = t as f64 / s / 1e9;
            layers.set(&format!("core.{name}_btps"), btps);
            layers.set(&format!("core.{name}_paper_err"), (btps / paper - 1.0).abs());
        }
        let mut counters = CounterRollup::default();
        for j in &ok {
            counters.absorb(&j.counters);
        }
        set_counters(&counters, layers);
        Ok(())
    }

    fn traced(
        &self,
        _round: &LadderRound,
        round_s: f64,
        tracer: &mut Tracer,
        layers: &mut Metrics,
    ) -> Result<(), String> {
        let started = std::time::Instant::now();
        self.round(tracer)?;
        layers.set("trace.untraced_s", round_s);
        layers.set("trace.overhead_s", started.elapsed().as_secs_f64() - round_s);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Shape = Shape { builds: &[1 << 12, 1 << 13], capacity_div: 1 << 12, ..SHAPE };

    fn tiny(seed: u64) -> Ladder {
        Ladder::build(&TINY, seed, &mut Tracer::off())
    }

    fn sim_metrics(ladder: &Ladder) -> String {
        let round = ladder.round(&mut Tracer::off()).unwrap();
        let (mut e2e, mut layers) =
            (Metrics::new(crate::metrics::END_TO_END), Metrics::new(crate::metrics::PER_LAYER));
        // Tiny ladders have too few joins for a tail; the throughput and
        // per-layer metrics are what must repeat.
        let _ = ladder.simulated(&round, &mut e2e, &mut layers);
        format!("{:?} {:?}", e2e.to_json(), Ladder::fingerprint(&round))
    }

    #[test]
    fn same_seed_repeats_and_another_seed_changes_the_inputs() {
        assert_eq!(format!("{:?}", pair_specs(&SHAPE, 5)), format!("{:?}", pair_specs(&SHAPE, 5)));
        assert_ne!(format!("{:?}", pair_specs(&SHAPE, 5)), format!("{:?}", pair_specs(&SHAPE, 6)));
        assert_ne!(
            format!("{:?}", pair_specs(&SHAPE, 5)),
            format!("{:?}", pair_specs(&SHAPE, warm_seed(5)))
        );
        let (a, b) = (tiny(5), tiny(5));
        assert_eq!(sim_metrics(&a), sim_metrics(&b), "same seed, bit-identical sim metrics");
        assert_ne!(sim_metrics(&a), sim_metrics(&tiny(6)), "another seed, other results");
    }

    #[test]
    fn every_rung_runs_as_itself_and_checks_out() {
        let round = tiny(3).round(&mut Tracer::off()).unwrap();
        assert_eq!(round.jobs.len(), 2 * TINY.builds.len() * EXECS.len());
        let ran: Vec<Option<PlannedStrategy>> =
            round.jobs[..4].iter().map(|j| j.executed).collect();
        assert_eq!(
            ran,
            [
                Some(PlannedStrategy::GpuResident),
                Some(PlannedStrategy::StreamedProbe),
                Some(PlannedStrategy::CoProcessing),
                None
            ]
        );
        assert!(round.jobs.iter().all(|j| !j.failed && j.sim_s > 0.0));
    }

    #[test]
    fn a_wrong_expected_check_fails_the_round() {
        let mut ladder = tiny(3);
        ladder.pairs[1].expected.sum_s_payload ^= 1;
        let err = ladder.round(&mut Tracer::off()).err().expect("the corrupted check must fail");
        assert!(err.contains("join check mismatch"), "{err}");
    }
}
