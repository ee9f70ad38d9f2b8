//! `hcj-perfbench` — the repository's benchmark, on both clocks.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload {paper-ladder|serve-skew|fleet-exchange} \
//!     --seed N --seconds N --trace {0|1}
//! ```
//!
//! `--trace 0` sets the workload up [`SETUP_REPEATS`] times (`setup_s` is
//! the median), then repeats verified rounds of it for `--seconds` of host
//! time and prints every end-to-end metric. `--trace 1` sets up once with
//! spans on, times one untraced round, then a traced pass, and prints
//! every per-layer metric; it also writes the spans as a Chrome trace to
//! `perfbench/out/`. The last stdout line is the JSON result. When any
//! output check fails the run prints nothing on stdout and exits 1.
//!
//! Simulated metrics come from the program's own outcomes and service
//! reports, so they repeat bit for bit for one seed. Host metrics time the
//! calls from outside; the end-to-end ones are scaled to the reference host
//! speed by a calibration kernel timed in the same run ([`calib`]).
//! README.md lists the workloads and maps each per-layer metric to the
//! end-to-end metric it should move.

mod alloc;
mod calib;
mod ladder;
mod metrics;
mod serving;
mod spans;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use alloc::AllocCount;
use metrics::{median, result_line, Metrics, END_TO_END, PER_LAYER};
use spans::Tracer;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Host pool workers: the core count of the 2-core machine the bounds in
/// BENCHMARK.json were measured on, fixed so runs compare across machines.
const WORKERS: usize = 2;

/// Set-ups per measured run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Where the traced run writes its Chrome trace, relative to the
/// repository root the benchmark runs from.
const TRACE_DIR: &str = "perfbench/out";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadName {
    PaperLadder,
    ServeSkew,
    FleetExchange,
}

impl WorkloadName {
    const ALL: [(&'static str, WorkloadName); 3] = [
        ("paper-ladder", WorkloadName::PaperLadder),
        ("serve-skew", WorkloadName::ServeSkew),
        ("fleet-exchange", WorkloadName::FleetExchange),
    ];

    fn name(self) -> &'static str {
        Self::ALL.iter().find(|(_, w)| *w == self).map(|(n, _)| *n).expect("every name listed")
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    pub workload: WorkloadName,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Self-test hook (paper-ladder only): corrupt the first expected join
    /// check, so the run must fail without printing numbers.
    pub wrong_check: bool,
}

const USAGE: &str = "usage: hcj-perfbench --workload {paper-ladder|serve-skew|fleet-exchange} \
                     --seed N --seconds N --trace {0|1} [--wrong-check]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut wrong_check) = (1, 10, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let found = WorkloadName::ALL.iter().find(|(n, _)| n == v);
                workload = Some(found.ok_or(format!("unknown workload `{v}`\n{USAGE}"))?.1);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or("--seconds needs an integer from 1 to 3600")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--wrong-check" => wrong_check = true,
            other => return Err(format!("unknown option `{other}`\n{USAGE}")),
        }
    }
    let workload = workload.ok_or(format!("--workload is required\n{USAGE}"))?;
    if wrong_check && workload != WorkloadName::PaperLadder {
        return Err("--wrong-check applies to paper-ladder only".into());
    }
    Ok(Args { workload, seed, seconds, trace, wrong_check })
}

/// The seed of the warm-up inside set-up: never the measured seed, so
/// nothing the warm-up computes can be reused by the measured rounds.
pub fn warm_seed(seed: u64) -> u64 {
    seed ^ 0x57A2_4D0B_5EED_0001
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// What one verified pass over the workload produced.
    type Round;

    /// Build inputs, expected results and engines for `args.seed`, then
    /// warm up on [`warm_seed`].
    fn setup(args: &Args, tracer: &mut Tracer) -> Result<Self, String>;

    /// One pass over every operation, each output checked; `Err` when a
    /// check fails.
    fn round(&self, tracer: &mut Tracer) -> Result<Self::Round, String>;

    /// The round's simulated results; every round of a run must match the
    /// first.
    fn fingerprint(round: &Self::Round) -> String;

    /// Host throughput samples of a round that took `round_s` host
    /// seconds, in input Mtuples per host second.
    fn host_rates(&self, round: &Self::Round, round_s: f64) -> Vec<f64>;

    /// Operations attempted in the round, and how many failed.
    fn outcomes(&self, round: &Self::Round) -> (u64, u64);

    /// Simulated metrics of the round: `sim_*` into `e2e`, the simulated
    /// per-layer metrics into `layers`.
    fn simulated(
        &self,
        round: &Self::Round,
        e2e: &mut Metrics,
        layers: &mut Metrics,
    ) -> Result<(), String>;

    /// The traced pass after an untraced `round` that took `round_s` host
    /// seconds: sets `trace.overhead_s`, the untraced host time it is
    /// measured against (`trace.untraced_s`) and `engines.loop_s`; the
    /// spans it records give the other host per-layer metrics.
    fn traced(
        &self,
        round: &Self::Round,
        round_s: f64,
        tracer: &mut Tracer,
        layers: &mut Metrics,
    ) -> Result<(), String>;
}

/// The `--trace 0` run: end-to-end metrics.
fn measure<W: Workload>(args: &Args) -> Result<String, String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut calibrations = Vec::new();
    let mut work: Option<W> = None;
    for _ in 0..SETUP_REPEATS {
        drop(work.take());
        calibrations.push(calib::sample());
        let started = Instant::now();
        work = Some(W::setup(args, &mut Tracer::off())?);
        setups.push(started.elapsed().as_secs_f64());
        calibrations.push(calib::sample());
    }
    let work = work.expect("SETUP_REPEATS is at least 1");

    let budget = Duration::from_secs(args.seconds);
    let region = Instant::now();
    let (mut rounds, mut rates) = (0, Vec::new());
    let mut first: Option<(W::Round, String)> = None;
    // Read after the first round, so the peak covers the same work however
    // many rounds the machine's speed lets into the budget.
    let mut peak_rss_mb = 0.0;
    while rounds == 0 || region.elapsed() < budget {
        calibrations.push(calib::sample());
        let started = Instant::now();
        let round = work.round(&mut Tracer::off())?;
        rates.extend(work.host_rates(&round, started.elapsed().as_secs_f64()));
        let print = W::fingerprint(&round);
        match &first {
            None => {
                first = Some((round, print));
                peak_rss_mb = alloc::peak_rss_mb()?;
            }
            Some((_, p0)) if *p0 != print => {
                return Err(format!("round {rounds} diverged from round 0"));
            }
            Some(_) => {}
        }
        rounds += 1;
    }
    calibrations.push(calib::sample());
    // Above 1 when the machine runs faster than the reference.
    let speed = calib::REFERENCE_S / median(&calibrations);
    let shown: Vec<String> = rates.iter().map(|r| format!("{r:.3}")).collect();
    eprintln!(
        "{rounds} rounds in {:.2} s of host time; wall Mtuple/s samples {}; calibration \
         median {:.4} s of {} (speed {speed:.3})",
        region.elapsed().as_secs_f64(),
        shown.join(" "),
        median(&calibrations),
        calibrations.len()
    );
    let (round, _) = first.expect("at least one round ran");

    let mut e2e = Metrics::new(END_TO_END);
    work.simulated(&round, &mut e2e, &mut Metrics::new(PER_LAYER))?;
    let (attempted, failed) = work.outcomes(&round);
    e2e.set("host_mtps", median(&rates) / speed);
    e2e.set("setup_s", median(&setups) * speed);
    e2e.set("peak_rss_mb", peak_rss_mb);
    e2e.set("success_frac", (attempted - failed) as f64 / attempted as f64);
    result_line(attempted, failed, &e2e)
}

/// Per-layer host metric of each span name: its summed self time.
const SPAN_LAYERS: [(&str, &str); 5] = [
    ("workload.generate", "workload.generate_s"),
    ("workload.oracle", "workload.oracle_s"),
    ("core.execute", "core.execute_s"),
    ("cpu-join.pro", "cpu-join.pro_s"),
    ("engines.plan", "engines.plan_s"),
];

/// The `--trace 1` run: per-layer metrics and a Chrome trace.
fn trace<W: Workload>(args: &Args) -> Result<String, String> {
    let calibration = calib::sample();
    let mut tracer = Tracer::on();
    let work = W::setup(args, &mut tracer)?;
    let before = AllocCount::now();
    let started = Instant::now();
    let round = work.round(&mut Tracer::off())?;
    let round_s = started.elapsed().as_secs_f64();
    let allocs = AllocCount::now().since(before);

    let mut layers = Metrics::new(PER_LAYER);
    work.simulated(&round, &mut Metrics::new(END_TO_END), &mut layers)?;
    layers.set("host.allocs", allocs.allocs as f64);
    layers.set("host.alloc_mb", allocs.bytes as f64 / 1e6);
    layers.set("host.calib_s", calibration);
    work.traced(&round, round_s, &mut tracer, &mut layers)?;
    let own = tracer.self_seconds();
    for (span, metric) in SPAN_LAYERS {
        if let Some(secs) = own.get(span) {
            layers.set(metric, *secs);
        }
    }

    let name = args.workload.name();
    let path = Path::new(TRACE_DIR).join(format!("{name}-seed{}.trace.json", args.seed));
    tracer
        .write_chrome_trace(&format!("hcj-perfbench {name} seed {}", args.seed), &path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("{} spans written to {}", tracer.spans().len(), path.display());
    let (attempted, failed) = work.outcomes(&round);
    result_line(attempted, failed, &layers)
}

fn run(args: &Args) -> Result<String, String> {
    match (args.workload, args.trace) {
        (WorkloadName::PaperLadder, false) => measure::<ladder::Ladder>(args),
        (WorkloadName::PaperLadder, true) => trace::<ladder::Ladder>(args),
        (_, false) => measure::<serving::Serving>(args),
        (_, true) => trace::<serving::Serving>(args),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    hcj_host::pool::set_jobs(WORKERS);
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("hcj-perfbench: FAILED: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let args = parse_args(&argv(&[
            "--workload",
            "fleet-exchange",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload, WorkloadName::FleetExchange);
        assert_eq!((args.seed, args.seconds, args.trace, args.wrong_check), (42, 10, true, false));
        assert!(parse_args(&argv(&["--seed", "1"])).is_err(), "workload is required");
        assert!(parse_args(&argv(&["--workload", "hit"])).is_err());
        assert!(parse_args(&argv(&["--workload", "serve-skew", "--trace", "2"])).is_err());
        assert!(parse_args(&argv(&["--workload", "serve-skew", "--seconds", "0"])).is_err());
        assert!(parse_args(&argv(&["--workload", "serve-skew", "--seed"])).is_err());
        assert!(parse_args(&argv(&["--workload", "serve-skew", "--wrong-check"])).is_err());
        for (name, w) in WorkloadName::ALL {
            assert_eq!(w.name(), name);
        }
    }

    #[test]
    fn warm_up_seed_differs_from_the_measured_seed() {
        for seed in (0..10_000).chain([u64::MAX, 0x57A2_4D0B_5EED_0001]) {
            assert_ne!(warm_seed(seed), seed);
        }
    }
}
