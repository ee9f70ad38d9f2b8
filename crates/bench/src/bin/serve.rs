//! `serve` — deterministic closed-loop soak of the multi-tenant join
//! service (`hcj_engines::service`).
//!
//! ```text
//! serve [--quick] [--seed S] [--jobs N] [--clients N] [--requests N]
//!       [--capacity-div K] [--chaos SEED] [--deadline-ms MS] [--trace DIR]
//!       [--cache] [--popularity-skew THETA] [--plan {chain|star}]
//!       [--devices N] [--exchange] [--device-mix LIST]
//! ```
//!
//! Drives N seeded closed-loop clients with mixed relation sizes, skews
//! and payload widths against one shared (simulated) GPU, then prints the
//! service summary. The summary on stdout is byte-for-byte identical for
//! the same `--seed` at any `--jobs` count — the CI soak step diffs two
//! runs. Wall-clock timing goes to stderr. `--trace DIR` writes the whole
//! run as one Chrome `trace_event` timeline (a track per client, router
//! and CPU-fallback tracks, and per device an execution track, a health
//! track and memory counters).
//!
//! Defaults contend hard on purpose: the device is the paper's GTX 1080
//! with capacity divided by `--capacity-div` (default 16384 → 512 KB), so
//! a few resident joins fill it and later arrivals must queue, back off
//! and degrade down the strategy ladder.
//!
//! `--chaos SEED` arms the deterministic fault plan (`FaultConfig::chaos`)
//! on the simulated device: transient transfer/kernel faults, stalls,
//! sticky device-lost, capacity shrinks. Seed 0 compiles the fault layer
//! in but disables every probability — output must match a run without
//! the flag. `--deadline-ms MS` gives every request a virtual-time budget;
//! expired requests cancel, release their reservation and report
//! `deadline-exceeded`. With either flag the exit check relaxes from
//! "everything completed" to "every request is accounted for (completed,
//! deadline-exceeded or typed error), every finished request passed the
//! oracle, and no internal invariant broke".
//!
//! `--cache` enables the device-resident build-side cache: requests whose
//! build side matches a resident cached table (same catalog id and
//! content version) skip the rebuild and probe it in place. `--popularity-
//! skew THETA` switches the workload to skewed serving traffic: build
//! sides drawn Zipf(THETA) from a catalog of 12 versioned dimension
//! tables (one content update every 40 draws), the traffic the cache is
//! for. The two compose — a skewed run without `--cache` is the baseline
//! a cached run's counters are compared against.
//!
//! `--plan {chain|star}` switches every request to a whole 2–4-join query
//! plan executed as an operator DAG on the service: dimension sides drawn
//! with Zipf popularity from the same catalog (THETA from
//! `--popularity-skew`, default 0.75), intermediates pinned device-
//! resident when they fit or spilled to the host, named build sides
//! consulting the cache when `--cache` is on. The summary gains plan
//! lines (requests, ops, pinned/spilled intermediates) and stays
//! byte-identical across `--jobs` counts.
//!
//! `--devices N` (N >= 2) shards the service across N simulated GPUs
//! (`hcj_engines::fleet`): consistent-hash tenant routing with
//! spill-to-least-loaded, per-device fault streams, circuit breakers and
//! device-lost failover — a lost device drains its admitted requests,
//! releases every reservation and cache pin, and re-routes the queue to
//! survivors (CPU when the fleet is saturated). The summary gains fleet
//! and per-device lines and stays byte-identical across `--jobs` counts.
//! `--devices 1` (the default) is the one-device case of the same event
//! loop: a lone device acts on no health observation (it has no device
//! to fail over to) and the summary carries no fleet lines.
//!
//! `--exchange` (requires a fleet) lets the planner admit joins that
//! overflow every single device as cross-device partitioned exchanges
//! (`hcj_engines::exchange`): both inputs are radix-partitioned, the
//! partitions are spread over the serving devices by a weighted
//! consistent-hash ring, non-local partitions are shuffled over the
//! modeled interconnect, and the per-device partial joins are merged in
//! partition order. The summary gains `executed cross-device` and
//! `exchange out / in` lines when any request takes that path; without
//! the flag (the default) output is byte-identical to pre-exchange
//! builds. `--device-mix LIST` (comma-separated device names, e.g.
//! `gtx1080,v100,gtx1080`; implies a fleet of that size) serves on a
//! heterogeneous fleet — each device's capacity comes from its own spec
//! (scaled by `--capacity-div`) and exchange partition ownership is
//! weighted by device memory bandwidth, so the V100 owns more
//! partitions than a GTX 1080. See `FLEET.md` for the protocol.

use std::process::ExitCode;
use std::time::Instant;

use hcj_core::GpuJoinConfig;
use hcj_engines::service::{
    mixed_workload, plan_workload, skewed_workload, JoinService, PlanShape, ServiceConfig,
};
use hcj_engines::{BuildCacheConfig, FleetConfig, FleetService, HcjEngine};
use hcj_gpu::{DeviceSpec, FaultConfig};
use hcj_sim::{SimTime, TraceExporter};

const USAGE: &str = "usage: serve [--quick] [--seed S] [--jobs N] [--clients N] [--requests N] \
                     [--capacity-div K] [--chaos SEED] [--deadline-ms MS] [--trace DIR] \
                     [--cache] [--popularity-skew THETA] [--plan {chain|star}] [--devices N] \
                     [--exchange] [--device-mix LIST]";

/// Catalog size of the skewed-popularity and plan workloads.
const CATALOG_SIZE: usize = 12;
/// One catalog relation receives a content update every this many draws.
const BUMP_EVERY: usize = 40;

/// Everything the command line can configure, parsed before any of it is
/// acted on. Parsing is pure: a bad later flag must not leave earlier
/// flags half-applied (`--jobs` used to mutate the global pool from
/// inside the parse loop).
#[derive(Debug, PartialEq)]
struct Opts {
    seed: u64,
    quick: bool,
    jobs: Option<usize>,
    clients: usize,
    requests: usize,
    capacity_div: u64,
    chaos: Option<u64>,
    deadline_ms: Option<u64>,
    trace_dir: Option<std::path::PathBuf>,
    cache: bool,
    popularity_skew: Option<f64>,
    plan: Option<PlanShape>,
    devices: usize,
    exchange: bool,
    device_mix: Vec<String>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            seed: 1,
            quick: false,
            jobs: None,
            clients: 16,
            requests: 25,
            capacity_div: 1 << 14, // 512 KB of the 8 GB part
            chaos: None,
            deadline_ms: None,
            trace_dir: None,
            cache: false,
            popularity_skew: None,
            plan: None,
            devices: 1,
            exchange: false,
            device_mix: Vec::new(),
        }
    }
}

/// Device names `--device-mix` accepts, mapped to their specs in
/// [`mix_spec`]. Kept as data so the error message stays in sync.
const MIX_NAMES: [&str; 2] = ["gtx1080", "v100"];

fn mix_spec(name: &str, capacity_div: u64) -> DeviceSpec {
    match name {
        "gtx1080" => DeviceSpec::gtx1080().scaled_capacity(capacity_div),
        "v100" => DeviceSpec::v100().scaled_capacity(capacity_div),
        other => unreachable!("parse_args validated device names, got `{other}`"),
    }
}

/// Parse the argument list into [`Opts`] without touching any global
/// state. `Err` carries the message to print; the caller decides what to
/// do about it (and only applies side effects after an `Ok`).
fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => opts.quick = true,
            "--seed" => {
                i += 1;
                let v = args
                    .get(i)
                    .and_then(|v| v.parse::<u64>().ok())
                    .ok_or("--seed needs an integer")?;
                opts.seed = v;
            }
            "--jobs" => {
                i += 1;
                let v = args
                    .get(i)
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|v| (1..=256).contains(v))
                    .ok_or("--jobs needs an integer between 1 and 256")?;
                opts.jobs = Some(v);
            }
            "--clients" => {
                i += 1;
                let v = args
                    .get(i)
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&v| v >= 1)
                    .ok_or("--clients needs a positive integer")?;
                opts.clients = v;
            }
            "--requests" => {
                i += 1;
                let v = args
                    .get(i)
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&v| v >= 1)
                    .ok_or("--requests needs a positive integer (per client)")?;
                opts.requests = v;
            }
            "--capacity-div" => {
                i += 1;
                let v = args
                    .get(i)
                    .and_then(|v| v.parse::<u64>().ok())
                    .filter(|&v| v >= 1)
                    .ok_or("--capacity-div needs a positive integer")?;
                opts.capacity_div = v;
            }
            "--chaos" => {
                i += 1;
                let v = args
                    .get(i)
                    .and_then(|v| v.parse::<u64>().ok())
                    .ok_or("--chaos needs an integer seed (0 disables every fault)")?;
                opts.chaos = Some(v);
            }
            "--deadline-ms" => {
                i += 1;
                let v = args
                    .get(i)
                    .and_then(|v| v.parse::<u64>().ok())
                    .filter(|&v| v >= 1)
                    .ok_or("--deadline-ms needs a positive integer (virtual milliseconds)")?;
                opts.deadline_ms = Some(v);
            }
            "--trace" => {
                i += 1;
                let dir = args.get(i).ok_or("--trace needs a directory")?;
                opts.trace_dir = Some(dir.into());
            }
            "--cache" => opts.cache = true,
            "--popularity-skew" => {
                i += 1;
                let v = args
                    .get(i)
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|v| v.is_finite() && *v >= 0.0)
                    .ok_or("--popularity-skew needs a Zipf exponent >= 0 (0 = uniform)")?;
                opts.popularity_skew = Some(v);
            }
            "--plan" => {
                i += 1;
                let shape = match args.get(i).map(String::as_str) {
                    Some("chain") => PlanShape::Chain,
                    Some("star") => PlanShape::Star,
                    _ => return Err("--plan needs a shape: chain or star".into()),
                };
                opts.plan = Some(shape);
            }
            "--devices" => {
                i += 1;
                let v = args
                    .get(i)
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|v| (1..=32).contains(v))
                    .ok_or("--devices needs an integer between 1 and 32")?;
                opts.devices = v;
            }
            "--exchange" => opts.exchange = true,
            "--device-mix" => {
                i += 1;
                let list = args.get(i).ok_or("--device-mix needs a comma-separated list")?;
                let names: Vec<String> = list.split(',').map(str::to_string).collect();
                if names.len() < 2 || names.len() > 32 {
                    return Err("--device-mix needs between 2 and 32 devices".into());
                }
                if let Some(bad) = names.iter().find(|n| !MIX_NAMES.contains(&n.as_str())) {
                    return Err(format!(
                        "--device-mix: unknown device `{bad}` (known: {})",
                        MIX_NAMES.join(", ")
                    ));
                }
                opts.device_mix = names;
            }
            other => return Err(format!("unknown option `{other}`\n{USAGE}")),
        }
        i += 1;
    }
    // Cross-flag validation, still before any side effect.
    if !opts.device_mix.is_empty() && opts.devices > 1 {
        return Err("--device-mix already fixes the fleet size; drop --devices".into());
    }
    if opts.exchange && opts.devices < 2 && opts.device_mix.is_empty() {
        return Err("--exchange needs a fleet: pass --devices N (N >= 2) or --device-mix".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    // Side effects only after the whole command line parsed.
    if let Some(jobs) = opts.jobs {
        hcj_host::pool::set_jobs(jobs);
    }
    let Opts {
        seed,
        quick,
        clients,
        requests,
        capacity_div,
        chaos,
        deadline_ms,
        trace_dir,
        cache,
        popularity_skew,
        plan,
        devices,
        exchange,
        device_mix,
        ..
    } = opts;
    // A mix fixes the fleet width; parse_args rejected combining it with
    // --devices, so this count is the one the header and service use.
    let fleet_width = if device_mix.is_empty() { devices } else { device_mix.len() };
    // Quick mode: the CI soak — 8 clients x 25 requests = 200, small
    // relations, same contention regime. Plans carry 2-4 joins each, so
    // their quick run issues fewer, heavier requests.
    let (clients, requests, base_tuples) = match (quick, plan.is_some()) {
        (true, false) => (8, 25, 1_000),
        (true, true) => (4, 6, 1_000),
        (false, _) => (clients, requests, 2_000),
    };

    let device = DeviceSpec::gtx1080().scaled_capacity(capacity_div);
    // Buckets tuned for the largest build side the workload can draw
    // (4 * base_tuples); radix bits stay above the co-processing CPU bits.
    let mut join_config = GpuJoinConfig::paper_default(device.clone())
        .with_radix_bits(8)
        .with_tuned_buckets(4 * base_tuples);
    if let Some(fault_seed) = chaos {
        // Seed 0: fault layer armed but every probability zero — a
        // determinism control, not a chaos run.
        let cfg =
            if fault_seed == 0 { FaultConfig::disabled(0) } else { FaultConfig::chaos(fault_seed) };
        join_config = join_config.with_faults(cfg);
    }
    let engine = HcjEngine::new(join_config);
    let deadline = deadline_ms.map(|ms| SimTime::from_nanos(ms * 1_000_000));
    let cache_config = cache.then(BuildCacheConfig::default);
    let service_config = ServiceConfig::default().with_deadline(deadline).with_cache(cache_config);
    let workload = match (plan, popularity_skew) {
        (Some(shape), theta) => plan_workload(
            shape,
            clients,
            requests,
            base_tuples,
            CATALOG_SIZE,
            theta.unwrap_or(0.75),
            BUMP_EVERY,
            seed,
        ),
        (None, Some(theta)) => {
            skewed_workload(clients, requests, base_tuples, CATALOG_SIZE, theta, BUMP_EVERY, seed)
        }
        (None, None) => mixed_workload(clients, requests, base_tuples, seed),
    };
    let total: usize = workload.iter().map(|c| c.requests.len()).sum();

    println!(
        "# hcj join service soak — seed {seed}, {clients} clients x {requests} requests, \
         device {} KB, chaos {}, deadline {}, cache {}, skew {}{}{}",
        device.device_mem_bytes >> 10,
        match chaos {
            Some(s) => format!("seed {s}"),
            None => "off".into(),
        },
        match deadline_ms {
            Some(ms) => format!("{ms} ms"),
            None => "none".into(),
        },
        if cache { "on" } else { "off" },
        match (plan, popularity_skew) {
            (Some(_), theta) => format!("zipf {}", theta.unwrap_or(0.75)),
            (None, Some(theta)) => format!("zipf {theta}"),
            (None, None) => "mixed".into(),
        },
        match plan {
            Some(PlanShape::Chain) => ", plan chain",
            Some(PlanShape::Star) => ", plan star",
            None => "",
        },
        // Fleet runs announce their topology; --devices 1 keeps the
        // header (and everything after it) byte-identical to pre-fleet
        // builds.
        match (fleet_width > 1, device_mix.is_empty(), exchange) {
            (false, ..) => String::new(),
            (true, true, false) => format!(", fleet {fleet_width} devices"),
            (true, true, true) => format!(", fleet {fleet_width} devices, exchange on"),
            (true, false, false) => format!(", fleet mix {}", device_mix.join("+")),
            (true, false, true) => {
                format!(", fleet mix {}, exchange on", device_mix.join("+"))
            }
        },
    );
    let started = Instant::now();
    let report = if fleet_width > 1 {
        let mut fleet_config = if device_mix.is_empty() {
            FleetConfig::new(fleet_width)
        } else {
            let specs = device_mix.iter().map(|n| mix_spec(n, capacity_div)).collect();
            FleetConfig::new(0).with_device_mix(specs)
        };
        if exchange {
            fleet_config = fleet_config.with_exchange();
        }
        FleetService::new(engine, service_config, fleet_config).run(&workload)
    } else {
        JoinService::new(engine, service_config).run(&workload)
    };
    eprintln!("  [{total} requests served in {:.1?} wall-clock]", started.elapsed());

    print!("{}", report.summary());

    if let Some(dir) = &trace_dir {
        let path = dir.join(format!("service_seed{seed}.trace.json"));
        if let Err(e) = TraceExporter::new().write_timeline(&report.timeline, &path) {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("  [service timeline written to {}]", path.display());
    }

    if !report.invariant_violations.is_empty() {
        eprintln!("FAIL: {} internal invariant violation(s)", report.invariant_violations.len());
        for v in &report.invariant_violations {
            eprintln!("  - {v}");
        }
        return ExitCode::FAILURE;
    }
    let chaotic = chaos.is_some_and(|s| s != 0) || deadline_ms.is_some();
    if chaotic {
        // Under chaos/deadlines some requests may legitimately cancel or
        // fail — but every one must be accounted for with a typed outcome,
        // and every request that did finish must be oracle-correct.
        let accounted = report.completed() + report.deadline_exceeded() + report.errored();
        if accounted != total || report.checks_passed() != report.completed() {
            eprintln!(
                "FAIL: {accounted}/{total} accounted for, {}/{} finished requests passed the \
                 oracle",
                report.checks_passed(),
                report.completed()
            );
            return ExitCode::FAILURE;
        }
    } else if report.completed() != total || report.checks_passed() != total {
        eprintln!(
            "FAIL: {}/{} completed, {}/{} oracle checks passed",
            report.completed(),
            total,
            report.checks_passed(),
            total
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn failed_parses_are_side_effect_free() {
        // A parse that dies on a *later* flag must not have applied an
        // earlier one: `--jobs 7` parses fine here, but the bogus flag
        // fails the whole command line, and the global pool stays as it
        // was (set_jobs only runs in main, after a successful parse).
        hcj_host::pool::set_jobs(1);
        let before = hcj_host::pool::jobs();
        assert!(parse_args(&argv(&["--jobs", "7", "--bogus"])).is_err());
        assert!(parse_args(&argv(&["--jobs", "7", "--plan", "ring"])).is_err());
        assert!(parse_args(&argv(&["--jobs", "0"])).is_err());
        assert!(parse_args(&argv(&["--jobs", "999"])).is_err());
        assert!(parse_args(&argv(&["--jobs"])).is_err());
        assert_eq!(hcj_host::pool::jobs(), before, "failed parses must not touch the pool");
        // A successful parse records the request without applying it.
        let opts = parse_args(&argv(&["--jobs", "7"])).unwrap();
        assert_eq!(opts.jobs, Some(7));
        assert_eq!(hcj_host::pool::jobs(), before, "parsing must never touch the pool");
    }

    #[test]
    fn plan_flag_parses_both_shapes_and_rejects_junk() {
        assert_eq!(parse_args(&argv(&["--plan", "chain"])).unwrap().plan, Some(PlanShape::Chain));
        assert_eq!(parse_args(&argv(&["--plan", "star"])).unwrap().plan, Some(PlanShape::Star));
        assert!(parse_args(&argv(&["--plan"])).is_err());
        assert!(parse_args(&argv(&["--plan", "tree"])).is_err());
        assert_eq!(parse_args(&argv(&[])).unwrap().plan, None);
    }

    #[test]
    fn devices_flag_parses_and_rejects_out_of_range() {
        assert_eq!(parse_args(&argv(&["--devices", "3"])).unwrap().devices, 3);
        assert_eq!(parse_args(&argv(&["--devices", "1"])).unwrap().devices, 1);
        assert_eq!(parse_args(&argv(&[])).unwrap().devices, 1, "default is the unsharded service");
        assert!(parse_args(&argv(&["--devices", "0"])).is_err());
        assert!(parse_args(&argv(&["--devices", "33"])).is_err());
        assert!(parse_args(&argv(&["--devices"])).is_err());
    }

    #[test]
    fn exchange_flag_requires_a_fleet() {
        assert!(parse_args(&argv(&["--exchange"])).is_err(), "needs --devices or --device-mix");
        assert!(parse_args(&argv(&["--exchange", "--devices", "1"])).is_err());
        let opts = parse_args(&argv(&["--exchange", "--devices", "3"])).unwrap();
        assert!(opts.exchange);
        assert_eq!(opts.devices, 3);
        let opts = parse_args(&argv(&["--exchange", "--device-mix", "gtx1080,v100"])).unwrap();
        assert!(opts.exchange);
        assert!(!parse_args(&argv(&["--devices", "3"])).unwrap().exchange, "default is off");
    }

    #[test]
    fn device_mix_parses_known_names_and_rejects_junk() {
        let opts = parse_args(&argv(&["--device-mix", "gtx1080,v100,gtx1080"])).unwrap();
        assert_eq!(opts.device_mix, vec!["gtx1080", "v100", "gtx1080"]);
        assert!(parse_args(&argv(&["--device-mix"])).is_err());
        assert!(parse_args(&argv(&["--device-mix", "v100"])).is_err(), "one device is no fleet");
        assert!(parse_args(&argv(&["--device-mix", "gtx1080,titanx"])).is_err(), "unknown name");
        assert!(
            parse_args(&argv(&["--device-mix", "gtx1080,v100", "--devices", "3"])).is_err(),
            "the mix fixes the fleet size"
        );
        // Every accepted name maps to a spec without panicking.
        for name in MIX_NAMES {
            let _ = mix_spec(name, 1 << 14);
        }
    }

    #[test]
    fn defaults_survive_a_full_flag_soup() {
        let opts = parse_args(&argv(&[
            "--quick",
            "--seed",
            "9",
            "--cache",
            "--popularity-skew",
            "1.25",
            "--plan",
            "star",
            "--capacity-div",
            "256",
        ]))
        .unwrap();
        assert!(opts.quick && opts.cache);
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.capacity_div, 256);
        assert_eq!(opts.popularity_skew, Some(1.25));
        assert_eq!(opts.plan, Some(PlanShape::Star));
        // Untouched flags keep their defaults.
        assert_eq!(opts.clients, 16);
        assert_eq!(opts.requests, 25);
        assert_eq!(opts.chaos, None);
    }
}
