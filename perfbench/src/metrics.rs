//! Metric tables, the statistics behind them, and the one-line JSON result.
//!
//! The tables below are the benchmark's contract: `BENCHMARK.json` lists
//! the same names and units (a self-test keeps the two in step), and every
//! run prints every metric of its table, in table order.

use hcj_gpu::CounterRollup;

/// End-to-end metrics, printed by `--trace 0` runs. Simulated metrics use
/// the simulated clock and repeat bit for bit for one seed; host metrics
/// use the wall clock, scaled to the reference host speed.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_btps", "Gtuple/sim-s"),
    ("sim_p50_us", "sim-us"),
    ("sim_tail_us", "sim-us"),
    ("host_mtps", "Mtuple/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_frac", "frac"),
];

/// Per-layer metrics, printed by `--trace 1` runs. A layer a workload does
/// not exercise reads 0 there (README.md maps each metric to the
/// end-to-end metric and workload it should move).
pub const PER_LAYER: &[(&str, &str)] = &[
    // Host clock: self time of the spans around each layer's calls.
    ("workload.generate_s", "s"),
    ("workload.oracle_s", "s"),
    ("core.execute_s", "s"),
    ("cpu-join.pro_s", "s"),
    ("engines.plan_s", "s"),
    ("engines.loop_s", "s"),
    ("host.allocs", "count"),
    ("host.alloc_mb", "MB"),
    ("host.calib_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_s", "s"),
    // Simulated clock: latency samples behind sim_p50_us and sim_tail_us.
    ("sim.latency_samples", "count"),
    ("sim.tail_percentile", "pct"),
    // Simulated clock: summed phase breakdown of the executed joins.
    ("core.part_us", "sim-us"),
    ("core.join_us", "sim-us"),
    ("core.h2d_us", "sim-us"),
    ("core.d2h_us", "sim-us"),
    ("core.cpu_part_us", "sim-us"),
    ("core.stage_us", "sim-us"),
    // Simulated throughput per executed strategy, with its error against
    // the paper's reference (0 where no reference applies).
    ("core.resident_btps", "Gtuple/sim-s"),
    ("core.resident_paper_err", "frac"),
    ("core.streamed_btps", "Gtuple/sim-s"),
    ("core.streamed_paper_err", "frac"),
    ("core.coproc_btps", "Gtuple/sim-s"),
    ("core.coproc_paper_err", "frac"),
    // Simulated hardware counters.
    ("gpu.kernel_launches", "count"),
    ("gpu.pcie_transfers", "count"),
    ("gpu.device_mb", "MB"),
    ("gpu.h2d_mb", "MB"),
    ("gpu.d2h_mb", "MB"),
    ("gpu.coalescing", "frac"),
    ("gpu.device_peak_frac", "frac"),
    // The service: queueing, admission and strategy choice.
    ("engines.service.wait_share", "frac"),
    ("engines.service.wait_p99_us", "sim-us"),
    ("engines.service.retries", "count"),
    ("engines.service.degraded", "count"),
    ("engines.service.backpressured", "count"),
    ("engines.facade.resident", "count"),
    ("engines.facade.streamed", "count"),
    ("engines.facade.coproc", "count"),
    ("engines.facade.cross_device", "count"),
    ("engines.facade.cpu_fallback", "count"),
    ("engines.cache.lookups", "count"),
    ("engines.cache.hit_ratio", "frac"),
    ("engines.cache.evictions", "count"),
    ("engines.cache.reclaims", "count"),
    ("engines.cache.invalidations", "count"),
    ("engines.dag.ops", "count"),
    ("engines.dag.pin_ratio", "frac"),
    ("engines.fleet.admit_imbalance", "ratio"),
    ("engines.fleet.rerouted", "count"),
    ("engines.fleet.cpu_spilled", "count"),
    ("engines.exchange.joins", "count"),
    ("engines.exchange.transfers", "count"),
    ("engines.exchange.mb", "MB"),
    ("engines.exchange.bytes_per_input_byte", "ratio"),
];

/// A metric name: starts with a letter or digit, at most 64 characters of
/// `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let first_ok = name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Values for every metric of one table, printed in table order.
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl Metrics {
    /// Every metric of `table`, each starting at 0.
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Metrics {
        assert!(table.iter().all(|(name, _)| valid_name(name)), "metric names are checked");
        Metrics { table, values: vec![0.0; table.len()] }
    }

    /// Set `name`, which must be in this table.
    pub fn set(&mut self, name: &str, value: f64) {
        let idx = self.table.iter().position(|(n, _)| *n == name);
        let idx = idx.unwrap_or_else(|| panic!("metric `{name}` is not in this table"));
        self.values[idx] = value;
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.table.iter().position(|(n, _)| *n == name).map(|i| self.values[i])
    }

    /// The `metrics` object of the result line. `Err` on a non-finite
    /// value: JSON has no spelling for it, and it means a zero base.
    pub fn to_json(&self) -> Result<String, String> {
        let mut fields = Vec::with_capacity(self.table.len());
        for ((name, unit), value) in self.table.iter().zip(&self.values) {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
        Ok(format!("{{{}}}", fields.join(", ")))
    }
}

/// Set the simulated hardware-counter metrics from `counters`.
pub fn set_counters(counters: &CounterRollup, layers: &mut Metrics) {
    layers.set("gpu.kernel_launches", counters.kernel_launches as f64);
    layers.set("gpu.pcie_transfers", counters.transfers as f64);
    layers.set("gpu.device_mb", counters.device_bytes as f64 / 1e6);
    layers.set("gpu.h2d_mb", counters.h2d_bytes as f64 / 1e6);
    layers.set("gpu.d2h_mb", counters.d2h_bytes as f64 / 1e6);
    layers.set("gpu.coalescing", counters.coalescing_efficiency());
}

/// Set the `core.*_us` metrics from a summed phase breakdown, in
/// simulated microseconds, ordered as `hcj_core::Phase::ALL`.
pub fn set_phases(phases_us: [f64; 6], layers: &mut Metrics) {
    let names = ["part", "join", "h2d", "d2h", "cpu_part", "stage"];
    for (name, us) in names.iter().zip(phases_us) {
        layers.set(&format!("core.{name}_us"), us);
    }
}

/// The result line: `attempted` operations, `failed` of them, metrics.
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> Result<String, String> {
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()?
    ))
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100) of ascending `sorted`, with
/// the number of samples that lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> (f64, usize) {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    // The epsilon keeps binary rounding of `p / 100 * n` from pushing an
    // exact rank up by one.
    let rank = ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A reported tail: its percentile, its value, and the samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub beyond: usize,
}

/// Percentile `p` of `sorted`, or `None` when fewer than
/// [`TAIL_MIN_BEYOND`] samples lie beyond it.
pub fn tail(sorted: &[f64], p: f64) -> Option<Tail> {
    if sorted.is_empty() {
        return None;
    }
    let (value, beyond) = percentile(sorted, p);
    (beyond >= TAIL_MIN_BEYOND).then_some(Tail { percentile: p, value, beyond })
}

/// The highest of p99.9, p99, p90 and p75 that the sample supports.
pub fn highest_tail(sorted: &[f64]) -> Option<Tail> {
    [99.9, 99.0, 90.0, 75.0].into_iter().find_map(|p| tail(sorted, p))
}

/// Set `sim_p50_us` and `sim_tail_us` from simulated latencies in
/// microseconds, and the per-layer sample count and percentile behind
/// them.
pub fn latency_metrics(
    mut latencies_us: Vec<f64>,
    e2e: &mut Metrics,
    layers: &mut Metrics,
) -> Result<(), String> {
    latencies_us.sort_by(f64::total_cmp);
    let n = latencies_us.len();
    let tail = highest_tail(&latencies_us)
        .ok_or_else(|| format!("{n} latency samples support no tail percentile"))?;
    e2e.set("sim_p50_us", percentile(&latencies_us, 50.0).0);
    e2e.set("sim_tail_us", tail.value);
    layers.set("sim.latency_samples", n as f64);
    layers.set("sim.tail_percentile", tail.percentile);
    eprintln!("sim_tail_us is p{} of {n} samples ({} beyond it)", tail.percentile, tail.beyond);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_omitted_with_fewer_than_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000: rank 990, ten samples beyond — reported.
        assert_eq!(tail(&samples, 99.0), Some(Tail { percentile: 99.0, value: 990.0, beyond: 10 }));
        // p99.9 of 1000 leaves one sample beyond it — omitted.
        assert_eq!(tail(&samples, 99.9), None);
        assert_eq!(highest_tail(&samples).unwrap().percentile, 99.0);
        // 999 samples: p99 is rank 990 with 9 beyond, so p90 is the tail.
        let fewer = &samples[..999];
        assert_eq!(tail(fewer, 99.0), None);
        let t = highest_tail(fewer).unwrap();
        assert_eq!((t.percentile, t.beyond), (90.0, 99));
        // 40 samples support p75 (10 beyond); 39 support no tail at all.
        assert_eq!(highest_tail(&samples[..40]).unwrap().percentile, 75.0);
        assert_eq!(highest_tail(&samples[..39]), None);
        assert_eq!(tail(&[], 50.0), None);
    }

    #[test]
    fn latency_metrics_record_the_sample_count() {
        let mut e2e = Metrics::new(END_TO_END);
        let mut layers = Metrics::new(PER_LAYER);
        let samples: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        latency_metrics(samples, &mut e2e, &mut layers).unwrap();
        assert_eq!(e2e.get("sim_p50_us"), Some(20.0));
        assert_eq!(e2e.get("sim_tail_us"), Some(30.0));
        assert_eq!(layers.get("sim.latency_samples"), Some(40.0));
        assert_eq!(layers.get("sim.tail_percentile"), Some(75.0));
        let too_few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert!(latency_metrics(too_few, &mut e2e, &mut layers).is_err());
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
        }
        assert!(valid_name("cpu-join.pro_s"));
        for bad in
            ["", ".leading_dot", "_under", "space name", "slash/name", "ünï", &"x".repeat(65)]
        {
            assert!(!valid_name(bad), "{bad:?} must be rejected");
        }
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "metric names are unique");
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = json.chars().filter(|c| !c.is_whitespace()).collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = compact.matches("\"better\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len(), "no extra metrics listed");
    }

    #[test]
    fn result_line_prints_every_metric_with_its_unit() {
        let mut m = Metrics::new(END_TO_END);
        m.set("sim_btps", 1.25);
        let line = result_line(3, 0, &m).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"sim_btps\": {\"value\": 1.25, \"unit\": \"Gtuple/sim-s\"}"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": ")));
        }
        m.set("setup_s", f64::NAN);
        assert!(result_line(3, 0, &m).is_err());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
