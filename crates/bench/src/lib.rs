//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation section (Figs. 5–22) plus ablations of the design
//! choices, printing the same series the paper plots and writing CSV.
//!
//! Run via the `repro` binary:
//!
//! ```text
//! cargo run --release -p hcj-bench --bin repro -- all
//! cargo run --release -p hcj-bench --bin repro -- fig8 --scale 32
//! cargo run --release -p hcj-bench --bin repro -- ablations --out results/
//! ```
//!
//! ## Scale
//!
//! The paper's largest experiments use multi-billion-tuple relations on an
//! 8 GB GPU. `--scale k` divides every cardinality by `k` and shrinks
//! device capacity (and the engine models' internal limits) with it, so
//! capacity *ratios* — and therefore strategy crossovers and pipeline
//! bottlenecks — are preserved while bandwidths stay physical. Figures
//! whose effects are capacity-absolute (shared-memory sizing, Figs. 5–10)
//! keep the device unscaled and shrink only cardinalities. The default
//! scale per figure is chosen to complete in minutes on one core; the
//! scale used is printed in each table's notes and recorded in
//! EXPERIMENTS.md.

pub mod figures;
pub mod perfgate;
pub mod report;

pub use report::Table;

use std::path::PathBuf;

/// Largest accepted `--scale`. Beyond this even the paper's biggest
/// cardinalities (2048 M tuples) divide below the 1024-tuple floor, so
/// every sweep collapses to one flat point and the figures say nothing.
pub const MAX_SCALE: u64 = 1 << 20;

/// Harness-wide run configuration.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Divide paper cardinalities (and out-of-GPU device capacity) by this.
    pub scale: u64,
    /// Reduce sweep points (for smoke tests / CI).
    pub quick: bool,
    /// Write `<id>.csv` per figure here.
    pub out_dir: Option<PathBuf>,
    /// Write `<name>.trace.json` Chrome traces of representative schedules
    /// here (`repro --trace DIR`); `None` disables tracing.
    pub trace_dir: Option<PathBuf>,
    /// Surface the simulated hardware counters (`repro --profile`): print
    /// an nvprof-style per-kernel table under each figure, write
    /// `<name>.profile.json` next to the CSVs, and overlay counter tracks
    /// on Chrome traces. Collection is always on; this only gates output.
    pub profile: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig { scale: 16, quick: false, out_dir: None, trace_dir: None, profile: false }
    }
}

impl RunConfig {
    /// Export `schedule` as `<trace_dir>/<name>.trace.json` when tracing is
    /// enabled. Trace failures warn rather than abort: a full repro run
    /// should not die on a read-only output directory.
    pub fn trace_schedule(&self, name: &str, schedule: &hcj_sim::Schedule) {
        let Some(dir) = &self.trace_dir else { return };
        let path = dir.join(format!("{name}.trace.json"));
        if let Err(e) = hcj_sim::TraceExporter::new().write(schedule, &path) {
            eprintln!("warning: failed to write trace {}: {e}", path.display());
        }
    }

    /// Export `schedule` with the counter tracks of `counters` overlaid
    /// (`--trace` + `--profile`); without `--profile` this is
    /// [`RunConfig::trace_schedule`]. Warns rather than aborts, like all
    /// output paths.
    pub fn trace_schedule_profiled(
        &self,
        name: &str,
        schedule: &hcj_sim::Schedule,
        counters: &hcj_gpu::CounterSet,
    ) {
        if !self.profile || counters.is_empty() {
            return self.trace_schedule(name, schedule);
        }
        let Some(dir) = &self.trace_dir else { return };
        let path = dir.join(format!("{name}.trace.json"));
        let overlay = counters.counter_timeline(schedule);
        if let Err(e) = hcj_sim::TraceExporter::new().write_with_counters(schedule, &overlay, &path)
        {
            eprintln!("warning: failed to write trace {}: {e}", path.display());
        }
    }

    /// Write `<out_dir>/<name>.profile.json` when `--profile` and `--out`
    /// are both active. Warns rather than aborts.
    pub fn write_profile(&self, name: &str, counters: &hcj_gpu::CounterSet) {
        if !self.profile {
            return;
        }
        let Some(dir) = &self.out_dir else { return };
        let path = dir.join(format!("{name}.profile.json"));
        let write =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, counters.to_json()));
        if let Err(e) = write {
            eprintln!("warning: failed to write profile {}: {e}", path.display());
        }
    }
    /// A paper cardinality reduced by the configured scale (at least 1024
    /// tuples so shapes stay measurable).
    pub fn tuples(&self, paper_tuples: u64) -> usize {
        ((paper_tuples / self.scale).max(1024)) as usize
    }

    /// True when the scale floors even the paper's mid-size (16 M tuple)
    /// cardinalities to the 1024-tuple minimum — most sweeps then
    /// degenerate to flat lines and the run only smoke-tests the code.
    pub fn scale_floors_sweeps(&self) -> bool {
        self.scale > 16_000_000 / 1024
    }

    /// Millions of tuples, scaled.
    pub fn mtuples(&self, millions: u64) -> usize {
        self.tuples(millions * 1_000_000)
    }

    /// Thin a sweep to its endpoints + midpoint when `quick`.
    pub fn sweep<T: Copy>(&self, points: &[T]) -> Vec<T> {
        if !self.quick || points.len() <= 3 {
            return points.to_vec();
        }
        vec![points[0], points[points.len() / 2], points[points.len() - 1]]
    }
}

/// Billions of tuples per second, the y-axis unit of most figures.
pub fn btps(tuples_per_s: f64) -> f64 {
    tuples_per_s / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_math() {
        let cfg = RunConfig { scale: 16, ..RunConfig::default() };
        assert_eq!(cfg.mtuples(64), 4_000_000);
        assert_eq!(cfg.tuples(1_000), 1024); // floor
    }

    #[test]
    fn degenerate_scales_are_flagged() {
        let sane = RunConfig { scale: 64, ..RunConfig::default() };
        assert!(!sane.scale_floors_sweeps());
        let floored = RunConfig { scale: 20_000, ..sane.clone() };
        assert!(floored.scale_floors_sweeps());
        // Even at the acceptance bound the floor keeps runs non-zero.
        let max = RunConfig { scale: MAX_SCALE, ..sane };
        assert_eq!(max.tuples(2_048_000_000), 2_048_000_000 / MAX_SCALE as usize);
        assert_eq!(max.tuples(1_000_000), 1024);
    }

    #[test]
    fn quick_sweeps_thin_out() {
        let cfg = RunConfig { scale: 1, quick: true, ..RunConfig::default() };
        assert_eq!(cfg.sweep(&[1, 2, 3, 4, 5, 6, 7, 8]), vec![1, 5, 8]);
        assert_eq!(cfg.sweep(&[1, 2, 3]), vec![1, 2, 3]);
        let full = RunConfig { quick: false, ..cfg };
        assert_eq!(full.sweep(&[1, 2, 3, 4]), vec![1, 2, 3, 4]);
    }

    #[test]
    fn btps_scales() {
        assert_eq!(btps(4.5e9), 4.5);
    }
}
