//! Golden performance baselines and the perf-gate comparison engine.
//!
//! A [`FigureBaseline`] pins one figure's simulated performance: exact
//! integer metrics (cycle counts, byte totals, transaction counts), derived
//! floating-point ratios (coalescing efficiency, occupancy, roofline
//! attainment) compared within a relative tolerance band, and opaque text
//! metrics (output digests) compared exactly. Baselines serialize to a
//! stable hand-emitted JSON file per figure (`baselines/<figure>.json`),
//! read back with [`crate::json::parse`] so a corrupt file is a typed
//! [`BaselineError`], never a panic.
//!
//! The comparison rule is deliberately asymmetric in strictness:
//!
//! * **Exact** metrics gate bit-for-bit — the simulation is deterministic,
//!   so any drift in a cycle or byte total is a real model change.
//! * **Float** metrics gate within `tolerance` *relative* error — they are
//!   stored as decimal text, so the band absorbs formatting round-trips
//!   while still catching real ratio regressions.
//! * **Text** metrics gate exactly — they are digests.
//!
//! [`FigureBaseline::compare`] returns every violation as a [`MetricDiff`]
//! naming the figure, the metric, the baseline value and the observed
//! value, so a gate failure reads as an actionable report rather than a
//! boolean.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use crate::json;

/// Relative tolerance applied to [`Metric::Float`] comparisons by default:
/// wide enough to absorb decimal round-trips of values printed with 12
/// significant digits, narrow enough that any real ratio change trips.
pub const FLOAT_TOLERANCE: f64 = 1e-6;

/// One pinned metric value.
#[derive(Clone, Debug, PartialEq)]
pub enum Metric {
    /// Bit-exact integer quantity (cycles, bytes, transactions, launches).
    Exact(u64),
    /// Derived ratio compared within a relative tolerance band.
    Float(f64),
    /// Opaque text compared exactly (digests, config echoes).
    Text(String),
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Metric::Exact(v) => write!(f, "{v}"),
            Metric::Float(v) => write!(f, "{v:.9}"),
            Metric::Text(v) => write!(f, "{v}"),
        }
    }
}

/// One figure's golden baseline: a named bag of metrics plus the run
/// context (scale, quick, ...) it was recorded under. Context keys gate
/// exactly like text metrics — checking a baseline recorded at another
/// scale is a configuration error the gate must name, not silently accept.
#[derive(Clone, Debug, PartialEq)]
pub struct FigureBaseline {
    pub figure: String,
    pub context: BTreeMap<String, String>,
    pub metrics: BTreeMap<String, Metric>,
}

/// One gate violation: the figure, the metric, and both values.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDiff {
    pub figure: String,
    pub metric: String,
    pub baseline: String,
    pub observed: String,
}

impl fmt::Display for MetricDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}: baseline {}, observed {}",
            self.figure, self.metric, self.baseline, self.observed
        )
    }
}

/// Typed failure loading or storing a baseline file. `Missing` is split
/// from `Io` so callers can tell "never recorded" from "unreadable".
#[derive(Debug)]
pub enum BaselineError {
    /// The baseline file does not exist.
    Missing { path: PathBuf },
    /// The file exists but could not be read/written.
    Io { path: PathBuf, source: std::io::Error },
    /// The file was read but is not a valid baseline document.
    Parse { path: PathBuf, detail: String },
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::Missing { path } => {
                write!(f, "baseline file {} does not exist (run --write-baseline)", path.display())
            }
            BaselineError::Io { path, source } => {
                write!(f, "baseline file {}: {source}", path.display())
            }
            BaselineError::Parse { path, detail } => {
                write!(f, "baseline file {} is corrupt: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for BaselineError {}

impl FigureBaseline {
    pub fn new(figure: impl Into<String>) -> Self {
        FigureBaseline { figure: figure.into(), context: BTreeMap::new(), metrics: BTreeMap::new() }
    }

    /// Record a context key (e.g. `scale` → `16`).
    pub fn context(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.context.insert(key.into(), value.into());
    }

    /// Record one metric.
    pub fn metric(&mut self, name: impl Into<String>, value: Metric) {
        self.metrics.insert(name.into(), value);
    }

    /// File name this baseline stores under inside a baseline directory.
    pub fn file_name(&self) -> String {
        format!("{}.json", self.figure)
    }

    /// Compare `observed` against this baseline. Returns every violation;
    /// an empty vector means the gate passes. Exact/Text metrics and
    /// context keys compare bit-for-bit; Float metrics pass within
    /// `tolerance` relative error. Metrics present on only one side are
    /// violations too — a silently vanished counter is a regression in the
    /// harness itself.
    pub fn compare(&self, observed: &FigureBaseline, tolerance: f64) -> Vec<MetricDiff> {
        let mut diffs = Vec::new();
        let diff = |metric: &str, base: String, obs: String| MetricDiff {
            figure: self.figure.clone(),
            metric: metric.to_string(),
            baseline: base,
            observed: obs,
        };
        if self.figure != observed.figure {
            diffs.push(diff("figure", self.figure.clone(), observed.figure.clone()));
        }
        for (key, base) in &self.context {
            match observed.context.get(key) {
                Some(obs) if obs == base => {}
                Some(obs) => diffs.push(diff(&format!("context:{key}"), base.clone(), obs.clone())),
                None => {
                    diffs.push(diff(&format!("context:{key}"), base.clone(), "<absent>".into()))
                }
            }
        }
        for (key, obs) in &observed.context {
            if !self.context.contains_key(key) {
                diffs.push(diff(&format!("context:{key}"), "<absent>".into(), obs.clone()));
            }
        }
        for (name, base) in &self.metrics {
            let Some(obs) = observed.metrics.get(name) else {
                diffs.push(diff(name, base.to_string(), "<absent>".into()));
                continue;
            };
            let equal = match (base, obs) {
                (Metric::Exact(b), Metric::Exact(o)) => b == o,
                (Metric::Float(b), Metric::Float(o)) => {
                    let scale = b.abs().max(o.abs()).max(f64::MIN_POSITIVE);
                    (b - o).abs() <= tolerance * scale
                }
                (Metric::Text(b), Metric::Text(o)) => b == o,
                // A metric that changed representation is a violation.
                _ => false,
            };
            if !equal {
                diffs.push(diff(name, base.to_string(), obs.to_string()));
            }
        }
        for (name, obs) in &observed.metrics {
            if !self.metrics.contains_key(name) {
                diffs.push(diff(name, "<absent>".into(), obs.to_string()));
            }
        }
        diffs
    }

    /// Stable JSON rendering: keys sorted (BTreeMap order), floats printed
    /// with enough digits to round-trip within [`FLOAT_TOLERANCE`].
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"figure\": {},\n", json::string(&self.figure)));
        out.push_str("  \"context\": {");
        for (i, (k, v)) in self.context.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {}", json::string(k), json::string(v)));
        }
        if !self.context.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n");
        out.push_str("  \"metrics\": {");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let body = match v {
                Metric::Exact(n) => format!("{{ \"kind\": \"exact\", \"value\": {n} }}"),
                Metric::Float(x) => format!("{{ \"kind\": \"float\", \"value\": {x:.12e} }}"),
                Metric::Text(s) => {
                    format!("{{ \"kind\": \"text\", \"value\": {} }}", json::string(s))
                }
            };
            out.push_str(&format!("\n    {}: {body}", json::string(k)));
        }
        if !self.metrics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Parse a baseline document; `Err` carries a human-readable detail.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = json::parse(text)?;
        let obj = value.as_object().ok_or("top level must be an object")?;
        let figure = obj
            .get("figure")
            .and_then(json::Value::as_str)
            .ok_or("missing string field \"figure\"")?
            .to_string();
        let mut baseline = FigureBaseline::new(figure);
        if let Some(ctx) = obj.get("context") {
            let ctx = ctx.as_object().ok_or("\"context\" must be an object")?;
            for (k, v) in ctx {
                let v = v.as_str().ok_or("context values must be strings")?;
                baseline.context.insert(k.clone(), v.to_string());
            }
        }
        let metrics = obj
            .get("metrics")
            .and_then(json::Value::as_object)
            .ok_or("missing object field \"metrics\"")?;
        for (name, entry) in metrics {
            let entry = entry.as_object().ok_or("metric entries must be objects")?;
            let kind =
                entry.get("kind").and_then(json::Value::as_str).ok_or("metric without \"kind\"")?;
            let value = entry.get("value").ok_or("metric without \"value\"")?;
            let metric = match kind {
                "exact" => Metric::Exact(
                    value.as_u64().ok_or("exact metric value must be a non-negative integer")?,
                ),
                "float" => {
                    Metric::Float(value.as_f64().ok_or("float metric value must be a number")?)
                }
                "text" => {
                    Metric::Text(value.as_str().ok_or("text metric value must be a string")?.into())
                }
                other => return Err(format!("unknown metric kind {other:?}")),
            };
            baseline.metrics.insert(name.clone(), metric);
        }
        Ok(baseline)
    }

    /// Load `<dir>/<figure>.json`; typed errors for missing/corrupt files.
    pub fn load(dir: &Path, figure: &str) -> Result<Self, BaselineError> {
        let path = dir.join(format!("{figure}.json"));
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(BaselineError::Missing { path })
            }
            Err(e) => return Err(BaselineError::Io { path, source: e }),
        };
        let parsed = Self::from_json(&text)
            .map_err(|detail| BaselineError::Parse { path: path.clone(), detail })?;
        if parsed.figure != figure {
            return Err(BaselineError::Parse {
                path,
                detail: format!("file is for figure {:?}, expected {figure:?}", parsed.figure),
            });
        }
        Ok(parsed)
    }

    /// Write `<dir>/<figure>.json`, creating `dir` as needed.
    pub fn store(&self, dir: &Path) -> Result<PathBuf, BaselineError> {
        let path = dir.join(self.file_name());
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, self.to_json()))
            .map_err(|source| BaselineError::Io { path: path.clone(), source })?;
        Ok(path)
    }
}

/// FNV-1a 64-bit digest, hex-rendered: the checked-in fingerprint of whole
/// table renderings (covers every sweep point without a metric per cell).
pub fn fnv64_hex(data: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in data.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FigureBaseline {
        let mut b = FigureBaseline::new("fig99");
        b.context("scale", "16");
        b.context("quick", "true");
        b.metric("cycles[gpu 4M]", Metric::Exact(8_123_456));
        b.metric("coalescing[gpu 4M]", Metric::Float(0.998_877_665_5));
        b.metric("csv_fnv64", Metric::Text("deadbeef01234567".into()));
        b
    }

    #[test]
    fn json_round_trips_exactly() {
        let b = sample();
        let parsed = FigureBaseline::from_json(&b.to_json()).unwrap();
        assert_eq!(parsed.figure, b.figure);
        assert_eq!(parsed.context, b.context);
        assert_eq!(parsed.metrics.len(), b.metrics.len());
        assert_eq!(parsed.metrics["cycles[gpu 4M]"], Metric::Exact(8_123_456));
        assert_eq!(parsed.metrics["csv_fnv64"], Metric::Text("deadbeef01234567".into()));
        match parsed.metrics["coalescing[gpu 4M]"] {
            Metric::Float(v) => assert!((v - 0.998_877_665_5).abs() < 1e-12),
            ref other => panic!("wrong kind: {other:?}"),
        }
        // And a re-emit is byte-identical (stable key order, stable floats).
        assert_eq!(parsed.to_json(), b.to_json());
    }

    #[test]
    fn identical_baselines_produce_no_diffs() {
        assert!(sample().compare(&sample(), FLOAT_TOLERANCE).is_empty());
    }

    #[test]
    fn exact_drift_names_figure_and_metric() {
        let base = sample();
        let mut obs = sample();
        obs.metric("cycles[gpu 4M]", Metric::Exact(8_123_457));
        let diffs = base.compare(&obs, FLOAT_TOLERANCE);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].figure, "fig99");
        assert_eq!(diffs[0].metric, "cycles[gpu 4M]");
        assert_eq!(diffs[0].baseline, "8123456");
        assert_eq!(diffs[0].observed, "8123457");
        let line = diffs[0].to_string();
        assert!(line.contains("fig99") && line.contains("cycles[gpu 4M]"), "{line}");
    }

    #[test]
    fn float_band_absorbs_rounding_but_not_regressions() {
        let base = sample();
        let mut rounded = sample();
        rounded.metric("coalescing[gpu 4M]", Metric::Float(0.998_877_665_5 * (1.0 + 1e-9)));
        assert!(base.compare(&rounded, FLOAT_TOLERANCE).is_empty());
        let mut regressed = sample();
        regressed.metric("coalescing[gpu 4M]", Metric::Float(0.90));
        let diffs = base.compare(&regressed, FLOAT_TOLERANCE);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].metric, "coalescing[gpu 4M]");
    }

    #[test]
    fn missing_and_extra_metrics_are_violations() {
        let base = sample();
        let mut obs = sample();
        obs.metrics.remove("csv_fnv64");
        obs.metric("new_counter", Metric::Exact(1));
        let diffs = base.compare(&obs, FLOAT_TOLERANCE);
        assert_eq!(diffs.len(), 2);
        assert!(diffs.iter().any(|d| d.metric == "csv_fnv64" && d.observed == "<absent>"));
        assert!(diffs.iter().any(|d| d.metric == "new_counter" && d.baseline == "<absent>"));
    }

    #[test]
    fn context_mismatch_is_a_violation() {
        let base = sample();
        let mut obs = sample();
        obs.context("scale", "32");
        let diffs = base.compare(&obs, FLOAT_TOLERANCE);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].metric, "context:scale");
        assert_eq!(diffs[0].baseline, "16");
        assert_eq!(diffs[0].observed, "32");
    }

    #[test]
    fn kind_change_is_a_violation() {
        let base = sample();
        let mut obs = sample();
        obs.metric("cycles[gpu 4M]", Metric::Float(8_123_456.0));
        assert_eq!(base.compare(&obs, FLOAT_TOLERANCE).len(), 1);
    }

    #[test]
    fn load_missing_file_is_typed_not_a_panic() {
        let dir = std::env::temp_dir().join("hcj-baseline-missing");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        match FigureBaseline::load(&dir, "fig99") {
            Err(BaselineError::Missing { path }) => {
                assert!(path.ends_with("fig99.json"));
            }
            other => panic!("expected Missing, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_corrupt_file_is_typed_not_a_panic() {
        let dir = std::env::temp_dir().join("hcj-baseline-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        for bad in ["{ not json", "[1,2,3]", "{\"figure\": 5, \"metrics\": {}}", ""] {
            std::fs::write(dir.join("fig99.json"), bad).unwrap();
            match FigureBaseline::load(&dir, "fig99") {
                Err(BaselineError::Parse { detail, .. }) => {
                    assert!(!detail.is_empty(), "input {bad:?}");
                }
                other => panic!("input {bad:?}: expected Parse, got {other:?}"),
            }
        }
        // A valid file for the wrong figure is also a parse error.
        std::fs::write(dir.join("fig99.json"), FigureBaseline::new("fig01").to_json()).unwrap();
        assert!(matches!(FigureBaseline::load(&dir, "fig99"), Err(BaselineError::Parse { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = std::env::temp_dir().join("hcj-baseline-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let b = sample();
        let path = b.store(&dir).unwrap();
        assert!(path.exists());
        let loaded = FigureBaseline::load(&dir, "fig99").unwrap();
        assert!(b.compare(&loaded, FLOAT_TOLERANCE).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fnv_digest_is_stable_and_sensitive() {
        let a = fnv64_hex("size,ours\n1M,4.5\n");
        assert_eq!(a, fnv64_hex("size,ours\n1M,4.5\n"));
        assert_ne!(a, fnv64_hex("size,ours\n1M,4.6\n"));
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn escaped_strings_round_trip() {
        let mut b = FigureBaseline::new("fig\"odd\"");
        b.metric("line\nbreak", Metric::Text("tab\there \\ done".into()));
        let parsed = FigureBaseline::from_json(&b.to_json()).unwrap();
        assert_eq!(parsed.figure, "fig\"odd\"");
        assert_eq!(parsed.metrics["line\nbreak"], Metric::Text("tab\there \\ done".into()));
    }
}
