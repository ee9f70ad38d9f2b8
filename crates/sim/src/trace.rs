//! Export a [`Schedule`] as Chrome `trace_event` JSON.
//!
//! The emitted file loads directly into `chrome://tracing`, Perfetto
//! (<https://ui.perfetto.dev>) or `about:tracing`: one track (thread) per
//! simulated resource, one complete event per span, and a counter track per
//! `Shared` resource showing the total rate it hands out over time. This
//! turns the textual gantt of [`Schedule::render_gantt`] into a zoomable
//! timeline for debugging pipeline structure.
//!
//! The format is the "JSON Object Format" of the Trace Event spec: a
//! top-level object with a `traceEvents` array; `ph: "X"` complete events
//! carry microsecond `ts`/`dur`; `ph: "M"` metadata events name the
//! process and threads; `ph: "C"` counter events plot the rates. Strings
//! and numbers are written by [`crate::json`].

use std::path::Path;

use crate::json;
use crate::resource::ResourceKind;
use crate::schedule::Schedule;
use crate::time::SimTime;

/// A hand-built timeline for trace export: named tracks of closed spans
/// plus counter series, in the same `trace_event` vocabulary a
/// [`Schedule`] exports to. Layers above the simulator (e.g. a join
/// *service* multiplexing many schedules over one device) use this to
/// render their own virtual-time history — queue waits, admissions,
/// device-memory pressure — as one Chrome/Perfetto timeline.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    process_name: String,
    tracks: Vec<(String, Vec<TimelineSpan>)>,
    counters: Vec<(String, Vec<(SimTime, f64)>)>,
}

/// One closed `[start, end]` span on a [`Timeline`] track. `class` maps to
/// the trace category (colors groups of spans alike in viewers).
#[derive(Clone, Debug)]
pub struct TimelineSpan {
    pub label: String,
    pub class: u32,
    pub start: SimTime,
    pub end: SimTime,
}

/// Index of a track within its [`Timeline`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrackId(usize);

/// Index of a counter series within its [`Timeline`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

impl Timeline {
    pub fn new(process_name: impl Into<String>) -> Self {
        Timeline { process_name: process_name.into(), tracks: Vec::new(), counters: Vec::new() }
    }

    /// Add a named track; spans land on it via [`Timeline::span`].
    pub fn track(&mut self, name: impl Into<String>) -> TrackId {
        self.tracks.push((name.into(), Vec::new()));
        TrackId(self.tracks.len() - 1)
    }

    /// Record a closed span on `track`. Zero-length spans are kept (they
    /// export with their true zero duration and mark instants).
    pub fn span(
        &mut self,
        track: TrackId,
        label: impl Into<String>,
        class: u32,
        start: SimTime,
        end: SimTime,
    ) {
        debug_assert!(start <= end, "span must close after it opens");
        self.tracks[track.0].1.push(TimelineSpan { label: label.into(), class, start, end });
    }

    /// Record an instant (zero-length span) on `track` — fault injections,
    /// retries and deadline cancellations render as markers this way.
    pub fn instant(&mut self, track: TrackId, label: impl Into<String>, class: u32, at: SimTime) {
        self.span(track, label, class, at, at);
    }

    /// Add a counter series; points land on it via [`Timeline::sample`].
    pub fn counter(&mut self, name: impl Into<String>) -> CounterId {
        self.counters.push((name.into(), Vec::new()));
        CounterId(self.counters.len() - 1)
    }

    /// Record that `counter` has `value` from `at` onward.
    pub fn sample(&mut self, counter: CounterId, at: SimTime, value: f64) {
        self.counters[counter.0].1.push((at, value));
    }

    /// Number of spans across all tracks.
    pub fn span_count(&self) -> usize {
        self.tracks.iter().map(|(_, s)| s.len()).sum()
    }
}

/// Serializes schedules to Chrome trace JSON; see the module docs.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceExporter;

impl TraceExporter {
    pub fn new() -> Self {
        TraceExporter
    }

    /// Render `schedule` as a Chrome trace JSON document.
    pub fn to_json(&self, schedule: &Schedule) -> String {
        assemble(self.schedule_events(schedule))
    }

    /// Render `schedule` plus the counter series of `counters` (its tracks
    /// are ignored) as one Chrome trace document. This is how `--profile`
    /// overlays hardware-counter tracks — bandwidth per direction,
    /// occupancy — on a figure's schedule trace.
    pub fn to_json_with_counters(&self, schedule: &Schedule, counters: &Timeline) -> String {
        let mut events = self.schedule_events(schedule);
        push_counter_events(counters, &mut events);
        assemble(events)
    }

    /// Write the schedule-plus-counter-tracks trace to `path`.
    pub fn write_with_counters(
        &self,
        schedule: &Schedule,
        counters: &Timeline,
        path: &Path,
    ) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json_with_counters(schedule, counters))
    }

    /// The event list of a schedule trace (metadata, spans, shared-resource
    /// rate counters), before assembly into a document.
    fn schedule_events(&self, schedule: &Schedule) -> Vec<String> {
        let mut events: Vec<String> = Vec::new();
        events.push(
            r#"{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"hcj-sim"}}"#
                .to_string(),
        );

        // One named track per resource; latency-only ops share a final track.
        let latency_tid = schedule.resources().len() as u32;
        for (i, meta) in schedule.resources().iter().enumerate() {
            let kind = match meta.kind {
                ResourceKind::Fifo { lanes } => format!("fifo x{lanes}"),
                ResourceKind::Shared { .. } => "shared".to_string(),
            };
            events.push(format!(
                r#"{{"name":"thread_name","ph":"M","pid":0,"tid":{},"args":{{"name":{}}}}}"#,
                i,
                json::string(&format!("{} ({kind}, {:.3e}/s)", meta.name, meta.rate)),
            ));
        }
        if schedule.spans().iter().any(|sp| sp.resource.is_none()) {
            events.push(format!(
                r#"{{"name":"thread_name","ph":"M","pid":0,"tid":{latency_tid},"args":{{"name":"(latency)"}}}}"#,
            ));
        }

        // Complete events, one per span.
        for sp in schedule.spans() {
            let tid = sp.resource.map_or(latency_tid, |r| r.index() as u32);
            let name =
                if sp.label.is_empty() { format!("op{}", sp.op.index()) } else { sp.label.clone() };
            events.push(format!(
                r#"{{"name":{},"cat":{},"ph":"X","pid":0,"tid":{},"ts":{},"dur":{},"args":{{"op":{},"class":{},"work":{}}}}}"#,
                json::string(&name),
                json::string(&format!("class-{}", sp.class)),
                tid,
                micros(sp.start),
                micros(sp.duration()),
                sp.op.index(),
                sp.class,
                json::number(sp.work),
            ));
        }

        // Counter tracks: total allocated rate per shared resource.
        for (i, meta) in schedule.resources().iter().enumerate() {
            if !matches!(meta.kind, ResourceKind::Shared { .. }) {
                continue;
            }
            let segs: Vec<_> = schedule
                .rate_segments()
                .iter()
                .filter(|g| g.resource.index() == i && g.end > g.start)
                .collect();
            if segs.is_empty() {
                continue;
            }
            let mut bounds: Vec<SimTime> = segs.iter().flat_map(|g| [g.start, g.end]).collect();
            bounds.sort_unstable();
            bounds.dedup();
            let counter = json::string(&format!("{} rate", meta.name));
            for w in bounds.windows(2) {
                let total: f64 =
                    segs.iter().filter(|g| g.start <= w[0] && g.end >= w[1]).map(|g| g.rate).sum();
                events.push(format!(
                    r#"{{"name":{counter},"ph":"C","pid":0,"ts":{},"args":{{"rate":{}}}}}"#,
                    micros(w[0]),
                    json::number(total),
                ));
            }
            // Drop the counter back to zero at the end of the last segment.
            events.push(format!(
                r#"{{"name":{counter},"ph":"C","pid":0,"ts":{},"args":{{"rate":0}}}}"#,
                micros(*bounds.last().expect("non-empty bounds")),
            ));
        }
        events
    }

    /// Write the trace to `path`, creating parent directories as needed.
    pub fn write(&self, schedule: &Schedule, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json(schedule))
    }

    /// Render a hand-built [`Timeline`] as a Chrome trace JSON document:
    /// one thread per track, one complete event per span, one counter
    /// track per series.
    pub fn timeline_to_json(&self, timeline: &Timeline) -> String {
        let mut events: Vec<String> = Vec::new();
        events.push(format!(
            r#"{{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{{"name":{}}}}}"#,
            json::string(&timeline.process_name),
        ));
        for (tid, (name, _)) in timeline.tracks.iter().enumerate() {
            events.push(format!(
                r#"{{"name":"thread_name","ph":"M","pid":0,"tid":{tid},"args":{{"name":{}}}}}"#,
                json::string(name),
            ));
        }
        for (tid, (_, spans)) in timeline.tracks.iter().enumerate() {
            for sp in spans {
                events.push(format!(
                    r#"{{"name":{},"cat":{},"ph":"X","pid":0,"tid":{tid},"ts":{},"dur":{},"args":{{"class":{}}}}}"#,
                    json::string(&sp.label),
                    json::string(&format!("class-{}", sp.class)),
                    micros(sp.start),
                    micros(sp.end - sp.start),
                    sp.class,
                ));
            }
        }
        push_counter_events(timeline, &mut events);
        assemble(events)
    }

    /// Write a [`Timeline`] to `path`, creating parent directories.
    pub fn write_timeline(&self, timeline: &Timeline, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.timeline_to_json(timeline))
    }
}

/// Append one `ph: "C"` event per sample of every counter series.
fn push_counter_events(timeline: &Timeline, events: &mut Vec<String>) {
    for (name, points) in &timeline.counters {
        let counter = json::string(name);
        for (at, value) in points {
            events.push(format!(
                r#"{{"name":{counter},"ph":"C","pid":0,"ts":{},"args":{{"value":{}}}}}"#,
                micros(*at),
                json::number(*value),
            ));
        }
    }
}

/// Wrap an event list into the trace-document object.
fn assemble(events: Vec<String>) -> String {
    let mut out = String::with_capacity(events.iter().map(|e| e.len() + 4).sum::<usize>() + 64);
    out.push_str("{\"traceEvents\":[\n");
    for (i, ev) in events.iter().enumerate() {
        out.push_str(ev);
        out.push_str(if i + 1 < events.len() { ",\n" } else { "\n" });
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Microseconds with nanosecond precision (trace `ts`/`dur` unit).
fn micros(t: SimTime) -> String {
    let ns = t.as_nanos();
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Op, Sim};

    fn sample_schedule() -> Schedule {
        let mut sim = Sim::new();
        let pcie = sim.fifo_resource("pcie-h2d", 12.0e9, 1);
        let bus = sim.shared_resource("dram", 60.0e9, 0.8);
        let gpu = sim.fifo_resource("gpu", 1.0, 1);
        let c = sim.op(Op::new(pcie, 1.0e9).label("h2d chunk \"0\""));
        let k = sim.op(Op::new(gpu, 0.05).label("join0").after(c));
        sim.op(Op::new(bus, 10.0e9).class(1).rate_cap(30.0e9).after(k));
        sim.op(Op::new(bus, 5.0e9).class(2));
        sim.op(Op::latency(SimTime::from_nanos(1500)));
        sim.run()
    }

    #[test]
    fn trace_is_valid_json() {
        let json = TraceExporter::new().to_json(&sample_schedule());
        json::parse(&json).expect("trace must parse as JSON");
    }

    #[test]
    fn trace_contains_tracks_spans_and_counters() {
        let json = TraceExporter::new().to_json(&sample_schedule());
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("pcie-h2d"));
        assert!(json.contains("join0"));
        assert!(json.contains("\\\"0\\\"")); // label quotes escaped
        assert!(json.contains("(latency)"));
        assert!(json.contains("dram rate")); // shared counter track
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
    }

    #[test]
    fn write_creates_parent_dirs() {
        let dir = std::env::temp_dir().join("hcj-trace-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("pipeline.trace.json");
        TraceExporter::new().write(&sample_schedule(), &path).expect("write trace");
        let body = std::fs::read_to_string(&path).expect("read trace back");
        json::parse(&body).expect("written trace must parse");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn micros_formats_nanosecond_precision() {
        assert_eq!(micros(SimTime::from_nanos(1500)), "1.500");
        assert_eq!(micros(SimTime::from_nanos(42)), "0.042");
        assert_eq!(micros(SimTime::from_nanos(2_000_000)), "2000.000");
    }

    #[test]
    fn empty_schedule_still_valid() {
        let json = TraceExporter::new().to_json(&Sim::new().run());
        json::parse(&json).expect("empty trace must parse");
    }

    fn sample_timeline() -> Timeline {
        let mut tl = Timeline::new("join-service");
        let c0 = tl.track("client 0");
        let c1 = tl.track("client \"1\"");
        tl.span(c0, "wait r0.0", 1, SimTime::ZERO, SimTime::from_nanos(2_000));
        tl.span(c0, "GpuResident r0.0", 2, SimTime::from_nanos(2_000), SimTime::from_nanos(9_000));
        tl.instant(c1, "instant", 3, SimTime::from_nanos(500));
        let mem = tl.counter("device used");
        tl.sample(mem, SimTime::ZERO, 0.0);
        tl.sample(mem, SimTime::from_nanos(2_000), 4096.0);
        tl.sample(mem, SimTime::from_nanos(9_000), 0.0);
        tl
    }

    #[test]
    fn timeline_is_valid_json_with_tracks_and_counters() {
        let tl = sample_timeline();
        assert_eq!(tl.span_count(), 3);
        let json = TraceExporter::new().timeline_to_json(&tl);
        json::parse(&json).expect("timeline must parse as JSON");
        assert!(json.contains("join-service"));
        assert!(json.contains("client 0"));
        assert!(json.contains("\\\"1\\\"")); // track-name quotes escaped
        assert!(json.contains("GpuResident r0.0"));
        assert!(json.contains("device used"));
        assert!(json.contains("\"ph\":\"C\""));
        // The zero-length span exports with zero duration, not dropped.
        assert!(json.contains(
            r#""name":"instant","cat":"class-3","ph":"X","pid":0,"tid":1,"ts":0.500,"dur":0.000"#
        ));
    }

    #[test]
    fn timeline_write_creates_parent_dirs() {
        let dir = std::env::temp_dir().join("hcj-timeline-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("service.trace.json");
        TraceExporter::new().write_timeline(&sample_timeline(), &path).expect("write timeline");
        let body = std::fs::read_to_string(&path).expect("read timeline back");
        json::parse(&body).expect("written timeline must parse");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schedule_with_counter_overlay_merges_both() {
        let schedule = sample_schedule();
        let mut overlay = Timeline::new("counters");
        let bw = overlay.counter("device-mem GB/s");
        overlay.sample(bw, SimTime::ZERO, 120.0);
        overlay.sample(bw, SimTime::from_nanos(50_000), 0.0);
        let json = TraceExporter::new().to_json_with_counters(&schedule, &overlay);
        json::parse(&json).expect("merged trace must parse as JSON");
        assert!(json.contains("join0"), "schedule spans present");
        assert!(json.contains("device-mem GB/s"), "overlay counters present");
        // The overlay's tracks would collide with schedule tids; only its
        // counter series are merged.
        assert!(!json.contains("\"name\":\"counters\""));
    }

    #[test]
    fn empty_timeline_still_valid() {
        let json = TraceExporter::new().timeline_to_json(&Timeline::new("empty"));
        json::parse(&json).expect("empty timeline must parse");
    }
}
