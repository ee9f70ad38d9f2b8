//! Host-clock spans recorded by the benchmark around the calls it makes
//! into each layer. Spans stay in memory; the traced run turns them into
//! per-layer self times and writes them once, at the end, as a Chrome
//! trace through `hcj_sim::Timeline`.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use hcj_sim::{SimTime, Timeline, TraceExporter, TrackId};

/// One closed span: a layer name, the request it served, the span that
/// caused it, and its host-clock interval from the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub request: Option<u64>,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

/// Records nested spans when on; a no-op when off (the measured runs).
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; `None` when tracing is off.
#[must_use = "close the span"]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn off() -> Tracer {
        Tracer { on: false, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn on() -> Tracer {
        Tracer { on: true, ..Tracer::off() }
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, request: Option<u64>) -> Open {
        if !self.on {
            return Open(None);
        }
        let start = self.origin.elapsed();
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, request, parent, start, end: start });
        self.open.push(id);
        Open(Some(id))
    }

    /// Close `span`, which must be the innermost open one.
    pub fn close(&mut self, span: Open) {
        let Some(id) = span.0 else { return };
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = self.origin.elapsed();
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(name, request);
        let out = f();
        self.close(span);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer name, in seconds: each span's duration minus
    /// the part its child spans cover (children never overlap their
    /// siblings, since one thread records them).
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_time[p] += span.end - span.start;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_time) {
            let own = (span.end - span.start).saturating_sub(children);
            *out.entry(span.name).or_default() += own.as_secs_f64();
        }
        out
    }

    /// The spans as a Chrome trace: one track per layer, labels carrying
    /// the request id and the parent span.
    pub fn write_chrome_trace(&self, process: &str, path: &Path) -> std::io::Result<()> {
        let mut timeline = Timeline::new(process);
        let mut tracks: BTreeMap<&'static str, TrackId> = BTreeMap::new();
        for span in &self.spans {
            let track = *tracks.entry(span.name).or_insert_with(|| timeline.track(span.name));
            let mut label = format!("{} #{}", span.name, span.request.map_or(-1, |r| r as i64));
            if let Some(p) = span.parent {
                label.push_str(&format!(" (in {} #{p})", self.spans[p].name));
            }
            let nanos = |d: Duration| SimTime::from_nanos(d.as_nanos() as u64);
            timeline.span(track, label, 0, nanos(span.start), nanos(span.end));
        }
        TraceExporter::new().write_timeline(&timeline, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::on();
        let root = tr.open("request", Some(7));
        tr.span("workload.generate", Some(7), || spin(Duration::from_millis(5)));
        spin(Duration::from_millis(2));
        tr.close(root);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, Some(7));
        let own = tr.self_seconds();
        let total = (spans[0].end - spans[0].start).as_secs_f64();
        assert!(own["workload.generate"] >= 0.005);
        assert!((own["request"] + own["workload.generate"] - total).abs() < 1e-9);
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::off();
        let s = tr.open("core.execute", None);
        tr.close(s);
        assert_eq!(tr.span("x", None, || 3), 3);
        assert!(tr.spans().is_empty());
        assert!(tr.self_seconds().is_empty());
    }
}
