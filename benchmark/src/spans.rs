//! In-memory spans recorded by the harness around its own calls into the
//! layers, written out as Chrome trace JSON when the run ends.

use crate::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One request in this many gets its spans recorded in a traced run; the
/// rest only feed the sample list. Keeps a 20 s trace file near 3 MB.
pub const SPAN_EVERY: u64 = 8;

/// Index of a recorded span, used to name it as a parent.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_us: f64,
    dur_us: f64,
    parent: Option<SpanId>,
    request: Option<u64>,
}

/// The span store of one arm of a run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Whether per-request spans are recorded (set-up and probe spans
    /// always are: there are a few dozen of them).
    pub requests: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(requests: bool) -> Self {
        Tracer { origin: Instant::now(), requests, spans: Vec::new() }
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_us = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span { name, start_us, dur_us: 0.0, parent, request: None });
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration in seconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let now_us = self.origin.elapsed().as_secs_f64() * 1e6;
        let span = &mut self.spans[id];
        span.dur_us = now_us - span.start_us;
        span.dur_us / 1e6
    }

    /// Times `f` inside a span of its own and returns its result with the
    /// seconds it took.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, parent);
        let out = f();
        (out, self.end(id))
    }

    /// Records a finished interval, such as one the engine reported.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        dur: Duration,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        let start_us = start.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let dur_us = dur.as_secs_f64() * 1e6;
        self.spans.push(Span { name, start_us, dur_us, parent, request: Some(request) });
        self.spans.len() - 1
    }

    /// Total self time per span name in milliseconds: a span's duration
    /// minus the part its direct children cover.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_us[p] += span.dur_us;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_us) {
            *out.entry(span.name).or_insert(0.0) += (span.dur_us - children).max(0.0) / 1e3;
        }
        out
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto). Set-up and
    /// probe spans share track 0; request spans rotate over four tracks so
    /// the two requests in flight do not overlap on one. The self times ride
    /// along as `spanSelfMs`, which trace viewers take for metadata.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let tid = span.request.map_or(0, |r| 1 + (r / SPAN_EVERY) % 4);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"span\":{i}",
                span.name, span.start_us, span.dur_us
            );
            if let Some(p) = span.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(r) = span.request {
                let _ = write!(out, ",\"request\":{r}");
            }
            out.push_str("}}");
        }
        let self_ms = self.self_times_ms();
        let self_ms = json::object(self_ms.iter().map(|(name, ms)| (*name, json::number(*ms))));
        let _ = write!(out, "],\"spanSelfMs\":{self_ms}}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true);
        let origin = t.origin;
        let ms = Duration::from_millis;
        let request = t.push("request", origin, ms(10), None, 0);
        t.push("submit", origin, ms(1), Some(request), 0);
        let wait = t.push("wait", origin + ms(1), ms(9), Some(request), 0);
        t.push("service", origin + ms(2), ms(6), Some(wait), 0);
        let own = t.self_times_ms();
        assert!((own["request"] - 0.0).abs() < 1e-9);
        assert!((own["wait"] - 3.0).abs() < 1e-9);
        assert!((own["service"] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn chrome_json_parses_and_keeps_every_span() {
        let mut t = Tracer::new(true);
        let (_, secs) = t.time("core.build", None, || std::hint::black_box(1 + 1));
        assert!(secs >= 0.0);
        let parent = t.begin("request", None);
        t.push("submit", Instant::now(), Duration::from_micros(5), Some(parent), 16);
        t.end(parent);
        let doc = parse(&t.chrome_json()).expect("the trace is valid JSON");
        let Value::Array(events) = &doc["traceEvents"] else { panic!("traceEvents is an array") };
        assert_eq!(events.len(), 3);
        assert_eq!(events[2]["args"]["parent"], Value::Number(1.0));
        assert_eq!(events[2]["args"]["request"], Value::Number(16.0));
        assert!(matches!(doc["spanSelfMs"]["core.build"], Value::Number(ms) if ms >= 0.0));
    }
}
