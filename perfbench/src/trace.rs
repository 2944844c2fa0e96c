//! An in-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into the library (synthesis,
//! quantization, one inference, one conv pass, one served request). Each
//! span has a name, a start and an end, its parent span and the request
//! it belongs to. Spans stay in a vector until the run ends, when
//! [`Tracer::chrome_json`] renders them as Chrome trace-event JSON.
//! A disabled tracer records nothing and only runs the wrapped call.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the spans currently open on this thread.
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &str, request: Option<u64>, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let now = Instant::now();
        self.spans.push(Span {
            name: name.to_string(),
            start: now,
            end: now,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = Instant::now();
        out
    }

    /// Records a span whose times were taken elsewhere (a request that
    /// completed on the server's thread), under the innermost open span.
    pub fn record(&mut self, name: &str, request: Option<u64>, start: Instant, end: Instant) {
        if self.on {
            let parent = self.open.last().copied();
            self.spans.push(Span { name: name.to_string(), start, end, parent, request });
        }
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> impl Iterator<Item = f64> + '_ {
        let name = name.to_string();
        self.spans.iter().filter(move |s| s.name == name).map(Span::ms)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete event per span, with its id, parent and request as args.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let ts = (s.start - self.epoch).as_secs_f64() * 1e6;
            let dur = (s.end - s.start).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{ts:.3},\"dur\":{dur:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"request\":{request}}}}}",
                s.name
            );
            out.push_str(if i + 1 < self.spans.len() { ",\n" } else { "\n" });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_their_request() {
        let mut t = Tracer::new(true);
        t.span("outer", None, |t| {
            t.span("inner", Some(7), |_| ());
            let now = Instant::now();
            t.record("done", Some(8), now, now);
        });
        assert_eq!(t.len(), 3);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].request, Some(7));
        assert_eq!(t.spans[2].parent, Some(0));
        assert!(t.spans[0].end >= t.spans[1].end);
        assert!(t.chrome_json().contains("\"parent\":0,\"request\":7"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", None, |_| 3), 3);
        t.record("y", None, Instant::now(), Instant::now());
        assert_eq!(t.len(), 0);
    }
}
