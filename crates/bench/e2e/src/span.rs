//! In-harness span recorder.
//!
//! The product crates carry no spans, so the harness wraps its own calls
//! into each layer's public functions: `begin` before the call, `end`
//! after. Spans stay in memory and are written once, at exit, as Chrome
//! trace-event JSON (load in `chrome://tracing` or Perfetto). When the
//! recorder is off, `begin`/`end` do not read the clock, so the same round
//! code runs traced and untraced.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `ckks.hmult`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<u32>,
    /// Round (or wave) the span belongs to; `None` for layer probes.
    pub round: Option<u32>,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans on the single caller thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
    round: Option<u32>,
}

impl Recorder {
    /// A recorder that records only while switched on.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Self {
            origin: Instant::now(),
            on,
            spans: Vec::new(),
            open: Vec::new(),
            round: None,
        }
    }

    /// Switches recording on or off (between phases, never inside a span).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tags subsequent spans with a round id (`None` for probes).
    pub fn set_round(&mut self, round: Option<u32>) {
        self.round = round;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            round: self.round,
        });
        self.open.push(idx);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("end without begin");
        self.spans[idx as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span of its own.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Everything recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span with this name.
    #[must_use]
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }
}

/// Self time of each span: its duration minus the part its direct children
/// cover (children of one parent never overlap — one thread, strict nesting).
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] -= s.dur_ns();
        }
    }
    own
}

/// Chrome trace-event JSON (`ph: "X"` complete events, µs timestamps).
#[must_use]
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let round = s.round.map_or("null".to_string(), |r| r.to_string());
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let layer = s.name.split('.').next().unwrap_or(s.name);
        writeln!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"round\":{round}}}}}{sep}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            round: Some(0),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("round", 0, 100, None),
            span("ckks.hmult", 10, 70, Some(0)),
            span("ckks.keyswitch", 20, 50, Some(1)),
            span("ckks.hadd", 70, 80, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 30, 10]);
    }

    #[test]
    fn recorder_nests_and_is_inert_when_off() {
        let mut rec = Recorder::new(false);
        rec.begin("a");
        rec.end();
        assert!(rec.spans().is_empty());
        rec.set_on(true);
        rec.set_round(Some(3));
        rec.begin("outer");
        rec.begin("inner");
        rec.end();
        rec.end();
        let s = rec.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert_eq!(s[1].round, Some(3));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(rec.durations_ms("inner").len(), 1);
    }

    #[test]
    fn chrome_json_shape() {
        let json = chrome_trace_json(&[
            span("round", 0, 2_000, None),
            span("ckks.hmult", 500, 1_500, Some(0)),
        ]);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains(
            "{\"name\":\"ckks.hmult\",\"cat\":\"ckks\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":0.500,\"dur\":1.000,\"args\":{\"id\":1,\"parent\":0,\"round\":0}}"
        ));
        assert!(json.trim_end().ends_with("]}"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
    }
}
