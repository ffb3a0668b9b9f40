//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed from the benchmark's own code around
//! calls into each crate's public functions; nothing inside the
//! program is instrumented. Every [`Tracer::exit`] also returns the
//! span's wall seconds, so the same calls time the untraced run — a
//! disabled tracer records nothing and only reads the clock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span: seconds since the tracer's origin.
#[derive(Debug)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

/// A span that has been entered but not yet exited.
#[must_use = "exit the span to close it and read its duration"]
pub struct Open {
    index: Option<usize>,
    t0: Instant,
}

/// Records spans when enabled; always times them.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off for spans entered from now on.
    pub fn set_recording(&mut self, on: bool) {
        self.on = on;
    }

    pub fn recording(&self) -> bool {
        self.on
    }

    pub fn enter(&mut self, name: &str) -> Open {
        let t0 = Instant::now();
        let index = self.on.then(|| {
            let i = self.spans.len();
            self.spans.push(Span {
                name: name.to_string(),
                start: (t0 - self.origin).as_secs_f64(),
                end: f64::NAN,
                parent: self.stack.last().copied(),
            });
            self.stack.push(i);
            i
        });
        Open { index, t0 }
    }

    /// Closes `open` and returns its wall seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(i) = open.index {
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(i), "spans must close innermost first");
            self.spans[i].end = (now - self.origin).as_secs_f64();
        }
        (now - open.t0).as_secs_f64()
    }

    /// Per span name: `(count, total seconds, self seconds)`, where self
    /// time is a span's duration minus the time its children cover.
    /// Children run on the caller's thread and never overlap, so the
    /// covered time is the sum of their durations.
    pub fn self_times(&self) -> BTreeMap<String, (u64, f64, f64)> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += s.end - s.start;
            e.2 += (s.end - s.start) - child[i];
        }
        out
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn chrome_trace(&self) -> String {
        let mut s = String::from("{\"traceEvents\":[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                s,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                span.name,
                span.start * 1e6,
                (span.end - span.start) * 1e6,
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.set_recording(true);
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(20));
        t.exit(inner);
        let total = t.exit(outer);
        let st = t.self_times();
        let (n, tot, own) = st["outer"];
        assert_eq!(n, 1);
        assert!((tot - total).abs() < 1e-3);
        assert!(
            own < tot - 0.015,
            "outer self time {own} must exclude inner"
        );
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.chrome_trace().contains("\"name\":\"inner\""));
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new();
        let s = t.enter("x");
        assert!(t.exit(s) >= 0.0);
        assert!(t.spans.is_empty());
    }
}
