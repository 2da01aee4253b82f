//! In-memory spans recorded around the calls the benchmark makes into
//! each crate, their self times, and the Chrome trace-event export.

use std::time::Instant;

/// One timed interval. Times are seconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.run` or `kernel.general`.
    pub name: String,
    /// Start, in seconds.
    pub start: f64,
    /// End, in seconds (`NaN` while open).
    pub end: f64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// The request (or launch, trace) this span served, if any.
    pub req: Option<u64>,
}

impl Span {
    /// Duration in seconds.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Records nested spans against one monotonic clock.
#[derive(Debug)]
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Recorder {
    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: impl Into<String>, req: Option<u64>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start: self.now(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span; returns its
    /// duration.
    pub fn end(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let now = self.now();
        let span = &mut self.spans[id];
        span.end = now;
        span.dur()
    }

    /// Runs `f` inside a span, returning its value.
    pub fn time<T>(
        &mut self,
        name: impl Into<String>,
        req: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, req);
        let out = f();
        self.end(id);
        out
    }

    /// Every recorded span, in the order they began.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id`: its duration minus the part of it its
    /// children cover.
    pub fn self_time(&self, id: usize) -> f64 {
        let children: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start, s.end))
            .collect();
        let s = &self.spans[id];
        self_time((s.start, s.end), &children)
    }

    /// The spans as Chrome trace-event JSON (complete `X` events in
    /// microseconds), which Perfetto and `chrome://tracing` open.
    pub fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = format!("\"id\": {i}");
                if let Some(p) = s.parent {
                    args.push_str(&format!(", \"parent\": {p}"));
                }
                if let Some(r) = s.req {
                    args.push_str(&format!(", \"req\": {r}"));
                }
                format!(
                    "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": 1, \"args\": {{{args}}}}}",
                    escape(&s.name),
                    escape(s.name.split('.').next().unwrap_or("")),
                    s.start * 1e6,
                    s.dur() * 1e6,
                )
            })
            .collect();
        format!(
            "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n{}\n]}}\n",
            events.join(",\n")
        )
    }
}

/// `span` minus the union of `children` clipped to it. Children may
/// overlap each other (threads) or spill past the parent.
pub fn self_time(span: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let mut iv: Vec<(f64, f64)> = children
        .iter()
        .map(|&(a, b)| (a.max(span.0), b.min(span.1)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    (span.1 - span.0) - covered
}

/// Escapes a string for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Disjoint children.
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 2.0), (4.0, 6.0)]), 7.0);
        // Overlapping children count their union once.
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 5.0), (3.0, 7.0)]), 4.0);
        // Nested and touching children.
        assert_eq!(
            self_time((0.0, 10.0), &[(2.0, 8.0), (3.0, 4.0), (8.0, 9.0)]),
            3.0
        );
        // Children spilling past the parent are clipped to it.
        assert_eq!(self_time((2.0, 6.0), &[(0.0, 3.0), (5.0, 9.0)]), 2.0);
        // Unsorted input, and a child outside the parent entirely.
        assert_eq!(
            self_time((0.0, 10.0), &[(6.0, 8.0), (1.0, 2.0), (11.0, 12.0)]),
            7.0
        );
        assert_eq!(self_time((0.0, 10.0), &[]), 10.0);
    }

    #[test]
    fn recorder_nests_and_exports() {
        let mut rec = Recorder::default();
        let op = rec.begin("bench.op", None);
        let x = rec.time("kernel.general", Some(7), || 41 + 1);
        rec.end(op);
        assert_eq!(x, 42);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].req, Some(7));
        let own = rec.self_time(0);
        assert!((own - (spans[0].dur() - spans[1].dur())).abs() < 1e-12);
        let json = rec.chrome_json();
        assert!(json.contains("\"name\": \"kernel.general\""));
        assert!(json.contains("\"req\": 7"));
        assert!(json.contains("\"ph\": \"X\""));
    }

    #[test]
    fn escape_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
