//! In-memory span recorder for the traced run.
//!
//! Every span records its name, start, end, parent span and (for
//! request-level calls) the request id it served. Spans live in memory up to
//! a fixed capacity and are written out once, when the run ends; past the
//! capacity only the per-name totals keep counting. A disabled recorder
//! reads no clock, so the untraced loops share the traced loops' code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Request id of spans that serve no single request.
pub const NO_REQUEST: u64 = u64::MAX;

/// Spans kept individually; later ones only feed the per-name totals.
const CAPACITY: usize = 1 << 18;

#[derive(Debug, Clone, Copy)]
struct Span {
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    request: u64,
}

/// A span that has begun; hand it back to [`Tracer::end`].
#[must_use]
pub struct Open {
    id: u32,
    parent: u32,
    name: &'static str,
    request: u64,
    start: Instant,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
    dropped: u64,
    /// Per span name: (count, total nanoseconds).
    totals: BTreeMap<&'static str, (u64, u64)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
            totals: BTreeMap::new(),
        }
    }

    /// Turns recording on or off; open spans still close normally.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span whose parent is the innermost open span.
    #[inline]
    pub fn begin(&mut self, name: &'static str, request: u64) -> Option<Open> {
        if !self.enabled {
            return None;
        }
        self.next_id += 1;
        let id = self.next_id;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        Some(Open {
            id,
            parent,
            name,
            request,
            start: Instant::now(),
        })
    }

    #[inline]
    pub fn end(&mut self, open: Option<Open>) {
        let Some(open) = open else {
            return;
        };
        let end = Instant::now();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(open.id), "spans must close innermost first");
        let start_ns = (open.start - self.origin).as_nanos() as u64;
        let end_ns = (end - self.origin).as_nanos() as u64;
        let total = self.totals.entry(open.name).or_insert((0, 0));
        total.0 += 1;
        total.1 += end_ns - start_ns;
        if self.spans.len() < CAPACITY {
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                start_ns,
                end_ns,
                request: open.request,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let open = self.begin(name, NO_REQUEST);
        let out = f(self);
        self.end(open);
        out
    }

    /// Mean duration of the spans named `name`, in microseconds.
    pub fn mean_us(&self, name: &str) -> Option<f64> {
        self.totals
            .get(name)
            .filter(|(count, _)| *count > 0)
            .map(|&(count, ns)| ns as f64 / count as f64 / 1e3)
    }

    /// The spans as JSON: one object per span plus the per-name totals.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 * self.spans.len() + 256);
        out.push_str("{\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            let request = if s.request == NO_REQUEST {
                "null".to_string()
            } else {
                s.request.to_string()
            };
            let _ = write!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"request\": {request}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            );
        }
        let _ = write!(
            out,
            "\n  ],\n  \"dropped\": {},\n  \"totals\": {{",
            self.dropped
        );
        for (i, (name, (count, ns))) in self.totals.iter().enumerate() {
            let sep = if i == 0 { "\n    " } else { ",\n    " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"count\": {count}, \"total_ns\": {ns}}}"
            );
        }
        out.push_str("\n  }\n}\n");
        out
    }
}
