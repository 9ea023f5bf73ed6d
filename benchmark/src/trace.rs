//! In-memory spans recorded from the benchmark's own files, around the
//! calls into each layer. Spans inside the crates are a later change
//! (ROADMAP item 1); nothing here reaches below a public entry point.
//!
//! A span has a name, start, end, the span that caused it, and the
//! (pass, slot) it belongs to. Spans stay in memory and are written to
//! `benchmark/out/trace-<workload>.json` when the traced run ends. The
//! measured window uses [`Tracer::off`], which records nothing.

use crate::json::Json;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<what>`, e.g. `core.candidates` or `walk.step`.
    pub name: &'static str,
    /// Microseconds since the tracer was created.
    pub start_us: f64,
    /// Microseconds since the tracer was created.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Traced pass the span belongs to.
    pub pass: usize,
    /// Slot of the pass (position in its query list) the span belongs
    /// to; spans of one request share `(pass, slot)`.
    pub slot: usize,
    /// Free-form tags (`op`, `assignee`, `rows_in`, `rows_out`, …).
    pub tags: Vec<(&'static str, String)>,
}

impl Span {
    /// Wall duration in microseconds.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Span recorder. Single-threaded: the benchmark's one client thread
/// owns it, so nesting is a stack.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    stack: Vec<usize>,
    /// Every finished or open span, in start order.
    pub spans: Vec<Span>,
    /// Stamped on every new span.
    pub pass: usize,
    /// Stamped on every new span.
    pub slot: usize,
}

impl Tracer {
    /// A recorder that records nothing (the measured window).
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// A recording tracer (the traced run).
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
            pass: 0,
            slot: 0,
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span named `name`; nested calls become children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.stack.last().copied(),
            pass: self.pass,
            slot: self.slot,
            tags: Vec::new(),
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    /// Tag the innermost open span.
    pub fn tag(&mut self, key: &'static str, value: impl ToString) {
        if let Some(&id) = self.stack.last() {
            self.spans[id].tags.push((key, value.to_string()));
        }
    }

    /// The trace as a JSON array of span objects (the file format the
    /// README documents).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    let mut fields = vec![
                        ("id", Json::Num(id as f64)),
                        ("name", Json::Str(s.name.to_string())),
                        ("start_us", Json::Num(s.start_us)),
                        ("end_us", Json::Num(s.end_us)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("pass", Json::Num(s.pass as f64)),
                        ("slot", Json::Num(s.slot as f64)),
                    ];
                    if !s.tags.is_empty() {
                        fields.push((
                            "tags",
                            Json::obj(s.tags.iter().map(|(k, v)| (*k, Json::Str(v.clone())))),
                        ));
                    }
                    Json::obj(fields)
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its direct children cover (children of one single-threaded
/// parent never overlap, so the covered part is their summed duration).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::dur_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur_us();
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us: start,
            end_us: end,
            parent,
            pass: 0,
            slot: 0,
            tags: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", 0.0, 100.0, None),
            span("a", 10.0, 40.0, Some(0)),
            span("a.inner", 15.0, 25.0, Some(1)),
            span("b", 50.0, 90.0, Some(0)),
        ];
        assert_eq!(self_times_us(&spans), vec![30.0, 20.0, 10.0, 40.0]);
    }

    #[test]
    fn nesting_follows_the_call_stack() {
        let mut t = Tracer::on();
        t.slot = 3;
        t.span("outer", |t| {
            t.tag("op", "join");
            t.span("inner", |_| ());
        });
        t.span("sibling", |_| ());
        let names: Vec<_> = t.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![("outer", None), ("inner", Some(0)), ("sibling", None)]
        );
        assert_eq!(t.spans[0].tags, vec![("op", "join".to_string())]);
        assert!(t.spans.iter().all(|s| s.slot == 3));
        assert!(t.spans[0].end_us >= t.spans[1].end_us);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", |t| t.span("y", |_| 7)), 7);
        assert!(t.spans.is_empty());
    }
}
