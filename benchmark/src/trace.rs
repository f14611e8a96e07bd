//! In-memory spans recorded around the benchmark's calls into each
//! layer.
//!
//! A sample process records its spans against its own start instant
//! and hands them to the parent with its result; nothing is written
//! until the parent exits.

use std::time::Instant;

use serde_json::{json, Value};

/// One recorded call: name, interval (seconds since the sample's
/// tracer was created) and the enclosing span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `adversary.calibrated_graph`.
    pub name: String,
    /// Start, in seconds since the tracer's origin.
    pub start_s: f64,
    /// End, in seconds since the tracer's origin.
    pub end_s: f64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }

    pub(crate) fn to_json(&self) -> Value {
        json!({
            "name": (self.name.clone()),
            "start_s": self.start_s,
            "end_s": self.end_s,
            "parent": (self.parent.map(|p| p as u64)),
        })
    }

    pub(crate) fn from_json(v: &Value) -> Option<Span> {
        Some(Span {
            name: v.get("name")?.as_str()?.to_owned(),
            start_s: v.get("start_s")?.as_f64()?,
            end_s: v.get("end_s")?.as_f64()?,
            parent: match v.get("parent")? {
                Value::Null => None,
                p => Some(usize::try_from(p.as_u64()?).ok()?),
            },
        })
    }
}

/// Records nested spans; a disabled tracer records nothing, so traced
/// and untraced samples share one code path.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recording tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            enabled: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    /// The recorded spans, in start order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Self time of every span: its duration minus the part of its
/// interval covered by its direct children.
pub(crate) fn self_times(spans: &[Span]) -> Vec<f64> {
    (0..spans.len())
        .map(|i| {
            let mut children: Vec<(f64, f64)> = spans
                .iter()
                .filter(|s| s.parent == Some(i))
                .map(|s| (s.start_s, s.end_s))
                .collect();
            children.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (start, end) in children {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                }
                reach = reach.max(end);
            }
            spans[i].duration_s() - covered
        })
        .collect()
}

/// The spans as JSON, each with its self time and the sample it
/// belongs to.
pub(crate) fn spans_json(sample: &str, spans: &[Span]) -> Vec<Value> {
    spans
        .iter()
        .zip(self_times(spans))
        .map(|(s, self_s)| {
            let mut v = s.to_json();
            if let Value::Object(map) = &mut v {
                map.insert("sample".to_owned(), json!(sample));
                map.insert("self_s".to_owned(), json!(self_s));
            }
            v
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            start_s,
            end_s,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("b", 3.0, 6.0, Some(0)), // overlaps a: covered = 1..6
            span("leaf", 1.5, 2.0, Some(1)),
        ];
        let st = self_times(&spans);
        assert!((st[0] - 5.0).abs() < 1e-12);
        assert!((st[1] - 2.5).abs() < 1e-12);
        assert!((st[2] - 3.0).abs() < 1e-12);
        assert!((st[3] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new();
        let v = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(v, 7);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_s >= spans[1].end_s);

        let mut off = Tracer::disabled();
        assert_eq!(off.span("x", |_| 3), 3);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn span_json_round_trips() {
        let s = span("a.b", 0.25, 1.5, Some(3));
        assert_eq!(Span::from_json(&s.to_json()), Some(s));
        let root = span("r", 0.0, 1.0, None);
        assert_eq!(Span::from_json(&root.to_json()), Some(root));
    }
}
