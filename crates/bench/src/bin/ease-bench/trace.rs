//! Harness-side spans: one span around each public call into a layer,
//! recorded in memory and written out when the run ends. No span lives
//! inside a library crate, so a traced run measures the same code as an
//! untraced one plus the `Instant::now()` pairs below.

use crate::stats::median;
use ease::serve::json::Value;
use std::time::Instant;

/// Handle of a recorded span (its index in recording order).
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Which operation of the run the span belongs to; spans of one
    /// operation share it.
    pub op: u32,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, op: u32, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span { name, op, parent, start_ns: now, end_ns: now });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u32,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, op, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Median self time, in milliseconds, over every span called `name`.
    pub fn median_self_ms(&self, name: &str) -> Option<f64> {
        let own = self_times_ns(&self.spans);
        let samples: Vec<f64> = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(span, _)| span.name == name)
            .map(|(_, &ns)| ns as f64 / 1e6)
            .collect();
        median(&samples)
    }

    /// The spans as a JSON array, one object per span in recording order.
    pub fn to_json(&self) -> String {
        let own = self_times_ns(&self.spans);
        let spans = self
            .spans
            .iter()
            .zip(own)
            .enumerate()
            .map(|(id, (span, self_ns))| {
                Value::Obj(vec![
                    ("id".into(), Value::UInt(id as u64)),
                    ("name".into(), Value::str(span.name)),
                    ("op".into(), Value::UInt(u64::from(span.op))),
                    ("parent".into(), span.parent.map_or(Value::Null, |p| Value::UInt(p as u64))),
                    ("start_ns".into(), Value::UInt(span.start_ns)),
                    ("end_ns".into(), Value::UInt(span.end_ns)),
                    ("self_ns".into(), Value::UInt(self_ns)),
                ])
            })
            .collect();
        Value::Arr(spans).render()
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover. Children are clipped to the parent and their
/// union is taken, so overlapping children (two threads under one phase)
/// are not subtracted twice.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        let Some(pid) = span.parent else { continue };
        let Some(parent) = spans.get(pid) else { continue };
        let start = span.start_ns.max(parent.start_ns);
        let end = span.end_ns.min(parent.end_ns);
        if start < end {
            children[pid].push((start, end));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span { name: "s", op: 0, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100, child 10..40, grandchild 20..30, child 50..70
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(1), 20, 30),
            span(Some(0), 50, 70),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn overlapping_children_subtract_their_union() {
        // two children overlap on 30..40; one sticks out past the parent
        let spans = vec![span(None, 0, 100), span(Some(0), 10, 40), span(Some(0), 30, 120)];
        // union clipped to the parent is 10..100 = 90
        assert_eq!(self_times_ns(&spans), vec![10, 30, 90]);
    }

    #[test]
    fn a_child_inside_another_child_adds_nothing() {
        let spans = vec![span(None, 0, 100), span(Some(0), 10, 90), span(Some(0), 20, 30)];
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn tracer_records_parent_and_op_and_medians() {
        let mut tracer = Tracer::new();
        for op in 0..3 {
            let root = tracer.begin("op", op, None);
            tracer.time("stage", op, Some(root), || std::hint::black_box(1 + 1));
            tracer.end(root);
        }
        assert_eq!(tracer.spans.len(), 6);
        assert_eq!(tracer.spans[3].parent, Some(2));
        assert_eq!(tracer.spans[3].op, 1);
        assert!(tracer.median_self_ms("stage").is_some());
        assert!(tracer.median_self_ms("absent").is_none());
        let json = ease::serve::json::parse(&tracer.to_json()).expect("valid JSON");
        assert!(matches!(json, Value::Arr(ref spans) if spans.len() == 6));
    }
}
