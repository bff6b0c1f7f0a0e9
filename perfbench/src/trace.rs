//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out as JSON when the run ends.
//!
//! A span is `(name, start, end, parent)`; the parent is the span that
//! was open when it began. A disabled tracer records nothing, so the
//! untraced pass pays one branch per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open, `end_ns == 0`) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary name, e.g. `serve.drain`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Per-name totals: how many spans, their summed duration, and their
/// summed self time (duration minus the part covered by child spans).
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
}

/// Span recorder for one benchmark run (single-threaded: spans wrap
/// calls made from the benchmark's own thread).
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(i) = self.index {
            let end = self.tracer.now_ns();
            self.tracer.spans.borrow_mut()[i].end_ns = end;
            self.tracer.open.borrow_mut().pop();
        }
    }
}

impl Tracer {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let start_ns = self.now_ns();
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
        });
        let index = spans.len() - 1;
        self.open.borrow_mut().push(index);
        SpanGuard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Records an already-finished child of the currently open span,
    /// for work a layer reports its own bounds for (certification runs
    /// at the start of `mla_serve::run`, which times it).
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let parent = self.open.borrow().last().copied();
        self.spans.borrow_mut().push(Span {
            name,
            start_ns: self.ns_at(start),
            end_ns: self.ns_at(end),
            parent,
        });
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, &children) in spans.iter().zip(&child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let t = totals.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
        }
        totals
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// The whole trace as one JSON object: every span, per-name totals,
    /// and `extra` (already-rendered JSON members, e.g. aggregated
    /// control-call timings).
    pub fn to_json(&self, workload: &str, seed: u64, extra: &[(String, String)]) -> String {
        let spans = self.spans.borrow();
        let rows: Vec<String> = spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string())
                )
            })
            .collect();
        let totals: Vec<String> = self
            .totals()
            .iter()
            .map(|(name, t)| {
                format!(
                    "\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                    t.count, t.total_ns, t.self_ns
                )
            })
            .collect();
        let mut members = vec![
            format!("\"workload\":\"{workload}\""),
            format!("\"seed\":{seed}"),
            format!("\"totals\":{{{}}}", totals.join(",")),
        ];
        members.extend(extra.iter().map(|(k, v)| format!("\"{k}\":{v}")));
        members.push(format!("\"spans\":[{}]", rows.join(",\n")));
        format!("{{{}}}\n", members.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        {
            let _outer = t.span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = t.span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let totals = t.totals();
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert_eq!(outer.count, 1);
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
        assert!(t.to_json("w", 1, &[]).contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let _s = t.span("x");
        }
        t.record("y", Instant::now(), Instant::now());
        assert_eq!(t.len(), 0);
    }
}
