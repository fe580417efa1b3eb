//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span records its layer name, start, end, parent and request id. A
//! thread traces one request at a time; when the request ends its spans are
//! folded into a per-layer ledger of self time (a span's duration minus the
//! part of it its child spans cover), and the first spans of the run are kept
//! verbatim to be written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// The root span of every request. It is not a layer: its self time is the
/// benchmark's own glue between layer calls.
pub const ROOT: &str = "request";

/// How many raw spans a ledger keeps for the written trace.
const KEPT_SPANS: usize = 20_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span within the same request.
    pub parent: Option<usize>,
    pub request: u64,
}

/// Self time of span `i`: its duration minus the union of its direct
/// children's intervals, clipped to the span. `intervals` is reused so folding
/// a request allocates nothing.
fn self_time(spans: &[Span], i: usize, intervals: &mut Vec<(u64, u64)>) -> u64 {
    let s = spans[i];
    intervals.clear();
    intervals.extend(
        spans
            .iter()
            .filter(|c| c.parent == Some(i))
            .map(|c| (c.start_ns, c.end_ns)),
    );
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0, s.start_ns);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(s.end_ns));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (s.end_ns - s.start_ns).saturating_sub(covered)
}

/// Self time of every span (see [`self_time`]).
#[cfg(test)]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut intervals = Vec::new();
    (0..spans.len())
        .map(|i| self_time(spans, i, &mut intervals))
        .collect()
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    pub self_ns: u64,
    pub spans: u64,
}

/// Per-layer self-time totals of every finished request, plus the first
/// spans verbatim.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    pub layers: BTreeMap<&'static str, LayerTotals>,
    pub requests: u64,
    pub kept: Vec<Span>,
    intervals: Vec<(u64, u64)>,
}

impl Ledger {
    pub fn fold(&mut self, spans: &[Span]) {
        self.requests += 1;
        let mut intervals = std::mem::take(&mut self.intervals);
        for (i, s) in spans.iter().enumerate() {
            let self_ns = self_time(spans, i, &mut intervals);
            let t = self.layers.entry(s.layer).or_default();
            t.self_ns += self_ns;
            t.spans += 1;
        }
        self.intervals = intervals;
        let room = KEPT_SPANS.saturating_sub(self.kept.len());
        self.kept.extend(spans.iter().take(room));
    }

    pub fn merge(&mut self, other: &Ledger) {
        self.requests += other.requests;
        for (layer, t) in &other.layers {
            let e = self.layers.entry(layer).or_default();
            e.self_ns += t.self_ns;
            e.spans += t.spans;
        }
        let room = KEPT_SPANS.saturating_sub(self.kept.len());
        self.kept.extend(other.kept.iter().take(room));
    }

    pub fn self_ns(&self, layer: &str) -> u64 {
        self.layers.get(layer).map_or(0, |t| t.self_ns)
    }

    /// Self time of every named layer, the root excluded.
    pub fn layer_ns(&self) -> u64 {
        self.layers
            .iter()
            .filter(|(name, _)| **name != ROOT)
            .map(|(_, t)| t.self_ns)
            .sum()
    }

    /// Writes the kept spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.kept {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"request\":{},\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.request, s.layer, s.start_ns, s.end_ns, parent
            )?;
        }
        out.flush()
    }
}

/// One thread's recorder: the open request's spans and the thread's ledger.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    request: u64,
    spans: Vec<Span>,
    pub ledger: Ledger,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            request: 0,
            spans: Vec::new(),
            ledger: Ledger::default(),
        }
    }

    /// Nanoseconds since the run's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a request and opens its root span.
    pub fn begin(&mut self, request: u64) -> usize {
        self.spans.clear();
        self.request = request;
        self.open(ROOT, None)
    }

    pub fn open(&mut self, layer: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.record(layer, now, now, parent)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a span whose bounds were measured elsewhere.
    pub fn record(
        &mut self,
        layer: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request: self.request,
        });
        self.spans.len() - 1
    }

    pub fn span(&self, id: usize) -> Span {
        self.spans[id]
    }

    /// Closes the root span and folds the request into the ledger.
    pub fn end(&mut self) {
        self.close(0);
        self.ledger.fold(&self.spans);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    /// request [0,100) ⊃ exec [10,90) ⊃ planner [20,30), [50,70);
    /// assemble [90,98). Nested children are subtracted once, from their
    /// direct parent only.
    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = [
            span(ROOT, 0, 100, None),
            span("exec", 10, 90, Some(0)),
            span("planner", 20, 30, Some(1)),
            span("planner", 50, 70, Some(1)),
            span("assemble", 90, 98, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![12, 50, 10, 20, 8]);
        let mut ledger = Ledger::default();
        ledger.fold(&spans);
        assert_eq!(ledger.self_ns("planner"), 30);
        assert_eq!(ledger.self_ns("exec"), 50);
        assert_eq!(ledger.layer_ns(), 88);
        assert_eq!(ledger.layers["planner"].spans, 2);
    }

    /// Overlapping children (derived spans that share time) are counted as
    /// their union, and children reaching past the parent are clipped.
    #[test]
    fn self_time_uses_the_union_of_children() {
        let spans = [
            span(ROOT, 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 40, 60, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn ledger_keeps_a_bounded_prefix_of_spans() {
        let mut ledger = Ledger::default();
        let spans = vec![span(ROOT, 0, 1, None); 1000];
        for _ in 0..25 {
            ledger.fold(&spans);
        }
        assert_eq!(ledger.kept.len(), KEPT_SPANS);
        assert_eq!(ledger.requests, 25);
        let mut merged = Ledger::default();
        merged.merge(&ledger);
        merged.merge(&ledger);
        assert_eq!(merged.layers[ROOT].spans, 50_000);
        assert_eq!(merged.requests, 50);
        assert_eq!(merged.kept.len(), KEPT_SPANS);
    }
}
