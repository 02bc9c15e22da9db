//! In-memory spans recorded from outside the program, around the calls the
//! benchmark makes into each layer, and a generator wrapper that times the
//! `dbmodel` calls the engine makes.

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

use tpsim::dbmodel::{HotSpotParams, TransactionTemplate, WorkloadGenerator};
use tpsim::simkernel::SimRng;

use crate::json;

/// One span.  Aggregated spans (`calls > 1`) stand for many disjoint calls
/// under one parent: `busy_ns` is their summed duration and `start_ns` /
/// `end_ns` bound the first and the last call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.run`.
    pub name: &'static str,
    /// Index of the point the span belongs to.
    pub point: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Calls folded into the span (1 for an interval span).
    pub calls: u64,
    /// Time covered: `end_ns - start_ns` for an interval span, the summed
    /// call durations for an aggregate.
    pub busy_ns: u64,
}

/// Span recorder.  Spans open and close in stack order.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, point: usize) -> usize {
        let start = self.now_ns();
        self.spans.push(Span {
            name,
            point,
            parent: self.open.last().copied(),
            start_ns: start,
            end_ns: start,
            calls: 1,
            busy_ns: 0,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must close in stack order");
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.busy_ns = end - span.start_ns;
    }

    /// Folds one call of `ns` that ended now into the aggregate span `name`
    /// under the innermost open span.
    pub fn add_call(&mut self, name: &'static str, point: usize, ns: u64) {
        let end = self.now_ns();
        let parent = self.open.last().copied();
        let existing = self
            .spans
            .iter()
            .rposition(|s| s.name == name && s.parent == parent && s.point == point);
        match existing {
            Some(i) => {
                let span = &mut self.spans[i];
                span.calls += 1;
                span.busy_ns += ns;
                span.end_ns = end;
            }
            None => self.spans.push(Span {
                name,
                point,
                parent,
                start_ns: end.saturating_sub(ns),
                end_ns: end,
                calls: 1,
                busy_ns: ns,
            }),
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":{},\"point\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"calls\":{},\"busy_ns\":{}}}",
                json::string(s.name),
                s.point,
                s.start_ns,
                s.end_ns,
                s.calls,
                s.busy_ns
            )?;
        }
        Ok(())
    }
}

/// Self time of span `id`: its duration minus the part of it its children
/// cover.  Interval children are merged first, so overlapping children are
/// not subtracted twice, and clipped to the parent; aggregate children are
/// disjoint calls and subtract their summed duration.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let parent = &spans[id];
    let mut intervals: Vec<(u64, u64)> = Vec::new();
    let mut aggregated = 0u64;
    for child in spans.iter().filter(|s| s.parent == Some(id)) {
        // An aggregate of one call covers exactly its interval, so it is
        // treated like an interval span.
        if child.calls > 1 || child.busy_ns != child.end_ns - child.start_ns {
            aggregated += child.busy_ns;
        } else {
            let start = child.start_ns.max(parent.start_ns);
            let end = child.end_ns.min(parent.end_ns);
            if start < end {
                intervals.push((start, end));
            }
        }
    }
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                covered += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    if let Some((s, e)) = current {
        covered += e - s;
    }
    (parent.end_ns - parent.start_ns).saturating_sub(covered + aggregated)
}

/// What the traced generator shares with the benchmark: the tracer and the
/// templates the engine was handed, in order.
#[derive(Debug, Default)]
pub struct TraceState {
    /// The span recorder.
    pub tracer: Tracer,
    /// Captured transaction templates (the lock, buffer and storage replays
    /// run on them).
    pub templates: Vec<TransactionTemplate>,
}

/// A [`WorkloadGenerator`] that delegates to `inner`, timing each call into
/// `dbmodel` and capturing the templates it returns.
pub struct Traced<W> {
    inner: W,
    state: Rc<RefCell<TraceState>>,
    point: usize,
}

impl<W> Traced<W> {
    /// Wraps `inner` for point `point`.
    pub fn new(inner: W, state: Rc<RefCell<TraceState>>, point: usize) -> Self {
        Self {
            inner,
            state,
            point,
        }
    }
}

impl<W: WorkloadGenerator> WorkloadGenerator for Traced<W> {
    fn next_transaction(&mut self, rng: &mut SimRng) -> Option<TransactionTemplate> {
        let start = Instant::now();
        let template = self.inner.next_transaction(rng);
        let generated = start.elapsed().as_nanos() as u64;
        let mut state = self.state.borrow_mut();
        state
            .tracer
            .add_call("dbmodel.next_tx", self.point, generated);
        // The capture is the benchmark's own work: it gets a span of its own
        // so the engine's self time does not include it.
        let start = Instant::now();
        if let Some(t) = &template {
            state.templates.push(t.clone());
        }
        let captured = start.elapsed().as_nanos() as u64;
        state.tracer.add_call("bench.capture", self.point, captured);
        template
    }

    fn num_tx_types(&self) -> usize {
        self.inner.num_tx_types()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn total_pages(&self) -> u64 {
        self.inner.total_pages()
    }

    fn apply_hot_spot(&mut self, params: HotSpotParams) {
        let span = self
            .state
            .borrow_mut()
            .tracer
            .begin("dbmodel.hot_spot", self.point);
        self.inner.apply_hot_spot(params);
        self.state.borrow_mut().tracer.end(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            point: 0,
            parent,
            start_ns: start,
            end_ns: end,
            calls: 1,
            busy_ns: end - start,
        }
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60),
            span("c", Some(0), 80, 90),
            // A grandchild never counts against the root.
            span("d", Some(1), 12, 20),
        ];
        // Covered: [10, 60) + [80, 90) = 60.
        assert_eq!(self_time_ns(&spans, 0), 40);
        assert_eq!(self_time_ns(&spans, 1), 22);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("root", None, 50, 100), span("a", Some(0), 0, 60)];
        assert_eq!(self_time_ns(&spans, 0), 40);
    }

    #[test]
    fn aggregate_children_subtract_their_busy_time() {
        let mut agg = span("calls", Some(0), 5, 95);
        agg.calls = 30;
        agg.busy_ns = 25;
        let spans = vec![span("root", None, 0, 100), agg, span("x", Some(0), 40, 50)];
        assert_eq!(self_time_ns(&spans, 0), 65);
    }

    #[test]
    fn tracer_nests_and_aggregates() {
        let mut t = Tracer::new();
        let root = t.begin("root", 3);
        t.add_call("call", 3, 5);
        t.add_call("call", 3, 7);
        let child = t.begin("child", 3);
        t.end(child);
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].calls, 2);
        assert_eq!(spans[1].busy_ns, 12);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[2].parent, Some(root));
        let mut out = Vec::new();
        t.write_jsonl(&mut out).expect("write to a Vec");
        assert_eq!(String::from_utf8(out).expect("utf-8").lines().count(), 3);
    }
}
