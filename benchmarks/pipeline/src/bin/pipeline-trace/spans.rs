//! In-memory spans around the calls into each layer, written out when the
//! traced run ends.
//!
//! One span per call: `(id, parent, workload, name, start_ns, end_ns)`
//! plus the allocations counted on this thread while it was open. A
//! layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use pipeline_bench::json::Value;

use crate::alloc::allocations;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index in recording order (also the span's id in the trace file).
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// `<crate>.<layer>.<call>`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, on the same clock.
    pub end_ns: u64,
    /// Allocations on the recording thread between start and end.
    pub allocs: u64,
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans of this name.
    pub count: u64,
    /// Summed self time, in nanoseconds.
    pub self_ns: u64,
    /// Summed allocations not attributed to a child span.
    pub self_allocs: u64,
}

impl Totals {
    /// Self time in seconds.
    pub fn secs(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }
}

/// Records spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// Starts the trace clock.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; close it with
    /// [`close`](Self::close).
    pub fn open(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.open.push(id);
        // Grow before the counters are read, so the tracer's own
        // bookkeeping is charged to the parent, not to the callee.
        self.spans.reserve(1);
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: 0,
            end_ns: 0,
            allocs: allocations(),
        });
        self.spans[id as usize].start_ns = self.now_ns();
        id
    }

    /// Closes span `id`.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not the innermost open span.
    pub fn close(&mut self, id: u32) {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        span.allocs = allocations() - span.allocs;
    }

    /// Records `f` as one leaf span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let value = f();
        self.close(id);
        value
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time and self allocations per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        totals(&self.spans)
    }

    /// Writes one JSON object per span, then the run header as the last
    /// line (so the span lines stay a uniform table).
    ///
    /// # Errors
    ///
    /// Returns the I/O error.
    pub fn write_jsonl(&self, workload: &str, header: &Value, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{},"parent":{parent},"workload":"{workload}","name":"{}","start_ns":{},"end_ns":{},"allocs":{}}}"#,
                s.id, s.name, s.start_ns, s.end_ns, s.allocs
            )?;
        }
        let header = Value::obj([("header", header.clone())]);
        writeln!(out, "{}", header.render())?;
        out.flush()
    }
}

/// Self time and self allocations per span name: each span's duration
/// minus the union of its children's intervals (clipped to the span).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let mut child_allocs = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (start, end) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if start < end {
                children[p as usize].push((start, end));
            }
            child_allocs[p as usize] += s.allocs;
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, mut kids) in spans.iter().zip(children) {
        kids.sort_unstable();
        let mut covered = 0;
        let mut frontier = s.start_ns;
        for (start, end) in kids {
            let start = start.max(frontier);
            if end > start {
                covered += end - start;
                frontier = end;
            }
        }
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.self_ns += (s.end_ns - s.start_ns) - covered;
        t.self_allocs += s.allocs.saturating_sub(child_allocs[s.id as usize]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u32,
        parent: Option<u32>,
        name: &'static str,
        start: u64,
        end: u64,
        allocs: u64,
    ) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            allocs,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = [
            span(0, None, "root", 0, 100, 10),
            span(1, Some(0), "child", 10, 30, 4),
            span(2, Some(0), "child", 50, 70, 1),
            span(3, Some(2), "grandchild", 55, 60, 1),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["root"],
            Totals {
                count: 1,
                self_ns: 60,
                self_allocs: 5
            }
        );
        assert_eq!(
            t["child"],
            Totals {
                count: 2,
                self_ns: 35,
                self_allocs: 4
            }
        );
        assert_eq!(
            t["grandchild"],
            Totals {
                count: 1,
                self_ns: 5,
                self_allocs: 1
            }
        );
        // Self times partition the root's interval.
        assert_eq!(t.values().map(|t| t.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_covered_once() {
        let spans = [
            span(0, None, "root", 100, 200, 0),
            span(1, Some(0), "a", 110, 150, 0),
            span(2, Some(0), "b", 140, 170, 0), // overlaps a
            span(3, Some(0), "c", 190, 230, 0), // overhangs the parent's end
            span(4, Some(0), "d", 120, 130, 0), // nested inside a's interval
        ];
        // Covered: [110,170) and [190,200) = 70.
        assert_eq!(totals(&spans)["root"].self_ns, 30);
    }

    #[test]
    fn tracer_nests_spans_and_keeps_time_monotone() {
        let mut tracer = Tracer::new();
        let root = tracer.open("root");
        let v = tracer.span("leaf", || vec![1u8; 32]);
        tracer.span("leaf", || ());
        tracer.close(root);
        assert_eq!(v.len(), 32);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].allocs, 1, "the vec is the leaf's one allocation");
        assert_eq!(tracer.totals()["leaf"].count, 2);
    }
}
