//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! each layer's public functions; the program itself carries no span.
//! Every span has a name, start and end (ns since the recorder began),
//! the index of the span that caused it, and the request it served.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

/// Collects spans in memory; [`Tracer::to_tsv`] writes them out at the end.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span and returns its id; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span in µs, grouped by span name: each span's
    /// duration minus the part of its interval its children cover.
    pub fn self_times_us(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let covered = covered_ns(
                s.start_ns,
                s.end_ns,
                children[i]
                    .iter()
                    .map(|&c| (self.spans[c].start_ns, self.spans[c].end_ns)),
            );
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(covered);
            out.entry(s.name).or_default().push(self_ns as f64 / 1e3);
        }
        out
    }

    /// Tab-separated dump: `id name start_ns end_ns parent request`.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tname\tstart_ns\tend_ns\tparent\trequest\n");
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request)
            );
        }
        out
    }
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, intervals: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .map(|(a, b)| (a.max(start), b.min(end)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for (a, b) in iv {
        let a = a.max(cursor);
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: Some(7),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        t.spans = vec![
            span("root", 0, 10_000, None),
            span("a", 1_000, 4_000, Some(0)),
            // Overlaps `a`: the shared 1 µs is not subtracted twice.
            span("b", 3_000, 5_000, Some(0)),
            span("c", 3_500, 4_500, Some(2)),
        ];
        let st = t.self_times_us();
        assert_eq!(st["root"], vec![6.0]);
        assert_eq!(st["a"], vec![3.0]);
        assert_eq!(st["b"], vec![1.0]);
        assert_eq!(st["c"], vec![1.0]);
        assert!(t.to_tsv().contains("3\tc\t3500\t4500\t2\t7"));
    }

    #[test]
    fn nested_spans_record_parent_and_request() {
        let mut t = Tracer::new();
        let root = t.open("root", None, Some(3));
        let x = t.span("leaf", Some(root), Some(3), || 41 + 1);
        t.close(root);
        assert_eq!(x, 42);
        assert_eq!(t.spans()[1].parent, Some(root));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
