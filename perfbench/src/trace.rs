//! In-memory spans recorded by the benchmark around its calls into each
//! crate's public functions (nothing inside the program is instrumented),
//! reduced to per-layer self time at the end of a run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Round id of spans recorded outside any timed round (set-up, probes).
pub const NO_ROUND: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sqlmini.insert`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end: u64,
    /// Index of the enclosing span in the same span list.
    pub parent: Option<usize>,
    /// The round this span belongs to.
    pub round: u32,
}

/// Records spans. A disabled tracer records nothing and
/// costs one branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    round: u32,
}

impl Tracer {
    /// A tracer timing against `epoch` (shared by every tracer of a run,
    /// so their spans line up).
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            round: NO_ROUND,
        }
    }

    /// Is recording on?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off between spans.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Tag subsequent spans with a round id.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span named `name`; spans opened inside `f` through
    /// the passed tracer become its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            round: self.round,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end = self.now();
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

}

/// Length of the union of `[start, end)` intervals, each clipped to
/// `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Children of every span, by parent index.
fn children(spans: &[Span]) -> Vec<Vec<usize>> {
    let mut kids = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            kids[p].push(i);
        }
    }
    kids
}

/// Self time of every span: its duration minus the part of its interval
/// its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let kids = children(spans);
    spans
        .iter()
        .zip(&kids)
        .map(|(s, k)| {
            let iv = k.iter().map(|&c| (spans[c].start, spans[c].end)).collect();
            (s.end - s.start) - covered(iv, s.start, s.end)
        })
        .collect()
}

/// Share of the time spent in spans named `parent_name` that their
/// direct children cover, over all such spans (0 when there are none).
pub fn child_coverage(spans: &[Span], parent_name: &str) -> f64 {
    let kids = children(spans);
    let (mut cov, mut total) = (0u64, 0u64);
    for (s, k) in spans.iter().zip(&kids) {
        if s.name == parent_name {
            let iv = k.iter().map(|&c| (spans[c].start, spans[c].end)).collect();
            cov += covered(iv, s.start, s.end);
            total += s.end - s.start;
        }
    }
    if total == 0 {
        0.0
    } else {
        cov as f64 / total as f64
    }
}

/// Per-name totals: call count, summed self time and summed duration.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layer {
    /// Spans of this name.
    pub calls: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
}

impl Layer {
    /// Mean self time per call in microseconds (0 without calls).
    pub fn self_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

/// Reduce spans to per-name layer totals.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let l = out.entry(s.name).or_default();
        l.calls += 1;
        l.self_ns += own;
        l.total_ns += s.end - s.start;
    }
    out
}

/// Write spans as tab-separated lines: id, parent, round, name, start, end.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tround\tname\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        let round = if s.round == NO_ROUND {
            -1
        } else {
            s.round as i64
        };
        writeln!(
            out,
            "{i}\t{parent}\t{round}\t{}\t{}\t{}",
            s.name, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // round [0,100): children [10,40) and [50,90); grandchild [20,30).
        let spans = vec![
            span("round", 0, 100, None),
            span("core.fleet", 10, 40, Some(0)),
            span("fmi.simulate", 20, 30, Some(1)),
            span("sqlmini.insert", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let l = layers(&spans);
        assert_eq!(l["round"].self_ns, 30);
        assert_eq!(l["core.fleet"].total_ns, 30);
        assert_eq!(l["fmi.simulate"].self_us(), 0.01);
        assert_eq!(child_coverage(&spans, "round"), 0.7);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children overlap each other and one overhangs
        // the parent's end: covered time is their clipped union [10, 100).
        let spans = vec![
            span("round", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            span("c", 70, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 10);
        assert_eq!(child_coverage(&spans, "round"), 0.9);
        assert_eq!(child_coverage(&spans, "absent"), 0.0);
    }

    #[test]
    fn tracer_links_parents() {
        let epoch = Instant::now();
        let mut main = Tracer::new(true, epoch);
        main.set_round(3);
        main.span("round", |t| {
            t.span("sqlmini.query", |_| ());
            t.span("sqlmini.insert", |_| ());
        });
        main.span("after", |_| ());
        let s = main.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
        assert_eq!(s[3].parent, None);
        assert!(s.iter().all(|x| x.end >= x.start));
        assert_eq!(s[0].round, 3);

        let mut off = Tracer::new(false, epoch);
        assert_eq!(off.span("x", |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
