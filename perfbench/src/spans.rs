//! In-memory span recorder for the traced run.
//!
//! A span is one timed call at a layer boundary: its name, start, end,
//! parent span and request id. Spans are appended to a vector while the run
//! goes and written out as JSON lines when it ends. A span's *self time* is
//! its duration minus the part of that interval its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `analytic.rob_model`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Id of the request (or store build) the span served.
    pub req: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for request `req`; spans opened
    /// inside `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines to `path`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"req":{}}}"#,
                s.name, s.start, s.end, s.req
            )?;
        }
        w.flush()
    }
}

/// Self time of every span, index-aligned with `spans`: its duration minus
/// the union of its children's intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered.min(s.dur())
        })
        .collect()
}

/// Per-name totals over a span set.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameStats {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

/// Totals per span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur();
        e.self_ns += own;
    }
    out
}

/// Share of `whole`'s total time accounted for by the `parts` spans'
/// totals — how completely a stage ledger covers an independently timed
/// end-to-end call. Not finite when `whole` never ran.
pub fn coverage(stats: &BTreeMap<&'static str, NameStats>, whole: &str, parts: &[&str]) -> f64 {
    let whole_ns = stats.get(whole).map_or(0, |s| s.total_ns);
    let part_ns: u64 = parts
        .iter()
        .filter_map(|p| stats.get(p))
        .map(|s| s.total_ns)
        .sum();
    part_ns as f64 / whole_ns as f64
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
            req: 7,
        }
    }

    /// root [0,100) ─┬─ a [10,30) ── a1 [12,20)
    ///               ├─ b [25,60)   (overlaps a by 5)
    ///               └─ c [90,120)  (runs past root's end by 20)
    /// whole [200,300), parts p [200,240) and q [250,290) (unrelated roots)
    fn tree() -> Vec<Span> {
        vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("a1", 12, 20, Some(1)),
            span("b", 25, 60, Some(0)),
            span("c", 90, 120, Some(0)),
            span("whole", 200, 300, None),
            span("p", 200, 240, None),
            span("q", 250, 290, None),
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_clipped_to_the_parent() {
        let t = self_times(&tree());
        // Children cover [10,60) ∪ [90,100) = 60 of root's 100.
        assert_eq!(t[0], 40);
        assert_eq!(t[1], 20 - 8);
        assert_eq!(t[2], 8);
        assert_eq!(t[3], 35);
        assert_eq!(t[4], 30);
        assert_eq!(t[5], 100, "unrelated roots are not children");
    }

    #[test]
    fn totals_and_coverage_follow_the_tree() {
        let stats = by_name(&tree());
        assert_eq!(
            stats["a"],
            NameStats {
                count: 1,
                total_ns: 20,
                self_ns: 12
            }
        );
        assert_eq!(coverage(&stats, "whole", &["p", "q"]), 0.8);
        assert_eq!(coverage(&stats, "root", &["a", "b", "c"]), 0.85);
        assert!(coverage(&stats, "missing", &["p"]).is_infinite());
    }

    #[test]
    fn tracer_nests_spans_and_records_parents() {
        let mut t = Tracer::default();
        t.span("outer", 1, |t| {
            t.span("inner", 1, |_| std::hint::black_box(3) + 1);
            t.span("inner", 2, |_| ());
        });
        t.span("next", 3, |_| ());
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, None);
        assert!(s[0].start <= s[1].start && s[2].end <= s[0].end);
        let selfs = self_times(s);
        assert_eq!(selfs[0], s[0].dur() - s[1].dur() - s[2].dur());
    }
}
