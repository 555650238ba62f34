//! In-memory spans for the traced run.
//!
//! Each operation (a seed, a cell run, a search) gets a root span, and
//! each call the benchmark makes into a layer gets a child span under
//! it; all spans of one operation share its trace id. Callbacks that
//! run millions of times (detector callbacks, scheduler choices) are
//! not spans: their wrappers keep per-name totals, added here with
//! [`Spans::add_total`]. Everything stays in memory until
//! [`Spans::write_jsonl`] at the end of the run.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    trace: u64,
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder (single-threaded, like every workload).
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    next_trace: u64,
    totals: BTreeMap<String, (u64, u64)>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId {
    index: usize,
    trace: u64,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder; span times count from now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            next_trace: 0,
            totals: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open the root span of a new operation (fresh trace id).
    pub fn root(&mut self, name: &'static str) -> SpanId {
        let trace = self.next_trace;
        self.next_trace += 1;
        self.open(trace, None, name)
    }

    fn open(&mut self, trace: u64, parent: Option<usize>, name: &'static str) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            trace,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        SpanId {
            index: self.spans.len() - 1,
            trace,
        }
    }

    /// Close an open span.
    pub fn close(&mut self, id: SpanId) {
        let end = self.now_ns();
        self.spans[id.index].end_ns = end;
    }

    /// Run `f` inside a child span of `parent` named `name`.
    pub fn child<R>(&mut self, parent: SpanId, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(parent.trace, Some(parent.index), name);
        let r = f();
        self.close(id);
        r
    }

    /// Add `ns` of self time over `count` calls to the aggregate `name`.
    pub fn add_total(&mut self, name: impl Into<String>, ns: u64, count: u64) {
        let t = self.totals.entry(name.into()).or_default();
        t.0 += ns;
        t.1 += count;
    }

    /// Self time of every span named `name` in operations whose root
    /// span is named `root` (the root itself when `name == root`): each
    /// span's duration minus the part its child spans cover.
    pub fn self_ns(&self, root: &str, name: &str) -> u64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let in_root = |s: &Span| match s.parent {
            Some(p) => self.spans[p].name == root,
            None => s.name == root,
        };
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name && in_root(s))
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c))
            .sum()
    }

    /// Write every span, then every aggregate, as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {i}, \"parent\": {parent}, \"trace\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
        for (name, (ns, count)) in &self.totals {
            writeln!(
                w,
                "{{\"aggregate\": \"{name}\", \"self_ns\": {ns}, \"count\": {count}}}"
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new();
        let root = spans.root("op");
        spans.child(root, "layer", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        spans.close(root);
        let layer = spans.self_ns("op", "layer");
        let op = spans.self_ns("op", "op");
        assert_eq!(
            spans.self_ns("other", "layer"),
            0,
            "spans are scoped by their root"
        );
        assert!(layer >= 5_000_000);
        assert!(
            op < layer,
            "root self time {op} must exclude its child {layer}"
        );
        let second = spans.root("op");
        spans.close(second);
        assert_eq!(
            spans.spans[second.index].trace, 1,
            "each root opens a new trace"
        );
    }
}
