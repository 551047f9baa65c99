//! In-memory span recorder for the layer replay.
//!
//! Every replayed layer call is wrapped in a span: name, start, end and
//! the span that caused it. Spans of one query share its id. They stay in
//! memory until the run ends, when [`Recorder::to_json`] writes them out
//! and [`Recorder::self_times`] derives each layer's self time (its
//! duration minus the part its child spans cover).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub query: u64,
    pub id: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn us(&self) -> f64 {
        self.ns() as f64 / 1e3
    }
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    query: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            query: 0,
        }
    }

    /// Spans opened from now on belong to `query`.
    pub fn set_query(&mut self, query: u64) {
        self.query = query;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans `f` opens become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            query: self.query,
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        out
    }

    /// Like [`Recorder::span`], also returning the span's duration in ns.
    pub fn span_ns<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, u64) {
        let id = self.spans.len();
        let out = self.span(name, f);
        (out, self.spans[id].ns())
    }

    /// Every span named `name`, over all queries.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Self time per span name, in nanoseconds, summed over all spans:
    /// each span's duration minus the durations of its direct children
    /// (children of one replay never overlap: it runs on one thread).
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) += s.ns().saturating_sub(child_ns[s.id]);
        }
        out
    }

    /// All spans plus the derived self times as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n  {{\"id\": {}, \"parent\": {parent}, \"query\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.query, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n], \"self_ns\": {");
        for (i, (name, ns)) in self.self_times().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {ns}");
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::new();
        rec.set_query(7);
        rec.span("outer", |rec| {
            rec.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let outer = rec.named("outer").next().expect("outer span");
        let inner = rec.named("inner").next().expect("inner span");
        assert_eq!((outer.query, inner.query), (7, 7));
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.ns() >= inner.ns());
        let selfs = rec.self_times();
        assert_eq!(selfs["outer"], outer.ns() - inner.ns());
        assert_eq!(selfs["inner"], inner.ns());
        assert!(rec.to_json("w", 1).contains("\"parent\": 0"));
    }
}
