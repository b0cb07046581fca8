//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a layer, a name, a start, an end, the span that caused it and
//! the operation it belongs to. Spans are kept in memory and written out
//! when the run ends. A layer's self time is its spans' durations minus the
//! parts their child spans cover. With tracing off nothing is recorded;
//! [`Trace::span`] still returns the wall time of the call.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// The layers spans are attributed to, in report order.
pub const LAYERS: [&str; 9] = [
    "bench",
    "apps",
    "frontend",
    "transform",
    "analysis",
    "interp",
    "cluster",
    "service",
    "handopt",
];

/// One recorded span. Times are seconds since the trace's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// A span sink; a no-op unless tracing is on.
pub struct Trace {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    pub fn new(on: bool) -> Trace {
        Trace {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Record a finished span; returns its id when tracing is on.
    pub fn record(
        &self,
        layer: &'static str,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let mut spans = self.spans.lock().expect("trace lock poisoned");
        spans.push(Span {
            layer,
            name,
            start: self.at(start),
            end: self.at(end),
            parent,
            op,
        });
        Some(spans.len() - 1)
    }

    /// Open a span whose children are recorded before it closes.
    pub fn open(
        &self,
        layer: &'static str,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
    ) -> Option<usize> {
        let now = Instant::now();
        self.record(layer, name, op, parent, now, now)
    }

    /// Close a span opened with [`Trace::open`].
    pub fn close(&self, id: Option<usize>) {
        if let Some(id) = id {
            let end = self.at(Instant::now());
            self.spans.lock().expect("trace lock poisoned")[id].end = end;
        }
    }

    /// Run `f` inside a span; returns its result and wall seconds.
    pub fn span<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.record(layer, name, op, parent, t0, t1);
        (out, (t1 - t0).as_secs_f64())
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("trace lock poisoned").clone()
    }

    /// Self seconds per layer over spans whose root ancestor satisfies
    /// `keep`: each span's duration minus its children's.
    pub fn self_times(&self, keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut child = vec![0.0; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let root = |mut i: usize| {
            while let Some(p) = spans[i].parent {
                i = p;
            }
            i
        };
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
        for (i, s) in spans.iter().enumerate() {
            if keep(&spans[root(i)]) {
                *out.entry(s.layer).or_insert(0.0) += (s.end - s.start) - child[i];
            }
        }
        out
    }

    /// The smallest share of a `name` span's duration that its children
    /// cover (1.0 when there is no such span).
    pub fn min_child_coverage(&self, name: &str) -> f64 {
        let spans = self.spans();
        let mut child = vec![0.0; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name && s.end > s.start)
            .map(|(i, s)| child[i] / (s.end - s.start))
            .fold(1.0, f64::min)
    }

    /// Write `spans` as one JSON object per line.
    pub fn write_spans(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {i}, \"layer\": \"{}\", \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {}, \"op\": {}}}",
                s.layer,
                s.name,
                s.start,
                s.end,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op
            )?;
        }
        out.flush()
    }
}
