//! Spans around the benchmark's own calls into each layer, kept in
//! memory and written out when the run ends. With tracing off every
//! method is a branch and nothing is recorded.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer. Times are seconds since the run's
/// origin; `parent` indexes the enclosing span of the same thread.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The request (line) this span served; spans of one line share it.
    pub req: u64,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

/// A per-thread span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    fn begin(&mut self, name: &'static str, req: u64) {
        if !self.on {
            return;
        }
        let start = self.at(Instant::now());
        self.spans.push(Span {
            name,
            req,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(self.spans.len() - 1);
    }

    fn end(&mut self) {
        if !self.on {
            return;
        }
        let now = self.at(Instant::now());
        let id = self.open.pop().expect("end() matches a begin()");
        self.spans[id].end = now;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, req);
        let out = f();
        self.end();
        out
    }

    /// Records an already-observed interval (for instance between two
    /// job events) under the innermost open span.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            req,
            parent: self.open.last().copied(),
            start: self.at(start),
            end: self.at(end),
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per layer over several threads' spans, plus the residual
/// that makes the rows sum to `wall × threads`.
pub struct LayerTable {
    /// (layer, spans, self seconds), by layer name.
    pub rows: Vec<(&'static str, usize, f64)>,
    pub total: f64,
    pub residual: f64,
}

impl LayerTable {
    pub fn build(threads: &[Vec<Span>], wall: f64) -> LayerTable {
        let mut rows: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for spans in threads {
            let mut covered = vec![0.0f64; spans.len()];
            for s in spans {
                if let Some(p) = s.parent {
                    covered[p] += s.end - s.start;
                }
            }
            for (s, c) in spans.iter().zip(&covered) {
                let row = rows.entry(s.name).or_default();
                row.0 += 1;
                row.1 += (s.end - s.start) - c;
            }
        }
        let total = wall * threads.len().max(1) as f64;
        let attributed: f64 = rows.values().map(|r| r.1).sum();
        LayerTable {
            rows: rows.into_iter().map(|(k, (n, t))| (k, n, t)).collect(),
            total,
            residual: total - attributed,
        }
    }

    pub fn residual_share(&self) -> f64 {
        self.residual / self.total
    }

    /// Prints the table as `#` comment lines.
    pub fn print(&self, workload: &str, threads: usize) {
        println!(
            "# layer table {workload}: {threads} load thread(s) x {:.3} s wall = {:.3} thread-s",
            self.total / threads.max(1) as f64,
            self.total
        );
        println!(
            "# {:<26} {:>8} {:>12} {:>8}",
            "layer", "spans", "self_ms", "share"
        );
        for (name, n, t) in &self.rows {
            println!(
                "# {:<26} {:>8} {:>12.3} {:>7.2}%",
                name,
                n,
                t * 1e3,
                100.0 * t / self.total
            );
        }
        println!(
            "# {:<26} {:>8} {:>12.3} {:>7.2}%",
            "residual",
            "-",
            self.residual * 1e3,
            100.0 * self.residual_share()
        );
    }
}

/// Writes every span as one JSON object per line.
pub fn write_spans(path: &Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, spans) in threads.iter().enumerate() {
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"thread\": {thread}, \"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"req\": {}, \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.name,
                s.req,
                s.start * 1e6,
                s.end * 1e6
            )?;
        }
    }
    out.flush()
}
