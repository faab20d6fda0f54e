//! Benchmark-side spans: recorded around the public calls that compose
//! one op, kept in memory, written out in Chrome trace-event format when
//! the pass ends. Spans *inside* the program are a later issue; these are
//! taken from the benchmark's own files only.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::{median, quantile};

/// One closed span. `parent` indexes [`Tracer::spans`]; spans of one op
/// share `op`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`], closed by [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// An in-memory span recorder with a parent stack.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Evaluates `$call` inside a span named `$name` for op `$op` when
/// `$tracer` — a mutable `Option<&mut Tracer>` — holds a tracer, and
/// plainly otherwise: one code path for the traced and untraced pass.
macro_rules! spanned {
    ($tracer:expr, $name:expr, $op:expr, $call:expr) => {{
        let id = $tracer.as_deref_mut().map(|t| t.begin($name, $op));
        let result = $call;
        if let (Some(t), Some(id)) = ($tracer.as_deref_mut(), id) {
            t.end(id);
        }
        result
    }};
}
pub(crate) use spanned;

/// Aggregate of every span sharing a name.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfRow {
    pub name: &'static str,
    pub count: usize,
    pub median_ns: f64,
    pub p90_ns: f64,
    /// Median of (duration − time covered by direct children).
    pub self_median_ns: f64,
    pub total_self_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id.0), "spans close innermost first");
        self.spans[id.0 as usize].end_ns = end_ns;
    }

    /// Median duration of a span around nothing: what the timer itself
    /// adds to every recorded span.
    pub fn empty_span_ns() -> f64 {
        let mut tracer = Tracer::new();
        for op in 0..1_000 {
            let id = tracer.begin("empty", op);
            tracer.end(id);
        }
        median(&tracer.durations("empty"))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Per-name totals, with self time = duration − direct children.
    pub fn self_times(&self) -> Vec<SelfRow> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.dur_ns();
            }
        }
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let entry = by_name.entry(span.name).or_default();
            entry.0.push(span.dur_ns() as f64);
            entry.1.push(span.dur_ns().saturating_sub(*children) as f64);
        }
        by_name
            .into_iter()
            .map(|(name, (durs, selfs))| SelfRow {
                name,
                count: durs.len(),
                median_ns: median(&durs),
                p90_ns: quantile(&durs, 0.9),
                self_median_ns: median(&selfs),
                total_self_ns: selfs.iter().sum::<f64>() as u64,
            })
            .collect()
    }

    /// The self-time table, widest share first.
    pub fn self_time_table(&self) -> String {
        let mut rows = self.self_times();
        let total: u64 = rows.iter().map(|r| r.total_self_ns).sum::<u64>().max(1);
        rows.sort_by_key(|row| std::cmp::Reverse(row.total_self_ns));
        let mut out = format!(
            "  {:<40} {:>8} {:>12} {:>12} {:>12} {:>7}\n",
            "span", "n", "median_us", "p90_us", "self_med_us", "self_%"
        );
        for r in rows {
            out.push_str(&format!(
                "  {:<40} {:>8} {:>12.3} {:>12.3} {:>12.3} {:>6.1}%\n",
                r.name,
                r.count,
                r.median_ns / 1e3,
                r.p90_ns / 1e3,
                r.self_median_ns / 1e3,
                r.total_self_ns as f64 * 100.0 / total as f64,
            ));
        }
        out
    }

    /// Writes the spans as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto): complete events, microsecond timestamps, one lane.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing `path`.
    pub fn write_chrome(&self, path: &Path, process_name: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(file, "{{\"displayTimeUnit\": \"ns\", \"traceEvents\": [")?;
        writeln!(
            file,
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, \
             \"args\": {{\"name\": \"{process_name}\"}}}}{}",
            if self.spans.is_empty() { "" } else { "," }
        )?;
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                file,
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"op\": {}, \"parent\": {parent}}}}}{}",
                span.name,
                span.name.split('.').next().unwrap_or(""),
                span.start_ns as f64 / 1e3,
                span.dur_ns() as f64 / 1e3,
                span.op,
                if i + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        writeln!(file, "]}}")?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic() -> Tracer {
        // op(0..100) { a(10..40) { b(15..25) } c(50..90) }
        let mut t = Tracer::new();
        let mk = |name, parent, start_ns, end_ns| Span {
            name,
            op: 7,
            parent,
            start_ns,
            end_ns,
        };
        t.spans = vec![
            mk("op", None, 0, 100),
            mk("layer.a", Some(0), 10, 40),
            mk("layer.b", Some(1), 15, 25),
            mk("layer.c", Some(0), 50, 90),
        ];
        t
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let rows = synthetic().self_times();
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        assert_eq!(get("op").self_median_ns, 30.0); // 100 - (30 + 40)
        assert_eq!(get("layer.a").self_median_ns, 20.0); // 30 - 10
        assert_eq!(get("layer.b").self_median_ns, 10.0);
        assert_eq!(get("layer.c").self_median_ns, 40.0);
        // Self times partition the root span exactly.
        assert_eq!(rows.iter().map(|r| r.total_self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn begin_end_nest_and_record_parents() {
        let mut t = Tracer::new();
        let op = t.begin("op", 1);
        let child = t.begin("child", 1);
        t.end(child);
        t.end(op);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert!(t.spans()[0].dur_ns() >= t.spans()[1].dur_ns());
        assert_eq!(t.durations("child").len(), 1);
    }

    #[test]
    fn chrome_trace_is_well_formed_json() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join("trace-unit-test.json");
        synthetic().write_chrome(&path, "unit").unwrap();
        let doc = crate::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().items();
        assert_eq!(events.len(), 5);
        assert_eq!(events[2].get("ph").and_then(|p| p.as_str()), Some("X"));
        assert_eq!(
            events[2]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(|p| p.as_f64()),
            Some(0.0)
        );
        std::fs::remove_file(path).unwrap();
    }
}
