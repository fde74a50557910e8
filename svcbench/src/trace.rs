//! In-memory spans recorded around the benchmark's calls into each layer.
//! Spans stay in memory during the run and are written out at exit; the
//! per-layer metrics are computed from them.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `http.assign` or `em.fit`.
    pub name: &'static str,
    /// Unique within the run (the recording thread's id range).
    pub id: u64,
    /// The span that caused this one (0 = none).
    pub parent: u64,
    /// Visit, batch or cycle id the call served.
    pub key: u64,
    /// Start and end, nanoseconds since the run's origin.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A per-thread span buffer. A disabled tracer records nothing, so the
/// untraced runs pay no tracing cost.
pub struct Tracer {
    origin: Instant,
    next_id: u64,
    enabled: bool,
    /// The open span new spans are children of (0 = none).
    parent: u64,
    spans: Vec<Span>,
}

/// A span opened with [`Tracer::open`]; spans recorded until it is closed
/// are its children.
pub struct Open {
    id: u64,
    outer: u64,
    start: Instant,
}

impl Tracer {
    /// A tracer whose span ids start at `thread << 32` (unique per thread)
    /// and whose spans are children of `parent`.
    pub fn new(origin: Instant, thread: u64, enabled: bool, parent: u64) -> Tracer {
        Tracer { origin, next_id: (thread << 32) + 1, enabled, parent, spans: Vec::new() }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The innermost open span (0 = none).
    pub fn parent(&self) -> u64 {
        self.parent
    }

    fn push(
        &mut self,
        id: u64,
        parent: u64,
        name: &'static str,
        key: u64,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span { name, id, parent, key, start_ns: ns(start), end_ns: ns(end) });
    }

    /// Record a span that ran from `start` to `end` under the open span.
    pub fn record(&mut self, name: &'static str, key: u64, start: Instant, end: Instant) {
        if self.enabled {
            let id = self.next_id;
            self.next_id += 1;
            self.push(id, self.parent, name, key, start, end);
        }
    }

    /// Run `f` inside a span; returns its result.
    pub fn time<R>(&mut self, name: &'static str, key: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, key, start, Instant::now());
        out
    }

    /// Open a span that started at `start`; close it with [`Self::close`].
    pub fn open(&mut self, start: Instant) -> Open {
        let id = if self.enabled { self.next_id } else { 0 };
        self.next_id += u64::from(self.enabled);
        let outer = std::mem::replace(&mut self.parent, id);
        Open { id, outer, start }
    }

    /// Close `open`, recording it as `name`.
    pub fn close(&mut self, open: Open, name: &'static str, key: u64) {
        self.parent = open.outer;
        if self.enabled {
            self.push(open.id, open.outer, name, key, open.start, Instant::now());
        }
    }

    /// Take another thread's spans.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::us).collect()
    }

    /// Write every span as tab-separated values.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tkey\tstart_ns\tend_ns")?;
        let mut spans = self.spans.clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        for s in &spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.key, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
