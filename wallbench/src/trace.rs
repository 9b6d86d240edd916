//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a layer
//! (engine entry points and the per-layer replays). Spans stay in memory
//! and are written out as JSON lines when the run ends. A disabled tracer
//! only runs the closure, so the untraced run pays nothing for it.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Enclosing span on the same thread (0 = none).
    pub parent: u64,
    pub name: &'static str,
    /// Request id shared by the spans of one operation (0 = none).
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has been opened and not yet ended.
pub struct Open(Option<Span>);

/// Per-thread recorder; [`Tracer::fork`] makes one for another thread
/// that shares the clock and id space.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    ids: Arc<AtomicU64>,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            ids: Arc::new(AtomicU64::new(1)),
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// A recorder for another thread whose root spans are children of the
    /// span currently open here.
    pub fn fork(&self) -> Self {
        Self {
            on: self.on,
            epoch: self.epoch,
            ids: Arc::clone(&self.ids),
            stack: self.stack.last().copied().into_iter().collect(),
            spans: Vec::new(),
        }
    }

    /// Takes over the spans a forked recorder collected.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Opens a span; close it with [`Tracer::end`]. Spans opened on this
    /// thread before it ends become its children.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.ids.fetch_add(1, Ordering::Relaxed);
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        Open(Some(Span {
            id,
            parent,
            name,
            req,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        }))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(mut span) = open.0 {
            span.end_ns = self.epoch.elapsed().as_nanos() as u64;
            self.stack.retain(|&id| id != span.id);
            self.spans.push(span);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, req);
        let out = f();
        self.end(open);
        out
    }

    /// Durations in ns of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line, in start order.
    pub fn write_jsonl(&mut self, path: &Path) -> std::io::Result<()> {
        self.spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_forks_inherit_it() {
        let mut t = Tracer::new(true);
        let phase = t.begin("phase", 0);
        t.span("call", 7, || ());
        let mut f = t.fork();
        t.end(phase);
        f.span("inner", 3, || ());
        let phase_id = t
            .spans
            .iter()
            .find(|s| s.name == "phase")
            .expect("phase")
            .id;
        let call = t.spans.iter().find(|s| s.name == "call").expect("call");
        assert_eq!(call.parent, phase_id);
        assert_eq!(f.spans[0].parent, phase_id);
        t.absorb(f);
        assert_eq!(t.len(), 3);
        assert_eq!(t.durations("inner").len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 1, || 5), 5);
        assert_eq!(t.len(), 0);
    }
}
