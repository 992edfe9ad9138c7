//! In-memory span recorder for the traced run.
//!
//! A span is a named interval with an optional parent. Spans live in a
//! vector until the run ends; [`Tracer::write_jsonl`] then writes them out
//! one JSON object per line. A disabled tracer records nothing and costs
//! one branch per call, so the same benchmark code serves the untraced run.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Identifier of an open or closed span (`NONE` when tracing is off).
pub type SpanId = usize;

const NONE: SpanId = usize::MAX;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return NONE;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        self.end_as(id, None);
    }

    /// Close span `id` and rename it — how a tick is classified once the
    /// counters around it show what it did.
    pub fn end_as(&mut self, id: SpanId, name: Option<&'static str>) {
        if id == NONE {
            return;
        }
        let end_ns = self.now_ns();
        let innermost = self.open.pop();
        debug_assert_eq!(innermost, Some(id), "spans must close innermost-first");
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        if let Some(name) = name {
            span.name = name;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every closed span named `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Total duration (ns) of the spans named `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.durations(name).iter().sum()
    }

    /// Self time (ns) of the spans named `name`: their duration minus the
    /// part covered by their direct children.
    pub fn self_time(&self, name: &str) -> u64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.duration_ns().saturating_sub(child_ns[i]))
            .sum()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let total = t.total("outer");
        let own = t.self_time("outer");
        assert!(total >= t.total("inner"));
        assert_eq!(own, total - t.total("inner"));
        assert_eq!(t.spans()[inner].parent, Some(outer));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x");
        t.end_as(id, Some("y"));
        assert!(t.spans().is_empty());
    }
}
