//! In-memory span recorder for the traced run.
//!
//! A span is one call from this benchmark into a layer of the simulator:
//! its layer, name, parent span and host start/end. Spans stay in memory
//! and are written out once, when the run ends. With tracing off,
//! [`Tracer::span`] only calls the closure.

use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Self::new(false)
    }

    /// Time `f` as a span of `layer` under the innermost open span.
    pub fn span<T>(&mut self, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            layer,
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f();
        self.open.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Open a span whose children are recorded by further `span` calls;
    /// close it with [`Tracer::close`].
    pub fn open(&mut self, layer: &'static str, name: &str) {
        if !self.on {
            return;
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.open.push(self.spans.len());
        self.spans.push(Span {
            layer,
            name: name.to_string(),
            parent: self.open.iter().rev().nth(1).copied(),
            start_ns,
            end_ns: start_ns,
        });
    }

    pub fn close(&mut self) {
        if let Some(id) = self.open.pop() {
            self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id`: its duration minus what its children cover.
    pub fn self_seconds(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::seconds)
            .sum();
        self.spans[id].seconds() - children
    }

    /// Spans as JSON lines: layer, name, parent, start, end, self time.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"layer\":\"{}\",\"name\":\"{}\",\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_s\":{}}}\n",
                s.layer,
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_seconds(id)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.open("bench", "pass");
        t.span("experiments", "a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close();
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.self_seconds(0) < t.spans()[0].seconds());
        assert!(t.self_seconds(1) >= 0.002);
    }

    #[test]
    fn tracing_off_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("kernel", "x", || 5), 5);
        assert!(t.spans().is_empty());
    }
}
