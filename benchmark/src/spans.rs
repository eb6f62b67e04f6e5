//! Bench-side spans: each public call the traced pass makes into a layer
//! is bracketed here, from outside the program. Spans stay in memory
//! until the run ends, then go to a JSON-lines file.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `models.forward`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the call served (0 for set-up and kernel calls).
    pub request: u64,
    /// Start, µs since the tracer was created.
    pub start_us: f64,
    /// End, µs since the tracer was created (NaN while open).
    pub end_us: f64,
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span; returns its id for [`Tracer::end`] and for children.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            parent,
            request,
            start_us,
            end_us: f64::NAN,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        let now = self.now_us();
        self.spans[id].end_us = now;
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = std::hint::black_box(f());
        self.end(id);
        out
    }

    /// Durations (µs) of every closed span called `name`, in order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_us.is_finite())
            .map(|s| s.end_us - s.start_us)
            .collect()
    }

    /// Writes one JSON object per span to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.request, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_time_their_calls() {
        let mut t = Tracer::default();
        let root = t.begin("request", None, 7);
        let v = t.time("child", Some(root), 7, || 41 + 1);
        t.end(root);
        assert_eq!(v, 42);
        assert_eq!(t.spans[1].parent, Some(root));
        assert_eq!(t.spans[1].request, 7);
        let (outer, inner) = (t.durations_us("request")[0], t.durations_us("child")[0]);
        assert!(outer >= inner && inner >= 0.0);
        assert!(t.durations_us("missing").is_empty());
    }
}
