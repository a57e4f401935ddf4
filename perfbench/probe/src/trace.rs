//! In-memory trace spans, written out once when the command ends.

use crate::json::Obj;
use std::io::Write;
use std::time::Instant;

struct Span {
    id: usize,
    parent: Option<usize>,
    name: String,
    /// Seconds since the tracer was created.
    start: f64,
    end: f64,
    /// The detect run or request the span belongs to.
    run: String,
}

/// Collects spans; ids are indices into the span list.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span starting now.
    pub fn open(&mut self, run: &str, name: &str, parent: Option<usize>) -> usize {
        let start = self.now();
        self.record(run, name, parent, start, start)
    }

    /// Closes span `id` now and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = self.now();
        let span = &mut self.spans[id];
        span.end = end;
        end - span.start
    }

    /// Moves the end of span `id` to `end`.
    pub fn set_end(&mut self, id: usize, end: f64) {
        self.spans[id].end = end;
    }

    /// Records a finished span with explicit times (seconds since the
    /// tracer's origin) and returns its id.
    pub fn record(
        &mut self,
        run: &str,
        name: &str,
        parent: Option<usize>,
        start: f64,
        end: f64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start,
            end,
            run: run.to_string(),
        });
        id
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write(&self, path: &str) -> Result<(), String> {
        let file = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
        let mut out = std::io::BufWriter::new(file);
        for span in &self.spans {
            let mut o = Obj::new();
            o.int("id", span.id as u64)
                .str("run", &span.run)
                .str("name", &span.name)
                .num("start", span.start)
                .num("end", span.end);
            match span.parent {
                Some(p) => o.int("parent", p as u64),
                None => o.num("parent", f64::NAN),
            };
            writeln!(out, "{}", o.render()).map_err(|e| format!("writing {path}: {e}"))?;
        }
        out.flush().map_err(|e| format!("writing {path}: {e}"))
    }
}
