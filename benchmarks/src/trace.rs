//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded around the benchmark's *own* calls into the
//! program (set-up steps, one `op` per query or batch, and the layer
//! replays under each `op`), kept in memory and written out as JSON
//! lines when the run ends. A disabled tracer costs one branch per
//! call, so the untraced pass runs the same workload code.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or `NO_PARENT`.
    parent: u32,
    /// The op (query, batch or session group) this span belongs to;
    /// 0 for set-up spans.
    pub op: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the currently open spans, innermost last.
    open: Vec<u32>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans opened from now on belong to op `op` (ids start at 1).
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.open.push(index);
        // Read the clock last so bookkeeping is outside the interval.
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let index = self.open.pop().expect("end() without begin()");
        self.spans[index as usize].end_ns = end_ns;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Count and total duration of the spans sharing each name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        let mut out: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
        }
        out
    }

    /// Every `op` span has at least one `replay` child.
    pub fn every_op_has_replays(&self) -> bool {
        let mut has = vec![false; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT && s.name.starts_with("replay") {
                has[s.parent as usize] = true;
            }
        }
        self.spans
            .iter()
            .zip(&has)
            .all(|(s, &h)| s.name != "op" || h)
    }

    /// Write one JSON object per span: name, start, end, parent, op.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"op":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        w.flush()
    }
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotal {
    pub count: u64,
    pub total_ns: u64,
}

impl SpanTotal {
    pub fn mean_ns(&self) -> f64 {
        crate::measure::ratio(self.total_ns as f64, self.count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_under_the_open_span() {
        let mut t = Tracer::new(true);
        t.begin("op");
        t.span("replay.x", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end();
        let totals = t.totals();
        let op = totals["op"];
        let child = totals["replay.x"];
        assert_eq!(op.count, 1);
        assert!(child.total_ns >= 2_000_000);
        assert!(op.total_ns >= child.total_ns);
        assert!(t.every_op_has_replays());
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("op", || ());
        assert_eq!(t.len(), 0);
    }
}
