//! In-memory span recorder for the traced run.
//!
//! Spans carry a name, start, end, parent and run id. They stay in
//! memory while the run executes and are written out as JSON lines when
//! it ends. A span's self time is its duration minus the time covered
//! by its direct children; the run is serial, so children never overlap.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    run: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(run: u64) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            run,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Renames a closed span, for calls whose layer is only known once
    /// they return (a seed-index lookup that turned out to build).
    pub fn rename(&mut self, id: usize, name: &'static str) {
        self.spans[id].name = name;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `id` in seconds.
    pub fn seconds(&self, id: usize) -> f64 {
        self.spans[id].duration_ns() as f64 * 1e-9
    }

    /// Self time per span name, in seconds.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(child_ns) {
            let own = span.duration_ns().saturating_sub(covered);
            *out.entry(span.name).or_default() += own as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl<W: Write>(&self, mut out: W) -> io::Result<()> {
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                span.name, span.start_ns, span.end_ns, span.run
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut tr = Tracer::new(3);
        tr.spans = vec![
            Span {
                name: "run",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                run: 3,
            },
            Span {
                name: "filter",
                start_ns: 10,
                end_ns: 50,
                parent: Some(0),
                run: 3,
            },
            Span {
                name: "extend",
                start_ns: 20,
                end_ns: 30,
                parent: Some(1),
                run: 3,
            },
            Span {
                name: "filter",
                start_ns: 60,
                end_ns: 70,
                parent: Some(0),
                run: 3,
            },
        ];
        let own = tr.self_seconds();
        assert!((own["run"] - 50e-9).abs() < 1e-15);
        assert!((own["filter"] - 40e-9).abs() < 1e-15);
        assert!((own["extend"] - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn nested_spans_record_parents_and_run() {
        let mut tr = Tracer::new(9);
        let root = tr.enter("run");
        tr.time("seed.table", || ());
        let inner = tr.enter("pangenome.index");
        tr.exit(inner);
        tr.rename(inner, "seed.table");
        tr.exit(root);
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[2].name, "seed.table");
        assert!(spans.iter().all(|s| s.run == 9 && s.end_ns >= s.start_ns));
        let mut text = Vec::new();
        tr.write_jsonl(&mut text).unwrap();
        assert_eq!(String::from_utf8(text).unwrap().lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn out_of_order_close_is_a_bug() {
        let mut tr = Tracer::new(0);
        let a = tr.enter("a");
        let _b = tr.enter("b");
        tr.exit(a);
    }
}
