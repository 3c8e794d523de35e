//! In-memory span recording for the traced run.
//!
//! A span is one timed call into a layer: a name, start and end offsets
//! from the recorder's epoch, the span that was open when it began (its
//! parent), and the unit it belongs to. Spans stay in memory until the run
//! ends and are then written out as JSON lines.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `reach.patch`.
    pub name: &'static str,
    /// Start offset (ns).
    pub start_ns: u64,
    /// End offset (ns); equal to `start_ns` while the span is open.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The unit (scene evaluation or env step) the span belongs to.
    pub unit: u64,
}

impl Span {
    /// Duration (ns).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans against a fixed epoch.
#[derive(Debug)]
pub struct SpanRecorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanRecorder {
    /// A recorder with room for `capacity` spans before it reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        SpanRecorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, unit: u64) -> usize {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            unit,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span left open inside it).
    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, unit: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, unit);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_ns = self_times_ns(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"unit\":{},\"self_ns\":{}}}",
                s.name, s.start_ns, s.end_ns, s.unit, self_ns[i]
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once, and
/// any child time outside the parent's interval is ignored).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let lo = a.max(cursor);
                let hi = b.min(s.end_ns);
                if hi > lo {
                    covered += hi - lo;
                    cursor = hi;
                }
            }
            s.duration_ns() - covered.min(s.duration_ns())
        })
        .collect()
}

/// Total duration (ns) of every span named `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum()
}

/// Number of spans named `name`.
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            unit: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("unit", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            span("a.inner", 12, 20, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 12, 30, 8]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Parallel children (e.g. fanned-out patches) overlap in time.
        let spans = vec![
            span("p", 0, 100, None),
            span("c1", 10, 60, Some(0)),
            span("c2", 30, 80, Some(0)),
            span("c3", 35, 50, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn child_time_outside_parent_is_ignored() {
        let spans = vec![
            span("p", 10, 50, None),
            span("c", 0, 20, Some(0)),
            span("d", 45, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 25);
    }

    #[test]
    fn recorder_nests_and_totals() {
        let mut rec = SpanRecorder::with_capacity(8);
        let u = rec.begin("unit", 7);
        let x = rec.time("work", 7, || 41 + 1);
        let open = rec.begin("left.open", 7);
        rec.end(u); // closes the still-open child too
        assert_eq!(x, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[open].parent, Some(0));
        assert!(spans.iter().all(|s| s.unit == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[open].end_ns);
        assert_eq!(count(spans, "work"), 1);
        assert_eq!(total_ns(spans, "work"), spans[1].duration_ns());
        let selfs = self_times_ns(spans);
        assert_eq!(
            selfs[0] + spans[1].duration_ns() + spans[2].duration_ns(),
            spans[0].duration_ns()
        );
    }

    #[test]
    fn writes_one_line_per_span() {
        let mut rec = SpanRecorder::with_capacity(2);
        let u = rec.begin("unit", 3);
        rec.time("leaf", 3, || ());
        rec.end(u);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-spans-{}", std::process::id()));
        let path = dir.join("spans.jsonl");
        rec.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"id\":0,\"name\":\"unit\""));
        assert!(lines[1].contains("\"parent\":0,\"unit\":3"));
    }
}
