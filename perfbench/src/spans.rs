//! In-memory spans recorded by the runner around calls into each layer.
//!
//! The product is not instrumented: a span is opened and closed by the
//! benchmark on its own thread, around a call into a layer's public
//! function. Spans nest by a stack, so a span's parent is whatever was
//! open when it started. They stay in memory until the run ends.

use crate::json;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded span. `parent` indexes into the tracer's span list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `session.ingest`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one repetition.
    pub run: u32,
}

impl Span {
    /// `end_ns - start_ns`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer; its clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            // Room for a few repetitions of ~500 chunks × 3 spans, so the
            // list does not regrow inside a traced repetition.
            spans: Vec::with_capacity(1 << 14),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Start the next repetition: later spans carry a new `run` id.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    /// Open a span under whatever span is open now.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`. Returns its
    /// duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = now;
        self.spans[id].duration_ns()
    }

    /// Record `f` as a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the spans called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Durations of the spans called `name`, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Write the spans as a JSON array of
    /// `{name, start_ns, end_ns, parent, run}` objects.
    pub fn write_json(&self, mut w: impl Write) -> io::Result<()> {
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "  {{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"run\": {}}}{}",
                json::quote(s.name),
                s.start_ns,
                s.end_ns,
                s.run,
                if i + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        writeln!(w, "]")
    }
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover. Children recorded on one thread do not overlap, so
/// the covered part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// The smallest share of a `parent_name` span that its children cover
/// (1.0 when there is no such span). The traced run decomposes when this
/// is near 1: little of a repetition is left unattributed.
pub fn min_child_coverage(spans: &[Span], parent_name: &str) -> f64 {
    let own = self_times_ns(spans);
    spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == parent_name && s.duration_ns() > 0)
        .map(|(s, &own_ns)| 1.0 - own_ns as f64 / s.duration_ns() as f64)
        .fold(1.0, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_only_from_their_parent() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("chunk", 10, 60, Some(0)),
            span("ingest", 10, 40, Some(1)),
            span("drain", 40, 55, Some(1)),
            span("chunk", 60, 95, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![15, 5, 30, 15, 35]);
        // rep is covered 85 %, the first chunk 90 %, the second 0 %.
        assert!((min_child_coverage(&spans, "rep") - 0.85).abs() < 1e-12);
        assert!((min_child_coverage(&spans, "chunk") - 0.0).abs() < 1e-12);
        assert_eq!(min_child_coverage(&spans, "absent"), 1.0);
    }

    #[test]
    fn tracer_nests_by_open_order_and_tags_runs() {
        let mut t = Tracer::new();
        let rep = t.open("rep");
        t.span("ingest", || std::hint::black_box(1 + 1));
        t.close(rep);
        t.next_run();
        t.span("rep", || ());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        assert_eq!((s[0].run, s[1].run, s[2].run), (0, 0, 1));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(t.durations_ns("rep").len(), 2);
        let mut out = Vec::new();
        t.write_json(&mut out).unwrap();
        let parsed = crate::json::Json::parse(std::str::from_utf8(&out).unwrap()).unwrap();
        assert_eq!(parsed.as_arr().unwrap().len(), 3);
    }
}
