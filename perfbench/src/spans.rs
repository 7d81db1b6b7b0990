//! Host-time spans around the benchmark's calls into each layer.
//!
//! Workloads are generic over [`Spans`]. The untraced run uses [`Off`],
//! whose `time` is an inlined pass-through, so end-to-end numbers carry no
//! timer calls. The traced run uses [`Recorder`], which keeps every span
//! in memory and writes them out once the run has ended.

use std::fmt::Write as _;
use std::time::Instant;

/// Marks a span that belongs to no single operation.
pub const NO_OP: u64 = u64::MAX;

/// Wraps calls into a layer. Spans nest: a span entered while another is
/// open records it as its parent.
pub trait Spans {
    /// Opens a span called `name`, attributed to operation `op` (or
    /// [`NO_OP`]).
    fn enter(&mut self, name: &'static str, op: u64);

    /// Closes the innermost open span.
    fn exit(&mut self);

    /// Runs `f` inside a span.
    #[inline(always)]
    fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, op);
        let r = f();
        self.exit();
        r
    }
}

/// Tracing off: no clock reads, no allocation.
pub struct Off;

impl Spans for Off {
    #[inline(always)]
    fn enter(&mut self, _name: &'static str, _op: u64) {}

    #[inline(always)]
    fn exit(&mut self) {}
}

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` for a root.
    pub parent: u32,
    pub op: u64,
}

/// Tracing on: every span is kept, with its parent, until written out.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Recorder {
    fn ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds spent inside spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum::<u64>() as f64
            / 1e9
    }

    /// Tab-separated dump: `id parent name start_ns end_ns op`.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\tname\tstart_ns\tend_ns\top\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let op = if s.op == NO_OP {
                "-".to_string()
            } else {
                s.op.to_string()
            };
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{op}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

impl Spans for Recorder {
    fn enter(&mut self, name: &'static str, op: u64) {
        let parent = self.open.last().copied().unwrap_or(u32::MAX);
        self.open.push(self.spans.len() as u32);
        let start_ns = self.ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
    }

    fn exit(&mut self) {
        let idx = self.open.pop().expect("exit matches an enter") as usize;
        self.spans[idx].end_ns = self.ns();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let mut rec = Recorder::default();
        rec.enter("run", NO_OP);
        let v = rec.time("noc.step", 7, || 41 + 1);
        rec.exit();
        assert_eq!(v, 42);
        let s = rec.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].parent, u32::MAX);
        assert_eq!(s[1].parent, 0);
        assert_eq!(s[1].op, 7);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(rec.to_tsv().lines().count(), 3);
        assert!(rec.total_s("noc.step") >= 0.0);
    }
}
