//! In-memory span recorder for the traced run.
//!
//! A span wraps one benchmark call into a layer's public function. Spans
//! are kept in memory (one `Vec` push per span) and written out once, at
//! exit. Every span carries the id of the user operation it belongs to;
//! the operation itself is the root span. Times are on the process CPU
//! clock (see `host.rs`).

use crate::host::cpu_now;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Duration;

/// One recorded span.
struct Span {
    op: u64,
    parent: Option<usize>,
    name: &'static str,
    start: Duration,
    end: Duration,
}

/// An open span, closed by [`Tracer::close`].
#[must_use]
pub struct Open {
    index: Option<usize>,
    start: Duration,
}

/// The recorder. While `recording` is false it only times: calls still
/// return their durations, but nothing is kept.
pub struct Tracer {
    origin: Duration,
    recording: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_op: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: cpu_now(),
            recording: false,
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 0,
        }
    }

    /// Switch recording on or off between operations.
    pub fn set_recording(&mut self, on: bool) {
        assert!(
            self.stack.is_empty(),
            "recording toggled inside an open span"
        );
        self.recording = on;
    }

    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Open a root span: a new user operation.
    pub fn open_op(&mut self, name: &'static str) -> Open {
        assert!(
            self.stack.is_empty(),
            "operation opened inside another span"
        );
        self.next_op += 1;
        self.open(name)
    }

    /// Open a span under the innermost open span.
    pub fn open(&mut self, name: &'static str) -> Open {
        let start = cpu_now();
        let index = self.recording.then(|| {
            self.spans.push(Span {
                op: self.next_op,
                parent: self.stack.last().copied(),
                name,
                start: start - self.origin,
                end: start - self.origin,
            });
            let i = self.spans.len() - 1;
            self.stack.push(i);
            i
        });
        Open { index, start }
    }

    /// Close a span; returns its duration.
    pub fn close(&mut self, open: Open) -> Duration {
        let end = cpu_now();
        if let Some(i) = open.index {
            let top = self.stack.pop();
            assert_eq!(top, Some(i), "spans closed out of order");
            self.spans[i].end = end - self.origin;
        }
        end - open.start
    }

    /// Time a leaf call (one that opens no spans of its own).
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let open = self.open(name);
        let out = f();
        (out, self.close(open))
    }

    pub fn num_spans(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span: its duration minus the time its children
    /// cover (children of one parent never overlap).
    fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end - s.start);
            }
        }
        own
    }

    /// Write every span (`op span parent name start_ns end_ns self_ns`)
    /// and a per-name summary (`name count total_ns self_ns`).
    pub fn write(&self, spans_path: &Path, summary_path: &Path) -> std::io::Result<()> {
        let own = self.self_times();
        let mut out = std::io::BufWriter::new(std::fs::File::create(spans_path)?);
        writeln!(out, "op\tspan\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.op,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                own[i].as_nanos()
            )?;
        }
        out.flush()?;

        let mut by_name: BTreeMap<&str, (u64, Duration, Duration)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(&own) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end - s.start;
            e.2 += *own;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(summary_path)?);
        writeln!(out, "name\tcount\ttotal_ns\tself_ns")?;
        for (name, (count, total, own)) in by_name {
            writeln!(
                out,
                "{name}\t{count}\t{}\t{}",
                total.as_nanos(),
                own.as_nanos()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.set_recording(true);
        let op = t.open_op("op");
        let (_, child) = t.time("child", || {
            (0..2_000_000u64).fold(0u64, |x, i| std::hint::black_box(x ^ i.wrapping_mul(31)))
        });
        let total = t.close(op);
        let own = t.self_times();
        assert_eq!(t.num_spans(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(own[0] <= total - child + Duration::from_micros(1));
        assert_eq!(own[1], t.spans[1].end - t.spans[1].start);
    }

    #[test]
    fn off_records_nothing_but_times() {
        let mut t = Tracer::new();
        let (v, _) = t.time("leaf", || 7);
        assert_eq!(v, 7);
        assert_eq!(t.num_spans(), 0);
    }
}
