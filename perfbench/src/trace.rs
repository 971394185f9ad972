//! In-memory span recording for the traced run.
//!
//! A span is (name, start, end, parent, request id), recorded around the
//! benchmark's own calls into a layer's public functions; nothing inside
//! the library is instrumented. Spans stay in a preallocated per-thread
//! buffer and are written out when the run ends. A layer's self time is its
//! duration minus the time its child spans cover.

use crate::{Opts, Report};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same buffer, or `u32::MAX`.
    pub parent: u32,
    pub request: u64,
}

pub const NO_PARENT: u32 = u32::MAX;

/// One thread's span buffer. While it is off, and once it is full, `begin`
/// returns [`NO_PARENT`] without reading the clock and `end` of
/// [`NO_PARENT`] does nothing, so call sites need no guard of their own.
/// Spans that do not fit are counted as dropped.
pub struct Tracer {
    base: Instant,
    pub spans: Vec<Span>,
    cap: usize,
    on: bool,
    pub dropped: u64,
}

impl Tracer {
    pub fn new(base: Instant, cap: usize) -> Self {
        Tracer {
            base,
            spans: Vec::with_capacity(cap),
            cap,
            on: false,
            dropped: 0,
        }
    }

    /// Record spans from now on (`true`) or not.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return NO_PARENT;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    #[inline]
    pub fn end(&mut self, id: u32) {
        if id == NO_PARENT {
            return;
        }
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = now;
        }
    }
}

/// Per span name: count, total and self time.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanTotals {
    pub fn self_ns_per_span(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

/// Self-time table over any number of thread buffers.
pub fn self_times(buffers: &[Tracer]) -> BTreeMap<&'static str, SpanTotals> {
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for t in buffers {
        let mut child_ns = vec![0u64; t.spans.len()];
        for s in &t.spans {
            if let Some(c) = child_ns.get_mut(s.parent as usize) {
                *c += s.end_ns - s.start_ns;
            }
        }
        for (s, children) in t.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(children);
        }
    }
    out
}

/// Write the first `limit` spans of each thread as tab-separated text:
/// `thread id parent name request start_ns end_ns`.
pub fn write_spans(path: &Path, buffers: &[Tracer], limit: usize) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "thread\tid\tparent\tname\trequest\tstart_ns\tend_ns")?;
    for (thread, t) in buffers.iter().enumerate() {
        for (id, s) in t.spans.iter().enumerate().take(limit) {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{thread}\t{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
    }
    w.flush()
}

/// Spans per thread written to the span file (all recorded spans count
/// towards the self times).
const SPANS_WRITTEN_PER_THREAD: usize = 100_000;

/// The trace figures every workload reports: tracing overhead, the share of
/// call time spent inside library spans, the self-time table and the span
/// dump.
pub fn finish(
    opts: &Opts,
    report: &mut Report,
    tracers: &[Tracer],
    untraced_mops: &[f64],
    traced_mops: &[f64],
) {
    let totals = self_times(tracers);
    let root_ns: u64 = totals.get("request").map_or(0, |t| t.total_ns);
    let library_ns: u64 = totals
        .iter()
        .filter(|(name, _)| name.starts_with("core.") || name.starts_with("net."))
        .map(|(_, t)| t.total_ns)
        .sum();
    report.own(
        "trace.throughput_ratio",
        crate::measure::median(traced_mops) / crate::measure::median(untraced_mops),
    );
    report.own(
        "trace.library_share",
        library_ns as f64 / root_ns.max(1) as f64,
    );
    for (name, t) in &totals {
        report.notes.push(format!(
            "span {name:<34} count {:>9} self {:>10.1} ns/span total {:>10.1} ns/span",
            t.count,
            t.self_ns_per_span(),
            t.total_ns as f64 / t.count.max(1) as f64
        ));
    }
    let recorded: usize = tracers.iter().map(|t| t.spans.len()).sum();
    let dropped: u64 = tracers.iter().map(|t| t.dropped).sum();
    let path = opts
        .out_dir
        .join(format!("spans-{}-{}.tsv", opts.workload, opts.seed));
    match write_spans(&path, tracers, SPANS_WRITTEN_PER_THREAD) {
        Ok(()) => report.notes.push(format!(
            "{recorded} spans recorded ({dropped} dropped); the first {SPANS_WRITTEN_PER_THREAD} per thread written to {}",
            path.display()
        )),
        Err(e) => report.notes.push(format!("spans not written: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now(), 8);
        t.spans.push(Span {
            name: "call",
            start_ns: 0,
            end_ns: 100,
            parent: NO_PARENT,
            request: 0,
        });
        for (a, b) in [(10, 40), (50, 70)] {
            t.spans.push(Span {
                name: "layer",
                start_ns: a,
                end_ns: b,
                parent: 0,
                request: 0,
            });
        }
        let st = self_times(&[t]);
        assert_eq!(st["call"].self_ns, 50);
        assert_eq!(st["layer"].count, 2);
        assert_eq!(st["layer"].self_ns, 50);
    }

    #[test]
    fn off_or_full_buffer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), 1);
        assert_eq!(t.begin("off", NO_PARENT, 0), NO_PARENT);
        t.set_on(true);
        let a = t.begin("a", NO_PARENT, 0);
        t.end(a);
        assert_eq!(t.begin("b", a, 0), NO_PARENT);
        assert_eq!((t.spans.len(), t.dropped), (1, 1));
    }
}
