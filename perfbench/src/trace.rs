//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start, an end and the span that was open when it
//! began. Spans stay in memory until the run ends; [`Tracer::self_ms`]
//! then turns them into per-name self time (a span's duration minus the
//! durations of its children). Counts sit beside the spans, keyed by the
//! per-layer metric they feed. An untraced [`Tracer`] records nothing, so
//! both modes make the same library calls in the same order.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Handle of an open span; pass it back to [`Tracer::close`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

/// Records spans and counts when on; a no-op when off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
    /// Time spent collecting counts, part of the tracing overhead.
    counting: Duration,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every call.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
            counting: Duration::ZERO,
        }
    }

    /// Whether spans and counts are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(0);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes a span opened by [`Tracer::open`]; spans close innermost
    /// first.
    pub fn close(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let end = self.epoch.elapsed();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0].end = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let r = f();
        self.close(id);
        r
    }

    /// Adds to a count when tracing; `f` is not even called otherwise.
    /// The time `f` takes is booked as tracing overhead.
    pub fn count(&mut self, name: &'static str, f: impl FnOnce() -> f64) {
        if !self.on {
            return;
        }
        let t = Instant::now();
        let v = f();
        *self.counts.entry(name).or_insert(0.0) += v;
        self.counting += t.elapsed();
    }

    /// Raises a count to `v` if it is larger (for peaks).
    pub fn count_max(&mut self, name: &'static str, v: f64) {
        if self.on {
            let e = self.counts.entry(name).or_insert(0.0);
            *e = e.max(v);
        }
    }

    /// The accumulated count, 0 when never recorded.
    pub fn get(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Number of spans recorded.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Time spent collecting counts.
    pub fn counting_time(&self) -> Duration {
        self.counting
    }

    /// Self time per span name in milliseconds: each span's duration
    /// minus the time its direct children cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end.saturating_sub(s.start);
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child) {
            let own = s.end.saturating_sub(s.start).saturating_sub(*c);
            *out.entry(s.name).or_insert(0.0) += own.as_secs_f64() * 1e3;
        }
        out
    }
}

/// Measured cost of recording one span (open plus close), from a burst
/// of throwaway spans; multiplied by the span count it estimates what
/// span recording added to a traced run.
pub fn span_cost() -> Duration {
    const N: u32 = 100_000;
    let mut t = Tracer::new(true);
    let start = Instant::now();
    for _ in 0..N {
        let id = t.open("calibrate");
        t.close(id);
    }
    start.elapsed() / N
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.open("op");
        let inner = t.open("work");
        std::thread::sleep(Duration::from_millis(20));
        t.close(inner);
        std::thread::sleep(Duration::from_millis(5));
        t.close(outer);
        let ms = t.self_ms();
        assert!(ms["work"] >= 20.0);
        assert!(ms["op"] >= 5.0 && ms["op"] < ms["work"]);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("op");
        t.count("n", || panic!("counts are not computed when off"));
        t.close(id);
        assert_eq!(t.span_count(), 0);
        assert_eq!(t.get("n"), 0.0);
        assert!(t.self_ms().is_empty());
    }
}
