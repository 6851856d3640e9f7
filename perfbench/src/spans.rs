//! In-memory span tracer for the traced run.
//!
//! Spans are recorded around calls into each layer's public functions
//! from this package's own code; the program itself is not instrumented.
//! Every span has a name (the layer), a start and end on one monotonic
//! clock, the span that was open when it started (its parent) and an
//! operation id shared by all spans of one user session or grid cell.
//!
//! A *replica* span re-times a step that runs hidden inside another
//! layer's call on the same inputs (for example the trace hash inside a
//! cached `run_grid`). Its duration is carved out of its host span's
//! self time and left out of the wall time, so the layer self times
//! still add up to the wall time of the real work.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the root span around one repetition of a workload. Its self
/// time is the benchmark's own glue between layer calls.
pub const REP: &str = "bench.rep";

/// Name of the spans around the benchmark's own bookkeeping (counting
/// bytes for the ledger): left out of the wall time and of every layer.
pub const ASIDE: &str = "bench.aside";

/// One completed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name, e.g. `trace.synth`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span open when this one started.
    pub parent: Option<usize>,
    /// Operation id: the user, record or cell this span worked for.
    pub op: u64,
    /// For a replica, the span whose hidden work it re-times.
    pub host: Option<usize>,
    /// Replicas and bookkeeping: left out of the wall time.
    pub aside: bool,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when on; runs the closures untouched when off.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Calls and self time of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded for the layer.
    pub calls: u64,
    /// Span time not covered by child spans or carved-out replicas,
    /// summed over the layer's spans (a replica may re-time a step a
    /// little slower than its host ran it; the sum is floored at 0).
    pub self_ns: u64,
}

/// Per-layer self times of a range of spans.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Root span time minus replica time: the wall time of the real work.
    pub wall_ns: u64,
    /// Layer name to calls and self time (the root's glue included).
    pub layers: BTreeMap<&'static str, LayerTime>,
}

impl Ledger {
    /// Self time of `layer` in seconds (0 when it never ran).
    #[must_use]
    pub fn busy_s(&self, layer: &str) -> f64 {
        self.layers
            .get(layer)
            .map_or(0.0, |l| l.self_ns as f64 * 1e-9)
    }

    /// Span count of `layer`.
    #[must_use]
    pub fn calls(&self, layer: &str) -> u64 {
        self.layers.get(layer).map_or(0, |l| l.calls)
    }

    /// Wall time in seconds.
    #[must_use]
    pub fn wall_s(&self) -> f64 {
        self.wall_ns as f64 * 1e-9
    }

    /// Sum of every layer's self time over the wall time: 1 minus the
    /// share of the benchmark's own glue.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let layers: u64 = self
            .layers
            .iter()
            .filter(|(name, _)| **name != REP)
            .map(|(_, l)| l.self_ns)
            .sum();
        layers as f64 / self.wall_ns.max(1) as f64
    }
}

impl Tracer {
    /// A tracer that records spans when `on`.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Number of spans recorded so far (a mark for [`Tracer::ledger`]).
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` for operation `op`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        self.span_id(name, op, f).0
    }

    /// [`Tracer::span`], also returning the span's index (a replica
    /// host); `None` when tracing is off.
    pub fn span_id<T>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, Option<usize>) {
        if !self.on {
            return (f(self), None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
            host: None,
            aside: false,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = self.now();
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = end;
        }
        (out, Some(id))
    }

    /// Times `f` as a replica of work hidden inside span `host`: the
    /// duration is taken out of the host's self time and out of the
    /// wall time. Runs `f` untimed when tracing is off.
    pub fn replica<T>(
        &mut self,
        host: Option<usize>,
        name: &'static str,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on || host.is_none() {
            return f();
        }
        self.push_aside(name, op, host, f)
    }

    /// Runs the benchmark's own bookkeeping `f` outside the wall time.
    pub fn aside<T>(&mut self, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        self.push_aside(ASIDE, 0, None, f)
    }

    fn push_aside<T>(
        &mut self,
        name: &'static str,
        op: u64,
        host: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            op,
            host,
            aside: true,
        });
        out
    }

    /// Self time per layer over the spans recorded since `mark`.
    #[must_use]
    pub fn ledger(&self, mark: usize) -> Ledger {
        let spans = self.spans.get(mark..).unwrap_or_default();
        let mut self_ns: Vec<i128> = spans.iter().map(|s| i128::from(s.dur())).collect();
        let mut wall: i128 = 0;
        for (i, span) in spans.iter().enumerate() {
            let dur = i128::from(span.dur());
            match span.parent.and_then(|p| p.checked_sub(mark)) {
                Some(p) => {
                    if let Some(slot) = self_ns.get_mut(p) {
                        *slot -= dur;
                    }
                    if span.aside {
                        wall -= dur;
                    }
                }
                None if !span.aside => wall += dur,
                None => {}
            }
            match span.host.and_then(|h| h.checked_sub(mark)) {
                Some(h) => {
                    if let Some(slot) = self_ns.get_mut(h) {
                        *slot -= dur;
                    }
                }
                None if span.aside => {
                    if let Some(slot) = self_ns.get_mut(i) {
                        *slot = 0;
                    }
                }
                None => {}
            }
        }
        let mut layers: BTreeMap<&'static str, (u64, i128)> = BTreeMap::new();
        for (span, own) in spans.iter().zip(self_ns) {
            let layer = layers.entry(span.name).or_default();
            layer.0 += 1;
            layer.1 += own;
        }
        Ledger {
            wall_ns: u64::try_from(wall.max(0)).unwrap_or(0),
            layers: layers
                .into_iter()
                .map(|(name, (calls, own))| {
                    let self_ns = u64::try_from(own.max(0)).unwrap_or(0);
                    (name, LayerTime { calls, self_ns })
                })
                .collect(),
        }
    }

    /// Every span as tab-separated lines:
    /// `id name start_ns end_ns parent op host aside` (`-` for none).
    #[must_use]
    pub fn to_tsv(&self) -> String {
        let opt = |v: Option<usize>| v.map_or_else(|| "-".to_string(), |i| i.to_string());
        let mut out = String::from("id\tname\tstart_ns\tend_ns\tparent\top\thost\taside\n");
        for (id, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                s.op,
                opt(s.host),
                u8::from(s.aside)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_wall_time() {
        let mut t = Tracer::new(true);
        let mark = t.len();
        t.span(REP, 0, |t| {
            let ((), host) = t.span_id("outer", 1, |t| {
                t.span("inner", 1, |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
                std::thread::sleep(std::time::Duration::from_millis(4));
            });
            t.replica(host, "hidden", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
            t.aside(|| std::thread::sleep(std::time::Duration::from_millis(3)));
        });
        let ledger = t.ledger(mark);
        let total: u64 = ledger.layers.values().map(|l| l.self_ns).sum();
        assert_eq!(total, ledger.wall_ns);
        assert_eq!(ledger.calls("inner"), 1);
        assert!(ledger.busy_s("hidden") >= 0.001);
        assert_eq!(ledger.busy_s(ASIDE), 0.0);
        assert!(ledger.busy_s(REP) < 0.003, "bookkeeping is not glue");
        assert!(ledger.busy_s("outer") < 0.004 + 0.002);
        assert!(ledger.coverage() > 0.9 && ledger.coverage() <= 1.0);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", 0, |t| t.replica(Some(0), "y", 0, || 7));
        assert_eq!(v, 7);
        assert!(t.is_empty());
    }
}
