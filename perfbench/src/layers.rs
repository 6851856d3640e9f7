//! Layer-boundary helpers for the traced run: a probe that keeps the
//! program's own deterministic work counters, and a controller wrapper
//! that puts a span around every bitrate decision.

use std::sync::atomic::{AtomicU64, Ordering};

use ecas_core::obs::{names, Probe};
use ecas_core::sim::controller::{BitrateController, Decision, DecisionContext};
use ecas_core::types::ladder::LevelIndex;

use crate::spans::Tracer;

/// The simulator and solver counters the traced run reports.
#[derive(Debug, Default)]
pub struct Counters {
    /// `sim/segments`.
    pub segments: AtomicU64,
    /// `sim/stalls`.
    pub stalls: AtomicU64,
    /// `sim/idle_waits`.
    pub idle_waits: AtomicU64,
    /// `sim/integration_chunks`.
    pub integration_chunks: AtomicU64,
    /// `abr/labels_expanded`.
    pub labels_expanded: AtomicU64,
    /// `abr/labels_pruned`.
    pub labels_pruned: AtomicU64,
    /// `abr/edges_relaxed`.
    pub edges_relaxed: AtomicU64,
}

impl Probe for Counters {
    fn add(&self, name: &str, delta: u64) {
        let counter = match name {
            names::SIM_SEGMENTS => &self.segments,
            names::SIM_STALLS => &self.stalls,
            names::SIM_IDLE_WAITS => &self.idle_waits,
            names::SIM_INTEGRATION_CHUNKS => &self.integration_chunks,
            names::ABR_LABELS_EXPANDED => &self.labels_expanded,
            names::ABR_LABELS_PRUNED => &self.labels_pruned,
            names::ABR_EDGES_RELAXED => &self.edges_relaxed,
            _ => return,
        };
        counter.fetch_add(delta, Ordering::Relaxed);
    }
}

/// Wraps a controller so each decision runs inside an `abr.decide` span.
pub struct TimedController<'t> {
    inner: Box<dyn BitrateController>,
    tracer: &'t mut Tracer,
    op: u64,
}

impl<'t> TimedController<'t> {
    /// Wraps `inner`; decision spans carry operation id `op`.
    pub fn new(inner: Box<dyn BitrateController>, tracer: &'t mut Tracer, op: u64) -> Self {
        Self { inner, tracer, op }
    }
}

impl BitrateController for TimedController<'_> {
    fn select(&mut self, ctx: &DecisionContext<'_>) -> LevelIndex {
        let inner = &mut self.inner;
        self.tracer
            .span("abr.decide", self.op, |_| inner.select(ctx))
    }

    fn decide(&mut self, ctx: &DecisionContext<'_>) -> Decision {
        let inner = &mut self.inner;
        self.tracer
            .span("abr.decide", self.op, |_| inner.decide(ctx))
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}
