//! Per-request tracing keyed by the wire correlation id.
//!
//! A [`Tracer::begin`] guard opens a span for the request being served
//! and parks it in a thread local; deeper layers (verify cache, mint,
//! store) attach stage timings with the free functions
//! [`stage`] and [`flag`] — no signatures change, because a request is
//! served start to finish on one worker thread. When the guard drops,
//! the span lands in a bounded ring buffer: every span keeps its
//! correlation id, op label and total latency; spans over the
//! configured slow threshold additionally keep their full stage
//! breakdown (slow-request exemplars).
//!
//! **Privacy rule:** span fields are the client-chosen wire correlation
//! id, `&'static str` labels and durations — nothing derived from a
//! pseudonym, card, license or coin ever enters a span.

use crate::registry::{MetricSource, SnapshotBuilder};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Tracer tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Ring-buffer capacity (completed spans kept; oldest evicted).
    pub capacity: usize,
    /// Spans at least this slow keep their full stage breakdown.
    pub slow_threshold: Duration,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: 128,
            slow_threshold: Duration::from_millis(1),
        }
    }
}

/// One completed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Wire correlation id of the request (client-chosen routing data).
    pub corr_id: u64,
    /// Op label (static string).
    pub op: &'static str,
    /// End-to-end latency in nanoseconds.
    pub total_ns: u64,
    /// Whether the span crossed the slow threshold (stage breakdown kept).
    pub slow: bool,
    /// `(label, nanoseconds)` stage timings — empty unless `slow`, and
    /// at most the first 8 stages are kept (the open span stores them
    /// inline so the traced hot path never allocates). Flags recorded
    /// via [`flag`] carry 0 ns.
    pub stages: Vec<(&'static str, u64)>,
}

/// Most stages an open span keeps (further stages are dropped).
/// Inline storage keeps the traced hot path allocation-free: a span's
/// stages only touch the heap if the span turns out slow and its
/// breakdown is archived into the ring.
const STAGE_CAP: usize = 8;

struct ActiveSpan {
    corr_id: u64,
    op: &'static str,
    start: Instant,
    stages: [(&'static str, u64); STAGE_CAP],
    stage_len: u8,
}

impl ActiveSpan {
    fn push_stage(&mut self, label: &'static str, ns: u64) {
        if (self.stage_len as usize) < STAGE_CAP {
            // lint: allow(panic, stage_len < STAGE_CAP checked on the line above)
            self.stages[self.stage_len as usize] = (label, ns);
            self.stage_len += 1;
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<ActiveSpan>> = const { RefCell::new(None) };
}

/// Collects spans for one service instance. Cheap when disabled: a
/// disabled [`begin`](Tracer::begin) is one relaxed load and returns an
/// inert guard; [`stage`]/[`flag`] outside a span are one thread-local
/// check.
pub struct Tracer {
    enabled: AtomicBool,
    slow_ns: AtomicU64,
    capacity: usize,
    ring: Mutex<VecDeque<SpanRecord>>,
    started: AtomicU64,
    slow_count: AtomicU64,
    dropped: AtomicU64,
    lost: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new(TraceConfig::default())
    }
}

impl Tracer {
    /// Tracer with the given ring capacity and slow threshold,
    /// initially disabled.
    pub fn new(config: TraceConfig) -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            slow_ns: AtomicU64::new(config.slow_threshold.as_nanos().min(u64::MAX as u128) as u64),
            capacity: config.capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
            started: AtomicU64::new(0),
            slow_count: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            lost: AtomicU64::new(0),
        }
    }

    /// Whether spans are being collected.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns span collection on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Changes the slow-exemplar threshold at runtime.
    pub fn set_slow_threshold(&self, t: Duration) {
        self.slow_ns
            .store(t.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
    }

    /// Opens a span for the request with wire correlation id `corr_id`,
    /// parked in this thread's slot until the guard drops. Nested
    /// begins stack: the previous span is restored when the inner guard
    /// drops.
    pub fn begin(self: &Arc<Self>, corr_id: u64, op: &'static str) -> SpanGuard {
        if !self.is_enabled() {
            return SpanGuard {
                tracer: None,
                prev: None,
            };
        }
        self.started.fetch_add(1, Ordering::Relaxed);
        let span = ActiveSpan {
            corr_id,
            op,
            start: Instant::now(),
            stages: [("", 0); STAGE_CAP],
            stage_len: 0,
        };
        let prev = CURRENT.with(|c| c.borrow_mut().replace(span));
        SpanGuard {
            tracer: Some(Arc::clone(self)),
            prev,
        }
    }

    fn finish(&self, span: ActiveSpan) {
        let total_ns = span.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let slow = total_ns >= self.slow_ns.load(Ordering::Relaxed);
        if slow {
            self.slow_count.fetch_add(1, Ordering::Relaxed);
        }
        let record = SpanRecord {
            corr_id: span.corr_id,
            op: span.op,
            total_ns,
            slow,
            stages: if slow {
                // lint: allow(panic, stage_len never exceeds STAGE_CAP by construction)
                span.stages[..span.stage_len as usize].to_vec()
            } else {
                Vec::new()
            },
        };
        // Never stall a serving thread on telemetry: if another thread
        // holds the ring (a concurrent finish, or a reader draining
        // it), the span is counted lost instead of waiting.
        let Ok(mut ring) = self.ring.try_lock() else {
            self.lost.fetch_add(1, Ordering::Relaxed);
            return;
        };
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(record);
    }

    /// Completed spans, oldest first.
    pub fn recent(&self) -> Vec<SpanRecord> {
        lock(&self.ring).iter().cloned().collect()
    }

    /// Completed spans that crossed the slow threshold (full stage
    /// breakdowns), oldest first.
    pub fn slow_exemplars(&self) -> Vec<SpanRecord> {
        lock(&self.ring)
            .iter()
            .filter(|r| r.slow)
            .cloned()
            .collect()
    }
}

impl MetricSource for Tracer {
    fn collect(&self, out: &mut SnapshotBuilder) {
        out.counter("trace_spans", self.started.load(Ordering::Relaxed));
        out.counter("trace_slow", self.slow_count.load(Ordering::Relaxed));
        out.counter("trace_evicted", self.dropped.load(Ordering::Relaxed));
        out.counter("trace_lost", self.lost.load(Ordering::Relaxed));
    }
}

/// Guard for an open span; finishing (drop) records the span and
/// restores the previously open span, if any.
pub struct SpanGuard {
    tracer: Option<Arc<Tracer>>,
    prev: Option<ActiveSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(tracer) = self.tracer.take() else {
            return;
        };
        let finished = CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), self.prev.take()));
        if let Some(span) = finished {
            tracer.finish(span);
        }
    }
}

/// Whether a span is open on this thread (i.e. [`stage`]/[`flag`] would
/// record).
pub fn in_span() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Times a stage of the currently open span: the elapsed nanoseconds
/// are attached as `(label, ns)` when the returned guard drops. Inert
/// (no clock read) when no span is open on this thread.
pub fn stage(label: &'static str) -> StageTimer {
    StageTimer {
        label,
        start: in_span().then(Instant::now),
    }
}

/// Attaches a zero-duration `(label, 0)` marker to the currently open
/// span (e.g. `vcache_hit`). No-op when no span is open.
pub fn flag(label: &'static str) {
    CURRENT.with(|c| {
        if let Some(span) = c.borrow_mut().as_mut() {
            span.push_stage(label, 0);
        }
    });
}

/// Drop-guard for one stage of the open span; see [`stage`].
#[derive(Debug)]
pub struct StageTimer {
    label: &'static str,
    start: Option<Instant>,
}

impl Drop for StageTimer {
    fn drop(&mut self) {
        let Some(t0) = self.start else { return };
        let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        CURRENT.with(|c| {
            if let Some(span) = c.borrow_mut().as_mut() {
                span.push_stage(self.label, ns);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer(slow: Duration) -> Arc<Tracer> {
        let t = Arc::new(Tracer::new(TraceConfig {
            capacity: 4,
            slow_threshold: slow,
        }));
        t.set_enabled(true);
        t
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Arc::new(Tracer::new(TraceConfig::default()));
        {
            let _g = t.begin(7, "purchase");
            assert!(!in_span());
        }
        assert!(t.recent().is_empty());
    }

    #[test]
    fn fast_spans_keep_summary_only() {
        let t = tracer(Duration::from_secs(60));
        {
            let _g = t.begin(42, "purchase");
            let _s = stage("mint_deposit");
            flag("vcache_hit");
        }
        let spans = t.recent();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].corr_id, 42);
        assert_eq!(spans[0].op, "purchase");
        assert!(!spans[0].slow);
        assert!(spans[0].stages.is_empty(), "fast spans drop the breakdown");
        assert!(t.slow_exemplars().is_empty());
    }

    #[test]
    fn slow_spans_keep_stage_breakdown() {
        let t = tracer(Duration::ZERO);
        {
            let _g = t.begin(9, "play");
            {
                let _s = stage("store_commit");
            }
            flag("vcache_miss");
        }
        let slow = t.slow_exemplars();
        assert_eq!(slow.len(), 1);
        assert!(slow[0].slow);
        let labels: Vec<&str> = slow[0].stages.iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, vec!["store_commit", "vcache_miss"]);
        assert_eq!(slow[0].stages[1].1, 0, "flags carry zero duration");
    }

    #[test]
    fn ring_is_bounded_and_evicts_oldest() {
        let t = tracer(Duration::from_secs(60));
        for i in 0..6u64 {
            let _g = t.begin(i, "catalog");
        }
        let spans = t.recent();
        assert_eq!(spans.len(), 4, "capacity bound");
        let ids: Vec<u64> = spans.iter().map(|s| s.corr_id).collect();
        assert_eq!(ids, vec![2, 3, 4, 5], "oldest evicted first");
    }

    #[test]
    fn stage_outside_span_is_inert() {
        {
            let _s = stage("orphan");
            flag("orphan_flag");
        }
        assert!(!in_span());
    }

    #[test]
    fn nested_spans_restore_outer() {
        let t = tracer(Duration::ZERO);
        {
            let _outer = t.begin(1, "outer");
            {
                let _inner = t.begin(2, "inner");
                let _s = stage("inner_stage");
            }
            assert!(in_span(), "outer span restored");
            let _s = stage("outer_stage");
        }
        let spans = t.recent();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].op, "inner");
        assert_eq!(spans[1].op, "outer");
        let outer_labels: Vec<&str> = spans[1].stages.iter().map(|(l, _)| *l).collect();
        assert_eq!(outer_labels, vec!["outer_stage"]);
    }

    #[test]
    fn tracer_is_a_metric_source() {
        let t = tracer(Duration::ZERO);
        {
            let _g = t.begin(1, "x");
        }
        let mut b = SnapshotBuilder::new();
        t.collect(&mut b);
        let s = b.finish();
        assert_eq!(s.counter("trace_spans"), Some(1));
        assert_eq!(s.counter("trace_slow"), Some(1));
        assert_eq!(s.counter("trace_evicted"), Some(0));
    }
}
