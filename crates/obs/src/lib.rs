//! # p2drm-obs — unified observability
//!
//! One std-only layer for everything the workspace measures:
//!
//! - **Metrics registry** ([`registry`]): named lock-free counters,
//!   gauges and log-bucketed histograms, plus weakly-registered
//!   [`MetricSource`]s folding the per-subsystem counter structs
//!   (server, verify cache, store) into one
//!   [`Snapshot`] with stable sorted text and JSON expositions.
//! - **Timing** ([`timer`]): [`Timer`] and the drop-guard
//!   [`ScopeTimer`], gated on one relaxed flag so a disabled registry
//!   costs a branch, not a clock read.
//! - **Tracing** ([`trace`]): per-request spans keyed by the wire
//!   correlation id, carried through cache lookups, mint deposit and
//!   store commit via a thread-local slot, collected
//!   into a bounded ring with slow-request exemplar capture.
//!
//! ## Privacy
//!
//! The paper's point is *unlinkable* purchases, so telemetry must not
//! become the side channel that links them. Metric names, span ops and
//! stage labels are `&'static str` — fixed at compile time — and every
//! recorded value is a duration or a count. No pseudonym, card id,
//! license id or coin serial may enter the registry or a span. The
//! types hold that rule, not a lint: a name must be a `&'static str`,
//! so no id can be formatted into one, and the linkable ids
//! (`p2drm_core::ids`) have no `Display` or hex rendering and a `Debug`
//! that prints a redaction. Nothing stops a count derived from an id
//! from being recorded, since a metric's value slot is a plain number.
//! The only request-derived field a span carries is the wire
//! correlation id, which the *client* chooses for pipelining and which
//! is already visible on the wire.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

pub mod hist;
pub mod registry;
pub mod timer;
pub mod trace;

pub use hist::{AtomicHistogram, Histogram, Summary};
pub use registry::{
    global, Counter, Gauge, MetricSource, MetricValue, Registry, Snapshot, SnapshotBuilder,
};
pub use timer::{ScopeTimer, Timer};
pub use trace::{flag, in_span, stage, SpanGuard, SpanRecord, StageTimer, Tracer};
