//! Lock-free server observability: atomic counters the event thread and
//! workers bump on their hot paths, snapshotted on demand into a plain
//! value the sim can report or serialize.

use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters, shared by every server thread. All updates are
/// `Relaxed` — the counters are monotone operational telemetry (plus
/// two gauges maintained by the single event thread), not
/// synchronization.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    accepted: AtomicU64,
    active: AtomicU64,
    idle: AtomicU64,
    served: AtomicU64,
    decode_errors: AtomicU64,
    busy_rejections: AtomicU64,
    oversized_replies: AtomicU64,
    pipeline_depth_hwm: AtomicU64,
    event_wakes: AtomicU64,
    reply_writes: AtomicU64,
    worker_notifies: AtomicU64,
    late_wakeups: AtomicU64,
}

impl ServerMetrics {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn connection_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn connection_opened(&self) {
        self.active.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn connection_closed(&self) {
        self.active.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn idle_inc(&self) {
        self.idle.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn idle_dec(&self) {
        self.idle.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn request_served(&self) {
        self.served.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn decode_error(&self) {
        self.decode_errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn busy_rejection(&self) {
        self.busy_rejections.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn oversized_reply(&self) {
        self.oversized_replies.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one connection's in-flight request count; the high-water
    /// mark keeps the maximum ever observed.
    pub(crate) fn pipeline_depth(&self, depth: u64) {
        self.pipeline_depth_hwm.fetch_max(depth, Ordering::Relaxed);
    }

    pub(crate) fn event_wake(&self) {
        self.event_wakes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn reply_write(&self) {
        self.reply_writes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn worker_notify(&self) {
        self.worker_notifies.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn late_wakeup(&self) {
        self.late_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// A coherent-enough point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            accepted_connections: self.accepted.load(Ordering::Relaxed),
            active_connections: self.active.load(Ordering::Relaxed),
            idle_connections: self.idle.load(Ordering::Relaxed),
            requests_served: self.served.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            oversized_replies: self.oversized_replies.load(Ordering::Relaxed),
            pipeline_depth_hwm: self.pipeline_depth_hwm.load(Ordering::Relaxed),
            event_wakes: self.event_wakes.load(Ordering::Relaxed),
            reply_writes: self.reply_writes.load(Ordering::Relaxed),
            worker_notifies: self.worker_notifies.load(Ordering::Relaxed),
            late_wakeups: self.late_wakeups.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time server counters ([`ServerMetrics::snapshot`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Connections the accept loop took from the listener (including
    /// ones later shed as busy).
    pub accepted_connections: u64,
    /// Connections currently open and admitted (shed-at-accept drain
    /// stubs are not counted).
    pub active_connections: u64,
    /// Admitted connections currently open with **zero** requests in
    /// flight — the keep-alive population costing only an fd and its
    /// buffers. `active - idle` is the number of connections with work
    /// dispatched right now.
    pub idle_connections: u64,
    /// Requests decoded from a frame and answered by the service.
    pub requests_served: u64,
    /// Inbound framing violations — oversized advertised length, torn
    /// frame, garbage prefix that never completed — i.e. byte streams
    /// that failed to decode into a frame.
    pub decode_errors: u64,
    /// Requests (or whole connections, at the accept limit) answered
    /// with the busy error because the connection limit or queue depth
    /// was reached.
    pub busy_rejections: u64,
    /// Service replies that exceeded the frame cap and could not be
    /// sent (the connection was closed instead; the request *was*
    /// dispatched).
    pub oversized_replies: u64,
    /// Highest number of simultaneously in-flight requests ever
    /// observed on a single connection — how deep clients actually
    /// pipelined.
    pub pipeline_depth_hwm: u64,
    /// Doorbell bytes workers (and shutdown) wrote to wake the event
    /// thread. `event_wakes / requests_served` is the wake-ups a
    /// request costs: 1 at depth 1, well under 1 when replies arrive
    /// in bursts.
    pub event_wakes: u64,
    /// Socket writes that moved reply bytes (service replies, busy and
    /// error envelopes). `requests_served / reply_writes` is replies
    /// per write.
    pub reply_writes: u64,
    /// `notify_one` calls the event thread made because a worker was
    /// parked when jobs were pushed.
    pub worker_notifies: u64,
    /// Hand-offs that were only noticed by a safety-net timeout, with
    /// no wake-up on its way: the event loop's tick expired with no
    /// event yet found replies queued whose doorbell byte was not on
    /// the socket, or a parked worker's wait timed out and found a job
    /// while no notify had been decided on since it parked. A timeout
    /// that races a ring or notify in flight is not counted. Stays 0 —
    /// anything else is a lost wake-up.
    pub late_wakeups: u64,
}

impl MetricsSnapshot {
    /// Contributes these counters to a unified snapshot under static
    /// `net_*` names (monotone counts as counters, occupancy levels as
    /// gauges).
    pub fn collect_into(&self, out: &mut p2drm_obs::SnapshotBuilder) {
        out.counter("net_accepted_connections", self.accepted_connections);
        out.gauge("net_active_connections", self.active_connections as i64);
        out.gauge("net_idle_connections", self.idle_connections as i64);
        out.counter("net_requests_served", self.requests_served);
        out.counter("net_decode_errors", self.decode_errors);
        out.counter("net_busy_rejections", self.busy_rejections);
        out.counter("net_oversized_replies", self.oversized_replies);
        out.gauge("net_pipeline_depth_hwm", self.pipeline_depth_hwm as i64);
        out.counter("net_event_wakes", self.event_wakes);
        out.counter("net_reply_writes", self.reply_writes);
        out.counter("net_worker_notifies", self.worker_notifies);
        out.counter("net_late_wakeups", self.late_wakeups);
    }

    /// The snapshot as unified exposition entries
    /// ([`p2drm_obs::Snapshot::to_text`] / `to_json` render it).
    pub fn to_obs(&self) -> p2drm_obs::Snapshot {
        let mut b = p2drm_obs::SnapshotBuilder::new();
        self.collect_into(&mut b);
        b.finish()
    }
}

/// Snapshots registered as a weak [`p2drm_obs::MetricSource`] contribute
/// the same `net_*` entries a standalone [`MetricsSnapshot::to_obs`]
/// renders — one exposition format everywhere.
impl p2drm_obs::MetricSource for ServerMetrics {
    fn collect(&self, out: &mut p2drm_obs::SnapshotBuilder) {
        self.snapshot().collect_into(out);
    }
}

/// Renders through the unified exposition format (`name kind value`
/// lines, sorted by name), same as a registry snapshot.
impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.to_obs().to_text().trim_end())
    }
}
