//! Operation-level recovery for [`WireClient`]: the policy bundle, its
//! metrics, and the retry loop around one framed exchange.

use super::client::{WireClient, WireError};
use super::envelope::{WireRequest, WireResponse};
use super::error::{ApiError, ApiErrorCode};
use super::transport::Transport;
use crate::retry::{Admit, CircuitBreaker, Idempotency, RetryBudget, RetryPolicy};
use p2drm_obs::{AtomicHistogram, Counter, Registry};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counters/histograms that make client-side recovery visible instead
/// of silent: retries taken, give-ups, breaker activity, reconciles,
/// and the backoff pauses actually slept.
pub struct RecoveryMetrics {
    /// Retries actually sent (`client_retries`).
    pub retries: Arc<Counter>,
    /// Operations abandoned with retries still possible in principle but
    /// attempts/budget/deadline exhausted (`client_retry_giveups`).
    pub giveups: Arc<Counter>,
    /// Circuit-breaker state transitions (`client_breaker_transitions`).
    pub breaker_transitions: Arc<Counter>,
    /// Requests rejected locally by an open breaker
    /// (`client_breaker_rejections`).
    pub breaker_rejections: Arc<Counter>,
    /// Reconciliation actions taken — transfer status repairs and
    /// parked-coin settlements (`client_reconciles`).
    pub reconciles: Arc<Counter>,
    /// Distribution of backoff pauses slept (`client_backoff_ns`).
    pub backoff_ns: Arc<AtomicHistogram>,
}

impl RecoveryMetrics {
    /// Registers the recovery series on `registry` (idempotent: same
    /// names return the same shared handles).
    pub fn register(registry: &Registry) -> Self {
        RecoveryMetrics {
            retries: registry.counter("client_retries"),
            giveups: registry.counter("client_retry_giveups"),
            breaker_transitions: registry.counter("client_breaker_transitions"),
            breaker_rejections: registry.counter("client_breaker_rejections"),
            reconciles: registry.counter("client_reconciles"),
            backoff_ns: registry.histogram("client_backoff_ns"),
        }
    }
}

/// End-to-end recovery policy for a [`WireClient`]: retry whole
/// operations (not just connects) under a backoff policy, bounded by a
/// retry budget and a circuit breaker, honoring the server's
/// `retry_after_ms` backpressure hints, and retrying ambiguous failures
/// only for ops classified retry-safe ([`OpCode::idempotency`](super::OpCode::idempotency)).
pub struct Recovery {
    /// Backoff/attempts/deadline policy (deterministic jitter).
    pub policy: RetryPolicy,
    /// Per-client retry budget shared across all ops on this client.
    pub budget: RetryBudget,
    /// Per-client circuit breaker.
    pub breaker: CircuitBreaker,
    /// Optional observability (None: recovery runs unmetered).
    pub metrics: Option<RecoveryMetrics>,
}

impl Recovery {
    /// Default recovery tuned for the in-tree services, with a
    /// deterministic jitter stream derived from `seed`.
    pub fn seeded(seed: u64) -> Self {
        Recovery {
            policy: RetryPolicy::seeded(seed),
            budget: RetryBudget::new(32, 100),
            breaker: CircuitBreaker::new(8, Duration::from_millis(50)),
            metrics: None,
        }
    }

    /// Attaches recovery metrics registered on `registry`.
    pub fn with_metrics(mut self, registry: &Registry) -> Self {
        self.metrics = Some(RecoveryMetrics::register(registry));
        self
    }
}

impl<T: Transport> WireClient<T> {
    /// [`WireClient::call_once`] in a policy-bounded retry loop.
    ///
    /// Retry classification:
    /// * decoded [`ApiErrorCode::ServiceUnavailable`] — a busy shed (or
    ///   an op this endpoint does not serve); the server provably did
    ///   not commit the op, so **any** op may retry, pausing at least
    ///   the response's `retry_after_ms` hint;
    /// * transport failure that is definitely-unsent — any op retries;
    /// * ambiguous transport/envelope/correlation failure — only
    ///   retry-safe ops retry; must-reconcile ops surface the error so
    ///   the caller's parking/reconcile accounting runs;
    /// * any other decoded error — authoritative, never retried.
    pub(super) fn call_recovering(
        &mut self,
        rec: &Recovery,
        body: WireRequest,
    ) -> Result<WireResponse, WireError> {
        let transitions_before = rec.breaker.transitions();
        let out = self.call_recovering_inner(rec, body);
        if let Some(m) = &rec.metrics {
            m.breaker_transitions
                .add(rec.breaker.transitions() - transitions_before);
        }
        out
    }

    fn call_recovering_inner(
        &mut self,
        rec: &Recovery,
        body: WireRequest,
    ) -> Result<WireResponse, WireError> {
        let idem = body.opcode().idempotency();
        let deadline = rec.policy.op_deadline.map(|d| Instant::now() + d);
        let mut retry: u32 = 0;
        loop {
            match rec.breaker.admit() {
                Admit::Rejected => {
                    if let Some(m) = &rec.metrics {
                        m.breaker_rejections.inc();
                    }
                    return Err(WireError::Api(ApiError::new(
                        ApiErrorCode::ServiceUnavailable,
                        "circuit breaker open: failing fast without sending",
                    )));
                }
                Admit::Allowed | Admit::Probe => {}
            }
            let outcome = self.call_once(body.clone());
            // `None` → final; `Some(floor)` → retriable with a minimum
            // pause (the server's backpressure hint).
            let floor = match &outcome {
                Ok(WireResponse::Error(e)) if e.code == ApiErrorCode::ServiceUnavailable => {
                    rec.breaker.on_failure();
                    Some(Duration::from_millis(u64::from(e.retry_after_ms)))
                }
                Ok(_) => {
                    rec.breaker.on_success();
                    rec.budget.on_success();
                    return outcome;
                }
                Err(WireError::Transport(t)) => {
                    rec.breaker.on_failure();
                    (t.definitely_unsent() || idem == Idempotency::Safe).then_some(Duration::ZERO)
                }
                Err(WireError::Envelope(_))
                | Err(WireError::CorrelationMismatch { .. })
                | Err(WireError::UnexpectedResponse { .. }) => {
                    rec.breaker.on_failure();
                    (idem == Idempotency::Safe).then_some(Duration::ZERO)
                }
                // A decoded non-busy error is the server's authoritative
                // answer; a client-side error will not change on resend.
                Err(WireError::Api(_)) | Err(WireError::Client(_)) => None,
            };
            let Some(floor) = floor else {
                return outcome;
            };
            retry += 1;
            let pause = rec.policy.backoff(retry).max(floor);
            let deadline_blocks = deadline.is_some_and(|dl| Instant::now() + pause >= dl);
            if retry >= rec.policy.max_attempts || deadline_blocks || !rec.budget.try_spend() {
                if let Some(m) = &rec.metrics {
                    m.giveups.inc();
                }
                return outcome;
            }
            if let Some(m) = &rec.metrics {
                m.retries.inc();
                m.backoff_ns.record(pause.as_nanos() as u64);
            }
            rec.policy.pause(retry, floor);
        }
    }
}
