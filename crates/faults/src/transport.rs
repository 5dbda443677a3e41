//! Transport-layer fault wrapper.

use crate::plan::FaultPlan;
use p2drm_core::service::{
    ApiError, ApiErrorCode, ResponseEnvelope, Transport, TransportError, WireResponse,
};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Injection sites [`FaultTransport`] consults, in evaluation order.
pub mod sites {
    /// Submit fails `Broken` after the request may have partially left
    /// (ambiguous — the service may or may not have seen it).
    pub const RESET_MID_WRITE: &str = "transport.reset_mid_write";
    /// Submit reports success but the request is swallowed; the eventual
    /// completion wait surfaces as an ambiguous channel failure.
    pub const DROP_REQUEST: &str = "transport.drop_request";
    /// Submit is answered locally with a synthesized busy envelope
    /// (ServiceUnavailable + `retry_after_ms`) without reaching the
    /// service — a load-shedding storm.
    pub const BUSY_STORM: &str = "transport.busy_storm";
    /// A completed reply is discarded and reported as a channel failure.
    pub const DROP_REPLY: &str = "transport.drop_reply";
    /// A completed reply is truncated mid-frame (decode fails).
    pub const TORN_FRAME: &str = "transport.torn_frame";
    /// A completed reply is delivered, then delivered *again* on the
    /// next completion (exercises duplicate/unknown-id defenses).
    pub const DUPLICATE_REPLY: &str = "transport.duplicate_reply";
}

/// `retry_after_ms` carried by synthesized busy-storm envelopes.
const STORM_RETRY_AFTER_MS: u32 = 2;

#[derive(Default)]
struct State {
    /// Correlation ids whose requests were swallowed ([`sites::DROP_REQUEST`]).
    blackholed: Vec<u64>,
    /// Locally synthesized replies (busy storms), delivered before the
    /// inner transport is consulted.
    synthesized: VecDeque<(u64, Vec<u8>)>,
    /// A duplicate of an already-delivered reply, re-delivered on the
    /// next completion.
    duplicate: Option<(u64, Vec<u8>)>,
}

/// Fault-injecting wrapper around any [`Transport`]. With every site at
/// [`crate::Schedule::Never`] it is byte-for-byte pass-through.
pub struct FaultTransport<T: Transport> {
    inner: T,
    plan: Arc<FaultPlan>,
    state: Mutex<State>,
}

impl<T: Transport> FaultTransport<T> {
    /// Wraps `inner`, consulting `plan` at the [`sites`].
    pub fn new(inner: T, plan: Arc<FaultPlan>) -> Self {
        FaultTransport {
            inner,
            plan,
            state: Mutex::new(State::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: Transport> Transport for FaultTransport<T> {
    fn submit(&self, corr_id: u64, request: &[u8]) -> Result<(), TransportError> {
        if self.plan.decide(sites::RESET_MID_WRITE) {
            return Err(TransportError::Broken(
                "injected: connection reset mid-write".to_string(),
            ));
        }
        if self.plan.decide(sites::DROP_REQUEST) {
            self.lock().blackholed.push(corr_id);
            return Ok(());
        }
        if self.plan.decide(sites::BUSY_STORM) {
            let frame = ResponseEnvelope {
                correlation_id: corr_id,
                body: WireResponse::Error(
                    ApiError::new(
                        ApiErrorCode::ServiceUnavailable,
                        "injected: busy-envelope storm",
                    )
                    .with_retry_after(STORM_RETRY_AFTER_MS),
                ),
            }
            .to_bytes();
            self.lock().synthesized.push_back((corr_id, frame));
            return Ok(());
        }
        self.inner.submit(corr_id, request)
    }

    fn complete(
        &self,
        deadline: Option<Instant>,
    ) -> Result<Option<(u64, Vec<u8>)>, TransportError> {
        {
            let mut st = self.lock();
            if let Some(reply) = st.synthesized.pop_front() {
                return Ok(Some(reply));
            }
            if let Some(dup) = st.duplicate.take() {
                return Ok(Some(dup));
            }
        }
        let completed = match self.inner.complete(deadline) {
            Ok(Some(reply)) => reply,
            Ok(None) => {
                // Nothing in flight inner-side. If requests were
                // swallowed, their outcome is now formally unknown:
                // surface the loss as a channel failure exactly once.
                let mut st = self.lock();
                if st.blackholed.is_empty() {
                    return Ok(None);
                }
                st.blackholed.clear();
                return Err(TransportError::Broken(
                    "injected: request dropped in flight".to_string(),
                ));
            }
            Err(e) => return Err(e),
        };
        if self.plan.decide(sites::DROP_REPLY) {
            return Err(TransportError::Broken(
                "injected: reply dropped in flight".to_string(),
            ));
        }
        if self.plan.decide(sites::TORN_FRAME) {
            let (corr, bytes) = completed;
            return Ok(Some((corr, bytes[..bytes.len() / 2].to_vec())));
        }
        if self.plan.decide(sites::DUPLICATE_REPLY) {
            self.lock().duplicate = Some(completed.clone());
        }
        Ok(Some(completed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Schedule;

    /// Echo transport: replies with a valid envelope echoing the id.
    struct Echo;
    impl Transport for Echo {
        fn submit(&self, corr_id: u64, _request: &[u8]) -> Result<(), TransportError> {
            let _ = corr_id;
            Ok(())
        }
        fn complete(
            &self,
            _deadline: Option<Instant>,
        ) -> Result<Option<(u64, Vec<u8>)>, TransportError> {
            Ok(None)
        }
    }

    /// Queueing echo: submit enqueues a decodable error envelope reply.
    struct Queue(Mutex<VecDeque<(u64, Vec<u8>)>>);
    impl Queue {
        fn new() -> Self {
            Queue(Mutex::new(VecDeque::new()))
        }
    }
    impl Transport for Queue {
        fn submit(&self, corr_id: u64, _request: &[u8]) -> Result<(), TransportError> {
            let frame = ResponseEnvelope {
                correlation_id: corr_id,
                body: WireResponse::Error(ApiError::new(ApiErrorCode::Internal, "echo")),
            }
            .to_bytes();
            self.0.lock().unwrap().push_back((corr_id, frame));
            Ok(())
        }
        fn complete(
            &self,
            _deadline: Option<Instant>,
        ) -> Result<Option<(u64, Vec<u8>)>, TransportError> {
            Ok(self.0.lock().unwrap().pop_front())
        }
    }

    #[test]
    fn passthrough_when_unconfigured() {
        let t = FaultTransport::new(Queue::new(), Arc::new(FaultPlan::new(1)));
        t.submit(7, b"x").unwrap();
        let (corr, bytes) = t.complete(None).unwrap().unwrap();
        assert_eq!(corr, 7);
        assert!(ResponseEnvelope::from_bytes(&bytes).is_ok());
    }

    #[test]
    fn dropped_request_surfaces_as_broken_once() {
        let plan = Arc::new(FaultPlan::new(1).with(sites::DROP_REQUEST, Schedule::OneShot(1)));
        let t = FaultTransport::new(Echo, plan);
        t.submit(1, b"x").unwrap();
        assert!(matches!(t.complete(None), Err(TransportError::Broken(_))));
        assert!(matches!(t.complete(None), Ok(None)), "loss reported once");
    }

    #[test]
    fn busy_storm_synthesizes_decodable_busy_reply() {
        let plan = Arc::new(FaultPlan::new(1).with(sites::BUSY_STORM, Schedule::OneShot(1)));
        let t = FaultTransport::new(Queue::new(), plan);
        t.submit(9, b"x").unwrap();
        let (corr, bytes) = t.complete(None).unwrap().unwrap();
        assert_eq!(corr, 9);
        let envelope = ResponseEnvelope::from_bytes(&bytes).unwrap();
        match envelope.body {
            WireResponse::Error(e) => {
                assert_eq!(e.code, ApiErrorCode::ServiceUnavailable);
                assert_eq!(e.retry_after_ms, STORM_RETRY_AFTER_MS);
            }
            other => panic!("expected busy error, got {other:?}"),
        }
        assert!(
            matches!(t.complete(None), Ok(None)),
            "request never forwarded"
        );
    }

    #[test]
    fn torn_frame_fails_decode_and_duplicate_redelivers() {
        let plan = Arc::new(
            FaultPlan::new(1)
                .with(sites::TORN_FRAME, Schedule::OneShot(1))
                .with(sites::DUPLICATE_REPLY, Schedule::OneShot(1)),
        );
        let t = FaultTransport::new(Queue::new(), plan);
        t.submit(1, b"x").unwrap();
        let (_, torn) = t.complete(None).unwrap().unwrap();
        assert!(ResponseEnvelope::from_bytes(&torn).is_err(), "torn frame");

        t.submit(2, b"y").unwrap();
        let first = t.complete(None).unwrap().unwrap();
        let second = t.complete(None).unwrap().unwrap();
        assert_eq!(first, second, "duplicate of the same reply");
    }
}
