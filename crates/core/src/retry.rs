//! Client-side recovery policy primitives: exponential backoff with
//! deterministic jitter, per-op deadlines, a per-client retry *budget*,
//! and a circuit breaker.
//!
//! These are deliberately transport-agnostic plain types — the wire
//! client composes them (see `service::Recovery`), and the TCP
//! transport's connect loop runs on the same [`RetryPolicy`] instead of
//! a bespoke `sleep(backoff * attempt)` loop. All randomness is
//! deterministic: the jitter for retry *n* is a pure function of
//! `(jitter_seed, n)`, so a seeded run replays byte-identically.
//!
//! The retry **budget** bounds amplification: every retry (not first
//! attempt) spends one token, and every success deposits a fraction of
//! a token back. Under a persistent outage a client therefore sends
//! `initial + success_rate × deposit` retries, not `max_attempts ×`
//! its offered load — the difference between a thundering herd and
//! cooperative degradation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Backoff/deadline/attempt policy for one logical operation.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// First retry's backoff; retry *n* waits `base × 2^(n-1)` (capped).
    pub base_backoff: Duration,
    /// Upper bound on a single backoff pause.
    pub max_backoff: Duration,
    /// Total attempts (first try included). `1` disables retries.
    pub max_attempts: u32,
    /// Wall-clock budget for the whole operation, retries included.
    /// `None` leaves the operation bounded by attempts alone.
    pub op_deadline: Option<Duration>,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_millis(640),
            max_attempts: 4,
            op_deadline: Some(Duration::from_secs(10)),
            jitter_seed: 0,
        }
    }
}

/// SplitMix64 — the jitter stream's mixing function.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl RetryPolicy {
    /// Policy with a specific jitter seed (chaos drills replay runs).
    pub fn seeded(seed: u64) -> Self {
        RetryPolicy {
            jitter_seed: seed,
            ..Self::default()
        }
    }

    /// The pause before retry `retry` (1-based; `0` — the first attempt
    /// — returns zero, fixing the classic `backoff * attempt` loop that
    /// sleeps 0ms before its first retry). Exponential in the retry
    /// index, capped at [`RetryPolicy::max_backoff`], then scaled by a
    /// deterministic jitter factor in `[0.5, 1.0]` so synchronized
    /// clients de-synchronize without losing replayability.
    pub fn backoff(&self, retry: u32) -> Duration {
        if retry == 0 {
            return Duration::ZERO;
        }
        let exp = retry.min(20) - 1; // 2^20 × base already exceeds any cap in use
        let raw = self
            .base_backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff);
        // Jitter in [1/2, 1]: keep the top bit, randomize the rest.
        let j = splitmix64(self.jitter_seed ^ u64::from(retry));
        let frac = 0.5 + (j >> 11) as f64 / (1u64 << 53) as f64 * 0.5;
        raw.mul_f64(frac)
    }

    /// Sleeps the backoff for retry `retry`, raised to at least `floor`
    /// (a server's `retry_after_ms` hint). Returns the pause actually
    /// taken. This is the policy's single sleeping call site — retry
    /// loops elsewhere must route their waiting through here (enforced
    /// by the `retry` lint pass).
    pub fn pause(&self, retry: u32, floor: Duration) -> Duration {
        let d = self.backoff(retry).max(floor);
        if !d.is_zero() {
            std::thread::sleep(d);
        }
        d
    }

    /// Runs `attempt_fn` up to [`RetryPolicy::max_attempts`] times,
    /// pausing per [`RetryPolicy::backoff`] between attempts and
    /// respecting the deadline (an attempt whose preceding pause would
    /// cross the deadline is not made). `attempt_fn` receives the
    /// 0-based attempt index. The connect loop in `p2drm-net` runs on
    /// this instead of a hand-rolled sleep loop.
    pub fn run<T, E>(&self, mut attempt_fn: impl FnMut(u32) -> Result<T, E>) -> Result<T, E> {
        let deadline = self.op_deadline.map(|d| Instant::now() + d);
        let mut last_err: Option<E> = None;
        for attempt in 0..self.max_attempts.max(1) {
            if attempt > 0 {
                let pause = self.backoff(attempt);
                if let Some(dl) = deadline {
                    if Instant::now() + pause >= dl {
                        break;
                    }
                }
                self.pause(attempt, Duration::ZERO);
            }
            match attempt_fn(attempt) {
                Ok(v) => return Ok(v),
                Err(e) => last_err = Some(e),
            }
        }
        // max_attempts >= 1 guarantees at least one attempt ran, and the
        // only paths here are "attempts exhausted" or "deadline hit
        // after a failure" — both recorded an error.
        Err(last_err.expect("at least one attempt always runs"))
    }
}

/// Token-bucket retry budget shared by every operation on one client.
///
/// Retries spend a whole token; successes deposit `refill_permille`
/// thousandths of a token (capped at the initial balance). Tokens are
/// tracked in millitokens on one atomic, so the budget is cheap and
/// safely shared across threads.
#[derive(Debug)]
pub struct RetryBudget {
    millitokens: AtomicU64,
    cap_millitokens: u64,
    refill_permille: u64,
}

impl RetryBudget {
    /// Budget holding `initial` retry tokens, refilled by
    /// `refill_permille`/1000 of a token per recorded success.
    pub fn new(initial: u32, refill_permille: u32) -> Self {
        let cap = u64::from(initial) * 1000;
        RetryBudget {
            millitokens: AtomicU64::new(cap),
            cap_millitokens: cap,
            refill_permille: u64::from(refill_permille),
        }
    }

    /// Spends one retry token. `false` means the budget is exhausted —
    /// the caller must give up rather than amplify load.
    pub fn try_spend(&self) -> bool {
        self.millitokens
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| {
                t.checked_sub(1000)
            })
            .is_ok()
    }

    /// Records a successful operation, depositing the refill fraction.
    pub fn on_success(&self) {
        let cap = self.cap_millitokens;
        let refill = self.refill_permille;
        let _ = self
            .millitokens
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| {
                Some((t + refill).min(cap))
            });
    }

    /// Whole tokens currently available.
    pub fn available(&self) -> u32 {
        (self.millitokens.load(Ordering::Relaxed) / 1000) as u32
    }
}

/// Circuit-breaker state (the classic three states).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests are rejected locally until the cooldown ends.
    Open,
    /// Cooldown elapsed: probe requests test whether the peer recovered.
    HalfOpen,
}

/// Verdict from [`CircuitBreaker::admit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admit {
    /// Closed: proceed normally.
    Allowed,
    /// Half-open: proceed, and this request's outcome decides the state.
    Probe,
    /// Open: do not send; fail fast locally.
    Rejected,
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
}

/// Consecutive-failure circuit breaker: trips open after
/// `failure_threshold` consecutive failures, rejects locally for
/// `cooldown`, then half-opens and lets a probe through; the probe's
/// outcome closes it or re-opens it.
#[derive(Debug)]
pub struct CircuitBreaker {
    failure_threshold: u32,
    cooldown: Duration,
    inner: Mutex<BreakerInner>,
    transitions: AtomicU64,
}

impl CircuitBreaker {
    /// Breaker tripping after `failure_threshold` consecutive failures
    /// and cooling down for `cooldown`.
    pub fn new(failure_threshold: u32, cooldown: Duration) -> Self {
        CircuitBreaker {
            failure_threshold: failure_threshold.max(1),
            cooldown,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: None,
            }),
            transitions: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BreakerInner> {
        // Breaker state is advisory; a poisoned lock's last write is safe
        // to observe.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn transition(&self, inner: &mut BreakerInner, to: BreakerState) {
        if inner.state != to {
            inner.state = to;
            self.transitions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Gate before sending a request.
    pub fn admit(&self) -> Admit {
        let mut inner = self.lock();
        match inner.state {
            BreakerState::Closed => Admit::Allowed,
            BreakerState::HalfOpen => Admit::Probe,
            BreakerState::Open => {
                let cooled = inner
                    .opened_at
                    .map(|t| t.elapsed() >= self.cooldown)
                    .unwrap_or(true);
                if cooled {
                    self.transition(&mut inner, BreakerState::HalfOpen);
                    Admit::Probe
                } else {
                    Admit::Rejected
                }
            }
        }
    }

    /// Records a successful exchange; closes the breaker.
    pub fn on_success(&self) {
        let mut inner = self.lock();
        inner.consecutive_failures = 0;
        self.transition(&mut inner, BreakerState::Closed);
    }

    /// Records a failed exchange; trips the breaker at the threshold
    /// (and immediately from half-open — a failed probe re-opens).
    pub fn on_failure(&self) {
        let mut inner = self.lock();
        inner.consecutive_failures = inner.consecutive_failures.saturating_add(1);
        let trip = inner.state == BreakerState::HalfOpen
            || inner.consecutive_failures >= self.failure_threshold;
        if trip {
            inner.opened_at = Some(Instant::now());
            self.transition(&mut inner, BreakerState::Open);
        }
    }

    /// Current state (advisory — may change immediately after).
    pub fn state(&self) -> BreakerState {
        self.lock().state
    }

    /// Total state transitions since construction (feeds the
    /// `client_breaker_transitions` counter).
    pub fn transitions(&self) -> u64 {
        self.transitions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_zero_then_exponential_and_capped() {
        let p = RetryPolicy {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            max_attempts: 10,
            op_deadline: None,
            jitter_seed: 7,
        };
        assert_eq!(p.backoff(0), Duration::ZERO);
        for retry in 1..10u32 {
            let unjittered = Duration::from_millis(10)
                .saturating_mul(1 << (retry - 1))
                .min(Duration::from_millis(100));
            let b = p.backoff(retry);
            assert!(
                b <= unjittered,
                "jitter only shrinks: {b:?} vs {unjittered:?}"
            );
            assert!(b >= unjittered.mul_f64(0.5), "jitter floor is 1/2");
        }
        // Cap holds even at absurd retry counts.
        assert!(p.backoff(64) <= Duration::from_millis(100));
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let a = RetryPolicy::seeded(42);
        let b = RetryPolicy::seeded(42);
        let c = RetryPolicy::seeded(43);
        let seq = |p: &RetryPolicy| (1..8).map(|i| p.backoff(i)).collect::<Vec<_>>();
        assert_eq!(seq(&a), seq(&b), "same seed, same schedule");
        assert_ne!(seq(&a), seq(&c), "different seed, different jitter");
    }

    #[test]
    fn run_retries_until_success_and_reports_last_error() {
        let p = RetryPolicy {
            base_backoff: Duration::from_micros(1),
            max_backoff: Duration::from_micros(4),
            max_attempts: 4,
            op_deadline: None,
            jitter_seed: 1,
        };
        let mut calls = 0;
        let out: Result<u32, &str> = p.run(|attempt| {
            calls += 1;
            if attempt < 2 {
                Err("nope")
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(out, Ok(2));
        assert_eq!(calls, 3);

        let out: Result<(), String> = p.run(|attempt| Err(format!("fail {attempt}")));
        assert_eq!(out, Err("fail 3".to_string()), "last error surfaces");
    }

    #[test]
    fn budget_spends_and_refills() {
        let b = RetryBudget::new(2, 500); // 2 tokens, half a token back per success
        assert!(b.try_spend());
        assert!(b.try_spend());
        assert!(!b.try_spend(), "exhausted");
        b.on_success();
        assert!(!b.try_spend(), "half a token is not a token");
        b.on_success();
        assert!(b.try_spend(), "two successes funded one retry");
        for _ in 0..100 {
            b.on_success();
        }
        assert_eq!(b.available(), 2, "refill caps at the initial balance");
    }

    #[test]
    fn breaker_trips_half_opens_and_recovers() {
        let br = CircuitBreaker::new(3, Duration::from_millis(1));
        assert_eq!(br.admit(), Admit::Allowed);
        br.on_failure();
        br.on_failure();
        assert_eq!(br.state(), BreakerState::Closed, "below threshold");
        br.on_failure();
        assert_eq!(br.state(), BreakerState::Open);
        assert_eq!(br.admit(), Admit::Rejected);
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(br.admit(), Admit::Probe, "cooldown elapsed: half-open");
        br.on_failure();
        assert_eq!(br.state(), BreakerState::Open, "failed probe re-opens");
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(br.admit(), Admit::Probe);
        br.on_success();
        assert_eq!(br.state(), BreakerState::Closed);
        assert_eq!(br.admit(), Admit::Allowed);
        assert_eq!(br.transitions(), 5, "closed→open→half→open→half→closed");
    }
}
