//! Client-side retry policy: exponential backoff with deterministic
//! jitter, bounded by an attempt count.
//!
//! A transport-agnostic plain type: the wire client retries whole
//! operations on it (`service::WireClient::with_retry`), and the TCP
//! transport's connect loop runs on the same [`RetryPolicy`] instead of
//! a bespoke `sleep(backoff * attempt)` loop. All randomness is
//! deterministic: the jitter for retry *n* is a pure function of
//! `(jitter_seed, n)`, so a seeded run replays byte-identically.

use std::time::Duration;

/// Backoff/attempt policy for one logical operation.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// First retry's backoff; retry *n* waits `base × 2^(n-1)` (capped).
    pub base_backoff: Duration,
    /// Upper bound on a single backoff pause, a server's
    /// `retry_after_ms` hint included.
    pub max_backoff: Duration,
    /// Total attempts (first try included). `1` disables retries.
    pub max_attempts: u32,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

/// SplitMix64 — the jitter stream's mixing function.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl RetryPolicy {
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
    /// (a server's `retry_after_ms` hint) but never past
    /// [`RetryPolicy::max_backoff`]: a hint comes off the wire, and
    /// honoring it uncapped could stall the client for up to a `u32` of
    /// milliseconds. Returns the pause actually taken. This is the
    /// policy's single sleeping call site — retry loops in `p2drm-net`
    /// and `core::service` route their waiting through here (a bare
    /// `std::thread::sleep` there fails clippy's `disallowed_methods`).
    pub fn pause(&self, retry: u32, floor: Duration) -> Duration {
        let d = self.backoff(retry).max(floor.min(self.max_backoff));
        if !d.is_zero() {
            std::thread::sleep(d);
        }
        d
    }

    /// Runs `attempt_fn` up to [`RetryPolicy::max_attempts`] times,
    /// pausing per [`RetryPolicy::backoff`] between attempts.
    /// `attempt_fn` receives the 0-based attempt index. The connect loop
    /// in `p2drm-net` runs on this instead of a hand-rolled sleep loop.
    pub fn run<T, E>(&self, mut attempt_fn: impl FnMut(u32) -> Result<T, E>) -> Result<T, E> {
        let mut attempt = 0;
        loop {
            match attempt_fn(attempt) {
                Ok(v) => return Ok(v),
                Err(e) if attempt + 1 >= self.max_attempts => return Err(e),
                Err(_) => {}
            }
            attempt += 1;
            self.pause(attempt, Duration::ZERO);
        }
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
        let seeded = |jitter_seed| RetryPolicy {
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_millis(640),
            max_attempts: 4,
            jitter_seed,
        };
        let (a, b, c) = (seeded(42), seeded(42), seeded(43));
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
}
