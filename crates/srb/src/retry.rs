//! Retry policies for transient failures.
//!
//! A [`RetryPolicy`] decides whether and when a failed SRB operation is
//! attempted again: only [transient](crate::types::SrbError::is_transient) errors are
//! retried, delays grow exponentially up to a cap, and a deterministic
//! jitter de-synchronizes clients that fail together (a crashed server would
//! otherwise see every client reconnect in the same instant). All delays run
//! on the virtual clock, so recovery timing is exact and reproducible.

use std::sync::Arc;

use rand::{rngs::StdRng, Rng, SeedableRng};
use semplar_runtime::{Dur, Runtime};

use crate::types::SrbResult;

/// Delay before the first retry.
const BASE_DELAY: Dur = Dur::from_millis(100);
/// Growth factor applied per retry.
const MULTIPLIER: f64 = 2.0;
/// Ceiling on any single delay.
const MAX_DELAY: Dur = Dur::from_secs(5);
/// Jitter amplitude as a fraction of the delay: each delay is scaled by a
/// factor drawn from `[1 - JITTER, 1 + JITTER)`. The same per-operation key
/// and attempt reproduce the exact same schedule; different keys spread out.
const JITTER: f64 = 0.2;

/// Exponential-backoff retry policy with deterministic jitter.
#[derive(Clone, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Attempts after the first failure (0 disables retrying).
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 10 }
    }
}

impl RetryPolicy {
    /// A policy that never retries (recovery disabled).
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_retries: 0 }
    }

    /// The delay before retry number `attempt` (0-based) of the operation
    /// identified by `key`. Pure: the same key and attempt always yield the
    /// same jittered delay.
    pub(crate) fn backoff(&self, key: u64, attempt: u32) -> Dur {
        let exp = MULTIPLIER.powi(attempt as i32);
        let raw = (BASE_DELAY.as_secs_f64() * exp).min(MAX_DELAY.as_secs_f64());
        let mut rng = StdRng::seed_from_u64(key.rotate_left(17) ^ ((attempt as u64) << 48));
        Dur::from_secs_f64(raw * (1.0 - JITTER + 2.0 * JITTER * rng.gen::<f64>()))
    }

    /// Run `op` under this policy: call it with the attempt number, retry
    /// transient failures after the backoff delay, and surface the last
    /// error once retries are exhausted. Non-transient errors are returned
    /// immediately.
    pub fn run<T>(
        &self,
        rt: &Arc<dyn Runtime>,
        key: u64,
        mut op: impl FnMut(u32) -> SrbResult<T>,
    ) -> SrbResult<T> {
        for attempt in 0.. {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) if !e.is_transient() || attempt >= self.max_retries => return Err(e),
                Err(_) => rt.sleep(self.backoff(key, attempt)),
            }
        }
        unreachable!("retry loop returns from within")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SrbError;
    use semplar_runtime::simulate;

    /// The factor the jitter scaled retry `attempt` of `key` by: its delay
    /// over the nominal `100 ms · 2^attempt`, capped at 5 s.
    fn factor(key: u64, attempt: u32) -> f64 {
        let nominal = (0.1 * 2f64.powi(attempt as i32)).min(5.0);
        RetryPolicy::default().backoff(key, attempt).as_secs_f64() / nominal
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy::default();
        for attempt in 0..12 {
            let f = factor(1, attempt);
            assert!((0.8..1.2).contains(&f), "attempt {attempt}: factor {f}");
        }
        // From attempt 6 on the nominal delay is the 5 s cap.
        for attempt in [6, 10, 30] {
            let d = p.backoff(1, attempt).as_secs_f64();
            assert!((4.0..6.0).contains(&d), "attempt {attempt}: {d} s");
        }
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        for attempt in 0..8 {
            assert_eq!(
                p.backoff(7, attempt),
                p.backoff(7, attempt),
                "same inputs, same delay"
            );
            let f = factor(7, attempt);
            assert!((0.8..1.2).contains(&f), "jitter factor {f}");
        }
        // Different keys de-synchronize.
        assert_ne!(p.backoff(1, 0), p.backoff(2, 0));
    }

    #[test]
    fn run_retries_transient_until_success() {
        let (result, elapsed, calls) = simulate(|rt| {
            let mut calls = 0;
            let t0 = rt.now();
            let r = RetryPolicy::default().run(&rt, 0, |attempt| {
                calls += 1;
                if attempt < 3 {
                    Err(SrbError::Disconnected { acked: 0 })
                } else {
                    Ok(42)
                }
            });
            (r, rt.now() - t0, calls)
        });
        assert_eq!(result, Ok(42));
        assert_eq!(calls, 4);
        // The three backoffs of key 0, nothing more.
        let p = RetryPolicy::default();
        assert_eq!(elapsed, p.backoff(0, 0) + p.backoff(0, 1) + p.backoff(0, 2));
    }

    #[test]
    fn run_gives_up_on_permanent_errors_and_exhaustion() {
        simulate(|rt| {
            let p = RetryPolicy { max_retries: 2 };
            let mut calls = 0;
            let r: SrbResult<()> = p.run(&rt, 0, |_| {
                calls += 1;
                Err(SrbError::PermissionDenied)
            });
            assert_eq!(r, Err(SrbError::PermissionDenied));
            assert_eq!(calls, 1, "permanent errors are not retried");

            let mut calls = 0;
            let r: SrbResult<()> = p.run(&rt, 0, |_| {
                calls += 1;
                Err(SrbError::Disconnected { acked: 9 })
            });
            assert_eq!(r, Err(SrbError::Disconnected { acked: 9 }));
            assert_eq!(calls, 3, "initial call + max_retries");
        });
    }
}
