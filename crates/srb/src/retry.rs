//! Retry policies for transient failures.
//!
//! A [`RetryPolicy`] decides whether and when a failed SRB operation is
//! attempted again: only [transient](SrbError::is_transient) errors are
//! retried, delays grow exponentially up to a cap, a deterministic jitter
//! de-synchronizes clients that fail together (a crashed server would
//! otherwise see every client reconnect in the same instant), and an
//! optional deadline bounds the total time spent retrying. All delays run
//! on the virtual clock, so recovery timing is exact and reproducible.

use std::sync::Arc;

use rand::{rngs::StdRng, Rng, SeedableRng};
use semplar_runtime::{Dur, Runtime};

use crate::types::SrbResult;

/// Exponential-backoff retry policy with deterministic jitter.
#[derive(Clone, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Attempts after the first failure (0 disables retrying).
    pub max_retries: u32,
    /// Delay before the first retry.
    pub base_delay: Dur,
    /// Growth factor applied per retry.
    pub multiplier: f64,
    /// Ceiling on any single delay.
    pub max_delay: Dur,
    /// Jitter amplitude as a fraction of the delay (0.0..=1.0): each delay
    /// is scaled by a factor drawn from `[1 - jitter, 1 + jitter)`.
    pub jitter: f64,
    /// Total retry budget: once the sum of delays would exceed it, the
    /// operation fails with the last error instead of sleeping again.
    pub deadline: Option<Dur>,
    /// Seed for the jitter stream. Two clients with different seeds (or
    /// different per-operation keys) spread out; the same seed and key
    /// reproduce the exact same schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 10,
            base_delay: Dur::from_millis(100),
            multiplier: 2.0,
            max_delay: Dur::from_secs(5),
            jitter: 0.2,
            deadline: Some(Dur::from_secs(120)),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (recovery disabled).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// The delay before retry number `attempt` (0-based) of the operation
    /// identified by `key`. Pure: the same policy, key, and attempt always
    /// yield the same jittered delay.
    pub fn backoff(&self, key: u64, attempt: u32) -> Dur {
        let exp = self.multiplier.powi(attempt as i32);
        let raw = (self.base_delay.as_secs_f64() * exp).min(self.max_delay.as_secs_f64());
        let jittered = if self.jitter > 0.0 {
            let mut rng =
                StdRng::seed_from_u64(self.seed ^ key.rotate_left(17) ^ ((attempt as u64) << 48));
            raw * (1.0 - self.jitter + 2.0 * self.jitter * rng.gen::<f64>())
        } else {
            raw
        };
        Dur::from_secs_f64(jittered)
    }

    /// Run `op` under this policy: call it with the attempt number, retry
    /// transient failures after the backoff delay, and surface the last
    /// error once retries, or the deadline, are exhausted. Non-transient
    /// errors are returned immediately.
    pub fn run<T>(
        &self,
        rt: &Arc<dyn Runtime>,
        key: u64,
        mut op: impl FnMut(u32) -> SrbResult<T>,
    ) -> SrbResult<T> {
        let mut slept = Dur::ZERO;
        for attempt in 0.. {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) if !e.is_transient() || attempt >= self.max_retries => return Err(e),
                Err(e) => {
                    let delay = self.backoff(key, attempt);
                    if let Some(deadline) = self.deadline {
                        if slept + delay > deadline {
                            return Err(e);
                        }
                    }
                    rt.sleep(delay);
                    slept += delay;
                }
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

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff(1, 0), Dur::from_millis(100));
        assert_eq!(p.backoff(1, 1), Dur::from_millis(200));
        assert_eq!(p.backoff(1, 3), Dur::from_millis(800));
        assert_eq!(p.backoff(1, 30), Dur::from_secs(5));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        for attempt in 0..8 {
            let a = p.backoff(7, attempt);
            assert_eq!(a, p.backoff(7, attempt), "same inputs, same delay");
            let raw = p.backoff(
                7,
                attempt.min(6), // below the cap the envelope is exact
            );
            let _ = raw;
            let nominal = (p.base_delay.as_secs_f64() * p.multiplier.powi(attempt as i32)).min(5.0);
            let f = a.as_secs_f64() / nominal;
            assert!((0.8..1.2).contains(&f), "jitter factor {f}");
        }
        // Different keys de-synchronize.
        assert_ne!(p.backoff(1, 0), p.backoff(2, 0));
    }

    #[test]
    fn run_retries_transient_until_success() {
        let (result, elapsed, calls) = simulate(|rt| {
            let p = RetryPolicy {
                jitter: 0.0,
                ..RetryPolicy::default()
            };
            let mut calls = 0;
            let t0 = rt.now();
            let r = p.run(&rt, 0, |attempt| {
                calls += 1;
                if attempt < 3 {
                    Err(SrbError::Disconnected { acked: 0 })
                } else {
                    Ok(42)
                }
            });
            (r, (rt.now() - t0).as_secs_f64(), calls)
        });
        assert_eq!(result, Ok(42));
        assert_eq!(calls, 4);
        // 100 + 200 + 400 ms of backoff.
        assert!((elapsed - 0.7).abs() < 1e-9, "{elapsed}");
    }

    #[test]
    fn run_gives_up_on_permanent_errors_and_exhaustion() {
        simulate(|rt| {
            let p = RetryPolicy {
                max_retries: 2,
                jitter: 0.0,
                ..RetryPolicy::default()
            };
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

    #[test]
    fn deadline_bounds_total_backoff() {
        let elapsed = simulate(|rt| {
            let p = RetryPolicy {
                max_retries: 100,
                jitter: 0.0,
                deadline: Some(Dur::from_millis(350)),
                ..RetryPolicy::default()
            };
            let t0 = rt.now();
            let r: SrbResult<()> = p.run(&rt, 0, |_| Err(SrbError::Disconnected { acked: 0 }));
            assert!(r.is_err());
            (rt.now() - t0).as_secs_f64()
        });
        // 100 + 200 ms fit; the 400 ms delay would blow the budget.
        assert!((elapsed - 0.3).abs() < 1e-9, "{elapsed}");
    }
}
