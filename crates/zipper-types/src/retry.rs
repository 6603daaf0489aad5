//! Bounded retry with exponential backoff and deterministic jitter.
//!
//! Every fail-soft layer of the runtime (transport sends, TCP connects,
//! PFS writes) shares this one policy type — and its one retry loop,
//! [`RetryPolicy::run`] — so operators tune retries in a single
//! vocabulary. Jitter is derived from a caller-provided seed with a
//! splitmix-style hash — no RNG state, no `rand` dependency, and the same
//! (seed, attempt) pair always yields the same delay, which keeps the
//! failure-injection tests reproducible.

use crate::error::{Error, Result};
use std::time::Duration;

/// A bounded-retry policy: how many attempts, and how to back off between
/// them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_delay: Duration,
    /// Backoff ceiling after exponential growth.
    pub max_delay: Duration,
    /// Fraction of the computed delay added as jitter in `[0, jitter)`
    /// (0.0 = none). Keeps synchronized retry storms from re-colliding.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(250),
            jitter: 0.25,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (single attempt, no backoff).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            jitter: 0.0,
        }
    }

    /// `attempts` tries with exponential backoff starting at `base`.
    pub fn new(attempts: u32, base: Duration, max: Duration) -> Self {
        assert!(attempts >= 1, "a policy needs at least one attempt");
        RetryPolicy {
            max_attempts: attempts,
            base_delay: base,
            max_delay: max,
            jitter: 0.25,
        }
    }

    /// The bounded-retry loop of every fail-soft layer: call `op` until it
    /// succeeds, fails with an error `permanent` says waiting cannot cure
    /// (returned as it came), or the attempt budget is spent. Between
    /// attempts `pause` is handed the backoff for `(attempt, seed)` — it
    /// sleeps, and records the retry however its layer does. Exhaustion
    /// surfaces the whole failure history as [`Error::Aggregate`], one
    /// fault per attempt in order; a single fault stays plain.
    pub fn run<T>(
        &self,
        seed: u64,
        permanent: impl Fn(&Error) -> bool,
        mut pause: impl FnMut(Duration),
        mut op: impl FnMut() -> Result<T>,
    ) -> Result<T> {
        let mut attempt = 1u32;
        let mut faults: Vec<Error> = Vec::new();
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if permanent(&e) => return Err(e),
                Err(e) => faults.push(e),
            }
            if !self.should_retry(attempt) {
                return Err(if faults.len() == 1 {
                    faults.pop().expect("one fault")
                } else {
                    Error::Aggregate(faults)
                });
            }
            pause(self.backoff(attempt, seed));
            attempt += 1;
        }
    }

    /// Whether a failed `attempt` (1-based) should be retried.
    fn should_retry(&self, attempt: u32) -> bool {
        attempt < self.max_attempts
    }

    /// Backoff to sleep after failed `attempt` (1-based): exponential in
    /// the attempt number, capped at `max_delay`, plus deterministic
    /// jitter derived from `seed`.
    fn backoff(&self, attempt: u32, seed: u64) -> Duration {
        if self.base_delay.is_zero() {
            return Duration::ZERO;
        }
        let exp = attempt.saturating_sub(1).min(20);
        let raw = self
            .base_delay
            .saturating_mul(1u32 << exp)
            .min(self.max_delay.max(self.base_delay));
        if self.jitter <= 0.0 {
            return raw;
        }
        let unit = splitmix(seed ^ u64::from(attempt)) as f64 / u64::MAX as f64;
        raw.mul_f64(1.0 + self.jitter * unit)
    }
}

/// SplitMix64 finalizer: a cheap, stateless bit mixer.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(50),
            jitter: 0.0,
        };
        assert_eq!(p.backoff(1, 0), Duration::from_millis(10));
        assert_eq!(p.backoff(2, 0), Duration::from_millis(20));
        assert_eq!(p.backoff(3, 0), Duration::from_millis(40));
        assert_eq!(p.backoff(4, 0), Duration::from_millis(50), "capped");
        assert_eq!(p.backoff(30, 0), Duration::from_millis(50), "no overflow");
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let p = RetryPolicy {
            jitter: 0.5,
            ..RetryPolicy::default()
        };
        for attempt in 1..6 {
            for seed in [0u64, 1, 42, u64::MAX] {
                let d = p.backoff(attempt, seed);
                let base = RetryPolicy { jitter: 0.0, ..p }.backoff(attempt, seed);
                assert!(d >= base, "jitter never shortens the delay");
                assert!(d <= base.mul_f64(1.5), "jitter bounded by the fraction");
                assert_eq!(d, p.backoff(attempt, seed), "deterministic");
            }
        }
    }

    #[test]
    fn none_policy_never_retries() {
        let p = RetryPolicy::none();
        assert!(!p.should_retry(1));
        assert_eq!(p.backoff(1, 7), Duration::ZERO);
    }

    #[test]
    fn should_retry_respects_budget() {
        let p = RetryPolicy::new(3, Duration::from_millis(1), Duration::from_millis(8));
        assert!(p.should_retry(1));
        assert!(p.should_retry(2));
        assert!(!p.should_retry(3));
    }

    /// `op` failing its first `fail_first` calls, run under `p`; returns
    /// the outcome, the calls made and the backoffs `pause` was handed.
    fn run_flaky(
        p: &RetryPolicy,
        seed: u64,
        fail_first: u32,
        fault: impl Fn(u32) -> Error,
    ) -> (Result<u32>, u32, Vec<Duration>) {
        let mut calls = 0u32;
        let mut pauses = Vec::new();
        let out = p.run(
            seed,
            |e| matches!(e, Error::BlockNotFound(_)),
            |d| pauses.push(d),
            || {
                calls += 1;
                if calls <= fail_first {
                    Err(fault(calls))
                } else {
                    Ok(calls)
                }
            },
        );
        (out, calls, pauses)
    }

    #[test]
    fn run_pauses_once_per_fault_with_the_attempt_seed_sequence() {
        let p = RetryPolicy::new(5, Duration::from_millis(2), Duration::from_millis(64));
        for k in 0..4u32 {
            let (out, calls, pauses) = run_flaky(&p, 9, k, |_| Error::Storage("flaky".into()));
            assert_eq!(out.unwrap(), k + 1, "succeeds on attempt k + 1");
            assert_eq!(calls, k + 1);
            let want: Vec<Duration> = (1..=k).map(|attempt| p.backoff(attempt, 9)).collect();
            assert_eq!(pauses, want, "k faults, k backoffs, (attempt, seed) order");
        }
    }

    #[test]
    fn run_exhaustion_returns_every_attempts_fault_in_order() {
        let p = RetryPolicy::new(3, Duration::from_micros(1), Duration::from_micros(4));
        let (out, calls, pauses) = run_flaky(&p, 0, u32::MAX, |n| Error::Storage(format!("#{n}")));
        assert_eq!((calls, pauses.len()), (3, 2), "attempts - 1 backoffs");
        match out.unwrap_err() {
            Error::Aggregate(faults) => {
                let texts: Vec<String> = faults.iter().map(|f| f.to_string()).collect();
                assert_eq!(
                    texts,
                    [
                        "storage error: #1",
                        "storage error: #2",
                        "storage error: #3"
                    ]
                );
            }
            other => panic!("expected Aggregate, got {other:?}"),
        }
        // A single-attempt policy keeps the lone error un-wrapped.
        let (out, calls, pauses) =
            run_flaky(&RetryPolicy::none(), 0, u32::MAX, |_| Error::Timeout("t"));
        assert!(matches!(out.unwrap_err(), Error::Timeout(_)));
        assert_eq!((calls, pauses.len()), (1, 0));
    }

    #[test]
    fn run_returns_a_permanent_error_after_one_attempt() {
        use crate::ids::{BlockId, Rank, StepId};
        let p = RetryPolicy::new(5, Duration::from_millis(1), Duration::from_millis(8));
        let missing = BlockId::new(Rank(9), StepId(9), 9);
        let (out, calls, pauses) = run_flaky(&p, 0, u32::MAX, |_| Error::BlockNotFound(missing));
        assert!(matches!(out.unwrap_err(), Error::BlockNotFound(id) if id == missing));
        assert_eq!((calls, pauses.len()), (1, 0), "no retry, no backoff");
    }
}
