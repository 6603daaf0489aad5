//! Retrying storage decorator.
//!
//! A saturated or flaky PFS returns transient errors (MPI-IO's high
//! variance, §3, extends to outright failed stripes under contention).
//! [`RetryingFs`] absorbs those: every failed `put`/`get` is retried under
//! a [`RetryPolicy`] with exponential backoff, and each backoff interval
//! is recorded as a [`SpanKind::Retry`] span so the time lost to storage
//! faults is visible in the trace next to the transfer time itself.
//!
//! Permanent conditions ([`Error::BlockNotFound`]) are not retried — the
//! runtime treats a missing block as a protocol-level loss, not a fault
//! that waiting will cure.

// Threaded substrate: retry backoff sleeps real threads — the DES twin
// schedules the same backoff as virtual-time events.
#![allow(clippy::disallowed_methods)]
use crate::storage::Storage;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use zipper_trace::{LaneRecorder, SpanKind, TraceSink};
use zipper_types::{Block, BlockId, Error, Result, RetryPolicy};

/// A [`Storage`] decorator that retries transient `put`/`get` failures.
pub struct RetryingFs<S> {
    inner: S,
    policy: RetryPolicy,
    retries: AtomicU64,
    /// Backoffs are `Retry` spans here; inert unless [`RetryingFs::traced`].
    rec: Mutex<LaneRecorder>,
}

impl<S: Storage> RetryingFs<S> {
    /// Wrap `inner`, retrying failed operations under `policy`.
    pub fn new(inner: S, policy: RetryPolicy) -> Self {
        RetryingFs {
            inner,
            policy,
            retries: AtomicU64::new(0),
            rec: Mutex::new(LaneRecorder::inert()),
        }
    }

    /// Like [`RetryingFs::new`], recording every backoff interval as a
    /// `Retry` span on lane `label` of `sink`.
    pub fn traced(
        inner: S,
        policy: RetryPolicy,
        sink: &TraceSink,
        label: impl Into<String>,
    ) -> Self {
        RetryingFs {
            rec: Mutex::new(sink.recorder(label.into())),
            ..Self::new(inner, policy)
        }
    }

    /// Access the wrapped backend.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Retry `op` under the policy ([`RetryPolicy::run`]); a missing block
    /// is a permanent condition. Every backoff is counted and slept as a
    /// `Retry` span.
    fn run<T>(&self, seed: u64, op: impl FnMut() -> Result<T>) -> Result<T> {
        let pause = |delay| {
            self.retries.fetch_add(1, Ordering::Relaxed);
            self.rec
                .lock()
                .time(SpanKind::Retry, || std::thread::sleep(delay));
        };
        self.policy
            .run(seed, |e| matches!(e, Error::BlockNotFound(_)), pause, op)
    }
}

impl<S: Storage> Storage for RetryingFs<S> {
    fn put(&self, block: &Block) -> Result<()> {
        self.run(block.id().as_u64(), || self.inner.put(block))
    }

    fn get(&self, id: BlockId) -> Result<Block> {
        self.run(id.as_u64(), || self.inner.get(id))
    }

    fn contains(&self, id: BlockId) -> bool {
        self.inner.contains(id)
    }

    fn delete(&self, id: BlockId) -> Result<()> {
        self.inner.delete(id)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemFs;
    use crate::throttle::FailingFs;
    use std::time::Duration;
    use zipper_trace::TraceMode;
    use zipper_types::block::deterministic_payload;
    use zipper_types::{GlobalPos, Rank, StepId};

    fn block(idx: u32) -> Block {
        let id = BlockId::new(Rank(0), StepId(0), idx);
        Block::from_payload(
            Rank(0),
            StepId(0),
            idx,
            4,
            GlobalPos::default(),
            deterministic_payload(id, 64),
        )
    }

    fn fast_policy(attempts: u32) -> RetryPolicy {
        RetryPolicy::new(
            attempts,
            Duration::from_micros(100),
            Duration::from_millis(1),
        )
    }

    #[test]
    fn rides_over_injected_faults_and_counts_retries() {
        // Every 2nd op fails: each put needs exactly one retry.
        let fs = RetryingFs::new(FailingFs::new(MemFs::new(), 2), fast_policy(4));
        for i in 0..4 {
            let b = block(i);
            // Ops alternate ok/fail; every block lands eventually.
            fs.put(&b).unwrap();
            assert!(fs.get(b.id()).is_ok());
        }
        assert_eq!(fs.len(), 4);
        assert!(fs.retries() > 0, "expected retried operations");
    }

    #[test]
    fn gives_up_when_budget_exhausted() {
        // Period 1: everything fails, no amount of retrying helps.
        let fs = RetryingFs::new(FailingFs::new(MemFs::new(), 1), fast_policy(3));
        assert!(fs.put(&block(0)).is_err());
        assert_eq!(fs.retries(), 2, "3 attempts = 2 retries");
    }

    #[test]
    fn exhaustion_surfaces_every_attempts_fault() {
        let fs = RetryingFs::new(FailingFs::new(MemFs::new(), 1), fast_policy(3));
        let err = fs.put(&block(0)).unwrap_err();
        match err {
            Error::Aggregate(faults) => {
                assert_eq!(faults.len(), 3, "one error per attempt");
                assert!(faults.iter().all(|f| matches!(f, Error::Storage(_))));
            }
            other => panic!("expected Aggregate, got {other:?}"),
        }
        // A single-attempt policy keeps the lone error un-wrapped.
        let fs = RetryingFs::new(FailingFs::new(MemFs::new(), 1), fast_policy(1));
        assert!(matches!(fs.put(&block(1)).unwrap_err(), Error::Storage(_)));
    }

    #[test]
    fn missing_block_is_not_retried() {
        let fs = RetryingFs::new(MemFs::new(), fast_policy(5));
        let err = fs.get(BlockId::new(Rank(9), StepId(9), 9)).unwrap_err();
        assert!(matches!(err, Error::BlockNotFound(_)));
        assert_eq!(fs.retries(), 0);
    }

    #[test]
    fn backoff_intervals_appear_as_retry_spans() {
        let sink = TraceSink::wall(TraceMode::Full);
        let fs = RetryingFs::traced(
            FailingFs::new(MemFs::new(), 2),
            fast_policy(4),
            &sink,
            "pfs/retry",
        );
        fs.put(&block(0)).unwrap(); // op 1: clean
        fs.put(&block(1)).unwrap(); // op 2 faults, op 3 retries clean
        drop(fs); // flush the buffered lane recorder
        let log = sink.snapshot();
        let lane = log.lane_by_label("pfs/retry").expect("retry lane");
        let retries = log
            .lane_spans(lane)
            .iter()
            .filter(|s| s.kind == SpanKind::Retry)
            .count();
        assert_eq!(retries, 1);
    }
}
