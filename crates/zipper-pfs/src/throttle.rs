//! Bandwidth-throttled storage wrapper.
//!
//! On Bridges/Stampede2 the Lustre file system offers a large but *shared*
//! aggregate bandwidth; contending writers serialize. [`ThrottledFs`]
//! reproduces that on a laptop: every `put`/`get` reserves a slot on a
//! single shared bandwidth timeline (a virtual "drain") and sleeps until
//! its reservation completes. Concurrent callers therefore see exactly the
//! queueing behaviour of a saturated PFS: the more writers, the longer each
//! waits — which is what makes the Preserve-mode experiments (Fig. 13) and
//! the stall-relief behaviour of the dual-channel optimization observable
//! in the real runtime.

// Threaded substrate: the throttle sleeps real threads to reproduce PFS
// queueing — the DES twin books the same reservations on the virtual clock.
#![allow(clippy::disallowed_methods)]
use crate::storage::Storage;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use zipper_trace::{CounterId, Telemetry};
use zipper_types::{Block, BlockId, Result};

/// One shared-bandwidth drain: a timeline on which every transfer reserves
/// `bytes / bytes_per_sec` after the previous reservation ends, so
/// concurrent chargers queue on one aggregate bandwidth — [`ThrottledFs`]'s
/// puts and gets on one, the threaded runtime's mesh sends on another.
pub struct Drain {
    bytes_per_sec: f64,
    /// Fixed cost added to every charge (metadata round trip, per-message
    /// latency); it does not occupy the timeline.
    latency: Duration,
    /// The instant at which the timeline is next free. Shared across
    /// threads — this is the contention point.
    free_at: Mutex<Instant>,
}

impl Drain {
    /// A drain of `bytes_per_sec` aggregate bandwidth and `latency` fixed
    /// cost per charge.
    pub fn new(bytes_per_sec: f64, latency: Duration) -> Self {
        assert!(bytes_per_sec > 0.0, "bandwidth must be positive");
        Drain {
            bytes_per_sec,
            latency,
            free_at: Mutex::new(Instant::now()),
        }
    }

    /// Reserve `bytes` on the shared timeline and sleep until the
    /// reservation completes. Returns the time actually waited.
    pub fn charge(&self, bytes: u64) -> Duration {
        let xfer = Duration::from_secs_f64(bytes as f64 / self.bytes_per_sec);
        let now = Instant::now();
        let finish = {
            let mut free = self.free_at.lock();
            let start = (*free).max(now);
            let finish = start + xfer;
            *free = finish;
            finish
        };
        let deadline = finish + self.latency;
        let waited = deadline.saturating_duration_since(now);
        if !waited.is_zero() {
            std::thread::sleep(waited);
        }
        waited
    }
}

/// A [`Storage`] decorator imposing a shared aggregate bandwidth and a
/// per-operation latency.
pub struct ThrottledFs<S> {
    inner: S,
    drain: Drain,
    /// Stall-time metric; off by default.
    telemetry: Telemetry,
}

impl<S: Storage> ThrottledFs<S> {
    /// Wrap `inner`, limiting it to `bytes_per_sec` aggregate bandwidth
    /// with `op_latency` fixed cost per operation.
    pub fn new(inner: S, bytes_per_sec: f64, op_latency: Duration) -> Self {
        ThrottledFs {
            inner,
            drain: Drain::new(bytes_per_sec, op_latency),
            telemetry: Telemetry::off(),
        }
    }

    /// Record stall time into `telemetry` ([`CounterId::PfsStallNs`]).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    fn charge(&self, bytes: u64) {
        let waited = self.drain.charge(bytes);
        self.telemetry.add_time(CounterId::PfsStallNs, waited);
    }

    /// Access the wrapped backend.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: Storage> Storage for ThrottledFs<S> {
    fn put(&self, block: &Block) -> Result<()> {
        self.charge(block.header.len);
        self.inner.put(block)
    }

    fn get(&self, id: BlockId) -> Result<Block> {
        // Charge after the fetch so we know the size; charging order does
        // not matter for the aggregate-bandwidth model.
        let block = self.inner.get(id)?;
        self.charge(block.header.len);
        Ok(block)
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
        self.inner.retries()
    }
}

/// Fault-injecting storage decorator: every `failure_period`-th operation
/// (put or get, one shared 1-based count) fails with a storage error. The
/// `Storage` test double for read-side faults — scripted, cross-substrate
/// injection is [`crate::ChaosFs`], which counts `put`s only. Used to test
/// that the runtime degrades gracefully — surfacing errors in the consumer
/// metrics instead of hanging or corrupting the stream.
pub struct FailingFs<S> {
    inner: S,
    failure_period: u64,
    ops: AtomicU64,
}

impl<S: Storage> FailingFs<S> {
    /// Fail every `failure_period`-th operation (1 = fail everything).
    pub fn new(inner: S, failure_period: u64) -> Self {
        assert!(failure_period >= 1, "fault period must be at least 1");
        FailingFs {
            inner,
            failure_period,
            ops: AtomicU64::new(0),
        }
    }

    fn maybe_fail(&self, what: &str) -> zipper_types::Result<()> {
        let n = self.ops.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(self.failure_period) {
            return Err(zipper_types::Error::Storage(format!(
                "injected fault on {what} #{n}"
            )));
        }
        Ok(())
    }
}

impl<S: Storage> Storage for FailingFs<S> {
    fn put(&self, block: &Block) -> zipper_types::Result<()> {
        self.maybe_fail("put")?;
        self.inner.put(block)
    }

    fn get(&self, id: BlockId) -> zipper_types::Result<Block> {
        self.maybe_fail("get")?;
        self.inner.get(id)
    }

    fn contains(&self, id: BlockId) -> bool {
        self.inner.contains(id)
    }

    fn delete(&self, id: BlockId) -> zipper_types::Result<()> {
        self.inner.delete(id)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn retries(&self) -> u64 {
        self.inner.retries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemFs;
    use zipper_types::block::deterministic_payload;
    use zipper_types::{GlobalPos, Rank, StepId};

    fn block(idx: u32, len: usize) -> Block {
        let id = BlockId::new(Rank(0), StepId(0), idx);
        Block::from_payload(
            Rank(0),
            StepId(0),
            idx,
            4,
            GlobalPos::default(),
            deterministic_payload(id, len),
        )
    }

    #[test]
    fn throttle_enforces_minimum_duration() {
        // 1 MB at 10 MB/s should take ~100 ms.
        let fs = ThrottledFs::new(MemFs::new(), 10e6, Duration::ZERO);
        let b = block(0, 1_000_000);
        let t0 = Instant::now();
        fs.put(&b).unwrap();
        let dt = t0.elapsed();
        assert!(dt >= Duration::from_millis(95), "took only {dt:?}");
        assert_eq!(fs.get(b.id()).unwrap(), b);
    }

    #[test]
    fn concurrent_writers_share_bandwidth() {
        // Two writers × 500 KB at 10 MB/s: aggregate 1 MB ⇒ ≥ ~100 ms total,
        // even though each transfer alone would take 50 ms.
        let fs = std::sync::Arc::new(ThrottledFs::new(MemFs::new(), 10e6, Duration::ZERO));
        let t0 = Instant::now();
        let mut handles = Vec::new();
        for i in 0..2 {
            let fs = fs.clone();
            handles.push(std::thread::spawn(move || {
                fs.put(&block(i, 500_000)).unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let dt = t0.elapsed();
        assert!(dt >= Duration::from_millis(95), "took only {dt:?}");
        assert_eq!(fs.len(), 2);
    }

    #[test]
    fn concurrent_chargers_queue_on_one_timeline() {
        // Two chargers of b bytes at B bytes/s: whoever reserves second
        // starts where the first ends, so both are done no earlier than
        // 2b/B after the first started (each alone needs only b/B).
        let (b, rate) = (500_000u64, 10e6);
        let drain = std::sync::Arc::new(Drain::new(rate, Duration::ZERO));
        let t0 = Instant::now();
        let chargers: Vec<_> = (0..2)
            .map(|_| {
                let drain = drain.clone();
                std::thread::spawn(move || drain.charge(b))
            })
            .collect();
        for h in chargers {
            h.join().unwrap();
        }
        let whole = Duration::from_secs_f64(2.0 * b as f64 / rate);
        assert!(t0.elapsed() >= whole, "took only {:?}", t0.elapsed());
    }

    #[test]
    fn failing_fs_fails_on_schedule() {
        let fs = FailingFs::new(MemFs::new(), 3);
        let b = block(0, 64);
        assert!(fs.put(&b).is_ok()); // op 1
        assert!(fs.get(b.id()).is_ok()); // op 2
        assert!(fs.get(b.id()).is_err()); // op 3: injected
        assert!(fs.get(b.id()).is_ok()); // op 4
    }

    #[test]
    fn op_latency_applies_to_small_ops() {
        let fs = ThrottledFs::new(MemFs::new(), 1e12, Duration::from_millis(20));
        let b = block(0, 8);
        let t0 = Instant::now();
        fs.put(&b).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(19));
    }
}
