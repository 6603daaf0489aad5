//! The bounded block queue backing both the producer and consumer buffers.
//!
//! Semantics follow §4.2/§4.3 exactly:
//!
//! * `push` blocks while the queue is full — that blocked time *is* the
//!   simulation stall the paper measures (Fig. 14's "Stall" bars);
//! * `pop` blocks while empty (the sender/analysis side waiting for data);
//! * `steal` blocks until occupancy **strictly exceeds** a threshold — the
//!   writer thread's condition-variable wait in Algorithm 1 ("wait on a
//!   condition variable … the computation thread will produce data and
//!   signal … when #Blocks in ProducerBuffer > Threshold").
//!
//! All three return the time they spent blocked so callers can account
//! stalls without extra instrumentation. That time is zero unless the call
//! contended for the queue lock or waited on a condition: a call that finds
//! the lock free and the queue ready reads no clock.

// Threaded substrate: blocking waits and stall-time spans ARE this module's
// job — the DES twin models the same queue in virtual time. Decisions stay in
// zipper-policy, which this lint keeps wall-clock-free.
#![allow(clippy::disallowed_methods)]
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use zipper_trace::{GaugeId, Telemetry};
use zipper_types::{Block, Error, Result};

/// Time since a call started to block; zero for a call that never did.
fn elapsed(blocked_since: Option<Instant>) -> Duration {
    blocked_since.map_or(Duration::ZERO, |t0| t0.elapsed())
}

#[derive(Default)]
struct Inner {
    items: VecDeque<Block>,
    closed: bool,
}

/// A bounded, closable, thread-safe FIFO of data blocks.
pub struct BlockQueue {
    inner: Mutex<Inner>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
    telemetry: Telemetry,
    depth_gauge: GaugeId,
}

impl BlockQueue {
    /// Create a queue holding at most `capacity` blocks.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BlockQueue {
            inner: Mutex::new(Inner::default()),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity,
            telemetry: Telemetry::off(),
            depth_gauge: GaugeId::ProducerQueueDepth,
        }
    }

    /// Publish occupancy to `gauge` of `telemetry`. Blocked push/pop time
    /// is not a counter: the calls return it, and their callers record it
    /// as the lane's `Stall`, `Idle` or `ReadWait` span.
    pub fn with_telemetry(mut self, telemetry: Telemetry, gauge: GaugeId) -> Self {
        self.telemetry = telemetry;
        self.depth_gauge = gauge;
        self
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.inner.lock().items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The queue lock, and the instant the call started to block if taking
    /// the lock did: a free lock reads no clock, a contended one starts the
    /// timer before `lock()` so the contention counts as blocked time.
    fn lock_timed(&self) -> (MutexGuard<'_, Inner>, Option<Instant>) {
        match self.inner.try_lock() {
            Some(g) => (g, None),
            None => {
                let t0 = Instant::now();
                (self.inner.lock(), Some(t0))
            }
        }
    }

    /// Insert a block, blocking while the queue is full. Returns the time
    /// spent blocked (the producer stall).
    ///
    /// Returns [`Error::ShutDown`] if the queue is (or becomes, while this
    /// call is blocked) closed. During shutdown a racing pusher and closer
    /// are normal — the caller absorbs the error and drops the block
    /// instead of the whole process aborting.
    pub fn push(&self, block: Block) -> Result<Duration> {
        let (mut g, mut t0) = self.lock_timed();
        while g.items.len() >= self.capacity && !g.closed {
            t0.get_or_insert_with(Instant::now);
            self.not_full.wait(&mut g);
        }
        if g.closed {
            return Err(Error::ShutDown);
        }
        g.items.push_back(block);
        drop(g);
        self.not_empty.notify_all();
        self.telemetry.gauge_add(self.depth_gauge, 1);
        Ok(elapsed(t0))
    }

    /// The one take behind [`BlockQueue::pop`], [`BlockQueue::pop_then`],
    /// [`BlockQueue::steal`] and [`BlockQueue::steal_then`]: block until
    /// `ready` approves the current occupancy, then remove the oldest block
    /// and run `decide` on it *inside the queue lock*. Returns `None` when
    /// the queue is closed and `ready` still refuses. Also returns the
    /// blocked time.
    fn take<R>(
        &self,
        ready: impl Fn(usize) -> bool,
        mut decide: impl FnMut(&Block) -> R,
    ) -> (Option<(Block, R)>, Duration) {
        let (mut g, mut t0) = self.lock_timed();
        let taken = loop {
            if ready(g.items.len()) {
                let b = g.items.pop_front().expect("`ready` approved occupancy > 0");
                let verdict = decide(&b);
                break Some((b, verdict));
            }
            if g.closed {
                break None;
            }
            t0.get_or_insert_with(Instant::now);
            self.not_empty.wait(&mut g);
        };
        drop(g);
        if taken.is_some() {
            // A take also changes occupancy relative to steal thresholds;
            // stealers re-check on the next push.
            self.not_full.notify_one();
            self.telemetry.gauge_add(self.depth_gauge, -1);
        }
        (taken, elapsed(t0))
    }

    /// Remove the oldest block, blocking while empty. Returns `None` once
    /// the queue is closed *and* drained. Also reports the blocked time.
    pub fn pop(&self) -> (Option<Block>, Duration) {
        let (taken, waited) = self.pop_then(|_| ());
        (taken.map(|(b, ())| b), waited)
    }

    /// Like [`BlockQueue::pop`], but runs `decide` on the block *inside the
    /// queue lock*, before any other taker can observe the new occupancy.
    ///
    /// This is how the sender thread consults the shared routing policy
    /// atomically with its take: the k-th closure invocation across `pop_then`
    /// and [`BlockQueue::steal_then`] corresponds to the k-th block leaving
    /// the queue, so a take-order policy (round-robin dealing) is
    /// deterministic even with the writer racing for the same front block.
    ///
    /// `decide` must be fast and must not touch this queue (the lock is
    /// held). Lock order is queue → policy.
    pub fn pop_then<R>(&self, decide: impl FnMut(&Block) -> R) -> (Option<(Block, R)>, Duration) {
        self.take(|occupancy| occupancy > 0, decide)
    }

    /// Work-stealing take (Algorithm 1): block until occupancy strictly
    /// exceeds `threshold`, then take the oldest block. Returns `None` when
    /// the queue closes before the threshold is reached again — the writer
    /// thread retires and leaves the remaining blocks to the sender.
    pub fn steal(&self, threshold: usize) -> (Option<Block>, Duration) {
        let (taken, waited) = self.steal_then(|occupancy| occupancy > threshold, |_| ());
        (taken.map(|(b, ())| b), waited)
    }

    /// Policy-driven variant of [`BlockQueue::steal`]: blocks until `ready`
    /// approves the current occupancy (Algorithm 1's high-water-mark
    /// condition, supplied by the policy kernel), then takes the oldest
    /// block and runs `decide` on it inside the lock — same atomic
    /// take-and-route contract as [`BlockQueue::pop_then`].
    pub fn steal_then<R>(
        &self,
        ready: impl Fn(usize) -> bool,
        decide: impl FnMut(&Block) -> R,
    ) -> (Option<(Block, R)>, Duration) {
        self.take(ready, decide)
    }

    /// Put a block back at the *front* of the queue — the recovery path's
    /// re-insertion: a writer thread returning a block whose PFS store
    /// faulted, or a restart supervisor replaying a crashed consumer's
    /// backlog. Bypasses both the capacity bound and the closed flag: the
    /// block was already admitted once (capacity accounting stays honest)
    /// and recovery must be able to repopulate a queue that closed around
    /// the failure — poppers drain a closed queue before seeing `None`.
    pub fn requeue(&self, block: Block) {
        let mut g = self.inner.lock();
        g.items.push_front(block);
        drop(g);
        self.not_empty.notify_all();
        self.telemetry.gauge_add(self.depth_gauge, 1);
    }

    /// Wake every thread parked in [`BlockQueue::steal_then`] /
    /// [`BlockQueue::pop_then`] without changing the queue state, so they
    /// re-evaluate their take conditions. Used by the backpressure gate:
    /// arming a steal window changes the writer's `ready` predicate, and
    /// the writer may already be asleep on `not_empty`.
    pub fn nudge(&self) {
        let _g = self.inner.lock();
        self.not_empty.notify_all();
    }

    /// Close the queue: poppers drain the remainder then get `None`;
    /// stealers below threshold get `None` immediately; blocked and later
    /// pushes get [`Error::ShutDown`].
    pub fn close(&self) {
        let mut g = self.inner.lock();
        g.closed = true;
        drop(g);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Whether the queue has been closed.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use zipper_types::block::deterministic_payload;
    use zipper_types::{Block, BlockId, GlobalPos, Rank, StepId};

    fn block(idx: u32) -> Block {
        let id = BlockId::new(Rank(0), StepId(0), idx);
        Block::from_payload(
            Rank(0),
            StepId(0),
            idx,
            64,
            GlobalPos::default(),
            deterministic_payload(id, 128),
        )
    }

    #[test]
    fn fifo_order_preserved() {
        let q = BlockQueue::new(8);
        for i in 0..5 {
            q.push(block(i)).unwrap();
        }
        assert_eq!(q.len(), 5);
        q.close();
        let mut got = Vec::new();
        while let (Some(b), _) = q.pop() {
            got.push(b.id().idx);
        }
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn push_blocks_until_space_and_reports_stall() {
        let q = Arc::new(BlockQueue::new(1));
        q.push(block(0)).unwrap();
        let q2 = q.clone();
        let popper = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            let (b, _) = q2.pop();
            b.unwrap().id().idx
        });
        let stall = q.push(block(1)).unwrap(); // must wait for the pop
        assert!(stall >= Duration::from_millis(40), "stall={stall:?}");
        assert_eq!(popper.join().unwrap(), 0);
    }

    #[test]
    fn pop_blocks_until_push() {
        let q = Arc::new(BlockQueue::new(4));
        let q2 = q.clone();
        let h = std::thread::spawn(move || {
            let (b, waited) = q2.pop();
            (b.unwrap().id().idx, waited)
        });
        std::thread::sleep(Duration::from_millis(50));
        q.push(block(7)).unwrap();
        let (idx, waited) = h.join().unwrap();
        assert_eq!(idx, 7);
        assert!(waited >= Duration::from_millis(40));
    }

    #[test]
    fn steal_waits_for_threshold() {
        let q = Arc::new(BlockQueue::new(16));
        let q2 = q.clone();
        let stealer = std::thread::spawn(move || {
            let (b, _) = q2.steal(2);
            b.map(|b| b.id().idx)
        });
        // One and two blocks are not enough (threshold is strict).
        q.push(block(0)).unwrap();
        q.push(block(1)).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        q.push(block(2)).unwrap(); // occupancy 3 > 2: stealer takes the front
        assert_eq!(stealer.join().unwrap(), Some(0));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn steal_retires_on_close_below_threshold() {
        let q = Arc::new(BlockQueue::new(16));
        q.push(block(0)).unwrap();
        let q2 = q.clone();
        let stealer = std::thread::spawn(move || q2.steal(4).0);
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(stealer.join().unwrap().is_none());
        // The leftover block is still there for the sender to drain.
        assert_eq!(q.pop().0.unwrap().id().idx, 0);
        assert!(q.pop().0.is_none());
    }

    #[test]
    fn pop_then_and_steal_then_see_one_take_order() {
        // Take order is the routing order: the closure invocation sequence
        // across both takers must match the FIFO order exactly.
        let q = Arc::new(BlockQueue::new(16));
        for i in 0..6 {
            q.push(block(i)).unwrap();
        }
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let (o1, o2) = (order.clone(), order.clone());
        let (a, _) = q.pop_then(|b| o1.lock().push(b.id().idx));
        let (s, _) = q.steal_then(|occ| occ > 2, |b| o2.lock().push(b.id().idx));
        let (c, _) = q.pop_then(|b| order.lock().push(b.id().idx));
        assert_eq!(a.unwrap().0.id().idx, 0);
        assert_eq!(s.unwrap().0.id().idx, 1);
        assert_eq!(c.unwrap().0.id().idx, 2);
        assert_eq!(*order.lock(), vec![0, 1, 2]);
    }

    #[test]
    fn requeue_bypasses_capacity_and_closed_state() {
        let telemetry = Telemetry::on();
        let q = BlockQueue::new(1).with_telemetry(telemetry.clone(), GaugeId::ProducerQueueDepth);
        let depth = || telemetry.snapshot().gauge(GaugeId::ProducerQueueDepth);
        q.push(block(1)).unwrap(); // full
        q.close();
        q.requeue(block(0)); // lands at the front despite full + closed
        assert_eq!((q.len(), depth()), (2, 2), "requeue raised the gauge");
        assert_eq!(q.pop().0.unwrap().id().idx, 0, "requeued block is next");
        assert_eq!(q.pop().0.unwrap().id().idx, 1);
        assert!(q.pop().0.is_none());
        assert_eq!(depth(), 0);
    }

    #[test]
    fn requeue_wakes_parked_popper() {
        let q = Arc::new(BlockQueue::new(4));
        let q2 = q.clone();
        let popper = std::thread::spawn(move || q2.pop().0.map(|b| b.id().idx));
        std::thread::sleep(Duration::from_millis(30));
        q.requeue(block(9));
        assert_eq!(popper.join().unwrap(), Some(9));
    }

    #[test]
    fn steal_then_retires_on_close_below_threshold() {
        let q = Arc::new(BlockQueue::new(16));
        q.push(block(0)).unwrap();
        let q2 = q.clone();
        let stealer = std::thread::spawn(move || q2.steal_then(|occ| occ > 4, |_| ()).0);
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(stealer.join().unwrap().is_none());
        assert_eq!(q.pop_then(|_| ()).0.unwrap().0.id().idx, 0);
        assert!(q.pop_then(|_| ()).0.is_none());
    }

    #[test]
    fn closed_queue_drains_pops_and_refuses_steals_at_once() {
        let q = BlockQueue::new(8);
        q.push(block(0)).unwrap();
        q.push(block(1)).unwrap();
        q.close();
        // Below threshold on a closed queue: `None` without waiting, and
        // without running `decide`.
        assert!(q.steal(2).0.is_none());
        let (stolen, _) = q.steal_then(|occ| occ > 2, |_| panic!("nothing was taken"));
        assert!(stolen.is_none());
        // Above it a closed queue still yields.
        assert_eq!(q.steal(1).0.unwrap().id().idx, 0);
        // Pops drain the remainder, then report the end.
        assert_eq!(q.pop().0.unwrap().id().idx, 1);
        assert!(q.pop().0.is_none());
        assert!(q.pop_then(|_| panic!("nothing was taken")).0.is_none());
    }

    #[test]
    fn racing_takers_decide_once_per_block_in_take_order() {
        // A popper and a stealer race for the same front block: `decide`
        // runs inside the queue lock, so the shared log must read 0..n —
        // every block exactly once, in FIFO order — whoever won each take.
        let n = 400u32;
        let q = Arc::new(BlockQueue::new(8));
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let (q1, o1) = (q.clone(), order.clone());
        let popper = std::thread::spawn(move || {
            let mut mine = Vec::new();
            while let (Some((b, ())), _) = q1.pop_then(|b| o1.lock().push(b.id().idx)) {
                mine.push(b.id().idx);
            }
            mine
        });
        let (q2, o2) = (q.clone(), order.clone());
        let stealer = std::thread::spawn(move || {
            let mut mine = Vec::new();
            while let (Some((b, ())), _) =
                q2.steal_then(|occ| occ > 0, |b| o2.lock().push(b.id().idx))
            {
                mine.push(b.id().idx);
            }
            mine
        });
        for i in 0..n {
            q.push(block(i)).unwrap();
        }
        q.close();
        let mut got = popper.join().unwrap();
        got.extend(stealer.join().unwrap());
        got.sort_unstable();
        assert_eq!(got, (0..n).collect::<Vec<_>>(), "each block taken once");
        assert_eq!(*order.lock(), (0..n).collect::<Vec<_>>(), "decide order");
    }

    #[test]
    fn ready_queue_calls_report_no_blocked_time() {
        // Uncontended and ready: no wait, so no blocked time is returned;
        // the gauge follows the four pushes and three takes.
        let telemetry = Telemetry::on();
        let q = BlockQueue::new(4).with_telemetry(telemetry.clone(), GaugeId::ProducerQueueDepth);
        for i in 0..4 {
            assert_eq!(q.push(block(i)).unwrap(), Duration::ZERO);
        }
        let (popped, waited) = q.pop();
        assert_eq!((popped.unwrap().id().idx, waited), (0, Duration::ZERO));
        let (stolen, waited) = q.steal(1);
        assert_eq!((stolen.unwrap().id().idx, waited), (1, Duration::ZERO));
        let (taken, waited) = q.steal_then(|occ| occ > 0, |b| b.id().idx);
        assert_eq!((taken.unwrap().1, waited), (2, Duration::ZERO));
        assert_eq!(telemetry.snapshot().gauge(GaugeId::ProducerQueueDepth), 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn capacity_one_race_takes_every_block_once_in_decide_order() {
        // One pusher, one popper and one stealer on a one-slot queue: every
        // hand-off goes through a condvar wait or a skipped wake. A lost
        // wakeup strands a taker (or the pusher) and trips the deadline.
        let n = 100_000u32;
        // Ordinals past the 16-bit block index spill into the step.
        let nth = |i: u32| {
            let (step, idx) = (StepId(u64::from(i >> 16)), i & 0xffff);
            let id = BlockId::new(Rank(0), step, idx);
            Block::from_payload(
                Rank(0),
                step,
                idx,
                1 << 16,
                GlobalPos::default(),
                deterministic_payload(id, 16),
            )
        };
        let ordinal = |b: &Block| (b.id().step.0 as u32) << 16 | b.id().idx;
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let q = Arc::new(BlockQueue::new(1));
            let order = Arc::new(parking_lot::Mutex::new(Vec::with_capacity(n as usize)));
            let taker = |steal: bool| {
                let (q, order) = (q.clone(), order.clone());
                std::thread::spawn(move || {
                    let log = |b: &Block| order.lock().push(ordinal(b));
                    let mut mine = Vec::new();
                    loop {
                        let (taken, _) = if steal {
                            q.steal_then(|occ| occ > 0, log)
                        } else {
                            q.pop_then(log)
                        };
                        let Some((b, ())) = taken else { break mine };
                        mine.push(ordinal(&b));
                    }
                })
            };
            let (popper, stealer) = (taker(false), taker(true));
            for i in 0..n {
                q.push(nth(i)).unwrap();
            }
            q.close();
            let mut got = popper.join().unwrap();
            got.extend(stealer.join().unwrap());
            got.sort_unstable();
            let decided = std::mem::take(&mut *order.lock());
            let _ = done.send((got, decided));
        });
        let (got, decided) = finished
            .recv_timeout(Duration::from_secs(120))
            .expect("the race panicked, or made no progress in 120 s (lost wakeup?)");
        assert_eq!(got, (0..n).collect::<Vec<_>>(), "each block taken once");
        assert_eq!(decided, (0..n).collect::<Vec<_>>(), "decide order");
    }

    #[test]
    fn push_after_close_errors() {
        let telemetry = Telemetry::on();
        let q = BlockQueue::new(2).with_telemetry(telemetry.clone(), GaugeId::ProducerQueueDepth);
        q.close();
        assert!(matches!(q.push(block(0)), Err(Error::ShutDown)));
        assert_eq!(q.len(), 0);
        assert_eq!(
            telemetry.snapshot().gauge(GaugeId::ProducerQueueDepth),
            0,
            "rejected push not counted"
        );
    }

    #[test]
    fn blocked_push_wakes_with_error_on_close() {
        let q = Arc::new(BlockQueue::new(1));
        q.push(block(0)).unwrap();
        let q2 = q.clone();
        let pusher = std::thread::spawn(move || q2.push(block(1)));
        std::thread::sleep(Duration::from_millis(30));
        q.close(); // must wake the blocked pusher, not strand it
        assert!(matches!(pusher.join().unwrap(), Err(Error::ShutDown)));
    }

    #[test]
    fn queue_telemetry_tracks_depth_and_stalls() {
        let telemetry = Telemetry::on();
        let q = Arc::new(
            BlockQueue::new(1).with_telemetry(telemetry.clone(), GaugeId::ConsumerQueueDepth),
        );
        q.push(block(0)).unwrap();
        assert_eq!(
            telemetry.snapshot().gauge(GaugeId::ConsumerQueueDepth),
            1,
            "push raised the occupancy gauge"
        );
        let q2 = q.clone();
        let popper = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            q2.pop();
            q2.pop();
        });
        let stalled = q.push(block(1)).unwrap(); // blocks until the popper drains one
        popper.join().unwrap();
        assert_eq!(telemetry.snapshot().gauge(GaugeId::ConsumerQueueDepth), 0);
        assert!(
            stalled >= Duration::from_millis(30),
            "blocked push time returned: {stalled:?}"
        );
    }

    #[test]
    fn concurrent_producers_consumers_deliver_everything() {
        let q = Arc::new(BlockQueue::new(4));
        let n_per = 200u32;
        let producers: Vec<_> = (0..3u32)
            .map(|p| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for i in 0..n_per {
                        let id = BlockId::new(Rank(p), StepId(0), i);
                        q.push(Block::from_payload(
                            Rank(p),
                            StepId(0),
                            i,
                            n_per,
                            GlobalPos::default(),
                            deterministic_payload(id, 16),
                        ))
                        .unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let (Some(b), _) = q.pop() {
                        got.push(b.id());
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<_> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 3 * n_per as usize, "every block exactly once");
    }
}
