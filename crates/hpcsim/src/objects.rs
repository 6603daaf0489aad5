//! Engine-managed coordination objects: bounded buffers, FIFO locks,
//! reusable barriers, counting signals.
//!
//! These are *pure state machines over virtual time*: they never schedule
//! events themselves; the engine asks them what to do and performs the
//! wakeups. All wait queues are FIFO so the simulation is deterministic.

use std::collections::VecDeque;
use zipper_types::{ProcId, SimTime};

/// One queued buffer item: payload byte size plus an opaque token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BufItem {
    pub bytes: u64,
    pub token: u64,
}

/// A waiting taker: process, its minimum-occupancy condition, and when it
/// started waiting (for span accounting).
#[derive(Clone, Copy, Debug)]
pub struct WaitingTaker {
    pub proc: ProcId,
    pub min_occupancy: usize,
    pub since: SimTime,
}

/// A waiting putter holding the item it wants to insert.
#[derive(Clone, Copy, Debug)]
pub struct WaitingPutter {
    pub proc: ProcId,
    pub item: BufItem,
    pub since: SimTime,
}

/// A wakeup decision produced by a buffer state change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BufferWake {
    /// Wake `proc`; it receives `item`.
    Taker {
        proc: ProcId,
        item: BufItem,
        since: SimTime,
    },
    /// Wake `proc`; the buffer is closed below its threshold.
    TakerClosed { proc: ProcId, since: SimTime },
    /// Wake `proc`; its pending item has been inserted.
    Putter { proc: ProcId, since: SimTime },
}

/// Bounded FIFO buffer with condition-variable semantics and
/// minimum-occupancy takes (the work-stealing threshold of Algorithm 1).
#[derive(Debug, Default)]
pub struct SimBuffer {
    capacity: usize,
    items: VecDeque<BufItem>,
    takers: VecDeque<WaitingTaker>,
    putters: VecDeque<WaitingPutter>,
    closed: bool,
}

impl SimBuffer {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        SimBuffer {
            capacity,
            ..Default::default()
        }
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn is_closed(&self) -> bool {
        self.closed
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Try to insert; on success returns wakeups to dispatch. If the buffer
    /// is full the putter parks and `None` is returned.
    pub fn put(&mut self, proc: ProcId, item: BufItem, now: SimTime) -> Option<Vec<BufferWake>> {
        assert!(!self.closed, "put into closed buffer by {proc:?}");
        if self.items.len() >= self.capacity {
            self.putters.push_back(WaitingPutter {
                proc,
                item,
                since: now,
            });
            return None;
        }
        self.items.push_back(item);
        Some(self.drain_wakeups())
    }

    /// Take with a minimum-occupancy condition. Returns `Ok` immediately
    /// when satisfiable, otherwise parks the taker and returns `Err(())`.
    #[allow(clippy::result_unit_err)]
    pub fn take(
        &mut self,
        proc: ProcId,
        min_occupancy: usize,
        now: SimTime,
    ) -> Result<(Option<BufItem>, Vec<BufferWake>), ()> {
        let min = min_occupancy.max(1);
        if self.items.len() >= min {
            let item = self.items.pop_front().expect("occupancy checked");
            let wakes = self.drain_wakeups();
            return Ok((Some(item), wakes));
        }
        if self.closed {
            // Closed and below threshold: taker retires immediately.
            return Ok((None, Vec::new()));
        }
        self.takers.push_back(WaitingTaker {
            proc,
            min_occupancy: min,
            since: now,
        });
        Err(())
    }

    /// Close the buffer; waiting takers whose condition can never be met
    /// are woken with `TakerClosed`, but takers that can still drain
    /// remaining items are woken with those items.
    pub fn close(&mut self) -> Vec<BufferWake> {
        self.closed = true;
        assert!(
            self.putters.is_empty(),
            "closing a buffer with blocked putters loses data"
        );
        self.drain_wakeups()
    }

    /// Put an item back at the *front* of the queue, bypassing capacity
    /// and the closed flag. This is the recovery path: a writer whose PFS
    /// put faulted returns the block so the next take re-takes it first,
    /// and a restarted consumer's replayed blocks must land even though
    /// the producers have already closed the buffer. Returns wakeups (a
    /// parked taker may now be eligible).
    pub fn requeue(&mut self, item: BufItem) -> Vec<BufferWake> {
        self.items.push_front(item);
        self.drain_wakeups()
    }

    /// Re-evaluate all wait queues after a state change. FIFO within each
    /// queue; takers are served before putters so space frees up first.
    fn drain_wakeups(&mut self) -> Vec<BufferWake> {
        let mut wakes = Vec::new();
        loop {
            let mut progressed = false;

            // Serve the first eligible taker (FIFO with skip: a stealer at
            // the queue head must not starve a plain taker behind it when
            // only the plain taker's condition holds).
            if let Some(pos) = self
                .takers
                .iter()
                .position(|t| self.items.len() >= t.min_occupancy || (self.closed))
            {
                let t = self.takers.remove(pos).expect("position valid");
                if self.items.len() >= t.min_occupancy {
                    let item = self.items.pop_front().expect("occupancy checked");
                    wakes.push(BufferWake::Taker {
                        proc: t.proc,
                        item,
                        since: t.since,
                    });
                } else {
                    wakes.push(BufferWake::TakerClosed {
                        proc: t.proc,
                        since: t.since,
                    });
                }
                progressed = true;
            }

            // Admit the first waiting putter if there is space now.
            if self.items.len() < self.capacity {
                if let Some(p) = self.putters.pop_front() {
                    self.items.push_back(p.item);
                    wakes.push(BufferWake::Putter {
                        proc: p.proc,
                        since: p.since,
                    });
                    progressed = true;
                }
            }

            if !progressed {
                return wakes;
            }
        }
    }
}

/// FIFO mutual-exclusion lock (the DataSpaces/DIMES lock service).
#[derive(Debug, Default)]
pub struct SimLock {
    holder: Option<ProcId>,
    queue: VecDeque<(ProcId, SimTime)>,
}

impl SimLock {
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquire: returns `true` when granted immediately; otherwise the
    /// caller parks.
    pub fn acquire(&mut self, proc: ProcId, now: SimTime) -> bool {
        if self.holder.is_none() {
            self.holder = Some(proc);
            true
        } else {
            self.queue.push_back((proc, now));
            false
        }
    }

    /// Release by the current holder; returns the next holder to wake.
    pub fn release(&mut self, proc: ProcId) -> Option<(ProcId, SimTime)> {
        assert_eq!(
            self.holder,
            Some(proc),
            "release by non-holder {proc:?} (holder {:?})",
            self.holder
        );
        match self.queue.pop_front() {
            Some((next, since)) => {
                self.holder = Some(next);
                Some((next, since))
            }
            None => {
                self.holder = None;
                None
            }
        }
    }

    pub fn holder(&self) -> Option<ProcId> {
        self.holder
    }

    pub fn waiters(&self) -> usize {
        self.queue.len()
    }
}

/// Reusable counting barrier.
#[derive(Debug)]
pub struct SimBarrier {
    size: usize,
    arrived: Vec<(ProcId, SimTime)>,
}

impl SimBarrier {
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "barrier size must be positive");
        SimBarrier {
            size,
            arrived: Vec::new(),
        }
    }

    /// A process arrives. When the barrier trips, all parked members are
    /// returned for wakeup (including the caller, whose `since == now`).
    pub fn arrive(&mut self, proc: ProcId, now: SimTime) -> Option<Vec<(ProcId, SimTime)>> {
        self.arrived.push((proc, now));
        if self.arrived.len() == self.size {
            Some(std::mem::take(&mut self.arrived))
        } else {
            None
        }
    }

    pub fn waiting(&self) -> usize {
        self.arrived.len()
    }
}

/// Counting signal (semaphore).
#[derive(Debug, Default)]
pub struct SimSignal {
    count: u64,
    waiters: VecDeque<(ProcId, SimTime)>,
}

impl SimSignal {
    pub fn new() -> Self {
        Self::default()
    }

    /// P(): returns `true` if the wait was satisfied immediately.
    pub fn wait(&mut self, proc: ProcId, now: SimTime) -> bool {
        if self.count > 0 {
            self.count -= 1;
            true
        } else {
            self.waiters.push_back((proc, now));
            false
        }
    }

    /// V()×n: returns the processes to wake (each consumed one unit).
    pub fn post(&mut self, n: u32) -> Vec<(ProcId, SimTime)> {
        self.count += n as u64;
        let mut wakes = Vec::new();
        while self.count > 0 {
            match self.waiters.pop_front() {
                Some(w) => {
                    self.count -= 1;
                    wakes.push(w);
                }
                None => break,
            }
        }
        wakes
    }

    pub fn pending(&self) -> u64 {
        self.count
    }

    pub fn waiters(&self) -> usize {
        self.waiters.len()
    }
}

/// Monotone counting gate: waiters park until the cumulative count
/// reaches their individual threshold. Unlike [`SimSignal`], a wake does
/// *not* consume the count — the gate models progress thresholds
/// ("resume once the writer's cumulative steals reach N", the scripted
/// backpressure windows), not tokens.
#[derive(Debug, Default)]
pub struct SimGate {
    count: u64,
    /// (process, threshold, park time).
    waiters: Vec<(ProcId, u64, SimTime)>,
}

impl SimGate {
    pub fn new() -> Self {
        Self::default()
    }

    /// Park `proc` until the count reaches `need`; returns `true` if the
    /// threshold is already met (no park).
    pub fn wait(&mut self, proc: ProcId, need: u64, now: SimTime) -> bool {
        if self.count >= need {
            true
        } else {
            self.waiters.push((proc, need, now));
            false
        }
    }

    /// Raise the count by `n`; returns the newly-satisfied waiters (with
    /// their park times) in park order.
    pub fn signal(&mut self, n: u64) -> Vec<(ProcId, SimTime)> {
        self.count = self.count.saturating_add(n);
        let count = self.count;
        let mut wakes = Vec::new();
        self.waiters.retain(|&(proc, need, since)| {
            if need <= count {
                wakes.push((proc, since));
                false
            } else {
                true
            }
        });
        wakes
    }

    /// Current cumulative count.
    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn waiters(&self) -> usize {
        self.waiters.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn it(bytes: u64) -> BufItem {
        BufItem { bytes, token: 0 }
    }

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    #[test]
    fn buffer_put_take_fifo() {
        let mut b = SimBuffer::new(4);
        assert!(b.put(ProcId(0), it(1), ms(0)).is_some());
        assert!(b.put(ProcId(0), it(2), ms(0)).is_some());
        let (item, wakes) = b.take(ProcId(1), 1, ms(1)).unwrap();
        assert_eq!(item.unwrap().bytes, 1);
        assert!(wakes.is_empty());
        assert_eq!(b.len(), 1);
        let (item, _) = b.take(ProcId(1), 1, ms(1)).unwrap();
        assert_eq!(item.unwrap().bytes, 2);
        assert!(b.is_empty());
    }

    #[test]
    fn full_buffer_parks_putter_until_take() {
        let mut b = SimBuffer::new(1);
        assert!(b.put(ProcId(0), it(1), ms(0)).is_some());
        assert!(b.put(ProcId(0), it(2), ms(1)).is_none()); // parked
        let (item, wakes) = b.take(ProcId(1), 1, ms(2)).unwrap();
        assert_eq!(item.unwrap().bytes, 1);
        // The parked putter's item is now inserted and the putter woken.
        assert_eq!(
            wakes,
            vec![BufferWake::Putter {
                proc: ProcId(0),
                since: ms(1)
            }]
        );
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn stealer_waits_for_threshold_while_plain_taker_proceeds() {
        let mut b = SimBuffer::new(8);
        // Stealer needs ≥ 3, parks first; plain taker needs 1, parks second.
        assert!(b.take(ProcId(9), 3, ms(0)).is_err());
        assert!(b.take(ProcId(1), 1, ms(0)).is_err());
        // One item: only the plain taker is eligible even though the
        // stealer parked first.
        let wakes = b.put(ProcId(0), it(7), ms(1)).unwrap();
        assert_eq!(wakes.len(), 1);
        assert!(matches!(
            wakes[0],
            BufferWake::Taker {
                proc: ProcId(1),
                item: BufItem { bytes: 7, .. },
                ..
            }
        ));
        // Three more items: stealer becomes eligible (occupancy reaches 3).
        assert!(b.put(ProcId(0), it(1), ms(2)).unwrap().is_empty());
        assert!(b.put(ProcId(0), it(2), ms(2)).unwrap().is_empty());
        let wakes = b.put(ProcId(0), it(3), ms(2)).unwrap();
        assert!(matches!(
            wakes[0],
            BufferWake::Taker {
                proc: ProcId(9),
                ..
            }
        ));
    }

    #[test]
    fn close_retires_parked_stealer_but_drains_plain_takers() {
        let mut b = SimBuffer::new(8);
        assert!(b.put(ProcId(0), it(5), ms(0)).is_some());
        assert!(b.take(ProcId(9), 3, ms(0)).is_err()); // stealer parks at occ 1
        let wakes = b.close();
        assert_eq!(
            wakes,
            vec![BufferWake::TakerClosed {
                proc: ProcId(9),
                since: ms(0)
            }]
        );
        // Remaining item still drains for a plain taker.
        let (item, _) = b.take(ProcId(1), 1, ms(1)).unwrap();
        assert_eq!(item.unwrap().bytes, 5);
        // Now empty and closed: immediate Closed.
        let (item, _) = b.take(ProcId(1), 1, ms(2)).unwrap();
        assert!(item.is_none());
    }

    #[test]
    fn requeue_bypasses_capacity_and_closed_state() {
        let mut b = SimBuffer::new(1);
        assert!(b.put(ProcId(0), it(1), ms(0)).is_some());
        let _ = b.close();
        // Full AND closed: requeue still lands, at the front.
        let wakes = b.requeue(it(9));
        assert!(wakes.is_empty());
        assert_eq!(b.len(), 2);
        let (item, _) = b.take(ProcId(1), 1, ms(1)).unwrap();
        assert_eq!(item.unwrap().bytes, 9, "requeued item comes first");
        let (item, _) = b.take(ProcId(1), 1, ms(1)).unwrap();
        assert_eq!(item.unwrap().bytes, 1);
    }

    #[test]
    fn requeue_wakes_parked_taker() {
        let mut b = SimBuffer::new(4);
        assert!(b.take(ProcId(1), 1, ms(0)).is_err()); // parked
        let wakes = b.requeue(it(7));
        assert!(matches!(
            wakes[0],
            BufferWake::Taker {
                proc: ProcId(1),
                item: BufItem { bytes: 7, .. },
                ..
            }
        ));
    }

    #[test]
    #[should_panic(expected = "blocked putters")]
    fn closing_with_blocked_putters_panics() {
        let mut b = SimBuffer::new(1);
        assert!(b.put(ProcId(0), it(1), ms(0)).is_some());
        assert!(b.put(ProcId(0), it(2), ms(0)).is_none());
        let _ = b.close();
    }

    #[test]
    fn lock_is_fifo() {
        let mut l = SimLock::new();
        assert!(l.acquire(ProcId(0), ms(0)));
        assert!(!l.acquire(ProcId(1), ms(1)));
        assert!(!l.acquire(ProcId(2), ms(2)));
        assert_eq!(l.waiters(), 2);
        assert_eq!(l.release(ProcId(0)), Some((ProcId(1), ms(1))));
        assert_eq!(l.holder(), Some(ProcId(1)));
        assert_eq!(l.release(ProcId(1)), Some((ProcId(2), ms(2))));
        assert_eq!(l.release(ProcId(2)), None);
        assert_eq!(l.holder(), None);
    }

    #[test]
    #[should_panic(expected = "non-holder")]
    fn lock_release_by_non_holder_panics() {
        let mut l = SimLock::new();
        assert!(l.acquire(ProcId(0), ms(0)));
        let _ = l.release(ProcId(1));
    }

    #[test]
    fn barrier_trips_on_last_arrival_and_reuses() {
        let mut bar = SimBarrier::new(3);
        assert!(bar.arrive(ProcId(0), ms(0)).is_none());
        assert!(bar.arrive(ProcId(1), ms(1)).is_none());
        let members = bar.arrive(ProcId(2), ms(2)).unwrap();
        assert_eq!(members.len(), 3);
        assert_eq!(bar.waiting(), 0);
        // Reusable: a second generation works.
        assert!(bar.arrive(ProcId(0), ms(3)).is_none());
    }

    #[test]
    fn signal_counts_and_wakes_fifo() {
        let mut s = SimSignal::new();
        assert!(!s.wait(ProcId(0), ms(0)));
        assert!(!s.wait(ProcId(1), ms(1)));
        let wakes = s.post(1);
        assert_eq!(wakes, vec![(ProcId(0), ms(0))]);
        let wakes = s.post(2);
        assert_eq!(wakes, vec![(ProcId(1), ms(1))]);
        assert_eq!(s.pending(), 1);
        assert!(s.wait(ProcId(2), ms(2))); // consumes the banked unit
    }

    #[test]
    fn gate_holds_until_threshold_without_consuming() {
        let mut g = SimGate::new();
        assert!(!g.wait(ProcId(0), 2, ms(0)));
        assert!(!g.wait(ProcId(1), 4, ms(1)));
        assert!(g.signal(1).is_empty(), "count 1 satisfies nobody");
        assert_eq!(g.signal(1), vec![(ProcId(0), ms(0))]);
        assert_eq!(g.waiters(), 1);
        assert_eq!(g.signal(5), vec![(ProcId(1), ms(1))]);
        // The count is monotone, never consumed: a later waiter with an
        // already-met threshold passes immediately.
        assert_eq!(g.count(), 7);
        assert!(g.wait(ProcId(2), 7, ms(2)));
        assert!(!g.wait(ProcId(3), 8, ms(2)));
    }
}
