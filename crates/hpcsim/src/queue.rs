//! The engine's event queue.
//!
//! **Ordering contract.** Events run in a total order on `(time, seq)`,
//! where `seq` is the order they were scheduled in: earliest time first,
//! and within one tick, earlier-scheduled first. Two structures hold that
//! one order:
//!
//! * a binary heap of 32-byte entries keyed by `(time, seq)`;
//! * a **same-tick FIFO**: an event scheduled for the tick that is
//!   running (`time == now`) is appended here, not pushed on the heap.
//!   The FIFO is drained only once the heap holds nothing due at `now`.
//!   This is exactly `(time, seq)` order: every heap entry due at `now`
//!   was scheduled before the tick began (during the tick they come
//!   here), so it has a smaller `seq` than every FIFO entry; and the FIFO
//!   is itself in `seq` order.
//!
//! Both hold a delivery as an index into a slab of the messages waiting
//! to be delivered, so an entry stays half a cache line; an index is free
//! again once its delivery is popped. The slab keeps each message whole,
//! its send time included.

use crate::ops::MsgMeta;
use std::collections::{BinaryHeap, VecDeque};
use zipper_types::{ProcId, SimTime};

/// What the engine does when an event's time comes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Event {
    Resume(ProcId),
    /// `msg` reaches `to`'s mailbox. `sent_at`: when it was sent.
    /// `completes_send`: it was sent by `SendAsync`, so its delivery also
    /// retires one of the sender's outstanding sends.
    Deliver {
        to: ProcId,
        msg: MsgMeta,
        sent_at: SimTime,
        completes_send: bool,
    },
    /// A timed receive's watchdog: wakes `pid` with `last_msg == None`
    /// if it is still parked on the same receive generation.
    RecvTimeout {
        pid: ProcId,
        gen: u64,
    },
}

/// An [`Event`] as the heap and the FIFO store it: 16 bytes.
enum Stored {
    Resume(ProcId),
    /// The index of a delivery in [`EventQueue::slab`].
    Deliver(u32),
    RecvTimeout {
        pid: ProcId,
        gen: u64,
    },
}

struct Entry {
    /// `time` in the high 64 bits, `seq` in the low: one integer compare
    /// is the `(time, seq)` order.
    key: u128,
    stored: Stored,
}

// The heap is sifted on every timed op: an entry is half a cache line,
// which is why message bodies live in the slab and not here.
const _: () = assert!(std::mem::size_of::<Entry>() <= 32);

impl Entry {
    fn time(&self) -> SimTime {
        SimTime::from_nanos((self.key >> 64) as u64)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    // Reversed: BinaryHeap is a max-heap, we want the smallest key first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key.cmp(&self.key)
    }
}

#[derive(Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Entry>,
    same_tick: VecDeque<Stored>,
    seq: u64,
    /// The deliveries pending, by the index their [`Stored::Deliver`]
    /// carries; a slot on `free` holds a message already delivered.
    slab: Vec<Event>,
    free: Vec<u32>,
}

impl EventQueue {
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.same_tick.is_empty()
    }

    /// Schedule `event` for `time`; `now` is the tick that is running.
    pub(crate) fn schedule(&mut self, now: SimTime, time: SimTime, event: Event) {
        debug_assert!(time >= now, "event scheduled in the past");
        let seq = self.seq;
        self.seq += 1;
        let stored = match event {
            Event::Resume(pid) => Stored::Resume(pid),
            Event::RecvTimeout { pid, gen } => Stored::RecvTimeout { pid, gen },
            Event::Deliver { .. } => Stored::Deliver(self.park(event)),
        };
        if time == now {
            self.same_tick.push_back(stored);
        } else {
            self.heap.push(Entry {
                key: (time.as_nanos() as u128) << 64 | seq as u128,
                stored,
            });
        }
    }

    /// Put a delivery in a free slab slot, or a new one; its index.
    fn park(&mut self, event: Event) -> u32 {
        if let Some(i) = self.free.pop() {
            self.slab[i as usize] = event;
            return i;
        }
        let i = u32::try_from(self.slab.len()).expect("too many messages in flight");
        self.slab.push(event);
        i
    }

    /// The next event in `(time, seq)` order and its time, or `None` when
    /// nothing is scheduled at or before `horizon`. `now` is the time of
    /// the event returned last.
    pub(crate) fn pop(&mut self, now: SimTime, horizon: SimTime) -> Option<(SimTime, Event)> {
        let from_heap = match self.heap.peek() {
            Some(e) if e.time() <= now => true,
            Some(e) => self.same_tick.is_empty() && e.time() <= horizon,
            None => false,
        };
        let (time, stored) = if from_heap {
            let e = self.heap.pop().expect("peeked");
            (e.time(), e.stored)
        } else {
            (now, self.same_tick.pop_front()?)
        };
        let event = match stored {
            Stored::Resume(pid) => Event::Resume(pid),
            Stored::RecvTimeout { pid, gen } => Event::RecvTimeout { pid, gen },
            Stored::Deliver(i) => {
                self.free.push(i);
                self.slab[i as usize]
            }
        };
        Some((time, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// A message of `bytes` to `to`, recognisable by `tag`.
    fn message(to: u32, bytes: u64, tag: u64, completes_send: bool) -> Event {
        Event::Deliver {
            to: ProcId(to),
            msg: MsgMeta {
                from: ProcId(7),
                bytes,
                tag,
            },
            sent_at: SimTime::ZERO,
            completes_send,
        }
    }

    /// One event of each kind, recognisable by `id`; the last is a
    /// message of four GiB.
    fn kinds(id: u32) -> [Event; 5] {
        [
            Event::Resume(ProcId(id)),
            message(id % 2, 16, id.into(), false),
            message(id % 2, 16, id.into(), true),
            Event::RecvTimeout {
                pid: ProcId(id),
                gen: id as u64,
            },
            message(id % 2, 1 << 32, id.into(), false),
        ]
    }

    /// The `(time, tag)` of each delivery `drain` returns.
    fn tags(events: Vec<(SimTime, Event)>) -> Vec<(SimTime, u64)> {
        events
            .into_iter()
            .map(|(time, e)| match e {
                Event::Deliver { msg, .. } => (time, msg.tag),
                other => panic!("not a delivery: {other:?}"),
            })
            .collect()
    }

    fn drain(q: &mut EventQueue, mut now: SimTime) -> Vec<(SimTime, Event)> {
        let mut out = Vec::new();
        while let Some((time, e)) = q.pop(now, SimTime::MAX) {
            now = time;
            out.push((time, e));
        }
        out
    }

    /// With nothing pending, every slab index is free, each once.
    fn assert_all_free(q: &EventQueue) {
        let mut free = q.free.clone();
        free.sort_unstable();
        let all: Vec<u32> = (0..q.slab.len() as u32).collect();
        assert_eq!(free, all);
    }

    #[test]
    fn stored_forms_stay_small() {
        assert!(std::mem::size_of::<Stored>() <= 16);
        assert_eq!(std::mem::size_of::<Entry>(), 32);
    }

    /// For every pair of event kinds: an event scheduled for tick T from
    /// an earlier tick runs before one scheduled for T while T runs, and
    /// both run in the order they were scheduled among their own.
    #[test]
    fn a_tick_runs_earlier_scheduled_events_first_then_same_tick_fifo() {
        for early in 0..5 {
            for late in 0..5 {
                let mut q = EventQueue::default();
                // From tick 0, for tick 10: two events around a later one.
                q.schedule(t(0), t(10), kinds(1)[early]);
                q.schedule(t(0), t(20), kinds(9)[early]);
                q.schedule(t(0), t(10), kinds(2)[early]);
                let (time, first) = q.pop(t(0), SimTime::MAX).expect("first");
                assert_eq!((time, first), (t(10), kinds(1)[early]));
                // Tick 10 is running: these go behind what is already due.
                q.schedule(t(10), t(10), kinds(3)[late]);
                q.schedule(t(10), t(10), kinds(4)[late]);
                let rest = drain(&mut q, t(10));
                assert_eq!(
                    rest,
                    vec![
                        (t(10), kinds(2)[early]),
                        (t(10), kinds(3)[late]),
                        (t(10), kinds(4)[late]),
                        (t(20), kinds(9)[early]),
                    ],
                    "early kind {early}, late kind {late}"
                );
                assert!(q.is_empty());
            }
        }
    }

    #[test]
    fn a_message_of_four_gib_or_more_keeps_its_byte_count() {
        let sizes = [16, u32::MAX.into(), 1 << 32, u64::MAX, 17];
        let mut q = EventQueue::default();
        for (i, &bytes) in sizes.iter().enumerate() {
            q.schedule(t(0), t(10 + i as u64), message(0, bytes, i as u64, true));
        }
        let got: Vec<u64> = drain(&mut q, t(0))
            .into_iter()
            .map(|(_, e)| match e {
                Event::Deliver {
                    msg,
                    completes_send: true,
                    ..
                } => msg.bytes,
                other => panic!("not an async delivery: {other:?}"),
            })
            .collect();
        assert_eq!(got, sizes);
    }

    /// A message due before one sent earlier to the same process (an
    /// intra-node copy overtaking a fabric transfer) is delivered first.
    #[test]
    fn a_message_due_earlier_overtakes_those_sent_before_it() {
        let mut q = EventQueue::default();
        for (due, tag) in [(10, 0), (30, 1), (20, 2), (40, 3), (5, 4)] {
            q.schedule(t(0), t(due), message(1, 16, tag, false));
        }
        assert_eq!(
            tags(drain(&mut q, t(0))),
            [(t(5), 4), (t(10), 0), (t(20), 2), (t(30), 1), (t(40), 3)]
        );
    }

    /// Each delivery hands back its message's send time, whether it was
    /// due in the tick that sent it, in order, or overtaking.
    #[test]
    fn send_times_are_always_kept() {
        let mut q = EventQueue::default();
        let mut now = t(0);
        for (due, sent) in [(50, 0), (60, 5), (60, 9), (55, 9), (9, 9)] {
            let mut m = message(0, 16, sent, false);
            if let Event::Deliver { sent_at, .. } = &mut m {
                *sent_at = t(sent);
            }
            now = now.max(t(sent));
            q.schedule(now, t(due), m);
        }
        let got: Vec<(u64, SimTime)> = drain(&mut q, now)
            .into_iter()
            .map(|(_, e)| match e {
                Event::Deliver { msg, sent_at, .. } => (msg.tag, sent_at),
                other => panic!("not a delivery: {other:?}"),
            })
            .collect();
        assert_eq!(got, [(9, t(9)), (0, t(0)), (9, t(9)), (5, t(5)), (9, t(9))]);
    }

    #[test]
    fn horizon_keeps_the_events_beyond_it() {
        let mut q = EventQueue::default();
        q.schedule(t(0), t(5), Event::Resume(ProcId(0)));
        q.schedule(t(0), t(50), Event::Resume(ProcId(1)));
        assert_eq!(q.pop(t(0), t(10)), Some((t(5), Event::Resume(ProcId(0)))));
        assert_eq!(q.pop(t(5), t(10)), None);
        assert!(!q.is_empty());
        assert_eq!(
            q.pop(t(10), SimTime::MAX),
            Some((t(50), Event::Resume(ProcId(1))))
        );
    }

    /// Rounds that send up to eight messages and deliver a few: the slab
    /// never grows past the most deliveries pending at once.
    #[test]
    fn slab_indices_are_reused() {
        let mut q = EventQueue::default();
        let mut now = t(0);
        let (mut pending, mut peak) = (0, 0);
        for round in 0..100u32 {
            for k in 0..(round % 8 + 1) {
                let due = now + t(1 + u64::from(k));
                q.schedule(now, due, kinds(round * 8 + k)[1 + k as usize % 2]);
                pending += 1;
            }
            peak = peak.max(pending);
            for _ in 0..(round as usize % 5 + 1).min(pending) {
                now = q.pop(now, SimTime::MAX).expect("scheduled").0;
                pending -= 1;
            }
            assert!(q.slab.len() <= peak, "round {round}");
        }
        assert_eq!(drain(&mut q, now).len(), pending);
        assert!(q.is_empty());
        assert_all_free(&q);
    }

    /// Deliveries that differ only in tag, byte count or `completes_send`,
    /// to several processes, some due in the running tick, each carry
    /// their own metadata, over slab indices freed and reused between
    /// rounds.
    #[test]
    fn interleaved_sends_keep_their_own_metadata() {
        let variants = [
            message(0, 16, 1, false),
            message(0, 16, 2, false),
            message(0, 17, 1, false),
            message(0, 16, 1, true),
        ];
        let mut q = EventQueue::default();
        let mut now = t(0);
        for round in 0..3u64 {
            let mut want = Vec::new();
            for (i, v) in [0, 1, 1, 0, 2, 2, 0, 3, 3, 0].into_iter().enumerate() {
                let mut m = variants[v];
                if let Event::Deliver { to, .. } = &mut m {
                    *to = ProcId(i as u32 % 4);
                }
                // Every third is due in the running tick, after the rest.
                let due = if i % 3 == 0 { now } else { now + t(1) };
                q.schedule(now, due, m);
                want.push((due, i, m));
            }
            want.sort_by_key(|&(due, i, _)| (due, i));
            let want: Vec<Event> = want.into_iter().map(|(_, _, m)| m).collect();
            let got = drain(&mut q, now);
            now = got.last().expect("delivered").0;
            let got: Vec<Event> = got.into_iter().map(|(_, e)| e).collect();
            assert_eq!(got, want, "round {round}");
            assert_all_free(&q);
        }
        assert_eq!(q.slab.len(), 10);
    }

    proptest::proptest! {
        /// Whatever is scheduled — every kind, deliveries to few
        /// destinations from few senders, delivery times that overtake
        /// earlier sends, zero delays that land in the running tick —
        /// events come out sorted by `(time, order scheduled)`,
        /// interleaved pops included, and leave every slab index free.
        #[test]
        fn pops_follow_time_then_schedule_order(
            ops in proptest::collection::vec(
                (0u64..6, 0usize..5, 0u32..3, 0u32..3, proptest::bool::ANY, proptest::bool::ANY),
                1..200,
            ),
        ) {
            let mut q = EventQueue::default();
            // The reference: every pending event with its key.
            let mut pending: Vec<(SimTime, u64, Event)> = Vec::new();
            let mut now = t(0);
            let pop_both = |q: &mut EventQueue,
                                pending: &mut Vec<(SimTime, u64, Event)>,
                                now: &mut SimTime| {
                let want = pending
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &(time, seq, _))| (time, seq))
                    .map(|(i, _)| i);
                let got = q.pop(*now, SimTime::MAX);
                match want {
                    None => proptest::prop_assert_eq!(got, None),
                    Some(i) => {
                        let (time, _, event) = pending.remove(i);
                        proptest::prop_assert_eq!(got, Some((time, event)));
                        *now = time;
                    }
                }
                Ok(())
            };
            for (seq, &(delay, kind, dest, sender, shared_tag, pop_after)) in ops.iter().enumerate() {
                // Delays 0..6 from a moving `now`: ties, same-tick events
                // and out-of-order deliveries all occur.
                let time = now + t(delay * 3 % 7);
                let mut event = kinds(seq as u32)[kind];
                if let Event::Deliver { to, msg, sent_at, .. } = &mut event {
                    *to = ProcId(dest);
                    msg.from = ProcId(sender);
                    *sent_at = now;
                    if shared_tag {
                        msg.tag = 0;
                    }
                }
                q.schedule(now, time, event);
                pending.push((time, seq as u64, event));
                if pop_after {
                    pop_both(&mut q, &mut pending, &mut now)?;
                }
            }
            while !pending.is_empty() {
                pop_both(&mut q, &mut pending, &mut now)?;
            }
            proptest::prop_assert!(q.is_empty());
            assert_all_free(&q);
        }
    }
}
