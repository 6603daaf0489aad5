//! The engine's event queue.
//!
//! **Ordering contract.** Events run in a total order on `(time, seq)`,
//! where `seq` is the order they were scheduled in: earliest time first,
//! and within one tick, earlier-scheduled first. Three structures hold
//! that one order, so that the cost of an event does not grow with the
//! number of events pending:
//!
//! * a binary heap of 32-byte entries keyed by `(time, seq)`;
//! * a **same-tick FIFO**: an event scheduled for the tick that is
//!   running (`time == now`) is appended here, not pushed on the heap.
//!   The FIFO is drained only once the heap holds nothing due at `now`.
//!   This is exactly `(time, seq)` order: every heap entry due at `now`
//!   was scheduled before the tick began (during the tick they come
//!   here), so it has a smaller `seq` than every FIFO entry; and the FIFO
//!   is itself in `seq` order;
//! * per-destination **lanes** of in-flight messages. A message whose
//!   delivery time is not earlier than that of the last message in flight
//!   to the same process is appended to that process's lane instead of
//!   entering the heap. Only a lane's head is in the heap (as the
//!   destination's id — the heap never carries message bodies); when it
//!   is delivered its successor enters, under the key it was given when
//!   it was sent. A lane is in nondecreasing key order, so no message but
//!   the head can be the earliest pending event, and the merge through
//!   the heap is exact. A **stray** — a message due in the tick that sent
//!   it, one that would break its lane's order (an intra-node copy
//!   overtaking a fabric transfer), or one whose `seq` needs more than 32
//!   bits — is the whole event, boxed, under its own key.
//!
//! A lane slot is 16 bytes: the message's key, and the index of a
//! refcounted record of what it carries (sender, tag, byte count, and
//! whether it completes a send). Most marks in flight repeat their
//! neighbours' — an end-of-stream broadcast is one sender marking every
//! analysis rank with one tag — so a send reuses its sender's last record
//! when that is still in flight and carries exactly the same, and takes a
//! record of its own otherwise. A record's last delivery puts it on a
//! free list. A broadcast's deliveries read one record, which stays in
//! cache.
//!
//! A lane's slots sit side by side, in the order they will be delivered,
//! in chunks of one size, 16 slots, which one free list recycles. A
//! million marks in flight are still 16 MB — memory the host serves at
//! DRAM latency — and a delivery needs its successor's key at once; next
//! to each other, the successor is in the cache line just read, and the
//! host's memory system is off the critical path of most deliveries. The
//! send time, read only by a causal wire edge, sits in a side array by
//! slot, kept only while the engine records them.

use crate::ops::MsgMeta;
use std::collections::{BinaryHeap, VecDeque};
use zipper_types::{ProcId, SimTime};

/// What the engine does when an event's time comes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Event {
    Resume(ProcId),
    /// `msg` reaches `to`'s mailbox. `sent_at`: when it was sent; out of a
    /// lane slot, zero unless the queue [`EventQueue::keep_send_times`].
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
    /// The head of this process's lane.
    LaneHead(ProcId),
    /// A delivery that is in no lane, at full width.
    Stray(Box<Event>),
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
// which is why message bodies live in the lanes and not here.
const _: () = assert!(std::mem::size_of::<Entry>() <= 32);

fn key(time: SimTime, seq: u64) -> u128 {
    (time.as_nanos() as u128) << 64 | seq as u128
}

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

/// "None": an empty lane, the end of the free chunks, a sender with no
/// record yet.
const NIL: u32 = u32::MAX;
/// Flag in [`Shared::refs`]: sent by `SendAsync`.
const COMPLETES_SEND: u32 = 1 << 31;
/// Slots in a chunk.
const CHUNK: u32 = 16;

/// One message between its send and its delivery: 16 bytes, its key and
/// its record. A message whose `seq` does not fit in 32 bits is a stray.
#[derive(Clone, Copy, Default)]
struct InFlight {
    /// The delivery event's place in the total order.
    time: SimTime,
    seq: u32,
    /// Index of its [`Shared`] record.
    msg: u32,
}

impl InFlight {
    fn key(&self) -> u128 {
        key(self.time, self.seq.into())
    }
}

/// What one or more messages in flight carry, each the same.
#[derive(Clone, Copy)]
struct Shared {
    tag: u64,
    bytes: u64,
    from: ProcId,
    /// Top bit: [`COMPLETES_SEND`]. Low 31 bits: the messages in flight
    /// that point here; zero, and the record is free.
    refs: u32,
}

/// The messages in flight to one process, oldest first: the slot to
/// deliver next and the slot filled last, both on one list of chunks
/// (in any order of index: chunks come off a free list).
#[derive(Clone, Copy)]
struct Lane {
    /// [`NIL`] when the lane is empty.
    head: u32,
    tail: u32,
    /// Delivery time of the last message in the lane.
    last_time: SimTime,
}

impl Lane {
    const EMPTY: Lane = Lane {
        head: NIL,
        tail: NIL,
        last_time: SimTime::ZERO,
    };
}

/// Where [`Lanes::push`] put a message.
enum Pushed {
    /// First in its lane: the caller gives the lane a heap entry.
    Head,
    /// Behind another message: nothing more to do.
    Behind,
    /// Not stored — it is due before the lane's last message.
    OutOfOrder,
}

/// Every process's lane, over one pool of chunks and one of records.
#[derive(Default)]
struct Lanes {
    /// By `ProcId`.
    lanes: Vec<Lane>,
    /// Chunks of [`CHUNK`] slots; chunk `c` is slots `c * CHUNK ..`.
    slots: Vec<InFlight>,
    /// By chunk: the lane's next chunk, once it has one, or the next free
    /// chunk ([`NIL`] ends the free list). Threaded here, not stacked: the
    /// chunks a broadcast leaves behind would grow a stack past the peak.
    next: Vec<u32>,
    free_chunk: Option<u32>,
    /// By slot, the send time of its message; `None` unless the queue
    /// [`EventQueue::keep_send_times`].
    sent: Option<Vec<SimTime>>,
    records: Vec<Shared>,
    /// Records are fewer than slots, and mostly shared: a stack.
    free_records: Vec<u32>,
    /// By sending `ProcId`, the record it took last.
    last: Vec<u32>,
}

impl Lanes {
    /// The first slot of a chunk, off the free list or new.
    fn new_chunk(&mut self) -> u32 {
        if let Some(c) = self.free_chunk {
            let next = self.next[c as usize];
            self.free_chunk = (next != NIL).then_some(next);
            return c * CHUNK;
        }
        let slot = self.slots.len();
        assert!(slot < (NIL - CHUNK) as usize, "too many messages in flight");
        let end = slot + CHUNK as usize;
        self.slots.resize(end, InFlight::default());
        self.next.push(NIL);
        if let Some(sent) = &mut self.sent {
            sent.resize(end, SimTime::ZERO);
        }
        slot as u32
    }

    /// The record for a message that carries `r` (no refs yet): its
    /// sender's last, if it is in flight still and carries the same, or a
    /// new one.
    fn record(&mut self, mut r: Shared) -> u32 {
        let from = r.from.idx();
        if self.last.len() <= from {
            self.last.resize(from + 1, NIL);
        }
        let last = self.last[from];
        if let Some(l) = self.records.get_mut(last as usize) {
            let refs = l.refs & !COMPLETES_SEND;
            if refs != 0
                && refs < !COMPLETES_SEND
                && (l.from, l.tag, l.bytes, l.refs - refs) == (r.from, r.tag, r.bytes, r.refs)
            {
                l.refs += 1;
                return last;
            }
        }
        r.refs += 1;
        // No more records than slots: the index fits.
        let i = self.free_records.pop().unwrap_or_else(|| {
            self.records.push(r);
            self.records.len() as u32 - 1
        });
        self.records[i as usize] = r;
        self.last[from] = i;
        i
    }

    /// Append `m`, which carries `r`, to `to`'s lane.
    fn push(&mut self, to: ProcId, mut m: InFlight, r: Shared, sent_at: SimTime) -> Pushed {
        if self.lanes.len() <= to.idx() {
            self.lanes.resize(to.idx() + 1, Lane::EMPTY);
        }
        let mut lane = self.lanes[to.idx()];
        let pushed = if lane.head == NIL {
            lane.head = self.new_chunk();
            lane.tail = lane.head;
            Pushed::Head
        } else if m.time < lane.last_time {
            return Pushed::OutOfOrder;
        } else {
            lane.tail += 1;
            if lane.tail.is_multiple_of(CHUNK) {
                // The tail chunk was full.
                let c = self.new_chunk();
                self.next[(lane.tail / CHUNK - 1) as usize] = c / CHUNK;
                lane.tail = c;
            }
            Pushed::Behind
        };
        m.msg = self.record(r);
        let slot = lane.tail as usize;
        self.slots[slot] = m;
        if let Some(sent) = &mut self.sent {
            sent[slot] = sent_at;
        }
        lane.last_time = m.time;
        self.lanes[to.idx()] = lane;
        pushed
    }

    /// Take the head of `to`'s lane as its delivery; with it, the key of
    /// the message that is the head now.
    fn pop(&mut self, to: ProcId) -> (Event, Option<u128>) {
        let lane = &mut self.lanes[to.idx()];
        let slot = lane.head as usize;
        let sent_at = self.sent.as_ref().map_or(SimTime::ZERO, |s| s[slot]);
        let i = self.slots[slot].msg;
        let r = &mut self.records[i as usize];
        let m = Event::Deliver {
            to,
            msg: MsgMeta {
                from: r.from,
                bytes: r.bytes,
                tag: r.tag,
            },
            sent_at,
            completes_send: r.refs & COMPLETES_SEND != 0,
        };
        r.refs -= 1;
        if r.refs & !COMPLETES_SEND == 0 {
            self.free_records.push(i);
        }
        let empty = lane.head == lane.tail;
        lane.head += 1;
        if empty || lane.head.is_multiple_of(CHUNK) {
            // The chunk is spent: to the free list, and on to the next.
            let c = (lane.head - 1) / CHUNK;
            let free = self.free_chunk.replace(c).unwrap_or(NIL);
            let next = std::mem::replace(&mut self.next[c as usize], free);
            lane.head = if empty { NIL } else { next * CHUNK };
        }
        let successor = (!empty).then(|| self.slots[lane.head as usize].key());
        (m, successor)
    }
}

#[derive(Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Entry>,
    same_tick: VecDeque<Stored>,
    seq: u64,
    lanes: Lanes,
}

impl EventQueue {
    /// Keep every message's send time from now on. Refused once anything
    /// is scheduled: a message already in flight would have none.
    pub(crate) fn keep_send_times(&mut self) {
        assert!(
            self.seq == 0,
            "send times must be kept from the first event on"
        );
        self.lanes.sent = Some(Vec::new());
    }

    pub(crate) fn is_empty(&self) -> bool {
        // A non-empty lane has its head in the heap.
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
            Event::Deliver {
                to,
                msg,
                sent_at,
                completes_send,
            } => match u32::try_from(seq) {
                Ok(seq) if time > now => {
                    let m = InFlight { time, seq, msg: 0 };
                    let r = Shared {
                        tag: msg.tag,
                        bytes: msg.bytes,
                        from: msg.from,
                        refs: if completes_send { COMPLETES_SEND } else { 0 },
                    };
                    match self.lanes.push(to, m, r, sent_at) {
                        Pushed::Head => Stored::LaneHead(to),
                        Pushed::Behind => return,
                        Pushed::OutOfOrder => Stored::Stray(Box::new(event)),
                    }
                }
                _ => Stored::Stray(Box::new(event)),
            },
        };
        if time == now {
            self.same_tick.push_back(stored);
        } else {
            self.heap.push(Entry {
                key: key(time, seq),
                stored,
            });
        }
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
            Stored::Stray(event) => *event,
            Stored::LaneHead(to) => {
                // The successor enters the heap under the key it was sent
                // with, before the engine can schedule anything else.
                let (m, successor) = self.lanes.pop(to);
                if let Some(key) = successor {
                    self.heap.push(Entry {
                        key,
                        stored: Stored::LaneHead(to),
                    });
                }
                m
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

    /// A queue whose next event gets `seq`: the 32-bit boundary of a
    /// slot's `seq` is four billion events into a run otherwise.
    fn starting_at(seq: u64) -> EventQueue {
        EventQueue {
            seq,
            ..EventQueue::default()
        }
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

    /// With nothing in flight, every chunk and every record is free.
    fn assert_all_free(q: &EventQueue) {
        let lanes = &q.lanes;
        let mut free_chunks = 0;
        let mut c = lanes.free_chunk;
        while let Some(i) = c {
            free_chunks += 1;
            c = Some(lanes.next[i as usize]).filter(|&n| n != NIL);
        }
        assert_eq!(free_chunks, lanes.next.len(), "chunks");
        assert_eq!(lanes.free_records.len(), lanes.records.len(), "records");
        assert!(lanes.records.iter().all(|r| r.refs & !COMPLETES_SEND == 0));
    }

    #[test]
    fn stored_forms_stay_small() {
        assert!(std::mem::size_of::<Stored>() <= 16);
        assert_eq!(std::mem::size_of::<Entry>(), 32);
        assert_eq!(std::mem::size_of::<InFlight>(), 16);
        assert_eq!(std::mem::size_of::<Shared>(), 24);
        assert_eq!(std::mem::size_of::<Lane>(), 16);
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

    /// Just below 2^32, the messages to one process stop fitting a slot
    /// and become strays, and still come out in `(time, seq)` order: a
    /// wide message due with a narrow one goes after it, one due earlier
    /// overtakes the lane.
    #[test]
    fn narrow_and_wide_messages_drain_in_order_across_the_seq_boundary() {
        let mut q = starting_at((1 << 32) - 3);
        for (due, tag) in [(10, 0), (20, 1), (30, 2), (20, 3), (15, 4), (30, 5)] {
            q.schedule(t(0), t(due), message(0, 16, tag, false));
        }
        // The first three are a lane (in one chunk) behind one heap
        // entry; the last three are heap entries of their own.
        assert_eq!(q.lanes.slots.len(), CHUNK as usize);
        assert_eq!(q.heap.len(), 4);
        assert_eq!(
            tags(drain(&mut q, t(0))),
            [
                (t(10), 0),
                (t(15), 4),
                (t(20), 1),
                (t(20), 3),
                (t(30), 2),
                (t(30), 5)
            ]
        );
        assert!(q.is_empty());
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

    /// A message due before its lane's last one overtakes it, on either
    /// side of the `seq` boundary.
    #[test]
    fn an_out_of_order_message_overtakes_its_lane() {
        for start in [0, (1 << 32) - 2] {
            let mut q = starting_at(start);
            for (due, tag) in [(10, 0), (30, 1), (20, 2), (40, 3), (5, 4)] {
                q.schedule(t(0), t(due), message(1, 16, tag, false));
            }
            assert_eq!(
                tags(drain(&mut q, t(0))),
                [(t(5), 4), (t(10), 0), (t(20), 2), (t(30), 1), (t(40), 3)],
                "seq from {start}"
            );
        }
    }

    /// A queue that keeps send times hands each message's back with its
    /// delivery, from a slot or a stray alike; one that does not keeps
    /// them only for strays.
    #[test]
    fn send_times_are_kept_only_when_asked() {
        for keep in [false, true] {
            let mut q = EventQueue::default();
            if keep {
                q.keep_send_times();
            }
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
            // Due at 9 in tick 9 and the one at 55 overtaking: strays.
            let lane = |sent| if keep { t(sent) } else { SimTime::ZERO };
            assert_eq!(
                got,
                [
                    (9, t(9)),
                    (0, lane(0)),
                    (9, t(9)),
                    (5, lane(5)),
                    (9, lane(9))
                ],
                "keep {keep}"
            );
        }
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

    #[test]
    fn chunks_are_reused() {
        let mut q = EventQueue::default();
        let mut now = t(0);
        for round in 0..100u32 {
            for k in 0..8 {
                q.schedule(now, now + t(1 + k), kinds(round * 8 + k as u32)[1]);
            }
            for _ in 0..8 {
                now = q.pop(now, SimTime::MAX).expect("scheduled").0;
            }
        }
        assert!(q.is_empty());
        // Two lanes of four messages each, a hundred times over: one
        // chunk for each, and a record for each of eight tags in flight.
        assert_eq!(q.lanes.slots.len(), 2 * CHUNK as usize);
        assert_eq!(q.lanes.records.len(), 8);
        assert_all_free(&q);
    }

    /// A lane deep enough to span many chunks, filled while it drains,
    /// delivers in the order sent — and a second pass finds every chunk it
    /// needs on the free list.
    #[test]
    fn a_deep_lane_spans_chunks_in_order() {
        let mut q = EventQueue::default();
        let mut slots = 0;
        for pass in 0..2 {
            let base = pass * 1000;
            let mut sent = 0u32;
            let mut got = Vec::new();
            let mut now = t(base);
            // Three in, one out, until 200 are sent; then drain.
            while sent < 200 || !q.is_empty() {
                for _ in 0..3 {
                    if sent < 200 {
                        // Ties in time: the lane is in (time, seq) order.
                        let due = t(base + 300 + sent as u64 / 4);
                        q.schedule(now, due, kinds(2 * sent)[1]);
                        sent += 1;
                    }
                }
                let (time, e) = q.pop(now, SimTime::MAX).expect("scheduled");
                now = time;
                got.push(e);
            }
            let want: Vec<Event> = (0..200).map(|i| kinds(2 * i)[1]).collect();
            assert_eq!(got, want);
            if pass == 0 {
                slots = q.lanes.slots.len();
            }
            assert_eq!(q.lanes.slots.len(), slots, "pass {pass}");
        }
        assert_all_free(&q);
    }

    /// A lane whose chunks come off the free list in descending index
    /// order — its tail chunk right below its head chunk — still
    /// delivers every message in the order sent.
    #[test]
    fn a_lane_over_reused_chunks_in_any_order_delivers_in_order() {
        let mut q = EventQueue::default();
        // Chunks 0 and 1, freed in that order: 1 comes off first.
        q.schedule(t(0), t(1), message(0, 16, 0, false));
        q.schedule(t(0), t(2), message(1, 16, 0, false));
        drain(&mut q, t(0));
        let want: Vec<Event> = (0..40).map(|i| message(2, 16, i, false)).collect();
        for (i, &m) in want.iter().enumerate() {
            q.schedule(t(2), t(10 + i as u64), m);
        }
        let got: Vec<Event> = drain(&mut q, t(2)).into_iter().map(|(_, e)| e).collect();
        assert_eq!(got, want);
        assert_all_free(&q);
    }

    /// An end-of-stream broadcast: one sender marks each of many
    /// processes with one tag. The marks share one record, each delivery
    /// carries it, and the last one frees it.
    #[test]
    fn a_fan_out_from_one_sender_holds_one_record() {
        let mut q = EventQueue::default();
        for to in 0..100 {
            q.schedule(t(0), t(10), message(to, 64, 5, true));
        }
        assert_eq!(q.lanes.records.len(), 1);
        assert_eq!(q.lanes.records[0].refs, COMPLETES_SEND | 100);
        let got: Vec<Event> = drain(&mut q, t(0)).into_iter().map(|(_, e)| e).collect();
        let want: Vec<Event> = (0..100).map(|to| message(to, 64, 5, true)).collect();
        assert_eq!(got, want);
        assert_all_free(&q);
    }

    /// Sends from one process that differ from the one before only in
    /// tag, byte count or `completes_send` take records of their own;
    /// repeats share. Each delivery carries its own send's metadata.
    #[test]
    fn interleaved_sends_keep_their_own_metadata() {
        let variants = [
            message(0, 16, 1, false),
            message(0, 16, 2, false),
            message(0, 17, 1, false),
            message(0, 16, 1, true),
        ];
        let mut q = EventQueue::default();
        let mut want = Vec::new();
        for round in 0..3u64 {
            for v in [0, 1, 1, 0, 2, 2, 0, 3, 3, 0] {
                let mut m = variants[v];
                if let Event::Deliver { to, .. } = &mut m {
                    // Round-robin over four lanes, in time order.
                    *to = ProcId(want.len() as u32 % 4);
                }
                q.schedule(t(0), t(10 + round), m);
                want.push(m);
            }
        }
        // Per round: base, tag, base, bytes, base, flag, base; a round
        // after the first begins with the base the last one ended with.
        assert_eq!(q.lanes.records.len(), 7 + 6 + 6);
        let got: Vec<Event> = drain(&mut q, t(0)).into_iter().map(|(_, e)| e).collect();
        assert_eq!(got, want);
        assert_all_free(&q);
    }

    proptest::proptest! {
        /// Whatever is scheduled — every kind, deliveries to few
        /// destinations so lanes form, from few senders so records are
        /// shared, delivery times that break lane order, zero delays that
        /// land in the running tick, a `seq` that outgrows 32 bits —
        /// events come out sorted by `(time, order scheduled)`,
        /// interleaved pops included, and leave nothing behind.
        #[test]
        fn pops_follow_time_then_schedule_order(
            ops in proptest::collection::vec(
                (0u64..6, 0usize..5, 0u32..3, 0u32..3, proptest::bool::ANY, proptest::bool::ANY),
                1..200,
            ),
            near_boundary in proptest::bool::ANY,
        ) {
            let mut q = starting_at(if near_boundary { (1 << 32) - 100 } else { 0 });
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
                // Few senders and a shared tag: consecutive sends reuse
                // records, and a record outlives some of its messages.
                if let Event::Deliver { to, msg, .. } = &mut event {
                    *to = ProcId(dest);
                    msg.from = ProcId(sender);
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
