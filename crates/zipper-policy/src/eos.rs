//! The fully-asynchronous end-of-stream protocol (§4.3).
//!
//! Zipper has no global barrier between the two applications: each producer
//! announces end-of-stream independently, on every channel it used, to each
//! consumer its router can deal a block to, and each consumer keeps
//! analyzing until it has seen the marks of every producer that can route
//! to it. Control traffic follows the data topology: one target per
//! producer under SourceAffine, every consumer under RoundRobin. This
//! module holds both halves as pure bookkeeping — the producer-side fan-out
//! is handed out by a rank's [`RankScript`](crate::RankScript)
//! (`sender_drained`, `disk_eos`), the consumer-side completion tracking
//! lives in [`EosTracker`].

use zipper_types::{Rank, RoutingPolicy, ZipperTuning};

/// Which of the two transfer channels of the concurrent-transfer
/// optimization carried a block (or an EOS mark).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Channel {
    /// The message-passing channel (sender thread → receiver thread).
    Net,
    /// The file channel through the PFS (writer thread → reader thread).
    Disk,
}

impl Channel {
    /// The channels active under a given `concurrent_transfer` setting:
    /// `[Net]` for message-only runs, `[Net, Disk]` with the dual-channel
    /// optimization on.
    pub fn active(concurrent_transfer: bool) -> &'static [Channel] {
        if concurrent_transfer {
            &[Channel::Net, Channel::Disk]
        } else {
            &[Channel::Net]
        }
    }
}

/// The consumers one producer must announce end of stream to on one
/// channel, in announcement order: one consumer under SourceAffine, all of
/// them under RoundRobin. A cursor rather than a list because of the
/// latter: at 13,056 cores a round-robin producer fans out to 4,352
/// consumers per channel, and a substrate that sends the marks a few at a
/// time keeps this cursor instead of a materialised target list.
#[derive(Clone, Debug)]
pub struct EosTargets(std::ops::Range<u32>);

impl EosTargets {
    /// Consumer ranks `targets`, in order.
    pub(crate) fn new(targets: std::ops::Range<u32>) -> Self {
        EosTargets(targets)
    }
}

impl Iterator for EosTargets {
    type Item = Rank;

    fn next(&mut self) -> Option<Rank> {
        self.0.next().map(Rank)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for EosTargets {}

/// Consumer-side completion tracking: one mark per (upstream producer,
/// channel), the upstream being the producers whose router can reach this
/// consumer. Duplicate marks are ignored (at-least-once delivery is fine),
/// and so are marks on an inactive channel and marks from a producer that
/// cannot route here: neither a stray `Disk` mark in a message-only run nor
/// a forged mark can make completion fire early or late.
#[derive(Clone, Debug)]
pub struct EosTracker {
    /// Bit `2k + c` is set once the `k`-th upstream producer's mark on
    /// channel `c` has been seen. Bits, not bytes: under RoundRobin at
    /// 13,056 cores every one of 4,352 consumers tracks 8,704 producers.
    marks: Vec<u64>,
    producers: usize,
    /// The upstream is producers `first, first + stride, …`; the k-th sits
    /// at slot `k = p / stride`.
    first: usize,
    stride: usize,
    upstream: usize,
    /// Active-channel marks set in `marks`, maintained by `note` so the
    /// completion check every arriving mark triggers is O(1), not a scan
    /// of all producers.
    seen: usize,
    concurrent: bool,
}

impl EosTracker {
    /// Track consumer `rank` of `consumers` fed by `producers` ranks: its
    /// upstream is `p ≡ rank (mod Q)` under SourceAffine — none past the
    /// last producer when `P < Q` — and all P under RoundRobin.
    ///
    /// # Panics
    /// If `producers` is zero or `rank` is not below `consumers`.
    pub(crate) fn new(rank: Rank, producers: usize, consumers: usize, t: &ZipperTuning) -> Self {
        assert!(producers > 0, "EOS tracker needs at least one producer");
        assert!(rank.idx() < consumers, "consumer {rank:?} unknown");
        let (first, stride) = match t.routing {
            RoutingPolicy::SourceAffine => (rank.idx(), consumers),
            RoutingPolicy::RoundRobin => (0, 1),
        };
        let upstream = producers.saturating_sub(first).div_ceil(stride);
        EosTracker {
            marks: vec![0; (2 * upstream).div_ceil(64)],
            producers,
            first,
            stride,
            upstream,
            seen: 0,
            concurrent: t.concurrent_transfer,
        }
    }

    fn channels(&self) -> &'static [Channel] {
        Channel::active(self.concurrent)
    }

    /// Total marks this consumer must see: upstream × active channels.
    pub(crate) fn expected(&self) -> usize {
        self.upstream * self.channels().len()
    }

    /// Producers that can route to this consumer.
    pub(crate) fn upstream(&self) -> usize {
        self.upstream
    }

    fn marked(&self, slot: usize, channel: Channel) -> bool {
        let bit = 2 * slot + channel as usize;
        self.marks[bit / 64] >> (bit % 64) & 1 == 1
    }

    /// Upstream producers that have announced on *every* active channel.
    /// The EOS watchdog reports progress in these whole-producer units.
    pub(crate) fn producers_done(&self) -> usize {
        (0..self.upstream)
            .filter(|&k| self.channels().iter().all(|&c| self.marked(k, c)))
            .count()
    }

    /// Record a mark from `producer` on `channel`: `true` if it is the
    /// first on an active channel from an upstream producer.
    ///
    /// # Panics
    /// If `producer` is out of range.
    pub(crate) fn note(&mut self, producer: Rank, channel: Channel) -> bool {
        let p = producer.idx();
        assert!(p < self.producers, "EOS from unknown producer {producer:?}");
        if p % self.stride != self.first || !self.channels().contains(&channel) {
            return false;
        }
        let slot = p / self.stride;
        let new = !self.marked(slot, channel);
        let bit = 2 * slot + channel as usize;
        self.marks[bit / 64] |= 1 << (bit % 64);
        self.seen += usize::from(new);
        new
    }

    /// Whether every expected mark has arrived.
    pub(crate) fn is_complete(&self) -> bool {
        self.seen == self.expected()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Consumer `q` of `consumers`'s tracker, fed by `producers` ranks.
    fn tracker(
        routing: RoutingPolicy,
        q: u32,
        producers: usize,
        consumers: usize,
        concurrent: bool,
    ) -> EosTracker {
        let tuning = ZipperTuning {
            routing,
            concurrent_transfer: concurrent,
            ..ZipperTuning::default()
        };
        EosTracker::new(Rank(q), producers, consumers, &tuning)
    }

    /// A lone consumer's tracker: every producer routes to it.
    fn lone(producers: usize, concurrent: bool) -> EosTracker {
        tracker(RoutingPolicy::RoundRobin, 0, producers, 1, concurrent)
    }

    #[test]
    fn message_only_expects_one_mark_per_producer() {
        let mut t = lone(3, false);
        assert_eq!(t.expected(), 3);
        for p in 0..3 {
            assert!(!t.is_complete());
            assert!(t.note(Rank(p), Channel::Net));
        }
        assert!(t.is_complete());
        assert_eq!(t.producers_done(), 3);
    }

    #[test]
    fn dual_channel_needs_both_marks() {
        let mut t = lone(2, true);
        assert_eq!(t.expected(), 4);
        t.note(Rank(0), Channel::Net);
        t.note(Rank(1), Channel::Net);
        assert!(!t.is_complete());
        assert_eq!(t.producers_done(), 0, "no producer fully done yet");
        t.note(Rank(0), Channel::Disk);
        assert_eq!(t.producers_done(), 1);
        t.note(Rank(1), Channel::Disk);
        assert!(t.is_complete());
    }

    #[test]
    fn duplicates_and_inactive_channels_are_ignored() {
        let mut t = lone(1, false);
        assert!(t.note(Rank(0), Channel::Net));
        assert!(!t.note(Rank(0), Channel::Net), "duplicate");
        assert!(!t.note(Rank(0), Channel::Disk), "inactive channel");
        assert_eq!(t.seen, 1);
        assert!(t.is_complete());
    }

    /// Under SourceAffine, consumer 0 of 2 waits for producers 0 and 2
    /// only, at dense slots 0 and 1. Producer 1's mark would land on slot
    /// 0 — producer 0's — if it were not ignored, and complete the stream
    /// before producer 0's last block arrived.
    #[test]
    fn a_mark_from_a_non_routing_producer_is_ignored() {
        let mut t = tracker(RoutingPolicy::SourceAffine, 0, 4, 2, false);
        assert_eq!(t.expected(), 2);
        assert!(t.note(Rank(2), Channel::Net));
        assert!(
            !t.note(Rank(1), Channel::Net),
            "producer 1 routes to consumer 1"
        );
        assert!(
            !t.note(Rank(3), Channel::Net),
            "producer 3 routes to consumer 1"
        );
        assert_eq!((t.seen, t.producers_done()), (1, 1));
        assert!(!t.is_complete());
        assert!(t.note(Rank(0), Channel::Net));
        assert!(t.is_complete());
    }

    /// `P < Q` under SourceAffine: consumer 1 of 2 with a single producer
    /// has no upstream and is complete before any mark.
    #[test]
    fn an_empty_upstream_is_complete_at_once() {
        let mut t = tracker(RoutingPolicy::SourceAffine, 1, 1, 2, true);
        assert_eq!(t.expected(), 0);
        assert!(t.is_complete());
        assert!(!t.note(Rank(0), Channel::Net));
        assert_eq!((t.seen, t.producers_done()), (0, 0));
    }

    #[test]
    #[should_panic(expected = "unknown producer")]
    fn out_of_range_producer_rejected() {
        lone(1, true).note(Rank(1), Channel::Net);
    }

    /// What `seen` counts, recomputed from the mark table.
    fn scan(t: &EosTracker) -> usize {
        (0..t.upstream)
            .map(|k| t.channels().iter().filter(|&&c| t.marked(k, c)).count())
            .sum()
    }

    proptest::proptest! {
        /// The O(1) counter agrees with a from-scratch scan of the mark
        /// table, and both with a plain set of the upstream marks noted,
        /// after every mark of a random sequence — duplicates,
        /// inactive-channel marks and marks from producers that cannot
        /// route here included, under both routings and channel modes, over
        /// more producers than one word of the table holds — and completion
        /// fires exactly when every upstream mark is in.
        #[test]
        fn counter_agrees_with_scan(
            producers in 1usize..80,
            consumers in 1usize..6,
            consumer in 0usize..6,
            round_robin in proptest::bool::ANY,
            concurrent in proptest::bool::ANY,
            notes in proptest::collection::vec((0u32..80, proptest::bool::ANY), 0..200),
        ) {
            let routing = if round_robin {
                RoutingPolicy::RoundRobin
            } else {
                RoutingPolicy::SourceAffine
            };
            let consumer = Rank((consumer % consumers) as u32);
            let reach = crate::Router::new(routing, consumers);
            let mut t = tracker(routing, consumer.0, producers, consumers, concurrent);
            let upstream = (0..producers as u32)
                .filter(|&p| reach.reach(Rank(p)).contains(&consumer.0))
                .count();
            proptest::prop_assert_eq!(t.upstream(), upstream);
            proptest::prop_assert_eq!(t.is_complete(), upstream == 0);
            let mut noted = std::collections::BTreeSet::new();
            for &(p, disk) in &notes {
                let producer = Rank(p % producers as u32);
                let channel = if disk { Channel::Disk } else { Channel::Net };
                let active = concurrent || !disk;
                let routes_here = reach.reach(producer).contains(&consumer.0);
                let new = t.note(producer, channel);
                proptest::prop_assert_eq!(
                    new,
                    active && routes_here && noted.insert((producer, disk))
                );
                proptest::prop_assert_eq!(t.seen, noted.len());
                proptest::prop_assert_eq!(scan(&t), noted.len());
                proptest::prop_assert_eq!(t.is_complete(), noted.len() == t.expected());
            }
        }
    }
}
