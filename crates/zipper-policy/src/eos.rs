//! The fully-asynchronous end-of-stream protocol (§4.3).
//!
//! Zipper has no global barrier between the two applications: each producer
//! announces end-of-stream independently, on every channel it used, and each
//! consumer keeps analyzing until it has seen every mark it expects. This
//! module holds both halves of that protocol as pure bookkeeping — the
//! producer-side fan-out is handed out by a rank's
//! [`RankScript`](crate::RankScript) (`sender_drained`, `disk_eos`), the
//! consumer-side completion tracking lives in [`EosTracker`].

use zipper_types::Rank;

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

/// Progress of a consumer toward end of stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EosProgress {
    /// Marks are still outstanding; keep receiving.
    Pending,
    /// Every producer has announced on every active channel.
    Complete,
}

impl EosProgress {
    pub fn is_complete(self) -> bool {
        matches!(self, EosProgress::Complete)
    }
}

/// The consumers one producer must announce end of stream to on one
/// channel, in announcement order. An iterator rather than a list: at
/// 13,056 cores each of 8,704 producers fans out to 4,352 consumers per
/// channel, and a substrate that sends the marks a few at a time keeps
/// this cursor instead of a materialised target list.
#[derive(Clone, Debug)]
pub struct EosTargets(std::ops::Range<u32>);

impl EosTargets {
    /// Consumer ranks `0..consumers`, or no target at all.
    pub(crate) fn new(consumers: usize) -> Self {
        EosTargets(0..consumers as u32)
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

/// Consumer-side completion tracking: one mark per (producer, channel).
///
/// Duplicate marks are ignored (at-least-once delivery is fine), and marks
/// on an inactive channel are ignored too, so a stray `Disk` mark in a
/// message-only run cannot make completion fire early or late.
#[derive(Clone, Debug)]
pub struct EosTracker {
    /// Bit `2p + c` is set once producer `p`'s mark on channel `c` has
    /// been seen. Bits, not bytes: at 13,056 cores every one of 4,352
    /// consumers tracks 8,704 producers, and the marks arrive in no order
    /// a cache would like.
    marks: Vec<u64>,
    producers: usize,
    /// Active-channel marks set in `marks`, maintained by `note` so the
    /// completion check every arriving mark triggers is O(1), not a scan
    /// of all producers.
    seen: usize,
    concurrent: bool,
}

impl EosTracker {
    /// Track `producers` upstream ranks under the given channel mode.
    ///
    /// # Panics
    /// If `producers` is zero — a consumer with no upstream never completes.
    pub fn new(producers: usize, concurrent_transfer: bool) -> Self {
        assert!(producers > 0, "EOS tracker needs at least one producer");
        EosTracker {
            marks: vec![0; (2 * producers).div_ceil(64)],
            producers,
            seen: 0,
            concurrent: concurrent_transfer,
        }
    }

    fn channels(&self) -> &'static [Channel] {
        Channel::active(self.concurrent)
    }

    /// Total marks this consumer must see: producers × active channels.
    pub fn expected(&self) -> usize {
        self.producers * self.channels().len()
    }

    fn marked(&self, producer: usize, channel: Channel) -> bool {
        let bit = 2 * producer + channel as usize;
        self.marks[bit / 64] >> (bit % 64) & 1 == 1
    }

    /// Marks seen so far (deduplicated).
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// Producers that have announced on *every* active channel. The EOS
    /// watchdog reports progress in these whole-producer units.
    pub fn producers_done(&self) -> usize {
        (0..self.producers)
            .filter(|&p| self.channels().iter().all(|&c| self.marked(p, c)))
            .count()
    }

    /// Record a mark from `producer` on `channel`. Returns `true` if the
    /// mark was new (first sighting on an active channel), `false` for
    /// duplicates and inactive-channel marks.
    ///
    /// # Panics
    /// If `producer` is out of range.
    pub fn note(&mut self, producer: Rank, channel: Channel) -> bool {
        assert!(
            producer.idx() < self.producers,
            "EOS mark from unknown producer {producer:?}"
        );
        if !self.channels().contains(&channel) {
            return false;
        }
        let new = !self.marked(producer.idx(), channel);
        let bit = 2 * producer.idx() + channel as usize;
        self.marks[bit / 64] |= 1 << (bit % 64);
        self.seen += usize::from(new);
        new
    }

    /// Whether every expected mark has arrived.
    pub fn is_complete(&self) -> bool {
        self.seen == self.expected()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_only_expects_one_mark_per_producer() {
        let mut t = EosTracker::new(3, false);
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
        let mut t = EosTracker::new(2, true);
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
        let mut t = EosTracker::new(1, false);
        assert!(t.note(Rank(0), Channel::Net));
        assert!(!t.note(Rank(0), Channel::Net), "duplicate");
        assert!(!t.note(Rank(0), Channel::Disk), "inactive channel");
        assert_eq!(t.seen(), 1);
        assert!(t.is_complete());
    }

    #[test]
    #[should_panic(expected = "unknown producer")]
    fn out_of_range_producer_rejected() {
        EosTracker::new(1, true).note(Rank(1), Channel::Net);
    }

    /// What `seen` counts, recomputed from the mark table.
    fn scan(t: &EosTracker) -> usize {
        (0..t.producers)
            .map(|p| t.channels().iter().filter(|&&c| t.marked(p, c)).count())
            .sum()
    }

    proptest::proptest! {
        /// The O(1) counter agrees with a from-scratch scan of the mark
        /// table, and both with a plain set of the marks noted, after
        /// every mark of a random sequence — duplicates and
        /// inactive-channel marks included, in both channel modes, over
        /// more producers than one word of the table holds — and
        /// completion fires exactly when every mark is in.
        #[test]
        fn counter_agrees_with_scan(
            producers in 1usize..80,
            concurrent in proptest::bool::ANY,
            notes in proptest::collection::vec((0u32..80, proptest::bool::ANY), 0..200),
        ) {
            let mut t = EosTracker::new(producers, concurrent);
            let mut noted = std::collections::BTreeSet::new();
            for &(p, disk) in &notes {
                let producer = Rank(p % producers as u32);
                let channel = if disk { Channel::Disk } else { Channel::Net };
                let active = concurrent || !disk;
                let new = t.note(producer, channel);
                proptest::prop_assert_eq!(new, active && noted.insert((producer, disk)));
                proptest::prop_assert_eq!(t.seen(), noted.len());
                proptest::prop_assert_eq!(scan(&t), noted.len());
                proptest::prop_assert_eq!(t.is_complete(), noted.len() == t.expected());
            }
        }
    }
}
