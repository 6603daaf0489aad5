//! The consumer-side façade: every decision made by one analysis rank's
//! receiver, reader, and output threads (§4.3).
//!
//! One `ConsumerPolicy` tracks end-of-stream completion across all upstream
//! producers and channels, issues Preserve-mode store verdicts, and records
//! the degenerate exits (watchdog timeout, reader abandonment) so they show
//! up in decision traces on both substrates.

use crate::eos::{Channel, EosProgress, EosTracker};
use crate::preserve::PreservePlan;
use crate::trace::{DecisionTrace, PolicyEvent};
use zipper_types::{BlockId, PreserveMode, Rank, RecoveryPolicy, ZipperTuning};

/// Decision kernel for one consumer rank.
#[derive(Clone, Debug)]
pub struct ConsumerPolicy {
    rank: Rank,
    producers: usize,
    tracker: EosTracker,
    plan: PreservePlan,
    recovery: RecoveryPolicy,
    restarts_used: u32,
    trace: DecisionTrace,
    completed: bool,
}

impl ConsumerPolicy {
    /// A policy for consumer `rank` fed by `producers` simulation ranks.
    pub fn new(
        rank: Rank,
        producers: usize,
        concurrent_transfer: bool,
        preserve: PreserveMode,
    ) -> Self {
        ConsumerPolicy {
            rank,
            producers,
            tracker: EosTracker::new(producers, concurrent_transfer),
            plan: PreservePlan::new(preserve),
            recovery: RecoveryPolicy::default(),
            restarts_used: 0,
            trace: DecisionTrace::default(),
            completed: false,
        }
    }

    /// Build from the shared tuning knobs.
    pub fn from_tuning(rank: Rank, producers: usize, tuning: &ZipperTuning) -> Self {
        Self::new(rank, producers, tuning.concurrent_transfer, tuning.preserve)
            .with_recovery(tuning.recovery)
    }

    /// Set the self-healing budgets (builder style).
    pub(crate) fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Enable decision recording (builder style).
    pub fn recorded(mut self) -> Self {
        self.trace.enable();
        self
    }

    /// The consuming rank this policy belongs to.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Marks this consumer must see before the stream is complete.
    pub fn eos_expected(&self) -> usize {
        self.tracker.expected()
    }

    /// Marks seen so far (deduplicated).
    pub fn eos_seen(&self) -> usize {
        self.tracker.seen()
    }

    /// Whether every expected end-of-stream mark has arrived.
    pub fn is_complete(&self) -> bool {
        self.completed
    }

    fn check_completion(&mut self) -> EosProgress {
        if self.tracker.is_complete() {
            if !self.completed {
                self.completed = true;
                self.trace.record(PolicyEvent::StreamComplete);
            }
            EosProgress::Complete
        } else {
            EosProgress::Pending
        }
    }

    /// Record an end-of-stream mark from `producer` on one channel. Both
    /// substrates announce per channel: the DES sender and writer send
    /// SEOS/WEOS independently, and the threaded sender ships the
    /// message-channel EOS at drain time and the file-channel EOS after
    /// the writer retires and the last disk IDs flush.
    pub fn note_eos(&mut self, producer: Rank, channel: Channel) -> EosProgress {
        if self.tracker.note(producer, channel) {
            self.trace
                .record(PolicyEvent::EosSeen { producer, channel });
        }
        self.check_completion()
    }

    /// Preserve-mode verdict for a network-delivered block: must the output
    /// thread store it on the PFS? (File-channel blocks never reach this —
    /// the producer's writer already stored them.)
    pub fn store_on_arrival(&mut self, block: BlockId) -> bool {
        let store = self.plan.must_store(Channel::Net);
        self.trace
            .record(PolicyEvent::StoreDecision { block, store });
        store
    }

    /// The EOS watchdog fired with marks outstanding. Returns
    /// `(producers fully done, total producers)` for diagnostics.
    pub fn on_timeout(&mut self) -> (usize, usize) {
        let done = self.tracker.producers_done();
        self.trace.record(PolicyEvent::EosTimeout {
            seen: done,
            expected: self.producers,
        });
        (done, self.producers)
    }

    /// The analysis application dropped its reader before end of stream.
    pub fn reader_abandoned(&mut self) {
        self.trace.record(PolicyEvent::ReaderAbandoned);
    }

    /// Whether a crashed consumer application may be restarted (the
    /// restart budget is not yet exhausted). Asked by
    /// [`ReadScript::crashed`](crate::ReadScript::crashed) only.
    pub(crate) fn may_restart(&self) -> bool {
        self.restarts_used < self.recovery.max_consumer_restarts
    }

    /// A crashed consumer application was restarted after `replayed`
    /// already-delivered blocks were replayed from the Preserve store.
    /// Consumes one restart from the budget and records
    /// [`PolicyEvent::ConsumerRestarted`].
    pub(crate) fn consumer_restarted(&mut self, replayed: usize) {
        self.restarts_used += 1;
        self.trace
            .record(PolicyEvent::ConsumerRestarted { replayed });
    }

    /// The decisions made so far.
    pub fn trace(&self) -> &DecisionTrace {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zipper_types::StepId;

    fn id(idx: u32) -> BlockId {
        BlockId::new(Rank(0), StepId(0), idx)
    }

    #[test]
    fn per_channel_marks_complete_the_stream() {
        let mut c = ConsumerPolicy::new(Rank(0), 2, true, PreserveMode::NoPreserve).recorded();
        assert!(!c.note_eos(Rank(0), Channel::Net).is_complete());
        assert!(!c.note_eos(Rank(0), Channel::Disk).is_complete());
        assert!(!c.note_eos(Rank(1), Channel::Net).is_complete());
        assert!(c.note_eos(Rank(1), Channel::Disk).is_complete());
        assert_eq!(c.trace().canonical().eos_seen.len(), 4);
    }

    #[test]
    fn stream_complete_recorded_exactly_once() {
        let mut c = ConsumerPolicy::new(Rank(0), 1, false, PreserveMode::NoPreserve).recorded();
        assert!(c.note_eos(Rank(0), Channel::Net).is_complete());
        assert!(c.note_eos(Rank(0), Channel::Net).is_complete());
        assert_eq!(c.trace().canonical().completions, 1);
        assert!(c.is_complete());
    }

    #[test]
    fn store_verdict_follows_preserve_mode() {
        let mut keep = ConsumerPolicy::new(Rank(0), 1, true, PreserveMode::Preserve).recorded();
        assert!(keep.store_on_arrival(id(0)));
        let mut drop = ConsumerPolicy::new(Rank(0), 1, true, PreserveMode::NoPreserve).recorded();
        assert!(!drop.store_on_arrival(id(0)));
        assert_eq!(keep.trace().canonical().stores, vec![(id(0), true)],);
    }

    #[test]
    fn timeout_reports_whole_producers() {
        let mut c = ConsumerPolicy::new(Rank(0), 3, true, PreserveMode::NoPreserve).recorded();
        c.note_eos(Rank(0), Channel::Net);
        c.note_eos(Rank(0), Channel::Disk);
        c.note_eos(Rank(1), Channel::Net); // half done: does not count
        assert_eq!(c.on_timeout(), (1, 3));
        assert_eq!(c.trace().canonical().timeouts, 1);
    }

    #[test]
    fn abandonment_is_traced() {
        let mut c = ConsumerPolicy::new(Rank(0), 1, false, PreserveMode::NoPreserve).recorded();
        c.reader_abandoned();
        assert!(c.trace().canonical().abandoned);
    }
}
