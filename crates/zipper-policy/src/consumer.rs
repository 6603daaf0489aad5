//! The consumer-side façade: every decision made by one analysis rank's
//! receiver, reader, and output threads (§4.3).
//!
//! One `ConsumerPolicy` tracks end-of-stream completion across the
//! producers that can route to this rank and every active channel, issues
//! Preserve-mode store verdicts, and records the degenerate exits (watchdog
//! timeout, reader abandonment) so they show up in decision traces on both
//! substrates.

use crate::eos::{Channel, EosTracker};
use crate::preserve::PreservePlan;
use crate::trace::{DecisionTrace, PolicyEvent};
use zipper_types::{BlockId, Rank, RecoveryPolicy, ZipperTuning};

/// Decision kernel for one consumer rank.
#[derive(Clone, Debug)]
pub struct ConsumerPolicy {
    rank: Rank,
    tracker: EosTracker,
    plan: PreservePlan,
    recovery: RecoveryPolicy,
    restarts_used: u32,
    trace: DecisionTrace,
    completed: bool,
}

impl ConsumerPolicy {
    /// A policy for consumer `rank` of `consumers`, fed by `producers`
    /// simulation ranks under the shared tuning knobs.
    pub fn new(rank: Rank, producers: usize, consumers: usize, tuning: &ZipperTuning) -> Self {
        ConsumerPolicy {
            rank,
            tracker: EosTracker::new(rank, producers, consumers, tuning),
            plan: PreservePlan::new(tuning.preserve),
            recovery: tuning.recovery,
            restarts_used: 0,
            trace: DecisionTrace::default(),
            completed: false,
        }
    }

    /// [`ConsumerPolicy::new`] for a lone consumer: a twin kept for a
    /// caller outside the workspace, to delete with the other frozen entry
    /// points (ROADMAP item 5). Never use it with more than one consumer.
    pub fn from_tuning(rank: Rank, producers: usize, tuning: &ZipperTuning) -> Self {
        Self::new(rank, producers, 1, tuning)
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

    /// Whether every expected end-of-stream mark has arrived.
    pub fn is_complete(&self) -> bool {
        self.completed
    }

    /// Whether the stream is complete before its first mark. Substrates
    /// ask once, before their first receive: a consumer no producer can
    /// route to (`P < Q` under SourceAffine) expects none.
    pub fn open(&mut self) -> bool {
        self.check_completion()
    }

    fn check_completion(&mut self) -> bool {
        let complete = self.tracker.is_complete();
        if complete && !std::mem::replace(&mut self.completed, true) {
            self.trace.record(PolicyEvent::StreamComplete);
        }
        complete
    }

    /// Record an end-of-stream mark from `producer` on one channel (both
    /// substrates announce per channel) and return whether the stream is
    /// now complete.
    pub fn note_eos(&mut self, producer: Rank, channel: Channel) -> bool {
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
    /// `(producers fully done, producers expected)` for diagnostics, both
    /// counted over the producers that can route here.
    pub fn on_timeout(&mut self) -> (usize, usize) {
        let done = self.tracker.producers_done();
        let expected = self.tracker.upstream();
        self.trace.record(PolicyEvent::EosTimeout {
            seen: done,
            expected,
        });
        (done, expected)
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
    use zipper_types::{PreserveMode, RoutingPolicy, StepId};

    fn id(idx: u32) -> BlockId {
        BlockId::new(Rank(0), StepId(0), idx)
    }

    /// Consumer 0 of one, fed by `producers` ranks.
    fn lone(producers: usize, concurrent: bool, preserve: PreserveMode) -> ConsumerPolicy {
        let tuning = ZipperTuning {
            concurrent_transfer: concurrent,
            preserve,
            ..ZipperTuning::default()
        };
        ConsumerPolicy::new(Rank(0), producers, 1, &tuning).recorded()
    }

    #[test]
    fn per_channel_marks_complete_the_stream() {
        let mut c = lone(2, true, PreserveMode::NoPreserve);
        assert!(!c.open());
        assert!(!c.note_eos(Rank(0), Channel::Net));
        assert!(!c.note_eos(Rank(0), Channel::Disk));
        assert!(!c.note_eos(Rank(1), Channel::Net));
        assert!(c.note_eos(Rank(1), Channel::Disk));
        assert_eq!(c.trace().canonical().eos_seen.len(), 4);
    }

    #[test]
    fn stream_complete_recorded_exactly_once() {
        let mut c = lone(1, false, PreserveMode::NoPreserve);
        assert!(c.note_eos(Rank(0), Channel::Net));
        assert!(c.note_eos(Rank(0), Channel::Net));
        assert!(c.open());
        assert_eq!(c.trace().canonical().completions, 1);
        assert!(c.is_complete());
    }

    /// Under SourceAffine consumer `q` waits for `p ≡ q (mod Q)` only; with
    /// `P < Q` a consumer past the last producer waits for nothing and
    /// completes when the stream opens, recording the completion once.
    #[test]
    fn source_affine_consumers_expect_their_own_producers() {
        let tuning = ZipperTuning::default();
        assert_eq!(tuning.routing, RoutingPolicy::SourceAffine);
        let expected =
            |q: u32, p: usize, c: usize| ConsumerPolicy::new(Rank(q), p, c, &tuning).eos_expected();
        assert_eq!([expected(0, 5, 2), expected(1, 5, 2)], [6, 4]);
        let mut idle = ConsumerPolicy::new(Rank(1), 1, 2, &tuning).recorded();
        assert_eq!(idle.eos_expected(), 0);
        assert!(idle.open());
        assert!(idle.open());
        assert_eq!(idle.trace().canonical().completions, 1);
        let round_robin = ZipperTuning {
            routing: RoutingPolicy::RoundRobin,
            ..tuning
        };
        let all = ConsumerPolicy::new(Rank(1), 1, 2, &round_robin);
        assert_eq!(all.eos_expected(), 2, "round robin deals everywhere");
    }

    #[test]
    fn store_verdict_follows_preserve_mode() {
        let mut keep = lone(1, true, PreserveMode::Preserve);
        assert!(keep.store_on_arrival(id(0)));
        let mut drop = lone(1, true, PreserveMode::NoPreserve);
        assert!(!drop.store_on_arrival(id(0)));
        assert_eq!(keep.trace().canonical().stores, vec![(id(0), true)],);
    }

    #[test]
    fn timeout_reports_whole_producers() {
        let mut c = lone(3, true, PreserveMode::NoPreserve);
        c.note_eos(Rank(0), Channel::Net);
        c.note_eos(Rank(0), Channel::Disk);
        c.note_eos(Rank(1), Channel::Net); // half done: does not count
        assert_eq!(c.on_timeout(), (1, 3));
        assert_eq!(c.trace().canonical().timeouts, 1);
    }

    /// The watchdog's denominator is the producers that can route here,
    /// not every producer: consumer 1 of 2 under SourceAffine waits for 2
    /// of 4.
    #[test]
    fn timeout_counts_only_routable_producers() {
        let tuning = ZipperTuning::default();
        let mut c = ConsumerPolicy::new(Rank(1), 4, 2, &tuning);
        for channel in [Channel::Net, Channel::Disk] {
            c.note_eos(Rank(1), channel);
        }
        c.note_eos(Rank(0), Channel::Net); // routes to consumer 0: ignored
        assert_eq!(c.on_timeout(), (1, 2));
    }

    #[test]
    fn abandonment_is_traced() {
        let mut c = lone(1, false, PreserveMode::NoPreserve);
        c.reader_abandoned();
        assert!(c.trace().canonical().abandoned);
    }
}
