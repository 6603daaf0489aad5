//! The producer-side façade: every decision made by one simulation rank's
//! sender and writer threads (§4.2, Algorithm 1).
//!
//! One `ProducerPolicy` is shared by the rank's sender and writer inside
//! its [`RankScript`](crate::RankScript), so both channels consult the
//! *same* router rotation and the same steal threshold. Substrates must
//! consult it while holding the producer-buffer lock (or, in the DES,
//! atomically with the buffer take), so that decision order equals take
//! order.

use crate::eos::{Channel, EosTargets};
use crate::route::Router;
use crate::steal::StealPolicy;
use crate::trace::{DecisionTrace, PolicyEvent, RetireReason};
use zipper_types::{BlockId, Rank, RecoveryPolicy, RoutingPolicy, ZipperTuning};

/// Decision kernel for one producer rank.
#[derive(Clone, Debug)]
pub struct ProducerPolicy {
    rank: Rank,
    router: Router,
    steal: StealPolicy,
    recovery: RecoveryPolicy,
    trace: DecisionTrace,
}

impl ProducerPolicy {
    /// A policy for producer `rank` feeding `consumers` analysis ranks.
    pub fn new(
        rank: Rank,
        consumers: usize,
        routing: RoutingPolicy,
        high_water_mark: usize,
        concurrent_transfer: bool,
    ) -> Self {
        ProducerPolicy {
            rank,
            router: Router::new(routing, consumers),
            steal: StealPolicy::new(high_water_mark, concurrent_transfer),
            recovery: RecoveryPolicy::default(),
            trace: DecisionTrace::default(),
        }
    }

    /// Build from the shared tuning knobs.
    pub fn from_tuning(rank: Rank, consumers: usize, tuning: &ZipperTuning) -> Self {
        Self::new(
            rank,
            consumers,
            tuning.routing,
            tuning.high_water_mark,
            tuning.concurrent_transfer,
        )
        .with_recovery(tuning.recovery)
    }

    /// Set the self-healing budgets (builder style).
    pub(crate) fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// The configured self-healing budgets.
    pub(crate) fn recovery(&self) -> RecoveryPolicy {
        self.recovery
    }

    /// Enable decision recording (builder style).
    pub fn recorded(mut self) -> Self {
        self.trace.enable();
        self
    }

    /// The producing rank this policy belongs to.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of consumer ranks blocks are dealt over.
    pub fn consumers(&self) -> usize {
        self.router.consumers()
    }

    /// Whether the dual-channel (writer thread) optimization is on.
    pub(crate) fn concurrent_transfer(&self) -> bool {
        self.steal.is_enabled()
    }

    /// Route a block the *sender* took from the buffer (message channel).
    pub fn route_net(&mut self, block: BlockId) -> Rank {
        let dest = self.router.route(block);
        self.trace.record(PolicyEvent::Route {
            block,
            dest,
            channel: Channel::Net,
        });
        dest
    }

    /// Route a block the *writer* stole from the buffer (file channel).
    /// Records the steal itself and the routing verdict for the block's id,
    /// which the sender will piggyback on a later message.
    pub(crate) fn route_disk(&mut self, block: BlockId) -> Rank {
        self.trace.record(PolicyEvent::Steal { block });
        let dest = self.router.route(block);
        self.trace.record(PolicyEvent::Route {
            block,
            dest,
            channel: Channel::Disk,
        });
        dest
    }

    /// Algorithm 1's steal condition at the given buffer occupancy.
    pub fn should_steal(&self, occupancy: usize) -> bool {
        self.steal.should_steal(occupancy)
    }

    /// Minimum occupancy at which the writer should wake (see
    /// [`StealPolicy::wake_occupancy`]).
    pub(crate) fn steal_wake_occupancy(&self) -> usize {
        self.steal.wake_occupancy()
    }

    /// Record that this rank's writer retired.
    pub(crate) fn writer_retired(&mut self, reason: RetireReason) {
        self.trace.record(PolicyEvent::WriterRetired { reason });
    }

    /// Record that a fault-retired writer was revived.
    pub(crate) fn writer_revived(&mut self) {
        self.trace.record(PolicyEvent::WriterRevived);
    }

    /// End-of-stream fan-out for one channel: the consumers this producer
    /// must announce to, which are exactly those its router can deal a
    /// block to ([`Router::reach`]): `{rank mod Q}` under SourceAffine, all
    /// Q under RoundRobin. Announcing on an inactive channel is a no-op
    /// that returns no targets. Every announcement is recorded here, at
    /// the decision; the returned cursor only tells the substrate whom to
    /// send to.
    pub(crate) fn announce_eos(&mut self, channel: Channel) -> EosTargets {
        if !Channel::active(self.concurrent_transfer()).contains(&channel) {
            return EosTargets::new(0..0);
        }
        let targets = EosTargets::new(self.router.reach(self.rank));
        for target in targets.clone() {
            self.trace
                .record(PolicyEvent::EosAnnounced { target, channel });
        }
        targets
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

    /// The historical two-counter bug: sender and writer interleaving must
    /// advance ONE rotation, so consecutive takes land on consecutive
    /// consumers no matter which channel takes them.
    #[test]
    fn net_and_disk_share_one_round_robin_rotation() {
        let mut p = ProducerPolicy::new(Rank(0), 3, RoutingPolicy::RoundRobin, 0, true);
        assert_eq!(p.route_net(id(0)), Rank(0));
        assert_eq!(p.route_disk(id(1)), Rank(1));
        assert_eq!(p.route_net(id(2)), Rank(2));
        assert_eq!(p.route_disk(id(3)), Rank(0));
    }

    /// A source-affine rank only ever deals to `rank mod Q`, so that is
    /// the one consumer its end of stream concerns, on each active channel.
    #[test]
    fn source_affine_eos_marks_the_one_routed_consumer() {
        let mut p =
            ProducerPolicy::new(Rank(3), 2, RoutingPolicy::SourceAffine, 4, true).recorded();
        for channel in [Channel::Net, Channel::Disk] {
            let targets: Vec<Rank> = p.announce_eos(channel).collect();
            assert_eq!(targets, vec![Rank(1)]);
        }
        assert_eq!(p.trace().events().len(), 2);
    }

    /// Round robin deals everywhere, so every consumer hears the mark.
    #[test]
    fn round_robin_eos_fans_out_to_every_consumer() {
        let mut p = ProducerPolicy::new(Rank(1), 2, RoutingPolicy::RoundRobin, 4, true).recorded();
        for channel in [Channel::Net, Channel::Disk] {
            let targets: Vec<Rank> = p.announce_eos(channel).collect();
            assert_eq!(targets, vec![Rank(0), Rank(1)]);
        }
        assert_eq!(p.trace().events().len(), 4);
    }

    #[test]
    fn disk_eos_is_inert_without_concurrent_transfer() {
        let mut p = ProducerPolicy::new(Rank(0), 4, RoutingPolicy::RoundRobin, 4, false).recorded();
        assert_eq!(p.announce_eos(Channel::Disk).len(), 0);
        assert!(p.trace().events().is_empty());
        assert_eq!(p.announce_eos(Channel::Net).len(), 4);
        assert_eq!(p.trace().events().len(), 4, "Net marks only");
    }

    #[test]
    fn recorded_policy_traces_steals_and_routes() {
        let mut p = ProducerPolicy::new(Rank(0), 2, RoutingPolicy::RoundRobin, 1, true).recorded();
        p.route_net(id(0));
        p.route_disk(id(1));
        p.writer_retired(RetireReason::Drained);
        let c = p.trace().canonical();
        assert_eq!(c.routes.len(), 2);
        assert_eq!(c.steals, vec![id(1)]);
        assert_eq!(c.retires, vec![RetireReason::Drained]);
    }

    #[test]
    fn from_tuning_mirrors_the_knobs() {
        let t = ZipperTuning::default();
        let p = ProducerPolicy::from_tuning(Rank(0), 2, &t);
        assert_eq!(p.concurrent_transfer(), t.concurrent_transfer);
        assert_eq!(p.steal_wake_occupancy(), t.high_water_mark + 1);
    }
}
