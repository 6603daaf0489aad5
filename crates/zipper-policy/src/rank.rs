//! One producer rank, decided once: the per-rank state machine every
//! interpreter of a simulation rank's sender and writer drives (§4.2,
//! Fig. 8, Algorithm 1).
//!
//! A [`RankScript`] owns the rank's [`ProducerPolicy`] (routing, the steal
//! threshold, the recovery budgets, the decision trace), its
//! [`GateScript`], the one dead-destination set and the writer's state
//! (live, drained or died). The interpreters feed it what happened — a
//! block taken, a send or put result, a drained buffer — and get verdicts
//! back; they keep only their own waiting and I/O: locks and a condition
//! variable on threads (`zipper-core`), engine gates on the DES
//! (`zipper-transports`), nothing in preflight's symbolic walk. Each chaos
//! scope stays with its interpreter's retry layer, which ticks the
//! ordinals; the kernel hears only each result.
//!
//! The rules, stated here once:
//!
//! * A failed data send kills its destination ([`RankScript::send_failed`]);
//!   later blocks routed there are skipped, and a skip ticks neither the
//!   gate nor the chaos scope. The dead set covers data wires only: disk-ID
//!   announcements and both end-of-stream channels still go to a dead
//!   destination.
//! * A failed put requeues the block and retires the writer; within the
//!   revival budget the writer comes back after its cooldown, past it the
//!   writer dies, the script fails open and the sender covers the file
//!   channel's end-of-stream.
//! * Each channel's end-of-stream fan-out is decided once, whoever sends
//!   it.

use crate::eos::{Channel, EosTargets};
use crate::gate::{GateScript, WireGate, WriterGate};
use crate::producer::ProducerPolicy;
use crate::trace::RetireReason;
use std::time::Duration;
use zipper_types::{BlockId, GateWindow, Rank};

/// What the sender does with a block it took ([`RankScript::take_net`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetVerdict {
    /// The block's destination is dead: drop it.
    Skip,
    /// Ship the block to `dest` as data wire number `wire`, after meeting
    /// `gate`.
    Send {
        dest: Rank,
        gate: WireGate,
        wire: u64,
    },
}

/// What the writer does after one put attempt ([`RankScript::put_result`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PutVerdict {
    /// The block is on the PFS and its steal is credited: announce its id.
    Stored,
    /// The put failed and a revival was granted: requeue the block, wait
    /// the cooldown, steal on.
    Revive(Duration),
    /// The put failed past the revival budget: requeue the block and stop.
    Retire,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Writer {
    /// No writer is configured (message-only mode).
    Absent,
    Live,
    Drained,
    Died,
}

/// One producer rank's decisions, as state (see the module docs).
#[derive(Clone, Debug)]
pub struct RankScript {
    policy: ProducerPolicy,
    gate: GateScript,
    dead: Vec<bool>,
    writer: Writer,
    revivals: u32,
    /// Per channel (`Net`, `Disk`): the end-of-stream fan-out was handed out.
    announced: [bool; 2],
}

impl RankScript {
    /// Drive `policy`'s rank with its backpressure `windows` (empty for
    /// none). A writer exists when the policy's dual channel is on.
    pub fn new(policy: ProducerPolicy, windows: Vec<GateWindow>) -> Self {
        let writer = policy.concurrent_transfer();
        RankScript {
            gate: GateScript::new(windows, writer),
            dead: vec![false; policy.consumers()],
            writer: if writer { Writer::Live } else { Writer::Absent },
            revivals: 0,
            announced: [false; 2],
            policy,
        }
    }

    /// The rank's policy: routing, budgets and the decision trace.
    pub fn policy(&self) -> &ProducerPolicy {
        &self.policy
    }

    /// Route a block the sender took. A block bound for a dead destination
    /// is skipped before its wire is counted; any other block is one more
    /// data wire, held as the script says.
    pub fn take_net(&mut self, block: BlockId) -> NetVerdict {
        let dest = self.policy.route_net(block);
        if self.dead[dest.idx()] {
            return NetVerdict::Skip;
        }
        let gate = self.gate.pass_wire();
        NetVerdict::Send {
            dest,
            gate,
            wire: self.gate.wires(),
        }
    }

    /// A data send to `dest` failed: the destination is dead to this rank.
    pub fn send_failed(&mut self, dest: Rank) {
        self.dead[dest.idx()] = true;
    }

    /// Whether the writer steals at this buffer occupancy: an armed credit
    /// window takes every buffered block, otherwise Algorithm 1 decides.
    pub fn steal_wanted(&self, occupancy: usize) -> bool {
        (occupancy > 0 && self.gate.steal_phase()) || self.policy.should_steal(occupancy)
    }

    /// The lowest occupancy at which [`RankScript::steal_wanted`] can hold
    /// outside a window (Algorithm 1's `hwm + 1`).
    pub fn wake_occupancy(&self) -> usize {
        self.policy.steal_wake_occupancy()
    }

    /// What the writer does about the script when it would otherwise park
    /// or retire.
    pub fn writer_gate(&self) -> WriterGate {
        self.gate.writer()
    }

    /// Route a block the writer stole.
    pub fn take_disk(&mut self, block: BlockId) -> Rank {
        self.policy.route_disk(block)
    }

    /// The writer's put of its stolen block succeeded (`stored`) or
    /// failed. A failure retires the writer by fault; within the revival
    /// budget it is revived, past it the writer dies and the script fails
    /// open.
    pub fn put_result(&mut self, stored: bool) -> PutVerdict {
        if stored {
            self.gate.note_steal();
            return PutVerdict::Stored;
        }
        self.policy.writer_retired(RetireReason::Fault);
        let recovery = self.policy.recovery();
        if self.revivals < recovery.max_writer_revivals {
            self.revivals += 1;
            self.policy.writer_revived();
            return PutVerdict::Revive(recovery.writer_cooldown);
        }
        self.writer_died();
        PutVerdict::Retire
    }

    /// A live writer found the buffer closed and drained: it retires and
    /// the script fails open.
    pub fn writer_drained(&mut self) {
        if self.writer == Writer::Live {
            self.policy.writer_retired(RetireReason::Drained);
            self.writer = Writer::Drained;
            self.gate.cancel();
        }
    }

    /// The writer's thread is gone. If no verdict ended it (it panicked,
    /// or never ran) it died by fault; returns whether it did.
    pub fn writer_exited(&mut self) -> bool {
        let unannounced = self.writer == Writer::Live;
        if unannounced {
            self.policy.writer_retired(RetireReason::Fault);
            self.writer_died();
        }
        unannounced
    }

    fn writer_died(&mut self) {
        self.writer = Writer::Died;
        self.gate.cancel();
    }

    /// The sender drained the buffer (or will never pass a wire): windows
    /// ahead can never arm, so the script fails open. Returns the message
    /// channel's end-of-stream targets.
    pub fn sender_drained(&mut self) -> EosTargets {
        self.gate.cancel();
        self.announce(Channel::Net)
    }

    /// The file channel's end-of-stream targets, handed out once: to a
    /// drained writer, or to the sender covering a writer that died.
    pub fn disk_eos(&mut self) -> EosTargets {
        self.announce(Channel::Disk)
    }

    fn announce(&mut self, channel: Channel) -> EosTargets {
        let done = &mut self.announced[usize::from(channel == Channel::Disk)];
        if std::mem::replace(done, true) {
            return EosTargets::new(0..0);
        }
        self.policy.announce_eos(channel)
    }

    /// The rank's gate script (preflight reads its windows and ordinal).
    pub(crate) fn gate(&self) -> &GateScript {
        &self.gate
    }

    /// Whether the writer died: past its revival budget, or without a
    /// verdict.
    pub(crate) fn writer_dead(&self) -> bool {
        self.writer == Writer::Died
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::PolicyEvent;
    use proptest::prelude::*;
    use zipper_types::{GateRule, RecoveryPolicy, RoutingPolicy, StepId};

    fn id(idx: u32) -> BlockId {
        BlockId::new(Rank(0), StepId(0), idx)
    }

    fn script(consumers: usize, revivals: u32, windows: Vec<GateWindow>) -> RankScript {
        let recovery = RecoveryPolicy {
            writer_cooldown: Duration::from_millis(3),
            max_writer_revivals: revivals,
            max_consumer_restarts: 0,
        };
        let policy = ProducerPolicy::new(Rank(0), consumers, RoutingPolicy::RoundRobin, 0, true)
            .with_recovery(recovery)
            .recorded();
        RankScript::new(policy, windows)
    }

    #[test]
    fn writer_revival_consumes_the_budget() {
        let mut s = script(2, 1, Vec::new());
        s.take_disk(id(0));
        assert_eq!(
            s.put_result(false),
            PutVerdict::Revive(Duration::from_millis(3)),
            "first revival within budget"
        );
        s.take_disk(id(0));
        assert_eq!(s.put_result(false), PutVerdict::Retire, "budget spent");
        assert!(s.writer_dead());
        assert!(!s.writer_exited(), "a retired writer's exit adds nothing");
        let c = s.policy().trace().canonical();
        assert_eq!(c.retires, vec![RetireReason::Fault, RetireReason::Fault]);
        assert_eq!(c.revivals, 1);
    }

    #[test]
    fn default_budget_never_revives() {
        let mut s = script(2, 0, Vec::new());
        assert_eq!(s.put_result(false), PutVerdict::Retire);
        assert_eq!(s.policy().trace().canonical().revivals, 0);
    }

    /// A skipped block is routed (the decision is recorded) but counts no
    /// wire, so the scripted ordinals stay on the blocks that ship.
    #[test]
    fn dead_destinations_are_skipped_without_a_wire() {
        let hold = GateWindow {
            wire: 2,
            rule: GateRule::Hold(Duration::from_millis(1)),
        };
        let mut s = script(2, 0, vec![hold]);
        let first = s.take_net(id(0));
        assert_eq!(
            first,
            NetVerdict::Send {
                dest: Rank(0),
                gate: WireGate::Pass,
                wire: 1
            }
        );
        s.send_failed(Rank(0));
        assert!(matches!(
            s.take_net(id(1)),
            NetVerdict::Send { dest: Rank(1), .. }
        ));
        assert_eq!(s.take_net(id(2)), NetVerdict::Skip);
        assert_eq!(
            s.take_net(id(3)),
            NetVerdict::Send {
                dest: Rank(1),
                gate: WireGate::Pass,
                wire: 3
            }
        );
        assert_eq!(s.policy().trace().canonical().routes.len(), 4);
    }

    #[test]
    fn a_dead_writer_leaves_the_file_channel_to_the_sender() {
        let credit = GateWindow {
            wire: 1,
            rule: GateRule::OpenAfterSteals(2),
        };
        let mut s = script(3, 0, vec![credit]);
        assert!(matches!(
            s.take_net(id(0)),
            NetVerdict::Send {
                gate: WireGate::Armed { target: 2 },
                ..
            }
        ));
        assert!(s.steal_wanted(1), "an armed window steals below the hwm");
        s.take_disk(id(1));
        assert_eq!(s.put_result(false), PutVerdict::Retire);
        assert_eq!(s.writer_gate(), WriterGate::Free, "the window failed open");
        assert_eq!(s.sender_drained().len(), 3);
        assert_eq!(
            s.sender_drained().len(),
            0,
            "the net fan-out is decided once"
        );
        assert_eq!(s.disk_eos().len(), 3, "the sender covers the file channel");
        assert_eq!(s.disk_eos().len(), 0);
    }

    /// Under SourceAffine a rank's one consumer is also its one
    /// end-of-stream target, and a failed send does not take it away: the
    /// dead set covers data wires only, so a destination that died still
    /// hears both channels' marks.
    #[test]
    fn a_dead_source_affine_destination_still_gets_its_marks() {
        let policy = ProducerPolicy::new(Rank(3), 2, RoutingPolicy::SourceAffine, 0, true);
        let mut s = RankScript::new(policy.recorded(), Vec::new());
        let (dest, block) = (Rank(1), |k| BlockId::new(Rank(3), StepId(0), k));
        assert!(matches!(s.take_net(block(0)), NetVerdict::Send { dest: d, .. } if d == dest));
        s.send_failed(dest);
        assert_eq!(s.take_net(block(1)), NetVerdict::Skip);
        assert_eq!(s.sender_drained().collect::<Vec<_>>(), vec![dest]);
        assert_eq!(s.disk_eos().collect::<Vec<_>>(), vec![dest]);
    }

    #[test]
    fn a_message_only_rank_has_no_file_channel() {
        let policy = ProducerPolicy::new(Rank(0), 2, RoutingPolicy::RoundRobin, 0, false);
        let mut s = RankScript::new(policy.recorded(), Vec::new());
        assert!(!s.writer_exited());
        s.writer_drained();
        assert_eq!(s.sender_drained().len(), 2);
        assert_eq!(s.disk_eos().len(), 0);
        assert!(s.policy().trace().canonical().retires.is_empty());
    }

    proptest! {
        /// Over random credit scripts and random interleavings of sender
        /// takes and results (moves 0-3), writer steals with put results
        /// (4-6), drains and end-of-stream requests (7-9): only a
        /// destination that had a failed send is skipped, a skip ticks no
        /// wire, `Retire` fails the script open, revivals stay within the
        /// budget, and each channel's fan-out is handed out at most once.
        #[test]
        fn kernel_rules_hold_over_random_event_sequences(
            consumers in 1usize..4,
            budget in 0u32..3,
            targets in proptest::collection::vec((1u64..3, 0u64..3), 0..4),
            moves in proptest::collection::vec((0u8..10, proptest::bool::ANY), 0..60),
        ) {
            let (mut wire, mut target) = (0, 0);
            let windows = targets
                .iter()
                .map(|&(dw, dt)| {
                    wire += dw;
                    target += dt;
                    GateWindow { wire, rule: GateRule::OpenAfterSteals(target) }
                })
                .collect();
            let mut s = script(consumers, budget, windows);
            let mut failed = vec![false; consumers];
            let mut last = None;
            let mut handed = [0usize; 2];
            for (k, (m, ok)) in moves.into_iter().enumerate() {
                let block = id(k as u32);
                match m {
                    0..=2 => {
                        let wires = s.gate().wires();
                        match s.take_net(block) {
                            NetVerdict::Skip => {
                                let (_, dest, _) = *s.policy().trace().canonical().routes.last().unwrap();
                                prop_assert!(failed[dest.idx()], "skipped a live destination");
                                prop_assert_eq!(s.gate().wires(), wires, "a skip ticked the gate");
                                last = None;
                            }
                            NetVerdict::Send { dest, wire, .. } => {
                                prop_assert!(!failed[dest.idx()]);
                                prop_assert_eq!(wire, wires + 1);
                                last = Some(dest);
                            }
                        }
                    }
                    3 => if let (Some(dest), false) = (last, ok) {
                        s.send_failed(dest);
                        failed[dest.idx()] = true;
                    },
                    4..=6 if s.writer == Writer::Live => {
                        s.take_disk(block);
                        if s.put_result(ok) == PutVerdict::Retire {
                            prop_assert_eq!(s.writer_gate(), WriterGate::Free);
                            prop_assert!(!s.gate().steal_phase());
                        }
                    }
                    4..=6 => {}
                    7 => s.writer_drained(),
                    8 => handed[0] += s.sender_drained().len(),
                    _ => handed[1] += s.disk_eos().len(),
                }
                prop_assert!(s.revivals <= budget);
                let c = s.policy().trace().canonical();
                prop_assert_eq!(c.revivals as u32, s.revivals);
                if s.writer_dead() {
                    prop_assert_eq!(s.writer_gate(), WriterGate::Free);
                }
            }
            for (channel, n) in [(Channel::Net, handed[0]), (Channel::Disk, handed[1])] {
                let announced = s
                    .policy()
                    .trace()
                    .events()
                    .iter()
                    .filter(|e| matches!(e, PolicyEvent::EosAnnounced { channel: c, .. } if *c == channel))
                    .count();
                prop_assert!(n == 0 || n == consumers, "{channel:?} handed out {n}");
                prop_assert_eq!(announced, n, "{:?} announced once, as handed out", channel);
            }
        }
    }
}
