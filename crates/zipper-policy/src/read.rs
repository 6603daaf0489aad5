//! One consumer rank's analysis reads, decided once: the restart rule
//! every interpreter of an analysis application drives (§4.3, Preserve
//! mode's replay).
//!
//! A [`ReadScript`] owns the rank's `Analysis` [`ChaosScope`] and the
//! backlog of the current pass. The interpreters ask it before each read
//! and tell it each item a read took; on a crash they ask it whether the
//! rank restarts and what it replays. They keep only their own I/O: the
//! threaded supervisor (`zipper-core`) catches the panic and fetches the
//! backlog from the Preserve store, the DES requeues it in virtual time,
//! preflight counts it.
//!
//! The rule, stated here once: **a struck read consumes nothing, and a
//! replay is exactly the reads since the last restart**, requeued at the
//! front in delivery order. The scope ticks once per read call, replays
//! and the final read that finds the stream closed included, so over a
//! run that heals every crash it counts items + replays + crashes + 1.

use crate::consumer::ConsumerPolicy;
use zipper_types::{ChaosEntity, ChaosFault, ChaosPlan, ChaosScope, Rank, RecoveryPolicy};

/// What one read call does ([`ReadScript::read`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadVerdict {
    /// Take the next item (or find the stream closed).
    Take,
    /// The application crashes before taking anything.
    Crash,
}

/// One consumer rank's reads, as state (see the module docs).
#[derive(Debug)]
pub struct ReadScript<T> {
    chaos: ChaosScope,
    backlog: Vec<T>,
}

impl<T> ReadScript<T> {
    /// Drive the reads `chaos` (the rank's `Analysis` scope) strikes.
    pub(crate) fn new(chaos: ChaosScope) -> Self {
        ReadScript {
            chaos,
            backlog: Vec::new(),
        }
    }

    /// Consumer `rank`'s script under `plan`, or `None` when the rank
    /// runs unsupervised: no `Analysis` fault is scripted and `recovery`
    /// grants no restart, so nothing can strike or heal a read.
    pub fn supervised(
        plan: Option<&ChaosPlan>,
        rank: Rank,
        recovery: &RecoveryPolicy,
    ) -> Option<Self> {
        let chaos = plan
            .unwrap_or(&ChaosPlan::new())
            .scope(ChaosEntity::Analysis(rank));
        (recovery.max_consumer_restarts > 0 || !chaos.is_empty()).then(|| Self::new(chaos))
    }

    /// Count one read call, before it takes anything.
    pub fn read(&mut self) -> ReadVerdict {
        match self.chaos.next() {
            Some(ChaosFault::CrashApp) => ReadVerdict::Crash,
            _ => ReadVerdict::Take,
        }
    }

    /// The read took `item`: it joins the backlog a crash would replay.
    pub fn delivered(&mut self, item: T) {
        self.backlog.push(item);
    }

    /// The application crashed. Records the abandonment on `policy`; if
    /// its restart budget allows, records the restart and returns the
    /// backlog to requeue at the front, in delivery order. `None` means
    /// the rank halts.
    pub fn crashed(&mut self, policy: &mut ConsumerPolicy) -> Option<Vec<T>> {
        policy.reader_abandoned();
        if !policy.may_restart() {
            return None;
        }
        policy.consumer_restarted(self.backlog.len());
        Some(std::mem::take(&mut self.backlog))
    }

    /// Read calls counted so far.
    pub fn ops(&self) -> u64 {
        self.chaos.ops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;
    use zipper_types::{PreserveMode, ZipperTuning};

    fn tuning(restarts: u32) -> ZipperTuning {
        ZipperTuning {
            concurrent_transfer: false,
            preserve: PreserveMode::Preserve,
            recovery: RecoveryPolicy {
                max_consumer_restarts: restarts,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn policy(restarts: u32) -> ConsumerPolicy {
        ConsumerPolicy::new(Rank(0), 1, 1, &tuning(restarts)).recorded()
    }

    fn crashes_at(ordinals: &[u64]) -> ChaosPlan {
        ordinals.iter().fold(ChaosPlan::new(), |plan, &o| {
            plan.with(ChaosEntity::Analysis(Rank(0)), o, ChaosFault::CrashApp)
        })
    }

    /// How one interpreter drives the script: `items` queued, each crash's
    /// backlog requeued at the front. Returns the replays handed out, the
    /// items of the final pass, and whether the rank halted.
    fn drive(
        script: &mut ReadScript<u32>,
        policy: &mut ConsumerPolicy,
        items: u32,
    ) -> (Vec<Vec<u32>>, Vec<u32>, bool) {
        let mut queue: VecDeque<u32> = (0..items).collect();
        let (mut replays, mut pass) = (Vec::new(), Vec::new());
        loop {
            match script.read() {
                ReadVerdict::Take => match queue.pop_front() {
                    Some(item) => {
                        script.delivered(item);
                        pass.push(item);
                    }
                    None => return (replays, pass, false),
                },
                ReadVerdict::Crash => match script.crashed(policy) {
                    Some(backlog) => {
                        assert_eq!(
                            backlog, pass,
                            "a replay is the reads since the last restart"
                        );
                        for &item in backlog.iter().rev() {
                            queue.push_front(item);
                        }
                        replays.push(backlog);
                        pass.clear();
                    }
                    None => return (replays, pass, true),
                },
            }
        }
    }

    #[test]
    fn a_struck_read_consumes_nothing() {
        // 8 items with crashes at reads 3 and 12: the second strikes the trailing read that would find the stream
        // closed, and replays the 8 reads since the first restart.
        let mut script =
            ReadScript::new(crashes_at(&[3, 12]).scope(ChaosEntity::Analysis(Rank(0))));
        let mut p = policy(2);
        let (replays, pass, halted) = drive(&mut script, &mut p, 8);
        assert!(!halted);
        assert_eq!(replays.iter().map(Vec::len).collect::<Vec<_>>(), [2, 8]);
        assert_eq!(pass, (0..8).collect::<Vec<_>>());
        assert_eq!(p.trace().canonical().restarts, [2, 8]);
        assert_eq!(script.ops(), 8 + 10 + 2 + 1);
    }

    #[test]
    fn past_the_budget_the_rank_halts() {
        // A budget of one heals the crash at read 2 (replaying 1 read)
        // and not the one at read 4.
        let mut script = ReadScript::new(crashes_at(&[2, 4]).scope(ChaosEntity::Analysis(Rank(0))));
        let mut p = policy(1);
        let (replays, _, halted) = drive(&mut script, &mut p, 4);
        assert!(halted);
        assert_eq!(replays, [vec![0]]);
        let canon = p.trace().canonical();
        assert!(canon.abandoned);
        assert_eq!(canon.restarts, [1]);
        // The default policy grants no restart at all.
        let mut script: ReadScript<u32> =
            ReadScript::new(crashes_at(&[1]).scope(ChaosEntity::Analysis(Rank(0))));
        let mut default = ConsumerPolicy::new(Rank(0), 1, 1, &tuning(0));
        assert_eq!(script.read(), ReadVerdict::Crash);
        assert!(script.crashed(&mut default).is_none());
    }

    #[test]
    fn unsupervised_without_a_crash_or_a_budget() {
        let none = RecoveryPolicy::default();
        let budget = RecoveryPolicy {
            max_consumer_restarts: 1,
            ..Default::default()
        };
        let plan = crashes_at(&[1]);
        let other =
            ChaosPlan::new().with(ChaosEntity::Output(Rank(0)), 1, ChaosFault::PfsWriteFail);
        assert!(ReadScript::<u32>::supervised(None, Rank(0), &none).is_none());
        assert!(ReadScript::<u32>::supervised(Some(&other), Rank(0), &none).is_none());
        assert!(ReadScript::<u32>::supervised(Some(&plan), Rank(1), &none).is_none());
        assert!(ReadScript::<u32>::supervised(Some(&plan), Rank(0), &none).is_some());
        assert!(ReadScript::<u32>::supervised(None, Rank(0), &budget).is_some());
    }

    proptest! {
        /// Over random item counts, crash ordinals and budgets: restarts
        /// never exceed the budget, each replay is the reads since the
        /// previous restart (asserted in `drive`), the final pass of a
        /// healed run reads every item once in order, and the scope counts
        /// items + replays + crashes + 1 reads.
        #[test]
        fn the_restart_rule_holds(
            items in 0u32..12,
            ordinals in proptest::collection::vec(1u64..40, 0..5),
            budget in 0u32..5,
        ) {
            let mut script = ReadScript::new(crashes_at(&ordinals).scope(ChaosEntity::Analysis(Rank(0))));
            let mut p = policy(budget);
            let (replays, pass, halted) = drive(&mut script, &mut p, items);
            let canon = p.trace().canonical();
            prop_assert!(canon.restarts.len() <= budget as usize);
            prop_assert_eq!(&canon.restarts, &replays.iter().map(Vec::len).collect::<Vec<_>>());
            if !halted {
                prop_assert_eq!(pass, (0..items).collect::<Vec<_>>());
                let replayed: usize = replays.iter().map(Vec::len).sum();
                let ops = items as u64 + replayed as u64 + replays.len() as u64 + 1;
                prop_assert_eq!(script.ops(), ops);
            }
        }
    }
}
