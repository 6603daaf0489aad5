//! # zipper-policy
//!
//! The Zipper *decision kernel*: every policy choice of the paper's runtime
//! (§4, Algorithm 1, Figs. 8–9) as pure, substrate-free state machines.
//!
//! The same algorithms run twice in this workspace — once as OS threads in
//! `zipper-core`, once as virtual processes in the discrete-event simulator
//! (`zipper-transports::zipper`). Everything that *decides* lives here, so
//! the two substrates cannot drift:
//!
//! * [`StealPolicy`] — Algorithm 1's high-water-mark condition: the writer
//!   thread steals a block only while buffer occupancy strictly exceeds the
//!   threshold, and retires when the buffer closes.
//! * [`Router`] — block→consumer assignment ([`RoutingPolicy::SourceAffine`]
//!   or [`RoutingPolicy::RoundRobin`]) as one explicit shared-state object,
//!   so the sender and writer threads consult a *single* rotation instead of
//!   each owning a counter.
//! * [`PreservePlan`] — the consumer-side storage decision of Preserve mode:
//!   network-delivered blocks must be persisted by the output thread, while
//!   file-path blocks are already on the PFS.
//! * [`EosProtocol`](EosTracker) — the fully-asynchronous end-of-stream
//!   protocol: producer-side fan-out to the consumers a rank's router can
//!   reach ([`RankScript::sender_drained`]) and consumer-side completion
//!   tracking over the producers that can reach it ([`EosTracker`]),
//!   including the watchdog-timeout and reader-abandonment transitions.
//! * [`WireGate`] / [`WriterGate`] — one rank's scripted backpressure
//!   windows: when a data wire is held, when a steal-credit window arms
//!   and opens, and when the writer must wait for the next one.
//!
//! The substrates drive the kernel through three façades: [`RankScript`]
//! (sender + writer threads of one simulation rank, around its
//! [`ProducerPolicy`]), [`ConsumerPolicy`] (receiver/reader/output
//! threads of one analysis rank) and [`ReadScript`] (that rank's
//! application reads and its restart rule). The policies can record a
//! [`DecisionTrace`] of every choice made; the traces canonicalize
//! ([`CanonicalTrace`]) into a schedule-independent form that the
//! differential conformance harness compares across substrates.
//!
//! The crate depends only on `zipper-types` — no clocks, no threads, no
//! channels — so the DES can wrap a rank's script in `Rc<RefCell<..>>` and
//! the threaded runtime in `Arc<Mutex<..>>` without feature gymnastics.

pub mod conformance;
pub mod consumer;
pub mod eos;
mod gate;
pub mod preflight;
pub mod preserve;
pub mod producer;
mod rank;
mod read;
pub mod route;
pub mod steal;
pub mod trace;

pub use consumer::ConsumerPolicy;
pub use eos::{Channel, EosTargets, EosTracker};
pub use gate::{WireGate, WriterGate};
pub use preflight::{
    CausalSkeleton, Diagnostic, Preflight, PreflightInput, PreflightReport, Severity, ZvCode,
};
pub use preserve::PreservePlan;
pub use producer::ProducerPolicy;
pub use rank::{NetVerdict, PutVerdict, RankScript};
pub use read::{ReadScript, ReadVerdict};
pub use route::Router;
pub use steal::StealPolicy;
pub use trace::{CanonicalTrace, DecisionTrace, PolicyEvent, RetireReason};

// Re-exported so substrates build policies from the shared config type
// without an extra import.
pub use zipper_types::RoutingPolicy;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use zipper_types::{BlockId, Rank, StepId};

    fn id(src: u32, step: u64, idx: u32) -> BlockId {
        BlockId::new(Rank(src), StepId(step), idx)
    }

    proptest! {
        /// RoundRobin deals block k to consumer k mod Q: every consumer is
        /// covered and the spread over any window of Q·n deals is exact.
        #[test]
        fn round_robin_covers_all_consumers(consumers in 1usize..16, rounds in 1u64..20) {
            let mut r = Router::new(RoutingPolicy::RoundRobin, consumers);
            let mut counts = vec![0u64; consumers];
            for k in 0..rounds * consumers as u64 {
                let dest = r.route(id(0, 0, k as u32));
                prop_assert_eq!(dest.idx() as u64, k % consumers as u64);
                counts[dest.idx()] += 1;
            }
            prop_assert!(counts.iter().all(|&c| c == rounds), "uneven deal: {:?}", counts);
        }

        /// SourceAffine is a pure function of the producing rank: the same
        /// source always routes to the same consumer, independent of order.
        #[test]
        fn source_affine_is_stable_per_source(
            consumers in 1usize..16,
            srcs in proptest::collection::vec(0u32..64, 1..50),
        ) {
            let mut r = Router::new(RoutingPolicy::SourceAffine, consumers);
            for (i, &s) in srcs.iter().enumerate() {
                let d1 = r.route(id(s, 0, i as u32));
                let d2 = r.route(id(s, 1, i as u32));
                prop_assert_eq!(d1, d2);
                prop_assert_eq!(d1.idx(), s as usize % consumers);
            }
        }

        /// Two routers with the same policy fed the same block sequence
        /// agree on every destination (the shared-counter guarantee the
        /// conformance harness relies on).
        #[test]
        fn router_is_deterministic(
            consumers in 1usize..8,
            blocks in proptest::collection::vec((0u32..8, 0u64..8, 0u32..32), 0..64),
        ) {
            for policy in [RoutingPolicy::SourceAffine, RoutingPolicy::RoundRobin] {
                let mut a = Router::new(policy, consumers);
                let mut b = Router::new(policy, consumers);
                for &(s, step, i) in &blocks {
                    prop_assert_eq!(a.route(id(s, step, i)), b.route(id(s, step, i)));
                }
            }
        }

        /// Algorithm 1's strict threshold: the steal condition never fires
        /// at or below the high-water mark, always above it.
        #[test]
        fn steal_never_fires_at_or_below_hwm(hwm in 0usize..128, occupancy in 0usize..256) {
            let p = StealPolicy::new(hwm, true);
            prop_assert_eq!(p.should_steal(occupancy), occupancy > hwm);
            if occupancy <= hwm {
                prop_assert!(!p.should_steal(occupancy));
            }
            prop_assert_eq!(p.wake_occupancy(), hwm + 1);
        }

        /// With the dual channel off the steal condition is inert at any
        /// occupancy.
        #[test]
        fn steal_disabled_without_concurrent_transfer(hwm in 0usize..64, occ in 0usize..256) {
            prop_assert!(!StealPolicy::new(hwm, false).should_steal(occ));
        }

        /// The EOS protocol completes for every producer/channel
        /// combination once each producer announced on every channel, and
        /// not a message earlier. Duplicate marks never overcount.
        #[test]
        fn eos_reaches_completion_for_every_count(
            producers in 1usize..12,
            concurrent in proptest::bool::ANY,
        ) {
            let tuning = zipper_types::ZipperTuning {
                routing: RoutingPolicy::RoundRobin,
                concurrent_transfer: concurrent,
                ..Default::default()
            };
            let mut t = EosTracker::new(Rank(0), producers, 1, &tuning);
            let channels: &[Channel] = if concurrent {
                &[Channel::Net, Channel::Disk]
            } else {
                &[Channel::Net]
            };
            prop_assert_eq!(t.expected(), producers * channels.len());
            for p in 0..producers {
                for &c in channels {
                    prop_assert!(!t.is_complete());
                    prop_assert!(t.note(Rank(p as u32), c), "first mark is new");
                    prop_assert!(!t.note(Rank(p as u32), c), "duplicate ignored");
                }
            }
            prop_assert!(t.is_complete());
            prop_assert_eq!(t.producers_done(), producers);
        }

        /// Both ends of the protocol follow the routing: for every
        /// producer/consumer count and routing, each consumer completes
        /// exactly when every mark the producers' kernels hand out toward
        /// it has arrived — under SourceAffine with `P < Q` too, where the
        /// consumers past the last producer hear nothing and are complete
        /// from the start.
        #[test]
        fn announced_marks_complete_every_consumer(
            producers in 1usize..10,
            consumers in 1usize..6,
            round_robin in proptest::bool::ANY,
            concurrent in proptest::bool::ANY,
        ) {
            let routing = if round_robin {
                RoutingPolicy::RoundRobin
            } else {
                RoutingPolicy::SourceAffine
            };
            let tuning = zipper_types::ZipperTuning {
                routing,
                concurrent_transfer: concurrent,
                ..Default::default()
            };
            let mut cons: Vec<ConsumerPolicy> = (0..consumers)
                .map(|q| ConsumerPolicy::new(Rank(q as u32), producers, consumers, &tuning))
                .collect();
            let mut marks = vec![0; consumers];
            for p in 0..producers as u32 {
                let policy = ProducerPolicy::from_tuning(Rank(p), consumers, &tuning);
                let mut script = RankScript::new(policy, Vec::new());
                let net: Vec<Rank> = script.sender_drained().collect();
                let disk: Vec<Rank> = script.disk_eos().collect();
                for (targets, channel) in [(net, Channel::Net), (disk, Channel::Disk)] {
                    for q in targets {
                        prop_assert!(!cons[q.idx()].is_complete());
                        cons[q.idx()].note_eos(Rank(p), channel);
                        marks[q.idx()] += 1;
                    }
                }
            }
            for (c, n) in cons.iter_mut().zip(marks) {
                prop_assert_eq!(c.eos_expected(), n);
                prop_assert!(c.open());
            }
        }

        /// Full producer-side façade determinism: identical take sequences
        /// yield identical decision traces (the replay property Config C of
        /// the conformance harness checks against the live runtime).
        #[test]
        fn producer_policy_replay_matches(
            consumers in 1usize..6,
            hwm in 0usize..8,
            takes in proptest::collection::vec((0u32..16u32, proptest::bool::ANY), 0..64),
        ) {
            let mk = || ProducerPolicy::new(
                Rank(0), consumers, RoutingPolicy::RoundRobin, hwm, true,
            ).recorded();
            let mut a = mk();
            let mut b = mk();
            for &(idx, via_disk) in &takes {
                let block = id(0, 0, idx);
                if via_disk {
                    prop_assert_eq!(a.route_disk(block), b.route_disk(block));
                } else {
                    prop_assert_eq!(a.route_net(block), b.route_net(block));
                }
            }
            a.writer_retired(RetireReason::Drained);
            b.writer_retired(RetireReason::Drained);
            for &channel in Channel::active(true) {
                a.announce_eos(channel);
                b.announce_eos(channel);
            }
            prop_assert_eq!(a.trace().canonical(), b.trace().canonical());
        }
    }
}
