//! Differential conformance: the threaded runtime and the DES drive the
//! same `zipper-policy` kernel, so a run with identical workload
//! parameters must yield identical canonical decision traces on both
//! substrates — same routes in the same order, same steals, same EOS
//! fan-out, same store decisions. Timing may differ arbitrarily; the
//! decisions may not.
//!
//! The plans — Configs A–E, the seeded chaos and gate plans, the
//! `DropEos`-concurrent plan and the gate+chaos composition — are defined
//! once, in `zipper_policy::conformance`; both substrates derive their
//! input from the same value. Framed-TCP runs, plain and chaos-scripted,
//! are checked against the in-process mesh.

mod common;

use std::sync::Arc;
use zipper_core::{Consumer, Producer};
use zipper_policy::conformance::{self, BLOCK};
use zipper_policy::{
    CanonicalTrace, Channel, DecisionTrace, PolicyEvent, Preflight, PreflightInput, ProducerPolicy,
    RankScript, RetireReason, ZvCode,
};
use zipper_trace::{SpanKind, TraceMode, TraceSink};
use zipper_types::{ChaosEntity, ChaosFault, Rank, RoutingPolicy, RuntimeError};
use zipper_workflow::TraceOptions;

type Traces = (Vec<CanonicalTrace>, Vec<CanonicalTrace>);

fn canon(producers: &[DecisionTrace], consumers: &[DecisionTrace]) -> Traces {
    let canon = |ts: &[DecisionTrace]| ts.iter().map(DecisionTrace::canonical).collect();
    (canon(producers), canon(consumers))
}

/// Run on the threaded substrate; return canonical traces by rank.
fn run_threaded(plan: &PreflightInput) -> Traces {
    let report = common::run_threaded(plan, TraceOptions::default().with_policy());
    canon(&report.producer_decisions, &report.consumer_decisions)
}

/// Run on the DES; return canonical traces by rank.
fn run_des(plan: &PreflightInput) -> Traces {
    let r = common::run_des(plan);
    canon(&r.producer_decisions, &r.consumer_decisions)
}

fn assert_same(name: &str, threaded: &Traces, des: &Traces) {
    for (p, (t, d)) in threaded.0.iter().zip(&des.0).enumerate() {
        assert_eq!(t, d, "{name}: producer {p} decision traces diverge");
    }
    for (q, (t, d)) in threaded.1.iter().zip(&des.1).enumerate() {
        assert_eq!(t, d, "{name}: consumer {q} decision traces diverge");
    }
}

/// Config A: canonical traces must match exactly.
#[test]
fn source_affine_message_only_traces_match() {
    let plan = conformance::config_a();
    let threaded = run_threaded(&plan);
    let des = run_des(&plan);
    for (p, t) in threaded.0.iter().enumerate() {
        assert_eq!(t.routes.len(), 8, "producer {p} routes all its blocks");
        assert!(t.steals.is_empty(), "message-only mode never steals");
    }
    assert_same("config A", &threaded, &des);
}

/// `P < Q` under SourceAffine: producer 0 routes and marks consumer 0
/// only; consumer 1 hears nothing, completes once and at once, and needs
/// no watchdog. Both substrates record exactly that.
#[test]
fn fewer_producers_than_consumers_traces_match() {
    let plan = conformance::fewer_producers_than_consumers();
    let threaded = run_threaded(&plan);
    let des = run_des(&plan);
    let p0 = &threaded.0[0];
    assert_eq!(p0.routes.len(), 8);
    assert!(p0.routes.iter().all(|&(_, dest, _)| dest == Rank(0)));
    assert_eq!(
        p0.eos_announced,
        vec![(Rank(0), Channel::Net), (Rank(0), Channel::Disk)]
    );
    let (c0, c1) = (&threaded.1[0], &threaded.1[1]);
    assert_eq!((c0.eos_seen.len(), c0.completions), (2, 1));
    assert_eq!((c1.eos_seen.len(), c1.completions, c1.timeouts), (0, 1, 0));
    assert_same("fewer producers than consumers", &threaded, &des);
}

/// Config B: take order equals production order on both substrates, and
/// the traces must match exactly.
#[test]
fn round_robin_concurrent_preserve_traces_match() {
    let plan = conformance::config_b();
    let threaded = run_threaded(&plan);
    let des = run_des(&plan);
    for (p, t) in threaded.0.iter().enumerate() {
        assert!(
            t.steals.is_empty(),
            "producer {p}: hwm at run size, no steals"
        );
        assert_eq!(t.retires, vec![RetireReason::Drained]);
        for (k, (_, dest, channel)) in t.routes.iter().enumerate() {
            assert_eq!(dest.idx(), k % 2, "producer {p} deals round-robin");
            assert_eq!(*channel, Channel::Net);
        }
        // Dual-channel EOS fan-out to every consumer.
        assert_eq!(t.eos_announced.len(), 4);
    }
    for (q, t) in threaded.1.iter().enumerate() {
        assert_eq!(
            t.eos_seen.len(),
            4,
            "consumer {q}: 2 producers × 2 channels"
        );
        assert!(
            t.stores.iter().all(|&(_, s)| s),
            "Preserve stores everything"
        );
    }
    assert_same("config B", &threaded, &des);
}

/// Replay a recorded decision sequence into a fresh kernel — rebuilt
/// from the rank, the consumer count and the trace alone — and return the
/// replay's canonical trace. Proves the trace is substrate-free: the
/// kernel reproduces it exactly from the observed take order.
fn replay(rank: Rank, consumers: usize, recorded: &DecisionTrace) -> CanonicalTrace {
    let policy = ProducerPolicy::new(rank, consumers, RoutingPolicy::RoundRobin, 0, true);
    let mut fresh = RankScript::new(policy.recorded(), Vec::new());
    for ev in recorded.events() {
        match *ev {
            PolicyEvent::Route {
                block,
                channel: Channel::Net,
                ..
            } => {
                fresh.take_net(block);
            }
            PolicyEvent::Route {
                block,
                channel: Channel::Disk,
                ..
            } => {
                fresh.take_disk(block);
            }
            // Recorded as a side effect of take_disk in the replay.
            PolicyEvent::Steal { .. } => {}
            PolicyEvent::WriterRetired {
                reason: RetireReason::Drained,
            } => fresh.writer_drained(),
            // The kernel hands each channel's fan-out out once.
            PolicyEvent::EosAnnounced {
                channel: Channel::Net,
                ..
            } => {
                fresh.sender_drained();
            }
            PolicyEvent::EosAnnounced {
                channel: Channel::Disk,
                ..
            } => {
                fresh.disk_eos();
            }
            ref other => panic!("unexpected producer event {other:?}"),
        }
    }
    fresh.policy().trace().canonical()
}

/// Config C: some blocks stolen, some sent, byte-identical canonical
/// traces; the recorded trace must also be exactly reproducible by a
/// fresh kernel replaying the observed take order (substrate-free by
/// construction).
#[test]
fn scripted_steal_traces_match_and_replay_exactly() {
    let plan = conformance::config_c();
    let threaded = run_threaded(&plan);
    for (p, t) in threaded.0.iter().enumerate() {
        assert_eq!(t.routes.len(), 8, "producer {p} routes every block");
        let stolen: Vec<usize> = t
            .routes
            .iter()
            .enumerate()
            .filter(|(_, (_, _, ch))| *ch == Channel::Disk)
            .map(|(k, _)| k)
            .collect();
        assert_eq!(stolen, vec![2, 3, 4, 7], "producer {p} steal schedule");
        assert_eq!(t.steals.len(), 4);
        assert_eq!(t.retires, vec![RetireReason::Drained]);
        // Shared rotation: the deal order covers both consumers
        // alternately regardless of channel.
        for (k, (_, dest, _)) in t.routes.iter().enumerate() {
            assert_eq!(dest.idx(), k % 2, "producer {p} round-robin rotation");
        }
    }
    let r = common::run_des(&plan);
    let des = canon(&r.producer_decisions, &r.consumer_decisions);
    assert_same("config C", &threaded, &des);

    for (p, recorded) in r.producer_decisions.iter().enumerate() {
        assert_eq!(
            replay(Rank(p as u32), plan.workflow.consumers, recorded),
            recorded.canonical(),
            "kernel replay reproduces the scripted trace"
        );
    }
}

/// Config D: the pipelines degrade through the same decision sequence —
/// identical routes, identical surviving store set, and the same consumer
/// tripping its watchdog.
#[test]
fn chaos_degradation_traces_match() {
    let plan = conformance::config_d();
    let threaded = run_threaded(&plan);
    let des = run_des(&plan);
    for t in &threaded.0 {
        assert_eq!(t.routes.len(), 8, "routing is decided before the wire");
    }
    let c0 = &threaded.1[0];
    assert_eq!(c0.eos_seen.len(), 1, "producer 0's EOS was swallowed");
    assert_eq!(c0.timeouts, 1, "the watchdog fired");
    assert_eq!(c0.completions, 0);
    // Consumer 0 keeps producer 0's surviving even-ordinal blocks (wires
    // 1,3,5,7) and nothing from the dead-destination producer 1.
    assert_eq!(c0.stores.len(), 4, "{:?}", c0.stores);
    let c1 = &threaded.1[1];
    assert_eq!(c1.eos_seen.len(), 2);
    assert_eq!(c1.completions, 1, "consumer 1 still completes");
    assert_eq!(c1.timeouts, 0);
    // Producer 0's wires 2 (dropped) and 4 (corrupt) never arrive;
    // producer 1's four surviving wires all land here.
    assert_eq!(c1.stores.len(), 6, "{:?}", c1.stores);
    assert_same("config D", &threaded, &des);
}

/// Config E: the kernel revives producer 0's faulted writer after a
/// cooldown (`WriterRetired(Fault)` → `WriterRevived` →
/// `WriterRetired(Drained)`) and the restart supervisor replays consumer
/// 1's 2-block backlog from the Preserve store. Both substrates must
/// degrade *and heal* through identical decision traces.
#[test]
fn chaos_recovery_traces_match() {
    let plan = conformance::config_e();
    let threaded = run_threaded(&plan);
    let des = run_des(&plan);
    let p0 = &threaded.0[0];
    assert_eq!(
        p0.retires,
        vec![RetireReason::Fault, RetireReason::Drained],
        "fault retire, then the revived writer drains to the end"
    );
    assert_eq!(p0.revivals, 1);
    assert_eq!(
        p0.routes.len(),
        9,
        "the faulted block is requeued and routed again"
    );
    let p1 = &threaded.0[1];
    assert_eq!(p1.retires, vec![RetireReason::Drained]);
    assert_eq!(p1.revivals, 0);
    assert_eq!(p1.routes.len(), 8);
    let c1 = &threaded.1[1];
    assert!(c1.abandoned, "the crash was accounted");
    assert_eq!(c1.restarts, vec![2], "read #3 crashed with 2 delivered");
    assert_eq!(c1.completions, 1, "EOS reconciles across the restart");
    let c0 = &threaded.1[0];
    assert!(!c0.abandoned);
    assert_eq!(c0.restarts, Vec::<usize>::new());
    assert_eq!(c0.completions, 1);
    assert_same("config E", &threaded, &des);
}

/// Run a restart plan on both substrates: identical canonical traces, and
/// the crashing consumer heals every crash and completes. Returns its
/// replay sizes.
fn restarts_conform(name: &str, plan: &PreflightInput) -> Vec<usize> {
    let threaded = run_threaded(plan);
    let des = run_des(plan);
    assert_same(name, &threaded, &des);
    let crashing = threaded.1.iter().find(|t| t.abandoned);
    let c = crashing.unwrap_or_else(|| panic!("{name}: no consumer crashed"));
    assert_eq!(c.completions, 1, "{name}: the healed rank completes");
    c.restarts.clone()
}

/// Config E with consumer 1 crashing at reads 3 and 6: each struck read
/// consumes nothing, so each restart replays the 2 reads before it.
#[test]
fn chaos_two_restarts_on_one_consumer_traces_match() {
    let plan = conformance::config_e_crashing(1, &[3, 6]);
    assert_eq!(restarts_conform("two restarts", &plan), [2, 2]);
}

/// Config E with consumer 1 crashing at reads 3 and 11: read 11 is the
/// one that would find the stream closed, and its restart replays the 7
/// reads since the first.
#[test]
fn chaos_crash_on_the_closed_read_traces_match() {
    let plan = conformance::config_e_crashing(1, &[3, 11]);
    assert_eq!(restarts_conform("crash on Closed", &plan), [2, 7]);
}

/// Seeded restarts (`ZIPPER_CHAOS_SEED`): 1-3 crashes on one consumer,
/// each healed, on both substrates alike.
#[test]
fn chaos_seeded_restarts_traces_match() {
    let seed = conformance::chaos_seed();
    let plan = conformance::seeded_restarts(seed);
    let crashes = plan.workflow.tuning.recovery.max_consumer_restarts as usize;
    let restarts = restarts_conform(&format!("seeded restarts (seed {seed})"), &plan);
    assert_eq!(restarts.len(), crashes);
}

/// Seeded chaos: the CI seed matrix (`ZIPPER_CHAOS_SEED`) explores
/// different scripted schedules while every individual run stays fully
/// deterministic — any seed must conform.
#[test]
fn seeded_transport_chaos_traces_match() {
    let seed = conformance::chaos_seed();
    let plan = conformance::seeded_chaos(seed);
    let threaded = run_threaded(&plan);
    let des = run_des(&plan);
    for (p, t) in threaded.0.iter().enumerate() {
        assert_eq!(t.routes.len(), 8, "producer {p} routes all its blocks");
    }
    assert_same(&format!("seeded (seed {seed})"), &threaded, &des);
}

/// A `DropEos` plan in concurrent-transfer mode: both substrates send
/// per-channel EOS wires and count only data wires and net-channel marks
/// against sender ordinals, so the swallowed stream-EOS trips the same
/// watchdog on both substrates while the disk channel's marks still
/// arrive. Source-affine, so each consumer waits for its one producer's two
/// marks, and every interpreter states that count the kernel's way: the
/// watchdog reports 0 of 1 producers done on threads and the DES, and
/// preflight 1 of 2 marks seen.
#[test]
fn chaos_dropped_eos_concurrent_traces_match() {
    let plan = conformance::dropped_eos_concurrent();
    let report = common::run_threaded(&plan, TraceOptions::default().with_policy());
    let threaded = canon(&report.producer_decisions, &report.consumer_decisions);
    let des_run = common::run_des(&plan);
    let des = canon(&des_run.producer_decisions, &des_run.consumer_decisions);
    let c0 = &threaded.1[0];
    assert_eq!(c0.eos_seen.len(), 1, "producer 0's net mark was swallowed");
    assert_eq!(c0.timeouts, 1, "the watchdog reconciled the tracker");
    assert_eq!(c0.completions, 0);
    let c1 = &threaded.1[1];
    assert_eq!(c1.eos_seen.len(), 2);
    assert_eq!(c1.completions, 1);
    assert_eq!(c1.timeouts, 0);
    assert_same("dropped EOS, concurrent", &threaded, &des);

    let timeout = PolicyEvent::EosTimeout {
        seen: 0,
        expected: 1,
    };
    assert!(report.consumers[0].errors.iter().any(|e| matches!(
        e,
        RuntimeError::EosTimeout {
            eos_seen: 0,
            eos_expected: 1,
            ..
        }
    )));
    assert!(des_run.consumer_decisions[0].events().contains(&timeout));
    let preflight = Preflight::check(&plan);
    assert!(
        preflight
            .diagnostics
            .iter()
            .any(|d| d.code == ZvCode::WatchdogDegradation
                && d.message.contains("consumer 0 sees 1/2 EOS marks")),
        "{}",
        preflight.render()
    );
}

/// Seeded backpressure (`ZIPPER_GATE_SEED`): any seed must produce
/// byte-identical canonical traces across substrates.
#[test]
fn seeded_backpressure_gate_traces_match() {
    let seed = conformance::gate_seed();
    let plan = conformance::seeded_gate(seed);
    let threaded = run_threaded(&plan);
    let des = run_des(&plan);
    for (p, t) in threaded.0.iter().enumerate() {
        assert_eq!(t.routes.len(), 8, "producer {p} routes all its blocks");
        assert!(!t.steals.is_empty(), "producer {p}'s window armed");
    }
    assert_same(&format!("seeded gate (seed {seed})"), &threaded, &des);
}

/// Equal targets and a zero target are a valid script: the windows whose
/// target is already met pass unheld on both substrates, and only wire 2
/// holds, for the steals of `b2 b3 b4`.
#[test]
fn equal_and_zero_target_gate_traces_match() {
    let plan = conformance::equal_and_zero_targets();
    let threaded = run_threaded(&plan);
    let des = run_des(&plan);
    for (p, t) in threaded.0.iter().enumerate() {
        let stolen: Vec<usize> = t
            .routes
            .iter()
            .enumerate()
            .filter(|(_, (_, _, ch))| *ch == Channel::Disk)
            .map(|(k, _)| k)
            .collect();
        assert_eq!(stolen, vec![2, 3, 4], "producer {p} steal schedule");
    }
    assert_same("equal and zero targets", &threaded, &des);
}

/// Composition on a single wire: each producer's data wire #2 is both
/// held by a backpressure gate window (until 3 cumulative steals) and
/// scripted by a chaos ordinal (producer 0: dropped; producer 1:
/// delayed). Both substrates order the mechanisms gate-before-chaos —
/// the threaded producer's gate wraps outermost around the `ChaosSender`,
/// and the DES ticks gate ordinals before the chaos scope consults its
/// own — so the held wire still burns its fault ordinal on release and
/// the fault lands on the same block everywhere: canonical decision
/// traces must stay byte-identical.
#[test]
fn gate_and_chaos_compose_on_the_same_wire() {
    let plan = conformance::gate_and_chaos();
    let threaded = run_threaded(&plan);
    let des = run_des(&plan);
    for (p, t) in threaded.0.iter().enumerate() {
        assert_eq!(t.routes.len(), 8, "producer {p} routes all its blocks");
        assert!(
            t.steals.len() >= 3,
            "producer {p}'s window armed and its credit target was met: {:?}",
            t.steals
        );
    }
    assert_same("gate+chaos same wire", &threaded, &des);
}

/// Canonical traces match, and each consumer analyses on threads exactly
/// the blocks it analyses on the DES, `analysed` by consumer.
fn assert_same_deliveries(name: &str, plan: &PreflightInput, analysed: &[u64]) {
    let report = common::run_threaded(plan, TraceOptions::default().with_policy());
    let threaded = canon(&report.producer_decisions, &report.consumer_decisions);
    let r = common::run_des(plan);
    assert_same(
        name,
        &threaded,
        &canon(&r.producer_decisions, &r.consumer_decisions),
    );
    let des: Vec<u64> = (0..plan.workflow.consumers)
        .map(|q| {
            let lane = r.trace.lane_by_label(&format!("ana/q{q}/ana")).unwrap();
            let spans = r.trace.lane_spans(lane);
            spans
                .iter()
                .filter(|s| s.kind == SpanKind::Analysis)
                .count() as u64
        })
        .collect();
    assert_eq!(des, analysed, "{name}: DES analyses");
    let delivered: Vec<u64> = report
        .consumers
        .iter()
        .map(|c| c.blocks_delivered)
        .collect();
    assert_eq!(
        delivered, des,
        "{name}: threaded deliveries vs DES analyses"
    );
}

/// A failed data send under a credit window: producer 0's consumer 0 is
/// dead to its data wires, but the blocks its writer stole for consumer 0
/// are on the PFS and their IDs are still announced — 6 for consumer 0.
#[test]
fn fail_send_under_a_steal_window_delivers_the_same_blocks() {
    assert_same_deliveries(
        "FailSend under a steal window",
        &conformance::fail_send_under_steal_window(),
        &[6, 8],
    );
}

/// Dropped, corrupted and failed data wires that carry stolen IDs lose
/// their own block, not the IDs: the stolen blocks are on the PFS.
#[test]
fn faulted_wires_carrying_stolen_ids_deliver_the_same_blocks() {
    assert_same_deliveries(
        "faulted wires carrying stolen IDs",
        &conformance::faulted_wires_carrying_stolen_ids(),
        &[6, 7],
    );
}

/// Run `plan` over real loopback sockets (framed TCP) and return canonical
/// traces by rank. Sender-entity chaos is honoured by wrapping each
/// producer's [`zipper_core::TcpSender`] in a [`zipper_core::ChaosSender`]
/// — the same wrapper the mesh driver uses, counting the same ordinals —
/// and a backpressure script by spawning each producer with its rank's
/// windows, as the driver does. Injected faults surface as per-rank
/// runtime errors by design, so runtime error lists are only asserted
/// empty for fault-free runs.
fn run_tcp(plan: &PreflightInput) -> Traces {
    use parking_lot::Mutex;
    use zipper_core::{listen_consumers, ChaosSender, TcpSender};
    use zipper_policy::ConsumerPolicy;

    let cfg = &plan.workflow;
    let chaos = plan.chaos.clone().unwrap_or_default();
    let tuning = cfg.tuning;
    let sink = TraceSink::wall(TraceMode::Off);
    let storage: Arc<dyn zipper_pfs::Storage> = Arc::new(zipper_pfs::MemFs::new());
    let (addrs, receivers) = listen_consumers(cfg.consumers, cfg.producers).unwrap();

    let mut consumer_policies = Vec::new();
    let mut consumers = Vec::new();
    let mut drains = Vec::new();
    for (q, rx) in receivers.into_iter().enumerate() {
        let rank = Rank(q as u32);
        let policy = Arc::new(Mutex::new(
            ConsumerPolicy::new(rank, cfg.producers, cfg.consumers, &tuning).recorded(),
        ));
        consumer_policies.push(policy.clone());
        let mut c = Consumer::spawn_with(
            rank,
            tuning,
            cfg.producers,
            rx,
            storage.clone(),
            sink.clone(),
            Some(policy),
        );
        let reader = c.reader();
        consumers.push(c);
        drains.push(std::thread::spawn(move || common::drain(rank, &reader)));
    }

    let mut producer_scripts = Vec::new();
    let mut producer_apps = Vec::new();
    let mut producer_runtimes = Vec::new();
    for p in 0..cfg.producers {
        let rank = Rank(p as u32);
        let windows = plan
            .backpressure
            .as_ref()
            .map(|s| s.windows_for(rank))
            .unwrap_or_default();
        let policy = ProducerPolicy::from_tuning(rank, cfg.consumers, &tuning).recorded();
        let script = Arc::new(Mutex::new(RankScript::new(policy, windows)));
        producer_scripts.push(script.clone());
        // An empty scope passes every wire through.
        let sender = ChaosSender::new(
            TcpSender::connect(&addrs).unwrap(),
            Arc::new(chaos.scope(ChaosEntity::Sender(rank))),
        );
        let mut prod = Producer::spawn_with(
            rank,
            tuning,
            sender,
            storage.clone(),
            sink.clone(),
            Some(script),
            false,
        );
        let writer = prod.writer(BLOCK as usize);
        producer_runtimes.push(prod);
        let produce = common::write_slabs(cfg);
        producer_apps.push(std::thread::spawn(move || {
            produce(rank, &writer);
            writer.finish();
        }));
    }

    for h in producer_apps {
        h.join().unwrap();
    }
    for prod in producer_runtimes {
        let pm = prod.join();
        if chaos.is_empty() {
            assert!(pm.errors.is_empty(), "{:?}", pm.errors);
        }
    }
    for d in drains {
        d.join().unwrap();
    }
    for c in consumers {
        let cm = c.join();
        if chaos.is_empty() {
            assert!(cm.errors.is_empty(), "{:?}", cm.errors);
        }
    }

    (
        producer_scripts
            .iter()
            .map(|s| s.lock().policy().trace().canonical())
            .collect(),
        consumer_policies
            .iter()
            .map(|c| c.lock().trace().canonical())
            .collect(),
    )
}

/// The framed-TCP transport must be decision-invisible: the same
/// workload over real loopback sockets yields the same canonical traces
/// as the in-process mesh — Config B's scenario, Config C's scripted
/// partial steal schedule, whose windows the TCP producers honour too,
/// and `P < Q`, where consumer 1's listener accepts a producer that never
/// sends it a frame.
#[test]
fn tcp_transport_matches_mesh_canonical_traces() {
    for (name, plan) in [
        ("config B", conformance::config_b()),
        ("config C", conformance::config_c()),
        (
            "fewer producers than consumers",
            conformance::fewer_producers_than_consumers(),
        ),
    ] {
        let mesh_traces = run_threaded(&plan);
        let tcp_traces = run_tcp(&plan);
        assert_same(&format!("tcp vs mesh, {name}"), &tcp_traces, &mesh_traces);
    }
}

/// Scripted sender chaos over framed TCP: Config D's sender faults — the
/// same ordinal plan the mesh interprets in-process: dropped and corrupted
/// wires, a delayed wire, a failed send — must degrade the TCP run through
/// identical decision traces. Corrupt wires travel as real garbage frames
/// (an in-band transport fault the stream survives), exercising
/// `TcpSender::send_fault`.
///
/// `DropEos` + the watchdog is deliberately filtered *out* of the plan:
/// over TCP the producer's exit closes the socket, so the consumer
/// observes a disconnect before the EOS timeout can fire, while the
/// in-process mesh stays open and trips the watchdog — a real (and
/// documented) transport-visible difference in shutdown, not a policy
/// divergence. The `Output` fault goes with it (`run_tcp` wraps senders
/// only).
#[test]
fn tcp_scripted_chaos_matches_mesh_canonical_traces() {
    let mut plan = conformance::config_d();
    plan.workflow.tuning.eos_timeout = None;
    let chaos = plan.chaos.as_mut().expect("config D is chaos-scripted");
    chaos.events.retain(|ev| {
        matches!(ev.entity, ChaosEntity::Sender(_)) && ev.fault != ChaosFault::DropEos
    });
    let mesh_traces = run_threaded(&plan);
    let tcp_traces = run_tcp(&plan);
    assert_same("tcp chaos vs mesh", &tcp_traces, &mesh_traces);
}
