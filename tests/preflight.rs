//! Static preflight conformance: the verifier's verdicts are held
//! against both substrates.
//!
//! * Every plan of the catalogue (`zipper_policy::conformance`) — what
//!   the decision/causal conformance suites run — passes
//!   `Preflight::check` with zero errors: the verifier never rejects a
//!   plan the substrates prove runnable. Each negative plan is rejected
//!   with its documented `ZV` code (listed in DESIGN.md "Static
//!   preflight").
//! * Three interpreters, one plan: for every catalogue entry the DES spec
//!   round-trips to the plan it was built from, and the threaded driver's
//!   preflight renders the same report as `Preflight::check`. One
//!   structural rule (`Preflight::check_shape`) refuses the same plans on
//!   all three.
//! * The statically derived causal skeleton matches the
//!   decision-determined part of the edge multiset the DES causal
//!   engine records at runtime (Configs B, C, E).
//! * Property: a randomly generated plan the verifier *accepts* runs to
//!   completion on the DES with no EOS watchdog and no timeout —
//!   "accepted ⇒ completes" — and the seeded CI generators never
//!   produce a rejected plan for any seed.

mod common;

use std::time::Duration;
use zipper_policy::conformance::{self, BLOCK};
use zipper_policy::{Preflight, PreflightInput, ZvCode};
use zipper_trace::CausalGraph;
use zipper_transports::{run_with_detail, TransportKind, WorkflowSpec};
use zipper_types::{
    BackpressureScript, ByteSize, ChaosEntity, ChaosFault, ChaosPlan, GateRule, PreserveMode, Rank,
    RecoveryPolicy, RoutingPolicy,
};
use zipper_workflow::TraceOptions;

/// Every conformance-suite plan must be accepted with zero errors.
#[test]
fn conformance_plans_pass_preflight_clean() {
    for (name, plan) in conformance::accepted_plans() {
        WorkflowSpec::from_plan(&plan)
            .validate()
            .unwrap_or_else(|e| panic!("{name}: spec invalid: {e}"));
        let report = Preflight::check(&plan);
        assert!(
            !report.is_rejected(),
            "{name} must pass preflight clean:\n{}",
            report.render()
        );
    }
}

/// Each crafted negative plan is rejected with its documented distinct
/// diagnostic code.
#[test]
fn negative_plans_reject_with_documented_codes() {
    let negatives = conformance::negative_plans();
    for (name, plan, want) in &negatives {
        let report = Preflight::check(plan);
        assert!(report.is_rejected(), "{name}");
        assert!(report.has(*want), "{name}: {}", report.render());
    }
    // The codes are pairwise distinct — each negative plan gets its own
    // diagnostic, not a shared catch-all.
    for (i, (_, _, a)) in negatives.iter().enumerate() {
        for (_, _, b) in &negatives[i + 1..] {
            assert_ne!(a.code(), b.code());
        }
    }
}

/// Three interpreters, one plan. The DES spec built from a plan reads
/// back as exactly that plan, and the threaded driver's options preflight
/// to the same report as the plan itself.
#[test]
fn every_interpreter_reads_the_same_plan() {
    let negatives = conformance::negative_plans()
        .into_iter()
        .map(|(name, plan, _)| (name.to_string(), plan));
    for (name, plan) in conformance::accepted_plans().into_iter().chain(negatives) {
        assert_eq!(
            WorkflowSpec::from_plan(&plan).preflight_input(),
            plan,
            "{name}: the DES reads a different plan"
        );
        assert_eq!(
            common::threaded_options(&plan, TraceOptions::default())
                .preflight(&plan.workflow)
                .render(),
            Preflight::check(&plan).render(),
            "{name}: the threaded driver reads a different plan"
        );
    }
}

/// Two structurally invalid plans: a zero-byte slab (ZV001) and a
/// detached sender with no writer to drain it (ZV024).
fn structurally_invalid_plans() -> [(&'static str, PreflightInput, ZvCode); 2] {
    let mut zero_slab = conformance::base();
    zero_slab.workflow.bytes_per_rank_step = ByteSize::ZERO;
    let detached = conformance::base().with_chaos(ChaosPlan::new().with(
        ChaosEntity::Sender(Rank(0)),
        1,
        ChaosFault::DetachSender,
    ));
    [
        ("zero-byte slab", zero_slab, ZvCode::InvalidConfig),
        (
            "detached sender, no writer",
            detached,
            ZvCode::DetachWithoutWriter,
        ),
    ]
}

/// One structural rule, three interpreters: preflight rejects each plan
/// with its code, the DES spec refuses it, and the threaded driver panics
/// with the code before it spawns a thread (no application closure runs).
#[test]
fn structurally_invalid_plans_are_refused_by_every_interpreter() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use zipper_workflow::run_workflow_with;

    for (name, plan, code) in structurally_invalid_plans() {
        let report = Preflight::check(&plan);
        assert!(
            report.is_rejected() && report.has(code),
            "{name}: {}",
            report.render()
        );

        let spec = WorkflowSpec::from_plan(&plan).validate();
        let why = spec.expect_err(&format!("{name}: the DES spec accepts it"));
        assert!(why.contains(code.code()), "{name}: {why}");

        static APP_CALLS: AtomicUsize = AtomicUsize::new(0);
        let opts = common::threaded_options(&plan, TraceOptions::off());
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_workflow_with(
                &plan.workflow,
                opts,
                |_, _| {
                    APP_CALLS.fetch_add(1, Ordering::SeqCst);
                },
                |_, _| {
                    APP_CALLS.fetch_add(1, Ordering::SeqCst);
                },
            )
        }));
        let payload = run
            .err()
            .unwrap_or_else(|| panic!("{name}: the driver ran it"));
        let msg = zipper_types::panic_detail(payload.as_ref());
        assert!(msg.contains(code.code()), "{name}: {msg}");
        assert_eq!(APP_CALLS.load(Ordering::SeqCst), 0, "{name}: an app ran");
    }
}

/// One rule says which plans are structurally valid. The DES spec refuses
/// a plan exactly when preflight calls it structurally malformed — a
/// config error (ZV001-ZV004), a script error (ZV010-ZV012) or a detached
/// sender without a writer (ZV024). Checked over the catalogue, the
/// negative plans, the structurally invalid plans, and Config C under the
/// scripts `validate_rejects_bad_scripts` (in `zipper-policy`) rejects plus
/// a window on a rank that does not exist; the catalogue's equal-and-zero
/// targets plan is the case the two rules used to disagree on.
#[test]
fn spec_validation_and_preflight_agree_on_which_scripts_are_valid() {
    use ZvCode::*;
    let credit = |rank, windows: &[(u64, u64)]| {
        let script = windows
            .iter()
            .fold(BackpressureScript::new(), |s, &(wire, target)| {
                s.with(Rank(rank), wire, GateRule::OpenAfterSteals(target))
            });
        conformance::config_c().with_backpressure(script)
    };
    let bad_scripts = [
        ("zero wire", credit(0, &[(0, 1)])),
        ("duplicate wire", credit(0, &[(3, 1), (3, 2)])),
        ("regressing target", credit(0, &[(2, 3), (5, 1)])),
        ("unsatisfiable window", credit(0, &[(4, 5)])),
        ("rank out of range", credit(7, &[(1, 1)])),
    ]
    .map(|(name, plan)| (name.to_string(), plan));
    let negatives = conformance::negative_plans()
        .into_iter()
        .map(|(name, plan, _)| (name.to_string(), plan));
    let invalid = structurally_invalid_plans().map(|(name, plan, _)| (name.to_string(), plan));
    let plans = conformance::accepted_plans()
        .into_iter()
        .chain(negatives)
        .chain(invalid)
        .chain(bad_scripts);
    for (name, plan) in plans {
        let report = Preflight::check(&plan);
        let malformed = report.errors().any(|d| {
            matches!(
                d.code,
                InvalidConfig
                    | HighWaterMark
                    | TagStepOverflow
                    | TagBlockOverflow
                    | MalformedScript
                    | UnsatisfiableWindow
                    | GateRankOutOfRange
                    | DetachWithoutWriter
            )
        });
        let valid = WorkflowSpec::from_plan(&plan).validate();
        assert_eq!(
            valid.is_ok(),
            !malformed,
            "{name}: spec says {valid:?}, preflight says\n{}",
            report.render()
        );
    }
}

/// `run_with_detail` is the one DES run call. Totals mode records nothing
/// new — no decision traces, no causal log — and processes exactly the
/// events the pre-collapse `build` path did (counts pinned from the parent
/// commit); a detailed run of the same plan processes the same events and
/// carries every rank's decisions. Config A is source-affine, so each of
/// its 4 producers marks one consumer, not 2: 12 events fewer than the
/// all-consumer fan-out's 234. B–E are round-robin and mark every consumer.
#[test]
fn totals_mode_records_nothing_and_detail_changes_no_event() {
    for (plan, events) in [
        (conformance::config_a(), 222),
        (conformance::config_b(), 158),
        (conformance::config_c(), 159),
        (conformance::config_d(), 128),
        (conformance::config_e(), 194),
    ] {
        let spec = WorkflowSpec::from_plan(&plan);
        let lite = run_with_detail(TransportKind::Zipper, &spec, false);
        assert!(lite.is_clean());
        assert!(lite.producer_decisions.is_empty() && lite.consumer_decisions.is_empty());
        assert!(lite.causal.is_empty());
        assert_eq!(lite.events, events);
        let full = common::run_des(&plan);
        assert_eq!(full.events, events);
        assert_eq!(full.producer_decisions.len(), plan.workflow.producers);
        assert_eq!(full.consumer_decisions.len(), plan.workflow.consumers);
        assert!(full.producer_decisions.iter().all(|t| t.is_enabled()));
    }
}

/// The statically derived causal skeleton equals the
/// decision-determined part of the runtime edge multiset, per config.
#[test]
fn skeleton_matches_des_edge_profile() {
    for (name, plan) in [
        ("config B", conformance::config_b()),
        ("config C", conformance::config_c()),
        ("config E", conformance::config_e()),
        (
            "FailSend under a steal window",
            conformance::fail_send_under_steal_window(),
        ),
        (
            "faulted wires carrying stolen IDs",
            conformance::faulted_wires_carrying_stolen_ids(),
        ),
    ] {
        let report = Preflight::check(&plan);
        assert!(!report.is_rejected(), "{name}: {}", report.render());
        assert!(report.pinned, "{name}: conformance configs are pinned");
        assert!(report.skeleton.is_acyclic(), "{name}");
        let r = common::run_des(&plan);
        let profile = CausalGraph::build(&r.trace, &r.causal)
            .edge_profile()
            .into_iter()
            .map(|(sig, n)| (sig, n as u64))
            .collect();
        if let Err(why) = report.skeleton.matches_profile(&profile) {
            panic!("{name}: {why}");
        }
    }
}

/// The opt-in workflow gate refuses a provably-deadlocking plan without
/// spawning a thread, and passes a clean plan through to a real run.
#[test]
fn preflight_gate_refuses_rejected_plans_and_admits_clean_ones() {
    use zipper_workflow::{run_workflow_with, RunOptions};

    let cfg = conformance::config_b().workflow;
    let (produce, consume) = (common::write_slabs(&cfg), common::drain);

    let gated = |chaos: ChaosPlan| RunOptions {
        trace: TraceOptions::off(),
        chaos: Some(chaos),
        preflight_gate: true,
        ..Default::default()
    };

    // A dead-ordinal plan is refused before any thread spawns.
    let bad = ChaosPlan::new().with(ChaosEntity::Sender(Rank(0)), 99, ChaosFault::DropWire);
    let refused = run_workflow_with(&cfg, gated(bad), produce, consume);
    let report = refused.expect_err("dead-ordinal plan must be refused");
    assert!(report.has(ZvCode::DeadOrdinal), "{}", report.render());

    // A clean (empty) plan runs end to end and carries the preflight
    // verdict in the workflow report.
    let ok = run_workflow_with(&cfg, gated(ChaosPlan::new()), produce, consume);
    let (workflow, results) = ok.expect("clean plan must run");
    workflow.assert_complete();
    assert_eq!(results.len(), 2);
    let preflight = workflow.preflight.expect("a gated run reports its verdict");
    assert!(!preflight.is_rejected());
}

/// The seeded CI generators never produce a verifier-rejected plan: any
/// seed the chaos/gate matrices pick yields a plan preflight accepts (so a
/// seeded matrix failure is always conformance-broken, never
/// plan-invalid).
#[test]
fn seeded_generators_never_produce_rejected_plans() {
    for seed in 0..64u64 {
        for (name, plan) in [
            ("chaos", conformance::seeded_chaos(seed)),
            ("gate", conformance::seeded_gate(seed)),
        ] {
            let report = Preflight::check(&plan);
            assert!(
                !report.is_rejected(),
                "seeded {name} (seed {seed}) rejected:\n{}",
                report.render()
            );
        }
    }
}

/// Build a random plan from raw draws. Deliberately allowed to generate
/// bad plans (dead ordinals, unsatisfiable windows, unhealed crashes):
/// the property filters on the verifier's verdict.
#[allow(clippy::too_many_arguments)]
fn random_plan(
    producers: usize,
    consumers: usize,
    steps: u64,
    blocks_per_step: u64,
    pinned_hwm: bool,
    concurrent: bool,
    preserve: bool,
    chaos_draws: &[(u8, u64, u8)],
    gate_draw: Option<(u64, u64)>,
    budgets: (u32, u32),
) -> PreflightInput {
    let mut p = conformance::base();
    let w = &mut p.workflow;
    w.producers = producers;
    w.consumers = consumers;
    w.steps = steps;
    w.bytes_per_rank_step = ByteSize::bytes(blocks_per_step * BLOCK);
    w.tuning.producer_slots = 64;
    let n = steps * blocks_per_step;
    w.tuning.high_water_mark = if pinned_hwm { n as usize } else { 2 };
    w.tuning.concurrent_transfer = concurrent;
    w.tuning.preserve = if preserve {
        PreserveMode::Preserve
    } else {
        PreserveMode::NoPreserve
    };
    w.tuning.routing = RoutingPolicy::RoundRobin;
    w.tuning.recovery = RecoveryPolicy {
        writer_cooldown: Duration::from_millis(1),
        max_writer_revivals: budgets.0,
        max_consumer_restarts: budgets.1,
    };
    let mut plan = ChaosPlan::new();
    for &(entity_kind, ordinal, fault_kind) in chaos_draws {
        let fault = match fault_kind % 6 {
            0 => ChaosFault::DropWire,
            1 => ChaosFault::CorruptWire,
            2 => ChaosFault::DelayWire(Duration::from_micros(50)),
            3 => ChaosFault::FailSend,
            4 => ChaosFault::DropEos,
            _ => ChaosFault::PfsWriteFail,
        };
        let ev = match entity_kind % 4 {
            0 => (ChaosEntity::Sender(Rank(0)), fault),
            1 => (
                ChaosEntity::Writer(Rank((ordinal % producers as u64) as u32)),
                ChaosFault::PfsWriteFail,
            ),
            2 => (
                ChaosEntity::Analysis(Rank((ordinal % consumers as u64) as u32)),
                ChaosFault::CrashApp,
            ),
            _ => (ChaosEntity::Sender(Rank((producers - 1) as u32)), fault),
        };
        plan = plan.with(ev.0, 1 + ordinal, ev.1);
    }
    p.chaos = (!plan.is_empty()).then_some(plan);
    p.backpressure = gate_draw.map(|(wire, target)| {
        BackpressureScript::new().with(Rank(0), 1 + wire, GateRule::OpenAfterSteals(1 + target))
    });
    p
}

mod accepted_implies_completion {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The soundness theorem the verifier exists for: a plan
        /// preflight accepts — with NO EOS watchdog armed — runs to
        /// completion on the DES (no deadlock, no fault, no abandoned
        /// rank). Rejected plans are skipped: the property is
        /// "accepted ⇒ completes", not "rejected ⇒ hangs" (rejection is
        /// allowed to be conservative).
        #[test]
        fn verifier_accepted_plans_complete_on_the_des(
            producers in 1usize..4,
            consumers in 1usize..3,
            steps in 1u64..3,
            blocks_per_step in 2u64..5,
            pinned_hwm in proptest::bool::ANY,
            concurrent in proptest::bool::ANY,
            preserve in proptest::bool::ANY,
            chaos in proptest::collection::vec((0u8..4, 0u64..14, 0u8..6), 0..3),
            gate_wire in 0u64..8,
            gate_target in 0u64..8,
            with_gate in proptest::bool::ANY,
            revivals in 0u32..2,
            restarts in 0u32..2,
        ) {
            let plan = random_plan(
                producers,
                consumers,
                steps,
                blocks_per_step,
                pinned_hwm,
                concurrent,
                preserve,
                &chaos,
                with_gate.then_some((gate_wire, gate_target)),
                (revivals, restarts),
            );
            let report = Preflight::check(&plan);
            if report.is_rejected() {
                // The plan is refused; nothing to run.
                if std::env::var("ZIPPER_PREFLIGHT_STATS").is_ok() {
                    eprintln!("rejected");
                }
                return Ok(());
            }
            if std::env::var("ZIPPER_PREFLIGHT_STATS").is_ok() {
                eprintln!("accepted (pinned={})", report.pinned);
            }
            // Accepted ⇒ the spec is also structurally valid...
            let spec = WorkflowSpec::from_plan(&plan);
            prop_assert!(spec.validate().is_ok(), "accepted but validate fails: {:?}", spec.validate());
            // ...and the DES run completes cleanly with no watchdog.
            let r = run_with_detail(TransportKind::Zipper, &spec, false);
            prop_assert!(
                r.is_clean(),
                "verifier-accepted plan did not complete: {:?} {:?}\n{}",
                r.fault,
                r.deadlocked,
                report.render()
            );
        }
    }
}
