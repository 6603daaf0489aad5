//! The conformance catalogue: every plan the cross-substrate suites run,
//! defined once, by name. `tests/policy_conformance.rs`,
//! `tests/causal_conformance.rs`, `tests/preflight.rs`, the preflight unit
//! tests and `telemetry_check --preflight` all read these values, and
//! each interpreter derives its input from the same [`PreflightInput`]:
//! `Preflight::check(&plan)`, `WorkflowSpec::from_plan(&plan)` on the DES,
//! and `plan.workflow` under `RunOptions { chaos, net.backpressure }` on
//! threads.
//!
//! Every plan moves [`BLOCK`]-byte blocks and, unless its entry says
//! otherwise, has the [`base`] shape: 2 producers, 2 consumers, 2 steps
//! of 4 blocks, 16 producer slots, high-water mark 8 (the rank's whole-run
//! block count, so Algorithm 1 never steals unscripted), message-only,
//! source-affine, no Preserve, no watchdog, no recovery budget. Each sits
//! in a pinned regime of the verifier (see [`crate::preflight`]), which is
//! what lets canonical decision traces be byte-identical across
//! substrates.

use crate::preflight::{PreflightInput, ZvCode, TAG_BLOCK_LIMIT};
use std::time::Duration;
use zipper_types::ChaosEntity::{Analysis, Output, Sender, Writer};
use zipper_types::ChaosFault::{
    CorruptWire, CrashApp, DelayWire, DetachSender, DropEos, DropWire, FailSend, PfsWriteFail,
};
use zipper_types::GateRule::OpenAfterSteals;
use zipper_types::PreserveMode::Preserve;
use zipper_types::RoutingPolicy::RoundRobin;
use zipper_types::{BackpressureScript, ByteSize, ChaosPlan, Rank, RecoveryPolicy, WorkflowConfig};

/// Block size of every catalogue plan, in bytes.
pub const BLOCK: u64 = 16 << 10;

/// The shared shape (see the module docs).
pub fn base() -> PreflightInput {
    let mut w = WorkflowConfig {
        producers: 2,
        consumers: 2,
        steps: 2,
        bytes_per_rank_step: ByteSize::bytes(4 * BLOCK),
        ..Default::default()
    };
    w.tuning.block_size = ByteSize::bytes(BLOCK);
    w.tuning.producer_slots = 16;
    w.tuning.high_water_mark = 8;
    w.tuning.concurrent_transfer = false;
    w.tuning.eos_timeout = None;
    PreflightInput::from_config(&w)
}

/// Config A: source-affine, message-only, 4 producers (8 slots, hwm 4).
/// Every block of producer `p` goes to consumer `p % Q` in production
/// order, with a single-channel EOS.
pub fn config_a() -> PreflightInput {
    let mut p = base();
    p.workflow.producers = 4;
    p.workflow.tuning.producer_slots = 8;
    p.workflow.tuning.high_water_mark = 4;
    p
}

/// Config B: round-robin + concurrent transfer + Preserve. The writer
/// provably never wakes, so the shared rotation is the only routing
/// influence and take order equals production order.
pub fn config_b() -> PreflightInput {
    let mut p = config_c();
    p.workflow.tuning.preserve = Preserve;
    p.backpressure = None;
    p
}

/// `(wire, cumulative steal target)` credit windows on each of `producers`
/// ranks.
fn credit_windows(producers: usize, windows: &[(u64, u64)]) -> BackpressureScript {
    let mut script = BackpressureScript::new();
    for p in (0..producers as u32).map(Rank) {
        for &(wire, target) in windows {
            script = script.with(p, wire, OpenAfterSteals(target));
        }
    }
    script
}

/// Config C's script: wire 2 held until 3 cumulative steals, wire 4 until
/// a 4th, on every producer.
pub fn config_c_script(producers: usize) -> BackpressureScript {
    credit_windows(producers, &[(2, 3), (4, 4)])
}

/// Config C: scripted partial stealing — B without Preserve, plus
/// [`config_c_script`], which pins the interleaved schedule
/// `b0 b1 | b2 b3 b4 stolen | b5 b6 | b7 stolen` on both substrates.
pub fn config_c() -> PreflightInput {
    let mut p = base();
    p.workflow.tuning.concurrent_transfer = true;
    p.workflow.tuning.routing = RoundRobin;
    p.with_backpressure(config_c_script(2))
}

/// Config C with a zero target and two equal targets, `(1, 0), (2, 3),
/// (4, 3)` on every producer: windows 1 and 4 find their targets met and
/// pass unheld, so only wire 2 holds, for `b2 b3 b4`. Non-decreasing
/// targets are valid; only a regressing one is malformed (ZV010).
pub fn equal_and_zero_targets() -> PreflightInput {
    config_c().with_backpressure(credit_windows(2, &[(1, 0), (2, 3), (4, 3)]))
}

/// Config D: degradation — transport faults (fail/drop/corrupt/delay), a
/// lost Preserve put, and a swallowed EOS tripping consumer 0's watchdog.
/// Message-only, so production order is wire order: each sender counts 8
/// data wires (ordinals 1..=8), then EOS to consumer 0 (#9) and consumer 1
/// (#10) — except sender 1, whose wire #1 `FailSend` kills destination 0,
/// so its later wires to consumer 0 are skipped uncounted.
pub fn config_d() -> PreflightInput {
    let mut p = base();
    p.workflow.tuning.preserve = Preserve;
    p.workflow.tuning.routing = RoundRobin;
    p.workflow.tuning.eos_timeout = Some(Duration::from_millis(300));
    p.with_chaos(
        ChaosPlan::new()
            .with(Sender(Rank(0)), 2, DropWire)
            .with(Sender(Rank(0)), 4, CorruptWire)
            .with(Sender(Rank(0)), 9, DropEos)
            .with(Sender(Rank(1)), 1, FailSend)
            .with(Sender(Rank(1)), 3, DelayWire(Duration::from_millis(2)))
            .with(Output(Rank(0)), 2, PfsWriteFail),
    )
}

/// Config E: recovery — writer 0's 2nd put faults and the kernel revives
/// it after the cooldown; consumer 1 crashes on read 3 and the restart
/// replays its 2-block backlog. Senders are detached and the high-water
/// mark is 0, so every block drains through the writers in production
/// order and writer put-ordinals are deterministic. The delayed EOS wire
/// is benign: it must not shift any decision.
pub fn config_e() -> PreflightInput {
    let mut p = base();
    p.workflow.tuning.high_water_mark = 0;
    p.workflow.tuning.concurrent_transfer = true;
    p.workflow.tuning.preserve = Preserve;
    p.workflow.tuning.routing = RoundRobin;
    p.workflow.tuning.recovery = RecoveryPolicy {
        writer_cooldown: Duration::from_millis(1),
        max_writer_revivals: 1,
        max_consumer_restarts: 1,
    };
    p.with_chaos(
        ChaosPlan::new()
            .with(Sender(Rank(0)), 1, DetachSender)
            .with(Sender(Rank(1)), 1, DetachSender)
            .with(Sender(Rank(1)), 2, DelayWire(Duration::from_millis(1)))
            .with(Writer(Rank(0)), 2, PfsWriteFail)
            .with(Analysis(Rank(1)), 3, CrashApp),
    )
}

/// `DropEos` in concurrent mode, watchdog armed: sender 0's net-EOS to
/// consumer 0 (ordinal 9, after 8 data wires) is swallowed while the disk
/// channel's marks still arrive.
pub fn dropped_eos_concurrent() -> PreflightInput {
    let mut p = base();
    p.workflow.tuning.concurrent_transfer = true;
    p.workflow.tuning.eos_timeout = Some(Duration::from_millis(300));
    p.with_chaos(ChaosPlan::new().with(Sender(Rank(0)), 9, DropEos))
}

/// Config B with each producer's data wire 2 both held until 3 cumulative
/// steals and chaos-scripted (producer 0: dropped on release; producer 1:
/// delayed): the gate ticks before the chaos scope on both substrates.
pub fn gate_and_chaos() -> PreflightInput {
    config_b()
        .with_backpressure(credit_windows(2, &[(2, 3)]))
        .with_chaos(ChaosPlan::new().with(Sender(Rank(0)), 2, DropWire).with(
            Sender(Rank(1)),
            2,
            DelayWire(Duration::from_micros(200)),
        ))
}

/// Config C with one credit window, `(wire 2, 3 steals)`, per producer, and
/// sender 0's wire 1 failed: consumer 0 is dead to producer 0's data wires
/// from the first one on, so its `b6` is skipped, while the IDs of the
/// `b2 b4` its writer stole for consumer 0 are still announced — the blocks
/// are on the PFS, and the dead set covers data wires only. Consumer 0
/// analyses 6 blocks on every interpreter.
pub fn fail_send_under_steal_window() -> PreflightInput {
    config_c()
        .with_backpressure(credit_windows(2, &[(2, 3)]))
        .with_chaos(ChaosPlan::new().with(Sender(Rank(0)), 1, FailSend))
}

/// Config C with faults on the data wires that carry stolen IDs: wire 3
/// (`b5`, with `b3`'s ID, to consumer 1) and wire 4 (`b6`, with `b2 b4`'s,
/// to consumer 0). Sender 0's wire 4 is dropped, sender 1's wire 3
/// corrupted and its wire 4 failed. Each faulted wire loses its block, but
/// its IDs still arrive, as the DES writer's separate messages do:
/// consumer 0 analyses 6 blocks, consumer 1 7.
pub fn faulted_wires_carrying_stolen_ids() -> PreflightInput {
    config_c().with_chaos(
        ChaosPlan::new()
            .with(Sender(Rank(0)), 4, DropWire)
            .with(Sender(Rank(1)), 3, CorruptWire)
            .with(Sender(Rank(1)), 4, FailSend),
    )
}

/// splitmix64: decorrelates the per-producer draws derived from one seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e9b5);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn env_seed(var: &str) -> u64 {
    let seed = std::env::var(var).ok().and_then(|s| s.parse().ok());
    seed.unwrap_or(42)
}

/// `ZIPPER_CHAOS_SEED` (default 42) — the CI chaos job sweeps 1..=3.
pub fn chaos_seed() -> u64 {
    env_seed("ZIPPER_CHAOS_SEED")
}

/// `ZIPPER_GATE_SEED` (default 42) — the CI backpressure job sweeps 1..=3.
pub fn gate_seed() -> u64 {
    env_seed("ZIPPER_GATE_SEED")
}

/// Seeded chaos: 4 producers, message-only, Preserve, round-robin; one
/// sender fault per producer, its kind and ordinal (confined to the 8 data
/// wires) drawn from `seed`. Any seed must conform.
pub fn seeded_chaos(seed: u64) -> PreflightInput {
    let mut state = seed;
    let kinds = [
        DropWire,
        CorruptWire,
        DelayWire(Duration::from_micros(200)),
        FailSend,
    ];
    let mut plan = ChaosPlan::new();
    for p in 0..4 {
        let ordinal = 1 + splitmix(&mut state) % 8;
        let kind = kinds[(splitmix(&mut state) % kinds.len() as u64) as usize];
        plan = plan.with(Sender(Rank(p)), ordinal, kind);
    }
    let mut p = base();
    p.workflow.producers = 4;
    p.workflow.tuning.preserve = Preserve;
    p.workflow.tuning.routing = RoundRobin;
    p.with_chaos(plan)
}

/// Seeded backpressure: Config C's shape with two credit windows per
/// producer — wire 1..=2 until 1..=2 steals, then a later wire until the
/// same or a higher cumulative target, inside the 8-block budget. The
/// first window always arms; the second arms or, on an equal target,
/// passes met; both leave the sender blocks to finish with.
pub fn seeded_gate(seed: u64) -> PreflightInput {
    let mut state = seed.wrapping_mul(0x5851_f42d_4c95_7f2d);
    let mut script = BackpressureScript::new();
    for p in 0..2 {
        let wire = 1 + splitmix(&mut state) % 2;
        let target = 1 + splitmix(&mut state) % 2;
        let later = wire + 1 + splitmix(&mut state) % 2;
        let raise = splitmix(&mut state) % (8 - later - target);
        script = script.with(Rank(p), wire, OpenAfterSteals(target));
        script = script.with(Rank(p), later, OpenAfterSteals(target + raise));
    }
    config_c().with_backpressure(script)
}

/// Every plan the suites run, seeded entries reading the environment like
/// the tests do: all must pass `Preflight::check` with zero errors.
pub fn accepted_plans() -> Vec<(String, PreflightInput)> {
    let (chaos, gate) = (chaos_seed(), gate_seed());
    vec![
        ("config A".into(), config_a()),
        ("config B".into(), config_b()),
        ("config C".into(), config_c()),
        ("config D".into(), config_d()),
        ("config E".into(), config_e()),
        ("equal and zero targets".into(), equal_and_zero_targets()),
        ("dropped EOS, concurrent".into(), dropped_eos_concurrent()),
        ("gate + chaos on one wire".into(), gate_and_chaos()),
        (
            "FailSend under a steal window".into(),
            fail_send_under_steal_window(),
        ),
        (
            "faulted wires carrying stolen IDs".into(),
            faulted_wires_carrying_stolen_ids(),
        ),
        (format!("seeded chaos (seed {chaos})"), seeded_chaos(chaos)),
        (format!("seeded gate (seed {gate})"), seeded_gate(gate)),
    ]
}

/// Crafted-bad plans, each rejected with its own documented code.
pub fn negative_plans() -> Vec<(&'static str, PreflightInput, ZvCode)> {
    let unsat = config_c().with_backpressure(credit_windows(1, &[(6, 5)]));
    // Base shape: 8 data wires + 2 EOS marks = 10 sender operations.
    let dead = base().with_chaos(ChaosPlan::new().with(Sender(Rank(0)), 11, DropWire));
    let crash = base().with_chaos(ChaosPlan::new().with(Analysis(Rank(0)), 2, CrashApp));
    let mut overflow = base();
    overflow.workflow.tuning.block_size = ByteSize::bytes(1);
    overflow.workflow.bytes_per_rank_step = ByteSize::bytes(TAG_BLOCK_LIMIT + 1);
    vec![
        ("unsatisfiable window", unsat, ZvCode::UnsatisfiableWindow),
        ("dead chaos ordinal", dead, ZvCode::DeadOrdinal),
        ("zero-budget CrashApp", crash, ZvCode::UnhealedCrash),
        ("tag-overflow plan", overflow, ZvCode::TagBlockOverflow),
    ]
}
