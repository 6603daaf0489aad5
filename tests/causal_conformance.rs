//! Causal conformance: the threaded runtime and the DES record the same
//! cross-entity edge taxonomy, so a run with identical workload
//! parameters must yield *structurally identical* causal graphs on both
//! substrates — the same multiset of `kind:src-role=>dst-role` cross
//! edges ([`CausalGraph::edge_profile`]), because the edges are
//! decision-determined and the decisions conform (`policy_conformance`).
//! Timing differs arbitrarily (wall clock vs. virtual clock); the causal
//! structure may not.
//!
//! The *critical path* through those identical graphs is a different
//! matter: which of several chains binds depends on the clock. The DES
//! clock is deterministic, so exact path signatures are asserted there.
//! The threaded wall clock ranks competing chains differently from run to
//! run (an in-process wire transfer can be slower than a MemFs put; the
//! modeled PFS dominates the modeled NIC in virtual time), so on the
//! threaded side the tests assert only what no schedule can change: the
//! path drains through analysis into the virtual sink, and the edge kinds
//! the config forces are present in the *graph*.
//!
//! The configs mirror the decision-conformance suite
//! (`policy_conformance.rs`):
//!
//! * Config B — round-robin + concurrent transfer + Preserve, no steals.
//! * Config C — scripted partial stealing through a shared
//!   `BackpressureScript` (gate holds and steal edges on the path's
//!   producers).
//! * Config E — recovery under a scripted `ChaosPlan` (writer fault +
//!   revival, consumer crash + restart).
//!
//! Each config also checks the attribution invariant on both substrates:
//! the per-bucket breakdown of the extracted path sums to the graph
//! makespan within 1 %.

use std::time::Duration;
use zipper_trace::{CausalGraph, CausalLog, CriticalPath, TraceLog};
use zipper_transports::spec::{sim_config, ClusterLayout, WorkflowSpec};
use zipper_transports::zipper::{build_recorded, reclassify_causal};
use zipper_types::{
    BackpressureScript, ByteSize, ChaosEntity, ChaosFault, ChaosPlan, GateRule, GlobalPos,
    PreserveMode, Rank, RecoveryPolicy, RoutingPolicy, StepId, WorkflowConfig,
};
use zipper_workflow::{
    run_workflow_with, NetworkOptions, RunOptions, TraceOptions, WorkflowReport,
};

const BLOCK: u64 = 16 << 10;

/// One conformance scenario, expressed substrate-independently (the
/// causal subset of `policy_conformance::Scenario`).
#[derive(Clone)]
struct Scenario {
    producers: usize,
    consumers: usize,
    steps: u64,
    blocks_per_step: u64,
    producer_slots: usize,
    high_water_mark: usize,
    concurrent_transfer: bool,
    preserve: bool,
    routing: RoutingPolicy,
    chaos: ChaosPlan,
    recovery: RecoveryPolicy,
    backpressure: Option<BackpressureScript>,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            producers: 2,
            consumers: 2,
            steps: 2,
            blocks_per_step: 4,
            producer_slots: 16,
            high_water_mark: 8,
            concurrent_transfer: false,
            preserve: false,
            routing: RoutingPolicy::SourceAffine,
            chaos: ChaosPlan::new(),
            recovery: RecoveryPolicy::default(),
            backpressure: None,
        }
    }
}

impl Scenario {
    fn threaded_config(&self) -> WorkflowConfig {
        let mut c = WorkflowConfig {
            producers: self.producers,
            consumers: self.consumers,
            steps: self.steps,
            bytes_per_rank_step: ByteSize::bytes(self.blocks_per_step * BLOCK),
            ..Default::default()
        };
        c.tuning.block_size = ByteSize::bytes(BLOCK);
        c.tuning.producer_slots = self.producer_slots;
        c.tuning.high_water_mark = self.high_water_mark;
        c.tuning.concurrent_transfer = self.concurrent_transfer;
        c.tuning.preserve = if self.preserve {
            PreserveMode::Preserve
        } else {
            PreserveMode::NoPreserve
        };
        c.tuning.routing = self.routing;
        c.tuning.recovery = self.recovery;
        c
    }

    fn des_spec(&self) -> WorkflowSpec {
        let mut s = WorkflowSpec::synthetic(
            zipper_apps::Complexity::Linear,
            self.producers,
            self.consumers,
            self.blocks_per_step * BLOCK,
            BLOCK,
        );
        s.steps = self.steps;
        s.ranks_per_node = 2;
        s.producer_slots = self.producer_slots;
        s.high_water_mark = self.high_water_mark;
        s.concurrent_transfer = self.concurrent_transfer;
        s.preserve = self.preserve;
        s.routing = self.routing;
        s.chaos = (!self.chaos.is_empty()).then(|| self.chaos.clone());
        s.recovery = self.recovery;
        s.backpressure = self.backpressure.clone();
        s
    }

    fn net_options(&self) -> NetworkOptions {
        match &self.backpressure {
            Some(script) => NetworkOptions::default().with_backpressure(script.clone()),
            None => NetworkOptions::default(),
        }
    }

    /// Run on the threaded substrate with full tracing + causal edges.
    fn run_threaded(&self) -> WorkflowReport {
        let cfg = self.threaded_config();
        let steps = cfg.steps;
        let slab = cfg.bytes_per_rank_step.as_u64() as usize;
        let produce = move |rank: Rank, writer: &zipper_core::ZipperWriter| {
            for s in 0..steps {
                let payload = vec![rank.0 as u8; slab];
                writer.write_slab(StepId(s), GlobalPos::default(), payload.into());
            }
        };
        let consume = |_: Rank, reader: &zipper_core::ZipperReader| {
            while reader.read().is_some() {}
        };
        let opts = RunOptions {
            net: self.net_options(),
            trace: TraceOptions::full().with_causal(),
            chaos: Some(self.chaos.clone()),
            ..Default::default()
        };
        let (report, _): (_, Vec<()>) =
            run_workflow_with(&cfg, opts, produce, consume).expect("ungated");
        if self.chaos.is_empty() {
            report.assert_complete();
        } else {
            // Injected faults surface as per-rank runtime errors by
            // design; the run itself must not lose an app rank.
            assert!(report.failures.is_empty(), "{:?}", report.failures);
        }
        report
    }

    /// Run on the DES with causal edges; return the span trace and the
    /// model-reclassified edge log.
    fn run_des(&self) -> (TraceLog, CausalLog) {
        let spec = self.des_spec();
        let layout = ClusterLayout::new(&spec, 0);
        let mut sim = hpcsim::Simulator::new(sim_config(&spec, &layout));
        sim.set_trace_detail(true);
        sim.enable_causal();
        let _policies = build_recorded(&mut sim, &spec, &layout);
        let r = sim.run();
        assert!(r.is_clean(), "DES run not clean: {r:?}");
        let mut causal = sim.take_causal().expect("causal enabled");
        reclassify_causal(&mut causal);
        (sim.into_trace(), causal)
    }
}

/// Extract the critical path, check the attribution invariant (buckets
/// sum to the graph makespan within 1 %), and return the structural
/// signature.
fn path_signature(name: &str, graph: &CausalGraph) -> Vec<String> {
    let path = CriticalPath::extract(graph)
        .unwrap_or_else(|| panic!("{name}: no critical path extracted"));
    let total = path.attribution.total().as_secs_f64();
    let makespan = path.attribution.makespan.as_secs_f64();
    assert!(makespan > 0.0, "{name}: empty makespan");
    let err = (total - makespan).abs() / makespan;
    assert!(
        err <= 0.01,
        "{name}: attribution {total}s vs makespan {makespan}s ({:.2}% off)\n{}",
        err * 100.0,
        path.attribution.table(),
    );
    path.signature(graph)
}

/// What both substrates agreed on, plus the one path signature a test
/// may pin (the threaded path's route varies run to run with the wall
/// clock; its schedule-independent tail is checked in
/// [`assert_conformant`]).
struct Conformance {
    /// The shared cross-edge profile (`kind:src-role=>dst-role`, count).
    profile: Vec<(String, usize)>,
    /// The DES critical path (virtual clock: deterministic).
    des_path: Vec<String>,
}

impl Conformance {
    fn has_edge(&self, sig: &str) -> bool {
        self.profile.iter().any(|(s, _)| s == sig)
    }

    fn has_kind(&self, kind: &str) -> bool {
        self.profile.iter().any(|(s, _)| s.starts_with(kind))
    }
}

/// A requeue's self-lane queue edge, `queue:X=>X`: the writer re-taking
/// the block its faulted put sent back, the restarted app re-reading its
/// replayed backlog.
fn is_requeue(sig: &str) -> bool {
    sig.strip_prefix("queue:")
        .and_then(|roles| roles.split_once("=>"))
        .is_some_and(|(src, dst)| src == dst)
}

/// Run both substrates, assert the graph-level structural conformance
/// (identical cross-edge profiles) and the per-substrate path invariants
/// no schedule can change: attribution sums to the makespan, and the path
/// drains through analysis into the virtual sink.
fn assert_conformant(name: &str, sc: &Scenario) -> Conformance {
    let report = sc.run_threaded();
    let tg = report.causal_graph();
    let threaded_path = path_signature(&format!("{name} threaded"), &tg);

    let (trace, causal) = sc.run_des();
    let dg = CausalGraph::build(&trace, &causal);
    let des_path = path_signature(&format!("{name} DES"), &dg);

    let (t_requeues, profile): (Vec<_>, Vec<_>) = tg
        .edge_profile()
        .into_iter()
        .partition(|(sig, _)| is_requeue(sig));
    let (d_requeues, d_profile): (Vec<_>, Vec<_>) = dg
        .edge_profile()
        .into_iter()
        .partition(|(sig, _)| is_requeue(sig));
    assert_eq!(
        profile, d_profile,
        "{name}: causal graph structure diverges across substrates",
    );
    // Requeue edges may only go *missing* on the threaded side: the FIFO
    // join pairs queue halves in record order, and a thread records its
    // half after the queue operation itself, so a requeue's push can pair
    // with a pop recorded just before it — a zero-length pair on one lane,
    // which is no edge in the graph.
    for (sig, n) in &t_requeues {
        let des = d_requeues.iter().find(|(s, _)| s == sig).map(|(_, n)| *n);
        assert!(
            des.is_some_and(|d| *n <= d),
            "{name}: {n} x {sig} on threads, {des:?} on the DES",
        );
    }
    for (which, sig) in [("threaded", &threaded_path), ("DES", &des_path)] {
        assert_eq!(
            sig.last().map(String::as_str),
            Some("·"),
            "{name} {which}: path must reach the virtual sink: {sig:?}"
        );
        assert_eq!(
            sig.get(sig.len().saturating_sub(2)).map(String::as_str),
            Some("ana/app"),
            "{name} {which}: path must drain through analysis: {sig:?}"
        );
    }
    Conformance { profile, des_path }
}

/// Config B: round-robin + concurrent transfer + Preserve, high-water
/// mark at run size so no steals. Every block rides the wire, so the graph
/// carries wire edges and no steal edge, and the DES path threads compute
/// → send → wire → receive → analysis.
#[test]
fn config_b_critical_paths_conform() {
    let sc = Scenario {
        producers: 2,
        consumers: 2,
        steps: 2,
        blocks_per_step: 4,
        producer_slots: 16,
        high_water_mark: 8,
        concurrent_transfer: true,
        preserve: true,
        routing: RoutingPolicy::RoundRobin,
        ..Scenario::default()
    };
    let c = assert_conformant("config B", &sc);
    assert!(
        c.has_edge("wire:sim/send=>ana/recv"),
        "every block crosses the data wire: {:?}",
        c.profile
    );
    assert!(
        !c.has_kind("steal:"),
        "hwm at run size: no steal edges in the graph: {:?}",
        c.profile
    );
    let d = c.des_path.join(" ");
    assert!(
        d.contains("wire:sim/send=>ana/recv"),
        "config B DES: the path must cross the data wire: {d}"
    );
    assert!(
        !d.contains("steal:"),
        "config B DES: no steal edges on the path: {d}"
    );
}

/// The Config C backpressure script (same as `policy_conformance`): wire
/// 2 held until 3 cumulative steals, wire 4 until a 4th.
fn config_c_script(producers: usize) -> BackpressureScript {
    let mut script = BackpressureScript::new();
    for p in 0..producers {
        script = script
            .with(Rank(p as u32), 2, GateRule::OpenAfterSteals(3))
            .with(Rank(p as u32), 4, GateRule::OpenAfterSteals(4));
    }
    script
}

/// Config C: scripted partial stealing. Both graphs carry the same gate
/// holds, steal edges and PFS fetches of the stolen blocks; the last routed
/// block (ordinal 8) is stolen on both substrates, and on the DES clock
/// (the modeled PFS dominates the modeled NIC) its fetch binds the path.
/// The threaded wall clock may instead bind through the wire
/// (`wire:sim/send=>ana/recv`), so only the graph is pinned there.
#[test]
fn config_c_critical_paths_conform() {
    let sc = Scenario {
        producers: 2,
        consumers: 2,
        steps: 2,
        blocks_per_step: 4,
        producer_slots: 16,
        high_water_mark: 8, // == total blocks per rank: no unscripted steals
        concurrent_transfer: true,
        preserve: false,
        routing: RoutingPolicy::RoundRobin,
        backpressure: Some(config_c_script(2)),
        ..Scenario::default()
    };
    let c = assert_conformant("config C", &sc);
    for sig in [
        "steal:sim/writer=>ana/recv",
        "pfs:ana/read=>ana/read",
        "queue:ana/read=>ana/app",
    ] {
        assert!(
            c.has_edge(sig),
            "config C: the stolen blocks reach analysis via {sig}: {:?}",
            c.profile
        );
    }
    assert!(c.has_kind("gate:"), "gate holds recorded: {:?}", c.profile);
    let d = c.des_path.join(" ");
    assert!(
        d.contains("pfs:ana/read=>ana/read"),
        "config C DES: the stolen final block binds via PFS: {d}"
    );
    assert!(
        d.contains("queue:ana/read=>ana/app"),
        "config C DES: the fetch feeds the analysis queue: {d}"
    );
}

/// Config E: recovery. A PFS write fault retires and revives producer
/// 0's writer; a scripted crash kills consumer 1 and the restart
/// supervisor replays its backlog. Both substrates must degrade *and
/// heal* through the same causal structure.
#[test]
fn config_e_critical_paths_conform() {
    let sc = Scenario {
        high_water_mark: 0,
        concurrent_transfer: true,
        preserve: true,
        routing: RoutingPolicy::RoundRobin,
        recovery: RecoveryPolicy {
            writer_cooldown: Duration::from_millis(1),
            max_writer_revivals: 1,
            max_consumer_restarts: 1,
        },
        chaos: ChaosPlan::new()
            .with(ChaosEntity::Sender(Rank(0)), 1, ChaosFault::DetachSender)
            .with(ChaosEntity::Sender(Rank(1)), 1, ChaosFault::DetachSender)
            .with(
                ChaosEntity::Sender(Rank(1)),
                2,
                ChaosFault::DelayWire(Duration::from_millis(1)),
            )
            .with(ChaosEntity::Writer(Rank(0)), 2, ChaosFault::PfsWriteFail)
            .with(ChaosEntity::Analysis(Rank(1)), 3, ChaosFault::CrashApp),
        ..Scenario::default()
    };
    let c = assert_conformant("config E", &sc);
    // The DES clock is deterministic: its path always rides the steal
    // route and binds the stolen block through its PFS fetch.
    let d = c.des_path.join(" ");
    assert!(
        d.contains("steal:sim/writer=>ana/recv") && d.contains("pfs:ana/read=>ana/read"),
        "config E DES: detached senders drain via steal + PFS: {d}"
    );
    // The threaded wall clock picks among several no-slack chains run to
    // run (the steal route, the EOS-triggered drain, or — on a loaded
    // machine — the restarted analysis lane alone), so only the graph is
    // pinned there: the detached senders' blocks cross into analysis by
    // the steal route.
    assert!(
        c.has_edge("steal:sim/writer=>ana/recv") && c.has_edge("pfs:ana/read=>ana/read"),
        "config E: detached senders drain via steal + PFS: {:?}",
        c.profile
    );
}
