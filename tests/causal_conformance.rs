//! Causal conformance: the threaded runtime and the DES record the same
//! cross-entity edge taxonomy, so a run with identical workload
//! parameters must yield *structurally identical* causal graphs on both
//! substrates — the same multiset of `kind:src-role=>dst-role` cross
//! edges ([`CausalGraph::edge_profile`]), because the edges are
//! decision-determined and the decisions conform (`policy_conformance`).
//! That includes a requeue's own queue edge (`queue:X=>X`, the writer
//! re-taking the block its faulted put sent back, the restarted app
//! re-reading its replayed backlog): the threaded runtime pairs a queue
//! edge's halves by the block that moved, not by the order they were
//! recorded in, and the DES records it whole from the taken item's put.
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
//! The plans are Configs B, C and E of the catalogue
//! (`zipper_policy::conformance`), the same values the
//! decision-conformance suite (`policy_conformance.rs`) runs.
//!
//! Each config also checks the attribution invariant on both substrates:
//! the per-bucket breakdown of the extracted path sums to the graph
//! makespan within 1 %.

mod common;

use zipper_policy::conformance;
use zipper_policy::PreflightInput;
use zipper_trace::{CausalGraph, CriticalPath};
use zipper_workflow::TraceOptions;

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

/// Run both substrates, assert the graph-level structural conformance
/// (identical cross-edge profiles) and the per-substrate path invariants
/// no schedule can change: attribution sums to the makespan, and the path
/// drains through analysis into the virtual sink.
fn assert_conformant(name: &str, plan: &PreflightInput) -> Conformance {
    let report = common::run_threaded(plan, TraceOptions::full().with_causal());
    let tg = report.causal_graph();
    let threaded_path = path_signature(&format!("{name} threaded"), &tg);

    let r = common::run_des(plan);
    let dg = CausalGraph::build(&r.trace, &r.causal);
    let des_path = path_signature(&format!("{name} DES"), &dg);

    let profile = tg.edge_profile();
    assert_eq!(
        profile,
        dg.edge_profile(),
        "{name}: causal graph structure diverges across substrates",
    );
    if plan.chaos.is_none() {
        assert_eq!(
            (report.causal.unjoined(), r.causal.unjoined()),
            (0, 0),
            "{name}: a fault-free run joins every half it records",
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

/// Config B: every block rides the wire, so the graph carries wire edges
/// and no steal edge, and the DES path threads compute → send → wire →
/// receive → analysis.
#[test]
fn config_b_critical_paths_conform() {
    let c = assert_conformant("config B", &conformance::config_b());
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

/// Config C: both graphs carry the same gate holds, steal edges and PFS
/// fetches of the stolen blocks; the last routed block (ordinal 8) is stolen
/// on both substrates, and on the DES clock (the modeled PFS dominates the
/// modeled NIC) its fetch binds the path. The threaded wall clock may
/// instead bind through the wire (`wire:sim/send=>ana/recv`), so only the
/// graph is pinned there.
#[test]
fn config_c_critical_paths_conform() {
    let c = assert_conformant("config C", &conformance::config_c());
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

/// A failed data send under a credit window: both graphs carry all six
/// steal edges, including the two whose blocks producer 0's writer stole
/// for the consumer its sender lost.
#[test]
fn fail_send_under_a_steal_window_conforms() {
    let c = assert_conformant(
        "FailSend under a steal window",
        &conformance::fail_send_under_steal_window(),
    );
    let steals = c
        .profile
        .iter()
        .find(|(sig, _)| sig == "steal:sim/writer=>ana/recv");
    assert_eq!(steals.map(|&(_, n)| n), Some(6), "{:?}", c.profile);
}

/// Config E: both substrates must degrade *and heal* through the same
/// causal structure.
#[test]
fn config_e_critical_paths_conform() {
    let c = assert_conformant("config E", &conformance::config_e());
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
