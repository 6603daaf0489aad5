//! Cross-crate telemetry integration: DES model-fit accuracy, exporter
//! round trips, and the byte-stable Chrome-trace golden file.

use zipper_model::Prediction;
use zipper_trace::export::{chrome_trace, jsonl, validate_json, validate_jsonl};
use zipper_trace::{CausalGraph, CounterId, CriticalPath};
use zipper_transports::{run_with_detail, TransportKind, TransportResult, WorkflowSpec};
use zipper_workflow::ModelFit;

/// Documented model-fit tolerance on the deterministic DES example: every
/// phase of the §4.4 model matches the measured lane totals within 10 %.
/// (See DESIGN.md "Observability" for why the bound is loose: the model
/// ignores pipeline fill/drain and halo exchange.)
const FIT_TOLERANCE: f64 = 0.10;

fn tiny_cfd() -> WorkflowSpec {
    let mut s = WorkflowSpec::cfd(4, 2, 3);
    s.ranks_per_node = 2;
    s.staging_servers = 2;
    s.decaf_links = 2;
    s
}

#[test]
fn des_model_fit_within_documented_tolerance() {
    // More steps than the export tests: the §4.4 model assumes the block
    // count dwarfs the pipeline depth, so a longer run amortizes the
    // fill/drain transient that the model deliberately ignores.
    let mut spec = tiny_cfd();
    spec.steps = 12;
    let r = run_with_detail(TransportKind::Zipper, &spec, true);
    assert!(r.is_clean());
    let prediction = Prediction::from_input(&spec.model_input());
    let fit = ModelFit::from_trace(&r.trace, r.end_to_end, &prediction);
    assert!(
        fit.within(FIT_TOLERANCE),
        "max phase error {:.1}% exceeds {:.0}%\n{}",
        fit.max_error() * 100.0,
        FIT_TOLERANCE * 100.0,
        fit.table(),
    );
    // The table names every phase.
    let t = fit.table();
    for needle in ["comp", "transfer", "analysis", "t2s"] {
        assert!(t.contains(needle), "{t}");
    }
}

/// Acceptance gate for the causal engine: on the deterministic DES, the
/// critical-path verdict and the §4.4 model's `max(T_comp, T_transfer,
/// T_analysis)` argmax must name the same bottleneck — on the quickstart
/// example's shape and on the scaling_sim example's smallest ladder
/// point.
#[test]
fn critical_path_verdict_agrees_with_model_argmax() {
    let mut quickstart = WorkflowSpec::synthetic(
        zipper_apps::Complexity::Linear,
        4,
        2,
        2 << 20,   // 2 MiB per rank-step,
        256 << 10, // in 256 KiB blocks (examples/quickstart.rs)
    );
    quickstart.steps = 8;
    quickstart.ranks_per_node = 2;
    let mut scaling = WorkflowSpec::cfd(32, 16, 8); // scaling_sim, 48 cores
    scaling.decaf_links = 16;
    for (name, spec) in [("quickstart", quickstart), ("scaling_sim/48", scaling)] {
        let r = run_with_detail(TransportKind::Zipper, &spec, true);
        assert!(r.is_clean(), "{name}: {:?} {:?}", r.fault, r.deadlocked);
        let graph = CausalGraph::build(&r.trace, &r.causal);
        let path =
            CriticalPath::extract(&graph).unwrap_or_else(|| panic!("{name}: no critical path"));
        let verdict = path.attribution.verdict();
        let prediction = Prediction::from_input(&spec.model_input());
        let fit = ModelFit::from_trace(&r.trace, r.end_to_end, &prediction);
        assert!(
            fit.agrees_with(verdict),
            "{name}: measured verdict {verdict} vs model argmax {}\n{}\n{}",
            fit.verdict(),
            path.attribution.table(),
            fit.table(),
        );
    }
}

#[test]
fn des_exports_round_trip_a_real_run() {
    let spec = tiny_cfd();
    let r = run_with_detail(TransportKind::Zipper, &spec, true);
    assert!(r.is_clean());
    let chrome = chrome_trace(&r.trace, Some(&r.samples), None);
    validate_json(&chrome).expect("chrome trace must be valid JSON");
    assert!(chrome.contains("\"traceEvents\""));
    let lines = jsonl(&r.trace, Some(&r.samples), None);
    let n = validate_jsonl(&lines).expect("JSONL must be valid");
    // Meta line + every span + every sample.
    assert_eq!(n, 1 + r.trace.spans().len() + r.samples.len());
    // Sampled congestion counters appear in both formats.
    assert!(r.metrics.counter(CounterId::NetBytes) > 0);
    assert!(chrome.contains("net.bytes"), "counter events exported");
    assert!(lines.contains("net.bytes"));
}

/// Deterministic text rendering of a run's critical path: verdict,
/// structural signature, attribution table, and what-if sweep. Golden
/// below; any intentional change to the engine shows up as a reviewable
/// diff of this form.
fn render_critical_path(r: &TransportResult) -> String {
    let graph = CausalGraph::build(&r.trace, &r.causal);
    let path = CriticalPath::extract(&graph).expect("critical path");
    let mut out = String::new();
    out.push_str(&format!("makespan   {}\n", graph.makespan()));
    out.push_str(&format!("verdict    {}\n", path.attribution.verdict()));
    out.push_str("signature:\n");
    for s in path.signature(&graph) {
        out.push_str(&format!("  {s}\n"));
    }
    out.push_str("attribution:\n");
    out.push_str(&path.attribution.table());
    out.push_str("what-if:\n");
    for w in graph.what_if_sweep() {
        out.push_str(&format!("  {w}\n"));
    }
    out
}

#[test]
fn critical_path_golden_snapshot() {
    // Same tiny deterministic run as the Chrome-trace golden, so the two
    // files describe one workflow from two angles.
    let mut spec = WorkflowSpec::cfd(2, 1, 2);
    spec.ranks_per_node = 2;
    spec.staging_servers = 1;
    spec.decaf_links = 1;
    let a = run_with_detail(TransportKind::Zipper, &spec, true);
    let b = run_with_detail(TransportKind::Zipper, &spec, true);
    assert!(a.is_clean() && b.is_clean());
    let ra = render_critical_path(&a);
    assert_eq!(
        ra,
        render_critical_path(&b),
        "same spec must yield byte-identical critical paths"
    );

    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/tiny_cfd_critical_path.txt"
    );
    if std::env::var_os("ZIPPER_REGOLD").is_some() {
        std::fs::write(golden_path, &ra).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("missing golden file; run with ZIPPER_REGOLD=1 to (re)generate");
    assert_eq!(
        ra, golden,
        "critical path drifted from the committed golden file \
         (ZIPPER_REGOLD=1 regenerates after intentional changes)"
    );
}

#[test]
fn chrome_trace_export_is_byte_stable() {
    // A smaller deterministic run keeps the golden file reviewable.
    let mut spec = WorkflowSpec::cfd(2, 1, 2);
    spec.ranks_per_node = 2;
    spec.staging_servers = 1;
    spec.decaf_links = 1;
    let a = run_with_detail(TransportKind::Zipper, &spec, true);
    let b = run_with_detail(TransportKind::Zipper, &spec, true);
    assert!(a.is_clean() && b.is_clean());
    let ja = chrome_trace(&a.trace, Some(&a.samples), None);
    let jb = chrome_trace(&b.trace, Some(&b.samples), None);
    assert_eq!(ja, jb, "same spec must export byte-identical traces");
    validate_json(&ja).expect("valid JSON");

    // Golden file: regenerate with ZIPPER_REGOLD=1 when the trace layout
    // intentionally changes.
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/tiny_cfd_trace.json"
    );
    if std::env::var_os("ZIPPER_REGOLD").is_some() {
        std::fs::write(golden_path, &ja).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("missing golden file; run with ZIPPER_REGOLD=1 to (re)generate");
    assert_eq!(
        ja, golden,
        "Chrome-trace export drifted from the committed golden file \
         (ZIPPER_REGOLD=1 regenerates after intentional changes)"
    );
}
