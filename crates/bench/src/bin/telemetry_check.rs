//! CI gate for flight-recorder exports: validate that every file an
//! example produced is well-formed, that the congestion counters
//! actually made it into the export, and that causal flow events (when
//! present) are correctly paired.
//!
//! Usage: `telemetry_check [--causal] [--preflight] FILE...` — `.json`
//! files are checked as Chrome traces (balanced JSON with a
//! `traceEvents` array), `.jsonl` files line by line. `--causal`
//! additionally runs a tiny deterministic DES workflow in-process and
//! asserts the critical-path engine's invariants (acyclic path,
//! contiguous hops, attribution bounded by the makespan, ×1.0 what-if
//! identity, verdict agreement with the §4.4 model). `--preflight` runs
//! the static plan verifier over the conformance catalogue
//! (`zipper_policy::conformance`, the very values the suites run) —
//! including the seeded plans the CI matrices derive from
//! `ZIPPER_CHAOS_SEED`/`ZIPPER_GATE_SEED` — so a seeded matrix failure
//! is classified up front as plan-invalid (preflight rejects it here)
//! vs conformance-broken (preflight accepts it and the later diff
//! failed); the catalogue's negative plans double as a self-test of the
//! rejection codes. Exits nonzero on the first failure, so a CI step can run an
//! example with `ZIPPER_EXPORT_DIR` set and then gate on this.

use std::process::ExitCode;
use zipper_model::Prediction;
use zipper_policy::{conformance, Preflight};
use zipper_trace::export::{validate_json, validate_jsonl};
use zipper_trace::{Bucket, CausalGraph, CriticalPath};
use zipper_transports::{run_with_detail, TransportKind, WorkflowSpec};
use zipper_workflow::ModelFit;

fn check(path: &str) -> Result<String, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    if body.is_empty() {
        return Err("empty export".into());
    }
    if path.ends_with(".jsonl") {
        let events = validate_jsonl(&body)?;
        if events < 2 {
            return Err(format!("only {events} events — no spans exported"));
        }
        let flows = body.matches("\"type\":\"flow\"").count();
        Ok(format!("{events} events ({flows} flow records)"))
    } else if path.ends_with(".json") {
        validate_json(&body)?;
        if !body.contains("\"traceEvents\"") {
            return Err("not a Chrome trace: missing traceEvents".into());
        }
        if !body.contains("net.bytes") {
            return Err("no telemetry counters in trace".into());
        }
        // Causal flow events ride in pairs: every `s` (start) needs its
        // binding `f` (finish) or Perfetto draws dangling arrows.
        let starts = body.matches("\"cat\":\"causal\",\"ph\":\"s\"").count();
        let finishes = body.matches("\"cat\":\"causal\",\"ph\":\"f\"").count();
        if starts != finishes {
            return Err(format!(
                "unbalanced flow events: {starts} starts vs {finishes} finishes"
            ));
        }
        Ok(format!(
            "{} bytes of Chrome trace ({starts} flow pairs)",
            body.len()
        ))
    } else {
        Err("unknown extension (expected .json or .jsonl)".into())
    }
}

/// Run the tiny deterministic CFD workflow on the DES and hold the
/// causal engine to its invariants. Same spec as the golden-file tests,
/// so CI exercises the exact configuration the snapshots pin.
fn check_causal_invariants() -> Result<String, String> {
    let mut spec = WorkflowSpec::cfd(2, 1, 2);
    spec.ranks_per_node = 2;
    spec.staging_servers = 1;
    spec.decaf_links = 1;
    let r = run_with_detail(TransportKind::Zipper, &spec, true);
    if !r.is_clean() {
        return Err(format!("run not clean: {:?} {:?}", r.fault, r.deadlocked));
    }
    let graph = CausalGraph::build(&r.trace, &r.causal);
    let path = CriticalPath::extract(&graph).ok_or("no critical path extracted")?;
    if path.hops.is_empty() {
        return Err("empty critical path".into());
    }
    for pair in path.hops.windows(2) {
        if pair[0].dst != pair[1].src {
            return Err("hops do not chain contiguously".into());
        }
    }
    for h in &path.hops {
        if h.src >= h.dst {
            return Err("non-forward hop: path not acyclic".into());
        }
    }
    let (total, makespan) = (path.attribution.total(), graph.makespan());
    if total > makespan {
        return Err(format!("path weight {total} exceeds makespan {makespan}"));
    }
    let wf = graph.what_if(Bucket::Comp, 1.0);
    let measured = makespan.as_nanos() as f64;
    if (wf.predicted_ns - measured).abs() > 1.0 {
        return Err(format!(
            "×1.0 what-if does not reproduce the makespan: {} vs {measured}",
            wf.predicted_ns
        ));
    }
    let verdict = path.attribution.verdict();
    let fit = ModelFit::from_trace(
        &r.trace,
        r.end_to_end,
        &Prediction::from_input(&spec.model_input()),
    );
    if !fit.agrees_with(verdict) {
        return Err(format!(
            "verdict {verdict} disagrees with model argmax {}",
            fit.verdict()
        ));
    }
    Ok(format!(
        "{} hops, verdict {verdict}, weight {total} / makespan {makespan}",
        path.hops.len()
    ))
}

/// `--preflight`: every conformance plan is accepted with zero errors,
/// every crafted-bad plan is rejected with its documented code.
fn check_preflight() -> Result<String, String> {
    let plans = conformance::accepted_plans();
    for (name, plan) in &plans {
        let report = Preflight::check(plan);
        if report.is_rejected() {
            return Err(format!(
                "{name} rejected by preflight:\n{}",
                report.render()
            ));
        }
    }
    let negatives = conformance::negative_plans();
    for (name, plan, want) in &negatives {
        let report = Preflight::check(plan);
        if !report.is_rejected() || !report.has(*want) {
            return Err(format!(
                "{name} must be rejected with {} ({want:?}):\n{}",
                want.code(),
                report.render()
            ));
        }
    }
    Ok(format!(
        "{} conformance plans accepted, {} negative plans rejected with their documented codes",
        plans.len(),
        negatives.len()
    ))
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let causal = args.iter().any(|a| a == "--causal");
    let preflight = args.iter().any(|a| a == "--preflight");
    args.retain(|a| a != "--causal" && a != "--preflight");
    if args.is_empty() && !causal && !preflight {
        eprintln!("usage: telemetry_check [--causal] [--preflight] FILE...");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    if preflight {
        match check_preflight() {
            Ok(detail) => println!("ok   static preflight: {detail}"),
            Err(why) => {
                eprintln!("FAIL static preflight: {why}");
                failed = true;
            }
        }
    }
    if causal {
        match check_causal_invariants() {
            Ok(detail) => println!("ok   critical-path invariants: {detail}"),
            Err(why) => {
                eprintln!("FAIL critical-path invariants: {why}");
                failed = true;
            }
        }
    }
    for path in &args {
        match check(path) {
            Ok(detail) => println!("ok   {path}: {detail}"),
            Err(why) => {
                eprintln!("FAIL {path}: {why}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
