//! Shared by the conformance suites: run one catalogue plan
//! (`zipper_policy::conformance`) on each substrate, every interpreter
//! deriving its input from the same `PreflightInput`.
#![allow(dead_code)]

use zipper_core::{ZipperReader, ZipperWriter};
use zipper_policy::PreflightInput;
use zipper_transports::{run_with_detail, TransportKind, TransportResult, WorkflowSpec};
use zipper_types::{GlobalPos, Rank, StepId, WorkflowConfig};
use zipper_workflow::{
    run_workflow_with, NetworkOptions, RunOptions, TraceOptions, WorkflowReport,
};

/// The threaded driver's reading of a plan: its scripts as run options
/// (the workflow itself is passed beside them).
pub fn threaded_options(plan: &PreflightInput, trace: TraceOptions) -> RunOptions {
    RunOptions {
        net: NetworkOptions {
            backpressure: plan.backpressure.clone(),
            ..Default::default()
        },
        trace,
        chaos: plan.chaos.clone(),
        ..Default::default()
    }
}

/// The producer application of every conformance run: one rank-stamped
/// slab per step.
pub fn write_slabs(cfg: &WorkflowConfig) -> impl Fn(Rank, &ZipperWriter) + Copy + Send + Sync {
    let steps = cfg.steps;
    let slab = cfg.bytes_per_rank_step.as_u64() as usize;
    move |rank, writer| {
        for s in 0..steps {
            let payload = vec![rank.0 as u8; slab];
            writer.write_slab(StepId(s), GlobalPos::default(), payload.into());
        }
    }
}

/// The consumer application of every conformance run: drain the reader.
pub fn drain(_: Rank, reader: &ZipperReader) {
    while reader.read().is_some() {}
}

/// Run `plan` on the threaded substrate under [`write_slabs`] / [`drain`].
pub fn run_threaded(plan: &PreflightInput, trace: TraceOptions) -> WorkflowReport {
    let cfg = &plan.workflow;
    let (report, _): (_, Vec<()>) =
        run_workflow_with(cfg, threaded_options(plan, trace), write_slabs(cfg), drain)
            .expect("ungated");
    if plan.chaos.is_none() {
        report.assert_complete();
    } else {
        // Injected faults surface as per-rank runtime errors by design;
        // the run itself must not lose an app rank.
        assert!(report.failures.is_empty(), "{:?}", report.failures);
    }
    report
}

/// Run `plan` on the DES through the one run call, detailed: decision
/// traces, span trace and reclassified causal log all ride in the result.
pub fn run_des(plan: &PreflightInput) -> TransportResult {
    let r = run_with_detail(TransportKind::Zipper, &WorkflowSpec::from_plan(plan), true);
    assert!(
        r.is_clean(),
        "DES run not clean: {:?} {:?}",
        r.fault,
        r.deadlocked
    );
    r
}
