//! Figures 17 & 19: Zipper-vs-Decaf trace comparisons — how many
//! simulation steps fit in the same wall-clock window.
//!
//! Shape targets: Fig. 17 (CFD, 204 cores, 1.3 s window): Zipper runs 3
//! steps while Decaf runs 2 with significant stall (1.4×); Fig. 19
//! (LAMMPS, 13,056 cores, 9.1 s window): ~4.4 steps vs ~2 (2.2×).
//! Fig. 19's window analysis runs at the largest scale where full span
//! detail fits in memory (see EXPERIMENTS.md); the ratio is driven by
//! Decaf's per-step Waitall + interference, which the scaling table of
//! Fig. 18 captures at full 13,056-core scale.

use crate::util::{banner, secs3, Table};
use crate::Scale;
use zipper_trace::render::{render_timeline, RenderOptions};
use zipper_trace::stats::window_stats;
use zipper_transports::{run_with_detail, TransportKind, TransportResult, WorkflowSpec};
use zipper_types::SimTime;

fn steps_in_window(r: &TransportResult, window: SimTime) -> f64 {
    // Steady-state window: start 40 % into the run.
    let t0 = SimTime::from_secs_f64(r.end_to_end.as_secs_f64() * 0.4);
    let stats = window_stats(&r.trace, t0, t0 + window);
    stats.steps_per_lane
}

fn compare(spec: &WorkflowSpec, window: SimTime, title: &str) -> String {
    let mut out = banner(title);
    let zipper = run_with_detail(TransportKind::Zipper, spec, true);
    let decaf = run_with_detail(TransportKind::Decaf, spec, true);
    assert!(zipper.is_clean(), "{:?}", zipper.fault);
    assert!(decaf.is_clean(), "{:?}", decaf.fault);

    // Only count *simulation compute* lanes toward the per-lane step rate
    // (the paper reads steps off the simulation rows of the trace).
    let z_steps = steps_in_window_filtered(&zipper, window);
    let d_steps = steps_in_window_filtered(&decaf, window);

    let mut t = Table::new(&["run", "steps in window", "e2e (s)", "waitall/step (s)"]);
    let per = spec.sim_ranks as u64 * spec.steps;
    t.row(vec![
        "Zipper".into(),
        format!("{z_steps:.1}"),
        secs3(zipper.end_to_end),
        secs3(zipper.waitall / per),
    ]);
    t.row(vec![
        "Decaf".into(),
        format!("{d_steps:.1}"),
        secs3(decaf.end_to_end),
        secs3(decaf.waitall / per),
    ]);
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nwindow: {window}; Zipper advances {:.2}x as many steps as Decaf in the same\n\
         interval (e2e speedup {:.2}x).\n\n",
        z_steps / d_steps.max(1e-9),
        decaf.end_to_end.as_secs_f64() / zipper.end_to_end.as_secs_f64()
    ));
    let render = |r: &TransportResult, label: &str| {
        let t0 = SimTime::from_secs_f64(r.end_to_end.as_secs_f64() * 0.4);
        let opts = RenderOptions {
            width: 100,
            from: t0,
            to: Some(t0 + window),
            lane_prefix: Some("sim/r0/comp".into()),
            max_lanes: 1,
        };
        format!("{label}:\n{}", render_timeline(&r.trace, &opts))
    };
    out.push_str(&render(&zipper, "Zipper (sim rank 0)"));
    out.push_str(&render(&decaf, "Decaf (sim rank 0)"));
    out
}

fn steps_in_window_filtered(r: &TransportResult, window: SimTime) -> f64 {
    let _ = steps_in_window; // documented generic variant kept for tests
    let t0 = SimTime::from_secs_f64(r.end_to_end.as_secs_f64() * 0.4);
    // Count completed-step fractions on compute lanes only.
    let mut per_lane: std::collections::HashMap<(u32, u64), (u64, u64)> = Default::default();
    let mut lanes = std::collections::HashSet::new();
    for s in r.trace.spans() {
        let label = r.trace.lane_label(s.lane);
        if !label.ends_with("/comp") {
            continue;
        }
        if s.step == zipper_trace::Span::NO_STEP {
            continue;
        }
        let ov = s.overlap(t0, t0 + window).as_nanos();
        let e = per_lane.entry((s.lane.0, s.step)).or_insert((0, 0));
        e.0 += ov;
        e.1 += s.duration().as_nanos();
        if ov > 0 {
            lanes.insert(s.lane.0);
        }
    }
    let mut frac = 0.0;
    for ((lane, _), (inside, total)) in &per_lane {
        if *total > 0 && lanes.contains(lane) {
            frac += *inside as f64 / *total as f64;
        }
    }
    if lanes.is_empty() {
        0.0
    } else {
        frac / lanes.len() as f64
    }
}

pub fn run_fig17(scale: Scale) -> String {
    let cores = scale.pick(48, 204);
    let sim_ranks = cores * 2 / 3;
    let mut spec = WorkflowSpec::cfd(sim_ranks, cores - sim_ranks, 12);
    spec.decaf_links = 16.min(sim_ranks);
    compare(
        &spec,
        SimTime::from_secs_f64(1.3),
        &format!("Figure 17: Zipper vs Decaf CFD trace @ {cores} cores (1.3 s window)"),
    )
}

pub fn run_fig19(scale: Scale) -> String {
    let cores = scale.pick(96, 13056);
    let sim_ranks = cores * 2 / 3;
    let mut spec = WorkflowSpec::lammps(sim_ranks, cores - sim_ranks, 10);
    spec.decaf_links = 64.min(sim_ranks);
    compare(
        &spec,
        SimTime::from_secs_f64(9.1),
        &format!("Figure 19: Zipper vs Decaf LAMMPS trace @ {cores} cores (9.1 s window)"),
    )
}
