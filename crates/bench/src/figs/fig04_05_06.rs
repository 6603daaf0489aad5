//! Figures 4–6: trace analyses of the three fastest baselines — native
//! DIMES (lock periods + ~1-step stalls), Flexpath (`MPI_Sendrecv`
//! inflation), and Decaf (`MPI_Waitall` stalls + Sendrecv inflation).

use crate::util::{banner, secs3, Table};
use crate::Scale;
use zipper_trace::render::{render_timeline, RenderOptions};
use zipper_transports::{
    run_sim_only, run_with_detail, TransportKind, TransportResult, WorkflowSpec,
};
use zipper_types::SimTime;

/// The trace workflow: small enough to render, analysis slower than
/// simulation (one consumer per four producers) so the interlock effects
/// appear, as in the paper's Fig. 4 scenario.
fn trace_spec(scale: Scale) -> WorkflowSpec {
    let (sim, ana) = scale.pick((8, 4), (56, 28));
    let mut s = WorkflowSpec::cfd(sim, ana, 10);
    s.ranks_per_node = scale.pick(4, 28);
    s.staging_servers = 4;
    s.decaf_links = 4;
    s.staging_slots = 2;
    s
}

/// Fig. 4's scenario needs the analysis to be *slower* than the
/// simulation ("when the analysis application is slower, the simulation
/// application will be stalled"): one consumer per four producers.
fn slow_analysis_spec(scale: Scale) -> WorkflowSpec {
    let (sim, ana) = scale.pick((8, 2), (56, 14));
    let mut s = WorkflowSpec::cfd(sim, ana, 10);
    s.ranks_per_node = scale.pick(4, 28);
    s.staging_servers = 4;
    s.decaf_links = 4;
    s.staging_slots = 2;
    s
}

/// A per-step, per-rank summary of a run's overhead signature.
fn signature(r: &TransportResult, spec: &WorkflowSpec) -> (SimTime, SimTime, SimTime, SimTime) {
    let per = spec.sim_ranks as u64 * spec.steps;
    (
        r.stall / per,
        r.lock / per,
        r.waitall / per,
        r.sendrecv / per,
    )
}

fn render_snip(r: &TransportResult, prefix: &str, from_frac: f64, window: SimTime) -> String {
    let t0 = SimTime::from_secs_f64(r.end_to_end.as_secs_f64() * from_frac);
    let opts = RenderOptions {
        width: 100,
        from: t0,
        to: Some(t0 + window),
        lane_prefix: Some(prefix.to_string()),
        max_lanes: 3,
    };
    render_timeline(&r.trace, &opts)
}

pub fn run_fig4(scale: Scale) -> String {
    let mut out = banner("Figure 4: native DIMES trace — lock periods and producer stalls");
    let spec = slow_analysis_spec(scale);
    let r = run_with_detail(TransportKind::DimesNative, &spec, true);
    assert!(r.is_clean(), "{:?}", r.fault);
    let (stall, lock, waitall, sendrecv) = signature(&r, &spec);
    let step_time = spec.cost.step_time().unwrap();
    let mut t = Table::new(&["metric", "per rank-step (s)"]);
    t.row(vec!["simulation step (compute)".into(), secs3(step_time)]);
    t.row(vec!["lock wait (incl. slot interlock)".into(), secs3(lock)]);
    t.row(vec!["stall".into(), secs3(stall)]);
    t.row(vec!["waitall".into(), secs3(waitall)]);
    t.row(vec!["sendrecv".into(), secs3(sendrecv)]);
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nanalysis is slower than simulation here, so the circular slot queue makes the\n\
         producer wait inside the lock: lock wait / step time = {:.2} (paper: 'stall time\n\
         is almost equal to one step of simulation time').\n\n",
        lock.as_secs_f64() / step_time.as_secs_f64()
    ));
    out.push_str(&render_snip(&r, "sim/r0", 0.4, SimTime::from_secs_f64(2.0)));
    out
}

pub fn run_fig5(scale: Scale) -> String {
    let mut out = banner("Figure 5: Flexpath vs CFD-only — MPI_Sendrecv inflation");
    let spec = trace_spec(scale);
    let base = run_sim_only(&spec, true);
    let flex = run_with_detail(TransportKind::Flexpath, &spec, true);
    assert!(base.is_clean() && flex.is_clean());
    let per = spec.sim_ranks as u64 * spec.steps;
    let b = base.sendrecv / per;
    let f = flex.sendrecv / per;
    let mut t = Table::new(&["run", "sendrecv per rank-step (s)", "e2e (s)"]);
    t.row(vec!["CFD-only".into(), secs3(b), secs3(base.end_to_end)]);
    t.row(vec![
        "Flexpath workflow".into(),
        secs3(f),
        secs3(flex.end_to_end),
    ]);
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nMPI_Sendrecv inflation: {:.2}x (staging bursts compete with the LBM streaming\n\
         phase for the NICs, §3).\n\n",
        f.as_secs_f64() / b.as_secs_f64().max(1e-12)
    ));
    out.push_str("CFD-only:\n");
    out.push_str(&render_snip(
        &base,
        "sim/r0",
        0.4,
        SimTime::from_secs_f64(3.0),
    ));
    out.push_str("Flexpath:\n");
    out.push_str(&render_snip(
        &flex,
        "sim/r0",
        0.4,
        SimTime::from_secs_f64(3.0),
    ));
    out
}

pub fn run_fig6(scale: Scale) -> String {
    let mut out = banner("Figure 6: Decaf vs CFD-only — PUT/MPI_Waitall stalls");
    let spec = trace_spec(scale);
    let base = run_sim_only(&spec, true);
    let decaf = run_with_detail(TransportKind::Decaf, &spec, true);
    assert!(base.is_clean() && decaf.is_clean());
    let per = spec.sim_ranks as u64 * spec.steps;
    let mut t = Table::new(&[
        "run",
        "sendrecv/step (s)",
        "waitall/step (s)",
        "stall/step (s)",
        "e2e (s)",
    ]);
    t.row(vec![
        "CFD-only".into(),
        secs3(base.sendrecv / per),
        "0.000".into(),
        "0.000".into(),
        secs3(base.end_to_end),
    ]);
    t.row(vec![
        "Decaf workflow".into(),
        secs3(decaf.sendrecv / per),
        secs3(decaf.waitall / per),
        secs3(decaf.stall / per),
        secs3(decaf.end_to_end),
    ]);
    out.push_str(&t.render());
    out.push_str(
        "\nthe PUT's MPI_Waitall makes all simulation processes stall until the slab is\n\
         safely in the link nodes, and Sendrecv inflates under the burst traffic (§3).\n\n",
    );
    out.push_str("CFD-only:\n");
    out.push_str(&render_snip(
        &base,
        "sim/r0",
        0.4,
        SimTime::from_secs_f64(0.9),
    ));
    out.push_str("Decaf:\n");
    out.push_str(&render_snip(
        &decaf,
        "sim/r0",
        0.4,
        SimTime::from_secs_f64(0.9),
    ));
    out
}
