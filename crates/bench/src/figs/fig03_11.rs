//! Figure 3 (overlap of simulation and analysis steps) and Figure 11
//! (non-integrated vs integrated pipeline design).

use crate::util::{banner, secs3, Table};
use crate::Scale;
use zipper_model::{integrated_time, non_integrated_time, pipeline_schedule};
use zipper_trace::render::{render_timeline, RenderOptions};
use zipper_transports::{run_with_detail, TransportKind, WorkflowSpec};
use zipper_types::SimTime;

/// Figure 3: show the overlap by rendering a real Zipper run's timeline —
/// while simulation step s computes, analysis of step s−1 proceeds.
pub fn run_fig3(_scale: Scale) -> String {
    let mut out = banner("Figure 3: overlap of simulation and analysis time steps");
    let mut spec = WorkflowSpec::cfd(4, 2, 6);
    spec.ranks_per_node = 2;
    let r = run_with_detail(TransportKind::Zipper, &spec, true);
    assert!(r.is_clean());
    let opts = RenderOptions {
        width: 96,
        max_lanes: 4,
        lane_prefix: None,
        ..Default::default()
    };
    out.push_str(&render_timeline(&r.trace, &opts));
    out.push_str(
        "\nsim/r*/comp lanes run simulation steps back-to-back while ana/q*/ana lanes\n\
         analyze earlier steps concurrently: either stage can be fully hidden (Fig. 3).\n",
    );
    out
}

/// Figure 11: compute both designs exactly for the paper's four stages
/// (Compute, Output, Input, Analysis) and show the per-block asymptote.
pub fn run_fig11(_scale: Scale) -> String {
    let mut out = banner("Figure 11: non-integrated vs integrated (pipelined) design");
    let stages = [
        SimTime::from_millis(25), // C
        SimTime::from_millis(10), // O
        SimTime::from_millis(10), // I
        SimTime::from_millis(15), // A
    ];
    let mut table = Table::new(&[
        "blocks",
        "non-integrated(s)",
        "integrated(s)",
        "speedup",
        "per-block(ms)",
    ]);
    for n in [1u64, 4, 16, 64, 256, 1024] {
        let ni = non_integrated_time(n, &stages);
        let it = integrated_time(n, &stages);
        table.row(vec![
            n.to_string(),
            secs3(ni),
            secs3(it),
            format!("{:.2}x", ni.as_secs_f64() / it.as_secs_f64()),
            format!("{:.1}", it.as_secs_f64() * 1e3 / n as f64),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nper-block time approaches the slowest stage (25 ms): the end-to-end time is\n\
         'merely one stage of time' (§4.4). First blocks of the schedule:\n",
    );
    let sched = pipeline_schedule(4, &stages);
    for (i, row) in sched.iter().enumerate() {
        let cells: Vec<String> = row
            .iter()
            .zip(["C", "O", "I", "A"])
            .map(|((s, f), name)| {
                format!(
                    "{name}[{}-{}ms]",
                    s.as_nanos() / 1_000_000,
                    f.as_nanos() / 1_000_000
                )
            })
            .collect();
        out.push_str(&format!("block {i}: {}\n", cells.join(" ")));
    }
    out
}
