//! §6.1 model validation beyond Figs. 12/13: compare measured end-to-end
//! times against the analytical prediction for the synthetic, CFD, and
//! LAMMPS workflows.

use crate::util::{banner, secs, Table};
use crate::Scale;
use zipper_apps::Complexity;
use zipper_model::{ModelInput, Prediction};
use zipper_transports::{run_with_detail, TransportKind, WorkflowSpec};
use zipper_types::{ByteSize, SimTime};

/// Build the model input for a spec: `t_c`/`t_a` from the cost model,
/// `t_m` from the NIC bandwidth (the transfer channel each producer owns).
fn model_input(spec: &WorkflowSpec) -> ModelInput {
    let block = spec.tuning.block_size.as_u64();
    let tc = if spec.cost.step_phases().is_some() {
        // Stepped apps: per-block share of the step compute.
        let per_step = spec.cost.step_time().unwrap();
        per_step / spec.blocks_per_rank_step()
    } else {
        spec.cost.sim_block_time(block)
    };
    ModelInput {
        p: spec.sim_ranks as u64,
        q: spec.ana_ranks as u64,
        total_bytes: ByteSize::bytes(spec.bytes_per_rank_step * spec.sim_ranks as u64 * spec.steps),
        block_size: ByteSize::bytes(block),
        tc,
        tm: SimTime::for_bytes(block, 10.2e9 / spec.ranks_per_node as f64),
        ta: spec.cost.analysis_block_time(block),
        transfer_lanes: spec.sim_ranks as u64,
    }
}

pub fn run_check(scale: Scale) -> String {
    let mut out = banner("Model validation: T_t2s = max(T_comp, T_transfer, T_analysis)");
    let mut table = Table::new(&[
        "workflow",
        "T_comp(s)",
        "T_xfer(s)",
        "T_ana(s)",
        "predicted(s)",
        "measured(s)",
        "rel.err",
        "bottleneck",
    ]);

    let mut specs: Vec<(String, WorkflowSpec)> = Vec::new();
    let (p, q) = scale.pick((56, 28), (392, 196));
    let per_rank = scale.pick(ByteSize::mib(256), ByteSize::gib(1));
    for c in Complexity::ALL {
        specs.push((
            format!("synthetic {}", c.label()),
            WorkflowSpec::synthetic(c, p, q, per_rank.as_u64(), ByteSize::mib(1).as_u64()),
        ));
    }
    let (cores, steps) = scale.pick((48, 8), (204, 20));
    let sim_ranks = cores * 2 / 3;
    specs.push((
        "CFD".into(),
        WorkflowSpec::cfd(sim_ranks, cores - sim_ranks, steps),
    ));
    specs.push((
        "LAMMPS".into(),
        WorkflowSpec::lammps(sim_ranks, cores - sim_ranks, steps),
    ));

    for (name, spec) in specs {
        let input = model_input(&spec);
        let pred = Prediction::from_input(&input);
        let r = run_with_detail(TransportKind::Zipper, &spec, false);
        assert!(r.is_clean(), "{name}: {:?}", r.fault);
        table.row(vec![
            name,
            secs(pred.t_comp),
            secs(pred.t_transfer),
            secs(pred.t_analysis),
            secs(pred.time_to_solution()),
            secs(r.end_to_end),
            format!("{:.1}%", pred.relative_error(r.end_to_end) * 100.0),
            pred.bottleneck().to_string(),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nthe simple model ignores pipeline fill/drain, halo traffic and congestion, so\n\
         errors of a few tens of percent are expected on network-bound configurations;\n\
         compute-bound workflows (CFD, LAMMPS, O(n^1.5)) should sit within a few percent.\n",
    );
    out
}
