//! Figures 16 & 18: weak-scaling of the CFD and LAMMPS workflows under
//! MPI-IO, Flexpath, Decaf, and Zipper, against simulation-only.
//!
//! Shape targets (paper, 204→13,056 cores):
//! * Zipper ≈ simulation-only at every scale;
//! * MPI-IO not scalable (per-step metadata cost grows with ranks);
//! * CFD: Flexpath ~11.5× and Decaf ~1.7× slower than Zipper; both crash
//!   at ≥6,528 cores (segfault / integer overflow), reported as CRASH with
//!   the paper's dotted-line ideal extrapolation;
//! * LAMMPS: Decaf survives but degrades from 1,632 cores and ends 2.2×
//!   slower than Zipper at 13,056; Flexpath ~7.1× slower, crashes ≥6,528.

use crate::util::{banner, secs, Table};
use crate::Scale;
use zipper_transports::{run_sim_only, run_with_detail, TransportKind, WorkflowSpec};
use zipper_types::SimTime;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum App {
    Cfd,
    Lammps,
}

fn spec_for(app: App, cores: usize, steps: u64) -> WorkflowSpec {
    let sim_ranks = cores * 2 / 3;
    let ana_ranks = cores - sim_ranks;
    match app {
        App::Cfd => {
            // Figs. 16/18 run on Stampede2: 68-core KNL nodes with ~2×
            // slower single-thread performance than Bridges' Haswells.
            let mut s = WorkflowSpec::cfd(sim_ranks, ana_ranks, steps);
            s.ranks_per_node = 68;
            s.cpu_slowdown = 2.0;
            s.leaf_uplinks = 16;
            s
        }
        App::Lammps => WorkflowSpec::lammps(sim_ranks, ana_ranks, steps),
    }
}

/// One scaling table.
pub fn run_scaling(app: App, scale: Scale) -> String {
    let title = match app {
        App::Cfd => "Figure 16: CFD workflow weak scaling",
        App::Lammps => "Figure 18: LAMMPS workflow weak scaling",
    };
    let mut out = banner(title);
    let ladder: Vec<usize> = scale.pick(
        vec![204, 408, 816, 1632],
        vec![204, 408, 816, 1632, 3264, 6528, 13056],
    );
    let steps = scale.pick(10, 20);
    out.push_str(&format!(
        "steps per run: {steps} (paper: 100; weak-scaling shape is steady-state and\n\
         step-count invariant — see EXPERIMENTS.md), times in seconds\n\n"
    ));

    let methods = [
        TransportKind::MpiIo,
        TransportKind::Flexpath,
        TransportKind::Decaf,
        TransportKind::Zipper,
    ];
    let mut table = Table::new(&[
        "cores",
        "MPI-IO",
        "Flexpath",
        "Decaf",
        "Zipper",
        "Sim-only",
        "Decaf/Zipper",
        "Flexpath/Zipper",
    ]);

    // Last clean measurement per method, for the dotted-line ideal.
    let mut last_clean: Vec<Option<SimTime>> = vec![None; methods.len()];

    for &cores in &ladder {
        let spec = spec_for(app, cores, steps);
        let mut cells = vec![cores.to_string()];
        let mut zipper_time = None;
        let mut per_method: Vec<Option<SimTime>> = Vec::new();
        for (mi, &kind) in methods.iter().enumerate() {
            let r = run_with_detail(kind, &spec, false);
            if let Some(fault) = &r.fault {
                let ideal = last_clean[mi];
                cells.push(match ideal {
                    Some(t) => format!("CRASH(ideal {})", secs(t)),
                    None => format!("CRASH({})", fault.split(' ').next().unwrap_or("?")),
                });
                per_method.push(ideal);
                continue;
            }
            assert!(
                r.deadlocked.is_empty(),
                "{} deadlock at {cores}: {:?}",
                r.name,
                r.deadlocked
            );
            last_clean[mi] = Some(r.end_to_end);
            if kind == TransportKind::Zipper {
                zipper_time = Some(r.end_to_end);
            }
            per_method.push(Some(r.end_to_end));
            cells.push(secs(r.end_to_end));
        }
        let sim_only = run_sim_only(&spec, false);
        cells.push(secs(sim_only.end_to_end));
        let z = zipper_time.expect("Zipper never crashes").as_secs_f64();
        let ratio = |t: Option<SimTime>| match t {
            Some(t) => format!("{:.1}x", t.as_secs_f64() / z),
            None => "-".into(),
        };
        cells.push(ratio(per_method[2]));
        cells.push(ratio(per_method[1]));
        table.row(cells);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nCRASH(ideal t) reports the paper's dotted-line convention: the method crashed\n\
         at this scale; t extrapolates perfect weak scaling from its last clean run.\n",
    );
    out
}

pub fn run_fig16(scale: Scale) -> String {
    run_scaling(App::Cfd, scale)
}

pub fn run_fig18(scale: Scale) -> String {
    run_scaling(App::Lammps, scale)
}
