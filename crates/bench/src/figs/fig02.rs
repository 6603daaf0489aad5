//! Figure 2 + Tables 1/2: end-to-end time of the CFD workflow under all
//! seven I/O transport methods, against the simulation-only and
//! analysis-only reference bars.
//!
//! Paper values (Bridges, 256 sim + 128 analysis procs, 100 steps,
//! 400 GB moved): MPI-IO 176.9 s (highly variable, up to 281.6 s),
//! ADIOS/DataSpaces 140.9, native DataSpaces 104.9 (1.3×),
//! native DIMES ≈1.5× over its ADIOS variant, ADIOS/Flexpath 96.1,
//! Decaf 83.4 (best baseline), simulation-only 39.2, analysis-only 48.4.
//! The shape to reproduce: every baseline ≫ max(sim, analysis); Decaf
//! fastest baseline; ADIOS wrappers slower than native; MPI-IO worst and
//! most variable; Zipper ≈ simulation-only.

use crate::util::{banner, secs, Table};
use crate::Scale;
use zipper_transports::{
    run_analysis_only, run_sim_only, run_with_detail, TransportKind, WorkflowSpec,
};

/// The Fig. 2 workflow spec at the requested scale.
pub fn spec(scale: Scale) -> WorkflowSpec {
    let mut s = match scale {
        Scale::Full => WorkflowSpec::cfd(256, 128, 100),
        Scale::Quick => {
            let mut s = WorkflowSpec::cfd(64, 32, 20);
            s.staging_servers = 8;
            s.decaf_links = 16;
            s
        }
    };
    // Table 1: 256 simulation processes on 16 nodes = 16 per node.
    s.ranks_per_node = 16;
    // Fig. 2's job is far below the crash thresholds.
    s.seed = 1;
    s
}

pub fn run_fig(scale: Scale) -> String {
    let mut out = banner("Figure 2: CFD workflow end-to-end time, 7 transports");
    let base = spec(scale);
    out.push_str(&format!(
        "setup: {} sim + {} analysis procs, {} steps, {} MB/proc/step, {:.0} GB moved\n\n",
        base.sim_ranks,
        base.ana_ranks,
        base.steps,
        base.bytes_per_rank_step >> 20,
        (base.bytes_per_rank_step * base.sim_ranks as u64 * base.steps) as f64 / 1e9,
    ));

    let mut table = Table::new(&[
        "method",
        "e2e(s)",
        "stall(s)",
        "lock(s)",
        "waitall(s)",
        "sendrecv(s)",
        "xfer-busy(s)",
    ]);

    for kind in TransportKind::ALL {
        if kind == TransportKind::MpiIo {
            // MPI-IO is run with three seeds to expose its PFS-load
            // variance (the paper reports min/median/max behaviour).
            let mut times = Vec::new();
            let mut sample = None;
            for seed in [1u64, 2, 3] {
                let mut s = base.clone();
                s.seed = seed;
                let r = run_with_detail(kind, &s, true);
                assert!(r.is_clean(), "{}: {:?}", r.name, r.fault);
                times.push(r.end_to_end);
                sample.get_or_insert(r);
            }
            times.sort();
            let r = sample.unwrap();
            let per = base.sim_ranks as u64;
            table.row(vec![
                format!("{} (min/med/max)", r.name),
                format!("{}/{}/{}", secs(times[0]), secs(times[1]), secs(times[2])),
                secs(r.stall / per),
                secs(r.lock / per),
                secs(r.waitall / per),
                secs(r.sendrecv / per),
                secs(r.transfer_busy / per),
            ]);
            continue;
        }
        let r = run_with_detail(kind, &base, true);
        assert!(r.is_clean(), "{}: {:?} {:?}", r.name, r.fault, r.deadlocked);
        let per = base.sim_ranks as u64;
        table.row(vec![
            r.name.to_string(),
            secs(r.end_to_end),
            secs(r.stall / per),
            secs(r.lock / per),
            secs(r.waitall / per),
            secs(r.sendrecv / per),
            secs(r.transfer_busy / per),
        ]);
    }

    let sim_only = run_sim_only(&base, true);
    table.row(vec![
        "Simulation-only".into(),
        secs(sim_only.end_to_end),
        "-".into(),
        "-".into(),
        "-".into(),
        secs(sim_only.sendrecv / base.sim_ranks as u64),
        "-".into(),
    ]);
    table.row(vec![
        "Analysis-only".into(),
        secs(run_analysis_only(&base)),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);

    out.push_str(&table.render());
    out.push_str(
        "\nper-rank overhead columns are averages over simulation ranks.\n\
         paper shape: all baselines >> max(sim-only, analysis-only); Decaf fastest baseline;\n\
         ADIOS wrappers slower than native; MPI-IO worst & most variable; Zipper ~= sim-only.\n",
    );
    out
}
