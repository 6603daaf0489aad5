//! Figures 12 & 13: time breakdown of the Zipper workflow for the three
//! synthetic applications at two block sizes, validating the performance
//! model `T_t2s = max(T_comp, T_transfer, T_analysis)`.
//!
//! Paper setup: 1,568 sim + 784 analysis cores, 3,136 GB total (2 GiB per
//! sim core). Shape targets: (Fig. 12, No-Preserve) e2e ≈ max stage, with
//! the dominant stage switching from transfer (O(n)) to simulation
//! (O(n^1.5)); (Fig. 13, Preserve) e2e ≈ the PFS store time for every
//! application (~139 s in the paper).

use crate::util::{banner, secs, Table};
use crate::Scale;
use zipper_apps::Complexity;
use zipper_trace::stats::kind_time_filtered;
use zipper_trace::SpanKind;
use zipper_transports::{run_with_detail, TransportKind, WorkflowSpec};
use zipper_types::{ByteSize, PreserveMode, SimTime};

/// Per-configuration breakdown row.
pub struct Breakdown {
    pub label: String,
    pub simulation: SimTime,
    pub transfer: SimTime,
    pub store: SimTime,
    pub analysis: SimTime,
    pub end_to_end: SimTime,
}

/// Run one synthetic Zipper workflow and extract the stage breakdown.
pub fn run_one(
    c: Complexity,
    block: ByteSize,
    preserve: bool,
    scale: Scale,
    seed: u64,
) -> Breakdown {
    let (sim_ranks, ana_ranks) = scale.pick((56, 28), (1568, 784));
    let bytes_per_rank = scale.pick(ByteSize::mib(256), ByteSize::gib(2));
    let mut spec = WorkflowSpec::synthetic(
        c,
        sim_ranks,
        ana_ranks,
        bytes_per_rank.as_u64(),
        block.as_u64(),
    );
    spec.tuning.preserve = if preserve {
        PreserveMode::Preserve
    } else {
        PreserveMode::NoPreserve
    };
    spec.seed = seed;
    let r = run_with_detail(TransportKind::Zipper, &spec, false);
    assert!(r.is_clean(), "{:?} {:?}", r.fault, r.deadlocked);

    let p = spec.sim_ranks as u64;
    let q = spec.ana_ranks as u64;
    let simulation = kind_time_filtered(&r.trace, SpanKind::Compute, |l| l.ends_with("/comp")) / p;
    // The sender thread's busy time (Send spans include credit-stall time,
    // i.e. the time the data actually occupied the transfer stage).
    let transfer = kind_time_filtered(&r.trace, SpanKind::Send, |l| l.ends_with("/send")) / p;
    let analysis = kind_time_filtered(&r.trace, SpanKind::Analysis, |l| l.starts_with("ana/")) / q;
    Breakdown {
        label: format!("{} ({})", block, c.label()),
        simulation,
        transfer,
        store: r.pfs_drain,
        analysis,
        end_to_end: r.end_to_end,
    }
}

fn table_for(preserve: bool, scale: Scale) -> String {
    let mut table = Table::new(&[
        "config",
        "sim(s)",
        "transfer(s)",
        "store(s)",
        "analysis(s)",
        "e2e(s)",
        "e2e/max-stage",
    ]);
    for block in [ByteSize::mib(1), ByteSize::mib(8)] {
        for c in Complexity::ALL {
            let b = run_one(c, block, preserve, scale, 7);
            let mut max_stage = b.simulation.max(b.transfer).max(b.analysis);
            if preserve {
                max_stage = max_stage.max(b.store);
            }
            table.row(vec![
                b.label.clone(),
                secs(b.simulation),
                secs(b.transfer),
                if preserve { secs(b.store) } else { "-".into() },
                secs(b.analysis),
                secs(b.end_to_end),
                format!(
                    "{:.2}",
                    b.end_to_end.as_secs_f64() / max_stage.as_secs_f64().max(1e-12)
                ),
            ]);
        }
    }
    table.render()
}

pub fn run_fig12(scale: Scale) -> String {
    let mut out = banner("Figure 12: synthetic time breakdown, No-Preserve mode");
    out.push_str(&table_for(false, scale));
    out.push_str(
        "\nmodel check: e2e/max-stage ~= 1 for every configuration; the dominant stage\n\
         switches from transfer (O(n)) to simulation (O(n^1.5)) as complexity grows.\n",
    );
    out
}

pub fn run_fig13(scale: Scale) -> String {
    let mut out = banner("Figure 13: synthetic time breakdown, Preserve mode");
    out.push_str(&table_for(true, scale));
    out.push_str(
        "\nin Preserve mode every block must land on the PFS: storing the full dataset\n\
         dominates, and e2e ~= store time for all six configurations (paper: ~139 s).\n",
    );
    out
}
