//! Drive the discrete-event simulator directly: a miniature Fig. 16 —
//! weak-scale the CFD workflow under Decaf and Zipper and print the gap,
//! without going through the experiment harness.
//!
//! Run with: `cargo run --release --example scaling_sim`

use zipper_model::Prediction;
use zipper_trace::export::{chrome_trace, jsonl};
use zipper_trace::{CausalGraph, CriticalPath};
use zipper_transports::{run_sim_only, run_with_detail, TransportKind, WorkflowSpec};
use zipper_workflow::ModelFit;

fn main() {
    println!("mini Fig. 16: CFD weak scaling on the cluster simulator\n");
    println!(
        "{:>7} {:>10} {:>10} {:>10} {:>12}",
        "cores", "Decaf(s)", "Zipper(s)", "sim-only", "Decaf/Zipper"
    );

    for cores in [48usize, 96, 192, 384] {
        let sim_ranks = cores * 2 / 3;
        let mut spec = WorkflowSpec::cfd(sim_ranks, cores - sim_ranks, 8);
        spec.decaf_links = 16.min(sim_ranks);

        let decaf = run_with_detail(TransportKind::Decaf, &spec, true);
        let zipper = run_with_detail(TransportKind::Zipper, &spec, true);
        let base = run_sim_only(&spec, true);
        assert!(decaf.is_clean() && zipper.is_clean() && base.is_clean());

        println!(
            "{:>7} {:>10.1} {:>10.1} {:>10.1} {:>11.2}x",
            cores,
            decaf.end_to_end.as_secs_f64(),
            zipper.end_to_end.as_secs_f64(),
            base.end_to_end.as_secs_f64(),
            decaf.end_to_end.as_secs_f64() / zipper.end_to_end.as_secs_f64(),
        );

        // Causal critical path of the smallest point's Zipper run: the
        // bottleneck verdict from the measured no-slack chain, checked
        // against the §4.4 model's argmax — on the deterministic virtual
        // clock the two must agree.
        if cores == 48 {
            let graph = CausalGraph::build(&zipper.trace, &zipper.causal);
            let path = CriticalPath::extract(&graph).expect("critical path");
            let verdict = path.attribution.verdict();
            let prediction = Prediction::from_input(&spec.model_input());
            let fit = ModelFit::from_trace(&zipper.trace, zipper.end_to_end, &prediction);
            println!(
                "        48-core critical path: verdict {verdict}, model argmax {}",
                fit.verdict(),
            );
            assert!(
                fit.agrees_with(verdict),
                "measured path and analytical model disagree:\n{}\n{}",
                path.attribution.table(),
                fit.table(),
            );

            // Flight-recorder export (virtual-clock spans + congestion
            // samples + causal flow events), when requested:
            // `ZIPPER_EXPORT_DIR=out cargo run --release --example scaling_sim`.
            if let Some(dir) = std::env::var_os("ZIPPER_EXPORT_DIR") {
                let dir = std::path::PathBuf::from(dir);
                std::fs::create_dir_all(&dir).expect("create export dir");
                let json = chrome_trace(&zipper.trace, Some(&zipper.samples), Some(&zipper.causal));
                let lines = jsonl(&zipper.trace, Some(&zipper.samples), Some(&zipper.causal));
                std::fs::write(dir.join("scaling_48_trace.json"), json).expect("write trace");
                std::fs::write(dir.join("scaling_48_trace.jsonl"), lines).expect("write jsonl");
                println!("        exported 48-core Zipper trace to {}", dir.display());
            }
        }

        // The paper's two headline properties, checked at every point:
        assert!(
            zipper.end_to_end.as_secs_f64() <= base.end_to_end.as_secs_f64() * 1.25,
            "Zipper must track simulation-only"
        );
        assert!(
            decaf.end_to_end > zipper.end_to_end,
            "the interlocked baseline cannot beat the asynchronous pipeline"
        );
    }

    println!(
        "\nZipper tracks the simulation-only lower bound while the Decaf baseline pays\n\
         for serialization and its MPI_Waitall interlock at every step (§6.3)."
    );
}
