//! The paper's LAMMPS workflow at laptop scale: Lennard-Jones melt
//! coupled with the mean-squared-displacement analysis (§6.3.2), on the
//! real threaded Zipper runtime.
//!
//! Each producer rank runs an independent LJ system ("clusters of
//! Lennard-Jones atoms ... melting from a low-energy solid structure");
//! each step it ships atom positions through Zipper. The consumer computes
//! the MSD of each (rank, step) slab against that rank's initial lattice —
//! "the deviation time between the position of a particle and a reference
//! position" — and prints the melt curve.
//!
//! Run with: `cargo run --release --example md_msd`

use std::collections::BTreeMap;
use zipper_apps::analysis::mean_squared_displacement;
use zipper_apps::md::{decode_positions, LjMd};
use zipper_core::StepAssembler;
use zipper_types::{ByteSize, GlobalPos, StepId, WorkflowConfig};
use zipper_workflow::{run_workflow, NetworkOptions, StorageOptions};

const STEPS: u64 = 10;
const MD_SUBSTEPS: u32 = 20; // MD steps between outputs (output every k, §4.4)
const FCC_CELLS: usize = 4; // 4^3 x 4 = 256 atoms per rank

fn main() {
    let atoms = 4 * FCC_CELLS.pow(3);
    let slab = (atoms * 24) as u64;
    let mut cfg = WorkflowConfig {
        producers: 3,
        consumers: 1,
        steps: STEPS,
        bytes_per_rank_step: ByteSize::bytes(slab),
        ..Default::default()
    };
    cfg.tuning.block_size = ByteSize::kib(2);
    cfg.validate().expect("valid config");

    println!(
        "LAMMPS-style workflow: {} MD ranks x {atoms} LJ atoms, output every {MD_SUBSTEPS} MD steps",
        cfg.producers
    );

    // Consumers need each rank's reference (initial) positions and box to
    // compute MSD; ship them in-band as step 0 is not enough (positions
    // move), so precompute them identically on both sides from the seed.
    let reference = |rank: u32| LjMd::fcc(FCC_CELLS, 0.8, 0.7, 42 + rank as u64);

    let (report, mut results) = run_workflow(
        &cfg,
        NetworkOptions::default(),
        StorageOptions::Memory,
        move |rank, writer| {
            let mut md = reference(rank.0);
            for step in 0..STEPS {
                for _ in 0..MD_SUBSTEPS {
                    md.step();
                }
                writer.write_slab(StepId(step), GlobalPos::default(), md.positions_bytes());
            }
        },
        move |_rank, reader| {
            // Reassemble each (rank, step) slab from its fine-grain blocks,
            // then compute the MSD against the rank's initial lattice.
            let mut slabs = StepAssembler::new();
            let mut msd: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
            while let Some(block) = reader.read() {
                if let Some(slab) = slabs.offer(block) {
                    // Slab complete: decode and analyze.
                    let positions = decode_positions(&slab.bytes);
                    let md0 = reference(slab.src.0);
                    let value =
                        mean_squared_displacement(&positions, md0.positions(), md0.box_len());
                    msd.entry(slab.step.0).or_default().push(value);
                }
            }
            assert!(slabs.is_drained(), "incomplete slabs left behind");
            msd
        },
    );

    report.assert_complete();
    let msd = results.remove(0);
    println!("\nmelt curve (MSD averaged over ranks):");
    let mut last = 0.0;
    for (step, values) in &msd {
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        println!(
            "  after {:>3} MD steps: MSD = {mean:.5}",
            (step + 1) * MD_SUBSTEPS as u64
        );
        last = mean;
    }
    assert!(last > 0.0, "atoms should have moved off the lattice");
    println!(
        "\nend-to-end {:?}; {} blocks delivered over {} messages",
        report.wall,
        report.consumer_total().blocks_delivered,
        report.net_messages,
    );
}
