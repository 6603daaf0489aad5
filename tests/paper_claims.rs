//! The paper's headline claims, checked as executable assertions at
//! reduced scale. Each test names the section/figure it covers.

use zipper_model::{integrated_time, non_integrated_time, ModelInput, Prediction};
use zipper_transports::{run_sim_only, run_with_detail, TransportKind, WorkflowSpec};
use zipper_types::{ByteSize, SimTime};

/// Fig. 2 (shape): every baseline transport costs well more than
/// max(simulation-only, analysis-only); Decaf is the fastest baseline;
/// MPI-IO is the slowest and the most variable.
#[test]
fn fig2_ordering_holds_at_reduced_scale() {
    let mut spec = WorkflowSpec::cfd(32, 16, 10);
    spec.ranks_per_node = 16;
    spec.staging_servers = 4;
    spec.decaf_links = 8;

    let sim_only = run_sim_only(&spec, true).end_to_end;
    let mut times = Vec::new();
    for kind in TransportKind::ALL {
        // MPI-IO's dominant cost (metadata serialization) grows with rank
        // count, so its Fig. 2 ranking only appears at full scale; it is
        // checked separately below via its scaling behaviour.
        if kind == TransportKind::Zipper || kind == TransportKind::MpiIo {
            continue;
        }
        let r = run_with_detail(kind, &spec, true);
        assert!(r.is_clean(), "{}: {:?}", r.name, r.fault);
        times.push((r.end_to_end, r.name));
        assert!(
            r.end_to_end.as_secs_f64() > sim_only.as_secs_f64() * 1.3,
            "{} should pay clearly over simulation-only",
            r.name
        );
    }
    times.sort();
    assert_eq!(times[0].1, "Decaf", "fastest baseline: {times:?}");

    // MPI-IO's unscalability: doubling the ranks (same per-rank work)
    // increases its end-to-end time substantially (Fig. 16's diverging
    // curve), while Decaf's stays nearly flat.
    let scale_time = |kind, ranks: usize| {
        let mut s = spec.clone();
        s.sim_ranks = ranks;
        s.ana_ranks = ranks / 2;
        run_with_detail(kind, &s, true).end_to_end.as_secs_f64()
    };
    let mpiio_growth = scale_time(TransportKind::MpiIo, 128) / scale_time(TransportKind::MpiIo, 32);
    let decaf_growth = scale_time(TransportKind::Decaf, 64) / scale_time(TransportKind::Decaf, 32);
    assert!(
        mpiio_growth > 1.6,
        "MPI-IO must degrade with rank count (4x ranks), grew only {mpiio_growth:.2}x"
    );
    assert!(
        decaf_growth < 1.2,
        "Decaf should weak-scale here, grew {decaf_growth:.2}x"
    );

    // MPI-IO variance across seeds (the paper's min..max spread).
    let e2e = |seed| {
        let mut s = spec.clone();
        s.seed = seed;
        run_with_detail(TransportKind::MpiIo, &s, true)
            .end_to_end
            .as_secs_f64()
    };
    let samples = [e2e(1), e2e(2), e2e(3), e2e(4)];
    let min = samples.iter().cloned().fold(f64::MAX, f64::min);
    let max = samples.iter().cloned().fold(0.0, f64::max);
    assert!(
        max / min > 1.1,
        "MPI-IO should vary across runs: {samples:?}"
    );
}

/// §6.3 / Fig. 16: Zipper's end-to-end time almost equals simulation-only,
/// and it beats the best baseline by a clear factor.
#[test]
fn zipper_reaches_the_simulation_lower_bound() {
    let mut spec = WorkflowSpec::cfd(32, 16, 8);
    spec.ranks_per_node = 16;
    spec.decaf_links = 8;
    let zipper = run_with_detail(TransportKind::Zipper, &spec, true);
    let decaf = run_with_detail(TransportKind::Decaf, &spec, true);
    let sim_only = run_sim_only(&spec, true);
    assert!(zipper.is_clean() && decaf.is_clean());
    let bound_ratio = zipper.end_to_end.as_secs_f64() / sim_only.end_to_end.as_secs_f64();
    assert!(bound_ratio < 1.2, "Zipper/sim-only = {bound_ratio:.2}");
    let speedup = decaf.end_to_end.as_secs_f64() / zipper.end_to_end.as_secs_f64();
    assert!(
        speedup > 1.3,
        "paper reports 1.7-2.2x over Decaf; measured {speedup:.2}x"
    );
}

/// §4.4 / Figs. 12-13: the end-to-end time of the pipelined workflow is
/// close to the slowest stage, not the sum of stages.
#[test]
fn end_to_end_time_is_one_stage_not_the_sum() {
    use zipper_apps::Complexity;
    let spec = WorkflowSpec::synthetic(Complexity::N32, 12, 6, 64 << 20, 1 << 20);
    let r = run_with_detail(TransportKind::Zipper, &spec, true);
    assert!(r.is_clean());
    // O(n^1.5): simulation dominates — 64 blocks/rank at ~31 ms each.
    let t_comp = spec.cost.sim_block_time(1 << 20) * 64;
    let ratio = r.end_to_end.as_secs_f64() / t_comp.as_secs_f64();
    assert!(
        (0.95..=1.25).contains(&ratio),
        "e2e should track the dominant stage: ratio {ratio:.2}"
    );
}

/// §4.4: the analytical model's prediction matches the simulator for a
/// compute-bound workflow.
#[test]
fn analytical_model_predicts_compute_bound_runs() {
    use zipper_apps::Complexity;
    let spec = WorkflowSpec::synthetic(Complexity::N32, 12, 6, 64 << 20, 1 << 20);
    let input = ModelInput {
        p: 12,
        q: 6,
        total_bytes: ByteSize::bytes(12 * (64 << 20)),
        block_size: ByteSize::mib(1),
        tc: spec.cost.sim_block_time(1 << 20),
        tm: SimTime::for_bytes(1 << 20, 10.2e9),
        ta: spec.cost.analysis_block_time(1 << 20),
        transfer_lanes: 12,
    };
    let pred = Prediction::from_input(&input);
    let r = run_with_detail(TransportKind::Zipper, &spec, true);
    let err = pred.relative_error(r.end_to_end);
    assert!(err < 0.15, "model error {:.1}%", err * 100.0);
}

/// Fig. 11: the integrated design's asymptotic speedup over the
/// non-integrated design equals the stage-count for balanced stages.
#[test]
fn pipeline_speedup_approaches_stage_count() {
    let stages = [SimTime::from_millis(10); 4];
    let n = 2000;
    let speedup =
        non_integrated_time(n, &stages).as_secs_f64() / integrated_time(n, &stages).as_secs_f64();
    assert!((3.9..=4.0).contains(&speedup), "speedup {speedup}");
}

/// §6.3.1/§6.3.2: the crash behaviour at ≥6,528 cores differs per
/// application exactly as reported — Decaf overflows on CFD but not on
/// LAMMPS; Flexpath segfaults on both.
#[test]
fn crash_matrix_matches_the_paper() {
    // Use tiny rank counts but thresholds scaled down proportionally.
    let mut cfd = WorkflowSpec::cfd(8, 4, 2);
    cfd.ranks_per_node = 4;
    cfd.decaf_links = 2;
    cfd.staging_servers = 2;
    cfd.flexpath_crash_cores = Some(12);
    cfd.decaf_crash_cores = Some(12);
    assert!(!run_with_detail(TransportKind::Flexpath, &cfd, true).is_clean());
    assert!(!run_with_detail(TransportKind::Decaf, &cfd, true).is_clean());

    let mut lammps = WorkflowSpec::lammps(8, 4, 2);
    lammps.ranks_per_node = 4;
    lammps.decaf_links = 2;
    lammps.staging_servers = 2;
    lammps.flexpath_crash_cores = Some(12);
    // WorkflowSpec::lammps leaves decaf_crash_cores = None (the paper:
    // "the data size in LAMMPS does not reach the integer limit").
    assert!(!run_with_detail(TransportKind::Flexpath, &lammps, true).is_clean());
    assert!(run_with_detail(TransportKind::Decaf, &lammps, true).is_clean());
}

/// §4 summary point 1: fine-grain blocks beat one-big-block-per-step for
/// the same workflow on the same fabric (ablation of Zipper's first
/// design pillar, at a scale where the network is contended).
#[test]
fn fine_grain_blocks_do_not_lose_to_whole_step_slabs() {
    let mut fine = WorkflowSpec::cfd(32, 16, 6);
    fine.ranks_per_node = 16;
    fine.tuning.block_size = ByteSize::mib(1);
    let mut coarse = fine.clone();
    coarse.tuning.block_size = ByteSize::bytes(coarse.bytes_per_rank_step); // one block per step
    let rf = run_with_detail(TransportKind::Zipper, &fine, true);
    let rc = run_with_detail(TransportKind::Zipper, &coarse, true);
    assert!(rf.is_clean() && rc.is_clean());
    assert!(
        rf.end_to_end.as_secs_f64() <= rc.end_to_end.as_secs_f64() * 1.05,
        "fine {} vs coarse {}",
        rf.end_to_end,
        rc.end_to_end
    );
}
