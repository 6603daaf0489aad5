//! Integration tests of the discrete-event stack: every transport model on
//! every workload, plus the structural properties each one must exhibit.

use std::time::Duration;
use zipper_apps::Complexity;
use zipper_trace::stats::kind_time_filtered;
use zipper_trace::SpanKind;
use zipper_transports::{
    run_analysis_only, run_sim_only, run_with_detail, TransportKind, WorkflowSpec,
};
use zipper_types::{BackpressureScript, GateRule, Rank, RoutingPolicy};

fn tiny_cfd() -> WorkflowSpec {
    let mut s = WorkflowSpec::cfd(6, 3, 4);
    s.ranks_per_node = 3;
    s.staging_servers = 2;
    s.decaf_links = 2;
    s
}

fn tiny_lammps() -> WorkflowSpec {
    let mut s = WorkflowSpec::lammps(6, 3, 3);
    s.ranks_per_node = 3;
    s.staging_servers = 2;
    s.decaf_links = 2;
    s
}

#[test]
fn all_transports_complete_both_applications() {
    for spec in [tiny_cfd(), tiny_lammps()] {
        let sim_only = run_sim_only(&spec, true);
        assert!(sim_only.is_clean());
        for kind in TransportKind::ALL {
            let r = run_with_detail(kind, &spec, true);
            assert!(r.is_clean(), "{} failed: {:?}", r.name, r.fault);
            assert!(
                r.end_to_end >= sim_only.end_to_end,
                "{} ({}) beat simulation-only ({})",
                r.name,
                r.end_to_end,
                sim_only.end_to_end
            );
            // Every step got analyzed on every consumer.
            let analyzed = r
                .trace
                .spans()
                .iter()
                .filter(|s| s.kind == SpanKind::Analysis)
                .count();
            assert!(
                analyzed >= (spec.ana_ranks as u64 * spec.steps) as usize,
                "{}: only {analyzed} analysis spans",
                r.name
            );
        }
    }
}

#[test]
fn zipper_wins_and_tracks_sim_only() {
    let spec = tiny_cfd();
    let zipper = run_with_detail(TransportKind::Zipper, &spec, true);
    let sim_only = run_sim_only(&spec, true);
    for kind in TransportKind::ALL {
        if kind == TransportKind::Zipper {
            continue;
        }
        let r = run_with_detail(kind, &spec, true);
        assert!(
            r.end_to_end >= zipper.end_to_end,
            "{} ({}) beat Zipper ({})",
            r.name,
            r.end_to_end,
            zipper.end_to_end
        );
    }
    // §6.3: "Zipper's end-to-end time is almost equal to the
    // simulation-only time".
    let ratio = zipper.end_to_end.as_secs_f64() / sim_only.end_to_end.as_secs_f64();
    assert!(ratio < 1.3, "Zipper/sim-only = {ratio}");
}

#[test]
fn adios_wrappers_cost_more_than_native() {
    let spec = tiny_cfd();
    let ds_native = run_with_detail(TransportKind::DataSpacesNative, &spec, true);
    let ds_adios = run_with_detail(TransportKind::DataSpacesAdios, &spec, true);
    assert!(ds_adios.end_to_end > ds_native.end_to_end);
    let dimes_native = run_with_detail(TransportKind::DimesNative, &spec, true);
    let dimes_adios = run_with_detail(TransportKind::DimesAdios, &spec, true);
    assert!(dimes_adios.end_to_end > dimes_native.end_to_end);
}

#[test]
fn decaf_shows_waitall_and_dimes_shows_locks() {
    let spec = tiny_cfd();
    let decaf = run_with_detail(TransportKind::Decaf, &spec, true);
    assert!(decaf.waitall.as_nanos() > 0, "Decaf must MPI_Waitall");
    let dimes = run_with_detail(TransportKind::DimesNative, &spec, true);
    let barrier = kind_time_filtered(&dimes.trace, SpanKind::Barrier, |l| l.starts_with("sim/"));
    assert!(barrier.as_nanos() > 0, "DIMES type-2 lock is collective");
    let zipper = run_with_detail(TransportKind::Zipper, &spec, true);
    assert_eq!(zipper.waitall.as_nanos(), 0, "Zipper has no waitall");
    assert_eq!(zipper.lock.as_nanos(), 0, "Zipper has no staging locks");
}

#[test]
fn crash_thresholds_fire_only_at_scale() {
    let mut spec = tiny_cfd();
    spec.flexpath_crash_cores = Some(9);
    spec.decaf_crash_cores = Some(9);
    let flex = run_with_detail(TransportKind::Flexpath, &spec, true);
    assert!(flex.fault.as_deref().unwrap_or("").contains("segmentation"));
    let decaf = run_with_detail(TransportKind::Decaf, &spec, true);
    assert!(decaf.fault.as_deref().unwrap_or("").contains("overflow"));
    // Below threshold: clean.
    spec.flexpath_crash_cores = Some(1000);
    spec.decaf_crash_cores = Some(1000);
    assert!(run_with_detail(TransportKind::Flexpath, &spec, true).is_clean());
    assert!(run_with_detail(TransportKind::Decaf, &spec, true).is_clean());
}

#[test]
fn runs_are_deterministic_per_seed_and_vary_across_seeds() {
    let spec = tiny_cfd();
    let a = run_with_detail(TransportKind::MpiIo, &spec, true);
    let b = run_with_detail(TransportKind::MpiIo, &spec, true);
    assert_eq!(a.end_to_end, b.end_to_end);
    assert_eq!(a.events, b.events);

    let mut spec2 = tiny_cfd();
    spec2.seed = spec.seed + 1;
    let c = run_with_detail(TransportKind::MpiIo, &spec2, true);
    assert_ne!(
        a.end_to_end, c.end_to_end,
        "PFS/MDS load variance must differ across seeds"
    );
}

#[test]
fn trace_detail_off_preserves_aggregates() {
    let spec = tiny_cfd();
    let full = run_with_detail(TransportKind::Zipper, &spec, true);
    let lite = run_with_detail(TransportKind::Zipper, &spec, false);
    assert_eq!(full.end_to_end, lite.end_to_end);
    assert_eq!(full.stall, lite.stall);
    assert_eq!(full.sendrecv, lite.sendrecv);
    assert_eq!(full.sim_finish, lite.sim_finish);
    assert!(!full.trace.spans().is_empty());
    assert_eq!(lite.trace.spans().len(), 0, "lite mode stores no spans");
}

#[test]
fn dual_channel_reduces_producer_stall_when_network_is_the_bottleneck() {
    // O(n) producers overwhelm the NICs (the Fig. 14a regime).
    let mk = |concurrent| {
        let mut s = WorkflowSpec::synthetic(Complexity::Linear, 56, 28, 256 << 20, 1 << 20);
        s.tuning.concurrent_transfer = concurrent;
        s
    };
    let msg_only = run_with_detail(TransportKind::Zipper, &mk(false), false);
    let dual = run_with_detail(TransportKind::Zipper, &mk(true), false);
    assert!(msg_only.is_clean() && dual.is_clean());
    assert!(dual.pfs_requests > 0, "stealing must engage");
    assert!(
        dual.sim_finish < msg_only.sim_finish,
        "dual channel must shorten the simulation wall clock: {} vs {}",
        dual.sim_finish,
        msg_only.sim_finish
    );
    assert!(
        dual.xmit_wait_sim < msg_only.xmit_wait_sim,
        "dual channel must ease congestion (Fig. 15)"
    );
}

#[test]
fn compute_bound_producer_never_steals() {
    // O(n^1.5): the buffer stays near-empty, the optimization falls back
    // to message passing (Fig. 14c).
    let mut s = WorkflowSpec::synthetic(Complexity::N32, 12, 6, 64 << 20, 1 << 20);
    s.tuning.concurrent_transfer = true;
    let r = run_with_detail(TransportKind::Zipper, &s, false);
    assert!(r.is_clean());
    assert_eq!(r.pfs_requests, 0, "no stealing opportunities");
}

#[test]
fn analysis_only_scales_with_sources() {
    let spec = tiny_cfd();
    let one = run_analysis_only(&spec);
    let mut bigger = tiny_cfd();
    bigger.ana_ranks = 1; // all six producers on one consumer
    let heavy = run_analysis_only(&bigger);
    assert!(heavy > one);
}

/// One point of the Fig. 14 steal/transfer grid: the O(n) synthetic under
/// the concurrent method, with the producer→consumer routing policy and an
/// optional backpressure script as the grid axes. Returns the message/file
/// split (fraction of blocks stolen to the file channel, in percent), the
/// simulation-node XmitWait counter, and the simulation wall clock.
fn fig14_point(
    cores: usize,
    routing: RoutingPolicy,
    script: Option<BackpressureScript>,
) -> (f64, u64, f64) {
    let sim = cores * 2 / 3;
    let ana = cores - sim;
    let mut s = WorkflowSpec::synthetic(Complexity::Linear, sim, ana, 128 << 20, 1 << 20);
    s.tuning.concurrent_transfer = true;
    s.tuning.routing = routing;
    s.seed = 11;
    s.backpressure = script;
    let r = run_with_detail(TransportKind::Zipper, &s, false);
    assert!(r.is_clean(), "{:?} {:?}", r.fault, r.deadlocked);
    let total = s.blocks_per_rank_step() * sim as u64 * s.steps;
    // In No-Preserve mode each stolen block is exactly one PFS write plus
    // one PFS read.
    let stolen = r.pfs_requests / 2;
    (
        stolen as f64 / total as f64 * 100.0,
        r.xmit_wait_sim,
        r.sim_finish.as_secs_f64(),
    )
}

/// Fig. 14 grid with the round-robin router (the table lives in
/// EXPERIMENTS.md): below the leaf-switch boundary routing barely moves
/// the message/file split, but at scale round-robin trades the
/// source-affine router's locality for spread — every producer talks to
/// every consumer, more traffic crosses the core uplinks, congestion and
/// XmitWait rise, and Algorithm 1 steals a visibly larger share of the
/// stream to the file channel.
#[test]
fn roundrobin_routing_shifts_the_fig14_split_at_scale() {
    // 42 cores: both routers' destinations sit under the same part of the
    // fabric — the split must not move materially.
    let (sa, _, _) = fig14_point(42, RoutingPolicy::SourceAffine, None);
    let (rr, _, _) = fig14_point(42, RoutingPolicy::RoundRobin, None);
    assert!(
        (sa - rr).abs() < 3.0,
        "below the switch boundary routing must not move the split: {sa:.1}% vs {rr:.1}%"
    );
    // At scale the spread crosses core uplinks: round-robin must steal a
    // materially larger share and congest the sim NICs harder.
    for (cores, min_gap) in [(168, 3.0), (336, 8.0)] {
        let (sa, sa_xmit, _) = fig14_point(cores, RoutingPolicy::SourceAffine, None);
        let (rr, rr_xmit, _) = fig14_point(cores, RoutingPolicy::RoundRobin, None);
        assert!(
            rr > sa + min_gap,
            "{cores} cores: round-robin must shift the split to the file \
             channel: {sa:.1}% vs {rr:.1}%"
        );
        assert!(
            rr_xmit > sa_xmit,
            "{cores} cores: losing locality must raise XmitWait"
        );
    }
}

/// The scripted-backpressure half of the Fig. 14 sweep: at a scale where
/// natural congestion is mild, `GateRule::Hold` windows emulating a
/// congested NIC must reproduce the file split for *both* routers — the
/// queue rises past the high-water mark during each hold, Algorithm 1
/// steals the overflow, and the wall clock barely moves because the file
/// channel absorbs the scripted stall (the paper's dual-channel claim).
#[test]
fn scripted_backpressure_induces_the_fig14_split_for_both_routers() {
    let script = |sim_ranks: usize| {
        let mut bp = BackpressureScript::new();
        for r in 0..sim_ranks as u32 {
            for wire in [8u64, 32, 56, 80] {
                bp = bp.with(Rank(r), wire, GateRule::Hold(Duration::from_millis(25)));
            }
        }
        bp
    };
    for routing in [RoutingPolicy::SourceAffine, RoutingPolicy::RoundRobin] {
        let (natural, _, wall_n) = fig14_point(42, routing, None);
        let (scripted, _, wall_s) = fig14_point(42, routing, Some(script(28)));
        assert!(
            scripted > natural + 4.0,
            "{routing:?}: scripted holds must shift the split to the file \
             channel: {natural:.1}% vs {scripted:.1}%"
        );
        assert!(
            wall_s < wall_n * 1.15,
            "{routing:?}: stealing must absorb the scripted stall \
             ({wall_n:.2}s vs {wall_s:.2}s)"
        );
    }
}

#[test]
fn mpiio_touches_pfs_staging_transports_do_not() {
    let spec = tiny_cfd();
    let mpiio = run_with_detail(TransportKind::MpiIo, &spec, true);
    assert!(mpiio.pfs_requests > 0);
    for kind in [
        TransportKind::DataSpacesNative,
        TransportKind::DimesNative,
        TransportKind::Flexpath,
        TransportKind::Decaf,
    ] {
        let r = run_with_detail(kind, &spec, true);
        assert_eq!(r.pfs_requests, 0, "{} must not touch the PFS", r.name);
    }
}
