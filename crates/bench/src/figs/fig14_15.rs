//! Figures 14 & 15: effect of the concurrent message+file transfer
//! optimization under weak scaling, and the XmitWait congestion counters
//! that explain it.
//!
//! Shape targets (paper, 84→2,352 cores):
//! * O(n): stealing always active (47–62 % of blocks), simulation
//!   wall-clock reduced 16–32 %, XmitWait lower with the optimization;
//! * O(n log n): no effect at 84/168 cores (buffer near-empty), gains of
//!   8–22 % from 336 cores up as congestion rises;
//! * O(n^1.5): producer too slow to fill the buffer — the optimization
//!   falls back to message-passing-only, identical times and tiny
//!   XmitWait (~3 orders of magnitude below the other apps).

use crate::util::{banner, secs, Table};
use crate::Scale;
use zipper_apps::Complexity;
use zipper_trace::stats::kind_time_filtered;
use zipper_trace::SpanKind;
use zipper_transports::{run_with_detail, TransportKind, TransportResult, WorkflowSpec};
use zipper_types::{ByteSize, RoutingPolicy, SimTime};

/// One (app, cores, method) measurement.
pub struct Point {
    pub cores: usize,
    pub concurrent: bool,
    pub sim_compute: SimTime,
    pub stall: SimTime,
    pub transfer: SimTime,
    pub wallclock: SimTime,
    pub xmit_wait: u64,
    pub stolen_fraction: f64,
}

fn measure(c: Complexity, cores: usize, concurrent: bool, scale: Scale) -> Point {
    let sim_ranks = cores * 2 / 3;
    let ana_ranks = cores - sim_ranks;
    let bytes_per_rank = scale.pick(ByteSize::mib(256), ByteSize::mib(512));
    let mut spec = WorkflowSpec::synthetic(
        c,
        sim_ranks,
        ana_ranks,
        bytes_per_rank.as_u64(),
        ByteSize::mib(1).as_u64(),
    );
    spec.tuning.concurrent_transfer = concurrent;
    spec.seed = 11;
    let r: TransportResult = run_with_detail(TransportKind::Zipper, &spec, false);
    assert!(r.is_clean(), "{:?} {:?}", r.fault, r.deadlocked);

    let p = sim_ranks as u64;
    let total_blocks = spec.blocks_per_rank_step() * p * spec.steps;
    // In No-Preserve mode each stolen block causes exactly one PFS write
    // and one PFS read.
    let stolen = r.pfs_requests / 2;
    Point {
        cores,
        concurrent,
        sim_compute: kind_time_filtered(&r.trace, SpanKind::Compute, |l| l.ends_with("/comp")) / p,
        stall: r.stall / p,
        transfer: kind_time_filtered(&r.trace, SpanKind::Send, |l| l.ends_with("/send")) / p,
        // Fig. 14 plots the *simulation application's* wall clock: the
        // analysis side may still be draining afterwards.
        wallclock: r.sim_finish,
        xmit_wait: r.xmit_wait_sim,
        stolen_fraction: stolen as f64 / total_blocks as f64,
    }
}

/// Run the whole sweep once; both figures print from the same points.
pub fn sweep(scale: Scale) -> Vec<(Complexity, Vec<(Point, Point)>)> {
    let ladder: Vec<usize> = scale.pick(vec![84, 168, 336], vec![84, 168, 336, 588, 1176, 2352]);
    Complexity::ALL
        .iter()
        .map(|&c| {
            let points = ladder
                .iter()
                .map(|&cores| {
                    (
                        measure(c, cores, false, scale),
                        measure(c, cores, true, scale),
                    )
                })
                .collect();
            (c, points)
        })
        .collect()
}

pub fn render_fig14(points: &[(Complexity, Vec<(Point, Point)>)]) -> String {
    let mut out = banner("Figure 14: concurrent message+file transfer optimization");
    for (c, pts) in points {
        out.push_str(&format!("\n{} application:\n", c.label()));
        let mut table = Table::new(&[
            "cores",
            "method",
            "sim(s)",
            "stall(s)",
            "xfer(s)",
            "wallclock(s)",
            "stolen%",
            "wallclock-reduction",
        ]);
        for (msg, conc) in pts {
            let reduction =
                1.0 - conc.wallclock.as_secs_f64() / msg.wallclock.as_secs_f64().max(1e-12);
            table.row(vec![
                msg.cores.to_string(),
                "message-only".into(),
                secs(msg.sim_compute),
                secs(msg.stall),
                secs(msg.transfer),
                secs(msg.wallclock),
                "0.0".into(),
                "-".into(),
            ]);
            table.row(vec![
                conc.cores.to_string(),
                "concurrent".into(),
                secs(conc.sim_compute),
                secs(conc.stall),
                secs(conc.transfer),
                secs(conc.wallclock),
                format!("{:.1}", conc.stolen_fraction * 100.0),
                format!("{:.1}%", reduction * 100.0),
            ]);
        }
        out.push_str(&table.render());
    }
    out.push_str(
        "\npaper shape: O(n) always steals and gains 16-32%; O(n log n) gains only at\n\
         larger scales; O(n^1.5) never steals and matches message-only exactly.\n",
    );
    out
}

pub fn render_fig15(points: &[(Complexity, Vec<(Point, Point)>)]) -> String {
    let mut out = banner("Figure 15: XmitWait congestion counters (sim nodes)");
    for (c, pts) in points {
        out.push_str(&format!("\n{} application:\n", c.label()));
        let mut table = Table::new(&["cores", "message-only", "concurrent", "msg/conc"]);
        for (msg, conc) in pts {
            table.row(vec![
                msg.cores.to_string(),
                format!("{:.2e}", msg.xmit_wait as f64),
                format!("{:.2e}", conc.xmit_wait as f64),
                format!(
                    "{:.2}",
                    msg.xmit_wait as f64 / (conc.xmit_wait as f64).max(1.0)
                ),
            ]);
        }
        out.push_str(&table.render());
    }
    out.push_str(
        "\npaper shape: message-only >= concurrent for the congested apps (O(n),\n\
         O(n log n) at scale); O(n^1.5) is orders of magnitude lower for both methods.\n\
         (Counter unit here: nanoseconds a NIC had data but could not transmit.)\n",
    );
    out
}

pub fn run_figs(scale: Scale) -> String {
    let pts = sweep(scale);
    let mut out = render_fig14(&pts);
    out.push_str(&render_fig15(&pts));
    out
}

/// One point of the router grid: the O(n) synthetic under the concurrent
/// method with the producer→consumer routing policy as the axis (the
/// same configuration `tests/sim_transports.rs` asserts the shape of at
/// 42–336 cores). Returns the message/file split (% of blocks stolen to
/// the file channel), the simulation-node XmitWait counter, and the
/// simulation wall clock.
fn route_point(cores: usize, routing: RoutingPolicy) -> (f64, u64, f64) {
    let sim_ranks = cores * 2 / 3;
    let ana_ranks = cores - sim_ranks;
    let mut spec = WorkflowSpec::synthetic(
        Complexity::Linear,
        sim_ranks,
        ana_ranks,
        ByteSize::mib(128).as_u64(),
        ByteSize::mib(1).as_u64(),
    );
    spec.tuning.concurrent_transfer = true;
    spec.tuning.routing = routing;
    spec.seed = 11;
    let r = run_with_detail(TransportKind::Zipper, &spec, false);
    assert!(r.is_clean(), "{:?} {:?}", r.fault, r.deadlocked);
    let total = spec.blocks_per_rank_step() * sim_ranks as u64 * spec.steps;
    let stolen = r.pfs_requests / 2;
    (
        stolen as f64 / total as f64 * 100.0,
        r.xmit_wait_sim,
        r.sim_finish.as_secs_f64(),
    )
}

/// The round-robin router grid (`fig14-routing`): below the leaf-switch
/// boundary routing barely moves the message/file split; at scale
/// round-robin trades the source-affine router's locality for spread,
/// more traffic crosses the core uplinks, XmitWait rises, and
/// Algorithm 1 steals a larger share of the stream to the file channel.
pub fn run_fig14_routing(scale: Scale) -> String {
    let ladder: Vec<usize> =
        scale.pick(vec![42, 84, 168, 336], vec![84, 168, 336, 588, 1176, 2352]);
    let mut out = banner("Figure 14 grid: routing policy vs. message/file split (O(n))");
    let mut table = Table::new(&[
        "cores",
        "SA stolen%",
        "SA xmitwait",
        "SA wall(s)",
        "RR stolen%",
        "RR xmitwait",
        "RR wall(s)",
        "split shift",
    ]);
    for &cores in &ladder {
        let (sa, sa_xmit, sa_wall) = route_point(cores, RoutingPolicy::SourceAffine);
        let (rr, rr_xmit, rr_wall) = route_point(cores, RoutingPolicy::RoundRobin);
        table.row(vec![
            cores.to_string(),
            format!("{sa:.1}"),
            format!("{:.2e}", sa_xmit as f64),
            format!("{sa_wall:.2}"),
            format!("{rr:.1}"),
            format!("{:.2e}", rr_xmit as f64),
            format!("{rr_wall:.2}"),
            format!("{:+.1} pp", rr - sa),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\npaper shape: routers indistinguishable under the leaf-switch boundary;\n\
         at scale round-robin's lost locality raises XmitWait and shifts the\n\
         split toward the file channel (asserted at 42-336 cores by\n\
         tests/sim_transports.rs).\n",
    );
    out
}
