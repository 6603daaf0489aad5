//! What one Zipper run costs the simulator at a given core count: the
//! Fig. 16 CFD weak-scaling spec (2/3 simulation ranks, Stampede2 KNL
//! nodes, 20 steps) in totals mode, with the host's wall time, ns/event
//! and peak RSS beside the simulated result. EXPERIMENTS.md's "Simulator
//! cost" table is this output; CI runs the 4,704- and 13,056-core points
//! under timeouts and peak-RSS limits, so a cost that grows with P·Q state
//! instead of events fails there instead of hanging a paper-scale run.
//!
//! Run with: `cargo run --release --example des_scale -- <cores>`

use std::time::Instant;
use zipper_transports::{run_with_detail, TransportKind, WorkflowSpec};

/// Peak resident set of this process in MiB (`VmHWM`), where the OS says.
fn vm_hwm_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn main() {
    let cores: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .expect("usage: des_scale <cores>");
    let sim_ranks = cores * 2 / 3;
    let mut spec = WorkflowSpec::cfd(sim_ranks, cores - sim_ranks, 20);
    spec.ranks_per_node = 68;
    spec.cpu_slowdown = 2.0;
    spec.leaf_uplinks = 16;

    // Host time is the measurement here; nothing simulated reads it.
    #[allow(clippy::disallowed_methods)]
    let t0 = Instant::now();
    let r = run_with_detail(TransportKind::Zipper, &spec, false);
    let wall = t0.elapsed().as_secs_f64();
    assert!(
        r.is_clean(),
        "Zipper at {cores} cores must finish: fault {:?}, {} deadlocked",
        r.fault,
        r.deadlocked.len()
    );

    println!("cores        {cores} ({sim_ranks} simulation ranks)");
    println!("events       {}", r.events);
    println!("simulated    {:.9} s", r.end_to_end.as_secs_f64());
    println!("wall         {wall:.2} s");
    println!("ns/event     {:.0}", wall * 1e9 / r.events as f64);
    match vm_hwm_mib() {
        Some(mib) => println!("VmHWM        {mib:.1} MiB"),
        None => println!("VmHWM        unavailable"),
    }
}
