//! Ablation sweeps for the design choices called out in DESIGN.md:
//! block size, high-water mark, buffer depth, and the dual-channel
//! switch — on the network-bound O(n) synthetic workflow where these
//! knobs bite, plus a compute-bound CFD insensitivity check.

use crate::util::{banner, secs, Table};
use crate::Scale;
use zipper_apps::Complexity;
use zipper_transports::{run_with_detail, TransportKind, WorkflowSpec};
use zipper_types::ByteSize;

/// The network-bound O(n) synthetic workflow (the regime where buffering
/// and granularity matter).
fn synthetic_spec(scale: Scale) -> WorkflowSpec {
    let cores = scale.pick(84, 336);
    let sim_ranks = cores * 2 / 3;
    let mut s = WorkflowSpec::synthetic(
        Complexity::Linear,
        sim_ranks,
        cores - sim_ranks,
        scale.pick(ByteSize::mib(128), ByteSize::mib(512)).as_u64(),
        ByteSize::mib(1).as_u64(),
    );
    s.seed = 3;
    s
}

fn cfd_spec(scale: Scale) -> WorkflowSpec {
    let cores = scale.pick(48, 204);
    let sim_ranks = cores * 2 / 3;
    let mut s = WorkflowSpec::cfd(sim_ranks, cores - sim_ranks, scale.pick(6, 20));
    s.seed = 3;
    s
}

pub fn run_ablations(scale: Scale) -> String {
    let mut out = banner("Ablations: Zipper design choices");
    let syn = synthetic_spec(scale);

    // 1. Block size: fine grain vs whole-burst slabs.
    {
        let mut t = Table::new(&["block size", "sim-wallclock(s)", "stall/rank(s)", "e2e(s)"]);
        for block in [
            ByteSize::kib(256),
            ByteSize::mib(1),
            ByteSize::mib(4),
            ByteSize::mib(16),
        ] {
            let mut s = syn.clone();
            s.tuning.block_size = block;
            let r = run_with_detail(TransportKind::Zipper, &s, false);
            assert!(r.is_clean(), "{:?}", r.fault);
            let per = s.sim_ranks as u64;
            t.row(vec![
                block.to_string(),
                secs(r.sim_finish),
                secs(r.stall / per),
                secs(r.end_to_end),
            ]);
        }
        out.push_str("\nblock size on the O(n) synthetic (fine grain is Zipper's first pillar):\n");
        out.push_str(&t.render());
    }

    // 2. High-water mark of the work-stealing writer (Algorithm 1).
    {
        let mut t = Table::new(&[
            "high-water mark",
            "sim-wallclock(s)",
            "stall/rank(s)",
            "stolen blocks",
        ]);
        for hwm in [8usize, 24, 48, 62] {
            let mut s = syn.clone();
            s.tuning.high_water_mark = hwm;
            let r = run_with_detail(TransportKind::Zipper, &s, false);
            assert!(r.is_clean(), "{:?}", r.fault);
            t.row(vec![
                format!("{hwm}/{}", s.tuning.producer_slots),
                secs(r.sim_finish),
                secs(r.stall / s.sim_ranks as u64),
                (r.pfs_requests / 2).to_string(),
            ]);
        }
        out.push_str("\nhigh-water mark (Algorithm 1 threshold), O(n) synthetic:\n");
        out.push_str(&t.render());
    }

    // 3. Producer buffer depth.
    {
        let mut t = Table::new(&["producer slots", "sim-wallclock(s)", "stall/rank(s)"]);
        for slots in [8usize, 16, 64, 256] {
            let mut s = syn.clone();
            s.tuning.producer_slots = slots;
            s.tuning.high_water_mark = slots * 3 / 4;
            let r = run_with_detail(TransportKind::Zipper, &s, false);
            assert!(r.is_clean(), "{:?}", r.fault);
            t.row(vec![
                slots.to_string(),
                secs(r.sim_finish),
                secs(r.stall / s.sim_ranks as u64),
            ]);
        }
        out.push_str("\nproducer buffer depth, O(n) synthetic:\n");
        out.push_str(&t.render());
    }

    // 4. Dual-channel on/off (the Fig. 14 ablation).
    {
        let mut t = Table::new(&[
            "dual channel",
            "sim-wallclock(s)",
            "stall/rank(s)",
            "stolen blocks",
        ]);
        for conc in [false, true] {
            let mut s = syn.clone();
            s.tuning.concurrent_transfer = conc;
            let r = run_with_detail(TransportKind::Zipper, &s, false);
            assert!(r.is_clean(), "{:?}", r.fault);
            t.row(vec![
                if conc { "on" } else { "off" }.into(),
                secs(r.sim_finish),
                secs(r.stall / s.sim_ranks as u64),
                (r.pfs_requests / 2).to_string(),
            ]);
        }
        out.push_str("\nconcurrent message+file transfer, O(n) synthetic:\n");
        out.push_str(&t.render());
    }

    // 5. CFD insensitivity check: the workflow is compute-bound at this
    //    scale, so granularity should not move its end-to-end time — the
    //    runtime adds no overhead when none is needed.
    {
        let base = cfd_spec(scale);
        let mut t = Table::new(&["block size", "e2e(s)"]);
        for block in [ByteSize::mib(1), ByteSize::mib(16)] {
            let mut s = base.clone();
            s.tuning.block_size = block;
            let r = run_with_detail(TransportKind::Zipper, &s, false);
            assert!(r.is_clean(), "{:?}", r.fault);
            t.row(vec![block.to_string(), secs(r.end_to_end)]);
        }
        out.push_str("\nCFD (compute-bound) insensitivity check:\n");
        out.push_str(&t.render());
    }

    out
}
