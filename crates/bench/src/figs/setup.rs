//! Tables 1 & 2: the experimental setup and the transport configurations,
//! as configured in this reproduction.

use crate::util::{banner, Table};
use crate::Scale;

pub fn run_setup(scale: Scale) -> String {
    let mut out = banner("Tables 1 & 2: experimental setup of the CFD workflow");
    let spec = crate::figs::fig02::spec(scale);

    let mut t1 = Table::new(&["parameter", "value"]);
    t1.row(vec![
        "Global input grid (paper)".into(),
        "16384x64x256 (64x64x256 per process)".into(),
    ]);
    t1.row(vec![
        "#Simulation processes".into(),
        format!("{}", spec.sim_ranks),
    ]);
    t1.row(vec![
        "#Analysis processes".into(),
        format!("{}", spec.ana_ranks),
    ]);
    t1.row(vec![
        "Ranks per node".into(),
        format!("{}", spec.ranks_per_node),
    ]);
    t1.row(vec![
        "#Staging processes".into(),
        format!(
            "DataSpaces/DIMES: {} servers; Decaf: {} links",
            spec.staging_servers, spec.decaf_links
        ),
    ]);
    t1.row(vec!["#Time steps".into(), format!("{}", spec.steps)]);
    t1.row(vec![
        "Output per process per step".into(),
        format!("{} MB", spec.bytes_per_rank_step >> 20),
    ]);
    t1.row(vec![
        "Total data moved".into(),
        format!(
            "{:.0} GB",
            (spec.bytes_per_rank_step * spec.sim_ranks as u64 * spec.steps) as f64 / 1e9
        ),
    ]);
    t1.row(vec![
        "Analysis".into(),
        "n-th moment of velocity distribution, n = 4".into(),
    ]);
    out.push_str(&t1.render());

    out.push_str("\nTransport model configuration (Table 2 analogue):\n");
    let mut t2 = Table::new(&["model", "configuration encoded"]);
    t2.row(vec![
        "MPI-IO".into(),
        "per-step collective write; 2 ms serialized MDS op; shared PFS w/ 30%±50% background load"
            .into(),
    ]);
    t2.row(vec![
        "DataSpaces".into(),
        "dedicated servers; 0.3 ms lock RTT (native, multi-lock) / coarse global lock (ADIOS)"
            .into(),
    ]);
    t2.row(vec![
        "DIMES".into(),
        format!(
            "producer-node RDMA buffers; metadata servers; type-2 collective lock (barrier); {} circular slots",
            spec.staging_slots
        ),
    ]);
    t2.row(vec![
        "Flexpath".into(),
        "socket pub/sub; 3 ns/B marshal; 0.4 ms per-msg overhead; crash >= 6528 cores".into(),
    ]);
    t2.row(vec![
        "Decaf".into(),
        format!(
            "{} links; async put + MPI_Waitall; {} buffered steps; i32 overflow on large CFD",
            spec.decaf_links, spec.staging_slots
        ),
    ]);
    t2.row(vec![
        "Zipper".into(),
        format!(
            "{} MiB blocks; {} buffer slots; HWM {}; dual-channel work stealing",
            spec.tuning.block_size.as_u64() >> 20,
            spec.tuning.producer_slots,
            spec.tuning.high_water_mark
        ),
    ]);
    t2.row(vec![
        "Fabric".into(),
        "10.2 GB/s NICs, 12.5 GB/s uplinks x8 per leaf, 32 nodes/leaf, 1 us hops".into(),
    ]);
    t2.row(vec![
        "PFS".into(),
        "64 OSTs x 0.35 GB/s (22 GB/s aggregate, Fig. 13 calibration), 16 storage nodes".into(),
    ]);
    out.push_str(&t2.render());
    out
}
