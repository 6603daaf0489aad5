//! # zipper-workflow
//!
//! The end-to-end coupling driver for the real (threaded) Zipper runtime:
//! "we allocate *m* compute nodes to execute the simulation application,
//! and allocate *n* compute nodes to execute the data analysis application
//! simultaneously" (§4.1) — here, P producer ranks and Q consumer ranks as
//! OS threads, wired through a [`zipper_core::ChannelMesh`] and a shared
//! [`zipper_pfs::Storage`].
//!
//! The driver is application-agnostic: you hand it a *produce* closure
//! (runs one simulation rank against a [`zipper_core::ZipperWriter`]) and a *consume*
//! closure (runs one analysis rank against a [`zipper_core::ZipperReader`] and returns a
//! result). It spawns all rank threads, joins everything in the right
//! order, and returns a [`WorkflowReport`] with the per-rank and aggregate
//! metrics that the paper's figures are built from (stall time, transfer
//! counts, steal fractions, wall-clock).

pub mod driver;
pub mod fit;
pub mod mapreduce;
pub mod report;

pub use driver::{
    run_workflow, run_workflow_traced, run_workflow_with, NetworkOptions, RunOptions,
    StorageOptions, TraceOptions,
};
pub use fit::{ModelFit, PhaseFit};
pub use mapreduce::run_map_reduce;
pub use report::WorkflowReport;
