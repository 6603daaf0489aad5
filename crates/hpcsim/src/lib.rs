//! # hpcsim
//!
//! A deterministic discrete-event simulator (DES) of an HPC cluster, built
//! to replay the paper's Bridges / Stampede2 experiments at full scale
//! (hundreds to 13,056 cores) on a laptop.
//!
//! ## Model
//!
//! * **Virtual processes** ([`Program`]) — one per application rank *or*
//!   per runtime thread of a rank (Zipper's compute/sender/writer threads
//!   are three processes sharing a buffer, mirroring §4.2). A program is a
//!   small state machine that yields batches of [`Op`]s; the engine
//!   interprets them in virtual time.
//! * **Network** ([`network::Network`]) — a two-level fat-tree
//!   (node NIC → leaf switch → core uplinks) in which every resource is a
//!   FIFO with a busy-until horizon. Congestion appears as queueing delay,
//!   and the per-node **XmitWait** counter accumulates the time a NIC had
//!   data ready but could not transmit — the simulator's version of the
//!   Omni-Path counter used in Fig. 15.
//! * **Parallel file system** — requests travel over the same fabric to
//!   dedicated storage nodes and drain through the striped OST model of
//!   [`zipper_pfs::OstModel`] (converged-fabric layout, as on the paper's
//!   systems).
//! * **Coordination objects** — bounded buffers with condition-variable
//!   semantics (including the work-stealing `min_occupancy` take used by
//!   Zipper's writer thread), FIFO locks (DataSpaces/DIMES lock services),
//!   reusable barriers, counting signals, and async-send + waitall
//!   (Decaf's `MPI_Waitall` interlock).
//!
//! Everything is single-threaded and deterministic given a seed; equal-time
//! events run in submission order.

pub mod engine;
pub mod network;
pub mod objects;
pub mod ops;
mod queue;

pub use engine::{RunReport, SimConfig, Simulator};
pub use network::{Network, NetworkConfig};
pub use ops::{BufferTaken, GateId, MsgMeta, Op, ProcCtx, Program, Step};
