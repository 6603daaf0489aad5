//! # zipper-core
//!
//! The Zipper runtime system of §4, as a real multi-threaded library.
//!
//! Zipper sits *below* the simulation and analysis applications and *above*
//! storage/transport (Fig. 1). Each simulation rank gets a **producer
//! runtime module** (Fig. 8): a bounded producer buffer drained by a
//! *sender thread* (message channel to the consumers) and — when the
//! concurrent-transfer optimization is on — a *writer thread* that steals
//! blocks to the parallel file system whenever the buffer passes a
//! high-water mark (Algorithm 1). Each analysis rank gets a **consumer
//! runtime module** (Fig. 9): a *receiver thread* (splits mixed messages
//! into a data block plus on-disk block IDs), a *reader thread* (fetches
//! the on-disk blocks), and, in Preserve mode, an *output thread* that
//! stores network-delivered blocks so every block ends up on the PFS.
//!
//! The application-facing API is the paper's two calls:
//! [`ZipperWriter::write`] and [`ZipperReader::read`].
//!
//! In this reproduction "ranks" are OS threads inside one process and the
//! "HPC network" is a channel mesh (optionally bandwidth-throttled); see
//! DESIGN.md for why this preserves the runtime's behaviour.

pub mod assemble;
pub mod buffer;
pub mod consumer;
pub mod fault;
pub mod metrics;
pub mod producer;
pub mod transport;
pub mod transport_tcp;

pub use assemble::{Slab, StepAssembler};
pub use buffer::BlockQueue;
pub use consumer::{Consumer, ConsumerRecovery, SharedConsumerPolicy, ZipperReader};
pub use fault::ChaosSender;
pub use metrics::{ConsumerMetrics, ProducerMetrics};
pub use producer::{Producer, ZipperWriter};
pub use transport::{
    ChannelMesh, MeshReceiver, MeshSender, RetryingSender, TracedSender, Wire, WireItem, WireSender,
};
pub use transport_tcp::{decode_wire, encode_wire, listen_consumers, TcpSender, MAX_FRAME};
