//! # zipper-pfs
//!
//! The parallel-file-system substrate of the Zipper reproduction, in two
//! halves:
//!
//! 1. **Real storage backends** ([`storage`], [`throttle`]) used by the
//!    threaded runtime: an in-memory object store, a real-disk store, and a
//!    bandwidth-throttled wrapper that makes a laptop's RAM/SSD behave like
//!    a *shared* Lustre file system — concurrent writers contend for one
//!    aggregate bandwidth, which is exactly the property the paper's
//!    dual-channel optimization and Preserve mode depend on.
//! 2. **The DES-side OST model** ([`model`]): a striped
//!    object-storage-target (OST) queueing model with optional background
//!    load, consumed by `hpcsim` to time simulated `FsWrite`/`FsRead`
//!    operations (and to reproduce MPI-IO's high variance, §3).

pub mod chaos;
pub mod model;
pub mod retry;
pub mod storage;
pub mod throttle;

pub use chaos::ChaosFs;
pub use model::{OstModel, OstModelConfig};
pub use retry::RetryingFs;
pub use storage::{DiskFs, MemFs, Storage};
pub use throttle::{Drain, FailingFs, ThrottledFs};
