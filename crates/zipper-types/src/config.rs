//! Configuration shared by the threaded runtime and the experiment drivers.

use crate::size::ByteSize;
use std::fmt;
use std::time::Duration;

/// Whether computed results are kept on the parallel file system for future
/// analysis/validation (§4.1).
///
/// * `Preserve` — every block must end up on the PFS: either the producer's
///   writer thread put it there, or the consumer's output thread stores it
///   after receipt. A block may be freed only when it has been both analyzed
///   and stored.
/// * `NoPreserve` — blocks are discarded after analysis; the PFS is used
///   only as the overflow channel of the concurrent-transfer optimization.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PreserveMode {
    Preserve,
    NoPreserve,
}

impl PreserveMode {
    pub fn is_preserve(self) -> bool {
        matches!(self, PreserveMode::Preserve)
    }
}

/// How producer blocks are mapped to consumer ranks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RoutingPolicy {
    /// Blocks of producer rank `p` always go to consumer `p % Q`. Keeps all
    /// of a rank's domain on one analyzer (good locality for domain-local
    /// analyses such as the n-th moment reduction).
    SourceAffine,
    /// Blocks are dealt round-robin over consumers in production order.
    /// Best load balance when per-block analysis cost varies.
    RoundRobin,
}

/// How much self-healing the runtime attempts after a fault. The default
/// is none — every budget zero — which preserves the fail-soft behavior
/// of degrading permanently (a retired writer stays retired, a crashed
/// consumer stays down). Recovery decisions consume these budgets and are
/// recorded in the policy-kernel decision trace (`WriterRevived`,
/// `ConsumerRestarted`), so both substrates heal through the same
/// decision sequence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryPolicy {
    /// How long a retired writer waits before it is re-probed and
    /// revived (wall time on the threaded runtime, the same span of
    /// virtual time on the DES).
    pub writer_cooldown: Duration,
    /// How many times a retired writer may be revived.
    pub max_writer_revivals: u32,
    /// How many times a crashed consumer application may be restarted
    /// (with Preserve-store replay of the blocks it already consumed).
    pub max_consumer_restarts: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            writer_cooldown: Duration::ZERO,
            max_writer_revivals: 0,
            max_consumer_restarts: 0,
        }
    }
}

impl RecoveryPolicy {
    /// True when any recovery budget is non-zero.
    pub fn is_enabled(&self) -> bool {
        self.max_writer_revivals > 0 || self.max_consumer_restarts > 0
    }
}

/// Tuning knobs of the Zipper runtime (producer/consumer modules, §4.2–4.3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ZipperTuning {
    /// Fine-grain block size (1–8 MiB in the paper).
    pub block_size: ByteSize,
    /// Capacity of the producer buffer, in blocks. When full, `Zipper::write`
    /// stalls the computation thread (that stall is what the concurrent
    /// transfer optimization attacks).
    pub producer_slots: usize,
    /// High-water mark: the writer thread steals blocks to the PFS only when
    /// buffer occupancy strictly exceeds this many blocks (Algorithm 1's
    /// `Threshold`).
    pub high_water_mark: usize,
    /// Capacity of the consumer buffer, in blocks.
    pub consumer_slots: usize,
    /// Enable the concurrent message+file dual-channel optimization
    /// (the work-stealing writer thread). With this off, Zipper is the
    /// message-passing-only variant of Fig. 14.
    pub concurrent_transfer: bool,
    /// Preserve or discard analyzed blocks.
    pub preserve: PreserveMode,
    /// Producer→consumer routing policy.
    pub routing: RoutingPolicy,
    /// EOS watchdog window: if a consumer's receiver sees no wire traffic
    /// for this long while end-of-stream markers are still outstanding, it
    /// records a [`crate::RuntimeError::EosTimeout`] and shuts the rank
    /// down instead of hanging forever. `None` disables the watchdog.
    pub eos_timeout: Option<Duration>,
    /// Self-healing budgets (writer revival, consumer restart). The
    /// default disables recovery entirely.
    pub recovery: RecoveryPolicy,
}

impl Default for ZipperTuning {
    fn default() -> Self {
        ZipperTuning {
            block_size: ByteSize::mib(1),
            producer_slots: 64,
            high_water_mark: 48,
            consumer_slots: 256,
            concurrent_transfer: true,
            preserve: PreserveMode::NoPreserve,
            routing: RoutingPolicy::SourceAffine,
            eos_timeout: Some(Duration::from_secs(30)),
            recovery: RecoveryPolicy::default(),
        }
    }
}

/// The first rule a config breaks — the one statement of the scalar rules,
/// which every interpreter applies (static preflight maps `Zero` to ZV001
/// and `HighWaterMark` to ZV002).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// A count that must be at least 1 is zero; names the count.
    Zero(&'static str),
    /// `high_water_mark >= producer_slots`: Algorithm 1 could never
    /// relieve a full buffer.
    HighWaterMark {
        high_water_mark: usize,
        producer_slots: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Zero(what) => write!(f, "{what} must be at least 1"),
            ConfigError::HighWaterMark {
                high_water_mark,
                producer_slots,
            } => write!(
                f,
                "high-water mark {high_water_mark} must be below the producer buffer's \
                 {producer_slots} slots (Algorithm 1 could never relieve a full buffer)"
            ),
        }
    }
}

/// `Err(Zero(what))` for the first zero count in `counts`.
fn nonzero(counts: &[(u64, &'static str)]) -> Result<(), ConfigError> {
    match counts.iter().find(|&&(n, _)| n == 0) {
        Some(&(_, what)) => Err(ConfigError::Zero(what)),
        None => Ok(()),
    }
}

impl ZipperTuning {
    /// Validate internal consistency; returns the first rule broken.
    pub fn validate(&self) -> Result<(), ConfigError> {
        nonzero(&[
            (self.block_size.as_u64(), "block size"),
            (self.producer_slots as u64, "producer buffer slots"),
            (self.consumer_slots as u64, "consumer buffer slots"),
        ])?;
        if self.high_water_mark >= self.producer_slots {
            return Err(ConfigError::HighWaterMark {
                high_water_mark: self.high_water_mark,
                producer_slots: self.producer_slots,
            });
        }
        Ok(())
    }
}

/// Top-level description of one coupled workflow run.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkflowConfig {
    /// Number of simulation (producer) ranks, the paper's `P`.
    pub producers: usize,
    /// Number of analysis (consumer) ranks, the paper's `Q`.
    pub consumers: usize,
    /// Number of simulation time steps.
    pub steps: u64,
    /// Output bytes generated per producer rank per step.
    pub bytes_per_rank_step: ByteSize,
    /// Runtime tuning.
    pub tuning: ZipperTuning,
}

impl WorkflowConfig {
    /// Total bytes the workflow moves from simulation to analysis,
    /// the paper's `D`.
    pub fn total_bytes(&self) -> ByteSize {
        self.bytes_per_rank_step * (self.producers as u64 * self.steps)
    }

    /// Blocks produced per rank per step, `ceil(step bytes / B)`.
    pub fn blocks_per_rank_step(&self) -> u64 {
        self.bytes_per_rank_step.blocks_of(self.tuning.block_size)
    }

    /// Total number of fine-grain blocks `n_b = D / B` (§4.4).
    pub fn total_blocks(&self) -> u64 {
        self.blocks_per_rank_step() * self.producers as u64 * self.steps
    }

    /// Validate the workflow and its tuning; returns the first rule broken.
    pub fn validate(&self) -> Result<(), ConfigError> {
        nonzero(&[
            (self.producers as u64, "producer count"),
            (self.consumers as u64, "consumer count"),
            (self.steps, "step count"),
            (self.bytes_per_rank_step.as_u64(), "blocks per rank-step"),
        ])?;
        self.tuning.validate()
    }
}

impl Default for WorkflowConfig {
    fn default() -> Self {
        WorkflowConfig {
            producers: 4,
            consumers: 2,
            steps: 10,
            bytes_per_rank_step: ByteSize::mib(4),
            tuning: ZipperTuning::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tuning_is_valid() {
        ZipperTuning::default().validate().unwrap();
        WorkflowConfig::default().validate().unwrap();
    }

    #[test]
    fn totals_follow_the_model_quantities() {
        let cfg = WorkflowConfig {
            producers: 256,
            consumers: 128,
            steps: 100,
            bytes_per_rank_step: ByteSize::mib(16),
            tuning: ZipperTuning::default(),
        };
        // Fig. 2 setup: 256 procs × 100 steps × 16 MB = 400 GiB moved.
        assert_eq!(cfg.total_bytes(), ByteSize::gib(400));
        assert_eq!(cfg.blocks_per_rank_step(), 16);
        assert_eq!(cfg.total_blocks(), 16 * 256 * 100);
    }

    #[test]
    fn hwm_must_be_below_capacity() {
        let mut t = ZipperTuning::default();
        t.high_water_mark = t.producer_slots;
        assert!(t.validate().is_err());
    }

    #[test]
    fn zero_fields_rejected() {
        let cfg = WorkflowConfig {
            producers: 0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = WorkflowConfig {
            steps: 0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = WorkflowConfig {
            bytes_per_rank_step: ByteSize::ZERO,
            ..Default::default()
        };
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::Zero("blocks per rank-step"))
        );
        let t = ZipperTuning {
            block_size: ByteSize::ZERO,
            ..Default::default()
        };
        assert!(t.validate().is_err());
    }
}
