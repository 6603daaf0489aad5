//! Per-rank runtime metrics — the quantities Figs. 12–14 plot: stall time,
//! transfer busy time, stolen-block counts, etc.
//!
//! Time-based quantities are *derived views over the span log*: each rank's
//! runtime lanes record spans through [`zipper_trace::LaneRecorder`]s, and
//! `join()` folds the per-lane [`KindBreakdown`]s into these structs. Only
//! discrete event counts (blocks, bytes) and error reports are maintained
//! directly — there is no second, hand-maintained time bookkeeping to
//! drift out of sync with the trace.

use std::time::Duration;
use zipper_trace::{KindBreakdown, SpanKind};
use zipper_types::RuntimeError;

fn as_duration(t: zipper_types::SimTime) -> Duration {
    Duration::from_nanos(t.as_nanos())
}

/// Metrics of one producer rank's runtime module.
#[derive(Clone, Debug, Default)]
pub struct ProducerMetrics {
    /// Blocks handed to `Zipper::write`.
    pub blocks_written: u64,
    /// Blocks shipped over the message channel by the sender thread.
    pub blocks_sent: u64,
    /// Blocks stolen to the PFS by the writer thread.
    pub blocks_stolen: u64,
    /// Payload bytes over the message channel.
    pub bytes_sent: u64,
    /// Payload bytes through the file channel.
    pub bytes_stolen: u64,
    /// Span-time breakdown of the application lane (compute + stall).
    pub app: KindBreakdown,
    /// Span-time breakdown of the sender thread's lane (send + idle).
    pub sender: KindBreakdown,
    /// Span-time breakdown of the writer (steal) thread's lane
    /// (fs-write + idle).
    pub writer: KindBreakdown,
    /// Runtime failure reports (e.g. a PFS failure that retired the
    /// writer thread).
    pub errors: Vec<RuntimeError>,
}

impl ProducerMetrics {
    /// Time the computation thread was blocked in `write` (producer
    /// buffer full) — the paper's simulation stall. Derived from the
    /// application lane's `Stall` spans.
    pub fn stall(&self) -> Duration {
        as_duration(self.app.get(SpanKind::Stall))
    }

    /// Application compute time between writes (gap spans on the app lane).
    pub fn compute(&self) -> Duration {
        as_duration(self.app.get(SpanKind::Compute))
    }

    /// Sender-thread busy time (sending on the message channel).
    pub fn send_busy(&self) -> Duration {
        as_duration(self.sender.get(SpanKind::Send))
    }

    /// Sender-thread idle time (waiting for data).
    pub fn send_idle(&self) -> Duration {
        as_duration(self.sender.get(SpanKind::Idle))
    }

    /// Writer-thread busy time (storing stolen blocks to the PFS).
    pub fn fs_busy(&self) -> Duration {
        as_duration(self.writer.get(SpanKind::FsWrite))
    }

    /// Writer-thread idle time (queue below the high-water mark).
    pub fn fs_idle(&self) -> Duration {
        as_duration(self.writer.get(SpanKind::Idle))
    }

    /// Fraction of written blocks that took the file path.
    pub fn steal_fraction(&self) -> f64 {
        if self.blocks_written == 0 {
            0.0
        } else {
            self.blocks_stolen as f64 / self.blocks_written as f64
        }
    }

    /// Fold another rank's metrics into this aggregate.
    pub fn merge(&mut self, other: &ProducerMetrics) {
        self.blocks_written += other.blocks_written;
        self.blocks_sent += other.blocks_sent;
        self.blocks_stolen += other.blocks_stolen;
        self.bytes_sent += other.bytes_sent;
        self.bytes_stolen += other.bytes_stolen;
        self.app.merge(&other.app);
        self.sender.merge(&other.sender);
        self.writer.merge(&other.writer);
        self.errors.extend(other.errors.iter().cloned());
    }
}

/// Metrics of one consumer rank's runtime module.
#[derive(Clone, Debug, Default)]
pub struct ConsumerMetrics {
    /// Blocks that arrived over the message channel.
    pub blocks_net: u64,
    /// Blocks fetched from the PFS by the reader thread.
    pub blocks_disk: u64,
    /// Blocks handed to the application through `Zipper::read`.
    pub blocks_delivered: u64,
    /// Blocks persisted by the output thread (Preserve mode only).
    pub blocks_stored: u64,
    /// Span-time breakdown of the receiver thread's lane (recv + stall).
    pub recv: KindBreakdown,
    /// Span-time breakdown of the reader thread's lane (fs-read + idle +
    /// stall).
    pub disk: KindBreakdown,
    /// Span-time breakdown of the application (deliver) lane
    /// (read-wait + analysis).
    pub app: KindBreakdown,
    /// Failure reports from runtime threads (storage failures etc.).
    pub errors: Vec<RuntimeError>,
}

impl ConsumerMetrics {
    /// Total blocks that entered this consumer.
    pub fn blocks_in(&self) -> u64 {
        self.blocks_net + self.blocks_disk
    }

    /// Time `Zipper::read` spent blocked waiting for data — derived from
    /// the application lane's `ReadWait` spans.
    pub fn read_wait(&self) -> Duration {
        as_duration(self.app.get(SpanKind::ReadWait))
    }

    /// Receiver-thread time spent in `recv` on the message channel.
    pub fn recv_busy(&self) -> Duration {
        as_duration(self.recv.get(SpanKind::Recv))
    }

    /// Reader-thread time spent fetching blocks from the PFS.
    pub fn disk_busy(&self) -> Duration {
        as_duration(self.disk.get(SpanKind::FsRead))
    }

    pub fn merge(&mut self, other: &ConsumerMetrics) {
        self.blocks_net += other.blocks_net;
        self.blocks_disk += other.blocks_disk;
        self.blocks_delivered += other.blocks_delivered;
        self.blocks_stored += other.blocks_stored;
        self.recv.merge(&other.recv);
        self.disk.merge(&other.disk);
        self.app.merge(&other.app);
        self.errors.extend(other.errors.iter().cloned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zipper_types::{Rank, SimTime};

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    #[test]
    fn steal_fraction_handles_zero() {
        let m = ProducerMetrics::default();
        assert_eq!(m.steal_fraction(), 0.0);
        let m = ProducerMetrics {
            blocks_written: 10,
            blocks_stolen: 4,
            ..Default::default()
        };
        assert!((m.steal_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn durations_are_views_over_breakdowns() {
        let mut m = ProducerMetrics::default();
        m.app.add(SpanKind::Stall, ms(10));
        m.app.add(SpanKind::Compute, ms(30));
        m.sender.add(SpanKind::Send, ms(7));
        m.sender.add(SpanKind::Idle, ms(3));
        m.writer.add(SpanKind::FsWrite, ms(2));
        assert_eq!(m.stall(), Duration::from_millis(10));
        assert_eq!(m.compute(), Duration::from_millis(30));
        assert_eq!(m.send_busy(), Duration::from_millis(7));
        assert_eq!(m.send_idle(), Duration::from_millis(3));
        assert_eq!(m.fs_busy(), Duration::from_millis(2));
        assert_eq!(m.fs_idle(), Duration::ZERO);

        let mut c = ConsumerMetrics::default();
        c.app.add(SpanKind::ReadWait, ms(4));
        c.recv.add(SpanKind::Recv, ms(6));
        c.disk.add(SpanKind::FsRead, ms(1));
        assert_eq!(c.read_wait(), Duration::from_millis(4));
        assert_eq!(c.recv_busy(), Duration::from_millis(6));
        assert_eq!(c.disk_busy(), Duration::from_millis(1));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ProducerMetrics {
            blocks_written: 5,
            ..Default::default()
        };
        a.app.add(SpanKind::Stall, ms(10));
        let mut b = ProducerMetrics {
            blocks_written: 7,
            ..Default::default()
        };
        b.app.add(SpanKind::Stall, ms(5));
        a.merge(&b);
        assert_eq!(a.blocks_written, 12);
        assert_eq!(a.stall(), Duration::from_millis(15));

        let mut c = ConsumerMetrics {
            blocks_net: 1,
            errors: vec![RuntimeError::BlockFetchFailed {
                rank: Rank(0),
                detail: "x".into(),
            }],
            ..Default::default()
        };
        let d = ConsumerMetrics {
            blocks_disk: 2,
            errors: vec![RuntimeError::BlockFetchFailed {
                rank: Rank(0),
                detail: "y".into(),
            }],
            ..Default::default()
        };
        c.merge(&d);
        assert_eq!(c.blocks_in(), 3);
        assert_eq!(c.errors.len(), 2);
    }
}
