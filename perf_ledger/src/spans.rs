//! The benchmark's own spans, recorded in memory around the public calls
//! into each layer during the traced pass (never during timed,
//! tracing-off iterations). Each span name keeps a count and a busy-time
//! total; they are read once when the pass ends.

use crate::stats::now;
use std::sync::atomic::{AtomicU64, Ordering};

/// Layer boundaries the traced pass wraps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanName {
    /// Producer closure inside `ZipperWriter::write_slab` (one per step).
    ProducerWrite,
    /// Consumer closure inside `ZipperReader::read` (one per call).
    ConsumerRead,
    /// `Storage::put` through the `TimedFs` seam.
    StoragePut,
    /// `Storage::get` through the `TimedFs` seam.
    StorageGet,
    /// `WireSender::send` through the `TimedSender` seam (TCP path).
    SenderSend,
}

const SPAN_NAMES: usize = 5;

#[derive(Default)]
struct SpanAcc {
    busy_ns: AtomicU64,
    count: AtomicU64,
}

/// In-memory span totals shared by every thread of one traced iteration.
#[derive(Default)]
pub struct SpanBook {
    acc: [SpanAcc; SPAN_NAMES],
}

impl SpanBook {
    /// Run `f` as one span of `name`.
    pub fn time<R>(&self, name: SpanName, f: impl FnOnce() -> R) -> R {
        let t0 = now();
        let r = f();
        let ns = now().duration_since(t0).as_nanos() as u64;
        let acc = &self.acc[name as usize];
        // Statistics only: nothing is published through these counters.
        acc.busy_ns.fetch_add(ns, Ordering::Relaxed);
        acc.count.fetch_add(1, Ordering::Relaxed);
        r
    }

    /// Busy seconds recorded under `name`.
    pub fn busy_s(&self, name: SpanName) -> f64 {
        self.acc[name as usize].busy_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Spans recorded under `name`.
    pub fn count(&self, name: SpanName) -> u64 {
        self.acc[name as usize].count.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_per_name() {
        let book = SpanBook::default();
        assert_eq!(book.time(SpanName::StoragePut, || 7), 7);
        book.time(SpanName::StoragePut, || ());
        book.time(SpanName::SenderSend, || ());
        assert_eq!(book.count(SpanName::StoragePut), 2);
        assert_eq!(book.count(SpanName::SenderSend), 1);
        assert_eq!(book.count(SpanName::ConsumerRead), 0);
        assert!(book.busy_s(SpanName::StoragePut) >= 0.0);
        assert_eq!(book.busy_s(SpanName::StorageGet), 0.0);
    }
}
