//! Flight-recorder metrics: counters, gauges, and log-bucketed histograms.
//!
//! The paper diagnoses Omni-Path congestion with the fabric's `XmitWait`
//! hardware counters (§5): a monotonically increasing count of cycles a
//! port spent *wanting* to transmit but unable to. This module is the
//! live-counter view of what no span records: the send paths and
//! throttles bump stall-time counters, the queues move depth gauges, and
//! a sampler snapshots them at a fixed period into a time-series, so a
//! congested interval shows up as a rising stall slope exactly the way
//! `XmitWait` does on the real fabric. Time blocked on a queue or slept
//! in a retry backoff is not a counter: it is a lane span (`Stall`,
//! `Idle`, `ReadWait`, `Retry`), read through the lanes' `KindBreakdown`s.
//!
//! Design constraints, in order:
//!
//! 1. **Near-zero cost when disabled.** [`Telemetry`] is a cheap-clone
//!    handle whose fast path is one branch on a local `bool`; a disabled
//!    handle never touches shared memory.
//! 2. **Lock-light when enabled.** All metrics are relaxed atomics; hot
//!    loops can accumulate into a plain-integer [`MetricShard`] and merge
//!    once at join, mirroring how [`crate::LaneRecorder`] buffers spans.
//! 3. **Substrate-agnostic sampling.** The threaded runtime spawns a
//!    [`Sampler`] thread on the wall clock; the DES drives a [`Probe`]
//!    from its event loop at virtual timestamps. Both yield the same
//!    [`SampleSeries`].

// Sanctioned wall-clock owner: the Sampler paces real-time snapshots here so
// nothing else needs to (clippy.toml disallowed-methods).
#![allow(clippy::disallowed_methods)]
use crate::clock::Clock;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use zipper_types::SimTime;

/// Monotonic counters. Most are *stall-time* totals in nanoseconds — the
/// software analogue of `XmitWait` — plus traffic volume counters.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CounterId {
    /// Bytes accepted by the message-channel / wire send path.
    NetBytes,
    /// Messages accepted by the message-channel / wire send path.
    NetMessages,
    /// Nanoseconds senders spent blocked on a full consumer inbox.
    NetBackpressureNs,
    /// Nanoseconds senders spent inside the bandwidth `Throttle`
    /// (`zipper-core`) waiting for modelled link capacity.
    ThrottleStallNs,
    /// Nanoseconds spent blocked writing a frame into a TCP socket.
    TcpStallNs,
    /// Nanoseconds lost to the PFS bandwidth throttle (`ThrottledFs`).
    PfsStallNs,
    /// DES only: the engine's modelled `XmitWait` total across all nodes,
    /// mirrored from `hpcsim::Network` at each probe tick.
    XmitWaitNs,
}

impl CounterId {
    /// All counters, in dense-index order.
    pub const ALL: [CounterId; 7] = [
        CounterId::NetBytes,
        CounterId::NetMessages,
        CounterId::NetBackpressureNs,
        CounterId::ThrottleStallNs,
        CounterId::TcpStallNs,
        CounterId::PfsStallNs,
        CounterId::XmitWaitNs,
    ];

    /// Dense index into counter arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable metric name used in exports and reports.
    pub fn name(self) -> &'static str {
        match self {
            CounterId::NetBytes => "net.bytes",
            CounterId::NetMessages => "net.messages",
            CounterId::NetBackpressureNs => "net.backpressure_ns",
            CounterId::ThrottleStallNs => "net.throttle_stall_ns",
            CounterId::TcpStallNs => "net.tcp_stall_ns",
            CounterId::PfsStallNs => "pfs.stall_ns",
            CounterId::XmitWaitNs => "net.xmit_wait_ns",
        }
    }
}

/// Instantaneous levels (may go up and down), sampled into the series.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum GaugeId {
    /// Occupancy summed over producer-side block queues.
    ProducerQueueDepth,
    /// Occupancy summed over consumer-side block queues.
    ConsumerQueueDepth,
    /// Messages in flight in consumer inboxes (sent, not yet received).
    InboxDepth,
    /// DES only: total occupancy of the engine's staging buffers.
    DesBufferDepth,
}

impl GaugeId {
    /// All gauges, in dense-index order.
    pub const ALL: [GaugeId; 4] = [
        GaugeId::ProducerQueueDepth,
        GaugeId::ConsumerQueueDepth,
        GaugeId::InboxDepth,
        GaugeId::DesBufferDepth,
    ];

    /// Dense index into gauge arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable metric name used in exports and reports.
    pub fn name(self) -> &'static str {
        match self {
            GaugeId::ProducerQueueDepth => "queue.producer_depth",
            GaugeId::ConsumerQueueDepth => "queue.consumer_depth",
            GaugeId::InboxDepth => "net.inbox_depth",
            GaugeId::DesBufferDepth => "des.buffer_depth",
        }
    }
}

/// Log₂-bucketed distributions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum HistogramId {
    /// Wire message sizes, bytes.
    SendBytes,
    /// Write sizes of stolen blocks, bytes: one observation per `put` a
    /// work-stealing writer issues, whatever the storage backend.
    PfsWriteBytes,
    /// Individual sender stall durations, nanoseconds.
    StallNs,
}

impl HistogramId {
    /// All histograms, in dense-index order.
    pub const ALL: [HistogramId; 3] = [
        HistogramId::SendBytes,
        HistogramId::PfsWriteBytes,
        HistogramId::StallNs,
    ];

    /// Dense index into histogram arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable metric name used in exports and reports.
    pub fn name(self) -> &'static str {
        match self {
            HistogramId::SendBytes => "net.send_bytes",
            HistogramId::PfsWriteBytes => "pfs.write_bytes",
            HistogramId::StallNs => "net.stall_ns",
        }
    }
}

/// Number of log₂ buckets: bucket `i` holds values whose bit length is
/// `i`, i.e. value 0 → bucket 0, value `v>0` → bucket `64 − v.lz()`.
pub const HISTOGRAM_BUCKETS: usize = 65;

#[inline]
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Lower bound of bucket `i` (inclusive): 0, 1, 2, 4, 8, …
#[inline]
pub fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Atomic log₂ histogram: per-bucket counts plus running count and sum.
#[derive(Debug)]
struct AtomicHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl AtomicHistogram {
    fn new() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    #[inline]
    fn observe(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A plain-data histogram snapshot. Merging is element-wise addition, so
/// it is associative and commutative by construction (property-tested in
/// `tests/proptest_invariants.rs`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts; bucket `i` covers
    /// `[bucket_floor(i), bucket_floor(i+1))`.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Record one value (plain, non-atomic — for shards and tests). The
    /// running sum wraps on overflow, matching the atomic store.
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    /// Element-wise merge of another snapshot into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Mean observed value, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper-bound estimate of the `q`-quantile (0 ≤ q ≤ 1): the floor of
    /// the first bucket whose cumulative count reaches `q · count`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return bucket_floor(i);
            }
        }
        bucket_floor(HISTOGRAM_BUCKETS - 1)
    }
}

/// The shared metric store behind a [`Telemetry`] handle.
#[derive(Debug)]
pub struct MetricRegistry {
    counters: [AtomicU64; CounterId::ALL.len()],
    gauges: [AtomicI64; GaugeId::ALL.len()],
    histograms: [AtomicHistogram; HistogramId::ALL.len()],
}

impl MetricRegistry {
    fn new() -> Self {
        MetricRegistry {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicI64::new(0)),
            histograms: std::array::from_fn(|_| AtomicHistogram::new()),
        }
    }
}

/// Cheap-clone handle to a run's metric registry.
///
/// A disabled handle (the default) costs one branch per call and shares
/// no state; an enabled one updates relaxed atomics. Clone it freely into
/// every thread, queue, and transport of a run — all clones land in the
/// same registry.
#[derive(Clone, Debug)]
pub struct Telemetry {
    enabled: bool,
    inner: Arc<MetricRegistry>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::off()
    }
}

impl Telemetry {
    /// A disabled handle: every recording call is a no-op.
    pub fn off() -> Self {
        Telemetry {
            enabled: false,
            inner: Arc::new(MetricRegistry::new()),
        }
    }

    /// A live handle with a fresh registry.
    pub fn on() -> Self {
        Telemetry {
            enabled: true,
            inner: Arc::new(MetricRegistry::new()),
        }
    }

    /// Whether recording calls do anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Add `v` to a monotonic counter.
    #[inline]
    pub fn add(&self, id: CounterId, v: u64) {
        if self.enabled {
            self.inner.counters[id.index()].fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Add a duration (as nanoseconds) to a stall-time counter.
    #[inline]
    pub fn add_time(&self, id: CounterId, d: Duration) {
        if self.enabled {
            self.inner.counters[id.index()].fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Overwrite a counter with an externally accumulated total (used by
    /// the DES probe to mirror the engine's own monotone counters, e.g.
    /// `Network::xmit_wait_sum`).
    #[inline]
    pub fn set_counter(&self, id: CounterId, v: u64) {
        if self.enabled {
            self.inner.counters[id.index()].store(v, Ordering::Relaxed);
        }
    }

    /// Move a gauge by `delta` (negative to decrement).
    #[inline]
    pub fn gauge_add(&self, id: GaugeId, delta: i64) {
        if self.enabled {
            self.inner.gauges[id.index()].fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Set a gauge to an absolute level.
    #[inline]
    pub fn gauge_set(&self, id: GaugeId, v: i64) {
        if self.enabled {
            self.inner.gauges[id.index()].store(v, Ordering::Relaxed);
        }
    }

    /// Record one observation into a histogram.
    #[inline]
    pub fn observe(&self, id: HistogramId, v: u64) {
        if self.enabled {
            self.inner.histograms[id.index()].observe(v);
        }
    }

    /// Open a plain-integer shard for a hot loop; merge it back with
    /// [`MetricShard::merge`] (or implicitly on drop).
    pub fn shard(&self) -> MetricShard {
        MetricShard {
            counters: [0; CounterId::ALL.len()],
            histograms: std::array::from_fn(|_| None),
            parent: self.clone(),
        }
    }

    /// Copy the current state of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            enabled: self.enabled,
            counters: std::array::from_fn(|i| self.inner.counters[i].load(Ordering::Relaxed)),
            gauges: std::array::from_fn(|i| self.inner.gauges[i].load(Ordering::Relaxed)),
            histograms: std::array::from_fn(|i| self.inner.histograms[i].snapshot()),
        }
    }

    /// One time-series point at timestamp `t` (counters + gauges only —
    /// histograms are cumulative and reported in the final snapshot).
    fn sample(&self, t: SimTime) -> SamplePoint {
        SamplePoint {
            t,
            counters: std::array::from_fn(|i| self.inner.counters[i].load(Ordering::Relaxed)),
            gauges: std::array::from_fn(|i| self.inner.gauges[i].load(Ordering::Relaxed)),
        }
    }
}

/// Thread-local (unsynchronized) accumulator for hot loops: counters and
/// histogram observations collect into plain integers and merge into the
/// parent registry once, at join — one cache-line dance per lane instead
/// of per block. Merges on drop if not merged explicitly.
pub struct MetricShard {
    counters: [u64; CounterId::ALL.len()],
    histograms: [Option<Box<HistogramSnapshot>>; HistogramId::ALL.len()],
    parent: Telemetry,
}

impl MetricShard {
    /// Add `v` to the local copy of a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, v: u64) {
        if self.parent.enabled {
            self.counters[id.index()] += v;
        }
    }

    /// Record one observation into the local copy of a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, v: u64) {
        if self.parent.enabled {
            self.histograms[id.index()]
                .get_or_insert_with(Default::default)
                .observe(v);
        }
    }

    /// Publish everything accumulated so far and reset the shard.
    pub fn merge(&mut self) {
        if !self.parent.enabled {
            return;
        }
        for (i, c) in self.counters.iter_mut().enumerate() {
            if *c > 0 {
                self.parent.inner.counters[i].fetch_add(*c, Ordering::Relaxed);
                *c = 0;
            }
        }
        for (i, h) in self.histograms.iter_mut().enumerate() {
            if let Some(h) = h.take() {
                let target = &self.parent.inner.histograms[i];
                for (b, &n) in h.buckets.iter().enumerate() {
                    if n > 0 {
                        target.buckets[b].fetch_add(n, Ordering::Relaxed);
                    }
                }
                target.count.fetch_add(h.count, Ordering::Relaxed);
                target.sum.fetch_add(h.sum, Ordering::Relaxed);
            }
        }
    }
}

impl Drop for MetricShard {
    fn drop(&mut self) {
        self.merge();
    }
}

/// Final totals of every metric, exposed by `WorkflowReport` and
/// `TransportResult`.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    enabled: bool,
    counters: [u64; CounterId::ALL.len()],
    gauges: [i64; GaugeId::ALL.len()],
    histograms: [HistogramSnapshot; HistogramId::ALL.len()],
}

impl MetricsSnapshot {
    /// Whether the run had telemetry enabled (a disabled run yields an
    /// all-zero snapshot that renders as "telemetry off").
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Final value of a counter.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id.index()]
    }

    /// Final level of a gauge.
    pub fn gauge(&self, id: GaugeId) -> i64 {
        self.gauges[id.index()]
    }

    /// Final state of a histogram.
    pub fn histogram(&self, id: HistogramId) -> &HistogramSnapshot {
        &self.histograms[id.index()]
    }

    /// Human-readable multi-line rendering of the non-zero metrics.
    pub fn summary(&self) -> String {
        if !self.enabled {
            return "telemetry: off\n".to_string();
        }
        let mut out = String::from("telemetry:\n");
        for id in CounterId::ALL {
            let v = self.counter(id);
            if v == 0 {
                continue;
            }
            if id.name().ends_with("_ns") {
                out.push_str(&format!("  {:<24} {}\n", id.name(), SimTime::from_nanos(v)));
            } else {
                out.push_str(&format!("  {:<24} {v}\n", id.name()));
            }
        }
        for id in HistogramId::ALL {
            let h = self.histogram(id);
            if h.count == 0 {
                continue;
            }
            out.push_str(&format!(
                "  {:<24} n={} mean={:.0} p99<={}\n",
                id.name(),
                h.count,
                h.mean(),
                h.quantile(0.99)
            ));
        }
        out
    }
}

/// One time-series sample: every counter and gauge at timestamp `t`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SamplePoint {
    /// When the sample was taken (wall or virtual nanoseconds since run
    /// start, same axis as the run's spans).
    pub t: SimTime,
    counters: [u64; CounterId::ALL.len()],
    gauges: [i64; GaugeId::ALL.len()],
}

impl SamplePoint {
    /// Counter total at this sample.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id.index()]
    }

    /// Gauge level at this sample.
    pub fn gauge(&self, id: GaugeId) -> i64 {
        self.gauges[id.index()]
    }
}

/// A periodically sampled metric time-series. Timestamps are monotone
/// non-decreasing (property-tested under both clocks).
#[derive(Clone, Debug, Default)]
pub struct SampleSeries {
    /// Configured sampling period.
    pub period: SimTime,
    /// The samples, in capture order.
    pub points: Vec<SamplePoint>,
}

impl SampleSeries {
    /// Number of samples captured.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no samples were captured (telemetry off or a run shorter
    /// than one period).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// True when timestamps never decrease — the invariant both the wall
    /// sampler and the DES probe maintain.
    pub fn is_monotone(&self) -> bool {
        self.points.windows(2).all(|w| w[0].t <= w[1].t)
    }

    /// Extract one counter as `(t, total)` pairs.
    pub fn counter_series(&self, id: CounterId) -> Vec<(SimTime, u64)> {
        self.points.iter().map(|p| (p.t, p.counter(id))).collect()
    }

    /// Peak level a gauge reached across the series.
    pub fn gauge_peak(&self, id: GaugeId) -> i64 {
        self.points.iter().map(|p| p.gauge(id)).max().unwrap_or(0)
    }
}

/// Background sampler for the threaded runtime: a thread snapshots the
/// registry every `period` of wall time until [`Sampler::stop`].
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Vec<SamplePoint>>,
    period: SimTime,
}

impl Sampler {
    /// Spawn the sampling thread. `clock` must be the same clock the
    /// run's spans use (i.e. [`crate::TraceSink::clock`]) so samples and
    /// spans share a time axis. A disabled `telemetry` handle yields an
    /// empty series without spawning real work.
    pub fn spawn(telemetry: Telemetry, clock: Arc<dyn Clock>, period: Duration) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let period = period.max(Duration::from_micros(50));
        let handle = std::thread::Builder::new()
            .name("telemetry-sampler".into())
            .spawn(move || {
                let mut points = Vec::new();
                if !telemetry.is_enabled() {
                    return points;
                }
                while !stop2.load(Ordering::Relaxed) {
                    std::thread::sleep(period);
                    points.push(telemetry.sample(clock.now()));
                }
                // Final sample so short runs still get at least one point.
                points.push(telemetry.sample(clock.now()));
                points
            })
            .expect("spawn telemetry sampler");
        Sampler {
            stop,
            handle,
            period: SimTime::from_nanos(period.as_nanos() as u64),
        }
    }

    /// Stop the thread and collect the series.
    pub fn stop(self) -> SampleSeries {
        self.stop.store(true, Ordering::Relaxed);
        let points = self.handle.join().unwrap_or_default();
        SampleSeries {
            period: self.period,
            points,
        }
    }
}

/// DES-side sampler: the engine calls [`Probe::poll`] from its event loop
/// as virtual time advances, and the probe emits samples at exact period
/// boundaries — so a run always yields the same series regardless of how
/// events interleave between ticks.
#[derive(Debug)]
pub struct Probe {
    period: SimTime,
    next: SimTime,
    points: Vec<SamplePoint>,
}

impl Probe {
    /// A probe sampling every `period` of virtual time.
    pub fn new(period: SimTime) -> Self {
        let period = period.max(SimTime::from_nanos(1));
        Probe {
            period,
            next: period,
            points: Vec::new(),
        }
    }

    /// Whether [`Probe::poll`] at `now` would emit a sample — lets the
    /// caller bring mirrored values up to date only when one will be read.
    pub fn is_due(&self, now: SimTime) -> bool {
        self.next <= now
    }

    /// Advance to virtual time `now`, emitting one sample per elapsed
    /// period boundary. Timestamps are the boundaries themselves, so the
    /// series is monotone and deterministic.
    pub fn poll(&mut self, now: SimTime, telemetry: &Telemetry) {
        if !telemetry.is_enabled() {
            return;
        }
        while self.next <= now {
            self.points.push(telemetry.sample(self.next));
            self.next += self.period;
        }
    }

    /// Finish, taking one last sample at `now`, and yield the series.
    pub fn finish(mut self, now: SimTime, telemetry: &Telemetry) -> SampleSeries {
        if telemetry.is_enabled() {
            let t = self.points.last().map(|p| p.t.max(now)).unwrap_or(now);
            self.points.push(telemetry.sample(t));
        }
        SampleSeries {
            period: self.period,
            points: self.points,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::off();
        t.add(CounterId::NetBytes, 100);
        t.gauge_add(GaugeId::InboxDepth, 5);
        t.observe(HistogramId::SendBytes, 64);
        let s = t.snapshot();
        assert!(!s.is_enabled());
        assert_eq!(s.counter(CounterId::NetBytes), 0);
        assert_eq!(s.gauge(GaugeId::InboxDepth), 0);
        assert_eq!(s.histogram(HistogramId::SendBytes).count, 0);
    }

    #[test]
    fn clones_share_one_registry() {
        let t = Telemetry::on();
        let t2 = t.clone();
        t.add(CounterId::NetMessages, 3);
        t2.add(CounterId::NetMessages, 4);
        t2.gauge_add(GaugeId::ProducerQueueDepth, 2);
        t2.gauge_add(GaugeId::ProducerQueueDepth, -1);
        assert_eq!(t.snapshot().counter(CounterId::NetMessages), 7);
        assert_eq!(t.snapshot().gauge(GaugeId::ProducerQueueDepth), 1);
    }

    #[test]
    fn shard_merges_at_drop_and_explicitly() {
        let t = Telemetry::on();
        {
            let mut shard = t.shard();
            shard.add(CounterId::NetBytes, 10);
            shard.observe(HistogramId::SendBytes, 1024);
            shard.merge();
            assert_eq!(t.snapshot().counter(CounterId::NetBytes), 10);
            shard.add(CounterId::NetBytes, 5);
            // Not merged yet.
            assert_eq!(t.snapshot().counter(CounterId::NetBytes), 10);
        }
        // Drop merged the remainder.
        let s = t.snapshot();
        assert_eq!(s.counter(CounterId::NetBytes), 15);
        assert_eq!(s.histogram(HistogramId::SendBytes).count, 1);
        assert_eq!(s.histogram(HistogramId::SendBytes).sum, 1024);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = HistogramSnapshot::default();
        h.observe(0); // bucket 0
        h.observe(1); // bucket 1
        h.observe(2); // bucket 2
        h.observe(3); // bucket 2
        h.observe(4); // bucket 3
        h.observe(1u64 << 63); // bucket 64
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.buckets[3], 1);
        assert_eq!(h.buckets[64], 1);
        assert_eq!(h.count, 6);
        assert_eq!(bucket_floor(0), 0);
        assert_eq!(bucket_floor(3), 4);
    }

    #[test]
    fn quantile_is_an_upper_bucket_bound() {
        let mut h = HistogramSnapshot::default();
        for _ in 0..99 {
            h.observe(100); // bucket 7 (floor 64)
        }
        h.observe(100_000); // bucket 17 (floor 65536)
        assert_eq!(h.quantile(0.5), 64);
        assert_eq!(h.quantile(1.0), 65_536);
    }

    #[test]
    fn des_probe_emits_on_period_boundaries() {
        let t = Telemetry::on();
        let mut probe = Probe::new(SimTime::from_millis(10));
        t.add(CounterId::NetBytes, 1);
        probe.poll(SimTime::from_millis(25), &t); // boundaries 10, 20
        t.add(CounterId::NetBytes, 1);
        probe.poll(SimTime::from_millis(30), &t); // boundary 30
        let series = probe.finish(SimTime::from_millis(31), &t);
        assert_eq!(series.len(), 4);
        assert!(series.is_monotone());
        assert_eq!(series.points[0].t, SimTime::from_millis(10));
        assert_eq!(series.points[0].counter(CounterId::NetBytes), 1);
        assert_eq!(series.points[2].t, SimTime::from_millis(30));
        assert_eq!(series.points[2].counter(CounterId::NetBytes), 2);
    }

    #[test]
    fn wall_sampler_produces_a_monotone_series() {
        let t = Telemetry::on();
        let clock: Arc<dyn Clock> = Arc::new(crate::clock::WallClock::new());
        let sampler = Sampler::spawn(t.clone(), clock, Duration::from_micros(200));
        t.gauge_set(GaugeId::InboxDepth, 7);
        std::thread::sleep(Duration::from_millis(3));
        let series = sampler.stop();
        assert!(!series.is_empty());
        assert!(series.is_monotone());
        assert_eq!(series.points.last().unwrap().gauge(GaugeId::InboxDepth), 7);
    }

    #[test]
    fn metric_indices_are_dense_and_names_unique() {
        for (i, c) in CounterId::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, g) in GaugeId::ALL.iter().enumerate() {
            assert_eq!(g.index(), i);
        }
        for (i, h) in HistogramId::ALL.iter().enumerate() {
            assert_eq!(h.index(), i);
        }
        let mut names: Vec<&str> = CounterId::ALL.iter().map(|c| c.name()).collect();
        names.extend(GaugeId::ALL.iter().map(|g| g.name()));
        names.extend(HistogramId::ALL.iter().map(|h| h.name()));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
