//! Low-overhead span recording for concurrent substrates.
//!
//! The threaded runtime has a dozen lanes (application, sender, writer,
//! receiver, reader, deliver — per rank) racing on the hot path; a global
//! locked log per span would serialize them. Instead each lane owns a
//! [`LaneRecorder`]: spans and per-kind totals accumulate in lane-local
//! buffers with *no* shared state touched, and are merged into the run's
//! [`TraceSink`] when the lane finishes (or when a large local buffer
//! rotates). The runtime lanes keep their spans contiguous: each
//! [`LaneRecorder::boundary`] is one [`Clock`] read that closes the lane's
//! open span and opens the next, plus a couple of adds; with tracing
//! [`TraceMode::Off`] the clock is never read at all.
//!
//! Three fidelity levels:
//!
//! * [`TraceMode::Off`] — recorders are inert; near-zero cost.
//! * [`TraceMode::Totals`] — per-lane, per-kind time totals only
//!   (O(lanes) memory); enough for every aggregate metric view
//!   (stall/send/recv/fs/read-wait times). The default for real runs.
//! * [`TraceMode::Full`] — raw spans too, enabling timeline rendering and
//!   windowed step statistics (the paper's Figs. 17/19 views).

use crate::causal::CausalSink;
use crate::clock::{Clock, VirtualClock, WallClock};
use crate::log::{SharedTraceLog, TraceLog};
use crate::span::{LaneId, Span, SpanKind};
use crate::stats::KindBreakdown;
use crate::telemetry::Telemetry;
use std::sync::Arc;
use std::time::Duration;
use zipper_types::SimTime;

/// How much the run records.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TraceMode {
    /// Record nothing; recorders never read the clock.
    Off,
    /// Accumulate per-lane per-kind totals, drop raw spans.
    #[default]
    Totals,
    /// Keep raw spans as well (timeline rendering, window stats).
    Full,
}

impl TraceMode {
    pub fn enabled(self) -> bool {
        self != TraceMode::Off
    }

    /// Whether raw spans survive into the merged log.
    pub fn keeps_spans(self) -> bool {
        self == TraceMode::Full
    }
}

/// Spans buffered per lane before a mid-run rotation into the shared log.
/// Only reached by `Full`-mode lanes that record very many spans.
const ROTATE_AT: usize = 1 << 16;

/// The per-run collection point: one shared clock plus the merged
/// [`TraceLog`]. Cloning is cheap (`Arc`s); every lane of a run must hold
/// a recorder from the same sink so all spans share one time axis.
#[derive(Clone)]
pub struct TraceSink {
    mode: TraceMode,
    clock: Arc<dyn Clock>,
    log: SharedTraceLog,
    telemetry: Telemetry,
    causal: CausalSink,
}

impl TraceSink {
    /// A sink on the given clock. Threaded runs want [`TraceSink::wall`];
    /// the DES and tests pass a [`VirtualClock`].
    pub fn new(mode: TraceMode, clock: Arc<dyn Clock>) -> Self {
        let log = SharedTraceLog::new();
        log.with(|l| l.set_keep_spans(mode.keeps_spans()));
        Self {
            mode,
            clock,
            log,
            telemetry: Telemetry::off(),
            causal: CausalSink::off(),
        }
    }

    /// Attach a live [`Telemetry`] handle: components built from this sink
    /// (queues, transports, storage) clone it for their counters so all
    /// metrics of a run land in one registry.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The run's telemetry handle (a disabled one unless attached).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Enable causal-edge recording: components built from this sink
    /// record cross-entity edges (wire, queue, steal, gate, PFS, EOS) on
    /// the same clock as their spans. No-op when tracing is off — causal
    /// edges without spans cannot form a graph.
    pub fn with_causal(mut self) -> Self {
        if self.mode.enabled() {
            self.causal = CausalSink::new(Arc::clone(&self.clock));
        }
        self
    }

    /// The run's causal-edge handle (inert unless [`with_causal`] was
    /// called). Cloning is cheap; all clones feed one edge log.
    ///
    /// [`with_causal`]: TraceSink::with_causal
    pub fn causal(&self) -> &CausalSink {
        &self.causal
    }

    /// The clock spans are stamped with — share it with the metric
    /// [`crate::telemetry::Sampler`] so samples land on the same axis.
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock)
    }

    /// A wall-clock sink whose origin is "now" — the real runtime's sink.
    pub fn wall(mode: TraceMode) -> Self {
        Self::new(mode, Arc::new(WallClock::new()))
    }

    /// A sink driven by the returned virtual clock (DES / tests).
    pub fn virtual_clock(mode: TraceMode) -> (Self, VirtualClock) {
        let clock = VirtualClock::new();
        (Self::new(mode, Arc::new(clock.clone())), clock)
    }

    /// An inert sink: recorders cost nothing, the log stays empty.
    pub fn off() -> Self {
        Self::wall(TraceMode::Off)
    }

    pub fn mode(&self) -> TraceMode {
        self.mode
    }

    pub fn enabled(&self) -> bool {
        self.mode.enabled()
    }

    /// Current time on the sink's clock (ZERO when tracing is off).
    pub fn now(&self) -> SimTime {
        if self.mode.enabled() {
            self.clock.now()
        } else {
            SimTime::ZERO
        }
    }

    /// Open a recorder for one lane. The label is interned immediately so
    /// lanes appear in creation order even before they record, and the
    /// lane's first span opens now (the start of its first
    /// [`LaneRecorder::boundary`] span).
    pub fn recorder(&self, label: impl Into<String>) -> LaneRecorder {
        if !self.mode.enabled() {
            return LaneRecorder::inert();
        }
        let lane = self.log.lane(label);
        LaneRecorder {
            shared: Some(self.log.clone()),
            open: self.clock.now(),
            clock: Arc::clone(&self.clock),
            lane,
            keep_spans: self.mode.keeps_spans(),
            spans: Vec::new(),
            totals: KindBreakdown::default(),
            first: SimTime::MAX,
            last: SimTime::ZERO,
        }
    }

    /// Clone out the merged log. Lanes flush on drop/finish; recorders
    /// still alive have not contributed yet.
    pub fn snapshot(&self) -> TraceLog {
        self.log.snapshot()
    }

    /// Per-lane per-kind totals by label (the derived-metrics hook).
    /// Zero breakdown if the lane never recorded.
    pub fn lane_totals(&self, label: &str) -> KindBreakdown {
        self.log.with(|l| {
            l.lane_by_label(label)
                .map(|lane| l.lane_totals(lane).clone())
                .unwrap_or_default()
        })
    }
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::wall(TraceMode::default())
    }
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("mode", &self.mode)
            .finish()
    }
}

/// A lane-local span buffer: the only thing hot paths touch.
///
/// Obtained from [`TraceSink::recorder`]; owned by exactly one thread at a
/// time (it is `Send` but deliberately not `Sync`/`Clone`). All
/// accumulation is local; the shared log is locked only on [`flush`],
/// drop, or a `ROTATE_AT` rotation.
///
/// [`flush`]: LaneRecorder::flush
pub struct LaneRecorder {
    shared: Option<SharedTraceLog>,
    clock: Arc<dyn Clock>,
    lane: LaneId,
    keep_spans: bool,
    spans: Vec<Span>,
    totals: KindBreakdown,
    first: SimTime,
    last: SimTime,
    /// Start of the lane's open span: the last boundary.
    open: SimTime,
}

/// Placeholder clock for inert recorders (never read).
struct NeverClock;

impl Clock for NeverClock {
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }
}

impl LaneRecorder {
    /// A recorder that drops everything (tracing off).
    pub fn inert() -> Self {
        Self {
            shared: None,
            clock: Arc::new(NeverClock),
            lane: LaneId(0),
            keep_spans: false,
            spans: Vec::new(),
            totals: KindBreakdown::default(),
            first: SimTime::MAX,
            last: SimTime::ZERO,
            open: SimTime::ZERO,
        }
    }

    /// Current time on the run's clock (ZERO when inert).
    #[inline]
    pub fn now(&self) -> SimTime {
        if self.shared.is_some() {
            self.clock.now()
        } else {
            SimTime::ZERO
        }
    }

    /// Record a `[t0, t1)` span.
    #[inline]
    pub fn record(&mut self, kind: SpanKind, t0: SimTime, t1: SimTime) {
        self.record_span(Span::new(self.lane, kind, t0, t1));
    }

    fn record_span(&mut self, span: Span) {
        if self.shared.is_none() {
            return;
        }
        self.totals.add(span.kind, span.duration());
        self.first = self.first.min(span.t0);
        self.last = self.last.max(span.t1);
        if self.keep_spans {
            self.spans.push(span);
            if self.spans.len() >= ROTATE_AT {
                self.flush();
            }
        }
    }

    /// Time `f` and record it as one `kind` span. When inert the closure
    /// runs untimed — no clock reads. For lanes that record isolated
    /// operations; a lane kept contiguous by [`LaneRecorder::boundary`]
    /// must not mix the two, or the spans overlap.
    #[inline]
    pub fn time<R>(&mut self, kind: SpanKind, f: impl FnOnce() -> R) -> R {
        if self.shared.is_none() {
            return f();
        }
        let t0 = self.clock.now();
        let r = f();
        let t1 = self.clock.now();
        self.record(kind, t0, t1);
        r
    }

    /// One lane boundary, one clock read: close the lane's open span at
    /// "now" and open the next one there. With `wait = Some((wait_kind,
    /// d))` the closed span's last `d` (a wait that ended at this
    /// boundary, as its call reported it) is recorded as `wait_kind`; the
    /// rest is recorded as `kind`, step-marked unless `step` is
    /// [`Span::NO_STEP`].
    ///
    /// This is how every runtime lane is timed. The application lanes
    /// close at each runtime call, so the gap since the previous call *is*
    /// the application's compute or analysis span; a runtime thread closes
    /// where its work changes kind. A call that did not block is charged
    /// to `kind`, so the lane's spans cover its extent without gaps.
    pub fn boundary(&mut self, kind: SpanKind, step: u64, wait: Option<(SpanKind, Duration)>) {
        if self.shared.is_none() {
            return;
        }
        let now = self.clock.now();
        let t0 = std::mem::replace(&mut self.open, now);
        let (wait_kind, waited) = wait.unwrap_or((kind, Duration::ZERO));
        let split = now
            .saturating_sub(SimTime::from_nanos(waited.as_nanos() as u64))
            .max(t0);
        if split > t0 {
            self.record_span(Span::new(self.lane, kind, t0, split).with_step(step));
        }
        if now > split {
            self.record_span(Span::new(self.lane, wait_kind, split, now));
        }
    }

    /// Merge everything local into the shared log. Called automatically on
    /// drop and on buffer rotation; idempotent.
    pub fn flush(&mut self) {
        let Some(shared) = &self.shared else {
            return;
        };
        if self.first == SimTime::MAX && self.spans.is_empty() {
            return; // nothing recorded since last flush
        }
        shared.with(|log| {
            if self.keep_spans {
                // `record` refreshes totals/extents from the raw spans.
                for s in self.spans.drain(..) {
                    log.record(s);
                }
            } else {
                log.add_lane_totals(self.lane, &self.totals, self.first, self.last);
            }
        });
        self.totals = KindBreakdown::default();
        self.first = SimTime::MAX;
        self.last = SimTime::ZERO;
    }
}

impl Drop for LaneRecorder {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    #[test]
    fn totals_mode_accumulates_without_spans() {
        let (sink, clock) = TraceSink::virtual_clock(TraceMode::Totals);
        let mut rec = sink.recorder("sim/p0/app");
        let done = rec.time(SpanKind::Compute, || {
            clock.advance(ms(7));
            42
        });
        assert_eq!(done, 42);
        rec.record(SpanKind::Stall, ms(7), ms(10));
        drop(rec); // flushes
        let log = sink.snapshot();
        assert_eq!(log.spans().len(), 0, "totals mode drops raw spans");
        assert_eq!(sink.lane_totals("sim/p0/app").get(SpanKind::Compute), ms(7));
        assert_eq!(sink.lane_totals("sim/p0/app").get(SpanKind::Stall), ms(3));
        assert_eq!(log.horizon(), ms(10));
    }

    #[test]
    fn full_mode_keeps_spans_for_rendering() {
        let (sink, clock) = TraceSink::virtual_clock(TraceMode::Full);
        clock.set(ms(1));
        let mut rec = sink.recorder("ana/q0/app");
        clock.advance(ms(4));
        rec.boundary(SpanKind::Analysis, 0, None);
        clock.advance(ms(2));
        rec.boundary(SpanKind::Analysis, 1, None);
        rec.flush();
        let log = sink.snapshot();
        assert_eq!(log.spans().len(), 2);
        assert_eq!(log.spans()[0].step, 0);
        assert_eq!(log.spans()[0].t0, ms(1));
        assert_eq!(log.spans()[0].t1, ms(5));
        let w = stats::window_stats(&log, ms(0), ms(10));
        assert!((w.steps_per_lane - 2.0).abs() < 1e-9);
    }

    #[test]
    fn boundaries_keep_a_lane_contiguous_and_split_off_the_wait() {
        let (sink, clock) = TraceSink::virtual_clock(TraceMode::Full);
        clock.set(ms(2));
        let mut rec = sink.recorder("sim/p0/app");
        // 10 ms since the lane opened, the last 3 of them blocked.
        clock.advance(ms(10));
        rec.boundary(
            SpanKind::Compute,
            7,
            Some((SpanKind::Stall, Duration::from_millis(3))),
        );
        // A wait reported longer than the open span is clamped to it.
        clock.advance(ms(1));
        rec.boundary(
            SpanKind::Compute,
            8,
            Some((SpanKind::Stall, Duration::from_millis(5))),
        );
        // No time since the last boundary: nothing to record.
        rec.boundary(SpanKind::Compute, 9, None);
        rec.flush();
        let got: Vec<_> = sink
            .snapshot()
            .spans()
            .iter()
            .map(|s| (s.kind, s.t0, s.t1, s.step))
            .collect();
        assert_eq!(
            got,
            vec![
                (SpanKind::Compute, ms(2), ms(9), 7),
                (SpanKind::Stall, ms(9), ms(12), Span::NO_STEP),
                (SpanKind::Stall, ms(12), ms(13), Span::NO_STEP),
            ]
        );
    }

    #[test]
    fn inert_recorder_costs_nothing_and_records_nothing() {
        let sink = TraceSink::off();
        let mut rec = sink.recorder("sim/p0/app");
        rec.record(SpanKind::Compute, ms(0), ms(5));
        let x = rec.time(SpanKind::Send, || 5);
        assert_eq!(x, 5);
        rec.boundary(SpanKind::Compute, 0, None);
        drop(rec);
        let log = sink.snapshot();
        assert_eq!(log.lane_count(), 0);
        assert_eq!(log.spans().len(), 0);
    }

    #[test]
    fn concurrent_lanes_merge_into_one_log() {
        let sink = TraceSink::wall(TraceMode::Full);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let sink = sink.clone();
            handles.push(std::thread::spawn(move || {
                let mut rec = sink.recorder(format!("sim/p{t}/app"));
                for step in 0..8 {
                    rec.time(SpanKind::Compute, || std::hint::black_box(step));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let log = sink.snapshot();
        assert_eq!(log.lane_count(), 4);
        assert_eq!(log.spans().len(), 32);
    }

    #[test]
    fn rotation_does_not_double_count() {
        let (sink, clock) = TraceSink::virtual_clock(TraceMode::Full);
        let mut rec = sink.recorder("lane");
        for _ in 0..(ROTATE_AT + 10) {
            let t0 = clock.now();
            clock.advance(SimTime::from_nanos(1));
            rec.record(SpanKind::Compute, t0, clock.now());
        }
        rec.flush();
        let log = sink.snapshot();
        assert_eq!(log.spans().len(), ROTATE_AT + 10);
        assert_eq!(
            log.lane_totals(LaneId(0)).get(SpanKind::Compute),
            SimTime::from_nanos((ROTATE_AT + 10) as u64)
        );
    }
}
