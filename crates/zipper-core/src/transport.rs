//! The message channel between producer and consumer ranks: a mesh of
//! bounded channels, optionally throttled to a shared aggregate bandwidth
//! so a laptop run exhibits the finite-network effects the paper measures.

// Threaded substrate: real channel timeouts and bandwidth pacing are this
// module's job — the DES twin models the mesh in virtual time. Decisions stay
// in zipper-policy, which this lint keeps wall-clock-free.
#![allow(clippy::disallowed_methods)]
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use zipper_pfs::Drain;
use zipper_policy::Channel;
use zipper_trace::{CounterId, GaugeId, HistogramId, LaneRecorder, SpanKind, Telemetry, TraceSink};
use zipper_types::{Error, MixedMessage, Rank, Result, RetryPolicy, RuntimeError};

/// What travels on the wire: mixed messages, or a per-channel
/// end-of-stream marker from one producer rank. In `concurrent_transfer`
/// mode a producer announces its message channel (sender drained) and
/// its file channel (writer retired, trailing disk IDs flushed)
/// *separately* — a consumer completes a producer only once every active
/// channel's marker arrived, which keeps a swallowed marker on either
/// channel distinguishable (the `DropEos` chaos scenarios).
#[derive(Clone, Debug)]
pub enum Wire {
    Msg(MixedMessage),
    Eos(Rank, Channel),
}

/// One slot in a consumer's inbox: a decoded wire, or a typed transport
/// fault forwarded in-band (e.g. a TCP reader that hit a corrupt frame).
/// Delivering faults through the same channel keeps them ordered with the
/// data stream and guarantees the consumer sees them instead of hanging.
pub type WireItem = std::result::Result<Wire, RuntimeError>;

impl Wire {
    pub(crate) fn wire_bytes(&self) -> u64 {
        match self {
            Wire::Msg(m) => m.wire_bytes(),
            Wire::Eos(..) => 16,
        }
    }
}

/// A P→Q channel mesh: every producer holds a [`MeshSender`] that can reach
/// any consumer; every consumer holds the [`MeshReceiver`] for its own rank.
pub struct ChannelMesh {
    /// The endpoint every [`ChannelMesh::sender`] is a clone of; it holds
    /// the channels, the throttle and the shared traffic counters.
    sender: MeshSender,
    rxs: Mutex<Vec<Option<Receiver<WireItem>>>>,
}

impl ChannelMesh {
    /// Create a mesh toward `consumers` ranks, each with a bounded inbox of
    /// `inbox_capacity` messages (backpressure: senders block on a full
    /// inbox exactly like a congested NIC).
    pub fn new(consumers: usize, inbox_capacity: usize) -> Self {
        assert!(consumers > 0, "need at least one consumer");
        assert!(inbox_capacity > 0, "inbox capacity must be positive");
        let (txs, rxs) = (0..consumers)
            .map(|_| bounded(inbox_capacity))
            .map(|(tx, rx)| (tx, Some(rx)))
            .unzip();
        ChannelMesh {
            sender: MeshSender {
                txs,
                throttle: None,
                bytes_sent: Arc::new(AtomicU64::new(0)),
                messages_sent: Arc::new(AtomicU64::new(0)),
                backpressure_ns: Arc::new(AtomicU64::new(0)),
                telemetry: Telemetry::off(),
            },
            rxs: Mutex::new(rxs),
        }
    }

    /// Publish send/stall counters and the in-flight inbox-depth gauge
    /// into `telemetry`; endpoints created afterwards carry the handle.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.sender.telemetry = telemetry;
        self
    }

    /// Impose a shared aggregate bandwidth (bytes/s) and per-message
    /// latency on every send: concurrent senders queue on one [`Drain`],
    /// and the time each sleeps there is its `XmitWait`-style stall.
    pub fn with_throttle(mut self, bytes_per_sec: f64, latency: Duration) -> Self {
        self.sender.throttle = Some(Arc::new(Drain::new(bytes_per_sec, latency)));
        self
    }

    /// Number of consumer endpoints.
    pub fn consumers(&self) -> usize {
        self.sender.txs.len()
    }

    /// A sender handle for one producer rank (cheap to clone internally;
    /// one per producer thread).
    pub fn sender(&self) -> MeshSender {
        self.sender.clone()
    }

    /// Take the receiver endpoint for consumer `rank`. Each rank's receiver
    /// can be taken exactly once; a second take (or an out-of-range rank)
    /// is a configuration error, reported instead of panicking.
    pub fn take_receiver(&self, rank: Rank) -> Result<MeshReceiver> {
        let mut rxs = self.rxs.lock();
        let slot = rxs
            .get_mut(rank.idx())
            .ok_or_else(|| Error::Config(format!("consumer {rank:?} out of range")))?;
        let rx = slot
            .take()
            .ok_or_else(|| Error::Config(format!("receiver for {rank:?} already taken")))?;
        Ok(MeshReceiver {
            rx,
            consumers: self.consumers(),
            telemetry: self.sender.telemetry.clone(),
        })
    }

    /// Total payload bytes pushed through the mesh.
    pub fn bytes_sent(&self) -> u64 {
        self.sender.bytes_sent.load(Ordering::Relaxed)
    }

    /// Total messages pushed through the mesh.
    pub fn messages_sent(&self) -> u64 {
        self.sender.messages_sent.load(Ordering::Relaxed)
    }

    /// Cumulative time senders spent blocked on full consumer inboxes —
    /// distinct from the bandwidth throttle's transfer time.
    pub fn backpressure(&self) -> Duration {
        self.sender.backpressure()
    }
}

/// Anything a producer's sender thread can ship wires through: the
/// in-process [`MeshSender`], or a cross-process transport such as
/// [`crate::transport_tcp::TcpSender`].
pub trait WireSender: Send {
    /// Send one wire to consumer `to`.
    fn send(&self, to: Rank, wire: Wire) -> Result<()>;
    /// Number of consumer endpoints reachable.
    fn consumers(&self) -> usize;

    /// Forward a typed runtime fault in-band to consumer `to`, ordered
    /// with the data stream — what a chaos script's `CorruptWire` turns
    /// into. The in-process mesh ships the typed fault itself; a framed
    /// transport realizes it at the wire level (a corrupt frame body the
    /// reader reports in-band). Adapters forward to their inner sender.
    fn send_fault(&self, to: Rank, fault: RuntimeError) -> Result<()>;
}

/// Producer-side endpoint: sends wires to any consumer rank.
#[derive(Clone)]
pub struct MeshSender {
    txs: Vec<Sender<WireItem>>,
    throttle: Option<Arc<Drain>>,
    bytes_sent: Arc<AtomicU64>,
    messages_sent: Arc<AtomicU64>,
    backpressure_ns: Arc<AtomicU64>,
    telemetry: Telemetry,
}

impl WireSender for MeshSender {
    /// Send one wire to consumer `to`, blocking on inbox backpressure and
    /// then the bandwidth throttle.
    ///
    /// Order matters: the wire is enqueued *first* and the shared-bandwidth
    /// timeline is charged only once the send succeeded. Charging up front
    /// meant a failed send still reserved bandwidth for every other sender,
    /// and a full inbox delayed twice (throttle sleep, then blocking send).
    /// Inbox-blocked time is recorded separately as backpressure.
    fn send(&self, to: Rank, wire: Wire) -> Result<()> {
        use crossbeam::channel::TrySendError;
        let bytes = wire.wire_bytes();
        let tx = self
            .txs
            .get(to.idx())
            .ok_or(Error::Disconnected("unknown consumer rank"))?;
        match tx.try_send(Ok(wire)) {
            Ok(()) => {}
            Err(TrySendError::Full(item)) => {
                let t0 = Instant::now();
                tx.send(item)
                    .map_err(|_| Error::Disconnected("consumer inbox closed"))?;
                let waited = t0.elapsed();
                self.backpressure_ns
                    .fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
                self.telemetry
                    .add_time(CounterId::NetBackpressureNs, waited);
                self.telemetry
                    .observe(HistogramId::StallNs, waited.as_nanos() as u64);
            }
            Err(TrySendError::Disconnected(_)) => {
                return Err(Error::Disconnected("consumer inbox closed"));
            }
        }
        self.telemetry.gauge_add(GaugeId::InboxDepth, 1);
        if let Some(t) = &self.throttle {
            let waited = t.charge(bytes);
            self.telemetry.add_time(CounterId::ThrottleStallNs, waited);
        }
        self.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
        self.messages_sent.fetch_add(1, Ordering::Relaxed);
        self.telemetry.add(CounterId::NetBytes, bytes);
        self.telemetry.add(CounterId::NetMessages, 1);
        self.telemetry.observe(HistogramId::SendBytes, bytes);
        Ok(())
    }

    /// Ships the typed fault itself. Best-effort: a full inbox blocks, a
    /// disconnected one reports.
    fn send_fault(&self, to: Rank, fault: RuntimeError) -> Result<()> {
        self.txs
            .get(to.idx())
            .ok_or(Error::Disconnected("unknown consumer rank"))?
            .send(Err(fault))
            .map_err(|_| Error::Disconnected("consumer inbox closed"))?;
        self.telemetry.gauge_add(GaugeId::InboxDepth, 1);
        Ok(())
    }

    fn consumers(&self) -> usize {
        self.txs.len()
    }
}

impl MeshSender {
    /// Cumulative time this endpoint's clones spent blocked on full
    /// consumer inboxes.
    pub fn backpressure(&self) -> Duration {
        Duration::from_nanos(self.backpressure_ns.load(Ordering::Relaxed))
    }
}

impl WireSender for Box<dyn WireSender> {
    fn send(&self, to: Rank, wire: Wire) -> Result<()> {
        (**self).send(to, wire)
    }

    fn send_fault(&self, to: Rank, fault: RuntimeError) -> Result<()> {
        (**self).send_fault(to, fault)
    }

    fn consumers(&self) -> usize {
        (**self).consumers()
    }
}

/// A [`WireSender`] adapter that records every outgoing wire as a `Send`
/// span on a dedicated network lane (e.g. `net/p0`). The workflow driver
/// wraps each producer's mesh endpoint with one of these in full-trace
/// mode, which makes wire time its own row on the rendered timeline —
/// distinct from the sender *thread*'s lane, whose `Send` spans also
/// include routing and pending-ID bookkeeping.
pub struct TracedSender<S> {
    inner: S,
    rec: Mutex<LaneRecorder>,
}

impl<S: WireSender> TracedSender<S> {
    /// Wrap `inner`, recording its sends on the sink lane `label`.
    pub fn new(inner: S, sink: &TraceSink, label: impl Into<String>) -> Self {
        TracedSender {
            inner,
            rec: Mutex::new(sink.recorder(label)),
        }
    }
}

impl<S: WireSender> WireSender for TracedSender<S> {
    fn send(&self, to: Rank, wire: Wire) -> Result<()> {
        self.rec
            .lock()
            .time(SpanKind::Send, || self.inner.send(to, wire))
    }

    fn send_fault(&self, to: Rank, fault: RuntimeError) -> Result<()> {
        self.inner.send_fault(to, fault)
    }

    fn consumers(&self) -> usize {
        self.inner.consumers()
    }
}

/// A [`WireSender`] adapter that re-attempts failed sends under a bounded
/// [`RetryPolicy`], sleeping an exponentially-backed-off, jittered delay
/// between attempts. Each backoff is recorded as a [`SpanKind::Retry`]
/// span when a trace lane is attached, and the total retry count is shared
/// through an atomic so the workflow report can surface it.
pub struct RetryingSender<S> {
    inner: S,
    policy: RetryPolicy,
    retries: Arc<AtomicU64>,
    /// Backoffs are `Retry` spans here; inert unless
    /// [`RetryingSender::traced`].
    rec: Mutex<LaneRecorder>,
}

impl<S: WireSender> RetryingSender<S> {
    pub fn new(inner: S, policy: RetryPolicy) -> Self {
        RetryingSender {
            inner,
            policy,
            retries: Arc::new(AtomicU64::new(0)),
            rec: Mutex::new(LaneRecorder::inert()),
        }
    }

    /// Record backoff sleeps as `Retry` spans on the sink lane `label`.
    pub fn traced(mut self, sink: &TraceSink, label: impl Into<String>) -> Self {
        self.rec = Mutex::new(sink.recorder(label));
        self
    }

    /// Shared handle to the cumulative retry count.
    pub fn retry_counter(&self) -> Arc<AtomicU64> {
        self.retries.clone()
    }

    /// Retries performed so far.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Count and sleep one backoff, as a `Retry` span when a lane is
    /// attached.
    fn pause(&self, delay: Duration) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        self.rec
            .lock()
            .time(SpanKind::Retry, || std::thread::sleep(delay));
    }
}

impl<S: WireSender> WireSender for RetryingSender<S> {
    fn send(&self, to: Rank, wire: Wire) -> Result<()> {
        // No send error is permanent: a dead consumer costs the budget once
        // and is then skipped by the sender thread.
        self.policy.run(
            u64::from(to.0),
            |_| false,
            |delay| self.pause(delay),
            || self.inner.send(to, wire.clone()),
        )
    }

    fn send_fault(&self, to: Rank, fault: RuntimeError) -> Result<()> {
        // Best-effort like the fault itself: no retry loop around an
        // intentionally-delivered failure.
        self.inner.send_fault(to, fault)
    }

    fn consumers(&self) -> usize {
        self.inner.consumers()
    }
}

/// Consumer-side endpoint: receives wires for one rank.
pub struct MeshReceiver {
    rx: Receiver<WireItem>,
    /// Consumer endpoints of the mesh this one belongs to.
    consumers: usize,
    telemetry: Telemetry,
}

impl MeshReceiver {
    /// Wrap a raw wire channel toward one of `consumers` ranks — used by
    /// alternative transports (TCP) whose reader threads decode frames
    /// into a channel.
    pub fn from_channel(rx: Receiver<WireItem>, consumers: usize) -> Self {
        MeshReceiver {
            rx,
            consumers,
            telemetry: Telemetry::off(),
        }
    }

    /// Consumers of this receiver's mesh or listener set: the `Q` its
    /// consumer's end-of-stream expectations depend on.
    pub(crate) fn consumers(&self) -> usize {
        self.consumers
    }

    /// Decrement the in-flight inbox-depth gauge as items are drained
    /// (paired with the sender-side increment).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Blocking receive; `Err(Error::Runtime(..))` is a typed fault the
    /// transport forwarded in-band, `Err(Error::Disconnected(..))` means
    /// every sender disconnected.
    pub fn recv(&self) -> Result<Wire> {
        let item = self
            .rx
            .recv()
            .map_err(|_| Error::Disconnected("all producers disconnected"))?;
        self.telemetry.gauge_add(GaugeId::InboxDepth, -1);
        item.map_err(Error::Runtime)
    }

    /// Blocking receive with a deadline; `Err(Error::Timeout(..))` means
    /// the window elapsed with no wire traffic at all — the EOS watchdog's
    /// trigger.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Wire> {
        match self.rx.recv_timeout(timeout) {
            Ok(item) => {
                self.telemetry.gauge_add(GaugeId::InboxDepth, -1);
                item.map_err(Error::Runtime)
            }
            Err(RecvTimeoutError::Timeout) => Err(Error::Timeout("wire receive")),
            Err(RecvTimeoutError::Disconnected) => {
                Err(Error::Disconnected("all producers disconnected"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zipper_types::block::deterministic_payload;
    use zipper_types::{Block, BlockId, GlobalPos, StepId};

    fn msg(idx: u32, len: usize) -> MixedMessage {
        let id = BlockId::new(Rank(0), StepId(0), idx);
        MixedMessage::data_only(Block::from_payload(
            Rank(0),
            StepId(0),
            idx,
            8,
            GlobalPos::default(),
            deterministic_payload(id, len),
        ))
    }

    #[test]
    fn mesh_routes_to_the_right_consumer() {
        let mesh = ChannelMesh::new(2, 8);
        let s = mesh.sender();
        let r0 = mesh.take_receiver(Rank(0)).unwrap();
        let r1 = mesh.take_receiver(Rank(1)).unwrap();
        s.send(Rank(0), Wire::Msg(msg(10, 64))).unwrap();
        s.send(Rank(1), Wire::Msg(msg(11, 64))).unwrap();
        match r0.recv().unwrap() {
            Wire::Msg(m) => assert_eq!(m.data.unwrap().id().idx, 10),
            w => panic!("unexpected {w:?}"),
        }
        match r1.recv().unwrap() {
            Wire::Msg(m) => assert_eq!(m.data.unwrap().id().idx, 11),
            w => panic!("unexpected {w:?}"),
        }
        assert_eq!(mesh.messages_sent(), 2);
        assert!(mesh.bytes_sent() > 128);
    }

    #[test]
    fn double_take_receiver_errors() {
        let mesh = ChannelMesh::new(1, 1);
        let _a = mesh.take_receiver(Rank(0)).unwrap();
        assert!(matches!(mesh.take_receiver(Rank(0)), Err(Error::Config(_))));
        assert!(matches!(mesh.take_receiver(Rank(9)), Err(Error::Config(_))));
    }

    #[test]
    fn throttle_slows_sends() {
        // 1 MB at 10 MB/s ⇒ ~100 ms.
        let mesh = ChannelMesh::new(1, 8).with_throttle(10e6, Duration::ZERO);
        let s = mesh.sender();
        let _r = mesh.take_receiver(Rank(0)).unwrap();
        let t0 = Instant::now();
        s.send(Rank(0), Wire::Msg(msg(0, 1_000_000))).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(90));
    }

    #[test]
    fn failed_send_does_not_charge_bandwidth() {
        // 1 MB at 1 MB/s would sleep ~1 s if charged; a dead consumer
        // must fail fast instead.
        let mesh = ChannelMesh::new(1, 1).with_throttle(1e6, Duration::ZERO);
        let s = mesh.sender();
        drop(mesh.take_receiver(Rank(0)).unwrap());
        drop(mesh);
        let t0 = Instant::now();
        assert!(s.send(Rank(0), Wire::Msg(msg(0, 1_000_000))).is_err());
        assert!(
            t0.elapsed() < Duration::from_millis(200),
            "no charge on failure"
        );
        assert_eq!(s.backpressure(), Duration::ZERO);
    }

    #[test]
    fn full_inbox_wait_is_recorded_as_backpressure() {
        let mesh = ChannelMesh::new(1, 1);
        let s = mesh.sender();
        let r = mesh.take_receiver(Rank(0)).unwrap();
        s.send(Rank(0), Wire::Msg(msg(0, 64))).unwrap();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            r.recv().unwrap();
            r
        });
        // Inbox holds 1: this send blocks until the receiver drains it.
        s.send(Rank(0), Wire::Msg(msg(1, 64))).unwrap();
        assert!(
            s.backpressure() >= Duration::from_millis(40),
            "backpressure={:?}",
            s.backpressure()
        );
        assert_eq!(mesh.messages_sent(), 2);
        drop(h.join().unwrap());
    }

    #[test]
    fn receiver_surfaces_in_band_faults_and_timeouts() {
        let (tx, rx) = bounded(4);
        let r = MeshReceiver::from_channel(rx, 1);
        tx.send(Err(RuntimeError::Transport {
            rank: Rank(0),
            detail: "corrupt frame".into(),
        }))
        .unwrap();
        assert!(matches!(
            r.recv(),
            Err(Error::Runtime(RuntimeError::Transport { .. }))
        ));
        assert!(matches!(
            r.recv_timeout(Duration::from_millis(20)),
            Err(Error::Timeout(_))
        ));
        tx.send(Ok(Wire::Eos(Rank(1), Channel::Net))).unwrap();
        assert!(matches!(
            r.recv_timeout(Duration::from_millis(20)),
            Ok(Wire::Eos(Rank(1), Channel::Net))
        ));
    }

    #[test]
    fn retrying_sender_retries_transient_failures_and_records_spans() {
        use std::sync::atomic::AtomicU32;
        use zipper_trace::TraceMode;

        /// Fails the first `fail_first` sends, then succeeds.
        struct Flaky {
            fail_first: u32,
            calls: AtomicU32,
        }
        impl WireSender for Flaky {
            fn send(&self, _to: Rank, _wire: Wire) -> Result<()> {
                let n = self.calls.fetch_add(1, Ordering::Relaxed);
                if n < self.fail_first {
                    Err(Error::Disconnected("transient"))
                } else {
                    Ok(())
                }
            }
            fn send_fault(&self, _to: Rank, _fault: RuntimeError) -> Result<()> {
                Ok(())
            }
            fn consumers(&self) -> usize {
                1
            }
        }

        let (sink, clock) = TraceSink::virtual_clock(TraceMode::Full);
        let flaky = Flaky {
            fail_first: 2,
            calls: AtomicU32::new(0),
        };
        let retrying = RetryingSender::new(
            flaky,
            RetryPolicy {
                max_attempts: 4,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(4),
                jitter: 0.0,
            },
        )
        .traced(&sink, "net/retry");
        clock.advance(zipper_types::SimTime::from_millis(1));
        retrying
            .send(Rank(0), Wire::Eos(Rank(0), Channel::Net))
            .unwrap();
        assert_eq!(retrying.retries(), 2);
        drop(retrying);
        let log = sink.snapshot();
        let lane = log.lane_by_label("net/retry").expect("retry lane");
        let spans = log.lane_spans(lane);
        assert_eq!(spans.len(), 2, "one Retry span per backoff");
        assert!(spans.iter().all(|s| s.kind == SpanKind::Retry));
    }

    #[test]
    fn retrying_sender_gives_up_after_budget() {
        struct AlwaysDown;
        impl WireSender for AlwaysDown {
            fn send(&self, _to: Rank, _wire: Wire) -> Result<()> {
                Err(Error::Disconnected("down"))
            }
            fn send_fault(&self, _to: Rank, _fault: RuntimeError) -> Result<()> {
                Ok(())
            }
            fn consumers(&self) -> usize {
                1
            }
        }
        let retrying = RetryingSender::new(
            AlwaysDown,
            RetryPolicy {
                max_attempts: 3,
                base_delay: Duration::from_micros(100),
                max_delay: Duration::from_micros(400),
                jitter: 0.0,
            },
        );
        assert!(retrying
            .send(Rank(0), Wire::Eos(Rank(0), Channel::Net))
            .is_err());
        assert_eq!(retrying.retries(), 2, "attempts - 1 backoffs");
    }

    #[test]
    fn retry_exhaustion_surfaces_every_attempts_fault() {
        struct AlwaysDown;
        impl WireSender for AlwaysDown {
            fn send(&self, _to: Rank, _wire: Wire) -> Result<()> {
                Err(Error::Disconnected("down"))
            }
            fn send_fault(&self, _to: Rank, _fault: RuntimeError) -> Result<()> {
                Ok(())
            }
            fn consumers(&self) -> usize {
                1
            }
        }
        let policy = |attempts| RetryPolicy {
            max_attempts: attempts,
            base_delay: Duration::from_micros(100),
            max_delay: Duration::from_micros(400),
            jitter: 0.0,
        };
        let retrying = RetryingSender::new(AlwaysDown, policy(3));
        match retrying
            .send(Rank(0), Wire::Eos(Rank(0), Channel::Net))
            .unwrap_err()
        {
            Error::Aggregate(faults) => {
                assert_eq!(faults.len(), 3, "one error per attempt");
                assert!(faults.iter().all(|f| matches!(f, Error::Disconnected(_))));
            }
            other => panic!("expected Aggregate, got {other:?}"),
        }
        // A single-attempt policy keeps the lone error un-wrapped.
        let one_shot = RetryingSender::new(AlwaysDown, policy(1));
        assert!(matches!(
            one_shot
                .send(Rank(0), Wire::Eos(Rank(0), Channel::Net))
                .unwrap_err(),
            Error::Disconnected(_)
        ));
    }

    #[test]
    fn traced_sender_records_wire_spans() {
        use zipper_trace::TraceMode;
        let (sink, clock) = TraceSink::virtual_clock(TraceMode::Full);
        let mesh = ChannelMesh::new(1, 8);
        let rx = mesh.take_receiver(Rank(0)).unwrap();
        let traced = TracedSender::new(mesh.sender(), &sink, "net/p0");
        clock.advance(zipper_types::SimTime::from_millis(1));
        traced.send(Rank(0), Wire::Msg(msg(0, 64))).unwrap();
        traced
            .send(Rank(0), Wire::Eos(Rank(0), Channel::Net))
            .unwrap();
        drop(traced); // flush the net lane
        assert!(matches!(rx.recv().unwrap(), Wire::Msg(_)));
        let log = sink.snapshot();
        let lane = log.lane_by_label("net/p0").expect("net lane");
        let spans = log.lane_spans(lane);
        assert_eq!(spans.len(), 2, "one span per wire");
        assert!(spans.iter().all(|s| s.kind == SpanKind::Send));
    }

    #[test]
    fn mesh_telemetry_tracks_traffic_and_inbox_depth() {
        let telemetry = Telemetry::on();
        let mesh = ChannelMesh::new(1, 8).with_telemetry(telemetry.clone());
        let s = mesh.sender();
        let r = mesh.take_receiver(Rank(0)).unwrap();
        s.send(Rank(0), Wire::Msg(msg(0, 64))).unwrap();
        s.send(Rank(0), Wire::Msg(msg(1, 64))).unwrap();
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter(CounterId::NetMessages), 2);
        assert!(snap.counter(CounterId::NetBytes) > 128);
        assert_eq!(snap.gauge(GaugeId::InboxDepth), 2);
        assert_eq!(snap.histogram(HistogramId::SendBytes).count, 2);
        r.recv().unwrap();
        assert_eq!(telemetry.snapshot().gauge(GaugeId::InboxDepth), 1);
        r.recv().unwrap();
        assert_eq!(telemetry.snapshot().gauge(GaugeId::InboxDepth), 0);
    }

    #[test]
    fn send_to_dropped_receiver_errors() {
        let mesh = ChannelMesh::new(1, 1);
        let s = mesh.sender();
        drop(mesh.take_receiver(Rank(0)).unwrap());
        drop(mesh); // drop the mesh's own tx clones too
        assert!(matches!(
            s.send(Rank(0), Wire::Eos(Rank(0), Channel::Net)),
            Err(Error::Disconnected(_))
        ));
    }
}
