//! The consumer runtime module (Fig. 9): receiver thread + reader thread +
//! (Preserve mode) output thread feeding a consumer buffer, behind the
//! `Zipper.read()` API.
//!
//! Like the producer module, every thread records contiguous spans to the
//! run's [`TraceSink`], one clock read per boundary: the receiver lane
//! captures message-channel recv time, the reader lane captures PFS fetch
//! time, and the application lane captures read-wait (blocked in
//! `Zipper.read`) and analysis time (the step-marked gaps between reads).
//! A blocked push into the consumer buffer is stall on either runtime
//! lane. [`ConsumerMetrics`] time fields are derived from these lanes at
//! [`Consumer::join`].

// Threaded substrate: read-wait and receive timing against the real clock is
// this module's job — the DES twin replays the same policy in virtual time.
#![allow(clippy::disallowed_methods)]
use crate::buffer::BlockQueue;
use crate::metrics::{ConsumerMetrics, LaneCounts};
use crate::producer::{causal_token, chan_code, spawn_runtime_thread};
use crate::transport::{MeshReceiver, Wire};
use crossbeam::channel::unbounded;
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use zipper_pfs::Storage;
use zipper_policy::{ConsumerPolicy, ReadScript, ReadVerdict};
use zipper_trace::{
    eos_token, CausalSink, EdgeKind, GaugeId, LaneRecorder, Span, SpanKind, TraceSink,
};
use zipper_types::{panic_detail, Block, BlockId, Error, Rank, RuntimeError, ZipperTuning};

/// One consumer rank's decision kernel, shared by its receiver thread (EOS
/// completion, Preserve verdicts) and exposed to the conformance harness.
pub type SharedConsumerPolicy = Arc<Mutex<ConsumerPolicy>>;

/// How long a replay retries the fetch of one backlog block: a block the
/// application already saw may not be durable yet, because the output
/// thread persists network deliveries asynchronously.
const REPLAY_FETCH_TIMEOUT: Duration = Duration::from_secs(5);

/// Lane label of consumer `rank`'s receiver thread.
pub fn recv_lane(rank: Rank) -> String {
    format!("ana/q{}/recv", rank.0)
}

/// Lane label of consumer `rank`'s PFS reader thread.
pub fn reader_lane(rank: Rank) -> String {
    format!("ana/q{}/fs", rank.0)
}

/// Lane label of consumer `rank`'s application (analysis) lane.
pub fn analysis_lane(rank: Rank) -> String {
    format!("ana/q{}/app", rank.0)
}

/// Causal-queue label of consumer `rank`'s delivery buffer (join key
/// only — never part of a path signature).
fn consumer_queue(rank: Rank) -> String {
    format!("q/ana/c{}", rank.0)
}

/// Causal-queue label of the receiver→reader on-disk ID handoff.
fn ids_queue(rank: Rank) -> String {
    format!("ids/ana/c{}", rank.0)
}

/// The application lane plus the step of the last delivered block, so the
/// analysis gap between two reads can be attributed to the step that was
/// being analyzed.
struct AppLane {
    rec: LaneRecorder,
    step: u64,
    /// True once `read` returned `None` — the stream was fully drained.
    /// A reader dropped before that abandons the stream; its `Drop` guard
    /// closes the queue and records the abandonment so the runtime
    /// threads shut down instead of blocking on delivery forever.
    done: bool,
}

/// Application-facing reader handle: the paper's
/// `Zipper.read(block_id, data, block_size)`. Blocks are delivered in
/// arrival order (any interleaving of network and file paths); each block's
/// header carries the step / source-rank / position metadata the analysis
/// needs (§4.2).
pub struct ZipperReader {
    rank: Rank,
    queue: Arc<BlockQueue>,
    metrics: Arc<Mutex<ConsumerMetrics>>,
    lane: Mutex<AppLane>,
    /// The rank's read script, shared with its [`ConsumerRecovery`]: it
    /// strikes scripted read calls before they take a block and keeps the
    /// backlog a restart replays. Having one makes this a supervised
    /// reader: its `Drop` leaves the queue open and the abandonment
    /// unaccounted, because the supervisor owns both.
    script: Option<Arc<Mutex<ReadScript<BlockId>>>>,
    /// Edge recording for queue handoffs (pop side).
    causal: CausalSink,
    queue_label: String,
    app_label: String,
}

impl ZipperReader {
    /// A reader on `rank`'s analysis lane, supervised when it has a
    /// `script`.
    fn new(
        rank: Rank,
        queue: &Arc<BlockQueue>,
        metrics: &Arc<Mutex<ConsumerMetrics>>,
        sink: &TraceSink,
        script: Option<Arc<Mutex<ReadScript<BlockId>>>>,
    ) -> ZipperReader {
        // The lane opens here: time from now to the first read is the
        // analysis setup, attributed to step 0.
        let rec = sink.recorder(analysis_lane(rank));
        ZipperReader {
            rank,
            queue: queue.clone(),
            metrics: metrics.clone(),
            lane: Mutex::new(AppLane {
                rec,
                step: 0,
                done: false,
            }),
            script,
            causal: sink.causal().clone(),
            queue_label: consumer_queue(rank),
            app_label: analysis_lane(rank),
        }
    }

    /// Fetch the next available block; `None` once every producer finished
    /// and all their blocks were delivered.
    ///
    /// Time blocked in here is recorded as a `ReadWait` span; the gap
    /// since the previous call's last boundary (the end of the previous
    /// `read`, or the reader's creation) is recorded as a step-marked
    /// `Analysis` span — from the trace's point of view, whatever the
    /// application did between reads, and a take that did not block, was
    /// analyzing the previously delivered block.
    pub fn read(&self) -> Option<Block> {
        // A supervised read holds its script across the pop, so the tick
        // and the backlog entry are one lock; the supervisor takes it only
        // once this reader is gone.
        let mut script = self.script.as_ref().map(|s| s.lock());
        if let Some(s) = &mut script {
            if s.read() == ReadVerdict::Crash {
                let n = s.ops();
                drop(script);
                panic!("chaos: injected application crash on read #{n}");
            }
        }
        let (block, waited) = self.queue.pop();
        let mut g = self.lane.lock();
        let prev_step = g.step;
        g.rec.boundary(
            SpanKind::Analysis,
            prev_step,
            Some((SpanKind::ReadWait, waited)),
        );
        match &block {
            Some(b) => {
                g.step = b.id().step.0;
                self.causal
                    .queue_pop(&self.queue_label, causal_token(b.id()), &self.app_label);
                if let Some(s) = &mut script {
                    s.delivered(b.id());
                }
                self.metrics.lock().blocks_delivered += 1;
            }
            None => {
                g.done = true;
                g.rec.flush(); // end of stream: lane is complete
            }
        }
        block
    }

    /// Iterator adapter over [`ZipperReader::read`].
    pub fn iter(&self) -> impl Iterator<Item = Block> + '_ {
        std::iter::from_fn(move || self.read())
    }
}

impl Drop for ZipperReader {
    fn drop(&mut self) {
        // The application abandoned the stream (panicked or returned
        // early) unless it read to the end or a supervisor owns the queue.
        if self.script.is_none() && !self.lane.lock().done {
            abandon(self.rank, &self.queue, &self.metrics);
        }
    }
}

/// Close an abandoned rank's queue so blocked runtime threads wake with a
/// typed error instead of deadlocking, and account the blocks that will
/// never be delivered.
fn abandon(rank: Rank, queue: &BlockQueue, metrics: &Mutex<ConsumerMetrics>) {
    queue.close();
    let dropped_blocks = queue.len() as u64;
    metrics.lock().errors.push(RuntimeError::ReaderAbandoned {
        rank,
        dropped_blocks,
    });
}

/// Recovery handle for one consumer rank, taken instead of the plain
/// reader ([`Consumer::recovery`]): the restart supervisor. It runs the
/// application on supervised readers and heals each crash — a scripted
/// [`zipper_types::ChaosFault::CrashApp`] or any panic — as the rank's
/// [`ReadScript`] decides: the crashed pass's backlog is fetched from the
/// Preserve store and requeued at the front of the consumer buffer in
/// delivery order, and a fresh reader rejoins the live traffic, so the
/// final pass sees every block exactly once.
///
/// Replay requires Preserve mode: only there is every delivered block
/// durable on the PFS.
pub struct ConsumerRecovery {
    rank: Rank,
    queue: Arc<BlockQueue>,
    metrics: Arc<Mutex<ConsumerMetrics>>,
    sink: TraceSink,
    storage: Arc<dyn Storage>,
    policy: SharedConsumerPolicy,
    script: Arc<Mutex<ReadScript<BlockId>>>,
}

impl ConsumerRecovery {
    /// Run `app` on a fresh reader until a pass returns, restarting it
    /// after each crash the kernel heals. Past the restart budget, or when
    /// the backlog cannot be fetched, the rank is abandoned (its queue
    /// closes, so the runtime threads fail soft) and the error says why.
    pub fn run<R>(&self, mut app: impl FnMut(&ZipperReader) -> R) -> Result<R, String> {
        loop {
            let reader = ZipperReader::new(
                self.rank,
                &self.queue,
                &self.metrics,
                &self.sink,
                Some(self.script.clone()),
            );
            let run = catch_unwind(AssertUnwindSafe(|| app(&reader)));
            drop(reader);
            let payload = match run {
                Ok(r) => return Ok(r),
                Err(payload) => payload,
            };
            let backlog = self.script.lock().crashed(&mut self.policy.lock());
            let failed = match backlog {
                None => panic_detail(payload.as_ref()),
                Some(ids) => match self.replay(&ids) {
                    Ok(()) => continue,
                    Err(e) => format!("backlog replay after a crash failed: {e}"),
                },
            };
            abandon(self.rank, &self.queue, &self.metrics);
            return Err(failed);
        }
    }

    /// Fetch each backlog block from the store, retrying while the output
    /// thread catches up, and requeue it at the front of the consumer
    /// buffer so the fresh reader re-reads the backlog in delivery order.
    fn replay(&self, ids: &[BlockId]) -> zipper_types::Result<()> {
        let (queue, lane) = (consumer_queue(self.rank), analysis_lane(self.rank));
        // Requeue in reverse: the last push_front ends up first.
        for id in ids.iter().rev() {
            let t0 = Instant::now();
            let block = loop {
                match self.storage.get(*id) {
                    Ok(b) => break b,
                    Err(e) if t0.elapsed() >= REPLAY_FETCH_TIMEOUT => return Err(e),
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            };
            self.queue.requeue(block);
            // A replayed block's next pop pairs with this push, attributed
            // to the analysis lane (the supervisor acts for the app).
            self.sink
                .causal()
                .queue_push(&queue, causal_token(*id), &lane);
        }
        Ok(())
    }
}

/// Closes the consumer buffer when the last holder lets go of it, so the
/// application's reads terminate however the runtime threads ended.
struct CloseOnDrop(Arc<BlockQueue>);

impl Drop for CloseOnDrop {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// One consumer rank's runtime: owns receiver/reader/output threads.
pub struct Consumer {
    rank: Rank,
    queue: Arc<BlockQueue>,
    metrics: Arc<Mutex<ConsumerMetrics>>,
    sink: TraceSink,
    storage: Arc<dyn Storage>,
    policy: SharedConsumerPolicy,
    receiver: Option<JoinHandle<()>>,
    reader: Option<JoinHandle<()>>,
    output: Option<JoinHandle<()>>,
    reader_taken: bool,
}

impl Consumer {
    /// Spawn the runtime module for consumer `rank` with a private
    /// totals-mode trace sink and its own policy kernel (stand-alone use;
    /// see [`Consumer::spawn_with`]).
    pub fn spawn(
        rank: Rank,
        tuning: ZipperTuning,
        producers: usize,
        mesh_rx: MeshReceiver,
        storage: Arc<dyn Storage>,
    ) -> Consumer {
        Self::spawn_with(
            rank,
            tuning,
            producers,
            mesh_rx,
            storage,
            TraceSink::default(),
            None,
        )
    }

    /// Spawn the runtime module for consumer `rank`, every knob explicit.
    ///
    /// * `producers` — total number of producer ranks (for EOS counting).
    /// * `mesh_rx` — this rank's endpoint of the message channel.
    /// * `storage` — the PFS the reader thread fetches stolen blocks from
    ///   and the output thread stores into (Preserve mode).
    /// * `sink` — the run's trace sink (shared by every rank of one run).
    /// * `policy` — a caller-supplied policy kernel, the hook the
    ///   conformance harness uses to record a
    ///   [`zipper_policy::DecisionTrace`] of every EOS/Preserve decision
    ///   this rank makes (pass a [`ConsumerPolicy::recorded`] policy and
    ///   keep a clone of the `Arc`); `None` builds one from `tuning`,
    ///   `producers` and the receiver's consumer count.
    pub fn spawn_with(
        rank: Rank,
        tuning: ZipperTuning,
        producers: usize,
        mesh_rx: MeshReceiver,
        storage: Arc<dyn Storage>,
        sink: TraceSink,
        policy: Option<SharedConsumerPolicy>,
    ) -> Consumer {
        tuning.validate().expect("invalid tuning");
        assert!(producers > 0, "need at least one producer");
        let q = mesh_rx.consumers();
        let policy = policy.unwrap_or_else(|| {
            Arc::new(Mutex::new(ConsumerPolicy::new(rank, producers, q, &tuning)))
        });
        assert_eq!(
            policy.lock().rank(),
            rank,
            "policy built for a different rank"
        );
        let queue = Arc::new(
            BlockQueue::new(tuning.consumer_slots)
                .with_telemetry(sink.telemetry().clone(), GaugeId::ConsumerQueueDepth),
        );
        let metrics = Arc::new(Mutex::new(ConsumerMetrics::default()));
        // What a refused thread spawn records.
        let refused = |e: RuntimeError| metrics.lock().errors.push(e);

        // The consumer queue may close only after the receiver has seen all
        // EOS *and* the reader drained every announced ID: both closures
        // own a share of this guard, and so does neither once it has ended
        // — returned, unwound from a panic, or dropped unrun by a refused
        // spawn. The reader's own end is tied to the receiver's the same
        // way: `ids_rx` drains dry when the receiver's `ids_tx` is dropped.
        let closes_queue = Arc::new(CloseOnDrop(queue.clone()));
        let (ids_tx, ids_rx) = unbounded::<BlockId>();
        let (out_tx, out_rx) = (tuning.preserve.is_preserve())
            .then(unbounded::<Block>)
            .unzip();

        // Receiver thread (Fig. 9 step 1): split mixed messages. The
        // optional EOS watchdog bounds how long it will sit in `recv` with
        // end-of-stream markers still missing: a dead producer, a lost EOS,
        // or a wedged transport then surfaces as a typed error instead of
        // hanging `Consumer::join` forever. In-band transport faults are
        // recorded and the stream continues (the transport stayed aligned).
        let eos_timeout = tuning.eos_timeout;
        let receiver = {
            let queue = queue.clone();
            let tm = metrics.clone();
            let rpolicy = policy.clone();
            let rlane = recv_lane(rank);
            let mut rec = sink.recorder(rlane.clone());
            let causal = sink.causal().clone();
            let cq_label = consumer_queue(rank);
            let ids_label = ids_queue(rank);
            let closes_queue = closes_queue.clone();
            spawn_runtime_thread(
                format!("zipper-receiver-{rank}"),
                move || {
                    let _closes_queue = closes_queue;
                    let mut net = LaneCounts::new(&tm, ConsumerMetrics::merge);
                    let mut discarding = false;
                    // A consumer no producer can route to expects no mark.
                    let mut done = rpolicy.lock().open();
                    while !done {
                        let wire = match eos_timeout {
                            Some(t) => mesh_rx.recv_timeout(t),
                            None => mesh_rx.recv(),
                        };
                        // Since the last boundary: the previous message's
                        // handling and the wait for this one, all recv.
                        rec.boundary(SpanKind::Recv, Span::NO_STEP, None);
                        match wire {
                            Ok(Wire::Msg(m)) => {
                                for id in m.on_disk {
                                    // Completes the writer's steal announce,
                                    // then hands the ID to the reader thread
                                    // which fetches it from the PFS.
                                    causal.end(EdgeKind::Steal, causal_token(id), &rlane);
                                    causal.queue_push(&ids_label, causal_token(id), &rlane);
                                    let _ = ids_tx.send(id);
                                }
                                if let Some(b) = m.data {
                                    let token = causal_token(b.id());
                                    causal.end(EdgeKind::Wire, token, &rlane);
                                    net.local.blocks_net += 1;
                                    if rpolicy.lock().store_on_arrival(b.id()) {
                                        // Network blocks are not yet on the
                                        // PFS: Preserve mode must store them
                                        // (on_disk = false path of §4.2).
                                        if let Some(out) = &out_tx {
                                            let _ = out.send(b.clone());
                                        }
                                    }
                                    if discarding {
                                        continue;
                                    }
                                    match queue.push(b) {
                                        Ok(stalled) => {
                                            if !stalled.is_zero() {
                                                rec.boundary(
                                                    SpanKind::Recv,
                                                    Span::NO_STEP,
                                                    Some((SpanKind::Stall, stalled)),
                                                );
                                            }
                                            causal.queue_push(&cq_label, token, &rlane);
                                        }
                                        Err(_) => {
                                            // The application abandoned its
                                            // reader. Keep draining the mesh so
                                            // producers do not block on a full
                                            // inbox, but discard the blocks.
                                            discarding = true;
                                            let mut p = rpolicy.lock();
                                            p.reader_abandoned();
                                            drop(p);
                                            tm.lock().errors.push(RuntimeError::QueueClosed {
                                                rank,
                                                context: "receiver push",
                                            });
                                        }
                                    }
                                }
                            }
                            Ok(Wire::Eos(p, ch)) => {
                                // Per-channel end-of-stream marks, exactly
                                // as the DES receiver counts them: the
                                // message channel closes as soon as the
                                // sender drains, the file channel only
                                // after the last stolen ID shipped.
                                causal.end(
                                    EdgeKind::Eos,
                                    eos_token(p.0, chan_code(ch), rank.0),
                                    &rlane,
                                );
                                done = rpolicy.lock().note_eos(p, ch);
                            }
                            Err(Error::Timeout(_)) => {
                                let (seen, expected) = rpolicy.lock().on_timeout();
                                tm.lock().errors.push(RuntimeError::EosTimeout {
                                    rank,
                                    eos_seen: seen,
                                    eos_expected: expected,
                                });
                                break;
                            }
                            Err(Error::Runtime(re)) => {
                                tm.lock().errors.push(re);
                            }
                            Err(_) => {
                                tm.lock().errors.push(RuntimeError::ChannelDisconnected {
                                    rank,
                                    context: "message channel closed mid-stream",
                                });
                                break;
                            }
                        }
                    }
                },
                |_| {
                    refused(RuntimeError::ChannelDisconnected {
                        rank,
                        context: "receiver thread could not be spawned",
                    })
                },
            )
        };

        // Reader thread (Fig. 9 step 2): fetch announced on-disk blocks.
        let reader = {
            let queue = queue.clone();
            let tm = metrics.clone();
            let storage = storage.clone();
            let flane = reader_lane(rank);
            let mut rec = sink.recorder(flane.clone());
            let causal = sink.causal().clone();
            let cq_label = consumer_queue(rank);
            let ids_label = ids_queue(rank);
            spawn_runtime_thread(
                format!("zipper-reader-{rank}"),
                move || {
                    let _closes_queue = closes_queue;
                    let mut disk = LaneCounts::new(&tm, ConsumerMetrics::merge);
                    for id in ids_rx {
                        // Since the last boundary: waiting for an ID.
                        rec.boundary(SpanKind::Idle, Span::NO_STEP, None);
                        let token = causal_token(id);
                        causal.queue_pop(&ids_label, token, &flane);
                        let t0 = causal.now();
                        let fetched = storage.get(id);
                        rec.boundary(SpanKind::FsRead, Span::NO_STEP, None);
                        match fetched {
                            Ok(b) => {
                                // The fetch itself is a Pfs self-edge: the
                                // stolen block's detour back from the PFS.
                                causal.edge_at(
                                    EdgeKind::Pfs,
                                    &flane,
                                    t0,
                                    &flane,
                                    causal.now(),
                                    token,
                                );
                                disk.local.blocks_disk += 1;
                                match queue.push(b) {
                                    Ok(stalled) => {
                                        if !stalled.is_zero() {
                                            rec.boundary(
                                                SpanKind::FsRead,
                                                Span::NO_STEP,
                                                Some((SpanKind::Stall, stalled)),
                                            );
                                        }
                                        causal.queue_push(&cq_label, token, &flane);
                                    }
                                    Err(_) => {
                                        // Reader abandoned; remaining IDs
                                        // would only feed a closed queue.
                                        tm.lock().errors.push(RuntimeError::QueueClosed {
                                            rank,
                                            context: "reader push",
                                        });
                                        break;
                                    }
                                }
                            }
                            Err(e) => tm.lock().errors.push(RuntimeError::BlockFetchFailed {
                                rank,
                                detail: e.to_string(),
                            }),
                        }
                    }
                },
                |_| {
                    refused(RuntimeError::ChannelDisconnected {
                        rank,
                        context: "reader thread could not be spawned",
                    })
                },
            )
        };

        // Output thread (Fig. 9 step 3, Preserve mode only): persist
        // network-delivered blocks. A store failure loses preservation for
        // that block only; the stream keeps flowing.
        let output = out_rx.and_then(|rx| {
            let storage = storage.clone();
            let out_metrics = metrics.clone();
            let mut rec = sink.recorder(format!("ana/q{}/out", rank.0));
            spawn_runtime_thread(
                format!("zipper-output-{rank}"),
                move || {
                    for b in rx {
                        match rec.time(SpanKind::FsWrite, || storage.put(&b)) {
                            Ok(()) => out_metrics.lock().blocks_stored += 1,
                            Err(e) => out_metrics.lock().errors.push(RuntimeError::StoreFailed {
                                rank,
                                detail: e.to_string(),
                            }),
                        }
                    }
                },
                |_| {
                    refused(RuntimeError::StoreFailed {
                        rank,
                        detail: "output thread could not be spawned".into(),
                    })
                },
            )
        });

        Consumer {
            rank,
            queue,
            metrics,
            sink,
            storage,
            policy,
            receiver,
            reader,
            output,
            reader_taken: false,
        }
    }

    /// The application-facing reader handle (take once).
    pub fn reader(&mut self) -> ZipperReader {
        assert!(!self.reader_taken, "reader handle already taken");
        self.reader_taken = true;
        ZipperReader::new(self.rank, &self.queue, &self.metrics, &self.sink, None)
    }

    /// The restart supervisor (take *instead of* [`Consumer::reader`]):
    /// runs the application on readers `script` supervises and heals
    /// their crashes by Preserve-store replay.
    pub fn recovery(&mut self, script: ReadScript<BlockId>) -> ConsumerRecovery {
        assert!(!self.reader_taken, "reader handle already taken");
        self.reader_taken = true;
        ConsumerRecovery {
            rank: self.rank,
            queue: self.queue.clone(),
            metrics: self.metrics.clone(),
            sink: self.sink.clone(),
            storage: self.storage.clone(),
            policy: self.policy.clone(),
            script: Arc::new(Mutex::new(script)),
        }
    }

    /// Join the runtime threads and return this rank's metrics, with the
    /// time fields derived from the rank's trace lanes. The application
    /// should have drained its [`ZipperReader`] first (reads until `None` —
    /// which also flushes the analysis lane); a reader dropped early is
    /// absorbed by its `Drop` guard and reported in `metrics.errors`.
    ///
    /// Never panics and never blocks indefinitely while the EOS watchdog
    /// is enabled: runtime-thread panics are folded into the metrics as
    /// [`RuntimeError::AppPanicked`] (what each thread's exit releases:
    /// DESIGN.md, "Failure semantics" table).
    pub fn join(mut self) -> ConsumerMetrics {
        for (h, role) in [
            (self.receiver.take(), "consumer receiver thread"),
            (self.reader.take(), "consumer reader thread"),
            (self.output.take(), "consumer output thread"),
        ] {
            if let Some(Err(payload)) = h.map(JoinHandle::join) {
                self.metrics.lock().errors.push(RuntimeError::AppPanicked {
                    rank: self.rank,
                    role,
                    detail: panic_detail(payload.as_ref()),
                });
            }
        }
        let mut m = self.metrics.lock().clone();
        m.recv = self.sink.lane_totals(&recv_lane(self.rank));
        m.disk = self.sink.lane_totals(&reader_lane(self.rank));
        m.app = self.sink.lane_totals(&analysis_lane(self.rank));
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::producer::{app_lane, sender_lane, writer_lane, Producer};
    use crate::transport::ChannelMesh;
    use zipper_pfs::MemFs;
    use zipper_trace::TraceMode;
    use zipper_types::block::deterministic_payload;
    use zipper_types::{ByteSize, GlobalPos, PreserveMode, RoutingPolicy, StepId};

    fn tuning(preserve: PreserveMode, concurrent: bool) -> ZipperTuning {
        ZipperTuning {
            block_size: ByteSize::kib(4),
            producer_slots: 4,
            high_water_mark: 2,
            consumer_slots: 64,
            concurrent_transfer: concurrent,
            preserve,
            routing: RoutingPolicy::SourceAffine,
            eos_timeout: Some(std::time::Duration::from_secs(30)),
            recovery: Default::default(),
        }
    }

    /// One producer and one consumer rank on a shared totals-mode sink;
    /// returns the delivered IDs, both ranks' metrics, the PFS and the sink.
    fn run_pipeline(
        t: ZipperTuning,
        throttle: Option<f64>,
        n_blocks: u32,
        block_len: usize,
        producer_delay: Option<std::time::Duration>,
    ) -> (
        Vec<BlockId>,
        crate::metrics::ProducerMetrics,
        ConsumerMetrics,
        Arc<MemFs>,
        TraceSink,
    ) {
        let inbox = if throttle.is_some() { 2 } else { 64 };
        let mut mesh = ChannelMesh::new(1, inbox);
        if let Some(bw) = throttle {
            mesh = mesh.with_throttle(bw, std::time::Duration::ZERO);
        }
        let storage = Arc::new(MemFs::new());
        let sink = TraceSink::wall(TraceMode::Totals);
        let mut cons = Consumer::spawn_with(
            Rank(0),
            t,
            1,
            mesh.take_receiver(Rank(0)).unwrap(),
            storage.clone(),
            sink.clone(),
            None,
        );
        let reader = cons.reader();
        let mut prod = Producer::spawn_with(
            Rank(0),
            t,
            mesh.sender(),
            storage.clone(),
            sink.clone(),
            None,
            false,
        );
        let writer = prod.writer(block_len);

        let feeder = std::thread::spawn(move || {
            for i in 0..n_blocks {
                let id = BlockId::new(Rank(0), StepId(0), i);
                writer.write(Block::from_payload(
                    Rank(0),
                    StepId(0),
                    i,
                    n_blocks,
                    GlobalPos::default(),
                    deterministic_payload(id, block_len),
                ));
                if let Some(d) = producer_delay {
                    // A compute-bound producer: the buffer stays near-empty
                    // so the writer thread finds nothing to steal (§6.2's
                    // O(n^1.5) regime).
                    std::thread::sleep(d);
                }
            }
            writer.finish();
        });

        let mut got = Vec::new();
        while let Some(b) = reader.read() {
            // Verify payload integrity end to end.
            assert_eq!(b.payload, deterministic_payload(b.id(), block_len));
            got.push(b.id());
        }
        feeder.join().unwrap();
        let pm = prod.join();
        let cm = cons.join();
        (got, pm, cm, storage, sink)
    }

    #[test]
    fn every_block_delivered_exactly_once_fast_network() {
        // The writer thread runs, but its high-water mark is one the 50
        // blocks cannot exceed: however the OS schedules the sender,
        // nothing is ever stolen.
        let mut t = tuning(PreserveMode::NoPreserve, true);
        t.producer_slots = 64;
        t.high_water_mark = 50;
        let (mut got, pm, cm, storage, _) = run_pipeline(
            t,
            None,
            50,
            512,
            Some(std::time::Duration::from_micros(300)),
        );
        got.sort();
        got.dedup();
        assert_eq!(got.len(), 50);
        assert_eq!(pm.blocks_written, 50);
        assert_eq!(cm.blocks_delivered, 50);
        assert!(cm.errors.is_empty(), "{:?}", cm.errors);
        // Nothing needed the file path, nothing persisted.
        assert_eq!(pm.blocks_stolen, 0);
        assert_eq!(storage.len(), 0);
        // The consumer spent time waiting for the compute-bound producer,
        // and that wait is visible through the derived view.
        assert!(cm.read_wait() > std::time::Duration::ZERO);
        assert!(cm.recv_busy() > std::time::Duration::ZERO);
    }

    #[test]
    fn dual_channel_blocks_arrive_via_both_paths() {
        // Slow network forces stealing; every block still arrives once.
        let (mut got, pm, cm, _, _) = run_pipeline(
            tuning(PreserveMode::NoPreserve, true),
            Some(0.5e6),
            40,
            8192,
            None,
        );
        got.sort();
        got.dedup();
        assert_eq!(got.len(), 40, "all blocks exactly once");
        assert!(pm.blocks_stolen > 0, "expected file-path traffic");
        assert_eq!(cm.blocks_disk, pm.blocks_stolen);
        assert_eq!(cm.blocks_net, pm.blocks_sent);
        assert!(
            cm.disk_busy() > std::time::Duration::ZERO,
            "fetches are timed"
        );
    }

    #[test]
    fn preserve_mode_stores_every_block() {
        let (got, pm, cm, storage, _) = run_pipeline(
            tuning(PreserveMode::Preserve, true),
            Some(1e6),
            30,
            4096,
            None,
        );
        assert_eq!(got.len(), 30);
        // Every block ends on the PFS exactly once: stolen ones by the
        // writer thread, network ones by the output thread.
        assert_eq!(storage.len(), 30);
        assert_eq!(cm.blocks_stored + pm.blocks_stolen, 30);
        for id in got {
            assert!(storage.contains(id));
        }
    }

    #[test]
    fn no_preserve_without_stealing_keeps_pfs_empty() {
        let (_, pm, _, storage, _) =
            run_pipeline(tuning(PreserveMode::NoPreserve, false), None, 25, 256, None);
        assert_eq!(pm.blocks_stolen, 0);
        assert_eq!(storage.len(), 0);
    }

    #[test]
    fn runtime_lanes_are_contiguous_over_their_extent() {
        // Throttled network: the writer steals, so all six runtime lanes
        // (app, sender, writer; receiver, reader, analysis) do work. Each
        // lane's spans must cover its extent: a stretch between two
        // boundaries that went unrecorded would show as a gap here.
        let (got, pm, _, _, sink) = run_pipeline(
            tuning(PreserveMode::NoPreserve, true),
            Some(0.5e6),
            40,
            8192,
            None,
        );
        assert_eq!(got.len(), 40);
        assert!(
            pm.blocks_stolen > 0,
            "the writer and reader lanes need work"
        );
        let log = sink.snapshot();
        for label in [
            app_lane(Rank(0)),
            sender_lane(Rank(0)),
            writer_lane(Rank(0)),
            recv_lane(Rank(0)),
            reader_lane(Rank(0)),
            analysis_lane(Rank(0)),
        ] {
            let lane = log.lane_by_label(&label).expect("lane recorded");
            let (first, last) = log.lane_extent(lane);
            let extent = last.saturating_sub(first).as_nanos();
            let covered = log.lane_totals(lane).total().as_nanos();
            assert!(extent > 0, "{label}: empty extent");
            assert!(
                covered * 100 >= extent * 95,
                "{label}: spans cover {covered} of {extent} ns"
            );
        }
    }

    #[test]
    fn multiple_producers_multiple_consumers() {
        let producers = 4u32;
        let consumers = 2u32;
        let per_rank = 30u32;
        let mesh = Arc::new(ChannelMesh::new(consumers as usize, 8));
        let storage: Arc<MemFs> = Arc::new(MemFs::new());
        let t = tuning(PreserveMode::NoPreserve, true);

        let mut cons_handles = Vec::new();
        for q in 0..consumers {
            let mut c = Consumer::spawn(
                Rank(q),
                t,
                producers as usize,
                mesh.take_receiver(Rank(q)).unwrap(),
                storage.clone(),
            );
            let r = c.reader();
            cons_handles.push((
                std::thread::spawn(move || {
                    let mut ids = Vec::new();
                    while let Some(b) = r.read() {
                        ids.push(b.id());
                    }
                    ids
                }),
                c,
            ));
        }

        let mut prod_handles = Vec::new();
        for p in 0..producers {
            let mut prod = Producer::spawn(Rank(p), t, mesh.sender(), storage.clone());
            let w = prod.writer(512);
            prod_handles.push((
                std::thread::spawn(move || {
                    for i in 0..per_rank {
                        let id = BlockId::new(Rank(p), StepId(0), i);
                        w.write(Block::from_payload(
                            Rank(p),
                            StepId(0),
                            i,
                            per_rank,
                            GlobalPos::default(),
                            deterministic_payload(id, 512),
                        ));
                    }
                    w.finish();
                }),
                prod,
            ));
        }

        for (h, prod) in prod_handles {
            h.join().unwrap();
            prod.join();
        }
        let mut all = Vec::new();
        for (h, c) in cons_handles {
            let ids = h.join().unwrap();
            // SourceAffine routing: consumer q must only see ranks ≡ q (mod 2).
            all.extend(ids);
            c.join();
        }
        all.sort();
        all.dedup();
        assert_eq!(all.len(), (producers * per_rank) as usize);
    }

    #[test]
    fn source_affine_routing_respected() {
        let mesh = ChannelMesh::new(2, 8);
        let storage: Arc<MemFs> = Arc::new(MemFs::new());
        let t = tuning(PreserveMode::NoPreserve, false);
        let readers: Vec<_> = (0..2)
            .map(|q| {
                let mut c = Consumer::spawn(
                    Rank(q),
                    t,
                    2,
                    mesh.take_receiver(Rank(q)).unwrap(),
                    storage.clone(),
                );
                let r = c.reader();
                (
                    std::thread::spawn(move || {
                        let mut srcs: Vec<Rank> = Vec::new();
                        while let Some(b) = r.read() {
                            srcs.push(b.id().src);
                        }
                        srcs
                    }),
                    c,
                )
            })
            .collect();
        for p in 0..2u32 {
            let mut prod = Producer::spawn(Rank(p), t, mesh.sender(), storage.clone());
            let w = prod.writer(128);
            for i in 0..10u32 {
                let id = BlockId::new(Rank(p), StepId(0), i);
                w.write(Block::from_payload(
                    Rank(p),
                    StepId(0),
                    i,
                    10,
                    GlobalPos::default(),
                    deterministic_payload(id, 128),
                ));
            }
            w.finish();
            prod.join();
        }
        for (q, (h, c)) in readers.into_iter().enumerate() {
            let srcs = h.join().unwrap();
            assert_eq!(srcs.len(), 10);
            assert!(srcs.iter().all(|s| s.idx() % 2 == q));
            c.join();
        }
    }

    #[test]
    fn crashed_reader_replays_from_preserve_and_loses_nothing() {
        use zipper_types::{ChaosEntity, ChaosFault, ChaosPlan};

        // Preserve mode: every block becomes durable, so a crashed
        // consumer can replay its delivered backlog from the PFS.
        let n_blocks = 12u32;
        let crash_at = 5; // read call #5 panics: 4 blocks delivered before
        let mesh = ChannelMesh::new(1, 64);
        let storage = Arc::new(MemFs::new());
        // Message-only: arrival order equals production order, so the
        // recovered stream can be asserted block-for-block.
        let mut t = tuning(PreserveMode::Preserve, false);
        t.recovery.max_consumer_restarts = 1;
        let plan = ChaosPlan::new().with(
            ChaosEntity::Analysis(Rank(0)),
            crash_at,
            ChaosFault::CrashApp,
        );
        let policy = Arc::new(Mutex::new(
            ConsumerPolicy::new(Rank(0), 1, 1, &t).recorded(),
        ));
        let mut cons = Consumer::spawn_with(
            Rank(0),
            t,
            1,
            mesh.take_receiver(Rank(0)).unwrap(),
            storage.clone(),
            TraceSink::default(),
            Some(policy.clone()),
        );
        let script = ReadScript::supervised(Some(&plan), Rank(0), &t.recovery);
        let recovery = cons.recovery(script.expect("a crash is scripted"));

        let mut prod = Producer::spawn(Rank(0), t, mesh.sender(), storage.clone());
        let writer = prod.writer(4096);
        let feeder = std::thread::spawn(move || {
            for i in 0..n_blocks {
                let id = BlockId::new(Rank(0), StepId(0), i);
                writer.write(Block::from_payload(
                    Rank(0),
                    StepId(0),
                    i,
                    n_blocks,
                    GlobalPos::default(),
                    deterministic_payload(id, 512),
                ));
            }
            writer.finish();
        });

        let mut passes = 0;
        let got = recovery
            .run(|reader| {
                passes += 1;
                reader.iter().map(|b| b.id()).collect::<Vec<_>>()
            })
            .expect("the restarted pass returns");
        feeder.join().unwrap();
        prod.join();
        cons.join();
        assert_eq!(passes, 2);
        let canon = policy.lock().trace().canonical();
        assert!(canon.abandoned);
        assert_eq!(canon.restarts, vec![(crash_at - 1) as usize]);
        // The successful pass saw every block exactly once, in order.
        let idxs: Vec<u32> = got.iter().map(|id| id.idx).collect();
        assert_eq!(idxs, (0..n_blocks).collect::<Vec<_>>());
    }

    #[test]
    fn shared_full_sink_sees_analysis_spans() {
        use zipper_trace::{TraceMode, TraceSink};
        let sink = TraceSink::wall(TraceMode::Full);
        // Rank 1 of two on both sides, so every label names a non-zero
        // rank; source-affine producer 1 is consumer 1's whole upstream.
        let mesh = ChannelMesh::new(2, 64);
        let storage: Arc<MemFs> = Arc::new(MemFs::new());
        let t = tuning(PreserveMode::NoPreserve, false);
        let mut cons = Consumer::spawn_with(
            Rank(1),
            t,
            2,
            mesh.take_receiver(Rank(1)).unwrap(),
            storage.clone(),
            sink.clone(),
            None,
        );
        let reader = cons.reader();
        let mut prod = Producer::spawn_with(
            Rank(1),
            t,
            mesh.sender(),
            storage,
            sink.clone(),
            None,
            false,
        );
        let w = prod.writer(256);
        for s in 0..3u64 {
            let id = BlockId::new(Rank(1), StepId(s), 0);
            w.write(Block::from_payload(
                Rank(1),
                StepId(s),
                0,
                1,
                GlobalPos::default(),
                deterministic_payload(id, 256),
            ));
        }
        w.finish();
        while reader.read().is_some() {}
        prod.join();
        let cm = cons.join();
        assert_eq!(cm.blocks_delivered, 3);
        let log = sink.snapshot();
        let app = log.lane_by_label("ana/q1/app").expect("analysis lane");
        let analysis: Vec<u64> = log
            .lane_spans(app)
            .iter()
            .filter(|s| s.kind == SpanKind::Analysis)
            .map(|s| s.step)
            .collect();
        // The gap before read k is attributed to the previously delivered
        // step; the first gap (reader setup) is attributed to step 0.
        assert_eq!(analysis, vec![0, 0, 1, 2]);
        assert!(log.lane_by_label("ana/q1/recv").is_some());
        assert!(log.lane_by_label("sim/p1/app").is_some());
    }
}
