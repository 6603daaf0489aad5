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
use crate::metrics::ConsumerMetrics;
use crate::producer::{causal_token, chan_code, spawn_runtime_thread};
use crate::transport::{MeshReceiver, Wire};
use crossbeam::channel::unbounded;
use parking_lot::Mutex;
use std::sync::Arc;
use std::thread::JoinHandle;
use zipper_pfs::Storage;
use zipper_policy::ConsumerPolicy;
use zipper_trace::{
    eos_token, CausalSink, EdgeKind, GaugeId, LaneRecorder, Span, SpanKind, TraceSink,
};
use zipper_types::{
    panic_detail, Block, BlockId, ChaosFault, ChaosScope, Error, Rank, RuntimeError, ZipperTuning,
};

/// One consumer rank's decision kernel, shared by its receiver thread (EOS
/// completion, Preserve verdicts) and exposed to the conformance harness.
pub type SharedConsumerPolicy = Arc<Mutex<ConsumerPolicy>>;

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
    /// Log of every delivered block ID, shared with a
    /// [`ConsumerRecovery`] handle — the replay backlog after a crash.
    /// Having one makes this a recovery-managed reader: its `Drop` leaves
    /// the queue open and the abandonment unaccounted, because the restart
    /// supervisor owns both (it replays the backlog and hands out a fresh
    /// reader instead of tearing the module down).
    delivered: Option<Arc<Mutex<Vec<BlockId>>>>,
    /// This consumer's `Analysis` chaos scope: scripted read ordinals
    /// panic ([`ChaosFault::CrashApp`]) before any block is taken.
    chaos: Option<Arc<ChaosScope>>,
    /// Edge recording for queue handoffs (pop side).
    causal: CausalSink,
    queue_label: String,
    app_label: String,
}

impl ZipperReader {
    /// A reader on `rank`'s analysis lane (see the fields for what
    /// `delivered` and `chaos` make of it).
    fn new(
        rank: Rank,
        queue: &Arc<BlockQueue>,
        metrics: &Arc<Mutex<ConsumerMetrics>>,
        sink: &TraceSink,
        delivered: Option<Arc<Mutex<Vec<BlockId>>>>,
        chaos: Option<Arc<ChaosScope>>,
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
            delivered,
            chaos,
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
        if let Some(scope) = &self.chaos {
            // The scope counts read *calls*; a scripted CrashApp fires
            // before the pop, so the current block stays in the queue and
            // the delivered log holds exactly the pre-crash backlog.
            if scope.next() == Some(ChaosFault::CrashApp) {
                panic!("chaos: injected application crash on read #{}", scope.ops());
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
                if let Some(log) = &self.delivered {
                    log.lock().push(b.id());
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
        if self.delivered.is_none() && !self.lane.lock().done {
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
/// reader ([`Consumer::recovery`]). It hands out *recoverable* readers and
/// owns the delivered-block log a restart supervisor replays from the
/// Preserve store after a [`ChaosFault::CrashApp`] (or any application
/// panic): the crashed closure's partial progress is discarded, the
/// already-delivered backlog is re-fetched from storage and requeued at
/// the front of the consumer buffer in original delivery order, and a
/// fresh reader rejoins the still-flowing live traffic — no block is lost
/// or duplicated in the final (successful) pass.
///
/// Replay requires Preserve mode: only there is every delivered block
/// durable on the PFS.
pub struct ConsumerRecovery {
    rank: Rank,
    queue: Arc<BlockQueue>,
    metrics: Arc<Mutex<ConsumerMetrics>>,
    sink: TraceSink,
    delivered: Arc<Mutex<Vec<BlockId>>>,
    chaos: Option<Arc<ChaosScope>>,
}

impl ConsumerRecovery {
    /// A fresh recoverable reader on this rank's analysis lane. Call once
    /// per (re)start; readers crash-closed by a panic are simply dropped.
    pub fn fresh_reader(&self) -> ZipperReader {
        ZipperReader::new(
            self.rank,
            &self.queue,
            &self.metrics,
            &self.sink,
            Some(self.delivered.clone()),
            self.chaos.clone(),
        )
    }

    /// Replay the crashed reader's backlog: take (and clear) the delivered
    /// log, fetch each block from `storage`, and requeue it at the front
    /// of the consumer buffer in original delivery order. Returns the
    /// number of blocks replayed.
    ///
    /// Network-delivered blocks are persisted by the asynchronous output
    /// thread, so a block the application already saw may not be durable
    /// yet at crash time — each fetch is retried until `fetch_timeout`
    /// elapses before the replay gives up.
    pub fn replay_from(
        &self,
        storage: &dyn Storage,
        fetch_timeout: std::time::Duration,
    ) -> zipper_types::Result<usize> {
        let ids = std::mem::take(&mut *self.delivered.lock());
        let (queue, lane) = (consumer_queue(self.rank), analysis_lane(self.rank));
        // Requeue in reverse: the last push_front ends up first, so the
        // fresh reader re-reads the backlog in the original order.
        for id in ids.iter().rev() {
            let t0 = std::time::Instant::now();
            let block = loop {
                match storage.get(*id) {
                    Ok(b) => break b,
                    Err(e) => {
                        if t0.elapsed() >= fetch_timeout {
                            return Err(e);
                        }
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
            };
            self.queue.requeue(block);
            // A replayed block's next pop pairs with this push, attributed
            // to the analysis lane (the restart supervisor acts for the app).
            self.sink
                .causal()
                .queue_push(&queue, causal_token(*id), &lane);
        }
        Ok(ids.len())
    }

    /// Give up on this rank for good: close the consumer buffer so the
    /// runtime threads fail soft instead of blocking on a reader that
    /// will never return. A restart supervisor calls this when the
    /// restart budget is exhausted — it is the recoverable counterpart of
    /// a plain reader's abandoning `Drop`.
    pub fn abandon(&self) {
        abandon(self.rank, &self.queue, &self.metrics);
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
    ///   keep a clone of the `Arc`); `None` builds one from `tuning`.
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
        let policy = policy.unwrap_or_else(|| {
            Arc::new(Mutex::new(ConsumerPolicy::from_tuning(
                rank, producers, &tuning,
            )))
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
                    let mut discarding = false;
                    loop {
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
                                    tm.lock().blocks_net += 1;
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
                                if rpolicy.lock().note_eos(p, ch).is_complete() {
                                    break;
                                }
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
                                tm.lock().blocks_disk += 1;
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
        ZipperReader::new(
            self.rank,
            &self.queue,
            &self.metrics,
            &self.sink,
            None,
            None,
        )
    }

    /// The recovery handle (take *instead of* [`Consumer::reader`]): hands
    /// out recoverable readers whose crashes a restart supervisor can heal
    /// by Preserve-store replay. `chaos` optionally attaches this rank's
    /// `Analysis` chaos scope, whose scripted ordinals panic inside
    /// [`ZipperReader::read`].
    pub fn recovery(&mut self, chaos: Option<Arc<ChaosScope>>) -> ConsumerRecovery {
        assert!(!self.reader_taken, "reader handle already taken");
        self.reader_taken = true;
        ConsumerRecovery {
            rank: self.rank,
            queue: self.queue.clone(),
            metrics: self.metrics.clone(),
            sink: self.sink.clone(),
            delivered: Arc::new(Mutex::new(Vec::new())),
            chaos,
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
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use zipper_types::{ChaosEntity, ChaosFault, ChaosPlan};

        // Preserve mode: every block becomes durable, so a crashed
        // consumer can replay its delivered backlog from the PFS.
        let n_blocks = 12u32;
        let crash_at = 5; // read call #5 panics: 4 blocks delivered before
        let mesh = ChannelMesh::new(1, 64);
        let storage = Arc::new(MemFs::new());
        // Message-only: arrival order equals production order, so the
        // recovered stream can be asserted block-for-block.
        let t = tuning(PreserveMode::Preserve, false);
        let plan = ChaosPlan::new().with(
            ChaosEntity::Analysis(Rank(0)),
            crash_at,
            ChaosFault::CrashApp,
        );
        let scope = Arc::new(plan.scope(ChaosEntity::Analysis(Rank(0))));
        let mut cons = Consumer::spawn(
            Rank(0),
            t,
            1,
            mesh.take_receiver(Rank(0)).unwrap(),
            storage.clone(),
        );
        let recovery = cons.recovery(Some(scope));

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

        // Restart supervisor: run the consume closure, and on a panic
        // replay the backlog and try again with a fresh reader.
        let mut restarts = 0;
        let got = loop {
            let reader = recovery.fresh_reader();
            let run = catch_unwind(AssertUnwindSafe(|| {
                reader.iter().map(|b| b.id()).collect::<Vec<_>>()
            }));
            drop(reader);
            match run {
                Ok(ids) => break ids,
                Err(_) => {
                    restarts += 1;
                    let replayed = recovery
                        .replay_from(storage.as_ref(), std::time::Duration::from_secs(5))
                        .expect("replay backlog");
                    assert_eq!(replayed, (crash_at - 1) as usize);
                }
            }
        };
        feeder.join().unwrap();
        prod.join();
        cons.join();
        assert_eq!(restarts, 1);
        // The successful pass saw every block exactly once, in order.
        let idxs: Vec<u32> = got.iter().map(|id| id.idx).collect();
        assert_eq!(idxs, (0..n_blocks).collect::<Vec<_>>());
    }

    #[test]
    fn shared_full_sink_sees_analysis_spans() {
        use zipper_trace::{TraceMode, TraceSink};
        let sink = TraceSink::wall(TraceMode::Full);
        let mesh = ChannelMesh::new(1, 64);
        let storage: Arc<MemFs> = Arc::new(MemFs::new());
        let t = tuning(PreserveMode::NoPreserve, false);
        let mut cons = Consumer::spawn_with(
            Rank(1),
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
            storage,
            sink.clone(),
            None,
            false,
        );
        let w = prod.writer(256);
        for s in 0..3u64 {
            let id = BlockId::new(Rank(0), StepId(s), 0);
            w.write(Block::from_payload(
                Rank(0),
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
        assert!(log.lane_by_label("sim/p0/app").is_some());
    }
}
