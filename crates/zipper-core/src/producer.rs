//! The producer runtime module (Fig. 8): producer buffer + sender thread +
//! work-stealing writer thread, behind the `Zipper.write()` API.
//!
//! Every decision of the rank — routing, dead destinations, scripted
//! backpressure windows, writer revival and retirement, end-of-stream
//! fan-out — is its [`RankScript`]'s, behind one lock the two threads
//! share. The threads keep only their locks, clocks and I/O: the sender
//! holds a data wire where the kernel says (sleeping out a `Hold`, or
//! waiting on the rank's condition variable while a credit window is
//! armed), and the writer parks between windows on the same variable.
//!
//! Every thread of the module records contiguous spans to the run's
//! [`TraceSink`], one clock read per boundary
//! ([`LaneRecorder::boundary`]): the application lane captures compute
//! (the gaps between `write` calls, step-marked) and stall (blocked on a
//! full buffer), the sender lane captures send/idle, and the writer lane
//! captures fs-write/idle. The per-rank [`ProducerMetrics`] time fields
//! are views over these lanes, derived at [`Producer::join`].

// Threaded substrate: producer compute/stall timing against the real clock is
// this module's job — the DES twin replays the same kernel in virtual time.
#![allow(clippy::disallowed_methods)]
use crate::buffer::BlockQueue;
use crate::metrics::{LaneCounts, ProducerMetrics};
use crate::transport::{Wire, WireSender};
use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;
use zipper_policy::{
    Channel, EosTargets, NetVerdict, ProducerPolicy, PutVerdict, RankScript, WireGate, WriterGate,
};
use zipper_trace::{
    block_token, eos_token, CausalSink, CounterId, EdgeKind, GaugeId, HistogramId, LaneRecorder,
    MetricShard, Span, SpanKind, Telemetry, TraceSink,
};
use zipper_types::{
    panic_detail, Block, BlockId, Error, GlobalPos, MixedMessage, Rank, RuntimeError, SimTime,
    StepId, ZipperTuning,
};

/// Pending on-disk block IDs, bucketed by destination consumer. The writer
/// thread fills these; the sender thread piggybacks them onto its next
/// message to that consumer (the paper's "mixed messages").
type PendingIds = Arc<Mutex<Vec<Vec<BlockId>>>>;

/// Lane label of producer `rank`'s application (compute) lane.
pub fn app_lane(rank: Rank) -> String {
    format!("sim/p{}/app", rank.0)
}

/// Lane label of producer `rank`'s sender thread.
pub fn sender_lane(rank: Rank) -> String {
    format!("sim/p{}/send", rank.0)
}

/// Lane label of producer `rank`'s work-stealing writer thread.
pub fn writer_lane(rank: Rank) -> String {
    format!("sim/p{}/fs", rank.0)
}

/// Causal-queue label of producer `rank`'s buffer (join key only — never
/// part of a path signature, so it need not match the DES's name for the
/// same buffer).
fn producer_queue(rank: Rank) -> String {
    format!("q/sim/p{}", rank.0)
}

/// Channel code for EOS join tokens (shared with the consumer side).
pub(crate) fn chan_code(ch: Channel) -> u8 {
    match ch {
        Channel::Net => 0,
        Channel::Disk => 1,
    }
}

/// Causal token of one block's cross-entity edges.
pub(crate) fn causal_token(id: BlockId) -> u64 {
    block_token(id.src.0, id.step.0, id.idx)
}

/// One producer rank's state, shared by its sender and writer threads.
#[derive(Clone)]
struct RankState {
    rank: Rank,
    queue: Arc<BlockQueue>,
    pending: PendingIds,
    metrics: Arc<Mutex<ProducerMetrics>>,
    /// The rank's kernel, consulted inside the buffer's take
    /// ([`BlockQueue::pop_then`] / [`BlockQueue::steal_then`]) so decision
    /// order equals take order. Lock order is queue → kernel.
    script: Arc<Mutex<RankScript>>,
    /// Signalled when the script may have opened a window or failed open;
    /// a held sender and a writer parked between windows wait on it.
    changed: Arc<Condvar>,
    telemetry: Telemetry,
    causal: CausalSink,
}

impl RankState {
    /// Hold one data wire as the kernel decided, before it enters the
    /// transport stack (a retried send is not held twice). Held time is
    /// charged to `net.backpressure_ns`, like a full consumer inbox's — a
    /// scripted gate *is* modelled backpressure — and recorded as an
    /// [`EdgeKind::Gate`] self-edge on `lane` keyed by the wire's ordinal.
    fn hold(&self, gate: WireGate, wire: u64, lane: &str) {
        let held = match gate {
            WireGate::Pass | WireGate::Inert => return,
            WireGate::Hold(d) => {
                std::thread::sleep(d);
                d
            }
            WireGate::Armed { .. } => {
                // The writer may be parked on the queue below the
                // high-water mark (nudge) or between windows (notify): wake
                // both, outside the kernel's lock (lock order).
                self.changed.notify_all();
                self.queue.nudge();
                let t0 = Instant::now();
                let mut script = self.script.lock();
                while script.writer_gate() == WriterGate::Steal {
                    self.changed.wait(&mut script);
                }
                t0.elapsed()
            }
        };
        if held.is_zero() {
            return;
        }
        self.telemetry.add_time(CounterId::NetBackpressureNs, held);
        self.telemetry
            .observe(HistogramId::StallNs, held.as_nanos() as u64);
        let t1 = self.causal.now();
        let t0 = t1.saturating_sub(SimTime::from_nanos(held.as_nanos() as u64));
        self.causal
            .edge_at(EdgeKind::Gate, lane, t0, lane, t1, wire);
    }

    /// Writer-side park between windows, once the queue reports closed:
    /// `true` when an unmet window is armed (go steal), `false` when none
    /// can arm any more (retire).
    ///
    /// The threaded queue reports "closed" as soon as the app finishes,
    /// while the sender may still hold undrained blocks behind a scripted
    /// gate; retiring then would fail the rest of the script open and
    /// diverge from the DES, whose writer waits on the window gate.
    fn await_steal_window(&self) -> bool {
        let mut script = self.script.lock();
        loop {
            match script.writer_gate() {
                WriterGate::Steal => return true,
                WriterGate::Free => return false,
                WriterGate::Wait { .. } => self.changed.wait(&mut script),
            }
        }
    }
}

/// The fact "this rank's writer thread is gone", produced once: the writer
/// closure owns this guard, so it fires however the closure ends — the
/// loop returned, it unwound from a panic, or `Builder::spawn` failed and
/// dropped it unrun. The sender waits for that (`writer_gone.recv()`) before
/// flushing the pending-ID buckets and announcing the file channel's EOS:
/// the ID of a block still being stored must not miss the flush.
struct WriterExit {
    st: RankState,
    /// Dropped after `drop`'s body; the disconnect is what the sender's
    /// `recv` returns with.
    _alive: mpsc::Sender<()>,
}

impl Drop for WriterExit {
    fn drop(&mut self) {
        let st = &self.st;
        // A writer that ended without a verdict (it panicked, or never
        // ran) died by fault. A refused spawn is reported by the spawner,
        // with the OS error; only the unwind has no other reporter.
        if st.script.lock().writer_exited() && std::thread::panicking() {
            st.metrics.lock().errors.push(RuntimeError::WriterRetired {
                rank: st.rank,
                detail: "writer thread panicked".into(),
            });
        }
        // However the writer ended, the kernel failed the script open:
        // release a held sender instead of wedging it.
        st.changed.notify_all();
    }
}

/// Spawn one named runtime thread. When the OS refuses the thread, `body`
/// is dropped unrun — the guards it owns fire exactly as if it had run and
/// ended — and `refused` records the typed error.
pub(crate) fn spawn_runtime_thread(
    name: String,
    body: impl FnOnce() + Send + 'static,
    refused: impl FnOnce(std::io::Error),
) -> Option<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(name)
        .spawn(body)
        .map_err(refused)
        .ok()
}

/// Application-facing writer handle: the paper's
/// `Zipper.write(block_id, data, block_size)`.
pub struct ZipperWriter {
    rank: Rank,
    queue: Arc<BlockQueue>,
    consumers: usize,
    block_size: usize,
    metrics: Arc<Mutex<ProducerMetrics>>,
    /// The application lane. Guarded by a (uncontended) mutex only so the
    /// handle stays usable behind `&self`, matching the paper's API shape.
    recorder: Mutex<LaneRecorder>,
    /// Edge recording for queue handoffs (push side).
    causal: CausalSink,
    queue_label: String,
    app_label: String,
}

impl ZipperWriter {
    /// Producer rank this writer belongs to.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Hand one pre-built fine-grain block to the runtime. Blocks while the
    /// producer buffer is full — that time is recorded as simulation stall.
    ///
    /// The gap since the previous call's last boundary (the end of the
    /// previous `write`, or the handle's creation) is recorded as a
    /// step-marked compute span, up to the stall that ended it: from the
    /// trace's point of view, whatever the application did since it last
    /// handed over a block, and a hand-off that did not block, is
    /// simulation compute.
    pub fn write(&self, block: Block) {
        let id = block.id();
        let pushed = self.queue.push(block);
        let stall = pushed.as_ref().ok().map(|&stall| (SpanKind::Stall, stall));
        self.recorder
            .lock()
            .boundary(SpanKind::Compute, id.step.0, stall);
        match pushed {
            Ok(_) => {
                self.causal
                    .queue_push(&self.queue_label, causal_token(id), &self.app_label);
                self.metrics.lock().blocks_written += 1;
            }
            Err(_) => {
                // Shutdown race: the queue closed under us. The block is
                // dropped and the condition recorded; the application keeps
                // running.
                self.metrics.lock().errors.push(RuntimeError::QueueClosed {
                    rank: self.rank,
                    context: "producer write",
                });
            }
        }
    }

    /// Split one step's output slab into fine-grain blocks of the
    /// configured block size and write them all — the paper's fine-grain
    /// decomposition ("Zipper divides the contiguous 20 MB data into many
    /// small blocks of size 1.2 MB", §6.3.2).
    ///
    /// Returns the number of blocks written.
    pub fn write_slab(&self, step: StepId, base_pos: GlobalPos, slab: Bytes) -> u32 {
        assert!(!slab.is_empty(), "cannot write an empty slab");
        let n = slab.len().div_ceil(self.block_size) as u32;
        for i in 0..n {
            let lo = i as usize * self.block_size;
            let hi = (lo + self.block_size).min(slab.len());
            let pos = GlobalPos::new(base_pos.x + lo as u64, base_pos.y, base_pos.z);
            let block = Block::from_payload(self.rank, step, i, n, pos, slab.slice(lo..hi));
            self.write(block);
        }
        n
    }

    /// Number of consumer ranks this writer can route to.
    pub fn consumers(&self) -> usize {
        self.consumers
    }

    /// Finish the stream: close the producer buffer so the sender and
    /// writer threads drain and exit, and flush this lane's spans into the
    /// trace. The same as dropping the handle, named for the call site.
    pub fn finish(self) {}
}

impl Drop for ZipperWriter {
    /// However the application let go of the handle — `finish`, a panic,
    /// an early return — the queue closes, so the runtime threads drain,
    /// EOS reaches the consumers, and nothing hangs.
    fn drop(&mut self) {
        self.queue.close();
    }
}

/// One producer rank's runtime: owns the sender/writer threads.
pub struct Producer {
    rank: Rank,
    queue: Arc<BlockQueue>,
    consumers: usize,
    metrics: Arc<Mutex<ProducerMetrics>>,
    sink: TraceSink,
    sender_thread: Option<JoinHandle<()>>,
    writer_thread: Option<JoinHandle<()>>,
    writer_taken: bool,
}

impl Producer {
    /// Spawn the runtime module for producer `rank` with a private
    /// totals-mode trace sink, its own kernel without backpressure windows,
    /// and an attached sender (stand-alone use; see
    /// [`Producer::spawn_with`]).
    pub fn spawn(
        rank: Rank,
        tuning: ZipperTuning,
        mesh: impl WireSender + 'static,
        storage: Arc<dyn zipper_pfs::Storage>,
    ) -> Producer {
        Self::spawn_with(
            rank,
            tuning,
            mesh,
            storage,
            TraceSink::default(),
            None,
            false,
        )
    }

    /// Spawn the runtime module for producer `rank`, every knob explicit.
    ///
    /// * `tuning` — buffer capacity, high-water mark, routing, dual-channel
    ///   switch.
    /// * `mesh` — the message channel toward the consumers.
    /// * `storage` — the PFS used by the work-stealing writer thread
    ///   (ignored when `tuning.concurrent_transfer` is off).
    /// * `sink` — the run's trace sink; all lanes of all ranks of one run
    ///   should share one sink so their spans share a time axis.
    /// * `script` — a caller-supplied kernel for this rank: its policy (the
    ///   hook the conformance harness uses to record a
    ///   [`zipper_policy::DecisionTrace`]: build it from a
    ///   [`ProducerPolicy::recorded`] policy and keep a clone of the `Arc`)
    ///   and its windows of a [`zipper_types::BackpressureScript`]
    ///   (`windows_for(rank)`). `None` builds one from `tuning`, with no
    ///   windows.
    /// * `detach_sender` — the chaos engine's `ChaosFault::DetachSender`. A
    ///   detached sender takes no blocks (with the high-water mark at zero
    ///   every block drains through the work-stealing writer in production
    ///   order, which makes the steal schedule deterministic across
    ///   substrates); it still waits for the writer to retire, flushes the
    ///   pending on-disk IDs, and announces EOS. Requires
    ///   `tuning.concurrent_transfer` — without a writer thread a detached
    ///   producer would ship nothing.
    pub fn spawn_with(
        rank: Rank,
        tuning: ZipperTuning,
        mesh: impl WireSender + 'static,
        storage: Arc<dyn zipper_pfs::Storage>,
        sink: TraceSink,
        script: Option<Arc<Mutex<RankScript>>>,
        detach_sender: bool,
    ) -> Producer {
        tuning.validate().expect("invalid tuning");
        assert!(
            !detach_sender || tuning.concurrent_transfer,
            "a detached sender needs the writer thread (concurrent_transfer)"
        );
        let consumers = mesh.consumers();
        let script = script.unwrap_or_else(|| {
            let policy = ProducerPolicy::from_tuning(rank, consumers, &tuning);
            Arc::new(Mutex::new(RankScript::new(policy, Vec::new())))
        });
        {
            let p = script.lock();
            let built_for = (p.policy().rank(), p.policy().consumers());
            assert_eq!(built_for, (rank, consumers), "kernel/rank or mesh mismatch");
        }
        let queue = Arc::new(
            BlockQueue::new(tuning.producer_slots)
                .with_telemetry(sink.telemetry().clone(), GaugeId::ProducerQueueDepth),
        );
        let metrics = Arc::new(Mutex::new(ProducerMetrics::default()));
        let st = RankState {
            rank,
            queue: queue.clone(),
            pending: Arc::new(Mutex::new(vec![Vec::new(); consumers])),
            metrics: metrics.clone(),
            script,
            changed: Arc::new(Condvar::new()),
            telemetry: sink.telemetry().clone(),
            causal: sink.causal().clone(),
        };

        let (alive, writer_gone) = mpsc::channel();
        let exit = WriterExit {
            st: st.clone(),
            _alive: alive,
        };
        let writer_thread = if tuning.concurrent_transfer {
            let rec = sink.recorder(writer_lane(rank));
            let shard = sink.telemetry().shard();
            spawn_runtime_thread(
                format!("zipper-writer-{rank}"),
                move || writer_loop(exit, storage, rec, shard),
                // Degrades to message-passing-only instead of aborting.
                |e| {
                    metrics.lock().errors.push(RuntimeError::WriterRetired {
                        rank,
                        detail: format!("could not spawn writer thread: {e}"),
                    })
                },
            )
        } else {
            // No writer: the sender is released at once.
            drop(exit);
            None
        };

        let sender_thread = {
            let rec = sink.recorder(sender_lane(rank));
            let refused = st.clone();
            spawn_runtime_thread(
                format!("zipper-sender-{rank}"),
                move || sender_loop(st, mesh, writer_gone, rec, detach_sender),
                // Without a sender nothing can be shipped; close the queue
                // so writes fail soft instead of filling forever, and
                // record why. The consumers' EOS watchdog covers the
                // end-of-stream marks the kernel names but no thread can
                // send. No wire will ever pass, so scripted windows can
                // never arm — the kernel fails them open, releasing a
                // writer parked between windows.
                |_| {
                    refused.queue.close();
                    refused.script.lock().sender_drained();
                    refused.changed.notify_all();
                    metrics
                        .lock()
                        .errors
                        .push(RuntimeError::ChannelDisconnected {
                            rank,
                            context: "sender thread could not be spawned",
                        });
                },
            )
        };

        Producer {
            rank,
            queue,
            consumers,
            metrics,
            sink,
            sender_thread,
            writer_thread,
            writer_taken: false,
        }
    }

    /// The application-facing writer handle (take once).
    pub fn writer(&mut self, block_size: usize) -> ZipperWriter {
        assert!(!self.writer_taken, "writer handle already taken");
        assert!(block_size > 0, "block size must be positive");
        self.writer_taken = true;
        // The lane opens here: time from now to the first write is the
        // first step's compute.
        let recorder = self.sink.recorder(app_lane(self.rank));
        ZipperWriter {
            rank: self.rank,
            queue: self.queue.clone(),
            consumers: self.consumers,
            block_size,
            metrics: self.metrics.clone(),
            recorder: Mutex::new(recorder),
            causal: self.sink.causal().clone(),
            queue_label: producer_queue(self.rank),
            app_label: app_lane(self.rank),
        }
    }

    /// Join the runtime threads and return this rank's metrics, with the
    /// time fields derived from the rank's trace lanes. The
    /// [`ZipperWriter`] must have been finished (or dropped — its guard
    /// closes the queue) first, otherwise the threads never exit and this
    /// blocks forever.
    ///
    /// Never panics: a runtime thread that panicked is folded into
    /// `metrics.errors` as an [`RuntimeError::AppPanicked`] report (what
    /// each thread's exit releases: DESIGN.md, "Failure semantics" table).
    pub fn join(mut self) -> ProducerMetrics {
        for (h, role) in [
            (self.sender_thread.take(), "producer sender thread"),
            (self.writer_thread.take(), "producer writer thread"),
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
        m.app = self.sink.lane_totals(&app_lane(self.rank));
        m.sender = self.sink.lane_totals(&sender_lane(self.rank));
        m.writer = self.sink.lane_totals(&writer_lane(self.rank));
        m
    }
}

/// Map an operation-level send error to the runtime fault it represents.
fn wire_fault(rank: Rank, e: Error) -> RuntimeError {
    match e {
        Error::Disconnected(context) => RuntimeError::ChannelDisconnected { rank, context },
        Error::Runtime(re) => re,
        other => RuntimeError::Transport {
            rank,
            detail: other.to_string(),
        },
    }
}

/// Sender thread (Fig. 8): drain the producer buffer over the message
/// channel, piggybacking any on-disk block IDs destined for the same
/// consumer; at end-of-stream flush leftover IDs and announce EOS to the
/// targets the kernel names.
///
/// Every block's verdict comes from the rank's [`RankScript`], consulted
/// atomically with the take ([`BlockQueue::pop_then`]) so the sender and
/// writer see one rotation in take order.
///
/// Fail-soft: a consumer whose channel fails is dead to the kernel and
/// recorded once; blocks routed to it are dropped while the rest of the
/// mesh keeps flowing, and the thread itself never panics or aborts the
/// run.
///
/// A `detached` sender skips the drain loop entirely — the writer carries
/// every block — but still performs the end-of-stream duties below it.
fn sender_loop(
    st: RankState,
    mesh: impl WireSender,
    writer_gone: mpsc::Receiver<()>,
    mut rec: LaneRecorder,
    detached: bool,
) {
    let rank = st.rank;
    let slane = sender_lane(rank);
    let qlabel = producer_queue(rank);
    let mut sent = LaneCounts::new(&st.metrics, ProducerMetrics::merge);
    if !detached {
        loop {
            let (taken, idle) = st.queue.pop_then(|b| st.script.lock().take_net(b.id()));
            // Since the last boundary: the previous wire and its
            // bookkeeping (send), then the wait for data, if any (idle).
            rec.boundary(SpanKind::Send, Span::NO_STEP, Some((SpanKind::Idle, idle)));
            let Some((block, verdict)) = taken else { break };
            let token = causal_token(block.id());
            st.causal.queue_pop(&qlabel, token, &slane);
            let NetVerdict::Send { dest, gate, wire } = verdict else {
                continue; // destination already failed; drop, error recorded
            };
            let on_disk = std::mem::take(&mut st.pending.lock()[dest.idx()]);
            st.hold(gate, wire, &slane);
            let bytes = block.header.len;
            let msg = MixedMessage::mixed(block, on_disk.clone());
            match mesh.send(dest, Wire::Msg(msg)) {
                Ok(()) => {
                    // The edge's source is the moment the wire cleared this
                    // sender (post gate hold / throttle); the receiver's
                    // `end` half completes it.
                    st.causal.begin(EdgeKind::Wire, token, &slane);
                    sent.local.blocks_sent += 1;
                    sent.local.bytes_sent += bytes;
                }
                Err(e) => {
                    st.script.lock().send_failed(dest);
                    st.metrics.lock().errors.push(wire_fault(rank, e));
                    // The wire's IDs are of blocks on the PFS: park them
                    // again, ahead of later ones, for the final flush.
                    st.pending.lock()[dest.idx()].splice(0..0, on_disk);
                }
            }
        }
    }

    // Announce one channel's end-of-stream to the targets the kernel
    // names. Every target is attempted even when an earlier one failed: a
    // dead consumer must not starve the others of the mark they wait on.
    let announce = |channel: Channel, targets: EosTargets| {
        for q in targets {
            if let Err(e) = mesh.send(q, Wire::Eos(rank, channel)) {
                st.metrics.lock().errors.push(wire_fault(rank, e));
            }
            let token = eos_token(rank.0, chan_code(channel), q.0);
            st.causal.begin(EdgeKind::Eos, token, &slane);
        }
    };

    // End of the *message* channel: the buffer is drained (or this sender
    // is detached and never passes wires), so no data wire can follow and
    // no window ahead can arm — the kernel fails them open, releasing a
    // writer parked between windows, and the Net-channel EOS ships now,
    // without waiting for the writer. Per-connection FIFO ordering keeps it
    // behind every data message. (One mark per channel lets a chaos plan
    // drop one channel's mark without silencing the other — the DES sends
    // per-channel marks too.)
    let targets = st.script.lock().sender_drained();
    st.changed.notify_all();
    announce(Channel::Net, targets);

    // The writer may still be storing its final stolen block: wait for it
    // to be gone before flushing, so every on-disk ID is announced before
    // the file channel's EOS (a block whose ID never ships would be
    // lost — caught by the block-accounting tests/benches). Nothing is
    // ever sent: `recv` returns when the [`WriterExit`] has been dropped.
    let _ = writer_gone.recv();

    // Flush IDs the writer parked after the last data message per consumer
    // — to a dead destination too: the blocks are on the PFS, and the dead
    // set covers data wires only.
    {
        let mut p = st.pending.lock();
        for (q, ids) in p.iter_mut().enumerate() {
            if !ids.is_empty() {
                let msg = MixedMessage::disk_only(std::mem::take(ids));
                if let Err(e) = mesh.send(Rank(q as u32), Wire::Msg(msg)) {
                    st.metrics.lock().errors.push(wire_fault(rank, e));
                }
            }
        }
    }
    // File-channel EOS after every ID has shipped (FIFO keeps the flushed
    // IDs ahead of it). On a message-passing-only run the kernel reports
    // the file channel inactive — no targets, no wire.
    let targets = st.script.lock().disk_eos();
    announce(Channel::Disk, targets);
}

/// Writer thread (Fig. 8 + Algorithm 1): steal blocks once the kernel's
/// steal condition fires, store them on the PFS, and announce their IDs
/// for the sender to piggyback. The steal condition and the stolen block's
/// destination both come from the rank's [`RankScript`], consulted
/// atomically with the take ([`BlockQueue::steal_then`]); each put's
/// result goes back to it, and its verdict says whether the writer goes
/// on, revives after a cooldown, or stops.
///
/// The loop only *returns*; everything that must happen once the writer is
/// gone — releasing a held sender and the sender's flush — is `exit`'s
/// drop.
fn writer_loop(
    exit: WriterExit,
    storage: Arc<dyn zipper_pfs::Storage>,
    mut rec: LaneRecorder,
    mut shard: MetricShard,
) {
    let st = &exit.st;
    let rank = st.rank;
    let wlane = writer_lane(rank);
    let qlabel = producer_queue(rank);
    let mut stolen = LaneCounts::new(&st.metrics, ProducerMetrics::merge);
    loop {
        let (taken, idle) = st.queue.steal_then(
            |occupancy| st.script.lock().steal_wanted(occupancy),
            |b| st.script.lock().take_disk(b.id()),
        );
        // Since the last boundary: the previous store and its bookkeeping
        // (fs-write), then the wait for the steal condition, if any (idle).
        rec.boundary(
            SpanKind::FsWrite,
            Span::NO_STEP,
            Some((SpanKind::Idle, idle)),
        );
        let Some((block, dest)) = taken else {
            // Queue closed below threshold. The queue closes as soon as
            // the app finishes, which can be long before the sender has
            // drained it — if the script still holds unmet steal-credit
            // windows, blocks parked behind a future gate are this
            // writer's to steal, so wait for the window to arm instead of
            // retiring (which would fail the rest of the script open and
            // desynchronize the scripted schedule). The kernel fails the
            // remaining windows open once the sender drains, releasing
            // this wait.
            if st.await_steal_window() {
                rec.boundary(SpanKind::Idle, Span::NO_STEP, None);
                continue;
            }
            // The normal end of stream.
            st.script.lock().writer_drained();
            return;
        };
        let token = causal_token(block.id());
        st.causal.queue_pop(&qlabel, token, &wlane);
        shard.observe(HistogramId::PfsWriteBytes, block.header.len);
        if let Err(e) = storage.put(&block) {
            // PFS failure: the stolen block goes back to the *front* of
            // the producer buffer (the next taker re-takes and re-routes
            // it — the DES writer proc mirrors this requeue-retire-revive
            // sequence exactly), and the writer retires. Within its revival
            // budget the kernel grants a comeback: the writer sleeps the
            // configured cooldown and resumes stealing; otherwise the run
            // degrades to message-passing-only. A queue already closed at
            // requeue time is a shutdown race — the block may never ship,
            // which is recorded.
            let closed = st.queue.is_closed();
            st.queue.requeue(block);
            // The block's next pop, whoever takes it, pairs with this
            // push: writer→taker causality.
            st.causal.queue_push(&qlabel, token, &wlane);
            let verdict = st.script.lock().put_result(false);
            {
                let mut m = st.metrics.lock();
                if closed {
                    m.errors.push(RuntimeError::QueueClosed {
                        rank,
                        context: "writer fallback requeue",
                    });
                }
                m.errors.push(RuntimeError::WriterRetired {
                    rank,
                    detail: e.to_string(),
                });
            }
            let PutVerdict::Revive(cooldown) = verdict else {
                return; // dying without a comeback
            };
            if !cooldown.is_zero() {
                std::thread::sleep(cooldown);
                rec.boundary(
                    SpanKind::FsWrite,
                    Span::NO_STEP,
                    Some((SpanKind::Retry, cooldown)),
                );
            }
            continue;
        }
        // Steal announce: the block became fetchable the moment the put
        // completed; the consumer's `end` half (on-disk ID arrival) joins.
        st.causal.begin(EdgeKind::Steal, token, &wlane);
        st.pending.lock()[dest.idx()].push(block.id());
        st.script.lock().put_result(true);
        st.changed.notify_all();
        stolen.local.blocks_stolen += 1;
        stolen.local.bytes_stolen += block.header.len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChannelMesh;
    use zipper_pfs::{MemFs, Storage};
    use zipper_trace::TraceMode;
    use zipper_types::block::deterministic_payload;
    use zipper_types::{ByteSize, PreserveMode, RoutingPolicy};

    fn tuning(concurrent: bool) -> ZipperTuning {
        ZipperTuning {
            block_size: ByteSize::kib(4),
            producer_slots: 4,
            high_water_mark: 2,
            consumer_slots: 64,
            concurrent_transfer: concurrent,
            preserve: PreserveMode::NoPreserve,
            routing: RoutingPolicy::SourceAffine,
            eos_timeout: Some(std::time::Duration::from_secs(30)),
            recovery: Default::default(),
        }
    }

    /// Drain consumer rank 0's wire channel until `expected_eos`
    /// end-of-stream marks arrived: one Net-channel mark per producer,
    /// plus one Disk-channel mark per producer when concurrent transfer is
    /// on (a disk-only ID flush can arrive between the two marks, so the
    /// collector must not stop at the first).
    fn collect_rank0(
        mesh: &ChannelMesh,
        expected_eos: usize,
    ) -> std::thread::JoinHandle<(Vec<BlockId>, Vec<BlockId>)> {
        let rx = mesh.take_receiver(Rank(0)).unwrap();
        std::thread::spawn(move || {
            let mut net = Vec::new();
            let mut disk = Vec::new();
            let mut eos = 0;
            while eos < expected_eos {
                match rx.recv().unwrap() {
                    Wire::Msg(m) => {
                        if let Some(b) = m.data {
                            net.push(b.id());
                        }
                        disk.extend(m.on_disk);
                    }
                    Wire::Eos(..) => eos += 1,
                }
            }
            (net, disk)
        })
    }

    #[test]
    fn all_blocks_arrive_without_stealing() {
        let mesh = ChannelMesh::new(1, 64);
        let storage = Arc::new(MemFs::new());
        let mut prod = Producer::spawn(Rank(0), tuning(false), mesh.sender(), storage.clone());
        let writer = prod.writer(4096);
        let collector = collect_rank0(&mesh, 1);
        for i in 0..20u32 {
            let id = BlockId::new(Rank(0), StepId(0), i);
            writer.write(Block::from_payload(
                Rank(0),
                StepId(0),
                i,
                20,
                GlobalPos::default(),
                deterministic_payload(id, 256),
            ));
        }
        writer.finish();
        let metrics = prod.join();
        assert!(metrics.errors.is_empty(), "{:?}", metrics.errors);
        let (net, disk) = collector.join().unwrap();
        assert_eq!(net.len(), 20);
        assert!(disk.is_empty());
        assert_eq!(metrics.blocks_sent, 20);
        assert_eq!(metrics.blocks_stolen, 0);
        assert_eq!(storage.len(), 0);
    }

    #[test]
    fn slow_network_triggers_stealing_and_ids_arrive() {
        // Tiny inbox + throttled mesh: the sender cannot keep up, the
        // buffer fills past the high-water mark, the writer steals.
        let mesh = ChannelMesh::new(1, 1).with_throttle(0.5e6, std::time::Duration::ZERO); // 0.5 MB/s
        let storage = Arc::new(MemFs::new());
        let mut prod = Producer::spawn(Rank(0), tuning(true), mesh.sender(), storage.clone());
        let writer = prod.writer(4096);
        let collector = collect_rank0(&mesh, 2); // Net + Disk channel marks
        for i in 0..30u32 {
            let id = BlockId::new(Rank(0), StepId(0), i);
            writer.write(Block::from_payload(
                Rank(0),
                StepId(0),
                i,
                30,
                GlobalPos::default(),
                deterministic_payload(id, 8192),
            ));
        }
        writer.finish();
        let metrics = prod.join();
        let (net, disk) = collector.join().unwrap();
        assert_eq!(net.len() + disk.len(), 30, "every block announced");
        assert!(metrics.blocks_stolen > 0, "expected steals");
        assert_eq!(metrics.blocks_stolen as usize, disk.len());
        assert_eq!(storage.len(), disk.len(), "stolen blocks are on the PFS");
        // Stolen blocks must be stored *before* their IDs were announced.
        for id in disk {
            assert!(storage.contains(id));
        }
        // The derived views are live: the writer thread's fs-write time
        // and the sender's send time came from the trace lanes.
        assert!(metrics.fs_busy() > std::time::Duration::ZERO);
        assert!(metrics.send_busy() > std::time::Duration::ZERO);
    }

    #[test]
    fn write_slab_splits_into_fine_grain_blocks() {
        let mesh = ChannelMesh::new(1, 128);
        let storage = Arc::new(MemFs::new());
        let mut prod = Producer::spawn(Rank(0), tuning(false), mesh.sender(), storage);
        let writer = prod.writer(1024);
        let collector = collect_rank0(&mesh, 1);
        // 4.5 KiB slab with 1 KiB blocks → 5 blocks, last one short.
        let slab = Bytes::from(vec![7u8; 4608]);
        let n = writer.write_slab(StepId(3), GlobalPos::linear(100), slab);
        assert_eq!(n, 5);
        writer.finish();
        prod.join();
        let (net, _) = collector.join().unwrap();
        assert_eq!(net.len(), 5);
        assert!(net.iter().all(|id| id.step == StepId(3)));
        let idxs: Vec<u32> = net.iter().map(|id| id.idx).collect();
        assert_eq!(idxs, vec![0, 1, 2, 3, 4]);
    }

    /// A round-robin rank marks every consumer, and a dead one among them
    /// costs one wire fault, not the marks of the consumers after it.
    #[test]
    fn eos_reaches_live_consumers_past_dead_ones() {
        let mesh = ChannelMesh::new(3, 4);
        drop(mesh.take_receiver(Rank(0)).unwrap());
        let live = [1, 2].map(|q| mesh.take_receiver(Rank(q)).unwrap());
        let mut t = tuning(false);
        t.routing = RoutingPolicy::RoundRobin;
        let mut prod = Producer::spawn(Rank(0), t, mesh.sender(), Arc::new(MemFs::new()));
        prod.writer(64).finish();
        let metrics = prod.join();
        assert_eq!(metrics.errors.len(), 1, "{:?}", metrics.errors);
        for rx in &live {
            assert!(matches!(
                rx.recv().unwrap(),
                Wire::Eos(Rank(0), Channel::Net)
            ));
        }
    }

    #[test]
    fn round_robin_routing_spreads_blocks() {
        let mesh = ChannelMesh::new(2, 64);
        let storage = Arc::new(MemFs::new());
        let mut t = tuning(false);
        t.routing = RoutingPolicy::RoundRobin;
        let mut prod = Producer::spawn(Rank(0), t, mesh.sender(), storage);
        let writer = prod.writer(4096);
        let rx0 = mesh.take_receiver(Rank(0)).unwrap();
        let rx1 = mesh.take_receiver(Rank(1)).unwrap();
        let count = |rx: crate::transport::MeshReceiver| {
            std::thread::spawn(move || {
                let mut n = 0;
                while let Wire::Msg(m) = rx.recv().unwrap() {
                    n += usize::from(m.data.is_some());
                }
                n
            })
        };
        let c0 = count(rx0);
        let c1 = count(rx1);
        for i in 0..10u32 {
            let id = BlockId::new(Rank(0), StepId(0), i);
            writer.write(Block::from_payload(
                Rank(0),
                StepId(0),
                i,
                10,
                GlobalPos::default(),
                deterministic_payload(id, 64),
            ));
        }
        writer.finish();
        prod.join();
        assert_eq!(c0.join().unwrap(), 5);
        assert_eq!(c1.join().unwrap(), 5);
    }

    /// Regression test for the duplicated round-robin state bug: the sender
    /// and writer threads used to each own an `rr_counter`, so with stealing
    /// active the two channels dealt to different consumers than a single
    /// rotation would. With the shared kernel, routing order equals take
    /// order equals production order (both takers pop the FIFO front), so
    /// block `i` must land on consumer `i % Q` — no matter which channel
    /// carried it.
    #[test]
    fn round_robin_channels_agree_on_destinations_under_stealing() {
        let consumers = 2usize;
        let blocks = 30u32;
        // Tiny inbox + heavy throttle: the sender falls behind, occupancy
        // crosses the high-water mark, and the writer steals a large share.
        let mesh = ChannelMesh::new(consumers, 1).with_throttle(0.5e6, std::time::Duration::ZERO);
        let storage = Arc::new(MemFs::new());
        let mut t = tuning(true);
        t.routing = RoutingPolicy::RoundRobin;
        t.high_water_mark = 0; // steal from the first backlog block
        let mut prod = Producer::spawn(Rank(0), t, mesh.sender(), storage);
        let writer = prod.writer(4096);
        let collectors: Vec<_> = (0..consumers)
            .map(|q| {
                let rx = mesh.take_receiver(Rank(q as u32)).unwrap();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    // Drain until both channel marks arrive: the post-EOS
                    // disk-ID flush rides between the Net and Disk marks.
                    let mut eos = 0;
                    while eos < 2 {
                        match rx.recv().unwrap() {
                            Wire::Msg(m) => {
                                got.extend(m.data.map(|b| b.id()));
                                got.extend(m.on_disk);
                            }
                            Wire::Eos(..) => eos += 1,
                        }
                    }
                    got
                })
            })
            .collect();
        for i in 0..blocks {
            let id = BlockId::new(Rank(0), StepId(0), i);
            writer.write(Block::from_payload(
                Rank(0),
                StepId(0),
                i,
                blocks,
                GlobalPos::default(),
                deterministic_payload(id, 8192),
            ));
        }
        writer.finish();
        let metrics = prod.join();
        assert!(metrics.errors.is_empty(), "{:?}", metrics.errors);
        assert!(metrics.blocks_stolen > 0, "test needs the writer racing");
        for (q, c) in collectors.into_iter().enumerate() {
            let mut got: Vec<u32> = c.join().unwrap().iter().map(|id| id.idx).collect();
            got.sort_unstable();
            let want: Vec<u32> = (0..blocks)
                .filter(|i| *i as usize % consumers == q)
                .collect();
            assert_eq!(got, want, "consumer {q} got a foreign deal");
        }
    }

    #[test]
    fn detached_sender_writer_revival_delivers_every_block() {
        use zipper_types::{ChaosEntity, ChaosFault, ChaosPlan, RecoveryPolicy};
        let mesh = ChannelMesh::new(1, 64);
        let plan = ChaosPlan::new().with(ChaosEntity::Writer(Rank(0)), 2, ChaosFault::PfsWriteFail);
        let storage = Arc::new(zipper_pfs::ChaosFs::new(
            MemFs::new(),
            Arc::new(plan.scope(ChaosEntity::Writer(Rank(0)))),
        ));
        let mut t = tuning(true);
        t.high_water_mark = 0; // steal from the first backlog block
        t.recovery = RecoveryPolicy {
            writer_cooldown: std::time::Duration::ZERO,
            max_writer_revivals: 1,
            max_consumer_restarts: 0,
        };
        let policy = ProducerPolicy::from_tuning(Rank(0), 1, &t).recorded();
        let script = Arc::new(Mutex::new(RankScript::new(policy, Vec::new())));
        let mut prod = Producer::spawn_with(
            Rank(0),
            t,
            mesh.sender(),
            storage.clone(),
            TraceSink::default(),
            Some(script.clone()),
            true,
        );
        let writer = prod.writer(4096);
        let collector = collect_rank0(&mesh, 2); // Net + Disk channel marks
        for i in 0..6u32 {
            let id = BlockId::new(Rank(0), StepId(0), i);
            writer.write(Block::from_payload(
                Rank(0),
                StepId(0),
                i,
                6,
                GlobalPos::default(),
                deterministic_payload(id, 256),
            ));
        }
        writer.finish();
        let metrics = prod.join();
        let (net, disk) = collector.join().unwrap();
        // Detached: no data wires — every block went through the writer,
        // including the one whose put #2 faulted (requeued, re-stored
        // after the revival).
        assert!(net.is_empty(), "detached sender must not carry data");
        assert_eq!(disk.len(), 6, "every block announced via the file path");
        assert_eq!(metrics.blocks_sent, 0);
        assert_eq!(metrics.blocks_stolen, 6);
        assert_eq!(storage.inner().len(), 6);
        assert_eq!(script.lock().policy().trace().canonical().revivals, 1);
        assert!(
            metrics
                .errors
                .iter()
                .any(|e| matches!(e, RuntimeError::WriterRetired { .. })),
            "the fault is still reported: {:?}",
            metrics.errors
        );
    }

    #[test]
    fn blocked_write_is_stall_on_a_contiguous_app_lane() {
        // Nobody drains the mesh for `delay` after the writes start. Until
        // then the rank holds at most 6 blocks (4 buffered, 1 in the
        // sender's hand, 1 in the one-message inbox), so the 7th write
        // blocks until the collector wakes. The app thread's only unblocked
        // work in that window is a few pushes of pre-built blocks, so its
        // stall is the delay less microseconds.
        let delay = std::time::Duration::from_millis(100);
        let sink = TraceSink::wall(TraceMode::Totals);
        let mesh = ChannelMesh::new(1, 1);
        let mut prod = Producer::spawn_with(
            Rank(0),
            tuning(false),
            mesh.sender(),
            Arc::new(MemFs::new()),
            sink.clone(),
            None,
            false,
        );
        let writer = prod.writer(4096);
        let n = 12u32;
        let blocks: Vec<Block> = (0..n)
            .map(|i| {
                let id = BlockId::new(Rank(0), StepId(0), i);
                Block::from_payload(
                    Rank(0),
                    StepId(0),
                    i,
                    n,
                    GlobalPos::default(),
                    deterministic_payload(id, 256),
                )
            })
            .collect();
        let rx = mesh.take_receiver(Rank(0)).unwrap();
        let (go, started) = mpsc::channel();
        let collector = std::thread::spawn(move || {
            started.recv().unwrap();
            std::thread::sleep(delay);
            let mut data = 0;
            while let Wire::Msg(m) = rx.recv().unwrap() {
                data += usize::from(m.data.is_some());
            }
            data
        });
        go.send(()).unwrap();
        for b in blocks {
            writer.write(b);
        }
        writer.finish();
        let metrics = prod.join();
        assert_eq!(collector.join().unwrap(), n as usize);
        assert!(
            metrics.stall() >= delay.mul_f64(0.9),
            "stall {:?} < injected delay {delay:?}",
            metrics.stall()
        );
        let log = sink.snapshot();
        for label in [app_lane(Rank(0)), sender_lane(Rank(0))] {
            let lane = log.lane_by_label(&label).expect("lane recorded");
            let (first, last) = log.lane_extent(lane);
            let extent = last.saturating_sub(first).as_nanos();
            let covered = log.lane_totals(lane).total().as_nanos();
            assert!(
                covered * 100 >= extent * 95,
                "{label}: spans cover {covered} of {extent} ns"
            );
        }
    }

    #[test]
    fn shared_full_sink_collects_step_marked_spans() {
        let sink = TraceSink::wall(TraceMode::Full);
        let mesh = ChannelMesh::new(1, 64);
        let storage = Arc::new(MemFs::new());
        let mut prod = Producer::spawn_with(
            Rank(3),
            tuning(false),
            mesh.sender(),
            storage,
            sink.clone(),
            None,
            false,
        );
        let writer = prod.writer(4096);
        let collector = collect_rank0(&mesh, 1);
        for s in 0..4u64 {
            writer.write_slab(
                StepId(s),
                GlobalPos::default(),
                Bytes::from(vec![1u8; 4096]),
            );
        }
        writer.finish();
        prod.join();
        collector.join().unwrap();
        let log = sink.snapshot();
        let app = log.lane_by_label("sim/p3/app").expect("app lane");
        let spans = log.lane_spans(app);
        assert!(!spans.is_empty());
        // One step-marked compute span per write.
        let steps: Vec<u64> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Compute)
            .map(|s| s.step)
            .collect();
        assert_eq!(steps, vec![0, 1, 2, 3]);
        assert!(log.lane_by_label("sim/p3/send").is_some());
    }
}
