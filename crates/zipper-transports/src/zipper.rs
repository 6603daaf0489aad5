//! The Zipper runtime modeled on the DES — a faithful virtual-time replica
//! of `zipper-core`: each simulation rank is three virtual processes
//! (compute / sender / work-stealing writer) sharing a bounded producer
//! buffer; each analysis rank is receiver / reader / analysis (+ output in
//! Preserve mode) around a consumer buffer. Blocks are fine-grain
//! (`spec.block_size`), transfers are fully asynchronous, and the only
//! inter-application coupling is data availability — no barriers, no
//! locks, no servers (§4's design points 1–4).
//!
//! Every *decision* — which consumer a block goes to, when the writer may
//! steal, who gets an end-of-stream marker, whether an arriving block must
//! be preserved — is delegated to the same `zipper-policy` kernel the
//! threaded runtime uses. The DES processes here are pure substrate: they
//! move simulated bytes and time, the kernel decides. Sender and writer of
//! one rank share a single [`ProducerPolicy`] (via `Rc<RefCell<..>>`, the
//! single-threaded analogue of the threaded runtime's `Arc<Mutex<..>>`),
//! so round-robin routing rotates one counter across both channels.

//!
//! ## Fault injection
//!
//! When [`WorkflowSpec::chaos`] carries a [`ChaosPlan`](zipper_types::ChaosPlan), each process
//! interprets its entity's [`ChaosScope`] under the ordinal conventions of
//! `zipper_types::fault`, mirroring the threaded runtime's injection
//! wrappers: the sender counts data-carrying and EOS sends (skipping
//! destinations an earlier `FailSend` killed, uncounted), the writer and
//! output procs count PFS put attempts, the analysis proc counts read
//! calls. Recovery is the same policy-kernel conversation as the threaded
//! runtime: a faulted writer requeues its block, retires, and — within the
//! [`RecoveryPolicy`](zipper_types::RecoveryPolicy) budget — revives after
//! the cooldown; a crashed
//! analysis rank records its abandonment and restart (the replay the
//! threaded supervisor performs is a no-op here, because the DES never
//! lost the blocks, but the scope advances over the replay's ordinals so
//! later faults stay aligned). Both substrates send *per-channel*
//! end-of-stream wires (the sender's SEOS when the buffer drains, the
//! writer's WEOS after the last stolen ID shipped), and both count only
//! data wires and message-channel marks against chaos ordinals — so a
//! `DropEos` plan conforms across substrates in either transfer mode.
//!
//! ## Scripted backpressure
//!
//! When [`WorkflowSpec::backpressure`] carries a
//! [`BackpressureScript`](zipper_types::BackpressureScript), the sender
//! process models a flow-controlled NIC: at each scripted data-wire
//! ordinal the taken block is held in xmit-wait until the gate opens — a
//! fixed virtual-time `Hold`, or an `OpenAfterSteals` credit window that
//! opens once the rank's writer has stolen the scripted cumulative block
//! count. The held span is recorded as `Stall` and charged to
//! `net.backpressure_ns` plus the node's XmitWait counter, exactly like
//! the threaded `GatedSender`. While a credit window is armed, the writer
//! steals every buffered block regardless of the high-water mark (the
//! threaded `SenderGate::steal_phase` override), so a script pins an
//! exact partial steal schedule on both substrates. All gates fail open:
//! a retiring writer floods the credit gate, a closing sender floods the
//! window gate.

use crate::spec::{tag, ClusterLayout, WorkflowSpec};
use hpcsim::{BufferTaken, GateId, Op, ProcCtx, Program, Simulator, Step};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use zipper_apps::AppCostModel;
use zipper_policy::{
    Channel, ConsumerPolicy, DecisionTrace, EosTargets, ProducerPolicy, RetireReason,
};
use zipper_trace::SpanKind;
use zipper_types::{
    BlockId, ChaosEntity, ChaosFault, ChaosScope, GateRule, GateWindow, ProcId, Rank, SimTime,
    StepId,
};

/// Gate-flood quantum for fail-open paths: large enough that no realistic
/// `need` threshold stays unmet, far from `u64::MAX` so repeated floods
/// cannot saturate into ambiguity.
const GATE_FLOOD: u64 = u64::MAX / 2;

/// End-of-stream marks a sender or writer hands the engine per resume.
/// The fan-out is one mark per consumer, thousands wide at scale, and each
/// `Send` blocks for its injection time — so a rank's whole fan-out queued
/// as ops would sit in memory for the length of the storm, on every rank
/// at once. Streaming it a chunk at a time issues the same ops in the same
/// order (the engine asks for more the moment a batch runs out, inside the
/// same event) while holding O(chunk) of them.
const EOS_CHUNK: usize = 64;

/// A wall-clock chaos duration as the same span of virtual time.
fn sim_dur(d: std::time::Duration) -> SimTime {
    SimTime::from_nanos(d.as_nanos() as u64)
}

/// One simulation rank's policy kernel, shared by its sender and writer
/// processes. `Rc<RefCell<..>>` because DES processes run on one OS
/// thread; the threaded runtime wraps the same type in `Arc<Mutex<..>>`.
type SharedProducerPolicy = Rc<RefCell<ProducerPolicy>>;

/// One analysis rank's policy kernel, owned by its receiver process (the
/// handle is shared with the harness for trace extraction).
type SharedConsumerPolicy = Rc<RefCell<ConsumerPolicy>>;

/// The policy-kernel handles of a recorded build, by rank, for
/// decision-trace extraction after the run (empty when nothing records:
/// an unrecorded build, the baseline transports).
#[derive(Default)]
pub(crate) struct ZipperPolicies {
    pub(crate) producers: Vec<SharedProducerPolicy>,
    pub(crate) consumers: Vec<SharedConsumerPolicy>,
}

impl ZipperPolicies {
    /// Every rank's recorded decisions, producers then consumers.
    pub(crate) fn decisions(&self) -> (Vec<DecisionTrace>, Vec<DecisionTrace>) {
        (
            self.producers
                .iter()
                .map(|p| p.borrow().trace().clone())
                .collect(),
            self.consumers
                .iter()
                .map(|c| c.borrow().trace().clone())
                .collect(),
        )
    }
}

/// Reconstruct the [`BlockId`] a producer buffer token encodes
/// (`token = step << 32 | idx`, stamped by [`ComputeProc`]).
fn token_block(rank: usize, token: u64) -> BlockId {
    BlockId::new(Rank(rank as u32), StepId(token >> 32), token as u32)
}

/// The compute thread of one simulation rank: per step, run the
/// application phases (+ halo), then emit the step's output as fine-grain
/// blocks into the producer buffer. With `buf = None` this is the
/// *simulation-only* baseline (compute cost incurred, no output).
struct ComputeProc {
    me: usize,
    steps: u64,
    blocks_per_step: u64,
    block_size: u64,
    slab_bytes: u64,
    phases: Option<[SimTime; 3]>,
    halo_bytes: u64,
    left: ProcId,
    right: ProcId,
    cost: AppCostModel,
    buf: Option<usize>,
    step: u64,
    emitting: bool,
    closed: bool,
}

impl ComputeProc {
    #[allow(clippy::too_many_arguments)]
    fn new(
        me: usize,
        spec: &WorkflowSpec,
        left: ProcId,
        right: ProcId,
        buf: Option<usize>,
    ) -> Self {
        ComputeProc {
            me,
            steps: spec.steps,
            blocks_per_step: spec.blocks_per_rank_step(),
            block_size: spec.block_size,
            slab_bytes: spec.bytes_per_rank_step,
            phases: spec.cost.step_phases(),
            halo_bytes: spec.cost.halo_bytes(),
            left,
            right,
            cost: spec.cost,
            buf,
            step: 0,
            emitting: false,
            closed: false,
        }
    }

    fn block_len(&self, idx: u64) -> u64 {
        if idx + 1 == self.blocks_per_step {
            self.slab_bytes - (self.blocks_per_step - 1) * self.block_size
        } else {
            self.block_size
        }
    }
}

impl Program for ComputeProc {
    fn resume(&mut self, _ctx: &mut ProcCtx<'_>) -> Step {
        if self.step == self.steps {
            if let (Some(buf), false) = (self.buf, self.closed) {
                self.closed = true;
                return Step::Ops(vec![Op::BufferClose { buf }]);
            }
            return Step::Done;
        }
        if !self.emitting {
            self.emitting = true;
            let ops = match self.phases {
                Some(p) => crate::common::step_compute_ops(
                    p,
                    crate::common::halo_ops(
                        self.me,
                        self.left,
                        self.right,
                        self.halo_bytes,
                        self.step,
                    ),
                    self.step,
                ),
                None => Vec::new(),
            };
            return Step::Ops(ops);
        }
        self.emitting = false;
        let step = self.step;
        self.step += 1;
        let mut ops = Vec::with_capacity(2 * self.blocks_per_step as usize);
        for i in 0..self.blocks_per_step {
            let len = self.block_len(i);
            let gen = self.cost.sim_block_time(len);
            if gen > SimTime::ZERO {
                ops.push(Op::Compute {
                    dur: gen,
                    kind: SpanKind::Compute,
                    step,
                });
            }
            if let Some(buf) = self.buf {
                ops.push(Op::BufferPut {
                    buf,
                    bytes: len,
                    token: (step << 32) | i,
                });
            }
        }
        Step::Ops(ops)
    }
}

/// Sender-side interpreter state of one rank's backpressure script: the
/// DES analogue of the wire-counting half of the threaded
/// [`zipper_types::SenderGate`].
struct SenderGateScript {
    /// This rank's scripted windows, in ordinal order.
    windows: Vec<GateWindow>,
    /// Index of the next window not yet reached.
    next: usize,
    /// Data wires attempted so far (the gate ordinal counter).
    wires: u64,
    /// Cumulative-steal credit gate, signalled by the writer per steal.
    gate_s: GateId,
    /// Window-arm gate, signalled here as each credit window is reached.
    gate_w: GateId,
    /// Fail-open flag shared with the writer: set when either side can no
    /// longer participate (sender drained, writer dead).
    cancelled: Rc<Cell<bool>>,
}

/// The sender thread: drain the producer buffer over the message channel,
/// asking the shared policy kernel which consumer each block goes to; when
/// the buffer closes, announce stream-EOS to every consumer the kernel
/// names (the net channel's half of the EOS protocol). With a backpressure
/// script, the sender doubles as the flow-controlled NIC model: scripted
/// data wires are held in xmit-wait until their gate opens.
struct SenderProc {
    buf: usize,
    rank: usize,
    receivers: Rc<Vec<ProcId>>,
    policy: SharedProducerPolicy,
    chaos: Rc<ChaosScope>,
    script: Option<SenderGateScript>,
    /// Concurrent-transfer shutdown interlock: the threaded sender's
    /// `writer_done.wait()`. The gate opens when the writer retires; the
    /// flag says whether it died faulted, in which case this sender covers
    /// the disk channel's EOS so consumers terminate without the watchdog.
    writer_done: Option<(GateId, Rc<Cell<bool>>)>,
    /// Destinations an injected `FailSend` killed: data sends to them are
    /// skipped (uncounted), exactly like the threaded sender's fail-soft
    /// bookkeeping. EOS marks are still attempted toward them.
    dead: Vec<bool>,
    started: bool,
    shutdown: SenderShutdown,
}

/// Where a sender is in its shutdown sequence.
enum SenderShutdown {
    /// Still draining the producer buffer.
    Draining,
    /// Streaming the message channel's SEOS marks.
    NetEos(EosTargets),
    /// Every SEOS handed over, and the wait for the writer's retirement
    /// with them (concurrent transfer only).
    WriterAwaited,
    /// The writer died unannounced: streaming its WEOS marks for it.
    DiskEos(EosTargets),
    Done,
}

impl SenderProc {
    /// Count one attempted data wire against the script and emit the gate
    /// ops of a window landing on this ordinal. The caller appends the
    /// wire's own ops *after* these, so the block is popped and routed
    /// first, then held pre-transmit — the threaded `GatedSender` order.
    fn gate_ops(&mut self, ops: &mut Vec<Op>) {
        let Some(s) = &mut self.script else { return };
        s.wires += 1;
        let Some(w) = s.windows.get(s.next) else {
            return;
        };
        if s.wires != w.wire {
            return;
        }
        let rule = w.rule;
        s.next += 1;
        match rule {
            GateRule::Hold(d) => {
                let dur = sim_dur(d);
                if dur > SimTime::ZERO {
                    ops.push(Op::Backpressure { dur });
                }
            }
            GateRule::OpenAfterSteals(target) => {
                if s.cancelled.get() {
                    return;
                }
                // Arm the window (waking the writer into its steal loop),
                // then stall until the cumulative credit target is met.
                ops.push(Op::GateSignal {
                    gate: s.gate_w,
                    n: 1,
                });
                ops.push(Op::GateWait {
                    gate: s.gate_s,
                    need: target,
                    kind: SpanKind::Stall,
                });
            }
        }
    }

    fn take(&self) -> Op {
        Op::BufferTake {
            buf: self.buf,
            // A detached sender takes nothing: an unsatisfiable occupancy
            // parks it until the buffer closes (every block drains through
            // the writer — the deterministic steal schedule).
            min_occupancy: if self.chaos.detached() { usize::MAX } else { 1 },
            kind: SpanKind::Idle,
        }
    }

    /// One chaos-counted wire send (data-carrying message or EOS mark):
    /// tick this sender's scope and emit whatever the scheduled fault
    /// implies — nothing for a drop, a corrupted frame the receiver will
    /// discard, a virtual-time delay before the real send, or the send
    /// itself.
    fn wire_ops(&mut self, ops: &mut Vec<Op>, dest: usize, bytes: u64, tag: u64, step: u64) {
        let to = self.receivers[dest];
        let send = move |tag| Op::Send {
            to,
            bytes,
            tag,
            kind: SpanKind::Send,
        };
        match self.chaos.next() {
            Some(ChaosFault::FailSend) => self.dead[dest] = true,
            Some(ChaosFault::DropWire) => {}
            Some(ChaosFault::DropEos) if tag::kind(tag) == tag::SEOS => {}
            Some(ChaosFault::CorruptWire) => {
                ops.push(send(tag::make(
                    tag::CORRUPT,
                    tag::step(tag),
                    tag::info(tag),
                )));
            }
            Some(ChaosFault::DelayWire(d)) => {
                ops.push(Op::Compute {
                    dur: sim_dur(d),
                    kind: SpanKind::Retry,
                    step,
                });
                ops.push(send(tag));
            }
            None | Some(_) => ops.push(send(tag)),
        }
    }

    /// The producer buffer closed: the next batch of the shutdown
    /// sequence — fail the window gate open, announce SEOS to every
    /// consumer the kernel names, wait for the writer to retire, and cover
    /// its WEOS if it died. The kernel decides (and records) each fan-out
    /// once, when it starts; the marks then stream [`EOS_CHUNK`] at a time.
    fn shutdown_ops(&mut self) -> Step {
        let mut ops = Vec::with_capacity(EOS_CHUNK + 2);
        loop {
            match std::mem::replace(&mut self.shutdown, SenderShutdown::Done) {
                SenderShutdown::Draining => {
                    if let Some(s) = &self.script {
                        // Windows past the last data wire can never arm:
                        // fail the writer's window wait open first.
                        s.cancelled.set(true);
                        ops.push(Op::GateSignal {
                            gate: s.gate_w,
                            n: GATE_FLOOD,
                        });
                    }
                    let targets = self.policy.borrow_mut().announce_eos(Channel::Net);
                    self.shutdown = SenderShutdown::NetEos(targets);
                }
                SenderShutdown::NetEos(mut targets) => {
                    while ops.len() < EOS_CHUNK {
                        let Some(q) = targets.next() else { break };
                        self.wire_ops(&mut ops, q.idx(), 16, tag::make(tag::SEOS, 0, 0), 0);
                    }
                    if targets.len() > 0 {
                        self.shutdown = SenderShutdown::NetEos(targets);
                        return Step::Ops(ops);
                    }
                    if let Some((gate, _)) = &self.writer_done {
                        // Hold this rank's shutdown until the writer retired
                        // (the threaded sender's `writer_done.wait()`), so a
                        // dead writer's file channel can still be closed
                        // below.
                        ops.push(Op::GateWait {
                            gate: *gate,
                            need: 1,
                            kind: SpanKind::Idle,
                        });
                    }
                    self.shutdown = SenderShutdown::WriterAwaited;
                    return Step::Ops(ops);
                }
                SenderShutdown::WriterAwaited => match self.writer_done.take() {
                    // The writer died without announcing the file channel's
                    // EOS; cover it here, as the threaded sender does after
                    // `writer_done.wait()`, so consumers terminate cleanly
                    // with no watchdog.
                    Some((_, died)) if died.get() => {
                        let targets = self.policy.borrow_mut().announce_eos(Channel::Disk);
                        self.shutdown = SenderShutdown::DiskEos(targets);
                    }
                    _ => return Step::Done,
                },
                SenderShutdown::DiskEos(mut targets) => {
                    // Plain sends: the threaded chaos wrapper does not count
                    // disk-channel marks either.
                    ops.extend(
                        targets
                            .by_ref()
                            .take(EOS_CHUNK)
                            .map(|q| weos_send(self.receivers[q.idx()])),
                    );
                    if targets.len() > 0 {
                        self.shutdown = SenderShutdown::DiskEos(targets);
                    }
                    return Step::Ops(ops);
                }
                SenderShutdown::Done => return Step::Done,
            }
        }
    }
}

/// The file channel's end-of-stream mark toward one receiver.
fn weos_send(to: ProcId) -> Op {
    Op::Send {
        to,
        bytes: 16,
        tag: tag::make(tag::WEOS, 0, 0),
        kind: SpanKind::Send,
    }
}

impl Program for SenderProc {
    fn resume(&mut self, ctx: &mut ProcCtx<'_>) -> Step {
        if !self.started {
            self.started = true;
            return Step::Ops(vec![self.take()]);
        }
        match ctx.last_take.expect("sender resumed without take result") {
            BufferTaken::Item { bytes, token } => {
                let id = token_block(self.rank, token);
                let dest = self.policy.borrow_mut().route_net(id);
                let mut ops = Vec::with_capacity(5);
                if !self.dead[dest.idx()] {
                    // Gate ordinals tick before the chaos scope consults its
                    // plan — parity with the threaded stack, where the
                    // outermost `GatedSender` sees the wire first.
                    self.gate_ops(&mut ops);
                    let tag = tag::make(tag::DATA, id.step.0, id.idx as u64);
                    self.wire_ops(&mut ops, dest.idx(), bytes, tag, id.step.0);
                }
                ops.push(self.take());
                Step::Ops(ops)
            }
            BufferTaken::Closed => self.shutdown_ops(),
        }
    }
}

/// Writer-side interpreter state of one rank's backpressure script: the
/// credit windows only (`Hold` windows never involve the writer).
struct WriterGateScript {
    /// Cumulative steal targets, one per `OpenAfterSteals` window, in
    /// script order.
    targets: Vec<u64>,
    /// Index of the current (or next) credit window.
    widx: usize,
    /// Steals credited so far (mirrors the `gate_s` count).
    steals: u64,
    /// True once the sender armed window `widx`.
    armed: bool,
    gate_s: GateId,
    gate_w: GateId,
    cancelled: Rc<Cell<bool>>,
}

/// Control state of the writer process. `last_take` persists across
/// resumes in the engine, so a writer interleaving gate waits with buffer
/// takes must know *why* it was woken — an explicit mode, not the stale
/// take result, drives each resume.
enum WriterMode {
    /// Not yet started.
    Start,
    /// Parked on `gate_w` until the sender arms the next credit window.
    AwaitWindow,
    /// Inside an armed window: steal every buffered block (occupancy ≥ 1)
    /// until the cumulative target is met.
    Stealing,
    /// Algorithm 1: steal only above the high-water mark.
    Normal,
    /// Drained: streaming the file channel's WEOS marks, then the
    /// retirement signals.
    Announcing(EosTargets),
    /// Retired (drained or dead): finish on the next resume.
    Retired,
}

/// The work-stealing writer thread (Algorithm 1): take a block only when
/// buffer occupancy strictly exceeds the high-water mark, park it on the
/// PFS, and notify the stolen block's consumer's reader with a tiny
/// disk-id message. Both the wake threshold and the destination come from
/// the shared policy kernel; when the buffer drains, the writer retires
/// and announces the disk channel's EOS to every consumer the kernel
/// names. A backpressure script overlays scripted steal windows: while one
/// is armed the writer drains the buffer regardless of the high-water
/// mark, crediting each steal to the sender's gate.
struct WriterProc {
    buf: usize,
    rank: usize,
    receivers: Rc<Vec<ProcId>>,
    policy: SharedProducerPolicy,
    chaos: Rc<ChaosScope>,
    script: Option<WriterGateScript>,
    /// Retirement interlock shared with this rank's sender: signal the
    /// gate once on any exit; set the flag when dying faulted.
    done_gate: GateId,
    died: Rc<Cell<bool>>,
    key_base: u64,
    counter: u64,
    mode: WriterMode,
}

impl WriterProc {
    fn take(&self) -> Op {
        Op::BufferTake {
            buf: self.buf,
            // Engine semantics: wake at occupancy ≥ min. The kernel's wake
            // occupancy is hwm + 1, i.e. Algorithm 1's strict
            // occupancy > threshold steal condition.
            min_occupancy: self.policy.borrow().steal_wake_occupancy(),
            kind: SpanKind::Idle,
        }
    }

    /// Pick the next phase and return the op that enters it: wait for the
    /// next credit window to arm, take inside the armed window, or the
    /// normal high-water-mark take. Windows whose cumulative target is
    /// already met pass through without steals.
    fn schedule(&mut self) -> Op {
        if let Some(s) = &mut self.script {
            if s.cancelled.get() {
                s.widx = s.targets.len();
            }
            while s.widx < s.targets.len() && s.steals >= s.targets[s.widx] {
                s.widx += 1;
                s.armed = false;
            }
            if s.widx < s.targets.len() {
                if s.armed {
                    self.mode = WriterMode::Stealing;
                    return Op::BufferTake {
                        buf: self.buf,
                        min_occupancy: 1,
                        kind: SpanKind::Idle,
                    };
                }
                self.mode = WriterMode::AwaitWindow;
                return Op::GateWait {
                    gate: s.gate_w,
                    need: (s.widx + 1) as u64,
                    kind: SpanKind::Idle,
                };
            }
        }
        self.mode = WriterMode::Normal;
        self.take()
    }

    /// The writer stops stealing, at this instant: what its sender reads
    /// from shared state — the script is cancelled, and whether the writer
    /// died — changes now, ahead of the ops [`WriterProc::retire_ops`]
    /// issues last.
    fn retire(&mut self, fatal: bool) {
        if fatal {
            self.died.set(true);
        }
        if let Some(s) = &self.script {
            s.cancelled.set(true);
        }
    }

    /// The last ops of every exit path: fail the credit gate open so a
    /// stalled sender wire is released, and open the sender's shutdown
    /// interlock.
    fn retire_ops(&mut self, ops: &mut Vec<Op>) {
        if let Some(s) = &self.script {
            ops.push(Op::GateSignal {
                gate: s.gate_s,
                n: GATE_FLOOD,
            });
        }
        ops.push(Op::GateSignal {
            gate: self.done_gate,
            n: 1,
        });
        self.mode = WriterMode::Retired;
    }

    /// The next [`EOS_CHUNK`] WEOS marks of a drained writer, followed —
    /// after the last one — by the retirement signals.
    fn announce_ops(&mut self) -> Step {
        let WriterMode::Announcing(targets) = &mut self.mode else {
            unreachable!("announce_ops outside the announcing mode");
        };
        let mut ops = Vec::with_capacity(EOS_CHUNK + 2);
        ops.extend(
            targets
                .by_ref()
                .take(EOS_CHUNK)
                .map(|q| weos_send(self.receivers[q.idx()])),
        );
        if targets.len() == 0 {
            self.retire_ops(&mut ops);
        }
        Step::Ops(ops)
    }
}

impl Program for WriterProc {
    fn resume(&mut self, ctx: &mut ProcCtx<'_>) -> Step {
        match self.mode {
            WriterMode::Retired => return Step::Done,
            WriterMode::Announcing(_) => return self.announce_ops(),
            WriterMode::Start => return Step::Ops(vec![self.schedule()]),
            WriterMode::AwaitWindow => {
                // Woken by the sender arming window `widx` (or flooding the
                // gate on close); `schedule` tells the cases apart.
                if let Some(s) = &mut self.script {
                    s.armed = true;
                }
                return Step::Ops(vec![self.schedule()]);
            }
            WriterMode::Stealing | WriterMode::Normal => {}
        }
        match ctx.last_take.expect("writer resumed without take result") {
            BufferTaken::Item { bytes, token } => {
                let id = token_block(self.rank, token);
                let dest = self.policy.borrow_mut().route_disk(id);
                if self.chaos.next() == Some(ChaosFault::PfsWriteFail) {
                    // The threaded writer's fault path, move for move: the
                    // stolen block returns to the *front* of the producer
                    // buffer (the next take re-takes and re-routes it —
                    // the double route is intentional on both substrates),
                    // the kernel records the retirement, and a revival
                    // budget buys a cooldown-delayed comeback.
                    let (revive, cooldown) = {
                        let mut p = self.policy.borrow_mut();
                        p.writer_retired(RetireReason::Fault);
                        (p.try_revive_writer(), p.recovery().writer_cooldown)
                    };
                    let mut ops = vec![Op::BufferRequeue {
                        buf: self.buf,
                        bytes,
                        token,
                    }];
                    if revive {
                        if !cooldown.is_zero() {
                            ops.push(Op::Compute {
                                dur: sim_dur(cooldown),
                                kind: SpanKind::Retry,
                                step: id.step.0,
                            });
                        }
                        // A revived writer resumes whatever phase it was
                        // in — mid-window it keeps stealing.
                        ops.push(self.schedule());
                    } else {
                        // Out of revivals: die without announcing the disk
                        // channel's EOS, exactly like the threaded writer.
                        // The retirement interlock tells this rank's sender
                        // to cover the disk channel (fail-soft shutdown,
                        // no EOS watchdog needed).
                        self.retire(true);
                        self.retire_ops(&mut ops);
                    }
                    return Step::Ops(ops);
                }
                let key = self.key_base + self.counter;
                self.counter += 1;
                let mut ops = vec![
                    Op::FsWrite { bytes, key },
                    Op::Send {
                        to: self.receivers[dest.idx()],
                        bytes: 16,
                        tag: tag::make(tag::DISKID, id.step.0, bytes.min(tag::INFO_MASK)),
                        kind: SpanKind::Send,
                    },
                ];
                if let Some(s) = &mut self.script {
                    // Credit the steal whichever phase earned it — normal
                    // steals count toward the cumulative target too, same
                    // as the threaded `SenderGate::note_steal` placement.
                    s.steals += 1;
                    ops.push(Op::GateSignal {
                        gate: s.gate_s,
                        n: 1,
                    });
                }
                ops.push(self.schedule());
                Step::Ops(ops)
            }
            BufferTaken::Closed => {
                let mut p = self.policy.borrow_mut();
                p.writer_retired(RetireReason::Drained);
                let targets = p.announce_eos(Channel::Disk);
                drop(p);
                self.retire(false);
                self.mode = WriterMode::Announcing(targets);
                self.announce_ops()
            }
        }
    }
}

/// The receiver thread: split incoming traffic into the consumer buffer
/// (data blocks), the id queue (disk notifications), and — when the policy
/// kernel says an arriving block must be preserved — the output queue.
/// End-of-stream accounting lives in the kernel's [`ConsumerPolicy`]: the
/// receiver reports each SEOS/WEOS mark (recovering the producer rank from
/// the sending process id) and closes its queues when the kernel declares
/// the stream complete.
struct ReceiverProc {
    bufc: usize,
    ids_buf: usize,
    out_buf: Option<usize>,
    policy: SharedConsumerPolicy,
    /// ProcId of simulation rank 0's compute process; senders/writers
    /// follow at fixed offsets, letting `producer_rank` invert a pid.
    compute_base: usize,
    /// Processes per simulation rank (2, or 3 with concurrent transfer).
    per_s: usize,
    /// EOS watchdog: with `Some(t)`, every receive arms a virtual-time
    /// timer; `t` without traffic reconciles the EOS tracker and shuts
    /// the rank down (the threaded receiver's `recv_timeout`).
    timeout: Option<SimTime>,
    started: bool,
    closing: bool,
}

impl ReceiverProc {
    /// Simulation rank owning the process that sent a message.
    fn producer_rank(&self, from: ProcId) -> Rank {
        let off = from
            .idx()
            .checked_sub(self.compute_base)
            .expect("message from a non-simulation process");
        Rank((off / self.per_s) as u32)
    }

    fn recv(&self) -> Op {
        let (lo, hi) = tag::any();
        match self.timeout {
            Some(timeout) => Op::RecvTimeout {
                tag_min: lo,
                tag_max: hi,
                kind: SpanKind::Idle,
                timeout,
            },
            None => Op::Recv {
                tag_min: lo,
                tag_max: hi,
                kind: SpanKind::Idle,
            },
        }
    }

    fn close_queues(&self) -> Vec<Op> {
        let mut ops = vec![Op::BufferClose { buf: self.ids_buf }];
        if let Some(out) = self.out_buf {
            ops.push(Op::BufferClose { buf: out });
        }
        ops
    }
}

impl Program for ReceiverProc {
    fn resume(&mut self, ctx: &mut ProcCtx<'_>) -> Step {
        if self.closing {
            return Step::Done;
        }
        if !self.started {
            self.started = true;
            return Step::Ops(vec![self.recv()]);
        }
        let Some(msg) = ctx.last_msg else {
            // The watchdog fired: no traffic for `virtual_eos_timeout`.
            // The kernel reconciles the EOS tracker (recording the
            // timeout decision) and the rank shuts down.
            assert!(self.timeout.is_some(), "receiver resumed without message");
            self.policy.borrow_mut().on_timeout();
            self.closing = true;
            return Step::Ops(self.close_queues());
        };
        match tag::kind(msg.tag) {
            tag::DATA => {
                let id = BlockId::new(
                    self.producer_rank(msg.from),
                    StepId(tag::step(msg.tag)),
                    tag::info(msg.tag) as u32,
                );
                let store = self.policy.borrow_mut().store_on_arrival(id);
                let mut ops = vec![Op::BufferPut {
                    buf: self.bufc,
                    bytes: msg.bytes,
                    token: id.step.0,
                }];
                if store {
                    if let Some(out) = self.out_buf {
                        ops.push(Op::BufferPut {
                            buf: out,
                            bytes: msg.bytes,
                            token: id.step.0,
                        });
                    }
                }
                ops.push(self.recv());
                Step::Ops(ops)
            }
            tag::DISKID => Step::Ops(vec![
                Op::BufferPut {
                    buf: self.ids_buf,
                    bytes: tag::info(msg.tag),
                    token: tag::step(msg.tag),
                },
                self.recv(),
            ]),
            tag::SEOS | tag::WEOS => {
                let channel = if tag::kind(msg.tag) == tag::SEOS {
                    Channel::Net
                } else {
                    Channel::Disk
                };
                let producer = self.producer_rank(msg.from);
                let done = self
                    .policy
                    .borrow_mut()
                    .note_eos(producer, channel)
                    .is_complete();
                if done {
                    self.closing = true;
                    Step::Ops(self.close_queues())
                } else {
                    Step::Ops(vec![self.recv()])
                }
            }
            // A chaos-corrupted frame: the bytes crossed the fabric but
            // the payload is garbage — discard it, as the threaded
            // receiver discards a faulted wire item.
            tag::CORRUPT => Step::Ops(vec![self.recv()]),
            other => unreachable!("receiver got unexpected tag kind {other}"),
        }
    }
}

/// The reader thread: fetch announced on-disk blocks from the PFS into the
/// consumer buffer; close the consumer buffer when done (the receiver has
/// necessarily finished by then, since it closed the id queue).
struct ReaderProc {
    ids_buf: usize,
    bufc: usize,
    key_base: u64,
    counter: u64,
    started: bool,
    closed: bool,
}

impl ReaderProc {
    fn new(ids_buf: usize, bufc: usize, rank: usize) -> Self {
        ReaderProc {
            ids_buf,
            bufc,
            key_base: 0x8000_0000_0000 | ((rank as u64) << 24),
            counter: 0,
            started: false,
            closed: false,
        }
    }

    fn take(&self) -> Op {
        Op::BufferTake {
            buf: self.ids_buf,
            min_occupancy: 1,
            kind: SpanKind::Idle,
        }
    }
}

impl Program for ReaderProc {
    fn resume(&mut self, ctx: &mut ProcCtx<'_>) -> Step {
        if !self.started {
            self.started = true;
            return Step::Ops(vec![self.take()]);
        }
        match ctx.last_take.expect("reader resumed without take result") {
            BufferTaken::Item { bytes, token } => {
                let key = self.key_base + self.counter;
                self.counter += 1;
                Step::Ops(vec![
                    Op::FsRead {
                        bytes,
                        key,
                        cached: true,
                    },
                    Op::BufferPut {
                        buf: self.bufc,
                        bytes,
                        token,
                    },
                    self.take(),
                ])
            }
            BufferTaken::Closed => {
                if self.closed {
                    return Step::Done;
                }
                self.closed = true;
                Step::Ops(vec![Op::BufferClose { buf: self.bufc }])
            }
        }
    }
}

/// The analysis thread: consume blocks in arrival order, spending the
/// cost model's analysis time per block.
struct AnalysisProc {
    bufc: usize,
    cost: AppCostModel,
    chaos: Rc<ChaosScope>,
    policy: SharedConsumerPolicy,
    /// `(bytes, token)` of every block analysed so far — the backlog a
    /// restart replays, exactly as the threaded supervisor replays the
    /// delivered log from the Preserve store.
    backlog: Vec<(u64, u64)>,
    started: bool,
}

impl AnalysisProc {
    fn take(&self) -> Op {
        Op::BufferTake {
            buf: self.bufc,
            min_occupancy: 1,
            kind: SpanKind::Idle,
        }
    }

    /// An injected [`ChaosFault::CrashApp`] struck this read call. Have
    /// the same policy-kernel conversation the threaded restart
    /// supervisor has — abandonment, then (budget permitting) a restart —
    /// and perform the replay for real: requeue the pre-crash backlog at
    /// the front of the consumer buffer (earliest first, the threaded
    /// supervisor's order) so the fresh read loop re-takes and
    /// re-analyses it, ticking the chaos scope once per re-read exactly
    /// as the threaded reader's calls do. Returns the requeue ops, or
    /// `None` when the restart budget is spent.
    fn crash(&mut self) -> Option<Vec<Op>> {
        let backlog = std::mem::take(&mut self.backlog);
        let mut p = self.policy.borrow_mut();
        p.reader_abandoned();
        if !p.may_restart() {
            return None;
        }
        p.consumer_restarted(backlog.len());
        drop(p);
        // Requeue in reverse: each op inserts at the front, so the
        // earliest delivery ends up first and the replay re-reads the
        // backlog in original order.
        Some(
            backlog
                .iter()
                .rev()
                .map(|&(bytes, token)| Op::BufferRequeue {
                    buf: self.bufc,
                    bytes,
                    token,
                })
                .collect(),
        )
    }

    fn halt(&self) -> Step {
        Step::Ops(vec![Op::Halt {
            error: format!(
                "analysis crashed on read #{} with no restart budget",
                self.chaos.ops()
            ),
        }])
    }
}

impl Program for AnalysisProc {
    fn resume(&mut self, ctx: &mut ProcCtx<'_>) -> Step {
        if !self.started {
            self.started = true;
            return Step::Ops(vec![self.take()]);
        }
        match ctx.last_take.expect("analysis resumed without take result") {
            BufferTaken::Item { bytes, token } => {
                let mut ops = Vec::new();
                if self.chaos.next() == Some(ChaosFault::CrashApp) {
                    // The threaded crash fires *before* the pop, so the
                    // current block stays queued and is re-read after the
                    // replay; this take already consumed it, so continue
                    // with it after the requeued backlog.
                    match self.crash() {
                        Some(replay) => ops = replay,
                        None => return self.halt(),
                    }
                }
                self.backlog.push((bytes, token));
                ops.push(Op::Compute {
                    dur: self.cost.analysis_block_time(bytes),
                    kind: SpanKind::Analysis,
                    step: token,
                });
                ops.push(self.take());
                Step::Ops(ops)
            }
            BufferTaken::Closed => {
                // The threaded reader's final read call (the one returning
                // `None`) ticks the scope too; mirror it so a crash
                // scheduled on that trailing ordinal behaves identically.
                if self.chaos.next() == Some(ChaosFault::CrashApp) {
                    match self.crash() {
                        Some(mut replay) => {
                            // Re-read the replayed backlog, then observe
                            // the close again.
                            replay.push(self.take());
                            return Step::Ops(replay);
                        }
                        None => return self.halt(),
                    }
                }
                Step::Done
            }
        }
    }
}

/// The output thread (Preserve mode): persist network-delivered blocks so
/// every block ends on the PFS.
struct OutputProc {
    out_buf: usize,
    chaos: Rc<ChaosScope>,
    key_base: u64,
    counter: u64,
    started: bool,
}

impl OutputProc {
    fn new(out_buf: usize, rank: usize, chaos: Rc<ChaosScope>) -> Self {
        OutputProc {
            out_buf,
            chaos,
            key_base: 0xC000_0000_0000 | ((rank as u64) << 24),
            counter: 0,
            started: false,
        }
    }

    fn take(&self) -> Op {
        Op::BufferTake {
            buf: self.out_buf,
            min_occupancy: 1,
            kind: SpanKind::Idle,
        }
    }
}

impl Program for OutputProc {
    fn resume(&mut self, ctx: &mut ProcCtx<'_>) -> Step {
        if !self.started {
            self.started = true;
            return Step::Ops(vec![self.take()]);
        }
        match ctx.last_take.expect("output resumed without take result") {
            BufferTaken::Item { bytes, .. } => {
                if self.chaos.next() == Some(ChaosFault::PfsWriteFail) {
                    // This block's Preserve copy is lost; the threaded
                    // output thread records the storage error and keeps
                    // draining, and so does this proc.
                    return Step::Ops(vec![self.take()]);
                }
                let key = self.key_base + self.counter;
                self.counter += 1;
                Step::Ops(vec![Op::FsWrite { bytes, key }, self.take()])
            }
            BufferTaken::Closed => Step::Done,
        }
    }
}

/// Spawn the full Zipper workflow into `sim`. Consumer processes are
/// spawned first (receiver, reader, analysis[, output] per rank), then the
/// simulation processes (compute, sender[, writer] per rank); ProcIds are
/// assigned sequentially by the engine, so peer ids are computed from this
/// fixed order and asserted. With `recorded`, every policy kernel records
/// its decision trace, read back through the returned handles.
pub(crate) fn build(
    sim: &mut Simulator,
    spec: &WorkflowSpec,
    layout: &ClusterLayout,
    recorded: bool,
) -> ZipperPolicies {
    spec.validate().expect("invalid spec");
    let plan = spec.chaos.clone().unwrap_or_default();
    let per_c = 3 + usize::from(spec.preserve);
    let per_s = 2 + usize::from(spec.concurrent_transfer);
    let receiver_pid = |q: usize| ProcId((q * per_c) as u32);
    let compute_base = spec.ana_ranks * per_c;
    let compute_pid = |r: usize| ProcId((compute_base + r * per_s) as u32);
    let receivers: Rc<Vec<ProcId>> = Rc::new((0..spec.ana_ranks).map(receiver_pid).collect());
    let tuning = spec.tuning();
    let mut policies = ZipperPolicies::default();

    for q in 0..spec.ana_ranks {
        let node = layout.ana_node(q);
        let bufc = sim.add_buffer(spec.consumer_slots);
        let ids = sim.add_buffer(spec.ids_queue_capacity());
        let out = spec.preserve.then(|| sim.add_buffer(spec.consumer_slots));
        // Causal queues mirror the threaded runtime's; the Preserve output
        // queue records no edge on either substrate.
        sim.record_queue(bufc);
        sim.record_queue(ids);
        // EOS is broadcast: every producer announces to every consumer,
        // so even a consumer no block routes to terminates cleanly.
        let mut cp = ConsumerPolicy::from_tuning(Rank(q as u32), spec.sim_ranks, &tuning);
        if recorded {
            cp = cp.recorded();
        }
        let policy = Rc::new(RefCell::new(cp));
        if recorded {
            policies.consumers.push(policy.clone());
        }
        let pid = sim.spawn(
            node,
            format!("ana/q{q}/recv"),
            ReceiverProc {
                bufc,
                ids_buf: ids,
                out_buf: out,
                policy: policy.clone(),
                compute_base,
                per_s,
                timeout: spec.virtual_eos_timeout,
                started: false,
                closing: false,
            },
        );
        assert_eq!(pid, receiver_pid(q), "spawn order drifted");
        sim.spawn(
            node,
            format!("ana/q{q}/read"),
            ReaderProc::new(ids, bufc, q),
        );
        sim.spawn(
            node,
            format!("ana/q{q}/ana"),
            AnalysisProc {
                bufc,
                cost: spec.cost,
                chaos: Rc::new(plan.scope(ChaosEntity::Analysis(Rank(q as u32)))),
                policy,
                backlog: Vec::new(),
                started: false,
            },
        );
        if let Some(out) = out {
            sim.spawn(
                node,
                format!("ana/q{q}/out"),
                OutputProc::new(
                    out,
                    q,
                    Rc::new(plan.scope(ChaosEntity::Output(Rank(q as u32)))),
                ),
            );
        }
    }

    for r in 0..spec.sim_ranks {
        let node = layout.sim_node(r);
        let buf = sim.add_buffer(spec.producer_slots);
        sim.record_queue(buf);
        let left = compute_pid((r + spec.sim_ranks - 1) % spec.sim_ranks);
        let right = compute_pid((r + 1) % spec.sim_ranks);
        let pid = sim.spawn(
            node,
            format!("sim/r{r}/comp"),
            ComputeProc::new(r, spec, left, right, Some(buf)),
        );
        assert_eq!(pid, compute_pid(r), "spawn order drifted");
        let mut pp = ProducerPolicy::from_tuning(Rank(r as u32), spec.ana_ranks, &tuning);
        if recorded {
            pp = pp.recorded();
        }
        let policy = Rc::new(RefCell::new(pp));
        if recorded {
            policies.producers.push(policy.clone());
        }

        // Backpressure-script gates for this rank. Without a writer there
        // is no one to earn steal credits, so in message-only mode credit
        // windows are failed open at build time (the threaded gate does
        // the same through `retire_writer` at spawn); `Hold` windows still
        // apply.
        let mut windows = spec
            .backpressure
            .as_ref()
            .map(|s| s.windows_for(Rank(r as u32)))
            .unwrap_or_default();
        if !spec.concurrent_transfer {
            windows.retain(|w| matches!(w.rule, GateRule::Hold(_)));
        }
        let (sender_script, writer_script) = if windows.is_empty() {
            (None, None)
        } else {
            let gate_s = sim.add_gate();
            let gate_w = sim.add_gate();
            let cancelled = Rc::new(Cell::new(false));
            let targets: Vec<u64> = windows
                .iter()
                .filter_map(|w| match w.rule {
                    GateRule::OpenAfterSteals(t) => Some(t),
                    GateRule::Hold(_) => None,
                })
                .collect();
            (
                Some(SenderGateScript {
                    windows,
                    next: 0,
                    wires: 0,
                    gate_s,
                    gate_w,
                    cancelled: cancelled.clone(),
                }),
                Some(WriterGateScript {
                    targets,
                    widx: 0,
                    steals: 0,
                    armed: false,
                    gate_s,
                    gate_w,
                    cancelled,
                }),
            )
        };
        // The writer-retirement interlock exists for every concurrent
        // rank, scripted or not: it is how writer death propagates to the
        // consumers (the sender covers the disk channel's EOS).
        let writer_done = spec
            .concurrent_transfer
            .then(|| (sim.add_gate(), Rc::new(Cell::new(false))));

        sim.spawn(
            node,
            format!("sim/r{r}/send"),
            SenderProc {
                buf,
                rank: r,
                receivers: receivers.clone(),
                policy: policy.clone(),
                chaos: Rc::new(plan.scope(ChaosEntity::Sender(Rank(r as u32)))),
                script: sender_script,
                writer_done: writer_done.clone(),
                dead: vec![false; spec.ana_ranks],
                started: false,
                shutdown: SenderShutdown::Draining,
            },
        );
        if let Some((done_gate, died)) = writer_done {
            sim.spawn(
                node,
                format!("sim/r{r}/writer"),
                WriterProc {
                    buf,
                    rank: r,
                    receivers: receivers.clone(),
                    policy,
                    chaos: Rc::new(plan.scope(ChaosEntity::Writer(Rank(r as u32)))),
                    script: writer_script,
                    done_gate,
                    died,
                    key_base: (r as u64) << 32,
                    counter: 0,
                    mode: WriterMode::Start,
                },
            );
        }
    }
    policies
}

/// The causal edge a consumed message of this model is, by tag kind (the
/// classifier [`Simulator::enable_causal`] takes): data blocks are
/// [`EdgeKind::Wire`](zipper_trace::EdgeKind), per-channel end-of-stream
/// marks `Eos`, the writer's disk-id notifications `Steal` (the
/// decision→fetch hop of the dual channel), and everything else — halo
/// traffic the threaded runtime has no wire for, chaos-corrupted frames
/// the receiver discarded — no edge.
pub(crate) fn message_kind(t: u64) -> Option<zipper_trace::EdgeKind> {
    use zipper_trace::EdgeKind;
    match tag::kind(t) {
        tag::DATA => Some(EdgeKind::Wire),
        tag::SEOS | tag::WEOS => Some(EdgeKind::Eos),
        tag::DISKID => Some(EdgeKind::Steal),
        _ => None,
    }
}

/// Spawn only the simulation ranks with their compute phases and halo
/// exchange — the paper's *simulation-only* lower bound (§6.3: "the time
/// spent only by the simulation program's computational kernels").
pub(crate) fn build_sim_only(sim: &mut Simulator, spec: &WorkflowSpec, layout: &ClusterLayout) {
    for r in 0..spec.sim_ranks {
        let node = layout.sim_node(r);
        let left = ProcId(((r + spec.sim_ranks - 1) % spec.sim_ranks) as u32);
        let right = ProcId(((r + 1) % spec.sim_ranks) as u32);
        let pid = sim.spawn(
            node,
            format!("sim/r{r}/comp"),
            ComputeProc::new(r, spec, left, right, None),
        );
        assert_eq!(pid, ProcId(r as u32));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::sim_config;
    use hpcsim::Simulator;
    use zipper_apps::Complexity;

    fn tiny_synthetic(concurrent: bool) -> WorkflowSpec {
        let mut s = WorkflowSpec::synthetic(
            Complexity::Linear,
            4,
            2,
            8 << 20, // 8 MiB per rank
            1 << 20,
        );
        s.ranks_per_node = 2;
        s.producer_slots = 4;
        s.high_water_mark = 2;
        s.concurrent_transfer = concurrent;
        s
    }

    fn run_spec(spec: &WorkflowSpec) -> (hpcsim::RunReport, Simulator) {
        let layout = ClusterLayout::new(spec, 0);
        let mut sim = Simulator::new(sim_config(spec, &layout));
        build(&mut sim, spec, &layout, false);
        let r = sim.run();
        (r, sim)
    }

    #[test]
    fn synthetic_workflow_completes_cleanly() {
        let spec = tiny_synthetic(true);
        let (r, sim) = run_spec(&spec);
        assert!(r.is_clean(), "{r:?}");
        // Every block is analyzed: 4 ranks × 8 blocks of analysis spans.
        let analyzed = sim
            .trace()
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Analysis)
            .count();
        assert_eq!(analyzed, 32);
    }

    #[test]
    fn message_only_mode_never_touches_pfs() {
        let spec = tiny_synthetic(false);
        let (r, sim) = run_spec(&spec);
        assert!(r.is_clean(), "{r:?}");
        assert_eq!(sim.pfs().requests(), 0);
    }

    #[test]
    fn preserve_mode_stores_every_block() {
        let mut spec = tiny_synthetic(true);
        spec.preserve = true;
        let (r, sim) = run_spec(&spec);
        assert!(r.is_clean(), "{r:?}");
        // Every one of the 32 blocks hits the PFS exactly once (writer or
        // output thread), plus any reader-side re-reads of stolen blocks.
        let writes = sim
            .trace()
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::FsWrite)
            .count();
        assert_eq!(writes, 32);
    }

    #[test]
    fn cfd_workflow_runs_and_e2e_tracks_dominant_stage() {
        let mut spec = WorkflowSpec::cfd(4, 2, 3);
        spec.ranks_per_node = 2;
        let (r, sim) = run_spec(&spec);
        assert!(r.is_clean(), "{r:?}");
        // Lower bound: 3 steps of ~0.392 s simulation.
        assert!(r.end >= SimTime::from_secs_f64(1.17), "end={}", r.end);
        // The pipeline should hide most of the analysis: comfortably under
        // the serial sum of sim + analysis + transfer.
        assert!(r.end < SimTime::from_secs_f64(3.0), "end={}", r.end);
        let _ = sim;
    }

    #[test]
    fn sim_only_is_a_lower_bound() {
        let spec = {
            let mut s = WorkflowSpec::cfd(4, 2, 3);
            s.ranks_per_node = 2;
            s
        };
        let layout = ClusterLayout::new(&spec, 0);
        let mut sim = Simulator::new(sim_config(&spec, &layout));
        build_sim_only(&mut sim, &spec, &layout);
        let sim_only = sim.run();
        assert!(sim_only.is_clean());

        let (full, _) = run_spec(&spec);
        assert!(full.end >= sim_only.end, "workflow can't beat sim-only");
    }

    #[test]
    fn round_robin_preserve_runs_on_the_des() {
        // RoundRobin + concurrent transfer + Preserve was inexpressible
        // before the policy-kernel refactor: the DES hard-wired
        // source-affine destinations into each proc.
        let mut spec = tiny_synthetic(true);
        spec.routing = zipper_types::RoutingPolicy::RoundRobin;
        spec.preserve = true;
        let layout = ClusterLayout::new(&spec, 0);
        let mut sim = Simulator::new(sim_config(&spec, &layout));
        let policies = build(&mut sim, &spec, &layout, true);
        let r = sim.run();
        assert!(r.is_clean(), "{r:?}");

        for (rank, p) in policies.producers.iter().enumerate() {
            let t = p.borrow().trace().canonical();
            // 8 blocks per producer, dealt 0,1,0,1,… over the 2 consumers
            // regardless of which channel carried each block.
            assert_eq!(t.routes.len(), 8, "producer {rank} routed all blocks");
            for (k, (_, dest, _)) in t.routes.iter().enumerate() {
                assert_eq!(dest.idx(), k % 2, "producer {rank} deal order");
            }
            // EOS broadcast: both channels × both consumers.
            assert_eq!(t.eos_announced.len(), 4);
            assert_eq!(t.retires, vec![zipper_policy::RetireReason::Drained]);
        }
        for (rank, c) in policies.consumers.iter().enumerate() {
            let t = c.borrow().trace().canonical();
            assert_eq!(
                t.eos_seen.len(),
                8,
                "consumer {rank}: 4 producers × 2 channels"
            );
            assert_eq!(t.completions, 1, "consumer {rank} completed once");
            // Preserve: every net-delivered block was ordered stored.
            assert!(t.stores.iter().all(|&(_, store)| store));
        }
    }

    fn recorded_run(spec: &WorkflowSpec) -> (hpcsim::RunReport, Simulator, ZipperPolicies) {
        let layout = ClusterLayout::new(spec, 0);
        let mut sim = Simulator::new(sim_config(spec, &layout));
        let policies = build(&mut sim, spec, &layout, true);
        let r = sim.run();
        (r, sim, policies)
    }

    #[test]
    fn chaos_writer_pfs_fault_retires_revives_and_loses_nothing() {
        use zipper_types::{ChaosPlan, RecoveryPolicy};
        // Deterministic steal schedule: senders detached, hwm = 0, so
        // every block drains through the writers in production order.
        let mut spec = tiny_synthetic(true);
        spec.preserve = true;
        spec.high_water_mark = 0;
        spec.recovery = RecoveryPolicy {
            writer_cooldown: std::time::Duration::from_millis(1),
            max_writer_revivals: 1,
            max_consumer_restarts: 0,
        };
        let mut plan =
            ChaosPlan::new().with(ChaosEntity::Writer(Rank(0)), 2, ChaosFault::PfsWriteFail);
        for r in 0..spec.sim_ranks {
            plan = plan.with(
                ChaosEntity::Sender(Rank(r as u32)),
                0,
                ChaosFault::DetachSender,
            );
        }
        spec.chaos = Some(plan);
        let (r, sim, policies) = recorded_run(&spec);
        assert!(r.is_clean(), "{r:?}");
        // Writer 0's 2nd put faulted: the block went back to the front,
        // was re-taken and re-routed (9 routes for 8 blocks), and the
        // writer revived within its budget.
        let t = policies.producers[0].borrow().trace().canonical();
        assert_eq!(t.routes.len(), 9, "double-route of the requeued block");
        assert_eq!(t.retires, vec![RetireReason::Fault, RetireReason::Drained]);
        assert_eq!(t.revivals, 1);
        // No other producer was disturbed...
        for p in &policies.producers[1..] {
            let t = p.borrow().trace().canonical();
            assert_eq!(t.routes.len(), 8);
            assert_eq!(t.retires, vec![RetireReason::Drained]);
            assert_eq!(t.revivals, 0);
        }
        // ...and every one of the 32 blocks was analysed.
        let analyzed = sim
            .trace()
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Analysis)
            .count();
        assert_eq!(analyzed, 32);
    }

    #[test]
    fn scripted_backpressure_pins_a_partial_steal_schedule() {
        // Config C's scripted schedule, on the DES alone: the high-water
        // mark is set to the full block count so Algorithm 1 never steals
        // on its own, and the script forces exactly four steals per rank —
        // wire 2 holds until 3 blocks are stolen, wire 4 until a 4th.
        let mut spec = tiny_synthetic(true);
        spec.producer_slots = 16;
        spec.high_water_mark = 8;
        spec.routing = zipper_types::RoutingPolicy::RoundRobin;
        spec.backpressure = Some(zipper_policy::conformance::config_c_script(spec.sim_ranks));
        let (r, sim, policies) = recorded_run(&spec);
        assert!(r.is_clean(), "{r:?}");
        for (rank, p) in policies.producers.iter().enumerate() {
            let t = p.borrow().trace().canonical();
            // Take order b0 b1 | b2 b3 b4 stolen | b5 b6 | b7 stolen.
            let stolen: Vec<u32> = t.steals.iter().map(|b| b.idx).collect();
            assert_eq!(stolen, vec![2, 3, 4, 7], "rank {rank} steal schedule");
            assert_eq!(t.routes.len(), 8, "rank {rank} routed every block");
            for (id, _, ch) in &t.routes {
                let want = if matches!(id.idx, 2 | 3 | 4 | 7) {
                    Channel::Disk
                } else {
                    Channel::Net
                };
                assert_eq!(*ch, want, "rank {rank} block {} channel", id.idx);
            }
            assert_eq!(t.retires, vec![RetireReason::Drained]);
            assert_eq!(t.revivals, 0);
        }
        for c in &policies.consumers {
            let t = c.borrow().trace().canonical();
            assert_eq!(t.completions, 1);
            assert_eq!(t.eos_seen.len(), 8);
        }
        // Both credit windows of every rank genuinely stalled the sender,
        // and the held time was charged as xmit-wait backpressure.
        let stalls = sim
            .trace()
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Stall)
            .count();
        assert_eq!(stalls, 2 * spec.sim_ranks, "one stall span per window");
    }

    #[test]
    fn writer_death_propagates_to_consumers_without_watchdog() {
        use zipper_types::{ChaosPlan, RecoveryPolicy};
        // Writer 0 dies on its second steal with no revival budget and the
        // EOS watchdog disabled. The retirement interlock lets rank 0's
        // sender cover the disk channel's EOS, so every consumer still
        // terminates cleanly — the threaded runtime's fail-soft path.
        let mut spec = tiny_synthetic(true);
        spec.producer_slots = 16; // dead writer leaves blocks unclaimed
        spec.high_water_mark = 0;
        spec.virtual_eos_timeout = None;
        spec.recovery = RecoveryPolicy {
            writer_cooldown: std::time::Duration::ZERO,
            max_writer_revivals: 0,
            max_consumer_restarts: 0,
        };
        let mut plan =
            ChaosPlan::new().with(ChaosEntity::Writer(Rank(0)), 2, ChaosFault::PfsWriteFail);
        for r in 0..spec.sim_ranks {
            plan = plan.with(
                ChaosEntity::Sender(Rank(r as u32)),
                0,
                ChaosFault::DetachSender,
            );
        }
        spec.chaos = Some(plan);
        let (r, sim, policies) = recorded_run(&spec);
        assert!(r.is_clean(), "{r:?}");
        let t = policies.producers[0].borrow().trace().canonical();
        assert_eq!(t.retires, vec![RetireReason::Fault], "died unrevived");
        assert_eq!(t.revivals, 0);
        // b0 stolen, b1 routed (the steal decision is recorded before the
        // PFS put faults) then requeued; with the sender detached and the
        // writer dead, b1..b7 stay in the buffer (fail-soft loss).
        assert_eq!(t.routes.len(), 2);
        assert_eq!(t.steals.len(), 2);
        for c in &policies.consumers {
            let t = c.borrow().trace().canonical();
            assert_eq!(t.completions, 1, "terminated without the watchdog");
            assert_eq!(t.timeouts, 0);
            assert_eq!(t.eos_seen.len(), 8, "4 producers x 2 channels");
        }
        // Rank 0 delivered 1 block, the other three all 8.
        let analyzed = sim
            .trace()
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Analysis)
            .count();
        assert_eq!(analyzed, 25);
    }

    #[test]
    fn chaos_crash_app_records_restart_with_replayed_backlog() {
        use zipper_types::{ChaosPlan, RecoveryPolicy};
        let mut spec = tiny_synthetic(false);
        spec.preserve = true; // parity with the threaded replay's requirement
        spec.recovery = RecoveryPolicy {
            writer_cooldown: std::time::Duration::ZERO,
            max_writer_revivals: 0,
            max_consumer_restarts: 1,
        };
        spec.chaos =
            Some(ChaosPlan::new().with(ChaosEntity::Analysis(Rank(0)), 3, ChaosFault::CrashApp));
        let (r, _, policies) = recorded_run(&spec);
        assert!(r.is_clean(), "{r:?}");
        let t = policies.consumers[0].borrow().trace().canonical();
        assert!(t.abandoned, "crash recorded");
        assert_eq!(t.restarts, vec![2], "read #3 crashed with 2 delivered");
        assert_eq!(t.completions, 1, "rank rejoined and completed");
        let t1 = policies.consumers[1].borrow().trace().canonical();
        assert!(!t1.abandoned);
        assert!(t1.restarts.is_empty());
    }

    #[test]
    fn chaos_dropped_eos_trips_the_virtual_watchdog() {
        use zipper_types::ChaosPlan;
        let mut spec = tiny_synthetic(false);
        spec.virtual_eos_timeout = Some(SimTime::from_secs_f64(1.0));
        // Sender 0: 8 data sends (ordinals 1-8), then EOS to consumer 0
        // (ordinal 9, swallowed) and consumer 1 (ordinal 10).
        spec.chaos =
            Some(ChaosPlan::new().with(ChaosEntity::Sender(Rank(0)), 9, ChaosFault::DropEos));
        let (r, _, policies) = recorded_run(&spec);
        assert!(r.is_clean(), "{r:?}");
        let t0 = policies.consumers[0].borrow().trace().canonical();
        assert_eq!(t0.eos_seen.len(), 3, "producer 0's mark was swallowed");
        assert_eq!(t0.timeouts, 1, "watchdog reconciled the tracker");
        assert_eq!(t0.completions, 0);
        let t1 = policies.consumers[1].borrow().trace().canonical();
        assert_eq!(t1.eos_seen.len(), 4);
        assert_eq!(t1.completions, 1);
        assert_eq!(t1.timeouts, 0);
    }

    #[test]
    fn chaos_fail_send_kills_destination_but_eos_still_flows() {
        use zipper_types::ChaosPlan;
        let mut spec = tiny_synthetic(false);
        // Sender 0's very first send fails: consumer 0 is dead to it from
        // then on (7 further blocks dropped, uncounted), but the EOS
        // fan-out still reaches every target, so no watchdog is needed.
        spec.chaos =
            Some(ChaosPlan::new().with(ChaosEntity::Sender(Rank(0)), 1, ChaosFault::FailSend));
        let (r, sim, policies) = recorded_run(&spec);
        assert!(r.is_clean(), "{r:?}");
        for c in &policies.consumers {
            let t = c.borrow().trace().canonical();
            assert_eq!(t.completions, 1);
            assert_eq!(t.eos_seen.len(), 4);
        }
        let analyzed = sim
            .trace()
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Analysis)
            .count();
        assert_eq!(analyzed, 24, "producer 0's 8 blocks never arrived");
    }

    /// Resume `p` on a closed buffer until it ends, checking the bound on
    /// every batch (and whatever `after_batch` checks); returns the
    /// concatenated op stream, rendered.
    fn closed_buffer_stream(p: &mut dyn Program, mut after_batch: impl FnMut()) -> Vec<String> {
        let len_fn = |_: usize| 0usize;
        let mut rng_fn = || 0u64;
        let mut ctx = ProcCtx {
            now: SimTime::ZERO,
            me: ProcId(0),
            last_msg: None,
            last_take: Some(BufferTaken::Closed),
            buffer_len: &len_fn,
            rng: &mut rng_fn,
        };
        let mut stream = Vec::new();
        while let Step::Ops(ops) = p.resume(&mut ctx) {
            assert!(ops.len() <= EOS_CHUNK + 2, "batch of {} ops", ops.len());
            after_batch();
            stream.extend(ops.iter().map(|op| format!("{op:?}")));
        }
        stream
    }

    const WIDE: usize = 1000;

    fn wide_policy() -> SharedProducerPolicy {
        Rc::new(RefCell::new(
            ProducerPolicy::new(
                Rank(0),
                WIDE,
                zipper_types::RoutingPolicy::RoundRobin,
                0,
                true,
            )
            .recorded(),
        ))
    }

    /// A sender's shutdown at Q = 1,000 streams in bounded batches, and
    /// the batches concatenate to the whole sequence, as one batch would
    /// issue it: window-gate flood first, one SEOS per consumer in rank
    /// order with chaos ordinals landing inside the fan-out (a dropped
    /// mark, a failed send), the wait for the writer last — then, the
    /// writer having died, its WEOS marks.
    #[test]
    fn sender_eos_fan_out_streams_the_same_ops_in_bounded_batches() {
        use zipper_types::ChaosPlan;
        let receivers: Rc<Vec<ProcId>> = Rc::new((0..WIDE as u32).map(ProcId).collect());
        let plan = ChaosPlan::new()
            .with(ChaosEntity::Sender(Rank(0)), 100, ChaosFault::DropEos)
            .with(ChaosEntity::Sender(Rank(0)), 500, ChaosFault::FailSend);
        let policy = wide_policy();
        let cancelled = Rc::new(Cell::new(false));
        let mut sender = SenderProc {
            buf: 0,
            rank: 0,
            receivers: receivers.clone(),
            policy: policy.clone(),
            chaos: Rc::new(plan.scope(ChaosEntity::Sender(Rank(0)))),
            script: Some(SenderGateScript {
                windows: Vec::new(),
                next: 0,
                wires: 0,
                gate_s: 0,
                gate_w: 1,
                cancelled: cancelled.clone(),
            }),
            writer_done: Some((2, Rc::new(Cell::new(true)))),
            dead: vec![false; WIDE],
            started: true,
            shutdown: SenderShutdown::Draining,
        };
        let got = closed_buffer_stream(&mut sender, || {});

        let send = |q: usize, kind| Op::Send {
            to: receivers[q],
            bytes: 16,
            tag: tag::make(kind, 0, 0),
            kind: SpanKind::Send,
        };
        let mut want = vec![Op::GateSignal {
            gate: 1,
            n: GATE_FLOOD,
        }];
        // Ordinals are 1-based: wire 100 goes to consumer 99, 500 to 499.
        want.extend(
            (0..WIDE)
                .filter(|&q| q != 99 && q != 499)
                .map(|q| send(q, tag::SEOS)),
        );
        want.push(Op::GateWait {
            gate: 2,
            need: 1,
            kind: SpanKind::Idle,
        });
        want.extend((0..WIDE).map(|q| send(q, tag::WEOS)));
        let want: Vec<String> = want.iter().map(|op| format!("{op:?}")).collect();
        assert_eq!(got, want);

        assert!(cancelled.get());
        assert!(sender.dead[499], "the failed send killed its destination");
        // The kernel recorded each fan-out once, whole.
        let t = policy.borrow().trace().canonical();
        assert_eq!(t.eos_announced.len(), 2 * WIDE);
    }

    /// A drained writer's WEOS fan-out at Q = 1,000, likewise — and what
    /// its sender reads from shared state changes with the first batch,
    /// at the instant of retirement, while the retirement signals stay
    /// last.
    #[test]
    fn writer_eos_fan_out_streams_the_same_ops_in_bounded_batches() {
        let receivers: Rc<Vec<ProcId>> = Rc::new((0..WIDE as u32).map(ProcId).collect());
        let cancelled = Rc::new(Cell::new(false));
        let mut writer = WriterProc {
            buf: 0,
            rank: 0,
            receivers: receivers.clone(),
            policy: wide_policy(),
            chaos: Rc::new(zipper_types::ChaosPlan::new().scope(ChaosEntity::Writer(Rank(0)))),
            script: Some(WriterGateScript {
                targets: Vec::new(),
                widx: 0,
                steals: 0,
                armed: false,
                gate_s: 0,
                gate_w: 1,
                cancelled: cancelled.clone(),
            }),
            done_gate: 2,
            died: Rc::new(Cell::new(false)),
            key_base: 0,
            counter: 0,
            mode: WriterMode::Normal,
        };
        let got = closed_buffer_stream(&mut writer, || {
            assert!(cancelled.get(), "the script is cancelled at retirement");
        });

        let mut want: Vec<Op> = receivers.iter().map(|&to| weos_send(to)).collect();
        want.push(Op::GateSignal {
            gate: 0,
            n: GATE_FLOOD,
        });
        want.push(Op::GateSignal { gate: 2, n: 1 });
        let want: Vec<String> = want.iter().map(|op| format!("{op:?}")).collect();
        assert_eq!(got, want);
        let t = writer.policy.borrow().trace().canonical();
        assert_eq!(t.retires, vec![RetireReason::Drained]);
        assert_eq!(t.eos_announced.len(), WIDE);
    }

    /// The probe mirrors the fabric's counters into the registry only
    /// when a sample is due, not on every event — and every sample of a
    /// Config C run still reads exactly what the fabric's own counters
    /// say just short of its boundary, where a run stopped by a horizon
    /// can look at them. Resuming from those stops changes nothing: the
    /// stepped run ends with the same report and the same series.
    #[test]
    fn telemetry_samples_are_fresh_at_every_boundary_of_config_c() {
        use zipper_trace::CounterId;
        let spec = WorkflowSpec::from_plan(&zipper_policy::conformance::config_c());
        let layout = ClusterLayout::new(&spec, 0);
        let start = || {
            let mut sim = Simulator::new(sim_config(&spec, &layout));
            sim.enable_telemetry(SimTime::from_micros(5));
            build(&mut sim, &spec, &layout, false);
            sim
        };
        let mut whole = start();
        let report = whole.run();
        assert!(report.is_clean(), "{report:?}");
        let series = whole.finish_telemetry();
        assert!(series.len() > 20, "only {} samples", series.len());

        let mut stepped = start();
        let nodes = stepped.network().config().total_nodes();
        let (last, on_boundaries) = series.points.split_last().expect("samples");
        for p in on_boundaries {
            stepped.run_until(p.t - SimTime::from_nanos(1));
            let net = stepped.network();
            assert_eq!(
                p.counter(CounterId::XmitWaitNs),
                net.xmit_wait_sum(0..nodes)
            );
            assert_eq!(p.counter(CounterId::NetBytes), net.bytes(), "at {}", p.t);
            assert_eq!(p.counter(CounterId::NetMessages), net.messages());
        }
        let resumed = stepped.run();
        assert_eq!((resumed.end, resumed.events), (report.end, report.events));
        assert_eq!(last.counter(CounterId::NetBytes), stepped.network().bytes());
        assert_eq!(stepped.finish_telemetry().points, series.points);
    }

    #[test]
    fn slow_analysis_causes_producer_stall_without_dual_channel() {
        // Make the consumer the bottleneck: tiny buffers, message-only.
        let mut spec = tiny_synthetic(false);
        spec.producer_slots = 2;
        spec.high_water_mark = 1;
        spec.consumer_slots = 2;
        let (r, sim) = run_spec(&spec);
        assert!(r.is_clean(), "{r:?}");
        let stall: u64 = sim
            .trace()
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Stall)
            .map(|s| s.duration().as_nanos())
            .sum();
        assert!(stall > 0, "expected backpressure stalls");
    }
}
