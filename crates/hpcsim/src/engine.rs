//! The discrete-event engine: interprets virtual-process ops over the
//! network, PFS, and coordination objects, recording a span trace.

use crate::network::{Network, NetworkConfig};
use crate::objects::{BufItem, BufferWake, SimBarrier, SimBuffer, SimGate, SimLock, SimSignal};
use crate::ops::{BufId, BufferTaken, MsgMeta, Op, ProcCtx, Program, Step};
use crate::queue::{Event, EventQueue};
use std::collections::VecDeque;
use zipper_pfs::{OstModel, OstModelConfig};
use zipper_trace::{
    CausalLog, CounterId, EdgeKind, GaugeId, LaneId, Probe, SampleSeries, Span, SpanKind,
    Telemetry, TraceLog, VirtualClock,
};
use zipper_types::{NodeId, ProcId, SimTime};

/// Simulator-wide configuration.
#[derive(Clone, Debug, Default)]
pub struct SimConfig {
    pub network: NetworkConfig,
    pub pfs: OstModelConfig,
    pub seed: u64,
}

/// Why a process is parked.
#[derive(Clone, Copy, Debug)]
enum Waiting {
    None,
    Recv {
        tag_min: u64,
        tag_max: u64,
        kind: SpanKind,
        since: SimTime,
    },
    Buffer {
        kind: SpanKind,
    },
    Lock {
        /// Held for the deadlock report only.
        #[allow(dead_code)]
        lock: usize,
    },
    Barrier {
        kind: SpanKind,
    },
    Signal {
        kind: SpanKind,
    },
    Gate {
        kind: SpanKind,
    },
    WaitAll {
        kind: SpanKind,
        since: SimTime,
    },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ProcState {
    Ready,
    Blocked,
    Done,
}

struct ProcSlot {
    node: NodeId,
    lane: LaneId,
    program: Box<dyn Program>,
    /// What is left of the batch the program returned last, consumed in
    /// place.
    pending: std::vec::IntoIter<Op>,
    state: ProcState,
    /// Delivered messages not yet received, with their send times.
    mailbox: VecDeque<(MsgMeta, SimTime)>,
    last_msg: Option<MsgMeta>,
    last_take: Option<BufferTaken>,
    outstanding_sends: u32,
    waiting: Waiting,
    /// Generation counter for timed receives: bumped whenever a parked
    /// `Recv` completes, so a stale `RecvTimeout` event (raced by a
    /// delivery) recognizes itself and fizzles.
    recv_gen: u64,
}

/// Outcome of a simulation run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Virtual time when the last event executed.
    pub end: SimTime,
    /// Application faults raised via [`Op::Halt`]; non-empty means the
    /// simulated job crashed (Decaf integer overflow, Flexpath segfault).
    pub faults: Vec<String>,
    /// Labels and park-reasons of processes still blocked when the event
    /// queue drained — a deadlock indicator. Empty on a clean run.
    pub deadlocked: Vec<String>,
    /// Number of events processed.
    pub events: u64,
}

impl RunReport {
    /// True when every process completed without faults or deadlock.
    pub fn is_clean(&self) -> bool {
        self.faults.is_empty() && self.deadlocked.is_empty()
    }
}

/// The simulator.
pub struct Simulator {
    now: SimTime,
    queue: EventQueue,
    procs: Vec<ProcSlot>,
    buffers: Vec<SimBuffer>,
    locks: Vec<SimLock>,
    barriers: Vec<SimBarrier>,
    signals: Vec<SimSignal>,
    gates: Vec<SimGate>,
    network: Network,
    pfs: OstModel,
    trace: TraceLog,
    /// Shared virtual clock, advanced in lock-step with `now` — lets
    /// substrate-agnostic components (recorders built over a
    /// `zipper_trace::TraceSink`) stamp spans in DES virtual time.
    clock: VirtualClock,
    rng_state: u64,
    faults: Vec<String>,
    halted: bool,
    events: u64,
    /// Safety valve against runaway programs; lowered only by tests.
    max_events: u64,
    /// Metric registry; off unless [`Simulator::enable_telemetry`] ran.
    telemetry: Telemetry,
    /// Virtual-clock sampling probe, fired on period boundaries as events
    /// execute.
    probe: Option<Probe>,
    /// Cross-entity causal edges and the model's message classifier; off
    /// unless [`Simulator::enable_causal`] ran. Consumed messages become
    /// the edges the classifier names (token = tag), queue handoffs Queue
    /// edges, PFS reads Pfs self-edges, and scripted flow-control holds
    /// Gate self-edges — the threaded runtime's taxonomy, virtual clock.
    causal: Option<(CausalLog, MessageKind)>,
    /// Token source for self-edges that have no natural identity.
    causal_seq: u64,
    /// By [`BufId`], for [`Simulator::record_queue`]'s buffers: who put
    /// each buffered item when, in the buffer's item order (a requeue's
    /// stamp goes to the front). Filled only while causal recording is on.
    queue_puts: Vec<Option<VecDeque<(LaneId, SimTime)>>>,
}

/// The causal edge a consumed message's tag names (`None`: no edge).
type MessageKind = fn(u64) -> Option<EdgeKind>;

impl Simulator {
    pub fn new(cfg: SimConfig) -> Self {
        Simulator {
            now: SimTime::ZERO,
            queue: EventQueue::default(),
            procs: Vec::new(),
            buffers: Vec::new(),
            locks: Vec::new(),
            barriers: Vec::new(),
            signals: Vec::new(),
            gates: Vec::new(),
            network: Network::new(cfg.network.clone()),
            pfs: OstModel::new(cfg.pfs.clone(), cfg.seed ^ 0xF00D),
            trace: TraceLog::new(),
            clock: VirtualClock::new(),
            rng_state: cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            faults: Vec::new(),
            halted: false,
            events: 0,
            max_events: u64::MAX,
            telemetry: Telemetry::off(),
            probe: None,
            causal: None,
            causal_seq: 0,
            queue_puts: Vec::new(),
        }
    }

    /// Turn on causal edge recording (see [`zipper_trace::CausalLog`]),
    /// with `message_kind` naming the edge a consumed message's tag is
    /// (`None`: no edge — the model owns the tag scheme). Enable before
    /// anything is scheduled (before the first `spawn`): a log started
    /// mid-run would miss the put halves of queue edges. Panics otherwise.
    pub fn enable_causal(&mut self, message_kind: fn(u64) -> Option<EdgeKind>) {
        assert!(
            self.queue.is_empty() && self.events == 0,
            "causal recording must start before anything is scheduled"
        );
        self.causal = Some((CausalLog::new(), message_kind));
    }

    /// Take the causal log out of the simulator for post-run analysis.
    pub fn take_causal(&mut self) -> Option<CausalLog> {
        self.causal.take().map(|(log, _)| log)
    }

    /// Make `buf` a causal queue: each take from it is recorded as a Queue
    /// edge from the taken item's put. Other buffers stay silent (e.g. a
    /// Preserve-mode output queue the threaded runtime does not
    /// instrument either).
    pub fn record_queue(&mut self, buf: BufId) {
        if self.queue_puts.len() <= buf {
            self.queue_puts.resize_with(buf + 1, || None);
        }
        self.queue_puts[buf] = Some(VecDeque::new());
    }

    fn next_causal_token(&mut self) -> u64 {
        self.causal_seq += 1;
        self.causal_seq
    }

    /// A message sent at `sent_at` was consumed by a receive: record the
    /// send→receive edge the model's classifier names, spanning sender
    /// injection to consumption. Token = tag.
    fn causal_wire(&mut self, to: ProcId, msg: &MsgMeta, sent_at: SimTime) {
        if let Some((c, message_kind)) = self.causal.as_mut() {
            let Some(kind) = message_kind(msg.tag) else {
                return;
            };
            let src = self.trace.lane_label(self.procs[msg.from.idx()].lane);
            let dst = self.trace.lane_label(self.procs[to.idx()].lane);
            c.edge_at(kind, src, sent_at, dst, self.now, msg.tag);
        }
    }

    /// `pid` put an item into buffer `buf` just now — at the back, or at
    /// the front for a requeue.
    fn causal_put(&mut self, buf: BufId, pid: ProcId, front: bool) {
        if self.causal.is_none() {
            return;
        }
        if let Some(Some(puts)) = self.queue_puts.get_mut(buf) {
            let stamp = (self.procs[pid.idx()].lane, self.now);
            if front {
                puts.push_front(stamp);
            } else {
                puts.push_back(stamp);
            }
        }
    }

    /// `pid` took `item` from the front of buffer `buf` just now: record
    /// the whole queue edge from the item's put.
    fn causal_take(&mut self, buf: BufId, pid: ProcId, item: BufItem) {
        let Some((c, _)) = &mut self.causal else {
            return;
        };
        let Some(Some(puts)) = self.queue_puts.get_mut(buf) else {
            return;
        };
        if let Some((src, src_t)) = puts.pop_front() {
            let src = self.trace.lane_label(src);
            let dst = self.trace.lane_label(self.procs[pid.idx()].lane);
            c.edge_at(EdgeKind::Queue, src, src_t, dst, self.now, item.token);
        }
    }

    /// A complete self-edge on `pid`'s lane (gate holds, PFS fetches).
    fn causal_self_edge(
        &mut self,
        kind: EdgeKind,
        pid: ProcId,
        t0: SimTime,
        t1: SimTime,
        token: u64,
    ) {
        if let Some((c, _)) = self.causal.as_mut() {
            let lane = self.trace.lane_label(self.procs[pid.idx()].lane);
            c.edge_at(kind, lane, t0, lane, t1, token);
        }
    }

    /// Turn on metric collection and virtual-time sampling every `period`.
    /// Whenever virtual time crosses a period boundary the probe mirrors
    /// the fabric's XmitWait/traffic counters and the aggregate buffer
    /// occupancy into the registry and snapshots it — the DES analogue of
    /// the wall-clock sampler thread.
    pub fn enable_telemetry(&mut self, period: SimTime) {
        self.telemetry = Telemetry::on();
        self.probe = Some(Probe::new(period));
    }

    /// The metric registry (off unless [`Simulator::enable_telemetry`] ran).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Stop sampling and return the virtual-time series collected so far,
    /// with a final sample at the current virtual time. Returns an empty
    /// series when telemetry was never enabled.
    pub fn finish_telemetry(&mut self) -> SampleSeries {
        self.refresh_metrics();
        match self.probe.take() {
            Some(probe) => probe.finish(self.now, &self.telemetry),
            None => SampleSeries::default(),
        }
    }

    /// Mirror externally-accumulated DES state (fabric counters, buffer
    /// occupancy) into the registry so samples see current values.
    fn refresh_metrics(&mut self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let nodes = self.network.config().total_nodes();
        self.telemetry
            .set_counter(CounterId::XmitWaitNs, self.network.xmit_wait_sum(0..nodes));
        self.telemetry
            .set_counter(CounterId::NetBytes, self.network.bytes());
        self.telemetry
            .set_counter(CounterId::NetMessages, self.network.messages());
        let depth: usize = self.buffers.iter().map(|b| b.len()).sum();
        self.telemetry
            .gauge_set(GaugeId::DesBufferDepth, depth as i64);
    }

    /// Fire the sampling probe for any period boundaries crossed up to the
    /// current virtual time. The mirrored values are plain stores and
    /// `refresh_metrics` is a sum over every node and buffer, so they are
    /// refreshed only when a sample is about to read them.
    fn poll_telemetry(&mut self) {
        if self.probe.as_ref().is_some_and(|p| p.is_due(self.now)) {
            self.refresh_metrics();
            if let Some(probe) = self.probe.as_mut() {
                probe.poll(self.now, &self.telemetry);
            }
        }
    }

    /// Disable raw-span storage in the trace (per-lane totals keep
    /// accumulating). Use for very large runs where millions of spans
    /// would dominate memory; windowed statistics and timeline rendering
    /// need raw spans and should use smaller runs.
    pub fn set_trace_detail(&mut self, keep_spans: bool) {
        self.trace.set_keep_spans(keep_spans);
    }

    /// Spawn a virtual process on `node`; it starts at virtual time zero
    /// (or at the current time if spawned mid-run).
    pub fn spawn(
        &mut self,
        node: NodeId,
        label: impl Into<String>,
        program: impl Program + 'static,
    ) -> ProcId {
        assert!(
            node.idx() < self.network.config().total_nodes(),
            "node {node:?} outside the configured cluster"
        );
        let pid = ProcId(self.procs.len() as u32);
        let lane = self.trace.lane(label);
        self.procs.push(ProcSlot {
            node,
            lane,
            program: Box::new(program),
            pending: Vec::new().into_iter(),
            state: ProcState::Ready,
            mailbox: VecDeque::new(),
            last_msg: None,
            last_take: None,
            outstanding_sends: 0,
            waiting: Waiting::None,
            recv_gen: 0,
        });
        self.push_event(self.now, Event::Resume(pid));
        pid
    }

    /// Create a bounded buffer; returns its handle.
    pub fn add_buffer(&mut self, capacity: usize) -> BufId {
        self.buffers.push(SimBuffer::new(capacity));
        self.buffers.len() - 1
    }

    /// Create a FIFO lock.
    pub fn add_lock(&mut self) -> usize {
        self.locks.push(SimLock::new());
        self.locks.len() - 1
    }

    /// Create a reusable barrier over `size` participants.
    pub fn add_barrier(&mut self, size: usize) -> usize {
        self.barriers.push(SimBarrier::new(size));
        self.barriers.len() - 1
    }

    /// Create a counting signal.
    pub fn add_signal(&mut self) -> usize {
        self.signals.push(SimSignal::new());
        self.signals.len() - 1
    }

    /// Create a monotone counting gate (scripted-backpressure windows).
    pub fn add_gate(&mut self) -> usize {
        self.gates.push(SimGate::new());
        self.gates.len() - 1
    }

    /// Pre-charge a signal with `n` tokens before the run starts — used to
    /// seed slot semaphores (e.g. DIMES' circular queue of buffer slots or
    /// Decaf's link-buffer depth).
    pub fn prime_signal(&mut self, sig: usize, n: u32) {
        let wakes = self.signals[sig].post(n);
        assert!(
            wakes.is_empty(),
            "prime_signal must run before any process waits"
        );
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// A [`VirtualClock`] that tracks the simulator's virtual time; clones
    /// share state. Build a `zipper_trace::TraceSink` over it
    /// (`TraceSink::new(mode, Arc::new(sim.clock()))`) and any
    /// substrate-agnostic component holding a `LaneRecorder` from that
    /// sink — a step assembler, a shared runtime helper — stamps its spans
    /// in DES virtual time, exactly as the threaded runtime stamps wall
    /// time. This is the DES half of the unified clock abstraction.
    pub fn clock(&self) -> VirtualClock {
        self.clock.clone()
    }

    /// The recorded trace.
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Take the trace out of the simulator (for post-run analysis without
    /// cloning).
    pub fn into_trace(self) -> TraceLog {
        self.trace
    }

    /// The fabric (for XmitWait and traffic counters).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The PFS model (for request/byte counters).
    pub fn pfs(&self) -> &OstModel {
        &self.pfs
    }

    fn push_event(&mut self, time: SimTime, event: Event) {
        self.queue.schedule(self.now, time, event);
    }

    fn record(&mut self, lane: LaneId, kind: SpanKind, t0: SimTime, t1: SimTime, step: u64) {
        if t1 > t0 {
            self.trace
                .record(Span::new(lane, kind, t0, t1).with_step(step));
        }
    }

    /// Run until the event queue drains, the horizon is reached, or a
    /// fault halts the job.
    pub fn run(&mut self) -> RunReport {
        self.run_until(SimTime::MAX)
    }

    /// Run with a virtual-time horizon: every event at or before `horizon`
    /// executes, later ones stay scheduled, so a further call picks up
    /// where this one stopped. A report carries the faults raised since
    /// the previous one.
    pub fn run_until(&mut self, horizon: SimTime) -> RunReport {
        loop {
            let Some((time, event)) = self.queue.pop(self.now, horizon) else {
                if !self.queue.is_empty() && horizon > self.now {
                    self.now = horizon;
                    self.clock.set(horizon);
                }
                break;
            };
            if time > self.now {
                self.now = time;
                self.clock.set(time);
                self.poll_telemetry();
            }
            self.events += 1;
            if self.events > self.max_events {
                self.faults
                    .push("max_events exceeded (runaway program?)".into());
                break;
            }
            match event {
                Event::Resume(pid) => self.run_proc(pid),
                Event::RecvTimeout { pid, gen } => self.fire_recv_timeout(pid, gen),
                Event::Deliver {
                    to,
                    msg,
                    sent_at,
                    completes_send,
                } => {
                    self.deliver(to, msg, sent_at);
                    if completes_send {
                        self.complete_async_send(msg.from);
                    }
                }
            }
            if self.halted {
                break;
            }
        }

        let deadlocked = self
            .procs
            .iter()
            .filter(|p| p.state == ProcState::Blocked)
            .map(|p| format!("{} ({:?})", self.trace.lane_label(p.lane), p.waiting))
            .collect();
        RunReport {
            end: self.now,
            faults: std::mem::take(&mut self.faults),
            deadlocked,
            events: self.events,
        }
    }

    /// One of `sender`'s async sends was delivered; the last one releases
    /// a parked `WaitAllSends`.
    fn complete_async_send(&mut self, sender: ProcId) {
        let s = &mut self.procs[sender.idx()];
        debug_assert!(s.outstanding_sends > 0);
        s.outstanding_sends -= 1;
        if s.outstanding_sends == 0 {
            if let Waiting::WaitAll { kind, since } = s.waiting {
                s.waiting = Waiting::None;
                s.state = ProcState::Ready;
                let lane = s.lane;
                self.record(lane, kind, since, self.now, Span::NO_STEP);
                self.push_event(self.now, Event::Resume(sender));
            }
        }
    }

    /// Deliver a message: complete `to`'s parked `Recv` if the message
    /// matches it, else leave it in the mailbox. A receive parks only when
    /// nothing in the mailbox matches, and every arrival since came
    /// through here — so the arriving message is the only candidate.
    fn deliver(&mut self, to: ProcId, msg: MsgMeta, sent_at: SimTime) {
        let slot = &mut self.procs[to.idx()];
        match slot.waiting {
            Waiting::Recv {
                tag_min,
                tag_max,
                kind,
                since,
            } if msg.tag >= tag_min && msg.tag <= tag_max => {
                slot.last_msg = Some(msg);
                slot.waiting = Waiting::None;
                slot.state = ProcState::Ready;
                slot.recv_gen += 1; // any pending timeout is now stale
                let lane = slot.lane;
                self.record(lane, kind, since, self.now, Span::NO_STEP);
                self.causal_wire(to, &msg, sent_at);
                self.push_event(self.now, Event::Resume(to));
            }
            _ => slot.mailbox.push_back((msg, sent_at)),
        }
    }

    /// A timed receive's watchdog fired. If the process is still parked on
    /// the same receive generation, wake it empty-handed
    /// (`last_msg == None`); otherwise a delivery won the race and this
    /// event is stale.
    fn fire_recv_timeout(&mut self, pid: ProcId, gen: u64) {
        let slot = &mut self.procs[pid.idx()];
        if slot.recv_gen != gen {
            return;
        }
        if let Waiting::Recv { kind, since, .. } = slot.waiting {
            slot.last_msg = None;
            slot.waiting = Waiting::None;
            slot.state = ProcState::Ready;
            slot.recv_gen += 1;
            let lane = slot.lane;
            self.record(lane, kind, since, self.now, Span::NO_STEP);
            self.push_event(self.now, Event::Resume(pid));
        }
    }

    /// Dispatch buffer wakeups produced by a state change of buffer `buf`.
    fn apply_buffer_wakes(&mut self, buf: BufId, wakes: Vec<BufferWake>) {
        for w in wakes {
            match w {
                BufferWake::Taker { proc, item, since } => {
                    let slot = &mut self.procs[proc.idx()];
                    let kind = match slot.waiting {
                        Waiting::Buffer { kind } => kind,
                        ref other => unreachable!("taker woken while {other:?}"),
                    };
                    slot.last_take = Some(BufferTaken::Item {
                        bytes: item.bytes,
                        token: item.token,
                    });
                    slot.waiting = Waiting::None;
                    slot.state = ProcState::Ready;
                    let lane = slot.lane;
                    self.record(lane, kind, since, self.now, Span::NO_STEP);
                    self.causal_take(buf, proc, item);
                    self.push_event(self.now, Event::Resume(proc));
                }
                BufferWake::TakerClosed { proc, since } => {
                    let slot = &mut self.procs[proc.idx()];
                    let kind = match slot.waiting {
                        Waiting::Buffer { kind } => kind,
                        ref other => unreachable!("taker woken while {other:?}"),
                    };
                    slot.last_take = Some(BufferTaken::Closed);
                    slot.waiting = Waiting::None;
                    slot.state = ProcState::Ready;
                    let lane = slot.lane;
                    self.record(lane, kind, since, self.now, Span::NO_STEP);
                    self.push_event(self.now, Event::Resume(proc));
                }
                BufferWake::Putter { proc, since } => {
                    let slot = &mut self.procs[proc.idx()];
                    slot.waiting = Waiting::None;
                    slot.state = ProcState::Ready;
                    let lane = slot.lane;
                    // A blocked put is the paper's producer stall. The
                    // parked item entered the buffer just now, so this is
                    // also where its queue edge starts.
                    self.record(lane, SpanKind::Stall, since, self.now, Span::NO_STEP);
                    self.causal_put(buf, proc, false);
                    self.push_event(self.now, Event::Resume(proc));
                }
            }
        }
    }

    /// Execute ops for `pid` until it blocks, finishes, or suspends on a
    /// timed op.
    fn run_proc(&mut self, pid: ProcId) {
        loop {
            let slot = &mut self.procs[pid.idx()];
            if slot.state == ProcState::Done {
                return;
            }
            let Some(op) = slot.pending.next() else {
                if !self.refill(pid) {
                    return;
                }
                continue;
            };
            if !self.exec_op(pid, op) {
                return;
            }
        }
    }

    /// Ask the program for more ops. Returns false when the process ended.
    fn refill(&mut self, pid: ProcId) -> bool {
        // The program runs in place: the context it sees borrows other
        // fields of the simulator than the process table.
        let Simulator {
            now,
            procs,
            buffers,
            rng_state,
            ..
        } = self;
        let slot = &mut procs[pid.idx()];
        let len_fn = |b: BufId| buffers[b].len();
        let mut rng_fn = || {
            let mut s = *rng_state;
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            *rng_state = s;
            s.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut ctx = ProcCtx {
            now: *now,
            me: pid,
            last_msg: slot.last_msg,
            last_take: slot.last_take,
            buffer_len: &len_fn,
            rng: &mut rng_fn,
        };
        match slot.program.resume(&mut ctx) {
            Step::Done => {
                slot.state = ProcState::Done;
                false
            }
            Step::Ops(ops) => {
                slot.pending = ops.into_iter();
                true
            }
        }
    }

    /// `pid` receives a message tagged `tag_min..=tag_max`: the first in
    /// its mailbox, or else it parks (until `timeout`, if there is one).
    /// Returns whether `pid` may go on at once.
    fn recv(
        &mut self,
        pid: ProcId,
        tag_min: u64,
        tag_max: u64,
        kind: SpanKind,
        timeout: Option<SimTime>,
    ) -> bool {
        let slot = &mut self.procs[pid.idx()];
        let tags = tag_min..=tag_max;
        if let Some(pos) = slot.mailbox.iter().position(|(m, _)| tags.contains(&m.tag)) {
            let (msg, sent_at) = slot.mailbox.remove(pos).expect("position valid");
            slot.last_msg = Some(msg);
            self.causal_wire(pid, &msg, sent_at);
            return true;
        }
        let since = self.now;
        slot.waiting = Waiting::Recv {
            tag_min,
            tag_max,
            kind,
            since,
        };
        slot.state = ProcState::Blocked;
        if let Some(timeout) = timeout {
            let gen = slot.recv_gen;
            self.push_event(since + timeout, Event::RecvTimeout { pid, gen });
        }
        false
    }

    /// Execute one op. Returns `true` when the process may continue with
    /// its next op immediately, `false` when it suspended (timed op or
    /// blocked) or finished.
    fn exec_op(&mut self, pid: ProcId, op: Op) -> bool {
        let now = self.now;
        let (node, lane) = {
            let s = &self.procs[pid.idx()];
            (s.node, s.lane)
        };
        match op {
            Op::Compute { dur, kind, step } => {
                if dur == SimTime::ZERO {
                    return true;
                }
                self.record(lane, kind, now, now + dur, step);
                self.push_event(now + dur, Event::Resume(pid));
                self.procs[pid.idx()].state = ProcState::Ready;
                false
            }
            Op::Send {
                to,
                bytes,
                tag,
                kind,
            } => {
                let to_node = self.procs[to.idx()].node;
                let flow = ((pid.0 as u64) << 32) | to.0 as u64;
                let t = self.network.transfer(now, node, to_node, bytes, flow);
                self.record(lane, kind, now, t.inject_done, Span::NO_STEP);
                self.push_event(
                    t.delivered,
                    Event::Deliver {
                        to,
                        msg: MsgMeta {
                            from: pid,
                            bytes,
                            tag,
                        },
                        sent_at: now,
                        completes_send: false,
                    },
                );
                if t.inject_done > now {
                    self.push_event(t.inject_done, Event::Resume(pid));
                    false
                } else {
                    true
                }
            }
            Op::SendAsync { to, bytes, tag } => {
                let to_node = self.procs[to.idx()].node;
                let flow = ((pid.0 as u64) << 32) | to.0 as u64;
                let t = self.network.transfer(now, node, to_node, bytes, flow);
                self.procs[pid.idx()].outstanding_sends += 1;
                self.push_event(
                    t.delivered,
                    Event::Deliver {
                        to,
                        msg: MsgMeta {
                            from: pid,
                            bytes,
                            tag,
                        },
                        sent_at: now,
                        completes_send: true,
                    },
                );
                true
            }
            Op::WaitAllSends { kind } => {
                if self.procs[pid.idx()].outstanding_sends == 0 {
                    true
                } else {
                    self.procs[pid.idx()].waiting = Waiting::WaitAll { kind, since: now };
                    self.procs[pid.idx()].state = ProcState::Blocked;
                    false
                }
            }
            Op::Recv {
                tag_min,
                tag_max,
                kind,
            } => self.recv(pid, tag_min, tag_max, kind, None),
            Op::RecvTimeout {
                tag_min,
                tag_max,
                kind,
                timeout,
            } => self.recv(pid, tag_min, tag_max, kind, Some(timeout)),
            Op::Barrier { id, kind } => match self.barriers[id].arrive(pid, now) {
                Some(members) => {
                    for (proc, since) in members {
                        if proc == pid {
                            self.record(lane, kind, since, now, Span::NO_STEP);
                            continue;
                        }
                        let slot = &mut self.procs[proc.idx()];
                        let mkind = match slot.waiting {
                            Waiting::Barrier { kind } => kind,
                            ref other => unreachable!("barrier member {other:?}"),
                        };
                        slot.waiting = Waiting::None;
                        slot.state = ProcState::Ready;
                        let mlane = slot.lane;
                        self.record(mlane, mkind, since, now, Span::NO_STEP);
                        self.push_event(now, Event::Resume(proc));
                    }
                    true
                }
                None => {
                    self.procs[pid.idx()].waiting = Waiting::Barrier { kind };
                    self.procs[pid.idx()].state = ProcState::Blocked;
                    false
                }
            },
            Op::FsWrite { bytes, key } => {
                let storage = self.network.config().storage_node_for(key);
                let t = self.network.transfer(now, node, storage, bytes, key);
                let done = self.pfs.submit(t.delivered, bytes, key);
                self.record(lane, SpanKind::FsWrite, now, done, Span::NO_STEP);
                self.push_event(done, Event::Resume(pid));
                false
            }
            Op::FsRead { bytes, key, cached } => {
                let storage = self.network.config().storage_node_for(key);
                let ready = if cached {
                    self.pfs.submit_read(now, bytes, key)
                } else {
                    self.pfs.submit(now, bytes, key)
                };
                let t = self.network.transfer(ready, storage, node, bytes, key);
                self.record(lane, SpanKind::FsRead, now, t.delivered, Span::NO_STEP);
                // The PFS store→fetch hop of the dual-channel path.
                self.causal_self_edge(EdgeKind::Pfs, pid, now, t.delivered, key);
                self.push_event(t.delivered, Event::Resume(pid));
                false
            }
            Op::Acquire { lock } => {
                if self.locks[lock].acquire(pid, now) {
                    true
                } else {
                    self.procs[pid.idx()].waiting = Waiting::Lock { lock };
                    self.procs[pid.idx()].state = ProcState::Blocked;
                    false
                }
            }
            Op::Release { lock } => {
                if let Some((next, since)) = self.locks[lock].release(pid) {
                    let slot = &mut self.procs[next.idx()];
                    slot.waiting = Waiting::None;
                    slot.state = ProcState::Ready;
                    let nlane = slot.lane;
                    self.record(nlane, SpanKind::Lock, since, now, Span::NO_STEP);
                    self.push_event(now, Event::Resume(next));
                }
                true
            }
            Op::SignalWait { sig, kind } => {
                if self.signals[sig].wait(pid, now) {
                    true
                } else {
                    self.procs[pid.idx()].waiting = Waiting::Signal { kind };
                    self.procs[pid.idx()].state = ProcState::Blocked;
                    false
                }
            }
            Op::SignalPost { sig, n } => {
                let wakes = self.signals[sig].post(n);
                for (proc, since) in wakes {
                    let slot = &mut self.procs[proc.idx()];
                    let kind = match slot.waiting {
                        Waiting::Signal { kind } => kind,
                        ref other => unreachable!("signal waiter {other:?}"),
                    };
                    slot.waiting = Waiting::None;
                    slot.state = ProcState::Ready;
                    let wlane = slot.lane;
                    self.record(wlane, kind, since, now, Span::NO_STEP);
                    self.push_event(now, Event::Resume(proc));
                }
                true
            }
            Op::GateWait { gate, need, kind } => {
                if self.gates[gate].wait(pid, need, now) {
                    true
                } else {
                    self.procs[pid.idx()].waiting = Waiting::Gate { kind };
                    self.procs[pid.idx()].state = ProcState::Blocked;
                    false
                }
            }
            Op::GateSignal { gate, n } => {
                let wakes = self.gates[gate].signal(n);
                for (proc, since) in wakes {
                    let slot = &mut self.procs[proc.idx()];
                    let kind = match slot.waiting {
                        Waiting::Gate { kind } => kind,
                        ref other => unreachable!("gate waiter {other:?}"),
                    };
                    slot.waiting = Waiting::None;
                    slot.state = ProcState::Ready;
                    let wlane = slot.lane;
                    let wnode = slot.node;
                    self.record(wlane, kind, since, now, Span::NO_STEP);
                    if kind == SpanKind::Stall {
                        // A Stall-kind gate wait is scripted NIC flow
                        // control: the held span is backpressure, visible
                        // through the same counters real congestion feeds.
                        let ns = now.saturating_sub(since).as_nanos();
                        self.telemetry.add(CounterId::NetBackpressureNs, ns);
                        self.network.charge_xmit_wait(wnode, ns);
                        if now > since {
                            let tok = self.next_causal_token();
                            self.causal_self_edge(EdgeKind::Gate, proc, since, now, tok);
                        }
                    }
                    self.push_event(now, Event::Resume(proc));
                }
                true
            }
            Op::Backpressure { dur } => {
                if dur == SimTime::ZERO {
                    return true;
                }
                self.record(lane, SpanKind::Stall, now, now + dur, Span::NO_STEP);
                self.telemetry
                    .add(CounterId::NetBackpressureNs, dur.as_nanos());
                self.network.charge_xmit_wait(node, dur.as_nanos());
                let tok = self.next_causal_token();
                self.causal_self_edge(EdgeKind::Gate, pid, now, now + dur, tok);
                self.push_event(now + dur, Event::Resume(pid));
                self.procs[pid.idx()].state = ProcState::Ready;
                false
            }
            Op::BufferPut { buf, bytes, token } => {
                match self.buffers[buf].put(pid, BufItem { bytes, token }, now) {
                    Some(wakes) => {
                        self.causal_put(buf, pid, false);
                        self.apply_buffer_wakes(buf, wakes);
                        true
                    }
                    None => {
                        self.procs[pid.idx()].waiting = Waiting::Buffer {
                            kind: SpanKind::Stall,
                        };
                        self.procs[pid.idx()].state = ProcState::Blocked;
                        false
                    }
                }
            }
            Op::BufferTake {
                buf,
                min_occupancy,
                kind,
            } => match self.buffers[buf].take(pid, min_occupancy, now) {
                Ok((item, wakes)) => {
                    if let Some(i) = item {
                        self.causal_take(buf, pid, i);
                    }
                    self.procs[pid.idx()].last_take = Some(match item {
                        Some(i) => BufferTaken::Item {
                            bytes: i.bytes,
                            token: i.token,
                        },
                        None => BufferTaken::Closed,
                    });
                    self.apply_buffer_wakes(buf, wakes);
                    true
                }
                Err(()) => {
                    self.procs[pid.idx()].waiting = Waiting::Buffer { kind };
                    self.procs[pid.idx()].state = ProcState::Blocked;
                    false
                }
            },
            Op::BufferClose { buf } => {
                let wakes = self.buffers[buf].close();
                self.apply_buffer_wakes(buf, wakes);
                true
            }
            Op::BufferRequeue { buf, bytes, token } => {
                let wakes = self.buffers[buf].requeue(BufItem { bytes, token });
                self.causal_put(buf, pid, true);
                self.apply_buffer_wakes(buf, wakes);
                true
            }
            Op::Halt { error } => {
                self.faults.push(error);
                self.procs[pid.idx()].state = ProcState::Done;
                self.halted = true;
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::RunOnce;

    fn small_sim() -> Simulator {
        let cfg = SimConfig {
            network: NetworkConfig {
                compute_nodes: 4,
                storage_nodes: 1,
                nodes_per_leaf: 2,
                nic_bw: 1e9,
                uplink_bw: 2e9,
                leaf_uplinks: 2,
                link_latency: SimTime::from_micros(1),
                mem_bw: 10e9,
                per_msg_overhead: SimTime::ZERO,
            },
            pfs: OstModelConfig {
                n_osts: 2,
                ost_bandwidth: 1e9,
                op_latency: SimTime::ZERO,
                stripe_size: zipper_types::ByteSize::mib(1),
                background_load: 0.0,
                background_jitter: 0.0,
                read_bandwidth_factor: 1.0,
            },
            seed: 7,
        };
        Simulator::new(cfg)
    }

    #[test]
    fn compute_advances_time_and_traces() {
        let mut sim = small_sim();
        sim.spawn(
            NodeId(0),
            "p0",
            RunOnce::new(vec![Op::Compute {
                dur: SimTime::from_millis(5),
                kind: SpanKind::Compute,
                step: 0,
            }]),
        );
        let r = sim.run();
        assert!(r.is_clean());
        assert_eq!(r.end, SimTime::from_millis(5));
        assert_eq!(sim.trace().spans().len(), 1);
    }

    #[test]
    fn send_recv_round_trip() {
        let mut sim = small_sim();
        let receiver = {
            let mut done = false;
            move |ctx: &mut ProcCtx<'_>| {
                if done {
                    assert_eq!(ctx.last_msg.unwrap().bytes, 1_000_000);
                    assert_eq!(ctx.last_msg.unwrap().tag, 42);
                    return Step::Done;
                }
                done = true;
                Step::Ops(vec![Op::Recv {
                    tag_min: 42,
                    tag_max: 42,
                    kind: SpanKind::Recv,
                }])
            }
        };
        // Spawn receiver first so its ProcId is 0.
        sim.spawn(NodeId(1), "recv", receiver);
        sim.spawn(
            NodeId(0),
            "send",
            RunOnce::new(vec![Op::Send {
                to: ProcId(0),
                bytes: 1_000_000,
                tag: 42,
                kind: SpanKind::Send,
            }]),
        );
        let r = sim.run();
        assert!(r.is_clean(), "{r:?}");
        // 1 MB over two 1 GB/s NICs + 1 µs = ≥ 2 ms.
        assert!(r.end >= SimTime::from_millis(2));
    }

    #[test]
    fn recv_before_send_parks_and_wakes() {
        let mut sim = small_sim();
        let mut phase = 0;
        let receiver = move |ctx: &mut ProcCtx<'_>| {
            phase += 1;
            match phase {
                1 => Step::Ops(vec![Op::Recv {
                    tag_min: 0,
                    tag_max: u64::MAX,
                    kind: SpanKind::Recv,
                }]),
                _ => {
                    assert!(ctx.last_msg.is_some());
                    Step::Done
                }
            }
        };
        sim.spawn(NodeId(0), "recv", receiver);
        sim.spawn(
            NodeId(1),
            "send",
            RunOnce::new(vec![
                Op::Compute {
                    dur: SimTime::from_millis(3),
                    kind: SpanKind::Compute,
                    step: 0,
                },
                Op::Send {
                    to: ProcId(0),
                    bytes: 1000,
                    tag: 1,
                    kind: SpanKind::Send,
                },
            ]),
        );
        let r = sim.run();
        assert!(r.is_clean());
        // Receiver waited ≥ 3 ms; a Recv span was recorded.
        let recv_time: u64 = sim
            .trace()
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Recv)
            .map(|s| s.duration().as_nanos())
            .sum();
        assert!(recv_time >= SimTime::from_millis(3).as_nanos());
    }

    #[test]
    fn buffer_backpressure_stalls_producer() {
        let mut sim = small_sim();
        let buf = sim.add_buffer(2);
        // Producer pushes 5 items instantly; consumer takes one per ms.
        sim.spawn(
            NodeId(0),
            "producer",
            RunOnce::new(
                (0..5)
                    .map(|i| Op::BufferPut {
                        buf,
                        bytes: 100,
                        token: i,
                    })
                    .chain([Op::BufferClose { buf }])
                    .collect(),
            ),
        );
        let mut taken = Vec::new();
        let mut started = false;
        let consumer = move |ctx: &mut ProcCtx<'_>| {
            if started {
                match ctx.last_take {
                    Some(BufferTaken::Item { token, .. }) => taken.push(token),
                    Some(BufferTaken::Closed) => return Step::Done,
                    None => unreachable!(),
                }
            }
            started = true;
            Step::Ops(vec![
                Op::Compute {
                    dur: SimTime::from_millis(1),
                    kind: SpanKind::Analysis,
                    step: 0,
                },
                Op::BufferTake {
                    buf,
                    min_occupancy: 1,
                    kind: SpanKind::Idle,
                },
            ])
        };
        sim.spawn(NodeId(1), "consumer", consumer);
        let r = sim.run();
        assert!(r.is_clean(), "{r:?}");
        // Producer must have stalled (buffer capacity 2 < 5 items).
        let stall: u64 = sim
            .trace()
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Stall)
            .map(|s| s.duration().as_nanos())
            .sum();
        assert!(stall > 0, "expected producer stall");
        // Every item went through: the closed buffer is empty.
        assert!(sim.buffers[buf].is_empty() && sim.buffers[buf].is_closed());
    }

    #[test]
    fn barrier_synchronizes_members() {
        let mut sim = small_sim();
        let bar = sim.add_barrier(3);
        for i in 0..3u64 {
            sim.spawn(
                NodeId((i % 4) as u32),
                format!("p{i}"),
                RunOnce::new(vec![
                    Op::Compute {
                        dur: SimTime::from_millis(i + 1),
                        kind: SpanKind::Compute,
                        step: 0,
                    },
                    Op::Barrier {
                        id: bar,
                        kind: SpanKind::Barrier,
                    },
                    Op::Compute {
                        dur: SimTime::from_millis(1),
                        kind: SpanKind::Compute,
                        step: 1,
                    },
                ]),
            );
        }
        let r = sim.run();
        assert!(r.is_clean());
        // All finish 1 ms after the slowest (3 ms) reaches the barrier.
        assert_eq!(r.end, SimTime::from_millis(4));
        // Barrier wait recorded for the early arrivals: 2 ms + 1 ms.
        let wait: u64 = sim
            .trace()
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Barrier)
            .map(|s| s.duration().as_nanos())
            .sum();
        assert_eq!(wait, SimTime::from_millis(3).as_nanos());
    }

    #[test]
    fn lock_serializes_critical_sections() {
        let mut sim = small_sim();
        let lock = sim.add_lock();
        for i in 0..2u32 {
            sim.spawn(
                NodeId(i),
                format!("p{i}"),
                RunOnce::new(vec![
                    Op::Acquire { lock },
                    Op::Compute {
                        dur: SimTime::from_millis(10),
                        kind: SpanKind::Compute,
                        step: 0,
                    },
                    Op::Release { lock },
                ]),
            );
        }
        let r = sim.run();
        assert!(r.is_clean());
        assert_eq!(r.end, SimTime::from_millis(20));
        let lock_wait: u64 = sim
            .trace()
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Lock)
            .map(|s| s.duration().as_nanos())
            .sum();
        assert_eq!(lock_wait, SimTime::from_millis(10).as_nanos());
    }

    #[test]
    fn waitall_blocks_until_async_sends_deliver() {
        let mut sim = small_sim();
        let mut done = false;
        let sink = move |_ctx: &mut ProcCtx<'_>| {
            if done {
                return Step::Done;
            }
            done = true;
            Step::Ops(vec![
                Op::Recv {
                    tag_min: 0,
                    tag_max: u64::MAX,
                    kind: SpanKind::Recv,
                },
                Op::Recv {
                    tag_min: 0,
                    tag_max: u64::MAX,
                    kind: SpanKind::Recv,
                },
            ])
        };
        sim.spawn(NodeId(2), "sink", sink);
        sim.spawn(
            NodeId(0),
            "decaf-put",
            RunOnce::new(vec![
                Op::SendAsync {
                    to: ProcId(0),
                    bytes: 2_000_000,
                    tag: 1,
                },
                Op::SendAsync {
                    to: ProcId(0),
                    bytes: 2_000_000,
                    tag: 2,
                },
                Op::WaitAllSends {
                    kind: SpanKind::Waitall,
                },
            ]),
        );
        let r = sim.run();
        assert!(r.is_clean(), "{r:?}");
        let waitall: u64 = sim
            .trace()
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Waitall)
            .map(|s| s.duration().as_nanos())
            .sum();
        // 4 MB through a 1 GB/s NIC ≈ 4 ms of waitall.
        assert!(waitall >= SimTime::from_millis(3).as_nanos());
    }

    #[test]
    fn fs_write_crosses_fabric_and_drains_ost() {
        let mut sim = small_sim();
        sim.spawn(
            NodeId(0),
            "writer",
            RunOnce::new(vec![Op::FsWrite {
                bytes: 4_000_000,
                key: 0,
            }]),
        );
        let r = sim.run();
        assert!(r.is_clean());
        // 4 MB: ≥ 4 ms NIC injection + OST drain.
        assert!(r.end >= SimTime::from_millis(7), "end={}", r.end);
        assert_eq!(sim.pfs().requests(), 1);
        assert_eq!(sim.pfs().bytes_moved(), 4_000_000);
    }

    #[test]
    fn halt_reports_fault_and_stops() {
        let mut sim = small_sim();
        sim.spawn(
            NodeId(0),
            "crasher",
            RunOnce::new(vec![Op::Halt {
                error: "integer overflow in Decaf redistribution".into(),
            }]),
        );
        sim.spawn(
            NodeId(1),
            "other",
            RunOnce::new(vec![Op::Compute {
                dur: SimTime::from_millis(100),
                kind: SpanKind::Compute,
                step: 0,
            }]),
        );
        let r = sim.run();
        assert_eq!(r.faults.len(), 1);
        assert!(!r.is_clean());
        assert!(r.end < SimTime::from_millis(100));
    }

    #[test]
    fn deadlock_is_reported_not_hung() {
        let mut sim = small_sim();
        let buf = sim.add_buffer(1);
        sim.spawn(
            NodeId(0),
            "starved",
            RunOnce::new(vec![Op::BufferTake {
                buf,
                min_occupancy: 1,
                kind: SpanKind::Idle,
            }]),
        );
        let r = sim.run();
        assert_eq!(r.deadlocked.len(), 1);
        assert!(r.deadlocked[0].contains("starved"));
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut sim = small_sim();
        sim.spawn(
            NodeId(0),
            "long",
            RunOnce::new(
                (0..10)
                    .map(|i| Op::Compute {
                        dur: SimTime::from_millis(10),
                        kind: SpanKind::Compute,
                        step: i,
                    })
                    .collect(),
            ),
        );
        let r = sim.run_until(SimTime::from_millis(35));
        assert!(r.end <= SimTime::from_millis(40));
        assert!(r.events < 10);
    }

    /// A run stopped at a horizon and resumed is the same run: no event is
    /// lost at the stop, whether it falls between ticks, on a tick with
    /// several events (the ping-pong's deliveries and resumes share
    /// ticks), or past the end.
    #[test]
    fn run_until_then_run_equals_one_run() {
        fn pingpong() -> Simulator {
            let mut sim = small_sim();
            let recv = Op::Recv {
                tag_min: 0,
                tag_max: u64::MAX,
                kind: SpanKind::Recv,
            };
            let send = |to| Op::Send {
                to: ProcId(to),
                bytes: 100_000,
                tag: 1,
                kind: SpanKind::Send,
            };
            for (me, first) in [(0u32, true), (1, false)] {
                let mut left = 20;
                let recv = recv.clone();
                sim.spawn(NodeId(me), format!("p{me}"), move |_: &mut ProcCtx<'_>| {
                    if left == 0 {
                        return Step::Done;
                    }
                    left -= 1;
                    let compute = Op::Compute {
                        dur: SimTime::from_micros(50),
                        kind: SpanKind::Compute,
                        step: left,
                    };
                    Step::Ops(if first {
                        vec![send(1 - me), recv.clone(), compute]
                    } else {
                        vec![recv.clone(), compute, send(1 - me)]
                    })
                });
            }
            sim
        }
        let totals = |sim: &Simulator| {
            let t = sim.trace();
            t.lanes()
                .map(|l| format!("{:?}", t.lane_totals(l)))
                .collect::<Vec<_>>()
        };
        let mut whole = pingpong();
        let want = whole.run();
        assert!(want.is_clean(), "{want:?}");
        assert!(want.events > 100);

        let mid = SimTime::from_nanos(want.end.as_nanos() / 2);
        for horizon in [SimTime::ZERO, mid, want.end, want.end + mid] {
            let mut sim = pingpong();
            let first = sim.run_until(horizon);
            assert!(first.end <= horizon.max(want.end));
            assert!(first.events <= want.events);
            let got = sim.run_until(SimTime::MAX);
            assert_eq!(
                (got.end, got.events, got.is_clean()),
                (want.end, want.events, true),
                "stopped at {horizon}"
            );
            assert_eq!(totals(&sim), totals(&whole), "stopped at {horizon}");
        }
    }

    #[test]
    fn max_events_guard_trips_on_runaway_programs() {
        let mut sim = small_sim();
        sim.max_events = 50;
        // A program that never finishes.
        sim.spawn(NodeId(0), "spin", |_ctx: &mut ProcCtx<'_>| {
            Step::Ops(vec![Op::Compute {
                dur: SimTime::from_nanos(1),
                kind: SpanKind::Compute,
                step: 0,
            }])
        });
        let r = sim.run();
        assert!(!r.is_clean());
        assert!(r.faults[0].contains("max_events"));
    }

    #[test]
    fn primed_signal_tokens_are_consumed_before_waiting() {
        let mut sim = small_sim();
        let sig = sim.add_signal();
        sim.prime_signal(sig, 2);
        sim.spawn(
            NodeId(0),
            "taker",
            RunOnce::new(vec![
                Op::SignalWait {
                    sig,
                    kind: SpanKind::Idle,
                },
                Op::SignalWait {
                    sig,
                    kind: SpanKind::Idle,
                },
            ]),
        );
        let r = sim.run();
        assert!(r.is_clean(), "{r:?}");
        assert_eq!(r.end, SimTime::ZERO);
        // A third wait would deadlock:
        let mut sim2 = small_sim();
        let sig2 = sim2.add_signal();
        sim2.prime_signal(sig2, 1);
        sim2.spawn(
            NodeId(0),
            "starver",
            RunOnce::new(vec![
                Op::SignalWait {
                    sig: sig2,
                    kind: SpanKind::Idle,
                },
                Op::SignalWait {
                    sig: sig2,
                    kind: SpanKind::Idle,
                },
            ]),
        );
        let r2 = sim2.run();
        assert_eq!(r2.deadlocked.len(), 1);
    }

    #[test]
    fn cold_reads_queue_behind_writes_cached_reads_do_not() {
        let read_time = |cached: bool| {
            let mut sim = small_sim();
            sim.spawn(
                NodeId(0),
                "w",
                RunOnce::new(vec![Op::FsWrite {
                    bytes: 64 << 20,
                    key: 0,
                }]),
            );
            sim.spawn(
                NodeId(1),
                "r",
                RunOnce::new(vec![Op::FsRead {
                    bytes: 1 << 20,
                    key: 0,
                    cached,
                }]),
            );
            sim.run();
            sim.trace()
                .spans()
                .iter()
                .filter(|s| s.kind == SpanKind::FsRead)
                .map(|s| s.duration().as_nanos())
                .sum::<u64>()
        };
        assert!(
            read_time(true) < read_time(false),
            "cache-served read must not wait behind the disk backlog"
        );
    }

    #[test]
    fn shared_virtual_clock_tracks_sim_time() {
        use std::sync::Arc;
        use zipper_trace::{Clock, TraceMode, TraceSink};
        let mut sim = small_sim();
        // A sink over the simulator's clock: substrate-agnostic recorders
        // stamp spans in DES virtual time.
        let sink = TraceSink::new(TraceMode::Full, Arc::new(sim.clock()));
        assert_eq!(sink.now(), SimTime::ZERO);
        sim.spawn(
            NodeId(0),
            "p0",
            RunOnce::new(vec![Op::Compute {
                dur: SimTime::from_millis(5),
                kind: SpanKind::Compute,
                step: 0,
            }]),
        );
        let r = sim.run();
        assert!(r.is_clean());
        assert_eq!(sim.clock().now(), r.end);
        let mut rec = sink.recorder("external/asm");
        let t1 = rec.now();
        assert_eq!(t1, r.end, "recorder reads the advanced virtual time");
        rec.record(SpanKind::Analysis, SimTime::ZERO, t1);
        drop(rec);
        let log = sink.snapshot();
        assert_eq!(log.spans().len(), 1);
        assert_eq!(log.spans()[0].t1, SimTime::from_millis(5));
    }

    #[test]
    fn telemetry_probe_samples_on_the_virtual_clock() {
        use zipper_trace::{CounterId, GaugeId};
        let mut sim = small_sim();
        sim.enable_telemetry(SimTime::from_millis(1));
        let mut done = false;
        let sink = move |_ctx: &mut ProcCtx<'_>| {
            if done {
                return Step::Done;
            }
            done = true;
            Step::Ops(vec![Op::Recv {
                tag_min: 0,
                tag_max: u64::MAX,
                kind: SpanKind::Recv,
            }])
        };
        sim.spawn(NodeId(1), "recv", sink);
        sim.spawn(
            NodeId(0),
            "send",
            RunOnce::new(vec![
                Op::Compute {
                    dur: SimTime::from_millis(3),
                    kind: SpanKind::Compute,
                    step: 0,
                },
                Op::Send {
                    to: ProcId(0),
                    bytes: 4_000_000,
                    tag: 1,
                    kind: SpanKind::Send,
                },
            ]),
        );
        let r = sim.run();
        assert!(r.is_clean(), "{r:?}");
        let series = sim.finish_telemetry();
        assert!(series.is_monotone());
        assert!(!series.is_empty());
        // Virtual timestamps land exactly on period boundaries (the
        // closing sample stamps the end time instead).
        for p in &series.points[..series.len() - 1] {
            assert_eq!(p.t.as_nanos() % SimTime::from_millis(1).as_nanos(), 0);
        }
        let last = series.points.last().unwrap();
        assert_eq!(last.counter(CounterId::NetBytes), 4_000_000);
        assert_eq!(last.counter(CounterId::NetMessages), 1);
        assert_eq!(last.gauge(GaugeId::DesBufferDepth), 0);
        // The registry totals match the fabric's own counters.
        let snap = sim.telemetry().snapshot();
        assert_eq!(snap.counter(CounterId::NetBytes), sim.network().bytes());
    }

    #[test]
    fn recv_timeout_wakes_empty_handed() {
        let mut sim = small_sim();
        let mut phase = 0;
        let receiver = move |ctx: &mut ProcCtx<'_>| {
            phase += 1;
            match phase {
                1 => Step::Ops(vec![Op::RecvTimeout {
                    tag_min: 0,
                    tag_max: u64::MAX,
                    kind: SpanKind::Recv,
                    timeout: SimTime::from_millis(10),
                }]),
                _ => {
                    assert!(ctx.last_msg.is_none(), "timeout leaves no message");
                    assert_eq!(ctx.now, SimTime::from_millis(10));
                    Step::Done
                }
            }
        };
        sim.spawn(NodeId(0), "recv", receiver);
        let r = sim.run();
        assert!(r.is_clean(), "{r:?}");
        assert_eq!(r.end, SimTime::from_millis(10));
    }

    #[test]
    fn delivery_beats_recv_timeout_and_stale_timer_fizzles() {
        let mut sim = small_sim();
        let mut phase = 0;
        let receiver = move |ctx: &mut ProcCtx<'_>| {
            phase += 1;
            match phase {
                1 => Step::Ops(vec![Op::RecvTimeout {
                    tag_min: 1,
                    tag_max: 1,
                    kind: SpanKind::Recv,
                    timeout: SimTime::from_millis(50),
                }]),
                2 => {
                    assert!(ctx.last_msg.is_some(), "message won the race");
                    // Park again, plainly, well past the stale timer's
                    // firing time: the gen check must keep it parked.
                    Step::Ops(vec![Op::Recv {
                        tag_min: 2,
                        tag_max: 2,
                        kind: SpanKind::Recv,
                    }])
                }
                _ => {
                    assert_eq!(ctx.last_msg.unwrap().tag, 2);
                    Step::Done
                }
            }
        };
        sim.spawn(NodeId(0), "recv", receiver);
        sim.spawn(
            NodeId(1),
            "send",
            RunOnce::new(vec![
                Op::Send {
                    to: ProcId(0),
                    bytes: 100,
                    tag: 1,
                    kind: SpanKind::Send,
                },
                Op::Compute {
                    dur: SimTime::from_millis(200),
                    kind: SpanKind::Compute,
                    step: 0,
                },
                Op::Send {
                    to: ProcId(0),
                    bytes: 100,
                    tag: 2,
                    kind: SpanKind::Send,
                },
            ]),
        );
        let r = sim.run();
        assert!(r.is_clean(), "{r:?}");
        assert!(r.end >= SimTime::from_millis(200));
    }

    #[test]
    fn buffer_requeue_op_lands_in_closed_buffer() {
        let mut sim = small_sim();
        let buf = sim.add_buffer(2);
        let mut tokens = Vec::new();
        let mut phase = 0;
        let consumer = move |ctx: &mut ProcCtx<'_>| {
            phase += 1;
            if phase > 1 {
                match ctx.last_take {
                    Some(BufferTaken::Item { token, .. }) => tokens.push(token),
                    Some(BufferTaken::Closed) => {
                        assert_eq!(tokens, vec![7], "requeued item drained");
                        return Step::Done;
                    }
                    None => unreachable!(),
                }
            }
            let mut ops = Vec::new();
            if phase == 1 {
                // Start taking only after the replayer closed + requeued.
                ops.push(Op::Compute {
                    dur: SimTime::from_millis(1),
                    kind: SpanKind::Compute,
                    step: 0,
                });
            }
            ops.push(Op::BufferTake {
                buf,
                min_occupancy: 1,
                kind: SpanKind::Idle,
            });
            Step::Ops(ops)
        };
        sim.spawn(NodeId(0), "consumer", consumer);
        sim.spawn(
            NodeId(1),
            "replayer",
            RunOnce::new(vec![
                Op::BufferClose { buf },
                Op::BufferRequeue {
                    buf,
                    bytes: 100,
                    token: 7,
                },
            ]),
        );
        let r = sim.run();
        assert!(r.is_clean(), "{r:?}");
    }

    /// A wire edge runs from the send to the receive, whether the message
    /// waited behind another in flight, in the mailbox, or neither.
    #[test]
    fn a_wire_edge_starts_at_its_send_after_the_mailbox() {
        let mut sim = small_sim();
        sim.enable_causal(|_| Some(EdgeKind::Wire));
        let send = |tag| Op::SendAsync {
            to: ProcId(1),
            bytes: 1000,
            tag,
        };
        let wait = |ms| Op::Compute {
            dur: SimTime::from_millis(ms),
            kind: SpanKind::Compute,
            step: 0,
        };
        let recv = Op::Recv {
            tag_min: 0,
            tag_max: u64::MAX,
            kind: SpanKind::Recv,
        };
        // Tags 1 and 2 are in flight together, then 1–3 sit in the mailbox
        // until 5 ms; tag 4 finds the receiver parked.
        sim.spawn(
            NodeId(0),
            "send",
            RunOnce::new(vec![send(1), send(2), wait(1), send(3), wait(6), send(4)]),
        );
        sim.spawn(
            NodeId(1),
            "recv",
            RunOnce::new(vec![
                wait(5),
                recv.clone(),
                recv.clone(),
                recv.clone(),
                recv,
            ]),
        );
        let r = sim.run();
        assert!(r.is_clean(), "{r:?}");
        let log = sim.take_causal().unwrap();
        let ms = |t: SimTime| t.as_nanos() / 1_000_000;
        let edges: Vec<_> = log
            .edges()
            .map(|e| (e.token, e.src_lane, ms(e.src_t), e.dst_lane, ms(e.dst_t)))
            .collect();
        assert_eq!(
            edges,
            [
                (1, "send", 0, "recv", 5),
                (2, "send", 0, "recv", 5),
                (3, "send", 1, "recv", 5),
                (4, "send", 7, "recv", 7)
            ]
        );
    }

    #[test]
    fn causal_recording_is_refused_once_anything_is_scheduled() {
        let mut sim = small_sim();
        sim.spawn(NodeId(0), "early", RunOnce::new(vec![]));
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.enable_causal(|_| Some(EdgeKind::Wire))
        }));
        assert!(refused.is_err());
        // Nothing of it took: no log to take.
        assert!(sim.take_causal().is_none());
    }

    #[test]
    fn requeue_starts_the_next_takes_queue_edge_on_the_requeuer() {
        let mut sim = small_sim();
        sim.enable_causal(|_| Some(EdgeKind::Wire));
        let buf = sim.add_buffer(4);
        sim.record_queue(buf);
        let put = |token| Op::BufferPut {
            buf,
            bytes: 1,
            token,
        };
        let take = || Op::BufferTake {
            buf,
            min_occupancy: 1,
            kind: SpanKind::Idle,
        };
        let wait = |ms| Op::Compute {
            dur: SimTime::from_millis(ms),
            kind: SpanKind::Compute,
            step: 0,
        };
        sim.spawn(NodeId(0), "app", RunOnce::new(vec![put(1), put(2)]));
        sim.spawn(
            NodeId(1),
            "writer",
            RunOnce::new(vec![
                wait(1),
                Op::BufferRequeue {
                    buf,
                    bytes: 1,
                    token: 9,
                },
            ]),
        );
        sim.spawn(
            NodeId(2),
            "send",
            RunOnce::new(vec![wait(2), take(), take(), take()]),
        );
        let r = sim.run();
        assert!(r.is_clean(), "{r:?}");
        let log = sim.take_causal().unwrap();
        let edges: Vec<_> = log
            .edges()
            .map(|e| {
                (
                    e.token,
                    e.src_lane,
                    e.src_t.as_nanos() / 1_000_000,
                    e.dst_lane,
                )
            })
            .collect();
        // The requeued item went to the front of a buffer already holding
        // two: the first take is its edge, from the requeuer at 1 ms.
        assert_eq!(
            edges,
            [
                (9, "writer", 1, "send"),
                (1, "app", 0, "send"),
                (2, "app", 0, "send")
            ]
        );
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed: u64| {
            let mut cfg = SimConfig {
                seed,
                ..Default::default()
            };
            cfg.network.compute_nodes = 4;
            let mut sim = Simulator::new(cfg);
            let buf = sim.add_buffer(4);
            sim.spawn(
                NodeId(0),
                "p",
                RunOnce::new(
                    (0..20)
                        .flat_map(|i| {
                            vec![
                                Op::Compute {
                                    dur: SimTime::from_micros(100),
                                    kind: SpanKind::Compute,
                                    step: i,
                                },
                                Op::BufferPut {
                                    buf,
                                    bytes: 10,
                                    token: i,
                                },
                            ]
                        })
                        .chain([Op::BufferClose { buf }])
                        .collect(),
                ),
            );
            let mut got = Vec::new();
            let mut started = false;
            sim.spawn(NodeId(1), "c", move |ctx: &mut ProcCtx<'_>| {
                if started {
                    match ctx.last_take {
                        Some(BufferTaken::Item { token, .. }) => got.push(token),
                        Some(BufferTaken::Closed) => return Step::Done,
                        None => unreachable!(),
                    }
                }
                started = true;
                Step::Ops(vec![Op::BufferTake {
                    buf,
                    min_occupancy: 1,
                    kind: SpanKind::Idle,
                }])
            });
            let r = sim.run();
            assert!(r.is_clean());
            (r.end, r.events, sim.trace().spans().len())
        };
        assert_eq!(run(1), run(1));
    }
}
