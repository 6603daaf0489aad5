//! The virtual-process programming model: programs yield batches of ops,
//! the engine interprets them in virtual time.

use zipper_trace::SpanKind;
use zipper_types::{ProcId, SimTime};

/// Handle types for engine-managed coordination objects.
pub type BufId = usize;
pub type LockId = usize;
pub type BarrierId = usize;
pub type SignalId = usize;
pub type GateId = usize;

/// Metadata of a received message, surfaced through
/// [`ProcCtx::last_msg`] after a `Recv` completes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgMeta {
    pub from: ProcId,
    pub bytes: u64,
    pub tag: u64,
}

/// Result of a `BufferTake`, surfaced through [`ProcCtx::last_take`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BufferTaken {
    /// One item was taken: its byte size and the caller-defined token
    /// stored at put time (e.g. a block-id key).
    Item { bytes: u64, token: u64 },
    /// The buffer is closed and held fewer items than the requested
    /// minimum occupancy; the taker should retire.
    Closed,
}

/// One instruction for the engine. Each op that consumes virtual time
/// suspends the process until its completion event; the `kind` fields say
/// which [`SpanKind`] the engine records for the op (so a producer's
/// blocked `BufferPut` shows up as the paper's *stall*, a sender thread's
/// empty-buffer wait as *idle*, a lock wait as *lock*, …).
#[derive(Clone, Debug)]
pub enum Op {
    /// Advance virtual time by `dur`, recorded as `kind` (optionally
    /// tagged with a step index for windowed step counting).
    Compute {
        dur: SimTime,
        kind: SpanKind,
        step: u64,
    },
    /// Blocking point-to-point send: the process resumes once its NIC has
    /// injected the message; delivery happens later at the receiver. The
    /// injection interval is recorded as `kind` (use `Sendrecv` for the
    /// application's own halo traffic so staging interference is
    /// measurable, `Send` for transport traffic).
    Send {
        to: ProcId,
        bytes: u64,
        tag: u64,
        kind: SpanKind,
    },
    /// Non-blocking send; completion (delivery) is awaited by
    /// `WaitAllSends`. This is Decaf's `MPI_Isend` + `MPI_Waitall` pair.
    SendAsync { to: ProcId, bytes: u64, tag: u64 },
    /// Block until all of this process's outstanding async sends have been
    /// *delivered*. Recorded as `kind` (typically `Waitall`).
    WaitAllSends { kind: SpanKind },
    /// Blocking receive of the next message whose tag lies in
    /// `[tag_min, tag_max]`. Metadata lands in [`ProcCtx::last_msg`].
    Recv {
        tag_min: u64,
        tag_max: u64,
        kind: SpanKind,
    },
    /// Like `Recv`, but gives up after `timeout` of virtual time with no
    /// matching message: the process resumes with
    /// [`ProcCtx::last_msg`] `== None`. This is the DES mirror of the
    /// threaded receiver's EOS watchdog (`recv_timeout`).
    RecvTimeout {
        tag_min: u64,
        tag_max: u64,
        kind: SpanKind,
        timeout: SimTime,
    },
    /// Enter a reusable barrier; resumes when all members arrived.
    Barrier { id: BarrierId, kind: SpanKind },
    /// Write `bytes` to the PFS: data crosses the fabric to a storage node
    /// selected by `key`, then drains through the OST model. Resumes at
    /// completion. Recorded as `FsWrite`.
    FsWrite { bytes: u64, key: u64 },
    /// Read `bytes` from the PFS, then fabric transfer back. `cached`
    /// reads (data written moments ago, still in the OSS write-back
    /// cache — the dual-channel pattern) bypass the disk queue; cold
    /// reads (bulk post-hoc file reads, MPI-IO's pattern) drain through
    /// the OSTs. Recorded as `FsRead`.
    FsRead { bytes: u64, key: u64, cached: bool },
    /// Acquire a FIFO lock (DataSpaces/DIMES lock service). Wait time is
    /// recorded as `Lock`.
    Acquire { lock: LockId },
    /// Release a lock, waking the queue head.
    Release { lock: LockId },
    /// Wait on a counting signal (P). Wait recorded as `kind`.
    SignalWait { sig: SignalId, kind: SpanKind },
    /// Post a counting signal `n` times (V).
    SignalPost { sig: SignalId, n: u32 },
    /// Wait on a monotone gate until its cumulative count reaches `need`
    /// (non-consuming; see `objects::SimGate`). Wait recorded as `kind`;
    /// a `Stall`-kind gate wait models NIC flow control — the engine
    /// charges the held span to `net.backpressure_ns` and the node's
    /// XmitWait counter, as the threaded producer's gate does.
    GateWait {
        gate: GateId,
        need: u64,
        kind: SpanKind,
    },
    /// Raise a monotone gate's count by `n`, waking satisfied waiters.
    GateSignal { gate: GateId, n: u64 },
    /// Hold this process for `dur` of scripted flow-control stall: a
    /// virtual-time `GateRule::Hold` window. Recorded as `Stall` and
    /// charged to `net.backpressure_ns` plus the node's XmitWait.
    Backpressure { dur: SimTime },
    /// Put an item into a bounded buffer; blocks while full (recorded as
    /// `Stall` — this is the producer stall of Figs. 4/6/14).
    BufferPut { buf: BufId, bytes: u64, token: u64 },
    /// Take an item once the buffer holds at least `min_occupancy` items
    /// (or is closed). `min_occupancy = 1` is a plain consumer take;
    /// larger values implement the writer thread's high-water-mark steal
    /// (Algorithm 1). Wait recorded as `kind`.
    BufferTake {
        buf: BufId,
        min_occupancy: usize,
        kind: SpanKind,
    },
    /// Close a buffer: takers waiting below their minimum occupancy
    /// receive [`BufferTaken::Closed`].
    BufferClose { buf: BufId },
    /// Put an item back at the *front* of a buffer, bypassing capacity
    /// and the closed flag; never blocks. The recovery path: a faulted
    /// writer returns its block for the next take, a restarted consumer
    /// replays already-delivered blocks into a closed buffer.
    BufferRequeue { buf: BufId, bytes: u64, token: u64 },
    /// Terminate the whole simulated application with a fault (used to
    /// model Decaf's integer overflow and Flexpath's segfault, §6.3).
    Halt { error: String },
}

/// What a program hands back when resumed.
pub enum Step {
    /// Execute these ops in order, then resume me again.
    Ops(Vec<Op>),
    /// The process is finished.
    Done,
}

/// Per-process context visible to a program while being resumed.
pub struct ProcCtx<'a> {
    /// Current virtual time.
    pub now: SimTime,
    /// This process's id.
    pub me: ProcId,
    /// Metadata of the message consumed by the most recent `Recv`.
    pub last_msg: Option<MsgMeta>,
    /// Result of the most recent `BufferTake`.
    pub last_take: Option<BufferTaken>,
    /// Occupancy snapshots of every buffer (read-only).
    pub buffer_len: &'a dyn Fn(BufId) -> usize,
    /// Deterministic per-engine RNG stream.
    pub rng: &'a mut dyn FnMut() -> u64,
}

impl ProcCtx<'_> {
    /// Occupancy of buffer `buf`.
    pub fn buffer_len(&self, buf: BufId) -> usize {
        (self.buffer_len)(buf)
    }
}

/// A virtual process body. Programs are plain state machines: the engine
/// calls [`Program::resume`] whenever the process has no pending ops, and
/// interprets the returned batch. Results of blocking ops (received
/// message, taken buffer item) are visible in the [`ProcCtx`] at the next
/// resume.
pub trait Program {
    fn resume(&mut self, ctx: &mut ProcCtx<'_>) -> Step;
}

/// Blanket impl so closures `FnMut(&mut ProcCtx) -> Step` are programs.
impl<F> Program for F
where
    F: FnMut(&mut ProcCtx<'_>) -> Step,
{
    fn resume(&mut self, ctx: &mut ProcCtx<'_>) -> Step {
        self(ctx)
    }
}

/// Convenience: a one-shot program that runs a fixed op list and ends.
pub struct RunOnce(Option<Vec<Op>>);

impl RunOnce {
    pub fn new(ops: Vec<Op>) -> Self {
        RunOnce(Some(ops))
    }
}

impl Program for RunOnce {
    fn resume(&mut self, _ctx: &mut ProcCtx<'_>) -> Step {
        match self.0.take() {
            Some(ops) => Step::Ops(ops),
            None => Step::Done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_once_yields_then_finishes() {
        let mut p = RunOnce::new(vec![Op::Compute {
            dur: SimTime::from_millis(1),
            kind: SpanKind::Compute,
            step: 0,
        }]);
        let len_fn = |_b: BufId| 0usize;
        let mut rng_fn = || 0u64;
        let mut ctx = ProcCtx {
            now: SimTime::ZERO,
            me: ProcId(0),
            last_msg: None,
            last_take: None,
            buffer_len: &len_fn,
            rng: &mut rng_fn,
        };
        assert!(matches!(p.resume(&mut ctx), Step::Ops(v) if v.len() == 1));
        assert!(matches!(p.resume(&mut ctx), Step::Done));
    }

    #[test]
    fn closures_are_programs() {
        let mut calls = 0;
        let mut p = move |_ctx: &mut ProcCtx<'_>| {
            calls += 1;
            if calls == 1 {
                Step::Ops(vec![])
            } else {
                Step::Done
            }
        };
        let len_fn = |_b: BufId| 0usize;
        let mut rng_fn = || 0u64;
        let mut ctx = ProcCtx {
            now: SimTime::ZERO,
            me: ProcId(1),
            last_msg: None,
            last_take: None,
            buffer_len: &len_fn,
            rng: &mut rng_fn,
        };
        assert!(matches!(Program::resume(&mut p, &mut ctx), Step::Ops(_)));
        assert!(matches!(Program::resume(&mut p, &mut ctx), Step::Done));
    }
}
