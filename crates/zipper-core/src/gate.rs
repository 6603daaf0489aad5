//! Scripted flow control for the threaded substrate: one producer rank's
//! [`GateScript`] behind a mutex, a condition variable its sender and
//! writer threads wait on, and the [`WireSender`] wrapper that holds data
//! wires where the script says. The kernel decides; this module only
//! waits.
//!
//! Mirrors the DES side exactly: the wire is *taken from the producer
//! buffer first* (its routing decision is already recorded), then held in
//! xmit-wait until the gate opens, then transmitted. Held time is charged
//! to `net.backpressure_ns` — the same counter a full consumer inbox
//! charges — because a scripted gate *is* modelled backpressure, just with
//! the congestion declared up front instead of emerging from load.
//!
//! Ordinal scheme (shared with [`zipper_types::ChaosScope`] and the DES
//! NIC model): only wires that carry block payloads count. Disk-only ID
//! flushes and end-of-stream marks pass untouched, so a script written
//! against "the k-th data block this rank ships" means the same wire on
//! both substrates.

// Threaded substrate: the gate holds real senders with timed waits — the DES
// twin applies the same BackpressureScript in virtual time.
#![allow(clippy::disallowed_methods)]
use crate::transport::{Wire, WireSender};
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::{Duration, Instant};
use zipper_policy::{GateScript, WireGate, WriterGate};
use zipper_trace::{CausalSink, CounterId, EdgeKind, HistogramId, Telemetry, TraceSink};
use zipper_types::{GateWindow, Rank, Result, RuntimeError, SimTime};

/// One rank's script, shared by its sender (which blocks in
/// [`SenderGate::pass_data_wire`]) and its writer (which reads
/// [`SenderGate::steal_phase`] inside the queue's take predicate). The
/// waker nudges a writer parked on the queue when a window arms; it is
/// invoked outside the gate lock, since the take predicate takes the gate
/// lock inside the queue's (lock order queue → gate).
pub(crate) struct SenderGate {
    script: Mutex<GateScript>,
    opened: Condvar,
    wake_writer: Box<dyn Fn() + Send + Sync>,
}

impl SenderGate {
    pub(crate) fn new(
        windows: Vec<GateWindow>,
        writer: bool,
        wake_writer: impl Fn() + Send + Sync + 'static,
    ) -> Self {
        SenderGate {
            script: Mutex::new(GateScript::new(windows, writer)),
            opened: Condvar::new(),
            wake_writer: Box::new(wake_writer),
        }
    }

    /// Count one data wire and hold it as the script says. Returns the
    /// wire's ordinal and the time it was held.
    fn pass_data_wire(&self) -> (u64, Duration) {
        let mut script = self.script.lock();
        let verdict = script.pass_wire();
        let ordinal = script.wires();
        drop(script);
        match verdict {
            WireGate::Pass | WireGate::Inert => (ordinal, Duration::ZERO),
            WireGate::Hold(d) => {
                std::thread::sleep(d);
                (ordinal, d)
            }
            WireGate::Armed { .. } => {
                // The writer may be parked on the queue below the
                // high-water mark (nudge) or between windows in
                // `await_steal_window` (notify): wake both.
                self.opened.notify_all();
                (self.wake_writer)();
                let t0 = Instant::now();
                let mut script = self.script.lock();
                while script.steal_phase() {
                    self.opened.wait(&mut script);
                }
                (ordinal, t0.elapsed())
            }
        }
    }

    /// Whether an armed window is unmet: the writer's take predicate
    /// treats this exactly like queue-over-high-water-mark.
    pub(crate) fn steal_phase(&self) -> bool {
        self.script.lock().steal_phase()
    }

    /// The writer stole one block.
    pub(crate) fn note_steal(&self) {
        self.script.lock().note_steal();
        self.opened.notify_all();
    }

    /// Fail the script open: the writer retired, or the sender drained.
    pub(crate) fn cancel(&self) {
        self.script.lock().cancel();
        self.opened.notify_all();
    }

    /// Writer-side park between windows, once the queue reports closed:
    /// `true` when an unmet window is armed (go steal), `false` when none
    /// can arm any more (retire).
    ///
    /// The threaded queue reports "closed" as soon as the app finishes,
    /// while the sender may still hold undrained blocks behind a scripted
    /// gate; retiring then would fail the rest of the script open and
    /// diverge from the DES, whose writer waits on the window gate.
    pub(crate) fn await_steal_window(&self) -> bool {
        let mut script = self.script.lock();
        loop {
            match script.writer() {
                WriterGate::Steal => return true,
                WriterGate::Free => return false,
                WriterGate::Wait { .. } => self.opened.wait(&mut script),
            }
        }
    }
}

/// The sender half of a rank's script, wrapped *outermost* around its
/// transport stack (outside retry/trace wrappers): a retried send must
/// not pass the gate twice, and the held interval is not the inner
/// transport's send time. Without a gate it forwards every wire.
pub(crate) struct GatedSender<S> {
    inner: S,
    gate: Option<Arc<SenderGate>>,
    telemetry: Telemetry,
    causal: CausalSink,
    lane: String,
}

impl<S: WireSender> GatedSender<S> {
    /// Gate `inner`, charging held time to `sink`'s telemetry and
    /// recording it as [`EdgeKind::Gate`] self-edges on `lane` (gate open
    /// → sender resume).
    pub(crate) fn new(
        inner: S,
        gate: Option<Arc<SenderGate>>,
        sink: &TraceSink,
        lane: String,
    ) -> Self {
        GatedSender {
            inner,
            gate,
            telemetry: sink.telemetry().clone(),
            causal: sink.causal().clone(),
            lane,
        }
    }
}

impl<S: WireSender> WireSender for GatedSender<S> {
    fn send(&self, to: Rank, wire: Wire) -> Result<()> {
        let Some(gate) = &self.gate else {
            return self.inner.send(to, wire);
        };
        if matches!(&wire, Wire::Msg(m) if m.data.is_some()) {
            let (ordinal, held) = gate.pass_data_wire();
            if !held.is_zero() {
                self.telemetry.add_time(CounterId::NetBackpressureNs, held);
                self.telemetry
                    .observe(HistogramId::StallNs, held.as_nanos() as u64);
                let t1 = self.causal.now();
                let t0 = t1.saturating_sub(SimTime::from_nanos(held.as_nanos() as u64));
                self.causal
                    .edge_at(EdgeKind::Gate, &self.lane, t0, &self.lane, t1, ordinal);
            }
        }
        self.inner.send(to, wire)
    }

    fn send_fault(&self, to: Rank, fault: RuntimeError) -> Result<()> {
        self.inner.send_fault(to, fault)
    }

    fn consumers(&self) -> usize {
        self.inner.consumers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChannelMesh;
    use zipper_policy::Channel;
    use zipper_types::{Block, BlockId, GateRule, GlobalPos, MixedMessage, StepId};

    fn block(i: u32) -> Wire {
        let id = BlockId::new(Rank(0), StepId(0), i);
        Wire::Msg(MixedMessage::data_only(Block::from_payload(
            Rank(0),
            StepId(0),
            i,
            8,
            GlobalPos::default(),
            zipper_types::block::deterministic_payload(id, 16),
        )))
    }

    /// A sender gated by one window, its gate, and the mesh it sends into.
    fn gated(
        rule: GateRule,
        wire: u64,
    ) -> (GatedSender<crate::MeshSender>, Arc<SenderGate>, ChannelMesh) {
        let gate = Arc::new(SenderGate::new(
            vec![GateWindow { wire, rule }],
            true,
            || {},
        ));
        let mesh = ChannelMesh::new(1, 16);
        let sender = GatedSender::new(
            mesh.sender(),
            Some(gate.clone()),
            &TraceSink::default(),
            String::new(),
        );
        (sender, gate, mesh)
    }

    #[test]
    fn only_data_wires_advance_the_ordinal() {
        // Hold window on data wire 2: the disk-only flush and both EOS
        // marks in between must not consume the ordinal.
        let (sender, _, _mesh) = gated(GateRule::Hold(Duration::from_millis(30)), 2);
        let t0 = Instant::now();
        sender.send(Rank(0), block(0)).unwrap();
        sender
            .send(
                Rank(0),
                Wire::Msg(MixedMessage::disk_only(vec![BlockId::new(
                    Rank(0),
                    StepId(0),
                    9,
                )])),
            )
            .unwrap();
        sender
            .send(Rank(0), Wire::Eos(Rank(0), Channel::Net))
            .unwrap();
        assert!(t0.elapsed() < Duration::from_millis(25), "held too early");
        sender.send(Rank(0), block(1)).unwrap(); // data wire 2 -> held
        assert!(t0.elapsed() >= Duration::from_millis(30), "window skipped");
    }

    #[test]
    fn steal_window_releases_once_credits_arrive() {
        let (sender, gate, _mesh) = gated(GateRule::OpenAfterSteals(2), 1);
        let crediting = std::thread::spawn({
            let gate = gate.clone();
            move || {
                while !gate.steal_phase() {
                    std::thread::yield_now();
                }
                gate.note_steal();
                gate.note_steal();
            }
        });
        sender.send(Rank(0), block(0)).unwrap();
        crediting.join().unwrap();
        assert!(!gate.steal_phase());
        assert!(!gate.await_steal_window(), "no window left to arm");
    }
}
