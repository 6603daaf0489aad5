//! Scripted flow control for the threaded substrate: a [`WireSender`]
//! wrapper that holds data wires at the ordinals a
//! [`zipper_types::BackpressureScript`] names, via a shared
//! [`SenderGate`].
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
use std::sync::Arc;
use zipper_trace::{CausalSink, CounterId, EdgeKind, HistogramId, Telemetry};
use zipper_types::{Rank, Result, RuntimeError, SenderGate, SimTime};

/// Transport wrapper interpreting the sender half of a backpressure
/// script. Wrap it *outermost* (outside retry/trace wrappers): a retried
/// send must not pass the gate twice, and the held interval should not be
/// attributed to the inner transport's send time.
pub struct GatedSender<S> {
    inner: S,
    gate: Arc<SenderGate>,
    telemetry: Telemetry,
    causal: CausalSink,
    lane: String,
    ordinal: std::sync::atomic::AtomicU64,
}

impl<S: WireSender> GatedSender<S> {
    pub fn new(inner: S, gate: Arc<SenderGate>) -> Self {
        GatedSender {
            inner,
            gate,
            telemetry: Telemetry::off(),
            causal: CausalSink::off(),
            lane: String::new(),
            ordinal: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Charge gate-held time to `net.backpressure_ns` in `telemetry`.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Record held intervals as [`EdgeKind::Gate`] self-edges on `lane`
    /// (the rank's sender lane): gate open → sender resume.
    pub fn with_causal(mut self, causal: CausalSink, lane: impl Into<String>) -> Self {
        self.causal = causal;
        self.lane = lane.into();
        self
    }
}

impl<S: WireSender> WireSender for GatedSender<S> {
    fn send(&self, to: Rank, wire: Wire) -> Result<()> {
        if matches!(&wire, Wire::Msg(m) if m.data.is_some()) {
            let ordinal = self
                .ordinal
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                + 1;
            let held = self.gate.pass_data_wire();
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
    use std::time::Duration;
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

    #[test]
    fn only_data_wires_advance_the_ordinal() {
        // Hold window on data wire 2: the disk-only flush and both EOS
        // marks in between must not consume the ordinal.
        let script = zipper_types::BackpressureScript::new().with(
            Rank(0),
            2,
            GateRule::Hold(Duration::from_millis(30)),
        );
        let gate = Arc::new(SenderGate::new(script.windows_for(Rank(0))));
        let mesh = ChannelMesh::new(1, 16);
        let sender = GatedSender::new(mesh.sender(), gate);
        let t0 = std::time::Instant::now();
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
        let script =
            zipper_types::BackpressureScript::new().with(Rank(0), 1, GateRule::OpenAfterSteals(2));
        let gate = Arc::new(SenderGate::new(script.windows_for(Rank(0))));
        let mesh = ChannelMesh::new(1, 16);
        let sender = GatedSender::new(mesh.sender(), gate.clone());
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
        assert_eq!(gate.steals(), 2);
    }
}
