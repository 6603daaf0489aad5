//! The deterministic chaos engine: substrate-independent fault scripts.
//!
//! A [`ChaosPlan`] is a *scripted* schedule of multi-fault events
//! addressed by entity and operation ordinal — "the 3rd send of producer 1
//! is dropped", "the 2nd PFS put of writer 0 fails", "analysis rank 1
//! crashes on its 5th read". Because ordinals count an entity's *own*
//! operations (never wall or virtual time), the same plan is interpretable
//! by the threaded runtime and the discrete-event simulator, and both
//! degrade through the same policy-kernel decision sequence — the property
//! the fault-conformance tests assert.
//!
//! Ordinal conventions (what each entity counts, identically on both
//! substrates):
//!
//! * **Sender** — one stream of wire sends: data-carrying messages first
//!   (in route order), then the EOS markers fanned out at end-of-stream.
//!   Disk-only ID flushes are *not* counted (the substrates batch them
//!   differently). Sends skipped because the destination is already dead
//!   are not counted either.
//! * **Writer** — PFS `put` attempts of the producer's work-stealing
//!   writer thread.
//! * **Output** — PFS `put` attempts of the consumer's Preserve-mode
//!   output path.
//! * **Analysis** — the consumer application's read calls.

use crate::ids::Rank;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// An entity a chaos event addresses: one rank's sender thread, writer
/// thread, Preserve output path, or analysis application.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ChaosEntity {
    /// Producer `rank`'s message-channel sender.
    Sender(Rank),
    /// Producer `rank`'s work-stealing writer thread.
    Writer(Rank),
    /// Consumer `rank`'s Preserve-mode output path.
    Output(Rank),
    /// Consumer `rank`'s analysis application.
    Analysis(Rank),
}

/// What goes wrong when a scheduled ordinal is reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosFault {
    /// The send fails with a transport error (the destination is treated
    /// as dead by the sender from then on).
    FailSend,
    /// The wire is silently dropped: the send "succeeds" but nothing
    /// arrives.
    DropWire,
    /// The wire arrives corrupted and is discarded by the transport
    /// (trace-equivalent to a drop; the corruption is visible in
    /// metrics, not in policy decisions).
    CorruptWire,
    /// The wire is delayed by this much before delivery (wall time on
    /// the threaded runtime, the same span of virtual time on the DES).
    DelayWire(Duration),
    /// An end-of-stream marker is swallowed in flight — the trigger for
    /// the consumer's EOS watchdog.
    DropEos,
    /// The PFS write fails (writer retires, or Preserve store is lost).
    PfsWriteFail,
    /// The application crashes at this ordinal (consumer: panic inside
    /// its read loop).
    CrashApp,
    /// Structural, ordinal-free: the producer's sender takes no blocks
    /// at all, so with `high_water_mark = 0` every block drains through
    /// the writer in production order — the deterministic steal schedule
    /// the recovery conformance config relies on. Requires
    /// `concurrent_transfer`.
    DetachSender,
}

/// What one chaos-counted sender wire suffers ([`ChaosScope::wire_fate`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireFate {
    /// Sent as is.
    Deliver,
    /// Sent after this extra delay.
    Delay(Duration),
    /// Lost: the send reports success and nothing arrives.
    Drop,
    /// Arrives as garbage the receiver discards.
    Corrupt,
    /// The send fails; the sender treats the destination as dead.
    Fail,
}

/// One scripted fault: `fault` strikes `entity`'s `ordinal`-th operation
/// (1-based; see the module docs for what each entity counts).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosEvent {
    pub entity: ChaosEntity,
    pub ordinal: u64,
    pub fault: ChaosFault,
}

/// A substrate-independent chaos script: plain data, interpreted by the
/// threaded runtime's injection wrappers and by the DES's virtual
/// processes through per-entity [`ChaosScope`]s.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    pub events: Vec<ChaosEvent>,
}

impl ChaosPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: schedule `fault` on `entity`'s `ordinal`-th operation.
    /// [`ChaosFault::DetachSender`] is ordinal-free; pass 0.
    pub fn with(mut self, entity: ChaosEntity, ordinal: u64, fault: ChaosFault) -> Self {
        self.events.push(ChaosEvent {
            entity,
            ordinal,
            fault,
        });
        self
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Extract `entity`'s view of the plan: its scheduled (ordinal,
    /// fault) pairs plus a live operation counter.
    pub fn scope(&self, entity: ChaosEntity) -> ChaosScope {
        let mut faults: Vec<(u64, ChaosFault)> = Vec::new();
        let mut detached = false;
        for ev in self.events.iter().filter(|ev| ev.entity == entity) {
            if ev.fault == ChaosFault::DetachSender {
                detached = true;
            } else {
                faults.push((ev.ordinal, ev.fault));
            }
        }
        faults.sort_by_key(|&(ord, _)| ord);
        ChaosScope {
            faults,
            ops: AtomicU64::new(0),
            detached,
        }
    }
}

/// One entity's live view of a [`ChaosPlan`]: the faults scheduled for
/// it, and the operation counter that decides when they strike. Shared
/// across consumer-restart incarnations so ordinal counting continues
/// over a recovery boundary.
#[derive(Debug)]
pub struct ChaosScope {
    faults: Vec<(u64, ChaosFault)>,
    ops: AtomicU64,
    detached: bool,
}

impl ChaosScope {
    /// Count one operation; returns the fault scheduled for this
    /// ordinal, if any.
    pub fn next(&self) -> Option<ChaosFault> {
        let n = self.ops.fetch_add(1, Ordering::Relaxed) + 1;
        self.faults
            .iter()
            .find(|&&(ord, _)| ord == n)
            .map(|&(_, f)| f)
    }

    /// Count one sender wire — a data wire, or a message-channel EOS mark
    /// when `eos` — and say what happens to it. The one map from a
    /// scheduled fault to a wire's fate: `DropEos` drops marks only, and
    /// faults a sender never interprets deliver.
    pub fn wire_fate(&self, eos: bool) -> WireFate {
        match self.next() {
            Some(ChaosFault::FailSend) => WireFate::Fail,
            Some(ChaosFault::DropWire) => WireFate::Drop,
            Some(ChaosFault::DropEos) if eos => WireFate::Drop,
            Some(ChaosFault::CorruptWire) => WireFate::Corrupt,
            Some(ChaosFault::DelayWire(d)) => WireFate::Delay(d),
            _ => WireFate::Deliver,
        }
    }

    /// Whether this entity is structurally detached
    /// ([`ChaosFault::DetachSender`]).
    pub fn detached(&self) -> bool {
        self.detached
    }

    /// True when no ordinal faults are scheduled (detachment aside).
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Operations counted so far.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_fires_faults_at_their_ordinals() {
        let plan = ChaosPlan::new()
            .with(ChaosEntity::Sender(Rank(0)), 2, ChaosFault::DropWire)
            .with(ChaosEntity::Sender(Rank(0)), 4, ChaosFault::FailSend)
            .with(ChaosEntity::Sender(Rank(1)), 1, ChaosFault::DropEos);
        let s0 = plan.scope(ChaosEntity::Sender(Rank(0)));
        assert_eq!(s0.next(), None);
        assert_eq!(s0.next(), Some(ChaosFault::DropWire));
        assert_eq!(s0.next(), None);
        assert_eq!(s0.next(), Some(ChaosFault::FailSend));
        assert_eq!(s0.next(), None);
        // Rank 1's events are invisible to rank 0's scope and vice versa.
        let s1 = plan.scope(ChaosEntity::Sender(Rank(1)));
        assert_eq!(s1.next(), Some(ChaosFault::DropEos));
        // Writers are a different entity from senders of the same rank.
        let w0 = plan.scope(ChaosEntity::Writer(Rank(0)));
        assert!(w0.is_empty());
        assert_eq!(w0.next(), None);
    }

    #[test]
    fn detach_is_structural_not_ordinal() {
        let plan = ChaosPlan::new().with(ChaosEntity::Sender(Rank(2)), 0, ChaosFault::DetachSender);
        let s = plan.scope(ChaosEntity::Sender(Rank(2)));
        assert!(s.detached());
        assert!(s.is_empty());
        assert_eq!(s.next(), None);
        assert!(!plan.scope(ChaosEntity::Sender(Rank(3))).detached());
    }

    #[test]
    fn scope_counting_is_shared_across_handles() {
        // The scope is one counter: callers observing it from different
        // incarnations (consumer restarts) keep a single ordinal stream.
        let plan = ChaosPlan::new().with(ChaosEntity::Analysis(Rank(0)), 3, ChaosFault::CrashApp);
        let s = std::sync::Arc::new(plan.scope(ChaosEntity::Analysis(Rank(0))));
        assert_eq!(s.next(), None);
        let s2 = s.clone();
        assert_eq!(s2.next(), None);
        assert_eq!(s.next(), Some(ChaosFault::CrashApp));
    }
}
