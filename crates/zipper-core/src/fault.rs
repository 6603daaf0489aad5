//! Failure injection for the message channel — the network-side sibling of
//! `zipper-pfs`'s `ChaosFs`.
//!
//! [`ChaosSender`] wraps any [`WireSender`] and interprets one sender
//! entity's [`ChaosScope`] of a scripted `ChaosPlan`: exact wire ordinals
//! misbehave, and the same plan drives the DES sender procs in virtual
//! time, so transport chaos is conformance-testable across substrates.

// Threaded substrate: fault injection paces real threads with the wall clock —
// the DES twin injects the same ChaosPlan at virtual timestamps.
#![allow(clippy::disallowed_methods)]
use crate::transport::{MeshSender, Wire, WireSender};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use zipper_policy::Channel;
use zipper_types::{ChaosScope, Error, MixedMessage, Rank, Result, RuntimeError, WireFate};

/// A [`WireSender`] interpreting one sender entity's [`ChaosScope`].
///
/// Ordinals follow the convention of `zipper_types::fault`: one 1-based
/// stream over the wires this sender actually attempts — data-carrying
/// `Msg` wires and message-channel `Eos` wires. Disk-only ID flushes and
/// the file channel's `Eos` markers are *not* counted (the DES sender
/// proc counts neither: disk IDs and the file EOS flow from its writer
/// proc), and neither are sends the caller skipped for a dead destination
/// (the skip happens before this wrapper is reached on both substrates).
/// The wrapper is transport-generic: the same scripted ordinals drive the
/// in-process mesh and the framed-TCP sender.
///
/// Each counted wire's fate is [`ChaosScope::wire_fate`]'s, realized here:
/// `Fail` returns a transient [`RuntimeError::Transport`] (an unretried
/// caller marks the destination dead), `Drop` reports success without
/// delivering, `Corrupt` delivers an in-band [`RuntimeError::Transport`]
/// instead of the wire, and `Delay(d)` delivers after an extra `d`. A
/// dropped or corrupted wire's on-disk IDs still arrive.
pub struct ChaosSender<S = MeshSender> {
    inner: S,
    scope: Arc<ChaosScope>,
    injected: AtomicU64,
}

impl<S: WireSender> ChaosSender<S> {
    /// Wrap `inner`, interpreting `scope`.
    pub fn new(inner: S, scope: Arc<ChaosScope>) -> Self {
        ChaosSender {
            inner,
            scope,
            injected: AtomicU64::new(0),
        }
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// A dropped or corrupted data wire loses its block, not the on-disk
    /// IDs it carried: those blocks are on the PFS, so the IDs go on as an
    /// uncounted disk-only message (the DES writer sends them apart from
    /// any data wire).
    fn forward_ids(&self, to: Rank, wire: Wire) -> Result<()> {
        match wire {
            Wire::Msg(m) if !m.on_disk.is_empty() => self
                .inner
                .send(to, Wire::Msg(MixedMessage::disk_only(m.on_disk))),
            _ => Ok(()),
        }
    }
}

impl<S: WireSender> WireSender for ChaosSender<S> {
    fn send(&self, to: Rank, wire: Wire) -> Result<()> {
        let eos = match &wire {
            Wire::Msg(m) if m.data.is_some() => false,
            Wire::Eos(_, Channel::Net) => true,
            _ => return self.inner.send(to, wire),
        };
        let fate = self.scope.wire_fate(eos);
        if fate != WireFate::Deliver {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        match fate {
            WireFate::Deliver => self.inner.send(to, wire),
            WireFate::Delay(d) => {
                std::thread::sleep(d);
                self.inner.send(to, wire)
            }
            WireFate::Drop => self.forward_ids(to, wire),
            WireFate::Corrupt => {
                self.inner.send_fault(
                    to,
                    RuntimeError::Transport {
                        rank: to,
                        detail: format!("chaos: injected corrupt wire #{}", self.scope.ops()),
                    },
                )?;
                self.forward_ids(to, wire)
            }
            // The caller owns a failed wire's IDs: a retry layer above
            // re-sends them with the wire, and the sender loop re-parks
            // them once the send fails for good.
            WireFate::Fail => Err(Error::Runtime(RuntimeError::Transport {
                rank: to,
                detail: format!("chaos: injected send failure on wire #{}", self.scope.ops()),
            })),
        }
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
    use crate::transport::{ChannelMesh, MeshReceiver, RetryingSender};
    use std::time::Duration;
    use zipper_types::{ChaosFault, RetryPolicy};

    fn mesh_pair() -> (MeshSender, MeshReceiver) {
        let mesh = ChannelMesh::new(1, 16);
        let r = mesh.take_receiver(Rank(0)).unwrap();
        (mesh.sender(), r)
    }

    #[test]
    fn chaos_sender_drop_eos_passes_data_and_swallows_markers() {
        use zipper_types::block::deterministic_payload;
        use zipper_types::{
            Block, BlockId, ChaosEntity, ChaosPlan, GlobalPos, MixedMessage, StepId,
        };
        // DropEos on every ordinal: a data wire at a scripted ordinal
        // passes untouched, only the EOS marker is swallowed.
        let plan = ChaosPlan::new()
            .with(ChaosEntity::Sender(Rank(0)), 1, ChaosFault::DropEos)
            .with(ChaosEntity::Sender(Rank(0)), 2, ChaosFault::DropEos);
        let (s, r) = mesh_pair();
        let c = ChaosSender::new(s, Arc::new(plan.scope(ChaosEntity::Sender(Rank(0)))));
        let id = BlockId::new(Rank(0), StepId(0), 0);
        let block = Block::from_payload(
            Rank(0),
            StepId(0),
            0,
            1,
            GlobalPos::default(),
            deterministic_payload(id, 32),
        );
        c.send(Rank(0), Wire::Msg(MixedMessage::data_only(block)))
            .unwrap();
        c.send(Rank(0), Wire::Eos(Rank(0), Channel::Net)).unwrap();
        assert_eq!(c.injected(), 1);
        drop(c);
        let got: Vec<_> = std::iter::from_fn(|| r.recv().ok()).collect();
        assert_eq!(got.len(), 1);
        assert!(matches!(got[0], Wire::Msg(_)));
    }

    #[test]
    fn chaos_sender_strikes_exact_ordinals_and_skips_disk_only_flushes() {
        use zipper_types::block::deterministic_payload;
        use zipper_types::{
            Block, BlockId, ChaosEntity, ChaosPlan, GlobalPos, MixedMessage, StepId,
        };
        let plan = ChaosPlan::new()
            .with(ChaosEntity::Sender(Rank(0)), 2, ChaosFault::DropWire)
            .with(ChaosEntity::Sender(Rank(0)), 4, ChaosFault::DropEos);
        let (s, r) = mesh_pair();
        let c = ChaosSender::new(s, Arc::new(plan.scope(ChaosEntity::Sender(Rank(0)))));
        let data = |idx: u32| {
            let id = BlockId::new(Rank(0), StepId(0), idx);
            Wire::Msg(MixedMessage::data_only(Block::from_payload(
                Rank(0),
                StepId(0),
                idx,
                4,
                GlobalPos::default(),
                deterministic_payload(id, 32),
            )))
        };
        c.send(Rank(0), data(0)).unwrap(); // wire 1: clean
                                           // Disk-only ID flushes do not advance the ordinal stream.
        let ids = vec![BlockId::new(Rank(0), StepId(0), 9)];
        c.send(Rank(0), Wire::Msg(MixedMessage::disk_only(ids)))
            .unwrap();
        c.send(Rank(0), data(1)).unwrap(); // wire 2: dropped
        c.send(Rank(0), data(2)).unwrap(); // wire 3: clean
        c.send(Rank(0), Wire::Eos(Rank(0), Channel::Net)).unwrap(); // wire 4: EOS swallowed
        assert_eq!(c.injected(), 2);
        drop(c);
        let got: Vec<_> = std::iter::from_fn(|| r.recv().ok()).collect();
        // Delivered: wire 1, the uncounted ID flush, wire 3. No EOS.
        assert_eq!(got.len(), 3);
        assert!(!got.iter().any(|w| matches!(w, Wire::Eos(..))));
    }

    #[test]
    fn chaos_sender_fail_send_and_corrupt_wire_surface_faults() {
        use zipper_types::{ChaosEntity, ChaosPlan};
        let plan = ChaosPlan::new()
            .with(ChaosEntity::Sender(Rank(1)), 1, ChaosFault::FailSend)
            .with(ChaosEntity::Sender(Rank(1)), 2, ChaosFault::CorruptWire);
        let (s, r) = mesh_pair();
        let c = ChaosSender::new(s, Arc::new(plan.scope(ChaosEntity::Sender(Rank(1)))));
        let err = c
            .send(Rank(0), Wire::Eos(Rank(1), Channel::Net))
            .unwrap_err();
        assert!(matches!(
            err,
            Error::Runtime(RuntimeError::Transport { .. })
        ));
        c.send(Rank(0), Wire::Eos(Rank(1), Channel::Net)).unwrap(); // corrupt: in-band
        c.send(Rank(0), Wire::Eos(Rank(1), Channel::Net)).unwrap(); // wire 3: clean
        drop(c);
        assert!(matches!(
            r.recv(),
            Err(Error::Runtime(RuntimeError::Transport { .. }))
        ));
        assert!(matches!(r.recv(), Ok(Wire::Eos(..))));
    }

    #[test]
    fn retrying_sender_rides_over_injected_failures() {
        use zipper_types::{ChaosEntity, ChaosPlan};
        // Every other attempt fails; each retry is the next (clean) ordinal.
        let plan = (1..=4).fold(ChaosPlan::new(), |plan, k| {
            plan.with(ChaosEntity::Sender(Rank(0)), 2 * k, ChaosFault::FailSend)
        });
        let (s, r) = mesh_pair();
        let f = ChaosSender::new(s, Arc::new(plan.scope(ChaosEntity::Sender(Rank(0)))));
        let retrying = RetryingSender::new(
            f,
            RetryPolicy {
                max_attempts: 3,
                base_delay: Duration::from_micros(100),
                max_delay: Duration::from_micros(400),
                jitter: 0.0,
            },
        );
        for i in 0..6 {
            retrying
                .send(Rank(0), Wire::Eos(Rank(i), Channel::Net))
                .unwrap();
        }
        assert_eq!(retrying.retries(), 4, "one retry per scripted failure");
        drop(retrying);
        let got: Vec<_> = std::iter::from_fn(|| r.recv().ok()).collect();
        assert_eq!(got.len(), 6, "every wire eventually delivered");
    }
}
