//! Scripted virtual-time backpressure: substrate-independent flow-control
//! windows.
//!
//! The paper's Algorithm 1 steal decisions are *backpressure-driven*: the
//! sender stalls on a congested link, the producer queue rises past the
//! high-water mark, and the writer thread steals the overflow to the PFS.
//! Reproducing a particular partial steal schedule therefore requires
//! reproducing a particular congestion pattern — something wall-clock
//! sleeps cannot do deterministically, and virtual time cannot share with
//! the threaded runtime.
//!
//! A [`BackpressureScript`] solves this the same way [`crate::ChaosPlan`]
//! scripts faults: by *operation ordinal*, never by time. Each
//! [`GateWindow`] addresses one (sender rank, data-wire ordinal) and
//! declares when the gate re-opens:
//!
//! * [`GateRule::OpenAfterSteals`] — the wire is held until the rank's
//!   writer has stolen a cumulative number of blocks. This is the
//!   deterministic conformance currency: both substrates hold the same
//!   wire while the same blocks drain through the writer, so the policy
//!   kernel sees an identical queue-depth evolution and makes an
//!   identical partial steal schedule.
//! * [`GateRule::Hold`] — the wire is held for a fixed span (wall time on
//!   the threaded runtime, the same span of virtual time on the DES).
//!   This models a congested NIC for throughput experiments (the Fig. 14
//!   sweeps); it involves no writer coordination.
//!
//! Data-wire ordinals are 1-based and count the same stream the chaos
//! engine's sender scope counts: data-carrying wires actually attempted,
//! in route order. Disk-only ID flushes, EOS markers, and sends skipped
//! for dead destinations are *not* counted.
//!
//! What a window means — when it arms, when it opens, how it fails open
//! — is decided in one place, `zipper_policy::GateScript`. Three
//! interpreters drive that kernel and keep only their way of waiting: the
//! threaded producer (`zipper-core`), the DES sender and writer procs
//! (`zipper-transports`), and preflight's symbolic walk. Which scripts are
//! valid is decided in one place too: `zipper_policy::Preflight::check_shape`
//! (ZV010–ZV012), which preflight, the DES spec's validation and the
//! threaded driver all apply.

use crate::ids::Rank;
use std::time::Duration;

/// When a gated wire is allowed through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GateRule {
    /// Hold the wire until the rank's writer has stolen this many blocks
    /// *cumulatively* (an absolute target, not an increment). Targets of
    /// successive windows must be non-decreasing.
    OpenAfterSteals(u64),
    /// Hold the wire for a fixed span, charged to `net.backpressure_ns`.
    Hold(Duration),
}

/// One scripted gate: the `wire`-th data wire (1-based) of a sender is
/// held per `rule`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GateWindow {
    pub wire: u64,
    pub rule: GateRule,
}

/// A substrate-independent backpressure script: plain data, one rank's
/// windows ([`BackpressureScript::windows_for`]) per interpreter.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BackpressureScript {
    pub gates: Vec<(Rank, GateWindow)>,
}

impl BackpressureScript {
    /// An empty script (no gates).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: hold sender `rank`'s `wire`-th data wire per `rule`.
    pub fn with(mut self, rank: Rank, wire: u64, rule: GateRule) -> Self {
        self.gates.push((rank, GateWindow { wire, rule }));
        self
    }

    /// The windows scripted for `rank`, sorted by wire ordinal.
    pub fn windows_for(&self, rank: Rank) -> Vec<GateWindow> {
        let mut v: Vec<GateWindow> = self
            .gates
            .iter()
            .filter(|(r, _)| *r == rank)
            .map(|&(_, w)| w)
            .collect();
        v.sort_by_key(|w| w.wire);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_windows_are_per_rank_and_sorted() {
        let s = BackpressureScript::new()
            .with(Rank(1), 4, GateRule::OpenAfterSteals(2))
            .with(Rank(0), 2, GateRule::Hold(Duration::from_millis(1)))
            .with(Rank(1), 2, GateRule::OpenAfterSteals(1));
        let w1 = s.windows_for(Rank(1));
        assert_eq!(w1.len(), 2);
        assert_eq!(w1[0].wire, 2);
        assert_eq!(w1[1].wire, 4);
        assert_eq!(s.windows_for(Rank(2)), Vec::new());
    }
}
