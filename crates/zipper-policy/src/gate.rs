//! Scripted backpressure, decided once: one rank's windows of a
//! [`BackpressureScript`](zipper_types::BackpressureScript), as the state
//! its [`RankScript`](crate::RankScript) keeps.
//!
//! What a window *means* is written here and nowhere else: which data wire
//! it lands on, when a credit window arms and when it opens, that a
//! cancelled script fails open, that a rank without a writer has no credit
//! to earn, and the writer's question "is there an unmet credit window I
//! must wait for".

use std::time::Duration;
use zipper_types::{GateRule, GateWindow};

/// What one data wire meets at the gate
/// ([`RankScript::take_net`](crate::RankScript::take_net)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireGate {
    /// No window lands on this wire, or its credit target is already met.
    Pass,
    /// A `Hold` window: stall the wire this long, then send it.
    Hold(Duration),
    /// A credit window armed: the wire is held while the writer is told to
    /// steal ([`WriterGate::Steal`]) — until its cumulative steals reach
    /// `target`, or the script is cancelled.
    Armed { target: u64 },
    /// A credit window of a cancelled script: it fails open.
    Inert,
}

/// The writer's side of the script
/// ([`RankScript::writer_gate`](crate::RankScript::writer_gate)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriterGate {
    /// An armed window is unmet: steal every buffered block.
    Steal,
    /// An unmet credit window lies ahead of the sender: wait for the
    /// script's `arm`-th arming (1-based), which is that window's.
    Wait { arm: u64 },
    /// No credit window can arm any more: Algorithm 1 decides alone.
    Free,
}

/// One producer rank's backpressure windows, as state: the window cursor,
/// the data-wire ordinal, the cumulative steal credit, the armed target
/// and the cancel flag.
#[derive(Clone, Debug)]
pub(crate) struct GateScript {
    /// The rank's windows, sorted by wire ordinal.
    windows: Vec<GateWindow>,
    /// Windows the sender has reached; `windows[next..]` lie ahead.
    next: usize,
    wires: u64,
    steals: u64,
    /// The target of the credit window holding the sender, while unmet.
    armed: Option<u64>,
    /// Credit windows armed so far.
    arms: u64,
    cancelled: bool,
}

impl GateScript {
    /// Interpret one rank's `windows`. Without a `writer` no one can earn
    /// steal credit, so credit windows are inert from the start; `Hold`
    /// windows hold either way.
    pub(crate) fn new(mut windows: Vec<GateWindow>, writer: bool) -> Self {
        windows.sort_by_key(|w| w.wire);
        GateScript {
            windows,
            next: 0,
            wires: 0,
            steals: 0,
            armed: None,
            arms: 0,
            cancelled: !writer,
        }
    }

    /// Count one data wire and say what it meets. A credit window whose
    /// target the writer has already met passes unheld; an unmet one arms.
    pub(crate) fn pass_wire(&mut self) -> WireGate {
        self.wires += 1;
        let Some(&window) = self.windows.get(self.next) else {
            return WireGate::Pass;
        };
        if window.wire != self.wires {
            return WireGate::Pass;
        }
        self.next += 1;
        match window.rule {
            GateRule::Hold(d) => WireGate::Hold(d),
            GateRule::OpenAfterSteals(_) if self.cancelled => WireGate::Inert,
            GateRule::OpenAfterSteals(target) if self.steals >= target => WireGate::Pass,
            GateRule::OpenAfterSteals(target) => {
                self.armed = Some(target);
                self.arms += 1;
                WireGate::Armed { target }
            }
        }
    }

    /// The writer stole one block — in a window or not, every steal counts
    /// toward the cumulative targets. Meeting the armed target opens it.
    pub(crate) fn note_steal(&mut self) {
        self.steals += 1;
        if self.armed.is_some_and(|target| self.steals >= target) {
            self.armed = None;
        }
    }

    /// Fail every present and future credit window open: the writer
    /// retired (drained or dead), or the sender drained and no wire is
    /// left to arm one.
    pub(crate) fn cancel(&mut self) {
        self.cancelled = true;
        self.armed = None;
    }

    /// Whether an armed credit window is unmet: the sender holds its wire,
    /// and the writer treats the queue as over the high-water mark — the
    /// condition real backpressure produces.
    pub(crate) fn steal_phase(&self) -> bool {
        self.armed.is_some()
    }

    /// What the writer does about the script when it would otherwise park
    /// at the high-water mark or retire on a closed queue. Targets are
    /// non-decreasing, so "some window ahead is unmet" is "the next unmet
    /// one will arm".
    pub(crate) fn writer(&self) -> WriterGate {
        if self.steal_phase() {
            return WriterGate::Steal;
        }
        let ahead = self
            .unreached()
            .iter()
            .any(|w| matches!(w.rule, GateRule::OpenAfterSteals(target) if target > self.steals));
        if ahead && !self.cancelled {
            WriterGate::Wait { arm: self.arms + 1 }
        } else {
            WriterGate::Free
        }
    }

    /// The windows the sender has not reached yet.
    pub(crate) fn unreached(&self) -> &[GateWindow] {
        &self.windows[self.next..]
    }

    /// Data wires counted so far: the ordinal of the latest one.
    pub(crate) fn wires(&self) -> u64 {
        self.wires
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn credit(wire: u64, target: u64) -> GateWindow {
        GateWindow {
            wire,
            rule: GateRule::OpenAfterSteals(target),
        }
    }

    #[test]
    fn ungated_wires_pass_without_blocking() {
        let mut gate = GateScript::new(vec![credit(3, 1)], true);
        assert_eq!(gate.pass_wire(), WireGate::Pass); // wire 1
        assert_eq!(gate.pass_wire(), WireGate::Pass); // wire 2
        assert!(!gate.steal_phase());
        assert_eq!(gate.writer(), WriterGate::Wait { arm: 1 });
    }

    #[test]
    fn steal_window_blocks_until_target_met() {
        let mut gate = GateScript::new(vec![credit(1, 2)], true);
        assert_eq!(gate.pass_wire(), WireGate::Armed { target: 2 });
        assert_eq!(gate.writer(), WriterGate::Steal);
        gate.note_steal();
        assert!(
            gate.steal_phase(),
            "one steal of two leaves the window armed"
        );
        gate.note_steal();
        assert!(!gate.steal_phase(), "window disarmed after opening");
        assert_eq!(gate.writer(), WriterGate::Free);
    }

    #[test]
    fn satisfied_or_cancelled_windows_fail_open() {
        let mut gate = GateScript::new(vec![credit(1, 1), credit(2, 5)], true);
        gate.note_steal();
        assert_eq!(
            gate.pass_wire(),
            WireGate::Pass,
            "target already met: no hold"
        );
        gate.cancel();
        assert_eq!(gate.writer(), WriterGate::Free);
        assert_eq!(
            gate.pass_wire(),
            WireGate::Inert,
            "retired writer cancels the window"
        );
        assert!(!gate.steal_phase());
        // No writer at all: credit windows are inert from the start, a
        // hold still holds.
        let hold = GateWindow {
            wire: 2,
            rule: GateRule::Hold(Duration::from_millis(1)),
        };
        let mut alone = GateScript::new(vec![credit(1, 1), hold], false);
        assert_eq!(alone.writer(), WriterGate::Free);
        assert_eq!(alone.pass_wire(), WireGate::Inert);
        assert_eq!(alone.pass_wire(), WireGate::Hold(Duration::from_millis(1)));
    }

    #[test]
    fn hold_window_sleeps_and_reports() {
        let mut gate = GateScript::new(
            vec![GateWindow {
                wire: 2,
                rule: GateRule::Hold(Duration::from_millis(20)),
            }],
            true,
        );
        assert_eq!(gate.pass_wire(), WireGate::Pass);
        assert_eq!(gate.pass_wire(), WireGate::Hold(Duration::from_millis(20)));
        assert_eq!(gate.wires(), 2);
        assert!(!gate.steal_phase(), "a hold involves no writer");
    }

    /// The two transitions an interpreter wakes its waiters on: the arm
    /// (the writer starts stealing) and the opening (the sender resumes).
    #[test]
    fn waker_fires_on_arm_and_disarm() {
        let mut gate = GateScript::new(vec![credit(1, 1), credit(3, 2)], true);
        assert_eq!(gate.writer(), WriterGate::Wait { arm: 1 });
        assert_eq!(gate.pass_wire(), WireGate::Armed { target: 1 });
        assert_eq!(gate.writer(), WriterGate::Steal);
        gate.note_steal();
        assert!(!gate.steal_phase());
        assert_eq!(gate.writer(), WriterGate::Wait { arm: 2 });
        assert_eq!(gate.pass_wire(), WireGate::Pass);
        assert_eq!(gate.pass_wire(), WireGate::Armed { target: 2 });
        assert_eq!(gate.unreached(), &[]);
    }

    proptest! {
        /// Over random valid scripts (strictly increasing wires,
        /// non-decreasing targets, holds mixed in) and random interleavings
        /// of wires (moves 0-5), steals (6-8) and a cancel (9): no steal
        /// phase after cancel, no ungated wire ever held, each credit window
        /// armed at most once, and every `Wait { arm }` names the next
        /// arming.
        #[test]
        fn kernel_holds_only_scripted_wires_and_fails_open(
            draws in proptest::collection::vec((1u64..4, 0u64..3, proptest::bool::ANY), 0..6),
            writer in proptest::bool::ANY,
            moves in proptest::collection::vec(0u8..10, 0..40),
        ) {
            let (mut wire, mut target) = (0, 0);
            let mut windows = Vec::new();
            for &(dw, dt, hold) in &draws {
                wire += dw;
                let rule = if hold {
                    GateRule::Hold(Duration::from_micros(dt))
                } else {
                    target += dt;
                    GateRule::OpenAfterSteals(target)
                };
                windows.push(GateWindow { wire, rule });
            }
            let mut gate = GateScript::new(windows.clone(), writer);
            let mut armed_at = Vec::new();
            let mut cancelled = !writer;
            let mut awaited: Option<u64> = None;
            for m in moves {
                match m {
                    0..=5 => {
                        let verdict = gate.pass_wire();
                        let scripted = windows.iter().find(|w| w.wire == gate.wires());
                        match verdict {
                            WireGate::Pass => {}
                            WireGate::Hold(d) => prop_assert_eq!(
                                scripted.map(|w| w.rule),
                                Some(GateRule::Hold(d))
                            ),
                            WireGate::Armed { target } => {
                                prop_assert!(!cancelled);
                                prop_assert_eq!(
                                    scripted.map(|w| w.rule),
                                    Some(GateRule::OpenAfterSteals(target))
                                );
                                prop_assert!(!armed_at.contains(&gate.wires()));
                                armed_at.push(gate.wires());
                                if let Some(arm) = awaited.take() {
                                    prop_assert_eq!(arm, armed_at.len() as u64);
                                }
                            }
                            WireGate::Inert => prop_assert!(cancelled),
                        }
                    }
                    6..=8 => gate.note_steal(),
                    _ => {
                        gate.cancel();
                        cancelled = true;
                        awaited = None;
                    }
                }
                if cancelled {
                    prop_assert!(!gate.steal_phase());
                    prop_assert_eq!(gate.writer(), WriterGate::Free);
                }
                if let WriterGate::Wait { arm } = gate.writer() {
                    awaited = Some(arm);
                }
            }
        }
    }
}
