//! Span vocabulary.

use std::fmt;
use zipper_types::SimTime;

/// A trace lane: one row in a timeline. A lane is usually one rank or one
/// runtime thread of a rank ("r12/sender"). Lanes are created through
/// [`crate::TraceLog::lane`] which interns the label.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LaneId(pub u32);

impl LaneId {
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// What a lane was doing during a span. The variants mirror the activity
/// categories visible in the paper's TAU/ITAC screenshots.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SpanKind {
    /// Generic application computation.
    Compute,
    /// LBM collision kernel (paper's "CL").
    Collision,
    /// LBM streaming kernel (paper's "ST") — contains MPI_Sendrecv.
    Streaming,
    /// LBM macroscopic update (paper's "UD").
    Update,
    /// Data analysis computation on the consumer side.
    Analysis,
    /// Point-to-point send (message channel).
    Send,
    /// Point-to-point receive.
    Recv,
    /// The simulation's own halo exchange (MPI_Sendrecv). Kept separate
    /// from `Send`/`Recv` because the paper tracks its inflation under
    /// staging interference (Figs. 5, 6, 17).
    Sendrecv,
    /// Blocked: producer buffer full / consumer starved / interlocked.
    Stall,
    /// Waiting for or holding a staging lock (DataSpaces/DIMES).
    Lock,
    /// Collective barrier.
    Barrier,
    /// MPI_Waitall on outstanding requests (Decaf PUT).
    Waitall,
    /// Writing to the parallel file system.
    FsWrite,
    /// Reading from the parallel file system.
    FsRead,
    /// Consumer application blocked waiting for the next block to arrive
    /// (the analysis-side mirror of the producer's `Stall`).
    ReadWait,
    /// Transport-level put (staging insert).
    Put,
    /// Transport-level get (staging extract).
    Get,
    /// Backoff sleep before re-attempting a failed send/connect/PFS write
    /// (the fail-soft layer's bounded retry).
    Retry,
    /// A policy-kernel decision (route, steal, EOS, store) injected from a
    /// recorded `zipper-policy` trace. Zero-duration markers in decision
    /// order, not elapsed time.
    Policy,
    /// Idle (nothing scheduled).
    Idle,
}

impl SpanKind {
    /// One-character glyph for ASCII timeline rendering.
    pub fn glyph(self) -> char {
        match self {
            SpanKind::Compute => 'C',
            SpanKind::Collision => 'c',
            SpanKind::Streaming => 's',
            SpanKind::Update => 'u',
            SpanKind::Analysis => 'A',
            SpanKind::Send => '>',
            SpanKind::Recv => '<',
            SpanKind::Sendrecv => 'x',
            SpanKind::Stall => '!',
            SpanKind::Lock => 'L',
            SpanKind::Barrier => 'B',
            SpanKind::Waitall => 'W',
            SpanKind::FsWrite => 'w',
            SpanKind::FsRead => 'r',
            SpanKind::ReadWait => '~',
            SpanKind::Put => 'P',
            SpanKind::Get => 'G',
            SpanKind::Retry => 'R',
            SpanKind::Policy => 'p',
            SpanKind::Idle => '.',
        }
    }

    /// True for kinds that represent lost time rather than useful work:
    /// the paper's "performance inefficiencies" (stalls, locks, barriers,
    /// waitalls, idling).
    pub fn is_overhead(self) -> bool {
        matches!(
            self,
            SpanKind::Stall
                | SpanKind::Lock
                | SpanKind::Barrier
                | SpanKind::Waitall
                | SpanKind::ReadWait
                | SpanKind::Retry
                | SpanKind::Idle
        )
    }

    /// All kinds, for iteration in breakdown tables.
    pub const ALL: [SpanKind; 20] = [
        SpanKind::Compute,
        SpanKind::Collision,
        SpanKind::Streaming,
        SpanKind::Update,
        SpanKind::Analysis,
        SpanKind::Send,
        SpanKind::Recv,
        SpanKind::Sendrecv,
        SpanKind::Stall,
        SpanKind::Lock,
        SpanKind::Barrier,
        SpanKind::Waitall,
        SpanKind::FsWrite,
        SpanKind::FsRead,
        SpanKind::ReadWait,
        SpanKind::Put,
        SpanKind::Get,
        SpanKind::Retry,
        SpanKind::Policy,
        SpanKind::Idle,
    ];

    /// Dense index into per-kind accumulation arrays.
    pub fn index(self) -> usize {
        match self {
            SpanKind::Compute => 0,
            SpanKind::Collision => 1,
            SpanKind::Streaming => 2,
            SpanKind::Update => 3,
            SpanKind::Analysis => 4,
            SpanKind::Send => 5,
            SpanKind::Recv => 6,
            SpanKind::Sendrecv => 7,
            SpanKind::Stall => 8,
            SpanKind::Lock => 9,
            SpanKind::Barrier => 10,
            SpanKind::Waitall => 11,
            SpanKind::FsWrite => 12,
            SpanKind::FsRead => 13,
            SpanKind::ReadWait => 14,
            SpanKind::Put => 15,
            SpanKind::Get => 16,
            SpanKind::Retry => 17,
            SpanKind::Policy => 18,
            SpanKind::Idle => 19,
        }
    }
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SpanKind::Compute => "compute",
            SpanKind::Collision => "collision",
            SpanKind::Streaming => "streaming",
            SpanKind::Update => "update",
            SpanKind::Analysis => "analysis",
            SpanKind::Send => "send",
            SpanKind::Recv => "recv",
            SpanKind::Sendrecv => "sendrecv",
            SpanKind::Stall => "stall",
            SpanKind::Lock => "lock",
            SpanKind::Barrier => "barrier",
            SpanKind::Waitall => "waitall",
            SpanKind::FsWrite => "fs_write",
            SpanKind::FsRead => "fs_read",
            SpanKind::ReadWait => "read_wait",
            SpanKind::Put => "put",
            SpanKind::Get => "get",
            SpanKind::Retry => "retry",
            SpanKind::Policy => "policy",
            SpanKind::Idle => "idle",
        };
        f.write_str(name)
    }
}

/// One recorded interval on one lane. Spans may carry a step marker so the
/// window statistics can count completed steps (Figs. 17/19).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub lane: LaneId,
    pub kind: SpanKind,
    pub t0: SimTime,
    pub t1: SimTime,
    /// Step index this span belongs to, if meaningful (`u64::MAX` = none).
    pub step: u64,
}

impl Span {
    pub const NO_STEP: u64 = u64::MAX;

    pub fn new(lane: LaneId, kind: SpanKind, t0: SimTime, t1: SimTime) -> Self {
        debug_assert!(t1 >= t0, "span must not end before it starts");
        Span {
            lane,
            kind,
            t0,
            t1,
            step: Self::NO_STEP,
        }
    }

    pub fn with_step(mut self, step: u64) -> Self {
        self.step = step;
        self
    }

    #[inline]
    pub fn duration(&self) -> SimTime {
        self.t1 - self.t0
    }

    /// Portion of this span's duration that overlaps `[a, b)`.
    pub fn overlap(&self, a: SimTime, b: SimTime) -> SimTime {
        let lo = self.t0.max(a);
        let hi = self.t1.min(b);
        hi.saturating_sub(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_indices_are_dense_and_unique() {
        let mut seen = [false; SpanKind::ALL.len()];
        for k in SpanKind::ALL {
            let i = k.index();
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn glyphs_are_unique() {
        let mut glyphs: Vec<char> = SpanKind::ALL.iter().map(|k| k.glyph()).collect();
        glyphs.sort_unstable();
        glyphs.dedup();
        assert_eq!(glyphs.len(), SpanKind::ALL.len());
    }

    #[test]
    fn overhead_classification() {
        assert!(SpanKind::Stall.is_overhead());
        assert!(SpanKind::Waitall.is_overhead());
        assert!(!SpanKind::Compute.is_overhead());
        assert!(!SpanKind::FsWrite.is_overhead());
    }

    #[test]
    fn span_overlap_clamps() {
        let s = Span::new(
            LaneId(0),
            SpanKind::Compute,
            SimTime::from_millis(10),
            SimTime::from_millis(20),
        );
        assert_eq!(s.duration(), SimTime::from_millis(10));
        assert_eq!(
            s.overlap(SimTime::from_millis(15), SimTime::from_millis(40)),
            SimTime::from_millis(5)
        );
        assert_eq!(
            s.overlap(SimTime::ZERO, SimTime::from_millis(5)),
            SimTime::ZERO
        );
        assert_eq!(
            s.overlap(SimTime::ZERO, SimTime::from_millis(100)),
            SimTime::from_millis(10)
        );
    }
}
