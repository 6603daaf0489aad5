//! Identifier newtypes used across the workspace.
//!
//! All identifiers are small `Copy` newtypes over integers so they can be
//! used as map keys, stored in headers, and printed unambiguously. Using
//! distinct types (rather than bare `u32`s) prevents the classic bug family
//! of passing a node index where a rank was expected.

use std::fmt;

/// An application-level process rank, as in `MPI_Comm_rank`.
///
/// In the real (threaded) runtime a rank is an OS thread; in the
/// discrete-event simulator it is a virtual process. Producer (simulation)
/// and consumer (analysis) applications each have their own rank space, as
/// they do in the paper where each application is launched by its own
/// `mpirun` (multiple failure domains, §2).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rank(pub u32);

impl Rank {
    /// Rank as a usable index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A simulation time-step index.
///
/// The paper's workflows run a fixed number of steps (100 in the Fig. 2
/// setup), each producing one slab of output per simulation rank.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StepId(pub u64);

impl StepId {
    /// The next step.
    #[inline]
    pub fn next(self) -> StepId {
        StepId(self.0 + 1)
    }
}

impl fmt::Debug for StepId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for StepId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A compute-node identifier inside the simulated cluster.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A virtual-process identifier inside the discrete-event simulator.
///
/// Distinct from [`Rank`]: one application rank may be modeled by several
/// virtual processes (e.g. a Zipper simulation rank is a *compute* process,
/// a *sender* thread process, and a *writer* thread process sharing one
/// producer buffer, exactly mirroring §4.2).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub u32);

impl ProcId {
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Globally unique identifier of one fine-grain data block.
///
/// A block is uniquely named by the rank that produced it, the time step it
/// belongs to, and its index within that rank's per-step output. The paper's
/// consumer runtime uses exactly this information (plus the global position
/// carried in the header) to know "which specific block it receives" (§4.2).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId {
    /// Producing (simulation) rank.
    pub src: Rank,
    /// Simulation time step the block belongs to.
    pub step: StepId,
    /// Index of the block within `src`'s output for `step`.
    pub idx: u32,
}

impl BlockId {
    /// Create a block id.
    #[inline]
    pub fn new(src: Rank, step: StepId, idx: u32) -> Self {
        BlockId { src, step, idx }
    }

    /// A stable, collision-free 64-bit key for use in dense hash maps and
    /// as an on-disk object name. Layout: 24 bits step | 24 bits rank |
    /// 16 bits index. Panics in debug builds if a component overflows its
    /// field; the paper-scale experiments (≤13,056 ranks, ≤12,800 steps,
    /// ≤64 blocks/step) fit with ample headroom.
    #[inline]
    pub fn as_u64(self) -> u64 {
        debug_assert!(self.step.0 < (1 << 24));
        debug_assert!(self.src.0 < (1 << 24));
        debug_assert!(self.idx < (1 << 16));
        (self.step.0 << 40) | ((self.src.0 as u64) << 16) | self.idx as u64
    }

    /// Inverse of [`BlockId::as_u64`].
    #[inline]
    pub fn from_u64(key: u64) -> Self {
        BlockId {
            step: StepId(key >> 40),
            src: Rank(((key >> 16) & 0xFF_FFFF) as u32),
            idx: (key & 0xFFFF) as u32,
        }
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b[{:?}/{:?}#{}]", self.src, self.step, self.idx)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}", self.src.0, self.step.0, self.idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_id_round_trips_through_u64() {
        let id = BlockId::new(Rank(13_055), StepId(99), 63);
        assert_eq!(BlockId::from_u64(id.as_u64()), id);
    }

    #[test]
    fn block_id_key_is_injective_on_distinct_components() {
        let a = BlockId::new(Rank(1), StepId(2), 3);
        let b = BlockId::new(Rank(2), StepId(1), 3);
        let c = BlockId::new(Rank(1), StepId(2), 4);
        assert_ne!(a.as_u64(), b.as_u64());
        assert_ne!(a.as_u64(), c.as_u64());
        assert_ne!(b.as_u64(), c.as_u64());
    }

    #[test]
    fn step_next_increments() {
        assert_eq!(StepId(7).next(), StepId(8));
    }

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(Rank(3).to_string(), "3");
        assert_eq!(BlockId::new(Rank(1), StepId(2), 3).to_string(), "1.2.3");
        assert_eq!(format!("{:?}", NodeId(4)), "n4");
        assert_eq!(format!("{:?}", ProcId(5)), "p5");
    }
}
