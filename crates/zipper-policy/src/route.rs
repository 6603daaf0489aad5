//! Block→consumer routing as one explicit shared-state object.
//!
//! The paper's producer runtime has *two* threads that hand blocks to
//! consumers — the sender (message channel) and the writer (file channel,
//! Algorithm 1) — and both must agree on the destination of each block.
//! Making the rotation an object that both threads consult through one lock
//! is what fixes the historical bug where each thread kept its own
//! round-robin counter and the two channels dealt to different consumers.

use std::ops::Range;
use zipper_types::{BlockId, Rank, RoutingPolicy};

/// Deterministic block→consumer assignment.
///
/// * [`RoutingPolicy::SourceAffine`] is a pure function of the producing
///   rank (`src mod consumers`) — stateless, so sharing is trivially safe.
/// * [`RoutingPolicy::RoundRobin`] deals blocks over consumers **in take
///   order**: the k-th block routed by this `Router` goes to consumer
///   `k mod consumers`, regardless of which thread took it or which channel
///   carries it. Substrates must call [`Router::route`] while holding the
///   producer-buffer lock so take order is well-defined.
#[derive(Clone, Debug)]
pub struct Router {
    policy: RoutingPolicy,
    consumers: usize,
    /// Blocks dealt so far (RoundRobin only).
    dealt: u64,
}

impl Router {
    /// A router over `consumers` analysis ranks.
    ///
    /// # Panics
    /// If `consumers` is zero — a workflow with no consumers has nowhere to
    /// route and is rejected by config validation long before this point.
    pub fn new(policy: RoutingPolicy, consumers: usize) -> Self {
        assert!(consumers > 0, "router needs at least one consumer");
        Router {
            policy,
            consumers,
            dealt: 0,
        }
    }

    /// The routing policy this router implements.
    pub fn policy(&self) -> RoutingPolicy {
        self.policy
    }

    /// Number of consumers blocks are dealt over.
    pub fn consumers(&self) -> usize {
        self.consumers
    }

    /// Decide the destination consumer for `block`.
    #[inline]
    pub fn route(&mut self, block: BlockId) -> Rank {
        match self.policy {
            RoutingPolicy::SourceAffine => Rank((block.src.idx() % self.consumers) as u32),
            RoutingPolicy::RoundRobin => {
                let dest = (self.dealt % self.consumers as u64) as u32;
                self.dealt += 1;
                Rank(dest)
            }
        }
    }

    /// Every consumer this router can ever deal a block of producer `src`
    /// to: `{src mod consumers}` under SourceAffine, all of them under
    /// RoundRobin. Consumers never re-route, so these are the only streams
    /// `src` opens.
    pub(crate) fn reach(&self, src: Rank) -> Range<u32> {
        match self.policy {
            RoutingPolicy::SourceAffine => {
                let q = (src.idx() % self.consumers) as u32;
                q..q + 1
            }
            RoutingPolicy::RoundRobin => 0..self.consumers as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zipper_types::StepId;

    fn id(src: u32, idx: u32) -> BlockId {
        BlockId::new(Rank(src), StepId(0), idx)
    }

    #[test]
    fn source_affine_ignores_take_order() {
        let mut r = Router::new(RoutingPolicy::SourceAffine, 3);
        assert_eq!(r.route(id(4, 0)), Rank(1));
        assert_eq!(r.route(id(0, 1)), Rank(0));
        assert_eq!(r.route(id(4, 2)), Rank(1));
    }

    #[test]
    fn round_robin_deals_in_take_order() {
        let mut r = Router::new(RoutingPolicy::RoundRobin, 2);
        // Destination depends only on position in the take sequence, not on
        // the block's identity.
        assert_eq!(r.route(id(7, 3)), Rank(0));
        assert_eq!(r.route(id(7, 3)), Rank(1));
        assert_eq!(r.route(id(0, 0)), Rank(0));
    }

    #[test]
    #[should_panic(expected = "at least one consumer")]
    fn zero_consumers_rejected() {
        let _ = Router::new(RoutingPolicy::RoundRobin, 0);
    }
}
