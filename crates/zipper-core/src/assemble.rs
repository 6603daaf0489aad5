//! Reassembling per-(rank, step) slabs from fine-grain blocks.
//!
//! Zipper deliberately delivers fine-grain blocks in *arrival order* —
//! any interleaving of sources, steps, and channels. Analyses that work
//! block-locally (moments, variance) fold them directly; analyses that
//! need a rank's whole step slab (e.g. MSD over an atom array) use a
//! [`StepAssembler`] to regroup blocks, completing slabs as their last
//! block lands. Each block's header carries everything needed (§4.2):
//! source rank, step, index, and per-step block count.

use std::collections::HashMap;
use zipper_types::{Block, Rank, StepId};

/// A fully reassembled per-(rank, step) output slab.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slab {
    pub src: Rank,
    pub step: StepId,
    /// Concatenated payloads of all blocks, in block-index order.
    pub bytes: Vec<u8>,
}

/// Incremental slab reassembly from out-of-order fine-grain blocks.
#[derive(Default)]
pub struct StepAssembler {
    partial: HashMap<(Rank, StepId), Vec<Option<Block>>>,
}

impl StepAssembler {
    pub fn new() -> Self {
        Self::default()
    }

    /// Offer one block; returns the completed slab if this was the last
    /// missing piece of its (rank, step).
    ///
    /// Panics on inconsistent metadata: duplicate block delivery, an index
    /// outside the advertised per-step count, or disagreeing counts for
    /// the same (rank, step) — all of which indicate a corrupted stream
    /// rather than recoverable conditions.
    pub fn offer(&mut self, block: Block) -> Option<Slab> {
        let key = (block.id().src, block.id().step);
        let n = block.header.blocks_in_step as usize;
        assert!(n > 0, "block {key:?} advertises zero blocks per step");
        let slots = self.partial.entry(key).or_insert_with(|| vec![None; n]);
        assert_eq!(
            slots.len(),
            n,
            "blocks of {key:?} disagree on blocks_in_step"
        );
        let idx = block.id().idx as usize;
        assert!(idx < n, "block index {idx} outside 0..{n} for {key:?}");
        assert!(slots[idx].is_none(), "duplicate block {:?}", block.id());
        slots[idx] = Some(block);

        if slots.iter().all(Option::is_some) {
            let slots = self.partial.remove(&key).expect("entry exists");
            let mut bytes =
                Vec::with_capacity(slots.iter().flatten().map(|b| b.payload.len()).sum());
            for b in slots.into_iter().flatten() {
                bytes.extend_from_slice(&b.payload);
            }
            Some(Slab {
                src: key.0,
                step: key.1,
                bytes,
            })
        } else {
            None
        }
    }

    /// Number of slabs currently awaiting more blocks.
    pub fn pending(&self) -> usize {
        self.partial.len()
    }

    /// True when no partially assembled slabs remain — call at end of
    /// stream to verify nothing was lost.
    pub fn is_drained(&self) -> bool {
        self.partial.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use zipper_types::GlobalPos;

    fn block(src: u32, step: u64, idx: u32, n: u32, fill: u8) -> Block {
        Block::from_payload(
            Rank(src),
            StepId(step),
            idx,
            n,
            GlobalPos::default(),
            Bytes::from(vec![fill; 4]),
        )
    }

    #[test]
    fn completes_in_index_order_regardless_of_arrival_order() {
        let mut asm = StepAssembler::new();
        assert!(asm.offer(block(1, 0, 2, 3, 2)).is_none());
        assert!(asm.offer(block(1, 0, 0, 3, 0)).is_none());
        assert_eq!(asm.pending(), 1);
        let slab = asm.offer(block(1, 0, 1, 3, 1)).expect("complete");
        assert_eq!(slab.src, Rank(1));
        assert_eq!(slab.step, StepId(0));
        assert_eq!(slab.bytes, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
        assert!(asm.is_drained());
    }

    #[test]
    fn interleaved_ranks_and_steps_do_not_mix() {
        let mut asm = StepAssembler::new();
        assert!(asm.offer(block(1, 0, 0, 2, 10)).is_none());
        assert!(asm.offer(block(2, 0, 0, 2, 20)).is_none());
        assert!(asm.offer(block(1, 1, 0, 2, 11)).is_none());
        assert_eq!(asm.pending(), 3);
        let s = asm.offer(block(2, 0, 1, 2, 21)).expect("rank 2 completes");
        assert_eq!(s.src, Rank(2));
        assert_eq!(s.bytes, [20, 20, 20, 20, 21, 21, 21, 21]);
        assert_eq!(asm.pending(), 2);
    }

    #[test]
    fn single_block_step_completes_immediately() {
        let mut asm = StepAssembler::new();
        let s = asm.offer(block(0, 5, 0, 1, 9)).expect("immediate");
        assert_eq!(s.step, StepId(5));
    }

    #[test]
    #[should_panic(expected = "duplicate block")]
    fn duplicate_delivery_is_a_hard_error() {
        let mut asm = StepAssembler::new();
        let _ = asm.offer(block(0, 0, 0, 2, 1));
        let _ = asm.offer(block(0, 0, 0, 2, 1));
    }

    #[test]
    #[should_panic(expected = "disagree on blocks_in_step")]
    fn inconsistent_counts_are_a_hard_error() {
        let mut asm = StepAssembler::new();
        let _ = asm.offer(block(0, 0, 0, 3, 1));
        let _ = asm.offer(block(0, 0, 1, 2, 1));
    }
}
