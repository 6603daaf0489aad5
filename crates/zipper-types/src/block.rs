//! The fine-grain data block and the producer→consumer wire messages.
//!
//! §4.2: "The data block itself contains all the necessary information that
//! the analysis application will need, which includes the time step index,
//! the process ID that sends the block, and the position of the data block
//! in the global input domain." [`BlockHeader`] carries exactly that.
//!
//! The producer's sender thread ships a [`MixedMessage`]: one in-memory data
//! block plus the list of IDs of blocks the work-stealing writer thread has
//! already parked on the parallel file system, so the consumer's reader
//! thread can fetch those independently (Figs. 8–9).

use crate::ids::{BlockId, Rank, StepId};
use bytes::Bytes;

/// Position of a block's subdomain within the global input domain, as a
/// 3-D offset (in domain cells). For non-grid applications (MD, synthetic)
/// only `x` is meaningful and denotes the element offset.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct GlobalPos {
    pub x: u64,
    pub y: u64,
    pub z: u64,
}

impl GlobalPos {
    #[inline]
    pub fn linear(x: u64) -> Self {
        GlobalPos { x, y: 0, z: 0 }
    }

    #[inline]
    pub fn new(x: u64, y: u64, z: u64) -> Self {
        GlobalPos { x, y, z }
    }
}

/// Self-describing metadata carried with every fine-grain block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BlockHeader {
    /// Unique identity: producing rank + step + per-step block index.
    pub id: BlockId,
    /// Where this block's data sits in the global input domain.
    pub pos: GlobalPos,
    /// Payload length in bytes. Kept in the header so transport and storage
    /// layers can account for sizes without touching the payload.
    pub len: u64,
    /// Total number of blocks the producing rank emits for this step.
    /// Lets a consumer detect per-(rank, step) completeness without any
    /// extra coordination message.
    pub blocks_in_step: u32,
}

impl BlockHeader {
    pub fn new(id: BlockId, pos: GlobalPos, len: u64, blocks_in_step: u32) -> Self {
        BlockHeader {
            id,
            pos,
            len,
            blocks_in_step,
        }
    }
}

/// One fine-grain data block: header + payload.
///
/// The payload is a [`Bytes`] so blocks can be cloned (e.g. Preserve mode
/// keeps a block until it is both analyzed *and* stored, §4.2) without
/// copying the underlying buffer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Block {
    pub header: BlockHeader,
    pub payload: Bytes,
}

impl Block {
    /// Build a block, checking that the header length matches the payload.
    pub fn new(header: BlockHeader, payload: Bytes) -> Self {
        assert_eq!(
            header.len,
            payload.len() as u64,
            "block {:?}: header.len does not match payload length",
            header.id
        );
        Block { header, payload }
    }

    /// Convenience constructor used by producers: derives the header length
    /// from the payload.
    pub fn from_payload(
        src: Rank,
        step: StepId,
        idx: u32,
        blocks_in_step: u32,
        pos: GlobalPos,
        payload: Bytes,
    ) -> Self {
        let header = BlockHeader::new(
            BlockId::new(src, step, idx),
            pos,
            payload.len() as u64,
            blocks_in_step,
        );
        Block { header, payload }
    }

    #[inline]
    pub fn id(&self) -> BlockId {
        self.header.id
    }

    /// Total bytes this block occupies on the wire (header modeled as a
    /// fixed 64-byte envelope + payload). The envelope size only matters to
    /// the simulator's bandwidth accounting.
    #[inline]
    pub fn wire_bytes(&self) -> u64 {
        64 + self.header.len
    }
}

/// Wire message from a producer's sender thread to a consumer's receiver
/// thread: one data block moved over the low-latency network, plus the IDs
/// of blocks that took the parallel-file-system path and are ready to be
/// read from disk (Fig. 8: "mixed messages").
///
/// `data` is `None` for a *flush* message that only carries on-disk IDs —
/// needed at end-of-stream when the writer parked the final blocks on disk
/// and the sender has no fresh in-memory block to piggyback on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MixedMessage {
    /// The in-memory block travelling on the message channel, if any.
    pub data: Option<Block>,
    /// IDs of blocks already stored on the PFS by the writer thread.
    pub on_disk: Vec<BlockId>,
}

impl MixedMessage {
    pub fn data_only(block: Block) -> Self {
        MixedMessage {
            data: Some(block),
            on_disk: Vec::new(),
        }
    }

    pub fn mixed(block: Block, on_disk: Vec<BlockId>) -> Self {
        MixedMessage {
            data: Some(block),
            on_disk,
        }
    }

    pub fn disk_only(on_disk: Vec<BlockId>) -> Self {
        MixedMessage {
            data: None,
            on_disk,
        }
    }

    /// Number of logical blocks announced by this message.
    pub fn block_count(&self) -> usize {
        self.on_disk.len() + usize::from(self.data.is_some())
    }

    /// Bytes this message occupies on the message channel: the data block
    /// (if present) plus 16 bytes per announced on-disk ID.
    pub fn wire_bytes(&self) -> u64 {
        self.data.as_ref().map_or(64, Block::wire_bytes) + 16 * self.on_disk.len() as u64
    }
}

/// Deterministically fill a payload of `len` bytes derived from the block
/// identity. Used by tests and synthetic workloads so receivers can verify
/// payload integrity end to end.
pub fn deterministic_payload(id: BlockId, len: usize) -> Bytes {
    let seed = id.as_u64();
    let mut out = Vec::with_capacity(len);
    // xorshift64* keeps this fast and dependency-free; quality is irrelevant,
    // only determinism and non-triviality matter.
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    while out.len() < len {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        let word = s.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let bytes = word.to_le_bytes();
        let take = bytes.len().min(len - out.len());
        out.extend_from_slice(&bytes[..take]);
    }
    Bytes::from(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(len: usize) -> Block {
        let id = BlockId::new(Rank(2), StepId(5), 1);
        Block::new(
            BlockHeader::new(id, GlobalPos::linear(128), len as u64, 4),
            deterministic_payload(id, len),
        )
    }

    #[test]
    fn from_payload_derives_header() {
        let b = Block::from_payload(
            Rank(1),
            StepId(2),
            3,
            8,
            GlobalPos::new(1, 2, 3),
            Bytes::from_static(b"hello"),
        );
        assert_eq!(b.header.len, 5);
        assert_eq!(b.header.blocks_in_step, 8);
        assert_eq!(b.id(), BlockId::new(Rank(1), StepId(2), 3));
    }

    #[test]
    #[should_panic(expected = "does not match payload length")]
    fn mismatched_header_rejected() {
        let id = BlockId::new(Rank(0), StepId(0), 0);
        let _ = Block::new(
            BlockHeader::new(id, GlobalPos::default(), 10, 1),
            Bytes::from_static(b"short"),
        );
    }

    #[test]
    fn deterministic_payload_is_deterministic_and_id_dependent() {
        let a = deterministic_payload(BlockId::new(Rank(1), StepId(1), 0), 256);
        let b = deterministic_payload(BlockId::new(Rank(1), StepId(1), 0), 256);
        let c = deterministic_payload(BlockId::new(Rank(1), StepId(1), 1), 256);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 256);
    }

    #[test]
    fn mixed_message_accounting() {
        let b = block(1024);
        let m = MixedMessage::mixed(
            b.clone(),
            vec![
                BlockId::new(Rank(2), StepId(4), 0),
                BlockId::new(Rank(2), StepId(4), 1),
            ],
        );
        assert_eq!(m.block_count(), 3);
        assert_eq!(m.wire_bytes(), b.wire_bytes() + 32);

        let flush = MixedMessage::disk_only(vec![BlockId::new(Rank(0), StepId(0), 0)]);
        assert_eq!(flush.block_count(), 1);
        assert_eq!(flush.wire_bytes(), 64 + 16);
    }

    #[test]
    fn block_clone_shares_payload() {
        let b = block(4096);
        let c = b.clone();
        // `Bytes` clones share the same backing buffer.
        assert_eq!(b.payload.as_ptr(), c.payload.as_ptr());
    }
}
