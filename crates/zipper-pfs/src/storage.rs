//! Block object stores for the real (threaded) runtime.
//!
//! The writer thread of the producer module and the output thread of the
//! consumer module (Figs. 8–9) both talk to a [`Storage`]: a thread-safe
//! keyed object store addressed by [`BlockId`].

use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fs;
use std::io::{self, IoSlice, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use zipper_types::{Block, BlockHeader, BlockId, Error, GlobalPos, Result};

/// A thread-safe block store. All methods take `&self`; implementations are
/// internally synchronized so the producer's writer thread, the consumer's
/// reader thread, and the output thread can share one handle.
pub trait Storage: Send + Sync {
    /// Store a block. Overwrites silently if the id already exists (the
    /// runtime never reuses ids, so an overwrite indicates a caller bug but
    /// is harmless).
    fn put(&self, block: &Block) -> Result<()>;

    /// Fetch a block by id.
    fn get(&self, id: BlockId) -> Result<Block>;

    /// Whether a block is present.
    fn contains(&self, id: BlockId) -> bool;

    /// Remove a block; succeeds silently when absent.
    fn delete(&self, id: BlockId) -> Result<()>;

    /// Number of stored blocks.
    fn len(&self) -> usize;

    /// True when no blocks are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total payload bytes ever written through `put` (for reports).
    fn bytes_written(&self) -> u64;

    /// Operations that were retried after a transient failure. Plain
    /// backends never retry; [`crate::RetryingFs`] overrides this and
    /// decorators forward it, so the workflow report can surface storage
    /// retry counts regardless of how the stack is composed.
    fn retries(&self) -> u64 {
        0
    }
}

/// Shared handles are stores too, so decorators like [`crate::RetryingFs`]
/// can wrap an `Arc<dyn Storage>` the same way they wrap a concrete
/// backend.
impl<S: Storage + ?Sized> Storage for std::sync::Arc<S> {
    fn put(&self, block: &Block) -> Result<()> {
        (**self).put(block)
    }

    fn get(&self, id: BlockId) -> Result<Block> {
        (**self).get(id)
    }

    fn contains(&self, id: BlockId) -> bool {
        (**self).contains(id)
    }

    fn delete(&self, id: BlockId) -> Result<()> {
        (**self).delete(id)
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    fn bytes_written(&self) -> u64 {
        (**self).bytes_written()
    }

    fn retries(&self) -> u64 {
        (**self).retries()
    }
}

/// In-memory object store. The default backend for tests and for
/// experiments where the PFS bandwidth is modeled by [`crate::ThrottledFs`]
/// rather than by actual disk speed.
#[derive(Default)]
pub struct MemFs {
    map: RwLock<HashMap<u64, Block>>,
    written: AtomicU64,
}

impl MemFs {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Storage for MemFs {
    fn put(&self, block: &Block) -> Result<()> {
        self.written.fetch_add(block.header.len, Ordering::Relaxed);
        self.map.write().insert(block.id().as_u64(), block.clone());
        Ok(())
    }

    fn get(&self, id: BlockId) -> Result<Block> {
        self.map
            .read()
            .get(&id.as_u64())
            .cloned()
            .ok_or(Error::BlockNotFound(id))
    }

    fn contains(&self, id: BlockId) -> bool {
        self.map.read().contains_key(&id.as_u64())
    }

    fn delete(&self, id: BlockId) -> Result<()> {
        self.map.write().remove(&id.as_u64());
        Ok(())
    }

    fn len(&self) -> usize {
        self.map.read().len()
    }

    fn bytes_written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }
}

/// On-disk object store: one file per block under a root directory.
///
/// File layout: a fixed 48-byte header (magic, id key, position, payload
/// length, blocks-in-step) followed by the raw payload. The format is deliberately
/// trivial — the paper's PFS path stores self-describing blocks so the
/// consumer's reader thread can reconstruct the block from its id alone.
pub struct DiskFs {
    root: PathBuf,
    written: AtomicU64,
    count: AtomicU64,
}

const DISK_MAGIC: u32 = 0x5A49_5046; // "ZIPF"
const DISK_HEADER: usize = 48;

impl DiskFs {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn new(root: impl AsRef<Path>) -> Result<Self> {
        fs::create_dir_all(root.as_ref())?;
        Ok(DiskFs {
            root: root.as_ref().to_path_buf(),
            written: AtomicU64::new(0),
            count: AtomicU64::new(0),
        })
    }

    fn path_for(&self, id: BlockId) -> PathBuf {
        self.root.join(format!("{:016x}.blk", id.as_u64()))
    }
}

impl Storage for DiskFs {
    fn put(&self, block: &Block) -> Result<()> {
        let p = self.path_for(block.id());
        let fresh = !p.exists();
        let mut f = fs::File::create(&p)?;
        let h = &block.header;
        let mut header = [0u8; DISK_HEADER];
        header[0..4].copy_from_slice(&DISK_MAGIC.to_le_bytes());
        header[4..12].copy_from_slice(&h.id.as_u64().to_le_bytes());
        header[12..20].copy_from_slice(&h.pos.x.to_le_bytes());
        header[20..28].copy_from_slice(&h.pos.y.to_le_bytes());
        header[28..36].copy_from_slice(&h.pos.z.to_le_bytes());
        header[36..44].copy_from_slice(&h.len.to_le_bytes());
        header[44..48].copy_from_slice(&h.blocks_in_step.to_le_bytes());
        // Header and payload in one write(2); loop only on a short write.
        let mut bufs = [IoSlice::new(&header), IoSlice::new(&block.payload)];
        let mut bufs = &mut bufs[..];
        while !bufs.is_empty() {
            match f.write_vectored(bufs) {
                Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero).into()),
                Ok(n) => IoSlice::advance_slices(&mut bufs, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        self.written.fetch_add(h.len, Ordering::Relaxed);
        if fresh {
            self.count.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn get(&self, id: BlockId) -> Result<Block> {
        let p = self.path_for(id);
        let mut f = match fs::File::open(&p) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(Error::BlockNotFound(id))
            }
            Err(e) => return Err(e.into()),
        };
        // `File::read_to_end` reserves the file's size up front: one
        // allocation, which the returned block keeps.
        let mut buf = Vec::new();
        f.read_to_end(&mut buf)?;
        if buf.len() < DISK_HEADER {
            return Err(Error::Storage(format!("truncated block file {p:?}")));
        }
        let magic = u32::from_le_bytes(buf[0..4].try_into().unwrap());
        if magic != DISK_MAGIC {
            return Err(Error::Storage(format!("bad magic in {p:?}")));
        }
        let key = u64::from_le_bytes(buf[4..12].try_into().unwrap());
        let x = u64::from_le_bytes(buf[12..20].try_into().unwrap());
        let y = u64::from_le_bytes(buf[20..28].try_into().unwrap());
        let z = u64::from_le_bytes(buf[28..36].try_into().unwrap());
        let len = u64::from_le_bytes(buf[36..44].try_into().unwrap());
        let blocks_in_step = u32::from_le_bytes(buf[44..48].try_into().unwrap());
        // `len` is read from the file: compare without adding to it.
        if ((buf.len() - DISK_HEADER) as u64) < len {
            return Err(Error::Storage(format!("short payload in {p:?}")));
        }
        let header = BlockHeader::new(
            BlockId::from_u64(key),
            GlobalPos::new(x, y, z),
            len,
            blocks_in_step,
        );
        let payload = Bytes::from(buf).slice(DISK_HEADER..DISK_HEADER + len as usize);
        Ok(Block::new(header, payload))
    }

    fn contains(&self, id: BlockId) -> bool {
        self.path_for(id).exists()
    }

    fn delete(&self, id: BlockId) -> Result<()> {
        let p = self.path_for(id);
        match fs::remove_file(&p) {
            Ok(()) => {
                self.count.fetch_sub(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed) as usize
    }

    fn bytes_written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zipper_types::block::deterministic_payload;
    use zipper_types::{Rank, StepId};

    fn sample(idx: u32, len: usize) -> Block {
        let id = BlockId::new(Rank(7), StepId(3), idx);
        Block::from_payload(
            Rank(7),
            StepId(3),
            idx,
            16,
            GlobalPos::new(1, 2, 3),
            deterministic_payload(id, len),
        )
    }

    fn exercise(store: &dyn Storage) {
        assert!(store.is_empty());
        let b0 = sample(0, 1000);
        let b1 = sample(1, 2000);
        store.put(&b0).unwrap();
        store.put(&b1).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.bytes_written(), 3000);
        assert!(store.contains(b0.id()));
        let got = store.get(b1.id()).unwrap();
        assert_eq!(got, b1);
        assert!(matches!(
            store.get(BlockId::new(Rank(9), StepId(9), 9)),
            Err(Error::BlockNotFound(_))
        ));
        store.delete(b0.id()).unwrap();
        assert!(!store.contains(b0.id()));
        assert_eq!(store.len(), 1);
        // Deleting an absent block is fine.
        store.delete(b0.id()).unwrap();
    }

    #[test]
    fn memfs_basics() {
        exercise(&MemFs::new());
    }

    #[test]
    fn diskfs_basics() {
        let dir = std::env::temp_dir().join(format!("zipper-pfs-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskFs::new(&dir).unwrap();
        exercise(&store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn diskfs_round_trips_header_fields() {
        let dir = std::env::temp_dir().join(format!("zipper-pfs-hdr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskFs::new(&dir).unwrap();
        let b = sample(5, 123);
        store.put(&b).unwrap();
        let got = store.get(b.id()).unwrap();
        assert_eq!(got.header, b.header);
        assert_eq!(got.payload, b.payload);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memfs_is_concurrent() {
        let store = std::sync::Arc::new(MemFs::new());
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let s = store.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50u32 {
                    let id = BlockId::new(Rank(t), StepId(0), i);
                    let b = Block::from_payload(
                        Rank(t),
                        StepId(0),
                        i,
                        50,
                        GlobalPos::default(),
                        deterministic_payload(id, 64),
                    );
                    s.put(&b).unwrap();
                    assert_eq!(s.get(id).unwrap(), b);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 400);
    }
}
