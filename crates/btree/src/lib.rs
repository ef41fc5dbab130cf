#![warn(missing_docs)]
//! The record management component of the Disk Process.
//!
//! "The record management component of the Disk Process implements the
//! access methods supporting the file structures common to ENSCRIBE and
//! NonStop SQL: key-sequenced (B-Tree); relative (direct access);
//! entry-sequenced (direct access for reads, insert at EOF only)."
//!
//! All three access methods operate on 4 KB blocks obtained through a
//! [`BlockStore`] — in production the Disk Process's buffer pool, in tests
//! a [`MemStore`]. The B-tree implements splits and *collapses* (the
//! paper's term for structure shrinkage), which is what breaks physical
//! clustering and shortens the cache's bulk-I/O strings.

pub mod entryseq;
pub mod node;
pub mod relative;
pub mod tree;

pub use entryseq::EntrySequencedFile;
pub use relative::RelativeFile;
pub use tree::{BTreeFile, ScanControl, TreeError};

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// Block index within a volume (mirrors `nsql_disk::BlockNo` without the
/// dependency).
pub type BlockNo = u32;

/// Abstract block storage: the Disk Process's cache, or memory in tests.
///
/// Block images are immutable and shared (`Arc<[u8]>`): a read hands out
/// the store's own image and a write installs the caller's, so neither
/// copies a block.
pub trait BlockStore {
    /// Block size in bytes.
    fn block_size(&self) -> usize;
    /// Read a block (point access).
    fn read(&self, block: BlockNo) -> Arc<[u8]>;
    /// Read a block as part of a sequential scan. Implementations may apply
    /// bulk I/O; by default identical to [`BlockStore::read`].
    fn read_for_scan(&self, block: BlockNo) -> Arc<[u8]> {
        self.read(block)
    }
    /// Advise that `block` will be needed soon (the B-tree scan announces
    /// the next leaf in the chain). Implementations may pre-fetch
    /// asynchronously; by default a no-op.
    fn will_need(&self, _block: BlockNo) {}
    /// Write (replace) a block.
    fn write(&self, block: BlockNo, data: Arc<[u8]>);
    /// Allocate a fresh block number.
    fn alloc(&self) -> BlockNo;
    /// Return a block to the free pool.
    fn free(&self, block: BlockNo);
}

/// In-memory block store for unit and property tests.
#[derive(Default)]
pub struct MemStore {
    blocks: RefCell<HashMap<BlockNo, Arc<[u8]>>>,
    next: RefCell<BlockNo>,
    free_list: RefCell<Vec<BlockNo>>,
    block_size: usize,
}

impl MemStore {
    /// A store with the standard 4 KB blocks.
    pub fn new() -> Self {
        Self::with_block_size(4096)
    }

    /// A store with custom-size blocks (small blocks force deep trees in
    /// tests).
    pub fn with_block_size(block_size: usize) -> Self {
        MemStore {
            blocks: RefCell::new(HashMap::new()),
            next: RefCell::new(0),
            free_list: RefCell::new(Vec::new()),
            block_size,
        }
    }

    /// Number of live (allocated, not freed) blocks.
    pub fn live_blocks(&self) -> usize {
        self.blocks.borrow().len()
    }
}

impl BlockStore for MemStore {
    fn block_size(&self) -> usize {
        self.block_size
    }
    fn read(&self, block: BlockNo) -> Arc<[u8]> {
        let blocks = self.blocks.borrow();
        match blocks.get(&block) {
            Some(data) => Arc::clone(data),
            None => panic!("read of unallocated block {block}"),
        }
    }
    fn write(&self, block: BlockNo, data: Arc<[u8]>) {
        assert!(data.len() <= self.block_size, "block overflow");
        self.blocks.borrow_mut().insert(block, data);
    }
    fn alloc(&self) -> BlockNo {
        if let Some(b) = self.free_list.borrow_mut().pop() {
            self.blocks.borrow_mut().insert(b, Arc::from([]));
            return b;
        }
        let mut next = self.next.borrow_mut();
        let b = *next;
        *next += 1;
        self.blocks.borrow_mut().insert(b, Arc::from([]));
        b
    }
    fn free(&self, block: BlockNo) {
        self.blocks.borrow_mut().remove(&block);
        self.free_list.borrow_mut().push(block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memstore_alloc_reuses_freed() {
        let s = MemStore::new();
        let a = s.alloc();
        let b = s.alloc();
        assert_ne!(a, b);
        s.free(a);
        let c = s.alloc();
        assert_eq!(c, a, "freed block is recycled");
        assert_eq!(s.live_blocks(), 2);
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn memstore_read_unallocated_panics() {
        let s = MemStore::new();
        s.read(7);
    }
}
