//! Relative files: direct access by record number.
//!
//! "relative (direct access)" — ENSCRIBE's array-of-slots file structure.
//! A header block holds a directory of data blocks; each data block holds a
//! presence bitmap plus fixed-size record slots. Record number `r` maps to
//! slot `r % per_block` of data block `r / per_block`.

use crate::{BlockNo, BlockStore};

/// Errors from relative-file operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelativeError {
    /// Record number beyond the file's addressable range for this store.
    OutOfRange,
    /// Read/delete of an empty slot.
    NotFound,
    /// Record larger than the declared slot size.
    RecordTooLarge,
}

impl std::fmt::Display for RelativeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelativeError::OutOfRange => write!(f, "record number out of range"),
            RelativeError::NotFound => write!(f, "slot is empty"),
            RelativeError::RecordTooLarge => write!(f, "record exceeds slot size"),
        }
    }
}

impl std::error::Error for RelativeError {}

/// A relative file with fixed-size slots.
pub struct RelativeFile<'a, S: BlockStore> {
    store: &'a S,
    header: BlockNo,
    slot_size: usize,
}

// Header block: [slot_size: u32][ndata: u32][data block numbers: u32 ...]
// Data block:   [bitmap: ceil(per_block/8)][slots ...]

impl<'a, S: BlockStore> RelativeFile<'a, S> {
    /// Create a new relative file with `slot_size`-byte records; returns the
    /// header block number.
    pub fn create(store: &'a S, slot_size: usize) -> BlockNo {
        assert!(slot_size >= 1 && slot_size < store.block_size() - 8);
        let header = store.alloc();
        let mut h = Vec::with_capacity(8);
        h.extend_from_slice(&(slot_size as u32).to_be_bytes());
        h.extend_from_slice(&0u32.to_be_bytes());
        store.write(header, h.into());
        header
    }

    /// Open an existing relative file by header block.
    pub fn open(store: &'a S, header: BlockNo) -> Self {
        let h = store.read(header);
        let slot_size = u32::from_be_bytes(h[0..4].try_into().unwrap()) as usize;
        RelativeFile {
            store,
            header,
            slot_size,
        }
    }

    /// Records per data block.
    pub fn per_block(&self) -> usize {
        // bitmap + slots must fit: n/8 (rounded up) + n*slot <= cap
        let cap = self.store.block_size();
        let mut n = cap / self.slot_size;
        while n > 0 && n.div_ceil(8) + n * self.slot_size > cap {
            n -= 1;
        }
        n.max(1)
    }

    fn directory(&self) -> Vec<BlockNo> {
        let h = self.store.read(self.header);
        let ndata = u32::from_be_bytes(h[4..8].try_into().unwrap()) as usize;
        (0..ndata)
            .map(|i| u32::from_be_bytes(h[8 + 4 * i..12 + 4 * i].try_into().unwrap()))
            .collect()
    }

    fn save_directory(&self, dir: &[BlockNo]) {
        let mut h = Vec::with_capacity(8 + 4 * dir.len());
        h.extend_from_slice(&(self.slot_size as u32).to_be_bytes());
        h.extend_from_slice(&(dir.len() as u32).to_be_bytes());
        for b in dir {
            h.extend_from_slice(&b.to_be_bytes());
        }
        assert!(
            h.len() <= self.store.block_size(),
            "relative file too large"
        );
        self.store.write(self.header, h.into());
    }

    fn locate(&self, recnum: u64) -> (usize, usize) {
        let pb = self.per_block() as u64;
        ((recnum / pb) as usize, (recnum % pb) as usize)
    }

    /// Write (insert or replace) the record at `recnum`.
    pub fn write_record(&self, recnum: u64, data: &[u8]) -> Result<(), RelativeError> {
        if data.len() > self.slot_size {
            return Err(RelativeError::RecordTooLarge);
        }
        let (bi, si) = self.locate(recnum);
        let mut dir = self.directory();
        let max_dir = (self.store.block_size() - 8) / 4;
        if bi >= max_dir {
            return Err(RelativeError::OutOfRange);
        }
        while dir.len() <= bi {
            let b = self.store.alloc();
            let pb = self.per_block();
            self.store
                .write(b, vec![0u8; pb.div_ceil(8) + pb * self.slot_size].into());
            dir.push(b);
        }
        self.save_directory(&dir);
        let mut block = self.store.read(dir[bi]).to_vec();
        block[si / 8] |= 1 << (si % 8);
        let off = self.per_block().div_ceil(8) + si * self.slot_size;
        block[off..off + data.len()].copy_from_slice(data);
        for b in &mut block[off + data.len()..off + self.slot_size] {
            *b = 0;
        }
        self.store.write(dir[bi], block.into());
        Ok(())
    }

    /// Read the record at `recnum`.
    pub fn read_record(&self, recnum: u64) -> Result<Vec<u8>, RelativeError> {
        let (bi, si) = self.locate(recnum);
        let dir = self.directory();
        let block_no = *dir.get(bi).ok_or(RelativeError::NotFound)?;
        let block = self.store.read(block_no);
        if block[si / 8] & (1 << (si % 8)) == 0 {
            return Err(RelativeError::NotFound);
        }
        let off = self.per_block().div_ceil(8) + si * self.slot_size;
        Ok(block[off..off + self.slot_size].to_vec())
    }

    /// Delete the record at `recnum`.
    pub fn delete_record(&self, recnum: u64) -> Result<(), RelativeError> {
        let (bi, si) = self.locate(recnum);
        let dir = self.directory();
        let block_no = *dir.get(bi).ok_or(RelativeError::NotFound)?;
        let mut block = self.store.read(block_no).to_vec();
        if block[si / 8] & (1 << (si % 8)) == 0 {
            return Err(RelativeError::NotFound);
        }
        block[si / 8] &= !(1 << (si % 8));
        self.store.write(block_no, block.into());
        Ok(())
    }

    /// Visit every present record as `(recnum, bytes)`.
    pub fn scan<F: FnMut(u64, &[u8])>(&self, mut visit: F) {
        let pb = self.per_block();
        for (bi, block_no) in self.directory().into_iter().enumerate() {
            let block = self.store.read_for_scan(block_no);
            for si in 0..pb {
                if block[si / 8] & (1 << (si % 8)) != 0 {
                    let off = pb.div_ceil(8) + si * self.slot_size;
                    visit((bi * pb + si) as u64, &block[off..off + self.slot_size]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;

    #[test]
    fn write_read_delete() {
        let store = MemStore::new();
        let f = RelativeFile::open(&store, RelativeFile::create(&store, 64));
        f.write_record(5, b"hello").unwrap();
        let got = f.read_record(5).unwrap();
        assert_eq!(&got[..5], b"hello");
        assert_eq!(got.len(), 64, "slot-sized read");
        assert_eq!(f.read_record(4), Err(RelativeError::NotFound));
        f.delete_record(5).unwrap();
        assert_eq!(f.read_record(5), Err(RelativeError::NotFound));
    }

    #[test]
    fn spans_blocks() {
        let store = MemStore::with_block_size(512);
        let f = RelativeFile::open(&store, RelativeFile::create(&store, 100));
        for r in 0..40u64 {
            f.write_record(r, format!("rec{r}").as_bytes()).unwrap();
        }
        assert!(store.live_blocks() > 5, "several data blocks allocated");
        for r in 0..40u64 {
            assert_eq!(
                &f.read_record(r).unwrap()[..4],
                format!("rec{r}").as_bytes().get(..4).unwrap()
            );
        }
    }

    #[test]
    fn sparse_records_allowed() {
        let store = MemStore::new();
        let f = RelativeFile::open(&store, RelativeFile::create(&store, 32));
        f.write_record(0, b"a").unwrap();
        f.write_record(100, b"b").unwrap();
        let mut seen = Vec::new();
        f.scan(|r, _| seen.push(r));
        assert_eq!(seen, vec![0, 100]);
    }

    #[test]
    fn oversized_record_rejected() {
        let store = MemStore::new();
        let f = RelativeFile::open(&store, RelativeFile::create(&store, 16));
        assert_eq!(
            f.write_record(0, &[0u8; 17]),
            Err(RelativeError::RecordTooLarge)
        );
    }

    #[test]
    fn replace_in_place() {
        let store = MemStore::new();
        let f = RelativeFile::open(&store, RelativeFile::create(&store, 16));
        f.write_record(3, b"first").unwrap();
        f.write_record(3, b"two").unwrap();
        let got = f.read_record(3).unwrap();
        assert_eq!(&got[..3], b"two");
        assert_eq!(got[3], 0, "slot tail zeroed on replace");
    }
}
