#![warn(missing_docs)]
//! The cache management component of the Disk Process.
//!
//! "The cache management component of the Disk Process uses a least-
//! recently-used (LRU) algorithm obeying write-ahead-log protocol to manage
//! a main memory buffer pool for staging data to and from disk."
//!
//! The SQL-specific optimizations from the paper's *Set Interface
//! Facilitates Cache Optimizations* section are all here:
//!
//! * **Bulk reads** — given the key span of a set-oriented request, the pool
//!   reads "sequential strings of physical blocks ... using bulk I/O's".
//! * **Asynchronous pre-fetch** — bulk reads issued ahead of need on the
//!   disk's private timeline, overlapping I/O with CPU-bound processing.
//! * **Write-behind** — strings of sequentially-dirtied blocks whose audit
//!   has aged past the write-ahead-log horizon are written out with bulk
//!   I/O during idle time.
//! * **Memory-pressure handshake** — the processor-global memory manager
//!   can steal clean buffers and request the cleaning of dirty ones.
//!
//! The write-ahead-log rule is enforced through a [`WalGate`], implemented
//! by the TMF audit trail: no dirty block may reach disk before the audit
//! covering its latest change is durable.

use nsql_disk::{Block, BlockNo, Disk, DiskError};
use nsql_sim::sync::Mutex;
use nsql_sim::{Ctr, Micros, Sim, Wait};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Write-ahead-log gate: visibility onto audit durability.
pub trait WalGate: Send + Sync {
    /// Is audit durable at least up to `lsn` as of virtual time `now`?
    fn durable(&self, lsn: u64, now: Micros) -> bool;
    /// Force audit durability up to `lsn`; returns the completion time.
    fn force(&self, lsn: u64, now: Micros) -> Micros;
}

/// A gate for cache uses that carry no audit (temporary files, tests).
pub struct NoWal;

impl WalGate for NoWal {
    fn durable(&self, _lsn: u64, _now: Micros) -> bool {
        true
    }
    fn force(&self, _lsn: u64, now: Micros) -> Micros {
        now
    }
}

/// Per-request scan behaviour, driven by the set-oriented FS-DP interface:
/// "the begin-key and end-key are specified at the initial FS-DP
/// interaction. From then on, the Disk Process can optimize."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanOptions {
    /// Read sequential strings of blocks with one bulk I/O instead of a
    /// block at a time.
    pub bulk: bool,
    /// Issue the *next* string asynchronously while the caller consumes the
    /// current one.
    pub prefetch: bool,
}

impl ScanOptions {
    /// Everything on (the NonStop SQL set-interface default).
    pub fn sequential() -> Self {
        ScanOptions {
            bulk: true,
            prefetch: true,
        }
    }
}

#[derive(Debug)]
struct Frame {
    data: Block,
    dirty: bool,
    /// Highest audit LSN covering changes to this block (0 = none).
    lsn: u64,
    /// If the block arrived via pre-fetch and has not been waited on yet,
    /// the completion time of that I/O.
    ready_at: Option<Micros>,
    last_use: u64,
    /// The `last_use` this frame is filed under in [`PoolInner::lru`]. A
    /// hit only raises `last_use`, so `filed <= last_use`.
    filed: u64,
}

/// The frame map plus its LRU index.
///
/// `lru` holds exactly one `(filed, block)` entry per frame. A hit raises
/// the frame's `last_use` and leaves the index alone, so a hit neither
/// searches nor allocates. [`BufferPool::make_room`] pops the least entry;
/// when it is stale it re-files the frame under its real `last_use` and
/// pops again. A stale key only understates, so the first current entry
/// popped is the least `(last_use, block)` over all frames: eviction is
/// least-recently-used, and frames sharing one `last_use` (a bulk read or
/// pre-fetch string) leave lowest block first.
#[derive(Default)]
struct PoolInner {
    frames: HashMap<BlockNo, Frame>,
    lru: BTreeSet<(u64, BlockNo)>,
    tick: u64,
}

impl PoolInner {
    /// Install a frame, filed under its `last_use`.
    fn insert(&mut self, block: BlockNo, frame: Frame) {
        self.lru.insert((frame.filed, block));
        if let Some(old) = self.frames.insert(block, frame) {
            self.lru.remove(&(old.filed, block));
        }
    }

    /// Drop a frame and its index entry.
    fn remove(&mut self, block: BlockNo) -> Option<Frame> {
        let f = self.frames.remove(&block)?;
        self.lru.remove(&(f.filed, block));
        Some(f)
    }

    /// Remove and return the least-recently-used frame.
    fn pop_lru(&mut self) -> Option<(BlockNo, Frame)> {
        while let Some((filed, block)) = self.lru.pop_first() {
            let Some(f) = self.frames.get_mut(&block) else {
                continue;
            };
            if f.last_use == filed {
                return self.frames.remove(&block).map(|f| (block, f));
            }
            f.filed = f.last_use;
            self.lru.insert((f.filed, block));
        }
        None
    }

    /// A clean frame, filed under `tick`, for data just read from disk.
    fn clean(data: Block, ready_at: Option<Micros>, tick: u64) -> Frame {
        Frame {
            data,
            dirty: false,
            lsn: 0,
            ready_at,
            last_use: tick,
            filed: tick,
        }
    }
}

/// The buffer pool of one Disk Process.
pub struct BufferPool {
    sim: Sim,
    disk: Arc<Disk>,
    wal: Arc<dyn WalGate>,
    /// Capacity in frames (blocks).
    pub capacity: usize,
    /// The cache's MEASURE record, named after its volume.
    rec: Arc<nsql_sim::MeasureRecord>,
    inner: Mutex<PoolInner>,
}

impl BufferPool {
    /// A pool of `capacity` frames over `disk`, WAL-gated by `wal`.
    pub fn new(sim: Sim, disk: Arc<Disk>, wal: Arc<dyn WalGate>, capacity: usize) -> Self {
        assert!(capacity >= 8, "pool too small to be useful");
        let rec = sim.measure.entity(nsql_sim::EntityKind::Cache, &disk.name);
        BufferPool {
            sim,
            disk,
            wal,
            capacity,
            rec,
            inner: Mutex::new(PoolInner::default()),
        }
    }

    /// The disk behind this pool.
    pub fn disk(&self) -> &Arc<Disk> {
        &self.disk
    }

    /// Read one block (point access: no bulk, no pre-fetch).
    pub fn read(&self, block: BlockNo) -> Result<Block, DiskError> {
        self.read_scan(block, ScanOptions::default())
    }

    /// Read one block with scan options. With `bulk`, a miss reads a string
    /// of up to `bulk_io_max_blocks` contiguous allocated blocks.
    /// Pre-fetching of upcoming blocks is driven by the scanner through
    /// [`BufferPool::prefetch`] (the scanner knows the leaf chain; the pool
    /// does not).
    ///
    /// The returned image is the frame's own, shared: a hit copies nothing.
    pub fn read_scan(&self, block: BlockNo, opts: ScanOptions) -> Result<Block, DiskError> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;

        if let Some(f) = inner.frames.get_mut(&block) {
            f.last_use = tick;
            // If the block was pre-fetched, we may have to wait for the I/O
            // to complete — but usually the CPU work since issuing it
            // covers the latency (that is the point of pre-fetch).
            if let Some(ready) = f.ready_at.take() {
                self.sim.clock.advance_to_in(Wait::Disk, ready);
                self.rec.bump(Ctr::PrefetchHits);
            }
            self.rec.bump(Ctr::CacheHits);
            return Ok(Arc::clone(&f.data));
        }

        self.rec.bump(Ctr::CacheFaults);
        // Miss: choose the string length.
        let run = if opts.bulk {
            self.contiguous_uncached_run(&inner, block)
        } else {
            1
        };
        self.make_room(&mut inner, run)?;
        let datas = self.disk.read(block, run)?;
        let first = Arc::clone(&datas[0]);
        for (b, data) in (block..).zip(datas) {
            inner.insert(b, PoolInner::clean(data, None, tick));
        }
        Ok(first)
    }

    /// Longest run of uncached, allocated blocks starting at `block`,
    /// clipped to the bulk I/O maximum.
    fn contiguous_uncached_run(&self, inner: &PoolInner, block: BlockNo) -> usize {
        let max = self.sim.cost.bulk_io_max_blocks();
        let disk_len = self.disk.len_blocks() as u32;
        let mut run = 0usize;
        while run < max {
            let b = block + run as u32;
            if b >= disk_len || inner.frames.contains_key(&b) {
                break;
            }
            run += 1;
        }
        run.max(1)
    }

    /// Asynchronously pre-fetch a string of contiguous blocks starting at
    /// `from` (the B-tree scan announces the next leaf in the chain). The
    /// I/O runs on the disk's private timeline, overlapping the caller's
    /// CPU-bound record processing.
    pub fn prefetch(&self, from: BlockNo) {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        self.maybe_prefetch(&mut inner, from, tick);
    }

    /// Asynchronously fetch the next uncached string starting at `from`.
    fn maybe_prefetch(&self, inner: &mut PoolInner, from: BlockNo, tick: u64) {
        let run = {
            let max = self.sim.cost.bulk_io_max_blocks();
            let disk_len = self.disk.len_blocks() as u32;
            let mut run = 0usize;
            while run < max {
                let b = from + run as u32;
                if b >= disk_len || inner.frames.contains_key(&b) {
                    break;
                }
                run += 1;
            }
            run
        };
        if run == 0 {
            return;
        }
        if self.make_room(inner, run).is_err() {
            return; // cannot evict enough: skip the pre-fetch
        }
        let Ok((datas, ready)) = self.disk.read_async(from, run) else {
            return; // hole in the file: skip
        };
        self.rec.add(Ctr::PrefetchReads, run as u64);
        self.sim
            .trace_emit(|| nsql_sim::trace::TraceEventKind::Prefetch { blocks: run as u64 });
        for (b, data) in (from..).zip(datas) {
            inner.insert(b, PoolInner::clean(data, Some(ready), tick));
        }
    }

    /// Install new contents for a block, tagging it with the audit LSN that
    /// covers the change. Purely in-memory (no-force policy). The frame
    /// keeps the image itself; a `Vec` is moved into a shared image once.
    pub fn write(&self, block: BlockNo, data: impl Into<Block>, lsn: u64) -> Result<(), DiskError> {
        let data = data.into();
        assert!(data.len() <= self.disk.block_size());
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(f) = inner.frames.get_mut(&block) {
            f.data = data;
            f.dirty = true;
            f.lsn = f.lsn.max(lsn);
            f.ready_at = None;
            f.last_use = tick;
            return Ok(());
        }
        self.make_room(&mut inner, 1)?;
        inner.insert(
            block,
            Frame {
                data,
                dirty: true,
                lsn,
                ready_at: None,
                last_use: tick,
                filed: tick,
            },
        );
        Ok(())
    }

    /// Evict LRU frames until `need` new frames fit.
    fn make_room(&self, inner: &mut PoolInner, need: usize) -> Result<(), DiskError> {
        let mut evicted = 0u64;
        while inner.frames.len() + need > self.capacity {
            let Some((victim, f)) = inner.pop_lru() else {
                break; // capacity >= 8, so only an oversized `need` gets here
            };
            if f.dirty {
                // Steal of a dirty page: WAL first, then write it out.
                let now = self.sim.now();
                if !self.wal.durable(f.lsn, now) {
                    let done = self.wal.force(f.lsn, now);
                    self.sim.clock.advance_to_in(Wait::Commit, done);
                }
                self.disk.write(victim, std::slice::from_ref(&f.data))?;
            }
            evicted += 1;
        }
        if evicted > 0 {
            self.rec.add(Ctr::CacheEvicts, evicted);
            self.sim
                .trace_emit(|| nsql_sim::trace::TraceEventKind::CacheEvict { frames: evicted });
        }
        Ok(())
    }

    /// Strings of contiguous dirty blocks, in block order, each at most
    /// `bulk_io_max_blocks` long, as `(first block, images)`.
    fn dirty_strings(
        &self,
        inner: &PoolInner,
        mut dirty: Vec<BlockNo>,
    ) -> Vec<(BlockNo, Vec<Block>)> {
        dirty.sort_unstable();
        let max = self.sim.cost.bulk_io_max_blocks();
        let mut strings: Vec<(BlockNo, Vec<Block>)> = Vec::new();
        for b in dirty {
            let data = Arc::clone(&inner.frames[&b].data);
            match strings.last_mut() {
                Some((start, run)) if *start + run.len() as u32 == b && run.len() < max => {
                    run.push(data)
                }
                _ => strings.push((b, vec![data])),
            }
        }
        strings
    }

    /// Write-behind: write out maximal strings of contiguous dirty blocks
    /// whose audit is already durable, using asynchronous bulk I/O ("using
    /// idle time between Disk Process requests to write out strings of
    /// sequential blocks updated under a subset").
    ///
    /// Returns the number of blocks written.
    pub fn write_behind(&self) -> usize {
        let now = self.sim.now();
        let mut inner = self.inner.lock();
        let dirty = inner
            .frames
            .iter()
            .filter(|(_, f)| f.dirty && self.wal.durable(f.lsn, now))
            .map(|(b, _)| *b)
            .collect();
        let mut written = 0usize;
        for (start, datas) in self.dirty_strings(&inner, dirty) {
            if self.disk.write_async(start, &datas).is_ok() {
                for b in (start..).take(datas.len()) {
                    if let Some(f) = inner.frames.get_mut(&b) {
                        f.dirty = false;
                    }
                }
                written += datas.len();
            }
        }
        written
    }

    /// Flush every dirty block synchronously (checkpoint / orderly
    /// shutdown), respecting WAL.
    pub fn flush_all(&self) -> Result<(), DiskError> {
        let mut inner = self.inner.lock();
        let max_lsn = inner
            .frames
            .values()
            .filter(|f| f.dirty)
            .map(|f| f.lsn)
            .max()
            .unwrap_or(0);
        let now = self.sim.now();
        if max_lsn > 0 && !self.wal.durable(max_lsn, now) {
            let done = self.wal.force(max_lsn, now);
            self.sim.clock.advance_to_in(Wait::Commit, done);
        }
        let dirty = inner
            .frames
            .iter()
            .filter(|(_, f)| f.dirty)
            .map(|(b, _)| *b)
            .collect();
        for (start, datas) in self.dirty_strings(&inner, dirty) {
            self.disk.write(start, &datas)?;
            for b in (start..).take(datas.len()) {
                if let Some(f) = inner.frames.get_mut(&b) {
                    f.dirty = false;
                }
            }
        }
        Ok(())
    }

    /// Memory-pressure handshake: drop up to `n` clean frames. Returns how
    /// many were stolen.
    pub fn steal_clean(&self, n: usize) -> usize {
        let mut inner = self.inner.lock();
        let mut clean: Vec<(u64, BlockNo)> = inner
            .frames
            .iter()
            .filter(|(_, f)| !f.dirty && f.ready_at.is_none())
            .map(|(b, f)| (f.last_use, *b))
            .collect();
        clean.sort_unstable();
        let take = clean.len().min(n);
        for (_, b) in clean.into_iter().take(take) {
            inner.remove(b);
        }
        self.rec.add(Ctr::CacheEvicts, take as u64);
        take
    }

    /// Memory-pressure handshake: clean (write out) dirty frames so their
    /// memory becomes stealable. Uses the write-behind path.
    pub fn clean_dirty(&self) -> usize {
        self.write_behind()
    }

    /// Drop every frame without writing (crash simulation: cache contents
    /// are lost; the disk keeps only what was flushed).
    pub fn crash(&self) {
        let mut inner = self.inner.lock();
        inner.frames.clear();
        inner.lru.clear();
    }

    /// Number of cached frames (tests).
    pub fn cached_frames(&self) -> usize {
        self.inner.lock().frames.len()
    }

    /// Number of dirty frames (tests).
    pub fn dirty_frames(&self) -> usize {
        self.inner
            .lock()
            .frames
            .values()
            .filter(|f| f.dirty)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_sim::sync::Mutex as PMutex;

    fn setup(capacity: usize) -> (Sim, Arc<Disk>, BufferPool) {
        let sim = Sim::new();
        let disk = Disk::new(sim.clone(), "$D", false);
        let pool = BufferPool::new(sim.clone(), Arc::clone(&disk), Arc::new(NoWal), capacity);
        (sim, disk, pool)
    }

    fn fill_disk(disk: &Disk, nblocks: u32) {
        for b in 0..nblocks {
            disk.write(b, &[vec![b as u8; 64].into()]).unwrap();
        }
    }

    #[test]
    fn hit_after_miss() {
        let (sim, disk, pool) = setup(16);
        fill_disk(&disk, 4);
        let before = sim.snapshot();
        assert_eq!(*pool.read(2).unwrap(), [2u8; 64]);
        assert_eq!(*pool.read(2).unwrap(), [2u8; 64]);
        let d = sim.snapshot() - before;
        assert_eq!(d.cache_misses, 1);
        assert_eq!(d.cache_hits, 1);
    }

    #[test]
    fn write_is_no_force_until_flush() {
        let (_sim, disk, pool) = setup(16);
        fill_disk(&disk, 2);
        pool.write(1, vec![99; 64], 5).unwrap();
        // Disk still has the old contents.
        assert_eq!(disk.read(1, 1).unwrap()[0][0], 1);
        pool.flush_all().unwrap();
        assert_eq!(disk.read(1, 1).unwrap()[0][0], 99);
        assert_eq!(pool.dirty_frames(), 0);
    }

    #[test]
    fn lru_eviction_prefers_oldest() {
        let (sim, disk, pool) = setup(8);
        fill_disk(&disk, 12);
        for b in 0..8 {
            pool.read(b).unwrap();
        }
        pool.read(0).unwrap(); // refresh block 0
        pool.read(8).unwrap(); // evicts block 1 (oldest)
        assert_eq!(pool.cached_frames(), 8);
        // Re-reading 0 is a hit; 1 is a miss.
        let before = sim.snapshot();
        pool.read(0).unwrap();
        pool.read(1).unwrap();
        let d = sim.snapshot() - before;
        assert_eq!(d.cache_hits, 1);
        assert_eq!(d.cache_misses, 1);
    }

    /// The blocks cached, ascending.
    fn resident(pool: &BufferPool) -> Vec<BlockNo> {
        let mut v: Vec<BlockNo> = pool.inner.lock().frames.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// The LRU index holds exactly the cached blocks, each filed under a
    /// `last_use` no later than its real one.
    fn assert_index_matches_frames(pool: &BufferPool) {
        let inner = pool.inner.lock();
        assert_eq!(inner.lru.len(), inner.frames.len(), "one entry per frame");
        for &(filed, b) in &inner.lru {
            let f = inner.frames.get(&b).expect("indexed block is cached");
            assert_eq!(f.filed, filed, "block {b} filed under another key");
            assert!(filed <= f.last_use, "block {b} filed in the future");
        }
    }

    #[test]
    fn ties_evict_lowest_block_first() {
        let (_sim, disk, pool) = setup(8);
        fill_disk(&disk, 32);
        let bulk = ScanOptions {
            bulk: true,
            prefetch: false,
        };
        pool.read_scan(0, bulk).unwrap(); // blocks 0..7 share one last_use
        pool.read(10).unwrap();
        pool.read(11).unwrap(); // evicts block 0: oldest, then lowest
        assert_eq!(resident(&pool), [1, 2, 3, 4, 5, 6, 10, 11]);
        pool.read(3).unwrap(); // a hit moves block 3 to the young end
        pool.read(12).unwrap();
        assert_eq!(resident(&pool), [2, 3, 4, 5, 6, 10, 11, 12]);
        // A seven-block pre-fetch evicts the rest of the string, then the
        // point reads in the order they happened.
        pool.prefetch(20);
        assert_eq!(resident(&pool), [12, 20, 21, 22, 23, 24, 25, 26]);
        assert_index_matches_frames(&pool);
    }

    #[test]
    fn same_sequence_evicts_same_blocks_in_same_order() {
        // Two pools (whose frame maps hash differently) driven by one
        // sequence of bulk reads, pre-fetches, point reads and writes under
        // pressure hold the same blocks after every step.
        let (_, disk_a, a) = setup(12);
        let (_, disk_b, b) = setup(12);
        fill_disk(&disk_a, 96);
        fill_disk(&disk_b, 96);
        let bulk = ScanOptions {
            bulk: true,
            prefetch: false,
        };
        let mut rng = nsql_sim::SimRng::seed_from(0x1e0);
        for step in 0..400 {
            let block = rng.below(96) as BlockNo;
            for pool in [&a, &b] {
                match step % 4 {
                    0 => drop(pool.read_scan(block, bulk).unwrap()),
                    1 => pool.prefetch(block),
                    2 => drop(pool.read(block).unwrap()),
                    _ => pool.write(block, vec![step as u8; 8], 0).unwrap(),
                }
            }
            assert_eq!(resident(&a), resident(&b), "step {step}");
        }
        assert_index_matches_frames(&a);
        assert_index_matches_frames(&b);
    }

    #[test]
    fn lru_index_matches_frames() {
        let (_sim, disk, pool) = setup(8);
        fill_disk(&disk, 24);
        let bulk = ScanOptions {
            bulk: true,
            prefetch: false,
        };
        pool.read_scan(0, bulk).unwrap();
        pool.read(2).unwrap();
        assert_index_matches_frames(&pool);
        pool.write(3, vec![9; 8], 1).unwrap(); // write to a cached block
        pool.write(20, vec![9; 8], 1).unwrap(); // write that allocates a frame
        assert_index_matches_frames(&pool);
        pool.prefetch(8); // eviction, including a stale-filed frame
        assert_index_matches_frames(&pool);
        for b in 8..11 {
            pool.read(b).unwrap(); // waited on: stealable from now on
        }
        assert_eq!(pool.steal_clean(3), 3);
        assert_index_matches_frames(&pool);
        pool.read(15).unwrap();
        pool.read(16).unwrap();
        assert_index_matches_frames(&pool);
        pool.crash();
        assert_index_matches_frames(&pool);
        assert_eq!(pool.cached_frames(), 0);
        pool.read(1).unwrap();
        assert_index_matches_frames(&pool);
    }

    #[test]
    fn bulk_scan_reads_strings() {
        let (sim, disk, pool) = setup(32);
        fill_disk(&disk, 14);
        let before = sim.snapshot();
        for b in 0..14 {
            pool.read_scan(
                b,
                ScanOptions {
                    bulk: true,
                    prefetch: false,
                },
            )
            .unwrap();
        }
        let d = sim.snapshot() - before;
        assert_eq!(d.disk_reads, 2, "14 blocks = two 7-block strings");
        assert_eq!(d.disk_blocks_read, 14);
        assert_eq!(d.cache_misses, 2);
        assert_eq!(d.cache_hits, 12);
    }

    #[test]
    fn prefetch_overlaps_and_hits() {
        // The scanner (B-tree) announces upcoming blocks; the pool fetches
        // them asynchronously while the caller does CPU work.
        let (sim, disk, pool) = setup(32);
        fill_disk(&disk, 14);
        let before = sim.snapshot();
        let opts = ScanOptions {
            bulk: true,
            prefetch: false,
        };
        pool.read_scan(0, opts).unwrap(); // blocks 0..7 via bulk miss
        pool.prefetch(7); // announce the next string
        for b in 1..14 {
            pool.read_scan(b, opts).unwrap();
            // Per-record CPU work between block reads.
            sim.clock.advance(20_000);
        }
        let d = sim.snapshot() - before;
        assert!(d.prefetch_reads >= 1);
        assert!(d.prefetch_hits >= 1);
        assert_eq!(d.cache_misses, 1, "only the first miss was synchronous");
    }

    #[test]
    fn prefetch_saves_elapsed_time() {
        // Scan the same blocks with and without announcing the next string;
        // with CPU work between blocks, pre-fetch must be faster end-to-end.
        let elapsed = |announce: bool| {
            let (sim, disk, pool) = setup(64);
            fill_disk(&disk, 28);
            let opts = ScanOptions {
                bulk: true,
                prefetch: false,
            };
            let t0 = sim.now();
            for b in 0..28 {
                pool.read_scan(b, opts).unwrap();
                if announce && b % 7 == 0 {
                    pool.prefetch(b + 7);
                }
                sim.clock.advance(3_000);
            }
            sim.now() - t0
        };
        let with = elapsed(true);
        let without = elapsed(false);
        assert!(
            with < without,
            "prefetch ({with}) should beat no-prefetch ({without})"
        );
    }

    /// A WAL gate that records force calls and can be toggled.
    struct TestGate {
        durable_lsn: PMutex<u64>,
        forces: PMutex<Vec<u64>>,
    }

    impl WalGate for TestGate {
        fn durable(&self, lsn: u64, _now: Micros) -> bool {
            *self.durable_lsn.lock() >= lsn
        }
        fn force(&self, lsn: u64, now: Micros) -> Micros {
            self.forces.lock().push(lsn);
            let mut d = self.durable_lsn.lock();
            *d = (*d).max(lsn);
            now + 1_000
        }
    }

    #[test]
    fn dirty_steal_forces_wal() {
        let sim = Sim::new();
        let disk = Disk::new(sim.clone(), "$D", false);
        let gate = Arc::new(TestGate {
            durable_lsn: PMutex::new(0),
            forces: PMutex::new(Vec::new()),
        });
        let pool = BufferPool::new(sim.clone(), Arc::clone(&disk), gate.clone(), 8);
        fill_disk(&disk, 16);
        // Dirty one block with lsn 42, not yet durable.
        pool.read(0).unwrap();
        pool.write(0, vec![7; 32], 42).unwrap();
        // Fill the pool so block 0 gets stolen.
        for b in 1..=8 {
            pool.read(b).unwrap();
        }
        assert!(
            gate.forces.lock().contains(&42),
            "stealing a dirty page must force the audit first"
        );
        assert_eq!(disk.read(0, 1).unwrap()[0][0], 7);
    }

    #[test]
    fn write_behind_respects_wal_horizon() {
        let sim = Sim::new();
        let disk = Disk::new(sim.clone(), "$D", false);
        let gate = Arc::new(TestGate {
            durable_lsn: PMutex::new(10),
            forces: PMutex::new(Vec::new()),
        });
        let pool = BufferPool::new(sim.clone(), Arc::clone(&disk), gate.clone(), 32);
        fill_disk(&disk, 8);
        // Blocks 0-3 dirty with durable audit, block 4 dirty with future
        // audit.
        for b in 0..4u32 {
            pool.write(b, vec![b as u8 + 100; 32], 5).unwrap();
        }
        pool.write(4, vec![200; 32], 99).unwrap();
        let written = pool.write_behind();
        assert_eq!(written, 4, "only the aged string goes out");
        assert_eq!(pool.dirty_frames(), 1);
        // One async bulk write of 4 blocks.
        assert_eq!(sim.snapshot().writebehind_writes, 1);
        assert_eq!(sim.snapshot().disk_blocks_written, 4 + 8);
        assert!(gate.forces.lock().is_empty(), "write-behind never forces");
    }

    #[test]
    fn steal_clean_handshake() {
        let (sim, disk, pool) = setup(16);
        fill_disk(&disk, 8);
        for b in 0..8 {
            pool.read(b).unwrap();
        }
        pool.write(0, vec![1; 8], 1).unwrap(); // one dirty frame
        let stolen = pool.steal_clean(4);
        assert_eq!(stolen, 4);
        assert_eq!(pool.cached_frames(), 4);
        assert!(sim.snapshot().cache_steals >= 4);
        // The dirty frame survived stealing.
        assert_eq!(pool.dirty_frames(), 1);
    }

    #[test]
    fn crash_loses_cache_not_disk() {
        let (_sim, disk, pool) = setup(16);
        fill_disk(&disk, 2);
        pool.write(0, vec![123; 8], 1).unwrap();
        pool.crash();
        assert_eq!(pool.cached_frames(), 0);
        // Unflushed change lost; disk has the original.
        assert_eq!(disk.read(0, 1).unwrap()[0][0], 0);
    }
}
