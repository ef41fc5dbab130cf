//! Allocation budget of the Disk Process's page path.
//!
//! This test binary installs its own counting global allocator and pins
//! how many heap allocations the record and cache layers make: the B-tree
//! searches blocks in place and the cache shares its frames, so a point
//! read allocates only the value it returns, a scan allocates nothing, and
//! a cache hit allocates nothing.
//!
//! Counts are per thread, so tests running in parallel do not disturb each
//! other.

use nsql_btree::node::NodeView;
use nsql_btree::{BTreeFile, BlockStore, MemStore, ScanControl};
use nsql_cache::{BufferPool, NoWal, ScanOptions};
use nsql_disk::Disk;
use nsql_sim::Sim;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::Bound;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot is gone while a thread tears down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a const-initialised thread-local without a
// destructor, so updating it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Run `f` and return its result with the allocations it made on this
/// thread.
fn allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

fn key(i: u32) -> [u8; 4] {
    i.to_be_bytes()
}

/// A 4 KB-block tree deep enough to have three levels.
fn three_level_tree(store: &MemStore) -> BTreeFile<'_, MemStore> {
    let tree = BTreeFile::open(store, BTreeFile::create(store));
    for i in 0..20_000u32 {
        tree.insert(&key(i), &[i as u8; 100]).unwrap();
    }
    let mut levels = 1;
    let mut block = tree.root();
    loop {
        let bytes = store.read(block);
        match NodeView::parse(&bytes) {
            NodeView::Internal(node) => block = node.first_child(),
            NodeView::Leaf(_) => break,
        }
        levels += 1;
    }
    assert_eq!(levels, 3, "the budget is pinned for a three-level tree");
    tree
}

#[test]
fn btree_get_allocates_only_the_returned_value() {
    let store = MemStore::new();
    let tree = three_level_tree(&store);
    for i in [0u32, 7_777, 19_999] {
        let (value, n) = allocs(|| tree.get(&key(i)));
        assert_eq!(value, Some(vec![i as u8; 100]));
        assert_eq!(n, 1, "get of key {i}: one allocation, the returned value");
    }
    let (missing, n) = allocs(|| tree.get(&key(20_000)));
    assert_eq!((missing, n), (None, 0), "a miss allocates nothing");
}

#[test]
fn btree_scan_allocates_nothing() {
    let store = MemStore::new();
    let tree = three_level_tree(&store);
    let ((rows, bytes), n) = allocs(|| {
        let (mut rows, mut bytes) = (0u64, 0usize);
        tree.scan(Bound::Unbounded, |k, v| {
            rows += 1;
            bytes += k.len() + v.len();
            ScanControl::Continue
        });
        (rows, bytes)
    });
    assert_eq!((rows, bytes), (20_000, 20_000 * 104));
    assert_eq!(n, 0, "a full scan lends every key and value in place");
    let (_, n) = allocs(|| tree.scan(Bound::Excluded(&key(123)[..]), |_, _| ScanControl::Stop));
    assert_eq!(n, 0, "a seek allocates nothing");
}

#[test]
fn buffer_pool_hit_allocates_nothing() {
    let sim = Sim::new();
    let disk = Disk::new(sim.clone(), "$D", false);
    for b in 0..64u32 {
        disk.write(b, &[Arc::from(vec![b as u8; 4096])]).unwrap();
    }
    let pool = BufferPool::new(sim.clone(), disk, Arc::new(NoWal), 16);
    // Under pressure: 64 blocks through 16 frames, by bulk read, pre-fetch
    // and point read, so hits land on frames of every origin.
    let bulk = ScanOptions {
        bulk: true,
        prefetch: false,
    };
    for b in (0..64u32).step_by(7) {
        pool.read_scan(b, bulk).unwrap();
    }
    pool.prefetch(40);
    pool.read(60).unwrap();
    pool.write(61, vec![1u8; 4096], 0).unwrap();
    let resident = [40u32, 41, 46, 60, 61, 63];
    let before = sim.snapshot();
    for _ in 0..3 {
        for b in resident {
            let (data, n) = allocs(|| pool.read(b).unwrap());
            assert_eq!(n, 0, "hit on block {b} allocated");
            assert_eq!(data.len(), 4096);
        }
    }
    let (_, n) = allocs(|| pool.read_scan(41, bulk).unwrap());
    assert_eq!(n, 0, "a scan hit allocates nothing");
    let d = sim.snapshot() - before;
    assert_eq!(
        (d.cache_hits, d.cache_misses),
        (19, 0),
        "every read was a hit"
    );
}
