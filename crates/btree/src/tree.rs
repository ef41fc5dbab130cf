//! Key-sequenced files: a disk-block B-tree.
//!
//! Keys are order-preserving encoded byte strings (see `nsql-records`);
//! values are encoded records. The root block number is stable for the
//! file's lifetime (it is recorded in the volume's file label): root splits
//! copy the old root aside, root collapses copy the last child back in.
//!
//! Range scans walk the leaf chain through [`BlockStore::read_for_scan`],
//! which is where the Disk Process's bulk-I/O and pre-fetch policies attach.

use crate::node::{Node, NodeView, Slot, HEADER};
use crate::{BlockNo, BlockStore};
use std::ops::Bound;
use std::sync::Arc;

/// Errors from key-sequenced file operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeError {
    /// Insert of an existing key.
    DuplicateKey,
    /// Update/delete of a missing key.
    NotFound,
    /// Key+record too large for the block format.
    EntryTooLarge,
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::DuplicateKey => write!(f, "duplicate key"),
            TreeError::NotFound => write!(f, "record not found"),
            TreeError::EntryTooLarge => write!(f, "entry too large for block"),
        }
    }
}

impl std::error::Error for TreeError {}

/// Scan continuation decision from the visitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanControl {
    /// Keep scanning.
    Continue,
    /// Stop (limits reached, end of range, ...).
    Stop,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum WriteMode {
    Insert,
    Update,
    Put,
}

/// A key-sequenced file rooted at a fixed block.
pub struct BTreeFile<'a, S: BlockStore> {
    store: &'a S,
    root: BlockNo,
}

impl<'a, S: BlockStore> BTreeFile<'a, S> {
    /// Create a new empty file; returns its root block number.
    pub fn create(store: &'a S) -> BlockNo {
        let root = store.alloc();
        store.write(root, Node::empty_leaf().encode().into());
        root
    }

    /// Open an existing file by root block.
    pub fn open(store: &'a S, root: BlockNo) -> Self {
        BTreeFile { store, root }
    }

    /// The root block number.
    pub fn root(&self) -> BlockNo {
        self.root
    }

    fn cap(&self) -> usize {
        self.store.block_size()
    }

    /// Decode a node for a structural edit (split, merge, borrow).
    fn load(&self, block: BlockNo) -> Node {
        Node::decode(&self.store.read(block))
    }

    fn save(&self, block: BlockNo, node: &Node) {
        self.store.write(block, node.encode().into());
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let mut block = self.root;
        loop {
            let bytes = self.store.read(block);
            match NodeView::parse(&bytes) {
                NodeView::Internal(node) => block = node.child_for(key).1,
                NodeView::Leaf(leaf) => return leaf.get(key).map(<[u8]>::to_vec),
            }
        }
    }

    /// Insert a new record; errors on duplicate key.
    pub fn insert(&self, key: &[u8], value: &[u8]) -> Result<(), TreeError> {
        self.write_entry(key, value, WriteMode::Insert)
    }

    /// Replace an existing record; errors when missing.
    pub fn update(&self, key: &[u8], value: &[u8]) -> Result<(), TreeError> {
        self.write_entry(key, value, WriteMode::Update)
    }

    /// Insert-or-replace (idempotent redo).
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), TreeError> {
        self.write_entry(key, value, WriteMode::Put)
    }

    fn write_entry(&self, key: &[u8], value: &[u8], mode: WriteMode) -> Result<(), TreeError> {
        // Each entry must fit in half a block so splits always succeed, and
        // separator keys must fit comfortably in internal nodes.
        if 4 + key.len() + value.len() > (self.cap() - HEADER) / 2
            || 6 + key.len() > (self.cap() - HEADER) / 2
        {
            return Err(TreeError::EntryTooLarge);
        }
        if let Some((sep, right)) = self.write_rec(self.root, key, value, mode)? {
            // Root split: move the (already updated) root contents aside,
            // then make the root an internal node over the two halves.
            // Nothing else references the root block, so sharing its image
            // with the new left child is safe.
            let left = self.store.alloc();
            self.store.write(left, self.store.read(self.root));
            let new_root = Node::Internal {
                seps: vec![sep],
                children: vec![left, right],
            };
            self.save(self.root, &new_root);
        }
        Ok(())
    }

    fn write_rec(
        &self,
        block: BlockNo,
        key: &[u8],
        value: &[u8],
        mode: WriteMode,
    ) -> Result<Option<(Vec<u8>, BlockNo)>, TreeError> {
        let bytes = self.store.read(block);
        let (ci, (sep, right)) = match NodeView::parse(&bytes) {
            NodeView::Leaf(leaf) => {
                let found = leaf.search(key);
                match (&found, mode) {
                    (Ok(_), WriteMode::Insert) => return Err(TreeError::DuplicateKey),
                    (Err(_), WriteMode::Update) => return Err(TreeError::NotFound),
                    _ => {}
                }
                let (Ok(slot) | Err(slot)) = found;
                let entry = Some((key, value));
                if leaf.size_after(&slot, entry) <= self.cap() {
                    self.store.write(block, leaf.splice(&slot, entry));
                    return Ok(None);
                }
                return self.split_leaf(block, Node::decode(&bytes), slot, key, value);
            }
            NodeView::Internal(node) => {
                let (ci, child) = node.child_for(key);
                match self.write_rec(child, key, value, mode)? {
                    Some(split) => (ci, split),
                    None => return Ok(None),
                }
            }
        };
        let mut node = Node::decode(&bytes);
        {
            let Node::Internal { seps, children } = &mut node else {
                unreachable!()
            };
            seps.insert(ci, sep);
            children.insert(ci + 1, right);
        }
        if node.size() <= self.cap() {
            self.save(block, &node);
            return Ok(None);
        }
        // Split the internal node: promote the middle separator.
        let right_block = self.store.alloc();
        let (promoted, right) = {
            let Node::Internal { seps, children } = &mut node else {
                unreachable!()
            };
            let sizes: Vec<usize> = seps.iter().map(|k| 6 + k.len()).collect();
            let m = split_point(&sizes, self.cap());
            let promoted = seps[m - 1].clone();
            // Separators [0, m-1) stay left, separator m-1 is promoted,
            // [m, ..) go right; children split at m.
            let right_seps = seps.split_off(m);
            seps.pop(); // the promoted separator moves up
            let right_children = children.split_off(m);
            (
                promoted,
                Node::Internal {
                    seps: right_seps,
                    children: right_children,
                },
            )
        };
        self.save(block, &node);
        self.save(right_block, &right);
        Ok(Some((promoted, right_block)))
    }

    /// Put `(key, value)` into `slot` of the decoded leaf `node`, which then
    /// overflows its block, and split it by cumulative size.
    fn split_leaf(
        &self,
        block: BlockNo,
        mut node: Node,
        slot: Slot,
        key: &[u8],
        value: &[u8],
    ) -> Result<Option<(Vec<u8>, BlockNo)>, TreeError> {
        let Node::Leaf { next, entries } = &mut node else {
            unreachable!("split_leaf on an internal node")
        };
        if slot.range.is_empty() {
            entries.insert(slot.index, (key.to_vec(), value.to_vec()));
        } else {
            entries[slot.index].1 = value.to_vec();
        }
        let right_block = self.store.alloc();
        let sizes: Vec<usize> = entries.iter().map(|(k, v)| 4 + k.len() + v.len()).collect();
        let split = split_point(&sizes, self.cap());
        let right_entries = entries.split_off(split);
        let sep = right_entries[0].0.clone();
        let right = Node::Leaf {
            next: *next,
            entries: right_entries,
        };
        *next = Some(right_block);
        self.save(block, &node);
        self.save(right_block, &right);
        Ok(Some((sep, right_block)))
    }

    /// Delete a record, returning its old value.
    pub fn delete(&self, key: &[u8]) -> Result<Vec<u8>, TreeError> {
        let (old, _) = self.delete_rec(self.root, key)?;
        // Root collapse: while the root is an internal node with a single
        // child, pull that child up into the root block (the paper's
        // "collapses").
        loop {
            let bytes = self.store.read(self.root);
            let child = match NodeView::parse(&bytes) {
                NodeView::Internal(node) if node.is_empty() => node.first_child(),
                _ => break,
            };
            self.store.write(self.root, self.store.read(child));
            self.store.free(child);
        }
        Ok(old)
    }

    fn delete_rec(&self, block: BlockNo, key: &[u8]) -> Result<(Vec<u8>, bool), TreeError> {
        let bytes = self.store.read(block);
        match NodeView::parse(&bytes) {
            NodeView::Leaf(leaf) => {
                let slot = leaf.search(key).map_err(|_| TreeError::NotFound)?;
                let old = leaf.value_at(&slot).to_vec();
                let after = leaf.splice(&slot, None);
                let under = after.len() < self.cap() / 4 || leaf.len() == 1;
                self.store.write(block, after);
                Ok((old, under))
            }
            NodeView::Internal(node) => {
                let (ci, child) = node.child_for(key);
                let (old, under) = self.delete_rec(child, key)?;
                let (after, parent_under) = if under {
                    let mut node = Node::decode(&bytes);
                    self.rebalance(&mut node, ci);
                    let under = node.size() < self.cap() / 4 || node.is_empty();
                    (node.encode().into(), under)
                } else {
                    // Unchanged, but written back like every node on the
                    // path: the write marks the block dirty under this
                    // operation's LSN.
                    let under = node.size() < self.cap() / 4 || node.is_empty();
                    (Arc::clone(&bytes), under)
                };
                self.store.write(block, after);
                Ok((old, parent_under))
            }
        }
    }

    /// Fix an underfull child `ci` of `parent` by merging with or borrowing
    /// from an adjacent sibling.
    fn rebalance(&self, parent: &mut Node, ci: usize) {
        let Node::Internal { seps, children } = parent else {
            unreachable!("rebalance on leaf");
        };
        if children.len() < 2 {
            return; // nothing to merge with; root collapse handles the rest
        }
        let (li, ri) = if ci + 1 < children.len() {
            (ci, ci + 1)
        } else {
            (ci - 1, ci)
        };
        let (lb, rb) = (children[li], children[ri]);
        let mut left = self.load(lb);
        let mut right = self.load(rb);

        // Merge when both halves fit in one block.
        if left.size() + right.size() - 7 + extra_merge_size(&left, &seps[li]) <= self.cap() {
            match (&mut left, right) {
                (
                    Node::Leaf { next, entries },
                    Node::Leaf {
                        next: rnext,
                        entries: rentries,
                    },
                ) => {
                    entries.extend(rentries);
                    *next = rnext;
                }
                (
                    Node::Internal {
                        seps: lseps,
                        children: lchildren,
                    },
                    Node::Internal {
                        seps: rseps,
                        children: rchildren,
                    },
                ) => {
                    lseps.push(seps[li].clone());
                    lseps.extend(rseps);
                    lchildren.extend(rchildren);
                }
                _ => unreachable!("siblings at the same level share a kind"),
            }
            self.save(lb, &left);
            self.store.free(rb);
            seps.remove(li);
            children.remove(ri);
            return;
        }

        // Borrow one entry from the bigger sibling, when it can spare one.
        let (lsize, rsize) = (left.size(), right.size());
        match (&mut left, &mut right) {
            (Node::Leaf { entries: le, .. }, Node::Leaf { entries: re, .. }) => {
                if le.len() >= 2 && (re.is_empty() || lsize > rsize) {
                    let moved = le.pop().expect("len >= 2");
                    re.insert(0, moved);
                    seps[li] = re[0].0.clone();
                } else if re.len() >= 2 {
                    let moved = re.remove(0);
                    le.push(moved);
                    seps[li] = re[0].0.clone();
                } else {
                    return; // cannot improve; tolerate the underflow
                }
            }
            (
                Node::Internal {
                    seps: lseps,
                    children: lchildren,
                },
                Node::Internal {
                    seps: rseps,
                    children: rchildren,
                },
            ) => {
                if lseps.len() >= 2 && (rseps.is_empty() || lseps.len() > rseps.len()) {
                    // Rotate right through the parent.
                    rseps.insert(0, seps[li].clone());
                    seps[li] = lseps.pop().expect("len >= 2");
                    rchildren.insert(0, lchildren.pop().expect("children"));
                } else if rseps.len() >= 2 {
                    // Rotate left through the parent.
                    lseps.push(seps[li].clone());
                    seps[li] = rseps.remove(0);
                    lchildren.push(rchildren.remove(0));
                } else {
                    return;
                }
            }
            _ => unreachable!(),
        }
        self.save(lb, &left);
        self.save(rb, &right);
    }

    /// Scan in key order from `start`, invoking `visit` per record until it
    /// returns [`ScanControl::Stop`] or the file ends. Keys and values are
    /// lent straight out of the cached blocks.
    pub fn scan<F>(&self, start: Bound<&[u8]>, mut visit: F)
    where
        F: FnMut(&[u8], &[u8]) -> ScanControl,
    {
        // Descend to the leaf that may contain the first qualifying key.
        let mut bytes = self.store.read_for_scan(self.root);
        while let NodeView::Internal(node) = NodeView::parse(&bytes) {
            let child = match start {
                Bound::Unbounded => node.first_child(),
                Bound::Included(k) | Bound::Excluded(k) => node.child_for(k).1,
            };
            bytes = self.store.read_for_scan(child);
        }
        // Only the first leaf can hold keys before `start`.
        let mut from = start;
        loop {
            let NodeView::Leaf(leaf) = NodeView::parse(&bytes) else {
                panic!("leaf chain reached an internal node");
            };
            // Announce the next leaf so the cache can pre-fetch it while
            // this leaf's records are being processed.
            let next = leaf.next();
            if let Some(nb) = next {
                self.store.will_need(nb);
            }
            let before = |k: &[u8]| match from {
                Bound::Unbounded => false,
                Bound::Included(s) => k < s,
                Bound::Excluded(s) => k <= s,
            };
            for (k, v) in leaf.iter().skip_while(|(k, _)| before(k)) {
                if visit(k, v) == ScanControl::Stop {
                    return;
                }
            }
            from = Bound::Unbounded;
            let Some(nb) = next else { return };
            bytes = self.store.read_for_scan(nb);
        }
    }

    /// All entries (tests / small files).
    pub fn entries(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        self.scan(Bound::Unbounded, |k, v| {
            out.push((k.to_vec(), v.to_vec()));
            ScanControl::Continue
        });
        out
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        let mut n = 0;
        self.scan(Bound::Unbounded, |_, _| {
            n += 1;
            ScanControl::Continue
        });
        n
    }

    /// True when the file holds no records.
    pub fn is_empty(&self) -> bool {
        let mut bytes = self.store.read(self.root);
        loop {
            match NodeView::parse(&bytes) {
                NodeView::Internal(node) => {
                    let child = node.first_child();
                    bytes = self.store.read(child);
                }
                NodeView::Leaf(leaf) => return leaf.is_empty(),
            }
        }
    }

    /// Check structural invariants (tests): keys sorted and deduplicated,
    /// separators consistent with subtree contents, leaf chain in order.
    pub fn validate(&self) {
        fn walk<S: BlockStore>(
            t: &BTreeFile<S>,
            block: BlockNo,
            lo: Option<&[u8]>,
            hi: Option<&[u8]>,
            leaves: &mut Vec<BlockNo>,
        ) {
            let bytes = t.store.read(block);
            match NodeView::parse(&bytes) {
                NodeView::Leaf(leaf) => {
                    let keys: Vec<&[u8]> = leaf.iter().map(|(k, _)| k).collect();
                    for w in keys.windows(2) {
                        assert!(w[0] < w[1], "leaf keys out of order");
                    }
                    for &k in &keys {
                        if let Some(lo) = lo {
                            assert!(k >= lo, "key below subtree bound");
                        }
                        if let Some(hi) = hi {
                            assert!(k < hi, "key above subtree bound");
                        }
                    }
                    leaves.push(block);
                }
                NodeView::Internal(node) => {
                    let seps: Vec<(&[u8], BlockNo)> = node.seps().collect();
                    for w in seps.windows(2) {
                        assert!(w[0].0 < w[1].0, "separators out of order");
                    }
                    let mut clo = lo;
                    let mut child = node.first_child();
                    for &(sep, right) in &seps {
                        walk(t, child, clo, Some(sep), leaves);
                        clo = Some(sep);
                        child = right;
                    }
                    walk(t, child, clo, hi, leaves);
                }
            }
        }
        let mut leaves = Vec::new();
        walk(self, self.root, None, None, &mut leaves);
        // The leaf chain must visit exactly the leaves, in order.
        let mut chain = Vec::new();
        let mut block = self.root;
        loop {
            let bytes = self.store.read(block);
            match NodeView::parse(&bytes) {
                NodeView::Internal(node) => block = node.first_child(),
                NodeView::Leaf(leaf) => {
                    chain.push(block);
                    match leaf.next() {
                        Some(nb) => block = nb,
                        None => break,
                    }
                }
            }
        }
        assert_eq!(chain, leaves, "leaf chain does not match tree order");
    }
}

/// Split index for an overflowing node: aims for the cumulative-size
/// midpoint, then adjusts so that both halves (plus the 7-byte header) fit
/// in `cap`. Always leaves at least one element on each side.
fn split_point(sizes: &[usize], cap: usize) -> usize {
    let n = sizes.len();
    debug_assert!(n >= 2, "cannot split a node with fewer than 2 entries");
    let total: usize = sizes.iter().sum();
    let mut acc = 0;
    let mut idx = n - 1;
    for (i, s) in sizes.iter().enumerate() {
        acc += s;
        if acc >= total / 2 {
            idx = i + 1;
            break;
        }
    }
    let mut idx = idx.clamp(1, n - 1);
    let left = |i: usize| sizes[..i].iter().sum::<usize>();
    while left(idx) + 7 > cap && idx > 1 {
        idx -= 1;
    }
    while total - left(idx) + 7 > cap && idx < n - 1 {
        idx += 1;
    }
    idx
}

/// Extra bytes a merge adds beyond the two nodes' sizes (internal merges
/// pull the parent separator down).
fn extra_merge_size(left: &Node, parent_sep: &[u8]) -> usize {
    match left {
        Node::Internal { .. } => 6 + parent_sep.len(),
        Node::Leaf { .. } => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;
    use std::collections::BTreeMap;

    fn key(i: u32) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    fn val(i: u32) -> Vec<u8> {
        format!("value-{i:08}").into_bytes()
    }

    #[test]
    fn insert_get_small() {
        let store = MemStore::new();
        let root = BTreeFile::create(&store);
        let t = BTreeFile::open(&store, root);
        for i in 0..100 {
            t.insert(&key(i), &val(i)).unwrap();
        }
        for i in 0..100 {
            assert_eq!(t.get(&key(i)), Some(val(i)));
        }
        assert_eq!(t.get(&key(100)), None);
        t.validate();
    }

    #[test]
    fn duplicate_insert_rejected() {
        let store = MemStore::new();
        let t = BTreeFile::open(&store, BTreeFile::create(&store));
        t.insert(&key(1), &val(1)).unwrap();
        assert_eq!(t.insert(&key(1), &val(2)), Err(TreeError::DuplicateKey));
        assert_eq!(t.get(&key(1)), Some(val(1)));
    }

    #[test]
    fn update_and_put() {
        let store = MemStore::new();
        let t = BTreeFile::open(&store, BTreeFile::create(&store));
        assert_eq!(t.update(&key(1), &val(9)), Err(TreeError::NotFound));
        t.insert(&key(1), &val(1)).unwrap();
        t.update(&key(1), &val(2)).unwrap();
        assert_eq!(t.get(&key(1)), Some(val(2)));
        t.put(&key(1), &val(3)).unwrap();
        t.put(&key(2), &val(4)).unwrap();
        assert_eq!(t.get(&key(1)), Some(val(3)));
        assert_eq!(t.get(&key(2)), Some(val(4)));
    }

    #[test]
    fn splits_to_multiple_levels() {
        let store = MemStore::with_block_size(256);
        let t = BTreeFile::open(&store, BTreeFile::create(&store));
        for i in 0..500 {
            t.insert(&key(i), &val(i)).unwrap();
        }
        assert!(store.live_blocks() > 10, "tree should have split widely");
        for i in 0..500 {
            assert_eq!(t.get(&key(i)), Some(val(i)), "key {i}");
        }
        t.validate();
        assert_eq!(t.len(), 500);
    }

    #[test]
    fn reverse_and_random_insert_orders() {
        for seed in [0u64, 1, 2] {
            let store = MemStore::with_block_size(256);
            let t = BTreeFile::open(&store, BTreeFile::create(&store));
            let mut keys: Vec<u32> = (0..300).collect();
            // Simple deterministic shuffle.
            let mut s = seed.wrapping_add(12345);
            for i in (1..keys.len()).rev() {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let j = (s >> 33) as usize % (i + 1);
                keys.swap(i, j);
            }
            for &i in &keys {
                t.insert(&key(i), &val(i)).unwrap();
            }
            t.validate();
            let got: Vec<u32> = t
                .entries()
                .iter()
                .map(|(k, _)| u32::from_be_bytes(k[..4].try_into().unwrap()))
                .collect();
            assert_eq!(got, (0..300).collect::<Vec<_>>(), "seed {seed}");
        }
    }

    #[test]
    fn delete_leaf_simple() {
        let store = MemStore::new();
        let t = BTreeFile::open(&store, BTreeFile::create(&store));
        t.insert(&key(1), &val(1)).unwrap();
        t.insert(&key(2), &val(2)).unwrap();
        assert_eq!(t.delete(&key(1)).unwrap(), val(1));
        assert_eq!(t.get(&key(1)), None);
        assert_eq!(t.get(&key(2)), Some(val(2)));
        assert_eq!(t.delete(&key(1)), Err(TreeError::NotFound));
    }

    #[test]
    fn delete_everything_collapses_tree() {
        let store = MemStore::with_block_size(256);
        let t = BTreeFile::open(&store, BTreeFile::create(&store));
        for i in 0..400 {
            t.insert(&key(i), &val(i)).unwrap();
        }
        let peak = store.live_blocks();
        for i in 0..400 {
            t.delete(&key(i)).unwrap();
            if i.is_multiple_of(97) {
                t.validate();
            }
        }
        t.validate();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(
            store.live_blocks() < peak / 4,
            "collapse should free blocks ({} of peak {peak} live)",
            store.live_blocks()
        );
    }

    #[test]
    fn interleaved_inserts_and_deletes_match_model() {
        let store = MemStore::with_block_size(256);
        let t = BTreeFile::open(&store, BTreeFile::create(&store));
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut s = 99u64;
        for step in 0..3000u32 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = key((s >> 33) as u32 % 200);
            let v = val(step);
            let exists = model.contains_key(&k);
            if (s >> 7).is_multiple_of(3) && exists {
                t.delete(&k).unwrap();
                model.remove(&k);
            } else {
                if exists {
                    t.update(&k, &v).unwrap();
                } else {
                    t.insert(&k, &v).unwrap();
                }
                model.insert(k, v);
            }
        }
        t.validate();
        let got = t.entries();
        let want: Vec<_> = model.into_iter().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn scan_ranges_and_stop() {
        let store = MemStore::with_block_size(256);
        let t = BTreeFile::open(&store, BTreeFile::create(&store));
        for i in 0..100 {
            t.insert(&key(i), &val(i)).unwrap();
        }
        // From included bound.
        let mut seen = Vec::new();
        t.scan(Bound::Included(&key(40)[..]), |k, _| {
            seen.push(u32::from_be_bytes(k[..4].try_into().unwrap()));
            if seen.len() == 5 {
                ScanControl::Stop
            } else {
                ScanControl::Continue
            }
        });
        assert_eq!(seen, vec![40, 41, 42, 43, 44]);
        // Excluded bound (the re-drive continuation form).
        let mut seen = Vec::new();
        t.scan(Bound::Excluded(&key(40)[..]), |k, _| {
            seen.push(u32::from_be_bytes(k[..4].try_into().unwrap()));
            if seen.len() == 3 {
                ScanControl::Stop
            } else {
                ScanControl::Continue
            }
        });
        assert_eq!(seen, vec![41, 42, 43]);
        // Bound between keys.
        let mut first = None;
        t.scan(Bound::Included(&[0, 0, 0, 40, 1][..]), |k, _| {
            first = Some(u32::from_be_bytes(k[..4].try_into().unwrap()));
            ScanControl::Stop
        });
        assert_eq!(first, Some(41));
    }

    #[test]
    fn oversized_entry_rejected() {
        let store = MemStore::with_block_size(256);
        let t = BTreeFile::open(&store, BTreeFile::create(&store));
        assert_eq!(
            t.insert(&key(1), &vec![0u8; 4096]),
            Err(TreeError::EntryTooLarge)
        );
    }

    #[test]
    fn empty_value_entries() {
        // Secondary indices store empty values.
        let store = MemStore::with_block_size(256);
        let t = BTreeFile::open(&store, BTreeFile::create(&store));
        for i in 0..200 {
            t.insert(&key(i), &[]).unwrap();
        }
        t.validate();
        assert_eq!(t.get(&key(77)), Some(Vec::new()));
        assert_eq!(t.len(), 200);
    }
}
