//! Property tests for the in-place node view, on 256-byte and 4 KB blocks.
//!
//! The view must agree with the decoded [`Node`] it replaces on the read
//! path: a spliced leaf is byte-identical to decoding, editing and
//! re-encoding it; `child_for` picks the child `partition_point` would;
//! and the tree built on the view answers `get` and `scan` like a
//! `BTreeMap`. Cases are drawn from a seeded RNG, so every run is the same.

use nsql_btree::node::{Node, NodeView, Slot, HEADER};
use nsql_btree::{BTreeFile, BlockStore, MemStore, ScanControl};
use nsql_sim::SimRng;
use std::collections::BTreeMap;
use std::ops::Bound;

const BLOCK_SIZES: [usize; 2] = [256, 4096];

fn key(rng: &mut SimRng) -> Vec<u8> {
    // Short, colliding keys of varying length exercise equal keys, prefixes
    // and insertion at both ends.
    let len = 1 + rng.below(3) as usize;
    (0..len).map(|_| b'a' + rng.below(6) as u8).collect()
}

fn value(rng: &mut SimRng, block_size: usize) -> Vec<u8> {
    let len = rng.below(block_size as u64 / 8) as usize;
    (0..len).map(|_| rng.below(256) as u8).collect()
}

fn leaf_entries(node: &mut Node) -> &mut Vec<(Vec<u8>, Vec<u8>)> {
    match node {
        Node::Leaf { entries, .. } => entries,
        Node::Internal { .. } => panic!("expected a leaf"),
    }
}

#[test]
fn splice_matches_decode_edit_encode() {
    for block_size in BLOCK_SIZES {
        for case in 0..40u64 {
            let mut rng = SimRng::seed_from(0x5011CE + case);
            let next = (rng.below(2) == 0).then(|| rng.below(1000) as u32);
            let mut bytes: std::sync::Arc<[u8]> = Node::Leaf {
                next,
                entries: Vec::new(),
            }
            .encode()
            .into();
            let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            for _ in 0..200 {
                let NodeView::Leaf(leaf) = NodeView::parse(&bytes) else {
                    panic!("leaf became internal");
                };
                let k = key(&mut rng);
                let found = leaf.search(&k);
                assert_eq!(found.is_ok(), model.contains_key(&k));
                assert_eq!(leaf.get(&k), model.get(&k).map(Vec::as_slice));
                let mut node = Node::decode(&bytes);
                let entries = leaf_entries(&mut node);
                // The slot is where the decoded node keeps the key.
                let (Ok(Slot { index, .. }) | Err(Slot { index, .. })) = found.clone();
                assert_eq!(
                    entries.binary_search_by(|(ek, _)| ek.as_slice().cmp(&k)),
                    found.clone().map(|_| index).map_err(|_| index)
                );
                // 0: insert, 1: update, 2: put, 3: delete — each applied
                // only where the tree would apply it.
                let (entry, edited) = match (rng.below(4), found.clone()) {
                    (0 | 2, Err(slot)) => {
                        let v = value(&mut rng, block_size);
                        entries.insert(slot.index, (k.clone(), v.clone()));
                        (Some(v), slot)
                    }
                    (1 | 2, Ok(slot)) => {
                        let v = value(&mut rng, block_size);
                        entries[slot.index].1 = v.clone();
                        (Some(v), slot)
                    }
                    (3, Ok(slot)) => {
                        entries.remove(slot.index);
                        (None, slot)
                    }
                    _ => continue, // duplicate insert, missing update/delete
                };
                let entry_ref = entry.as_deref().map(|v| (k.as_slice(), v));
                let size = leaf.size_after(&edited, entry_ref);
                assert_eq!(size, node.size());
                if size > block_size {
                    continue; // the tree splits this one through `Node`
                }
                let spliced = leaf.splice(&edited, entry_ref);
                assert_eq!(*spliced, *node.encode(), "case {case}, block {block_size}");
                match entry {
                    Some(v) => model.insert(k, v),
                    None => model.remove(&k),
                };
                bytes = spliced;
            }
            let NodeView::Leaf(leaf) = NodeView::parse(&bytes) else {
                panic!("leaf became internal");
            };
            assert_eq!(leaf.next(), next);
            let got: Vec<_> = leaf.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
            assert_eq!(got, model.into_iter().collect::<Vec<_>>());
        }
    }
}

#[test]
fn child_for_agrees_with_partition_point() {
    for block_size in BLOCK_SIZES {
        for case in 0..200u64 {
            let mut rng = SimRng::seed_from(0xC41D + case);
            let mut seps: Vec<Vec<u8>> = (0..rng.below(40)).map(|_| key(&mut rng)).collect();
            seps.sort();
            seps.dedup();
            while HEADER + seps.iter().map(|s| 6 + s.len()).sum::<usize>() > block_size {
                seps.pop();
            }
            let children: Vec<u32> = (0..=seps.len())
                .map(|_| rng.below(1 << 20) as u32)
                .collect();
            let node = Node::Internal {
                seps: seps.clone(),
                children: children.clone(),
            };
            let bytes = node.encode();
            let NodeView::Internal(view) = NodeView::parse(&bytes) else {
                panic!("internal node parsed as a leaf");
            };
            assert_eq!(view.len(), seps.len());
            assert_eq!(view.first_child(), children[0]);
            let mut probes: Vec<Vec<u8>> = (0..20).map(|_| key(&mut rng)).collect();
            probes.extend(seps.iter().cloned());
            probes.push(Vec::new());
            probes.push(vec![0xff; 4]);
            for probe in probes {
                let ci = seps.partition_point(|s| s.as_slice() <= probe.as_slice());
                assert_eq!(
                    view.child_for(&probe),
                    (ci, children[ci]),
                    "probe {probe:?}"
                );
            }
            assert_eq!(Node::decode(&bytes), node);
        }
    }
}

#[test]
fn get_and_scan_match_model() {
    for block_size in BLOCK_SIZES {
        for case in 0..12u64 {
            let mut rng = SimRng::seed_from(0x6E7 + case);
            let store = MemStore::with_block_size(block_size);
            let tree = BTreeFile::open(&store, BTreeFile::create(&store));
            let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            let ops = if block_size == 256 { 600 } else { 3000 };
            for _ in 0..ops {
                let k = (rng.below(2000) as u32).to_be_bytes().to_vec();
                if rng.below(4) == 0 {
                    assert_eq!(tree.delete(&k).ok(), model.remove(&k));
                } else {
                    let v = vec![rng.below(256) as u8; rng.below(block_size as u64 / 10) as usize];
                    tree.put(&k, &v).unwrap();
                    model.insert(k, v);
                }
            }
            tree.validate();
            for probe in 0..2000u32 {
                let k = probe.to_be_bytes();
                assert_eq!(tree.get(&k), model.get(&k[..]).cloned());
            }
            for _ in 0..30 {
                let k = (rng.below(2100) as u32).to_be_bytes().to_vec();
                let limit = rng.below(200) as usize;
                let bound = match rng.below(3) {
                    0 => Bound::Included(k.as_slice()),
                    1 => Bound::Excluded(k.as_slice()),
                    _ => Bound::Unbounded,
                };
                let mut got = Vec::new();
                tree.scan(bound, |k, v| {
                    got.push((k.to_vec(), v.to_vec()));
                    if got.len() == limit {
                        ScanControl::Stop
                    } else {
                        ScanControl::Continue
                    }
                });
                // A limit of 0 never stops the scan.
                let take = if limit == 0 { usize::MAX } else { limit };
                let want: Vec<_> = model
                    .range::<[u8], _>((bound, Bound::Unbounded))
                    .take(take)
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                assert_eq!(got, want, "case {case}, block {block_size}");
            }
        }
    }
}

#[test]
fn reads_share_the_stored_image() {
    // A read hands out the store's own block, not a copy.
    let store = MemStore::new();
    let root = BTreeFile::create(&store);
    assert!(std::sync::Arc::ptr_eq(&store.read(root), &store.read(root)));
}

#[test]
#[should_panic(expected = "corrupt node tag 9")]
fn corrupt_tag_panics_in_the_view() {
    NodeView::parse(&[9, 0, 0, 0, 0, 0, 0]);
}

#[test]
#[should_panic(expected = "corrupt node tag 0")]
fn corrupt_tag_panics_on_the_tree_path() {
    let store = MemStore::with_block_size(256);
    let root = BTreeFile::create(&store);
    store.write(root, std::sync::Arc::from([0u8; 7]));
    BTreeFile::open(&store, root).get(b"k");
}
