//! B-tree node serialization, and views that search it in place.
//!
//! Nodes serialize into a block as:
//!
//! ```text
//! leaf:     [0x01][nkeys: u16][next_leaf: u32]([klen u16][vlen u16][key][value])*
//! internal: [0x02][nkeys: u16][child0: u32]([klen u16][key][child u32])*
//! ```
//!
//! `next_leaf == u32::MAX` means "no next leaf". An internal node with
//! `nkeys` separators has `nkeys + 1` children; separator `i` is a copy of
//! the smallest key reachable under child `i + 1`. A block holds exactly
//! its node's encoding (no padding), so the block length is the node size.
//!
//! The read path never materialises a node: [`NodeView`] walks the encoded
//! bytes and lends out key and value slices. A leaf edit that fits is
//! applied by [`LeafView::splice`], which copies the unchanged bytes around
//! the edited entry. Only nodes that change structure (split, merge,
//! borrow) are decoded into a [`Node`] and re-encoded.

use crate::BlockNo;
use std::ops::Range;
use std::sync::Arc;

/// Sentinel for "no next leaf".
pub const NO_LEAF: BlockNo = u32::MAX;

/// Bytes of the node header: tag, key count, next leaf / first child.
pub const HEADER: usize = 7;

const LEAF: u8 = 0x01;
const INTERNAL: u8 = 0x02;

fn be_u16(bytes: &[u8], at: usize) -> usize {
    u16::from_be_bytes([bytes[at], bytes[at + 1]]) as usize
}

fn be_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_be_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

/// The parsed header: leaf or internal, key count, and the header's block
/// pointer (a leaf's next leaf, an internal node's first child).
///
/// # Panics
/// Panics on an unknown tag — block corruption is a simulation bug, not a
/// runtime condition.
fn header(bytes: &[u8]) -> (bool, usize, BlockNo) {
    let leaf = match bytes[0] {
        LEAF => true,
        INTERNAL => false,
        other => panic!("corrupt node tag {other}"),
    };
    (leaf, be_u16(bytes, 1), be_u32(bytes, 3))
}

/// A borrowed view of an encoded node.
#[derive(Debug, Clone, Copy)]
pub enum NodeView<'a> {
    /// A leaf block.
    Leaf(LeafView<'a>),
    /// An internal block.
    Internal(InternalView<'a>),
}

impl<'a> NodeView<'a> {
    /// View the node encoded in `bytes`.
    ///
    /// # Panics
    /// Panics on a corrupt node tag.
    pub fn parse(bytes: &'a [u8]) -> NodeView<'a> {
        let (leaf, nkeys, link) = header(bytes);
        if leaf {
            NodeView::Leaf(LeafView {
                bytes,
                nkeys,
                next: (link != NO_LEAF).then_some(link),
            })
        } else {
            NodeView::Internal(InternalView {
                bytes,
                nkeys,
                child0: link,
            })
        }
    }
}

/// A borrowed view of an encoded leaf.
#[derive(Debug, Clone, Copy)]
pub struct LeafView<'a> {
    bytes: &'a [u8],
    nkeys: usize,
    next: Option<BlockNo>,
}

/// Where a key sits in a leaf: the entry's index and its byte range. A
/// missing key's slot is the empty range where it would be inserted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slot {
    /// Entry index (insertion index when the key is missing).
    pub index: usize,
    /// Byte range of the entry within the block.
    pub range: Range<usize>,
}

impl<'a> LeafView<'a> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.nkeys
    }

    /// True when the leaf holds no entries.
    pub fn is_empty(&self) -> bool {
        self.nkeys == 0
    }

    /// The next leaf in key order (`None` at the right edge).
    pub fn next(&self) -> Option<BlockNo> {
        self.next
    }

    /// The entries in key order.
    pub fn iter(&self) -> LeafIter<'a> {
        LeafIter {
            bytes: self.bytes,
            pos: HEADER,
            left: self.nkeys,
        }
    }

    /// Find `key`: `Ok` with its entry, or `Err` with the insertion slot.
    pub fn search(&self, key: &[u8]) -> Result<Slot, Slot> {
        let mut it = self.iter();
        for index in 0..self.nkeys {
            let start = it.pos;
            let Some((k, _)) = it.next() else { break };
            match k.cmp(key) {
                std::cmp::Ordering::Less => {}
                std::cmp::Ordering::Equal => {
                    return Ok(Slot {
                        index,
                        range: start..it.pos,
                    })
                }
                std::cmp::Ordering::Greater => {
                    return Err(Slot {
                        index,
                        range: start..start,
                    })
                }
            }
        }
        Err(Slot {
            index: self.nkeys,
            range: it.pos..it.pos,
        })
    }

    /// The value stored under `key`.
    pub fn get(&self, key: &[u8]) -> Option<&'a [u8]> {
        let slot = self.search(key).ok()?;
        Some(self.value_at(&slot))
    }

    /// The value of the entry occupying `slot`.
    pub fn value_at(&self, slot: &Slot) -> &'a [u8] {
        let klen = be_u16(self.bytes, slot.range.start);
        &self.bytes[slot.range.start + 4 + klen..slot.range.end]
    }

    /// Size of the leaf after `slot` is replaced by `entry` (`None`
    /// removes it).
    pub fn size_after(&self, slot: &Slot, entry: Option<(&[u8], &[u8])>) -> usize {
        self.bytes.len() - slot.range.len() + entry.map_or(0, |(k, v)| 4 + k.len() + v.len())
    }

    /// The block image of this leaf with `slot` replaced by `entry`: an
    /// update when `slot` holds an entry, an insert when it is empty, a
    /// delete when `entry` is `None`. Byte for byte what decoding, editing
    /// and re-encoding the node would give.
    pub fn splice(&self, slot: &Slot, entry: Option<(&[u8], &[u8])>) -> Arc<[u8]> {
        let nkeys = self.nkeys + usize::from(entry.is_some()) - usize::from(!slot.range.is_empty());
        let (head, tail) = (
            &self.bytes[..slot.range.start],
            &self.bytes[slot.range.end..],
        );
        let mut out: Arc<[u8]> = std::iter::repeat_n(0, self.size_after(slot, entry)).collect();
        // A freshly collected `Arc` is unique, so `get_mut` always succeeds.
        if let Some(buf) = Arc::get_mut(&mut out) {
            buf[..head.len()].copy_from_slice(head);
            buf[1..3].copy_from_slice(&(nkeys as u16).to_be_bytes());
            let mut at = head.len();
            if let Some((k, v)) = entry {
                buf[at..at + 2].copy_from_slice(&(k.len() as u16).to_be_bytes());
                buf[at + 2..at + 4].copy_from_slice(&(v.len() as u16).to_be_bytes());
                buf[at + 4..at + 4 + k.len()].copy_from_slice(k);
                buf[at + 4 + k.len()..at + 4 + k.len() + v.len()].copy_from_slice(v);
                at += 4 + k.len() + v.len();
            }
            buf[at..].copy_from_slice(tail);
        }
        out
    }
}

/// The entries of a leaf, in key order, as borrowed `(key, value)` pairs.
#[derive(Debug, Clone)]
pub struct LeafIter<'a> {
    bytes: &'a [u8],
    pos: usize,
    left: usize,
}

impl<'a> Iterator for LeafIter<'a> {
    type Item = (&'a [u8], &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let klen = be_u16(self.bytes, self.pos);
        let vlen = be_u16(self.bytes, self.pos + 2);
        let k = self.pos + 4;
        let v = k + klen;
        self.pos = v + vlen;
        Some((&self.bytes[k..v], &self.bytes[v..self.pos]))
    }
}

/// A borrowed view of an encoded internal node.
#[derive(Debug, Clone, Copy)]
pub struct InternalView<'a> {
    bytes: &'a [u8],
    nkeys: usize,
    child0: BlockNo,
}

impl<'a> InternalView<'a> {
    /// Number of separators (one less than the number of children).
    pub fn len(&self) -> usize {
        self.nkeys
    }

    /// True when the node has no separators (a single child).
    pub fn is_empty(&self) -> bool {
        self.nkeys == 0
    }

    /// Encoded size in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// The leftmost child.
    pub fn first_child(&self) -> BlockNo {
        self.child0
    }

    /// The separators in order, each with the child to its right.
    pub fn seps(&self) -> SepIter<'a> {
        SepIter {
            bytes: self.bytes,
            pos: HEADER,
            left: self.nkeys,
        }
    }

    /// The child whose subtree may hold `key`, with its index: child `i`
    /// where `i` counts the separators `<= key`.
    pub fn child_for(&self, key: &[u8]) -> (usize, BlockNo) {
        let mut found = (0, self.child0);
        for (i, (sep, child)) in self.seps().enumerate() {
            if sep > key {
                break;
            }
            found = (i + 1, child);
        }
        found
    }
}

/// The separators of an internal node, each with the child to its right.
#[derive(Debug, Clone)]
pub struct SepIter<'a> {
    bytes: &'a [u8],
    pos: usize,
    left: usize,
}

impl<'a> Iterator for SepIter<'a> {
    type Item = (&'a [u8], BlockNo);

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let klen = be_u16(self.bytes, self.pos);
        let k = self.pos + 2;
        self.pos = k + klen + 4;
        Some((&self.bytes[k..k + klen], be_u32(self.bytes, k + klen)))
    }
}

/// A decoded B-tree node, for the edits that change a node's structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// Leaf: sorted `(key, record)` entries plus the leaf chain pointer.
    Leaf {
        /// Next leaf in key order (`None` at the right edge).
        next: Option<BlockNo>,
        /// Sorted entries.
        entries: Vec<(Vec<u8>, Vec<u8>)>,
    },
    /// Internal: `children.len() == seps.len() + 1`.
    Internal {
        /// Separator keys.
        seps: Vec<Vec<u8>>,
        /// Child block numbers.
        children: Vec<BlockNo>,
    },
}

impl Node {
    /// An empty leaf.
    pub fn empty_leaf() -> Node {
        Node::Leaf {
            next: None,
            entries: Vec::new(),
        }
    }

    /// Serialized size in bytes.
    pub fn size(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => {
                HEADER
                    + entries
                        .iter()
                        .map(|(k, v)| 4 + k.len() + v.len())
                        .sum::<usize>()
            }
            Node::Internal { seps, .. } => HEADER + seps.iter().map(|k| 6 + k.len()).sum::<usize>(),
        }
    }

    /// Number of entries (leaf) or separators (internal).
    pub fn len(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => entries.len(),
            Node::Internal { seps, .. } => seps.len(),
        }
    }

    /// True when the node holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialize into block bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size());
        match self {
            Node::Leaf { next, entries } => {
                out.push(LEAF);
                out.extend_from_slice(&(entries.len() as u16).to_be_bytes());
                out.extend_from_slice(&next.unwrap_or(NO_LEAF).to_be_bytes());
                for (k, v) in entries {
                    out.extend_from_slice(&(k.len() as u16).to_be_bytes());
                    out.extend_from_slice(&(v.len() as u16).to_be_bytes());
                    out.extend_from_slice(k);
                    out.extend_from_slice(v);
                }
            }
            Node::Internal { seps, children } => {
                assert_eq!(children.len(), seps.len() + 1, "malformed internal node");
                out.push(INTERNAL);
                out.extend_from_slice(&(seps.len() as u16).to_be_bytes());
                out.extend_from_slice(&children[0].to_be_bytes());
                for (k, c) in seps.iter().zip(&children[1..]) {
                    out.extend_from_slice(&(k.len() as u16).to_be_bytes());
                    out.extend_from_slice(k);
                    out.extend_from_slice(&c.to_be_bytes());
                }
            }
        }
        out
    }

    /// Deserialize from block bytes.
    ///
    /// # Panics
    /// Panics on malformed bytes — block corruption is a simulation bug,
    /// not a runtime condition.
    pub fn decode(bytes: &[u8]) -> Node {
        match NodeView::parse(bytes) {
            NodeView::Leaf(leaf) => Node::Leaf {
                next: leaf.next(),
                entries: leaf.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect(),
            },
            NodeView::Internal(node) => Node::Internal {
                seps: node.seps().map(|(k, _)| k.to_vec()).collect(),
                children: std::iter::once(node.first_child())
                    .chain(node.seps().map(|(_, c)| c))
                    .collect(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_round_trip() {
        let n = Node::Leaf {
            next: Some(42),
            entries: vec![
                (b"alpha".to_vec(), b"1".to_vec()),
                (b"beta".to_vec(), vec![0u8; 100]),
            ],
        };
        let bytes = n.encode();
        assert_eq!(bytes.len(), n.size());
        assert_eq!(Node::decode(&bytes), n);
    }

    #[test]
    fn leaf_without_next_round_trip() {
        let n = Node::Leaf {
            next: None,
            entries: vec![],
        };
        assert_eq!(Node::decode(&n.encode()), n);
    }

    #[test]
    fn internal_round_trip() {
        let n = Node::Internal {
            seps: vec![b"m".to_vec(), b"t".to_vec()],
            children: vec![1, 2, 3],
        };
        let bytes = n.encode();
        assert_eq!(bytes.len(), n.size());
        assert_eq!(Node::decode(&bytes), n);
    }

    #[test]
    fn empty_values_allowed() {
        // Secondary index entries carry empty values.
        let n = Node::Leaf {
            next: None,
            entries: vec![(b"idxkey".to_vec(), Vec::new())],
        };
        assert_eq!(Node::decode(&n.encode()), n);
    }

    #[test]
    #[should_panic(expected = "corrupt")]
    fn bad_tag_panics() {
        Node::decode(&[9, 0, 0, 0, 0, 0, 0]);
    }
}
