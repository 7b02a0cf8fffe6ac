//! Copy-on-write B+-tree nodes.
//!
//! Nodes are immutable once appended (couchstore-style): an update rewrites
//! the whole root-to-leaf path. Both node kinds share one entry layout:
//! `(key, ptr, len)` where the pointer refers to a document (leaf) or a
//! child node (internal); an internal entry's key is the **max key** of its
//! child's subtree. A leaf entry with `len == 0` is a deletion tombstone.
//!
//! On disk a node is `[kind u8][count u16][crc u32]` followed by its entries,
//! each `[klen u16][ptr u64][len u32][key]`; the CRC covers the entries. In
//! memory a [`Node`] *is* those bytes plus the offset of every entry: a path
//! rewrite copies the bytes before and after the replaced entry and
//! checksums the result once, and the bytes that were checksummed are the
//! bytes appended. There is no per-entry allocation.

use simkit::crc32;
use std::ops::Range;

/// Target serialized node size (couchstore uses ~4KB chunks).
pub const NODE_CAP: usize = 4096;

/// Node kinds.
pub const KIND_LEAF: u8 = 0;
/// Internal node marker.
pub const KIND_INTERNAL: u8 = 1;

/// Node header: kind, entry count, CRC.
const HDR: usize = 7;
/// Fixed part of an entry: key length, pointer, length.
const ENTRY_FIXED: usize = 14;

/// One node entry, borrowed from a [`Node`] or from the caller's key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryRef<'a> {
    /// Key (leaf) or subtree max key (internal).
    pub key: &'a [u8],
    /// Byte offset of the document / child node.
    pub ptr: u64,
    /// Length of the document / child node; 0 marks a leaf tombstone.
    pub len: u32,
}

/// A flat entry list in the on-disk node layout.
///
/// It is built with [`Node::reset`], [`Node::push`], [`Node::extend_from`] and
/// [`Node::splice`], which leave the count and CRC fields unset; [`Node::seal`]
/// fills them in and makes [`Node::bytes`] an appendable node. A list too
/// large for one node (an overflowing rewrite, a whole tree level during
/// compaction) is cut with [`Node::chunks`]. Buffers are reused: every
/// builder call keeps the capacity the node already has.
#[derive(Debug, Default)]
pub struct Node {
    bytes: Vec<u8>,
    /// `offs[i]` is where entry `i` starts in `bytes`.
    offs: Vec<u32>,
}

impl Node {
    /// Parse an encoded node; `None` when malformed or CRC-corrupt.
    pub fn from_bytes(bytes: Vec<u8>) -> Option<Self> {
        if bytes.len() < HDR || (bytes[0] != KIND_LEAF && bytes[0] != KIND_INTERNAL) {
            return None;
        }
        let n = u16::from_le_bytes(bytes[1..3].try_into().ok()?) as usize;
        let crc = u32::from_le_bytes(bytes[3..HDR].try_into().ok()?);
        if crc != crc32(&bytes[HDR..]) {
            return None;
        }
        let mut offs = Vec::with_capacity(n);
        let mut pos = HDR;
        for _ in 0..n {
            let klen = u16::from_le_bytes(bytes.get(pos..pos + 2)?.try_into().ok()?) as usize;
            offs.push(pos as u32);
            pos += ENTRY_FIXED + klen;
        }
        // Exact: the last key ends where the buffer does.
        (pos == bytes.len()).then_some(Self { bytes, offs })
    }

    /// Start an empty list of `kind`.
    pub fn reset(&mut self, kind: u8) {
        self.bytes.clear();
        self.bytes.extend_from_slice(&[kind, 0, 0, 0, 0, 0, 0]);
        self.offs.clear();
    }

    /// [`KIND_LEAF`] or [`KIND_INTERNAL`].
    pub fn kind(&self) -> u8 {
        self.bytes[0]
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.offs.len()
    }

    /// Whether the list has no entries.
    pub fn is_empty(&self) -> bool {
        self.offs.is_empty()
    }

    /// The encoded node (valid once sealed).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Where entry `i` starts; `i == len()` gives the end of the last one.
    fn off(&self, i: usize) -> usize {
        self.offs.get(i).map_or(self.bytes.len(), |&o| o as usize)
    }

    /// The entry encoded at byte offset `at`.
    fn entry_at(&self, at: usize) -> EntryRef<'_> {
        let klen = u16::from_le_bytes([self.bytes[at], self.bytes[at + 1]]) as usize;
        let e = &self.bytes[at..at + ENTRY_FIXED + klen];
        EntryRef {
            key: &e[ENTRY_FIXED..],
            ptr: u64::from_le_bytes(e[2..10].try_into().expect("8 bytes")),
            len: u32::from_le_bytes(e[10..ENTRY_FIXED].try_into().expect("4 bytes")),
        }
    }

    /// Entry `i`.
    pub fn entry(&self, i: usize) -> EntryRef<'_> {
        self.entry_at(self.offs[i] as usize)
    }

    /// The entries in order.
    pub fn entries(&self) -> impl DoubleEndedIterator<Item = EntryRef<'_>> {
        self.offs.iter().map(|&at| self.entry_at(at as usize))
    }

    /// Binary search for `key`: `Ok(i)` if entry `i` has it, else `Err(i)`
    /// with the index it would be inserted at.
    pub fn search(&self, key: &[u8]) -> Result<usize, usize> {
        self.offs.binary_search_by(|&at| self.entry_at(at as usize).key.cmp(key))
    }

    /// The child index an internal node routes `key` to: the first entry
    /// whose max-key is `>= key`, else the last entry.
    pub fn route(&self, key: &[u8]) -> usize {
        match self.search(key) {
            Ok(i) => i,
            Err(i) => i.min(self.len() - 1),
        }
    }

    /// Append one entry.
    pub fn push(&mut self, e: EntryRef<'_>) {
        self.offs.push(self.bytes.len() as u32);
        self.bytes.extend_from_slice(&(e.key.len() as u16).to_le_bytes());
        self.bytes.extend_from_slice(&e.ptr.to_le_bytes());
        self.bytes.extend_from_slice(&e.len.to_le_bytes());
        self.bytes.extend_from_slice(e.key);
    }

    /// Append entries `range` of `src`: one byte copy, no re-encoding.
    pub fn extend_from(&mut self, src: &Node, range: Range<usize>) {
        let (from, to) = (src.off(range.start), src.off(range.end));
        let at = self.bytes.len() as u32;
        self.offs.extend(src.offs[range].iter().map(|&o| o - from as u32 + at));
        self.bytes.extend_from_slice(&src.bytes[from..to]);
    }

    /// Make `out` this list with entries `range` replaced by `repl` — the
    /// copy-on-write rewrite of one node.
    pub fn splice<'a>(
        &self,
        range: Range<usize>,
        repl: impl IntoIterator<Item = EntryRef<'a>>,
        out: &mut Node,
    ) {
        out.reset(self.kind());
        out.extend_from(self, 0..range.start);
        for e in repl {
            out.push(e);
        }
        out.extend_from(self, range.end..self.len());
    }

    /// Fill in the count and CRC: [`Node::bytes`] is now an encoded node.
    pub fn seal(&mut self) {
        let n = u16::try_from(self.len()).expect("a node holds at most 65535 entries");
        self.bytes[1..3].copy_from_slice(&n.to_le_bytes());
        let crc = crc32(&self.bytes[HDR..]);
        self.bytes[3..HDR].copy_from_slice(&crc.to_le_bytes());
    }

    /// Whether the list encodes to at most [`NODE_CAP`] bytes.
    pub fn fits(&self) -> bool {
        self.bytes.len() <= NODE_CAP
    }

    /// Cut the list into index ranges that each encode to at most
    /// [`NODE_CAP`] bytes: one range if it fits, else byte-balanced parts.
    pub fn chunks(&self) -> Chunks<'_> {
        let total = self.bytes.len() - HDR;
        let target = if self.fits() {
            usize::MAX
        } else {
            let parts = total.div_ceil(NODE_CAP - HDR).max(2);
            total.div_ceil(parts)
        };
        Chunks { node: self, next: 0, target }
    }
}

/// Iterator of [`Node::chunks`].
pub struct Chunks<'a> {
    node: &'a Node,
    next: usize,
    /// A chunk closes before the entry that would take it past this many
    /// entry bytes (but never empty).
    target: usize,
}

impl Iterator for Chunks<'_> {
    type Item = Range<usize>;

    fn next(&mut self) -> Option<Range<usize>> {
        let start = self.next;
        if start == self.node.len() {
            return None;
        }
        let from = self.node.off(start);
        let mut end = start + 1;
        while end < self.node.len() && self.node.off(end + 1) - from <= self.target {
            end += 1;
        }
        self.next = end;
        Some(start..end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The owned-entry codec this module used before nodes became flat,
    /// kept as the oracle `Node` must match byte for byte.
    mod oracle {
        use super::super::{crc32, NODE_CAP};

        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct Entry {
            pub key: Vec<u8>,
            pub ptr: u64,
            pub len: u32,
        }

        impl Entry {
            fn encoded_len(&self) -> usize {
                2 + 8 + 4 + self.key.len()
            }
        }

        pub fn node_size(entries: &[Entry]) -> usize {
            1 + 2 + 4 + entries.iter().map(Entry::encoded_len).sum::<usize>()
        }

        pub fn encode_node(kind: u8, entries: &[Entry]) -> Vec<u8> {
            let mut out = Vec::with_capacity(node_size(entries));
            out.push(kind);
            out.extend_from_slice(&(entries.len() as u16).to_le_bytes());
            out.extend_from_slice(&[0u8; 4]); // crc placeholder
            for e in entries {
                out.extend_from_slice(&(e.key.len() as u16).to_le_bytes());
                out.extend_from_slice(&e.ptr.to_le_bytes());
                out.extend_from_slice(&e.len.to_le_bytes());
                out.extend_from_slice(&e.key);
            }
            let crc = crc32(&out[7..]);
            out[3..7].copy_from_slice(&crc.to_le_bytes());
            out
        }

        pub fn decode_node(buf: &[u8]) -> Option<(u8, Vec<Entry>)> {
            if buf.len() < 7 {
                return None;
            }
            let kind = buf[0];
            if kind != 0 && kind != 1 {
                return None;
            }
            let n = u16::from_le_bytes(buf[1..3].try_into().ok()?) as usize;
            let crc = u32::from_le_bytes(buf[3..7].try_into().ok()?);
            if crc != crc32(&buf[7..]) {
                return None;
            }
            let mut pos = 7usize;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                if pos + 14 > buf.len() {
                    return None;
                }
                let klen = u16::from_le_bytes(buf[pos..pos + 2].try_into().ok()?) as usize;
                let ptr = u64::from_le_bytes(buf[pos + 2..pos + 10].try_into().ok()?);
                let len = u32::from_le_bytes(buf[pos + 10..pos + 14].try_into().ok()?);
                pos += 14;
                if pos + klen > buf.len() {
                    return None;
                }
                entries.push(Entry { key: buf[pos..pos + klen].to_vec(), ptr, len });
                pos += klen;
            }
            if pos != buf.len() {
                return None;
            }
            Some((kind, entries))
        }

        pub fn split_entries(entries: Vec<Entry>) -> Vec<Vec<Entry>> {
            if node_size(&entries) <= NODE_CAP {
                return vec![entries];
            }
            let total: usize = entries.iter().map(Entry::encoded_len).sum();
            let parts = total.div_ceil(NODE_CAP - 7).max(2);
            let target = total.div_ceil(parts);
            let mut out = Vec::with_capacity(parts);
            let mut cur = Vec::new();
            let mut acc = 0usize;
            for e in entries {
                let el = e.encoded_len();
                if acc + el > target && !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                    acc = 0;
                }
                acc += el;
                cur.push(e);
            }
            if !cur.is_empty() {
                out.push(cur);
            }
            out
        }
    }
    use oracle::{decode_node, encode_node, node_size, split_entries, Entry};

    fn entry(k: &str, ptr: u64) -> Entry {
        Entry { key: k.as_bytes().to_vec(), ptr, len: 10 }
    }

    fn as_ref(e: &Entry) -> EntryRef<'_> {
        EntryRef { key: &e.key, ptr: e.ptr, len: e.len }
    }

    fn node_of(kind: u8, entries: &[Entry]) -> Node {
        let mut n = Node::default();
        n.reset(kind);
        for e in entries {
            n.push(as_ref(e));
        }
        n.seal();
        n
    }

    fn owned(n: &Node) -> Vec<Entry> {
        n.entries().map(|e| Entry { key: e.key.to_vec(), ptr: e.ptr, len: e.len }).collect()
    }

    #[test]
    fn encode_decode_round_trip() {
        let entries = vec![entry("apple", 1), entry("mango", 2), entry("zebra", 3)];
        let node = node_of(KIND_LEAF, &entries);
        assert_eq!(node.bytes(), encode_node(KIND_LEAF, &entries));
        let back = Node::from_bytes(node.bytes().to_vec()).unwrap();
        assert_eq!(back.kind(), KIND_LEAF);
        assert_eq!(owned(&back), entries);
    }

    #[test]
    fn corruption_detected() {
        let mut buf = node_of(KIND_INTERNAL, &[entry("k", 1)]).bytes().to_vec();
        assert!(Node::from_bytes(buf.clone()).is_some());
        buf[10] ^= 0xff;
        assert!(Node::from_bytes(buf.clone()).is_none());
        assert!(Node::from_bytes(buf[..3].to_vec()).is_none());
        assert!(Node::from_bytes(Vec::new()).is_none());
    }

    #[test]
    fn split_balances_by_bytes() {
        let entries: Vec<Entry> = (0..600).map(|i| entry(&format!("key{i:05}"), i)).collect();
        let wide = node_of(KIND_LEAF, &entries);
        let chunks: Vec<_> = wide.chunks().collect();
        assert!(chunks.len() >= 2);
        let mut next = 0;
        for c in &chunks {
            assert_eq!(c.start, next, "order preserved, nothing skipped");
            assert!(c.end > c.start);
            assert!(node_size(&entries[c.clone()]) <= NODE_CAP);
            next = c.end;
        }
        assert_eq!(next, entries.len());
    }

    #[test]
    fn small_list_not_split() {
        let node = node_of(KIND_LEAF, &[entry("a", 1)]);
        assert_eq!(node.chunks().collect::<Vec<_>>(), vec![0..1]);
    }

    #[test]
    fn routing_picks_first_cover() {
        let node = node_of(KIND_INTERNAL, &[entry("g", 0), entry("p", 1), entry("z", 2)]);
        assert_eq!(node.route(b"a"), 0);
        assert_eq!(node.route(b"g"), 0);
        assert_eq!(node.route(b"h"), 1);
        assert_eq!(node.route(b"p"), 1);
        assert_eq!(node.route(b"q"), 2);
        // Beyond the max key: clamp to the last child (inserts grow it).
        assert_eq!(node.route(b"zz"), 2);
        assert_eq!(node.search(b"p"), Ok(1));
        assert_eq!(node.search(b"h"), Err(1));
        assert_eq!(node.search(b"zz"), Err(3));
    }

    mod proptests {
        use super::*;
        use simkit::dist::{rng, Rng};
        use std::collections::BTreeMap;

        fn random_entries<R: Rng>(r: &mut R) -> Vec<Entry> {
            let mut m: BTreeMap<Vec<u8>, (u64, u32)> = BTreeMap::new();
            for _ in 0..r.gen_range(1..200usize) {
                let klen = r.gen_range(1..30usize);
                let key: Vec<u8> = (0..klen).map(|_| r.gen::<u8>()).collect();
                m.insert(key, (r.gen::<u64>(), r.gen_range(1..10_000u32)));
            }
            m.into_iter().map(|(key, (ptr, len))| Entry { key, ptr, len }).collect()
        }

        #[test]
        fn from_bytes_matches_the_old_decoder() {
            let mut r = rng(0xC07);
            for _ in 0..256 {
                let entries = random_entries(&mut r);
                for kind in [KIND_LEAF, KIND_INTERNAL] {
                    let buf = encode_node(kind, &entries);
                    let node = Node::from_bytes(buf.clone()).unwrap();
                    assert_eq!((node.kind(), owned(&node)), decode_node(&buf).unwrap());
                    assert_eq!(node.bytes(), buf);
                    for (i, e) in entries.iter().enumerate() {
                        assert_eq!(node.search(&e.key), Ok(i));
                    }
                    // Whatever the old decoder rejects, the flat one rejects:
                    // a flipped byte, a cut tail, trailing garbage.
                    let at = r.gen_range(0..buf.len());
                    let mut bad = buf.clone();
                    bad[at] ^= 1 << r.gen_range(0..8u32);
                    let mut long = buf.clone();
                    long.push(0);
                    for b in [bad, buf[..at].to_vec(), long] {
                        assert_eq!(
                            Node::from_bytes(b.clone()).is_some(),
                            decode_node(&b).is_some()
                        );
                    }
                }
            }
        }

        #[test]
        fn splice_matches_the_old_encoder() {
            let mut r = rng(0x5B11CE);
            let mut out = Node::default();
            for _ in 0..256 {
                let mut entries = random_entries(&mut r);
                let repl = random_entries(&mut r);
                let repl = &repl[..r.gen_range(0..repl.len().min(4) + 1)];
                let from = r.gen_range(0..=entries.len());
                let to = r.gen_range(from..=entries.len().min(from + 2));
                let kind = if r.gen::<bool>() { KIND_LEAF } else { KIND_INTERNAL };
                let node = Node::from_bytes(encode_node(kind, &entries)).unwrap();
                // `out` is reused across iterations, like the store's spares.
                node.splice(from..to, repl.iter().map(as_ref), &mut out);
                out.seal();
                entries.splice(from..to, repl.iter().cloned());
                assert_eq!(out.bytes(), encode_node(kind, &entries));
                assert_eq!(owned(&out), entries);
            }
        }

        #[test]
        fn chunks_match_the_old_split() {
            let mut r = rng(0x5117);
            let mut part = Node::default();
            for round in 0..256 {
                // Every few rounds a list several nodes wide.
                let mut entries = random_entries(&mut r);
                if round % 4 == 0 {
                    for _ in 0..3 {
                        entries.extend(random_entries(&mut r));
                    }
                }
                let wide = node_of(KIND_INTERNAL, &entries);
                let want = split_entries(entries);
                let got: Vec<_> = wide.chunks().collect();
                assert_eq!(got.len(), want.len());
                for (range, chunk) in got.into_iter().zip(&want) {
                    part.reset(KIND_INTERNAL);
                    part.extend_from(&wide, range);
                    part.seal();
                    assert_eq!(part.bytes(), encode_node(KIND_INTERNAL, chunk));
                }
            }
        }
    }
}
