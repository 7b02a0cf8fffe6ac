//! Byte-level slotted-page node layout.
//!
//! Every node is exactly one database page (4/8/16KB):
//!
//! ```text
//! +--------- header (32B) ----------+-- slot array ->     <- cells --+
//! | kind | level | nkeys | free_lo  |  u16 offsets ...   ... [cell]  |
//! | free_hi | right_sibling | left  |                                |
//! +---------------------------------+--------------------------------+
//! ```
//!
//! * Leaf cell:     `[klen u16][vlen u16][key][value]`
//! * Internal cell: `[klen u16][child u64][key]` — the child holds keys
//!   `>= key`; the header's `leftmost` child holds keys below every cell key.
//!
//! Slots are kept sorted by key, so lookups binary-search the slot array.
//!
//! Cells are written downwards from the end of the page into the free gap
//! and never move on their own. Removing a slot, or pointing it at a new
//! cell, leaves the old cell's bytes behind as dead heap; the page is
//! compacted only when an edit finds the gap too small, through a
//! `Staged` copy. What fits is always decided from the live cells, never
//! from where they happen to lie.

/// Byte offset constants of the header fields.
const OFF_KIND: usize = 0;
const OFF_LEVEL: usize = 1;
const OFF_NKEYS: usize = 2;
const OFF_FREE_LO: usize = 4; // start of free gap (end of slot array)
const OFF_FREE_HI: usize = 6; // end of free gap (start of cell heap)
const OFF_RIGHT: usize = 8; // right sibling (leaf chain)
const OFF_LEFTMOST: usize = 16; // leftmost child (internal)
/// Header size.
pub const HEADER: usize = 32;
/// "No page" sentinel.
pub const NO_PAGE: u64 = u64::MAX;

/// Node kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Holds keys and values.
    Leaf,
    /// Holds separator keys and child pointers.
    Internal,
}

fn get_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes(buf[off..off + 2].try_into().unwrap())
}

fn put_u16(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

fn get_u64(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().unwrap())
}

fn put_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

/// Initialise a page as an empty node.
pub fn init(buf: &mut [u8], kind: Kind, level: u8) {
    buf[OFF_KIND] = match kind {
        Kind::Leaf => 0,
        Kind::Internal => 1,
    };
    buf[OFF_LEVEL] = level;
    put_u16(buf, OFF_NKEYS, 0);
    put_u16(buf, OFF_FREE_LO, HEADER as u16);
    // Page sizes are at most 16KB, so the length fits in u16.
    debug_assert!(buf.len() <= u16::MAX as usize);
    put_u16(buf, OFF_FREE_HI, buf.len() as u16);
    put_u64(buf, OFF_RIGHT, NO_PAGE);
    put_u64(buf, OFF_LEFTMOST, NO_PAGE);
}

/// The node kind stored in a page.
pub fn kind(buf: &[u8]) -> Kind {
    if buf[OFF_KIND] == 0 {
        Kind::Leaf
    } else {
        Kind::Internal
    }
}

/// Distance from the leaves (0 = leaf).
pub fn level(buf: &[u8]) -> u8 {
    buf[OFF_LEVEL]
}

/// Number of keys.
pub fn nkeys(buf: &[u8]) -> usize {
    get_u16(buf, OFF_NKEYS) as usize
}

/// Right sibling page (leaf chain), or [`NO_PAGE`].
pub fn right_sibling(buf: &[u8]) -> u64 {
    get_u64(buf, OFF_RIGHT)
}

/// Set the right sibling.
pub fn set_right_sibling(buf: &mut [u8], page: u64) {
    put_u64(buf, OFF_RIGHT, page);
}

/// Leftmost child of an internal node.
pub fn leftmost_child(buf: &[u8]) -> u64 {
    get_u64(buf, OFF_LEFTMOST)
}

/// Set the leftmost child.
pub fn set_leftmost_child(buf: &mut [u8], page: u64) {
    put_u64(buf, OFF_LEFTMOST, page);
}

fn slot_off(i: usize) -> usize {
    HEADER + 2 * i
}

fn cell_at(buf: &[u8], i: usize) -> usize {
    get_u16(buf, slot_off(i)) as usize
}

/// Key of slot `i`.
pub fn key(buf: &[u8], i: usize) -> &[u8] {
    cell_key(kind(buf), &buf[cell_at(buf, i)..])
}

/// Value of slot `i` (leaf only).
pub fn value(buf: &[u8], i: usize) -> &[u8] {
    debug_assert_eq!(kind(buf), Kind::Leaf);
    let c = cell_at(buf, i);
    let klen = get_u16(buf, c) as usize;
    let vlen = get_u16(buf, c + 2) as usize;
    &buf[c + 4 + klen..c + 4 + klen + vlen]
}

/// Child pointer of slot `i` (internal only).
pub fn child(buf: &[u8], i: usize) -> u64 {
    debug_assert_eq!(kind(buf), Kind::Internal);
    let c = cell_at(buf, i);
    get_u64(buf, c + 2)
}

/// Byte length of the cell of `kind` that `cell` starts with.
fn cell_len(kind: Kind, cell: &[u8]) -> usize {
    let klen = get_u16(cell, 0) as usize;
    match kind {
        Kind::Leaf => cell_size(kind, klen, get_u16(cell, 2) as usize),
        Kind::Internal => cell_size(kind, klen, 0),
    }
}

/// The key inside a whole cell of `kind`.
fn cell_key(kind: Kind, cell: &[u8]) -> &[u8] {
    let klen = get_u16(cell, 0) as usize;
    match kind {
        Kind::Leaf => &cell[4..4 + klen],
        Kind::Internal => &cell[10..10 + klen],
    }
}

/// The whole cell of slot `i`, its header included.
fn cell(buf: &[u8], i: usize) -> &[u8] {
    let c = cell_at(buf, i);
    &buf[c..c + cell_len(kind(buf), &buf[c..])]
}

/// Binary search: `Ok(i)` exact match, `Err(i)` insertion position.
pub fn search(buf: &[u8], k: &[u8]) -> Result<usize, usize> {
    let n = nkeys(buf);
    let mut lo = 0usize;
    let mut hi = n;
    while lo < hi {
        let mid = (lo + hi) / 2;
        match key(buf, mid).cmp(k) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

/// The child an internal node routes `k` to.
pub fn route(buf: &[u8], k: &[u8]) -> u64 {
    debug_assert_eq!(kind(buf), Kind::Internal);
    match search(buf, k) {
        Ok(i) => child(buf, i),
        Err(0) => leftmost_child(buf),
        Err(i) => child(buf, i - 1),
    }
}

/// Free bytes between the slot array and the cell heap.
pub fn free_space(buf: &[u8]) -> usize {
    get_u16(buf, OFF_FREE_HI) as usize - get_u16(buf, OFF_FREE_LO) as usize
}

fn cell_size(kind: Kind, klen: usize, vlen: usize) -> usize {
    match kind {
        Kind::Leaf => 4 + klen + vlen,
        Kind::Internal => 10 + klen,
    }
}

/// Whether a cell of the given sizes fits (cell + one slot entry).
pub fn fits(buf: &[u8], klen: usize, vlen: usize) -> bool {
    free_space(buf) >= cell_size(kind(buf), klen, vlen) + 2
}

fn write_leaf_cell(dst: &mut [u8], k: &[u8], v: &[u8]) {
    put_u16(dst, 0, k.len() as u16);
    put_u16(dst, 2, v.len() as u16);
    dst[4..4 + k.len()].copy_from_slice(k);
    dst[4 + k.len()..].copy_from_slice(v);
}

fn write_internal_cell(dst: &mut [u8], k: &[u8], child_page: u64) {
    put_u16(dst, 0, k.len() as u16);
    put_u64(dst, 2, child_page);
    dst[10..].copy_from_slice(k);
}

/// Carve `size` bytes for a new cell off the top of the free gap.
fn carve(buf: &mut [u8], size: usize) -> usize {
    let hi = get_u16(buf, OFF_FREE_HI) as usize - size;
    put_u16(buf, OFF_FREE_HI, hi as u16);
    hi
}

/// Insert a leaf cell at slot position `i` (caller guarantees order and fit).
pub fn insert_leaf(buf: &mut [u8], i: usize, k: &[u8], v: &[u8]) {
    debug_assert_eq!(kind(buf), Kind::Leaf);
    debug_assert!(fits(buf, k.len(), v.len()));
    let size = cell_size(Kind::Leaf, k.len(), v.len());
    let at = carve(buf, size);
    write_leaf_cell(&mut buf[at..at + size], k, v);
    open_slot(buf, i, at as u16);
}

/// Insert an internal cell at slot position `i`.
pub fn insert_internal(buf: &mut [u8], i: usize, k: &[u8], child_page: u64) {
    debug_assert_eq!(kind(buf), Kind::Internal);
    debug_assert!(fits(buf, k.len(), 0));
    let size = cell_size(Kind::Internal, k.len(), 0);
    let at = carve(buf, size);
    write_internal_cell(&mut buf[at..at + size], k, child_page);
    open_slot(buf, i, at as u16);
}

fn open_slot(buf: &mut [u8], i: usize, cell: u16) {
    let n = nkeys(buf);
    debug_assert!(i <= n);
    buf.copy_within(slot_off(i)..slot_off(n), slot_off(i + 1));
    put_u16(buf, slot_off(i), cell);
    put_u16(buf, OFF_NKEYS, (n + 1) as u16);
    put_u16(buf, OFF_FREE_LO, slot_off(n + 1) as u16);
}

/// Remove slot `i`. Only the slot goes away; the cell stays behind as dead
/// heap until the next compaction.
pub fn remove_slot(buf: &mut [u8], i: usize) {
    let n = nkeys(buf);
    debug_assert!(i < n);
    buf.copy_within(slot_off(i + 1)..slot_off(n), slot_off(i));
    put_u16(buf, OFF_NKEYS, (n - 1) as u16);
    put_u16(buf, OFF_FREE_LO, slot_off(n - 1) as u16);
}

/// Overwrite the value of leaf slot `i` with `v`, which leaves the key in
/// place: where it lies when the length is unchanged, else as a new cell in
/// the free gap that the slot is pointed at. Returns false, with the page
/// untouched, when the gap cannot take the new cell.
pub(crate) fn overwrite_leaf(buf: &mut [u8], i: usize, v: &[u8]) -> bool {
    debug_assert_eq!(kind(buf), Kind::Leaf);
    let c = cell_at(buf, i);
    let klen = get_u16(buf, c) as usize;
    let val = c + 4 + klen;
    if get_u16(buf, c + 2) as usize == v.len() {
        buf[val..val + v.len()].copy_from_slice(v);
        return true;
    }
    let size = cell_size(Kind::Leaf, klen, v.len());
    if free_space(buf) < size {
        return false;
    }
    let at = carve(buf, size);
    // The gap lies below every cell, so the old key is not overwritten.
    buf.copy_within(c + 4..val, at + 4);
    put_u16(buf, at, klen as u16);
    put_u16(buf, at + 2, v.len() as u16);
    buf[at + 4 + klen..at + size].copy_from_slice(v);
    put_u16(buf, slot_off(i), at as u16);
    true
}

/// A node's cells with one edit pending — a new cell inserted at `pos`, or
/// replacing the cell there — held outside the page: the page image as it
/// was, followed by the new cell. Compaction and splits rebuild pages from
/// ranges of that sequence, so neither copies a cell to the heap; the buffer
/// is reused from edit to edit.
#[derive(Default)]
pub(crate) struct Staged {
    /// `[page image][new cell]`.
    bytes: Vec<u8>,
    page_len: usize,
    pos: usize,
    replace: bool,
}

impl Staged {
    fn stage(&mut self, page: &[u8], pos: usize, replace: bool, cell_len: usize) -> &mut [u8] {
        self.bytes.clear();
        // Room for the page and the largest cell it admits
        // ([`max_cell_payload`]): allocated once.
        self.bytes.reserve(page.len() + page.len() / 4);
        self.bytes.extend_from_slice(page);
        self.bytes.resize(page.len() + cell_len, 0);
        (self.page_len, self.pos, self.replace) = (page.len(), pos, replace);
        &mut self.bytes[page.len()..]
    }

    /// Stage leaf `page` with `(k, v)` inserted at slot `pos`, or replacing
    /// the cell there.
    pub(crate) fn stage_leaf(
        &mut self,
        page: &[u8],
        pos: usize,
        replace: bool,
        k: &[u8],
        v: &[u8],
    ) {
        debug_assert_eq!(kind(page), Kind::Leaf);
        let cell = self.stage(page, pos, replace, cell_size(Kind::Leaf, k.len(), v.len()));
        write_leaf_cell(cell, k, v);
    }

    /// Stage internal `page` with `(k, child)` inserted at slot `pos`.
    pub(crate) fn stage_internal(&mut self, page: &[u8], pos: usize, k: &[u8], child_page: u64) {
        debug_assert_eq!(kind(page), Kind::Internal);
        let cell = self.stage(page, pos, false, cell_size(Kind::Internal, k.len(), 0));
        write_internal_cell(cell, k, child_page);
    }

    /// The page as it was when staged (its header outlives the edit).
    pub(crate) fn page(&self) -> &[u8] {
        &self.bytes[..self.page_len]
    }

    /// Number of cells once the edit is applied.
    pub(crate) fn ncells(&self) -> usize {
        nkeys(self.page()) + 1 - self.replace as usize
    }

    fn cell(&self, j: usize) -> &[u8] {
        match j.cmp(&self.pos) {
            std::cmp::Ordering::Less => cell(self.page(), j),
            std::cmp::Ordering::Equal => &self.bytes[self.page_len..],
            std::cmp::Ordering::Greater => cell(self.page(), j - 1 + self.replace as usize),
        }
    }

    /// Page bytes cell `j` needs: the cell and its slot entry.
    pub(crate) fn footprint(&self, j: usize) -> usize {
        self.cell(j).len() + 2
    }

    /// Key of cell `j`.
    pub(crate) fn key(&self, j: usize) -> &[u8] {
        cell_key(kind(self.page()), self.cell(j))
    }

    /// Child pointer of cell `j` (internal only).
    pub(crate) fn child(&self, j: usize) -> u64 {
        debug_assert_eq!(kind(self.page()), Kind::Internal);
        get_u64(self.cell(j), 2)
    }

    /// Page bytes all the cells need together.
    pub(crate) fn total_footprint(&self) -> usize {
        (0..self.ncells()).map(|j| self.footprint(j)).sum()
    }

    /// Whether every cell fits one page — a function of the live cells
    /// only, however leaky the staged page's heap was.
    pub(crate) fn fits_one_page(&self) -> bool {
        HEADER + self.total_footprint() <= self.page_len
    }

    /// Replace `buf`'s cells with cells `range`, compacted; the rest of its
    /// header (kind, level, sibling, leftmost child) stays.
    pub(crate) fn fill(&self, buf: &mut [u8], range: std::ops::Range<usize>) {
        debug_assert_eq!(kind(buf), kind(self.page()));
        put_u16(buf, OFF_NKEYS, 0);
        put_u16(buf, OFF_FREE_LO, HEADER as u16);
        put_u16(buf, OFF_FREE_HI, buf.len() as u16);
        for j in range {
            let cell = self.cell(j);
            let at = carve(buf, cell.len());
            buf[at..at + cell.len()].copy_from_slice(cell);
            open_slot(buf, nkeys(buf), at as u16);
        }
    }
}

/// Largest cell payload a page can hold (used to reject oversized rows):
/// a node must fit at least 4 cells to stay a tree.
pub fn max_cell_payload(page_size: usize) -> usize {
    (page_size - HEADER - 2 * 4) / 4 - 4
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page() -> Vec<u8> {
        vec![0u8; 4096]
    }

    #[test]
    fn init_leaf_is_empty() {
        let mut p = page();
        init(&mut p, Kind::Leaf, 0);
        assert_eq!(kind(&p), Kind::Leaf);
        assert_eq!(nkeys(&p), 0);
        assert_eq!(right_sibling(&p), NO_PAGE);
        assert!(free_space(&p) > 4000);
    }

    #[test]
    fn leaf_insert_and_search() {
        let mut p = page();
        init(&mut p, Kind::Leaf, 0);
        // Insert out of order at computed positions.
        for k in [b"mango".as_ref(), b"apple".as_ref(), b"zebra".as_ref()] {
            let pos = search(&p, k).unwrap_err();
            insert_leaf(&mut p, pos, k, b"v");
        }
        assert_eq!(nkeys(&p), 3);
        assert_eq!(key(&p, 0), b"apple");
        assert_eq!(key(&p, 1), b"mango");
        assert_eq!(key(&p, 2), b"zebra");
        assert_eq!(search(&p, b"mango"), Ok(1));
        assert_eq!(search(&p, b"banana"), Err(1));
        assert_eq!(value(&p, 1), b"v");
    }

    #[test]
    fn internal_routing() {
        let mut p = page();
        init(&mut p, Kind::Internal, 1);
        set_leftmost_child(&mut p, 100);
        insert_internal(&mut p, 0, b"g", 200);
        insert_internal(&mut p, 1, b"p", 300);
        assert_eq!(route(&p, b"a"), 100);
        assert_eq!(route(&p, b"g"), 200);
        assert_eq!(route(&p, b"k"), 200);
        assert_eq!(route(&p, b"p"), 300);
        assert_eq!(route(&p, b"z"), 300);
    }

    #[test]
    fn fits_accounts_for_slot() {
        let mut p = vec![0u8; 64 + HEADER];
        init(&mut p, Kind::Leaf, 0);
        // free = 64; cell = 4+k+v, slot = 2.
        assert!(fits(&p, 20, 38)); // 4+58+2 = 64
        assert!(!fits(&p, 20, 39));
    }

    #[test]
    fn remove_slot_shifts() {
        let mut p = page();
        init(&mut p, Kind::Leaf, 0);
        for (i, k) in [b"a", b"b", b"c"].iter().enumerate() {
            insert_leaf(&mut p, i, *k, b"1");
        }
        remove_slot(&mut p, 1);
        assert_eq!(nkeys(&p), 2);
        assert_eq!(key(&p, 0), b"a");
        assert_eq!(key(&p, 1), b"c");
    }

    #[test]
    fn overwrite_in_place_then_in_the_gap_then_refused() {
        let mut p = vec![0u8; HEADER + 64];
        init(&mut p, Kind::Leaf, 0);
        insert_leaf(&mut p, 0, b"a", b"1111");
        insert_leaf(&mut p, 1, b"b", b"2222");
        let free = free_space(&p);
        // Same length: the bytes change where they lie.
        assert!(overwrite_leaf(&mut p, 0, b"xxxx"));
        assert_eq!((value(&p, 0), free_space(&p)), (&b"xxxx"[..], free));
        // Another length: a new cell in the gap, the old one left behind.
        assert!(overwrite_leaf(&mut p, 0, b"longer-value"));
        assert_eq!((key(&p, 0), value(&p, 0)), (&b"a"[..], &b"longer-value"[..]));
        assert_eq!(free_space(&p), free - (4 + 1 + 12));
        assert_eq!((key(&p, 1), value(&p, 1), nkeys(&p)), (&b"b"[..], &b"2222"[..], 2));
        // A cell the gap cannot take: refused, page untouched.
        let before = p.clone();
        assert!(!overwrite_leaf(&mut p, 1, &[7u8; 40]));
        assert_eq!(p, before);
    }

    #[test]
    fn staged_fill_compacts_and_applies_the_edit() {
        let mut p = page();
        init(&mut p, Kind::Leaf, 0);
        set_right_sibling(&mut p, 77);
        for (i, k) in [b"a", b"b", b"c", b"e"].iter().enumerate() {
            insert_leaf(&mut p, i, *k, &[i as u8]);
        }
        remove_slot(&mut p, 2); // leak some heap space
        let mut st = Staged::default();
        st.stage_leaf(&p, 2, false, b"d", b"new");
        assert_eq!(st.ncells(), 4);
        assert!(st.fits_one_page());
        assert_eq!((st.key(1), st.key(2), st.key(3)), (&b"b"[..], &b"d"[..], &b"e"[..]));
        st.fill(&mut p, 0..4);
        assert_eq!(nkeys(&p), 4);
        assert_eq!((key(&p, 2), value(&p, 2)), (&b"d"[..], &b"new"[..]));
        assert_eq!((key(&p, 3), value(&p, 3)), (&b"e"[..], &[3u8][..]));
        assert_eq!(right_sibling(&p), 77);
        // Heap fully compacted: four cells and their slots, nothing else.
        assert_eq!(free_space(&p), 4096 - HEADER - (3 * (4 + 1 + 1 + 2) + (4 + 1 + 3 + 2)));
        // Replacing takes the old cell's place in the sequence.
        st.stage_leaf(&p, 0, true, b"a", b"replaced");
        assert_eq!(st.ncells(), 4);
        st.fill(&mut p, 1..4);
        assert_eq!((nkeys(&p), key(&p, 0)), (3, &b"b"[..]));
        st.fill(&mut p, 0..1);
        assert_eq!((nkeys(&p), value(&p, 0)), (1, &b"replaced"[..]));
    }

    #[test]
    fn staged_internal_keeps_children_with_their_keys() {
        let mut p = page();
        init(&mut p, Kind::Internal, 2);
        set_leftmost_child(&mut p, 9);
        insert_internal(&mut p, 0, b"m", 10);
        let mut st = Staged::default();
        st.stage_internal(&p, 0, b"g", 11);
        assert_eq!(
            (st.key(0), st.child(0), st.key(1), st.child(1)),
            (&b"g"[..], 11, &b"m"[..], 10)
        );
        st.fill(&mut p, 0..2);
        assert_eq!(level(&p), 2);
        assert_eq!(leftmost_child(&p), 9);
        assert_eq!((child(&p, 0), child(&p, 1)), (11, 10));
        assert_eq!(route(&p, b"h"), 11);
    }

    #[test]
    fn max_cell_payload_reasonable() {
        assert!(max_cell_payload(4096) > 900);
        assert!(max_cell_payload(16384) > 4000);
    }

    mod proptests {
        use super::*;
        use simkit::dist::{rng, Rng};
        use std::collections::{BTreeMap, BTreeSet};

        fn random_bytes<R: Rng>(r: &mut R, min: usize, max: usize) -> Vec<u8> {
            let len = r.gen_range(min..max);
            (0..len).map(|_| r.gen::<u8>()).collect()
        }

        /// Inserting arbitrary sorted cells and reading them back is
        /// lossless, across page sizes.
        #[test]
        fn leaf_cells_round_trip() {
            let mut r = rng(0xB7EE);
            for case in 0..128 {
                let page_size = [4096usize, 8192, 16384][case % 3];
                let mut cells: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
                for _ in 0..r.gen_range(1..30usize) {
                    cells.insert(random_bytes(&mut r, 1, 24), random_bytes(&mut r, 0, 64));
                }
                let mut p = vec![0u8; page_size];
                init(&mut p, Kind::Leaf, 0);
                let mut entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
                for (k, v) in &cells {
                    if !fits(&p, k.len(), v.len()) {
                        continue;
                    }
                    insert_leaf(&mut p, entries.len(), k, v);
                    entries.push((k.clone(), v.clone()));
                }
                assert_eq!(nkeys(&p), entries.len());
                for (i, (k, v)) in entries.iter().enumerate() {
                    assert_eq!(key(&p, i), k.as_slice());
                    assert_eq!(value(&p, i), v.as_slice());
                    assert_eq!(search(&p, k), Ok(i));
                }
                // Staging a replacement of one cell by itself and filling
                // the page from it is the identity on the cells.
                let mut st = Staged::default();
                let at = r.gen_range(0..entries.len());
                st.stage_leaf(&p, at, true, &entries[at].0, &entries[at].1);
                assert!(st.fits_one_page());
                st.fill(&mut p, 0..entries.len());
                assert_eq!(nkeys(&p), entries.len());
                for (i, (k, v)) in entries.iter().enumerate() {
                    assert_eq!((key(&p, i), value(&p, i)), (k.as_slice(), v.as_slice()));
                }
            }
        }

        /// Binary search agrees with a linear scan for arbitrary probes.
        #[test]
        fn search_matches_linear_scan() {
            let mut r = rng(0x5EA2C4);
            for _ in 0..256 {
                let mut keys: BTreeSet<Vec<u8>> = BTreeSet::new();
                for _ in 0..r.gen_range(1..40usize) {
                    keys.insert(random_bytes(&mut r, 1, 12));
                }
                let probe = random_bytes(&mut r, 1, 12);
                let mut p = vec![0u8; 8192];
                init(&mut p, Kind::Leaf, 0);
                let sorted: Vec<Vec<u8>> = keys.into_iter().collect();
                for (i, k) in sorted.iter().enumerate() {
                    insert_leaf(&mut p, i, k, b"v");
                }
                let expected = sorted.binary_search(&probe);
                assert_eq!(search(&p, &probe), expected);
            }
        }
    }
}
