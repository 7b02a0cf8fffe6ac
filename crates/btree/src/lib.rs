//! Page-based B+-tree, parameterised by page size.
//!
//! This is the index structure under every table in the `relstore` engine
//! (and the shape the paper's page-size experiments exercise: a 4KB tree is
//! one level deeper than an 8KB tree over the same data — the anomaly the
//! paper observed in Fig. 5).
//!
//! The tree does all page access through the [`PageStore`] trait, which the
//! storage engine implements on top of its buffer pool; virtual time flows
//! through every call. Keys and values are arbitrary byte strings.
//!
//! Deletion removes keys without structural rebalancing (like PostgreSQL's
//! nbtree, pages are reclaimed only when they empty out entirely via
//! overwrite patterns); tests pin the resulting invariants.
//!
//! A leaf is edited where it lies: a same-length overwrite changes the
//! value's bytes, another length goes into the free gap and the slot is
//! pointed at it, an insert takes the gap. Only an edit the gap cannot take
//! touches the other cells — the leaf is compacted, or split, through the
//! tree's one page-sized `node::Staged` buffer. Whether a leaf splits, and
//! where, is a function of its live cells only, so tree shapes do not depend
//! on how the heap inside a page happens to be laid out.

pub mod node;

use node::{Kind, Staged, NO_PAGE};
use simkit::Nanos;

/// Page-access interface the tree runs on. Implementations charge virtual
/// time for faults and evictions.
pub trait PageStore {
    /// Page size in bytes; constant for the life of the store.
    fn page_size(&self) -> usize;
    /// Allocate a fresh page number (no I/O yet).
    fn allocate(&mut self) -> u64;
    /// Run `f` over the page's bytes (read). Returns `f`'s result and the
    /// advanced time.
    fn with_page<R>(&mut self, page_no: u64, now: Nanos, f: impl FnOnce(&[u8]) -> R) -> (R, Nanos);
    /// Run `f` over the page's bytes mutably (the page becomes dirty).
    fn with_page_mut<R>(
        &mut self,
        page_no: u64,
        now: Nanos,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> (R, Nanos);
    /// Like `with_page_mut` for a page that is brand new (no read needed).
    fn with_new_page<R>(
        &mut self,
        page_no: u64,
        now: Nanos,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> (R, Nanos);
}

/// Tree statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct TreeStats {
    /// Leaf splits performed.
    pub leaf_splits: u64,
    /// Internal splits performed.
    pub internal_splits: u64,
    /// Height increases (root splits).
    pub root_splits: u64,
}

/// A B+-tree rooted at a page. The root page number and height are the
/// tree's only out-of-band state (the engine catalog persists them).
pub struct BTree {
    root: u64,
    height: u8,
    stats: TreeStats,
    /// Where a node that must be compacted or split is staged; one
    /// page-sized buffer per tree, grown on first use.
    staged: Staged,
}

/// Result of a recursive insert: a split bubbled up.
struct Split {
    sep: Vec<u8>,
    right: u64,
}

impl BTree {
    /// Create a new empty tree in `store`.
    pub fn create<S: PageStore>(store: &mut S, now: Nanos) -> (Self, Nanos) {
        let root = store.allocate();
        let (_, t) = store.with_new_page(root, now, |buf| node::init(buf, Kind::Leaf, 0));
        (Self::open(root, 0), t)
    }

    /// Re-open a tree from its persisted root/height (after recovery).
    pub fn open(root: u64, height: u8) -> Self {
        Self { root, height, stats: TreeStats::default(), staged: Staged::default() }
    }

    /// Root page number (for the catalog).
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Height (0 = the root is a leaf). A 100GB 4KB-page tree in the paper
    /// is height 3; page-size tuning changes this.
    pub fn height(&self) -> u8 {
        self.height
    }

    /// Split/structure statistics.
    pub fn stats(&self) -> TreeStats {
        self.stats
    }

    /// Look up `key`; returns the value if present.
    pub fn get<S: PageStore>(
        &self,
        store: &mut S,
        key: &[u8],
        now: Nanos,
    ) -> (Option<Vec<u8>>, Nanos) {
        let mut page = self.root;
        let mut t = now;
        loop {
            let (next, t2) = store.with_page(page, t, |buf| match node::kind(buf) {
                Kind::Internal => Err(node::route(buf, key)),
                Kind::Leaf => Ok(match node::search(buf, key) {
                    Ok(i) => Some(node::value(buf, i).to_vec()),
                    Err(_) => None,
                }),
            });
            t = t2;
            match next {
                Ok(found) => return (found, t),
                Err(child) => page = child,
            }
        }
    }

    /// Insert or overwrite `key` with `value`. Returns whether the key was
    /// new, and the completion time.
    pub fn put<S: PageStore>(
        &mut self,
        store: &mut S,
        key: &[u8],
        value: &[u8],
        now: Nanos,
    ) -> (bool, Nanos) {
        let max = node::max_cell_payload(store.page_size());
        assert!(
            key.len() + value.len() <= max,
            "cell of {} bytes exceeds page capacity {max}",
            key.len() + value.len()
        );
        let ((inserted, split), t) = self.put_rec(store, self.root, key, value, now);
        if let Some(s) = split {
            // Root split: grow the tree.
            let new_root = store.allocate();
            let old_root = self.root;
            let new_height = self.height + 1;
            let (_, t2) = store.with_new_page(new_root, t, |buf| {
                node::init(buf, Kind::Internal, new_height);
                node::set_leftmost_child(buf, old_root);
                node::insert_internal(buf, 0, &s.sep, s.right);
            });
            self.root = new_root;
            self.height = new_height;
            self.stats.root_splits += 1;
            return (inserted, t2);
        }
        (inserted, t)
    }

    fn put_rec<S: PageStore>(
        &mut self,
        store: &mut S,
        page: u64,
        key: &[u8],
        value: &[u8],
        now: Nanos,
    ) -> ((bool, Option<Split>), Nanos) {
        // Route through internal nodes first (read-only access).
        let (route, t) = store.with_page(page, now, |buf| match node::kind(buf) {
            Kind::Internal => Some(node::route(buf, key)),
            Kind::Leaf => None,
        });
        match route {
            None => self.put_leaf(store, page, key, value, t),
            Some(child) => {
                let ((inserted, split), t) = self.put_rec(store, child, key, value, t);
                match split {
                    None => ((inserted, None), t),
                    Some(s) => {
                        let (up, t) = self.insert_into_internal(store, page, s, t);
                        ((inserted, up), t)
                    }
                }
            }
        }
    }

    fn put_leaf<S: PageStore>(
        &mut self,
        store: &mut S,
        page: u64,
        key: &[u8],
        value: &[u8],
        now: Nanos,
    ) -> ((bool, Option<Split>), Nanos) {
        let staged = &mut self.staged;
        // `Some(inserted)` when the leaf took the cell, `None` to split.
        let (done, t) = store.with_page_mut(page, now, |buf| {
            let (pos, replace) = match node::search(buf, key) {
                Ok(i) if node::overwrite_leaf(buf, i, value) => return Some(false),
                Ok(i) => (i, true),
                Err(pos) if node::fits(buf, key.len(), value.len()) => {
                    node::insert_leaf(buf, pos, key, value);
                    return Some(true);
                }
                Err(pos) => (pos, false),
            };
            // The gap is too small. The heap may be leaky after deletes and
            // overwrites: compact if the live cells fit the page, else split.
            staged.stage_leaf(buf, pos, replace, key, value);
            staged.fits_one_page().then(|| {
                staged.fill(buf, 0..staged.ncells());
                !replace
            })
        });
        if let Some(inserted) = done {
            return ((inserted, None), t);
        }
        // Split by bytes, not count, so variable-size cells balance.
        let n = staged.ncells();
        let total = staged.total_footprint();
        let mut acc = 0usize;
        let mut cut = (n / 2).max(1);
        for j in 0..n {
            acc += staged.footprint(j);
            if acc >= total / 2 {
                cut = (j + 1).min(n - 1).max(1);
                break;
            }
        }
        let right_page = store.allocate();
        let (_, t) = store.with_page_mut(page, t, |buf| {
            staged.fill(buf, 0..cut);
            node::set_right_sibling(buf, right_page);
        });
        let (_, t) = store.with_new_page(right_page, t, |buf| {
            node::init(buf, Kind::Leaf, 0);
            node::set_right_sibling(buf, node::right_sibling(staged.page()));
            staged.fill(buf, cut..n);
        });
        self.stats.leaf_splits += 1;
        let inserted = n > node::nkeys(staged.page());
        ((inserted, Some(Split { sep: staged.key(cut).to_vec(), right: right_page })), t)
    }

    fn insert_into_internal<S: PageStore>(
        &mut self,
        store: &mut S,
        page: u64,
        s: Split,
        now: Nanos,
    ) -> (Option<Split>, Nanos) {
        let staged = &mut self.staged;
        let (done, t) = store.with_page_mut(page, now, |buf| {
            let pos = match node::search(buf, &s.sep) {
                Ok(i) => i + 1, // duplicate separators cannot happen; defensive
                Err(i) => i,
            };
            // Internal pages never leak heap (nothing is removed from them),
            // so a cell that misses the gap means a split.
            let fits = node::fits(buf, s.sep.len(), 0);
            if fits {
                node::insert_internal(buf, pos, &s.sep, s.right);
            } else {
                staged.stage_internal(buf, pos, &s.sep, s.right);
            }
            fits
        });
        if done {
            return (None, t);
        }
        // Middle key moves up; left/right get the halves.
        let n = staged.ncells();
        let mid = n / 2;
        let right_page = store.allocate();
        let (_, t) = store.with_page_mut(page, t, |buf| staged.fill(buf, 0..mid));
        let (_, t) = store.with_new_page(right_page, t, |buf| {
            node::init(buf, Kind::Internal, node::level(staged.page()));
            node::set_leftmost_child(buf, staged.child(mid));
            staged.fill(buf, mid + 1..n);
        });
        self.stats.internal_splits += 1;
        (Some(Split { sep: staged.key(mid).to_vec(), right: right_page }), t)
    }

    /// Read-only descent from the root to the leaf whose key range holds
    /// `key`; returns that leaf's page number. The engine's redo uses it to
    /// find the page whose LSN decides whether a logged record still applies.
    pub fn leaf_for<S: PageStore>(&self, store: &mut S, key: &[u8], now: Nanos) -> (u64, Nanos) {
        let mut page = self.root;
        let mut t = now;
        loop {
            let (child, t2) = store.with_page(page, t, |buf| match node::kind(buf) {
                Kind::Internal => Some(node::route(buf, key)),
                Kind::Leaf => None,
            });
            t = t2;
            match child {
                Some(child) => page = child,
                None => return (page, t),
            }
        }
    }

    /// Delete `key`; returns whether it existed.
    pub fn delete<S: PageStore>(&mut self, store: &mut S, key: &[u8], now: Nanos) -> (bool, Nanos) {
        let (page, t) = self.leaf_for(store, key, now);
        store.with_page_mut(page, t, |buf| match node::search(buf, key) {
            Ok(i) => {
                node::remove_slot(buf, i);
                true
            }
            Err(_) => false,
        })
    }

    /// Scan keys in `[from, ..)` in order, calling `f(key, value)`; stop when
    /// `f` returns `false`. Returns the number visited and the time.
    pub fn scan<S: PageStore>(
        &self,
        store: &mut S,
        from: &[u8],
        now: Nanos,
        mut f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> (u64, Nanos) {
        let (mut page, mut t) = self.leaf_for(store, from, now);
        let mut visited = 0u64;
        loop {
            let ((stop, next_page), t2) = store.with_page(page, t, |buf| {
                let start = match node::search(buf, from) {
                    Ok(i) => i,
                    Err(i) => i,
                };
                for i in start..node::nkeys(buf) {
                    visited += 1;
                    if !f(node::key(buf, i), node::value(buf, i)) {
                        return (true, NO_PAGE);
                    }
                }
                (false, node::right_sibling(buf))
            });
            t = t2;
            if stop || next_page == NO_PAGE {
                return (visited, t);
            }
            page = next_page;
        }
    }

    /// Walk the whole tree checking structural invariants; returns the
    /// number of keys. Test/debug instrumentation.
    pub fn check<S: PageStore>(&self, store: &mut S, now: Nanos) -> (u64, Nanos) {
        self.check_rec(store, self.root, None, None, self.height, now)
    }

    fn check_rec<S: PageStore>(
        &self,
        store: &mut S,
        page: u64,
        lo: Option<Vec<u8>>,
        hi: Option<Vec<u8>>,
        expect_level: u8,
        now: Nanos,
    ) -> (u64, Nanos) {
        /// Child subtree bounds: (low, high, page).
        type ChildBounds = (Option<Vec<u8>>, Option<Vec<u8>>, u64);
        enum NodeView {
            Leaf(u64),
            Internal(Vec<ChildBounds>),
        }
        let (view, mut t) = store.with_page(page, now, |buf| {
            let n = node::nkeys(buf);
            for i in 0..n {
                let k = node::key(buf, i);
                if i > 0 {
                    assert!(node::key(buf, i - 1) < k, "keys out of order");
                }
                if let Some(lo) = &lo {
                    assert!(k >= lo.as_slice(), "key below subtree bound");
                }
                if let Some(hi) = &hi {
                    assert!(k < hi.as_slice(), "key above subtree bound");
                }
            }
            match node::kind(buf) {
                Kind::Leaf => {
                    assert_eq!(expect_level, 0, "leaf at wrong depth");
                    NodeView::Leaf(n as u64)
                }
                Kind::Internal => {
                    assert!(expect_level > 0, "internal node at leaf depth");
                    let mut children = Vec::with_capacity(n + 1);
                    let first_hi =
                        if n > 0 { Some(node::key(buf, 0).to_vec()) } else { hi.clone() };
                    children.push((lo.clone(), first_hi, node::leftmost_child(buf)));
                    for i in 0..n {
                        let k = node::key(buf, i).to_vec();
                        let next_hi = if i + 1 < n {
                            Some(node::key(buf, i + 1).to_vec())
                        } else {
                            hi.clone()
                        };
                        children.push((Some(k), next_hi, node::child(buf, i)));
                    }
                    NodeView::Internal(children)
                }
            }
        });
        match view {
            NodeView::Leaf(n) => (n, t),
            NodeView::Internal(children) => {
                let mut total = 0;
                for (clo, chi, child) in children {
                    let (n, t2) = self.check_rec(store, child, clo, chi, expect_level - 1, t);
                    total += n;
                    t = t2;
                }
                (total, t)
            }
        }
    }
}

/// A trivial in-memory page store for unit tests (near-zero-latency pages).
pub struct MemStore {
    pages: Vec<Vec<u8>>,
    page_size: usize,
}

impl MemStore {
    /// New store of `page_size`-byte pages.
    pub fn new(page_size: usize) -> Self {
        Self { pages: Vec::new(), page_size }
    }
}

impl PageStore for MemStore {
    fn page_size(&self) -> usize {
        self.page_size
    }
    fn allocate(&mut self) -> u64 {
        self.pages.push(vec![0u8; self.page_size]);
        (self.pages.len() - 1) as u64
    }
    fn with_page<R>(&mut self, page_no: u64, now: Nanos, f: impl FnOnce(&[u8]) -> R) -> (R, Nanos) {
        (f(&self.pages[page_no as usize]), now + 1)
    }
    fn with_page_mut<R>(
        &mut self,
        page_no: u64,
        now: Nanos,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> (R, Nanos) {
        (f(&mut self.pages[page_no as usize]), now + 1)
    }
    fn with_new_page<R>(
        &mut self,
        page_no: u64,
        now: Nanos,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> (R, Nanos) {
        (f(&mut self.pages[page_no as usize]), now + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_of(i: u64) -> Vec<u8> {
        format!("key{:08}", i).into_bytes()
    }

    fn val_of(i: u64) -> Vec<u8> {
        // ~100-140B values so trees deepen at realistic key counts.
        format!("value-{i}-{}", "x".repeat(100 + (i % 40) as usize)).into_bytes()
    }

    #[test]
    fn empty_tree_gets_nothing() {
        let mut s = MemStore::new(4096);
        let (t, _) = BTree::create(&mut s, 0);
        assert_eq!(t.get(&mut s, b"nope", 0).0, None);
        assert_eq!(t.height(), 0);
    }

    #[test]
    fn put_get_small() {
        let mut s = MemStore::new(4096);
        let (mut t, _) = BTree::create(&mut s, 0);
        assert!(t.put(&mut s, b"b", b"2", 0).0);
        assert!(t.put(&mut s, b"a", b"1", 0).0);
        assert!(!t.put(&mut s, b"a", b"one", 0).0, "overwrite is not an insert");
        assert_eq!(t.get(&mut s, b"a", 0).0.unwrap(), b"one");
        assert_eq!(t.get(&mut s, b"b", 0).0.unwrap(), b"2");
        assert_eq!(t.get(&mut s, b"c", 0).0, None);
    }

    #[test]
    fn thousands_of_keys_split_and_survive() {
        let mut s = MemStore::new(4096);
        let (mut t, _) = BTree::create(&mut s, 0);
        const N: u64 = 20_000;
        for i in 0..N {
            t.put(&mut s, &key_of(i * 7919 % N), &val_of(i), 0);
        }
        assert!(t.height() >= 2, "20k keys on 4KB pages must deepen twice");
        assert!(t.stats().leaf_splits > 10);
        let (count, _) = t.check(&mut s, 0);
        assert_eq!(count, N);
        for i in (0..N).step_by(97) {
            assert!(t.get(&mut s, &key_of(i), 0).0.is_some(), "missing key {i}");
        }
    }

    #[test]
    fn page_size_changes_height() {
        let mut s4 = MemStore::new(4096);
        let mut s16 = MemStore::new(16384);
        let (mut t4, _) = BTree::create(&mut s4, 0);
        let (mut t16, _) = BTree::create(&mut s16, 0);
        for i in 0..20_000u64 {
            t4.put(&mut s4, &key_of(i), &val_of(i), 0);
            t16.put(&mut s16, &key_of(i), &val_of(i), 0);
        }
        assert!(
            t4.height() > t16.height(),
            "4KB tree ({}) should be deeper than 16KB tree ({})",
            t4.height(),
            t16.height()
        );
    }

    #[test]
    fn overwrite_with_larger_value() {
        let mut s = MemStore::new(4096);
        let (mut t, _) = BTree::create(&mut s, 0);
        for i in 0..500u64 {
            t.put(&mut s, &key_of(i), b"small", 0);
        }
        for i in 0..500u64 {
            t.put(&mut s, &key_of(i), &[b'X'; 200], 0);
        }
        for i in 0..500u64 {
            assert_eq!(t.get(&mut s, &key_of(i), 0).0.unwrap(), vec![b'X'; 200]);
        }
        t.check(&mut s, 0);
    }

    #[test]
    fn delete_removes_and_reports() {
        let mut s = MemStore::new(4096);
        let (mut t, _) = BTree::create(&mut s, 0);
        for i in 0..1000u64 {
            t.put(&mut s, &key_of(i), &val_of(i), 0);
        }
        for i in (0..1000u64).step_by(2) {
            assert!(t.delete(&mut s, &key_of(i), 0).0);
        }
        assert!(!t.delete(&mut s, &key_of(0), 0).0, "double delete is a no-op");
        for i in 0..1000u64 {
            let present = t.get(&mut s, &key_of(i), 0).0.is_some();
            assert_eq!(present, i % 2 == 1, "key {i}");
        }
        let (count, _) = t.check(&mut s, 0);
        assert_eq!(count, 500);
    }

    #[test]
    fn scan_in_order_across_leaves() {
        let mut s = MemStore::new(4096);
        let (mut t, _) = BTree::create(&mut s, 0);
        for i in 0..2000u64 {
            t.put(&mut s, &key_of(i), &val_of(i), 0);
        }
        let mut seen = Vec::new();
        t.scan(&mut s, &key_of(500), 0, |k, _| {
            seen.push(k.to_vec());
            seen.len() < 100
        });
        assert_eq!(seen.len(), 100);
        assert_eq!(seen[0], key_of(500));
        assert_eq!(seen[99], key_of(599));
        for w in seen.windows(2) {
            assert!(w[0] < w[1], "scan must be ordered");
        }
    }

    #[test]
    fn scan_from_before_first_key() {
        let mut s = MemStore::new(4096);
        let (mut t, _) = BTree::create(&mut s, 0);
        for i in 10..20u64 {
            t.put(&mut s, &key_of(i), b"v", 0);
        }
        let (n, _) = t.scan(&mut s, b"", 0, |_, _| true);
        assert_eq!(n, 10);
    }

    #[test]
    #[should_panic(expected = "exceeds page capacity")]
    fn oversized_cell_rejected() {
        let mut s = MemStore::new(4096);
        let (mut t, _) = BTree::create(&mut s, 0);
        t.put(&mut s, b"k", &vec![0u8; 4000], 0);
    }

    #[test]
    fn mixed_workload_stays_consistent() {
        let mut s = MemStore::new(8192);
        let (mut t, _) = BTree::create(&mut s, 0);
        let mut model = std::collections::BTreeMap::new();
        let mut x: u64 = 12345;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let k = key_of((x >> 33) % 3000);
            match (x >> 16) % 3 {
                0 => {
                    t.put(&mut s, &k, &val_of(x % 100), 0);
                    model.insert(k, val_of(x % 100));
                }
                1 => {
                    let (a, _) = t.delete(&mut s, &k, 0);
                    let b = model.remove(&k).is_some();
                    assert_eq!(a, b);
                }
                _ => {
                    let (got, _) = t.get(&mut s, &k, 0);
                    assert_eq!(got.as_deref(), model.get(&k).map(|v| v.as_slice()));
                }
            }
        }
        let (count, _) = t.check(&mut s, 0);
        assert_eq!(count as usize, model.len());
    }

    /// The leaf and internal edits as they were before in-place overwrite:
    /// every overwrite removes the slot, copies every other cell out into
    /// owned pairs and rebuilds the leaf; splits cut a vector of owned
    /// cells. Kept as the oracle for tree shapes.
    mod reference {
        use super::*;

        type LeafCells = Vec<(Vec<u8>, Vec<u8>)>;

        fn extract_leaf(buf: &[u8]) -> LeafCells {
            (0..node::nkeys(buf))
                .map(|i| (node::key(buf, i).to_vec(), node::value(buf, i).to_vec()))
                .collect()
        }

        fn rebuild_leaf(buf: &mut [u8], cells: &[(Vec<u8>, Vec<u8>)]) {
            let right = node::right_sibling(buf);
            node::init(buf, Kind::Leaf, 0);
            node::set_right_sibling(buf, right);
            for (i, (k, v)) in cells.iter().enumerate() {
                node::insert_leaf(buf, i, k, v);
            }
        }

        fn rebuild_internal(buf: &mut [u8], level: u8, leftmost: u64, cells: &[(Vec<u8>, u64)]) {
            node::init(buf, Kind::Internal, level);
            node::set_leftmost_child(buf, leftmost);
            for (i, (k, c)) in cells.iter().enumerate() {
                node::insert_internal(buf, i, k, *c);
            }
        }

        pub struct RefTree {
            pub root: u64,
            pub height: u8,
            pub stats: TreeStats,
        }

        impl RefTree {
            pub fn create(store: &mut MemStore) -> Self {
                let (t, _) = BTree::create(store, 0);
                Self { root: t.root, height: t.height, stats: TreeStats::default() }
            }

            pub fn as_tree(&self) -> BTree {
                BTree::open(self.root, self.height)
            }

            pub fn put(&mut self, store: &mut MemStore, key: &[u8], value: &[u8]) {
                if let Some((sep, right)) = self.put_rec(store, self.root, key, value) {
                    let new_root = store.allocate();
                    let (old_root, new_height) = (self.root, self.height + 1);
                    store.with_new_page(new_root, 0, |buf| {
                        node::init(buf, Kind::Internal, new_height);
                        node::set_leftmost_child(buf, old_root);
                        node::insert_internal(buf, 0, &sep, right);
                    });
                    (self.root, self.height) = (new_root, new_height);
                    self.stats.root_splits += 1;
                }
            }

            fn put_rec(
                &mut self,
                store: &mut MemStore,
                page: u64,
                key: &[u8],
                value: &[u8],
            ) -> Option<(Vec<u8>, u64)> {
                let (route, _) = store.with_page(page, 0, |buf| match node::kind(buf) {
                    Kind::Internal => Some(node::route(buf, key)),
                    Kind::Leaf => None,
                });
                match route {
                    None => self.put_leaf(store, page, key, value),
                    Some(child) => {
                        let split = self.put_rec(store, child, key, value)?;
                        self.insert_into_internal(store, page, split)
                    }
                }
            }

            fn put_leaf(
                &mut self,
                store: &mut MemStore,
                page: u64,
                key: &[u8],
                value: &[u8],
            ) -> Option<(Vec<u8>, u64)> {
                let (split, _) = store.with_page_mut(page, 0, |buf| {
                    let pos = match node::search(buf, key) {
                        Ok(i) => {
                            node::remove_slot(buf, i);
                            i
                        }
                        Err(pos) if node::fits(buf, key.len(), value.len()) => {
                            node::insert_leaf(buf, pos, key, value);
                            return None;
                        }
                        Err(pos) => pos,
                    };
                    let mut cells = extract_leaf(buf);
                    rebuild_leaf(buf, &cells);
                    if node::fits(buf, key.len(), value.len()) {
                        node::insert_leaf(buf, pos, key, value);
                        return None;
                    }
                    cells.insert(pos, (key.to_vec(), value.to_vec()));
                    Some((cells, node::right_sibling(buf)))
                });
                let (cells, old_right) = split?;
                let total: usize = cells.iter().map(|(k, v)| k.len() + v.len() + 6).sum();
                let mut acc = 0usize;
                let mut cut = (cells.len() / 2).max(1);
                for (i, (k, v)) in cells.iter().enumerate() {
                    acc += k.len() + v.len() + 6;
                    if acc >= total / 2 {
                        cut = (i + 1).min(cells.len() - 1).max(1);
                        break;
                    }
                }
                let right_page = store.allocate();
                store.with_page_mut(page, 0, |buf| {
                    rebuild_leaf(buf, &cells[..cut]);
                    node::set_right_sibling(buf, right_page);
                });
                store.with_new_page(right_page, 0, |buf| {
                    node::init(buf, Kind::Leaf, 0);
                    node::set_right_sibling(buf, old_right);
                    rebuild_leaf(buf, &cells[cut..]);
                });
                self.stats.leaf_splits += 1;
                Some((cells[cut].0.clone(), right_page))
            }

            fn insert_into_internal(
                &mut self,
                store: &mut MemStore,
                page: u64,
                (sep, right): (Vec<u8>, u64),
            ) -> Option<(Vec<u8>, u64)> {
                let (split, _) = store.with_page_mut(page, 0, |buf| {
                    let pos = node::search(buf, &sep).unwrap_err();
                    if node::fits(buf, sep.len(), 0) {
                        node::insert_internal(buf, pos, &sep, right);
                        return None;
                    }
                    let mut cells: Vec<(Vec<u8>, u64)> = (0..node::nkeys(buf))
                        .map(|i| (node::key(buf, i).to_vec(), node::child(buf, i)))
                        .collect();
                    cells.insert(pos, (sep.clone(), right));
                    Some((cells, node::level(buf), node::leftmost_child(buf)))
                });
                let (cells, level, leftmost) = split?;
                let mid = cells.len() / 2;
                let (up_key, right_leftmost) = cells[mid].clone();
                let right_page = store.allocate();
                store.with_page_mut(page, 0, |buf| {
                    rebuild_internal(buf, level, leftmost, &cells[..mid]);
                });
                store.with_new_page(right_page, 0, |buf| {
                    rebuild_internal(buf, level, right_leftmost, &cells[mid + 1..]);
                });
                self.stats.internal_splits += 1;
                Some((up_key, right_page))
            }
        }
    }

    /// In-place leaf edits decide splits from live bytes only, so the tree
    /// they build has the shape the extract-and-rebuild edits built — page
    /// for page — while matching a model map throughout.
    #[test]
    fn in_place_edits_match_the_model_and_the_rebuild_oracle_shape() {
        use simkit::dist::{rng, Rng};
        let mut s = MemStore::new(4096);
        let mut s_ref = MemStore::new(4096);
        let (mut t, _) = BTree::create(&mut s, 0);
        let mut t_ref = reference::RefTree::create(&mut s_ref);
        let mut model = std::collections::BTreeMap::new();
        let mut r = rng(0x1EAF);
        for op in 1..=5_000u32 {
            // Long keys: a small fan-out, so internal pages split too.
            let mut k = key_of(r.gen_range(0..700u64));
            k.resize(190, b'p');
            if r.gen_range(0..10u32) < 7 {
                let v = vec![op as u8; r.gen_range(1..=300usize)];
                let inserted = t.put(&mut s, &k, &v, 0).0;
                t_ref.put(&mut s_ref, &k, &v);
                assert_eq!(inserted, model.insert(k, v).is_none(), "op {op}");
            } else {
                let existed = t.delete(&mut s, &k, 0).0;
                t_ref.as_tree().delete(&mut s_ref, &k, 0);
                assert_eq!(existed, model.remove(&k).is_some(), "op {op}");
            }
            if op % 100 == 0 {
                assert_eq!(t.check(&mut s, 0).0 as usize, model.len(), "op {op}");
                assert_eq!(t_ref.as_tree().check(&mut s_ref, 0).0 as usize, model.len());
                let mut got = Vec::new();
                t.scan(&mut s, b"", 0, |k, v| {
                    got.push((k.to_vec(), v.to_vec()));
                    true
                });
                assert!(got.iter().map(|(k, v)| (k, v)).eq(model.iter()), "op {op}");
            }
        }
        let shape = |height: u8, st: TreeStats, pages: usize| {
            (height, st.leaf_splits, st.internal_splits, pages)
        };
        assert_eq!(
            shape(t.height(), t.stats(), s.pages.len()),
            shape(t_ref.height, t_ref.stats, s_ref.pages.len())
        );
        let st = t.stats();
        assert!(st.leaf_splits > 50 && st.internal_splits > 0, "the mix must split: {st:?}");
    }
}
