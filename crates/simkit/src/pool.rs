//! Fixed-size page-buffer slab: the zero-copy backbone of the simulator.
//!
//! Every layer of the stack moves data in fixed-size pages (4KB logical
//! slots, 8KB NAND pages). Before this module existed each crossing
//! heap-allocated a fresh `Box<[u8]>`/`Vec<u8>` and the bench wall-clock was
//! dominated by allocator traffic rather than the discrete-event model. A
//! [`BufPool`] keeps returned buffers on a free list so steady-state
//! operation performs **zero** heap allocations per I/O; the
//! counting-allocator regression test in the repo root pins that down.
//!
//! ## Lease model
//!
//! [`BufPool::checkout`] hands out a [`PageBuf`] — an owning, `Deref<[u8]>`
//! lease. Dropping the lease returns the underlying buffer to the pool
//! automatically (RAII), so the common paths cannot leak or double-return.
//! Layers that need to store raw buffers (e.g. inside a struct that must not
//! carry the pool handle) can use the low-level [`PageBuf::into_box`] /
//! [`BufPool::recycle`] pair; that path is guarded in debug builds:
//!
//! * **poisoning** — every buffer returned to the pool is filled with
//!   `0xDB`, so a use-after-return shows up as garbage data immediately
//!   instead of silently reading stale page contents;
//! * **double-return detection** — `recycle` panics if the pool already
//!   holds more buffers than were ever checked out, or if the exact buffer
//!   (by address) is already on the free list.
//!
//! The pool is intentionally *elastic*: `checkout` on an empty free list
//! allocates (cold path / warmup), and the free list is unbounded — sizing
//! is governed by the natural high-water mark of the layer that owns the
//! pool. All pools are single-threaded (`Rc`), matching the simulator.

use std::cell::{Cell, RefCell};
use std::mem::ManuallyDrop;
use std::rc::Rc;

/// Debug-build poison byte written over returned buffers.
pub const POISON: u8 = 0xDB;

#[derive(Default)]
struct PoolStats {
    checkouts: Cell<u64>,
    fresh: Cell<u64>,
}

struct PoolInner {
    /// Fixed buffer size in bytes; every checkout and recycle must match.
    size: usize,
    free: RefCell<Vec<Box<[u8]>>>,
    /// Buffers currently leased out (checked out and not yet returned).
    outstanding: Cell<usize>,
    stats: PoolStats,
}

impl PoolInner {
    fn give_back(&self, mut buf: Box<[u8]>) {
        assert_eq!(buf.len(), self.size, "buffer of wrong size returned to pool");
        if cfg!(debug_assertions) {
            let already = self.outstanding.get() == 0;
            assert!(!already, "double return: pool has no outstanding leases");
            let ptr = buf.as_ptr();
            let dup = self.free.borrow().iter().any(|b| std::ptr::eq(b.as_ptr(), ptr));
            assert!(!dup, "double return: buffer is already on the pool free list");
            buf.fill(POISON);
        }
        self.outstanding.set(self.outstanding.get() - 1);
        self.free.borrow_mut().push(buf);
    }
}

/// A slab of interchangeable fixed-size byte buffers.
///
/// Cloning the handle is cheap (`Rc`); all clones share one free list.
#[derive(Clone)]
pub struct BufPool {
    inner: Rc<PoolInner>,
}

impl std::fmt::Debug for BufPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufPool")
            .field("size", &self.inner.size)
            .field("free", &self.inner.free.borrow().len())
            .field("outstanding", &self.inner.outstanding.get())
            .finish()
    }
}

impl BufPool {
    /// A pool of `size`-byte buffers with an empty free list.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "zero-size pool");
        Self {
            inner: Rc::new(PoolInner {
                size,
                free: RefCell::new(Vec::new()),
                outstanding: Cell::new(0),
                stats: PoolStats::default(),
            }),
        }
    }

    /// A pool pre-populated with `prealloc` buffers, so the first `prealloc`
    /// checkouts hit the free list instead of the allocator.
    pub fn with_capacity(size: usize, prealloc: usize) -> Self {
        let pool = Self::new(size);
        {
            let mut free = pool.inner.free.borrow_mut();
            for _ in 0..prealloc {
                free.push(vec![0u8; size].into_boxed_slice());
            }
        }
        pool
    }

    /// Top the free list up to at least `n` parked buffers.
    ///
    /// Used by prewarm paths that know their layer's structural bound (e.g.
    /// a NAND array can never hold more live pages than its geometry has
    /// physical pages): preallocating to the bound moves every would-be
    /// high-water-mark allocation out of the measured/steady-state window.
    pub fn reserve_free(&self, n: usize) {
        let mut free = self.inner.free.borrow_mut();
        while free.len() < n {
            free.push(vec![0u8; self.inner.size].into_boxed_slice());
        }
    }

    /// Lease a buffer. Contents are **unspecified** (recycled buffers keep
    /// their poison/stale bytes) — callers that need zeroes use
    /// [`checkout_zeroed`](Self::checkout_zeroed).
    pub fn checkout(&self) -> PageBuf {
        let recycled = self.inner.free.borrow_mut().pop();
        self.inner.stats.checkouts.set(self.inner.stats.checkouts.get() + 1);
        let data = match recycled {
            Some(b) => b,
            None => {
                self.inner.stats.fresh.set(self.inner.stats.fresh.get() + 1);
                vec![0u8; self.inner.size].into_boxed_slice()
            }
        };
        self.inner.outstanding.set(self.inner.outstanding.get() + 1);
        PageBuf { data: ManuallyDrop::new(data), pool: Rc::clone(&self.inner) }
    }

    /// Lease a zero-filled buffer.
    pub fn checkout_zeroed(&self) -> PageBuf {
        let mut b = self.checkout();
        b.fill(0);
        b
    }

    /// Lease a buffer initialised from `src` (must be exactly pool-sized).
    pub fn checkout_from(&self, src: &[u8]) -> PageBuf {
        let mut b = self.checkout();
        b.copy_from_slice(src);
        b
    }

    /// Low-level return path for buffers detached with
    /// [`PageBuf::into_box`]. Debug builds poison the buffer and panic on a
    /// double return (see module docs); release builds just push it back.
    pub fn recycle(&self, buf: Box<[u8]>) {
        self.inner.give_back(buf);
    }

    /// Buffers currently leased out.
    pub fn outstanding(&self) -> usize {
        self.inner.outstanding.get()
    }

    /// Buffers parked on the free list.
    pub fn free_count(&self) -> usize {
        self.inner.free.borrow().len()
    }

    /// Total checkouts served since creation.
    pub fn checkouts(&self) -> u64 {
        self.inner.stats.checkouts.get()
    }

    /// Checkouts that had to allocate because the free list was empty
    /// (warmup / high-water-mark growth). `checkouts() - fresh_allocs()`
    /// is the number of allocator round-trips the pool saved.
    pub fn fresh_allocs(&self) -> u64 {
        self.inner.stats.fresh.get()
    }
}

/// An owned lease on one pool buffer; derefs to `[u8]`.
///
/// Dropping returns the buffer to its pool. Detach with
/// [`into_box`](Self::into_box) when a plain `Box<[u8]>` is required (pair
/// with [`BufPool::recycle`] to keep the slab closed).
pub struct PageBuf {
    data: ManuallyDrop<Box<[u8]>>,
    pool: Rc<PoolInner>,
}

impl PageBuf {
    /// Detach the underlying buffer from the lease. The pool's outstanding
    /// count still includes it until [`BufPool::recycle`] gets it back.
    pub fn into_box(self) -> Box<[u8]> {
        let mut this = ManuallyDrop::new(self);
        // SAFETY: `this` is never dropped (ManuallyDrop) so `data` is taken
        // exactly once; the Rc field is dropped manually below.
        let data = unsafe { ManuallyDrop::take(&mut this.data) };
        unsafe { std::ptr::drop_in_place(&mut this.pool) };
        data
    }
}

impl Drop for PageBuf {
    fn drop(&mut self) {
        // SAFETY: drop runs at most once; `data` is not touched afterwards.
        let data = unsafe { ManuallyDrop::take(&mut self.data) };
        self.pool.give_back(data);
    }
}

impl Clone for PageBuf {
    /// Deep copy into a fresh lease from the same pool.
    fn clone(&self) -> Self {
        let b = self.pool.free.borrow_mut().pop();
        self.pool.stats.checkouts.set(self.pool.stats.checkouts.get() + 1);
        let mut data = match b {
            Some(b) => b,
            None => {
                self.pool.stats.fresh.set(self.pool.stats.fresh.get() + 1);
                vec![0u8; self.pool.size].into_boxed_slice()
            }
        };
        data.copy_from_slice(&self.data);
        self.pool.outstanding.set(self.pool.outstanding.get() + 1);
        PageBuf { data: ManuallyDrop::new(data), pool: Rc::clone(&self.pool) }
    }
}

impl std::ops::Deref for PageBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl std::ops::DerefMut for PageBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl AsRef<[u8]> for PageBuf {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl std::fmt::Debug for PageBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PageBuf({} bytes)", self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_return_reuse_cycle() {
        let pool = BufPool::new(4096);
        let a = pool.checkout_zeroed();
        let first_ptr = a.as_ptr();
        assert_eq!(pool.outstanding(), 1);
        assert_eq!(pool.free_count(), 0);
        assert_eq!(pool.fresh_allocs(), 1);
        drop(a);
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(pool.free_count(), 1);
        // The next checkout reuses the same allocation, no fresh alloc.
        let b = pool.checkout();
        assert_eq!(b.as_ptr(), first_ptr, "buffer was reused, not reallocated");
        assert_eq!(pool.fresh_allocs(), 1);
        assert_eq!(pool.checkouts(), 2);
    }

    #[test]
    fn poison_on_return_in_debug() {
        let pool = BufPool::new(64);
        let mut a = pool.checkout_zeroed();
        a.fill(0xAA);
        drop(a);
        let b = pool.checkout();
        if cfg!(debug_assertions) {
            assert!(b.iter().all(|&x| x == POISON), "recycled buffer is poisoned");
        }
    }

    #[test]
    fn checkout_from_copies_source() {
        let pool = BufPool::new(8);
        let src = [1u8, 2, 3, 4, 5, 6, 7, 8];
        let b = pool.checkout_from(&src);
        assert_eq!(&*b, &src);
    }

    #[test]
    fn clone_is_a_fresh_lease_with_same_bytes() {
        let pool = BufPool::new(16);
        let mut a = pool.checkout_zeroed();
        a[0] = 42;
        let b = a.clone();
        assert_eq!(b[0], 42);
        assert!(!std::ptr::eq(a.as_ptr(), b.as_ptr()));
        assert_eq!(pool.outstanding(), 2);
    }

    #[test]
    fn into_box_and_recycle_round_trip() {
        let pool = BufPool::new(32);
        let a = pool.checkout_zeroed();
        let raw = a.into_box();
        assert_eq!(pool.outstanding(), 1, "detached lease still counted");
        pool.recycle(raw);
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(pool.free_count(), 1);
    }

    #[test]
    fn prealloc_avoids_fresh_allocs() {
        let pool = BufPool::with_capacity(128, 4);
        assert_eq!(pool.free_count(), 4);
        let bufs: Vec<_> = (0..4).map(|_| pool.checkout()).collect();
        assert_eq!(pool.fresh_allocs(), 0);
        drop(bufs);
        assert_eq!(pool.free_count(), 4);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "double-return guard is debug-only")]
    #[should_panic(expected = "double return")]
    fn double_return_panics_in_debug() {
        let pool = BufPool::new(16);
        let a = pool.checkout();
        // First return is legitimate (outstanding -> 0); a second return
        // without a matching checkout is a lease-accounting bug and the
        // debug guard catches it.
        pool.recycle(a.into_box());
        pool.recycle(vec![0u8; 16].into_boxed_slice());
    }

    #[test]
    #[should_panic(expected = "wrong size")]
    fn wrong_size_recycle_panics() {
        let pool = BufPool::new(16);
        let _hold = pool.checkout(); // keep outstanding > 0
        pool.recycle(vec![0u8; 8].into_boxed_slice());
    }
}
