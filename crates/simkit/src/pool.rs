//! A pool of 4 KiB page cells: the zero-copy backbone of the simulator.
//!
//! Every layer of the stack moves data in 4 KiB logical slots (two to an
//! 8 KiB NAND page). Before this module existed each crossing heap-allocated
//! a fresh `Box<[u8]>`/`Vec<u8>` and the bench wall-clock was dominated by
//! allocator traffic rather than the discrete-event model. A [`BufPool`]
//! keeps released cells on a free list so steady-state operation performs
//! **zero** heap allocations per I/O; the counting-allocator regression test
//! in the repo root pins that down.
//!
//! ## Checkouts and shared handles
//!
//! [`BufPool::checkout`] hands out a [`PageBuf`]: the one writable handle on
//! a cell. [`PageBuf::freeze`] turns it into a [`SharedBuf`], a read-only
//! handle whose clones share the cell by reference count, so a page's bytes
//! can be held by several owners at once (a cache entry and the flash page
//! it drained to, a GC victim and the page it was relocated to) without a
//! copy. The cell returns to the pool when its last handle drops (RAII), so
//! no path can leak or double-return it. A cell is one allocation — its
//! bytes, its reference counts and its way back to the pool — made once;
//! freezing and cloning allocate nothing, and a handle is one pointer.
//!
//! Debug builds fill every cell that returns to the pool with [`POISON`],
//! so code that reads a fresh checkout before writing it sees garbage
//! instead of silently reading stale page contents.
//!
//! ## The one copy
//!
//! An admitted page is copied exactly once, by [`BufPool::checkout_from`],
//! and it streams: on x86_64 the copy uses non-temporal 16-byte stores. The
//! destination is a recycled cell that returned to the free list when its
//! last handle dropped, usually long ago, so it is cold by construction; an
//! ordinary store would first read each of its 64 lines from memory only to
//! overwrite them. The cell's bytes come first in it, so they share the
//! allocation's 16-byte alignment. An unaligned cell, and every other
//! architecture, takes `copy_from_slice`.
//!
//! The pool is intentionally *elastic*: `checkout` on an empty free list
//! allocates (cold path / warmup), and the free list is unbounded — sizing
//! is governed by the natural high-water mark of the layer that owns the
//! pool. All pools are single-threaded (`Rc`), matching the simulator.

use std::cell::{Cell, RefCell};
use std::mem::ManuallyDrop;
use std::rc::{Rc, Weak};

/// Bytes in one cell: a 4 KiB logical slot.
pub const CELL_BYTES: usize = 4096;

/// Debug-build poison byte written over returned cells.
pub const POISON: u8 = 0xDB;

#[derive(Default)]
struct PoolStats {
    checkouts: Cell<u64>,
    fresh: Cell<u64>,
}

#[derive(Default)]
struct PoolInner {
    /// Cells no handle refers to (each is the only reference to itself).
    free: RefCell<Vec<Rc<PoolCell>>>,
    /// Cells currently referenced by at least one handle.
    outstanding: Cell<usize>,
    stats: PoolStats,
}

impl PoolInner {
    fn give_back(&self, mut cell: Rc<PoolCell>) {
        if cfg!(debug_assertions) {
            Rc::get_mut(&mut cell).expect("a returned cell has no other handle").bytes.fill(POISON);
        }
        self.outstanding.set(self.outstanding.get() - 1);
        self.free.borrow_mut().push(cell);
    }
}

/// One cell: its bytes and the pool it returns to. The bytes come first, so
/// they start right after the `Rc`'s two counts, 16 bytes into a block the
/// system allocator aligns to 16.
#[repr(C)]
struct PoolCell {
    bytes: [u8; CELL_BYTES],
    home: Weak<PoolInner>,
}

/// A slab of interchangeable 4 KiB cells.
///
/// Cloning the handle is cheap (`Rc`); all clones share one free list.
#[derive(Clone, Default)]
pub struct BufPool {
    inner: Rc<PoolInner>,
}

impl std::fmt::Debug for BufPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufPool")
            .field("free", &self.inner.free.borrow().len())
            .field("outstanding", &self.inner.outstanding.get())
            .finish()
    }
}

impl BufPool {
    /// A zeroed cell that belongs to this pool, built where it is allocated:
    /// `Rc::new` would zero a 4 KiB value on the stack and copy it, which
    /// made a prewarmed device's set-up about 10 % slower.
    fn fresh_cell(&self) -> Rc<PoolCell> {
        let mut cell = Rc::<PoolCell>::new_uninit();
        let p = Rc::get_mut(&mut cell).expect("a new allocation is unique").as_mut_ptr();
        // SAFETY: `p` points to the allocation just made, which nothing else
        // references; both fields of `PoolCell` are written through it
        // (`write_bytes` zeroes the whole array) before `assume_init`.
        unsafe {
            (&raw mut (*p).home).write(Rc::downgrade(&self.inner));
            (&raw mut (*p).bytes).write_bytes(0, 1);
            cell.assume_init()
        }
    }

    /// Top the free list up to at least `n` parked cells.
    ///
    /// Used by prewarm paths that know their layer's structural bound (e.g.
    /// a NAND array can never hold more live slots than its geometry has
    /// physical slots): preallocating to the bound moves every would-be
    /// high-water-mark allocation out of the measured/steady-state window.
    pub fn reserve_free(&self, n: usize) {
        let missing = n.saturating_sub(self.free_count());
        let mut free = self.inner.free.borrow_mut();
        free.reserve(missing);
        free.extend((0..missing).map(|_| self.fresh_cell()));
    }

    /// Lease a cell. Contents are **unspecified** (recycled cells keep
    /// their poison/stale bytes) — callers overwrite all of it.
    pub fn checkout(&self) -> PageBuf {
        let recycled = self.inner.free.borrow_mut().pop();
        self.inner.stats.checkouts.set(self.inner.stats.checkouts.get() + 1);
        let cell = recycled.unwrap_or_else(|| {
            self.inner.stats.fresh.set(self.inner.stats.fresh.get() + 1);
            self.fresh_cell()
        });
        self.inner.outstanding.set(self.inner.outstanding.get() + 1);
        PageBuf(SharedBuf { cell: ManuallyDrop::new(cell) })
    }

    /// Lease a cell initialised from `src` (must be exactly 4 KiB), copied
    /// in with streaming stores where the cell allows (see the module doc).
    pub fn checkout_from(&self, src: &[u8]) -> PageBuf {
        let src: &[u8; CELL_BYTES] = src.try_into().expect("a cell is filled from 4 KiB");
        let mut b = self.checkout();
        copy_cell(b.bytes_mut(), src);
        b
    }

    /// Cells currently referenced by at least one handle.
    pub fn outstanding(&self) -> usize {
        self.inner.outstanding.get()
    }

    /// Cells parked on the free list.
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

/// The unique, writable handle on a pool cell; derefs to `[u8]`.
///
/// Dropping returns the cell to its pool; [`freeze`](Self::freeze) turns it
/// into a shareable read-only [`SharedBuf`] instead.
pub struct PageBuf(SharedBuf);

impl PageBuf {
    /// Give up write access: the bytes become immutable and the returned
    /// handle can be cloned by reference count.
    pub fn freeze(self) -> SharedBuf {
        self.0
    }

    fn bytes_mut(&mut self) -> &mut [u8; CELL_BYTES] {
        &mut Rc::get_mut(&mut self.0.cell).expect("a checkout is the cell's only handle").bytes
    }
}

impl std::ops::Deref for PageBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl std::ops::DerefMut for PageBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        self.bytes_mut()
    }
}

/// Copy one cell's worth of bytes: with non-temporal stores on x86_64 when
/// `dst` is 16-byte aligned, else with `copy_from_slice`.
fn copy_cell(dst: &mut [u8; CELL_BYTES], src: &[u8; CELL_BYTES]) {
    #[cfg(target_arch = "x86_64")]
    if dst.as_ptr().addr().is_multiple_of(16) {
        use std::arch::x86_64::{__m128i, _mm_loadu_si128, _mm_sfence, _mm_stream_si128};
        let (d, s) = (dst.as_mut_ptr().cast::<__m128i>(), src.as_ptr().cast::<__m128i>());
        // SAFETY: SSE2 is part of the x86_64 baseline. Both arrays hold
        // `CELL_BYTES` bytes, so each of the `CELL_BYTES / 16` lanes is in
        // bounds of both; the loads are unaligned, and the streaming stores
        // go to `dst`, whose 16-byte alignment was checked above. The fence
        // orders the streamed stores before every later store, so the cell
        // reads back as if `copy_from_slice` had written it.
        unsafe {
            for i in 0..CELL_BYTES / 16 {
                _mm_stream_si128(d.add(i), _mm_loadu_si128(s.add(i)));
            }
            _mm_sfence();
        }
        return;
    }
    dst.copy_from_slice(src);
}

/// A read-only handle on a pool cell; derefs to `[u8]`.
///
/// Cloning shares the cell (no copy, no allocation); the cell returns to
/// its pool when the last handle drops.
pub struct SharedBuf {
    cell: ManuallyDrop<Rc<PoolCell>>,
}

impl Clone for SharedBuf {
    fn clone(&self) -> Self {
        Self { cell: ManuallyDrop::new(Rc::clone(&self.cell)) }
    }
}

impl Drop for SharedBuf {
    fn drop(&mut self) {
        // SAFETY: `cell` is taken exactly once, here, and never touched
        // again: `drop` runs at most once and no other code moves out of it.
        let cell = unsafe { ManuallyDrop::take(&mut self.cell) };
        if Rc::strong_count(&cell) == 1 {
            // The last handle: back to the pool, unless it is gone too.
            if let Some(pool) = cell.home.upgrade() {
                pool.give_back(cell);
            }
        }
    }
}

impl std::ops::Deref for SharedBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.cell.bytes
    }
}

impl std::fmt::Debug for SharedBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SharedBuf({} bytes)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_return_reuse_cycle() {
        let pool = BufPool::default();
        let a = pool.checkout();
        let first_ptr = a.as_ptr();
        assert_eq!(pool.outstanding(), 1);
        assert_eq!(pool.free_count(), 0);
        assert_eq!(pool.fresh_allocs(), 1);
        drop(a);
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(pool.free_count(), 1);
        // The next checkout reuses the same allocation, no fresh alloc.
        let b = pool.checkout();
        assert_eq!(b.as_ptr(), first_ptr, "cell was reused, not reallocated");
        assert_eq!(pool.fresh_allocs(), 1);
        assert_eq!(pool.checkouts(), 2);
    }

    #[test]
    fn poison_on_return_in_debug() {
        let pool = BufPool::default();
        let mut a = pool.checkout();
        a.fill(0xAA);
        drop(a);
        let b = pool.checkout();
        if cfg!(debug_assertions) {
            assert!(b.iter().all(|&x| x == POISON), "recycled cell is poisoned");
        }
    }

    /// A source whose every 16-byte lane differs, so a lane copied to the
    /// wrong place or left out cannot match.
    fn pattern(seed: u32) -> Vec<u8> {
        (0..CELL_BYTES as u32).map(|i| (i.wrapping_mul(31) ^ (i >> 8) ^ seed) as u8).collect()
    }

    #[test]
    fn checkout_from_copies_source() {
        let pool = BufPool::default();
        let src = pattern(0);
        let b = pool.checkout_from(&src);
        assert_eq!(&*b, &src[..]);
        // Cells are aligned for the streaming path wherever it exists.
        if cfg!(target_arch = "x86_64") {
            assert!(b.as_ptr().addr().is_multiple_of(16), "cell bytes are 16-byte aligned");
        }
    }

    /// The streaming copy into a recycled cell (poisoned in debug builds)
    /// and a source that is itself unaligned: byte-exact.
    #[test]
    fn checkout_from_into_a_recycled_cell_is_byte_exact() {
        let pool = BufPool::default();
        let mut a = pool.checkout();
        a.fill(0xAA);
        drop(a);
        let src = pattern(7);
        let b = pool.checkout_from(&src);
        assert_eq!((pool.fresh_allocs(), &*b), (1, &src[..]), "the recycled cell, fully written");
        drop(b);
        let mut shifted = vec![0u8; CELL_BYTES + 1];
        shifted[1..].copy_from_slice(&pattern(9));
        let c = pool.checkout_from(&shifted[1..]);
        assert_eq!(&*c, &shifted[1..]);
    }

    /// The fallback, forced with a destination off 16-byte alignment.
    #[test]
    fn unaligned_destination_takes_the_plain_copy() {
        let mut buf = vec![POISON; CELL_BYTES + 16];
        let off = 1 + buf.as_ptr().addr().next_multiple_of(16) - buf.as_ptr().addr();
        let dst: &mut [u8; CELL_BYTES] = (&mut buf[off..off + CELL_BYTES]).try_into().unwrap();
        assert!(!dst.as_ptr().addr().is_multiple_of(16));
        let src: [u8; CELL_BYTES] = pattern(3).try_into().unwrap();
        copy_cell(dst, &src);
        assert_eq!(&buf[off..off + CELL_BYTES], &src[..]);
        assert!(buf[..off].iter().chain(&buf[off + CELL_BYTES..]).all(|&b| b == POISON));
    }

    #[test]
    #[should_panic(expected = "4 KiB")]
    fn checkout_from_rejects_a_short_source() {
        BufPool::default().checkout_from(&[0; 16]);
    }

    #[test]
    fn frozen_clones_share_one_cell_until_the_last_drops() {
        let pool = BufPool::default();
        let a = pool.checkout_from(&[42; CELL_BYTES]).freeze();
        let b = a.clone();
        assert_eq!(a.as_ptr(), b.as_ptr(), "one cell");
        assert_eq!(b[0], 42);
        assert_eq!((pool.checkouts(), pool.outstanding()), (1, 1), "clones check out nothing");
        drop(a);
        assert_eq!(pool.outstanding(), 1, "a clone still holds the cell");
        drop(b);
        assert_eq!((pool.outstanding(), pool.free_count()), (0, 1));
    }

    #[test]
    fn cells_outliving_their_pool_are_freed() {
        let pool = BufPool::default();
        let a = pool.checkout().freeze();
        drop(pool);
        assert_eq!(a.len(), CELL_BYTES);
        drop(a);
    }

    #[test]
    fn reserve_avoids_fresh_allocs() {
        let pool = BufPool::default();
        pool.reserve_free(4);
        assert_eq!(pool.free_count(), 4);
        let bufs: Vec<_> = (0..4).map(|_| pool.checkout()).collect();
        assert_eq!(pool.fresh_allocs(), 0);
        drop(bufs);
        assert_eq!(pool.free_count(), 4);
    }
}
