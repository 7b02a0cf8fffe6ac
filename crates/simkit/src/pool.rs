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
//! no path can leak or double-return it.
//!
//! ## Where the counts live
//!
//! A cell is a number. Its bytes sit in a chunk of `CHUNK_CELLS` cells
//! (64 KiB) the pool allocates once; its reference count sits in one dense
//! `u32` table the pool keeps beside the chunk list and the free list. A
//! handle is the pool's address and the cell number, so cloning, dropping,
//! checking out and freezing touch the count table — 4 bytes a cell, a
//! table small enough to stay in cache — and never the cell's own, usually
//! cold, lines. Each outstanding cell (not each handle) holds the pool
//! alive: it takes one strong count on the pool's `Rc` at checkout and
//! gives it back when its count returns to zero, so cells that outlive
//! their [`BufPool`] stay valid and the chunks are freed with the last one.
//!
//! Chunks stay under glibc's 128 KiB mmap threshold, so a dropped device's
//! chunks stay in the process and the next device reuses them instead of
//! faulting fresh pages in; and they are aligned to a cache line, not a
//! page, which would cost a page of slack per chunk.
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
//! overwrite them. Every cell is 64-byte aligned by construction; other
//! architectures take `copy_from_slice`.
//!
//! The pool is intentionally *elastic*: `checkout` on an empty free list
//! makes a cell (cold path / warmup), and the free list is unbounded —
//! sizing is governed by the natural high-water mark of the layer that owns
//! the pool. All pools are single-threaded (`Rc`), matching the simulator.

use std::alloc::{self, Layout};
use std::cell::UnsafeCell;
use std::ptr::NonNull;
use std::rc::Rc;

/// Bytes in one cell: a 4 KiB logical slot.
pub const CELL_BYTES: usize = 4096;

/// Debug-build poison byte written over returned cells.
pub const POISON: u8 = 0xDB;

/// Cells per chunk, the unit the pool allocates in: 64 KiB.
const CHUNK_CELLS: usize = 16;

/// A chunk's layout: cache-line aligned, so every cell is too.
const CHUNK: Layout = match Layout::from_size_align(CHUNK_CELLS * CELL_BYTES, 64) {
    Ok(layout) => layout,
    Err(_) => panic!("a chunk's layout is valid"),
};

#[derive(Default)]
struct PoolState {
    /// Cell `c` is the `c % CHUNK_CELLS`th cell of `chunks[c / CHUNK_CELLS]`.
    chunks: Vec<NonNull<u8>>,
    /// Per cell made, the handles on it; 0 while it is free.
    counts: Vec<u32>,
    /// Cells no handle refers to.
    free: Vec<u32>,
    /// Cells currently referenced by at least one handle.
    outstanding: usize,
    checkouts: u64,
    fresh: u64,
}

impl PoolState {
    /// A zeroed cell numbered after the last, in a new chunk when the last
    /// chunk is full.
    fn make_cell(&mut self) -> u32 {
        let cell = self.counts.len();
        if cell == self.chunks.len() * CHUNK_CELLS {
            // SAFETY: `CHUNK` has a nonzero size.
            let chunk = unsafe { alloc::alloc_zeroed(CHUNK) };
            let chunk = NonNull::new(chunk).unwrap_or_else(|| alloc::handle_alloc_error(CHUNK));
            debug_assert!(chunk.as_ptr().addr().is_multiple_of(64), "chunks are line-aligned");
            self.chunks.push(chunk);
        }
        self.counts.push(0);
        u32::try_from(cell).expect("a pool holds fewer than 2^32 cells")
    }

    /// The first byte of `cell`.
    fn cell_ptr(&self, cell: u32) -> *mut u8 {
        let c = cell as usize;
        // SAFETY: `c % CHUNK_CELLS * CELL_BYTES + CELL_BYTES` is at most the
        // chunk's size, so the offset stays inside the chunk's allocation.
        unsafe { self.chunks[c / CHUNK_CELLS].as_ptr().add(c % CHUNK_CELLS * CELL_BYTES) }
    }

    /// Drop one handle on `cell`; true when it was the last and the cell is
    /// back on the free list.
    fn release(&mut self, cell: u32) -> bool {
        let count = &mut self.counts[cell as usize];
        *count -= 1;
        if *count != 0 {
            return false;
        }
        if cfg!(debug_assertions) {
            // SAFETY: the cell lies in a live chunk, and its last handle is
            // being dropped, so no reference to its bytes remains.
            unsafe { self.cell_ptr(cell).write_bytes(POISON, CELL_BYTES) };
        }
        self.outstanding -= 1;
        self.free.push(cell);
        true
    }
}

impl Drop for PoolState {
    fn drop(&mut self) {
        for &chunk in &self.chunks {
            // SAFETY: each chunk was allocated with `CHUNK` by `make_cell`
            // and is freed once, here. No cell is outstanding — each holds
            // the pool alive — so nothing refers to its bytes.
            unsafe { alloc::dealloc(chunk.as_ptr(), CHUNK) };
        }
    }
}

#[derive(Default)]
struct PoolInner {
    state: UnsafeCell<PoolState>,
}

impl PoolInner {
    /// Run `f` on the pool's state. No closure passed here drops a handle or
    /// calls back into the pool, and no reference into the state outlives
    /// it.
    fn with<R>(&self, f: impl FnOnce(&mut PoolState) -> R) -> R {
        // SAFETY: a pool is single-threaded — `UnsafeCell` makes `PoolInner`
        // `!Sync`, and `Rc` and `NonNull` keep every handle on it `!Send` —
        // and `f` does not re-enter `with`, so this is the state's only
        // reference while `f` runs.
        f(unsafe { &mut *self.state.get() })
    }
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
            .field("free", &self.free_count())
            .field("outstanding", &self.outstanding())
            .finish()
    }
}

impl BufPool {
    /// Top the free list up to at least `n` parked cells.
    ///
    /// Used by prewarm paths that know their layer's structural bound (e.g.
    /// a NAND array can never hold more live slots than its geometry has
    /// physical slots): preallocating to the bound moves every would-be
    /// high-water-mark allocation out of the measured/steady-state window.
    pub fn reserve_free(&self, n: usize) {
        self.inner.with(|s| {
            let missing = n.saturating_sub(s.free.len());
            s.free.reserve(missing);
            s.counts.reserve(missing);
            s.chunks.reserve(missing.div_ceil(CHUNK_CELLS));
            let first = s.counts.len();
            for _ in 0..missing {
                s.make_cell();
            }
            // Parked so that checkouts pop them in address order.
            s.free.extend((first..s.counts.len()).rev().map(|c| c as u32));
        });
    }

    /// Lease a cell. Contents are **unspecified** (recycled cells keep
    /// their poison/stale bytes) — callers overwrite all of it.
    pub fn checkout(&self) -> PageBuf {
        let cell = self.inner.with(|s| {
            s.checkouts += 1;
            let cell = s.free.pop().unwrap_or_else(|| {
                s.fresh += 1;
                s.make_cell()
            });
            debug_assert_eq!(s.counts[cell as usize], 0, "a free cell has no handle");
            s.counts[cell as usize] = 1;
            s.outstanding += 1;
            cell
        });
        // The cell's strong count on the pool, given back by the drop that
        // returns it (`SharedBuf::drop`).
        let pool = Rc::into_raw(Rc::clone(&self.inner));
        let pool = NonNull::new(pool.cast_mut()).expect("an Rc is never null");
        PageBuf(SharedBuf { pool, cell })
    }

    /// Lease a cell initialised from `src` (must be exactly 4 KiB), copied
    /// in with streaming stores where the CPU has them (see the module doc).
    pub fn checkout_from(&self, src: &[u8]) -> PageBuf {
        let src: &[u8; CELL_BYTES] = src.try_into().expect("a cell is filled from 4 KiB");
        let mut b = self.checkout();
        copy_cell(&mut b, src);
        b
    }

    /// Cells currently referenced by at least one handle.
    pub fn outstanding(&self) -> usize {
        self.inner.with(|s| s.outstanding)
    }

    /// Cells parked on the free list.
    pub fn free_count(&self) -> usize {
        self.inner.with(|s| s.free.len())
    }

    /// Total checkouts served since creation.
    pub fn checkouts(&self) -> u64 {
        self.inner.with(|s| s.checkouts)
    }

    /// Checkouts that had to make a cell because the free list was empty
    /// (warmup / high-water-mark growth). `checkouts() - fresh_allocs()`
    /// is the number of cells the free list served.
    pub fn fresh_allocs(&self) -> u64 {
        self.inner.with(|s| s.fresh)
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
        debug_assert_eq!(self.0.ref_count(), 1, "a checkout is the cell's only handle");
        // SAFETY: the cell is live and its chunk outlives this handle (see
        // `SharedBuf::deref`), and a `PageBuf` is its only handle: it is
        // made by a checkout with a count of one and cannot be cloned, so
        // the borrow of `self` is the only way to the bytes.
        unsafe { &mut *self.0.cell_ptr().cast::<[u8; CELL_BYTES]>() }
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

/// Copy one cell's worth of bytes into a checkout: with non-temporal stores
/// on x86_64, else with `copy_from_slice`.
fn copy_cell(dst: &mut PageBuf, src: &[u8; CELL_BYTES]) {
    let dst = dst.bytes_mut();
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{__m128i, _mm_loadu_si128, _mm_sfence, _mm_stream_si128};
        let (d, s) = (dst.as_mut_ptr().cast::<__m128i>(), src.as_ptr().cast::<__m128i>());
        // SAFETY: SSE2 is part of the x86_64 baseline. Both arrays hold
        // `CELL_BYTES` bytes, so each of the `CELL_BYTES / 16` lanes is in
        // bounds of both; the loads are unaligned, and the streaming stores
        // go to a cell, which starts a multiple of `CELL_BYTES` into a
        // chunk allocated 64-byte aligned (`CHUNK`). The fence orders the
        // streamed stores before every later store, so the cell reads back
        // as if `copy_from_slice` had written it.
        unsafe {
            for i in 0..CELL_BYTES / 16 {
                _mm_stream_si128(d.add(i), _mm_loadu_si128(s.add(i)));
            }
            _mm_sfence();
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    dst.copy_from_slice(src);
}

/// A read-only handle on a pool cell; derefs to `[u8]`.
///
/// Cloning shares the cell (no copy, no allocation); the cell returns to
/// its pool when the last handle drops.
pub struct SharedBuf {
    pool: NonNull<PoolInner>,
    cell: u32,
}

impl SharedBuf {
    /// The number of handles on this cell, this one included.
    pub fn ref_count(&self) -> u32 {
        self.pool().with(|s| s.counts[self.cell as usize])
    }

    fn pool(&self) -> &PoolInner {
        // SAFETY: `pool` came from the pool's `Rc`, and the cell holds a
        // strong count on it from its checkout until its last handle — at
        // the latest this one — drops.
        unsafe { self.pool.as_ref() }
    }

    fn cell_ptr(&self) -> *mut u8 {
        self.pool().with(|s| s.cell_ptr(self.cell))
    }

    /// Overwrite the cell's count, for the overflow test.
    #[cfg(test)]
    fn set_ref_count(&self, n: u32) {
        self.pool().with(|s| s.counts[self.cell as usize] = n);
    }
}

impl Clone for SharedBuf {
    fn clone(&self) -> Self {
        self.pool().with(|s| {
            let count = &mut s.counts[self.cell as usize];
            *count = count.checked_add(1).expect("a cell's reference count overflows");
        });
        Self { pool: self.pool, cell: self.cell }
    }
}

impl Drop for SharedBuf {
    fn drop(&mut self) {
        if self.pool().with(|s| s.release(self.cell)) {
            // SAFETY: `pool` came from `Rc::into_raw` at the cell's checkout,
            // which took the strong count given back here, once: the cell's
            // last handle is dropping. Nothing touches the pool after it.
            unsafe { Rc::decrement_strong_count(self.pool.as_ptr()) };
        }
    }
}

impl std::ops::Deref for SharedBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        // SAFETY: the cell is live while this handle is; its chunk is freed
        // only with the pool, which the cell holds alive; and its bytes are
        // written only through a `PageBuf`, the cell's only handle, or after
        // its last handle drops.
        unsafe { std::slice::from_raw_parts(self.cell_ptr(), CELL_BYTES) }
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
    use crate::rng::{Rng, SimRng};
    use std::collections::HashMap;

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
        // The next checkout reuses the same cell, no fresh one.
        let b = pool.checkout();
        assert_eq!(b.as_ptr(), first_ptr, "cell was reused, not remade");
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
        assert!(b.as_ptr().addr().is_multiple_of(64), "cells are line-aligned");
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
        assert_eq!(a.ref_count(), 2);
        drop(a);
        assert_eq!((pool.outstanding(), b.ref_count()), (1, 1), "a clone still holds the cell");
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

    /// `Rc` aborts when its count overflows; the count table must not wrap
    /// either.
    #[test]
    fn a_count_overflow_panics() {
        let pool = BufPool::default();
        let a = pool.checkout().freeze();
        a.set_ref_count(u32::MAX);
        let clone = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.clone()));
        assert!(clone.is_err(), "the clone past u32::MAX panics");
        assert_eq!(a.ref_count(), u32::MAX, "and counts nothing");
        a.set_ref_count(1);
        drop(a);
        assert_eq!((pool.outstanding(), pool.free_count()), (0, 1));
    }

    /// A live handle in the model walk: a checkout or a frozen clone.
    enum Held {
        Page(PageBuf),
        Shared(SharedBuf),
    }

    impl Held {
        fn bytes(&self) -> &[u8] {
            match self {
                Held::Page(b) => b,
                Held::Shared(b) => b,
            }
        }
    }

    /// The model of one `BufPool`: what its four counters must read.
    #[derive(Default)]
    struct Gen {
        pool: Option<BufPool>,
        made: usize,
        checkouts: u64,
        fresh: u64,
    }

    fn stamped(stamp: u64) -> Vec<u8> {
        stamp.to_le_bytes().repeat(CELL_BYTES / 8)
    }

    /// Random checkouts, copies in, freezes, clones, drops, reserves and
    /// dropped pools over more than three chunks, each step checked against
    /// a model: the pool's counters, every live handle's stamp (a cell given
    /// back early is overwritten by a later checkout), one address per cell
    /// and each cell's count.
    #[test]
    fn pool_matches_a_model() {
        for seed in 0..4 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut gens = vec![Gen { pool: Some(BufPool::default()), ..Gen::default() }];
            // Each live handle, the generation of its pool and its stamp.
            let mut live: Vec<(Held, usize, u64)> = Vec::new();
            let mut next_stamp = 0u64;
            let mut peak_made = 0;
            for _ in 0..3_000 {
                let g = gens.len() - 1;
                // Drops outweigh checkouts once about a hundred handles are live.
                let full = live.len() > 100;
                match rng.gen_range(0..100u32) {
                    0..30 if !full => {
                        let pool = gens[g].pool.as_ref().expect("the last generation has its pool");
                        let free = pool.free_count();
                        let b = if rng.gen_bool(0.5) {
                            pool.checkout_from(&stamped(next_stamp))
                        } else {
                            let mut b = pool.checkout();
                            b.copy_from_slice(&stamped(next_stamp));
                            b
                        };
                        let model = &mut gens[g];
                        model.checkouts += 1;
                        if free == 0 {
                            model.fresh += 1;
                            model.made += 1;
                        }
                        live.push((Held::Page(b), g, next_stamp));
                        next_stamp += 1;
                    }
                    30..40 => {
                        let pages: Vec<usize> = (0..live.len())
                            .filter(|&i| matches!(live[i].0, Held::Page(_)))
                            .collect();
                        if !pages.is_empty() {
                            let i = pages[rng.gen_range(0..pages.len())];
                            let (held, g, stamp) = live.swap_remove(i);
                            let Held::Page(b) = held else { unreachable!() };
                            live.push((Held::Shared(b.freeze()), g, stamp));
                        }
                    }
                    40..60 => {
                        let shared: Vec<usize> = (0..live.len())
                            .filter(|&i| matches!(live[i].0, Held::Shared(_)))
                            .collect();
                        if !shared.is_empty() {
                            let i = shared[rng.gen_range(0..shared.len())];
                            let Held::Shared(b) = &live[i].0 else { unreachable!() };
                            let (clone, g, stamp) = (b.clone(), live[i].1, live[i].2);
                            assert_eq!(clone.as_ptr(), b.as_ptr(), "clones share one cell");
                            live.push((Held::Shared(clone), g, stamp));
                        }
                    }
                    97..99 => {
                        let n = rng.gen_range(0..64usize);
                        let pool = gens[g].pool.as_ref().expect("the last generation has its pool");
                        let free = pool.free_count();
                        pool.reserve_free(n);
                        gens[g].made += n.saturating_sub(free);
                    }
                    99 => {
                        // The pool goes; its cells live on with their handles.
                        gens[g].pool = None;
                        gens.push(Gen { pool: Some(BufPool::default()), ..Gen::default() });
                    }
                    // 60..97, and a checkout's share once the walk is full.
                    _ => {
                        if !live.is_empty() {
                            live.swap_remove(rng.gen_range(0..live.len()));
                        }
                    }
                }
                // Handles per stamp, and the one address each stamp's cell has.
                let mut cells: HashMap<u64, (usize, *const u8, usize)> = HashMap::new();
                for (held, g, stamp) in &live {
                    let b = held.bytes();
                    let word = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
                    let ends = (word(0), word(CELL_BYTES - 8));
                    assert_eq!(ends, (*stamp, *stamp), "a live cell's stamp");
                    let e = cells.entry(*stamp).or_insert((0, b.as_ptr(), *g));
                    assert_eq!(e.1, b.as_ptr(), "one cell per checkout");
                    e.0 += 1;
                }
                let mut addrs: Vec<*const u8> = cells.values().map(|&(_, p, _)| p).collect();
                addrs.sort_unstable();
                addrs.dedup();
                assert_eq!(addrs.len(), cells.len(), "live checkouts hold distinct cells");
                for (held, _, stamp) in &live {
                    if let Held::Shared(b) = held {
                        assert_eq!(b.ref_count() as usize, cells[stamp].0, "count = handles");
                    }
                }
                let model = &gens[gens.len() - 1];
                let pool = model.pool.as_ref().expect("the last generation has its pool");
                let outstanding = cells.values().filter(|&&(_, _, g)| g == gens.len() - 1).count();
                peak_made = peak_made.max(model.made);
                assert_eq!(
                    (pool.outstanding(), pool.free_count(), pool.checkouts(), pool.fresh_allocs()),
                    (outstanding, model.made - outstanding, model.checkouts, model.fresh),
                    "outstanding, free, checkouts, fresh"
                );
            }
            assert!(peak_made > 3 * CHUNK_CELLS, "the walk spans {peak_made} cells");
            drop(live);
            let model = &gens[gens.len() - 1];
            let pool = model.pool.as_ref().expect("the last generation has its pool");
            assert_eq!((pool.outstanding(), pool.free_count()), (0, model.made));
        }
    }
}
