//! Database buffer pool (the paper's Fig. 1).
//!
//! A fixed set of page frames managed with an LRU list and a free list. The
//! behaviour the paper builds its latency argument on is reproduced exactly:
//! when a read misses and no free frame exists, the victim is taken from the
//! LRU tail, and **if the victim is dirty the read blocks behind the write**
//! of that victim ("the total elapsed time of a single read operation … will
//! be at least the sum of a read latency and a write latency"). The pool
//! counts those blocked reads.
//!
//! The pool is storage-agnostic: it performs I/O through the [`PageBackend`]
//! trait, which the storage engine implements (adding double-write buffering
//! and whatever else its configuration demands).
//!
//! The `buffer_flush_neighbors` behaviour of InnoDB is intentionally absent:
//! the paper's experiments run with it off.

use simkit::Nanos;
use std::collections::HashMap;
use telemetry::{Key, Telemetry};

/// Storage interface the pool evicts to and faults from.
pub trait PageBackend {
    /// Read `page_no` into `buf`; returns the completion time.
    fn read_page(&mut self, page_no: u64, buf: &mut [u8], now: Nanos) -> Nanos;
    /// Write `data` to `page_no`; returns the completion time.
    fn write_page(&mut self, page_no: u64, data: &[u8], now: Nanos) -> Nanos;
    /// Write a batch of dirty pages — an eviction sweep or a chunk of a
    /// checkpoint, at most [`WRITE_BATCH`]. Engines override this to
    /// amortise double-write/fsync costs across the batch, the way InnoDB
    /// flushes.
    fn write_batch(&mut self, pages: &[(u64, &[u8])], now: Nanos) -> Nanos {
        let mut t = now;
        for (page_no, data) in pages {
            t = self.write_page(*page_no, data, t);
        }
        t
    }
}

/// Pool statistics (Fig. 6a plots `misses/accesses`).
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Page accesses through `get`/`create`.
    pub accesses: u64,
    /// Accesses that faulted from storage.
    pub misses: u64,
    /// Misses that had to write a dirty victim first (reads blocked by
    /// writes).
    pub blocked_reads: u64,
    /// Dirty pages written at eviction.
    pub dirty_evictions: u64,
    /// Dirty pages written by explicit flushes/checkpoints.
    pub flush_writes: u64,
}

const NIL: usize = usize::MAX;

/// Most dirty pages handed to [`PageBackend::write_batch`] at once (InnoDB
/// flushes in batches; the double-write fsync amortises across the batch).
/// Engines size their batch buffers and double-write areas by it.
pub const WRITE_BATCH: usize = 16;

struct Frame {
    page_no: u64,
    data: Box<[u8]>,
    dirty: bool,
    pins: u32,
    prev: usize,
    next: usize,
    in_use: bool,
}

/// The attached telemetry handle and the pool's keys, resolved when it is
/// attached.
struct PoolTel {
    tel: Telemetry,
    cat: Key,
    eviction: Key,
    eviction_write: Key,
    miss: Key,
    miss_stall: Key,
    dirty_pages: Key,
}

/// A fixed-capacity LRU buffer pool of `page_size`-byte frames.
pub struct BufferPool {
    frames: Vec<Frame>,
    map: HashMap<u64, usize>,
    free: Vec<usize>,
    head: usize, // MRU
    tail: usize, // LRU
    page_size: usize,
    stats: PoolStats,
    /// Incrementally maintained count of dirty in-use frames, mirrored into
    /// the `pool.dirty_pages` gauge on every transition (the O(n)
    /// [`BufferPool::dirty_count`] stays as the ground truth for tests).
    ndirty: usize,
    /// Optional telemetry sink. The paper's "read blocked behind a write"
    /// time is the sum of the `pool.eviction_write` histogram.
    tel: Option<PoolTel>,
}

impl BufferPool {
    /// A pool of `capacity` frames of `page_size` bytes.
    pub fn new(capacity: usize, page_size: usize) -> Self {
        assert!(capacity > 0, "pool needs at least one frame");
        let frames = (0..capacity)
            .map(|_| Frame {
                page_no: u64::MAX,
                data: vec![0u8; page_size].into_boxed_slice(),
                dirty: false,
                pins: 0,
                prev: NIL,
                next: NIL,
                in_use: false,
            })
            .collect();
        Self {
            frames,
            map: HashMap::with_capacity(capacity),
            free: (0..capacity).rev().collect(),
            head: NIL,
            tail: NIL,
            page_size,
            stats: PoolStats::default(),
            ndirty: 0,
            tel: None,
        }
    }

    /// Attach a telemetry sink: records `pool.eviction_write` (time a miss
    /// spends writing the dirty LRU-tail batch before its own read can
    /// start — Fig. 1's blocked read) and `pool.miss_stall` (total fault
    /// time) histograms, under `pool.eviction` / `pool.miss` trace spans.
    pub fn attach_telemetry(&mut self, tel: Telemetry) {
        self.tel = Some(PoolTel {
            cat: tel.key("pool"),
            eviction: tel.key("pool.eviction"),
            eviction_write: tel.key("pool.eviction_write"),
            miss: tel.key("pool.miss"),
            miss_stall: tel.key("pool.miss_stall"),
            dirty_pages: tel.key("pool.dirty_pages"),
            tel,
        });
    }

    /// Frame capacity.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// Page size of the frames.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Statistics so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Reset statistics (after warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = PoolStats::default();
    }

    /// Number of dirty frames.
    pub fn dirty_count(&self) -> usize {
        self.frames.iter().filter(|f| f.in_use && f.dirty).count()
    }

    /// Current miss ratio (0.0 when no accesses yet).
    pub fn miss_ratio(&self) -> f64 {
        if self.stats.accesses == 0 {
            return 0.0;
        }
        self.stats.misses as f64 / self.stats.accesses as f64
    }

    // ---- LRU list plumbing -------------------------------------------------

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.frames[idx].prev, self.frames[idx].next);
        if prev != NIL {
            self.frames[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.frames[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.frames[idx].prev = NIL;
        self.frames[idx].next = NIL;
    }

    fn push_mru(&mut self, idx: usize) {
        self.frames[idx].prev = NIL;
        self.frames[idx].next = self.head;
        if self.head != NIL {
            self.frames[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn touch(&mut self, idx: usize) {
        if self.head != idx {
            self.detach(idx);
            self.push_mru(idx);
        }
    }

    // ---- faulting / eviction ----------------------------------------------

    /// Write the dirty frames `idxs` — at most [`WRITE_BATCH`] — back in one
    /// backend batch and mark them clean: every write-back, eviction sweep
    /// or checkpoint, goes through here. The batch is small and bounded, so
    /// it is staged on the stack — writing back allocates nothing.
    fn write_back<B: PageBackend>(&mut self, idxs: &[usize], backend: &mut B, now: Nanos) -> Nanos {
        const EMPTY: &[u8] = &[];
        let mut batch: [(u64, &[u8]); WRITE_BATCH] = [(0, EMPTY); WRITE_BATCH];
        for (slot, &i) in batch.iter_mut().zip(idxs) {
            debug_assert!(self.frames[i].dirty);
            *slot = (self.frames[i].page_no, &*self.frames[i].data);
        }
        let done = backend.write_batch(&batch[..idxs.len()], now);
        for &i in idxs {
            self.frames[i].dirty = false;
        }
        self.ndirty -= idxs.len();
        done
    }

    /// Obtain a free frame, evicting from the LRU tail if needed. Returns
    /// `(frame, time)`; time advances if dirty victims had to be written.
    ///
    /// When the tail victim is dirty, a whole LRU-tail sweep (up to
    /// [`WRITE_BATCH`] unpinned dirty pages) is flushed in one backend batch
    /// — the requester blocks behind the write either way (paper Fig. 1),
    /// but the flush cost amortises like InnoDB's page-cleaner batches.
    fn take_frame<B: PageBackend>(&mut self, backend: &mut B, mut now: Nanos) -> (usize, Nanos) {
        if let Some(idx) = self.free.pop() {
            return (idx, now);
        }
        // Scan from the LRU tail for an unpinned victim.
        let mut idx = self.tail;
        while idx != NIL && self.frames[idx].pins > 0 {
            idx = self.frames[idx].prev;
        }
        assert!(idx != NIL, "all frames pinned: pool too small for the working set");
        if self.frames[idx].dirty {
            // Sweep the tail for more dirty, unpinned frames to flush in the
            // same batch.
            let mut batch_idx = [0usize; WRITE_BATCH];
            let mut nb = 0usize;
            let mut cur = self.tail;
            while cur != NIL && nb < WRITE_BATCH {
                if self.frames[cur].pins == 0 && self.frames[cur].dirty {
                    batch_idx[nb] = cur;
                    nb += 1;
                }
                cur = self.frames[cur].prev;
            }
            let write_start = now;
            let scope = self.tel.as_ref().map(|t| t.tel.span(t.cat, t.eviction, now));
            now = self.write_back(&batch_idx[..nb], backend, now);
            if let (Some(scope), Some(t)) = (scope, &self.tel) {
                t.tel.record(t.eviction_write, now.saturating_sub(write_start));
                scope.end(now);
            }
            self.stats.dirty_evictions += nb as u64;
            self.stats.blocked_reads += 1;
            self.note_dirty_gauge();
        }
        self.map.remove(&self.frames[idx].page_no);
        self.detach(idx);
        self.frames[idx].in_use = false;
        (idx, now)
    }

    /// Fetch a page for reading; faults it in on a miss. Returns the frame
    /// handle and the completion time. The frame is returned *pinned*; call
    /// [`BufferPool::unpin`] when done with the handle.
    pub fn get<B: PageBackend>(
        &mut self,
        page_no: u64,
        backend: &mut B,
        now: Nanos,
    ) -> (usize, Nanos) {
        self.stats.accesses += 1;
        if let Some(&idx) = self.map.get(&page_no) {
            self.touch(idx);
            self.frames[idx].pins += 1;
            return (idx, now);
        }
        self.stats.misses += 1;
        let scope = self.tel.as_ref().map(|t| t.tel.span(t.cat, t.miss, now));
        let (idx, t) = self.take_frame(backend, now);
        let t = backend.read_page(page_no, &mut self.frames[idx].data, t);
        if let (Some(scope), Some(tt)) = (scope, &self.tel) {
            tt.tel.record(tt.miss_stall, t.saturating_sub(now));
            scope.end(t);
        }
        self.install(idx, page_no);
        (idx, t)
    }

    /// Obtain a frame for a brand-new page without reading storage (the page
    /// is about to be fully initialised by the caller). Pinned on return.
    pub fn create<B: PageBackend>(
        &mut self,
        page_no: u64,
        backend: &mut B,
        now: Nanos,
    ) -> (usize, Nanos) {
        self.stats.accesses += 1;
        if let Some(&idx) = self.map.get(&page_no) {
            self.touch(idx);
            self.frames[idx].pins += 1;
            return (idx, now);
        }
        let (idx, t) = self.take_frame(backend, now);
        self.frames[idx].data.fill(0);
        self.install(idx, page_no);
        (idx, t)
    }

    fn install(&mut self, idx: usize, page_no: u64) {
        self.frames[idx].page_no = page_no;
        if self.frames[idx].dirty {
            self.ndirty -= 1;
            self.note_dirty_gauge();
        }
        self.frames[idx].dirty = false;
        self.frames[idx].pins = 1;
        self.frames[idx].in_use = true;
        self.map.insert(page_no, idx);
        self.push_mru(idx);
    }

    /// Release a pin taken by [`BufferPool::get`]/[`BufferPool::create`].
    pub fn unpin(&mut self, idx: usize) {
        assert!(self.frames[idx].pins > 0, "unpin without pin");
        self.frames[idx].pins -= 1;
    }

    /// Read access to a pinned frame's bytes.
    pub fn data(&self, idx: usize) -> &[u8] {
        debug_assert!(self.frames[idx].in_use);
        &self.frames[idx].data
    }

    /// Mutable access to a pinned frame's bytes; marks it dirty.
    pub fn data_mut(&mut self, idx: usize) -> &mut [u8] {
        debug_assert!(self.frames[idx].in_use);
        if !self.frames[idx].dirty {
            self.ndirty += 1;
            self.frames[idx].dirty = true;
            self.note_dirty_gauge();
        }
        &mut self.frames[idx].data
    }

    /// Mirror the incremental dirty count into the `pool.dirty_pages` gauge.
    fn note_dirty_gauge(&self) {
        if let Some(t) = &self.tel {
            t.tel.set_gauge(t.dirty_pages, self.ndirty as i64);
        }
    }

    /// The page number held by a frame.
    pub fn page_no(&self, idx: usize) -> u64 {
        self.frames[idx].page_no
    }

    /// Whether a page is currently resident (test instrumentation).
    pub fn contains(&self, page_no: u64) -> bool {
        self.map.contains_key(&page_no)
    }

    /// Write every dirty page to the backend (checkpoint), in page order
    /// and in batches of [`WRITE_BATCH`] — what a batch costs to make
    /// durable amortises over a checkpoint as it does over an eviction
    /// sweep. Returns the completion time of the last batch.
    pub fn flush_all<B: PageBackend>(&mut self, backend: &mut B, now: Nanos) -> Nanos {
        // Flush in page order for deterministic output.
        let mut dirty: Vec<usize> = self
            .frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.in_use && f.dirty)
            .map(|(i, _)| i)
            .collect();
        dirty.sort_by_key(|&i| self.frames[i].page_no);
        let mut t = now;
        for chunk in dirty.chunks(WRITE_BATCH) {
            t = self.write_back(chunk, backend, t);
        }
        self.stats.flush_writes += dirty.len() as u64;
        self.note_dirty_gauge();
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Backend with fixed latencies that records I/O.
    struct TestBackend {
        pages: HashMap<u64, Vec<u8>>,
        reads: Vec<u64>,
        writes: Vec<u64>,
        page_size: usize,
    }

    impl TestBackend {
        fn new(page_size: usize) -> Self {
            Self { pages: HashMap::new(), reads: vec![], writes: vec![], page_size }
        }
    }

    impl PageBackend for TestBackend {
        fn read_page(&mut self, page_no: u64, buf: &mut [u8], now: Nanos) -> Nanos {
            self.reads.push(page_no);
            match self.pages.get(&page_no) {
                Some(d) => buf.copy_from_slice(d),
                None => buf.fill(0),
            }
            now + 100
        }
        fn write_page(&mut self, page_no: u64, data: &[u8], now: Nanos) -> Nanos {
            assert_eq!(data.len(), self.page_size);
            self.writes.push(page_no);
            self.pages.insert(page_no, data.to_vec());
            now + 300
        }
    }

    fn setup(cap: usize) -> (BufferPool, TestBackend) {
        (BufferPool::new(cap, 512), TestBackend::new(512))
    }

    #[test]
    fn hit_does_not_touch_backend() {
        let (mut bp, mut be) = setup(4);
        let (f, t) = bp.get(1, &mut be, 0);
        bp.unpin(f);
        assert_eq!(t, 100); // one read fault
        let (f2, t2) = bp.get(1, &mut be, t);
        bp.unpin(f2);
        assert_eq!(t2, t, "hits are free");
        assert_eq!(be.reads.len(), 1);
        assert_eq!(bp.stats().misses, 1);
        assert_eq!(bp.stats().accesses, 2);
    }

    #[test]
    fn dirty_page_round_trips_through_eviction() {
        let (mut bp, mut be) = setup(2);
        let (f, t) = bp.get(1, &mut be, 0);
        bp.data_mut(f)[0] = 42;
        bp.unpin(f);
        // Evict page 1 by filling the pool.
        let (f2, t) = bp.get(2, &mut be, t);
        bp.unpin(f2);
        let (f3, t) = bp.get(3, &mut be, t);
        bp.unpin(f3);
        assert!(be.writes.contains(&1), "dirty victim written back");
        let (f4, _) = bp.get(1, &mut be, t);
        assert_eq!(bp.data(f4)[0], 42);
        bp.unpin(f4);
    }

    #[test]
    fn clean_eviction_does_not_write() {
        let (mut bp, mut be) = setup(2);
        for p in 1..=3 {
            let (f, _) = bp.get(p, &mut be, 0);
            bp.unpin(f);
        }
        assert!(be.writes.is_empty());
        assert_eq!(bp.stats().blocked_reads, 0);
    }

    #[test]
    fn read_blocked_by_dirty_victim_pays_write_then_read() {
        let (mut bp, mut be) = setup(1);
        let (f, t) = bp.get(1, &mut be, 0);
        bp.data_mut(f)[0] = 1;
        bp.unpin(f);
        // Miss on page 2 must first write dirty page 1 (300) then read (100).
        let (f2, t2) = bp.get(2, &mut be, t);
        bp.unpin(f2);
        assert_eq!(t2 - t, 400, "write + read when blocked by a dirty victim");
        assert_eq!(bp.stats().blocked_reads, 1);
    }

    #[test]
    fn lru_order_evicts_coldest() {
        let (mut bp, mut be) = setup(3);
        for p in [1u64, 2, 3] {
            let (f, _) = bp.get(p, &mut be, 0);
            bp.unpin(f);
        }
        // Touch 1 so 2 becomes coldest.
        let (f, _) = bp.get(1, &mut be, 0);
        bp.unpin(f);
        let (f, _) = bp.get(4, &mut be, 0);
        bp.unpin(f);
        assert!(bp.contains(1));
        assert!(!bp.contains(2), "coldest page evicted");
        assert!(bp.contains(3));
        assert!(bp.contains(4));
    }

    #[test]
    fn pinned_frames_are_not_evicted() {
        let (mut bp, mut be) = setup(2);
        let (f1, _) = bp.get(1, &mut be, 0); // keep pinned
        let (f2, _) = bp.get(2, &mut be, 0);
        bp.unpin(f2);
        let (f3, _) = bp.get(3, &mut be, 0);
        bp.unpin(f3);
        assert!(bp.contains(1), "pinned page survives");
        assert!(!bp.contains(2));
        assert_eq!(bp.data(f1).len(), 512);
        bp.unpin(f1);
    }

    #[test]
    #[should_panic(expected = "all frames pinned")]
    fn all_pinned_pool_panics() {
        let (mut bp, mut be) = setup(1);
        let (_f, _) = bp.get(1, &mut be, 0);
        let _ = bp.get(2, &mut be, 0);
    }

    #[test]
    fn create_skips_backend_read() {
        let (mut bp, mut be) = setup(2);
        let (f, t) = bp.create(9, &mut be, 5);
        assert_eq!(t, 5, "no read charged");
        assert!(be.reads.is_empty());
        bp.data_mut(f)[0] = 7;
        bp.unpin(f);
        assert_eq!(bp.dirty_count(), 1);
    }

    #[test]
    fn flush_all_writes_dirty_only() {
        let (mut bp, mut be) = setup(4);
        for p in 1..=3u64 {
            let (f, _) = bp.get(p, &mut be, 0);
            if p != 2 {
                bp.data_mut(f)[0] = p as u8;
            }
            bp.unpin(f);
        }
        bp.flush_all(&mut be, 0);
        assert_eq!(be.writes, vec![1, 3]);
        assert_eq!(bp.dirty_count(), 0);
        assert_eq!(bp.stats().flush_writes, 2);
    }

    #[test]
    fn miss_ratio_reporting() {
        let (mut bp, mut be) = setup(2);
        let (f, _) = bp.get(1, &mut be, 0);
        bp.unpin(f);
        let (f, _) = bp.get(1, &mut be, 0);
        bp.unpin(f);
        assert!((bp.miss_ratio() - 0.5).abs() < 1e-9);
        bp.reset_stats();
        assert_eq!(bp.stats().accesses, 0);
    }

    /// Records batch sizes the backend saw.
    struct BatchBackend {
        inner: TestBackend,
        batches: Vec<usize>,
    }

    impl PageBackend for BatchBackend {
        fn read_page(&mut self, page_no: u64, buf: &mut [u8], now: Nanos) -> Nanos {
            self.inner.read_page(page_no, buf, now)
        }
        fn write_page(&mut self, page_no: u64, data: &[u8], now: Nanos) -> Nanos {
            self.inner.write_page(page_no, data, now)
        }
        fn write_batch(&mut self, pages: &[(u64, &[u8])], now: Nanos) -> Nanos {
            self.batches.push(pages.len());
            let mut t = now;
            for (p, d) in pages {
                t = self.inner.write_page(*p, d, t);
            }
            t
        }
    }

    #[test]
    fn flush_all_writes_page_ordered_batches() {
        let mut bp = BufferPool::new(64, 512);
        let mut be = BatchBackend { inner: TestBackend::new(512), batches: vec![] };
        // Dirty 40 of 50 resident pages, faulted in descending page order.
        for p in (100..150u64).rev() {
            let (f, _) = bp.get(p, &mut be, 0);
            if p % 5 != 0 {
                bp.data_mut(f)[0] = 1;
            }
            bp.unpin(f);
        }
        assert_eq!(bp.dirty_count(), 40);
        let done = bp.flush_all(&mut be, 1_000);
        assert_eq!(be.batches, [16, 16, 8]);
        let want: Vec<u64> = (100..150).filter(|p| p % 5 != 0).collect();
        assert_eq!(be.inner.writes, want, "ascending page order across the batches");
        assert_eq!(done, 1_000 + 40 * 300, "each batch starts when the last one ended");
        assert_eq!(bp.dirty_count(), 0);
        assert_eq!(bp.stats().flush_writes, 40);
        assert_eq!(bp.stats().dirty_evictions, 0);
        // Nothing left to write.
        bp.flush_all(&mut be, done);
        assert_eq!(be.batches.len(), 3);
    }

    #[test]
    fn evictions_flush_the_lru_tail_in_batches() {
        let mut bp = BufferPool::new(32, 512);
        let mut be = BatchBackend { inner: TestBackend::new(512), batches: vec![] };
        // Dirty the whole pool.
        for p in 0..32u64 {
            let (f, _) = bp.get(p, &mut be, 0);
            bp.data_mut(f)[0] = 1;
            bp.unpin(f);
        }
        // One more get forces an eviction: a whole tail sweep flushes.
        let (f, _) = bp.get(100, &mut be, 0);
        bp.unpin(f);
        assert_eq!(be.batches.len(), 1);
        assert!(be.batches[0] > 1, "tail sweep should batch: {:?}", be.batches);
        assert!(be.batches[0] <= 16);
        // The next few evictions find clean victims: no further writes.
        for p in 200..210u64 {
            let (f, _) = bp.get(p, &mut be, 0);
            bp.unpin(f);
        }
        assert_eq!(be.batches.len(), 1, "clean victims need no flush");
    }
}
