//! The DRAM write cache (§3.1.1).
//!
//! A FIFO of dirty 4KB slots with duplicate-write coalescing: when the host
//! overwrites a page that is still waiting in the cache, the old copy is
//! replaced in place — the paper notes this improves endurance because only
//! the latest version reaches flash.
//!
//! Entries move through three states:
//!
//! * **dirty** — waiting for the flusher;
//! * **draining** — a NAND program has been scheduled but has not completed;
//!   the DRAM slot is still occupied (and still dump-covered on power cut);
//! * gone — the program completed, the slot was reclaimed (lazy).
//!
//! ## Zero-copy and complexity
//!
//! Slot contents are [`SharedBuf`] handles on cells of the NAND array's slot
//! pool, frozen at admission, so drain and reclaim move *references*, never
//! bytes: the flusher hands a popped slot's handle to the FTL
//! ([`WriteCache::pop_dirty`] returns the LPN; the caller looks the entry up
//! with [`WriteCache::entry`]), the programmed page shares the cell, and the
//! cache's handle drops when the entry is reclaimed. The hot-path queries
//! the device makes per host command are kept cheap with three structures:
//!
//! * the slot table is dense: one `u32` per exported LPN names the entry's
//!   place in a slab, and a free list recycles the slab's places, so a
//!   lookup is two array reads, nothing is hashed, and the slab never
//!   outgrows the cache's peak occupancy. [`iter`](WriteCache::iter) walks
//!   the table, so it yields LPN order;
//! * the drain index — `(done, lpn)` for every entry with a known drain
//!   completion time, a sorted set in [`Runs`], so an overwrite of a
//!   draining slot shifts one run wherever its completion sits;
//!   [`earliest_drain_done`](WriteCache::earliest_drain_done) and
//!   [`latest_drain_done`](WriteCache::latest_drain_done) read the ends,
//!   [`reclaim`](WriteCache::reclaim) pops from the front, and
//!   [`occupied_at`](WriteCache::occupied_at) counts from the nearer end;
//! * `ack_heap` — a lazy min-heap over command acknowledgement times, so
//!   [`next_ackable`](WriteCache::next_ackable) is an amortised peek.
//!
//! All of it is bookkeeping only: every query returns exactly what a scan
//! of the slot table would, so virtual-time results are byte-identical. None
//! of it allocates once past its peak size.

use simkit::runs::Runs;
use simkit::{Nanos, SharedBuf};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use storage::device::WriteCause;

/// `draining_until` sentinel between `pop_dirty` and `set_draining`: the
/// entry has been handed to the flusher but its program completion time is
/// not known yet. Sentinel-marked entries count as occupied at every `t`
/// (like the real completion, which is always in the future) and are not in
/// the drain index.
const DRAIN_PENDING: Nanos = Nanos::MAX;

/// One cached 4KB slot.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// Page content (4KB): a handle on a slot-pool cell.
    pub data: SharedBuf,
    /// When `Some(done)`, a NAND program for this entry completes at `done`;
    /// the slot is reclaimable after that time.
    pub draining_until: Option<Nanos>,
    /// The host command's acknowledgement time. The flusher must not pick
    /// the entry up earlier: an unacknowledged command has to remain fully
    /// discardable for the atomic writer (§3.2).
    pub ackable_at: Nanos,
    /// Why this page was written (provenance carried from admission to the
    /// NAND program, since the drain happens long after the host command).
    pub cause: WriteCause,
    /// Generation tag matching this entry to its FIFO reference; entries
    /// removed (TRIM) or replaced leave stale references behind, which the
    /// flusher recognises by generation mismatch.
    gen: u64,
}

/// The write cache.
#[derive(Debug)]
pub struct WriteCache {
    /// Per exported LPN, one more than the slab index of its entry; 0 when
    /// the LPN is not cached. Zero-initialised, so only the pages of LPNs
    /// ever cached become resident.
    index: Vec<u32>,
    /// The entries; `None` at the indices `free` holds.
    slab: Vec<Option<CacheEntry>>,
    /// Slab indices no entry holds (its capacity covers the slab's).
    free: Vec<u32>,
    /// FIFO of `(lpn, generation)` awaiting drain. May contain stale
    /// references; `pop_dirty` skips them by generation mismatch.
    fifo: VecDeque<(u64, u64)>,
    /// Number of entries not yet handed to the flusher (== live fifo refs).
    dirty: usize,
    next_gen: u64,
    /// Exactly the `(done, lpn)` of the entries whose `draining_until` is
    /// `Some(done)` with `done != DRAIN_PENDING`.
    drains: Runs<(Nanos, u64)>,
    /// Lazy min-heap of `(ackable_at, lpn, gen)` over dirty entries. May
    /// hold stale tuples (dead generation, changed ack time, drained);
    /// `next_ackable` pops them on sight.
    ack_heap: BinaryHeap<Reverse<(Nanos, u64, u64)>>,
    /// Overwrites coalesced onto a still-dirty slot: each one is a NAND
    /// program the durable cache saved (the paper's endurance argument,
    /// §3.1.1). Overwrites of *draining* slots don't count — their old copy
    /// already reached (or is reaching) flash.
    coalesced: u64,
}

impl WriteCache {
    /// An empty cache for a device exporting `capacity_pages` LPNs.
    pub fn new(capacity_pages: u64) -> Self {
        Self {
            index: vec![0; capacity_pages as usize],
            slab: Vec::new(),
            free: Vec::new(),
            fifo: VecDeque::new(),
            dirty: 0,
            next_gen: 0,
            drains: Runs::default(),
            ack_heap: BinaryHeap::new(),
            coalesced: 0,
        }
    }

    /// The entry at slab index + 1 `s` (nonzero).
    fn at(&self, s: u32) -> &CacheEntry {
        self.slab[s as usize - 1].as_ref().expect("an indexed slot holds an entry")
    }

    fn get_mut(&mut self, lpn: u64) -> Option<&mut CacheEntry> {
        let s = self.index[lpn as usize].checked_sub(1)?;
        Some(self.slab[s as usize].as_mut().expect("an indexed slot holds an entry"))
    }

    /// Store `e` as `lpn`'s entry; returns the entry it replaced.
    fn put(&mut self, lpn: u64, e: CacheEntry) -> Option<CacheEntry> {
        let s = &mut self.index[lpn as usize];
        if let Some(i) = s.checked_sub(1) {
            return self.slab[i as usize].replace(e);
        }
        let i = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = Some(e);
                i
            }
            None => {
                self.slab.push(Some(e));
                if self.free.capacity() < self.slab.capacity() {
                    self.free.reserve(self.slab.capacity() - self.free.len());
                }
                (self.slab.len() - 1) as u32
            }
        };
        *s = i + 1;
        None
    }

    /// Remove `lpn`'s entry, returning it.
    fn take(&mut self, lpn: u64) -> Option<CacheEntry> {
        let i = std::mem::take(&mut self.index[lpn as usize]).checked_sub(1)?;
        self.free.push(i);
        self.slab[i as usize].take()
    }

    /// Total occupied slots (dirty + draining).
    pub fn occupied(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Slots still occupied at time `t`: entries whose drain has not
    /// completed by then. Used for flow-control capacity checks *without*
    /// discarding entries — a completed-but-unreclaimed entry must survive
    /// in DRAM until the device knows no power cut can predate its program
    /// (see `Ssd::note_arrival`).
    pub fn occupied_at(&self, t: Nanos) -> usize {
        self.occupied() - self.drains.count_while(|&(done, _)| done <= t)
    }

    /// Slots waiting for the flusher.
    pub fn dirty(&self) -> usize {
        self.dirty
    }

    /// Occupied bytes (what the capacitors must be able to dump).
    pub fn occupied_bytes(&self) -> u64 {
        self.occupied() as u64 * 4096
    }

    /// Look up a slot (read hit path). Draining entries still hit. The
    /// caller copies into its own buffer — the cache never clones a page to
    /// serve a read.
    pub fn get(&self, lpn: u64) -> Option<&[u8]> {
        self.entry(lpn).map(|e| &*e.data)
    }

    /// A slot's entry: its cell and provenance (the flusher's view of a
    /// slot it just popped).
    pub fn entry(&self, lpn: u64) -> Option<&CacheEntry> {
        match self.index[lpn as usize] {
            0 => None,
            s => Some(self.at(s)),
        }
    }

    /// Overwrites coalesced onto still-dirty slots so far (NAND programs
    /// the cache absorbed).
    pub fn coalesced_overwrites(&self) -> u64 {
        self.coalesced
    }

    /// Remove the `(done, lpn)` reference from the drain index.
    fn remove_drain_ref(&mut self, done: Nanos, lpn: u64) {
        if done == DRAIN_PENDING {
            return; // sentinel entries are not indexed
        }
        let found = self.drains.remove((done, lpn));
        debug_assert!(found, "drain ref ({done}, {lpn}) missing from index");
    }

    /// Drop stale tuples so the heap stays proportional to the live set.
    /// The heap is rebuilt in place: its allocation is kept.
    fn maybe_shrink_ack_heap(&mut self) {
        if self.ack_heap.len() > 2 * self.occupied() + 1024 {
            let mut heap = std::mem::take(&mut self.ack_heap);
            heap.retain(|&Reverse((a, lpn, gen))| self.is_ackable(a, lpn, gen));
            self.ack_heap = heap;
        }
    }

    /// Whether the ack tuple `(a, lpn, gen)` is live: its entry is still
    /// dirty, at that generation and ack time.
    fn is_ackable(&self, a: Nanos, lpn: u64, gen: u64) -> bool {
        self.entry(lpn)
            .is_some_and(|e| e.gen == gen && e.draining_until.is_none() && e.ackable_at == a)
    }

    /// Insert or coalesce a host write whose command acknowledges at
    /// `ackable_at`. Returns the entry this write replaced, if any (the
    /// atomic writer keeps it as a pre-image while the command is in
    /// flight).
    pub fn insert(
        &mut self,
        lpn: u64,
        data: SharedBuf,
        ackable_at: Nanos,
        cause: WriteCause,
    ) -> Option<CacheEntry> {
        // Coalescing with a still-dirty copy keeps its FIFO position (same
        // generation); otherwise the entry gets a fresh reference.
        let keep_gen =
            self.entry(lpn).and_then(
                |e| {
                    if e.draining_until.is_none() {
                        Some(e.gen)
                    } else {
                        None
                    }
                },
            );
        let gen = keep_gen.unwrap_or_else(|| {
            self.next_gen += 1;
            self.next_gen
        });
        if keep_gen.is_some() {
            self.coalesced += 1;
        }
        let prev = self.put(lpn, CacheEntry { data, draining_until: None, ackable_at, cause, gen });
        if let Some(p) = &prev {
            if let Some(d) = p.draining_until {
                // Replaced a draining entry: its completion no longer
                // matters for occupancy — the slot is re-occupied by the
                // new dirty copy.
                self.remove_drain_ref(d, lpn);
            }
        }
        if keep_gen.is_none() {
            self.fifo.push_back((lpn, gen));
            self.dirty += 1;
        }
        self.ack_heap.push(Reverse((ackable_at, lpn, gen)));
        self.maybe_shrink_ack_heap();
        prev
    }

    /// Undo an in-flight host write at power-cut time: restore the
    /// pre-image (or remove the entry if the page was not cached before).
    ///
    /// Runs in two stages so every combination of (current state,
    /// pre-image state) keeps the dirty counter and the side structures
    /// consistent — the original single-pass version over-counted `dirty`
    /// when the aborted write had replaced a *draining* entry (the fresh
    /// FIFO reference it minted was never retired) and under-counted it
    /// when the entry had been removed between the write and the cut
    /// (TRIM of an un-acked write). Found by the simtest fuzzer
    /// (`--target dura --seed 0`, minimal trace `w:12:4 w:21:2 cw:11:2`;
    /// the TRIM variant by seed 11, trace `w:14:4 tcw:17`).
    pub fn rollback(&mut self, lpn: u64, pre: Option<CacheEntry>) {
        // 1. Retire whatever currently occupies the slot (the state the
        //    rolled-back write left behind, if anything).
        if let Some(cur) = self.take(lpn) {
            match cur.draining_until {
                None => self.dirty -= 1, // its FIFO ref goes stale
                Some(d) => self.remove_drain_ref(d, lpn),
            }
        }
        // 2. Restore the pre-image from scratch.
        let Some(mut e) = pre else { return };
        match e.draining_until {
            Some(d) => {
                if d != DRAIN_PENDING {
                    self.drains.insert((d, lpn));
                }
                self.put(lpn, e);
            }
            None => {
                // A restored dirty entry needs a guaranteed-live FIFO slot
                // and ack tuple. Mint a fresh generation: any references the
                // aborted write (or the pre-image's former life) left in the
                // FIFO or the ack heap turn stale and are skipped lazily.
                self.next_gen += 1;
                e.gen = self.next_gen;
                self.fifo.push_back((lpn, e.gen));
                self.dirty += 1;
                self.ack_heap.push(Reverse((e.ackable_at, lpn, e.gen)));
                self.put(lpn, e);
            }
        }
    }

    /// Take the oldest dirty entry whose command has acknowledged by `now`,
    /// marking it drain-pending, and return its LPN. The caller takes a
    /// handle on the entry's cell via [`WriteCache::entry`] — nothing is
    /// copied — and records the program completion time with
    /// [`WriteCache::set_draining`] once the program is scheduled.
    pub fn pop_dirty(&mut self, now: Nanos) -> Option<u64> {
        while let Some(&(lpn, gen)) = self.fifo.front() {
            match self.get_mut(lpn) {
                Some(e) if e.gen == gen && e.draining_until.is_none() => {
                    if e.ackable_at > now {
                        // FIFO order tracks ack order; nothing older exists.
                        return None;
                    }
                    e.draining_until = Some(DRAIN_PENDING);
                    self.fifo.pop_front();
                    self.dirty -= 1;
                    return Some(lpn);
                }
                // Stale reference: removed, replaced or already draining.
                _ => {
                    self.fifo.pop_front();
                }
            }
        }
        None
    }

    /// Earliest time at which a currently-dirty entry becomes drainable, if
    /// any entry is still gated on its command acknowledgement.
    pub fn next_ackable(&mut self) -> Option<Nanos> {
        while let Some(&Reverse((a, lpn, gen))) = self.ack_heap.peek() {
            if self.is_ackable(a, lpn, gen) {
                return Some(a);
            }
            self.ack_heap.pop();
        }
        None
    }

    /// Record the NAND completion time for an entry handed out by
    /// [`WriteCache::pop_dirty`].
    pub fn set_draining(&mut self, lpn: u64, done: Nanos) {
        let Some(e) = self.get_mut(lpn) else { return };
        let old = e.draining_until.replace(done);
        match old {
            Some(o) if o == done => return, // already indexed at this time
            Some(o) => self.remove_drain_ref(o, lpn),
            None => {}
        }
        self.drains.insert((done, lpn));
    }

    /// Reclaim slots whose programs completed by `now`. Their handles drop
    /// with the entries; the cells stay with the pages they drained to.
    pub fn reclaim(&mut self, now: Nanos) {
        while let Some((done, lpn)) = self.drains.pop_front_if(|&(done, _)| done <= now) {
            let removed = self.take(lpn);
            debug_assert!(
                removed.as_ref().is_some_and(|e| e.draining_until == Some(done)),
                "drain index out of sync for lpn {lpn}"
            );
        }
    }

    /// Earliest completion among draining entries (for flow-control waits).
    pub fn earliest_drain_done(&self) -> Option<Nanos> {
        self.drains.first().map(|(done, _)| done)
    }

    /// Latest completion among draining entries (FLUSH CACHE waits for the
    /// entire in-flight set).
    pub fn latest_drain_done(&self) -> Option<Nanos> {
        self.drains.last().map(|(done, _)| done)
    }

    /// All occupied entries, in LPN order (dump path).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &CacheEntry)> {
        (0u64..)
            .zip(&self.index)
            .filter(|&(_, &s)| s != 0)
            .take(self.occupied())
            .map(|(lpn, &s)| (lpn, self.at(s)))
    }

    /// Remove an entry outright (TRIM): whatever state it was in, it is
    /// gone and will not be flushed.
    pub fn remove(&mut self, lpn: u64) {
        if let Some(e) = self.take(lpn) {
            match e.draining_until {
                None => self.dirty = self.dirty.saturating_sub(1),
                Some(d) => self.remove_drain_ref(d, lpn),
            }
        }
    }

    /// Re-mark every draining entry as dirty (recovery path: the NAND
    /// programs they were waiting on sheared when power was cut, so the
    /// dumped copies must be flushed again). Returns how many were requeued.
    ///
    /// The requeue order is deterministic — drain-completion time first
    /// (mirroring the order the flusher issued the programs), lpn as the
    /// tie-break, schedule-pending entries last — so recovery replays
    /// identically for a fixed seed.
    pub fn requeue_draining(&mut self) -> usize {
        // The index holds the scheduled drains in that order.
        let pending = self.iter().filter(|(_, e)| e.draining_until == Some(DRAIN_PENDING));
        let order: Vec<u64> =
            self.drains.iter().map(|&(_, lpn)| lpn).chain(pending.map(|(lpn, _)| lpn)).collect();
        let n = order.len();
        for lpn in order {
            self.next_gen += 1;
            let gen = self.next_gen;
            let e = self.get_mut(lpn).expect("collected above");
            e.draining_until = None;
            // The re-program is recovery work, not host traffic: attribute
            // it to the dump replay, whatever originally wrote the page.
            e.cause = WriteCause::EmergencyDump;
            e.gen = gen;
            let ack = Reverse((e.ackable_at, lpn, gen));
            self.fifo.push_back((lpn, gen));
            self.ack_heap.push(ack);
        }
        self.drains.clear();
        self.dirty += n;
        n
    }

    /// Structural audit of the cache bookkeeping, for the simulation-test
    /// harness. Checked invariants:
    ///
    /// 1. **dirty count**: `dirty` equals both the number of entries with no
    ///    drain scheduled and the number of *live* FIFO references (entry
    ///    present, generation matches, not draining);
    /// 2. **FIFO coverage**: every dirty entry is reachable through exactly
    ///    one live FIFO reference (an unreferenced dirty entry would never
    ///    be flushed — a permanent slot leak);
    /// 3. **drain index**: the index passes its own audit ([`Runs::check`])
    ///    and is exactly the set of `(done, lpn)` for entries draining at a
    ///    known completion time (sentinel-marked entries are not indexed);
    /// 4. **slot table**: every slab index is held by exactly one LPN, and
    ///    holds its entry, or by the free list, and holds none.
    pub fn check_invariants(&self) -> Result<(), String> {
        // 1 + 2. Dirty entries vs live FIFO references.
        let mut live_refs: HashMap<u64, usize> = HashMap::new();
        for &(lpn, gen) in &self.fifo {
            if let Some(e) = self.entry(lpn) {
                if e.gen == gen && e.draining_until.is_none() {
                    *live_refs.entry(lpn).or_insert(0) += 1;
                }
            }
        }
        let dirty_entries = self.iter().filter(|(_, e)| e.draining_until.is_none()).count();
        if dirty_entries != self.dirty {
            return Err(format!(
                "dirty count drift: counter = {}, entries say {dirty_entries}",
                self.dirty
            ));
        }
        let total_refs: usize = live_refs.values().sum();
        if total_refs != self.dirty {
            return Err(format!("dirty count {} != live fifo refs {total_refs}", self.dirty));
        }
        for (lpn, e) in self.iter() {
            if e.draining_until.is_none() {
                match live_refs.get(&lpn) {
                    Some(1) => {}
                    Some(n) => return Err(format!("dirty lpn {lpn} has {n} live fifo refs")),
                    None => {
                        return Err(format!(
                            "dirty lpn {lpn} unreachable from the fifo (leaked slot)"
                        ))
                    }
                }
            }
        }
        // 3. Drain index mirrors the draining entries exactly: its keys are
        //    distinct, each names an entry draining at that time, and there
        //    are as many as such entries.
        self.drains.check().map_err(|e| format!("drain index: {e}"))?;
        let stray = self
            .drains
            .iter()
            .find(|&&(done, lpn)| self.entry(lpn).and_then(|e| e.draining_until) != Some(done));
        if let Some((done, lpn)) = stray {
            return Err(format!(
                "drain index holds ({done}, {lpn}); lpn {lpn} does not drain then"
            ));
        }
        let draining =
            self.iter().filter(|(_, e)| e.draining_until.is_some_and(|d| d != DRAIN_PENDING));
        let (have, want) = (self.drains.iter().count(), draining.count());
        if have != want {
            return Err(format!("drain index holds {have} refs, entries say {want}"));
        }
        // 4. Every slab index is held by one LPN (and holds an entry) or by
        //    the free list (and holds none).
        let mut held = vec![false; self.slab.len()];
        let indexed = self.index.iter().filter_map(|&s| s.checked_sub(1)).map(|i| (i, true));
        for (i, entry) in indexed.chain(self.free.iter().map(|&i| (i, false))) {
            let i = i as usize;
            if std::mem::replace(&mut held[i], true) || self.slab[i].is_some() != entry {
                return Err(format!("slot table: slab index {i} held twice or in the wrong state"));
            }
        }
        if let Some(i) = held.iter().position(|&h| !h) {
            return Err(format!("slot table: slab index {i} is neither indexed nor free"));
        }
        Ok(())
    }

    /// Discard everything (volatile cache on power cut). Returns how many
    /// slots were lost. Cells only the cache held return to the pool
    /// immediately.
    pub fn discard_all(&mut self) -> usize {
        let n = self.occupied();
        self.index.iter_mut().filter(|s| **s != 0).take(n).for_each(|s| *s = 0);
        self.slab.clear();
        self.free.clear();
        self.fifo.clear();
        self.drains.clear();
        self.ack_heap.clear();
        self.dirty = 0;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::BufPool;

    /// LPNs the unit tests' caches export.
    const LPNS: u64 = 64;

    fn pool() -> BufPool {
        BufPool::default()
    }

    fn cache() -> WriteCache {
        WriteCache::new(LPNS)
    }

    fn data(pool: &BufPool, fill: u8) -> SharedBuf {
        let mut b = pool.checkout();
        b.fill(fill);
        b.freeze()
    }

    #[test]
    fn insert_and_get() {
        let p = pool();
        let mut c = cache();
        assert!(c.insert(5, data(&p, 1), 0, WriteCause::HostData).is_none());
        assert_eq!(c.get(5).unwrap()[0], 1);
        assert_eq!(c.occupied(), 1);
        assert_eq!(c.dirty(), 1);
    }

    #[test]
    fn coalescing_keeps_one_copy() {
        let p = pool();
        let mut c = cache();
        c.insert(5, data(&p, 1), 0, WriteCause::HostData);
        let prev = c.insert(5, data(&p, 2), 0, WriteCause::HostData).unwrap();
        assert_eq!(prev.data[0], 1);
        assert_eq!(c.occupied(), 1);
        assert_eq!(c.dirty(), 1);
        assert_eq!(c.get(5).unwrap()[0], 2);
        // Only the latest version is handed to the flusher.
        let lpn = c.pop_dirty(u64::MAX).unwrap();
        assert_eq!(lpn, 5);
        assert_eq!(c.get(lpn).unwrap()[0], 2);
        assert!(c.pop_dirty(u64::MAX).is_none());
    }

    #[test]
    fn fifo_order_preserved() {
        let p = pool();
        let mut c = cache();
        c.insert(1, data(&p, 1), 0, WriteCause::HostData);
        c.insert(2, data(&p, 2), 0, WriteCause::HostData);
        c.insert(3, data(&p, 3), 0, WriteCause::HostData);
        assert_eq!(c.pop_dirty(u64::MAX).unwrap(), 1);
        assert_eq!(c.pop_dirty(u64::MAX).unwrap(), 2);
        assert_eq!(c.pop_dirty(u64::MAX).unwrap(), 3);
    }

    #[test]
    fn iteration_is_in_lpn_order() {
        let p = pool();
        let mut c = cache();
        for lpn in [9, 3, 40, 0, 63] {
            c.insert(lpn, data(&p, lpn as u8), 0, WriteCause::HostData);
        }
        c.remove(40);
        let lpns: Vec<u64> = c.iter().map(|(lpn, _)| lpn).collect();
        assert_eq!(lpns, [0, 3, 9, 63]);
        assert!(c.iter().all(|(lpn, e)| e.data[0] == lpn as u8));
    }

    #[test]
    fn pop_serves_data_in_place_without_copying() {
        let p = pool();
        let mut c = cache();
        c.insert(7, data(&p, 9), 0, WriteCause::HostData);
        let before = p.checkouts();
        let lpn = c.pop_dirty(u64::MAX).unwrap();
        // The flusher takes a handle on the popped entry's cell: no pool
        // checkout (and no heap allocation) happened.
        let cell = c.entry(lpn).unwrap().data.clone();
        assert_eq!(cell[0], 9);
        assert_eq!(p.checkouts(), before);
        // Reclaim drops the cache's handle; the cell lives on in the clone.
        c.set_draining(lpn, 10);
        c.reclaim(10);
        assert_eq!((p.outstanding(), cell[0]), (1, 9));
    }

    #[test]
    fn draining_entries_still_serve_reads_then_reclaim() {
        let p = pool();
        let mut c = cache();
        c.insert(7, data(&p, 9), 0, WriteCause::HostData);
        let lpn = c.pop_dirty(u64::MAX).unwrap();
        c.set_draining(lpn, 1000);
        assert_eq!(c.get(7).unwrap()[0], 9);
        c.reclaim(999);
        assert!(c.get(7).is_some(), "not reclaimable before completion");
        c.reclaim(1000);
        assert!(c.get(7).is_none());
        // The reclaimed entry's cell went back to the pool.
        assert_eq!(p.outstanding(), 0);
    }

    #[test]
    fn rewrite_of_draining_entry_requeues() {
        let p = pool();
        let mut c = cache();
        c.insert(7, data(&p, 1), 0, WriteCause::HostData);
        let lpn = c.pop_dirty(u64::MAX).unwrap();
        c.set_draining(lpn, 1000);
        assert_eq!(c.dirty(), 0);
        // Host rewrites the page while the old version is still draining.
        c.insert(7, data(&p, 2), 0, WriteCause::HostData);
        assert_eq!(c.dirty(), 1);
        let l = c.pop_dirty(u64::MAX).unwrap();
        assert_eq!(c.get(l).unwrap()[0], 2);
    }

    #[test]
    fn rollback_restores_preimage() {
        let p = pool();
        let mut c = cache();
        c.insert(7, data(&p, 1), 0, WriteCause::HostData);
        let pre = c.insert(7, data(&p, 2), 0, WriteCause::HostData);
        c.rollback(7, pre);
        assert_eq!(c.get(7).unwrap()[0], 1);
        // Rolling back a fresh insert removes it.
        let pre2 = c.insert(9, data(&p, 3), 0, WriteCause::HostData);
        c.rollback(9, pre2);
        assert!(c.get(9).is_none());
        assert_eq!(c.dirty(), 1); // only lpn 7 remains dirty
    }

    #[test]
    fn rollback_of_draining_preimage_keeps_drain_index_consistent() {
        let p = pool();
        let mut c = cache();
        c.insert(7, data(&p, 1), 0, WriteCause::HostData);
        let lpn = c.pop_dirty(u64::MAX).unwrap();
        c.set_draining(lpn, 1000);
        // Host overwrites the draining entry; the pre-image is the draining
        // copy.
        let pre = c.insert(7, data(&p, 2), 0, WriteCause::HostData);
        assert!(pre.as_ref().unwrap().draining_until.is_some());
        assert_eq!(c.earliest_drain_done(), None, "replaced drain no longer pending");
        c.rollback(7, pre);
        assert_eq!(c.earliest_drain_done(), Some(1000), "restored drain re-indexed");
        c.reclaim(1000);
        assert!(c.get(7).is_none());
    }

    #[test]
    fn discard_all_clears_everything() {
        let p = pool();
        let mut c = cache();
        c.insert(1, data(&p, 1), 0, WriteCause::HostData);
        c.insert(2, data(&p, 2), 0, WriteCause::HostData);
        assert_eq!(c.discard_all(), 2);
        assert_eq!(c.occupied(), 0);
        assert!(c.pop_dirty(u64::MAX).is_none());
        assert_eq!(p.outstanding(), 0, "discarded cells returned to pool");
        assert!(c.get(1).is_none() && c.iter().next().is_none());
        c.insert(2, data(&p, 3), 0, WriteCause::HostData);
        c.check_invariants().unwrap();
    }

    #[test]
    fn earliest_and_latest_drain_done() {
        let p = pool();
        let mut c = cache();
        c.insert(1, data(&p, 1), 0, WriteCause::HostData);
        c.insert(2, data(&p, 2), 0, WriteCause::HostData);
        let a = c.pop_dirty(u64::MAX).unwrap();
        c.set_draining(a, 500);
        let b = c.pop_dirty(u64::MAX).unwrap();
        c.set_draining(b, 300);
        assert_eq!(c.earliest_drain_done(), Some(300));
        assert_eq!(c.latest_drain_done(), Some(500));
    }

    #[test]
    fn occupied_at_counts_by_completion_time() {
        let p = pool();
        let mut c = cache();
        for lpn in 0..4 {
            c.insert(lpn, data(&p, lpn as u8), 0, WriteCause::HostData);
        }
        for done in [100u64, 200, 300] {
            let l = c.pop_dirty(u64::MAX).unwrap();
            c.set_draining(l, done);
        }
        assert_eq!(c.occupied(), 4);
        assert_eq!(c.occupied_at(0), 4);
        assert_eq!(c.occupied_at(100), 3);
        assert_eq!(c.occupied_at(250), 2);
        assert_eq!(c.occupied_at(300), 1, "only the dirty entry remains");
    }

    #[test]
    fn unacked_entries_are_not_drainable() {
        let p = pool();
        let mut c = cache();
        c.insert(1, data(&p, 1), 100, WriteCause::HostData); // acks at t=100
        assert!(c.pop_dirty(50).is_none(), "flusher must not see unacked data");
        assert_eq!(c.next_ackable(), Some(100));
        assert_eq!(c.pop_dirty(100).unwrap(), 1);
    }

    #[test]
    fn ack_gate_blocks_younger_entries_behind_fifo_head() {
        let p = pool();
        let mut c = cache();
        c.insert(1, data(&p, 1), 100, WriteCause::HostData);
        c.insert(2, data(&p, 2), 50, WriteCause::HostData);
        // FIFO head (lpn 1) not ackable at 60: drain stalls even though
        // lpn 2 acked earlier (ack order == FIFO order in the device).
        assert!(c.pop_dirty(60).is_none());
        assert_eq!(c.pop_dirty(100).unwrap(), 1);
        assert_eq!(c.pop_dirty(100).unwrap(), 2);
    }

    #[test]
    fn next_ackable_tracks_coalesced_ack_times() {
        let p = pool();
        let mut c = cache();
        c.insert(1, data(&p, 1), 100, WriteCause::HostData);
        // Coalescing moves the ack time later; the stale heap tuple must
        // not surface.
        c.insert(1, data(&p, 2), 400, WriteCause::HostData);
        assert_eq!(c.next_ackable(), Some(400));
        c.insert(2, data(&p, 3), 250, WriteCause::HostData);
        assert_eq!(c.next_ackable(), Some(250));
        // The FIFO head (lpn 1, acks at 400) gates the queue even though
        // lpn 2 acked earlier.
        assert!(c.pop_dirty(250).is_none());
        assert_eq!(c.pop_dirty(400).unwrap(), 1);
        assert_eq!(c.pop_dirty(400).unwrap(), 2);
    }

    #[test]
    fn remove_clears_any_state() {
        let p = pool();
        let mut c = cache();
        c.insert(1, data(&p, 1), 0, WriteCause::HostData);
        c.remove(1);
        assert!(c.get(1).is_none());
        assert_eq!(c.dirty(), 0);
        // Removing a draining entry.
        c.insert(2, data(&p, 2), 0, WriteCause::HostData);
        let l = c.pop_dirty(10).unwrap();
        c.set_draining(l, 100);
        c.remove(2);
        assert!(c.get(2).is_none());
        assert_eq!(c.occupied(), 0);
        assert_eq!(c.earliest_drain_done(), None);
    }

    /// Requeued entries go back to the flusher by drain completion, LPN
    /// breaking a tie, and the popped-but-unscheduled ones last in LPN
    /// order, behind the entries that were still dirty.
    #[test]
    fn requeue_draining_restores_dirty_and_clears_index() {
        let p = pool();
        let mut c = cache();
        for lpn in [7, 3, 9, 1, 5, 2] {
            c.insert(lpn, data(&p, lpn as u8), 0, WriteCause::HostData);
        }
        // Completions out of LPN order, lpns 7 and 1 tied at 900, and lpn 5
        // popped with no completion yet; lpn 2 stays dirty.
        for done in [900, 100, 300, 900] {
            let l = c.pop_dirty(u64::MAX).unwrap();
            c.set_draining(l, done);
        }
        assert_eq!(c.pop_dirty(u64::MAX), Some(5));
        assert_eq!(c.requeue_draining(), 5);
        assert_eq!(c.dirty(), 6);
        assert_eq!(c.earliest_drain_done(), None);
        c.check_invariants().unwrap();
        let order: Vec<u64> = std::iter::from_fn(|| c.pop_dirty(u64::MAX)).collect();
        assert_eq!(order, [2, 3, 9, 1, 7, 5]);
        assert!(c.iter().all(|(lpn, e)| lpn == 2 || e.cause == WriteCause::EmergencyDump));
    }

    /// The audit finds a drain missing from the index, and a key no entry
    /// drains at in its place.
    #[test]
    fn check_invariants_finds_a_drain_index_out_of_step() {
        let p = pool();
        let mut c = cache();
        for lpn in [3, 4] {
            c.insert(lpn, data(&p, 0), 0, WriteCause::HostData);
        }
        for done in [700, 900] {
            let l = c.pop_dirty(u64::MAX).unwrap();
            c.set_draining(l, done);
        }
        c.check_invariants().unwrap();
        assert!(c.drains.remove((700, 3)));
        assert!(c.check_invariants().is_err(), "a drain is missing");
        c.drains.insert((800, 3));
        assert!(c.check_invariants().is_err(), "lpn 3 drains at 700, not 800");
        c.drains.remove((800, 3));
        c.drains.insert((700, 3));
        c.check_invariants().unwrap();
    }

    /// Hammer one LPN with coalescing writes: each insert pushes a heap
    /// tuple but the live set stays small. The lazy shrink keeps the heap
    /// bounded, in place, and never changes what `next_ackable` answers.
    #[test]
    fn ack_heap_shrinks_under_churn() {
        let p = pool();
        let mut c = cache();
        // Live entries acking before every churned write, so the heap's top
        // is live and `next_ackable` pops nothing.
        for lpn in 2..10 {
            c.insert(lpn, data(&p, 0), 10 + lpn, WriteCause::HostData);
        }
        let mut shrinks = 0;
        for i in 0..100_000u64 {
            let (len, cap) = (c.ack_heap.len(), c.ack_heap.capacity());
            let before = c.next_ackable();
            c.insert(1, data(&p, (i % 251) as u8), 1_000 + i, WriteCause::HostData);
            if c.ack_heap.len() <= len {
                shrinks += 1;
                assert_eq!(c.ack_heap.len(), 9, "only the live tuples are left");
                assert_eq!(c.ack_heap.capacity(), cap, "rebuilt in place");
            }
            assert_eq!(c.next_ackable(), before, "a shrink changes no answer");
            assert!(c.ack_heap.len() <= 2 * c.occupied() + 1024);
        }
        assert!(shrinks >= 90, "{shrinks} shrinks");
        for lpn in 2..10 {
            c.remove(lpn);
        }
        assert_eq!(c.next_ackable(), Some(100_999));
    }

    /// Regression, found by the simtest fuzzer (`--target dura --seed 0`,
    /// minimal trace `w:12:4 w:21:2 cw:11:2`): a write replaces a
    /// *draining* entry (fresh generation, `dirty += 1`), then a power cut
    /// rolls the write back. The old single-pass rollback restored the
    /// draining pre-image without retiring the aborted write's dirty
    /// reference, leaving the dirty counter permanently one too high.
    #[test]
    fn rollback_over_draining_preimage_keeps_dirty_count() {
        let p = pool();
        let mut c = cache();
        c.insert(5, data(&p, 1), 0, WriteCause::HostData);
        assert_eq!(c.pop_dirty(u64::MAX).unwrap(), 5);
        c.set_draining(5, 1_000);
        // New write coalesces onto the draining slot: pre-image is the
        // draining entry, the new copy is dirty.
        let pre = c.insert(5, data(&p, 2), 10, WriteCause::HostData);
        assert!(pre.as_ref().unwrap().draining_until.is_some());
        assert_eq!(c.dirty(), 1);
        // Power cut before the ack: roll the write back.
        c.rollback(5, pre);
        c.check_invariants().unwrap();
        assert_eq!(c.dirty(), 0, "restored pre-image is draining, not dirty");
        assert_eq!(c.occupied(), 1);
        assert_eq!(c.get(5).unwrap()[0], 1, "pre-image content restored");
        assert!(c.pop_dirty(u64::MAX).is_none(), "no live dirty refs remain");
    }

    /// Regression, found by the simtest fuzzer (`--target dura --seed 11`,
    /// minimal trace `w:14:4 tcw:17`): TRIM removes an un-acked write's
    /// entry, then the cut rolls the write back and must re-account the
    /// restored *dirty* pre-image — the old code under-counted `dirty`.
    #[test]
    fn rollback_after_trim_restores_dirty_accounting() {
        let p = pool();
        let mut c = cache();
        c.insert(7, data(&p, 1), 0, WriteCause::HostData);
        // Overwrite while still dirty: coalesces, pre-image is dirty.
        let pre = c.insert(7, data(&p, 2), 10, WriteCause::HostData);
        assert!(pre.as_ref().unwrap().draining_until.is_none());
        // TRIM lands between the write and its ack.
        c.remove(7);
        assert_eq!(c.dirty(), 0);
        // Cut before the ack: restore the dirty pre-image.
        c.rollback(7, pre);
        c.check_invariants().unwrap();
        assert_eq!(c.dirty(), 1, "restored pre-image is dirty again");
        assert_eq!(c.get(7).unwrap()[0], 1);
        assert_eq!(c.pop_dirty(u64::MAX).unwrap(), 7, "flusher can still drain it");
    }

    /// Rollback with no pre-image (page was not cached before the write)
    /// retires the aborted entry whether it is dirty or draining.
    #[test]
    fn rollback_without_preimage_clears_the_slot() {
        let p = pool();
        let mut c = cache();
        let pre = c.insert(9, data(&p, 3), 5, WriteCause::HostData);
        assert!(pre.is_none());
        c.rollback(9, pre);
        c.check_invariants().unwrap();
        assert_eq!(c.occupied(), 0);
        assert_eq!(c.dirty(), 0);
        assert!(c.get(9).is_none());
    }

    /// The drain index as one sorted deque, before runs: the oracle the
    /// run-based index is compared with.
    mod reference {
        use simkit::Nanos;
        use std::collections::VecDeque;

        #[derive(Default)]
        pub struct DrainIndex(VecDeque<(Nanos, u64)>);

        impl DrainIndex {
            /// Usually at the back: completions are handed out in
            /// near-ascending order.
            pub fn insert(&mut self, done: Nanos, lpn: u64) {
                let i = self.0.partition_point(|&(d, _)| d <= done);
                if i == self.0.len() {
                    self.0.push_back((done, lpn));
                } else {
                    self.0.insert(i, (done, lpn));
                }
            }

            pub fn remove(&mut self, done: Nanos, lpn: u64) {
                let mut i = self.0.partition_point(|&(d, _)| d < done);
                while let Some(&(d, l)) = self.0.get(i) {
                    assert_eq!(d, done, "drain ref ({done}, {lpn}) missing");
                    if l == lpn {
                        self.0.remove(i);
                        return;
                    }
                    i += 1;
                }
                panic!("drain ref ({done}, {lpn}) missing");
            }

            /// Entries whose drain completed by `t`.
            pub fn drained(&self, t: Nanos) -> usize {
                self.0.partition_point(|&(done, _)| done <= t)
            }

            pub fn earliest(&self) -> Option<Nanos> {
                self.0.front().map(|&(done, _)| done)
            }

            pub fn latest(&self) -> Option<Nanos> {
                self.0.back().map(|&(done, _)| done)
            }

            /// The LPNs a reclaim at `now` frees.
            pub fn reclaim(&mut self, now: Nanos) -> Vec<u64> {
                let n = self.drained(now);
                self.0.drain(..n).map(|(_, lpn)| lpn).collect()
            }

            pub fn clear(&mut self) {
                self.0.clear();
            }
        }
    }

    /// The indexed completion time of `lpn`'s entry, if it has one.
    fn drain_ref(c: &WriteCache, lpn: u64) -> Option<Nanos> {
        c.entry(lpn)?.draining_until.filter(|&d| d != DRAIN_PENDING)
    }

    /// The run-based drain index against the flat deque, call for call,
    /// through the cache: inserts, coalescing onto dirty slots, overwrites
    /// of draining and drained slots, re-timed drains, rollbacks to dirty
    /// and draining pre-images, removals, reclaims and requeues. After every
    /// call, `occupied_at` at random times, both ends of the index and the
    /// set a reclaim frees agree, and the cache's invariants hold.
    #[test]
    fn drain_index_matches_the_flat_deque() {
        use simkit::dist::{rng, Rng};
        let p = pool();
        let mut r = rng(0xD4A1);
        let (mut splits, mut emptied, mut freed) = (0, 0, 0);
        for case in 0..24 {
            let lpns = [40, 600, 2_000][case % 3];
            let mut c = WriteCache::new(lpns);
            let mut old = reference::DrainIndex::default();
            let mut pre_images: Vec<(u64, Option<CacheEntry>)> = Vec::new();
            // Completions spread wide enough that most inserts land inside
            // the index, not at its back.
            let spread: Nanos = [1_000, 100_000, 10_000_000][case % 3];
            let mut clock: Nanos = 0;
            for call in 0..r.gen_range(500..6_000usize) {
                clock += r.gen_range(0..100u64);
                let lpn = r.gen_range(0..lpns);
                // The LPN whose drain reference the call may change, and its
                // reference before the call.
                let mut touched = Some((lpn, drain_ref(&c, lpn)));
                let (runs, free) = (c.drains.run_count(), c.drains.free_slots());
                // A drain set inside the index, not at its back, into a
                // full run splits it.
                let mut drain_at = |c: &mut WriteCache, l: u64, done: Nanos| {
                    c.set_draining(l, done);
                    let inner = c.drains.last() != Some((done, l));
                    splits += usize::from(inner && c.drains.run_count() > runs);
                };
                match r.gen_range(0..1_000u32) {
                    0..=299 => {
                        let pre = c.insert(lpn, data(&p, 0), clock, WriteCause::HostData);
                        if r.gen_range(0..4u32) == 0 {
                            pre_images.push((lpn, pre));
                        }
                    }
                    300..=599 => {
                        if let Some(l) = c.pop_dirty(clock) {
                            touched = Some((l, drain_ref(&c, l)));
                            drain_at(&mut c, l, clock + r.gen_range(0..spread));
                        }
                    }
                    600..=679 => {
                        // Re-time a drain; a slot not draining is left alone.
                        if c.entry(lpn).is_some_and(|e| e.draining_until.is_some()) {
                            drain_at(&mut c, lpn, clock + r.gen_range(0..spread));
                        }
                    }
                    680..=739 => {
                        if let Some(i) =
                            (!pre_images.is_empty()).then(|| r.gen_range(0..pre_images.len()))
                        {
                            let (l, pre) = pre_images.swap_remove(i);
                            touched = Some((l, drain_ref(&c, l)));
                            c.rollback(l, pre);
                        }
                    }
                    740..=789 => c.remove(lpn),
                    790..=997 => {
                        let now = clock.saturating_sub(r.gen_range(0..spread));
                        let before: Vec<u64> = c.iter().map(|(l, _)| l).collect();
                        c.reclaim(now);
                        let mut gone: Vec<u64> =
                            before.into_iter().filter(|&l| c.entry(l).is_none()).collect();
                        let mut want = old.reclaim(now);
                        want.sort_unstable();
                        gone.sort_unstable();
                        assert_eq!(gone, want, "reclaim({now}) frees the same set");
                        freed += gone.len();
                        touched = None;
                    }
                    _ => {
                        c.requeue_draining();
                        old.clear();
                        touched = None;
                    }
                }
                // Mirror the call's effect on the indexed set into the deque.
                if let Some((l, before)) = touched {
                    let after = drain_ref(&c, l);
                    if before != after {
                        if let Some(d) = before {
                            old.remove(d, l);
                        }
                        if let Some(d) = after {
                            old.insert(d, l);
                        }
                    }
                }
                emptied += usize::from(c.drains.free_slots() > free);
                assert_eq!(c.earliest_drain_done(), old.earliest());
                assert_eq!(c.latest_drain_done(), old.latest());
                for _ in 0..4 {
                    let t = clock.saturating_sub(spread) + r.gen_range(0..3 * spread);
                    assert_eq!(c.occupied_at(t), c.occupied() - old.drained(t), "at {t}");
                }
                if call % 8 == 0 {
                    c.check_invariants().unwrap();
                }
            }
            c.check_invariants().unwrap();
        }
        assert!(splits > 30 && emptied > 100 && freed > 4_000, "{splits} {emptied} {freed}");
    }
}
