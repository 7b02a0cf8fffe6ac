//! Sorted runs: a sorted sequence kept in short runs in the slots of one
//! slab.
//!
//! [`Runs`] holds strictly ascending entries in runs of at most `RUN` = 128
//! entries, each run in its own `RUN`-entry slot of one slab, listed in
//! order. An insert shifts within one run, toward its shorter side where the
//! slot has room; a full run splits into two halves centred in their slots;
//! a run that empties returns its slot to a free list. The slab, the run
//! list and the free list grow together and only when the slab does, so a
//! container past its peak size allocates nothing. Each run carries a
//! metadata value `M` the owner keeps (a split copies it to both halves).
//!
//! Two structures sit on it: `Timeline`'s busy intervals, with each run's
//! gap bound as `M`, and the write cache's drain index. The first places by
//! position (the `pub(crate)` half of the API, which its gap scan reads
//! directly); the second is a sorted set (the `pub` half).

use std::collections::VecDeque;
use std::ops::Range;

/// Most entries one run holds: the bound on what an insert or a removal
/// shifts.
pub(crate) const RUN: usize = 128;

/// One run: entries `lo..hi` of slab slot `slot`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run<M> {
    pub(crate) slot: u32,
    pub(crate) lo: u16,
    pub(crate) hi: u16,
    pub(crate) meta: M,
}

impl<M> Run<M> {
    pub(crate) fn len(&self) -> usize {
        usize::from(self.hi - self.lo)
    }

    /// Slab indices of the run's entries.
    pub(crate) fn span(&self) -> Range<usize> {
        let base = self.slot as usize * RUN;
        base + usize::from(self.lo)..base + usize::from(self.hi)
    }
}

/// Strictly ascending entries in runs of at most `RUN` in one slab, with a
/// metadata value per run. A clone's run and free lists have no spare
/// capacity, so it allocates again until it is back at its peak size.
#[derive(Debug, Clone, Default)]
pub struct Runs<T: Copy + Ord, M: Copy + Default = ()> {
    pub(crate) slab: Vec<T>,
    /// The runs, in order.
    pub(crate) runs: VecDeque<Run<M>>,
    /// Slab slots no run holds.
    free: Vec<u32>,
    len: usize,
}

impl<T: Copy + Ord, M: Copy + Default> Runs<T, M> {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Number of runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Number of slab slots on the free list.
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// The smallest entry.
    pub fn first(&self) -> Option<T> {
        self.runs.front().map(|run| self.slab[run.span().start])
    }

    /// The largest entry.
    pub fn last(&self) -> Option<T> {
        self.runs.back().map(|run| self.slab[run.span().end - 1])
    }

    /// The entries in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.runs.iter().flat_map(|run| &self.slab[run.span()])
    }

    /// The first entry `below` does not hold for, as its run and slab
    /// index; `None` when it holds for every entry. `below` must hold for a
    /// prefix of the entries. The last entry is tried first, then runs
    /// gallop from the front and a binary search narrows: the sorted set
    /// mostly inserts after every entry, and a timeline's arrivals mostly
    /// land in its first run.
    pub(crate) fn search(&self, below: impl Fn(&T) -> bool) -> Option<(usize, usize)> {
        if self.last().is_none_or(|last| below(&last)) {
            return None;
        }
        let ends_below = |r: usize| below(&self.slab[self.runs[r].span().end - 1]);
        let n = self.runs.len();
        // Every run before `lo` ends below; none from `hi` on does.
        let (mut lo, mut hi, mut step) = (0, 0, 1);
        while hi < n && ends_below(hi) {
            lo = hi + 1;
            hi += step;
            step *= 2;
        }
        hi = hi.min(n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if ends_below(mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let span = self.runs[lo].span();
        Some((lo, span.start + self.slab[span].partition_point(below)))
    }

    /// Insert `key`; it must not be present.
    pub fn insert(&mut self, key: T) {
        match self.search(|k| *k < key) {
            Some((r, p)) => self.insert_at(r, p, key),
            None => {
                self.push_back(key);
            }
        }
    }

    /// Remove `key`; false when it is not present.
    pub fn remove(&mut self, key: T) -> bool {
        match self.search(|k| *k < key) {
            Some((r, j)) if self.slab[j] == key => {
                self.remove_at(r, j);
                true
            }
            _ => false,
        }
    }

    /// Entries `below` holds for (it must hold for a prefix): the boundary
    /// by [`search`](Self::search), then whole runs from the nearer end.
    pub fn count_while(&self, below: impl Fn(&T) -> bool) -> usize {
        let Some((r, p)) = self.search(below) else {
            return self.len;
        };
        let within = p - self.runs[r].span().start;
        if r <= self.runs.len() / 2 {
            self.runs.range(..r).map(Run::len).sum::<usize>() + within
        } else {
            self.len - self.runs.range(r..).map(Run::len).sum::<usize>() + within
        }
    }

    /// Take the first entry if `pred` holds for it.
    pub fn pop_front_if(&mut self, pred: impl FnOnce(&T) -> bool) -> Option<T> {
        let run = self.runs.front_mut()?;
        let key = self.slab[run.span().start];
        if !pred(&key) {
            return None;
        }
        self.len -= 1;
        run.lo += 1;
        if run.lo == run.hi {
            self.free.push(run.slot);
            self.runs.pop_front();
        }
        Some(key)
    }

    /// Drop every entry, keeping the slab.
    pub fn clear(&mut self) {
        self.free.extend(self.runs.drain(..).map(|run| run.slot));
        self.len = 0;
    }

    /// Place `v` after every entry. Returns the metadata of the run it
    /// joined, or `None` when it began a run (with the default metadata).
    pub(crate) fn push_back(&mut self, v: T) -> Option<&mut M> {
        self.len += 1;
        match self.runs.back_mut() {
            Some(run) if usize::from(run.hi) < RUN => {
                self.slab[run.span().end] = v;
                run.hi += 1;
                // Borrowed again: returning `run`'s borrow would hold
                // `self.runs` through the other arm too.
                self.runs.back_mut().map(|run| &mut run.meta)
            }
            // A run begun at the back starts at the front of its slot:
            // pushes fill it, and inserts into it split it when full.
            _ => {
                let slot = self.take_slot(v);
                self.slab[slot as usize * RUN] = v;
                self.runs.push_back(Run { slot, lo: 0, hi: 1, meta: M::default() });
                None
            }
        }
    }

    /// Insert `v` at slab index `p` of run `r` (`lo <= p <= hi`), splitting
    /// the run first when it is full.
    pub(crate) fn insert_at(&mut self, mut r: usize, mut p: usize, v: T) {
        if self.runs[r].len() == RUN {
            (r, p) = self.split(r, p, v);
        }
        self.len += 1;
        let run = &mut self.runs[r];
        let Range { start: lo, end: hi } = run.span();
        if run.lo > 0 && (p - lo < hi - p || usize::from(run.hi) == RUN) {
            self.slab.copy_within(lo..p, lo - 1);
            self.slab[p - 1] = v;
            run.lo -= 1;
        } else {
            self.slab.copy_within(p..hi, p + 1);
            self.slab[p] = v;
            run.hi += 1;
        }
    }

    /// Split full run `r` into two centred halves, both with its metadata;
    /// returns where slab index `p` of the old run now lies. `fill` is any
    /// value, for slab growth.
    fn split(&mut self, r: usize, p: usize, fill: T) -> (usize, usize) {
        let slot = self.take_slot(fill);
        let run = self.runs[r];
        let (half, quarter) = (RUN / 2, RUN / 4);
        let base = run.slot as usize * RUN;
        let new_base = slot as usize * RUN;
        self.slab.copy_within(base + half..base + RUN, new_base + quarter);
        self.slab.copy_within(base..base + half, base + quarter);
        let (lo, hi) = (quarter as u16, (quarter + half) as u16);
        self.runs[r] = Run { lo, hi, ..run };
        self.runs.insert(r + 1, Run { slot, lo, hi, meta: run.meta });
        let k = p - base;
        if k <= half {
            (r, base + quarter + k)
        } else {
            (r + 1, new_base + quarter + k - half)
        }
    }

    /// Remove slab entry `j` of run `r`, dropping the run if it empties.
    pub(crate) fn remove_at(&mut self, r: usize, j: usize) {
        self.len -= 1;
        let run = &mut self.runs[r];
        let Range { start: lo, end: hi } = run.span();
        if hi - lo == 1 {
            self.free.push(run.slot);
            self.runs.remove(r);
        } else if j - lo < hi - 1 - j {
            self.slab.copy_within(lo..j, lo + 1);
            run.lo += 1;
        } else {
            self.slab.copy_within(j + 1..hi, j);
            run.hi -= 1;
        }
    }

    /// A free slab slot, growing the slab (filled with `fill`), and with it
    /// the run list's and the free list's capacity, which never exceed one
    /// entry per slot, when there is none.
    fn take_slot(&mut self, fill: T) -> u32 {
        if let Some(slot) = self.free.pop() {
            return slot;
        }
        let slots = self.slab.len() / RUN + 1;
        self.slab.resize(slots * RUN, fill);
        self.runs.reserve(slots - self.runs.len());
        self.free.reserve(slots);
        (slots - 1) as u32
    }

    /// Structural audit: every slab slot is held by exactly one run or the
    /// free list; every run holds
    /// 1..=`RUN` entries within its slot; the entries ascend strictly across
    /// runs, and the count is exact.
    pub fn check(&self) -> Result<(), String> {
        let slots = self.slab.len() / RUN;
        let mut held = vec![false; slots];
        for slot in self.runs.iter().map(|run| run.slot).chain(self.free.iter().copied()) {
            let slot = slot as usize;
            if slot >= slots || std::mem::replace(&mut held[slot], true) {
                return Err(format!("slot {slot} is out of range or held twice"));
            }
        }
        if let Some(slot) = held.iter().position(|&h| !h) {
            return Err(format!("slot {slot} is neither in a run nor free"));
        }
        if let Some(r) = self.runs.iter().position(|run| run.lo >= run.hi || run.hi as usize > RUN)
        {
            return Err(format!("run {r} is empty or overruns its slot"));
        }
        if self.iter().zip(self.iter().skip(1)).any(|(a, b)| a >= b) {
            return Err("the entries do not ascend strictly".into());
        }
        match self.iter().count() {
            n if n == self.len => Ok(()),
            n => Err(format!("{n} entries counted as {}", self.len)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::SimRng;

    type Key = (u64, u64);

    /// Run and slab index of the `k`-th entry (`k < len`).
    fn locate(c: &Runs<Key>, mut k: usize) -> (usize, usize) {
        for (r, run) in c.runs.iter().enumerate() {
            if k < run.len() {
                return (r, run.span().start + k);
            }
            k -= run.len();
        }
        panic!("entry {k} past the end");
    }

    /// The container against a sorted `Vec`, call for call: set inserts
    /// and removals (of present and absent keys), positional inserts and
    /// removals, pushes at the back, front pops and clears. After every
    /// call the entries, both ends, the length and a count agree; every few
    /// calls the audit holds. Phases of growth and shrinkage make runs split
    /// and empty by the hundred.
    #[test]
    fn runs_match_a_sorted_vec() {
        let mut r = SimRng::seed_from_u64(0x2A45);
        let (mut splits, mut emptied) = (0, 0);
        let mut c = Runs::<Key>::default();
        let mut v: Vec<Key> = Vec::new();
        // Keys cluster just behind a rising clock, as completion times do,
        // so most land inside the last runs and full runs split.
        let mut clock = 0;
        let key =
            |r: &mut SimRng, clock: u64| (clock + r.gen_range(0..400u64), r.gen_range(0..100));
        for call in 0..48_000usize {
            clock += r.gen_range(0..3u64);
            let (runs, free) = (c.run_count(), c.free_slots());
            // Inserts are 70 % of the calls for 4,000 calls, then 25 %.
            let inserts = if call / 4_000 % 2 == 0 { 700 } else { 250 };
            let mut inner = false;
            let op = r.gen_range(0..1_000u32);
            if op == 0 && r.gen_range(0..20u32) == 0 {
                c.clear();
                v.clear();
                continue;
            } else if op < inserts {
                let k = key(&mut r, clock);
                let i = v.partition_point(|&x| x < k);
                if v.get(i) != Some(&k) {
                    inner = i < v.len();
                    match (inner, op % 3) {
                        (false, 0) => {
                            c.push_back(k);
                        }
                        (false, _) | (true, 1) => c.insert(k),
                        _ => {
                            // At a run boundary, the end of the previous run
                            // is a valid place too.
                            let (run, p) = locate(&c, i);
                            if p == c.runs[run].span().start && run > 0 && op % 2 == 0 {
                                c.insert_at(run - 1, c.runs[run - 1].span().end, k);
                            } else {
                                c.insert_at(run, p, k);
                            }
                        }
                    }
                    v.insert(i, k);
                }
            } else {
                match op % 4 {
                    0 => {
                        let t = v.first().map_or(0, |f| f.0) + r.gen_range(0..20u64);
                        let want = v.first().filter(|f| f.0 <= t).copied();
                        assert_eq!(c.pop_front_if(|k| k.0 <= t), want);
                        if want.is_some() {
                            v.remove(0);
                        }
                    }
                    1 => {
                        let k = key(&mut r, clock);
                        let i = v.partition_point(|&x| x < k);
                        let present = v.get(i) == Some(&k);
                        assert_eq!(c.remove(k), present);
                        if present {
                            v.remove(i);
                        }
                    }
                    _ if v.is_empty() => {}
                    2 => {
                        let i = r.gen_range(0..v.len());
                        let (run, j) = locate(&c, i);
                        c.remove_at(run, j);
                        v.remove(i);
                    }
                    _ => {
                        let i = r.gen_range(0..v.len());
                        assert!(c.remove(v[i]), "present key not removed");
                        v.remove(i);
                    }
                }
            }
            splits += usize::from(inner && c.run_count() > runs);
            emptied += usize::from(c.free_slots() > free);
            assert!(c.iter().eq(v.iter()), "entries differ after call {call}");
            assert_eq!((c.first(), c.last()), (v.first().copied(), v.last().copied()));
            assert_eq!(c.len(), v.len());
            let t = clock + r.gen_range(0..400u64);
            assert_eq!(c.count_while(|k| k.0 < t), v.partition_point(|k| k.0 < t));
            if call % 16 == 0 {
                c.check().unwrap();
                let slots = c.slab.len() / RUN;
                assert!(c.runs.capacity() >= slots && c.free.capacity() >= slots);
            }
        }
        c.check().unwrap();
        assert!(splits > 100 && emptied > 100, "{splits} splits, {emptied} emptied runs");
    }

    /// The audit finds each kind of damage: entries out of order, a run
    /// overrunning its slot or empty, a slot held twice or lost, and a
    /// wrong count.
    #[test]
    fn check_finds_each_corruption() {
        let mut c = Runs::<Key>::default();
        for k in 0..300 {
            c.insert((k * 7 % 300, 0));
        }
        // Empty the first run, so a slot is free.
        let runs = c.run_count();
        while c.run_count() == runs {
            c.pop_front_if(|_| true);
        }
        assert!(c.run_count() > 1 && c.free_slots() == 1);
        c.check().unwrap();
        let damage: [fn(&mut Runs<Key>); 6] = [
            |c| c.slab.swap(c.runs[1].span().start, c.runs[1].span().start + 1),
            |c| c.runs[0].hi = RUN as u16 + 1,
            |c| c.runs[0].lo = c.runs[0].hi,
            |c| c.runs[1].slot = c.runs[0].slot,
            |c| c.free.clear(),
            |c| c.len += 1,
        ];
        for (i, damage) in damage.iter().enumerate() {
            let mut bad = c.clone();
            damage(&mut bad);
            assert!(bad.check().is_err(), "damage {i} passed the audit");
        }
    }
}
