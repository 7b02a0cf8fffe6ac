//! Resource timelines: the building block of the device models.
//!
//! A [`Timeline`] models a single server (a disk arm, a NAND plane, a SATA
//! link). Because the closed-loop driver interleaves many clients, requests
//! reach a resource *out of order in virtual time* (client A may schedule
//! work at `t+2ms` before client B asks for the same resource at `t+1µs`).
//! A naive `busy_until` cursor would make B queue behind A's future work —
//! a phantom queue that throttles the whole simulation. The timeline is
//! therefore **work-conserving**: it keeps the set of busy intervals and
//! backfills a request into the earliest gap that fits at or after its
//! arrival.
//!
//! The intervals are kept in sorted runs ([`crate::runs`]): an insert
//! shifts within one run, and a gap scan walks only the runs whose gap
//! bound admits the request, even on a GC-heavy plane that holds tens of
//! thousands of intervals.
//!
//! A [`MultiServer`] models a pool of `k` identical servers where a request
//! takes the earliest-fitting server.

use crate::clock::Nanos;
use crate::runs::{Runs, RUN};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How far behind the newest arrival intervals are retained. This is not a
/// safe bound: where GC runs ahead on its own clock (`fio_gc`), arrivals fall
/// up to 10.21 s behind a plane's newest arrival, and a late arrival can be
/// placed over work the horizon has already dropped (the ignored test
/// `horizon_drops_work_a_late_arrival_overlaps`). Every scheduled time
/// depends on this value, so it stays until that is fixed on purpose.
const PURGE_HORIZON: Nanos = 10_000_000_000;

/// A single-server resource with gap backfill.
///
/// The busy intervals are sorted, disjoint and never touching (a request
/// that touches a neighbour merges into it), so the list is fixed by the
/// busy time alone, however it is split into runs. Each run's metadata is
/// `max_gap`, an upper bound on every gap between consecutive intervals of
/// the run. Inserts and merges only fill gaps and purges only drop them, so
/// the bound stays valid with no upkeep; only an interval added at either
/// end of the run opens an inner gap and raises it. A scan of the whole run
/// tightens it.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// The busy intervals `(start, end)`; each run's metadata is its
    /// `max_gap`.
    iv: Runs<(Nanos, Nanos), Nanos>,
    /// End of the first interval, `Nanos::MAX` when there is none.
    first_end: Nanos,
    /// End of the last interval, 0 when there is none.
    last_end: Nanos,
    /// Total busy time accumulated, for utilisation reporting.
    busy_time: Nanos,
    /// Latest arrival observed (purge watermark).
    max_arrival: Nanos,
}

impl Default for Timeline {
    fn default() -> Self {
        Self::new()
    }
}

impl Timeline {
    /// Create an idle timeline.
    pub fn new() -> Self {
        Self {
            iv: Runs::default(),
            first_end: Nanos::MAX,
            last_end: 0,
            busy_time: 0,
            max_arrival: 0,
        }
    }

    /// Reserve the server for `service` time for a request arriving at
    /// `now`: the earliest gap that fits, never before `now`. Returns the
    /// completion time.
    pub fn acquire(&mut self, now: Nanos, service: Nanos) -> Nanos {
        self.max_arrival = self.max_arrival.max(now);
        // Drop intervals that end before the horizon.
        if let Some(t) = self.max_arrival.checked_sub(PURGE_HORIZON + 1) {
            self.purge_before(t);
        }
        self.busy_time += service;
        if service == 0 {
            return now;
        }
        let end = if now >= self.last_end {
            self.append(now, now + service)
        } else {
            self.backfill(now, service)
        };
        self.refresh_ends();
        end
    }

    /// Place `[start, end)` after every interval; `start >= busy_until`.
    fn append(&mut self, start: Nanos, end: Nanos) -> Nanos {
        match self.iv.runs.back() {
            Some(run) if start == self.last_end => self.iv.slab[run.span().end - 1].1 = end,
            _ => {
                if let Some(max_gap) = self.iv.push_back((start, end)) {
                    *max_gap = (*max_gap).max(start - self.last_end);
                }
            }
        }
        end
    }

    /// Find the earliest gap of length `service` at or after `now`, which
    /// lies before the last interval's end, and place the request there.
    fn backfill(&mut self, now: Nanos, service: Nanos) -> Nanos {
        // Intervals ending at or before `now` cannot influence the
        // placement: start at the first one past it.
        let (mut r, mut i) =
            self.iv.search(|&(_, e)| e <= now).expect("an interval ends after `now`");
        let slab = &self.iv.slab;
        let mut start = now;
        loop {
            let run = self.iv.runs[r];
            let span = run.span();
            let whole = i == span.start;
            // The gap before interval `i`: from `now` or from the previous
            // run's last end.
            let (s, e) = slab[i];
            if s >= start + service {
                return self.place(r, i, start, start + service);
            }
            start = e;
            if run.meta < service {
                // No inner gap fits: skip the rest of the run.
                start = slab[span.end - 1].1;
            } else {
                let mut widest = 0;
                for (j, &(s, e)) in (i + 1..).zip(&slab[i + 1..span.end]) {
                    if s >= start + service {
                        return self.place(r, j, start, start + service);
                    }
                    widest = widest.max(s - start);
                    start = e;
                }
                if whole {
                    self.iv.runs[r].meta = widest;
                }
            }
            r += 1;
            match self.iv.runs.get(r) {
                Some(next) => i = next.span().start,
                // Past the last interval: `start` is its end, so it grows.
                None => return self.append(start, start + service),
            }
        }
    }

    /// Record `[start, end)` in the gap before slab entry `j` of run `r`,
    /// merging with whichever neighbour it touches.
    fn place(&mut self, r: usize, j: usize, start: Nanos, end: Nanos) -> Nanos {
        let iv = &mut self.iv;
        let first = iv.runs[r].span().start;
        let prev = if j > first {
            Some(j - 1)
        } else {
            r.checked_sub(1).map(|p| iv.runs[p].span().end - 1)
        };
        let prev = prev.filter(|&p| iv.slab[p].1 == start);
        let joins_next = iv.slab[j].0 == end;
        match prev {
            Some(p) if joins_next => {
                iv.slab[p].1 = iv.slab[j].1;
                iv.remove_at(r, j);
            }
            Some(p) => iv.slab[p].1 = end,
            None if joins_next => iv.slab[j].0 = start,
            // Inside the run: no new inner gap.
            None if j > first => iv.insert_at(r, j, (start, end)),
            // Between two runs: onto the end of the previous one if it has
            // room there, else onto the front of this one.
            None => match r.checked_sub(1) {
                Some(p) if usize::from(iv.runs[p].hi) < RUN => {
                    let run = &mut iv.runs[p];
                    let span = run.span();
                    run.meta = run.meta.max(start - iv.slab[span.end - 1].1);
                    iv.insert_at(p, span.end, (start, end));
                }
                _ => {
                    let run = &mut iv.runs[r];
                    run.meta = run.meta.max(iv.slab[j].0 - end);
                    iv.insert_at(r, j, (start, end));
                }
            },
        }
        end
    }

    fn refresh_ends(&mut self) {
        self.first_end = self.iv.first().map_or(Nanos::MAX, |(_, e)| e);
        self.last_end = self.iv.last().map_or(0, |(_, e)| e);
    }

    /// The time at which all currently queued work is done.
    pub fn busy_until(&self) -> Nanos {
        self.last_end
    }

    /// Total service time this resource has performed.
    pub fn busy_time(&self) -> Nanos {
        self.busy_time
    }

    /// Nanoseconds of already-accepted work still pending at virtual time
    /// `t` — the queue backlog a command arriving now would wait behind
    /// (plus its own service). Zero when the resource is idle at `t`.
    pub fn backlog_at(&self, t: Nanos) -> Nanos {
        self.busy_until().saturating_sub(t)
    }

    /// Number of disjoint busy intervals still open at or after `t` — a
    /// lower bound on the commands outstanding (contiguous commands
    /// coalesce into one interval), used as a cheap occupancy gauge.
    pub fn intervals_after(&self, t: Nanos) -> usize {
        self.iv.len() - self.iv.count_while(|&(_, e)| e <= t)
    }

    /// Drop intervals that end at or before `t`: no future request will
    /// arrive earlier (the caller's arrival watermark). Keeps the interval
    /// list proportional to in-flight work.
    pub fn purge_before(&mut self, t: Nanos) {
        if self.first_end > t {
            return;
        }
        while self.iv.pop_front_if(|&(_, e)| e <= t).is_some() {}
        self.refresh_ends();
    }

    /// Forget any queued work (used when a power cut wipes device state).
    pub fn reset(&mut self) {
        self.iv.clear();
        self.first_end = Nanos::MAX;
        self.last_end = 0;
        self.busy_time = 0;
        self.max_arrival = 0;
    }

    /// Structural audit of the interval runs ([`Runs::check`]), for
    /// simulation-test harnesses.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.iv.check()
    }
}

/// A pool of `k` identical servers; each request is dispatched to the
/// server that can complete it earliest (approximated by earliest-free).
#[derive(Debug, Clone)]
pub struct MultiServer {
    free_at: BinaryHeap<Reverse<Nanos>>,
    servers: usize,
    busy_time: Nanos,
}

impl MultiServer {
    /// Create a pool with `servers` identical servers, all idle.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "a server pool needs at least one server");
        let mut free_at = BinaryHeap::with_capacity(servers);
        for _ in 0..servers {
            free_at.push(Reverse(0));
        }
        Self { free_at, servers, busy_time: 0 }
    }

    /// Number of servers in the pool.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Dispatch a request arriving at `now` with the given `service` time to
    /// the earliest-free server; returns the completion time.
    pub fn acquire(&mut self, now: Nanos, service: Nanos) -> Nanos {
        let Reverse(free) = self.free_at.pop().expect("pool is never empty");
        let start = free.max(now);
        let done = start + service;
        self.free_at.push(Reverse(done));
        self.busy_time += service;
        done
    }

    /// Total service time performed across the pool.
    pub fn busy_time(&self) -> Nanos {
        self.busy_time
    }

    /// Drop all queued work and return every server to idle.
    pub fn reset(&mut self) {
        self.free_at.clear();
        for _ in 0..self.servers {
            self.free_at.push(Reverse(0));
        }
        self.busy_time = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_serialises_requests() {
        let mut t = Timeline::new();
        assert_eq!(t.acquire(0, 10), 10);
        // Arrives while busy: queued behind.
        assert_eq!(t.acquire(5, 10), 20);
        // Arrives after idle period: starts immediately.
        assert_eq!(t.acquire(100, 10), 110);
        assert_eq!(t.busy_time(), 30);
    }

    #[test]
    fn timeline_backfills_gaps() {
        let mut t = Timeline::new();
        assert_eq!(t.acquire(0, 10), 10);
        // Future-scheduled work leaves a gap...
        assert_eq!(t.acquire(50, 10), 60);
        // ...that a later-arriving but virtually-earlier request fills.
        assert_eq!(t.acquire(20, 10), 30);
        // A request that does not fit in the remaining gaps queues at the end.
        assert_eq!(t.acquire(25, 30), 90);
        // A small one still fits in the first open gap (10..15).
        assert_eq!(t.acquire(0, 5), 15);
        assert_eq!(t.busy_until(), 90);
    }

    #[test]
    fn timeline_zero_service_is_free() {
        let mut t = Timeline::new();
        t.acquire(0, 100);
        assert_eq!(t.acquire(50, 0), 50);
    }

    #[test]
    fn timeline_merges_adjacent_intervals() {
        let mut t = Timeline::new();
        t.acquire(0, 10);
        t.acquire(10, 10);
        t.acquire(20, 10);
        // All merged: a request at 5 queues to the very end.
        assert_eq!(t.acquire(5, 5), 35);
    }

    #[test]
    fn timeline_backlog_and_occupancy() {
        let mut t = Timeline::new();
        assert_eq!(t.backlog_at(0), 0);
        assert_eq!(t.intervals_after(0), 0);
        t.acquire(0, 10); // [0,10)
        t.acquire(0, 10); // queued: [10,20)
        t.acquire(50, 5); // disjoint future work: [50,55)
        assert_eq!(t.backlog_at(0), 55, "all accepted work pending at t=0");
        assert_eq!(t.backlog_at(20), 35, "gap counts toward completion time");
        assert_eq!(t.backlog_at(55), 0);
        assert_eq!(t.backlog_at(1_000), 0);
        // Two disjoint intervals at t=0 (the first two coalesced).
        assert_eq!(t.intervals_after(0), 2);
        assert_eq!(t.intervals_after(20), 1);
        assert_eq!(t.intervals_after(55), 0);
        // Wait derivation: start = end - service >= arrival, so the caller
        // can split any acquire into (queue wait, service) exactly.
        let arrival = 3;
        let service = 7;
        let end = t.acquire(arrival, service);
        assert!(end - service >= arrival);
        let wait = end - service - arrival;
        assert_eq!(wait + service, end - arrival, "wait/service decomposition is exact");
    }

    #[test]
    fn timeline_reset() {
        let mut t = Timeline::new();
        t.acquire(0, 50);
        t.reset();
        assert_eq!(t.busy_until(), 0);
        assert_eq!(t.acquire(0, 10), 10);
    }

    #[test]
    fn timeline_no_phantom_queue_ratchet() {
        // The regression that motivated gap backfill: a stream of requests
        // each scheduled slightly in the future must not ratchet the queue.
        let mut t = Timeline::new();
        let mut total_wait = 0i64;
        for i in 0..1000u64 {
            let now = i * 100; // arrivals every 100ns
            let future = now + 2_000; // work scheduled 2us ahead
            let done = t.acquire(future, 10);
            total_wait += (done - future - 10) as i64;
        }
        // Utilisation is 10%: waits should be almost zero.
        assert!(total_wait < 1000, "phantom queueing detected: {total_wait}");
    }

    /// Known gap: the horizon drops work by the newest arrival alone, so an
    /// arrival more than `PURGE_HORIZON` behind it is booked over work the
    /// server still has to do. `fio_gc` does this to 72.6 % of its measured
    /// placements (ROADMAP).
    #[test]
    #[ignore = "the purge horizon drops work that late arrivals still overlap"]
    fn horizon_drops_work_a_late_arrival_overlaps() {
        let mut t = Timeline::new();
        assert_eq!(t.acquire(0, 1_000), 1_000);
        t.acquire(PURGE_HORIZON + 2_000, 10);
        assert_eq!(t.acquire(0, 10), 1_010, "queued behind [0, 1000)");
    }

    #[test]
    fn multiserver_parallelism() {
        let mut m = MultiServer::new(2);
        assert_eq!(m.acquire(0, 10), 10);
        assert_eq!(m.acquire(0, 10), 10); // second server
        assert_eq!(m.acquire(0, 10), 20); // queues behind the earliest
    }

    #[test]
    fn multiserver_prefers_earliest_free() {
        let mut m = MultiServer::new(2);
        m.acquire(0, 100); // server A busy till 100
        m.acquire(0, 10); // server B busy till 10
                          // Arriving at 50: should take server B (free at 10), not A.
        assert_eq!(m.acquire(50, 5), 55);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        MultiServer::new(0);
    }

    /// The timeline as one flat sorted deque of intervals, before runs: the
    /// oracle every placement of [`Timeline`] is compared with.
    mod reference {
        use super::super::PURGE_HORIZON;
        use crate::clock::Nanos;
        use std::collections::VecDeque;

        #[derive(Default)]
        pub struct Timeline {
            /// Sorted, disjoint busy intervals `(start, end)`.
            intervals: VecDeque<(Nanos, Nanos)>,
            /// Latest arrival observed (purge watermark).
            max_arrival: Nanos,
        }

        impl Timeline {
            pub fn acquire(&mut self, now: Nanos, service: Nanos) -> Nanos {
                self.max_arrival = self.max_arrival.max(now);
                // Drop ancient intervals.
                let horizon = self.max_arrival.saturating_sub(PURGE_HORIZON);
                while let Some(&(_, e)) = self.intervals.front() {
                    if e < horizon {
                        self.intervals.pop_front();
                    } else {
                        break;
                    }
                }
                if service == 0 {
                    return now;
                }
                // Find the earliest gap of length `service` at or after
                // `now`, skipping the intervals that end at or before it.
                let mut start = now;
                let skip = self.intervals.partition_point(|&(_, e)| e <= start);
                let mut pos = self.intervals.len();
                for i in skip..self.intervals.len() {
                    let (s, e) = self.intervals[i];
                    if s >= start + service {
                        pos = i;
                        break;
                    }
                    start = e;
                }
                let end = start + service;
                // Insert (start, end) at `pos`, merging with neighbours
                // that touch.
                if pos < self.intervals.len() {
                    self.intervals.insert(pos, (start, end));
                } else {
                    self.intervals.push_back((start, end));
                }
                self.coalesce_around(pos);
                end
            }

            fn coalesce_around(&mut self, pos: usize) {
                let mut i = pos;
                if i > 0 && self.intervals[i - 1].1 >= self.intervals[i].0 {
                    let (s0, e0) = self.intervals[i - 1];
                    let (_, e1) = self.intervals[i];
                    self.intervals[i - 1] = (s0, e0.max(e1));
                    self.intervals.remove(i);
                    i -= 1;
                }
                if i + 1 < self.intervals.len() && self.intervals[i].1 >= self.intervals[i + 1].0 {
                    let (s0, e0) = self.intervals[i];
                    let (_, e1) = self.intervals[i + 1];
                    self.intervals[i] = (s0, e0.max(e1));
                    self.intervals.remove(i + 1);
                }
            }

            pub fn busy_until(&self) -> Nanos {
                self.intervals.back().map(|&(_, e)| e).unwrap_or(0)
            }

            pub fn intervals_after(&self, t: Nanos) -> usize {
                let cut = self.intervals.partition_point(|&(_, e)| e <= t);
                self.intervals.len() - cut
            }

            pub fn purge_before(&mut self, t: Nanos) {
                while let Some(&(_, e)) = self.intervals.front() {
                    if e <= t {
                        self.intervals.pop_front();
                    } else {
                        break;
                    }
                }
            }

            pub fn reset(&mut self) {
                self.intervals.clear();
                self.max_arrival = 0;
            }
        }
    }

    mod proptests {
        use super::*;
        use crate::rng::Rng;
        use crate::SimRng;

        /// Core invariants of the work-conserving timeline: every
        /// reservation starts at or after its arrival, reservations never
        /// overlap, and total busy time is conserved.
        #[test]
        fn reservations_never_overlap() {
            let mut r = SimRng::seed_from_u64(0x71ED);
            for _ in 0..256 {
                let reqs: Vec<(u64, u64)> = (0..r.gen_range(1..200usize))
                    .map(|_| (r.gen_range(0u64..100_000), r.gen_range(1u64..5_000)))
                    .collect();
                let mut t = Timeline::new();
                let mut granted: Vec<(u64, u64)> = Vec::new();
                let mut total = 0u64;
                for (now, service) in reqs {
                    let end = t.acquire(now, service);
                    let start = end - service;
                    assert!(start >= now, "start {start} before arrival {now}");
                    granted.push((start, end));
                    total += service;
                }
                granted.sort_unstable();
                for w in granted.windows(2) {
                    assert!(w[0].1 <= w[1].0, "overlap: {:?} vs {:?}", w[0], w[1]);
                }
                assert_eq!(t.busy_time(), total);
            }
        }

        /// Purging behind a watermark never affects reservations at or
        /// after it.
        #[test]
        fn purge_preserves_future_consistency() {
            let mut r = SimRng::seed_from_u64(0x9C6E);
            for _ in 0..256 {
                let reqs: Vec<(u64, u64)> = (0..r.gen_range(1..100usize))
                    .map(|_| (r.gen_range(0u64..50_000), r.gen_range(1u64..2_000)))
                    .collect();
                let watermark = r.gen_range(0u64..50_000);
                let mut a = Timeline::new();
                let mut b = Timeline::new();
                // Same stream into both; purge one mid-way.
                let half = reqs.len() / 2;
                for (now, s) in &reqs[..half] {
                    a.acquire(*now, *s);
                    b.acquire(*now, *s);
                }
                a.purge_before(
                    watermark.min(reqs[..half].iter().map(|(n, _)| *n).min().unwrap_or(0)),
                );
                for (now, s) in &reqs[half..] {
                    // Arrivals at/after every prior arrival's minimum are
                    // unaffected by a purge below that minimum.
                    let ea = a.acquire(*now, *s);
                    let eb = b.acquire(*now, *s);
                    assert_eq!(ea, eb);
                }
            }
        }

        /// The container's audit, then what is the timeline's own: the
        /// intervals never touch (across runs too), each `max_gap` bounds
        /// its run's inner gaps, and the cached ends are exact.
        fn check_runs(t: &Timeline) {
            t.check_invariants().unwrap();
            let mut last: Option<(Nanos, Nanos)> = None;
            for run in &t.iv.runs {
                let ivs = &t.iv.slab[run.span()];
                for w in ivs.windows(2) {
                    assert!(w[1].0 - w[0].1 <= run.meta, "gap above the bound");
                }
                for &(s, e) in ivs {
                    assert!(s < e);
                    assert!(last.is_none_or(|(_, le)| le < s), "{last:?} touches ({s}, {e})");
                    last = Some((s, e));
                }
            }
            assert_eq!(t.first_end, t.iv.first().map_or(Nanos::MAX, |(_, e)| e));
            assert_eq!(t.last_end, last.map_or(0, |(_, e)| e));
        }

        /// The runs against the flat deque they replaced, call for call:
        /// every completion time, and `busy_until`, `backlog_at` and
        /// `intervals_after` after every call. The streams fall behind by
        /// more than the purge horizon, purge at a rising watermark, reset,
        /// ask for zero-length and 1 µs..1 ms services, and hold enough
        /// intervals that runs split, empty and are skipped whole.
        #[test]
        fn runs_place_exactly_as_the_flat_deque() {
            let mut r = SimRng::seed_from_u64(0x5AB);
            let (mut splits, mut emptied, mut skippable) = (0, 0, 0);
            for case in 0..64 {
                let mut new = Timeline::new();
                let mut old = reference::Timeline::default();
                // `clock` is the newest regular arrival, moving by up to
                // `step`; arrivals fall up to `lag` behind it. The last
                // shape spans tens of seconds and lags past the horizon.
                let (step, lag): (Nanos, Nanos) = [
                    (120_000, 20_000),
                    (120_000, 2_000_000),
                    (120_000, 50_000_000),
                    (12_000_000, 15 * PURGE_HORIZON / 10),
                ][case % 4];
                let (mut clock, mut watermark): (Nanos, Nanos) = (0, 0);
                for call in 0..r.gen_range(1..12_000usize) {
                    let (runs, free) = (new.iv.run_count(), new.iv.free_slots());
                    match r.gen_range(0..1_000u32) {
                        0 => {
                            new.reset();
                            old.reset();
                            (clock, watermark) = (0, 0);
                            continue;
                        }
                        1..=40 => {
                            watermark = watermark.max(clock.saturating_sub(2 * lag));
                            new.purge_before(watermark);
                            old.purge_before(watermark);
                        }
                        n => {
                            // Services over three orders of magnitude.
                            let service = match n % 20 {
                                0 => 0,
                                1 => r.gen_range(100_000..=1_000_000),
                                2..=5 => r.gen_range(10_000..=100_000),
                                _ => r.gen_range(1_000..=10_000),
                            };
                            clock += r.gen_range(0..step);
                            let now = if n % 50 == 0 {
                                // Ahead, as GC's own clock runs.
                                clock + r.gen_range(0..=lag / 4)
                            } else {
                                clock.saturating_sub(r.gen_range(0..=lag))
                            };
                            let behind = now < new.busy_until();
                            skippable += usize::from(
                                behind && new.iv.runs.iter().any(|run| run.meta < service),
                            );
                            assert_eq!(new.acquire(now, service), old.acquire(now, service));
                            // Only a backfill splits a run.
                            splits += usize::from(behind && new.iv.run_count() > runs);
                        }
                    }
                    emptied += usize::from(new.iv.free_slots() > free);
                    if call % 8 == 0 {
                        check_runs(&new);
                    }
                    assert_eq!(new.busy_until(), old.busy_until());
                    let probes = [watermark, clock.saturating_sub(lag / 2), clock, clock + lag];
                    for probe in probes {
                        assert_eq!(new.backlog_at(probe), old.busy_until().saturating_sub(probe));
                        assert_eq!(new.intervals_after(probe), old.intervals_after(probe));
                    }
                }
            }
            assert!(
                splits > 100 && emptied > 100 && skippable > 1_000,
                "{splits} {emptied} {skippable}"
            );
        }
    }
}
