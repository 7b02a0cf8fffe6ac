//! Magnetic disk drive model (the paper's Seagate Cheetah 15K.6 baseline).
//!
//! The experiments need exactly three things from the disk:
//!
//! 1. **Mechanical latency** — seek (distance-dependent) + rotational delay +
//!    transfer; this is why the disk's Table 1/2 numbers are two to three
//!    orders of magnitude below the SSDs'.
//! 2. **A small volatile write-back cache** (16MB on the Cheetah) whose
//!    benefit is limited: destaging is still mechanical, only elevator
//!    ordering of the queued write-backs shortens seeks (the paper notes the
//!    disk improves no more than ~7x, vs 13–68x for the SSDs).
//! 3. **Volatility**: a power cut discards cached writes that were already
//!    acknowledged — the reason write caches must be flushed on fsync.
//!
//! `fsync`/FLUSH CACHE on a real file system also commits file metadata
//! through the journal, which costs an additional mechanical operation even
//! when the cache is write-through; the model charges that inside `flush`
//! (paper Fig. 2 shows fsync carrying file metadata with it).

use forensics::{CacheSlotSnap, DevicePostmortem, Forensic, RecoverySnap};
use simkit::{Nanos, Timeline};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use storage::device::{
    check_io, BlockDevice, DevError, DevResult, DeviceStats, WriteCause, LOGICAL_PAGE,
};
use telemetry::{Key, SegKind, Telemetry};

/// Tunable disk parameters. Defaults approximate a 15krpm enterprise drive.
#[derive(Debug, Clone, Copy)]
pub struct HddConfig {
    /// Capacity in 4KB logical pages.
    pub capacity_pages: u64,
    /// Write cache capacity in logical pages (16MB => 4096).
    pub cache_pages: usize,
    /// Whether the write-back cache is enabled ("Storage Cache ON/OFF").
    pub cache_enabled: bool,
    /// Minimum (track-to-track) seek in ns.
    pub min_seek: Nanos,
    /// Full-stroke seek span in ns; seek = min + span * sqrt(distance/capacity).
    pub seek_span: Nanos,
    /// Full platter rotation in ns (15krpm = 4ms).
    pub rotation: Nanos,
    /// Sustained media transfer in bytes per microsecond.
    pub transfer_bytes_per_us: u64,
    /// Fixed command overhead (controller + SATA) per host command.
    pub command_overhead: Nanos,
    /// Number of cached writes destaged in one elevator batch.
    pub destage_batch: usize,
    /// Seek charged per destage hop when the batch is elevator-sorted.
    pub destage_seek: Nanos,
    /// Extra journal-commit cost charged by a FLUSH (file metadata write).
    pub flush_journal_cost: Nanos,
}

impl Default for HddConfig {
    fn default() -> Self {
        Self {
            capacity_pages: 146 * 1024 * 1024 / 4, // 146GB in 4KB pages
            cache_pages: 4096,                     // 16MB
            cache_enabled: true,
            min_seek: 1_000_000,        // 1ms
            seek_span: 6_000_000,       // up to 7ms full stroke
            rotation: 4_000_000,        // 15krpm
            transfer_bytes_per_us: 150, // 150MB/s
            command_overhead: 100_000,  // 0.1ms
            destage_batch: 32,
            destage_seek: 2_000_000,       // short elevator hops
            flush_journal_cost: 8_000_000, // journal commit: ~2 mechanical ops
        }
    }
}

/// The attached telemetry handle and the disk's keys, resolved when it is
/// attached.
struct HddTel {
    tel: Telemetry,
    cat: Key,
    destage: Key,
    cache_dirty: Key,
    flush_cache: Key,
    power_cut: Key,
    postmortem_recovery: Key,
}

/// The disk model.
pub struct Hdd {
    cfg: HddConfig,
    /// Platter contents (sparse).
    platter: BTreeMap<u64, Box<[u8]>>,
    /// Volatile write cache: lpn -> data (sorted; the elevator destage
    /// iterates it in LBA order).
    cache: BTreeMap<u64, Box<[u8]>>,
    arm: Timeline,
    head_pos: u64,
    stats: DeviceStats,
    powered: bool,
    /// Writes acknowledged but lost by a power cut (for crash experiments).
    lost_acked_pages: u64,
    /// Completion times of scheduled destages whose cache slots are still
    /// occupied (a slot frees only when its destage completes).
    draining: BinaryHeap<Reverse<Nanos>>,
    /// Completion times of recent commands, for queue-depth estimation
    /// (deep queues let the drive's scheduler shorten seeks — NCQ/TCQ).
    inflight: Vec<Nanos>,
    /// FLUSH CACHE barrier: commands arriving mid-flush wait for it.
    barrier_until: Nanos,
    /// Provenance of subsequent host writes (see
    /// [`BlockDevice::set_write_cause`]).
    cur_cause: WriteCause,
    /// Optional telemetry sink (destage-batch durations, dirty gauge).
    tel: Option<HddTel>,
    /// Postmortem captured by the most recent `power_cut`.
    postmortem: Option<DevicePostmortem>,
    /// Snapshot captured by the most recent `reboot`.
    recovery: Option<RecoverySnap>,
}

impl Hdd {
    /// A disk with the given configuration.
    pub fn new(cfg: HddConfig) -> Self {
        Self {
            cfg,
            platter: BTreeMap::new(),
            cache: BTreeMap::new(),
            arm: Timeline::new(),
            head_pos: 0,
            stats: DeviceStats::default(),
            powered: true,
            lost_acked_pages: 0,
            draining: BinaryHeap::new(),
            inflight: Vec::new(),
            barrier_until: 0,
            cur_cause: WriteCause::default(),
            tel: None,
            postmortem: None,
            recovery: None,
        }
    }

    /// Attach a telemetry sink: records destage-batch mechanical time
    /// (`hdd.destage`) and a dirty-page gauge (`hdd.cache_dirty`).
    pub fn attach_telemetry(&mut self, tel: Telemetry) {
        self.tel = Some(HddTel {
            cat: tel.key("hdd"),
            destage: tel.key("hdd.destage"),
            cache_dirty: tel.key("hdd.cache_dirty"),
            flush_cache: tel.key("flush_cache"),
            power_cut: tel.key("power_cut"),
            postmortem_recovery: tel.key("postmortem_recovery"),
            tel,
        });
    }

    /// Estimated outstanding commands at `now` (for scheduler benefit).
    /// Also advances the arm's purge watermark.
    fn queue_depth(&mut self, now: Nanos) -> usize {
        self.inflight.retain(|&d| d > now);
        // Arrivals can regress slightly across interleaved clients: purge
        // with a margin.
        self.arm.purge_before(now.saturating_sub(1_000_000_000));
        self.inflight.len()
    }

    /// The active configuration.
    pub fn config(&self) -> &HddConfig {
        &self.cfg
    }

    /// Pages acknowledged to the host but destroyed by a power cut.
    pub fn lost_acked_pages(&self) -> u64 {
        self.lost_acked_pages
    }

    /// Mechanical service time for an access at `lpn` of `pages` pages,
    /// updating the head position.
    fn arm_service(&mut self, lpn: u64, pages: u32) -> Nanos {
        self.arm_service_depth(lpn, pages, 0)
    }

    /// Mechanical service time; with a deep command queue the drive's
    /// scheduler (NCQ) reorders requests, shortening the average seek.
    fn arm_service_depth(&mut self, lpn: u64, pages: u32, depth: usize) -> Nanos {
        let dist = lpn.abs_diff(self.head_pos);
        self.head_pos = lpn + pages as u64;
        let seek = if dist == 0 {
            // Same cylinder: settle only.
            self.cfg.min_seek / 4
        } else {
            let frac = dist as f64 / self.cfg.capacity_pages as f64;
            let full = self.cfg.min_seek + (self.cfg.seek_span as f64 * frac.sqrt()) as Nanos;
            if depth >= 8 {
                // Scheduler picks near requests: roughly 1/3 the seek and
                // less rotational loss.
                full / 3
            } else {
                full
            }
        };
        let rot = if dist == 0 {
            self.cfg.rotation / 8
        } else if depth >= 8 {
            self.cfg.rotation / 4
        } else {
            self.cfg.rotation / 2
        };
        let xfer = (pages as u64 * LOGICAL_PAGE as u64 * 1_000) / self.cfg.transfer_bytes_per_us;
        seek + rot + xfer
    }

    /// Destage one elevator batch from the cache to the platter (arm time).
    /// Elevator ordering only pays off with a deep queue; a near-empty
    /// cache destages at full mechanical cost.
    fn destage_batch(&mut self, now: Nanos) -> Nanos {
        let pending = self.cache.len();
        let n = self.cfg.destage_batch.min(pending);
        let elevator = pending >= 8;
        let mut done = now;
        let mut destaged = 0usize;
        while destaged < n && !self.cache.is_empty() {
            // Take a contiguous LBA run in one mechanical operation (a 16KB
            // host write destages as one op, not four).
            let (&lpn, _) = self.cache.iter().next().expect("non-empty");
            let mut run: Vec<(u64, Box<[u8]>)> = Vec::new();
            let mut next = lpn;
            while let Some(data) = self.cache.remove(&next) {
                run.push((next, data));
                next += 1;
                if run.len() >= 64 {
                    break;
                }
            }
            let pages = run.len() as u32;
            let service = if elevator {
                let xfer =
                    (pages as u64 * LOGICAL_PAGE as u64 * 1_000) / self.cfg.transfer_bytes_per_us;
                self.cfg.destage_seek + self.cfg.rotation / 8 + xfer
            } else {
                self.arm_service(lpn, pages)
            };
            done = self.arm.acquire(done, service);
            self.head_pos = lpn + pages as u64;
            for (l, data) in run {
                self.draining.push(Reverse(done));
                self.platter.insert(l, data);
                self.stats.media_pages_written += 1;
                // The elevator loses the original cause; platter writes out
                // of the cache are the disk's own destage traffic.
                self.stats.media_pages_by_cause[WriteCause::Destage.index()] += 1;
                destaged += 1;
            }
        }
        if let Some(t) = &self.tel {
            t.tel.record(t.destage, done.saturating_sub(now));
            t.tel.set_gauge(t.cache_dirty, self.cache.len() as i64);
            if done > now {
                // Span only when the arm actually moved; zero-length
                // destages (empty cache) would just be trace noise.
                t.tel.complete(t.cat, t.destage, now, done);
            }
        }
        done
    }

    /// Charge a latency-anatomy segment on the enclosing op frame, if any.
    fn seg(&self, kind: SegKind, ns: Nanos) {
        if ns == 0 {
            return;
        }
        if let Some(t) = &self.tel {
            t.tel.seg(kind, ns);
        }
    }

    /// Drain the entire cache (FLUSH CACHE path).
    fn destage_all(&mut self, now: Nanos) -> Nanos {
        let mut done = now;
        while !self.cache.is_empty() {
            done = self.destage_batch(done);
        }
        done
    }
}

impl BlockDevice for Hdd {
    fn capacity_pages(&self) -> u64 {
        self.cfg.capacity_pages
    }

    fn read(&mut self, lpn: u64, pages: u32, buf: &mut [u8], now: Nanos) -> DevResult<Nanos> {
        if !self.powered {
            return Err(DevError::PoweredOff);
        }
        check_io(lpn, pages, buf.len(), self.cfg.capacity_pages)?;
        self.stats.reads += 1;
        let arrival = now;
        let now = now.max(self.barrier_until);
        self.seg(SegKind::FlushCache, now - arrival);
        // Serve from write cache when possible (all pages must be cached).
        let all_cached = self.cfg.cache_enabled
            && (0..pages as u64).all(|i| self.cache.contains_key(&(lpn + i)));
        let depth = self.queue_depth(now);
        let done = if all_cached {
            now + self.cfg.command_overhead
        } else {
            let service = self.arm_service_depth(lpn, pages, depth);
            let end = self.arm.acquire(now, service);
            self.seg(SegKind::NcqWait, end.saturating_sub(service).saturating_sub(now));
            self.seg(SegKind::MediaRead, service);
            end + self.cfg.command_overhead
        };
        self.inflight.push(done);
        for i in 0..pages as u64 {
            let off = i as usize * LOGICAL_PAGE;
            let src = self.cache.get(&(lpn + i)).or_else(|| self.platter.get(&(lpn + i)));
            match src {
                Some(d) => buf[off..off + LOGICAL_PAGE].copy_from_slice(d),
                None => buf[off..off + LOGICAL_PAGE].fill(0),
            }
        }
        Ok(done)
    }

    fn write(&mut self, lpn: u64, data: &[u8], now: Nanos) -> DevResult<Nanos> {
        if !self.powered {
            return Err(DevError::PoweredOff);
        }
        let pages = (data.len() / LOGICAL_PAGE) as u32;
        check_io(lpn, pages, data.len(), self.cfg.capacity_pages)?;
        self.stats.writes += 1;
        let arrival = now;
        let now = now.max(self.barrier_until);
        self.seg(SegKind::FlushCache, now - arrival);
        self.stats.pages_written += pages as u64;
        self.stats.pages_by_cause[self.cur_cause.index()] += pages as u64;
        if self.cfg.cache_enabled {
            self.arm.purge_before(now.saturating_sub(1_000_000_000));
            // Make room: a cache slot frees only when its destage completes,
            // so a full cache throttles the host to the destage rate.
            let mut t = now;
            loop {
                while let Some(&Reverse(d)) = self.draining.peek() {
                    if d <= t {
                        self.draining.pop();
                    } else {
                        break;
                    }
                }
                if self.cache.len() + self.draining.len() + pages as usize <= self.cfg.cache_pages {
                    break;
                }
                // Keep just enough destages in flight to free the slots we
                // need; over-scheduling would snowball the arm backlog.
                if !self.cache.is_empty() && self.draining.len() < pages as usize {
                    self.destage_batch(t);
                }
                match self.draining.peek() {
                    Some(&Reverse(d)) if d > t => t = d,
                    _ => break,
                }
            }
            // A full write cache throttles the host to the destage rate;
            // that admission stall is destage interference, not queueing.
            self.seg(SegKind::HddDestage, t - now);
            for i in 0..pages as u64 {
                let off = i as usize * LOGICAL_PAGE;
                self.cache.insert(lpn + i, data[off..off + LOGICAL_PAGE].into());
            }
            Ok(t + self.cfg.command_overhead)
        } else {
            let depth = self.queue_depth(now);
            let service = self.arm_service_depth(lpn, pages, depth);
            let end = self.arm.acquire(now, service);
            self.seg(SegKind::NcqWait, end.saturating_sub(service).saturating_sub(now));
            self.seg(SegKind::MediaProgram, service);
            let done = end + self.cfg.command_overhead;
            self.inflight.push(done);
            for i in 0..pages as u64 {
                let off = i as usize * LOGICAL_PAGE;
                self.platter.insert(lpn + i, data[off..off + LOGICAL_PAGE].into());
            }
            self.stats.media_pages_written += pages as u64;
            self.stats.media_pages_by_cause[self.cur_cause.index()] += pages as u64;
            Ok(done)
        }
    }

    fn flush(&mut self, now: Nanos) -> DevResult<Nanos> {
        if !self.powered {
            return Err(DevError::PoweredOff);
        }
        self.stats.flushes += 1;
        let arrival = now;
        let now = now.max(self.barrier_until);
        self.seg(SegKind::FlushCache, now - arrival);
        let scope = self.tel.as_ref().map(|t| t.tel.span(t.cat, t.flush_cache, now));
        let drained = self.destage_all(now);
        self.seg(SegKind::HddDestage, drained - now);
        self.draining.clear();
        // Journal commit for file metadata rides on every fsync-driven flush.
        let done = self.arm.acquire(drained, self.cfg.flush_journal_cost);
        self.seg(SegKind::FlushCache, done - drained);
        let done = done + self.cfg.command_overhead;
        self.barrier_until = done;
        if let Some(scope) = scope {
            scope.end(done);
        }
        Ok(done)
    }

    fn power_cut(&mut self, now: Nanos) {
        self.powered = false;
        if let Some(t) = &self.tel {
            t.tel.trace_instant(t.cat, t.power_cut, now);
        }
        // Postmortem: the pages the volatile write cache is about to drop,
        // with their owner LBAs, captured before the cache is cleared.
        let lost = self.cache.len() as u64;
        self.postmortem = Some(DevicePostmortem {
            device: "hdd".into(),
            protection: "hdd-write-cache".into(),
            cut_at: now,
            dirty_slots: self
                .cache
                .keys()
                .map(|&lpn| CacheSlotSnap { lpn, draining: false, ackable_at: 0 })
                .collect(),
            discarded_dirty_slots: lost,
            ..Default::default()
        });
        self.recovery = None;
        self.lost_acked_pages += lost;
        self.cache.clear();
        self.arm.reset();
        self.draining.clear();
        self.inflight.clear();
        self.barrier_until = 0;
    }

    fn reboot(&mut self, now: Nanos) -> Nanos {
        self.powered = true;
        // Spin-up.
        let ready = now + 5_000_000_000;
        if let Some(t) = &self.tel {
            t.tel.complete(t.cat, t.postmortem_recovery, now, ready);
        }
        self.recovery = Some(RecoverySnap {
            device: "hdd".into(),
            ready_at: ready,
            requeued_slots: 0,
            recovered_via_dump: false,
            scan_only: true,
        });
        ready
    }

    fn is_powered(&self) -> bool {
        self.powered
    }

    fn set_write_cause(&mut self, cause: WriteCause) {
        self.cur_cause = cause;
    }

    fn stats(&self) -> DeviceStats {
        self.stats
    }
}

impl Forensic for Hdd {
    fn postmortem(&self) -> Option<&DevicePostmortem> {
        self.postmortem.as_ref()
    }

    fn take_postmortem(&mut self) -> Option<DevicePostmortem> {
        self.postmortem.take()
    }

    fn recovery_snap(&self) -> Option<&RecoverySnap> {
        self.recovery.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk(cache: bool) -> Hdd {
        let cfg =
            HddConfig { capacity_pages: 1 << 20, cache_enabled: cache, ..HddConfig::default() };
        Hdd::new(cfg)
    }

    fn page(fill: u8) -> Vec<u8> {
        vec![fill; LOGICAL_PAGE]
    }

    #[test]
    fn anatomy_attributes_hdd_ops_and_conserves() {
        let tel = Telemetry::new();
        tel.enable_anatomy(2);
        let mut d = disk(true);
        d.attach_telemetry(tel.clone());
        let frame = tel.frame(tel.key("w"), 0);
        let t = frame.end(d.write(0, &page(1), 0).unwrap());
        assert!(tel.last_breakdown().unwrap().is_conserved());
        // Flush: cache destage plus journal commit, fully attributed.
        let frame = tel.frame(tel.key("f"), t);
        frame.end(d.flush(t).unwrap());
        let bd = tel.last_breakdown().unwrap();
        assert!(bd.seg(SegKind::HddDestage) > 0, "destage span attributed");
        assert!(bd.seg(SegKind::FlushCache) > 0, "journal commit attributed");
        assert!(bd.is_conserved());
        // Write-through disk: mechanical service shows up as media program.
        let mut d2 = disk(false);
        d2.attach_telemetry(tel.clone());
        let frame = tel.frame(tel.key("w2"), 0);
        frame.end(d2.write(0, &page(1), 0).unwrap());
        let bd = tel.last_breakdown().unwrap();
        assert!(bd.seg(SegKind::MediaProgram) > 0);
        assert!(bd.is_conserved());
        assert_eq!(tel.anatomy_violations(), 0);
    }

    #[test]
    fn cached_write_acks_fast_uncached_is_mechanical() {
        let mut d = disk(true);
        let fast = d.write(100, &page(1), 0).unwrap();
        let mut d2 = disk(false);
        let slow = d2.write(100, &page(1), 0).unwrap();
        assert!(fast < slow / 10, "cache ack {fast} should be far below media {slow}");
    }

    #[test]
    fn read_round_trips_through_cache_and_platter() {
        let mut d = disk(true);
        d.write(7, &page(9), 0).unwrap();
        let mut buf = page(0);
        let t = d.read(7, 1, &mut buf, 1000).unwrap();
        assert_eq!(buf, page(9));
        let t = d.flush(t).unwrap();
        let mut buf2 = page(0);
        d.read(7, 1, &mut buf2, t).unwrap();
        assert_eq!(buf2, page(9));
    }

    #[test]
    fn unwritten_reads_zero() {
        let mut d = disk(true);
        let mut buf = page(0xff);
        d.read(42, 1, &mut buf, 0).unwrap();
        assert_eq!(buf, page(0));
    }

    #[test]
    fn flush_drains_cache() {
        let mut d = disk(true);
        for i in 0..10 {
            d.write(i * 100, &page(i as u8), 0).unwrap();
        }
        assert_eq!(d.stats().media_pages_written, 0, "all ten sit in the cache");
        d.flush(0).unwrap();
        assert_eq!(d.stats().media_pages_written, 10);
    }

    #[test]
    fn sequential_writes_faster_than_random_without_cache() {
        let mut d = disk(false);
        let t_seq = {
            let mut now = 0;
            for i in 0..16u64 {
                now = d.write(i, &page(1), now).unwrap();
            }
            now
        };
        let mut d2 = disk(false);
        let t_rand = {
            let mut now = 0;
            for i in 0..16u64 {
                now = d2.write((i * 7919) % (1 << 20), &page(1), now).unwrap();
            }
            now
        };
        assert!(t_seq < t_rand / 2, "sequential {t_seq} vs random {t_rand}");
    }

    #[test]
    fn power_cut_loses_acked_cached_writes() {
        let mut d = disk(true);
        d.write(5, &page(3), 0).unwrap();
        d.power_cut(1000);
        assert_eq!(d.lost_acked_pages(), 1);
        let mut tmp = page(0);
        assert!(matches!(d.read(5, 1, &mut tmp, 2000), Err(DevError::PoweredOff)));
        let t = d.reboot(2000);
        let mut buf = page(7);
        d.read(5, 1, &mut buf, t).unwrap();
        // The write never reached the platter: old (zero) content.
        assert_eq!(buf, page(0));
    }

    #[test]
    fn write_through_survives_power_cut() {
        let mut d = disk(false);
        let t = d.write(5, &page(3), 0).unwrap();
        d.power_cut(t);
        let t2 = d.reboot(t);
        let mut buf = page(0);
        d.read(5, 1, &mut buf, t2).unwrap();
        assert_eq!(buf, page(3));
    }

    #[test]
    fn cache_full_blocks_until_destage() {
        let cfg = HddConfig {
            capacity_pages: 1 << 20,
            cache_pages: 8,
            destage_batch: 4,
            ..HddConfig::default()
        };
        let mut d = Hdd::new(cfg);
        let mut now = 0;
        for i in 0..8u64 {
            now = d.write(i * 1000, &page(1), now).unwrap();
        }
        // Cache now full; the 9th write must wait for a destage batch.
        let before = d.stats().media_pages_written;
        let t9 = d.write(9_000, &page(9), now).unwrap();
        assert!(d.stats().media_pages_written > before);
        assert!(t9 > now + 1_000_000, "9th write should pay mechanical time");
    }

    #[test]
    fn multi_page_write_is_one_command() {
        let mut d = disk(true);
        let data = vec![1u8; 4 * LOGICAL_PAGE];
        d.write(0, &data, 0).unwrap();
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().pages_written, 4);
    }

    #[test]
    fn flush_acts_as_barrier_for_later_commands() {
        let mut d = disk(true);
        // Fill some cache, then flush; a read issued "during" the flush
        // (earlier virtual time than its completion) must wait it out.
        for i in 0..64u64 {
            d.write(i * 997, &page(1), 0).unwrap();
        }
        let flush_done = d.flush(1000).unwrap();
        let mut buf = page(0);
        let read_done = d.read(5, 1, &mut buf, flush_done / 2).unwrap();
        assert!(read_done >= flush_done, "reads must not overtake FLUSH CACHE");
    }

    #[test]
    fn discard_is_a_safe_noop() {
        let mut d = disk(true);
        let t = d.write(9, &page(3), 0).unwrap();
        let t2 = d.discard(9, 1, t).unwrap();
        let mut buf = page(0);
        d.read(9, 1, &mut buf, t2).unwrap();
        // Disks don't TRIM: the data stays.
        assert_eq!(buf, page(3));
    }

    #[test]
    fn deep_read_queue_gets_scheduler_benefit() {
        // 32 concurrent readers finish sooner per-op than one-at-a-time
        // readers over the same LBAs (NCQ-style reordering).
        use simkit::ClosedLoop;
        let spread = |jobs: usize| {
            let mut d = disk(false);
            let mut buf = page(0);
            let mut x = 1u64;
            let mut drv = ClosedLoop::new(jobs, 0);
            let rep = drv.run(256, |_, now| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                d.read((x >> 33) % (1 << 20), 1, &mut buf, now).unwrap()
            });
            rep.throughput()
        };
        let serial = spread(1);
        let queued = spread(32);
        assert!(queued > serial * 15. / 10., "deep queue should speed reads: {serial} vs {queued}");
    }
}
