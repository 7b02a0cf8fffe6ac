//! The SSD device: host interface, atomic writer, flusher, flush-cache
//! handling, power-off detection and the recovery manager (§3.2–§3.4).

use crate::cache::{CacheEntry, WriteCache};
use crate::config::{CacheProtection, SsdConfig};
use crate::error::Error;
use crate::ftl::{Ftl, SlotRead};
use forensics::{CacheSlotSnap, DevicePostmortem, DumpOutcome, Forensic, RecoverySnap};
use nand::NandArray;
use simkit::{BufPool, Nanos, Timeline};
use std::collections::VecDeque;
use storage::device::{
    check_io, BlockDevice, DevError, DevResult, DeviceStats, WriteCause, LOGICAL_PAGE,
};
use telemetry::{SegKind, Telemetry};

/// SSD-specific statistics on top of the generic [`DeviceStats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SsdStats {
    /// Read commands that were served entirely from the write cache.
    pub cache_hit_reads: u64,
    /// 4KB slots acknowledged to the host and later destroyed by a power cut
    /// (volatile caches only; always zero on DuraSSD — that is the claim).
    pub lost_acked_slots: u64,
    /// Host reads that found a shorn/corrupt page after recovery.
    pub shorn_reads: u64,
    /// Host write commands whose data was discarded because power was cut
    /// before the transfer completed (correct atomic behaviour).
    pub aborted_inflight_writes: u64,
    /// Emergency capacitor dumps performed.
    pub dumps: u64,
    /// Bytes written by the largest emergency dump.
    pub max_dump_bytes: u64,
    /// Recovery runs at reboot.
    pub recoveries: u64,
    /// Emergency dumps that exceeded the capacitor energy budget and were
    /// abandoned (the device degraded to volatile behaviour for that cut).
    /// A mis-tuned budget is a reportable forensic finding, not an abort.
    pub dump_over_budget: u64,
    /// Blocks re-erased at reboot because a power cut tore their erase
    /// mid-flight (the block refuses programs until erased again).
    pub torn_erase_repairs: u64,
}

/// A record of a host write whose acknowledgement lies in the future; if
/// power is cut before `done`, the whole command is rolled back (atomic
/// writer, §3.2).
struct InflightWrite {
    done: Nanos,
    preimages: Vec<(u64, Option<CacheEntry>)>,
}

/// The simulated SSD. One type implements DuraSSD and both volatile
/// baselines; behaviour differences follow from [`SsdConfig`].
pub struct Ssd {
    cfg: SsdConfig,
    nand: NandArray,
    ftl: Ftl,
    cache: WriteCache,
    sata: Timeline,
    /// Backend dispatch pipeline: caps sustained media-write bandwidth.
    pipe: Timeline,
    stats: DeviceStats,
    xstats: SsdStats,
    powered: bool,
    /// Bytes the last capacitor dump wrote to the dump area, until `reboot`
    /// replays them.
    dumped_bytes: Option<u64>,
    /// FLUSH CACHE is a barrier: commands that arrive while a flush is in
    /// progress are held until it completes (paper Fig. 2 — "a database
    /// system is usually blocked while a fsync call is being processed").
    barrier_until: Nanos,
    /// Host writes whose acknowledgement may still be in the future, oldest
    /// completion first (acknowledgement times are near-monotone, so the
    /// deque retires from the front in O(retired) instead of a full scan
    /// per command).
    inflight: VecDeque<InflightWrite>,
    /// Recycled pre-image vectors: retired [`InflightWrite`]s hand their
    /// (emptied) allocation back so steady-state writes stay heap-free.
    preimage_pool: Vec<Vec<(u64, Option<CacheEntry>)>>,
    /// Slab of 4KB page buffers backing the write cache: host writes check
    /// out a lease, reclaim/discard returns it. Steady-state admission and
    /// drain perform zero heap allocations.
    page_pool: BufPool,
    /// Monotonically increasing arrival clock (the closed-loop driver feeds
    /// commands in virtual-time order; asserted in debug builds).
    last_arrival: Nanos,
    /// Provenance of subsequent host writes, declared by the volume via
    /// [`BlockDevice::set_write_cause`] (sticky until re-declared).
    cur_cause: WriteCause,
    /// Write counter used to throttle the O(blocks) valid-ratio gauge.
    gauge_tick: u32,
    /// Optional telemetry sink (cache-drain durations, occupancy gauge).
    tel: Option<Telemetry>,
    /// `nand.ch<N>.queue`, formatted once when the sink is attached.
    ch_gauges: Vec<String>,
    /// Postmortem captured by the most recent `power_cut`.
    postmortem: Option<DevicePostmortem>,
    /// Snapshot captured by the most recent `reboot`.
    recovery: Option<RecoverySnap>,
}

impl Ssd {
    /// Build a device from a configuration.
    pub fn new(cfg: SsdConfig) -> Self {
        cfg.validate();
        Self {
            nand: NandArray::new(cfg.geometry),
            ftl: Ftl::new(&cfg),
            cache: WriteCache::new(),
            sata: Timeline::new(),
            pipe: Timeline::new(),
            stats: DeviceStats::default(),
            xstats: SsdStats::default(),
            powered: true,
            dumped_bytes: None,
            barrier_until: 0,
            inflight: VecDeque::new(),
            preimage_pool: Vec::new(),
            page_pool: BufPool::new(LOGICAL_PAGE),
            last_arrival: 0,
            cur_cause: WriteCause::default(),
            gauge_tick: 0,
            tel: None,
            ch_gauges: Vec::new(),
            postmortem: None,
            recovery: None,
            cfg,
        }
    }

    /// Attach a telemetry sink: the FTL records GC pauses and NAND
    /// program/erase latencies, the NAND array emits media-level trace
    /// spans, and the device itself records flush-queue drain time
    /// (`ssd.cache_drain`), the cache/flush trace spans, and the
    /// occupancy/capacitor gauges.
    pub fn attach_telemetry(&mut self, tel: Telemetry) {
        self.ftl.attach_telemetry(tel.clone());
        self.nand.attach_telemetry(tel.clone());
        self.ch_gauges =
            (0..self.nand.channel_count()).map(|ch| format!("nand.ch{ch}.queue")).collect();
        self.tel = Some(tel);
    }

    /// Preallocate the NAND layer to its geometric bound (one buffer per
    /// physical page, page map at full occupancy, in-flight op vectors at
    /// their ceilings) so device operation never allocates for media state.
    ///
    /// Opt-in because it makes resident memory proportional to the *raw*
    /// device size rather than the written working set — cheap for test
    /// geometries, deliberate for multi-gigabyte ones. The host-side pools
    /// (cache slots, pre-image vectors) are workload-bounded and warm up on
    /// their own.
    pub fn prewarm(&mut self) {
        self.nand.prewarm();
    }

    /// The device configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    /// SSD-specific statistics.
    pub fn ssd_stats(&self) -> SsdStats {
        self.xstats
    }

    /// FTL statistics (write amplification, GC work).
    pub fn ftl_stats(&self) -> crate::ftl::FtlStats {
        self.ftl.stats()
    }

    /// Dirty + draining slots currently in the write cache.
    pub fn cache_occupancy(&self) -> usize {
        self.cache.occupied()
    }

    /// Mapping entries modified since the last journal write (the crash
    /// loss window on a volatile device).
    pub fn unpersisted_mapping_entries(&self) -> usize {
        self.ftl.unpersisted_entries()
    }

    /// (min, max) block erase counts — the wear-leveling spread.
    pub fn wear_spread(&self) -> (u32, u32) {
        self.ftl.wear_spread(&self.nand)
    }

    /// Host page overwrites coalesced in the write cache — NAND programs
    /// the durable cache saved (the paper's absorption mechanism).
    pub fn absorbed_overwrites(&self) -> u64 {
        self.cache.coalesced_overwrites()
    }

    /// Busy-time accounting for saturation diagnosis:
    /// `(sata_busy, pipe_busy, nand_quiet_at)`.
    pub fn busy_times(&self) -> (Nanos, Nanos, Nanos) {
        (self.sata.busy_time(), self.pipe.busy_time(), self.nand.all_quiet())
    }

    fn note_arrival(&mut self, now: Nanos) {
        // Command arrival times are *mostly* nondecreasing (the closed-loop
        // driver dispatches clients in virtual-time order), but an engine
        // operation issues several commands at advancing internal times, so
        // the next client's commands can arrive slightly "in the past".
        // Track the high-water mark and purge with a safety margin.
        self.last_arrival = self.last_arrival.max(now);
        let watermark = self.last_arrival.saturating_sub(1_000_000_000);
        // Acked writes are now stable facts; free the bookkeeping. The
        // retired entries' pre-image vectors are recycled (and any pre-image
        // page buffers return to the pool as the entries drop).
        // Acknowledgement times are near-monotone (bounded NCQ reordering),
        // so retirement pops from the front until it meets a still-young
        // entry: O(retired) amortised, versus a full O(in-flight) scan per
        // command. A slightly out-of-order entry behind a younger head just
        // retires a few calls later — bookkeeping only, no observable
        // difference.
        while let Some(w) = self.inflight.front_mut() {
            if w.done > watermark {
                break;
            }
            let mut v = std::mem::take(&mut w.preimages);
            v.clear();
            // The pool's size is naturally bounded by the peak number of
            // simultaneously in-flight writes (the 1-second retirement
            // window), so no explicit cap is needed — capping below that
            // watermark would put an allocation back on every write.
            if v.capacity() > 0 {
                self.preimage_pool.push(v);
            }
            self.inflight.pop_front();
        }
        self.cache.reclaim(watermark.min(now));
        self.sata.purge_before(watermark);
        self.pipe.purge_before(watermark);
        self.nand.purge_before(watermark);
    }

    /// Pure host-interface service time for `bytes` (fixed command cost +
    /// transfer at the interface rate) — the `xfer` anatomy segment; any
    /// extra time [`Ssd::sata_transfer`] reports is NCQ queueing wait.
    fn sata_cost(&self, bytes: usize) -> Nanos {
        self.cfg.sata_fixed + (bytes as u64 * 1_000) / self.cfg.sata_bytes_per_us
    }

    /// SATA transfer of `bytes` starting no earlier than `now`.
    fn sata_transfer(&mut self, now: Nanos, bytes: usize) -> Nanos {
        let t = self.sata_cost(bytes);
        self.sata.acquire(now, t)
    }

    /// Charge a latency-anatomy segment for the in-progress host command
    /// (free no-op without telemetry or with anatomy disabled).
    fn seg(&self, kind: SegKind, ns: Nanos) {
        if ns == 0 {
            return;
        }
        if let Some(tel) = &self.tel {
            tel.seg(kind, ns);
        }
    }

    /// Split one completed SATA transfer into anatomy segments: queueing
    /// wait behind other interface traffic (`ncq_wait`) and the command's
    /// own transfer service (`xfer`).
    fn seg_sata(&self, issued: Nanos, done: Nanos, bytes: usize) {
        let service = self.sata_cost(bytes);
        self.seg(SegKind::NcqWait, done.saturating_sub(issued).saturating_sub(service));
        self.seg(SegKind::Xfer, service);
    }

    /// Drain one pair of dirty slots to NAND at `t`; returns the program's
    /// completion time, or `None` when the cache holds nothing dirty.
    ///
    /// Zero-copy: the popped entries' page data is borrowed from the cache
    /// slots in place and handed to the FTL as slices — no buffer leaves
    /// the cache until reclaim returns it to the pool.
    fn drain_pair(&mut self, t: Nanos) -> DevResult<Option<Nanos>> {
        const MAX_SPP: usize = 8;
        let spp = self.cfg.slots_per_page();
        debug_assert!(spp <= MAX_SPP, "slots_per_page exceeds drain batch capacity");
        let mut lpns = [0u64; MAX_SPP];
        let mut n = 0usize;
        while n < spp {
            match self.cache.pop_dirty(t) {
                Some(lpn) => {
                    lpns[n] = lpn;
                    n += 1;
                }
                None => break,
            }
        }
        if n == 0 {
            return Ok(None);
        }
        let bytes = n as u64 * LOGICAL_PAGE as u64;
        let grant = self.pipe.acquire(t, bytes * 1_000 / self.cfg.backend_bytes_per_us);
        const EMPTY: &[u8] = &[];
        let mut items: [(u64, &[u8]); MAX_SPP] = [(0, EMPTY); MAX_SPP];
        let mut causes = [WriteCause::HostData; MAX_SPP];
        for ((slot, cause), &lpn) in items.iter_mut().zip(causes.iter_mut()).zip(lpns[..n].iter()) {
            *cause = self.cache.cause_of(lpn);
            *slot = (lpn, self.cache.get(lpn).expect("popped entry is present"));
        }
        let scope = self.tel.as_ref().map(|tel| tel.span("ssd", "ssd.cache_drain", t));
        let done = self
            .ftl
            .program_slots_tagged(&mut self.nand, &items[..n], &causes[..n], grant)
            .map_err(Error::into_dev)?;
        if let Some(scope) = scope {
            scope.end(done);
        }
        for &lpn in &lpns[..n] {
            self.cache.set_draining(lpn, done);
        }
        Ok(Some(done))
    }

    /// Background flusher: push dirty pairs to planes that are already idle
    /// (models the continuous FIFO flusher of §3.1.1 without an event loop).
    /// Also journals the mapping once enough entries piled up — every FTL
    /// does this periodically, bounding how much a power cut can take.
    fn opportunistic_drain(&mut self, now: Nanos) -> DevResult<()> {
        while self.cache.dirty() > 0
            && self.pipe.busy_until() <= now
            && self.ftl.next_plane_idle(&self.nand, now)
        {
            if self.drain_pair(now)?.is_none() {
                break;
            }
        }
        if self.ftl.unpersisted_entries() > self.cfg.mapping_journal_threshold {
            self.ftl.persist_mapping(&mut self.nand, now);
        }
        Ok(())
    }

    /// Synchronous full drain (FLUSH CACHE path): returns when every cached
    /// slot is on flash. Entries whose commands acknowledge slightly later
    /// (overlapping NCQ traffic) are waited for, conservatively.
    fn drain_all(&mut self, now: Nanos) -> DevResult<Nanos> {
        let mut t = now;
        let mut last = now;
        loop {
            if let Some(done) = self.drain_pair(t)? {
                last = last.max(done);
                continue;
            }
            if self.cache.dirty() > 0 {
                if let Some(a) = self.cache.next_ackable() {
                    if a > t {
                        t = a;
                        continue;
                    }
                }
            }
            break;
        }
        // Wait for everything already in flight too.
        if let Some(d) = self.cache.latest_drain_done() {
            last = last.max(d);
        }
        let last = last.max(t);
        self.cache.reclaim(last);
        Ok(last)
    }

    /// Write path with the cache enabled. Commands larger than half the
    /// cache stream through it in chunks, like any real write-back cache.
    fn write_cached(&mut self, lpn: u64, data: &[u8], now: Nanos) -> DevResult<Nanos> {
        let n = data.len() / LOGICAL_PAGE;
        let chunk_slots = (self.cfg.cache_slots / 2).max(1);
        if n > chunk_slots {
            let mut t = now;
            let mut done = now;
            for (i, chunk) in data.chunks(chunk_slots * LOGICAL_PAGE).enumerate() {
                done = self.write_cached(lpn + (i * chunk_slots) as u64, chunk, t)?;
                t = done;
            }
            return Ok(done);
        }
        let xfer_done = self.sata_transfer(now, data.len());
        self.seg_sata(now, xfer_done, data.len());
        // Flow control: when the cache is full, admission proceeds at the
        // backend drain rate. Schedule every needed drain immediately (the
        // dispatch pipe serialises them at the sustained media rate), then
        // wait for completions to free slots — the flusher and the host
        // overlap, as in the real firmware.
        let gc_before = self.ftl.gc_time();
        let mut t = xfer_done;
        let mut guard = 0u32;
        loop {
            // Fast path: occupied() bounds occupied_at() from above, so a
            // cache with raw headroom needs no completion-time accounting.
            if self.cache.occupied() + n <= self.cfg.cache_slots {
                break;
            }
            if self.cache.occupied_at(t) + n <= self.cfg.cache_slots {
                break;
            }
            guard += 1;
            assert!(guard < 10_000_000, "flow control cannot make progress");
            // Push drains without waiting: completions arrive pipelined.
            while self.cache.dirty() > 0 && self.cache.occupied_at(t) + n > self.cfg.cache_slots {
                if self.drain_pair(t)?.is_none() {
                    break;
                }
            }
            // Wait for the next drain completion to free a slot, or for an
            // ack-gated entry to become drainable.
            let mut wait = self.cache.earliest_drain_done();
            if wait.is_none_or(|d| d <= t) {
                match self.cache.next_ackable() {
                    Some(a) if a > t => wait = Some(a),
                    _ => {}
                }
            }
            match wait {
                Some(w) if w > t => t = w,
                _ => break,
            }
        }
        // Anatomy: the admission window is GC interference wherever the
        // drains that freed our slot were preempted by GC (measured before
        // the trailing opportunistic drain so background GC is never
        // charged to this command), and cache-full stall for the rest.
        let admit = t - xfer_done;
        let gc_delta = (self.ftl.gc_time() - gc_before).min(admit);
        self.seg(SegKind::GcWait, gc_delta);
        self.seg(SegKind::CacheAdmit, admit - gc_delta);
        // Atomic writer: stage the slots, remembering pre-images until the
        // command acknowledgement time passes; the flusher ignores the
        // entries until then.
        let done = t + self.cfg.host_write_overhead;
        let mut preimages = self.preimage_pool.pop().unwrap_or_default();
        preimages.reserve(n);
        for i in 0..n {
            let slot_lpn = lpn + i as u64;
            let chunk =
                self.page_pool.checkout_from(&data[i * LOGICAL_PAGE..(i + 1) * LOGICAL_PAGE]);
            let pre = self.cache.insert(slot_lpn, chunk, done, self.cur_cause);
            preimages.push((slot_lpn, pre));
        }
        self.inflight.push_back(InflightWrite { done, preimages });
        if let Some(tel) = &self.tel {
            tel.trace_instant("ssd", "ssd.cache_admit", done);
        }
        self.opportunistic_drain(now)?;
        Ok(done)
    }

    /// Write path with the cache disabled: program through to flash and
    /// journal the mapping before acknowledging.
    fn write_direct(&mut self, lpn: u64, data: &[u8], now: Nanos) -> DevResult<Nanos> {
        let n = data.len() / LOGICAL_PAGE;
        let xfer_done = self.sata_transfer(now, data.len());
        self.seg_sata(now, xfer_done, data.len());
        let spp = self.cfg.slots_per_page();
        let mut media_done = xfer_done;
        let mut idx = 0usize;
        // Anatomy: all chunks issue at `xfer_done` and overlap across
        // planes, so only the critical chunk (the one achieving
        // `media_done`) is attributed: its dispatch-pipe + NAND queueing
        // wait, the GC pause that preempted it, and its program service.
        let mut crit = None;
        while idx < n {
            let take = spp.min(n - idx);
            let items: Vec<(u64, &[u8])> = (0..take)
                .map(|k| {
                    let i = idx + k;
                    (lpn + i as u64, &data[i * LOGICAL_PAGE..(i + 1) * LOGICAL_PAGE])
                })
                .collect();
            let bytes = items.len() as u64 * LOGICAL_PAGE as u64;
            let grant = self.pipe.acquire(xfer_done, bytes * 1_000 / self.cfg.backend_bytes_per_us);
            let causes = [self.cur_cause; 16];
            let done = self
                .ftl
                .program_slots_tagged(&mut self.nand, &items, &causes[..items.len()], grant)
                .map_err(Error::into_dev)?;
            if done >= media_done {
                media_done = done;
                crit = Some((grant, self.ftl.last_gc_pause(), self.nand.last_split()));
            }
            idx += take;
        }
        if let Some((grant, gc_pause, (wait, service))) = crit {
            // wait + service == media_done - grant exactly; the GC pause is
            // part of the NAND queueing wait (the program queued behind the
            // GC work on its plane), split out as its own cause.
            let gc = gc_pause.min(wait);
            self.seg(SegKind::GcWait, gc);
            self.seg(SegKind::ChannelWait, (grant - xfer_done) + (wait - gc));
            self.seg(SegKind::MediaProgram, service);
        }
        // Without a durable cache to hold the mapping, careful firmware
        // journals it before completing the command (§2.3); lazy-journal
        // firmware (SSD-B) skips this and risks mapping loss.
        let meta_done = if self.cfg.persist_mapping_on_flush {
            self.ftl.persist_mapping(&mut self.nand, media_done)
        } else {
            media_done
        };
        self.seg(SegKind::MapPersist, meta_done - media_done);
        Ok(meta_done + self.cfg.host_write_overhead)
    }

    /// Capacitor dump at power-cut time (§3.4.1). The dump itself runs on
    /// backup power after host time stops, so it costs no virtual time; what
    /// matters is whether it *fits the energy budget*. When it does, the
    /// dumped state survives in the device (the cache/mapping structures
    /// stay intact). When it does not — a mis-tuned budget the flow control
    /// failed to bound — the capacitor dies mid-dump and the cut is recorded
    /// as a structured over-budget outcome instead of aborting the process;
    /// the caller then degrades the device to volatile behaviour.
    fn emergency_dump(&mut self) -> DumpOutcome {
        // `power_cut` reclaimed the drains that completed by the cut: what
        // the cache still holds (dirty + still-draining) is not yet on flash.
        let bytes = self.cache.occupied_bytes() + self.ftl.unpersisted_entries() as u64 * 8;
        let within_budget = bytes <= self.cfg.capacitor_energy_bytes;
        if within_budget {
            self.xstats.dumps += 1;
            self.xstats.max_dump_bytes = self.xstats.max_dump_bytes.max(bytes);
            self.dumped_bytes = Some(bytes);
        } else {
            self.xstats.dump_over_budget += 1;
        }
        DumpOutcome { bytes, budget_bytes: self.cfg.capacitor_energy_bytes, within_budget }
    }

    /// Structural audit across the whole device, for the simulation-test
    /// harness: delegates to [`Ftl::check_invariants`] and
    /// [`WriteCache::check_invariants`], then reconciles the page-pool
    /// lease accounting — every outstanding [`simkit::PageBuf`] must be
    /// held by exactly one cache slot or one in-flight pre-image.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.ftl.check_invariants(&self.nand).map_err(|e| format!("ftl: {e}"))?;
        self.cache.check_invariants().map_err(|e| format!("cache: {e}"))?;
        // Host-boundary provenance conservation: every page the host wrote
        // carries exactly one cause tag.
        let by_cause: u64 = self.stats.pages_by_cause.iter().sum();
        if by_cause != self.stats.pages_written {
            return Err(format!(
                "host write attribution leak: causes sum to {by_cause}, host wrote {} pages",
                self.stats.pages_written
            ));
        }
        let preimage_bufs: usize = self
            .inflight
            .iter()
            .map(|w| w.preimages.iter().filter(|(_, p)| p.is_some()).count())
            .sum();
        let expected = self.cache.occupied() + preimage_bufs;
        let outstanding = self.page_pool.outstanding();
        if outstanding != expected {
            return Err(format!(
                "page-pool accounting: {outstanding} leases outstanding, but cache holds {} \
                 slots and the atomic writer {preimage_bufs} pre-images",
                self.cache.occupied()
            ));
        }
        Ok(())
    }

    /// Refresh the device-state gauges the time-series sampler reads:
    /// cache occupancy, unpersisted mapping entries (GC-journal debt),
    /// GC pressure (free blocks, free-pool shortfall below the GC trigger,
    /// media valid ratio) and — on capacitor-backed devices — the remaining
    /// capacitor energy headroom in bytes.
    fn update_gauges(&mut self) {
        let Some(tel) = self.tel.clone() else {
            return;
        };
        let occ = self.cache.occupied() as i64;
        let unpersisted = self.ftl.unpersisted_entries() as i64;
        tel.set_gauge("ssd.cache_occupancy", occ);
        tel.set_gauge("ftl.unpersisted_map", unpersisted);
        tel.set_gauge("ftl.free_blocks", self.ftl.free_blocks() as i64);
        tel.set_gauge("ftl.gc_debt", self.ftl.gc_debt() as i64);
        // Queue-depth observability: the admission queue (dirty slots
        // waiting for the drain engine) and the host-interface NCQ backlog
        // (accepted-but-unfinished transfer time at the arrival watermark).
        tel.set_gauge("ssd.cache_dirty", self.cache.dirty() as i64);
        tel.set_gauge(
            "ssd.ncq_backlog_ns",
            self.sata.backlog_at(self.last_arrival).min(i64::MAX as u64) as i64,
        );
        // The valid ratio walks every block's counter; refresh it on a
        // stride so the write hot path stays O(1). Per-channel occupancy
        // shares the stride.
        if self.gauge_tick.is_multiple_of(64) {
            let (live, total) = self.ftl.live_slots();
            if let Some(pm) = (live * 1000).checked_div(total) {
                tel.set_gauge("ftl.valid_ratio_pm", pm as i64);
            }
            for (ch, name) in self.ch_gauges.iter().enumerate() {
                let occ = self.nand.channel_occupancy_at(ch, self.last_arrival);
                tel.set_gauge(name, occ as i64);
            }
        }
        self.gauge_tick = self.gauge_tick.wrapping_add(1);
        if matches!(self.cfg.protection, CacheProtection::CapacitorBacked) {
            let live = occ * LOGICAL_PAGE as i64 + unpersisted * 8;
            tel.set_gauge("ssd.capacitor_reserve", self.cfg.capacitor_energy_bytes as i64 - live);
        }
    }
}

impl BlockDevice for Ssd {
    fn capacity_pages(&self) -> u64 {
        self.cfg.logical_capacity_pages
    }

    fn read(&mut self, lpn: u64, pages: u32, buf: &mut [u8], now: Nanos) -> DevResult<Nanos> {
        if !self.powered {
            return Err(DevError::PoweredOff);
        }
        check_io(lpn, pages, buf.len(), self.cfg.logical_capacity_pages)?;
        self.note_arrival(now);
        self.stats.reads += 1;
        let start = now.max(self.barrier_until);
        let mut media_done = start;
        let mut all_cached = true;
        // Anatomy: the page reads all issue at `start` and overlap across
        // planes, so only the *critical* read — the one that achieves
        // `media_done` — is attributed (summing the overlapped ones would
        // exceed wall time and break conservation).
        let mut crit_split = None;
        for i in 0..pages as u64 {
            let off = i as usize * LOGICAL_PAGE;
            let out = &mut buf[off..off + LOGICAL_PAGE];
            if let Some(cached) = self.cache.get(lpn + i) {
                out.copy_from_slice(cached);
                continue;
            }
            all_cached = false;
            match self
                .ftl
                .read_slot(&mut self.nand, lpn + i, out, start)
                .map_err(Error::into_dev)?
            {
                SlotRead::Ok(done) => {
                    if done >= media_done {
                        media_done = done;
                        crit_split = Some(self.nand.last_split());
                    }
                }
                SlotRead::Unmapped => {}
                SlotRead::Shorn => {
                    self.xstats.shorn_reads += 1;
                    return Err(DevError::ShornPage { lpn: lpn + i });
                }
            }
        }
        if all_cached {
            self.xstats.cache_hit_reads += 1;
        }
        self.seg(SegKind::FlushCache, start - now);
        if let Some((wait, service)) = crit_split {
            self.seg(SegKind::ChannelWait, wait);
            self.seg(SegKind::MediaRead, service);
        }
        let xfer_done = self.sata_transfer(media_done, buf.len());
        self.seg_sata(media_done, xfer_done, buf.len());
        let done = xfer_done + self.cfg.host_read_overhead;
        self.opportunistic_drain(now)?;
        Ok(done)
    }

    fn write(&mut self, lpn: u64, data: &[u8], now: Nanos) -> DevResult<Nanos> {
        if !self.powered {
            return Err(DevError::PoweredOff);
        }
        let pages = (data.len() / LOGICAL_PAGE) as u32;
        check_io(lpn, pages, data.len(), self.cfg.logical_capacity_pages)?;
        self.note_arrival(now);
        self.stats.writes += 1;
        self.stats.pages_written += pages as u64;
        self.stats.pages_by_cause[self.cur_cause.index()] += pages as u64;
        let start = now.max(self.barrier_until);
        // A pending write barrier delays admission: charge the wait to the
        // flush that caused it.
        self.seg(SegKind::FlushCache, start - now);
        let done = if self.cfg.cache_enabled {
            self.write_cached(lpn, data, start)?
        } else {
            self.write_direct(lpn, data, start)?
        };
        self.update_gauges();
        Ok(done)
    }

    fn flush(&mut self, now: Nanos) -> DevResult<Nanos> {
        if !self.powered {
            return Err(DevError::PoweredOff);
        }
        self.note_arrival(now);
        self.stats.flushes += 1;
        let start = now.max(self.barrier_until);
        // The span every barrier pays and DuraSSD's nobarrier mount never
        // emits: the trace-level twin of the flush_cache segment.
        let scope = self.tel.as_ref().map(|tel| {
            tel.set_gauge("ssd.cache_occupancy", self.cache.occupied() as i64);
            tel.span("ssd", "flush_cache", start)
        });
        let gc_before = self.ftl.gc_time();
        let drained = self.drain_all(start)?;
        if let Some(tel) = &self.tel {
            // The cache-flush-queue drain time: how long FLUSH CACHE spends
            // pushing dirty slots to flash (§3.3 — DuraSSD avoids this wait
            // entirely by running the database with barriers disabled).
            tel.record("ssd.cache_drain", drained.saturating_sub(start));
        }
        let persisted = if self.cfg.persist_mapping_on_flush {
            self.ftl.persist_mapping(&mut self.nand, drained)
        } else {
            drained
        };
        let done = persisted + self.cfg.flush_fixed_cost;
        // Anatomy: everything the barrier forces — the queue behind a prior
        // barrier, the drain itself, the barrier-triggered mapping persist,
        // the fixed command cost — is flush-cache time. Only GC interference
        // stolen from the drain keeps its own cause (it could have fired on
        // any path). Threshold-triggered journal commits on the *write* path
        // still charge map_persist; a persist the barrier demanded is part
        // of the drain. Segments sum to wall exactly.
        let drain_span = drained - start;
        let gc_delta = (self.ftl.gc_time() - gc_before).min(drain_span);
        self.seg(SegKind::GcWait, gc_delta);
        self.seg(
            SegKind::FlushCache,
            (start - now)
                + (drain_span - gc_delta)
                + (persisted - drained)
                + self.cfg.flush_fixed_cost,
        );
        self.barrier_until = done;
        if let Some(scope) = scope {
            scope.end(done);
        }
        self.update_gauges();
        Ok(done)
    }

    fn discard(&mut self, lpn: u64, pages: u32, now: Nanos) -> DevResult<Nanos> {
        if !self.powered {
            return Err(DevError::PoweredOff);
        }
        if pages == 0 || lpn + pages as u64 > self.cfg.logical_capacity_pages {
            return Err(DevError::OutOfRange {
                lpn,
                pages,
                capacity: self.cfg.logical_capacity_pages,
            });
        }
        self.note_arrival(now);
        // Drop cached copies and mappings; the command itself is cheap.
        for i in 0..pages as u64 {
            let l = lpn + i;
            self.cache.remove(l);
            self.ftl.trim(l);
        }
        // The TRIM also supersedes any pre-images the atomic writer holds
        // for these lpns: if power is cut before an in-flight write's ack,
        // its rollback must not resurrect data the host just discarded.
        // (Found by the simtest fuzzer, `--target dura --seed 3`, minimal
        // trace `w:8:4 tcw:11 r:11:3`.)
        let end = lpn + pages as u64;
        for w in &mut self.inflight {
            w.preimages.retain(|&(l, _)| l < lpn || l >= end);
        }
        Ok(now + self.cfg.host_write_overhead / 4)
    }

    fn power_cut(&mut self, now: Nanos) {
        if !self.powered {
            return;
        }
        // The simulation applies command effects eagerly, so a cut cannot
        // travel back before commands the device has already observed: clamp
        // to the arrival high-water mark. Commands *in flight* at that point
        // (acknowledgement in the future) are still rolled back below.
        let now = now.max(self.last_arrival);
        self.powered = false;
        self.barrier_until = 0;
        if let Some(tel) = &self.tel {
            tel.trace_instant("ssd", "power_cut", now);
        }
        // Postmortem: capture everything the cut is about to destroy —
        // per-channel drain positions and the un-journalled mapping delta
        // *before* the NAND array and FTL react to the cut.
        let mut pm = DevicePostmortem {
            device: "ssd".into(),
            protection: match self.cfg.protection {
                CacheProtection::Volatile => "volatile".into(),
                CacheProtection::CapacitorBacked => "capacitor-backed".into(),
            },
            cut_at: now,
            channel_drain_positions: (0..self.cfg.geometry.planes())
                .map(|p| self.nand.plane_busy_until(p))
                .collect(),
            unpersisted_map: self.ftl.unpersisted_delta(),
            ..Default::default()
        };
        // 1. In-flight NAND programs shear.
        let shorn_before = self.nand.stats().shorn_pages;
        self.nand.power_cut(now);
        pm.nand_shorn_pages = self.nand.stats().shorn_pages - shorn_before;
        // 2. Atomic writer: host commands whose acknowledgement had not been
        //    sent yet are rolled back entirely — the host must never observe
        //    a half-applied command (§3.2).
        let pending: Vec<InflightWrite> = self.inflight.drain(..).collect();
        for w in pending.into_iter().rev() {
            if w.done > now {
                self.xstats.aborted_inflight_writes += 1;
                pm.aborted_inflight_writes += 1;
                for (lpn, pre) in w.preimages.into_iter().rev() {
                    self.cache.rollback(lpn, pre);
                }
            }
        }
        // Drains whose program completed by the cut are on media — the cut
        // cannot predate them and step 1 sheared only later programs — so
        // their slots are free: neither dumped nor replayed.
        self.cache.reclaim(now);
        // Snapshot the cache *after* the atomic-writer rollback: what is
        // left are the slots the host believes durable and flash does not
        // hold yet.
        pm.dirty_slots = self
            .cache
            .iter()
            .map(|(&lpn, e)| CacheSlotSnap {
                lpn,
                draining: e.draining_until.is_some(),
                ackable_at: e.ackable_at,
            })
            .collect();
        // The slot table iterates in hash order; sort so postmortem reports
        // are byte-identical run to run.
        pm.dirty_slots.sort_unstable_by_key(|s| s.lpn);
        match self.cfg.protection {
            CacheProtection::Volatile => {
                // 3a. Acked-but-cached data evaporates; un-journalled
                //     mapping updates roll back.
                pm.rolled_back_map_entries = pm.unpersisted_map.len() as u64;
                let lost = self.cache.discard_all();
                self.xstats.lost_acked_slots += lost as u64;
                pm.discarded_dirty_slots = lost as u64;
                self.ftl.rollback_unpersisted(&self.nand);
            }
            CacheProtection::CapacitorBacked => {
                // 3b. The power-off detector fires the dump (§3.4.1). An
                //     over-budget dump fails and the device degrades to
                //     volatile behaviour for this cut — recorded, not fatal.
                let outcome = self.emergency_dump();
                if !outcome.within_budget {
                    pm.rolled_back_map_entries = pm.unpersisted_map.len() as u64;
                    let lost = self.cache.discard_all();
                    self.xstats.lost_acked_slots += lost as u64;
                    pm.discarded_dirty_slots = lost as u64;
                    self.ftl.rollback_unpersisted(&self.nand);
                }
                pm.dump = Some(outcome);
            }
        }
        self.postmortem = Some(pm);
        self.recovery = None;
    }

    fn reboot(&mut self, now: Nanos) -> Nanos {
        if self.powered {
            return now;
        }
        self.powered = true;
        self.last_arrival = 0;
        let scope = self.tel.as_ref().map(|tel| tel.span("ssd", "postmortem_recovery", now));
        // Torn-erase sweep: a cut during an in-flight erase leaves the
        // block refusing programs until it is erased again — but the FTL
        // already recycled it. Repair before serving I/O; skipping this
        // made the next frontier program on the block fail with
        // `OutOfOrderProgram` (simtest fuzzer, `--target dura --seed 0`).
        let (repair_done, repaired) = self.ftl.repair_media_after_cut(&mut self.nand, now);
        self.xstats.torn_erase_repairs += repaired;
        let mut snap = RecoverySnap { device: "ssd".into(), ..Default::default() };
        let ready = match self.cfg.protection {
            CacheProtection::CapacitorBacked => {
                let mut t = now + self.cfg.recharge_time; // recharge first (§3.4.2)
                if let Some(dump_bytes) = self.dumped_bytes.take() {
                    self.xstats.recoveries += 1;
                    // Replay the dump: the slots whose program the cut caught
                    // in flight are re-queued for the flusher (it sheared),
                    // and reading back what the dump wrote — slots and the
                    // mapping delta — is charged as reads of the dump area.
                    let requeued = self.cache.requeue_draining();
                    let read_time = self.cfg.geometry.bus_time(dump_bytes as usize)
                        + self.cfg.geometry.t_read * (requeued as u64 / 4 + 1);
                    t += read_time;
                    snap.requeued_slots = requeued as u64;
                    snap.recovered_via_dump = true;
                }
                self.last_arrival = t;
                t
            }
            CacheProtection::Volatile => {
                // Mapping was already rolled back to the journalled state at
                // cut time; charge a boot-time journal scan.
                self.xstats.recoveries += 1;
                snap.scan_only = true;
                let t = now + 50_000_000;
                self.last_arrival = t;
                t
            }
        };
        // The torn-block repair erases overlap the recharge/scan window but
        // may outlast it; the device is not ready until both finish.
        let ready = ready.max(repair_done);
        self.last_arrival = self.last_arrival.max(ready);
        snap.ready_at = ready;
        self.recovery = Some(snap);
        if let Some(scope) = scope {
            scope.end(ready);
        }
        ready
    }

    fn is_powered(&self) -> bool {
        self.powered
    }

    fn gc_time(&self) -> Nanos {
        self.ftl.gc_time()
    }

    fn set_write_cause(&mut self, cause: WriteCause) {
        self.cur_cause = cause;
    }

    fn stats(&self) -> DeviceStats {
        let f = self.ftl.stats();
        let n = self.nand.stats();
        let spp = self.cfg.slots_per_page() as u64;
        DeviceStats {
            media_pages_written: f.slots_programmed + f.meta_programs * spp,
            gc_erases: f.gc_erases,
            erases: n.erases,
            media_pages_by_cause: f.slots_by_cause,
            ..self.stats
        }
    }
}

impl Forensic for Ssd {
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

    fn page(fill: u8) -> Vec<u8> {
        vec![fill; LOGICAL_PAGE]
    }

    fn dura() -> Ssd {
        Ssd::new(SsdConfig::tiny_test())
    }

    fn volatile() -> Ssd {
        Ssd::new(SsdConfig::tiny_volatile())
    }

    #[test]
    fn write_read_round_trip_through_cache() {
        let mut d = dura();
        let t = d.write(3, &page(7), 0).unwrap();
        let mut buf = page(0);
        let t2 = d.read(3, 1, &mut buf, t).unwrap();
        assert_eq!(buf, page(7));
        assert!(t2 > t);
        assert_eq!(d.ssd_stats().cache_hit_reads, 1);
    }

    #[test]
    fn unwritten_reads_zero() {
        let mut d = dura();
        let mut buf = page(9);
        d.read(100, 1, &mut buf, 0).unwrap();
        assert_eq!(buf, page(0));
    }

    #[test]
    fn cached_ack_is_fast_direct_is_slow() {
        let mut fast = dura();
        let t_fast = fast.write(0, &page(1), 0).unwrap();
        let mut cfg = SsdConfig::tiny_test();
        cfg.cache_enabled = false;
        let mut slow = Ssd::new(cfg);
        let t_slow = slow.write(0, &page(1), 0).unwrap();
        assert!(
            t_fast * 5 < t_slow,
            "cache ack {t_fast} should be much faster than direct {t_slow}"
        );
    }

    #[test]
    fn flush_persists_everything_to_media() {
        let mut d = dura();
        let mut t = 0;
        for i in 0..8u64 {
            t = d.write(i, &page(i as u8), t).unwrap();
        }
        let t = d.flush(t).unwrap();
        assert_eq!(d.cache_occupancy(), 0);
        assert!(d.ftl_stats().slots_programmed >= 8);
        // Still readable from media.
        let mut buf = page(0);
        d.read(5, 1, &mut buf, t).unwrap();
        assert_eq!(buf, page(5));
    }

    #[test]
    fn durable_cache_survives_power_cut() {
        let mut d = dura();
        let t = d.write(3, &page(7), 0).unwrap();
        d.power_cut(t + 1); // acked, still in DRAM
        let t2 = d.reboot(t + 1_000_000);
        let mut buf = page(0);
        d.read(3, 1, &mut buf, t2).unwrap();
        assert_eq!(buf, page(7), "acked write must survive on DuraSSD");
        assert_eq!(d.ssd_stats().lost_acked_slots, 0);
        assert_eq!(d.ssd_stats().dumps, 1);
        assert_eq!(d.ssd_stats().recoveries, 1);
    }

    #[test]
    fn volatile_cache_loses_acked_write() {
        let mut d = volatile();
        let t = d.write(3, &page(7), 0).unwrap();
        d.power_cut(t + 1);
        let t2 = d.reboot(t + 1_000_000);
        let mut buf = page(9);
        d.read(3, 1, &mut buf, t2).unwrap();
        assert_eq!(buf, page(0), "acked write is gone on a volatile cache");
        assert_eq!(d.ssd_stats().lost_acked_slots, 1);
    }

    #[test]
    fn volatile_cache_keeps_flushed_write() {
        let mut d = volatile();
        let t = d.write(3, &page(7), 0).unwrap();
        let t = d.flush(t).unwrap();
        d.power_cut(t + 1);
        let t2 = d.reboot(t + 1_000_000);
        let mut buf = page(0);
        d.read(3, 1, &mut buf, t2).unwrap();
        assert_eq!(buf, page(7), "flushed write must survive everywhere");
    }

    #[test]
    fn inflight_write_is_atomically_discarded() {
        let mut d = dura();
        // Establish an old value and flush it down.
        let t = d.write(3, &page(1), 0).unwrap();
        let t = d.flush(t).unwrap();
        // New write; cut power before its ack time.
        let t2 = d.write(3, &page(2), t).unwrap();
        d.power_cut(t2 - 1);
        let t3 = d.reboot(t2 + 1_000_000);
        let mut buf = page(0);
        d.read(3, 1, &mut buf, t3).unwrap();
        assert_eq!(buf, page(1), "unacked write must fully roll back");
        assert_eq!(d.ssd_stats().aborted_inflight_writes, 1);
    }

    #[test]
    fn multi_page_write_is_atomic_under_cut() {
        let mut d = dura();
        let mut init = Vec::new();
        for i in 0..4u8 {
            init.extend_from_slice(&page(i + 10));
        }
        let t = d.write(0, &init, 0).unwrap();
        let t = d.flush(t).unwrap();
        let mut update = Vec::new();
        for i in 0..4u8 {
            update.extend_from_slice(&page(i + 20));
        }
        let t2 = d.write(0, &update, t).unwrap();
        d.power_cut(t2 - 1); // mid-command
        let t3 = d.reboot(t2 + 1_000_000);
        let mut buf = vec![0u8; 4 * LOGICAL_PAGE];
        d.read(0, 4, &mut buf, t3).unwrap();
        for i in 0..4usize {
            assert_eq!(
                buf[i * LOGICAL_PAGE],
                (i + 10) as u8,
                "page {i}: old value expected, no tearing"
            );
        }
    }

    #[test]
    fn sustained_writes_trigger_backpressure_and_gc() {
        let mut d = dura();
        let cap = d.capacity_pages();
        let mut t = 0;
        // Write far more than the raw device capacity with overwrites.
        for i in 0..(cap * 6) {
            t = d.write(i % cap, &page((i % 200) as u8), t).unwrap();
        }
        assert!(d.ftl_stats().gc_erases > 0, "GC must have run");
        // Everything still readable and consistent.
        let mut buf = page(0);
        let lpn = (cap * 6 - 1) % cap;
        d.read(lpn, 1, &mut buf, t).unwrap();
        assert_eq!(buf[0], ((cap * 6 - 1) % 200) as u8);
    }

    #[test]
    fn flush_of_clean_device_is_cheap_but_nonzero() {
        let mut d = dura();
        let t = d.flush(0).unwrap();
        assert!(t >= d.config().flush_fixed_cost);
        assert!(t < 100 * d.config().flush_fixed_cost);
    }

    #[test]
    fn out_of_range_io_rejected() {
        let mut d = dura();
        let cap = d.capacity_pages();
        assert!(matches!(d.write(cap, &page(1), 0), Err(DevError::OutOfRange { .. })));
        let mut buf = page(0);
        assert!(matches!(d.read(cap - 1, 2, &mut buf, 0), Err(DevError::OutOfRange { .. })));
    }

    #[test]
    fn powered_off_device_rejects_io() {
        let mut d = dura();
        d.power_cut(0);
        assert!(matches!(d.write(0, &page(1), 1), Err(DevError::PoweredOff)));
        let mut buf = page(0);
        assert!(matches!(d.read(0, 1, &mut buf, 1), Err(DevError::PoweredOff)));
        assert!(matches!(d.flush(1), Err(DevError::PoweredOff)));
    }

    #[test]
    fn write_amplification_visible_in_stats() {
        let mut d = dura();
        let mut t = 0;
        for i in 0..32u64 {
            t = d.write(i % 8, &page(i as u8), t).unwrap();
        }
        let t = d.flush(t).unwrap();
        let _ = t;
        let s = d.stats();
        assert_eq!(s.pages_written, 32);
        // Coalescing in the cache means fewer media writes than host writes.
        assert!(
            s.media_pages_written < 32 + 8,
            "coalescing should absorb rewrites: media={}",
            s.media_pages_written
        );
    }

    #[test]
    fn volatile_rollback_can_corrupt_unflushed_overwrites() {
        // The Zheng-style anomaly: overwrite an already-persisted page, GC
        // the old version away, then cut power before the mapping journal
        // catches up. The persisted mapping points into erased flash.
        let mut cfg = SsdConfig::tiny_volatile();
        cfg.cache_enabled = true;
        let mut d = Ssd::new(cfg);
        let cap = d.capacity_pages();
        let mut t = 0;
        for i in 0..cap {
            t = d.write(i, &page(1), t).unwrap();
        }
        t = d.flush(t).unwrap();
        // Heavy churn without any flush: GC erases blocks whose slots the
        // journalled mapping still references.
        for round in 0..6u64 {
            for i in 0..cap {
                t = d.write(i, &page(round as u8 + 2), t).unwrap();
            }
        }
        d.power_cut(t);
        let t2 = d.reboot(t + 1);
        let mut corrupt = 0;
        let mut stale = 0;
        let mut buf = page(0);
        for i in 0..cap {
            match d.read(i, 1, &mut buf, t2 + i) {
                Err(DevError::ShornPage { .. }) => corrupt += 1,
                Ok(_) if buf[0] != 7 => stale += 1,
                _ => {}
            }
        }
        assert!(
            corrupt + stale > 0,
            "a volatile device must exhibit lost/corrupt data in this scenario"
        );
    }

    #[test]
    fn discard_unmaps_and_reads_zero() {
        let mut d = dura();
        let t = d.write(3, &page(7), 0).unwrap();
        let t = d.flush(t).unwrap();
        let t2 = d.discard(3, 1, t).unwrap();
        let mut buf = page(9);
        d.read(3, 1, &mut buf, t2).unwrap();
        assert_eq!(buf, page(0), "trimmed page reads as zero");
        // And it stays zero across a power cycle.
        d.power_cut(t2 + 1);
        let t3 = d.reboot(t2 + 2);
        d.read(3, 1, &mut buf, t3).unwrap();
        assert_eq!(buf, page(0));
    }

    #[test]
    fn discard_of_cached_write_cancels_it() {
        let mut d = dura();
        let t = d.write(5, &page(1), 0).unwrap();
        let t2 = d.discard(5, 1, t).unwrap();
        let mut buf = page(9);
        d.read(5, 1, &mut buf, t2).unwrap();
        assert_eq!(buf, page(0));
    }

    /// Regression, found by the simtest fuzzer (`--target dura --seed 3`,
    /// minimal trace `w:8:4 tcw:11 r:11:3`): TRIM of a page whose latest
    /// write is still un-acked, followed by a power cut before the ack.
    /// The atomic writer's rollback restored the *pre-write* cache entry
    /// from the in-flight record's pre-image, resurrecting data the TRIM
    /// had already discarded — the read returned the old version instead
    /// of zeros. `discard` must purge pre-images of trimmed lpns from the
    /// in-flight records.
    #[test]
    fn trim_of_unacked_write_is_not_resurrected_by_cut_rollback() {
        let mut d = dura();
        // Acked baseline version on lpn 11.
        let t = d.write(11, &page(1), 0).unwrap();
        // New write (un-acked), TRIM while in flight, cut before the ack.
        let t2 = d.write(11, &page(2), t).unwrap();
        d.discard(11, 1, t).unwrap();
        d.power_cut(t2 - 1);
        let t3 = d.reboot(t2 + 1_000_000);
        d.check_invariants().unwrap();
        let mut buf = page(9);
        d.read(11, 1, &mut buf, t3).unwrap();
        assert_eq!(buf, page(0), "TRIM is the last surviving word on lpn 11");
    }

    /// Trim audit (durable path): a TRIM whose map change is still in the
    /// unpersisted delta must survive a power cut. The capacitor dump
    /// carries the delta across the cut, so the trimmed page stays zero
    /// after recovery — it must NOT be resurrected from the journalled
    /// (pre-trim) mapping.
    #[test]
    fn dura_unpersisted_trim_survives_power_cut() {
        let mut d = dura();
        let t = d.write(4, &page(3), 0).unwrap();
        let t = d.flush(t).unwrap(); // journals the mapping: lpn 4 -> media
        let t2 = d.discard(4, 1, t).unwrap(); // map change NOT yet journalled
        d.power_cut(t2 + 1);
        let t3 = d.reboot(t2 + 1_000_000);
        d.check_invariants().unwrap();
        let mut buf = page(9);
        d.read(4, 1, &mut buf, t3).unwrap();
        assert_eq!(buf, page(0), "capacitor dump must preserve the trim");
    }

    /// Trim audit (volatile path): an *unjournalled* TRIM is legitimately
    /// lost on power cut. Volatile recovery replays the journal plus an
    /// out-of-band scan, and the pre-trim copy is still physically intact
    /// on flash with a journalled mapping — so the old data resurrects.
    /// This mirrors real TRIM semantics: a discard is only durable once the
    /// mapping change reaches the journal (i.e. after a flush).
    #[test]
    fn volatile_unflushed_trim_resurrects_old_data_after_cut() {
        let mut d = volatile();
        let t = d.write(4, &page(3), 0).unwrap();
        let t = d.flush(t).unwrap(); // journals lpn 4 -> media copy
        let t2 = d.discard(4, 1, t).unwrap(); // trim never journalled
        d.power_cut(t2 + 1);
        let t3 = d.reboot(t2 + 1_000_000);
        d.check_invariants().unwrap();
        let mut buf = page(9);
        d.read(4, 1, &mut buf, t3).unwrap();
        assert_eq!(buf, page(3), "unjournalled trim rolls back to the journalled mapping");
    }

    /// Trim audit (volatile path): once the TRIM's map change has been
    /// journalled by a flush, it is strictly durable — the page stays zero
    /// across a power cut and the old copy must not resurrect.
    #[test]
    fn volatile_flushed_trim_stays_durable_across_cut() {
        let mut d = volatile();
        let t = d.write(4, &page(3), 0).unwrap();
        let t = d.flush(t).unwrap();
        let t = d.discard(4, 1, t).unwrap();
        let t2 = d.flush(t).unwrap(); // journals the trim
        d.power_cut(t2 + 1);
        let t3 = d.reboot(t2 + 1_000_000);
        d.check_invariants().unwrap();
        let mut buf = page(9);
        d.read(4, 1, &mut buf, t3).unwrap();
        assert_eq!(buf, page(0), "journalled trim is strictly durable");
    }

    /// Regression, found by the simtest fuzzer (`--target dura --seed 0`,
    /// minimal trace `g:42:45 g:162:57 cut cw:6:1 tcw:9 g:90:46 cw:11:4
    /// w:101:4`): a power cut landing while a GC erase is still in flight
    /// leaves the victim block *torn* (NAND refuses to program it until
    /// re-erased), but the FTL had already returned it to the free pool.
    /// The next time the block was handed out as a write frontier every
    /// program failed with `OutOfOrderProgram { expected: u32::MAX }`.
    /// Reboot must sweep for torn erases and re-erase before serving I/O.
    #[test]
    fn torn_gc_erase_is_repaired_on_reboot() {
        let mut d = dura();
        let cap = d.capacity_pages();
        let mut t = 0;
        let mut i = 0u64;
        // Cycle: churn until a fresh GC erase fires, then cut immediately —
        // the write ack precedes the erase completion by design, so the cut
        // lands inside the erase window and tears it. Repeat a few times to
        // hit several victims.
        for _ in 0..4 {
            let before = d.ftl_stats().gc_erases;
            while d.ftl_stats().gc_erases == before {
                t = d.write(i % cap, &page((i % 200) as u8), t).unwrap();
                i += 1;
            }
            d.power_cut(t);
            t = d.reboot(t + 1_000_000);
            d.check_invariants().unwrap();
        }
        // The torn victims re-enter service as frontiers under more churn:
        // with the bug this panicked inside the FTL's frontier program.
        for j in 0..cap * 3 {
            t = d.write(j % cap, &page((j % 199) as u8), t).unwrap();
        }
        d.check_invariants().unwrap();
    }

    #[test]
    fn provenance_conserved_under_gc_churn() {
        // Drive the device far past its raw capacity so GC relocations and
        // mapping journals pile up, then audit the conservation identity:
        // every media page carries exactly one cause tag.
        let mut d = dura();
        let cap = d.capacity_pages();
        let mut t = 0;
        for i in 0..(cap * 6) {
            t = d.write(i % cap, &page((i % 200) as u8), t).unwrap();
        }
        d.flush(t).unwrap();
        d.check_invariants().unwrap();
        let s = d.stats();
        assert!(s.gc_erases > 0, "churn past capacity must GC");
        assert!(s.media_pages_by_cause[WriteCause::GcRelocate.index()] > 0);
        assert!(s.media_pages_by_cause[WriteCause::MapPersist.index()] > 0);
        assert!(s.media_pages_by_cause[WriteCause::HostData.index()] > 0);
        let media_sum: u64 = s.media_pages_by_cause.iter().sum();
        assert_eq!(media_sum, s.media_pages_written, "media attribution must conserve");
        let host_sum: u64 = s.pages_by_cause.iter().sum();
        assert_eq!(host_sum, s.pages_written, "host attribution must conserve");
        // GC and mapping traffic is device-internal: it must never appear
        // at the host boundary.
        assert_eq!(s.pages_by_cause[WriteCause::GcRelocate.index()], 0);
        assert_eq!(s.pages_by_cause[WriteCause::MapPersist.index()], 0);
    }

    #[test]
    fn provenance_conserved_across_dump_and_recovery() {
        // A power cut with slots in flight fires the capacitor dump; the
        // reboot requeues those slots as EmergencyDump work. Conservation
        // must hold across the whole cut/recover/drain cycle.
        let mut d = dura();
        let mut t = 0;
        for i in 0..64u64 {
            t = d.write(i % 8, &page(i as u8), t).unwrap();
        }
        // Touch fresh LPNs once each so the cut lands with slots mid-drain:
        // the flusher marks them draining and nothing overwrites them back
        // to dirty before the lights go out.
        for lpn in 100..116u64 {
            t = d.write(lpn, &page(lpn as u8), t).unwrap();
        }
        d.power_cut(t);
        t = d.reboot(t + 1_000_000);
        t = d.flush(t).unwrap();
        d.check_invariants().unwrap();
        let s = d.stats();
        assert!(d.ssd_stats().dumps >= 1, "capacitor dump must have fired");
        assert!(
            s.media_pages_by_cause[WriteCause::EmergencyDump.index()] > 0,
            "requeued dump slots must be attributed to the dump replay"
        );
        let media_sum: u64 = s.media_pages_by_cause.iter().sum();
        assert_eq!(media_sum, s.media_pages_written, "conservation across cut + recovery");
        // Keep going after recovery: a second cycle must conserve too.
        for i in 0..128u64 {
            t = d.write(i % 16, &page((i + 3) as u8), t).unwrap();
        }
        d.power_cut(t);
        d.reboot(t + 1_000_000);
        d.check_invariants().unwrap();
        let s = d.stats();
        let media_sum: u64 = s.media_pages_by_cause.iter().sum();
        assert_eq!(media_sum, s.media_pages_written);
    }

    /// The dump is what is replayed: a cut frees the slots whose program
    /// completed by it, and `reboot` reads back the bytes the dump wrote and
    /// re-queues only the programs the cut caught in flight.
    #[test]
    fn reboot_replays_the_dump_not_the_cache() {
        let mut d = dura();
        let mut cut = 0;
        for lpn in 0..48u64 {
            cut = d.write(lpn, &page(lpn as u8 + 1), cut).unwrap();
        }
        let drains_ending = |d: &Ssd, after_cut: bool| -> Vec<u64> {
            let ends = |e: &CacheEntry| e.draining_until.filter(|&done| (done > cut) == after_cut);
            d.cache.iter().filter(|(_, e)| ends(e).is_some()).map(|(&lpn, _)| lpn).collect()
        };
        let (on_media, in_flight) = (drains_ending(&d, false), drains_ending(&d, true));
        assert!(!on_media.is_empty() && !in_flight.is_empty(), "the cut must meet both kinds");
        let unpersisted = d.unpersisted_mapping_entries() as u64;
        d.power_cut(cut);
        let dump = d.postmortem().unwrap().dump.expect("capacitor-backed");
        let held = 48 - on_media.len() as u64;
        assert_eq!(dump.bytes, held * LOGICAL_PAGE as u64 + unpersisted * 8);
        assert!(on_media.iter().all(|&lpn| d.cache.get(lpn).is_none()), "freed at the cut");
        let ready = d.reboot(cut + 1_000_000);
        let requeued = d.recovery_snap().unwrap().requeued_slots;
        assert_eq!(requeued, in_flight.len() as u64);
        let geo = d.config().geometry;
        assert_eq!(
            ready - (cut + 1_000_000) - d.config().recharge_time,
            geo.bus_time(dump.bytes as usize) + geo.t_read * (requeued / 4 + 1),
            "reboot reads what the dump wrote"
        );
        let mut buf = page(0);
        for lpn in 0..48u64 {
            d.read(lpn, 1, &mut buf, ready).unwrap();
            assert_eq!(buf, page(lpn as u8 + 1), "lpn {lpn}");
        }
        d.check_invariants().unwrap();
    }

    /// Run one device command inside an anatomy frame and assert the
    /// conservation identity on the resulting breakdown.
    fn framed(
        d: &mut Ssd,
        tel: &Telemetry,
        name: &str,
        now: Nanos,
        f: impl FnOnce(&mut Ssd, Nanos) -> DevResult<Nanos>,
    ) -> (Nanos, telemetry::OpBreakdown) {
        let frame = tel.frame(name, now);
        let done = frame.end(f(d, now).unwrap());
        let bd = tel.last_breakdown().expect("frame closed");
        assert_eq!(bd.wall, done - now, "{name}: wall is the op latency");
        assert!(bd.is_conserved(), "{name}: segments must sum to wall");
        assert_eq!(tel.anatomy_violations(), 0, "{name}: no over-attribution");
        (done, bd)
    }

    fn anatomy_dev(cfg: SsdConfig) -> (Ssd, Telemetry) {
        let mut d = Ssd::new(cfg);
        let tel = Telemetry::new();
        tel.enable_anatomy(4);
        d.attach_telemetry(tel.clone());
        (d, tel)
    }

    #[test]
    fn anatomy_conserves_across_command_mix() {
        let (mut d, tel) = anatomy_dev(SsdConfig::tiny_test());
        let cap = d.capacity_pages();
        let mut t = 0;
        for i in 0..(cap * 3) {
            let (done, _) = framed(&mut d, &tel, "dev.write", t, |d, now| {
                d.write(i % cap, &page(i as u8), now)
            });
            t = done;
            if i % 7 == 0 {
                let (done, _) = framed(&mut d, &tel, "dev.read", t, |d, now| {
                    let mut buf = page(0);
                    d.read(i % cap, 1, &mut buf, now)
                });
                t = done;
            }
            if i % 97 == 0 {
                let (done, _) = framed(&mut d, &tel, "dev.flush", t, |d, now| d.flush(now));
                t = done;
            }
        }
        let (_, _) = framed(&mut d, &tel, "dev.discard", t, |d, now| d.discard(0, 4, now));
        assert_eq!(tel.anatomy_violations(), 0);
        // The mix exercised the taxonomy: transfers on every command, media
        // reads on cache misses, programs via direct flush drains.
        assert!(tel.histogram("seg.xfer").unwrap().count() > 0);
        assert!(tel.histogram("seg.flush_cache").unwrap().count() > 0);
        d.check_invariants().unwrap();
    }

    #[test]
    fn durable_write_tail_has_no_flush_cache_segment() {
        // The paper's claim at device granularity: with the capacitor-backed
        // cache absorbing fsync, no write ever carries flush-cache time.
        let (mut d, tel) = anatomy_dev(SsdConfig::tiny_test());
        let mut t = 0;
        for i in 0..64u64 {
            let (done, bd) =
                framed(&mut d, &tel, "dev.write", t, |d, now| d.write(i % 16, &page(1), now));
            assert_eq!(bd.seg(SegKind::FlushCache), 0, "no barrier, no flush segment");
            t = done;
        }
        // A volatile deployment flushing between writes pays it on the very
        // next command (the barrier pushes admission out).
        let (mut v, vtel) = anatomy_dev(SsdConfig::tiny_volatile());
        let t1 = v.write(0, &page(1), 0).unwrap();
        let fl = v.flush(t1).unwrap();
        let (_, bd) =
            framed(&mut v, &vtel, "dev.write", fl - 1, |d, now| d.write(1, &page(2), now));
        assert!(bd.seg(SegKind::FlushCache) > 0, "barrier wait is flush-cache time");
    }

    #[test]
    fn flush_breakdown_is_fully_attributed() {
        let (mut d, tel) = anatomy_dev(SsdConfig::tiny_volatile());
        let mut t = 0;
        for i in 0..8u64 {
            t = d.write(i, &page(i as u8), t).unwrap();
        }
        let (_, bd) = framed(&mut d, &tel, "dev.flush", t, |d, now| d.flush(now));
        assert!(bd.seg(SegKind::FlushCache) > 0, "drain time is flush-cache");
        assert_eq!(
            bd.seg(SegKind::MapPersist),
            0,
            "the barrier-triggered mapping persist is part of the flush-cache cost"
        );
        assert_eq!(bd.seg(SegKind::Host), 0, "flush is attributed to the nanosecond");
    }

    #[test]
    fn gc_segment_appears_only_when_gc_preempted_the_op() {
        let (mut d, tel) = anatomy_dev(SsdConfig::tiny_test());
        let cap = d.capacity_pages();
        let mut t = 0;
        let mut gc_charged_ops = 0u64;
        for i in 0..(cap * 6) {
            let gc_before = d.ftl_stats().gc_ns;
            let (done, bd) = framed(&mut d, &tel, "dev.write", t, |d, now| {
                d.write(i % cap, &page(i as u8), now)
            });
            t = done;
            let gc_delta = d.ftl_stats().gc_ns - gc_before;
            if gc_delta == 0 {
                assert_eq!(
                    bd.seg(SegKind::GcWait),
                    0,
                    "op {i}: GC segment without any GC activity"
                );
            }
            if bd.seg(SegKind::GcWait) > 0 {
                assert!(gc_delta > 0, "op {i}: GC segment requires GC preemption");
                gc_charged_ops += 1;
            }
        }
        assert!(d.ftl_stats().gc_erases > 0, "workload must trigger GC");
        assert!(
            gc_charged_ops > 0,
            "sustained overwrite pressure must surface GC interference in some op"
        );
        // First write on a fresh device can never carry a GC segment.
        let (mut fresh, ftel) = anatomy_dev(SsdConfig::tiny_test());
        let (_, bd) = framed(&mut fresh, &ftel, "dev.write", 0, |d, now| d.write(0, &page(1), now));
        assert_eq!(bd.seg(SegKind::GcWait), 0);
    }

    #[test]
    fn littles_law_holds_on_the_host_interface() {
        // Utilization form of Little's law on the SATA link: the
        // time-average number of commands in service, L = busy_time / T,
        // equals λ·S̄ = (N/T)·(Σ service / N). Cross-multiplying, simkit's
        // Timeline busy-time accounting must equal the anatomy's `seg.xfer`
        // attribution *exactly* — two independent accountings of the same
        // nanoseconds.
        let (mut d, tel) = anatomy_dev(SsdConfig::tiny_test());
        let mut t = 0;
        let n = 200u64;
        for i in 0..n {
            let (done, _) =
                framed(&mut d, &tel, "dev.write", t, |d, now| d.write(i % 32, &page(1), now));
            t = done;
        }
        let xfer = tel.histogram("seg.xfer").unwrap();
        assert_eq!(xfer.count(), n);
        let (sata_busy, _, _) = d.busy_times();
        assert_eq!(
            xfer.sum(),
            sata_busy as u128,
            "anatomy transfer attribution must equal Timeline busy time"
        );
        // Closed loop at queue depth 1: no command ever queues behind
        // another on the interface, so the wait side of the split is zero...
        assert!(tel.histogram("seg.ncq_wait").is_none());
        // ...while a burst issued at one instant serialises: command k
        // waits behind k predecessors, and the measured waits match the
        // deterministic k·S (k-1)/2 total of a D/D/1 queue exactly.
        let (mut b, btel) = anatomy_dev(SsdConfig::tiny_test());
        let k = 8u64;
        for i in 0..k {
            let frame = btel.frame("dev.write", 0);
            frame.end(b.write(i, &page(1), 0).unwrap());
        }
        let svc = (btel.histogram("seg.xfer").unwrap().sum() / k as u128) as u64;
        let waits = btel.histogram("seg.ncq_wait").unwrap();
        assert_eq!(waits.sum(), (svc * k * (k - 1) / 2) as u128, "D/D/1 burst queueing");
        assert_eq!(btel.anatomy_violations(), 0);
        // The admission/NCQ queue-depth gauges are live after the burst.
        assert!(btel.gauge("ssd.cache_dirty").is_some());
        assert!(btel.gauge("ssd.ncq_backlog_ns").is_some());
        assert!(btel.gauge("nand.ch0.queue").is_some());
    }

    #[test]
    fn wear_stays_bounded_under_skewed_churn() {
        // Hammer a handful of logical pages; wear-aware GC must spread the
        // erases rather than thrash a single block forever.
        let mut d = dura();
        let mut t = 0;
        for i in 0..6_000u64 {
            t = d.write(i % 8, &page(i as u8), t).unwrap();
        }
        let s = d.ftl_stats();
        assert!(s.gc_erases > 0, "churn must GC");
        let (min, max) = d.wear_spread();
        // Greedy GC with wear tie-breaking keeps the spread bounded: the
        // most-erased data block stays within a constant band of the total.
        assert!(max >= 1);
        assert!(
            (max - min) as u64 <= s.gc_erases,
            "wear spread {max}-{min} too wide for {} erases",
            s.gc_erases
        );
    }
}
