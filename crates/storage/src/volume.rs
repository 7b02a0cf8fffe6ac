//! Volumes: a block device plus the host's barrier policy, and a trivial
//! extent allocator for carving page files out of a device.

use crate::device::{BlockDevice, CauseCounts, DevResult, DeviceStats, WriteCause, LOGICAL_PAGE};
use simkit::Nanos;
use telemetry::{SegKind, Telemetry};

/// Cost of an `fsync` that does **not** reach the device (metadata bookkeeping
/// in the kernel): a couple of microseconds. This is what the paper's
/// `nobarrier` mount option reduces fsync to.
const FSYNC_SOFT_COST: Nanos = 2_000;

/// Pre-formatted telemetry names for one volume, so the hot path does not
/// re-allocate metric keys per I/O.
struct VolumeTel {
    tel: Telemetry,
    read: String,
    write: String,
    flush: String,
    fsync_soft: String,
    discard: String,
}

/// A mounted device with a write-barrier policy.
///
/// * `barriers = true` — the file-system default: `fsync` issues a FLUSH
///   CACHE command to the device and blocks until it completes (paper Fig 2).
/// * `barriers = false` — the `nobarrier` mount option: `fsync` orders writes
///   in the kernel but never flushes the device cache. Safe **only** on a
///   device with a durable cache (DuraSSD §2.2); on a volatile cache it
///   trades durability for speed.
///
/// A volume is the natural place to observe *host-visible* device latency,
/// so when a [`Telemetry`] handle is attached every read/write/flush/discard
/// is one telemetry scope: a `dev` trace span, a per-device latency
/// histogram and the anatomy frame the device charges its segments into.
pub struct Volume<D: BlockDevice> {
    dev: D,
    barriers: bool,
    fsyncs: u64,
    tel: Option<VolumeTel>,
    /// Write provenance: the cause every write is tagged with, set for the
    /// duration of a [`Volume::with_cause`] scope ([`WriteCause::HostData`]
    /// outside any).
    cause: WriteCause,
    /// Host-issued logical pages per declared cause (host boundary of the
    /// WAF pipeline; the device counts its own received/media boundaries).
    host_pages_by_cause: CauseCounts,
}

impl<D: BlockDevice> Volume<D> {
    /// Mount `dev` with the given barrier policy.
    pub fn new(dev: D, barriers: bool) -> Self {
        Self {
            dev,
            barriers,
            fsyncs: 0,
            tel: None,
            cause: WriteCause::default(),
            host_pages_by_cause: CauseCounts::default(),
        }
    }

    /// Run `f` with every write tagged `cause`; the enclosing cause is
    /// restored when `f` returns, so scopes nest and the innermost wins.
    pub fn with_cause<R>(&mut self, cause: WriteCause, f: impl FnOnce(&mut Self) -> R) -> R {
        let outer = std::mem::replace(&mut self.cause, cause);
        let r = f(self);
        self.cause = outer;
        r
    }

    /// The cause the next write would be tagged with.
    pub fn current_cause(&self) -> WriteCause {
        self.cause
    }

    /// Host-issued logical pages per cause (see [`WriteCause::index`]).
    pub fn host_pages_by_cause(&self) -> CauseCounts {
        self.host_pages_by_cause
    }

    /// Attach a telemetry handle; latencies are recorded under
    /// `dev.<label>.{read,write,flush,discard}`.
    pub fn attach_telemetry(&mut self, tel: Telemetry, label: &str) {
        self.tel = Some(VolumeTel {
            tel,
            read: format!("dev.{label}.read"),
            write: format!("dev.{label}.write"),
            flush: format!("dev.{label}.flush"),
            fsync_soft: format!("dev.{label}.fsync_soft"),
            discard: format!("dev.{label}.discard"),
        });
    }

    /// The attached telemetry handle, if any.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.tel.as_ref().map(|t| &t.tel)
    }

    /// Whether write barriers are enabled.
    pub fn barriers(&self) -> bool {
        self.barriers
    }

    /// Issue one device command inside its scope: a `dev` trace span, an
    /// anatomy frame and a latency sample, all under the command's
    /// pre-formatted name. The frame makes the device's segment charges —
    /// NCQ wait, channel wait, media service, GC, flush-cache — land both in
    /// the command's own breakdown and, because frames nest, in whatever
    /// host operation (engine commit, docstore set) encloses it. A failed
    /// command drops the scope, which closes it at `now` without a sample,
    /// so no frame dangles to corrupt later attribution.
    fn command(
        &mut self,
        name: fn(&VolumeTel) -> &str,
        now: Nanos,
        issue: impl FnOnce(&mut D) -> DevResult<Nanos>,
    ) -> DevResult<Nanos> {
        let scope = self.tel.as_ref().map(|t| t.tel.framed_span("dev", name(t), now));
        let end = issue(&mut self.dev)?;
        Ok(scope.map_or(end, |s| s.close(end)))
    }

    /// Direct read of logical pages.
    pub fn read(&mut self, lpn: u64, pages: u32, buf: &mut [u8], now: Nanos) -> DevResult<Nanos> {
        self.command(|t| &t.read, now, |dev| dev.read(lpn, pages, buf, now))
    }

    /// Direct write of logical pages, tagged with the innermost declared
    /// cause (provenance for the WAF accounting at every boundary below).
    pub fn write(&mut self, lpn: u64, data: &[u8], now: Nanos) -> DevResult<Nanos> {
        let cause = self.current_cause();
        self.host_pages_by_cause[cause.index()] += (data.len() / LOGICAL_PAGE) as u64;
        self.dev.set_write_cause(cause);
        self.command(|t| &t.write, now, |dev| dev.write(lpn, data, now))
    }

    /// `fsync`: flush the device cache if barriers are on, otherwise only
    /// pay the in-kernel cost.
    ///
    /// With barriers the entire wait is a FLUSH CACHE command, which the
    /// device charges as `flush_cache` segments. Without barriers no FLUSH
    /// CACHE is issued: the soft in-kernel cost is histogrammed separately
    /// and charged as `wal_fsync` — which is exactly why a durable-cache
    /// device mounted `nobarrier` shows a zero `flush_cache` share in the
    /// benchmark reports.
    pub fn fsync(&mut self, now: Nanos) -> DevResult<Nanos> {
        self.fsyncs += 1;
        if self.barriers {
            self.command(|t| &t.flush, now, |dev| dev.flush(now))
        } else {
            let done = now + FSYNC_SOFT_COST;
            if let Some(tel) = &self.tel {
                tel.tel.trace_instant("dev", &tel.fsync_soft, now);
                // The in-kernel cost of a nobarrier fsync is WAL-fsync
                // time in the anatomy: it is what commit-time durability
                // costs when no FLUSH CACHE is issued, and it is the
                // *only* durability segment a durable-cache deployment
                // should ever show.
                let frame = tel.tel.frame(&tel.fsync_soft, now);
                tel.tel.seg(SegKind::WalFsync, FSYNC_SOFT_COST);
                frame.close(done);
            }
            Ok(done)
        }
    }

    /// Number of fsync calls made against this volume.
    pub fn fsync_count(&self) -> u64 {
        self.fsyncs
    }

    /// Device capacity in logical pages.
    pub fn capacity_pages(&self) -> u64 {
        self.dev.capacity_pages()
    }

    /// TRIM a range (file deletion, compaction).
    pub fn discard(&mut self, lpn: u64, pages: u32, now: Nanos) -> DevResult<Nanos> {
        self.command(|t| &t.discard, now, |dev| dev.discard(lpn, pages, now))
    }

    /// Cut power to the underlying device.
    pub fn power_cut(&mut self, now: Nanos) {
        self.dev.power_cut(now);
    }

    /// Reboot the underlying device; returns when it is ready (a powered
    /// one already is).
    pub fn reboot(&mut self, now: Nanos) -> Nanos {
        if self.dev.is_powered() {
            return now;
        }
        self.dev.reboot(now)
    }

    /// Device statistics.
    pub fn device_stats(&self) -> DeviceStats {
        self.dev.stats()
    }

    /// Access the device model directly (used by tests and fault-injection
    /// harnesses).
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// Mutable access to the device model.
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.dev
    }

    /// Unmount: take the device back (e.g. to hand it to recovery).
    pub fn into_device(self) -> D {
        self.dev
    }
}

/// Hands out non-overlapping extents of a volume as page files.
///
/// This stands in for the file system's allocator; databases in the paper's
/// setup use `O_DIRECT` pre-allocated files, so contiguous extents are the
/// faithful model.
pub struct VolumeManager {
    capacity: u64,
    next_free: u64,
}

/// A named, contiguous extent on a volume (in logical pages).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First logical page of the extent.
    pub base: u64,
    /// Length in logical pages.
    pub pages: u64,
}

impl VolumeManager {
    /// Manage a device of `capacity` logical pages.
    pub fn new(capacity: u64) -> Self {
        Self { capacity, next_free: 0 }
    }

    /// Allocate `pages` logical pages; panics if the volume is exhausted
    /// (experiment setup error, not a runtime condition).
    pub fn alloc(&mut self, pages: u64) -> Extent {
        assert!(
            self.next_free + pages <= self.capacity,
            "volume exhausted: want {pages} pages, {} free",
            self.capacity - self.next_free
        );
        let e = Extent { base: self.next_free, pages };
        self.next_free += pages;
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::LOGICAL_PAGE;
    use crate::testdev::MemDevice;

    #[test]
    fn fsync_with_barriers_flushes_device() {
        let mut v = Volume::new(MemDevice::new(16), true);
        v.fsync(0).unwrap();
        assert_eq!(v.device_stats().flushes, 1);
        assert_eq!(v.fsync_count(), 1);
    }

    #[test]
    fn fsync_without_barriers_skips_flush() {
        let mut v = Volume::new(MemDevice::new(16), false);
        let t = v.fsync(0).unwrap();
        assert_eq!(t, FSYNC_SOFT_COST);
        assert_eq!(v.device_stats().flushes, 0);
    }

    #[test]
    fn volume_round_trips_data() {
        let mut v = Volume::new(MemDevice::new(16), true);
        let data = vec![7u8; LOGICAL_PAGE];
        v.write(3, &data, 0).unwrap();
        let mut back = vec![0u8; LOGICAL_PAGE];
        v.read(3, 1, &mut back, 100).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn allocator_hands_out_disjoint_extents() {
        let mut m = VolumeManager::new(100);
        let a = m.alloc(10);
        let b = m.alloc(20);
        assert_eq!(a, Extent { base: 0, pages: 10 });
        assert_eq!(b, Extent { base: 10, pages: 20 });
    }

    #[test]
    #[should_panic(expected = "volume exhausted")]
    fn allocator_panics_when_full() {
        let mut m = VolumeManager::new(8);
        m.alloc(9);
    }

    #[test]
    fn discard_passthrough_defaults_to_noop() {
        let mut v = Volume::new(MemDevice::new(16), true);
        let data = vec![7u8; LOGICAL_PAGE];
        v.write(3, &data, 0).unwrap();
        let t = v.discard(3, 1, 100).unwrap();
        assert_eq!(t, 100, "default discard is free");
        let mut back = vec![0u8; LOGICAL_PAGE];
        v.read(3, 1, &mut back, t).unwrap();
        assert_eq!(back, data, "no-op discard keeps data");
    }

    #[test]
    fn cause_scopes_nest_innermost_wins_and_default_to_host_data() {
        use crate::device::WriteCause;
        let mut v = Volume::new(MemDevice::new(16), true);
        let data = vec![7u8; LOGICAL_PAGE];
        // No declared cause: host data.
        assert_eq!(v.current_cause(), WriteCause::HostData);
        v.write(0, &data, 0).unwrap();
        // Nested contexts: the innermost annotation wins.
        v.with_cause(WriteCause::WalAppend, |v| {
            v.write(1, &data, 10).unwrap();
            v.with_cause(WriteCause::PageImage, |v| {
                assert_eq!(v.current_cause(), WriteCause::PageImage);
                v.write(2, &data, 20).unwrap();
            });
            v.write(3, &data, 30).unwrap();
        });
        // Back to the default outside every scope.
        v.write(4, &data, 40).unwrap();
        let by_cause = v.host_pages_by_cause();
        assert_eq!(by_cause[WriteCause::HostData.index()], 2);
        assert_eq!(by_cause[WriteCause::WalAppend.index()], 2);
        assert_eq!(by_cause[WriteCause::PageImage.index()], 1);
        let total: u64 = by_cause.iter().sum();
        assert_eq!(total, v.device_stats().pages_written, "every host page attributed");
    }

    #[test]
    fn volume_ops_open_anatomy_frames() {
        let tel = Telemetry::new();
        tel.enable_anatomy(2);
        let mut v = Volume::new(MemDevice::new(16), true);
        v.attach_telemetry(tel.clone(), "t");
        let data = vec![7u8; LOGICAL_PAGE];
        let t = v.write(3, &data, 0).unwrap();
        let bd = tel.last_breakdown().unwrap();
        assert_eq!(bd.name, "dev.t.write");
        assert!(bd.is_conserved());
        let mut back = vec![0u8; LOGICAL_PAGE];
        let t = v.read(3, 1, &mut back, t).unwrap();
        assert_eq!(tel.last_breakdown().unwrap().name, "dev.t.read");
        let t = v.fsync(t).unwrap();
        assert_eq!(tel.last_breakdown().unwrap().name, "dev.t.flush");
        v.discard(3, 1, t).unwrap();
        assert_eq!(tel.last_breakdown().unwrap().name, "dev.t.discard");
        assert_eq!(tel.anatomy_violations(), 0);
        assert_eq!(tel.frame_depth(), 0, "no dangling frames");
    }

    #[test]
    fn nobarrier_fsync_charges_wal_fsync_not_flush_cache() {
        let tel = Telemetry::new();
        tel.enable_anatomy(2);
        let mut v = Volume::new(MemDevice::new(16), false);
        v.attach_telemetry(tel.clone(), "t");
        // Enclosing host-op frame, as a commit would open.
        let commit = tel.frame("engine.commit", 0);
        let done = v.fsync(0).unwrap();
        commit.end(done);
        let bd = tel.last_breakdown().unwrap();
        assert_eq!(bd.seg(SegKind::WalFsync), FSYNC_SOFT_COST, "soft cost is wal_fsync");
        assert_eq!(bd.seg(SegKind::FlushCache), 0, "nobarrier: no flush segment, ever");
        assert!(bd.is_conserved());
        // The fsync's own frame conserved too.
        let soft = tel.outliers_for("dev.t.fsync_soft");
        assert_eq!(soft.len(), 1);
        assert_eq!(soft[0].wall, FSYNC_SOFT_COST);
        assert_eq!(soft[0].seg(SegKind::WalFsync), FSYNC_SOFT_COST);
    }

    #[test]
    fn failed_command_does_not_leak_a_frame() {
        let tel = Telemetry::new();
        tel.enable_anatomy(2);
        let mut v = Volume::new(MemDevice::new(16), true);
        v.attach_telemetry(tel.clone(), "t");
        let data = vec![7u8; LOGICAL_PAGE];
        assert!(v.write(99, &data, 0).is_err(), "out of range");
        assert_eq!(tel.frame_depth(), 0, "error path must close its frame");
        assert_eq!(tel.anatomy_violations(), 0);
    }
}
