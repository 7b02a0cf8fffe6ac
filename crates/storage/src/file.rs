//! Direct-I/O page files.
//!
//! A [`PageFile`] is a contiguous extent of a volume accessed in fixed-size
//! *file pages* — the database page size (4, 8 or 16KB), always a multiple of
//! the device's 4KB logical page. This models the paper's setup: databases
//! on pre-allocated `O_DIRECT` files whose page size is configured to match
//! (or exceed) the device mapping granularity (§2.1 last paragraph).
//!
//! A `PageFile` holds only layout; callers pass the volume explicitly, so
//! many files can share one device without interior mutability.

use crate::device::{BlockDevice, DevError, DevResult, LOGICAL_PAGE};
use crate::volume::{Extent, Volume, VolumeManager};
use simkit::Nanos;

/// A contiguous, fixed-page-size file on a volume.
#[derive(Debug, Clone, Copy)]
pub struct PageFile {
    extent: Extent,
    page_size: usize,
    pages: u64,
}

impl PageFile {
    /// Allocate a file of `pages` pages of `page_size` bytes from `vm`.
    ///
    /// `page_size` must be a positive multiple of the 4KB logical page.
    pub fn create(vm: &mut VolumeManager, pages: u64, page_size: usize) -> Self {
        assert!(
            page_size >= LOGICAL_PAGE && page_size.is_multiple_of(LOGICAL_PAGE),
            "page size {page_size} must be a multiple of {LOGICAL_PAGE}"
        );
        let lppp = (page_size / LOGICAL_PAGE) as u64; // logical pages per file page
        let extent = vm.alloc(pages * lppp);
        Self { extent, page_size, pages }
    }

    /// The file's page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of file pages.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// Logical pages per file page.
    fn lppp(&self) -> u32 {
        (self.page_size / LOGICAL_PAGE) as u32
    }

    fn check(&self, page_no: u64, buf_len: usize) -> DevResult<u64> {
        if page_no >= self.pages {
            return Err(DevError::OutOfRange {
                lpn: page_no,
                pages: self.lppp(),
                capacity: self.pages,
            });
        }
        if buf_len != self.page_size {
            return Err(DevError::BadLength { expected: self.page_size, got: buf_len });
        }
        Ok(self.extent.base + page_no * self.lppp() as u64)
    }

    /// Read file page `page_no` into `buf` (`buf.len() == page_size`).
    pub fn read_page<D: BlockDevice>(
        &self,
        vol: &mut Volume<D>,
        page_no: u64,
        buf: &mut [u8],
        now: Nanos,
    ) -> DevResult<Nanos> {
        let lpn = self.check(page_no, buf.len())?;
        vol.read(lpn, self.lppp(), buf, now)
    }

    /// Write file page `page_no` from `data` (`data.len() == page_size`).
    pub fn write_page<D: BlockDevice>(
        &self,
        vol: &mut Volume<D>,
        page_no: u64,
        data: &[u8],
        now: Nanos,
    ) -> DevResult<Nanos> {
        let lpn = self.check(page_no, data.len())?;
        vol.write(lpn, data, now)
    }

    /// Read `n` consecutive file pages in one device command.
    pub fn read_pages<D: BlockDevice>(
        &self,
        vol: &mut Volume<D>,
        page_no: u64,
        buf: &mut [u8],
        now: Nanos,
    ) -> DevResult<Nanos> {
        if buf.is_empty() || !buf.len().is_multiple_of(self.page_size) {
            return Err(DevError::BadLength { expected: self.page_size, got: buf.len() });
        }
        let n = (buf.len() / self.page_size) as u64;
        if page_no + n > self.pages {
            return Err(DevError::OutOfRange {
                lpn: page_no,
                pages: (n * self.lppp() as u64) as u32,
                capacity: self.pages,
            });
        }
        let lpn = self.extent.base + page_no * self.lppp() as u64;
        vol.read(lpn, (n * self.lppp() as u64) as u32, buf, now)
    }

    /// [`PageFile::read_pages`] for a recovery scan, which has to get past
    /// what a power cut tore: when the command reports a shorn page the run
    /// is re-read page by page, and each shorn page comes back as zeroes —
    /// what a page never written reads as. Any other error is returned.
    /// Beside the completion time comes the first shorn file page, if any,
    /// for a scan that must not trust what follows a tear.
    pub fn read_pages_past_shorn<D: BlockDevice>(
        &self,
        vol: &mut Volume<D>,
        page_no: u64,
        buf: &mut [u8],
        now: Nanos,
    ) -> DevResult<(Nanos, Option<u64>)> {
        match self.read_pages(vol, page_no, buf, now) {
            Err(DevError::ShornPage { .. }) => {}
            other => return other.map(|done| (done, None)),
        }
        let (mut t, mut first_shorn) = (now, None);
        for (page, out) in (page_no..).zip(buf.chunks_exact_mut(self.page_size)) {
            match self.read_page(vol, page, out, t) {
                Ok(done) => t = done,
                Err(DevError::ShornPage { .. }) => {
                    out.fill(0);
                    first_shorn = first_shorn.or(Some(page));
                }
                Err(e) => return Err(e),
            }
        }
        Ok((t, first_shorn))
    }

    /// Write `n` consecutive file pages in one device command (used by the
    /// double-write buffer and the log, which batch sequential writes).
    pub fn write_pages<D: BlockDevice>(
        &self,
        vol: &mut Volume<D>,
        page_no: u64,
        data: &[u8],
        now: Nanos,
    ) -> DevResult<Nanos> {
        if data.is_empty() || !data.len().is_multiple_of(self.page_size) {
            return Err(DevError::BadLength { expected: self.page_size, got: data.len() });
        }
        let n = (data.len() / self.page_size) as u64;
        if page_no + n > self.pages {
            return Err(DevError::OutOfRange {
                lpn: page_no,
                pages: (n * self.lppp() as u64) as u32,
                capacity: self.pages,
            });
        }
        let lpn = self.extent.base + page_no * self.lppp() as u64;
        vol.write(lpn, data, now)
    }

    /// TRIM `pages` consecutive file pages starting at `page_no` (a file
    /// giving up part of itself: compaction's old region).
    pub fn discard<D: BlockDevice>(
        &self,
        vol: &mut Volume<D>,
        page_no: u64,
        pages: u64,
        now: Nanos,
    ) -> DevResult<Nanos> {
        let lpns = pages * self.lppp() as u64;
        if page_no + pages > self.pages || lpns > u32::MAX as u64 {
            return Err(DevError::OutOfRange {
                lpn: page_no,
                pages: lpns.min(u32::MAX as u64) as u32,
                capacity: self.pages,
            });
        }
        vol.discard(self.extent.base + page_no * self.lppp() as u64, lpns as u32, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdev::MemDevice;

    fn setup(page_size: usize) -> (Volume<MemDevice>, PageFile) {
        let dev = MemDevice::new(1024);
        let vol = Volume::new(dev, true);
        let mut vm = VolumeManager::new(1024);
        let f = PageFile::create(&mut vm, 16, page_size);
        (vol, f)
    }

    #[test]
    fn round_trip_16k_pages() {
        let (mut vol, f) = setup(16384);
        let data = vec![0xabu8; 16384];
        f.write_page(&mut vol, 5, &data, 0).unwrap();
        let mut back = vec![0u8; 16384];
        f.read_page(&mut vol, 5, &mut back, 10).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn rejects_wrong_buffer_size() {
        let (mut vol, f) = setup(8192);
        let mut small = vec![0u8; 4096];
        assert!(matches!(f.read_page(&mut vol, 0, &mut small, 0), Err(DevError::BadLength { .. })));
    }

    #[test]
    fn rejects_out_of_file_page() {
        let (mut vol, f) = setup(4096);
        let data = vec![0u8; 4096];
        assert!(matches!(f.write_page(&mut vol, 16, &data, 0), Err(DevError::OutOfRange { .. })));
    }

    #[test]
    fn batched_sequential_write() {
        let (mut vol, f) = setup(4096);
        let data = vec![1u8; 4 * 4096];
        f.write_pages(&mut vol, 2, &data, 0).unwrap();
        let mut back = vec![0u8; 4096];
        f.read_page(&mut vol, 4, &mut back, 10).unwrap();
        assert_eq!(back, vec![1u8; 4096]);
        // One device command for four pages.
        assert_eq!(vol.device_stats().writes, 1);
        assert_eq!(vol.device_stats().pages_written, 4);
    }

    #[test]
    fn batched_write_cannot_overrun() {
        let (mut vol, f) = setup(4096);
        let data = vec![1u8; 4 * 4096];
        assert!(f.write_pages(&mut vol, 14, &data, 0).is_err());
    }

    #[test]
    #[should_panic(expected = "multiple of")]
    fn page_size_must_align() {
        let mut vm = VolumeManager::new(100);
        PageFile::create(&mut vm, 4, 6000);
    }

    /// A `MemDevice` that remembers the TRIMs it is sent and reports the
    /// LPN in `.2`, if any, as shorn.
    struct Trims(MemDevice, Vec<(u64, u32)>, Option<u64>);

    impl BlockDevice for Trims {
        fn capacity_pages(&self) -> u64 {
            self.0.capacity_pages()
        }
        fn read(&mut self, lpn: u64, pages: u32, buf: &mut [u8], now: Nanos) -> DevResult<Nanos> {
            if let Some(shorn) = self.2.filter(|s| (lpn..lpn + pages as u64).contains(s)) {
                return Err(DevError::ShornPage { lpn: shorn });
            }
            self.0.read(lpn, pages, buf, now)
        }
        fn write(&mut self, lpn: u64, data: &[u8], now: Nanos) -> DevResult<Nanos> {
            self.0.write(lpn, data, now)
        }
        fn flush(&mut self, now: Nanos) -> DevResult<Nanos> {
            self.0.flush(now)
        }
        fn power_cut(&mut self, now: Nanos) {
            self.0.power_cut(now)
        }
        fn reboot(&mut self, now: Nanos) -> Nanos {
            self.0.reboot(now)
        }
        fn is_powered(&self) -> bool {
            self.0.is_powered()
        }
        fn discard(&mut self, lpn: u64, pages: u32, now: Nanos) -> DevResult<Nanos> {
            self.1.push((lpn, pages));
            Ok(now)
        }
        fn stats(&self) -> crate::device::DeviceStats {
            self.0.stats()
        }
    }

    #[test]
    fn discard_is_relative_to_the_file_and_bounded_by_it() {
        let mut vol = Volume::new(Trims(MemDevice::new(1024), Vec::new(), None), true);
        let mut vm = VolumeManager::new(1024);
        let _first = PageFile::create(&mut vm, 10, 4096);
        // 8 KB pages at a non-zero extent base: file page 3 is LPN 10 + 6.
        let f = PageFile::create(&mut vm, 16, 8192);
        f.discard(&mut vol, 3, 5, 0).unwrap();
        f.discard(&mut vol, 0, 16, 0).unwrap();
        assert_eq!(vol.device().1, [(16, 10), (10, 32)]);
        assert!(matches!(f.discard(&mut vol, 12, 5, 0), Err(DevError::OutOfRange { .. })));
        assert_eq!(vol.device().1.len(), 2, "an out-of-file TRIM reaches no device");
    }

    #[test]
    fn a_scan_reads_past_a_shorn_page_and_stops_at_any_other_error() {
        let mut vol = Volume::new(Trims(MemDevice::new(64), Vec::new(), None), true);
        let mut vm = VolumeManager::new(64);
        let f = PageFile::create(&mut vm, 8, 8192);
        f.write_pages(&mut vol, 0, &vec![7u8; 8 * 8192], 0).unwrap();
        let mut buf = vec![0xEEu8; 4 * 8192];
        // Intact run: one command.
        let (_, shorn) = f.read_pages_past_shorn(&mut vol, 2, &mut buf, 0).unwrap();
        assert_eq!((vol.device_stats().reads, &buf, shorn), (1, &vec![7u8; 4 * 8192], None));
        // File page 3 (LPNs 6, 7) is shorn: the command, then each page.
        vol.device_mut().2 = Some(7);
        let (_, shorn) = f.read_pages_past_shorn(&mut vol, 2, &mut buf, 0).unwrap();
        assert_eq!(shorn, Some(3));
        assert_eq!(vol.device_stats().reads, 1 + 3, "the shorn page's read is not served");
        assert_eq!(buf[..8192], vec![7u8; 8192][..]);
        assert_eq!(buf[8192..2 * 8192], vec![0u8; 8192][..], "shorn reads as never written");
        assert_eq!(buf[2 * 8192..], vec![7u8; 2 * 8192][..]);
        assert!(matches!(
            f.read_pages_past_shorn(&mut vol, 6, &mut buf, 0),
            Err(DevError::OutOfRange { .. })
        ));
    }

    #[test]
    fn files_do_not_overlap() {
        let dev = MemDevice::new(1024);
        let mut vol = Volume::new(dev, true);
        let mut vm = VolumeManager::new(1024);
        let a = PageFile::create(&mut vm, 4, 4096);
        let b = PageFile::create(&mut vm, 4, 4096);
        a.write_page(&mut vol, 3, &vec![1u8; 4096], 0).unwrap();
        b.write_page(&mut vol, 0, &vec![2u8; 4096], 0).unwrap();
        let mut back = vec![0u8; 4096];
        a.read_page(&mut vol, 3, &mut back, 0).unwrap();
        assert_eq!(back[0], 1);
    }
}
