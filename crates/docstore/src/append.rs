//! Append-only byte space over a block device region.
//!
//! Couchbase's couchstore writes everything — documents, B-tree nodes,
//! headers — by appending to one file and fsyncing at batch boundaries. This
//! module provides that substrate: a byte-addressed append cursor over a
//! [`PageFile`] of 4KB blocks, with partial-tail rewrite on each device
//! write (like any buffered file I/O path).
//!
//! `durable_len` models the file length recorded in journaled file-system
//! metadata: recovery scans backwards from it for the newest valid header.

use simkit::Nanos;
use storage::device::{BlockDevice, DevError, WriteCause};
use storage::file::PageFile;
use storage::volume::Volume;

/// Block size of the underlying file.
pub const BLOCK: usize = 4096;

/// Append-only byte space.
pub struct AppendSpace {
    file: PageFile,
    /// Logical end of file (bytes appended so far).
    len: u64,
    /// Bytes appended but not yet handed to the device.
    pending: Vec<u8>,
    /// Byte offset where `pending` starts.
    pending_start: u64,
    /// Durable image of the current partial tail block.
    tail_image: Vec<u8>,
    /// File length as of the last fsync (journaled fs metadata).
    durable_len: u64,
}

/// Statistics for the append space.
#[derive(Debug, Clone, Copy, Default)]
pub struct AppendStats {
    /// Bytes appended (logical).
    pub appended_bytes: u64,
    /// Device write commands issued.
    pub device_writes: u64,
}

impl AppendSpace {
    /// Wrap a pre-allocated file region.
    pub fn new(file: PageFile) -> Self {
        assert_eq!(file.page_size(), BLOCK);
        Self {
            file,
            len: 0,
            pending: Vec::new(),
            pending_start: 0,
            tail_image: vec![0u8; BLOCK],
            durable_len: 0,
        }
    }

    /// Re-open after recovery, positioned at `len` (all durable).
    pub fn reopen(file: PageFile, len: u64, tail_image: Vec<u8>) -> Self {
        Self { file, len, pending: Vec::new(), pending_start: len, tail_image, durable_len: len }
    }

    /// Current logical length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// File length at the last fsync (what recovery can trust to exist).
    pub fn durable_len(&self) -> u64 {
        self.durable_len
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.file.pages() * BLOCK as u64
    }

    /// Append bytes; returns their offset. Data is buffered until
    /// [`AppendSpace::write_out`].
    pub fn append(&mut self, data: &[u8]) -> u64 {
        assert!(
            self.len + data.len() as u64 <= self.capacity(),
            "append space full: compaction required"
        );
        let off = self.len;
        self.pending.extend_from_slice(data);
        self.len += data.len() as u64;
        off
    }

    /// Round the cursor up to the next block boundary (headers are
    /// block-aligned, like couchstore's).
    pub fn align_to_block(&mut self) {
        let rem = (self.len % BLOCK as u64) as usize;
        if rem != 0 {
            let pad = BLOCK - rem;
            self.pending.extend(std::iter::repeat_n(0, pad));
            self.len += pad as u64;
        }
    }

    /// Push all buffered bytes to the device as block writes. Returns the
    /// completion time.
    pub fn write_out<D: BlockDevice>(&mut self, vol: &mut Volume<D>, now: Nanos) -> Nanos {
        if self.pending.is_empty() {
            return now;
        }
        let start_block = self.pending_start / BLOCK as u64;
        let start_off = (self.pending_start % BLOCK as u64) as usize;
        let end = self.pending_start + self.pending.len() as u64;
        let end_block = end.div_ceil(BLOCK as u64);
        let nblocks = (end_block - start_block) as usize;
        let mut run = vec![0u8; nblocks * BLOCK];
        run[..start_off].copy_from_slice(&self.tail_image[..start_off]);
        run[start_off..start_off + self.pending.len()].copy_from_slice(&self.pending);
        // Everything this space writes — docs, B-tree path nodes, commit
        // headers — is copy-on-write rewrite traffic of the couchstore-style
        // engine; tag it for the per-cause WAF breakdown.
        let t = vol.with_cause(WriteCause::DocRewrite, |vol| {
            self.file
                .write_pages(vol, start_block, &run, now)
                .expect("append space sized at creation")
        });
        // Remember the new durable tail image.
        let tail_off = (end % BLOCK as u64) as usize;
        if tail_off == 0 {
            self.tail_image.fill(0);
        } else {
            self.tail_image[..tail_off]
                .copy_from_slice(&run[(nblocks - 1) * BLOCK..(nblocks - 1) * BLOCK + tail_off]);
            self.tail_image[tail_off..].fill(0);
        }
        self.pending.clear();
        self.pending_start = end;
        t
    }

    /// fsync: write out and flush per the volume's barrier policy; advances
    /// the journaled file length.
    pub fn sync<D: BlockDevice>(&mut self, vol: &mut Volume<D>, now: Nanos) -> Nanos {
        let t = self.write_out(vol, now);
        let t = vol.fsync(t).expect("device reachable");
        self.durable_len = self.len;
        t
    }

    /// Read `len` bytes at `offset` (may span blocks). Unwritten regions
    /// read as zero; a shorn block surfaces as `Err`.
    pub fn read<D: BlockDevice>(
        &self,
        vol: &mut Volume<D>,
        offset: u64,
        len: usize,
        now: Nanos,
    ) -> Result<(Vec<u8>, Nanos), DevError> {
        // Serve from the pending buffer if the range is still in memory.
        if offset >= self.pending_start {
            let rel = (offset - self.pending_start) as usize;
            if rel + len <= self.pending.len() {
                return Ok((self.pending[rel..rel + len].to_vec(), now));
            }
        }
        let first = offset / BLOCK as u64;
        let last = (offset + len as u64).div_ceil(BLOCK as u64);
        let nblocks = (last - first) as usize;
        let mut buf = vec![0u8; nblocks * BLOCK];
        let t = self.file.read_pages(vol, first, &mut buf, now)?;
        let rel = (offset - first * BLOCK as u64) as usize;
        let mut out = buf[rel..rel + len].to_vec();
        // Overlay any pending bytes that cover the tail of the range.
        if offset + len as u64 > self.pending_start && !self.pending.is_empty() {
            let overlay_from = self.pending_start.max(offset);
            let dst = (overlay_from - offset) as usize;
            let src = (overlay_from - self.pending_start) as usize;
            let n = (len - dst).min(self.pending.len() - src);
            out[dst..dst + n].copy_from_slice(&self.pending[src..src + n]);
        }
        Ok((out, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::testdev::MemDevice;
    use storage::volume::VolumeManager;

    fn setup() -> (Volume<MemDevice>, AppendSpace) {
        let vol = Volume::new(MemDevice::new(1024), true);
        let mut vm = VolumeManager::new(1024);
        let file = PageFile::create(&mut vm, 256, BLOCK);
        (vol, AppendSpace::new(file))
    }

    #[test]
    fn append_read_round_trip() {
        let (mut vol, mut sp) = setup();
        let a = sp.append(b"hello");
        let b = sp.append(&vec![7u8; 10_000]);
        sp.sync(&mut vol, 0);
        let (d, _) = sp.read(&mut vol, a, 5, 100).unwrap();
        assert_eq!(d, b"hello");
        let (d, _) = sp.read(&mut vol, b, 10_000, 100).unwrap();
        assert_eq!(d, vec![7u8; 10_000]);
    }

    #[test]
    fn pending_bytes_are_readable_before_sync() {
        let (mut vol, mut sp) = setup();
        let off = sp.append(b"inflight");
        let (d, _) = sp.read(&mut vol, off, 8, 0).unwrap();
        assert_eq!(d, b"inflight");
    }

    #[test]
    fn read_spanning_durable_and_pending() {
        let (mut vol, mut sp) = setup();
        let a = sp.append(&vec![1u8; 3000]);
        sp.sync(&mut vol, 0);
        sp.append(&vec![2u8; 3000]);
        let (d, _) = sp.read(&mut vol, a, 6000, 100).unwrap();
        assert_eq!(&d[..3000], &vec![1u8; 3000][..]);
        assert_eq!(&d[3000..], &vec![2u8; 3000][..]);
    }

    #[test]
    fn align_pads_to_block() {
        let (_, mut sp) = setup();
        sp.append(b"xyz");
        sp.align_to_block();
        assert_eq!(sp.len() % BLOCK as u64, 0);
        let off = sp.append(b"h");
        assert_eq!(off % BLOCK as u64, 0);
    }

    #[test]
    fn durable_len_advances_on_sync_only() {
        let (mut vol, mut sp) = setup();
        sp.append(&[1u8; 100]);
        assert_eq!(sp.durable_len(), 0);
        sp.sync(&mut vol, 0);
        assert_eq!(sp.durable_len(), 100);
    }

    #[test]
    #[should_panic(expected = "append space full")]
    fn overflow_detected() {
        let (_, mut sp) = setup();
        sp.append(&vec![0u8; 257 * BLOCK]);
    }
}
