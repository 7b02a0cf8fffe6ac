//! Append-only byte space over a block device region.
//!
//! Couchbase's couchstore writes everything — documents, B-tree nodes,
//! headers — by appending to one file and fsyncing at batch boundaries. This
//! module provides that substrate: a byte-addressed append cursor over a
//! [`PageFile`] of 4KB blocks, with partial-tail rewrite on each device
//! write (like any buffered file I/O path).
//!
//! The space does not persist its length. The store keeps, in its
//! superblock, a high-water mark no append has passed, and recovery scans
//! backwards from there for the newest valid header.

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
    /// The file's bytes from the start of the block holding `pending_start`
    /// up to `len`: the durable prefix of the partial tail block, then the
    /// bytes appended but not yet handed to the device. Padded to whole
    /// blocks it is exactly the next device write, so one buffer serves as
    /// pending bytes, tail image and write run, and keeps its capacity.
    buf: Vec<u8>,
    /// Byte offset where the not-yet-written bytes start.
    pending_start: u64,
}

impl AppendSpace {
    /// Wrap a pre-allocated file region.
    pub fn new(file: PageFile) -> Self {
        Self::reopen(file, 0)
    }

    /// Re-open after recovery, positioned at the block boundary `len` (all
    /// durable).
    pub fn reopen(file: PageFile, len: u64) -> Self {
        assert_eq!(file.page_size(), BLOCK);
        assert_eq!(len % BLOCK as u64, 0, "a recovered space resumes on a block boundary");
        Self { file, len, buf: Vec::new(), pending_start: len }
    }

    /// An empty space over `file` that takes over this one's buffer
    /// (compaction's "new file"). Nothing may be pending: `self` stays
    /// readable, every byte it holds being on the device.
    pub fn successor(&mut self, file: PageFile) -> Self {
        assert_eq!(self.pending_start, self.len, "successor of a space with unwritten bytes");
        let mut next = Self::new(file);
        next.buf = std::mem::take(&mut self.buf);
        next.buf.clear();
        next
    }

    /// Current logical length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.file.pages() * BLOCK as u64
    }

    /// File offset of `buf[0]`.
    fn buf_base(&self) -> u64 {
        self.len - self.buf.len() as u64
    }

    /// Append bytes; returns their offset. Data is buffered until
    /// [`AppendSpace::write_out`].
    pub fn append(&mut self, data: &[u8]) -> u64 {
        self.append_with(|buf| buf.extend_from_slice(data)).0
    }

    /// Append whatever `encode` pushes onto the buffer it is handed (which
    /// already holds earlier bytes it must leave alone); returns the offset
    /// and length of the new bytes. Lets records be framed in place.
    pub fn append_with(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> (u64, usize) {
        let before = self.buf.len();
        encode(&mut self.buf);
        let added = self.buf.len().checked_sub(before).expect("append_with only appends");
        let off = self.len;
        self.len += added as u64;
        assert!(self.len <= self.capacity(), "append space full: compaction required");
        (off, added)
    }

    /// Round the cursor up to the next block boundary (headers are
    /// block-aligned, like couchstore's).
    pub fn align_to_block(&mut self) {
        let rem = (self.len % BLOCK as u64) as usize;
        if rem != 0 {
            let pad = BLOCK - rem;
            self.buf.resize(self.buf.len() + pad, 0);
            self.len += pad as u64;
        }
    }

    /// Push all buffered bytes to the device as block writes. Returns the
    /// completion time.
    pub fn write_out<D: BlockDevice>(&mut self, vol: &mut Volume<D>, now: Nanos) -> Nanos {
        if self.pending_start == self.len {
            return now;
        }
        let start_block = self.buf_base() / BLOCK as u64;
        let tail_off = self.buf.len() % BLOCK;
        let run_len = self.buf.len().next_multiple_of(BLOCK);
        self.buf.resize(run_len, 0);
        // Everything this space writes — docs, B-tree path nodes, commit
        // headers — is copy-on-write rewrite traffic of the couchstore-style
        // engine; tag it for the per-cause WAF breakdown.
        let t = vol.with_cause(WriteCause::DocRewrite, |vol| {
            self.file
                .write_pages(vol, start_block, &self.buf, now)
                .expect("append space sized at creation")
        });
        // Keep the durable image of the partial tail block: the next write
        // starts with it.
        self.buf.copy_within(run_len - BLOCK..run_len - BLOCK + tail_off, 0);
        self.buf.truncate(tail_off);
        self.pending_start = self.len;
        t
    }

    /// Read `len` bytes at `offset` (may span blocks) into `out`, replacing
    /// its contents. Unwritten regions read as zero; a shorn block surfaces
    /// as `Err` (and leaves `out` unspecified).
    pub fn read<D: BlockDevice>(
        &self,
        vol: &mut Volume<D>,
        offset: u64,
        len: usize,
        now: Nanos,
        out: &mut Vec<u8>,
    ) -> Result<Nanos, DevError> {
        out.clear();
        let end = offset + len as u64;
        // Serve from the pending bytes if the range is still in memory.
        if offset >= self.pending_start && end <= self.len {
            let rel = (offset - self.buf_base()) as usize;
            out.extend_from_slice(&self.buf[rel..rel + len]);
            return Ok(now);
        }
        let first = offset / BLOCK as u64;
        let nblocks = (end.div_ceil(BLOCK as u64) - first) as usize;
        out.resize(nblocks * BLOCK, 0);
        let t = self.file.read_pages(vol, first, out, now)?;
        let rel = (offset - first * BLOCK as u64) as usize;
        out.copy_within(rel..rel + len, 0);
        out.truncate(len);
        // Overlay any pending bytes that cover the tail of the range.
        if end > self.pending_start && self.len > self.pending_start {
            let overlay_from = self.pending_start.max(offset);
            let dst = (overlay_from - offset) as usize;
            let src = (overlay_from - self.buf_base()) as usize;
            let n = (len - dst).min(self.buf.len() - src);
            out[dst..dst + n].copy_from_slice(&self.buf[src..src + n]);
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::testdev::MemDevice;
    use storage::volume::VolumeManager;

    /// Two 256-block files side by side; the space is over the first.
    fn setup_pair() -> (Volume<MemDevice>, AppendSpace, PageFile) {
        let vol = Volume::new(MemDevice::new(1024), true);
        let mut vm = VolumeManager::new(1024);
        let file = PageFile::create(&mut vm, 256, BLOCK);
        (vol, AppendSpace::new(file), PageFile::create(&mut vm, 256, BLOCK))
    }

    fn setup() -> (Volume<MemDevice>, AppendSpace) {
        let (vol, sp, _) = setup_pair();
        (vol, sp)
    }

    fn read(sp: &AppendSpace, vol: &mut Volume<MemDevice>, off: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0xEE; 3]; // stale contents must be replaced
        sp.read(vol, off, len, 100, &mut out).unwrap();
        out
    }

    #[test]
    fn append_read_round_trip() {
        let (mut vol, mut sp) = setup();
        let a = sp.append(b"hello");
        let b = sp.append(&vec![7u8; 10_000]);
        sp.write_out(&mut vol, 0);
        assert_eq!(read(&sp, &mut vol, a, 5), b"hello");
        assert_eq!(read(&sp, &mut vol, b, 10_000), vec![7u8; 10_000]);
    }

    #[test]
    fn every_write_out_rewrites_the_partial_tail_block_with_its_durable_prefix() {
        // Appends that straddle, end on and start inside block boundaries,
        // written out one by one: the file must read back as their
        // concatenation (the retained tail image is what makes it so).
        let (mut vol, mut sp) = setup();
        let mut want = Vec::new();
        for (i, n) in [5usize, 4091, 1, 9000, 3287, 4096, 17].into_iter().enumerate() {
            let chunk = vec![i as u8 + 1; n];
            assert_eq!(sp.append(&chunk), want.len() as u64);
            want.extend_from_slice(&chunk);
            sp.write_out(&mut vol, 0);
        }
        assert_eq!(read(&sp, &mut vol, 0, want.len()), want);
    }

    #[test]
    fn append_with_frames_in_place() {
        let (mut vol, mut sp) = setup();
        sp.append(b"abc");
        let (off, n) = sp.append_with(|buf| buf.extend_from_slice(b"defgh"));
        assert_eq!((off, n, sp.len()), (3, 5, 8));
        sp.write_out(&mut vol, 0);
        assert_eq!(read(&sp, &mut vol, 0, 8), b"abcdefgh");
    }

    #[test]
    fn successor_starts_empty_in_its_own_file_and_leaves_the_old_space_readable() {
        let (mut vol, mut sp, other) = setup_pair();
        let a = sp.append(&vec![9u8; 5000]);
        sp.write_out(&mut vol, 0);
        let mut next = sp.successor(other);
        assert!(next.is_empty());
        next.append(b"new file");
        next.write_out(&mut vol, 0);
        assert_eq!(read(&next, &mut vol, 0, 8), b"new file");
        assert_eq!(read(&sp, &mut vol, a, 5000), vec![9u8; 5000], "written elsewhere");
    }

    #[test]
    fn pending_bytes_are_readable_before_sync() {
        let (mut vol, mut sp) = setup();
        let off = sp.append(b"inflight");
        assert_eq!(read(&sp, &mut vol, off, 8), b"inflight");
    }

    #[test]
    fn read_spanning_durable_and_pending() {
        let (mut vol, mut sp) = setup();
        let a = sp.append(&vec![1u8; 3000]);
        sp.write_out(&mut vol, 0);
        sp.append(&vec![2u8; 3000]);
        let d = read(&sp, &mut vol, a, 6000);
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
    #[should_panic(expected = "append space full")]
    fn overflow_detected() {
        let (_, mut sp) = setup();
        sp.append(&vec![0u8; 257 * BLOCK]);
    }
}
