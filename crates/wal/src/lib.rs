//! Write-ahead redo log with group commit and typed logical records.
//!
//! The paper's database setups put the log on its own device, flush the log
//! tail on every transaction commit, and use three log files "to minimize
//! the interference from logging" (§4.2). This crate reproduces that:
//!
//! * Appends take a typed [`LogRecord`] (logical `Put`/`Delete`/`DocSet`/
//!   `DocDelete`, physical `PageImages` sidecars). Each record is framed
//!   `[len][lsn][crc]payload` and appended to an in-memory tail buffer;
//!   `commit(lsn)` makes everything up to `lsn` durable by writing whole 4KB
//!   log blocks sequentially and calling `fsync` on the log volume (which
//!   turns into a device FLUSH only when barriers are on — exactly the knob
//!   the paper evaluates).
//! * **Group commit** falls out of the timing model: while one flush is in
//!   flight, later committers wait for it and the next flush covers all of
//!   their records at once.
//! * The physical log is a circular space over the configured files; a
//!   header block records the checkpoint LSN, the one statement of where
//!   redo starts: recovery scans from it and the engine redoes every record
//!   the scan returns. The engine writes it last, once everything older is
//!   on the data volume, so an interrupted checkpoint leaves the previous
//!   header — an older, still valid start. A [`CheckpointPolicy`] decides
//!   when the engine should take the next checkpoint.
//! * Recovery classifies how the scan ended: a zeroed or stale header is
//!   the *clean* end of the committed prefix, while a CRC-failing or
//!   undecodable record is a **tear** — reported in [`LogScan::tear`] with
//!   truncate-at-tear semantics (the valid prefix is kept, appends resume
//!   at the tear point).
//!
//! Durability is *honest*: log blocks travel through the simulated device,
//! so a power cut takes with it whatever the device's cache model loses —
//! running the log with barriers off on a volatile-cache SSD really does
//! lose committed transactions, which is the paper's §2.2 warning.
//!
//! ## Group commit and the simulation
//!
//! In a real engine, threads that arrive while a flush is in progress
//! append their records and *join the next flush together*. A conservative
//! discrete-event simulation executes clients one at a time in virtual-time
//! order, so the joint flush cannot literally contain records that have not
//! been generated yet. [`Wal::set_group_commit`] enables a faithful
//! throughput model: a committer that finds a flush in flight is
//! acknowledged at the *estimated* completion of the next (batched) flush,
//! and the physical flush is issued as soon as the in-flight one completes.
//! The cost: an acknowledgement may precede media durability by at most one
//! flush window, so durability-sensitive tests either keep the strict mode
//! (default) or call [`Wal::quiesce`] before inspecting the device.

pub mod record;

use simkit::{crc32, Nanos};
use std::ops::Range;
use storage::device::{BlockDevice, DevResult, WriteCause, LOGICAL_PAGE};
use storage::file::PageFile;
use storage::volume::{Volume, VolumeManager};
use telemetry::{Key, SegKind, Telemetry};

pub use record::{CheckpointPolicy, DocSetRef, LogRecord, OpRef, RECORD_VERSION};

/// Log sequence number: byte offset in the infinite log stream.
pub type Lsn = u64;

/// Record header: len (u32) + lsn (u64) + crc (u32).
const REC_HDR: usize = 16;
/// Log block size.
const BLOCK: usize = LOGICAL_PAGE;
/// Magic for the log header block.
const HDR_MAGIC: u64 = 0x57414c_4844523031;

/// A decoded record surfaced by [`Wal::recover`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScannedRecord {
    /// The record's LSN (stream offset of its frame header).
    pub lsn: Lsn,
    /// LSN just past the record: where the next frame starts, and the page
    /// LSN a page carries once this record has been redone onto it.
    pub end: Lsn,
    /// The decoded record.
    pub record: LogRecord,
}

/// How a recovery scan stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TearKind {
    /// The frame's payload CRC failed: a partially-persisted record.
    TornFrame,
    /// The CRC held but the payload is not a valid [`LogRecord`]: garbage
    /// was appended or the log was corrupted in a CRC-colliding way.
    BadRecord,
}

/// A torn/garbage record found mid-scan. Recovery truncates at the tear:
/// everything before it is kept, the tear and everything after is dropped,
/// and new appends resume at `lsn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tear {
    /// LSN of the first unusable record.
    pub lsn: Lsn,
    /// Why the record was unusable.
    pub kind: TearKind,
}

/// The outcome of a recovery scan: the decoded valid prefix since the
/// checkpoint header — exactly the records to redo — plus how the scan ended.
#[derive(Debug, Clone, Default)]
pub struct LogScan {
    /// Valid records in LSN order, starting at the checkpoint header.
    pub records: Vec<ScannedRecord>,
    /// `Some` when the scan stopped at a torn or garbage record rather
    /// than the clean end of the log.
    pub tear: Option<Tear>,
}

/// Log statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalStats {
    /// Records appended.
    pub appends: u64,
    /// Commit calls.
    pub commits: u64,
    /// Physical flushes (write+fsync batches).
    pub flushes: u64,
    /// Commits satisfied by an already-running or completed flush.
    pub piggybacked_commits: u64,
    /// Commits that joined a batched group flush (group-commit mode).
    pub group_joins: u64,
    /// Log bytes written to the device (including block padding rewrites).
    pub bytes_written: u64,
}

/// The attached telemetry handle and the log's keys, resolved when it is
/// attached.
struct WalTel {
    tel: Telemetry,
    cat: Key,
    flush: Key,
    commit: Key,
    quiesce: Key,
    checkpoint: Key,
    buffered_bytes: Key,
}

/// The write-ahead log.
pub struct Wal {
    files: Vec<PageFile>,
    data_blocks: u64,
    /// The log stream from the start of the block holding `buf_start` up to
    /// `next_lsn`: the durable prefix of the partial tail block, then the
    /// bytes appended but not yet flushed. Padded to whole blocks it is
    /// exactly the next flush's block run, so one buffer serves as pending
    /// bytes, tail image and write run, and keeps its capacity.
    buf: Vec<u8>,
    /// Stream offset of the first unflushed byte.
    buf_start: Lsn,
    next_lsn: Lsn,
    durable_lsn: Lsn,
    /// A flush in flight: (completion time, covers-up-to LSN).
    inflight: Option<(Nanos, Lsn)>,
    /// Group-commit mode (see module docs).
    group_commit: bool,
    /// Promised completion of the queued (not yet physical) group flush.
    group_end: Option<Nanos>,
    /// Duration of the most recent physical flush (group-ack estimator).
    last_flush_dur: Nanos,
    checkpoint_lsn: Lsn,
    /// When `needs_checkpoint` should fire (see [`CheckpointPolicy`]).
    policy: CheckpointPolicy,
    /// Commits since the last checkpoint (drives `EveryNCommits`).
    commits_since_ckpt: u64,
    /// Bytes of the tail buffer occupied by [`LogRecord::PageImages`]
    /// frames; classifies the next flush's write provenance.
    image_bytes_buffered: u64,
    stats: WalStats,
    /// Optional telemetry sink.
    tel: Option<WalTel>,
}

impl Wal {
    /// Create a fresh log over `files_n` files of `file_blocks` 4KB blocks
    /// each, allocated from `vm`, and write the initial header.
    pub fn create<D: BlockDevice>(
        vol: &mut Volume<D>,
        vm: &mut VolumeManager,
        files_n: usize,
        file_blocks: u64,
        now: Nanos,
    ) -> (Self, Nanos) {
        assert!(files_n >= 1 && file_blocks >= 2, "log too small");
        let mut wal =
            Self::new((0..files_n).map(|_| PageFile::create(vm, file_blocks, BLOCK)).collect());
        let t = wal.write_header(vol, now);
        (wal, t)
    }

    /// An empty log over `files`, positioned at LSN 0.
    fn new(files: Vec<PageFile>) -> Self {
        // Block 0 of file 0 is the header; the rest is the circular data area.
        let data_blocks = files.len() as u64 * files[0].pages() - 1;
        Self {
            files,
            data_blocks,
            buf: Vec::new(),
            buf_start: 0,
            next_lsn: 0,
            durable_lsn: 0,
            inflight: None,
            group_commit: false,
            group_end: None,
            last_flush_dur: 1_000_000,
            checkpoint_lsn: 0,
            policy: CheckpointPolicy::default(),
            commits_since_ckpt: 0,
            image_bytes_buffered: 0,
            stats: WalStats::default(),
            tel: None,
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Attach a telemetry sink. Records `wal.flush` / `wal.commit` /
    /// `wal.quiesce` / `wal.checkpoint` spans and latency histograms, and
    /// charges time a committer spends queued behind a flush it did not
    /// issue to the enclosing op's anatomy (see [`Wal::commit`]).
    pub fn attach_telemetry(&mut self, tel: Telemetry) {
        self.tel = Some(WalTel {
            cat: tel.key("wal"),
            flush: tel.key("wal.flush"),
            commit: tel.key("wal.commit"),
            quiesce: tel.key("wal.quiesce"),
            checkpoint: tel.key("wal.checkpoint"),
            buffered_bytes: tel.key("wal.buffered_bytes"),
            tel,
        });
    }

    /// Next LSN to be assigned.
    pub fn next_lsn(&self) -> Lsn {
        self.next_lsn
    }

    /// Everything up to (exclusive) this LSN has been handed to the device
    /// and fsynced.
    pub fn durable_lsn(&self) -> Lsn {
        self.durable_lsn
    }

    /// The persisted checkpoint LSN (where the next recovery scan starts).
    pub fn checkpoint_lsn(&self) -> Lsn {
        self.checkpoint_lsn
    }

    /// Capacity of the circular data area in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.data_blocks * BLOCK as u64
    }

    /// Live (un-checkpointed) log length in bytes.
    pub fn live_bytes(&self) -> u64 {
        self.next_lsn - self.checkpoint_lsn
    }

    /// Bytes appended but not yet handed to the device.
    fn unflushed(&self) -> u64 {
        self.next_lsn - self.buf_start
    }

    /// Install the checkpoint-scheduling policy (engines pass their
    /// config's policy down at create/recover time).
    pub fn set_checkpoint_policy(&mut self, policy: CheckpointPolicy) {
        policy.validate();
        self.policy = policy;
    }

    /// Whether the engine should checkpoint soon, per the installed
    /// [`CheckpointPolicy`]. Every policy keeps a hard overflow guard:
    /// whatever the schedule, a live log past 7/8 of the circular capacity
    /// demands a checkpoint, because overflow is a panic.
    pub fn needs_checkpoint(&self) -> bool {
        let overflow_guard = self.live_bytes() * 8 > self.capacity_bytes() * 7;
        match self.policy {
            CheckpointPolicy::Explicit => overflow_guard,
            CheckpointPolicy::LiveBytesPct(pct) => {
                overflow_guard || self.live_bytes() * 100 > self.capacity_bytes() * pct as u64
            }
            CheckpointPolicy::EveryNCommits(n) => overflow_guard || self.commits_since_ckpt >= n,
        }
    }

    /// Append a typed record; returns its LSN. Not yet durable. The record
    /// is encoded straight into the tail buffer (no staging vec).
    pub fn append(&mut self, rec: &LogRecord) -> Lsn {
        let at = self.buf.len();
        let lsn = self.append_with(|out| rec.encode_into(out));
        if matches!(rec, LogRecord::PageImages { .. }) {
            self.image_bytes_buffered += (self.buf.len() - at) as u64;
        }
        lsn
    }

    /// [`Wal::append`] of a `Put` / `Delete` whose key and value the caller
    /// keeps: the same bytes on the log, nothing owned on the way.
    pub fn append_op(&mut self, op: OpRef<'_>) -> Lsn {
        self.append_with(|out| op.encode_into(out))
    }

    /// Append the payload `encode` writes at the end of the tail buffer.
    fn append_with(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Lsn {
        let at = self.buf.len();
        self.buf.extend_from_slice(&[0u8; REC_HDR]);
        encode(&mut self.buf);
        self.frame_tail(at)
    }

    /// Append a pre-encoded payload. Exposed for corruption-injection
    /// tests; engines should go through [`Wal::append`] so recovery can
    /// decode what it scans.
    #[doc(hidden)]
    pub fn append_raw(&mut self, payload: &[u8]) -> Lsn {
        self.append_with(|out| out.extend_from_slice(payload))
    }

    /// Fill in the record header reserved at `buf[at..at + REC_HDR]` for the
    /// payload that follows it to the end of the tail buffer.
    fn frame_tail(&mut self, at: usize) -> Lsn {
        let lsn = self.next_lsn;
        self.next_lsn += (self.buf.len() - at) as u64;
        assert!(
            self.live_bytes() < self.capacity_bytes(),
            "log overflow: checkpoint was not taken in time"
        );
        let (hdr, payload) = self.buf[at..].split_at_mut(REC_HDR);
        hdr[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        hdr[4..12].copy_from_slice(&lsn.to_le_bytes());
        hdr[12..].copy_from_slice(&crc32(payload).to_le_bytes());
        self.stats.appends += 1;
        if let Some(t) = &self.tel {
            t.tel.set_gauge(t.buffered_bytes, self.unflushed() as i64);
        }
        lsn
    }

    /// Translate a stream block index to (file, block-in-file), skipping the
    /// header block.
    fn locate(&self, stream_block: u64) -> (usize, u64) {
        let pos = 1 + (stream_block % self.data_blocks);
        let per_file = self.files[0].pages();
        ((pos / per_file) as usize, pos % per_file)
    }

    /// Split the stream blocks `start..start + n` into the runs one device
    /// command can carry: `(file, block-in-file, blocks of the n)`. A run
    /// ends with its file, and the circle wraps where the last file ends.
    fn runs(&self, start: u64, n: usize) -> impl Iterator<Item = (usize, u64, Range<usize>)> + '_ {
        let mut b = 0;
        std::iter::from_fn(move || {
            (b < n).then(|| {
                let (file, in_file) = self.locate(start + b as u64);
                let len = (n - b).min((self.files[file].pages() - in_file) as usize);
                b += len;
                (file, in_file, b - len..b)
            })
        })
    }

    /// Write all buffered bytes as whole blocks and fsync. Returns
    /// completion time. Caller manages `inflight`/`durable_lsn`.
    fn flush_buffer<D: BlockDevice>(&mut self, vol: &mut Volume<D>, now: Nanos) -> Nanos {
        debug_assert!(self.unflushed() > 0);
        let scope = self.tel.as_ref().map(|t| t.tel.span(t.cat, t.flush, now));
        // Provenance: a flush dominated by full-page-image sidecars is
        // page-image traffic, otherwise plain log appends. (One flush covers
        // one cause — block-granular classification by majority byte count,
        // documented in DESIGN.md.)
        let cause = if self.image_bytes_buffered * 2 >= self.unflushed() {
            WriteCause::PageImage
        } else {
            WriteCause::WalAppend
        };
        self.image_bytes_buffered = 0;
        let start_block = self.buf_start / BLOCK as u64;
        // Zero padding to the block boundary makes `buf` the block run.
        let tail_off = self.buf.len() % BLOCK;
        let run_len = self.buf.len().next_multiple_of(BLOCK);
        self.buf.resize(run_len, 0);
        // One write per run, splitting at file boundaries and the wrap.
        let t = vol.with_cause(cause, |vol| {
            let mut t = now;
            for (file, in_file, blocks) in self.runs(start_block, run_len / BLOCK) {
                let data = &self.buf[blocks.start * BLOCK..blocks.end * BLOCK];
                t = self.files[file]
                    .write_pages(vol, in_file, data, t)
                    .expect("log geometry is static");
            }
            vol.fsync(t).expect("log device reachable")
        });
        self.stats.bytes_written += run_len as u64;
        // Keep the durable image of the new partial tail block: the next
        // flush starts with it.
        self.buf.copy_within(run_len - BLOCK..run_len - BLOCK + tail_off, 0);
        self.buf.truncate(tail_off);
        self.buf_start = self.next_lsn;
        self.stats.flushes += 1;
        if let (Some(scope), Some(tt)) = (scope, &self.tel) {
            scope.close(t);
            tt.tel.set_gauge(tt.buffered_bytes, 0);
        }
        t
    }

    /// Enable or disable the group-commit throughput model (see module
    /// docs). Strict mode (false, the default) never acknowledges a commit
    /// before its flush completes.
    pub fn set_group_commit(&mut self, on: bool) {
        self.group_commit = on;
    }

    /// Charge time spent waiting on an in-flight or promised log flush (a
    /// wait that never reaches the device layer) to the enclosing op's
    /// breakdown, so group-commit queueing shows up per op. The segment
    /// kind follows what the awaited flush *is*: with write barriers the
    /// flush is overwhelmingly a FLUSH CACHE drain, so queueing behind it
    /// is `flush_cache` time; on a nobarrier (durable-cache) deployment it
    /// is pure log commit, `wal_fsync`.
    fn note_wait(&self, ns: Nanos, barriers: bool) {
        if ns > 0 {
            if let Some(t) = &self.tel {
                t.tel.seg(if barriers { SegKind::FlushCache } else { SegKind::WalFsync }, ns);
            }
        }
    }

    /// Retire a completed in-flight flush and, in group-commit mode, fire
    /// the queued group flush. That flush runs retroactively, from the
    /// moment the previous one ended — possibly before the calling op even
    /// began — so it is background work to every open anatomy frame: an op
    /// that really waits on it charges the wait through `note_wait`.
    fn advance<D: BlockDevice>(&mut self, vol: &mut Volume<D>, now: Nanos) {
        if let Some((end, upto)) = self.inflight {
            if end <= now {
                self.durable_lsn = self.durable_lsn.max(upto);
                self.inflight = None;
                if self.group_end.take().is_some() && self.unflushed() > 0 {
                    // The queued group flush starts right where the previous
                    // one ended.
                    let covers = self.next_lsn;
                    let background = self.tel.as_ref().map(|t| t.tel.background());
                    let done = self.flush_buffer(vol, end);
                    drop(background);
                    self.last_flush_dur = done.saturating_sub(end).max(1);
                    self.inflight = Some((done, covers));
                    self.durable_lsn = covers;
                }
            }
        }
    }

    /// Make everything up to `lsn` durable; returns the completion time.
    /// Implements group commit: a commit whose records are covered by a
    /// flush already in flight just waits for it; in group-commit mode, a
    /// commit whose records are *not* covered joins the next batched flush.
    pub fn commit<D: BlockDevice>(&mut self, vol: &mut Volume<D>, lsn: Lsn, now: Nanos) -> Nanos {
        let scope = self.tel.as_ref().map(|t| t.tel.span(t.cat, t.commit, now));
        self.commits_since_ckpt += 1;
        let done = self.commit_inner(vol, lsn, now);
        scope.map_or(done, |s| s.close(done))
    }

    fn commit_inner<D: BlockDevice>(&mut self, vol: &mut Volume<D>, lsn: Lsn, now: Nanos) -> Nanos {
        self.stats.commits += 1;
        self.advance(vol, now);
        if lsn < self.durable_lsn {
            self.stats.piggybacked_commits += 1;
            return now;
        }
        let mut t = now;
        if let Some((end, upto)) = self.inflight {
            if lsn < upto {
                self.stats.piggybacked_commits += 1;
                self.note_wait(end.saturating_sub(t), vol.barriers());
                return t.max(end);
            }
            if self.group_commit {
                // Join the next batched flush; acknowledged at its estimated
                // completion.
                self.stats.group_joins += 1;
                let est = end + self.last_flush_dur;
                let promised = self.group_end.map_or(est, |g| g.max(est)).max(now);
                self.group_end = Some(promised);
                self.note_wait(promised - now, vol.barriers());
                return promised;
            }
            // Strict mode: wait out the in-flight flush.
            self.note_wait(end.saturating_sub(t), vol.barriers());
            t = t.max(end);
            self.durable_lsn = self.durable_lsn.max(upto);
            self.inflight = None;
            if lsn < self.durable_lsn {
                self.stats.piggybacked_commits += 1;
                return t;
            }
        }
        if self.unflushed() == 0 {
            // Everything appended so far was flushed by an earlier commit or
            // by the engine's eviction-time WAL-rule flush.
            self.durable_lsn = self.durable_lsn.max(self.next_lsn);
            self.stats.piggybacked_commits += 1;
            return t;
        }
        let covers = self.next_lsn;
        let done = self.flush_buffer(vol, t);
        self.last_flush_dur = done.saturating_sub(t).max(1);
        self.inflight = Some((done, covers));
        self.durable_lsn = covers; // durable as of `done`, which we return
        done
    }

    /// Force every appended record onto the device and wait for it: used by
    /// checkpoints and by crash harnesses that need strict durability under
    /// group-commit mode. Returns the completion time.
    pub fn quiesce<D: BlockDevice>(&mut self, vol: &mut Volume<D>, now: Nanos) -> Nanos {
        let scope = self.tel.as_ref().map(|t| t.tel.span(t.cat, t.quiesce, now));
        let mut t = now;
        if let Some((end, upto)) = self.inflight.take() {
            self.note_wait(end.saturating_sub(t), vol.barriers());
            t = t.max(end);
            self.durable_lsn = self.durable_lsn.max(upto);
        }
        self.group_end = None;
        if self.unflushed() > 0 {
            let covers = self.next_lsn;
            t = self.flush_buffer(vol, t);
            self.durable_lsn = covers;
        }
        scope.map_or(t, |s| s.close(t))
    }

    /// Record a checkpoint at `lsn`: everything older may be overwritten.
    /// Persists the header (write + fsync) and resets the commit counter
    /// that drives [`CheckpointPolicy::EveryNCommits`].
    pub fn checkpoint<D: BlockDevice>(
        &mut self,
        vol: &mut Volume<D>,
        lsn: Lsn,
        now: Nanos,
    ) -> Nanos {
        assert!(lsn <= self.next_lsn);
        self.checkpoint_lsn = self.checkpoint_lsn.max(lsn);
        self.commits_since_ckpt = 0;
        let scope = self.tel.as_ref().map(|t| t.tel.span(t.cat, t.checkpoint, now));
        let done = self.write_header(vol, now);
        scope.map_or(done, |s| s.close(done))
    }

    fn write_header<D: BlockDevice>(&mut self, vol: &mut Volume<D>, now: Nanos) -> Nanos {
        let mut hdr = [0u8; BLOCK];
        hdr[..8].copy_from_slice(&HDR_MAGIC.to_le_bytes());
        hdr[8..16].copy_from_slice(&self.checkpoint_lsn.to_le_bytes());
        let crc = crc32(&hdr[..16]);
        hdr[16..20].copy_from_slice(&crc.to_le_bytes());
        vol.with_cause(WriteCause::WalAppend, |vol| {
            let t = self.files[0].write_page(vol, 0, &hdr, now).expect("header block exists");
            vol.fsync(t).expect("log device reachable")
        })
    }

    /// Recover the log from a volume after a crash: read the header, scan
    /// records from the checkpoint LSN, stop at the clean end of the log or
    /// the first torn/garbage record (reported in [`LogScan::tear`]).
    /// Returns the recovered log (positioned at the end of the valid
    /// suffix), the scan, and the completion time.
    ///
    /// The scan reads forward through a [`ScanWindow`]. A block the device
    /// reports shorn ends it the way a torn frame does — the records before
    /// the block are returned and the tear names the first one that reaches
    /// into it; a shorn header block reads as an unformatted one. Any other
    /// device error is returned.
    pub fn recover<D: BlockDevice>(
        vol: &mut Volume<D>,
        files: Vec<PageFile>,
        now: Nanos,
    ) -> DevResult<(Self, LogScan, Nanos)> {
        let mut wal = Self::new(files);
        let mut scan = LogScan::default();
        let mut hdr = [0u8; BLOCK];
        let (mut t, _) = wal.files[0].read_pages_past_shorn(vol, 0, &mut hdr, now)?;
        let magic = u64::from_le_bytes(hdr[..8].try_into().unwrap());
        let ckpt = u64::from_le_bytes(hdr[8..16].try_into().unwrap());
        let crc = u32::from_le_bytes(hdr[16..20].try_into().unwrap());
        if magic != HDR_MAGIC || crc != crc32(&hdr[..16]) {
            // Unformatted or corrupt header: empty log.
            return Ok((wal, scan, t));
        }
        wal.checkpoint_lsn = ckpt;
        // Scan forward from the checkpoint, at most one lap of the circle.
        let lap_end = ckpt + wal.capacity_bytes();
        let mut win = ScanWindow::new(ckpt, lap_end);
        let mut lsn = ckpt;
        while lsn < lap_end {
            if !win.fill(&wal, vol, lsn, lsn + REC_HDR as u64, &mut t)? {
                // No room for a frame header: the lap is over, or the header
                // reaches into a shorn block.
                scan.tear = win.shorn.then_some(Tear { lsn, kind: TearKind::TornFrame });
                break;
            }
            let frame = win.bytes_at(lsn);
            let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
            let rec_lsn = u64::from_le_bytes(frame[4..12].try_into().unwrap());
            let crc = u32::from_le_bytes(frame[12..16].try_into().unwrap());
            if rec_lsn != lsn || len == 0 || len as u64 > wal.capacity_bytes() {
                // Clean end: zeroed space, or stale residue from a previous
                // lap of the circle (its embedded LSN cannot match).
                break;
            }
            let end = lsn + (REC_HDR + len) as u64;
            let whole = win.fill(&wal, vol, lsn, end, &mut t)?;
            let payload = &win.bytes_at(lsn)[REC_HDR..];
            if !whole || crc32(&payload[..len]) != crc {
                // A record frame that matches this position but fails its
                // CRC, or runs into a shorn block or past the lap, is a
                // partially-persisted write: a torn tail.
                scan.tear = Some(Tear { lsn, kind: TearKind::TornFrame });
                break;
            }
            match LogRecord::decode(&payload[..len]) {
                Some((record, used)) if used == len => {
                    scan.records.push(ScannedRecord { lsn, end, record });
                    lsn = end;
                }
                _ => {
                    // CRC-valid bytes that are not a record: garbage was
                    // logged, or corruption collided with the CRC.
                    scan.tear = Some(Tear { lsn, kind: TearKind::BadRecord });
                    break;
                }
            }
        }
        wal.next_lsn = lsn;
        wal.durable_lsn = lsn;
        wal.buf_start = lsn;
        // The partial tail block, so appends continue seamlessly: the scan
        // read it on the way to `lsn` and the window still holds it.
        let tail_off = (lsn % BLOCK as u64) as usize;
        wal.buf.resize(tail_off, 0);
        if tail_off != 0 && win.fill(&wal, vol, lsn, lsn + 1, &mut t)? {
            wal.buf.copy_from_slice(&win.bytes_at(lsn - tail_off as u64)[..tail_off]);
        }
        Ok((wal, scan, t))
    }
}

/// Largest read command of a recovery scan, in blocks (256 KiB).
const SCAN_MAX_BLOCKS: usize = 64;

/// The stretch of the log stream a recovery scan holds in memory: the whole
/// blocks `first..next`, read forward in commands that start at one block —
/// all an empty log costs — and double up to [`SCAN_MAX_BLOCKS`], split where
/// [`Wal::runs`] splits a flush. No block is read twice.
struct ScanWindow {
    bytes: Vec<u8>,
    first: u64,
    next: u64,
    /// No block at or past this one is read: the end of the lap, or the
    /// first shorn block (nothing behind a tear is trusted).
    limit: u64,
    /// Blocks the next command asks for.
    step: usize,
    /// Whether `limit` is a shorn block.
    shorn: bool,
}

impl ScanWindow {
    /// An empty window on a scan of the stream bytes `from..lap_end`.
    fn new(from: Lsn, lap_end: Lsn) -> Self {
        let first = from / BLOCK as u64;
        let limit = lap_end.div_ceil(BLOCK as u64);
        Self { bytes: Vec::new(), first, next: first, limit, step: 1, shorn: false }
    }

    /// The window from stream offset `lsn` on (`lsn` within `first..next`).
    fn bytes_at(&self, lsn: Lsn) -> &[u8] {
        &self.bytes[(lsn - self.first * BLOCK as u64) as usize..]
    }

    /// Read ahead until the window holds the stream bytes `lsn..end`, letting
    /// go of the blocks before `lsn`. False when `end` lies past the limit.
    fn fill<D: BlockDevice>(
        &mut self,
        wal: &Wal,
        vol: &mut Volume<D>,
        lsn: Lsn,
        end: Lsn,
        t: &mut Nanos,
    ) -> DevResult<bool> {
        while self.next * (BLOCK as u64) < end {
            if self.next >= self.limit {
                return Ok(false);
            }
            let done_blocks = lsn / BLOCK as u64 - self.first;
            self.bytes.drain(..done_blocks as usize * BLOCK);
            self.first += done_blocks;
            let n = self.step.min((self.limit - self.next) as usize);
            let at = self.bytes.len();
            self.bytes.resize(at + n * BLOCK, 0);
            for (file, in_file, blocks) in wal.runs(self.next, n) {
                let out = &mut self.bytes[at + blocks.start * BLOCK..at + blocks.end * BLOCK];
                let (done, shorn) = wal.files[file].read_pages_past_shorn(vol, in_file, out, *t)?;
                *t = done;
                if let Some(page) = shorn {
                    let intact = blocks.start + (page - in_file) as usize;
                    self.bytes.truncate(at + intact * BLOCK);
                    self.next += intact as u64;
                    (self.limit, self.shorn) = (self.next, true);
                    break;
                }
            }
            if !self.shorn {
                self.next += n as u64;
                self.step = (self.step * 2).min(SCAN_MAX_BLOCKS);
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::testdev::MemDevice;

    fn setup(files: usize, blocks: u64) -> (Volume<MemDevice>, Wal) {
        let mut vol = Volume::new(MemDevice::new(4096), true);
        let mut vm = VolumeManager::new(4096);
        let (wal, _) = Wal::create(&mut vol, &mut vm, files, blocks, 0);
        (vol, wal)
    }

    /// A minimal typed record whose payload is `bytes` (tests only care
    /// about sizes and byte survival, not the record's meaning).
    fn rec(bytes: &[u8]) -> LogRecord {
        LogRecord::DocSet { key: Vec::new(), value: bytes.to_vec() }
    }

    /// The payload carried by a recovered [`rec`] record.
    fn value_of(sr: &ScannedRecord) -> &[u8] {
        match &sr.record {
            LogRecord::DocSet { value, .. } => value,
            other => panic!("expected DocSet, got {other:?}"),
        }
    }

    #[test]
    fn append_assigns_monotonic_lsns() {
        let (_, mut wal) = setup(3, 16);
        let one = rec(b"one");
        let two = rec(b"two!");
        let a = wal.append(&one);
        let b = wal.append(&two);
        assert_eq!(a, 0);
        assert_eq!(b, (REC_HDR + one.encode().len()) as u64);
        assert_eq!(wal.next_lsn(), b + (REC_HDR + two.encode().len()) as u64);
    }

    #[test]
    fn commit_makes_records_durable_and_counts_flush() {
        let (mut vol, mut wal) = setup(3, 16);
        let lsn = wal.append(&rec(b"hello"));
        let t = wal.commit(&mut vol, lsn, 1000);
        assert!(t > 1000);
        assert!(wal.durable_lsn() > lsn);
        assert_eq!(wal.stats().flushes, 1);
        assert!(vol.device_stats().flushes >= 1);
    }

    #[test]
    fn committed_records_survive_recovery() {
        let (mut vol, mut wal) = setup(3, 16);
        let mut lsns = Vec::new();
        for i in 0..10u8 {
            lsns.push(wal.append(&rec(&[i; 100])));
        }
        let t = wal.commit(&mut vol, *lsns.last().unwrap(), 0);
        let files = wal.files.clone();
        let end = wal.next_lsn();
        drop(wal);
        let (wal2, scan, _) = Wal::recover(&mut vol, files, t).unwrap();
        assert_eq!(scan.records.len(), 10);
        assert!(scan.tear.is_none());
        for (i, r) in scan.records.iter().enumerate() {
            assert_eq!(value_of(r), &[i as u8; 100]);
            assert_eq!(r.lsn, lsns[i]);
            assert_eq!(
                r.end,
                lsns.get(i + 1).copied().unwrap_or(end),
                "a record ends where the next starts"
            );
        }
        assert_eq!(wal2.next_lsn(), end);
    }

    #[test]
    fn uncommitted_tail_does_not_survive() {
        let (mut vol, mut wal) = setup(3, 16);
        let a = wal.append(&rec(b"committed"));
        wal.commit(&mut vol, a, 0);
        let _ = wal.append(&rec(b"lost"));
        // No commit for the second record: crash now.
        let files = wal.files.clone();
        let (_, scan, _) = Wal::recover(&mut vol, files, 0).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(value_of(&scan.records[0]), b"committed");
        assert!(scan.tear.is_none(), "unwritten space is a clean end, not a tear");
    }

    #[test]
    fn group_commit_piggybacks() {
        let (mut vol, mut wal) = setup(3, 64);
        let a = wal.append(&rec(b"a"));
        let t1 = wal.commit(&mut vol, a, 0);
        // Two more records appended "while the flush runs" (arrival before
        // t1): the second commit of the pair piggybacks on the first.
        let b = wal.append(&rec(b"b"));
        let c = wal.append(&rec(b"c"));
        let t2 = wal.commit(&mut vol, c, t1 / 2);
        let t3 = wal.commit(&mut vol, b, t1 / 2 + 1);
        assert!(t2 >= t1, "second flush after the first");
        assert_eq!(t3, t1 / 2 + 1, "b was covered by c's flush");
        assert_eq!(wal.stats().piggybacked_commits, 1);
        assert_eq!(wal.stats().flushes, 2);
    }

    #[test]
    fn retroactive_group_flush_is_not_charged_to_the_calling_op() {
        use durassd::{Ssd, SsdConfig};
        let tel = Telemetry::new();
        tel.enable_anatomy(2);
        let mut dev = Ssd::new(SsdConfig::ssd_a(16));
        dev.attach_telemetry(tel.clone());
        let mut vol = Volume::new(dev, true);
        vol.attach_telemetry(tel.clone(), "log");
        let mut vm = VolumeManager::new(vol.capacity_pages());
        let (mut wal, t0) = Wal::create(&mut vol, &mut vm, 3, 64, 0);
        wal.attach_telemetry(tel.clone());
        wal.set_group_commit(true);
        let a = wal.append(&rec(b"a"));
        let t1 = wal.commit(&mut vol, a, t0);
        // A second committer arrives mid-flush and joins the queued group.
        let b = wal.append(&rec(b"b"));
        let promised = wal.commit(&mut vol, b, (t0 + t1) / 2);
        assert_eq!(wal.stats().group_joins, 1);
        // A third arrives long after the first flush ended, inside its own
        // op frame. Its commit fires the queued flush retroactively at `t1`
        // — barrier-backed device time from before the op began.
        let c = wal.append(&rec(b"c"));
        let late = promised + 10_000_000;
        let op = tel.frame(tel.key("engine.commit"), late);
        let done = wal.commit(&mut vol, c, late);
        assert_eq!(wal.stats().flushes, 2, "the queued group flush ran");
        op.end(done);
        let bd = tel.last_breakdown().unwrap();
        assert_eq!((bd.name.as_str(), bd.wall), ("engine.commit", done - late));
        assert!(bd.is_conserved(), "{}", bd.to_json());
        assert_eq!(tel.anatomy_violations(), 0);
        assert_eq!(tel.frame_depth(), 0);
        // The flush itself was still measured, in its own device frames.
        assert!(!tel.outliers_for("dev.log.flush").is_empty());
    }

    #[test]
    fn appends_continue_after_recovery() {
        let (mut vol, mut wal) = setup(3, 16);
        let a = wal.append(&rec(b"first"));
        let t = wal.commit(&mut vol, a, 0);
        let files = wal.files.clone();
        let (mut wal2, _, t2) = Wal::recover(&mut vol, files.clone(), t).unwrap();
        let b = wal2.append(&rec(b"second"));
        let t3 = wal2.commit(&mut vol, b, t2);
        let (_, scan, _) = Wal::recover(&mut vol, files, t3).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(value_of(&scan.records[1]), b"second");
    }

    #[test]
    fn wraps_around_the_circular_space() {
        let (mut vol, mut wal) = setup(2, 4); // 7 data blocks = 28KB
        let mut t = 0;
        // Write ~3 capacities' worth with checkpoints to allow reuse.
        for round in 0..12u64 {
            let lsn = wal.append(&rec(&vec![round as u8; 2000]));
            t = wal.commit(&mut vol, lsn, t);
            // Checkpoint aggressively so the circle never overflows.
            t = wal.checkpoint(&mut vol, wal.next_lsn(), t);
        }
        let files = wal.files.clone();
        let ckpt = wal.checkpoint_lsn;
        let (wal2, scan, _) = Wal::recover(&mut vol, files.clone(), t).unwrap();
        // Everything after the final checkpoint (nothing) scans cleanly.
        assert_eq!(wal2.checkpoint_lsn, ckpt);
        assert!(scan.records.is_empty());
        assert!(scan.tear.is_none(), "stale previous-lap bytes are a clean end");
        // Five more records and no checkpoint: the live log starts in stream
        // block 5 (file 1, block 2), wraps after block 6 and ends in block 8.
        assert_eq!(ckpt / BLOCK as u64, 5);
        let mut lsns = Vec::new();
        for i in 0..5u8 {
            lsns.push(wal.append(&rec(&[0xA0 | i; 2000])));
            t = wal.commit(&mut vol, lsns[i as usize], t);
        }
        assert_eq!((wal.next_lsn() - 1) / BLOCK as u64, 8);
        let reads = vol.device_stats().reads;
        let (wal2, scan, _) = Wal::recover(&mut vol, files, t).unwrap();
        assert!(scan.tear.is_none());
        assert_eq!(scan.records.iter().map(|r| r.lsn).collect::<Vec<_>>(), lsns);
        for (i, r) in scan.records.iter().enumerate() {
            assert_eq!(value_of(r), &[0xA0 | i as u8; 2000]);
        }
        assert_eq!((wal2.next_lsn(), &wal2.buf), (wal.next_lsn(), &wal.buf));
        // Header; block 5; blocks 6-7, split by the wrap; blocks 8-11, split
        // where file 0 ends — a wrap and a file boundary inside one step each.
        assert_eq!(vol.device_stats().reads - reads, 1 + 1 + 2 + 2);
    }

    /// A `MemDevice` that remembers its read commands and reports one LPN
    /// as shorn.
    struct Reads {
        inner: MemDevice,
        commands: Vec<(u64, u32)>,
        shorn: Option<u64>,
    }

    impl BlockDevice for Reads {
        fn capacity_pages(&self) -> u64 {
            self.inner.capacity_pages()
        }
        fn read(&mut self, lpn: u64, pages: u32, buf: &mut [u8], now: Nanos) -> DevResult<Nanos> {
            self.commands.push((lpn, pages));
            if let Some(shorn) = self.shorn.filter(|s| (lpn..lpn + pages as u64).contains(s)) {
                return Err(storage::device::DevError::ShornPage { lpn: shorn });
            }
            self.inner.read(lpn, pages, buf, now)
        }
        fn write(&mut self, lpn: u64, data: &[u8], now: Nanos) -> DevResult<Nanos> {
            self.inner.write(lpn, data, now)
        }
        fn flush(&mut self, now: Nanos) -> DevResult<Nanos> {
            self.inner.flush(now)
        }
        fn power_cut(&mut self, now: Nanos) {
            self.inner.power_cut(now)
        }
        fn reboot(&mut self, now: Nanos) -> Nanos {
            self.inner.reboot(now)
        }
        fn is_powered(&self) -> bool {
            self.inner.is_powered()
        }
        fn stats(&self) -> storage::device::DeviceStats {
            self.inner.stats()
        }
    }

    /// A three-file log on a [`Reads`] device whose records since the
    /// checkpoint (LSN 0) end inside stream block `blocks - 1`, committed.
    fn log_of(blocks: u64) -> (Volume<Reads>, Wal, Vec<Lsn>) {
        let dev = Reads { inner: MemDevice::new(4096), commands: Vec::new(), shorn: None };
        let mut vol = Volume::new(dev, true);
        let mut vm = VolumeManager::new(4096);
        let (mut wal, mut t) = Wal::create(&mut vol, &mut vm, 3, 1024, 0);
        let mut lsns = Vec::new();
        while wal.next_lsn() <= (blocks - 1) * BLOCK as u64 {
            lsns.push(wal.append(&rec(&[lsns.len() as u8; 1000])));
            t = wal.commit(&mut vol, *lsns.last().unwrap(), t);
        }
        (vol, wal, lsns)
    }

    #[test]
    fn recovery_reads_in_doubling_commands_and_no_block_twice() {
        // Commands of 1, 2, 4, ... blocks, 64 at most, until the end of the
        // log is in one of them; and the header block.
        for (blocks, commands, blocks_read) in [(1, 1, 1), (37, 6, 63), (300, 6 + 4, 63 + 4 * 64)] {
            let (mut vol, wal, lsns) = log_of(blocks);
            let (wal2, scan, _) = Wal::recover(&mut vol, wal.files.clone(), 0).unwrap();
            assert_eq!(scan.records.len(), lsns.len(), "{blocks} blocks");
            assert_eq!((wal2.next_lsn(), &wal2.buf), (wal.next_lsn(), &wal.buf));
            let reads = &vol.device().commands;
            assert_eq!(reads.len(), 1 + commands, "{blocks} blocks: {reads:?}");
            // The tail block is not read a second time for the tail image.
            let mut lpns: Vec<u64> = reads.iter().flat_map(|&(l, n)| l..l + n as u64).collect();
            assert_eq!(lpns.len(), 1 + blocks_read, "{blocks} blocks");
            lpns.sort_unstable();
            lpns.dedup();
            assert_eq!(lpns.len(), 1 + blocks_read, "{blocks} blocks: a block was read twice");
        }
        // An empty log costs the header and one data block, fresh or
        // checkpointed at its end.
        let (mut vol, mut wal, _) = log_of(37);
        wal.checkpoint(&mut vol, wal.next_lsn(), 0);
        vol.device_mut().commands.clear();
        let (wal2, scan, _) = Wal::recover(&mut vol, wal.files.clone(), 0).unwrap();
        assert!(scan.records.is_empty() && scan.tear.is_none());
        assert_eq!((wal2.next_lsn(), &wal2.buf), (wal.next_lsn(), &wal.buf));
        assert_eq!(vol.device().commands.len(), 2);
    }

    #[test]
    fn a_shorn_block_ends_the_scan_as_a_tear() {
        let (mut vol, wal, lsns) = log_of(37);
        // Stream block 20 is LPN 21, behind the header block. Nothing at or
        // past it is trusted: the scan keeps the records that end before it.
        let shorn_at = 20 * BLOCK as u64;
        vol.device_mut().shorn = Some(21);
        let (wal2, scan, _) = Wal::recover(&mut vol, wal.files.clone(), 0).unwrap();
        let kept = lsns.iter().skip(1).filter(|&&next| next <= shorn_at).count();
        assert!(kept > 0 && scan.records.len() == kept, "{} of {kept}", scan.records.len());
        assert!(scan.records.iter().all(|r| r.end <= shorn_at));
        assert_eq!(scan.tear, Some(Tear { lsn: lsns[kept], kind: TearKind::TornFrame }));
        assert_eq!(wal2.next_lsn(), lsns[kept]);
        // The command that met it (blocks 15..31) was re-read block by
        // block; nothing behind the tear is read after that.
        let last = *vol.device().commands.last().unwrap();
        assert_eq!(last, (1 + 30, 1));
        // A shorn header block reads as an unformatted log.
        vol.device_mut().shorn = Some(0);
        let (wal3, scan, _) = Wal::recover(&mut vol, wal.files.clone(), 0).unwrap();
        assert!(scan.records.is_empty() && scan.tear.is_none());
        assert_eq!(wal3.next_lsn(), 0);
    }

    #[test]
    fn checkpoint_threshold_reporting() {
        let (mut vol, mut wal) = setup(2, 4);
        assert!(!wal.needs_checkpoint());
        let mut t = 0;
        let mut lsn = 0;
        for _ in 0..11 {
            lsn = wal.append(&rec(&[9u8; 2000]));
            t = wal.commit(&mut vol, lsn, t);
        }
        assert!(wal.needs_checkpoint());
        wal.checkpoint(&mut vol, lsn, t);
        assert!(!wal.needs_checkpoint());
    }

    #[test]
    fn explicit_policy_reports_only_near_overflow() {
        let (mut vol, mut wal) = setup(2, 4); // 28KB capacity
        wal.set_checkpoint_policy(CheckpointPolicy::Explicit);
        let mut t = 0;
        for _ in 0..11 {
            let lsn = wal.append(&rec(&[9u8; 2000]));
            t = wal.commit(&mut vol, lsn, t);
        }
        // 11 records (~22KB) exceed 75% but not the 7/8 overflow guard.
        assert!(!wal.needs_checkpoint(), "explicit policy stays quiet below the guard");
        for _ in 0..2 {
            let lsn = wal.append(&rec(&[9u8; 2000]));
            t = wal.commit(&mut vol, lsn, t);
        }
        assert!(wal.needs_checkpoint(), "the overflow guard still fires");
    }

    #[test]
    fn every_n_commits_policy_counts_commits() {
        let (mut vol, mut wal) = setup(3, 16);
        wal.set_checkpoint_policy(CheckpointPolicy::EveryNCommits(3));
        let mut t = 0;
        for i in 0..3u64 {
            assert!(!wal.needs_checkpoint(), "commit {i}");
            let lsn = wal.append(&rec(b"x"));
            t = wal.commit(&mut vol, lsn, t);
        }
        assert!(wal.needs_checkpoint());
        wal.checkpoint(&mut vol, wal.next_lsn(), t);
        assert!(!wal.needs_checkpoint(), "checkpoint resets the commit counter");
    }

    #[test]
    #[should_panic(expected = "log overflow")]
    fn overflow_without_checkpoint_panics() {
        let (_, mut wal) = setup(2, 4);
        for _ in 0..40 {
            wal.append(&rec(&[1u8; 2000]));
        }
    }

    #[test]
    fn recovery_of_unformatted_volume_is_empty() {
        let mut vol = Volume::new(MemDevice::new(256), true);
        let mut vm = VolumeManager::new(256);
        let files = vec![PageFile::create(&mut vm, 8, BLOCK)];
        let (wal, scan, _) = Wal::recover(&mut vol, files, 0).unwrap();
        assert!(scan.records.is_empty());
        assert!(scan.tear.is_none());
        assert_eq!(wal.next_lsn(), 0);
    }

    /// Regression: a bit flip inside a committed mid-log record must not
    /// assert or mis-decode — recovery keeps the prefix before the flip and
    /// reports a torn frame at the flipped record's LSN.
    #[test]
    fn bit_flipped_record_truncates_at_tear() {
        let (mut vol, mut wal) = setup(3, 16);
        let mut lsns = Vec::new();
        for i in 0..5u8 {
            lsns.push(wal.append(&rec(&[i; 200])));
        }
        let t = wal.commit(&mut vol, *lsns.last().unwrap(), 0);
        // Flip one byte in record 2's payload, on the device.
        let victim = lsns[2] + REC_HDR as u64 + 40;
        let blk = victim / BLOCK as u64;
        let (file, in_file) = wal.locate(blk);
        let mut buf = vec![0u8; BLOCK];
        let t = wal.files[file].read_page(&mut vol, in_file, &mut buf, t).unwrap();
        buf[(victim % BLOCK as u64) as usize] ^= 0x10;
        let t = wal.files[file].write_page(&mut vol, in_file, &buf, t).unwrap();
        let files = wal.files.clone();
        drop(wal);
        let (wal2, scan, _) = Wal::recover(&mut vol, files, t).unwrap();
        assert_eq!(scan.records.len(), 2, "only the prefix before the flip survives");
        for (i, r) in scan.records.iter().enumerate() {
            assert_eq!(value_of(r), &[i as u8; 200]);
        }
        assert_eq!(scan.tear, Some(Tear { lsn: lsns[2], kind: TearKind::TornFrame }));
        // Truncate-at-tear: the log resumes at the torn record's LSN.
        assert_eq!(wal2.next_lsn(), lsns[2]);
    }

    /// CRC-valid bytes that are not a [`LogRecord`] are a distinct tear
    /// kind: the frame survived but its content is garbage. So is a
    /// well-formed frame of kind 5 or 6, the retired checkpoint Begin/End
    /// markers: the scan stops there, the bytes are not taken for anything.
    #[test]
    fn undecodable_record_is_a_bad_record_tear() {
        let marker = |kind: u8| {
            let body = 7u64.to_le_bytes();
            let mut frame = vec![RECORD_VERSION, kind];
            frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
            frame.extend_from_slice(&simkit::crc32(&body).to_le_bytes());
            frame.extend_from_slice(&body);
            frame
        };
        for payload in [b"this is not a log record".to_vec(), marker(5), marker(6)] {
            let (mut vol, mut wal) = setup(3, 16);
            wal.append(&rec(b"good"));
            let garbage = wal.append_raw(&payload);
            let after = wal.append(&rec(b"after"));
            wal.commit(&mut vol, after, 0);
            let files = wal.files.clone();
            let (wal2, scan, _) = Wal::recover(&mut vol, files, 0).unwrap();
            assert_eq!(scan.records.len(), 1);
            assert_eq!(scan.tear, Some(Tear { lsn: garbage, kind: TearKind::BadRecord }));
            assert_eq!(wal2.next_lsn(), garbage);
        }
    }

    mod proptests {
        use super::*;
        use simkit::dist::{rng, Rng};
        use storage::testdev::MemDevice;

        /// Arbitrary append/commit interleavings recover exactly the
        /// committed prefix.
        #[test]
        fn committed_prefix_recovers() {
            let mut rg = rng(0x3A1);
            for _ in 0..64 {
                let recs: Vec<(Vec<u8>, bool)> = (0..rg.gen_range(1..40usize))
                    .map(|_| {
                        let len = rg.gen_range(1..400usize);
                        ((0..len).map(|_| rg.gen::<u8>()).collect(), rg.gen::<bool>())
                    })
                    .collect();
                let mut vol = Volume::new(MemDevice::new(8192), true);
                let mut vm = VolumeManager::new(8192);
                let (mut wal, mut t) = Wal::create(&mut vol, &mut vm, 2, 256, 0);
                let mut committed = Vec::new();
                let mut pending = Vec::new();
                for (payload, commit) in recs {
                    let lsn = wal.append(&rec(&payload));
                    pending.push((lsn, payload));
                    if commit {
                        t = wal.commit(&mut vol, lsn, t);
                        committed.append(&mut pending);
                    }
                }
                let files = wal.files.clone();
                drop(wal);
                let (_, scan, _) = Wal::recover(&mut vol, files, t).unwrap();
                assert_eq!(scan.records.len(), committed.len());
                assert!(scan.tear.is_none());
                for (r, (lsn, payload)) in scan.records.iter().zip(committed.iter()) {
                    assert_eq!(r.lsn, *lsn);
                    assert_eq!(value_of(r), payload);
                }
            }
        }
    }
}
