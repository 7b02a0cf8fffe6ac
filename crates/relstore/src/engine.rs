//! The storage engine: buffer pool + redo WAL + B+-trees + double-write
//! buffer, with honest crash recovery.
//!
//! ## Write-ahead discipline
//!
//! * Every operation appends a logical [`LogRecord`] (`Put`/`Delete`). If
//!   the operation restructured the tree (splits, root moves) — or
//!   full-page-writes mode demands images — a [`LogRecord::PageImages`]
//!   sidecar is appended *before* the logical record carrying full images
//!   of every page it rewrote, so any CRC-valid log prefix describes a
//!   structurally consistent tree.
//! * Every page carries a **page LSN** in its trailer: the end LSN of the
//!   last operation that changed it. A dirty page may reach the data volume
//!   only once the log is durable up to its LSN (the WAL rule, checked
//!   where the batch is written), and redo applies a record only to a page
//!   whose LSN says the record is still news (below).
//! * `commit` group-flushes the log tail; whether that reaches flash is the
//!   barrier policy's business (the paper's experiment knob).
//!
//! ## Checkpoints and bounded recovery
//!
//! A checkpoint is one number, the LSN in the log header, and
//! [`Engine::checkpoint`] is the steps that make it true: quiesce the log and
//! remember `begin`, the LSN where it ends; write back every dirty page;
//! fsync the data volume; persist the catalog; write the header naming
//! `begin`. Recovery scans from the header and redoes *every* record it
//! scans. The header goes last: a checkpoint cut anywhere before it leaves
//! the previous header, and redo from that older LSN onto pages the
//! unfinished checkpoint already wrote is what the page LSN guard is for.
//!
//! ## Redo under a stealing pool
//!
//! Between checkpoints the pool writes a dirty page whenever it wants the
//! frame, so after a crash every page on the data volume sits at its own
//! point of the log: some older than the record redo is looking at, some
//! newer (and fuller). Logical records name a key, not a page, so they are
//! only safe to replay against pages whose LSN is tested:
//!
//! * **Structure first.** Every scanned `PageImages` record, in log
//!   order: an image is installed iff the page's LSN ≤ the record's LSN,
//!   and the frame then carries the record's end LSN; root changes apply
//!   unconditionally. Only structural operations touch internal pages, and
//!   they log every page they touch, so after this pass the routing
//!   structure *is* the tree at the end of the log — one version, where
//!   replay in log order would descend through parents and children from
//!   different moments and could land a record on the wrong leaf.
//! * **Then data.** Every scanned `Put`/`Delete`, in log order, is
//!   routed by [`BTree::leaf_for`] and applied iff `0 < leaf LSN ≤ record
//!   LSN` (the leaf then carries the record's end LSN). A leaf that is
//!   ahead already contains the record; a page with LSN 0 has no history to
//!   redo onto (never written, or torn with nothing to repair it from).
//! * **Redo never allocates.** A leaf that takes a record has no image
//!   later in the log (it would be ahead), so it was not split after that
//!   record: its key range is final, it meets exactly the records the
//!   foreground applied to it, in order, from the same content — a
//!   replayed put fits because the original did. A replayed record that
//!   allocates means a device that lost acknowledged writes or a bug, and
//!   recovery fails with [`Error::Recovery`] naming the LSN rather than let
//!   the new page collide with one a later image owns.
//!
//! Redo changes pages only forward and stamps what it changes, so a second
//! recovery of the same image — or of one cut mid-recovery — converges on
//! the same state.
//!
//! ## Torn-page protection
//!
//! Every physical page carries a 16-byte trailer `[page_lsn][page_no][crc]`.
//! With `double_write` on, every write batch — eviction sweep or checkpoint
//! chunk — goes to the double-write area as one run, is fsynced, and is then
//! written home (InnoDB §2.1); recovery scans the area and repairs any home
//! page whose trailer fails from the page's newest valid copy (highest page
//! LSN: the area keeps older copies too). With `double_write` off, a torn
//! home page is repaired only if the device guarantees atomic page writes —
//! which is precisely DuraSSD's contribution.

use crate::config::EngineConfig;
use btree::{node as bnode, BTree, PageStore};
use bufferpool::{BufferPool, PageBackend, PoolStats};
use durassd::Error;
use forensics::{Ledger, UnitKind};
use simkit::{crc32, Nanos, Recovered, ReplayStats, Timed};
use std::collections::{BTreeMap, HashSet};
use storage::device::{at_queue_depth, BlockDevice, DevError, WriteCause};
use storage::file::PageFile;
use storage::volume::{Volume, VolumeManager};
use telemetry::{Key, Scope, Telemetry};
use wal::{CheckpointPolicy, LogRecord, Lsn, OpRef, ScannedRecord, Wal, WalStats};

/// Identifier of a tree (table/index) within the engine.
pub type TreeId = u32;

/// Page trailer: `[page_lsn u64][page_no u32][crc u32]`. The CRC covers the
/// page up to itself, LSN included; a never-written page is all zero.
const TRAILER: usize = 16;
const CATALOG_MAGIC: u64 = 0x44555241_43415431;

/// Engine statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Logical operations.
    pub puts: u64,
    /// Point lookups.
    pub gets: u64,
    /// Deletes.
    pub deletes: u64,
    /// Commits (log flush requests).
    pub commits: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Tablespace page writes (home-location writes).
    pub page_writes: u64,
    /// Tablespace page reads.
    pub page_reads: u64,
    /// Double-write-area page writes.
    pub dwb_writes: u64,
    /// Pages whose trailer failed verification at read (data corruption).
    pub corrupt_reads: u64,
    /// Pages restored from the double-write area during recovery.
    pub repaired_pages: u64,
}

/// The engine's I/O half: both volumes, the log, the tablespace and the
/// double-write area. It is what the buffer pool faults from and evicts to,
/// and it implements the WAL rule and the double-write protocol.
struct Io<D: BlockDevice, L: BlockDevice> {
    data: Volume<D>,
    logv: Volume<L>,
    wal: Wal,
    ts: PageFile,
    dwb: PageFile,
    double_write: bool,
    dwb_cursor: u64,
    /// The sealed pages of the batch being written, back to back; reused
    /// from batch to batch.
    run: Vec<u8>,
    stats: EngineStats,
}

/// A physical page's LSN: the end LSN of the last operation (or redone
/// record) that changed it; 0 for a page with no history.
fn page_lsn(page: &[u8]) -> Lsn {
    let n = page.len();
    u64::from_le_bytes(page[n - 16..n - 8].try_into().unwrap())
}

fn set_page_lsn(page: &mut [u8], lsn: Lsn) {
    let n = page.len();
    page[n - 16..n - 8].copy_from_slice(&lsn.to_le_bytes());
}

/// The page number a physical page was sealed for.
fn sealed_page_no(page: &[u8]) -> u64 {
    let n = page.len();
    u32::from_le_bytes(page[n - 8..n - 4].try_into().unwrap()) as u64
}

/// Whether nothing was ever written where this physical page was read.
fn never_written(page: &[u8]) -> bool {
    page[page.len() - TRAILER..].iter().all(|&b| b == 0)
}

/// Verify a physical page's trailer against its page number. Returns true
/// when the page is intact.
fn trailer_ok(page: &[u8], page_no: u64) -> bool {
    let n = page.len();
    let stored_crc = u32::from_le_bytes(page[n - 4..].try_into().unwrap());
    sealed_page_no(page) == page_no && stored_crc == crc32(&page[..n - 4])
}

/// Seal a physical page for writing: page number and CRC behind the LSN the
/// frame already carries.
fn stamp_trailer(page: &mut [u8], page_no: u64) {
    let n = page.len();
    page[n - 8..n - 4].copy_from_slice(&(page_no as u32).to_le_bytes());
    let crc = crc32(&page[..n - 4]);
    page[n - 4..].copy_from_slice(&crc.to_le_bytes());
}

impl<D: BlockDevice, L: BlockDevice> PageBackend for Io<D, L> {
    fn read_page(&mut self, page_no: u64, buf: &mut [u8], now: Nanos) -> Nanos {
        self.stats.page_reads += 1;
        let t = match self.ts.read_page(&mut self.data, page_no, buf, now) {
            Ok(t) if never_written(buf) => t,
            Ok(t) if trailer_ok(buf, page_no) => return t,
            Ok(t) => {
                // Torn write the device could not detect (e.g. lost cache
                // lines recombined): surface as corruption.
                self.stats.corrupt_reads += 1;
                t
            }
            Err(DevError::ShornPage { .. }) => {
                // Device detected a torn write under this page.
                self.stats.corrupt_reads += 1;
                now
            }
            Err(e) => panic!("tablespace read failed: {e}"),
        };
        // Nothing usable on the volume: hand back an empty leaf with no
        // history (LSN 0), which only a logged page image may fill in redo.
        let lp = buf.len() - TRAILER;
        bnode::init(&mut buf[..lp], bnode::Kind::Leaf, 0);
        buf[lp..].fill(0);
        t
    }

    fn write_page(&mut self, page_no: u64, data: &[u8], now: Nanos) -> Nanos {
        self.write_batch(&[(page_no, data)], now)
    }

    /// InnoDB-style batched flush: WAL rule for the whole batch, one
    /// double-write area write + fsync covering every page, home-location
    /// writes, then a data-volume fsync (`fil_flush`) sealing the batch.
    ///
    /// Each page is sealed once — copied behind the others into `run` and
    /// given its page number and CRC there — and both the double-write run
    /// and the home writes go out from those bytes: a page's two copies are
    /// the same data under the same LSN and page number.
    fn write_batch(&mut self, pages: &[(u64, &[u8])], now: Nanos) -> Nanos {
        if pages.is_empty() {
            return now;
        }
        // WAL rule: the log is durable up to the newest page LSN in the
        // batch before any of it reaches the data volume.
        let mut t = now;
        let max_lsn = pages.iter().map(|(_, data)| page_lsn(data)).fold(0, Lsn::max);
        if max_lsn > self.wal.durable_lsn() {
            t = self.wal.quiesce(&mut self.logv, t);
        }
        self.run.clear();
        for (page_no, data) in pages {
            let at = self.run.len();
            self.run.extend_from_slice(data);
            stamp_trailer(&mut self.run[at..], *page_no);
        }
        self.stats.page_writes += pages.len() as u64;
        if self.double_write {
            // Contiguous run of DWB slots, one device command, one fsync.
            if (self.dwb_cursor % self.dwb.pages()) + pages.len() as u64 > self.dwb.pages() {
                self.dwb_cursor = 0; // wrap to keep the run contiguous
            }
            let first_slot = self.dwb_cursor % self.dwb.pages();
            self.dwb_cursor += pages.len() as u64;
            // DWB copies are redundant page images by definition — tag them
            // so the device's WAF report can attribute them separately from
            // the home-location page writes.
            t = self.data.with_cause(WriteCause::PageImage, |vol| {
                let t = self.dwb.write_pages(vol, first_slot, &self.run, t).expect("dwb run");
                // The copies must be durable before any home write starts.
                vol.fsync(t).expect("data volume")
            });
            self.stats.dwb_writes += pages.len() as u64;
        }
        for ((page_no, _), sealed) in pages.iter().zip(self.run.chunks_exact(self.ts.page_size())) {
            t = self.ts.write_page(&mut self.data, *page_no, sealed, t).expect("home page");
        }
        // One data-volume fsync seals the batch (`fil_flush`; an O_DSYNC
        // engine's write call carries the same barrier request) — per batch,
        // which is also one write call.
        t = self.data.fsync(t).expect("data volume");
        t
    }
}

/// Page-store view handed to the B+-tree for one engine operation. Keeps
/// the frames the operation mutated pinned until [`Engine::finish_op`] has
/// stamped them with the LSN of the log records that describe the change.
struct View<'a, D: BlockDevice, L: BlockDevice> {
    pool: &'a mut BufferPool,
    io: &'a mut Io<D, L>,
    next_page: &'a mut u64,
    logical_ps: usize,
    data_pages: u64,
    /// Pinned frames the operation mutated, one entry per mutable access
    /// ([`Engine::retained`]).
    retained: &'a mut Vec<usize>,
    /// Whether the operation allocated a page.
    structural: bool,
}

impl<D: BlockDevice, L: BlockDevice> PageStore for View<'_, D, L> {
    fn page_size(&self) -> usize {
        self.logical_ps
    }

    fn allocate(&mut self) -> u64 {
        let p = *self.next_page;
        assert!(p < self.data_pages, "tablespace full ({p} pages)");
        *self.next_page += 1;
        self.structural = true;
        p
    }

    fn with_page<R>(&mut self, page_no: u64, now: Nanos, f: impl FnOnce(&[u8]) -> R) -> (R, Nanos) {
        let (idx, t) = self.pool.get(page_no, self.io, now);
        let r = f(&self.pool.data(idx)[..self.logical_ps]);
        self.pool.unpin(idx);
        (r, t)
    }

    fn with_page_mut<R>(
        &mut self,
        page_no: u64,
        now: Nanos,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> (R, Nanos) {
        let (idx, t) = self.pool.get(page_no, self.io, now);
        let r = f(&mut self.pool.data_mut(idx)[..self.logical_ps]);
        self.retained.push(idx);
        (r, t)
    }

    fn with_new_page<R>(
        &mut self,
        page_no: u64,
        now: Nanos,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> (R, Nanos) {
        let (idx, t) = self.pool.create(page_no, self.io, now);
        let r = f(&mut self.pool.data_mut(idx)[..self.logical_ps]);
        self.retained.push(idx);
        (r, t)
    }
}

impl<D: BlockDevice, L: BlockDevice> View<'_, D, L> {
    /// The LSN `page_no` carries right now (redo's guard).
    fn page_lsn(&mut self, page_no: u64, now: Nanos) -> (Lsn, Nanos) {
        let (idx, t) = self.pool.get(page_no, self.io, now);
        let lsn = page_lsn(self.pool.data(idx));
        self.pool.unpin(idx);
        (lsn, t)
    }

    /// Redo of one logged page image: the frame takes it unless the page is
    /// already ahead of the record at `lsn`.
    fn install_image(&mut self, page_no: u64, image: &[u8], lsn: Lsn, now: Nanos) -> Nanos {
        // The page was allocated when the record was logged, installed or not.
        *self.next_page = (*self.next_page).max(page_no + 1);
        let (idx, t) = self.pool.get(page_no, self.io, now);
        if page_lsn(self.pool.data(idx)) <= lsn {
            self.pool.data_mut(idx)[..image.len()].copy_from_slice(image);
            self.retained.push(idx);
        } else {
            self.pool.unpin(idx);
        }
        t
    }
}

/// The attached telemetry handle and the engine's op keys, resolved when it
/// is attached.
struct EngineTel {
    tel: Telemetry,
    cat: Key,
    put: Key,
    get: Key,
    delete: Key,
    scan: Key,
    commit: Key,
    checkpoint: Key,
}

/// The storage engine over a data device `D` and a log device `L`.
pub struct Engine<D: BlockDevice, L: BlockDevice> {
    cfg: EngineConfig,
    io: Io<D, L>,
    catalog: PageFile,
    pool: BufferPool,
    trees: Vec<BTree>,
    next_page: u64,
    catalog_seq: u64,
    /// Pinned frames the operation in progress has mutated, waiting for
    /// [`Engine::finish_op`]; empty between operations.
    retained: Vec<usize>,
    /// Pages whose full image has been logged since the last checkpoint
    /// (full-page-writes mode).
    fpw_logged: HashSet<u64>,
    /// Optional telemetry sink; see [`Engine::attach_telemetry`].
    tel: Option<EngineTel>,
    /// Optional durability ledger; see [`Engine::attach_ledger`].
    ledger: Option<Ledger>,
}

/// On-volume layout: (catalog, double-write area, tablespace, log files).
type Layout = (PageFile, PageFile, PageFile, Vec<PageFile>);

/// Construct the on-volume layout deterministically from the config.
fn layout(cfg: &EngineConfig, data_capacity: u64, log_capacity: u64) -> Layout {
    let mut vm = VolumeManager::new(data_capacity);
    let catalog = PageFile::create(&mut vm, 2, cfg.page_size);
    let dwb = PageFile::create(&mut vm, cfg.dwb_pages, cfg.page_size);
    let ts = PageFile::create(&mut vm, cfg.data_pages, cfg.page_size);
    let mut lvm = VolumeManager::new(log_capacity);
    let logs =
        (0..cfg.log_files).map(|_| PageFile::create(&mut lvm, cfg.log_file_blocks, 4096)).collect();
    (catalog, dwb, ts, logs)
}

impl<D: BlockDevice, L: BlockDevice> Engine<D, L> {
    /// An engine over opened volumes and a positioned log, with an empty
    /// catalog (`create` persists it as is, `recover` fills it in).
    fn assemble(
        cfg: EngineConfig,
        data: Volume<D>,
        logv: Volume<L>,
        (catalog, dwb, ts): (PageFile, PageFile, PageFile),
        mut wal: Wal,
    ) -> Self {
        wal.set_checkpoint_policy(cfg.checkpoint_policy);
        Self {
            io: Io {
                data,
                logv,
                wal,
                ts,
                dwb,
                double_write: cfg.double_write,
                dwb_cursor: 0,
                run: Vec::with_capacity(bufferpool::WRITE_BATCH * cfg.page_size),
                stats: EngineStats::default(),
            },
            catalog,
            pool: BufferPool::new(cfg.pool_frames(), cfg.page_size),
            trees: Vec::new(),
            next_page: 0,
            catalog_seq: 0,
            retained: Vec::new(),
            fpw_logged: HashSet::new(),
            tel: None,
            ledger: None,
            cfg,
        }
    }

    /// Create a fresh database on the given devices. Returns the engine and
    /// the time after initialisation (catalog + log header writes).
    pub fn create(data_dev: D, log_dev: L, cfg: EngineConfig, now: Nanos) -> Timed<Self> {
        cfg.validate();
        let data = Volume::new(data_dev, cfg.barriers);
        let mut logv = Volume::new(log_dev, cfg.barriers);
        let (catalog, dwb, ts, _) = layout(&cfg, data.capacity_pages(), logv.capacity_pages());
        let mut lvm = VolumeManager::new(logv.capacity_pages());
        let (wal, t) = Wal::create(&mut logv, &mut lvm, cfg.log_files, cfg.log_file_blocks, now);
        let mut eng = Self::assemble(cfg, data, logv, (catalog, dwb, ts), wal);
        let t = eng.write_catalog(t);
        Timed::new(eng, t)
    }

    /// Attach a telemetry sink to every layer under this engine: the data
    /// and log volumes (device latency histograms and the anatomy frame of
    /// every command), the buffer pool (`pool.miss_stall`,
    /// `pool.eviction_write`), the WAL (`wal.*` spans and group-commit
    /// waits), and the engine itself (`engine.put` / `engine.get` /
    /// `engine.commit` … op scopes).
    ///
    /// Device-internal histograms (GC pauses, NAND program/erase, cache
    /// drain) require attaching the same handle to the device *before*
    /// handing it to [`Engine::create`] — e.g. `ssd.attach_telemetry(...)`.
    pub fn attach_telemetry(&mut self, tel: Telemetry) {
        self.io.data.attach_telemetry(tel.clone(), "data");
        self.io.logv.attach_telemetry(tel.clone(), "log");
        self.pool.attach_telemetry(tel.clone());
        self.io.wal.attach_telemetry(tel.clone());
        self.tel = Some(EngineTel {
            cat: tel.key("engine"),
            put: tel.key("engine.put"),
            get: tel.key("engine.get"),
            delete: tel.key("engine.delete"),
            scan: tel.key("engine.scan"),
            commit: tel.key("engine.commit"),
            checkpoint: tel.key("engine.checkpoint"),
            tel,
        });
    }

    /// Attach a durability ledger: `put`/`delete` register pending units
    /// (key + value digest) and `commit` acknowledges them at the
    /// WAL-durable timestamp under the contract in force (barrier ack when
    /// `cfg.barriers`, otherwise the device cache's own contract). The
    /// layers below do not know a unit and count their own acks
    /// ([`Engine::wal_stats`], `Volume::fsync_count`, `DeviceStats`).
    pub fn attach_ledger(&mut self, ledger: Ledger) {
        self.ledger = Some(ledger);
    }

    /// Open the scope of one engine operation: every span emitted below
    /// the engine while it runs (WAL flush, pool eviction, device write,
    /// cache drain, NAND program, ...) carries the trace-ID allocated here,
    /// so a whole commit renders as one track in Perfetto. With latency
    /// anatomy enabled the scope is also the op's attribution frame —
    /// device, WAL and cache layers charge queueing and service segments
    /// against it, and closing it audits that they never exceed the op's
    /// wall latency. Closing records the op latency under `name` and ticks
    /// the gauge sampler.
    fn scope(&self, name: fn(&EngineTel) -> Key, now: Nanos) -> Option<Scope> {
        self.tel.as_ref().map(|t| t.tel.op(t.cat, name(t), now))
    }

    /// Engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Engine statistics.
    pub fn stats(&self) -> EngineStats {
        self.io.stats
    }

    /// Buffer-pool statistics.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Reset pool statistics (after warm-up).
    pub fn reset_pool_stats(&mut self) {
        self.pool.reset_stats();
    }

    /// WAL statistics.
    pub fn wal_stats(&self) -> WalStats {
        self.io.wal.stats()
    }

    /// Log bytes a crash right now would leave outstanding — everything
    /// between the on-disk checkpoint header and the append head. This is
    /// the quantity recovery time scales with.
    pub fn wal_outstanding_bytes(&self) -> u64 {
        self.io.wal.live_bytes()
    }

    /// The data volume (device stats inspection).
    pub fn data_volume(&self) -> &Volume<D> {
        &self.io.data
    }

    /// The log volume.
    pub fn log_volume(&self) -> &Volume<L> {
        &self.io.logv
    }

    /// Current miss ratio of the buffer pool.
    pub fn miss_ratio(&self) -> f64 {
        self.pool.miss_ratio()
    }

    fn logical_ps(&self) -> usize {
        self.cfg.page_size - TRAILER
    }

    /// Run `f` over the trees and a page-store view (one operation's
    /// scope); every mutated frame stays pinned, and listed in `retained`,
    /// until [`Engine::finish_op`]. Also returns whether `f` allocated a
    /// page (a structural operation).
    fn op<R>(
        &mut self,
        now: Nanos,
        f: impl FnOnce(&mut [BTree], &mut View<'_, D, L>, Nanos) -> (R, Nanos),
    ) -> (R, bool, Nanos) {
        let logical_ps = self.logical_ps();
        let mut view = View {
            pool: &mut self.pool,
            io: &mut self.io,
            next_page: &mut self.next_page,
            logical_ps,
            data_pages: self.cfg.data_pages,
            retained: &mut self.retained,
            structural: false,
        };
        let (r, t) = f(&mut self.trees, &mut view, now);
        (r, view.structural, t)
    }

    /// Append a foreground op's log records — a [`LogRecord::PageImages`]
    /// sidecar when the op restructured the tree or full-page-writes
    /// demands images, then the logical record itself — and finish the op
    /// at the LSN where they end.
    fn log_op(
        &mut self,
        op: Option<OpRef<'_>>,
        structural: bool,
        root_change: Option<(u32, u64, u8)>,
    ) {
        let fpw = self.cfg.full_page_writes;
        let mut images = Vec::new();
        if structural || fpw {
            // The pins keep every mutated page resident. Images go out in
            // page order, one per page.
            let mut frames: Vec<(u64, usize)> =
                self.retained.iter().map(|&idx| (self.pool.page_no(idx), idx)).collect();
            frames.sort_unstable();
            frames.dedup_by_key(|&mut (page, _)| page);
            let lp = self.logical_ps();
            for (page, idx) in frames {
                // PostgreSQL-style: the first post-checkpoint touch logs the
                // image; a structural op logs every page it rewrote.
                let first_touch = fpw && self.fpw_logged.insert(page);
                if structural || first_touch {
                    images.push((page, self.pool.data(idx)[..lp].to_vec()));
                }
            }
        }
        if !images.is_empty() || root_change.is_some() {
            self.io.wal.append(&LogRecord::PageImages { images, root_change });
        }
        if let Some(op) = op {
            self.io.wal.append_op(op);
        }
        self.finish_op(self.io.wal.next_lsn());
    }

    /// The end of every operation that changed pages, foreground or redo:
    /// stamp each frame it mutated with the LSN where its log records end,
    /// then release the pins.
    fn finish_op(&mut self, end_lsn: Lsn) {
        for idx in self.retained.drain(..) {
            set_page_lsn(self.pool.data_mut(idx), end_lsn);
            self.pool.unpin(idx);
        }
    }

    /// Create a new tree (table or index). Returns its id.
    pub fn create_tree(&mut self, now: Nanos) -> Timed<TreeId> {
        let id = self.trees.len() as TreeId;
        let (tree, structural, t) = self.op(now, |_, view, t| BTree::create(view, t));
        let root_change = Some((id, tree.root(), tree.height()));
        self.trees.push(tree);
        // A creation is pure structure: the PageImages sidecar (the new
        // root's image and the root change) is the whole story; there is no
        // logical op to log.
        self.log_op(None, structural, root_change);
        Timed::new(id, t)
    }

    /// Number of trees in the live catalog. After a crash on an unsafe
    /// configuration, recovery can surface an *older* catalog (the volatile
    /// device legitimately rolls unflushed pages back), so pre-crash
    /// [`TreeId`]s at or beyond this count no longer exist: reads against
    /// them answer "absent" and writes panic with a named message.
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// Insert or overwrite a key.
    pub fn put(&mut self, tree: TreeId, key: &[u8], value: &[u8], now: Nanos) -> Nanos {
        assert!(
            (tree as usize) < self.trees.len(),
            "put into unknown tree {tree}: catalog has {} tree(s) — \
             a crash may have rolled the catalog back; re-create the tree first",
            self.trees.len()
        );
        self.io.stats.puts += 1;
        let scope = self.scope(|t| t.put, now);
        let root_before = self.trees[tree as usize].root();
        let height_before = self.trees[tree as usize].height();
        let (_, structural, t) =
            self.op(now, |trees, view, t| trees[tree as usize].put(view, key, value, t));
        let tr = &self.trees[tree as usize];
        let root_change = if tr.root() != root_before || tr.height() != height_before {
            Some((tree, tr.root(), tr.height()))
        } else {
            None
        };
        self.log_op(Some(OpRef::Put { tree, key, value }), structural, root_change);
        if let Some(ledger) = &self.ledger {
            ledger.pend(UnitKind::RelstoreCommit, key, Some(value));
        }
        scope.map_or(t, |s| s.close(t))
    }

    /// Point lookup.
    pub fn get(&mut self, tree: TreeId, key: &[u8], now: Nanos) -> Timed<Option<Vec<u8>>> {
        self.get_with(tree, key, now, |v| v.map(<[u8]>::to_vec))
    }

    /// Point lookup that runs `f` over the value where it lies in its page
    /// (`None` if absent), so reading a field copies nothing.
    pub fn get_with<R>(
        &mut self,
        tree: TreeId,
        key: &[u8],
        now: Nanos,
        f: impl FnOnce(Option<&[u8]>) -> R,
    ) -> Timed<R> {
        if tree as usize >= self.trees.len() {
            // The tree's catalog entry did not survive recovery (possible
            // only on unsafe configurations): every key reads as absent.
            return Timed::new(f(None), now);
        }
        self.io.stats.gets += 1;
        let scope = self.scope(|t| t.get, now);
        let (r, _, t) =
            self.op(now, |trees, view, t| trees[tree as usize].get_with(view, key, t, f));
        Timed::new(r, scope.map_or(t, |s| s.close(t)))
    }

    /// Delete a key; returns whether it existed.
    pub fn delete(&mut self, tree: TreeId, key: &[u8], now: Nanos) -> Timed<bool> {
        if tree as usize >= self.trees.len() {
            return Timed::new(false, now); // tree lost with the catalog: nothing to delete
        }
        self.io.stats.deletes += 1;
        let scope = self.scope(|t| t.delete, now);
        let (existed, structural, t) =
            self.op(now, |trees, view, t| trees[tree as usize].delete(view, key, t));
        self.log_op(Some(OpRef::Delete { tree, key }), structural, None);
        if let Some(ledger) = &self.ledger {
            // A tombstone: the reconciler expects `Missing` for a surviving
            // delete.
            ledger.pend(UnitKind::RelstoreCommit, key, None);
        }
        Timed::new(existed, scope.map_or(t, |s| s.close(t)))
    }

    /// Ordered scan from `from`: `visit(key, value)` sees each entry where
    /// it lies in its page, until it returns `false` or the tree ends.
    /// Returns the completion time.
    pub fn scan_with(
        &mut self,
        tree: TreeId,
        from: &[u8],
        now: Nanos,
        visit: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> Nanos {
        if tree as usize >= self.trees.len() {
            return now; // tree lost with the catalog: empty scan
        }
        self.io.stats.gets += 1;
        let scope = self.scope(|t| t.scan, now);
        let (_, _, t) =
            self.op(now, |trees, view, t| trees[tree as usize].scan(view, from, t, visit));
        scope.map_or(t, |s| s.close(t))
    }

    /// Ordered scan from `from`, up to `limit` entries, collecting pairs.
    #[allow(clippy::type_complexity)]
    pub fn scan(
        &mut self,
        tree: TreeId,
        from: &[u8],
        limit: usize,
        now: Nanos,
    ) -> Timed<Vec<(Vec<u8>, Vec<u8>)>> {
        // One allocation for every limit callers page with; a larger limit
        // is a bound, not a size, and the vector grows to what is found.
        let mut out = Vec::with_capacity(limit.min(4096));
        let t = self.scan_with(tree, from, now, |k, v| {
            out.push((k.to_vec(), v.to_vec()));
            out.len() < limit
        });
        Timed::new(out, t)
    }

    /// Commit: make everything logged so far durable (group commit). Under
    /// [`CheckpointPolicy::EveryNCommits`] the engine also takes the due
    /// checkpoint here, so the interval knob works without the caller
    /// polling [`Engine::needs_checkpoint`].
    pub fn commit(&mut self, now: Nanos) -> Nanos {
        self.io.stats.commits += 1;
        let scope = self.scope(|t| t.commit, now);
        let target = self.io.wal.next_lsn();
        let mut t = self.io.wal.commit(&mut self.io.logv, target, now);
        if let Some(ledger) = &self.ledger {
            // Everything logged so far is acknowledged durable at `t`. The
            // contract is a barrier ack only when the log volume really
            // issues FLUSH on fsync.
            ledger.ack_all_pending(t, self.cfg.barriers);
        }
        if let Some(scope) = scope {
            scope.close(t);
        }
        if matches!(self.cfg.checkpoint_policy, CheckpointPolicy::EveryNCommits(_))
            && self.io.wal.needs_checkpoint()
        {
            t = self.checkpoint(t);
        }
        t
    }

    /// Enable the WAL's group-commit throughput model (see `wal` docs).
    /// Used by throughput benchmarks; leave off for durability tests.
    pub fn set_group_commit(&mut self, on: bool) {
        self.io.wal.set_group_commit(on);
    }

    /// Strictly flush every logged record to the device and wait.
    pub fn quiesce(&mut self, now: Nanos) -> Nanos {
        self.io.wal.quiesce(&mut self.io.logv, now)
    }

    /// Whether the WAL wants a checkpoint soon.
    pub fn needs_checkpoint(&self) -> bool {
        self.io.wal.needs_checkpoint()
    }

    /// Checkpoint: flush the log, write back every dirty page, persist the
    /// catalog, then point the log header at the LSN the log had when the
    /// write-back began — last, so that a checkpoint cut anywhere before it
    /// leaves the previous one in force (module docs).
    pub fn checkpoint(&mut self, now: Nanos) -> Nanos {
        self.io.stats.checkpoints += 1;
        let scope = self.scope(|t| t.checkpoint, now);
        let t = self.io.wal.quiesce(&mut self.io.logv, now);
        let begin = self.io.wal.next_lsn();
        let t = self.pool.flush_all(&mut self.io, t);
        let t = self.io.data.fsync(t).expect("data volume");
        let t = self.write_catalog(t);
        self.fpw_logged.clear();
        // Everything logged before `begin` is now on the data volume.
        let t = self.io.wal.checkpoint(&mut self.io.logv, begin, t);
        scope.map_or(t, |s| s.close(t))
    }

    fn encode_catalog(&self) -> Vec<u8> {
        let mut buf = vec![0u8; self.cfg.page_size];
        buf[..8].copy_from_slice(&CATALOG_MAGIC.to_le_bytes());
        buf[8..16].copy_from_slice(&self.catalog_seq.to_le_bytes());
        buf[16..24].copy_from_slice(&self.next_page.to_le_bytes());
        buf[24..28].copy_from_slice(&(self.trees.len() as u32).to_le_bytes());
        let mut off = 28;
        for t in &self.trees {
            buf[off..off + 8].copy_from_slice(&t.root().to_le_bytes());
            buf[off + 8] = t.height();
            off += 9;
        }
        let crc = crc32(&buf[..off]);
        let n = buf.len();
        buf[n - 4..].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    fn write_catalog(&mut self, now: Nanos) -> Nanos {
        self.catalog_seq += 1;
        let buf = self.encode_catalog();
        let slot = self.catalog_seq % 2;
        let t = self.catalog.write_page(&mut self.io.data, slot, &buf, now).expect("catalog page");
        self.io.data.fsync(t).expect("data volume")
    }

    /// Simulate a host + storage crash: cut power to both devices and drop
    /// all in-memory state. Returns the raw devices for later recovery.
    pub fn crash(mut self, now: Nanos) -> (D, L) {
        self.io.data.power_cut(now);
        self.io.logv.power_cut(now);
        (self.io.data.into_device(), self.io.logv.into_device())
    }

    /// Recover a database from devices after a crash. Reboots the devices,
    /// repairs torn pages via the double-write area, then redoes the log
    /// from the checkpoint header under the page-LSN guard (module docs).
    ///
    /// The returned [`Recovered`] carries replay statistics: the header's
    /// checkpoint LSN, how many records the scan from it returned
    /// (`replayed`, whether or not the pages they describe still needed
    /// them), and whether the scan truncated at a torn record (recovery
    /// still succeeds — use [`crate::tear_error`] to turn a tear into a hard
    /// [`Error::TornLog`] when the caller demands a clean log). Redo never appends to the WAL
    /// and never allocates a page — [`Error::Recovery`] if a record would —
    /// so recovering the same image twice yields identical state.
    pub fn recover(
        data_dev: D,
        log_dev: L,
        cfg: EngineConfig,
        now: Nanos,
    ) -> Result<Recovered<Self>, Error> {
        cfg.validate();
        let mut data = Volume::new(data_dev, cfg.barriers);
        let mut logv = Volume::new(log_dev, cfg.barriers);
        // Both devices power up at once (a powered one is ready at `now`).
        let booted = data.reboot(now).max(logv.reboot(now));
        let mut t = booted;
        let (catalog, dwb, ts, log_layout) =
            layout(&cfg, data.capacity_pages(), logv.capacity_pages());
        let mut stats = EngineStats::default();
        // Every read phase below keeps the device's queue full instead of
        // waiting out each command (`at_queue_depth`); a phase starts when
        // the one before has its last ack.
        // 1. Catalog: both slots at once, newest valid copy wins.
        let mut best: Option<(u64, Vec<u8>)> = None;
        let mut buf = vec![0u8; cfg.page_size];
        t = at_queue_depth(0..2u64, t, |slot, at| {
            let done = match catalog.read_page(&mut data, slot, &mut buf, at) {
                Ok(done) => done,
                Err(DevError::ShornPage { .. }) => return Ok(at),
                Err(e) => return Err(e),
            };
            let magic = u64::from_le_bytes(buf[..8].try_into().unwrap());
            let ntrees = u32::from_le_bytes(buf[24..28].try_into().unwrap()) as usize;
            let body_len = 28 + ntrees * 9;
            if magic != CATALOG_MAGIC || body_len + 4 > buf.len() {
                return Ok(done);
            }
            let crc = u32::from_le_bytes(buf[buf.len() - 4..].try_into().unwrap());
            let seq = u64::from_le_bytes(buf[8..16].try_into().unwrap());
            if crc == crc32(&buf[..body_len]) && best.as_ref().is_none_or(|(s, _)| seq > *s) {
                best = Some((seq, buf.clone()));
            }
            Ok(done)
        })?;
        let (catalog_seq, cbuf) = best.ok_or(Error::NoCatalog)?;
        let next_page = u64::from_le_bytes(cbuf[16..24].try_into().unwrap());
        let ntrees = u32::from_le_bytes(cbuf[24..28].try_into().unwrap()) as usize;
        let mut trees = Vec::with_capacity(ntrees);
        for i in 0..ntrees {
            let off = 28 + i * 9;
            let root = u64::from_le_bytes(cbuf[off..off + 8].try_into().unwrap());
            trees.push(BTree::open(root, cbuf[off + 8]));
        }
        // 2. Double-write repair. The area keeps older copies of a page
        // beside newer ones (the cursor only wraps), so a bad home page is
        // repaired from its valid copy with the highest page LSN — the copy
        // of the write that tore it. One pass over the slots keeps the
        // newest copy per page; each such page's home is then checked once,
        // and the torn ones are written back together.
        if cfg.double_write {
            let mut newest: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
            // The area is read a write batch per command. A copy the cut
            // tore (its home is intact) reads as zeroes, like a slot never
            // used: neither passes its trailer.
            let mut run = vec![0u8; bufferpool::WRITE_BATCH * cfg.page_size];
            let batches = (0..dwb.pages()).step_by(bufferpool::WRITE_BATCH);
            t = at_queue_depth(batches, t, |first, at| {
                let n = (dwb.pages() - first).min(bufferpool::WRITE_BATCH as u64) as usize;
                let run = &mut run[..n * cfg.page_size];
                let (done, _) = dwb.read_pages_past_shorn(&mut data, first, run, at)?;
                for copy in run.chunks_exact(cfg.page_size) {
                    let page_no = sealed_page_no(copy);
                    if page_no >= cfg.data_pages || !trailer_ok(copy, page_no) {
                        continue;
                    }
                    let kept = newest.entry(page_no).or_insert_with(|| copy.to_vec());
                    if page_lsn(kept) < page_lsn(copy) {
                        kept.copy_from_slice(copy);
                    }
                }
                Ok::<_, DevError>(done)
            })?;
            let mut torn = Vec::new();
            t = at_queue_depth(newest.keys(), t, |&page_no, at| {
                let (done, home_ok) = match ts.read_page(&mut data, page_no, &mut buf, at) {
                    Ok(done) => (done, never_written(&buf) || trailer_ok(&buf, page_no)),
                    Err(DevError::ShornPage { .. }) => (at, false),
                    Err(e) => return Err(e),
                };
                if !home_ok {
                    torn.push(page_no);
                }
                Ok(done)
            })?;
            t = at_queue_depth(&torn, t, |page_no, at| {
                ts.write_page(&mut data, *page_no, &newest[page_no], at)
            })?;
            stats.repaired_pages = torn.len() as u64;
            if !torn.is_empty() {
                t = data.fsync(t)?;
            }
        }
        // 3. Log recovery.
        let (wal, scan, scanned) = Wal::recover(&mut logv, log_layout, t)?;
        t = scanned;
        let mut eng = Self::assemble(cfg, data, logv, (catalog, dwb, ts), wal);
        eng.io.stats = stats;
        eng.trees = trees;
        eng.next_page = next_page;
        eng.catalog_seq = catalog_seq;
        // 4. Redo every scanned record: structure first (images and root
        // changes), then data, each in log order. The WAL is left alone —
        // assert that.
        let appends_before = eng.io.wal.stats().appends;
        for images in [true, false] {
            for sr in &scan.records {
                if matches!(sr.record, LogRecord::PageImages { .. }) == images {
                    t = eng.redo(sr, t)?;
                }
            }
        }
        debug_assert_eq!(eng.io.wal.stats().appends, appends_before, "redo must not grow the WAL");
        let replay = ReplayStats {
            checkpoint_lsn: eng.io.wal.checkpoint_lsn(),
            replayed: scan.records.len() as u64,
            torn: scan.tear.iter().count() as u64,
            tear_lsn: scan.tear.map(|tear| tear.lsn),
            replay_ns: t - now,
            reboot_ns: booted - now,
            scan_ns: scanned - booted,
            redo_ns: t - scanned,
        };
        Ok(Recovered::new(eng, t, replay))
    }

    /// Redo one scanned record under the page-LSN guard (module docs): an
    /// image is installed unless its page is ahead of the record; a logical
    /// record is applied iff the leaf it routes to has history and is not
    /// ahead. Every frame redo changes carries the record's end LSN.
    fn redo(&mut self, sr: &ScannedRecord, now: Nanos) -> Result<Nanos, Error> {
        let mut t = now;
        match &sr.record {
            LogRecord::PageImages { images, root_change } => {
                let (_, _, t2) = self.op(t, |_, view, mut t| {
                    for (page, image) in images {
                        t = view.install_image(*page, image, sr.lsn, t);
                    }
                    ((), t)
                });
                t = t2;
                self.finish_op(sr.end);
                if let Some((tree, root, height)) = *root_change {
                    while self.trees.len() <= tree as usize {
                        self.trees.push(BTree::open(root, height));
                    }
                    self.trees[tree as usize] = BTree::open(root, height);
                }
            }
            LogRecord::Put { tree, key, .. } | LogRecord::Delete { tree, key } => {
                let tree = *tree as usize;
                if tree >= self.trees.len() {
                    // A tree the surviving catalog and log no longer know
                    // (possible only on unsafe configurations).
                    return Ok(t);
                }
                let (_, allocated, t2) = self.op(t, |trees, view, t| {
                    let tree = &mut trees[tree];
                    let (leaf, t) = tree.leaf_for(view, key, t);
                    let (lsn, t) = view.page_lsn(leaf, t);
                    if lsn == 0 || lsn > sr.lsn {
                        return ((), t);
                    }
                    match &sr.record {
                        LogRecord::Put { value, .. } => ((), tree.put(view, key, value, t).1),
                        _ => ((), tree.delete(view, key, t).1),
                    }
                });
                t = t2;
                self.finish_op(sr.end);
                if allocated {
                    return Err(Error::Recovery(format!(
                        "redo of the record at lsn {} allocated a page",
                        sr.lsn
                    )));
                }
            }
            // Document records belong to the other engine's log.
            LogRecord::DocSet { .. } | LogRecord::DocDelete { .. } => {}
        }
        Ok(t)
    }
}
