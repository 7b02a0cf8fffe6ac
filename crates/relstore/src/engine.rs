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
//! * A dirty page may reach the data volume only after the records that
//!   touched it are durable (checked at eviction against a per-page LSN).
//! * `commit` group-flushes the log tail; whether that reaches flash is the
//!   barrier policy's business (the paper's experiment knob).
//!
//! ## Checkpoints and bounded recovery
//!
//! A checkpoint brackets its page flush with `CheckpointBegin`/`End`
//! markers in the log, then points the log header at the *previous*
//! checkpoint's Begin (lag-one). Recovery therefore always scans across at
//! least one complete Begin/End pair: records at or before the newest
//! `CheckpointEnd` are provably reflected on the data volume and are
//! *skipped*; everything after is replayed through the normal BTree write
//! API with the WAL disabled (replay never grows the log, and replaying
//! twice is idempotent: put = upsert, delete of a missing key = no-op).
//!
//! ## Torn-page protection
//!
//! Every physical page carries a 16-byte trailer `[page_no][crc][magic]`.
//! With `double_write` on, each eviction writes the page to the double-write
//! area, fsyncs, then writes it home (InnoDB §2.1); recovery scans the area
//! and repairs any home page whose trailer fails. With `double_write` off,
//! a torn home page is repaired only if the device guarantees atomic page
//! writes — which is precisely DuraSSD's contribution.

use crate::config::EngineConfig;
use btree::{node as bnode, BTree, PageStore};
use bufferpool::{BufferPool, PageBackend, PoolStats};
use durassd::Error;
use forensics::{EvidenceKind, Ledger, UnitKind};
use simkit::{crc32_bytewise, Nanos, Recovered, ReplayStats, Timed};
use std::collections::HashMap;
use storage::device::{BlockDevice, DevError, WriteCause};
use storage::file::PageFile;
use storage::volume::{Volume, VolumeManager};
use telemetry::{Scope, Telemetry};
use wal::{CheckpointPolicy, LogRecord, Lsn, Wal, WalStats};

/// Identifier of a tree (table/index) within the engine.
pub type TreeId = u32;

/// Page trailer: `[page_no u64][crc u32][magic u32]`.
const TRAILER: usize = 16;
const PAGE_MAGIC: u32 = 0x44757261; // "Dura"
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
    /// Redo records replayed during recovery.
    pub replayed_records: u64,
}

/// The storage backend the buffer pool faults from / evicts to. Implements
/// the WAL rule and the double-write protocol.
struct Backend<'a, D: BlockDevice, L: BlockDevice> {
    vol: &'a mut Volume<D>,
    logv: &'a mut Volume<L>,
    wal: &'a mut Wal,
    ts: PageFile,
    dwb: PageFile,
    double_write: bool,
    dwb_cursor: &'a mut u64,
    dirty_lsn: &'a mut HashMap<u64, Lsn>,
    scratch: &'a mut Vec<u8>,
    stats: &'a mut EngineStats,
}

/// Verify a physical page's trailer against its page number. Returns true
/// when the page is intact.
fn trailer_ok(buf: &[u8], page_no: u64) -> bool {
    let n = buf.len();
    let stored_no = u64::from_le_bytes(buf[n - 16..n - 8].try_into().unwrap());
    let stored_crc = u32::from_le_bytes(buf[n - 8..n - 4].try_into().unwrap());
    let magic = u32::from_le_bytes(buf[n - 4..].try_into().unwrap());
    magic == PAGE_MAGIC && stored_no == page_no && stored_crc == crc32_bytewise(&buf[..n - 16])
}

/// Stamp the trailer onto a physical page buffer.
fn stamp_trailer(buf: &mut [u8], page_no: u64) {
    let n = buf.len();
    let crc = crc32_bytewise(&buf[..n - 16]);
    buf[n - 16..n - 8].copy_from_slice(&page_no.to_le_bytes());
    buf[n - 8..n - 4].copy_from_slice(&crc.to_le_bytes());
    buf[n - 4..].copy_from_slice(&PAGE_MAGIC.to_le_bytes());
}

impl<D: BlockDevice, L: BlockDevice> PageBackend for Backend<'_, D, L> {
    fn read_page(&mut self, page_no: u64, buf: &mut [u8], now: Nanos) -> Nanos {
        self.stats.page_reads += 1;
        let t = match self.ts.read_page(self.vol, page_no, buf, now) {
            Ok(t) => t,
            Err(DevError::ShornPage { .. }) => {
                // Device detected a torn write under this page.
                self.stats.corrupt_reads += 1;
                let lp = buf.len() - TRAILER;
                bnode::init(&mut buf[..lp], bnode::Kind::Leaf, 0);
                stamp_trailer(buf, page_no);
                return now;
            }
            Err(e) => panic!("tablespace read failed: {e}"),
        };
        let all_zero_magic = u32::from_le_bytes(buf[buf.len() - 4..].try_into().unwrap()) == 0;
        if all_zero_magic {
            // Never-written page: hand back a fresh empty leaf.
            let lp = buf.len() - TRAILER;
            bnode::init(&mut buf[..lp], bnode::Kind::Leaf, 0);
            stamp_trailer(buf, page_no);
            return t;
        }
        if !trailer_ok(buf, page_no) {
            // Torn write the device could not detect (e.g. lost cache lines
            // recombined): surface as corruption, degrade to an empty leaf.
            self.stats.corrupt_reads += 1;
            let lp = buf.len() - TRAILER;
            bnode::init(&mut buf[..lp], bnode::Kind::Leaf, 0);
            stamp_trailer(buf, page_no);
        }
        t
    }

    fn write_page(&mut self, page_no: u64, data: &[u8], now: Nanos) -> Nanos {
        self.write_batch(&[(page_no, data)], now)
    }

    /// InnoDB-style batched flush: WAL rule for the whole batch, one
    /// double-write area write + fsync covering every page, home-location
    /// writes, then a data-volume fsync (`fil_flush`) sealing the batch.
    fn write_batch(&mut self, pages: &[(u64, &[u8])], now: Nanos) -> Nanos {
        if pages.is_empty() {
            return now;
        }
        // WAL rule: records that dirtied any page in the batch first.
        let mut t = now;
        let mut max_lsn = 0;
        for (page_no, _) in pages {
            if let Some(lsn) = self.dirty_lsn.remove(page_no) {
                max_lsn = max_lsn.max(lsn);
            }
        }
        if max_lsn > self.wal.durable_lsn() {
            t = self.wal.quiesce(self.logv, t);
        }
        self.stats.page_writes += pages.len() as u64;
        if self.double_write {
            // Contiguous run of DWB slots, one device command, one fsync.
            let ps = self.dwb.page_size();
            if (*self.dwb_cursor % self.dwb.pages()) + pages.len() as u64 > self.dwb.pages() {
                *self.dwb_cursor = 0; // wrap to keep the run contiguous
            }
            let first_slot = *self.dwb_cursor % self.dwb.pages();
            let mut run = vec![0u8; pages.len() * ps];
            for (i, (page_no, data)) in pages.iter().enumerate() {
                let dst = &mut run[i * ps..(i + 1) * ps];
                dst[..data.len()].copy_from_slice(data);
                stamp_trailer(dst, *page_no);
            }
            *self.dwb_cursor += pages.len() as u64;
            // DWB copies are redundant page images by definition — tag them
            // so the device's WAF report can attribute them separately from
            // the home-location page writes.
            t = self.vol.with_cause(WriteCause::PageImage, |vol| {
                let t = self.dwb.write_pages(vol, first_slot, &run, t).expect("dwb run");
                // The copies must be durable before any home write starts.
                vol.fsync(t).expect("data volume")
            });
            self.stats.dwb_writes += pages.len() as u64;
        }
        for (page_no, data) in pages {
            self.scratch.clear();
            self.scratch.extend_from_slice(data);
            stamp_trailer(self.scratch, *page_no);
            t = self.ts.write_page(self.vol, *page_no, self.scratch, t).expect("home page");
        }
        // One data-volume fsync seals the batch: `fil_flush` for the
        // MySQL-like engine; for the O_DSYNC engine the write call itself
        // carries the barrier request — either way it is per batch, which is
        // also one write call.
        t = self.vol.fsync(t).expect("data volume");
        t
    }
}

/// Page-store view handed to the B+-tree for one engine operation. Records
/// which pages the operation mutated/allocated and keeps them pinned until
/// the operation's redo record is appended.
struct View<'a, D: BlockDevice, L: BlockDevice> {
    pool: &'a mut BufferPool,
    be: Backend<'a, D, L>,
    logical_ps: usize,
    next_page: &'a mut u64,
    data_pages: u64,
    retained: Vec<usize>,
    mut_pages: Vec<u64>,
    allocated: Vec<u64>,
    /// Capture images of every mutated page (full-page-writes mode).
    image_all: bool,
}

impl<D: BlockDevice, L: BlockDevice> PageStore for View<'_, D, L> {
    fn page_size(&self) -> usize {
        self.logical_ps
    }

    fn allocate(&mut self) -> u64 {
        let p = *self.next_page;
        assert!(p < self.data_pages, "tablespace full ({p} pages)");
        *self.next_page += 1;
        self.allocated.push(p);
        p
    }

    fn with_page<R>(&mut self, page_no: u64, now: Nanos, f: impl FnOnce(&[u8]) -> R) -> (R, Nanos) {
        let (idx, t) = self.pool.get(page_no, &mut self.be, now);
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
        let (idx, t) = self.pool.get(page_no, &mut self.be, now);
        let r = f(&mut self.pool.data_mut(idx)[..self.logical_ps]);
        // Keep the pin until the redo record is on the log (View summary).
        self.retained.push(idx);
        self.mut_pages.push(page_no);
        (r, t)
    }

    fn with_new_page<R>(
        &mut self,
        page_no: u64,
        now: Nanos,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> (R, Nanos) {
        let (idx, t) = self.pool.create(page_no, &mut self.be, now);
        let r = f(&mut self.pool.data_mut(idx)[..self.logical_ps]);
        self.retained.push(idx);
        self.mut_pages.push(page_no);
        (r, t)
    }
}

/// What one operation touched; computed before the view's borrows end.
struct OpSummary {
    retained: Vec<usize>,
    touched: Vec<u64>,
    structural: bool,
    images: Vec<(u64, Vec<u8>)>,
}

impl<D: BlockDevice, L: BlockDevice> View<'_, D, L> {
    fn summarize(self) -> OpSummary {
        let structural = !self.allocated.is_empty();
        let mut touched: Vec<u64> = self.mut_pages;
        touched.extend_from_slice(&self.allocated);
        touched.sort_unstable();
        touched.dedup();
        let images = if structural || self.image_all {
            touched
                .iter()
                .map(|&p| {
                    // Pages are retained-pinned, so they are resident.
                    let idx = self
                        .retained
                        .iter()
                        .copied()
                        .find(|&i| self.pool.page_no(i) == p)
                        .expect("touched page still pinned");
                    (p, self.pool.data(idx)[..self.logical_ps].to_vec())
                })
                .collect()
        } else {
            Vec::new()
        };
        OpSummary { retained: self.retained, touched, structural, images }
    }
}

/// The storage engine over a data device `D` and a log device `L`.
pub struct Engine<D: BlockDevice, L: BlockDevice> {
    cfg: EngineConfig,
    data: Volume<D>,
    logv: Volume<L>,
    catalog: PageFile,
    dwb: PageFile,
    ts: PageFile,
    pool: BufferPool,
    wal: Wal,
    trees: Vec<BTree>,
    next_page: u64,
    dwb_cursor: u64,
    catalog_seq: u64,
    /// Begin LSN of the most recent completed checkpoint. The log header
    /// lags one checkpoint behind (it points at the *previous* Begin) so a
    /// recovery scan always crosses a complete Begin/End pair.
    last_ckpt_begin: Lsn,
    dirty_lsn: HashMap<u64, Lsn>,
    /// Pages whose full image has been logged since the last checkpoint
    /// (full-page-writes mode).
    fpw_logged: std::collections::HashSet<u64>,
    scratch: Vec<u8>,
    stats: EngineStats,
    /// Optional telemetry sink; see [`Engine::attach_telemetry`].
    tel: Option<Telemetry>,
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
    /// Create a fresh database on the given devices. Returns the engine and
    /// the time after initialisation (catalog + log header writes).
    pub fn create(data_dev: D, log_dev: L, cfg: EngineConfig, now: Nanos) -> Timed<Self> {
        cfg.validate();
        let data = Volume::new(data_dev, cfg.barriers);
        let mut logv = Volume::new(log_dev, cfg.barriers);
        let (catalog, dwb, ts, _log_layout) =
            layout(&cfg, data.capacity_pages(), logv.capacity_pages());
        let (mut wal, t) = {
            let mut lvm = VolumeManager::new(logv.capacity_pages());
            Wal::create(&mut logv, &mut lvm, cfg.log_files, cfg.log_file_blocks, now)
        };
        wal.set_checkpoint_policy(cfg.checkpoint_policy);
        let pool = BufferPool::new(cfg.pool_frames(), cfg.page_size);
        let mut eng = Self {
            data,
            logv,
            catalog,
            dwb,
            ts,
            pool,
            wal,
            trees: Vec::new(),
            next_page: 0,
            dwb_cursor: 0,
            catalog_seq: 0,
            last_ckpt_begin: 0,
            dirty_lsn: HashMap::new(),
            fpw_logged: std::collections::HashSet::new(),
            scratch: Vec::with_capacity(cfg.page_size),
            stats: EngineStats::default(),
            tel: None,
            ledger: None,
            cfg,
        };
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
        self.data.attach_telemetry(tel.clone(), "data");
        self.logv.attach_telemetry(tel.clone(), "log");
        self.pool.attach_telemetry(tel.clone());
        self.wal.attach_telemetry(tel.clone());
        self.tel = Some(tel);
    }

    /// Attach a durability ledger to the engine and every layer under it:
    /// `put`/`delete` register pending units (key + value digest), `commit`
    /// acknowledges them at the WAL-durable timestamp under the contract in
    /// force (barrier ack when `cfg.barriers`, otherwise the device cache's
    /// own contract), the WAL records `wal-flush` evidence, and both
    /// volumes record `fsync-ack` evidence. Device-internal evidence
    /// (atomic write acks, FLUSH CACHE acks) requires attaching the same
    /// ledger to the device *before* handing it to [`Engine::create`].
    pub fn attach_ledger(&mut self, ledger: Ledger) {
        self.data.attach_ledger(ledger.clone());
        self.logv.attach_ledger(ledger.clone());
        self.wal.attach_ledger(ledger.clone());
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
    fn scope(&self, name: &'static str, now: Nanos) -> Option<Scope<'static>> {
        self.tel.as_ref().map(|tel| tel.op("engine", name, now))
    }

    /// Engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Engine statistics.
    pub fn stats(&self) -> EngineStats {
        self.stats
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
        self.wal.stats()
    }

    /// Log bytes a crash right now would leave outstanding — everything
    /// between the on-disk checkpoint header and the append head. This is
    /// the quantity recovery time scales with.
    pub fn wal_outstanding_bytes(&self) -> u64 {
        self.wal.live_bytes()
    }

    /// The data volume (device stats inspection).
    pub fn data_volume(&self) -> &Volume<D> {
        &self.data
    }

    /// The log volume.
    pub fn log_volume(&self) -> &Volume<L> {
        &self.logv
    }

    /// Current miss ratio of the buffer pool.
    pub fn miss_ratio(&self) -> f64 {
        self.pool.miss_ratio()
    }

    fn logical_ps(&self) -> usize {
        self.cfg.page_size - TRAILER
    }

    /// Build a view + backend over disjoint fields (one operation's scope).
    fn op<R>(
        &mut self,
        now: Nanos,
        f: impl FnOnce(&mut Vec<BTree>, &mut View<'_, D, L>, Nanos) -> (R, Nanos),
    ) -> (R, OpSummary, Nanos) {
        let logical_ps = self.cfg.page_size - TRAILER;
        let Engine {
            cfg,
            data,
            logv,
            dwb,
            ts,
            pool,
            wal,
            trees,
            next_page,
            dwb_cursor,
            dirty_lsn,
            scratch,
            stats,
            ..
        } = self;
        let mut view = View {
            pool,
            be: Backend {
                vol: data,
                logv,
                wal,
                ts: *ts,
                dwb: *dwb,
                double_write: cfg.double_write,
                dwb_cursor,
                dirty_lsn,
                scratch,
                stats,
            },
            logical_ps,
            next_page,
            data_pages: cfg.data_pages,
            retained: Vec::new(),
            mut_pages: Vec::new(),
            allocated: Vec::new(),
            image_all: cfg.full_page_writes,
        };
        let (r, t) = f(trees, &mut view, now);
        let summary = view.summarize();
        (r, summary, t)
    }

    /// Append the op's log records (a [`LogRecord::PageImages`] sidecar
    /// when the op restructured the tree or full-page-writes demands
    /// images, then the logical record itself), update per-page LSNs,
    /// release pins.
    fn log_op(
        &mut self,
        op: Option<LogRecord>,
        summary: OpSummary,
        root_change: Option<(u32, u64, u8)>,
    ) {
        let images = if summary.structural {
            if self.cfg.full_page_writes {
                for (p, _) in &summary.images {
                    self.fpw_logged.insert(*p);
                }
            }
            summary.images
        } else if self.cfg.full_page_writes {
            // PostgreSQL-style: first post-checkpoint touch logs the image.
            summary.images.into_iter().filter(|(p, _)| self.fpw_logged.insert(*p)).collect()
        } else {
            Vec::new()
        };
        if !images.is_empty() || root_change.is_some() {
            self.wal.append(&LogRecord::PageImages { images, root_change });
        }
        if let Some(op) = op {
            self.wal.append(&op);
        }
        let lsn_end = self.wal.next_lsn();
        for p in &summary.touched {
            self.dirty_lsn.insert(*p, lsn_end);
        }
        for idx in summary.retained {
            self.pool.unpin(idx);
        }
    }

    /// Create a new tree (table or index). Returns its id.
    pub fn create_tree(&mut self, now: Nanos) -> Timed<TreeId> {
        let id = self.trees.len() as TreeId;
        let (tree, summary, t) = self.op(now, |trees, view, t| {
            let (tree, t) = BTree::create(view, t);
            let _ = trees;
            (tree, t)
        });
        let root = tree.root();
        let height = tree.height();
        self.trees.push(tree);
        // A tree creation is structural by definition.
        let mut summary = summary;
        summary.structural = true;
        if summary.images.is_empty() {
            // `summarize` built images already (allocation occurred), but be
            // defensive about future changes.
            debug_assert!(!summary.touched.is_empty());
        }
        // A creation is pure structure: the PageImages sidecar (with the
        // root change) is the whole story; there is no logical op to log.
        self.log_op(None, summary, Some((id, root, height)));
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
        self.stats.puts += 1;
        let scope = self.scope("engine.put", now);
        let root_before = self.trees[tree as usize].root();
        let height_before = self.trees[tree as usize].height();
        let (_, summary, t) =
            self.op(now, |trees, view, t| trees[tree as usize].put(view, key, value, t));
        let tr = &self.trees[tree as usize];
        let root_change = if tr.root() != root_before || tr.height() != height_before {
            Some((tree, tr.root(), tr.height()))
        } else {
            None
        };
        self.log_op(
            Some(LogRecord::Put { tree, key: key.to_vec(), value: value.to_vec() }),
            summary,
            root_change,
        );
        if let Some(ledger) = &self.ledger {
            ledger.pend(UnitKind::RelstoreCommit, key, Ledger::digest(value), now);
        }
        scope.map_or(t, |s| s.close(t))
    }

    /// Point lookup.
    pub fn get(&mut self, tree: TreeId, key: &[u8], now: Nanos) -> Timed<Option<Vec<u8>>> {
        if tree as usize >= self.trees.len() {
            // The tree's catalog entry did not survive recovery (possible
            // only on unsafe configurations): every key reads as absent.
            return Timed::new(None, now);
        }
        self.stats.gets += 1;
        let scope = self.scope("engine.get", now);
        let (r, summary, t) = self.op(now, |trees, view, t| trees[tree as usize].get(view, key, t));
        for idx in summary.retained {
            self.pool.unpin(idx);
        }
        Timed::new(r, scope.map_or(t, |s| s.close(t)))
    }

    /// Delete a key; returns whether it existed.
    pub fn delete(&mut self, tree: TreeId, key: &[u8], now: Nanos) -> Timed<bool> {
        if tree as usize >= self.trees.len() {
            return Timed::new(false, now); // tree lost with the catalog: nothing to delete
        }
        self.stats.deletes += 1;
        let scope = self.scope("engine.delete", now);
        let (existed, summary, t) =
            self.op(now, |trees, view, t| trees[tree as usize].delete(view, key, t));
        self.log_op(Some(LogRecord::Delete { tree, key: key.to_vec() }), summary, None);
        if let Some(ledger) = &self.ledger {
            // A delete's "value" is absence: record the tombstone digest so
            // the reconciler expects `Missing` for a surviving delete.
            ledger.pend(UnitKind::RelstoreCommit, key, Ledger::digest(&[]), now);
        }
        Timed::new(existed, scope.map_or(t, |s| s.close(t)))
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
        if tree as usize >= self.trees.len() {
            return Timed::new(Vec::new(), now); // tree lost with the catalog: empty scan
        }
        self.stats.gets += 1;
        let scope = self.scope("engine.scan", now);
        let mut out = Vec::with_capacity(limit);
        let (_, summary, t) = self.op(now, |trees, view, t| {
            trees[tree as usize].scan(view, from, t, |k, v| {
                out.push((k.to_vec(), v.to_vec()));
                out.len() < limit
            })
        });
        for idx in summary.retained {
            self.pool.unpin(idx);
        }
        Timed::new(out, scope.map_or(t, |s| s.close(t)))
    }

    /// Commit: make everything logged so far durable (group commit). Under
    /// [`CheckpointPolicy::EveryNCommits`] the engine also takes the due
    /// checkpoint here, so the interval knob works without the caller
    /// polling [`Engine::needs_checkpoint`].
    pub fn commit(&mut self, now: Nanos) -> Nanos {
        self.stats.commits += 1;
        let scope = self.scope("engine.commit", now);
        let target = self.wal.next_lsn();
        let mut t = self.wal.commit(&mut self.logv, target, now);
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
            && self.wal.needs_checkpoint()
        {
            t = self.checkpoint(t);
        }
        t
    }

    /// Enable the WAL's group-commit throughput model (see `wal` docs).
    /// Used by throughput benchmarks; leave off for durability tests.
    pub fn set_group_commit(&mut self, on: bool) {
        self.wal.set_group_commit(on);
    }

    /// Strictly flush every logged record to the device and wait.
    pub fn quiesce(&mut self, now: Nanos) -> Nanos {
        self.wal.quiesce(&mut self.logv, now)
    }

    /// Whether the WAL wants a checkpoint soon.
    pub fn needs_checkpoint(&self) -> bool {
        self.wal.needs_checkpoint()
    }

    /// Checkpoint: flush the log, write back every dirty page, persist the
    /// catalog, and truncate the log.
    ///
    /// The checkpoint brackets the flush in the log itself: a
    /// `CheckpointBegin` before the page writeback, a `CheckpointEnd` after
    /// catalog persistence. The log *header* is then pointed at the
    /// **previous** checkpoint's Begin (lag-one), so the next recovery scan
    /// is guaranteed to cross this checkpoint's complete Begin/End pair —
    /// that pair is what lets replay prove which records to skip.
    pub fn checkpoint(&mut self, now: Nanos) -> Nanos {
        self.stats.checkpoints += 1;
        let scope = self.scope("engine.checkpoint", now);
        let t = self.wal.quiesce(&mut self.logv, now);
        let begin_lsn = self.wal.append(&LogRecord::CheckpointBegin { lsn: self.wal.next_lsn() });
        let t = {
            let Engine {
                cfg,
                data,
                logv,
                dwb,
                ts,
                pool,
                wal,
                dwb_cursor,
                dirty_lsn,
                scratch,
                stats,
                ..
            } = self;
            let mut be = Backend {
                vol: data,
                logv,
                wal,
                ts: *ts,
                dwb: *dwb,
                double_write: cfg.double_write,
                dwb_cursor,
                dirty_lsn,
                scratch,
                stats,
            };
            pool.flush_all(&mut be, t)
        };
        let t = self.data.fsync(t).expect("data volume");
        let t = self.write_catalog(t);
        self.fpw_logged.clear();
        // Everything logged before Begin is now on the data volume: seal
        // the checkpoint in the log and make the markers durable.
        self.wal.append(&LogRecord::CheckpointEnd { lsn: begin_lsn });
        let t = self.wal.quiesce(&mut self.logv, t);
        // Lag-one header update: scanning must still cross this
        // checkpoint's Begin/End pair, so the header points at the
        // *previous* checkpoint's Begin.
        let t = self.wal.checkpoint(&mut self.logv, self.last_ckpt_begin, t);
        self.last_ckpt_begin = begin_lsn;
        if let Some(ledger) = &self.ledger {
            ledger.evidence(EvidenceKind::Checkpoint, begin_lsn, t, self.cfg.barriers);
        }
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
        let crc = crc32_bytewise(&buf[..off]);
        let n = buf.len();
        buf[n - 4..].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    fn write_catalog(&mut self, now: Nanos) -> Nanos {
        self.catalog_seq += 1;
        let buf = self.encode_catalog();
        let slot = self.catalog_seq % 2;
        let t = self.catalog.write_page(&mut self.data, slot, &buf, now).expect("catalog page");
        self.data.fsync(t).expect("data volume")
    }

    /// Simulate a host + storage crash: cut power to both devices and drop
    /// all in-memory state. Returns the raw devices for later recovery.
    pub fn crash(mut self, now: Nanos) -> (D, L) {
        self.data.power_cut(now);
        self.logv.power_cut(now);
        (take_device(self.data), take_device(self.logv))
    }

    /// Recover a database from devices after a crash. Reboots the devices,
    /// repairs torn pages via the double-write area, replays the redo log
    /// from the checkpoint bound through the normal BTree write API.
    ///
    /// The returned [`Recovered`] carries replay statistics: how many
    /// records were replayed, how many were skipped because a complete
    /// checkpoint already covered them, and whether the scan truncated at a
    /// torn record (recovery still succeeds — use [`crate::tear_error`] to
    /// turn a tear into a hard [`Error::TornLog`] when the caller demands a
    /// clean log). Replay never appends to the WAL and is idempotent:
    /// recovering the same image twice yields byte-identical state.
    pub fn recover(
        data_dev: D,
        log_dev: L,
        cfg: EngineConfig,
        now: Nanos,
    ) -> Result<Recovered<Self>, Error> {
        cfg.validate();
        let mut data = Volume::new(data_dev, cfg.barriers);
        let mut logv = Volume::new(log_dev, cfg.barriers);
        let mut t = now;
        if !data.device().is_powered() {
            t = data.reboot(t);
        }
        if !logv.device().is_powered() {
            t = t.max(logv.reboot(t));
        }
        let (catalog, dwb, ts, log_layout) =
            layout(&cfg, data.capacity_pages(), logv.capacity_pages());
        let mut stats = EngineStats::default();
        // 1. Catalog: newest valid copy wins.
        let mut best: Option<(u64, Vec<u8>)> = None;
        for slot in 0..2u64 {
            let mut buf = vec![0u8; cfg.page_size];
            match catalog.read_page(&mut data, slot, &mut buf, t) {
                Ok(t2) => t = t2,
                Err(DevError::ShornPage { .. }) => continue,
                Err(e) => panic!("catalog read failed: {e}"),
            }
            let magic = u64::from_le_bytes(buf[..8].try_into().unwrap());
            if magic != CATALOG_MAGIC {
                continue;
            }
            let ntrees = u32::from_le_bytes(buf[24..28].try_into().unwrap()) as usize;
            let body_len = 28 + ntrees * 9;
            if body_len + 4 > buf.len() {
                continue;
            }
            let crc = u32::from_le_bytes(buf[buf.len() - 4..].try_into().unwrap());
            if crc != crc32_bytewise(&buf[..body_len]) {
                continue;
            }
            let seq = u64::from_le_bytes(buf[8..16].try_into().unwrap());
            if best.as_ref().is_none_or(|(s, _)| seq > *s) {
                best = Some((seq, buf));
            }
        }
        let (catalog_seq, cbuf) = best.ok_or(Error::NoCatalog)?;
        let next_page = u64::from_le_bytes(cbuf[16..24].try_into().unwrap());
        let ntrees = u32::from_le_bytes(cbuf[24..28].try_into().unwrap()) as usize;
        let mut trees = Vec::with_capacity(ntrees);
        for i in 0..ntrees {
            let off = 28 + i * 9;
            let root = u64::from_le_bytes(cbuf[off..off + 8].try_into().unwrap());
            trees.push(BTree::open(root, cbuf[off + 8]));
        }
        // 2. Double-write repair.
        if cfg.double_write {
            let mut slot_buf = vec![0u8; cfg.page_size];
            let mut home_buf = vec![0u8; cfg.page_size];
            for slot in 0..dwb.pages() {
                match dwb.read_page(&mut data, slot, &mut slot_buf, t) {
                    Ok(t2) => t = t2,
                    Err(DevError::ShornPage { .. }) => continue, // torn copy: home is intact
                    Err(e) => panic!("dwb read failed: {e}"),
                }
                let n = slot_buf.len();
                let page_no = u64::from_le_bytes(slot_buf[n - 16..n - 8].try_into().unwrap());
                if page_no >= cfg.data_pages || !trailer_ok(&slot_buf, page_no) {
                    continue;
                }
                let home_ok = match ts.read_page(&mut data, page_no, &mut home_buf, t) {
                    Ok(t2) => {
                        t = t2;
                        let zero = u32::from_le_bytes(home_buf[n - 4..].try_into().unwrap()) == 0;
                        zero || trailer_ok(&home_buf, page_no)
                    }
                    Err(DevError::ShornPage { .. }) => false,
                    Err(e) => panic!("home read failed: {e}"),
                };
                if !home_ok {
                    t = ts.write_page(&mut data, page_no, &slot_buf, t).expect("repair write");
                    stats.repaired_pages += 1;
                }
            }
            if stats.repaired_pages > 0 {
                t = data.fsync(t).expect("data volume");
            }
        }
        // 3. Log recovery.
        let (mut wal, scan, t2) = Wal::recover(&mut logv, log_layout, t);
        t = t2;
        wal.set_checkpoint_policy(cfg.checkpoint_policy);
        let pool = BufferPool::new(cfg.pool_frames(), cfg.page_size);
        let mut eng = Self {
            data,
            logv,
            catalog,
            dwb,
            ts,
            pool,
            wal,
            trees,
            next_page,
            dwb_cursor: 0,
            catalog_seq,
            last_ckpt_begin: 0,
            dirty_lsn: HashMap::new(),
            fpw_logged: std::collections::HashSet::new(),
            scratch: Vec::with_capacity(cfg.page_size),
            stats,
            tel: None,
            ledger: None,
            cfg,
        };
        // 4. Replay everything after the newest complete checkpoint; skip
        // what that checkpoint already flushed. Replay runs through the
        // normal write path with the WAL left alone — assert that.
        let appends_before = eng.wal.stats().appends;
        let bound = scan.replay_bound();
        let (skip_upto, ckpt_begin) = match bound {
            Some((idx, begin)) => (idx as i64, begin),
            None => (-1, eng.wal.checkpoint_lsn()),
        };
        // The next checkpoint's lag-one header points at this one's Begin.
        eng.last_ckpt_begin = ckpt_begin;
        let mut replay = ReplayStats {
            checkpoint_lsn: ckpt_begin,
            torn: scan.tear.iter().count() as u64,
            tear_lsn: scan.tear.map(|tear| tear.lsn),
            ..ReplayStats::default()
        };
        for (i, sr) in scan.records.into_iter().enumerate() {
            if (i as i64) <= skip_upto {
                replay.skipped += 1;
                continue;
            }
            replay.replayed += 1;
            eng.stats.replayed_records += 1;
            t = eng.apply_record(sr.record, t);
        }
        debug_assert_eq!(eng.wal.stats().appends, appends_before, "replay must not grow the WAL");
        replay.replay_ns = t.saturating_sub(now);
        Ok(Recovered::new(eng, t, replay))
    }

    /// Apply one logical log record during recovery. Replay goes through
    /// the normal BTree write API (no re-logging) and is idempotent: a put
    /// is an upsert, a delete of a missing key is a no-op, a page image
    /// overwrites whatever is there.
    fn apply_record(&mut self, r: LogRecord, now: Nanos) -> Nanos {
        let logical_ps = self.logical_ps();
        let mut t = now;
        match r {
            LogRecord::PageImages { images, root_change } => {
                // Page images restore restructured pages exactly.
                for (page, bytes) in &images {
                    self.next_page = self.next_page.max(page + 1);
                    let (_, summary, t2) = self.op(t, |_trees, view, t| {
                        view.with_new_page(*page, t, |buf| {
                            buf[..bytes.len()].copy_from_slice(bytes);
                        })
                    });
                    for idx in summary.retained {
                        self.pool.unpin(idx);
                    }
                    t = t2;
                }
                if let Some((tree, root, height)) = root_change {
                    while self.trees.len() <= tree as usize {
                        self.trees.push(BTree::open(root, height));
                    }
                    self.trees[tree as usize] = BTree::open(root, height);
                }
            }
            LogRecord::Put { tree, key, value } => {
                if (tree as usize) < self.trees.len() {
                    assert!(key.len() + value.len() <= bnode::max_cell_payload(logical_ps));
                    let (_, summary, t2) = self
                        .op(t, |trees, view, t| trees[tree as usize].put(view, &key, &value, t));
                    // Replay does not re-log.
                    for idx in summary.retained {
                        self.pool.unpin(idx);
                    }
                    t = t2;
                }
            }
            LogRecord::Delete { tree, key } => {
                if (tree as usize) < self.trees.len() {
                    let (_, summary, t2) =
                        self.op(t, |trees, view, t| trees[tree as usize].delete(view, &key, t));
                    for idx in summary.retained {
                        self.pool.unpin(idx);
                    }
                    t = t2;
                }
            }
            // Checkpoint markers past the replay bound (an interrupted
            // checkpoint's orphan Begin) carry no redo work, and document
            // records belong to the other engine's log.
            LogRecord::CheckpointBegin { .. }
            | LogRecord::CheckpointEnd { .. }
            | LogRecord::DocSet { .. }
            | LogRecord::DocDelete { .. } => {}
        }
        t
    }
}

/// Extract the device from a volume (end of an engine's life).
fn take_device<D: BlockDevice>(vol: Volume<D>) -> D {
    // Volume has no public destructor; add one via a small unsafe-free path:
    // Volume::into_device.
    vol.into_device()
}
