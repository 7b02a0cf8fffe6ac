//! `docstore` — a Couchbase-like document store (the paper's §4.3.3).
//!
//! Couchbase's storage engine (couchstore) is append-only: an update writes
//! the document, then rewrites every B-tree node on the root-to-leaf path,
//! and appends a header; durability comes from an fsync every `batch_size`
//! updates ("Couchbase can adjust the fsync frequency in order to trade
//! durability for performance"). With the paper's numbers — 1KB documents, a
//! ~4-level tree of 4KB nodes — each update writes ~20KB.
//!
//! This crate reproduces that design:
//!
//! * [`append::AppendSpace`] — the append-only file substrate,
//! * [`cowtree`] — immutable (copy-on-write) nodes, held flat in their
//!   on-disk encoding,
//! * [`DocStore`] — the store: memory-first document cache (the memcached
//!   layer), COW updates, batched fsync, block-aligned headers, and
//!   compaction into the other of two regions. A two-slot superblock says
//!   which region holds the file and bounds where it ends, so recovery's
//!   backward scan for the newest header costs what was appended since the
//!   bound last moved, not the file's capacity.

pub mod append;
pub mod cowtree;

use append::{AppendSpace, BLOCK};
use cowtree::{EntryRef, Node, KIND_INTERNAL, KIND_LEAF};
use forensics::{Ledger, UnitKind};
use simkit::{crc32, Nanos, Recovered, ReplayStats, Timed};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use storage::device::{BlockDevice, WriteCause};
use storage::file::PageFile;
use storage::volume::{Volume, VolumeManager};
use telemetry::{Scope, Telemetry};
use wal::{DocSetRef, LogRecord};

const HEADER_MAGIC: u64 = 0x434f_5543_4848_4452;
/// Header fields ahead of the CRC: magic, seq, root offset, root length,
/// depth.
const HEADER_BODY: usize = 32;
const SUPER_MAGIC: u64 = 0x434f_5543_4853_5542;
/// Superblock fields ahead of the CRC: magic, generation, region, base
/// seq, high-water mark.
const SUPER_BODY: usize = 40;
/// Blocks by which the superblock's high-water mark runs ahead of the
/// append cursor: one superblock write per this many blocks appended, and
/// the most recovery reads in vain above the newest header.
const HWM_STEP: u64 = 1024;
/// Blocks per read command of recovery's header search.
const SCAN_BLOCKS: u64 = 256;

fn le_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

fn le_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

/// What a file system would know about the store's file. The copy with the
/// highest generation among the two slots is the one statement of which
/// file is current and how far it extends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Superblock {
    /// Writes so far; slot `generation % 2` holds this copy.
    generation: u64,
    /// Which of the two regions holds the file.
    region: u64,
    /// `seq` of the file's first header: a valid header below it is a
    /// leftover of the file this region held before.
    base_seq: u64,
    /// A block of the region no append has passed.
    hwm: u64,
}

impl Superblock {
    fn encode(&self, block: &mut [u8]) {
        for (i, field) in
            [SUPER_MAGIC, self.generation, self.region, self.base_seq, self.hwm].iter().enumerate()
        {
            block[i * 8..i * 8 + 8].copy_from_slice(&field.to_le_bytes());
        }
        let crc = crc32(&block[..SUPER_BODY]);
        block[SUPER_BODY..SUPER_BODY + 4].copy_from_slice(&crc.to_le_bytes());
    }

    fn decode(block: &[u8]) -> Option<Self> {
        let ok = le_u64(block, 0) == SUPER_MAGIC
            && le_u32(block, SUPER_BODY) == crc32(&block[..SUPER_BODY])
            && le_u64(block, 16) < 2;
        ok.then(|| Self {
            generation: le_u64(block, 8),
            region: le_u64(block, 16),
            base_seq: le_u64(block, 24),
            hwm: le_u64(block, 32),
        })
    }
}

/// A commit header: the root of a complete tree.
struct Header {
    seq: u64,
    root: Option<(u64, u32)>,
    depth: u32,
}

impl Header {
    fn encode(&self, block: &mut [u8]) {
        let (root, len) = self.root.unwrap_or((u64::MAX, 0));
        block[..8].copy_from_slice(&HEADER_MAGIC.to_le_bytes());
        block[8..16].copy_from_slice(&self.seq.to_le_bytes());
        block[16..24].copy_from_slice(&root.to_le_bytes());
        block[24..28].copy_from_slice(&len.to_le_bytes());
        block[28..32].copy_from_slice(&self.depth.to_le_bytes());
        let crc = crc32(&block[..HEADER_BODY]);
        block[HEADER_BODY..HEADER_BODY + 4].copy_from_slice(&crc.to_le_bytes());
    }

    fn decode(block: &[u8]) -> Option<Self> {
        let ok = le_u64(block, 0) == HEADER_MAGIC
            && le_u32(block, HEADER_BODY) == crc32(&block[..HEADER_BODY]);
        ok.then(|| {
            let root = le_u64(block, 16);
            Self {
                seq: le_u64(block, 8),
                root: (root != u64::MAX).then_some((root, le_u32(block, 24))),
                depth: le_u32(block, 28),
            }
        })
    }
}

/// The store's files on a volume of `capacity` pages: two regions of
/// `file_blocks` (region 0 first, so a store that never compacts uses the
/// LPNs it always did), then the superblock's two slots. A device too small
/// for that is split between the regions.
fn layout(cfg: &DocStoreConfig, capacity: u64) -> ([PageFile; 2], PageFile) {
    let mut vm = VolumeManager::new(capacity);
    let blocks = cfg.file_blocks.min(capacity.saturating_sub(2) / 2);
    let regions = [(); 2].map(|()| PageFile::create(&mut vm, blocks, BLOCK));
    (regions, PageFile::create(&mut vm, 2, BLOCK))
}

/// Store configuration.
#[derive(Debug, Clone, Copy)]
pub struct DocStoreConfig {
    /// fsync every `batch_size` updates (Table 5 sweeps 1, 2, 5, 10, 100).
    pub batch_size: u32,
    /// Write barriers on the volume (fsync ⇒ FLUSH CACHE).
    pub barriers: bool,
    /// File size in 4KB blocks.
    pub file_blocks: u64,
    /// Auto-compact when the append file exceeds this fraction (percent) of
    /// its capacity — Couchbase's fragmentation-threshold auto-compaction.
    /// 0 disables.
    pub auto_compact_pct: u8,
}

impl DocStoreConfig {
    /// Defaults: fsync every update, barriers on, 64MB file, auto-compact
    /// at 75% fill.
    pub fn new() -> Self {
        Self { batch_size: 1, barriers: true, file_blocks: 16_384, auto_compact_pct: 75 }
    }

    /// Check internal consistency; called by `create` and `recover`.
    pub fn validate(&self) {
        assert!(self.batch_size >= 1, "batch size must be at least 1 update");
        assert!(self.file_blocks >= 4, "append file too small");
    }
}

impl Default for DocStoreConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Store statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct DocStats {
    /// Set (insert/update) operations.
    pub sets: u64,
    /// Get operations.
    pub gets: u64,
    /// Deletes.
    pub deletes: u64,
    /// Gets served from the in-memory object cache.
    pub cache_hits: u64,
    /// fsync batches (headers written).
    pub headers: u64,
    /// Bytes appended (docs + nodes + headers).
    pub bytes_appended: u64,
    /// Unreadable nodes/documents encountered (post-crash corruption).
    pub corrupt_reads: u64,
    /// Compactions run.
    pub compactions: u64,
}

/// The document store over a block device.
pub struct DocStore<D: BlockDevice> {
    vol: Volume<D>,
    /// The two regions the file alternates between, compaction by
    /// compaction, and the superblock naming the current one.
    regions: [PageFile; 2],
    superblock: PageFile,
    /// The newest superblock written, and the block it is encoded into.
    sb: Superblock,
    sb_block: Vec<u8>,
    space: AppendSpace,
    root: Option<(u64, u32)>,
    depth: u32,
    seq: u64,
    cfg: DocStoreConfig,
    /// Memory-first object cache (Couchbase's managed-cache layer).
    doc_cache: HashMap<Vec<u8>, Option<Vec<u8>>>,
    /// The live tree's nodes by offset (OS page cache stand-in; nodes never
    /// change). The write path takes the node it rewrites *out*: once the
    /// replacement is appended no root reaches the old offset again, so the
    /// cache never holds garbage. Hashed with fixed keys: every set removes
    /// and inserts entries, and under per-process random keys the table's
    /// tombstones, and with them whether a rehash grows it, differed between
    /// two runs of one seed (`benchmark/smoke.sh` compares allocation counts
    /// exactly).
    node_cache: HashMap<u64, Node, BuildHasherDefault<DefaultHasher>>,
    /// Buffers of rewritten nodes, reused for the nodes the next update
    /// appends.
    spare: Vec<Node>,
    /// Scratch of the write path: the parent entries replacing the subtree
    /// just rewritten.
    repl: Node,
    updates_since_sync: u32,
    stats: DocStats,
    /// Optional telemetry sink; see [`DocStore::attach_telemetry`].
    tel: Option<Telemetry>,
    /// Optional durability ledger; see [`DocStore::attach_ledger`].
    ledger: Option<Ledger>,
}

impl<D: BlockDevice> DocStore<D> {
    /// Create a fresh (empty) store on `dev`: an empty file in region 0,
    /// named by the first superblock.
    pub fn create(dev: D, cfg: DocStoreConfig) -> Self {
        cfg.validate();
        let vol = Volume::new(dev, cfg.barriers);
        let (regions, superblock) = layout(&cfg, vol.capacity_pages());
        let space = AppendSpace::new(regions[0]);
        let mut store = Self::assemble(vol, cfg, regions, superblock, Superblock::default(), space);
        store.sb.hwm = store.hwm_for(0);
        store.write_superblock(0);
        store
    }

    fn assemble(
        vol: Volume<D>,
        cfg: DocStoreConfig,
        regions: [PageFile; 2],
        superblock: PageFile,
        sb: Superblock,
        space: AppendSpace,
    ) -> Self {
        Self {
            vol,
            regions,
            superblock,
            sb,
            sb_block: vec![0; BLOCK],
            space,
            root: None,
            depth: 0,
            seq: 0,
            cfg,
            doc_cache: HashMap::new(),
            node_cache: HashMap::default(),
            spare: Vec::new(),
            repl: Node::default(),
            updates_since_sync: 0,
            stats: DocStats::default(),
            tel: None,
            ledger: None,
        }
    }

    /// The high-water mark for a file of `end` blocks: the next multiple of
    /// the step above it, within the region.
    fn hwm_for(&self, end: u64) -> u64 {
        ((end / HWM_STEP + 1) * HWM_STEP).min(self.regions[0].pages())
    }

    /// Write `self.sb` as the next generation, into the slot the previous
    /// one does not occupy: a write torn by a power cut leaves that one.
    fn write_superblock(&mut self, now: Nanos) -> Nanos {
        self.sb.generation += 1;
        self.sb.encode(&mut self.sb_block);
        let (file, block, slot) = (self.superblock, &self.sb_block, self.sb.generation % 2);
        self.vol
            .with_cause(WriteCause::DocRewrite, |vol| file.write_page(vol, slot, block, now))
            .expect("superblock slot")
    }

    /// Push the appended bytes to the device. A write that would end past
    /// the high-water mark waits for a superblock that raises it: every
    /// block of the file lies below the mark recovery scans down from. The
    /// raise needs no flush of its own — the header fsync that acknowledges
    /// anything above the old mark covers it.
    fn write_out(&mut self, now: Nanos) -> Nanos {
        let end = self.space.len().div_ceil(BLOCK as u64);
        let mut t = now;
        if end > self.sb.hwm {
            self.sb.hwm = self.hwm_for(end);
            t = self.write_superblock(t);
        }
        self.space.write_out(&mut self.vol, t)
    }

    /// Statistics.
    pub fn stats(&self) -> DocStats {
        self.stats
    }

    /// Attach a telemetry sink to the store and its volume: device latency
    /// histograms land under `dev.doc.*`, and the store records `doc.set` /
    /// `doc.get` / `doc.commit` operation latencies.
    pub fn attach_telemetry(&mut self, tel: Telemetry) {
        self.vol.attach_telemetry(tel.clone(), "doc");
        self.tel = Some(tel);
    }

    /// Attach a durability ledger. Every `set` / `delete` pends a
    /// [`UnitKind::DocstoreUpdate`] unit; the batch header fsync (the
    /// couchstore commit point) acknowledges everything pending, under the
    /// flush-barrier contract when barriers are on and the device's own
    /// contract when they are off.
    pub fn attach_ledger(&mut self, ledger: Ledger) {
        self.ledger = Some(ledger);
    }

    /// Open the scope of one store operation (see `relstore::Engine`):
    /// spans emitted below the store while it runs share the trace-ID
    /// allocated here, and with latency anatomy enabled the scope is also
    /// the attribution frame lower layers charge segments against (frames
    /// nest: `doc.set` may contain a `doc.commit` frame; both see the same
    /// segments, so each level's conservation identity holds). Closing
    /// records the op latency under `name` and ticks the gauge sampler.
    fn scope(&self, name: &'static str, now: Nanos) -> Option<Scope<'static>> {
        self.tel.as_ref().map(|tel| tel.op("doc", name, now))
    }

    /// Tree depth (levels of internal nodes above the leaves).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Header sequence number (monotone commit counter).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Device statistics of the underlying volume.
    pub fn device_stats(&self) -> storage::device::DeviceStats {
        self.vol.device_stats()
    }

    /// The underlying device (read-only), e.g. to collect forensic
    /// snapshots after recovery.
    pub fn device(&self) -> &D {
        self.vol.device()
    }

    /// Bytes appended so far.
    pub fn file_len(&self) -> u64 {
        self.space.len()
    }

    /// Drop the in-memory object cache (test hook: forces tree walks).
    pub fn clear_object_cache(&mut self) {
        self.doc_cache.clear();
    }

    /// Read and decode the node at `ptr` from the append space; an
    /// unreadable one is counted in `corrupt_reads`.
    fn load_node(&mut self, ptr: u64, len: u32, now: Nanos) -> (Option<Node>, Nanos) {
        let mut bytes = Vec::new();
        let (node, t) = match self.space.read(&mut self.vol, ptr, len as usize, now, &mut bytes) {
            Ok(t) => (Node::from_bytes(bytes), t),
            Err(_) => (None, now),
        };
        if node.is_none() {
            self.stats.corrupt_reads += 1;
        }
        (node, t)
    }

    /// The node at `ptr`, through the cache.
    fn read_node(&mut self, ptr: u64, len: u32, now: Nanos) -> (Option<&Node>, Nanos) {
        let mut t = now;
        if !self.node_cache.contains_key(&ptr) {
            let (node, t2) = self.load_node(ptr, len, now);
            t = t2;
            if let Some(node) = node {
                self.node_cache.insert(ptr, node);
            }
        }
        (self.node_cache.get(&ptr), t)
    }

    /// The node at `ptr`, owned, for a caller about to make it unreachable
    /// (a path rewrite, the compaction walk): taken out of the cache.
    fn take_node(&mut self, ptr: u64, len: u32, now: Nanos) -> (Option<Node>, Nanos) {
        match self.node_cache.remove(&ptr) {
            Some(node) => (Some(node), now),
            None => self.load_node(ptr, len, now),
        }
    }

    /// An empty node of `kind` on a recycled buffer.
    fn spare_node(&mut self, kind: u8) -> Node {
        let mut node = self.spare.pop().unwrap_or_default();
        node.reset(kind);
        node
    }

    /// Seal, append and cache `node`; its parent entry (max key, offset,
    /// length) is pushed onto `parents`.
    fn append_node(&mut self, mut node: Node, parents: &mut Node) {
        node.seal();
        let ptr = self.space.append(node.bytes());
        let len = node.bytes().len() as u32;
        self.stats.bytes_appended += len as u64;
        parents.push(EntryRef { key: node.entry(node.len() - 1).key, ptr, len });
        self.node_cache.insert(ptr, node);
    }

    /// [`DocStore::append_node`] for a non-empty list that may overflow one
    /// node: the rare overflow is cut into byte-balanced nodes.
    fn append_chunked(&mut self, list: Node, parents: &mut Node) {
        if list.fits() {
            return self.append_node(list, parents);
        }
        for range in list.chunks() {
            let mut part = self.spare_node(list.kind());
            part.extend_from(&list, range);
            self.append_node(part, parents);
        }
        self.spare.push(list);
    }

    /// Recursive COW insert of `doc` under the node at `ptr`. Leaves in
    /// `repl` the parent entries of the rewritten subtree (1 normally, more
    /// after splits).
    fn insert_rec(
        &mut self,
        (ptr, len): (u64, u32),
        level: u32,
        doc: EntryRef<'_>,
        now: Nanos,
        repl: &mut Node,
    ) -> Nanos {
        let (node, mut t) = self.take_node(ptr, len, now);
        let mut new = self.spare_node(KIND_LEAF);
        match &node {
            // Corrupt node: rebuild this subtree as a single-leaf with the
            // new entry (data under it is lost; counted in corrupt_reads).
            None => new.push(doc),
            Some(old) if level == 0 => {
                debug_assert_eq!(old.kind(), KIND_LEAF);
                let at = match old.search(doc.key) {
                    Ok(i) => i..i + 1,
                    Err(i) => i..i,
                };
                old.splice(at, [doc], &mut new);
            }
            Some(old) => {
                debug_assert_eq!(old.kind(), KIND_INTERNAL);
                let idx = old.route(doc.key);
                let child = old.entry(idx);
                t = self.insert_rec((child.ptr, child.len), level - 1, doc, t, repl);
                old.splice(idx..idx + 1, repl.entries(), &mut new);
            }
        }
        repl.reset(KIND_INTERNAL);
        self.append_chunked(new, repl);
        self.spare.extend(node);
        t
    }

    fn apply_tree_update(&mut self, doc: EntryRef<'_>, now: Nanos) -> Nanos {
        let mut repl = std::mem::take(&mut self.repl);
        let t = match self.root {
            None => {
                let mut leaf = self.spare_node(KIND_LEAF);
                leaf.push(doc);
                repl.reset(KIND_INTERNAL);
                self.append_node(leaf, &mut repl);
                now
            }
            Some(root) => self.insert_rec(root, self.depth, doc, now, &mut repl),
        };
        // Grow the root while the replacement set does not fit one node.
        while repl.len() > 1 {
            let tops = std::mem::replace(&mut repl, self.spare_node(KIND_INTERNAL));
            self.append_chunked(tops, &mut repl);
            self.depth += 1;
        }
        let top = repl.entry(0);
        self.root = Some((top.ptr, top.len));
        self.repl = repl;
        t
    }

    /// After a mutation: push bytes to the device, fsync per batch size, and
    /// auto-compact once the append file is mostly garbage.
    fn finish_update(&mut self, now: Nanos) -> Nanos {
        let t = self.write_out(now);
        self.updates_since_sync += 1;
        let t =
            if self.updates_since_sync >= self.cfg.batch_size { self.commit_header(t) } else { t };
        if self.cfg.auto_compact_pct > 0
            && self.space.len() * 100 > self.space.capacity() * self.cfg.auto_compact_pct as u64
        {
            return self.compact(t);
        }
        t
    }

    /// Append a header block and fsync (the commit point). The header *is*
    /// the store's checkpoint: it names the root of a complete tree, so
    /// recovery needs the newest one and nothing before it.
    pub fn commit_header(&mut self, now: Nanos) -> Nanos {
        let scope = self.scope("doc.commit", now);
        self.seq += 1;
        self.space.align_to_block();
        let header = Header { seq: self.seq, root: self.root, depth: self.depth };
        self.space.append_with(|out| {
            let at = out.len();
            out.resize(at + BLOCK, 0);
            header.encode(&mut out[at..]);
        });
        self.stats.bytes_appended += BLOCK as u64;
        self.stats.headers += 1;
        self.updates_since_sync = 0;
        let t = self.write_out(now);
        let done = self.vol.fsync(t).expect("device reachable");
        if let Some(ledger) = &self.ledger {
            // The header fsync is couchstore's commit point: everything
            // appended since the previous header is now acknowledged.
            ledger.ack_all_pending(done, self.cfg.barriers);
        }
        scope.map_or(done, |s| s.close(done))
    }

    /// Insert or update a document. Returns the completion time.
    pub fn set(&mut self, key: &[u8], doc: &[u8], now: Nanos) -> Nanos {
        self.stats.sets += 1;
        let scope = self.scope("doc.set", now);
        if let Some(ledger) = &self.ledger {
            ledger.pend(UnitKind::DocstoreUpdate, key, Ledger::digest(doc), now);
        }
        // The document is framed as a self-describing `DocSet` record — the
        // same versioned, CRC-guarded framing the WAL uses, so the append
        // file's record stream is decodable on its own.
        let (ptr, len) =
            self.space.append_with(|out| DocSetRef { key, value: doc }.encode_into(out));
        self.stats.bytes_appended += len as u64;
        let t = self.apply_tree_update(EntryRef { key, ptr, len: len as u32 }, now);
        match self.doc_cache.get_mut(key) {
            // Overwrite in place: the cached body's buffer is reused.
            Some(slot) => {
                let body = slot.get_or_insert_with(Vec::new);
                body.clear();
                body.extend_from_slice(doc);
            }
            None => {
                self.doc_cache.insert(key.to_vec(), Some(doc.to_vec()));
            }
        }
        let done = self.finish_update(t);
        scope.map_or(done, |s| s.close(done))
    }

    /// Delete a document (tombstone entry).
    pub fn delete(&mut self, key: &[u8], now: Nanos) -> Nanos {
        self.stats.deletes += 1;
        let scope = self.scope("doc.delete", now);
        if let Some(ledger) = &self.ledger {
            // Tombstone digest: a surviving delete reads back as Missing.
            ledger.pend(UnitKind::DocstoreUpdate, key, Ledger::digest(&[]), now);
        }
        // Breadcrumb record: the tombstone itself lives in the tree entry
        // (ptr 0 / len 0), but the append stream stays self-describing.
        let breadcrumb = LogRecord::DocDelete { key: key.to_vec() };
        let (_, len) = self.space.append_with(|out| breadcrumb.encode_into(out));
        self.stats.bytes_appended += len as u64;
        let t = self.apply_tree_update(EntryRef { key, ptr: 0, len: 0 }, now);
        self.doc_cache.insert(key.to_vec(), None);
        let done = self.finish_update(t);
        scope.map_or(done, |s| s.close(done))
    }

    /// Fetch a document. Memory-first: the object cache serves hot keys; a
    /// miss walks the on-disk tree.
    pub fn get(&mut self, key: &[u8], now: Nanos) -> Timed<Option<Vec<u8>>> {
        let scope = self.scope("doc.get", now);
        let (v, done) = self.get_inner(key, now);
        Timed::new(v, scope.map_or(done, |s| s.close(done)))
    }

    fn get_inner(&mut self, key: &[u8], now: Nanos) -> (Option<Vec<u8>>, Nanos) {
        self.stats.gets += 1;
        if let Some(v) = self.doc_cache.get(key) {
            self.stats.cache_hits += 1;
            // Object-cache hit: sub-microsecond.
            return (v.clone(), now + 500);
        }
        let Some((mut ptr, mut len)) = self.root else {
            return (None, now);
        };
        let mut t = now;
        loop {
            let (node, t2) = self.read_node(ptr, len, t);
            t = t2;
            let Some(node) = node else {
                return (None, t);
            };
            if node.kind() == KIND_LEAF {
                let hit = node.search(key).ok().map(|i| node.entry(i));
                // A missing key, or a tombstone.
                let Some((at, n)) = hit.filter(|e| e.len != 0).map(|e| (e.ptr, e.len)) else {
                    return (None, t);
                };
                let mut framed = Vec::new();
                let mut found = None;
                if let Ok(t2) = self.space.read(&mut self.vol, at, n as usize, t, &mut framed) {
                    t = t2;
                    found = DocSetRef::decode(&framed).map(|(doc, _)| doc.value.to_vec());
                }
                match &found {
                    Some(doc) => {
                        self.doc_cache.insert(key.to_vec(), Some(doc.clone()));
                    }
                    None => self.stats.corrupt_reads += 1,
                }
                return (found, t);
            }
            if node.is_empty() {
                return (None, t);
            }
            let child = node.entry(node.route(key));
            // A key greater than every max-key cannot be in the tree.
            if key > child.key {
                return (None, t);
            }
            (ptr, len) = (child.ptr, child.len);
        }
    }

    /// Compaction: rewrite the live data as a fresh, dense tree in the other
    /// region (couchstore's copy-compaction into a new file), make its
    /// header durable, switch the superblock to it (the rename), and only
    /// then TRIM the old region so the SSD can drop the stale blocks. Until
    /// the switch is durable the old file is current and untouched; after
    /// it, whatever the old region still holds is never looked at.
    ///
    /// The walk streams: each live document is read once, its record CRC
    /// checked, and its framed bytes copied as they are — re-framing the
    /// key and body of a record that decodes yields the same bytes.
    pub fn compact(&mut self, now: Nanos) -> Nanos {
        self.stats.compactions += 1;
        // Updates since the newest header are acknowledged by a header of
        // the old file: the new file's counts only once the superblock names
        // it, which is after its header's fsync.
        let mut t = if self.updates_since_sync > 0 { self.commit_header(now) } else { now };
        let old = self.sb.region as usize;
        // The new file; its bytes stay in memory until the commit below.
        let mut fresh = self.space.successor(self.regions[old ^ 1]);
        // Parent entries of the level being written: first every live
        // document in key order, then each level of nodes.
        let mut level = self.spare_node(KIND_LEAF);
        let mut framed = Vec::new();
        let mut stack: Vec<(u64, u32)> = self.root.into_iter().collect();
        while let Some((ptr, len)) = stack.pop() {
            // The old tree dies with this walk, so its nodes are taken.
            let (node, t2) = self.take_node(ptr, len, t);
            t = t2;
            let Some(node) = node else { continue };
            if node.kind() == KIND_LEAF {
                for e in node.entries().filter(|e| e.len != 0) {
                    let mut record = None;
                    if let Ok(t2) =
                        self.space.read(&mut self.vol, e.ptr, e.len as usize, t, &mut framed)
                    {
                        t = t2;
                        record = DocSetRef::decode(&framed).map(|(_, used)| &framed[..used]);
                    }
                    match record {
                        Some(record) => {
                            let ptr = fresh.append(record);
                            self.stats.bytes_appended += record.len() as u64;
                            level.push(EntryRef { key: e.key, ptr, len: record.len() as u32 });
                        }
                        // The document is lost, as on a `get`.
                        None => self.stats.corrupt_reads += 1,
                    }
                }
            } else {
                stack.extend(node.entries().rev().map(|e| (e.ptr, e.len)));
            }
            self.spare.push(node);
        }
        self.space = fresh;
        self.node_cache.clear();
        self.root = None;
        self.depth = 0;
        // Bulk-load bottom-up: the leaves, then internal levels.
        if level.is_empty() {
            self.spare.push(level);
        } else {
            loop {
                let mut parents = self.spare_node(KIND_INTERNAL);
                self.append_chunked(level, &mut parents);
                if parents.len() == 1 {
                    let top = parents.entry(0);
                    self.root = Some((top.ptr, top.len));
                    self.spare.push(parents);
                    break;
                }
                level = parents;
                self.depth += 1;
            }
        }
        // What the switch will say, once the header below is durable: the
        // mark already covers the new file and that header.
        self.sb.region = (old ^ 1) as u64;
        self.sb.base_seq = self.seq + 1;
        self.sb.hwm = self.hwm_for(self.space.len().div_ceil(BLOCK as u64) + 1);
        let t = self.commit_header(t);
        let t = self.write_superblock(t);
        let t = self.vol.fsync(t).expect("device reachable");
        let dead = self.regions[old];
        dead.discard(&mut self.vol, 0, dead.pages(), t).unwrap_or(t)
    }

    /// Crash: cut device power and surrender the device.
    pub fn crash(mut self, now: Nanos) -> D {
        self.vol.power_cut(now);
        self.vol.into_device()
    }

    /// Recover a store from a device: reboot, read the superblock, scan
    /// backwards from its high-water mark for the newest valid header of
    /// the file it names, resume after it. Updates past the last header are
    /// lost (that is couchstore's contract).
    ///
    /// The returned [`Recovered`] has the relational engine's shape:
    /// `checkpoint_lsn` is the byte offset of the header recovered from, and
    /// `replayed`/`torn` are always 0 — couchstore replays nothing (the
    /// newest header *is* the recovered state, so nothing below it is read
    /// until the first `get`) and an interrupted append tail is
    /// indistinguishable from unwritten space.
    pub fn recover(dev: D, cfg: DocStoreConfig, now: Nanos) -> Recovered<Self> {
        cfg.validate();
        let mut vol = Volume::new(dev, cfg.barriers);
        let booted = vol.reboot(now);
        let (regions, superblock) = layout(&cfg, vol.capacity_pages());
        let mut buf = vec![0u8; SCAN_BLOCKS as usize * BLOCK];
        // One command per run of blocks, re-read block by block around a
        // shorn one; a run that cannot be read holds nothing to find.
        let mut read = |file: &PageFile, first: u64, blocks: &mut [u8], now: Nanos| match file
            .read_pages_past_shorn(&mut vol, first, blocks, now)
        {
            Ok((done, _)) => done,
            Err(_) => {
                blocks.fill(0);
                now
            }
        };
        // Both slots at once; the highest generation that decodes wins. A
        // device never written has none: an empty store.
        let slots = &mut buf[..2 * BLOCK];
        let mut t = read(&superblock, 0, slots, booted);
        let sb = (slots.chunks_exact(BLOCK).filter_map(Superblock::decode))
            .max_by_key(|sb| sb.generation)
            .unwrap_or_default();
        // Headers of the file the region held before carry a lower `seq`,
        // whether or not the TRIM that followed the switch took effect.
        let file = regions[sb.region as usize];
        let mut newest = None;
        let mut hi = sb.hwm.min(file.pages());
        while newest.is_none() && hi > 0 {
            let lo = hi.saturating_sub(SCAN_BLOCKS);
            let blocks = &mut buf[..(hi - lo) as usize * BLOCK];
            t = read(&file, lo, blocks, t);
            newest = (blocks.chunks_exact(BLOCK).rev().zip(1..))
                .filter_map(|(block, back)| Some((hi - back, Header::decode(block)?)))
                .find(|(_, header)| header.seq >= sb.base_seq);
            hi = lo;
        }
        let header_at = newest.as_ref().map(|(blk, _)| blk * BLOCK as u64);
        let replay = ReplayStats {
            checkpoint_lsn: header_at.unwrap_or(0),
            replay_ns: t - now,
            reboot_ns: booted - now,
            scan_ns: t - booted,
            ..ReplayStats::default()
        };
        let space = AppendSpace::reopen(file, header_at.map_or(0, |at| at + BLOCK as u64));
        let mut store = Self::assemble(vol, cfg, regions, superblock, sb, space);
        match newest {
            Some((_, header)) => {
                (store.root, store.depth, store.seq) = (header.root, header.depth, header.seq)
            }
            None => store.seq = sb.base_seq.saturating_sub(1),
        }
        Recovered::new(store, t, replay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use durassd::{Ssd, SsdConfig};
    use storage::testdev::MemDevice;

    fn store(batch: u32) -> DocStore<MemDevice> {
        let cfg = DocStoreConfig {
            batch_size: batch,
            barriers: true,
            file_blocks: 8192,
            auto_compact_pct: 0,
        };
        DocStore::create(MemDevice::new(8192), cfg)
    }

    fn doc(i: u64) -> Vec<u8> {
        format!("document-{i}-{}", "d".repeat(200)).into_bytes()
    }

    #[test]
    fn anatomy_frames_doc_sets_and_conserve() {
        let tel = Telemetry::new();
        tel.enable_anatomy(4);
        let mut s = store(1);
        s.attach_telemetry(tel.clone());
        let mut t = 0;
        for i in 0..20u64 {
            t = s.set(format!("k{i}").as_bytes(), &doc(i), t);
            let bd = tel.last_breakdown().expect("set closes a frame");
            assert_eq!(bd.name, "doc.set");
            assert!(bd.is_conserved(), "segments within wall: {}", bd.to_json());
        }
        assert_eq!(tel.anatomy_violations(), 0);
        assert_eq!(tel.frame_depth(), 0);
        assert!(!tel.outliers_for("doc.set").is_empty());
    }

    #[test]
    fn set_get_round_trip() {
        let mut s = store(1);
        let t = s.set(b"k1", &doc(1), 0);
        let (v, _) = s.get(b"k1", t).into_parts();
        assert_eq!(v.unwrap(), doc(1));
        let (v, _) = s.get(b"nope", t).into_parts();
        assert!(v.is_none());
    }

    #[test]
    fn updates_overwrite() {
        let mut s = store(1);
        let t = s.set(b"k", b"old", 0);
        let t = s.set(b"k", b"new", t);
        let (v, _) = s.get(b"k", t).into_parts();
        assert_eq!(v.unwrap(), b"new");
    }

    #[test]
    fn tree_grows_and_finds_everything() {
        let mut s = store(100);
        let mut t = 0;
        for i in 0..2000u64 {
            t = s.set(format!("key{:06}", i * 37 % 2000).as_bytes(), &doc(i), t);
        }
        assert!(s.depth() >= 1, "2000 docs must split the root leaf");
        // Clear the object cache to force tree walks.
        s.clear_object_cache();
        for i in (0..2000u64).step_by(97) {
            let (v, t2) = s.get(format!("key{:06}", i).as_bytes(), t).into_parts();
            t = t2;
            assert!(v.is_some(), "missing key {i}");
        }
        assert_eq!(s.stats().corrupt_reads, 0);
    }

    #[test]
    fn delete_leaves_tombstone() {
        let mut s = store(1);
        let t = s.set(b"k", &doc(1), 0);
        let t = s.delete(b"k", t);
        s.clear_object_cache();
        let (v, _) = s.get(b"k", t).into_parts();
        assert!(v.is_none());
    }

    #[test]
    fn batch_size_controls_fsync_frequency() {
        let mut s1 = store(1);
        let mut s100 = store(100);
        let mut t1 = 0;
        let mut t100 = 0;
        for i in 0..100u64 {
            t1 = s1.set(format!("k{i}").as_bytes(), &doc(i), t1);
            t100 = s100.set(format!("k{i}").as_bytes(), &doc(i), t100);
        }
        assert_eq!(s1.stats().headers, 100);
        assert_eq!(s100.stats().headers, 1);
        assert!(s1.device_stats().flushes > s100.device_stats().flushes);
    }

    /// 200 single-set commits on a device that holds both regions of
    /// `file_blocks`, crashed; the device, the config and the header's block.
    fn crashed_after_200_sets(file_blocks: u64) -> (MemDevice, DocStoreConfig, u64, Nanos) {
        let cfg =
            DocStoreConfig { batch_size: 1, barriers: true, file_blocks, auto_compact_pct: 0 };
        let mut s = DocStore::create(MemDevice::new(2 * file_blocks + 2), cfg);
        let mut t = 0;
        for i in 0..200u64 {
            t = s.set(format!("k{i:03}").as_bytes(), &doc(i), t);
        }
        let header_block = s.file_len() / BLOCK as u64 - 1;
        (s.crash(t), cfg, header_block, t)
    }

    /// The newest header is the whole recovered state, and finding it costs
    /// what was appended since the high-water mark last moved: the same
    /// reads whatever the file's capacity.
    #[test]
    fn synced_updates_survive_recovery() {
        let mut reads = Vec::new();
        for file_blocks in [8_192, 65_536] {
            let (dev, cfg, header_block, t) = crashed_after_200_sets(file_blocks);
            let reads_before = dev.stats().reads;
            let rec = DocStore::recover(dev, cfg, t + 1);
            assert_eq!(rec.stats.checkpoint_lsn, header_block * BLOCK as u64);
            assert_eq!((rec.stats.replayed, rec.stats.torn), (0, 0));
            assert_eq!((rec.stats.reboot_ns, rec.stats.redo_ns), (0, 0));
            assert_eq!(rec.stats.scan_ns, rec.stats.replay_ns);
            let (mut s2, mut t2) = rec.into_parts();
            assert_eq!(s2.seq(), 200);
            reads.push(s2.device_stats().reads - reads_before);
            for i in 0..200u64 {
                let (v, t3) = s2.get(format!("k{i:03}").as_bytes(), t2).into_parts();
                t2 = t3;
                assert_eq!(v.unwrap(), doc(i), "k{i:03}");
            }
        }
        assert_eq!(reads[0], reads[1], "the search does not depend on file_blocks");
        // Both superblock slots, then at most a step and one batch of blocks.
        assert!(reads[0] <= 2 + (HWM_STEP + 3).div_ceil(SCAN_BLOCKS), "{} reads", reads[0]);
    }

    /// A store about to append past its high-water mark, stopped right after
    /// the superblock write that raises it (`torn`: and that write tore):
    /// recovery finds the last acknowledged header all the same.
    fn cut_on_the_hwm_raise(torn: bool) {
        let mut s = store(1);
        let cfg = s.cfg;
        let mut t = 0;
        let mut sets = 0;
        while s.file_len().div_ceil(BLOCK as u64) + 3 <= HWM_STEP {
            t = s.set(format!("k{sets:03}").as_bytes(), &doc(sets), t);
            sets += 1;
        }
        let (before, header_block) = (s.sb, s.file_len() / BLOCK as u64 - 1);
        s.sb.hwm = s.hwm_for(HWM_STEP);
        t = s.write_superblock(t);
        let raised = s.sb;
        assert_eq!((raised.generation, raised.hwm), (before.generation + 1, 2 * HWM_STEP));
        // The slots lie behind the two regions.
        let slot = 2 * s.regions[0].pages() + raised.generation % 2;
        let mut dev = s.crash(t);
        if torn {
            flip_byte(&mut dev, slot * BLOCK as u64 + 33);
        }
        let rec = DocStore::recover(dev, cfg, t + 1);
        assert_eq!(rec.stats.checkpoint_lsn, header_block * BLOCK as u64);
        let (mut s2, mut t2) = rec.into_parts();
        assert_eq!(s2.sb, if torn { before } else { raised });
        for i in 0..sets {
            let (v, t3) = s2.get(format!("k{i:03}").as_bytes(), t2).into_parts();
            t2 = t3;
            assert_eq!(v.unwrap(), doc(i), "k{i:03}");
        }
        // The recovered store appends on, past the mark it came back with.
        for i in 0..20u64 {
            t2 = s2.set(format!("later{i}").as_bytes(), &doc(i), t2);
        }
        assert_eq!(s2.sb.hwm, raised.hwm);
        let (mut s3, t3) = DocStore::recover(s2.crash(t2), cfg, t2 + 1).into_parts();
        assert_eq!(s3.get(b"later19", t3).value.unwrap(), doc(19));
    }

    #[test]
    fn cut_between_the_hwm_raise_and_the_write_that_crosses_it() {
        cut_on_the_hwm_raise(false);
    }

    #[test]
    fn torn_superblock_slot_falls_back_to_the_other() {
        cut_on_the_hwm_raise(true);
    }

    #[test]
    fn unsynced_tail_is_lost_on_recovery() {
        let cfg = DocStoreConfig {
            batch_size: 10,
            barriers: true,
            file_blocks: 8192,
            auto_compact_pct: 0,
        };
        let mut s = DocStore::create(MemDevice::new(8192), cfg);
        let mut t = 0;
        for i in 0..10u64 {
            t = s.set(format!("synced{i}").as_bytes(), &doc(i), t);
        }
        // 3 more updates, no header yet (batch of 10).
        for i in 0..3u64 {
            t = s.set(format!("tail{i}").as_bytes(), &doc(i), t);
        }
        let dev = s.crash(t);
        let (mut s2, t2) = DocStore::recover(dev, cfg, t + 1).into_parts();
        let (v, t3) = s2.get(b"synced5", t2).into_parts();
        assert!(v.is_some(), "synced batch must survive");
        let (v, _) = s2.get(b"tail0", t3).into_parts();
        assert!(v.is_none(), "unsynced tail must be gone");
    }

    #[test]
    fn compaction_preserves_data_and_shrinks_file() {
        let mut s = store(100);
        let mut t = 0;
        for round in 0..5u64 {
            for i in 0..200u64 {
                t = s.set(format!("k{i:04}").as_bytes(), &doc(round * 1000 + i), t);
            }
        }
        let before = s.file_len();
        t = s.compact(t);
        assert!(s.file_len() < before / 2, "compaction should reclaim garbage");
        s.clear_object_cache();
        for i in (0..200u64).step_by(11) {
            let (v, t2) = s.get(format!("k{i:04}").as_bytes(), t).into_parts();
            t = t2;
            assert_eq!(v.unwrap(), doc(4000 + i));
        }
    }

    /// Where TRIM is a no-op (`MemDevice`, the disk) the old file outlives
    /// the compaction, header and all: the superblock, not what a scan
    /// happens to meet first, says which file is current.
    #[test]
    fn compaction_then_crash_loses_nothing() {
        let cfg = DocStoreConfig {
            batch_size: 1,
            barriers: true,
            file_blocks: 32_768,
            auto_compact_pct: 0,
        };
        let body = |i: u64, version: u64| format!("doc-{i:04}-v{version:02}-{}", "d".repeat(306));
        let mut s = DocStore::create(MemDevice::new(40_000), cfg);
        let mut t = 0;
        for i in 0..1500u64 {
            t = s.set(format!("key{i:04}").as_bytes(), body(i, 0).as_bytes(), t);
        }
        for version in 1..=11u64 {
            for i in 1400..1500u64 {
                t = s.set(format!("key{i:04}").as_bytes(), body(i, version).as_bytes(), t);
            }
        }
        t = s.compact(t);
        let dev = s.crash(t + 1);
        let (mut s, mut t) = DocStore::recover(dev, cfg, t + 2).into_parts();
        let mut lost = 0;
        for i in 0..1500u64 {
            let (v, t2) = s.get(format!("key{i:04}").as_bytes(), t).into_parts();
            t = t2;
            let version = if i >= 1400 { 11 } else { 0 };
            lost += u64::from(v.as_deref() != Some(body(i, version).as_bytes()));
        }
        assert_eq!(
            (lost, s.stats().corrupt_reads),
            (0, 0),
            "committed documents lost of 1,500, corrupt reads"
        );
    }

    /// Flip one byte of the append file at byte offset `off`, behind the
    /// store's back, through the device's own write command.
    fn flip_byte(dev: &mut MemDevice, off: u64) {
        let (lpn, at) = (off / BLOCK as u64, (off % BLOCK as u64) as usize);
        let mut block = vec![0u8; BLOCK];
        dev.read(lpn, 1, &mut block, 0).unwrap();
        block[at] ^= 0x5A;
        dev.write(lpn, &block, 0).unwrap();
    }

    #[test]
    fn compaction_counts_the_document_it_cannot_copy() {
        let mut s = store(1);
        let cfg = s.cfg;
        let mut t = 0;
        for i in 0..50u64 {
            t = s.set(format!("k{i:03}").as_bytes(), &doc(i), t);
        }
        let mut dev = s.crash(t);
        // The first append of the file is k000's framed document.
        flip_byte(&mut dev, 40);
        let (mut s, t) = DocStore::recover(dev, cfg, t + 1).into_parts();
        let mut t = s.compact(t);
        assert_eq!(s.stats().corrupt_reads, 1, "the dropped document is counted");
        assert_eq!(s.stats().compactions, 1);
        for i in 1..50u64 {
            let (v, t2) = s.get(format!("k{i:03}").as_bytes(), t).into_parts();
            t = t2;
            assert_eq!(v.unwrap(), doc(i), "k{i:03}");
        }
        assert!(s.get(b"k000", t).value.is_none(), "the corrupt document is gone");
        assert_eq!(s.stats().corrupt_reads, 1, "and no longer in the tree");
    }

    #[test]
    fn set_through_a_corrupt_leaf_pays_for_the_read() {
        // Batch of 100: the set below writes out once and commits nothing,
        // so its latency is one read plus one write.
        let mut s = store(100);
        let cfg = s.cfg;
        let t = s.set(b"k1", &doc(1), 0);
        let t = s.commit_header(t);
        let (leaf, _) = s.root.expect("one leaf");
        let mut dev = s.crash(t);
        flip_byte(&mut dev, leaf + 12);
        let (mut s, t) = DocStore::recover(dev, cfg, t + 1).into_parts();
        let done = s.set(b"k2", &doc(2), t);
        assert_eq!(s.stats().corrupt_reads, 1);
        // MemDevice: READ_NS = 10 us for the leaf, WRITE_NS = 20 us.
        assert_eq!(done - t, 10_000 + 20_000, "the failed node read stays in the latency");
        assert_eq!(s.get(b"k2", done).value.unwrap(), doc(2));
    }

    /// Nodes reachable from the root, all of which must be cached.
    fn reachable_nodes(s: &DocStore<MemDevice>) -> usize {
        let mut n = 0;
        let mut stack: Vec<u64> = s.root.iter().map(|&(ptr, _)| ptr).collect();
        while let Some(ptr) = stack.pop() {
            let node = s.node_cache.get(&ptr).expect("live node is cached");
            n += 1;
            if node.kind() == KIND_INTERNAL {
                stack.extend(node.entries().map(|e| e.ptr));
            }
        }
        n
    }

    #[test]
    fn node_cache_holds_only_the_live_tree() {
        let mut s = store(100);
        let mut t = 0;
        for i in 0..2000u64 {
            t = s.set(format!("key{:06}", i * 37 % 2000).as_bytes(), &doc(i), t);
        }
        assert!(s.depth() >= 1);
        let live = reachable_nodes(&s);
        assert_eq!(s.node_cache.len(), live, "splits and rewrites leave no garbage");
        for round in 0..500u64 {
            t = s.set(b"key000777", &doc(round), t);
        }
        assert_eq!(reachable_nodes(&s), live, "overwrites do not reshape the tree");
        assert_eq!(s.node_cache.len(), live, "each rewritten node left the cache");
        // The rewritten path's buffers circulate: one spare per level.
        assert!(s.spare.len() <= s.depth() as usize + 2, "{} spares", s.spare.len());
        s.compact(t);
        assert_eq!(s.node_cache.len(), reachable_nodes(&s));
    }

    #[test]
    fn works_on_durassd_without_barriers() {
        let cfg = DocStoreConfig {
            batch_size: 1,
            barriers: false,
            file_blocks: 1024,
            auto_compact_pct: 0,
        };
        let mut s = DocStore::create(Ssd::new(SsdConfig::tiny_test()), cfg);
        let mut t = 0;
        for i in 0..20u64 {
            t = s.set(format!("k{i}").as_bytes(), &doc(i), t);
        }
        let dev = s.crash(t);
        let (mut s2, mut t2) = DocStore::recover(dev, cfg, t + 1).into_parts();
        for i in 0..20u64 {
            let (v, t3) = s2.get(format!("k{i}").as_bytes(), t2).into_parts();
            t2 = t3;
            assert!(v.is_some(), "durable cache must preserve acked batch k{i}");
        }
    }

    #[test]
    fn volatile_device_without_barriers_loses_data() {
        let cfg = DocStoreConfig {
            batch_size: 1,
            barriers: false,
            file_blocks: 1024,
            auto_compact_pct: 0,
        };
        let mut s = DocStore::create(Ssd::new(SsdConfig::tiny_volatile()), cfg);
        let mut t = 0;
        for i in 0..20u64 {
            t = s.set(format!("k{i}").as_bytes(), &doc(i), t);
        }
        let dev = s.crash(t);
        let (mut s2, mut t2) = DocStore::recover(dev, cfg, t + 1).into_parts();
        let mut lost = 0;
        for i in 0..20u64 {
            let (v, t3) = s2.get(format!("k{i}").as_bytes(), t2).into_parts();
            t2 = t3;
            if v != Some(doc(i)) {
                lost += 1;
            }
        }
        assert!(lost > 0, "nobarrier on a volatile cache must lose acked updates");
    }

    #[test]
    fn auto_compaction_keeps_file_bounded() {
        // Small file + heavy rewrite churn: auto-compaction must fire and
        // keep the append cursor within the file while preserving data.
        let cfg = DocStoreConfig {
            batch_size: 10,
            barriers: true,
            file_blocks: 512, // 2MB
            auto_compact_pct: 60,
        };
        let mut s = DocStore::create(MemDevice::new(1024), cfg);
        let mut t = 0;
        for round in 0..40u64 {
            for i in 0..40u64 {
                t = s.set(format!("k{i:02}").as_bytes(), &doc(round * 100 + i), t);
            }
        }
        assert!(s.stats().compactions > 0, "churn must trigger auto-compaction");
        assert!(s.file_len() < 512 * 4096, "file stayed within bounds");
        s.clear_object_cache();
        for i in 0..40u64 {
            let (v, t2) = s.get(format!("k{i:02}").as_bytes(), t).into_parts();
            t = t2;
            assert_eq!(v.unwrap(), doc(3900 + i), "k{i:02} after auto-compaction");
        }
    }
}
