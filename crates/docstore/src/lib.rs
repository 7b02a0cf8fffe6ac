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
//!   layer), COW updates, batched fsync, block-aligned headers, a backward
//!   scan for the newest header on recovery, and compaction.

pub mod append;
pub mod cowtree;

use append::{AppendSpace, BLOCK};
use cowtree::{EntryRef, Node, KIND_INTERNAL, KIND_LEAF};
use forensics::{Ledger, UnitKind};
use simkit::{crc32, Nanos, Recovered, ReplayStats, Timed};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use storage::device::BlockDevice;
use storage::file::PageFile;
use storage::volume::{Volume, VolumeManager};
use telemetry::{Scope, Telemetry};
use wal::{DocSetRef, LogRecord};

const HEADER_MAGIC: u64 = 0x434f_5543_4848_4452;
/// Header fields ahead of the CRC: magic, seq, root offset, root length,
/// depth.
const HEADER_BODY: usize = 32;

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
    /// Create a fresh (empty) store on `dev`.
    pub fn create(dev: D, cfg: DocStoreConfig) -> Self {
        cfg.validate();
        let vol = Volume::new(dev, cfg.barriers);
        let mut vm = VolumeManager::new(vol.capacity_pages());
        let file = PageFile::create(&mut vm, cfg.file_blocks.min(vol.capacity_pages()), BLOCK);
        Self {
            vol,
            space: AppendSpace::new(file),
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

    /// Attach a durability ledger to the store and its volume. Every `set`
    /// / `delete` pends a [`UnitKind::DocstoreUpdate`] unit; the batch
    /// header fsync (the couchstore commit point) acknowledges everything
    /// pending, under the flush-barrier contract when barriers are on and
    /// the device's own contract when they are off.
    pub fn attach_ledger(&mut self, ledger: Ledger) {
        self.vol.attach_ledger(ledger.clone());
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
        let t = self.space.write_out(&mut self.vol, now);
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
        // Header block: magic, seq, root, depth, CRC.
        let (seq, depth) = (self.seq, self.depth);
        let (rp, rl) = self.root.unwrap_or((u64::MAX, 0));
        self.space.append_with(|out| {
            let at = out.len();
            out.resize(at + BLOCK, 0);
            let hdr = &mut out[at..];
            hdr[..8].copy_from_slice(&HEADER_MAGIC.to_le_bytes());
            hdr[8..16].copy_from_slice(&seq.to_le_bytes());
            hdr[16..24].copy_from_slice(&rp.to_le_bytes());
            hdr[24..28].copy_from_slice(&rl.to_le_bytes());
            hdr[28..32].copy_from_slice(&depth.to_le_bytes());
            let crc = crc32(&hdr[..HEADER_BODY]);
            hdr[HEADER_BODY..HEADER_BODY + 4].copy_from_slice(&crc.to_le_bytes());
        });
        self.stats.bytes_appended += BLOCK as u64;
        self.stats.headers += 1;
        self.updates_since_sync = 0;
        let done = self.space.sync(&mut self.vol, now);
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

    /// Compaction: rewrite the live data as a fresh, dense tree at the start
    /// of the file (modelling couchstore's copy-compaction into a new file),
    /// then TRIM the reclaimed tail so the SSD can drop the stale blocks.
    ///
    /// The walk streams: each live document is read once, its record CRC
    /// checked, and its framed bytes copied as they are — re-framing the
    /// key and body of a record that decodes yields the same bytes.
    pub fn compact(&mut self, now: Nanos) -> Nanos {
        self.stats.compactions += 1;
        let old_len = self.space.len();
        // The new file. Its bytes stay in memory until the commit below, so
        // the old one is read undisturbed although both cover one region.
        let mut fresh = self.space.successor();
        // Parent entries of the level being written: first every live
        // document in key order, then each level of nodes.
        let mut level = self.spare_node(KIND_LEAF);
        let mut framed = Vec::new();
        let mut t = now;
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
        let t = self.commit_header(t);
        // TRIM everything between the new end of file and the old one.
        let new_blocks = self.space.len().div_ceil(BLOCK as u64);
        let old_blocks = old_len.div_ceil(BLOCK as u64);

        if old_blocks > new_blocks {
            self.vol.discard(new_blocks, (old_blocks - new_blocks) as u32, t).unwrap_or(t)
        } else {
            t
        }
    }

    /// Crash: cut device power and surrender the device.
    pub fn crash(mut self, now: Nanos) -> D {
        self.vol.power_cut(now);
        self.vol.into_device()
    }

    /// Recover a store from a device: reboot, scan backwards for the newest
    /// valid header, resume after it. Updates past the last header are lost
    /// (that is couchstore's contract).
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
        let mut t = now;
        if !vol.device().is_powered() {
            t = vol.reboot(t);
        }
        let mut vm = VolumeManager::new(vol.capacity_pages());
        let file = PageFile::create(&mut vm, cfg.file_blocks.min(vol.capacity_pages()), BLOCK);
        let mut buf = vec![0u8; BLOCK];
        let mut newest = None;
        for blk in (0..file.pages()).rev() {
            match file.read_page(&mut vol, blk, &mut buf, t) {
                Ok(t2) => t = t2,
                Err(_) => continue,
            }
            if u64::from_le_bytes(buf[..8].try_into().expect("hdr")) != HEADER_MAGIC {
                continue;
            }
            let crc =
                u32::from_le_bytes(buf[HEADER_BODY..HEADER_BODY + 4].try_into().expect("hdr"));
            if crc == crc32(&buf[..HEADER_BODY]) {
                newest = Some(blk);
                break;
            }
        }
        let mut replay = ReplayStats::default();
        let (space, root, depth, seq) = match newest {
            Some(blk) => {
                let seq = u64::from_le_bytes(buf[8..16].try_into().expect("hdr"));
                let root = u64::from_le_bytes(buf[16..24].try_into().expect("hdr"));
                let len = u32::from_le_bytes(buf[24..28].try_into().expect("hdr"));
                let depth = u32::from_le_bytes(buf[28..32].try_into().expect("hdr"));
                replay.checkpoint_lsn = blk * BLOCK as u64;
                let space = AppendSpace::reopen(file, (blk + 1) * BLOCK as u64);
                (space, (root != u64::MAX).then_some((root, len)), depth, seq)
            }
            None => (AppendSpace::new(file), None, 0, 0),
        };
        let store = Self {
            vol,
            space,
            root,
            depth,
            seq,
            cfg,
            doc_cache: HashMap::new(),
            node_cache: HashMap::default(),
            spare: Vec::new(),
            repl: Node::default(),
            updates_since_sync: 0,
            stats: DocStats::default(),
            tel: None,
            ledger: None,
        };
        replay.replay_ns = t.saturating_sub(now);
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

    /// The newest header is the whole recovered state: recovery reads down
    /// to it and not one block further, however many headers precede it.
    #[test]
    fn synced_updates_survive_recovery() {
        let mut s = store(1);
        let cfg = s.cfg;
        let mut t = 0;
        for i in 0..200u64 {
            t = s.set(format!("k{i:03}").as_bytes(), &doc(i), t);
        }
        let header_block = s.file_len() / BLOCK as u64 - 1;
        let reads_before = s.device_stats().reads;
        let dev = s.crash(t);
        let rec = DocStore::recover(dev, cfg, t + 1);
        assert_eq!(rec.stats.checkpoint_lsn, header_block * BLOCK as u64);
        assert_eq!((rec.stats.replayed, rec.stats.torn), (0, 0));
        let (mut s2, mut t2) = rec.into_parts();
        assert_eq!(s2.seq(), 200);
        assert_eq!(
            s2.device_stats().reads - reads_before,
            cfg.file_blocks - header_block,
            "the backward scan stops at the newest header"
        );
        for i in 0..200u64 {
            let (v, t3) = s2.get(format!("k{i:03}").as_bytes(), t2).into_parts();
            t2 = t3;
            assert_eq!(v.unwrap(), doc(i), "k{i:03}");
        }
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

    /// ROADMAP, docstore compaction: the new file is written over the start
    /// of the old one and the old tail is TRIMmed afterwards, but recovery
    /// takes the first valid header it meets scanning back from the end of
    /// the file's capacity. Where TRIM is a no-op (`MemDevice`, the disk) the
    /// old header outlives the compaction, and the tree it names points into
    /// blocks the new file overwrote — no power cut inside `compact` needed.
    /// `ci.sh` runs this with `--ignored` and fails when it starts passing.
    #[test]
    #[ignore = "ROADMAP: docstore compaction, known loss"]
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
