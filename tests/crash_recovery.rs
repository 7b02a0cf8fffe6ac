//! Cross-crate crash/recovery integration tests: the paper's durability
//! claims as assertions.

use docstore::{DocStore, DocStoreConfig};
use durassd::{Ssd, SsdConfig};
use hdd::{Hdd, HddConfig};
use relstore::{Engine, EngineConfig, Error};
use simkit::rng::{Rng, SimRng};
use simkit::Nanos;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use storage::device::{BlockDevice, DevResult, DeviceStats};
use storage::testdev::MemDevice;

const KEYS: u64 = 300;

fn engine_cfg(safe: bool) -> EngineConfig {
    EngineConfig {
        buffer_pool_bytes: 64 * 4096,
        double_write: safe,
        barriers: safe,
        data_pages: 8192,
        log_files: 2,
        log_file_blocks: 1024,
        dwb_pages: 64,
        ..EngineConfig::mysql_like(4096)
    }
}

/// Run a committed workload, crash, recover; return Ok(lost) or the
/// recovery error.
fn crash_trial<D: BlockDevice, L: BlockDevice>(data: D, log: L, safe: bool) -> Result<u64, Error> {
    let cfg = engine_cfg(safe);
    let (mut e, t0) = Engine::create(data, log, cfg, 0).into_parts();
    let (tree, t1) = e.create_tree(t0).into_parts();
    let mut now = e.checkpoint(t1);
    for i in 0..KEYS {
        now = e.put(tree, format!("k{i:04}").as_bytes(), format!("v{i}").as_bytes(), now);
        now = e.commit(now);
    }
    let (d, l) = e.crash(now + 1);
    let (mut e2, mut t2) = Engine::recover(d, l, cfg, now + 2)?.into_parts();
    let mut lost = 0;
    for i in 0..KEYS {
        let (v, t3) = e2.get(tree, format!("k{i:04}").as_bytes(), t2).into_parts();
        t2 = t3;
        if v.as_deref() != Some(format!("v{i}").as_bytes()) {
            lost += 1;
        }
    }
    Ok(lost)
}

fn durassd() -> Ssd {
    Ssd::new(SsdConfig::durassd(8))
}

fn volatile_ssd() -> Ssd {
    Ssd::new(SsdConfig::ssd_a(8))
}

fn disk() -> Hdd {
    Hdd::new(HddConfig { capacity_pages: 64 * 1024, ..HddConfig::default() })
}

#[test]
fn durassd_lean_config_loses_nothing() {
    // The paper's thesis: barriers OFF + double-write OFF is fully safe on a
    // capacitor-backed cache.
    assert_eq!(crash_trial(durassd(), durassd(), false), Ok(0));
}

#[test]
fn durassd_safe_config_loses_nothing() {
    assert_eq!(crash_trial(durassd(), durassd(), true), Ok(0));
}

#[test]
fn volatile_ssd_safe_config_loses_nothing() {
    // Barriers + double-write protect even a volatile cache (slowly).
    assert_eq!(crash_trial(volatile_ssd(), volatile_ssd(), true), Ok(0));
}

#[test]
fn volatile_ssd_lean_config_loses_data() {
    if let Ok(lost) = crash_trial(volatile_ssd(), volatile_ssd(), false) {
        // Total metadata loss (Err) is an acceptable — worse — outcome.
        assert!(lost > 0, "volatile cache must lose acknowledged commits");
    }
}

#[test]
fn disk_safe_config_loses_nothing() {
    assert_eq!(crash_trial(disk(), disk(), true), Ok(0));
}

#[test]
fn disk_lean_config_loses_data() {
    if let Ok(lost) = crash_trial(disk(), disk(), false) {
        assert!(lost > 0, "disk write cache must lose acknowledged commits")
    }
}

#[test]
fn repeated_crashes_converge() {
    // Crash, recover, write more, crash again: recovery must be idempotent
    // and stack across generations (DuraSSD, lean config).
    let cfg = engine_cfg(false);
    let (mut e, t0) = Engine::create(durassd(), durassd(), cfg, 0).into_parts();
    let (tree, t1) = e.create_tree(t0).into_parts();
    let mut now = e.checkpoint(t1);
    let mut expected = 0u64;
    for generation in 0..3u64 {
        for i in 0..100u64 {
            let k = format!("g{generation}k{i:03}");
            now = e.put(tree, k.as_bytes(), b"v", now);
            now = e.commit(now);
        }
        expected += 100;
        let (d, l) = e.crash(now + 1);
        let (e2, t2) = Engine::recover(d, l, cfg, now + 2).expect("recover").into_parts();
        e = e2;
        now = t2;
    }
    // Every key from every generation present.
    let mut found = 0;
    for generation in 0..3u64 {
        for i in 0..100u64 {
            let k = format!("g{generation}k{i:03}");
            let (v, t) = e.get(tree, k.as_bytes(), now).into_parts();
            now = t;
            if v.is_some() {
                found += 1;
            }
        }
    }
    assert_eq!(found, expected);
}

#[test]
fn double_recovery_is_idempotent() {
    // Recovering the same crash image twice must yield byte-identical state
    // and identical replay accounting: replay goes through the normal write
    // path with the WAL disabled, so a recovery pass never changes what the
    // next recovery pass sees.
    let cfg = engine_cfg(false);
    let (mut e, t0) = Engine::create(durassd(), durassd(), cfg, 0).into_parts();
    let (tree, t1) = e.create_tree(t0).into_parts();
    let mut now = e.checkpoint(t1);
    for i in 0..120u64 {
        now = e.put(tree, format!("k{i:04}").as_bytes(), format!("v{i}").as_bytes(), now);
        now = e.commit(now);
        if i == 60 {
            now = e.checkpoint(now);
        }
    }
    let (d, l) = e.crash(now + 1);
    let r1 = Engine::recover(d, l, cfg, now + 2).expect("first recovery");
    let stats1 = r1.stats;
    let (mut e1, mut ta) = r1.into_parts();
    let mut state1 = Vec::new();
    for i in 0..120u64 {
        let (v, t) = e1.get(tree, format!("k{i:04}").as_bytes(), ta).into_parts();
        ta = t;
        state1.push(v);
    }
    // Crash the recovered engine without any new work and recover again.
    let (d, l) = e1.crash(ta + 1);
    let r2 = Engine::recover(d, l, cfg, ta + 2).expect("second recovery");
    let stats2 = r2.stats;
    let (mut e2, mut tb) = r2.into_parts();
    for (i, want) in state1.iter().enumerate() {
        let (v, t) = e2.get(tree, format!("k{i:04}").as_bytes(), tb).into_parts();
        tb = t;
        assert_eq!(&v, want, "key k{i:04} differs between recovery passes");
    }
    // Replay did not grow the WAL, so the second pass sees the same log.
    assert_eq!(stats2.replayed, stats1.replayed, "replay accounting drifted");
    assert_eq!(stats2.torn, 0);
    assert_eq!(stats1.torn, 0);
}

#[test]
fn checkpoint_bounded_replay_skips_pre_checkpoint_records() {
    // The log header names the checkpoint and the scan starts there: records
    // logged before it are never read, records after it are all redone.
    let cfg = engine_cfg(false);
    let (mut e, t0) = Engine::create(durassd(), durassd(), cfg, 0).into_parts();
    let (tree, t1) = e.create_tree(t0).into_parts();
    let mut now = e.checkpoint(t1);
    for i in 0..40u64 {
        now = e.put(tree, format!("a{i:03}").as_bytes(), b"pre", now);
        now = e.commit(now);
    }
    assert!(e.wal_outstanding_bytes() > 0);
    now = e.checkpoint(now);
    assert_eq!(e.wal_outstanding_bytes(), 0, "a checkpoint leaves nothing to scan");
    for i in 0..15u64 {
        now = e.put(tree, format!("b{i:03}").as_bytes(), b"post", now);
        now = e.commit(now);
    }
    let (d, l) = e.crash(now + 1);
    let rec = Engine::recover(d, l, cfg, now + 2).expect("recover");
    let stats = rec.stats;
    assert_eq!(stats.replayed, 15, "exactly the post-checkpoint records replay: {stats:?}");
    assert!(stats.checkpoint_lsn > 0, "replay must start at a checkpoint: {stats:?}");
    // Not scanning them costs no data: every commit from both phases reads.
    let (mut e2, mut t2) = rec.into_parts();
    for (phase, n, want) in [('a', 40u64, "pre"), ('b', 15, "post")] {
        for i in 0..n {
            let (v, t3) = e2.get(tree, format!("{phase}{i:03}").as_bytes(), t2).into_parts();
            t2 = t3;
            assert_eq!(v.as_deref(), Some(want.as_bytes()), "{phase}{i:03}");
        }
    }
    // A crash right after a checkpoint has nothing to redo.
    let t3 = e2.checkpoint(t2);
    let (d, l) = e2.crash(t3 + 1);
    let rec = Engine::recover(d, l, cfg, t3 + 2).expect("recover");
    assert_eq!(rec.stats.replayed, 0, "{:?}", rec.stats);
    assert!(rec.stats.checkpoint_lsn > stats.checkpoint_lsn);
}

#[test]
fn bit_flip_in_log_surfaces_typed_tear() {
    // A corrupted record mid-log must not panic recovery: the log is
    // truncated at the tear and the damage is reported as replay stats that
    // convert to a typed `durassd::Error` via `relstore::tear_error`.
    let cfg = engine_cfg(false);
    let (mut e, t0) =
        Engine::create(MemDevice::new(16 * 1024), MemDevice::new(4096), cfg, 0).into_parts();
    let (tree, t1) = e.create_tree(t0).into_parts();
    let mut now = t1;
    for i in 0..20u64 {
        now = e.put(tree, format!("k{i:03}").as_bytes(), b"v", now);
        now = e.commit(now);
    }
    let (d, mut l) = e.crash(now + 1);
    // Flip a payload byte of the very first log record (the create_tree
    // page image, which spans all of stream block 0 = device lpn 1).
    let mut blk = vec![0u8; 4096];
    l.read(1, 1, &mut blk, 0).unwrap();
    blk[200] ^= 0xFF;
    l.write(1, &blk, 0).unwrap();
    let rec = Engine::recover(d, l, cfg, now + 2).expect("truncate-at-tear, not a panic");
    let stats = rec.stats;
    assert_eq!(stats.torn, 1, "{stats:?}");
    assert_eq!(stats.tear_lsn, Some(0), "{stats:?}");
    assert_eq!(stats.replayed, 0, "everything after the tear is truncated: {stats:?}");
    let err = relstore::tear_error(&stats).expect("a tear must convert to a typed error");
    assert!(matches!(err, Error::TornLog { lsn: 0 }), "{err:?}");
    assert!(err.to_string().contains("torn log record"), "{err}");
    // A clean image converts to no error.
    assert!(relstore::tear_error(&simkit::ReplayStats::default()).is_none());
}

#[test]
fn double_write_repairs_torn_pages_on_volatile_ssd() {
    // Force heavy eviction churn with barriers ON so in-flight NAND
    // programs exist at the cut; the DWB must repair any torn home pages.
    let cfg = EngineConfig {
        buffer_pool_bytes: 16 * 4096, // tiny pool: constant eviction
        ..engine_cfg(true)
    };
    let (mut e, t0) = Engine::create(volatile_ssd(), volatile_ssd(), cfg, 0).into_parts();
    let (tree, t1) = e.create_tree(t0).into_parts();
    let mut now = e.checkpoint(t1);
    for i in 0..KEYS {
        now = e.put(tree, format!("k{i:04}").as_bytes(), &[b'x'; 120], now);
        now = e.commit(now);
    }
    let (d, l) = e.crash(now + 1);
    let (mut e2, mut t2) = Engine::recover(d, l, cfg, now + 2).expect("recover").into_parts();
    for i in 0..KEYS {
        let (v, t3) = e2.get(tree, format!("k{i:04}").as_bytes(), t2).into_parts();
        t2 = t3;
        assert_eq!(v.unwrap(), vec![b'x'; 120], "key {i} after DWB repair");
    }
}

#[test]
fn double_write_repair_restores_the_newest_copy() {
    // The double-write area keeps older copies of a page beside newer ones
    // (the cursor only wraps; checkpoints do not clear it). Both versions of
    // the root leaf are checkpointed, so no redo record is past the bound:
    // a torn home page must come back from the copy with the highest page
    // LSN, not from the first valid one in slot order.
    let cfg = EngineConfig {
        dwb_pages: 16,
        checkpoint_policy: relstore::CheckpointPolicy::Explicit,
        ..engine_cfg(true)
    };
    let (mut e, t0) =
        Engine::create(MemDevice::new(16 * 1024), MemDevice::new(4096), cfg, 0).into_parts();
    let (tree, mut now) = e.create_tree(t0).into_parts();
    for version in [b"version-1", b"version-2"] {
        now = e.put(tree, b"k", version, now);
        now = e.commit(now);
        now = e.checkpoint(now);
    }
    let (mut d, l) = e.crash(now + 1);
    // Tear the middle of the leaf's home page: 2 catalog pages and the
    // 16-page double-write area precede the tablespace.
    let home = 2 + cfg.dwb_pages;
    let mut page = vec![0u8; 4096];
    d.read(home, 1, &mut page, 0).unwrap();
    page[2048..4000].fill(0xEE);
    d.write(home, &page, 0).unwrap();
    let (mut e2, t2) = Engine::recover(d, l, cfg, now + 2).expect("recover").into_parts();
    assert_eq!(e2.stats().repaired_pages, 1);
    assert_eq!(e2.get(tree, b"k", t2).value.as_deref(), Some(&b"version-2"[..]));
}

/// A block device that loses power 1 ns before the ack of the `n`-th write
/// it takes once armed (or, as the fuse says, 1 ns after it, and counting
/// flushes and discards too). The host dies with it: from that moment every
/// command, on this device and on its twin holding the same fuse, goes
/// nowhere — the engine's call runs on, but nothing it does reaches a device.
struct Doomed<D> {
    inner: D,
    fuse: Rc<Fuse>,
    /// Whether this device's commands burn the fuse (its twin only dies).
    burns: bool,
}

#[derive(Default)]
struct Fuse {
    /// Commands the armed device still completes, the fatal one included.
    commands_left: Cell<Option<u64>>,
    /// Count only writes to LPNs below this (`None`: every write).
    only_below: Cell<Option<u64>>,
    /// Count flushes and discards as well as writes.
    every_command: Cell<bool>,
    /// Cut 1 ns after the fatal command's ack, not 1 ns before it.
    after_ack: Cell<bool>,
    /// When power was cut, and the LPN of the command it cut.
    blown: Cell<Option<(Nanos, u64)>>,
}

impl<D: BlockDevice> Doomed<D> {
    /// Whether power is gone (cutting this device too if its twin blew).
    fn dead(&mut self) -> bool {
        if let Some((at, _)) = self.fuse.blown.get() {
            self.inner.power_cut(at);
        }
        self.fuse.blown.get().is_some()
    }

    /// Count a command at `lpn` acknowledged at `done` against an armed
    /// fuse; the fatal one takes the power with it.
    fn burn(&mut self, lpn: u64, done: Nanos) {
        if let Some(left) = self.fuse.commands_left.get().filter(|_| self.burns) {
            self.fuse.commands_left.set(left.checked_sub(1).filter(|&left| left > 0));
            if left == 1 {
                let at = if self.fuse.after_ack.get() { done + 1 } else { done - 1 };
                self.fuse.blown.set(Some((at, lpn)));
                self.inner.power_cut(at);
            }
        }
    }
}

impl<D: BlockDevice> BlockDevice for Doomed<D> {
    fn capacity_pages(&self) -> u64 {
        self.inner.capacity_pages()
    }
    fn read(&mut self, lpn: u64, pages: u32, buf: &mut [u8], now: Nanos) -> DevResult<Nanos> {
        if self.dead() {
            return Ok(now);
        }
        self.inner.read(lpn, pages, buf, now)
    }
    fn write(&mut self, lpn: u64, data: &[u8], now: Nanos) -> DevResult<Nanos> {
        if self.dead() {
            return Ok(now);
        }
        let done = self.inner.write(lpn, data, now)?;
        if self.fuse.only_below.get().is_none_or(|below| lpn < below) {
            self.burn(lpn, done);
        }
        Ok(done)
    }
    fn flush(&mut self, now: Nanos) -> DevResult<Nanos> {
        if self.dead() {
            return Ok(now);
        }
        let done = self.inner.flush(now)?;
        if self.fuse.every_command.get() {
            self.burn(0, done);
        }
        Ok(done)
    }
    fn discard(&mut self, lpn: u64, pages: u32, now: Nanos) -> DevResult<Nanos> {
        if self.dead() {
            return Ok(now);
        }
        let done = self.inner.discard(lpn, pages, now)?;
        if self.fuse.every_command.get() {
            self.burn(lpn, done);
        }
        Ok(done)
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
    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }
}

#[test]
fn power_cut_inside_a_checkpoint_batch_is_repaired_from_the_double_write_area() {
    // SSD-A (volatile cache) with barriers and double-write on, 16 KB pages
    // (four device pages each, so a home page can tear). Power goes 1 ns
    // before the ack of a home write inside a checkpoint's batch, while the
    // device drains the batch's earlier home writes: the batch's copies
    // were flushed to the double-write area first, so every home page the
    // cut tears is repaired, the checkpoint that never finished covers
    // nothing, and redo brings back every committed row.
    let cfg = EngineConfig {
        page_size: 16384,
        buffer_pool_bytes: 192 * 16384,
        data_pages: 2048,
        checkpoint_policy: relstore::CheckpointPolicy::Explicit,
        ..engine_cfg(true)
    };
    let home_base = (2 + cfg.dwb_pages) * 4;
    let mut repaired = 0;
    for seed in 0..20u64 {
        let fuse = Rc::new(Fuse::default());
        let doomed = |burns| Doomed { inner: volatile_ssd(), fuse: fuse.clone(), burns };
        let (mut e, t0) = Engine::create(doomed(true), doomed(false), cfg, 0).into_parts();
        let (tree, t1) = e.create_tree(t0).into_parts();
        let mut now = e.checkpoint(t1);
        let mut rng = SimRng::seed_from_u64(seed);
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        // About 80 leaves under a 192-frame pool: nothing is evicted, and
        // the 1,000 puts after the second checkpoint dirty nearly all.
        for op in 0..3000u64 {
            if op == 2000 {
                now = e.checkpoint(now);
            }
            let key = format!("key{:05}", rng.gen_range(0..2000u64)).into_bytes();
            let val = format!("v{op}:{}", "x".repeat(rng.gen_range(300..500usize))).into_bytes();
            now = e.put(tree, &key, &val, now);
            model.insert(key, val);
            now = e.commit(now);
        }
        assert_eq!(e.stats().page_writes, e.pool_stats().flush_writes, "no evictions so far");
        // A batch is one double-write run, then its 16 home writes: blow on
        // home write `page` of the first or the second batch.
        let (batch, page) = (rng.gen_range(0..2u64), rng.gen_range(0..16u64));
        fuse.commands_left.set(Some(batch * 17 + 1 + page + 1));
        let now = e.checkpoint(now);
        let (cut_at, cut_lpn) = fuse.blown.get().expect("the checkpoint wrote two full batches");
        assert!(cut_lpn >= home_base, "seed {seed}: the cut write was a home write");
        let (d, l) = e.crash(now);
        let rec = Engine::recover(d.inner, l.inner, cfg, now.max(cut_at) + 1_000_000)
            .unwrap_or_else(|err| panic!("seed {seed}: {err}"));
        let (mut e2, t2) = rec.into_parts();
        repaired += e2.stats().repaired_pages;
        let want: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
        let got = e2.scan(tree, b"", want.len() + 1, t2).value;
        assert!(got == want, "seed {seed}: {} of {} rows scanned back", got.len(), want.len());
    }
    assert!(repaired > 0, "some cut must tear a home page, or this pins nothing");
}

/// SSD-A (volatile cache) with barriers and double-write on: 900 committed
/// puts with a checkpoint after the 600th, then a second checkpoint that
/// loses power 1 ns before the ack of its first write to an LPN below
/// `cut_below` on the log (`log_burns`) or the data device. A checkpoint that
/// never wrote its header counts for nothing: recovery must start at the
/// previous one, replay every record since it and bring back every row.
fn previous_checkpoint_stays_in_force(seed: u64, log_burns: bool, cut_below: u64) {
    let cfg = engine_cfg(true);
    let fuse = Rc::new(Fuse::default());
    let doomed = |burns| Doomed { inner: volatile_ssd(), fuse: fuse.clone(), burns };
    let (mut e, t0) = Engine::create(doomed(!log_burns), doomed(log_burns), cfg, 0).into_parts();
    let (tree, t1) = e.create_tree(t0).into_parts();
    let mut now = e.checkpoint(t1);
    let mut rng = SimRng::seed_from_u64(seed);
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut logged_at_checkpoint = 0;
    for op in 0..900u64 {
        if op == 600 {
            now = e.checkpoint(now);
            logged_at_checkpoint = e.wal_stats().appends;
        }
        let key = format!("key{:05}", rng.gen_range(0..500u64)).into_bytes();
        let val = format!("v{op}:{}", "x".repeat(rng.gen_range(40..180usize))).into_bytes();
        now = e.put(tree, &key, &val, now);
        model.insert(key, val);
        now = e.commit(now);
    }
    let logged_since = e.wal_stats().appends - logged_at_checkpoint;
    // From the LSN the checkpoint at op 600 put in the log header to the
    // end of the log.
    let outstanding = e.wal_outstanding_bytes();
    fuse.only_below.set(Some(cut_below));
    fuse.commands_left.set(Some(1));
    let now = e.checkpoint(now);
    let (cut_at, _) = fuse.blown.get().expect("the checkpoint reached the armed write");
    let (d, l) = e.crash(now);
    let rec = Engine::recover(d.inner, l.inner, cfg, now.max(cut_at) + 1_000_000)
        .unwrap_or_else(|err| panic!("seed {seed}: {err}"));
    assert_eq!(rec.stats.replayed, logged_since, "seed {seed}: {:?}", rec.stats);
    let (mut e2, t2) = rec.into_parts();
    // The same end of log and the same distance to it: the same header.
    assert_eq!(e2.wal_outstanding_bytes(), outstanding, "seed {seed}");
    let want: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
    let got = e2.scan(tree, b"", want.len() + 1, t2).value;
    assert!(got == want, "seed {seed}: {} of {} rows scanned back", got.len(), want.len());
}

#[test]
fn power_cut_on_the_checkpoint_header_write_leaves_the_previous_checkpoint() {
    // Everything is committed, so the header (block 0 of the log volume) is
    // the checkpoint's only log write: the new checkpoint's pages and catalog
    // are durable on the data device when it is lost.
    for seed in 0..20 {
        previous_checkpoint_stays_in_force(seed, true, 1);
    }
}

#[test]
fn power_cut_on_the_checkpoint_catalog_write_leaves_the_previous_checkpoint() {
    // The catalog (the first two pages of the data volume) is the data
    // device's last write of a checkpoint.
    for seed in 0..20 {
        previous_checkpoint_stays_in_force(seed, false, 2);
    }
}

/// ROADMAP's compaction workload on `dev` — 1,500 documents, 100 of them
/// updated eleven more times, `compact` — with the power going at every
/// device command compaction issues (the new file's write, the superblock
/// switch, their flushes where barriers are on, the TRIM), 1 ns before its
/// ack and 1 ns after. Each cut is followed by recovery and a read of every
/// document; the recovered store then takes a few hundred more updates and
/// compacts again, into the region the cut before left behind, under the
/// next cut. Returns the documents lost or corrupt over all cuts.
fn cuts_inside_compaction<D: BlockDevice>(dev: D, barriers: bool, seed: u64) -> u64 {
    let cfg = DocStoreConfig { batch_size: 1, barriers, file_blocks: 32_768, auto_compact_pct: 0 };
    let fuse = Rc::new(Fuse::default());
    fuse.every_command.set(true);
    let doomed = |inner| Doomed { inner, fuse: fuse.clone(), burns: true };
    let mut rng = SimRng::seed_from_u64(seed);
    let mut model: BTreeMap<String, String> = BTreeMap::new();
    let mut version = 0;
    let mut set = |s: &mut DocStore<Doomed<D>>, model: &mut BTreeMap<_, _>, i: u64, now| {
        version += 1;
        let key = format!("key{i:04}");
        let body = format!("doc-{i:04}-v{version:05}-{}", "d".repeat(rng.gen_range(280..330)));
        let done = s.set(key.as_bytes(), body.as_bytes(), now);
        model.insert(key, body);
        done
    };
    let mut s = DocStore::create(doomed(dev), cfg);
    let mut now = 0;
    for i in 0..1500 {
        now = set(&mut s, &mut model, i, now);
    }
    let mut lost = 0;
    // First an undisturbed compaction under a fuse that only counts, from
    // far away, the commands it issues; then a cut at each of them.
    const FAR: u64 = 1 << 40;
    let mut cuts = vec![(FAR, false)];
    while let Some((command, after_ack)) = cuts.pop() {
        for _ in 0..if command == FAR { 11 } else { 2 } {
            for i in 1400..1500 {
                now = set(&mut s, &mut model, i, now);
            }
        }
        fuse.commands_left.set(Some(command));
        fuse.after_ack.set(after_ack);
        now = s.compact(now);
        if command == FAR {
            let n = FAR - fuse.commands_left.take().expect("still counting");
            assert_eq!(n, if barriers { 5 } else { 3 }, "write, switch, TRIM and the flushes");
            cuts.extend((1..=n).flat_map(|c| [(c, false), (c, true)]));
        }
        let cut_at = fuse.blown.take().map_or(now, |(at, _)| at);
        assert!(command == FAR || cut_at != now, "compaction reached command {command}");
        let inner = s.crash(now.max(cut_at) + 1).inner;
        (s, now) = DocStore::recover(doomed(inner), cfg, now.max(cut_at) + 1_000_000).into_parts();
        for (key, body) in &model {
            let (got, t) = s.get(key.as_bytes(), now).into_parts();
            now = t;
            lost += u64::from(got.as_deref() != Some(body.as_bytes()));
        }
        lost += s.stats().corrupt_reads;
    }
    lost
}

/// 20 seeds of [`cuts_inside_compaction`] on each device class, under the
/// mount it needs: no committed document is lost at any cut.
mod cuts_inside_compaction_lose_nothing {
    use super::*;

    #[test]
    fn on_durassd_without_barriers() {
        for seed in 0..20 {
            assert_eq!(cuts_inside_compaction(durassd(), false, seed), 0, "seed {seed}");
        }
    }

    #[test]
    fn on_ssd_a_with_barriers() {
        for seed in 0..20 {
            assert_eq!(cuts_inside_compaction(volatile_ssd(), true, seed), 0, "seed {seed}");
        }
    }

    #[test]
    fn on_the_disk_with_barriers() {
        for seed in 0..20 {
            assert_eq!(cuts_inside_compaction(disk(), true, seed), 0, "seed {seed}");
        }
    }
}

/// A second cut, inside recovery. 900 committed puts with a checkpoint after
/// the 600th and a power cut; 40 home pages torn behind the engine's back
/// (their double-write copies intact), so recovery has more repair writes
/// than one window of its queue — then the power goes again at each write
/// and flush recovery issues in turn, 1 ns before its ack and 1 ns after,
/// with the writes around it in flight. The recovery after that must bring
/// back every row. Returns the rows lost over all cuts.
fn cuts_inside_recovery<D: BlockDevice>(mk: impl Fn() -> D, barriers: bool) -> u64 {
    const TORN: u64 = 40;
    // A pool and an area that hold everything: no page is evicted, so every
    // home page's newest copy stays in the area for as long as the test runs.
    let cfg = EngineConfig {
        barriers,
        double_write: true,
        buffer_pool_bytes: 512 * 4096,
        dwb_pages: 512,
        checkpoint_policy: relstore::CheckpointPolicy::Explicit,
        ..engine_cfg(true)
    };
    let fuse = Rc::new(Fuse::default());
    fuse.every_command.set(true);
    let doomed = |inner, burns| Doomed { inner, fuse: fuse.clone(), burns };
    let (mut e, t0) = Engine::create(doomed(mk(), true), doomed(mk(), false), cfg, 0).into_parts();
    let (tree, mut now) = e.create_tree(t0).into_parts();
    let mut rng = SimRng::seed_from_u64(7);
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for op in 0..900u64 {
        if op == 600 {
            now = e.checkpoint(now);
            assert!(e.stats().page_writes >= TORN, "{} pages", e.stats().page_writes);
        }
        let key = format!("key{:05}", rng.gen_range(0..2000u64)).into_bytes();
        let val = format!("v{op}:{}", "x".repeat(rng.gen_range(150..300usize))).into_bytes();
        now = e.put(tree, &key, &val, now);
        model.insert(key, val);
        now = e.commit(now);
    }
    assert_eq!(e.pool_stats().dirty_evictions, 0);
    let want: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
    let home = 2 + cfg.dwb_pages;
    let mut page = vec![0u8; 4096];
    let mut lost = 0;
    // First an undisturbed recovery under a fuse that only counts, from far
    // away, the commands it issues; then a cut at each of them.
    const FAR: u64 = 1 << 40;
    let mut cuts = vec![(FAR, false)];
    let mut repaired_after_a_cut = 0;
    while let Some((command, after_ack)) = cuts.pop() {
        let (mut d, l) = e.crash(now + 1);
        // Tear the first pages' homes, durably, with the power back on.
        now = d.inner.reboot(now + 2);
        for page_no in 0..TORN {
            now = d.inner.read(home + page_no, 1, &mut page, now).unwrap();
            page[2048..4000].fill(0xEE);
            now = d.inner.write(home + page_no, &page, now).unwrap();
        }
        now = d.inner.flush(now).unwrap();
        d.inner.power_cut(now + 1);
        fuse.commands_left.set(Some(command));
        fuse.after_ack.set(after_ack);
        // Dead or alive, the host's recovery runs to its end.
        let rec =
            Engine::recover(d, l, cfg, now + 2).unwrap_or_else(|err| panic!("{command}: {err}"));
        if command == FAR {
            let n = FAR - fuse.commands_left.take().expect("still counting");
            assert_eq!(rec.value.stats().repaired_pages, TORN);
            assert_eq!(n, TORN + u64::from(barriers), "the repair writes and their flush");
            cuts.extend((1..=n).flat_map(|c| [(c, false), (c, true)]));
        }
        now = rec.done;
        e = rec.value;
        if let Some((cut_at, _)) = fuse.blown.take() {
            let (d, l) = e.crash(now);
            let rec = Engine::recover(d, l, cfg, now.max(cut_at) + 1_000_000)
                .unwrap_or_else(|err| panic!("after the cut at command {command}: {err}"));
            repaired_after_a_cut += rec.value.stats().repaired_pages;
            (e, now) = rec.into_parts();
        } else {
            assert_eq!(command, FAR, "recovery reached command {command}");
        }
        let (got, t) = e.scan(tree, b"", want.len() + 1, now).into_parts();
        now = t;
        lost += want.iter().filter(|row| got.binary_search(row).is_err()).count() as u64;
        lost += e.stats().corrupt_reads + (got.len() as u64).saturating_sub(want.len() as u64);
    }
    assert!(repaired_after_a_cut > 0, "some cut must leave repairs undone, or this pins nothing");
    lost
}

/// [`cuts_inside_recovery`] on each device class, under the mount it needs.
mod cuts_inside_recovery_lose_nothing {
    use super::*;

    #[test]
    fn on_durassd_without_barriers() {
        assert_eq!(cuts_inside_recovery(durassd, false), 0);
    }

    #[test]
    fn on_ssd_a_with_barriers() {
        assert_eq!(cuts_inside_recovery(volatile_ssd, true), 0);
    }

    #[test]
    fn on_the_disk_with_barriers() {
        assert_eq!(cuts_inside_recovery(disk, true), 0);
    }
}

#[test]
fn uncommitted_work_never_reappears_after_crash() {
    let cfg = engine_cfg(true);
    let (mut e, t0) = Engine::create(durassd(), durassd(), cfg, 0).into_parts();
    let (tree, t1) = e.create_tree(t0).into_parts();
    let mut now = e.checkpoint(t1);
    now = e.put(tree, b"committed", b"1", now);
    now = e.commit(now);
    // A large uncommitted batch.
    for i in 0..50u64 {
        now = e.put(tree, format!("un{i}").as_bytes(), b"2", now);
    }
    let (d, l) = e.crash(now + 1);
    let (mut e2, mut t2) = Engine::recover(d, l, cfg, now + 2).expect("recover").into_parts();
    let (v, t3) = e2.get(tree, b"committed", t2).into_parts();
    t2 = t3;
    assert_eq!(v.unwrap(), b"1");
    for i in 0..50u64 {
        let (v, t3) = e2.get(tree, format!("un{i}").as_bytes(), t2).into_parts();
        t2 = t3;
        assert!(v.is_none(), "uncommitted un{i} reappeared");
    }
}

/// The shape of one perfect-device trial: pool frames, bytes of padding on
/// every key (long keys mean a small fan-out, so a taller tree) and the key
/// space.
struct Shape {
    frames: u64,
    key_pad: usize,
    keys: u64,
}

/// 600 short keys under an 8-frame pool: about twenty leaves under one root.
const FLAT: Shape = Shape { frames: 8, key_pad: 0, keys: 600 };
/// 260-byte keys: ~10 cells a leaf, ~14 children an internal page, so the
/// same 1,200 ops build three levels and internal pages split after the
/// checkpoint.
const TALL: Shape = Shape { frames: 24, key_pad: 250, keys: 1500 };

/// The stealing pool writes pages that are newer and fuller than the log
/// records redo meets first. On a device that loses nothing (`MemDevice`:
/// a write is durable when it returns), with a pool far smaller than the
/// tree, every committed key must scan back after checkpoint + more work +
/// crash — nothing lost, nothing invented, nothing stale. Recovery returns
/// an error if redo allocates a page, so passing also means it never did.
fn perfect_device_trial(seed: u64, safe: bool, shape: &Shape) {
    let cfg = EngineConfig {
        buffer_pool_bytes: shape.frames * 4096,
        checkpoint_policy: relstore::CheckpointPolicy::Explicit,
        ..engine_cfg(safe)
    };
    let (mut e, t0) =
        Engine::create(MemDevice::new(16 * 1024), MemDevice::new(4096), cfg, 0).into_parts();
    let (tree, t1) = e.create_tree(t0).into_parts();
    let mut now = e.checkpoint(t1);
    let mut rng = SimRng::seed_from_u64(seed);
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for op in 0..1200u64 {
        if op == 800 {
            now = e.checkpoint(now);
        }
        let key = format!("key{:06}{}", rng.gen_range(0..shape.keys), "p".repeat(shape.key_pad))
            .into_bytes();
        if rng.gen_bool(0.6) {
            let val = format!("v{op}:{}", "x".repeat(rng.gen_range(40..180usize))).into_bytes();
            now = e.put(tree, &key, &val, now);
            model.insert(key, val);
        } else {
            now = e.delete(tree, &key, now).done;
            model.remove(&key);
        }
        now = e.commit(now);
    }
    now = e.quiesce(now);
    let (d, l) = e.crash(now + 1);
    let rec = Engine::recover(d, l, cfg, now + 2)
        .unwrap_or_else(|err| panic!("seed {seed} safe={safe}: {err}"));
    let (mut e2, t2) = rec.into_parts();
    let want: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
    // One more than can be right, so a leaf chain that loops still ends.
    let got = e2.scan(tree, b"", want.len() + 1, t2).value;
    let lost = || want.iter().filter(|(k, _)| !got.iter().any(|(g, _)| g == k)).count();
    assert!(
        got == want,
        "seed {seed} safe={safe}: scan returned {} entries, {} committed, {} lost",
        got.len(),
        want.len(),
        lost()
    );
}

#[test]
fn perfect_device_recovers_every_committed_key_lean() {
    for seed in 0..40 {
        perfect_device_trial(seed, false, &FLAT);
    }
}

#[test]
fn perfect_device_recovers_every_committed_key_safe() {
    for seed in 0..40 {
        perfect_device_trial(seed, true, &FLAT);
    }
}

/// Redo in log order passes the two flat cases and fails 13 of these 40
/// seeds: a parent and child from different moments route a record to the
/// wrong leaf. Installing the logged structure first is what this pins.
#[test]
fn perfect_device_recovers_every_committed_key_in_a_tall_tree() {
    for seed in 0..40 {
        perfect_device_trial(seed, false, &TALL);
    }
}
