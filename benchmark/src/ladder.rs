//! The layer ladder: one seeded 4 KiB stream (70 % writes / 30 % reads, one
//! client, a hot span) driven at `NandArray` -> `Ftl` -> `Ssd` -> `Volume` ->
//! `Wal` / `BufferPool` / `BTree` -> `Engine` / `DocStore` through their
//! public functions, so each layer's host cost is a subtraction between two
//! rungs. Runs once in the traced pass.
//!
//! Every op is timed on its own with `Instant` (the same ~40 ns of timer
//! cost on every rung, so it cancels in the deltas). Rungs above `Volume`
//! carry a key/value instead of a raw page where their API needs one, and
//! the slowest two (`Engine`, `DocStore`) run a quarter of the stream.

use crate::common::{bench_1g, Ctx, Device};
use btree::{BTree, MemStore};
use bufferpool::{BufferPool, PageBackend};
use docstore::{DocStore, DocStoreConfig};
use durassd::{Ftl, Ssd};
use nand::NandArray;
use relstore::{Engine, EngineConfig};
use simkit::alloc::alloc_count;
use simkit::dist::{rng, Rng};
use simkit::Nanos;
use std::time::Instant;
use storage::device::{BlockDevice, LOGICAL_PAGE};
use storage::testdev::MemDevice;
use storage::volume::{Volume, VolumeManager};
use telemetry::Telemetry;
use wal::{LogRecord, Wal};

/// Ops in the stream at `--scale-pct 100`.
pub const LADDER_OPS: u64 = 60_000;
/// Logical pages the stream touches.
const SPAN: u64 = 20_000;

/// One op of the shared stream.
#[derive(Debug, Clone, Copy)]
struct Op {
    write: bool,
    lpn: u64,
}

/// The stream: 70 % writes over [`SPAN`] pages; a read always targets a
/// page written earlier in the stream, so every rung can serve it.
fn stream(ctx: &Ctx, ops: u64) -> Vec<Op> {
    let mut r = rng(ctx.derive_seed(0x1ADD));
    let mut written: Vec<u64> = Vec::new();
    let mut seen = vec![false; SPAN as usize];
    (0..ops)
        .map(|_| {
            if written.is_empty() || r.gen_range(0..100u32) < 70 {
                let lpn = r.gen_range(0..SPAN);
                if !std::mem::replace(&mut seen[lpn as usize], true) {
                    written.push(lpn);
                }
                Op { write: true, lpn }
            } else {
                Op { write: false, lpn: written[r.gen_range(0..written.len())] }
            }
        })
        .collect()
}

/// Host and simulated cost of the stream on one rung.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rung {
    /// Rung name.
    pub name: &'static str,
    /// Write ops driven.
    pub writes: u64,
    /// Read ops driven.
    pub reads: u64,
    /// Host ns over the writes.
    pub write_host_ns: u64,
    /// Host ns over the reads.
    pub read_host_ns: u64,
    /// Simulated ns over all ops.
    pub sim_ns: Nanos,
    /// Heap allocations over all ops.
    pub allocs: u64,
}

impl Rung {
    fn ops(&self) -> f64 {
        (self.writes + self.reads) as f64
    }
    /// Host ns per op.
    pub fn host_ns_per_op(&self) -> f64 {
        (self.write_host_ns + self.read_host_ns) as f64 / self.ops().max(1.0)
    }
    /// Host ns per write.
    pub fn host_ns_per_write(&self) -> f64 {
        self.write_host_ns as f64 / (self.writes as f64).max(1.0)
    }
    /// Host ns per read.
    pub fn host_ns_per_read(&self) -> f64 {
        self.read_host_ns as f64 / (self.reads as f64).max(1.0)
    }
    /// Simulated ns per op.
    pub fn sim_ns_per_op(&self) -> f64 {
        self.sim_ns as f64 / self.ops().max(1.0)
    }
    /// Heap allocations per op.
    pub fn allocs_per_op(&self) -> f64 {
        self.allocs as f64 / self.ops().max(1.0)
    }
}

/// Drive `ops` through `op(o, now) -> done`, one client, back to back.
fn drive(name: &'static str, ops: &[Op], mut op: impl FnMut(&Op, Nanos) -> Nanos) -> Rung {
    let mut r = Rung { name, ..Rung::default() };
    let mut now: Nanos = 0;
    let a0 = alloc_count();
    for o in ops {
        let t0 = Instant::now();
        let done = std::hint::black_box(op(std::hint::black_box(o), now));
        let ns = t0.elapsed().as_nanos() as u64;
        if o.write {
            r.writes += 1;
            r.write_host_ns += ns;
        } else {
            r.reads += 1;
            r.read_host_ns += ns;
        }
        r.sim_ns += done.saturating_sub(now);
        now = now.max(done);
    }
    r.allocs = alloc_count() - a0;
    r
}

fn new_ssd() -> Ssd {
    let mut ssd = Ssd::new(bench_1g(Device::DuraSsd));
    ssd.prewarm();
    ssd
}

/// `NandArray::program` / `read`, one physical page per op, pages striped
/// over the planes the way the FTL's frontiers are.
fn rung_nand(ops: &[Op]) -> Rung {
    let geo = bench_1g(Device::DuraSsd).geometry;
    let mut nand = NandArray::new(geo);
    nand.prewarm();
    let planes = geo.planes() as u64;
    let page = vec![0x5Au8; geo.page_size];
    let mut buf = vec![0u8; geo.page_size];
    let mut map = vec![u64::MAX; SPAN as usize];
    let mut programmed = 0u64;
    drive("nand", ops, |o, now| {
        if o.write {
            // Program number n goes to plane n % planes, filling that
            // plane's blocks in order.
            let (plane, nth) = (programmed % planes, programmed / planes);
            let block = (nth / geo.pages_per_block as u64) * planes + plane;
            assert!(block < geo.blocks() as u64, "ladder stream must not wrap the array");
            let ppn = geo.make_ppn(block as u32, (nth % geo.pages_per_block as u64) as u32);
            programmed += 1;
            map[o.lpn as usize] = ppn;
            nand.program(ppn, &page, now).expect("in-order program")
        } else {
            nand.read(map[o.lpn as usize], &mut buf, now).expect("programmed page")
        }
    })
}

/// `Ftl::program_slots` (two 4 KiB slots per physical page, as the SSD's
/// drain pairs them) / `Ftl::read_slot`.
fn rung_ftl(ops: &[Op]) -> Rung {
    let cfg = bench_1g(Device::DuraSsd);
    let mut nand = NandArray::new(cfg.geometry);
    nand.prewarm();
    let mut ftl = Ftl::new(&cfg);
    let data = vec![0x5Au8; LOGICAL_PAGE];
    let mut buf = vec![0u8; LOGICAL_PAGE];
    let mut pending: Option<u64> = None;
    drive("ftl", ops, |o, now| {
        let mut t = now;
        // A slot still waiting for its pair is programmed alone when the
        // next op needs it on media.
        if pending == Some(o.lpn) {
            let lpn = pending.take().expect("checked");
            t = ftl.program_slots(&mut nand, &[(lpn, &data)], t).expect("program");
        }
        if o.write {
            match pending.take() {
                None => pending = Some(o.lpn),
                Some(first) => {
                    t = ftl
                        .program_slots(&mut nand, &[(first, &data), (o.lpn, &data)], t)
                        .expect("program");
                    if ftl.unpersisted_entries() > cfg.mapping_journal_threshold {
                        ftl.persist_mapping(&mut nand, t);
                    }
                }
            }
            t
        } else {
            match ftl.read_slot(&mut nand, o.lpn, &mut buf, t).expect("mapped slot") {
                durassd::ftl::SlotRead::Ok(done) => done,
                _ => t,
            }
        }
    })
}

fn rung_device<D: BlockDevice>(name: &'static str, dev: &mut D, ops: &[Op]) -> Rung {
    let data = vec![0x5Au8; LOGICAL_PAGE];
    let mut buf = vec![0u8; LOGICAL_PAGE];
    drive(name, ops, |o, now| {
        if o.write {
            dev.write(o.lpn, &data, now).expect("in-range write")
        } else {
            dev.read(o.lpn, 1, &mut buf, now).expect("in-range read")
        }
    })
}

fn rung_volume<D: BlockDevice>(name: &'static str, vol: &mut Volume<D>, ops: &[Op]) -> Rung {
    let data = vec![0x5Au8; LOGICAL_PAGE];
    let mut buf = vec![0u8; LOGICAL_PAGE];
    drive(name, ops, |o, now| {
        if o.write {
            vol.write(o.lpn, &data, now).expect("in-range write")
        } else {
            vol.read(o.lpn, 1, &mut buf, now).expect("in-range read")
        }
    })
}

/// `Volume` with the instrumentation `fio_hot_obs` carries: one telemetry
/// registry on the volume and the SSD, anatomy and a 64k-event trace ring.
fn rung_volume_observed(ops: &[Op]) -> Rung {
    let tel = Telemetry::new();
    tel.enable_anatomy(8);
    tel.enable_tracing(64 * 1024);
    let mut ssd = new_ssd();
    ssd.attach_telemetry(tel.clone());
    let mut vol = Volume::new(ssd, false);
    vol.attach_telemetry(tel, "ladder");
    rung_volume("volume+telemetry", &mut vol, ops)
}

/// `Wal::append` + `Wal::commit` per write (a 256-byte record, strict
/// commit), `Wal::checkpoint` when the log asks for one; reads skip the log.
fn rung_wal(ops: &[Op]) -> Rung {
    let mut vol = Volume::new(new_ssd(), false);
    let mut vm = VolumeManager::new(vol.capacity_pages());
    let (mut wal, t0) = Wal::create(&mut vol, &mut vm, 3, 1024, 0);
    let writes: Vec<Op> = ops.iter().filter(|o| o.write).copied().collect();
    let mut rung = drive("wal", &writes, |o, now| {
        let now = now.max(t0);
        let rec =
            LogRecord::Put { tree: 0, key: o.lpn.to_be_bytes().to_vec(), value: vec![0x5A; 256] };
        wal.append(&rec);
        let mut t = wal.commit(&mut vol, wal.next_lsn(), now);
        if wal.needs_checkpoint() {
            t = wal.checkpoint(&mut vol, wal.next_lsn(), t);
        }
        t
    });
    rung.sim_ns = rung.sim_ns.saturating_sub(t0);
    rung
}

struct VolumeBackend(Volume<MemDevice>);

impl PageBackend for VolumeBackend {
    fn read_page(&mut self, page_no: u64, buf: &mut [u8], now: Nanos) -> Nanos {
        self.0.read(page_no, 1, buf, now).expect("in-range page")
    }
    fn write_page(&mut self, page_no: u64, data: &[u8], now: Nanos) -> Nanos {
        self.0.write(page_no, data, now).expect("in-range page")
    }
}

/// `BufferPool::get` (+ `data_mut` for writes) with a pool a quarter of the
/// span over a null device: hits, faults and dirty evictions.
fn rung_bufferpool(ops: &[Op]) -> Rung {
    let mut backend = VolumeBackend(Volume::new(MemDevice::new(SPAN), false));
    let mut pool = BufferPool::new(SPAN as usize / 4, LOGICAL_PAGE);
    drive("bufferpool", ops, |o, now| {
        let (idx, t) = pool.get(o.lpn, &mut backend, now);
        if o.write {
            pool.data_mut(idx)[..8].copy_from_slice(&o.lpn.to_le_bytes());
        }
        pool.unpin(idx);
        t
    })
}

fn key(lpn: u64) -> [u8; 8] {
    lpn.to_be_bytes()
}

/// `BTree::put` / `get` (128-byte values) on `btree::MemStore`; returns the
/// rung, total splits and the final height.
fn rung_btree(ops: &[Op]) -> (Rung, u64, u8) {
    let mut store = MemStore::new(LOGICAL_PAGE);
    let (mut tree, _) = BTree::create(&mut store, 0);
    let value = [0x5Au8; 128];
    let rung = drive("btree", ops, |o, now| {
        if o.write {
            tree.put(&mut store, &key(o.lpn), &value, now).1
        } else {
            tree.get(&mut store, &key(o.lpn), now).1
        }
    });
    let s = tree.stats();
    (rung, s.leaf_splits + s.internal_splits + s.root_splits, tree.height())
}

fn ladder_engine_config() -> EngineConfig {
    EngineConfig::builder(4096)
        .buffer_pool_bytes(512 * 1024)
        .barriers(false)
        .double_write(false)
        .data_pages(16_384)
        .log_file_blocks(1024)
        .build()
}

/// `Engine::put` + `commit` per write, `Engine::get` per read (128-byte
/// values, strict commits, barriers and double-write off).
fn rung_engine<D: BlockDevice, L: BlockDevice>(
    name: &'static str,
    data: D,
    log: L,
    ops: &[Op],
) -> Rung {
    let (mut engine, t0) = Engine::create(data, log, ladder_engine_config(), 0).into_parts();
    let (tree, t0) = engine.create_tree(t0).into_parts();
    let value = [0x5Au8; 128];
    let mut rung = drive(name, ops, |o, now| {
        let now = now.max(t0);
        if o.write {
            let t = engine.put(tree, &key(o.lpn), &value, now);
            let t = engine.commit(t);
            if engine.needs_checkpoint() {
                engine.checkpoint(t)
            } else {
                t
            }
        } else {
            engine.get(tree, &key(o.lpn), now).done
        }
    });
    rung.sim_ns = rung.sim_ns.saturating_sub(t0);
    rung
}

/// `DocStore::set` / `get` with 1000-byte documents, `batch_size: 1`.
fn rung_docstore<D: BlockDevice>(name: &'static str, dev: D, ops: &[Op]) -> Rung {
    let cfg = DocStoreConfig { barriers: false, file_blocks: 60_000, ..DocStoreConfig::new() };
    let mut store = DocStore::create(dev, cfg);
    let doc = [0x5Au8; 1000];
    drive(name, ops, |o, now| {
        if o.write {
            store.set(&key(o.lpn), &doc, now)
        } else {
            store.get(&key(o.lpn), now).done
        }
    })
}

/// Everything the ladder measured.
pub struct Ladder {
    /// Every rung, bottom to top.
    pub rungs: Vec<Rung>,
    /// Ladder-derived per-layer metrics.
    pub layers: Vec<(&'static str, f64)>,
}

/// Run the whole ladder.
pub fn run(ctx: &Ctx) -> Ladder {
    let ops = stream(ctx, ctx.scaled(LADDER_OPS));
    let quarter = &ops[..ops.len().div_ceil(4)];
    let nand = rung_nand(&ops);
    let ftl = rung_ftl(&ops);
    let ssd = rung_device("ssd", &mut new_ssd(), &ops);
    let volume = rung_volume("volume", &mut Volume::new(new_ssd(), false), &ops);
    let observed = rung_volume_observed(&ops);
    let wal = rung_wal(&ops);
    let pool = rung_bufferpool(&ops);
    let (btree, splits, height) = rung_btree(&ops);
    let engine = rung_engine("engine", new_ssd(), new_ssd(), quarter);
    let engine_null =
        rung_engine("engine@memdevice", MemDevice::new(32_768), MemDevice::new(8_192), quarter);
    let doc = rung_docstore("docstore", new_ssd(), quarter);
    let doc_null = rung_docstore("docstore@memdevice", MemDevice::new(65_536), quarter);

    let layers = vec![
        ("nand.host_ns_per_program", nand.host_ns_per_write()),
        ("nand.host_ns_per_read", nand.host_ns_per_read()),
        // One program carries two of the FTL rung's 4 KiB writes.
        ("core.ftl.host_ns_per_program", 2.0 * ftl.host_ns_per_write() - nand.host_ns_per_write()),
        ("storage.host_ns_per_call", volume.host_ns_per_op() - ssd.host_ns_per_op()),
        ("wal.host_ns_per_commit", wal.host_ns_per_write() - volume.host_ns_per_write()),
        ("bufferpool.host_ns_per_access", pool.host_ns_per_op()),
        ("btree.host_ns_per_put", btree.host_ns_per_write()),
        ("btree.host_ns_per_get", btree.host_ns_per_read()),
        ("btree.splits_per_kop", splits as f64 / (btree.ops() / 1e3)),
        ("btree.height", height as f64),
        ("relstore.null_device_host_ns_per_op", engine_null.host_ns_per_op()),
        ("docstore.null_device_host_ns_per_op", doc_null.host_ns_per_op()),
        (
            "telemetry.tax_pct",
            100.0 * (observed.host_ns_per_op() - volume.host_ns_per_op()) / volume.host_ns_per_op(),
        ),
        ("telemetry.allocs_per_op_delta", observed.allocs_per_op() - volume.allocs_per_op()),
    ];
    let rungs = vec![
        nand,
        ftl,
        ssd,
        volume,
        observed,
        wal,
        pool,
        btree,
        engine,
        engine_null,
        doc,
        doc_null,
    ];
    Ladder { rungs, layers }
}

impl Ladder {
    /// The printed table: host and simulated ns/op per rung with the delta
    /// to the rung below.
    pub fn table(&self) -> String {
        let mut s = String::from(
            "ladder  rung                 ops  host_ns/op  (write / read)      delta  sim_ns/op      delta\n",
        );
        let mut prev: Option<&Rung> = None;
        for r in &self.rungs {
            let (dh, ds) = prev.map_or((0.0, 0.0), |p| {
                (r.host_ns_per_op() - p.host_ns_per_op(), r.sim_ns_per_op() - p.sim_ns_per_op())
            });
            s.push_str(&format!(
                "ladder  {:<18} {:>6} {:>11.1}  ({:>8.1} / {:>8.1}) {:>+10.1} {:>10.1} {:>+10.1}\n",
                r.name,
                r.writes + r.reads,
                r.host_ns_per_op(),
                r.host_ns_per_write(),
                r.host_ns_per_read(),
                dh,
                r.sim_ns_per_op(),
                ds
            ));
            prev = Some(r);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(seed: u64) -> Ctx {
        Ctx { seed, seconds: 1, scale_pct: 100, tracer: None }
    }

    #[test]
    fn stream_is_seeded_and_reads_only_written_pages() {
        let a = stream(&ctx(1), 2_000);
        let b = stream(&ctx(1), 2_000);
        let c = stream(&ctx(2), 2_000);
        let lpns = |s: &[Op]| s.iter().map(|o| (o.write, o.lpn)).collect::<Vec<_>>();
        assert_eq!(lpns(&a), lpns(&b));
        assert_ne!(lpns(&a), lpns(&c));
        let mut written = std::collections::HashSet::new();
        for o in &a {
            if o.write {
                written.insert(o.lpn);
            } else {
                assert!(written.contains(&o.lpn));
            }
        }
        let writes = a.iter().filter(|o| o.write).count();
        assert!((1_300..1_500).contains(&writes), "about 70 % writes, got {writes}");
    }

    #[test]
    fn upper_rungs_run_on_a_null_device() {
        let ops = stream(&ctx(3), 400);
        let vol = rung_volume("volume", &mut Volume::new(MemDevice::new(SPAN), false), &ops);
        assert_eq!(vol.writes + vol.reads, 400);
        assert!(vol.sim_ns > 0 && vol.host_ns_per_op() > 0.0);
        let pool = rung_bufferpool(&ops);
        assert_eq!(pool.writes + pool.reads, 400);
        let (bt, _, height) = rung_btree(&ops);
        assert!(height >= 1 && bt.reads > 0);
        let eng = rung_engine("e", MemDevice::new(32_768), MemDevice::new(8_192), &ops);
        assert!(eng.sim_ns > 0);
        let doc = rung_docstore("d", MemDevice::new(65_536), &ops);
        assert!(doc.host_ns_per_write() > 0.0);
    }
}
