//! Allocation-regression tests for the zero-copy page pipeline.
//!
//! These tests pin the heap behaviour of the hot paths with the counting
//! global allocator: once the device, its pools and the telemetry registry
//! are warm, cache-hit reads, steady-state drained writes and metric
//! recording must not allocate at all. The simulation is single-threaded
//! and fully deterministic, so an exact-zero assertion is stable — any new
//! per-op allocation on these paths fails the suite instead of silently
//! regressing `BENCH_perf.json`.
//!
//! Two subtleties make the assertions meaningful:
//!
//! 1. The allocation counter is process-wide, so all scenarios run inside
//!    one `#[test]` (the default harness runs tests concurrently, which
//!    would cross-pollute the counts).
//!
//! 2. "Steady state" means the NAND frontier has *wrapped*: erases feed
//!    freed cells back into the slot pool and GC recycles blocks. On a
//!    cold multi-gigabyte device the frontier never wraps in a few tens of
//!    thousands of ops, so every program legitimately grows capacity (a
//!    fresh page per write is growth, not churn). We therefore measure on
//!    `SsdConfig::tiny_test()` (8 MB raw) whose frontier wraps within the
//!    warm-up, exercising cache drain, FTL program, GC and mapping persist
//!    with every pool at its high-water mark.

use docstore::{DocStore, DocStoreConfig};
use durassd::{Ssd, SsdConfig};
use relstore::{Engine, EngineConfig};
use simkit::alloc::{alloc_count, CountingAlloc};
use simkit::dist::{rng, Rng};
use simkit::{Nanos, Timeline};
use storage::testdev::MemDevice;
use storage::volume::Volume;
use telemetry::Telemetry;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Count allocations across `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let a0 = alloc_count();
    f();
    alloc_count() - a0
}

/// A tiny-geometry volume driven past its first frontier wrap: after
/// `warmup_ops` random writes (fsync every 32) every pool — slot pool,
/// preimage vecs, ack heap, GC staging — has reached its steady-state
/// capacity.
///
/// Pools grow exactly when a new all-time peak of in-flight work appears,
/// so the warm-up ends with a long fsync-free burst: 4096 back-to-back
/// writes stack up far more concurrent cache slots, drain refs and atomic
/// pre-images than the measured workload (fsync every 32) can ever reach,
/// pinning every high-water mark above the measurement window.
///
/// With `observed`, the registry is attached to the device and the volume.
/// Mounted `nobarrier` every fsync is the soft frame (the `fio_hot_obs`
/// deployment); with `barriers` it is a FLUSH CACHE.
fn warm_volume(
    cfg: SsdConfig,
    seed: u64,
    warmup_ops: u64,
    observed: Option<&Telemetry>,
    barriers: bool,
) -> (Volume<Ssd>, u64, u64) {
    let mut dev = Ssd::new(cfg);
    // Media-side peaks (live NAND pages, in-flight erases) are geometric,
    // not workload-driven; prewarm pins them up front (8 MB raw here).
    dev.prewarm();
    if let Some(tel) = observed {
        dev.attach_telemetry(tel.clone());
    }
    let mut vol = Volume::new(dev, barriers);
    if let Some(tel) = observed {
        vol.attach_telemetry(tel.clone(), "t");
    }
    let span = vol.capacity_pages() * 3 / 4;
    let data = vec![3u8; 4096];
    let mut r = rng(seed);
    let mut t = 0;
    for i in 0..warmup_ops {
        let lpn = r.gen_range(0..span);
        t = vol.write(lpn, &data, t).unwrap();
        if i % 32 == 31 {
            t = vol.fsync(t).unwrap();
        }
    }
    // High-water-mark burst: no barriers, maximal in-flight window.
    for _ in 0..4096u64 {
        let lpn = r.gen_range(0..span);
        t = vol.write(lpn, &data, t).unwrap();
    }
    t = vol.fsync(t).unwrap();
    // Settle back into the barriered rhythm the measurements use.
    for i in 0..512u64 {
        let lpn = r.gen_range(0..span);
        t = vol.write(lpn, &data, t).unwrap();
        if i % 32 == 31 {
            t = vol.fsync(t).unwrap();
        }
    }
    (vol, span, t)
}

/// Steady-state cached writes + fsync: cache drain, FTL program, GC and
/// mapping persist. Below the host interface page bytes move by reference:
/// a host write is copied into one slot-pool checkout, and the drains, GC
/// relocations and map persists that follow share or skip cells instead of
/// checking out new ones — so the pool's checkouts grow by exactly the host
/// pages admitted.
fn steady_state_drained_writes() {
    let (mut vol, span, mut t) = warm_volume(SsdConfig::tiny_test(), 0x5EED, 10_000, None, true);
    let pool = vol.device().slot_pool().clone();
    let stats = |vol: &Volume<Ssd>| (vol.device_stats().pages_written, vol.device().ftl_stats());
    let (pages0, ftl0) = stats(&vol);
    let (checkouts0, fresh0) = (pool.checkouts(), pool.fresh_allocs());
    let mut r = rng(0xD81A);
    let data = vec![3u8; 4096];
    let allocs = allocs_during(|| {
        for i in 0..2_000u64 {
            let lpn = r.gen_range(0..span);
            t = vol.write(lpn, &data, t).unwrap();
            if i % 32 == 31 {
                t = vol.fsync(t).unwrap();
            }
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state cached writes + fsync (cache drain, FTL program, GC, \
         mapping persist) must be allocation-free"
    );
    let (pages, ftl) = stats(&vol);
    assert!(ftl.gc_relocated_slots > ftl0.gc_relocated_slots, "GC relocated slots");
    assert!(ftl.meta_programs > ftl0.meta_programs, "the mapping was persisted");
    assert_eq!(pool.checkouts() - checkouts0, pages - pages0, "one checkout per host page");
    assert_eq!(pool.fresh_allocs(), fresh0, "every checkout came off the free list");
    vol.device().check_invariants().expect("every outstanding cell has a holder");
}

fn cache_hit_reads() {
    let (mut vol, _span, mut t) = warm_volume(SsdConfig::tiny_test(), 0xCAFE, 10_000, None, true);
    let data = vec![7u8; 4096];
    let mut buf = vec![0u8; 4096];
    // A working set smaller than the 16-slot DRAM cache: these writes stay
    // resident, so subsequent reads are pure cache hits.
    for lpn in 0..8u64 {
        t = vol.write(lpn, &data, t).unwrap();
    }
    // Warm the read path (queue/scratch capacities).
    for lpn in 0..8u64 {
        t = vol.read(lpn, 1, &mut buf, t).unwrap();
    }
    let allocs = allocs_during(|| {
        for _ in 0..400 {
            for lpn in 0..8u64 {
                t = vol.read(lpn, 1, &mut buf, t).unwrap();
            }
        }
    });
    assert_eq!(allocs, 0, "steady-state cache-hit reads must be allocation-free");
    assert_eq!(buf, data, "reads still serve the cached bytes");
}

fn telemetry_recording() {
    let tel = Telemetry::new();
    let (latency, gauge) = (tel.key("op.latency"), tel.key("op.gauge"));
    // The first sample creates the histogram.
    tel.record(latency, 10);
    tel.set_gauge(gauge, 5);
    let allocs = allocs_during(|| {
        for i in 0..1_000u64 {
            tel.record(latency, i);
            tel.set_gauge(gauge, i as i64);
        }
    });
    assert_eq!(allocs, 0, "metric recording must not allocate for known keys");
}

fn disabled_tracing() {
    let tel = Telemetry::new();
    let [dev, op, tick, nand, program] =
        ["dev", "op", "tick", "nand", "nand.program"].map(|n| tel.key(n));
    // Tracing and anatomy never enabled: every scope must open and close
    // without touching the heap (no ring work, no frame).
    let allocs = allocs_during(|| {
        for i in 0..1_000u64 {
            let scope = tel.op(dev, op, i);
            tel.trace_instant(dev, tick, i);
            tel.complete(nand, program, i, i + 1);
            scope.end(i + 1);
        }
    });
    assert_eq!(allocs, 0, "disabled tracing must be free");
    assert_eq!(tel.trace_counts(), None);
}

/// Everything on: each write is a `dev` span, an anatomy frame the device
/// charges its segments into and a latency sample; each fsync is the soft
/// frame. An open frame owns nothing, the closed breakdown is written over
/// the previous one, the trace ring (wrapped in the warm-up) overwrites in
/// place, and the outlier capturer clones only a breakdown it retains —
/// the warm-up's high-water burst holds every top-K place.
fn instrumented_writes() {
    let tel = Telemetry::new();
    tel.enable_anatomy(4);
    tel.enable_tracing(1 << 12);
    let (mut vol, span, mut t) =
        warm_volume(SsdConfig::tiny_test(), 0x0B5E, 10_000, Some(&tel), false);
    let mut r = rng(0xF10);
    let data = vec![3u8; 4096];
    let (recorded, dropped) = tel.trace_counts().unwrap();
    assert!(dropped > 0, "the ring wrapped in the warm-up");
    let allocs = allocs_during(|| {
        for i in 0..1_000u64 {
            let lpn = r.gen_range(0..span);
            t = vol.write(lpn, &data, t).unwrap();
            if i % 32 == 31 {
                t = vol.fsync(t).unwrap();
            }
        }
    });
    assert_eq!(allocs, 0, "instrumented writes + soft fsyncs must be allocation-free");
    assert!(tel.trace_counts().unwrap().0 >= recorded + 2 * 1_000, "every write was traced");
    assert_eq!(tel.last_breakdown().unwrap().name, "dev.t.write");
    assert_eq!(tel.anatomy_violations(), 0);
}

/// Barrier flushes on a volatile device with anatomy and tracing on: the
/// path `fio_flush_rw`'s traced pass and `observe` take. Each fsync is a
/// FLUSH CACHE inside a `dev` span and frame, and under it the device opens
/// the `flush_cache` span, samples `ssd.cache_drain`, refreshes its gauges
/// and opens the `ftl.map_persist` span of the mapping persist the barrier
/// forces. Warm, none of it allocates: every key was resolved when the
/// registry was attached and every histogram exists. The outlier capturer
/// keeps one op per name, so the warm-up's high-water burst and the
/// second-long flush that ends it hold both places: a barriered flush's
/// wall varies with GC, and a measured one that ranked among several kept
/// flushes would be cloned into the capturer.
fn instrumented_barrier_flushes() {
    let tel = Telemetry::new();
    tel.enable_anatomy(1);
    tel.enable_tracing(1 << 12);
    let (mut vol, span, mut t) =
        warm_volume(SsdConfig::tiny_volatile(), 0xF1A5, 10_000, Some(&tel), true);
    let mut r = rng(0xBA2);
    let data = vec![3u8; 4096];
    let flushes = |tel: &Telemetry| {
        let count = |name| tel.histogram(name).map_or(0, |h| h.count());
        (count("dev.t.flush"), count("ssd.cache_drain"))
    };
    let (dev0, drains0) = flushes(&tel);
    let persists0 = vol.device().ftl_stats().meta_programs;
    let allocs = allocs_during(|| {
        for i in 0..2_000u64 {
            let lpn = r.gen_range(0..span);
            t = vol.write(lpn, &data, t).unwrap();
            if i % 32 == 31 {
                t = vol.fsync(t).unwrap();
            }
        }
    });
    assert_eq!(
        allocs, 0,
        "instrumented barrier flushes on a volatile cache must be allocation-free"
    );
    let (dev, drains) = flushes(&tel);
    assert_eq!((dev - dev0, drains - drains0), (62, 62), "every fsync was a FLUSH CACHE");
    assert!(vol.device().ftl_stats().meta_programs > persists0, "the barriers persisted the map");
    assert!(tel.gauge("ftl.gc_debt").is_some() && tel.gauge("ssd.cache_dirty").is_some());
    assert!(tel.trace_chrome_json().unwrap().contains("\"name\":\"ftl.map_persist\""));
    assert_eq!(tel.anatomy_violations(), 0);
}

/// Steady-state `DocStore::set`: overwrites of existing keys on a warmed
/// store rewrite the root-to-leaf path into recycled node buffers, frame
/// the document and the header in the append buffer, and overwrite the
/// cached body in place.
///
/// Warm here means the store has compacted a few times (node spares, append
/// buffer and the device's pools at their high-water marks, the NAND
/// frontier wrapped by the rewritten file region) and the measured sets fit
/// the append file without another compaction.
fn docstore_steady_state_set() {
    // The tiny geometry with 256 blocks per plane: 128 MiB raw, 32 MiB
    // exported, so a 24 MiB append file cycles the frontier in five fills.
    let mut dev = Ssd::new(
        SsdConfig::tiny_test()
            .to_builder()
            .blocks_per_plane(256)
            .logical_capacity_pages(8192)
            .build(),
    );
    dev.prewarm();
    let cfg =
        DocStoreConfig { batch_size: 1, barriers: false, file_blocks: 6_144, auto_compact_pct: 0 };
    let mut store = DocStore::create(dev, cfg);
    let keys: Vec<Vec<u8>> = (0..400u64).map(|i| format!("user{i:012}").into_bytes()).collect();
    let mut doc = vec![b'v'; 200];
    let mut r = rng(0xD0C);
    let mut t = 0;
    for key in &keys {
        t = store.set(key, &doc, t);
    }
    assert!(store.depth() >= 1, "the measured path has an internal level");
    let mut overwrite = |store: &mut DocStore<Ssd>, t: Nanos, n: u64| {
        let mut t = t;
        for i in 0..n {
            doc[..8].copy_from_slice(&i.to_le_bytes());
            t = store.set(&keys[r.gen_range(0..keys.len())], &doc, t);
        }
        t
    };
    for _ in 0..8 {
        t = overwrite(&mut store, t, 1_200);
        t = store.compact(t);
    }
    t = overwrite(&mut store, t, 200);
    let allocs = allocs_during(|| {
        t = overwrite(&mut store, t, 1_000);
    });
    assert_eq!(allocs, 0, "steady-state DocStore::set must be allocation-free");
    assert_eq!(store.stats().compactions, 8, "no compaction inside the measurement");
    assert_eq!(store.get(&keys[0], t).value.map(|v| v.len()), Some(200));
}

/// A warmed `Engine::put` + `commit` on `MemDevice`, so nothing below the
/// engine allocates, in a one-leaf tree of sixteen keys:
///
/// * an overwrite of a 100-byte value by another 100 bytes changes the bytes
///   where they lie, logs through a borrowed encoder and lists its one
///   pinned frame in the engine's own vector: nothing;
/// * overwrites by other lengths take the free gap until it runs out, and
///   the one that finds it too small compacts the leaf through the tree's
///   staging buffer: still nothing;
/// * an insert that splits a leaf pays for what a structural operation
///   hands upwards and logs, pinned exactly: the separator key is the only
///   allocation `btree` makes; the rest is the engine's page-image sidecar
///   (the list of frames, the list of images and one owned image for each
///   of the three pages written: both halves and their parent).
fn engine_warmed_put_commit() {
    let cfg = EngineConfig::builder(4096)
        .buffer_pool_bytes(16 * 4096)
        .data_pages(64)
        .log_files(2)
        .log_file_blocks(64)
        .build();
    let mut e = Engine::create(MemDevice::new(1024), MemDevice::new(256), cfg, 0).value;
    let (tree, mut t) = e.create_tree(0).into_parts();
    let keys: Vec<Vec<u8>> = (0..16u64).map(|i| format!("key{i:05}").into_bytes()).collect();
    let val = vec![b'v'; 100];
    // Two rounds: insert, then overwrite (the log's buffers reach their size).
    for key in keys.iter().chain(&keys) {
        t = e.put(tree, key, &val, t);
        t = e.commit(t);
    }
    let allocs = allocs_during(|| {
        t = e.put(tree, &keys[7], &val, t);
        t = e.commit(t);
    });
    assert_eq!(allocs, 0, "warmed same-length overwrite + commit");

    // Every overwrite here changes the value's length (`base` or one more,
    // by round of sixteen), so each leaves its old cell behind as dead
    // heap: 16 live cells of at least 72 bytes in a 4,080-byte page leave a
    // gap under 2,900 bytes, and any 40 such overwrites in a row (40 x 72)
    // run it out and compact the leaf at least once. The first 40 warm the
    // staging buffer; the next 40 are measured.
    let fill_gap = |e: &mut Engine<MemDevice, MemDevice>, base: usize, mut t: Nanos| {
        for i in 0..40 {
            t = e.put(tree, &keys[i % 16], &val[..base + (i / 16) % 2], t);
            t = e.commit(t);
        }
        t
    };
    t = fill_gap(&mut e, 60, t);
    let allocs = allocs_during(|| t = fill_gap(&mut e, 70, t));
    assert_eq!(allocs, 0, "different-length overwrites through an in-page compaction");
    assert_eq!(e.stats().page_writes, 0, "still one resident leaf");

    // Grow the tree until an insert has split a leaf twice: the first split
    // (with the root split it causes) brings the log's buffers to the size
    // of a three-image sidecar, the second is measured warm.
    let big = vec![b'w'; 200];
    let mut splits = Vec::new();
    for i in 0.. {
        let key = format!("new{i:05}").into_bytes();
        let appends = e.wal_stats().appends;
        let n = allocs_during(|| {
            t = e.put(tree, &key, &big, t);
            t = e.commit(t);
        });
        // A structural put logs a page-image sidecar before its record.
        if e.wal_stats().appends - appends == 2 {
            splits.push(n);
            if splits.len() == 2 {
                break;
            }
        } else {
            assert_eq!(n, 0, "insert {i} into the gap");
        }
    }
    assert_eq!(splits[1], 1 + 5, "separator key + sidecar (frame list, image list, 3 images)");
    assert_eq!(e.pool_stats().misses, 0, "the whole tree stayed resident");
}

/// A `Timeline` past its peak length. Arrivals fall up to `window` behind
/// the newest one, so most requests backfill a gap (runs split, empty and
/// hand their slots back), and every call purges behind a rising watermark.
/// The warm-up's window is twice the measured one, so the measured stretch
/// never holds more intervals than the warm-up did.
fn timeline_steady_state() {
    let mut r = rng(0x71E);
    let mut t = Timeline::new();
    let mut clock: Nanos = 0;
    let mut step = |t: &mut Timeline, window: Nanos| {
        clock += r.gen_range(0..20_000u64);
        let now = clock.saturating_sub(r.gen_range(0..=window));
        t.acquire(now, r.gen_range(1_000..=10_000u64));
        t.purge_before(clock.saturating_sub(2 * window));
    };
    for _ in 0..200_000 {
        step(&mut t, 8_000_000);
    }
    assert!(t.intervals_after(0) > 500, "the warm-up holds several runs of intervals");
    let allocs = allocs_during(|| {
        for _ in 0..100_000 {
            step(&mut t, 4_000_000);
        }
    });
    assert_eq!(allocs, 0, "a timeline past its peak length must be allocation-free");
}

#[test]
fn hot_paths_are_allocation_free() {
    timeline_steady_state();
    telemetry_recording();
    disabled_tracing();
    instrumented_writes();
    instrumented_barrier_flushes();
    steady_state_drained_writes();
    cache_hit_reads();
    docstore_steady_state_set();
    engine_warmed_put_commit();
}
