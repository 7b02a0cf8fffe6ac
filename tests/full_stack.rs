//! End-to-end integration: each of the paper's workloads runs on the full
//! simulated stack (engine → host I/O → SSD firmware → NAND) and yields
//! sane, internally consistent results.

use docstore::{DocStore, DocStoreConfig};
use durassd::{Ssd, SsdConfig};
use relstore::{Engine, EngineConfig};
use telemetry::{SegKind, Telemetry};
use workloads::{linkbench, tpcc, ycsb};

fn dura() -> Ssd {
    Ssd::new(SsdConfig::durassd(16))
}

#[test]
fn linkbench_on_durassd_end_to_end() {
    let nodes = 3_000u64;
    let ops = 2_000u64;
    let est = nodes * 900;
    let cfg = EngineConfig {
        buffer_pool_bytes: est / 10,
        double_write: true,
        barriers: true,
        data_pages: (est * 4 / 8192).max(8192),
        log_files: 2,
        log_file_blocks: 4096,
        dwb_pages: 256,
        ..EngineConfig::mysql_like(8192)
    };
    let (mut e, t0) = Engine::create(dura(), dura(), cfg, 0).into_parts();
    let mut spec = linkbench::LinkBenchSpec::scaled(nodes, ops);
    spec.clients = 16;
    spec.warmup_ops = 200;
    let (mut g, t1) = linkbench::load(&mut e, &spec, t0);
    let rep = linkbench::run(&mut e, &mut g, &spec, t1);
    assert_eq!(rep.ops, ops);
    assert!(rep.tps > 100.0, "implausibly low TPS: {}", rep.tps);
    // All ten op types sampled, latencies ordered sensibly.
    for (op, s) in &rep.per_type {
        if s.count == 0 {
            continue;
        }
        assert!(
            s.p25 <= s.p50 && s.p50 <= s.p75 && s.p75 <= s.p99 && s.p99 <= s.max,
            "percentiles out of order for {}",
            op.label()
        );
    }
    // The engine remained consistent: no corrupt pages, graph readable.
    assert_eq!(e.stats().corrupt_reads, 0);
    let (rows, _) = e.scan(g.nodes, b"n", 10, rep.elapsed * 2).into_parts();
    assert!(!rows.is_empty());
}

#[test]
fn tpcc_money_conservation() {
    // Payment moves money from customers into warehouse+district YTD.
    // After a run, total YTD must equal total customer balance reduction.
    let spec = tpcc::TpccSpec {
        warehouses: 2,
        districts: 2,
        customers: 30,
        items: 100,
        clients: 8,
        warmup_txns: 0,
        txns: 400,
        seed: 77,
        cores: 8,
        cpu_per_txn: 50_000,
    };
    let est: u64 = 4 * 1024 * 1024;
    let cfg = EngineConfig {
        buffer_pool_bytes: est,
        double_write: false,
        barriers: false,
        data_pages: 32 * 1024,
        log_files: 2,
        log_file_blocks: 4096,
        dwb_pages: 64,
        ..EngineConfig::mysql_like(4096)
    };
    let (mut e, t0) = Engine::create(dura(), dura(), cfg, 0).into_parts();
    let (mut db, t1) = tpcc::load(&mut e, &spec, t0);
    let rep = tpcc::run(&mut e, &mut db, &spec, t1);
    let total = rep.counts.new_orders
        + rep.counts.payments
        + rep.counts.order_status
        + rep.counts.deliveries
        + rep.counts.stock_levels;
    assert_eq!(total, spec.txns);
    assert!(rep.tpmc > 0.0);
    // Standard mix sanity.
    assert!(rep.counts.new_orders as f64 / total as f64 > 0.35);
    assert!(rep.counts.payments as f64 / total as f64 > 0.33);
    assert_eq!(e.stats().corrupt_reads, 0);
}

#[test]
fn ycsb_results_survive_crash_when_synced() {
    let cfg =
        DocStoreConfig { batch_size: 1, barriers: false, file_blocks: 50_000, auto_compact_pct: 0 };
    let mut s = DocStore::create(dura(), cfg);
    let spec = ycsb::YcsbSpec::workload_a(500, 600);
    let t = ycsb::load(&mut s, &spec, 0);
    let rep = ycsb::run(&mut s, &spec, t);
    assert_eq!(rep.ops, 600);
    let sets = s.stats().sets;
    // Crash on DuraSSD with barriers off: every batch-1-synced update holds.
    let dev = s.crash(rep.finished_at + 1);
    let (mut s2, t2) = DocStore::recover(dev, cfg, rep.finished_at + 2).into_parts();
    assert!(s2.seq() >= sets, "every update was its own commit point ({} vs {sets})", s2.seq());
    let (v, _) = s2.get(b"user000000000001", t2).into_parts();
    assert!(v.is_some());
    assert_eq!(s2.stats().corrupt_reads, 0);
}

#[test]
fn engine_checkpoint_cycles_under_load() {
    // Long-running load with a small log: checkpoints must cycle the log
    // without data loss or overflow panics.
    let cfg = EngineConfig {
        buffer_pool_bytes: 128 * 4096,
        double_write: true,
        barriers: true,
        data_pages: 16 * 1024,
        log_files: 2,
        log_file_blocks: 96, // <1MB total: forces frequent checkpoints
        dwb_pages: 64,
        ..EngineConfig::mysql_like(4096)
    };
    let (mut e, t0) = Engine::create(dura(), dura(), cfg, 0).into_parts();
    let (tree, t1) = e.create_tree(t0).into_parts();
    let mut now = e.checkpoint(t1);
    for i in 0..4_000u64 {
        now = e.put(tree, format!("k{:05}", i % 1500).as_bytes(), &[b'v'; 100], now);
        if i % 20 == 0 {
            now = e.commit(now);
        }
        if e.needs_checkpoint() {
            now = e.checkpoint(now);
        }
    }
    assert!(e.stats().checkpoints >= 2, "log pressure must force checkpoints");
    for i in (0..1500u64).step_by(97) {
        let (v, t) = e.get(tree, format!("k{:05}", i).as_bytes(), now).into_parts();
        now = t;
        assert!(v.is_some(), "k{i:05} missing after checkpoint cycling");
    }
}

#[test]
fn ssd_gc_under_database_load_preserves_data() {
    // A deliberately small SSD (the tiny 4-plane geometry, 4MB logical) so
    // database churn forces device GC.
    let ssd_cfg = SsdConfig::tiny_test();
    let data = Ssd::new(ssd_cfg);
    let log = Ssd::new(ssd_cfg);
    let cfg = EngineConfig {
        buffer_pool_bytes: 32 * 4096,
        double_write: false,
        barriers: false,
        data_pages: 800,
        log_files: 2,
        log_file_blocks: 100,
        dwb_pages: 16,
        ..EngineConfig::mysql_like(4096)
    };
    let (mut e, t0) = Engine::create(data, log, cfg, 0).into_parts();
    let (tree, t1) = e.create_tree(t0).into_parts();
    let mut now = e.checkpoint(t1);
    for round in 0..40u64 {
        for i in 0..400u64 {
            now = e.put(tree, format!("k{i:04}").as_bytes(), &vec![round as u8; 300], now);
            if i % 50 == 0 && e.needs_checkpoint() {
                now = e.checkpoint(now);
            }
        }
        now = e.commit(now);
        if e.needs_checkpoint() {
            now = e.checkpoint(now);
        }
    }
    assert!(e.data_volume().device().ftl_stats().gc_erases > 0, "churn should trigger device GC");
    for i in (0..400u64).step_by(41) {
        let (v, t) = e.get(tree, format!("k{i:04}").as_bytes(), now).into_parts();
        now = t;
        assert_eq!(v.unwrap(), vec![39u8; 300], "k{i:04} after GC");
    }
    assert_eq!(e.stats().corrupt_reads, 0);
}

/// Run one commit-heavy workload with `tel` attached end to end (devices
/// *before* the engine, so firmware spans and segment charges record).
fn commit_heavy(mut data: Ssd, mut log: Ssd, barriers: bool, tel: &Telemetry) {
    let cfg = EngineConfig::builder(4096)
        .buffer_pool_bytes(32 * 4096)
        .double_write(false)
        .barriers(barriers)
        .data_pages(4096)
        .log_files(2)
        .log_file_blocks(512)
        .dwb_pages(32)
        .build();
    data.attach_telemetry(tel.clone());
    log.attach_telemetry(tel.clone());
    let (mut e, t0) = Engine::create(data, log, cfg, 0).into_parts();
    e.attach_telemetry(tel.clone());
    let (tree, t1) = e.create_tree(t0).into_parts();
    let mut now = e.checkpoint(t1);
    for i in 0..600u64 {
        now = e.put(tree, format!("k{:04}", i % 200).as_bytes(), &[b'x'; 256], now);
        now = e.commit(now); // every transaction acknowledged durable
        if e.needs_checkpoint() {
            now = e.checkpoint(now);
        }
    }
    e.checkpoint(now);
}

/// The paper's §3 deployment claim, stated as a latency-anatomy identity:
/// a capacitor-backed cache lets the host run `nobarrier`, so not one
/// nanosecond of any op is ever spent waiting on a device cache flush —
/// while the volatile device, which *must* keep barriers on for the same
/// durability guarantee, pays flush-cache time on every commit.
#[test]
fn durable_cache_eliminates_flush_cache_time() {
    let seg_ns =
        |tel: &Telemetry, kind: SegKind| tel.histogram(kind.hist_name()).map_or(0, |h| h.sum());
    // Durable cache, lean config: fsync never issues a device FLUSH.
    let durable = Telemetry::new();
    durable.enable_anatomy(1);
    commit_heavy(dura(), dura(), false, &durable);
    assert_eq!(
        seg_ns(&durable, SegKind::FlushCache),
        0,
        "nobarrier on a durable cache must never wait on a device flush"
    );
    // Volatile cache: durability requires barriers, and barriers cost.
    let volatile = Telemetry::new();
    volatile.enable_anatomy(1);
    commit_heavy(Ssd::new(SsdConfig::ssd_a(16)), Ssd::new(SsdConfig::ssd_a(16)), true, &volatile);
    assert!(
        seg_ns(&volatile, SegKind::FlushCache) > 0,
        "a volatile cache with barriers must attribute commit time to flush_cache"
    );
    // Both runs still did real I/O: the difference is attribution, not idleness.
    assert!(seg_ns(&durable, SegKind::WalFsync) > 0, "durable commits still pay the soft fsync");
    assert!(seg_ns(&durable, SegKind::Xfer) > 0 && seg_ns(&volatile, SegKind::Xfer) > 0);
    for tel in [&durable, &volatile] {
        assert_eq!(tel.anatomy_violations(), 0);
        assert_eq!(tel.frame_depth(), 0);
    }
}

/// Group commit fires queued log flushes retroactively, inside whichever
/// client's op happens to run next; that background device time must not
/// be charged to the op (it began before the op did). Multi-client
/// LinkBench with barriers and double-write on fires such flushes
/// constantly.
#[test]
fn group_commit_linkbench_never_over_attributes() {
    let nodes = 3_000u64;
    let est = nodes * 900;
    let cfg = EngineConfig::builder(8192)
        .buffer_pool_bytes(est / 10)
        .double_write(true)
        .barriers(true)
        .data_pages((est * 4 / 8192).max(8192))
        .log_files(2)
        .log_file_blocks(4096)
        .build();
    let tel = Telemetry::new();
    tel.enable_anatomy(1);
    let (mut data, mut log) = (dura(), dura());
    data.attach_telemetry(tel.clone());
    log.attach_telemetry(tel.clone());
    let (mut e, t0) = Engine::create(data, log, cfg, 0).into_parts();
    e.set_group_commit(true);
    let mut spec = linkbench::LinkBenchSpec::scaled(nodes, 2_000);
    spec.clients = 16;
    spec.warmup_ops = 200;
    let (mut g, t1) = linkbench::load(&mut e, &spec, t0);
    e.attach_telemetry(tel.clone());
    linkbench::run(&mut e, &mut g, &spec, t1);
    assert!(e.wal_stats().group_joins > 0, "the workload must exercise group commit");
    assert_eq!(tel.anatomy_violations(), 0);
    assert_eq!(tel.frame_depth(), 0);
}

/// Trace-level twin of the anatomy runs: the same commit-heavy workload
/// with event tracing enabled end to end, exported as Chrome trace JSON.
fn trace_for(data: Ssd, log: Ssd, barriers: bool) -> String {
    let tel = Telemetry::new();
    tel.enable_tracing(1 << 17);
    commit_heavy(data, log, barriers, &tel);
    tel.trace_chrome_json().expect("tracing enabled")
}

/// Count `Begin` events named `name`, and the set of `tid`s carrying them.
fn spans_named(doc: &telemetry::JsonValue, name: &str) -> (usize, Vec<i64>) {
    let events = doc
        .as_object()
        .and_then(|o| o.get("traceEvents"))
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    let mut count = 0;
    let mut tids = Vec::new();
    for ev in events {
        let obj = ev.as_object().expect("event object");
        if obj.get("name").and_then(|v| v.as_str()) == Some(name)
            && obj.get("ph").and_then(|v| v.as_str()) == Some("B")
        {
            count += 1;
            let tid = obj.get("tid").and_then(|v| v.as_f64()).unwrap_or(-1.0) as i64;
            if !tids.contains(&tid) {
                tids.push(tid);
            }
        }
    }
    (count, tids)
}

/// The flush-elimination claim at span granularity: the exported trace of a
/// volatile-cache run with barriers contains `flush_cache` spans (and they
/// sit on the same track as the `engine.commit` that caused them — the
/// trace-ID propagated from the engine down to the device firmware), while
/// the durable-cache nobarrier run's trace contains none.
#[test]
fn trace_shows_flush_cache_spans_only_under_barriers() {
    let volatile_json =
        trace_for(Ssd::new(SsdConfig::ssd_a(16)), Ssd::new(SsdConfig::ssd_a(16)), true);
    telemetry::validate_chrome_json(&volatile_json).expect("volatile trace well-formed");
    let doc = telemetry::parse_json(&volatile_json).unwrap();
    let (flushes, flush_tids) = spans_named(&doc, "flush_cache");
    assert!(flushes >= 1, "barriered volatile run must record flush_cache spans");
    let (commits, commit_tids) = spans_named(&doc, "engine.commit");
    assert!(commits >= 1);
    assert!(
        flush_tids.iter().any(|t| commit_tids.contains(t)),
        "some flush_cache span must share its track (trace-ID) with an engine.commit"
    );

    let durable_json = trace_for(dura(), dura(), false);
    telemetry::validate_chrome_json(&durable_json).expect("durable trace well-formed");
    let doc = telemetry::parse_json(&durable_json).unwrap();
    let (flushes, _) = spans_named(&doc, "flush_cache");
    assert_eq!(flushes, 0, "nobarrier on a durable cache must never emit a flush_cache span");
    // The durable run still traced real work.
    let (commits, _) = spans_named(&doc, "engine.commit");
    assert!(commits >= 1, "durable trace still contains commit spans");
}
