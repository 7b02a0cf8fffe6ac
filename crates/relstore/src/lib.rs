//! `relstore` — an InnoDB-like relational storage engine on simulated
//! devices.
//!
//! The engine is the workhorse of the paper's MySQL/LinkBench (Fig. 5/6,
//! Table 3) and commercial-DBMS/TPC-C (Table 4) experiments. It combines:
//!
//! * the [`bufferpool`] (LRU, reads blocked by dirty evictions — Fig. 1),
//! * the redo [`wal`] with group commit (flushed per transaction commit),
//! * [`btree`] tables keyed by byte strings,
//! * an InnoDB-style **double-write buffer** (§2.1) with trailer-CRC torn
//!   page detection and repair,
//! * checkpoints, a ping-pong catalog, and full crash recovery.
//!
//! The four Fig. 5 configurations map to [`EngineConfig`]:
//! `barriers` (write-barrier ON/OFF) × `double_write` (ON/OFF), and
//! `page_size` sweeps 16/8/4KB. [`EngineConfig::commercial_like`] is the
//! Table 4 engine: no double-write, small pool; its O_DSYNC barrier per
//! write call is what every profile does (one fsync seals each batch).

pub mod config;
pub mod engine;

pub use config::{EngineConfig, EngineConfigBuilder};
pub use durassd::Error;
pub use engine::{Engine, EngineStats, TreeId};
pub use simkit::{Recovered, ReplayStats};
pub use wal::{CheckpointPolicy, LogRecord};

/// Turn a recovery tear into a hard error, for callers that demand a clean
/// log. [`Engine::recover`] itself succeeds across a tear (truncate-at-tear
/// semantics: the valid prefix is replayed, appends resume at the tear);
/// this helper is the opt-in escalation.
pub fn tear_error(stats: &ReplayStats) -> Option<Error> {
    stats.tear_lsn.map(|lsn| Error::TornLog { lsn })
}

#[cfg(test)]
mod tests {
    use super::*;
    use durassd::{Ssd, SsdConfig};
    use forensics::Forensic;
    use storage::testdev::MemDevice;

    fn small_cfg(page_size: usize) -> EngineConfig {
        EngineConfig {
            page_size,
            buffer_pool_bytes: 64 * page_size as u64,
            data_pages: 2048,
            log_files: 2,
            log_file_blocks: 512,
            dwb_pages: 16,
            ..EngineConfig::mysql_like(page_size)
        }
    }

    fn mem_engine(page_size: usize) -> Engine<MemDevice, MemDevice> {
        let data = MemDevice::new(16 * 1024);
        let log = MemDevice::new(4 * 1024);
        Engine::create(data, log, small_cfg(page_size), 0).value
    }

    #[test]
    fn anatomy_frames_commits_end_to_end() {
        let tel = telemetry::Telemetry::new();
        tel.enable_anatomy(4);
        let mut data = Ssd::new(SsdConfig::durassd(64));
        data.attach_telemetry(tel.clone());
        let log = MemDevice::new(4 * 1024);
        let mut e = Engine::create(data, log, small_cfg(4096), 0).value;
        e.attach_telemetry(tel.clone());
        let (t0, mut now) = e.create_tree(0).into_parts();
        for i in 0..40u64 {
            now = e.put(t0, format!("k{:04}", i).as_bytes(), b"v", now);
            now = e.commit(now);
            let bd = tel.last_breakdown().expect("commit closes a frame");
            assert_eq!(bd.name, "engine.commit");
            assert!(bd.is_conserved(), "segments within wall: {}", bd.to_json());
        }
        assert_eq!(tel.anatomy_violations(), 0);
        assert_eq!(tel.frame_depth(), 0, "no dangling frames after a batch");
        // The capturer kept the slowest commits with their breakdowns.
        let worst = tel.outliers_for("engine.commit");
        assert!(!worst.is_empty());
        assert!(worst[0].wall >= worst[worst.len() - 1].wall);
    }

    #[test]
    fn put_get_round_trip() {
        let mut e = mem_engine(4096);
        let (t0, mut now) = e.create_tree(0).into_parts();
        now = e.put(t0, b"alpha", b"1", now);
        now = e.put(t0, b"beta", b"2", now);
        now = e.commit(now);
        let (v, _) = e.get(t0, b"alpha", now).into_parts();
        assert_eq!(v.unwrap(), b"1");
        let (v, _) = e.get(t0, b"missing", now).into_parts();
        assert!(v.is_none());
    }

    #[test]
    fn many_keys_with_eviction_pressure() {
        let mut e = mem_engine(4096);
        let (t0, mut now) = e.create_tree(0).into_parts();
        for i in 0..3000u64 {
            let k = format!("key{:08}", i);
            let v = format!("value-{}", "y".repeat((i % 90) as usize));
            now = e.put(t0, k.as_bytes(), v.as_bytes(), now);
            if i % 50 == 0 {
                now = e.commit(now);
            }
        }
        now = e.commit(now);
        // The 64-frame pool cannot hold the tree: evictions must have
        // happened and reads still work.
        assert!(e.pool_stats().dirty_evictions > 0);
        for i in (0..3000u64).step_by(113) {
            let k = format!("key{:08}", i);
            let (v, t) = e.get(t0, k.as_bytes(), now).into_parts();
            now = t;
            assert!(v.is_some(), "missing {k}");
        }
        assert_eq!(e.stats().corrupt_reads, 0);
    }

    #[test]
    fn delete_and_scan() {
        let mut e = mem_engine(8192);
        let (t0, mut now) = e.create_tree(0).into_parts();
        for i in 0..100u64 {
            now = e.put(t0, format!("k{:04}", i).as_bytes(), b"v", now);
        }
        let (existed, t) = e.delete(t0, b"k0050", now).into_parts();
        now = t;
        assert!(existed);
        let (rows, _) = e.scan(t0, b"k0048", 5, now).into_parts();
        let keys: Vec<_> =
            rows.iter().map(|(k, _)| String::from_utf8_lossy(k).into_owned()).collect();
        assert_eq!(keys, ["k0048", "k0049", "k0051", "k0052", "k0053"]);
    }

    #[test]
    fn scan_limit_is_a_bound_not_a_reservation() {
        // `usize::MAX >> 1` entries cannot be reserved ("capacity overflow");
        // a limit far above the tree's size just returns the tree.
        let mut e = mem_engine(4096);
        let (t0, mut now) = e.create_tree(0).into_parts();
        for i in 0..10u64 {
            now = e.put(t0, format!("k{i}").as_bytes(), b"v", now);
        }
        let (rows, _) = e.scan(t0, b"", usize::MAX >> 1, now).into_parts();
        assert_eq!(rows.len(), 10);
        assert!(rows.capacity() <= 4096);
    }

    #[test]
    fn multiple_trees_are_independent() {
        let mut e = mem_engine(4096);
        let (ta, now) = e.create_tree(0).into_parts();
        let (tb, mut now) = e.create_tree(now).into_parts();
        now = e.put(ta, b"k", b"in-a", now);
        now = e.put(tb, b"k", b"in-b", now);
        let (va, t) = e.get(ta, b"k", now).into_parts();
        let (vb, _) = e.get(tb, b"k", t).into_parts();
        assert_eq!(va.unwrap(), b"in-a");
        assert_eq!(vb.unwrap(), b"in-b");
    }

    #[test]
    fn recovery_replays_committed_ops() {
        let data = MemDevice::new(16 * 1024);
        let log = MemDevice::new(4 * 1024);
        let cfg = small_cfg(4096);
        let (mut e, now) = Engine::create(data, log, cfg, 0).into_parts();
        let (t0, t) = e.create_tree(now).into_parts();
        let mut now = e.checkpoint(t); // catalog knows the tree
        for i in 0..500u64 {
            now = e.put(t0, format!("k{:05}", i).as_bytes(), format!("v{i}").as_bytes(), now);
        }
        now = e.commit(now);
        let (d, l) = e.crash(now);
        let rec = Engine::recover(d, l, cfg, now + 1).expect("recovery");
        assert!(rec.stats.replayed > 0);
        let (mut e2, mut t2) = rec.into_parts();
        for i in (0..500u64).step_by(37) {
            let (v, t3) = e2.get(t0, format!("k{:05}", i).as_bytes(), t2).into_parts();
            t2 = t3;
            assert_eq!(v.unwrap(), format!("v{i}").into_bytes(), "key {i}");
        }
    }

    #[test]
    fn uncommitted_tail_is_lost_cleanly() {
        let data = MemDevice::new(16 * 1024);
        let log = MemDevice::new(4 * 1024);
        let cfg = small_cfg(4096);
        let (mut e, now) = Engine::create(data, log, cfg, 0).into_parts();
        let (t0, t) = e.create_tree(now).into_parts();
        let mut now = e.checkpoint(t);
        now = e.put(t0, b"committed", b"1", now);
        now = e.commit(now);
        now = e.put(t0, b"uncommitted", b"2", now);
        // No commit: crash.
        let (d, l) = e.crash(now);
        let (mut e2, t2) = Engine::recover(d, l, cfg, now + 1).expect("recovery").into_parts();
        let (v, t3) = e2.get(t0, b"committed", t2).into_parts();
        assert_eq!(v.unwrap(), b"1");
        let (v, _) = e2.get(t0, b"uncommitted", t3).into_parts();
        assert!(v.is_none(), "unlogged write must not reappear");
    }

    /// The header names the checkpoint just taken, so `LiveBytesPct(75)`
    /// means 75 % of the log: six capacities take 6 / 0.75 = 8 checkpoints.
    #[test]
    fn live_bytes_threshold_uses_the_whole_log() {
        let mut cfg = small_cfg(4096);
        cfg.log_files = 1;
        cfg.log_file_blocks = 64;
        assert_eq!(cfg.checkpoint_policy, CheckpointPolicy::LiveBytesPct(75));
        let capacity = cfg.log_capacity_bytes();
        let (mut e, now) =
            Engine::create(MemDevice::new(16 * 1024), MemDevice::new(1024), cfg, 0).into_parts();
        let (t0, t) = e.create_tree(now).into_parts();
        let mut now = e.checkpoint(t);
        let (mut logged, mut checkpoints) = (0, 0);
        for i in 0u64.. {
            if logged + e.wal_outstanding_bytes() >= 6 * capacity {
                break;
            }
            now = e.put(t0, format!("k{:05}", i % 3000).as_bytes(), &[b'v'; 100], now);
            now = e.commit(now);
            if e.needs_checkpoint() {
                let outstanding = e.wal_outstanding_bytes();
                assert!(
                    outstanding * 100 > capacity * 70,
                    "checkpoint {checkpoints} asked for at {outstanding} of {capacity} bytes"
                );
                logged += outstanding;
                checkpoints += 1;
                now = e.checkpoint(now);
                assert_eq!(e.wal_outstanding_bytes(), 0);
            }
        }
        assert!((7..=9).contains(&checkpoints), "{checkpoints} checkpoints");
    }

    #[test]
    fn recovery_after_structural_changes() {
        let data = MemDevice::new(64 * 1024);
        let log = MemDevice::new(16 * 1024);
        let mut cfg = small_cfg(4096);
        cfg.data_pages = 8192;
        cfg.log_file_blocks = 2048;
        let (mut e, now) = Engine::create(data, log, cfg, 0).into_parts();
        let (t0, t) = e.create_tree(now).into_parts();
        let mut now = e.checkpoint(t);
        // Enough data to force many splits and a root split after ckpt.
        for i in 0..4000u64 {
            let k = format!("key{:08}", (i * 7919) % 4000);
            now = e.put(t0, k.as_bytes(), &[b'z'; 120], now);
        }
        now = e.commit(now);
        let (d, l) = e.crash(now);
        let (mut e2, mut t2) = Engine::recover(d, l, cfg, now + 1).expect("recovery").into_parts();
        for i in (0..4000u64).step_by(211) {
            let k = format!("key{:08}", i);
            let (v, t3) = e2.get(t0, k.as_bytes(), t2).into_parts();
            t2 = t3;
            assert_eq!(v.unwrap(), vec![b'z'; 120], "key {k}");
        }
        assert_eq!(e2.stats().corrupt_reads, 0);
    }

    #[test]
    fn double_write_costs_extra_page_writes() {
        let mk = |dw: bool| {
            let mut cfg = small_cfg(4096);
            cfg.double_write = dw;
            cfg.buffer_pool_bytes = 16 * 4096; // tiny pool: force evictions
            let (mut e, now) =
                Engine::create(MemDevice::new(16 * 1024), MemDevice::new(4 * 1024), cfg, 0)
                    .into_parts();
            let (t0, mut now) = e.create_tree(now).into_parts();
            for i in 0..800u64 {
                now = e.put(t0, format!("k{:06}", i).as_bytes(), &[1u8; 64], now);
            }
            e.checkpoint(now);
            e
        };
        let with_dw = mk(true);
        let without = mk(false);
        assert!(with_dw.stats().dwb_writes > 0);
        assert_eq!(without.stats().dwb_writes, 0);
        // Roughly double the media page traffic with DWB.
        assert!(
            with_dw.data_volume().device_stats().pages_written
                > without.data_volume().device_stats().pages_written * 3 / 2
        );
    }

    #[test]
    fn checkpoint_flushes_the_data_device_twice_per_batch_of_sixteen() {
        let mut cfg = small_cfg(4096);
        cfg.buffer_pool_bytes = 256 * 4096; // the whole tree stays resident
        let (mut e, now) =
            Engine::create(MemDevice::new(16 * 1024), MemDevice::new(4 * 1024), cfg, 0)
                .into_parts();
        let (t0, t) = e.create_tree(now).into_parts();
        let mut now = e.checkpoint(t);
        for i in 0..2400u64 {
            now = e.put(t0, format!("key{i:08}").as_bytes(), &[7u8; 100], now);
        }
        now = e.commit(now);
        assert_eq!(e.stats().page_writes, 1, "only the first checkpoint has written a page");
        let (stats, flushes) = (e.stats(), e.data_volume().device_stats().flushes);
        e.checkpoint(now);
        let pages = e.stats().page_writes - stats.page_writes;
        assert!(pages >= 64, "{pages} dirty pages");
        // Per batch: the double-write run's fsync, then the one that seals
        // the home writes. Per checkpoint: its own fsync and the catalog's.
        assert_eq!(
            e.data_volume().device_stats().flushes - flushes,
            2 * pages.div_ceil(16) + 2,
            "{pages} pages"
        );
        assert_eq!(e.stats().dwb_writes - stats.dwb_writes, pages);
        assert_eq!(e.stats().dwb_writes, e.stats().page_writes);
    }

    #[test]
    fn every_write_batch_is_sealed_by_an_fsync() {
        let mut cfg = small_cfg(4096);
        cfg.double_write = false;
        cfg.buffer_pool_bytes = 8 * 4096;
        let (mut e, now) =
            Engine::create(MemDevice::new(16 * 1024), MemDevice::new(4 * 1024), cfg, 0)
                .into_parts();
        let (t0, mut now) = e.create_tree(now).into_parts();
        for i in 0..300u64 {
            now = e.put(t0, format!("k{:06}", i).as_bytes(), &[1u8; 64], now);
        }
        let s = e.stats();
        let fsyncs = e.data_volume().fsync_count();
        // One barrier request per write call (eviction batch).
        assert!(fsyncs > 0);
        assert!(
            fsyncs * 16 >= s.page_writes,
            "the engine must fsync at least once per 16-page batch: {fsyncs} vs {}",
            s.page_writes
        );
    }

    #[test]
    fn commit_flushes_log_volume() {
        let mut e = mem_engine(4096);
        let (t0, now) = e.create_tree(0).into_parts();
        let now = e.put(t0, b"x", b"y", now);
        let before = e.log_volume().device_stats().flushes;
        e.commit(now);
        assert!(e.log_volume().device_stats().flushes > before);
    }

    #[test]
    fn works_on_simulated_durassd() {
        // End-to-end sanity on the real device model (tiny geometry).
        let mut cfg = small_cfg(4096);
        cfg.data_pages = 128;
        cfg.log_files = 1;
        cfg.log_file_blocks = 64;
        cfg.dwb_pages = 4;
        cfg.buffer_pool_bytes = 16 * 4096;
        cfg.double_write = false;
        cfg.barriers = false; // the DuraSSD deployment mode
        let data = Ssd::new(SsdConfig::tiny_test());
        let log = Ssd::new(SsdConfig::tiny_test());
        let (mut e, now) = Engine::create(data, log, cfg, 0).into_parts();
        let (t0, t) = e.create_tree(now).into_parts();
        let mut now = e.checkpoint(t);
        for i in 0..60u64 {
            now = e.put(t0, format!("k{i:03}").as_bytes(), b"v", now);
            now = e.commit(now);
        }
        let (d, l) = e.crash(now);
        let rec = Engine::recover(d, l, cfg, now + 1).expect("recovery on DuraSSD");
        // The two devices power up side by side: recovery waits for the
        // slower reboot, not for one after the other.
        let booted = [rec.value.data_volume().device(), rec.value.log_volume().device()]
            .map(|dev| dev.recovery_snap().expect("rebooted").ready_at - (now + 1));
        assert_eq!(rec.stats.reboot_ns, booted[0].max(booted[1]));
        assert!(rec.stats.reboot_ns < booted[0] + booted[1]);
        let (mut e2, mut t2) = rec.into_parts();
        for i in 0..60u64 {
            let (v, t3) = e2.get(t0, format!("k{i:03}").as_bytes(), t2).into_parts();
            t2 = t3;
            assert!(v.is_some(), "committed key k{i:03} lost on DuraSSD");
        }
    }

    /// Regression, surfaced by `tests/crash_recovery.rs::
    /// volatile_ssd_lean_config_loses_data` once volatile recovery could
    /// return an *older* catalog instead of failing outright: a pre-crash
    /// `TreeId` indexed straight into the (now shorter) tree vec and
    /// panicked with a raw out-of-bounds. Reads against a lost tree must
    /// answer "absent"; only writes assert, with a named message.
    #[test]
    fn stale_tree_id_reads_as_absent() {
        let mut e = mem_engine(4096);
        assert_eq!(e.tree_count(), 0);
        // No tree was ever created (the post-rollback catalog state).
        let (v, t) = e.get(0, b"k", 0).into_parts();
        assert!(v.is_none());
        let (existed, t) = e.delete(0, b"k", t).into_parts();
        assert!(!existed);
        let (rows, _) = e.scan(0, b"", 10, t).into_parts();
        assert!(rows.is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown tree")]
    fn put_into_stale_tree_id_panics_with_named_message() {
        let mut e = mem_engine(4096);
        e.put(0, b"k", b"v", 0);
    }

    #[test]
    fn wal_rule_flushes_log_before_dirty_eviction() {
        // A dirty page created by an *uncommitted* operation must force its
        // redo record to the log before reaching the data volume.
        let mut cfg = small_cfg(4096);
        cfg.buffer_pool_bytes = 8 * 4096; // tiny pool
        let (mut e, now) =
            Engine::create(MemDevice::new(16 * 1024), MemDevice::new(4 * 1024), cfg, 0)
                .into_parts();
        let (t0, mut now) = e.create_tree(now).into_parts();
        // One uncommitted put, then enough reads of other pages to evict it.
        now = e.put(t0, b"dirty", b"x", now);
        let log_writes_before = e.log_volume().device_stats().writes;
        for i in 0..200u64 {
            let (_, t) = e.get(t0, format!("probe{i}").as_bytes(), now).into_parts();
            now = t;
            now = e.put(t0, format!("fill{i:04}").as_bytes(), &[0u8; 500], now);
        }
        // The eviction happened without any commit() call, yet the log
        // received writes (the WAL rule flushed it).
        assert!(
            e.log_volume().device_stats().writes > log_writes_before,
            "dirty eviction must push the log first"
        );
        assert!(e.pool_stats().dirty_evictions > 0);
    }
}
