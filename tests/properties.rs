//! Randomised property tests over the core invariants, per module and across
//! the stack (seeded, deterministic — no external proptest dependency):
//!
//! * the B+-tree agrees with a `BTreeMap` model under arbitrary op streams;
//! * the engine agrees with a model **across crash/recovery cycles**
//!   (committed data survives; uncommitted data never resurrects partially);
//! * the document store agrees with a model across crashes;
//! * DuraSSD never loses an acknowledged write under arbitrary power cuts,
//!   while reads always return either a full old or full new page
//!   (atomicity — no torn 16KB reads).

use simkit::dist::{rng, Rng};
use std::collections::BTreeMap;

use btree::{BTree, MemStore};
use docstore::{DocStore, DocStoreConfig};
use durassd::{Ssd, SsdConfig};
use relstore::{Engine, EngineConfig};
use storage::device::{BlockDevice, LOGICAL_PAGE};

#[derive(Debug, Clone)]
enum TreeOp {
    Put(u16, u8, u8),
    Delete(u16),
    Get(u16),
}

fn key_bytes(k: u16) -> Vec<u8> {
    format!("key{:05}", k % 2_000).into_bytes()
}

fn val_bytes(v: u8, len: u8) -> Vec<u8> {
    let mut out = vec![v; 8 + (len as usize % 120)];
    out[0] = v;
    out
}

#[test]
fn btree_matches_model() {
    let mut r = rng(0xB7);
    for _ in 0..64 {
        let ops: Vec<TreeOp> = (0..r.gen_range(1..400usize))
            .map(|_| match r.gen_range(0..3u32) {
                0 => TreeOp::Put(r.gen::<u16>(), r.gen::<u8>(), r.gen::<u8>()),
                1 => TreeOp::Delete(r.gen::<u16>()),
                _ => TreeOp::Get(r.gen::<u16>()),
            })
            .collect();
        let mut store = MemStore::new(4096);
        let (mut tree, _) = BTree::create(&mut store, 0);
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for op in ops {
            match op {
                TreeOp::Put(k, v, l) => {
                    let (key, val) = (key_bytes(k), val_bytes(v, l));
                    tree.put(&mut store, &key, &val, 0);
                    model.insert(key, val);
                }
                TreeOp::Delete(k) => {
                    let key = key_bytes(k);
                    let (a, _) = tree.delete(&mut store, &key, 0);
                    let b = model.remove(&key).is_some();
                    assert_eq!(a, b);
                }
                TreeOp::Get(k) => {
                    let key = key_bytes(k);
                    let (got, _) = tree.get(&mut store, &key, 0);
                    assert_eq!(got.as_deref(), model.get(&key).map(|v| v.as_slice()));
                }
            }
        }
        let (count, _) = tree.check(&mut store, 0);
        assert_eq!(count as usize, model.len());
        // Ordered iteration agrees with the model.
        let mut scanned = Vec::new();
        tree.scan(&mut store, b"", 0, |k, _| {
            scanned.push(k.to_vec());
            true
        });
        let expected: Vec<Vec<u8>> = model.keys().cloned().collect();
        assert_eq!(scanned, expected);
    }
}

#[test]
fn engine_survives_crashes_like_model() {
    let mut r = rng(0xE6);
    for _ in 0..24 {
        let batches: Vec<Vec<(u16, u8)>> = (0..r.gen_range(1..5usize))
            .map(|_| {
                (0..r.gen_range(1..40usize)).map(|_| (r.gen::<u16>(), r.gen::<u8>())).collect()
            })
            .collect();
        let cfg = EngineConfig {
            buffer_pool_bytes: 48 * 4096,
            double_write: false,
            barriers: false,
            data_pages: 900,
            log_files: 2,
            log_file_blocks: 128,
            dwb_pages: 8,
            ..EngineConfig::mysql_like(4096)
        };
        let mk = || Ssd::new(SsdConfig::tiny_test());
        let (mut e, t0) = Engine::create(mk(), mk(), cfg, 0).into_parts();
        let (tree, t1) = e.create_tree(t0).into_parts();
        let mut now = e.checkpoint(t1);
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for batch in batches {
            for (k, v) in batch {
                let (key, val) = (key_bytes(k), val_bytes(v, v));
                now = e.put(tree, &key, &val, now);
                model.insert(key, val);
            }
            now = e.commit(now);
            // Crash and recover: the committed model state must hold.
            let (d, l) = e.crash(now + 1);
            let (e2, t2) =
                Engine::recover(d, l, cfg, now + 2).expect("durable recovery").into_parts();
            e = e2;
            now = t2;
            for (key, val) in &model {
                let (got, t3) = e.get(tree, key, now).into_parts();
                now = t3;
                assert_eq!(got.as_deref(), Some(val.as_slice()));
            }
        }
    }
}

#[test]
fn docstore_crash_recovery_matches_model() {
    let mut r = rng(0xD0C);
    for _ in 0..24 {
        let batches: Vec<Vec<(u16, u8)>> = (0..r.gen_range(1..4usize))
            .map(|_| {
                (0..r.gen_range(1..30usize)).map(|_| (r.gen::<u16>(), r.gen::<u8>())).collect()
            })
            .collect();
        let cfg = DocStoreConfig {
            batch_size: 1,
            barriers: false,
            file_blocks: 1500,
            auto_compact_pct: 0,
        };
        let mut s = DocStore::create(Ssd::new(SsdConfig::tiny_test()), cfg);
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut now = 0;
        for batch in batches {
            for (k, v) in batch {
                let (key, val) = (key_bytes(k), val_bytes(v, v));
                now = s.set(&key, &val, now);
                model.insert(key, val);
            }
            let dev = s.crash(now + 1);
            let (s2, t2) = DocStore::recover(dev, cfg, now + 2).into_parts();
            s = s2;
            now = t2;
            for (key, val) in &model {
                let (got, t3) = s.get(key, now).into_parts();
                now = t3;
                assert_eq!(got.as_deref(), Some(val.as_slice()), "key {:?}", key);
            }
        }
    }
}

#[test]
fn durassd_acked_writes_survive_any_power_cut() {
    let mut r = rng(0xACED);
    for _ in 0..64 {
        let writes: Vec<(u64, u8)> =
            (0..r.gen_range(1..60usize)).map(|_| (r.gen_range(0u64..64), r.gen::<u8>())).collect();
        let cut_frac: f64 = r.gen();
        let mut ssd = Ssd::new(SsdConfig::tiny_test());
        let mut now = 0;
        let mut acked: Vec<(u64, u8, u64)> = Vec::new(); // (lpn, tag, done)
        for (i, (lpn, tag)) in writes.iter().enumerate() {
            let mut page = vec![*tag; LOGICAL_PAGE];
            page[0] = i as u8;
            let done = ssd.write(*lpn, &page, now).unwrap();
            acked.push((*lpn, i as u8, done));
            now = done;
        }
        // The device clamps cuts to its arrival high-water mark (the last
        // command's issue time); the final command may still be in flight.
        let last_arrival = acked.iter().rev().nth(1).map(|&(_, _, d)| d).unwrap_or(0);
        let cut = ((now as f64 * cut_frac) as u64).max(last_arrival);
        ssd.power_cut(cut);
        let t = ssd.reboot(now + 1);
        // Latest acked write per lpn (ack time <= cut) must be readable.
        let mut latest: BTreeMap<u64, u8> = BTreeMap::new();
        for (lpn, seq, done) in &acked {
            if *done <= cut {
                latest.insert(*lpn, *seq);
            }
        }
        let mut buf = vec![0u8; LOGICAL_PAGE];
        let mut t2 = t;
        for (lpn, seq) in latest {
            // A later write to the same lpn may legally have replaced the
            // content; the page must hold SOME write with sequence >= seq.
            t2 += 1;
            let res = ssd.read(lpn, 1, &mut buf, t2);
            assert!(res.is_ok(), "lpn {}: read failed {:?}", lpn, res.err());
            let got = buf[0];
            let valid = acked.iter().any(|(l, s, _)| *l == lpn && *s == got && *s >= seq);
            assert!(valid, "lpn {lpn}: got seq {got}, acked-before-cut was {seq}");
        }
        assert_eq!(ssd.ssd_stats().lost_acked_slots, 0);
    }
}

#[test]
fn multi_page_writes_never_tear_on_durassd() {
    let mut r = rng(0x7EA2);
    for _ in 0..64 {
        let n_writes = r.gen_range(1usize..30);
        let cut_frac: f64 = r.gen();
        // 16KB (4-slot) overwrites of one location; any post-cut read must
        // see one whole version, never a mix.
        let mut ssd = Ssd::new(SsdConfig::tiny_test());
        let mut now = 0;
        for i in 0..n_writes {
            let mut data = vec![0u8; 4 * LOGICAL_PAGE];
            for s in 0..4 {
                data[s * LOGICAL_PAGE] = i as u8 + 1;
            }
            now = ssd.write(8, &data, now).unwrap();
        }
        let cut = (now as f64 * cut_frac) as u64;
        ssd.power_cut(cut);
        let t = ssd.reboot(now + 1);
        let mut buf = vec![0u8; 4 * LOGICAL_PAGE];
        ssd.read(8, 4, &mut buf, t).unwrap();
        let v0 = buf[0];
        for s in 1..4 {
            assert_eq!(buf[s * LOGICAL_PAGE], v0, "torn multi-page write");
        }
    }
}
