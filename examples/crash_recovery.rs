//! Crash recovery across device classes: the paper's core claim in one run.
//!
//! The same relational engine, in the lean `nobarrier`/no-double-write
//! configuration, runs the same committed workload on a DuraSSD pair and on
//! a volatile-cache SSD pair, then loses power. DuraSSD recovers every
//! committed transaction; the volatile device does not.
//!
//! Run: `cargo run --release --example crash_recovery`

use durassd::{Ssd, SsdConfig};
use relstore::{Engine, EngineConfig};
use storage::device::BlockDevice;

const KEYS: u64 = 400;

fn cfg() -> EngineConfig {
    EngineConfig::builder(4096)
        .buffer_pool_bytes(64 * 4096)
        .double_write(false) // lean: the device is trusted for atomicity
        .barriers(false) // lean: fsync never flushes the device cache
        .data_pages(8192)
        .log_files(2)
        .log_file_blocks(1024)
        .dwb_pages(64)
        .build()
}

fn trial<D: BlockDevice>(name: &str, data: D, log: D) {
    let (mut e, t0) = Engine::create(data, log, cfg(), 0).into_parts();
    let (tree, t1) = e.create_tree(t0).into_parts();
    let mut now = e.checkpoint(t1);
    for i in 0..KEYS {
        now = e.put(tree, format!("k{i:05}").as_bytes(), format!("v{i}").as_bytes(), now);
        now = e.commit(now); // acknowledged durable
    }
    println!("{name}: {KEYS} transactions committed; pulling the plug…");
    let (d, l) = e.crash(now + 1);
    match Engine::recover(d, l, cfg(), now + 2) {
        Err(err) => println!("{name}: database is UNRECOVERABLE ({err})\n"),
        Ok(rec) => {
            let replay = rec.stats;
            let (mut e2, mut t2) = rec.into_parts();
            let mut lost = 0;
            for i in 0..KEYS {
                let (v, t3) = e2.get(tree, format!("k{i:05}").as_bytes(), t2).into_parts();
                t2 = t3;
                if v.as_deref() != Some(format!("v{i}").as_bytes()) {
                    lost += 1;
                }
            }
            println!(
                "{name}: recovered ({} log records replayed from checkpoint LSN {}); \
                 {lost}/{KEYS} committed transactions lost, \
                 {} corrupt pages detected\n",
                replay.replayed,
                replay.checkpoint_lsn,
                e2.stats().corrupt_reads
            );
        }
    }
}

fn main() {
    println!("Same engine, same workload, same crash — different caches.\n");
    trial(
        "DuraSSD (capacitor-backed cache)",
        Ssd::new(SsdConfig::durassd(8)),
        Ssd::new(SsdConfig::durassd(8)),
    );
    trial(
        "Conventional SSD (volatile cache)",
        Ssd::new(SsdConfig::ssd_a(8)),
        Ssd::new(SsdConfig::ssd_a(8)),
    );
    println!(
        "Running without barriers and without the double-write buffer is the\n\
         configuration that makes databases fast (paper Fig. 5) — and only a\n\
         durable device cache makes it safe."
    );
}
