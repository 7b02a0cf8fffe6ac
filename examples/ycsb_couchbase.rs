//! YCSB workload-A on the Couchbase-style document store, sweeping the
//! fsync batch size with barriers on and off (the paper's Table 5).
//!
//! Run: `cargo run --release --example ycsb_couchbase`

use docstore::{DocStore, DocStoreConfig};
use durassd::{Ssd, SsdConfig};
use workloads::ycsb::{load, run, YcsbSpec};

fn sweep(barriers: bool) {
    println!(
        "write barriers {}:",
        if barriers {
            "ON  (fsync flushes the device cache)"
        } else {
            "OFF (durable cache trusted)"
        }
    );
    for batch in [1u32, 10, 100] {
        let cfg = DocStoreConfig {
            batch_size: batch,
            barriers,
            file_blocks: 100_000,
            auto_compact_pct: 0,
        };
        let mut store = DocStore::create(Ssd::new(SsdConfig::durassd(16)), cfg);
        let spec = YcsbSpec::workload_a(5_000, 4_000);
        let t = load(&mut store, &spec, 0);
        let rep = run(&mut store, &spec, t);
        println!(
            "  fsync every {batch:>3} updates: {:>6.0} ops/s   ({} headers, {:.1} MB appended)",
            rep.throughput(),
            store.stats().headers,
            store.stats().bytes_appended as f64 / 1e6
        );
    }
}

fn main() {
    println!("Couchbase-style append-only store, YCSB-A (50% read / 50% update).\n");
    sweep(true);
    println!();
    sweep(false);
    println!("\nWith a durable cache the store can commit every update (batch=1)");
    println!("at nearly the throughput of batching 100 — Table 5's conclusion.");
}
