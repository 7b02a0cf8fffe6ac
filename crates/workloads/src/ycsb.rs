//! YCSB workload-A on the document store (Table 5).
//!
//! Workload-A is the only YCSB workload with writes: 50% reads / 50%
//! updates over a zipfian key distribution with ~1KB records. The paper also
//! measures a 100%-update variant; the Couchbase knob under test is
//! `batch_size` (fsync every k updates).

use crate::cpu::CpuModel;
use docstore::DocStore;
use simkit::dist::Rng;
use simkit::dist::{rng, ScrambledZipfian};
use simkit::{ClosedLoop, DriverReport, Nanos};
use storage::device::BlockDevice;

/// Workload specification.
#[derive(Debug, Clone, Copy)]
pub struct YcsbSpec {
    /// Number of records loaded before the measured phase.
    pub records: u64,
    /// Value size in bytes (YCSB default: 10 fields × 100B ≈ 1KB).
    pub value_size: usize,
    /// Fraction of operations that are updates (0.5 for workload-A, 1.0 for
    /// the paper's 100%-update variant).
    pub update_fraction: f64,
    /// Operations in the measured phase.
    pub ops: u64,
    /// Closed-loop clients (the paper runs a single thread).
    pub clients: usize,
    /// RNG seed.
    pub seed: u64,
    /// Client-side software cost per operation (ns); Couchbase's managed
    /// cache path is ~100-200us per op.
    pub cpu_per_op: u64,
}

impl YcsbSpec {
    /// Workload-A defaults at a given scale.
    pub fn workload_a(records: u64, ops: u64) -> Self {
        Self {
            records,
            value_size: 1000,
            update_fraction: 0.5,
            ops,
            clients: 1,
            seed: 0xCB,
            cpu_per_op: 120_000,
        }
    }
}

fn key_of(i: u64) -> Vec<u8> {
    format!("user{:012}", i).into_bytes()
}

fn value_of(size: usize, tag: u64) -> Vec<u8> {
    let mut v = vec![b'v'; size];
    v[..8].copy_from_slice(&tag.to_le_bytes());
    v
}

/// Load the initial records. Returns the completion time.
pub fn load<D: BlockDevice>(store: &mut DocStore<D>, spec: &YcsbSpec, now: Nanos) -> Nanos {
    let mut t = now;
    for i in 0..spec.records {
        t = store.set(&key_of(i), &value_of(spec.value_size, i), t);
    }
    store.commit_header(t)
}

/// Run the measured phase; returns the driver report (ops/s = the paper's
/// OPS metric).
pub fn run<D: BlockDevice>(store: &mut DocStore<D>, spec: &YcsbSpec, start: Nanos) -> DriverReport {
    let chooser = ScrambledZipfian::new(spec.records);
    let mut rngs: Vec<_> = (0..spec.clients).map(|c| rng(spec.seed ^ (c as u64) << 40)).collect();
    let mut cpu = CpuModel::new(spec.clients.max(1), spec.cpu_per_op);
    let mut driver = ClosedLoop::new(spec.clients, start);
    let mut op_no = 0u64;
    driver.run(spec.ops, |client, now| {
        let r = &mut rngs[client];
        let key = key_of(chooser.sample(r));
        op_no += 1;
        let t0 = cpu.charge(now);
        if r.gen_bool(spec.update_fraction) {
            store.set(&key, &value_of(spec.value_size, op_no), t0)
        } else {
            store.get(&key, t0).done
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use docstore::DocStoreConfig;
    use storage::testdev::MemDevice;

    fn store(batch: u32) -> DocStore<MemDevice> {
        DocStore::create(
            MemDevice::new(32 * 1024),
            DocStoreConfig {
                batch_size: batch,
                barriers: true,
                file_blocks: 32 * 1024,
                auto_compact_pct: 0,
            },
        )
    }

    #[test]
    fn load_then_run_completes() {
        let mut s = store(10);
        let spec = YcsbSpec { records: 200, ops: 300, ..YcsbSpec::workload_a(200, 300) };
        let t = load(&mut s, &spec, 0);
        assert_eq!(s.stats().sets, 200);
        let rep = run(&mut s, &spec, t);
        assert_eq!(rep.ops, 300);
        let st = s.stats();
        // Roughly half the measured ops are updates.
        let updates = st.sets - 200;
        assert!(updates > 100 && updates < 200, "updates = {updates}");
        assert!(st.gets > 100);
    }

    #[test]
    fn pure_update_variant() {
        let mut s = store(1);
        let mut spec = YcsbSpec::workload_a(100, 150);
        spec.update_fraction = 1.0;
        let t = load(&mut s, &spec, 0);
        let rep = run(&mut s, &spec, t);
        assert_eq!(rep.ops, 150);
        assert_eq!(s.stats().sets, 250);
        assert_eq!(s.stats().gets, 0);
    }

    #[test]
    fn batch_one_is_slower_than_batch_100() {
        let run_with = |batch: u32| {
            let mut s = store(batch);
            let spec = YcsbSpec { records: 100, ops: 200, ..YcsbSpec::workload_a(100, 200) };
            let t = load(&mut s, &spec, 0);
            run(&mut s, &spec, t).throughput()
        };
        let slow = run_with(1);
        let fast = run_with(100);
        assert!(fast > slow, "batch=100 ({fast}) must beat batch=1 ({slow})");
    }
}
