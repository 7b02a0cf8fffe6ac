//! fio-style raw-device micro-benchmark (Tables 1 and 2).
//!
//! Issues page-aligned random reads or writes straight at a [`Volume`], with
//! a configurable number of closed-loop jobs, page size, and an fsync after
//! every N writes — the exact parameter grid of the paper's Table 1
//! ("# of Writes per Fsync" 1..256 and none) and Table 2 (page size 4/8/16KB,
//! 1 or 128 threads). A job mix ([`FioOp::Mixed`]) runs readers beside the
//! writers: the paper's §1 tail-latency setting, reads queued behind flushes.

use simkit::dist::rng;
use simkit::dist::Rng;
use simkit::{ClosedLoop, DriverReport, Nanos};
use storage::device::BlockDevice;
use storage::volume::Volume;

/// Operation direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FioOp {
    /// Random reads.
    Read,
    /// Random writes.
    Write,
    /// Jobs below `read_jobs` read; the rest write, with `fsync_every`.
    Mixed {
        /// How many of the spec's jobs are readers.
        read_jobs: usize,
    },
}

/// Benchmark specification.
#[derive(Debug, Clone, Copy)]
pub struct FioSpec {
    /// Read or write.
    pub op: FioOp,
    /// I/O unit in bytes (4096, 8192, 16384).
    pub block_size: usize,
    /// Number of I/O units the target region spans.
    pub span_blocks: u64,
    /// `Some(n)`: each job fsyncs after every `n` writes; `None`: no fsync.
    pub fsync_every: Option<u32>,
    /// Closed-loop jobs.
    pub jobs: usize,
    /// Total operations across all jobs.
    pub total_ops: u64,
    /// RNG seed.
    pub seed: u64,
}

impl FioSpec {
    /// Table 1 shape: 4KB random writes over the span.
    pub fn random_write_4k(span_blocks: u64, fsync_every: Option<u32>, total_ops: u64) -> Self {
        Self {
            op: FioOp::Write,
            block_size: 4096,
            span_blocks,
            fsync_every,
            jobs: 1,
            total_ops,
            seed: 0x5EED,
        }
    }
}

/// Run the micro-benchmark against a mounted volume. The volume's barrier
/// policy decides whether fsync reaches the device (the "NoBarrier" row).
pub fn run<D: BlockDevice>(vol: &mut Volume<D>, spec: &FioSpec, start: Nanos) -> DriverReport {
    let pages_per_block = (spec.block_size / storage::device::LOGICAL_PAGE) as u64;
    assert!(pages_per_block >= 1);
    assert!(
        spec.span_blocks * pages_per_block <= vol.capacity_pages(),
        "span exceeds device capacity"
    );
    let mut rngs: Vec<_> = (0..spec.jobs).map(|j| rng(spec.seed ^ (j as u64) << 32)).collect();
    let mut since_sync = vec![0u32; spec.jobs];
    let mut wbuf = vec![0u8; spec.block_size];
    let mut rbuf = vec![0u8; spec.block_size];
    let mut counter = 0u64;
    let read_jobs = match spec.op {
        FioOp::Read => spec.jobs,
        FioOp::Write => 0,
        FioOp::Mixed { read_jobs } => read_jobs,
    };
    let mut driver = ClosedLoop::new(spec.jobs, start);
    driver.run(spec.total_ops, |job, now| {
        let block = rngs[job].gen_range(0..spec.span_blocks);
        let lpn = block * pages_per_block;
        if job < read_jobs {
            return vol.read(lpn, pages_per_block as u32, &mut rbuf, now).expect("in-range read");
        }
        counter += 1;
        wbuf[..8].copy_from_slice(&counter.to_le_bytes());
        let mut t = vol.write(lpn, &wbuf, now).expect("in-range write");
        if let Some(n) = spec.fsync_every {
            since_sync[job] += 1;
            if since_sync[job] >= n {
                since_sync[job] = 0;
                t = vol.fsync(t).expect("device reachable");
            }
        }
        t
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::testdev::MemDevice;

    fn volume() -> Volume<MemDevice> {
        Volume::new(MemDevice::new(4096), true)
    }

    #[test]
    fn write_spec_runs_and_counts() {
        let mut vol = volume();
        let spec = FioSpec::random_write_4k(1024, Some(4), 100);
        let rep = run(&mut vol, &spec, 0);
        assert_eq!(rep.ops, 100);
        assert!(rep.throughput() > 0.0);
        assert_eq!(vol.device_stats().writes, 100);
        // 100 writes, fsync every 4 → 25 flushes.
        assert_eq!(vol.device_stats().flushes, 25);
    }

    #[test]
    fn no_fsync_means_no_flushes() {
        let mut vol = volume();
        let spec = FioSpec::random_write_4k(1024, None, 50);
        run(&mut vol, &spec, 0);
        assert_eq!(vol.device_stats().flushes, 0);
    }

    #[test]
    fn nobarrier_swallows_fsync() {
        let mut vol = Volume::new(MemDevice::new(4096), false);
        let spec = FioSpec::random_write_4k(1024, Some(1), 50);
        run(&mut vol, &spec, 0);
        assert_eq!(vol.device_stats().flushes, 0);
        assert_eq!(vol.fsync_count(), 50);
    }

    #[test]
    fn reads_with_large_blocks_and_many_jobs() {
        let mut vol = volume();
        let spec = FioSpec {
            op: FioOp::Read,
            block_size: 16384,
            span_blocks: 256,
            fsync_every: None,
            jobs: 8,
            total_ops: 200,
            seed: 7,
        };
        let rep = run(&mut vol, &spec, 0);
        assert_eq!(rep.ops, 200);
        assert_eq!(vol.device_stats().reads, 200);
    }

    #[test]
    fn mixed_jobs_split_into_readers_and_writers() {
        let mut vol = volume();
        // 4 jobs, 3 of them readers.
        let spec = FioSpec {
            op: FioOp::Mixed { read_jobs: 3 },
            jobs: 4,
            ..FioSpec::random_write_4k(1024, Some(2), 400)
        };
        let rep = run(&mut vol, &spec, 0);
        assert_eq!(rep.ops, 400);
        let s = vol.device_stats();
        assert_eq!(s.reads + s.writes, 400);
        assert!(s.reads > s.writes && s.writes > 0, "{s:?}");
        // Only the writer fsyncs, once per two of its writes.
        assert_eq!(s.flushes, s.writes / 2);
    }

    #[test]
    fn fsync_frequency_monotonically_helps_on_flushy_device() {
        // On MemDevice flush costs 100us, write 20us: fewer fsyncs => more
        // IOPS. The real Table 1 shape test lives in the bench crate.
        let mut t_per: Vec<f64> = Vec::new();
        for every in [1u32, 8, 64] {
            let mut vol = volume();
            let spec = FioSpec::random_write_4k(1024, Some(every), 200);
            let rep = run(&mut vol, &spec, 0);
            t_per.push(rep.throughput());
        }
        assert!(t_per[0] < t_per[1] && t_per[1] < t_per[2], "{t_per:?}");
    }

    #[test]
    #[should_panic(expected = "span exceeds device capacity")]
    fn oversized_span_rejected() {
        let mut vol = volume();
        let spec = FioSpec::random_write_4k(1 << 40, None, 1);
        run(&mut vol, &spec, 0);
    }

    #[test]
    fn throughput_is_deterministic_across_runs() {
        let go = || {
            let mut vol = volume();
            let spec = FioSpec::random_write_4k(1024, Some(8), 300);
            run(&mut vol, &spec, 0).throughput()
        };
        assert_eq!(go(), go());
    }
}
