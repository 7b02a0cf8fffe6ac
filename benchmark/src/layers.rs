//! Per-layer metrics of the traced pass, measured from outside the
//! program: counts come from the public `stats()` getters (deltas over the
//! measured phase), host times from the probe's spans, simulated wait
//! segments from the attached `Telemetry`.
//!
//! `*_share` metrics are fractions. A layer's `*_sim_share` divides by the
//! clients' simulated time (measured simulated ns x clients); the
//! `sim.seg.*_share` family divides by the sum of all attributed segments.

use crate::common::{Ctx, Measured, Outcome};
use crate::stats::Fingerprint;
use bufferpool::PoolStats;
use docstore::DocStats;
use durassd::ftl::FtlStats;
use durassd::{Ssd, SsdStats};
use relstore::engine::EngineStats;
use relstore::Engine;
use simkit::Nanos;
use storage::device::{BlockDevice, DeviceStats};
use telemetry::{SegKind, Telemetry};
use wal::WalStats;

/// Every per-layer metric name, in report order, with its unit. A traced
/// run prints all of them; the ones a workload's stack does not reach
/// read 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("workloads.read_p50_us", "us"),
    ("workloads.read_p999_us", "us"),
    ("workloads.write_p50_us", "us"),
    ("workloads.write_p999_us", "us"),
    ("storage.writes_per_op", "count"),
    ("storage.reads_per_op", "count"),
    ("storage.fsyncs_per_op", "count"),
    ("storage.flushes_per_op", "count"),
    ("storage.fsync_swallowed_share", "ratio"),
    ("storage.host_kib_per_op", "KiB"),
    ("storage.host_ns_per_call", "ns"),
    ("core.ssd.host_ns_per_write", "ns"),
    ("core.ssd.host_ns_per_read", "ns"),
    ("core.ssd.host_ns_per_flush", "ns"),
    ("core.ssd.host_share", "ratio"),
    ("core.ssd.cache_hit_reads_share", "ratio"),
    ("core.ssd.sata_busy_share", "ratio"),
    ("core.ssd.pipe_busy_share", "ratio"),
    ("core.cache.absorbed_overwrites_per_kop", "count"),
    ("core.cache.absorption_pct", "%"),
    ("core.cache.admit_wait_sim_share", "ratio"),
    ("core.ftl.waf", "ratio"),
    ("core.ftl.gc_erases_per_kop", "count"),
    ("core.ftl.gc_relocated_slots_per_host_page", "ratio"),
    ("core.ftl.gc_sim_share", "ratio"),
    ("core.ftl.meta_programs_per_kop", "count"),
    ("core.ftl.free_blocks_min", "count"),
    ("core.ftl.wear_spread", "count"),
    ("core.ftl.host_ns_per_program", "ns"),
    ("nand.programs_per_op", "count"),
    ("nand.reads_per_op", "count"),
    ("nand.erases_per_kop", "count"),
    ("nand.host_ns_per_program", "ns"),
    ("nand.host_ns_per_read", "ns"),
    ("nand.channel_wait_sim_share", "ratio"),
    ("wal.appends_per_op", "count"),
    ("wal.bytes_per_op", "B"),
    ("wal.commits_per_flush", "ratio"),
    ("wal.piggyback_share", "ratio"),
    ("wal.group_join_share", "ratio"),
    ("wal.fsync_sim_share", "ratio"),
    ("wal.host_ns_per_commit", "ns"),
    ("bufferpool.miss_ratio", "ratio"),
    ("bufferpool.blocked_reads_per_kop", "count"),
    ("bufferpool.dirty_evictions_per_kop", "count"),
    ("bufferpool.flush_writes_per_kop", "count"),
    ("bufferpool.host_ns_per_access", "ns"),
    ("btree.splits_per_kop", "count"),
    ("btree.height", "count"),
    ("btree.host_ns_per_put", "ns"),
    ("btree.host_ns_per_get", "ns"),
    ("relstore.page_writes_per_op", "count"),
    ("relstore.page_reads_per_op", "count"),
    ("relstore.dwb_writes_per_op", "count"),
    ("relstore.checkpoints", "count"),
    ("relstore.checkpoint_sim_share", "ratio"),
    ("relstore.stack_host_ns_per_op", "ns"),
    ("relstore.null_device_host_ns_per_op", "ns"),
    ("relstore.replayed_records", "count"),
    ("docstore.bytes_appended_per_set", "B"),
    ("docstore.cache_hit_share", "ratio"),
    ("docstore.headers_per_set", "count"),
    ("docstore.compactions", "count"),
    ("docstore.compaction_sim_share", "ratio"),
    ("docstore.stack_host_ns_per_op", "ns"),
    ("docstore.null_device_host_ns_per_op", "ns"),
    ("telemetry.tax_pct", "%"),
    ("telemetry.allocs_per_op_delta", "count"),
    ("telemetry.anatomy_violations", "count"),
    ("telemetry.trace_overhead_pct", "%"),
    ("sim.seg.channel_wait_share", "ratio"),
    ("sim.seg.ncq_wait_share", "ratio"),
    ("sim.seg.cache_admit_share", "ratio"),
    ("sim.seg.gc_wait_share", "ratio"),
    ("sim.seg.wal_fsync_share", "ratio"),
    ("sim.seg.map_persist_share", "ratio"),
    ("sim.seg.hdd_destage_share", "ratio"),
    ("sim.seg.media_read_share", "ratio"),
    ("sim.seg.media_program_share", "ratio"),
    ("sim.seg.flush_cache_share", "ratio"),
    ("sim.seg.xfer_share", "ratio"),
    ("sim.seg.host_share", "ratio"),
    ("simkit.alloc_bytes_per_op", "B"),
    ("simkit.heap_events_per_op", "count"),
];

/// `sim.seg.<kind>_share` names in [`SegKind::ALL`] order.
const SEG_SHARE: [&str; 12] = [
    "sim.seg.channel_wait_share",
    "sim.seg.ncq_wait_share",
    "sim.seg.cache_admit_share",
    "sim.seg.gc_wait_share",
    "sim.seg.wal_fsync_share",
    "sim.seg.map_persist_share",
    "sim.seg.hdd_destage_share",
    "sim.seg.media_read_share",
    "sim.seg.media_program_share",
    "sim.seg.flush_cache_share",
    "sim.seg.xfer_share",
    "sim.seg.host_share",
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Public counters of one SSD (and the fsync count of the volume on it) at
/// one instant.
#[derive(Debug, Clone, Copy)]
pub struct DevSnap {
    /// Generic device counters.
    pub stats: DeviceStats,
    /// SSD-specific counters.
    pub ssd: SsdStats,
    /// FTL counters.
    pub ftl: FtlStats,
    /// Overwrites coalesced in the write cache.
    pub absorbed: u64,
    /// SATA link busy ns.
    pub sata_busy: Nanos,
    /// Backend dispatch pipe busy ns.
    pub pipe_busy: Nanos,
    /// `max - min` block erase count.
    pub wear_spread: u32,
    /// `fsync` calls on the volume above the device.
    pub fsyncs: u64,
}

impl DevSnap {
    /// Read every public counter of `ssd`.
    pub fn take(ssd: &Ssd, fsyncs: u64) -> Self {
        let (sata_busy, pipe_busy, _) = ssd.busy_times();
        let (lo, hi) = ssd.wear_spread();
        Self {
            stats: ssd.stats(),
            ssd: ssd.ssd_stats(),
            ftl: ssd.ftl_stats(),
            absorbed: ssd.absorbed_overwrites(),
            sata_busy,
            pipe_busy,
            wear_spread: hi - lo,
            fsyncs,
        }
    }

    /// Counter deltas from `self` to `later`.
    pub fn delta(&self, later: &DevSnap) -> DevSnap {
        let (a, b) = (self, later);
        DevSnap {
            stats: DeviceStats {
                reads: b.stats.reads - a.stats.reads,
                writes: b.stats.writes - a.stats.writes,
                pages_written: b.stats.pages_written - a.stats.pages_written,
                flushes: b.stats.flushes - a.stats.flushes,
                media_pages_written: b.stats.media_pages_written - a.stats.media_pages_written,
                gc_erases: b.stats.gc_erases - a.stats.gc_erases,
                erases: b.stats.erases - a.stats.erases,
                ..DeviceStats::default()
            },
            ssd: SsdStats {
                cache_hit_reads: b.ssd.cache_hit_reads - a.ssd.cache_hit_reads,
                ..SsdStats::default()
            },
            ftl: FtlStats {
                data_programs: b.ftl.data_programs - a.ftl.data_programs,
                slots_programmed: b.ftl.slots_programmed - a.ftl.slots_programmed,
                gc_relocated_slots: b.ftl.gc_relocated_slots - a.ftl.gc_relocated_slots,
                gc_erases: b.ftl.gc_erases - a.ftl.gc_erases,
                meta_programs: b.ftl.meta_programs - a.ftl.meta_programs,
                gc_ns: b.ftl.gc_ns - a.ftl.gc_ns,
                ..FtlStats::default()
            },
            absorbed: b.absorbed - a.absorbed,
            sata_busy: b.sata_busy - a.sata_busy,
            pipe_busy: b.pipe_busy - a.pipe_busy,
            wear_spread: b.wear_spread,
            fsyncs: b.fsyncs - a.fsyncs,
        }
    }

    /// Media pages per host page over this delta.
    pub fn waf(&self) -> f64 {
        ratio(self.stats.media_pages_written as f64, self.stats.pages_written as f64)
    }

    /// Fold every simulated counter of this delta into `fp`.
    pub fn fingerprint(&self, fp: &mut Fingerprint) {
        fp.add_all(&[
            self.stats.reads,
            self.stats.writes,
            self.stats.pages_written,
            self.stats.flushes,
            self.stats.media_pages_written,
            self.stats.gc_erases,
            self.stats.erases,
            self.ssd.cache_hit_reads,
            self.ftl.data_programs,
            self.ftl.slots_programmed,
            self.ftl.gc_relocated_slots,
            self.ftl.meta_programs,
            self.ftl.gc_ns,
            self.absorbed,
            self.sata_busy,
            self.pipe_busy,
            self.wear_spread as u64,
            self.fsyncs,
        ]);
    }
}

/// Sum of a histogram's samples, 0 when it was never recorded.
fn hist_sum(tel: &Telemetry, name: &str) -> f64 {
    tel.histogram(name).map_or(0.0, |h| h.sum() as f64)
}

/// Count of a histogram's samples.
pub fn hist_count(tel: &Telemetry, name: &str) -> f64 {
    tel.histogram(name).map_or(0.0, |h| h.count() as f64)
}

/// Sum of `hist` as a share of the clients' simulated time.
pub fn client_time_share(tel: &Telemetry, hist: &str, m: &Measured, clients: usize) -> f64 {
    ratio(hist_sum(tel, hist), m.sim_ns() as f64 * clients as f64)
}

/// `workloads.*`: per-op-type simulated percentiles, given in ns as
/// `[read p50, read p99.9, write p50, write p99.9]`.
fn workload_latency(out: &mut Vec<(&'static str, f64)>, by_type_ns: [u64; 4]) {
    let names = [
        "workloads.read_p50_us",
        "workloads.read_p999_us",
        "workloads.write_p50_us",
        "workloads.write_p999_us",
    ];
    out.extend(names.iter().zip(by_type_ns).map(|(n, v)| (*n, v as f64 / 1e3)));
}

/// `storage.*`, `core.*`, `nand.*` and `sim.seg.*`: everything the devices,
/// the probe and the telemetry say about the measured phase. `deltas` holds
/// one entry per device of the workload; counts are summed over them.
fn device_layers(
    out: &mut Vec<(&'static str, f64)>,
    deltas: &[DevSnap],
    m: &Measured,
    clients: usize,
    ctx: &Ctx,
    tel: &Telemetry,
) {
    let ops = m.ops() as f64;
    let kops = ops / 1e3;
    let sum = |f: &dyn Fn(&DevSnap) -> u64| deltas.iter().map(f).sum::<u64>() as f64;
    let writes = sum(&|d| d.stats.writes);
    let reads = sum(&|d| d.stats.reads);
    let flushes = sum(&|d| d.stats.flushes);
    let fsyncs = sum(&|d| d.fsyncs);
    let host_pages = sum(&|d| d.stats.pages_written);
    let media_pages = sum(&|d| d.stats.media_pages_written);
    out.push(("storage.writes_per_op", ratio(writes, ops)));
    out.push(("storage.reads_per_op", ratio(reads, ops)));
    out.push(("storage.fsyncs_per_op", ratio(fsyncs, ops)));
    out.push(("storage.flushes_per_op", ratio(flushes, ops)));
    out.push(("storage.fsync_swallowed_share", ratio(fsyncs - flushes.min(fsyncs), fsyncs)));
    out.push(("storage.host_kib_per_op", ratio(host_pages * 4.0, ops)));

    let tracer = ctx.tracer.as_ref().expect("traced pass");
    let probe = |main: &str, log: &str| {
        let (a, b) = (tracer.totals(main), tracer.totals(log));
        (a.count + b.count, a.host_ns + b.host_ns)
    };
    let (w_n, w_ns) = probe("probe.write", "probe.log.write");
    let (r_n, r_ns) = probe("probe.read", "probe.log.read");
    let (f_n, f_ns) = probe("probe.flush", "probe.log.flush");
    out.push(("core.ssd.host_ns_per_write", ratio(w_ns as f64, w_n as f64)));
    out.push(("core.ssd.host_ns_per_read", ratio(r_ns as f64, r_n as f64)));
    out.push(("core.ssd.host_ns_per_flush", ratio(f_ns as f64, f_n as f64)));
    out.push(("core.ssd.host_share", ratio((w_ns + r_ns + f_ns) as f64, m.host_ns() as f64)));
    out.push(("core.ssd.cache_hit_reads_share", ratio(sum(&|d| d.ssd.cache_hit_reads), reads)));
    let dev_sim = m.sim_ns() as f64 * deltas.len() as f64;
    out.push(("core.ssd.sata_busy_share", ratio(sum(&|d| d.sata_busy), dev_sim)));
    out.push(("core.ssd.pipe_busy_share", ratio(sum(&|d| d.pipe_busy), dev_sim)));

    let absorbed = sum(&|d| d.absorbed);
    out.push(("core.cache.absorbed_overwrites_per_kop", ratio(absorbed, kops)));
    out.push(("core.cache.absorption_pct", 100.0 * ratio(absorbed, host_pages)));
    out.push((
        "core.cache.admit_wait_sim_share",
        client_time_share(tel, SegKind::CacheAdmit.hist_name(), m, clients),
    ));

    out.push(("core.ftl.waf", ratio(media_pages, host_pages)));
    out.push(("core.ftl.gc_erases_per_kop", ratio(sum(&|d| d.ftl.gc_erases), kops)));
    out.push((
        "core.ftl.gc_relocated_slots_per_host_page",
        ratio(sum(&|d| d.ftl.gc_relocated_slots), host_pages),
    ));
    out.push(("core.ftl.gc_sim_share", ratio(sum(&|d| d.ftl.gc_ns), dev_sim)));
    out.push(("core.ftl.meta_programs_per_kop", ratio(sum(&|d| d.ftl.meta_programs), kops)));
    out.push(("core.ftl.free_blocks_min", m.free_blocks_min.unwrap_or(0) as f64));
    out.push((
        "core.ftl.wear_spread",
        deltas.iter().map(|d| d.wear_spread).max().unwrap_or(0) as f64,
    ));

    let programs = sum(&|d| d.ftl.data_programs + d.ftl.meta_programs);
    out.push(("nand.programs_per_op", ratio(programs, ops)));
    out.push(("nand.reads_per_op", ratio(hist_count(tel, SegKind::MediaRead.hist_name()), ops)));
    out.push(("nand.erases_per_kop", ratio(sum(&|d| d.stats.erases), kops)));
    out.push((
        "nand.channel_wait_sim_share",
        client_time_share(tel, SegKind::ChannelWait.hist_name(), m, clients),
    ));

    let seg_total: f64 = SegKind::ALL.iter().map(|k| hist_sum(tel, k.hist_name())).sum();
    for kind in SegKind::ALL {
        out.push((SEG_SHARE[kind.index()], ratio(hist_sum(tel, kind.hist_name()), seg_total)));
    }
}

/// Host ns per op spent above the device boundary: measured host time
/// minus the probe's time on every device.
fn stack_host_ns_per_op(m: &Measured, ctx: &Ctx) -> f64 {
    let tracer = ctx.tracer.as_ref().expect("traced pass");
    let probe: u64 = tracer
        .all_totals()
        .iter()
        .filter(|(n, _)| n.starts_with("probe."))
        .map(|(_, t)| t.host_ns)
        .sum();
    ratio(m.host_ns().saturating_sub(probe) as f64, m.ops() as f64)
}

/// Public counters of the relational stack at one instant. The pool
/// counters are accumulated by the driver, because `workloads::*::run`
/// resets them on entry.
#[derive(Debug, Clone, Copy)]
pub struct RelSnap {
    /// Engine counters.
    pub engine: EngineStats,
    /// WAL counters.
    pub wal: WalStats,
    /// Buffer-pool counters accumulated so far.
    pub pool: PoolStats,
}

impl RelSnap {
    /// Read the engine's public getters; `pool` is the driver's running sum.
    pub fn take<D: BlockDevice, L: BlockDevice>(e: &Engine<D, L>, pool: PoolStats) -> Self {
        Self { engine: e.stats(), wal: e.wal_stats(), pool }
    }

    /// Fold every simulated counter delta from `self` to `later` into `fp`.
    pub fn fingerprint_delta(&self, later: &RelSnap, fp: &mut Fingerprint) {
        let (a, b) = (self, later);
        fp.add_all(&[
            b.engine.puts - a.engine.puts,
            b.engine.gets - a.engine.gets,
            b.engine.deletes - a.engine.deletes,
            b.engine.commits - a.engine.commits,
            b.engine.checkpoints - a.engine.checkpoints,
            b.engine.page_writes - a.engine.page_writes,
            b.engine.page_reads - a.engine.page_reads,
            b.engine.dwb_writes - a.engine.dwb_writes,
            b.wal.appends - a.wal.appends,
            b.wal.commits - a.wal.commits,
            b.wal.flushes - a.wal.flushes,
            b.wal.piggybacked_commits - a.wal.piggybacked_commits,
            b.wal.group_joins - a.wal.group_joins,
            b.wal.bytes_written - a.wal.bytes_written,
            b.pool.accesses - a.pool.accesses,
            b.pool.misses - a.pool.misses,
            b.pool.blocked_reads - a.pool.blocked_reads,
            b.pool.dirty_evictions - a.pool.dirty_evictions,
            b.pool.flush_writes - a.pool.flush_writes,
        ]);
    }
}

/// `wal.*`, `bufferpool.*` and `relstore.*` from the engine's getters
/// (`relstore.replayed_records` is added after the end-of-run recovery).
#[allow(clippy::too_many_arguments)]
pub fn rel_layers(
    out: &mut Vec<(&'static str, f64)>,
    a: &RelSnap,
    b: &RelSnap,
    m: &Measured,
    clients: usize,
    ctx: &Ctx,
    tel: &Telemetry,
) {
    let ops = m.ops() as f64;
    let kops = ops / 1e3;
    let commits = (b.wal.commits - a.wal.commits) as f64;
    out.push(("wal.appends_per_op", ratio((b.wal.appends - a.wal.appends) as f64, ops)));
    out.push(("wal.bytes_per_op", ratio((b.wal.bytes_written - a.wal.bytes_written) as f64, ops)));
    out.push(("wal.commits_per_flush", ratio(commits, (b.wal.flushes - a.wal.flushes) as f64)));
    out.push((
        "wal.piggyback_share",
        ratio((b.wal.piggybacked_commits - a.wal.piggybacked_commits) as f64, commits),
    ));
    out.push((
        "wal.group_join_share",
        ratio((b.wal.group_joins - a.wal.group_joins) as f64, commits),
    ));
    out.push(("wal.fsync_sim_share", client_time_share(tel, "wal.commit", m, clients)));

    let accesses = (b.pool.accesses - a.pool.accesses) as f64;
    out.push(("bufferpool.miss_ratio", ratio((b.pool.misses - a.pool.misses) as f64, accesses)));
    out.push((
        "bufferpool.blocked_reads_per_kop",
        ratio((b.pool.blocked_reads - a.pool.blocked_reads) as f64, kops),
    ));
    out.push((
        "bufferpool.dirty_evictions_per_kop",
        ratio((b.pool.dirty_evictions - a.pool.dirty_evictions) as f64, kops),
    ));
    out.push((
        "bufferpool.flush_writes_per_kop",
        ratio((b.pool.flush_writes - a.pool.flush_writes) as f64, kops),
    ));

    let (ea, eb) = (&a.engine, &b.engine);
    out.push(("relstore.page_writes_per_op", ratio((eb.page_writes - ea.page_writes) as f64, ops)));
    out.push(("relstore.page_reads_per_op", ratio((eb.page_reads - ea.page_reads) as f64, ops)));
    out.push(("relstore.dwb_writes_per_op", ratio((eb.dwb_writes - ea.dwb_writes) as f64, ops)));
    out.push(("relstore.checkpoints", (eb.checkpoints - ea.checkpoints) as f64));
    out.push((
        "relstore.checkpoint_sim_share",
        ratio(hist_sum(tel, "engine.checkpoint"), m.sim_ns() as f64),
    ));
    out.push(("relstore.stack_host_ns_per_op", stack_host_ns_per_op(m, ctx)));
}

/// `docstore.*` from the store's getter; `compaction_sim_ns` is the
/// simulated time of the sets during which a compaction ran.
pub fn docstore_layers(
    out: &mut Vec<(&'static str, f64)>,
    a: &DocStats,
    b: &DocStats,
    compaction_sim_ns: Nanos,
    m: &Measured,
    ctx: &Ctx,
) {
    let sets = (b.sets - a.sets) as f64;
    out.push((
        "docstore.bytes_appended_per_set",
        ratio((b.bytes_appended - a.bytes_appended) as f64, sets),
    ));
    out.push((
        "docstore.cache_hit_share",
        ratio((b.cache_hits - a.cache_hits) as f64, (b.gets - a.gets) as f64),
    ));
    out.push(("docstore.headers_per_set", ratio((b.headers - a.headers) as f64, sets)));
    out.push(("docstore.compactions", (b.compactions - a.compactions) as f64));
    out.push(("docstore.compaction_sim_share", ratio(compaction_sim_ns as f64, m.sim_ns() as f64)));
    out.push(("docstore.stack_host_ns_per_op", stack_host_ns_per_op(m, ctx)));
}

/// The per-layer metrics every workload has: `workloads.*`, the device
/// stack, `simkit.*` and the anatomy audit. `pops_per_op` is the number of
/// `ClosedLoop` heap pops per measured op.
pub fn shared_layers(
    out: &mut Outcome,
    deltas: &[DevSnap],
    clients: usize,
    pops_per_op: f64,
    ctx: &Ctx,
    tel: &Telemetry,
) {
    workload_latency(&mut out.layers, out.latency.by_type);
    device_layers(&mut out.layers, deltas, &out.measured, clients, ctx, tel);
    simkit_layers(&mut out.layers, &out.measured, pops_per_op);
    out.layers.push(("telemetry.anatomy_violations", tel.anatomy_violations() as f64));
}

/// `simkit.*`: allocator bytes and closed-loop heap pops per measured op.
fn simkit_layers(out: &mut Vec<(&'static str, f64)>, m: &Measured, pops_per_op: f64) {
    out.push(("simkit.alloc_bytes_per_op", ratio(m.alloc_bytes as f64, m.ops() as f64)));
    out.push(("simkit.heap_events_per_op", pops_per_op));
}

fn layer(out: &Outcome, name: &str) -> f64 {
    out.layers.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v)
}

/// A DuraSSD / `nobarrier` workload must never wait on FLUSH CACHE.
pub fn require_no_flush_cache(out: &mut Outcome) {
    let share = layer(out, "sim.seg.flush_cache_share");
    out.notes.push(format!("regime: sim.seg.flush_cache_share = {share}"));
    if share != 0.0 {
        out.regime_failures.push(format!("flush_cache share {share} on a nobarrier DuraSSD run"));
    }
}

/// The volatile, barriers-on baseline must be dominated by FLUSH CACHE.
pub fn require_flush_cache_dominant(out: &mut Outcome) {
    let flush = layer(out, "sim.seg.flush_cache_share");
    let top = SEG_SHARE.iter().map(|n| layer(out, n)).fold(0.0, f64::max);
    out.notes.push(format!("regime: sim.seg.flush_cache_share = {flush:.4} (largest {top:.4})"));
    if flush < top {
        out.regime_failures.push("flush_cache is not the largest simulated segment".into());
    }
}

/// Host-time accounting of the fio drivers: probe time + the self time of
/// the driver's own `calls` spans + the segments' self time must account
/// for the measured host time within 2 %.
pub fn check_span_coverage(out: &mut Outcome, ctx: &Ctx, calls: &[&str]) {
    let tracer = ctx.tracer.as_ref().expect("traced pass");
    let probe: u64 =
        ["probe.read", "probe.write", "probe.flush"].iter().map(|n| tracer.totals(n).host_ns).sum();
    let call_self: u64 = calls.iter().map(|n| tracer.totals(n).self_ns).sum();
    let seg = tracer.totals("segment");
    let accounted = (probe + call_self + seg.self_ns) as f64;
    let coverage = ratio(accounted, out.measured.host_ns() as f64);
    out.notes.push(format!(
        "host accounting: probe {probe} ns + volume self {call_self} ns + driver self {} ns = \
         {coverage:.4} of the measured {} ns",
        seg.self_ns,
        out.measured.host_ns()
    ));
    if (coverage - 1.0).abs() > 0.02 {
        out.regime_failures.push(format!("span coverage {coverage:.4} is off by more than 2 %"));
    }
}
