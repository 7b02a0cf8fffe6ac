//! Shared helpers for the experiment binaries: the benchmark-scale devices,
//! the workload × deployment cells the bins run, flag parsing, the report
//! epilogue and the formatting helpers of the human-readable tables.
//!
//! `paper` prints the paper's rows next to the measured values so the shape
//! comparison is immediate, and writes both into one checked document.
//! Scales are chosen so each cell finishes in seconds of wall-clock time.

use docstore::{DocStore, DocStoreConfig};
use durassd::{Ssd, SsdConfig};
use hdd::{Hdd, HddConfig};
use relstore::{Engine, EngineConfig};
use simkit::json::Writer;
use storage::device::{BlockDevice, LOGICAL_PAGE};
use storage::volume::Volume;
use telemetry::{OpBreakdown, SegKind, Telemetry};
use workloads::fio::{FioOp, FioSpec};
use workloads::linkbench::{self, LinkBenchReport, LinkBenchSpec};
use workloads::tpcc::TpccSpec;
use workloads::{fio, tpcc, ycsb};

pub mod schema;

/// Blocks per plane used by the benchmark SSDs: 16 ⇒ 4GB raw, ~3.4GB
/// exported — big enough for realistic mapping-table behaviour, small enough
/// to simulate quickly.
pub const BENCH_BLOCKS_PER_PLANE: usize = 16;

/// The DuraSSD device at benchmark scale.
pub fn durassd_bench(cache_on: bool) -> Ssd {
    Ssd::new(
        SsdConfig::durassd(BENCH_BLOCKS_PER_PLANE).to_builder().cache_enabled(cache_on).build(),
    )
}

/// The SSD-A baseline at benchmark scale.
pub fn ssd_a_bench(cache_on: bool) -> Ssd {
    Ssd::new(SsdConfig::ssd_a(BENCH_BLOCKS_PER_PLANE).to_builder().cache_enabled(cache_on).build())
}

/// The SSD-B baseline at benchmark scale.
pub fn ssd_b_bench(cache_on: bool) -> Ssd {
    Ssd::new(SsdConfig::ssd_b(BENCH_BLOCKS_PER_PLANE).to_builder().cache_enabled(cache_on).build())
}

/// The Cheetah-class disk at benchmark scale.
pub fn hdd_bench(cache_on: bool) -> Hdd {
    let cfg = HddConfig { cache_enabled: cache_on, ..HddConfig::default() };
    Hdd::new(cfg)
}

// ---- the shared workload × deployment cells -------------------------------
//
// `observe` runs each cell once — fio fsync-per-write random writes, YCSB-A
// on the document store, a TPC-C slice on the relational engine, readers
// beside fsyncing writers — in two deployments, and reads its documents off
// the finished cell: device counters for the WAF rows, the attached registry
// for the latency rows. `trace` runs the YCSB and TPC-C configurations on one
// shared timeline.

/// `(mode, device)` labels of a deployment: **durable** is DuraSSD
/// (capacitor-backed cache) with barriers OFF, the paper's deployment;
/// **volatile** is SSD-A (volatile cache) with barriers ON.
pub fn deployment_labels(durable: bool) -> (&'static str, &'static str) {
    if durable {
        ("durable", "durassd")
    } else {
        ("volatile", "ssd_a")
    }
}

/// The device under test for one deployment, with `tel` attached. Barriers
/// are honoured exactly when the cache is not durable.
fn cell_device(durable: bool, tel: &Telemetry) -> Ssd {
    observed_ssd(if durable { durassd_bench(true) } else { ssd_a_bench(true) }, tel)
}

/// fio-style 4KB random writes over a deliberately small span with an
/// fsync after every write — the strictest durability demand. The volatile
/// deployment turns each fsync into a full cache drain; the durable one
/// acknowledges fsync from the capacitor-backed cache and keeps coalescing.
/// Returns the volume after the run.
pub fn fio_cell(durable: bool, ops: u64, span: u64, tel: &Telemetry) -> Volume<Ssd> {
    let mut vol = Volume::new(cell_device(durable, tel), !durable);
    vol.attach_telemetry(tel.clone(), "fio");
    fio::run(&mut vol, &FioSpec::random_write_4k(span, Some(1), ops), 0);
    vol
}

/// Pages the tail cell preloads, then reads and overwrites.
const TAIL_SPAN: u64 = 16_384;

/// The paper's §1/§2 motivation: 64 readers beside 16 writers that fsync
/// every 8 writes, over a preloaded span so reads hit the media. On the
/// volatile deployment reads queue behind FLUSH CACHE drains; on the durable
/// one fsync never reaches the device. The volume's telemetry (`dev.tail.*`)
/// attaches after the preload, so the op histograms cover the mixed phase
/// only. Returns the volume after the run.
pub fn tail_cell(durable: bool, ops: u64, tel: &Telemetry) -> Volume<Ssd> {
    let mut vol = Volume::new(cell_device(durable, tel), !durable);
    let page = vec![1u8; LOGICAL_PAGE];
    let mut t = 0;
    for lpn in 0..TAIL_SPAN {
        t = vol.write(lpn, &page, t).expect("in-range write");
    }
    t = vol.fsync(t).expect("device reachable");
    vol.attach_telemetry(tel.clone(), "tail");
    let spec = FioSpec {
        op: FioOp::Mixed { read_jobs: 64 },
        jobs: 80,
        seed: 0xFEED,
        ..FioSpec::random_write_4k(TAIL_SPAN, Some(8), ops)
    };
    fio::run(&mut vol, &spec, t);
    vol
}

/// Document-store configuration of the YCSB cells: an fsync every
/// `batch_size` updates, no auto-compaction.
pub fn ycsb_cell_config(barriers: bool, batch_size: u32) -> DocStoreConfig {
    DocStoreConfig { batch_size, barriers, file_blocks: 400_000, auto_compact_pct: 0 }
}

/// YCSB-A (50/50 read/update) on the couchstore-style document store, fsync
/// batch 10. The append space rewrites its partial tail block on every
/// batch, so the same LPNs are overwritten continuously. Returns the store
/// after load + run.
pub fn ycsb_cell(durable: bool, records: u64, ops: u64, tel: &Telemetry) -> DocStore<Ssd> {
    let mut store = DocStore::create(cell_device(durable, tel), ycsb_cell_config(!durable, 10));
    store.attach_telemetry(tel.clone());
    let spec = ycsb::YcsbSpec::workload_a(records, ops);
    let t0 = ycsb::load(&mut store, &spec, 0);
    ycsb::run(&mut store, &spec, t0);
    store
}

/// Workload and engine sizing of a TPC-C cell: `clients` terminals on
/// `profile` (page size, barriers, write mode), the buffer pool `pool_pct`
/// percent of the estimated database but at least `pool_floor` bytes, the
/// data file four times the database, 8,192-block logs.
pub fn tpcc_sized_config(
    profile: EngineConfig,
    clients: usize,
    (pool_pct, pool_floor): (u64, u64),
    warehouses: u32,
    txns: u64,
) -> (TpccSpec, EngineConfig) {
    let spec = TpccSpec { clients, ..TpccSpec::scaled(warehouses, txns) };
    let est = warehouses as u64
        * (spec.items as u64 * 300 + spec.districts as u64 * spec.customers as u64 * 470 + 40_960);
    let ecfg = profile
        .to_builder()
        .buffer_pool_bytes((est * pool_pct / 100).max(pool_floor))
        .data_pages((est * 4 / profile.page_size as u64).max(16_384))
        .log_file_blocks(8_192)
        .build();
    (spec, ecfg)
}

/// The TPC-C slice of `observe` and `trace`: 8 clients on the
/// MySQL-like engine at 4 KB pages, a buffer pool of a tenth of the database.
pub fn tpcc_cell_config(warehouses: u32, txns: u64, barriers: bool) -> (TpccSpec, EngineConfig) {
    let profile = EngineConfig { barriers, ..EngineConfig::mysql_like(4096) };
    tpcc_sized_config(profile, 8, (10, 512 * 1024), warehouses, txns)
}

/// A TPC-C slice on the relational engine: WAL appends and double-write
/// page images on the log device, home-page writes on the data device.
/// Returns the engine after load + run.
pub fn tpcc_cell(durable: bool, warehouses: u32, txns: u64, tel: &Telemetry) -> Engine<Ssd, Ssd> {
    let (spec, ecfg) = tpcc_cell_config(warehouses, txns, !durable);
    let (data, log) = (cell_device(durable, tel), cell_device(durable, tel));
    let (mut engine, t0) = Engine::create(data, log, ecfg, 0).into_parts();
    engine.attach_telemetry(tel.clone());
    let (mut db, t1) = tpcc::load(&mut engine, &spec, t0);
    tpcc::run(&mut engine, &mut db, &spec, t1);
    engine
}

/// `dev` with `tel` attached: the device then charges its own latency
/// segments (transfer, media, cache admission, GC, FLUSH CACHE) into the
/// frames the layers above it open. Attach before handing the device to an
/// engine — the device's own histograms (`nand.*`, `ssd.*`) then cover load
/// and run, while op and segment histograms start with the engine's attach.
pub fn observed_ssd(mut dev: Ssd, tel: &Telemetry) -> Ssd {
    dev.attach_telemetry(tel.clone());
    dev
}

// ---- the paper's cells -----------------------------------------------------
//
// `paper` runs these over its experiment table and reads different fields
// of the results (Fig. 5, Fig. 6 and Table 3 are all views of
// `linkbench_cell` runs); Tables 4 and 5 go through `tpcc_sized_config` and
// `ycsb_cell_config`.

/// One cell of the raw-device grids (Tables 1 and 2): `spec` spread over
/// three quarters of `dev`, like fio on a raw drive (for the disk, the span
/// determines seek distances). Reads first get a slice of the span written
/// so they hit the media; the volume's telemetry attaches after that, so
/// `tel` reflects the measured phase only. Returns IOPS.
pub fn fio_grid_cell<D: BlockDevice>(
    dev: D,
    barriers: bool,
    spec: FioSpec,
    tel: &Telemetry,
) -> f64 {
    let mut vol = Volume::new(dev, barriers);
    let pages_per_block = (spec.block_size / LOGICAL_PAGE) as u64;
    let spec = FioSpec { span_blocks: vol.capacity_pages() * 3 / 4 / pages_per_block, ..spec };
    if spec.op == FioOp::Read {
        let preload = FioSpec {
            op: FioOp::Write,
            fsync_every: None,
            jobs: 1,
            total_ops: (spec.total_ops / 4).min(20_000),
            ..spec
        };
        let t = fio::run(&mut vol, &preload, 0).finished_at;
        vol.fsync(t).expect("device reachable");
    }
    vol.attach_telemetry(tel.clone(), "fio");
    fio::run(&mut vol, &spec, FIO_GRID_START).throughput()
}

/// When the measured phase of a [`fio_grid_cell`] starts: long after any
/// preload has drained.
const FIO_GRID_START: simkit::Nanos = 1_000_000_000_000;

/// A relational engine over two observed DuraSSDs with group commit on — the
/// setup of every LinkBench and TPC-C cell of `paper`. Returns the engine and
/// the time it is ready.
pub fn durassd_engine(cfg: EngineConfig, tel: &Telemetry) -> (Engine<Ssd, Ssd>, simkit::Nanos) {
    let (data, log) =
        (observed_ssd(durassd_bench(true), tel), observed_ssd(durassd_bench(true), tel));
    let (mut engine, t0) = Engine::create(data, log, cfg, 0).into_parts();
    engine.set_group_commit(true);
    (engine, t0)
}

/// Parameters of one LinkBench cell: the engine knobs the paper turns plus
/// the scale of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct LinkCell {
    /// Write barriers on the data volume.
    pub barriers: bool,
    /// InnoDB-style double-write buffer.
    pub double_write: bool,
    /// PostgreSQL-style full-page writes.
    pub full_page_writes: bool,
    /// Database page size in bytes.
    pub page_size: usize,
    /// Buffer pool as a percentage of the estimated database (the paper's
    /// 10 GB pool against a 100 GB database is 10).
    pub pool_pct: u64,
    /// Size of each redo log file in 4 KB blocks.
    pub log_file_blocks: u64,
    /// Graph nodes loaded.
    pub nodes: u64,
    /// Measured operations.
    pub ops: u64,
    /// Warm-up operations (discarded).
    pub warmup_ops: u64,
    /// Host software cost per operation, in core-nanoseconds.
    pub cpu_per_op: u64,
}

impl LinkCell {
    /// The Fig. 5 calibration: a pool a tenth of the database (the paper's
    /// 10 GB : 100 GB), 32 MB logs, a fifth of the ops again as warm-up,
    /// 0.55 core-ms of host software per op.
    pub fn fig5(
        barriers: bool,
        double_write: bool,
        page_size: usize,
        nodes: u64,
        ops: u64,
    ) -> Self {
        Self {
            barriers,
            double_write,
            full_page_writes: false,
            page_size,
            pool_pct: 10,
            log_file_blocks: 8192,
            nodes,
            ops,
            warmup_ops: ops / 5,
            cpu_per_op: 550_000,
        }
    }
}

/// LinkBench on the relational engine over two DuraSSDs, 128 clients, group
/// commit. A loaded graph costs ~900 B/node across the three trees (with
/// B+-tree fill factor); the tablespace gets generous headroom for churn.
/// The engine's telemetry attaches after the load, so `tel` measures the
/// run only. Returns the report and the engine as the run left it.
pub fn linkbench_cell(cell: &LinkCell, tel: &Telemetry) -> (LinkBenchReport, Engine<Ssd, Ssd>) {
    let est_db_bytes = cell.nodes * 900;
    let cfg = EngineConfig::builder(cell.page_size)
        .buffer_pool_bytes((est_db_bytes * cell.pool_pct / 100).max(512 * 1024))
        .double_write(cell.double_write)
        .full_page_writes(cell.full_page_writes)
        .barriers(cell.barriers)
        .data_pages((est_db_bytes * 4 / cell.page_size as u64).max(8192))
        .log_file_blocks(cell.log_file_blocks)
        .build();
    let (mut engine, t0) = durassd_engine(cfg, tel);
    let spec = LinkBenchSpec {
        warmup_ops: cell.warmup_ops,
        cpu_per_op: cell.cpu_per_op,
        ..LinkBenchSpec::scaled(cell.nodes, cell.ops)
    };
    let (mut graph, t1) = linkbench::load(&mut engine, &spec, t0);
    engine.attach_telemetry(tel.clone());
    let rep = linkbench::run(&mut engine, &mut graph, &spec, t1);
    (rep, engine)
}

/// The value of `--flag N` in `args`, or `default` when the flag is absent.
/// A flag without a value, or with one that is not an unsigned integer, is
/// an error naming both — never a silent fall-back to the default scale.
pub fn parse_arg_u64(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(default);
    };
    let value = args.get(i + 1).ok_or_else(|| format!("{name} needs a value"))?;
    value.parse().map_err(|_| format!("{name}: {value:?} is not an unsigned integer"))
}

/// [`parse_arg_u64`] over the process arguments; a bad value ends the
/// process with exit status 2.
pub fn arg_u64(name: &str, default: u64) -> u64 {
    let args: Vec<String> = std::env::args().collect();
    parse_arg_u64(&args, name, default).unwrap_or_else(|e| exit_usage(&e))
}

/// The value of `--flag value` in `args`, `None` when the flag is absent. A
/// flag at the end of the line, or followed by another `--flag`, is an error
/// naming it — never a file called `--check`, never silently no output.
pub fn parse_arg_str(args: &[String], name: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(value) if !value.starts_with("--") => Ok(Some(value.clone())),
        Some(flag) => Err(format!("{name} needs a value, got the flag {flag}")),
        None => Err(format!("{name} needs a value")),
    }
}

/// [`parse_arg_str`] over the process arguments; a missing value ends the
/// process with exit status 2.
pub fn arg_str(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    parse_arg_str(&args, name).unwrap_or_else(|e| exit_usage(&e))
}

/// Report a command-line error and end the process with exit status 2.
pub fn exit_usage(error: &str) -> ! {
    eprintln!("error: {error}");
    std::process::exit(2)
}

/// Whether a bare `--flag` is present.
pub fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Write `content` to `path` atomically: write a `.tmp` sibling, then
/// rename over the target, so a crash or ctrl-C mid-write never leaves a
/// truncated artifact behind.
pub fn write_atomic(path: &str, content: &str) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, content)?;
    std::fs::rename(&tmp, path)
}

/// The shared epilogue of every report bin: write `doc` to `path`
/// atomically and announce it as `{wrote}{path}`, then — when the bin was
/// invoked with `--check` — run `check` over the document, print every
/// violation and exit 1 if there are any. Returns whether the check ran
/// (and passed), so the bin can print what it just proved.
pub fn finish_report(
    doc: &str,
    path: Option<&str>,
    wrote: &str,
    check: impl FnOnce(&str) -> Vec<String>,
) -> bool {
    if let Some(path) = path {
        write_atomic(path, doc).unwrap_or_else(|e| panic!("report path {path} is writable: {e}"));
        println!("{wrote}{path}");
    }
    if !arg_flag("--check") {
        return false;
    }
    let failures = check(doc);
    for f in &failures {
        eprintln!("check FAILED: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
    true
}

/// Machine-readable telemetry output for the experiment binaries.
///
/// Every bin constructs one of these at the top of `main` and calls
/// [`TelemetrySink::add`] once per measured section (device row, pool size,
/// workload phase, ...) with the section's [`Telemetry`] registry, then
/// [`TelemetrySink::finish`] at the end. When the bin was invoked with
/// `--telemetry-out <path>`, finish writes one JSON document — an object
/// keyed by section label, each value the full registry export
/// ([`Telemetry::to_json`]: counters, gauges, histograms, and the
/// sampled time-series when sampling was enabled) — atomically (tmp +
/// rename) and prints the path. Without the flag everything is a no-op, so
/// the human-readable tables stay the default interface.
#[derive(Default)]
pub struct TelemetrySink {
    path: Option<String>,
    sections: Vec<(String, String)>,
}

impl TelemetrySink {
    /// Build from the process arguments (`--telemetry-out <path>`).
    pub fn from_args() -> Self {
        Self { path: arg_str("--telemetry-out"), sections: Vec::new() }
    }

    /// A sink that always writes to `path` (tests).
    pub fn to_path(path: &str) -> Self {
        Self { path: Some(path.to_string()), sections: Vec::new() }
    }

    /// Whether an output path was requested.
    pub fn enabled(&self) -> bool {
        self.path.is_some()
    }

    /// Snapshot a section's registry under `label`. Duplicate labels get a
    /// numeric suffix so no section silently overwrites another.
    pub fn add(&mut self, label: &str, tel: &Telemetry) {
        if self.path.is_none() {
            return;
        }
        let mut name = label.to_string();
        let mut n = 1usize;
        while self.sections.iter().any(|(l, _)| *l == name) {
            n += 1;
            name = format!("{label}#{n}");
        }
        self.sections.push((name, tel.to_json()));
    }

    /// Write the collected sections (if an output path was given) and print
    /// where they went. Returns the path written, if any.
    pub fn finish(&self) -> Option<String> {
        let path = self.path.as_deref()?;
        let mut w = Writer::new();
        w.obj();
        for (label, json) in &self.sections {
            w.key(label).raw(json);
        }
        w.end();
        let out = w.finish();
        write_atomic(path, &out).expect("telemetry output path is writable");
        println!("telemetry: wrote {} section(s) to {path}", self.sections.len());
        Some(path.to_string())
    }
}

/// Print a rule line for report tables.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// One-line segment mix: where the run's attributed nanoseconds went, as
/// shares of the `seg.*` histogram sums (so the domain needs
/// `enable_anatomy`, and the device needs the handle attached to charge its
/// own segments). `flush_cache` always prints, then every other kind with a
/// non-zero share.
///
/// This is the attribution the paper argues about in prose: a durable cache
/// deployment (nobarrier) shows `flush_cache 0.0%`, while a volatile cache
/// with barriers pays most of its time there.
pub fn segment_mix(tel: &Telemetry) -> String {
    let sums = SegKind::ALL.map(|k| tel.histogram(k.hist_name()).map_or(0, |h| h.sum()));
    let total: u128 = sums.iter().sum();
    if total == 0 {
        return "segments: none recorded".to_string();
    }
    let mut out = format!("segments {:>9.1}ms |", total as f64 / 1e6);
    let others =
        SegKind::ALL.into_iter().filter(|&k| k != SegKind::FlushCache && sums[k.index()] > 0);
    for k in std::iter::once(SegKind::FlushCache).chain(others) {
        let pct = 100.0 * sums[k.index()] as f64 / total as f64;
        out.push_str(&format!(" {} {pct:4.1}% ", k.label()));
    }
    out.trim_end().to_string()
}

/// One-line durability-health summary of an SSD: shorn reads, emergency
/// dumps (and how many blew the capacitor budget), the largest dump,
/// recovery runs, acked slots destroyed, then WAF, cache absorption and wear
/// spread. Printed next to the segment mix so a run's performance story and
/// its durability story sit on adjacent lines.
pub fn ssd_health_line(ssd: &Ssd) -> String {
    let (x, d) = (ssd.ssd_stats(), ssd.stats());
    // WAF is media pages per host page; absorption is the share of host
    // pages the write cache coalesced away before they could reach flash.
    let per_host_page = |n: u64| {
        if d.pages_written > 0 {
            n as f64 / d.pages_written as f64
        } else {
            0.0
        }
    };
    let waf = per_host_page(d.media_pages_written);
    let absorption = 100.0 * per_host_page(ssd.absorbed_overwrites());
    let (wear_min, wear_max) = ssd.wear_spread();
    format!(
        "ssd health | shorn_reads {}  dumps {} (over-budget {})  max_dump {}B  recoveries {}  \
         lost_acked {}  waf {waf:.2}  absorbed {absorption:.1}%  wear_spread {}",
        x.shorn_reads,
        x.dumps,
        x.dump_over_budget,
        x.max_dump_bytes,
        x.recoveries,
        x.lost_acked_slots,
        wear_max - wear_min
    )
}

/// Format nanoseconds compactly for latency tables (ns → µs → ms).
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 10_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Print the standard per-run telemetry epilogue: the segment mix plus one
/// latency line (p50/p99/p999/max) for every histogram in `names` that has
/// samples.
pub fn print_telemetry(indent: &str, tel: &Telemetry, names: &[&str]) {
    println!("{indent}{}", segment_mix(tel));
    for name in names {
        let Some(h) = tel.histogram(name).filter(|h| h.count() > 0) else { continue };
        println!(
            "{indent}{name}: p50 {:>8}  p99 {:>8}  p999 {:>8}  max {:>8}  ({} samples)",
            fmt_ns(h.p50()),
            fmt_ns(h.p99()),
            fmt_ns(h.p999()),
            fmt_ns(h.max()),
            h.count()
        );
    }
}

/// Per-segment-kind run histograms as a JSON object, empty kinds skipped:
/// `{"<label>":{"count":..,"total_ns":..,"p50":..,"p99":..,"max":..},...}`.
/// The table is the run-wide view of the latency anatomy — the per-op view
/// is [`write_breakdown_tail`].
fn write_seg_table(w: &mut Writer, tel: &Telemetry) {
    w.obj();
    for k in SegKind::ALL {
        let Some(h) = tel.histogram(k.hist_name()).filter(|h| h.count() > 0) else { continue };
        w.key(k.label()).obj().key("count").num(h.count()).key("total_ns").num(h.sum());
        w.key("p50").num(h.p50()).key("p99").num(h.p99()).key("max").num(h.max()).end();
    }
    w.end();
}

/// One captured op breakdown rendered as a `tail` object for
/// `durassd.latency.v1` rows: wall latency, its flush-cache share (the
/// durability gate `observe --check` runs on), the
/// trace-ID for cross-referencing the Chrome trace, and the non-zero
/// segments.
fn write_breakdown_tail(w: &mut Writer, bd: &OpBreakdown) {
    let flush = bd.seg(SegKind::FlushCache);
    let frac = flush as f64 / bd.wall.max(1) as f64;
    w.obj().key("wall").num(bd.wall).key("flush_cache_ns").num(flush);
    w.key("flush_frac").num(format_args!("{frac:.4}")).key("trace").num(bd.trace);
    bd.write_segments(w.key("segments"));
    w.end();
}

/// Append one `durassd.latency.v1` row for op `commit_op` out of `tel`:
/// percentile ladder, conservation-violation count, run segment table, and
/// the slowest captured breakdown. Writes nothing and returns `false` when
/// the op never ran (no histogram or no captured outlier).
pub fn write_latency_row(
    w: &mut Writer,
    workload: &str,
    mode: &str,
    device: &str,
    commit_op: &str,
    tel: &Telemetry,
) -> bool {
    let Some(h) = tel.histogram(commit_op).filter(|h| h.count() > 0) else { return false };
    let tail = tel.outliers_for(commit_op);
    let Some(tail) = tail.first() else { return false };
    w.obj().key("workload").str(workload).key("mode").str(mode).key("device").str(device);
    w.key("commit_op").str(commit_op).key("count").num(h.count()).key("min").num(h.min());
    w.key("p50").num(h.p50()).key("p99").num(h.p99()).key("p999").num(h.p999());
    w.key("max").num(h.max()).key("violations").num(tel.anatomy_violations());
    write_seg_table(w.key("segments"), tel);
    write_breakdown_tail(w.key("tail"), tail);
    w.end();
    true
}

/// Format an IOPS/TPS value with thousands separators.
pub fn fmt_rate(v: f64) -> String {
    let n = v.round() as u64;
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_formatting() {
        assert_eq!(fmt_rate(58.4), "58");
        assert_eq!(fmt_rate(15319.0), "15,319");
        assert_eq!(fmt_rate(1234567.0), "1,234,567");
    }

    #[test]
    fn segment_mix_shares() {
        let t = Telemetry::new();
        t.enable_anatomy(1);
        assert_eq!(segment_mix(&t), "segments: none recorded");
        let frame = t.frame("dev.x.write", 0);
        t.seg(SegKind::MediaProgram, 3_000_000);
        frame.end(3_000_000);
        assert!(segment_mix(&t).contains("flush_cache  0.0%"), "{}", segment_mix(&t));
        let frame = t.frame("dev.x.flush", 0);
        t.seg(SegKind::FlushCache, 1_000_000);
        frame.end(1_000_000);
        let line = segment_mix(&t);
        assert!(line.starts_with("segments       4.0ms | flush_cache 25.0%"), "{line}");
        assert!(line.ends_with("media_program 75.0%"), "{line}");
    }

    #[test]
    fn ns_formatting_scales() {
        assert_eq!(fmt_ns(900), "900ns");
        assert_eq!(fmt_ns(25_000), "25.0µs");
        assert_eq!(fmt_ns(12_000_000), "12.0ms");
    }

    #[test]
    fn telemetry_sink_writes_labeled_sections_atomically() {
        let dir = std::env::temp_dir().join("durassd_sink_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        let path = path.to_str().unwrap().to_string();
        let mut sink = TelemetrySink::to_path(&path);
        assert!(sink.enabled());
        let t = Telemetry::new();
        t.record("ops", 3);
        sink.add("row A", &t);
        sink.add("row A", &t); // duplicate label gets a suffix, not clobbered
        sink.add("tab\there", &t); // labels escape like every other string
        assert_eq!(sink.finish().as_deref(), Some(path.as_str()));
        let doc = std::fs::read_to_string(&path).unwrap();
        let v = telemetry::parse_json(&doc).unwrap();
        let obj = v.as_object().unwrap();
        assert!(obj.contains_key("row A") && obj.contains_key("row A#2"), "{doc}");
        assert!(doc.contains(r#""tab\there":{"#), "{doc}");
        assert!(!std::path::Path::new(&format!("{path}.tmp")).exists(), "tmp file renamed away");
        // Each section round-trips through the registry parser.
        std::fs::remove_file(&path).ok();
        // A sink without a path is inert.
        let mut off = TelemetrySink::default();
        off.add("x", &t);
        assert!(!off.enabled() && off.finish().is_none());
    }

    #[test]
    fn numeric_flags_parse_or_name_the_offender() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let a = args(&["waf", "--fio-ops", "4000", "--check"]);
        assert_eq!(parse_arg_u64(&a, "--fio-ops", 7), Ok(4000));
        assert_eq!(parse_arg_u64(&a, "--txns", 7), Ok(7), "absent flag: the default");
        // An unparsable value must not silently run the default scale.
        let err = parse_arg_u64(&args(&["waf", "--fio-ops", "4k"]), "--fio-ops", 7).unwrap_err();
        assert!(err.contains("--fio-ops") && err.contains("4k"), "{err}");
        // A flag without a value: at the end, or swallowing the next flag.
        let err = parse_arg_u64(&args(&["waf", "--fio-ops"]), "--fio-ops", 7).unwrap_err();
        assert!(err.contains("--fio-ops"), "{err}");
        let swallowed = args(&["waf", "--fio-ops", "--check"]);
        let err = parse_arg_u64(&swallowed, "--fio-ops", 7).unwrap_err();
        assert!(err.contains("--fio-ops") && err.contains("--check"), "{err}");
    }

    #[test]
    fn string_flags_parse_or_name_the_offender() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let a = args(&["waf", "--out", "w.json", "--check"]);
        assert_eq!(parse_arg_str(&a, "--out"), Ok(Some("w.json".to_string())));
        assert_eq!(parse_arg_str(&a, "--telemetry-out"), Ok(None), "absent flag");
        // `--out --check` must not write a file named `--check` and skip the check.
        let err = parse_arg_str(&args(&["waf", "--out", "--check"]), "--out").unwrap_err();
        assert!(err.contains("--out") && err.contains("--check"), "{err}");
        // A trailing flag must not silently disable the output.
        let err = parse_arg_str(&args(&["waf", "--telemetry-out"]), "--telemetry-out").unwrap_err();
        assert!(err.contains("--telemetry-out"), "{err}");
    }

    #[test]
    fn devices_construct() {
        assert!(durassd_bench(true).config().cache_enabled);
        assert!(!ssd_a_bench(false).config().cache_enabled);
        assert!(ssd_b_bench(true).config().cache_slots < ssd_a_bench(true).config().cache_slots);
        assert!(hdd_bench(true).config().cache_enabled);
    }
}
