//! **observe** — the paper's one deployment contrast, run once and read three
//! ways: write amplification, commit-latency anatomy, read tail.
//!
//! Four workloads — fio-style fsync-per-write random writes, YCSB-A on the
//! document store, a TPC-C slice on the relational engine, and 64 readers
//! beside 16 fsyncing writers on the raw device — each in two deployments:
//!
//! * **durable** — DuraSSD (capacitor-backed cache) with barriers OFF, the
//!   paper's deployment: fsync is acknowledged from the durable cache, so
//!   overwrites coalesce in DRAM and no commit waits on a FLUSH CACHE drain;
//! * **volatile** — SSD-A (volatile cache) with barriers ON: every fsync is
//!   a real FLUSH CACHE, the cache drains constantly, nothing is absorbed,
//!   and reads queue behind the drains.
//!
//! Every cell is built once with an anatomy-enabled registry attached at
//! every layer (observing does not perturb the model: the counters are the
//! ones an unobserved run produces). Two documents are rendered from that
//! run:
//!
//! * `BENCH_waf.json` (`durassd.waf.v1`) off the devices' counters: host
//!   pages, media pages, WAF, the overwrites the cache absorbed and the
//!   per-[`WriteCause`] breakdown at both boundaries for the three
//!   write-path workloads. The per-cause counts must sum exactly to the
//!   totals — the conservation invariant
//!   [`bench::schema::check_waf_report`] gates on.
//! * `BENCH_latency.json` (`durassd.latency.v1`) off the registry: per row
//!   the commit-op percentile ladder, the per-segment-kind histograms of the
//!   run and the slowest captured op's full breakdown. The mixed cell adds
//!   the rows `tail_mixed_{reads,writes}`. `--check` gates the paper's
//!   durability claim restated as latency anatomy — durable tails contain
//!   **zero** flush-cache time, every volatile tail is flush-dominated, and
//!   the volatile read p99 is at least ten times the durable one
//!   ([`bench::schema::check_latency_report`]).
//!
//! Flags: `--fio-ops N`, `--fio-span N`, `--ycsb-records N`, `--ycsb-ops N`,
//! `--warehouses N`, `--txns N`, `--tail-ops N`, `--top-k N` (outliers kept
//! per op), `--waf-out PATH` (default `BENCH_waf.json`), `--latency-out PATH`
//! (default `BENCH_latency.json`), `--check`, `--trace-out PREFIX` (per cell
//! `PREFIX.<workload>.<mode>.{trace.json,series.csv,outliers.json}`: the
//! Chrome trace, the gauge series sampled every 5 ms of virtual time, the
//! tail outliers), `--telemetry-out PATH` (every cell's full registry).
//! With both `--trace-out` and `--check`, every cell's trace, series and
//! registry must pass [`bench::schema::check_traced_cell`].
//!
//! Open a trace in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`:
//! each host operation (a `doc.set`, an `engine.commit`, ...) is one track,
//! and every span it caused below it — WAL flush, pool eviction, device
//! write, FLUSH CACHE, cache drain, NAND program — nests on that track.
//!
//! Run: `cargo run -p bench --release --bin observe`

use bench::schema::{
    check_latency_report, check_traced_cell, check_waf_report, TracedCell, LATENCY_SCHEMA,
    WAF_SCHEMA,
};
use bench::{
    arg_str, arg_u64, deployment_labels, finish_report, fio_cell, fmt_ns, rule, tail_cell,
    tpcc_cell, write_atomic, write_latency_row, ycsb_cell, TelemetrySink,
};
use durassd::Ssd;
use simkit::json::Writer;
use storage::device::{BlockDevice, CauseCounts, WriteCause};
use telemetry::{SegKind, Telemetry};

/// Virtual time between two gauge samples of a traced cell.
const SAMPLE_CADENCE: simkit::Nanos = 5_000_000;

/// The counters of every SSD under a finished cell, summed element-wise
/// (conservation survives addition): the TPC-C cell sums its data and log
/// devices, so the per-cause split shows the whole engine.
#[derive(Default)]
struct Counters {
    host_pages: u64,
    media_pages: u64,
    absorbed: u64,
    gc_erases: u64,
    wear_spread: u32,
    host_by_cause: CauseCounts,
    media_by_cause: CauseCounts,
}

impl Counters {
    fn of(devices: &[&Ssd]) -> Self {
        let mut sum = Self::default();
        for ssd in devices {
            let s = ssd.stats();
            sum.host_pages += s.pages_written;
            sum.media_pages += s.media_pages_written;
            sum.absorbed += ssd.absorbed_overwrites();
            sum.gc_erases += s.gc_erases;
            let (wear_min, wear_max) = ssd.wear_spread();
            sum.wear_spread = sum.wear_spread.max(wear_max - wear_min);
            for c in WriteCause::ALL {
                sum.host_by_cause[c.index()] += s.pages_by_cause[c.index()];
                sum.media_by_cause[c.index()] += s.media_pages_by_cause[c.index()];
            }
        }
        sum
    }

    fn waf(&self) -> f64 {
        self.media_pages as f64 / self.host_pages.max(1) as f64
    }

    /// Share of host pages that died in DRAM instead of costing a program.
    fn absorption_pct(&self) -> f64 {
        100.0 * self.absorbed as f64 / self.host_pages.max(1) as f64
    }
}

/// One workload × deployment cell after its single run.
struct Cell {
    name: &'static str,
    mode: &'static str,
    device: &'static str,
    /// The WAF row; the mixed cell has none (`durassd.waf.v1` holds the
    /// three write-path workloads).
    counters: Option<Counters>,
    /// `(workload, commit op)` of each latency row read off `tel`.
    ops: Vec<(&'static str, &'static str)>,
    tel: Telemetry,
}

/// Flag values of one run.
struct Scale {
    fio_ops: u64,
    fio_span: u64,
    ycsb_records: u64,
    ycsb_ops: u64,
    warehouses: u32,
    txns: u64,
    tail_ops: u64,
    top_k: u64,
    trace: bool,
}

/// Every cell (see `bench::{fio_cell, ycsb_cell, tpcc_cell, tail_cell}`),
/// durable before volatile, each built once with its own registry.
///
/// The commit op is what acknowledges durability in each workload: for fio
/// the fsync itself — a real FLUSH CACHE frame when barriers are on, the
/// in-kernel soft-fsync frame (pure `wal_fsync` time) on the nobarrier
/// deployment; for YCSB `doc.set` (batched commits close inside the set
/// frame that triggered them); for TPC-C `engine.commit` (WAL group commit
/// and log flush).
///
/// In the fio cell the volatile deployment drains the cache on every fsync,
/// so no overwrite can ever find a still-dirty slot (absorbed is exactly
/// zero).
fn cells(scale: &Scale) -> Vec<Cell> {
    let tel = || {
        let tel = Telemetry::new();
        tel.enable_anatomy(scale.top_k as usize);
        if scale.trace {
            tel.enable_tracing(1 << 20);
            tel.enable_sampling(SAMPLE_CADENCE);
        }
        tel
    };
    let cell = |name, durable, counters, ops, tel| {
        let (mode, device) = deployment_labels(durable);
        Cell { name, mode, device, counters, ops, tel }
    };
    let mut cells = Vec::new();
    for durable in [true, false] {
        let tel = tel();
        let vol = fio_cell(durable, scale.fio_ops, scale.fio_span, &tel);
        let commit_op = if durable { "dev.fio.fsync_soft" } else { "dev.fio.flush" };
        let (name, counters) = ("fio_overwrite_4k", Counters::of(&[vol.device()]));
        cells.push(cell(name, durable, Some(counters), vec![(name, commit_op)], tel));
    }
    for durable in [true, false] {
        let tel = tel();
        let store = ycsb_cell(durable, scale.ycsb_records, scale.ycsb_ops, &tel);
        let (name, counters) = ("ycsb_a_docstore", Counters::of(&[store.device()]));
        cells.push(cell(name, durable, Some(counters), vec![(name, "doc.set")], tel));
    }
    for durable in [true, false] {
        let tel = tel();
        let engine = tpcc_cell(durable, scale.warehouses, scale.txns, &tel);
        let devices = [engine.data_volume().device(), engine.log_volume().device()];
        let (name, counters) = ("tpcc_relstore", Counters::of(&devices));
        cells.push(cell(name, durable, Some(counters), vec![(name, "engine.commit")], tel));
    }
    for durable in [true, false] {
        let tel = tel();
        tail_cell(durable, scale.tail_ops, &tel);
        let ops =
            vec![("tail_mixed_reads", "dev.tail.read"), ("tail_mixed_writes", "dev.tail.write")];
        cells.push(cell("tail_mixed", durable, None, ops, tel));
    }
    cells
}

/// The rows of the WAF document: the cells that carry counters.
fn waf_rows(cells: &[Cell]) -> impl Iterator<Item = (&Cell, &Counters)> {
    cells.iter().filter_map(|c| Some((c, c.counters.as_ref()?)))
}

/// The rows of the latency document: `(cell, workload, commit op)`.
fn latency_rows(cells: &[Cell]) -> impl Iterator<Item = (&Cell, &'static str, &'static str)> {
    cells.iter().flat_map(|c| c.ops.iter().map(move |&(workload, op)| (c, workload, op)))
}

fn write_by_cause(w: &mut Writer, counts: &CauseCounts) {
    w.obj();
    for c in WriteCause::ALL {
        w.key(c.label()).num(counts[c.index()]);
    }
    w.end();
}

fn render_waf(cells: &[Cell]) -> String {
    let mut w = Writer::new();
    w.obj().key("schema").str(WAF_SCHEMA).key("rows").arr();
    for (cell, r) in waf_rows(cells) {
        w.obj().key("workload").str(cell.name).key("mode").str(cell.mode);
        w.key("device").str(cell.device).key("host_pages").num(r.host_pages);
        w.key("media_pages").num(r.media_pages).key("waf").num(format_args!("{:.4}", r.waf()));
        w.key("absorbed_overwrites").num(r.absorbed);
        w.key("absorption_pct").num(format_args!("{:.2}", r.absorption_pct()));
        w.key("gc_erases").num(r.gc_erases).key("wear_spread").num(r.wear_spread);
        write_by_cause(w.key("host_by_cause"), &r.host_by_cause);
        write_by_cause(w.key("media_by_cause"), &r.media_by_cause);
        w.end();
    }
    w.end().end();
    w.finish()
}

fn render_latency(cells: &[Cell]) -> String {
    let mut w = Writer::new();
    w.obj().key("schema").str(LATENCY_SCHEMA).key("rows").arr();
    for (c, workload, op) in latency_rows(cells) {
        let ran = write_latency_row(&mut w, workload, c.mode, c.device, op, &c.tel);
        assert!(ran, "{workload}/{}: commit op recorded and captured", c.mode);
    }
    w.end().end();
    w.finish()
}

fn print_waf(cells: &[Cell]) {
    println!(
        "{:<18} {:<9} {:>10} {:>10} {:>6} {:>10} {:>8} {:>6}",
        "workload", "mode", "host pgs", "media pgs", "waf", "absorbed", "absorb%", "wear"
    );
    rule(84);
    for (c, r) in waf_rows(cells) {
        println!(
            "{:<18} {:<9} {:>10} {:>10} {:>6.2} {:>10} {:>7.1}% {:>6}",
            c.name,
            c.mode,
            r.host_pages,
            r.media_pages,
            r.waf(),
            r.absorbed,
            r.absorption_pct(),
            r.wear_spread,
        );
    }
    println!();
    // The attribution story: where every media page came from, per row.
    for (c, r) in waf_rows(cells) {
        let mut parts = Vec::new();
        for cause in WriteCause::ALL {
            let n = r.media_by_cause[cause.index()];
            if n > 0 {
                parts.push(format!("{} {n}", cause.label()));
            }
        }
        println!("{:<18} {:<9} media by cause: {}", c.name, c.mode, parts.join("  "));
    }
}

fn print_latency(cells: &[Cell]) {
    println!(
        "{:<18} {:<9} {:<20} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "workload", "mode", "commit op", "count", "p50", "p99", "p99.9", "max"
    );
    rule(102);
    for (c, workload, op) in latency_rows(cells) {
        let h = c.tel.histogram(op).expect("commit op recorded");
        println!(
            "{:<18} {:<9} {:<20} {:>8} {:>10} {:>10} {:>10} {:>10}",
            workload,
            c.mode,
            op,
            h.count(),
            fmt_ns(h.p50()),
            fmt_ns(h.p99()),
            fmt_ns(h.p999()),
            fmt_ns(h.max()),
        );
    }
    println!();
    // The anatomy story: where the slowest op's nanoseconds went.
    for (c, workload, op) in latency_rows(cells) {
        let tail = c.tel.outliers_for(op);
        let Some(bd) = tail.first() else { continue };
        let mut parts = Vec::new();
        for k in SegKind::ALL {
            let ns = bd.seg(k);
            if ns > 0 {
                parts.push(format!("{} {}", k.label(), fmt_ns(ns)));
            }
        }
        println!("{:<18} {:<9} tail {} = {}", workload, c.mode, fmt_ns(bd.wall), parts.join("  "));
    }
    // The paper's tail-tolerance claim: reads beside fsyncing writers.
    let reads = |mode| {
        let c = cells.iter().find(|c| c.name == "tail_mixed" && c.mode == mode);
        c.and_then(|c| c.tel.histogram("dev.tail.read")).expect("the mixed cell ran")
    };
    let (dur, vol) = (reads("durable"), reads("volatile"));
    println!(
        "\nread-tail improvement: p99 {:.1}x   p99.9 {:.1}x",
        vol.p99() as f64 / dur.p99().max(1) as f64,
        vol.p999() as f64 / dur.p999().max(1) as f64
    );
}

/// Write every cell's trace, gauge series and tail outliers under `prefix`,
/// and return what [`check_traced_cell`] finds wrong with them.
fn write_traces(prefix: &str, cells: &[Cell]) -> Vec<String> {
    let mut failures = Vec::new();
    for c in cells {
        let base = format!("{prefix}.{}.{}", c.name, c.mode);
        let trace = c.tel.trace_chrome_json().expect("tracing enabled");
        let series = c.tel.series_csv().expect("sampling enabled");
        write_atomic(&format!("{base}.trace.json"), &trace).expect("trace path is writable");
        write_atomic(&format!("{base}.series.csv"), &series).expect("series path is writable");
        if let Some(doc) = c.tel.outliers_json() {
            write_atomic(&format!("{base}.outliers.json"), &doc)
                .expect("outlier output path is writable");
        }
        let registry = c.tel.to_json();
        let (workload, mode) = (c.name, c.mode);
        let cell =
            TracedCell { workload, mode, trace: &trace, series: &series, registry: &registry };
        failures.extend(check_traced_cell(&cell));
    }
    println!("\nwrote per-cell traces, series and outliers under {prefix}.*");
    failures
}

fn main() {
    let trace_out = arg_str("--trace-out");
    let scale = Scale {
        fio_ops: arg_u64("--fio-ops", 40_000),
        fio_span: arg_u64("--fio-span", 2_048),
        ycsb_records: arg_u64("--ycsb-records", 1_000),
        ycsb_ops: arg_u64("--ycsb-ops", 6_000),
        warehouses: arg_u64("--warehouses", 1) as u32,
        txns: arg_u64("--txns", 300),
        tail_ops: arg_u64("--tail-ops", 60_000),
        top_k: arg_u64("--top-k", 8),
        trace: trace_out.is_some(),
    };
    let waf_out = arg_str("--waf-out").unwrap_or_else(|| "BENCH_waf.json".to_string());
    let latency_out = arg_str("--latency-out").unwrap_or_else(|| "BENCH_latency.json".to_string());
    let mut sink = TelemetrySink::from_args();

    println!(
        "observe: fio {} ops over {} blocks, YCSB-A {} recs/{} ops, TPC-C {} wh/{} txns, \
         mixed 64 readers + 16 writers (fsync/8) {} ops",
        scale.fio_ops,
        scale.fio_span,
        scale.ycsb_records,
        scale.ycsb_ops,
        scale.warehouses,
        scale.txns,
        scale.tail_ops
    );
    println!("durable = DuraSSD nobarrier; volatile = SSD-A with barriers\n");

    let cells = cells(&scale);
    print_waf(&cells);
    println!();
    print_latency(&cells);

    for c in &cells {
        sink.add(&format!("{}/{}", c.name, c.mode), &c.tel);
    }
    sink.finish();
    let traced = trace_out.map(|prefix| write_traces(&prefix, &cells));

    if finish_report(&render_waf(&cells), Some(&waf_out), "\nwrote ", check_waf_report) {
        println!("check : OK (schema, conservation, durable ≥ volatile absorption)");
    }
    if finish_report(&render_latency(&cells), Some(&latency_out), "wrote ", check_latency_report) {
        println!(
            "check : OK (schema, conservation, durable tails flush-free, volatile tails \
             flush-dominated, read p99 ≥ 10x)"
        );
    }
    // The traces were written above, before any check could end the run.
    if let Some(failures) = traced {
        if finish_report("", None, "", |_| failures) {
            println!(
                "check : OK (traces well-formed, commit chain on one track, series, registry \
                 histograms)"
            );
        }
    }
}
