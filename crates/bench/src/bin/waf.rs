//! **waf** — write-provenance observatory: end-to-end write-amplification
//! attribution.
//!
//! Every page write in the stack now carries a [`WriteCause`] from the
//! engine that issued it down to the NAND program that retired it. This bin
//! runs three workloads — fio-style overwrite-heavy random writes, YCSB-A
//! on the document store, and a TPC-C slice on the relational engine — each
//! in two deployments:
//!
//! * **durable** — DuraSSD (capacitor-backed cache) with barriers OFF, the
//!   paper's deployment: fsync is a no-op because the cache itself is
//!   durable, so overwrites coalesce in DRAM and never reach flash;
//! * **volatile** — SSD-A (volatile cache) with barriers ON: every fsync is
//!   a real FLUSH CACHE, the cache drains constantly, and nothing is
//!   absorbed.
//!
//! Per row it reports host pages, media pages, WAF (media/host), the
//! overwrites the cache absorbed, and the full per-cause breakdown at both
//! boundaries. The per-cause counts must sum exactly to the totals — the
//! conservation invariant [`bench::schema::check_waf_report`] gates on —
//! so a write the attribution layer cannot explain fails `--check`.
//!
//! Flags: `--fio-ops N`, `--fio-span N`, `--ycsb-records N`, `--ycsb-ops N`,
//! `--warehouses N`, `--txns N`, `--out PATH` (default `BENCH_waf.json`),
//! `--check` (validate the written JSON; exit non-zero on violation).
//!
//! Run: `cargo run -p bench --release --bin waf`

use bench::schema::{check_waf_report, WAF_SCHEMA};
use bench::{
    arg_str, arg_u64, deployment_labels, finish_report, fio_cell, rule, tpcc_cell, ycsb_cell,
};
use durassd::Ssd;
use simkit::json::Writer;
use storage::device::{BlockDevice, CauseCounts, DeviceStats, WriteCause};

/// One workload × deployment cell of the observatory.
struct WafRow {
    workload: &'static str,
    mode: &'static str,
    device: &'static str,
    host_pages: u64,
    media_pages: u64,
    absorbed: u64,
    gc_erases: u64,
    wear_spread: u32,
    host_by_cause: CauseCounts,
    media_by_cause: CauseCounts,
}

impl WafRow {
    fn waf(&self) -> f64 {
        self.media_pages as f64 / self.host_pages.max(1) as f64
    }

    /// Share of host pages that died in DRAM instead of costing a program.
    fn absorption_pct(&self) -> f64 {
        100.0 * self.absorbed as f64 / self.host_pages.max(1) as f64
    }
}

/// Fold one SSD's counters into a row, summing element-wise: conservation
/// survives addition.
fn accumulate(row: &mut WafRow, ssd: &Ssd) {
    let s: DeviceStats = ssd.stats();
    row.host_pages += s.pages_written;
    row.media_pages += s.media_pages_written;
    row.absorbed += ssd.absorbed_overwrites();
    row.gc_erases += s.gc_erases;
    let (wear_min, wear_max) = ssd.wear_spread();
    row.wear_spread = row.wear_spread.max(wear_max - wear_min);
    for c in WriteCause::ALL {
        row.host_by_cause[c.index()] += s.pages_by_cause[c.index()];
        row.media_by_cause[c.index()] += s.media_pages_by_cause[c.index()];
    }
}

/// The row of one finished cell: the counters of every SSD under it (the
/// TPC-C cell sums its data and log devices, so the per-cause split shows
/// the whole engine).
fn row_of(workload: &'static str, durable: bool, devices: &[&Ssd]) -> WafRow {
    let (mode, device) = deployment_labels(durable);
    let mut row = WafRow {
        workload,
        mode,
        device,
        host_pages: 0,
        media_pages: 0,
        absorbed: 0,
        gc_erases: 0,
        wear_spread: 0,
        host_by_cause: CauseCounts::default(),
        media_by_cause: CauseCounts::default(),
    };
    for ssd in devices {
        accumulate(&mut row, ssd);
    }
    row
}

/// The six cells (see `bench::{fio_cell, ycsb_cell, tpcc_cell}`), durable
/// before volatile. In the fio cell the volatile deployment drains the
/// cache on every fsync, so no overwrite can ever find a still-dirty slot
/// (absorbed is exactly zero).
fn rows(
    (fio_ops, fio_span): (u64, u64),
    (records, ycsb_ops): (u64, u64),
    (warehouses, txns): (u32, u64),
) -> Vec<WafRow> {
    let mut rows = Vec::new();
    for durable in [true, false] {
        let vol = fio_cell(durable, fio_ops, fio_span, None);
        rows.push(row_of("fio_overwrite_4k", durable, &[vol.device()]));
    }
    for durable in [true, false] {
        let store = ycsb_cell(durable, records, ycsb_ops, None);
        rows.push(row_of("ycsb_a_docstore", durable, &[store.device()]));
    }
    for durable in [true, false] {
        let engine = tpcc_cell(durable, warehouses, txns, None);
        let devices = [engine.data_volume().device(), engine.log_volume().device()];
        rows.push(row_of("tpcc_relstore", durable, &devices));
    }
    rows
}

fn write_by_cause(w: &mut Writer, counts: &CauseCounts) {
    w.obj();
    for c in WriteCause::ALL {
        w.key(c.label()).num(counts[c.index()]);
    }
    w.end();
}

fn render_json(rows: &[WafRow]) -> String {
    let mut w = Writer::new();
    w.obj().key("schema").str(WAF_SCHEMA).key("rows").arr();
    for r in rows {
        w.obj().key("workload").str(r.workload).key("mode").str(r.mode);
        w.key("device").str(r.device).key("host_pages").num(r.host_pages);
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

fn main() {
    let fio_ops = arg_u64("--fio-ops", 40_000);
    let fio_span = arg_u64("--fio-span", 2_048);
    let ycsb_records = arg_u64("--ycsb-records", 1_000);
    let ycsb_ops = arg_u64("--ycsb-ops", 6_000);
    let warehouses = arg_u64("--warehouses", 1) as u32;
    let txns = arg_u64("--txns", 300);
    let out = arg_str("--out").unwrap_or_else(|| "BENCH_waf.json".to_string());

    println!(
        "waf: write-provenance observatory — fio {fio_ops} ops over {fio_span} blocks, \
         YCSB-A {ycsb_records} recs/{ycsb_ops} ops, TPC-C {warehouses} wh/{txns} txns"
    );
    println!("durable = DuraSSD nobarrier; volatile = SSD-A with barriers\n");

    let rows = rows((fio_ops, fio_span), (ycsb_records, ycsb_ops), (warehouses, txns));

    println!(
        "{:<18} {:<9} {:>10} {:>10} {:>6} {:>10} {:>8} {:>6}",
        "workload", "mode", "host pgs", "media pgs", "waf", "absorbed", "absorb%", "wear"
    );
    rule(84);
    for r in &rows {
        println!(
            "{:<18} {:<9} {:>10} {:>10} {:>6.2} {:>10} {:>7.1}% {:>6}",
            r.workload,
            r.mode,
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
    for r in &rows {
        let mut parts = Vec::new();
        for c in WriteCause::ALL {
            let n = r.media_by_cause[c.index()];
            if n > 0 {
                parts.push(format!("{} {n}", c.label()));
            }
        }
        println!("{:<18} {:<9} media by cause: {}", r.workload, r.mode, parts.join("  "));
    }

    if finish_report(&render_json(&rows), Some(&out), "\nwrote ", check_waf_report) {
        println!("check : OK (schema, conservation, durable ≥ volatile absorption)");
    }
}
