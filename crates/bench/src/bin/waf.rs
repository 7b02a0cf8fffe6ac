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
    arg_flag, arg_str, arg_u64, deployment_labels, fio_cell, rule, tpcc_cell, write_atomic,
    ycsb_cell,
};
use durassd::Ssd;
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

/// Max-minus-min erase count across the NAND blocks of one SSD.
fn wear_spread(ssd: &Ssd) -> u32 {
    let profile = ssd.wear_profile();
    let min = profile.iter().map(|&(e, _)| e).min().unwrap_or(0);
    let max = profile.iter().map(|&(e, _)| e).max().unwrap_or(0);
    max - min
}

/// Fold one SSD's counters into a row, summing element-wise: conservation
/// survives addition.
fn accumulate(row: &mut WafRow, ssd: &Ssd) {
    let s: DeviceStats = ssd.stats();
    row.host_pages += s.pages_written;
    row.media_pages += s.media_pages_written;
    row.absorbed += ssd.absorbed_overwrites();
    row.gc_erases += s.gc_erases;
    row.wear_spread = row.wear_spread.max(wear_spread(ssd));
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

fn by_cause_json(counts: &CauseCounts) -> String {
    let mut out = String::from("{");
    for (i, c) in WriteCause::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", c.label(), counts[c.index()]));
    }
    out.push('}');
    out
}

fn render_json(rows: &[WafRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{{\"schema\":\"{WAF_SCHEMA}\",\"rows\":["));
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"workload\":\"{}\",\"mode\":\"{}\",\"device\":\"{}\",\
             \"host_pages\":{},\"media_pages\":{},\"waf\":{:.4},\
             \"absorbed_overwrites\":{},\"absorption_pct\":{:.2},\
             \"gc_erases\":{},\"wear_spread\":{},\
             \"host_by_cause\":{},\"media_by_cause\":{}}}",
            r.workload,
            r.mode,
            r.device,
            r.host_pages,
            r.media_pages,
            r.waf(),
            r.absorbed,
            r.absorption_pct(),
            r.gc_erases,
            r.wear_spread,
            by_cause_json(&r.host_by_cause),
            by_cause_json(&r.media_by_cause),
        ));
    }
    out.push_str("]}");
    out
}

fn main() {
    let fio_ops = arg_u64("--fio-ops", 40_000);
    let fio_span = arg_u64("--fio-span", 2_048);
    let ycsb_records = arg_u64("--ycsb-records", 1_000);
    let ycsb_ops = arg_u64("--ycsb-ops", 6_000);
    let warehouses = arg_u64("--warehouses", 1) as u32;
    let txns = arg_u64("--txns", 300);
    let out = arg_str("--out").unwrap_or_else(|| "BENCH_waf.json".to_string());
    let check = arg_flag("--check");

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

    let doc = render_json(&rows);
    write_atomic(&out, &doc).expect("waf output path is writable");
    println!("\nwrote {out}");

    if check {
        let failures = check_waf_report(&doc);
        if failures.is_empty() {
            println!("check : OK (schema, conservation, durable ≥ volatile absorption)");
        } else {
            for f in &failures {
                eprintln!("check FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
}
