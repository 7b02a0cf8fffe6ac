//! **latency** — per-op latency anatomy: where every commit nanosecond went.
//!
//! Every host operation runs inside a telemetry *frame*; the layers below it
//! (SATA link, NAND channels, cache admission, GC, WAL, map persistence,
//! FLUSH CACHE drains) charge causally attributed segments against that
//! frame, and the close audits the conservation identity — segments never
//! exceed the op's wall latency, with the un-attributed remainder swept into
//! a `host` segment. This bin runs the same three workloads as `waf` — fio
//! fsync-per-write random writes, YCSB-A on the document store, a TPC-C
//! slice on the relational engine — each in two deployments:
//!
//! * **durable** — DuraSSD (capacitor-backed cache), barriers OFF: fsync is
//!   acknowledged from the durable cache, so no commit ever waits on a
//!   FLUSH CACHE drain;
//! * **volatile** — SSD-A (volatile cache), barriers ON: every commit pays a
//!   real cache drain, and the tail is flush-dominated.
//!
//! Per row it reports the commit-op percentile ladder, the per-segment-kind
//! histograms for the whole run, and the slowest captured commit's full
//! breakdown (the "tail" object). `--check` gates the paper's durability
//! claim restated as latency anatomy: durable tails contain **zero**
//! flush-cache time while every volatile tail is flush-dominated
//! ([`bench::schema::check_latency_report`]).
//!
//! Flags: `--fio-ops N`, `--fio-span N`, `--ycsb-records N`, `--ycsb-ops N`,
//! `--warehouses N`, `--txns N`, `--top-k N` (outliers kept per op),
//! `--out PATH` (default `BENCH_latency.json`), `--check`,
//! `--trace-out PREFIX` (per-row Chrome trace + tail-outlier JSON sibling).
//!
//! Run: `cargo run -p bench --release --bin latency`

use bench::schema::{check_latency_report, LATENCY_SCHEMA};
use bench::{
    arg_str, arg_u64, deployment_labels, finish_report, fio_cell, fmt_ns, rule, tpcc_cell,
    write_atomic, write_latency_row, ycsb_cell,
};
use simkit::json::Writer;
use telemetry::{SegKind, Telemetry};

/// One workload × deployment cell; the row keeps its whole registry so the
/// renderer can read commit histograms, segment histograms, and outliers.
struct LatRow {
    workload: &'static str,
    mode: &'static str,
    device: &'static str,
    commit_op: &'static str,
    tel: Telemetry,
}

/// A fresh anatomy-enabled registry for one row.
fn row_tel(top_k: u64, trace: bool) -> Telemetry {
    let tel = Telemetry::new();
    tel.enable_anatomy(top_k as usize);
    if trace {
        tel.enable_tracing(1 << 20);
    }
    tel
}

/// The six cells (see `bench::{fio_cell, ycsb_cell, tpcc_cell}`), durable
/// before volatile, each with its own registry attached at every layer.
///
/// The commit op is what acknowledges durability in each workload: for fio
/// the fsync itself — a real FLUSH CACHE frame when barriers are on, the
/// in-kernel soft-fsync frame (pure `wal_fsync` time) on the nobarrier
/// deployment; for YCSB `doc.set` (batched commits close inside the set
/// frame that triggered them); for TPC-C `engine.commit` (WAL group commit
/// + log flush).
fn rows(
    (fio_ops, fio_span): (u64, u64),
    (records, ycsb_ops): (u64, u64),
    (warehouses, txns): (u32, u64),
    top_k: u64,
    trace: bool,
) -> Vec<LatRow> {
    let row = |workload, commit_op, durable, tel| {
        let (mode, device) = deployment_labels(durable);
        LatRow { workload, mode, device, commit_op, tel }
    };
    let mut rows = Vec::new();
    for durable in [true, false] {
        let tel = row_tel(top_k, trace);
        fio_cell(durable, fio_ops, fio_span, Some(&tel));
        let commit_op = if durable { "dev.fio.fsync_soft" } else { "dev.fio.flush" };
        rows.push(row("fio_overwrite_4k", commit_op, durable, tel));
    }
    for durable in [true, false] {
        let tel = row_tel(top_k, trace);
        ycsb_cell(durable, records, ycsb_ops, Some(&tel));
        rows.push(row("ycsb_a_docstore", "doc.set", durable, tel));
    }
    for durable in [true, false] {
        let tel = row_tel(top_k, trace);
        tpcc_cell(durable, warehouses, txns, Some(&tel));
        rows.push(row("tpcc_relstore", "engine.commit", durable, tel));
    }
    rows
}

fn render_json(rows: &[LatRow]) -> String {
    let mut w = Writer::new();
    w.obj().key("schema").str(LATENCY_SCHEMA).key("rows").arr();
    for r in rows {
        let ran = write_latency_row(&mut w, r.workload, r.mode, r.device, r.commit_op, &r.tel);
        assert!(ran, "{}/{}: commit op recorded and captured", r.workload, r.mode);
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
    let top_k = arg_u64("--top-k", 8);
    let out = arg_str("--out").unwrap_or_else(|| "BENCH_latency.json".to_string());
    let trace_out = arg_str("--trace-out");

    println!(
        "latency: per-op anatomy — fio {fio_ops} ops over {fio_span} blocks, \
         YCSB-A {ycsb_records} recs/{ycsb_ops} ops, TPC-C {warehouses} wh/{txns} txns"
    );
    println!("durable = DuraSSD nobarrier; volatile = SSD-A with barriers\n");

    let trace = trace_out.is_some();
    let rows =
        rows((fio_ops, fio_span), (ycsb_records, ycsb_ops), (warehouses, txns), top_k, trace);

    println!(
        "{:<18} {:<9} {:<20} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "workload", "mode", "commit op", "count", "p50", "p99", "p99.9", "max"
    );
    rule(102);
    for r in &rows {
        let h = r.tel.histogram(r.commit_op).expect("commit op recorded");
        println!(
            "{:<18} {:<9} {:<20} {:>8} {:>10} {:>10} {:>10} {:>10}",
            r.workload,
            r.mode,
            r.commit_op,
            h.count(),
            fmt_ns(h.p50()),
            fmt_ns(h.p99()),
            fmt_ns(h.p999()),
            fmt_ns(h.max()),
        );
    }
    println!();
    // The anatomy story: where the slowest commit's nanoseconds went.
    for r in &rows {
        let tail = r.tel.outliers_for(r.commit_op);
        let Some(bd) = tail.first() else { continue };
        let mut parts = Vec::new();
        for k in SegKind::ALL {
            let ns = bd.seg(k);
            if ns > 0 {
                parts.push(format!("{} {}", k.label(), fmt_ns(ns)));
            }
        }
        println!(
            "{:<18} {:<9} tail {} = {}",
            r.workload,
            r.mode,
            fmt_ns(bd.wall),
            parts.join("  ")
        );
    }

    if let Some(prefix) = &trace_out {
        for r in &rows {
            let base = format!("{prefix}.{}.{}", r.workload, r.mode);
            if let Some(doc) = r.tel.trace_chrome_json() {
                write_atomic(&format!("{base}.trace.json"), &doc)
                    .expect("trace output path is writable");
            }
            if let Some(doc) = r.tel.outliers_json() {
                write_atomic(&format!("{base}.outliers.json"), &doc)
                    .expect("outlier output path is writable");
            }
        }
        println!("\nwrote per-row traces and outliers under {prefix}.*");
    }

    let check = |doc: &str| check_latency_report(doc, 3);
    if finish_report(&render_json(&rows), Some(&out), "\nwrote ", check) {
        println!(
            "check : OK (schema, conservation, durable tail flush-free, \
             volatile tail flush-dominated)"
        );
    }
}
