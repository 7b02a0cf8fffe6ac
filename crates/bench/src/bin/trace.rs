//! **trace** — record an end-to-end event trace of a YCSB burst (document
//! store, Couchbase-style) followed by a TPC-C burst (relational engine),
//! both on DuraSSD devices with barriers ON, and export machine-readable
//! artifacts:
//!
//! * `<out>.trace.json` — Chrome trace-event JSON. Open in Perfetto
//!   (<https://ui.perfetto.dev>) or `chrome://tracing`: each host operation
//!   (a `doc.set`, an `engine.commit`, ...) is one track (`tid`), and every
//!   span the operation caused below it — WAL flush, pool eviction, device
//!   write, FLUSH CACHE, SSD cache drain, FTL GC, NAND program — nests on
//!   the same track under the same trace-ID.
//! * `<out>.series.csv` — gauge time-series (cache occupancy, unpersisted
//!   mapping entries, capacitor reserve, WAL buffer, dirty pages) sampled
//!   on a virtual-time cadence.
//! * `--telemetry-out <path>` — the full registry as JSON, like every
//!   other bench bin.
//!
//! Flags: `--out BASE` (default `trace_out`), `--records N` / `--ops N`
//! (YCSB), `--warehouses N` / `--txns N` (TPC-C), `--events N` (trace ring
//! capacity), `--cadence-us N` (sampling cadence), `--check` (self-validate
//! the artifacts and exit non-zero on any violation).
//!
//! Run: `cargo run -p bench --release --bin trace -- --check`

use bench::{
    arg_flag, arg_str, arg_u64, durassd_bench, tpcc_cell_config, write_atomic, ycsb_cell_config,
    TelemetrySink,
};
use docstore::DocStore;
use relstore::Engine;
use telemetry::{parse_json, validate_chrome_json, JsonValue, Telemetry};
use workloads::tpcc;
use workloads::ycsb;

/// One virtual timeline for both bursts: the document store runs first, the
/// engine is created at the YCSB end time, so the exported trace shows the
/// two phases back-to-back instead of overlapping.
fn main() {
    let out = arg_str("--out").unwrap_or_else(|| "trace_out".to_string());
    let records = arg_u64("--records", 3_000);
    let ops = arg_u64("--ops", 1_500);
    let warehouses = arg_u64("--warehouses", 1) as u32;
    let txns = arg_u64("--txns", 400);
    let events = arg_u64("--events", 1 << 20) as usize;
    let cadence = arg_u64("--cadence-us", 5_000) * 1_000; // µs -> ns
    let check = arg_flag("--check");
    let mut sink = TelemetrySink::from_args();

    let tel = Telemetry::new();
    tel.enable_tracing(events);
    tel.enable_sampling(cadence);

    println!(
        "trace: YCSB-A {records} docs/{ops} ops + TPC-C {warehouses} wh/{txns} txns, \
         barriers ON, ring {events} events, cadence {}us",
        cadence / 1_000
    );

    // Phase 1: YCSB-A on the document store (fsync batch 10, barriers on).
    let mut doc_dev = durassd_bench(true);
    doc_dev.attach_telemetry(tel.clone());
    let mut store = DocStore::create(doc_dev, ycsb_cell_config(true, 10));
    store.attach_telemetry(tel.clone());
    let spec = ycsb::YcsbSpec::workload_a(records, ops);
    let t0 = ycsb::load(&mut store, &spec, 0);
    let rep = ycsb::run(&mut store, &spec, t0);
    let t1 = rep.finished_at;
    println!("  ycsb : {:>8.0} ops/s   (virtual [0, {:.1}ms])", rep.throughput(), t1 as f64 / 1e6);

    // Phase 2: TPC-C on the relational engine, strict commits so every
    // commit's full chain (engine.commit -> wal.flush -> dev write ->
    // flush_cache -> cache drain -> NAND program) runs inline under one
    // trace-ID.
    let mut data = durassd_bench(true);
    data.attach_telemetry(tel.clone());
    let mut log = durassd_bench(true);
    log.attach_telemetry(tel.clone());
    let (spec, ecfg) = tpcc_cell_config(warehouses, txns, true);
    let (mut engine, t2) = Engine::create(data, log, ecfg, t1).into_parts();
    engine.attach_telemetry(tel.clone());
    let (mut db, t3) = tpcc::load(&mut engine, &spec, t2);
    let rep = tpcc::run(&mut engine, &mut db, &spec, t3);
    let t_end = rep.finished_at;
    println!(
        "  tpcc : {:>8.0} tpmC    (virtual [{:.1}ms, {:.1}ms])",
        rep.tpmc,
        t1 as f64 / 1e6,
        t_end as f64 / 1e6
    );
    tel.finish_sampling(t_end);

    // Export.
    let trace_json = tel.trace_chrome_json().expect("tracing enabled");
    let series_csv = tel.series_csv().expect("sampling enabled");
    let trace_path = format!("{out}.trace.json");
    let series_path = format!("{out}.series.csv");
    write_atomic(&trace_path, &trace_json).expect("trace output writable");
    write_atomic(&series_path, &series_csv).expect("series output writable");
    let (recorded, dropped) = tel.trace_counts().expect("tracing enabled");
    println!("  trace : {trace_path}  ({recorded} events recorded, {dropped} dropped)");
    let gauges = series_csv.lines().next().map_or(0, |h| h.split(',').count().saturating_sub(1));
    let samples = series_csv.lines().count().saturating_sub(1);
    println!("  series: {series_path}  ({gauges} gauges x {samples} samples)");
    sink.add("trace", &tel);
    sink.finish();

    if check {
        let failures = self_check(&trace_json, &series_csv, &tel);
        if failures.is_empty() {
            println!(
                "  check : OK (schema, span matching, monotonicity, commit chain, \
                 series, registry histograms)"
            );
        } else {
            for f in &failures {
                eprintln!("  check FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
}

/// Validate the exported artifacts; returns human-readable violations.
fn self_check(trace_json: &str, series_csv: &str, tel: &Telemetry) -> Vec<String> {
    let mut failures = Vec::new();

    // 1. Chrome trace schema + per-track B/E matching + monotone timestamps.
    if let Err(e) = validate_chrome_json(trace_json) {
        failures.push(format!("trace validation: {e}"));
    }
    // 2. A single TPC-C commit's whole chain shares one trace-ID: some
    // track must contain both the engine.commit host span and the
    // device-level flush_cache span it caused.
    match parse_json(trace_json) {
        Err(e) => failures.push(format!("trace JSON does not parse: {e}")),
        Ok(doc) => {
            if let Err(e) = commit_chain_shares_track(&doc) {
                failures.push(e);
            }
        }
    }

    // 3. The series CSV carries at least 3 gauges and at least one sample.
    let mut lines = series_csv.lines();
    let header = lines.next().unwrap_or("");
    let gauges = header.split(',').count().saturating_sub(1);
    if !header.starts_with("t_ns") {
        failures.push(format!("series CSV header malformed: {header:?}"));
    }
    if gauges < 3 {
        failures.push(format!("series CSV has {gauges} gauges, want >= 3: {header:?}"));
    }
    if lines.next().is_none() {
        failures.push("series CSV has no samples".to_string());
    }

    // 4. The registry document parses and names the histograms the two
    // bursts must have produced.
    match parse_json(&tel.to_json()) {
        Err(e) => failures.push(format!("registry JSON does not parse: {e}")),
        Ok(doc) => {
            let hists =
                doc.as_object().and_then(|o| o.get("histograms")).and_then(|v| v.as_object());
            for name in ["doc.set", "engine.commit", "wal.flush", "dev.log.flush"] {
                if !hists.is_some_and(|h| h.contains_key(name)) {
                    failures.push(format!("registry JSON has no {name:?} histogram"));
                }
            }
        }
    }
    failures
}

/// Scan `traceEvents` for a track (`tid`) containing both an
/// `engine.commit` span and a `flush_cache` span.
fn commit_chain_shares_track(doc: &JsonValue) -> Result<(), String> {
    let events = doc
        .as_object()
        .and_then(|o| o.get("traceEvents"))
        .and_then(|v| v.as_array())
        .ok_or("traceEvents missing")?;
    let mut commits = std::collections::BTreeSet::new();
    let mut flushes = std::collections::BTreeSet::new();
    for ev in events {
        let Some(obj) = ev.as_object() else { continue };
        let name = obj.get("name").and_then(|v| v.as_str()).unwrap_or("");
        let tid = obj.get("tid").and_then(|v| v.as_f64()).unwrap_or(-1.0) as i64;
        match name {
            "engine.commit" => {
                commits.insert(tid);
            }
            "flush_cache" => {
                flushes.insert(tid);
            }
            _ => {}
        }
    }
    if commits.intersection(&flushes).next().is_some() {
        Ok(())
    } else {
        Err(format!(
            "no track carries both engine.commit and flush_cache \
             ({} commit tracks, {} flush tracks): trace-ID propagation broken",
            commits.len(),
            flushes.len()
        ))
    }
}
