//! **Tail latency** — the paper's §1/§2 motivation: read latency varies
//! wildly when reads queue behind writes and cache flushes; DuraSSD
//! "alleviates the problem of high tail latency by minimizing write stalls".
//!
//! A mixed workload (readers + writers with fsync) runs directly on the
//! devices; read latency percentiles are reported for:
//!   * a volatile-cache SSD with barriers (fsync ⇒ FLUSH CACHE stalls), and
//!   * DuraSSD with `nobarrier` (fsync never reaches the device).
//!
//! Each run records the full latency anatomy: per-segment-kind histograms
//! plus the slowest captured read and write with their breakdowns. `--json
//! PATH` writes the reads/writes × durable/volatile rows as a
//! `durassd.latency.v1` document, and `--check` gates the anatomy form of
//! the tail claim — the durable runs contain zero flush-cache segment time
//! while the slowest volatile ops are flush-dominated.
//!
//! Run: `cargo run -p bench --release --bin tail [--ops N] [--json PATH]
//! [--check]`

use bench::schema::{check_latency_report, LATENCY_SCHEMA};
use bench::{
    arg_str, arg_u64, durassd_bench, finish_report, print_telemetry, rule, ssd_a_bench,
    ssd_health_line, write_latency_row, TelemetrySink,
};
use durassd::Ssd;
use simkit::dist::rng;
use simkit::dist::Rng;
use simkit::json::Writer;
use simkit::stats::LatencyStats;
use simkit::ClosedLoop;
use storage::device::LOGICAL_PAGE;
use storage::volume::Volume;
use telemetry::Telemetry;

fn mixed_run(
    dev: Ssd,
    barriers: bool,
    ops: u64,
    tel: &Telemetry,
) -> (LatencyStats, LatencyStats, String) {
    let mut vol = Volume::new(dev, barriers);
    let span = vol.capacity_pages() / 2;
    // Preload so reads hit media.
    let page = vec![1u8; LOGICAL_PAGE];
    let mut t = 0;
    for lpn in 0..16_384.min(span) {
        t = vol.write(lpn, &page, t).unwrap();
    }
    t = vol.fsync(t).unwrap();
    // Attach after the preload so only the mixed phase is measured; the
    // device needs its own attach for the anatomy segments it charges.
    vol.attach_telemetry(tel.clone(), "tail");
    vol.device_mut().attach_telemetry(tel.clone());
    // 64 readers + 16 writers, writers fsync every 8 writes.
    let clients = 80usize;
    let mut rngs: Vec<_> = (0..clients).map(|c| rng(0xFEED ^ (c as u64) << 20)).collect();
    let mut since = vec![0u32; clients];
    let mut reads = LatencyStats::new();
    let mut writes = LatencyStats::new();
    let mut rbuf = vec![0u8; LOGICAL_PAGE];
    let mut driver = ClosedLoop::new(clients, t);
    driver.run(ops, |c, now| {
        let r = &mut rngs[c];
        let lpn = r.gen_range(0..16_384.min(span));
        if c < 64 {
            let done = vol.read(lpn, 1, &mut rbuf, now).unwrap();
            reads.record(done - now);
            done
        } else {
            let mut done = vol.write(lpn, &page, now).unwrap();
            since[c] += 1;
            if since[c] >= 8 {
                since[c] = 0;
                done = vol.fsync(done).unwrap();
            }
            writes.record(done - now);
            done
        }
    });
    let health = ssd_health_line(vol.device());
    (reads, writes, health)
}

fn report(name: &str, reads: &mut LatencyStats, writes: &mut LatencyStats) {
    let ms = |v: u64| v as f64 / 1e6;
    println!(
        "{:<38} reads  p50 {:>7.3}  p99 {:>8.3}  p99.9 {:>8.3}  max {:>8.3} (ms)",
        name,
        ms(reads.percentile(50.0)),
        ms(reads.percentile(99.0)),
        ms(reads.percentile(99.9)),
        ms(reads.max())
    );
    println!(
        "{:<38} writes p50 {:>7.3}  p99 {:>8.3}  p99.9 {:>8.3}  max {:>8.3}",
        "",
        ms(writes.percentile(50.0)),
        ms(writes.percentile(99.0)),
        ms(writes.percentile(99.9)),
        ms(writes.max())
    );
}

/// Anatomy rows for one run: the slowest reads and writes with their
/// causally attributed breakdowns.
fn write_anatomy_rows(w: &mut Writer, tel: &Telemetry, mode: &str, device: &str) {
    for (workload, op) in
        [("tail_mixed_reads", "dev.tail.read"), ("tail_mixed_writes", "dev.tail.write")]
    {
        write_latency_row(w, workload, mode, device, op, tel);
    }
}

fn main() {
    let mut sink = TelemetrySink::from_args();
    let ops = arg_u64("--ops", 60_000);
    let json_out = arg_str("--json");
    println!("Tail latency under mixed read/write load (64 readers, 16 writers, fsync/8)\n");
    rule(110);
    let tel1 = Telemetry::new();
    tel1.enable_anatomy(8);
    let (mut r1, mut w1, h1) = mixed_run(ssd_a_bench(true), true, ops, &tel1);
    report("volatile SSD, barriers ON", &mut r1, &mut w1);
    print_telemetry("    ", &tel1, &["dev.tail.read", "dev.tail.flush"]);
    println!("    {h1}");
    sink.add("volatile SSD, barriers ON", &tel1);
    let tel2 = Telemetry::new();
    tel2.enable_anatomy(8);
    let (mut r2, mut w2, h2) = mixed_run(durassd_bench(true), false, ops, &tel2);
    report("DuraSSD, nobarrier", &mut r2, &mut w2);
    print_telemetry("    ", &tel2, &["dev.tail.read", "dev.tail.flush"]);
    println!("    {h2}");
    sink.add("DuraSSD, nobarrier", &tel2);
    sink.finish();
    rule(110);
    let f = |a: &mut LatencyStats, b: &mut LatencyStats, p: f64| {
        a.percentile(p) as f64 / b.percentile(p).max(1) as f64
    };
    println!(
        "read-tail improvement: p99 {:.1}x   p99.9 {:.1}x — the paper's tail-tolerance claim",
        f(&mut r1, &mut r2, 99.0),
        f(&mut r1, &mut r2, 99.9)
    );

    let mut w = Writer::new();
    w.obj().key("schema").str(LATENCY_SCHEMA).key("rows").arr();
    write_anatomy_rows(&mut w, &tel1, "volatile", "ssd_a");
    write_anatomy_rows(&mut w, &tel2, "durable", "durassd");
    w.end().end();
    // The mixed run emits two workloads (reads and writes), not three.
    let check = |doc: &str| check_latency_report(doc, 2);
    if finish_report(&w.finish(), json_out.as_deref(), "wrote ", check) {
        println!(
            "check : OK (anatomy conserved; durable runs flush-free, \
             volatile tails flush-dominated)"
        );
    }
}
