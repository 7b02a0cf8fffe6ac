//! **Table 3** — Distribution of LinkBench transaction latency (ms).
//!
//! Compares the MySQL default configuration (write-barrier ON, double-write
//! ON, 16KB pages) against the best DuraSSD configuration (OFF/OFF, 4KB),
//! reporting mean / P25 / P50 / P75 / P99 / max per operation type — the
//! paper's two-orders-of-magnitude P99 improvement is the headline.
//!
//! Run: `cargo run -p bench --release --bin table3 [--nodes N] [--ops N]`

use bench::{arg_u64, durassd_engine, print_telemetry, row_telemetry, rule, TelemetrySink};
use relstore::EngineConfig;
use telemetry::Telemetry;
use workloads::linkbench::{load, run, LinkBenchReport, LinkBenchSpec};

fn run_config(
    barriers: bool,
    dwb: bool,
    page_size: usize,
    nodes: u64,
    ops: u64,
) -> (LinkBenchReport, Telemetry) {
    let est_db_bytes = nodes * 900;
    let cfg = EngineConfig::builder(page_size)
        .buffer_pool_bytes(est_db_bytes / 10)
        .double_write(dwb)
        .barriers(barriers)
        .data_pages((est_db_bytes * 4 / page_size as u64).max(8192))
        .log_file_blocks(8192)
        .build();
    let tel = row_telemetry();
    let (mut engine, t0) = durassd_engine(cfg, &tel);
    let spec = LinkBenchSpec { warmup_ops: ops / 5, ops, ..LinkBenchSpec::scaled(nodes, ops) };
    let (mut graph, t1) = load(&mut engine, &spec, t0);
    tel.reset(); // measure the run only
    engine.attach_telemetry(tel.clone());
    let rep = run(&mut engine, &mut graph, &spec, t1);
    (rep, tel)
}

fn print_report(title: &str, rep: &LinkBenchReport, tel: &Telemetry) {
    println!("\n{title}  (TPS {:.0})", rep.tps);
    println!("{:<16} {:>6} | latency (ms)", "Transaction", "count");
    rule(110);
    for (op, s) in &rep.per_type {
        println!("{:<16} {:>6} | {}", op.label(), s.count, s.fmt_ms());
    }
    print_telemetry("  ", tel, &["engine.commit", "engine.get", "engine.put"]);
}

fn main() {
    let mut sink = TelemetrySink::from_args();
    let nodes = arg_u64("--nodes", 60_000);
    let ops = arg_u64("--ops", 30_000);
    println!("Table 3: LinkBench latency distributions ({nodes} nodes, {ops} ops)");
    println!("Paper headline: OFF/OFF+4KB cuts the mean 5-45x and P99 ~100x vs ON/ON+16KB.");
    let (worst, worst_tel) = run_config(true, true, 16384, nodes, ops);
    print_report("ON/ON with 16KB pages (MySQL default)", &worst, &worst_tel);
    sink.add("ON/ON 16KB", &worst_tel);
    let (best, best_tel) = run_config(false, false, 4096, nodes, ops);
    print_report("OFF/OFF with 4KB pages (DuraSSD deployment)", &best, &best_tel);
    sink.add("OFF/OFF 4KB", &best_tel);
    sink.finish();
    // Summary ratios like the paper's narrative.
    println!("\nImprovement factors (ON/ON-16KB -> OFF/OFF-4KB):");
    for ((op, a), (_, b)) in worst.per_type.iter().zip(best.per_type.iter()) {
        if a.count == 0 || b.count == 0 || b.mean == 0.0 || b.p99 == 0 {
            continue;
        }
        println!(
            "  {:<16} mean {:>6.1}x   p99 {:>6.1}x",
            op.label(),
            a.mean / b.mean,
            a.p99 as f64 / b.p99 as f64
        );
    }
}
