//! The repo benchmark: seven two-clock workloads, a device-boundary probe
//! and a layer ladder. See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload W [--seed S] [--seconds N] [--trace 0|1]
//!           [--scale-pct P] [--spans-out FILE] [--ref-host-ops X]
//! ```
//!
//! Prints every metric by name with its unit, then — as the last line of
//! standard output — one JSON object with exactly the keys `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Exits non-zero when
//! `failed > 0`.

mod common;
mod fio;
mod ladder;
mod layers;
mod probe;
mod rel;
mod spans;
mod stats;
mod ycsb;

use common::{Ctx, LatencyBasis, Outcome};
use simkit::alloc::{peak_rss_bytes, CountingAlloc};
use std::fmt::Write as _;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The seven workloads, in report order.
const WORKLOADS: [&str; 7] =
    ["fio_hot", "fio_hot_obs", "fio_gc", "fio_flush_rw", "ycsb_doc", "tpcc_rel", "linkbench_rel"];

/// End-to-end metric names and units, in report order.
const E2E_METRICS: [(&str, &str); 9] = [
    ("sim_ops_per_s", "ops/s"),
    ("sim_write_p50_us", "us"),
    ("sim_p99_us", "us"),
    ("media_kib_per_op", "KiB"),
    ("sim_recovery_ms", "ms"),
    ("host_ops_per_s", "ops/s"),
    ("allocs_per_op", "count"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

struct Args {
    workload: String,
    ctx: Ctx,
    spans_out: Option<String>,
    ref_host_ops: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut scale_pct) = (1u64, 5u64, 0u64, 100u64);
    let (mut spans_out, mut ref_host_ops) = (None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|_| format!("{flag}: bad number {value:?}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?,
            "--trace" => trace = num()?,
            "--scale-pct" => scale_pct = num()?,
            "--spans-out" => spans_out = Some(value.clone()),
            "--ref-host-ops" => {
                ref_host_ops =
                    Some(value.parse::<f64>().map_err(|_| format!("{flag}: bad number"))?)
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {WORKLOADS:?}"));
    }
    if !(1..=60).contains(&seconds) || !(1..=100).contains(&scale_pct) || trace > 1 {
        return Err("--seconds 1..=60, --scale-pct 1..=100, --trace 0|1".into());
    }
    let tracer = (trace == 1).then(spans::Tracer::new);
    Ok(Args { workload, ctx: Ctx { seed, seconds, scale_pct, tracer }, spans_out, ref_host_ops })
}

fn run_workload(name: &str, ctx: &Ctx) -> Outcome {
    match name {
        "fio_hot" => fio::run(fio::FIO_HOT, ctx),
        "fio_hot_obs" => fio::run(fio::FIO_HOT_OBS, ctx),
        "fio_gc" => fio::run(fio::FIO_GC, ctx),
        "fio_flush_rw" => fio::run(fio::FIO_FLUSH_RW, ctx),
        "ycsb_doc" => ycsb::run(ctx),
        "tpcc_rel" => rel::run_tpcc(ctx),
        "linkbench_rel" => rel::run_linkbench(ctx),
        _ => unreachable!("validated in parse_args"),
    }
}

/// The end-to-end metric values, in [`E2E_METRICS`] order.
fn e2e_values(out: &Outcome) -> [f64; 9] {
    let m = &out.measured;
    let ops = m.ops() as f64;
    [
        ops / (m.sim_ns() as f64 / 1e9),
        out.latency.by_type[2] as f64 / 1e3,
        out.latency.p99 as f64 / 1e3,
        out.media_pages as f64 * 4.0 / ops,
        out.recovery_ns as f64 / 1e6,
        stats::median(&m.seg_rates()),
        m.allocs as f64 / ops,
        peak_rss_bytes() as f64 / (1024.0 * 1024.0),
        stats::median(&out.setup_s),
    ]
}

fn json_line(out: &Outcome, correct: bool, metrics: &[(&str, &str, f64)]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.tally.attempted, out.tally.failed
    );
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" }
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = &args.ctx;
    let traced = ctx.traced();
    println!(
        "workload {} seed {} seconds {} scale_pct {} pass {}",
        args.workload,
        ctx.seed,
        ctx.seconds,
        ctx.scale_pct,
        if traced { "traced" } else { "end-to-end" }
    );
    let mut out = run_workload(&args.workload, ctx);
    let e2e = e2e_values(&out);
    let m = &out.measured;

    // ---- end-to-end block (printed in both passes) -------------------------
    let pass_note =
        if traced { "  [traced pass: host-clock values carry tracing overhead]" } else { "" };
    println!("end_to_end{pass_note}");
    for ((name, unit), v) in E2E_METRICS.iter().zip(e2e) {
        println!("  {name:<20} {v:>16.4} {unit}");
    }
    let failed_share = out.tally.failed as f64 / out.tally.attempted.max(1) as f64;
    println!(
        "  {:<20} {:>16.6} ratio  (ops_failed {} / ops_attempted {})",
        "failed_share", failed_share, out.tally.failed, out.tally.attempted
    );
    let lat = &out.latency;
    println!(
        "  latency samples {}; all-op p50 {:.3} us; p99.9 {:.3} us with {} beyond; highest supported percentile p{} = {:.3} us with \
         {} beyond; basis: {}",
        lat.samples,
        lat.p50 as f64 / 1e3,
        lat.p999 as f64 / 1e3,
        lat.beyond_p999,
        lat.top_pct as f64 / 1e3,
        lat.top as f64 / 1e3,
        lat.beyond_top,
        match lat.basis {
            LatencyBasis::Samples => "every op's simulated latency",
            LatencyBasis::TypeSummaries => "upper bounds from per-type summaries",
        }
    );
    if lat.beyond_p999 < 10 && ctx.full_scale() {
        out.regime_failures.push(format!("only {} samples beyond p99.9", lat.beyond_p999));
    }
    let (q1, med, q3) = stats::quartiles(&m.seg_rates());
    println!(
        "  host_ops_per_s per segment {:?}: q1 {q1:.1} median {med:.1} q3 {q3:.1}; measured {} ops \
         in {:.3} host s / {:.6} simulated s",
        m.seg_rates().iter().map(|r| r.round()).collect::<Vec<_>>(),
        m.ops(),
        m.host_ns() as f64 / 1e9,
        m.sim_ns() as f64 / 1e9
    );
    println!("  setup_s repetitions {:?}", out.setup_s);
    match out.paper_ref {
        Some((cell, paper)) => println!(
            "  paper_ref {cell}: {paper} ops/s; model error {:+.2} %",
            100.0 * (e2e[0] - paper) / paper
        ),
        None => println!("  paper_ref unvalidated"),
    }
    println!("  sim_fingerprint {:016x}", out.fingerprint.value());
    for n in &out.notes {
        println!("  {n}");
    }

    // ---- traced pass: ladder, per-layer metrics, span file ------------------
    let mut layer_metrics: Vec<(&str, &str, f64)> = Vec::new();
    if traced {
        let lad = ladder::run(ctx);
        print!("{}", lad.table());
        out.layers.extend(lad.layers);
        let overhead = args.ref_host_ops.map_or(0.0, |r| 100.0 * (r - e2e[5]) / r);
        out.layers.push(("telemetry.trace_overhead_pct", overhead));
        println!("per_layer");
        for (name, unit) in layers::LAYER_METRICS {
            let v = out.layers.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v);
            println!("  {name:<44} {v:>16.4} {unit}");
            layer_metrics.push((name, unit, v));
        }
        let tracer = ctx.tracer.as_ref().expect("traced pass");
        println!("spans");
        for (name, t) in tracer.all_totals() {
            println!(
                "  {name:<20} count {:>9} host_ns {:>14} self_ns {:>14} sim_ns {:>16}",
                t.count, t.host_ns, t.self_ns, t.sim_ns
            );
        }
        if let Some(path) = &args.spans_out {
            match std::fs::write(path, tracer.to_json(&args.workload)) {
                Ok(()) => println!("  span file {path}"),
                Err(e) => {
                    eprintln!("benchmark: cannot write span file {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    }

    for f in &out.regime_failures {
        println!("REGIME VIOLATION: {f}");
    }
    // Anatomy violations are reported, not fatal: `linkbench_rel` has
    // thousands at the parent commit (see the README's findings) and a
    // traced run has to complete.
    let violations =
        out.layers.iter().find(|(n, _)| *n == "telemetry.anatomy_violations").map_or(0.0, |l| l.1);
    if violations > 0.0 {
        println!("ANATOMY VIOLATIONS: {violations} ops claimed more segment time than they took");
    }
    let correct = out.tally.failed == 0;
    let metrics: Vec<(&str, &str, f64)> = if traced {
        layer_metrics
    } else {
        E2E_METRICS.iter().zip(e2e).map(|((n, u), v)| (*n, *u, v)).collect()
    };
    println!("{}", json_line(&out, correct, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: failed_share {failed_share}");
        ExitCode::from(1)
    }
}
