//! `simtest` — deterministic state-machine fuzzing campaign runner.
//!
//! ```text
//! simtest [--seeds N] [--ops M] [--seed S] [--start S0]
//!         [--target dura|volatile|engine|engine_redo|doc|all]
//!         [--trace "w:3:1 f cut r:3:1"] [--check] [--quiet]
//! ```
//!
//! * Default campaign: every target × seeds `S0..S0+N`, `M` ops each.
//! * `--seed S` runs exactly one seed; `--trace` replays a literal trace
//!   (requires a concrete `--target`, defaults to `dura`).
//! * On failure the trace is auto-shrunk to a 1-minimal repro and printed
//!   as a copy-pastable replay line; exit status is non-zero.
//! * `--check` is accepted for CI symmetry with the bench bins (failures
//!   always exit non-zero).

use simtest::{parse_trace, run_case, run_seed, shrink, trace_string, Failure, Target};

fn arg_u64(args: &[String], name: &str) -> Option<u64> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).and_then(|v| v.parse().ok())
}

fn arg_str(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

fn arg_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Shrink a failing sequence and print the repro block.
fn report_failure(target: Target, seed: Option<u64>, ops: &[simtest::Op], failure: &Failure) {
    eprintln!("FAIL target={} {}", target.name(), failure);
    let minimal = shrink(ops, |sub| run_case(target, sub).is_err());
    let why = run_case(target, &minimal).expect_err("shrinker must preserve the failure");
    eprintln!("  shrunk {} ops -> {}", ops.len(), minimal.len());
    eprintln!("  minimal failure: {why}");
    if let Some(s) = seed {
        eprintln!("  found by: --target {} --seed {s}", target.name());
    }
    eprintln!(
        "  replay: cargo run -p simtest -- --target {} --trace \"{}\"",
        target.name(),
        trace_string(&minimal)
    );
}

fn main() {
    // The harness converts panics in the stack under test into ordinary
    // failures; silence the default hook so a panicking candidate during
    // shrinking doesn't spray backtraces over the report.
    std::panic::set_hook(Box::new(|_| {}));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seeds = arg_u64(&args, "--seeds").unwrap_or(10);
    let start = arg_u64(&args, "--start").unwrap_or(0);
    let nops = arg_u64(&args, "--ops").unwrap_or(500) as usize;
    let one_seed = arg_u64(&args, "--seed");
    let trace = arg_str(&args, "--trace");
    let quiet = arg_flag(&args, "--quiet");
    let _check = arg_flag(&args, "--check");
    let target_arg = arg_str(&args, "--target").unwrap_or_else(|| {
        if trace.is_some() || one_seed.is_some() {
            "dura".into()
        } else {
            "all".into()
        }
    });

    let targets: Vec<Target> = if target_arg == "all" {
        Target::all().to_vec()
    } else {
        match Target::parse(&target_arg) {
            Some(t) => vec![t],
            None => {
                eprintln!(
                    "unknown --target {target_arg:?} (dura|volatile|engine|engine_redo|doc|all)"
                );
                std::process::exit(2);
            }
        }
    };

    // Literal trace replay.
    if let Some(t) = trace {
        let ops = match parse_trace(&t) {
            Ok(ops) => ops,
            Err(e) => {
                eprintln!("bad --trace: {e}");
                std::process::exit(2);
            }
        };
        let target = targets[0];
        match run_case(target, &ops) {
            Ok(()) => {
                println!("ok: target={} trace of {} ops passed", target.name(), ops.len());
            }
            Err(f) => {
                report_failure(target, None, &ops, &f);
                std::process::exit(1);
            }
        }
        return;
    }

    // Seeded campaign.
    let seed_list: Vec<u64> = match one_seed {
        Some(s) => vec![s],
        None => (start..start + seeds).collect(),
    };
    let mut failures = 0u64;
    let mut cases = 0u64;
    for &target in &targets {
        for &seed in &seed_list {
            cases += 1;
            let (ops, verdict) = run_seed(target, seed, nops);
            match verdict {
                Ok(()) => {
                    if !quiet {
                        println!(
                            "ok   target={:<8} seed={:<4} ops={}",
                            target.name(),
                            seed,
                            ops.len()
                        );
                    }
                }
                Err(f) => {
                    failures += 1;
                    report_failure(target, Some(seed), &ops, &f);
                }
            }
        }
    }
    println!(
        "simtest: {cases} cases, {failures} failures (targets: {}, seeds: {}, ops/case: {nops})",
        targets.iter().map(|t| t.name()).collect::<Vec<_>>().join(","),
        seed_list.len()
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
