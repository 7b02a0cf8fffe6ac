#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 benchmark/run.py --workload W --seed S --seconds N --trace 0|1
    python3 benchmark/run.py [--seed S] [--traced]        # all seven workloads

One workload per process. With `--trace 0` the last line of standard output
is the JSON result with every end-to-end metric; with `--trace 1` the
workload first runs untraced (for `telemetry.trace_overhead_pct`), then
traced, and the last line carries every per-layer metric. Without
`--workload` every workload of BENCHMARK.json runs in turn and a summary is
printed; the exit code is non-zero if any run failed.

The program is built from source with cargo into `$CARGO_TARGET_DIR`
(default `benchmark/target`); nothing outside the checkout is read or
written.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target")))


def build():
    """Build the benchmark binary; returns its path or exits with cargo's code."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if proc.returncode != 0:
        sys.exit(proc.returncode or 1)
    return os.path.join(target_dir(), "release", "benchmark")


def run_binary(binary, args, capture):
    """Run one benchmark process to completion; returns (code, stdout or None)."""
    try:
        proc = subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the child.
        print(f"benchmark: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124, None
    return proc.returncode, proc.stdout


def result_of(stdout):
    """The JSON result: the last line of a run's standard output."""
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(binary, workload, seed, seconds, trace, scale_pct, capture=False):
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--scale-pct", str(scale_pct)]
    if not trace:
        return run_binary(binary, base + ["--trace", "0"], capture)
    # The untraced reference for telemetry.trace_overhead_pct.
    code, out = run_binary(binary, base + ["--trace", "0"], True)
    if code != 0:
        return code, out
    ref = result_of(out)["metrics"]["host_ops_per_s"]["value"]
    spans_dir = os.path.join(target_dir(), "bench_out")
    os.makedirs(spans_dir, exist_ok=True)
    extra = ["--trace", "1", "--ref-host-ops", repr(ref),
             "--spans-out", os.path.join(spans_dir, f"spans_{workload}.json")]
    return run_binary(binary, base + extra, capture)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--traced", action="store_true", help="same as --trace 1")
    ap.add_argument("--scale-pct", type=int, default=100,
                    help="shrink set-up and op counts (smoke runs only)")
    a = ap.parse_args()
    trace = bool(a.trace or a.traced)
    binary = build()

    if a.workload:
        code, _ = run_workload(binary, a.workload, a.seed, a.seconds, trace, a.scale_pct)
        sys.exit(code)

    failed = []
    summary = []
    for w in names:
        code, out = run_workload(binary, w, a.seed, a.seconds, trace, a.scale_pct, capture=True)
        sys.stdout.write(out or "")
        sys.stdout.flush()
        if code != 0:
            failed.append(w)
            continue
        res = result_of(out)
        summary.append((w, res))
        if not res["correct"]:
            failed.append(w)
    print("\nsummary")
    for w, res in summary:
        shown = ", ".join(f"{k} {v['value']:.6g} {v['unit']}"
                          for k, v in list(res["metrics"].items())[:9])
        print(f"  {w:<14} correct {res['correct']} attempted {res['attempted']} "
              f"failed {res['failed']}: {shown}")
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        sys.exit(1)


if __name__ == "__main__":
    main()
