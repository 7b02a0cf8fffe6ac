#!/usr/bin/env bash
# Reduced-scale smoke of the benchmark (< 30 s after the build):
#   * every workload end to end, one of them traced (which runs the ladder),
#     validated against BENCHMARK.json: every declared metric present, finite,
#     with the declared unit, and failed == 0;
#   * one workload twice with the same seed: every simulated metric,
#     allocs_per_op and sim_fingerprint must be byte-equal.
# Regime conditions (GC plateau, >= 3 checkpoints, ...) only hold at full
# scale and are not checked here.
set -euo pipefail
cd "$(dirname "$0")/.."

exec python3 - "$@" <<'EOF'
import json, math, os, sys
sys.path.insert(0, "benchmark")
import run as bench

SCALE = ["--seconds", "1", "--scale-pct", "4"]
spec = json.load(open("BENCHMARK.json"))
binary = bench.build()


def run(workload, trace, seed=1):
    args = ["--workload", workload, "--seed", str(seed), "--trace", str(trace)] + SCALE
    if trace:
        out_dir = os.path.join(bench.target_dir(), "bench_out")
        os.makedirs(out_dir, exist_ok=True)
        args += ["--spans-out", os.path.join(out_dir, f"smoke_spans_{workload}.json")]
    code, out = bench.run_binary(binary, args, True)
    if code != 0:
        sys.exit(f"smoke: {workload} --trace {trace} exited with {code}\n{out}")
    fingerprint = next(l.split()[1] for l in out.splitlines() if l.strip().startswith("sim_fingerprint"))
    return bench.result_of(out), fingerprint, out


def validate(workload, res, declared):
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"smoke: {workload}: result keys {sorted(res)}")
    if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
        sys.exit(f"smoke: {workload}: correct {res['correct']} failed {res['failed']}")
    want = {m["name"]: m["unit"] for m in declared}
    got = res["metrics"]
    if set(got) != set(want):
        sys.exit(f"smoke: {workload}: metrics differ from BENCHMARK.json: "
                 f"missing {sorted(set(want) - set(got))} extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        v = got[name]
        if v["unit"] != unit or not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            sys.exit(f"smoke: {workload}: {name} = {v}, declared unit {unit}")


for w in (x["name"] for x in spec["workloads"]):
    res, _, _ = run(w, 0)
    validate(w, res, spec["end_to_end"])
    for name, v in res["metrics"].items():
        if v["value"] <= 0:
            sys.exit(f"smoke: {w}: end-to-end metric {name} is {v['value']}; they must never be 0")
    print(f"smoke: {w:<14} end-to-end ok ({res['attempted']} attempted, 0 failed)")

res, _, text = run("fio_flush_rw", 1)
validate("fio_flush_rw", res, spec["per_layer"])
if "ladder  docstore@memdevice" not in text:
    sys.exit("smoke: traced pass did not print the ladder")
spans = json.load(open(os.path.join(bench.target_dir(), "bench_out", "smoke_spans_fio_flush_rw.json")))
if not spans["aggregate"] or not spans["spans"]:
    sys.exit("smoke: span file is empty")
print(f"smoke: fio_flush_rw   traced ok ({len(res['metrics'])} per-layer metrics, ladder, "
      f"{spans['spans_total']} spans)")

EXACT = ["sim_ops_per_s", "sim_write_p50_us", "sim_p99_us", "media_kib_per_op", "sim_recovery_ms",
         "allocs_per_op"]
(a, fa, _), (b, fb, _) = run("ycsb_doc", 0, seed=7), run("ycsb_doc", 0, seed=7)
for name in EXACT:
    if json.dumps(a["metrics"][name]) != json.dumps(b["metrics"][name]):
        sys.exit(f"smoke: ycsb_doc {name} differs between two runs of one seed: "
                 f"{a['metrics'][name]} vs {b['metrics'][name]}")
if fa != fb or (a["attempted"], a["failed"]) != (b["attempted"], b["failed"]):
    sys.exit(f"smoke: ycsb_doc sim_fingerprint {fa} vs {fb}")
(c, fc, _) = run("ycsb_doc", 0, seed=8)
if fc == fa:
    sys.exit("smoke: another seed gave the same sim_fingerprint")
print(f"smoke: ycsb_doc       repeatable (sim_fingerprint {fa}; seed 8 gives {fc})")
print("smoke: OK")
EOF
