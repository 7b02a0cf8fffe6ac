#!/usr/bin/env bash
# Tier-1 gate: formatting, lints (when the toolchain ships clippy), and the
# full test suite. Run from the repo root; exits non-zero on first failure.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all -- --check
else
    echo "rustfmt not installed; skipping"
fi

echo "== cargo clippy -D warnings =="
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "clippy not installed; skipping"
fi

echo "== one op scope, one latency taxonomy (removed APIs stay removed) =="
# Layers bracket operations with telemetry::Scope only; the hand-paired
# calls and the stall taxonomy must not come back outside the crate.
if grep -rnE 'Stall|push_context|stall_exact|begin_frame|end_frame|trace_begin|trace_end' \
    crates src tests examples | grep -v '^crates/telemetry/'; then
    echo "removed telemetry API referenced above" >&2
    exit 1
fi
# Write causes are scoped (`Volume::with_cause`), device stats are read off
# the device, and each report has one validator entry point.
if grep -rnE 'push_cause|pop_cause|DeviceHealth|validate_recovery_report|check_latency_report_with' \
    crates src tests examples; then
    echo "removed API referenced above" >&2
    exit 1
fi
# The page LSN in the trailer is the WAL rule and the redo guard; the side
# table it replaced and the knob nothing read must not come back.
if grep -rnE 'dirty_lsn|o_dsync' crates src tests examples; then
    echo "removed relstore name referenced above" >&2
    exit 1
fi
# A checkpoint is its header, in both engines: what restated it must not come
# back (`checkpoint_every_n_commits` lives on as an `EngineConfigBuilder` setter).
if grep -rnE 'replay_bound|CheckpointBegin|CheckpointEnd|last_ckpt_begin|commit_checkpoint|ckpt_off|headers_since_ckpt' \
    crates src tests examples; then
    echo "removed checkpoint name referenced above" >&2
    exit 1
fi
# The ledger records units at the engines and each layer counts its own acks;
# the registry has no counter map and no import path; the WAL has one buffer.
if grep -rnE 'EvidenceKind|EvidenceRow|evidence_rows|ack_evidence|from_json_value|Telemetry::from_json|program_count|tail_image|run_scratch' \
    crates src tests examples; then
    echo "removed instrument referenced above" >&2
    exit 1
fi
# Page bytes move by reference below the host interface: the FTL stages no
# page copies, and the NAND page table is a dense vector, not a map.
if grep -rnE 'page_scratch|read_scratch' crates/core/src || grep -rn HashMap crates/nand/src; then
    echo "removed page-copy staging or hashed NAND page table referenced above" >&2
    exit 1
fi
# One checksum: `simkit::crc32` picks its kernel from the CPU, and the
# byte-at-a-time loop the page trailers and log framing once called is gone.
if grep -rn crc32_bytewise crates src tests examples; then
    echo "removed CRC referenced above" >&2
    exit 1
fi
# The NAND array purges a timeline where a command touches it; the floor that
# decided when to sweep all of them must not come back.
if grep -rn purge_floor crates src tests examples; then
    echo "removed NAND purge floor referenced above" >&2
    exit 1
fi
# One copy of the sorted-run mechanics: `simkit::runs` holds the layout the
# timelines and the write cache's drain index share. The drain index's own
# copy survives only as the flat-deque test oracle in cache.rs's
# `mod reference`.
if grep -rnE 'const RUN\b|fn take_slot|struct Run\b' crates | grep -v '^crates/simkit/src/runs.rs:' ||
    grep -rn DrainIndex crates src tests examples | grep -v '^crates/core/src/cache.rs:' ||
    awk '/mod reference \{/ { exit } /DrainIndex/ { print FILENAME ":" FNR ": " $0; found = 1 }
        END { exit !found }' crates/core/src/cache.rs; then
    echo "sorted-run mechanics outside simkit::runs referenced above" >&2
    exit 1
fi
# One unit-level durability oracle: the store targets of simtest reconcile
# against the forensics ledger, and a delete is a tombstone, not the digest
# of an empty value.
if grep -rnF -e KvOracle -e absorb_recovered -e finish_recovery -e 'digest(&[])' \
    crates src tests examples; then
    echo "second durability oracle or delete-as-empty-digest referenced above" >&2
    exit 1
fi
if grep -n forensics crates/storage/Cargo.toml crates/wal/Cargo.toml; then
    echo "storage and wal must not depend on forensics" >&2
    exit 1
fi

# The seven table/figure bins are rows of `paper` now, and `waf`, `latency`
# and `tail` are views of one `observe` run; nothing may tell a reader to run
# them.
if grep -rnE -e '--bin (table[1-5]|fig[56]|waf|latency|tail)' ./*.md ci.sh crates .claude; then
    echo "removed bench bin referenced above (use: --bin paper -- <id>, --bin observe)" >&2
    exit 1
fi

echo "== one JSON writer (a single string escaper under crates/) =="
escapers="$(grep -rlF 'u{:04x}' crates)"
if [ "$escapers" != "crates/simkit/src/json.rs" ]; then
    echo "string escaper outside simkit::json: $escapers" >&2
    exit 1
fi

echo "== cargo test -q =="
cargo test --workspace -q

echo "== AddressSanitizer over the unsafe code (simkit, nand, core library tests) =="
# The slot pool hands out cells by number and frees its chunks with the last
# one; a use-after-free there need not fail the plain suite, and the
# sanitizer names it. The sanitized build gets its own target directory, so
# it never reruns a stale binary.
if cargo +nightly --version >/dev/null 2>&1; then
    RUSTFLAGS=-Zsanitizer=address CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}/asan" \
        cargo +nightly test -q -p simkit -p nand -p durassd --lib --target x86_64-unknown-linux-gnu
else
    echo "nightly toolchain not installed; skipping"
fi

echo "== trace smoke (tiny workload, self-checked Chrome JSON + CSV) =="
TRACE_TMP="$(mktemp -d)"
trap 'rm -rf "$TRACE_TMP"' EXIT

# Byte-compare a smoke document with its checked-in golden: these runs are
# deterministic, so any drift is a change to the emitted bytes. After an
# intentional one, regenerate with UPDATE_GOLDEN=1 and review the diff
# (same convention as tests/trace_golden.rs).
golden() {
    if [ -n "${UPDATE_GOLDEN:-}" ]; then
        cp "$1" "tests/golden/$2"
    fi
    if ! cmp "$1" "tests/golden/$2"; then
        echo "$2 drifted from its golden; if intentional, rerun with UPDATE_GOLDEN=1" >&2
        exit 1
    fi
}
cargo run -p bench --release -q --bin trace -- \
    --out "$TRACE_TMP/smoke" --records 400 --ops 200 --txns 60 --check \
    --telemetry-out "$TRACE_TMP/smoke_telemetry.json"
test -s "$TRACE_TMP/smoke.trace.json"
test -s "$TRACE_TMP/smoke.series.csv"
test -s "$TRACE_TMP/smoke_telemetry.json"

echo "== crash-campaign smoke (--check fails on any DuraSSD acked-lost) =="
cargo run -p bench --release -q --bin crashmatrix -- \
    --keys 300 --cuts 3 --seed 7 --json "$TRACE_TMP/crash.json" --check \
    >"$TRACE_TMP/crash.out"
test -s "$TRACE_TMP/crash.json"
test -s "$TRACE_TMP/crash.trace.json"
grep -q '"schema":"durassd.forensics.v2"' "$TRACE_TMP/crash.json"
grep -q '"name":"power_cut"' "$TRACE_TMP/crash.trace.json"

echo "== simtest campaign (fixed seeds, every target, shrunk repro on fail) =="
cargo run -p simtest --release -q -- --seeds 50 --ops 2000 --check --quiet

echo "== recovery smoke (crash + checkpoint-bounded replay, schema-validated) =="
# --check asserts the schema, ≥3 devices × ≥2 checkpoint intervals, reboot +
# scan + redo summing to the recovery time in every row, checkpoint-bounded
# (fewer records at the shorter interval: ≥1, and from fewer outstanding
# bytes, on every device's relational rows) and the docstore's header search
# bounded (≤ 20 ms on the SSDs, ≤ 1 s on the disk).
cargo run -p bench --release -q --bin recovery -- \
    --commits 600 --doc-ops 600 --out "$TRACE_TMP/recovery.json" --check \
    >"$TRACE_TMP/recovery.out"
test -s "$TRACE_TMP/recovery.json"
grep -q '"schema":"durassd.recovery.v3"' "$TRACE_TMP/recovery.json"

echo "== observe smoke (each cell once: BENCH_waf.json off the counters, BENCH_latency.json off the registry) =="
# --check fails on schema drift; on the WAF side any row whose per-cause
# counts do not sum to its totals (attribution leak) or durable < volatile
# absorption; on the latency side a conservation violation (segments exceed
# an op's wall latency), any flush-cache time in a durable tail, a volatile
# tail that is not flush-dominated, or a volatile read p99 under 10x the
# durable one beside fsyncing writers.
cargo run -p bench --release -q --bin observe -- \
    --fio-ops 4000 --fio-span 512 --ycsb-records 200 --ycsb-ops 800 \
    --warehouses 1 --txns 40 --tail-ops 20000 --waf-out "$TRACE_TMP/waf.json" \
    --latency-out "$TRACE_TMP/latency.json" --check >"$TRACE_TMP/observe.out"
grep -q '"schema":"durassd.waf.v1"' "$TRACE_TMP/waf.json"
grep -q '"schema":"durassd.latency.v1"' "$TRACE_TMP/latency.json"
golden "$TRACE_TMP/waf.json" waf_smoke.json
golden "$TRACE_TMP/latency.json" latency_smoke.json

echo "== paper (Tables 1-5, Figs 5/6 at full scale: shape claims + byte-identical document) =="
# --check fails when a shape claim expected to hold does not, or when a
# divergence written down in the document starts holding. The document is
# deterministic and has no wall-clock field, so the checked-in file is the
# golden; after an intended change regenerate it with
# `paper --out BENCH_paper.json --check` and review the diff.
cargo run -p bench --release -q --bin paper -- \
    --out "$TRACE_TMP/paper.json" --check >"$TRACE_TMP/paper.out"
grep -q '"schema":"durassd.paper.v1"' "$TRACE_TMP/paper.json"
if ! cmp "$TRACE_TMP/paper.json" BENCH_paper.json; then
    echo "BENCH_paper.json drifted from what paper measures; if intentional, regenerate it" >&2
    exit 1
fi

echo "== repo benchmark (out-of-workspace package: unit tests + reduced-scale smoke) =="
# benchmark/ builds against the workspace crates by path, so an API change
# that breaks it must fail here, not in the benchmark pipeline.
(cd benchmark && cargo test --release --offline -q)
benchmark/smoke.sh

echo "== benchmark simulated world (every workload's sim_fingerprint at smoke scale) =="
# A host-only change must leave what each workload simulates untouched, so
# the seven fingerprints of the built benchmark binary are byte-compared
# with their golden (UPDATE_GOLDEN=1 regenerates it).
BENCH_BIN="${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark"
for w in $(python3 -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
    "$BENCH_BIN" --workload "$w" --seed 1 --seconds 1 --scale-pct 4 --trace 0 |
        awk -v w="$w" '$1 == "sim_fingerprint" { print w, $2 }'
done >"$TRACE_TMP/bench_fingerprints.txt"
golden "$TRACE_TMP/bench_fingerprints.txt" bench_fingerprints.txt

echo "== allocation gates (noise-free proxies for the engines' and the device's host paths) =="
# allocs_per_op repeats exactly for a seed and scale, so it can gate where
# host ops/s cannot. Each gate fails at 2x what the commit that set it
# measured at this scale.
# fio_hot: 1.00833, fio_gc: 1.034 (their measured phases span 0.47 and 0.04
# simulated seconds, less than the atomic writer's one-second retirement
# window, so each write still gets a fresh pre-image vector); fio_flush_rw:
# 0.0821667 over 4.96 simulated seconds. The device path's indexes allocate
# nothing past their peak: one that allocated on 1 op in 12 or more would
# fail the fio_flush_rw gate.
# ycsb_doc: 5.10625 (the driver's key_of and get's owned return, plus the
# cold gets of the end-of-run verification); the parent measured 116.15.
# tpcc_rel: 13.0375 (the four of each one-transaction `tpcc::run` call's
# driver and RNG set-up, and the page-image sidecars of splits); the parent
# measured 100.9375, most of it the workload's key and row builders and
# get's owned return.
alloc_gate() {
    "$BENCH_BIN" --workload "$1" --seed 1 --seconds 1 --scale-pct 4 --trace 0 | tail -n 1 |
        python3 -c "
import json, sys
got = json.loads(sys.stdin.read())['metrics']['allocs_per_op']['value']
print(f'$1 allocs_per_op {got} (gate $2)')
sys.exit(got > $2)"
}
alloc_gate ycsb_doc 10.2125
alloc_gate tpcc_rel 26.075
alloc_gate fio_hot 2.01667
alloc_gate fio_gc 2.068
alloc_gate fio_flush_rw 0.164333

echo "tier-1 gate: OK"
