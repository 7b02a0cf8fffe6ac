//! Validators for every machine-readable report the bench bins write.
//!
//! Four bins emit schema-tagged JSON documents — `recovery`
//! (`BENCH_recovery.json`), `crashmatrix` (`--json`), `waf`
//! (`BENCH_waf.json`) and `latency` (`BENCH_latency.json`, also written by
//! `tail --json`) — and each offers a `--check` flag that `ci.sh` runs as a
//! regression gate.
//!
//! **Structure is data, claims are code.** What a document must look like —
//! which keys, of what type, in what range, nested how — is one static
//! [`Field`] table per schema, walked by [`simkit::json::check`], which
//! reports every violation. What the paper claims about the numbers
//! (per-cause conservation, durable ≥ volatile absorption, flush-free
//! durable tails, checkpoint-bounded replay, coverage floors) is a plain
//! function over the rows, run once the structure is valid so it can read
//! fields without re-checking them.

use simkit::json::{self, Field, JsonValue, Want::*};
use std::collections::{BTreeMap, BTreeSet};
use storage::device::WriteCause;
use telemetry::SegKind;

/// Schema tag for `BENCH_recovery.json` (the `recovery` bin).
pub const RECOVERY_SCHEMA: &str = "durassd.recovery.v1";
/// Schema tag for crash-campaign reports (`crashmatrix --json`).
pub const FORENSICS_SCHEMA: &str = "durassd.forensics.v1";
/// Schema tag for `BENCH_waf.json` (the `waf` bin).
pub const WAF_SCHEMA: &str = "durassd.waf.v1";
/// Schema tag for `BENCH_latency.json` (the `latency` bin) and the `tail`
/// bin's `--json` output.
pub const LATENCY_SCHEMA: &str = "durassd.latency.v1";

/// One parsed JSON object (a report row or a nested table).
type Row = BTreeMap<String, JsonValue>;

/// Structural pass of `doc` against `table`, then — only on a structurally
/// valid document — the schema's `claims` over its `rows`.
fn validate(
    doc: &str,
    table: &[Field],
    claims: impl FnOnce(&[&Row], &mut Vec<String>),
) -> Vec<String> {
    let v = match json::check_document(doc, table) {
        Ok(v) => v,
        Err(failures) => return failures,
    };
    let rows = v.as_object().and_then(|o| o.get("rows")).and_then(|r| r.as_array());
    let rows: Vec<&Row> = rows.into_iter().flatten().filter_map(|r| r.as_object()).collect();
    let mut failures = Vec::new();
    claims(&rows, &mut failures);
    failures
}

/// A numeric field the structural pass already vouched for.
fn num(row: &Row, key: &str) -> f64 {
    row.get(key).and_then(|v| v.as_f64()).unwrap_or(f64::NAN)
}

/// A string field the structural pass already vouched for.
fn text<'a>(row: &'a Row, key: &str) -> &'a str {
    row.get(key).and_then(|v| v.as_str()).unwrap_or("?")
}

const MODES: [&str; 2] = ["durable", "volatile"];

static RECOVERY_ROW: [Field; 10] = [
    Field::new("engine", Str),
    Field::new("device", Str),
    Field::new("ckpt_interval", Count),
    Field::new("replayed", Count),
    Field::new("skipped", Count),
    Field::new("torn", Count),
    Field::new("outstanding_bytes", Count),
    Field::new("recovery_wall_ns", Count),
    Field::new("recovery_sim_ns", Positive),
    Field::new("ttfr_sim_ns", Count),
];
static RECOVERY: [Field; 2] =
    [Field::new("schema", OneOf(&[RECOVERY_SCHEMA])), Field::new("rows", Rows(1, &RECOVERY_ROW))];

/// Validate a serialized `BENCH_recovery.json` document:
///
/// - parses as JSON, carries the [`RECOVERY_SCHEMA`] tag;
/// - a non-empty `rows` array whose rows have non-negative counters and a
///   positive simulated recovery time;
/// - ≥ 3 distinct devices and ≥ 2 distinct checkpoint intervals, and a
///   time-to-first-read no smaller than the recovery time;
/// - the DuraSSD relational rows actually exercise checkpoint-bounded
///   replay: at least one record replayed *and* at least one skipped.
pub fn check_recovery_report(doc: &str) -> Vec<String> {
    validate(doc, &RECOVERY, |rows, failures| {
        let mut devices = BTreeSet::new();
        let mut intervals = BTreeSet::new();
        for row in rows {
            let (engine, device) = (text(row, "engine"), text(row, "device"));
            devices.insert(device);
            intervals.insert(num(row, "ckpt_interval") as u64);
            let (ttfr, rec) = (num(row, "ttfr_sim_ns"), num(row, "recovery_sim_ns"));
            if ttfr < rec {
                failures.push(format!(
                    "{engine}/{device}: ttfr_sim_ns {ttfr} must be ≥ recovery_sim_ns {rec}"
                ));
            }
            // The headline claim: recovery on DuraSSD is checkpoint-bounded
            // logical replay — some records replayed, the pre-checkpoint
            // prefix skipped.
            if engine == "relstore" && device == "durassd" {
                for key in ["replayed", "skipped"] {
                    if num(row, key) < 1.0 {
                        failures.push(format!("{engine}/{device}: expected ≥ 1 {key} record"));
                    }
                }
            }
        }
        if devices.len() < 3 {
            failures.push(format!("want ≥ 3 distinct devices, got {devices:?}"));
        }
        if intervals.len() < 2 {
            failures.push(format!("want ≥ 2 distinct checkpoint intervals, got {intervals:?}"));
        }
    })
}

static FORENSICS_TALLY: [Field; 5] = [
    Field::new("survived", Count),
    Field::new("acked_lost", Count),
    Field::new("torn", Count),
    Field::new("stale", Count),
    Field::new("never_acked", Count),
];
static FORENSICS_POSTMORTEM: [Field; 5] = [
    Field::new("device", Str),
    Field::new("protection", Str),
    Field::new("dirty_slots", Count),
    Field::new("discarded_dirty_slots", Count),
    Field::new("nand_shorn_pages", Count),
];
static FORENSICS_LOSS: [Field; 4] = [
    Field::new("unit", Str),
    Field::new("classification", OneOf(&["acked-lost", "torn", "stale", "never-acked"])),
    Field::new(
        "layer",
        OneOf(&[
            "cache-slot",
            "channel-queue",
            "lazy-ftl-map",
            "hdd-write-cache",
            "host-in-flight",
            "unattributed",
        ]),
    ),
    Field::new("evidence", Str),
];
static FORENSICS_ROW: [Field; 6] = [
    Field::new("label", Str),
    Field::new("tally", Obj(&FORENSICS_TALLY)),
    Field::new("verdict", Str),
    Field::new("cut_phase", Str),
    Field::new("postmortems", Rows(0, &FORENSICS_POSTMORTEM)),
    Field::new("losses", Rows(0, &FORENSICS_LOSS)),
];
static FORENSICS: [Field; 5] = [
    Field::new("schema", OneOf(&[FORENSICS_SCHEMA])),
    Field::new("seed", Count),
    Field::new("keys", Count),
    Field::new("cuts", Count),
    Field::new("rows", Rows(1, &FORENSICS_ROW)),
];

/// Structurally validate a `durassd.forensics.v1` crash-campaign document:
/// the schema tag, that every row carries a tally / verdict / postmortems,
/// and that every loss row has a known classification and layer
/// attribution. The schema makes no cross-row claims (the campaign's one
/// claim, DuraSSD `acked_lost == 0`, is checked by `crashmatrix --check`
/// on the report it just built).
pub fn check_forensics_report(doc: &str) -> Vec<String> {
    json::check_document(doc, &FORENSICS).err().unwrap_or_default()
}

/// One `Count` entry per [`WriteCause`] label, so the exact key set of the
/// per-cause breakdowns can never drift from the enum.
static BY_CAUSE: [Field; WriteCause::COUNT] = {
    let mut table = [Field::new("", Count); WriteCause::COUNT];
    let mut i = 0;
    while i < table.len() {
        table[i].key = WriteCause::ALL[i].label();
        i += 1;
    }
    table
};
static WAF_ROW: [Field; 10] = [
    Field::new("workload", Str),
    Field::new("mode", OneOf(&MODES)),
    Field::new("device", Str),
    Field::new("host_pages", Positive),
    Field::new("media_pages", Positive),
    Field::new("waf", Positive),
    Field::new("absorbed_overwrites", Count),
    Field::new("absorption_pct", Range(0.0, 100.0)),
    Field::new("host_by_cause", Exact(&BY_CAUSE)),
    Field::new("media_by_cause", Exact(&BY_CAUSE)),
];
static WAF: [Field; 2] =
    [Field::new("schema", OneOf(&[WAF_SCHEMA])), Field::new("rows", Rows(1, &WAF_ROW))];

/// Validate a serialized `BENCH_waf.json` document:
///
/// - parses as JSON, carries the [`WAF_SCHEMA`] tag;
/// - a non-empty `rows` array whose rows have positive host and media page
///   counts, a finite positive `waf`, an `absorption_pct` in `[0, 100]` and
///   `media_by_cause` / `host_by_cause` objects carrying exactly the
///   [`WriteCause::ALL`] labels;
/// - ≥ 3 distinct workloads, each present in both a `durable` and a
///   `volatile` row;
/// - per-row provenance conservation: the per-cause values sum to
///   `media_pages` (and to `host_pages`) — a write the attribution layer
///   cannot explain fails the gate;
/// - at least one durable row absorbed overwrites, and for every workload
///   the durable row absorbs at least as much as its volatile twin (the
///   paper's claim, stated as an inequality so it is scale-independent).
pub fn check_waf_report(doc: &str) -> Vec<String> {
    validate(doc, &WAF, |rows, failures| {
        // workload → absorbed overwrites of its [durable, volatile] rows
        let mut absorbed: BTreeMap<&str, [Option<f64>; 2]> = BTreeMap::new();
        for row in rows {
            let (workload, mode) = (text(row, "workload"), text(row, "mode"));
            absorbed.entry(workload).or_default()[usize::from(mode == "volatile")] =
                Some(num(row, "absorbed_overwrites"));
            // Conservation: the per-cause breakdowns must explain every
            // page at both boundaries.
            for (key, total_key) in
                [("media_by_cause", "media_pages"), ("host_by_cause", "host_pages")]
            {
                let by_cause = row.get(key).and_then(|v| v.as_object());
                let sum: f64 = by_cause.into_iter().flatten().filter_map(|(_, v)| v.as_f64()).sum();
                let total = num(row, total_key);
                if sum != total {
                    failures.push(format!(
                        "{workload}/{mode}: Σ {key} = {sum} does not equal {total_key} {total} — \
                         unattributed writes"
                    ));
                }
            }
        }
        if absorbed.len() < 3 {
            let names: Vec<_> = absorbed.keys().collect();
            failures.push(format!("want ≥ 3 distinct workloads, got {names:?}"));
        }
        let mut any_absorbed = false;
        for (workload, pair) in &absorbed {
            match pair {
                [Some(d), Some(v)] => {
                    any_absorbed |= *d >= 1.0;
                    if d < v {
                        failures.push(format!(
                            "{workload}: durable absorbed {d} < volatile absorbed {v}"
                        ));
                    }
                }
                [dur, vol] => failures.push(format!(
                    "{workload}: need both durable and volatile rows (got durable {dur:?}, \
                     volatile {vol:?})"
                )),
            }
        }
        if !any_absorbed {
            failures.push("no durable row absorbed any overwrites".into());
        }
    })
}

static SEG_ENTRY: [Field; 5] = [
    Field::new("count", Count),
    Field::new("total_ns", Count),
    Field::new("p50", Count),
    Field::new("p99", Count),
    Field::new("max", Count),
];
static LATENCY_TAIL: [Field; 4] = [
    Field::new("wall", Positive),
    Field::new("flush_cache_ns", Count),
    Field::new("flush_frac", Range(0.0, 1.0)),
    Field::new("segments", MapOf(&Count)),
];
static LATENCY_ROW: [Field; 13] = [
    Field::new("workload", Str),
    Field::new("mode", OneOf(&MODES)),
    Field::new("device", Str),
    Field::new("commit_op", Str),
    Field::new("count", Positive),
    Field::new("min", Count),
    Field::new("p50", Count),
    Field::new("p99", Count),
    Field::new("p999", Count),
    Field::new("max", Count),
    Field::new("violations", Count),
    Field::new("segments", MapOf(&Obj(&SEG_ENTRY))),
    Field::new("tail", Obj(&LATENCY_TAIL)),
];
static LATENCY: [Field; 2] =
    [Field::new("schema", OneOf(&[LATENCY_SCHEMA])), Field::new("rows", Rows(1, &LATENCY_ROW))];

/// Validate a serialized `BENCH_latency.json` document:
///
/// - parses as JSON, carries the [`LATENCY_SCHEMA`] tag;
/// - a non-empty `rows` array whose rows have a positive commit-op `count`,
///   a percentile ladder, a per-segment-kind table and a `tail` object
///   (slowest captured commit) with its breakdown;
/// - ≥ `min_workloads` distinct workloads (the full `latency` observatory
///   emits three, the `tail` bin's mixed run two), each present in both a
///   `durable` and a `volatile` row;
/// - per row: ordered percentiles (`min ≤ p50 ≤ p99 ≤ p999 ≤ max`), zero
///   conservation `violations`, a non-empty segment table of known
///   [`SegKind`] labels;
/// - the paper's durability claim as a latency gate: durable-mode tails
///   contain **zero** flush-cache time (the write cache is power-loss-proof,
///   so commits never wait on FLUSH CACHE), while every volatile tail is
///   flush-dominated (`flush_frac ≥ 0.5`).
pub fn check_latency_report(doc: &str, min_workloads: usize) -> Vec<String> {
    validate(doc, &LATENCY, |rows, failures| {
        // workload → whether its [durable, volatile] rows are present
        let mut workloads: BTreeMap<&str, [bool; 2]> = BTreeMap::new();
        for row in rows {
            let (workload, mode) = (text(row, "workload"), text(row, "mode"));
            let tag = format!("{workload}/{mode}");
            workloads.entry(workload).or_default()[usize::from(mode == "volatile")] = true;
            let pct = ["min", "p50", "p99", "p999", "max"].map(|k| num(row, k));
            if pct.windows(2).any(|w| w[0] > w[1]) {
                failures.push(format!("{tag}: percentiles not monotone: {pct:?}"));
            }
            let violations = num(row, "violations");
            if violations != 0.0 {
                failures.push(format!(
                    "{tag}.violations = {violations}: segment sums exceeded wall latency"
                ));
            }
            let segs = row.get("segments").and_then(|v| v.as_object());
            if segs.is_none_or(|s| s.is_empty()) {
                failures.push(format!("{tag}: segments object empty"));
            }
            for label in segs.into_iter().flatten().map(|(label, _)| label) {
                if !SegKind::ALL.iter().any(|k| k.label() == label) {
                    failures.push(format!("{tag}.segments.{label}: unknown segment kind"));
                }
            }
            let Some(tail) = row.get("tail").and_then(|v| v.as_object()) else { continue };
            if mode == "durable" {
                // Durable cache: FLUSH CACHE is free, so the *slowest* commit
                // observed must contain zero flush time — and so must the
                // whole run (segment histogram absent or empty).
                let flush_ns = num(tail, "flush_cache_ns");
                if flush_ns != 0.0 {
                    failures.push(format!(
                        "{tag}: durable tail has flush_cache time {flush_ns}, want 0"
                    ));
                }
                let run = segs.and_then(|s| s.get("flush_cache")).and_then(|v| v.as_object());
                if let Some(count) = run.map(|fc| num(fc, "count")).filter(|&c| c != 0.0) {
                    failures.push(format!(
                        "{tag}: durable run recorded {count} flush_cache segments, want 0"
                    ));
                }
            } else {
                let flush_frac = num(tail, "flush_frac");
                if flush_frac < 0.5 {
                    failures.push(format!(
                        "{tag}: volatile tail flush_frac = {flush_frac}, want ≥ 0.5 \
                         (flush-dominated)"
                    ));
                }
            }
        }
        if workloads.len() < min_workloads {
            let names: Vec<_> = workloads.keys().collect();
            failures.push(format!("want ≥ {min_workloads} distinct workloads, got {names:?}"));
        }
        for (workload, [dur, vol]) in &workloads {
            if !(*dur && *vol) {
                failures.push(format!(
                    "{workload}: need both durable and volatile rows (durable {dur}, \
                     volatile {vol})"
                ));
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn waf_row(workload: &str, mode: &str, host: u64, media: u64, absorbed: u64) -> String {
        // Attribute everything to host_data at the host boundary and split
        // media pages between host_data and gc_relocate.
        let gc = media / 4;
        let mut host_bc = String::new();
        let mut media_bc = String::new();
        for cause in WriteCause::ALL {
            if !host_bc.is_empty() {
                host_bc.push(',');
                media_bc.push(',');
            }
            let (h, m) = match cause {
                WriteCause::HostData => (host, media - gc),
                WriteCause::GcRelocate => (0, gc),
                _ => (0, 0),
            };
            host_bc.push_str(&format!("\"{}\":{h}", cause.label()));
            media_bc.push_str(&format!("\"{}\":{m}", cause.label()));
        }
        format!(
            "{{\"workload\":\"{workload}\",\"mode\":\"{mode}\",\"device\":\"durassd\",\
             \"host_pages\":{host},\"media_pages\":{media},\"waf\":{:.4},\
             \"absorbed_overwrites\":{absorbed},\"absorption_pct\":{:.2},\
             \"host_by_cause\":{{{host_bc}}},\"media_by_cause\":{{{media_bc}}}}}",
            media as f64 / host as f64,
            100.0 * absorbed as f64 / (host + absorbed) as f64,
        )
    }

    fn waf_doc(rows: &[String]) -> String {
        format!("{{\"schema\":\"{WAF_SCHEMA}\",\"rows\":[{}]}}", rows.join(","))
    }

    #[test]
    fn waf_report_validation_accepts_conserved_documents() {
        let doc = waf_doc(&[
            waf_row("fio", "durable", 1000, 1200, 500),
            waf_row("fio", "volatile", 1500, 1900, 0),
            waf_row("ycsb_a", "durable", 800, 1000, 60),
            waf_row("ycsb_a", "volatile", 800, 1100, 0),
            waf_row("tpcc", "durable", 600, 700, 40),
            waf_row("tpcc", "volatile", 600, 900, 0),
        ]);
        let fails = check_waf_report(&doc);
        assert!(fails.is_empty(), "{fails:?}");
    }

    #[test]
    fn waf_report_validation_rejects_violations() {
        // Not JSON / wrong tag.
        assert!(!check_waf_report("nope").is_empty());
        assert!(!check_waf_report("{\"schema\":\"other.v1\",\"rows\":[]}").is_empty());

        // A row whose per-cause counts do not sum to the total is the core
        // conservation gate.
        let mut leaky = waf_row("fio", "durable", 1000, 1200, 500);
        leaky = leaky.replace("\"media_pages\":1200", "\"media_pages\":1201");
        let doc = waf_doc(&[
            leaky,
            waf_row("fio", "volatile", 1500, 1900, 0),
            waf_row("ycsb_a", "durable", 800, 1000, 60),
            waf_row("ycsb_a", "volatile", 800, 1100, 0),
            waf_row("tpcc", "durable", 600, 700, 40),
            waf_row("tpcc", "volatile", 600, 900, 0),
        ]);
        let fails = check_waf_report(&doc);
        assert!(fails.iter().any(|f| f.contains("unattributed")), "{fails:?}");

        // Durable absorbing less than volatile contradicts the paper claim.
        let doc = waf_doc(&[
            waf_row("fio", "durable", 1000, 1200, 5),
            waf_row("fio", "volatile", 1500, 1900, 50),
            waf_row("ycsb_a", "durable", 800, 1000, 60),
            waf_row("ycsb_a", "volatile", 800, 1100, 0),
            waf_row("tpcc", "durable", 600, 700, 40),
            waf_row("tpcc", "volatile", 600, 900, 0),
        ]);
        let fails = check_waf_report(&doc);
        assert!(fails.iter().any(|f| f.contains("durable absorbed")), "{fails:?}");

        // Fewer than three workloads, or a missing mode twin.
        let doc = waf_doc(&[
            waf_row("fio", "durable", 1000, 1200, 500),
            waf_row("fio", "volatile", 1500, 1900, 0),
            waf_row("ycsb_a", "durable", 800, 1000, 60),
        ]);
        let fails = check_waf_report(&doc);
        assert!(fails.iter().any(|f| f.contains("distinct workloads")), "{fails:?}");
        assert!(fails.iter().any(|f| f.contains("both durable and volatile")), "{fails:?}");
    }

    fn seg_entry(count: u64, total: u64) -> String {
        format!(
            "{{\"count\":{count},\"total_ns\":{total},\"p50\":{p},\"p99\":{p},\"max\":{p}}}",
            p = if count == 0 { 0 } else { total / count.max(1) }
        )
    }

    fn latency_row(workload: &str, mode: &str) -> String {
        let durable = mode == "durable";
        let (flush_ns, flush_frac) = if durable { (0u64, 0.0) } else { (90_000u64, 0.9) };
        let mut segs = format!("\"wal_fsync\":{}", seg_entry(100, 5_000_000));
        if !durable {
            segs.push_str(&format!(",\"flush_cache\":{}", seg_entry(100, 9_000_000)));
        }
        format!(
            "{{\"workload\":\"{workload}\",\"mode\":\"{mode}\",\"device\":\"d\",\
             \"commit_op\":\"engine.commit\",\"count\":100,\"min\":10,\"p50\":50,\
             \"p99\":900,\"p999\":1000,\"max\":100000,\"violations\":0,\
             \"segments\":{{{segs}}},\
             \"tail\":{{\"wall\":100000,\"flush_cache_ns\":{flush_ns},\
             \"flush_frac\":{flush_frac:.2},\"segments\":{{\"wal_fsync\":10000}}}}}}"
        )
    }

    fn latency_doc(rows: &[String]) -> String {
        format!("{{\"schema\":\"{LATENCY_SCHEMA}\",\"rows\":[{}]}}", rows.join(","))
    }

    fn full_latency_doc() -> Vec<String> {
        ["fio", "ycsb_a", "tpcc"]
            .iter()
            .flat_map(|w| ["durable", "volatile"].iter().map(|m| latency_row(w, m)))
            .collect()
    }

    #[test]
    fn latency_report_validation_accepts_good_documents() {
        let doc = latency_doc(&full_latency_doc());
        let fails = check_latency_report(&doc, 3);
        assert!(fails.is_empty(), "{fails:?}");
    }

    #[test]
    fn latency_report_validation_rejects_violations() {
        assert!(!check_latency_report("nope", 3).is_empty());
        assert!(!check_latency_report("{\"schema\":\"other.v1\",\"rows\":[]}", 3).is_empty());

        // A durable tail containing flush-cache time contradicts the paper.
        let mut rows = full_latency_doc();
        rows[0] = rows[0].replace("\"flush_cache_ns\":0", "\"flush_cache_ns\":5000");
        let fails = check_latency_report(&latency_doc(&rows), 3);
        assert!(fails.iter().any(|f| f.contains("durable tail has flush_cache")), "{fails:?}");

        // A durable run recording any flush_cache segments fails too.
        let mut rows = full_latency_doc();
        let inject = format!("}},\"flush_cache\":{}}},\"tail\"", seg_entry(3, 1000));
        rows[0] = rows[0].replacen("}},\"tail\"", &inject, 1);
        let fails = check_latency_report(&latency_doc(&rows), 3);
        assert!(fails.iter().any(|f| f.contains("flush_cache segments")), "{fails:?}");

        // A volatile tail that is not flush-dominated.
        let mut rows = full_latency_doc();
        rows[1] = rows[1].replace("\"flush_frac\":0.90", "\"flush_frac\":0.10");
        let fails = check_latency_report(&latency_doc(&rows), 3);
        assert!(fails.iter().any(|f| f.contains("flush-dominated")), "{fails:?}");

        // Conservation violations gate the report outright.
        let mut rows = full_latency_doc();
        rows[2] = rows[2].replace("\"violations\":0", "\"violations\":2");
        let fails = check_latency_report(&latency_doc(&rows), 3);
        assert!(fails.iter().any(|f| f.contains("exceeded wall")), "{fails:?}");

        // Unknown segment kinds are typos, not data.
        let mut rows = full_latency_doc();
        rows[3] = rows[3].replace("\"wal_fsync\":{\"count\"", "\"wal_fsyncc\":{\"count\"");
        let fails = check_latency_report(&latency_doc(&rows), 3);
        assert!(fails.iter().any(|f| f.contains("unknown segment kind")), "{fails:?}");

        // Non-monotone percentiles.
        let mut rows = full_latency_doc();
        rows[4] = rows[4].replace("\"p999\":1000", "\"p999\":5");
        let fails = check_latency_report(&latency_doc(&rows), 3);
        assert!(fails.iter().any(|f| f.contains("not monotone")), "{fails:?}");

        // Missing mode twin.
        let rows = full_latency_doc();
        let fails = check_latency_report(&latency_doc(&rows[..5]), 3);
        assert!(fails.iter().any(|f| f.contains("both durable and volatile")), "{fails:?}");
    }

    fn sample_campaign() -> forensics::CampaignReport {
        use forensics::{
            reconcile, AckContract, CacheSlotSnap, CampaignReport, DevicePostmortem, DumpOutcome,
            Ledger, Probe, ProbeResult, RecoverySnap, UnitKind,
        };
        let l = Ledger::new(AckContract::VolatileAck);
        l.pend(UnitKind::RelstoreCommit, b"k0", Ledger::digest(b"v0"), 5);
        l.pend(UnitKind::RelstoreCommit, b"k1", Ledger::digest(b"v1"), 6);
        l.ack_all_pending(9, false);
        l.pend(UnitKind::RelstoreCommit, b"k2", Ledger::digest(b"v2"), 12);
        let pm = DevicePostmortem {
            device: "ssd".into(),
            protection: "volatile".into(),
            cut_at: 20,
            dirty_slots: vec![CacheSlotSnap { lpn: 3, draining: true, ackable_at: 8 }],
            discarded_dirty_slots: 1,
            channel_drain_positions: vec![0, 15],
            dump: Some(DumpOutcome { bytes: 4096, budget_bytes: 8192, within_budget: true }),
            unpersisted_map: vec![(3, None), (4, Some(9))],
            rolled_back_map_entries: 2,
            nand_shorn_pages: 1,
            aborted_inflight_writes: 1,
        };
        let rec = RecoverySnap {
            device: "ssd".into(),
            ready_at: 500,
            requeued_slots: 0,
            recovered_via_dump: false,
            scan_only: true,
        };
        let probes = vec![
            Probe::new(b"k0", ProbeResult::Value(Ledger::digest(b"v0"))),
            Probe::new(b"k1", ProbeResult::Missing),
            Probe::new(b"k2", ProbeResult::Missing),
        ];
        let row = reconcile(
            "engine SSD-A OFF/OFF",
            2,
            "after-commit",
            20,
            &l,
            &probes,
            vec![pm],
            vec![rec],
        );
        CampaignReport { seed: 7, keys: 3, cuts: 1, rows: vec![row] }
    }

    #[test]
    fn forensics_validation_accepts_real_reports() {
        let doc = sample_campaign().to_json();
        let fails = check_forensics_report(&doc);
        assert!(fails.is_empty(), "{fails:?}");
    }

    #[test]
    fn forensics_validation_rejects_malformed_documents() {
        assert!(!check_forensics_report("{").is_empty());
        assert!(!check_forensics_report("{\"schema\":\"other.v9\"}").is_empty());
        let doc = sample_campaign().to_json();
        // Corrupt a classification: must be rejected.
        let bad = doc.replace("\"acked-lost\"", "\"evaporated\"");
        let errs = check_forensics_report(&bad);
        assert!(
            errs.iter().any(|e| e.contains("classification") || e.contains("evaporated")),
            "{errs:?}"
        );
        // Strip the rows: must be rejected.
        let empty =
            "{\"schema\":\"durassd.forensics.v1\",\"seed\":1,\"keys\":1,\"cuts\":1,\"rows\":[]}";
        assert!(!check_forensics_report(empty).is_empty());
    }

    fn recovery_row(
        engine: &str,
        device: &str,
        interval: u64,
        replayed: u64,
        skipped: u64,
    ) -> String {
        format!(
            "{{\"engine\":\"{engine}\",\"device\":\"{device}\",\"ckpt_interval\":{interval},\
             \"replayed\":{replayed},\"skipped\":{skipped},\"torn\":0,\
             \"outstanding_bytes\":4096,\"recovery_wall_ns\":100,\
             \"recovery_sim_ns\":5000,\"ttfr_sim_ns\":6000}}"
        )
    }

    #[test]
    fn recovery_report_validation() {
        let good = format!(
            "{{\"schema\":\"{RECOVERY_SCHEMA}\",\"rows\":[{},{},{},{}]}}",
            recovery_row("relstore", "durassd", 256, 3, 9),
            recovery_row("relstore", "ssd_volatile", 2048, 3, 9),
            recovery_row("relstore", "hdd", 256, 3, 9),
            recovery_row("docstore", "durassd", 256, 0, 4),
        );
        assert!(check_recovery_report(&good).is_empty(), "{:?}", check_recovery_report(&good));

        // DuraSSD relstore row with nothing replayed: flagged.
        let bad = format!(
            "{{\"schema\":\"{RECOVERY_SCHEMA}\",\"rows\":[{},{},{}]}}",
            recovery_row("relstore", "durassd", 256, 0, 0),
            recovery_row("relstore", "ssd_volatile", 2048, 3, 9),
            recovery_row("relstore", "hdd", 256, 3, 9),
        );
        let fails = check_recovery_report(&bad);
        assert!(fails.iter().any(|f| f.contains("replayed")), "{fails:?}");
        assert!(fails.iter().any(|f| f.contains("skipped")), "{fails:?}");

        // Too few devices / intervals.
        let narrow = format!(
            "{{\"schema\":\"{RECOVERY_SCHEMA}\",\"rows\":[{}]}}",
            recovery_row("relstore", "durassd", 256, 3, 9),
        );
        let fails = check_recovery_report(&narrow);
        assert!(fails.iter().any(|f| f.contains("distinct devices")), "{fails:?}");
        assert!(fails.iter().any(|f| f.contains("distinct checkpoint intervals")), "{fails:?}");

        // Wrong schema tag and garbage both flagged.
        assert!(!check_recovery_report("{\"schema\":\"nope\",\"rows\":[]}").is_empty());
        assert!(!check_recovery_report("not json").is_empty());
    }

    #[test]
    fn forensics_validation_reports_every_violation() {
        // Three independent defects in one document: all three come back
        // (the hand-walked validator stopped at the first).
        let bad = sample_campaign()
            .to_json()
            .replace("\"seed\":7", "\"seed\":\"seven\"")
            .replace("\"acked-lost\"", "\"evaporated\"")
            .replace("\"layer\":\"host-in-flight\"", "\"layer\":\"the-cloud\"");
        let errs = check_forensics_report(&bad);
        assert_eq!(errs.len(), 3, "{errs:?}");
        for needle in ["seed", "classification", "layer"] {
            assert!(errs.iter().any(|e| e.contains(needle)), "no {needle} in {errs:?}");
        }
    }
}
