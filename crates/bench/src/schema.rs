//! Validators for every machine-readable report the bench bins write.
//!
//! Five bins emit schema-tagged JSON documents — `recovery`
//! (`BENCH_recovery.json`), `crashmatrix` (`--json`), `waf`
//! (`BENCH_waf.json`), `latency` (`BENCH_latency.json`, also written by
//! `tail --json`) and `paper` (`BENCH_paper.json`) — and each offers a
//! `--check` flag that `ci.sh` runs as a regression gate.
//!
//! **Structure is data, claims are code.** What a document must look like —
//! which keys, of what type, in what range, nested how — is one static
//! [`Field`] table per schema, walked by [`simkit::json::check`], which
//! reports every violation. What the paper claims about the numbers
//! (per-cause conservation, durable ≥ volatile absorption, flush-free
//! durable tails, checkpoint-bounded replay, coverage floors) is a plain
//! function over the rows, run once the structure is valid so it can read
//! fields without re-checking them. The paper's own shape claims are a table
//! of such functions ([`PAPER_CLAIMS`]), each with the outcome this
//! reproduction is known to give.

use simkit::json::{self, Field, JsonValue, Want::*, Writer};
use std::collections::BTreeMap;
use storage::device::WriteCause;
use telemetry::SegKind;
use workloads::linkbench::OP_TYPES;

/// Schema tag for `BENCH_recovery.json` (the `recovery` bin).
pub const RECOVERY_SCHEMA: &str = "durassd.recovery.v3";
/// Schema tag for crash-campaign reports (`crashmatrix --json`).
pub const FORENSICS_SCHEMA: &str = "durassd.forensics.v2";
/// Schema tag for `BENCH_waf.json` (the `waf` bin).
pub const WAF_SCHEMA: &str = "durassd.waf.v1";
/// Schema tag for `BENCH_latency.json` (the `latency` bin) and the `tail`
/// bin's `--json` output.
pub const LATENCY_SCHEMA: &str = "durassd.latency.v1";

/// Schema tag for `BENCH_paper.json` (the `paper` bin).
pub const PAPER_SCHEMA: &str = "durassd.paper.v1";

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

static RECOVERY_ROW: [Field; 12] = [
    Field::new("engine", Str),
    Field::new("device", Str),
    Field::new("ckpt_interval", Count),
    Field::new("replayed", Count),
    Field::new("torn", Count),
    Field::new("outstanding_bytes", Count),
    Field::new("recovery_wall_ns", Count),
    Field::new("recovery_sim_ns", Positive),
    Field::new("reboot_sim_ns", Count),
    Field::new("scan_sim_ns", Count),
    Field::new("redo_sim_ns", Count),
    Field::new("ttfr_sim_ns", Count),
];
static RECOVERY: [Field; 2] =
    [Field::new("schema", OneOf(&[RECOVERY_SCHEMA])), Field::new("rows", Rows(1, &RECOVERY_ROW))];

/// `(device, ckpt_interval, scan_sim_ns)` of the relational rows as checked in
/// (3,000 commits) while recovery still read one page per command at queue
/// depth 1: a row at that scale must stay below its entry.
const RELSTORE_SCAN_AT_DEPTH_1_NS: [(&str, f64, f64); 6] = [
    ("durassd", 256.0, 1_265_044.0),
    ("ssd_volatile", 256.0, 1_708_884.0),
    ("hdd", 256.0, 19_557_747.0),
    ("durassd", 2048.0, 5_537_254.0),
    ("ssd_volatile", 2048.0, 5_981_094.0),
    ("hdd", 2048.0, 45_875_857.0),
];

/// Validate a serialized `BENCH_recovery.json` document:
///
/// - parses as JSON, carries the [`RECOVERY_SCHEMA`] tag;
/// - a non-empty `rows` array whose rows have non-negative counters and a
///   positive simulated recovery time;
/// - ≥ 3 distinct devices, each with relational rows at ≥ 2 distinct
///   checkpoint intervals, and a time-to-first-read no smaller than the
///   recovery time;
/// - every row conserves: reboot, scan and redo sum to the recovery time;
/// - both engines scan for ≤ 20 ms on the SSDs and ≤ 1 s on the disk — the
///   document store pays for what was appended since the high-water mark last
///   moved, not for the file's capacity; the relational engine reads its
///   catalog, double-write area and log at the device's queue depth, and at
///   the checked-in scale stays below what one page per command cost;
/// - recovery is checkpoint-bounded: on every device, the relational row at
///   a shorter checkpoint interval replays at least one record and strictly
///   fewer, from strictly fewer outstanding log bytes, than the row at the
///   next longer interval.
pub fn check_recovery_report(doc: &str) -> Vec<String> {
    validate(doc, &RECOVERY, |rows, failures| {
        // device → checkpoint interval → (replayed, outstanding bytes) of
        // the relational rows.
        let mut relstore: BTreeMap<&str, BTreeMap<u64, (f64, f64)>> = BTreeMap::new();
        for row in rows {
            let (engine, device) = (text(row, "engine"), text(row, "device"));
            let (ttfr, rec) = (num(row, "ttfr_sim_ns"), num(row, "recovery_sim_ns"));
            if ttfr < rec {
                failures.push(format!(
                    "{engine}/{device}: ttfr_sim_ns {ttfr} must be ≥ recovery_sim_ns {rec}"
                ));
            }
            let phases = ["reboot_sim_ns", "scan_sim_ns", "redo_sim_ns"].map(|key| num(row, key));
            if phases.iter().sum::<f64>() != rec {
                failures.push(format!(
                    "{engine}/{device}: reboot + scan + redo {phases:?} must sum to \
                     recovery_sim_ns {rec}"
                ));
            }
            let scan_bound = if device == "hdd" { 1e9 } else { 20e6 };
            if phases[1] > scan_bound {
                failures.push(format!(
                    "{engine}/{device}: scan_sim_ns {} exceeds {scan_bound} ns",
                    phases[1]
                ));
            }
            if engine == "relstore" {
                let interval = num(row, "ckpt_interval");
                let before = RELSTORE_SCAN_AT_DEPTH_1_NS
                    .iter()
                    .find(|(d, i, _)| *d == device && *i == interval)
                    .filter(|(.., ns)| num(row, "commits") == 3000.0 && phases[1] >= *ns);
                if let Some((.., before)) = before {
                    failures.push(format!(
                        "relstore/{device}: scan_sim_ns {} at interval {interval} is not below \
                         the {before} ns of one page per command",
                        phases[1]
                    ));
                }
                relstore
                    .entry(device)
                    .or_default()
                    .insert(interval as u64, (num(row, "replayed"), num(row, "outstanding_bytes")));
            }
        }
        if relstore.len() < 3 {
            failures.push(format!("want ≥ 3 distinct devices, got {:?}", relstore.keys()));
        }
        for (device, by_interval) in &relstore {
            if by_interval.len() < 2 {
                failures.push(format!(
                    "relstore/{device}: want ≥ 2 distinct checkpoint intervals, got {:?}",
                    by_interval.keys()
                ));
            }
            for ((short, (replayed, bytes)), (long, (more, more_bytes))) in
                by_interval.iter().zip(by_interval.iter().skip(1))
            {
                if !(*replayed >= 1.0 && replayed < more && bytes < more_bytes) {
                    failures.push(format!(
                        "relstore/{device}: interval {short} must replay ≥ 1 and fewer records \
                         from fewer outstanding bytes than interval {long} \
                         ({replayed} records / {bytes} B vs {more} / {more_bytes} B)"
                    ));
                }
            }
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

/// Structurally validate a `durassd.forensics.v2` crash-campaign document:
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
/// The latency workload the tail-tolerance claim reads.
const TAIL_READS: &str = "tail_mixed_reads";
static LATENCY: [Field; 2] =
    [Field::new("schema", OneOf(&[LATENCY_SCHEMA])), Field::new("rows", Rows(1, &LATENCY_ROW))];

/// Validate a serialized `BENCH_latency.json` document:
///
/// - parses as JSON, carries the [`LATENCY_SCHEMA`] tag;
/// - a non-empty `rows` array whose rows have a positive commit-op `count`,
///   a percentile ladder, a per-segment-kind table and a `tail` object
///   (slowest captured commit) with its breakdown;
/// - every workload present in both a `durable` and a `volatile` row;
/// - per row: ordered percentiles (`min ≤ p50 ≤ p99 ≤ p999 ≤ max`), zero
///   conservation `violations`, a non-empty segment table of known
///   [`SegKind`] labels;
/// - the paper's durability claim as a latency gate: durable-mode tails
///   contain **zero** flush-cache time (the write cache is power-loss-proof,
///   so commits never wait on FLUSH CACHE), while every volatile tail is
///   flush-dominated (`flush_frac ≥ 0.5`);
/// - the paper's tail-tolerance claim: reads beside fsyncing writers
///   (`tail_mixed_reads`) have a volatile p99 at least ten times the durable
///   one.
pub fn check_latency_report(doc: &str) -> Vec<String> {
    validate(doc, &LATENCY, |rows, failures| {
        // workload → p99 of its [durable, volatile] rows
        let mut workloads: BTreeMap<&str, [Option<f64>; 2]> = BTreeMap::new();
        for row in rows {
            let (workload, mode) = (text(row, "workload"), text(row, "mode"));
            let tag = format!("{workload}/{mode}");
            let pct = ["min", "p50", "p99", "p999", "max"].map(|k| num(row, k));
            workloads.entry(workload).or_default()[usize::from(mode == "volatile")] = Some(pct[2]);
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
        for (workload, [dur, vol]) in &workloads {
            if dur.is_none() || vol.is_none() {
                failures.push(format!(
                    "{workload}: need both durable and volatile rows (durable p99 {dur:?}, \
                     volatile p99 {vol:?})"
                ));
            }
        }
        match workloads.get(TAIL_READS) {
            Some([Some(dur), Some(vol)]) if *vol < 10.0 * dur => failures.push(format!(
                "{TAIL_READS}: volatile p99 {vol} is under 10 × the durable p99 {dur}"
            )),
            Some(_) => {}
            None => failures.push(format!("{TAIL_READS}: rows missing")),
        }
    })
}

/// Ids of the paper's experiments, in the order `paper` runs them.
pub const PAPER_IDS: [&str; 7] = ["table1", "table2", "fig5", "fig6", "table3", "table4", "table5"];

/// One experiment's cells as the claims read them: per row its label, the
/// measured cells and the paper's (NaN where the paper prints no number).
#[derive(Debug, Default)]
pub struct PaperTable {
    rows: Vec<(String, Vec<f64>, Vec<f64>)>,
}

impl PaperTable {
    /// Append a row; `measured` and `paper` are in column order.
    pub fn push(&mut self, label: &str, measured: Vec<f64>, paper: Vec<f64>) {
        self.rows.push((label.to_string(), measured, paper));
    }

    /// The `(measured, paper)` cells of row `label`. A missing row reads as a
    /// lone NaN, so a claim over a malformed document fails instead of
    /// panicking or passing on nothing.
    fn cells(&self, label: &str) -> (&[f64], &[f64]) {
        match self.rows.iter().find(|(l, ..)| l == label) {
            Some((_, measured, paper)) => (measured, paper),
            None => (&[f64::NAN], &[f64::NAN]),
        }
    }

    fn row(&self, label: &str) -> &[f64] {
        self.cells(label).0
    }
}

/// Cell `i` of a row (NaN past its end).
fn at(xs: &[f64], i: usize) -> f64 {
    xs.get(i).copied().unwrap_or(f64::NAN)
}

fn last(xs: &[f64]) -> f64 {
    at(xs, xs.len().wrapping_sub(1))
}

/// `pick` over the values, NaN if any is NaN or there are none: a claim
/// never holds over cells that are not there.
fn fold(xs: impl IntoIterator<Item = f64>, pick: fn(f64, f64) -> f64) -> f64 {
    let pick = |a: f64, x: f64| if a.is_nan() || x.is_nan() { f64::NAN } else { pick(a, x) };
    xs.into_iter().reduce(pick).unwrap_or(f64::NAN)
}

fn lo(xs: impl IntoIterator<Item = f64>) -> f64 {
    fold(xs, f64::min)
}

fn hi(xs: impl IntoIterator<Item = f64>) -> f64 {
    fold(xs, f64::max)
}

/// How far a row moves: largest cell over smallest, minus one.
fn spread(xs: &[f64]) -> f64 {
    hi(xs.iter().copied()) / lo(xs.iter().copied()) - 1.0
}

/// Each cell over the one before it.
fn steps(xs: &[f64]) -> impl Iterator<Item = f64> + '_ {
    xs.windows(2).map(|w| w[1] / w[0])
}

/// Column by column, `a` over `b`.
fn ratios<'a>(a: &'a [f64], b: &'a [f64]) -> impl Iterator<Item = f64> + 'a {
    a.iter().zip(b).map(|(a, b)| a / b)
}

/// Table 1's storage-cache gain of `dev`: no-fsync IOPS, cache ON over OFF.
fn cache_gain(t: &PaperTable, dev: &str) -> f64 {
    last(t.row(&format!("{dev} ON"))) / last(t.row(&format!("{dev} OFF")))
}

/// Fig. 6's `metric` rows of the 4 KB engine over those of each larger page
/// size, column by column.
fn fig6_4k_over_others<'a>(t: &'a PaperTable, metric: &str) -> impl Iterator<Item = f64> + 'a {
    let row = |size: &str| t.row(&format!("{metric} {size}"));
    let small = row("4KB");
    [row("16KB"), row("8KB")].into_iter().flat_map(move |other| ratios(small, other))
}

/// Table 3's smallest improvement of column `col` (ON/ON 16 KB over OFF/OFF
/// 4 KB) across the op types that have samples in both runs.
fn table3_gain(t: &PaperTable, col: usize) -> f64 {
    lo(OP_TYPES.iter().filter_map(|op| {
        let on = t.row(&format!("ON/ON 16KB {}", op.label()));
        let off = t.row(&format!("OFF/OFF 4KB {}", op.label()));
        (at(on, 0) != 0.0 && at(off, 0) != 0.0).then(|| at(on, col) / at(off, col))
    }))
}

/// Table 4's barrier-off gain per page size.
fn table4_gain(t: &PaperTable) -> Vec<f64> {
    ratios(t.row("Barrier Off"), t.row("Barrier On")).collect()
}

/// Table 5's batch-1 → batch-100 gap of a row.
fn batch_gap(t: &PaperTable, row: &str) -> f64 {
    last(t.row(row)) / at(t.row(row), 0)
}

/// One shape claim of the paper's evaluation over one experiment's cells.
pub struct Claim {
    /// `<experiment id>.<name>`.
    pub id: &'static str,
    /// The claim in words, bound included.
    pub text: &'static str,
    /// The number the claim is about, and whether it satisfies the bound.
    eval: fn(&PaperTable) -> (f64, bool),
    /// `None`: this reproduction is expected to satisfy the claim. `Some`:
    /// it is known not to, for the stated reason.
    pub diverges: Option<&'static str>,
}

impl Claim {
    /// Id of the experiment whose cells the claim reads.
    pub fn experiment(&self) -> &'static str {
        self.id.split_once('.').map_or(self.id, |(experiment, _)| experiment)
    }

    /// `(measured, holds)` over `table`.
    pub fn eval(&self, table: &PaperTable) -> (f64, bool) {
        (self.eval)(table)
    }
}

/// Write the `claims` array of experiment `id`: every claim of
/// [`PAPER_CLAIMS`] about it, evaluated over `table`, as `{id, text,
/// measured, expect, [reason], holds}`. A measure that is not a number is
/// written as `null`, which the structural pass rejects.
pub fn write_paper_claims(w: &mut Writer, id: &str, table: &PaperTable) {
    w.arr();
    for claim in PAPER_CLAIMS.iter().filter(|c| c.experiment() == id) {
        let (measured, holds) = claim.eval(table);
        w.obj().key("id").str(claim.id).key("text").str(claim.text).key("measured");
        if measured.is_finite() {
            w.num(format_args!("{measured:.4}"));
        } else {
            w.null();
        }
        w.key("expect").str(if claim.diverges.is_some() { "diverges" } else { "holds" });
        if let Some(reason) = claim.diverges {
            w.key("reason").str(reason);
        }
        w.key("holds").bool(holds).end();
    }
    w.end();
}

const fn holds(
    id: &'static str,
    text: &'static str,
    eval: fn(&PaperTable) -> (f64, bool),
) -> Claim {
    Claim { id, text, eval, diverges: None }
}

const fn diverges(
    id: &'static str,
    text: &'static str,
    eval: fn(&PaperTable) -> (f64, bool),
    reason: &'static str,
) -> Claim {
    Claim { id, text, eval, diverges: Some(reason) }
}

/// The shape claims of the paper's evaluation. All bounds are ratios, so
/// they are statements about shape, not about calibration.
pub static PAPER_CLAIMS: [Claim; 27] = [
    holds(
        "table1.nobarrier_flat",
        "DuraSSD NoBarrier IOPS is flat from fsync-every-write to no fsync (spread <= 5 %)",
        |t| {
            let m = spread(t.row("DuraSSD NoBarrier"));
            (m, m <= 0.05)
        },
    ),
    holds(
        "table1.cache_gain_ssd_a",
        "SSD-A gains >= 10x from its write cache without fsync",
        |t| {
            let m = cache_gain(t, "SSD-A");
            (m, m >= 10.0)
        },
    ),
    holds("table1.cache_gain_ssd_b", "SSD-B gains >= 5x from its write cache without fsync", |t| {
        let m = cache_gain(t, "SSD-B");
        (m, m >= 5.0)
    }),
    holds(
        "table1.cache_gain_durassd",
        "DuraSSD gains >= 10x from its write cache without fsync",
        |t| {
            let m = cache_gain(t, "DuraSSD");
            (m, m >= 10.0)
        },
    ),
    holds(
        "table1.cache_gain_hdd",
        "the disk gains <= 4x from its write cache without fsync",
        |t| {
            let m = cache_gain(t, "HDD");
            (m, m <= 4.0)
        },
    ),
    holds(
        "table1.fsync_collapse",
        "fsync on every write holds every cached device with barriers below 1,000 IOPS",
        |t| {
            let cached = ["HDD ON", "SSD-A ON", "SSD-B ON", "DuraSSD ON"];
            let m = hi(cached.map(|row| at(t.row(row), 0)));
            (m, m < 1000.0)
        },
    ),
    holds(
        "table2.read_page_size",
        "DuraSSD reads: 4 KB pages give >= 2.5x the IOPS of 16 KB",
        |t| {
            let row = t.row("DuraSSD read 128 thr");
            let m = at(row, 2) / at(row, 0);
            (m, m >= 2.5)
        },
    ),
    holds(
        "table2.fsync1_flat",
        "DuraSSD fsync-every-write IOPS does not depend on page size (spread <= 5 %)",
        |t| {
            let m = spread(t.row("DuraSSD write fsync-1"));
            (m, m <= 0.05)
        },
    ),
    holds("table2.disk_flat", "disk IOPS moves < 15 % across page sizes", |t| {
        let m = hi(["HDD read 128 thr", "HDD write 128 thr"].map(|row| spread(t.row(row))));
        (m, m < 0.15)
    }),
    holds(
        "fig5.barrier_dominates",
        "turning barriers off gains more than turning double-write off, at every page size",
        |t| {
            let m = lo(ratios(t.row("OFF/ON"), t.row("ON/OFF")));
            (m, m > 1.0)
        },
    ),
    holds("fig5.best_over_worst", "OFF/OFF at 4 KB is >= 10x ON/ON at 16 KB", |t| {
        let m = at(t.row("OFF/OFF"), 2) / at(t.row("ON/ON"), 0);
        (m, m >= 10.0)
    }),
    holds("fig5.small_pages_win", "with barriers off, 4 KB pages beat 16 KB pages", |t| {
        let m = lo(["OFF/ON", "OFF/OFF"].map(|row| at(t.row(row), 2) / at(t.row(row), 0)));
        (m, m > 1.0)
    }),
    diverges(
        "fig5.on_rows_4k_below_8k",
        "with barriers on, 4 KB pages are slower than 8 KB pages (the deeper-B+-tree anomaly)",
        |t| {
            let m = hi(["ON/ON", "ON/OFF"].map(|row| at(t.row(row), 2) / at(t.row(row), 1)));
            (m, m < 1.0)
        },
        "our redo records are slimmer than InnoDB's, so the deeper 4 KB tree costs less here \
         (and at 1/1000 of the paper's data the depth difference is coarser)",
    ),
    holds("fig6.miss_falls", "per page size, the miss ratio never rises as the pool grows", |t| {
        let m = hi(["16KB", "8KB", "4KB"].map(|size| hi(steps(t.row(&format!("miss % {size}"))))));
        (m, m <= 1.0)
    }),
    holds("fig6.tps_rises", "per page size, TPS rises with every pool step (no saturation)", |t| {
        let m = lo(["16KB", "8KB", "4KB"].map(|size| lo(steps(t.row(&format!("TPS {size}"))))));
        (m, m > 1.0)
    }),
    holds("fig6.tps_4k_highest", "4 KB pages have the highest TPS at every pool size", |t| {
        let m = lo(fig6_4k_over_others(t, "TPS"));
        (m, m > 1.0)
    }),
    holds(
        "fig6.miss_4k_lowest_at_10",
        "4 KB pages have the lowest miss ratio at the 10 % pool",
        |t| {
            let small = last(t.row("miss % 4KB"));
            let m = hi(["16KB", "8KB"].map(|size| small / last(t.row(&format!("miss % {size}")))));
            (m, m < 1.0)
        },
    ),
    diverges(
        "fig6.miss_4k_lowest_everywhere",
        "4 KB pages have the lowest miss ratio at every pool size",
        |t| {
            let m = hi(fig6_4k_over_others(t, "miss %"));
            (m, m <= 1.0)
        },
        "at the smallest scaled pools the 4 KB B+-tree is one level deeper and its extra \
         internal pages compete for the tiny pool: a scale-down artifact, absent at 100 GB",
    ),
    holds(
        "table3.mean_improves",
        "mean latency improves >= 10x from ON/ON 16 KB to OFF/OFF 4 KB for every op type",
        |t| {
            let m = table3_gain(t, 1);
            (m, m >= 10.0)
        },
    ),
    holds(
        "table3.p99_improves",
        "P99 latency improves >= 10x from ON/ON 16 KB to OFF/OFF 4 KB for every op type",
        |t| {
            let m = table3_gain(t, 5);
            (m, m >= 10.0)
        },
    ),
    holds("table4.barrier_off_gain", "barriers off gain >= 4x tpmC at every page size", |t| {
        let m = lo(table4_gain(t));
        (m, m >= 4.0)
    }),
    holds("table4.gain_grows", "the barrier-off gain grows as pages shrink", |t| {
        let m = lo(steps(&table4_gain(t)));
        (m, m > 1.0)
    }),
    diverges(
        "table4.gain_magnitude",
        "barriers off gain >= 15x tpmC at every page size (the paper's 15-23x)",
        |t| {
            let m = lo(table4_gain(t));
            (m, m >= 15.0)
        },
        "the barrier-on row is less damaged than the paper's: the simulated engine issues no \
         synchronous I/O beyond evictions and commits, and host software is one constant per \
         transaction",
    ),
    holds(
        "table5.batch_gap_on_100",
        "barriers on, 100 % updates: batch 100 is > 20x batch 1",
        |t| {
            let m = batch_gap(t, "barrier ON, update 100%");
            (m, m > 20.0)
        },
    ),
    holds("table5.batch_gap_on_50", "barriers on, 50 % updates: batch 100 is > 10x batch 1", |t| {
        let m = batch_gap(t, "barrier ON, update 50%");
        (m, m > 10.0)
    }),
    holds("table5.batch_gap_off", "barriers off: batch 100 is < 3x batch 1 on both mixes", |t| {
        let rows = ["barrier OFF, update 100%", "barrier OFF, update 50%"];
        let m = hi(rows.map(|row| batch_gap(t, row)));
        (m, m < 3.0)
    }),
    diverges(
        "table5.on_50_batch1_near_paper",
        "barriers on, 50 % updates, batch 1: throughput within 25 % of the paper's",
        |t| {
            let (measured, paper) = t.cells("barrier ON, update 50%");
            let m = at(measured, 0) / at(paper, 0);
            (m, (0.75..=1.25).contains(&m))
        },
        "our reads are nearly free in the object cache while Couchbase's measured reads \
         apparently were not, so the half-read mix runs about twice the paper's rate",
    ),
];

static PAPER_CELL: [Field; 2] = [Field::new("col", Str), Field::new("measured", Num)];
static PAPER_ROW: [Field; 2] =
    [Field::new("label", Str), Field::new("cells", Rows(1, &PAPER_CELL))];
static PAPER_CLAIM: [Field; 4] = [
    Field::new("id", Str),
    Field::new("text", Str),
    Field::new("measured", Num),
    Field::new("expect", OneOf(&["holds", "diverges"])),
];
static PAPER_EXPERIMENT: [Field; 5] = [
    Field::new("id", OneOf(&PAPER_IDS)),
    Field::new("title", Str),
    Field::new("unit", Str),
    Field::new("rows", Rows(1, &PAPER_ROW)),
    Field::new("claims", Rows(0, &PAPER_CLAIM)),
];
static PAPER: [Field; 3] = [
    Field::new("schema", OneOf(&[PAPER_SCHEMA])),
    Field::new("scale_pct", Positive),
    Field::new("experiments", Rows(1, &PAPER_EXPERIMENT)),
];

/// The objects of the array under `key` (the structural pass vouched for it).
fn objects<'a>(row: &'a Row, key: &str) -> impl Iterator<Item = &'a Row> {
    row.get(key).and_then(|v| v.as_array()).into_iter().flatten().filter_map(|v| v.as_object())
}

/// Validate a serialized `BENCH_paper.json` document (or a slice of it: any
/// non-empty subset of the experiments):
///
/// - parses as JSON, carries the [`PAPER_SCHEMA`] tag; every experiment has a
///   known id, rows of `{col, measured}` cells and a `claims` array;
/// - every row of an experiment spans the same columns;
/// - the `claims` array is exactly what [`PAPER_CLAIMS`] says about the
///   document's own cells — so bending a cell without re-deriving the claims
///   is caught;
/// - every claim expected to hold does, and every claim written down as a
///   known divergence still diverges (a note that went stale fails too).
pub fn check_paper_report(doc: &str) -> Vec<String> {
    let v = match json::check_document(doc, &PAPER) {
        Ok(v) => v,
        Err(failures) => return failures,
    };
    let mut failures = Vec::new();
    let top = v.as_object().expect("check_document vouched for an object");
    for (i, exp) in objects(top, "experiments").enumerate() {
        let (at, id) = (format!("experiments[{i}]"), text(exp, "id"));
        let mut table = PaperTable::default();
        let mut columns: Option<Vec<&str>> = None;
        for (j, row) in objects(exp, "rows").enumerate() {
            let cols: Vec<&str> = objects(row, "cells").map(|c| text(c, "col")).collect();
            let columns = columns.get_or_insert_with(|| cols.clone());
            if cols != *columns {
                failures.push(format!("{at}.rows[{j}].cells: columns {cols:?}, want {columns:?}"));
            }
            let paper = |c: &Row| c.get("paper").and_then(|p| p.as_f64()).unwrap_or(f64::NAN);
            table.push(
                text(row, "label"),
                objects(row, "cells").map(|c| num(c, "measured")).collect(),
                objects(row, "cells").map(paper).collect(),
            );
        }
        let mut w = Writer::new();
        write_paper_claims(&mut w, id, &table);
        let derived = json::parse(&w.finish()).expect("the writer emits valid JSON");
        if exp.get("claims") != Some(&derived) {
            failures.push(format!("{at}.claims: not what the claim table derives from the cells"));
        }
        for claim in PAPER_CLAIMS.iter().filter(|c| c.experiment() == id) {
            let (Claim { id, text, .. }, (m, holds)) = (claim, claim.eval(&table));
            match (holds, claim.diverges) {
                (false, None) => {
                    failures.push(format!("claim {id} fails (measured {m:.4}): {text}"))
                }
                (true, Some(reason)) => failures.push(format!(
                    "claim {id} now holds (measured {m:.4}) but is written down as a divergence \
                     ({reason}): stale note, expect it to hold"
                )),
                _ => {}
            }
        }
    }
    failures
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
        let p99 = if durable { 90 } else { 900 };
        let mut segs = format!("\"wal_fsync\":{}", seg_entry(100, 5_000_000));
        if !durable {
            segs.push_str(&format!(",\"flush_cache\":{}", seg_entry(100, 9_000_000)));
        }
        format!(
            "{{\"workload\":\"{workload}\",\"mode\":\"{mode}\",\"device\":\"d\",\
             \"commit_op\":\"engine.commit\",\"count\":100,\"min\":10,\"p50\":50,\
             \"p99\":{p99},\"p999\":1000,\"max\":100000,\"violations\":0,\
             \"segments\":{{{segs}}},\
             \"tail\":{{\"wall\":100000,\"flush_cache_ns\":{flush_ns},\
             \"flush_frac\":{flush_frac:.2},\"segments\":{{\"wal_fsync\":10000}}}}}}"
        )
    }

    fn latency_doc(rows: &[String]) -> String {
        format!("{{\"schema\":\"{LATENCY_SCHEMA}\",\"rows\":[{}]}}", rows.join(","))
    }

    fn full_latency_doc() -> Vec<String> {
        ["fio", "ycsb_a", TAIL_READS]
            .iter()
            .flat_map(|w| ["durable", "volatile"].iter().map(|m| latency_row(w, m)))
            .collect()
    }

    #[test]
    fn latency_report_validation_accepts_good_documents() {
        let doc = latency_doc(&full_latency_doc());
        let fails = check_latency_report(&doc);
        assert!(fails.is_empty(), "{fails:?}");
    }

    #[test]
    fn latency_report_validation_rejects_violations() {
        assert!(!check_latency_report("nope").is_empty());
        assert!(!check_latency_report("{\"schema\":\"other.v1\",\"rows\":[]}").is_empty());

        // A durable tail containing flush-cache time contradicts the paper.
        let mut rows = full_latency_doc();
        rows[0] = rows[0].replace("\"flush_cache_ns\":0", "\"flush_cache_ns\":5000");
        let fails = check_latency_report(&latency_doc(&rows));
        assert!(fails.iter().any(|f| f.contains("durable tail has flush_cache")), "{fails:?}");

        // A durable run recording any flush_cache segments fails too.
        let mut rows = full_latency_doc();
        let inject = format!("}},\"flush_cache\":{}}},\"tail\"", seg_entry(3, 1000));
        rows[0] = rows[0].replacen("}},\"tail\"", &inject, 1);
        let fails = check_latency_report(&latency_doc(&rows));
        assert!(fails.iter().any(|f| f.contains("flush_cache segments")), "{fails:?}");

        // A volatile tail that is not flush-dominated.
        let mut rows = full_latency_doc();
        rows[1] = rows[1].replace("\"flush_frac\":0.90", "\"flush_frac\":0.10");
        let fails = check_latency_report(&latency_doc(&rows));
        assert!(fails.iter().any(|f| f.contains("flush-dominated")), "{fails:?}");

        // Conservation violations gate the report outright.
        let mut rows = full_latency_doc();
        rows[2] = rows[2].replace("\"violations\":0", "\"violations\":2");
        let fails = check_latency_report(&latency_doc(&rows));
        assert!(fails.iter().any(|f| f.contains("exceeded wall")), "{fails:?}");

        // Unknown segment kinds are typos, not data.
        let mut rows = full_latency_doc();
        rows[3] = rows[3].replace("\"wal_fsync\":{\"count\"", "\"wal_fsyncc\":{\"count\"");
        let fails = check_latency_report(&latency_doc(&rows));
        assert!(fails.iter().any(|f| f.contains("unknown segment kind")), "{fails:?}");

        // Non-monotone percentiles.
        let mut rows = full_latency_doc();
        rows[4] = rows[4].replace("\"p999\":1000", "\"p999\":5");
        let fails = check_latency_report(&latency_doc(&rows));
        assert!(fails.iter().any(|f| f.contains("not monotone")), "{fails:?}");

        // Missing mode twin.
        let rows = full_latency_doc();
        let fails = check_latency_report(&latency_doc(&rows[..5]));
        assert!(fails.iter().any(|f| f.contains("both durable and volatile")), "{fails:?}");

        // The read tail: absent, or not ten times worse on the volatile cache.
        let fails = check_latency_report(&latency_doc(&rows[..4]));
        assert!(fails.iter().any(|f| f.contains("tail_mixed_reads: rows missing")), "{fails:?}");
        let mut rows = full_latency_doc();
        rows[5] = rows[5].replace("\"p99\":900", "\"p99\":899");
        let fails = check_latency_report(&latency_doc(&rows));
        assert!(fails.iter().any(|f| f.contains("under 10 × the durable p99")), "{fails:?}");
    }

    /// A one-experiment `durassd.paper.v1` document over `(label, measured,
    /// paper)` rows, its claims derived the way `paper` derives them.
    fn paper_doc(id: &str, rows: &[(&str, Vec<f64>, Vec<f64>)]) -> String {
        let mut table = PaperTable::default();
        let mut w = Writer::new();
        w.obj().key("schema").str(PAPER_SCHEMA).key("scale_pct").num(100).key("experiments").arr();
        w.obj().key("id").str(id).key("title").str("t").key("unit").str("u").key("rows").arr();
        for (label, measured, paper) in rows {
            w.obj().key("label").str(label).key("cells").arr();
            for (i, (m, p)) in measured.iter().zip(paper).enumerate() {
                w.obj().key("col").str(&i.to_string()).key("measured").num(m).key("paper").num(p);
                w.key("rel_err").num(format_args!("{:.4}", (m - p) / p)).end();
            }
            w.end().end();
            table.push(label, measured.clone(), paper.clone());
        }
        w.end();
        write_paper_claims(w.key("claims"), id, &table);
        w.end().end().end();
        w.finish()
    }

    /// Table 1 reduced to its first and last column (fsync every write, no
    /// fsync), which is all its claims read.
    fn table1_rows(nobarrier_first: f64) -> Vec<(&'static str, Vec<f64>, Vec<f64>)> {
        vec![
            ("HDD OFF", vec![71.0, 170.0], vec![58.0, 158.0]),
            ("HDD ON", vec![71.0, 492.0], vec![59.0, 387.0]),
            ("SSD-A OFF", vec![184.0, 504.0], vec![168.0, 494.0]),
            ("SSD-A ON", vec![223.0, 11984.0], vec![256.0, 11681.0]),
            ("SSD-B OFF", vec![726.0, 1286.0], vec![603.0, 1157.0]),
            ("SSD-B ON", vec![725.0, 8588.0], vec![655.0, 8456.0]),
            ("DuraSSD OFF", vec![169.0, 509.0], vec![249.0, 498.0]),
            ("DuraSSD ON", vec![201.0, 15761.0], vec![225.0, 15319.0]),
            ("DuraSSD NoBarrier", vec![nobarrier_first, 15761.0], vec![14484.0, 15458.0]),
        ]
    }

    #[test]
    fn paper_report_validation_accepts_a_document_whose_claims_hold() {
        let fails = check_paper_report(&paper_doc("table1", &table1_rows(15280.0)));
        assert!(fails.is_empty(), "{fails:?}");
    }

    #[test]
    fn paper_report_validation_names_the_claim_a_bent_row_breaks() {
        // The NoBarrier row bent 10 %, claims re-derived: the claim fails.
        let fails = check_paper_report(&paper_doc("table1", &table1_rows(13752.0)));
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("claim table1.nobarrier_flat fails"), "{fails:?}");
        // Bent in place, claims left as they were: they no longer follow
        // from the cells either.
        let bent = paper_doc("table1", &table1_rows(15280.0))
            .replace("\"measured\":15280,", "\"measured\":13752,");
        let fails = check_paper_report(&bent);
        assert!(fails.iter().any(|f| f.contains("table1.nobarrier_flat")), "{fails:?}");
        assert!(fails.iter().any(|f| f.contains("experiments[0].claims")), "{fails:?}");
    }

    #[test]
    fn paper_report_validation_locates_a_missing_cell() {
        let good = paper_doc("table1", &table1_rows(15280.0));
        // A cell without its measurement is a structural failure with a path,
        // found before any claim runs.
        let fails = check_paper_report(&good.replace("\"measured\":492,", ""));
        assert_eq!(fails, ["experiments[0].rows[1].cells[1].measured: missing"]);
        // A row one cell short no longer spans the experiment's columns.
        let cut = good.find(",{\"col\":\"1\",\"measured\":492").unwrap();
        let end = cut + good[cut..].find('}').unwrap() + 1;
        let fails = check_paper_report(&format!("{}{}", &good[..cut], &good[end..]));
        assert!(
            fails.iter().any(|f| f.contains("experiments[0].rows[1].cells: columns")),
            "{fails:?}"
        );
        // Not JSON, wrong tag, unknown experiment.
        assert!(!check_paper_report("nope").is_empty());
        assert!(!check_paper_report(&good.replace(PAPER_SCHEMA, "other.v1")).is_empty());
        let fails = check_paper_report(&good.replace("\"id\":\"table1\"", "\"id\":\"table9\""));
        assert!(fails.iter().any(|f| f.contains("experiments[0].id")), "{fails:?}");
    }

    #[test]
    fn paper_report_validation_flags_a_divergence_note_gone_stale() {
        let rows = |on_50_batch1: f64| {
            vec![
                ("barrier ON, update 100%", vec![190.0, 4118.0], vec![206.0, 4692.0]),
                ("barrier ON, update 50%", vec![on_50_batch1, 5533.0], vec![195.0, 4921.0]),
                ("barrier OFF, update 100%", vec![3797.0, 5165.0], vec![2404.0, 5101.0]),
                ("barrier OFF, update 50%", vec![5233.0, 6385.0], vec![2406.0, 6208.0]),
            ]
        };
        // As measured: twice the paper's rate, written down as a divergence.
        let noted = paper_doc("table5", &rows(381.0));
        assert!(noted.contains("\"expect\":\"diverges\",\"reason\":"), "{noted}");
        assert!(check_paper_report(&noted).is_empty(), "{:?}", check_paper_report(&noted));
        // The model moves within 25 % of the paper: the note must go.
        let fails = check_paper_report(&paper_doc("table5", &rows(200.0)));
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("table5.on_50_batch1_near_paper"), "{fails:?}");
        assert!(fails[0].contains("stale note"), "{fails:?}");
    }

    #[test]
    fn every_claim_names_a_known_experiment() {
        for claim in &PAPER_CLAIMS {
            assert!(PAPER_IDS.contains(&claim.experiment()), "{}", claim.id);
        }
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
            "{\"schema\":\"durassd.forensics.v2\",\"seed\":1,\"keys\":1,\"cuts\":1,\"rows\":[]}";
        assert!(!check_forensics_report(empty).is_empty());
        // The previous tag: rejected.
        let v1 = doc.replace(FORENSICS_SCHEMA, "durassd.forensics.v1");
        let errs = check_forensics_report(&v1);
        assert!(errs.iter().any(|e| e.contains("schema")), "{errs:?}");
    }

    fn recovery_row(
        engine: &str,
        device: &str,
        interval: u64,
        replayed: u64,
        bytes: u64,
    ) -> String {
        format!(
            "{{\"engine\":\"{engine}\",\"device\":\"{device}\",\"ckpt_interval\":{interval},\
             \"replayed\":{replayed},\"torn\":0,\
             \"outstanding_bytes\":{bytes},\"recovery_wall_ns\":100,\
             \"recovery_sim_ns\":5000,\"reboot_sim_ns\":3000,\"scan_sim_ns\":1500,\
             \"redo_sim_ns\":500,\"ttfr_sim_ns\":6000}}"
        )
    }

    /// A relational pair per device — `short` at interval 256, (9, 9000) at
    /// 2048 — plus one docstore row.
    fn recovery_doc(short: (u64, u64)) -> String {
        let mut rows = vec![recovery_row("docstore", "durassd", 0, 0, 0)];
        for device in ["durassd", "ssd_volatile", "hdd"] {
            rows.push(recovery_row("relstore", device, 256, short.0, short.1));
            rows.push(recovery_row("relstore", device, 2048, 9, 9000));
        }
        format!("{{\"schema\":\"{RECOVERY_SCHEMA}\",\"rows\":[{}]}}", rows.join(","))
    }

    #[test]
    fn recovery_report_validation() {
        let good = recovery_doc((3, 4096));
        assert!(check_recovery_report(&good).is_empty(), "{:?}", check_recovery_report(&good));

        // Not checkpoint-bounded: the short interval replays nothing, as
        // many records as the long one, or from as many bytes.
        for short in [(0, 0), (9, 4096), (3, 9000)] {
            let fails = check_recovery_report(&recovery_doc(short));
            assert_eq!(fails.len(), 3, "one per device: {fails:?}");
            assert!(fails.iter().all(|f| f.contains("interval 256 must replay")), "{fails:?}");
        }

        // Too few devices / intervals.
        let narrow = format!(
            "{{\"schema\":\"{RECOVERY_SCHEMA}\",\"rows\":[{}]}}",
            recovery_row("relstore", "durassd", 256, 3, 4096),
        );
        let fails = check_recovery_report(&narrow);
        assert!(fails.iter().any(|f| f.contains("distinct devices")), "{fails:?}");
        assert!(fails.iter().any(|f| f.contains("distinct checkpoint intervals")), "{fails:?}");

        // Phases that do not account for the recovery time, in every row.
        let leaky = good.replace("\"redo_sim_ns\":500", "\"redo_sim_ns\":400");
        let fails = check_recovery_report(&leaky);
        assert_eq!(fails.len(), 7, "{fails:?}");
        assert!(fails.iter().all(|f| f.contains("must sum to")), "{fails:?}");

        // A docstore header search that costs the file's capacity again.
        let slow = good.replacen("\"scan_sim_ns\":1500", "\"scan_sim_ns\":20000001", 1).replacen(
            "\"recovery_sim_ns\":5000",
            "\"recovery_sim_ns\":20003501",
            1,
        );
        let fails = check_recovery_report(&slow);
        assert!(fails.iter().any(|f| f.contains("docstore/durassd: scan_sim_ns")), "{fails:?}");

        // The relational rows are held to the same bound; and at the
        // checked-in scale, to less than one page per command cost them.
        let row = recovery_row("relstore", "hdd", 2048, 9, 9000);
        let slow = good.replace(
            &row,
            &row.replace("\"scan_sim_ns\":1500", "\"scan_sim_ns\":1000000001")
                .replace("\"recovery_sim_ns\":5000", "\"recovery_sim_ns\":1000003501"),
        );
        let fails = check_recovery_report(&slow);
        assert!(fails.iter().any(|f| f.contains("relstore/hdd: scan_sim_ns")), "{fails:?}");
        let at_scale = |scan: u64| {
            let timed = row
                .replace("\"torn\":0", "\"torn\":0,\"commits\":3000")
                .replace("\"scan_sim_ns\":1500", &format!("\"scan_sim_ns\":{scan}"))
                .replace("\"ttfr_sim_ns\":6000", "\"ttfr_sim_ns\":60000000")
                .replace(
                    "\"recovery_sim_ns\":5000",
                    &format!("\"recovery_sim_ns\":{}", 3500 + scan),
                );
            check_recovery_report(&good.replace(&row, &timed))
        };
        assert!(at_scale(45_875_856).is_empty(), "{:?}", at_scale(45_875_856));
        assert!(at_scale(45_875_857)[0].contains("one page per command"));

        // An older shape (no phase columns, under its own tag), a wrong tag
        // and garbage are all flagged.
        let v2 = good.replace(RECOVERY_SCHEMA, "durassd.recovery.v2");
        assert!(!check_recovery_report(&v2).is_empty());
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
