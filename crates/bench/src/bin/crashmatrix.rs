//! **Crash campaign** — the durability claims of §2.1/§3.4/§5.2, audited.
//!
//! For every device (DuraSSD, SSD-A, SSD-B, disk) × configuration
//! (barriers+double-write ON, or both OFF), run a commit-per-op workload on
//! the relational engine with a *durability ledger* attached, cut power at a
//! seeded mid-workload point, collect the device postmortems captured inside
//! `power_cut`, recover, probe every attempted key, and reconcile: each unit
//! is classified `survived | acked-lost | torn | stale | never-acked` and
//! every loss is attributed to the layer that dropped it (cache slot,
//! channel queue, lazy FTL map, HDD write cache, host). The same sweep runs
//! the document store with per-update fsync. Cut points repeat `--cuts`
//! times with fresh seeded positions.
//!
//! Expected result (the paper's thesis):
//! * ON/ON is safe on every device — at a large performance cost;
//! * OFF/OFF is safe **only** on DuraSSD (capacitor-backed cache);
//! * volatile-cache devices running OFF/OFF lose acknowledged commits, and
//!   the forensic report names the broken layer for every lost unit.
//!
//! Run: `cargo run -p bench --release --bin crashmatrix
//!        [--keys N] [--cuts N] [--seed S] [--json PATH] [--check]`
//!
//! `--json` writes the `durassd.forensics.v2` campaign report (plus a
//! Chrome-trace JSON of one representative DuraSSD trial, containing the
//! `power_cut` Instant). `--check` validates the report schema in-process
//! and exits non-zero if any DuraSSD row lost an acknowledged unit.

use bench::schema::check_forensics_report;
use bench::{
    arg_str, arg_u64, durassd_bench, finish_report, hdd_bench, rule, ssd_a_bench, ssd_b_bench,
    ssd_health_line, write_atomic, TelemetrySink,
};
use docstore::{DocStore, DocStoreConfig};
use durassd::Ssd;
use forensics::{
    reconcile, AckContract, CampaignReport, CutReport, Forensic, Ledger, Probe, ProbeResult,
};
use relstore::{Engine, EngineConfig};
use simkit::dist::{rng, Rng};
use simkit::Recovered;
use storage::device::BlockDevice;
use telemetry::Telemetry;

fn key_of(i: u64) -> Vec<u8> {
    format!("key{:06}", i).into_bytes()
}

fn val_of(i: u64) -> Vec<u8> {
    format!("value-{i}-{}", "x".repeat(80)).into_bytes()
}

/// One trial's forensic row plus the recovered data device's health line
/// (SSDs only).
struct TrialOut {
    row: CutReport,
    health: Option<String>,
}

/// Where in the commit cycle the seeded cut lands.
#[derive(Clone, Copy, PartialEq)]
enum CutPhase {
    /// After the put at the cut op, before its commit (intent un-acked).
    AfterPut,
    /// After the commit at the cut op (intent acknowledged durable).
    AfterCommit,
}

impl CutPhase {
    fn as_str(self) -> &'static str {
        match self {
            CutPhase::AfterPut => "after-put",
            CutPhase::AfterCommit => "after-commit",
        }
    }
}

/// One engine trial: workload to the seeded cut point, power cut, postmortem
/// harvest, recovery, key probe, reconciliation. `health` renders the
/// recovered data device's health line.
#[allow(clippy::too_many_arguments)]
fn engine_trial<D, L>(
    data: D,
    log: L,
    contract: AckContract,
    safe: bool,
    cut_op: u64,
    phase: CutPhase,
    label: &str,
    tel: &Telemetry,
    health: fn(&D) -> Option<String>,
) -> TrialOut
where
    D: BlockDevice + Forensic,
    L: BlockDevice + Forensic,
{
    let ledger = Ledger::new(contract);
    let cfg = EngineConfig::builder(4096)
        .buffer_pool_bytes(96 * 4096) // small: forces evictions mid-run
        .double_write(safe)
        .barriers(safe)
        .data_pages(16 * 1024)
        .log_files(2)
        .log_file_blocks(2048)
        .dwb_pages(128)
        .build();
    let (mut e, t0) = Engine::create(data, log, cfg, 0).into_parts();
    e.attach_telemetry(tel.clone());
    e.attach_ledger(ledger.clone());
    let (tree, t) = e.create_tree(t0).into_parts();
    let mut now = e.checkpoint(t);
    // Strict commits up to the seeded cut point.
    for i in 0..=cut_op {
        now = e.put(tree, &key_of(i), &val_of(i), now);
        if phase == CutPhase::AfterPut && i == cut_op {
            break;
        }
        now = e.commit(now);
    }
    let cut_at_ns = now + 1;
    let (mut d, mut l) = e.crash(cut_at_ns);
    let mut pms = Vec::new();
    pms.extend(d.take_postmortem());
    pms.extend(l.take_postmortem());
    match Engine::recover(d, l, cfg, cut_at_ns + 1).map(Recovered::into_parts) {
        Err(err) => {
            // The stack could not even restart: every attempted unit is
            // gone, so every acknowledged one is acked-lost and attribution
            // runs off the postmortem evidence (discarded cache slots,
            // rolled-back mapping entries, ...).
            let probes: Vec<Probe> =
                (0..=cut_op).map(|i| Probe::new(&key_of(i), ProbeResult::Missing)).collect();
            let mut row = reconcile(
                label,
                cut_op,
                phase.as_str(),
                cut_at_ns,
                &ledger,
                &probes,
                pms,
                Vec::new(),
            );
            row.verdict = format!("UNRECOVERABLE ({err}) — {}", row.verdict);
            TrialOut { row, health: None }
        }
        Ok((mut e2, ready)) => {
            let mut recs = Vec::new();
            recs.extend(e2.data_volume().device().recovery_snap().cloned());
            recs.extend(e2.log_volume().device().recovery_snap().cloned());
            let health = health(e2.data_volume().device());
            let mut probes = Vec::with_capacity(cut_op as usize + 1);
            let mut t2 = ready;
            for i in 0..=cut_op {
                let (v, t3) = e2.get(tree, &key_of(i), t2).into_parts();
                t2 = t3;
                let result = match v {
                    Some(bytes) => ProbeResult::Value(Ledger::digest(&bytes)),
                    None => ProbeResult::Missing,
                };
                probes.push(Probe::new(&key_of(i), result));
            }
            let row =
                reconcile(label, cut_op, phase.as_str(), cut_at_ns, &ledger, &probes, pms, recs);
            TrialOut { row, health }
        }
    }
}

/// One document-store trial (fsync per update; a set is its own commit).
fn doc_trial(
    dev: Ssd,
    contract: AckContract,
    barriers: bool,
    cut_op: u64,
    label: &str,
    tel: &Telemetry,
) -> TrialOut {
    let ledger = Ledger::new(contract);
    let cfg = DocStoreConfig { batch_size: 1, barriers, file_blocks: 65_536, auto_compact_pct: 0 };
    let mut s = DocStore::create(dev, cfg);
    s.attach_telemetry(tel.clone());
    s.attach_ledger(ledger.clone());
    let mut now = 0;
    for i in 0..=cut_op {
        now = s.set(&key_of(i), &val_of(i), now);
    }
    let cut_at_ns = now + 1;
    let mut dev = s.crash(cut_at_ns);
    let pms: Vec<_> = dev.take_postmortem().into_iter().collect();
    let (mut s2, mut t2) = DocStore::recover(dev, cfg, cut_at_ns + 1).into_parts();
    let recs: Vec<_> = s2.device().recovery_snap().cloned().into_iter().collect();
    let health = Some(ssd_health_line(s2.device()));
    let mut probes = Vec::with_capacity(cut_op as usize + 1);
    for i in 0..=cut_op {
        let (v, t3) = s2.get(&key_of(i), t2).into_parts();
        t2 = t3;
        let result = match v {
            Some(bytes) => ProbeResult::Value(Ledger::digest(&bytes)),
            None => ProbeResult::Missing,
        };
        probes.push(Probe::new(&key_of(i), result));
    }
    let row = reconcile(label, cut_op, "after-set", cut_at_ns, &ledger, &probes, pms, recs);
    TrialOut { row, health }
}

fn print_row(out: &TrialOut) {
    let r = &out.row;
    let t = &r.tally;
    println!(
        "{:<30} {:>6} {:<12} {:>6} {:>6} {:>5} {:>5} {:>6}   {}",
        r.label,
        r.cut_at_op,
        r.cut_phase,
        t.survived,
        t.acked_lost,
        t.torn,
        t.stale,
        t.never_acked,
        if r.durable { "SAFE" } else { "ACKED DATA LOSS" }
    );
    if let Some(h) = &out.health {
        println!("      {h}");
    }
    for loss in r.losses.iter().take(3) {
        println!(
            "      lost {} [{}] -> {}: {}",
            loss.unit,
            loss.classification.as_str(),
            loss.layer.map(|l| l.as_str()).unwrap_or("unattributed"),
            loss.evidence
        );
    }
    if r.losses.len() > 3 {
        println!("      ... {} more loss row(s) in the JSON report", r.losses.len() - 3);
    }
}

fn main() {
    let mut sink = TelemetrySink::from_args();
    let keys = arg_u64("--keys", 1500);
    let cuts = arg_u64("--cuts", 2).max(1);
    let seed = arg_u64("--seed", 7);
    let json_path = arg_str("--json");
    let mut cut_rng = rng(seed ^ 0xD00D_CAFE);
    println!(
        "Crash campaign: up to {keys} committed ops/trial, {cuts} seeded cut(s), seed {seed}.\n"
    );
    println!(
        "{:<30} {:>6} {:<12} {:>6} {:>6} {:>5} {:>5} {:>6}",
        "configuration", "cut@op", "phase", "surv", "lost", "torn", "stale", "n-ack"
    );
    rule(100);

    let mut report = CampaignReport { seed, keys, cuts, rows: Vec::new() };
    // Chrome trace of one representative DuraSSD trial (first OFF/OFF cut):
    // must contain the `power_cut` Instant on the ssd timeline.
    let mut trace_json: Option<String> = None;

    for cut in 0..cuts {
        let lo = (keys / 4).max(1);
        let cut_op = cut_rng.gen_range(lo..keys);
        let phase = if cut_rng.gen_bool(0.5) { CutPhase::AfterCommit } else { CutPhase::AfterPut };
        for safe in [true, false] {
            let tag = if safe { "ON/ON" } else { "OFF/OFF" };
            let trials: [(&str, AckContract); 4] = [
                ("DuraSSD", AckContract::DurableCacheAck),
                ("SSD-A", AckContract::VolatileAck),
                ("SSD-B", AckContract::VolatileAck),
                ("Disk", AckContract::VolatileAck),
            ];
            for (dev_name, contract) in trials {
                let label = format!("engine {dev_name} {tag}");
                let tel = Telemetry::new();
                let traced = dev_name == "DuraSSD" && !safe && cut == 0;
                if traced {
                    tel.enable_tracing(1 << 18);
                }
                let out = match dev_name {
                    "Disk" => {
                        let (d, l) = (hdd_bench(true), hdd_bench(true));
                        engine_trial(d, l, contract, safe, cut_op, phase, &label, &tel, |_| None)
                    }
                    _ => {
                        let (mut d, mut l) = match dev_name {
                            "DuraSSD" => (durassd_bench(true), durassd_bench(true)),
                            "SSD-A" => (ssd_a_bench(true), ssd_a_bench(true)),
                            _ => (ssd_b_bench(true), ssd_b_bench(true)),
                        };
                        if traced {
                            d.attach_telemetry(tel.clone());
                            l.attach_telemetry(tel.clone());
                        }
                        let health = |d: &Ssd| Some(ssd_health_line(d));
                        engine_trial(d, l, contract, safe, cut_op, phase, &label, &tel, health)
                    }
                };
                if traced {
                    trace_json = tel.trace_chrome_json();
                }
                print_row(&out);
                sink.add(&format!("{label} cut{cut}"), &tel);
                report.rows.push(out.row);
            }
        }
        for barriers in [true, false] {
            let tag = if barriers { "barriers-on" } else { "barriers-off" };
            for (dev_name, contract) in
                [("DuraSSD", AckContract::DurableCacheAck), ("SSD-A", AckContract::VolatileAck)]
            {
                let label = format!("doc {dev_name} {tag}");
                let tel = Telemetry::new();
                let dev =
                    if dev_name == "DuraSSD" { durassd_bench(true) } else { ssd_a_bench(true) };
                let out = doc_trial(dev, contract, barriers, cut_op, &label, &tel);
                print_row(&out);
                sink.add(&format!("{label} cut{cut}"), &tel);
                report.rows.push(out.row);
            }
        }
    }

    println!("\nPer-configuration verdicts across all cut points:");
    rule(70);
    for line in report.summary_lines() {
        println!("{line}");
    }
    sink.finish();

    // `--check`: the report must be schema-valid and no DuraSSD row may
    // have lost an acknowledged unit.
    let durassd_lost = report.acked_lost_for("DuraSSD");
    let check = |doc: &str| {
        let mut failures = check_forensics_report(doc);
        if durassd_lost > 0 {
            failures.push(format!(
                "DuraSSD lost {durassd_lost} acknowledged unit(s) — durable-cache claim violated"
            ));
        }
        failures
    };
    let wrote = "\nforensics: wrote campaign report to ";
    let checked = finish_report(&report.to_json(), json_path.as_deref(), wrote, check);
    if let (Some(path), Some(trace)) = (&json_path, &trace_json) {
        let trace_path = match path.strip_suffix(".json") {
            Some(stem) => format!("{stem}.trace.json"),
            None => format!("{path}.trace.json"),
        };
        write_atomic(&trace_path, trace).expect("trace path is writable");
        println!("forensics: wrote DuraSSD OFF/OFF cut trace to {trace_path}");
    }
    if checked {
        println!("forensics: report schema valid; DuraSSD acked_lost == 0 at every cut point");
    }

    println!("\nThe paper's claim: OFF/OFF (no barriers, no redundant writes) is safe");
    println!("only when the device cache is durable — that is DuraSSD's contribution.");
}
