//! The reports checked in at the repo root are the numbers README and
//! EXPERIMENTS quote; they must keep passing the validators that gate
//! freshly generated ones, so a schema or claim change that orphans them
//! fails here instead of going unnoticed.

use bench::schema::{
    check_latency_report, check_paper_report, check_recovery_report, check_waf_report, PAPER_CLAIMS,
};

fn checked_in(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn bench_waf_json_passes_its_checker() {
    let failures = check_waf_report(&checked_in("BENCH_waf.json"));
    assert!(failures.is_empty(), "{failures:#?}");
}

#[test]
fn bench_latency_json_passes_its_checker() {
    let failures = check_latency_report(&checked_in("BENCH_latency.json"));
    assert!(failures.is_empty(), "{failures:#?}");
}

#[test]
fn bench_recovery_json_passes_its_checker() {
    let failures = check_recovery_report(&checked_in("BENCH_recovery.json"));
    assert!(failures.is_empty(), "{failures:#?}");
}

#[test]
fn bench_paper_json_passes_its_checker_and_states_every_claim() {
    let doc = checked_in("BENCH_paper.json");
    let failures = check_paper_report(&doc);
    assert!(failures.is_empty(), "{failures:#?}");
    // The checker accepts a slice; the checked-in document is the whole
    // evaluation, so every claim of the table is in it.
    for claim in &PAPER_CLAIMS {
        assert!(doc.contains(&format!("\"id\":\"{}\"", claim.id)), "{} missing", claim.id);
    }
}
