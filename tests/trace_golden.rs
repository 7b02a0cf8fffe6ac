//! Golden-file check for the Chrome trace-event export schema.
//!
//! A fixed event sequence — one commit span with a nested WAL flush, an
//! instant cache-admit marker, an async NAND program on its own track, and
//! an unmatched `Begin` that export must close at end-of-trace — is
//! serialized and compared byte-for-byte against
//! `tests/golden/trace_schema.json`. Any change to field names, field
//! order, timestamp formatting, or closer semantics shows up as a diff
//! here *before* it breaks someone's Perfetto tooling.
//!
//! To regenerate after an intentional schema change:
//! `UPDATE_GOLDEN=1 cargo test --test trace_golden` and review the diff.

use telemetry::{parse_json, validate_chrome_json, Phase, TraceBuf, CHROME_EVENT_FIELDS};

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace_schema.json")
}

/// The fixed event sequence: covers B/E nesting, an instant, a second
/// track, fractional-microsecond timestamps, and an unmatched Begin.
fn reference_trace() -> String {
    let mut buf = TraceBuf::new(64);
    buf.push(0, 1, Phase::Begin, "engine", "engine.commit");
    buf.push(1_500, 1, Phase::Begin, "wal", "wal.flush");
    buf.push(2_750, 1, Phase::Instant, "ssd", "ssd.cache_admit");
    buf.push(10_000, 1, Phase::End, "wal", "wal.flush");
    buf.push(12_345_678, 1, Phase::End, "engine", "engine.commit");
    buf.push(5_000, 2, Phase::Begin, "nand", "nand.program");
    buf.push(9_001, 2, Phase::End, "nand", "nand.program");
    // Background track with an unmatched Begin: the exporter must close it
    // at the trace's max timestamp instead of dropping it.
    buf.push(100, 0, Phase::Begin, "ftl", "ftl.gc");
    buf.to_chrome_json()
}

#[test]
fn chrome_export_matches_golden_file() {
    let got = reference_trace();
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("golden file {} unreadable ({e}); run with UPDATE_GOLDEN=1", path.display())
    });
    assert_eq!(
        got, want,
        "Chrome trace export drifted from the golden schema; if intentional, \
         regenerate with UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn golden_trace_is_valid_and_has_exactly_the_schema_fields() {
    let got = reference_trace();
    let check = validate_chrome_json(&got).expect("reference trace validates");
    // 4 B/E pairs (one synthesized for the unmatched ftl.gc) + 1 instant on
    // 3 tracks.
    assert_eq!(check.begins, 4, "{check:?}");
    assert_eq!(check.instants, 1, "{check:?}");
    assert_eq!(check.tracks, 3, "{check:?}");
    let doc = parse_json(&got).unwrap();
    let events = doc
        .as_object()
        .and_then(|o| o.get("traceEvents"))
        .and_then(|v| v.as_array())
        .expect("traceEvents");
    assert_eq!(events.len(), 9, "8 pushed events + 1 synthesized closer");
    for ev in events {
        let obj = ev.as_object().expect("event is an object");
        assert_eq!(obj.len(), CHROME_EVENT_FIELDS.len(), "no extra fields: {obj:?}");
        for field in &CHROME_EVENT_FIELDS {
            assert!(obj.contains_key(field.key), "event missing {}: {obj:?}", field.key);
        }
    }
}
