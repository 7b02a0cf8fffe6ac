//! Campaign report: the machine-readable artifact of a crash campaign.
//!
//! One [`CampaignReport`] aggregates the [`CutReport`]s of every
//! device × configuration × cut-point trial into a single self-describing
//! JSON document (schema tag [`SCHEMA`]), written by `crashmatrix --json`.
//! Structural validation of the emitted document lives with the other
//! report gates in `bench::schema` (`check_forensics_report`), which
//! `crashmatrix --check` runs in-process.

use crate::reconcile::CutReport;
use crate::snapshot::DevicePostmortem;
use simkit::json::Writer;

/// Schema tag stamped into every report; bump on incompatible changes.
pub const SCHEMA: &str = "durassd.forensics.v2";

/// How many dirty-slot LPNs / mapping entries a postmortem lists verbatim in
/// the JSON before switching to counts only (keeps reports bounded).
const SNAPSHOT_LIST_CAP: usize = 64;

/// The aggregated result of a seeded crash campaign.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// RNG seed that chose the cut points.
    pub seed: u64,
    /// Workload size (units attempted per trial).
    pub keys: u64,
    /// Cut points per configuration.
    pub cuts: u64,
    /// One row per device × configuration × cut.
    pub rows: Vec<CutReport>,
}

fn write_postmortem(w: &mut Writer, p: &DevicePostmortem) {
    w.obj().key("device").str(&p.device).key("protection").str(&p.protection);
    w.key("cut_at").num(p.cut_at).key("dirty_slots").num(p.dirty_slots.len());
    w.key("dirty_slot_sample").arr();
    for s in p.dirty_slots.iter().take(SNAPSHOT_LIST_CAP) {
        w.obj().key("lpn").num(s.lpn).key("draining").bool(s.draining);
        w.key("ackable_at").num(s.ackable_at).end();
    }
    w.end().key("discarded_dirty_slots").num(p.discarded_dirty_slots);
    w.key("channel_drain_positions").arr();
    for t in &p.channel_drain_positions {
        w.num(t);
    }
    w.end().key("dump");
    match &p.dump {
        Some(d) => {
            w.obj().key("bytes").num(d.bytes).key("budget_bytes").num(d.budget_bytes);
            w.key("within_budget").bool(d.within_budget).end()
        }
        None => w.null(),
    };
    w.key("unpersisted_map_entries").num(p.unpersisted_map.len());
    w.key("unpersisted_map_sample").arr();
    for (lpn, old) in p.unpersisted_map.iter().take(SNAPSHOT_LIST_CAP) {
        w.obj().key("lpn").num(lpn).key("old_slot");
        match old {
            Some(s) => w.num(s),
            None => w.null(),
        };
        w.end();
    }
    w.end().key("rolled_back_map_entries").num(p.rolled_back_map_entries);
    w.key("nand_shorn_pages").num(p.nand_shorn_pages);
    w.key("aborted_inflight_writes").num(p.aborted_inflight_writes).end();
}

fn write_row(w: &mut Writer, r: &CutReport) {
    w.obj().key("label").str(&r.label).key("cut_at_op").num(r.cut_at_op);
    w.key("cut_phase").str(&r.cut_phase).key("cut_at_ns").num(r.cut_at_ns);
    let t = &r.tally;
    w.key("tally").obj().key("survived").num(t.survived).key("acked_lost").num(t.acked_lost);
    w.key("torn").num(t.torn).key("stale").num(t.stale);
    w.key("never_acked").num(t.never_acked).end();
    w.key("durable").bool(r.durable).key("verdict").str(&r.verdict);
    w.key("losses").arr();
    for f in &r.losses {
        w.obj().key("unit").str(&f.unit).key("kind").str(f.kind.as_str());
        w.key("classification").str(f.classification.as_str()).key("contract");
        match f.contract {
            Some(c) => w.str(c.as_str()),
            None => w.null(),
        };
        w.key("acked_at");
        match f.acked_at {
            Some(t) => w.num(t),
            None => w.null(),
        };
        w.key("layer").str(f.layer.map_or("unattributed", |x| x.as_str()));
        w.key("evidence").str(&f.evidence).end();
    }
    w.end().key("postmortems").arr();
    for p in &r.postmortems {
        write_postmortem(w, p);
    }
    w.end().key("recoveries").arr();
    for s in &r.recoveries {
        w.obj().key("device").str(&s.device).key("ready_at").num(s.ready_at);
        w.key("requeued_slots").num(s.requeued_slots);
        w.key("recovered_via_dump").bool(s.recovered_via_dump);
        w.key("scan_only").bool(s.scan_only).end();
    }
    w.end().end();
}

impl CampaignReport {
    /// Serialize to the `durassd.forensics.v2` JSON document.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.obj().key("schema").str(SCHEMA).key("seed").num(self.seed);
        w.key("keys").num(self.keys).key("cuts").num(self.cuts).key("rows").arr();
        for r in &self.rows {
            write_row(&mut w, r);
        }
        w.end().end();
        w.finish()
    }

    /// Total acked-lost units across rows whose label contains `needle`.
    pub fn acked_lost_for(&self, needle: &str) -> u64 {
        self.rows.iter().filter(|r| r.label.contains(needle)).map(|r| r.tally.acked_lost).sum()
    }

    /// One-line summary per configuration label (rows share labels across
    /// cut points): `label → worst verdict`.
    pub fn summary_lines(&self) -> Vec<String> {
        let mut labels: Vec<&str> = Vec::new();
        for r in &self.rows {
            if !labels.contains(&r.label.as_str()) {
                labels.push(&r.label);
            }
        }
        labels
            .into_iter()
            .map(|l| {
                let rows: Vec<&CutReport> = self.rows.iter().filter(|r| r.label == l).collect();
                let lost: u64 = rows.iter().map(|r| r.tally.acked_lost).sum();
                let torn: u64 = rows.iter().map(|r| r.tally.torn).sum();
                let stale: u64 = rows.iter().map(|r| r.tally.stale).sum();
                let verdict = if lost + torn + stale == 0 {
                    format!("SAFE across {} cut(s)", rows.len())
                } else {
                    format!(
                        "{lost} acked-lost, {torn} torn, {stale} stale across {} cut(s)",
                        rows.len()
                    )
                };
                format!("{l:<34} {verdict}")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{AckContract, Ledger, UnitKind};
    use crate::reconcile::{reconcile, Probe, ProbeResult};
    use crate::snapshot::{CacheSlotSnap, DumpOutcome, RecoverySnap};

    fn sample_report() -> CampaignReport {
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
    fn report_bytes_are_pinned() {
        assert_eq!(
            sample_report().to_json(),
            concat!(
                r#"{"schema":"durassd.forensics.v2","seed":7,"keys":3,"cuts":1,"rows":[{"#,
                r#""label":"engine SSD-A OFF/OFF","cut_at_op":2,"cut_phase":"after-commit","#,
                r#""cut_at_ns":20,"tally":{"survived":1,"acked_lost":1,"torn":0,"stale":0,"#,
                r#""never_acked":1},"durable":false,"verdict":"ACKED DATA LOSS — 1 acked-lost, "#,
                r#"0 torn, 0 stale of 3 probed unit(s)","losses":[{"unit":"k1","#,
                r#""kind":"relstore-commit","classification":"acked-lost","contract":"volatile","#,
                r#""acked_at":9,"layer":"cache-slot","#,
                r#""evidence":"1 acked dirty slot(s) discarded from the volatile cache"},"#,
                r#"{"unit":"k2","kind":"relstore-commit","classification":"never-acked","#,
                r#""contract":null,"acked_at":null,"layer":"host-in-flight","evidence":"#,
                r#""no acknowledgement recorded before the cut — loss permitted by contract"}],"#,
                r#""postmortems":[{"device":"ssd","protection":"volatile","cut_at":20,"#,
                r#""dirty_slots":1,"dirty_slot_sample":[{"lpn":3,"draining":true,"ackable_at":8}],"#,
                r#""discarded_dirty_slots":1,"channel_drain_positions":[0,15],"#,
                r#""dump":{"bytes":4096,"budget_bytes":8192,"within_budget":true},"#,
                r#""unpersisted_map_entries":2,"unpersisted_map_sample":[{"lpn":3,"old_slot":null},"#,
                r#"{"lpn":4,"old_slot":9}],"rolled_back_map_entries":2,"nand_shorn_pages":1,"#,
                r#""aborted_inflight_writes":1}],"recoveries":[{"device":"ssd","ready_at":500,"#,
                r#""requeued_slots":0,"recovered_via_dump":false,"scan_only":true}]}]}"#,
            )
        );
    }

    #[test]
    fn report_json_round_trips() {
        let rep = sample_report();
        let doc = rep.to_json();
        let v = simkit::json::parse(&doc).unwrap();
        let o = v.as_object().unwrap();
        assert_eq!(o["schema"].as_str(), Some(SCHEMA));
        let row = o["rows"].as_array().unwrap()[0].as_object().unwrap();
        assert_eq!(row["tally"].as_object().unwrap()["acked_lost"].as_u64(), Some(1));
        assert_eq!(row["tally"].as_object().unwrap()["never_acked"].as_u64(), Some(1));
        let losses = row["losses"].as_array().unwrap();
        assert_eq!(losses.len(), 2);
        let first = losses[0].as_object().unwrap();
        assert_eq!(first["classification"].as_str(), Some("acked-lost"));
        assert_eq!(first["layer"].as_str(), Some("cache-slot"));
        assert_eq!(first["contract"].as_str(), Some("volatile"));
        let pm = row["postmortems"].as_array().unwrap()[0].as_object().unwrap();
        assert_eq!(pm["dirty_slots"].as_u64(), Some(1));
        assert_eq!(
            pm["dump"].as_object().unwrap()["within_budget"],
            simkit::json::JsonValue::Bool(true)
        );
        assert_eq!(pm["rolled_back_map_entries"].as_u64(), Some(2));
        assert_eq!(rep.acked_lost_for("SSD-A"), 1);
        assert_eq!(rep.acked_lost_for("DuraSSD"), 0);
        assert_eq!(rep.summary_lines().len(), 1);
    }
}
