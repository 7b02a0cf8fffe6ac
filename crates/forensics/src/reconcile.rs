//! The reconciler: ledger × post-recovery probes × postmortems → findings.
//!
//! After recovery the campaign driver re-reads every unit the workload
//! attempted and hands the observed digests here. Classification is a pure
//! function of the ledger's version history for the unit:
//!
//! | probe result              | vs. ledger                         | class |
//! |---------------------------|------------------------------------|-------|
//! | value == latest acked     |                                    | `survived` |
//! | value == older acked      | newer acked version vanished       | `stale` |
//! | value == pending (unacked)| write survived without an ack      | `survived` |
//! | value matches nothing     | content from no recorded version   | `torn` |
//! | read error                | page shorn / unreadable            | `torn` |
//! | missing, unit was acked   | acknowledged write lost            | `acked-lost` |
//! | missing, never acked      | loss the contract permits          | `never-acked` |
//!
//! Losses are then attributed to the layer that dropped them using the
//! device postmortems as evidence (dirty cache slots discarded → cache
//! slot; shorn NAND pages → channel queue; rolled-back mapping entries →
//! lazy FTL map; HDD cache pages cleared → HDD write cache).

use simkit::Nanos;

use crate::ledger::{AckContract, Ledger, UnitKind};
use crate::snapshot::{DevicePostmortem, RecoverySnap};

/// What the post-recovery probe observed for one unit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProbeResult {
    /// A value was read back; this is its [`Ledger::digest`].
    Value(u64),
    /// The unit is gone (key missing / tombstoned away).
    Missing,
    /// The read failed structurally (shorn page, checksum mismatch).
    ReadError(String),
}

/// One probed unit.
#[derive(Clone, Debug)]
pub struct Probe {
    /// Printable unit identifier — must match [`Ledger::unit_name`] of the
    /// key used when the unit was recorded.
    pub unit: String,
    /// What recovery handed back.
    pub result: ProbeResult,
}

impl Probe {
    /// Convenience constructor from the raw key bytes.
    pub fn new(key: &[u8], result: ProbeResult) -> Self {
        Probe { unit: Ledger::unit_name(key), result }
    }
}

/// Final classification of one unit after reconciliation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Classification {
    /// The latest acknowledged version (or an un-acked write) was read back.
    Survived,
    /// An acknowledged unit is gone — the durability contract was broken.
    AckedLost,
    /// Content matching no recorded version, or a structural read failure.
    Torn,
    /// An *older* acknowledged version was read back; the newer ack vanished.
    Stale,
    /// A never-acknowledged intent is gone — a loss the contract permits.
    NeverAcked,
}

impl Classification {
    /// Stable string used in the forensic JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Classification::Survived => "survived",
            Classification::AckedLost => "acked-lost",
            Classification::Torn => "torn",
            Classification::Stale => "stale",
            Classification::NeverAcked => "never-acked",
        }
    }
}

/// The layer a loss is attributed to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LossLayer {
    /// An acknowledged dirty slot discarded from a volatile device cache.
    CacheSlot,
    /// An in-flight channel program shorn mid-page at the cut.
    ChannelQueue,
    /// A mapping entry the lazy FTL had not journalled; rollback re-exposed
    /// the pre-cut translation.
    LazyFtlMap,
    /// A page cleared from the HDD's volatile write cache.
    HddWriteCache,
    /// The write never left the host (WAL buffer / un-synced frame) when
    /// power failed.
    HostInFlight,
    /// No postmortem evidence points at a specific layer.
    Unattributed,
}

impl LossLayer {
    /// Stable string used in the forensic JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            LossLayer::CacheSlot => "cache-slot",
            LossLayer::ChannelQueue => "channel-queue",
            LossLayer::LazyFtlMap => "lazy-ftl-map",
            LossLayer::HddWriteCache => "hdd-write-cache",
            LossLayer::HostInFlight => "host-in-flight",
            LossLayer::Unattributed => "unattributed",
        }
    }
}

/// One reconciled unit: classification plus, for losses, the attribution.
#[derive(Clone, Debug)]
pub struct UnitFinding {
    /// Printable unit identifier.
    pub unit: String,
    /// What kind of unit it was.
    pub kind: UnitKind,
    /// The verdict for this unit.
    pub classification: Classification,
    /// Contract behind the (latest) acknowledgement, if any was given.
    pub contract: Option<AckContract>,
    /// When the latest acknowledgement was given, if any.
    pub acked_at: Option<Nanos>,
    /// For losses: the layer that dropped the unit.
    pub layer: Option<LossLayer>,
    /// Human-readable justification citing the postmortem evidence.
    pub evidence: String,
}

/// Counts per classification.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub survived: u64,
    pub acked_lost: u64,
    pub torn: u64,
    pub stale: u64,
    pub never_acked: u64,
}

impl Tally {
    /// Whether every *acknowledged* unit kept its promise.
    pub fn durable(&self) -> bool {
        self.acked_lost == 0 && self.torn == 0 && self.stale == 0
    }
}

/// The full forensic result of one cut: tallies, loss rows, snapshots.
#[derive(Clone, Debug)]
pub struct CutReport {
    /// Configuration label, e.g. `"engine DuraSSD OFF/OFF"`.
    pub label: String,
    /// Operation index at which power was cut.
    pub cut_at_op: u64,
    /// `"after-put"`, `"after-commit"`, or `"end"`.
    pub cut_phase: String,
    /// Virtual time of the cut.
    pub cut_at_ns: Nanos,
    /// Counts per classification.
    pub tally: Tally,
    /// Every non-`survived` unit, with layer attribution and evidence.
    pub losses: Vec<UnitFinding>,
    /// Device postmortems captured inside `power_cut`.
    pub postmortems: Vec<DevicePostmortem>,
    /// Recovery snapshots captured inside `reboot`.
    pub recoveries: Vec<RecoverySnap>,
    /// Whether every acknowledged unit survived.
    pub durable: bool,
    /// One-line human verdict.
    pub verdict: String,
}

/// Per-unit view assembled from the ledger.
struct UnitView {
    kind: UnitKind,
    /// Acked versions in ack order: (digest, acked_at, contract).
    acked: Vec<(u64, Nanos, AckContract)>,
    /// Digests of never-acked intents.
    pending: Vec<u64>,
}

fn attribute(class: Classification, acked: bool, pms: &[DevicePostmortem]) -> (LossLayer, String) {
    let shorn: u64 = pms.iter().map(|p| p.nand_shorn_pages).sum();
    let rolled: u64 = pms.iter().map(|p| p.rolled_back_map_entries).sum();
    let ssd_discarded: u64 =
        pms.iter().filter(|p| p.device == "ssd").map(|p| p.discarded_dirty_slots).sum();
    let hdd_discarded: u64 =
        pms.iter().filter(|p| p.device == "hdd").map(|p| p.discarded_dirty_slots).sum();
    match class {
        Classification::NeverAcked => (
            LossLayer::HostInFlight,
            "no acknowledgement recorded before the cut — loss permitted by contract".into(),
        ),
        Classification::Torn if shorn > 0 => (
            LossLayer::ChannelQueue,
            format!("{shorn} NAND page(s) shorn by in-flight channel programs at the cut"),
        ),
        Classification::Torn => {
            (LossLayer::Unattributed, "value matches no recorded version".into())
        }
        Classification::Stale if rolled > 0 => (
            LossLayer::LazyFtlMap,
            format!("{rolled} unpersisted mapping entr(ies) rolled back to pre-cut translations"),
        ),
        Classification::Stale if ssd_discarded > 0 => (
            LossLayer::CacheSlot,
            format!("{ssd_discarded} acked dirty slot(s) discarded from the volatile cache"),
        ),
        Classification::Stale => {
            (LossLayer::Unattributed, "an older acknowledged version reappeared".into())
        }
        // AckedLost (and any other loss reaching here):
        _ if hdd_discarded > 0 && ssd_discarded == 0 => (
            LossLayer::HddWriteCache,
            format!("{hdd_discarded} acked page(s) cleared from the HDD write cache"),
        ),
        _ if ssd_discarded > 0 => (
            LossLayer::CacheSlot,
            format!("{ssd_discarded} acked dirty slot(s) discarded from the volatile cache"),
        ),
        _ if rolled > 0 => (
            LossLayer::LazyFtlMap,
            format!("{rolled} unpersisted mapping entr(ies) rolled back at the cut"),
        ),
        _ => (
            LossLayer::Unattributed,
            if acked {
                "acknowledged unit missing with no device-side evidence".into()
            } else {
                "unit missing with no device-side evidence".into()
            },
        ),
    }
}

/// Reconcile one cut: classify every probed unit against the ledger and
/// attribute losses using the device postmortems.
#[allow(clippy::too_many_arguments)]
pub fn reconcile(
    label: &str,
    cut_at_op: u64,
    cut_phase: &str,
    cut_at_ns: Nanos,
    ledger: &Ledger,
    probes: &[Probe],
    postmortems: Vec<DevicePostmortem>,
    recoveries: Vec<RecoverySnap>,
) -> CutReport {
    use std::collections::BTreeMap;
    let mut units: BTreeMap<String, UnitView> = BTreeMap::new();
    for e in ledger.entries() {
        let v = units.entry(e.unit.clone()).or_insert(UnitView {
            kind: e.kind,
            acked: Vec::new(),
            pending: Vec::new(),
        });
        match (e.acked_at, e.contract) {
            (Some(t), Some(c)) => v.acked.push((e.digest, t, c)),
            _ => v.pending.push(e.digest),
        }
    }

    let mut tally = Tally::default();
    let mut losses = Vec::new();
    for p in probes {
        let Some(v) = units.get(&p.unit) else { continue };
        let latest = v.acked.last().copied();
        let (class, note) = match &p.result {
            ProbeResult::Value(d) if latest.map(|(ld, _, _)| ld == *d).unwrap_or(false) => {
                (Classification::Survived, String::new())
            }
            ProbeResult::Value(d) if v.acked.iter().any(|(ad, _, _)| ad == d) => {
                (Classification::Stale, String::new())
            }
            ProbeResult::Value(d) if v.pending.contains(d) => {
                (Classification::Survived, "unacknowledged write survived".to_string())
            }
            ProbeResult::Value(_) => (Classification::Torn, String::new()),
            ProbeResult::ReadError(e) => (Classification::Torn, format!("read error: {e}")),
            ProbeResult::Missing if latest.is_some() => (Classification::AckedLost, String::new()),
            ProbeResult::Missing => (Classification::NeverAcked, String::new()),
        };
        match class {
            Classification::Survived => tally.survived += 1,
            Classification::AckedLost => tally.acked_lost += 1,
            Classification::Torn => tally.torn += 1,
            Classification::Stale => tally.stale += 1,
            Classification::NeverAcked => tally.never_acked += 1,
        }
        if class != Classification::Survived {
            let (layer, mut evidence) = attribute(class, latest.is_some(), &postmortems);
            if !note.is_empty() {
                evidence = format!("{note}; {evidence}");
            }
            losses.push(UnitFinding {
                unit: p.unit.clone(),
                kind: v.kind,
                classification: class,
                contract: latest.map(|(_, _, c)| c),
                acked_at: latest.map(|(_, t, _)| t),
                layer: Some(layer),
                evidence,
            });
        }
    }

    let durable = tally.durable();
    let verdict = if durable {
        format!("SAFE — all {} acknowledged unit(s) recovered", tally.survived)
    } else {
        format!(
            "ACKED DATA LOSS — {} acked-lost, {} torn, {} stale of {} probed unit(s)",
            tally.acked_lost,
            tally.torn,
            tally.stale,
            probes.len()
        )
    };
    CutReport {
        label: label.to_string(),
        cut_at_op,
        cut_phase: cut_phase.to_string(),
        cut_at_ns,
        tally,
        losses,
        postmortems,
        recoveries,
        durable,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::CacheSlotSnap;

    fn ssd_pm(discarded: u64, shorn: u64, rolled: u64) -> DevicePostmortem {
        DevicePostmortem {
            device: "ssd".into(),
            protection: "volatile".into(),
            cut_at: 1_000,
            dirty_slots: (0..discarded)
                .map(|i| CacheSlotSnap { lpn: i, draining: false, ackable_at: 10 })
                .collect(),
            discarded_dirty_slots: discarded,
            channel_drain_positions: vec![0; 4],
            dump: None,
            unpersisted_map: (0..rolled).map(|i| (i, None)).collect(),
            rolled_back_map_entries: rolled,
            nand_shorn_pages: shorn,
            aborted_inflight_writes: 0,
        }
    }

    fn acked_ledger(keys: &[&[u8]], vals: &[&[u8]]) -> Ledger {
        let l = Ledger::new(AckContract::VolatileAck);
        for (k, v) in keys.iter().zip(vals) {
            l.pend(UnitKind::RelstoreCommit, k, Ledger::digest(v), 10);
        }
        l.ack_all_pending(20, false);
        l
    }

    #[test]
    fn survived_and_acked_lost_with_cache_attribution() {
        let l = acked_ledger(&[b"a", b"b"], &[b"va", b"vb"]);
        let probes = vec![
            Probe::new(b"a", ProbeResult::Value(Ledger::digest(b"va"))),
            Probe::new(b"b", ProbeResult::Missing),
        ];
        let r = reconcile("t", 2, "end", 1_000, &l, &probes, vec![ssd_pm(1, 0, 0)], vec![]);
        assert_eq!(r.tally, Tally { survived: 1, acked_lost: 1, ..Default::default() });
        assert!(!r.durable);
        assert_eq!(r.losses.len(), 1);
        assert_eq!(r.losses[0].classification, Classification::AckedLost);
        assert_eq!(r.losses[0].layer, Some(LossLayer::CacheSlot));
        assert_eq!(r.losses[0].contract, Some(AckContract::VolatileAck));
        assert!(r.losses[0].evidence.contains("volatile cache"), "{}", r.losses[0].evidence);
    }

    #[test]
    fn torn_from_read_error_attributes_channel_queue() {
        let l = acked_ledger(&[b"a"], &[b"va"]);
        let probes = vec![Probe::new(b"a", ProbeResult::ReadError("shorn page".into()))];
        let r = reconcile("t", 1, "end", 1_000, &l, &probes, vec![ssd_pm(0, 2, 0)], vec![]);
        assert_eq!(r.tally.torn, 1);
        assert_eq!(r.losses[0].layer, Some(LossLayer::ChannelQueue));
        assert!(r.losses[0].evidence.contains("shorn"), "{}", r.losses[0].evidence);
        // Torn also covers "value matches no recorded version".
        let probes = vec![Probe::new(b"a", ProbeResult::Value(12345))];
        let r = reconcile("t", 1, "end", 1_000, &l, &probes, vec![ssd_pm(0, 0, 0)], vec![]);
        assert_eq!(r.tally.torn, 1);
        assert_eq!(r.losses[0].layer, Some(LossLayer::Unattributed));
    }

    #[test]
    fn stale_attributes_lazy_ftl_map() {
        let l = Ledger::new(AckContract::VolatileAck);
        l.pend(UnitKind::RelstoreCommit, b"a", Ledger::digest(b"v1"), 10);
        l.ack_all_pending(20, false);
        l.pend(UnitKind::RelstoreCommit, b"a", Ledger::digest(b"v2"), 30);
        l.ack_all_pending(40, false);
        // Recovery handed back v1: the v2 ack vanished.
        let probes = vec![Probe::new(b"a", ProbeResult::Value(Ledger::digest(b"v1")))];
        let r = reconcile("t", 2, "end", 1_000, &l, &probes, vec![ssd_pm(0, 0, 3)], vec![]);
        assert_eq!(r.tally.stale, 1);
        assert_eq!(r.losses[0].classification, Classification::Stale);
        assert_eq!(r.losses[0].layer, Some(LossLayer::LazyFtlMap));
        assert!(r.losses[0].evidence.contains("unpersisted mapping"), "{}", r.losses[0].evidence);
    }

    #[test]
    fn never_acked_is_expected_loss_not_violation() {
        let l = Ledger::new(AckContract::DurableCacheAck);
        l.pend(UnitKind::RelstoreCommit, b"a", Ledger::digest(b"v"), 10);
        // No ack before the cut.
        let probes = vec![Probe::new(b"a", ProbeResult::Missing)];
        let r = reconcile("t", 1, "after-put", 1_000, &l, &probes, vec![], vec![]);
        assert_eq!(r.tally.never_acked, 1);
        assert!(r.durable, "never-acked does not break durability");
        assert_eq!(r.losses[0].layer, Some(LossLayer::HostInFlight));
        // An unacked write that *survived* is counted as survived.
        let probes = vec![Probe::new(b"a", ProbeResult::Value(Ledger::digest(b"v")))];
        let r = reconcile("t", 1, "after-put", 1_000, &l, &probes, vec![], vec![]);
        assert_eq!(r.tally.survived, 1);
    }

    #[test]
    fn hdd_losses_attribute_write_cache() {
        let l = acked_ledger(&[b"a"], &[b"va"]);
        let pm = DevicePostmortem {
            device: "hdd".into(),
            protection: "hdd-write-cache".into(),
            discarded_dirty_slots: 5,
            ..Default::default()
        };
        let probes = vec![Probe::new(b"a", ProbeResult::Missing)];
        let r = reconcile("t", 1, "end", 1_000, &l, &probes, vec![pm], vec![]);
        assert_eq!(r.losses[0].layer, Some(LossLayer::HddWriteCache));
    }

    #[test]
    fn probe_of_unrecorded_unit_is_ignored() {
        let l = acked_ledger(&[b"a"], &[b"va"]);
        let probes = vec![Probe::new(b"zz", ProbeResult::Missing)];
        let r = reconcile("t", 1, "end", 1_000, &l, &probes, vec![], vec![]);
        assert_eq!(r.tally, Tally::default());
    }
}
