//! The durability ledger: a shadow record of every durably-acknowledged unit.
//!
//! Storage layers do not *know* whether their acknowledgements will survive a
//! power cut — that is exactly the gap the paper exploits (§3.2: an fsync ack
//! from a volatile write cache is a promise the device cannot keep). The
//! ledger records, for every acknowledged unit, *which contract* backed the
//! acknowledgement and *when* (virtual time) it was given, so that after a
//! crash the reconciler can say precisely which promises were broken and by
//! which layer.
//!
//! The ledger keeps one [`UnitHistory`] per app-level unit — a relational
//! key or a document, keyed by its raw key bytes: the acknowledged versions
//! in order and the intents still pending. Each version is an [`Intent`]: a
//! value digest, or a tombstone for a delete, so the post-recovery probe can
//! distinguish `survived` from `stale` from `torn`. How many WAL flushes,
//! fsyncs, FLUSH CACHE commands and checkpoints stood behind those acks is
//! not the ledger's business: each layer counts its own
//! (`WalStats::flushes`, `Volume::fsync_count`, `DeviceStats::flushes`,
//! `EngineStats::checkpoints`).
//!
//! The ledger is a shared `Rc<RefCell<..>>` handle (the same pattern as
//! `telemetry::Telemetry`): the campaign driver creates one per trial,
//! attaches it to the engine or document store — the only layers that know
//! a unit — and [`Ledger::probe`]s every recorded unit after recovery. When
//! no ledger is attached, every recording call is skipped — the hot paths
//! stay free.

use std::cell::{Ref, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use simkit::Nanos;

use crate::reconcile::{Probe, ProbeResult};

/// The durability contract behind an acknowledgement (§2.1/§3.2 of the
/// paper): what the acknowledging layer believed made the write safe.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AckContract {
    /// Acknowledged only after an explicit flush barrier (FLUSH CACHE /
    /// fsync with barriers on) completed. Safe on every device.
    FlushBarrierAck,
    /// Acknowledged from a capacitor-backed durable cache — DuraSSD's
    /// contract: the ack is durable *without* a barrier.
    DurableCacheAck,
    /// Acknowledged from a volatile cache with barriers off. No durability
    /// promise: the ack can be revoked by a power cut.
    VolatileAck,
}

impl AckContract {
    /// Stable string used in the forensic JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            AckContract::FlushBarrierAck => "flush-barrier",
            AckContract::DurableCacheAck => "durable-cache",
            AckContract::VolatileAck => "volatile",
        }
    }
}

/// What kind of app-level unit a ledger entry records.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnitKind {
    /// One key/value made durable by a relational-engine commit.
    RelstoreCommit,
    /// One document update made durable by a docstore header sync.
    DocstoreUpdate,
}

impl UnitKind {
    /// Stable string used in the forensic JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            UnitKind::RelstoreCommit => "relstore-commit",
            UnitKind::DocstoreUpdate => "docstore-update",
        }
    }
}

/// What one write asks its unit to read back as.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Intent {
    /// A put: the [`Ledger::digest`] of the value written.
    Value(u64),
    /// A delete: the unit reads back as missing. Distinct from every value
    /// digest, the empty value's included.
    Tombstone,
}

impl Intent {
    /// The intent of writing `value` (`None` is a delete), or equally what a
    /// read that returned `value` observed.
    pub fn of(value: Option<&[u8]>) -> Self {
        value.map_or(Intent::Tombstone, |v| Intent::Value(Ledger::digest(v)))
    }
}

/// One acknowledged version of a unit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Ack {
    /// What the acknowledged write asked the unit to read back as.
    pub intent: Intent,
    /// Virtual time the acknowledgement was given.
    pub at: Nanos,
    /// The contract behind the acknowledgement.
    pub contract: AckContract,
}

/// Everything the ledger recorded for one unit.
#[derive(Clone, Debug)]
pub struct UnitHistory {
    /// What layer produced the unit.
    pub kind: UnitKind,
    /// Acknowledged versions, oldest first.
    pub acked: Vec<Ack>,
    /// Intents issued since the unit's last acknowledgement, oldest first.
    pub pending: Vec<Intent>,
}

struct Inner {
    device_contract: AckContract,
    units: BTreeMap<Vec<u8>, UnitHistory>,
    /// Keys of the units with at least one pending intent.
    pending: Vec<Vec<u8>>,
}

/// Shared handle to the durability ledger (clone freely; all clones record
/// into the same books).
#[derive(Clone)]
pub struct Ledger(Rc<RefCell<Inner>>);

impl Ledger {
    /// A fresh ledger for one crash trial. `device_contract` is the contract
    /// the *device cache* offers for barrierless acknowledgements — the
    /// campaign driver knows the device profile and picks
    /// [`AckContract::DurableCacheAck`] for DuraSSD and
    /// [`AckContract::VolatileAck`] for volatile-cache devices and disks.
    pub fn new(device_contract: AckContract) -> Self {
        Ledger(Rc::new(RefCell::new(Inner {
            device_contract,
            units: BTreeMap::new(),
            pending: Vec::new(),
        })))
    }

    /// FNV-1a digest of a value as written. Both the recording layer and the
    /// post-recovery probe use this, so digests compare across the crash.
    pub fn digest(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Printable unit identifier for a key (lossy UTF-8, control bytes
    /// replaced) so reports stay human-readable for binary keys.
    pub fn unit_name(key: &[u8]) -> String {
        key.iter()
            .map(|&b| if (0x20..0x7f).contains(&b) { b as char } else { '.' })
            .collect::<String>()
    }

    /// Record a write *intent*: the unit was issued but not yet acknowledged.
    /// `value` is what was written; `None` records a delete.
    pub fn pend(&self, kind: UnitKind, key: &[u8], value: Option<&[u8]>) {
        let intent = Intent::of(value);
        let mut s = self.0.borrow_mut();
        let s = &mut *s;
        let unit = s.units.entry(key.to_vec()).or_insert_with(|| UnitHistory {
            kind,
            acked: Vec::new(),
            pending: Vec::new(),
        });
        if unit.pending.is_empty() {
            s.pending.push(key.to_vec());
        }
        unit.pending.push(intent);
    }

    /// Acknowledge every pending intent as durable at `acked_at`. `barriered`
    /// says whether the acknowledging layer issued an explicit flush barrier
    /// for this ack; if not, the device's own contract applies.
    pub fn ack_all_pending(&self, acked_at: Nanos, barriered: bool) {
        let mut s = self.0.borrow_mut();
        let s = &mut *s;
        let contract = if barriered { AckContract::FlushBarrierAck } else { s.device_contract };
        for key in s.pending.drain(..) {
            let unit = s.units.get_mut(&key).expect("pending units are recorded");
            let acks = unit.pending.drain(..).map(|intent| Ack { intent, at: acked_at, contract });
            unit.acked.extend(acks);
        }
    }

    /// What a read of `key` must return right now: the unit's latest
    /// recorded intent, or a tombstone if nothing was ever recorded for it.
    pub fn latest(&self, key: &[u8]) -> Intent {
        let s = self.0.borrow();
        let Some(unit) = s.units.get(key) else { return Intent::Tombstone };
        let acked = || unit.acked.last().expect("a recorded unit has an intent").intent;
        unit.pending.last().copied().unwrap_or_else(acked)
    }

    /// Everything recorded for `key`, if anything was.
    pub fn history(&self, key: &[u8]) -> Option<UnitHistory> {
        self.0.borrow().units.get(key).cloned()
    }

    /// Probe every recorded unit, in key order: `read` reads one key back
    /// from the recovered store. The ledger is not borrowed while `read`
    /// runs, so it may drive a store the ledger is attached to.
    pub fn probe(&self, mut read: impl FnMut(&[u8]) -> ProbeResult) -> Vec<Probe> {
        let keys: Vec<Vec<u8>> = self.0.borrow().units.keys().cloned().collect();
        keys.into_iter()
            .map(|key| {
                let result = read(&key);
                Probe { key, result }
            })
            .collect()
    }

    /// The per-unit histories, for the reconciler.
    pub(crate) fn units(&self) -> Ref<'_, BTreeMap<Vec<u8>, UnitHistory>> {
        Ref::map(self.0.borrow(), |s| &s.units)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pend_then_ack_assigns_contract_and_timestamp() {
        let l = Ledger::new(AckContract::DurableCacheAck);
        l.pend(UnitKind::RelstoreCommit, b"k1", Some(b"v1"));
        l.pend(UnitKind::RelstoreCommit, b"k2", Some(b"v2"));
        let h = l.history(b"k1").unwrap();
        assert!(h.acked.is_empty());
        assert_eq!(h.pending, [Intent::of(Some(b"v1"))]);
        l.ack_all_pending(50, false);
        for key in [b"k1", b"k2"] {
            let h = l.history(key).unwrap();
            assert!(h.pending.is_empty());
            assert_eq!(h.acked.len(), 1);
            assert_eq!(h.acked[0].at, 50);
            assert_eq!(h.acked[0].contract, AckContract::DurableCacheAck);
        }
        // A barriered ack upgrades the contract regardless of the device, and
        // touches only the units pending at the time.
        l.pend(UnitKind::RelstoreCommit, b"k3", Some(b"v3"));
        l.ack_all_pending(70, true);
        assert_eq!(l.history(b"k3").unwrap().acked[0].contract, AckContract::FlushBarrierAck);
        assert_eq!(l.history(b"k1").unwrap().acked.len(), 1);
    }

    #[test]
    fn latest_is_the_newest_pending_then_the_newest_acked_intent() {
        let l = Ledger::new(AckContract::DurableCacheAck);
        assert_eq!(l.latest(b"k"), Intent::Tombstone, "never recorded reads as absent");
        l.pend(UnitKind::DocstoreUpdate, b"k", Some(b"v1"));
        l.ack_all_pending(10, false);
        assert_eq!(l.latest(b"k"), Intent::of(Some(b"v1")));
        l.pend(UnitKind::DocstoreUpdate, b"k", None);
        assert_eq!(l.latest(b"k"), Intent::Tombstone);
        l.pend(UnitKind::DocstoreUpdate, b"k", Some(b"v2"));
        l.ack_all_pending(20, false);
        assert_eq!(l.latest(b"k"), Intent::of(Some(b"v2")));
    }

    #[test]
    fn a_delete_is_not_an_empty_value() {
        assert_ne!(Intent::of(None), Intent::of(Some(b"")));
        assert_eq!(Intent::of(Some(b"v")), Intent::Value(Ledger::digest(b"v")));
    }

    #[test]
    fn probe_visits_every_recorded_unit_in_key_order() {
        let l = Ledger::new(AckContract::DurableCacheAck);
        for key in [&b"b"[..], b"a", b"c", b"a"] {
            l.pend(UnitKind::RelstoreCommit, key, Some(key));
        }
        let mut read = Vec::new();
        let probes = l.probe(|key| {
            read.push(key.to_vec());
            ProbeResult::Missing
        });
        assert_eq!(read, [b"a", b"b", b"c"]);
        let keys: Vec<&[u8]> = probes.iter().map(|p| &p.key[..]).collect();
        assert_eq!(keys, [b"a", b"b", b"c"]);
    }

    #[test]
    fn digest_and_unit_name() {
        assert_ne!(Ledger::digest(b"a"), Ledger::digest(b"b"));
        assert_eq!(Ledger::digest(b"same"), Ledger::digest(b"same"));
        assert_eq!(Ledger::unit_name(b"key01"), "key01");
        assert_eq!(Ledger::unit_name(&[0x01, b'x', 0xff]), ".x.");
    }
}
