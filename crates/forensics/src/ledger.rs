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
//! One entry ([`LedgerEntry`]) is recorded per app-level unit — a relational
//! key/value put or a document update — carrying a value digest so the
//! post-recovery probe can distinguish `survived` from `stale` from `torn`.
//! How many WAL flushes, fsyncs, FLUSH CACHE commands and checkpoints stood
//! behind those acks is not the ledger's business: each layer counts its own
//! (`WalStats::flushes`, `Volume::fsync_count`, `DeviceStats::flushes`,
//! `EngineStats::checkpoints`).
//!
//! The ledger is a shared `Rc<RefCell<..>>` handle (the same pattern as
//! `telemetry::Telemetry`): the campaign driver creates one per trial,
//! attaches it to the engine or document store — the only layers that know
//! a unit — and reads it back after recovery. When no ledger is attached,
//! every recording call is skipped — the hot paths stay free.

use std::cell::RefCell;
use std::rc::Rc;

use simkit::Nanos;

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

/// One acknowledged (or still-pending) app-level unit.
#[derive(Clone, Debug)]
pub struct LedgerEntry {
    /// Monotone sequence number in issue order.
    pub seq: u64,
    /// What layer produced the unit.
    pub kind: UnitKind,
    /// Printable unit identifier (lossy UTF-8 of the key).
    pub unit: String,
    /// Digest of the value as written (see [`Ledger::digest`]).
    pub digest: u64,
    /// Virtual time the write was issued.
    pub issued_at: Nanos,
    /// Virtual time the unit was acknowledged durable; `None` while pending.
    pub acked_at: Option<Nanos>,
    /// The contract behind the acknowledgement; `None` while pending.
    pub contract: Option<AckContract>,
}

struct Inner {
    device_contract: AckContract,
    next_seq: u64,
    entries: Vec<LedgerEntry>,
    pending: Vec<usize>,
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
            next_seq: 0,
            entries: Vec::new(),
            pending: Vec::new(),
        })))
    }

    /// The contract backing barrierless acknowledgements on this device.
    pub fn device_contract(&self) -> AckContract {
        self.0.borrow().device_contract
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
    /// Returns the entry's sequence number.
    pub fn pend(&self, kind: UnitKind, key: &[u8], digest: u64, issued_at: Nanos) -> u64 {
        let mut s = self.0.borrow_mut();
        let seq = s.next_seq;
        s.next_seq += 1;
        let idx = s.entries.len();
        s.entries.push(LedgerEntry {
            seq,
            kind,
            unit: Self::unit_name(key),
            digest,
            issued_at,
            acked_at: None,
            contract: None,
        });
        s.pending.push(idx);
        seq
    }

    /// Acknowledge every pending unit as durable at `acked_at`. `barriered`
    /// says whether the acknowledging layer issued an explicit flush barrier
    /// for this ack; if not, the device's own contract applies.
    pub fn ack_all_pending(&self, acked_at: Nanos, barriered: bool) {
        let mut s = self.0.borrow_mut();
        let contract = if barriered { AckContract::FlushBarrierAck } else { s.device_contract };
        let pending = std::mem::take(&mut s.pending);
        for idx in pending {
            let e = &mut s.entries[idx];
            e.acked_at = Some(acked_at);
            e.contract = Some(contract);
        }
    }

    /// Snapshot of every entry (issue order).
    pub fn entries(&self) -> Vec<LedgerEntry> {
        self.0.borrow().entries.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pend_then_ack_assigns_contract_and_timestamp() {
        let l = Ledger::new(AckContract::DurableCacheAck);
        l.pend(UnitKind::RelstoreCommit, b"k1", Ledger::digest(b"v1"), 10);
        l.pend(UnitKind::RelstoreCommit, b"k2", Ledger::digest(b"v2"), 11);
        assert!(l.entries().iter().all(|e| e.acked_at.is_none() && e.contract.is_none()));
        l.ack_all_pending(50, false);
        let es = l.entries();
        assert_eq!(es.len(), 2);
        assert!(es.iter().all(|e| e.acked_at == Some(50)));
        assert!(es.iter().all(|e| e.contract == Some(AckContract::DurableCacheAck)));
        // A barriered ack upgrades the contract regardless of the device.
        l.pend(UnitKind::RelstoreCommit, b"k3", Ledger::digest(b"v3"), 60);
        l.ack_all_pending(70, true);
        assert_eq!(l.entries()[2].contract, Some(AckContract::FlushBarrierAck));
    }

    #[test]
    fn digest_and_unit_name() {
        assert_ne!(Ledger::digest(b"a"), Ledger::digest(b"b"));
        assert_eq!(Ledger::digest(b"same"), Ledger::digest(b"same"));
        assert_eq!(Ledger::unit_name(b"key01"), "key01");
        assert_eq!(Ledger::unit_name(&[0x01, b'x', 0xff]), ".x.");
    }
}
