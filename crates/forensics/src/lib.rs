//! Durability ledger and power-cut forensics for the DuraSSD reproduction.
//!
//! The paper's central claim (§3.2–§3.4, §5) is about *which acknowledged
//! writes survive a power cut*. Aggregate `lost/corrupt` counters can say
//! *that* a configuration loses data; this crate exists to say *which* write
//! was lost, *where* in the stack the durability contract was broken, and
//! *why* DuraSSD's capacitor dump saved the equivalent write. Three pieces:
//!
//! * [`Ledger`] — a shadow record of every durably-acknowledged unit
//!   (relational commits, document updates), tagged with its
//!   [`AckContract`] and virtual ack timestamp.
//! * [`DevicePostmortem`] / [`RecoverySnap`] — snapshots captured *inside*
//!   `power_cut` and `reboot` by devices implementing [`Forensic`]: dirty
//!   cache slots with owner LBAs, per-channel drain positions, the emergency
//!   dump outcome against the capacitor budget, unpersisted FTL mapping
//!   entries, and shorn NAND pages.
//! * [`reconcile`] — classifies every probed unit
//!   (`survived | acked-lost | torn | stale | never-acked`), attributes each
//!   loss to the layer that dropped it, and rolls trials up into a
//!   [`CampaignReport`] with a per-configuration verdict (the CI gate over
//!   the emitted JSON lives in `bench::schema::check_forensics_report`).

mod ledger;
mod reconcile;
mod report;
mod snapshot;

pub use ledger::{AckContract, Ledger, LedgerEntry, UnitKind};
pub use reconcile::{
    reconcile, Classification, CutReport, LossLayer, Probe, ProbeResult, Tally, UnitFinding,
};
pub use report::{CampaignReport, SCHEMA};
pub use snapshot::{CacheSlotSnap, DevicePostmortem, DumpOutcome, Forensic, RecoverySnap};
