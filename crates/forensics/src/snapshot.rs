//! Device postmortem and recovery snapshots.
//!
//! A power cut destroys exactly the state these structs capture: the dirty
//! write-cache slots and their owners, how far each channel had drained, how
//! big the emergency dump was against the capacitor budget, which mapping
//! entries the FTL had not yet journalled, and which NAND pages were shorn
//! mid-program. Devices fill a [`DevicePostmortem`] *inside* `power_cut`
//! (before any state is discarded) and a [`RecoverySnap`] inside `reboot`,
//! and expose both through the [`Forensic`] trait so the reconciler can
//! attribute every lost acknowledgement to the layer that dropped it.

use simkit::Nanos;

/// One dirty (or draining) write-cache slot at the instant of the cut.
#[derive(Clone, Debug)]
pub struct CacheSlotSnap {
    /// Logical page owning the slot.
    pub lpn: u64,
    /// Whether a drain to NAND was already in flight for this slot.
    pub draining: bool,
    /// Virtual time the host ack for this slot became (or becomes) visible.
    pub ackable_at: Nanos,
}

/// Outcome of the capacitor-powered emergency dump (§3.3).
#[derive(Clone, Copy, Debug)]
pub struct DumpOutcome {
    /// Bytes the dump had to persist (cache payload + mapping delta).
    pub bytes: u64,
    /// Capacitor energy budget expressed in writable bytes.
    pub budget_bytes: u64,
    /// Whether the dump fit the budget. When `false` the dump failed and the
    /// device degraded to volatile behaviour — a reportable forensic finding
    /// (it used to be a process abort).
    pub within_budget: bool,
}

/// Everything a device knew at the instant power was cut.
#[derive(Clone, Debug, Default)]
pub struct DevicePostmortem {
    /// Device family: `"ssd"` or `"hdd"`.
    pub device: String,
    /// Cache protection at the cut: `"capacitor-backed"`, `"volatile"`, or
    /// `"hdd-write-cache"`.
    pub protection: String,
    /// Virtual time of the cut (after clamping to the last host command).
    pub cut_at: Nanos,
    /// Dirty/draining cache slots with their owner LBAs, pre-discard.
    pub dirty_slots: Vec<CacheSlotSnap>,
    /// How many acked dirty slots were destroyed (volatile caches; 0 when
    /// the dump succeeded).
    pub discarded_dirty_slots: u64,
    /// Per-channel (plane) drain position: the virtual time each channel's
    /// in-flight program would have completed.
    pub channel_drain_positions: Vec<Nanos>,
    /// Emergency dump outcome; `None` on devices without a capacitor.
    pub dump: Option<DumpOutcome>,
    /// FTL mapping entries not yet journalled at the cut: `(lpn, old_slot)`
    /// pairs, `old_slot == None` for pages mapped for the first time.
    pub unpersisted_map: Vec<(u64, Option<u64>)>,
    /// How many of those entries were rolled back to pre-cut translations
    /// (volatile path / failed dump; 0 when the dump preserved them).
    pub rolled_back_map_entries: u64,
    /// NAND pages shorn by in-flight programs at the cut.
    pub nand_shorn_pages: u64,
    /// Host writes rolled back because their transfer had not completed
    /// (correct atomic behaviour, not a durability loss).
    pub aborted_inflight_writes: u64,
}

/// What recovery found when the device came back.
#[derive(Clone, Debug, Default)]
pub struct RecoverySnap {
    /// Device family: `"ssd"` or `"hdd"`.
    pub device: String,
    /// Virtual time the device was ready to serve the host again.
    pub ready_at: Nanos,
    /// Cache slots re-queued for drain from the emergency dump.
    pub requeued_slots: u64,
    /// Whether state was restored from an emergency dump (DuraSSD path).
    pub recovered_via_dump: bool,
    /// Whether recovery was a bare consistency scan with nothing to restore
    /// (volatile devices).
    pub scan_only: bool,
}

/// Devices that can testify about a power cut. Implemented by the SSD and
/// HDD models; the campaign driver bounds its device type parameters on
/// `BlockDevice + Forensic` to collect snapshots between `crash` and
/// `recover`.
pub trait Forensic {
    /// The postmortem captured by the most recent `power_cut`, if any.
    fn postmortem(&self) -> Option<&DevicePostmortem>;
    /// Take ownership of the postmortem (clears the stored copy).
    fn take_postmortem(&mut self) -> Option<DevicePostmortem>;
    /// The snapshot captured by the most recent `reboot`, if any.
    fn recovery_snap(&self) -> Option<&RecoverySnap>;
}
