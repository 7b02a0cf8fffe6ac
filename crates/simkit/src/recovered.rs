//! Recovery reports: what a store's crash recovery did and how long the
//! user waited for it.
//!
//! Both storage engines in this repository (the relational engine and the
//! document store) recover by scanning a durable structure — the WAL since
//! the last checkpoint, or the file tail for the newest commit header — and
//! replaying what they find. [`Recovered`] is the one return shape for
//! both: the recovered store, the virtual completion time, and a
//! [`ReplayStats`] describing the scan so benchmarks and tests can assert
//! on *how* recovery went, not just that it produced a working store.

use crate::clock::Nanos;

/// What a recovery scan replayed and found torn.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Records scanned from the checkpoint on, all of which redo is handed.
    pub replayed: u64,
    /// Torn or garbage records the scan truncated at (0 or 1 for a single
    /// log; the valid prefix before a tear is still replayed).
    pub torn: u64,
    /// Where redo started: the checkpoint LSN in the log header (document
    /// store: the byte offset of the commit header recovered from).
    pub checkpoint_lsn: u64,
    /// LSN of the tear, when `torn > 0`.
    pub tear_lsn: Option<u64>,
    /// Virtual time recovery took, from reboot to a store ready for its
    /// first read: the three phases below, which sum to it.
    pub replay_ns: Nanos,
    /// Device reboot (recharge or spin-up, dump replay); 0 on a powered
    /// device.
    pub reboot_ns: Nanos,
    /// Finding where the state starts (document store: superblock and
    /// header search; relational: catalog, double-write and log scans).
    pub scan_ns: Nanos,
    /// Redoing what the scan returned (always 0 for the document store).
    pub redo_ns: Nanos,
}

/// A recovered store plus the story of its recovery.
#[derive(Debug, Clone)]
pub struct Recovered<T> {
    /// The recovered store.
    pub value: T,
    /// Virtual time at which the store is ready (first read may start).
    pub done: Nanos,
    /// Scan/replay statistics.
    pub stats: ReplayStats,
}

impl<T> Recovered<T> {
    /// Wrap a store with its completion time and stats, whose phases must
    /// account for the whole recovery.
    pub fn new(value: T, done: Nanos, stats: ReplayStats) -> Self {
        assert_eq!(
            stats.reboot_ns + stats.scan_ns + stats.redo_ns,
            stats.replay_ns,
            "recovery phases must sum to the recovery time: {stats:?}"
        );
        Self { value, done, stats }
    }

    /// Split into the store and its completion time, dropping the stats —
    /// the common call-site shape when only the clock matters.
    pub fn into_parts(self) -> (T, Nanos) {
        (self.value, self.done)
    }

    /// Map the recovered value, keeping time and stats.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Recovered<U> {
        Recovered { value: f(self.value), done: self.done, stats: self.stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn into_parts_and_map_preserve_fields() {
        let r = Recovered::new(41u32, 7, ReplayStats { replayed: 3, ..ReplayStats::default() });
        let mapped = r.clone().map(|v| v + 1);
        assert_eq!(mapped.value, 42);
        assert_eq!(mapped.stats.replayed, 3);
        let (v, t) = r.into_parts();
        assert_eq!((v, t), (41, 7));
    }
}
