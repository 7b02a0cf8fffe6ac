//! The shadow oracle of the device targets: a page-level reference model the
//! real device is checked against. (The store targets check against the
//! `forensics` ledger instead; see `harness`.)
//!
//! # Page payload encoding
//!
//! Every page the fuzzer writes is self-describing: bytes `0..8` hold the
//! lpn (little-endian), bytes `8..16` the version number, and the rest a
//! fill byte derived from both. A read can therefore be decoded without
//! any side channel, and *cross-lpn* corruption (a mapping pointing at
//! some other lpn's flash page) is detected immediately rather than
//! looking like an ordinary stale value.
//!
//! # Device semantics
//!
//! * **DuraSSD (capacitor-backed) is checked strictly**: an acked write is
//!   durable with exactly its payload, an un-acked write rolls back
//!   completely, a trim reads zero and survives power cuts.
//! * **Volatile caches are checked relaxedly**: after a power cut, any lpn
//!   that was dirty (written/trimmed since the last flush) may read *any*
//!   value — old versions, zeros, shorn-page errors, even garbage; that is
//!   the documented corruption the paper's DuraSSD removes. Clean lpns
//!   stay strict, and a fresh write or trim snaps the lpn back to strict
//!   checking. Structural invariants are enforced at all times regardless.

use storage::device::{DevError, LOGICAL_PAGE};

/// Fill byte for the payload body; never zero so a real payload can't be
/// confused with an unwritten (all-zero) page.
fn fill_byte(lpn: u64, version: u64) -> u8 {
    (lpn.wrapping_mul(31).wrapping_add(version.wrapping_mul(131)) as u8) | 1
}

/// Deterministic payload for `(lpn, version)`.
pub fn page_bytes(lpn: u64, version: u64) -> Vec<u8> {
    let mut buf = vec![fill_byte(lpn, version); LOGICAL_PAGE];
    buf[..8].copy_from_slice(&lpn.to_le_bytes());
    buf[8..16].copy_from_slice(&version.to_le_bytes());
    buf
}

/// What a read observation decodes to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageObs {
    /// All-zero page (unwritten or trimmed).
    Zeros,
    /// A well-formed fuzzer payload.
    Value { lpn: u64, version: u64 },
    /// Bytes that are neither zeros nor a consistent payload.
    Garbage,
}

/// Decode one logical page read back from the device.
pub fn parse_page(buf: &[u8]) -> PageObs {
    if buf.iter().all(|&b| b == 0) {
        return PageObs::Zeros;
    }
    let lpn = u64::from_le_bytes(buf[..8].try_into().unwrap());
    let version = u64::from_le_bytes(buf[8..16].try_into().unwrap());
    let fill = fill_byte(lpn, version);
    if buf[16..].iter().all(|&b| b == fill) {
        PageObs::Value { lpn, version }
    } else {
        PageObs::Garbage
    }
}

/// Flat shadow model of a block device: expected content version per lpn.
pub struct DeviceOracle {
    volatile: bool,
    next_version: u64,
    /// Expected current content (None = zeros). Meaningful only where
    /// `fuzzy` is false.
    state: Vec<Option<u64>>,
    /// True after a volatile power cut for lpns whose content became
    /// undefined. Never set for a capacitor-backed device.
    fuzzy: Vec<bool>,
    /// False once the lpn has been written/trimmed since the last flush;
    /// decides which lpns a volatile cut scrambles.
    clean: Vec<bool>,
}

impl DeviceOracle {
    pub fn new(capacity: u64, volatile: bool) -> Self {
        let n = capacity as usize;
        Self {
            volatile,
            next_version: 0,
            state: vec![None; n],
            fuzzy: vec![false; n],
            clean: vec![true; n],
        }
    }

    /// Mint a fresh version number for the next write.
    pub fn issue_version(&mut self) -> u64 {
        self.next_version += 1;
        self.next_version
    }

    /// Record an acked write of `version` at `lpn`.
    pub fn write(&mut self, lpn: u64, version: u64) {
        let i = lpn as usize;
        self.state[i] = Some(version);
        self.fuzzy[i] = false;
        self.clean[i] = false;
    }

    /// Record an acked trim at `lpn`.
    pub fn trim(&mut self, lpn: u64) {
        let i = lpn as usize;
        self.state[i] = None;
        self.fuzzy[i] = false;
        self.clean[i] = false;
    }

    /// Record a FLUSH CACHE: everything currently expected is on media.
    pub fn flush(&mut self) {
        for c in &mut self.clean {
            *c = true;
        }
    }

    /// Record a power cut + reboot. On a capacitor-backed device this is a
    /// no-op (acked state survives exactly); on a volatile cache every
    /// dirty lpn's content becomes undefined.
    pub fn power_cut(&mut self) {
        if !self.volatile {
            return;
        }
        for i in 0..self.state.len() {
            if !self.clean[i] {
                self.fuzzy[i] = true;
            }
        }
    }

    /// Record a write that was issued but *rolled back* by a cut before its
    /// ack. Strict state is unchanged; on volatile devices the lpn still
    /// becomes undefined (partial drains may have reached flash).
    pub fn aborted_write(&mut self, lpn: u64, pages: u32) {
        if self.volatile {
            for i in lpn as usize..(lpn + pages as u64) as usize {
                self.fuzzy[i] = true;
                self.clean[i] = false;
            }
        }
    }

    /// Check a successful single-page read observation. `Err` describes the
    /// divergence.
    pub fn check_read(&self, lpn: u64, obs: &PageObs) -> Result<(), String> {
        let i = lpn as usize;
        if let PageObs::Value { lpn: got, .. } = obs {
            if *got != lpn && !self.fuzzy[i] {
                return Err(format!(
                    "cross-lpn corruption: read of lpn {lpn} returned a payload written for lpn {got}"
                ));
            }
        }
        if self.fuzzy[i] {
            return Ok(()); // volatile post-cut: anything goes
        }
        let expect = self.state[i];
        match (expect, obs) {
            (None, PageObs::Zeros) => Ok(()),
            (Some(v), PageObs::Value { version, .. }) if *version == v => Ok(()),
            (None, other) => Err(format!("lpn {lpn}: expected zeros, observed {other:?}")),
            (Some(v), other) => Err(format!("lpn {lpn}: expected version {v}, observed {other:?}")),
        }
    }

    /// Check a read that returned a device error. Only a volatile device
    /// reading a post-cut dirty range may legitimately fail (shorn page).
    pub fn check_read_err(&self, lpn: u64, pages: u32, err: &DevError) -> Result<(), String> {
        let any_fuzzy = (lpn as usize..(lpn + pages as u64) as usize).any(|i| self.fuzzy[i]);
        if any_fuzzy && matches!(err, DevError::ShornPage { .. }) {
            return Ok(());
        }
        Err(format!("read of lpn {lpn} x{pages} failed unexpectedly: {err}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_round_trips() {
        let buf = page_bytes(42, 7);
        assert_eq!(parse_page(&buf), PageObs::Value { lpn: 42, version: 7 });
        assert_eq!(parse_page(&vec![0u8; LOGICAL_PAGE]), PageObs::Zeros);
        let mut bad = page_bytes(42, 7);
        bad[2000] ^= 0x55;
        assert_eq!(parse_page(&bad), PageObs::Garbage);
    }

    #[test]
    fn payloads_differ_across_lpn_and_version() {
        assert_ne!(page_bytes(1, 1), page_bytes(2, 1));
        assert_ne!(page_bytes(1, 1), page_bytes(1, 2));
    }

    #[test]
    fn strict_oracle_flags_stale_reads() {
        let mut o = DeviceOracle::new(8, false);
        let v = o.issue_version();
        o.write(3, v);
        assert!(o.check_read(3, &PageObs::Value { lpn: 3, version: v }).is_ok());
        assert!(o.check_read(3, &PageObs::Zeros).is_err());
        assert!(o.check_read(3, &PageObs::Value { lpn: 3, version: v + 1 }).is_err());
        assert!(o
            .check_read(3, &PageObs::Value { lpn: 5, version: v })
            .unwrap_err()
            .contains("cross-lpn"));
    }

    #[test]
    fn volatile_cut_relaxes_only_dirty_lpns() {
        let mut o = DeviceOracle::new(8, true);
        let v1 = o.issue_version();
        o.write(1, v1);
        o.flush();
        let v2 = o.issue_version();
        o.write(2, v2);
        o.power_cut();
        // lpn 1 was clean at the cut: still strict.
        assert!(o.check_read(1, &PageObs::Value { lpn: 1, version: v1 }).is_ok());
        assert!(o.check_read(1, &PageObs::Zeros).is_err());
        // lpn 2 was dirty: anything goes, including errors.
        assert!(o.check_read(2, &PageObs::Zeros).is_ok());
        assert!(o.check_read(2, &PageObs::Garbage).is_ok());
        assert!(o.check_read_err(2, 1, &DevError::ShornPage { lpn: 2 }).is_ok());
        // ...but a fresh write snaps it back to strict.
        let v3 = o.issue_version();
        o.write(2, v3);
        assert!(o.check_read(2, &PageObs::Zeros).is_err());
    }

    #[test]
    fn dura_oracle_ignores_cuts() {
        let mut o = DeviceOracle::new(4, false);
        let v = o.issue_version();
        o.write(0, v);
        o.power_cut();
        assert!(o.check_read(0, &PageObs::Value { lpn: 0, version: v }).is_ok());
        assert!(o.check_read(0, &PageObs::Zeros).is_err());
    }
}
