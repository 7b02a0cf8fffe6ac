//! The device-boundary probe: a [`BlockDevice`] wrapper owned by the
//! benchmark that sits between the host stack (`Volume`, `Engine`,
//! `DocStore`) and the simulated device, and records one span per
//! `read` / `write` / `flush` / `reboot` crossing the boundary.
//!
//! Every device the benchmark builds is wrapped, in both passes, so the
//! program under test is compiled once; with no tracer attached (the
//! end-to-end pass) each call costs one branch and is forwarded untouched.

use crate::spans::Tracer;
use simkit::Nanos;
use storage::device::{BlockDevice, DevResult, DeviceStats, WriteCause};

/// Span names of one probed device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeNames {
    /// Span name for `read`.
    pub read: &'static str,
    /// Span name for `write`.
    pub write: &'static str,
    /// Span name for `flush`.
    pub flush: &'static str,
    /// Span name for `reboot`.
    pub reboot: &'static str,
}

/// The only (or data) device of a workload.
pub const MAIN: ProbeNames = ProbeNames {
    read: "probe.read",
    write: "probe.write",
    flush: "probe.flush",
    reboot: "probe.reboot",
};

/// The log device of the relational workloads.
pub const LOG: ProbeNames = ProbeNames {
    read: "probe.log.read",
    write: "probe.log.write",
    flush: "probe.log.flush",
    reboot: "probe.log.reboot",
};

/// Pass-through device wrapper; see the module docs.
pub struct Probe<D> {
    dev: D,
    names: ProbeNames,
    tracer: Option<Tracer>,
}

impl<D: BlockDevice> Probe<D> {
    /// Wrap `dev`; spans are recorded only when `tracer` is given.
    pub fn new(dev: D, names: ProbeNames, tracer: Option<Tracer>) -> Self {
        Self { dev, names, tracer }
    }

    /// The wrapped device (public `stats()` getters live there).
    pub fn inner(&self) -> &D {
        &self.dev
    }

    fn timed(
        &mut self,
        name: &'static str,
        now: Nanos,
        call: impl FnOnce(&mut D) -> DevResult<Nanos>,
    ) -> DevResult<Nanos> {
        match &self.tracer {
            None => call(&mut self.dev),
            Some(t) => {
                t.begin(name, 0, now);
                let res = call(&mut self.dev);
                t.end(name, *res.as_ref().unwrap_or(&now));
                res
            }
        }
    }
}

impl<D: BlockDevice> BlockDevice for Probe<D> {
    fn capacity_pages(&self) -> u64 {
        self.dev.capacity_pages()
    }

    fn read(&mut self, lpn: u64, pages: u32, buf: &mut [u8], now: Nanos) -> DevResult<Nanos> {
        self.timed(self.names.read, now, |d| d.read(lpn, pages, buf, now))
    }

    fn write(&mut self, lpn: u64, data: &[u8], now: Nanos) -> DevResult<Nanos> {
        self.timed(self.names.write, now, |d| d.write(lpn, data, now))
    }

    fn flush(&mut self, now: Nanos) -> DevResult<Nanos> {
        self.timed(self.names.flush, now, |d| d.flush(now))
    }

    fn power_cut(&mut self, now: Nanos) {
        self.dev.power_cut(now);
    }

    fn reboot(&mut self, now: Nanos) -> Nanos {
        self.timed(self.names.reboot, now, |d| Ok(d.reboot(now))).expect("reboot is infallible")
    }

    fn is_powered(&self) -> bool {
        self.dev.is_powered()
    }

    fn discard(&mut self, lpn: u64, pages: u32, now: Nanos) -> DevResult<Nanos> {
        self.dev.discard(lpn, pages, now)
    }

    fn set_write_cause(&mut self, cause: WriteCause) {
        self.dev.set_write_cause(cause);
    }

    fn gc_time(&self) -> Nanos {
        self.dev.gc_time()
    }

    fn stats(&self) -> DeviceStats {
        self.dev.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::device::LOGICAL_PAGE;
    use storage::testdev::MemDevice;

    #[test]
    fn results_pass_through_and_spans_carry_both_clocks() {
        let tracer = Tracer::new();
        let mut plain = MemDevice::new(64);
        let mut probed = Probe::new(MemDevice::new(64), MAIN, Some(tracer.clone()));
        let page = vec![7u8; LOGICAL_PAGE];
        let mut a = vec![0u8; LOGICAL_PAGE];
        let mut b = vec![0u8; LOGICAL_PAGE];
        assert_eq!(plain.write(3, &page, 100), probed.write(3, &page, 100));
        assert_eq!(plain.flush(500), probed.flush(500));
        assert_eq!(plain.read(3, 1, &mut a, 900), probed.read(3, 1, &mut b, 900));
        assert_eq!(a, b);
        // Errors pass through too, and close their span.
        assert_eq!(plain.read(64, 1, &mut a, 0), probed.read(64, 1, &mut b, 0));
        assert_eq!(plain.stats(), probed.stats());
        let w = tracer.totals("probe.write");
        assert_eq!(w.count, 1);
        assert_eq!(w.sim_ns, plain.write(3, &page, 100).unwrap() - 100);
        assert_eq!(tracer.totals("probe.read").count, 2);
        assert_eq!(tracer.totals("probe.flush").count, 1);
    }

    #[test]
    fn untraced_probe_records_nothing() {
        let mut probed = Probe::new(MemDevice::new(8), LOG, None);
        let page = vec![1u8; LOGICAL_PAGE];
        probed.write(0, &page, 0).unwrap();
        probed.power_cut(10);
        assert!(!probed.is_powered());
        assert!(probed.reboot(20) >= 20);
        assert!(probed.is_powered());
    }
}
