//! The four raw-device workloads (`fio_hot`, `fio_hot_obs`, `fio_gc`,
//! `fio_flush_rw`): N closed-loop jobs issuing 4 KiB random I/O straight at
//! a `Volume<Probe<Ssd>>`.
//!
//! The benchmark drives the volume itself (the same loop as
//! `workloads::fio::run`, whose spec cannot mix reads and writes or report
//! per-op payloads) so that every op is checked against a shadow map:
//! `latest[lpn]` is the counter of the last write issued to the page and
//! `acked[lpn]` the last one the device has promised to keep — every write
//! on a durable-cache device, only fsynced writes on the volatile one.

use crate::common::{
    anatomy_telemetry, build_ssd, repeat_setup, run_segments, Ctx, Device, LatencySummary, Outcome,
    Tally,
};
use crate::layers::{self, DevSnap};
use crate::probe::{Probe, MAIN};
use crate::spans::traced_io;
use crate::stats::Fingerprint;
use durassd::Ssd;
use simkit::dist::{rng, Rng};
use simkit::rng::SimRng;
use simkit::{ClosedLoop, Nanos};
use storage::device::{BlockDevice, LOGICAL_PAGE};
use storage::volume::Volume;
use telemetry::Telemetry;

/// One fio-style workload definition.
#[derive(Debug, Clone, Copy)]
pub struct FioDef {
    /// Device profile.
    pub device: Device,
    /// Mount option: `false` is `nobarrier` (fsync swallowed).
    pub barriers: bool,
    /// Closed-loop jobs.
    pub jobs: usize,
    /// Target span as a percentage of the exported capacity.
    pub span_pct: u64,
    /// Percentage of ops that are writes (the rest read).
    pub write_pct: u32,
    /// Each job fsyncs after this many of its writes.
    pub fsync_every: u32,
    /// Attach telemetry + anatomy + a 64k-event trace ring in the
    /// end-to-end pass too (`fio_hot_obs`).
    pub observed: bool,
    /// Random overwrites of the span after the sequential fill, as a
    /// percentage of the span (GC preconditioning).
    pub overwrite_pct: u64,
    /// Warm-up ops at the workload's own job count.
    pub warmup_ops: u64,
    /// Upper bound (ns) of the per-op submission cost each job draws from
    /// its seeded stream; it is part of the op's latency, and the job waits
    /// the same time again before its next op. Without it a one-job stream
    /// on a durable cache is seed-independent to the nanosecond and 32 jobs
    /// behind a full cache complete on a fixed grid, and the contract
    /// refuses a time that reads the same on every run.
    pub submit_jitter_ns: u64,
    /// Times the end-to-end pass repeats the set-up (`setup_s` is the
    /// median): 3 where one set-up is well under a second, 1 where it
    /// takes many.
    pub setup_repeats: usize,
    /// Ops per segment per `--seconds`.
    pub seg_ops_per_second: u64,
    /// Paper cell, if the workload reproduces one.
    pub paper_ref: Option<(&'static str, f64)>,
}

/// A device wrapped the way every fio workload needs it.
pub struct FioState<D: BlockDevice> {
    vol: Volume<D>,
    def: FioDef,
    span: u64,
    rngs: Vec<SimRng>,
    since_sync: Vec<u32>,
    /// Per job: writes issued since its last fsync.
    pending: Vec<Vec<(u64, u64)>>,
    latest: Vec<u64>,
    acked: Vec<u64>,
    counter: u64,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
    driver: ClosedLoop,
    now: Nanos,
    op_no: u64,
    tally: Tally,
    lat_read: Vec<u64>,
    lat_write: Vec<u64>,
    recording: bool,
    ctx: Ctx,
}

fn stamp(buf: &mut [u8], counter: u64, lpn: u64) {
    buf[..8].copy_from_slice(&counter.to_le_bytes());
    buf[8..16].copy_from_slice(&lpn.to_le_bytes());
}

fn read_stamp(buf: &[u8]) -> (u64, u64) {
    (
        u64::from_le_bytes(buf[..8].try_into().expect("8 bytes")),
        u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes")),
    )
}

impl<D: BlockDevice> FioState<D> {
    /// Mount `dev` and prepare the shadow map; no I/O yet.
    pub fn new(dev: D, def: FioDef, ctx: &Ctx) -> Self {
        let vol = Volume::new(dev, def.barriers);
        let span = vol.capacity_pages() * def.span_pct / 100;
        Self {
            vol,
            def,
            span,
            rngs: (0..def.jobs).map(|j| rng(ctx.derive_seed(0xF10 + j as u64))).collect(),
            since_sync: vec![0; def.jobs],
            pending: (0..def.jobs).map(|_| Vec::with_capacity(def.fsync_every as usize)).collect(),
            latest: vec![0; span as usize],
            acked: vec![0; span as usize],
            counter: 0,
            wbuf: vec![0xA5; LOGICAL_PAGE],
            rbuf: vec![0; LOGICAL_PAGE],
            driver: ClosedLoop::new(def.jobs, 0),
            now: 0,
            op_no: 0,
            tally: Tally::default(),
            lat_read: Vec::new(),
            lat_write: Vec::new(),
            recording: false,
            ctx: ctx.clone(),
        }
    }

    /// Durable-cache, `nobarrier` semantics: a write is acknowledged for
    /// good when the device acks it.
    fn ack_on_write(&self) -> bool {
        self.def.device == Device::DuraSsd
    }

    fn write_page(&mut self, lpn: u64, now: Nanos) -> Option<Nanos> {
        self.counter += 1;
        stamp(&mut self.wbuf, self.counter, lpn);
        let (vol, wbuf) = (&mut self.vol, &self.wbuf);
        let tracer = self.ctx.tracer.as_ref();
        let done = traced_io(tracer, "volume.write", self.op_no, now, || vol.write(lpn, wbuf, now))
            .ok()?;
        self.latest[lpn as usize] = self.counter;
        if self.ack_on_write() {
            self.acked[lpn as usize] = self.counter;
        }
        Some(done)
    }

    fn fsync(&mut self, job: usize, now: Nanos) -> Option<Nanos> {
        let vol = &mut self.vol;
        let tracer = self.ctx.tracer.as_ref();
        let done = traced_io(tracer, "volume.fsync", self.op_no, now, || vol.fsync(now)).ok()?;
        for (lpn, counter) in self.pending[job].drain(..) {
            let a = &mut self.acked[lpn as usize];
            *a = (*a).max(counter);
        }
        Some(done)
    }

    /// Read `lpn` and check the payload against the shadow map: exactly
    /// the latest write before a power cut, anything from the last
    /// acknowledged to the latest issued after one.
    fn read_page(&mut self, lpn: u64, now: Nanos, after_cut: bool) -> Option<Nanos> {
        let (vol, rbuf) = (&mut self.vol, &mut self.rbuf);
        let tracer = self.ctx.tracer.as_ref();
        let done =
            traced_io(tracer, "volume.read", self.op_no, now, || vol.read(lpn, 1, rbuf, now))
                .ok()?;
        let (counter, stamped_lpn) = read_stamp(&self.rbuf);
        let (latest, acked) = (self.latest[lpn as usize], self.acked[lpn as usize]);
        let floor = if after_cut { acked } else { latest };
        let ok = if latest == 0 {
            counter == 0
        } else {
            (floor..=latest).contains(&counter) && (counter == 0 || stamped_lpn == lpn)
        };
        ok.then_some(done)
    }

    /// One closed-loop op of job `job` at `now`; returns its completion.
    fn op(&mut self, job: usize, now: Nanos) -> Nanos {
        self.op_no += 1;
        let lpn = self.rngs[job].gen_range(0..self.span);
        let is_write =
            self.def.write_pct >= 100 || self.rngs[job].gen_range(0..100u32) < self.def.write_pct;
        let issue = now + self.rngs[job].gen_range(0..=self.def.submit_jitter_ns);
        let done = if is_write {
            self.write_page(lpn, issue).and_then(|t| {
                if !self.ack_on_write() {
                    self.pending[job].push((lpn, self.counter));
                }
                self.since_sync[job] += 1;
                if self.since_sync[job] >= self.def.fsync_every {
                    self.since_sync[job] = 0;
                    self.fsync(job, t)
                } else {
                    Some(t)
                }
            })
        } else {
            self.read_page(lpn, issue, false)
        };
        self.tally.note(done.is_some());
        let done = done.unwrap_or(now);
        if self.recording {
            if is_write { &mut self.lat_write } else { &mut self.lat_read }.push(done - now);
        }
        // The same draw again as think time, so the job's next op does not
        // start on the device's completion grid.
        done + (issue - now)
    }

    /// Run `ops` closed-loop ops on the persistent driver.
    pub fn run(&mut self, ops: u64) {
        // The driver is moved out for the call so the op closure can
        // borrow the rest of the state.
        let mut driver = std::mem::replace(&mut self.driver, ClosedLoop::new(1, 0));
        let rep = driver.run(ops, |job, now| self.op(job, now));
        self.driver = driver;
        self.now = self.now.max(rep.finished_at);
    }

    /// Sequential fill of the span (64-page commands), flushed at the end
    /// so every page starts acknowledged.
    pub fn fill(&mut self) {
        const CHUNK: u64 = 64;
        let mut buf = vec![0xA5u8; CHUNK as usize * LOGICAL_PAGE];
        let mut lpn = 0;
        let mut t = self.now;
        while lpn < self.span {
            let n = CHUNK.min(self.span - lpn);
            for i in 0..n {
                self.counter += 1;
                let page = &mut buf[i as usize * LOGICAL_PAGE..][..LOGICAL_PAGE];
                stamp(page, self.counter, lpn + i);
                self.latest[(lpn + i) as usize] = self.counter;
                self.acked[(lpn + i) as usize] = self.counter;
            }
            t = self.vol.write(lpn, &buf[..n as usize * LOGICAL_PAGE], t).expect("fill write");
            lpn += n;
        }
        self.now = self.vol.device_mut().flush(t).expect("fill flush");
        self.driver = ClosedLoop::new(self.def.jobs, self.now);
    }

    /// The whole set-up after the device is built: fill, random overwrite,
    /// warm-up.
    pub fn precondition(&mut self) {
        self.fill();
        let overwrites = self.ctx.scaled(self.span * self.def.overwrite_pct / 100);
        if self.def.overwrite_pct > 0 {
            self.run(overwrites);
        }
        self.run(self.ctx.scaled(self.def.warmup_ops));
    }

    /// Start recording per-op latencies, with room for `ops` samples so the
    /// measured phase does not grow the vectors.
    pub fn start_recording(&mut self, ops: u64) {
        self.recording = true;
        let writes = ops as usize * self.def.write_pct.min(100) as usize / 100;
        self.lat_write.reserve(writes + ops as usize / 50 + 64);
        self.lat_read.reserve(ops as usize - writes + ops as usize / 50 + 64);
    }

    /// Power cut 1 ns after the last ack, reboot, first read, then verify
    /// every shadow entry. Returns the simulated recovery time.
    pub fn crash_and_verify(&mut self) -> Nanos {
        let cut = self.now + 1;
        self.vol.power_cut(cut);
        self.recording = false;
        let ready = self.vol.reboot(cut);
        let mut t = ready + self.ctx.first_op_delay();
        let mut recovery = 0;
        for lpn in 0..self.span {
            if self.latest[lpn as usize] == 0 {
                continue;
            }
            self.op_no += 1;
            let done = self.read_page(lpn, t, true);
            self.tally.note(done.is_some());
            t = done.unwrap_or(t);
            if recovery == 0 {
                recovery = t - cut;
            }
        }
        self.now = t;
        recovery
    }
}

fn build(def: FioDef, ctx: &Ctx) -> (FioState<Probe<Ssd>>, Option<Telemetry>) {
    // `fio_hot_obs` carries its instrumentation in the end-to-end pass too.
    let tel = (def.observed || ctx.traced()).then(anatomy_telemetry);
    if let (Some(tel), true) = (&tel, def.observed) {
        tel.enable_tracing(64 * 1024);
    }
    let dev = build_ssd(def.device, MAIN, ctx, tel.as_ref());
    let mut st = FioState::new(dev, def, ctx);
    if let Some(tel) = &tel {
        st.vol.attach_telemetry(tel.clone(), "fio");
    }
    st.precondition();
    (st, tel)
}

/// Run one fio workload end to end.
pub fn run(def: FioDef, ctx: &Ctx) -> Outcome {
    let ((mut st, tel), setup_s) = repeat_setup(ctx, def.setup_repeats, || build(def, ctx));
    let seg_ops = ctx.seg_ops(def.seg_ops_per_second);
    st.start_recording(seg_ops * crate::common::SEGMENTS as u64);
    if let Some(tel) = &tel {
        tel.reset();
    }
    let snap0 = DevSnap::take(st.vol.device().inner(), st.vol.fsync_count());
    let mut seg_snaps = vec![snap0];
    let start = st.now;
    let measured = run_segments(ctx, tel.as_ref(), start, |_, _| {
        st.run(seg_ops);
        seg_snaps.push(DevSnap::take(st.vol.device().inner(), st.vol.fsync_count()));
        (seg_ops, st.now)
    });
    let snap1 = *seg_snaps.last().expect("five segments ran");
    let delta = snap0.delta(&snap1);

    let mut fp = Fingerprint::default();
    let latency = LatencySummary::from_samples(&mut st.lat_read, &mut st.lat_write, &mut fp);
    delta.fingerprint(&mut fp);
    fp.add(measured.sim_ns());

    let mut out = Outcome::new(measured, latency, setup_s, fp);
    out.media_pages = delta.stats.media_pages_written;
    out.paper_ref = def.paper_ref;

    // Regime of the measured phase, per segment.
    let wafs: Vec<f64> = seg_snaps.windows(2).map(|w| w[0].delta(&w[1]).waf()).collect();
    out.notes.push(format!(
        "regime: waf per segment {:?}, gc_erases {}",
        wafs.iter().map(|w| (w * 1000.0).round() / 1000.0).collect::<Vec<_>>(),
        delta.ftl.gc_erases
    ));
    if def.overwrite_pct > 0 && ctx.full_scale() {
        let (lo, hi) = wafs.iter().fold((f64::MAX, 0f64), |(l, h), &w| (l.min(w), h.max(w)));
        if delta.ftl.gc_erases == 0 {
            out.regime_failures.push("fio_gc: no GC erase in the measured phase".into());
        }
        if hi > lo * 1.05 {
            out.regime_failures
                .push(format!("fio_gc: WAF not on a plateau across segments ({lo:.3}..{hi:.3})"));
        }
    }

    if ctx.traced() {
        let tel = tel.as_ref().expect("traced pass has telemetry");
        layers::shared_layers(&mut out, &[delta], def.jobs, 1.0, ctx, tel);
        layers::check_span_coverage(
            &mut out,
            ctx,
            &["volume.write", "volume.read", "volume.fsync"],
        );
        if def.device == Device::DuraSsd && !def.barriers {
            layers::require_no_flush_cache(&mut out);
        } else {
            layers::require_flush_cache_dominant(&mut out);
        }
    } else if let Some(tel) = &tel {
        // fio_hot_obs: the anatomy audit runs in the end-to-end pass too.
        if tel.anatomy_violations() > 0 {
            out.regime_failures.push(format!("{} anatomy violations", tel.anatomy_violations()));
        }
    }

    out.recovery_ns = st.crash_and_verify();
    out.fingerprint.add(out.recovery_ns);
    out.tally = st.tally;
    out
}

/// `fio_hot`: the paper's headline cell.
pub const FIO_HOT: FioDef = FioDef {
    device: Device::DuraSsd,
    barriers: false,
    jobs: 1,
    span_pct: 10,
    write_pct: 100,
    fsync_every: 8,
    observed: false,
    overwrite_pct: 0,
    warmup_ops: 40_000,
    submit_jitter_ns: 1_000,
    setup_repeats: 3,
    seg_ops_per_second: 36_000,
    paper_ref: Some(("Table 1, DuraSSD / NoBarrier, 4 KiB random write", 15_000.0)),
};

/// `fio_hot_obs`: the identical stream with full instrumentation attached.
pub const FIO_HOT_OBS: FioDef = FioDef { observed: true, paper_ref: None, ..FIO_HOT };

/// `fio_gc`: steady-state garbage collection.
pub const FIO_GC: FioDef = FioDef {
    device: Device::DuraSsd,
    barriers: false,
    jobs: 32,
    span_pct: 75,
    write_pct: 100,
    fsync_every: 8,
    observed: false,
    overwrite_pct: 100,
    warmup_ops: 160_000,
    submit_jitter_ns: 1_000,
    setup_repeats: 1,
    seg_ops_per_second: 10_000,
    paper_ref: None,
};

/// `fio_flush_rw`: the volatile-cache baseline with barriers on.
pub const FIO_FLUSH_RW: FioDef = FioDef {
    device: Device::SsdA,
    barriers: true,
    jobs: 32,
    span_pct: 10,
    write_pct: 70,
    fsync_every: 8,
    observed: false,
    overwrite_pct: 0,
    warmup_ops: 20_000,
    submit_jitter_ns: 1_000,
    setup_repeats: 3,
    seg_ops_per_second: 60_000,
    paper_ref: None,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Tracer;
    use storage::device::{DevResult, DeviceStats, WriteCause};
    use storage::testdev::MemDevice;

    fn ctx(seed: u64, tracer: Option<Tracer>) -> Ctx {
        Ctx { seed, seconds: 1, scale_pct: 100, tracer }
    }

    const TINY: FioDef = FioDef {
        device: Device::DuraSsd,
        jobs: 4,
        span_pct: 50,
        write_pct: 70,
        warmup_ops: 0,
        seg_ops_per_second: 0,
        ..FIO_HOT
    };

    fn tiny_run<D: BlockDevice>(dev: D, ctx: &Ctx) -> (FioState<D>, u64) {
        let mut st = FioState::new(dev, TINY, ctx);
        st.fill();
        st.start_recording(2_000);
        st.run(2_000);
        let mut fp = Fingerprint::default();
        LatencySummary::from_samples(&mut st.lat_read, &mut st.lat_write, &mut fp);
        fp.add(st.now);
        let fp = fp.value();
        (st, fp)
    }

    #[test]
    fn same_seed_reproduces_the_fingerprint_and_another_seed_changes_the_stream() {
        let (_, a) = tiny_run(MemDevice::new(512), &ctx(1, None));
        let (_, b) = tiny_run(MemDevice::new(512), &ctx(1, None));
        let (_, c) = tiny_run(MemDevice::new(512), &ctx(2, None));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let lpns = |seed| {
            let mut r = rng(ctx(seed, None).derive_seed(0xF10));
            (0..8).map(|_| r.gen_range(0..1000u64)).collect::<Vec<_>>()
        };
        assert_eq!(lpns(1), lpns(1));
        assert_ne!(lpns(1), lpns(2));
    }

    #[test]
    fn probe_does_not_change_the_simulated_output() {
        let (_, bare) = tiny_run(MemDevice::new(512), &ctx(3, None));
        let (_, untraced) = tiny_run(Probe::new(MemDevice::new(512), MAIN, None), &ctx(3, None));
        let tracer = Tracer::new();
        let tctx = ctx(3, Some(tracer.clone()));
        let (_, traced) =
            tiny_run(Probe::new(MemDevice::new(512), MAIN, Some(tracer.clone())), &tctx);
        assert_eq!(bare, untraced);
        assert_eq!(bare, traced);
        assert!(tracer.totals("probe.write").count > 0);
        assert_eq!(
            tracer.totals("probe.write").count,
            tracer.totals("volume.write").count + 256 / 64
        );
    }

    /// Acks the `n`-th write without storing it.
    struct DropOne {
        dev: MemDevice,
        countdown: u64,
    }

    impl BlockDevice for DropOne {
        fn capacity_pages(&self) -> u64 {
            self.dev.capacity_pages()
        }
        fn read(&mut self, lpn: u64, pages: u32, buf: &mut [u8], now: Nanos) -> DevResult<Nanos> {
            self.dev.read(lpn, pages, buf, now)
        }
        fn write(&mut self, lpn: u64, data: &[u8], now: Nanos) -> DevResult<Nanos> {
            self.countdown = self.countdown.wrapping_sub(1);
            if self.countdown == 0 {
                return Ok(now + 20_000);
            }
            self.dev.write(lpn, data, now)
        }
        fn flush(&mut self, now: Nanos) -> DevResult<Nanos> {
            self.dev.flush(now)
        }
        fn power_cut(&mut self, now: Nanos) {
            self.dev.power_cut(now);
        }
        fn reboot(&mut self, now: Nanos) -> Nanos {
            self.dev.reboot(now)
        }
        fn is_powered(&self) -> bool {
            self.dev.is_powered()
        }
        fn set_write_cause(&mut self, cause: WriteCause) {
            self.dev.set_write_cause(cause);
        }
        fn stats(&self) -> DeviceStats {
            self.dev.stats()
        }
    }

    #[test]
    fn verifier_catches_one_lost_acked_write() {
        // Write-only stream so the lost page is not overwritten-then-read
        // before the cut; the last write to its lpn is the dropped one.
        let def = FioDef { write_pct: 100, jobs: 1, ..TINY };
        let c = ctx(5, None);
        let mut clean = FioState::new(MemDevice::new(512), def, &c);
        clean.fill();
        clean.run(300);
        clean.crash_and_verify();
        assert_eq!(clean.tally.failed, 0);

        // Find a write whose page is not written again afterwards.
        let mut r = rng(c.derive_seed(0xF10));
        let lpns: Vec<u64> = (0..300).map(|_| r.gen_range(0..256u64)).collect();
        let victim = (0..300).rev().find(|&i| !lpns[i + 1..].contains(&lpns[i])).unwrap();
        let fill_cmds = 256 / 64;
        let dev = DropOne { dev: MemDevice::new(512), countdown: fill_cmds + victim as u64 + 1 };
        let mut lossy = FioState::new(dev, def, &c);
        lossy.fill();
        lossy.run(300);
        assert_eq!(lossy.tally.failed, 0, "nothing read the lost page before the cut");
        lossy.crash_and_verify();
        assert_eq!(lossy.tally.failed, 1);
        assert_eq!(lossy.tally.attempted, clean.tally.attempted);
    }
}
