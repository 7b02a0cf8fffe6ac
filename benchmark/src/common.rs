//! What every workload shares: the run context, the `bench-1g` device
//! profile, seed derivation, the five-segment measured phase and the
//! outcome record the report is printed from.

use crate::probe::{Probe, ProbeNames};
use crate::spans::Tracer;
use crate::stats::{self, Fingerprint};
use durassd::{Ssd, SsdConfig};
use simkit::alloc::{alloc_bytes, alloc_count};
use simkit::Nanos;
use std::time::Instant;
use telemetry::Telemetry;

/// Measured segments per workload.
pub const SEGMENTS: usize = 5;

/// Options of one run, from the command line.
#[derive(Clone)]
pub struct Ctx {
    /// `--seed`: every workload / spec seed derives from it.
    pub seed: u64,
    /// `--seconds`: multiplies the fixed per-second op constants, so op
    /// counts stay exact for a given value and the simulated clock repeats.
    pub seconds: u64,
    /// `--scale-pct`: shrinks set-up and measured op counts (smoke runs).
    pub scale_pct: u64,
    /// Traced pass: probe spans, telemetry and anatomy on.
    pub tracer: Option<Tracer>,
}

impl Ctx {
    /// Whether this is the traced pass.
    pub fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// Ops per measured segment for a workload whose constant is
    /// `per_second` ops per segment per `--seconds`.
    pub fn seg_ops(&self, per_second: u64) -> u64 {
        (per_second * self.seconds * self.scale_pct / 100).max(1)
    }

    /// A set-up op count under `--scale-pct`.
    pub fn scaled(&self, ops: u64) -> u64 {
        (ops * self.scale_pct / 100).max(1)
    }

    /// Stream `stream` of this run's seed (splitmix64 finaliser).
    pub fn derive_seed(&self, stream: u64) -> u64 {
        let mut z = self.seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Seeded submission delay (0-1 us) of the first op after the
    /// end-of-run recovery; it is part of `sim_recovery_ms`. Recovery of a
    /// checkpointed database (or of a volatile device) is otherwise the
    /// same to the nanosecond for every seed, and the contract refuses a
    /// time that reads the same on every run.
    pub fn first_op_delay(&self) -> Nanos {
        self.derive_seed(0xF157) % 1_001
    }

    /// A telemetry registry for the traced pass, or none.
    pub fn telemetry(&self) -> Option<Telemetry> {
        self.traced().then(anatomy_telemetry)
    }

    /// Whether op counts are unscaled, i.e. the regime conditions (GC
    /// plateau, >= 3 checkpoints, >= 10 samples beyond p99.9) apply.
    pub fn full_scale(&self) -> bool {
        self.scale_pct >= 100
    }
}

/// A fresh registry with latency anatomy on (`enable_anatomy(8)`).
pub fn anatomy_telemetry() -> Telemetry {
    let tel = Telemetry::new();
    tel.enable_anatomy(8);
    tel
}

/// Which paper device a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    /// Capacitor-backed cache.
    DuraSsd,
    /// Volatile cache baseline.
    SsdA,
}

/// The `bench-1g` profile: the paper-example geometry with one chip per
/// package (64 planes x 16 blocks, 1 GiB raw) exporting 84 % of the raw 4 KiB
/// pages, every timing constant untouched.
pub fn bench_1g(device: Device) -> SsdConfig {
    let mut cfg = match device {
        Device::DuraSsd => SsdConfig::durassd(16),
        Device::SsdA => SsdConfig::ssd_a(16),
    };
    cfg.geometry.chips_per_package = 1;
    cfg.logical_capacity_pages = cfg.geometry.capacity_bytes() / 4096 * 84 / 100;
    cfg.validate();
    cfg
}

/// Build, prewarm and probe one `bench-1g` device.
pub fn build_ssd(
    device: Device,
    names: ProbeNames,
    ctx: &Ctx,
    tel: Option<&Telemetry>,
) -> Probe<Ssd> {
    let mut ssd = Ssd::new(bench_1g(device));
    ssd.prewarm();
    if let Some(tel) = tel {
        ssd.attach_telemetry(tel.clone());
    }
    Probe::new(ssd, names, ctx.tracer.clone())
}

/// Run `build` `repeats` times (once when traced), keeping the last state;
/// returns it with every repetition's host seconds.
pub fn repeat_setup<S>(ctx: &Ctx, repeats: usize, mut build: impl FnMut() -> S) -> (S, Vec<f64>) {
    let repeats = if ctx.traced() { 1 } else { repeats };
    let mut times = Vec::with_capacity(repeats);
    let mut state = None;
    for _ in 0..repeats {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), times)
}

/// Host-side record of the measured phase.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Ops per segment.
    pub seg_ops: Vec<u64>,
    /// Host nanoseconds per segment.
    pub seg_host_ns: Vec<u64>,
    /// Heap allocations over the phase.
    pub allocs: u64,
    /// Heap bytes requested over the phase.
    pub alloc_bytes: u64,
    /// Simulated start of the first segment.
    pub sim_start: Nanos,
    /// Simulated end of the last segment.
    pub sim_end: Nanos,
    /// Minimum of the `ftl.free_blocks` gauge over the segment ends
    /// (traced pass only: the gauge needs telemetry).
    pub free_blocks_min: Option<i64>,
}

impl Measured {
    /// Total measured ops.
    pub fn ops(&self) -> u64 {
        self.seg_ops.iter().sum()
    }

    /// Total measured host nanoseconds.
    pub fn host_ns(&self) -> u64 {
        self.seg_host_ns.iter().sum()
    }

    /// Simulated nanoseconds of the phase.
    pub fn sim_ns(&self) -> Nanos {
        self.sim_end.saturating_sub(self.sim_start)
    }

    /// Per-segment host ops/s.
    pub fn seg_rates(&self) -> Vec<f64> {
        self.seg_ops
            .iter()
            .zip(&self.seg_host_ns)
            .map(|(&o, &ns)| o as f64 / (ns.max(1) as f64 / 1e9))
            .collect()
    }
}

/// Drive the five measured segments. `segment(i, now)` runs segment `i`
/// starting at simulated `now` and returns `(ops, sim_end)`; each is
/// bracketed by a host timer and, when traced, a `segment` span (the span
/// recorder is cleared first, so its totals start with the measured phase).
pub fn run_segments(
    ctx: &Ctx,
    tel: Option<&Telemetry>,
    sim_start: Nanos,
    mut segment: impl FnMut(usize, Nanos) -> (u64, Nanos),
) -> Measured {
    let mut m = Measured { sim_start, sim_end: sim_start, ..Measured::default() };
    if let Some(t) = &ctx.tracer {
        // Spans of the set-up are not part of any per-layer number.
        t.reset();
    }
    let (a0, b0) = (alloc_count(), alloc_bytes());
    for i in 0..SEGMENTS {
        if let Some(t) = &ctx.tracer {
            t.begin("segment", i as u64, m.sim_end);
        }
        let t0 = Instant::now();
        let (ops, end) = segment(i, m.sim_end);
        m.seg_host_ns.push(t0.elapsed().as_nanos() as u64);
        if let Some(t) = &ctx.tracer {
            t.end("segment", end);
        }
        m.seg_ops.push(ops);
        m.sim_end = end;
        if let Some(free) = tel.and_then(|t| t.gauge("ftl.free_blocks")) {
            m.free_blocks_min = Some(m.free_blocks_min.map_or(free, |f| f.min(free)));
        }
    }
    m.allocs = alloc_count() - a0;
    m.alloc_bytes = alloc_bytes() - b0;
    m
}

/// Where the latency percentiles of a workload come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyBasis {
    /// Every measured op's simulated latency, exact.
    Samples,
    /// Upper bounds from per-op-type summaries (`linkbench_rel`): each op
    /// is represented by the next reported quantile of its type at or
    /// above it.
    TypeSummaries,
}

/// Simulated latency summary of the measured phase.
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    /// Latency samples behind the percentiles.
    pub samples: usize,
    /// Median (ns).
    pub p50: u64,
    /// p99 (ns): the end-to-end tail metric.
    pub p99: u64,
    /// p99.9 (ns), printed beside it.
    pub p999: u64,
    /// Samples beyond the p99.9 rank (asserted >= 10).
    pub beyond_p999: usize,
    /// Highest percentile of the ladder with >= 10 samples beyond it.
    pub top_pct: stats::Pct,
    /// Its value (ns).
    pub top: u64,
    /// Samples beyond it.
    pub beyond_top: usize,
    /// How the percentiles were obtained.
    pub basis: LatencyBasis,
    /// Per op type (ns): `[read p50, read p99.9, write p50, write p99.9]`.
    /// A workload without reads (or whose ops all write, like a TPC-C
    /// transaction) leaves the read pair at 0.
    pub by_type: [u64; 4],
}

impl LatencySummary {
    /// Summarise the raw per-type samples (sorted in place) and fold them
    /// into `fp` in recording order.
    pub fn from_samples(reads: &mut [u64], writes: &mut [u64], fp: &mut Fingerprint) -> Self {
        fp.add_all(writes);
        fp.add_all(reads);
        reads.sort_unstable();
        writes.sort_unstable();
        let mut all: Vec<u64> = reads.iter().chain(writes.iter()).copied().collect();
        all.sort_unstable();
        let n = all.len();
        // Fewer than 100 samples (reduced-scale smoke runs only): no tail
        // percentile is supported, report the median.
        let (top_pct, beyond_top) =
            stats::highest_supported_percentile(n).unwrap_or((stats::P50, n / 2));
        Self {
            samples: n,
            p50: stats::percentile(&all, stats::P50),
            p99: stats::percentile(&all, stats::P99),
            p999: stats::percentile(&all, stats::P999),
            beyond_p999: stats::samples_beyond(n, stats::P999),
            top_pct,
            top: stats::percentile(&all, top_pct),
            beyond_top,
            basis: LatencyBasis::Samples,
            by_type: [
                stats::percentile(reads, stats::P50),
                stats::percentile(reads, stats::P999),
                stats::percentile(writes, stats::P50),
                stats::percentile(writes, stats::P999),
            ],
        }
    }
}

/// Counts behind `failed_share`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Ops and post-recovery checks attempted.
    pub attempted: u64,
    /// Ops that returned `Err`, read back a wrong payload, or acknowledged
    /// writes not readable with their last acknowledged value after the
    /// power cut.
    pub failed: u64,
}

impl Tally {
    /// Count one attempt and whether it failed.
    pub fn note(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Everything one workload run hands to the report.
pub struct Outcome {
    /// Host-side record of the measured phase.
    pub measured: Measured,
    /// Simulated latency summary.
    pub latency: LatencySummary,
    /// Media pages (4 KiB units) written over the measured phase, all
    /// devices.
    pub media_pages: u64,
    /// Simulated ns from the power cut to the first readable op.
    pub recovery_ns: Nanos,
    /// Host seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Correctness tally.
    pub tally: Tally,
    /// FNV-1a over every simulated counter and latency sample.
    pub fingerprint: Fingerprint,
    /// Paper cell this workload reproduces: `(reference, paper ops/s)`.
    pub paper_ref: Option<(&'static str, f64)>,
    /// Per-layer metrics (`name`, value); filled in the traced pass.
    pub layers: Vec<(&'static str, f64)>,
    /// Regime checks and other human-readable findings.
    pub notes: Vec<String>,
    /// Violated regime conditions (non-empty fails the run).
    pub regime_failures: Vec<String>,
}

impl Outcome {
    /// An outcome with the measured phase recorded and everything the
    /// end of the run fills in (media pages, recovery, tally, layers) empty.
    pub fn new(
        measured: Measured,
        latency: LatencySummary,
        setup_s: Vec<f64>,
        fingerprint: Fingerprint,
    ) -> Self {
        Self {
            measured,
            latency,
            media_pages: 0,
            recovery_ns: 0,
            setup_s,
            tally: Tally::default(),
            fingerprint,
            paper_ref: None,
            layers: Vec::new(),
            notes: Vec::new(),
            regime_failures: Vec::new(),
        }
    }
}
