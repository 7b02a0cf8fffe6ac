//! Latency anatomy: per-operation critical-path attribution.
//!
//! Aggregate histograms answer "where did the run wait"; they cannot answer
//! "why was *this* p999 commit slow". This module is the per-operation
//! answer, and the only latency taxonomy in the repo: every host operation
//! opens a **frame**, layers underneath charge causally attributed **segments**
//! (queueing wait vs service time per resource) into every open frame, and
//! closing the frame yields an [`OpBreakdown`] that satisfies a hard
//! **conservation identity**:
//!
//! ```text
//!   sum(segments) == wall latency          (exactly, in virtual nanoseconds)
//! ```
//!
//! The identity holds by construction: any nanosecond no layer claimed is
//! swept into the [`SegKind::Host`] remainder when the frame closes, and a
//! frame whose claimed segments *exceed* its wall time (an attribution bug —
//! some layer double-charged or charged outside its causal window) trips a
//! `violations` counter that tests and the simtest fuzzer assert stays zero.
//! This mirrors the write-provenance byte conservation audit in
//! `Ssd::check_invariants`: bytes there, nanoseconds here.
//!
//! Frames nest (an `engine.commit` frame encloses the `dev.log.write` frames
//! of the WAL appends it forced), and a segment charge lands in **every**
//! open frame: the charged window is inside the child's wall and the child's
//! wall is inside the parent's, so the parent's identity still holds — its
//! own `host` remainder simply shrinks. Only the innermost frame's remainder
//! is *computed*; parents absorb their children's totals transparently.
//!
//! The one exception is **background work** started inside a frame that does
//! not wait for it (the WAL firing a queued group flush retroactively, at a
//! virtual time before the enclosing op even began): its charged window is
//! *not* inside the open frames' walls, so charging them would break their
//! identity. [`Anatomy::suspend`] raises a floor below which frames are not
//! charged until [`Anatomy::resume`]; frames the background work opens
//! itself sit above the floor and conserve as usual.
//!
//! On top of the per-op breakdowns sit two aggregate views:
//!
//! * per-segment-kind latency **histograms** (`seg.<label>`) recorded into
//!   the owning registry on every charge, so a report can show the full
//!   distribution of e.g. `flush_cache` segment durations, and
//! * a bounded **tail-outlier capturer** ([`OutlierCap`]): the top-K slowest
//!   operations per op name, each with its full segment breakdown and
//!   trace-ID, exported as JSON next to the Chrome trace so a tail sample in
//!   a report is one Perfetto click away from its causal decomposition.
//!
//! Everything here is opt-in (`enable_anatomy`): when disabled, the frame
//! and segment hooks return before any allocation or arithmetic, preserving
//! the zero-cost steady state of domains that never asked for anatomy.

use simkit::json::Writer;
use simkit::Nanos;
use std::collections::BTreeMap;

use crate::trace::TraceId;

/// Number of segment kinds (length of [`SegKind::ALL`]).
pub const N_SEG: usize = 12;

/// Causally attributed latency segment kinds — the anatomy taxonomy.
///
/// Each kind is either *queueing wait* (time a command sat behind other work
/// on a shared resource) or *service* (time the resource actively spent on
/// this command). The split is explicit in the naming: `ChannelWait` /
/// `NcqWait` / `CacheAdmit` / `GcWait` / `HddDestage` are waits,
/// `MediaRead` / `MediaProgram` / `Xfer` / `MapPersist` are service,
/// `WalFsync` / `FlushCache` are host-visible durability waits, and `Host`
/// is fixed per-op overhead plus any unattributed remainder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SegKind {
    /// Wait for a NAND channel/plane to free up (queueing behind other
    /// media commands, including programs issued by background drain).
    ChannelWait,
    /// Wait for the host interface (SATA NCQ / dispatch pipe) to accept
    /// the command.
    NcqWait,
    /// Wait for a free write-cache slot when the cache is full (admission
    /// stall while the drain engine frees slots).
    CacheAdmit,
    /// Wait caused by FTL garbage collection preempting the command.
    GcWait,
    /// Wait for a WAL buffer flush + fsync at commit time.
    WalFsync,
    /// Persisting the logical-to-physical mapping journal.
    MapPersist,
    /// Wait for the HDD cache to destage dirty sectors (admission or
    /// explicit flush destage).
    HddDestage,
    /// NAND read service time (cell read + bus transfer).
    MediaRead,
    /// NAND program service time (bus transfer + cell program).
    MediaProgram,
    /// Host-visible FLUSH CACHE / write-barrier drain time.
    FlushCache,
    /// Host-interface data transfer service time.
    Xfer,
    /// Fixed host/firmware overhead plus unattributed remainder (computed
    /// at frame close; never charged explicitly by layers).
    Host,
}

impl SegKind {
    /// All kinds, in display order.
    pub const ALL: [SegKind; N_SEG] = [
        SegKind::ChannelWait,
        SegKind::NcqWait,
        SegKind::CacheAdmit,
        SegKind::GcWait,
        SegKind::WalFsync,
        SegKind::MapPersist,
        SegKind::HddDestage,
        SegKind::MediaRead,
        SegKind::MediaProgram,
        SegKind::FlushCache,
        SegKind::Xfer,
        SegKind::Host,
    ];

    /// Stable snake_case label used in JSON and reports.
    pub fn label(self) -> &'static str {
        match self {
            SegKind::ChannelWait => "channel_wait",
            SegKind::NcqWait => "ncq_wait",
            SegKind::CacheAdmit => "cache_admit",
            SegKind::GcWait => "gc_wait",
            SegKind::WalFsync => "wal_fsync",
            SegKind::MapPersist => "map_persist",
            SegKind::HddDestage => "hdd_destage",
            SegKind::MediaRead => "media_read",
            SegKind::MediaProgram => "media_program",
            SegKind::FlushCache => "flush_cache",
            SegKind::Xfer => "xfer",
            SegKind::Host => "host",
        }
    }

    /// Name of the per-kind segment-duration histogram in the registry.
    pub fn hist_name(self) -> &'static str {
        match self {
            SegKind::ChannelWait => "seg.channel_wait",
            SegKind::NcqWait => "seg.ncq_wait",
            SegKind::CacheAdmit => "seg.cache_admit",
            SegKind::GcWait => "seg.gc_wait",
            SegKind::WalFsync => "seg.wal_fsync",
            SegKind::MapPersist => "seg.map_persist",
            SegKind::HddDestage => "seg.hdd_destage",
            SegKind::MediaRead => "seg.media_read",
            SegKind::MediaProgram => "seg.media_program",
            SegKind::FlushCache => "seg.flush_cache",
            SegKind::Xfer => "seg.xfer",
            SegKind::Host => "seg.host",
        }
    }

    /// Dense index into a per-kind array (matches [`SegKind::ALL`] order).
    pub fn index(self) -> usize {
        match self {
            SegKind::ChannelWait => 0,
            SegKind::NcqWait => 1,
            SegKind::CacheAdmit => 2,
            SegKind::GcWait => 3,
            SegKind::WalFsync => 4,
            SegKind::MapPersist => 5,
            SegKind::HddDestage => 6,
            SegKind::MediaRead => 7,
            SegKind::MediaProgram => 8,
            SegKind::FlushCache => 9,
            SegKind::Xfer => 10,
            SegKind::Host => 11,
        }
    }
}

/// An open per-operation attribution frame (one entry of the frame stack).
/// It does not own its name: the scope that closes it hands the name to
/// [`Anatomy::end`], so opening a frame allocates nothing.
#[derive(Debug, Clone)]
struct Frame {
    start: Nanos,
    trace: TraceId,
    segs: [Nanos; N_SEG],
}

/// The closed, conserved breakdown of one host operation: wall latency and
/// its exact decomposition into attributed segments.
///
/// Invariant (checked by [`OpBreakdown::is_conserved`], enforced at frame
/// close): `segments().sum() == wall`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpBreakdown {
    /// Operation name (histogram name of the op, e.g. `engine.commit`).
    pub name: String,
    /// Virtual time the operation started.
    pub start: Nanos,
    /// End-to-end virtual-time latency.
    pub wall: Nanos,
    /// Trace-ID of the op scope (0 when tracing was disabled), linking the
    /// breakdown to its span in the Chrome trace.
    pub trace: TraceId,
    /// Attributed nanoseconds per [`SegKind`], indexed by `SegKind::index`.
    pub segs: [Nanos; N_SEG],
}

impl OpBreakdown {
    /// Attributed time of one segment kind.
    pub fn seg(&self, kind: SegKind) -> Nanos {
        self.segs[kind.index()]
    }

    /// Sum over all segments (equals `wall` when conserved).
    pub fn total(&self) -> Nanos {
        self.segs.iter().sum()
    }

    /// The conservation identity: segments sum exactly to wall latency.
    pub fn is_conserved(&self) -> bool {
        self.total() == self.wall
    }

    /// Fraction of wall latency attributed to `kind` (0.0 when wall is 0).
    pub fn frac(&self, kind: SegKind) -> f64 {
        if self.wall == 0 {
            0.0
        } else {
            self.seg(kind) as f64 / self.wall as f64
        }
    }

    /// JSON object: name, trace, start, wall and the non-zero segments.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        self.write_json(&mut w);
        w.finish()
    }

    fn write_json(&self, w: &mut Writer) {
        w.obj().key("name").str(&self.name).key("trace").num(self.trace);
        w.key("start").num(self.start).key("wall").num(self.wall);
        self.write_segments(w.key("segments"));
        w.end();
    }

    /// The non-zero segments as a `{"<label>":ns,...}` object.
    pub fn write_segments(&self, w: &mut Writer) {
        w.obj();
        for kind in SegKind::ALL {
            let ns = self.seg(kind);
            if ns != 0 {
                w.key(kind.label()).num(ns);
            }
        }
        w.end();
    }
}

/// Bounded tail-outlier capture: the top-K slowest operations per op name,
/// each with its full segment breakdown. Memory is bounded at
/// `K × distinct op names` breakdowns regardless of run length.
#[derive(Debug, Clone)]
pub struct OutlierCap {
    k: usize,
    per_op: BTreeMap<String, Vec<OpBreakdown>>,
}

impl OutlierCap {
    /// Capture the `k` slowest ops per name.
    pub fn new(k: usize) -> Self {
        Self { k: k.max(1), per_op: BTreeMap::new() }
    }

    /// Capacity per op name.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Offer a closed breakdown; retained iff it ranks in the top-K wall
    /// latencies for its op name. The per-name list stays sorted slowest
    /// first, so insertion is a short shift in a K-length vector.
    pub fn offer(&mut self, bd: &OpBreakdown) {
        if let Some(v) = self.per_op.get_mut(&bd.name) {
            if v.len() >= self.k && bd.wall <= v.last().map_or(0, |b| b.wall) {
                return; // fast path: slower than every retained outlier
            }
            let pos = v.partition_point(|b| b.wall >= bd.wall);
            v.insert(pos, bd.clone());
            v.truncate(self.k);
        } else {
            self.per_op.insert(bd.name.clone(), vec![bd.clone()]);
        }
    }

    /// The retained outliers for one op name, slowest first.
    pub fn for_op(&self, name: &str) -> &[OpBreakdown] {
        self.per_op.get(name).map_or(&[], |v| v.as_slice())
    }

    /// Drop all retained outliers (capacity unchanged).
    pub fn clear(&mut self) {
        self.per_op.clear();
    }

    /// JSON document: `{"k":K,"ops":{"<name>":[<breakdown>...]}}`, written
    /// next to the Chrome trace by bench bins.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.obj().key("k").num(self.k).key("ops").obj();
        for (name, v) in &self.per_op {
            w.key(name).arr();
            for bd in v {
                bd.write_json(&mut w);
            }
            w.end();
        }
        w.end().end();
        w.finish()
    }
}

/// Per-registry anatomy state: the open-frame stack, the most recent closed
/// breakdown (for audits), the conservation-violation counter, and the
/// tail-outlier capturer.
#[derive(Debug, Clone)]
pub struct Anatomy {
    frames: Vec<Frame>,
    /// Frames below this index are not charged (see [`Anatomy::suspend`]).
    floor: usize,
    last: Option<OpBreakdown>,
    violations: u64,
    outliers: OutlierCap,
}

impl Anatomy {
    /// Fresh anatomy state capturing the `k` slowest ops per name.
    pub fn new(k: usize) -> Self {
        Self {
            frames: Vec::new(),
            floor: 0,
            last: None,
            violations: 0,
            outliers: OutlierCap::new(k),
        }
    }

    /// Open a frame at `ts` under trace-ID `trace`.
    pub fn begin(&mut self, ts: Nanos, trace: TraceId) {
        self.frames.push(Frame { start: ts, trace, segs: [0; N_SEG] });
    }

    /// Charge `ns` of `kind` into every open frame above the suspension
    /// floor. Returns `true` if at least one frame was charged (the caller
    /// then records the per-kind histogram sample).
    pub fn charge(&mut self, kind: SegKind, ns: Nanos) -> bool {
        let floor = self.floor.min(self.frames.len());
        let charged = &mut self.frames[floor..];
        for f in charged.iter_mut() {
            f.segs[kind.index()] += ns;
        }
        !charged.is_empty()
    }

    /// Stop charging the frames that are open now (background work they do
    /// not wait for is about to run). Returns the previous floor, to be
    /// handed back to [`Anatomy::resume`].
    pub fn suspend(&mut self) -> usize {
        std::mem::replace(&mut self.floor, self.frames.len())
    }

    /// Restore the floor returned by the matching [`Anatomy::suspend`].
    pub fn resume(&mut self, floor: usize) {
        self.floor = floor;
    }

    /// Close the innermost frame — the op `name`, opened at `start` — at
    /// `ts`: compute wall, audit the conservation identity, sweep the
    /// unattributed remainder into [`SegKind::Host`], and offer the
    /// breakdown to the outlier capturer. Returns the host remainder (for
    /// histogram recording), or `None` if no frame was open.
    pub fn end(&mut self, name: &str, start: Nanos, ts: Nanos) -> Option<Nanos> {
        let mut f = self.frames.pop()?;
        debug_assert_eq!(f.start, start, "anatomy frame stack mismatch closing {name}");
        let wall = ts.saturating_sub(f.start);
        let covered: Nanos = f.segs.iter().sum();
        if covered > wall {
            // Over-attribution: some layer charged outside its causal
            // window. Count it; the breakdown keeps the raw segments so
            // the bug is visible in the outlier export.
            self.violations += 1;
        }
        let host = wall.saturating_sub(covered);
        f.segs[SegKind::Host.index()] += host;
        // `last` keeps its name's allocation from op to op; the capturer
        // clones only a breakdown it retains.
        let bd = self.last.get_or_insert_with(OpBreakdown::default);
        bd.name.clear();
        bd.name.push_str(name);
        (bd.start, bd.wall, bd.trace, bd.segs) = (f.start, wall, f.trace, f.segs);
        self.outliers.offer(bd);
        Some(host)
    }

    /// Number of frames currently open.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Ops whose claimed segments exceeded their wall time (must be 0).
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// The most recently closed breakdown, if any.
    pub fn last(&self) -> Option<&OpBreakdown> {
        self.last.as_ref()
    }

    /// The tail-outlier capturer.
    pub fn outliers(&self) -> &OutlierCap {
        &self.outliers
    }

    /// Drop all recorded state (open frames, last breakdown, violation
    /// count, outliers); anatomy stays enabled.
    pub fn clear(&mut self) {
        self.frames.clear();
        self.floor = 0;
        self.last = None;
        self.violations = 0;
        self.outliers.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bd(name: &str, wall: Nanos) -> OpBreakdown {
        let mut segs = [0; N_SEG];
        segs[SegKind::Host.index()] = wall;
        OpBreakdown { name: name.to_string(), start: 0, wall, trace: 0, segs }
    }

    #[test]
    fn taxonomy_is_dense_and_stable() {
        assert_eq!(SegKind::ALL.len(), N_SEG);
        for (i, k) in SegKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i, "index must match ALL order");
            assert_eq!(k.hist_name(), format!("seg.{}", k.label()));
        }
    }

    #[test]
    fn frame_close_sweeps_remainder_and_conserves() {
        let mut a = Anatomy::new(4);
        a.begin(100, 7);
        assert!(a.charge(SegKind::MediaRead, 30));
        assert!(a.charge(SegKind::NcqWait, 20));
        let host = a.end("op", 100, 180).unwrap();
        assert_eq!(host, 30, "180-100 wall minus 50 attributed");
        let b = a.last().unwrap();
        assert_eq!(b.wall, 80);
        assert_eq!(b.trace, 7);
        assert_eq!(b.seg(SegKind::MediaRead), 30);
        assert_eq!(b.seg(SegKind::Host), 30);
        assert!(b.is_conserved());
        assert_eq!(a.violations(), 0);
    }

    #[test]
    fn nested_frames_each_conserve() {
        let mut a = Anatomy::new(4);
        a.begin(0, 1);
        a.charge(SegKind::WalFsync, 10);
        a.begin(50, 2);
        a.charge(SegKind::MediaProgram, 25); // lands in both frames
        a.end("inner", 50, 80);
        let inner = a.last().unwrap().clone();
        a.end("outer", 0, 200);
        let outer = a.last().unwrap();
        assert_eq!(inner.wall, 30);
        assert_eq!(inner.seg(SegKind::MediaProgram), 25);
        assert_eq!(inner.seg(SegKind::Host), 5);
        assert!(inner.is_conserved());
        assert_eq!(outer.wall, 200);
        assert_eq!(outer.seg(SegKind::MediaProgram), 25);
        assert_eq!(outer.seg(SegKind::WalFsync), 10);
        assert_eq!(outer.seg(SegKind::Host), 165);
        assert!(outer.is_conserved());
        assert_eq!(a.violations(), 0);
        assert_eq!(a.depth(), 0);
    }

    #[test]
    fn over_attribution_counts_a_violation() {
        let mut a = Anatomy::new(4);
        a.begin(0, 0);
        a.charge(SegKind::Xfer, 500);
        a.end("op", 0, 100); // wall 100 < claimed 500
        assert_eq!(a.violations(), 1);
        let b = a.last().unwrap();
        assert_eq!(b.seg(SegKind::Host), 0, "no negative remainder");
        assert!(!b.is_conserved());
    }

    #[test]
    fn charge_outside_any_frame_is_dropped() {
        let mut a = Anatomy::new(4);
        assert!(!a.charge(SegKind::MediaRead, 99));
        a.begin(0, 0);
        a.end("op", 0, 10);
        assert_eq!(a.last().unwrap().seg(SegKind::MediaRead), 0);
    }

    #[test]
    fn suspended_frames_are_not_charged() {
        let mut a = Anatomy::new(4);
        a.begin(1_000, 0);
        let floor = a.suspend();
        assert!(!a.charge(SegKind::FlushCache, 900), "no frame above the floor");
        // A background command that began before the op did.
        a.begin(100, 0);
        assert!(a.charge(SegKind::FlushCache, 900));
        a.end("bg", 100, 1_000);
        assert!(a.last().unwrap().is_conserved());
        a.resume(floor);
        assert!(a.charge(SegKind::Xfer, 5));
        a.end("op", 1_000, 1_010);
        let op = a.last().unwrap();
        assert_eq!(op.seg(SegKind::FlushCache), 0, "background time is not the op's");
        assert_eq!(op.seg(SegKind::Xfer), 5);
        assert!(op.is_conserved());
        assert_eq!(a.violations(), 0);
    }

    #[test]
    fn outlier_cap_keeps_top_k_sorted() {
        let mut cap = OutlierCap::new(3);
        for wall in [50, 10, 99, 5, 70, 99, 20] {
            cap.offer(&bd("engine.commit", wall));
        }
        cap.offer(&bd("doc.set", 1));
        let top: Vec<Nanos> = cap.for_op("engine.commit").iter().map(|b| b.wall).collect();
        assert_eq!(top, vec![99, 99, 70], "slowest first, duplicates kept");
        assert_eq!(cap.for_op("doc.set").len(), 1);
        assert_eq!(cap.for_op("missing").len(), 0);
    }

    #[test]
    fn outlier_json_shape() {
        let mut cap = OutlierCap::new(2);
        let mut b = bd("doc.set", 40);
        b.trace = 9;
        b.start = 5;
        b.segs = [0; N_SEG];
        b.segs[SegKind::FlushCache.index()] = 30;
        b.segs[SegKind::Host.index()] = 10;
        cap.offer(&b);
        let j = cap.to_json();
        assert_eq!(
            j,
            "{\"k\":2,\"ops\":{\"doc.set\":[{\"name\":\"doc.set\",\"trace\":9,\
             \"start\":5,\"wall\":40,\"segments\":{\"flush_cache\":30,\"host\":10}}]}}"
        );
    }

    #[test]
    fn breakdown_frac_and_total() {
        let mut b = bd("op", 200);
        b.segs = [0; N_SEG];
        b.segs[SegKind::FlushCache.index()] = 150;
        b.segs[SegKind::Host.index()] = 50;
        assert_eq!(b.total(), 200);
        assert!((b.frac(SegKind::FlushCache) - 0.75).abs() < 1e-12);
        let z = OpBreakdown { name: "z".into(), start: 0, wall: 0, trace: 0, segs: [0; N_SEG] };
        assert_eq!(z.frac(SegKind::Host), 0.0);
    }

    #[test]
    fn clear_resets_state_but_keeps_capacity() {
        let mut a = Anatomy::new(2);
        a.begin(0, 0);
        a.charge(SegKind::Xfer, 10);
        a.end("op", 0, 5); // violation
        a.begin(0, 0);
        a.clear();
        assert_eq!(a.depth(), 0);
        assert_eq!(a.violations(), 0);
        assert!(a.last().is_none());
        assert!(a.outliers().for_op("op").is_empty());
        assert_eq!(a.outliers().k(), 2);
    }
}
