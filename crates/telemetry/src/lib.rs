//! Per-layer latency telemetry for the DuraSSD reproduction.
//!
//! The paper's central claims (Tables 1–5, Figs 5–6) are about *where the
//! host waits*: FLUSH CACHE latency, fsync tail latency, and commit-time
//! variance between a durable-cache SSD and volatile-cache baselines. Coarse
//! cumulative counters cannot express a p99 or attribute a wait to a layer,
//! so this crate provides the measurement substrate used by every layer of
//! the stack:
//!
//! * [`Histogram`] — HDR-style log-bucketed latency histogram (power-of-two
//!   buckets with 16 linear sub-buckets each) with p50/p90/p99/p999/max.
//! * [`Telemetry`] — a cheaply clonable handle (the simulation is
//!   single-threaded virtual time, so `Rc<RefCell<_>>`) to one domain's
//!   named histograms and gauges, plus — each opt-in — the event trace
//!   ring, the gauge sampler and the latency anatomy.
//! * [`Scope`] — the one way to bracket an operation: a guard that owns the
//!   trace `Begin`/`End` pair, the anatomy frame and the latency histogram
//!   sample of one op, and closes all three on every exit path.
//! * [`SegKind`] / [`OpBreakdown`] — the latency taxonomy: each host op
//!   carries a segment breakdown (queueing wait vs service per resource)
//!   that sums exactly to its wall latency, plus per-kind `seg.*`
//!   histograms and a bounded tail-outlier capturer (see the anatomy module
//!   docs).
//! * JSON export ([`Telemetry::to_json`]) on the workspace's one writer
//!   ([`simkit::json`]); histograms carry their raw buckets, so the document
//!   is lossless.
//!
//! # Op scopes
//!
//! [`Telemetry::op`] opens a *host operation* (an engine or docstore call):
//! it allocates a fresh [`TraceId`] that every event emitted underneath
//! inherits, emits `Begin`, and opens an anatomy frame. [`Telemetry::span`]
//! brackets an inner step (a WAL flush, a cache drain) with a `Begin`/`End`
//! pair under the current trace-ID; [`Telemetry::framed_span`] additionally
//! opens a frame (one device command at the volume), and
//! [`Telemetry::frame`] opens only the frame. [`Scope::close`] ends the
//! scope at the operation's virtual completion time and records
//! `end - start` into the histogram named like the scope; [`Scope::end`]
//! does the same without the histogram sample, for spans whose metric has
//! another name or none. A scope that is merely dropped — an early `?`
//! return — ends at its opening time with no sample, so an error path can
//! neither leak a frame nor leave a `Begin` unmatched.

use simkit::json::Writer;
use simkit::Nanos;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

mod anatomy;
mod hist;
mod trace;

pub use anatomy::{Anatomy, OpBreakdown, OutlierCap, SegKind, N_SEG};
pub use hist::Histogram;
pub use simkit::json::{parse as parse_json, JsonValue};
pub use trace::{
    validate_chrome_json, Event, Phase, Sampler, Series, TraceBuf, TraceCheck, TraceId,
    CHROME_EVENT_FIELDS,
};

/// The backing store of one telemetry domain. Plain data: every operation
/// on it is a method of [`Telemetry`].
#[derive(Debug, Default)]
struct State {
    hists: BTreeMap<String, Histogram>,
    gauges: BTreeMap<String, i64>,
    trace: Option<TraceBuf>,
    trace_stack: Vec<TraceId>,
    next_trace: u64,
    sampler: Option<Sampler>,
    anatomy: Option<Anatomy>,
}

/// Record one sample into a named histogram. Steady-state recording is
/// allocation-free: the name is only turned into an owned `String` the
/// first time it is seen.
fn record_into(hists: &mut BTreeMap<String, Histogram>, name: &str, ns: Nanos) {
    if let Some(h) = hists.get_mut(name) {
        h.record(ns);
    } else {
        hists.entry(name.to_string()).or_default().record(ns);
    }
}

/// Cheaply clonable handle to one telemetry domain. The simulation runs on
/// a single thread in virtual time, so interior mutability via `RefCell` is
/// sufficient (and keeps recording on the hot path allocation-free for
/// existing names).
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Rc<RefCell<State>>,
}

impl Telemetry {
    /// Fresh handle with an empty domain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one latency sample into the named histogram.
    pub fn record(&self, name: &str, ns: Nanos) {
        record_into(&mut self.inner.borrow_mut().hists, name, ns);
    }

    /// Set a named gauge (allocation-free after the first sample).
    pub fn set_gauge(&self, name: &str, value: i64) {
        let s = &mut *self.inner.borrow_mut();
        if let Some(g) = s.gauges.get_mut(name) {
            *g = value;
        } else {
            s.gauges.insert(name.to_string(), value);
        }
    }

    /// Clone of the named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner.borrow().hists.get(name).cloned()
    }

    /// Named gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.inner.borrow().gauges.get(name).copied()
    }

    /// Open a host-operation scope: allocates a fresh [`TraceId`] (every
    /// event emitted underneath — WAL, volume, device, NAND — inherits it),
    /// emits `Begin`, and opens an anatomy frame. Closing it also ticks the
    /// gauge sampler, so bench loops never need to.
    pub fn op<'a>(&self, cat: &'a str, name: &'a str, now: Nanos) -> Scope<'a> {
        self.open(Some(cat), name, now, true, true)
    }

    /// Open an inner span: a `Begin`/`End` pair under the current trace-ID.
    pub fn span<'a>(&self, cat: &'a str, name: &'a str, now: Nanos) -> Scope<'a> {
        self.open(Some(cat), name, now, false, false)
    }

    /// Open a span that is also an anatomy frame (one device command): the
    /// device's segment charges land in the command's own breakdown and,
    /// because frames nest, in whatever host op encloses it.
    pub fn framed_span<'a>(&self, cat: &'a str, name: &'a str, now: Nanos) -> Scope<'a> {
        self.open(Some(cat), name, now, false, true)
    }

    /// Open an anatomy frame that emits no trace events.
    pub fn frame<'a>(&self, name: &'a str, now: Nanos) -> Scope<'a> {
        self.open(None, name, now, false, true)
    }

    fn open<'a>(
        &self,
        cat: Option<&'a str>,
        name: &'a str,
        now: Nanos,
        fresh: bool,
        framed: bool,
    ) -> Scope<'a> {
        let s = &mut *self.inner.borrow_mut();
        if let (Some(t), Some(cat)) = (s.trace.as_mut(), cat) {
            if fresh {
                s.next_trace += 1;
                s.trace_stack.push(s.next_trace);
            }
            t.push(now, *s.trace_stack.last().unwrap_or(&0), Phase::Begin, cat, name);
        }
        if framed {
            if let Some(a) = s.anatomy.as_mut() {
                a.begin(now, *s.trace_stack.last().unwrap_or(&0));
            }
        }
        Scope { tel: self.clone(), cat, name, start: now, fresh, framed, open: true }
    }

    /// Emit a completed span (`Begin` at `start`, `End` at `end`) under the
    /// current trace-ID: a media operation whose completion time is already
    /// known when it is reported.
    pub fn complete(&self, cat: &str, name: &str, start: Nanos, end: Nanos) {
        let s = &mut *self.inner.borrow_mut();
        let Some(t) = s.trace.as_mut() else { return };
        let id = *s.trace_stack.last().unwrap_or(&0);
        t.push(start, id, Phase::Begin, cat, name);
        t.push(end, id, Phase::End, cat, name);
    }

    /// Record an `Instant` event under the current trace-ID. No-op when
    /// tracing is disabled — returns before any name interning happens.
    pub fn trace_instant(&self, cat: &str, name: &str, ts: Nanos) {
        let s = &mut *self.inner.borrow_mut();
        let Some(t) = s.trace.as_mut() else { return };
        t.push(ts, *s.trace_stack.last().unwrap_or(&0), Phase::Instant, cat, name);
    }

    /// Run background work — work no enclosing op waits for, such as a
    /// queued group flush fired retroactively — without charging the frames
    /// that are open now. Frames opened while the guard lives (the device
    /// commands of the background work itself) are charged as usual.
    pub fn background(&self) -> Background {
        let floor = self.inner.borrow_mut().anatomy.as_mut().map_or(0, |a| a.suspend());
        Background { tel: self.clone(), floor }
    }

    /// Start recording trace events into a ring of `capacity` events.
    pub fn enable_tracing(&self, capacity: usize) {
        self.inner.borrow_mut().trace = Some(TraceBuf::new(capacity));
    }

    /// Export the trace ring as Chrome trace-event JSON, if tracing is
    /// enabled.
    pub fn trace_chrome_json(&self) -> Option<String> {
        self.inner.borrow().trace.as_ref().map(|t| t.to_chrome_json())
    }

    /// `(recorded, dropped)` event totals of the trace ring, if enabled.
    pub fn trace_counts(&self) -> Option<(u64, u64)> {
        self.inner.borrow().trace.as_ref().map(|t| (t.recorded(), t.dropped()))
    }

    /// Start sampling all gauges every `cadence` virtual nanoseconds. The
    /// sampler is ticked whenever an [`Telemetry::op`] scope closes.
    pub fn enable_sampling(&self, cadence: Nanos) {
        self.inner.borrow_mut().sampler = Some(Sampler::new(cadence));
    }

    /// Take the final sample at end-of-run (always fires; see
    /// [`Sampler::finish`]).
    pub fn finish_sampling(&self, now: Nanos) {
        let s = &mut *self.inner.borrow_mut();
        if let Some(sm) = s.sampler.as_mut() {
            sm.finish(now, &s.gauges);
        }
    }

    /// Export the sampled gauge series as CSV, if sampling is enabled.
    pub fn series_csv(&self) -> Option<String> {
        self.inner.borrow().sampler.as_ref().map(|s| s.to_csv())
    }

    /// Start per-operation latency-anatomy tracking, capturing the `k`
    /// slowest ops per name in the tail-outlier capturer. Until this is
    /// called, every frame and segment hook is a free no-op.
    pub fn enable_anatomy(&self, k: usize) {
        self.inner.borrow_mut().anatomy = Some(Anatomy::new(k));
    }

    /// Charge `ns` nanoseconds of causally attributed segment `kind` into
    /// every open frame and the per-kind `seg.<label>` histogram. A charge
    /// with no open frame (background work outside any host op) is
    /// dropped; zero-length charges are free no-ops.
    pub fn seg(&self, kind: SegKind, ns: Nanos) {
        if ns == 0 {
            return;
        }
        let s = &mut *self.inner.borrow_mut();
        if s.anatomy.as_mut().is_some_and(|a| a.charge(kind, ns)) {
            record_into(&mut s.hists, kind.hist_name(), ns);
        }
    }

    /// Ops whose claimed segments exceeded wall latency (must stay 0; the
    /// anatomy conservation audit).
    pub fn anatomy_violations(&self) -> u64 {
        self.inner.borrow().anatomy.as_ref().map_or(0, |a| a.violations())
    }

    /// Clone of the most recently closed per-op breakdown, if anatomy is
    /// enabled and at least one frame has closed.
    pub fn last_breakdown(&self) -> Option<OpBreakdown> {
        self.inner.borrow().anatomy.as_ref().and_then(|a| a.last()).cloned()
    }

    /// Number of attribution frames currently open.
    pub fn frame_depth(&self) -> usize {
        self.inner.borrow().anatomy.as_ref().map_or(0, |a| a.depth())
    }

    /// Retained tail outliers for one op name, slowest first.
    pub fn outliers_for(&self, name: &str) -> Vec<OpBreakdown> {
        let s = self.inner.borrow();
        s.anatomy.as_ref().map_or_else(Vec::new, |a| a.outliers().for_op(name).to_vec())
    }

    /// JSON export of the tail-outlier capturer (written next to the
    /// Chrome trace), if anatomy is enabled.
    pub fn outliers_json(&self) -> Option<String> {
        self.inner.borrow().anatomy.as_ref().map(|a| a.outliers().to_json())
    }

    /// Drop all recorded data (tracing, sampling and anatomy stay enabled
    /// but their buffers empty).
    pub fn reset(&self) {
        let s = &mut *self.inner.borrow_mut();
        s.hists.clear();
        s.gauges.clear();
        if let Some(t) = &mut s.trace {
            t.clear();
        }
        if let Some(sm) = &mut s.sampler {
            sm.clear();
        }
        if let Some(a) = &mut s.anatomy {
            a.clear();
        }
    }

    /// Serialise the domain to a JSON object. Histograms are exported with
    /// their raw (index, count) bucket list so the export is lossless.
    /// Anatomy outliers and the trace ring export separately.
    pub fn to_json(&self) -> String {
        let s = self.inner.borrow();
        let mut w = Writer::new();
        w.obj().key("gauges").obj();
        for (k, v) in &s.gauges {
            w.key(k).num(v);
        }
        w.end().key("histograms").obj();
        for (k, h) in &s.hists {
            h.write_json(w.key(k));
        }
        w.end();
        if let Some(sm) = &s.sampler {
            sm.write_json(w.key("series"));
        }
        w.end();
        w.finish()
    }
}

/// An open operation scope (see the crate docs): created by
/// [`Telemetry::op`], [`Telemetry::span`], [`Telemetry::framed_span`] or
/// [`Telemetry::frame`]. It borrows its name and holds only a handle clone,
/// and the anatomy frame under it is plain data, so opening one allocates
/// nothing.
#[derive(Debug)]
#[must_use = "a scope that is dropped at once ends at its opening time"]
pub struct Scope<'a> {
    tel: Telemetry,
    /// `None` for a frame-only scope that emits no trace events.
    cat: Option<&'a str>,
    name: &'a str,
    start: Nanos,
    /// Owns a trace-ID and ticks the sampler (a host op).
    fresh: bool,
    framed: bool,
    open: bool,
}

impl Scope<'_> {
    /// Close the scope at virtual time `end`: emit `End`, close the frame
    /// and record `end - start` into the histogram named like the scope.
    /// Returns `end` so call sites can thread the clock through.
    pub fn close(mut self, end: Nanos) -> Nanos {
        self.finish(end, true);
        end
    }

    /// [`Scope::close`] without the histogram sample, for a span whose
    /// metric is recorded under another name or not at all.
    pub fn end(mut self, end: Nanos) -> Nanos {
        self.finish(end, false);
        end
    }

    fn finish(&mut self, end: Nanos, sample: bool) {
        self.open = false;
        let s = &mut *self.tel.inner.borrow_mut();
        if sample {
            record_into(&mut s.hists, self.name, end.saturating_sub(self.start));
        }
        if self.framed {
            // Sweep the frame's unattributed remainder into `seg.host`.
            let host = s.anatomy.as_mut().and_then(|a| a.end(self.name, self.start, end));
            if let Some(host) = host.filter(|&h| h > 0) {
                record_into(&mut s.hists, SegKind::Host.hist_name(), host);
            }
        }
        if let (Some(t), Some(cat)) = (s.trace.as_mut(), self.cat) {
            let id = if self.fresh {
                s.trace_stack.pop().unwrap_or(0)
            } else {
                *s.trace_stack.last().unwrap_or(&0)
            };
            t.push(end, id, Phase::End, cat, self.name);
        }
        if self.fresh {
            if let Some(sm) = s.sampler.as_mut() {
                sm.sample_if_due(end, &s.gauges);
            }
        }
    }
}

impl Drop for Scope<'_> {
    fn drop(&mut self) {
        if self.open {
            self.finish(self.start, false);
        }
    }
}

/// Guard returned by [`Telemetry::background`]; dropping it resumes
/// charging the frames that were open when it was taken.
#[derive(Debug)]
#[must_use = "background work is only uncharged while the guard lives"]
pub struct Background {
    tel: Telemetry,
    floor: usize,
}

impl Drop for Background {
    fn drop(&mut self) {
        if let Some(a) = self.tel.inner.borrow_mut().anatomy.as_mut() {
            a.resume(self.floor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Telemetry {
        /// Tick the sampler directly (ops do it when they close).
        fn sample(&self, now: Nanos) {
            let s = &mut *self.inner.borrow_mut();
            if let Some(sm) = s.sampler.as_mut() {
                sm.sample_if_due(now, &s.gauges);
            }
        }
    }

    #[test]
    fn gauges_hold_the_last_value_set() {
        let t = Telemetry::new();
        t.set_gauge("depth", 7);
        t.set_gauge("depth", -4);
        assert_eq!(t.gauge("depth"), Some(-4));
        assert_eq!(t.gauge("missing"), None);
    }

    #[test]
    fn shared_handle_sees_all_writes() {
        let a = Telemetry::new();
        let b = a.clone();
        a.record("x", 1);
        b.record("x", 3);
        assert_eq!(a.histogram("x").unwrap().count(), 2);
    }

    #[test]
    fn closed_scopes_record_durations_and_thread_the_clock() {
        let t = Telemetry::new();
        let sp = t.span("wal", "wal.commit", 100);
        assert_eq!(sp.close(350), 350);
        let h = t.histogram("wal.commit").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 250);
        // `end` is `close` without the sample.
        assert_eq!(t.span("pool", "pool.miss", 0).end(40), 40);
        assert!(t.histogram("pool.miss").is_none());
    }

    /// A fallible layer: the scope is open across the `?`.
    fn command(t: &Telemetry, now: Nanos, res: Result<Nanos, ()>) -> Result<Nanos, ()> {
        let scope = t.framed_span("dev", "dev.x.write", now);
        let end = res?;
        Ok(scope.close(end))
    }

    #[test]
    fn dropped_scope_closes_everything_at_its_opening_time() {
        let t = Telemetry::new();
        t.enable_tracing(64);
        t.enable_anatomy(2);
        assert!(command(&t, 500, Err(())).is_err());
        assert_eq!(t.frame_depth(), 0, "error path must close its frame");
        let bd = t.last_breakdown().unwrap();
        assert_eq!((bd.name.as_str(), bd.start, bd.wall), ("dev.x.write", 500, 0));
        assert!(bd.is_conserved());
        assert_eq!(t.anatomy_violations(), 0);
        assert!(t.histogram("dev.x.write").is_none(), "a failed command is not a sample");
        let doc = t.trace_chrome_json().unwrap();
        let chk = validate_chrome_json(&doc).expect("Begin matched by End");
        assert_eq!((chk.events, chk.begins), (2, 1));
        // The success path through the same code records the sample.
        assert_eq!(command(&t, 600, Ok(900)), Ok(900));
        assert_eq!(t.histogram("dev.x.write").unwrap().max(), 300);
        assert_eq!(t.last_breakdown().unwrap().wall, 300);
    }

    #[test]
    fn json_export_parses_with_awkward_names_and_extreme_values() {
        let t = Telemetry::new();
        t.set_gauge("neg", -3);
        for v in [0u64, 1, 5, 1000, 123_456_789, u64::MAX] {
            t.record("dev.write", v);
        }
        t.record("odd \"name\" \\ here", 77);
        let doc = parse_json(&t.to_json()).expect("the export is JSON");
        let doc = doc.as_object().unwrap();
        assert_eq!(doc["gauges"].as_object().unwrap()["neg"].as_i64(), Some(-3));
        let hists = doc["histograms"].as_object().unwrap();
        assert!(hists.contains_key("odd \"name\" \\ here"));
        let h = hists["dev.write"].as_object().unwrap();
        assert_eq!(h["count"].as_u64(), Some(6));
        assert_eq!((h["min"].as_u64(), h["max"].as_u64()), (Some(0), Some(u64::MAX)));
        let buckets: u64 = h["buckets"]
            .as_array()
            .unwrap()
            .iter()
            .map(|b| b.as_array().unwrap()[1].as_u64().unwrap())
            .sum();
        assert_eq!(buckets, 6, "the raw buckets account for every sample");
    }

    #[test]
    fn op_scopes_assign_trace_ids_and_nest() {
        let t = Telemetry::new();
        // Disabled: an op is a free no-op on trace-ID 0.
        t.op("engine", "engine.put", 0).end(0);
        assert_eq!(t.trace_counts(), None);
        t.enable_tracing(1024);
        t.enable_anatomy(2);
        let put = t.op("engine", "engine.put", 10);
        t.span("wal", "wal.append", 12).end(20);
        // A nested op gets its own trace-ID and hands the outer one back.
        let inner = t.op("engine", "engine.checkpoint", 21);
        assert_eq!(t.frame_depth(), 2);
        inner.close(23);
        assert_eq!(t.last_breakdown().unwrap().trace, 2);
        t.complete("nand", "nand.program", 23, 24);
        put.close(25);
        assert_eq!(t.last_breakdown().unwrap().trace, 1, "outer trace-ID restored");
        t.op("engine", "engine.commit", 30).close(40);
        assert_eq!(t.last_breakdown().unwrap().trace, 3, "each op gets a fresh trace-ID");
        t.trace_instant("dev", "power_cut", 50);
        let doc = t.trace_chrome_json().unwrap();
        let chk = validate_chrome_json(&doc).expect("valid chrome trace");
        assert_eq!((chk.begins, chk.instants, chk.tracks), (5, 1, 4));
        // Inner spans inherited op 1's trace-ID, before and after the
        // nested op; the instant is outside any op.
        for (name, cat, ph, ts, tid) in [
            ("wal.append", "wal", "B", "0.012", 1),
            ("nand.program", "nand", "E", "0.024", 1),
            ("power_cut", "dev", "i", "0.050", 0),
        ] {
            let ev = format!(
                "\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":1,\"tid\":{tid}"
            );
            assert!(doc.contains(&ev), "{ev} not in {doc}");
        }
        assert_eq!(t.trace_counts(), Some((11, 0)));
        assert_eq!(t.histogram("engine.put").unwrap().max(), 15);
    }

    #[test]
    fn json_export_bytes_are_pinned() {
        let t = Telemetry::new();
        t.enable_sampling(100);
        t.set_gauge("pool.dirty \"pages\"", -5);
        t.sample(0);
        t.set_gauge("ssd.cache_occupancy", 3);
        t.finish_sampling(220);
        t.record("dev.write", 7);
        t.record("dev.write", 70_000);
        assert_eq!(
            t.to_json(),
            concat!(
                r#"{"gauges":{"pool.dirty \"pages\"":-5,"ssd.cache_occupancy":3},"#,
                r#""histograms":{"dev.write":{"count":2,"sum":70007,"min":7,"max":70000,"#,
                r#""p50":7,"p90":70000,"p99":70000,"p999":70000,"buckets":[[7,1],[209,1]]}},"#,
                r#""series":{"cadence":100,"times":[0,220],"gauges":{"#,
                r#""pool.dirty \"pages\"":{"start":0,"values":[-5,-5]},"#,
                r#""ssd.cache_occupancy":{"start":1,"values":[3]}}}}"#,
            )
        );
    }

    #[test]
    fn sampling_is_cadence_gated_and_ticked_by_ops() {
        let t = Telemetry::new();
        t.sample(0); // no-op before enable
        t.enable_sampling(1_000);
        t.set_gauge("g", 1);
        t.op("doc", "doc.set", 0).close(0);
        t.op("doc", "doc.set", 5).close(10); // below cadence: skipped
        t.span("wal", "wal.flush", 10).close(5_000); // only ops tick
        t.op("doc", "doc.set", 990).close(999);
        t.op("doc", "doc.set", 999).close(1_000);
        t.finish_sampling(1_500);
        assert_eq!(t.series_csv().unwrap(), "t_ns,g\n0,1\n1000,1\n1500,1\n");
    }

    #[test]
    fn reset_clears_trace_and_series_but_keeps_them_enabled() {
        let t = Telemetry::new();
        t.enable_tracing(64);
        t.enable_sampling(10);
        t.set_gauge("g", 1);
        t.op("engine", "op", 0).close(5);
        t.reset();
        assert_eq!(t.trace_counts().map(|(r, _)| r), Some(2), "counters survive reset");
        let doc = t.trace_chrome_json().unwrap();
        assert_eq!(validate_chrome_json(&doc).unwrap().events, 0);
        assert!(t.series_csv().unwrap().lines().count() == 1, "header only");
        // Trace-IDs keep advancing; no reuse after reset.
        t.op("engine", "op", 10).close(11);
        assert!(t.trace_chrome_json().unwrap().contains("\"tid\":2"));
    }

    #[test]
    fn anatomy_frames_ride_op_scopes_and_conserve() {
        let t = Telemetry::new();
        // Disabled: all hooks are free no-ops.
        let f = t.frame("engine.commit", 0);
        t.seg(SegKind::WalFsync, 10);
        f.end(100);
        assert!(t.last_breakdown().is_none());
        assert_eq!(t.anatomy_violations(), 0);

        t.enable_anatomy(4);
        // Ops open frames even with tracing disabled (trace-ID 0).
        let op = t.op("engine", "engine.commit", 1_000);
        assert_eq!(t.frame_depth(), 1);
        let dev = t.framed_span("dev", "dev.log.write", 1_100);
        t.seg(SegKind::MediaProgram, 300);
        t.seg(SegKind::NcqWait, 50);
        dev.close(1_500);
        let dev = t.last_breakdown().unwrap();
        assert_eq!(dev.wall, 400);
        assert_eq!(dev.seg(SegKind::MediaProgram), 300);
        assert_eq!(dev.seg(SegKind::Host), 50, "400 - 350 attributed");
        assert!(dev.is_conserved());
        t.seg(SegKind::WalFsync, 200);
        op.close(2_000);
        let op = t.last_breakdown().unwrap();
        assert_eq!(op.name, "engine.commit");
        assert_eq!(op.wall, 1_000);
        // Child's segments rolled up into the enclosing commit frame.
        assert_eq!(op.seg(SegKind::MediaProgram), 300);
        assert_eq!(op.seg(SegKind::WalFsync), 200);
        assert!(op.is_conserved());
        assert_eq!(t.anatomy_violations(), 0);
        assert_eq!(t.frame_depth(), 0);
        // Per-kind histograms recorded on every charge + host remainders.
        assert_eq!(t.histogram("seg.media_program").unwrap().count(), 1);
        assert_eq!(t.histogram("seg.wal_fsync").unwrap().count(), 1);
        assert_eq!(t.histogram("seg.host").unwrap().count(), 2);
        // Both closed frames were offered to the outlier capturer.
        assert_eq!(t.outliers_for("engine.commit").len(), 1);
        assert_eq!(t.outliers_for("dev.log.write").len(), 1);
        assert!(t.outliers_json().unwrap().contains("\"engine.commit\""));
    }

    #[test]
    fn background_work_does_not_charge_the_open_op() {
        let t = Telemetry::new();
        t.enable_anatomy(2);
        let op = t.op("engine", "engine.commit", 1_000);
        {
            // A queued flush fired retroactively: it began before the op.
            let _bg = t.background();
            let dev = t.framed_span("dev", "dev.log.flush", 200);
            t.seg(SegKind::FlushCache, 700);
            dev.close(900);
            assert!(t.last_breakdown().unwrap().is_conserved());
        }
        t.seg(SegKind::WalFsync, 30);
        op.close(1_040);
        let bd = t.last_breakdown().unwrap();
        assert_eq!(bd.seg(SegKind::FlushCache), 0);
        assert_eq!(bd.seg(SegKind::WalFsync), 30);
        assert!(bd.is_conserved());
        assert_eq!(t.anatomy_violations(), 0);
        assert_eq!(t.histogram("seg.flush_cache").unwrap().sum(), 700, "still in the run total");
    }

    #[test]
    fn frames_inherit_trace_ids_and_emit_no_events() {
        let t = Telemetry::new();
        t.enable_tracing(256);
        t.enable_anatomy(2);
        let op = t.op("doc", "doc.set", 10);
        t.frame("dev.doc.fsync_soft", 20).end(30);
        assert_eq!(t.last_breakdown().unwrap().trace, 1, "frame carries op trace-ID");
        op.close(40);
        assert_eq!(t.last_breakdown().unwrap().trace, 1);
        // Only the op's Begin/End pair exists.
        assert_eq!(t.trace_counts(), Some((2, 0)));
    }

    #[test]
    fn outlier_capturer_agrees_with_exact_hist_extremes() {
        // The histogram's exact min/max (not log-bucket approximations)
        // cross-check the tail capturer: the slowest retained outlier must
        // be *the* max the op histogram observed.
        let t = Telemetry::new();
        t.enable_anatomy(3);
        let walls = [700u64, 23, 9_999, 140, 3, 9_999, 512];
        let mut now = 0;
        for w in walls {
            now = t.frame("doc.set", now).close(now + w);
        }
        let h = t.histogram("doc.set").unwrap();
        assert_eq!(h.max(), 9_999);
        assert_eq!(h.min(), 3);
        let top = t.outliers_for("doc.set");
        assert_eq!(top[0].wall, h.max(), "slowest outlier is the exact hist max");
        assert_eq!(top.len(), 3);
        assert!(top.iter().all(|b| b.wall >= 512), "top-3 of the wall list");
        // Every retained wall really was observed by the histogram.
        assert!(top.iter().all(|b| b.wall >= h.min() && b.wall <= h.max()));
    }

    #[test]
    fn anatomy_json_export_is_unchanged() {
        // Anatomy state lives outside the registry JSON (outliers export
        // separately).
        let t = Telemetry::new();
        t.record("ops", 1);
        let before = t.to_json();
        t.enable_anatomy(4);
        assert_eq!(t.to_json(), before);
    }

    #[test]
    fn reset_clears_everything_but_keeps_anatomy_enabled() {
        let t = Telemetry::new();
        t.enable_anatomy(3);
        t.set_gauge("a", 1);
        t.record("h", 10);
        let f = t.frame("op", 0);
        t.seg(SegKind::Xfer, 10);
        f.end(50);
        assert!(t.last_breakdown().is_some());
        t.reset();
        assert_eq!(t.gauge("a"), None);
        assert!(t.histogram("h").is_none());
        assert!(t.histogram("seg.xfer").is_none());
        assert!(t.last_breakdown().is_none());
        assert_eq!(t.anatomy_violations(), 0);
        assert!(t.outliers_for("op").is_empty());
        t.frame("op2", 100).end(130);
        assert_eq!(t.last_breakdown().unwrap().wall, 30);
    }
}
