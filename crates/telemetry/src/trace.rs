//! Event tracing and gauge time-series sampling.
//!
//! Aggregates (histograms, segment sums) answer *how much*; they cannot
//! answer *which* NAND program or cache drain made one specific commit slow.
//! This module adds the causal layer:
//!
//! * [`TraceBuf`] — a bounded, overwrite-on-full ring buffer of timestamped
//!   events. Each event is `Begin`/`End`/`Instant` ([`Phase`]), stamped with
//!   virtual [`Nanos`], an interned category and name, and the [`TraceId`]
//!   of the host operation it belongs to. Export to Chrome trace-event JSON
//!   ([`TraceBuf::to_chrome_json`]) loads directly in Perfetto or
//!   `chrome://tracing`: one track (`tid`) per trace-ID, so a single
//!   commit's causal chain — engine → WAL → volume → device cache → NAND —
//!   reads top to bottom.
//! * [`Sampler`] — snapshots every named gauge on a virtual-time cadence
//!   into per-gauge time-series, for plotting how cache occupancy, GC debt,
//!   capacitor reserve or dirty-page counts evolve across a burst.
//! * [`validate_chrome_json`] — schema/consistency checker used by the CI
//!   smoke step: every `B` must have an `E`, timestamps must be monotone
//!   per track, and every event must carry the full Chrome field set.
//!
//! # Span semantics under asynchronous completion
//!
//! The simulated device acknowledges cached writes *before* the NAND
//! programs they cause have finished; a child event can therefore carry a
//! later timestamp than its parent's return. Begin/End pairs are matched in
//! **emission order** per track (nesting is correct by construction: each
//! layer emits `B` before calling down and `E` after returning), and export
//! clamps timestamps monotone per track. A parent span consequently
//! stretches to cover its asynchronous children — it shows the operation's
//! **causal extent**, not the host-visible latency (which lives in the
//! histograms). See DESIGN.md.

use simkit::json::{self, Field, Want, Writer};
use simkit::Nanos;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Write as _;

/// Identity of one host-level operation (put/commit/get/…). `0` means
/// "outside any traced operation" and renders as the background track.
pub type TraceId = u64;

/// Event phase, mirroring the Chrome trace-event `ph` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Duration begin (`"B"`).
    Begin,
    /// Duration end (`"E"`).
    End,
    /// Instantaneous event (`"i"`).
    Instant,
}

/// One recorded event. Category and name are indices into the owning
/// [`TraceBuf`]'s intern table, keeping events 4 words each.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Virtual timestamp.
    pub ts: Nanos,
    /// Owning operation (Chrome `tid`).
    pub trace: TraceId,
    /// Begin / End / Instant.
    pub ph: Phase,
    /// Interned category index.
    pub cat: u32,
    /// Interned name index.
    pub name: u32,
}

/// Bounded, overwrite-on-full event ring with string interning.
///
/// When the ring is full the **oldest** event is dropped and the drop
/// counter advances; recording never fails and never reallocates past the
/// configured capacity.
#[derive(Debug, Clone)]
pub struct TraceBuf {
    cap: usize,
    events: VecDeque<Event>,
    names: Vec<String>,
    intern: HashMap<String, u32>,
    recorded: u64,
    dropped: u64,
}

impl TraceBuf {
    /// Ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        Self {
            cap,
            events: VecDeque::with_capacity(cap.min(1 << 16)),
            names: Vec::new(),
            intern: HashMap::new(),
            recorded: 0,
            dropped: 0,
        }
    }

    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&i) = self.intern.get(s) {
            return i;
        }
        let i = self.names.len() as u32;
        self.names.push(s.to_string());
        self.intern.insert(s.to_string(), i);
        i
    }

    /// Append one event, evicting the oldest if the ring is full.
    pub fn push(&mut self, ts: Nanos, trace: TraceId, ph: Phase, cat: &str, name: &str) {
        let cat = self.intern(cat);
        let name = self.intern(name);
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(Event { ts, trace, ph, cat, name });
        self.recorded += 1;
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total events ever recorded (including since-dropped ones).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drop buffered events (intern table and counters survive).
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Resolve an interned index back to its string.
    pub fn name(&self, idx: u32) -> &str {
        &self.names[idx as usize]
    }

    /// Iterate buffered events oldest-first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Export as Chrome trace-event JSON (Perfetto / `chrome://tracing`).
    ///
    /// Guarantees on the output, regardless of ring wraparound:
    /// * every `B` has a matching `E` on its track — an unmatched `Begin`
    ///   (operation still open when the trace stopped) is **closed at
    ///   end-of-trace**, not dropped;
    /// * an orphan `E` whose `B` was overwritten by the ring is skipped;
    /// * timestamps are monotone non-decreasing per track (asynchronous
    ///   completions are clamped; see module docs).
    pub fn to_chrome_json(&self) -> String {
        struct Out {
            name: u32,
            cat: u32,
            ph: &'static str,
            ts: Nanos,
            tid: TraceId,
        }
        #[derive(Default)]
        struct Track {
            open: Vec<usize>, // indices into `out` of unmatched Begins
            last_ts: Nanos,
        }
        let mut out: Vec<Out> = Vec::with_capacity(self.events.len());
        let mut tracks: BTreeMap<TraceId, Track> = BTreeMap::new();
        let mut max_ts: Nanos = 0;
        for ev in &self.events {
            let tr = tracks.entry(ev.trace).or_default();
            let ts = ev.ts.max(tr.last_ts);
            tr.last_ts = ts;
            max_ts = max_ts.max(ts);
            match ev.ph {
                Phase::Begin => {
                    tr.open.push(out.len());
                    out.push(Out { name: ev.name, cat: ev.cat, ph: "B", ts, tid: ev.trace });
                }
                Phase::End => {
                    // Emission-order matching: this E closes the innermost
                    // open B on its track. If there is none, its B was
                    // evicted by the ring — drop the orphan.
                    if tr.open.pop().is_some() {
                        out.push(Out { name: ev.name, cat: ev.cat, ph: "E", ts, tid: ev.trace });
                    }
                }
                Phase::Instant => {
                    out.push(Out { name: ev.name, cat: ev.cat, ph: "i", ts, tid: ev.trace });
                }
            }
        }
        // Close still-open spans at end-of-trace, innermost first.
        let closers: Vec<Out> = tracks
            .iter()
            .flat_map(|(tid, tr)| {
                tr.open.iter().rev().map(|&i| Out {
                    name: out[i].name,
                    cat: out[i].cat,
                    ph: "E",
                    ts: max_ts,
                    tid: *tid,
                })
            })
            .collect();
        out.extend(closers);

        let mut w = Writer::new();
        w.obj().key("displayTimeUnit").str("ns").key("traceEvents").arr();
        for e in &out {
            w.obj().key("name").str(&self.names[e.name as usize]);
            w.key("cat").str(&self.names[e.cat as usize]);
            w.key("ph").str(e.ph);
            // Chrome `ts` is in microseconds; keep nanosecond precision as
            // a three-digit fraction.
            w.key("ts").num(format_args!("{}.{:03}", e.ts / 1000, e.ts % 1000));
            w.key("pid").num(1).key("tid").num(e.tid).end();
        }
        w.end().end();
        w.finish()
    }
}

/// Result of [`validate_chrome_json`]: counts over a structurally valid
/// trace document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total events in the document.
    pub events: usize,
    /// Duration-begin events (each verified to have a matching end).
    pub begins: usize,
    /// Instant events.
    pub instants: usize,
    /// Distinct tracks (`tid` values).
    pub tracks: usize,
}

/// The Chrome trace-event fields every exported event must carry. Golden:
/// checked by `tests/trace_golden.rs` and the CI smoke step.
pub static CHROME_EVENT_FIELDS: [Field; 6] = [
    Field::new("name", Want::Str),
    Field::new("cat", Want::Str),
    Field::new("ph", Want::OneOf(&["B", "E", "i"])),
    Field::new("ts", Want::Num),
    Field::new("pid", Want::Num),
    Field::new("tid", Want::Count),
];

static CHROME_TRACE: [Field; 1] = [Field::new("traceEvents", Want::Rows(0, &CHROME_EVENT_FIELDS))];

/// Validate a Chrome trace-event JSON document produced by
/// [`TraceBuf::to_chrome_json`] (or any conforming tool): every event
/// carries [`CHROME_EVENT_FIELDS`], every `B` has a matching `E` on its
/// track, and timestamps are monotone non-decreasing per track.
pub fn validate_chrome_json(doc: &str) -> Result<TraceCheck, String> {
    let v =
        json::check_document(doc, &CHROME_TRACE).map_err(|f| format!("trace: {}", f.join("; ")))?;
    let evs = v.as_object().and_then(|o| o["traceEvents"].as_array()).expect("checked above");
    let mut open: HashMap<u64, Vec<&str>> = HashMap::new();
    let mut last_ts: HashMap<u64, f64> = HashMap::new();
    let mut begins = 0usize;
    let mut instants = 0usize;
    for (i, e) in evs.iter().enumerate() {
        let o = e.as_object().expect("checked above");
        let field = |k: &str| o[k].as_str().expect("checked above");
        let name = field("name");
        let ts = o["ts"].as_f64().expect("checked above");
        let tid = o["tid"].as_u64().ok_or(format!("event {i}: tid not a u64"))?;
        let last = last_ts.entry(tid).or_insert(ts);
        if ts < *last {
            return Err(format!("event {i} ({name}): ts {ts} < previous {last} on tid {tid}"));
        }
        *last = ts;
        match field("ph") {
            "B" => {
                begins += 1;
                open.entry(tid).or_default().push(name);
            }
            "E" => {
                if open.entry(tid).or_default().pop().is_none() {
                    return Err(format!("event {i} ({name}): E without open B on tid {tid}"));
                }
            }
            _ => instants += 1,
        }
    }
    for (tid, stack) in &open {
        if let Some(name) = stack.last() {
            return Err(format!("unclosed B ({name}) on tid {tid}"));
        }
    }
    Ok(TraceCheck { events: evs.len(), begins, instants, tracks: last_ts.len() })
}

/// One gauge's sampled series. `start` is the index into the sampler's
/// shared timestamp vector at which this gauge first existed: a gauge
/// created mid-run has **no** points before `start` (absent, not zero).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Series {
    /// Index of the first sample in [`Sampler::times`] this series covers.
    pub start: usize,
    /// One value per sample from `start` onward.
    pub values: Vec<i64>,
}

/// Snapshots every named gauge on a virtual-time cadence.
///
/// Drive it with [`Sampler::sample_if_due`] from any point that observes
/// the virtual clock (the engine and docstore tick it once per operation),
/// and close the run with [`Sampler::finish`], which always takes a final
/// sample — so a zero-duration run, or a cadence longer than the run,
/// still yields at least one point per gauge.
#[derive(Debug, Clone, Default)]
pub struct Sampler {
    cadence: Nanos,
    next_due: Nanos,
    times: Vec<Nanos>,
    series: BTreeMap<String, Series>,
}

impl Sampler {
    /// Sampler firing every `cadence` virtual nanoseconds (minimum 1). The
    /// first `sample_if_due` call always fires.
    pub fn new(cadence: Nanos) -> Self {
        Self { cadence: cadence.max(1), next_due: 0, times: Vec::new(), series: BTreeMap::new() }
    }

    /// Take a sample iff `now` has reached the next due time. Returns
    /// whether a sample was taken.
    pub fn sample_if_due(&mut self, now: Nanos, gauges: &BTreeMap<String, i64>) -> bool {
        if now < self.next_due {
            return false;
        }
        self.take(now, gauges);
        true
    }

    /// Unconditionally take a final sample at `now` (deduplicated if the
    /// last sample already landed on `now`).
    pub fn finish(&mut self, now: Nanos, gauges: &BTreeMap<String, i64>) {
        if self.times.last() == Some(&now) {
            return;
        }
        self.take(now, gauges);
    }

    fn take(&mut self, now: Nanos, gauges: &BTreeMap<String, i64>) {
        self.times.push(now);
        let idx = self.times.len() - 1;
        for (k, &v) in gauges {
            match self.series.get_mut(k) {
                Some(s) => s.values.push(v),
                None => {
                    // Gauge born mid-run: series begins at this sample.
                    self.series.insert(k.clone(), Series { start: idx, values: vec![v] });
                }
            }
        }
        self.next_due = now.saturating_add(self.cadence);
    }

    /// Number of samples taken.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when no samples were taken.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Sample timestamps, oldest first.
    pub fn times(&self) -> &[Nanos] {
        &self.times
    }

    /// All series, keyed by gauge name.
    pub fn series(&self) -> &BTreeMap<String, Series> {
        &self.series
    }

    /// Drop all samples (cadence survives; the next sample fires
    /// immediately).
    pub fn clear(&mut self) {
        self.times.clear();
        self.series.clear();
        self.next_due = 0;
    }

    /// Export as CSV: header `t_ns,<gauge>,…`; one row per sample. Cells
    /// before a mid-run gauge's first sample are empty, not zero.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str("t_ns");
        for name in self.series.keys() {
            out.push(',');
            out.push_str(name);
        }
        out.push('\n');
        for (i, t) in self.times.iter().enumerate() {
            let _ = write!(out, "{t}");
            for s in self.series.values() {
                out.push(',');
                if i >= s.start {
                    let _ = write!(out, "{}", s.values[i - s.start]);
                }
            }
            out.push('\n');
        }
        out
    }

    /// JSON object form, embedded in the registry export as `"series"`.
    pub(crate) fn write_json(&self, w: &mut Writer) {
        w.obj().key("cadence").num(self.cadence).key("times").arr();
        for t in &self.times {
            w.num(t);
        }
        w.end().key("gauges").obj();
        for (k, s) in &self.series {
            w.key(k).obj().key("start").num(s.start).key("values").arr();
            for v in &s.values {
                w.num(v);
            }
            w.end().end();
        }
        w.end().end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gauges(pairs: &[(&str, i64)]) -> BTreeMap<String, i64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn ring_wraparound_drops_oldest_and_counts() {
        let mut b = TraceBuf::new(3);
        for i in 0..5u64 {
            b.push(i * 10, 1, Phase::Instant, "t", &format!("e{i}"));
        }
        assert_eq!(b.len(), 3);
        assert_eq!(b.capacity(), 3);
        assert_eq!(b.recorded(), 5);
        assert_eq!(b.dropped(), 2);
        let names: Vec<&str> = b.events().map(|e| b.name(e.name)).collect();
        assert_eq!(names, ["e2", "e3", "e4"], "oldest events must be the ones dropped");
    }

    #[test]
    fn unmatched_begin_closed_at_end_of_trace() {
        let mut b = TraceBuf::new(16);
        b.push(10, 1, Phase::Begin, "t", "outer");
        b.push(20, 1, Phase::Begin, "t", "inner");
        b.push(30, 1, Phase::Instant, "t", "tick");
        // Trace stops with both spans open.
        let doc = b.to_chrome_json();
        let chk = validate_chrome_json(&doc).expect("valid");
        assert_eq!(chk.begins, 2);
        assert_eq!(chk.instants, 1);
        assert_eq!(chk.events, 5, "two closing E events synthesised at end-of-trace");
        // Closers land at the max timestamp.
        assert!(doc.matches("\"ph\":\"E\",\"ts\":0.030").count() == 2, "doc: {doc}");
    }

    #[test]
    fn orphan_end_from_wraparound_is_dropped() {
        let mut b = TraceBuf::new(2);
        b.push(10, 1, Phase::Begin, "t", "a");
        b.push(20, 1, Phase::Instant, "t", "x"); // evicts nothing yet
        b.push(30, 1, Phase::End, "t", "a"); // evicts the Begin
        assert_eq!(b.dropped(), 1);
        let doc = b.to_chrome_json();
        let chk = validate_chrome_json(&doc).expect("orphan E must not corrupt the trace");
        assert_eq!(chk.begins, 0);
        assert_eq!(chk.events, 1, "only the instant survives");
    }

    #[test]
    fn async_children_clamped_monotone_per_track() {
        let mut b = TraceBuf::new(16);
        // Parent acks at 50 but its async child completes at 80: the E for
        // the parent is emitted after the child's E with a smaller ts.
        b.push(10, 7, Phase::Begin, "t", "parent");
        b.push(20, 7, Phase::Begin, "t", "child");
        b.push(80, 7, Phase::End, "t", "child");
        b.push(50, 7, Phase::End, "t", "parent"); // clamped up to 80
        let doc = b.to_chrome_json();
        validate_chrome_json(&doc).expect("monotone after clamping");
        assert!(doc.contains("\"ph\":\"E\",\"ts\":0.080,\"pid\":1,\"tid\":7"));
    }

    #[test]
    fn tracks_are_independent() {
        let mut b = TraceBuf::new(16);
        b.push(100, 1, Phase::Begin, "t", "op1");
        b.push(10, 2, Phase::Begin, "t", "op2"); // earlier ts, other track: fine
        b.push(15, 2, Phase::End, "t", "op2");
        b.push(110, 1, Phase::End, "t", "op1");
        let chk = validate_chrome_json(&b.to_chrome_json()).expect("valid");
        assert_eq!(chk.tracks, 2);
        assert_eq!(chk.begins, 2);
    }

    #[test]
    fn validator_rejects_bad_documents() {
        assert!(validate_chrome_json("{}").is_err(), "no traceEvents");
        assert!(validate_chrome_json(
            r#"{"traceEvents":[{"name":"x","cat":"t","ph":"B","ts":1,"pid":1}]}"#
        )
        .is_err());
        assert!(validate_chrome_json(
            r#"{"traceEvents":[{"name":"x","cat":"t","ph":"E","ts":1,"pid":1,"tid":1}]}"#
        )
        .is_err());
        assert!(validate_chrome_json(
            r#"{"traceEvents":[
                {"name":"a","cat":"t","ph":"i","ts":5,"pid":1,"tid":1},
                {"name":"b","cat":"t","ph":"i","ts":4,"pid":1,"tid":1}]}"#
        )
        .is_err());
        assert!(validate_chrome_json(
            r#"{"traceEvents":[{"name":"x","cat":"t","ph":"Q","ts":1,"pid":1,"tid":1}]}"#
        )
        .is_err());
    }

    #[test]
    fn sampler_zero_duration_run_yields_one_sample() {
        let mut s = Sampler::new(1_000_000);
        s.finish(0, &gauges(&[("g", 42)]));
        assert_eq!(s.len(), 1);
        assert_eq!(s.times(), &[0]);
        assert_eq!(s.series()["g"].values, [42]);
        let csv = s.to_csv();
        assert_eq!(csv, "t_ns,g\n0,42\n");
    }

    #[test]
    fn sampler_cadence_longer_than_run() {
        let mut s = Sampler::new(1_000_000_000);
        let g = gauges(&[("depth", 3)]);
        assert!(s.sample_if_due(0, &g), "first sample always fires");
        assert!(!s.sample_if_due(500, &g));
        assert!(!s.sample_if_due(9_000, &g));
        s.finish(9_000, &g);
        assert_eq!(s.len(), 2, "start + final sample despite huge cadence");
        assert_eq!(s.times(), &[0, 9_000]);
    }

    #[test]
    fn sampler_finish_dedupes_same_instant() {
        let mut s = Sampler::new(10);
        let g = gauges(&[("g", 1)]);
        assert!(s.sample_if_due(100, &g));
        s.finish(100, &g);
        assert_eq!(s.len(), 1, "finish at the same instant must not duplicate");
    }

    #[test]
    fn gauge_created_mid_run_starts_at_first_sample() {
        let mut s = Sampler::new(10);
        s.sample_if_due(0, &gauges(&[("early", 1)]));
        s.sample_if_due(10, &gauges(&[("early", 2)]));
        s.sample_if_due(20, &gauges(&[("early", 3), ("late", 100)]));
        s.finish(25, &gauges(&[("early", 4), ("late", 101)]));
        let late = &s.series()["late"];
        assert_eq!(late.start, 2, "late gauge's series starts at its first sample");
        assert_eq!(late.values, [100, 101]);
        assert_eq!(s.series()["early"].values, [1, 2, 3, 4]);
        // CSV: absent cells are empty, not zero.
        let csv = s.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "t_ns,early,late");
        assert_eq!(lines[1], "0,1,");
        assert_eq!(lines[2], "10,2,");
        assert_eq!(lines[3], "20,3,100");
        assert_eq!(lines[4], "25,4,101");
    }

    #[test]
    fn chrome_export_is_parseable_json_with_schema_fields() {
        let mut b = TraceBuf::new(8);
        b.push(1_234_567, 3, Phase::Begin, "engine", "engine.commit");
        b.push(1_500_000, 3, Phase::End, "engine", "engine.commit");
        let doc = b.to_chrome_json();
        let v = json::parse(&doc).expect("well-formed JSON");
        let o = v.as_object().unwrap();
        assert_eq!(o["displayTimeUnit"].as_str(), Some("ns"));
        let ev = &o["traceEvents"].as_array().unwrap()[0];
        let eo = ev.as_object().unwrap();
        for f in &CHROME_EVENT_FIELDS {
            assert!(eo.contains_key(f.key), "missing {}", f.key);
        }
        // Microsecond ts with nanosecond fraction.
        assert_eq!(eo["ts"].as_f64(), Some(1234.567));
    }
}
