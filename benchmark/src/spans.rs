//! Host-clock spans recorded from the benchmark's own files only: around
//! each call the driver makes into `Volume` / `Engine` / `DocStore`, around
//! each `workloads::*::run` segment, and inside [`crate::probe::Probe`] for
//! every command that crosses the device boundary.
//!
//! Spans nest by call order (one host thread), so the recorder is a stack:
//! closing a span adds its duration to its parent's child time, and a span's
//! *self time* is its duration minus its children's. Every span feeds a
//! per-name aggregate; the first [`KEEP`] spans are also kept verbatim and
//! written, with the aggregate, as one JSON file when the run ends.

use simkit::Nanos;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// Raw spans kept for the span file (the aggregate covers all of them).
pub const KEEP: usize = 50_000;

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Sequence number in begin order; a child's id exceeds its parent's.
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// Layer-boundary name, e.g. `volume.write` or `probe.write`.
    pub name: &'static str,
    /// Driver op the span belongs to (spans of one op share it).
    pub op: u64,
    /// Host nanoseconds since the recorder was created.
    pub host_start: u64,
    /// Host nanoseconds since the recorder was created.
    pub host_end: u64,
    /// Simulated time the call was issued at.
    pub sim_start: Nanos,
    /// Simulated time the call completed at.
    pub sim_end: Nanos,
    /// Host nanoseconds covered by child spans.
    pub child_ns: u64,
}

impl Span {
    /// Host duration.
    pub fn host_ns(&self) -> u64 {
        self.host_end - self.host_start
    }

    /// Duration minus the part covered by children.
    pub fn self_ns(&self) -> u64 {
        self.host_ns() - self.child_ns
    }
}

/// Per-name totals over every span of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans closed under this name.
    pub count: u64,
    /// Sum of host durations.
    pub host_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
    /// Sum of simulated durations.
    pub sim_ns: u64,
}

struct Open {
    id: u64,
    name: &'static str,
    op: u64,
    host_start: u64,
    sim_start: Nanos,
    child_ns: u64,
}

/// The span stack plus its outputs.
pub struct Recorder {
    epoch: Instant,
    next_id: u64,
    open: Vec<Open>,
    kept: Vec<Span>,
    totals: Vec<(&'static str, NameTotals)>,
}

impl Recorder {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: 0,
            open: Vec::with_capacity(8),
            kept: Vec::with_capacity(KEEP),
            totals: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, op: u64, sim_start: Nanos) {
        let id = self.next_id;
        self.next_id += 1;
        let host_start = self.now();
        self.open.push(Open { id, name, op, host_start, sim_start, child_ns: 0 });
    }

    fn end(&mut self, name: &'static str, sim_end: Nanos) -> Span {
        let host_end = self.now();
        let o = self.open.pop().expect("span end without begin");
        assert_eq!(o.name, name, "spans must close in LIFO order");
        let span = Span {
            id: o.id,
            parent: self.open.last().map(|p| p.id),
            name,
            op: o.op,
            host_start: o.host_start,
            host_end,
            sim_start: o.sim_start,
            sim_end,
            child_ns: o.child_ns,
        };
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += span.host_ns();
        }
        let slot = match self.totals.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                self.totals.push((name, NameTotals::default()));
                self.totals.len() - 1
            }
        };
        let t = &mut self.totals[slot].1;
        t.count += 1;
        t.host_ns += span.host_ns();
        t.self_ns += span.self_ns();
        t.sim_ns += sim_end.saturating_sub(o.sim_start);
        if self.kept.len() < KEEP {
            self.kept.push(span);
        }
        span
    }
}

/// Shared handle to the recorder: the driver and every [`Probe`] under it
/// hold clones (single host thread, so `Rc<RefCell<_>>`).
///
/// [`Probe`]: crate::probe::Probe
#[derive(Clone)]
pub struct Tracer(Rc<RefCell<Recorder>>);

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A fresh recorder; host times count from now.
    pub fn new() -> Self {
        Self(Rc::new(RefCell::new(Recorder::new())))
    }

    /// Open a span under the innermost open one.
    pub fn begin(&self, name: &'static str, op: u64, sim_start: Nanos) {
        self.0.borrow_mut().begin(name, op, sim_start);
    }

    /// Close the innermost span (must be `name`) and return it.
    pub fn end(&self, name: &'static str, sim_end: Nanos) -> Span {
        self.0.borrow_mut().end(name, sim_end)
    }

    /// Forget every closed span (set-up traffic) so totals and the span
    /// file cover the measured phase onwards. Open spans stay open.
    pub fn reset(&self) {
        let mut r = self.0.borrow_mut();
        r.kept.clear();
        r.totals.clear();
    }

    /// Totals for one name (zero if it never closed).
    pub fn totals(&self, name: &str) -> NameTotals {
        let r = self.0.borrow();
        r.totals.iter().find(|(n, _)| *n == name).map(|(_, t)| *t).unwrap_or_default()
    }

    /// Every name's totals, in first-closed order.
    pub fn all_totals(&self) -> Vec<(&'static str, NameTotals)> {
        self.0.borrow().totals.clone()
    }

    /// Number of raw spans kept for the span file.
    #[cfg(test)]
    pub fn kept_len(&self) -> usize {
        self.0.borrow().kept.len()
    }

    /// The span file: the per-name aggregate over all spans plus the first
    /// [`KEEP`] raw spans.
    pub fn to_json(&self, workload: &str) -> String {
        let r = self.0.borrow();
        let mut s = String::with_capacity(64 + r.kept.len() * 128);
        let _ = write!(
            s,
            "{{\"workload\":\"{workload}\",\"spans_total\":{},\"aggregate\":[",
            r.next_id
        );
        for (i, (name, t)) in r.totals.iter().enumerate() {
            let _ = write!(
                s,
                "{}{{\"name\":\"{name}\",\"count\":{},\"host_ns\":{},\"self_ns\":{},\"sim_ns\":{}}}",
                if i > 0 { "," } else { "" },
                t.count,
                t.host_ns,
                t.self_ns,
                t.sim_ns
            );
        }
        s.push_str("],\"spans\":[");
        for (i, sp) in r.kept.iter().enumerate() {
            let _ = write!(
                s,
                "{}{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"op\":{},\"host_start_ns\":{},\
                 \"host_end_ns\":{},\"self_ns\":{},\"sim_start_ns\":{},\"sim_end_ns\":{}}}",
                if i > 0 { ",\n" } else { "" },
                sp.id,
                sp.parent.map_or("null".to_string(), |p| p.to_string()),
                sp.name,
                sp.op,
                sp.host_start,
                sp.host_end,
                sp.self_ns(),
                sp.sim_start,
                sp.sim_end
            );
        }
        s.push_str("]}\n");
        s
    }
}

/// Span bracket for an optional tracer: `traced(&tracer, name, op, now, || call)`
/// runs `call`, which returns `(value, sim_end)`.
pub fn traced<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    op: u64,
    sim_start: Nanos,
    call: impl FnOnce() -> (T, Nanos),
) -> T {
    match tracer {
        None => call().0,
        Some(t) => {
            t.begin(name, op, sim_start);
            let (v, sim_end) = call();
            t.end(name, sim_end);
            v
        }
    }
}

/// [`traced`] for a fallible device-style call that returns its completion
/// time: a failed call ends its span at `sim_start`.
pub fn traced_io<E>(
    tracer: Option<&Tracer>,
    name: &'static str,
    op: u64,
    sim_start: Nanos,
    call: impl FnOnce() -> Result<Nanos, E>,
) -> Result<Nanos, E> {
    traced(tracer, name, op, sim_start, || {
        let res = call();
        let end = *res.as_ref().unwrap_or(&sim_start);
        (res, end)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_and_children_fit_in_parent() {
        let tr = Tracer::new();
        tr.begin("segment", 0, 0);
        spin(20_000);
        for op in 0..3 {
            tr.begin("volume.write", op, 10 * op);
            spin(5_000);
            tr.begin("probe.write", op, 10 * op);
            spin(20_000);
            let inner = tr.end("probe.write", 10 * op + 5);
            let outer = tr.end("volume.write", 10 * op + 7);
            // Child lies inside its parent on the host clock.
            assert!(inner.host_start >= outer.host_start && inner.host_end <= outer.host_end);
            assert_eq!(inner.parent, Some(outer.id));
            assert_eq!(outer.child_ns, inner.host_ns());
            assert_eq!(outer.self_ns() + inner.host_ns(), outer.host_ns());
        }
        let seg = tr.end("segment", 100);
        let vol = tr.totals("volume.write");
        let probe = tr.totals("probe.write");
        assert_eq!((vol.count, probe.count), (3, 3));
        // Conservation: the self times of a whole tree sum to the root's
        // duration, and children never exceed their parent.
        assert_eq!(seg.child_ns, vol.host_ns);
        assert!(probe.host_ns <= vol.host_ns && vol.host_ns <= seg.host_ns());
        assert_eq!(seg.self_ns() + vol.self_ns + probe.self_ns, seg.host_ns());
        assert_eq!(probe.self_ns, probe.host_ns);
        assert_eq!(vol.sim_ns, 3 * 7);
    }

    #[test]
    fn span_file_lists_aggregate_and_raw_spans() {
        let tr = Tracer::new();
        let v = traced(Some(&tr), "docstore.get", 7, 100, || (42, 150));
        assert_eq!(v, 42);
        assert_eq!(traced(None, "docstore.get", 8, 0, || (1, 1)), 1);
        assert_eq!(
            traced_io(Some(&tr), "volume.read", 9, 5, || Err::<Nanos, _>("bad")),
            Err("bad")
        );
        assert_eq!(tr.totals("volume.read").sim_ns, 0);
        let doc = tr.to_json("ycsb_doc");
        assert!(doc.contains("\"workload\":\"ycsb_doc\""));
        assert!(doc.contains("\"name\":\"docstore.get\",\"count\":1"));
        assert!(doc.contains("\"op\":7"));
        assert!(doc.contains("\"parent\":null"));
        assert_eq!(tr.kept_len(), 2);
        tr.reset();
        assert_eq!((tr.kept_len(), tr.totals("docstore.get").count), (0, 0));
    }

    #[test]
    #[should_panic(expected = "LIFO")]
    fn mismatched_end_is_a_bug() {
        let tr = Tracer::new();
        tr.begin("a", 0, 0);
        tr.end("b", 0);
    }
}
