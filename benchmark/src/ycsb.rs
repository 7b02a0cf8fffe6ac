//! `ycsb_doc`: YCSB workload A (50 % reads / 50 % updates, zipfian, one
//! client) on the document store over a DuraSSD, `batch_size: 1`, no
//! barriers, auto-compaction at 75 %.
//!
//! Records are loaded through `workloads::ycsb::load`; the measured loop is
//! the benchmark's own copy of `workloads::ycsb::run` (same spec, key and
//! value format, CPU model) so that every get is checked against a shadow
//! `key -> last committed tag` and every op's simulated latency is kept.

use crate::common::{
    build_ssd, repeat_setup, run_segments, Ctx, Device, LatencySummary, Outcome, Tally,
};
use crate::layers::{self, DevSnap};
use crate::probe::{Probe, MAIN};
use crate::spans::traced;
use crate::stats::Fingerprint;
use docstore::{DocStats, DocStore, DocStoreConfig};
use durassd::Ssd;
use simkit::dist::{rng, Rng, ScrambledZipfian};
use simkit::{ClosedLoop, Nanos};
use storage::device::BlockDevice;
use telemetry::Telemetry;
use workloads::cpu::CpuModel;
use workloads::ycsb::{self, YcsbSpec};

/// Records loaded before the measured phase.
pub const RECORDS: u64 = 50_000;
/// Ops per segment per `--seconds`.
pub const SEG_OPS_PER_SECOND: u64 = 3_200;
/// Warm-up ops after the load.
const WARMUP_OPS: u64 = 8_000;
/// Upper bound (ns) of the seeded per-op jitter added to the client's CPU
/// cost, for the same reason as `FioDef::submit_jitter_ns`: set and cached-get
/// latencies are otherwise a handful of constants that no seed moves.
const CPU_JITTER_NS: u64 = 1_000;
/// Append-file size in 4 KiB blocks: small enough that compaction cycles
/// several times inside the measured phase.
const FILE_BLOCKS: u64 = 64_000;

/// Store configuration of the workload.
pub fn config() -> DocStoreConfig {
    DocStoreConfig {
        batch_size: 1,
        barriers: false,
        file_blocks: FILE_BLOCKS,
        auto_compact_pct: 75,
        ..DocStoreConfig::new()
    }
}

fn key_of(i: u64) -> Vec<u8> {
    format!("user{i:012}").into_bytes()
}

/// The store plus the shadow map and the per-op records.
pub struct YcsbState<D: BlockDevice> {
    store: DocStore<D>,
    spec: YcsbSpec,
    chooser: ScrambledZipfian,
    cpu: CpuModel,
    /// `shadow[i]` is the tag of the last committed value of record `i`.
    shadow: Vec<u64>,
    value: Vec<u8>,
    next_tag: u64,
    now: Nanos,
    op_no: u64,
    tally: Tally,
    lat_get: Vec<u64>,
    lat_set: Vec<u64>,
    recording: bool,
    /// Simulated ns of sets during which a compaction ran.
    compaction_sim_ns: Nanos,
    ctx: Ctx,
}

impl<D: BlockDevice> YcsbState<D> {
    /// Create the store on `dev` and load `records` records.
    pub fn load(
        dev: D,
        cfg: DocStoreConfig,
        records: u64,
        tel: Option<&Telemetry>,
        ctx: &Ctx,
    ) -> Self {
        let mut store = DocStore::create(dev, cfg);
        if let Some(tel) = tel {
            store.attach_telemetry(tel.clone());
        }
        let spec = YcsbSpec::workload_a(records, 0);
        let now = ycsb::load(&mut store, &spec, 0);
        Self {
            store,
            chooser: ScrambledZipfian::new(records),
            cpu: CpuModel::new(spec.clients, spec.cpu_per_op),
            shadow: (0..records).collect(),
            value: vec![b'v'; spec.value_size],
            next_tag: records,
            spec,
            now,
            op_no: 0,
            tally: Tally::default(),
            lat_get: Vec::new(),
            lat_set: Vec::new(),
            recording: false,
            compaction_sim_ns: 0,
            ctx: ctx.clone(),
        }
    }

    fn check(&self, record: u64, got: Option<&[u8]>) -> bool {
        got.is_some_and(|v| {
            v.len() == self.spec.value_size
                && v[..8] == self.shadow[record as usize].to_le_bytes()
                && v[8..].iter().all(|&b| b == b'v')
        })
    }

    /// Run `ops` ops of segment `stream` (its own seed) on one client.
    pub fn run(&mut self, ops: u64, stream: u64) {
        let mut r = rng(self.ctx.derive_seed(0xCB00 + stream));
        let mut driver = ClosedLoop::new(self.spec.clients, self.now);
        let rep = driver.run(ops, |_, now| {
            self.op_no += 1;
            let record = self.chooser.sample(&mut r);
            let key = key_of(record);
            let t0 = self.cpu.charge(now) + r.gen_range(0..=CPU_JITTER_NS);
            let tracer = self.ctx.tracer.as_ref();
            let is_set = r.gen_bool(self.spec.update_fraction);
            let done = if is_set {
                self.next_tag += 1;
                self.value[..8].copy_from_slice(&self.next_tag.to_le_bytes());
                let before = self.store.stats().compactions;
                let (store, value) = (&mut self.store, &self.value);
                let done = traced(tracer, "docstore.set", self.op_no, t0, || {
                    let d = store.set(&key, value, t0);
                    (d, d)
                });
                self.shadow[record as usize] = self.next_tag;
                if self.store.stats().compactions > before {
                    self.compaction_sim_ns += done - t0;
                }
                self.tally.note(true);
                done
            } else {
                let store = &mut self.store;
                let got = traced(tracer, "docstore.get", self.op_no, t0, || {
                    let g = store.get(&key, t0);
                    let d = g.done;
                    (g, d)
                });
                self.tally.note(self.check(record, got.value.as_deref()));
                got.done
            };
            if self.recording {
                if is_set { &mut self.lat_set } else { &mut self.lat_get }.push(done - now);
            }
            done
        });
        self.now = rep.finished_at;
    }

    /// Start recording latencies with room for `ops` samples.
    pub fn start_recording(&mut self, ops: u64) {
        self.recording = true;
        self.lat_get.reserve(ops as usize * 6 / 10);
        self.lat_set.reserve(ops as usize * 6 / 10);
    }

    /// Power cut 1 ns after the last ack, `DocStore::recover`, first get,
    /// then every record must read back with its last committed value.
    /// Returns the simulated recovery time and the recovered state's stats.
    pub fn crash_and_verify(mut self, cfg: DocStoreConfig) -> (Nanos, Tally) {
        let cut = self.now + 1;
        self.recording = false;
        let tracer = self.ctx.tracer.clone();
        let store = self.store;
        let dev = store.crash(cut);
        let rec = traced(tracer.as_ref(), "docstore.recover", 0, cut, || {
            let r = DocStore::recover(dev, cfg, cut);
            let d = r.done;
            (r, d)
        });
        let mut t = rec.done + self.ctx.first_op_delay();
        self.store = rec.value;
        // A recovered store starts with a cold object cache, so these gets
        // read the device.
        let mut recovery = 0;
        for record in 0..self.spec.records {
            let got = self.store.get(&key_of(record), t);
            t = got.done;
            self.tally.note(self.check(record, got.value.as_deref()));
            if recovery == 0 {
                recovery = t - cut;
            }
        }
        (recovery, self.tally)
    }
}

fn doc_fingerprint(fp: &mut Fingerprint, a: &DocStats, b: &DocStats) {
    fp.add_all(&[
        b.sets - a.sets,
        b.gets - a.gets,
        b.cache_hits - a.cache_hits,
        b.headers - a.headers,
        b.bytes_appended - a.bytes_appended,
        b.compactions - a.compactions,
    ]);
}

fn build(ctx: &Ctx) -> (YcsbState<Probe<Ssd>>, Option<Telemetry>) {
    let tel = ctx.telemetry();
    let dev = build_ssd(Device::DuraSsd, MAIN, ctx, tel.as_ref());
    let mut st = YcsbState::load(dev, config(), ctx.scaled(RECORDS), tel.as_ref(), ctx);
    st.run(ctx.scaled(WARMUP_OPS), 99);
    (st, tel)
}

/// Run `ycsb_doc` end to end.
pub fn run(ctx: &Ctx) -> Outcome {
    let ((mut st, tel), setup_s) = repeat_setup(ctx, 1, || build(ctx));
    let seg_ops = ctx.seg_ops(SEG_OPS_PER_SECOND);
    st.start_recording(seg_ops * crate::common::SEGMENTS as u64);
    if let Some(tel) = &tel {
        tel.reset();
    }
    let ssd = |st: &YcsbState<Probe<Ssd>>| DevSnap::take(st.store.device().inner(), 0);
    let (snap0, doc0) = (ssd(&st), st.store.stats());
    let start = st.now;
    let measured = run_segments(ctx, tel.as_ref(), start, |i, _| {
        st.run(seg_ops, i as u64);
        (seg_ops, st.now)
    });
    let (delta, doc1) = (snap0.delta(&ssd(&st)), st.store.stats());

    let mut fp = Fingerprint::default();
    let latency = LatencySummary::from_samples(&mut st.lat_get, &mut st.lat_set, &mut fp);
    delta.fingerprint(&mut fp);
    doc_fingerprint(&mut fp, &doc0, &doc1);
    fp.add(measured.sim_ns());

    let mut out = Outcome::new(measured, latency, setup_s, fp);
    out.media_pages = delta.stats.media_pages_written;
    let compactions = doc1.compactions - doc0.compactions;
    out.notes.push(format!("regime: {compactions} compactions in the measured phase"));
    if compactions < 3 && ctx.full_scale() {
        out.regime_failures.push(format!("ycsb_doc: only {compactions} compactions measured"));
    }

    if ctx.traced() {
        let tel = tel.as_ref().expect("traced pass has telemetry");
        layers::shared_layers(&mut out, &[delta], 1, 1.0, ctx, tel);
        layers::docstore_layers(
            &mut out.layers,
            &doc0,
            &doc1,
            st.compaction_sim_ns,
            &out.measured,
            ctx,
        );
        layers::require_no_flush_cache(&mut out);
    }

    let (recovery, tally) = st.crash_and_verify(config());
    out.recovery_ns = recovery;
    out.fingerprint.add(recovery);
    out.tally = tally;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::testdev::MemDevice;

    fn tiny() -> DocStoreConfig {
        DocStoreConfig { file_blocks: 8_192, ..config() }
    }

    #[test]
    fn gets_match_the_shadow_before_and_after_recovery() {
        let ctx = Ctx { seed: 9, seconds: 1, scale_pct: 100, tracer: None };
        let mut st = YcsbState::load(MemDevice::new(8_192), tiny(), 200, None, &ctx);
        st.start_recording(600);
        st.run(600, 0);
        assert_eq!(st.tally, Tally { attempted: 600, failed: 0 });
        assert_eq!(st.lat_get.len() + st.lat_set.len(), 600);
        assert!(st.shadow.iter().any(|&t| t >= 200), "some record was updated");
        let (recovery, tally) = st.crash_and_verify(tiny());
        assert!(recovery > 0);
        assert_eq!(tally, Tally { attempted: 800, failed: 0 });
    }

    #[test]
    fn a_stale_shadow_entry_is_a_failure() {
        let ctx = Ctx { seed: 9, seconds: 1, scale_pct: 100, tracer: None };
        let mut st = YcsbState::load(MemDevice::new(8_192), tiny(), 50, None, &ctx);
        st.shadow[7] = 1_000_000;
        let (_, tally) = st.crash_and_verify(tiny());
        assert_eq!(tally, Tally { attempted: 50, failed: 1 });
    }
}
