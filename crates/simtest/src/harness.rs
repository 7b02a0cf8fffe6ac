//! Replays op sequences against the real implementations, checking every
//! observable against the shadow oracles and auditing structural
//! invariants after every single step.
//!
//! Every case runs with latency anatomy enabled: each op executes inside a
//! telemetry frame and the audit after every step asserts the conservation
//! identity (attributed segments never exceed the op's wall latency) and
//! that a GC-interference segment only ever appears when the device's GC
//! clock actually advanced during that op.

use docstore::{DocStore, DocStoreConfig};
use durassd::{Ssd, SsdConfig};
use relstore::{Engine, EngineConfig};
use simkit::rng::SimRng;
use simkit::Nanos;
use storage::device::{BlockDevice, LOGICAL_PAGE};
use telemetry::{SegKind, Telemetry};

use crate::ops::{generate, Alphabet, Op};
use crate::oracle::{page_bytes, parse_page, DeviceOracle, KvOracle};

/// Which stack a case drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Capacitor-backed SSD, strict durability oracle.
    Dura,
    /// Volatile-cache SSD, relaxed post-cut oracle + invariants.
    Volatile,
    /// Relational engine (paper's lean config: no barriers, no double
    /// write) on DuraSSD data + log devices.
    Engine,
    /// The same engine and mount shaped so that redo has work: an 8-frame
    /// pool over thousands of keys, checkpoints only when the trace says
    /// so, cuts landing with a long log tail outstanding.
    EngineRedo,
    /// Document store on a DuraSSD.
    Doc,
}

impl Target {
    pub fn name(&self) -> &'static str {
        match self {
            Target::Dura => "dura",
            Target::Volatile => "volatile",
            Target::Engine => "engine",
            Target::EngineRedo => "engine_redo",
            Target::Doc => "doc",
        }
    }

    pub fn parse(s: &str) -> Option<Target> {
        match s {
            "dura" => Some(Target::Dura),
            "volatile" => Some(Target::Volatile),
            "engine" => Some(Target::Engine),
            "engine_redo" => Some(Target::EngineRedo),
            "doc" => Some(Target::Doc),
            _ => None,
        }
    }

    pub fn all() -> [Target; 5] {
        [Target::Dura, Target::Volatile, Target::Engine, Target::EngineRedo, Target::Doc]
    }

    fn alphabet(&self) -> Alphabet {
        match self {
            Target::Dura | Target::Volatile => Alphabet::Device,
            Target::Engine | Target::Doc => Alphabet::Store,
            Target::EngineRedo => Alphabet::Redo,
        }
    }
}

/// A divergence between implementation and oracle (or an invariant
/// violation), pinned to the step that surfaced it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Index into the op sequence.
    pub step: usize,
    /// Trace token of the offending op.
    pub op: String,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "step {} (op `{}`): {}", self.step, self.op, self.msg)
    }
}

/// The fuzzing device: tiny geometry shrunk further (8 blocks/plane) so
/// GC pressure arrives within a few hundred ops, a small cache so drain
/// and coalesce paths run hot, and a modest logical space so overwrite
/// chains and preimages are common.
fn fuzz_cfg(volatile: bool) -> SsdConfig {
    let base = if volatile { SsdConfig::tiny_volatile() } else { SsdConfig::tiny_test() };
    base.to_builder().blocks_per_plane(8).logical_capacity_pages(192).cache_slots(8).build()
}

/// Logical capacity the device generators draw lpns from.
pub fn device_lpn_space() -> u64 {
    192
}

/// Generate the op sequence for `(target, seed, nops)` and run it.
/// Returns the sequence (for shrinking) and the verdict.
pub fn run_seed(target: Target, seed: u64, nops: usize) -> (Vec<Op>, Result<(), Failure>) {
    let mut rng = SimRng::seed_from_u64(seed);
    let ops = generate(&mut rng, target.alphabet(), nops, device_lpn_space());
    let verdict = run_case(target, &ops);
    (ops, verdict)
}

/// Replay `ops` against `target` from a fresh stack.
///
/// Panics inside the stack under test are caught and reported as
/// failures — a fuzzer that dies on the first `unwrap` can neither
/// shrink the trace nor keep hunting.
pub fn run_case(target: Target, ops: &[Op]) -> Result<(), Failure> {
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match target {
        Target::Dura => run_device_case(ops, false),
        Target::Volatile => run_device_case(ops, true),
        Target::Engine => run_engine_case(ops, &EngineCase::commit_interleavings()),
        Target::EngineRedo => run_engine_case(ops, &EngineCase::redo_outstanding()),
        Target::Doc => run_doc_case(ops),
    }));
    match run {
        Ok(verdict) => verdict,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            Err(Failure { step: ops.len(), op: "<panic>".into(), msg: format!("panic: {msg}") })
        }
    }
}

fn fail(step: usize, op: &Op, msg: impl Into<String>) -> Failure {
    Failure { step, op: op.to_string(), msg: msg.into() }
}

/// A fresh anatomy-enabled registry for one fuzz case.
fn fuzz_tel() -> Telemetry {
    let tel = Telemetry::new();
    tel.enable_anatomy(4);
    tel
}

/// The per-step anatomy audit: the conservation counter must never tick,
/// and no frame may be left dangling between steps.
fn audit_anatomy(tel: &Telemetry) -> Result<(), String> {
    if tel.anatomy_violations() > 0 {
        let last = tel.last_breakdown().map(|b| b.to_json()).unwrap_or_default();
        return Err(format!("anatomy conservation violated (last op: {last})"));
    }
    if tel.frame_depth() != 0 {
        return Err(format!("{} anatomy frame(s) left open after the op", tel.frame_depth()));
    }
    Ok(())
}

// ---------------------------------------------------------------- device

struct DeviceCase {
    dev: Ssd,
    now: Nanos,
    oracle: DeviceOracle,
    tel: Telemetry,
    /// GC clock at the open of the current frame; a `gc_wait` segment in
    /// the closing breakdown without this clock advancing is a false
    /// attribution.
    gc_mark: Nanos,
}

impl DeviceCase {
    fn new(volatile: bool) -> Self {
        let cfg = fuzz_cfg(volatile);
        let cap = cfg.logical_capacity_pages;
        let tel = fuzz_tel();
        let mut dev = Ssd::new(cfg);
        dev.attach_telemetry(tel.clone());
        Self { dev, now: 0, oracle: DeviceOracle::new(cap, volatile), tel, gc_mark: 0 }
    }

    /// Run one device command inside an anatomy frame, auditing the
    /// conservation identity and GC attribution when it closes. A failed
    /// command drops its frame, which closes it at issue time, so no frame
    /// dangles.
    fn framed_raw<E>(
        &mut self,
        name: &'static str,
        issue: Nanos,
        f: impl FnOnce(&mut Ssd) -> Result<Nanos, E>,
    ) -> Result<Result<Nanos, E>, String> {
        self.gc_mark = self.dev.gc_time();
        let frame = self.tel.frame(name, issue);
        let res = f(&mut self.dev).map(|done| frame.end(done));
        self.audit(name)?;
        Ok(res)
    }

    /// [`DeviceCase::framed_raw`] for commands that must succeed.
    fn framed<E: std::fmt::Display>(
        &mut self,
        name: &'static str,
        issue: Nanos,
        f: impl FnOnce(&mut Ssd) -> Result<Nanos, E>,
    ) -> Result<Nanos, String> {
        self.framed_raw(name, issue, f)?.map_err(|e| format!("{name} failed: {e}"))
    }

    fn audit(&self, name: &str) -> Result<(), String> {
        audit_anatomy(&self.tel).map_err(|m| format!("{name}: {m}"))?;
        if let Some(bd) = self.tel.last_breakdown() {
            let gc = bd.seg(SegKind::GcWait);
            if gc > 0 && self.dev.gc_time() == self.gc_mark {
                return Err(format!(
                    "{name}: breakdown charges {gc}ns of gc_wait but GC never ran during the op"
                ));
            }
        }
        Ok(())
    }

    fn acked_write(&mut self, lpn: u64, pages: u32) -> Result<(), String> {
        let v = self.oracle.issue_version();
        let mut data = Vec::with_capacity(pages as usize * LOGICAL_PAGE);
        for i in 0..pages as u64 {
            data.extend_from_slice(&page_bytes(lpn + i, v));
        }
        let now = self.now;
        let done = self.framed("dev.write", now, |d| d.write(lpn, &data, now))?;
        self.now = self.now.max(done);
        for i in 0..pages as u64 {
            self.oracle.write(lpn + i, v);
        }
        Ok(())
    }

    fn checked_read(&mut self, lpn: u64, pages: u32) -> Result<(), String> {
        let mut buf = vec![0u8; pages as usize * LOGICAL_PAGE];
        let now = self.now;
        match self.framed_raw("dev.read", now, |d| d.read(lpn, pages, &mut buf, now))? {
            Ok(done) => {
                self.now = self.now.max(done);
                for i in 0..pages as u64 {
                    let off = i as usize * LOGICAL_PAGE;
                    let obs = parse_page(&buf[off..off + LOGICAL_PAGE]);
                    self.oracle.check_read(lpn + i, &obs)?;
                }
                Ok(())
            }
            Err(e) => self.oracle.check_read_err(lpn, pages, &e),
        }
    }

    fn apply(&mut self, op: &Op) -> Result<(), String> {
        match *op {
            Op::Write { lpn, pages } => self.acked_write(lpn, pages),
            Op::Read { lpn, pages } => self.checked_read(lpn, pages),
            Op::Trim { lpn, pages } => {
                let now = self.now;
                let done = self.framed("dev.discard", now, |d| d.discard(lpn, pages, now))?;
                self.now = self.now.max(done);
                for i in 0..pages as u64 {
                    self.oracle.trim(lpn + i);
                }
                Ok(())
            }
            Op::Flush => {
                let now = self.now;
                let done = self.framed("dev.flush", now, |d| d.flush(now))?;
                self.now = self.now.max(done);
                self.oracle.flush();
                Ok(())
            }
            Op::Burst { lpn, n } => {
                // All issued at the same clock value: NCQ-depth pressure.
                // Each write gets its own frame — overlapping commands at
                // one t0 must each conserve individually.
                let t0 = self.now;
                let mut latest = t0;
                for i in 0..n as u64 {
                    let v = self.oracle.issue_version();
                    let data = page_bytes(lpn + i, v);
                    let done = self.framed("dev.write", t0, |d| d.write(lpn + i, &data, t0))?;
                    latest = latest.max(done);
                    self.oracle.write(lpn + i, v);
                }
                self.now = self.now.max(latest);
                Ok(())
            }
            Op::GcFill { start, pages } => {
                let cap = self.dev.config().logical_capacity_pages;
                for i in 0..pages as u64 {
                    let l = (start + i) % cap;
                    self.acked_write(l, 1)?;
                }
                Ok(())
            }
            Op::PowerCut => {
                self.dev.power_cut(self.now);
                self.oracle.power_cut();
                let up = self.now + 10_000_000;
                self.now = self.dev.reboot(up).max(up);
                Ok(())
            }
            Op::CutDuringWrite { lpn, pages } => {
                let v = self.oracle.issue_version();
                let mut data = Vec::with_capacity(pages as usize * LOGICAL_PAGE);
                for i in 0..pages as u64 {
                    data.extend_from_slice(&page_bytes(lpn + i, v));
                }
                let now = self.now;
                let done = self.framed("dev.write", now, |d| d.write(lpn, &data, now))?;
                // Cut strictly inside the un-acked window: the host never
                // saw the ack, so the write must roll back completely.
                self.dev.power_cut(done.saturating_sub(1));
                self.oracle.aborted_write(lpn, pages);
                self.oracle.power_cut();
                let up = done + 10_000_000;
                self.now = self.dev.reboot(up).max(up);
                Ok(())
            }
            Op::TrimCutDuringWrite { lpn } => {
                let v = self.oracle.issue_version();
                let data = page_bytes(lpn, v);
                let now = self.now;
                let done = self.framed("dev.write", now, |d| d.write(lpn, &data, now))?;
                // TRIM the same lpn while the write is still un-acked...
                self.framed("dev.discard", now, |d| d.discard(lpn, 1, now))?;
                // ...then cut before the ack. The un-acked write rolls
                // back; the trim is the last surviving word on this lpn.
                self.dev.power_cut(done.saturating_sub(1));
                self.oracle.aborted_write(lpn, 1);
                self.oracle.trim(lpn);
                self.oracle.power_cut();
                let up = done + 10_000_000;
                self.now = self.dev.reboot(up).max(up);
                Ok(())
            }
            _ => Err(format!("op {op} is not a device op")),
        }
    }
}

fn run_device_case(ops: &[Op], volatile: bool) -> Result<(), Failure> {
    let mut case = DeviceCase::new(volatile);
    for (step, op) in ops.iter().enumerate() {
        case.apply(op).map_err(|msg| fail(step, op, msg))?;
        case.dev
            .check_invariants()
            .map_err(|msg| fail(step, op, format!("invariant violation: {msg}")))?;
    }
    Ok(())
}

// ---------------------------------------------------------------- engine

fn key_of(key: u64) -> Vec<u8> {
    format!("k{key:04}").into_bytes()
}

/// Bytes of `x` after a value's `v{version}:{key}:` head, as `(base,
/// spread)`: `base + version % spread`. A spread above 1 makes an overwrite
/// change how full its leaf is.
type Pad = (usize, u64);
const PAD_48: Pad = (48, 1);

fn val_of(key: u64, version: u64, (base, spread): Pad) -> Vec<u8> {
    format!("v{version}:{key}:{}", "x".repeat(base + (version % spread) as usize)).into_bytes()
}

/// Decode a stored value back to its version number.
fn version_of(val: &[u8], key: u64, pad: Pad) -> Result<u64, String> {
    let s = std::str::from_utf8(val).map_err(|_| format!("key {key}: non-utf8 value"))?;
    let rest = s.strip_prefix('v').ok_or_else(|| format!("key {key}: bad value {s:?}"))?;
    let (ver, _) = rest.split_once(':').ok_or_else(|| format!("key {key}: bad value {s:?}"))?;
    let v: u64 = ver.parse().map_err(|_| format!("key {key}: bad version in {s:?}"))?;
    if val != val_of(key, v, pad) {
        return Err(format!("key {key}: value body mangled: {s:?}"));
    }
    Ok(v)
}

/// What distinguishes one relational fuzz target from another: the mount
/// and the value sizes (the key space comes with the target's alphabet).
struct EngineCase {
    cfg: EngineConfig,
    pad: Pad,
}

/// The paper's lean mount on DuraSSD: no barriers, no double write — safe
/// *because* the cache is capacitor-backed. Exactly the claim the fuzzer
/// should hammer on.
fn lean_cfg(frames: u64, log_file_blocks: u64) -> EngineConfig {
    EngineConfig {
        buffer_pool_bytes: frames * 4096,
        double_write: false,
        barriers: false,
        data_pages: 512,
        log_files: 2,
        log_file_blocks,
        dwb_pages: 16,
        ..EngineConfig::mysql_like(4096)
    }
}

impl EngineCase {
    /// `engine`: a pool that holds the whole one-leaf tree, and a
    /// commit-count policy with a short interval so the policy-driven
    /// `ckpt` op actually fires checkpoints mid-trace.
    fn commit_interleavings() -> Self {
        let checkpoint_policy = relstore::CheckpointPolicy::EveryNCommits(6);
        Self { cfg: EngineConfig { checkpoint_policy, ..lean_cfg(32, 64) }, pad: PAD_48 }
    }

    /// `engine_redo`: eight frames under a tree of dozens of leaves, values
    /// of 70–130 bytes, a log that holds a whole trace, and checkpoints
    /// only where the trace has a `ck`.
    fn redo_outstanding() -> Self {
        let checkpoint_policy = relstore::CheckpointPolicy::Explicit;
        Self { cfg: EngineConfig { checkpoint_policy, ..lean_cfg(8, 384) }, pad: (70, 61) }
    }
}

fn engine_dev() -> Ssd {
    Ssd::new(SsdConfig::tiny_test())
}

fn check_engine_invariants(e: &Engine<Ssd, Ssd>) -> Result<(), String> {
    e.data_volume().device().check_invariants().map_err(|m| format!("data dev: {m}"))?;
    e.log_volume().device().check_invariants().map_err(|m| format!("log dev: {m}"))
}

fn run_engine_case(ops: &[Op], case: &EngineCase) -> Result<(), Failure> {
    let EngineCase { cfg, pad } = *case;
    let tel = fuzz_tel();
    let mut data = engine_dev();
    data.attach_telemetry(tel.clone());
    let mut log = engine_dev();
    log.attach_telemetry(tel.clone());
    let (mut eng, t0) = Engine::create(data, log, cfg, 0).into_parts();
    eng.attach_telemetry(tel.clone());
    let (tree, t1) = eng.create_tree(t0).into_parts();
    let mut now = eng.checkpoint(t1);
    let mut oracle = KvOracle::new();
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Put { key } => {
                let v = oracle.issue_version();
                now = eng.put(tree, &key_of(key), &val_of(key, v, pad), now);
                oracle.put(key, v);
            }
            Op::GetKey { key } => {
                let (got, t) = eng.get(tree, &key_of(key), now).into_parts();
                now = t;
                let got_v = match got {
                    Some(bytes) => {
                        Some(version_of(&bytes, key, pad).map_err(|m| fail(step, op, m))?)
                    }
                    None => None,
                };
                let want = oracle.expect(key);
                if got_v != want {
                    return Err(fail(
                        step,
                        op,
                        format!("key {key}: engine returned {got_v:?}, oracle expects {want:?}"),
                    ));
                }
            }
            Op::Del { key } => {
                let (_, t) = eng.delete(tree, &key_of(key), now).into_parts();
                now = t;
                oracle.del(key);
            }
            Op::Commit => {
                now = eng.commit(now);
                oracle.commit();
            }
            Op::Checkpoint => {
                now = eng.checkpoint(now);
            }
            Op::Ckpt => {
                // Policy-driven: checkpoint only if the WAL's policy says
                // one is due — exercises the lag-one header advance.
                if eng.needs_checkpoint() {
                    now = eng.checkpoint(now);
                }
            }
            Op::CrashRecover => {
                let (d, l) = eng.crash(now + 1);
                let recovered = Engine::recover(d, l, cfg, now + 2)
                    .map_err(|e| fail(step, op, format!("recovery failed: {e}")))?;
                let (e2, t2) = recovered.into_parts();
                eng = e2;
                // The devices keep their telemetry through the crash;
                // recovery itself runs unframed, post-recovery ops frame
                // again once the engine is re-attached.
                eng.attach_telemetry(tel.clone());
                now = t2;
                for key in oracle.keys() {
                    let (got, t) = eng.get(tree, &key_of(key), now).into_parts();
                    now = t;
                    let got_v = match got {
                        Some(bytes) => {
                            Some(version_of(&bytes, key, pad).map_err(|m| fail(step, op, m))?)
                        }
                        None => None,
                    };
                    oracle.absorb_recovered(key, got_v).map_err(|m| fail(step, op, m))?;
                }
                oracle.finish_recovery();
                // The leaf chain must hold exactly what the point lookups
                // found: an invented, duplicated or misplaced key fails as
                // loudly as a lost one.
                let live: Vec<Vec<u8>> = oracle
                    .keys()
                    .into_iter()
                    .filter(|&key| oracle.expect(key).is_some())
                    .map(key_of)
                    .collect();
                // One more than can be right, so a looping chain ends.
                let (rows, t) = eng.scan(tree, b"", live.len() + 1, now).into_parts();
                now = t;
                let scanned: Vec<Vec<u8>> = rows.into_iter().map(|(k, _)| k).collect();
                if scanned != live {
                    let show = |keys: &[Vec<u8>], other: &[Vec<u8>]| {
                        let odd = keys.iter().filter(|k| !other.contains(k));
                        odd.map(|k| String::from_utf8_lossy(k).into_owned()).collect::<Vec<_>>()
                    };
                    return Err(fail(
                        step,
                        op,
                        format!(
                            "full scan returned {} keys, point lookups found {}: only in scan \
                             {:?}, missing from scan {:?}",
                            scanned.len(),
                            live.len(),
                            show(&scanned, &live),
                            show(&live, &scanned)
                        ),
                    ));
                }
            }
            _ => return Err(fail(step, op, "not a store op")),
        }
        check_engine_invariants(&eng)
            .map_err(|m| fail(step, op, format!("invariant violation: {m}")))?;
        audit_anatomy(&tel).map_err(|m| fail(step, op, format!("anatomy audit: {m}")))?;
    }
    Ok(())
}

// --------------------------------------------------------------- docstore

fn doc_cfg() -> DocStoreConfig {
    DocStoreConfig {
        batch_size: 4,
        barriers: false, // DuraSSD underneath: the lean mount
        file_blocks: 512,
        auto_compact_pct: 60,
    }
}

fn run_doc_case(ops: &[Op]) -> Result<(), Failure> {
    let tel = fuzz_tel();
    let mut dev = engine_dev();
    dev.attach_telemetry(tel.clone());
    let mut store = DocStore::create(dev, doc_cfg());
    store.attach_telemetry(tel.clone());
    let mut now: Nanos = store.commit_header(0);
    let mut oracle = KvOracle::new();
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Put { key } => {
                let v = oracle.issue_version();
                now = store.set(&key_of(key), &val_of(key, v, PAD_48), now);
                oracle.put(key, v);
            }
            Op::GetKey { key } => {
                let (got, t) = store.get(&key_of(key), now).into_parts();
                now = t;
                let got_v = match got {
                    Some(bytes) => {
                        Some(version_of(&bytes, key, PAD_48).map_err(|m| fail(step, op, m))?)
                    }
                    None => None,
                };
                let want = oracle.expect(key);
                if got_v != want {
                    return Err(fail(
                        step,
                        op,
                        format!("key {key}: docstore returned {got_v:?}, oracle expects {want:?}"),
                    ));
                }
            }
            Op::Del { key } => {
                now = store.delete(&key_of(key), now);
                oracle.del(key);
            }
            // Every header is the store's checkpoint: there is no policy
            // to consult.
            Op::Commit | Op::Ckpt => {
                now = store.commit_header(now);
                oracle.commit();
            }
            Op::Checkpoint => {
                now = store.compact(now);
            }
            Op::CrashRecover => {
                let dev = store.crash(now + 1);
                let (s2, t2) = DocStore::recover(dev, doc_cfg(), now + 2).into_parts();
                store = s2;
                store.attach_telemetry(tel.clone());
                now = t2;
                for key in oracle.keys() {
                    let (got, t) = store.get(&key_of(key), now).into_parts();
                    now = t;
                    let got_v = match got {
                        Some(bytes) => {
                            Some(version_of(&bytes, key, PAD_48).map_err(|m| fail(step, op, m))?)
                        }
                        None => None,
                    };
                    oracle.absorb_recovered(key, got_v).map_err(|m| fail(step, op, m))?;
                }
                oracle.finish_recovery();
            }
            _ => return Err(fail(step, op, "not a store op")),
        }
        store
            .device()
            .check_invariants()
            .map_err(|m| fail(step, op, format!("invariant violation: {m}")))?;
        audit_anatomy(&tel).map_err(|m| fail(step, op, format!("anatomy audit: {m}")))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::parse_trace;

    #[test]
    fn targets_parse_and_name_round_trip() {
        for t in Target::all() {
            assert_eq!(Target::parse(t.name()), Some(t));
        }
        assert_eq!(Target::parse("nope"), None);
    }

    #[test]
    fn simple_device_trace_passes() {
        let ops = parse_trace("w:1:1 w:2:2 r:1:1 f r:2:2 t:1:1 r:1:1").unwrap();
        assert!(run_case(Target::Dura, &ops).is_ok());
    }

    #[test]
    fn dura_survives_a_clean_cut() {
        let ops = parse_trace("w:3:1 cut r:3:1").unwrap();
        run_case(Target::Dura, &ops).unwrap();
    }

    #[test]
    fn unacked_write_rolls_back_on_dura() {
        let ops = parse_trace("w:3:1 f cw:3:1 r:3:1").unwrap();
        run_case(Target::Dura, &ops).unwrap();
    }

    #[test]
    fn harness_catches_a_planted_stale_read() {
        // Sanity-check the oracle actually bites: claim a write happened
        // that the device never saw.
        let mut case = DeviceCase::new(false);
        let v = case.oracle.issue_version();
        case.oracle.write(9, v); // planted lie
        assert!(case.checked_read(9, 1).is_err());
    }

    #[test]
    fn small_store_traces_pass() {
        let ops = parse_trace("p:1 p:2 gk:1 c gk:2 d:1 gk:1 c gk:1").unwrap();
        run_case(Target::Engine, &ops).unwrap();
        run_case(Target::Doc, &ops).unwrap();
    }

    #[test]
    fn gc_attribution_survives_gc_pressure() {
        // Hammer the 8-blocks/plane device into steady GC; the per-op audit
        // inside `framed` rejects any gc_wait segment charged to an op the
        // GC clock cannot explain, and requires exact conservation — so a
        // passing run IS the regression assertion.
        let ops =
            parse_trace("g:0:96 g:96:96 f g:0:96 b:0:8 g:96:96 r:5:1 g:0:96 f r:50:1").unwrap();
        run_case(Target::Dura, &ops).unwrap();
        run_case(Target::Volatile, &ops).unwrap();
    }

    #[test]
    fn anatomy_audit_holds_across_seeded_cases() {
        // A miniature soak (the CI soak runs hundreds of cases): every
        // target, a few seeds, per-op conservation audited at every step.
        for target in Target::all() {
            for seed in 0..5u64 {
                let (ops, verdict) = run_seed(target, 0xA0A0 + seed, 120);
                if let Err(f) = verdict {
                    panic!("{}/{seed}: {f} (trace: {} ops)", target.name(), ops.len());
                }
            }
        }
    }
}
