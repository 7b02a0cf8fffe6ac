//! Replays op sequences against the real implementations, checking every
//! observable against the shadow oracles and auditing structural
//! invariants after every single step. The device targets check against
//! [`DeviceOracle`]; the store targets record every unit into a
//! [`forensics::Ledger`] and, after each crash, probe and reconcile it.
//!
//! Every case runs with latency anatomy enabled: each op executes inside a
//! telemetry frame and the audit after every step asserts the conservation
//! identity (attributed segments never exceed the op's wall latency) and
//! that a GC-interference segment only ever appears when the device's GC
//! clock actually advanced during that op.

use docstore::{DocStore, DocStoreConfig};
use durassd::{Ssd, SsdConfig};
use forensics::{
    reconcile, AckContract, Classification, DevicePostmortem, Forensic, Intent, Ledger,
    ProbeResult, UnitKind,
};
use relstore::{Engine, EngineConfig, TreeId};
use simkit::rng::SimRng;
use simkit::Nanos;
use storage::device::{BlockDevice, LOGICAL_PAGE};
use telemetry::{SegKind, Telemetry};

use crate::ops::{generate, Alphabet, Op};
use crate::oracle::{page_bytes, parse_page, DeviceOracle};

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
        Target::Engine => run_store_case(ops, EngineStore::commit_interleavings()),
        Target::EngineRedo => run_store_case(ops, EngineStore::redo_outstanding()),
        Target::Doc => run_store_case(ops, doc_case()),
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
        let frame = self.tel.frame(self.tel.key(name), issue);
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

// ----------------------------------------------------------------- stores

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

/// A key-value store under test. What the relational engine and the
/// document store do differently lives in the two impls; one loop
/// ([`run_store_case`]) drives either.
trait Store: Sized {
    /// The unit the store records into its ledger.
    const KIND: UnitKind;
    /// Put `val` at `key`, or delete `key` when `val` is `None`.
    fn write(&mut self, key: &[u8], val: Option<&[u8]>, now: Nanos) -> Nanos;
    fn get(&mut self, key: &[u8], now: Nanos) -> (Option<Vec<u8>>, Nanos);
    /// `c`, `ck` or `ckpt`, as this store reads them.
    fn sync(&mut self, op: &Op, now: Nanos) -> Nanos;
    /// Cut power at `at`, harvest the devices' postmortems, recover and
    /// re-attach `tel`. Returns the recovered store and when it is ready.
    fn crash_recover(
        self,
        at: Nanos,
        tel: &Telemetry,
    ) -> Result<(Self, Nanos, Vec<DevicePostmortem>), String>;
    fn attach_ledger(&mut self, ledger: Ledger);
    fn check_invariants(&self) -> Result<(), String>;
    /// After a recovery: check what a full scan returns against `live`, the
    /// keys the probe read back. Returns the completion time.
    fn check_scan(&mut self, _live: &[Vec<u8>], now: Nanos) -> Result<Nanos, String> {
        Ok(now)
    }
}

/// A store ready for its first op, with the ledger it records into.
struct StoreCase<S> {
    store: S,
    ledger: Ledger,
    tel: Telemetry,
    now: Nanos,
    pad: Pad,
}

impl<S: Store> StoreCase<S> {
    fn new(mut store: S, tel: Telemetry, now: Nanos, pad: Pad) -> Self {
        // The stores sit on DuraSSDs: a barrierless ack is durable.
        let ledger = Ledger::new(AckContract::DurableCacheAck);
        store.attach_ledger(ledger.clone());
        Self { store, ledger, tel, now, pad }
    }
}

fn run_store_case<S: Store>(ops: &[Op], case: StoreCase<S>) -> Result<(), Failure> {
    let StoreCase { mut store, mut ledger, tel, mut now, pad } = case;
    let mut version = 0;
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Put { key } => {
                version += 1;
                now = store.write(&key_of(key), Some(&val_of(key, version, pad)), now);
            }
            Op::GetKey { key } => {
                let key = key_of(key);
                let (got, t) = store.get(&key, now);
                now = t;
                let want = ledger.latest(&key);
                if Intent::of(got.as_deref()) != want {
                    let got = got.map(|v| String::from_utf8_lossy(&v).into_owned());
                    let unit = Ledger::unit_name(&key);
                    let msg = format!("{unit}: read {got:?}, but the latest intent is {want:?}");
                    return Err(fail(step, op, msg));
                }
            }
            Op::Del { key } => now = store.write(&key_of(key), None, now),
            Op::Commit | Op::Checkpoint | Op::Ckpt => now = store.sync(op, now),
            Op::CrashRecover => {
                let cut_at = now + 1;
                let (recovered, ready, pms) =
                    store.crash_recover(cut_at, &tel).map_err(|m| fail(step, op, m))?;
                store = recovered;
                now = ready;
                let mut seen = Vec::new();
                let probes = ledger.probe(|key| {
                    let (got, t) = store.get(key, now);
                    now = t;
                    let result = ProbeResult::of(got.as_deref());
                    seen.push(got);
                    result
                });
                let label = S::KIND.as_str();
                let cut =
                    reconcile(label, step as u64, "cr", cut_at, &ledger, &probes, pms, vec![]);
                if !cut.durable {
                    let broken: Vec<String> = cut
                        .losses
                        .iter()
                        .filter(|f| f.classification != Classification::NeverAcked)
                        .map(|f| {
                            format!("{} [{}]: {}", f.unit, f.classification.as_str(), f.evidence)
                        })
                        .collect();
                    return Err(fail(step, op, format!("{}: {}", cut.verdict, broken.join("; "))));
                }
                let live: Vec<Vec<u8>> = probes
                    .iter()
                    .filter(|p| matches!(p.result, ProbeResult::Value(_)))
                    .map(|p| p.key.clone())
                    .collect();
                now = store.check_scan(&live, now).map_err(|m| fail(step, op, m))?;
                // What recovery returned is the state later checks hold the
                // store to: every unit as observed, acknowledged.
                ledger = Ledger::new(AckContract::DurableCacheAck);
                for (p, got) in probes.iter().zip(&seen) {
                    ledger.pend(S::KIND, &p.key, got.as_deref());
                }
                ledger.ack_all_pending(ready, false);
                store.attach_ledger(ledger.clone());
            }
            _ => return Err(fail(step, op, "not a store op")),
        }
        store
            .check_invariants()
            .map_err(|m| fail(step, op, format!("invariant violation: {m}")))?;
        audit_anatomy(&tel).map_err(|m| fail(step, op, format!("anatomy audit: {m}")))?;
    }
    Ok(())
}

// ---------------------------------------------------------------- engine

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

/// A store's device, reporting to `tel`.
fn store_dev(tel: &Telemetry) -> Ssd {
    let mut dev = Ssd::new(SsdConfig::tiny_test());
    dev.attach_telemetry(tel.clone());
    dev
}

/// The relational engine with its one tree.
struct EngineStore {
    eng: Engine<Ssd, Ssd>,
    tree: TreeId,
    cfg: EngineConfig,
}

impl EngineStore {
    /// A fresh engine on `cfg`, its tree created and checkpointed.
    fn case(cfg: EngineConfig, pad: Pad) -> StoreCase<Self> {
        let tel = fuzz_tel();
        let (mut eng, t0) = Engine::create(store_dev(&tel), store_dev(&tel), cfg, 0).into_parts();
        eng.attach_telemetry(tel.clone());
        let (tree, t1) = eng.create_tree(t0).into_parts();
        let now = eng.checkpoint(t1);
        StoreCase::new(EngineStore { eng, tree, cfg }, tel, now, pad)
    }

    /// `engine`: a pool that holds the whole one-leaf tree, and a
    /// commit-count policy with a short interval so the policy-driven
    /// `ckpt` op actually fires checkpoints mid-trace.
    fn commit_interleavings() -> StoreCase<Self> {
        let checkpoint_policy = relstore::CheckpointPolicy::EveryNCommits(6);
        Self::case(EngineConfig { checkpoint_policy, ..lean_cfg(32, 64) }, PAD_48)
    }

    /// `engine_redo`: eight frames under a tree of dozens of leaves, values
    /// of 70–130 bytes, a log that holds a whole trace, and checkpoints
    /// only where the trace has a `ck`.
    fn redo_outstanding() -> StoreCase<Self> {
        let checkpoint_policy = relstore::CheckpointPolicy::Explicit;
        Self::case(EngineConfig { checkpoint_policy, ..lean_cfg(8, 384) }, (70, 61))
    }
}

impl Store for EngineStore {
    const KIND: UnitKind = UnitKind::RelstoreCommit;

    fn write(&mut self, key: &[u8], val: Option<&[u8]>, now: Nanos) -> Nanos {
        match val {
            Some(val) => self.eng.put(self.tree, key, val, now),
            None => self.eng.delete(self.tree, key, now).done,
        }
    }

    fn get(&mut self, key: &[u8], now: Nanos) -> (Option<Vec<u8>>, Nanos) {
        self.eng.get(self.tree, key, now).into_parts()
    }

    fn sync(&mut self, op: &Op, now: Nanos) -> Nanos {
        match op {
            Op::Commit => self.eng.commit(now),
            // `ckpt` only if the WAL's policy says one is due — exercises
            // the lag-one header advance.
            Op::Ckpt if !self.eng.needs_checkpoint() => now,
            _ => self.eng.checkpoint(now),
        }
    }

    fn crash_recover(
        self,
        at: Nanos,
        tel: &Telemetry,
    ) -> Result<(Self, Nanos, Vec<DevicePostmortem>), String> {
        let (mut d, mut l) = self.eng.crash(at);
        let pms = d.take_postmortem().into_iter().chain(l.take_postmortem()).collect();
        let recovered =
            Engine::recover(d, l, self.cfg, at + 1).map_err(|e| format!("recovery failed: {e}"))?;
        let (mut eng, ready) = recovered.into_parts();
        // The devices keep their telemetry through the crash; recovery
        // itself runs unframed, post-recovery ops frame again once the
        // engine is re-attached.
        eng.attach_telemetry(tel.clone());
        Ok((EngineStore { eng, ..self }, ready, pms))
    }

    fn attach_ledger(&mut self, ledger: Ledger) {
        self.eng.attach_ledger(ledger);
    }

    fn check_invariants(&self) -> Result<(), String> {
        let e = &self.eng;
        e.data_volume().device().check_invariants().map_err(|m| format!("data dev: {m}"))?;
        e.log_volume().device().check_invariants().map_err(|m| format!("log dev: {m}"))
    }

    /// The leaf chain must hold exactly what the point lookups found: an
    /// invented, duplicated or misplaced key fails as loudly as a lost one.
    fn check_scan(&mut self, live: &[Vec<u8>], now: Nanos) -> Result<Nanos, String> {
        // One more than can be right, so a looping chain ends.
        let (rows, t) = self.eng.scan(self.tree, b"", live.len() + 1, now).into_parts();
        let scanned: Vec<Vec<u8>> = rows.into_iter().map(|(k, _)| k).collect();
        if scanned == live {
            return Ok(t);
        }
        let show = |keys: &[Vec<u8>], other: &[Vec<u8>]| {
            let odd = keys.iter().filter(|k| !other.contains(k));
            odd.map(|k| String::from_utf8_lossy(k).into_owned()).collect::<Vec<_>>()
        };
        Err(format!(
            "full scan returned {} keys, point lookups found {}: only in scan {:?}, missing \
             from scan {:?}",
            scanned.len(),
            live.len(),
            show(&scanned, live),
            show(live, &scanned)
        ))
    }
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

fn doc_case() -> StoreCase<DocStore<Ssd>> {
    let tel = fuzz_tel();
    let mut store = DocStore::create(store_dev(&tel), doc_cfg());
    store.attach_telemetry(tel.clone());
    let now = store.commit_header(0);
    StoreCase::new(store, tel, now, PAD_48)
}

impl Store for DocStore<Ssd> {
    const KIND: UnitKind = UnitKind::DocstoreUpdate;

    fn write(&mut self, key: &[u8], val: Option<&[u8]>, now: Nanos) -> Nanos {
        match val {
            Some(val) => self.set(key, val, now),
            None => self.delete(key, now),
        }
    }

    fn get(&mut self, key: &[u8], now: Nanos) -> (Option<Vec<u8>>, Nanos) {
        DocStore::get(self, key, now).into_parts()
    }

    fn sync(&mut self, op: &Op, now: Nanos) -> Nanos {
        match op {
            Op::Checkpoint => self.compact(now),
            // Every header is the store's checkpoint: `ckpt` has no policy
            // to consult.
            _ => self.commit_header(now),
        }
    }

    fn crash_recover(
        self,
        at: Nanos,
        tel: &Telemetry,
    ) -> Result<(Self, Nanos, Vec<DevicePostmortem>), String> {
        let mut dev = self.crash(at);
        let pms = dev.take_postmortem().into_iter().collect();
        let (mut store, ready) = DocStore::recover(dev, doc_cfg(), at + 1).into_parts();
        store.attach_telemetry(tel.clone());
        Ok((store, ready, pms))
    }

    fn attach_ledger(&mut self, ledger: Ledger) {
        DocStore::attach_ledger(self, ledger);
    }

    fn check_invariants(&self) -> Result<(), String> {
        self.device().check_invariants()
    }
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

    /// Plant an acknowledged put of `k0009` that the store never received,
    /// then run `trace`: the case must fail at the crash, naming the key.
    fn planted_ack_fails<S: Store>(case: StoreCase<S>, trace: &str) {
        case.ledger.pend(S::KIND, &key_of(9), Some(b"planted"));
        case.ledger.ack_all_pending(case.now, false);
        let err = run_store_case(&parse_trace(trace).unwrap(), case).unwrap_err();
        assert_eq!(err.op, "cr", "{err}");
        assert!(err.msg.contains("k0009 [acked-lost]"), "{err}");
    }

    #[test]
    fn store_oracle_catches_a_planted_lost_ack() {
        planted_ack_fails(EngineStore::commit_interleavings(), "p:1 c cr");
        planted_ack_fails(EngineStore::redo_outstanding(), "p:1 c cr");
        planted_ack_fails(doc_case(), "p:1 c cr");
    }

    #[test]
    fn docstore_acks_each_batch_without_a_commit() {
        // batch_size 4: the fourth set writes a header, and the ledger holds
        // the store to that acknowledgement across the cut.
        let case = doc_case();
        let ledger = case.ledger.clone();
        run_store_case(&parse_trace("p:1 p:2 p:3 p:4 cr gk:1 gk:4").unwrap(), case).unwrap();
        for key in 1..=4 {
            let unit = ledger.history(&key_of(key)).unwrap();
            assert_eq!((unit.acked.len(), unit.pending.len()), (1, 0), "k{key:04}");
        }
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
