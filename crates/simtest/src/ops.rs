//! The operation alphabet, its textual trace encoding, and the seeded
//! generator.
//!
//! One unified [`Op`] enum covers all fuzz targets; each target's generator
//! draws from the subset that makes sense for it. Ops carry *every* random
//! choice explicitly (lpns, page counts, fill cursors) so a trace string is
//! a complete, machine-independent reproduction — versions and payload
//! bytes are derived deterministically during replay.

use simkit::rng::{Rng, SimRng};

/// One step of a fuzz case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    // ---- block-device targets ----
    /// Acked write of `pages` logical pages at `lpn`; the clock advances to
    /// the device's acknowledgement time.
    Write { lpn: u64, pages: u32 },
    /// Read + oracle check of `pages` logical pages at `lpn`.
    Read { lpn: u64, pages: u32 },
    /// TRIM (`discard`) of `pages` logical pages at `lpn`.
    Trim { lpn: u64, pages: u32 },
    /// FLUSH CACHE barrier.
    Flush,
    /// `n` single-page writes at `lpn..lpn+n` all issued at the *same*
    /// clock value (NCQ-depth burst), then the clock jumps to the latest
    /// acknowledgement.
    Burst { lpn: u64, n: u32 },
    /// Sequential overwrite sweep: `pages` single-page writes starting at
    /// `start` (mod capacity) — builds GC pressure near the free-block
    /// threshold.
    GcFill { start: u64, pages: u32 },
    /// Power cut at the current clock (everything issued so far is acked,
    /// drains may still be in flight), then reboot.
    PowerCut,
    /// Issue a write, cut power one nanosecond *before* its ack, reboot:
    /// exercises the atomic-writer rollback path.
    CutDuringWrite { lpn: u64, pages: u32 },
    /// Issue a write, TRIM the same lpn while the write is still un-acked,
    /// cut before the ack, reboot: trim-vs-inflight-preimage interaction.
    TrimCutDuringWrite { lpn: u64 },

    // ---- store targets (relational engine / document store) ----
    /// Upsert a deterministic value for `key`.
    Put { key: u64 },
    /// Point lookup + oracle check.
    GetKey { key: u64 },
    /// Delete `key`.
    Del { key: u64 },
    /// Engine: `commit`; DocStore: `commit_header`.
    Commit,
    /// Engine: `checkpoint`; DocStore: `compact`.
    Checkpoint,
    /// Policy-driven checkpoint: engine checkpoints only if its
    /// [`wal::CheckpointPolicy`] says one is due; DocStore has no policy
    /// (every header is its checkpoint) and commits a header.
    Ckpt,
    /// Crash the store (power-cuts the device(s) underneath), recover,
    /// audit every key against the shadow model.
    CrashRecover,
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Op::Write { lpn, pages } => write!(f, "w:{lpn}:{pages}"),
            Op::Read { lpn, pages } => write!(f, "r:{lpn}:{pages}"),
            Op::Trim { lpn, pages } => write!(f, "t:{lpn}:{pages}"),
            Op::Flush => write!(f, "f"),
            Op::Burst { lpn, n } => write!(f, "b:{lpn}:{n}"),
            Op::GcFill { start, pages } => write!(f, "g:{start}:{pages}"),
            Op::PowerCut => write!(f, "cut"),
            Op::CutDuringWrite { lpn, pages } => write!(f, "cw:{lpn}:{pages}"),
            Op::TrimCutDuringWrite { lpn } => write!(f, "tcw:{lpn}"),
            Op::Put { key } => write!(f, "p:{key}"),
            Op::GetKey { key } => write!(f, "gk:{key}"),
            Op::Del { key } => write!(f, "d:{key}"),
            Op::Commit => write!(f, "c"),
            Op::Checkpoint => write!(f, "ck"),
            Op::Ckpt => write!(f, "ckpt"),
            Op::CrashRecover => write!(f, "cr"),
        }
    }
}

/// Render an op sequence as a whitespace-separated trace string.
pub fn trace_string(ops: &[Op]) -> String {
    ops.iter().map(|o| o.to_string()).collect::<Vec<_>>().join(" ")
}

fn parse_u64(s: &str, tok: &str) -> Result<u64, String> {
    s.parse::<u64>().map_err(|_| format!("bad number {s:?} in token {tok:?}"))
}

/// Parse a trace string produced by [`trace_string`] (or written by hand).
pub fn parse_trace(trace: &str) -> Result<Vec<Op>, String> {
    let mut ops = Vec::new();
    for tok in trace.split_whitespace() {
        let parts: Vec<&str> = tok.split(':').collect();
        let op = match (parts[0], parts.len()) {
            ("w", 3) => Op::Write {
                lpn: parse_u64(parts[1], tok)?,
                pages: parse_u64(parts[2], tok)? as u32,
            },
            ("r", 3) => {
                Op::Read { lpn: parse_u64(parts[1], tok)?, pages: parse_u64(parts[2], tok)? as u32 }
            }
            ("t", 3) => {
                Op::Trim { lpn: parse_u64(parts[1], tok)?, pages: parse_u64(parts[2], tok)? as u32 }
            }
            ("f", 1) => Op::Flush,
            ("b", 3) => {
                Op::Burst { lpn: parse_u64(parts[1], tok)?, n: parse_u64(parts[2], tok)? as u32 }
            }
            ("g", 3) => Op::GcFill {
                start: parse_u64(parts[1], tok)?,
                pages: parse_u64(parts[2], tok)? as u32,
            },
            ("cut", 1) => Op::PowerCut,
            ("cw", 3) => Op::CutDuringWrite {
                lpn: parse_u64(parts[1], tok)?,
                pages: parse_u64(parts[2], tok)? as u32,
            },
            ("tcw", 2) => Op::TrimCutDuringWrite { lpn: parse_u64(parts[1], tok)? },
            ("p", 2) => Op::Put { key: parse_u64(parts[1], tok)? },
            ("gk", 2) => Op::GetKey { key: parse_u64(parts[1], tok)? },
            ("d", 2) => Op::Del { key: parse_u64(parts[1], tok)? },
            ("c", 1) => Op::Commit,
            ("ck", 1) => Op::Checkpoint,
            ("ckpt", 1) => Op::Ckpt,
            ("cr", 1) => Op::CrashRecover,
            _ => return Err(format!("unknown trace token {tok:?}")),
        };
        ops.push(op);
    }
    Ok(ops)
}

/// Which state machine a case drives. Mirrors [`crate::harness::Target`]
/// but only distinguishes the op alphabet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alphabet {
    /// Raw block-device ops against an [`durassd::Ssd`].
    Device,
    /// Key-value ops against a store (engine or docstore).
    Store,
    /// Key-value ops shaped to leave redo outstanding on the relational
    /// engine: a key space that splits and evicts, rare checkpoints.
    Redo,
}

/// Hot window: most device ops land in a small lpn range so overwrites,
/// coalescing and preimage chains actually happen.
const HOT_LPNS: u64 = 24;

/// A store alphabet: the key space and the weights of `p gk d c ck ckpt cr`.
struct StoreMix {
    keys: u64,
    weights: [u32; 7],
}

/// Two dozen keys in one leaf, a crash every ~17 ops: commit/checkpoint/crash
/// interleavings, not tree shape.
const STORE: StoreMix = StoreMix { keys: 24, weights: [40, 20, 10, 13, 7, 4, 6] };
/// Thousands of keys over dozens of leaves, a checkpoint in ~200 ops and a
/// crash in ~100: the pool steals, leaves split, and cuts land with a long
/// log tail still to redo.
const REDO: StoreMix = StoreMix { keys: 2500, weights: [450, 150, 250, 135, 5, 0, 10] };

/// Generate `n` ops for `alphabet` from a seeded RNG. Deterministic:
/// the same `(seed, n, alphabet)` always yields the same sequence.
pub fn generate(rng: &mut SimRng, alphabet: Alphabet, n: usize, lpn_space: u64) -> Vec<Op> {
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let op = match alphabet {
            Alphabet::Device => gen_device_op(rng, lpn_space),
            Alphabet::Store => gen_store_op(rng, &STORE),
            Alphabet::Redo => gen_store_op(rng, &REDO),
        };
        ops.push(op);
    }
    ops
}

fn pick_lpn(rng: &mut SimRng, lpn_space: u64, pages: u64) -> u64 {
    let space = if rng.gen_bool(0.8) { HOT_LPNS.min(lpn_space) } else { lpn_space };
    let max = space.saturating_sub(pages).max(1);
    rng.gen_range(0..max)
}

fn gen_device_op(rng: &mut SimRng, lpn_space: u64) -> Op {
    let roll = rng.gen_range(0u32..100);
    match roll {
        // 0..32: plain acked writes, 1-4 pages.
        0..=31 => {
            let pages = rng.gen_range(1u32..=4);
            Op::Write { lpn: pick_lpn(rng, lpn_space, pages as u64), pages }
        }
        // 32..52: reads, 1-4 pages.
        32..=51 => {
            let pages = rng.gen_range(1u32..=4);
            Op::Read { lpn: pick_lpn(rng, lpn_space, pages as u64), pages }
        }
        // 52..60: trims.
        52..=59 => {
            let pages = rng.gen_range(1u32..=4);
            Op::Trim { lpn: pick_lpn(rng, lpn_space, pages as u64), pages }
        }
        // 60..68: flush barriers.
        60..=67 => Op::Flush,
        // 68..75: NCQ bursts.
        68..=74 => {
            let n = rng.gen_range(2u32..=6);
            Op::Burst { lpn: pick_lpn(rng, lpn_space, n as u64), n }
        }
        // 75..79: GC-pressure fills.
        75..=78 => {
            let pages = rng.gen_range(32u32..=128);
            Op::GcFill { start: rng.gen_range(0..lpn_space), pages }
        }
        // 79..87: clean power cuts (acked state, drains possibly mid-flight).
        79..=86 => Op::PowerCut,
        // 87..95: cuts inside a write's un-acked window.
        87..=94 => {
            let pages = rng.gen_range(1u32..=4);
            Op::CutDuringWrite { lpn: pick_lpn(rng, lpn_space, pages as u64), pages }
        }
        // 95..100: trim-while-inflight, then cut.
        _ => Op::TrimCutDuringWrite { lpn: pick_lpn(rng, lpn_space, 1) },
    }
}

fn gen_store_op(rng: &mut SimRng, mix: &StoreMix) -> Op {
    let roll = rng.gen_range(0u32..mix.weights.iter().sum());
    let mut upto = 0;
    let kind = mix.weights.iter().position(|&weight| {
        upto += weight;
        roll < upto
    });
    match kind {
        Some(0) => Op::Put { key: rng.gen_range(0..mix.keys) },
        Some(1) => Op::GetKey { key: rng.gen_range(0..mix.keys) },
        Some(2) => Op::Del { key: rng.gen_range(0..mix.keys) },
        Some(3) => Op::Commit,
        Some(4) => Op::Checkpoint,
        Some(5) => Op::Ckpt,
        _ => Op::CrashRecover,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_round_trips() {
        let mut rng = SimRng::seed_from_u64(7);
        let ops = generate(&mut rng, Alphabet::Device, 200, 192);
        let trace = trace_string(&ops);
        assert_eq!(parse_trace(&trace).unwrap(), ops);

        for alphabet in [Alphabet::Store, Alphabet::Redo] {
            let mut rng = SimRng::seed_from_u64(7);
            let ops = generate(&mut rng, alphabet, 200, 192);
            let trace = trace_string(&ops);
            assert_eq!(parse_trace(&trace).unwrap(), ops);
        }
    }

    #[test]
    fn redo_alphabet_checkpoints_rarely_and_crashes_often_enough() {
        let ops = generate(&mut SimRng::seed_from_u64(3), Alphabet::Redo, 20_000, 192);
        let count = |want: &Op| ops.iter().filter(|op| *op == want).count();
        assert!((50..=150).contains(&count(&Op::Checkpoint)), "about 1 op in 200");
        assert!((140..=260).contains(&count(&Op::CrashRecover)), "about 1 op in 100");
        assert!(ops.iter().any(|op| matches!(op, Op::Put { key } if *key >= 2000)));
    }

    #[test]
    fn generator_is_deterministic() {
        let a = generate(&mut SimRng::seed_from_u64(42), Alphabet::Device, 500, 192);
        let b = generate(&mut SimRng::seed_from_u64(42), Alphabet::Device, 500, 192);
        assert_eq!(a, b);
        let c = generate(&mut SimRng::seed_from_u64(43), Alphabet::Device, 500, 192);
        assert_ne!(a, c, "different seeds should diverge");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_trace("w:1").is_err());
        assert!(parse_trace("zz").is_err());
        assert!(parse_trace("w:x:1").is_err());
    }

    #[test]
    fn generated_device_ops_stay_in_range() {
        let ops = generate(&mut SimRng::seed_from_u64(1), Alphabet::Device, 2000, 192);
        for op in &ops {
            match *op {
                Op::Write { lpn, pages }
                | Op::Read { lpn, pages }
                | Op::Trim { lpn, pages }
                | Op::CutDuringWrite { lpn, pages } => {
                    assert!(lpn + pages as u64 <= 192, "{op} out of range")
                }
                Op::Burst { lpn, n } => assert!(lpn + n as u64 <= 192),
                Op::GcFill { start, .. } => assert!(start < 192),
                Op::TrimCutDuringWrite { lpn } => assert!(lpn < 192),
                _ => {}
            }
        }
    }
}
