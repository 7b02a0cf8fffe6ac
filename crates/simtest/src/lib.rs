//! **Deterministic state-machine fuzzer with shadow oracles.**
//!
//! FoundationDB/TigerBeetle-style simulation testing for the storage stack:
//! a seeded generator produces operation sequences (writes, reads, trims,
//! flush barriers, NCQ bursts, GC-pressure fills, power cuts — including
//! cuts landing *inside* a write's un-acked window), a harness replays them
//! against the real [`durassd::Ssd`], the relational [`relstore::Engine`]
//! and the document store, and a *shadow oracle* — a flat `lpn → version`
//! model for the device, the `forensics` durability ledger and its
//! reconciler for the stores — checks every observable result. After
//! **every** step the structural invariant hooks
//! (`Ftl::check_invariants`, `WriteCache::check_invariants`,
//! `Ssd::check_invariants`) audit the internal state, so corruption is
//! caught at the step that introduces it rather than at the read that
//! happens to surface it thousands of ops later.
//!
//! Failures shrink automatically ([`shrink::shrink`] is a deterministic
//! delta-debugging loop) and print a replayable `--seed` / `--trace` line;
//! the `simtest` binary (`--seeds N --ops M --check`) runs the campaign
//! in CI.
//!
//! Everything is deterministic: same seed, same trace, same verdict.

pub mod harness;
pub mod ops;
pub mod oracle;
pub mod shrink;

pub use harness::{run_case, run_seed, Failure, Target};
pub use ops::{generate, parse_trace, trace_string, Op};
pub use shrink::shrink;
