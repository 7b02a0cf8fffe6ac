//! Discrete-event simulation kit used by the whole DuraSSD reproduction.
//!
//! All performance in this repository is measured in *virtual time*: devices,
//! buses and locks are modelled as [`resource::Timeline`]s, simulated clients
//! are advanced in global virtual-time order by [`driver::ClosedLoop`], and
//! latency/throughput statistics are collected with [`stats`].
//!
//! Keeping time virtual makes every experiment deterministic (seedable RNG,
//! no wall-clock noise) and fast: a run that took the paper's authors hours
//! of wall-clock time on a 32-core Xeon completes in seconds here, while the
//! *relative* behaviour — who waits for whom, what saturates first — is
//! preserved.

pub mod alloc;
pub mod clock;
pub mod crc;
pub mod dist;
pub mod driver;
pub mod json;
pub mod pool;
pub mod recovered;
pub mod resource;
pub mod rng;
pub mod runs;
pub mod stats;
pub mod timed;

pub use clock::{Nanos, MICROS, MILLIS, SECS};
pub use crc::crc32;
pub use driver::{ClosedLoop, DriverReport};
pub use pool::{BufPool, PageBuf, SharedBuf};
pub use recovered::{Recovered, ReplayStats};
pub use resource::{MultiServer, Timeline};
pub use rng::{Rng, SimRng};
pub use stats::{LatencyStats, Summary};
pub use timed::Timed;
