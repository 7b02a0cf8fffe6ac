//! Closed-loop multi-client simulation driver.
//!
//! The paper's benchmarks (fio with N jobs, LinkBench with 128 client
//! threads, a single-threaded YCSB loader) are all *closed loops*: each
//! client issues its next operation as soon as the previous one completes.
//!
//! [`ClosedLoop`] reproduces that in virtual time. Each client carries its
//! own clock; the driver keeps clients in a min-heap keyed by clock and
//! always advances the globally-earliest one, so all mutations of shared
//! state (devices, buffer pools) happen in virtual-time order — a
//! conservative discrete-event simulation without explicit events.

use crate::clock::{per_sec, Nanos};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Outcome of a closed-loop run.
#[derive(Debug, Clone)]
pub struct DriverReport {
    /// Total operations completed.
    pub ops: u64,
    /// Virtual time at which the measured phase started.
    pub started_at: Nanos,
    /// Virtual time of the last completion.
    pub finished_at: Nanos,
}

impl DriverReport {
    /// Elapsed virtual time of the measured phase.
    pub fn elapsed(&self) -> Nanos {
        self.finished_at.saturating_sub(self.started_at)
    }

    /// Operations per virtual second.
    pub fn throughput(&self) -> f64 {
        per_sec(self.ops, self.elapsed())
    }
}

/// Closed-loop driver over `clients` logical clients.
pub struct ClosedLoop {
    heap: BinaryHeap<Reverse<(Nanos, usize)>>,
    clients: usize,
}

impl ClosedLoop {
    /// Create a driver with `clients` clients all starting at `start`.
    pub fn new(clients: usize, start: Nanos) -> Self {
        assert!(clients > 0, "need at least one client");
        let mut heap = BinaryHeap::with_capacity(clients);
        for id in 0..clients {
            heap.push(Reverse((start, id)));
        }
        Self { heap, clients }
    }

    /// Number of clients.
    pub fn clients(&self) -> usize {
        self.clients
    }

    /// Run until `total_ops` operations have completed.
    ///
    /// `op` is called as `op(client_id, now)` and must return the virtual
    /// time at which that client's operation completes (≥ `now`). The
    /// returned report covers all `total_ops` operations.
    pub fn run<F>(&mut self, total_ops: u64, mut op: F) -> DriverReport
    where
        F: FnMut(usize, Nanos) -> Nanos,
    {
        let started_at = self.heap.peek().map(|Reverse((t, _))| *t).unwrap_or(0);
        let mut finished_at = started_at;
        for _ in 0..total_ops {
            let Reverse((now, id)) = self.heap.pop().expect("heap never empties");
            let done = op(id, now);
            debug_assert!(done >= now, "operation completed before it started");
            finished_at = finished_at.max(done);
            self.heap.push(Reverse((done, id)));
        }
        DriverReport { ops: total_ops, started_at, finished_at }
    }

    /// Run a warm-up phase of `ops` operations whose report is discarded,
    /// leaving the clients' clocks advanced.
    pub fn warmup<F>(&mut self, ops: u64, op: F)
    where
        F: FnMut(usize, Nanos) -> Nanos,
    {
        let _ = self.run(ops, op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_client_sequential() {
        let mut d = ClosedLoop::new(1, 0);
        let rep = d.run(10, |_, now| now + 100);
        assert_eq!(rep.ops, 10);
        assert_eq!(rep.finished_at, 1000);
        assert_eq!(rep.throughput(), 1e7);
    }

    #[test]
    fn clients_advance_in_time_order() {
        // Two clients sharing a single-server resource: total time is the
        // sum of all service times, and the order of arrivals is by clock.
        let mut d = ClosedLoop::new(2, 0);
        let mut server = crate::resource::Timeline::new();
        let rep = d.run(10, |_, now| server.acquire(now, 50));
        // Each op waits for the queue: the second client adds no overlap,
        // so the ops complete one service time apart.
        assert_eq!(rep.finished_at, rep.ops * 50);
    }

    #[test]
    fn parallel_resource_scales() {
        let mut d = ClosedLoop::new(4, 0);
        let mut pool = crate::resource::MultiServer::new(4);
        let rep = d.run(40, |_, now| pool.acquire(now, 100));
        // 4 clients on 4 servers: perfect overlap, 10 rounds of 100.
        assert_eq!(rep.finished_at, 1000);
    }

    #[test]
    fn warmup_advances_clocks() {
        let mut d = ClosedLoop::new(1, 0);
        d.warmup(5, |_, now| now + 10);
        let rep = d.run(1, |_, now| now + 10);
        assert_eq!(rep.started_at, 50);
        assert_eq!(rep.finished_at, 60);
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_clients_rejected() {
        ClosedLoop::new(0, 0);
    }

    #[test]
    fn report_metrics_are_consistent() {
        let mut d = ClosedLoop::new(3, 1000);
        let rep = d.run(9, |_, now| now + 50);
        assert_eq!(rep.started_at, 1000);
        assert_eq!(rep.ops, 9);
        assert_eq!(rep.elapsed(), rep.finished_at - rep.started_at);
        // Three clients, so nine ops of 50 each are three rounds.
        assert_eq!(rep.finished_at, 1000 + 3 * 50);
    }

    #[test]
    fn interleaving_is_deterministic() {
        let order = || {
            let mut d = ClosedLoop::new(4, 0);
            let mut seen = Vec::new();
            d.run(16, |c, now| {
                seen.push(c);
                now + (c as u64 + 1) * 10
            });
            seen
        };
        assert_eq!(order(), order());
    }
}
