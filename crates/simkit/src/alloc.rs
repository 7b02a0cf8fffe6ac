//! A counting wrapper around the system allocator.
//!
//! The repo benchmark and the zero-allocation regression tests both need to
//! know how many heap allocations a stretch of code performed. Rust allows
//! exactly one `#[global_allocator]` per binary, so this module only
//! *defines* the wrapper; each binary that wants counting registers it
//! itself:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: simkit::alloc::CountingAlloc = simkit::alloc::CountingAlloc::new();
//! ```
//!
//! Counters are global `AtomicU64`s with relaxed ordering — cheap enough to
//! leave on permanently (one uncontended atomic add per malloc), and exact
//! for the single-threaded simulations this repo runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// System-allocator wrapper that counts every allocation.
///
/// Register with `#[global_allocator]` in binaries that measure allocator
/// traffic; the counter accessors below work (returning zeros) even when it
/// is not registered, so library code can call them unconditionally.
pub struct CountingAlloc;

impl CountingAlloc {
    /// A new wrapper (const so it can be a `static`).
    #[allow(clippy::new_without_default)]
    pub const fn new() -> Self {
        CountingAlloc
    }
}

// SAFETY: defers all allocation to `System`; only adds relaxed counter
// increments, which cannot violate the GlobalAlloc contract.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is morally an alloc (it may move and always costs a
        // trip through the allocator), so count it as one.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Total heap allocations since process start (0 if the wrapper is not the
/// registered global allocator).
pub fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Total bytes requested from the allocator since process start.
pub fn alloc_bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// Peak resident set size of this process in bytes, read from
/// `/proc/self/status` (`VmHWM`). Returns 0 on platforms without procfs.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: the wrapper is not registered as the global allocator in the
    // library test binary, so the counters stay at zero here; the real
    // counting behaviour is exercised by the root `zero_alloc` integration
    // test and the `perf` bench bin, which do register it.
    #[test]
    fn counters_are_monotone_and_safe_to_read() {
        let a = alloc_count();
        let b = alloc_bytes();
        let v: Vec<u8> = vec![0u8; 4096];
        drop(v);
        assert!(alloc_count() >= a);
        assert!(alloc_bytes() >= b);
    }

    #[test]
    fn rss_reads_without_panicking() {
        // On Linux this is nonzero; elsewhere it degrades to 0.
        let _ = peak_rss_bytes();
    }
}
