//! Virtual time representation.
//!
//! Every component in the simulation exchanges timestamps as plain
//! nanosecond counts ([`Nanos`]). There is deliberately no global mutable
//! clock: a component receives "now" as an argument and returns the virtual
//! time at which its operation completes, which keeps every model a pure
//! state machine and makes the whole stack trivially deterministic.

/// Virtual time in nanoseconds since the start of a simulation run.
pub type Nanos = u64;

/// One microsecond in [`Nanos`].
pub const MICROS: Nanos = 1_000;
/// One millisecond in [`Nanos`].
pub const MILLIS: Nanos = 1_000_000;
/// One second in [`Nanos`].
pub const SECS: Nanos = 1_000_000_000;

/// Convert a microsecond count to [`Nanos`].
#[inline]
pub const fn us(v: u64) -> Nanos {
    v * MICROS
}

/// Convert a millisecond count to [`Nanos`].
#[inline]
pub const fn ms(v: u64) -> Nanos {
    v * MILLIS
}

/// Convert a second count to [`Nanos`].
#[inline]
pub const fn secs(v: u64) -> Nanos {
    v * SECS
}

/// Events (operations) per virtual second, given a count and an elapsed
/// virtual duration. Returns 0.0 for an empty interval.
pub fn per_sec(count: u64, elapsed: Nanos) -> f64 {
    if elapsed == 0 {
        return 0.0;
    }
    count as f64 * SECS as f64 / elapsed as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        assert_eq!(us(3), 3_000);
        assert_eq!(ms(3), 3_000_000);
        assert_eq!(secs(3), 3_000_000_000);
    }

    #[test]
    fn rate_computation() {
        assert_eq!(per_sec(100, SECS), 100.0);
        assert_eq!(per_sec(100, SECS / 2), 200.0);
        assert_eq!(per_sec(100, 0), 0.0);
    }
}
