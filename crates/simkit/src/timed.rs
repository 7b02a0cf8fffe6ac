//! [`Timed<T>`] — a value paired with the virtual time it became available.
//!
//! Every layer of the simulation returns "result + completion time". Tuples
//! `(T, Nanos)` worked but read poorly at call sites (`r.1`, `r.0`) and made
//! it too easy to swap the fields when both were integers. `Timed<T>` names
//! the two halves and provides the small combinator set the engines need.

use crate::clock::Nanos;

/// A value that became available at virtual time `done`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timed<T> {
    /// The result of the operation.
    pub value: T,
    /// Virtual time at which the operation completed.
    pub done: Nanos,
}

impl<T> Timed<T> {
    /// Pair `value` with its completion time.
    pub fn new(value: T, done: Nanos) -> Self {
        Self { value, done }
    }

    /// Transform the value, keeping the timestamp.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Timed<U> {
        Timed { value: f(self.value), done: self.done }
    }

    /// Split into `(value, done)` — the old tuple shape, for destructuring.
    pub fn into_parts(self) -> (T, Nanos) {
        (self.value, self.done)
    }

    /// Borrow the value.
    pub fn as_ref(&self) -> Timed<&T> {
        Timed { value: &self.value, done: self.done }
    }
}

impl<T> From<(T, Nanos)> for Timed<T> {
    fn from((value, done): (T, Nanos)) -> Self {
        Self { value, done }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let t = Timed::new(41, 7);
        assert_eq!(t.value, 41);
        assert_eq!(t.done, 7);
        assert_eq!(t.map(|v| v + 1).value, 42);
    }

    #[test]
    fn parts_round_trip() {
        let t: Timed<&str> = ("x", 9).into();
        assert_eq!(t.into_parts(), ("x", 9));
    }

    #[test]
    fn as_ref_borrows() {
        let t = Timed::new(String::from("v"), 3);
        assert_eq!(t.as_ref().value, "v");
        assert_eq!(t.as_ref().done, 3);
        assert_eq!(t.done, 3);
    }
}
