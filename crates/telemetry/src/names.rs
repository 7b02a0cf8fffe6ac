//! One domain's name table: the [`Key`] every recording call takes.
//!
//! A histogram, gauge, trace category, trace event or op name is resolved
//! to a [`Key`] once — by a layer in its `attach_telemetry` — and from then
//! on every sample, gauge update, trace event and closed frame is addressed
//! by that dense index: no string is hashed or compared while recording.
//! Names come back only when a document is written or a reader asks for a
//! metric by name, and every export lists its entries sorted by name, so
//! the bytes do not depend on the order the keys were resolved in.

use std::collections::HashMap;

use crate::anatomy::SegKind;

/// A resolved name: a dense index into its domain's [`Names`] table.
///
/// A key is meaningful only in the domain that resolved it, and stays valid
/// for the domain's lifetime (across `Telemetry::reset` too).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key(u32);

impl Key {
    /// Index into a key-indexed table.
    pub(crate) fn idx(self) -> usize {
        self.0 as usize
    }
}

impl SegKind {
    /// The pre-registered key of the per-kind `seg.<label>` histogram:
    /// every [`Names`] table resolves the twelve names first, in
    /// [`SegKind::ALL`] order, so a segment charge needs no lookup.
    pub fn key(self) -> Key {
        Key(self.index() as u32)
    }
}

/// Intern table of one telemetry domain.
#[derive(Debug, Clone)]
pub struct Names {
    names: Vec<String>,
    index: HashMap<String, Key>,
}

impl Default for Names {
    fn default() -> Self {
        let mut n = Self { names: Vec::new(), index: HashMap::new() };
        for kind in SegKind::ALL {
            n.key(kind.hist_name());
        }
        n
    }
}

impl Names {
    /// Table holding only the pre-registered segment histogram names.
    pub fn new() -> Self {
        Self::default()
    }

    /// The key of `name`, registering it on first sight.
    pub fn key(&mut self, name: &str) -> Key {
        if let Some(&k) = self.index.get(name) {
            return k;
        }
        let k = Key(self.names.len() as u32);
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), k);
        k
    }

    /// The key of `name` if it was ever registered (never registers).
    pub fn get(&self, name: &str) -> Option<Key> {
        self.index.get(name).copied()
    }

    /// The name `key` was resolved from.
    pub fn name(&self, key: Key) -> &str {
        &self.names[key.idx()]
    }

    /// Number of registered names (the length every key-indexed table of
    /// the domain grows to).
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }

    /// The set entries of a key-indexed table, sorted by name: the order
    /// every export writes, whatever order the keys were resolved in.
    pub(crate) fn by_name<'a, T>(&'a self, slots: &'a [Option<T>]) -> Vec<(&'a str, &'a T)> {
        let mut set: Vec<(&str, &T)> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (self.names[i].as_str(), v)))
            .collect();
        set.sort_unstable_by(|a, b| a.0.cmp(b.0));
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_keys_are_pre_registered_in_taxonomy_order() {
        let mut n = Names::new();
        for kind in SegKind::ALL {
            assert_eq!(n.name(kind.key()), kind.hist_name());
            assert_eq!(n.key(kind.hist_name()), kind.key());
        }
        assert_eq!(n.len(), SegKind::ALL.len());
    }

    #[test]
    fn keys_are_stable_and_export_sorts_by_name() {
        let mut n = Names::new();
        let b = n.key("b");
        let a = n.key("a");
        assert_eq!(n.key("b"), b, "a second resolution returns the same key");
        assert_eq!(n.get("a"), Some(a));
        assert_eq!(n.get("c"), None, "get never registers");
        let mut slots = vec![None; n.len()];
        slots[b.idx()] = Some(2);
        slots[a.idx()] = Some(1);
        let rows: Vec<(&str, i32)> = n.by_name(&slots).into_iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(rows, [("a", 1), ("b", 2)], "unset slots are skipped");
    }
}
