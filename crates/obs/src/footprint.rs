//! Retained-bytes accounting for stateful subsystems.
//!
//! [`MemFootprint`] is a *deep estimate* of the heap bytes a structure
//! retains — container capacities times element sizes, walked recursively
//! through owned containers — computed without swapping the allocator. It
//! deliberately counts **capacity**, not length: a `Vec` that grew to 4096
//! slots and drained retains that allocation, and retained allocations are
//! what the scale curve must track.
//!
//! What the estimate does *not* count (documented trade-offs):
//!
//! - allocator overhead (headers, size-class rounding, fragmentation);
//! - the inline `size_of::<Self>()` of the root value itself — the trait
//!   measures what the value *points to*; callers add the root if they own
//!   it behind another allocation;
//! - shared payloads (`Arc`s, advert lists) more than once — each holder
//!   charges its [`shared_part`], so a sum over all holders counts the
//!   payload once (e.g. the topology shape every co-located daemon shares)
//!   and a sole holder is charged the whole;
//! - `HashMap` exactly — hashbrown's real layout is `ceil(cap·8/7)` buckets
//!   plus control bytes; the helper charges `capacity · (entry + 1 byte)`,
//!   an estimate that is within the allocator-rounding noise floor.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::mem::size_of;

/// Deep retained-heap-bytes estimate. See the [module docs](self) for what
/// is and is not counted.
pub trait MemFootprint {
    /// Estimated heap bytes retained (owned allocations, recursively).
    fn footprint_bytes(&self) -> usize;
}

/// Heap bytes retained by a `Vec`'s own buffer (capacity × element size;
/// element-owned allocations are the caller's to add).
#[must_use]
pub fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * size_of::<T>()
}

/// Heap bytes retained by a `VecDeque`'s ring buffer.
#[must_use]
pub fn vecdeque_bytes<T>(v: &VecDeque<T>) -> usize {
    v.capacity() * size_of::<T>()
}

/// Estimated heap bytes retained by a `HashMap`'s table: one `(K, V)` slot
/// plus one control byte per capacity slot.
#[must_use]
pub fn hashmap_bytes<K, V, S>(m: &HashMap<K, V, S>) -> usize {
    m.capacity() * (size_of::<(K, V)>() + 1)
}

/// Estimated heap bytes retained by a `BTreeMap`: nodes hold up to 11
/// entries; charge per-entry storage plus ~1/6 node overhead.
#[must_use]
pub fn btreemap_bytes<K, V>(m: &BTreeMap<K, V>) -> usize {
    let per_entry = size_of::<K>() + size_of::<V>();
    m.len() * per_entry + m.len() * per_entry / 6
}

/// Estimated heap bytes retained by a `BTreeSet` (as a map with unit
/// values).
#[must_use]
pub fn btreeset_bytes<T>(s: &BTreeSet<T>) -> usize {
    let per_entry = size_of::<T>();
    s.len() * per_entry + s.len() * per_entry / 6
}

/// One holder's part of `bytes` retained behind a shared allocation with
/// `holders` current holders (an `Arc`'s strong count, say): an equal
/// split, so a sum over all of them counts the payload once and a sole
/// holder is charged the whole.
#[must_use]
pub fn shared_part(holders: usize, bytes: usize) -> usize {
    bytes / holders
}

/// A named subsystem's contribution to a node's footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FootprintPart {
    /// Static subsystem label (e.g. `"routing"`, `"lsdb"`, `"rings"`).
    pub label: &'static str,
    /// Retained bytes attributed to this subsystem.
    pub bytes: usize,
}

/// Per-subsystem roll-up for one node: an ordered list of labelled parts
/// whose sum is, by construction, the node total.
#[derive(Debug, Clone, Default)]
pub struct FootprintReport {
    parts: Vec<FootprintPart>,
}

impl FootprintReport {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a subsystem entry (merging into an existing label if
    /// present, so repeated contributions accumulate).
    pub fn add(&mut self, label: &'static str, bytes: usize) {
        if let Some(p) = self.parts.iter_mut().find(|p| p.label == label) {
            p.bytes += bytes;
        } else {
            self.parts.push(FootprintPart { label, bytes });
        }
    }

    /// The labelled parts, in insertion order.
    #[must_use]
    pub fn parts(&self) -> &[FootprintPart] {
        &self.parts
    }

    /// Sum of all parts — the node total. Always equals
    /// `parts().iter().map(|p| p.bytes).sum()`.
    #[must_use]
    pub fn total(&self) -> usize {
        self.parts.iter().map(|p| p.bytes).sum()
    }

    /// Merges another report into this one, label-wise (used to aggregate
    /// across nodes).
    pub fn merge(&mut self, other: &FootprintReport) {
        for p in &other.parts {
            self.add(p.label, p.bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_counts_capacity_not_len() {
        let mut v: Vec<u64> = Vec::with_capacity(128);
        v.push(1);
        assert_eq!(vec_bytes(&v), 128 * 8);
    }

    #[test]
    fn hashmap_estimate_scales_with_capacity() {
        let mut m: HashMap<u64, u64> = HashMap::new();
        assert_eq!(hashmap_bytes(&m), 0);
        for i in 0..100 {
            m.insert(i, i);
        }
        let est = hashmap_bytes(&m);
        assert!(est >= 100 * (16 + 1), "estimate {est} below entry storage");
    }

    #[test]
    fn report_total_is_sum_of_parts_and_merges_labels() {
        let mut r = FootprintReport::new();
        r.add("a", 100);
        r.add("b", 50);
        r.add("a", 25);
        assert_eq!(r.parts().len(), 2);
        assert_eq!(r.total(), 175);
        assert_eq!(r.total(), r.parts().iter().map(|p| p.bytes).sum::<usize>());

        let mut other = FootprintReport::new();
        other.add("b", 1);
        other.add("c", 2);
        r.merge(&other);
        assert_eq!(r.total(), 178);
        assert_eq!(r.parts().len(), 3);
    }
}
