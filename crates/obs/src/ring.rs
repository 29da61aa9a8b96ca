//! The one bounded event store.
//!
//! Every per-node event history in the stack — distributed-trace events and
//! watchdog audit events — is a [`Ring`]: the last
//! `bound` items recorded, oldest evicted first, with evictions counted
//! rather than lost silently. The ring starts empty and grows with what it
//! records, so an idle node pays nothing for a generous bound and
//! [`MemFootprint`] reports what the history actually holds.
//!
//! In-daemon consumers (the anomaly watchdog) read through a drain cursor:
//! each [`Ring::drain_since`] call yields only the items recorded since the
//! previous drain, so a long-lived consumer never re-processes — or silently
//! misses re-processing — items it already acted on.

use std::collections::VecDeque;

use crate::footprint::{vecdeque_bytes, MemFootprint};

/// An item stamped with the simulation time it was recorded at — what
/// [`Ring::drain_since`] compares against the consumer's clock.
pub trait Stamped {
    /// Simulation time of the item, nanoseconds.
    fn at_ns(&self) -> u64;
}

/// A bounded ring of `T`s (oldest evicted first).
#[derive(Debug)]
pub struct Ring<T> {
    ring: VecDeque<T>,
    bound: usize,
    recorded: u64,
    /// Next item to drain, in recorded-stream coordinates.
    cursor: u64,
}

impl<T> Ring<T> {
    /// Creates an empty ring that will hold at most `bound` items.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[must_use]
    pub fn new(bound: usize) -> Self {
        assert!(bound > 0, "ring bound must be positive");
        Ring {
            ring: VecDeque::new(),
            bound,
            recorded: 0,
            cursor: 0,
        }
    }

    /// Records one item; returns `true` if an older item was evicted to make
    /// room (so callers can count overflow instead of losing history
    /// silently).
    pub fn record(&mut self, item: T) -> bool {
        let len = self.ring.len();
        let evicting = len == self.bound;
        if evicting {
            self.ring.pop_front();
        } else if len == self.ring.capacity() {
            // Grow geometrically, but never allocate past the bound.
            let target = (len * 2).max(4).min(self.bound);
            self.ring.reserve_exact(target - len);
        }
        self.ring.push_back(item);
        self.recorded += 1;
        evicting
    }

    /// Retained items, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &T> {
        self.ring.iter()
    }

    /// Total items ever recorded, including evicted ones.
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Items evicted by the ring bound.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.recorded - self.ring.len() as u64
    }
}

impl<T: Stamped> Ring<T> {
    /// Drains the items recorded at or before `now_ns` that no earlier drain
    /// has returned, oldest first, and advances the cursor past them.
    /// Draining the same epoch twice is a no-op: the second call yields
    /// nothing. Items stamped later than `now_ns` (recorded in the same
    /// simulation instant, after the caller snapshotted its clock) stay
    /// queued for the next drain.
    pub fn drain_since(&mut self, now_ns: u64) -> impl Iterator<Item = &T> {
        let evicted = self.evicted();
        self.cursor = self.cursor.max(evicted);
        let start = usize::try_from(self.cursor - evicted).expect("cursor within ring");
        let fresh = self
            .ring
            .iter()
            .skip(start)
            .take_while(|e| e.at_ns() <= now_ns)
            .count();
        self.cursor += fresh as u64;
        self.ring.iter().skip(start).take(fresh)
    }
}

impl<T> MemFootprint for Ring<T> {
    fn footprint_bytes(&self) -> usize {
        vecdeque_bytes(&self.ring)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// `(at_ns, id)`: the id tells apart items that share a stamp.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Item(u64, u64);

    impl Stamped for Item {
        fn at_ns(&self) -> u64 {
            self.0
        }
    }

    /// The ring's contract restated over an unbounded history.
    struct Model {
        history: Vec<Item>,
        bound: usize,
        cursor: usize,
    }

    impl Model {
        fn evicted(&self) -> usize {
            self.history.len().saturating_sub(self.bound)
        }

        fn drain_since(&mut self, now_ns: u64) -> Vec<Item> {
            let evicted = self.evicted();
            self.cursor = self.cursor.max(evicted);
            let drained: Vec<Item> = self.history[self.cursor..]
                .iter()
                .take_while(|i| i.0 <= now_ns)
                .copied()
                .collect();
            self.cursor += drained.len();
            drained
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        fn ring_matches_unbounded_model(
            bound in 1usize..9,
            ops in proptest::collection::vec((0u8..4, 0u64..6), 0..200),
        ) {
            let mut ring = Ring::new(bound);
            let mut model = Model { history: Vec::new(), bound, cursor: 0 };
            let mut clock = 0u64;
            for (op, step) in ops {
                if op == 0 {
                    // A consumer clock up to 2 ns behind the newest stamp
                    // leaves a tail queued for the next drain.
                    let now_ns = (clock + step).saturating_sub(2);
                    let drained: Vec<Item> = ring.drain_since(now_ns).copied().collect();
                    prop_assert_eq!(drained, model.drain_since(now_ns));
                } else {
                    clock += step;
                    let item = Item(clock, model.history.len() as u64);
                    let full = model.history.len() >= bound;
                    model.history.push(item);
                    prop_assert_eq!(ring.record(item), full);
                }
                let retained: Vec<Item> = ring.events().copied().collect();
                prop_assert_eq!(&retained[..], &model.history[model.evicted()..]);
                prop_assert_eq!(ring.recorded(), model.history.len() as u64);
                prop_assert_eq!(ring.evicted(), model.evicted() as u64);
            }
        }
    }

    #[test]
    fn footprint_grows_with_what_is_recorded_up_to_the_bound() {
        for bound in [1usize, 3, 100, 4096] {
            let mut ring = Ring::new(bound);
            assert_eq!(ring.footprint_bytes(), 0, "an empty ring retains nothing");
            let cap = vecdeque_bytes(&VecDeque::<Item>::with_capacity(bound));
            for i in 0..3 * bound as u64 + 7 {
                ring.record(Item(i, i));
                assert!(
                    ring.footprint_bytes() <= cap,
                    "bound {bound}: {} B after {} records exceeds {cap} B",
                    ring.footprint_bytes(),
                    i + 1
                );
            }
            assert_eq!(ring.events().count(), bound);
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_rejected() {
        let _ = Ring::<Item>::new(0);
    }
}
