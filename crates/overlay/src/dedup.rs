//! Flow-scoped duplicate suppression for redundant dissemination.
//!
//! Redundant dissemination (disjoint paths, dissemination graphs,
//! constrained flooding) intentionally delivers several copies of each
//! packet to intermediate nodes. The overlay "can make use of the physical
//! computer's ample memory ... to track received messages to allow
//! de-duplication of retransmitted or redundantly transmitted messages"
//! (§II-B). Each node keeps, per flow, a sliding window of seen end-to-end
//! sequence numbers; the first copy wins, later copies are dropped (and
//! counted, so experiments can report wire overhead vs. app-level
//! duplicates).

use std::collections::HashMap;

use crate::addr::FlowKey;
use crate::linkproto::arq::SeqWindow;

/// Width of the per-flow sliding window, in sequence numbers.
///
/// Windows this wide cover several seconds of the highest-rate flows in the
/// experiments; anything older is treated as seen (it could not still be in
/// flight).
pub const WINDOW: u64 = 4096;

/// Per-node duplicate suppression table, keyed by flow.
#[derive(Debug, Clone, Default)]
pub struct DedupTable {
    /// Per flow, the seqs seen in `[max - (WINDOW - 1), max]`.
    flows: HashMap<FlowKey, SeqWindow<WINDOW>>,
    duplicates: u64,
    accepted: u64,
}

impl DedupTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the arrival of `(flow, seq)`.
    ///
    /// Returns `true` if this is the **first** copy (process it), `false`
    /// if it is a duplicate (drop it) or older than the window behind the
    /// flow's highest seq.
    pub fn first_sighting(&mut self, flow: FlowKey, seq: u64) -> bool {
        let window = self.flows.entry(flow).or_default();
        window.advance_to(seq.saturating_sub(WINDOW - 1));
        let fresh = window.covers(seq) && !window.contains(seq);
        if fresh {
            window.insert(seq);
            self.accepted += 1;
        } else {
            self.duplicates += 1;
        }
        fresh
    }

    /// Total duplicates suppressed.
    #[must_use]
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Total first copies accepted.
    #[must_use]
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Number of flows with live windows.
    #[must_use]
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Forgets a flow's window (e.g. when the flow closes).
    pub fn forget(&mut self, flow: &FlowKey) {
        self.flows.remove(flow);
    }

    /// Forgets every flow window whose ingress or unicast destination is
    /// `node` (membership-layer eviction of a departed member's state).
    /// Group-addressed windows are kept: the flow's surviving members still
    /// need duplicate suppression.
    pub fn forget_endpoint(&mut self, node: son_topo::NodeId) {
        self.flows.retain(|k, _| {
            k.src.node != node
                && !matches!(k.dst, crate::addr::DestKey::Unicast(a) if a.node == node)
        });
    }
}

impl son_obs::MemFootprint for DedupTable {
    fn footprint_bytes(&self) -> usize {
        use son_obs::footprint::hashmap_bytes;
        hashmap_bytes(&self.flows) + self.flows.values().map(SeqWindow::bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Destination, GroupId, OverlayAddr};
    use proptest::prelude::*;
    use son_topo::NodeId;

    fn flow(n: usize) -> FlowKey {
        FlowKey::new(
            OverlayAddr::new(NodeId(n), 1),
            Destination::Multicast(GroupId(0)),
        )
    }

    #[test]
    fn first_copy_accepted_second_dropped() {
        let mut t = DedupTable::new();
        assert!(t.first_sighting(flow(0), 1));
        assert!(!t.first_sighting(flow(0), 1));
        assert!(!t.first_sighting(flow(0), 1));
        assert_eq!(t.accepted(), 1);
        assert_eq!(t.duplicates(), 2);
    }

    #[test]
    fn flows_are_independent() {
        let mut t = DedupTable::new();
        assert!(t.first_sighting(flow(0), 5));
        assert!(t.first_sighting(flow(1), 5));
        assert_eq!(t.flow_count(), 2);
    }

    #[test]
    fn out_of_order_within_window_is_tracked_exactly() {
        let mut t = DedupTable::new();
        assert!(t.first_sighting(flow(0), 10));
        assert!(t.first_sighting(flow(0), 3)); // older but within window
        assert!(!t.first_sighting(flow(0), 3));
        assert!(t.first_sighting(flow(0), 7));
        assert!(!t.first_sighting(flow(0), 10));
    }

    #[test]
    fn far_future_seq_resets_window() {
        let mut t = DedupTable::new();
        assert!(t.first_sighting(flow(0), 1));
        assert!(t.first_sighting(flow(0), 1 + 10 * WINDOW));
        // The old seq is now out of the window: conservatively duplicate.
        assert!(!t.first_sighting(flow(0), 1));
    }

    #[test]
    fn window_slide_clears_reused_slots() {
        let mut t = DedupTable::new();
        assert!(t.first_sighting(flow(0), 0));
        // Slide forward exactly WINDOW: slot of seq 0 is reused by WINDOW.
        assert!(t.first_sighting(flow(0), WINDOW));
        assert!(!t.first_sighting(flow(0), WINDOW));
        // seq 1..WINDOW-1 were never seen; they are still within the window.
        assert!(t.first_sighting(flow(0), WINDOW - 1));
        assert!(t.first_sighting(flow(0), 1));
    }

    #[test]
    fn every_seq_exactly_once_under_random_redundancy() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut t = DedupTable::new();
        let mut firsts = 0;
        // Deliver each of 500 seqs 1-4 times in shuffled bursts.
        let mut arrivals: Vec<u64> = Vec::new();
        for seq in 0..500u64 {
            for _ in 0..rng.gen_range(1..=4) {
                arrivals.push(seq);
            }
        }
        // Shuffle with bounded displacement so the window always covers.
        for i in 0..arrivals.len() {
            let j = (i + rng.gen_range(0..30)).min(arrivals.len() - 1);
            arrivals.swap(i, j);
        }
        for seq in arrivals {
            if t.first_sighting(flow(0), seq) {
                firsts += 1;
            }
        }
        assert_eq!(firsts, 500, "each payload processed exactly once");
    }

    #[test]
    fn forget_endpoint_sweeps_departed_node_windows() {
        let mut t = DedupTable::new();
        // flow(0): src node 0 multicast; a unicast flow to node 3; one from 3.
        let to3 = FlowKey::new(
            OverlayAddr::new(NodeId(1), 1),
            Destination::Unicast(OverlayAddr::new(NodeId(3), 2)),
        );
        let from3 = FlowKey::new(
            OverlayAddr::new(NodeId(3), 1),
            Destination::Unicast(OverlayAddr::new(NodeId(1), 2)),
        );
        t.first_sighting(flow(0), 1);
        t.first_sighting(to3, 1);
        t.first_sighting(from3, 1);
        assert_eq!(t.flow_count(), 3);
        t.forget_endpoint(NodeId(3));
        assert_eq!(t.flow_count(), 1, "both node-3 endpoint windows evicted");
        t.forget_endpoint(NodeId(9));
        assert_eq!(t.flow_count(), 1);
    }

    #[test]
    fn forget_drops_state() {
        let mut t = DedupTable::new();
        t.first_sighting(flow(0), 1);
        t.forget(&flow(0));
        assert_eq!(t.flow_count(), 0);
        // After forgetting, the same seq is new again.
        assert!(t.first_sighting(flow(0), 1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Against an exact seen-set, where a seq more than `WINDOW - 1`
        /// below the highest one so far is a duplicate: in-order runs with
        /// gaps, late copies inside the window and at its edge, re-sightings,
        /// far-future jumps, and the rare leap near `u64::MAX` or anywhere.
        fn matches_a_seen_set_model(
            ops in proptest::collection::vec((0u8..200, any::<u64>()), 0..600),
        ) {
            let mut t = DedupTable::new();
            let mut seen = std::collections::HashSet::new();
            let (mut history, mut max) = (Vec::new(), 0u64);
            for (kind, draw) in ops {
                let seq = match kind {
                    0..=99 => max.saturating_add(draw % 4),
                    100..=129 => max.saturating_sub(draw % WINDOW),
                    130..=149 => max.saturating_sub(WINDOW - 2 + draw % 4),
                    150..=179 if !history.is_empty() => history[draw as usize % history.len()],
                    180..=197 => max.saturating_add(draw % (4 * WINDOW)),
                    198 => u64::MAX - draw % (2 * WINDOW),
                    _ => draw,
                };
                history.push(seq);
                max = max.max(seq);
                let fresh = seq >= max.saturating_sub(WINDOW - 1) && seen.insert(seq);
                prop_assert_eq!(t.first_sighting(flow(0), seq), fresh, "seq {}", seq);
            }
            let firsts = seen.len() as u64;
            prop_assert_eq!((t.accepted(), t.duplicates()), (firsts, history.len() as u64 - firsts));
        }
    }
}
