//! Seeded inputs. Everything the program under test sees that varies
//! between runs comes from here, as a function of `--seed` alone: the
//! simulation seed, the flow endpoints, the order links flap in, the cut
//! link. The program never sees the seed's meaning, only these values.

use son_netsim::rng::SimRng;
use son_topo::{shortest_path, EdgeId, Graph, NodeId};

/// Flows in every simulated workload.
pub const FLOWS: usize = 8;

/// Sum over the flows of the hop count of each flow's minimum-latency
/// path on the 12-city overlay, under the configured link weights (what the
/// daemons route on for the first five simulated seconds) and under the
/// converged ones (measured latencies, advertised from the first LSA refresh
/// on). Endpoint permutations are drawn until they hit both totals, so
/// every seed offers the data plane the same number of link traversals per
/// packet round and host cost is comparable across seeds. These are the
/// most frequent totals over random permutations (15 % and 11 %; the ranges
/// are 8 to 23 and 8 to 31), and about one draw in thirty hits both.
pub const CONTINENTAL_HOP_TOTALS: (usize, usize) = (16, 20);

/// Hops on the minimum-latency path from `a` to `b`.
fn hops(topo: &Graph, a: NodeId, b: NodeId) -> usize {
    shortest_path(topo, a, b).map_or(usize::MAX / FLOWS, |p| p.edges.len())
}

/// [`FLOWS`] `(source, destination)` pairs over the cities: a seeded
/// permutation `p` of the nodes, flow `k` running from `p[k]` to
/// `p[k + n/2]`, redrawn until the hop totals on the `configured` and the
/// `converged` view are [`CONTINENTAL_HOP_TOTALS`].
pub fn continental_flows(
    configured: &Graph,
    converged: &Graph,
    seed: u64,
) -> Vec<(NodeId, NodeId)> {
    let n = configured.node_count();
    assert!(n >= FLOWS, "need a city per flow source");
    let mut rng = SimRng::seed(seed).fork("bench.flows");
    let mut perm: Vec<usize> = (0..n).collect();
    loop {
        rng.shuffle(&mut perm);
        let flows: Vec<(NodeId, NodeId)> = (0..FLOWS)
            .map(|k| (NodeId(perm[k]), NodeId(perm[(k + n / 2) % n])))
            .collect();
        let total = |g: &Graph| flows.iter().map(|&(a, b)| hops(g, a, b)).sum::<usize>();
        if (total(configured), total(converged)) == CONTINENTAL_HOP_TOTALS {
            return flows;
        }
    }
}

/// Every edge of `topo` in a seeded order: window `w` of the churn
/// schedule flaps entry `w % len`.
pub fn flap_order(topo: &Graph, seed: u64) -> Vec<EdgeId> {
    let mut edges: Vec<EdgeId> = topo.edges().collect();
    SimRng::seed(seed).fork("bench.flaps").shuffle(&mut edges);
    edges
}

/// Spacing of the chord endpoints on the scale ring. Rotating the ring by a
/// multiple of it maps the topology onto itself.
pub const CHORD_SPACING: usize = 16;

/// The scale workload's inputs on an `n`-node ring with chords: the eight
/// evenly spaced sources of `exp_scale`, each sending to its near-antipode,
/// and the cut ring link (`i` to `i + 1`, `exp_scale` cuts link 1), all
/// rotated by a seeded multiple of [`CHORD_SPACING`]. The rotation is an
/// automorphism of the topology, so every seed runs the same scenario under
/// other node ids and the work is the same.
pub fn scale_inputs(n: usize, seed: u64) -> (Vec<(NodeId, NodeId)>, usize) {
    let mut rng = SimRng::seed(seed).fork("bench.scale");
    let rotation = CHORD_SPACING * rng.uniform_u64(0, (n / CHORD_SPACING) as u64 - 1) as usize;
    let flows = (0..FLOWS)
        .map(|k| {
            let a = (k * n / FLOWS + rotation) % n;
            // +5 keeps each path off a single chord, as in `exp_scale`.
            (NodeId(a), NodeId((a + n / 2 + 5) % n))
        })
        .collect();
    (flows, (1 + rotation) % n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_edge(NodeId(i), NodeId((i + 1) % n), 10.0);
        }
        g
    }

    #[test]
    fn scale_inputs_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(scale_inputs(512, 3), scale_inputs(512, 3));
        let distinct: std::collections::HashSet<_> =
            (0..16).map(|s| scale_inputs(512, s).0[0].0).collect();
        assert!(distinct.len() > 4, "rotations must vary with the seed");
        for seed in 0..32 {
            let (flows, cut) = scale_inputs(512, seed);
            assert_eq!(flows.len(), FLOWS);
            // Sources and the cut keep their places relative to the chords.
            assert_eq!(cut % CHORD_SPACING, 1);
            assert!(flows
                .iter()
                .all(|&(a, b)| a.0 % CHORD_SPACING == 0 && b.0 == (a.0 + 512 / 2 + 5) % 512));
        }
    }

    #[test]
    fn flap_order_is_a_permutation_of_the_edges() {
        let g = ring(12);
        let mut order = flap_order(&g, 9);
        assert_eq!(order, flap_order(&g, 9));
        assert_ne!(order, flap_order(&g, 10));
        order.sort();
        assert_eq!(order, g.edges().collect::<Vec<_>>());
    }
}
