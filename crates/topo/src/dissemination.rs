//! Dissemination graphs: targeted-redundancy subgraphs for source-based
//! routing (§V-A).
//!
//! "In contrast to disjoint paths, which add redundancy uniformly throughout
//! the network, dissemination graphs can be tailored based on current
//! network conditions to add targeted redundancy in problematic areas of the
//! network." The construction follows the key insight of Babay et al.
//! (ICDCS 2017 \[2\]): almost all failures that defeat two disjoint paths are
//! concentrated around the *source* or the *destination*, so a graph that
//! fans out around both endpoints and stays narrow in the middle buys nearly
//! all of constrained flooding's reliability at a fraction of its cost.

use crate::dijkstra::dijkstra_with;
use crate::disjoint::k_node_disjoint_paths;
use crate::graph::{EdgeMask, Graph, NodeId};

/// How many neighbors the problematic-end fan-out engages.
pub const DEFAULT_FANOUT: usize = 3;

/// A source-problematic dissemination graph: fans out from `src` to up to
/// `fanout` of its cheapest neighbors, then routes each neighbor to `dst`
/// along its shortest path avoiding `src`. Includes the plain shortest path
/// as well.
///
/// Use when current network conditions show loss concentrated around the
/// source's area.
#[must_use]
pub fn source_problematic_graph(
    graph: &Graph,
    src: NodeId,
    dst: NodeId,
    fanout: usize,
) -> EdgeMask {
    let mut mask = base_paths_mask(graph, src, dst);
    // Cheapest neighbors of src first (deterministic order).
    let mut neighbors: Vec<_> = graph.neighbors(src).collect();
    neighbors.sort_by(|a, b| {
        graph
            .weight(a.1)
            .partial_cmp(&graph.weight(b.1))
            .expect("finite")
            .then(a.0.cmp(&b.0))
    });
    // Shortest-path forest toward dst avoiding src, so redundancy around the
    // source cannot collapse back through it.
    let sp_to_dst = dijkstra_with(graph, dst, |e| {
        let (a, b) = graph.endpoints(e);
        if a == src || b == src {
            f64::INFINITY
        } else {
            graph.weight(e)
        }
    });
    for (n, e) in neighbors.into_iter().take(fanout) {
        if let Some(path) = sp_to_dst.path_to(n) {
            mask.insert(e);
            mask |= path.mask();
        }
    }
    mask
}

/// A destination-problematic dissemination graph: the mirror image of
/// [`source_problematic_graph`] — routes fan in to `dst` through up to
/// `fanout` of its cheapest neighbors.
#[must_use]
pub fn destination_problematic_graph(
    graph: &Graph,
    src: NodeId,
    dst: NodeId,
    fanout: usize,
) -> EdgeMask {
    // Symmetry: an undirected dissemination graph from dst's perspective.
    source_problematic_graph(graph, dst, src, fanout)
}

/// The robust source-destination dissemination graph: the union of the
/// source- and destination-problematic graphs. Per \[2\], this covers the
/// overwhelming majority of cases where two disjoint paths are not enough,
/// at roughly ⅔ the cost of adding a third disjoint path everywhere.
#[must_use]
pub fn robust_dissemination_graph(graph: &Graph, src: NodeId, dst: NodeId) -> EdgeMask {
    source_problematic_graph(graph, src, dst, DEFAULT_FANOUT)
        | destination_problematic_graph(graph, src, dst, DEFAULT_FANOUT)
}

/// The two-disjoint-paths baseline mask used inside dissemination graphs.
fn base_paths_mask(graph: &Graph, src: NodeId, dst: NodeId) -> EdgeMask {
    k_node_disjoint_paths(graph, src, dst, 2).mask()
}

/// The constrained-flooding mask: every overlay link (§II-B). Messages
/// flood the whole topology and are de-duplicated at each node; delivery is
/// guaranteed whenever *any* correct path exists.
#[must_use]
pub fn constrained_flooding(graph: &Graph) -> EdgeMask {
    graph.full_mask()
}

/// Utility: does `mask` connect `src` to `dst` when `blocked` nodes refuse
/// to forward?
#[must_use]
pub fn connects(
    graph: &Graph,
    mask: &EdgeMask,
    src: NodeId,
    dst: NodeId,
    blocked: &[NodeId],
) -> bool {
    graph.reachable_through(src, mask, blocked).contains(&dst)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3x3 grid: src=0 (corner) to dst=8 (opposite corner).
    ///
    /// ```text
    /// 0 - 1 - 2
    /// |   |   |
    /// 3 - 4 - 5
    /// |   |   |
    /// 6 - 7 - 8
    /// ```
    fn grid() -> Graph {
        let mut g = Graph::new(9);
        for r in 0..3 {
            for c in 0..3 {
                let v = 3 * r + c;
                if c < 2 {
                    g.add_edge(NodeId(v), NodeId(v + 1), 1.0);
                }
                if r < 2 {
                    g.add_edge(NodeId(v), NodeId(v + 3), 1.0);
                }
            }
        }
        g
    }

    #[test]
    fn source_graph_fans_out_around_source() {
        let g = grid();
        let mask = source_problematic_graph(&g, NodeId(0), NodeId(8), 2);
        // Both of src's edges must be engaged.
        let e01 = g.edge_between(NodeId(0), NodeId(1)).unwrap();
        let e03 = g.edge_between(NodeId(0), NodeId(3)).unwrap();
        assert!(mask.contains(e01) && mask.contains(e03));
        assert!(connects(&g, &mask, NodeId(0), NodeId(8), &[]));
    }

    #[test]
    fn source_graph_survives_loss_of_either_first_hop() {
        let g = grid();
        let mask = source_problematic_graph(&g, NodeId(0), NodeId(8), 2);
        for bad in [NodeId(1), NodeId(3)] {
            assert!(
                connects(&g, &mask, NodeId(0), NodeId(8), &[bad]),
                "source fan-out should survive losing {bad:?}"
            );
        }
    }

    #[test]
    fn robust_graph_is_superset_of_two_disjoint_paths() {
        let g = grid();
        let robust = robust_dissemination_graph(&g, NodeId(0), NodeId(8));
        let two = k_node_disjoint_paths(&g, NodeId(0), NodeId(8), 2).mask();
        assert!(robust.is_superset(&two));
    }

    #[test]
    fn robust_graph_is_cheaper_than_flooding() {
        let g = grid();
        let robust = robust_dissemination_graph(&g, NodeId(0), NodeId(8));
        let flood = constrained_flooding(&g);
        assert!(
            robust.len() < flood.len(),
            "{} !< {}",
            robust.len(),
            flood.len()
        );
        assert_eq!(flood.len(), g.edge_count());
    }

    #[test]
    fn flooding_connects_iff_correct_path_exists() {
        let g = grid();
        let flood = constrained_flooding(&g);
        // Cutting the full middle row+center disconnects corner to corner.
        assert!(connects(&g, &flood, NodeId(0), NodeId(8), &[NodeId(4)]));
        assert!(connects(
            &g,
            &flood,
            NodeId(0),
            NodeId(8),
            &[NodeId(1), NodeId(4)]
        ));
        assert!(!connects(
            &g,
            &flood,
            NodeId(0),
            NodeId(8),
            &[NodeId(2), NodeId(4), NodeId(6)] // full anti-diagonal cut
        ));
    }

    #[test]
    fn destination_graph_mirrors_source_graph() {
        let g = grid();
        let s = source_problematic_graph(&g, NodeId(0), NodeId(8), 2);
        let d = destination_problematic_graph(&g, NodeId(8), NodeId(0), 2);
        assert_eq!(s, d, "undirected construction is symmetric");
    }

    #[test]
    fn fanout_zero_degenerates_to_two_disjoint_paths() {
        let g = grid();
        let mask = source_problematic_graph(&g, NodeId(0), NodeId(8), 0);
        let two = k_node_disjoint_paths(&g, NodeId(0), NodeId(8), 2).mask();
        assert_eq!(mask, two);
    }
}
