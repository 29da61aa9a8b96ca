//! Shortest paths over the overlay topology (the basis of link-state
//! routing, multicast trees, and anycast target selection): the [`Path`]
//! type and the `&Graph` entry points to the one engine in
//! [`csr`](crate::csr).

use crate::csr::{spt_with_into, Spt, SptScratch};
use crate::graph::{EdgeId, EdgeMask, Graph, NodeId};

/// A single path through the overlay: the nodes visited and the edges taken.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// Nodes in order, starting at the source and ending at the destination.
    pub nodes: Vec<NodeId>,
    /// Edges in order; `edges.len() == nodes.len() - 1`.
    pub edges: Vec<EdgeId>,
    /// Total cost of the path.
    pub cost: f64,
}

impl Path {
    /// The trivial path at a single node.
    #[must_use]
    pub fn trivial(node: NodeId) -> Self {
        Path {
            nodes: vec![node],
            edges: Vec::new(),
            cost: 0.0,
        }
    }

    /// Number of hops (edges).
    #[must_use]
    pub fn hops(&self) -> usize {
        self.edges.len()
    }

    /// The edge mask stamping exactly this path.
    #[must_use]
    pub fn mask(&self) -> EdgeMask {
        self.edges.iter().copied().collect()
    }

    /// The destination node.
    ///
    /// # Panics
    ///
    /// Never panics: a path always has at least one node.
    #[must_use]
    pub fn dst(&self) -> NodeId {
        *self.nodes.last().expect("path is never empty")
    }
}

/// Runs Dijkstra's algorithm from `src` using the graph's edge weights.
///
/// # Panics
///
/// Panics if `src` is out of range.
#[must_use]
pub fn dijkstra(graph: &Graph, src: NodeId) -> Spt {
    let weights = graph.weights();
    dijkstra_with(graph, src, |e| weights[e.0])
}

/// Runs Dijkstra's algorithm with a custom per-edge cost. Edges whose cost is
/// `f64::INFINITY` are treated as absent (e.g. links currently down), as are
/// edges outside any mask the caller encodes into the cost function.
///
/// One-shot form of [`TopoSnapshot::spt_with`](crate::csr::TopoSnapshot::spt_with)
/// for callers that hold a plain `&Graph` and no scratch space.
///
/// # Panics
///
/// Panics if `src` is out of range or a cost is negative/NaN.
#[must_use]
pub fn dijkstra_with<F: Fn(EdgeId) -> f64>(graph: &Graph, src: NodeId, cost: F) -> Spt {
    let mut out = Spt::empty();
    spt_with_into(graph, src, cost, &mut SptScratch::new(), &mut out);
    out
}

/// Shortest path between two nodes, or `None` if disconnected.
#[must_use]
pub fn shortest_path(graph: &Graph, src: NodeId, dst: NodeId) -> Option<Path> {
    if src == dst {
        return Some(Path::trivial(src));
    }
    dijkstra(graph, src).path_to(dst)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 6-node graph: a cheap long chain 0-1-2-5 (cost 3) and an expensive
    /// direct edge 0-5 (cost 10), plus a pendant 3-4 component.
    fn g() -> Graph {
        let mut g = Graph::new(6);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(2), 1.0);
        g.add_edge(NodeId(2), NodeId(5), 1.0);
        g.add_edge(NodeId(0), NodeId(5), 10.0);
        g.add_edge(NodeId(3), NodeId(4), 1.0);
        g
    }

    #[test]
    fn finds_cheapest_path_not_fewest_hops() {
        let p = shortest_path(&g(), NodeId(0), NodeId(5)).unwrap();
        assert_eq!(p.cost, 3.0);
        assert_eq!(p.nodes, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(5)]);
        assert_eq!(p.hops(), 3);
    }

    #[test]
    fn trivial_and_unreachable() {
        let g = g();
        let p = shortest_path(&g, NodeId(2), NodeId(2)).unwrap();
        assert_eq!(p.hops(), 0);
        assert_eq!(p.cost, 0.0);
        assert!(shortest_path(&g, NodeId(0), NodeId(3)).is_none());
        let sp = dijkstra(&g, NodeId(0));
        assert!(!sp.reaches(NodeId(4)));
        assert_eq!(sp.dist(NodeId(4)), None);
    }

    #[test]
    fn next_hop_matches_path() {
        let sp = dijkstra(&g(), NodeId(0));
        let (nh, edge) = sp.next_hop(NodeId(5)).unwrap();
        assert_eq!(nh, NodeId(1));
        assert_eq!(edge, EdgeId(0));
        assert_eq!(sp.next_hop(NodeId(0)), None, "no next hop to self");
        assert_eq!(sp.next_hop(NodeId(4)), None, "no next hop to unreachable");
    }

    #[test]
    fn custom_cost_can_exclude_edges() {
        let g = g();
        // Down the chain's middle edge: forced onto the direct expensive edge.
        let sp = dijkstra_with(&g, NodeId(0), |e| {
            if e == EdgeId(1) {
                f64::INFINITY
            } else {
                g.weight(e)
            }
        });
        let p = sp.path_to(NodeId(5)).unwrap();
        assert_eq!(p.edges, vec![EdgeId(3)]);
        assert_eq!(p.cost, 10.0);
    }

    #[test]
    #[should_panic(expected = "negative or NaN edge cost")]
    fn negative_cost_is_rejected() {
        let _ = dijkstra_with(&g(), NodeId(0), |_| -1.0);
    }

    #[test]
    #[should_panic(expected = "negative or NaN edge cost")]
    fn nan_cost_is_rejected() {
        let _ = dijkstra_with(&g(), NodeId(0), |_| f64::NAN);
    }

    #[test]
    fn path_mask_round_trips() {
        let p = shortest_path(&g(), NodeId(0), NodeId(5)).unwrap();
        let mask = p.mask();
        assert_eq!(mask.len(), 3);
        for e in &p.edges {
            assert!(mask.contains(*e));
        }
    }

    #[test]
    fn tree_mask_covers_targets_without_redundancy() {
        // Star: 0 center, leaves 1..4, plus leaf-to-leaf edge that the SPT
        // must not use.
        let mut g = Graph::new(5);
        let mut spokes = Vec::new();
        for i in 1..5 {
            spokes.push(g.add_edge(NodeId(0), NodeId(i), 1.0));
        }
        g.add_edge(NodeId(1), NodeId(2), 5.0);
        let sp = dijkstra(&g, NodeId(0));
        let mask = sp.tree_mask(&[NodeId(1), NodeId(3)]);
        assert_eq!(mask.len(), 2);
        assert!(mask.contains(spokes[0]));
        assert!(mask.contains(spokes[2]));
        // Targets sharing a branch do not duplicate edges.
        let chain_mask = {
            let mut c = Graph::new(4);
            let e0 = c.add_edge(NodeId(0), NodeId(1), 1.0);
            let e1 = c.add_edge(NodeId(1), NodeId(2), 1.0);
            let e2 = c.add_edge(NodeId(2), NodeId(3), 1.0);
            let sp = dijkstra(&c, NodeId(0));
            let m = sp.tree_mask(&[NodeId(2), NodeId(3)]);
            assert!(m.contains(e0) && m.contains(e1) && m.contains(e2));
            m
        };
        assert_eq!(chain_mask.len(), 3);
    }

    #[test]
    fn deterministic_among_equal_cost_paths() {
        // Two equal-cost 2-hop routes 0-1-3 and 0-2-3; the tie-break must be
        // stable run to run.
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(0), NodeId(2), 1.0);
        g.add_edge(NodeId(1), NodeId(3), 1.0);
        g.add_edge(NodeId(2), NodeId(3), 1.0);
        let p1 = shortest_path(&g, NodeId(0), NodeId(3)).unwrap();
        let p2 = shortest_path(&g, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(p1.cost, 2.0);
    }
}
