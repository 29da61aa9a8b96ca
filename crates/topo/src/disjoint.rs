//! k node-disjoint paths via min-cost flow with vertex splitting.
//!
//! The paper's intrusion-tolerant messaging uses "k node-disjoint paths,
//! \[so\] a source can protect against up to k − 1 compromised nodes anywhere
//! in the network (since each compromised node can disrupt at most one of
//! the k paths)" (§IV-B). This module computes a minimum-total-latency set
//! of such paths using the classical vertex-splitting reduction: every node
//! becomes an `in → out` arc of capacity one, so at most one path may pass
//! through it, and successive shortest augmenting paths (Bellman–Ford on the
//! residual graph) yield a min-cost integral flow of value `k`.

use crate::dijkstra::Path;
use crate::graph::{EdgeMask, Graph, NodeId};

/// Result of a disjoint-path computation.
#[derive(Debug, Clone)]
pub struct DisjointPaths {
    /// The paths found, cheapest total cost first. May hold fewer than the
    /// requested `k` if the graph does not admit that many.
    pub paths: Vec<Path>,
}

impl DisjointPaths {
    /// Number of paths found.
    #[must_use]
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// `true` if no path exists at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// The union mask over all paths — the source-route stamp for redundant
    /// dissemination over the disjoint paths.
    #[must_use]
    pub fn mask(&self) -> EdgeMask {
        let mut m = EdgeMask::EMPTY;
        for p in &self.paths {
            m |= p.mask();
        }
        m
    }
}

#[derive(Debug, Clone, Copy)]
struct Arc {
    to: usize,
    cap: i32,
    cost: f64,
    /// Index of the reverse arc.
    rev: usize,
    /// The overlay edge this arc came from, if any.
    edge: Option<crate::graph::EdgeId>,
}

struct FlowNet {
    arcs: Vec<Vec<Arc>>,
}

impl FlowNet {
    fn new(n: usize) -> Self {
        FlowNet {
            arcs: vec![Vec::new(); n],
        }
    }

    fn add(
        &mut self,
        from: usize,
        to: usize,
        cap: i32,
        cost: f64,
        edge: Option<crate::graph::EdgeId>,
    ) {
        let rev_from = self.arcs[to].len();
        let rev_to = self.arcs[from].len();
        self.arcs[from].push(Arc {
            to,
            cap,
            cost,
            rev: rev_from,
            edge,
        });
        self.arcs[to].push(Arc {
            to: from,
            cap: 0,
            cost: -cost,
            rev: rev_to,
            edge,
        });
    }
}

/// Finds up to `k` node-disjoint paths from `src` to `dst` minimizing total
/// cost. Returns fewer paths if the graph's connectivity does not admit `k`.
///
/// # Panics
///
/// Panics if `src == dst` or either is out of range.
#[must_use]
pub fn k_node_disjoint_paths(graph: &Graph, src: NodeId, dst: NodeId, k: usize) -> DisjointPaths {
    assert_ne!(src, dst, "disjoint paths require distinct endpoints");
    assert!(
        src.0 < graph.node_count() && dst.0 < graph.node_count(),
        "endpoint out of range"
    );
    let n = graph.node_count();
    // Node v maps to v_in = 2v, v_out = 2v + 1.
    let v_in = |v: NodeId| 2 * v.0;
    let v_out = |v: NodeId| 2 * v.0 + 1;
    let mut net = FlowNet::new(2 * n);
    for v in graph.nodes() {
        let cap = if v == src || v == dst { k as i32 } else { 1 };
        net.add(v_in(v), v_out(v), cap, 0.0, None);
    }
    for e in graph.edges() {
        let (a, b) = graph.endpoints(e);
        let w = graph.weight(e);
        net.add(v_out(a), v_in(b), 1, w, Some(e));
        net.add(v_out(b), v_in(a), 1, w, Some(e));
    }
    let s = v_in(src);
    let t = v_out(dst);

    // Successive shortest augmenting paths (Bellman-Ford handles the
    // negative residual costs; the networks here are tiny).
    let mut found = 0;
    while found < k {
        let nn = 2 * n;
        let mut dist = vec![f64::INFINITY; nn];
        let mut pre: Vec<Option<(usize, usize)>> = vec![None; nn];
        dist[s] = 0.0;
        for _ in 0..nn {
            let mut improved = false;
            for u in 0..nn {
                if dist[u] == f64::INFINITY {
                    continue;
                }
                for (ai, arc) in net.arcs[u].iter().enumerate() {
                    if arc.cap > 0 && dist[u] + arc.cost < dist[arc.to] - 1e-12 {
                        dist[arc.to] = dist[u] + arc.cost;
                        pre[arc.to] = Some((u, ai));
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        if dist[t] == f64::INFINITY {
            break;
        }
        // Augment one unit along the shortest path.
        let mut v = t;
        while v != s {
            let (u, ai) = pre[v].expect("path back to source");
            let rev = net.arcs[u][ai].rev;
            net.arcs[u][ai].cap -= 1;
            net.arcs[v][rev].cap += 1;
            v = u;
        }
        found += 1;
    }

    // Decompose the flow into paths by walking saturated forward arcs.
    let mut paths = Vec::new();
    for _ in 0..found {
        let mut nodes = vec![src];
        let mut edges = Vec::new();
        let mut cost = 0.0;
        let mut cur = src;
        loop {
            if cur == dst {
                break;
            }
            // Leave cur via its out-node on a used arc (reverse cap > 0 on
            // the edge arc means flow passed; equivalently forward cap == 0).
            let out = v_out(cur);
            let mut advanced = false;
            for ai in 0..net.arcs[out].len() {
                let arc = net.arcs[out][ai];
                // Forward graph arcs were added with cap 1; used ones have cap 0.
                if let (Some(edge), true, true) = (arc.edge, arc.cost >= 0.0, arc.cap == 0) {
                    // Consume it so another decomposition pass doesn't reuse it.
                    net.arcs[out][ai].cap = -1;
                    let next = NodeId(arc.to / 2);
                    edges.push(edge);
                    cost += graph.weight(edge);
                    nodes.push(next);
                    cur = next;
                    advanced = true;
                    break;
                }
            }
            assert!(advanced, "flow decomposition stuck at {cur:?}");
        }
        paths.push(Path { nodes, edges, cost });
    }
    paths.sort_by(|a, b| a.cost.partial_cmp(&b.cost).expect("finite costs"));
    DisjointPaths { paths }
}

/// Checks that a set of paths shares no intermediate node (endpoints exempt).
#[must_use]
pub fn are_node_disjoint(paths: &[Path]) -> bool {
    let mut seen = std::collections::HashSet::new();
    for p in paths {
        if p.nodes.len() < 2 {
            continue;
        }
        for &v in &p.nodes[1..p.nodes.len() - 1] {
            if !seen.insert(v) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgeId;

    /// Two disjoint 2-hop routes 0-1-3 / 0-2-3 plus a direct edge 0-3.
    fn diamond_plus() -> Graph {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(3), 1.0);
        g.add_edge(NodeId(0), NodeId(2), 2.0);
        g.add_edge(NodeId(2), NodeId(3), 2.0);
        g.add_edge(NodeId(0), NodeId(3), 5.0);
        g
    }

    #[test]
    fn one_path_is_shortest_path() {
        let g = diamond_plus();
        let dp = k_node_disjoint_paths(&g, NodeId(0), NodeId(3), 1);
        assert_eq!(dp.len(), 1);
        assert_eq!(dp.paths[0].cost, 2.0);
        assert_eq!(dp.paths[0].nodes, vec![NodeId(0), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn three_disjoint_paths_exist_in_diamond_plus() {
        let g = diamond_plus();
        let dp = k_node_disjoint_paths(&g, NodeId(0), NodeId(3), 3);
        assert_eq!(dp.len(), 3);
        assert!(are_node_disjoint(&dp.paths));
        let costs: Vec<f64> = dp.paths.iter().map(|p| p.cost).collect();
        assert_eq!(costs, [2.0, 4.0, 5.0], "cheapest first");
    }

    #[test]
    fn asking_for_more_than_connectivity_returns_fewer() {
        let g = diamond_plus();
        let dp = k_node_disjoint_paths(&g, NodeId(0), NodeId(3), 10);
        assert_eq!(dp.len(), 3, "node 3 has degree 3");
    }

    #[test]
    fn disconnected_returns_empty() {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(2), NodeId(3), 1.0);
        let dp = k_node_disjoint_paths(&g, NodeId(0), NodeId(3), 2);
        assert!(dp.is_empty());
    }

    #[test]
    fn min_cost_flow_reroutes_rather_than_greedy() {
        // Classic trap: the single cheapest path uses the only cut vertex in
        // a way that blocks a second path; min-cost flow must still find 2.
        //      1 --- 2
        //     /       \
        //    0         4
        //     \       /
        //      3 --- /
        // edges: 0-1(1), 1-2(1), 2-4(1), 0-3(1), 3-4(1), 1-4(10)
        // Greedy shortest is 0-1-2-4 (3); second path 0-3-4 (2): both exist
        // disjointly. Now make the greedy-shortest grab node 3:
        let mut g = Graph::new(5);
        g.add_edge(NodeId(0), NodeId(1), 1.0); // e0
        g.add_edge(NodeId(1), NodeId(4), 4.0); // e1
        g.add_edge(NodeId(0), NodeId(3), 1.0); // e2
        g.add_edge(NodeId(3), NodeId(4), 1.0); // e3
        g.add_edge(NodeId(1), NodeId(3), 0.5); // e4 tempts path 1: 0-1-3-4 (2.5)
        let dp = k_node_disjoint_paths(&g, NodeId(0), NodeId(4), 2);
        assert_eq!(
            dp.len(),
            2,
            "flow formulation must not be blocked by greedy choice"
        );
        assert!(are_node_disjoint(&dp.paths));
        let costs: Vec<f64> = dp.paths.iter().map(|p| p.cost).collect();
        assert_eq!(costs, [2.0, 5.0]); // 0-3-4 and 0-1-4
    }

    #[test]
    fn mask_unions_all_paths() {
        let g = diamond_plus();
        let dp = k_node_disjoint_paths(&g, NodeId(0), NodeId(3), 2);
        let mask = dp.mask();
        assert_eq!(mask.len(), 4);
        assert!(mask.contains(EdgeId(0)) && mask.contains(EdgeId(1)));
        assert!(mask.contains(EdgeId(2)) && mask.contains(EdgeId(3)));
        assert!(!mask.contains(EdgeId(4)));
    }

    #[test]
    fn survives_any_k_minus_1_node_cuts() {
        // The paper's core claim: with k disjoint paths, any k-1 compromised
        // intermediate nodes leave at least one path intact.
        let g = diamond_plus();
        let dp = k_node_disjoint_paths(&g, NodeId(0), NodeId(3), 3);
        let mask = dp.mask();
        for bad in [NodeId(1), NodeId(2)] {
            let reached = g.reachable_through(NodeId(0), &mask, &[bad]);
            assert!(
                reached.contains(&NodeId(3)),
                "blocked by single node {bad:?}"
            );
        }
        let reached = g.reachable_through(NodeId(0), &mask, &[NodeId(1), NodeId(2)]);
        assert!(
            reached.contains(&NodeId(3)),
            "direct edge survives both cuts"
        );
    }

    #[test]
    #[should_panic(expected = "distinct endpoints")]
    fn same_endpoints_panics() {
        let g = diamond_plus();
        let _ = k_node_disjoint_paths(&g, NodeId(0), NodeId(0), 2);
    }

    #[test]
    fn are_node_disjoint_detects_shared_interior() {
        let p1 = Path {
            nodes: vec![NodeId(0), NodeId(1), NodeId(3)],
            edges: vec![],
            cost: 0.0,
        };
        let p2 = Path {
            nodes: vec![NodeId(0), NodeId(1), NodeId(3)],
            edges: vec![],
            cost: 0.0,
        };
        assert!(!are_node_disjoint(&[p1.clone(), p2]));
        let p3 = Path {
            nodes: vec![NodeId(0), NodeId(2), NodeId(3)],
            edges: vec![],
            cost: 0.0,
        };
        assert!(are_node_disjoint(&[p1, p3]));
    }
}
