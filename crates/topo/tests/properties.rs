//! Property-based tests over randomly generated overlay topologies.
//!
//! Invariants checked:
//! * From every root, `Spt::path_to` agrees with `dist` (bit for bit) and
//!   with walking `parent`, path costs equal the sum of their edge weights,
//!   and distances satisfy the triangle inequality.
//! * `k_node_disjoint_paths` returns genuinely node-disjoint valid paths,
//!   with the first equal in cost to the plain shortest path.
//! * With k disjoint paths, removing any k-1 interior nodes leaves the
//!   destination reachable (the paper's §IV-B guarantee).
//! * Multicast trees (`Spt::tree_mask`) reach every member at no more than
//!   unicast mesh cost.
//! * Dissemination graphs are supersets of the 2-disjoint-path mask and
//!   subsets of the flooding mask.
//! * Clones of a graph share one structure allocation until one of them adds
//!   an edge, and nothing done to a clone is visible in its source.

use proptest::prelude::*;
use son_topo::dijkstra::{dijkstra, shortest_path, Path};
use son_topo::disjoint::{are_node_disjoint, k_node_disjoint_paths};
use son_topo::dissemination::{connects, robust_dissemination_graph};
use son_topo::graph::{Graph, NodeId};

/// Strategy: a connected random graph of 4..=12 nodes. We first build a
/// random spanning tree (guaranteeing connectivity), then sprinkle extra
/// edges.
fn arb_connected_graph() -> impl Strategy<Value = Graph> {
    (4usize..=12).prop_flat_map(|n| {
        let tree_parents = proptest::collection::vec(0usize..usize::MAX, n - 1);
        let extra = proptest::collection::vec((0usize..n, 0usize..n, 1u32..50), 0..(2 * n));
        let weights = proptest::collection::vec(1u32..50, n - 1);
        (Just(n), tree_parents, weights, extra).prop_map(|(n, parents, weights, extra)| {
            let mut g = Graph::new(n);
            for i in 1..n {
                let p = parents[i - 1] % i;
                g.add_edge(NodeId(p), NodeId(i), f64::from(weights[i - 1]));
            }
            for (a, b, w) in extra {
                if a != b && g.edge_between(NodeId(a), NodeId(b)).is_none() {
                    g.add_edge(NodeId(a), NodeId(b), f64::from(w));
                }
            }
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn spt_path_to_matches_dist_and_parents(g in arb_connected_graph()) {
        // The same graph plus one isolated node, so "unreachable" occurs.
        let island = NodeId(g.node_count());
        let mut with_island = Graph::new(g.node_count() + 1);
        for e in g.edges() {
            let (a, b) = g.endpoints(e);
            with_island.add_edge(a, b, g.weight(e));
        }
        for src in g.nodes() {
            let sp = dijkstra(&with_island, src);
            prop_assert_eq!(sp.path_to(island), None);
            prop_assert_eq!(sp.path_to(src), Some(Path::trivial(src)));
            for v in g.nodes() {
                let path = sp.path_to(v).expect("connected graph");
                prop_assert_eq!(path.nodes[0], src);
                prop_assert_eq!(path.dst(), v);
                prop_assert_eq!(path.edges.len(), path.nodes.len() - 1);
                prop_assert_eq!(path.cost.to_bits(), sp.dist(v).unwrap().to_bits());
                let edge_sum: f64 = path.edges.iter().map(|&e| g.weight(e)).sum();
                prop_assert!((path.cost - edge_sum).abs() < 1e-9);
                // Walking `parent()` back from `v` retraces the path.
                let mut cur = v;
                for (&node, &edge) in path.nodes.iter().zip(&path.edges).rev() {
                    prop_assert_eq!(sp.parent(cur), Some((node, edge)));
                    cur = node;
                }
                prop_assert_eq!(cur, src);
                prop_assert_eq!(sp.parent(cur), None);
            }
        }
    }

    #[test]
    fn dijkstra_respects_triangle_inequality(g in arb_connected_graph()) {
        let sp = dijkstra(&g, NodeId(0));
        for e in g.edges() {
            let (a, b) = g.endpoints(e);
            let da = sp.dist(a).unwrap();
            let db = sp.dist(b).unwrap();
            prop_assert!(db <= da + g.weight(e) + 1e-9);
            prop_assert!(da <= db + g.weight(e) + 1e-9);
        }
    }

    #[test]
    fn disjoint_paths_are_disjoint_and_valid(g in arb_connected_graph(), k in 1usize..4) {
        let n = g.node_count();
        let (src, dst) = (NodeId(0), NodeId(n - 1));
        let dp = k_node_disjoint_paths(&g, src, dst, k);
        prop_assert!(!dp.is_empty(), "graph is connected");
        prop_assert!(dp.len() <= k);
        prop_assert!(are_node_disjoint(&dp.paths));
        for p in &dp.paths {
            // Path is contiguous and uses real edges.
            prop_assert_eq!(*p.nodes.first().unwrap(), src);
            prop_assert_eq!(p.dst(), dst);
            for (i, &e) in p.edges.iter().enumerate() {
                let (a, b) = g.endpoints(e);
                let (u, v) = (p.nodes[i], p.nodes[i + 1]);
                prop_assert!((a, b) == (u, v) || (a, b) == (v, u));
            }
        }
    }

    #[test]
    fn first_disjoint_path_is_shortest(g in arb_connected_graph()) {
        let n = g.node_count();
        let (src, dst) = (NodeId(0), NodeId(n - 1));
        let dp = k_node_disjoint_paths(&g, src, dst, 1);
        let sp = shortest_path(&g, src, dst).unwrap();
        prop_assert!((dp.paths[0].cost - sp.cost).abs() < 1e-9,
            "min-cost single flow = shortest path");
    }

    #[test]
    fn k_disjoint_survive_k_minus_1_interior_failures(g in arb_connected_graph()) {
        let n = g.node_count();
        let (src, dst) = (NodeId(0), NodeId(n - 1));
        let dp = k_node_disjoint_paths(&g, src, dst, 3);
        let k = dp.len();
        prop_assume!(k >= 2);
        let mask = dp.mask();
        // Knock out all interior nodes of k-1 of the paths simultaneously.
        for skip in 0..k {
            let blocked: Vec<NodeId> = dp
                .paths
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .flat_map(|(_, p)| p.nodes[1..p.nodes.len() - 1].to_vec())
                .collect();
            prop_assert!(
                connects(&g, &mask, src, dst, &blocked),
                "path {skip} should survive when the others are cut"
            );
        }
    }

    #[test]
    fn multicast_tree_reaches_members_cheaper_than_mesh(
        g in arb_connected_graph(),
        member_seed in proptest::collection::vec(any::<bool>(), 12),
    ) {
        let members: Vec<NodeId> = g
            .nodes()
            .skip(1)
            .filter(|v| member_seed[v.0 % member_seed.len()])
            .collect();
        let sp = dijkstra(&g, NodeId(0));
        let tree = sp.tree_mask(&members);
        for &m in &members {
            prop_assert!(connects(&g, &tree, NodeId(0), m, &[]));
        }
        let tree_cost = g.mask_weight(&tree);
        let mesh_cost: f64 = members.iter().filter_map(|&m| sp.dist(m)).sum();
        prop_assert!(tree_cost <= mesh_cost + 1e-9);
    }

    #[test]
    fn dissemination_graph_sandwiched_between_paths_and_flood(g in arb_connected_graph()) {
        let n = g.node_count();
        let (src, dst) = (NodeId(0), NodeId(n - 1));
        let robust = robust_dissemination_graph(&g, src, dst);
        let two = k_node_disjoint_paths(&g, src, dst, 2).mask();
        let flood = g.full_mask();
        prop_assert!(robust.is_superset(&two));
        prop_assert!(flood.is_superset(&robust));
        prop_assert!(connects(&g, &robust, src, dst, &[]));
    }

    #[test]
    fn edge_mask_roundtrip(indices in proptest::collection::btree_set(0usize..256, 0..40)) {
        use son_topo::graph::{EdgeId, EdgeMask};
        let mask: EdgeMask = indices.iter().map(|&i| EdgeId(i)).collect();
        prop_assert_eq!(mask.len(), indices.len());
        let back: Vec<usize> = mask.iter().map(|e| e.0).collect();
        let expect: Vec<usize> = indices.into_iter().collect();
        prop_assert_eq!(back, expect);
    }

    #[test]
    fn mutating_a_clone_never_changes_its_source(
        g in arb_connected_graph(),
        picks in proptest::collection::vec((0usize..usize::MAX, 1u32..50), 1..6),
    ) {
        use son_topo::graph::EdgeId;
        use son_topo::{SptScratch, TopoSnapshot};
        let view = |g: &Graph| -> Vec<_> {
            g.edges().map(|e| (g.endpoints(e), g.weight(e).to_bits())).collect()
        };
        let adjacency = |g: &Graph| -> Vec<Vec<_>> {
            g.nodes().map(|u| g.neighbors(u).collect()).collect()
        };
        let (edges_before, adj_before) = (view(&g), adjacency(&g));
        // A snapshot taken first, so the source's compiled arrays are what a
        // structural change to the clone must leave alone.
        let snap = TopoSnapshot::new(g.clone());
        let spt_before = snap.spt(NodeId(0), &mut SptScratch::new());

        // Re-weighting touches only the clone's own weights.
        let mut reweighted = g.clone();
        prop_assert!(reweighted.shares_shape_with(&g));
        for &(pick, w) in &picks {
            reweighted.set_weight(EdgeId(pick % g.edge_count()), f64::from(w) + 0.5);
        }
        prop_assert!(reweighted.shares_shape_with(&g), "weights are not structure");
        prop_assert!(g.with_weights(vec![1.0; g.edge_count()]).shares_shape_with(&g));

        // Adding an edge copies the structure first.
        let mut grown = g.clone();
        let (a, b) = (NodeId(0), NodeId(g.node_count() - 1));
        let added = grown.add_edge(a, b, 7.0);
        prop_assert!(!grown.shares_shape_with(&g));
        prop_assert_eq!(added.0, g.edge_count());
        prop_assert_eq!(grown.edge_count(), g.edge_count() + 1);
        let grown_snap = TopoSnapshot::new(grown.clone());
        prop_assert_eq!(grown_snap.degree(a), g.degree(a) + 1);
        prop_assert!(grown_snap.neighbors(a).any(|(v, e)| v == b && e == added));

        prop_assert_eq!(view(&g), edges_before);
        prop_assert_eq!(adjacency(&g), adj_before);
        let spt_after = snap.spt(NodeId(0), &mut SptScratch::new());
        for v in g.nodes() {
            prop_assert_eq!(snap.neighbors(v).collect::<Vec<_>>(), g.neighbors(v).collect::<Vec<_>>());
            prop_assert_eq!(spt_after.parent(v), spt_before.parent(v));
            prop_assert_eq!(spt_after.dist(v), spt_before.dist(v));
        }
    }
}
