//! Flat CSR (compressed sparse row) snapshot of the overlay topology — the
//! routing hot path's view of the graph.
//!
//! [`Graph`] remains the builder/mutation layer: edges are added and
//! re-weighted there. [`TopoSnapshot::new`] freezes one into a snapshot whose
//! adjacency lives in three flat arrays (row offsets, neighbor ids, edge
//! ids), sized `u32`, in the exact neighbor order of the source graph.
//!
//! The arrays describe the graph's *shape*, which a deployment fixes at
//! configuration time, so they are compiled once and live in the allocation
//! every clone of that graph shares. What differs between two views of one
//! deployment is only the weight vector: [`Graph::with_weights`] followed by
//! `TopoSnapshot::new` over the already-compiled shape costs one `Vec<f64>`,
//! and an *unchanged* link-state advertisement costs nothing at all.
//!
//! This module holds the crate's one shortest-path engine: an index-based
//! Dijkstra over the CSR arrays into an owned [`Spt`] — distances, tree
//! parents and a dense per-destination first-hop table, so a forwarding
//! lookup is O(1) instead of a parent-chain walk. [`TopoSnapshot::spt_with`]
//! runs it with a [`SptScratch`] that carries the binary heap and work stack
//! across runs, so steady-state route recomputation performs no per-call
//! heap allocation beyond the result; [`dijkstra_with`] runs it on a plain
//! `&Graph` for the one-shot source-route algorithms.
//!
//! [`dijkstra_with`]: crate::dijkstra::dijkstra_with

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::mem::size_of;

use crate::dijkstra::Path;
use crate::graph::{EdgeId, EdgeMask, Graph, NodeId};

/// Sentinel for "no node / no edge" in the dense `u32` tables.
const NONE: u32 = u32::MAX;

/// The flat adjacency arrays of one graph shape (see the module docs).
#[derive(Debug)]
pub(crate) struct Csr {
    /// Row offsets: node `u`'s incident slots are `row[u]..row[u+1]`.
    row: Vec<u32>,
    /// Far endpoint per adjacency slot.
    adj_node: Vec<u32>,
    /// Edge id per adjacency slot.
    adj_edge: Vec<u32>,
}

impl Csr {
    /// Flattens an adjacency list, preserving neighbor order exactly.
    pub(crate) fn compile(adj: &[Vec<(NodeId, EdgeId)>]) -> Csr {
        let slots = adj.iter().map(Vec::len).sum();
        let mut row = Vec::with_capacity(adj.len() + 1);
        let mut adj_node = Vec::with_capacity(slots);
        let mut adj_edge = Vec::with_capacity(slots);
        row.push(0);
        for neighbors in adj {
            for &(v, e) in neighbors {
                adj_node.push(v.0 as u32);
                adj_edge.push(e.0 as u32);
            }
            row.push(adj_node.len() as u32);
        }
        Csr {
            row,
            adj_node,
            adj_edge,
        }
    }

    pub(crate) fn approx_bytes(&self) -> usize {
        (self.row.capacity() + self.adj_node.capacity() + self.adj_edge.capacity())
            * size_of::<u32>()
    }

    /// The adjacency slots of node `u`.
    fn slots(&self, u: usize) -> std::ops::Range<usize> {
        self.row[u] as usize..self.row[u + 1] as usize
    }
}

/// An immutable view of a [`Graph`], optimised for repeated shortest-path
/// computation and per-packet adjacency queries.
///
/// A snapshot is a frozen [`Graph`] whose shape has its CSR arrays compiled:
/// it holds one weight per edge — its own after a link-state change, the
/// configured ones shared with the graph it froze before any — and shares
/// the shape with every other graph and snapshot of the deployment. The
/// source-route algorithms (disjoint paths, dissemination graphs,
/// k-shortest paths) that operate on `&Graph` run against
/// [`TopoSnapshot::graph`] without any per-call clone.
#[derive(Debug, Clone)]
pub struct TopoSnapshot {
    graph: Graph,
}

impl TopoSnapshot {
    /// Freezes a graph into a snapshot, compiling the CSR arrays unless an
    /// earlier snapshot of the same shape already did. Neighbor order is
    /// preserved exactly, so equal-cost ties break the way the source
    /// graph's edge order says.
    #[must_use]
    pub fn new(graph: Graph) -> Self {
        let _ = graph.csr();
        TopoSnapshot { graph }
    }

    /// The frozen builder-layer graph this snapshot views.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Estimated retained heap bytes: the weights plus this holder's share
    /// of the shared shape (see [`Graph::approx_bytes`] for the policy).
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.graph.approx_bytes()
    }

    /// Number of edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// The weight of an edge.
    ///
    /// # Panics
    ///
    /// Panics if the edge id is out of range.
    #[must_use]
    pub fn weight(&self, edge: EdgeId) -> f64 {
        self.graph.weight(edge)
    }

    /// The `(a, b)` endpoints of an edge.
    ///
    /// # Panics
    ///
    /// Panics if the edge id is out of range.
    #[must_use]
    pub fn endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
        self.graph.endpoints(edge)
    }

    /// Iterates `(neighbor, edge)` pairs of a node, in the source graph's
    /// neighbor order.
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        let csr = self.graph.csr();
        csr.slots(node.0).map(move |i| {
            (
                NodeId(csr.adj_node[i] as usize),
                EdgeId(csr.adj_edge[i] as usize),
            )
        })
    }

    /// The degree of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range.
    #[must_use]
    pub fn degree(&self, node: NodeId) -> usize {
        self.graph.csr().slots(node.0).len()
    }

    /// Runs index-based Dijkstra from `src` using the snapshot weights.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    #[must_use]
    pub fn spt(&self, src: NodeId, scratch: &mut SptScratch) -> Spt {
        let weights = self.graph.weights();
        self.spt_with(src, |e| weights[e.0], scratch)
    }

    /// Runs index-based Dijkstra from `src` with a custom per-edge cost
    /// (`f64::INFINITY` = edge absent, e.g. a link currently down), into a
    /// fresh [`Spt`].
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range or a cost is negative/NaN.
    #[must_use]
    pub fn spt_with<F: Fn(EdgeId) -> f64>(
        &self,
        src: NodeId,
        cost: F,
        scratch: &mut SptScratch,
    ) -> Spt {
        let mut out = Spt::empty();
        self.spt_with_into(src, cost, scratch, &mut out);
        out
    }

    /// Like [`TopoSnapshot::spt_with`], but reuses the allocations of an
    /// existing [`Spt`] — the steady-state recomputation path allocates
    /// nothing once warm.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range or a cost is negative/NaN.
    pub fn spt_with_into<F: Fn(EdgeId) -> f64>(
        &self,
        src: NodeId,
        cost: F,
        scratch: &mut SptScratch,
        out: &mut Spt,
    ) {
        spt_with_into(&self.graph, src, cost, scratch, out);
    }
}

/// The shortest-path engine: index-based Dijkstra from `src` over the
/// compiled CSR arrays of `graph`'s shape, into `out`.
pub(crate) fn spt_with_into<F: Fn(EdgeId) -> f64>(
    graph: &Graph,
    src: NodeId,
    cost: F,
    scratch: &mut SptScratch,
    out: &mut Spt,
) {
    let n = graph.node_count();
    assert!(src.0 < n, "source out of range");
    let csr = graph.csr();
    out.src = src;
    out.dist.clear();
    out.dist.resize(n, f64::INFINITY);
    out.parent_node.clear();
    out.parent_node.resize(n, NONE);
    out.parent_edge.clear();
    out.parent_edge.resize(n, NONE);
    scratch.heap.clear();

    out.dist[src.0] = 0.0;
    scratch.heap.push(HeapEntry {
        dist: 0.0,
        node: src.0 as u32,
    });
    while let Some(HeapEntry { dist: d, node: u }) = scratch.heap.pop() {
        let u = u as usize;
        if d > out.dist[u] {
            continue;
        }
        for i in csr.slots(u) {
            let e = csr.adj_edge[i];
            let w = cost(EdgeId(e as usize));
            if w == f64::INFINITY {
                continue;
            }
            assert!(w >= 0.0, "negative or NaN edge cost");
            let v = csr.adj_node[i] as usize;
            let nd = d + w;
            // Deterministic tie-break: keep the lower-indexed parent edge.
            if nd < out.dist[v]
                || (nd == out.dist[v] && out.parent_edge[v] != NONE && e < out.parent_edge[v])
            {
                out.dist[v] = nd;
                out.parent_node[v] = u as u32;
                out.parent_edge[v] = e;
                scratch.heap.push(HeapEntry {
                    dist: nd,
                    node: v as u32,
                });
            }
        }
    }
    out.fill_first_hops(&mut scratch.stack);
}

impl Graph {
    /// Freezes this graph into a [`TopoSnapshot`] that shares its shape and
    /// its weights (see the [`csr`](crate::csr) module docs).
    #[must_use]
    pub fn freeze(&self) -> TopoSnapshot {
        TopoSnapshot::new(self.clone())
    }
}

/// Reusable working memory for [`TopoSnapshot`] shortest-path runs: the
/// priority queue and the first-hop resolution stack. Keep one per thread
/// (the routing engine does) and recomputation allocates nothing once warm.
#[derive(Debug, Default)]
pub struct SptScratch {
    heap: BinaryHeap<HeapEntry>,
    stack: Vec<u32>,
}

impl SptScratch {
    /// Creates an empty scratch space.
    #[must_use]
    pub fn new() -> Self {
        SptScratch::default()
    }
}

/// A shortest-path tree over a [`TopoSnapshot`]: distances, tree parents,
/// and a dense per-destination first-hop table (the forwarding table a
/// link-state router actually consults, O(1) per lookup).
#[derive(Debug, Clone)]
pub struct Spt {
    src: NodeId,
    dist: Vec<f64>,
    parent_node: Vec<u32>,
    parent_edge: Vec<u32>,
    first_hop_node: Vec<u32>,
    first_hop_edge: Vec<u32>,
}

impl Spt {
    /// An empty tree, for [`TopoSnapshot::spt_with_into`] reuse.
    #[must_use]
    pub fn empty() -> Self {
        Spt {
            src: NodeId(0),
            dist: Vec::new(),
            parent_node: Vec::new(),
            parent_edge: Vec::new(),
            first_hop_node: Vec::new(),
            first_hop_edge: Vec::new(),
        }
    }

    /// The source this tree was computed from.
    #[must_use]
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// Estimated retained heap bytes of the dense per-destination arrays, at
    /// allocated capacity (see [`Graph::approx_bytes`] for the policy).
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.dist.capacity() * size_of::<f64>()
            + (self.parent_node.capacity()
                + self.parent_edge.capacity()
                + self.first_hop_node.capacity()
                + self.first_hop_edge.capacity())
                * size_of::<u32>()
    }

    /// Distance to `node`, or `None` if unreachable.
    #[must_use]
    pub fn dist(&self, node: NodeId) -> Option<f64> {
        let d = self.dist[node.0];
        d.is_finite().then_some(d)
    }

    /// Whether `node` is reachable from the source.
    #[must_use]
    pub fn reaches(&self, node: NodeId) -> bool {
        self.dist[node.0].is_finite()
    }

    /// The tree parent of `node`: the previous node on its shortest path and
    /// the edge connecting them. `None` for the source and unreachable nodes.
    #[must_use]
    pub fn parent(&self, node: NodeId) -> Option<(NodeId, EdgeId)> {
        let p = self.parent_node[node.0];
        (p != NONE).then(|| {
            (
                NodeId(p as usize),
                EdgeId(self.parent_edge[node.0] as usize),
            )
        })
    }

    /// The first hop (neighbor of the source) on the way to `dst`, or `None`
    /// if unreachable or `dst` is the source. O(1): reads the dense table.
    #[must_use]
    pub fn next_hop(&self, dst: NodeId) -> Option<(NodeId, EdgeId)> {
        let n = self.first_hop_node[dst.0];
        (n != NONE).then(|| {
            (
                NodeId(n as usize),
                EdgeId(self.first_hop_edge[dst.0] as usize),
            )
        })
    }

    /// The dense first-hop column [`Spt::next_hop`] reads: entry `d` is the
    /// id of the edge leaving the source toward `d`, or `u32::MAX` for the
    /// source itself and for unreachable nodes. A forwarding table that
    /// needs only the edge copies this out and drops the tree.
    #[must_use]
    pub fn first_hop_edges(&self) -> &[u32] {
        &self.first_hop_edge
    }

    /// Reconstructs the full path to `dst`, or `None` if unreachable.
    #[must_use]
    pub fn path_to(&self, dst: NodeId) -> Option<Path> {
        if !self.reaches(dst) {
            return None;
        }
        let mut nodes = vec![dst];
        let mut edges = Vec::new();
        let mut cur = dst;
        while cur != self.src {
            let (p, e) = self.parent(cur)?;
            nodes.push(p);
            edges.push(e);
            cur = p;
        }
        nodes.reverse();
        edges.reverse();
        Some(Path {
            nodes,
            edges,
            cost: self.dist[dst.0],
        })
    }

    /// The union of tree edges reaching every node in `targets` — a
    /// source-rooted multicast tree restricted to the interested members.
    #[must_use]
    pub fn tree_mask(&self, targets: &[NodeId]) -> EdgeMask {
        let mut mask = EdgeMask::EMPTY;
        for &t in targets {
            if !self.reaches(t) {
                continue;
            }
            let mut cur = t.0;
            while cur != self.src.0 {
                let p = self.parent_node[cur];
                if p == NONE {
                    break;
                }
                let e = EdgeId(self.parent_edge[cur] as usize);
                if mask.contains(e) {
                    break; // the rest of the branch is already in the tree
                }
                mask.insert(e);
                cur = p as usize;
            }
        }
        mask
    }

    /// Fills the dense first-hop table from the parent pointers in O(n)
    /// amortized, resolving each chain once with path compression.
    fn fill_first_hops(&mut self, stack: &mut Vec<u32>) {
        let n = self.dist.len();
        let src = self.src.0 as u32;
        self.first_hop_node.clear();
        self.first_hop_node.resize(n, NONE);
        self.first_hop_edge.clear();
        self.first_hop_edge.resize(n, NONE);
        for v in 0..n as u32 {
            if v == src || self.parent_node[v as usize] == NONE {
                continue; // the source itself, or unreachable
            }
            stack.clear();
            let mut cur = v;
            // Walk up until a node with a known first hop, or a child of the
            // source (its first hop is itself).
            while self.first_hop_node[cur as usize] == NONE && self.parent_node[cur as usize] != src
            {
                stack.push(cur);
                cur = self.parent_node[cur as usize];
            }
            let (hop_n, hop_e) = if self.parent_node[cur as usize] == src
                && self.first_hop_node[cur as usize] == NONE
            {
                (cur, self.parent_edge[cur as usize])
            } else {
                (
                    self.first_hop_node[cur as usize],
                    self.first_hop_edge[cur as usize],
                )
            };
            self.first_hop_node[cur as usize] = hop_n;
            self.first_hop_edge[cur as usize] = hop_e;
            for &w in stack.iter() {
                self.first_hop_node[w as usize] = hop_n;
                self.first_hop_edge[w as usize] = hop_e;
            }
        }
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: u32,
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance, tie-broken by node id for determinism.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl std::fmt::Debug for HeapEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HeapEntry({}, n{})", self.dist, self.node)
    }
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
    fn snapshot_mirrors_graph_shape() {
        let graph = g();
        let snap = graph.freeze();
        assert_eq!(snap.node_count(), graph.node_count());
        assert_eq!(snap.edge_count(), graph.edge_count());
        for u in graph.nodes() {
            assert_eq!(snap.degree(u), graph.degree(u));
            let a: Vec<_> = snap.neighbors(u).collect();
            let b: Vec<_> = graph.neighbors(u).collect();
            assert_eq!(a, b, "neighbor order must be preserved");
        }
        for e in graph.edges() {
            assert_eq!(snap.weight(e), graph.weight(e));
            assert_eq!(snap.endpoints(e), graph.endpoints(e));
        }
    }

    #[test]
    fn edge_added_after_a_dropped_snapshot_recompiles() {
        let mut graph = g();
        drop(graph.freeze());
        // The graph is the shape's only holder again, so the edge lands in
        // place — the arrays compiled for the dropped snapshot must not
        // survive it.
        let e = graph.add_edge(NodeId(3), NodeId(5), 2.0);
        let snap = graph.freeze();
        assert_eq!(snap.degree(NodeId(3)), 2);
        assert!(snap.neighbors(NodeId(5)).any(|n| n == (NodeId(3), e)));
        assert_eq!(
            snap.spt(NodeId(0), &mut SptScratch::new()).dist(NodeId(4)),
            Some(6.0)
        );
    }

    #[test]
    fn reweighted_view_shares_the_shape_and_leaves_the_source_alone() {
        let snap = g().freeze();
        let heavier: Vec<f64> = (0..snap.edge_count()).map(|e| 2.0 + e as f64).collect();
        let next = TopoSnapshot::new(snap.graph().with_weights(heavier.clone()));
        assert!(next.graph().shares_shape_with(snap.graph()));
        for e in snap.graph().edges() {
            assert_eq!(next.weight(e), heavier[e.0]);
            assert_eq!(snap.weight(e), g().weight(e));
        }
    }

    #[test]
    #[should_panic(expected = "one weight per edge")]
    fn with_weights_rejects_a_short_vector() {
        let _ = g().with_weights(vec![1.0]);
    }

    /// The pointer-graph Dijkstra the CSR engine replaced, kept as the
    /// reference it must match bit for bit: `(dist, parent)` per node.
    fn reference_dijkstra<F: Fn(EdgeId) -> f64>(
        graph: &Graph,
        src: NodeId,
        cost: F,
    ) -> (Vec<f64>, Vec<Option<(NodeId, EdgeId)>>) {
        #[derive(PartialEq)]
        struct Entry(f64, NodeId);
        impl Eq for Entry {}
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> Ordering {
                let by_dist = other.0.partial_cmp(&self.0).unwrap_or(Ordering::Equal);
                by_dist.then_with(|| other.1.cmp(&self.1))
            }
        }
        let n = graph.node_count();
        let mut dist = vec![f64::INFINITY; n];
        let mut parent: Vec<Option<(NodeId, EdgeId)>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        dist[src.0] = 0.0;
        heap.push(Entry(0.0, src));
        while let Some(Entry(d, u)) = heap.pop() {
            if d > dist[u.0] {
                continue;
            }
            for (v, e) in graph.neighbors(u) {
                let w = cost(e);
                if w == f64::INFINITY {
                    continue;
                }
                let nd = d + w;
                if nd < dist[v.0]
                    || (nd == dist[v.0] && parent[v.0].is_some_and(|(_, pe)| e.0 < pe.0))
                {
                    dist[v.0] = nd;
                    parent[v.0] = Some((u, e));
                    heap.push(Entry(nd, v));
                }
            }
        }
        (dist, parent)
    }

    /// A 24-node unit ring with weight-2 chords over every other pair of
    /// ring edges: each chord ties with the two edges it spans, so the
    /// lower-edge-id tie-break decides parents from every root.
    fn ring_with_ties() -> Graph {
        let n = 24;
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_edge(NodeId(i), NodeId((i + 1) % n), 1.0);
        }
        for i in (0..n).step_by(2) {
            g.add_edge(NodeId(i), NodeId((i + 2) % n), 2.0);
        }
        g
    }

    #[test]
    fn spt_matches_graph_dijkstra() {
        for graph in [g(), ring_with_ties()] {
            let snap = graph.freeze();
            let mut scratch = SptScratch::new();
            // Plain weights, then the way `kshortest`/`dissemination` call
            // it: a third of the edges masked out with an infinite cost.
            for masked in [false, true] {
                let cost = |e: EdgeId| {
                    if masked && e.0 % 3 == 1 {
                        f64::INFINITY
                    } else {
                        graph.weight(e)
                    }
                };
                for src in graph.nodes() {
                    let (dist, parent) = reference_dijkstra(&graph, src, cost);
                    let spt = snap.spt_with(src, cost, &mut scratch);
                    for v in graph.nodes() {
                        let d = dist[v.0];
                        assert_eq!(spt.dist(v), d.is_finite().then_some(d), "dist {src}->{v}");
                        assert_eq!(spt.parent(v), parent[v.0], "parent {src}->{v}");
                        // The first hop is the last node before the source
                        // on the reference's parent chain.
                        let mut hop = None;
                        let mut cur = v;
                        while let Some((p, e)) = parent[cur.0] {
                            hop = Some((cur, e));
                            cur = p;
                        }
                        assert_eq!(spt.next_hop(v), hop, "next_hop {src}->{v}");
                    }
                }
            }
        }
    }

    #[test]
    fn spt_cost_filter_excludes_edges() {
        let graph = g();
        let snap = graph.freeze();
        let mut scratch = SptScratch::new();
        // Down the chain's middle edge: forced onto the direct 0-5 edge.
        let spt = snap.spt_with(
            NodeId(0),
            |e| {
                if e == EdgeId(1) {
                    f64::INFINITY
                } else {
                    snap.weight(e)
                }
            },
            &mut scratch,
        );
        assert_eq!(spt.dist(NodeId(5)), Some(10.0));
        assert_eq!(spt.next_hop(NodeId(5)), Some((NodeId(5), EdgeId(3))));
    }

    #[test]
    fn next_hop_table_is_dense_and_correct() {
        let graph = g();
        let snap = graph.freeze();
        let mut scratch = SptScratch::new();
        let spt = snap.spt(NodeId(0), &mut scratch);
        // All of 1, 2, 5 route via neighbor 1 on edge 0.
        for dst in [NodeId(1), NodeId(2), NodeId(5)] {
            assert_eq!(spt.next_hop(dst), Some((NodeId(1), EdgeId(0))));
        }
        assert_eq!(spt.next_hop(NodeId(0)), None, "no hop to self");
        assert_eq!(spt.next_hop(NodeId(4)), None, "no hop to unreachable");
    }

    #[test]
    fn spt_into_reuses_allocations() {
        let graph = g();
        let snap = graph.freeze();
        let mut scratch = SptScratch::new();
        let mut spt = Spt::empty();
        snap.spt_with_into(NodeId(0), |e| snap.weight(e), &mut scratch, &mut spt);
        let first = spt.dist(NodeId(5));
        snap.spt_with_into(NodeId(5), |e| snap.weight(e), &mut scratch, &mut spt);
        assert_eq!(spt.src(), NodeId(5));
        assert_eq!(spt.dist(NodeId(0)), first, "symmetric distance");
        assert_eq!(spt.next_hop(NodeId(0)), Some((NodeId(2), EdgeId(2))));
    }
}
