//! The overlay topology graph and the unified source-route bitmask.
//!
//! The paper's source-based routing "can be implemented via a unified
//! source-based routing mechanism in which each packet is stamped with a
//! bitmask indicating exactly the set of overlay links it should traverse
//! (where each bit in the bitmask represents an overlay link)" (§II-B).
//! [`EdgeMask`] is that bitmask; [`Graph`] numbers its undirected edges so
//! edge *i* corresponds to bit *i*.

use core::fmt;
use core::ops::{BitAnd, BitOr, BitOrAssign, Not};
use std::mem::size_of;
use std::sync::{Arc, OnceLock};

use crate::csr::Csr;

/// Identifies an overlay node within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Identifies an undirected overlay link within a [`Graph`]; doubles as the
/// bit index in an [`EdgeMask`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Maximum number of overlay links an [`EdgeMask`] can address.
///
/// Structured overlays need only "a few tens of well situated overlay
/// nodes" (§II-A), so 256 links is generous.
pub const MAX_EDGES: usize = 256;

const WORDS: usize = MAX_EDGES / 64;

/// A fixed-size bitmask over overlay links: bit *i* set means the packet
/// should traverse edge *i* (the paper's unified source-route stamp).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct EdgeMask {
    words: [u64; WORDS],
}

impl EdgeMask {
    /// The empty mask (no edges).
    pub const EMPTY: EdgeMask = EdgeMask { words: [0; WORDS] };

    /// Creates a mask containing the given edges.
    #[must_use]
    pub fn from_edges<I: IntoIterator<Item = EdgeId>>(edges: I) -> Self {
        let mut mask = EdgeMask::EMPTY;
        for e in edges {
            mask.insert(e);
        }
        mask
    }

    /// The mask from its words: edge `i` is bit `i % 64` of word `i / 64`.
    #[must_use]
    pub const fn from_words(words: [u64; WORDS]) -> Self {
        EdgeMask { words }
    }

    /// The mask's words, laid out as [`EdgeMask::from_words`] takes them.
    #[must_use]
    pub const fn words(&self) -> [u64; WORDS] {
        self.words
    }

    /// Adds an edge to the mask.
    ///
    /// # Panics
    ///
    /// Panics if the edge index is `>= MAX_EDGES`.
    pub fn insert(&mut self, edge: EdgeId) {
        assert!(
            edge.0 < MAX_EDGES,
            "edge index {} exceeds MAX_EDGES",
            edge.0
        );
        self.words[edge.0 / 64] |= 1 << (edge.0 % 64);
    }

    /// Removes an edge from the mask.
    pub fn remove(&mut self, edge: EdgeId) {
        if edge.0 < MAX_EDGES {
            self.words[edge.0 / 64] &= !(1 << (edge.0 % 64));
        }
    }

    /// Whether the mask contains an edge.
    #[must_use]
    pub fn contains(&self, edge: EdgeId) -> bool {
        edge.0 < MAX_EDGES && self.words[edge.0 / 64] & (1 << (edge.0 % 64)) != 0
    }

    /// Number of edges in the mask.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if no edge is set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates the edges in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(EdgeId(wi * 64 + b))
                }
            })
        })
    }

    /// `true` if every edge of `other` is also in `self`.
    #[must_use]
    pub fn is_superset(&self, other: &EdgeMask) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & b == *b)
    }
}

impl BitOr for EdgeMask {
    type Output = EdgeMask;
    fn bitor(self, rhs: EdgeMask) -> EdgeMask {
        let mut out = self;
        for (w, r) in out.words.iter_mut().zip(&rhs.words) {
            *w |= r;
        }
        out
    }
}

impl BitOrAssign for EdgeMask {
    fn bitor_assign(&mut self, rhs: EdgeMask) {
        *self = *self | rhs;
    }
}

impl BitAnd for EdgeMask {
    type Output = EdgeMask;
    fn bitand(self, rhs: EdgeMask) -> EdgeMask {
        let mut out = self;
        for (w, r) in out.words.iter_mut().zip(&rhs.words) {
            *w &= r;
        }
        out
    }
}

impl Not for EdgeMask {
    type Output = EdgeMask;
    fn not(self) -> EdgeMask {
        let mut out = self;
        for w in out.words.iter_mut() {
            *w = !*w;
        }
        out
    }
}

impl FromIterator<EdgeId> for EdgeMask {
    fn from_iter<I: IntoIterator<Item = EdgeId>>(iter: I) -> Self {
        EdgeMask::from_edges(iter)
    }
}

impl fmt::Display for EdgeMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, e) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "}}")
    }
}

/// The structure of a topology: which edges exist and who they join.
///
/// A deployment's shape is fixed at configuration time while its weights
/// move with every link-state change, so the shape is one immutable
/// allocation that every [`Graph`] clone, every co-located daemon, and
/// every [`TopoSnapshot`](crate::csr::TopoSnapshot) of the deployment
/// shares.
#[derive(Debug, Default)]
struct Shape {
    edges: Vec<(NodeId, NodeId)>,
    adj: Vec<Vec<(NodeId, EdgeId)>>,
    /// The flat adjacency arrays the routing hot path reads, compiled from
    /// `adj` by the first snapshot of this shape and shared by all later
    /// ones.
    csr: OnceLock<Csr>,
}

impl Clone for Shape {
    /// Only [`Graph::add_edge`] clones a shape, and it changes the
    /// adjacency, so the compiled arrays are never carried over.
    fn clone(&self) -> Self {
        Shape {
            edges: self.edges.clone(),
            adj: self.adj.clone(),
            csr: OnceLock::new(),
        }
    }
}

/// An undirected, weighted overlay topology.
///
/// Nodes are dense indices `0..n`; edges are numbered in insertion order and
/// map one-to-one onto [`EdgeMask`] bits. Weights are link costs (typically
/// one-way latency in milliseconds).
///
/// The edge list and adjacency sit behind one `Arc` and the weights behind
/// another, so `clone` copies no buffer at all: every daemon of a deployment
/// shares the configured topology. Both are copy-on-write —
/// [`Graph::add_edge`] on a shared graph copies the structure and the
/// weights first, [`Graph::set_weight`] the weights — so a clone never
/// changes its source.
///
/// # Examples
///
/// ```
/// use son_topo::graph::{Graph, NodeId};
///
/// let mut g = Graph::new(3);
/// let ab = g.add_edge(NodeId(0), NodeId(1), 10.0);
/// let bc = g.add_edge(NodeId(1), NodeId(2), 10.0);
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.endpoints(ab), (NodeId(0), NodeId(1)));
/// assert_eq!(g.neighbors(NodeId(1)).count(), 2);
/// # let _ = bc;
/// ```
#[derive(Debug, Clone, Default)]
pub struct Graph {
    shape: Arc<Shape>,
    weights: Arc<Vec<f64>>,
}

impl Graph {
    /// Creates a graph with `nodes` isolated nodes.
    #[must_use]
    pub fn new(nodes: usize) -> Self {
        Graph {
            shape: Arc::new(Shape {
                edges: Vec::new(),
                adj: vec![Vec::new(); nodes],
                csr: OnceLock::new(),
            }),
            weights: Arc::default(),
        }
    }

    /// Adds an undirected edge with the given weight and returns its id.
    ///
    /// The graph itself has no edge-count ceiling: scale topologies run
    /// far past [`MAX_EDGES`]. Only [`EdgeMask`]-based source-route stamps
    /// stay bounded by [`MAX_EDGES`]; producers of masks must check
    /// [`Graph::edge_count`] and degrade to mask-free routing beyond it.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range, the endpoints are equal,
    /// or the weight is not finite and positive.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, weight: f64) -> EdgeId {
        let n = self.node_count();
        assert!(a.0 < n && b.0 < n, "endpoint out of range");
        assert_ne!(a, b, "self-loops are not allowed");
        assert_valid_weight(weight);
        let shape = Arc::make_mut(&mut self.shape);
        shape.csr.take();
        let id = EdgeId(shape.edges.len());
        shape.edges.push((a, b));
        shape.adj[a.0].push((b, id));
        shape.adj[b.0].push((a, id));
        Arc::make_mut(&mut self.weights).push(weight);
        id
    }

    /// A graph of the same shape (shared, not copied) with every weight
    /// replaced — how a link-state change becomes a new topology view. The
    /// vector becomes the new graph's weight buffer as it is.
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one finite, positive weight per edge.
    #[must_use]
    pub fn with_weights(&self, weights: Vec<f64>) -> Graph {
        assert_eq!(weights.len(), self.edge_count(), "one weight per edge");
        weights.iter().copied().for_each(assert_valid_weight);
        Graph {
            shape: Arc::clone(&self.shape),
            weights: Arc::new(weights),
        }
    }

    /// Whether two graphs share one structure allocation (clones do until
    /// one of them adds an edge).
    #[must_use]
    pub fn shares_shape_with(&self, other: &Graph) -> bool {
        Arc::ptr_eq(&self.shape, &other.shape)
    }

    /// The flat adjacency arrays of this shape, compiled on first use.
    pub(crate) fn csr(&self) -> &Csr {
        self.shape.csr.get_or_init(|| Csr::compile(&self.shape.adj))
    }

    /// Estimated retained heap bytes: this holder's share of the weight
    /// buffer plus its share of the structure (edge list, adjacency, and
    /// the CSR arrays once compiled). Each of the `k` graphs sharing an
    /// allocation charges `1/k` of it, so summing over all holders counts
    /// it once; a graph that shares with nobody charges all of it.
    ///
    /// Capacity-based (not length-based) so the scale observatory sees what
    /// the allocator actually holds; allocator overhead and the inline
    /// struct are not counted.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.weights.capacity() * size_of::<f64>() / Arc::strong_count(&self.weights)
            + self.shape_bytes() / Arc::strong_count(&self.shape)
    }

    /// Estimated retained heap bytes of the whole shared structure.
    #[must_use]
    pub fn shape_bytes(&self) -> usize {
        let shape = &*self.shape;
        shape.edges.capacity() * size_of::<(NodeId, NodeId)>()
            + shape.adj.capacity() * size_of::<Vec<(NodeId, EdgeId)>>()
            + shape
                .adj
                .iter()
                .map(|v| v.capacity() * size_of::<(NodeId, EdgeId)>())
                .sum::<usize>()
            + shape.csr.get().map_or(0, Csr::approx_bytes)
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.shape.adj.len()
    }

    /// Number of edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.weights.len()
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count()).map(NodeId)
    }

    /// All edge ids.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.edge_count()).map(EdgeId)
    }

    /// The `(a, b)` endpoints of an edge.
    ///
    /// # Panics
    ///
    /// Panics if the edge id is out of range.
    #[must_use]
    pub fn endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
        self.shape.edges[edge.0]
    }

    /// The weight of an edge.
    ///
    /// # Panics
    ///
    /// Panics if the edge id is out of range.
    #[must_use]
    pub fn weight(&self, edge: EdgeId) -> f64 {
        self.weights[edge.0]
    }

    /// Every edge's weight, indexed by edge id: what a shortest-path run
    /// reads once instead of calling [`Graph::weight`] per edge.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Updates the weight of an edge (link-quality changes). A graph that
    /// shares its weights copies them first.
    ///
    /// # Panics
    ///
    /// Panics if the edge id is out of range or the weight is invalid.
    pub fn set_weight(&mut self, edge: EdgeId, weight: f64) {
        assert_valid_weight(weight);
        Arc::make_mut(&mut self.weights)[edge.0] = weight;
    }

    /// Iterates `(neighbor, edge)` pairs of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        self.shape.adj[node.0].iter().copied()
    }

    /// The degree of a node.
    #[must_use]
    pub fn degree(&self, node: NodeId) -> usize {
        self.shape.adj[node.0].len()
    }

    /// Finds the edge between two nodes, if any.
    #[must_use]
    pub fn edge_between(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        self.shape.adj[a.0]
            .iter()
            .find(|&&(n, _)| n == b)
            .map(|&(_, e)| e)
    }

    /// A mask containing every edge (the paper's constrained flooding stamp).
    #[must_use]
    pub fn full_mask(&self) -> EdgeMask {
        self.edges().collect()
    }

    /// Total weight of the edges in a mask.
    #[must_use]
    pub fn mask_weight(&self, mask: &EdgeMask) -> f64 {
        mask.iter().map(|e| self.weight(e)).sum()
    }

    /// The set of nodes reachable from `src` using only edges in `mask`,
    /// refusing to traverse through nodes in `blocked` (messages may still
    /// *reach* a blocked node; they are not forwarded onward from it).
    ///
    /// This models dissemination over a source-routed subgraph in which the
    /// blocked (compromised) nodes silently drop traffic.
    #[must_use]
    pub fn reachable_through(
        &self,
        src: NodeId,
        mask: &EdgeMask,
        blocked: &[NodeId],
    ) -> Vec<NodeId> {
        let mut seen = vec![false; self.node_count()];
        let mut queue = std::collections::VecDeque::new();
        seen[src.0] = true;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            if u != src && blocked.contains(&u) {
                continue; // delivered to the node, but it won't forward
            }
            for (v, e) in self.neighbors(u) {
                if mask.contains(e) && !seen[v.0] {
                    seen[v.0] = true;
                    queue.push_back(v);
                }
            }
        }
        (0..self.node_count())
            .filter(|&i| seen[i])
            .map(NodeId)
            .collect()
    }
}

fn assert_valid_weight(weight: f64) {
    assert!(
        weight.is_finite() && weight > 0.0,
        "weight must be finite and positive"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(2), 2.0);
        g.add_edge(NodeId(2), NodeId(0), 3.0);
        g
    }

    #[test]
    fn mask_insert_remove_contains() {
        let mut m = EdgeMask::EMPTY;
        assert!(m.is_empty());
        m.insert(EdgeId(0));
        m.insert(EdgeId(63));
        m.insert(EdgeId(64));
        m.insert(EdgeId(255));
        assert_eq!(m.len(), 4);
        assert!(m.contains(EdgeId(63)));
        assert!(m.contains(EdgeId(64)));
        assert!(!m.contains(EdgeId(65)));
        m.remove(EdgeId(63));
        assert!(!m.contains(EdgeId(63)));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn mask_iter_is_sorted() {
        let m = EdgeMask::from_edges([EdgeId(200), EdgeId(3), EdgeId(64)]);
        let ids: Vec<usize> = m.iter().map(|e| e.0).collect();
        assert_eq!(ids, vec![3, 64, 200]);
    }

    #[test]
    fn mask_set_operations() {
        let a = EdgeMask::from_edges([EdgeId(1), EdgeId(2)]);
        let b = EdgeMask::from_edges([EdgeId(2), EdgeId(3)]);
        assert_eq!((a | b).len(), 3);
        assert_eq!((a & b).len(), 1);
        assert!((a & b).contains(EdgeId(2)));
        assert!((a | b).is_superset(&a));
        assert!(!a.is_superset(&b));
        let mut c = a;
        c |= b;
        assert_eq!(c, a | b);
    }

    #[test]
    fn mask_display() {
        let m = EdgeMask::from_edges([EdgeId(5), EdgeId(1)]);
        assert_eq!(m.to_string(), "{e1,e5}");
        assert_eq!(EdgeMask::EMPTY.to_string(), "{}");
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_EDGES")]
    fn mask_rejects_out_of_range() {
        let mut m = EdgeMask::EMPTY;
        m.insert(EdgeId(MAX_EDGES));
    }

    #[test]
    fn graph_basics() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(NodeId(1)), 2);
        assert_eq!(g.endpoints(EdgeId(1)), (NodeId(1), NodeId(2)));
        assert_eq!(g.weight(EdgeId(2)), 3.0);
        assert_eq!(g.edge_between(NodeId(0), NodeId(2)), Some(EdgeId(2)));
        assert_eq!(g.edge_between(NodeId(0), NodeId(0)), None);
    }

    #[test]
    fn set_weight_updates() {
        let mut g = triangle();
        g.set_weight(EdgeId(0), 9.0);
        assert_eq!(g.weight(EdgeId(0)), 9.0);
    }

    #[test]
    fn clones_share_weights_until_one_writes() {
        let source = triangle();
        let mut copy = source.clone();
        assert!(Arc::ptr_eq(&copy.weights, &source.weights));
        assert!(copy.shares_shape_with(&source));
        copy.set_weight(EdgeId(1), 7.0);
        assert!(!Arc::ptr_eq(&copy.weights, &source.weights));
        assert!(
            copy.shares_shape_with(&source),
            "a weight write keeps the shape shared"
        );
        assert_eq!(
            (source.weight(EdgeId(1)), copy.weight(EdgeId(1))),
            (2.0, 7.0)
        );

        let mut grown = source.clone();
        grown.add_edge(NodeId(0), NodeId(1), 4.0);
        assert!(!Arc::ptr_eq(&grown.weights, &source.weights));
        assert!(!grown.shares_shape_with(&source));
        assert_eq!((source.edge_count(), grown.edge_count()), (3, 4));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn non_positive_weight_rejected() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(1), 0.0);
    }

    #[test]
    fn full_mask_and_weight() {
        let g = triangle();
        let full = g.full_mask();
        assert_eq!(full.len(), 3);
        assert_eq!(g.mask_weight(&full), 6.0);
    }

    #[test]
    fn reachable_through_respects_mask_and_blocked() {
        // path 0-1-2-3
        let mut g = Graph::new(4);
        let e0 = g.add_edge(NodeId(0), NodeId(1), 1.0);
        let e1 = g.add_edge(NodeId(1), NodeId(2), 1.0);
        let e2 = g.add_edge(NodeId(2), NodeId(3), 1.0);

        let all = EdgeMask::from_edges([e0, e1, e2]);
        assert_eq!(
            g.reachable_through(NodeId(0), &all, &[]),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
        // Without e1 the far side is unreachable.
        let partial = EdgeMask::from_edges([e0, e2]);
        assert_eq!(
            g.reachable_through(NodeId(0), &partial, &[]),
            vec![NodeId(0), NodeId(1)]
        );
        // A compromised node 1 receives but does not forward.
        assert_eq!(
            g.reachable_through(NodeId(0), &all, &[NodeId(1)]),
            vec![NodeId(0), NodeId(1)]
        );
        // A blocked *source* still floods (the source is never "dropped").
        assert_eq!(g.reachable_through(NodeId(0), &all, &[NodeId(0)]).len(), 4);
    }
}
