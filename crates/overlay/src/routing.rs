//! The routing level (Fig. 2): forwarding decisions from shared state.
//!
//! "The routing level makes decisions about how to forward incoming packets
//! based on the routing service specified for the flow (Link State or Source
//! Based), the current state of the network (obtained via the Connectivity
//! Graph Maintenance component), and the packet's source and destination or
//! destinations (with multicast group membership maintained by the Group
//! State component)."
//!
//! [`Forwarding`] is a pure decision engine over the current shared topology
//! view; the node daemon consults it per packet. The view is an immutable
//! [`TopoSnapshot`] shared by `Arc` with the connectivity monitor, tagged
//! with the connectivity version: [`Forwarding::install`] with an unchanged
//! version is a no-op (nothing recomputed, nothing invalidated), while a
//! real change swaps the snapshot in and drops the version-scoped caches.
//! The dense per-destination next-hop table is built in a single SPT pass
//! by the first lookup of a version, so a daemon that routes nothing runs no
//! Dijkstra, and one that does runs one per version it reads, however many
//! versions went by unread. Per-packet lookups are O(1) table reads and the
//! multicast path returns a borrowed slice — no allocation on the data
//! plane.
//!
//! The table is all a daemon keeps of its own tree: one 4-byte edge id per
//! destination. The build runs Dijkstra into a tree and working memory
//! that belong to the thread, not the daemon, and copies the first-hop
//! column out; the lookups that need the whole tree (anycast distances,
//! multicast from this node) read the version-scoped tree cache, like every
//! other root.

use std::cell::{Cell, OnceCell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

use son_topo::csr::{Spt, SptScratch, TopoSnapshot};
use son_topo::{
    constrained_flooding, k_node_disjoint_paths, overlapping_paths_mask,
    robust_dissemination_graph, EdgeId, EdgeMask, Graph, NodeId,
};

use crate::service::SourceRoute;

/// Edge weight above which a link is considered unusable (down links are
/// advertised at 1e12 by the connectivity monitor).
const UNUSABLE: f64 = 1e9;

/// A next-hop table entry with no edge: the node itself, or unreachable.
const NO_HOP: u32 = u32::MAX;

thread_local! {
    /// The tree and working memory every rebuild of the daemons on this
    /// thread runs Dijkstra into; only the first-hop column is kept.
    static DIJKSTRA: RefCell<(Spt, SptScratch)> =
        RefCell::new((Spt::empty(), SptScratch::new()));
}

/// The per-node forwarding engine.
#[derive(Debug)]
pub struct Forwarding {
    me: NodeId,
    snap: Arc<TopoSnapshot>,
    /// Connectivity version the snapshot and caches correspond to.
    version: u64,
    /// Dense per-destination next-hop table: entry `d` is the id of the
    /// edge the usable-cost SPT rooted at `me` leaves on toward `d`
    /// ([`NO_HOP`] for `me` and unreachable nodes), built by the first
    /// lookup of the installed version.
    next_hop: OnceCell<Box<[u32]>>,
    /// Shortest-path trees by root (multicast origins and, for anycast,
    /// `me`), computed on demand.
    spt: HashMap<NodeId, Spt>,
    /// Multicast out-edge sets by (origin, member-set fingerprint).
    mcast: HashMap<(NodeId, u64), Vec<EdgeId>>,
    /// Total SPT computations performed (observability / regression tests);
    /// a `Cell` because a `&self` lookup may build the next-hop table.
    spt_builds: Cell<u64>,
    /// Times a new topology view was actually installed.
    installs: u64,
}

impl Forwarding {
    /// Creates a forwarding engine for node `me` over an initial topology
    /// view (installed as version 0).
    #[must_use]
    pub fn new(me: NodeId, graph: Graph) -> Self {
        Forwarding {
            me,
            snap: Arc::new(TopoSnapshot::new(graph)),
            version: 0,
            next_hop: OnceCell::new(),
            spt: HashMap::new(),
            mcast: HashMap::new(),
            spt_builds: Cell::new(0),
            installs: 0,
        }
    }

    /// Installs the shared topology view for connectivity `version`.
    ///
    /// If `version` matches the installed one this is a no-op: the snapshot
    /// is unchanged by construction, so nothing is invalidated. On a real
    /// change the next-hop table and the version-scoped caches are dropped;
    /// nothing is recomputed until a lookup reads the new version.
    pub fn install(&mut self, snap: Arc<TopoSnapshot>, version: u64) {
        if version == self.version {
            return;
        }
        self.snap = snap;
        self.version = version;
        self.next_hop = OnceCell::new();
        self.spt.clear();
        self.mcast.clear();
        self.installs += 1;
    }

    /// Installs a fresh topology view built from a plain graph: always
    /// freezes and recomputes. The unit tests' shorthand for
    /// [`Forwarding::install`].
    #[cfg(test)]
    fn set_graph(&mut self, graph: Graph) {
        let next = self.version.wrapping_add(1);
        self.install(Arc::new(TopoSnapshot::new(graph)), next);
    }

    /// The current topology view.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        self.snap.graph()
    }

    /// The connectivity version of the installed view.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Total SPT computations performed since creation. A cache hit does
    /// no graph work, so this stays flat across repeated lookups.
    #[must_use]
    pub fn spt_builds(&self) -> u64 {
        self.spt_builds.get()
    }

    /// Times a new topology view was installed (caches invalidated).
    /// A no-op [`Forwarding::install`] leaves this unchanged.
    #[must_use]
    pub fn installs(&self) -> u64 {
        self.installs
    }

    /// Link-state unicast: the edge to forward on from this node toward
    /// `dst`, or `None` if `dst` is unreachable, outside the topology, or
    /// this node. O(1): one dense-table read (the first lookup of a
    /// topology version builds the table).
    #[must_use]
    pub fn unicast_next_hop(&self, dst: NodeId) -> Option<EdgeId> {
        let e = self.table().get(dst.0).copied().unwrap_or(NO_HOP);
        (e != NO_HOP).then_some(EdgeId(e as usize))
    }

    /// Whether this node currently has a usable route to `dst` (trivially
    /// true for itself). The membership maintenance loop uses this as its
    /// per-epoch liveness evidence.
    #[must_use]
    pub fn reaches(&self, dst: NodeId) -> bool {
        dst == self.me || self.unicast_next_hop(dst).is_some()
    }

    /// Builds the installed version's next-hop table now, if no lookup has
    /// yet, inside a `route.spt` span of `perf`: the daemon's way to have
    /// its Dijkstra runs profiled where they happen.
    pub(crate) fn warm(&self, perf: &son_obs::PerfRegistry) {
        if self.next_hop.get().is_none() {
            let _span = perf.span("route.spt");
            self.table();
        }
    }

    /// Link-state multicast: the edges this node forwards a packet from
    /// `origin` on, given the group's member nodes. Every node computes the
    /// same origin-rooted tree from shared state, so the union of these
    /// local decisions is exactly the tree. Returns a borrowed slice into
    /// the version-scoped cache — a hit does no graph work and no
    /// allocation.
    pub fn multicast_out_edges(&mut self, origin: NodeId, members: &[NodeId]) -> &[EdgeId] {
        let key = (origin, fingerprint(members));
        if !self.mcast.contains_key(&key) {
            let Forwarding {
                me,
                ref snap,
                ref mut spt,
                ref spt_builds,
                ..
            } = *self;
            let spt = spt_entry(snap, spt, spt_builds, origin);
            let mut out = Vec::new();
            if snap.edge_count() <= son_topo::graph::MAX_EDGES {
                // The edge set of the origin-rooted tree spanning the
                // members. This node forwards on tree edges whose *child*
                // side is the far endpoint (i.e. edges by which some
                // member's path leaves `me`).
                let tree = spt.tree_mask(members);
                for e in tree.iter() {
                    let (a, b) = snap.endpoints(e);
                    let far = if a == me {
                        b
                    } else if b == me {
                        a
                    } else {
                        continue;
                    };
                    // `e` is downstream of me iff far's tree parent is me
                    // via e.
                    if spt.parent(far) == Some((me, e)) {
                        out.push(e);
                    }
                }
            } else {
                // Beyond the EdgeMask capacity: walk each member's tree
                // path instead of materializing a mask. Same edge set;
                // sorted to match the mask path's ascending-id order.
                for &m in members {
                    let mut cur = m;
                    while let Some((p, e)) = spt.parent(cur) {
                        if p == me && !out.contains(&e) {
                            out.push(e);
                        }
                        cur = p;
                    }
                }
                out.sort_unstable();
            }
            self.mcast.insert(key, out);
        }
        self.mcast.get(&key).map_or(&[], Vec::as_slice)
    }

    /// Anycast: resolve the best member node from this (ingress) node. The
    /// distances come from the tree rooted here, built on the first lookup
    /// of a topology version and cached with it.
    pub fn anycast_resolve(&mut self, members: &[NodeId]) -> Option<NodeId> {
        let me = self.me;
        if members.contains(&me) {
            return Some(me);
        }
        let tree = spt_entry(&self.snap, &mut self.spt, &self.spt_builds, me);
        members
            .iter()
            .filter_map(|&m| tree.dist(m).map(|d| (d, m)))
            .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1)))
            .map(|(_, m)| m)
    }

    /// Computes the source-route stamp for a flow from this node to
    /// `dst`, per the selected scheme. Returns `None` if no route exists.
    ///
    /// Runs against the frozen graph inside the snapshot — no topology
    /// clone per stamp. Down links stay in the graph at weight 1e12, so
    /// any path using one is worse than every real alternative and the
    /// algorithms prune them naturally.
    pub fn source_route_mask(&mut self, scheme: SourceRoute, dst: NodeId) -> Option<EdgeMask> {
        let usable = self.snap.graph();
        // EdgeMask stamps address at most MAX_EDGES edges; larger scale
        // topologies cannot be source-routed, so the flow is refused here
        // (the ingress reports it unroutable) instead of panicking inside
        // the mask constructors.
        if usable.edge_count() > son_topo::graph::MAX_EDGES {
            return None;
        }
        match scheme {
            SourceRoute::DisjointPaths(k) => {
                let dp = k_node_disjoint_paths(usable, self.me, dst, usize::from(k.max(1)));
                if dp.is_empty() {
                    None
                } else {
                    Some(dp.mask())
                }
            }
            SourceRoute::OverlappingPaths(k) => {
                let mask = overlapping_paths_mask(usable, self.me, dst, usize::from(k.max(1)));
                if mask.is_empty() {
                    None
                } else {
                    Some(mask)
                }
            }
            SourceRoute::DisseminationGraph => {
                let mask = robust_dissemination_graph(usable, self.me, dst);
                if mask.is_empty() {
                    None
                } else {
                    Some(mask)
                }
            }
            SourceRoute::ConstrainedFlooding => Some(constrained_flooding(usable)),
            SourceRoute::Static(mask) => Some(mask),
        }
    }

    /// Source-based forwarding: the mask edges incident to this node, except
    /// the one the packet arrived on. Combined with per-flow de-duplication
    /// this floods the packet over exactly the stamped subgraph.
    #[must_use]
    pub fn mask_out_edges(&self, mask: &EdgeMask, arrived_on: Option<EdgeId>) -> Vec<EdgeId> {
        let mut out = Vec::new();
        self.mask_out_edges_into(mask, arrived_on, &mut out);
        out
    }

    /// Like [`Forwarding::mask_out_edges`], but appends into a caller-owned
    /// buffer so the per-packet path allocates nothing once warm.
    pub fn mask_out_edges_into(
        &self,
        mask: &EdgeMask,
        arrived_on: Option<EdgeId>,
        out: &mut Vec<EdgeId>,
    ) {
        out.extend(
            self.snap
                .neighbors(self.me)
                .filter(|&(_, e)| mask.contains(e) && Some(e) != arrived_on)
                .map(|(_, e)| e),
        );
    }

    /// The installed version's next-hop table, built on first use from
    /// this thread's tree.
    fn table(&self) -> &[u32] {
        self.next_hop.get_or_init(|| {
            self.spt_builds.set(self.spt_builds.get() + 1);
            let weights = self.snap.graph().weights();
            DIJKSTRA.with_borrow_mut(|(tree, scratch)| {
                self.snap
                    .spt_with_into(self.me, |e| usable_cost(weights[e.0]), scratch, tree);
                tree.first_hop_edges().into()
            })
        })
    }
}

/// Cache lookup with split borrows: the snapshot stays immutably borrowed
/// while the SPT cache takes the mutable borrow.
fn spt_entry<'a>(
    snap: &TopoSnapshot,
    cache: &'a mut HashMap<NodeId, Spt>,
    builds: &Cell<u64>,
    root: NodeId,
) -> &'a Spt {
    cache.entry(root).or_insert_with(|| {
        builds.set(builds.get() + 1);
        let weights = snap.graph().weights();
        DIJKSTRA.with_borrow_mut(|(_, scratch)| {
            snap.spt_with(root, |e| usable_cost(weights[e.0]), scratch)
        })
    })
}

/// Edge cost that refuses to traverse unusable (down) edges.
fn usable_cost(w: f64) -> f64 {
    if w >= UNUSABLE {
        f64::INFINITY
    } else {
        w
    }
}

fn fingerprint(members: &[NodeId]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for m in members {
        h ^= m.0 as u64 + 1;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl son_obs::MemFootprint for Forwarding {
    fn footprint_bytes(&self) -> usize {
        use son_obs::footprint::{hashmap_bytes, shared_part, vec_bytes};
        // The installed view is the `Arc` the connectivity monitor caches:
        // each of its holders charges an equal part (DESIGN.md §7).
        shared_part(Arc::strong_count(&self.snap), self.snap.approx_bytes())
            + self.next_hop.get().map_or(0, |t| size_of_val(&**t))
            + hashmap_bytes(&self.spt)
            + self
                .spt
                .values()
                .map(son_topo::Spt::approx_bytes)
                .sum::<usize>()
            + hashmap_bytes(&self.mcast)
            + self.mcast.values().map(vec_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Square with diagonal: 0-1, 1-3, 0-2, 2-3, 0-3(longer).
    fn square() -> Graph {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0); // e0
        g.add_edge(NodeId(1), NodeId(3), 1.0); // e1
        g.add_edge(NodeId(0), NodeId(2), 2.0); // e2
        g.add_edge(NodeId(2), NodeId(3), 2.0); // e3
        g.add_edge(NodeId(0), NodeId(3), 5.0); // e4
        g
    }

    #[test]
    fn unicast_follows_shortest_path() {
        let f = Forwarding::new(NodeId(0), square());
        assert_eq!(f.unicast_next_hop(NodeId(3)), Some(EdgeId(0)));
        assert_eq!(f.unicast_next_hop(NodeId(0)), None, "no hop to self");
    }

    #[test]
    fn reroute_after_set_graph() {
        let mut f = Forwarding::new(NodeId(0), square());
        assert_eq!(f.unicast_next_hop(NodeId(3)), Some(EdgeId(0)));
        // Link e0 goes down (advertised at 1e12): reroute via 0-2-3.
        let mut g = square();
        g.set_weight(EdgeId(0), 1e12);
        f.set_graph(g);
        assert_eq!(f.unicast_next_hop(NodeId(3)), Some(EdgeId(2)));
    }

    #[test]
    fn down_edge_is_never_used_even_if_only_route() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(1), 1e12);
        let f = Forwarding::new(NodeId(0), g);
        assert_eq!(f.unicast_next_hop(NodeId(1)), None);
    }

    #[test]
    fn multicast_tree_edges_from_origin_perspective() {
        // Members at 1 and 3; origin 0. Tree: e0 (0->1), e1 (1->3).
        let mut f0 = Forwarding::new(NodeId(0), square());
        let out0 = f0.multicast_out_edges(NodeId(0), &[NodeId(1), NodeId(3)]);
        assert_eq!(out0, [EdgeId(0)], "origin forwards only into the tree");

        let mut f1 = Forwarding::new(NodeId(1), square());
        let out1 = f1.multicast_out_edges(NodeId(0), &[NodeId(1), NodeId(3)]);
        assert_eq!(out1, [EdgeId(1)], "interior node forwards downstream");

        let mut f3 = Forwarding::new(NodeId(3), square());
        let out3 = f3.multicast_out_edges(NodeId(0), &[NodeId(1), NodeId(3)]);
        assert!(out3.is_empty(), "leaf forwards nowhere");

        let mut f2 = Forwarding::new(NodeId(2), square());
        let out2 = f2.multicast_out_edges(NodeId(0), &[NodeId(1), NodeId(3)]);
        assert!(out2.is_empty(), "off-tree node forwards nowhere");
    }

    #[test]
    fn multicast_cache_invalidated_on_graph_change() {
        let mut f = Forwarding::new(NodeId(0), square());
        let before = f.multicast_out_edges(NodeId(0), &[NodeId(3)]).to_vec();
        assert_eq!(before, vec![EdgeId(0)]);
        let mut g = square();
        g.set_weight(EdgeId(0), 1e12);
        f.set_graph(g);
        let after = f.multicast_out_edges(NodeId(0), &[NodeId(3)]);
        assert_eq!(after, [EdgeId(2)]);
    }

    #[test]
    fn multicast_cache_hit_does_no_graph_work() {
        // From a non-origin node so the origin SPT is demand-built once.
        let mut f = Forwarding::new(NodeId(1), square());
        let members = [NodeId(1), NodeId(3)];
        let first = f.multicast_out_edges(NodeId(0), &members).to_vec();
        let builds = f.spt_builds();
        for _ in 0..100 {
            let again = f.multicast_out_edges(NodeId(0), &members);
            assert_eq!(again, first.as_slice());
        }
        assert_eq!(f.spt_builds(), builds, "cache hits must not recompute");
    }

    #[test]
    fn install_same_version_is_noop() {
        let mut f = Forwarding::new(NodeId(0), square());
        let _ = f.multicast_out_edges(NodeId(0), &[NodeId(3)]);
        let builds = f.spt_builds();
        let installs = f.installs();
        // Re-install the same version (a no-op LSA refresh downstream).
        let snap = Arc::new(square().freeze());
        f.install(snap, f.version());
        assert_eq!(f.spt_builds(), builds, "no recompute on unchanged version");
        assert_eq!(f.installs(), installs, "no invalidation either");
    }

    #[test]
    fn anycast_prefers_self_then_nearest() {
        let mut f = Forwarding::new(NodeId(0), square());
        assert_eq!(f.anycast_resolve(&[NodeId(0), NodeId(3)]), Some(NodeId(0)));
        // dist(2) = 2 via e2 and dist(3) = 2 via 0-1-3: tie breaks to the
        // lower node id.
        assert_eq!(f.anycast_resolve(&[NodeId(2), NodeId(3)]), Some(NodeId(2)));
        assert_eq!(f.anycast_resolve(&[]), None);
    }

    #[test]
    fn source_route_masks() {
        let mut f = Forwarding::new(NodeId(0), square());
        let two = f
            .source_route_mask(SourceRoute::DisjointPaths(2), NodeId(3))
            .unwrap();
        assert!(two.contains(EdgeId(0)) && two.contains(EdgeId(1)));
        assert!(two.contains(EdgeId(2)) && two.contains(EdgeId(3)));

        let flood = f
            .source_route_mask(SourceRoute::ConstrainedFlooding, NodeId(3))
            .unwrap();
        assert_eq!(flood.len(), 5);

        let fixed = EdgeMask::from_edges([EdgeId(4)]);
        assert_eq!(
            f.source_route_mask(SourceRoute::Static(fixed), NodeId(3)),
            Some(fixed)
        );

        let dg = f
            .source_route_mask(SourceRoute::DisseminationGraph, NodeId(3))
            .unwrap();
        assert!(dg.is_superset(&two));

        let overlap = f
            .source_route_mask(SourceRoute::OverlappingPaths(2), NodeId(3))
            .unwrap();
        assert!(
            overlap.len() >= 2,
            "at least the shortest path plus a deviation"
        );
    }

    #[test]
    fn mask_forwarding_excludes_arrival_edge() {
        let f = Forwarding::new(NodeId(1), square());
        let mask = EdgeMask::from_edges([EdgeId(0), EdgeId(1)]);
        assert_eq!(f.mask_out_edges(&mask, Some(EdgeId(0))), vec![EdgeId(1)]);
        let both = f.mask_out_edges(&mask, None);
        assert_eq!(both, vec![EdgeId(0), EdgeId(1)], "ingress forwards on all");
    }

    #[test]
    fn mask_out_edges_into_appends_without_clearing() {
        let f = Forwarding::new(NodeId(1), square());
        let mask = EdgeMask::from_edges([EdgeId(0), EdgeId(1)]);
        let mut buf = Vec::with_capacity(4);
        f.mask_out_edges_into(&mask, Some(EdgeId(0)), &mut buf);
        assert_eq!(buf, vec![EdgeId(1)]);
    }

    #[test]
    fn out_of_range_destination_has_no_route() {
        let f = Forwarding::new(NodeId(0), square());
        assert_eq!(f.unicast_next_hop(NodeId(4)), None);
        assert_eq!(f.unicast_next_hop(NodeId(u32::MAX as usize)), None);
        assert!(!f.reaches(NodeId(4)));
    }

    /// The next hops an eager rebuild of `snap` gives, by destination.
    fn eager_next_hops(snap: &TopoSnapshot, me: NodeId) -> Vec<Option<EdgeId>> {
        let weights = snap.graph().weights();
        let tree = snap.spt_with(me, |e| usable_cost(weights[e.0]), &mut SptScratch::new());
        let hop = |e: &u32| (*e != NO_HOP).then_some(EdgeId(*e as usize));
        tree.first_hop_edges().iter().map(hop).collect()
    }

    proptest::proptest! {
        /// Whatever the interleaving of installs and lookups, every lookup
        /// answers what an eager rebuild of the installed view would, and
        /// the engine has run one SPT per installed version something read.
        #[test]
        fn lazy_next_hops_match_an_eager_rebuild(
            n in 2usize..10,
            edges in proptest::collection::vec((0usize..10, 0usize..10, 1u32..20), 1..25),
            ops in proptest::collection::vec((0u8..4, 0usize..12, 0usize..25, 1u32..21), 1..40),
        ) {
            let mut g = Graph::new(n);
            for &(a, b, w) in &edges {
                if a % n != b % n {
                    g.add_edge(NodeId(a % n), NodeId(b % n), f64::from(w));
                }
            }
            let me = NodeId(0);
            let mut f = Forwarding::new(me, g.clone());
            let mut read = std::collections::BTreeSet::new();
            for &(op, node, edge, w) in &ops {
                match op {
                    // A real change: one edge's weight moves (w = 20 takes
                    // it down).
                    0 => {
                        if g.edge_count() > 0 {
                            let w = if w == 20 { 1e12 } else { f64::from(w) };
                            g.set_weight(EdgeId(edge % g.edge_count()), w);
                        }
                        f.set_graph(g.clone());
                    }
                    // A refresh of the installed version: a no-op.
                    1 => f.install(Arc::clone(&f.snap), f.version()),
                    // A lookup; `node` may lie outside the topology.
                    _ => {
                        let oracle = eager_next_hops(&f.snap, me);
                        let dst = NodeId(node);
                        let want = oracle.get(node).copied().flatten();
                        if op == 2 {
                            proptest::prop_assert_eq!(f.unicast_next_hop(dst), want);
                        } else {
                            proptest::prop_assert_eq!(f.reaches(dst), dst == me || want.is_some());
                        }
                        read.insert(f.version());
                        for (d, &hop) in oracle.iter().enumerate() {
                            proptest::prop_assert_eq!(f.unicast_next_hop(NodeId(d)), hop);
                        }
                    }
                }
                proptest::prop_assert_eq!(f.spt_builds(), read.len() as u64);
            }
        }
    }

    #[test]
    fn anycast_tie_break_is_lowest_id() {
        // 1 and 2 both at distance 1 from 0.
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(0), NodeId(2), 1.0);
        let mut f = Forwarding::new(NodeId(0), g);
        assert_eq!(f.anycast_resolve(&[NodeId(2), NodeId(1)]), Some(NodeId(1)));
    }
}
