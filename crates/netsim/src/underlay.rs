//! The underlying Internet: multiple ISP backbone networks with routers in
//! cities, fiber links with propagation latency, failures, and a BGP-like
//! convergence model.
//!
//! The paper's resilient network architecture (Fig. 1) places overlay nodes
//! in data centers attached to **multiple ISP backbones** and relies on the
//! fact that Internet routing takes "40 seconds to minutes" to converge after
//! faults, while the overlay reroutes in sub-seconds. This module models
//! exactly that contrast:
//!
//! * Each ISP is an independent router graph over a shared set of cities.
//! * Intra-ISP routing is shortest-path by latency, **but** recomputed only
//!   after a configurable convergence delay following a failure. Until then
//!   packets follow the stale route and are blackholed if it crosses a dead
//!   component.
//! * Overlay links bind to the underlay via an [`Attachment`]: *on-net*
//!   (both endpoints on one ISP) or *off-net* (crossing a peering point).
//!
//! # Examples
//!
//! ```
//! use son_netsim::underlay::{Attachment, UnderlayBuilder};
//! use son_netsim::time::{SimDuration, SimTime};
//!
//! let mut b = UnderlayBuilder::new();
//! let nyc = b.city("NYC", 0.0, 0.0);
//! let chi = b.city("CHI", 1150.0, 100.0);
//! let isp = b.isp("BackboneOne");
//! b.router(isp, nyc);
//! b.router(isp, chi);
//! b.fiber(isp, nyc, chi);
//! let mut ul = b.build(SimDuration::from_secs(40));
//! let path = ul
//!     .resolve(SimTime::ZERO, Attachment::OnNet(isp), nyc, chi)
//!     .expect("route exists");
//! assert!(path.latency.as_millis_f64() > 5.0);
//! ```

use std::collections::HashMap;

use crate::hash::MintedMap;
use crate::time::{SimDuration, SimTime};

/// Identifies a city (a point of presence where routers/data centers live).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CityId(pub usize);

/// Identifies an ISP backbone network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IspId(pub usize);

/// Identifies a router (one ISP's presence in one city).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RouterId(pub usize);

/// Identifies a fiber link between two routers of the same ISP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UEdgeId(pub usize);

/// Speed of light in fiber, roughly 200 km per millisecond.
pub const FIBER_KM_PER_MS: f64 = 200.0;
/// Fiber rarely follows the geodesic; real routes are ~20% longer.
pub const FIBER_ROUTE_FACTOR: f64 = 1.2;
/// The extra latency charged where a path crosses an ISP boundary.
pub const PEERING_LATENCY: SimDuration = SimDuration::from_millis(1);

/// How an overlay link maps onto the underlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Attachment {
    /// Both endpoints use the same provider; traffic stays on one backbone.
    OnNet(IspId),
    /// Endpoints use different providers; traffic crosses a peering point.
    OffNet {
        /// Provider at the sending end.
        src_isp: IspId,
        /// Provider at the receiving end.
        dst_isp: IspId,
    },
}

/// A resolved underlay path for one packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedPath {
    /// Total propagation latency along the path.
    pub latency: SimDuration,
    /// The fiber links the packet traverses, in order.
    pub edges: Vec<UEdgeId>,
}

/// Why a packet could not be carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolveError {
    /// The (stale) route crosses a failed component; the packet is blackholed
    /// until routing reconverges.
    Blackholed,
    /// No route exists even after convergence (partitioned, or no router in
    /// that city).
    NoRoute,
}

impl std::fmt::Display for ResolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResolveError::Blackholed => write!(f, "packet blackholed awaiting route convergence"),
            ResolveError::NoRoute => write!(f, "no underlay route exists"),
        }
    }
}

impl std::error::Error for ResolveError {}

#[derive(Debug, Clone)]
struct City {
    name: String,
    x_km: f64,
    y_km: f64,
}

#[derive(Debug, Clone)]
struct Router {
    /// The owning ISP; kept for diagnostics and future policy hooks.
    #[allow(dead_code)]
    isp: IspId,
    city: CityId,
}

#[derive(Debug, Clone)]
struct UEdge {
    isp: IspId,
    a: RouterId,
    b: RouterId,
    latency: SimDuration,
    up: bool,
}

#[derive(Debug, Clone)]
struct Isp {
    #[allow(dead_code)]
    name: String,
    /// This ISP's router per city, indexed by [`CityId`] (`None`, or past
    /// the end, where it has no POP).
    routers_by_city: Vec<Option<RouterId>>,
    edges: Vec<UEdgeId>,
    /// Shortest-path table computed at the last convergence:
    /// `(from_router, to_router) -> edge list`. Read for every frame on a
    /// bound pipe, and keyed by ids this process mints, so it skips SipHash
    /// (DESIGN.md §5).
    routes: MintedMap<(RouterId, RouterId), Vec<UEdgeId>>,
    /// If set, the table is stale and will be recomputed at this time.
    reconverge_at: Option<SimTime>,
}

impl Isp {
    fn router_in(&self, city: CityId) -> Option<RouterId> {
        self.routers_by_city.get(city.0).copied().flatten()
    }
}

/// Builds an [`Underlay`] incrementally.
#[derive(Debug, Default)]
pub struct UnderlayBuilder {
    cities: Vec<City>,
    isps: Vec<Isp>,
    routers: Vec<Router>,
    edges: Vec<UEdge>,
}

impl UnderlayBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a city at plane coordinates given in kilometres.
    pub fn city(&mut self, name: &str, x_km: f64, y_km: f64) -> CityId {
        self.cities.push(City {
            name: name.to_owned(),
            x_km,
            y_km,
        });
        CityId(self.cities.len() - 1)
    }

    /// Adds an ISP backbone.
    pub fn isp(&mut self, name: &str) -> IspId {
        self.isps.push(Isp {
            name: name.to_owned(),
            routers_by_city: Vec::new(),
            edges: Vec::new(),
            routes: MintedMap::default(),
            reconverge_at: None,
        });
        IspId(self.isps.len() - 1)
    }

    /// Places a router for `isp` in `city`.
    ///
    /// # Panics
    ///
    /// Panics if the ISP already has a router in that city.
    pub fn router(&mut self, isp: IspId, city: CityId) -> RouterId {
        let id = RouterId(self.routers.len());
        let slots = &mut self.isps[isp.0].routers_by_city;
        if slots.len() <= city.0 {
            slots.resize(city.0 + 1, None);
        }
        let prev = slots[city.0].replace(id);
        assert!(prev.is_none(), "ISP already has a router in this city");
        self.routers.push(Router { isp, city });
        id
    }

    /// Connects `isp`'s routers in two cities with a fiber link whose latency
    /// is derived from the great-circle distance.
    ///
    /// # Panics
    ///
    /// Panics if the ISP lacks a router in either city.
    pub fn fiber(&mut self, isp: IspId, a: CityId, b: CityId) -> UEdgeId {
        let km = self.distance_km(a, b);
        let latency = SimDuration::from_millis_f64(km * FIBER_ROUTE_FACTOR / FIBER_KM_PER_MS);
        self.fiber_with_latency(isp, a, b, latency)
    }

    /// Like [`UnderlayBuilder::fiber`] but with an explicit latency.
    ///
    /// # Panics
    ///
    /// Panics if the ISP lacks a router in either city.
    pub fn fiber_with_latency(
        &mut self,
        isp: IspId,
        a: CityId,
        b: CityId,
        latency: SimDuration,
    ) -> UEdgeId {
        let ra = self.isps[isp.0].router_in(a).expect("no router in city a");
        let rb = self.isps[isp.0].router_in(b).expect("no router in city b");
        let id = UEdgeId(self.edges.len());
        self.edges.push(UEdge {
            isp,
            a: ra,
            b: rb,
            latency,
            up: true,
        });
        self.isps[isp.0].edges.push(id);
        id
    }

    /// Euclidean distance between two cities in kilometres.
    #[must_use]
    pub fn distance_km(&self, a: CityId, b: CityId) -> f64 {
        let ca = &self.cities[a.0];
        let cb = &self.cities[b.0];
        ((ca.x_km - cb.x_km).powi(2) + (ca.y_km - cb.y_km).powi(2)).sqrt()
    }

    /// Finalizes the underlay with the given BGP-like convergence delay and
    /// computes initial routing tables.
    #[must_use]
    pub fn build(self, convergence_delay: SimDuration) -> Underlay {
        let mut ul = Underlay {
            cities: self.cities,
            isps: self.isps,
            routers: self.routers,
            edges: self.edges,
            convergence_delay,
        };
        for i in 0..ul.isps.len() {
            ul.recompute_isp(IspId(i));
        }
        ul
    }
}

/// The simulated Internet beneath the overlay.
#[derive(Debug, Clone)]
pub struct Underlay {
    cities: Vec<City>,
    isps: Vec<Isp>,
    routers: Vec<Router>,
    edges: Vec<UEdge>,
    convergence_delay: SimDuration,
}

impl Underlay {
    /// Name of a city.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn city_name(&self, city: CityId) -> &str {
        &self.cities[city.0].name
    }

    /// Straight-line distance between two cities in kilometres.
    #[must_use]
    pub fn distance_km(&self, a: CityId, b: CityId) -> f64 {
        let ca = &self.cities[a.0];
        let cb = &self.cities[b.0];
        ((ca.x_km - cb.x_km).powi(2) + (ca.y_km - cb.y_km).powi(2)).sqrt()
    }

    /// The ISPs with a router in `city` (the providers an overlay node there
    /// can multihome to).
    #[must_use]
    pub fn providers_at(&self, city: CityId) -> Vec<IspId> {
        (0..self.isps.len())
            .map(IspId)
            .filter(|isp| self.isps[isp.0].router_in(city).is_some())
            .collect()
    }

    /// The `(city, city)` endpoints of a fiber edge.
    #[must_use]
    pub fn edge_cities(&self, edge: UEdgeId) -> (CityId, CityId) {
        let e = &self.edges[edge.0];
        (self.routers[e.a.0].city, self.routers[e.b.0].city)
    }

    /// Fails a fiber edge at `now`; its ISP will reconverge after the
    /// configured convergence delay.
    pub fn fail_edge(&mut self, edge: UEdgeId, now: SimTime) {
        if self.edges[edge.0].up {
            self.edges[edge.0].up = false;
            self.mark_dirty(self.edges[edge.0].isp, now);
        }
    }

    /// Repairs a fiber edge at `now`; routing re-adopts it after convergence.
    pub fn repair_edge(&mut self, edge: UEdgeId, now: SimTime) {
        if !self.edges[edge.0].up {
            self.edges[edge.0].up = true;
            self.mark_dirty(self.edges[edge.0].isp, now);
        }
    }

    /// The fiber edges (across all ISPs) with at least one endpoint within
    /// `radius_km` of `center` — the blast set of a geographically
    /// correlated failure (cable cut, regional power loss; cf. \[13\] in
    /// the paper's related work).
    #[must_use]
    pub fn edges_near(&self, center: CityId, radius_km: f64) -> Vec<UEdgeId> {
        (0..self.edges.len())
            .map(UEdgeId)
            .filter(|&e| {
                let (a, b) = self.edge_cities(e);
                self.distance_km(center, a) <= radius_km || self.distance_km(center, b) <= radius_km
            })
            .collect()
    }

    /// Resolves the underlay path a packet sent at `now` between two cities
    /// would take, charging the stale-route blackhole behaviour of BGP.
    ///
    /// # Errors
    ///
    /// * [`ResolveError::Blackholed`] — the route in force crosses a failed
    ///   component (convergence has not happened yet).
    /// * [`ResolveError::NoRoute`] — no path exists in the converged view.
    pub fn resolve(
        &mut self,
        now: SimTime,
        attachment: Attachment,
        from: CityId,
        to: CityId,
    ) -> Result<ResolvedPath, ResolveError> {
        let (latency, via) = self.best_route(now, attachment, from, to)?;
        let (src_isp, dst_isp) = match attachment {
            Attachment::OnNet(isp) => (isp, isp),
            Attachment::OffNet { src_isp, dst_isp } => (src_isp, dst_isp),
        };
        let mut edges = self.route_edges(src_isp, from, via).to_vec();
        edges.extend_from_slice(self.route_edges(dst_isp, via, to));
        Ok(ResolvedPath { latency, edges })
    }

    /// The propagation latency of [`Underlay::resolve`]'s path, without the
    /// edge list: what a pipe needs for every frame it carries.
    ///
    /// # Errors
    ///
    /// As [`Underlay::resolve`].
    pub fn latency(
        &mut self,
        now: SimTime,
        attachment: Attachment,
        from: CityId,
        to: CityId,
    ) -> Result<SimDuration, ResolveError> {
        self.best_route(now, attachment, from, to)
            .map(|(latency, _)| latency)
    }

    /// The latency of the route in force and the city where it changes
    /// ISP (`to` itself when it never does).
    fn best_route(
        &mut self,
        now: SimTime,
        attachment: Attachment,
        from: CityId,
        to: CityId,
    ) -> Result<(SimDuration, CityId), ResolveError> {
        let (src_isp, dst_isp) = match attachment {
            Attachment::OnNet(isp) => {
                return Ok((self.latency_on_net(now, isp, from, to)?, to));
            }
            Attachment::OffNet { src_isp, dst_isp } => (src_isp, dst_isp),
        };
        // Find the best peering city present in both ISPs. Peering points
        // do not blackhole independently; each ISP segment carries its own
        // convergence behaviour.
        let mut best: Option<(SimDuration, CityId)> = None;
        let mut any_blackhole = false;
        for peer in (0..self.cities.len()).map(CityId) {
            if self.isps[src_isp.0].router_in(peer).is_none()
                || self.isps[dst_isp.0].router_in(peer).is_none()
            {
                continue;
            }
            let first = self.latency_on_net(now, src_isp, from, peer);
            let second = self.latency_on_net(now, dst_isp, peer, to);
            match (first, second) {
                (Ok(l1), Ok(l2)) => {
                    let latency = l1 + l2 + PEERING_LATENCY;
                    if best.is_none_or(|(b, _)| latency < b) {
                        best = Some((latency, peer));
                    }
                }
                (Err(ResolveError::Blackholed), _) | (_, Err(ResolveError::Blackholed)) => {
                    any_blackhole = true;
                }
                _ => {}
            }
        }
        best.ok_or(if any_blackhole {
            ResolveError::Blackholed
        } else {
            ResolveError::NoRoute
        })
    }

    /// The edges of `isp`'s route in force between two of its cities (empty
    /// within one city, or where it has none).
    fn route_edges(&self, isp: IspId, from: CityId, to: CityId) -> &[UEdgeId] {
        let isp = &self.isps[isp.0];
        match (isp.router_in(from), isp.router_in(to)) {
            (Some(ra), Some(rb)) => isp.routes.get(&(ra, rb)).map_or(&[], Vec::as_slice),
            _ => &[],
        }
    }

    fn latency_on_net(
        &mut self,
        now: SimTime,
        isp: IspId,
        from: CityId,
        to: CityId,
    ) -> Result<SimDuration, ResolveError> {
        self.maybe_reconverge(isp, now);
        let ra = self.isps[isp.0]
            .router_in(from)
            .ok_or(ResolveError::NoRoute)?;
        let rb = self.isps[isp.0]
            .router_in(to)
            .ok_or(ResolveError::NoRoute)?;
        if ra == rb {
            return Ok(SimDuration::ZERO);
        }
        let path = self.isps[isp.0]
            .routes
            .get(&(ra, rb))
            .ok_or(ResolveError::NoRoute)?;
        let mut latency = SimDuration::ZERO;
        for &eid in path {
            let e = &self.edges[eid.0];
            if !e.up {
                return Err(ResolveError::Blackholed);
            }
            latency += e.latency;
        }
        Ok(latency)
    }

    fn mark_dirty(&mut self, isp: IspId, now: SimTime) {
        let at = now + self.convergence_delay;
        let entry = &mut self.isps[isp.0].reconverge_at;
        // Multiple failures extend the convergence horizon to the latest one.
        *entry = Some(entry.map_or(at, |prev| prev.max(at)));
    }

    fn maybe_reconverge(&mut self, isp: IspId, now: SimTime) {
        if let Some(at) = self.isps[isp.0].reconverge_at {
            if now >= at {
                self.isps[isp.0].reconverge_at = None;
                self.recompute_isp(isp);
            }
        }
    }

    /// Recomputes one ISP's shortest-path table over its live components.
    fn recompute_isp(&mut self, isp: IspId) {
        let routers: Vec<RouterId> = self.isps[isp.0]
            .routers_by_city
            .iter()
            .flatten()
            .copied()
            .collect();
        // Adjacency over live edges.
        let mut adj: HashMap<RouterId, Vec<(RouterId, UEdgeId, SimDuration)>> = HashMap::new();
        for &eid in &self.isps[isp.0].edges {
            let e = &self.edges[eid.0];
            if e.up {
                adj.entry(e.a).or_default().push((e.b, eid, e.latency));
                adj.entry(e.b).or_default().push((e.a, eid, e.latency));
            }
        }
        let mut routes = MintedMap::default();
        for &src in &routers {
            // Dijkstra from src.
            let mut dist: HashMap<RouterId, SimDuration> = HashMap::new();
            let mut prev: HashMap<RouterId, (RouterId, UEdgeId)> = HashMap::new();
            let mut heap = std::collections::BinaryHeap::new();
            dist.insert(src, SimDuration::ZERO);
            heap.push(std::cmp::Reverse((SimDuration::ZERO, src)));
            while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
                if dist.get(&u).copied().unwrap_or(SimDuration::MAX) < d {
                    continue;
                }
                if let Some(neighbors) = adj.get(&u) {
                    for &(v, eid, w) in neighbors {
                        let nd = d + w;
                        if nd < dist.get(&v).copied().unwrap_or(SimDuration::MAX) {
                            dist.insert(v, nd);
                            prev.insert(v, (u, eid));
                            heap.push(std::cmp::Reverse((nd, v)));
                        }
                    }
                }
            }
            for &dst in &routers {
                if dst == src || !prev.contains_key(&dst) {
                    continue;
                }
                let mut path = Vec::new();
                let mut cur = dst;
                while cur != src {
                    let (p, e) = prev[&cur];
                    path.push(e);
                    cur = p;
                }
                path.reverse();
                routes.insert((src, dst), path);
            }
        }
        self.isps[isp.0].routes = routes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-city line with a 2-city shortcut: NYC - CHI - DEN - SF plus a
    /// direct NYC-DEN link, all on one ISP.
    fn line_underlay() -> (Underlay, [CityId; 4], IspId, Vec<UEdgeId>) {
        let mut b = UnderlayBuilder::new();
        let nyc = b.city("NYC", 0.0, 0.0);
        let chi = b.city("CHI", 1000.0, 0.0);
        let den = b.city("DEN", 2000.0, 0.0);
        let sf = b.city("SF", 3000.0, 0.0);
        let isp = b.isp("One");
        for c in [nyc, chi, den, sf] {
            b.router(isp, c);
        }
        let e0 = b.fiber(isp, nyc, chi);
        let e1 = b.fiber(isp, chi, den);
        let e2 = b.fiber(isp, den, sf);
        let e3 = b.fiber(isp, nyc, den); // 2000 km direct
        let ul = b.build(SimDuration::from_secs(40));
        (ul, [nyc, chi, den, sf], isp, vec![e0, e1, e2, e3])
    }

    #[test]
    fn shortest_path_prefers_direct_link() {
        let (mut ul, [nyc, _, den, _], isp, edges) = line_underlay();
        let p = ul
            .resolve(SimTime::ZERO, Attachment::OnNet(isp), nyc, den)
            .unwrap();
        assert_eq!(
            p.edges,
            vec![edges[3]],
            "direct 2000km beats 2x1000km + hop"
        );
        // 2000 km * 1.2 / 200 km/ms = 12 ms
        assert!((p.latency.as_millis_f64() - 12.0).abs() < 1e-6);
    }

    #[test]
    fn same_city_is_zero_latency() {
        let (mut ul, [nyc, ..], isp, _) = line_underlay();
        let p = ul
            .resolve(SimTime::ZERO, Attachment::OnNet(isp), nyc, nyc)
            .unwrap();
        assert_eq!(p.latency, SimDuration::ZERO);
        assert!(p.edges.is_empty());
    }

    #[test]
    fn failure_blackholes_until_convergence() {
        let (mut ul, [nyc, _, den, _], isp, edges) = line_underlay();
        let fail_at = SimTime::from_secs(10);
        ul.fail_edge(edges[3], fail_at);

        // During the convergence window the stale route is used and dies.
        let during = fail_at + SimDuration::from_secs(5);
        assert_eq!(
            ul.resolve(during, Attachment::OnNet(isp), nyc, den),
            Err(ResolveError::Blackholed)
        );

        // After 40 s the ISP reconverges onto NYC-CHI-DEN.
        let after = fail_at + SimDuration::from_secs(41);
        let p = ul.resolve(after, Attachment::OnNet(isp), nyc, den).unwrap();
        assert_eq!(p.edges, vec![edges[0], edges[1]]);
    }

    #[test]
    fn repair_is_adopted_after_convergence() {
        let (mut ul, [nyc, _, den, _], isp, edges) = line_underlay();
        ul.fail_edge(edges[3], SimTime::ZERO);
        let converged = SimTime::from_secs(50);
        assert_eq!(
            ul.resolve(converged, Attachment::OnNet(isp), nyc, den)
                .unwrap()
                .edges
                .len(),
            2
        );
        ul.repair_edge(edges[3], converged);
        // Still on the long path until reconvergence...
        assert_eq!(
            ul.resolve(
                converged + SimDuration::from_secs(1),
                Attachment::OnNet(isp),
                nyc,
                den
            )
            .unwrap()
            .edges
            .len(),
            2
        );
        // ...then back on the direct link.
        assert_eq!(
            ul.resolve(
                converged + SimDuration::from_secs(41),
                Attachment::OnNet(isp),
                nyc,
                den
            )
            .unwrap()
            .edges,
            vec![edges[3]]
        );
    }

    #[test]
    fn partition_reports_no_route_after_convergence() {
        let (mut ul, [nyc, _, den, sf], isp, edges) = line_underlay();
        ul.fail_edge(edges[2], SimTime::ZERO); // DEN-SF is SF's only link
        assert_eq!(
            ul.resolve(SimTime::from_secs(1), Attachment::OnNet(isp), nyc, sf),
            Err(ResolveError::Blackholed)
        );
        assert_eq!(
            ul.resolve(SimTime::from_secs(60), Attachment::OnNet(isp), nyc, sf),
            Err(ResolveError::NoRoute)
        );
        // Other destinations are unaffected once converged.
        assert!(ul
            .resolve(SimTime::from_secs(60), Attachment::OnNet(isp), nyc, den)
            .is_ok());
    }

    #[test]
    fn multihoming_second_isp_survives_first_isp_failure() {
        let mut b = UnderlayBuilder::new();
        let nyc = b.city("NYC", 0.0, 0.0);
        let chi = b.city("CHI", 1000.0, 0.0);
        let isp1 = b.isp("One");
        let isp2 = b.isp("Two");
        for isp in [isp1, isp2] {
            b.router(isp, nyc);
            b.router(isp, chi);
            b.fiber(isp, nyc, chi);
        }
        let e1 = UEdgeId(0); // isp1's link was added first
        let mut ul = b.build(SimDuration::from_secs(40));
        ul.fail_edge(e1, SimTime::ZERO);
        let t = SimTime::from_secs(1);
        assert_eq!(
            ul.resolve(t, Attachment::OnNet(isp1), nyc, chi),
            Err(ResolveError::Blackholed)
        );
        assert!(
            ul.resolve(t, Attachment::OnNet(isp2), nyc, chi).is_ok(),
            "second ISP unaffected"
        );
    }

    #[test]
    fn off_net_crosses_best_peering_city() {
        let mut b = UnderlayBuilder::new();
        let nyc = b.city("NYC", 0.0, 0.0);
        let chi = b.city("CHI", 1000.0, 0.0);
        let sf = b.city("SF", 3000.0, 0.0);
        let isp1 = b.isp("One"); // present in NYC, CHI
        let isp2 = b.isp("Two"); // present in CHI, SF
        b.router(isp1, nyc);
        b.router(isp1, chi);
        b.fiber(isp1, nyc, chi);
        b.router(isp2, chi);
        b.router(isp2, sf);
        b.fiber(isp2, chi, sf);
        let mut ul = b.build(SimDuration::from_secs(40));

        let p = ul
            .resolve(
                SimTime::ZERO,
                Attachment::OffNet {
                    src_isp: isp1,
                    dst_isp: isp2,
                },
                nyc,
                sf,
            )
            .unwrap();
        // 1000km + 2000km at 1.2/200 plus 1ms peering = 6 + 12 + 1.
        assert!((p.latency.as_millis_f64() - 19.0).abs() < 1e-6);
        assert_eq!(p.edges.len(), 2);

        // No shared city -> no route on-net for isp1 to SF.
        assert_eq!(
            ul.resolve(SimTime::ZERO, Attachment::OnNet(isp1), nyc, sf),
            Err(ResolveError::NoRoute)
        );
    }

    #[test]
    fn providers_at_reports_multihoming_options() {
        let mut b = UnderlayBuilder::new();
        let nyc = b.city("NYC", 0.0, 0.0);
        let chi = b.city("CHI", 1000.0, 0.0);
        let isp1 = b.isp("One");
        let isp2 = b.isp("Two");
        b.router(isp1, nyc);
        b.router(isp2, nyc);
        b.router(isp1, chi);
        let ul = b.build(SimDuration::from_secs(40));
        assert_eq!(ul.providers_at(nyc), vec![isp1, isp2]);
        assert_eq!(ul.providers_at(chi), vec![isp1]);
    }
}

#[cfg(test)]
mod region_tests {
    use super::*;

    #[test]
    fn edges_near_selects_the_blast_zone() {
        let mut b = UnderlayBuilder::new();
        let a = b.city("A", 0.0, 0.0);
        let mid = b.city("M", 500.0, 0.0);
        let far = b.city("F", 5000.0, 0.0);
        let isp = b.isp("One");
        for c in [a, mid, far] {
            b.router(isp, c);
        }
        let near_edge = b.fiber(isp, a, mid);
        let far_edge = b.fiber(isp, mid, far);
        let ul = b.build(SimDuration::from_secs(40));
        let blast = ul.edges_near(a, 100.0);
        assert_eq!(blast, vec![near_edge], "only the edge touching A");
        // A bigger radius reaches M and therefore both edges.
        let blast = ul.edges_near(a, 600.0);
        assert_eq!(blast, vec![near_edge, far_edge]);
    }
}
