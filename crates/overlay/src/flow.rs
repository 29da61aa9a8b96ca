//! The shared flow layer (§III): one [`FlowContext`] per [`FlowKey`],
//! owned by a [`FlowTable`] that all three levels of the node consult.
//!
//! The paper's node architecture is three levels — session interface,
//! routing level, link level — "coordinating through shared state", with
//! flow-based processing as the unit of work. This module is that shared
//! state: instead of smearing per-flow facts across the daemon (an
//! `it_upstream` side map here, a source-route stamp cache there, a paused
//! bit inside the session table), every level reads and writes the one
//! context keyed by the flow:
//!
//! * the **session interface** checks and flips the backpressure
//!   [`FlowContext::paused`] bit when IT-Reliable pushes back;
//! * the **routing level** caches the flow's source-route dissemination
//!   stamp against the topology version (stale versions miss, so no
//!   explicit invalidation is needed on reroute);
//! * the **link level** records which incident link is the flow's upstream
//!   so consumption credits can be granted back hop by hop.
//!
//! Each context also carries pre-registered per-flow [`FlowObs`] counter
//! handles, so `son-obs` can account `sent = delivered + attributed drops`
//! *per flow*, and closing a flow removes every trace in one call
//! ([`FlowTable::close`]).

use std::collections::HashMap;

use son_topo::EdgeMask;

use crate::addr::FlowKey;
use crate::obs::{FlowObs, NodeObs};
use crate::service::FlowSpec;

/// Which of the paper's roles this node has played for a flow so far.
/// A node can hold several roles at once (e.g. a multicast member that
/// also forwards downstream is egress *and* transit).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowRole {
    /// This node originated the flow's packets (its client is the source).
    pub ingress: bool,
    /// This node delivered the flow's packets to a local client.
    pub egress: bool,
    /// This node forwarded the flow's packets that arrived from a link.
    pub transit: bool,
}

/// Everything one node knows about one flow, shared across the session,
/// routing, and link levels.
#[derive(Debug)]
pub struct FlowContext {
    spec: FlowSpec,
    role: FlowRole,
    /// The incident link the flow's packets arrive on (IT-Reliable credit
    /// grants replay onto this link).
    upstream: Option<usize>,
    /// Source-route stamp cached against the topology version that
    /// produced it; a version mismatch is a miss.
    mask: Option<(u64, EdgeMask)>,
    /// IT-Reliable backpressure state: `true` while the owning client is
    /// paused.
    paused: bool,
    /// The flow's [`FlowKey::stable_id`], hashed once at creation: the
    /// ingress trace sampler consults it per packet.
    stable_id: u64,
    /// Pre-registered per-flow counter handles in the node's registry.
    obs: FlowObs,
}

impl FlowContext {
    /// The services selected for the flow.
    #[must_use]
    pub fn spec(&self) -> FlowSpec {
        self.spec
    }

    /// The roles this node has played for the flow.
    #[must_use]
    pub fn role(&self) -> FlowRole {
        self.role
    }

    /// The flow's upstream link, if packets have arrived over one.
    #[must_use]
    pub fn upstream(&self) -> Option<usize> {
        self.upstream
    }

    /// Whether the flow is currently backpressure-paused at this node.
    #[must_use]
    pub fn paused(&self) -> bool {
        self.paused
    }

    /// The per-flow counter handles.
    #[must_use]
    pub fn obs(&self) -> FlowObs {
        self.obs
    }

    /// The flow's stable 64-bit identity, cached at context creation.
    #[must_use]
    pub fn stable_id(&self) -> u64 {
        self.stable_id
    }

    /// Records that this node originated the flow's packets.
    pub fn mark_ingress(&mut self) {
        self.role.ingress = true;
    }

    /// Records that this node delivered the flow's packets locally.
    pub fn mark_egress(&mut self) {
        self.role.egress = true;
    }

    /// Records that this node forwarded the flow's packets in transit.
    pub fn mark_transit(&mut self) {
        self.role.transit = true;
    }

    /// Records `link` as the flow's upstream (where its packets arrive).
    pub fn set_upstream(&mut self, link: usize) {
        self.upstream = Some(link);
    }

    /// The cached source-route stamp, if it was computed against exactly
    /// this topology `version`.
    #[must_use]
    pub fn cached_mask(&self, version: u64) -> Option<EdgeMask> {
        match self.mask {
            Some((v, m)) if v == version => Some(m),
            _ => None,
        }
    }

    /// Caches a freshly computed source-route stamp for `version`.
    pub fn store_mask(&mut self, version: u64, mask: EdgeMask) {
        self.mask = Some((version, mask));
    }
}

/// The per-node flow table: one [`FlowContext`] per flow this node has
/// seen, created lazily on first contact and removed by [`FlowTable::close`].
#[derive(Debug, Default)]
pub struct FlowTable {
    flows: HashMap<FlowKey, FlowContext>,
}

impl FlowTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The context for `key`, created (with per-flow counters registered in
    /// `obs`) if the flow is new. `spec` seeds the context on creation; an
    /// existing context keeps its original spec.
    pub fn ensure(&mut self, key: FlowKey, spec: FlowSpec, obs: &mut NodeObs) -> &mut FlowContext {
        let token = obs.perf().enter("flow.ensure");
        let fc = self.flows.entry(key).or_insert_with(|| FlowContext {
            spec,
            role: FlowRole::default(),
            upstream: None,
            mask: None,
            paused: false,
            stable_id: key.stable_id(),
            obs: obs.flow_counters(&key),
        });
        obs.perf().exit(token);
        fc
    }

    /// The context for `key`, if the flow has been seen.
    #[must_use]
    pub fn get(&self, key: &FlowKey) -> Option<&FlowContext> {
        self.flows.get(key)
    }

    /// The flow's upstream link, if known.
    #[must_use]
    pub fn upstream(&self, key: &FlowKey) -> Option<usize> {
        self.flows.get(key).and_then(|fc| fc.upstream)
    }

    /// Pauses the flow. Returns `true` if it was not already paused (the
    /// caller should notify the owning client exactly once).
    pub fn pause(&mut self, key: &FlowKey) -> bool {
        match self.flows.get_mut(key) {
            Some(fc) if !fc.paused => {
                fc.paused = true;
                true
            }
            _ => false,
        }
    }

    /// Resumes the flow. Returns `true` if it was paused.
    pub fn resume(&mut self, key: &FlowKey) -> bool {
        match self.flows.get_mut(key) {
            Some(fc) if fc.paused => {
                fc.paused = false;
                true
            }
            _ => false,
        }
    }

    /// Closes the flow, dropping its entire context — upstream link, cached
    /// stamp, pause state, counter handles. Returns the removed context so
    /// callers can clean up dependent state (dedup windows, etc.).
    pub fn close(&mut self, key: &FlowKey) -> Option<FlowContext> {
        self.flows.remove(key)
    }

    /// Whether the table holds a context for `key`.
    #[must_use]
    pub fn contains(&self, key: &FlowKey) -> bool {
        self.flows.contains_key(key)
    }

    /// Number of live flow contexts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Iterates over the live flows.
    pub fn iter(&self) -> impl Iterator<Item = (&FlowKey, &FlowContext)> {
        self.flows.iter()
    }
}

impl son_obs::MemFootprint for FlowTable {
    fn footprint_bytes(&self) -> usize {
        // FlowContext is inline (no owned heap), so the bucket array is the
        // whole story.
        son_obs::footprint::hashmap_bytes(&self.flows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Destination, OverlayAddr};
    use son_topo::NodeId;

    fn key(n: usize) -> FlowKey {
        FlowKey::new(
            OverlayAddr::new(NodeId(n), 1),
            Destination::Unicast(OverlayAddr::new(NodeId(9), 2)),
        )
    }

    fn table_and_obs() -> (FlowTable, NodeObs) {
        (FlowTable::new(), NodeObs::new(NodeId(0)))
    }

    #[test]
    fn ensure_is_idempotent_and_keeps_original_spec() {
        let (mut t, mut obs) = table_and_obs();
        t.ensure(key(0), FlowSpec::reliable(), &mut obs);
        let fc = t.ensure(key(0), FlowSpec::best_effort(), &mut obs);
        assert_eq!(fc.spec(), FlowSpec::reliable());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn pause_resume_is_edge_triggered() {
        let (mut t, mut obs) = table_and_obs();
        assert!(!t.pause(&key(0)), "unknown flows cannot pause");
        t.ensure(key(0), FlowSpec::reliable(), &mut obs);
        assert!(t.pause(&key(0)));
        assert!(!t.pause(&key(0)), "second pause is swallowed");
        assert!(t.get(&key(0)).unwrap().paused());
        assert!(t.resume(&key(0)));
        assert!(!t.resume(&key(0)));
    }

    #[test]
    fn mask_cache_is_version_keyed() {
        let (mut t, mut obs) = table_and_obs();
        let fc = t.ensure(key(0), FlowSpec::best_effort(), &mut obs);
        assert_eq!(fc.cached_mask(3), None);
        fc.store_mask(3, EdgeMask::EMPTY);
        assert!(fc.cached_mask(3).is_some());
        assert_eq!(fc.cached_mask(4), None, "stale version misses");
    }

    #[test]
    fn close_removes_all_residue() {
        let (mut t, mut obs) = table_and_obs();
        let fc = t.ensure(key(0), FlowSpec::reliable(), &mut obs);
        fc.set_upstream(2);
        fc.store_mask(1, EdgeMask::EMPTY);
        assert!(t.pause(&key(0)));
        let closed = t.close(&key(0)).expect("context existed");
        assert_eq!(closed.upstream(), Some(2));
        assert!(t.is_empty(), "no leaked upstream/credit entries");
        assert_eq!(t.upstream(&key(0)), None);
        assert!(
            !t.resume(&key(0)),
            "pause state does not survive a close either"
        );
        // Re-opening starts from a blank context.
        let fc = t.ensure(key(0), FlowSpec::reliable(), &mut obs);
        assert_eq!(fc.upstream(), None);
        assert!(!fc.paused());
        assert_eq!(fc.role(), FlowRole::default());
    }

    #[test]
    fn roles_accumulate() {
        let (mut t, mut obs) = table_and_obs();
        let fc = t.ensure(key(0), FlowSpec::best_effort(), &mut obs);
        fc.mark_ingress();
        fc.mark_egress();
        let r = t.get(&key(0)).unwrap().role();
        assert!(r.ingress && r.egress && !r.transit);
    }
}
