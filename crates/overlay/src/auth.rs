//! Message authentication between overlay nodes.
//!
//! "Because the number of overlay nodes is small, each overlay node can know
//! the identities of all valid overlay nodes in the system, and can use
//! cryptography to authenticate messages and ensure that they originate from
//! authorized overlay nodes" (§IV-B).
//!
//! # Security model of this reproduction
//!
//! External crypto crates are out of scope for this workspace, so the MAC
//! here is a keyed 64-bit mix (FNV-1a over the key and fields, finished with
//! SplitMix64). It is **structurally** faithful — a per-node secret key, a
//! tag bound to `(origin, flow, seq, size)`, constant verification — but it
//! is **not cryptographically strong** and must never be used outside the
//! simulator. What the experiments need is exactly the structure: a
//! compromised node holds only its *own* key, so it can originate authentic
//! junk but cannot forge packets that verify as another node's.

use std::sync::Arc;

use son_topo::NodeId;

use crate::addr::FlowKey;

/// Per-node secret keys plus the shared registry of valid node identities.
///
/// The table never changes after it is dealt, so it sits behind an `Arc`:
/// `clone` copies no key, and every daemon of a deployment reads one table.
#[derive(Debug, Clone)]
pub struct KeyRegistry {
    keys: Arc<[u64]>,
}

impl KeyRegistry {
    /// Derives keys for `n` overlay nodes from a deployment master secret.
    #[must_use]
    pub fn new(nodes: usize, master_secret: u64) -> Self {
        let keys = (0..nodes as u64)
            .map(|i| son_netsim::rng::splitmix(master_secret ^ son_netsim::rng::splitmix(i)))
            .collect();
        KeyRegistry { keys }
    }

    /// Number of registered nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` if no nodes are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The secret key of one node. In a deployment each daemon holds only
    /// its own; the simulator's registry is the dealer.
    ///
    /// # Panics
    ///
    /// Panics if the node is not registered.
    #[must_use]
    pub fn key_of(&self, node: NodeId) -> u64 {
        self.keys[node.0]
    }

    /// Computes the tag a packet from `origin` should carry.
    #[must_use]
    pub fn tag(&self, origin: NodeId, flow: FlowKey, flow_seq: u64, size: usize) -> u64 {
        Self::tag_with_key(self.key_of(origin), origin, flow, flow_seq, size)
    }

    /// Computes a tag under an explicit key (what a compromised node does
    /// when it tries to forge with the wrong key).
    #[must_use]
    pub fn tag_with_key(
        key: u64,
        origin: NodeId,
        flow: FlowKey,
        flow_seq: u64,
        size: usize,
    ) -> u64 {
        let mut h = son_netsim::rng::fnv1a(&key.to_le_bytes());
        let mut mix = |v: u64| {
            h = son_netsim::rng::splitmix(h ^ v);
        };
        mix(origin.0 as u64);
        mix(flow.src.node.0 as u64);
        mix(u64::from(flow.src.port.0));
        mix(dest_discriminant(flow));
        mix(flow_seq);
        mix(size as u64);
        h
    }

    /// Verifies a packet tag claimed to originate at `origin`.
    #[must_use]
    pub fn verify(
        &self,
        origin: NodeId,
        flow: FlowKey,
        flow_seq: u64,
        size: usize,
        tag: u64,
    ) -> bool {
        origin.0 < self.keys.len() && self.tag(origin, flow, flow_seq, size) == tag
    }
}

fn dest_discriminant(flow: FlowKey) -> u64 {
    use crate::addr::DestKey;
    match flow.dst {
        DestKey::Unicast(a) => 1 ^ ((a.node.0 as u64) << 20) ^ (u64::from(a.port.0) << 2),
        DestKey::Multicast(g) => 2 ^ (u64::from(g.0) << 2),
        DestKey::Anycast(g) => 3 ^ (u64::from(g.0) << 2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Destination, GroupId, OverlayAddr};

    fn flow() -> FlowKey {
        FlowKey::new(
            OverlayAddr::new(NodeId(1), 5),
            Destination::Unicast(OverlayAddr::new(NodeId(2), 6)),
        )
    }

    #[test]
    fn valid_tag_verifies() {
        let reg = KeyRegistry::new(4, 0xfeed);
        let tag = reg.tag(NodeId(1), flow(), 9, 100);
        assert!(reg.verify(NodeId(1), flow(), 9, 100, tag));
    }

    #[test]
    fn tag_binds_every_field() {
        let reg = KeyRegistry::new(4, 0xfeed);
        let tag = reg.tag(NodeId(1), flow(), 9, 100);
        assert!(!reg.verify(NodeId(2), flow(), 9, 100, tag), "wrong origin");
        assert!(!reg.verify(NodeId(1), flow(), 10, 100, tag), "wrong seq");
        assert!(!reg.verify(NodeId(1), flow(), 9, 101, tag), "wrong size");
        let other_flow = FlowKey::new(
            OverlayAddr::new(NodeId(1), 5),
            Destination::Multicast(GroupId(1)),
        );
        assert!(
            !reg.verify(NodeId(1), other_flow, 9, 100, tag),
            "wrong dest"
        );
    }

    #[test]
    fn compromised_node_cannot_forge_other_origins() {
        let reg = KeyRegistry::new(4, 0xfeed);
        // Node 3 is compromised: it holds key_of(3) and tries to stamp a
        // packet claiming origin node 1.
        let forged = KeyRegistry::tag_with_key(reg.key_of(NodeId(3)), NodeId(1), flow(), 9, 100);
        assert!(!reg.verify(NodeId(1), flow(), 9, 100, forged));
        // But it can authenticate traffic it legitimately originates.
        let own = KeyRegistry::tag_with_key(reg.key_of(NodeId(3)), NodeId(3), flow(), 9, 100);
        assert!(reg.verify(NodeId(3), flow(), 9, 100, own));
    }

    #[test]
    fn unknown_origin_fails_closed() {
        let reg = KeyRegistry::new(2, 0xfeed);
        assert!(!reg.verify(NodeId(7), flow(), 0, 0, 123));
    }

    #[test]
    fn keys_differ_across_nodes_and_deployments() {
        let a = KeyRegistry::new(4, 1);
        let b = KeyRegistry::new(4, 2);
        assert_ne!(a.key_of(NodeId(0)), a.key_of(NodeId(1)));
        assert_ne!(a.key_of(NodeId(0)), b.key_of(NodeId(0)));
        assert_eq!(a.len(), 4);
        assert!(!a.is_empty());
    }
}
