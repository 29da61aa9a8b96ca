//! Overlay addressing: node + virtual port, with multicast and anycast
//! groups carved out of the same address space.
//!
//! "Clients are identified by the IP address of the overlay node to which
//! they connect and a virtual port, mimicking the IP address plus port
//! addressing scheme of the Internet. Anycast and multicast are implemented
//! similarly as part of the IP space, just like in IP" (§II-B).

use son_topo::NodeId;

/// A virtual port on an overlay node, scoping one client connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtualPort(pub u16);

/// A unicast overlay address: the overlay node a client is connected to plus
/// its virtual port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OverlayAddr {
    /// The overlay node serving the client.
    pub node: NodeId,
    /// The client's virtual port at that node.
    pub port: VirtualPort,
}

impl OverlayAddr {
    /// Creates an address.
    #[must_use]
    pub fn new(node: NodeId, port: u16) -> Self {
        OverlayAddr {
            node,
            port: VirtualPort(port),
        }
    }
}

impl std::fmt::Display for OverlayAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.node, self.port.0)
    }
}

/// A multicast/anycast group identifier, part of the overlay address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u32);

impl std::fmt::Display for GroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Where a flow's packets are headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Destination {
    /// Exactly one client at one overlay node.
    Unicast(OverlayAddr),
    /// Every member of a group (receivers join; any client may send).
    Multicast(GroupId),
    /// Exactly one member of a group, chosen as the best current target.
    Anycast(GroupId),
}

impl Destination {
    /// The group involved, if this is a group destination.
    #[must_use]
    pub fn group(&self) -> Option<GroupId> {
        match self {
            Destination::Unicast(_) => None,
            Destination::Multicast(g) | Destination::Anycast(g) => Some(*g),
        }
    }
}

impl std::fmt::Display for Destination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Destination::Unicast(a) => write!(f, "{a}"),
            Destination::Multicast(g) => write!(f, "mcast:{g}"),
            Destination::Anycast(g) => write!(f, "anycast:{g}"),
        }
    }
}

/// Uniquely identifies an application data flow end to end: the ingress
/// address and the destination. Flow-based processing keys its state on this
/// ([§II-C]: "a flow consists of a source, one or more destinations, and the
/// overlay services selected for that flow").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FlowKey {
    /// The source client's overlay address.
    pub src: OverlayAddr,
    /// The flow's destination (unicast, multicast, or anycast).
    pub dst: DestKey,
}

/// `Destination` flattened into an `Ord`-friendly key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DestKey {
    /// See [`Destination::Unicast`].
    Unicast(OverlayAddr),
    /// See [`Destination::Multicast`].
    Multicast(GroupId),
    /// See [`Destination::Anycast`].
    Anycast(GroupId),
}

impl From<Destination> for DestKey {
    fn from(d: Destination) -> Self {
        match d {
            Destination::Unicast(a) => DestKey::Unicast(a),
            Destination::Multicast(g) => DestKey::Multicast(g),
            Destination::Anycast(g) => DestKey::Anycast(g),
        }
    }
}

impl From<DestKey> for Destination {
    fn from(d: DestKey) -> Self {
        match d {
            DestKey::Unicast(a) => Destination::Unicast(a),
            DestKey::Multicast(g) => Destination::Multicast(g),
            DestKey::Anycast(g) => Destination::Anycast(g),
        }
    }
}

impl FlowKey {
    /// Builds the key for a flow from `src` to `dst`.
    #[must_use]
    pub fn new(src: OverlayAddr, dst: Destination) -> Self {
        FlowKey {
            src,
            dst: dst.into(),
        }
    }

    /// The destination as a `Destination`.
    #[must_use]
    pub fn dst(&self) -> Destination {
        self.dst.into()
    }

    /// The key as 24 bytes, one-to-one: source node, destination node (0
    /// for a group), then destination port or group, source port and kind.
    fn block(&self) -> [u8; 24] {
        let (kind, node, word) = match self.dst {
            DestKey::Unicast(a) => (1, a.node.0 as u64, u32::from(a.port.0)),
            DestKey::Multicast(g) => (2, 0, g.0),
            DestKey::Anycast(g) => (3, 0, g.0),
        };
        let tail = u64::from(word) | u64::from(self.src.port.0) << 32 | kind << 48;
        let mut block = [0u8; 24];
        for (bytes, word) in block
            .chunks_exact_mut(8)
            .zip([self.src.node.0 as u64, node, tail])
        {
            bytes.copy_from_slice(&word.to_le_bytes());
        }
        block
    }

    /// A stable 64-bit identity of this flow, used to attribute simulator
    /// drops and trace events to flows (FNV-1a over the key's
    /// components, independent of `Hash` implementation details).
    #[must_use]
    pub fn stable_id(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |x: u64| {
            for byte in x.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        mix(self.src.node.0 as u64);
        mix(u64::from(self.src.port.0));
        match self.dst {
            DestKey::Unicast(a) => {
                mix(1);
                mix(a.node.0 as u64);
                mix(u64::from(a.port.0));
            }
            DestKey::Multicast(g) => {
                mix(2);
                mix(u64::from(g.0));
            }
            DestKey::Anycast(g) => {
                mix(3);
                mix(u64::from(g.0));
            }
        }
        h
    }
}

/// One `write` of the key packed into 24 bytes: keyed SipHash pays per
/// call, and the derived impl made six or seven.
impl std::hash::Hash for FlowKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write(&self.block());
    }
}

impl std::fmt::Display for FlowKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}->{}", self.src, self.dst())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let a = OverlayAddr::new(NodeId(3), 7);
        assert_eq!(a.to_string(), "n3:7");
        assert_eq!(Destination::Multicast(GroupId(9)).to_string(), "mcast:g9");
        assert_eq!(Destination::Anycast(GroupId(2)).to_string(), "anycast:g2");
        let fk = FlowKey::new(a, Destination::Unicast(OverlayAddr::new(NodeId(0), 1)));
        assert_eq!(fk.to_string(), "n3:7->n0:1");
    }

    #[test]
    fn destination_group_extraction() {
        assert_eq!(
            Destination::Unicast(OverlayAddr::new(NodeId(0), 1)).group(),
            None
        );
        assert_eq!(Destination::Multicast(GroupId(4)).group(), Some(GroupId(4)));
        assert_eq!(Destination::Anycast(GroupId(4)).group(), Some(GroupId(4)));
    }

    #[test]
    fn dest_key_round_trips() {
        for d in [
            Destination::Unicast(OverlayAddr::new(NodeId(1), 2)),
            Destination::Multicast(GroupId(3)),
            Destination::Anycast(GroupId(4)),
        ] {
            let key: DestKey = d.into();
            let back: Destination = key.into();
            assert_eq!(back, d);
        }
    }

    #[test]
    fn stable_ids_distinguish_flows() {
        use std::collections::BTreeSet;
        let mut ids = BTreeSet::new();
        for n in 0..4 {
            for p in 0..4 {
                let src = OverlayAddr::new(NodeId(n), p);
                ids.insert(
                    FlowKey::new(src, Destination::Unicast(OverlayAddr::new(NodeId(9), 1)))
                        .stable_id(),
                );
                ids.insert(FlowKey::new(src, Destination::Multicast(GroupId(1))).stable_id());
                ids.insert(FlowKey::new(src, Destination::Anycast(GroupId(1))).stable_id());
            }
        }
        assert_eq!(ids.len(), 48, "no collisions across 48 distinct flows");
        let fk = FlowKey::new(
            OverlayAddr::new(NodeId(1), 2),
            Destination::Multicast(GroupId(3)),
        );
        assert_eq!(fk.stable_id(), fk.stable_id(), "deterministic");
    }

    #[test]
    fn flow_keys_are_ordered_and_hashable() {
        use std::collections::BTreeSet;
        let mut set = BTreeSet::new();
        for n in 0..3 {
            for p in 0..3 {
                set.insert(FlowKey::new(
                    OverlayAddr::new(NodeId(n), p),
                    Destination::Multicast(GroupId(0)),
                ));
            }
        }
        assert_eq!(set.len(), 9);
    }

    #[test]
    fn flow_key_hash_agrees_with_eq_and_blocks_are_one_to_one() {
        use std::hash::BuildHasher;
        let (nodes, ports, groups) = (
            [0, 1, 1 << 40, usize::MAX],
            [0, 1, u16::MAX],
            [0, 1, u32::MAX],
        );
        let mut keys = Vec::new();
        for &n in &nodes {
            for &p in &ports {
                let src = OverlayAddr::new(NodeId(n), p);
                for &m in &nodes {
                    for &q in &ports {
                        let dst = OverlayAddr::new(NodeId(m), q);
                        keys.push(FlowKey::new(src, Destination::Unicast(dst)));
                    }
                }
                for &g in &groups {
                    keys.push(FlowKey::new(src, Destination::Multicast(GroupId(g))));
                    keys.push(FlowKey::new(src, Destination::Anycast(GroupId(g))));
                }
            }
        }
        let blocks: std::collections::HashSet<[u8; 24]> = keys.iter().map(FlowKey::block).collect();
        assert_eq!(
            blocks.len(),
            keys.len(),
            "distinct keys pack to distinct blocks"
        );
        let sip = std::collections::hash_map::RandomState::new();
        for k in &keys {
            let copy = FlowKey::new(k.src, k.dst());
            assert_eq!(sip.hash_one(k), sip.hash_one(copy));
        }
        let set: std::collections::HashSet<FlowKey> = keys.iter().copied().collect();
        assert_eq!(set.len(), keys.len());
    }
}
