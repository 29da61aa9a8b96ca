//! The unified drop-reason taxonomy.
//!
//! Every layer of the stack discards packets for its own reasons: the
//! simulated pipes lose them stochastically or tail-drop them, the overlay
//! node refuses unauthenticated or over-travelled packets, the link
//! protocols expire them past their deadline. Before this module each layer
//! kept its own ad-hoc label strings, which made cross-layer accounting
//! (packets in = packets delivered + packets dropped, *attributed*)
//! impossible to state, let alone test.
//!
//! [`DropClass`] is the single enumeration shared by
//! `son-netsim::link::DropReason`, the overlay forwarding path, and the link
//! protocols. Labels are stable and namespaced `drop.<reason>` so they can
//! double as counter keys.

use core::fmt;

/// Why a packet was discarded, across all layers of the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DropClass {
    // -- pipe layer (son-netsim) -------------------------------------------
    /// The stochastic loss process dropped it.
    Loss,
    /// A serialization queue overflowed (drop-tail).
    QueueFull,
    /// The underlay route is blackholed (stale BGP route over a dead link).
    Blackholed,
    /// No underlay route exists at all.
    NoRoute,
    /// The pipe was administratively disabled.
    Down,
    // -- overlay node layer ------------------------------------------------
    /// The hop budget was exhausted.
    Ttl,
    /// Message authentication failed.
    Auth,
    /// A duplicate suppressed by the dissemination deduplicator.
    DedupDuplicate,
    /// The routing layer had no path to the destination.
    Unroutable,
    /// The selected link had no usable provider pipe to send on.
    NoProvider,
    /// A compromised node discarded it deliberately.
    Adversary,
    /// The watchdog shed a low-priority flow's packet under overload.
    Shed,
    // -- link-protocol layer -----------------------------------------------
    /// A real-time deadline expired before (re)transmission succeeded.
    Expired,
    /// A protocol send/reassembly buffer was full.
    BufferFull,
}

impl DropClass {
    /// Every drop class, in declaration order (pipe, node, protocol layers).
    pub const ALL: [DropClass; 14] = [
        DropClass::Loss,
        DropClass::QueueFull,
        DropClass::Blackholed,
        DropClass::NoRoute,
        DropClass::Down,
        DropClass::Ttl,
        DropClass::Auth,
        DropClass::DedupDuplicate,
        DropClass::Unroutable,
        DropClass::NoProvider,
        DropClass::Adversary,
        DropClass::Shed,
        DropClass::Expired,
        DropClass::BufferFull,
    ];

    /// Stable `drop.<reason>` label; doubles as a counter key.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            DropClass::Loss => "drop.loss",
            DropClass::QueueFull => "drop.queue_full",
            DropClass::Blackholed => "drop.blackholed",
            DropClass::NoRoute => "drop.no_route",
            DropClass::Down => "drop.down",
            DropClass::Ttl => "drop.ttl",
            DropClass::Auth => "drop.auth",
            DropClass::DedupDuplicate => "drop.dedup_duplicate",
            DropClass::Unroutable => "drop.unroutable",
            DropClass::NoProvider => "drop.no_provider",
            DropClass::Adversary => "drop.adversary",
            DropClass::Shed => "drop.shed",
            DropClass::Expired => "drop.expired",
            DropClass::BufferFull => "drop.buffer_full",
        }
    }

    /// `data.drop.<reason>`: the key under which a driver tallies a dropped
    /// data-plane frame. A literal per class, so a bump formats nothing.
    #[must_use]
    pub const fn data_label(self) -> &'static str {
        match self {
            DropClass::Loss => "data.drop.loss",
            DropClass::QueueFull => "data.drop.queue_full",
            DropClass::Blackholed => "data.drop.blackholed",
            DropClass::NoRoute => "data.drop.no_route",
            DropClass::Down => "data.drop.down",
            DropClass::Ttl => "data.drop.ttl",
            DropClass::Auth => "data.drop.auth",
            DropClass::DedupDuplicate => "data.drop.dedup_duplicate",
            DropClass::Unroutable => "data.drop.unroutable",
            DropClass::NoProvider => "data.drop.no_provider",
            DropClass::Adversary => "data.drop.adversary",
            DropClass::Shed => "data.drop.shed",
            DropClass::Expired => "data.drop.expired",
            DropClass::BufferFull => "data.drop.buffer_full",
        }
    }

    /// `true` for drops that happen inside a pipe (the netsim layer).
    #[must_use]
    pub const fn is_pipe(self) -> bool {
        matches!(
            self,
            DropClass::Loss
                | DropClass::QueueFull
                | DropClass::Blackholed
                | DropClass::NoRoute
                | DropClass::Down
        )
    }

    /// Parses a `drop.<reason>` label back into its class.
    #[must_use]
    pub fn from_label(label: &str) -> Option<DropClass> {
        DropClass::ALL.iter().copied().find(|c| c.label() == label)
    }
}

impl fmt::Display for DropClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn labels_are_unique_and_namespaced() {
        let labels: BTreeSet<&str> = DropClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), DropClass::ALL.len());
        assert!(labels.iter().all(|l| l.starts_with("drop.")));
    }

    #[test]
    fn label_round_trips() {
        for c in DropClass::ALL {
            assert_eq!(DropClass::from_label(c.label()), Some(c));
        }
        assert_eq!(DropClass::from_label("drop.unknown"), None);
    }

    #[test]
    fn data_labels_prefix_the_plain_labels() {
        for c in DropClass::ALL {
            assert_eq!(c.data_label(), format!("data.{}", c.label()));
        }
    }

    #[test]
    fn pipe_classes_match_netsim_reasons() {
        let pipe: Vec<DropClass> = DropClass::ALL
            .iter()
            .copied()
            .filter(|c| c.is_pipe())
            .collect();
        assert_eq!(
            pipe,
            vec![
                DropClass::Loss,
                DropClass::QueueFull,
                DropClass::Blackholed,
                DropClass::NoRoute,
                DropClass::Down
            ]
        );
    }
}
