//! Group State: shared multicast/anycast membership (§II-B, §III-B).
//!
//! "All of the overlay nodes share information about whether they have
//! clients interested in a particular multicast group... The two-level
//! hierarchy makes this state sharing practical by allowing each overlay
//! node to track only which of its own connected clients are members of a
//! particular group and which other overlay nodes are relevant to that
//! group; an overlay node does not need to maintain any information about
//! clients connected to the other overlay nodes."

use std::collections::{BTreeMap, BTreeSet, HashMap};

use son_topo::NodeId;

use crate::addr::{GroupId, VirtualPort};
use crate::packet::GroupUpdate;

/// What the group table asks the node to do.
#[derive(Debug, PartialEq)]
pub enum GroupAction {
    /// Flood a membership update on all links except `except`.
    Flood {
        /// Local link index the update arrived on, if any.
        except: Option<usize>,
        /// The update.
        update: GroupUpdate,
    },
}

/// The per-node group membership table.
#[derive(Debug)]
pub struct GroupTable {
    me: NodeId,
    /// Node ids below this are in the topology; updates from any other
    /// origin are refused.
    nodes: usize,
    /// Local clients per group.
    local: BTreeMap<GroupId, BTreeSet<VirtualPort>>,
    /// Node-level membership learned from peers: origin -> (seq, groups).
    remote: HashMap<NodeId, (u64, BTreeSet<GroupId>)>,
    own_seq: u64,
    /// Bumped whenever node-level membership changes.
    version: u64,
}

impl GroupTable {
    /// Creates an empty table for node `me` of a `nodes`-node topology.
    #[must_use]
    pub fn new(me: NodeId, nodes: usize) -> Self {
        GroupTable {
            me,
            nodes,
            local: BTreeMap::new(),
            remote: HashMap::new(),
            own_seq: 0,
            version: 1,
        }
    }

    /// The membership version; consumers recompute caches when it changes.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// A local client joins a group. Only receivers need to join; any
    /// client can send to the group.
    pub fn join(&mut self, group: GroupId, client: VirtualPort, out: &mut Vec<GroupAction>) {
        let set = self.local.entry(group).or_default();
        let newly_relevant = set.is_empty();
        set.insert(client);
        if newly_relevant {
            self.announce(out);
        }
    }

    /// A local client leaves a group.
    pub fn leave(&mut self, group: GroupId, client: VirtualPort, out: &mut Vec<GroupAction>) {
        let mut now_empty = false;
        if let Some(set) = self.local.get_mut(&group) {
            set.remove(&client);
            now_empty = set.is_empty();
        }
        if now_empty {
            self.local.remove(&group);
            self.announce(out);
        }
    }

    /// Removes every membership of a disconnecting client.
    pub fn drop_client(&mut self, client: VirtualPort, out: &mut Vec<GroupAction>) {
        let groups: Vec<GroupId> = self
            .local
            .iter()
            .filter(|(_, set)| set.contains(&client))
            .map(|(&g, _)| g)
            .collect();
        let mut changed = false;
        for g in groups {
            if let Some(set) = self.local.get_mut(&g) {
                set.remove(&client);
                if set.is_empty() {
                    self.local.remove(&g);
                    changed = true;
                }
            }
        }
        if changed {
            self.announce(out);
        }
    }

    /// Handles a flooded membership update arriving on `arrived_on`.
    /// Returns `false`, and neither stores nor floods it, when its origin
    /// is outside the topology: node ids are 32 bits on the wire, and
    /// forwarding indexes its tables by member.
    pub fn on_update(
        &mut self,
        update: GroupUpdate,
        arrived_on: Option<usize>,
        out: &mut Vec<GroupAction>,
    ) -> bool {
        if update.origin.0 >= self.nodes {
            return false;
        }
        if update.origin == self.me {
            return true;
        }
        let newer = self
            .remote
            .get(&update.origin)
            .is_none_or(|(seq, _)| update.seq > *seq);
        if !newer {
            return true;
        }
        let groups: BTreeSet<GroupId> = update.groups.iter().copied().collect();
        let changed = self
            .remote
            .get(&update.origin)
            .is_none_or(|(_, prev)| *prev != groups);
        self.remote.insert(update.origin, (update.seq, groups));
        out.push(GroupAction::Flood {
            except: arrived_on,
            update,
        });
        if changed {
            self.version += 1;
        }
        true
    }

    /// Floods the node's own membership (on a local change, and again at
    /// every (re)start so peers drop what a crash made stale).
    ///
    /// A node that has no local member and never announced one stays
    /// silent: to every peer, no entry for an origin already means "no
    /// groups there", so an empty first announcement would cost a
    /// fleet-wide flood, and an entry in every peer's table, to say nothing.
    pub fn announce(&mut self, out: &mut Vec<GroupAction>) {
        if self.local.is_empty() && self.own_seq == 0 {
            return;
        }
        self.own_seq += 1;
        self.version += 1;
        out.push(GroupAction::Flood {
            except: None,
            update: GroupUpdate {
                origin: self.me,
                seq: self.own_seq,
                groups: self.local.keys().copied().collect(),
            },
        });
    }

    /// The overlay nodes that currently have clients in `group`
    /// (including this node, if applicable), in ascending id order.
    #[must_use]
    pub fn members_of(&self, group: GroupId) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self
            .remote
            .iter()
            .filter(|(_, (_, groups))| groups.contains(&group))
            .map(|(&n, _)| n)
            .collect();
        if self.local.contains_key(&group) {
            nodes.push(self.me);
        }
        nodes.sort_unstable();
        nodes
    }

    /// Local client ports subscribed to `group`, ascending.
    pub fn local_members(&self, group: GroupId) -> impl Iterator<Item = VirtualPort> + '_ {
        self.local.get(&group).into_iter().flatten().copied()
    }

    /// Forgets a departed peer's node-level membership (membership-layer
    /// eviction). Returns `true` if anything was removed; the version bump
    /// invalidates member caches keyed off it.
    pub fn forget(&mut self, origin: NodeId) -> bool {
        if origin == self.me {
            return false;
        }
        if self.remote.remove(&origin).is_some() {
            self.version += 1;
            return true;
        }
        false
    }
}

impl son_obs::MemFootprint for GroupTable {
    fn footprint_bytes(&self) -> usize {
        use son_obs::footprint::{btreemap_bytes, btreeset_bytes, hashmap_bytes};
        btreemap_bytes(&self.local)
            + self.local.values().map(btreeset_bytes).sum::<usize>()
            + hashmap_bytes(&self.remote)
            + self
                .remote
                .values()
                .map(|(_, g)| btreeset_bytes(g))
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: GroupId = GroupId(7);

    #[test]
    fn first_join_floods_membership() {
        let mut t = GroupTable::new(NodeId(0), 4);
        let mut out = Vec::new();
        t.join(G, VirtualPort(1), &mut out);
        assert_eq!(out.len(), 1);
        match &out[0] {
            GroupAction::Flood { update, .. } => {
                assert_eq!(update.origin, NodeId(0));
                assert_eq!(update.groups, vec![G]);
            }
        }
        // Second local client: node-level membership unchanged, no re-flood.
        let mut out = Vec::new();
        t.join(G, VirtualPort(2), &mut out);
        assert!(out.is_empty());
        assert!(t.local_members(G).eq([VirtualPort(1), VirtualPort(2)]));
    }

    #[test]
    fn last_leave_floods_membership() {
        let mut t = GroupTable::new(NodeId(0), 4);
        let mut out = Vec::new();
        t.join(G, VirtualPort(1), &mut out);
        t.join(G, VirtualPort(2), &mut out);
        out.clear();
        t.leave(G, VirtualPort(1), &mut out);
        assert!(out.is_empty(), "still one member left");
        t.leave(G, VirtualPort(2), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(t.local_members(G).count(), 0);
    }

    #[test]
    fn remote_updates_tracked_by_seq() {
        let mut t = GroupTable::new(NodeId(0), 4);
        let mut out = Vec::new();
        t.on_update(
            GroupUpdate {
                origin: NodeId(2),
                seq: 2,
                groups: vec![G],
            },
            Some(1),
            &mut out,
        );
        assert_eq!(t.members_of(G), vec![NodeId(2)]);
        assert!(matches!(
            &out[0],
            GroupAction::Flood {
                except: Some(1),
                ..
            }
        ));

        // Stale update ignored.
        let mut out = Vec::new();
        t.on_update(
            GroupUpdate {
                origin: NodeId(2),
                seq: 1,
                groups: vec![],
            },
            None,
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(t.members_of(G), vec![NodeId(2)]);

        // Newer update replaces.
        let mut out = Vec::new();
        t.on_update(
            GroupUpdate {
                origin: NodeId(2),
                seq: 3,
                groups: vec![],
            },
            None,
            &mut out,
        );
        assert!(t.members_of(G).is_empty());
    }

    #[test]
    fn members_include_self_and_are_sorted() {
        let mut t = GroupTable::new(NodeId(1), 4);
        let mut out = Vec::new();
        t.on_update(
            GroupUpdate {
                origin: NodeId(3),
                seq: 1,
                groups: vec![G],
            },
            None,
            &mut out,
        );
        t.on_update(
            GroupUpdate {
                origin: NodeId(0),
                seq: 1,
                groups: vec![G],
            },
            None,
            &mut out,
        );
        t.join(G, VirtualPort(9), &mut out);
        assert_eq!(t.members_of(G), vec![NodeId(0), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn drop_client_cleans_all_memberships() {
        let mut t = GroupTable::new(NodeId(0), 4);
        let mut out = Vec::new();
        t.join(GroupId(1), VirtualPort(5), &mut out);
        t.join(GroupId(2), VirtualPort(5), &mut out);
        t.join(GroupId(2), VirtualPort(6), &mut out);
        out.clear();
        t.drop_client(VirtualPort(5), &mut out);
        assert_eq!(t.local_members(GroupId(1)).count(), 0);
        assert_eq!(t.local_members(GroupId(2)).count(), 1, "port 6 remains");
        assert_eq!(out.len(), 1, "one re-announce covers all changes");
    }

    #[test]
    fn version_bumps_only_on_change() {
        let mut t = GroupTable::new(NodeId(0), 4);
        let v0 = t.version();
        let mut out = Vec::new();
        t.on_update(
            GroupUpdate {
                origin: NodeId(2),
                seq: 1,
                groups: vec![G],
            },
            None,
            &mut out,
        );
        let v1 = t.version();
        assert!(v1 > v0);
        // Same content, newer seq: flooded but no version bump.
        t.on_update(
            GroupUpdate {
                origin: NodeId(2),
                seq: 2,
                groups: vec![G],
            },
            None,
            &mut out,
        );
        assert_eq!(t.version(), v1);
    }

    #[test]
    fn forget_evicts_remote_membership_and_bumps_version() {
        let mut t = GroupTable::new(NodeId(0), 4);
        let mut out = Vec::new();
        t.on_update(
            GroupUpdate {
                origin: NodeId(2),
                seq: 1,
                groups: vec![G],
            },
            None,
            &mut out,
        );
        let v = t.version();
        assert!(t.forget(NodeId(2)));
        assert!(t.members_of(G).is_empty());
        assert!(t.version() > v);
        // Absent origin (and self) are no-ops.
        assert!(!t.forget(NodeId(2)));
        assert!(!t.forget(NodeId(0)));
    }

    #[test]
    fn never_relevant_node_stays_silent_but_a_once_relevant_one_reannounces() {
        let mut t = GroupTable::new(NodeId(0), 4);
        let v0 = t.version();
        let mut out = Vec::new();
        t.announce(&mut out);
        assert!(out.is_empty(), "nothing to say, nothing flooded");
        assert_eq!(t.version(), v0);

        t.join(G, VirtualPort(1), &mut out);
        t.leave(G, VirtualPort(1), &mut out);
        out.clear();
        // Peers may still hold the membership it once announced: the empty
        // set is now news.
        t.announce(&mut out);
        match &out[..] {
            [GroupAction::Flood { except, update }] => {
                assert_eq!(*except, None);
                assert_eq!((update.origin, update.seq), (NodeId(0), 3));
                assert!(update.groups.is_empty());
            }
            other => panic!("expected one flood, got {other:?}"),
        }
    }

    #[test]
    fn own_update_echo_ignored() {
        let mut t = GroupTable::new(NodeId(0), 4);
        let mut out = Vec::new();
        t.on_update(
            GroupUpdate {
                origin: NodeId(0),
                seq: 50,
                groups: vec![G],
            },
            Some(0),
            &mut out,
        );
        assert!(out.is_empty());
        assert!(t.members_of(G).is_empty());
    }

    /// A forged origin beyond the topology is refused: not stored, not
    /// flooded, and the next valid update still lands.
    #[test]
    fn an_origin_outside_the_topology_is_refused() {
        let mut t = GroupTable::new(NodeId(0), 4);
        let v = t.version();
        let mut out = Vec::new();
        let update = |origin| GroupUpdate {
            origin: NodeId(origin),
            seq: 1,
            groups: vec![G],
        };
        assert!(!t.on_update(update(4), Some(1), &mut out));
        assert!(!t.on_update(update(9), Some(1), &mut out));
        assert!(out.is_empty(), "never flooded on");
        assert!(t.members_of(G).is_empty(), "never stored");
        assert_eq!(t.version(), v);
        assert_eq!(son_obs::MemFootprint::footprint_bytes(&t), 0);
        assert!(t.on_update(update(3), Some(1), &mut out));
        assert_eq!(t.members_of(G), vec![NodeId(3)]);
        assert_eq!(out.len(), 1);
    }
}
