//! Dynamic membership: join/leave protocol and the self-stabilizing
//! topology-maintenance loop.
//!
//! The paper's overlay assumes a provisioned node set; this module makes
//! membership *within* that provisioned universe dynamic. Each node keeps a
//! liveness record per provisioned member and runs a maintenance epoch
//! every [`EPOCH`] (500 ms): a member unreachable in the
//! shared topology view for [`DOWN_EPOCHS`] consecutive
//! epochs is declared `Down`; once a departed member (crash-`Down` past the
//! hold-down, or gracefully `Left`) is confirmed gone, its shared state —
//! LSDB entry, remote group membership, dedup windows — is evicted so a
//! churned deployment does not grow without bound.
//!
//! The discipline is *self-stabilizing* in the sense of Berns' framework
//! (and Götte–Scheideler's underlay-aware variant): liveness is derived
//! locally from topology evidence every epoch, so every node converges to
//! the correct membership view within a bounded number of epochs from any
//! connected state even if every membership flood is lost. The flooded
//! [`Control::MembershipUpdate`] frames are accelerators and carry the two
//! facts local evidence cannot derive: graceful `Left` status and
//! incarnation numbers. Incarnations are SWIM-style: a member bumps its own
//! incarnation on every restart, and a higher incarnation overrides any
//! stale `Down`/`Left` record, so a crash-recovered node re-enters cleanly.

use std::collections::{BTreeMap, HashMap};

use son_netsim::time::{SimDuration, SimTime};
use son_topo::NodeId;

use crate::packet::{Control, MemberInfo, MemberStatus};

/// Maintenance epoch: how often liveness is re-derived from the shared
/// topology view.
pub const EPOCH: SimDuration = SimDuration::from_millis(500);
/// Consecutive epochs a member must be unreachable before it is declared
/// `Down`. With the 500 ms epoch and hello-driven link detection
/// (~500 ms), detection completes within ~2 s of a crash.
pub const DOWN_EPOCHS: u32 = 3;
/// How long a `Down` member's state is retained before eviction; the
/// hold-down absorbs crash-recover cycles without churning the LSDB.
pub const HOLD_DOWN: SimDuration = SimDuration::from_secs(2);
/// How often an unanswered join request is retried.
pub const JOIN_RETRY: SimDuration = SimDuration::from_millis(500);

/// What the membership table asks the node to do.
#[derive(Debug, PartialEq)]
pub enum MemberAction {
    /// Send a membership control frame on one incident link.
    Send {
        /// Local index of the link to send on.
        link: usize,
        /// The frame.
        msg: Control,
    },
    /// Flood a membership control frame on all links except `except`.
    Flood {
        /// Local link index the frame arrived on, if any.
        except: Option<usize>,
        /// The frame.
        msg: Control,
    },
    /// Purge a departed member's shared state (LSDB entry, remote group
    /// membership, dedup windows).
    Evict(NodeId),
}

/// One member's liveness record.
#[derive(Debug, Clone, Copy)]
struct MemberRecord {
    /// Highest incarnation observed for this member.
    incarnation: u64,
    /// Current liveness belief.
    status: MemberStatus,
    /// Consecutive maintenance epochs the member was unreachable (only
    /// meaningful while `Up`).
    unreachable_epochs: u32,
    /// When the member went `Down`/`Left` (hold-down measured from here).
    since: SimTime,
    /// The departed member's shared state has been evicted.
    evicted: bool,
}

/// The per-node membership table and maintenance state machine.
#[derive(Debug)]
pub struct MembershipTable {
    me: NodeId,
    /// Liveness record per provisioned member. Bounded by the provisioned
    /// universe, so the table itself cannot leak under churn; the leak this
    /// module guards against is the per-member *shared* state (LSDB, dedup,
    /// groups) evicted via [`MemberAction::Evict`].
    members: BTreeMap<NodeId, MemberRecord>,
    /// Highest membership-update seq accepted per origin (flood dedup).
    remote_seq: HashMap<NodeId, u64>,
    /// Our own incarnation; bumped on every restart.
    own_incarnation: u64,
    /// Our own membership-update flood sequence.
    own_seq: u64,
    /// Bumped whenever any liveness record changes.
    version: u64,
}

impl MembershipTable {
    /// Creates a table for node `me` over the provisioned `universe`; every
    /// member starts `Up` at incarnation 0.
    #[must_use]
    pub fn new(me: NodeId, universe: impl IntoIterator<Item = NodeId>) -> Self {
        let members = universe
            .into_iter()
            .map(|n| {
                (
                    n,
                    MemberRecord {
                        incarnation: 0,
                        status: MemberStatus::Up,
                        unreachable_epochs: 0,
                        since: SimTime::ZERO,
                        evicted: false,
                    },
                )
            })
            .collect();
        MembershipTable {
            me,
            members,
            remote_seq: HashMap::new(),
            own_incarnation: 0,
            own_seq: 0,
            version: 1,
        }
    }

    /// The membership-view version; bumped on every liveness change.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Our own current incarnation.
    #[must_use]
    pub fn incarnation(&self) -> u64 {
        self.own_incarnation
    }

    /// Members currently believed `Up` (including this node), ascending.
    #[must_use]
    pub fn up_members(&self) -> Vec<NodeId> {
        self.members
            .iter()
            .filter(|(_, r)| r.status == MemberStatus::Up)
            .map(|(&n, _)| n)
            .collect()
    }

    /// Number of members currently believed `Up` (including this node).
    #[must_use]
    pub fn up_count(&self) -> usize {
        self.members
            .values()
            .filter(|r| r.status == MemberStatus::Up)
            .count()
    }

    /// Whether `node` is currently believed `Up`.
    #[must_use]
    pub fn is_up(&self, node: NodeId) -> bool {
        self.members
            .get(&node)
            .is_some_and(|r| r.status == MemberStatus::Up)
    }

    /// The maintenance epoch: re-derives liveness from reachability in the
    /// shared topology view, announces changes, and evicts departed state.
    ///
    /// `reachable` answers "does the current forwarding view reach this
    /// member" — the local evidence the loop stabilizes on.
    pub fn on_epoch(
        &mut self,
        now: SimTime,
        reachable: &mut dyn FnMut(NodeId) -> bool,
        out: &mut Vec<MemberAction>,
    ) {
        let mut announce: Vec<MemberInfo> = Vec::new();
        let mut changed = false;
        for (&node, rec) in &mut self.members {
            if node == self.me {
                continue;
            }
            match rec.status {
                MemberStatus::Up => {
                    if reachable(node) {
                        rec.unreachable_epochs = 0;
                    } else {
                        rec.unreachable_epochs += 1;
                        if rec.unreachable_epochs >= DOWN_EPOCHS {
                            rec.status = MemberStatus::Down;
                            rec.since = now;
                            changed = true;
                            announce.push(MemberInfo {
                                node,
                                incarnation: rec.incarnation,
                                status: MemberStatus::Down,
                            });
                        }
                    }
                }
                MemberStatus::Down => {
                    if reachable(node) {
                        // Local evidence of recovery at the same incarnation
                        // (its LSA is flowing again): mark it back Up.
                        rec.status = MemberStatus::Up;
                        rec.unreachable_epochs = 0;
                        rec.evicted = false;
                        changed = true;
                        announce.push(MemberInfo {
                            node,
                            incarnation: rec.incarnation,
                            status: MemberStatus::Up,
                        });
                    } else if !rec.evicted && now.saturating_since(rec.since) >= HOLD_DOWN {
                        rec.evicted = true;
                        out.push(MemberAction::Evict(node));
                    }
                }
                MemberStatus::Left => {
                    if reachable(node) {
                        // Local evidence the member rejoined — its LSA is
                        // flowing again — even though we missed the rejoin
                        // announcement (floods are accelerators; they can be
                        // lost while intermediaries are themselves down).
                        rec.status = MemberStatus::Up;
                        rec.unreachable_epochs = 0;
                        rec.evicted = false;
                        changed = true;
                        announce.push(MemberInfo {
                            node,
                            incarnation: rec.incarnation,
                            status: MemberStatus::Up,
                        });
                    } else if !rec.evicted {
                        // Graceful departures are evicted without a hold-down.
                        rec.evicted = true;
                        out.push(MemberAction::Evict(node));
                    }
                }
            }
        }
        if changed {
            self.version += 1;
        }
        if !announce.is_empty() {
            self.own_seq += 1;
            out.push(MemberAction::Flood {
                except: None,
                msg: Control::MembershipUpdate {
                    origin: self.me,
                    seq: self.own_seq,
                    members: announce,
                },
            });
        }
    }

    /// Handles a join request arriving on `link`: record the joiner `Up`,
    /// answer with the full membership view, and flood its liveness.
    pub fn on_join(
        &mut self,
        now: SimTime,
        node: NodeId,
        incarnation: u64,
        link: usize,
        out: &mut Vec<MemberAction>,
    ) {
        let info = MemberInfo {
            node,
            incarnation,
            status: MemberStatus::Up,
        };
        let changed = self.merge(info, now);
        out.push(MemberAction::Send {
            link,
            msg: Control::JoinAck {
                members: self.full_view(),
            },
        });
        if changed {
            self.version += 1;
            self.own_seq += 1;
            out.push(MemberAction::Flood {
                except: None,
                msg: Control::MembershipUpdate {
                    origin: self.me,
                    seq: self.own_seq,
                    members: vec![info],
                },
            });
        }
    }

    /// Handles the seed's join acknowledgment: adopt its view wholesale
    /// (subject to normal incarnation precedence).
    pub fn on_join_ack(
        &mut self,
        now: SimTime,
        members: &[MemberInfo],
        out: &mut Vec<MemberAction>,
    ) {
        let mut changed = false;
        for &m in members {
            changed |= self.merge(m, now);
        }
        if changed {
            self.version += 1;
        }
        let _ = out;
    }

    /// Handles a flooded leave announcement: record the node `Left`,
    /// re-flood onward so the departure reaches every member.
    pub fn on_leave(
        &mut self,
        now: SimTime,
        node: NodeId,
        incarnation: u64,
        arrived_on: Option<usize>,
        out: &mut Vec<MemberAction>,
    ) {
        if node == self.me {
            return; // our own announcement echoed back
        }
        let changed = self.merge(
            MemberInfo {
                node,
                incarnation,
                status: MemberStatus::Left,
            },
            now,
        );
        if changed {
            self.version += 1;
            out.push(MemberAction::Flood {
                except: arrived_on,
                msg: Control::Leave { node, incarnation },
            });
        }
    }

    /// Handles a flooded membership update: seq-gated per origin, re-flooded
    /// onward when new, merged under incarnation precedence. A claim that
    /// *we* are dead is refuted SWIM-style with a higher incarnation.
    /// Returns `false`, and neither records nor floods it, when its origin
    /// is outside the provisioned universe (a forged origin would otherwise
    /// grow the per-origin seq map without bound).
    pub fn on_update(
        &mut self,
        now: SimTime,
        origin: NodeId,
        seq: u64,
        members: &[MemberInfo],
        arrived_on: Option<usize>,
        out: &mut Vec<MemberAction>,
    ) -> bool {
        if !self.members.contains_key(&origin) {
            return false;
        }
        if origin == self.me {
            return true;
        }
        let newer = self.remote_seq.get(&origin).is_none_or(|&prev| seq > prev);
        if !newer {
            return true;
        }
        self.remote_seq.insert(origin, seq);
        out.push(MemberAction::Flood {
            except: arrived_on,
            msg: Control::MembershipUpdate {
                origin,
                seq,
                members: members.to_vec(),
            },
        });
        let mut changed = false;
        let mut refute = false;
        for &m in members {
            if m.node == self.me {
                if m.status != MemberStatus::Up && m.incarnation >= self.own_incarnation {
                    // Someone believes we are dead: refute with a higher
                    // incarnation.
                    self.own_incarnation = m.incarnation + 1;
                    refute = true;
                }
                continue;
            }
            changed |= self.merge(m, now);
        }
        if changed {
            self.version += 1;
        }
        if refute {
            out.push(self.announce_self());
        }
        true
    }

    /// Our graceful-departure announcement (flooded before going dark).
    #[must_use]
    pub fn leave_announcement(&self) -> Control {
        Control::Leave {
            node: self.me,
            incarnation: self.own_incarnation,
        }
    }

    /// Our join request (sent to the seed peer while bootstrapping).
    #[must_use]
    pub fn join_request(&self) -> Control {
        Control::Join {
            node: self.me,
            incarnation: self.own_incarnation,
        }
    }

    /// Called on restart: bump our incarnation (overriding any stale
    /// `Down`/`Left` record about us fleet-wide) and return the flood that
    /// announces us alive.
    pub fn rejoin(&mut self) -> MemberAction {
        self.own_incarnation += 1;
        if let Some(rec) = self.members.get_mut(&self.me) {
            rec.incarnation = self.own_incarnation;
            rec.status = MemberStatus::Up;
            rec.evicted = false;
        }
        self.version += 1;
        self.announce_self()
    }

    fn announce_self(&mut self) -> MemberAction {
        self.own_seq += 1;
        MemberAction::Flood {
            except: None,
            msg: Control::MembershipUpdate {
                origin: self.me,
                seq: self.own_seq,
                members: vec![MemberInfo {
                    node: self.me,
                    incarnation: self.own_incarnation,
                    status: MemberStatus::Up,
                }],
            },
        }
    }

    /// Merges one liveness claim under incarnation precedence: a higher
    /// incarnation always wins; at equal incarnation `Left` > `Down` > `Up`
    /// (a death claim cannot be un-claimed except by a new incarnation or
    /// fresh local evidence). Returns whether the record changed.
    fn merge(&mut self, info: MemberInfo, now: SimTime) -> bool {
        let Some(rec) = self.members.get_mut(&info.node) else {
            return false; // outside the provisioned universe
        };
        let newer = info.incarnation > rec.incarnation
            || (info.incarnation == rec.incarnation && rank(info.status) > rank(rec.status));
        if !newer {
            return false;
        }
        rec.incarnation = info.incarnation;
        if rec.status != info.status {
            rec.status = info.status;
            rec.unreachable_epochs = 0;
            rec.since = now;
            if info.status == MemberStatus::Up {
                rec.evicted = false;
            }
        }
        true
    }

    fn full_view(&self) -> Vec<MemberInfo> {
        self.members
            .iter()
            .map(|(&node, r)| MemberInfo {
                node,
                incarnation: r.incarnation,
                status: r.status,
            })
            .collect()
    }
}

/// Death claims outrank liveness at equal incarnation (SWIM precedence).
fn rank(status: MemberStatus) -> u8 {
    match status {
        MemberStatus::Up => 0,
        MemberStatus::Down => 1,
        MemberStatus::Left => 2,
    }
}

impl son_obs::MemFootprint for MembershipTable {
    fn footprint_bytes(&self) -> usize {
        use son_obs::footprint::{btreemap_bytes, hashmap_bytes};
        btreemap_bytes(&self.members) + hashmap_bytes(&self.remote_seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> MembershipTable {
        MembershipTable::new(NodeId(0), (0..4).map(NodeId))
    }

    fn epoch_at(t: &mut MembershipTable, ms: u64, down: &[NodeId], out: &mut Vec<MemberAction>) {
        let down = down.to_vec();
        t.on_epoch(SimTime::from_millis(ms), &mut |n| !down.contains(&n), out);
    }

    #[test]
    fn unreachable_member_goes_down_after_k_epochs_then_evicts() {
        let mut t = table();
        let mut out = Vec::new();
        // Two epochs unreachable: still Up (below down_epochs = 3).
        epoch_at(&mut t, 500, &[NodeId(2)], &mut out);
        epoch_at(&mut t, 1000, &[NodeId(2)], &mut out);
        assert!(t.is_up(NodeId(2)));
        assert!(out.is_empty());
        // Third epoch: Down, announced.
        epoch_at(&mut t, 1500, &[NodeId(2)], &mut out);
        assert!(!t.is_up(NodeId(2)));
        assert!(matches!(
            &out[0],
            MemberAction::Flood {
                msg: Control::MembershipUpdate { members, .. },
                ..
            } if members == &vec![MemberInfo {
                node: NodeId(2),
                incarnation: 0,
                status: MemberStatus::Down
            }]
        ));
        // Past the hold-down (2s after `since`): evicted exactly once.
        let mut out = Vec::new();
        epoch_at(&mut t, 3500, &[NodeId(2)], &mut out);
        assert_eq!(out, vec![MemberAction::Evict(NodeId(2))]);
        let mut out = Vec::new();
        epoch_at(&mut t, 4000, &[NodeId(2)], &mut out);
        assert!(out.is_empty(), "eviction fires once");
    }

    #[test]
    fn reachability_recovers_a_down_member() {
        let mut t = table();
        let mut out = Vec::new();
        for e in 1..=3 {
            epoch_at(&mut t, e * 500, &[NodeId(2)], &mut out);
        }
        assert!(!t.is_up(NodeId(2)));
        let mut out = Vec::new();
        epoch_at(&mut t, 2000, &[], &mut out);
        assert!(t.is_up(NodeId(2)));
        assert!(matches!(
            &out[0],
            MemberAction::Flood {
                msg: Control::MembershipUpdate { members, .. },
                ..
            } if members[0].status == MemberStatus::Up
        ));
    }

    #[test]
    fn intermittent_unreachability_resets_the_counter() {
        let mut t = table();
        let mut out = Vec::new();
        epoch_at(&mut t, 500, &[NodeId(1)], &mut out);
        epoch_at(&mut t, 1000, &[NodeId(1)], &mut out);
        epoch_at(&mut t, 1500, &[], &mut out); // reachable again
        epoch_at(&mut t, 2000, &[NodeId(1)], &mut out);
        epoch_at(&mut t, 2500, &[NodeId(1)], &mut out);
        assert!(t.is_up(NodeId(1)), "counter reset by the reachable epoch");
    }

    #[test]
    fn leave_marks_left_refloods_and_evicts_next_epoch() {
        let mut t = table();
        let mut out = Vec::new();
        t.on_leave(SimTime::from_millis(100), NodeId(3), 0, Some(1), &mut out);
        assert!(!t.is_up(NodeId(3)));
        assert_eq!(
            out,
            vec![MemberAction::Flood {
                except: Some(1),
                msg: Control::Leave {
                    node: NodeId(3),
                    incarnation: 0
                }
            }]
        );
        // Duplicate leave: no re-flood (flood terminates).
        let mut out = Vec::new();
        t.on_leave(SimTime::from_millis(120), NodeId(3), 0, Some(2), &mut out);
        assert!(out.is_empty());
        // Next epoch evicts without hold-down.
        let mut out = Vec::new();
        epoch_at(&mut t, 500, &[NodeId(3)], &mut out);
        assert_eq!(out, vec![MemberAction::Evict(NodeId(3))]);
    }

    #[test]
    fn left_member_reachable_again_resurrects() {
        let mut t = table();
        let mut out = Vec::new();
        t.on_leave(SimTime::from_millis(100), NodeId(3), 0, None, &mut out);
        let mut out = Vec::new();
        epoch_at(&mut t, 500, &[NodeId(3)], &mut out);
        assert_eq!(out, vec![MemberAction::Evict(NodeId(3))]);
        // The node rejoined but we lost its announcement flood: topology
        // evidence alone must resurrect it.
        let mut out = Vec::new();
        epoch_at(&mut t, 1000, &[], &mut out);
        assert!(t.is_up(NodeId(3)));
        assert!(matches!(
            &out[0],
            MemberAction::Flood {
                msg: Control::MembershipUpdate { members, .. },
                ..
            } if members == &vec![MemberInfo {
                node: NodeId(3),
                incarnation: 0,
                status: MemberStatus::Up
            }]
        ));
    }

    #[test]
    fn higher_incarnation_overrides_left() {
        let mut t = table();
        let mut out = Vec::new();
        t.on_leave(SimTime::from_millis(100), NodeId(3), 0, None, &mut out);
        assert!(!t.is_up(NodeId(3)));
        // The node restarted with incarnation 1 and announced itself.
        let mut out = Vec::new();
        t.on_update(
            SimTime::from_millis(600),
            NodeId(3),
            1,
            &[MemberInfo {
                node: NodeId(3),
                incarnation: 1,
                status: MemberStatus::Up,
            }],
            Some(0),
            &mut out,
        );
        assert!(t.is_up(NodeId(3)));
        // Stale Left at the old incarnation no longer sticks.
        let mut out = Vec::new();
        t.on_leave(SimTime::from_millis(700), NodeId(3), 0, None, &mut out);
        assert!(t.is_up(NodeId(3)));
        assert!(out.is_empty());
    }

    #[test]
    fn update_floods_are_seq_gated_per_origin() {
        let mut t = table();
        let info = [MemberInfo {
            node: NodeId(2),
            incarnation: 0,
            status: MemberStatus::Down,
        }];
        let mut out = Vec::new();
        t.on_update(SimTime::ZERO, NodeId(1), 5, &info, Some(0), &mut out);
        assert_eq!(out.len(), 1, "first sighting refloods");
        let mut out = Vec::new();
        t.on_update(SimTime::ZERO, NodeId(1), 5, &info, Some(1), &mut out);
        assert!(out.is_empty(), "duplicate seq dropped");
        let mut out = Vec::new();
        t.on_update(SimTime::ZERO, NodeId(1), 6, &info, Some(1), &mut out);
        assert_eq!(out.len(), 1, "newer seq refloods");
    }

    #[test]
    fn death_claim_about_self_is_refuted() {
        let mut t = table();
        assert_eq!(t.incarnation(), 0);
        let mut out = Vec::new();
        t.on_update(
            SimTime::ZERO,
            NodeId(1),
            1,
            &[MemberInfo {
                node: NodeId(0),
                incarnation: 0,
                status: MemberStatus::Down,
            }],
            Some(0),
            &mut out,
        );
        assert_eq!(t.incarnation(), 1, "incarnation bumped past the claim");
        // The re-flood of the claim plus our alive announcement.
        assert!(out.iter().any(|a| matches!(
            a,
            MemberAction::Flood {
                msg: Control::MembershipUpdate { origin: NodeId(0), members, .. },
                ..
            } if members[0].status == MemberStatus::Up && members[0].incarnation == 1
        )));
    }

    #[test]
    fn join_answers_with_full_view_and_floods_liveness() {
        let mut t = table();
        let mut out = Vec::new();
        // Node 3 left; later it rejoins with incarnation 1 via us.
        t.on_leave(SimTime::from_millis(100), NodeId(3), 0, None, &mut out);
        let mut out = Vec::new();
        t.on_join(SimTime::from_millis(900), NodeId(3), 1, 2, &mut out);
        assert!(t.is_up(NodeId(3)));
        match &out[0] {
            MemberAction::Send {
                link: 2,
                msg: Control::JoinAck { members },
            } => {
                assert_eq!(members.len(), 4, "full view");
                assert!(members.iter().all(|m| m.status == MemberStatus::Up));
            }
            other => panic!("expected JoinAck, got {other:?}"),
        }
        assert!(matches!(
            &out[1],
            MemberAction::Flood {
                msg: Control::MembershipUpdate { members, .. },
                ..
            } if members[0].node == NodeId(3) && members[0].incarnation == 1
        ));
    }

    #[test]
    fn rejoin_bumps_incarnation_and_announces() {
        let mut t = table();
        let action = t.rejoin();
        assert_eq!(t.incarnation(), 1);
        assert!(matches!(
            action,
            MemberAction::Flood {
                msg: Control::MembershipUpdate { members, .. },
                ..
            } if members[0].incarnation == 1 && members[0].status == MemberStatus::Up
        ));
    }

    #[test]
    fn join_ack_adopts_the_seed_view() {
        let mut t = table();
        let mut out = Vec::new();
        let v0 = t.version();
        t.on_join_ack(
            SimTime::ZERO,
            &[
                MemberInfo {
                    node: NodeId(1),
                    incarnation: 2,
                    status: MemberStatus::Up,
                },
                MemberInfo {
                    node: NodeId(2),
                    incarnation: 1,
                    status: MemberStatus::Left,
                },
            ],
            &mut out,
        );
        assert!(t.is_up(NodeId(1)));
        assert!(!t.is_up(NodeId(2)));
        assert!(t.version() > v0);
        assert_eq!(t.up_members(), vec![NodeId(0), NodeId(1), NodeId(3)]);
    }

    /// An update from an origin outside the provisioned universe is
    /// refused: no seq recorded, nothing flooded, however many arrive.
    #[test]
    fn an_origin_outside_the_universe_is_refused() {
        let mut t = table();
        let empty = son_obs::MemFootprint::footprint_bytes(&t);
        let mut out = Vec::new();
        let info = [MemberInfo {
            node: NodeId(2),
            incarnation: 3,
            status: MemberStatus::Down,
        }];
        for forged in 4..1_004 {
            assert!(!t.on_update(SimTime::ZERO, NodeId(forged), 1, &info, Some(0), &mut out));
        }
        assert!(out.is_empty(), "never flooded on");
        assert_eq!(son_obs::MemFootprint::footprint_bytes(&t), empty);
        assert!(t.is_up(NodeId(2)), "its claims are not merged");
        assert!(t.on_update(SimTime::ZERO, NodeId(3), 1, &info, Some(0), &mut out));
        assert_eq!(out.len(), 1, "a member's update still floods");
    }
}
