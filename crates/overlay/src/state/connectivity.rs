//! Connectivity Graph Maintenance: hellos, link-quality estimation,
//! link-state flooding, and the shared topology view (§II-A/§II-B).
//!
//! "The limited number of nodes allows each overlay node to maintain global
//! state concerning the condition of all other overlay nodes and the
//! connections between them, allowing fast reactions to changes in the
//! network, with the ability to route around problems at a sub-second
//! scale."
//!
//! The monitor also drives provider switching on multihomed links: when
//! hellos on the active ISP go quiet it rotates to the next provider first
//! ("choosing a different combination of ISPs to use for a given overlay
//! link"), and only declares the overlay link down when every provider has
//! been exhausted.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use son_netsim::time::{SimDuration, SimTime};
use son_topo::{EdgeId, Graph, NodeId, TopoSnapshot};

use crate::packet::{Control, LinkAdvert, Lsa};

/// Configuration of the connectivity monitor.
#[derive(Debug, Clone, Copy)]
pub struct ConnectivityConfig {
    /// How often hellos are sent on every link.
    pub hello_interval: SimDuration,
    /// Consecutive hello misses (across providers) before the link is
    /// declared down. With 100 ms hellos and 3 misses this yields the
    /// paper's sub-second reaction.
    pub down_misses: u32,
    /// Hold-down for remote-LSA route recomputation: a changed LSA marks
    /// the rebuild pending instead of firing it, and the rebuild runs on
    /// the next tick after LSAs quiesce for this long (or after `4x` this
    /// long under sustained churn, bounding staleness). `ZERO` disables
    /// the debounce — every changed LSA recomputes immediately. This is
    /// the cold-start defence: without it, N joining nodes each rebuild
    /// O(N) times as the initial flood arrives LSA by LSA.
    pub rebuild_hold_down: SimDuration,
}

impl Default for ConnectivityConfig {
    fn default() -> Self {
        ConnectivityConfig {
            hello_interval: SimDuration::from_millis(100),
            down_misses: 5,
            rebuild_hold_down: SimDuration::ZERO,
        }
    }
}

/// Consecutive hello misses on one provider before switching providers.
const ISP_SWITCH_MISSES: u32 = 2;
/// How often the node re-floods its own LSA even without changes.
const REFRESH_INTERVAL: SimDuration = SimDuration::from_secs(5);
/// EWMA gain for loss/latency estimates.
const EWMA_ALPHA: f64 = 0.2;

// LSA flap damping (enabled by the anomaly watchdog). An origin whose
// advertised link state changes `FLAP_THRESHOLD` or more times within
// `FLAP_WINDOW` is *damped*: its later updates still enter the LSDB and are
// flooded onward (peers keep their own counsel), but they stop triggering
// local route recomputation until the origin stays stable for `FLAP_DWELL`.

/// Content changes within [`FLAP_WINDOW`] that trigger damping.
const FLAP_THRESHOLD: u32 = 4;
/// The sliding window over which changes are counted.
const FLAP_WINDOW: SimDuration = SimDuration::from_secs(10);
/// How long an origin must stay stable before it is released.
const FLAP_DWELL: SimDuration = SimDuration::from_secs(3);

/// Per-origin flap-damping bookkeeping.
#[derive(Debug, Default)]
struct FlapState {
    /// Recent content-change instants, pruned to the damping window.
    changes: VecDeque<SimTime>,
    /// Whether the origin is currently damped.
    suppressed: bool,
    /// A damped update was deferred and must apply on release.
    pending: bool,
    /// The origin's last content change (dwell is measured from here).
    last_change: SimTime,
}

/// What the monitor asks the node to do.
#[derive(Debug, PartialEq)]
pub enum ConnAction {
    /// Send a control message on one incident link (by local link index).
    Send {
        /// Local index of the link to send on.
        link: usize,
        /// The message.
        msg: Control,
    },
    /// Flood a control message on all links except `except` (loop
    /// prevention for LSA dissemination).
    Flood {
        /// Local link index the message arrived on, if any.
        except: Option<usize>,
        /// The message.
        msg: Control,
    },
    /// Switch a multihomed link to its `isp_index`-th provider binding.
    SwitchProvider {
        /// Local index of the link.
        link: usize,
        /// Index into the link's provider bindings.
        isp_index: usize,
    },
    /// The shared topology view changed; forwarding tables must recompute.
    TopologyChanged,
    /// An oscillating LSA origin was damped after `changes` content changes
    /// within the damping window (watchdog audit hook).
    FlapDamped {
        /// The damped origin.
        origin: NodeId,
        /// Content changes counted in the window.
        changes: u64,
    },
    /// A damped origin stayed stable for the dwell period and was released
    /// (watchdog audit hook).
    FlapReleased {
        /// The released origin.
        origin: NodeId,
    },
}

#[derive(Debug)]
struct LinkMonitor {
    edge: EdgeId,
    /// Number of provider bindings this link has.
    providers: usize,
    active_provider: usize,
    next_seq: u64,
    /// Hello seqs sent but not yet acked.
    outstanding: HashMap<u64, SimTime>,
    misses_on_provider: u32,
    total_misses: u32,
    up: bool,
    /// Watchdog suspension: advertised down regardless of hello liveness.
    suspended: bool,
    latency_ms: f64,
    loss: f64,
    /// Nominal latency used until measurements arrive.
    nominal_latency_ms: f64,
}

/// One remote origin's entry in the link-state table: the newest sequence
/// number accepted from it and the adverts that LSA carried — the flooded
/// allocation itself, shared with every co-located daemon that accepted the
/// same LSA. `links: None` means nothing is stored for the origin.
#[derive(Debug, Clone, Default)]
struct Slot {
    seq: u64,
    links: Option<Arc<[LinkAdvert]>>,
}

// The table is N slots in each of N daemons: a slot is the per-node cost of
// one more overlay member.
const _: () = assert!(size_of::<Slot>() <= 24);

/// The per-node connectivity monitor and link-state database.
#[derive(Debug)]
pub struct ConnectivityMonitor {
    me: NodeId,
    config: ConnectivityConfig,
    links: Vec<LinkMonitor>,
    /// Our own latest advertisement.
    own: Arc<[LinkAdvert]>,
    /// Latest LSA accepted per remote origin, indexed by origin: empty
    /// until the first one is accepted, then one slot per node of the
    /// configured topology (our own stays vacant).
    lsdb: Vec<Slot>,
    /// Sequence number of `own`: 1 for what `new` builds, one more for
    /// every origination.
    own_seq: u64,
    last_refresh: SimTime,
    /// Bumped whenever the shared view changes; routing caches key off it.
    version: u64,
    /// The configured (static) overlay topology; LSAs overlay liveness and
    /// quality on top of it.
    topology: Graph,
    /// The frozen shared view for [`ConnectivityMonitor::version`], built
    /// lazily and reused until the version moves.
    snapshot: Option<(u64, Arc<TopoSnapshot>)>,
    /// Times the shared view was actually (re)built from the LSDB.
    graph_builds: u64,
    /// Whether LSA flap damping is on (the watchdog enables it).
    damping: bool,
    /// Per-origin damping state (only populated while damping is enabled).
    flap: HashMap<NodeId, FlapState>,
    /// A remote-LSA change is waiting out the rebuild hold-down.
    pending_topology: bool,
    /// When the oldest deferred change arrived (bounds total deferral).
    first_pending: SimTime,
    /// When the newest deferred change arrived (quiesce measures from here).
    last_pending: SimTime,
    /// Evicted-origin tombstones: `origin -> (last evicted seq, when)`.
    /// Copies of an evicted origin's LSA keep circulating for a while
    /// (every node refloods on first sight); the tombstone rejects those
    /// stale floods so eviction sticks, while a genuinely newer seq (the
    /// origin restarted) clears it.
    tombstones: HashMap<NodeId, (u64, SimTime)>,
    /// Graceful-shutdown withdrawal: when set, the own LSA advertises every
    /// incident link down, steering the fleet's routes away before the
    /// process goes dark.
    withdrawn: bool,
}

/// How long an eviction tombstone keeps rejecting stale floods of the
/// evicted origin's last LSA. After this, any LSA from the origin is
/// accepted again (covers daemons that restart without retained state and
/// so restart their seq counter).
const TOMBSTONE_TTL: SimDuration = SimDuration::from_secs(10);

/// The weight of an edge some endpoint advertises down: finite (the graph
/// layer requires it) but far above any real path, so shortest-path runs
/// treat it as absent.
const DOWN_WEIGHT: f64 = 1e12;

impl ConnectivityMonitor {
    /// Creates a monitor for node `me` with the given incident links.
    ///
    /// `links` lists `(edge, provider_count, nominal_latency_ms)` per
    /// incident overlay link, in the node's local link order.
    #[must_use]
    pub fn new(
        me: NodeId,
        topology: Graph,
        links: Vec<(EdgeId, usize, f64)>,
        config: ConnectivityConfig,
    ) -> Self {
        let links: Vec<LinkMonitor> = links
            .into_iter()
            .map(|(edge, providers, nominal)| LinkMonitor {
                edge,
                providers: providers.max(1),
                active_provider: 0,
                next_seq: 0,
                outstanding: HashMap::new(),
                misses_on_provider: 0,
                total_misses: 0,
                up: true,
                suspended: false,
                latency_ms: nominal,
                loss: 0.0,
                nominal_latency_ms: nominal,
            })
            .collect();
        ConnectivityMonitor {
            me,
            config,
            own: own_adverts(&links, false),
            links,
            lsdb: Vec::new(),
            own_seq: 1,
            last_refresh: SimTime::ZERO,
            version: 1,
            topology,
            snapshot: None,
            graph_builds: 0,
            damping: false,
            flap: HashMap::new(),
            pending_topology: false,
            first_pending: SimTime::ZERO,
            last_pending: SimTime::ZERO,
            tombstones: HashMap::new(),
            withdrawn: false,
        }
    }

    /// Every stored advertisement list: our own, then each remote origin's.
    fn adverts(&self) -> impl Iterator<Item = &Arc<[LinkAdvert]>> {
        let remote = self.lsdb.iter().filter_map(|slot| slot.links.as_ref());
        std::iter::once(&self.own).chain(remote)
    }

    /// The shared-view version; consumers recompute caches when it changes.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The frozen shared topology view for the current version.
    ///
    /// Built from the LSDB at most once per version and shared by `Arc`:
    /// repeated calls (and every consumer on this node) get the same
    /// snapshot for free until the next real topology change. A rebuild
    /// tallies the LSDB into one weight per edge and attaches them to the
    /// configured topology's shared shape — no graph is cloned and nothing
    /// is recompiled. Weights are bit-identical to
    /// [`ConnectivityMonitor::current_graph`], which is kept as the
    /// reference the tests compare this against.
    #[must_use]
    pub fn snapshot(&mut self) -> Arc<TopoSnapshot> {
        if let Some((v, ref snap)) = self.snapshot {
            if v == self.version {
                return Arc::clone(snap);
            }
        }
        self.graph_builds += 1;
        let weights = self.tally_weights();
        let snap = Arc::new(TopoSnapshot::new(self.topology.with_weights(weights)));
        self.snapshot = Some((self.version, Arc::clone(&snap)));
        snap
    }

    /// One weight per configured edge from the LSDB's advertisements (the
    /// rule is [`ConnectivityMonitor::current_graph`]'s). An advert naming
    /// an edge the configured topology does not have is ignored.
    fn tally_weights(&self) -> Vec<f64> {
        #[derive(Clone, Copy, Default)]
        struct Votes {
            any_down: bool,
            latency_sum: f64,
            loss_sum: f64,
            adverts: u32,
        }
        let mut votes = vec![Votes::default(); self.topology.edge_count()];
        for links in self.adverts() {
            for ad in links.iter() {
                let Some(v) = votes.get_mut(ad.edge.0) else {
                    continue;
                };
                v.any_down |= !ad.up;
                v.latency_sum += ad.latency_ms;
                v.loss_sum += ad.loss;
                v.adverts += 1;
            }
        }
        votes
            .iter()
            .enumerate()
            .map(|(e, v)| {
                if v.adverts == 0 {
                    self.topology.weight(EdgeId(e))
                } else if v.any_down {
                    DOWN_WEIGHT
                } else {
                    let n = f64::from(v.adverts);
                    let loss = (v.loss_sum / n).clamp(0.0, 0.99);
                    (v.latency_sum / n / (1.0 - loss)).max(0.01)
                }
            })
            .collect()
    }

    /// Times the shared view was actually rebuilt from the LSDB; flat
    /// across no-op LSAs and repeated [`ConnectivityMonitor::snapshot`]
    /// calls at the same version.
    #[must_use]
    pub fn graph_builds(&self) -> u64 {
        self.graph_builds
    }

    /// Whether a local link is currently considered up.
    #[must_use]
    pub fn link_up(&self, link: usize) -> bool {
        self.links[link].up
    }

    /// The measured quality of a local link `(latency_ms, loss)`.
    #[must_use]
    pub fn link_quality(&self, link: usize) -> (f64, f64) {
        (self.links[link].latency_ms, self.links[link].loss)
    }

    /// Enables (or disables) LSA flap damping; the watchdog turns this on.
    pub fn set_flap_damping(&mut self, damping: bool) {
        self.damping = damping;
        if !damping {
            self.flap.clear();
        }
    }

    /// Whether a local link is watchdog-suspended.
    #[must_use]
    pub fn is_suspended(&self, link: usize) -> bool {
        self.links[link].suspended
    }

    /// Number of origins currently in the LSDB (including our own entry).
    #[must_use]
    pub fn lsdb_len(&self) -> usize {
        self.adverts().count()
    }

    /// The adverts stored for `origin` (our own included), if any: the
    /// shared allocation itself, so a harness can tell a copy from a share.
    #[must_use]
    pub fn adverts_of(&self, origin: NodeId) -> Option<&Arc<[LinkAdvert]>> {
        if origin == self.me {
            return Some(&self.own);
        }
        self.lsdb.get(origin.0)?.links.as_ref()
    }

    /// Sets graceful-shutdown withdrawal: while set, the own LSA advertises
    /// every incident link down. The membership layer sets this on a
    /// graceful leave (and clears it on restart) so the fleet reroutes
    /// before the process goes dark. Originates the changed own LSA.
    pub fn set_withdrawn(&mut self, withdrawn: bool, out: &mut Vec<ConnAction>) {
        if self.withdrawn != withdrawn {
            self.withdrawn = withdrawn;
            self.originate(None, out);
        }
    }

    /// Evicts a departed origin's LSA from the LSDB (membership-layer
    /// maintenance: the origin left or stayed down past the hold-down). A
    /// tombstone rejects stale re-floods of the evicted advertisement for
    /// `TOMBSTONE_TTL` (10 s); a genuinely newer LSA from the origin (it
    /// came back) clears the tombstone and is accepted normally.
    pub fn evict_origin(&mut self, origin: NodeId, now: SimTime, out: &mut Vec<ConnAction>) {
        if origin == self.me {
            return;
        }
        let Some(slot) = self.lsdb.get_mut(origin.0) else {
            return;
        };
        if slot.links.take().is_some() {
            self.tombstones.insert(origin, (slot.seq, now));
            self.flap.remove(&origin);
            self.bump_version(out);
        }
    }

    /// Moves the shared view forward now. Any debounced remote changes are
    /// absorbed for free — the rebuild this triggers reads the full LSDB,
    /// pending entries included — so the hold-down state resets.
    fn bump_version(&mut self, out: &mut Vec<ConnAction>) {
        self.pending_topology = false;
        self.version += 1;
        out.push(ConnAction::TopologyChanged);
    }

    /// Suspends a local link: it keeps exchanging hellos (so recovery can
    /// be measured) but is advertised down, steering the fleet's routes
    /// around it. Originates the updated own LSA.
    pub fn suspend_link(&mut self, link: usize, out: &mut Vec<ConnAction>) {
        if !self.links[link].suspended {
            self.links[link].suspended = true;
            self.originate(None, out);
        }
    }

    /// Lifts a watchdog suspension and re-advertises the link's true state.
    pub fn release_link(&mut self, link: usize, out: &mut Vec<ConnAction>) {
        if self.links[link].suspended {
            self.links[link].suspended = false;
            self.originate(None, out);
        }
    }

    /// The periodic tick: sends hellos, evaluates misses, switches
    /// providers, declares links down, refreshes the own LSA.
    pub fn on_tick(&mut self, now: SimTime, out: &mut Vec<ConnAction>) {
        let mut reoriginate = false;
        for i in 0..self.links.len() {
            let link = &mut self.links[i];
            // Evaluate the previous rounds: anything outstanding beyond the
            // ack timeout counts as a miss. The timeout must cover the link
            // round trip, or long links would miss every probe.
            let ack_timeout = self
                .config
                .hello_interval
                .max(SimDuration::from_millis_f64(link.nominal_latency_ms * 3.0));
            let horizon = now - ack_timeout;
            let outstanding = link.outstanding.len();
            link.outstanding.retain(|_, &mut sent| sent > horizon);
            if link.outstanding.len() < outstanding {
                link.loss = ewma(link.loss, 1.0);
                link.misses_on_provider += 1;
                link.total_misses += 1;
                if link.up && link.total_misses >= self.config.down_misses {
                    link.up = false;
                    reoriginate = true;
                } else if link.providers > 1 && link.misses_on_provider >= ISP_SWITCH_MISSES {
                    link.active_provider = (link.active_provider + 1) % link.providers;
                    link.misses_on_provider = 0;
                    out.push(ConnAction::SwitchProvider {
                        link: i,
                        isp_index: link.active_provider,
                    });
                }
            }
            // Send this round's hello.
            link.next_seq += 1;
            let seq = link.next_seq;
            link.outstanding.insert(seq, now);
            out.push(ConnAction::Send {
                link: i,
                msg: Control::Hello { seq, sent_at: now },
            });
        }
        if reoriginate {
            self.originate(None, out);
        } else if now.saturating_since(self.last_refresh) >= REFRESH_INTERVAL {
            self.last_refresh = now;
            self.originate(None, out);
        }
        // Release damped origins that stayed stable for the dwell period,
        // applying any update that was deferred while they were damped.
        if self.damping {
            let mut released = Vec::new();
            for (&origin, st) in &mut self.flap {
                if st.suppressed && now.saturating_since(st.last_change) >= FLAP_DWELL {
                    st.suppressed = false;
                    st.changes.clear();
                    released.push((origin, std::mem::take(&mut st.pending)));
                }
            }
            released.sort_by_key(|&(origin, _)| origin);
            for (origin, pending) in released {
                out.push(ConnAction::FlapReleased { origin });
                if pending {
                    self.bump_version(out);
                }
            }
        }
        // Flush a debounced rebuild once remote LSAs have quiesced for the
        // hold-down, or once the oldest deferred change has waited 4x the
        // hold-down (sustained churn must not starve recomputation).
        if self.pending_topology {
            let hold = self.config.rebuild_hold_down;
            if now.saturating_since(self.last_pending) >= hold
                || now.saturating_since(self.first_pending) >= hold * 4
            {
                self.bump_version(out);
            }
        }
    }

    /// Handles an incoming hello on local link `link`: answer with an ack.
    pub fn on_hello(&mut self, link: usize, seq: u64, sent_at: SimTime, out: &mut Vec<ConnAction>) {
        // Receiving anything proves the link is alive in the incoming
        // direction; the ack lets the sender prove the round trip.
        out.push(ConnAction::Send {
            link,
            msg: Control::HelloAck {
                seq,
                echo_sent_at: sent_at,
            },
        });
    }

    /// Handles a hello acknowledgment: updates quality and liveness.
    pub fn on_hello_ack(
        &mut self,
        now: SimTime,
        link: usize,
        seq: u64,
        echo_sent_at: SimTime,
        out: &mut Vec<ConnAction>,
    ) {
        let l = &mut self.links[link];
        if l.outstanding.remove(&seq).is_none() {
            return; // stale or duplicate ack
        }
        let rtt_ms = now.saturating_since(echo_sent_at).as_millis_f64();
        l.latency_ms = ewma(l.latency_ms, (rtt_ms / 2.0).max(0.01));
        l.loss = ewma(l.loss, 0.0);
        l.misses_on_provider = 0;
        l.total_misses = 0;
        if !l.up {
            l.up = true;
            self.originate(None, out);
        }
    }

    /// Handles a flooded LSA arriving on local link `arrived_on`.
    ///
    /// With flap damping enabled, an origin whose advertisements oscillate
    /// faster than the damping threshold is suppressed: its updates still
    /// enter the LSDB and flood onward, but route recomputation is deferred
    /// until the origin stays stable for the dwell period (released by
    /// [`ConnectivityMonitor::on_tick`]).
    pub fn on_lsa(
        &mut self,
        now: SimTime,
        lsa: Lsa,
        arrived_on: Option<usize>,
        out: &mut Vec<ConnAction>,
    ) {
        if lsa.origin == self.me {
            return; // our own advertisement echoed back
        }
        let origin = lsa.origin;
        if origin.0 >= self.topology.node_count() {
            // Node ids are 32 bits on the wire; the table is bounded by the
            // configured topology, so a forged origin is never stored and
            // never flooded on.
            return;
        }
        if !lsa.links.iter().all(LinkAdvert::is_well_formed) {
            return; // forged or corrupt: never stored, never flooded on
        }
        // (An empty map answers without hashing the key.)
        if let Some(&(seq, at)) = self.tombstones.get(&origin) {
            if lsa.seq <= seq && now.saturating_since(at) < TOMBSTONE_TTL {
                return; // stale flood of an evicted origin
            }
            self.tombstones.remove(&origin);
        }
        if self.lsdb.is_empty() {
            // Sized by the first LSA heard, not at construction: a fleet
            // builder does not pay for N tables of N slots up front.
            self.lsdb
                .resize(self.topology.node_count(), Slot::default());
        }
        let slot = &mut self.lsdb[origin.0];
        let changed = match &slot.links {
            Some(_) if lsa.seq <= slot.seq => return, // not newer
            Some(prev) => !Arc::ptr_eq(prev, &lsa.links) && **prev != *lsa.links,
            None => true,
        };
        slot.seq = lsa.seq;
        if changed {
            slot.links = Some(Arc::clone(&lsa.links));
        }
        // Flood onward regardless (peers may have missed it).
        out.push(ConnAction::Flood {
            except: arrived_on,
            msg: Control::Lsa(lsa),
        });
        if !changed {
            return;
        }
        let mut deferred = false;
        if self.damping {
            let st = self.flap.entry(origin).or_default();
            st.last_change = now;
            st.changes.push_back(now);
            while st
                .changes
                .front()
                .is_some_and(|&t| now.saturating_since(t) > FLAP_WINDOW)
            {
                st.changes.pop_front();
            }
            if st.suppressed {
                st.pending = true;
                deferred = true;
            } else if st.changes.len() as u32 >= FLAP_THRESHOLD {
                st.suppressed = true;
                st.pending = true;
                deferred = true;
                out.push(ConnAction::FlapDamped {
                    origin,
                    changes: st.changes.len() as u64,
                });
            }
        }
        if !deferred {
            if self.config.rebuild_hold_down == SimDuration::ZERO {
                self.bump_version(out);
            } else {
                // Debounce: mark pending and let the tick flush once the
                // flood quiesces. Local changes (originate) and flap
                // releases still recompute immediately.
                if !self.pending_topology {
                    self.pending_topology = true;
                    self.first_pending = now;
                }
                self.last_pending = now;
            }
        }
    }

    /// Originates a fresh own LSA (used at startup, on link flaps, and on
    /// the periodic refresh). The LSA is always flooded (peers may have
    /// missed the last one), but the shared-view version only moves when
    /// the advertised link state actually changed — a no-op refresh must
    /// not trigger fleet-wide route recomputation.
    pub fn originate(&mut self, arrived_on: Option<usize>, out: &mut Vec<ConnAction>) {
        // A refresh floods the allocation the fleet already holds.
        let links = own_adverts(&self.links, self.withdrawn);
        let changed = *self.own != *links;
        if changed {
            self.own = links;
        }
        self.own_seq += 1;
        out.push(ConnAction::Flood {
            except: arrived_on,
            msg: Control::Lsa(Lsa {
                origin: self.me,
                seq: self.own_seq,
                links: Arc::clone(&self.own),
            }),
        });
        if changed {
            self.bump_version(out);
        }
    }

    /// Builds the current shared topology view as a plain graph: the
    /// configured topology with per-edge liveness and expected-latency costs
    /// from the LSDB. This is the reference statement of the weight rule;
    /// route rebuilds go through [`ConnectivityMonitor::snapshot`].
    ///
    /// An edge is usable only if **no** endpoint advertises it down (a link
    /// one side cannot hear on is no good to either). The cost is the mean
    /// advertised latency inflated by expected retransmissions,
    /// `latency / (1 - loss)`, so lossy links are avoided when alternatives
    /// exist.
    #[must_use]
    pub fn current_graph(&self) -> Graph {
        let mut g = self.topology.clone();
        // Collect advertisements per edge.
        let mut up_votes: HashMap<EdgeId, (bool, f64, f64, u32)> = HashMap::new();
        for links in self.adverts() {
            for ad in links.iter() {
                let entry = up_votes.entry(ad.edge).or_insert((true, 0.0, 0.0, 0));
                entry.0 &= ad.up;
                entry.1 += ad.latency_ms;
                entry.2 += ad.loss;
                entry.3 += 1;
            }
        }
        for e in self.topology.edges() {
            match up_votes.get(&e) {
                Some(&(up, lat_sum, loss_sum, n)) if n > 0 => {
                    if !up {
                        // Effectively remove the edge from path computation.
                        g.set_weight(e, DOWN_WEIGHT);
                    } else {
                        let lat = lat_sum / f64::from(n);
                        let loss = (loss_sum / f64::from(n)).clamp(0.0, 0.99);
                        g.set_weight(e, (lat / (1.0 - loss)).max(0.01));
                    }
                }
                _ => {
                    // No advertisement yet: keep the configured weight.
                }
            }
        }
        g
    }
}

fn ewma(prev: f64, sample: f64) -> f64 {
    prev * (1.0 - EWMA_ALPHA) + sample * EWMA_ALPHA
}

/// What a node with these link monitors advertises about its links.
fn own_adverts(links: &[LinkMonitor], withdrawn: bool) -> Arc<[LinkAdvert]> {
    let advert = |l: &LinkMonitor| {
        let latency = if l.latency_ms > 0.0 {
            l.latency_ms
        } else {
            l.nominal_latency_ms
        };
        LinkAdvert {
            edge: l.edge,
            up: l.up && !l.suspended && !withdrawn,
            // Quantize so measurement noise does not make every periodic
            // refresh look like a topology change (and trigger fleet-wide
            // recomputation).
            latency_ms: (latency * 4.0).round() / 4.0,
            loss: (l.loss * 50.0).round() / 50.0,
        }
    };
    links.iter().map(advert).collect()
}

impl son_obs::MemFootprint for ConnectivityMonitor {
    fn footprint_bytes(&self) -> usize {
        use son_obs::footprint::{hashmap_bytes, shared_part, vec_bytes, vecdeque_bytes};
        // Shared allocations are charged by share: the cached snapshot is
        // the same `Arc` routing holds, so each charges its part of it, the
        // configured topology charges its part of the fleet-wide shape (see
        // `Graph::approx_bytes`), and every advert list — strong and weak
        // count, then the adverts — is split among the daemons (and frames
        // in flight) that hold it.
        const ARC_HEADER_BYTES: usize = 2 * size_of::<usize>();
        let snapshot = self
            .snapshot
            .as_ref()
            .map_or(0, |(_, snap)| shared_part(snap, snap.approx_bytes()));
        snapshot
            + vec_bytes(&self.links)
            + self
                .links
                .iter()
                .map(|l| hashmap_bytes(&l.outstanding))
                .sum::<usize>()
            + vec_bytes(&self.lsdb)
            + self
                .adverts()
                .map(|links| shared_part(links, ARC_HEADER_BYTES + size_of_val(&**links)))
                .sum::<usize>()
            + self.topology.approx_bytes()
            + hashmap_bytes(&self.tombstones)
            + hashmap_bytes(&self.flap)
            + self
                .flap
                .values()
                .map(|f| vecdeque_bytes(&f.changes))
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn topo3() -> Graph {
        // Triangle 0-1-2 with 10ms links.
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 10.0);
        g.add_edge(NodeId(1), NodeId(2), 10.0);
        g.add_edge(NodeId(2), NodeId(0), 10.0);
        g
    }

    fn monitor() -> ConnectivityMonitor {
        // Node 0 has links e0 (to 1) and e2 (to 2), each with 2 providers.
        ConnectivityMonitor::new(
            NodeId(0),
            topo3(),
            vec![(EdgeId(0), 2, 10.0), (EdgeId(2), 2, 10.0)],
            ConnectivityConfig::default(),
        )
    }

    fn tick_times(mon: &mut ConnectivityMonitor, from_ms: u64, rounds: u64) -> Vec<ConnAction> {
        let mut out = Vec::new();
        for r in 0..rounds {
            mon.on_tick(SimTime::from_millis(from_ms + r * 100), &mut out);
        }
        out
    }

    #[test]
    fn tick_sends_hello_per_link() {
        let mut mon = monitor();
        let out = tick_times(&mut mon, 0, 1);
        let hellos = out
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    ConnAction::Send {
                        msg: Control::Hello { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(hellos, 2);
    }

    #[test]
    fn hello_gets_acked_and_ack_updates_quality() {
        let mut mon = monitor();
        let mut out = Vec::new();
        mon.on_hello(0, 7, SimTime::from_millis(5), &mut out);
        assert_eq!(
            out,
            vec![ConnAction::Send {
                link: 0,
                msg: Control::HelloAck {
                    seq: 7,
                    echo_sent_at: SimTime::from_millis(5)
                }
            }]
        );

        // Our own hello out and its ack back: rtt 20ms -> latency ~10ms.
        let mut out = Vec::new();
        mon.on_tick(SimTime::from_millis(100), &mut out);
        let seq = out
            .iter()
            .find_map(|a| match a {
                ConnAction::Send {
                    link: 0,
                    msg: Control::Hello { seq, .. },
                } => Some(*seq),
                _ => None,
            })
            .unwrap();
        let mut out = Vec::new();
        mon.on_hello_ack(
            SimTime::from_millis(120),
            0,
            seq,
            SimTime::from_millis(100),
            &mut out,
        );
        let (lat, loss) = mon.link_quality(0);
        assert!((lat - 10.0).abs() < 0.5, "lat={lat}");
        assert!(loss < 0.01);
        assert!(mon.link_up(0));
    }

    #[test]
    fn sustained_misses_switch_provider_then_declare_down() {
        let mut mon = monitor();
        let mut out = Vec::new();
        // 7 ticks with no acks: misses accumulate from tick 2 on.
        for r in 0..7 {
            mon.on_tick(SimTime::from_millis(r * 100), &mut out);
        }
        let switches: Vec<usize> = out
            .iter()
            .filter_map(|a| match a {
                ConnAction::SwitchProvider { link: 0, isp_index } => Some(*isp_index),
                _ => None,
            })
            .collect();
        assert!(
            !switches.is_empty(),
            "provider switch attempted before down"
        );
        assert!(!mon.link_up(0), "link declared down after down_misses");
        // A fresh LSA was flooded announcing the change.
        assert!(out.iter().any(|a| matches!(
            a,
            ConnAction::Flood {
                msg: Control::Lsa(_),
                ..
            }
        )));
        assert!(out.iter().any(|a| matches!(a, ConnAction::TopologyChanged)));
    }

    #[test]
    fn ack_after_down_brings_link_back() {
        let mut mon = monitor();
        let mut out = Vec::new();
        for r in 0..7 {
            mon.on_tick(SimTime::from_millis(r * 100), &mut out);
        }
        assert!(!mon.link_up(0));
        // The last outstanding hello finally gets acked.
        let seq = out
            .iter()
            .rev()
            .find_map(|a| match a {
                ConnAction::Send {
                    link: 0,
                    msg: Control::Hello { seq, .. },
                } => Some(*seq),
                _ => None,
            })
            .unwrap();
        let mut out = Vec::new();
        mon.on_hello_ack(
            SimTime::from_millis(720),
            0,
            seq,
            SimTime::from_millis(600),
            &mut out,
        );
        assert!(mon.link_up(0));
        assert!(out.iter().any(|a| matches!(a, ConnAction::TopologyChanged)));
    }

    #[test]
    fn lsa_flooding_accepts_newer_rejects_stale() {
        let mut mon = monitor();
        let v0 = mon.version();
        let lsa1 = Lsa {
            origin: NodeId(1),
            seq: 1,
            links: Arc::new([LinkAdvert {
                edge: EdgeId(1),
                up: true,
                latency_ms: 10.0,
                loss: 0.0,
            }]),
        };
        let mut out = Vec::new();
        mon.on_lsa(SimTime::ZERO, lsa1.clone(), Some(0), &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            ConnAction::Flood { except: Some(0), msg: Control::Lsa(l) } if l.origin == NodeId(1)
        )));
        assert!(mon.version() > v0);

        // Same seq again: ignored entirely.
        let mut out = Vec::new();
        mon.on_lsa(SimTime::ZERO, lsa1, Some(1), &mut out);
        assert!(out.is_empty());

        // Newer seq with identical content: flooded but no topology change.
        let lsa2 = Lsa {
            origin: NodeId(1),
            seq: 2,
            links: Arc::new([LinkAdvert {
                edge: EdgeId(1),
                up: true,
                latency_ms: 10.0,
                loss: 0.0,
            }]),
        };
        let v1 = mon.version();
        let mut out = Vec::new();
        mon.on_lsa(SimTime::ZERO, lsa2, Some(0), &mut out);
        assert!(out.iter().any(|a| matches!(a, ConnAction::Flood { .. })));
        assert!(!out.iter().any(|a| matches!(a, ConnAction::TopologyChanged)));
        assert_eq!(mon.version(), v1);
    }

    #[test]
    fn evicted_origin_rejects_stale_floods_but_accepts_newer() {
        let mut mon = monitor();
        let lsa = changed_lsa(1, 5, 10.0);
        let mut out = Vec::new();
        mon.on_lsa(SimTime::ZERO, lsa.clone(), Some(0), &mut out);
        assert_eq!(mon.lsdb_len(), 2);

        let v0 = mon.version();
        let mut out = Vec::new();
        mon.evict_origin(NodeId(1), SimTime::from_secs(1), &mut out);
        assert_eq!(mon.lsdb_len(), 1);
        assert!(mon.version() > v0);
        assert!(out.iter().any(|a| matches!(a, ConnAction::TopologyChanged)));

        // Evicting again is a no-op.
        let mut out = Vec::new();
        mon.evict_origin(NodeId(1), SimTime::from_secs(1), &mut out);
        assert!(out.is_empty());

        // A stale circulating copy of the evicted LSA is rejected.
        let mut out = Vec::new();
        mon.on_lsa(SimTime::from_secs(2), lsa, Some(1), &mut out);
        assert!(out.is_empty(), "stale flood resurrected an evicted origin");
        assert_eq!(mon.lsdb_len(), 1);

        // A newer seq (the origin came back) clears the tombstone.
        let mut out = Vec::new();
        mon.on_lsa(
            SimTime::from_secs(3),
            changed_lsa(1, 6, 10.0),
            Some(0),
            &mut out,
        );
        assert_eq!(mon.lsdb_len(), 2);
        assert!(out.iter().any(|a| matches!(a, ConnAction::Flood { .. })));
    }

    #[test]
    fn tombstone_expires_after_ttl() {
        let mut mon = monitor();
        let lsa = changed_lsa(1, 5, 10.0);
        let mut out = Vec::new();
        mon.on_lsa(SimTime::ZERO, lsa.clone(), Some(0), &mut out);
        mon.evict_origin(NodeId(1), SimTime::from_secs(1), &mut out);
        // Past the TTL even the same-seq advertisement is accepted again
        // (daemons without retained state restart their seq counter).
        let mut out = Vec::new();
        mon.on_lsa(SimTime::from_secs(20), lsa, Some(0), &mut out);
        assert_eq!(mon.lsdb_len(), 2);
    }

    #[test]
    fn withdrawal_advertises_all_links_down_and_restores() {
        let mut mon = monitor();
        let v0 = mon.version();
        let mut out = Vec::new();
        mon.set_withdrawn(true, &mut out);
        let lsa = out
            .iter()
            .find_map(|a| match a {
                ConnAction::Flood {
                    msg: Control::Lsa(l),
                    ..
                } => Some(l.clone()),
                _ => None,
            })
            .expect("withdrawal floods an LSA");
        assert!(lsa.links.iter().all(|l| !l.up));
        assert!(mon.version() > v0);

        // Setting it again is a no-op; clearing restores the true state.
        let mut out = Vec::new();
        mon.set_withdrawn(true, &mut out);
        assert!(out.is_empty());
        let mut out = Vec::new();
        mon.set_withdrawn(false, &mut out);
        let lsa = out
            .iter()
            .find_map(|a| match a {
                ConnAction::Flood {
                    msg: Control::Lsa(l),
                    ..
                } => Some(l.clone()),
                _ => None,
            })
            .expect("restore floods an LSA");
        assert!(lsa.links.iter().all(|l| l.up));
    }

    fn changed_lsa(origin: usize, seq: u64, latency_ms: f64) -> Lsa {
        Lsa {
            origin: NodeId(origin),
            seq,
            links: Arc::new([LinkAdvert {
                edge: EdgeId(1),
                up: true,
                latency_ms,
                loss: 0.0,
            }]),
        }
    }

    /// The monitor is also fed by the sim leg, where no byte decoder stands
    /// in front of it: a forged measurement is dropped here too, before it
    /// can reach a route weight (`+inf` used to panic the next rebuild).
    #[test]
    fn forged_lsa_measurements_never_reach_the_lsdb() {
        let mut mon = held_monitor(0);
        let mut out = Vec::new();
        mon.on_lsa(SimTime::ZERO, changed_lsa(1, 1, 12.0), None, &mut out);
        let (stored, version) = (mon.lsdb_len(), mon.version());
        let before = mon.snapshot();
        for (seq, latency_ms) in [(2, f64::INFINITY), (3, f64::NAN), (4, -3.0), (5, 1e300)] {
            out.clear();
            mon.on_lsa(
                SimTime::ZERO,
                changed_lsa(1, seq, latency_ms),
                None,
                &mut out,
            );
            assert!(out.is_empty(), "latency {latency_ms} was flooded on");
        }
        let mut lossy = changed_lsa(2, 1, 10.0);
        lossy.links = lossy
            .links
            .iter()
            .map(|&ad| LinkAdvert { loss: 7.0, ..ad })
            .collect();
        mon.on_lsa(SimTime::ZERO, lossy, None, &mut out);
        assert!(out.is_empty());
        assert_eq!((mon.lsdb_len(), mon.version()), (stored, version));
        assert!(Arc::ptr_eq(&before, &mon.snapshot()), "no rebuild either");
    }

    fn held_monitor(hold_ms: u64) -> ConnectivityMonitor {
        let config = ConnectivityConfig {
            rebuild_hold_down: SimDuration::from_millis(hold_ms),
            ..ConnectivityConfig::default()
        };
        ConnectivityMonitor::new(
            NodeId(0),
            topo3(),
            vec![(EdgeId(0), 2, 10.0), (EdgeId(2), 2, 10.0)],
            config,
        )
    }

    #[test]
    fn hold_down_coalesces_an_lsa_burst_into_one_rebuild() {
        let mut mon = held_monitor(250);
        let v0 = mon.version();
        // A burst of 10 distinct changed LSAs 10ms apart: none recomputes.
        for i in 0..10 {
            let mut out = Vec::new();
            mon.on_lsa(
                SimTime::from_millis(i * 10),
                changed_lsa((1 + i % 2) as usize, 1 + i / 2, 5.0 + i as f64),
                Some(0),
                &mut out,
            );
            assert!(
                !out.iter().any(|a| matches!(a, ConnAction::TopologyChanged)),
                "LSA {i} recomputed during hold-down"
            );
        }
        assert_eq!(mon.version(), v0);
        // A tick inside the quiesce window still holds...
        let mut out = Vec::new();
        mon.on_tick(SimTime::from_millis(200), &mut out);
        assert!(!out.iter().any(|a| matches!(a, ConnAction::TopologyChanged)));
        // ...and one past it flushes exactly one rebuild.
        let mut out = Vec::new();
        mon.on_tick(SimTime::from_millis(400), &mut out);
        assert_eq!(
            out.iter()
                .filter(|a| matches!(a, ConnAction::TopologyChanged))
                .count(),
            1
        );
        assert_eq!(mon.version(), v0 + 1);
        // Nothing pending afterwards: the next tick stays quiet.
        let mut out = Vec::new();
        mon.on_tick(SimTime::from_millis(500), &mut out);
        assert!(!out.iter().any(|a| matches!(a, ConnAction::TopologyChanged)));
    }

    #[test]
    fn hold_down_flushes_under_sustained_churn() {
        let mut mon = held_monitor(250);
        let v0 = mon.version();
        // Changed LSAs every 100ms forever: quiesce never happens, but the
        // 4x bound forces a rebuild within 1s of the first deferral.
        let mut flushed_at = None;
        for i in 0..15u64 {
            let now = SimTime::from_millis(i * 100);
            let mut out = Vec::new();
            mon.on_lsa(now, changed_lsa(1, i + 1, i as f64), Some(0), &mut out);
            mon.on_tick(now, &mut out);
            if out.iter().any(|a| matches!(a, ConnAction::TopologyChanged)) {
                flushed_at = Some(now);
                break;
            }
        }
        let at = flushed_at.expect("sustained churn starved the rebuild");
        assert!(
            at <= SimTime::from_millis(1000),
            "forced flush too late: {at:?}"
        );
        assert_eq!(mon.version(), v0 + 1);
    }

    #[test]
    fn local_origination_absorbs_pending_remote_changes() {
        let mut mon = held_monitor(250);
        let v0 = mon.version();
        let mut out = Vec::new();
        mon.on_lsa(
            SimTime::from_millis(10),
            changed_lsa(1, 1, 5.0),
            Some(0),
            &mut out,
        );
        assert!(!out.iter().any(|a| matches!(a, ConnAction::TopologyChanged)));
        // A local link change recomputes immediately and covers the pending
        // remote change (the rebuild reads the whole LSDB).
        let mut out = Vec::new();
        mon.suspend_link(0, &mut out);
        assert!(out.iter().any(|a| matches!(a, ConnAction::TopologyChanged)));
        assert_eq!(mon.version(), v0 + 1);
        // No second, redundant flush later.
        let mut out = Vec::new();
        mon.on_tick(SimTime::from_millis(400), &mut out);
        assert!(!out.iter().any(|a| matches!(a, ConnAction::TopologyChanged)));
    }

    #[test]
    fn current_graph_excludes_links_any_side_reports_down() {
        let mut mon = monitor();
        let mut out = Vec::new();
        mon.on_lsa(
            SimTime::ZERO,
            Lsa {
                origin: NodeId(1),
                seq: 1,
                links: Arc::new([
                    LinkAdvert {
                        edge: EdgeId(0),
                        up: false,
                        latency_ms: 10.0,
                        loss: 0.0,
                    },
                    LinkAdvert {
                        edge: EdgeId(1),
                        up: true,
                        latency_ms: 10.0,
                        loss: 0.0,
                    },
                ]),
            },
            None,
            &mut out,
        );
        let g = mon.current_graph();
        // Edge 0 reported down by node 1 -> effectively unusable.
        assert!(g.weight(EdgeId(0)) > 1e9);
        // Edge 1 is normal.
        assert!(g.weight(EdgeId(1)) < 100.0);
    }

    #[test]
    fn current_graph_penalizes_lossy_links() {
        let mut mon = monitor();
        let mut out = Vec::new();
        mon.on_lsa(
            SimTime::ZERO,
            Lsa {
                origin: NodeId(1),
                seq: 1,
                links: Arc::new([LinkAdvert {
                    edge: EdgeId(1),
                    up: true,
                    latency_ms: 10.0,
                    loss: 0.5,
                }]),
            },
            None,
            &mut out,
        );
        let g = mon.current_graph();
        assert!((g.weight(EdgeId(1)) - 20.0).abs() < 1e-6, "10ms / (1-0.5)");
    }

    #[test]
    fn lsa_for_an_edge_outside_the_topology_is_ignored() {
        let honest = LinkAdvert {
            edge: EdgeId(1),
            up: true,
            latency_ms: 14.0,
            loss: 0.1,
        };
        let forged = |edge| LinkAdvert {
            edge: EdgeId(edge),
            up: false,
            latency_ms: 1.0,
            loss: 0.0,
        };
        let weights_after = |links: Vec<LinkAdvert>| {
            let mut mon = monitor();
            let mut out = Vec::new();
            let lsa = Lsa {
                origin: NodeId(1),
                seq: 1,
                links: links.into(),
            };
            mon.on_lsa(SimTime::ZERO, lsa.clone(), Some(0), &mut out);
            assert!(
                out.contains(&ConnAction::Flood {
                    except: Some(0),
                    msg: Control::Lsa(lsa),
                }),
                "the LSA floods on whatever it names"
            );
            let snap = mon.snapshot();
            let reference = mon.current_graph();
            topo3()
                .edges()
                .map(|e| {
                    assert_eq!(snap.weight(e).to_bits(), reference.weight(e).to_bits());
                    snap.weight(e).to_bits()
                })
                .collect::<Vec<u64>>()
        };
        let clean = weights_after(vec![honest]);
        let first_absent = topo3().edge_count();
        assert_eq!(
            weights_after(vec![forged(first_absent), honest, forged(usize::MAX)]),
            clean
        );
    }

    /// Node ids are 32 bits on the wire; the LSDB is as large as the
    /// configured topology and no larger, whatever origins a peer invents.
    #[test]
    fn lsa_from_an_origin_outside_the_topology_is_ignored() {
        let forged = [3, 4, u32::MAX as usize];
        // Before the table exists and after: never stored, never flooded.
        let mut mon = monitor();
        let mut out = Vec::new();
        for learned in [false, true] {
            if learned {
                mon.on_lsa(SimTime::ZERO, changed_lsa(1, 1, 12.0), Some(0), &mut out);
                assert_eq!(mon.lsdb_len(), 2);
            }
            let (stored, version) = (mon.lsdb_len(), mon.version());
            for origin in forged {
                out.clear();
                mon.on_lsa(
                    SimTime::ZERO,
                    changed_lsa(origin, 9, 1.0),
                    Some(0),
                    &mut out,
                );
                mon.evict_origin(NodeId(origin), SimTime::ZERO, &mut out);
                assert!(out.is_empty(), "origin {origin} was acted on");
            }
            assert_eq!((mon.lsdb_len(), mon.version()), (stored, version));
        }
        // The highest configured origin is inside the bound.
        out.clear();
        mon.on_lsa(SimTime::ZERO, changed_lsa(2, 1, 12.0), Some(0), &mut out);
        assert_eq!(mon.lsdb_len(), 3);
    }

    #[test]
    fn own_lsa_echo_is_ignored() {
        let mut mon = monitor();
        let own = Lsa {
            origin: NodeId(0),
            seq: 99,
            links: Arc::new([]),
        };
        let mut out = Vec::new();
        mon.on_lsa(SimTime::ZERO, own, Some(0), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn suspension_advertises_link_down_and_release_restores_it() {
        let mut mon = monitor();
        let mut out = Vec::new();
        mon.suspend_link(0, &mut out);
        assert!(mon.is_suspended(0));
        assert!(mon.link_up(0), "hello liveness is unaffected by suspension");
        // The fresh own LSA advertises the suspended link down.
        let lsa = out
            .iter()
            .find_map(|a| match a {
                ConnAction::Flood {
                    msg: Control::Lsa(l),
                    ..
                } if l.origin == NodeId(0) => Some(l.clone()),
                _ => None,
            })
            .expect("suspension originates an LSA");
        assert!(!lsa.links[0].up);
        assert!(lsa.links[1].up);
        assert!(out.iter().any(|a| matches!(a, ConnAction::TopologyChanged)));
        // Suspending again is a no-op.
        let mut out = Vec::new();
        mon.suspend_link(0, &mut out);
        assert!(out.is_empty());
        // Release restores the true state.
        let mut out = Vec::new();
        mon.release_link(0, &mut out);
        assert!(!mon.is_suspended(0));
        let lsa = out
            .iter()
            .find_map(|a| match a {
                ConnAction::Flood {
                    msg: Control::Lsa(l),
                    ..
                } if l.origin == NodeId(0) => Some(l.clone()),
                _ => None,
            })
            .expect("release originates an LSA");
        assert!(lsa.links[0].up);
    }

    fn flapping_lsa(seq: u64, up: bool) -> Lsa {
        Lsa {
            origin: NodeId(1),
            seq,
            links: Arc::new([LinkAdvert {
                edge: EdgeId(1),
                up,
                latency_ms: 10.0,
                loss: 0.0,
            }]),
        }
    }

    #[test]
    fn oscillating_origin_is_damped_and_released_after_dwell() {
        let mut mon = monitor();
        mon.set_flap_damping(true);
        // Four content changes within the window: damped on the fourth.
        let mut reroutes = 0u32;
        let mut damped_at = None;
        for i in 0..6u64 {
            let mut out = Vec::new();
            mon.on_lsa(
                SimTime::from_millis(i * 500),
                flapping_lsa(i + 1, i % 2 == 0),
                Some(0),
                &mut out,
            );
            reroutes += out
                .iter()
                .filter(|a| matches!(a, ConnAction::TopologyChanged))
                .count() as u32;
            // Updates keep flooding onward even while damped.
            assert!(out.iter().any(|a| matches!(a, ConnAction::Flood { .. })));
            if let Some(ConnAction::FlapDamped { origin, changes }) = out
                .iter()
                .find(|a| matches!(a, ConnAction::FlapDamped { .. }))
            {
                assert_eq!(*origin, NodeId(1));
                assert_eq!(*changes, 4);
                damped_at = Some(i);
            }
        }
        assert_eq!(damped_at, Some(3), "damped on the threshold-th change");
        assert_eq!(reroutes, 3, "recomputation stops once damped");

        // Stable for less than the dwell: still damped, no release.
        let mut out = Vec::new();
        mon.on_tick(SimTime::from_millis(4000), &mut out);
        assert!(!out
            .iter()
            .any(|a| matches!(a, ConnAction::FlapReleased { .. })));

        // Stable past the dwell: released, and the deferred update applies.
        let mut out = Vec::new();
        mon.on_tick(SimTime::from_millis(2500 + 3100), &mut out);
        assert!(out
            .iter()
            .any(|a| matches!(a, ConnAction::FlapReleased { origin } if *origin == NodeId(1))));
        assert!(
            out.iter().any(|a| matches!(a, ConnAction::TopologyChanged)),
            "deferred update triggers recomputation on release"
        );
        // A later lone change behaves normally again.
        let mut out = Vec::new();
        mon.on_lsa(
            SimTime::from_millis(20_000),
            flapping_lsa(50, true),
            Some(0),
            &mut out,
        );
        assert!(out.iter().any(|a| matches!(a, ConnAction::TopologyChanged)));
    }

    #[test]
    fn damping_disabled_means_every_change_recomputes() {
        let mut mon = monitor();
        let mut reroutes = 0u32;
        for i in 0..6u64 {
            let mut out = Vec::new();
            mon.on_lsa(
                SimTime::from_millis(i * 500),
                flapping_lsa(i + 1, i % 2 == 0),
                Some(0),
                &mut out,
            );
            reroutes += out
                .iter()
                .filter(|a| matches!(a, ConnAction::TopologyChanged))
                .count() as u32;
        }
        assert_eq!(reroutes, 6);
    }

    #[test]
    fn periodic_refresh_refloods_own_lsa() {
        let mut mon = monitor();
        let mut out = Vec::new();
        // Default refresh is 5s; tick past it.
        for r in 0..52 {
            mon.on_tick(SimTime::from_millis(r * 100), &mut out);
        }
        let own_floods = out
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    ConnAction::Flood { msg: Control::Lsa(l), .. } if l.origin == NodeId(0)
                )
            })
            .count();
        assert!(own_floods >= 1);
    }

    /// The link-state database as a plain map, with the acceptance rules
    /// written out longhand: what the dense table is checked against.
    struct Model {
        me: NodeId,
        nodes: usize,
        hold: SimDuration,
        lsdb: HashMap<NodeId, (u64, Vec<LinkAdvert>)>,
        tombstones: HashMap<NodeId, (u64, SimTime)>,
        /// `(first, last)` arrival of the changes waiting out the hold-down.
        pending: Option<(SimTime, SimTime)>,
        topology: Graph,
        /// The weights as of the last rebuild: what a snapshot shows.
        view: Vec<u64>,
    }

    impl Model {
        fn changed(&mut self, now: SimTime, want: &mut Vec<ConnAction>) {
            if self.hold == SimDuration::ZERO {
                self.rebuild(want);
            } else {
                self.pending = Some((self.pending.map_or(now, |(first, _)| first), now));
            }
        }

        fn rebuild(&mut self, want: &mut Vec<ConnAction>) {
            self.pending = None;
            self.view = self.weight_bits();
            want.push(ConnAction::TopologyChanged);
        }

        fn on_lsa(
            &mut self,
            now: SimTime,
            lsa: &Lsa,
            except: Option<usize>,
            want: &mut Vec<ConnAction>,
        ) {
            if lsa.origin == self.me
                || lsa.origin.0 >= self.nodes
                || !lsa.links.iter().all(LinkAdvert::is_well_formed)
            {
                return;
            }
            if let Some(&(seq, at)) = self.tombstones.get(&lsa.origin) {
                if lsa.seq <= seq && now.saturating_since(at) < TOMBSTONE_TTL {
                    return;
                }
                self.tombstones.remove(&lsa.origin);
            }
            let prev = self.lsdb.get(&lsa.origin);
            if prev.is_some_and(|&(seq, _)| lsa.seq <= seq) {
                return;
            }
            let changed = prev.is_none_or(|(_, links)| links[..] != lsa.links[..]);
            self.lsdb.insert(lsa.origin, (lsa.seq, lsa.links.to_vec()));
            want.push(ConnAction::Flood {
                except,
                msg: Control::Lsa(lsa.clone()),
            });
            if changed {
                self.changed(now, want);
            }
        }

        fn evict(&mut self, origin: NodeId, now: SimTime, want: &mut Vec<ConnAction>) {
            if origin == self.me {
                return;
            }
            if let Some((seq, _)) = self.lsdb.remove(&origin) {
                self.tombstones.insert(origin, (seq, now));
                self.rebuild(want);
            }
        }

        /// Our own LSA is an input here (the link monitors that produce it
        /// are not modelled): the next sequence number, a rebuild iff the
        /// adverts moved.
        fn own_flood(&mut self, lsa: &Lsa, want: &mut Vec<ConnAction>) {
            let (seq, links) = &self.lsdb[&self.me];
            assert_eq!(lsa.seq, seq + 1);
            let changed = links[..] != lsa.links[..];
            self.lsdb.insert(self.me, (lsa.seq, lsa.links.to_vec()));
            want.push(ConnAction::Flood {
                except: None,
                msg: Control::Lsa(lsa.clone()),
            });
            if changed {
                self.rebuild(want);
            }
        }

        fn tick_flush(&mut self, now: SimTime, want: &mut Vec<ConnAction>) {
            if let Some((first, last)) = self.pending {
                if now.saturating_since(last) >= self.hold
                    || now.saturating_since(first) >= self.hold * 4
                {
                    self.rebuild(want);
                }
            }
        }

        fn weight_bits(&self) -> Vec<u64> {
            let topology = &self.topology;
            // Three or more adverts for one edge (only forgers manage that)
            // sum to the last bit in the order they are added: ours, then
            // by origin.
            let mut origins: Vec<&NodeId> = self.lsdb.keys().collect();
            origins.sort_by_key(|&&origin| (origin != self.me, origin));
            topology
                .edges()
                .map(|e| {
                    let ads: Vec<&LinkAdvert> = origins
                        .iter()
                        .flat_map(|origin| &self.lsdb[origin].1)
                        .filter(|ad| ad.edge == e)
                        .collect();
                    let n = ads.len() as f64;
                    let weight = if ads.is_empty() {
                        topology.weight(e)
                    } else if ads.iter().any(|ad| !ad.up) {
                        DOWN_WEIGHT
                    } else {
                        let latency = ads.iter().map(|ad| ad.latency_ms).sum::<f64>() / n;
                        let loss = ads.iter().map(|ad| ad.loss).sum::<f64>() / n;
                        (latency / (1.0 - loss.clamp(0.0, 0.99))).max(0.01)
                    };
                    weight.to_bits()
                })
                .collect()
        }
    }

    /// What `out` says about the LSDB: everything but the hello probes and
    /// provider switches of the (unmodelled) link monitors.
    fn lsdb_actions(out: Vec<ConnAction>) -> Vec<ConnAction> {
        out.into_iter()
            .filter(|a| {
                !matches!(
                    a,
                    ConnAction::Send { .. } | ConnAction::SwitchProvider { .. }
                )
            })
            .collect()
    }

    proptest! {
        /// Any interleaving of remote LSAs (fresh, stale, repeated, forged
        /// in origin or in value), own originations, evictions and ticks
        /// (hello timeouts take our links down; tombstones expire) leaves
        /// the dense table holding what the map model holds, having asked
        /// for the same floods and rebuilds in the same order, with a
        /// reference graph that is bit for bit the model's weights and a
        /// snapshot that is bit for bit the model's at its last rebuild.
        /// (`proptest!` supplies the `#[test]`.)
        fn dense_lsdb_equals_the_map_model(
            held in any::<bool>(),
            ops in proptest::collection::vec(
                (0u8..10, 0usize..6, 1u64..6, 0u64..4000, (0u8..5, 0u8..3, 0u8..4)),
                1..60,
            ),
        ) {
            let topo = topo3();
            let hold_ms = if held { 250 } else { 0 };
            let mut mon = held_monitor(hold_ms);
            let mut model = Model {
                me: NodeId(0),
                nodes: topo.node_count(),
                hold: SimDuration::from_millis(hold_ms),
                lsdb: HashMap::from([(NodeId(0), (mon.own_seq, mon.own.to_vec()))]),
                tombstones: HashMap::new(),
                pending: None,
                topology: topo.clone(),
                view: Vec::new(),
            };
            // A snapshot is built when first asked for: ask now, as a daemon
            // does when it installs its first routes.
            model.view = model.weight_bits();
            drop(mon.snapshot());
            let mut now = SimTime::ZERO;
            for (kind, origin, seq, advance_ms, (latency, loss, shape)) in ops {
                now += SimDuration::from_millis(advance_ms);
                let (mut out, mut want) = (Vec::new(), Vec::new());
                match kind {
                    0..=5 => {
                        let advert = |edge| LinkAdvert {
                            edge: EdgeId(edge),
                            up: shape != 3,
                            // One value in five is one no correct node sends.
                            latency_ms: [5.0, 7.25, 12.0, 30.0, f64::INFINITY][latency as usize],
                            loss: [0.0, 0.02, 0.5][loss as usize],
                        };
                        let lsa = Lsa {
                            origin: NodeId(origin),
                            seq,
                            links: (0..shape as usize % 3).map(|k| advert(origin + k)).collect(),
                        };
                        let except = Some(origin % 2);
                        model.on_lsa(now, &lsa, except, &mut want);
                        mon.on_lsa(now, lsa, except, &mut out);
                    }
                    6 => {
                        model.evict(NodeId(origin), now, &mut want);
                        mon.evict_origin(NodeId(origin), now, &mut out);
                    }
                    7 => {
                        mon.originate(None, &mut out);
                        out = lsdb_actions(out);
                        let Some(ConnAction::Flood { msg: Control::Lsa(own), .. }) = out.first()
                        else {
                            panic!("originate floods first: {out:?}");
                        };
                        model.own_flood(own, &mut want);
                    }
                    _ => {
                        mon.on_tick(now, &mut out);
                        out = lsdb_actions(out);
                        if let Some(ConnAction::Flood { msg: Control::Lsa(own), .. }) = out.first()
                        {
                            model.own_flood(own, &mut want);
                        }
                        model.tick_flush(now, &mut want);
                    }
                }
                prop_assert_eq!(&out, &want, "kind {} at {:?}", kind, now);
                prop_assert_eq!(mon.lsdb_len(), model.lsdb.len());
                let (snap, reference) = (mon.snapshot(), mon.current_graph());
                let bits = |weight: &dyn Fn(EdgeId) -> f64| -> Vec<u64> {
                    topo.edges().map(|e| weight(e).to_bits()).collect()
                };
                prop_assert_eq!(bits(&|e| reference.weight(e)), model.weight_bits(), "live");
                prop_assert_eq!(bits(&|e| snap.weight(e)), model.view.clone(), "snapshot");
            }
        }
    }
}
