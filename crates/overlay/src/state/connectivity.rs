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

use crate::packet::{Adverts, Control, LinkAdvert, Lsa};

/// Configuration of the connectivity monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// Hello seqs sent but not yet acked, with when they were sent: in
    /// increasing seq order, since this process mints them in that order,
    /// so an ack finds its probe by binary search.
    outstanding: VecDeque<(u64, SimTime)>,
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

/// The link-state table: per remote origin, the adverts of the newest LSA
/// accepted from it — the flooded allocation itself, shared with every
/// co-located daemon that accepted the same LSA — and that LSA's sequence
/// number. An origin with nothing stored reads as its configured default
/// unless it was evicted (see [`ConnectivityMonitor`]'s
/// `for_each_believed`).
///
/// A daemon stores only the origins whose LSAs reached it, and a cold start
/// floods none, so the table is paged: origins come in pages of [`PAGE`],
/// and a page is allocated when the first of its origins is stored. Empty
/// until the first remote LSA is accepted, then one page slot per `PAGE`
/// nodes of the configured topology. A daemon that heard k origins holds
/// the slots and at most k pages; a full table costs an 8-byte handle and a
/// 32-bit seq per origin plus one slot per page. A correct origin refreshes
/// every 5 s, so its seq stays far below `u32::MAX`; a larger one (a forged
/// LSA's, say) is kept whole in `spilled`, and every comparison is on the
/// full `u64`.
#[derive(Debug, Default)]
struct Lsdb {
    /// One slot per `PAGE` origins; `None` means nothing in it is stored.
    pages: Vec<Option<Box<Page>>>,
    /// The seqs that do not fit in `Page::seqs`, by origin.
    spilled: HashMap<NodeId, u64>,
}

/// Origins per [`Lsdb`] page.
const PAGE: usize = 32;

/// The entries of `PAGE` consecutive origins, the first a multiple of `PAGE`.
#[derive(Debug, Default)]
struct Page {
    /// The stored adverts per origin; `None` means nothing is stored.
    adverts: [Option<Adverts>; PAGE],
    /// The stored seq per origin, or [`SEQ_SPILLED`]. Meaningless where
    /// nothing is stored.
    seqs: [u32; PAGE],
}

/// The `Page::seqs` value that says the seq is in `Lsdb::spilled`.
const SEQ_SPILLED: u32 = u32::MAX;

const _: () = assert!(size_of::<Page>() <= 12 * PAGE);

impl Lsdb {
    /// Sizes the page slots for `nodes` origins, none of them stored.
    fn size(&mut self, nodes: usize) {
        self.pages.resize_with(nodes.div_ceil(PAGE), || None);
    }

    /// The page of origins `index * PAGE ..`, if any of them is stored.
    fn page(&self, index: usize) -> Option<&Page> {
        self.pages.get(index)?.as_deref()
    }

    /// The adverts stored for `origin`, if any.
    fn adverts(&self, origin: NodeId) -> Option<&Adverts> {
        self.page(origin.0 / PAGE)?.adverts[origin.0 % PAGE].as_ref()
    }

    /// The seq and adverts stored for `origin`, if any.
    fn get(&self, origin: NodeId) -> Option<(u64, &Adverts)> {
        let page = self.page(origin.0 / PAGE)?;
        let adverts = page.adverts[origin.0 % PAGE].as_ref()?;
        let seq = match page.seqs[origin.0 % PAGE] {
            SEQ_SPILLED => self.spilled[&origin],
            seq => u64::from(seq),
        };
        Some((seq, adverts))
    }

    /// Every stored advert list, by origin.
    fn stored(&self) -> impl Iterator<Item = &Adverts> {
        self.pages
            .iter()
            .flatten()
            .flat_map(|page| page.adverts.iter().flatten())
    }

    /// Stores `seq` for `origin`, and `adverts` unless they are `None`
    /// (the stored ones did not change), allocating the origin's page on
    /// its first store. The slots must be sized.
    fn store(&mut self, origin: NodeId, seq: u64, adverts: Option<Adverts>) {
        let page = self.pages[origin.0 / PAGE].get_or_insert_with(Box::default);
        let slot = origin.0 % PAGE;
        if page.seqs[slot] == SEQ_SPILLED {
            self.spilled.remove(&origin);
        }
        page.seqs[slot] = match u32::try_from(seq) {
            Ok(seq) if seq != SEQ_SPILLED => seq,
            _ => {
                self.spilled.insert(origin, seq);
                SEQ_SPILLED
            }
        };
        if adverts.is_some() {
            page.adverts[slot] = adverts;
        }
    }

    /// Removes what is stored for `origin`, returning its seq. (Its page
    /// stays: the origin is likely to be heard from again.)
    fn evict(&mut self, origin: NodeId) -> Option<u64> {
        let (seq, _) = self.get(origin)?;
        let page = self.pages[origin.0 / PAGE].as_mut()?;
        let slot = origin.0 % PAGE;
        page.adverts[slot] = None;
        if page.seqs[slot] == SEQ_SPILLED {
            self.spilled.remove(&origin);
        }
        Some(seq)
    }

    /// Heap bytes of the slots and the allocated pages.
    fn table_bytes(&self) -> usize {
        son_obs::footprint::vec_bytes(&self.pages)
            + self.pages.iter().flatten().count() * size_of::<Page>()
    }
}

/// The per-node connectivity monitor and link-state database.
#[derive(Debug)]
pub struct ConnectivityMonitor {
    me: NodeId,
    config: ConnectivityConfig,
    links: Vec<LinkMonitor>,
    /// Our own latest advertisement.
    own: Adverts,
    /// Latest LSA accepted per remote origin.
    lsdb: Lsdb,
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
    /// Evicted-origin tombstones: `origin -> (last evicted seq, when)`,
    /// the seq 0 for an origin evicted before anything was heard from it.
    /// Copies of an evicted origin's LSA keep circulating for a while
    /// (every node refloods on first sight); the tombstone rejects those
    /// stale floods so eviction sticks, while a genuinely newer seq (the
    /// origin restarted) clears it. It also keeps an evicted origin from
    /// reading as its configured default, past its TTL too: only an LSA
    /// removes it.
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
                outstanding: VecDeque::new(),
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
            lsdb: Lsdb::default(),
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
    fn stored_adverts(&self) -> impl Iterator<Item = &Adverts> {
        std::iter::once(&self.own).chain(self.lsdb.stored())
    }

    /// The configured default advert of `origin`: what its first LSA says
    /// when its links start as configured — every incident edge, in
    /// topology order, up at its configured latency (quantized as
    /// [`own_adverts`] does) and without loss. Built from the shared
    /// topology on the fly, never stored.
    fn default_adverts(&self, origin: NodeId) -> impl Iterator<Item = LinkAdvert> + '_ {
        self.topology.neighbors(origin).map(|(_, edge)| LinkAdvert {
            edge,
            up: true,
            latency_ms: quantize_latency(self.topology.weight(edge)),
            loss: 0.0,
        })
    }

    /// Whether `origin` reads as its configured default: a remote origin
    /// of the topology with nothing stored and no tombstone.
    fn reads_as_default(&self, origin: NodeId) -> bool {
        origin != self.me
            && origin.0 < self.topology.node_count()
            && self.lsdb.adverts(origin).is_none()
            && !self.tombstones.contains_key(&origin)
    }

    /// Visits every advert this daemon believes, in the order the weight
    /// rule adds them: our own, then each remote origin's by origin — what
    /// is stored, or the configured default of an origin never heard from
    /// and never evicted. A cold start floods nothing its configuration
    /// already says, so the unheard default is most of the view, and the
    /// walk goes page by page: an absent page stores none of its origins.
    /// (A visitor rather than an iterator: a rebuild visits every origin,
    /// and the chained per-origin iterators cost several times the loop.)
    fn for_each_believed(&self, mut visit: impl FnMut(LinkAdvert)) {
        self.own.iter().copied().for_each(&mut visit);
        let nodes = self.topology.node_count();
        for first in (0..nodes).step_by(PAGE) {
            let page = self.lsdb.page(first / PAGE);
            for origin in (first..nodes.min(first + PAGE)).map(NodeId) {
                if origin == self.me {
                    continue;
                }
                match page.and_then(|page| page.adverts[origin.0 % PAGE].as_ref()) {
                    Some(links) => links.iter().copied().for_each(&mut visit),
                    // (An empty map answers without hashing the key.)
                    None if !self.tombstones.contains_key(&origin) => {
                        self.default_adverts(origin).for_each(&mut visit);
                    }
                    None => {}
                }
            }
        }
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
        self.for_each_believed(|ad| {
            if let Some(v) = votes.get_mut(ad.edge.0) {
                v.any_down |= !ad.up;
                v.latency_sum += ad.latency_ms;
                v.loss_sum += ad.loss;
                v.adverts += 1;
            }
        });
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

    /// Number of origins whose advert this daemon knows, our own
    /// included: stored, or never heard from and never evicted (read as
    /// the configured default). Every origin of the topology but the
    /// evicted ones.
    #[must_use]
    pub fn lsdb_len(&self) -> usize {
        // A tombstone names a remote origin of the topology with nothing
        // stored: eviction makes one, and only an accepted LSA removes it.
        self.topology.node_count() - self.tombstones.len()
    }

    /// The adverts stored for `origin` (our own included), if any: the
    /// shared allocation itself, so a harness can tell a copy from a share.
    /// `None` for an origin never heard from (it reads as its configured
    /// default) or evicted.
    #[must_use]
    pub fn adverts_of(&self, origin: NodeId) -> Option<&Adverts> {
        if origin == self.me {
            return Some(&self.own);
        }
        self.lsdb.adverts(origin)
    }

    /// Whether this daemon believes `origin` advertises exactly `adverts`:
    /// what it stores, or the configured default of an origin never heard
    /// from. Never true of an evicted origin.
    #[must_use]
    pub fn believes(&self, origin: NodeId, adverts: &[LinkAdvert]) -> bool {
        match self.adverts_of(origin) {
            Some(held) => **held == *adverts,
            None => {
                self.reads_as_default(origin)
                    && self.default_adverts(origin).eq(adverts.iter().copied())
            }
        }
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

    /// Evicts a departed origin from the LSDB (membership-layer
    /// maintenance: the origin left or stayed down past the hold-down):
    /// its stored LSA, or the configured default it read as if nothing was
    /// heard from it. A tombstone rejects stale re-floods of the evicted
    /// advertisement for `TOMBSTONE_TTL` (10 s); a genuinely newer LSA from
    /// the origin (it came back) clears the tombstone and is accepted
    /// normally.
    pub fn evict_origin(&mut self, origin: NodeId, now: SimTime, out: &mut Vec<ConnAction>) {
        let seq = match self.lsdb.evict(origin) {
            Some(seq) => seq,
            None if self.reads_as_default(origin) => 0,
            None => return,
        };
        self.tombstones.insert(origin, (seq, now));
        self.flap.remove(&origin);
        self.bump_version(out);
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
            link.outstanding.retain(|&(_, sent)| sent > horizon);
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
            link.outstanding.push_back((seq, now));
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
        let Ok(probe) = l.outstanding.binary_search_by_key(&seq, |&(seq, _)| seq) else {
            return; // stale, duplicate or forged ack
        };
        l.outstanding.remove(probe);
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
        let evicted = if let Some(&(seq, at)) = self.tombstones.get(&origin) {
            if lsa.seq <= seq && now.saturating_since(at) < TOMBSTONE_TTL {
                return; // stale flood of an evicted origin
            }
            self.tombstones.remove(&origin);
            true
        } else {
            false
        };
        if self.lsdb.pages.is_empty() {
            // Sized by the first LSA heard, not at construction: a daemon
            // that never hears one holds no slots.
            self.lsdb.size(self.topology.node_count());
        }
        // Compared with what is believed: the stored adverts, nothing for
        // an evicted origin, and the configured default (which any seq is
        // newer than) for one never heard from.
        let (stored, changed) = match self.lsdb.get(origin) {
            Some((seq, _)) if lsa.seq <= seq => return, // not newer
            Some((_, prev)) => (
                true,
                !Adverts::ptr_eq(prev, &lsa.links) && *prev != lsa.links,
            ),
            None if evicted => (false, true),
            None => (
                false,
                !self.default_adverts(origin).eq(lsa.links.iter().copied()),
            ),
        };
        // An LSA equal to the default is stored too: left unstored, every
        // duplicate copy of it would read as newer and flood on again.
        self.lsdb.store(
            origin,
            lsa.seq,
            (changed || !stored).then(|| lsa.links.clone()),
        );
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

    /// The origination of a daemon's first start: as
    /// [`ConnectivityMonitor::originate`], but nothing is flooded (and the
    /// seq does not move) when our adverts equal our configured default.
    /// Every peer reads an origin it never heard from as exactly that, so
    /// the flood would only tell the fleet what its configuration says. A
    /// restart, a join, a refresh and every link change flood as usual.
    pub fn originate_first(&mut self, out: &mut Vec<ConnAction>) {
        let links = own_adverts(&self.links, self.withdrawn);
        if *self.own != *links || !self.default_adverts(self.me).eq(links.iter().copied()) {
            self.originate(None, out);
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
                links: self.own.clone(),
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
        // Collect advertisements per edge (an unheard origin's default
        // counts as if its LSA had arrived).
        let mut up_votes: HashMap<EdgeId, (bool, f64, f64, u32)> = HashMap::new();
        self.for_each_believed(|ad| {
            let entry = up_votes.entry(ad.edge).or_insert((true, 0.0, 0.0, 0));
            entry.0 &= ad.up;
            entry.1 += ad.latency_ms;
            entry.2 += ad.loss;
            entry.3 += 1;
        });
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

/// An advertised latency: quantized so measurement noise does not make
/// every periodic refresh look like a topology change (and trigger
/// fleet-wide recomputation).
fn quantize_latency(latency_ms: f64) -> f64 {
    (latency_ms * 4.0).round() / 4.0
}

/// What a node with these link monitors advertises about its links.
fn own_adverts(links: &[LinkMonitor], withdrawn: bool) -> Adverts {
    let advert = |l: &LinkMonitor| {
        let latency = if l.latency_ms > 0.0 {
            l.latency_ms
        } else {
            l.nominal_latency_ms
        };
        LinkAdvert {
            edge: l.edge,
            up: l.up && !l.suspended && !withdrawn,
            latency_ms: quantize_latency(latency),
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
        // `Graph::approx_bytes`), and every advert list — holder count and
        // length, then the adverts — is split among the daemons (and frames
        // in flight) that hold it.
        let snapshot = self.snapshot.as_ref().map_or(0, |(_, snap)| {
            shared_part(Arc::strong_count(snap), snap.approx_bytes())
        });
        snapshot
            + vec_bytes(&self.links)
            + self
                .links
                .iter()
                .map(|l| vecdeque_bytes(&l.outstanding))
                .sum::<usize>()
            + self.lsdb.table_bytes()
            + hashmap_bytes(&self.lsdb.spilled)
            + self
                .stored_adverts()
                .map(|links| {
                    shared_part(
                        links.holders(),
                        Adverts::HEADER_BYTES + size_of_val(&**links),
                    )
                })
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

    /// The ring 0-1-…-(n-1)-0 with 10ms links, edge `i` from `i` to `i + 1`.
    fn ring(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_edge(NodeId(i), NodeId((i + 1) % n), 10.0);
        }
        g
    }

    /// The triangle 0-1-2: node 0 has links e0 (to 1) and e2 (to 2).
    fn topo3() -> Graph {
        ring(3)
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

    /// One link's hello bookkeeping with its probes in a `HashMap`, the
    /// rules written out longhand: what the ordered ring is checked against.
    struct HelloModel {
        outstanding: HashMap<u64, SimTime>,
        next_seq: u64,
        providers: usize,
        active_provider: usize,
        misses_on_provider: u32,
        total_misses: u32,
        up: bool,
        latency_ms: f64,
        loss: f64,
        nominal_latency_ms: f64,
    }

    impl HelloModel {
        fn tick(&mut self, now: SimTime, config: &ConnectivityConfig) {
            let ack_timeout = config
                .hello_interval
                .max(SimDuration::from_millis_f64(self.nominal_latency_ms * 3.0));
            let horizon = now - ack_timeout;
            let before = self.outstanding.len();
            self.outstanding.retain(|_, &mut sent| sent > horizon);
            if self.outstanding.len() < before {
                self.loss = ewma(self.loss, 1.0);
                self.misses_on_provider += 1;
                self.total_misses += 1;
                if self.up && self.total_misses >= config.down_misses {
                    self.up = false;
                } else if self.providers > 1 && self.misses_on_provider >= ISP_SWITCH_MISSES {
                    self.active_provider = (self.active_provider + 1) % self.providers;
                    self.misses_on_provider = 0;
                }
            }
            self.next_seq += 1;
            self.outstanding.insert(self.next_seq, now);
        }

        fn ack(&mut self, now: SimTime, seq: u64, echo_sent_at: SimTime) {
            if self.outstanding.remove(&seq).is_none() {
                return;
            }
            let rtt_ms = now.saturating_since(echo_sent_at).as_millis_f64();
            self.latency_ms = ewma(self.latency_ms, (rtt_ms / 2.0).max(0.01));
            self.loss = ewma(self.loss, 0.0);
            self.misses_on_provider = 0;
            self.total_misses = 0;
            self.up = true;
        }
    }

    proptest! {
        /// Hello acks in any order — out of order, duplicate, stale (their
        /// probe timed out) and forged up to `u64::MAX` — between ticks of
        /// any spacing leave the ordered probe ring with the probes, misses,
        /// provider, loss, latency and liveness of the map model.
        /// (`proptest!` supplies the `#[test]`.)
        fn hello_ring_equals_the_map_model(
            slow in any::<bool>(),
            multihomed in any::<bool>(),
            ops in proptest::collection::vec((0u8..4, 0u64..64, 0usize..4, 0u64..400), 1..80),
        ) {
            let mut topology = Graph::new(2);
            topology.add_edge(NodeId(0), NodeId(1), 10.0);
            let nominal = if slow { 150.0 } else { 10.0 };
            let providers = if multihomed { 2 } else { 1 };
            let config = ConnectivityConfig::default();
            let mut mon = ConnectivityMonitor::new(
                NodeId(0),
                topology,
                vec![(EdgeId(0), providers, nominal)],
                config,
            );
            let mut model = HelloModel {
                outstanding: HashMap::new(),
                next_seq: 0,
                providers,
                active_provider: 0,
                misses_on_provider: 0,
                total_misses: 0,
                up: true,
                latency_ms: nominal,
                loss: 0.0,
                nominal_latency_ms: nominal,
            };
            let mut now_ms = 0;
            for (kind, pick, spacing, rtt_ms) in ops {
                let now = SimTime::from_millis(now_ms);
                if kind == 0 {
                    now_ms += [20, 100, 100, 250][spacing];
                    let now = SimTime::from_millis(now_ms);
                    mon.on_tick(now, &mut Vec::new());
                    model.tick(now, &config);
                } else {
                    let mut probes: Vec<u64> = model.outstanding.keys().copied().collect();
                    probes.sort_unstable();
                    let seq = match kind {
                        // Any probe still out, not only the oldest.
                        1 if !probes.is_empty() => probes[pick as usize % probes.len()],
                        // Any seq minted so far: acked, timed out or out.
                        1 | 2 => 1 + pick % model.next_seq.max(1),
                        // Seqs this process never minted.
                        _ => [0, model.next_seq + 1 + pick, u64::MAX - pick, u64::MAX][spacing],
                    };
                    let echo = SimTime::from_millis(now_ms.saturating_sub(rtt_ms));
                    mon.on_hello_ack(now, 0, seq, echo, &mut Vec::new());
                    model.ack(now, seq, echo);
                }
                let link = &mon.links[0];
                let ring: Vec<(u64, SimTime)> = link.outstanding.iter().copied().collect();
                let mut want: Vec<(u64, SimTime)> =
                    model.outstanding.iter().map(|(&seq, &at)| (seq, at)).collect();
                want.sort_unstable();
                prop_assert_eq!(ring, want);
                prop_assert_eq!(
                    (link.total_misses, link.misses_on_provider, link.active_provider, link.up),
                    (model.total_misses, model.misses_on_provider, model.active_provider, model.up)
                );
                prop_assert_eq!(link.loss.to_bits(), model.loss.to_bits());
                prop_assert_eq!(link.latency_ms.to_bits(), model.latency_ms.to_bits());
                prop_assert_eq!(mon.link_up(0), model.up);
            }
        }
    }

    #[test]
    fn lsa_flooding_accepts_newer_rejects_stale() {
        let mut mon = monitor();
        let v0 = mon.version();
        let lsa1 = Lsa {
            origin: NodeId(1),
            seq: 1,
            links: Adverts::from([LinkAdvert {
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
            links: Adverts::from([LinkAdvert {
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
        assert_eq!(mon.lsdb_len(), 3);

        let v0 = mon.version();
        let mut out = Vec::new();
        mon.evict_origin(NodeId(1), SimTime::from_secs(1), &mut out);
        assert_eq!(mon.lsdb_len(), 2);
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
        assert_eq!(mon.lsdb_len(), 2);

        // A newer seq (the origin came back) clears the tombstone.
        let mut out = Vec::new();
        mon.on_lsa(
            SimTime::from_secs(3),
            changed_lsa(1, 6, 10.0),
            Some(0),
            &mut out,
        );
        assert_eq!(mon.lsdb_len(), 3);
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
        assert_eq!(mon.lsdb_len(), 3);
        assert!(mon.adverts_of(NodeId(1)).is_some());
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
            links: Adverts::from([LinkAdvert {
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
        ring_monitor(3, hold_ms)
    }

    /// Node 0 of `ring(nodes)`, with two providers on each of its links.
    fn ring_monitor(nodes: usize, hold_ms: u64) -> ConnectivityMonitor {
        let config = ConnectivityConfig {
            rebuild_hold_down: SimDuration::from_millis(hold_ms),
            ..ConnectivityConfig::default()
        };
        ConnectivityMonitor::new(
            NodeId(0),
            ring(nodes),
            vec![(EdgeId(0), 2, 10.0), (EdgeId(nodes - 1), 2, 10.0)],
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
                links: Adverts::from([
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
                links: Adverts::from([LinkAdvert {
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
        // Node 2, never heard from, advertises the other end lossless.
        assert!(
            (g.weight(EdgeId(1)) - 10.0 / (1.0 - 0.25)).abs() < 1e-6,
            "10ms / (1 - mean(0.5, 0))"
        );
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
                assert!(mon.adverts_of(NodeId(1)).is_some());
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
        assert!(mon.adverts_of(NodeId(2)).is_some());
        assert_eq!(mon.lsdb_len(), 3);
    }

    #[test]
    fn own_lsa_echo_is_ignored() {
        let mut mon = monitor();
        let own = Lsa {
            origin: NodeId(0),
            seq: 99,
            links: Adverts::from([]),
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
            links: Adverts::from([LinkAdvert {
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

    fn lsa_floods(out: &[ConnAction]) -> usize {
        out.iter()
            .filter(|a| {
                matches!(
                    a,
                    ConnAction::Flood {
                        msg: Control::Lsa(_),
                        ..
                    }
                )
            })
            .count()
    }

    /// Node 0 of `topo3` with its links configured as the topology says,
    /// but for a nominal latency of its own on the first.
    fn monitor_with_nominal(first_ms: f64) -> ConnectivityMonitor {
        ConnectivityMonitor::new(
            NodeId(0),
            topo3(),
            vec![(EdgeId(0), 1, first_ms), (EdgeId(2), 1, 10.0)],
            ConnectivityConfig::default(),
        )
    }

    #[test]
    fn a_first_origination_floods_only_what_differs_from_the_default() {
        // Configured as the topology says: nothing to tell anyone.
        let mut mon = monitor_with_nominal(10.0);
        let v0 = mon.version();
        let mut out = Vec::new();
        mon.originate_first(&mut out);
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(mon.version(), v0);
        // A nominal latency the topology does not have is news.
        let mut mon = monitor_with_nominal(12.0);
        let mut out = Vec::new();
        mon.originate_first(&mut out);
        assert_eq!(lsa_floods(&out), 1);
        // So is a daemon withdrawn before it starts: the withdrawal floods,
        // and so does the start.
        let mut mon = monitor_with_nominal(10.0);
        let mut out = Vec::new();
        mon.set_withdrawn(true, &mut out);
        assert_eq!(lsa_floods(&out), 1);
        let mut out = Vec::new();
        mon.originate_first(&mut out);
        assert_eq!(lsa_floods(&out), 1);
        let Some(ConnAction::Flood {
            msg: Control::Lsa(lsa),
            ..
        }) = out.first()
        else {
            panic!("{out:?}");
        };
        assert!(lsa.links.iter().all(|ad| !ad.up));
        // Every later origination floods, default-equal or not.
        let mut mon = monitor_with_nominal(10.0);
        let mut out = Vec::new();
        mon.originate_first(&mut out);
        mon.originate(None, &mut out);
        assert_eq!(lsa_floods(&out), 1);
    }

    /// The configured default of node `origin` of `topo3`, as an LSA.
    fn default_lsa(origin: usize, seq: u64) -> Lsa {
        let topo = topo3();
        Lsa {
            origin: NodeId(origin),
            seq,
            links: topo
                .neighbors(NodeId(origin))
                .map(|(_, edge)| LinkAdvert {
                    edge,
                    up: true,
                    latency_ms: 10.0,
                    loss: 0.0,
                })
                .collect(),
        }
    }

    #[test]
    fn an_evicted_origin_never_reads_as_its_default() {
        let mut mon = monitor();
        let default = default_lsa(1, 1);
        assert!(
            mon.believes(NodeId(1), &default.links),
            "unheard reads as default"
        );
        assert_eq!(mon.lsdb_len(), 3);
        let v0 = mon.version();
        // Evicting an origin never heard from removes its default.
        let mut out = Vec::new();
        mon.evict_origin(NodeId(1), SimTime::from_secs(1), &mut out);
        assert_eq!(out, vec![ConnAction::TopologyChanged]);
        assert!(mon.version() > v0);
        for secs in [2, 11, 60] {
            mon.on_tick(SimTime::from_secs(secs), &mut Vec::new());
            assert!(!mon.believes(NodeId(1), &default.links), "at {secs}s");
            assert_eq!(mon.lsdb_len(), 2, "at {secs}s");
        }
        // Past the TTL, the default-equal LSA of the returning origin is
        // news: it restores what eviction removed.
        let v1 = mon.version();
        let mut out = Vec::new();
        mon.on_lsa(SimTime::from_secs(60), default, Some(0), &mut out);
        assert!(out.iter().any(|a| matches!(a, ConnAction::TopologyChanged)));
        assert!(mon.version() > v1);
        assert_eq!(mon.lsdb_len(), 3);
        // The same after an LSA was stored: evicted, never default again.
        let mut mon = monitor();
        let mut out = Vec::new();
        mon.on_lsa(SimTime::ZERO, changed_lsa(2, 3, 12.0), None, &mut out);
        mon.evict_origin(NodeId(2), SimTime::from_secs(1), &mut out);
        for secs in [2, 11, 60] {
            mon.on_tick(SimTime::from_secs(secs), &mut Vec::new());
            assert!(
                !mon.believes(NodeId(2), &default_lsa(2, 1).links),
                "at {secs}s"
            );
        }
    }

    proptest! {
        /// A daemon that never heard from an origin and one that accepted
        /// the origin's default LSA see the same topology: bit for bit the
        /// same snapshot weights, at the same version, whatever newer LSAs,
        /// evictions and ticks follow.
        fn an_unheard_origin_is_its_default_lsa(
            heard in proptest::collection::vec(any::<bool>(), 3),
            ops in proptest::collection::vec(
                (0u8..8, 1usize..3, 0u64..3000, (0u8..3, 0u8..3, 0u8..3)),
                0..40,
            ),
        ) {
            let (mut unheard, mut informed) = (held_monitor(0), held_monitor(0));
            for (origin, &heard) in heard.iter().enumerate().skip(1) {
                if heard {
                    let mut out = Vec::new();
                    informed.on_lsa(SimTime::ZERO, default_lsa(origin, 1), None, &mut out);
                    prop_assert!(!out.iter().any(|a| matches!(a, ConnAction::TopologyChanged)));
                }
            }
            let mut now = SimTime::ZERO;
            for (step, (kind, origin, advance_ms, (latency, loss, shape))) in ops.into_iter().enumerate() {
                now += SimDuration::from_millis(advance_ms);
                let seq = 2 + step as u64;
                for mon in [&mut unheard, &mut informed] {
                    let mut out = Vec::new();
                    match kind {
                        0..=4 => {
                            let mut lsa = default_lsa(origin, seq);
                            if shape > 0 {
                                lsa.links = lsa
                                    .links
                                    .iter()
                                    .take(shape as usize)
                                    .map(|&ad| LinkAdvert {
                                        up: kind != 4,
                                        latency_ms: [10.0, 7.25, 12.0][latency as usize],
                                        loss: [0.0, 0.02, 0.5][loss as usize],
                                        ..ad
                                    })
                                    .collect();
                            }
                            mon.on_lsa(now, lsa, None, &mut out);
                        }
                        5 => mon.evict_origin(NodeId(origin), now, &mut out),
                        _ => mon.on_tick(now, &mut out),
                    }
                }
                prop_assert_eq!(unheard.version(), informed.version(), "step {}", step);
                let (a, b) = (unheard.snapshot(), informed.snapshot());
                let bits = |snap: &TopoSnapshot| -> Vec<u64> {
                    topo3().edges().map(|e| snap.weight(e).to_bits()).collect()
                };
                prop_assert_eq!(bits(&a), bits(&b), "step {}", step);
                prop_assert_eq!(
                    bits(&TopoSnapshot::new(unheard.current_graph())),
                    bits(&a),
                    "step {}",
                    step
                );
            }
        }
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
        /// One more than the rebuilds so far.
        version: u64,
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
            self.version += 1;
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
            let evicted = self.tombstones.contains_key(&lsa.origin);
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
            let changed = match prev {
                Some((_, links)) => links[..] != lsa.links[..],
                None if evicted => true,
                None => self.default_of(lsa.origin) != lsa.links[..],
            };
            self.lsdb.insert(lsa.origin, (lsa.seq, lsa.links.to_vec()));
            want.push(ConnAction::Flood {
                except,
                msg: Control::Lsa(lsa.clone()),
            });
            if changed {
                self.changed(now, want);
            }
        }

        /// Evicting an origin never heard from removes its default.
        fn evict(&mut self, origin: NodeId, now: SimTime, want: &mut Vec<ConnAction>) {
            if origin == self.me || origin.0 >= self.nodes || self.tombstones.contains_key(&origin)
            {
                return;
            }
            let seq = self.lsdb.remove(&origin).map_or(0, |(seq, _)| seq);
            self.tombstones.insert(origin, (seq, now));
            self.rebuild(want);
        }

        /// What an origin never heard from is read as: every incident edge
        /// up at its configured weight in quarter milliseconds, lossless.
        fn default_of(&self, origin: NodeId) -> Vec<LinkAdvert> {
            self.topology
                .neighbors(origin)
                .map(|(_, edge)| LinkAdvert {
                    edge,
                    up: true,
                    latency_ms: (self.topology.weight(edge) * 4.0).round() / 4.0,
                    loss: 0.0,
                })
                .collect()
        }

        /// Every origin's believed adverts, ours first, then by origin;
        /// evicted origins have none.
        fn believed(&self) -> Vec<(NodeId, Vec<LinkAdvert>)> {
            let mut origins: Vec<NodeId> = (0..self.nodes).map(NodeId).collect();
            origins.sort_by_key(|&origin| (origin != self.me, origin));
            origins
                .into_iter()
                .filter_map(|origin| match self.lsdb.get(&origin) {
                    Some((_, links)) => Some((origin, links.clone())),
                    None if self.tombstones.contains_key(&origin) => None,
                    None => Some((origin, self.default_of(origin))),
                })
                .collect()
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
            let believed = self.believed();
            topology
                .edges()
                .map(|e| {
                    let ads: Vec<&LinkAdvert> = believed
                        .iter()
                        .flat_map(|(_, links)| links)
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
        /// Any interleaving of remote LSAs (fresh, stale, repeated, equal to
        /// the origin's configured default, forged in origin or in value,
        /// with seqs small, around `u32::MAX` and up to `u64::MAX`), own
        /// originations, evictions and ticks (hello timeouts take our links
        /// down; tombstones expire) leaves the paged table holding what the
        /// map model holds, having asked for the same floods and rebuilds in
        /// the same order, at the same version, with a reference graph that
        /// is bit for bit the model's weights and a snapshot that is bit for
        /// bit the model's at its last rebuild. The same operations run on
        /// rings of 3, 31, 32, 33 and 65 nodes — less than a page, a page
        /// short of one origin, one page, one origin past it, two pages and
        /// one origin — from origins on both sides of every page edge, the
        /// last node, and origins past it. (`proptest!` supplies the
        /// `#[test]`.)
        fn paged_lsdb_equals_the_map_model(
            held in any::<bool>(),
            ops in proptest::collection::vec(
                (0u8..10, 0usize..14, (1u64..6, 0u8..4), 0u64..4000, (0u8..5, 0u8..3, 0u8..5)),
                1..60,
            ),
        ) {
            for nodes in [3, 31, 32, 33, 65] {
                let origins = [0, 1, 2, 5, 30, 31, 32, 33, 63, 64, 65, nodes - 1, nodes, nodes + 1];
                let topo = ring(nodes);
                let hold_ms = if held { 250 } else { 0 };
                let mut mon = ring_monitor(nodes, hold_ms);
                let mut model = Model {
                    me: NodeId(0),
                    nodes,
                    hold: SimDuration::from_millis(hold_ms),
                    lsdb: HashMap::from([(NodeId(0), (mon.own_seq, mon.own.to_vec()))]),
                    tombstones: HashMap::new(),
                    pending: None,
                    topology: topo.clone(),
                    view: Vec::new(),
                    version: mon.version(),
                };
                // A snapshot is built when first asked for: ask now, as a
                // daemon does when it installs its first routes.
                model.view = model.weight_bits();
                drop(mon.snapshot());
                let mut now = SimTime::ZERO;
                for &(kind, pick, (seq, high), advance_ms, (latency, loss, shape)) in &ops {
                    let origin = origins[pick];
                    now += SimDuration::from_millis(advance_ms);
                    // Seqs the table keeps in its 32-bit column, and seqs on
                    // either side of where it stops fitting and of the top.
                    let seq = match high {
                        0 => u64::from(u32::MAX) - 3 + seq,
                        1 => u64::MAX - 5 + seq,
                        _ => seq,
                    };
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
                            // Shape 4 is the origin's configured default.
                            let links = if shape == 4 && origin < nodes {
                                model.default_of(NodeId(origin)).into()
                            } else {
                                (0..shape as usize % 3).map(|k| advert(origin + k)).collect()
                            };
                            let lsa = Lsa { origin: NodeId(origin), seq, links };
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
                    prop_assert_eq!(&out, &want, "n={} kind {} at {:?}", nodes, kind, now);
                    prop_assert_eq!(mon.lsdb_len(), model.believed().len(), "n={}", nodes);
                    for (origin, links) in model.believed() {
                        prop_assert!(mon.believes(origin, &links), "n={} {}", nodes, origin);
                    }
                    prop_assert_eq!(mon.version(), model.version, "n={}", nodes);
                    let (snap, reference) = (mon.snapshot(), mon.current_graph());
                    let bits = |weight: &dyn Fn(EdgeId) -> f64| -> Vec<u64> {
                        topo.edges().map(|e| weight(e).to_bits()).collect()
                    };
                    prop_assert_eq!(bits(&|e| reference.weight(e)), model.weight_bits(), "live n={}", nodes);
                    prop_assert_eq!(bits(&|e| snap.weight(e)), model.view.clone(), "snapshot n={}", nodes);
                }
            }
        }
    }
}
