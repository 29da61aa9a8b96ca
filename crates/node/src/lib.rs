//! # son-node — the overlay daemon over real sockets
//!
//! The same [`OverlayNode`] state machine that runs inside the deterministic
//! simulator, driven here by a wall-clock [`RealDriver`] over a real
//! [`Transport`]: UDP sockets in the `son-node` binary, a deterministic
//! in-memory virtual network in tests. Protocol code is compiled once and
//! shared — the node never learns which world it is in, because everything
//! it can observe arrives through [`son_netsim::sim::Ctx`], and every
//! frame crosses the [`son_overlay::wire`] codec in both worlds.
//!
//! ## What the driver emulates, and what it doesn't
//!
//! On loopback UDP the physical network contributes microseconds, so the
//! scenario's link characteristics are emulated by the drivers at the two
//! ends of each link, from the same seed the simulator uses. The *sender's*
//! driver decides independent loss and blackout windows, stamps the frame
//! with its `now` and puts it on the socket at once. The *receiver's* driver
//! holds the frame until that stamp plus the link's latency. A stamp later
//! than the receiver's clock counts as its `now`, so no frame is held longer
//! than one latency. What is NOT emulated is scheduling: handler execution
//! time, OS jitter, and socket batching are real. That is the point — the
//! parity experiment (`son-exp udp_parity`) checks that protocol outcomes
//! survive the move from idealized to real execution, within stated
//! tolerances.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod scenario;
pub mod transport;

use std::any::Any;
use std::collections::HashMap;
use std::io;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use son_netsim::driver::{Driver, Transport};
use son_netsim::event::{EventId, EventQueue};
use son_netsim::link::PipeId;
use son_netsim::loss::LossProcess;
use son_netsim::process::{MessageKind, Process, ProcessId, SimMessage, TimerId};
use son_netsim::rng::SimRng;
use son_netsim::sim::Ctx;
use son_netsim::stats::Counters;
use son_netsim::time::{SimDuration, SimTime};
use son_netsim::underlay::{Attachment, UEdgeId};
use son_obs::snapshot::{SnapshotProducer, EPOCH_NS};
use son_obs::{DropClass, Json};
use son_overlay::client::ClientProcess;
use son_overlay::fleet::flow_clients;
use son_overlay::{OverlayNode, Wire};
use son_topo::NodeId;

pub use scenario::{Outage, Scenario, TopoKind};
pub use transport::{UdpTransport, VnetTransport};

/// The `from` pid handed to handlers for frames that arrived off the wire:
/// the remote daemon has no local process id.
const REMOTE_SENDER: ProcessId = ProcessId(usize::MAX);

/// Streams one [`son_obs::TelemetrySnapshot`] per telemetry epoch, one JSONL
/// row per datagram, over its own best-effort UDP socket toward a collector
/// (`son-top`). Loss is acceptable by design — snapshots are seq-numbered so
/// the collector can account for gaps — and a full send buffer must never
/// stall the daemon.
#[derive(Debug)]
struct TelemetryEmitter {
    socket: std::net::UdpSocket,
    producer: SnapshotProducer,
    next_ns: u64,
}

/// Nanoseconds since the Unix epoch, right now.
#[must_use]
pub fn unix_now_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// What the driver puts in front of every wire frame on the transport: the
/// provider index (`u8`), then the sender's `now` in nanoseconds since the
/// epoch (`u64`, little-endian).
const FRAMING_BYTES: usize = 9;

/// What the run loop does with a queue entry once it is due.
#[derive(Debug)]
enum Due {
    /// Fire `pid`'s timer. The entry's [`EventId`] is the timer's id.
    Timer { pid: ProcessId, token: u64 },
    /// Hand `msg` to process `to`: a local IPC message (`pipe` is `None`)
    /// or a frame off the wire that has served its link latency (`pipe` is
    /// the in-pipe it arrived on) — the simulator's `Event::Direct` and
    /// `Event::Frame`.
    /// Boxed: a [`Wire`] is ten times the size of a timer.
    Deliver {
        from: ProcessId,
        to: ProcessId,
        pipe: Option<PipeId>,
        msg: Box<Wire>,
    },
}

/// One emulated overlay link: link `k`'s pipe ends are `PipeId(2k)`, the
/// daemon's sends, and `PipeId(2k + 1)`, its arrivals.
#[derive(Debug)]
struct LinkEnd {
    /// Overlay node id of the far end (= transport peer index).
    peer: u32,
    /// Provider index, stamped on every datagram so the receiver can
    /// attribute it to the right registered in-pipe.
    provider: u8,
    /// Emulated one-way latency (link weight + hop processing), served by
    /// the receiving end.
    latency: SimDuration,
    /// The link's loss model, drawn on sends.
    loss: LossProcess,
    /// Blackout window `[from, to)` of sends, if this link is the victim.
    outage: Option<(SimTime, SimTime)>,
}

/// The wall-clock [`Driver`]: epoch-anchored monotonic time, the
/// simulator's [`EventQueue`] read against that clock for timers, local IPC
/// and arrived frames serving their link latency, and sends that apply
/// sender-side loss and outages, then encode through the wire codec
/// straight onto the transport.
///
/// Time is frozen for the duration of one handler dispatch (the runtime
/// refreshes it between dispatches), preserving the simulator's discipline
/// that a handler observes a single consistent `now`.
#[derive(Debug)]
pub struct RealDriver<T: Transport> {
    epoch_ns: u64,
    /// One reading of the system clock and of the monotonic clock, taken
    /// together at construction: the driver's clock is the first advanced
    /// by the second, so a later step of the system clock moves nothing.
    anchor: (Instant, u64),
    now: SimTime,
    rngs: Vec<SimRng>,
    link_rng: SimRng,
    counters: Counters,
    links: Vec<LinkEnd>,
    /// Deadlines in nanoseconds since the epoch, earliest first and in
    /// scheduling order among equals.
    due: EventQueue<Due>,
    daemon: ProcessId,
    transport: T,
    /// The outgoing datagram, reused by every send.
    frame: Vec<u8>,
}

impl<T: Transport> RealDriver<T> {
    fn new(
        transport: T,
        epoch_ns: u64,
        seed: u64,
        me: NodeId,
        n_procs: usize,
        links: Vec<LinkEnd>,
    ) -> Self {
        let root = SimRng::seed(seed).fork_idx("node", me.0 as u64);
        RealDriver {
            epoch_ns,
            anchor: (Instant::now(), unix_now_ns()),
            now: SimTime::ZERO,
            rngs: (0..n_procs as u64)
                .map(|p| root.fork_idx("proc", p))
                .collect(),
            link_rng: root.fork("links"),
            counters: Counters::new(),
            links,
            due: EventQueue::new(),
            daemon: ProcessId(0),
            transport,
            frame: Vec::new(),
        }
    }

    /// Nanoseconds since the Unix epoch on the driver's clock.
    fn unix_ns(&self) -> u64 {
        let (at, unix_ns) = self.anchor;
        let elapsed = u64::try_from(at.elapsed().as_nanos()).unwrap_or(u64::MAX);
        unix_ns.saturating_add(elapsed)
    }

    /// Nanoseconds since the shared epoch (zero before it).
    fn wall_ns(&self) -> u64 {
        self.unix_ns().saturating_sub(self.epoch_ns)
    }

    /// Advances `now` to the wall clock; called between dispatches.
    fn refresh_now(&mut self) {
        self.now = SimTime::from_nanos(self.wall_ns());
    }

    fn drop_frame(&mut self, class: DropClass, is_data: bool) {
        self.counters.incr(class.label());
        if is_data {
            self.counters.incr(class.data_label());
        }
    }

    /// Schedules `due` for `delay` after the frozen `now`.
    fn schedule(&mut self, delay: SimDuration, due: Due) -> EventId {
        self.due.schedule(self.now + delay, due)
    }

    /// The earliest entry due at or before `now_ns`.
    fn pop_due(&mut self, now_ns: u64) -> Option<Due> {
        if self.next_deadline_ns()? > now_ns {
            return None;
        }
        self.due.pop().map(|(_, due)| due)
    }

    /// When the earliest entry is due, if there is one (a cancelled timer
    /// is never slept toward: the queue drops it on the way).
    fn next_deadline_ns(&mut self) -> Option<u64> {
        self.due.peek_time().map(SimTime::as_nanos)
    }

    /// The driver's counter set (deliveries, drops by class, bytes).
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }
}

impl<T: Transport> Driver<Wire> for RealDriver<T> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn rng(&mut self, pid: ProcessId) -> &mut SimRng {
        &mut self.rngs[pid.0]
    }

    fn send(&mut self, pid: ProcessId, pipe: PipeId, msg: Wire) {
        self.send_ref(pid, pipe, &msg);
    }

    /// Encodes the borrowed frame once, straight into the outgoing
    /// datagram.
    fn send_ref(&mut self, pid: ProcessId, pipe: PipeId, msg: &Wire) {
        debug_assert_eq!(pid, self.daemon, "only the daemon owns link pipes");
        debug_assert_eq!(pipe.0 % 2, 0, "process {pid} sent on an inbound pipe");
        let end = &mut self.links[pipe.0 / 2];
        let is_data = matches!(msg.kind(), MessageKind::Data { .. });
        let now = self.now;
        let dropped = if end.outage.is_some_and(|(from, to)| now >= from && now < to) {
            Some(DropClass::Down)
        } else if end.loss.drops(now, &mut self.link_rng) {
            Some(DropClass::Loss)
        } else {
            None
        };
        let (peer, provider) = (end.peer, end.provider);
        if let Some(class) = dropped {
            self.drop_frame(class, is_data);
            return;
        }
        self.frame.clear();
        self.frame.push(provider);
        self.frame.extend_from_slice(&now.as_nanos().to_le_bytes());
        son_overlay::wire::encode_into(msg, &mut self.frame)
            .expect("link frames round-trip the wire codec losslessly");
        self.counters.incr("pipe.sent");
        self.counters.add("pipe.bytes", msg.wire_size() as u64);
        if is_data {
            self.counters.incr("data.pipe.sent");
        }
        // One undeliverable datagram is that datagram's loss; the daemon
        // carries on.
        if self.transport.send_to(peer as usize, &self.frame).is_err() {
            self.counters.incr("transport.send_error");
            self.drop_frame(DropClass::NoRoute, is_data);
        }
    }

    fn send_direct(&mut self, pid: ProcessId, to: ProcessId, delay: SimDuration, msg: Wire) {
        let due = Due::Deliver {
            from: pid,
            to,
            pipe: None,
            msg: Box::new(msg),
        };
        self.schedule(delay, due);
    }

    fn set_timer(&mut self, pid: ProcessId, delay: SimDuration, token: u64) -> TimerId {
        let id = self.schedule(delay, Due::Timer { pid, token });
        TimerId::from_raw(id.as_raw())
    }

    fn cancel_timer(&mut self, _pid: ProcessId, timer: TimerId) -> bool {
        // Handles come only from `set_timer` above, so an id names a timer.
        self.due.cancel(EventId::from_raw(timer.as_raw()))
    }

    fn reverse_pipe(&self, pipe: PipeId) -> Option<PipeId> {
        // Pipe ends come in (out, in) pairs at 2k / 2k+1.
        (pipe.0 < 2 * self.links.len()).then_some(PipeId(pipe.0 ^ 1))
    }

    fn pipe_dst(&self, pipe: PipeId) -> ProcessId {
        // The far end of a real link is a remote daemon; no local pid
        // exists for it. (No overlay code path consults this on pipes.)
        let _ = pipe;
        REMOTE_SENDER
    }

    fn rebind_pipe(&mut self, _pipe: PipeId, _attachment: Attachment) {
        // No modelled underlay to rebind against.
    }

    fn pipe_route(&mut self, _pipe: PipeId) -> Option<Vec<UEdgeId>> {
        None
    }

    fn count(&mut self, name: &str) {
        self.counters.incr(name);
    }

    fn count_add(&mut self, name: &str, n: u64) {
        self.counters.add(name, n);
    }
}

/// One daemon plus its colocated clients, wired per a [`Scenario`], running
/// over any [`Transport`]. This is the whole `son-node` process in library
/// form — the binary adds only argument parsing and a UDP socket.
pub struct NodeRuntime<T: Transport> {
    driver: RealDriver<T>,
    procs: Vec<Option<Box<dyn Process<Wire>>>>,
    in_pipes: HashMap<(u32, u8), PipeId>,
    /// The shortest latency of any in-pipe: no datagram stamped at or after
    /// a pass's `now` can be due sooner after it.
    min_hold: SimDuration,
    me: NodeId,
    scenario: Scenario,
    telemetry: Option<TelemetryEmitter>,
    /// Datagrams that failed to decode (noise, truncation, version skew).
    pub decode_errors: u64,
    /// Well-formed frames from a `(peer, provider)` with no registered
    /// in-pipe.
    pub unknown_pipe: u64,
}

impl<T: Transport + std::fmt::Debug> std::fmt::Debug for NodeRuntime<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeRuntime")
            .field("me", &self.me)
            .field("scenario", &self.scenario.name)
            .field("transport", &self.driver.transport)
            .field("procs", &self.procs.len())
            .finish_non_exhaustive()
    }
}

impl<T: Transport> NodeRuntime<T> {
    /// Builds the local slice of the scenario's overlay: the daemon, its
    /// emulated link ends toward each topology neighbor, and the sender /
    /// receiver client if this node hosts one.
    ///
    /// # Panics
    ///
    /// Panics if the scenario's flow spec is invalid (callers parse the
    /// scenario first, which validates it).
    #[must_use]
    pub fn new(scenario: Scenario, me: NodeId, transport: T, epoch_ns: u64) -> NodeRuntime<T> {
        let overlay = scenario.overlay();
        let mut node = overlay.daemon(me, overlay.keys());
        let blackout = scenario.blackout();

        // One provider pipe pair per edge, out at 2k and in at 2k+1: loss
        // and outages ride on the sends, latency on the arrivals.
        let mut links = Vec::new();
        let mut in_pipes = HashMap::new();
        node.wire_topology(|e, neighbor| {
            let peer = neighbor.0 as u32;
            let (out_pipe, in_pipe) = (PipeId(2 * links.len()), PipeId(2 * links.len() + 1));
            links.push(LinkEnd {
                peer,
                provider: 0,
                latency: overlay.link_latency(e),
                loss: LossProcess::new(overlay.link_loss(e).clone()),
                outage: blackout
                    .filter(|b| b.0 == e)
                    .map(|(_, from, to)| (from, to)),
            });
            in_pipes.insert((peer, 0u8), in_pipe);
            vec![(out_pipe, in_pipe)]
        });

        let mut procs: Vec<Option<Box<dyn Process<Wire>>>> = vec![Some(Box::new(node))];
        let (ends, spec, workload) = scenario.flow();
        for (node, config) in flow_clients(0, ends, spec, workload, |_| ProcessId(0)) {
            if node == me {
                procs.push(Some(Box::new(ClientProcess::new(config))));
            }
        }

        let min_hold = links.iter().map(|l| l.latency).min();
        let min_hold = min_hold.unwrap_or(SimDuration::ZERO);
        let driver = RealDriver::new(transport, epoch_ns, scenario.seed, me, procs.len(), links);
        NodeRuntime {
            driver,
            procs,
            in_pipes,
            min_hold,
            me,
            scenario,
            telemetry: None,
            decode_errors: 0,
            unknown_pipe: 0,
        }
    }

    /// Enables snapshot streaming toward `collector` (a `host:port`), one
    /// snapshot every [`EPOCH_NS`]. The socket is connected and
    /// non-blocking: a full buffer or unreachable collector drops the
    /// snapshot instead of stalling the daemon.
    ///
    /// # Errors
    ///
    /// Returns the socket bind/connect error; an unreachable collector at
    /// *send* time is not an error.
    pub fn enable_telemetry(&mut self, collector: &str) -> io::Result<()> {
        let socket = std::net::UdpSocket::bind("0.0.0.0:0")?;
        socket.set_nonblocking(true)?;
        socket.connect(collector)?;
        self.telemetry = Some(TelemetryEmitter {
            socket,
            producer: SnapshotProducer::new(self.me.0 as u32),
            next_ns: 0,
        });
        Ok(())
    }

    /// Emits one telemetry snapshot if the epoch boundary has passed.
    fn pump_telemetry(&mut self, now_ns: u64) {
        let Some(mut tel) = self.telemetry.take() else {
            return;
        };
        if now_ns >= tel.next_ns {
            while tel.next_ns <= now_ns {
                tel.next_ns += EPOCH_NS;
            }
            let node = self.node();
            let health = node.telemetry_health();
            let snap = tel.producer.produce(
                now_ns,
                self.driver.unix_ns(),
                node.obs().registry(),
                &health,
            );
            match snap.encode() {
                Ok(datagram) => match tel.socket.send(&datagram) {
                    Ok(_) => self.driver.counters.incr("telemetry.sent"),
                    // Best-effort: the collector being gone or the buffer
                    // being full costs one snapshot, never the daemon.
                    Err(_) => self.driver.counters.incr("telemetry.send_error"),
                },
                Err(_) => self.driver.counters.incr("telemetry.encode_error"),
            }
        }
        self.telemetry = Some(tel);
    }

    fn dispatch_start(&mut self, pid: ProcessId) {
        let mut p = self.procs[pid.0].take().expect("process checked in");
        let mut ctx = Ctx::from_driver(&mut self.driver, pid);
        p.on_start(&mut ctx);
        self.procs[pid.0] = Some(p);
    }

    fn dispatch_timer(&mut self, pid: ProcessId, token: u64) {
        let mut p = self.procs[pid.0].take().expect("process checked in");
        let mut ctx = Ctx::from_driver(&mut self.driver, pid);
        p.on_timer(&mut ctx, token);
        self.procs[pid.0] = Some(p);
    }

    fn dispatch_message(
        &mut self,
        to: ProcessId,
        from: ProcessId,
        pipe: Option<PipeId>,
        msg: Wire,
    ) {
        let Some(slot) = self.procs.get_mut(to.0) else {
            return;
        };
        let Some(mut p) = slot.take() else { return };
        let mut ctx = Ctx::from_driver(&mut self.driver, to);
        p.on_message(&mut ctx, from, pipe, msg);
        self.procs[to.0] = Some(p);
    }

    /// Handles one datagram from `peer`: checks its framing, its frame and
    /// its in-pipe, then holds the frame until the sender's stamp plus the
    /// link's latency. The stamp is clamped to the clock now, so a
    /// forged or skewed future stamp is held one latency and no longer.
    fn deliver_datagram(&mut self, peer: usize, dgram: &[u8]) {
        let Some(([provider, stamp @ ..], frame)) = dgram.split_first_chunk::<FRAMING_BYTES>()
        else {
            self.decode_errors += 1;
            return;
        };
        let wire = match son_overlay::wire::decode(frame) {
            Ok(w) => w,
            Err(_) => {
                self.decode_errors += 1;
                self.driver.counters.incr("wire.decode_error");
                return;
            }
        };
        let peer32 = u32::try_from(peer).unwrap_or(u32::MAX);
        let Some(&pipe) = self.in_pipes.get(&(peer32, *provider)) else {
            self.unknown_pipe += 1;
            return;
        };
        let sent_ns = u64::from_le_bytes(*stamp).min(self.driver.wall_ns());
        let due = SimTime::from_nanos(sent_ns) + self.driver.links[pipe.0 / 2].latency;
        let deliver = Due::Deliver {
            from: REMOTE_SENDER,
            to: self.driver.daemon,
            pipe: Some(pipe),
            msg: Box::new(wire),
        };
        self.driver.due.schedule(due, deliver);
    }

    /// One pass of work at the frozen `now_ns`: take up to 64 datagrams off
    /// the transport, then dispatch every timer, local message and arrived
    /// frame due by `now_ns`. Returns whether the transport ran empty (not
    /// just out of patience with noise: see [`Transport::backlogged`]).
    fn pass(&mut self, now_ns: u64) -> io::Result<bool> {
        let mut emptied = false;
        for _ in 0..64 {
            match self.driver.transport.recv_from()? {
                Some((peer, dgram)) => self.deliver_datagram(peer, &dgram),
                None => {
                    emptied = !self.driver.transport.backlogged();
                    break;
                }
            }
        }
        while let Some(due) = self.driver.pop_due(now_ns) {
            match due {
                Due::Timer { pid, token } => self.dispatch_timer(pid, token),
                Due::Deliver {
                    from,
                    to,
                    pipe,
                    msg,
                } => {
                    if pipe.is_some() {
                        self.driver.counters.incr("pipe.delivered");
                        if matches!(msg.kind(), MessageKind::Data { .. }) {
                            self.driver.counters.incr("data.pipe.delivered");
                        }
                    }
                    self.dispatch_message(to, from, pipe, *msg);
                }
            }
        }
        Ok(emptied)
    }

    /// The next instant the loop has work even if no datagram arrives: the
    /// driver's earliest deadline, the telemetry epoch, or the horizon.
    fn next_deadline_ns(&mut self, horizon_ns: u64) -> u64 {
        let telemetry = self.telemetry.as_ref().map(|t| t.next_ns);
        [self.driver.next_deadline_ns(), telemetry]
            .into_iter()
            .flatten()
            .fold(horizon_ns, u64::min)
    }

    /// Runs the daemon: waits for the shared epoch, starts every process,
    /// then alternates one pass of work at a frozen `now` — take up to 64
    /// datagrams off the transport, dispatch everything due — with one wait
    /// until the next deadline, until the scenario's horizon.
    ///
    /// The wait watches the transport too (and returns at once while a
    /// datagram is queued) unless the pass emptied it and the next deadline
    /// is within the shortest in-pipe latency of `now`: a datagram stamped
    /// at or after `now` is due that latency later at the earliest, so
    /// reading it at the deadline is never late, and a plain sleep saves the
    /// wake-up on its arrival. Nothing fires before its due time: a wait may
    /// end early, and the next pass re-reads the clock.
    ///
    /// # Errors
    ///
    /// Returns the first fatal receive-side transport error (a closed
    /// socket). Emulated loss, remote noise and failed sends are counted
    /// loss, not errors.
    pub fn run(&mut self) -> io::Result<()> {
        loop {
            let left = self.driver.epoch_ns.saturating_sub(self.driver.unix_ns());
            if left == 0 {
                break;
            }
            std::thread::sleep(Duration::from_nanos(left));
        }
        self.driver.refresh_now();
        for pid in 0..self.procs.len() {
            self.dispatch_start(ProcessId(pid));
        }
        let horizon_ns = self.scenario.run_for_ms * 1_000_000;
        loop {
            self.driver.refresh_now();
            let now_ns = self.driver.now.as_nanos();
            if now_ns >= horizon_ns {
                return Ok(());
            }
            let emptied = self.pass(now_ns)?;
            self.pump_telemetry(now_ns);
            let next_ns = self.next_deadline_ns(horizon_ns);
            let left_ns = next_ns.saturating_sub(self.driver.wall_ns());
            if left_ns == 0 {
                continue;
            }
            self.driver.counters.incr("loop.wait");
            let left = Duration::from_nanos(left_ns);
            let readable = if emptied && next_ns <= now_ns + self.min_hold.as_nanos() {
                std::thread::sleep(left);
                false
            } else {
                self.driver.transport.wait_readable(left)?
            };
            let woke = if readable {
                "loop.wake_readable"
            } else {
                "loop.wake_deadline"
            };
            self.driver.counters.incr(woke);
        }
    }

    /// The daemon's node state machine (for post-run harvesting).
    ///
    /// # Panics
    ///
    /// Panics if called mid-dispatch (the daemon is always checked in
    /// between [`run`](Self::run) and harvesting).
    #[must_use]
    pub fn node(&self) -> &OverlayNode {
        let p = self.procs[0].as_ref().expect("daemon checked in");
        (p.as_ref() as &dyn Any)
            .downcast_ref::<OverlayNode>()
            .expect("pid 0 is the daemon")
    }

    /// Makes this daemon join the already-running cluster through
    /// `seed_peer` (a topology neighbor) instead of cold-starting as a
    /// founding member: on start it sends a Join on the seed link and
    /// originates its own LSA only once the JoinAck arrives. Call before
    /// [`run`](Self::run).
    ///
    /// # Errors
    ///
    /// Fails when the scenario does not enable membership, or when
    /// `seed_peer` is not a topology neighbor of this node.
    pub fn join_via(&mut self, seed_peer: NodeId) -> Result<(), String> {
        if !self.scenario.membership {
            return Err("--seed-peer requires a scenario with membership enabled".to_owned());
        }
        let topo = self.scenario.topology();
        let link = topo
            .neighbors(self.me)
            .position(|(n, _)| n == seed_peer)
            .ok_or_else(|| {
                format!(
                    "--seed-peer {} is not a neighbor of node {}",
                    seed_peer, self.me
                )
            })?;
        let p = self.procs[0].as_mut().expect("daemon checked in");
        (p.as_mut() as &mut dyn Any)
            .downcast_mut::<OverlayNode>()
            .expect("pid 0 is the daemon")
            .set_join_seed(link);
        Ok(())
    }

    /// The colocated clients (sender and/or receiver), if any.
    #[must_use]
    pub fn clients(&self) -> Vec<&ClientProcess> {
        self.procs[1..]
            .iter()
            .filter_map(|s| s.as_ref())
            .filter_map(|p| (p.as_ref() as &dyn Any).downcast_ref::<ClientProcess>())
            .collect()
    }

    /// The driver's counters.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        self.driver.counters()
    }

    /// This node's summary as one JSONL row (`kind:"udp-node"`): client
    /// outcomes, driver counters, and decode health. The parity harness
    /// aggregates these across the cluster.
    #[must_use]
    pub fn report(&self) -> Json {
        let mut sent = 0u64;
        let mut received = 0u64;
        let mut duplicates = 0u64;
        let mut p50_ms = Json::Null;
        let mut p90_ms = Json::Null;
        let mut max_gap_ms = Json::Null;
        let mut within_deadline = Json::Null;
        for c in self.clients() {
            sent += c.sent(1);
            if let Some(recv) = c.recv.values().next() {
                received += recv.received;
                duplicates += recv.app_duplicates;
                let mut lat = recv.latency_ms();
                if let Some(q) = lat.quantile(0.5) {
                    p50_ms = Json::F64(q);
                }
                if let Some(q) = lat.quantile(0.9) {
                    p90_ms = Json::F64(q);
                }
                if let Some(gap) = recv.longest_gap(SimTime::ZERO) {
                    max_gap_ms = Json::F64(gap.as_millis_f64());
                }
                if let Some(d) = self.scenario.deadline_ms {
                    let n = recv.within_deadline(SimDuration::from_millis_f64(d));
                    within_deadline = Json::U64(n);
                }
            }
        }
        let counters = Json::Obj(
            self.driver
                .counters()
                .iter()
                .map(|(k, v)| (k.to_owned(), Json::U64(v)))
                .collect(),
        );
        // Membership view and route coverage at the horizon: the loopback
        // join test gates on these (a joiner must end with full routes).
        let node = self.node();
        let routes_reachable = (0..self.scenario.nodes)
            .filter(|&i| node.reaches(NodeId(i)))
            .count() as u64;
        let members = node
            .membership()
            .map_or(Json::Null, |m| Json::U64(m.up_count() as u64));
        Json::obj(vec![
            ("kind", Json::str("udp-node")),
            ("scenario", Json::str(&self.scenario.name)),
            ("node", Json::U64(self.me.0 as u64)),
            ("members", members),
            ("routes_reachable", Json::U64(routes_reachable)),
            ("sent", Json::U64(sent)),
            ("received", Json::U64(received)),
            ("app_duplicates", Json::U64(duplicates)),
            ("p50_ms", p50_ms),
            ("p90_ms", p90_ms),
            ("max_gap_ms", max_gap_ms),
            ("within_deadline", within_deadline),
            ("decode_errors", Json::U64(self.decode_errors)),
            ("unknown_pipe", Json::U64(self.unknown_pipe)),
            ("counters", counters),
        ])
    }

    /// `row` with a `wall_ns` key appended: the absolute wall-clock instant
    /// (`epoch + at_ns`), so rows exported by different processes of a
    /// cluster merge onto one clock.
    fn on_wall_clock(&self, mut row: Json, at_ns: u64) -> Json {
        if let Json::Obj(ref mut pairs) = row {
            let wall_ns = self.driver.epoch_ns.saturating_add(at_ns);
            pairs.push(("wall_ns".to_owned(), Json::U64(wall_ns)));
        }
        row
    }

    /// This daemon's trace-ring rows, each with its `wall_ns`.
    #[must_use]
    pub fn trace_rows(&self) -> Vec<Json> {
        let events = self.node().obs().traces().events();
        events
            .map(|ev| self.on_wall_clock(ev.row(), ev.at_ns))
            .collect()
    }

    /// This daemon's watchdog audit rows (empty when the watchdog is off),
    /// each with its `wall_ns`.
    #[must_use]
    pub fn watch_rows(&self) -> Vec<Json> {
        let events = self.node().obs().watch_events().events();
        events
            .map(|ev| self.on_wall_clock(ev.row(), ev.at_ns))
            .collect()
    }
}

#[cfg(test)]
mod loop_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use son_obs::trace::TraceEvent;
    use son_overlay::addr::{DestKey, FlowKey, GroupId};
    use son_overlay::builder::HOP_PROCESSING;
    use son_overlay::fleet::{RX_PORT, TX_PORT};
    use son_overlay::packet::{Control, DataPacket, GroupUpdate};
    use son_overlay::OverlayAddr;

    pub(crate) fn loopback_scenario() -> Scenario {
        Scenario {
            name: "vnet_chain".to_owned(),
            topo: TopoKind::Chain,
            nodes: 3,
            hop_ms: 2.0,
            loss: 0.0,
            spec: "best_effort".to_owned(),
            deadline_ms: None,
            from: 0,
            to: 2,
            count: 40,
            size: 120,
            interval_us: 10_000,
            start_ms: 600,
            run_for_ms: 1_700,
            seed: 11,
            trace_sample: 4,
            watch: false,
            membership: false,
            outage: None,
        }
    }

    /// `wire` as a neighbour sending it at `sent_ns` would put it on the
    /// transport: the provider index (0), the stamp, then the codec's bytes.
    fn dgram_at(wire: &Wire, sent_ns: u64) -> Vec<u8> {
        let mut dgram = vec![0u8];
        dgram.extend_from_slice(&sent_ns.to_le_bytes());
        son_overlay::wire::encode_into(wire, &mut dgram)
            .expect("the encoder does not judge values");
        dgram
    }

    /// `wire` as sent the moment it is read: a stamp ahead of every clock,
    /// which the receiver clamps to its `now`.
    pub(crate) fn dgram(wire: &Wire) -> Vec<u8> {
        dgram_at(wire, u64::MAX)
    }

    /// Node 1 of the loopback chain over its vnet endpoint, its processes
    /// not started, its epoch now.
    fn middle_node() -> NodeRuntime<VnetTransport> {
        let scenario = loopback_scenario();
        let net = chain_mesh(scenario.nodes).swap_remove(1);
        NodeRuntime::new(scenario, NodeId(1), net, unix_now_ns())
    }

    /// Sleeps until the earliest held entry is due, then runs the pass
    /// that dispatches it.
    fn dispatch_held<T: Transport>(rt: &mut NodeRuntime<T>) {
        let due_ns = rt.driver.next_deadline_ns().expect("an entry is held");
        let left_ns = due_ns.saturating_sub(rt.driver.wall_ns());
        std::thread::sleep(Duration::from_nanos(left_ns));
        rt.driver.refresh_now();
        rt.pass(rt.driver.now.as_nanos()).expect("vnet never fails");
    }

    /// A one-process driver with no links, its epoch now.
    pub(crate) fn lone_driver() -> RealDriver<VnetTransport> {
        let net = VnetTransport::mesh(1, &[]).remove(0);
        RealDriver::new(net, unix_now_ns(), 1, NodeId(0), 1, vec![])
    }

    /// The vnet endpoints of a `nodes`-long chain.
    pub(crate) fn chain_mesh(nodes: usize) -> Vec<VnetTransport> {
        let links: Vec<(usize, usize)> = (0..nodes - 1).map(|i| (i, i + 1)).collect();
        VnetTransport::mesh(nodes, &links)
    }

    /// Held by every test that runs daemons against the wall clock, so they
    /// run one cluster at a time: a dozen daemon threads waking on the same
    /// instants of a two-core host would measure each other's wake-ups.
    pub(crate) fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        static ONE_CLUSTER: std::sync::Mutex<()> = std::sync::Mutex::new(());
        // A failed test poisons the lock; the next one still only needs it
        // for exclusion.
        ONE_CLUSTER
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Runs node `i` of the scenario over `nets[i]` to the horizon, each on
    /// its own thread like the real processes they stand in for, after
    /// `setup` has seen its runtime.
    pub(crate) fn run_cluster<T: Transport + Send>(
        scenario: &Scenario,
        nets: Vec<T>,
        setup: impl Fn(&mut NodeRuntime<T>) + Sync,
    ) -> Vec<NodeRuntime<T>> {
        let _alone = exclusive();
        let epoch = unix_now_ns() + 50_000_000;
        std::thread::scope(|threads| {
            let handles: Vec<_> = nets
                .into_iter()
                .enumerate()
                .map(|(i, net)| {
                    let (s, setup) = (scenario.clone(), &setup);
                    threads.spawn(move || {
                        let mut rt = NodeRuntime::new(s, NodeId(i), net, epoch);
                        setup(&mut rt);
                        rt.run().expect("no receive-side failure");
                        rt
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    /// `(sent, received)` summed over every client of the cluster.
    pub(crate) fn totals<T: Transport>(runtimes: &[NodeRuntime<T>]) -> (u64, u64) {
        let clients = || runtimes.iter().flat_map(|r| r.clients());
        let sent = clients().map(|c| c.sent(1)).sum();
        let received = clients()
            .filter_map(|c| c.recv.values().next())
            .map(|r| r.received)
            .sum();
        (sent, received)
    }

    /// Three runtimes over the in-memory vnet: every packet the sender's
    /// client emits arrives at the receiver's client across two real codec
    /// traversals per hop.
    #[test]
    fn vnet_chain_delivers_end_to_end() {
        let mut scenario = loopback_scenario();
        // A packet per millisecond, the benchmark's pace.
        (scenario.interval_us, scenario.count) = (1_000, 400);
        let runtimes = run_cluster(&scenario, chain_mesh(scenario.nodes), |_| {});

        let (sent, received) = totals(&runtimes);
        assert_eq!(sent, scenario.count, "sender finished its workload");
        assert_eq!(
            received, scenario.count,
            "lossless chain delivers everything"
        );
        for rt in &runtimes {
            assert_eq!(rt.decode_errors, 0, "node {} saw garbage", rt.me);
            assert_eq!(rt.unknown_pipe, 0, "node {} mis-attributed a frame", rt.me);
        }

        // The paper's "less than 1 ms per hop": two hops and the hand-off
        // to the client add at most 0.6 ms to the emulated path at the
        // median (the 200 µs poll this loop replaced added 1.0 ms).
        let path_ms = 2.0 * (scenario.hop_ms + HOP_PROCESSING.as_millis_f64());
        let recv = runtimes[2].clients()[0].recv.values().next().unwrap();
        let p50_ms = recv.latency_ms().quantile(0.5).unwrap();
        assert!(
            p50_ms >= path_ms && p50_ms <= path_ms + 0.6,
            "one-way p50 {p50_ms:.3} ms over an emulated path of {path_ms:.3} ms"
        );

        // The ingress stamped trace contexts; rows must still satisfy the
        // exporter's schema round-trip with wall_ns appended.
        let rows = runtimes[0].trace_rows();
        assert!(!rows.is_empty(), "ingress sampled traces");
        for row in &rows {
            assert!(row.get("wall_ns").is_some());
            assert!(TraceEvent::from_row(row).is_some(), "row round-trips");
        }
    }

    /// The daemon's telemetry emitter end to end: every datagram a vnet
    /// cluster sends to a loopback collector is a snapshot row, each node's
    /// seqs run 0, 1, 2, … with no gap, and `telemetry.sent` counts exactly
    /// the datagrams that arrived.
    #[test]
    fn telemetry_datagrams_are_rows_in_seq_order() {
        let scenario = loopback_scenario();
        let collector = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        let addr = collector.local_addr().unwrap().to_string();
        let runtimes = run_cluster(&scenario, chain_mesh(scenario.nodes), |rt| {
            rt.enable_telemetry(&addr).expect("loopback collector");
        });
        // Every send happened before its daemon returned; the datagrams wait
        // in the socket's buffer.
        collector.set_nonblocking(true).unwrap();
        let mut seqs = vec![Vec::new(); scenario.nodes];
        let mut buf = vec![0u8; 65_536];
        while let Ok(n) = collector.recv(&mut buf) {
            let snap = son_obs::TelemetrySnapshot::decode(&buf[..n]).expect("a snapshot row");
            seqs[snap.node as usize].push(snap.seq);
        }
        for (rt, seqs) in runtimes.iter().zip(&seqs) {
            // An epoch is 500 ms: snapshots at 0, 500, 1000 and 1500 ms, one
            // fewer if the host stalls the daemon past an epoch.
            let gapless = seqs.iter().copied().eq(0..seqs.len() as u64);
            assert!(seqs.len() >= 3 && gapless, "node {}: {seqs:?}", rt.me);
            assert_eq!(rt.counters().get("telemetry.sent"), seqs.len() as u64);
        }
    }

    /// A late daemon joins a running vnet ring through a seed peer: the
    /// founding members start on the shared epoch, the joiner 400ms later
    /// with `join_via`. By the horizon the joiner must hold full routes and
    /// everyone's membership view must count all four nodes — the library
    /// form of the `--seed-peer` loopback test CI runs over real UDP.
    #[test]
    fn vnet_join_via_seed_peer_reaches_full_routes() {
        let mut scenario = loopback_scenario();
        scenario.name = "vnet_join".to_owned();
        scenario.topo = TopoKind::Ring;
        scenario.nodes = 4;
        scenario.membership = true;
        scenario.run_for_ms = 2_500;
        let _alone = exclusive();
        let links: Vec<(usize, usize)> = vec![(0, 1), (1, 2), (2, 3), (3, 0)];
        let nets = VnetTransport::mesh(scenario.nodes, &links);
        let epoch = unix_now_ns() + 50_000_000;
        let handles: Vec<_> = nets
            .into_iter()
            .enumerate()
            .map(|(i, net)| {
                let s = scenario.clone();
                std::thread::spawn(move || {
                    let joiner = i == 3;
                    // The joiner's world starts 400ms into the run.
                    let epoch = if joiner { epoch + 400_000_000 } else { epoch };
                    let mut rt = NodeRuntime::new(s, NodeId(i), net, epoch);
                    if joiner {
                        rt.join_via(NodeId(2)).expect("2 is a ring neighbor of 3");
                    }
                    rt.run().expect("vnet never fails");
                    rt
                })
            })
            .collect();
        let runtimes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

        for rt in &runtimes {
            let mem = rt.node().membership().expect("membership enabled");
            assert_eq!(
                mem.up_count(),
                4,
                "node {} must count the full fleet after the join",
                rt.me
            );
            for i in 0..4 {
                assert!(
                    rt.node().reaches(NodeId(i)),
                    "node {} cannot route to node {i}",
                    rt.me
                );
            }
            // Nobody has a group member, so neither the founders' start nor
            // the completed join flooded a group announcement.
            assert_eq!(
                son_obs::MemFootprint::footprint_bytes(rt.node().groups()),
                0
            );
        }
        let report = runtimes[3].report();
        assert_eq!(report.get("members").and_then(Json::as_u64), Some(4));
        assert_eq!(
            report.get("routes_reachable").and_then(Json::as_u64),
            Some(4)
        );
    }

    /// A ring whose flow 0 → 2 runs over 1-2 until that link blacks out
    /// for a second.
    fn blackout_ring() -> Scenario {
        let mut scenario = loopback_scenario();
        scenario.name = "vnet_blackout".to_owned();
        (scenario.topo, scenario.nodes) = (TopoKind::Ring, 5);
        (scenario.interval_us, scenario.count) = (5_000, 400);
        scenario.run_for_ms = 2_800;
        scenario.outage = Some(Outage {
            a: 1,
            b: 2,
            from_ms: 1_000,
            to_ms: 2_000,
        });
        scenario
    }

    /// The same blackout on both legs, the one lowering under each: over
    /// the vnet the drivers' outage windows cut the link, in the simulator
    /// the fleet's scheduled pipe outage does. Both reroute around it, so
    /// neither waits the blackout out, and they deliver within E18's
    /// ±10 pp of each other.
    #[test]
    fn a_blackout_is_routed_around_on_both_legs() {
        let scenario = blackout_ring();
        let links: Vec<(usize, usize)> = (0..5).map(|i| (i, (i + 1) % 5)).collect();
        let runtimes = run_cluster(&scenario, VnetTransport::mesh(5, &links), |_| {});
        let mut fleet = scenario.fleet();
        fleet.run(SimTime::from_millis(scenario.run_for_ms));

        let blackout = SimDuration::from_millis(1_000);
        let down = |rt: &NodeRuntime<VnetTransport>| rt.counters().get(DropClass::Down.label());
        assert!(
            down(&runtimes[1]) + down(&runtimes[2]) > 0,
            "the link went dark"
        );
        let vnet_recv = runtimes[2].clients()[0].recv.values().next();
        let legs = [
            ("vnet", totals(&runtimes), vnet_recv.expect("arrivals")),
            (
                "sim",
                (fleet.sent(0), fleet.recv(0).received),
                fleet.recv(0),
            ),
        ];
        let delivery = legs.map(|(leg, (sent, received), recv)| {
            assert_eq!(sent, scenario.count, "{leg}: the sender finished");
            let gap = recv.longest_gap(SimTime::ZERO).expect("arrivals");
            assert!(gap < blackout, "{leg} waited the blackout out: {gap:?}");
            received as f64 / sent as f64
        });
        let [vnet, sim] = delivery;
        assert!(sim < 1.0, "the blackout cost the sim leg packets");
        assert!(
            (vnet - sim).abs() <= 0.10,
            "delivery: vnet {vnet:.3}, sim {sim:.3}"
        );
    }

    /// Both lowerings give every daemon the scenario's one configuration:
    /// the sender's, the receiver's and every transit daemon's.
    #[test]
    fn both_legs_give_every_daemon_the_same_config() {
        let mut scenario = loopback_scenario();
        (scenario.watch, scenario.membership) = (true, true);
        let fleet = scenario.fleet();
        let expected = fleet.node(NodeId(0)).config();
        assert_eq!(expected.trace_sample, scenario.trace_sample);
        assert!(expected.watch && expected.membership);
        for (i, net) in chain_mesh(scenario.nodes).into_iter().enumerate() {
            let rt = NodeRuntime::new(scenario.clone(), NodeId(i), net, unix_now_ns());
            assert_eq!(rt.node().config(), expected, "node {i} over the vnet");
            assert_eq!(
                fleet.node(NodeId(i)).config(),
                expected,
                "node {i} in the sim"
            );
        }
    }

    /// One datagram claiming an infinite link latency used to be accepted,
    /// stored, and to panic this daemon — and every daemon it was flooded
    /// to — at the next route rebuild. It now dies in the decoder, counted.
    #[test]
    fn forged_lsa_datagram_is_counted_and_dropped() {
        use son_overlay::packet::{Control, LinkAdvert, Lsa};
        let lsa_dgram = |seq: u64, latency_ms: f64| {
            let lsa = Lsa {
                origin: NodeId(0),
                seq,
                links: [LinkAdvert {
                    edge: son_topo::EdgeId(0),
                    up: true,
                    latency_ms,
                    loss: 0.0,
                }]
                .into(),
            };
            dgram(&Wire::Control(Control::Lsa(lsa)))
        };
        let mut rt = middle_node();

        let stored = rt.node().connectivity().lsdb_len();
        rt.deliver_datagram(0, &lsa_dgram(1, 2.0));
        dispatch_held(&mut rt);
        let stored = stored + 1;
        assert_eq!(rt.node().connectivity().lsdb_len(), stored, "path is live");
        let version = rt.node().connectivity().version();

        rt.deliver_datagram(0, &lsa_dgram(2, f64::INFINITY));
        assert_eq!(rt.decode_errors, 1);
        assert_eq!(rt.counters().get("wire.decode_error"), 1);
        assert_eq!(rt.node().connectivity().lsdb_len(), stored);
        assert_eq!(rt.node().connectivity().version(), version);

        // A later honest change rebuilds routes over a clean LSDB.
        rt.deliver_datagram(0, &lsa_dgram(3, 7.5));
        dispatch_held(&mut rt);
        assert!(rt.node().connectivity().version() > version);
        assert!(rt.node().reaches(NodeId(0)));
    }

    /// One valid datagram of each shape the receive path handles most, as
    /// node 0 sends them to node 1: a traced, masked data packet with a
    /// payload, an LSA, a hello, a reliable ack and an FEC repair.
    fn valid_dgrams() -> Vec<Vec<u8>> {
        use son_obs::trace::TraceContext;
        use son_overlay::addr::{DestKey, FlowKey};
        use son_overlay::packet::{Control, DataPacket, LinkAdvert, LinkCtl, Lsa};
        use son_topo::{EdgeId, EdgeMask};
        let packet = DataPacket {
            flow: FlowKey {
                src: OverlayAddr::new(NodeId(0), TX_PORT),
                dst: DestKey::Unicast(OverlayAddr::new(NodeId(2), RX_PORT)),
            },
            flow_seq: 7,
            origin: NodeId(0),
            spec: son_overlay::service::FlowSpec::reliable(),
            mask: Some(EdgeMask::from_edges([EdgeId(0), EdgeId(1)])),
            resolved_dst: None,
            link_seq: 3,
            created_at: SimTime::from_millis(5),
            size: 16,
            payload: (0..16).collect(),
            ttl: 32,
            auth_tag: 9,
            trace: Some(TraceContext { id: 42, hop: 1 }),
        };
        let mut stripped = packet.clone();
        stripped.payload = Default::default();
        let lsa = Lsa {
            origin: NodeId(0),
            seq: 4,
            links: [LinkAdvert {
                edge: EdgeId(0),
                up: true,
                latency_ms: 2.0,
                loss: 0.0,
            }]
            .into(),
        };
        let ack = LinkCtl::ReliableAck {
            cum: 5,
            selective: vec![7, 9],
        };
        let repair = LinkCtl::FecRepair {
            block_start: 0,
            index: 0,
            covered: vec![stripped.clone(), stripped],
        };
        let hello = Control::Hello {
            seq: 1,
            sent_at: SimTime::from_millis(3),
        };
        [
            Wire::Data(packet),
            Wire::Control(Control::Lsa(lsa)),
            Wire::Control(hello),
            Wire::Ctl { slot: 1, ctl: ack },
            Wire::Ctl {
                slot: 6,
                ctl: repair,
            },
        ]
        .iter()
        .map(|w| dgram_at(w, 1_000))
        .collect()
    }

    /// Where one datagram ended up.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Landed {
        DecodeError,
        UnknownPipe,
        Held,
    }

    /// Hands `dgram` from `peer` to an idle node 1 and says where it went:
    /// counted as undecodable, counted as from an unknown pipe, or held for
    /// dispatch no later than one link latency from now — exactly one. A
    /// held frame is then dispatched to the daemon, and whatever that
    /// schedules is dropped.
    fn land(rt: &mut NodeRuntime<VnetTransport>, peer: usize, dgram: &[u8]) -> Landed {
        let before = (rt.decode_errors, rt.unknown_pipe);
        rt.deliver_datagram(peer, dgram);
        let latest_ns = rt.driver.wall_ns() + rt.min_hold.as_nanos();
        let held = rt.driver.due.pop();
        let landed = [
            (rt.decode_errors > before.0, Landed::DecodeError),
            (rt.unknown_pipe > before.1, Landed::UnknownPipe),
            (held.is_some(), Landed::Held),
        ];
        let mut places = landed.iter().filter(|(hit, _)| *hit);
        let (Some(&(_, place)), None) = (places.next(), places.next()) else {
            panic!("{dgram:?} from {peer} landed in {landed:?}");
        };
        if let Some((due, entry)) = held {
            assert!(due.as_nanos() <= latest_ns, "{dgram:?} held past a latency");
            assert!(rt.driver.due.pop().is_none(), "one datagram, one entry");
            let Due::Deliver {
                from,
                to,
                pipe: Some(pipe),
                msg,
            } = entry
            else {
                panic!("{entry:?} is not a frame off the wire");
            };
            rt.dispatch_message(to, from, Some(pipe), *msg);
            while rt.driver.due.pop().is_some() {}
        }
        place
    }

    /// Every truncation of a valid datagram is refused by the framing or
    /// the decoder, and every single-byte change of one lands in exactly one
    /// place — and each place is reached. Nothing on the receive path
    /// panics.
    #[test]
    fn truncated_and_mutated_datagrams_land_in_exactly_one_place() {
        let mut rt = middle_node();
        let mut seen = Vec::new();
        for dgram in valid_dgrams() {
            assert_eq!(land(&mut rt, 0, &dgram), Landed::Held);
            for len in 0..dgram.len() {
                assert_eq!(land(&mut rt, 0, &dgram[..len]), Landed::DecodeError);
            }
            for at in 0..dgram.len() {
                for byte in [0x00, 0xff, dgram[at] ^ 0x80, dgram[at].wrapping_add(1)] {
                    let mut bad = dgram.clone();
                    bad[at] = byte;
                    seen.push(land(&mut rt, 0, &bad));
                }
            }
        }
        for place in [Landed::DecodeError, Landed::UnknownPipe, Landed::Held] {
            assert!(seen.contains(&place), "no mutation landed in {place:?}");
        }
    }

    /// A best-effort data datagram of flow `origin` → `dst`, seq 1, as a
    /// neighbour sends it.
    fn data_dgram(dst: DestKey, origin: usize, resolved_dst: Option<usize>) -> Vec<u8> {
        let packet = DataPacket {
            flow: FlowKey {
                src: OverlayAddr::new(NodeId(origin), TX_PORT),
                dst,
            },
            flow_seq: 1,
            origin: NodeId(origin),
            spec: son_overlay::service::FlowSpec::best_effort(),
            mask: None,
            resolved_dst: resolved_dst.map(NodeId),
            link_seq: 1,
            created_at: SimTime::ZERO,
            size: 16,
            payload: Default::default(),
            ttl: 32,
            auth_tag: 0,
            trace: None,
        };
        dgram(&Wire::Data(packet))
    }

    /// A data packet naming a node outside the 3-node chain where
    /// forwarding looks it up — a unicast destination, a resolved anycast
    /// member, a multicast origin — used to index past the routing tables
    /// and panic the daemon. Each is now an unroutable drop, and the next
    /// valid packet is still forwarded.
    #[test]
    fn forged_node_ids_are_unroutable_drops() {
        let data = data_dgram;
        let unicast = |node| DestKey::Unicast(OverlayAddr::new(NodeId(node), RX_PORT));
        let mut rt = middle_node();
        let unroutable = |rt: &NodeRuntime<VnetTransport>| {
            let registry = rt.node().obs().registry();
            registry.counter_named("drop.unroutable", &[("node", "1")])
        };
        for forged in [
            data(unicast(7), 0, None),
            data(DestKey::Anycast(GroupId(1)), 0, Some(9)),
            data(DestKey::Multicast(GroupId(1)), 5, None),
        ] {
            assert_eq!(land(&mut rt, 0, &forged), Landed::Held);
        }
        assert_eq!(unroutable(&rt), Some(3));
        assert_eq!(rt.node().metrics().forwarded, 0);
        assert_eq!(land(&mut rt, 0, &data(unicast(2), 0, None)), Landed::Held);
        assert_eq!(rt.node().metrics().forwarded, 1, "valid traffic flows");
        assert_eq!(unroutable(&rt), Some(3));
    }

    /// A group update claiming an origin outside the chain used to be
    /// stored and flooded on, and the next multicast packet to the group
    /// panicked this daemon (and every daemon the update reached) in the
    /// multicast tree lookup. It is now refused at ingress and counted,
    /// and the group still works for its real members.
    #[test]
    fn a_forged_group_origin_is_refused_and_counted() {
        let update = |origin| {
            let groups = vec![GroupId(1)];
            let update = GroupUpdate {
                origin: NodeId(origin),
                seq: 1,
                groups,
            };
            dgram(&Wire::Control(Control::GroupUpdate(update)))
        };
        let multicast = || data_dgram(DestKey::Multicast(GroupId(1)), 0, None);
        let mut rt = middle_node();
        let forged = |rt: &NodeRuntime<VnetTransport>| {
            let registry = rt.node().obs().registry();
            registry.counter_named("forged_origin", &[("node", "1")])
        };

        assert_eq!(land(&mut rt, 0, &update(9)), Landed::Held);
        assert_eq!(land(&mut rt, 0, &multicast()), Landed::Held);
        assert_eq!(forged(&rt), Some(1));
        assert!(rt.node().groups().members_of(GroupId(1)).is_empty());
        assert_eq!(rt.node().metrics().forwarded, 0);

        assert_eq!(land(&mut rt, 0, &update(2)), Landed::Held);
        assert_eq!(land(&mut rt, 0, &multicast()), Landed::Held);
        assert_eq!(rt.node().metrics().forwarded, 1, "valid traffic flows");
        assert_eq!(forged(&rt), Some(1));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Whatever a socket hands the daemon — noise, noise behind valid
        /// framing and a valid frame header of any kind, a valid datagram
        /// with a few bytes rewritten — from any peer lands in exactly one
        /// place without a panic.
        fn no_datagram_panics_the_receive_path(
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..300),
            kind in proptest::prelude::any::<u8>(),
            edits in proptest::collection::vec((0usize..4096, proptest::prelude::any::<u8>()), 1..5),
            peer in 0usize..4,
        ) {
            let mut rt = middle_node();
            land(&mut rt, peer, &noise);
            for valid in valid_dgrams() {
                let header = FRAMING_BYTES + son_overlay::wire::FRAME_HEADER_BYTES;
                let mut framed = valid[..header].to_vec();
                framed[FRAMING_BYTES + 2] = kind;
                let len = u32::try_from(noise.len()).unwrap();
                framed[header - 4..].copy_from_slice(&len.to_le_bytes());
                framed.extend_from_slice(&noise);
                land(&mut rt, peer, &framed);
                let mut edited = valid;
                for &(at, byte) in &edits {
                    let at = at % edited.len();
                    edited[at] = byte;
                }
                land(&mut rt, peer, &edited);
            }
        }
    }

    /// The receiver trusts a sender's stamp only as far as its own clock: a
    /// stamp 10 s in the future is held one link latency from now, and a
    /// stamp of 0 — a frame sent long ago — is due at once and dispatched by
    /// the pass that reads it.
    #[test]
    fn stamps_are_clamped_to_the_receivers_clock() {
        let scenario = loopback_scenario();
        let [mut peer, net, _] = <[VnetTransport; 3]>::try_from(chain_mesh(3)).unwrap();
        let mut rt = NodeRuntime::new(scenario, NodeId(1), net, unix_now_ns() - 1_000_000_000);
        let hello = Wire::Control(son_overlay::packet::Control::Hello {
            seq: 1,
            sent_at: SimTime::ZERO,
        });
        let latency_ns = rt.min_hold.as_nanos();

        peer.send_to(1, &dgram_at(&hello, 0)).unwrap();
        rt.driver.refresh_now();
        rt.pass(rt.driver.now.as_nanos()).unwrap();
        assert_eq!(rt.counters().get("pipe.delivered"), 1, "dispatched at once");
        assert_eq!(rt.driver.next_deadline_ns(), None);

        let before_ns = rt.driver.wall_ns();
        let future_ns = before_ns + 10_000_000_000;
        peer.send_to(1, &dgram_at(&hello, future_ns)).unwrap();
        rt.driver.refresh_now();
        rt.pass(rt.driver.now.as_nanos()).unwrap();
        let after_ns = rt.driver.wall_ns();
        assert_eq!(rt.counters().get("pipe.delivered"), 1, "held");
        let due_ns = rt.driver.next_deadline_ns().expect("held");
        assert!(
            (before_ns + latency_ns..=after_ns + latency_ns).contains(&due_ns),
            "held until {due_ns}, read between {before_ns} and {after_ns}"
        );
        dispatch_held(&mut rt);
        assert_eq!(rt.counters().get("pipe.delivered"), 2);
    }

    /// The driver's clock is the system clock read once and advanced by the
    /// monotonic clock: it starts where `unix_now_ns` is and never goes back.
    #[test]
    fn the_wall_clock_starts_at_the_system_clock_and_never_goes_back() {
        let mut d = lone_driver();
        d.epoch_ns -= 5_000_000_000;
        let first = d.wall_ns();
        let system = unix_now_ns() - d.epoch_ns;
        assert!(first.abs_diff(system) < 1_000_000, "{first} vs {system}");
        let mut last = first;
        for _ in 0..100_000 {
            let wall = d.wall_ns();
            assert!(wall >= last, "{wall} after {last}");
            last = wall;
        }
    }

    /// A step of the system clock after start-up moves no deadline. A
    /// driver whose anchor is older than its system-clock reading sees what
    /// a daemon sees after the system clock was stepped back by the
    /// difference: a 1 ms timer set on its clock fires on the first pass
    /// after 1 ms, not 1 s late, and a run ends at its horizon on the
    /// driver's clock.
    #[test]
    fn a_system_clock_step_moves_no_deadline() {
        let stepped_back = |anchor: (Instant, u64), by: Duration| {
            let at = anchor.0.checked_sub(by).expect("the host has been up");
            (at, anchor.1)
        };
        let mut d = lone_driver();
        d.anchor = stepped_back(d.anchor, Duration::from_secs(1));
        d.refresh_now();
        assert!(d.now.as_nanos() >= 1_000_000_000);
        let set = Instant::now();
        d.set_timer(ProcessId(0), SimDuration::from_millis(1), 7);
        let left_ns = d.next_deadline_ns().unwrap().saturating_sub(d.wall_ns());
        std::thread::sleep(Duration::from_nanos(left_ns));
        d.refresh_now();
        assert!(
            matches!(
                d.pop_due(d.now.as_nanos()),
                Some(Due::Timer { token: 7, .. })
            ),
            "the first pass fires it"
        );
        assert!(set.elapsed() < Duration::from_millis(500));

        // The whole loop reads the same clock: 1.6 s of a 1.7 s run have
        // passed on it already.
        let mut rt = middle_node();
        rt.driver.anchor = stepped_back(rt.driver.anchor, Duration::from_millis(1_600));
        let started = Instant::now();
        rt.run().expect("vnet never fails");
        assert!(started.elapsed() < Duration::from_millis(900));
    }

    /// Timers fire in deadline order and cancellation sticks.
    #[test]
    fn driver_timers_fire_and_cancel() {
        let mut d = lone_driver();
        d.refresh_now();
        let keep = d.set_timer(ProcessId(0), SimDuration::from_nanos(0), 7);
        let kill = d.set_timer(ProcessId(0), SimDuration::from_nanos(0), 8);
        assert!(d.cancel_timer(ProcessId(0), kill));
        assert!(
            !d.cancel_timer(ProcessId(0), kill),
            "second cancel is a no-op"
        );
        let stats = d.due.stats();
        assert_eq!((stats.live, stats.tombstones), (1, 1));
        let now = d.now.as_nanos() + 1;
        assert!(matches!(
            d.pop_due(now),
            Some(Due::Timer {
                pid: ProcessId(0),
                token: 7
            })
        ));
        assert!(d.pop_due(now).is_none(), "cancelled timer never fires");
        assert!(!d.cancel_timer(ProcessId(0), keep), "it already fired");
        let stats = d.due.stats();
        assert_eq!((stats.live, stats.tombstones), (0, 0));
    }

    /// A timer, a local message and a frame off the wire due at the same
    /// instant leave the queue in the order they entered it, and a fired
    /// timer's handle stays dead once later entries occupy its slot.
    #[test]
    fn same_instant_entries_pop_in_scheduling_order() {
        let mut rt = middle_node();
        rt.driver.refresh_now();
        let hello = || {
            Wire::Control(son_overlay::packet::Control::Hello {
                seq: 1,
                sent_at: SimTime::ZERO,
            })
        };
        // The in-pipe's latency, so the frame sent now is due with the rest.
        let delay = rt.min_hold;
        let sent_ns = rt.driver.now.as_nanos();
        let fired = rt.driver.set_timer(ProcessId(0), delay, 7);
        rt.driver
            .send_direct(ProcessId(0), ProcessId(0), delay, hello());
        rt.deliver_datagram(0, &dgram_at(&hello(), sent_ns));

        let d = &mut rt.driver;
        let due_ns = sent_ns + delay.as_nanos();
        assert_eq!(d.next_deadline_ns(), Some(due_ns));
        assert!(d.pop_due(due_ns - 1).is_none(), "nothing is early");
        assert!(matches!(
            d.pop_due(due_ns),
            Some(Due::Timer { token: 7, .. })
        ));
        assert!(matches!(
            d.pop_due(due_ns),
            Some(Due::Deliver { pipe: None, .. })
        ));
        assert!(matches!(
            d.pop_due(due_ns),
            Some(Due::Deliver {
                from: REMOTE_SENDER,
                pipe: Some(_),
                ..
            })
        ));
        assert!(d.pop_due(due_ns).is_none());

        // Three later timers take the three freed slots.
        let later: Vec<_> = (0..3)
            .map(|token| d.set_timer(ProcessId(0), delay, token))
            .collect();
        assert!(!d.cancel_timer(ProcessId(0), fired), "it already fired");
        assert_eq!(d.due.stats().live, 3, "and took no later timer with it");
        for timer in later {
            assert!(d.cancel_timer(ProcessId(0), timer));
        }
    }
}
