//! The simulation driver: owns processes, pipes, the underlay, and the event
//! queue; advances virtual time and dispatches events deterministically.
//!
//! # Examples
//!
//! A two-process ping/pong over a lossy 10 ms pipe:
//!
//! ```
//! use son_netsim::link::{PipeConfig, PipeId};
//! use son_netsim::process::{Process, ProcessId, SimMessage};
//! use son_netsim::sim::{Ctx, Simulation};
//! use son_netsim::time::{SimDuration, SimTime};
//!
//! struct Echo { out: Option<PipeId>, got: u32 }
//! impl Process<Vec<u8>> for Echo {
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, Vec<u8>>, _: ProcessId,
//!                   _pipe: Option<PipeId>, msg: Vec<u8>) {
//!         self.got += 1;
//!         if let Some(out) = self.out {
//!             ctx.send(out, msg); // bounce it back over our outgoing pipe
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(42);
//! let a = sim.add_process(Echo { out: None, got: 0 });
//! let b = sim.add_process(Echo { out: None, got: 0 });
//! let (ab, ba) = sim.connect(a, b, PipeConfig::with_latency(SimDuration::from_millis(10)));
//! sim.proc_mut::<Echo>(a).unwrap().out = Some(ab);
//! sim.proc_mut::<Echo>(b).unwrap().out = Some(ba);
//! sim.post(SimTime::ZERO, a, b"hi".to_vec()); // inject into process a
//! sim.run_until(SimTime::from_secs(1));
//! // The message ping-pongs every 10 ms for a simulated second.
//! assert_eq!(sim.proc_ref::<Echo>(b).unwrap().got, 50);
//! ```

use std::any::Any;

use crate::event::{EventId, EventQueue, QueueStats};
use crate::link::{Pipe, PipeConfig, PipeId, Transmit};
use crate::loss::LossConfig;
use crate::process::{MessageKind, Process, ProcessId, SimMessage, TimerId};
use crate::rng::SimRng;
use crate::stats::Counters;
use crate::time::{SimDuration, SimTime};
use crate::underlay::{UEdgeId, Underlay};

/// A scripted change to the world, scheduled ahead of time.
#[derive(Debug, Clone)]
pub enum ScenarioEvent {
    /// Fail an underlay fiber link.
    FailUnderlayEdge(UEdgeId),
    /// Repair an underlay fiber link.
    RepairUnderlayEdge(UEdgeId),
    /// Crash a process: it stops receiving messages and timers.
    CrashProcess(ProcessId),
    /// Restart a crashed process (state is retained; `on_start` is re-run).
    RestartProcess(ProcessId),
    /// Replace the loss model of a pipe.
    SetPipeLoss(PipeId, LossConfig),
    /// Administratively disable a pipe.
    DisablePipe(PipeId),
    /// Re-enable a pipe.
    EnablePipe(PipeId),
    /// Deliver a synthetic timer token to a process — an operator signal
    /// (e.g. "leave the overlay gracefully") injected as a timer so the
    /// process needs no new entry point. Dropped if the process is down.
    PokeProcess(ProcessId, u64),
}

/// The counters the send path bumps for every frame, resolved once per
/// core (see [`Counters::with_fixed`]).
const SEND_COUNTERS: &[&str] = &["pipe.delivered", "pipe.bytes", "data.pipe.delivered"];
const PIPE_DELIVERED: usize = 0;
const PIPE_BYTES: usize = 1;
const DATA_PIPE_DELIVERED: usize = 2;

/// Capacity of a frame buffer the pool did not have: most link frames fit.
const FRESH_FRAME_BYTES: usize = 128;

/// The largest buffer the pool keeps. A buffer grown for a rare big frame
/// (an FEC repair, a membership list) is freed after delivery: pooled, it
/// would carry small frames at its large size for the rest of the run.
const POOLED_FRAME_BYTES: usize = 4 * FRESH_FRAME_BYTES;

pub(crate) enum Event<M: SimMessage> {
    /// A frame crossing a pipe: the bytes its message encoded to, in a
    /// buffer from the core's pool, and the hint its decoding may use.
    Frame {
        to: ProcessId,
        from: ProcessId,
        pipe: PipeId,
        frame: Vec<u8>,
        hint: M::Hint,
    },
    /// A message handed over without a pipe (`send_direct`, `post`). It
    /// waits by value in the core's side slab at `slot`, so a queued event
    /// stays the size of a frame's, not of the largest message.
    Direct {
        to: ProcessId,
        from: ProcessId,
        slot: u32,
    },
    Timer {
        proc: ProcessId,
        token: u64,
    },
    Scenario(ScenarioEvent),
}

/// Bytes one queued event takes in the event slab for messages of type
/// `M`: what every frame in flight costs besides its bytes.
#[must_use]
pub const fn queued_event_bytes<M: SimMessage>() -> usize {
    std::mem::size_of::<Option<Event<M>>>()
}

/// The messages of queued [`Event::Direct`] events, by slot.
pub(crate) struct SideSlab<M> {
    cells: Vec<Option<M>>,
    free: Vec<u32>,
}

impl<M> Default for SideSlab<M> {
    fn default() -> Self {
        SideSlab {
            cells: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<M> SideSlab<M> {
    /// An empty cell and its slot. The caller fills the cell as its next
    /// step, so the message is written where it will wait, once.
    #[inline(always)]
    fn vacant(&mut self) -> (u32, &mut Option<M>) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.cells.push(None);
            u32::try_from(self.cells.len() - 1).expect("over 2^32 parked messages")
        });
        (slot, &mut self.cells[slot as usize])
    }

    fn park(&mut self, msg: M) -> u32 {
        let (slot, cell) = self.vacant();
        *cell = Some(msg);
        slot
    }

    fn take(&mut self, slot: u32) -> M {
        self.free.push(slot);
        self.cells[slot as usize]
            .take()
            .expect("a queued direct event's message is parked")
    }
}

/// Everything in the simulation except the process objects themselves;
/// split out so a process handler can borrow the world while the engine
/// holds the process (`&mut self`) separately.
pub struct SimCore<M: SimMessage> {
    pub(crate) now: SimTime,
    pub(crate) queue: EventQueue<Event<M>>,
    /// Emptied frame buffers, reused by the next sends.
    pub(crate) frames: Vec<Vec<u8>>,
    /// Messages of queued [`Event::Direct`] events.
    pub(crate) parked: SideSlab<M>,
    pub(crate) pipes: Vec<Pipe>,
    pub(crate) underlay: Option<Underlay>,
    pub(crate) rng_root: SimRng,
    pub(crate) proc_rngs: Vec<SimRng>,
    pub(crate) proc_up: Vec<bool>,
    pub(crate) counters: Counters,
    /// Index of reverse pipes: pipes\[i\] paired with pipes\[rev\[i\]\] if any.
    pub(crate) reverse: Vec<Option<PipeId>>,
    pub(crate) events_processed: u64,
}

/// The simulation: a deterministic function of its configuration and seed.
///
/// The wall-clock epoch and optional [`son_obs::PerfRegistry`] observe the
/// host's real time; they never feed back into simulated behaviour, so
/// determinism (fingerprints, event counts) is unaffected.
pub struct Simulation<M: SimMessage> {
    core: SimCore<M>,
    procs: Vec<Option<Box<dyn Process<M>>>>,
    started: bool,
    wall_epoch: std::time::Instant,
    perf: Option<son_obs::PerfRegistry>,
}

/// The handler-side view of the world, passed to every [`Process`] hook.
///
/// A `Ctx` is a thin view over a [`Driver`](crate::driver::Driver) with the
/// acting process id curried in. Inside the simulator the driver is the
/// [`SimCore`]; a real daemon constructs the same `Ctx` over its wall-clock
/// driver via [`Ctx::from_driver`], so process state machines never know
/// which world they run in.
pub struct Ctx<'a, M: SimMessage> {
    driver: &'a mut dyn crate::driver::Driver<M>,
    pid: ProcessId,
}

impl<M: SimMessage> std::fmt::Debug for SimCore<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCore")
            .field("now", &self.now)
            .field("pipes", &self.pipes.len())
            .field("events_processed", &self.events_processed)
            .finish_non_exhaustive()
    }
}

impl<M: SimMessage> std::fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("core", &self.core)
            .field("procs", &self.procs.len())
            .field("started", &self.started)
            .finish()
    }
}

impl<'a, M: SimMessage> std::fmt::Debug for Ctx<'a, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("pid", &self.pid)
            .field("now", &self.driver.now())
            .finish()
    }
}

impl<M: SimMessage> Simulation<M> {
    /// Creates an empty simulation with the given master seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Simulation {
            core: SimCore {
                now: SimTime::ZERO,
                queue: EventQueue::new(),
                frames: Vec::new(),
                parked: SideSlab::default(),
                pipes: Vec::new(),
                underlay: None,
                rng_root: SimRng::seed(seed),
                proc_rngs: Vec::new(),
                proc_up: Vec::new(),
                counters: Counters::with_fixed(SEND_COUNTERS),
                reverse: Vec::new(),
                events_processed: 0,
            },
            procs: Vec::new(),
            started: false,
            wall_epoch: std::time::Instant::now(),
            perf: None,
        }
    }

    /// Event-queue occupancy and compaction counters — queue-bloat
    /// visibility for the scale observatory. Deliberately *not* part of the
    /// global counters: those feed [`Simulation::fingerprint`], and queue
    /// maintenance must not perturb replay identity.
    #[must_use]
    pub fn queue_stats(&self) -> QueueStats {
        self.core.queue.stats()
    }

    /// Wall-clock nanoseconds since this simulation was created — the wall
    /// time axis sim-leg telemetry snapshots carry alongside simulated time.
    #[must_use]
    pub fn wall_ns(&self) -> u64 {
        u64::try_from(self.wall_epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Enables the event-loop wall-clock profiler: every dispatched event
    /// is attributed to a `sim.deliver` / `sim.timer` / `sim.scenario`
    /// stage. Process-level spans recorded by handlers nest under these.
    pub fn enable_perf(&mut self) {
        let reg = son_obs::PerfRegistry::new(true);
        reg.set_sample_every(son_obs::PERF_SAMPLE_EVERY);
        self.perf = Some(reg);
    }

    /// The event-loop profiler, if [`Simulation::enable_perf`] was called.
    #[must_use]
    pub fn perf(&self) -> Option<&son_obs::PerfRegistry> {
        self.perf.as_ref()
    }

    /// Installs the underlay model.
    pub fn set_underlay(&mut self, underlay: Underlay) {
        self.core.underlay = Some(underlay);
    }

    /// Read-only access to the underlay.
    #[must_use]
    pub fn underlay(&self) -> Option<&Underlay> {
        self.core.underlay.as_ref()
    }

    /// The number of processes added so far.
    #[must_use]
    pub fn process_count(&self) -> usize {
        self.procs.len()
    }

    /// Adds a process and returns its id.
    pub fn add_process<P: Process<M>>(&mut self, process: P) -> ProcessId {
        let id = ProcessId(self.procs.len());
        self.procs.push(Some(Box::new(process)));
        let rng = self.core.rng_root.fork_idx("proc", id.0 as u64);
        self.core.proc_rngs.push(rng);
        self.core.proc_up.push(true);
        id
    }

    /// Creates a unidirectional pipe from `src` to `dst`.
    pub fn pipe(&mut self, src: ProcessId, dst: ProcessId, config: PipeConfig) -> PipeId {
        let id = PipeId(self.core.pipes.len());
        let rng = self.core.rng_root.fork_idx("pipe", id.0 as u64);
        self.core.pipes.push(Pipe::new(src, dst, config, rng));
        self.core.reverse.push(None);
        id
    }

    /// Creates a symmetric pair of pipes between `a` and `b`, registered as
    /// each other's reverse, and returns `(a_to_b, b_to_a)`.
    pub fn connect(&mut self, a: ProcessId, b: ProcessId, config: PipeConfig) -> (PipeId, PipeId) {
        let mut rev = config.clone();
        if let Some(binding) = &mut rev.binding {
            std::mem::swap(&mut binding.from, &mut binding.to);
            // Off-net attachments are directional: the reverse direction
            // enters at the other end's provider.
            if let crate::underlay::Attachment::OffNet { src_isp, dst_isp } =
                &mut binding.attachment
            {
                std::mem::swap(src_isp, dst_isp);
            }
        }
        let ab = self.pipe(a, b, config);
        let ba = self.pipe(b, a, rev);
        self.core.reverse[ab.0] = Some(ba);
        self.core.reverse[ba.0] = Some(ab);
        (ab, ba)
    }

    /// Injects a message into `to` at time `at` (from a virtual "outside"
    /// process id equal to `to`; `pipe` is `None`).
    pub fn post(&mut self, at: SimTime, to: ProcessId, msg: M) {
        let slot = self.core.parked.park(msg);
        self.core
            .queue
            .schedule(at, Event::Direct { to, from: to, slot });
    }

    /// Schedules a scripted world change.
    pub fn schedule(&mut self, at: SimTime, event: ScenarioEvent) {
        self.core.queue.schedule(at, Event::Scenario(event));
    }

    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Global drop/delivery counters.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.core.counters
    }

    /// Number of events processed so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }

    /// A stable fingerprint of the run so far: a hash over the clock, the
    /// event count, every pipe's packet counters, and the global counters.
    /// Two runs of the same configuration and seed produce identical
    /// fingerprints — a one-line determinism/regression check.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::rng::fnv1a(&self.core.now.as_nanos().to_le_bytes());
        let mut mix = |v: u64| h = crate::rng::splitmix(h ^ v);
        mix(self.core.events_processed);
        for pipe in &self.core.pipes {
            let (offered, delivered, dropped) = pipe.stats();
            mix(offered);
            mix(delivered);
            mix(dropped);
        }
        for (name, value) in self.core.counters.iter() {
            mix(crate::rng::fnv1a(name.as_bytes()));
            mix(value);
        }
        h
    }

    /// Downcasts a process to its concrete type (read-only).
    #[must_use]
    pub fn proc_ref<T: 'static>(&self, id: ProcessId) -> Option<&T> {
        let boxed = self.procs.get(id.0)?.as_ref()?;
        (boxed.as_ref() as &dyn Any).downcast_ref::<T>()
    }

    /// Downcasts a process to its concrete type (mutable).
    pub fn proc_mut<T: 'static>(&mut self, id: ProcessId) -> Option<&mut T> {
        let boxed = self.procs.get_mut(id.0)?.as_mut()?;
        (boxed.as_mut() as &mut dyn Any).downcast_mut::<T>()
    }

    /// Runs `on_start` on every process (idempotent; run methods call this).
    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.procs.len() {
            dispatch_start_on(&mut self.core, &mut self.procs, ProcessId(i));
        }
    }

    /// Runs until the event queue drains or virtual time passes `until`.
    ///
    /// Returns the number of events processed by this call.
    pub fn run_until(&mut self, until: SimTime) -> u64 {
        self.ensure_started();
        let mut n = 0;
        while let Some((at, _id, slot)) = self.core.queue.pop_key_if(|at| at <= until) {
            debug_assert!(at >= self.core.now, "time went backwards");
            self.core.now = at;
            self.core.events_processed += 1;
            n += 1;
            let event = self.core.queue.take_payload(slot);
            dispatch_event(&mut self.core, &mut self.procs, self.perf.as_ref(), event);
        }
        // Advance the clock to the horizon even if the queue drained early.
        self.core.now = self.core.now.max(until);
        n
    }

    /// Runs until no events remain. Use [`Simulation::run_until`] for
    /// workloads with self-sustaining timers.
    pub fn run_until_idle(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }

    /// Runs until `until` like [`Simulation::run_until`], but pauses every
    /// `cadence` of virtual time and calls `on_tick(self, now, wall_ns)` —
    /// the clock-driven snapshot hook the telemetry plane uses to sample
    /// every daemon into a time series mid-run. `wall_ns` is
    /// [`Simulation::wall_ns`] at the pause, so every sample carries both
    /// clocks. The hook also fires at `until` itself, so the final sample
    /// always lands on the horizon.
    ///
    /// Returns the number of events processed by this call.
    ///
    /// # Panics
    ///
    /// Panics if `cadence` is zero.
    pub fn run_with_cadence(
        &mut self,
        until: SimTime,
        cadence: SimDuration,
        mut on_tick: impl FnMut(&mut Simulation<M>, SimTime, u64),
    ) -> u64 {
        assert!(cadence > SimDuration::ZERO, "cadence must be positive");
        let mut n = 0;
        loop {
            let horizon = (self.core.now + cadence).min(until);
            n += self.run_until(horizon);
            let wall = self.wall_ns();
            on_tick(self, horizon, wall);
            if horizon >= until {
                return n;
            }
        }
    }
}

/// Dispatches one event against the world. A frame's bytes are lent to the
/// handler and their buffer goes back to the pool; a direct message moves
/// from the side slab straight into the handler.
#[inline]
fn dispatch_event<M: SimMessage>(
    core: &mut SimCore<M>,
    procs: &mut [Option<Box<dyn Process<M>>>],
    perf: Option<&son_obs::PerfRegistry>,
    event: Event<M>,
) {
    let token = match perf {
        Some(p) => p.enter(match &event {
            Event::Frame { .. } | Event::Direct { .. } => "sim.deliver",
            Event::Timer { .. } => "sim.timer",
            Event::Scenario(_) => "sim.scenario",
        }),
        None => son_obs::PerfToken::skip(),
    };
    match event {
        Event::Frame {
            to,
            from,
            pipe,
            frame,
            hint,
        } => {
            if !core.proc_up[to.0] {
                core.counters.incr("drop.process_down");
            } else if let Some(mut p) = procs[to.0].take() {
                let mut ctx = Ctx::from_driver(core, to);
                let decoded = p.on_frame(&mut ctx, from, pipe, &frame, &hint);
                assert!(decoded, "a frame the simulator encoded does not decode");
                procs[to.0] = Some(p);
            }
            core.recycle(frame);
        }
        Event::Direct { to, from, slot } => {
            let msg = core.parked.take(slot);
            if !core.proc_up[to.0] {
                core.counters.incr("drop.process_down");
            } else if let Some(mut p) = procs[to.0].take() {
                let mut ctx = Ctx::from_driver(core, to);
                p.on_message(&mut ctx, from, None, msg);
                procs[to.0] = Some(p);
            }
        }
        Event::Timer { proc, token } => {
            if core.proc_up[proc.0] {
                if let Some(mut p) = procs[proc.0].take() {
                    let mut ctx = Ctx::from_driver(core, proc);
                    p.on_timer(&mut ctx, token);
                    procs[proc.0] = Some(p);
                }
            }
        }
        Event::Scenario(ev) => apply_scenario_on(core, procs, ev),
    }
    if let Some(p) = perf {
        p.exit(token);
    }
}

fn dispatch_start_on<M: SimMessage>(
    core: &mut SimCore<M>,
    procs: &mut [Option<Box<dyn Process<M>>>],
    pid: ProcessId,
) {
    if let Some(mut p) = procs[pid.0].take() {
        let mut ctx = Ctx::from_driver(core, pid);
        p.on_start(&mut ctx);
        procs[pid.0] = Some(p);
    }
}

fn apply_scenario_on<M: SimMessage>(
    core: &mut SimCore<M>,
    procs: &mut [Option<Box<dyn Process<M>>>],
    ev: ScenarioEvent,
) {
    let now = core.now;
    match ev {
        ScenarioEvent::FailUnderlayEdge(e) => {
            if let Some(ul) = core.underlay.as_mut() {
                ul.fail_edge(e, now);
            }
        }
        ScenarioEvent::RepairUnderlayEdge(e) => {
            if let Some(ul) = core.underlay.as_mut() {
                ul.repair_edge(e, now);
            }
        }
        ScenarioEvent::CrashProcess(pid) => {
            core.proc_up[pid.0] = false;
            if let Some(p) = procs[pid.0].as_mut() {
                p.on_crash(now);
            }
        }
        ScenarioEvent::RestartProcess(pid) => {
            if !core.proc_up[pid.0] {
                core.proc_up[pid.0] = true;
                dispatch_start_on(core, procs, pid);
            }
        }
        ScenarioEvent::SetPipeLoss(pipe, loss) => core.pipes[pipe.0].set_loss(loss),
        ScenarioEvent::DisablePipe(pipe) => core.pipes[pipe.0].set_enabled(false),
        ScenarioEvent::EnablePipe(pipe) => core.pipes[pipe.0].set_enabled(true),
        ScenarioEvent::PokeProcess(pid, token) => {
            // Same discipline as a real timer: a crashed process hears
            // nothing.
            if core.proc_up[pid.0] {
                if let Some(mut p) = procs[pid.0].take() {
                    let mut ctx = Ctx::from_driver(core, pid);
                    p.on_timer(&mut ctx, token);
                    procs[pid.0] = Some(p);
                }
            }
        }
    }
}

impl<M: SimMessage> SimCore<M> {
    /// Queues a frame's bytes for delivery to `to`.
    #[inline(always)]
    fn schedule_frame(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        pipe: PipeId,
        at: SimTime,
        frame: Vec<u8>,
        hint: M::Hint,
    ) {
        *self.queue.schedule_cell(at) = Some(Event::Frame {
            to,
            from,
            pipe,
            frame,
            hint,
        });
    }

    /// Queues `msg` for delivery to `to` without a pipe: the message waits
    /// in the side slab, its event in the queue.
    pub(crate) fn schedule_direct(&mut self, from: ProcessId, to: ProcessId, at: SimTime, msg: M) {
        // The message is written into its cell once, and the event after.
        let (slot, parked) = self.parked.vacant();
        *parked = Some(msg);
        let cell = self.queue.schedule_cell(at);
        *cell = Some(Event::Direct { to, from, slot });
    }

    /// Returns a delivered frame's buffer to the pool, unless it is large.
    fn recycle(&mut self, mut frame: Vec<u8>) {
        if frame.capacity() <= POOLED_FRAME_BYTES {
            frame.clear();
            self.frames.push(frame);
        }
    }

    /// Schedules a timer for `pid`; the handle cancels it.
    pub(crate) fn schedule_timer(&mut self, pid: ProcessId, at: SimTime, token: u64) -> EventId {
        self.queue.schedule(at, Event::Timer { proc: pid, token })
    }

    /// Sends `msg` from `pid` over `pipe` — the sim-driver send path. The
    /// message is encoded into a pooled buffer first; loss, queueing and
    /// blackholes are modelled by the pipe on the frame's length, which is
    /// also what `pipe.bytes` counts, and drops are tallied in the global
    /// counters. A dropped frame's buffer goes back to the pool.
    ///
    /// # Panics
    ///
    /// Panics if `pipe` does not originate at `pid`.
    #[inline]
    pub(crate) fn send_on_pipe(&mut self, pid: ProcessId, pipe: PipeId, msg: &M) {
        let now = self.now;
        let p = &mut self.pipes[pipe.0];
        assert_eq!(p.src(), pid, "process {pid} does not own pipe {pipe:?}");
        let dst = p.dst();
        let mut frame = self
            .frames
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(FRESH_FRAME_BYTES));
        msg.encode_frame(&mut frame);
        let outcome = p.transmit(now, frame.len(), &mut self.underlay);
        let is_data = matches!(msg.kind(), MessageKind::Data { .. });
        let at = match outcome {
            Transmit::Arrives(at) => at,
            Transmit::Dropped(reason) => {
                self.counters.incr(reason.label());
                if is_data {
                    // Attribute data-plane drops separately so conservation
                    // (sent = delivered + attributed drops) is checkable
                    // without control traffic muddying the ledger.
                    self.counters.incr(reason.class().data_label());
                }
                self.recycle(frame);
                return;
            }
        };
        self.counters.bump(PIPE_DELIVERED, 1);
        self.counters.bump(PIPE_BYTES, frame.len() as u64);
        if is_data {
            self.counters.bump(DATA_PIPE_DELIVERED, 1);
        }
        self.schedule_frame(pid, dst, pipe, at, frame, msg.frame_hint());
    }
}

impl<'a, M: SimMessage> Ctx<'a, M> {
    /// Builds a context for `pid` over any [`Driver`](crate::driver::Driver)
    /// — the simulator's core or a wall-clock daemon driver.
    pub fn from_driver(driver: &'a mut dyn crate::driver::Driver<M>, pid: ProcessId) -> Self {
        Ctx { driver, pid }
    }

    /// The current time on the driver's clock (virtual time in the sim,
    /// epoch-anchored wall time in a real daemon).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.driver.now()
    }

    /// The id of the process this context belongs to.
    #[must_use]
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// This process's deterministic RNG stream.
    pub fn rng(&mut self) -> &mut SimRng {
        self.driver.rng(self.pid)
    }

    /// Sends `msg` over `pipe`. In the sim, loss, queueing, and blackholes
    /// are modelled by the pipe and drops are tallied in the global
    /// counters; on a real transport the frame is encoded onto the wire.
    ///
    /// # Panics
    ///
    /// Panics if `pipe` does not originate at this process.
    pub fn send(&mut self, pipe: PipeId, msg: M) {
        self.driver.send(self.pid, pipe, msg);
    }

    /// [`Ctx::send`] of a borrowed message: the simulator and a real
    /// transport encode it where it lies; a driver that keeps values
    /// clones it.
    ///
    /// # Panics
    ///
    /// Panics if `pipe` does not originate at this process.
    pub fn send_ref(&mut self, pipe: PipeId, msg: &M) {
        self.driver.send_ref(self.pid, pipe, msg);
    }

    /// Sends `msg` directly to another process with a fixed `delay`,
    /// bypassing any pipe (local IPC between a client and its colocated
    /// daemon, or measurement harness taps).
    pub fn send_direct(&mut self, to: ProcessId, delay: SimDuration, msg: M) {
        self.driver.send_direct(self.pid, to, delay, msg);
    }

    /// Sets a timer firing after `delay`, delivering `token` to `on_timer`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId {
        self.driver.set_timer(self.pid, delay, token)
    }

    /// Cancels a pending timer; returns `false` if it already fired.
    pub fn cancel_timer(&mut self, timer: TimerId) -> bool {
        self.driver.cancel_timer(self.pid, timer)
    }

    /// The reverse direction of a pipe pair created by
    /// [`Simulation::connect`], if registered.
    #[must_use]
    pub fn reverse_pipe(&self, pipe: PipeId) -> Option<PipeId> {
        self.driver.reverse_pipe(pipe)
    }

    /// The far endpoint of a pipe.
    #[must_use]
    pub fn pipe_dst(&self, pipe: PipeId) -> ProcessId {
        self.driver.pipe_dst(pipe)
    }

    /// Re-binds a pipe to a different ISP attachment (the overlay's
    /// provider-switching capability).
    pub fn rebind_pipe(&mut self, pipe: PipeId, attachment: crate::underlay::Attachment) {
        self.driver.rebind_pipe(pipe, attachment);
    }

    /// The underlay edges a pipe currently traverses, if bound and routable.
    pub fn pipe_route(&mut self, pipe: PipeId) -> Option<Vec<UEdgeId>> {
        self.driver.pipe_route(pipe)
    }

    /// Increments a global counter.
    pub fn count(&mut self, name: &str) {
        self.driver.count(name);
    }

    /// Adds to a global counter.
    pub fn count_add(&mut self, name: &str, n: u64) {
        self.driver.count_add(name, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Msg = Vec<u8>;

    /// Sends `n` packets at a fixed interval, records arrival times.
    struct Sender {
        pipe: Option<PipeId>,
        remaining: u32,
        interval: SimDuration,
    }
    struct Receiver {
        arrivals: Vec<SimTime>,
    }

    impl Process<Msg> for Sender {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            ctx.set_timer(SimDuration::ZERO, 0);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, Msg>, _: ProcessId, _: Option<PipeId>, _: Msg) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _: u64) {
            if self.remaining == 0 {
                return;
            }
            self.remaining -= 1;
            if let Some(pipe) = self.pipe {
                ctx.send(pipe, vec![0u8; 100]);
            }
            ctx.set_timer(self.interval, 0);
        }
    }

    impl Process<Msg> for Receiver {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _: ProcessId, _: Option<PipeId>, _: Msg) {
            self.arrivals.push(ctx.now());
        }
    }

    fn cbr_sim(loss: LossConfig) -> (Simulation<Msg>, ProcessId, ProcessId) {
        let mut sim = Simulation::new(7);
        let tx = sim.add_process(Sender {
            pipe: None,
            remaining: 100,
            interval: SimDuration::from_millis(10),
        });
        let rx = sim.add_process(Receiver {
            arrivals: Vec::new(),
        });
        let pipe = sim.pipe(
            tx,
            rx,
            PipeConfig::with_latency(SimDuration::from_millis(5)).loss(loss),
        );
        sim.proc_mut::<Sender>(tx).unwrap().pipe = Some(pipe);
        (sim, tx, rx)
    }

    /// A message of the size of an overlay `Wire`, whose frames carry a
    /// pointer-sized hint as an LSA's do.
    #[derive(Clone, Debug)]
    struct Big([u64; 35]);

    impl SimMessage for Big {
        type Hint = Option<std::sync::Arc<u64>>;
        fn encode_frame(&self, buf: &mut Vec<u8>) {
            buf.extend(self.0.iter().flat_map(|w| w.to_le_bytes()));
        }
        fn decode_frame(frame: &[u8], _: &Self::Hint) -> Option<Self> {
            let mut words = [0; 35];
            for (w, b) in words.iter_mut().zip(frame.chunks_exact(8)) {
                *w = u64::from_le_bytes(b.try_into().unwrap());
            }
            Some(Big(words))
        }
    }

    /// A queued event is written once and read once per hop, from a cell
    /// written long before in simulated time: it carries a frame's buffer
    /// and hint, or a slot in the side slab, never the message itself, so
    /// its size does not follow the message's.
    #[test]
    fn a_queued_event_fits_a_cache_line_whatever_its_message() {
        assert!(
            queued_event_bytes::<Big>() <= 64,
            "{}",
            queued_event_bytes::<Big>()
        );
        assert!(queued_event_bytes::<Msg>() <= 64);
    }

    /// Frames cross pipes as bytes and arrive as the message they encode;
    /// direct messages arrive as themselves.
    #[test]
    fn frames_and_direct_messages_arrive_intact() {
        struct Keep(Vec<(Option<PipeId>, Big)>);
        impl Process<Big> for Keep {
            fn on_message(
                &mut self,
                _: &mut Ctx<'_, Big>,
                _: ProcessId,
                pipe: Option<PipeId>,
                m: Big,
            ) {
                self.0.push((pipe, m));
            }
        }
        struct Send1(PipeId, ProcessId);
        impl Process<Big> for Send1 {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Big>) {
                let msg = Big(std::array::from_fn(|i| i as u64 * 0x0101_0101));
                ctx.send_ref(self.0, &msg);
                ctx.send_direct(self.1, SimDuration::from_millis(2), msg);
            }
            fn on_message(
                &mut self,
                _: &mut Ctx<'_, Big>,
                _: ProcessId,
                _: Option<PipeId>,
                _: Big,
            ) {
            }
        }
        let mut sim: Simulation<Big> = Simulation::new(5);
        let rx = sim.add_process(Keep(Vec::new()));
        let pipe = PipeId(0);
        let tx = sim.add_process(Send1(pipe, rx));
        assert_eq!(
            sim.pipe(
                tx,
                rx,
                PipeConfig::with_latency(SimDuration::from_millis(1))
            ),
            pipe
        );
        sim.run_until_idle();
        let got = &sim.proc_ref::<Keep>(rx).unwrap().0;
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, Some(pipe));
        assert_eq!(got[1].0, None);
        for (_, m) in got {
            assert_eq!(m.0[34], 34 * 0x0101_0101);
        }
    }

    #[test]
    fn cbr_stream_arrives_on_schedule() {
        let (mut sim, _, rx) = cbr_sim(LossConfig::Perfect);
        sim.run_until(SimTime::from_secs(5));
        let arrivals = &sim.proc_ref::<Receiver>(rx).unwrap().arrivals;
        assert_eq!(arrivals.len(), 100);
        assert_eq!(arrivals[0], SimTime::from_millis(5));
        assert_eq!(arrivals[99], SimTime::from_millis(995));
    }

    #[test]
    fn lossy_pipe_drops_are_counted() {
        let (mut sim, _, rx) = cbr_sim(LossConfig::Bernoulli { p: 0.5 });
        sim.run_until(SimTime::from_secs(5));
        let got = sim.proc_ref::<Receiver>(rx).unwrap().arrivals.len() as u64;
        let dropped = sim.counters().get("drop.loss");
        assert_eq!(got + dropped, 100);
        assert!(dropped > 20 && dropped < 80, "dropped={dropped}");
    }

    #[test]
    fn run_with_cadence_ticks_on_schedule_and_processes_everything() {
        let (mut sim, _, rx) = cbr_sim(LossConfig::Perfect);
        let mut ticks: Vec<(SimTime, usize)> = Vec::new();
        sim.run_with_cadence(
            SimTime::from_millis(250),
            SimDuration::from_millis(100),
            |sim, at, _wall| {
                let seen = sim.proc_ref::<Receiver>(rx).unwrap().arrivals.len();
                ticks.push((at, seen));
            },
        );
        // Ticks at 100, 200, and the 250 horizon itself.
        assert_eq!(
            ticks.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            vec![
                SimTime::from_millis(100),
                SimTime::from_millis(200),
                SimTime::from_millis(250),
            ]
        );
        // Arrivals at 5, 15, ... so 10 by t=100, 20 by t=200, 25 by t=250.
        assert_eq!(
            ticks.iter().map(|(_, n)| *n).collect::<Vec<_>>(),
            vec![10, 20, 25]
        );
        // The cadence must not change what gets processed.
        let (mut plain, _, rx2) = cbr_sim(LossConfig::Perfect);
        plain.run_until(SimTime::from_millis(250));
        assert_eq!(
            plain.proc_ref::<Receiver>(rx2).unwrap().arrivals.len(),
            sim.proc_ref::<Receiver>(rx).unwrap().arrivals.len()
        );
        assert_eq!(sim.now(), SimTime::from_millis(250));
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = || {
            let (mut sim, _, rx) = cbr_sim(LossConfig::Bernoulli { p: 0.3 });
            sim.run_until(SimTime::from_secs(5));
            sim.proc_ref::<Receiver>(rx).unwrap().arrivals.clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn crashed_process_receives_nothing_until_restart() {
        let (mut sim, _, rx) = cbr_sim(LossConfig::Perfect);
        sim.schedule(SimTime::from_millis(100), ScenarioEvent::CrashProcess(rx));
        sim.schedule(SimTime::from_millis(500), ScenarioEvent::RestartProcess(rx));
        sim.run_until(SimTime::from_secs(5));
        let arrivals = &sim.proc_ref::<Receiver>(rx).unwrap().arrivals;
        // Packets arriving in [100, 500) are dropped at the process.
        assert!(arrivals
            .iter()
            .all(|&t| t < SimTime::from_millis(100) || t >= SimTime::from_millis(500)));
        assert!(sim.counters().get("drop.process_down") > 0);
        assert!(!arrivals.is_empty());
    }

    #[test]
    fn poke_delivers_a_synthetic_timer_only_while_up() {
        struct Poked {
            tokens: Vec<(SimTime, u64)>,
        }
        impl Process<Msg> for Poked {
            fn on_message(
                &mut self,
                _: &mut Ctx<'_, Msg>,
                _: ProcessId,
                _: Option<PipeId>,
                _: Msg,
            ) {
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
                self.tokens.push((ctx.now(), token));
            }
        }
        let mut sim: Simulation<Msg> = Simulation::new(3);
        let p = sim.add_process(Poked { tokens: Vec::new() });
        sim.schedule(SimTime::from_millis(100), ScenarioEvent::PokeProcess(p, 42));
        sim.schedule(SimTime::from_millis(200), ScenarioEvent::CrashProcess(p));
        // Dropped: the process is down.
        sim.schedule(SimTime::from_millis(300), ScenarioEvent::PokeProcess(p, 43));
        sim.schedule(SimTime::from_millis(400), ScenarioEvent::RestartProcess(p));
        sim.schedule(SimTime::from_millis(500), ScenarioEvent::PokeProcess(p, 44));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(
            sim.proc_ref::<Poked>(p).unwrap().tokens,
            vec![
                (SimTime::from_millis(100), 42),
                (SimTime::from_millis(500), 44),
            ]
        );
    }

    #[test]
    fn disable_pipe_scenario_blocks_traffic() {
        let (mut sim, _, rx) = cbr_sim(LossConfig::Perfect);
        sim.schedule(
            SimTime::from_millis(100),
            ScenarioEvent::DisablePipe(PipeId(0)),
        );
        sim.schedule(
            SimTime::from_millis(300),
            ScenarioEvent::EnablePipe(PipeId(0)),
        );
        sim.run_until(SimTime::from_secs(5));
        let arrivals = &sim.proc_ref::<Receiver>(rx).unwrap().arrivals;
        let blocked = arrivals
            .iter()
            .filter(|&&t| t >= SimTime::from_millis(105) && t < SimTime::from_millis(305))
            .count();
        assert_eq!(blocked, 0);
        assert!(sim.counters().get("drop.down") > 0);
    }

    #[test]
    fn set_pipe_loss_scenario_takes_effect() {
        let (mut sim, _, rx) = cbr_sim(LossConfig::Perfect);
        sim.schedule(
            SimTime::from_millis(500),
            ScenarioEvent::SetPipeLoss(PipeId(0), LossConfig::Bernoulli { p: 1.0 }),
        );
        sim.run_until(SimTime::from_secs(5));
        let arrivals = &sim.proc_ref::<Receiver>(rx).unwrap().arrivals;
        assert!(arrivals.iter().all(|&t| t < SimTime::from_millis(506)));
        assert_eq!(arrivals.len(), 50);
    }

    #[test]
    fn run_until_respects_horizon() {
        let (mut sim, _, rx) = cbr_sim(LossConfig::Perfect);
        sim.run_until(SimTime::from_millis(250));
        assert_eq!(sim.now(), SimTime::from_millis(250));
        let partial = sim.proc_ref::<Receiver>(rx).unwrap().arrivals.len();
        assert_eq!(partial, 25);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.proc_ref::<Receiver>(rx).unwrap().arrivals.len(), 100);
    }

    #[test]
    fn send_direct_bypasses_pipes() {
        struct Relay {
            target: Option<ProcessId>,
        }
        impl Process<Msg> for Relay {
            fn on_message(
                &mut self,
                ctx: &mut Ctx<'_, Msg>,
                _: ProcessId,
                pipe: Option<PipeId>,
                msg: Msg,
            ) {
                assert!(pipe.is_none());
                if let Some(t) = self.target {
                    ctx.send_direct(t, SimDuration::from_micros(10), msg);
                }
            }
        }
        let mut sim = Simulation::new(1);
        let a = sim.add_process(Relay { target: None });
        let b = sim.add_process(Receiver {
            arrivals: Vec::new(),
        });
        sim.proc_mut::<Relay>(a).unwrap().target = Some(b);
        sim.post(SimTime::from_millis(1), a, vec![1]);
        sim.run_until_idle();
        assert_eq!(
            sim.proc_ref::<Receiver>(b).unwrap().arrivals,
            vec![SimTime::from_millis(1) + SimDuration::from_micros(10)]
        );
    }

    #[test]
    #[should_panic(expected = "does not own pipe")]
    fn sending_on_foreign_pipe_panics() {
        struct Rogue {
            pipe: PipeId,
        }
        impl Process<Msg> for Rogue {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                ctx.send(self.pipe, vec![]);
            }
            fn on_message(
                &mut self,
                _: &mut Ctx<'_, Msg>,
                _: ProcessId,
                _: Option<PipeId>,
                _: Msg,
            ) {
            }
        }
        let mut sim = Simulation::new(1);
        let a = sim.add_process(Receiver {
            arrivals: Vec::new(),
        });
        let b = sim.add_process(Receiver {
            arrivals: Vec::new(),
        });
        let ab = sim.pipe(a, b, PipeConfig::default());
        let rogue = sim.add_process(Rogue { pipe: ab });
        let _ = rogue;
        sim.run_until_idle();
    }

    #[test]
    fn proc_ref_wrong_type_is_none() {
        let mut sim: Simulation<Msg> = Simulation::new(1);
        let a = sim.add_process(Receiver {
            arrivals: Vec::new(),
        });
        assert!(sim.proc_ref::<Sender>(a).is_none());
        assert!(sim.proc_ref::<Receiver>(a).is_some());
    }

    #[test]
    fn timers_cancel_cleanly() {
        struct TimerProc {
            fired: Vec<u64>,
        }
        impl Process<Msg> for TimerProc {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                let keep = ctx.set_timer(SimDuration::from_millis(10), 1);
                let cancel = ctx.set_timer(SimDuration::from_millis(20), 2);
                ctx.set_timer(SimDuration::from_millis(30), 3);
                let _ = keep;
                assert!(ctx.cancel_timer(cancel));
            }
            fn on_message(
                &mut self,
                _: &mut Ctx<'_, Msg>,
                _: ProcessId,
                _: Option<PipeId>,
                _: Msg,
            ) {
            }
            fn on_timer(&mut self, _: &mut Ctx<'_, Msg>, token: u64) {
                self.fired.push(token);
            }
        }
        let mut sim = Simulation::new(1);
        let p = sim.add_process(TimerProc { fired: Vec::new() });
        sim.run_until_idle();
        assert_eq!(sim.proc_ref::<TimerProc>(p).unwrap().fired, vec![1, 3]);
    }
}

#[cfg(test)]
mod fingerprint_tests {
    use super::*;
    use crate::loss::LossConfig;

    struct Bouncer {
        out: Option<PipeId>,
    }
    impl Process<Vec<u8>> for Bouncer {
        fn on_message(
            &mut self,
            ctx: &mut Ctx<'_, Vec<u8>>,
            _: ProcessId,
            p: Option<PipeId>,
            m: Vec<u8>,
        ) {
            // Injected messages (pipe None) start the bounce on `out`;
            // pipe arrivals bounce back over the reverse direction.
            if let Some(pipe) = p.and_then(|p| ctx.reverse_pipe(p)).or(self.out) {
                ctx.send(pipe, m)
            }
        }
    }

    fn run(seed: u64) -> u64 {
        let mut sim = Simulation::new(seed);
        let a = sim.add_process(Bouncer { out: None });
        let b = sim.add_process(Bouncer { out: None });
        let (ab, _) = sim.connect(
            a,
            b,
            PipeConfig::with_latency(SimDuration::from_millis(5))
                .loss(LossConfig::Bernoulli { p: 0.1 }),
        );
        sim.proc_mut::<Bouncer>(a).unwrap().out = Some(ab);
        for i in 0..50 {
            sim.post(SimTime::from_millis(i), a, vec![0u8; 64]);
        }
        sim.run_until(SimTime::from_secs(2));
        sim.fingerprint()
    }

    #[test]
    fn same_seed_same_fingerprint() {
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn different_seed_different_fingerprint() {
        // With 10% loss per bounce the two seeds' bounce counts diverge;
        // pick seeds verified to differ (the check is deterministic).
        let fps: Vec<u64> = (0..8).map(run).collect();
        let distinct: std::collections::HashSet<u64> = fps.iter().copied().collect();
        assert!(
            distinct.len() > 1,
            "at least two of eight seeds must differ: {fps:?}"
        );
    }

    #[test]
    fn fingerprint_changes_as_the_run_progresses() {
        let mut sim: Simulation<Vec<u8>> = Simulation::new(1);
        let a = sim.add_process(Bouncer { out: None });
        let f0 = sim.fingerprint();
        sim.post(SimTime::from_millis(1), a, vec![1]);
        sim.run_until(SimTime::from_secs(1));
        assert_ne!(sim.fingerprint(), f0);
    }
}

#[cfg(test)]
mod ring_tests {
    use super::*;
    use crate::loss::LossConfig;

    type Msg = Vec<u8>;

    /// A ring node: forwards every arrival to its successor, seeds traffic
    /// from a periodic timer, keeps a far-future timer it cancels late, and
    /// now and then sends its successor a direct message.
    struct RingNode {
        next: Option<PipeId>,
        peer: Option<ProcessId>,
        arrivals: Vec<SimTime>,
        doomed: Option<TimerId>,
        sent: u32,
    }

    const SEND: u64 = 1;
    const CANCEL: u64 = 2;
    const DOOMED: u64 = 3;

    impl Process<Msg> for RingNode {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            ctx.set_timer(SimDuration::from_millis(7), SEND);
            self.doomed = Some(ctx.set_timer(SimDuration::from_secs(30), DOOMED));
            ctx.set_timer(SimDuration::from_millis(897), CANCEL);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _: ProcessId, p: Option<PipeId>, m: Msg) {
            self.arrivals.push(ctx.now());
            // Forward around the ring, shrinking so packets die out.
            if m.len() > 1 && p.is_some() {
                if let Some(next) = self.next {
                    ctx.send(next, m[1..].to_vec());
                }
                if let (0, Some(peer)) = (m.len() % 16, self.peer) {
                    ctx.send_direct(peer, SimDuration::from_millis(6), vec![7; 3]);
                }
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
            match token {
                SEND => {
                    if self.sent < 40 {
                        self.sent += 1;
                        if let Some(next) = self.next {
                            ctx.send(next, vec![0u8; 64]);
                        }
                        ctx.set_timer(SimDuration::from_millis(7), SEND);
                    }
                }
                CANCEL => {
                    if let Some(doomed) = self.doomed.take() {
                        assert!(ctx.cancel_timer(doomed), "doomed timer still pending");
                    }
                }
                DOOMED => panic!("cancelled timer fired"),
                _ => unreachable!(),
            }
        }
    }

    /// `n` ring nodes over lossy 5 ms pipes, with a message posted into
    /// the side slab and a crash and a pipe outage scripted mid-run.
    fn ring_sim(n: usize, seed: u64) -> Simulation<Msg> {
        let mut sim = Simulation::new(seed);
        let pids: Vec<ProcessId> = (0..n)
            .map(|_| {
                sim.add_process(RingNode {
                    next: None,
                    peer: None,
                    arrivals: Vec::new(),
                    doomed: None,
                    sent: 0,
                })
            })
            .collect();
        for i in 0..n {
            let (fwd, _) = sim.connect(
                pids[i],
                pids[(i + 1) % n],
                PipeConfig::with_latency(SimDuration::from_millis(5))
                    .loss(LossConfig::Bernoulli { p: 0.05 }),
            );
            let node = sim.proc_mut::<RingNode>(pids[i]).unwrap();
            node.next = Some(fwd);
            node.peer = Some(pids[(i + 1) % n]);
        }
        sim.post(SimTime::from_millis(150), pids[1], vec![9; 2]);
        let (down, up) = (SimTime::from_millis(300), SimTime::from_millis(700));
        sim.schedule(down, ScenarioEvent::CrashProcess(pids[n / 2]));
        sim.schedule(up, ScenarioEvent::RestartProcess(pids[n / 2]));
        sim.schedule(down, ScenarioEvent::DisablePipe(PipeId(2)));
        sim.schedule(up, ScenarioEvent::EnablePipe(PipeId(2)));
        sim
    }

    fn observe(sim: &Simulation<Msg>, n: usize) -> (u64, u64, Vec<Vec<SimTime>>) {
        let arrivals = (0..n)
            .map(|i| {
                sim.proc_ref::<RingNode>(ProcessId(i))
                    .unwrap()
                    .arrivals
                    .clone()
            })
            .collect();
        (sim.fingerprint(), sim.events_processed(), arrivals)
    }

    fn one_shot(n: usize, seed: u64, horizon: SimTime) -> (u64, u64, Vec<Vec<SimTime>>) {
        let mut sim = ring_sim(n, seed);
        sim.run_until(horizon);
        observe(&sim, n)
    }

    #[test]
    fn cadence_run_matches_one_shot_run() {
        let horizon = SimTime::from_secs(2);
        let mut sim = ring_sim(8, 7);
        let mut ticks = 0;
        sim.run_with_cadence(horizon, SimDuration::from_millis(100), |_, _, _| ticks += 1);
        assert_eq!(ticks, 20);
        assert_eq!(sim.now(), horizon);
        assert_eq!(observe(&sim, 8), one_shot(8, 7, horizon));
    }

    #[test]
    fn a_run_split_at_any_horizon_equals_one_run() {
        let horizon = SimTime::from_secs(2);
        let whole = one_shot(8, 5, horizon);
        // Before the first event, on the crash, on the late cancel, and
        // between events.
        for split_ms in [0, 300, 333, 897, 1_500] {
            let mut sim = ring_sim(8, 5);
            sim.run_until(SimTime::from_millis(split_ms));
            sim.run_until(horizon);
            assert_eq!(observe(&sim, 8), whole, "split at {split_ms} ms");
        }
    }
}
