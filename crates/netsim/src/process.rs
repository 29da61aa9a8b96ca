//! The process abstraction: anything that lives inside the simulation —
//! overlay daemons, clients, adversaries — implements [`Process`].

use std::any::Any;

use crate::link::PipeId;
use crate::sim::Ctx;

/// Identifies a process within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub usize);

impl std::fmt::Display for ProcessId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A handle to a pending timer, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(pub(crate) crate::event::EventId);

impl TimerId {
    /// Reconstructs a timer handle from raw bits. Only meaningful to the
    /// driver that minted it; non-sim drivers use this to mint handles in
    /// their own id space.
    #[must_use]
    pub fn from_raw(raw: u64) -> TimerId {
        TimerId(crate::event::EventId::from_raw(raw))
    }

    /// The raw bits of this handle.
    #[must_use]
    pub fn as_raw(self) -> u64 {
        self.0.as_raw()
    }
}

/// Classification of a message for observability attribution.
///
/// The simulator tallies dropped *data* packets separately from control
/// traffic (acks, hellos, link-state floods), so an experiment can state
/// exact conservation: data packets sent = delivered + attributed drops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// Application payload, identified by flow and sequence number.
    Data {
        /// Flow identifier.
        flow: u64,
        /// Sequence number within the flow.
        seq: u64,
    },
    /// Protocol control traffic.
    Control,
}

/// The type carried by simulation messages.
///
/// Messages must be cloneable (redundant dissemination duplicates them) and
/// report a wire size so pipes can model bandwidth and overhead accounting.
/// They must also be `Send`: the sharded simulation core moves in-flight
/// messages between worker threads at window barriers.
pub trait SimMessage: Clone + std::fmt::Debug + Send + 'static {
    /// The number of bytes this message occupies on the wire.
    fn wire_size(&self) -> usize;

    /// Classification for drop attribution. Defaults to
    /// [`MessageKind::Control`]; message types carrying application payload
    /// override this so pipe drops are attributed to the data plane.
    fn kind(&self) -> MessageKind {
        MessageKind::Control
    }
}

impl SimMessage for Vec<u8> {
    fn wire_size(&self) -> usize {
        self.len()
    }
}

impl SimMessage for String {
    fn wire_size(&self) -> usize {
        self.len()
    }
}

impl SimMessage for bytes::Bytes {
    fn wire_size(&self) -> usize {
        self.len()
    }
}

/// An event-driven simulated process.
///
/// Handlers receive a [`Ctx`] giving access to the clock, timers, pipes, and
/// the process's own deterministic RNG stream. All handlers run to completion
/// before the next event fires (the usual discrete-event discipline), so a
/// process never observes partial state from another.
///
/// The `Any` supertrait lets experiments downcast processes back to their
/// concrete type after a run to harvest metrics
/// (see [`Simulation::proc_ref`](crate::sim::Simulation::proc_ref)).
///
/// The `Send` supertrait lets the sharded simulation core move process
/// state machines onto worker threads; a process therefore cannot hold
/// `Rc`/thread-bound interior mutability (plain owned state and `Arc`s of
/// `Send + Sync` data are fine).
pub trait Process<M: SimMessage>: Any + Send {
    /// Called once when the simulation starts.
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        let _ = ctx;
    }

    /// Called when a message arrives. `pipe` identifies the incoming pipe, or
    /// `None` for direct (local IPC) sends.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: ProcessId, pipe: Option<PipeId>, msg: M);

    /// Called when a timer set via [`Ctx::set_timer`] fires. `token` is the
    /// caller-chosen discriminator.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, token: u64) {
        let _ = (ctx, token);
    }

    /// Called when the simulation stops this process (a crash fault).
    fn on_crash(&mut self, at: crate::time::SimTime) {
        let _ = at;
    }
}
