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
/// Messages must be cloneable (redundant dissemination duplicates them).
/// They must also be `Send`: a real daemon's runtime (son-node's
/// `NodeRuntime`), with the messages its processes hold, is built on one
/// thread and may be run or handed back on another.
///
/// A message that crosses a pipe travels as bytes: the simulator encodes
/// it with [`encode_frame`](Self::encode_frame), offers the pipe that many
/// bytes (its bandwidth and its `pipe.bytes` counter see the frame's
/// length), queues the bytes if the pipe lets them through, and the
/// receiver decodes them ([`Process::on_frame`]). Messages handed over
/// without a pipe (`send_direct`, `post`) travel by value and are never
/// encoded.
pub trait SimMessage: Clone + std::fmt::Debug + Send + 'static {
    /// What the decoding of a frame may borrow from the message it was
    /// encoded from (an immutable shared allocation the decoder can point
    /// at instead of copying). It travels with the frame's bytes.
    type Hint: Default + Send + 'static;

    /// Classification for drop attribution. Defaults to
    /// [`MessageKind::Control`]; message types carrying application payload
    /// override this so pipe drops are attributed to the data plane.
    fn kind(&self) -> MessageKind {
        MessageKind::Control
    }

    /// Appends the bytes this message crosses a pipe as to `buf`.
    fn encode_frame(&self, buf: &mut Vec<u8>);

    /// The hint [`decode_frame`](Self::decode_frame) receives with this
    /// message's bytes. Defaults to none.
    fn frame_hint(&self) -> Self::Hint {
        Self::Hint::default()
    }

    /// Decodes the bytes [`encode_frame`](Self::encode_frame) wrote, or
    /// `None` if they are not such bytes. The hint may change where the
    /// result's parts live, never what it is.
    fn decode_frame(frame: &[u8], hint: &Self::Hint) -> Option<Self>;
}

impl SimMessage for Vec<u8> {
    type Hint = ();

    fn encode_frame(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self);
    }

    fn decode_frame(frame: &[u8], (): &()) -> Option<Self> {
        Some(frame.to_vec())
    }
}

impl SimMessage for String {
    type Hint = ();

    fn encode_frame(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self.as_bytes());
    }

    fn decode_frame(frame: &[u8], (): &()) -> Option<Self> {
        String::from_utf8(frame.to_vec()).ok()
    }
}

impl SimMessage for bytes::Bytes {
    type Hint = ();

    fn encode_frame(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self);
    }

    fn decode_frame(frame: &[u8], (): &()) -> Option<Self> {
        Some(bytes::Bytes::copy_from_slice(frame))
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
/// The `Send` supertrait lets a real daemon's runtime (son-node's
/// `NodeRuntime`), which owns its processes, move between threads: a
/// cluster spawns one thread per daemon and joins the runtimes back. A
/// process therefore cannot hold `Rc`/thread-bound interior mutability
/// (plain owned state and `Arc`s of `Send + Sync` data are fine).
pub trait Process<M: SimMessage>: Any + Send {
    /// Called once when the simulation starts.
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        let _ = ctx;
    }

    /// Called when a message arrives. `pipe` identifies the incoming pipe, or
    /// `None` for direct (local IPC) sends.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: ProcessId, pipe: Option<PipeId>, msg: M);

    /// Called when a frame arrives over `pipe`: the bytes the sender's
    /// message encoded to, and the hint that came with them. Returns
    /// `false`, having done nothing, if the bytes do not decode; what a
    /// refusal costs is the caller's policy (the simulator, which encoded
    /// the bytes itself, panics; a daemon reading a socket counts it). The
    /// default decodes the message and hands it to
    /// [`on_message`](Self::on_message); a process that handles some frames
    /// without building the whole message overrides it.
    fn on_frame(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        from: ProcessId,
        pipe: PipeId,
        frame: &[u8],
        hint: &M::Hint,
    ) -> bool {
        let Some(msg) = M::decode_frame(frame, hint) else {
            return false;
        };
        self.on_message(ctx, from, Some(pipe), msg);
        true
    }

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
