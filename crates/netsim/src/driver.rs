//! The driver abstraction: what carries a [`Process`](crate::process::Process)'s
//! effects — sends, timers, counters — and what clock it runs against.
//!
//! Every process handler receives a [`Ctx`](crate::sim::Ctx), which is a thin
//! view over a [`Driver`]. The simulator's [`SimCore`](crate::sim::SimCore)
//! is one driver: virtual time, modelled pipes, a deterministic event queue.
//! A real daemon binary supplies another: wall-clock time anchored to a
//! shared epoch, wall-clock timers, and datagrams pushed through a
//! [`Transport`]. Process state machines compile against `Ctx` alone, so the
//! same unmodified protocol code runs in both worlds — the simulator is a
//! *peer* of the real transport, not the only home the protocols have.
//!
//! [`Transport`] is the second half of the split: a framed-datagram carrier
//! addressed by peer index. It lives here (rather than in the daemon crate)
//! so deterministic in-memory transports used by tests and the real UDP
//! transport implement one shared contract.

use crate::link::PipeId;
use crate::process::{Outgoing, ProcessId, SimMessage, TimerId};
use crate::rng::SimRng;
use crate::sim::Event;
use crate::time::{SimDuration, SimTime};
use crate::underlay::{Attachment, UEdgeId};

/// The effect surface a [`Ctx`](crate::sim::Ctx) forwards to: clock, RNG
/// streams, pipe sends, timers, and counters. Methods take the acting
/// process id explicitly; `Ctx` curries it.
///
/// Implementations decide what the operations *mean*: the simulator models
/// loss and latency and queues a surviving frame's encoded bytes on its
/// virtual-time queue, while a wall-clock driver encodes frames onto a real
/// transport and keeps a timer heap against the system clock.
pub trait Driver<M: SimMessage> {
    /// The current time on this driver's clock (virtual or epoch-anchored
    /// wall clock).
    fn now(&self) -> SimTime;

    /// The deterministic RNG stream of process `pid`.
    fn rng(&mut self, pid: ProcessId) -> &mut SimRng;

    /// Sends `msg` from `pid` over `pipe`.
    fn send(&mut self, pid: ProcessId, pipe: PipeId, msg: M);

    /// Sends a borrowed `msg` — an `M` or a part of one that encodes as
    /// the whole ([`Outgoing`]) — from `pid` over `pipe`. The default
    /// builds the message into [`send`](Self::send); a driver that puts
    /// bytes on the pipe overrides it and encodes straight from the borrow.
    fn send_ref(&mut self, pid: ProcessId, pipe: PipeId, msg: &dyn Outgoing<M>) {
        self.send(pid, pipe, msg.to_message());
    }

    /// Sends `msg` from `pid` directly to `to` after `delay`, bypassing any
    /// pipe (local IPC between colocated processes).
    fn send_direct(&mut self, pid: ProcessId, to: ProcessId, delay: SimDuration, msg: M);

    /// Sets a timer for `pid` firing after `delay` with `token`.
    fn set_timer(&mut self, pid: ProcessId, delay: SimDuration, token: u64) -> TimerId;

    /// Cancels a pending timer of `pid`; `false` if it already fired or if
    /// `timer` names anything else (another process's timer, a frame). A
    /// handle kept across 2^32 reuses of its queue slot may name a later one.
    fn cancel_timer(&mut self, pid: ProcessId, timer: TimerId) -> bool;

    /// The reverse direction of a pipe pair, if registered.
    fn reverse_pipe(&self, pipe: PipeId) -> Option<PipeId>;

    /// The far endpoint of a pipe.
    fn pipe_dst(&self, pipe: PipeId) -> ProcessId;

    /// Re-binds a pipe to a different ISP attachment (provider switching).
    /// Drivers without an underlay model treat this as a no-op.
    fn rebind_pipe(&mut self, pipe: PipeId, attachment: Attachment);

    /// The underlay edges a pipe currently traverses, if modelled.
    fn pipe_route(&mut self, pipe: PipeId) -> Option<Vec<UEdgeId>>;

    /// Increments a global counter.
    fn count(&mut self, name: &str);

    /// Adds to a global counter.
    fn count_add(&mut self, name: &str, n: u64);
}

/// A framed-datagram carrier between a daemon and its peers.
///
/// One instance belongs to one daemon; peers are addressed by a small dense
/// index the daemon assigns (in practice: the peer's overlay node id). The
/// contract is deliberately UDP-shaped — unreliable, unordered, bounded
/// frames — so the deterministic in-memory implementation used by tests and
/// the `std::net::UdpSocket` implementation used by the real daemon are
/// interchangeable. Frame payloads are the overlay wire codec's bytes; a
/// transport never inspects them.
pub trait Transport {
    /// Sends one framed datagram to `peer`. A send error is fatal for the
    /// frame (datagram semantics: no retry at this layer).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error, e.g. when the socket is gone.
    fn send_to(&mut self, peer: usize, frame: &[u8]) -> std::io::Result<()>;

    /// Receives the next pending datagram, without blocking: `Ok(None)`
    /// when nothing is queued, or when the transport stopped reading early
    /// (see [`backlogged`](Self::backlogged)).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error, e.g. when the socket is gone.
    fn recv_from(&mut self) -> std::io::Result<Option<(usize, Vec<u8>)>>;

    /// Whether the last [`recv_from`](Self::recv_from) answered `Ok(None)`
    /// with datagrams still queued: a transport may stop reading past
    /// noise (datagrams from unknown sources) so that its caller's timers
    /// get their turn, and the caller must not take that `None` for
    /// "empty". The default suits a transport whose `None` always is.
    fn backlogged(&self) -> bool {
        false
    }

    /// Blocks until [`recv_from`](Self::recv_from) has something to return
    /// or `timeout` has passed, whichever comes first; `Ok(true)` means a
    /// datagram (or a pending socket error) is ready. May return `Ok(false)`
    /// early — on a signal, say — so callers re-read their clock instead of
    /// assuming the timeout elapsed.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error, e.g. when the socket is gone.
    fn wait_readable(&mut self, timeout: std::time::Duration) -> std::io::Result<bool>;
}

impl<M: SimMessage> Driver<M> for crate::sim::SimCore<M> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn rng(&mut self, pid: ProcessId) -> &mut SimRng {
        &mut self.proc_rngs[pid.0]
    }

    fn send(&mut self, pid: ProcessId, pipe: PipeId, msg: M) {
        self.send_on_pipe(pid, pipe, &msg);
    }

    fn send_ref(&mut self, pid: ProcessId, pipe: PipeId, msg: &dyn Outgoing<M>) {
        self.send_on_pipe(pid, pipe, msg);
    }

    fn send_direct(&mut self, pid: ProcessId, to: ProcessId, delay: SimDuration, msg: M) {
        self.schedule_direct(pid, to, self.now + delay, msg);
    }

    fn set_timer(&mut self, pid: ProcessId, delay: SimDuration, token: u64) -> TimerId {
        let timer = Event::Timer { proc: pid, token };
        TimerId(self.queue.schedule(self.now + delay, timer))
    }

    fn cancel_timer(&mut self, pid: ProcessId, timer: TimerId) -> bool {
        let mine = |e: &Event<M>| matches!(e, Event::Timer { proc, .. } if *proc == pid);
        self.queue.cancel_if(timer.0, mine)
    }

    fn reverse_pipe(&self, pipe: PipeId) -> Option<PipeId> {
        self.reverse.get(pipe.0).copied().flatten()
    }

    fn pipe_dst(&self, pipe: PipeId) -> ProcessId {
        self.pipes[pipe.0].dst()
    }

    fn rebind_pipe(&mut self, pipe: PipeId, attachment: Attachment) {
        self.pipes[pipe.0].rebind(attachment);
    }

    fn pipe_route(&mut self, pipe: PipeId) -> Option<Vec<UEdgeId>> {
        let now = self.now;
        self.pipes[pipe.0].current_route(now, &mut self.underlay)
    }

    fn count(&mut self, name: &str) {
        self.counters.incr(name);
    }

    fn count_add(&mut self, name: &str, n: u64) {
        self.counters.add(name, n);
    }
}
