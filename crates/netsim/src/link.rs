//! Point-to-point simulated links ("pipes") between processes.
//!
//! A [`Pipe`] is one *direction* of communication between two processes. It
//! models propagation latency, uniform jitter, bandwidth serialization with a
//! finite drop-tail queue, a stochastic [loss process](crate::loss), and an
//! optional [underlay binding](crate::underlay) that makes the pipe's latency
//! and liveness follow a real route through an ISP backbone (including
//! BGP-style blackholes during convergence).
//!
//! Overlay links are built from two pipes, one per direction.

use son_obs::DropClass;

use crate::loss::{LossConfig, LossState};
use crate::process::ProcessId;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::underlay::{Attachment, CityId, LatencyMemo, ResolveError, UEdgeId, Underlay};

/// Identifies a pipe within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PipeId(pub usize);

/// Static configuration of one pipe direction.
#[derive(Debug, Clone, PartialEq)]
pub struct PipeConfig {
    /// Base propagation latency (ignored when an underlay binding resolves).
    pub latency: SimDuration,
    /// Uniform jitter added per packet, drawn from `[0, jitter)`.
    pub jitter: SimDuration,
    /// Serialization bandwidth in bits per second; `None` = infinite.
    pub bandwidth_bps: Option<u64>,
    /// Maximum backlog in bytes before drop-tail (only meaningful with
    /// finite bandwidth).
    pub queue_bytes: usize,
    /// Stochastic loss model applied per packet.
    pub loss: LossConfig,
    /// If set, latency/liveness follow an underlay route instead of
    /// [`PipeConfig::latency`].
    pub binding: Option<PipeBinding>,
}

/// Binds a pipe onto the underlay: packets follow the current route of the
/// given attachment between two cities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipeBinding {
    /// Which provider(s) carry the traffic.
    pub attachment: Attachment,
    /// City of the sending process.
    pub from: CityId,
    /// City of the receiving process.
    pub to: CityId,
}

impl Default for PipeConfig {
    fn default() -> Self {
        PipeConfig {
            latency: SimDuration::from_millis(10),
            jitter: SimDuration::ZERO,
            bandwidth_bps: None,
            queue_bytes: 1 << 20,
            loss: LossConfig::Perfect,
            binding: None,
        }
    }
}

impl PipeConfig {
    /// A lossless pipe with the given fixed latency and infinite bandwidth.
    #[must_use]
    pub fn with_latency(latency: SimDuration) -> Self {
        PipeConfig {
            latency,
            ..Default::default()
        }
    }

    /// Sets the loss model.
    #[must_use]
    pub fn loss(mut self, loss: LossConfig) -> Self {
        self.loss = loss;
        self
    }

    /// Sets uniform per-packet jitter in `[0, jitter)`.
    #[must_use]
    pub fn jitter(mut self, jitter: SimDuration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Sets finite bandwidth and queue capacity.
    #[must_use]
    pub fn bandwidth(mut self, bps: u64, queue_bytes: usize) -> Self {
        self.bandwidth_bps = Some(bps);
        self.queue_bytes = queue_bytes;
        self
    }

    /// Binds the pipe to an underlay route.
    #[must_use]
    pub fn bound(mut self, binding: PipeBinding) -> Self {
        self.binding = Some(binding);
        self
    }
}

/// Why a packet offered to a pipe was not delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// The stochastic loss process dropped it.
    Loss,
    /// The serialization queue was full.
    QueueFull,
    /// The underlay route is blackholed (stale BGP route over a dead link).
    Blackholed,
    /// No underlay route exists at all.
    NoRoute,
    /// The pipe was administratively disabled.
    Down,
}

impl DropReason {
    /// This reason's class in the cross-layer drop taxonomy.
    #[must_use]
    pub fn class(self) -> DropClass {
        match self {
            DropReason::Loss => DropClass::Loss,
            DropReason::QueueFull => DropClass::QueueFull,
            DropReason::Blackholed => DropClass::Blackholed,
            DropReason::NoRoute => DropClass::NoRoute,
            DropReason::Down => DropClass::Down,
        }
    }

    /// Stable label for counters (delegates to the unified taxonomy).
    #[must_use]
    pub fn label(self) -> &'static str {
        self.class().label()
    }
}

/// The outcome of offering one packet to a pipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transmit {
    /// The packet will arrive at the far end at the given time.
    Arrives(SimTime),
    /// The packet is lost.
    Dropped(DropReason),
}

/// Live state of one pipe direction.
#[derive(Debug)]
pub struct Pipe {
    src: ProcessId,
    dst: ProcessId,
    config: PipeConfig,
    /// The loss process on `config.loss`.
    loss: LossState,
    rng: SimRng,
    /// When the serializer frees up (bandwidth modelling).
    next_free: SimTime,
    /// Administrative state (scenario scripts can disable a pipe outright).
    enabled: bool,
    /// The underlay's last answer for the binding (see
    /// [`Underlay::latency_memo`]); cleared when the binding changes.
    latency_memo: LatencyMemo,
    /// Packets and bytes offered/delivered/dropped, for diagnostics.
    pub(crate) offered: u64,
    pub(crate) delivered: u64,
    pub(crate) dropped: u64,
}

impl Pipe {
    /// Creates a pipe from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if the loss model in `config` is invalid.
    #[must_use]
    pub fn new(src: ProcessId, dst: ProcessId, config: PipeConfig, rng: SimRng) -> Self {
        let loss = LossState::new(&config.loss);
        Pipe {
            src,
            dst,
            config,
            loss,
            rng,
            next_free: SimTime::ZERO,
            enabled: true,
            latency_memo: None,
            offered: 0,
            delivered: 0,
            dropped: 0,
        }
    }

    /// Sending endpoint.
    #[must_use]
    pub fn src(&self) -> ProcessId {
        self.src
    }

    /// Receiving endpoint.
    #[must_use]
    pub fn dst(&self) -> ProcessId {
        self.dst
    }

    /// Current configuration.
    #[must_use]
    pub fn config(&self) -> &PipeConfig {
        &self.config
    }

    /// Administratively enables or disables the pipe.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Replaces the loss model (scenario scripts use this to degrade links).
    ///
    /// # Panics
    ///
    /// Panics if the new loss model is invalid.
    pub fn set_loss(&mut self, loss: LossConfig) {
        self.loss = LossState::new(&loss);
        self.config.loss = loss;
    }

    /// Re-binds the pipe to a different underlay attachment (the overlay's
    /// "choose a different combination of ISPs" capability).
    pub fn rebind(&mut self, attachment: Attachment) {
        if let Some(binding) = &mut self.config.binding {
            binding.attachment = attachment;
            self.latency_memo = None;
        }
    }

    /// The underlay edges the pipe currently traverses, if bound and routable.
    pub fn current_route(
        &self,
        now: SimTime,
        underlay: &mut Option<Underlay>,
    ) -> Option<Vec<UEdgeId>> {
        let binding = self.config.binding.as_ref()?;
        let ul = underlay.as_mut()?;
        ul.resolve(now, binding.attachment, binding.from, binding.to)
            .ok()
            .map(|p| p.edges)
    }

    /// Offers one packet of `size_bytes` to the pipe at `now`.
    ///
    /// Returns when it arrives at the far end, or why it was dropped. The
    /// pipe's own statistics are updated either way.
    pub fn transmit(
        &mut self,
        now: SimTime,
        size_bytes: usize,
        underlay: &mut Option<Underlay>,
    ) -> Transmit {
        self.offered += 1;
        let outcome = self.transmit_inner(now, size_bytes, underlay);
        match outcome {
            Transmit::Arrives(_) => self.delivered += 1,
            Transmit::Dropped(_) => self.dropped += 1,
        }
        outcome
    }

    fn transmit_inner(
        &mut self,
        now: SimTime,
        size_bytes: usize,
        underlay: &mut Option<Underlay>,
    ) -> Transmit {
        if !self.enabled {
            return Transmit::Dropped(DropReason::Down);
        }
        // Resolve propagation latency, possibly via the underlay.
        let propagation = if let Some(binding) = self.config.binding {
            let Some(ul) = underlay.as_mut() else {
                return Transmit::Dropped(DropReason::NoRoute);
            };
            let memo = &mut self.latency_memo;
            match ul.latency_memo(now, binding.attachment, binding.from, binding.to, memo) {
                Ok(latency) => latency,
                Err(ResolveError::Blackholed) => return Transmit::Dropped(DropReason::Blackholed),
                Err(ResolveError::NoRoute) => return Transmit::Dropped(DropReason::NoRoute),
            }
        } else {
            self.config.latency
        };
        // Bandwidth serialization with drop-tail queue.
        let departure = if let Some(bps) = self.config.bandwidth_bps {
            let backlog_ns = self.next_free.saturating_since(now).as_nanos();
            let backlog_bytes = (backlog_ns as f64 * bps as f64 / 8e9) as usize;
            if backlog_bytes + size_bytes > self.config.queue_bytes {
                return Transmit::Dropped(DropReason::QueueFull);
            }
            let tx = SimDuration::from_secs_f64(size_bytes as f64 * 8.0 / bps as f64);
            let start = now.max(self.next_free);
            self.next_free = start + tx;
            self.next_free
        } else {
            now
        };
        // Stochastic loss (sampled at send time).
        if self.loss.drops(&self.config.loss, now, &mut self.rng) {
            return Transmit::Dropped(DropReason::Loss);
        }
        let jitter = if self.config.jitter.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(
                self.rng
                    .uniform_u64(0, self.config.jitter.as_nanos().max(1)),
            )
        };
        Transmit::Arrives(departure + propagation + jitter)
    }

    /// `(offered, delivered, dropped)` packet counts so far.
    #[must_use]
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.offered, self.delivered, self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipe(config: PipeConfig) -> Pipe {
        Pipe::new(ProcessId(0), ProcessId(1), config, SimRng::seed(1))
    }

    #[test]
    fn fixed_latency_delivery() {
        let mut p = pipe(PipeConfig::with_latency(SimDuration::from_millis(10)));
        let mut ul = None;
        match p.transmit(SimTime::from_millis(5), 1000, &mut ul) {
            Transmit::Arrives(at) => assert_eq!(at, SimTime::from_millis(15)),
            other => panic!("expected arrival, got {other:?}"),
        }
        assert_eq!(p.stats(), (1, 1, 0));
    }

    #[test]
    fn jitter_stays_in_range() {
        let mut p = pipe(
            PipeConfig::with_latency(SimDuration::from_millis(10))
                .jitter(SimDuration::from_millis(2)),
        );
        let mut ul = None;
        for _ in 0..200 {
            match p.transmit(SimTime::ZERO, 100, &mut ul) {
                Transmit::Arrives(at) => {
                    assert!(at >= SimTime::from_millis(10));
                    assert!(at < SimTime::from_millis(12));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn bandwidth_serializes_back_to_back_packets() {
        // 8 Mbps -> a 1000-byte packet takes 1 ms to serialize.
        let mut p = pipe(
            PipeConfig::with_latency(SimDuration::from_millis(10)).bandwidth(8_000_000, 1 << 20),
        );
        let mut ul = None;
        let a1 = match p.transmit(SimTime::ZERO, 1000, &mut ul) {
            Transmit::Arrives(at) => at,
            other => panic!("unexpected {other:?}"),
        };
        let a2 = match p.transmit(SimTime::ZERO, 1000, &mut ul) {
            Transmit::Arrives(at) => at,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(a1, SimTime::from_millis(11));
        assert_eq!(
            a2,
            SimTime::from_millis(12),
            "second packet waits for the serializer"
        );
    }

    #[test]
    fn queue_overflow_drops_tail() {
        // 8 Mbps, queue of 2000 bytes: two queued packets fit, the third drops.
        let mut p =
            pipe(PipeConfig::with_latency(SimDuration::from_millis(1)).bandwidth(8_000_000, 2000));
        let mut ul = None;
        // Backlog (including the packet in serialization) is capped at 2000
        // bytes, so two packets fit and the third is tail-dropped.
        assert!(matches!(
            p.transmit(SimTime::ZERO, 1000, &mut ul),
            Transmit::Arrives(_)
        ));
        assert!(matches!(
            p.transmit(SimTime::ZERO, 1000, &mut ul),
            Transmit::Arrives(_)
        ));
        match p.transmit(SimTime::ZERO, 1000, &mut ul) {
            Transmit::Dropped(DropReason::QueueFull) => {}
            other => panic!("expected queue drop, got {other:?}"),
        }
        // After the queue drains, transmission succeeds again.
        assert!(matches!(
            p.transmit(SimTime::from_millis(10), 1000, &mut ul),
            Transmit::Arrives(_)
        ));
    }

    #[test]
    fn disabled_pipe_drops_everything() {
        let mut p = pipe(PipeConfig::default());
        p.set_enabled(false);
        let mut ul = None;
        assert_eq!(
            p.transmit(SimTime::ZERO, 10, &mut ul),
            Transmit::Dropped(DropReason::Down)
        );
        p.set_enabled(true);
        assert!(matches!(
            p.transmit(SimTime::ZERO, 10, &mut ul),
            Transmit::Arrives(_)
        ));
    }

    #[test]
    fn bernoulli_loss_drops_roughly_p() {
        let mut p = pipe(PipeConfig::default().loss(LossConfig::Bernoulli { p: 0.25 }));
        let mut ul = None;
        let mut drops = 0;
        for _ in 0..10_000 {
            if matches!(p.transmit(SimTime::ZERO, 10, &mut ul), Transmit::Dropped(_)) {
                drops += 1;
            }
        }
        let rate = f64::from(drops) / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate={rate}");
    }

    #[test]
    fn binding_without_underlay_is_no_route() {
        let binding = PipeBinding {
            attachment: Attachment::OnNet(crate::underlay::IspId(0)),
            from: CityId(0),
            to: CityId(1),
        };
        let mut p = pipe(PipeConfig::default().bound(binding));
        let mut ul = None;
        assert_eq!(
            p.transmit(SimTime::ZERO, 10, &mut ul),
            Transmit::Dropped(DropReason::NoRoute)
        );
    }

    #[test]
    fn bound_pipe_follows_underlay_failures() {
        use crate::underlay::UnderlayBuilder;
        let mut b = UnderlayBuilder::new();
        let a = b.city("A", 0.0, 0.0);
        let c = b.city("C", 1000.0, 0.0);
        let isp = b.isp("One");
        b.router(isp, a);
        b.router(isp, c);
        let edge = b.fiber(isp, a, c);
        let mut underlay = Some(b.build(SimDuration::from_secs(40)));

        let binding = PipeBinding {
            attachment: Attachment::OnNet(isp),
            from: a,
            to: c,
        };
        let mut p = pipe(PipeConfig::default().bound(binding));

        match p.transmit(SimTime::ZERO, 10, &mut underlay) {
            Transmit::Arrives(at) => {
                assert!(
                    (at.as_millis_f64() - 6.0).abs() < 1e-6,
                    "1000km*1.2/200 = 6ms"
                )
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            p.current_route(SimTime::ZERO, &mut underlay),
            Some(vec![edge])
        );

        underlay
            .as_mut()
            .unwrap()
            .fail_edge(edge, SimTime::from_secs(1));
        assert_eq!(
            p.transmit(SimTime::from_secs(2), 10, &mut underlay),
            Transmit::Dropped(DropReason::Blackholed)
        );
    }

    #[test]
    fn drop_reason_labels_are_stable() {
        assert_eq!(DropReason::Loss.label(), "drop.loss");
        assert_eq!(DropReason::QueueFull.label(), "drop.queue_full");
        assert_eq!(DropReason::Blackholed.label(), "drop.blackholed");
        assert_eq!(DropReason::NoRoute.label(), "drop.no_route");
        assert_eq!(DropReason::Down.label(), "drop.down");
    }
}
