//! Broadcast-quality video transport (§III-A) and live video (§IV-A).
//!
//! Video is modelled at the transport level: a constant-cadence packet
//! stream whose quality is judged by what a decoder cares about — every
//! packet, in order, on time, without freezes. [`VideoProfile`] generates
//! the client workload and [`score`] turns a client's receive log into a
//! [`VideoQualityReport`].

use son_netsim::time::{SimDuration, SimTime};
use son_overlay::client::{FlowRecv, Workload};

/// A video stream's transport-level shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VideoProfile {
    /// Stream bitrate in bits per second.
    pub bitrate_bps: u64,
    /// Transport packet payload size in bytes.
    pub packet_size: usize,
}

impl VideoProfile {
    /// Standard-definition broadcast contribution feed: 8 Mbit/s in 1316-byte
    /// MPEG-TS-style packets (7 × 188 bytes).
    #[must_use]
    pub fn broadcast_sd() -> Self {
        VideoProfile {
            bitrate_bps: 8_000_000,
            packet_size: 1316,
        }
    }

    /// A lighter proxy/preview stream.
    #[must_use]
    pub fn proxy() -> Self {
        VideoProfile {
            bitrate_bps: 1_000_000,
            packet_size: 1316,
        }
    }

    /// The inter-packet gap this profile produces.
    #[must_use]
    pub fn packet_interval(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.packet_size as f64 * 8.0 / self.bitrate_bps as f64)
    }

    /// Number of packets in `duration` of stream.
    #[must_use]
    pub fn packets_in(&self, duration: SimDuration) -> u64 {
        (duration.as_secs_f64() / self.packet_interval().as_secs_f64()).floor() as u64
    }

    /// The CBR workload carrying `duration` of this stream starting at
    /// `start`.
    #[must_use]
    pub fn workload(&self, start: SimTime, duration: SimDuration) -> Workload {
        Workload::Cbr {
            size: self.packet_size,
            interval: self.packet_interval(),
            count: self.packets_in(duration),
            start,
        }
    }
}

/// A GOP (group-of-pictures) structure for variable-bitrate video: large I
/// frames followed by smaller P/B frames, each frame split into
/// transport-size packets. VBR streams stress schedulers and recovery
/// differently from CBR: loss of an I-frame burst hurts more, and the
/// instantaneous rate swings by the I/P ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GopProfile {
    /// Frames per second.
    pub fps: u32,
    /// Frames per GOP (one I frame per GOP).
    pub gop_len: u32,
    /// I-frame size in bytes.
    pub i_frame_bytes: usize,
    /// P-frame size in bytes.
    pub p_frame_bytes: usize,
    /// Transport packet payload size.
    pub packet_size: usize,
}

impl GopProfile {
    /// A 30 fps stream with a 15-frame GOP, ~6 Mbit/s average.
    #[must_use]
    pub fn standard() -> Self {
        GopProfile {
            fps: 30,
            gop_len: 15,
            i_frame_bytes: 90_000,
            p_frame_bytes: 18_000,
            packet_size: 1316,
        }
    }

    /// Builds the packet schedule for `duration` of stream starting at
    /// `start`: each frame's packets are paced across its frame interval.
    #[must_use]
    pub fn schedule(&self, start: SimTime, duration: SimDuration) -> Vec<(SimTime, usize)> {
        let frame_interval = SimDuration::from_secs_f64(1.0 / f64::from(self.fps));
        let frames = (duration.as_secs_f64() * f64::from(self.fps)) as u64;
        let mut out = Vec::new();
        for f in 0..frames {
            let frame_start = start + frame_interval * f;
            let bytes = if f % u64::from(self.gop_len) == 0 {
                self.i_frame_bytes
            } else {
                self.p_frame_bytes
            };
            let packets = bytes.div_ceil(self.packet_size);
            let pacing = frame_interval / packets as u64;
            for p in 0..packets {
                let size = if p == packets - 1 {
                    bytes - self.packet_size * (packets - 1)
                } else {
                    self.packet_size
                };
                out.push((frame_start + pacing * p as u64, size));
            }
        }
        out
    }

    /// The VBR workload carrying `duration` of this stream.
    #[must_use]
    pub fn workload(&self, start: SimTime, duration: SimDuration) -> Workload {
        Workload::Trace {
            schedule: std::sync::Arc::new(self.schedule(start, duration)),
        }
    }
}

/// What a decoder would say about a received stream.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoQualityReport {
    /// Packets delivered / packets sent.
    pub delivered_frac: f64,
    /// Mean one-way delivery latency, ms.
    pub mean_latency_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_latency_ms: f64,
    /// Worst-case latency, ms.
    pub max_latency_ms: f64,
    /// Mean inter-delivery jitter, ms.
    pub mean_jitter_ms: f64,
    /// Delivery gaps exceeding the freeze threshold.
    pub freezes: u64,
    /// The longest delivery gap, ms.
    pub longest_freeze_ms: f64,
    /// Fraction of deliveries within the deadline (1.0 when no deadline).
    pub within_deadline_frac: f64,
    /// Decoder continuity with a 100 ms playout buffer: the fraction of
    /// *sent* packets available in time for playout (losses and
    /// late-recovered packets both count as glitches).
    pub continuity_100ms: f64,
}

/// A delivery gap longer than this many packet intervals counts as a
/// visible freeze.
pub const FREEZE_INTERVALS: f64 = 8.0;

/// Scores a receive log against the stream that was sent.
///
/// # Panics
///
/// Panics if `sent` is zero.
#[must_use]
pub fn score(
    recv: &FlowRecv,
    sent: u64,
    profile: &VideoProfile,
    deadline: Option<SimDuration>,
) -> VideoQualityReport {
    assert!(sent > 0, "cannot score an empty stream");
    let mut latency = recv.latency_ms();
    let freeze_threshold = profile.packet_interval().as_millis_f64() * FREEZE_INTERVALS;
    let mut freezes = 0;
    let mut longest: f64 = 0.0;
    for w in recv.arrivals.windows(2) {
        let gap = w[1].0.saturating_since(w[0].0).as_millis_f64();
        if gap > freeze_threshold {
            freezes += 1;
        }
        longest = longest.max(gap);
    }
    let within = match deadline {
        None => 1.0,
        Some(d) => latency.fraction_within(d.as_millis_f64()).unwrap_or(0.0),
    };
    let delivered_frac = recv.received as f64 / sent as f64;
    let continuity_100ms = latency.fraction_within(100.0).unwrap_or(0.0) * delivered_frac;
    VideoQualityReport {
        delivered_frac,
        mean_latency_ms: latency.mean().unwrap_or(0.0),
        p99_latency_ms: latency.quantile(0.99).unwrap_or(0.0),
        max_latency_ms: latency.max().unwrap_or(0.0),
        mean_jitter_ms: recv.jitter_ms().mean().unwrap_or(0.0),
        freezes,
        longest_freeze_ms: longest,
        within_deadline_frac: within,
        continuity_100ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_cadence_matches_bitrate() {
        let p = VideoProfile::broadcast_sd();
        // 1316 B * 8 / 8e6 = 1.316 ms per packet.
        assert!((p.packet_interval().as_millis_f64() - 1.316).abs() < 1e-9);
        assert_eq!(p.packets_in(SimDuration::from_secs(1)), 759);
    }

    #[test]
    fn workload_shape() {
        let p = VideoProfile::proxy();
        match p.workload(SimTime::from_millis(500), SimDuration::from_secs(2)) {
            Workload::Cbr {
                size, count, start, ..
            } => {
                assert_eq!(size, 1316);
                assert_eq!(count, p.packets_in(SimDuration::from_secs(2)));
                assert_eq!(start, SimTime::from_millis(500));
            }
            other => panic!("unexpected workload {other:?}"),
        }
    }

    fn recv_with(arrival_gaps_ms: &[f64], latencies_ms: &[f64]) -> FlowRecv {
        let mut r = FlowRecv::default();
        let mut t = SimTime::from_millis(100);
        for (i, (&gap, &lat)) in arrival_gaps_ms.iter().zip(latencies_ms).enumerate() {
            t += SimDuration::from_millis_f64(gap);
            r.arrivals.push((t, i as u64 + 1));
            r.latencies_ms.push(lat);
            r.received += 1;
        }
        r
    }

    #[test]
    fn score_counts_freezes_and_deadline() {
        let p = VideoProfile::broadcast_sd(); // ~1.3ms cadence, freeze > ~10.5ms
        let recv = recv_with(&[0.0, 1.3, 50.0, 1.3], &[10.0, 11.0, 61.0, 12.0]);
        let report = score(&recv, 8, &p, Some(SimDuration::from_millis(40)));
        assert!((report.delivered_frac - 0.5).abs() < 1e-12);
        assert_eq!(report.freezes, 1);
        assert!((report.longest_freeze_ms - 50.0).abs() < 1e-9);
        assert!((report.within_deadline_frac - 0.75).abs() < 1e-12);
        assert!(report.max_latency_ms >= 61.0);
    }

    #[test]
    fn score_perfect_stream() {
        let p = VideoProfile::broadcast_sd();
        let gaps = vec![1.3; 100];
        let lats = vec![20.0; 100];
        let recv = recv_with(&gaps, &lats);
        let report = score(&recv, 100, &p, None);
        assert_eq!(report.delivered_frac, 1.0);
        assert_eq!(report.freezes, 0);
        assert_eq!(report.within_deadline_frac, 1.0);
        assert!((report.mean_latency_ms - 20.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty stream")]
    fn score_rejects_zero_sent() {
        let p = VideoProfile::proxy();
        let _ = score(&FlowRecv::default(), 0, &p, None);
    }

    #[test]
    fn gop_schedule_shape() {
        let g = GopProfile::standard();
        // 90000/1316 = 69 pkts per I frame; 18000/1316 = 14 per P frame.
        let sched = g.schedule(SimTime::from_secs(1), SimDuration::from_secs(1));
        assert!(!sched.is_empty());
        // Two GOPs in one second at 30fps/15: 2 I frames.
        let total_bytes: usize = sched.iter().map(|&(_, s)| s).sum();
        assert_eq!(total_bytes, 2 * (90_000 + 14 * 18_000));
        // Times are nondecreasing and within [1s, 2s).
        assert!(sched.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(sched.first().unwrap().0 >= SimTime::from_secs(1));
        assert!(sched.last().unwrap().0 < SimTime::from_secs(2));
    }

    #[test]
    fn gop_workload_is_a_trace() {
        let g = GopProfile::standard();
        match g.workload(SimTime::ZERO, SimDuration::from_secs(1)) {
            Workload::Trace { schedule } => assert!(!schedule.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }
}
