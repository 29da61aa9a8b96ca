//! Property-based tests for the application layer.

use proptest::prelude::*;
use son_apps::scada::Msg;
use son_apps::video::{GopProfile, VideoProfile};
use son_netsim::time::{SimDuration, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// SCADA agreement messages round-trip through their wire encoding.
    fn scada_msg_roundtrip(kind in 0u8..4, a in any::<u64>(), b in any::<u64>(), r in any::<u16>()) {
        let msg = match kind {
            0 => Msg::Event(a, b),
            1 => Msg::Propose(a, b, a ^ b),
            2 => Msg::Echo(a, b, a ^ b, r),
            _ => Msg::Command(a, b, a ^ b),
        };
        prop_assert_eq!(Msg::decode(&msg.encode()), Some(msg));
    }

    /// Corrupt/truncated payloads never decode to a panic — just `None` or
    /// some well-formed message.
    fn scada_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = Msg::decode(&bytes);
    }

    /// GOP schedules conserve bytes, stay in order, and fit the window.
    fn gop_schedule_invariants(
        fps in 10u32..60,
        gop_len in 2u32..30,
        i_kb in 20usize..200,
        p_kb in 2usize..40,
        secs in 1u64..5,
    ) {
        let profile = GopProfile {
            fps,
            gop_len,
            i_frame_bytes: i_kb * 1000,
            p_frame_bytes: p_kb * 1000,
            packet_size: 1316,
        };
        let start = SimTime::from_millis(100);
        let duration = SimDuration::from_secs(secs);
        let sched = profile.schedule(start, duration);
        prop_assert!(!sched.is_empty());
        // Nondecreasing times within [start, start + duration).
        prop_assert!(sched.windows(2).all(|w| w[0].0 <= w[1].0));
        prop_assert!(sched.first().unwrap().0 >= start);
        prop_assert!(sched.last().unwrap().0 < start + duration);
        // Byte conservation: frames * sizes.
        let frames = (secs * u64::from(fps)) as usize;
        let i_frames = frames.div_ceil(gop_len as usize);
        let expected = i_frames * profile.i_frame_bytes
            + (frames - i_frames) * profile.p_frame_bytes;
        let total: usize = sched.iter().map(|&(_, s)| s).sum();
        prop_assert_eq!(total, expected);
        // No packet exceeds the transport size.
        prop_assert!(sched.iter().all(|&(_, s)| s > 0 && s <= 1316));
    }

    /// CBR profiles: packets_in x interval never exceeds the duration.
    fn cbr_profile_fits_duration(bitrate_mbps in 1u64..50, secs in 1u64..30) {
        let p = VideoProfile { bitrate_bps: bitrate_mbps * 1_000_000, packet_size: 1316 };
        let n = p.packets_in(SimDuration::from_secs(secs));
        let span = p.packet_interval() * n;
        prop_assert!(span <= SimDuration::from_secs(secs));
        // And it is within one packet interval of filling it.
        prop_assert!(span + p.packet_interval() + SimDuration::from_nanos(n) >= SimDuration::from_secs(secs));
    }
}
