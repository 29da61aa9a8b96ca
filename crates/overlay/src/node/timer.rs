//! Typed daemon timers.
//!
//! The simulator hands timers back as a bare `u64`; every daemon timer is
//! the bit-packed encoding of a [`TimerKey`], so the `on_timer` path
//! pattern-matches a typed key instead of masking magic constants. The bit
//! layout is pinned (round-trip and legacy-layout tests below) because
//! timer tokens participate in event ordering: changing the encoding would
//! change seeded runs.

// Timer token component tags (top 8 bits of the u64 token).
const TAG_CONN_TICK: u64 = 1 << 56;
const TAG_LINK: u64 = 2 << 56;
const TAG_SESSION: u64 = 3 << 56;
const TAG_FLOOD: u64 = 4 << 56;
const TAG_DELAYED_FWD: u64 = 5 << 56;
const TAG_WATCH_TICK: u64 = 6 << 56;
const TAG_MEMBERSHIP_TICK: u64 = 7 << 56;
const TAG_GRACEFUL_LEAVE: u64 = 8 << 56;
const TAG_JOIN_RETRY: u64 = 9 << 56;
const TAG_MASK: u64 = 0xff << 56;

/// A typed daemon timer, bit-packed into the simulator's `u64` token.
///
/// Layout: the tag lives in the top 8 bits; [`TimerKey::Link`] packs
/// `link` into bits 40..56, `slot` into bits 32..40, and the protocol's
/// own `token` into the low 32 bits; the other payload-carrying variants
/// use only the low 32 bits. [`TimerKey::encode`] and [`TimerKey::decode`]
/// are exact inverses over every representable key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimerKey {
    /// Periodic connectivity-monitor tick (hellos, LSA refresh).
    ConnTick,
    /// A link-protocol timer on one `(link, slot)` protocol instance.
    Link {
        /// Local link index.
        link: u16,
        /// Service slot of the protocol that armed the timer.
        slot: u8,
        /// The protocol's own discriminator, echoed back to it.
        token: u32,
    },
    /// A session-layer ordered-release timer.
    Session {
        /// The session table's discriminator.
        token: u32,
    },
    /// Adversarial flood pacing tick.
    Flood,
    /// Release of a packet held by a Delay adversary.
    DelayedForward {
        /// Key into the daemon's delayed-packet map.
        token: u32,
    },
    /// Periodic anomaly-watchdog evaluation epoch.
    WatchTick,
    /// Periodic membership-maintenance epoch (liveness re-derivation,
    /// departed-state eviction).
    MembershipTick,
    /// Graceful-shutdown trigger: flood the leave announcement and withdraw
    /// the own LSA. Delivered by the harness (scenario poke) or an operator
    /// signal; never self-armed.
    GracefulLeave,
    /// Retry of an unanswered bootstrap join request.
    JoinRetry,
}

impl TimerKey {
    /// Packs this key into the simulator's `u64` timer token.
    #[must_use]
    pub const fn encode(self) -> u64 {
        match self {
            TimerKey::ConnTick => TAG_CONN_TICK,
            TimerKey::Link { link, slot, token } => {
                TAG_LINK | ((link as u64) << 40) | ((slot as u64) << 32) | token as u64
            }
            TimerKey::Session { token } => TAG_SESSION | token as u64,
            TimerKey::Flood => TAG_FLOOD,
            TimerKey::DelayedForward { token } => TAG_DELAYED_FWD | token as u64,
            TimerKey::WatchTick => TAG_WATCH_TICK,
            TimerKey::MembershipTick => TAG_MEMBERSHIP_TICK,
            TimerKey::GracefulLeave => TAG_GRACEFUL_LEAVE,
            TimerKey::JoinRetry => TAG_JOIN_RETRY,
        }
    }

    /// Unpacks a raw timer token; `None` for unknown tags (e.g. stale
    /// tokens from a daemon version that no longer exists).
    #[must_use]
    pub const fn decode(raw: u64) -> Option<TimerKey> {
        match raw & TAG_MASK {
            TAG_CONN_TICK => Some(TimerKey::ConnTick),
            TAG_LINK => Some(TimerKey::Link {
                link: ((raw >> 40) & 0xffff) as u16,
                slot: ((raw >> 32) & 0xff) as u8,
                token: (raw & 0xffff_ffff) as u32,
            }),
            TAG_SESSION => Some(TimerKey::Session {
                token: (raw & 0xffff_ffff) as u32,
            }),
            TAG_FLOOD => Some(TimerKey::Flood),
            TAG_DELAYED_FWD => Some(TimerKey::DelayedForward {
                token: (raw & 0xffff_ffff) as u32,
            }),
            TAG_WATCH_TICK => Some(TimerKey::WatchTick),
            TAG_MEMBERSHIP_TICK => Some(TimerKey::MembershipTick),
            TAG_GRACEFUL_LEAVE => Some(TimerKey::GracefulLeave),
            TAG_JOIN_RETRY => Some(TimerKey::JoinRetry),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every representable key, at its boundary values.
    fn boundary_keys() -> Vec<TimerKey> {
        let mut keys = vec![
            TimerKey::ConnTick,
            TimerKey::Flood,
            TimerKey::WatchTick,
            TimerKey::MembershipTick,
            TimerKey::GracefulLeave,
            TimerKey::JoinRetry,
        ];
        for token in [0u32, 1, 77, u32::MAX] {
            keys.push(TimerKey::Session { token });
            keys.push(TimerKey::DelayedForward { token });
            for link in [0u16, 1, 5, u16::MAX] {
                for slot in [0u8, 2, u8::MAX] {
                    keys.push(TimerKey::Link { link, slot, token });
                }
            }
        }
        keys
    }

    #[test]
    fn timer_key_round_trips_at_boundaries() {
        for key in boundary_keys() {
            assert_eq!(TimerKey::decode(key.encode()), Some(key), "{key:?}");
        }
    }

    #[test]
    fn timer_key_encodings_are_distinct() {
        let keys = boundary_keys();
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a.encode(), b.encode(), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn timer_key_layout_matches_legacy_bit_packing() {
        // The pre-TimerKey daemon packed link timers as
        // `2<<56 | link<<40 | slot<<32 | token`; sessions as `3<<56 | token`.
        // Decoding must accept exactly those words (simulator determinism).
        let legacy_link = (2u64 << 56) | (5u64 << 40) | (2u64 << 32) | 77;
        assert_eq!(
            TimerKey::decode(legacy_link),
            Some(TimerKey::Link {
                link: 5,
                slot: 2,
                token: 77
            })
        );
        let legacy_session = (3u64 << 56) | 1234;
        assert_eq!(
            TimerKey::decode(legacy_session),
            Some(TimerKey::Session { token: 1234 })
        );
        assert_eq!(TimerKey::ConnTick.encode(), 1u64 << 56);
        assert_eq!(TimerKey::Flood.encode(), 4u64 << 56);
        assert_eq!(TimerKey::WatchTick.encode(), 6u64 << 56);
        assert_eq!(TimerKey::MembershipTick.encode(), 7u64 << 56);
        assert_eq!(TimerKey::GracefulLeave.encode(), 8u64 << 56);
        assert_eq!(TimerKey::JoinRetry.encode(), 9u64 << 56);
    }

    #[test]
    fn unknown_tags_decode_to_none() {
        assert_eq!(TimerKey::decode(0), None);
        assert_eq!(TimerKey::decode(12u64 << 56), None);
        assert_eq!(TimerKey::decode(u64::MAX), None);
    }

    proptest! {
        fn timer_key_round_trips_exhaustively(
            link in any::<u16>(),
            slot in any::<u8>(),
            token in any::<u32>(),
        ) {
            for key in [
                TimerKey::Link { link, slot, token },
                TimerKey::Session { token },
                TimerKey::DelayedForward { token },
            ] {
                prop_assert_eq!(TimerKey::decode(key.encode()), Some(key));
            }
        }

        fn decode_never_panics_and_reencodes_identically(raw in any::<u64>()) {
            if let Some(key) = TimerKey::decode(raw) {
                // Re-encoding a decoded key reproduces the payload bits the
                // daemon actually reads (tag + defined payload fields).
                let enc = key.encode();
                prop_assert_eq!(TimerKey::decode(enc), Some(key));
            }
        }
    }
}
