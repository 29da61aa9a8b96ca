//! Property-based tests for the simulation substrate.

use proptest::prelude::*;
use son_netsim::event::EventQueue;
use son_netsim::link::{Pipe, PipeConfig, Transmit};
use son_netsim::loss::{LossConfig, LossProcess};
use son_netsim::process::ProcessId;
use son_netsim::rng::SimRng;
use son_netsim::stats::Percentiles;
use son_netsim::time::{SimDuration, SimTime};
use son_netsim::underlay::{Attachment, UnderlayBuilder};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The event queue pops in nondecreasing time order, FIFO within ties.
    fn event_queue_is_a_stable_priority_queue(
        times in proptest::collection::vec(0u64..50, 1..200),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_millis(t), (t, i));
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((at, (t, i))) = q.pop() {
            prop_assert_eq!(at, SimTime::from_millis(t));
            if let Some((prev_at, prev_i)) = last {
                prop_assert!(at >= prev_at);
                if at == prev_at {
                    prop_assert!(i > prev_i, "FIFO violated within a tie");
                }
            }
            last = Some((at, i));
        }
    }

    /// Cancelling a random subset removes exactly those events.
    fn event_queue_cancellation_is_exact(
        cancel_mask in proptest::collection::vec(any::<bool>(), 50),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> =
            (0..50u64).map(|i| q.schedule(SimTime::from_millis(i), i)).collect();
        for (id, &cancel) in ids.iter().zip(&cancel_mask) {
            if cancel {
                prop_assert!(q.cancel(*id));
            }
        }
        let mut survived = Vec::new();
        while let Some((_, i)) = q.pop() {
            survived.push(i);
        }
        let expected: Vec<u64> = (0..50u64)
            .filter(|&i| !cancel_mask[i as usize])
            .collect();
        prop_assert_eq!(survived, expected);
    }

    /// A lossless, jitterless pipe delivers in FIFO order with nondecreasing
    /// arrival times, even with finite bandwidth.
    fn pipe_preserves_fifo_order(
        sizes in proptest::collection::vec(1usize..3000, 1..100),
        gaps_us in proptest::collection::vec(0u64..2000, 1..100),
    ) {
        let mut pipe = Pipe::new(
            ProcessId(0),
            ProcessId(1),
            PipeConfig::with_latency(SimDuration::from_millis(10))
                .bandwidth(10_000_000, usize::MAX / 2),
            SimRng::seed(1),
        );
        let mut underlay = None;
        let mut now = SimTime::ZERO;
        let mut last_arrival = SimTime::ZERO;
        for (size, gap) in sizes.iter().zip(&gaps_us) {
            now += SimDuration::from_micros(*gap);
            match pipe.transmit(now, *size, &mut underlay) {
                Transmit::Arrives(at) => {
                    prop_assert!(at >= last_arrival, "reordering on a FIFO pipe");
                    prop_assert!(at >= now + SimDuration::from_millis(10));
                    last_arrival = at;
                }
                Transmit::Dropped(r) => {
                    prop_assert!(false, "lossless pipe dropped: {r:?}");
                }
            }
        }
    }

    /// The Gilbert–Elliott process's long-run loss tracks its steady state.
    fn gilbert_elliott_long_run_rate(
        good_ms in 50u64..500,
        bad_ms in 5u64..50,
        seed in 0u64..1000,
    ) {
        let cfg = LossConfig::bursts(
            SimDuration::from_millis(good_ms),
            SimDuration::from_millis(bad_ms),
        );
        let expected = cfg.steady_state_loss();
        let mut proc = LossProcess::new(cfg);
        let mut rng = SimRng::seed(seed);
        let mut t = SimTime::ZERO;
        let mut drops = 0u64;
        let n = 200_000u64;
        for _ in 0..n {
            if proc.drops(t, &mut rng) {
                drops += 1;
            }
            t += SimDuration::from_micros(250);
        }
        let rate = drops as f64 / n as f64;
        prop_assert!((rate - expected).abs() < 0.05 + expected * 0.5,
            "rate {rate} vs steady state {expected}");
    }

    /// Percentile queries are bounded by min/max and monotone in q.
    fn percentiles_are_monotone(samples in proptest::collection::vec(-1e6f64..1e6, 1..300)) {
        let mut p: Percentiles = samples.iter().copied().collect();
        let min = p.quantile(0.0).unwrap();
        let max = p.quantile(1.0).unwrap();
        let mut prev = min;
        for i in 0..=10 {
            let q = p.quantile(f64::from(i) / 10.0).unwrap();
            prop_assert!(q >= prev - 1e-9);
            prop_assert!(q >= min - 1e-9 && q <= max + 1e-9);
            prev = q;
        }
    }

    /// Underlay resolution is symmetric and additive over its edges.
    fn underlay_paths_symmetric_and_additive(
        latencies in proptest::collection::vec(1u64..50, 4),
    ) {
        // A 5-city line with the given per-hop latencies.
        let mut b = UnderlayBuilder::new();
        let cities: Vec<_> = (0..5).map(|i| b.city(&format!("C{i}"), 0.0, f64::from(i))).collect();
        let isp = b.isp("One");
        for &c in &cities {
            b.router(isp, c);
        }
        for (i, &ms) in latencies.iter().enumerate() {
            b.fiber_with_latency(isp, cities[i], cities[i + 1], SimDuration::from_millis(ms));
        }
        let mut ul = b.build(SimDuration::from_secs(40));
        let fwd = ul.resolve(SimTime::ZERO, Attachment::OnNet(isp), cities[0], cities[4]).unwrap();
        let rev = ul.resolve(SimTime::ZERO, Attachment::OnNet(isp), cities[4], cities[0]).unwrap();
        prop_assert_eq!(fwd.latency, rev.latency);
        let sum: u64 = latencies.iter().sum();
        prop_assert_eq!(fwd.latency, SimDuration::from_millis(sum));
        prop_assert_eq!(fwd.edges.len(), 4);
    }

    /// Fork labels partition the RNG space: distinct labels give streams
    /// that differ, identical labels agree, independent of draw order.
    fn rng_forks_are_stable(seed in any::<u64>(), label in "[a-z]{1,12}") {
        use rand::RngCore;
        let root = SimRng::seed(seed);
        let mut a = root.fork(&label);
        let mut b = SimRng::seed(seed).fork(&label);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut other = root.fork(&format!("{label}x"));
        let same = (0..16).all(|_| {
            let x = SimRng::seed(seed).fork(&label).next_u64();
            x == other.next_u64()
        });
        prop_assert!(!same, "distinct labels should diverge");
    }
}
