//! Ready-made underlay topologies used across experiments.
//!
//! The flagship is [`continental_us`], a 12-city, 3-ISP model of a US-scale
//! Internet matching the paper's setting: overlay links of roughly 10 ms,
//! coast-to-coast propagation of 35–40 ms, and ISP backbones that overlap in
//! cities but use distinct fiber, so multihoming buys real physical
//! disjointness (§II-A).

use crate::link::PipeId;
use crate::loss::LossConfig;
use crate::process::{ProcessId, SimMessage};
use crate::rng::SimRng;
use crate::sim::{ScenarioEvent, Simulation};
use crate::time::{SimDuration, SimTime};
use crate::underlay::{CityId, IspId, UEdgeId, Underlay, UnderlayBuilder};

/// A built underlay plus the handles experiments need to reference it.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The underlay itself.
    pub underlay: Underlay,
    /// All cities, in creation order.
    pub cities: Vec<CityId>,
    /// City names parallel to `cities`.
    pub city_names: Vec<&'static str>,
    /// All ISPs, in creation order.
    pub isps: Vec<IspId>,
    /// Every fiber edge, per ISP.
    pub edges_by_isp: Vec<Vec<UEdgeId>>,
}

impl Scenario {
    /// Looks up a city id by name.
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown.
    #[must_use]
    pub fn city(&self, name: &str) -> CityId {
        let idx = self
            .city_names
            .iter()
            .position(|&n| n == name)
            .unwrap_or_else(|| panic!("unknown city {name}"));
        self.cities[idx]
    }
}

/// Default BGP-like convergence delay: the paper cites "40 seconds to
/// minutes" for Internet routing to converge during some faults (§II-A).
pub const DEFAULT_CONVERGENCE: SimDuration = SimDuration::from_secs(40);

/// Approximate planar coordinates (km) for 12 major US cities, east at x=0.
/// Distances are within ~10% of driving-distance-style fiber lengths, which
/// is all the latency model needs.
const US_CITIES: [(&str, f64, f64); 12] = [
    ("NYC", 0.0, 0.0),
    ("BOS", 100.0, 300.0),
    ("DC", -100.0, -300.0),
    ("ATL", -600.0, -1100.0),
    ("MIA", -700.0, -2000.0),
    ("CHI", -1150.0, 200.0),
    ("DAL", -2100.0, -1000.0),
    ("HOU", -2200.0, -1300.0),
    ("DEN", -2600.0, 0.0),
    ("SEA", -3900.0, 900.0),
    ("SF", -4100.0, -300.0),
    ("LA", -3900.0, -800.0),
];

/// Builds the 12-city / 3-ISP continental US underlay.
///
/// Each ISP covers all 12 cities but wires them differently, so overlay
/// paths over different providers traverse physically disjoint fiber. The
/// convergence delay models BGP (default: [`DEFAULT_CONVERGENCE`]).
#[must_use]
pub fn continental_us(convergence: SimDuration) -> Scenario {
    let mut b = UnderlayBuilder::new();
    let cities: Vec<CityId> = US_CITIES
        .iter()
        .map(|&(name, x, y)| b.city(name, x, y))
        .collect();
    let names: Vec<&'static str> = US_CITIES.iter().map(|&(n, ..)| n).collect();
    let find = |n: &str| cities[names.iter().position(|&x| x == n).unwrap()];

    let isp_links: [(&str, &[(&str, &str)]); 3] = [
        // A ring-heavy national carrier.
        (
            "TransCont",
            &[
                ("NYC", "BOS"),
                ("NYC", "DC"),
                ("DC", "ATL"),
                ("ATL", "MIA"),
                ("ATL", "DAL"),
                ("DAL", "HOU"),
                ("DAL", "DEN"),
                ("DEN", "SF"),
                ("SF", "SEA"),
                ("SF", "LA"),
                ("NYC", "CHI"),
                ("CHI", "DEN"),
                ("BOS", "CHI"),
                ("HOU", "LA"),
            ],
        ),
        // A mesh-y carrier with more east-west express links.
        (
            "FiberNet",
            &[
                ("NYC", "DC"),
                ("NYC", "CHI"),
                ("DC", "CHI"),
                ("DC", "ATL"),
                ("ATL", "HOU"),
                ("HOU", "DAL"),
                ("CHI", "DAL"),
                ("CHI", "SEA"),
                ("DAL", "LA"),
                ("LA", "SF"),
                ("SEA", "SF"),
                ("BOS", "NYC"),
                ("MIA", "ATL"),
                ("DEN", "CHI"),
                ("DEN", "LA"),
            ],
        ),
        // A southern-route carrier.
        (
            "SouthernX",
            &[
                ("BOS", "NYC"),
                ("NYC", "DC"),
                ("DC", "ATL"),
                ("ATL", "MIA"),
                ("MIA", "HOU"),
                ("HOU", "DAL"),
                ("DAL", "DEN"),
                ("HOU", "LA"),
                ("LA", "SF"),
                ("LA", "SEA"),
                ("ATL", "CHI"),
                ("CHI", "NYC"),
                ("DEN", "SEA"),
            ],
        ),
    ];

    let mut isps = Vec::new();
    let mut edges_by_isp = Vec::new();
    for (isp_name, links) in isp_links {
        let isp = b.isp(isp_name);
        for &c in &cities {
            b.router(isp, c);
        }
        let mut edges = Vec::new();
        for &(a, z) in links {
            edges.push(b.fiber(isp, find(a), find(z)));
        }
        isps.push(isp);
        edges_by_isp.push(edges);
    }

    Scenario {
        underlay: b.build(convergence),
        cities,
        city_names: names,
        isps,
        edges_by_isp,
    }
}

/// Approximate planar coordinates (km) for 20 world cities, projected so
/// pairwise distances roughly match great-circle distances along populated
/// routes. Used for the paper's global-coverage claim: "about 150ms is
/// sufficient to reach nearly any point on the globe" (§II-A).
const WORLD_CITIES: [(&str, f64, f64); 20] = [
    ("NYC", 0.0, 0.0),
    ("CHI", -1150.0, 200.0),
    ("SF", -4100.0, -300.0),
    ("SEA", -3900.0, 900.0),
    ("MIA", -700.0, -2000.0),
    ("LON", 5570.0, 800.0),
    ("PAR", 5850.0, 500.0),
    ("FRA", 6200.0, 600.0),
    ("MAD", 5400.0, -400.0),
    ("STO", 6300.0, 2000.0),
    ("DXB", 11000.0, -1500.0),
    ("BOM", 12500.0, -2500.0),
    ("SIN", 15300.0, -4200.0),
    ("HKG", 16000.0, -2500.0),
    ("TYO", 10800.0, 2500.0), // via trans-pacific from SEA: special-cased link
    ("SYD", 15500.0, -7000.0),
    ("GRU", 4800.0, -7700.0), // São Paulo
    ("SCL", 800.0, -8200.0),  // Santiago
    ("JNB", 8900.0, -6500.0), // Johannesburg
    ("CAI", 7700.0, -1800.0), // Cairo
];

/// Submarine/long-haul links of the global backbone, with explicit one-way
/// latencies in milliseconds (cable routes, not geodesics).
const WORLD_LINKS: [(&str, &str, f64); 28] = [
    // North America
    ("NYC", "CHI", 7.0),
    ("CHI", "SEA", 17.0),
    ("CHI", "SF", 18.0),
    ("SF", "SEA", 7.3),
    ("NYC", "MIA", 11.0),
    // Transatlantic
    ("NYC", "LON", 33.0),
    ("NYC", "PAR", 35.0),
    ("MIA", "MAD", 38.0),
    // Europe
    ("LON", "PAR", 2.5),
    ("LON", "FRA", 4.0),
    ("PAR", "FRA", 2.9),
    ("PAR", "MAD", 5.3),
    ("FRA", "STO", 6.0),
    ("LON", "MAD", 6.5),
    // Middle East / Africa / Asia
    ("FRA", "CAI", 14.0),
    ("CAI", "DXB", 12.0),
    ("DXB", "BOM", 9.5),
    ("BOM", "SIN", 17.0),
    ("SIN", "HKG", 13.0),
    ("HKG", "TYO", 14.5),
    ("CAI", "JNB", 32.0),
    // Transpacific
    ("SEA", "TYO", 38.0),
    ("SF", "TYO", 41.0),
    ("SF", "HKG", 55.0),
    // Oceania / South America
    ("SYD", "SIN", 31.0),
    ("SYD", "SF", 60.0),
    ("GRU", "MIA", 33.0),
    ("SCL", "GRU", 13.0),
];

/// Builds a 20-city global underlay with two providers over the same cable
/// systems (distinct fiber pairs, slightly different latencies).
#[must_use]
pub fn global_20(convergence: SimDuration) -> Scenario {
    let mut b = UnderlayBuilder::new();
    let cities: Vec<CityId> = WORLD_CITIES
        .iter()
        .map(|&(name, x, y)| b.city(name, x, y))
        .collect();
    let names: Vec<&'static str> = WORLD_CITIES.iter().map(|&(n, ..)| n).collect();
    let find = |n: &str| cities[names.iter().position(|&x| x == n).unwrap()];

    let mut isps = Vec::new();
    let mut edges_by_isp = Vec::new();
    for (isp_idx, isp_name) in ["GlobalOne", "SeaCable"].iter().enumerate() {
        let isp = b.isp(isp_name);
        for &c in &cities {
            b.router(isp, c);
        }
        let mut edges = Vec::new();
        for &(x, y, ms) in &WORLD_LINKS {
            // The second provider's fiber pair runs ~5% longer.
            let latency = ms * (1.0 + 0.05 * isp_idx as f64);
            edges.push(b.fiber_with_latency(
                isp,
                find(x),
                find(y),
                SimDuration::from_millis_f64(latency),
            ));
        }
        isps.push(isp);
        edges_by_isp.push(edges);
    }
    Scenario {
        underlay: b.build(convergence),
        cities,
        city_names: names,
        isps,
        edges_by_isp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use crate::underlay::Attachment;

    #[test]
    fn continental_us_is_fully_connected_on_every_isp() {
        let sc = continental_us(DEFAULT_CONVERGENCE);
        let mut ul = sc.underlay.clone();
        for &isp in &sc.isps {
            for &a in &sc.cities {
                for &b in &sc.cities {
                    if a != b {
                        ul.resolve(SimTime::ZERO, Attachment::OnNet(isp), a, b)
                            .unwrap_or_else(|e| panic!("{a:?}->{b:?} on {isp:?}: {e}"));
                    }
                }
            }
        }
    }

    #[test]
    fn coast_to_coast_is_continental_scale() {
        let sc = continental_us(DEFAULT_CONVERGENCE);
        let mut ul = sc.underlay.clone();
        let nyc = sc.city("NYC");
        let sf = sc.city("SF");
        for &isp in &sc.isps {
            let p = ul
                .resolve(SimTime::ZERO, Attachment::OnNet(isp), nyc, sf)
                .unwrap();
            let ms = p.latency.as_millis_f64();
            // The paper cites ~35-40ms propagation to cross a continent; our
            // geometry lands in the same band per provider.
            assert!((20.0..=45.0).contains(&ms), "{isp:?} NYC->SF = {ms}ms");
        }
    }

    #[test]
    fn every_city_is_multihomed_to_all_three_isps() {
        let sc = continental_us(DEFAULT_CONVERGENCE);
        for &c in &sc.cities {
            assert_eq!(sc.underlay.providers_at(c).len(), 3);
        }
    }

    #[test]
    fn isps_use_disjoint_fiber() {
        // Edges belong to exactly one ISP, so multihoming always buys
        // physically disjoint paths at the fiber level.
        let sc = continental_us(DEFAULT_CONVERGENCE);
        let mut seen = std::collections::HashSet::new();
        for edges in &sc.edges_by_isp {
            for &e in edges {
                assert!(seen.insert(e), "edge shared between ISPs");
            }
        }
    }

    #[test]
    fn city_lookup_by_name() {
        let sc = continental_us(DEFAULT_CONVERGENCE);
        assert_eq!(sc.underlay.city_name(sc.city("DEN")), "DEN");
    }

    #[test]
    fn global_20_fully_connected_on_both_providers() {
        let sc = global_20(DEFAULT_CONVERGENCE);
        let mut ul = sc.underlay.clone();
        assert_eq!(sc.cities.len(), 20);
        assert_eq!(sc.isps.len(), 2);
        for &isp in &sc.isps {
            for &a in &sc.cities {
                for &b in &sc.cities {
                    if a != b {
                        ul.resolve(SimTime::ZERO, Attachment::OnNet(isp), a, b)
                            .unwrap_or_else(|e| panic!("{a:?}->{b:?}: {e}"));
                    }
                }
            }
        }
    }

    #[test]
    fn global_reach_is_around_150ms() {
        // §II-A: "about 150ms is sufficient to reach nearly any point on the
        // globe from any other point."
        let sc = global_20(DEFAULT_CONVERGENCE);
        let mut ul = sc.underlay.clone();
        let mut worst: f64 = 0.0;
        for &a in &sc.cities {
            for &b in &sc.cities {
                if a != b {
                    let ms = ul
                        .resolve(SimTime::ZERO, Attachment::OnNet(sc.isps[0]), a, b)
                        .unwrap()
                        .latency
                        .as_millis_f64();
                    worst = worst.max(ms);
                }
            }
        }
        assert!(worst <= 160.0, "worst pair {worst}ms");
        assert!(
            worst >= 100.0,
            "a global topology should have long pairs: {worst}ms"
        );
    }

    #[test]
    fn global_second_provider_is_slightly_slower() {
        let sc = global_20(DEFAULT_CONVERGENCE);
        let mut ul = sc.underlay.clone();
        let (nyc, tyo) = (sc.city("NYC"), sc.city("TYO"));
        let p0 = ul
            .resolve(SimTime::ZERO, Attachment::OnNet(sc.isps[0]), nyc, tyo)
            .unwrap();
        let p1 = ul
            .resolve(SimTime::ZERO, Attachment::OnNet(sc.isps[1]), nyc, tyo)
            .unwrap();
        assert!(p1.latency > p0.latency);
        let ratio = p1.latency.as_millis_f64() / p0.latency.as_millis_f64();
        assert!((1.0..1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "unknown city")]
    fn unknown_city_panics() {
        let sc = continental_us(DEFAULT_CONVERGENCE);
        let _ = sc.city("XYZ");
    }
}

/// A window during which one node (by harness-level ordinal) is compromised
/// and silently blackholes transit traffic.
///
/// The simulator itself has no notion of overlay adversaries, so a campaign
/// only *records* these windows; the harness that owns the overlay processes
/// applies them (e.g. by toggling the node's forwarding behavior) when it
/// schedules the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlackholeWindow {
    /// Harness-level node ordinal (the harness maps it to a process).
    pub node: usize,
    /// When the compromise begins.
    pub start: SimTime,
    /// When the node reverts to correct forwarding.
    pub end: SimTime,
}

/// A deterministic fault-injection campaign: a seeded schedule of scripted
/// world changes ([`ScenarioEvent`]s) plus compromise windows, built by
/// composing episode generators.
///
/// Every generator draws from its own [`SimRng`] stream forked from the
/// campaign seed and a per-call index, so the schedule is a pure function of
/// `(seed, composition order)` — the same campaign built twice is identical,
/// byte for byte, which is what lets fault-injection runs assert
/// [`Simulation::fingerprint`] equality across repeats.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Human-readable campaign name (exported with results).
    pub name: String,
    seed: u64,
    calls: u64,
    events: Vec<(SimTime, ScenarioEvent)>,
    /// Compromise windows for the harness to apply at the overlay level.
    pub blackhole_windows: Vec<BlackholeWindow>,
}

impl Campaign {
    /// Creates an empty campaign. With no episodes composed in, it is the
    /// all-healthy control: scheduling it changes nothing.
    #[must_use]
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        Campaign {
            name: name.into(),
            seed,
            calls: 0,
            events: Vec::new(),
            blackhole_windows: Vec::new(),
        }
    }

    /// The master seed the episode streams are forked from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scripted schedule built so far, in insertion order.
    #[must_use]
    pub fn events(&self) -> &[(SimTime, ScenarioEvent)] {
        &self.events
    }

    /// An independent stream for the next episode generator. Forked from the
    /// seed and a running call index, so identical consecutive calls still
    /// draw distinct (but reproducible) schedules.
    fn episode_rng(&mut self, label: &str) -> SimRng {
        let rng = SimRng::seed(self.seed).fork_idx(label, self.calls);
        self.calls += 1;
        rng
    }

    /// A uniformly random event time leaving room for `hold` before `end`.
    fn draw_at(rng: &mut SimRng, window: (SimTime, SimTime), hold: SimDuration) -> SimTime {
        let lo = window.0.as_nanos();
        let hi = window.1.as_nanos().saturating_sub(hold.as_nanos()).max(lo);
        SimTime::from_nanos(rng.uniform_u64(lo, hi))
    }

    /// Composes one deterministic pipe outage: every listed pipe is disabled
    /// at exactly `at` and re-enabled at `at + outage`. Unlike the seeded
    /// episode generators this draws no randomness — it is the building
    /// block for precise flap schedules (down/up/down/up at fixed times).
    pub fn pipe_outage_at(
        &mut self,
        pipes: &[PipeId],
        at: SimTime,
        outage: SimDuration,
    ) -> &mut Self {
        for &pipe in pipes {
            self.events.push((at, ScenarioEvent::DisablePipe(pipe)));
            self.events
                .push((at + outage, ScenarioEvent::EnablePipe(pipe)));
        }
        self
    }

    /// Composes one deterministic loss episode: every listed pipe switches
    /// to `loss` at exactly `at` and back to `restore` at `at + burst`, so
    /// episodes line up across pipes (both directions of a link degrading
    /// together).
    pub fn pipe_loss_at(
        &mut self,
        pipes: &[PipeId],
        at: SimTime,
        burst: SimDuration,
        loss: LossConfig,
        restore: LossConfig,
    ) -> &mut Self {
        for &pipe in pipes {
            self.events
                .push((at, ScenarioEvent::SetPipeLoss(pipe, loss.clone())));
            self.events.push((
                at + burst,
                ScenarioEvent::SetPipeLoss(pipe, restore.clone()),
            ));
        }
        self
    }

    /// Composes deterministic crash/restart cycles: each listed process
    /// crashes at `start + k * (down + up)` and restarts `down` later, for
    /// `cycles` cycles. This models a flapping daemon — the repeated
    /// up/down oscillation that LSA flap damping exists to absorb.
    pub fn process_flaps(
        &mut self,
        procs: &[ProcessId],
        start: SimTime,
        cycles: usize,
        down: SimDuration,
        up: SimDuration,
    ) -> &mut Self {
        for &pid in procs {
            for k in 0..cycles {
                let at = start + (down + up) * (k as u64);
                self.events.push((at, ScenarioEvent::CrashProcess(pid)));
                self.events
                    .push((at + down, ScenarioEvent::RestartProcess(pid)));
            }
        }
        self
    }

    /// Composes sustained membership churn: `events` departure/recovery
    /// cycles drawn uniformly over `procs` and `window`. Each drawn process
    /// goes down for `downtime`, then restarts (rejoining with a fresh
    /// incarnation). With `leave_token` set, departures are *graceful*: the
    /// process is poked with that timer token `grace` before the crash so
    /// it can flood its leave announcement and withdraw its advertisements
    /// first; `None` makes every departure an unannounced crash. Overlapping
    /// draws on the same process are safe: crashes are idempotent, restarts
    /// are ignored while up, and pokes are dropped while down.
    #[allow(clippy::too_many_arguments)]
    pub fn sustained_churn(
        &mut self,
        procs: &[ProcessId],
        window: (SimTime, SimTime),
        events: usize,
        downtime: SimDuration,
        grace: SimDuration,
        leave_token: Option<u64>,
    ) -> &mut Self {
        assert!(!procs.is_empty(), "churn needs processes to churn");
        let mut rng = self.episode_rng("campaign:sustained_churn");
        for _ in 0..events {
            let pid = procs[rng.uniform_u64(0, procs.len() as u64) as usize];
            let at = Self::draw_at(&mut rng, window, grace + downtime);
            if let Some(token) = leave_token {
                self.events
                    .push((at, ScenarioEvent::PokeProcess(pid, token)));
            }
            self.events
                .push((at + grace, ScenarioEvent::CrashProcess(pid)));
            self.events
                .push((at + grace + downtime, ScenarioEvent::RestartProcess(pid)));
        }
        self
    }

    /// Composes a flash wave: every listed process crashes at exactly
    /// `down_at` and rejoins simultaneously at `up_at` — the bulk
    /// flash-join that stresses join handling and route re-convergence
    /// all at once.
    pub fn flash_restart(
        &mut self,
        procs: &[ProcessId],
        down_at: SimTime,
        up_at: SimTime,
    ) -> &mut Self {
        assert!(up_at > down_at, "the wave must come back after it leaves");
        for &pid in procs {
            self.events
                .push((down_at, ScenarioEvent::CrashProcess(pid)));
            self.events
                .push((up_at, ScenarioEvent::RestartProcess(pid)));
        }
        self
    }

    /// Composes deterministic graceful departures: each listed process is
    /// poked with `leave_token` at exactly `at` (its cue to flood a leave
    /// announcement and withdraw its advertisements), crashes `grace`
    /// later, and — when `downtime` is set — restarts after it. `None`
    /// leaves it down for good: the permanent departure whose retained
    /// state the survivors must eventually evict.
    pub fn graceful_leave_at(
        &mut self,
        procs: &[ProcessId],
        at: SimTime,
        grace: SimDuration,
        downtime: Option<SimDuration>,
        leave_token: u64,
    ) -> &mut Self {
        for &pid in procs {
            self.events
                .push((at, ScenarioEvent::PokeProcess(pid, leave_token)));
            self.events
                .push((at + grace, ScenarioEvent::CrashProcess(pid)));
            if let Some(d) = downtime {
                self.events
                    .push((at + grace + d, ScenarioEvent::RestartProcess(pid)));
            }
        }
        self
    }

    /// Composes one deterministic crash per listed process at exactly `at`;
    /// when `downtime` is set the process restarts after it, `None` leaves
    /// it down — a permanent unannounced departure the survivors must
    /// detect and evict on their own.
    pub fn process_crash_at(
        &mut self,
        procs: &[ProcessId],
        at: SimTime,
        downtime: Option<SimDuration>,
    ) -> &mut Self {
        for &pid in procs {
            self.events.push((at, ScenarioEvent::CrashProcess(pid)));
            if let Some(d) = downtime {
                self.events
                    .push((at + d, ScenarioEvent::RestartProcess(pid)));
            }
        }
        self
    }

    /// Records compromised-node windows for the harness: each listed node
    /// ordinal silently blackholes transit traffic for the whole `window`.
    pub fn compromise(&mut self, nodes: &[usize], window: (SimTime, SimTime)) -> &mut Self {
        for &node in nodes {
            self.blackhole_windows.push(BlackholeWindow {
                node,
                start: window.0,
                end: window.1,
            });
        }
        self
    }

    /// Schedules every scripted event into `sim`. Compromise windows are NOT
    /// applied here — the harness owns the overlay processes and must apply
    /// [`Campaign::blackhole_windows`] itself.
    pub fn schedule_into<M: SimMessage>(&self, sim: &mut Simulation<M>) {
        for (at, ev) in &self.events {
            sim.schedule(*at, ev.clone());
        }
    }

    /// A stable digest of the composed schedule (events and compromise
    /// windows), for one-line same-seed determinism assertions.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = crate::rng::fnv1a(self.name.as_bytes());
        let mut mix = |v: u64| h = crate::rng::splitmix(h ^ v);
        for (at, ev) in &self.events {
            mix(at.as_nanos());
            mix(crate::rng::fnv1a(format!("{ev:?}").as_bytes()));
        }
        for w in &self.blackhole_windows {
            mix(w.node as u64);
            mix(w.start.as_nanos());
            mix(w.end.as_nanos());
        }
        h
    }
}

#[cfg(test)]
mod campaign_tests {
    use super::*;

    fn window() -> (SimTime, SimTime) {
        (SimTime::from_secs(1), SimTime::from_secs(9))
    }

    fn full_campaign(seed: u64) -> Campaign {
        let mut c = Campaign::new("everything", seed);
        c.sustained_churn(
            &[ProcessId(0), ProcessId(1), ProcessId(2)],
            window(),
            2,
            SimDuration::from_secs(1),
            SimDuration::from_millis(250),
            Some(42),
        )
        .process_flaps(
            &[ProcessId(3)],
            SimTime::from_secs(2),
            2,
            SimDuration::from_secs(1),
            SimDuration::from_secs(1),
        )
        .compromise(&[1, 3], window());
        c
    }

    #[test]
    fn same_seed_builds_the_identical_schedule() {
        let (a, b) = (full_campaign(7), full_campaign(7));
        assert_eq!(a.digest(), b.digest());
        assert_eq!(format!("{:?}", a.events()), format!("{:?}", b.events()));
        assert_eq!(a.blackhole_windows, b.blackhole_windows);
        assert!(!a.events().is_empty());
    }

    #[test]
    fn different_seeds_build_different_schedules() {
        assert_ne!(full_campaign(7).digest(), full_campaign(8).digest());
    }

    #[test]
    fn repeated_episode_calls_draw_distinct_streams() {
        let mut c = Campaign::new("twice", 11);
        let churn = |c: &mut Campaign| {
            c.sustained_churn(
                &[ProcessId(0)],
                window(),
                1,
                SimDuration::from_millis(100),
                SimDuration::ZERO,
                None,
            );
        };
        churn(&mut c);
        let first = format!("{:?}", c.events());
        churn(&mut c);
        let second = format!("{:?}", &c.events()[2..]);
        assert_ne!(first, second, "call index must vary the fork");
    }

    #[test]
    fn control_campaign_is_empty() {
        let c = Campaign::new("control", 1);
        assert!(c.events().is_empty());
        assert!(c.blackhole_windows.is_empty());
    }

    #[test]
    fn events_never_escape_the_window() {
        let c = full_campaign(21);
        for (at, _) in c.events() {
            assert!(*at >= window().0, "{at:?} before window");
            assert!(*at <= window().1, "{at:?} after window");
        }
    }

    #[test]
    fn sustained_churn_same_seed_is_identical_and_in_window() {
        let build = |seed| {
            let mut c = Campaign::new("churn", seed);
            c.sustained_churn(
                &[ProcessId(0), ProcessId(1), ProcessId(2)],
                window(),
                8,
                SimDuration::from_secs(1),
                SimDuration::from_millis(200),
                Some(42),
            );
            c
        };
        let (a, b) = (build(5), build(5));
        assert_eq!(a.digest(), b.digest());
        assert_eq!(format!("{:?}", a.events()), format!("{:?}", b.events()));
        // Graceful mode: 3 events per cycle (poke, crash, restart).
        assert_eq!(a.events().len(), 24);
        for (at, _) in a.events() {
            assert!(*at >= window().0 && *at <= window().1);
        }
        assert_ne!(a.digest(), build(6).digest());
    }

    #[test]
    fn sustained_churn_pokes_precede_their_crash() {
        let mut c = Campaign::new("churn", 9);
        c.sustained_churn(
            &[ProcessId(4)],
            window(),
            3,
            SimDuration::from_millis(500),
            SimDuration::from_millis(200),
            Some(7),
        );
        // Events come in (poke, crash, restart) triples per cycle, with the
        // grace and downtime offsets applied in order.
        for cycle in c.events().chunks(3) {
            let [(t0, e0), (t1, e1), (t2, e2)] = cycle else {
                panic!("expected triples");
            };
            assert!(matches!(e0, ScenarioEvent::PokeProcess(_, 7)));
            assert!(matches!(e1, ScenarioEvent::CrashProcess(_)));
            assert!(matches!(e2, ScenarioEvent::RestartProcess(_)));
            assert_eq!(*t1, *t0 + SimDuration::from_millis(200));
            assert_eq!(*t2, *t1 + SimDuration::from_millis(500));
        }
    }

    #[test]
    fn crash_churn_has_no_pokes() {
        let mut c = Campaign::new("churn", 9);
        c.sustained_churn(
            &[ProcessId(4)],
            window(),
            3,
            SimDuration::from_millis(500),
            SimDuration::ZERO,
            None,
        );
        assert_eq!(c.events().len(), 6);
        assert!(!c
            .events()
            .iter()
            .any(|(_, e)| matches!(e, ScenarioEvent::PokeProcess(..))));
    }

    #[test]
    fn flash_restart_and_graceful_leave_are_deterministic() {
        let mut c = Campaign::new("flash", 1);
        c.flash_restart(
            &[ProcessId(1), ProcessId(2)],
            SimTime::from_secs(2),
            SimTime::from_secs(3),
        )
        .graceful_leave_at(
            &[ProcessId(3)],
            SimTime::from_secs(4),
            SimDuration::from_millis(200),
            None,
            11,
        )
        .process_crash_at(&[ProcessId(4)], SimTime::from_secs(5), None);
        // No randomness: 4 flash events + 2 leave events (no restart) + 1.
        assert_eq!(c.events().len(), 7);
        let restarts = c
            .events()
            .iter()
            .filter(|(_, e)| matches!(e, ScenarioEvent::RestartProcess(_)))
            .count();
        assert_eq!(restarts, 2, "permanent departures never restart");
    }

    #[test]
    fn scheduled_runs_produce_identical_fingerprints() {
        struct Idle;
        impl crate::process::Process<String> for Idle {
            fn on_message(
                &mut self,
                _: &mut crate::sim::Ctx<'_, String>,
                _: ProcessId,
                _: Option<PipeId>,
                _: String,
            ) {
            }
        }
        let run = || {
            let mut sim: Simulation<String> = Simulation::new(13);
            let (a, b) = (sim.add_process(Idle), sim.add_process(Idle));
            let config = crate::link::PipeConfig::with_latency(SimDuration::from_millis(5));
            let (ab, ba) = sim.connect(a, b, config);
            let mut c = Campaign::new("fp", 13);
            c.pipe_loss_at(
                &[ab, ba],
                SimTime::from_secs(1),
                SimDuration::from_millis(300),
                LossConfig::Bernoulli { p: 0.4 },
                LossConfig::Perfect,
            )
            .process_flaps(
                &[b],
                SimTime::from_secs(2),
                2,
                SimDuration::from_secs(1),
                SimDuration::from_secs(1),
            );
            c.schedule_into(&mut sim);
            sim.run_until(SimTime::from_secs(20));
            sim.fingerprint()
        };
        assert_eq!(run(), run());
    }
}
