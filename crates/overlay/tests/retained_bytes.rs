//! Bytes a deployment retains per daemon. What is the same for every daemon
//! — the configured topology's shape and weights, the key table — is held
//! once per deployment, so a clone of either allocates nothing, and a
//! freshly built 512-node fleet keeps little more than each daemon's own
//! tables. (Its own test binary: the counting allocator is process-wide, the
//! count is per thread.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use son_netsim::sim::Simulation;
use son_netsim::time::SimTime;
use son_obs::MemFootprint;
use son_overlay::auth::KeyRegistry;
use son_overlay::builder::OverlayBuilder;
use son_overlay::packet::{Adverts, LinkAdvert, Lsa, Wire};
use son_overlay::state::connectivity::{ConnectivityConfig, ConnectivityMonitor};
use son_topo::{EdgeId, Graph, NodeId};

struct Counting;

thread_local! {
    /// Bytes allocated minus bytes freed on this thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// Bytes allocated on this thread.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// thread-local `Cell`s with const initializers, so touching them never
// allocates or re-enters the allocator. `realloc` keeps the trait's default,
// which goes through `alloc` and `dealloc` and is counted by them.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.with(|n| n.set(n.get() + layout.size() as isize));
        ALLOCATED.with(|n| n.set(n.get() + layout.size()));
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|n| n.set(n.get() - layout.size() as isize));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes `f` allocates, and bytes it leaves allocated when it returns.
fn bytes_in<T>(f: impl FnOnce() -> T) -> (usize, isize, T) {
    let (allocated, live) = (ALLOCATED.with(Cell::get), LIVE.with(Cell::get));
    let out = f();
    (
        ALLOCATED.with(Cell::get) - allocated,
        LIVE.with(Cell::get) - live,
        out,
    )
}

/// The ring with a chord from `i` to `i + n/2` every 16 positions on the
/// first half, as in the 512-node cold-start workload.
fn ring_with_chords(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 0..n {
        g.add_edge(NodeId(i), NodeId((i + 1) % n), 5.0);
    }
    for i in (0..n / 2).step_by(16) {
        g.add_edge(NodeId(i), NodeId(i + n / 2), 7.5);
    }
    g
}

/// 5,624 B per daemon when the bound was set, 8,126 B while every metrics
/// instrument copied its name, its `node=<id>` label and a rendered key,
/// and every histogram allocated its buckets up front.
#[test]
fn a_512_node_fleet_retains_at_most_5_5_kib_per_daemon() {
    const N: usize = 512;
    let topology = ring_with_chords(N);
    let mut sim: Simulation<Wire> = Simulation::new(1);
    let (_, retained, overlay) = bytes_in(|| OverlayBuilder::new(topology).build(&mut sim));
    assert_eq!(overlay.daemons.len(), N);
    let per_daemon = retained / N as isize;
    assert!(
        per_daemon <= 5_632,
        "building the fleet retained {retained} B, {per_daemon} B per daemon"
    );
}

#[test]
fn clones_of_the_topology_and_the_key_table_allocate_nothing() {
    let topology = ring_with_chords(512);
    let keys = KeyRegistry::new(512, 7);
    let (allocated, _, mut copy) = bytes_in(|| topology.clone());
    assert_eq!(allocated, 0, "a Graph clone copies no buffer");
    assert!(copy.shares_shape_with(&topology));
    let (allocated, _, key_copy) = bytes_in(|| keys.clone());
    assert_eq!(allocated, 0, "a KeyRegistry clone copies no key");
    assert_eq!(key_copy.key_of(NodeId(511)), keys.key_of(NodeId(511)));

    // A weight written on the clone copies the weights, not the shape, and
    // leaves the source alone.
    let before = topology.weights().to_vec();
    copy.set_weight(EdgeId(3), 42.0);
    assert_eq!(copy.weight(EdgeId(3)), 42.0);
    assert_eq!(topology.weights(), before.as_slice());
    assert!(copy.shares_shape_with(&topology));
}

/// Node 0's connectivity monitor in `topology`, its links as configured.
fn monitor_of_node_0(topology: Graph) -> ConnectivityMonitor {
    let links = topology
        .neighbors(NodeId(0))
        .map(|(_, edge)| (edge, 1, topology.weight(edge)))
        .collect();
    ConnectivityMonitor::new(NodeId(0), topology, links, ConnectivityConfig::default())
}

/// Bytes `mon` retains for accepting one LSA from each of `origins`, and
/// what its `MemFootprint` estimate grows by beyond the LSAs' adverts.
/// Each LSA advertises one link down, so none equals the origin's default;
/// they are built beforehand, so their adverts (the flood's allocation,
/// shared with every daemon that stores it) are not the table's bytes.
fn table_growth(mon: &mut ConnectivityMonitor, origins: &[usize]) -> (isize, isize) {
    let mut lsas: Vec<Lsa> = origins
        .iter()
        .map(|&origin| Lsa {
            origin: NodeId(origin),
            seq: 1,
            links: Adverts::from([LinkAdvert {
                edge: EdgeId(origin),
                up: false,
                latency_ms: 5.0,
                loss: 0.0,
            }]),
        })
        .collect();
    let adverts = origins.len() * (Adverts::HEADER_BYTES + size_of::<LinkAdvert>());
    let estimated = mon.footprint_bytes();
    let (_, retained, ()) = bytes_in(|| {
        for lsa in lsas.drain(..) {
            mon.on_lsa(SimTime::ZERO, lsa, None, &mut Vec::new());
        }
    });
    let estimated = mon.footprint_bytes() as isize - estimated as isize - adverts as isize;
    (retained, estimated)
}

/// A link-state page: 32 origins, each an 8-byte advert handle and a
/// 32-bit seq.
const PAGE_BYTES: isize = 32 * 12;

#[test]
fn a_daemon_holds_the_link_state_pages_of_the_origins_it_heard() {
    const N: usize = 512;
    let mut mon = monitor_of_node_0(ring_with_chords(N));
    // Origins on both sides of two page edges and the last: pages 0, 1, 2
    // and 15 of 16.
    let (retained, estimated) = table_growth(&mut mon, &[1, 31, 32, 33, 95, 511]);
    let slots = (N / 32 * size_of::<usize>()) as isize;
    assert!(
        retained <= slots + 4 * PAGE_BYTES,
        "hearing 6 origins in 4 pages retained {retained} B"
    );
    assert_eq!(estimated, retained, "the footprint estimate is the table");
    // A page already there costs nothing more.
    let (retained, _) = table_growth(&mut mon, &[2, 30, 34, 510]);
    assert_eq!(retained, 0);
}

#[test]
fn a_full_link_state_table_costs_at_most_5_percent_over_12_bytes_an_origin() {
    const N: usize = 4096;
    let mut mon = monitor_of_node_0(ring_with_chords(N));
    let origins: Vec<usize> = (1..N).collect();
    let (retained, estimated) = table_growth(&mut mon, &origins);
    assert!(
        retained as f64 <= 1.05 * 12.0 * N as f64,
        "a full table of {N} origins retained {retained} B"
    );
    assert_eq!(estimated, retained, "the footprint estimate is the table");
}
