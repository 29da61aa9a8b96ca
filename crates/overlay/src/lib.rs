//! # son-overlay — structured overlay network node software
//!
//! The paper's primary contribution (Fig. 2) realized in Rust: overlay nodes
//! that act as both servers (session interface for clients) and routers
//! (link-state and source-based routing over shared connectivity and group
//! state), with flow-based processing and a family of link-level protocols —
//! Best Effort, Reliable Data Link (hop-by-hop recovery, §III-A), NM-Strikes
//! real-time recovery (§IV-A), and intrusion-tolerant Priority/Reliable fair
//! messaging (§IV-B) — plus redundant dissemination over k-node-disjoint
//! paths, dissemination graphs, and constrained flooding with in-network
//! de-duplication.
//!
//! Overlay daemons run as [`Process`](son_netsim::process::Process)es inside
//! the deterministic [`son_netsim`] simulator.
//!
//! ## Quick tour
//!
//! ```
//! use son_netsim::time::{SimDuration, SimTime};
//! use son_overlay::builder::{chain_topology, OverlayBuilder};
//! use son_overlay::{Fleet, FlowSpec, Workload};
//! use son_topo::NodeId;
//!
//! // A 3-node overlay chain with 10 ms links, in a simulation seeded with 7.
//! let mut fleet = Fleet::new(7, None, OverlayBuilder::new(chain_topology(3, 10.0)));
//!
//! // A receiver client on the last node, then a sender on the first
//! // streaming 50 packets every 10 ms.
//! let cbr = Workload::cbr(1000, 50, SimDuration::from_millis(10));
//! let flow = fleet.flow(NodeId(0), NodeId(2), FlowSpec::reliable(), cbr);
//!
//! fleet.run(SimTime::from_secs(3));
//! assert_eq!(fleet.recv(flow).received, 50);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod adversary;
pub mod auth;
pub mod builder;
pub mod client;
pub mod dedup;
pub mod fleet;
pub mod flow;
#[doc(hidden)]
mod frozen;
pub mod intercept;
pub mod linkproto;
pub mod node;
pub mod obs;
pub mod packet;
pub mod routing;
pub mod service;
pub mod session;
pub mod state;
pub mod watch;
pub mod wire;

pub use addr::{Destination, FlowKey, GroupId, OverlayAddr, VirtualPort};
pub use builder::{OverlayBuilder, OverlayHandle};
pub use client::{ClientConfig, ClientFlow, ClientProcess, Workload};
pub use fleet::Fleet;
pub use flow::{FlowContext, FlowRole, FlowTable};
pub use node::{NodeConfig, OverlayNode, TimerKey};
pub use obs::{FlowObs, NodeObs};
pub use packet::{ClientOp, DataPacket, SessionEvent, Wire};
pub use service::{FlowSpec, LinkService, Priority, RealtimeParams, RoutingService, SourceRoute};
pub use watch::{AdaptiveSampler, WatchState};
