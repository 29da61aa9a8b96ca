//! # son-netsim — deterministic discrete-event network simulation
//!
//! The substrate beneath the structured-overlay reproduction: a
//! discrete-event simulator with virtual time, an event queue with FIFO
//! tie-breaking, seeded per-component randomness, configurable loss processes
//! (including bursty Gilbert–Elliott loss), bandwidth-limited lossy pipes,
//! and a multi-ISP underlay model with BGP-style slow convergence.
//!
//! Everything is deterministic: a run is a pure function of
//! `(topology, workload, seed)`.
//!
//! ## Quick tour
//!
//! ```
//! use son_netsim::prelude::*;
//!
//! // A process that counts what it hears.
//! struct Sink { heard: usize }
//! impl Process<Vec<u8>> for Sink {
//!     fn on_message(&mut self, _ctx: &mut Ctx<'_, Vec<u8>>, _from: ProcessId,
//!                   _pipe: Option<PipeId>, _msg: Vec<u8>) {
//!         self.heard += 1;
//!     }
//! }
//!
//! let mut sim = Simulation::new(1);
//! let sink = sim.add_process(Sink { heard: 0 });
//! sim.post(SimTime::from_millis(3), sink, vec![42]);
//! sim.run_until_idle();
//! assert_eq!(sim.proc_ref::<Sink>(sink).unwrap().heard, 1);
//! ```
//!
//! The [`underlay`] module models multiple ISP backbones with slow
//! (BGP-like) reconvergence, and [`scenario`] provides the standard
//! topologies used by the experiments (a 12-city, 3-ISP continental US).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod driver;
pub mod event;
#[doc(hidden)]
pub mod frozen;
pub mod hash;
pub mod link;
pub mod loss;
pub mod process;
pub mod rng;
pub mod scenario;
pub mod sim;
pub mod stats;
pub mod time;
pub mod underlay;

/// One-stop imports for simulation authors.
pub mod prelude {
    pub use crate::driver::{Driver, Transport};
    pub use crate::link::{DropReason, PipeBinding, PipeConfig, PipeId};
    pub use crate::loss::LossConfig;
    pub use crate::process::{MessageKind, Process, ProcessId, SimMessage, TimerId};
    pub use crate::rng::SimRng;
    pub use crate::sim::{Ctx, ScenarioEvent, Simulation};
    pub use crate::stats::{Counters, Percentiles};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::underlay::{Attachment, CityId, IspId, Underlay, UnderlayBuilder};
}
