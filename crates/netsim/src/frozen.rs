//! Inert names kept for the benchmark harness, which compiles against them
//! from outside this workspace. The simulator has one sequential engine:
//! nothing here changes a run, and nothing in the workspace calls it.

use crate::event::{EventId, EventQueue};
use crate::process::SimMessage;
use crate::sim::Simulation;
use crate::time::SimTime;

/// An empty tie-break key: events fire in `(at, seq)` order.
#[derive(Debug, Clone, Copy)]
pub struct TieKey;

impl TieKey {
    pub fn root(_sched: SimTime, _oseq: u64) -> TieKey {
        TieKey
    }

    pub fn child(&self, _sched: SimTime, _oseq: u64) -> TieKey {
        TieKey
    }
}

#[doc(hidden)]
impl<E> EventQueue<E> {
    /// [`EventQueue::schedule`]; the key is ignored.
    pub fn schedule_keyed(&mut self, at: SimTime, _key: TieKey, payload: E) -> EventId {
        self.schedule(at, payload)
    }

    /// [`EventQueue::pop`] with the event's id and the empty key.
    pub fn pop_full(&mut self) -> Option<(SimTime, TieKey, EventId, E)> {
        let (at, id, slot) = self.pop_key_if(|_| true)?;
        Some((at, TieKey, id, self.take_payload(slot)))
    }
}

/// An empty process placement; installing it changes nothing.
#[derive(Debug, Clone, Copy)]
pub struct ShardPlan;

/// Always zero: no run is split.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardStats {
    pub windows: u64,
}

#[doc(hidden)]
impl<M: SimMessage> Simulation<M> {
    /// Drops `plan`; the run stays sequential.
    pub fn set_shard_plan(&mut self, _plan: Option<ShardPlan>) {}

    pub fn shard_stats(&self) -> ShardStats {
        ShardStats::default()
    }
}
