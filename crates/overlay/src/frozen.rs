//! Inert names kept for the benchmark harness, as in `son_netsim::frozen`.

use son_netsim::frozen::ShardPlan;
use son_netsim::process::ProcessId;
use son_netsim::stats::Counters;
use son_topo::NodeId;

use crate::builder::OverlayHandle;
use crate::OverlayNode;

#[doc(hidden)]
impl OverlayHandle {
    /// An empty plan.
    #[must_use]
    pub fn shard_plan(&self, _shards: usize, _nprocs: usize) -> ShardPlan {
        ShardPlan
    }

    /// Does nothing.
    pub fn colocate(&self, _plan: &mut ShardPlan, _client: ProcessId, _node: NodeId) {}
}

/// The three counts the benchmark harness reads of a daemon; `counters`
/// holds `reroutes` alone.
#[derive(Debug)]
pub struct Metrics {
    pub forwarded: u64,
    pub dedup_suppressed: u64,
    pub counters: Counters,
}

#[doc(hidden)]
impl OverlayNode {
    /// Reads [`Metrics`] off the node's registry.
    pub fn metrics(&self) -> Metrics {
        let count = |name| self.obs().counter(name).unwrap_or(0);
        let mut counters = Counters::default();
        counters.add("reroutes", count("reroutes"));
        Metrics {
            forwarded: count("node.forwarded"),
            dedup_suppressed: count("drop.dedup_duplicate"),
            counters,
        }
    }
}
