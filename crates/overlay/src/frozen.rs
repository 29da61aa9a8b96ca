//! Inert names kept for the benchmark harness, as in `son_netsim::frozen`.

use son_netsim::frozen::ShardPlan;
use son_netsim::process::ProcessId;
use son_topo::NodeId;

use crate::builder::OverlayHandle;

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
