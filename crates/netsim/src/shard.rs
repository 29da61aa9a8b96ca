//! Conservative parallel discrete-event simulation: shard plans, the
//! cross-shard mailbox fabric, and the per-worker window loop.
//!
//! # How sharding works
//!
//! [`crate::sim::Simulation::set_shard_plan`] assigns every process to a
//! shard. A sharded `run_until` then:
//!
//! 1. **Partitions** the world: the global event queue is drained in firing
//!    order and re-keyed (each entry gets a [`TieKey`] recording its
//!    position), processes/pipes/RNG streams move to their
//!    owning shard, and scenario events are broadcast to every shard so
//!    underlay clones stay in lock-step.
//! 2. **Runs windows**: each shard advances conservatively in windows of
//!    width *W* = the minimum propagation latency on any cross-shard pipe
//!    (the *lookahead*). A message sent over a cross-shard pipe can never
//!    arrive earlier than *W* after it was sent, so events inside the
//!    current window are safe to process without hearing from neighbors.
//!    At each window boundary, shards exchange cross-shard messages through
//!    mailboxes and meet at a barrier.
//! 3. **Dissolves**: shard state merges back into the global simulation —
//!    counters sum, leftover events merge in `(time, key)` order, per-shard
//!    perf registries absorb into the global one.
//!
//! Determinism: every scheduled event carries a tie-break key recording its
//! scheduling *lineage* — when it was scheduled, by which handler, and at
//! which position within that handler — making the merged event order
//! independent of thread timing and equal to the sequential order (see
//! `DESIGN.md` §12 for the derivation and proof sketch).

use std::sync::{Barrier, Mutex};

use crate::event::TieKey;
use crate::process::{ProcessId, SimMessage};
use crate::sim::Event;
use crate::time::{SimDuration, SimTime};

/// Assignment of every process to a shard.
///
/// Build one with [`ShardPlan::contiguous`] (block partition by process id
/// — matches deployment order, where colocated processes get adjacent ids)
/// or start from it and pin processes with [`ShardPlan::assign`].
///
/// **Colocation rule:** processes that exchange zero- or near-zero-latency
/// messages (a client and its same-city daemon, two processes in one city)
/// must share a shard. The sharded core enforces this at runtime: a
/// cross-shard message under the lookahead bound aborts the run loudly
/// rather than silently diverging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    shards: usize,
    owner: Vec<usize>,
}

impl ShardPlan {
    /// Block partition: process `i` of `n` goes to shard `i * shards / n`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn contiguous(shards: usize, nprocs: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        let owner = (0..nprocs).map(|i| i * shards / nprocs.max(1)).collect();
        ShardPlan { shards, owner }
    }

    /// A plan with `shards` shards and every process on shard 0 — the
    /// starting point for explicit placement via [`ShardPlan::assign`].
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn pinned(shards: usize, nprocs: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        ShardPlan {
            shards,
            owner: vec![0; nprocs],
        }
    }

    /// Pins `pid` to `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` or `pid` is out of range.
    pub fn assign(&mut self, pid: ProcessId, shard: usize) {
        assert!(shard < self.shards, "shard {shard} out of range");
        self.owner[pid.0] = shard;
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `pid`.
    #[must_use]
    pub fn owner_of(&self, pid: ProcessId) -> usize {
        self.owner[pid.0]
    }

    /// Number of processes covered by this plan.
    #[must_use]
    pub fn len(&self) -> usize {
        self.owner.len()
    }

    /// `true` if the plan covers no processes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.owner.is_empty()
    }

    pub(crate) fn owners(&self) -> &[usize] {
        &self.owner
    }
}

/// Per-shard load figures for one sharded run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardLoad {
    /// Events dispatched on this shard.
    pub events: u64,
    /// Messages sent across a shard boundary.
    pub sent_cross: u64,
    /// Wall-clock nanoseconds spent waiting at window barriers — the
    /// merge-stall cost of load imbalance and conservative synchronization.
    pub stall_ns: u64,
}

impl ShardLoad {
    fn accumulate(&mut self, other: &ShardLoad) {
        self.events += other.events;
        self.sent_cross += other.sent_cross;
        self.stall_ns += other.stall_ns;
    }
}

/// Aggregate statistics over every sharded `run_until` of a simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Conservative windows executed (across all sharded runs).
    pub windows: u64,
    /// The smallest lookahead used by any sharded run.
    pub lookahead: SimDuration,
    /// Per-shard load, indexed by shard.
    pub loads: Vec<ShardLoad>,
}

impl ShardStats {
    pub(crate) fn accumulate(&mut self, windows: u64, lookahead: SimDuration, loads: &[ShardLoad]) {
        self.windows += windows;
        self.lookahead = if self.lookahead == SimDuration::ZERO {
            lookahead
        } else {
            self.lookahead.min(lookahead)
        };
        if self.loads.len() < loads.len() {
            self.loads.resize(loads.len(), ShardLoad::default());
        }
        for (mine, theirs) in self.loads.iter_mut().zip(loads) {
            mine.accumulate(theirs);
        }
    }
}

/// A message crossing a shard boundary, carrying the tie-break key minted
/// at the sender so the receiver's queue merges it deterministically.
pub(crate) struct CrossMsg<M> {
    pub(crate) at: SimTime,
    pub(crate) key: TieKey,
    pub(crate) to_shard: usize,
    pub(crate) event: Event<M>,
}

/// The shard-mode extension of a `SimCore`: routing table, current window
/// horizon, the dispatching event's lineage, and the outbox of cross-shard
/// sends.
pub(crate) struct ShardCtx<M> {
    pub(crate) my_shard: usize,
    pub(crate) owner: std::sync::Arc<Vec<usize>>,
    /// End of the current window; cross-shard sends must arrive at or after
    /// it (the conservative guarantee). Violations mean the shard plan
    /// split colocated processes and abort loudly.
    pub(crate) horizon: SimTime,
    /// Key of the event currently being dispatched: the parent of every
    /// key its handler mints.
    pub(crate) cur_parent: TieKey,
    /// Schedule calls made so far by the current handler invocation.
    pub(crate) cur_oseq: u64,
    pub(crate) outbox: Vec<CrossMsg<M>>,
    pub(crate) sent_cross: u64,
}

/// One mailbox per destination shard; senders append under the lock at
/// window boundaries. Arrival order in the vector is thread-timing
/// dependent, which is fine: every message carries a globally unique
/// `(at, key)`, so the receiving queue's order is deterministic regardless
/// of insertion order.
pub(crate) struct Mailboxes<M>(Vec<Mutex<Vec<CrossMsg<M>>>>);

impl<M> Mailboxes<M> {
    pub(crate) fn new(shards: usize) -> Self {
        Mailboxes((0..shards).map(|_| Mutex::new(Vec::new())).collect())
    }

    fn drain_for(&self, shard: usize) -> Vec<CrossMsg<M>> {
        std::mem::take(&mut *self.0[shard].lock().expect("mailbox poisoned"))
    }

    fn deposit(&self, msgs: Vec<CrossMsg<M>>) {
        if msgs.is_empty() {
            return;
        }
        // Group by destination so each mailbox is locked once per flush.
        let mut by_dest: Vec<Vec<CrossMsg<M>>> = (0..self.0.len()).map(|_| Vec::new()).collect();
        for m in msgs {
            by_dest[m.to_shard].push(m);
        }
        for (dest, batch) in by_dest.into_iter().enumerate() {
            if !batch.is_empty() {
                self.0[dest]
                    .lock()
                    .expect("mailbox poisoned")
                    .append(&mut { batch });
            }
        }
    }
}

/// The window schedule for one sharded run: strictly increasing window end
/// times finishing at `until`, plus one final *flush pass* re-running the
/// `until` boundary.
///
/// Non-final windows process events strictly before their end; the flush
/// pass processes events at exactly `until` (matching the sequential
/// `run_until`'s inclusive horizon). The pass is needed because a message
/// sent in the last real window can arrive at *exactly* `until` when the
/// sender sits at the window edge and the link has exactly the lookahead
/// latency — sequential would process it, so sharded must too.
pub(crate) fn window_ends(t0: SimTime, until: SimTime, lookahead: SimDuration) -> Vec<SimTime> {
    debug_assert!(until > t0);
    debug_assert!(lookahead > SimDuration::ZERO);
    let mut ends = Vec::new();
    let mut t = t0;
    loop {
        t = (t + lookahead).min(until);
        ends.push(t);
        if t >= until {
            break;
        }
    }
    ends.push(until); // the flush pass
    ends
}

/// One worker's state for a sharded run: its slice of the world.
pub(crate) struct ShardWorker<M: SimMessage> {
    pub(crate) idx: usize,
    pub(crate) core: crate::sim::SimCore<M>,
    pub(crate) procs: Vec<Option<Box<dyn crate::process::Process<M>>>>,
    pub(crate) perf: Option<son_obs::PerfRegistry>,
}

impl<M: SimMessage> ShardWorker<M> {
    /// Runs the conservative window loop to completion; returns load stats.
    pub(crate) fn run_windows(
        &mut self,
        ends: &[SimTime],
        until: SimTime,
        mailboxes: &Mailboxes<M>,
        barrier: &Barrier,
    ) -> ShardLoad {
        let mut load = ShardLoad::default();
        for (w, &w_end) in ends.iter().enumerate() {
            let is_flush = w + 1 == ends.len();
            // (a) Ingest cross-shard messages exchanged at earlier barriers.
            // Early deliveries from a neighbor already past this barrier are
            // harmless: they arrive at or after ITS window end, so they sit
            // in the queue until their time comes.
            for m in mailboxes.drain_for(self.idx) {
                self.core.queue.schedule_keyed(m.at, m.key, m.event);
            }
            self.core
                .shard
                .as_mut()
                .expect("worker core is sharded")
                .horizon = w_end;
            // (b) Run this window: strictly before the end for real windows,
            // inclusively at `until` for the flush pass.
            let due = |at: SimTime| at < w_end || (is_flush && at == w_end);
            while let Some((at, key, _id, slot)) = self.core.queue.pop_key_if(due) {
                let event = self.core.queue.take_payload(slot);
                debug_assert!(at >= self.core.now, "time went backwards");
                self.core.now = at;
                {
                    // This event's key becomes the parent of every key its
                    // handler mints — the lineage link that lets the merge
                    // reproduce sequential insertion order.
                    let shard = self.core.shard.as_mut().expect("worker core is sharded");
                    shard.cur_parent = key;
                    shard.cur_oseq = 0;
                }
                // Scenario events are broadcast to every shard (underlay
                // clones must evolve identically); count them once.
                if self.idx == 0 || !matches!(event, Event::Scenario(_)) {
                    self.core.events_processed += 1;
                }
                load.events += 1;
                crate::sim::dispatch_event(
                    &mut self.core,
                    &mut self.procs,
                    self.perf.as_ref(),
                    event,
                );
            }
            self.core.now = w_end;
            // (c) Exchange outboxes; the flush pass keeps its outbox (those
            // messages arrive strictly after `until` and become leftovers).
            if !is_flush {
                let shard = self.core.shard.as_mut().expect("worker core is sharded");
                let out = std::mem::take(&mut shard.outbox);
                mailboxes.deposit(out);
                // (d) Window barrier: nobody starts the next window until
                // everyone's messages for this one are deposited.
                let wait_start = std::time::Instant::now();
                barrier.wait();
                load.stall_ns += u64::try_from(wait_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            }
        }
        debug_assert_eq!(self.core.now, until);
        let shard = self.core.shard.as_ref().expect("worker core is sharded");
        load.sent_cross = shard.sent_cross;
        load
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_plan_blocks_processes() {
        let plan = ShardPlan::contiguous(4, 8);
        let owners: Vec<usize> = (0..8).map(|i| plan.owner_of(ProcessId(i))).collect();
        assert_eq!(owners, vec![0, 0, 1, 1, 2, 2, 3, 3]);
        assert_eq!(plan.shards(), 4);
        assert_eq!(plan.len(), 8);
    }

    #[test]
    fn contiguous_plan_uneven_split_covers_all_shards() {
        let plan = ShardPlan::contiguous(3, 7);
        let mut seen = [false; 3];
        for i in 0..7 {
            seen[plan.owner_of(ProcessId(i))] = true;
        }
        assert!(seen.iter().all(|&s| s), "every shard owns someone");
    }

    #[test]
    fn assign_pins_a_process() {
        let mut plan = ShardPlan::contiguous(2, 4);
        plan.assign(ProcessId(0), 1);
        assert_eq!(plan.owner_of(ProcessId(0)), 1);
    }

    #[test]
    fn window_ends_cover_the_horizon_and_add_a_flush_pass() {
        let ends = window_ends(
            SimTime::ZERO,
            SimTime::from_millis(10),
            SimDuration::from_millis(3),
        );
        assert_eq!(
            ends,
            vec![
                SimTime::from_millis(3),
                SimTime::from_millis(6),
                SimTime::from_millis(9),
                SimTime::from_millis(10),
                SimTime::from_millis(10), // flush pass
            ]
        );
    }

    #[test]
    fn window_ends_with_large_lookahead_is_one_window_plus_flush() {
        let ends = window_ends(
            SimTime::ZERO,
            SimTime::from_millis(5),
            SimDuration::from_secs(1),
        );
        assert_eq!(ends, vec![SimTime::from_millis(5), SimTime::from_millis(5)]);
    }

    #[test]
    fn shard_stats_accumulate_sums_and_keeps_min_lookahead() {
        let mut stats = ShardStats::default();
        stats.accumulate(
            3,
            SimDuration::from_millis(5),
            &[
                ShardLoad {
                    events: 10,
                    sent_cross: 2,
                    stall_ns: 100,
                },
                ShardLoad {
                    events: 20,
                    sent_cross: 1,
                    stall_ns: 50,
                },
            ],
        );
        stats.accumulate(
            2,
            SimDuration::from_millis(2),
            &[
                ShardLoad {
                    events: 5,
                    sent_cross: 0,
                    stall_ns: 10,
                },
                ShardLoad {
                    events: 5,
                    sent_cross: 3,
                    stall_ns: 20,
                },
            ],
        );
        assert_eq!(stats.windows, 5);
        assert_eq!(stats.lookahead, SimDuration::from_millis(2));
        assert_eq!(stats.loads[0].events, 15);
        assert_eq!(stats.loads[1].sent_cross, 4);
        assert_eq!(stats.loads[1].stall_ns, 70);
    }
}
