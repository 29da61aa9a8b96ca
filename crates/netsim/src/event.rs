//! The discrete-event queue at the heart of the simulator.
//!
//! [`EventQueue`] is a priority queue ordered by event time, with a strictly
//! increasing sequence number breaking ties so that events scheduled for the
//! same instant fire in insertion order (FIFO). Determinism of the whole
//! simulator rests on this tie-break. Its keys live in a monotone radix heap
//! (`RadixKeys`): simulated time only moves forward, so a key is filed by how
//! far it lies from the earliest time queued and re-filed a few times on its
//! way to the front, never sifted.
//!
//! # Sharded operation
//!
//! The sharded simulation core (see [`crate::shard`]) splits one global
//! queue into per-shard queues and later merges the leftovers back. Two
//! extensions support this without perturbing the sequential semantics:
//!
//! * **Tie keys.** Every entry carries a [`TieKey`]; ordering is
//!   `(at, key, seq)`. Sequentially scheduled entries all use
//!   [`TieKey::ZERO`], so ordering degrades to the classic `(at, seq)`
//!   FIFO and sequential runs are byte-identical to the pre-shard queue.
//!   Sharded schedulers key every entry with its *lineage* — when it was
//!   scheduled, by which handler invocation, and at which position within
//!   that handler — which makes `(at, key)` globally unique across shards
//!   *and* makes key order equal the sequential insertion order, so the
//!   merged order is the sequential order no matter which shard's queue
//!   an entry sat in.
//! * **Identity / order split.** The cancellation handle ([`EventId`]) is
//!   an identity drawn from a generation-tagged space, distinct from the
//!   ordering `seq`. Partitioning moves entries between queues while
//!   *preserving* their ids (timer handles held inside process state stay
//!   valid across a partition/dissolve cycle) and reassigning seqs.
//!   [`EventQueue::set_id_generation`] gives each shard a disjoint id
//!   range so ids never collide when queues merge.
//!
//! # Tombstone compaction
//!
//! [`EventQueue::cancel`] drops the payload and leaves a key-sized
//! tombstone in the queue; it is normally reclaimed when it surfaces at the
//! front. Workloads that cancel many far-future timers (retransmission timers
//! that almost always get acked) can accumulate tombstones faster than they
//! surface, bloating the queue. When tombstones outnumber live entries the
//! queue compacts: every tombstone is dropped, the live keys keep their order.
//! [`EventQueue::stats`] exposes the occupancy and compaction counters for
//! the scale observatory.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use crate::hash::MintedMap;
use crate::time::SimTime;

/// An opaque handle to a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

impl EventId {
    /// Reconstructs an id from its raw bits. An id is only meaningful to
    /// the queue (or driver) that minted it; drivers outside the simulator
    /// mint their own id space with this.
    #[must_use]
    pub fn from_raw(raw: u64) -> EventId {
        EventId(raw)
    }

    /// The raw bits of this id.
    #[must_use]
    pub fn as_raw(self) -> u64 {
        self.0
    }
}

/// Number of low bits of an [`EventId`] that hold the per-generation
/// counter; the id generation occupies the bits above.
const ID_GENERATION_SHIFT: u32 = 40;

/// Deterministic tie-break key for cross-shard merging: an event's
/// *scheduling lineage*.
///
/// Ordering of scheduled events is `(at, key, seq)`. Sequential scheduling
/// uses [`TieKey::ZERO`] everywhere, reducing the order to `(at, seq)` —
/// insertion-order FIFO. The sharded core keys every entry with a lineage
/// node `(sched, parent, oseq)`: the virtual time of the schedule call, the
/// key of the event whose handler made it, and the call's position within
/// that handler. Comparing keys compares `sched` first, then the parents
/// recursively, then `oseq` — which reproduces the sequential insertion
/// order exactly (see `DESIGN.md` §12 for the proof sketch).
///
/// A flat `(sched, origin-pid, oseq)` key would *not*: two handlers firing
/// at the same instant run in insertion order of their own events, not in
/// process-id order, and whatever they schedule inherits that order. The
/// parent link is what carries it across.
///
/// Nodes are `Arc`-shared, so a key is one allocation and siblings share
/// their parent chain; chains stay alive only while descendants are live.
#[derive(Debug, Clone)]
pub struct TieKey(Option<Arc<KeyNode>>);

#[derive(Debug)]
struct KeyNode {
    /// Virtual time at which the event was scheduled. Sequential insertion
    /// order is non-decreasing in schedule time, so this is the major key.
    sched: SimTime,
    /// Key of the event whose handler made the schedule call ([`TieKey::ZERO`]
    /// for partition-snapshot roots). When two schedule calls share `sched`,
    /// sequential insertion order is their handlers' execution order — the
    /// parents' key order, recursively.
    parent: TieKey,
    /// Position of the schedule call within its handler invocation (for
    /// roots: position of the entry in the pre-partition snapshot).
    oseq: u64,
}

impl TieKey {
    /// The empty key used by sequential scheduling. Sorts before every
    /// non-empty key, so a re-keyed snapshot still sorts after nothing.
    pub const ZERO: TieKey = TieKey(None);

    /// A lineage root: a pre-partition snapshot entry re-keyed with its
    /// position `oseq` in the drained queue, stamped at partition time
    /// `sched`. Roots sort among themselves by position and ahead of every
    /// key minted at or after `sched` — exactly where the sequential queue
    /// would have them.
    #[must_use]
    pub fn root(sched: SimTime, oseq: u64) -> TieKey {
        TieKey::ZERO.child(sched, oseq)
    }

    /// The key for the `oseq`-th schedule call made at time `sched` by the
    /// handler of the event keyed `self`.
    #[must_use]
    pub fn child(&self, sched: SimTime, oseq: u64) -> TieKey {
        TieKey(Some(Arc::new(KeyNode {
            sched,
            parent: self.clone(),
            oseq,
        })))
    }
}

impl Drop for KeyNode {
    fn drop(&mut self) {
        // Unlink the parent chain iteratively: dropping the last holder of
        // a deep lineage (a long-lived self-rescheduling timer) must not
        // recurse one stack frame per ancestor.
        let mut parent = std::mem::replace(&mut self.parent, TieKey::ZERO);
        while let Some(arc) = parent.0.take() {
            match Arc::try_unwrap(arc) {
                Ok(mut node) => {
                    parent = std::mem::replace(&mut node.parent, TieKey::ZERO);
                }
                Err(_) => break, // still shared; its holder unlinks later
            }
        }
    }
}

impl PartialEq for TieKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for TieKey {}
impl PartialOrd for TieKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TieKey {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.0, &other.0) {
            // Sequential runs key everything ZERO: settle key ties inline.
            (None, None) => Ordering::Equal,
            _ => self.cmp_lineage(other),
        }
    }
}

impl TieKey {
    fn cmp_lineage(&self, other: &Self) -> Ordering {
        // Lexicographic (sched, parent, oseq), unrolled iteratively so
        // phase-locked lineages (identical sched at every level) cannot
        // overflow the stack. Walk up while scheds tie, then resolve from
        // the root side down: the first level whose parents differ — or,
        // failing that, whose oseqs differ — decides.
        let (mut a, mut b) = (&self.0, &other.0);
        let mut oseqs: Vec<(u64, u64)> = Vec::new();
        let base = loop {
            match (a, b) {
                (None, None) => break Ordering::Equal,
                (None, Some(_)) => break Ordering::Less,
                (Some(_), None) => break Ordering::Greater,
                (Some(x), Some(y)) => {
                    if Arc::ptr_eq(x, y) {
                        break Ordering::Equal;
                    }
                    match x.sched.cmp(&y.sched) {
                        Ordering::Equal => {
                            oseqs.push((x.oseq, y.oseq));
                            a = &x.parent.0;
                            b = &y.parent.0;
                        }
                        unequal => break unequal,
                    }
                }
            }
        };
        if base != Ordering::Equal {
            return base;
        }
        for &(x, y) in oseqs.iter().rev() {
            if x != y {
                return x.cmp(&y);
            }
        }
        Ordering::Equal
    }
}

/// Queue occupancy and maintenance counters, for the scale observatory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events scheduled and neither fired nor cancelled.
    pub live: usize,
    /// Cancelled entries whose keys are still queued.
    pub tombstones: usize,
    /// High-water mark of `tombstones` over the queue's lifetime.
    pub tombstones_peak: usize,
    /// Times the queue was compacted to evict tombstones.
    pub compactions: u64,
}

impl QueueStats {
    /// Folds another queue's counters into this one (peaks max, counters
    /// sum) — used when per-shard queues dissolve back into the global one.
    pub fn absorb(&mut self, other: &QueueStats) {
        self.tombstones_peak = self.tombstones_peak.max(other.tombstones_peak);
        self.compactions += other.compactions;
    }
}

/// What the queue orders: the ordering key `(at, key, seq)` and the slab
/// slot holding the payload. 32 bytes whatever `E` is, so moving a key
/// between buckets copies one key, never a packet.
struct HeapKey {
    at: SimTime,
    key: TieKey,
    seq: u64,
    slot: u32,
}

impl PartialEq for HeapKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapKey {}
impl PartialOrd for HeapKey {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapKey {
    /// Firing order: the earliest `(time, key, seq)` is the least.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.at
            .cmp(&other.at)
            .then_with(|| self.key.cmp(&other.key))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// A buffer that empties with room for more keys than this is freed, so the
/// room the buckets keep follows what is queued now, not what each bucket
/// once held.
const KEEP_KEYS: usize = 64;

/// The bucket of a key at `at` after the settled minimum `last`: the highest
/// bit in which the two differ.
#[inline(always)]
fn bucket_of(at: u64, last: u64) -> usize {
    debug_assert!(at > last);
    63 - (at ^ last).leading_zeros() as usize
}

/// The ordered key store: a monotone radix heap on `at`.
///
/// Every key at or after `last`, the minimum settled most recently, sits
/// either in `now` (exactly at `last`) or in the bucket named by the highest
/// bit in which its time differs from `last`. Settling empties the lowest
/// occupied bucket: its earliest time becomes `last`, and its keys move to
/// `now` or to strictly lower buckets, so a key is moved a few times on its
/// way to the front instead of sifted through `log n` heap levels on every
/// pop. Keys enter a bucket in `seq` order and keep it, so `now` needs a
/// sort only when it holds lineage-keyed (sharded) entries.
///
/// A look at the front that does not pop (`peek_time`, a refused
/// `pop_key_if`) settles `last` ahead of the caller's clock. A key scheduled
/// before `last` after that (a wall-clock driver's timer armed after its
/// peek, an entry `restore`d on shard dissolve) cannot join the radix
/// order; it waits in `behind`, a binary heap compared with `now` at the
/// front.
struct RadixKeys {
    /// The settled minimum, in nanoseconds.
    last: u64,
    /// Keys at exactly `last`, in `(key, seq)` order.
    now: VecDeque<HeapKey>,
    /// `bits[b]`: keys after `last` whose highest bit differing from it is `b`.
    bits: [Vec<HeapKey>; 64],
    /// Bit `b` is set when `bits[b]` holds a key.
    occupied: u64,
    /// Keys before `last`.
    behind: BinaryHeap<Reverse<HeapKey>>,
    len: usize,
}

impl RadixKeys {
    fn new() -> Self {
        RadixKeys {
            last: 0,
            now: VecDeque::new(),
            bits: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            behind: BinaryHeap::new(),
            len: 0,
        }
    }

    #[inline(always)]
    fn push(&mut self, key: HeapKey) {
        let at = key.at.as_nanos();
        if at > self.last {
            let b = bucket_of(at, self.last);
            self.occupied |= 1 << b;
            self.bits[b].push(key);
        } else if at == self.last {
            self.push_now(key);
        } else {
            self.behind.push(Reverse(key));
        }
        self.len += 1;
    }

    fn push_now(&mut self, key: HeapKey) {
        if self.now.back().is_none_or(|back| *back < key) {
            self.now.push_back(key);
        } else {
            let at = self.now.partition_point(|k| *k < key);
            self.now.insert(at, key);
        }
    }

    /// Refills an empty `now` from the lowest occupied bucket.
    #[inline]
    fn settle(&mut self) {
        if !self.now.is_empty() || self.occupied == 0 {
            return;
        }
        let b = self.occupied.trailing_zeros() as usize;
        self.occupied &= !(1 << b);
        let mut drained = std::mem::take(&mut self.bits[b]);
        let last = drained
            .iter()
            .map(|k| k.at.as_nanos())
            .min()
            .expect("an occupied bucket holds a key");
        self.last = last;
        if self.now.capacity() > KEEP_KEYS {
            self.now = VecDeque::new();
        }
        let mut keyed = false;
        for key in drained.drain(..) {
            let at = key.at.as_nanos();
            if at == last {
                keyed |= key.key.0.is_some();
                self.now.push_back(key);
            } else {
                let to = bucket_of(at, last);
                self.occupied |= 1 << to;
                self.bits[to].push(key);
            }
        }
        if drained.capacity() <= KEEP_KEYS {
            self.bits[b] = drained;
        }
        if keyed {
            self.now.make_contiguous().sort_unstable();
        }
    }

    /// Whether the least key waits in `behind` rather than at the front of
    /// a settled `now`.
    #[inline]
    fn behind_first(&self) -> bool {
        match (self.now.front(), self.behind.peek()) {
            (Some(now), Some(Reverse(behind))) => behind < now,
            (now, _) => now.is_none(),
        }
    }

    /// The least key, settling first.
    #[inline]
    fn front(&mut self) -> Option<&HeapKey> {
        self.settle();
        if self.behind_first() {
            self.behind.peek().map(|Reverse(k)| k)
        } else {
            self.now.front()
        }
    }

    /// Removes the least key, settling first.
    #[inline]
    fn pop(&mut self) -> Option<HeapKey> {
        self.settle();
        let key = if self.behind_first() {
            self.behind.pop().map(|Reverse(k)| k)
        } else {
            self.now.pop_front()
        };
        self.len -= usize::from(key.is_some());
        key
    }

    /// Keeps only the keys `keep` accepts, in order.
    fn retain(&mut self, mut keep: impl FnMut(&HeapKey) -> bool) {
        self.now.retain(|k| keep(k));
        self.behind.retain(|Reverse(k)| keep(k));
        self.len = self.now.len() + self.behind.len();
        for (b, bucket) in self.bits.iter_mut().enumerate() {
            bucket.retain(|k| keep(k));
            self.len += bucket.len();
            if bucket.is_empty() {
                self.occupied &= !(1 << b);
                if bucket.capacity() > KEEP_KEYS {
                    *bucket = Vec::new();
                }
            }
        }
    }

    /// Keys held, tombstones included.
    fn len(&self) -> usize {
        self.len
    }
}

/// One slab cell: a live event's identity and payload, parked here while
/// its key sits in the queue. The payload is its own field so that filling
/// and emptying a cell moves exactly the payload, once.
struct Slot<E> {
    id: u64,
    /// `Some` while the event is live; `None` once cancelled (its key is
    /// then a tombstone) or free.
    payload: Option<E>,
}

/// A time-ordered queue of simulation events with FIFO tie-breaking.
///
/// A radix heap orders 32-byte keys; payloads sit in a slab and move twice
/// (in at `schedule`, out at `pop`). Cancellation drops the payload at once
/// and leaves a key-sized tombstone that is skipped when it surfaces; when
/// tombstones outnumber live entries the keys are compacted in place.
///
/// # Examples
///
/// ```
/// use son_netsim::event::EventQueue;
/// use son_netsim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(2), "later");
/// q.schedule(SimTime::from_millis(1), "sooner");
/// let (at, what) = q.pop().unwrap();
/// assert_eq!((at, what), (SimTime::from_millis(1), "sooner"));
/// ```
pub struct EventQueue<E> {
    keys: RadixKeys,
    /// Payload storage, indexed by [`HeapKey::slot`]. A slot returns to
    /// `free` only when its key leaves the queue, so a key never points at
    /// another event's slot.
    slab: Vec<Slot<E>>,
    free: Vec<u32>,
    /// Live event id -> slab slot.
    index: MintedMap<u64, u32>,
    next_seq: u64,
    next_id: u64,
    tombstones_peak: usize,
    compactions: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("live", &self.index.len())
            .field("keys", &self.keys.len())
            .field("next_seq", &self.next_seq)
            .finish_non_exhaustive()
    }
}

/// Tombstones must exceed both the live count and this floor before a
/// compaction triggers; tiny queues are not worth rebuilding.
const COMPACT_FLOOR: usize = 64;

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            keys: RadixKeys::new(),
            slab: Vec::new(),
            free: Vec::new(),
            index: MintedMap::default(),
            next_seq: 0,
            next_id: 0,
            tombstones_peak: 0,
            compactions: 0,
        }
    }

    /// Queues the key of a new entry and returns its empty payload cell.
    /// The caller fills the cell as its next step: everything here that can
    /// grow a vector has then already happened, so the payload is built
    /// where it will lie instead of being staged across those calls.
    #[inline(always)]
    fn vacant(&mut self, at: SimTime, key: TieKey, id: u64) -> &mut Option<E> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab.push(Slot { id, payload: None });
            u32::try_from(self.slab.len() - 1).expect("over 2^32 queued events")
        });
        self.keys.push(HeapKey { at, key, seq, slot });
        let previous = self.index.insert(id, slot);
        debug_assert!(previous.is_none(), "duplicate live event id {id:#x}");
        let cell = &mut self.slab[slot as usize];
        cell.id = id;
        &mut cell.payload
    }

    /// [`EventQueue::schedule`] for a payload the caller builds in place:
    /// `let cell = queue.schedule_cell(at); *cell = Some(payload);`.
    #[inline(always)]
    pub(crate) fn schedule_cell(&mut self, at: SimTime) -> &mut Option<E> {
        let id = self.fresh_id();
        self.vacant(at, TieKey::ZERO, id)
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Schedules `payload` to fire at `at` and returns a cancellation handle.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        self.schedule_keyed(at, TieKey::ZERO, payload)
    }

    /// Schedules `payload` with an explicit tie-break key (sharded mode).
    pub fn schedule_keyed(&mut self, at: SimTime, key: TieKey, payload: E) -> EventId {
        let id = self.fresh_id();
        let cell = self.vacant(at, key, id);
        *cell = Some(payload);
        EventId(id)
    }

    /// Re-inserts an entry that previously lived in another queue, keeping
    /// its identity (so outstanding cancellation handles stay valid) and
    /// its key. The caller must guarantee `id` cannot collide with ids this
    /// queue will mint — see [`EventQueue::set_id_generation`].
    pub fn restore(&mut self, at: SimTime, key: TieKey, id: EventId, payload: E) {
        let cell = self.vacant(at, key, id.0);
        *cell = Some(payload);
    }

    /// Moves the id counter to the start of generation `generation`:
    /// subsequently minted ids are `generation << 40 | n`. Each shard queue
    /// of one partition gets a distinct generation, so ids stay unique when
    /// shard queues merge back — and outstanding timer handles from any
    /// earlier generation can never be re-minted.
    ///
    /// # Panics
    ///
    /// Panics if the generation would move the counter backwards (id
    /// uniqueness would break) or overflows the id space.
    pub fn set_id_generation(&mut self, generation: u64) {
        assert!(
            generation < 1 << (64 - ID_GENERATION_SHIFT),
            "id generation overflow"
        );
        let base = generation << ID_GENERATION_SHIFT;
        assert!(
            base >= self.next_id,
            "id generation must move forward (base {base} < next id {})",
            self.next_id
        );
        self.next_id = base;
    }

    /// The id generation after all ids this queue has minted so far.
    #[must_use]
    pub fn next_id_generation(&self) -> u64 {
        (self.next_id >> ID_GENERATION_SHIFT) + u64::from(self.next_id != 0)
    }

    /// Cancels a previously scheduled event, dropping its payload now.
    ///
    /// Returns `true` if the event had not yet fired or been cancelled.
    /// Cancelling an already-fired event is a harmless no-op returning `false`.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(slot) = self.index.remove(&id.0) else {
            return false;
        };
        self.slab[slot as usize].payload = None;
        let tombstones = self.tombstones();
        self.tombstones_peak = self.tombstones_peak.max(tombstones);
        if tombstones > self.index.len().max(COMPACT_FLOOR) {
            self.compact();
        }
        true
    }

    /// Drops every tombstone, keeping the live keys in order.
    fn compact(&mut self) {
        let (slab, free) = (&self.slab, &mut self.free);
        self.keys.retain(|k| {
            let live = slab[k.slot as usize].payload.is_some();
            if !live {
                free.push(k.slot);
            }
            live
        });
        self.compactions += 1;
    }

    /// Drains tombstones off the front and returns the time of the earliest
    /// live key, which is then at the front.
    fn surface_live(&mut self) -> Option<SimTime> {
        loop {
            let front = self.keys.front()?;
            if self.slab[front.slot as usize].payload.is_some() {
                return Some(front.at);
            }
            let dead = self.keys.pop().expect("front key exists");
            self.free.push(dead.slot);
        }
    }

    /// Unqueues the earliest non-cancelled event if `due` accepts its time
    /// (leaves it queued otherwise) and returns its time, key, identity and
    /// slab slot. The run loops' single step — one key pop and one id
    /// removal per fired event — which [`EventQueue::take_payload`]
    /// completes.
    #[inline]
    pub(crate) fn pop_key_if(
        &mut self,
        due: impl FnOnce(SimTime) -> bool,
    ) -> Option<(SimTime, TieKey, EventId, u32)> {
        if !due(self.surface_live()?) {
            return None;
        }
        let HeapKey { at, key, slot, .. } = self.keys.pop().expect("surfaced key exists");
        let id = self.slab[slot as usize].id;
        self.index.remove(&id);
        Some((at, key, EventId(id), slot))
    }

    /// Releases the slot [`EventQueue::pop_key_if`] returned and hands out
    /// its payload. Its own step, ending in a bare move, so that the event
    /// travels from its cell to whoever consumes the return value without a
    /// stop in between.
    #[inline(always)]
    pub(crate) fn take_payload(&mut self, slot: u32) -> E {
        self.free.push(slot);
        self.slab[slot as usize]
            .payload
            .take()
            .expect("unqueued key is live")
    }

    /// Removes and returns the earliest non-cancelled event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_full().map(|(at, _, _, payload)| (at, payload))
    }

    /// Removes and returns the earliest non-cancelled event along with its
    /// key and identity — the partition/dissolve form of [`EventQueue::pop`].
    pub fn pop_full(&mut self) -> Option<(SimTime, TieKey, EventId, E)> {
        let (at, key, id, slot) = self.pop_key_if(|_| true)?;
        Some((at, key, id, self.take_payload(slot)))
    }

    /// Drains the queue in firing order, preserving identities and keys.
    pub fn drain_ordered(&mut self) -> Vec<(SimTime, TieKey, EventId, E)> {
        let mut out = Vec::with_capacity(self.index.len());
        while let Some(item) = self.pop_full() {
            out.push(item);
        }
        out
    }

    /// The time of the earliest pending event, without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.surface_live()
    }

    /// Number of events scheduled and not yet fired or cancelled.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` if no live events remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Cancelled entries whose keys are still queued.
    #[must_use]
    pub fn tombstones(&self) -> usize {
        self.keys.len() - self.index.len()
    }

    /// Occupancy and maintenance counters.
    #[must_use]
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            live: self.index.len(),
            tombstones: self.tombstones(),
            tombstones_peak: self.tombstones_peak,
            compactions: self.compactions,
        }
    }

    /// Folds another queue's maintenance counters into this one (shard
    /// queues dissolving back into the global queue).
    pub fn absorb_stats(&mut self, other: &QueueStats) {
        self.tombstones_peak = self.tombstones_peak.max(other.tombstones_peak);
        self.compactions += other.compactions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), 5);
        q.schedule(SimTime::from_millis(1), 1);
        q.schedule(SimTime::from_millis(3), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn equal_times_fire_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), "a");
        q.schedule(SimTime::from_millis(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        assert!(!q.cancel(a));
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), "a");
        q.schedule(SimTime::from_millis(2), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(2)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..10)
            .map(|i| q.schedule(SimTime::from_millis(i), i))
            .collect();
        for id in &ids[..4] {
            q.cancel(*id);
        }
        assert_eq!(q.len(), 6);
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        assert_eq!(q.peek_time(), None);
        assert!(
            !q.cancel(EventId(99)),
            "cancelling a never-issued id is a no-op"
        );
    }

    #[test]
    fn keyed_entries_order_by_key_before_seq() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        let key = |sched_us: u64, oseq: u64| TieKey::root(SimTime::from_micros(sched_us), oseq);
        // Insert out of key order; pops must come back in key order.
        q.schedule_keyed(t, key(5, 0), "late-sched");
        q.schedule_keyed(t, key(1, 2), "early-sched-third");
        q.schedule_keyed(t, key(1, 1), "early-sched-second");
        q.schedule_keyed(t, key(1, 0), "early-sched-first");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            vec![
                "early-sched-first",
                "early-sched-second",
                "early-sched-third",
                "late-sched",
            ]
        );
    }

    #[test]
    fn lineage_keys_order_by_parent_before_code_position() {
        // Two handlers fire at the same instant `s`; the one keyed earlier
        // ran first sequentially, so everything it scheduled must sort
        // ahead of the later handler's output — regardless of oseq.
        let s = SimTime::from_millis(1);
        let t = SimTime::from_millis(2);
        let first = TieKey::root(SimTime::ZERO, 0);
        let second = TieKey::root(SimTime::ZERO, 1);
        let mut q = EventQueue::new();
        q.schedule_keyed(t, second.child(s, 0), "second-handler");
        q.schedule_keyed(t, first.child(s, 7), "first-handler-late-call");
        q.schedule_keyed(t, first.child(s, 2), "first-handler-early-call");
        // A root re-keyed at `s` predates anything scheduled at `s`.
        q.schedule_keyed(t, TieKey::root(s, 9), "snapshot-root");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            vec![
                "snapshot-root",
                "first-handler-early-call",
                "first-handler-late-call",
                "second-handler",
            ]
        );
    }

    #[test]
    fn deep_phase_locked_lineages_compare_without_overflow() {
        // Self-rescheduling timers build chains one node per tick; two
        // phase-locked chains tie on `sched` at every level and resolve
        // only at their roots. The comparison must be iterative.
        let mut a = TieKey::root(SimTime::ZERO, 0);
        let mut b = TieKey::root(SimTime::ZERO, 1);
        for tick in 1..200_000u64 {
            let now = SimTime::from_micros(tick);
            a = a.child(now, 0);
            b = b.child(now, 0);
        }
        assert!(a < b, "root order decides phase-locked ties");
        assert!(a == a.clone());
    }

    #[test]
    fn zero_keys_reduce_to_fifo() {
        // schedule() and schedule_keyed(ZERO) interleave as pure FIFO.
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        q.schedule(t, 0);
        q.schedule_keyed(t, TieKey::ZERO, 1);
        q.schedule(t, 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn restore_preserves_cancellation_identity() {
        let mut donor = EventQueue::new();
        let keep = donor.schedule(SimTime::from_millis(10), "keep");
        let cancel = donor.schedule(SimTime::from_millis(20), "cancel");
        let drained = donor.drain_ordered();
        assert_eq!(drained.len(), 2);

        let mut target = EventQueue::new();
        target.set_id_generation(7);
        for (at, key, id, payload) in drained {
            target.restore(at, key, id, payload);
        }
        // The handle issued by the donor still cancels in the target.
        assert!(target.cancel(cancel));
        assert!(!target.cancel(cancel));
        let order: Vec<&str> = std::iter::from_fn(|| target.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["keep"]);
        let _ = keep;
    }

    #[test]
    fn generations_keep_ids_disjoint() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        a.set_id_generation(1);
        b.set_id_generation(2);
        let ia = a.schedule(SimTime::from_millis(1), "a");
        let ib = b.schedule(SimTime::from_millis(1), "b");
        assert_ne!(ia, ib);

        // Merge both into one queue; both handles remain distinct and valid.
        let mut merged = EventQueue::new();
        merged.set_id_generation(3);
        for (at, key, id, p) in a.drain_ordered().into_iter().chain(b.drain_ordered()) {
            merged.restore(at, key, id, p);
        }
        assert!(merged.cancel(ia));
        assert_eq!(merged.pop().unwrap().1, "b");
        assert!(!merged.cancel(ib), "already fired");
    }

    #[test]
    fn next_id_generation_reports_past_minted_ids() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.next_id_generation(), 0);
        q.schedule(SimTime::ZERO, ());
        assert_eq!(q.next_id_generation(), 1);
        q.set_id_generation(5);
        q.schedule(SimTime::ZERO, ());
        assert_eq!(q.next_id_generation(), 6);
    }

    #[test]
    fn tombstones_compact_when_they_dominate() {
        let mut q = EventQueue::new();
        // A few live entries and a mountain of cancelled ones.
        for i in 0..10i32 {
            q.schedule(SimTime::from_millis(i as u64), i);
        }
        let doomed: Vec<_> = (0..200)
            .map(|i| q.schedule(SimTime::from_secs(60 + i), -1))
            .collect();
        for id in doomed {
            q.cancel(id);
        }
        let stats = q.stats();
        assert_eq!(stats.live, 10);
        assert!(stats.compactions >= 1, "compaction must trigger: {stats:?}");
        assert!(
            stats.tombstones <= stats.live.max(COMPACT_FLOOR),
            "tombstones stay bounded after compaction: {stats:?}"
        );
        assert!(stats.tombstones_peak > COMPACT_FLOOR);
        // Everything live still pops in order.
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn stats_absorb_folds_peaks_and_sums() {
        let a = QueueStats {
            live: 1,
            tombstones: 2,
            tombstones_peak: 10,
            compactions: 3,
        };
        let mut b = QueueStats {
            live: 5,
            tombstones: 0,
            tombstones_peak: 4,
            compactions: 2,
        };
        b.absorb(&a);
        assert_eq!(b.tombstones_peak, 10);
        assert_eq!(b.compactions, 5);
    }

    /// Every slot is free or referenced by exactly one queued key, and a
    /// live id maps to the slot holding it.
    fn assert_slab_consistent<E>(q: &EventQueue<E>) {
        let k = &q.keys;
        let filed: usize = k.bits.iter().map(Vec::len).sum();
        assert_eq!(k.len(), k.now.len() + k.behind.len() + filed);
        for (b, bucket) in k.bits.iter().enumerate() {
            assert_eq!(k.occupied >> b & 1 == 1, !bucket.is_empty(), "bucket {b}");
        }
        assert_eq!(q.free.len() + k.len(), q.slab.len());
        let filled = q.slab.iter().filter(|s| s.payload.is_some()).count();
        assert_eq!(filled, q.index.len());
        for (id, &slot) in &q.index {
            let held = &q.slab[slot as usize];
            assert!(held.payload.is_some(), "live id has a payload");
            assert_eq!(held.id, *id);
        }
    }

    /// The reference: every entry still queued (live or tombstone) in
    /// a `Vec` re-sorted on each insert.
    #[derive(Default)]
    struct Model {
        entries: Vec<ModelEntry>,
        next_seq: u64,
        tombstones_peak: usize,
        compactions: u64,
    }

    struct ModelEntry {
        at: SimTime,
        key: TieKey,
        seq: u64,
        id: EventId,
        payload: u32,
        live: bool,
    }

    impl Model {
        fn insert(&mut self, at: SimTime, key: TieKey, id: EventId, payload: u32) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.entries.push(ModelEntry {
                at,
                key,
                seq,
                id,
                payload,
                live: true,
            });
            self.entries
                .sort_by(|a, b| (a.at, &a.key, a.seq).cmp(&(b.at, &b.key, b.seq)));
        }

        fn live(&self) -> usize {
            self.entries.iter().filter(|e| e.live).count()
        }

        fn stats(&self) -> QueueStats {
            QueueStats {
                live: self.live(),
                tombstones: self.entries.len() - self.live(),
                tombstones_peak: self.tombstones_peak,
                compactions: self.compactions,
            }
        }

        fn cancel(&mut self, id: EventId) -> bool {
            let Some(entry) = self.entries.iter_mut().find(|e| e.live && e.id == id) else {
                return false;
            };
            entry.live = false;
            let tombstones = self.stats().tombstones;
            self.tombstones_peak = self.tombstones_peak.max(tombstones);
            if tombstones > self.live().max(COMPACT_FLOOR) {
                self.compact();
            }
            true
        }

        fn compact(&mut self) {
            self.entries.retain(|e| e.live);
            self.compactions += 1;
        }

        /// Tombstones ahead of the earliest live entry leave the queue
        /// whenever the queue looks at its top.
        fn peek(&mut self) -> Option<&ModelEntry> {
            let dead = self.entries.iter().take_while(|e| !e.live).count();
            self.entries.drain(..dead);
            self.entries.first()
        }

        fn pop_if(&mut self, due: impl FnOnce(SimTime) -> bool) -> Option<ModelEntry> {
            due(self.peek()?.at).then(|| self.entries.remove(0))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        fn queue_matches_sorted_model(
            ops in proptest::collection::vec(
                (0u8..22, 0u32..36, any::<u64>(), 0usize..4096),
                0..1200,
            ),
        ) {
            let mut q: EventQueue<u32> = EventQueue::new();
            // `restore` needs ids from a foreign generation.
            let mut donor: EventQueue<u32> = EventQueue::new();
            donor.set_id_generation(9);
            let mut model = Model::default();
            let mut handles: Vec<EventId> = Vec::new();
            let mut payload = 0u32;
            // The latest time popped: where a simulation's clock would be.
            let mut clock = 0u64;
            for (op, bits, draw, pick) in ops {
                // A distance of `bits` bits, from 0 ns to 34 s, so keys land
                // in every bucket a run uses. One draw in three is rounded up
                // to a coarse grid, so keys share times with their neighbours.
                let span = if bits == 0 { 0 } else { draw >> (64 - bits) };
                let grid = if pick % 3 == 0 { 1u64 << bits.saturating_sub(3) } else { 1 };
                let ahead = SimTime::from_nanos((clock + span).div_ceil(grid) * grid);
                // Behind the clock: a wall-clock driver's late timer, or an
                // entry restored from a shard.
                let behind = SimTime::from_nanos(clock.saturating_sub(span.max(1)));
                let at = if op >= 19 { behind } else { ahead };
                let tie = (pick / 4) as u64 % 8;
                let key = match pick % 4 {
                    0 => TieKey::ZERO,
                    1 => TieKey::root(SimTime::ZERO, tie),
                    2 => TieKey::root(at, tie % 3),
                    _ => TieKey::root(SimTime::ZERO, 1).child(at, tie),
                };
                payload += 1;
                let popped = match op {
                    0..=4 | 19 => {
                        let id = q.schedule(at, payload);
                        model.insert(at, TieKey::ZERO, id, payload);
                        handles.push(id);
                        None
                    }
                    5..=6 | 20 => {
                        let id = q.schedule_keyed(at, key.clone(), payload);
                        model.insert(at, key, id, payload);
                        handles.push(id);
                        None
                    }
                    7 | 21 => {
                        donor.schedule_keyed(at, key, payload);
                        let (at, key, id, payload) = donor.pop_full().expect("just scheduled");
                        q.restore(at, key.clone(), id, payload);
                        model.insert(at, key, id, payload);
                        handles.push(id);
                        None
                    }
                    // A recent handle: live, fired or already cancelled.
                    8..=13 if !handles.is_empty() => {
                        let id = handles[handles.len() - 1 - pick % handles.len().min(96)];
                        prop_assert_eq!(q.cancel(id), model.cancel(id));
                        None
                    }
                    14 => {
                        let want = model.pop_if(|_| true).map(|e| (e.at, e.payload));
                        prop_assert_eq!(q.pop(), want);
                        want.map(|(at, _)| at)
                    }
                    15 => {
                        let want = model.pop_if(|_| true).map(|e| (e.at, e.key, e.id, e.payload));
                        let at = want.as_ref().map(|w| w.0);
                        prop_assert_eq!(q.pop_full(), want);
                        at
                    }
                    16 => {
                        // A bound short of the front settles it unpopped.
                        let want = model.pop_if(|t| t <= at).map(|e| (e.at, e.key, e.id, e.payload));
                        let got = q
                            .pop_key_if(|t| t <= at)
                            .map(|(at, key, id, slot)| (at, key, id, q.take_payload(slot)));
                        let at = want.as_ref().map(|w| w.0);
                        prop_assert_eq!(got, want);
                        at
                    }
                    17 => {
                        prop_assert_eq!(q.peek_time(), model.peek().map(|e| e.at));
                        None
                    }
                    18 if pick % 16 == 0 => {
                        // A compaction nobody asked for changes only the
                        // tombstone and compaction counts.
                        q.compact();
                        model.compact();
                        None
                    }
                    _ => None,
                };
                if let Some(at) = popped {
                    clock = clock.max(at.as_nanos());
                }
                prop_assert_eq!(q.stats(), model.stats());
                prop_assert_eq!(q.len(), model.live());
                assert_slab_consistent(&q);
            }
            let rest: Vec<_> = std::iter::from_fn(|| model.pop_if(|_| true))
                .map(|e| (e.at, e.key, e.id, e.payload))
                .collect();
            prop_assert_eq!(q.drain_ordered(), rest);
            prop_assert_eq!(q.free.len(), q.slab.len());
        }
    }

    #[test]
    fn cancel_releases_the_payload_at_once() {
        struct Counted(std::rc::Rc<std::cell::Cell<u32>>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.set(self.0.get() + 1);
            }
        }
        let drops = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), Counted(drops.clone()));
        let doomed = q.schedule(SimTime::from_millis(2), Counted(drops.clone()));
        assert!(q.cancel(doomed));
        assert_eq!(drops.get(), 1, "dropped at cancel");
        assert_eq!(q.tombstones(), 1, "while its key is still queued");
        drop(q.pop());
        assert_eq!(drops.get(), 2);
        assert!(q.pop().is_none());
        assert_eq!(drops.get(), 2, "the surfacing tombstone drops nothing");
    }

    #[test]
    fn slab_never_outgrows_the_peak_of_live_plus_tombstones() {
        const DEPTH: u64 = 4096;
        let mut rng = crate::rng::SimRng::seed(3);
        let mut q = EventQueue::new();
        let mut peak = 0;
        let mut watch = |q: &EventQueue<u64>| peak = peak.max(q.len() + q.tombstones());
        let mut pending = std::collections::VecDeque::new();
        for i in 0..DEPTH {
            pending.push_back(q.schedule(SimTime::from_nanos(rng.uniform_u64(1, 2_000_000)), i));
        }
        for cycle in 0..100_000u64 {
            let (at, payload) = q.pop().expect("steady depth");
            let next = at + crate::time::SimDuration::from_nanos(rng.uniform_u64(1, 2_000_000));
            pending.push_back(q.schedule(next, payload));
            // Cancel-and-replace (often a fired id: a no-op), so tombstones
            // surface through both `pop` and `peek_time`.
            if cycle % 3 == 0 && q.cancel(pending.pop_front().expect("ids outnumber cycles")) {
                pending.push_back(q.schedule(next, payload));
                watch(&q);
            }
            if cycle % 7 == 0 {
                q.peek_time();
            }
            if cycle % 20_000 == 0 {
                // A burst of far-future timers, all cancelled: forces a
                // compaction at full depth.
                let before = q.stats().compactions;
                let burst: Vec<_> = (0..2 * DEPTH)
                    .map(|i| q.schedule(SimTime::from_secs(3600), i))
                    .collect();
                watch(&q);
                burst.into_iter().for_each(|id| assert!(q.cancel(id)));
                assert!(q.stats().compactions > before);
            }
            if cycle % 30_000 == 0 {
                // A partition/dissolve round trip.
                for (at, key, id, payload) in q.drain_ordered() {
                    q.restore(at, key, id, payload);
                }
            }
            watch(&q);
        }
        assert_eq!(q.len() as u64, DEPTH);
        assert_slab_consistent(&q);
        assert!(
            q.slab.len() <= peak,
            "slab holds {} slots, queue peaked at {peak} entries",
            q.slab.len()
        );
    }

    #[test]
    fn key_storage_stays_proportional_to_the_peak() {
        const DEPTH: usize = 4096;
        let key_capacity = |q: &EventQueue<u64>| {
            let k = &q.keys;
            k.now.capacity() + k.behind.capacity() + k.bits.iter().map(Vec::capacity).sum::<usize>()
        };
        let mut rng = crate::rng::SimRng::seed(5);
        let mut q = EventQueue::new();
        let mut peak = 0;
        let mut clock = SimTime::ZERO;
        // Hold the queue at DEPTH over distances from a microsecond to
        // seventeen seconds: each files the keys into buckets of its own.
        for span_bits in [10, 16, 22, 28, 34] {
            let ahead = |rng: &mut crate::rng::SimRng, from: SimTime| {
                from + crate::time::SimDuration::from_nanos(rng.uniform_u64(1, 1 << span_bits))
            };
            while q.len() < DEPTH {
                q.schedule(ahead(&mut rng, clock), 0);
            }
            for _ in 0..4 * DEPTH {
                let (at, payload) = q.pop().expect("steady depth");
                clock = at;
                q.schedule(ahead(&mut rng, clock), payload);
            }
            if span_bits == 22 {
                // A burst of far-future timers, all cancelled.
                let burst: Vec<_> = (0..DEPTH as u64)
                    .map(|i| q.schedule(clock + crate::time::SimDuration::from_secs(3600), i))
                    .collect();
                peak = peak.max(q.len() + q.tombstones());
                burst.into_iter().for_each(|id| assert!(q.cancel(id)));
            }
            peak = peak.max(q.len() + q.tombstones());
        }
        // Back to a shallow queue.
        while q.len() > 64 {
            q.pop();
        }
        assert_slab_consistent(&q);
        assert!(
            key_capacity(&q) <= 2 * peak,
            "room for {} keys kept, queue peaked at {peak} entries",
            key_capacity(&q)
        );
    }

    #[test]
    fn ids_from_before_a_generation_move_cancel_after_restore() {
        let mut donor = EventQueue::new();
        let early = donor.schedule(SimTime::from_millis(10), "early");
        donor.set_id_generation(3);
        let late = donor.schedule(SimTime::from_millis(20), "late");
        let kept = donor.schedule(SimTime::from_millis(30), "kept");

        let mut target = EventQueue::new();
        target.set_id_generation(4);
        let own = target.schedule(SimTime::from_millis(5), "own");
        for (at, key, id, payload) in donor.drain_ordered() {
            target.restore(at, key, id, payload);
        }
        assert_slab_consistent(&donor);
        assert!(target.cancel(early), "generation-0 handle");
        assert!(target.cancel(late), "generation-3 handle");
        assert!(!target.cancel(early));
        assert_slab_consistent(&target);
        let order: Vec<&str> = std::iter::from_fn(|| target.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["own", "kept"]);
        assert!(!target.cancel(own) && !target.cancel(kept), "both fired");
    }
}
