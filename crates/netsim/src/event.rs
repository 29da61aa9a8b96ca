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
//! # Tombstone compaction
//!
//! [`EventQueue::cancel_if`] drops the payload and leaves a key-sized
//! tombstone in the queue; it is normally reclaimed when it surfaces at the
//! front. Workloads that cancel many far-future timers (retransmission timers
//! that almost always get acked) can accumulate tombstones faster than they
//! surface, bloating the queue. When tombstones outnumber live entries the
//! queue compacts: every tombstone is dropped, the live keys keep their order.
//! [`EventQueue::stats`] exposes the occupancy and compaction counters for
//! the scale observatory.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

#[doc(hidden)]
pub use crate::frozen::TieKey;

/// A handle to a scheduled event, usable for cancellation: its slab slot
/// in the low 32 bits and the slot's generation in the high 32.
///
/// A slot moves to its next generation each time it is taken, so a handle
/// to an event that fired or was cancelled names nothing once its slot is
/// reused. Generations wrap at 2^32: a handle kept across 2^32 reuses of
/// its slot would name the slot's current event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

impl EventId {
    /// Reconstructs an id from its raw bits. An id is only meaningful to
    /// the queue that minted it; any other bits name at most an event of
    /// that queue, or nothing.
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

/// What the queue orders: the ordering key `(at, seq)` and the slab slot
/// holding the payload. 24 bytes whatever `E` is, so moving a key between
/// buckets copies one key, never a packet.
struct HeapKey {
    at: SimTime,
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
    /// Firing order: the earliest `(time, seq)` is the least. `seq` is
    /// unique, so the slot never decides.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// An empty `now` keeps room for this many keys or for as many as are
/// queued, and the spare bucket buffers for at most 64 times this many
/// beyond the keys queued; more is freed, so the room kept follows what is
/// queued now, not what each bucket once held.
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
/// pop. Keys enter a bucket in `seq` order and keep it, so `now` is in
/// firing order without a sort.
///
/// A look at the front that does not pop (`peek_time`, a refused
/// `pop_key_if`) settles `last` ahead of the caller's clock. A key scheduled
/// before `last` after that (a wall-clock driver's timer armed after its
/// peek) cannot join the radix order; it waits in `behind`, a binary heap
/// compared with `now` at the front.
struct RadixKeys {
    /// The settled minimum, in nanoseconds.
    last: u64,
    /// Keys at exactly `last`, in `seq` order.
    now: VecDeque<HeapKey>,
    /// `bits[b]`: keys after `last` whose highest bit differing from it is `b`.
    bits: [Vec<HeapKey>; 64],
    /// Bit `b` is set when `bits[b]` holds a key.
    occupied: u64,
    /// Keys before `last`.
    behind: BinaryHeap<Reverse<HeapKey>>,
    len: usize,
    /// Buffers of emptied buckets, for the next buckets that fill: a settle
    /// moves keys to lower buckets, and their room moves with them. An
    /// empty bucket owns no buffer.
    spare: Vec<Vec<HeapKey>>,
    /// The room of `spare`, in keys.
    spare_room: usize,
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
            spare: Vec::new(),
            spare_room: 0,
        }
    }

    #[inline(always)]
    fn push(&mut self, key: HeapKey) {
        let at = key.at.as_nanos();
        if at > self.last {
            self.file(bucket_of(at, self.last), key);
        } else if at == self.last {
            // The newest key has the highest `seq`: it goes last.
            self.now.push_back(key);
        } else {
            self.behind.push(Reverse(key));
        }
        self.len += 1;
    }

    /// Files `key` in bucket `b`, which takes a spare buffer if it had none.
    #[inline(always)]
    fn file(&mut self, b: usize, key: HeapKey) {
        if self.occupied & 1 << b == 0 {
            self.occupied |= 1 << b;
            if let Some(buffer) = self.spare.pop() {
                self.spare_room -= buffer.capacity();
                self.bits[b] = buffer;
            }
        }
        self.bits[b].push(key);
    }

    /// Keeps an emptied buffer for reuse if [`KEEP_KEYS`] allows.
    fn idle(&mut self, buffer: Vec<HeapKey>) {
        let room = buffer.capacity();
        if room > 0 && self.spare_room + room <= self.len + 64 * KEEP_KEYS {
            self.spare_room += room;
            self.spare.push(buffer);
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
        if self.now.capacity() > KEEP_KEYS.max(self.len) {
            self.now = VecDeque::new();
        }
        for key in drained.drain(..) {
            let at = key.at.as_nanos();
            if at == last {
                self.now.push_back(key);
            } else {
                self.file(bucket_of(at, last), key);
            }
        }
        self.idle(drained);
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
        for bucket in &mut self.bits {
            bucket.retain(|k| keep(k));
            self.len += bucket.len();
        }
        for b in 0..64 {
            if self.occupied >> b & 1 == 1 && self.bits[b].is_empty() {
                self.occupied &= !(1 << b);
                let emptied = std::mem::take(&mut self.bits[b]);
                self.idle(emptied);
            }
        }
    }

    /// Keys held, tombstones included.
    fn len(&self) -> usize {
        self.len
    }
}

/// One slab cell: a live event's payload, parked here while its key sits
/// in the queue. The payload is its own field so that filling and emptying
/// a cell moves exactly the payload, once.
struct Slot<E> {
    /// Bumped each time the slot is taken: the high half of the
    /// [`EventId`] of the event it holds.
    generation: u32,
    /// `Some` while the event is live; `None` once cancelled (its key is
    /// then a tombstone) or free.
    payload: Option<E>,
}

/// A time-ordered queue of simulation events with FIFO tie-breaking.
///
/// A radix heap orders 24-byte keys; payloads sit in a slab and move twice
/// (in at `schedule`, out at `pop`). A handle is the event's slot and the
/// slot's generation, so cancelling is a slab read and a compare: it drops
/// the payload at once and leaves a key-sized tombstone that is skipped
/// when it surfaces; when tombstones outnumber live entries the keys are
/// compacted in place.
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
    /// Events scheduled and neither fired nor cancelled.
    live: usize,
    next_seq: u64,
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
            .field("live", &self.live)
            .field("keys", &self.keys.len())
            .field("next_seq", &self.next_seq)
            .finish_non_exhaustive()
    }
}

/// The handle of the event in `slot` at `generation`.
#[inline(always)]
fn event_id(slot: u32, generation: u32) -> EventId {
    EventId(u64::from(slot) | u64::from(generation) << 32)
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
            live: 0,
            next_seq: 0,
            tombstones_peak: 0,
            compactions: 0,
        }
    }

    /// Queues the key of a new entry and returns its handle and its empty
    /// payload cell: `let (id, cell) = queue.schedule_cell(at); *cell =
    /// Some(payload);`. The caller fills the cell as its next step:
    /// everything here that can grow a vector has then already happened, so
    /// the payload is built where it will lie instead of being staged
    /// across those calls.
    #[inline(always)]
    pub(crate) fn schedule_cell(&mut self, at: SimTime) -> (EventId, &mut Option<E>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab.push(Slot {
                generation: u32::MAX,
                payload: None,
            });
            u32::try_from(self.slab.len() - 1).expect("over 2^32 queued events")
        });
        self.keys.push(HeapKey { at, seq, slot });
        self.live += 1;
        let cell = &mut self.slab[slot as usize];
        // Handles to the events the slot held before now name nothing; a
        // new slot starts at generation 0.
        cell.generation = cell.generation.wrapping_add(1);
        (event_id(slot, cell.generation), &mut cell.payload)
    }

    /// Schedules `payload` to fire at `at` and returns a cancellation handle.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        let (id, cell) = self.schedule_cell(at);
        *cell = Some(payload);
        id
    }

    /// Cancels a previously scheduled event, dropping its payload now.
    ///
    /// Returns `true` if the event had not yet fired or been cancelled.
    /// Cancelling an already-fired event is a harmless no-op returning `false`.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.cancel_if(id, |_| true)
    }

    /// [`EventQueue::cancel`] for an event that `accept` accepts: `false`,
    /// and the event stays queued, if it does not. A driver that hands out
    /// some handles and not others cancels only the kind it hands out.
    pub fn cancel_if(&mut self, id: EventId, accept: impl FnOnce(&E) -> bool) -> bool {
        let (slot, generation) = (id.0 as u32, (id.0 >> 32) as u32);
        let Some(cell) = self.slab.get_mut(slot as usize) else {
            return false;
        };
        if cell.generation != generation || !cell.payload.as_ref().is_some_and(accept) {
            return false;
        }
        cell.payload = None;
        self.live -= 1;
        let tombstones = self.tombstones();
        self.tombstones_peak = self.tombstones_peak.max(tombstones);
        if tombstones > self.live.max(COMPACT_FLOOR) {
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
    /// (leaves it queued otherwise) and returns its time, identity and slab
    /// slot. The run loops' single step — one key pop — which
    /// [`EventQueue::take_payload`] completes.
    #[inline]
    pub(crate) fn pop_key_if(
        &mut self,
        due: impl FnOnce(SimTime) -> bool,
    ) -> Option<(SimTime, EventId, u32)> {
        if !due(self.surface_live()?) {
            return None;
        }
        let HeapKey { at, slot, .. } = self.keys.pop().expect("surfaced key exists");
        self.live -= 1;
        let id = event_id(slot, self.slab[slot as usize].generation);
        Some((at, id, slot))
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
        let (at, _, slot) = self.pop_key_if(|_| true)?;
        Some((at, self.take_payload(slot)))
    }

    /// The time of the earliest pending event, without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.surface_live()
    }

    /// Number of events scheduled and not yet fired or cancelled.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no live events remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Cancelled entries whose keys are still queued.
    #[must_use]
    pub fn tombstones(&self) -> usize {
        self.keys.len() - self.live
    }

    /// Occupancy and maintenance counters.
    #[must_use]
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            live: self.live,
            tombstones: self.tombstones(),
            tombstones_peak: self.tombstones_peak,
            compactions: self.compactions,
        }
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
    fn a_stale_handle_cancels_nothing_once_its_slot_is_reused() {
        let mut q = EventQueue::new();
        let fired = q.schedule(SimTime::from_millis(1), "fired");
        assert_eq!(q.pop().unwrap().1, "fired");
        assert!(!q.cancel(fired), "cancelling a fired event is a no-op");
        let next = q.schedule(SimTime::from_millis(2), "next");
        assert_eq!(fired.as_raw() as u32, next.as_raw() as u32, "one slot");
        assert!(!q.cancel(fired));
        assert_eq!(q.pop(), Some((SimTime::from_millis(2), "next")));
    }

    /// A key is what every settle moves, a few times per event: the
    /// time, the FIFO sequence number and the slab slot, nothing else.
    #[test]
    fn a_key_is_24_bytes() {
        assert_eq!(std::mem::size_of::<HeapKey>(), 24);
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

    /// Every slot is free or referenced by exactly one queued key.
    fn assert_slab_consistent<E>(q: &EventQueue<E>) {
        let k = &q.keys;
        let filed: usize = k.bits.iter().map(Vec::len).sum();
        assert_eq!(k.len(), k.now.len() + k.behind.len() + filed);
        for (b, bucket) in k.bits.iter().enumerate() {
            assert_eq!(k.occupied >> b & 1 == 1, !bucket.is_empty(), "bucket {b}");
        }
        assert!(k.bits.iter().all(|b| !b.is_empty() || b.capacity() == 0));
        assert_eq!(
            k.spare_room,
            k.spare.iter().map(Vec::capacity).sum::<usize>()
        );
        assert_eq!(q.free.len() + k.len(), q.slab.len());
        let filled = q.slab.iter().filter(|s| s.payload.is_some()).count();
        assert_eq!(filled, q.live);
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
        seq: u64,
        id: EventId,
        payload: u32,
        live: bool,
    }

    impl Model {
        fn insert(&mut self, at: SimTime, id: EventId, payload: u32) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.entries.push(ModelEntry {
                at,
                seq,
                id,
                payload,
                live: true,
            });
            self.entries.sort_by_key(|e| (e.at, e.seq));
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
            let found = self.entries.iter_mut().find(|e| e.live && e.id == id);
            let Some(entry) = found else {
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
                (0u8..25, 0u32..36, any::<u64>(), 0usize..4096),
                0..1200,
            ),
        ) {
            let mut q: EventQueue<u32> = EventQueue::new();
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
                // Behind the clock: a wall-clock driver's timer armed after
                // its peek settled the front.
                let behind = SimTime::from_nanos(clock.saturating_sub(span.max(1)));
                let at = if matches!(op, 19..=21 | 24) { behind } else { ahead };
                payload += 1;
                let popped = match op {
                    0..=7 | 19..=21 => {
                        let id = q.schedule(at, payload);
                        model.insert(at, id, payload);
                        handles.push(id);
                        None
                    }
                    // A recent handle: live, fired or already cancelled.
                    8..=13 if !handles.is_empty() => {
                        let id = handles[handles.len() - 1 - pick % handles.len().min(96)];
                        prop_assert_eq!(q.cancel(id), model.cancel(id));
                        None
                    }
                    14..=15 => {
                        let want = model.pop_if(|_| true).map(|e| (e.at, e.payload));
                        prop_assert_eq!(q.pop(), want);
                        want.map(|(at, _)| at)
                    }
                    16 => {
                        // A bound short of the front settles it unpopped.
                        let want = model.pop_if(|t| t <= at).map(|e| (e.at, e.id, e.payload));
                        let got = q
                            .pop_key_if(|t| t <= at)
                            .map(|(at, id, slot)| (at, id, q.take_payload(slot)));
                        let at = want.as_ref().map(|w| w.0);
                        prop_assert_eq!(got, want);
                        at
                    }
                    17 => {
                        prop_assert_eq!(q.peek_time(), model.peek().map(|e| e.at));
                        None
                    }
                    // A delivery, built in its cell.
                    22..=24 => {
                        let (id, cell) = q.schedule_cell(at);
                        *cell = Some(payload);
                        model.insert(at, id, payload);
                        handles.push(id);
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
                .map(|e| (e.at, e.payload))
                .collect();
            prop_assert_eq!(std::iter::from_fn(|| q.pop()).collect::<Vec<_>>(), rest);
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
            let filed = k
                .bits
                .iter()
                .chain(&k.spare)
                .map(Vec::capacity)
                .sum::<usize>();
            k.now.capacity() + k.behind.capacity() + filed
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
}
