//! The discrete-event scheduler: typed events, recycled arenas, and
//! shard-aware deterministic ordering.
//!
//! The engine is generic over the *world* type `W`: every layer of the stack
//! (host OS, NIC hardware, GM/MX drivers, file system, socket layer) stores
//! its state inside one world struct composed by the top-level crate. Events
//! are values of the world's associated [`SimEvent`] type — a concrete enum
//! in the composed world, so the steady-state path never boxes — held in a
//! recycled slab arena and ordered by the key `(time, origin, origin_seq)`:
//!
//! * `time` — the virtual instant the event fires at;
//! * `origin` — the *stream* that scheduled it: the node whose event was
//!   executing at schedule time, or the control stream (harness/test code
//!   running between events);
//! * `origin_seq` — a per-origin monotone counter.
//!
//! The per-origin key is what makes sharded execution bit-identical to the
//! sequential order: a node's schedules are totally ordered by its own
//! counter, every event is executed by exactly one shard (the one owning its
//! target node), and cross-shard messages carry their key with them, so the
//! destination heap merges to the same total order no matter how many
//! threads the cluster is split across. Two events are never keyed equally:
//! same-origin events differ in `origin_seq`, different origins differ in
//! `origin`.
//!
//! Sharding itself is cooperative: a scheduler configured as shard `i` of
//! `k` keeps only events targeting nodes it owns (`node % k == i`). Foreign
//! targets either go to the outbox (routed mode — the parallel engine and
//! the sharded harness exchange them into the owning shard's ingress
//! mailbox) or are dropped (mirror mode — identical setup code runs on
//! every shard, so each shard already scheduled its own copy). A solo
//! scheduler (`k == 1`) owns everything and none of this machinery is
//! exercised. See [`crate::engine`] for the conservative-lookahead epoch
//! loop that steps shards on real threads.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

// ---------------------------------------------------------------- events

/// A schedulable event for world `W`.
///
/// Composed worlds implement this with a concrete enum (one variant per
/// event family) so the steady-state path allocates nothing per event; the
/// `from_call` escape hatch wraps an arbitrary boxed closure for cold paths
/// and generic layer-crate test worlds (see [`BoxEvent`]).
pub trait SimEvent<W>: Sized + Send + 'static {
    /// Wrap a boxed closure as an event (the cold/cheap path).
    fn from_call(f: Box<dyn FnOnce(&mut W) + Send>) -> Self;
    /// Execute the event against the world.
    fn run(self, w: &mut W);
}

/// The trivial event type: a boxed closure. Layer crates' generic test
/// worlds use this; the composed cluster world uses a typed enum instead so
/// its hot path never boxes.
pub struct BoxEvent<W>(Box<dyn FnOnce(&mut W) + Send>);

impl<W: 'static> SimEvent<W> for BoxEvent<W> {
    fn from_call(f: Box<dyn FnOnce(&mut W) + Send>) -> Self {
        BoxEvent(f)
    }
    fn run(self, w: &mut W) {
        (self.0)(w)
    }
}

/// A world that embeds a [`Scheduler`] for itself.
///
/// Layer crates bound their generic functions by capability traits whose
/// root is `SimWorld`; the concrete world type is composed once, at the top
/// of the dependency graph.
pub trait SimWorld: Sized + 'static {
    /// The event representation. Composed worlds use a typed enum;
    /// [`BoxEvent`] is the one-line default for generic test worlds.
    type Ev: SimEvent<Self>;
    fn sched(&self) -> &Scheduler<Self>;
    fn sched_mut(&mut self) -> &mut Scheduler<Self>;
}

// ------------------------------------------------------------ event arena

/// Recycled slab of pending events. Heap entries hold a slot index into
/// this arena, so the binary heap stores only `Copy` keys; slots are
/// returned to the free list as events execute, and in steady state neither
/// the slab nor the free list grows.
struct EventArena<E> {
    slots: Vec<Option<E>>,
    free: Vec<u32>,
    uses: u64,
    grows: u64,
}

impl<E> EventArena<E> {
    fn new() -> Self {
        EventArena {
            slots: Vec::new(),
            free: Vec::new(),
            uses: 0,
            grows: 0,
        }
    }

    fn alloc(&mut self, ev: E) -> u32 {
        self.uses += 1;
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = Some(ev);
            slot
        } else {
            self.grows += 1;
            self.slots.push(Some(ev));
            (self.slots.len() - 1) as u32
        }
    }

    fn take(&mut self, slot: u32) -> E {
        let ev = self.slots[slot as usize]
            .take()
            .expect("arena slot double-take");
        self.free.push(slot);
        ev
    }
}

// ------------------------------------------------------------- heap entry

/// Origin id of the control stream: harness/test/setup code running
/// *between* events (as opposed to a node's own event cascade).
pub const CONTROL_ORIGIN: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Entry {
    at: SimTime,
    origin: u32,
    seq: u64,
    node: u32,
    slot: u32,
}

impl Entry {
    #[inline]
    fn key(&self) -> (SimTime, u32, u64) {
        (self.at, self.origin, self.seq)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    // BinaryHeap is a max-heap; invert so the earliest key pops first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

// -------------------------------------------------------- errors / stats

/// A typed engine invariant violation. Promoted from the old
/// `debug_assert!` so release-mode shard bugs fail loudly (surfaced through
/// [`EngineStats::errors`] and [`Scheduler::engine_error`]) instead of
/// silently reordering events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// An event popped with a timestamp before the clock — the heap order
    /// was violated (memory corruption or a scheduler bug).
    TimeRegression { at: SimTime, now: SimTime },
    /// A cross-shard message arrived timestamped before the destination
    /// shard's clock — the epoch lookahead was larger than some link's
    /// actual latency, so conservative parallel execution is unsound for
    /// this topology.
    CausalityViolation {
        at: SimTime,
        now: SimTime,
        node: u32,
    },
}

crate::counters! {
    /// Per-shard engine counters (the `engine` block of the composed
    /// world's stats tree); a sharded aggregate is the plain merge of the
    /// shards' blocks — the heaps partition even `pending`.
    pub struct EngineStats {
        /// Events executed by this shard.
        pub executed: u64,
        /// Events currently pending in this shard's heap.
        pub pending: u64,
        /// Epochs this shard has stepped through under the parallel engine.
        pub epochs: u64 = HighWater,
        /// Cross-shard messages injected into this shard's ingress mailbox.
        pub mailbox_injected: u64,
        /// Largest single mailbox exchange observed (depth high-water mark).
        pub mailbox_high_water: u64 = HighWater,
        /// Events placed in the arena (allocation-free when `arena_grows`
        /// stays flat while this climbs).
        pub arena_uses: u64,
        /// Arena slab expansions — flat in steady state.
        pub arena_grows: u64,
        /// Events dropped in mirror mode (foreign targets scheduled by
        /// mirrored setup code; each shard keeps only its own).
        pub mirror_dropped: u64,
        /// Engine invariant violations recorded (see [`EngineError`]).
        pub errors: u64,
    }
}

// ------------------------------------------------------------- shard mode

/// How a sharded scheduler treats events targeting nodes it does not own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardPhase {
    /// Identical code runs on every shard (mirrored setup): each shard
    /// keeps its own targets and silently drops foreign ones, because the
    /// owning shard scheduled its own copy.
    Mirror,
    /// Code runs on exactly one shard (event execution, or a routed
    /// control op): foreign targets go to the outbox for delivery into the
    /// owning shard's mailbox.
    Routed,
}

/// A cross-shard event in flight: the full ordering key travels with the
/// payload so the destination heap merges deterministically.
pub struct OutMsg<E> {
    pub at: SimTime,
    pub origin: u32,
    pub seq: u64,
    pub node: u32,
    pub ev: E,
}

// -------------------------------------------------------------- scheduler

/// Priority queue of pending events plus the virtual clock, owning one
/// shard's slice of the cluster (everything, when unsharded).
pub struct Scheduler<W: SimWorld> {
    now: SimTime,
    executed: u64,
    heap: BinaryHeap<Entry>,
    arena: EventArena<W::Ev>,
    /// Per-node origin counters (grown on demand) + the control stream's.
    origin_seq: Vec<u64>,
    control_seq: u64,
    /// The stream currently scheduling: the executing event's target node,
    /// or [`CONTROL_ORIGIN`] between events.
    cur_origin: u32,
    shard_id: u32,
    shard_count: u32,
    phase: ShardPhase,
    outbox: Vec<OutMsg<W::Ev>>,
    error: Option<EngineError>,
    stats: EngineStats,
}

impl<W: SimWorld> Default for Scheduler<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W: SimWorld> Scheduler<W> {
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            executed: 0,
            heap: BinaryHeap::with_capacity(1024),
            arena: EventArena::new(),
            origin_seq: Vec::new(),
            control_seq: 0,
            cur_origin: CONTROL_ORIGIN,
            shard_id: 0,
            shard_count: 1,
            phase: ShardPhase::Routed,
            outbox: Vec::new(),
            error: None,
            stats: EngineStats::default(),
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far (a cheap determinism fingerprint).
    #[inline]
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Timestamp of the next pending event, if any.
    #[inline]
    pub fn next_at(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// First engine invariant violation recorded, if any.
    #[inline]
    pub fn engine_error(&self) -> Option<EngineError> {
        self.error
    }

    /// This shard's engine counters.
    pub fn engine_stats(&self) -> EngineStats {
        EngineStats {
            pending: self.heap.len() as u64,
            executed: self.executed,
            arena_uses: self.arena.uses,
            arena_grows: self.arena.grows,
            ..self.stats
        }
    }

    // ------------------------------------------------------------ sharding

    /// Configure this scheduler as shard `id` of `count` (node `n` is owned
    /// iff `n % count == id`). A fresh scheduler is shard 0 of 1: it owns
    /// every node and behaves exactly like the classic sequential engine.
    pub fn configure_shard(&mut self, id: u32, count: u32) {
        assert!(count >= 1 && id < count, "shard {id} of {count}");
        self.shard_id = id;
        self.shard_count = count;
    }

    /// Switch between mirrored-setup and routed handling of foreign
    /// targets. Irrelevant for a solo scheduler.
    pub fn set_phase(&mut self, phase: ShardPhase) {
        self.phase = phase;
    }

    #[inline]
    pub fn shard_id(&self) -> u32 {
        self.shard_id
    }

    #[inline]
    pub fn shard_count(&self) -> u32 {
        self.shard_count
    }

    #[inline]
    fn owns(&self, node: u32) -> bool {
        self.shard_count == 1 || node % self.shard_count == self.shard_id
    }

    /// Move accumulated cross-shard messages into `sink` (recycling the
    /// internal buffer).
    pub fn drain_outbox(&mut self, sink: &mut Vec<OutMsg<W::Ev>>) {
        sink.append(&mut self.outbox);
    }

    /// Inject one batch of cross-shard messages (the ingress mailbox
    /// exchange). Messages carry their ordering key; a timestamp behind
    /// this shard's clock is a conservative-lookahead violation and is
    /// recorded as a typed [`EngineError`] (the event still runs, clamped,
    /// so the simulation terminates — but the run is flagged unsound).
    pub fn inject(&mut self, batch: &mut Vec<OutMsg<W::Ev>>) {
        let depth = batch.len() as u64;
        self.stats.mailbox_injected += depth;
        self.stats.mailbox_high_water = self.stats.mailbox_high_water.max(depth);
        for msg in batch.drain(..) {
            debug_assert!(self.owns(msg.node), "mailbox message for a foreign node");
            let mut at = msg.at;
            if at < self.now {
                self.record_error(EngineError::CausalityViolation {
                    at,
                    now: self.now,
                    node: msg.node,
                });
                at = self.now;
            }
            let slot = self.arena.alloc(msg.ev);
            self.heap.push(Entry {
                at,
                origin: msg.origin,
                seq: msg.seq,
                node: msg.node,
                slot,
            });
        }
    }

    /// Advance the clock to `t` (never backwards). The sharded harness
    /// aligns all shards to the global maximum at quiescence points so
    /// control ops run at the same virtual instant they would have in a
    /// sequential run.
    pub fn align_now(&mut self, t: SimTime) {
        if t > self.now {
            debug_assert!(
                self.next_at().is_none_or(|n| n >= t),
                "aligning past a pending event"
            );
            self.now = self.now.max(t);
        }
    }

    /// The control stream's sequence counter. The sharded harness threads
    /// one global counter through every shard's control ops so the
    /// cross-shard tie-break order matches the sequential run exactly.
    #[inline]
    pub fn control_seq(&self) -> u64 {
        self.control_seq
    }

    pub fn set_control_seq(&mut self, seq: u64) {
        self.control_seq = seq;
    }

    fn record_error(&mut self, e: EngineError) {
        self.stats.errors += 1;
        if self.error.is_none() {
            self.error = Some(e);
        }
        debug_assert!(false, "engine invariant violated: {e:?}");
    }

    // ---------------------------------------------------------- scheduling

    /// Schedule `ev` at absolute time `t`, targeting `node`. Times in the
    /// past are clamped to "now": the event still runs, after
    /// already-queued events for `now`.
    pub(crate) fn schedule(&mut self, node: u32, t: SimTime, ev: W::Ev) {
        let at = t.max(self.now);
        let origin = self.cur_origin;
        let seq = if origin == CONTROL_ORIGIN {
            let s = self.control_seq;
            self.control_seq += 1;
            s
        } else {
            let idx = origin as usize;
            if idx >= self.origin_seq.len() {
                self.origin_seq.resize(idx + 1, 0);
            }
            let s = self.origin_seq[idx];
            self.origin_seq[idx] += 1;
            s
        };
        if self.owns(node) {
            let slot = self.arena.alloc(ev);
            self.heap.push(Entry {
                at,
                origin,
                seq,
                node,
                slot,
            });
        } else {
            match self.phase {
                ShardPhase::Mirror => self.stats.mirror_dropped += 1,
                ShardPhase::Routed => self.outbox.push(OutMsg {
                    at,
                    origin,
                    seq,
                    node,
                    ev,
                }),
            }
        }
    }

    /// Pop the next event, advancing the clock and switching the origin
    /// stream to the event's target node for the duration of its
    /// execution (callers pair this with [`Scheduler::end_event`]).
    pub(crate) fn pop_next(&mut self) -> Option<W::Ev> {
        let entry = self.heap.pop()?;
        if entry.at < self.now {
            self.record_error(EngineError::TimeRegression {
                at: entry.at,
                now: self.now,
            });
        } else {
            self.now = entry.at;
        }
        self.executed += 1;
        self.cur_origin = entry.node;
        Some(self.arena.take(entry.slot))
    }

    /// Return the origin stream to control (the executing event is done).
    #[inline]
    pub(crate) fn end_event(&mut self) {
        self.cur_origin = CONTROL_ORIGIN;
    }

    pub(crate) fn note_epoch(&mut self) {
        self.stats.epochs += 1;
    }
}

// --------------------------------------------------------- free functions

/// Current virtual time of a world.
#[inline]
pub fn now<W: SimWorld>(w: &W) -> SimTime {
    w.sched().now()
}

/// Schedule the typed event `ev` at absolute time `t`, targeting `node`
/// (the node whose state the event mutates — the shard owning that node
/// executes it).
#[inline]
pub fn emit_at<W: SimWorld>(w: &mut W, node: u32, t: SimTime, ev: W::Ev) {
    w.sched_mut().schedule(node, t, ev);
}

/// Schedule the typed event `ev` after a delay of `d`, targeting `node`.
#[inline]
pub fn emit_after<W: SimWorld>(w: &mut W, node: u32, d: SimTime, ev: W::Ev) {
    let t = w.sched().now() + d;
    w.sched_mut().schedule(node, t, ev);
}

/// Schedule the closure `f` at absolute time `t`, targeting `node`. This is
/// the boxed cold path — steady-state events should be typed enum variants
/// via [`emit_at`] instead.
#[inline]
pub fn call_at<W: SimWorld>(
    w: &mut W,
    node: u32,
    t: SimTime,
    f: impl FnOnce(&mut W) + Send + 'static,
) {
    let ev = W::Ev::from_call(Box::new(f));
    w.sched_mut().schedule(node, t, ev);
}

/// Schedule the closure `f` after a delay of `d`, targeting `node`.
#[inline]
pub fn call_after<W: SimWorld>(
    w: &mut W,
    node: u32,
    d: SimTime,
    f: impl FnOnce(&mut W) + Send + 'static,
) {
    let t = w.sched().now() + d;
    call_at(w, node, t, f);
}

/// Schedule `f` to run at the current instant (after events already queued
/// for this instant), targeting `node`.
#[inline]
pub fn call_now<W: SimWorld>(w: &mut W, node: u32, f: impl FnOnce(&mut W) + Send + 'static) {
    let t = w.sched().now();
    call_at(w, node, t, f);
}

/// Execute the next pending event. Returns `false` when the queue is empty.
pub fn step<W: SimWorld>(w: &mut W) -> bool {
    // Pop first so the event gets exclusive access to the world.
    let Some(ev) = w.sched_mut().pop_next() else {
        return false;
    };
    ev.run(w);
    w.sched_mut().end_event();
    true
}

/// Outcome of a bounded run; see [`run_until`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The predicate became true.
    Satisfied,
    /// The event queue drained without the predicate becoming true.
    Quiescent,
    /// The event budget was exhausted (likely a livelocked model).
    BudgetExhausted,
}

/// Default event budget for [`run_until`] — far above anything a benchmark
/// sweep needs, but finite so that a buggy model fails loudly instead of
/// spinning forever.
pub const DEFAULT_EVENT_BUDGET: u64 = 200_000_000;

/// Run until `pred` holds (checked before each event), the queue drains, or
/// `budget` events have executed.
pub fn run_until_budgeted<W: SimWorld>(
    w: &mut W,
    budget: u64,
    mut pred: impl FnMut(&W) -> bool,
) -> RunOutcome {
    for _ in 0..budget {
        if pred(w) {
            return RunOutcome::Satisfied;
        }
        if !step(w) {
            return RunOutcome::Quiescent;
        }
    }
    if pred(w) {
        RunOutcome::Satisfied
    } else {
        RunOutcome::BudgetExhausted
    }
}

/// [`run_until_budgeted`] with the default budget.
#[inline]
pub fn run_until<W: SimWorld>(w: &mut W, pred: impl FnMut(&W) -> bool) -> RunOutcome {
    run_until_budgeted(w, DEFAULT_EVENT_BUDGET, pred)
}

/// Drain the event queue completely; returns the number of events executed.
pub fn run_to_quiescence<W: SimWorld>(w: &mut W) -> u64 {
    let before = w.sched().executed();
    while step(w) {}
    w.sched().executed() - before
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TestWorld {
        sched: Scheduler<TestWorld>,
        log: Vec<u32>,
    }

    impl SimWorld for TestWorld {
        type Ev = BoxEvent<Self>;
        fn sched(&self) -> &Scheduler<Self> {
            &self.sched
        }
        fn sched_mut(&mut self) -> &mut Scheduler<Self> {
            &mut self.sched
        }
    }

    fn world() -> TestWorld {
        TestWorld {
            sched: Scheduler::new(),
            log: Vec::new(),
        }
    }

    #[test]
    fn events_run_in_time_order() {
        let mut w = world();
        call_at(&mut w, 0, SimTime::from_micros(3), |w: &mut TestWorld| {
            w.log.push(3)
        });
        call_at(&mut w, 0, SimTime::from_micros(1), |w: &mut TestWorld| {
            w.log.push(1)
        });
        call_at(&mut w, 0, SimTime::from_micros(2), |w: &mut TestWorld| {
            w.log.push(2)
        });
        run_to_quiescence(&mut w);
        assert_eq!(w.log, vec![1, 2, 3]);
        assert_eq!(now(&w), SimTime::from_micros(3));
    }

    #[test]
    fn same_time_events_run_in_scheduling_order() {
        let mut w = world();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            call_at(&mut w, 0, t, move |w: &mut TestWorld| w.log.push(i));
        }
        run_to_quiescence(&mut w);
        assert_eq!(w.log, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn same_time_streams_order_by_origin() {
        // Two nodes schedule follow-ups for the same instant; the key
        // orders node streams before the control stream and lower node ids
        // first — deterministically, independent of scheduling order.
        let mut w = world();
        let t = SimTime::from_micros(1);
        for node in [2u32, 1] {
            call_at(&mut w, node, t, move |w: &mut TestWorld| {
                let t2 = SimTime::from_micros(2);
                call_at(w, node, t2, move |w: &mut TestWorld| w.log.push(node));
            });
        }
        // A control-stream event for the same later instant, scheduled
        // *first*, still runs after both node streams.
        call_at(&mut w, 1, SimTime::from_micros(2), |w: &mut TestWorld| {
            w.log.push(99)
        });
        run_to_quiescence(&mut w);
        assert_eq!(w.log, vec![1, 2, 99]);
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut w = world();
        call_at(&mut w, 0, SimTime::from_micros(10), |w: &mut TestWorld| {
            // Scheduling in the past must not rewind the clock.
            call_at(w, 0, SimTime::from_micros(1), |w: &mut TestWorld| {
                w.log.push(2);
            });
            w.log.push(1);
        });
        run_to_quiescence(&mut w);
        assert_eq!(w.log, vec![1, 2]);
        assert_eq!(now(&w), SimTime::from_micros(10));
    }

    #[test]
    fn events_can_cascade() {
        let mut w = world();
        call_after(&mut w, 0, SimTime::from_micros(1), |w: &mut TestWorld| {
            w.log.push(1);
            call_after(w, 0, SimTime::from_micros(1), |w: &mut TestWorld| {
                w.log.push(2);
                call_after(w, 0, SimTime::from_micros(1), |w: &mut TestWorld| {
                    w.log.push(3)
                });
            });
        });
        run_to_quiescence(&mut w);
        assert_eq!(w.log, vec![1, 2, 3]);
        assert_eq!(now(&w), SimTime::from_micros(3));
    }

    #[test]
    fn run_until_stops_at_predicate() {
        let mut w = world();
        for i in 0..10 {
            call_at(
                &mut w,
                0,
                SimTime::from_micros(i),
                move |w: &mut TestWorld| w.log.push(i as u32),
            );
        }
        let outcome = run_until(&mut w, |w| w.log.len() == 5);
        assert_eq!(outcome, RunOutcome::Satisfied);
        assert_eq!(w.log.len(), 5);
        assert_eq!(w.sched.pending(), 5);
    }

    #[test]
    fn run_until_reports_quiescence() {
        let mut w = world();
        call_after(&mut w, 0, SimTime::from_micros(1), |w: &mut TestWorld| {
            w.log.push(1)
        });
        let outcome = run_until(&mut w, |_| false);
        assert_eq!(outcome, RunOutcome::Quiescent);
    }

    #[test]
    fn run_until_respects_budget() {
        let mut w = world();
        // A self-perpetuating event stream.
        fn tick(w: &mut TestWorld) {
            w.log.push(0);
            call_after(w, 0, SimTime::from_nanos(1), tick);
        }
        call_now(&mut w, 0, tick);
        let outcome = run_until_budgeted(&mut w, 1000, |_| false);
        assert_eq!(outcome, RunOutcome::BudgetExhausted);
        assert_eq!(w.log.len(), 1000);
    }

    #[test]
    fn executed_counts_events() {
        let mut w = world();
        for i in 0..7 {
            call_at(&mut w, 0, SimTime::from_micros(i), |w: &mut TestWorld| {
                w.log.push(0)
            });
        }
        run_to_quiescence(&mut w);
        assert_eq!(w.sched.executed(), 7);
    }

    #[test]
    fn arena_recycles_slots_in_steady_state() {
        let mut w = world();
        // Warm: one batch fills the arena to its high-water mark.
        for _ in 0..100 {
            call_after(&mut w, 0, SimTime::from_nanos(1), |w: &mut TestWorld| {
                w.log.push(0)
            });
        }
        run_to_quiescence(&mut w);
        let warm = w.sched.engine_stats();
        for _ in 0..100 {
            call_after(&mut w, 0, SimTime::from_nanos(1), |w: &mut TestWorld| {
                w.log.push(0)
            });
        }
        run_to_quiescence(&mut w);
        let steady = w.sched.engine_stats();
        assert_eq!(steady.arena_grows, warm.arena_grows, "arena stays flat");
        assert!(steady.arena_uses >= warm.arena_uses + 100);
    }

    #[test]
    fn mirror_phase_drops_foreign_targets() {
        let mut w = world();
        w.sched.configure_shard(0, 2);
        w.sched.set_phase(ShardPhase::Mirror);
        call_now(&mut w, 0, |w: &mut TestWorld| w.log.push(0)); // owned
        call_now(&mut w, 1, |w: &mut TestWorld| w.log.push(1)); // foreign
        run_to_quiescence(&mut w);
        assert_eq!(w.log, vec![0]);
        assert_eq!(w.sched.engine_stats().mirror_dropped, 1);
    }

    #[test]
    fn routed_phase_exports_foreign_targets_with_keys() {
        let mut a = world();
        let mut b = world();
        a.sched.configure_shard(0, 2);
        b.sched.configure_shard(1, 2);
        call_at(&mut a, 1, SimTime::from_micros(2), |w: &mut TestWorld| {
            w.log.push(7)
        });
        assert_eq!(a.sched.pending(), 0);
        let mut mail = Vec::new();
        a.sched.drain_outbox(&mut mail);
        assert_eq!(mail.len(), 1);
        b.sched.inject(&mut mail);
        run_to_quiescence(&mut b);
        assert_eq!(b.log, vec![7]);
        assert_eq!(b.sched.engine_stats().mailbox_injected, 1);
    }

    #[test]
    fn causality_violation_is_a_typed_error() {
        let mut a = world();
        let mut b = world();
        a.sched.configure_shard(0, 2);
        b.sched.configure_shard(1, 2);
        // b's clock is already past the message timestamp.
        call_at(&mut b, 1, SimTime::from_micros(10), |w: &mut TestWorld| {
            w.log.push(1)
        });
        run_to_quiescence(&mut b);
        call_at(&mut a, 1, SimTime::from_micros(2), |w: &mut TestWorld| {
            w.log.push(2)
        });
        let mut mail = Vec::new();
        a.sched.drain_outbox(&mut mail);
        // The inject still delivers (clamped) but records the violation.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.sched.inject(&mut mail);
        }));
        if cfg!(debug_assertions) {
            assert!(panicked.is_err(), "debug builds assert immediately");
        } else {
            assert!(panicked.is_ok());
        }
        assert!(matches!(
            b.sched.engine_error(),
            Some(EngineError::CausalityViolation { .. })
        ));
        assert_eq!(b.sched.engine_stats().errors, 1);
    }
}
