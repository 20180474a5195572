//! # knet-simcore — deterministic discrete-event engine
//!
//! The foundation of the `knet` cluster model: a nanosecond-resolution virtual
//! clock, a shard-aware event scheduler generic over the composed *world*
//! type, a conservative-lookahead parallel epoch engine, timed
//! serially-reusable resources (links, DMA engines, CPUs), and small
//! statistics helpers shared by the benchmark harness.
//!
//! Design notes:
//!
//! * **Generic world.** `Scheduler<W>` stores typed events (`W::Ev`, a
//!   concrete enum in the composed world — zero allocations per event in
//!   steady state; [`BoxEvent`] is the boxed fallback for generic layer
//!   test worlds). Layer crates (`knet-simos`, `knet-simnic`, `knet-gm`, …)
//!   write their logic as functions generic over capability traits rooted
//!   at [`SimWorld`]; the top-level crate composes one concrete world and
//!   implements every trait. No layer ever depends on its users.
//! * **Determinism.** Events are ordered by `(time, origin, origin_seq)` —
//!   each scheduling *stream* (a node's event cascade, or the control code
//!   between events) carries its own monotone counter. The order is total,
//!   reproducible, and — because every event is executed by exactly one
//!   shard and cross-shard messages carry their keys — identical whether
//!   the cluster runs on one thread or many ([`engine`]). Tests rely on
//!   this.
//! * **Typed engine errors.** Invariant violations (clock regression,
//!   lookahead/causality breaches) are recorded as [`EngineError`] values
//!   surfaced through engine stats, so release-mode shard bugs fail loudly
//!   instead of silently reordering.
//! * **No wall-clock anywhere.** All figures produced by the benchmark
//!   harness are virtual-time measurements of the modeled 2005 hardware, not
//!   host-machine timings.

pub mod engine;
pub mod ids;
pub mod lru;
pub mod resource;
pub mod rng;
pub mod sched;
pub mod stats;
pub mod time;

pub use engine::{run_shards_to_quiescence, EpochReport};
pub use ids::{IdHashMap, IdHasher, Slab};
pub use lru::LruSlab;
pub use resource::{Busy, LaneBank};
pub use rng::SplitMix64;
pub use sched::{
    call_after, call_at, call_now, emit_after, emit_at, now, run_to_quiescence, run_until,
    run_until_budgeted, step, BoxEvent, EngineError, EngineStats, OutMsg, RunOutcome, Scheduler,
    ShardPhase, SimEvent, SimWorld, CONTROL_ORIGIN, DEFAULT_EVENT_BUDGET,
};
pub use stats::{pow2_sizes, Counters, Merge, Series, SeriesPoint, Summary};
pub use time::{Bandwidth, SimTime};
