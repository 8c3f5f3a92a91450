//! # cogra-engine
//!
//! The engine substrate shared by the COGRA executor (`cogra-core`) and
//! the baseline engines (`cogra-baselines`):
//!
//! * [`agg`] — the Table 8 recurrences for
//!   COUNT(*)/COUNT(E)/MIN/MAX/SUM/AVG, once, as kernels on rows of
//!   words: in a per-window [`CellTable`] (the COGRA aggregators) and in
//!   owned [`Cell`]s (the baselines, and results crossing partitions);
//! * [`capabilities`] — Table 9, the expressive power of each approach:
//!   the [`Capabilities`] rows the window algorithms state
//!   ([`WindowAlgo::TABLE9`]) and [`Router::admit`] enforces;
//! * [`engine`] — the [`TrendEngine`] trait every aggregation engine
//!   implements, with push-based ([`TrendEngine::drain_into`]) and
//!   collecting ([`TrendEngine::drain`]) result emission;
//! * [`intern`] — the [`KeyInterner`] mapping resident partition keys to
//!   dense, reusable [`PartitionId`]s with an allocation-free hash-once
//!   probe, and the [`RunStats`] hot-path counters;
//! * [`output`] — [`WindowResult`], the unit of engine output;
//! * [`router`] — the generic partition/window [`Router`] turning any
//!   per-window algorithm into a full engine (§7 of the paper), with
//!   interned keys, dense partition storage and ring-buffer window
//!   stores on the per-event path, and state only for the partitions
//!   that still hold a window;
//! * [`runtime`] — precomputed per-disjunct routing tables and the
//!   [`runtime::EngineConfig`] knobs.
//!
//! Splitting this substrate out of `cogra-core` lets `cogra-core` host
//! the [`Session`]/`EngineKind` roster over *all* engines (it depends on
//! `cogra-baselines`, which depends only on this crate) without a
//! dependency cycle.
//!
//! [`Session`]: https://docs.rs/cogra-core

#![warn(missing_docs)]

pub mod agg;
pub mod capabilities;
pub mod engine;
pub mod intern;
pub mod output;
pub mod router;
pub mod runtime;

pub use agg::{AggLayout, AggValue, Cell, CellTable, Feed, Output, SlotFunc};
pub use capabilities::{Capabilities, Unsupported};
pub use engine::{run_to_completion, TrendEngine};
pub use intern::{KeyInterner, KeyOverflow, PartitionId, RunStats};
pub use output::{GroupKey, WindowResult};
pub use router::{entry_group_hash, EventBinds, Frame, Router, RouterState, WindowAlgo};
pub use runtime::{DisjunctRuntime, EngineConfig, QueryRuntime};
