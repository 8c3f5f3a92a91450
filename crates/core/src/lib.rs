//! # cogra-core
//!
//! The COGRA runtime executor (§3–§8 of the paper): coarse-grained online
//! event trend aggregation, plus the unified [`Session`] facade over every
//! engine in the workspace. There is one execution path: a session's
//! engines live in the shards of the one pool it builds, driven inline at
//! one worker and on worker threads at `n`.
//!
//! * [`type_grained`] — Algorithm 1 (ANY, no adjacent predicates): one
//!   aggregate per event type, O(n·l) time, Θ(l) space — one flat table
//!   of Θ(l) rows per window;
//! * [`mixed_grained`] — Algorithm 2 (ANY with adjacent predicates):
//!   aggregates per type for `Tt`, per stored event for `Te`;
//! * [`pattern_grained`] — Algorithm 3 (NEXT/CONT): only the last matched
//!   event and the final aggregate, O(n) time, O(1) space;
//! * [`cogra`] — [`CograWindow`], the per-disjunct dispatch inside one
//!   window; [`CograEngine`] is the shared router (partitioning §7,
//!   sliding windows, result finalization) over it, like every baseline;
//! * [`parallel`] — per-partition execution (§8): the session's pool,
//!   whose shards host every engine (one inline shard, or worker threads
//!   behind bounded channels and watermark broadcasts);
//! * [`session`] — the [`Session`] pipeline in front of that pool: typed
//!   [`EngineKind`] roster over COGRA and all baselines, builder-style
//!   configuration (slack, workers, multi-query), checkpoint/restore,
//!   push-based [`ResultSink`] emission;
//! * [`Metrics`] — the session's counters in one struct with one encoder
//!   (the server's `STATS` line).
//!
//! The engine substrate ([`agg`], [`engine`], [`output`], [`router`],
//! [`runtime`]) lives in the `cogra-engine` crate and is re-exported here
//! under its historical paths.

#![warn(missing_docs)]

pub mod cogra;
mod metrics;
pub mod mixed_grained;
pub mod parallel;
pub mod pattern_grained;
pub mod session;
pub mod type_grained;

// Substrate re-exports: `cogra_core::agg`, `cogra_core::runtime`, ... keep
// working even though the modules moved to `cogra-engine`.
pub use cogra_engine::{agg, engine, output, router, runtime};

pub use cogra::{CograEngine, CograWindow};
pub use cogra_checkpoint::CheckpointError;
pub use cogra_engine::{
    run_to_completion, AggLayout, AggValue, Cell, CellTable, DisjunctRuntime, EngineConfig,
    EventBinds, Feed, GroupKey, KeyInterner, Output, PartitionId, QueryRuntime, Router, RunStats,
    SlotFunc, TrendEngine, WindowAlgo, WindowResult,
};
pub use metrics::Metrics;
pub use parallel::{FailurePolicy, WorkerFailure, DEFAULT_BATCH_SIZE, MAX_WORKERS};
pub use session::{
    EngineKind, IngestError, ResultSink, Session, SessionBuilder, SessionError, SessionRun,
    SharedPlan, TaggedResult,
};
