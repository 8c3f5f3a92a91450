//! # cogra — Coarse-Grained Event Trend Aggregation
//!
//! A from-scratch Rust implementation of *"Event Trend Aggregation Under
//! Rich Event Matching Semantics"* (Poppe, Lei, Rundensteiner, Maier —
//! SIGMOD 2019): online aggregation of Kleene-pattern matches (*event
//! trends*) under the contiguous, skip-till-next-match and
//! skip-till-any-match semantics, at the coarsest aggregate granularity
//! each semantics permits.
//!
//! Every consumer talks to the engines through the unified
//! [`Session`](prelude::Session) pipeline:
//!
//! ```
//! use cogra::prelude::*;
//!
//! // 1. Declare the event schema.
//! let mut registry = TypeRegistry::new();
//! let stock = registry.register_type(
//!     "Stock",
//!     vec![("company", ValueKind::Int), ("price", ValueKind::Float)],
//! );
//!
//! // 2. Build the stream (any recorded or live source works).
//! let mut builder = EventBuilder::new();
//! let events: Vec<Event> = [5.0, 4.0, 3.0, 6.0, 2.0]
//!     .into_iter()
//!     .enumerate()
//!     .map(|(i, price)| {
//!         builder.event(i as u64 + 1, stock, vec![Value::Int(1), Value::Float(price)])
//!     })
//!     .collect();
//!
//! // 3. Configure a session: query in the paper's language, engine from
//! //    the typed roster, and run it to completion.
//! let run = Session::builder()
//!     .query(
//!         "RETURN company, COUNT(*) \
//!          PATTERN Stock S+ \
//!          SEMANTICS skip-till-any-match \
//!          WHERE [company] AND S.price > NEXT(S).price \
//!          GROUP-BY company \
//!          WITHIN 10 SLIDE 10",
//!     )
//!     .engine(EngineKind::Cogra)
//!     .build(&registry)
//!     .unwrap()
//!     .run(&events);
//! assert_eq!(run.results().len(), 1); // one window, one company
//! ```
//!
//! Streaming consumers call [`Session::process`](prelude::Session::process)
//! per event and receive results through a push-based
//! [`ResultSink`](prelude::ResultSink) — no intermediate vectors on the
//! hot path. `.slack(n)` fuses bounded out-of-order repair into
//! ingestion; `.workers(n)` shards execution per partition (§8);
//! repeating `.query(...)` fans one stream out to a whole query workload.
//!
//! The workspace crates are re-exported:
//! * [`events`] — event model, schemas, sliding windows;
//! * [`query`] — pattern AST, parser, static analyzer (FSA, predicate
//!   classifier, granularity selector);
//! * [`engine`] — the engine substrate: `TrendEngine`, aggregate cells,
//!   the partition/window router;
//! * [`core`] — the COGRA executor (type-/mixed-/pattern-grained
//!   aggregators) and the `Session` facade;
//! * [`baselines`] — SASE, Flink-flat, GRETA, A-Seq and the oracle;
//! * [`server`] — the TCP front-end: socket ingest, subscription sinks;
//! * [`workloads`] — the evaluation's data-set generators.

pub use cogra_baselines as baselines;
pub use cogra_core as core;
pub use cogra_engine as engine;
pub use cogra_events as events;
pub use cogra_query as query;
pub use cogra_server as server;
pub use cogra_workloads as workloads;

/// Everything needed for typical use.
pub mod prelude {
    pub use cogra_core::session::{
        EngineKind, IngestError, ResultSink, Session, SessionBuilder, SessionError, SessionRun,
        SharedPlan, TaggedResult,
    };
    pub use cogra_core::{
        run_to_completion, AggValue, CheckpointError, CograEngine, EngineConfig, FailurePolicy,
        RunStats, TrendEngine, WindowResult, WorkerFailure,
    };
    pub use cogra_events::{
        read_events, write_events, Event, EventBuilder, EventReader, Timestamp, TypeRegistry,
        Value, ValueKind, WindowSpec,
    };
    pub use cogra_query::{compile, parse, Granularity, PatternExpr, Query, Semantics};
    pub use cogra_server::{Client, ServeError, Server, ServerConfig, StatsReport, Subscription};
}
