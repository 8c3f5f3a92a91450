//! The unified `Session` pipeline: one ingestion API for every consumer,
//! over one execution path.
//!
//! A [`Session`] is a roster of queries in front of ONE pool of shards,
//! which only a session builds: its shards host every engine, and
//! `process` / `drain` / `finish` / `checkpoint` / `restore` each have a
//! single implementation whatever the worker count — `.workers(1)` is the
//! pool's one shard driven inline on the caller's thread, `.workers(n)` is
//! the same shards behind worker threads (see [`crate::parallel`]).
//!
//! ```
//! use cogra_core::session::{EngineKind, Session};
//! use cogra_events::{EventBuilder, TypeRegistry, Value, ValueKind};
//!
//! let mut registry = TypeRegistry::new();
//! let a = registry.register_type("A", vec![("v", ValueKind::Int)]);
//! let mut builder = EventBuilder::new();
//! let events: Vec<_> = (1..=6)
//!     .map(|t| builder.event(t, a, vec![Value::Int(t as i64)]))
//!     .collect();
//!
//! let run = Session::builder()
//!     .query("RETURN COUNT(*) PATTERN A+ SEMANTICS ANY WITHIN 4 SLIDE 2")
//!     .engine(EngineKind::Cogra)
//!     .build(&registry)
//!     .unwrap()
//!     .run(&events);
//! assert!(!run.results().is_empty());
//! ```
//!
//! * [`EngineKind`] is the typed roster of Table 1 / Table 9: each kind is
//!   a [`Router`] over one [`WindowAlgo`], admitted by the Table 9 row that
//!   algorithm states ([`Router::admit`]) and built under the session's
//!   [`EngineConfig`] — a query with a feature the row lacks fails with a
//!   `QueryError` naming the engine and the feature, exactly as §9.2
//!   charts omit unsupported approaches. Multi-query sessions may mix
//!   kinds per query via [`SessionBuilder::query_with_engine`].
//! * `.slack(n)` fuses disorder repair into ingestion, once, in front of
//!   the shards: the pool's one reorder buffer drops (and counts,
//!   [`Metrics::late`]) exactly the events a single front [`Reorderer`]
//!   would, and hands the rest to the shards in time-stamp order.
//! * `.workers(n)` widens the pool to `n` shards on worker threads (§8)
//!   — COGRA only. Events are hashed to their shard at ingest time and
//!   shipped in batches ([`SessionBuilder::batch_size`]);
//!   [`Session::drain_into`] emits results for closed windows while the
//!   stream is still running, at every width.
//! * Every query's compiled plan stays inspectable through
//!   [`Session::plan`] / [`SessionRun::plans`] — consumers print
//!   granularity or automata without re-compiling.
//! * Output is push-based: engines hand each [`WindowResult`] to a
//!   [`ResultSink`] without materializing intermediate vectors.
//! * Every counter — events, results, late drops, memory, routing
//!   statistics, per-shard events, the shards' health — comes from one
//!   read, [`Session::metrics`]. [`SessionRun`] and the server's `STATS`
//!   reply are that struct; the few remaining per-counter accessors
//!   project one field of it, except the allocation-free reads
//!   ([`Session::memory_bytes`], [`Session::watermark`],
//!   [`Session::key_overflow`], [`Session::worker_failure`]) that
//!   ingestion itself checks.
//!
//! [`Reorderer`]: cogra_events::Reorderer

use crate::cogra::CograWindow;
use crate::metrics::Metrics;
use crate::parallel::{
    Engine, FailurePolicy, Hosted, PoolConfig, PoolState, StreamingPool, WorkerFailure, MAX_WORKERS,
};
use cogra_baselines::{ASeqWindow, FlinkWindow, GretaWindow, OracleWindow, SaseWindow};
use cogra_checkpoint::{CheckpointError, Dec, Enc, SnapshotReader, SnapshotWriter};
use cogra_engine::runtime::{EngineConfig, QueryRuntime};
use cogra_engine::{Router, RouterState, RunStats, TrendEngine, WindowAlgo, WindowResult};
use cogra_events::csv::{CsvError, EventReader};
use cogra_events::{Event, ReorderBuffer, Timestamp, TypeId, TypeRegistry};
use cogra_query::{canonical_signature, compile, parse, CompiledQuery, Query, QueryError};
use std::borrow::Borrow;
use std::fmt;
use std::io;
use std::str::FromStr;
use std::sync::Arc;

/// `$body` with `$W` naming `$kind`'s window algorithm — the one place a
/// kind meets the [`WindowAlgo`] that holds its name and Table 9 row.
macro_rules! per_kind {
    ($kind:expr, $W:ident => $body:expr) => {
        match $kind {
            EngineKind::Cogra => {
                type $W = CograWindow;
                $body
            }
            EngineKind::Sase => {
                type $W = SaseWindow;
                $body
            }
            EngineKind::Greta => {
                type $W = GretaWindow;
                $body
            }
            EngineKind::Aseq => {
                type $W = ASeqWindow;
                $body
            }
            EngineKind::Flink => {
                type $W = FlinkWindow;
                $body
            }
            EngineKind::Oracle => {
                type $W = OracleWindow;
                $body
            }
        }
    };
}

/// The engines of Table 1 / Table 9, as a typed roster: a kind is a name
/// for one [`WindowAlgo`], which holds the engine's name and Table 9 row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// COGRA — this paper's coarse-grained online aggregator.
    Cogra,
    /// SASE — two-step: stacks, predecessor pointers, DFS construction.
    Sase,
    /// GRETA — online event-granularity graph (ANY only).
    Greta,
    /// A-Seq — online prefix counters (ANY, no adjacent predicates).
    Aseq,
    /// Flink-style — Kleene flattened into fixed-length sequence queries.
    Flink,
    /// Brute-force oracle enumerating Definitions 2–4 directly.
    Oracle,
}

impl EngineKind {
    /// Every kind, COGRA first.
    pub const ALL: [EngineKind; 6] = [
        EngineKind::Cogra,
        EngineKind::Sase,
        EngineKind::Greta,
        EngineKind::Aseq,
        EngineKind::Flink,
        EngineKind::Oracle,
    ];

    /// The five compared approaches in the paper's presentation order
    /// (Table 1); the oracle is a test fixture, not a contender.
    pub const PAPER_ROSTER: [EngineKind; 5] = [
        EngineKind::Flink,
        EngineKind::Sase,
        EngineKind::Greta,
        EngineKind::Aseq,
        EngineKind::Cogra,
    ];

    /// Lower-case engine name, as reported by [`TrendEngine::name`] — the
    /// kind's [`WindowAlgo::NAME`].
    pub fn name(self) -> &'static str {
        per_kind!(self, W => W::NAME)
    }

    /// Build this engine for `query`. Fails with the [`QueryError`] of
    /// [`Router::admit`] when the engine's Table 9 row lacks a feature of
    /// the query, or with the compiler's when the query does not compile.
    pub fn build(
        self,
        query: &Query,
        registry: &TypeRegistry,
        config: &EngineConfig,
    ) -> Result<Box<dyn TrendEngine>, QueryError> {
        let rt = self.runtime(&compile(query, registry)?, registry, config)?;
        Ok(self
            .engine(rt, None)
            .expect("a fresh engine has no state to reject"))
    }

    /// This kind's runtime for a compiled plan: [`Router::admit`] for the
    /// kind's window algorithm — the one admission check every
    /// construction path goes through.
    fn runtime(
        self,
        plan: &CompiledQuery,
        registry: &TypeRegistry,
        config: &EngineConfig,
    ) -> Result<Arc<QueryRuntime>, QueryError> {
        per_kind!(self, W => Router::<W>::admit(plan, registry, config))
    }

    /// THE engine constructor every kind and every path shares: a router
    /// over `rt` (from [`EngineKind::runtime`]) running this kind's
    /// per-window algorithm — fresh, or revived from a checkpointed
    /// `state` (which is what can fail).
    pub(crate) fn engine(
        self,
        rt: Arc<QueryRuntime>,
        state: Option<RouterState>,
    ) -> Result<Engine, CheckpointError> {
        per_kind!(self, W => Ok(match state {
            Some(state) => Box::new(Router::<W>::from_state(rt, state)?),
            None => Box::new(Router::<W>::new(rt)),
        }))
    }

    /// Whether this engine's Table 9 row covers `query` — false as well
    /// when the query does not compile.
    pub fn supports(self, query: &Query, registry: &TypeRegistry) -> bool {
        compile(query, registry)
            .is_ok_and(|plan| per_kind!(self, W => W::TABLE9.supports(&plan).is_ok()))
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for EngineKind {
    type Err = String;

    fn from_str(s: &str) -> Result<EngineKind, String> {
        EngineKind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| {
                let names = EngineKind::ALL.map(EngineKind::name);
                format!("unknown engine `{s}` (expected {})", names.join("|"))
            })
    }
}

/// Errors building or running a [`Session`].
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// A query failed to parse or compile, or the chosen engine does not
    /// support its features (Table 9). `query` is the index of the
    /// offending `.query(...)` call, in registration order, so callers
    /// can attribute the failure (e.g. to a query file).
    Query {
        /// Index of the failing query.
        query: usize,
        /// What went wrong.
        error: QueryError,
    },
    /// The builder was given no `.query(...)`.
    NoQueries,
    /// `.workers(n > 1)` with an engine other than COGRA — per-partition
    /// sharding (§8) is COGRA's execution strategy.
    ParallelUnsupported(EngineKind),
    /// `.workers(n)` beyond [`MAX_WORKERS`]; no thread was started.
    TooManyWorkers {
        /// The width asked for.
        requested: usize,
    },
    /// The operating system refused to start a shard's worker thread; the
    /// shards already started were joined.
    WorkerSpawn {
        /// Which shard's thread could not be started.
        shard: usize,
        /// The OS error, rendered.
        error: String,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Query { query, error } => write!(f, "query {query}: {error}"),
            SessionError::NoQueries => write!(f, "session has no queries"),
            SessionError::ParallelUnsupported(kind) => {
                write!(f, "workers > 1 requires the cogra engine, not `{kind}`")
            }
            SessionError::TooManyWorkers { requested } => write!(
                f,
                "{requested} workers requested; at most {MAX_WORKERS} are supported"
            ),
            SessionError::WorkerSpawn { shard, error } => {
                write!(
                    f,
                    "could not start the worker thread of shard {shard}: {error}"
                )
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// Errors ingesting a CSV stream ([`Session::ingest_csv`] /
/// [`Session::run_csv`]).
#[derive(Debug, Clone, PartialEq)]
pub enum IngestError {
    /// A row failed to decode.
    Csv(CsvError),
    /// An event went back in time and no `.slack(n)` reorderer is fused
    /// into the session to repair it.
    OutOfOrder {
        /// Sequential id of the offending event (row order for CSV
        /// ingestion) — enough to locate the bad row in a large stream.
        event: cogra_events::EventId,
        /// Time of the offending event.
        time: Timestamp,
        /// The stream's watermark when it arrived.
        watermark: Timestamp,
    },
    /// The stream held more partition keys resident at once than the
    /// configured [`EngineConfig::key_limit`] admits — the session
    /// dropped an event instead of growing its state without bound.
    KeyOverflow {
        /// The configured limit that was hit.
        limit: u32,
    },
    /// A shard worker died under [`FailurePolicy::Fail`] (or exhausted
    /// its restart budget). The session is sticky-failed: it accepts no
    /// further events and emits nothing — no partial output.
    WorkerFailed(WorkerFailure),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Csv(e) => e.fmt(f),
            IngestError::OutOfOrder {
                event,
                time,
                watermark,
            } => write!(
                f,
                "event {event} at {time} arrived after watermark {watermark}; \
                 pass --slack N / .slack(n) to repair bounded disorder"
            ),
            IngestError::KeyOverflow { limit } => write!(
                f,
                "stream exceeded the configured limit of {limit} resident partition keys; \
                 raise --key-limit N / EngineConfig::key_limit to admit more"
            ),
            IngestError::WorkerFailed(failure) => failure.fmt(f),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<CsvError> for IngestError {
    fn from(e: CsvError) -> IngestError {
        IngestError::Csv(e)
    }
}

/// A query handed to the builder: raw text (parsed at
/// [`SessionBuilder::build`]) or an already-parsed [`Query`].
#[derive(Debug, Clone)]
pub enum QuerySpec {
    /// Query text in the paper's language.
    Text(String),
    /// A parsed query.
    Parsed(Query),
}

impl From<&str> for QuerySpec {
    fn from(text: &str) -> QuerySpec {
        QuerySpec::Text(text.to_string())
    }
}

impl From<String> for QuerySpec {
    fn from(text: String) -> QuerySpec {
        QuerySpec::Text(text)
    }
}

impl From<Query> for QuerySpec {
    fn from(query: Query) -> QuerySpec {
        QuerySpec::Parsed(query)
    }
}

impl From<&Query> for QuerySpec {
    fn from(query: &Query) -> QuerySpec {
        QuerySpec::Parsed(query.clone())
    }
}

/// The multi-query sharing factoring (ROADMAP direction 2): how a
/// session's N roster entries map onto M ≤ N physical runtimes. Queries
/// whose [canonical signature] and engine kind coincide execute as ONE
/// physical run — one automaton, one set of partial aggregates — and the
/// session fans every result of physical slot `j` out to all of
/// `members[j]` through the [`TaggedResult`] path, so per-query output is
/// byte-identical to each query run alone (the model's reference,
/// `tests/common/model.rs`). Sharing is always on.
///
/// [canonical signature]: cogra_query::canonical_signature
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedPlan {
    /// Physical slot hosting each query (`physical_of[q] = j`); length is
    /// the roster size N.
    pub physical_of: Vec<usize>,
    /// Member queries of each physical slot, in registration order; the
    /// first member is the representative whose compiled plan runs.
    /// Length is the physical count M; slots are numbered in first-
    /// occurrence order, so every slot is non-empty.
    pub members: Vec<Vec<usize>>,
}

impl SharedPlan {
    /// Factor a roster by sharing key: entries with equal keys land in the
    /// same physical slot. Slots appear in first-occurrence order.
    pub fn factor(keys: &[String]) -> SharedPlan {
        let mut physical_of = Vec::with_capacity(keys.len());
        let mut members: Vec<Vec<usize>> = Vec::new();
        let mut seen: Vec<&String> = Vec::new();
        for (q, key) in keys.iter().enumerate() {
            match seen.iter().position(|k| *k == key) {
                Some(j) => {
                    physical_of.push(j);
                    members[j].push(q);
                }
                None => {
                    physical_of.push(seen.len());
                    seen.push(key);
                    members.push(vec![q]);
                }
            }
        }
        SharedPlan {
            physical_of,
            members,
        }
    }

    /// Rebuild from a stored `physical_of` vector (checkpoint restore).
    /// Errors if the mapping is malformed: slots must be numbered densely
    /// in first-occurrence order, exactly as [`SharedPlan::factor`] emits.
    fn from_physical_of(physical_of: Vec<usize>) -> Result<SharedPlan, String> {
        let mut members: Vec<Vec<usize>> = Vec::new();
        for (q, &j) in physical_of.iter().enumerate() {
            if j > members.len() {
                return Err(format!(
                    "sharing map names physical slot {j} before slot {}",
                    members.len()
                ));
            }
            if j == members.len() {
                members.push(Vec::new());
            }
            members[j].push(q);
        }
        Ok(SharedPlan {
            physical_of,
            members,
        })
    }

    /// Number of roster queries N.
    pub fn queries(&self) -> usize {
        self.physical_of.len()
    }

    /// Number of physical runs M ≤ N.
    pub fn physical(&self) -> usize {
        self.members.len()
    }

    /// The representative query of physical slot `j` (its plan runs).
    fn representative(&self, j: usize) -> usize {
        self.members[j][0]
    }
}

/// Fluent configuration of a [`Session`].
#[derive(Debug, Clone, Default)]
pub struct SessionBuilder {
    /// Queries with an optional per-query engine override.
    queries: Vec<(QuerySpec, Option<EngineKind>)>,
    engine: Option<EngineKind>,
    config: Option<EngineConfig>,
    slack: Option<u64>,
    workers: usize,
    batch_size: Option<usize>,
    policy: FailurePolicy,
}

impl SessionBuilder {
    /// An empty builder (engine defaults to [`EngineKind::Cogra`]).
    pub fn new() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// Add one query — call repeatedly for a multi-query workload. The
    /// query runs on the session's default engine kind
    /// ([`SessionBuilder::engine`]) over the shared stream.
    pub fn query(mut self, query: impl Into<QuerySpec>) -> SessionBuilder {
        self.queries.push((query.into(), None));
        self
    }

    /// Add one query pinned to its own engine kind — heterogeneous
    /// multi-query sessions run each query on the engine that suits it
    /// (Table 9), over the same stream:
    ///
    /// ```ignore
    /// Session::builder()
    ///     .query(any_query)                                  // default kind
    ///     .query_with_engine(next_query, EngineKind::Sase)   // pinned
    ///     .build(&registry)?
    /// ```
    pub fn query_with_engine(
        mut self,
        query: impl Into<QuerySpec>,
        kind: EngineKind,
    ) -> SessionBuilder {
        self.queries.push((query.into(), Some(kind)));
        self
    }

    /// Select the default engine for queries without a per-query kind
    /// (default: COGRA).
    pub fn engine(mut self, kind: EngineKind) -> SessionBuilder {
        self.engine = Some(kind);
        self
    }

    /// Engine-level configuration knobs (e.g. the Flink/A-Seq flatten cap).
    pub fn config(mut self, config: EngineConfig) -> SessionBuilder {
        self.config = Some(config);
        self
    }

    /// Repair up to `slack` ticks of disorder before the engines see the
    /// events. Dropped late events are counted
    /// ([`Session::late_events`]). One reorder buffer in front of the
    /// shards decides the drops — exactly those of a single front
    /// reorderer — and releases the rest in order, so results and drop
    /// counts do not depend on `.workers(n)`.
    pub fn slack(mut self, slack: u64) -> SessionBuilder {
        self.slack = Some(slack);
        self
    }

    /// Execute with `workers` parallel per-partition shards (§8) — COGRA
    /// only beyond 1. ONE pool of shards ([`crate::parallel`]) serves
    /// every query of the session (each shard hosts one engine per query
    /// it serves); from width 2 up each shard runs on a long-lived worker
    /// thread, events are hashed to their shard at ingest time and
    /// shipped in batches.
    /// Queries without a `GROUP-BY` prefix are pinned to a single shard
    /// each; a session that cannot use more than one shard runs inline on
    /// the caller's thread, exactly like `.workers(1)`. More than
    /// [`MAX_WORKERS`] fails the build with
    /// [`SessionError::TooManyWorkers`]; a thread the OS refuses, with
    /// [`SessionError::WorkerSpawn`].
    pub fn workers(mut self, workers: usize) -> SessionBuilder {
        self.workers = workers.max(1);
        self
    }

    /// Shard-transport batch size under `.workers(n)` (default
    /// [`crate::parallel::DEFAULT_BATCH_SIZE`]): routed items — `(event,
    /// query)` pairs — staged per shard before its batch is shipped to the
    /// worker. Staged items flush on every drain/finish, so this tunes
    /// hand-off cost and latency, never the result set — an axis of the
    /// model battery (`tests/common/model.rs`).
    pub fn batch_size(mut self, batch_size: usize) -> SessionBuilder {
        self.batch_size = Some(batch_size.max(1));
        self
    }

    /// What a `.workers(n)` session does when a shard worker panics
    /// (default [`FailurePolicy::Fail`]). Under [`FailurePolicy::Restart`]
    /// the worker revives its shard on its own thread — from the state it
    /// saved at its last drain, replaying the batches it received since —
    /// so output stays byte-identical to an undisturbed run;
    /// [`FailurePolicy::Degrade`] quarantines the shard
    /// and keeps serving the remaining keys, counting what the dead
    /// shard had absorbed as [`Session::dropped_events`]. A session of
    /// width 1 ignores the policy — there is no worker to supervise.
    pub fn on_worker_failure(mut self, policy: FailurePolicy) -> SessionBuilder {
        self.policy = policy;
        self
    }

    /// Resolve queries and construct the engines.
    pub fn build(self, registry: &TypeRegistry) -> Result<Session, SessionError> {
        if self.queries.is_empty() {
            return Err(SessionError::NoQueries);
        }
        let default_kind = self.engine.unwrap_or(EngineKind::Cogra);
        let mut kinds = Vec::with_capacity(self.queries.len());
        let mut queries = Vec::with_capacity(self.queries.len());
        for (query, (spec, kind)) in self.queries.into_iter().enumerate() {
            kinds.push(kind.unwrap_or(default_kind));
            queries.push(match spec {
                QuerySpec::Text(text) => {
                    parse(&text).map_err(|error| SessionError::Query { query, error })?
                }
                QuerySpec::Parsed(q) => q,
            });
        }
        // Multi-query sharing: queries with the same canonical signature
        // AND engine kind are one physical run; the engine kind joins the
        // key because a shared slot hosts exactly one runtime. Results fan
        // out per query at drain/finish.
        let keys: Vec<String> = queries
            .iter()
            .zip(&kinds)
            .map(|(q, kind)| format!("{}\u{1f}{}", kind.name(), canonical_signature(q)))
            .collect();
        let shared = SharedPlan::factor(&keys);
        let pool_config = PoolConfig {
            batch_size: self
                .batch_size
                .unwrap_or(crate::parallel::DEFAULT_BATCH_SIZE),
            slack: self.slack,
            policy: self.policy,
        };
        let roster = Roster {
            kind: default_kind,
            kinds,
            queries,
            shared,
            config: self.config.unwrap_or_default(),
        };
        roster
            .open(registry, self.workers, pool_config, None)
            .map_err(|e| match e {
                OpenError::Session(e) => e,
                OpenError::State(e) => unreachable!("fresh engines have no state to reject: {e}"),
            })
    }

    /// Rebuild a live session from a [`Session::checkpoint`] snapshot.
    ///
    /// The snapshot is authoritative for queries, engine kinds, engine
    /// configuration and slack — a builder with `.query(...)`,
    /// `.engine(...)`, `.config(...)` or `.slack(...)` set is rejected
    /// ([`CheckpointError::Unsupported`]). Three execution knobs may be
    /// overridden, because they do not change what the session computes:
    ///
    /// * `.workers(n)` — **elastic rescale**: the snapshot's merged
    ///   per-query states are re-sharded onto `n` shards by replaying the
    ///   group-prefix hash, so a session checkpointed at one width resumes
    ///   at another, byte-identically (the model battery's restore op) —
    ///   `.workers(1)` resumes inline, whatever width took the snapshot;
    /// * `.batch_size(n)` — shard-transport batching;
    /// * `.on_worker_failure(policy)` — supervision policy (it is not
    ///   serialized: how to react to a crash is an operational choice of
    ///   the process doing the restoring, not stream state).
    ///
    /// Restore re-compiles the snapshot's canonical query texts against
    /// `registry`, so the registry must define the event types the queries
    /// mention (it is intentionally NOT serialized: the registry is schema,
    /// owned by the application, not stream state).
    pub fn restore(
        self,
        registry: &TypeRegistry,
        reader: impl io::Read,
    ) -> Result<Session, CheckpointError> {
        if !self.queries.is_empty()
            || self.engine.is_some()
            || self.config.is_some()
            || self.slack.is_some()
        {
            return Err(CheckpointError::Unsupported(
                "restore takes queries, engines, engine configuration and slack \
                 from the snapshot; only .workers(n), .batch_size(n) and \
                 .on_worker_failure(p) may be overridden"
                    .to_string(),
            ));
        }

        // --- Decode the container -------------------------------------
        let mut r = SnapshotReader::new(reader)?;
        let bytes = r.expect("config")?;
        let mut dec = Dec::new(&bytes);
        let n_queries = dec.usize()?;
        let mut queries = Vec::with_capacity(n_queries.min(1 << 16));
        let mut kinds = Vec::with_capacity(n_queries.min(1 << 16));
        let parse_kind = |name: &str| name.parse::<EngineKind>().map_err(CheckpointError::Corrupt);
        for i in 0..n_queries {
            queries.push(parse(&dec.str()?).map_err(|e| {
                CheckpointError::Corrupt(format!("query {i} failed to parse/compile: {e}"))
            })?);
            kinds.push(parse_kind(&dec.str()?)?);
        }
        let default_kind = parse_kind(&dec.str()?)?;
        let flatten_cap = dec.opt_u64()?.map(|c| c as usize);
        let slack = dec.opt_u64()?;
        let snap_workers = dec.u64()? as usize;
        let snap_batch = dec.u64()? as usize;
        let key_limit = dec.opt_u64()?.map(|v| v as u32);
        // The multi-query sharing map: physical slot per query.
        let n = dec.usize()?;
        if n != n_queries {
            return Err(CheckpointError::Corrupt(format!(
                "sharing map covers {n} queries, snapshot has {n_queries}"
            )));
        }
        let mut physical_of = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            physical_of.push(dec.usize()?);
        }
        let shared = SharedPlan::from_physical_of(physical_of).map_err(CheckpointError::Corrupt)?;
        dec.finish("config section")?;

        let mut state = PoolState::load_reorder(&r.expect("reorder")?)?;
        if state.reorder.as_ref().map(ReorderBuffer::slack) != slack {
            return Err(CheckpointError::Corrupt(
                "reorder state does not match the configured slack".to_string(),
            ));
        }

        // One engine-state section per PHYSICAL run: a shared slot's state
        // is snapshotted once, however many queries it serves.
        for i in 0..shared.physical() {
            let bytes = r.expect(&format!("q{i}"))?;
            let mut dec = Dec::new(&bytes);
            state.states.push(RouterState::load(&mut dec)?);
            dec.finish("engine section")?;
        }
        r.finish()?;
        // --- Resolve the execution shape and reopen the pool -----------
        let workers = if self.workers > 0 {
            self.workers
        } else {
            snap_workers.max(1)
        };
        let pool_config = PoolConfig {
            batch_size: self.batch_size.unwrap_or(snap_batch).max(1),
            slack,
            policy: self.policy,
        };
        let roster = Roster {
            kind: default_kind,
            kinds,
            queries,
            shared,
            config: EngineConfig {
                flatten_cap,
                key_limit,
            },
        };
        roster
            .open(registry, workers, pool_config, Some(state))
            .map_err(|e| match e {
                OpenError::Session(SessionError::Query { query, error }) => {
                    CheckpointError::Corrupt(format!(
                        "query {query} failed to parse/compile: {error}"
                    ))
                }
                OpenError::Session(other) => CheckpointError::Unsupported(other.to_string()),
                OpenError::State(e) => e,
            })
    }

    /// Convenience: [`SessionBuilder::build`] + [`Session::run`].
    pub fn run(
        self,
        registry: &TypeRegistry,
        events: &[Event],
    ) -> Result<SessionRun, SessionError> {
        Ok(self.build(registry)?.run(events))
    }
}

/// A resolved roster — what [`SessionBuilder::build`] derives from the
/// builder and [`SessionBuilder::restore`] reads from a snapshot.
struct Roster {
    kind: EngineKind,
    kinds: Vec<EngineKind>,
    queries: Vec<Query>,
    shared: SharedPlan,
    config: EngineConfig,
}

/// Why [`Roster::open`] (or the [`StreamingPool::open`] under it) failed:
/// what was asked for, or the state to resume.
pub(crate) enum OpenError {
    Session(SessionError),
    State(CheckpointError),
}

impl From<CheckpointError> for OpenError {
    fn from(e: CheckpointError) -> OpenError {
        OpenError::State(e)
    }
}

impl Roster {
    /// THE step from a roster to a session, fresh or resumed: compile
    /// every query exactly once, admit each physical run's plan to its
    /// engine kind, and open the pool over the resulting runtimes.
    fn open(
        self,
        registry: &TypeRegistry,
        workers: usize,
        pool_config: PoolConfig,
        resume: Option<PoolState>,
    ) -> Result<Session, OpenError> {
        if workers > 1 {
            if let Some(kind) = self.kinds.iter().find(|k| **k != EngineKind::Cogra) {
                return Err(OpenError::Session(SessionError::ParallelUnsupported(*kind)));
            }
        }
        let attribute = |query: usize| {
            move |error: QueryError| OpenError::Session(SessionError::Query { query, error })
        };
        // The plans drive the runtimes below and stay inspectable via
        // `Session::plan`.
        let plans: Vec<Arc<CompiledQuery>> = self
            .queries
            .iter()
            .enumerate()
            .map(|(i, q)| compile(q, registry).map(Arc::new).map_err(attribute(i)))
            .collect::<Result<_, _>>()?;
        // One runtime per physical slot, from its representative's plan.
        let hosted = (0..self.shared.physical())
            .map(|j| {
                let i = self.shared.representative(j);
                let kind = self.kinds[i];
                let rt = kind.runtime(&plans[i], registry, &self.config);
                Ok((kind, rt.map_err(attribute(i))?))
            })
            .collect::<Result<Vec<Hosted>, OpenError>>()?;
        let pool = StreamingPool::open(hosted, workers, pool_config, resume)?;
        Ok(Session {
            kind: self.kind,
            kinds: self.kinds,
            plans,
            // Canonical re-parseable text per query — what a checkpoint
            // stores, so a restore can re-compile the identical plans.
            texts: self.queries.iter().map(|q| q.to_string()).collect(),
            config: self.config,
            shared: self.shared,
            pool,
            events: 0,
            results: 0,
        })
    }
}

/// Push-based consumer of session results.
///
/// Implemented for closures (`FnMut(usize, WindowResult)`), for
/// `Vec<WindowResult>` (query index discarded) and for
/// `Vec<TaggedResult>`.
pub trait ResultSink {
    /// Receive one finalized result of query `query`.
    fn emit(&mut self, query: usize, result: WindowResult);
}

impl<F: FnMut(usize, WindowResult)> ResultSink for F {
    fn emit(&mut self, query: usize, result: WindowResult) {
        self(query, result)
    }
}

impl ResultSink for Vec<WindowResult> {
    fn emit(&mut self, _query: usize, result: WindowResult) {
        self.push(result);
    }
}

impl ResultSink for Vec<TaggedResult> {
    fn emit(&mut self, query: usize, result: WindowResult) {
        self.push(TaggedResult { query, result });
    }
}

/// Fan one physical run's result out to every member query of its slot,
/// in query-registration order, counting each in `results`; the last
/// member takes the value by move (the unshared common case never clones).
fn fan_out(members: &[usize], result: WindowResult, sink: &mut dyn ResultSink, results: &mut u64) {
    let Some((&last, rest)) = members.split_last() else {
        return;
    };
    *results += members.len() as u64;
    for &q in rest {
        sink.emit(q, result.clone());
    }
    sink.emit(last, result);
}

/// A window result tagged with the query that produced it (multi-query
/// sessions interleave their queries' outputs).
#[derive(Debug, Clone, PartialEq)]
pub struct TaggedResult {
    /// Index of the query, in `.query(...)` registration order.
    pub query: usize,
    /// The result.
    pub result: WindowResult,
}

/// Outcome of a batch [`Session::run`].
#[derive(Debug)]
pub struct SessionRun {
    /// Per query (in registration order): its results, deterministically
    /// sorted by (window, group) — byte-identical to what
    /// [`run_to_completion`] produces for the same query and stream,
    /// whatever the worker count.
    ///
    /// [`run_to_completion`]: cogra_engine::run_to_completion
    pub per_query: Vec<Vec<WindowResult>>,
    /// Peak logical memory across the run, summed over the shards (they
    /// are live at once): whoever drives a shard samples the summed
    /// memory of the engines it hosts — the run loop at width 1, each
    /// worker thread under `.workers(n)`.
    pub peak_bytes: usize,
    /// Workers actually used: the widest effective shard count across
    /// queries (1 unless `.workers(n)` applied; also 1 when no query has
    /// a `GROUP-BY` prefix to shard on).
    pub workers: usize,
    /// Events fed into the session since it was built or restored
    /// (including any the `.slack(n)` repair later dropped as hopelessly
    /// late).
    pub events: u64,
    /// Late events dropped by the `.slack(n)` repair (0 without slack).
    /// One stream-wide reorder buffer decides the drops, so this count is
    /// independent of the worker count — the model battery compares it
    /// with a front `Reorderer`'s at every width.
    pub late_events: u64,
    /// Routing hot-path counters summed over every engine of every
    /// shard: `key_allocs` of the `key_probes` routed events began a
    /// new life of their key.
    pub stats: RunStats,
    /// Events handed to engines per shard ([`Metrics::shard_events`]) — a
    /// single entry at width 1, the same sum at every width. Under a
    /// skewed key distribution the spread between entries is the hot-key
    /// imbalance.
    pub shard_events: Vec<u64>,
    /// Shards quarantined by [`FailurePolicy::Degrade`], in index order
    /// ([`Metrics::degraded`]) — empty on a healthy run.
    pub degraded: Vec<usize>,
    /// Events lost to quarantines ([`Session::dropped_events`]) — 0 on a
    /// healthy run.
    pub dropped_events: u64,
    /// Each query's compiled plan (granularity, automaton, window), in
    /// registration order — shared with the session, so consumers report
    /// on the plan without re-compiling.
    pub plans: Vec<Arc<CompiledQuery>>,
    /// Physical runs actually executed (M ≤ N queries): queries with the
    /// same [canonical signature] and engine kind shared one automaton
    /// run; results were fanned out per query. Equals `per_query.len()`
    /// when nothing shared.
    ///
    /// [canonical signature]: cogra_query::canonical_signature
    pub physical: usize,
}

impl SessionRun {
    /// The first (often only) query's results.
    pub fn results(&self) -> &[WindowResult] {
        &self.per_query[0]
    }

    /// Flatten into tagged results, in query order.
    pub fn tagged(self) -> Vec<TaggedResult> {
        self.per_query
            .into_iter()
            .enumerate()
            .flat_map(|(query, results)| {
                results
                    .into_iter()
                    .map(move |result| TaggedResult { query, result })
            })
            .collect()
    }
}

/// A configured pipeline: queries × engines × ingestion options. Built by
/// [`SessionBuilder`]; see the module docs for the full tour.
pub struct Session {
    /// The default engine kind.
    kind: EngineKind,
    /// Resolved engine kind per query.
    kinds: Vec<EngineKind>,
    /// Compiled plan per query.
    plans: Vec<Arc<CompiledQuery>>,
    /// Canonical query text per query (what a checkpoint stores).
    texts: Vec<String>,
    /// Engine configuration, kept for checkpointing.
    config: EngineConfig,
    /// The multi-query sharing factoring: which physical run serves each
    /// query, and which queries each physical run fans out to.
    shared: SharedPlan,
    /// The shards hosting every engine — one inline, or `n` on threads.
    pool: StreamingPool,
    /// [`Metrics::events`].
    events: u64,
    /// [`Metrics::results`].
    results: u64,
}

impl Session {
    /// Start configuring a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// The session's default engine kind (queries added via
    /// [`SessionBuilder::query_with_engine`] may deviate — see
    /// [`Session::query_kind`]).
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// The engine kind query `query` runs on.
    pub fn query_kind(&self, query: usize) -> Option<EngineKind> {
        self.kinds.get(query).copied()
    }

    /// The compiled plan of query `query` — granularity, automaton,
    /// window — without re-compiling.
    pub fn plan(&self, query: usize) -> Option<&CompiledQuery> {
        self.plans.get(query).map(|p| p.as_ref())
    }

    /// Every query's compiled plan, in registration order.
    pub fn plans(&self) -> &[Arc<CompiledQuery>] {
        &self.plans
    }

    /// Number of queries.
    pub fn queries(&self) -> usize {
        self.plans.len()
    }

    /// Ingest one event. With `.slack(n)` the event may be buffered (or
    /// dropped as late). At width 1 without slack the engines read it in
    /// place; under `.workers(n)` it is hashed to its shard and staged for
    /// the next batch send. Every call counts in [`Metrics::events`]; a
    /// finished session ignores the event otherwise.
    ///
    /// The event's attribute values must be of its schema's kinds (the
    /// [`Event`] contract; the CSV surfaces decode them so). That is not
    /// checked here: an `Int` where the schema says `Float` is aggregated
    /// and compared numerically all the same, but a checkpoint that stores
    /// it — a mixed-grained window's stored values, a pattern-grained
    /// window's last matched event, or under `.slack(n)` the event itself
    /// while the reorder buffer holds it in flight — refuses to restore
    /// ([`CheckpointError::Corrupt`]).
    pub fn process(&mut self, event: &Event) {
        self.events += 1;
        self.pool.route(event);
    }

    /// Ingest events straight off a `cogra_events::csv` stream — one
    /// decode pass, no intermediate `Vec<Event>`; THE decode path shared
    /// by the `cogra-run` CLI and the benchmark (the server decodes the
    /// same rows with the same reader on its connection threads). Every row
    /// is decoded into one reused event and handed to
    /// [`Session::ingest_checked`] by reference, so a row of numbers
    /// allocates nothing between the text and the engines. Returns the
    /// number of events ingested. Without `.slack(n)` a time-regressing row
    /// fails with [`IngestError::OutOfOrder`] instead of corrupting engine
    /// state. Results are *not* collected here: drain via
    /// [`Session::drain_into`] / [`Session::finish_into`] as usual, or
    /// use [`Session::run_csv`] for the collect-everything convenience.
    pub fn ingest_csv(&mut self, text: &str, registry: &TypeRegistry) -> Result<u64, IngestError> {
        let before = self.events;
        each_csv_event(text, registry, |event| self.ingest_checked(event))?;
        Ok(self.events - before)
    }

    /// Ingest one decoded row under the contract of the CSV surfaces — THE
    /// per-row step of [`Session::ingest_csv`], [`Session::run_csv`] and
    /// the server's `INGEST`, so all three refuse the same rows with the
    /// same [`IngestError`]: without `.slack(n)` a row that goes back in
    /// time fails with [`IngestError::OutOfOrder`] before it reaches the
    /// engines; any other row is handed to [`Session::process`] (and so
    /// counted in [`Metrics::events`]), and then a `key_limit` overflow or
    /// a sticky worker failure fails typed. Not transactional: the rows
    /// before a refused one stay ingested and counted.
    pub fn ingest_checked(&mut self, event: &Event) -> Result<(), IngestError> {
        let watermark = self.watermark();
        if self.pool.slack().is_none() && event.time < watermark {
            return Err(IngestError::OutOfOrder {
                event: event.id,
                time: event.time,
                watermark,
            });
        }
        self.process(event);
        if let Some(limit) = self.key_overflow() {
            return Err(IngestError::KeyOverflow { limit });
        }
        match self.worker_failure() {
            Some(failure) => Err(IngestError::WorkerFailed(failure.clone())),
            None => Ok(()),
        }
    }

    /// Emit every result final at the current watermark. Under
    /// `.workers(n)` this flushes the staged batches and broadcasts the
    /// global watermark to the shards first, so results flow live even
    /// when some shard's sub-stream went quiet.
    pub fn drain_into(&mut self, sink: &mut dyn ResultSink) {
        let (shared, results) = (&self.shared, &mut self.results);
        self.pool
            .drain_into(&mut |j, r| fan_out(&shared.members[j], r, sink, results));
    }

    /// End of stream: flush the reorder buffer, close every open window,
    /// and — under `.workers(n)` — join the shard workers.
    ///
    /// The session is exhausted afterwards: further
    /// [`Session::process`] calls are ignored, further drains emit
    /// nothing, and it can no longer checkpoint.
    pub fn finish_into(&mut self, sink: &mut dyn ResultSink) {
        let (shared, results) = (&self.shared, &mut self.results);
        self.pool
            .finish_into(&mut |j, r| fan_out(&shared.members[j], r, sink, results));
    }

    /// Collecting wrapper over [`Session::drain_into`].
    pub fn drain(&mut self) -> Vec<TaggedResult> {
        let mut out = Vec::new();
        self.drain_into(&mut out);
        out
    }

    /// Collecting wrapper over [`Session::finish_into`].
    pub fn finish(&mut self) -> Vec<TaggedResult> {
        let mut out = Vec::new();
        self.finish_into(&mut out);
        out
    }

    /// Every counter of the session in one read: the pool's (late drops,
    /// watermark, width, memory, routing statistics, per-shard events, the
    /// shards' health — live at width 1, as of each worker's last drain
    /// under `.workers(n)`) and the session's own (events, results,
    /// queries, physical runs). `ingested` is 0; the server sets it in an
    /// `INGEST` reply, which is otherwise this struct, encoded.
    pub fn metrics(&self) -> Metrics {
        Metrics {
            events: self.events,
            results: self.results,
            queries: self.queries(),
            physical: self.shared.physical(),
            ..self.pool.metrics()
        }
    }

    /// Events dropped as too late by the `.slack(n)` repair
    /// ([`Metrics::late`]).
    pub fn late_events(&self) -> u64 {
        self.metrics().late
    }

    /// Logical memory footprint of the engines: exact and current at
    /// width 1; under `.workers(n)` the summed shard engines as of each
    /// worker's last drain (the shards run concurrently, so there is no
    /// synchronous round trip here). The `.slack(n)` reorder buffer is
    /// excluded — it is bounded by slack × rate and not an engine
    /// metric of §9.1.
    pub fn memory_bytes(&self) -> usize {
        self.pool.memory()
    }

    /// Observable stream progress — results at or before it are final
    /// after the next drain: the latest ingested event time, or the safe
    /// watermark of the reorder buffer when disorder repair is active.
    pub fn watermark(&self) -> Timestamp {
        self.pool.watermark()
    }

    /// Effective shard count: the pool's widest effective count across
    /// queries (1 unless `.workers(n)` applied; also 1 when no query has a
    /// `GROUP-BY` prefix to shard on) — the live counterpart of
    /// [`SessionRun::workers`].
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The session's fan-out, a line per registered type of `registry`
    /// (the one the session was built for): which queries an event of the
    /// type reaches, each hash group under its `GROUP-BY` list, then the
    /// queries on a fixed shard — one shard at width 1, which hashes
    /// nothing. Queries that share one physical run are listed together.
    /// What `cogra-run --explain` prints for a multi-query session.
    pub fn fan_out(&self, registry: &TypeRegistry) -> String {
        let name = |j: u32| {
            let members = self.shared.members[j as usize].iter();
            members
                .map(|q| format!("q{q}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        self.pool.describe_fan_out(registry, &name)
    }

    /// Access one query's engine (width 1 only — worker threads own
    /// theirs). With sharing active the returned engine may serve other
    /// queries too — it is the query's physical run.
    pub fn engine(&self, query: usize) -> Option<&dyn TrendEngine> {
        self.pool.engine(*self.shared.physical_of.get(query)?)
    }

    /// The multi-query sharing factoring in effect: which physical run
    /// serves each query. Identity when nothing shares.
    pub fn shared_plan(&self) -> &SharedPlan {
        &self.shared
    }

    /// Summed routing hot-path counters ([`RunStats`]) across the
    /// session's engines ([`Metrics::key_probes`], [`Metrics::key_allocs`]).
    pub fn run_stats(&self) -> RunStats {
        let Metrics {
            key_probes,
            key_allocs,
            ..
        } = self.metrics();
        RunStats {
            key_probes,
            key_allocs,
        }
    }

    /// Sticky partition-key overflow: `Some(limit)` once any event was
    /// dropped because its first-seen partition key would have been one
    /// resident key more than the configured
    /// [`EngineConfig::key_limit`] admits. `None` without
    /// a limit. Under `.workers(n)` the flag is refreshed from the shard
    /// workers at drain/finish boundaries (the shards run concurrently).
    pub fn key_overflow(&self) -> Option<u32> {
        self.pool.key_overflow()
    }

    /// Sticky worker failure: `Some` once a shard worker died under
    /// [`FailurePolicy::Fail`] (or exhausted its restart budget under
    /// [`FailurePolicy::Restart`]). A failed session accepts no further
    /// events and emits nothing. Always `None` at width 1 and under
    /// successful Degrade/Restart recovery.
    pub fn worker_failure(&self) -> Option<&WorkerFailure> {
        self.pool.failure()
    }

    /// Events lost to [`FailurePolicy::Degrade`] quarantines
    /// ([`Metrics::dropped`]).
    pub fn dropped_events(&self) -> u64 {
        self.metrics().dropped
    }

    /// Events handed to the engines per shard
    /// ([`Metrics::shard_events`]).
    pub fn shard_events(&self) -> Vec<u64> {
        self.metrics().shard_events
    }

    /// Serialize the session's complete live state into a versioned
    /// snapshot (see the `cogra-checkpoint` crate for the container
    /// format): queries (canonical text) and engine kinds, engine
    /// configuration, slack/workers/batch-size, every engine's partition
    /// and window state with watermarks and drain floors, and the
    /// `.slack(n)` reorder state — the events the reorder buffer has not
    /// released yet (everything it has released is in the engines),
    /// release points and the late-drop count. The shards' states are merged per
    /// query, so the snapshot is layout-independent:
    /// [`SessionBuilder::restore`] may re-shard it onto a different
    /// `.workers(n)` (elastic rescale).
    ///
    /// What is written is what the session holds: the partitions with a
    /// window still open (the others retired when their last window
    /// closed), so a restore reports the same [`Session::memory_bytes`].
    ///
    /// Checkpointing is non-destructive: no windows close, nothing is
    /// emitted, and the session continues unchanged. A finished session
    /// cannot checkpoint ([`CheckpointError::Unsupported`]).
    pub fn checkpoint(&mut self, writer: impl io::Write) -> Result<(), CheckpointError> {
        // Engine states + reorder payload first (one snapshot of the
        // pool), then the container is written in one pass: config,
        // reorder, one `q<i>` section per physical run.
        let state = self.pool.snapshot()?;

        let mut w = SnapshotWriter::new(writer)?;
        let mut enc = Enc::new();
        enc.usize(self.texts.len());
        for (text, kind) in self.texts.iter().zip(&self.kinds) {
            enc.str(text);
            enc.str(kind.name());
        }
        enc.str(self.kind.name());
        enc.opt_u64(self.config.flatten_cap.map(|c| c as u64));
        enc.opt_u64(self.pool.slack());
        enc.u64(self.workers() as u64);
        enc.u64(self.pool.batch_size as u64);
        enc.opt_u64(self.config.key_limit.map(u64::from));
        // Sharing map: physical slot per query. The `q<i>` sections below
        // are per PHYSICAL run.
        enc.usize(self.shared.queries());
        for &j in &self.shared.physical_of {
            enc.usize(j);
        }
        w.section("config", enc.as_slice())?;
        w.section("reorder", &state.save_reorder())?;
        for (i, engine) in state.states.iter().enumerate() {
            let mut enc = Enc::new();
            engine.save(&mut enc);
            w.section(&format!("q{i}"), enc.as_slice())?;
        }
        w.finish()
    }

    /// Run the whole stream through the session and collect everything:
    /// results (sorted per query), peak memory (sampled every 64 events at
    /// one worker — the benchmark harness samples every 64 *chunks* of
    /// events; at `n` workers each shard samples its own), workers used,
    /// routing stats, plans, and late-event drops.
    /// With `EngineConfig::key_limit` set, events past the limit are
    /// silently dropped here (the overflow stays observable through
    /// [`Session::key_overflow`] — it is [`Session::run_csv`] and
    /// [`Session::ingest_csv`] that fail typed).
    ///
    /// `events` is any stream of events or of references to them — a
    /// slice, a `Vec`, or a lazy source (a generator, a decoder) that is
    /// never materialized.
    pub fn run<E: Borrow<Event>>(mut self, events: impl IntoIterator<Item = E>) -> SessionRun {
        let mut run = Collect::new(&self, false);
        events
            .into_iter()
            .try_for_each(|event| run.step(&mut self, event.borrow()))
            .and_then(|()| run.finish(self))
            .unwrap_or_else(|_| unreachable!("in-memory streams cannot fail ingestion"))
    }

    /// [`Session::run`] straight off a `cogra_events::csv` stream: rows
    /// are decoded and ingested in one pass (the decode path shared with
    /// [`Session::ingest_csv`] and the CLI), never materializing the
    /// event vector. Without `.slack(n)`, a time-regressing row fails
    /// with [`IngestError::OutOfOrder`].
    pub fn run_csv(
        mut self,
        text: &str,
        registry: &TypeRegistry,
    ) -> Result<SessionRun, IngestError> {
        let mut run = Collect::new(&self, true);
        each_csv_event(text, registry, |event| run.step(&mut self, event))?;
        run.finish(self)
    }
}

/// The decode loop of [`Session::ingest_csv`] and [`Session::run_csv`]:
/// `each` sees every row through the one event the reader decodes into.
fn each_csv_event(
    text: &str,
    registry: &TypeRegistry,
    mut each: impl FnMut(&Event) -> Result<(), IngestError>,
) -> Result<(), IngestError> {
    let mut reader = EventReader::new(text, registry)?;
    let mut event = Event::new(0, 0, TypeId(0), Vec::new());
    while let Some(row) = reader.read_into(&mut event) {
        row?;
        each(&event)?;
    }
    Ok(())
}

/// The collect-everything loop shared by [`Session::run`] and
/// [`Session::run_csv`]: [`Collect::step`] per event, then
/// [`Collect::finish`]. `strict` makes a `key_limit` overflow
/// or a sticky worker failure fail typed (the CSV surface); the in-memory
/// surface passes `false` and stays infallible — the overflow remains
/// observable via [`Session::key_overflow`], while a worker failure panics
/// at the end of the run (a controlled diagnostic: the alternative is
/// silently returning empty results for a stream that was never
/// processed).
struct Collect {
    per_query: Vec<Vec<WindowResult>>,
    inline: bool,
    strict: bool,
    peak: usize,
}

impl Collect {
    fn new(session: &Session, strict: bool) -> Collect {
        Collect {
            per_query: vec![Vec::new(); session.queries()],
            inline: session.pool.is_inline(),
            strict,
            peak: session.memory_bytes(),
        }
    }

    fn step(&mut self, session: &mut Session, event: &Event) -> Result<(), IngestError> {
        if self.strict {
            session.ingest_checked(event)?;
        } else {
            session.process(event);
        }
        // The event's position in the session's stream.
        let i = session.events - 1;
        let per_query = &mut self.per_query;
        let mut sink = |query: usize, result: WindowResult| per_query[query].push(result);
        if self.inline {
            // This loop drives the inline shard, so it is the shard's one
            // peak sampler. The stride is part of what `peak_bytes` means
            // (a sample is cheap; moving the sites would move the reported
            // peak).
            session.drain_into(&mut sink);
            if i.is_multiple_of(64) {
                self.peak = self.peak.max(session.memory_bytes());
            }
        } else if i % 2048 == 2047 {
            // A drain of worker threads is a cross-thread round trip that
            // also flushes partial transport batches; amortize it over a
            // coarse stride instead of paying it per event. (The workers
            // sample their own peaks.) Emission timing is coarser, but the
            // collected result set is identical — asserted by the
            // drain-cadence invariance battery.
            session.drain_into(&mut sink);
        }
        Ok(())
    }

    fn finish(mut self, mut session: Session) -> Result<SessionRun, IngestError> {
        self.peak = self.peak.max(session.memory_bytes());
        let per_query = &mut self.per_query;
        session
            .finish_into(&mut |query: usize, result: WindowResult| per_query[query].push(result));
        // Under `.workers(n)` the per-row check reads the lanes' mirrors,
        // which only a drain or this finish refreshes: an overflow a shard
        // met since the last drain is seen here first.
        if let Some(limit) = session.key_overflow().filter(|_| self.strict) {
            return Err(IngestError::KeyOverflow { limit });
        }
        if let Some(failure) = session.worker_failure() {
            if self.strict {
                return Err(IngestError::WorkerFailed(failure.clone()));
            }
            // The infallible surface (`run`) has no error
            // channel; a controlled panic with the typed message beats
            // silently handing back empty results.
            panic!("{failure}");
        }
        for results in &mut self.per_query {
            WindowResult::sort(results);
        }
        let m = session.metrics();
        Ok(SessionRun {
            per_query: self.per_query,
            // The shards' own peaks: the samples above plus the engines'
            // finalization spikes inline; under `.workers(n)` what each
            // worker sampled over its hosted engines (the coordinator-side
            // samples above only mirror those with a lag).
            peak_bytes: self.peak.max(session.pool.peak()),
            workers: m.workers,
            events: m.events,
            late_events: m.late,
            stats: RunStats {
                key_probes: m.key_probes,
                key_allocs: m.key_allocs,
            },
            shard_events: m.shard_events,
            degraded: m.degraded,
            dropped_events: m.dropped,
            plans: session.plans.clone(),
            physical: m.physical,
        })
    }
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("kind", &self.kind)
            .field("queries", &self.queries())
            .field("slack", &self.pool.slack())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cogra_events::{EventBuilder, Value, ValueKind};
    use cogra_query::Granularity;

    fn registry() -> TypeRegistry {
        let mut r = TypeRegistry::new();
        for t in ["A", "B"] {
            r.register_type(t, vec![("g", ValueKind::Int), ("v", ValueKind::Int)]);
        }
        r
    }

    fn stream(reg: &TypeRegistry, n: usize) -> Vec<Event> {
        let a = reg.id_of("A").unwrap();
        let b = reg.id_of("B").unwrap();
        let mut builder = EventBuilder::new();
        (0..n)
            .map(|i| {
                builder.event(
                    (i + 1) as u64,
                    if i % 3 == 2 { b } else { a },
                    vec![Value::Int((i % 4) as i64), Value::Int(i as i64)],
                )
            })
            .collect()
    }

    const Q_ANY: &str = "RETURN g, COUNT(*) PATTERN SEQ(A+, B) SEMANTICS ANY \
                         GROUP-BY g WITHIN 10 SLIDE 5";
    const Q_NEXT: &str = "RETURN g, COUNT(*) PATTERN SEQ(A+, B) SEMANTICS NEXT \
                          GROUP-BY g WITHIN 10 SLIDE 5";
    const Q_NEXT_NO_GROUP: &str =
        "RETURN COUNT(*) PATTERN SEQ(A+, B) SEMANTICS NEXT WITHIN 10 SLIDE 5";

    #[test]
    fn roster_builds_every_supported_engine() {
        let reg = registry();
        let any = parse(Q_ANY).unwrap();
        let next = parse(Q_NEXT).unwrap();
        let cfg = EngineConfig::default();
        for kind in EngineKind::ALL {
            assert!(kind.build(&any, &reg, &cfg).is_ok(), "{kind} on ANY");
        }
        // Table 9: NEXT is COGRA/SASE/oracle-only.
        for kind in [EngineKind::Cogra, EngineKind::Sase, EngineKind::Oracle] {
            assert!(kind.build(&next, &reg, &cfg).is_ok(), "{kind} on NEXT");
        }
        for kind in [EngineKind::Greta, EngineKind::Aseq, EngineKind::Flink] {
            assert!(kind.build(&next, &reg, &cfg).is_err(), "{kind} on NEXT");
            assert!(!kind.supports(&next, &reg));
        }
    }

    #[test]
    fn kind_round_trips_through_names() {
        for kind in EngineKind::ALL {
            assert_eq!(kind.name().parse::<EngineKind>().unwrap(), kind);
        }
        assert!("spark".parse::<EngineKind>().is_err());
    }

    #[test]
    fn heterogeneous_kinds_run_each_query_on_its_engine() {
        let reg = registry();
        let session = Session::builder()
            .query(Q_ANY) // default kind: COGRA
            .query_with_engine(Q_NEXT, EngineKind::Sase)
            .query_with_engine(Q_ANY, EngineKind::Greta)
            .build(&reg)
            .unwrap();
        assert_eq!(session.query_kind(0), Some(EngineKind::Cogra));
        assert_eq!(session.query_kind(1), Some(EngineKind::Sase));
        assert_eq!(session.query_kind(2), Some(EngineKind::Greta));
        assert_eq!(session.engine(1).unwrap().name(), "sase");
        assert_eq!(session.engine(2).unwrap().name(), "greta");
    }

    #[test]
    fn per_query_kind_unsupported_by_query_is_attributed() {
        let reg = registry();
        // Table 9: GRETA cannot run NEXT — the error names query 1.
        let err = Session::builder()
            .query(Q_ANY)
            .query_with_engine(Q_NEXT, EngineKind::Greta)
            .build(&reg)
            .unwrap_err();
        assert!(
            matches!(err, SessionError::Query { query: 1, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn plans_expose_compiled_queries_without_recompiling() {
        let reg = registry();
        let session = Session::builder()
            .query(Q_ANY)
            .query(Q_NEXT_NO_GROUP)
            .build(&reg)
            .unwrap();
        assert_eq!(session.plans().len(), 2);
        assert_eq!(session.plan(0).unwrap().group_prefix, 1);
        assert_eq!(session.plan(1).unwrap().group_prefix, 0);
        assert_eq!(session.plan(0).unwrap().granularity(), Granularity::Type);
        assert!(session.plan(2).is_none());
        let run = session.run(stream(&reg, 20));
        assert_eq!(run.plans.len(), 2);
        assert_eq!(run.plans[1].granularity(), Granularity::Pattern);
    }

    #[test]
    fn workers_run_includes_previously_processed_events() {
        let reg = registry();
        let events = stream(&reg, 60);
        let (head, tail) = events.split_at(20);

        // One-worker reference over the whole stream.
        let expected = Session::builder()
            .query(Q_ANY)
            .build(&reg)
            .unwrap()
            .run(&events);

        // Workers session: part pushed via process(), rest via run() —
        // the shards must already hold the head of the stream.
        let mut sharded = Session::builder()
            .query(Q_ANY)
            .workers(4)
            .build(&reg)
            .unwrap();
        for e in head {
            sharded.process(e);
        }
        assert_eq!(sharded.watermark(), Timestamp(20), "head already routed");
        let run = sharded.run(tail);
        assert_eq!(run.per_query, expected.per_query);
    }

    #[test]
    fn builder_rejects_bad_configurations() {
        let reg = registry();
        assert_eq!(
            Session::builder().build(&reg).unwrap_err(),
            SessionError::NoQueries
        );
        assert!(matches!(
            Session::builder()
                .query(Q_ANY)
                .engine(EngineKind::Greta)
                .workers(2)
                .build(&reg)
                .unwrap_err(),
            SessionError::ParallelUnsupported(EngineKind::Greta)
        ));
        // A per-query kind that is not COGRA also blocks `.workers(n)`.
        assert!(matches!(
            Session::builder()
                .query(Q_ANY)
                .query_with_engine(Q_ANY, EngineKind::Sase)
                .workers(2)
                .build(&reg)
                .unwrap_err(),
            SessionError::ParallelUnsupported(EngineKind::Sase)
        ));
        assert!(matches!(
            Session::builder()
                .query(Q_NEXT)
                .engine(EngineKind::Greta)
                .build(&reg)
                .unwrap_err(),
            SessionError::Query { .. }
        ));
        assert!(matches!(
            Session::builder().query("NOT A QUERY").build(&reg),
            Err(SessionError::Query { .. })
        ));
        // One past the widest pool: refused typed, before any thread.
        let too_wide = Session::builder()
            .query(Q_ANY)
            .workers(MAX_WORKERS + 1)
            .build(&reg)
            .unwrap_err();
        assert_eq!(
            too_wide,
            SessionError::TooManyWorkers {
                requested: MAX_WORKERS + 1
            }
        );
        assert!(too_wide.to_string().contains("at most 1024"), "{too_wide}");
    }

    #[test]
    fn checkpoint_restore_shared_roster_re_derives_fan_out() {
        // A duplicate roster snapshots its shared runtime ONCE; restore
        // re-derives the per-query fan-out from the stored sharing map.
        let reg = registry();
        let events = stream(&reg, 40);
        let mut session = Session::builder()
            .query(Q_ANY)
            .query(Q_ANY)
            .query(Q_NEXT)
            .build(&reg)
            .unwrap();
        for e in &events[..17] {
            session.process(e);
        }
        let mut snap = Vec::new();
        session.checkpoint(&mut snap).unwrap();
        let restored = Session::builder().restore(&reg, snap.as_slice()).unwrap();
        assert_eq!(restored.queries(), 3);
        assert_eq!(restored.shared_plan().physical(), 2);
        assert_eq!(restored.shared_plan().members, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn checkpoint_after_finish_is_unsupported() {
        let reg = registry();
        let mut session = Session::builder().query(Q_ANY).build(&reg).unwrap();
        session.finish();
        let err = session.checkpoint(Vec::new()).unwrap_err();
        assert!(matches!(err, CheckpointError::Unsupported(_)), "{err}");
    }

    #[test]
    fn restore_rejects_builder_overrides() {
        let reg = registry();
        let mut snap = Vec::new();
        Session::builder()
            .query(Q_ANY)
            .build(&reg)
            .unwrap()
            .checkpoint(&mut snap)
            .unwrap();
        for builder in [
            Session::builder().query(Q_ANY),
            Session::builder().engine(EngineKind::Sase),
            Session::builder().slack(3),
            Session::builder().config(EngineConfig {
                key_limit: Some(1),
                ..EngineConfig::default()
            }),
        ] {
            let err = builder.restore(&reg, snap.as_slice()).unwrap_err();
            assert!(matches!(err, CheckpointError::Unsupported(_)), "{err}");
        }
        // .workers / .batch_size ARE legal overrides.
        assert!(Session::builder()
            .workers(2)
            .batch_size(64)
            .restore(&reg, snap.as_slice())
            .is_ok());
    }

    #[test]
    fn restore_rejects_corrupt_snapshots() {
        let reg = registry();
        let mut snap = Vec::new();
        Session::builder()
            .query(Q_ANY)
            .build(&reg)
            .unwrap()
            .checkpoint(&mut snap)
            .unwrap();

        // Truncation mid-stream.
        let err = Session::builder()
            .restore(&reg, &snap[..snap.len() - 3])
            .unwrap_err();
        assert!(
            matches!(err, CheckpointError::Truncated | CheckpointError::Io(_)),
            "{err}"
        );

        // Bad magic.
        let mut bad = snap.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            Session::builder()
                .restore(&reg, bad.as_slice())
                .unwrap_err(),
            CheckpointError::BadMagic
        ));

        // Flipped payload byte → per-section CRC mismatch.
        let mut bad = snap.clone();
        let mid = snap.len() / 2;
        bad[mid] ^= 0xFF;
        let err = Session::builder()
            .restore(&reg, bad.as_slice())
            .unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::Checksum { .. } | CheckpointError::Corrupt(_)
            ),
            "{err}"
        );
    }

    #[test]
    fn one_worker_sessions_run_inline_built_or_restored() {
        // Width 1 never spawns a thread or opens a channel: the pool holds
        // its one shard by value — whatever the engine kind, with or
        // without slack, and however wide the snapshot it resumes from.
        let reg = registry();
        let events = stream(&reg, 40);
        for kind in EngineKind::ALL {
            for slack in [None, Some(3)] {
                let mut builder = Session::builder().query(Q_ANY).engine(kind);
                if let Some(slack) = slack {
                    builder = builder.slack(slack);
                }
                let session = builder.build(&reg).unwrap();
                assert!(session.pool.is_inline(), "{kind} slack={slack:?}");
                assert_eq!(session.workers(), 1);
            }
        }

        let mut wide = Session::builder()
            .query(Q_ANY)
            .workers(4)
            .slack(8)
            .build(&reg)
            .unwrap();
        assert!(!wide.pool.is_inline());
        for e in &events[..25] {
            wide.process(e);
        }
        let mut snap = Vec::new();
        wide.checkpoint(&mut snap).unwrap();
        let restored = Session::builder()
            .workers(1)
            .restore(&reg, snap.as_slice())
            .unwrap();
        assert!(restored.pool.is_inline(), "a .workers(1) restore is inline");
        assert_eq!(restored.workers(), 1);
    }

    #[test]
    fn memory_is_summed_and_watermark_is_min() {
        let reg = registry();
        let events = stream(&reg, 5);
        let fed = |queries: &[&str]| {
            let mut builder = Session::builder();
            for &query in queries {
                builder = builder.query(query);
            }
            let mut session = builder.build(&reg).unwrap();
            events.iter().for_each(|e| session.process(e));
            session
        };
        let alone = |query: &str| fed(&[query]).memory_bytes();
        let session = fed(&[Q_ANY, Q_NEXT]);
        assert_eq!(session.memory_bytes(), alone(Q_ANY) + alone(Q_NEXT));
        assert_eq!(session.watermark(), Timestamp(5));
        assert_eq!(session.queries(), 2);
        assert_eq!(session.engine(0).unwrap().name(), "cogra");

        // A duplicate roster runs ONE physical automaton: memory is the
        // single-query footprint, and so are the routing counters.
        let shared = fed(&[Q_ANY, Q_ANY]);
        assert_eq!(shared.shared_plan().physical(), 1);
        assert_eq!(shared.memory_bytes(), alone(Q_ANY));
        assert_eq!(shared.run_stats(), fed(&[Q_ANY]).run_stats());
    }

    #[test]
    fn shared_plan_factors_by_signature_and_kind() {
        // Same query modulo variable renaming → same slot; different
        // predicate constant or engine kind → separate slots.
        let keys = vec![
            "cogra\u{1f}Q1".to_string(),
            "cogra\u{1f}Q2".to_string(),
            "cogra\u{1f}Q1".to_string(),
            "greta\u{1f}Q1".to_string(),
            "cogra\u{1f}Q2".to_string(),
        ];
        let plan = SharedPlan::factor(&keys);
        assert_eq!(plan.physical_of, vec![0, 1, 0, 2, 1]);
        assert_eq!(plan.members, vec![vec![0, 2], vec![1, 4], vec![3]]);
        assert_eq!(plan.queries(), 5);
        assert_eq!(plan.physical(), 3);
    }

    #[test]
    fn sharing_respects_engine_kind_boundaries() {
        let reg = registry();
        let session = Session::builder()
            .query(Q_ANY) // default kind: COGRA
            .query_with_engine(Q_ANY, EngineKind::Greta)
            .build(&reg)
            .unwrap();
        assert_eq!(
            session.shared_plan().physical(),
            2,
            "kinds differ → no sharing"
        );
        assert_eq!(session.engine(0).unwrap().name(), "cogra");
        assert_eq!(session.engine(1).unwrap().name(), "greta");
    }
}
