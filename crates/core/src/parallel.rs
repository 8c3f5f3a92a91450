//! One pool of shards hosts every engine of a session (§7/§8).
//!
//! "Equivalence predicates and the GROUP-BY clause partition the stream
//! into sub-streams that are processed in parallel independently from
//! each other. Such stream partitioning enables a highly scalable
//! execution." Events within one sub-stream are processed in time order
//! by a single shard, which is exactly the stream-transaction ordering
//! guarantee §8 requires — so one worker and n workers are the same
//! computation over a different number of shards, not two architectures.
//!
//! Sharding is by the *output group* (the `GROUP-BY` prefix of the
//! partition key), so every partition contributing to one result group
//! lands on the same shard and no cross-shard aggregate merging is
//! needed. A query without `GROUP-BY` cannot shard (there is nothing to
//! partition results by) and is pinned to one shard instead.
//!
//! A `Shard` — one engine per hosted query, plus a private
//! [`ReorderBuffer`] under `.slack(n)` — is the only thing that ever
//! hosts engines, and the [`StreamingPool`] is the only thing that drives
//! shards. Its effective width picks the transport, nothing else:
//! * **width 1** — the one shard is held by value and driven on the
//!   caller's thread, by reference: no thread, no channel, no staging, no
//!   event clone and no placement hash;
//! * **width n ≥ 2** — one long-lived worker thread per shard, fed by a
//!   bounded channel carrying **batch arenas** (`Batch`): per shard, the
//!   coordinator copies of each routed event what the hosted plans read
//!   (`Projection`: the union of their read-sets) once into the open
//!   batch — a row header plus those values appended to one contiguous
//!   buffer — and appends one `(row, query, key hash)` route per query
//!   that wants it there. The worker replays the routes through one
//!   scratch `Event` per type, blank outside the read-set, and the
//!   coordinator, which keeps a handle to every shipped batch, reopens a
//!   batch as soon as the worker has dropped its own. Steady state
//!   allocates nothing per routed event on either thread, no memory
//!   allocated on one thread is freed on another, and both ends of a
//!   hand-off poll before they park ([`recv_polling`]).
//!   Watermark broadcasts make a drain emit every result that is globally
//!   final — even on shards whose sub-stream went quiet — and the workers
//!   are supervised per [`FailurePolicy`].
//!
//! Disorder repair has one design at every width: a pool-side [`LateGate`]
//! decides admission from time stamps alone (exactly the drops a single
//! front `Reorderer` would make) and each shard sorts what was admitted
//! for it.

use crate::engine::TrendEngine;
use crate::metrics::Metrics;
use crate::output::WindowResult;
use crate::runtime::QueryRuntime;
use crate::session::{EngineKind, OpenError, SessionError};
use cogra_checkpoint::CheckpointError;
use cogra_engine::{entry_group_hash, RouterState, RunStats};
use cogra_events::{AttrId, Event, EventId, LateGate, ReorderBuffer, Timestamp, TypeId, Value};
use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, RecvError, Sender, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A fault-injection site, named by a format string. With the `faults`
/// feature it records a hit at the site and, when the schedule fires it,
/// yields the pinned message `injected fault at <site>`; without the
/// feature it is `None` and costs nothing (the arguments only count as
/// used).
#[cfg(feature = "faults")]
macro_rules! probe {
    ($($site:tt)+) => {{
        let site = format!($($site)+);
        cogra_faults::fired(&site).then(|| format!("injected fault at {site}"))
    }};
}
#[cfg(not(feature = "faults"))]
macro_rules! probe {
    ($($site:tt)+) => {{
        let _ = format_args!($($site)+);
        None::<String>
    }};
}

/// Shard index of a group-prefix hash — THE placement rule, shared by live
/// routing ([`StreamingPool::place`]) and the re-sharding of a restored
/// snapshot ([`reshard`]), kept in one place so the two cannot disagree.
fn shard_index(group_hash: u64, shards: usize) -> usize {
    (group_hash % shards as u64) as usize
}

/// How many shards a query can use: the requested worker count, unless
/// the query has no `GROUP-BY` prefix to shard on.
fn effective_workers(rt: &QueryRuntime, requested: usize) -> usize {
    if rt.query.group_prefix == 0 {
        1
    } else {
        requested.max(1)
    }
}

/// Whether shard `index` of `threads` hosts query `q`: every shard hosts
/// a shardable query; one without a `GROUP-BY` prefix is pinned to shard
/// `q % threads`, so even a session of unshardable queries spreads across
/// the pool.
fn hosts(rt: &QueryRuntime, q: usize, threads: usize, index: usize) -> bool {
    rt.query.group_prefix > 0 || q % threads == index
}

/// What the coordinator does when a shard worker dies (panics or exits
/// without being asked). Set via `SessionBuilder::on_worker_failure`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Surface a sticky, typed [`WorkerFailure`]: the pool stops
    /// accepting events and emits nothing further. The default — a
    /// correctness-first caller wants the loud error, not partial data.
    #[default]
    Fail,
    /// Quarantine the dead shard and keep serving: its accumulated state
    /// and in-flight events are counted as dropped, future events for its
    /// groups reroute to the next live shard (fresh state), and the run
    /// reports which shards degraded. Availability over completeness —
    /// nothing is lost *silently*.
    Degrade,
    /// Respawn the shard from its last per-shard recovery baseline (the
    /// state captured at the previous drain) and replay the journaled
    /// events delivered since, then retry the interrupted command. The
    /// merged output is byte-identical to a run without the failure
    /// (asserted by `tests/chaos_props.rs`). Costs a per-shard state
    /// snapshot on every drain and an event journal between drains.
    Restart,
}

/// A shard worker died. Under [`FailurePolicy::Fail`] this is the sticky
/// terminal error of the pool (surfaced as `IngestError::WorkerFailed`
/// through the session); under the other policies it is recovered
/// internally and only shows up in degraded-status reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFailure {
    /// Which shard died.
    pub shard: usize,
    /// The panic payload (or a generic message when the worker exited
    /// without one).
    pub message: String,
}

impl std::fmt::Display for WorkerFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard {} worker failed: {}", self.shard, self.message)
    }
}

/// Transport tuning of a [`StreamingPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Routed items — `(event, query)` pairs — staged per shard before
    /// its open batch is shipped. Staged items also flush on every
    /// drain/finish (and thus on every watermark broadcast), so the batch
    /// size bounds transport latency, never result completeness. 1
    /// degenerates to per-item sends. Unused at width 1 — there is no
    /// transport.
    pub batch_size: usize,
    /// Repair up to this many ticks of disorder *per shard*: each shard
    /// owns a [`ReorderBuffer`] over its own sub-stream while the pool's
    /// [`LateGate`] keeps late-drop decisions identical to one
    /// stream-wide front reorderer.
    pub slack: Option<u64>,
    /// Recovery behavior when a shard worker dies (width ≥ 2 only — the
    /// inline shard has no worker to supervise).
    pub policy: FailurePolicy,
}

/// The default shard-transport batch size: big enough to amortize a
/// bounded-channel hand-off over hundreds of events, small enough that a
/// batch stays well inside a worker's cache while it drains it — and that
/// a caller draining every couple of thousand events has handed most of
/// them over before it asks (on `stock-2w`, 2048 events a drain, 256 ran
/// ahead of 512 in 6 of 6 alternating pairs and of 128 in 5 of 6).
pub const DEFAULT_BATCH_SIZE: usize = 256;

/// The widest pool that will be opened. Every shard is an OS thread with
/// its own stack and engines, so a width far beyond any core count is a
/// typo or an attack, not a configuration: asking for more is refused
/// with [`SessionError::TooManyWorkers`] before any thread is created.
/// Fixed, not configurable.
pub const MAX_WORKERS: usize = 1024;

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            batch_size: DEFAULT_BATCH_SIZE,
            slack: None,
            policy: FailurePolicy::Fail,
        }
    }
}

/// One physical run a pool hosts: its engine kind and the compiled
/// runtime every shard's engine for it shares.
pub(crate) type Hosted = (EngineKind, Arc<QueryRuntime>);

/// A hosted engine of any [`EngineKind`]; `Send` so its shard can move
/// onto a worker thread.
pub(crate) type Engine = Box<dyn TrendEngine + Send>;

/// A pool's live state, layout-independent: what
/// [`StreamingPool::snapshot`] captures and a pool opened over it resumes
/// from — at any width.
pub struct PoolState {
    /// Per-query engine states, merged across shards.
    pub states: Vec<RouterState>,
    /// The in-flight items the shard reorder buffers hold.
    pub buffered: Vec<InFlight>,
    /// Events admitted so far: the arrival stamp of the latest one.
    pub arrivals: u64,
    /// The admission gate, verbatim (`None`: no slack).
    pub gate: Option<LateGate>,
    /// The raw stream clock (largest routed event time) — the admission
    /// floor when there is no gate.
    pub clock: Timestamp,
}

impl PoolState {
    /// Whether every engine state's clock ([`Frame::clock`]) is at or
    /// before the admission floor. An engine cannot have been handed an
    /// event the pool had not admitted; a state that says so is another
    /// session's, and an event between the two clocks would probe a ring
    /// [`Router::from_state`] never checked for it.
    ///
    /// [`Frame::clock`]: cogra_engine::Frame::clock
    /// [`Router::from_state`]: cogra_engine::Router::from_state
    fn check_clocks(&self) -> Result<(), CheckpointError> {
        let floor = self.admission_floor();
        for (q, state) in self.states.iter().enumerate() {
            if state.frame.clock > floor {
                return Err(CheckpointError::Corrupt(format!(
                    "engine state {q} had reached {}, past the stream clock {floor}",
                    state.frame.clock
                )));
            }
        }
        Ok(())
    }

    /// The time no event to come is earlier than, and no event an engine
    /// was handed is later than: the gate's safe watermark — a shard
    /// releases nothing past it — or without slack the stream clock.
    fn admission_floor(&self) -> Timestamp {
        match &self.gate {
            Some(gate) => gate.safe_watermark(),
            None => self.clock,
        }
    }
}

/// One event a shard's reorder buffer holds for one query, as a snapshot
/// carries it.
#[derive(Debug, Clone)]
pub struct InFlight {
    /// Index of the physical run the event is for.
    pub query: u32,
    /// The event's arrival stamp: its position among the events the
    /// session admitted. Events of one time stamp are released in stamp
    /// order — arrival order, which NEXT/CONT make observable.
    pub stamp: u64,
    /// The event.
    pub event: Event,
}

/// One shard's counters: the `Shard` fills it, a worker's `Reply`
/// carries it whole, the coordinator mirrors it whole, and
/// [`StreamingPool::metrics`] folds every shard's into the pool's part of
/// a [`Metrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ShardMetrics {
    /// Summed logical memory of the shard's engines.
    memory: usize,
    /// Largest memory sampled so far by whoever drives the shard (a
    /// worker thread: every 64 events and at every batch, drain and
    /// finish; the inline shard: its caller), plus the engines'
    /// finalization spikes once finished.
    peak: usize,
    /// Routing hot-path counters over the shard's engines.
    stats: RunStats,
    /// Sticky key-limit overflow across the shard's engines
    /// ([`TrendEngine::key_overflow`]).
    key_overflow: Option<u32>,
    /// Events ingested into the shard's engines.
    events: u64,
}

/// One placed event a shard's [`ReorderBuffer`] holds under `.slack(n)`:
/// the event, the index of the query it is for, and its precomputed full
/// partition-key hash (`None`: the event's type has no partition key; the
/// engine drops it itself, exactly like a sequential run). Only the
/// reorder buffer owns events; the transport carries [`Batch`]es.
struct Item {
    event: Event,
    query: u32,
    key_hash: Option<u64>,
    /// [`InFlight::stamp`].
    stamp: u64,
}

/// What a pool's engines read of an event, and what stands in for the
/// rest: per type, the union of the hosted plans' read-sets
/// ([`QueryRuntime::read_set`]) and the type's blank row. Only the
/// read-set travels to a worker, and every event a shard *owns* — a
/// reorder buffer's, at any width — is the blank row with the read-set
/// written over it, so a snapshot's in-flight events are the same bytes
/// whichever width took it.
struct Projection {
    /// Per type: the attributes any hosted plan reads, ascending.
    reads: Vec<Vec<AttrId>>,
    /// Per type: [`QueryRuntime::blank_rows`].
    blank: Vec<Vec<Value>>,
}

impl Projection {
    fn of(hosted: &[Hosted]) -> Projection {
        // One registry compiled every hosted plan: any runtime's blanks do.
        let blank = hosted[0].1.blank_rows.clone();
        let reads = (0..blank.len())
            .map(|t| {
                let mut union: Vec<AttrId> = hosted
                    .iter()
                    .flat_map(|(_, rt)| rt.read_set[t].iter().copied())
                    .collect();
                union.sort_unstable_by_key(|a| a.0);
                union.dedup();
                union
            })
            .collect();
        Projection { reads, blank }
    }

    /// What is read of `event`, in read-set order.
    fn read<'a>(&'a self, event: &'a Event) -> impl Iterator<Item = &'a Value> {
        let reads = &self.reads[event.type_id.index()];
        reads.iter().map(|a| event.attr(*a))
    }

    /// THE projection: write `read` — values in `type_id`'s read-set
    /// order — over the read slots of `attrs`, a row of the type.
    fn scatter<'a>(
        &self,
        type_id: TypeId,
        read: impl Iterator<Item = &'a Value>,
        attrs: &mut [Value],
    ) {
        for (a, v) in self.reads[type_id.index()].iter().zip(read) {
            attrs[a.index()].clone_from(v);
        }
    }

    /// An owned event of `read`: the type's blank row, projected onto.
    fn event<'a>(
        &self,
        id: EventId,
        time: Timestamp,
        type_id: TypeId,
        read: impl Iterator<Item = &'a Value>,
    ) -> Event {
        let mut attrs = self.blank[type_id.index()].clone();
        self.scatter(type_id, read, &mut attrs);
        Event::new(id, time, type_id, attrs)
    }

    /// `event` as a shard may own it.
    fn owned(&self, event: &Event) -> Event {
        self.event(event.id, event.time, event.type_id, self.read(event))
    }

    /// A worker's scratch events: per type, one blank event for
    /// [`Batch::load`] to write rows of that type into.
    fn scratch(&self) -> Vec<Event> {
        let blank =
            |(t, row): (usize, &Vec<Value>)| Event::new(0, 0, TypeId(t as u32), row.clone());
        self.blank.iter().enumerate().map(blank).collect()
    }
}

/// One event of a [`Batch`]: an [`Event`] minus its attribute values; the
/// ones that are read ([`Projection::read`]) end at `attrs_end` in the
/// batch's shared buffer (and start where the previous row's end).
struct Row {
    id: EventId,
    time: Timestamp,
    type_id: TypeId,
    attrs_end: usize,
    /// [`InFlight::stamp`].
    stamp: u64,
}

/// One routed item of a [`Batch`]: row `row` is for query `query`, whose
/// full partition-key hash of it is `key_hash` (see [`Item`]).
struct Route {
    row: usize,
    query: u32,
    key_hash: Option<u64>,
}

/// The unit of shard transport: a slice of one shard's sub-stream as an
/// arena. Every event is stored once — a [`Row`] plus the attribute
/// values the pool reads appended to the one `attrs` buffer — however
/// many of the shard's queries want it; `routes` lists the `(row, query)`
/// items in global routing order, and is what a worker replays. Staging
/// an event is therefore three `Vec` appends into retained capacity: no
/// `Event` is cloned and nothing is allocated once a batch has been
/// through one fill.
#[derive(Default)]
struct Batch {
    rows: Vec<Row>,
    attrs: Vec<Value>,
    routes: Vec<Route>,
}

impl Batch {
    /// Empty the batch, keeping its capacity.
    fn clear(&mut self) {
        self.rows.clear();
        self.attrs.clear();
        self.routes.clear();
    }

    /// Append `event`, admitted as number `stamp`, as the batch's last row.
    fn push_row(&mut self, event: &Event, stamp: u64, projection: &Projection) {
        self.attrs.extend(projection.read(event).cloned());
        self.rows.push(Row {
            id: event.id,
            time: event.time,
            type_id: event.type_id,
            attrs_end: self.attrs.len(),
            stamp,
        });
    }

    /// Route the last row to `query`.
    fn push_route(&mut self, query: u32, key_hash: Option<u64>) {
        let row = self.rows.len() - 1;
        self.routes.push(Route {
            row,
            query,
            key_hash,
        });
    }

    fn attrs_of(&self, row: usize) -> &[Value] {
        let start = row
            .checked_sub(1)
            .map_or(0, |prev| self.rows[prev].attrs_end);
        &self.attrs[start..self.rows[row].attrs_end]
    }

    /// Load row `row` into its type's scratch event ([`Projection::scratch`]),
    /// which is returned: only the read slots are written, the others
    /// stay blank.
    fn load<'s>(&self, row: usize, projection: &Projection, scratch: &'s mut [Event]) -> &'s Event {
        let header = &self.rows[row];
        let event = &mut scratch[header.type_id.index()];
        event.id = header.id;
        event.time = header.time;
        projection.scatter(header.type_id, self.attrs_of(row).iter(), &mut event.attrs);
        event
    }

    /// Row `row` as an owned event, for a shard's reorder buffer.
    fn event(&self, row: usize, projection: &Projection) -> Event {
        let header = &self.rows[row];
        projection.event(
            header.id,
            header.time,
            header.type_id,
            self.attrs_of(row).iter(),
        )
    }
}

/// Commands the coordinator sends down a worker's bounded channel.
#[derive(Clone)]
enum Cmd {
    /// The next slice of this shard's sub-stream. The coordinator keeps a
    /// second handle (see [`Lane::shipped`]); the worker only reads.
    Batch(Arc<Batch>),
    /// Advance to the given safe watermark and emit everything now final.
    Drain(Timestamp),
    /// Serialize every hosted engine and the reorder buffer's in-flight
    /// items, without advancing or emitting anything — the pool stays
    /// live after a snapshot.
    Snapshot,
    /// End of stream: close every open window, report, and exit.
    Finish,
}

/// The coordinator's side of one shard's transport.
#[derive(Default)]
struct Lane {
    /// The open batch: what was staged for the shard since the last ship.
    open: Batch,
    /// [`StreamingPool::seq`] of the event that is `open`'s last row (0:
    /// none), so an event several queries want on this shard is stored
    /// once.
    last_seq: u64,
    /// A handle to every shipped batch not yet reclaimed, oldest first:
    /// the ones the worker has not finished, and — under
    /// [`FailurePolicy::Restart`] — the journal of everything delivered
    /// since the shard's recovery baseline, whose replay reproduces the
    /// dead shard exactly (nothing was emitted since the baseline: results
    /// only leave a shard at drains, and every drain refreshes it).
    shipped: VecDeque<Arc<Batch>>,
    /// Reclaimed batches, cleared but capacitated, for `ship` to reopen.
    spare: Vec<Batch>,
}

impl Lane {
    /// Move every shipped batch the worker is done with — it drops its
    /// handle after the last route, and consumes in order — to `spare`.
    fn reclaim(&mut self) {
        while let Some(batch) = self.shipped.pop_front() {
            match Arc::try_unwrap(batch) {
                Ok(mut batch) => {
                    batch.clear();
                    // More than a full channel of spares is a journal's
                    // worth retired at once; let the surplus go.
                    if self.spare.len() <= CHANNEL_CAPACITY {
                        self.spare.push(batch);
                    }
                }
                Err(busy) => {
                    self.shipped.push_front(busy);
                    return;
                }
            }
        }
    }

    /// Forget everything staged and shipped (the shard is gone).
    fn clear(&mut self) {
        self.open.clear();
        self.last_seq = 0;
        self.shipped.clear();
    }
}

/// One shard's contribution to a pool snapshot — also the per-shard
/// recovery baseline under [`FailurePolicy::Restart`].
#[derive(Clone)]
struct ShardSnapshot {
    /// Per query: the hosted engine's state (`None` where not hosted).
    states: Vec<Option<RouterState>>,
    /// In-flight items still in the shard's reorder buffer, in release
    /// order.
    buffered: Vec<InFlight>,
    /// The shard's ingest counter at snapshot time, so a respawned shard
    /// resumes its accounting instead of restarting from zero.
    events: u64,
}

/// A worker's answer to [`Cmd::Drain`] / [`Cmd::Snapshot`] / [`Cmd::Finish`].
#[derive(Default)]
struct Reply {
    /// Results finalized since the previous drain, tagged with their
    /// query index.
    results: Vec<(u32, WindowResult)>,
    /// The shard's counters as of this reply.
    metrics: ShardMetrics,
    /// Engine + reorder-buffer state: in reply to [`Cmd::Snapshot`], and
    /// attached to every [`Cmd::Drain`] reply when the pool journals for
    /// [`FailurePolicy::Restart`] (the recovery baseline refresh).
    snapshot: Option<ShardSnapshot>,
    /// Set when the worker body panicked: the supervisor wrapper caught
    /// the unwind and reports the payload in-band instead of re-raising.
    failure: Option<String>,
}

struct Worker {
    /// `None` once the pool has finished (dropping it closes the channel).
    tx: Option<SyncSender<Cmd>>,
    rx: Receiver<Reply>,
    thread: Option<JoinHandle<()>>,
    /// Quarantined by [`FailurePolicy::Degrade`]: the shard is dead and
    /// stays dead; its groups reroute to the next live shard.
    quarantined: bool,
    /// The worker's last reported counters, so [`StreamingPool::metrics`]
    /// needs no synchronous round trip.
    mirror: ShardMetrics,
}

/// A respawned shard that dies this many times is escalated to
/// [`FailurePolicy::Fail`] — a deterministic crash would otherwise
/// restart-loop forever.
const MAX_RESTARTS: u32 = 8;

/// Backpressure bound, in batches: a worker that falls this many batches
/// behind blocks ingestion instead of buffering without limit.
const CHANNEL_CAPACITY: usize = 16;

/// How long a receive polls its channel before it parks the thread. A
/// saturated pool hands a batch over every few tens of microseconds, and
/// parking for that long costs more than the wait: a futex sleep, the
/// sender's wake-up call, and a halted vCPU coming back. Long enough to
/// bridge the gap between two batches or a drain's round trip, short
/// enough that an idle pool burns nothing a scheduler tick would notice.
/// A constant, not a knob: the right value follows the cost of a
/// sleep/wake pair on the host, which no caller knows better.
const POLL_BUDGET: Duration = Duration::from_micros(50);

/// Polls between two `yield_now`s while [`POLL_BUDGET`] lasts — on a host
/// with fewer cores than threads the sender may be the thread waiting for
/// this core.
const POLLS_PER_YIELD: u32 = 16;

/// `rx.recv()` that polls before it parks — every blocking receive of the
/// transport (a worker's next command, the coordinator's next reply) and,
/// in front of a served session, the server actor's next request.
pub fn recv_polling<T>(rx: &Receiver<T>) -> Result<T, RecvError> {
    let mut polling_since = None;
    loop {
        for _ in 0..POLLS_PER_YIELD {
            match rx.try_recv() {
                Ok(message) => return Ok(message),
                Err(TryRecvError::Disconnected) => return Err(RecvError),
                Err(TryRecvError::Empty) => std::hint::spin_loop(),
            }
        }
        if polling_since.get_or_insert_with(Instant::now).elapsed() >= POLL_BUDGET {
            return rx.recv();
        }
        std::thread::yield_now();
    }
}

/// Live §8 sharded execution, shared across a whole session's queries:
/// every `Shard` hosts one engine per query it serves, and the pool
/// drives either the one inline shard or `n ≥ 2` worker threads (see the
/// module docs).
///
/// * **Shared pool** — one pool serves every query of a session: an
///   event is hashed per query (the `GROUP-BY`-prefix hash) and staged
///   once per target shard. A query without
///   a `GROUP-BY` prefix cannot shard; it is pinned to the shard
///   `query % width`.
/// * **Batch-arena transport** (width ≥ 2) — an event is copied once
///   into the open batch of each shard that wants it, with one route
///   per wanting query; a batch ships once it holds
///   [`PoolConfig::batch_size`] routes and on every drain/finish, so
///   batching changes hand-off cost, never the result set. Consumed
///   batches are reopened, not reallocated.
/// * **Per-shard reorderers** — with [`PoolConfig::slack`], each shard
///   repairs its own sub-stream through a private [`ReorderBuffer`]. The
///   pool's [`LateGate`] makes the admission decision from time stamps
///   alone, so late-drop counts equal a single front [`Reorderer`]'s
///   exactly, at every width.
/// * **Watermark broadcasts** — [`StreamingPool::drain_into`] hands every
///   shard the safe watermark before collecting: every window that closed
///   globally is emitted, even on a shard whose sub-stream went quiet.
///
/// The merged output equals each query run alone on one inline shard —
/// asserted by the model battery (`tests/common/model.rs`) across widths ×
/// chunkings × batch sizes.
///
/// [`Reorderer`]: cogra_events::Reorderer
pub struct StreamingPool {
    hosted: Vec<Hosted>,
    /// What of an event the hosted plans read: all a worker is sent, and
    /// all a reorder buffer keeps.
    projection: Arc<Projection>,
    /// Width 1: THE shard, driven on the caller's thread. Exactly one of
    /// `inline` and `workers` is populated.
    inline: Option<Box<Shard>>,
    /// Width n ≥ 2: one worker thread per shard. Everything below down to
    /// `dropped` is their coordinator's bookkeeping, idle at width 1.
    workers: Vec<Worker>,
    /// Per-shard transport state: open batch, shipped handles, spares.
    lanes: Vec<Lane>,
    batch_size: usize,
    /// Recovery behavior when a shard worker dies.
    policy: FailurePolicy,
    /// Per-shard recovery baselines ([`FailurePolicy::Restart`] only): the
    /// state captured at the last drain/snapshot. The journal since is the
    /// shard's [`Lane::shipped`].
    recovery: Option<Vec<ShardSnapshot>>,
    /// Restarts performed per shard, for the [`MAX_RESTARTS`] escalation.
    restarts: Vec<u32>,
    /// The sticky terminal failure ([`FailurePolicy::Fail`] or escalation).
    failed: Option<WorkerFailure>,
    /// Items staged per shard since pool start (delivered or in flight);
    /// frozen at 0 when a shard is quarantined.
    delivered: Vec<u64>,
    /// Every item staged across the pool, including ones later dropped.
    routed_items: u64,
    /// Items lost to quarantined shards ([`FailurePolicy::Degrade`]).
    dropped: u64,
    /// Admission gate under slack (None: the stream is trusted ordered).
    gate: Option<LateGate>,
    /// Raw stream progress: the largest event time routed so far.
    raw_watermark: Timestamp,
    /// Events admitted so far — the latest one's arrival stamp
    /// ([`InFlight::stamp`]); also stamps [`Lane::last_seq`].
    seq: u64,
    /// Reusable round-trip scratch: which shards took the broadcast, and
    /// the replies' results per query.
    sent: Vec<bool>,
    merged: Vec<Vec<WindowResult>>,
    finished: bool,
}

impl StreamingPool {
    /// A fresh COGRA pool for a session's compiled queries. The width is
    /// `workers` when any query can shard, at most one shard per query
    /// otherwise; width 1 is driven inline on the caller's thread. Fails
    /// like [`crate::session::SessionBuilder::build`] does on a width the
    /// pool refuses or the OS cannot staff.
    pub fn new(
        runtimes: Vec<Arc<QueryRuntime>>,
        workers: usize,
        config: PoolConfig,
    ) -> Result<Self, SessionError> {
        let hosted = runtimes
            .into_iter()
            .map(|rt| (EngineKind::Cogra, rt))
            .collect();
        Self::open(hosted, workers, config, None).map_err(|e| match e {
            OpenError::Session(e) => e,
            OpenError::State(e) => unreachable!("fresh engines have no state to reject: {e}"),
        })
    }

    /// Open a pool over `hosted`, fresh or — with `resume` — from
    /// checkpointed state.
    ///
    /// The width is `workers` when any query can shard; a session of only
    /// unshardable (no `GROUP-BY`) queries clamps to one shard per query
    /// at most, since each such query is pinned anyway. Width 1 is driven
    /// inline and hosts any [`EngineKind`]; wider pools spawn one thread
    /// per shard (the session admits only COGRA there).
    ///
    /// A resumed pool may have a *different* width than the snapshotting
    /// one: each query's partition entries are re-sharded by replaying the
    /// same `GROUP-BY`-prefix hash live routing uses, so the new layout is
    /// exactly what fresh shards fed the same stream would hold, and the
    /// in-flight reorder-buffer items are re-delivered past the (verbatim
    /// restored) admission gate.
    ///
    /// More than [`MAX_WORKERS`] requested workers are refused before
    /// anything is built; a thread the OS refuses to start fails the open
    /// after joining the shards already started.
    pub(crate) fn open(
        hosted: Vec<Hosted>,
        workers: usize,
        config: PoolConfig,
        resume: Option<PoolState>,
    ) -> Result<StreamingPool, OpenError> {
        assert!(!hosted.is_empty(), "a pool needs at least one query");
        if workers > MAX_WORKERS {
            return Err(OpenError::Session(SessionError::TooManyWorkers {
                requested: workers,
            }));
        }
        let threads = Self::threads_for(&hosted, workers);
        if let Some(resume) = &resume {
            resume.check_clocks()?;
        }
        let (states, buffered, gate, raw_watermark, arrivals) = match resume {
            Some(r) => (Some(r.states), r.buffered, r.gate, r.clock, r.arrivals),
            None => (
                None,
                Vec::new(),
                config.slack.map(LateGate::new),
                Timestamp::ZERO,
                0,
            ),
        };
        let shard_states = reshard(&hosted, threads, states)?;
        // Under Restart, the opening layout is also the initial recovery
        // baseline of every shard (cloned before the engines consume it).
        let journal = threads > 1 && config.policy == FailurePolicy::Restart;
        let recovery = journal.then(|| {
            shard_states
                .iter()
                .map(|states| ShardSnapshot {
                    states: states.clone(),
                    buffered: Vec::new(),
                    events: 0,
                })
                .collect()
        });
        // Build the engines here, not on the worker threads, so a corrupt
        // entry surfaces as a typed error instead of a worker panic.
        let mut shards = Vec::with_capacity(threads);
        for (index, states) in shard_states.into_iter().enumerate() {
            let engines = shard_engines(&hosted, threads, index, states)?;
            shards.push(Shard::new(engines, config.slack, 0));
        }
        // Every in-flight event must fit the engine state it is about to
        // be re-delivered into — while the engines are still here to ask.
        for item in &buffered {
            let fits = hosted.get(item.query as usize).is_some_and(|(_, rt)| {
                place(rt, item.query as usize, threads, &item.event).is_none_or(
                    |(shard, key_hash)| {
                        shards[shard].engines[item.query as usize]
                            .as_ref()
                            .expect("an event is placed on a shard that hosts its query")
                            .accepts(&item.event, key_hash)
                    },
                )
            });
            if !fits {
                return Err(OpenError::State(CheckpointError::Corrupt(format!(
                    "in-flight event {} at {} does not fit the state of run {} of {}",
                    item.event.id,
                    item.event.time,
                    item.query,
                    hosted.len()
                ))));
            }
        }
        let projection = Arc::new(Projection::of(&hosted));
        let mut workers = Vec::new();
        let inline = if threads == 1 {
            shards.pop().map(Box::new)
        } else {
            for (index, shard) in shards.into_iter().enumerate() {
                match Self::spawn_one(shard, index, journal, Arc::clone(&projection)) {
                    Ok(worker) => workers.push(worker),
                    Err(e) => {
                        join_workers(&mut workers);
                        return Err(OpenError::Session(SessionError::WorkerSpawn {
                            shard: index,
                            error: e.to_string(),
                        }));
                    }
                }
            }
            None
        };
        let mut pool = StreamingPool {
            inline,
            workers,
            lanes: (0..threads).map(|_| Lane::default()).collect(),
            batch_size: config.batch_size.max(1),
            policy: config.policy,
            recovery,
            restarts: vec![0; threads],
            failed: None,
            delivered: vec![0; threads],
            routed_items: 0,
            dropped: 0,
            gate,
            raw_watermark,
            seq: 0,
            sent: Vec::new(),
            merged: Vec::new(),
            finished: false,
            hosted,
            projection,
        };
        for item in buffered {
            pool.restage(item);
        }
        pool.seq = arrivals;
        Ok(pool)
    }

    /// Spawn a single shard worker — the unit both pool construction and
    /// [`FailurePolicy::Restart`] respawns go through. `attach_snapshots`
    /// makes every drain reply carry a [`ShardSnapshot`]: the coordinator
    /// journals for Restart and refreshes its recovery baseline from them.
    /// `Err`: the OS refused the thread.
    fn spawn_one(
        shard: Shard,
        index: usize,
        attach_snapshots: bool,
        projection: Arc<Projection>,
    ) -> std::io::Result<Worker> {
        let (cmd_tx, cmd_rx) = std::sync::mpsc::sync_channel(CHANNEL_CAPACITY);
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        // Mirror the shard's counters immediately so a freshly restored
        // pool reports its footprint before any drain.
        let mirror = shard.metrics();
        let thread = std::thread::Builder::new()
            .name(format!("cogra-shard-{index}"))
            .spawn(move || {
                shard_worker(
                    shard,
                    index,
                    attach_snapshots,
                    &projection,
                    cmd_rx,
                    reply_tx,
                )
            })?;
        Ok(Worker {
            tx: Some(cmd_tx),
            rx: reply_rx,
            thread: Some(thread),
            quarantined: false,
            mirror,
        })
    }

    /// Pool width: the requested workers when any query has a `GROUP-BY`
    /// prefix to shard on; otherwise one shard per pinned query suffices.
    fn threads_for(hosted: &[Hosted], requested: usize) -> usize {
        let requested = requested.max(1);
        if hosted.iter().any(|(_, rt)| rt.query.group_prefix > 0) {
            requested
        } else {
            requested.min(hosted.len())
        }
    }

    /// Number of shards (1: the inline shard).
    fn width(&self) -> usize {
        self.workers.len().max(1)
    }

    /// Whether the pool drives its one shard on the caller's thread (no
    /// worker thread, no channel) — what `Session::run` picks its drain
    /// cadence from.
    pub fn is_inline(&self) -> bool {
        self.inline.is_some()
    }

    /// Number of queries the pool serves.
    pub fn queries(&self) -> usize {
        self.hosted.len()
    }

    /// Widest effective shard count across the pool's queries (a query
    /// without `GROUP-BY` is pinned to one shard and counts as 1).
    pub fn workers(&self) -> usize {
        let width = self.width();
        self.hosted
            .iter()
            .map(|(_, rt)| effective_workers(rt, width))
            .max()
            .unwrap_or(1)
    }

    /// Observable stream progress: results for windows closing at or
    /// before it are final after the next [`StreamingPool::drain_into`].
    /// Without slack this is the largest routed event time; with slack it
    /// is the [`LateGate`]'s safe watermark (the largest time releasable
    /// on every shard), exactly like a front reorderer's released output.
    pub fn watermark(&self) -> Timestamp {
        match &self.gate {
            Some(gate) => gate.safe_watermark(),
            None => self.raw_watermark,
        }
    }

    /// The pool-side admission gate, when slack is active.
    pub fn gate(&self) -> Option<&LateGate> {
        self.gate.as_ref()
    }

    /// Every shard's counters, in shard order: read live off the inline
    /// shard, or as of each worker's last drain (the workers run
    /// concurrently; there is no synchronous round trip here) and final
    /// once the pool has finished.
    fn shards(&self) -> impl Iterator<Item = ShardMetrics> + '_ {
        (self.inline.iter().map(|shard| shard.metrics()))
            .chain(self.workers.iter().map(|w| w.mirror))
    }

    /// The pool's part of a session's [`Metrics`], in one pass over its
    /// shards: late drops, watermark, width, memory, routing counters,
    /// per-shard events and the shards' health. Shards run concurrently,
    /// so their memory adds. The session's own counters (`events`,
    /// `results`, `queries`, `physical`) and `ingested` stay 0.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics {
            late: self.gate.as_ref().map_or(0, LateGate::late_events),
            watermark: self.watermark().ticks(),
            workers: self.workers(),
            degraded: (self.workers.iter().enumerate())
                .filter(|(_, w)| w.quarantined)
                .map(|(s, _)| s)
                .collect(),
            dropped: self.dropped,
            finished: self.finished,
            ..Metrics::default()
        };
        for shard in self.shards() {
            m.memory += shard.memory;
            m.key_probes += shard.stats.key_probes;
            m.key_allocs += shard.stats.key_allocs;
            m.shard_events.push(shard.events);
        }
        m
    }

    /// [`Metrics::memory`] alone, without the allocation of a whole
    /// [`Metrics`]: what `Session::run` samples every 64 events.
    pub(crate) fn memory(&self) -> usize {
        self.shards().map(|m| m.memory).sum()
    }

    /// The shards' peaks, summed (they are live at once).
    pub(crate) fn peak(&self) -> usize {
        self.shards().map(|m| m.peak).sum()
    }

    /// The sticky key-limit overflow of any shard, for the per-row check
    /// of CSV ingestion: one flag read per engine.
    pub fn key_overflow(&self) -> Option<u32> {
        match &self.inline {
            Some(shard) => shard.key_overflow(),
            None => self.workers.iter().find_map(|w| w.mirror.key_overflow),
        }
    }

    /// Query `query`'s engine, while the pool is inline (worker threads
    /// own theirs).
    pub fn engine(&self, query: usize) -> Option<&dyn TrendEngine> {
        let engine = self.inline.as_ref()?.engines.get(query)?.as_deref()?;
        Some(engine)
    }

    /// The sticky terminal failure, if a shard worker died under
    /// [`FailurePolicy::Fail`] (or a restart loop escalated). Once set,
    /// the pool accepts no more events and emits nothing further.
    pub fn failure(&self) -> Option<&WorkerFailure> {
        self.failed.as_ref()
    }

    /// Every `(event, query)` item the coordinator has staged, including
    /// ones later dropped by quarantine — the left-hand side of the
    /// conservation invariant chaos tests assert: once the pool finishes,
    /// `routed_items == Σ metrics().shard_events + metrics().dropped`.
    pub fn routed_items(&self) -> u64 {
        self.routed_items
    }

    /// Snapshot the pool's live state without advancing it: flushes staged
    /// batches, then collects every shard's engine states (merged per
    /// query in shard-index order) and in-flight reorder-buffer items.
    /// The pool remains fully usable afterwards.
    ///
    /// A finished pool, a failed one ([`FailurePolicy::Fail`]) or a
    /// degraded one ([`FailurePolicy::Degrade`] after a quarantine) cannot
    /// checkpoint — part of its state is gone; the error is typed, never a
    /// partial snapshot. A worker dying *during* the snapshot under
    /// [`FailurePolicy::Restart`] is recovered and the shard re-asked.
    pub fn snapshot(&mut self) -> Result<PoolState, CheckpointError> {
        if self.finished {
            return Err(CheckpointError::Unsupported(
                "cannot checkpoint a finished session".to_string(),
            ));
        }
        if let Some(shard) = &self.inline {
            let snap = shard.snapshot()?;
            // The one shard hosts every query: no `None` slots to merge.
            let states = snap.states.into_iter().flatten().collect();
            return Ok(self.state_of(states, snap.buffered));
        }
        self.snapshot_guard()?;
        self.ship_all();
        self.snapshot_guard()?;
        let cmd = Cmd::Snapshot;
        self.broadcast(&cmd);
        let mut merged: Vec<Option<RouterState>> = (0..self.hosted.len()).map(|_| None).collect();
        let mut buffered = Vec::new();
        for s in 0..self.workers.len() {
            if !self.sent[s] {
                continue;
            }
            let Some(mut reply) = self.recv_reply(s, &cmd) else {
                continue;
            };
            let snap = reply
                .snapshot
                .take()
                .expect("snapshot round trip returns shard state");
            self.absorb_mirror(s, &reply);
            // This full-state reply doubles as a fresh recovery baseline.
            if self.recovery.is_some() {
                self.store_baseline(s, snap.clone());
            }
            for (q, st) in snap.states.into_iter().enumerate() {
                if let Some(st) = st {
                    match &mut merged[q] {
                        None => merged[q] = Some(st),
                        Some(m) => m.merge(st),
                    }
                }
            }
            buffered.extend(snap.buffered);
        }
        self.snapshot_guard()?;
        let states = merged
            .into_iter()
            .map(|m| m.expect("every query is hosted by at least one shard"))
            .collect();
        Ok(self.state_of(states, buffered))
    }

    /// The shards' collected state plus the pool's own admission clock.
    fn state_of(&self, states: Vec<RouterState>, buffered: Vec<InFlight>) -> PoolState {
        PoolState {
            states,
            buffered,
            arrivals: self.seq,
            gate: self.gate.clone(),
            clock: self.raw_watermark,
        }
    }

    /// The typed reasons a pool cannot produce a complete snapshot.
    fn snapshot_guard(&self) -> Result<(), CheckpointError> {
        if let Some(f) = &self.failed {
            return Err(CheckpointError::Unsupported(format!(
                "cannot checkpoint a failed session ({f})"
            )));
        }
        if self.workers.iter().any(|w| w.quarantined) {
            return Err(CheckpointError::Unsupported(
                "cannot checkpoint a degraded session (a shard worker was quarantined)".into(),
            ));
        }
        Ok(())
    }

    /// Refresh a shard's recovery baseline from a full-state reply and
    /// retire the journal it supersedes (the worker consumed all of it
    /// before replying, so every batch is reclaimed). No-op unless
    /// journaling ([`FailurePolicy::Restart`]).
    fn store_baseline(&mut self, shard: usize, snap: ShardSnapshot) {
        if let Some(recovery) = &mut self.recovery {
            recovery[shard] = snap;
            let lane = &mut self.lanes[shard];
            lane.reclaim();
            lane.shipped.clear();
        }
    }

    /// Mirror a live reply's counters (a respawned shard restarts its
    /// peak; the mirror keeps the larger).
    fn absorb_mirror(&mut self, shard: usize, reply: &Reply) {
        let mirror = &mut self.workers[shard].mirror;
        *mirror = ShardMetrics {
            peak: mirror.peak.max(reply.metrics.peak),
            ..reply.metrics
        };
    }

    /// Send `cmd` to every shard before any reply is collected, so the
    /// shards work on it concurrently; `self.sent` records who took it.
    fn broadcast(&mut self, cmd: &Cmd) {
        self.sent.clear();
        for shard in 0..self.workers.len() {
            let sent = self.send_control(shard, cmd);
            self.sent.push(sent);
        }
    }

    /// Send one control command (`Drain`/`Snapshot`/`Finish`) to a shard,
    /// recovering per policy if its channel is dead. `false`: the shard is
    /// not participating (quarantined, or the pool failed).
    fn send_control(&mut self, shard: usize, cmd: &Cmd) -> bool {
        loop {
            if self.failed.is_some() {
                return false;
            }
            let Some(tx) = self.workers[shard].tx.as_ref() else {
                return false;
            };
            if tx.send(cmd.clone()).is_ok() {
                return true;
            }
            self.recover(shard, None);
        }
    }

    /// Receive a shard's reply to `cmd`, recovering per policy when the
    /// worker died instead: under [`FailurePolicy::Restart`] the respawned
    /// shard is re-sent `cmd` and the receive retried. `None`: the shard
    /// dropped out of this round trip (quarantined or pool failed).
    fn recv_reply(&mut self, shard: usize, cmd: &Cmd) -> Option<Reply> {
        loop {
            if self.failed.is_some() || self.workers[shard].tx.is_none() {
                return None;
            }
            match recv_polling(&self.workers[shard].rx) {
                Ok(reply) => match reply.failure {
                    None => return Some(reply),
                    Some(message) => self.recover(shard, Some(message)),
                },
                Err(_) => self.recover(shard, None),
            }
            // A restarted shard has replayed its journal but not seen the
            // in-flight command yet — re-issue it and listen again.
            if self.workers[shard].tx.is_some() && !self.send_control(shard, cmd) {
                return None;
            }
        }
    }

    /// The worker on `shard` is dead (send failed, receive disconnected,
    /// or an in-band failure reply arrived — passed as `got`). Extract the
    /// failure and recover per policy: quarantine, respawn-and-replay, or
    /// fail the pool terminally.
    fn recover(&mut self, shard: usize, got: Option<String>) {
        let failure = self.failure_of(shard, got);
        match self.policy {
            FailurePolicy::Fail => self.fail_all(failure),
            FailurePolicy::Degrade => self.quarantine(shard),
            FailurePolicy::Restart => {
                if self.restarts[shard] >= MAX_RESTARTS {
                    let failure = WorkerFailure {
                        shard,
                        message: format!(
                            "giving up after {MAX_RESTARTS} restarts: {}",
                            failure.message
                        ),
                    };
                    self.fail_all(failure);
                } else {
                    self.restart_shard(shard);
                }
            }
        }
    }

    /// Reap a dead worker and name its failure: close our end, skim its
    /// reply channel for the supervisor's in-band panic report (it races
    /// the channel teardown), and join the thread.
    fn failure_of(&mut self, shard: usize, got: Option<String>) -> WorkerFailure {
        let w = &mut self.workers[shard];
        w.tx = None;
        let mut message = got;
        while message.is_none() {
            match w.rx.recv_timeout(std::time::Duration::from_secs(10)) {
                Ok(reply) => message = reply.failure, // skim data replies
                Err(_) => break,
            }
        }
        if let Some(t) = w.thread.take() {
            let _ = t.join();
        }
        WorkerFailure {
            shard,
            message: message.unwrap_or_else(|| "shard worker exited unexpectedly".into()),
        }
    }

    /// Terminal failure: record it, stop every worker, drop staged items.
    fn fail_all(&mut self, failure: WorkerFailure) {
        self.failed = Some(failure);
        join_workers(&mut self.workers);
        self.lanes.iter_mut().for_each(Lane::clear);
    }

    /// [`FailurePolicy::Degrade`]: the shard stays dead. Everything ever
    /// delivered to it (processed state and in-flight items alike) is
    /// accounted as dropped; its groups reroute to the next live shard
    /// from here on.
    fn quarantine(&mut self, shard: usize) {
        let w = &mut self.workers[shard];
        w.quarantined = true;
        w.mirror.memory = 0;
        w.mirror.events = 0;
        self.dropped += self.delivered[shard];
        self.delivered[shard] = 0;
        self.lanes[shard].clear();
    }

    /// [`FailurePolicy::Restart`]: rebuild the shard's engines from its
    /// recovery baseline, respawn the worker, and redeliver the baseline's
    /// in-flight items plus the journal of everything delivered since.
    /// Emission-safe: nothing has been emitted since the baseline (results
    /// only leave at drains, and every drain refreshes the baseline).
    fn restart_shard(&mut self, shard: usize) {
        self.restarts[shard] += 1;
        let threads = self.workers.len();
        let baseline = &self.recovery.as_ref().expect("Restart keeps baselines")[shard];
        let slack = self.gate.as_ref().map(LateGate::slack);
        let respawned = shard_engines(&self.hosted, threads, shard, baseline.states.clone())
            .map_err(|e| format!("recovery baseline is unusable: {e}"))
            .and_then(|engines| {
                let shard_state = Shard::new(engines, slack, baseline.events);
                Self::spawn_one(shard_state, shard, true, Arc::clone(&self.projection))
                    .map_err(|e| format!("respawn failed: {e}"))
            });
        match respawned {
            Ok(worker) => self.workers[shard] = worker,
            Err(message) => {
                // The shard cannot be revived — escalate.
                self.fail_all(WorkerFailure { shard, message });
                return;
            }
        }
        // Redeliver: first the baseline's reorder-buffered items (their
        // release order is the order the checkpoint restage path uses) as
        // one batch of their own, then the journal's batches as they were
        // shipped.
        let mut buffered = Batch::default();
        for item in &baseline.buffered {
            if let Some((_, key_hash)) = self.place(item.query as usize, &item.event) {
                buffered.push_row(&item.event, item.stamp, &self.projection);
                buffered.push_route(item.query, key_hash);
            }
        }
        let mut replay = Vec::with_capacity(self.lanes[shard].shipped.len() + 1);
        if !buffered.routes.is_empty() {
            replay.push(Arc::new(buffered));
        }
        replay.extend(self.lanes[shard].shipped.iter().cloned());
        for batch in replay {
            let Some(tx) = self.workers[shard].tx.as_ref() else {
                return;
            };
            if tx.send(Cmd::Batch(batch)).is_err() {
                // Died again during replay — recurse; MAX_RESTARTS bounds
                // the depth.
                self.recover(shard, None);
                return;
            }
        }
    }

    /// Where an item bound for `shard` actually goes: the shard itself
    /// while it lives; after a quarantine, the next live shard (shardable
    /// queries — every shard hosts them) or nowhere (pinned queries whose
    /// home worker is gone).
    fn live_target(&self, shard: usize, query: u32) -> Option<usize> {
        if !self.workers[shard].quarantined {
            return Some(shard);
        }
        if self.hosted[query as usize].1.query.group_prefix == 0 {
            return None;
        }
        let n = self.workers.len();
        (1..n)
            .map(|k| (shard + k) % n)
            .find(|&s| !self.workers[s].quarantined)
    }

    /// Where query `query` wants `event`: `(shard, full-key hash)`.
    /// Shardable: the group hash places the event and the full-key hash
    /// rides along so the shard's router probes without re-extracting the
    /// key; `None` drops the event for this query (no partition key),
    /// consistently with every engine. Unshardable: pinned to one shard,
    /// which sees the whole stream — including events without a partition
    /// key (the engine drops them itself, exactly like a sequential run).
    fn place(&self, query: usize, event: &Event) -> Option<(usize, Option<u64>)> {
        place(&self.hosted[query].1, query, self.width(), event)
    }

    /// Re-deliver one checkpointed in-flight event for one query,
    /// bypassing the admission gate (the gate was restored verbatim; these
    /// events were already admitted before the snapshot). Safe to release
    /// early on the new shard: an admitted buffered event's release
    /// threshold never overtakes the gate's `released_to` floor.
    fn restage(&mut self, item: InFlight) {
        let InFlight {
            query,
            stamp,
            event,
        } = item;
        // `None`: unroutable events are never staged.
        if let Some((shard, key_hash)) = self.place(query as usize, &event) {
            if self.inline.is_some() {
                self.push_inline(Item {
                    event: self.projection.owned(&event),
                    query,
                    key_hash,
                    stamp,
                });
            } else {
                // The event keeps the stamp it was admitted under.
                self.seq = stamp;
                self.stage(shard, &event, query, key_hash);
            }
        }
    }

    /// Ingest one event, by reference. At width 1 without slack the shard
    /// reads it in place: nothing is cloned, staged or hashed for
    /// placement. At width n ≥ 2 it is hashed per query and what the
    /// hosted plans read of it is copied once into the open batch of
    /// every shard that wants it, with one route per wanting query; a
    /// worker that is a bounded number of batches behind blocks the
    /// caller (backpressure, not unbounded buffering). Without slack,
    /// events must arrive in non-decreasing
    /// time order; with slack, disorder up to the slack is repaired on the
    /// shards and anything later is dropped and counted. A finished or
    /// failed pool ignores the event.
    pub fn route(&mut self, event: &Event) {
        if !self.admit(event) {
            return;
        }
        self.seq += 1;
        if let (Some(shard), None) = (&mut self.inline, &self.gate) {
            return shard.process(event);
        }
        if self.inline.is_some() {
            return self.buffer_inline(event);
        }
        for query in 0..self.hosted.len() {
            if let Some((shard, key_hash)) = self.place(query, event) {
                self.stage(shard, event, query as u32, key_hash);
            }
        }
    }

    /// Width 1 under slack: the inline shard's reorder buffer owns one
    /// [`Item`] — the event as [`Projection::owned`] makes it, like a
    /// worker's — per query that wants it.
    fn buffer_inline(&mut self, event: &Event) {
        for query in 0..self.hosted.len() {
            if let Some((_, key_hash)) = self.place(query, event) {
                self.push_inline(Item {
                    event: self.projection.owned(event),
                    query: query as u32,
                    key_hash,
                    stamp: self.seq,
                });
            }
        }
    }

    /// Hand the inline shard one item and let it release what is due.
    fn push_inline(&mut self, item: Item) {
        let shard = self.inline.as_mut().expect("width 1 is inline");
        shard.push(item);
        shard.release();
    }

    /// Watermark bookkeeping + the late-drop decision. `true` admits.
    /// With a gate, the gate tracks the raw watermark itself and the
    /// observable watermark is its safe one — `raw_watermark` is only
    /// maintained on the trusted-ordered path.
    fn admit(&mut self, event: &Event) -> bool {
        if self.finished || self.failed.is_some() {
            // Finished or terminally failed: ignore further input; the
            // caller sees `finished()` / the sticky `failure()`, never a
            // panic.
            return false;
        }
        match &mut self.gate {
            Some(gate) => gate.admit(event.time),
            None => {
                self.raw_watermark = self.raw_watermark.max(event.time);
                true
            }
        }
    }

    /// Stage event number `self.seq` for `query` on a shard's open batch
    /// (rerouted past quarantined shards): its row, unless an earlier
    /// query already put it there, and a route. Ships the batch once it
    /// holds the configured number of routes.
    fn stage(&mut self, shard: usize, event: &Event, query: u32, key_hash: Option<u64>) {
        self.routed_items += 1;
        let Some(shard) = self.live_target(shard, query) else {
            // A pinned query's home worker is quarantined — the item has
            // nowhere correct to go; count it instead of losing it silently.
            self.dropped += 1;
            return;
        };
        self.delivered[shard] += 1;
        let lane = &mut self.lanes[shard];
        if lane.last_seq != self.seq {
            lane.open.push_row(event, self.seq, &self.projection);
            lane.last_seq = self.seq;
        }
        lane.open.push_route(query, key_hash);
        if lane.open.routes.len() >= self.batch_size {
            self.ship(shard);
        }
    }

    /// Send a shard's open batch as one [`Cmd::Batch`], keeping a handle,
    /// and reopen a spare in its place. A dead channel triggers policy
    /// recovery; the batch itself is never re-sent here — under Restart
    /// the journal replay already covers it, under Degrade it is part of
    /// the quarantined shard's counted losses.
    fn ship(&mut self, shard: usize) {
        let lane = &mut self.lanes[shard];
        if lane.open.routes.is_empty() {
            return;
        }
        if self.recovery.is_none() {
            // Not a journal: a shipped batch is free once the worker is
            // done with it. (A journal is retired whole, at the baseline.)
            lane.reclaim();
        }
        let reopened = lane.spare.pop().unwrap_or_default();
        let batch = Arc::new(std::mem::replace(&mut lane.open, reopened));
        lane.last_seq = 0;
        lane.shipped.push_back(Arc::clone(&batch));
        if let Some(fault) = probe!("pool/ship/{shard}") {
            // Simulated transport failure: drop our end of the channel (the
            // worker exits cleanly when it drains) and run recovery.
            self.workers[shard].tx = None;
            self.recover(shard, Some(fault));
            return;
        }
        let Some(tx) = self.workers[shard].tx.as_ref() else {
            return; // quarantined or failed since staging
        };
        if tx.send(Cmd::Batch(batch)).is_err() {
            self.recover(shard, None);
        }
    }

    /// Ship every shard's open batch — always precedes a broadcast, so a
    /// drain or finish never outruns staged events.
    fn ship_all(&mut self) {
        for shard in 0..self.workers.len() {
            self.ship(shard);
        }
    }

    /// Emit every result final at the safe watermark, per query in
    /// deterministic (window, group) order. Every shard first catches up
    /// to the watermark (workers: staged batches flush, then a broadcast),
    /// so shards whose sub-stream went quiet still close the windows that
    /// closed globally.
    pub fn drain_into(&mut self, out: &mut dyn FnMut(usize, WindowResult)) {
        if self.finished || self.failed.is_some() {
            return;
        }
        let watermark = self.watermark();
        match &mut self.inline {
            Some(shard) => {
                shard.advance_to(watermark);
                shard.drain_into(&mut |q, r| out(q as usize, r));
            }
            None => {
                self.ship_all();
                self.round_trip(Cmd::Drain(watermark), out);
            }
        }
    }

    /// End of stream: flush staged batches and shard reorder buffers,
    /// close every open window on every shard, emit the merged remainder,
    /// and join the worker threads. Further drains are no-ops and further
    /// routing is ignored. On a terminally failed pool this emits nothing
    /// — the caller sees [`StreamingPool::failure`].
    pub fn finish_into(&mut self, out: &mut dyn FnMut(usize, WindowResult)) {
        if self.finished {
            return;
        }
        self.finished = true;
        match &mut self.inline {
            Some(shard) => {
                shard.flush();
                shard.finish_into(&mut |q, r| out(q as usize, r));
            }
            None => {
                if self.failed.is_none() {
                    self.ship_all();
                    self.round_trip(Cmd::Finish, out);
                }
                join_workers(&mut self.workers);
            }
        }
    }

    /// Broadcast one command to every live shard, then merge the replies
    /// per query. Command fan-out happens before any reply collection so
    /// the shards drain concurrently. Worker deaths along the way are
    /// recovered per policy; a pool that fails terminally mid-trip emits
    /// nothing (no partial result set masquerading as a complete one).
    fn round_trip(&mut self, cmd: Cmd, out: &mut dyn FnMut(usize, WindowResult)) {
        self.broadcast(&cmd);
        let mut merged = std::mem::take(&mut self.merged);
        merged.resize_with(self.hosted.len(), Vec::new);
        for s in 0..self.workers.len() {
            if !self.sent[s] {
                continue;
            }
            let Some(mut reply) = self.recv_reply(s, &cmd) else {
                continue;
            };
            self.absorb_mirror(s, &reply);
            if let Some(snap) = reply.snapshot.take() {
                // Journaling drain: the attached state is the shard's new
                // recovery baseline and retires its journal.
                self.store_baseline(s, snap);
            }
            for (q, r) in reply.results {
                merged[q as usize].push(r);
            }
        }
        for (q, results) in merged.iter_mut().enumerate() {
            if self.failed.is_none() {
                // Shards own disjoint (window, group) result spaces per
                // query, so this sort is a deterministic merge —
                // independent of the shard count.
                WindowResult::sort(results);
                results.drain(..).for_each(|r| out(q, r));
            }
            results.clear();
        }
        self.merged = merged;
    }
}

/// Close every worker's channel (its loop exits) and reap the thread;
/// panics arrived in-band, so the join result carries nothing.
fn join_workers(workers: &mut [Worker]) {
    for w in workers {
        w.tx = None;
        if let Some(t) = w.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for StreamingPool {
    fn drop(&mut self) {
        join_workers(&mut self.workers);
    }
}

/// Split checkpointed per-query states into a `threads`-shard layout
/// (`None` states: a fresh pool — every slot starts empty). Partition
/// entries follow their `GROUP-BY` hash; counters and the finalize spike
/// live once, on the query's first hosting shard; the watermark and drain
/// floor are global and go to every hosting shard.
fn reshard(
    hosted: &[Hosted],
    threads: usize,
    states: Option<Vec<RouterState>>,
) -> Result<Vec<Vec<Option<RouterState>>>, CheckpointError> {
    let mut shard_states: Vec<Vec<Option<RouterState>>> = (0..threads)
        .map(|_| (0..hosted.len()).map(|_| None).collect())
        .collect();
    let Some(states) = states else {
        return Ok(shard_states);
    };
    assert_eq!(states.len(), hosted.len(), "one engine state per query");
    for (q, ((_, rt), state)) in hosted.iter().zip(states).enumerate() {
        let RouterState {
            watermark,
            stats,
            drained_to,
            finalize_spike,
            frame,
            entries,
        } = state;
        let shardable = rt.query.group_prefix > 0;
        let home = if shardable { 0 } else { q % threads };
        let mut split: Vec<Vec<Vec<u8>>> = (0..threads).map(|_| Vec::new()).collect();
        if !shardable || threads == 1 {
            split[home] = entries;
        } else {
            for entry in entries {
                let h = entry_group_hash(&entry, rt.query.group_prefix)?;
                split[shard_index(h, threads)].push(entry);
            }
        }
        for (s, entries) in split.into_iter().enumerate() {
            if !hosts(rt, q, threads, s) {
                debug_assert!(entries.is_empty());
                continue;
            }
            shard_states[s][q] = Some(RouterState {
                watermark,
                stats: if s == home {
                    stats
                } else {
                    RunStats::default()
                },
                drained_to,
                finalize_spike: if s == home { finalize_spike } else { 0 },
                frame,
                entries,
            });
        }
    }
    Ok(shard_states)
}

/// Build shard `index`'s engine slice: one engine per query the shard
/// hosts ([`hosts`]), revived from `states` where the layout carries one.
fn shard_engines(
    hosted: &[Hosted],
    threads: usize,
    index: usize,
    states: Vec<Option<RouterState>>,
) -> Result<Vec<Option<Engine>>, CheckpointError> {
    hosted
        .iter()
        .zip(states)
        .enumerate()
        .map(|(q, ((kind, rt), state))| {
            if state.is_some() || hosts(rt, q, threads, index) {
                kind.engine(Arc::clone(rt), state).map(Some)
            } else {
                Ok(None)
            }
        })
        .collect()
}

/// [`StreamingPool::place`] for a pool of `width` shards, where query
/// number `query` runs on `rt`.
fn place(
    rt: &QueryRuntime,
    query: usize,
    width: usize,
    event: &Event,
) -> Option<(usize, Option<u64>)> {
    if rt.query.group_prefix > 0 {
        let (group_hash, key_hash) = rt.route_hashes(event)?;
        Some((shard_index(group_hash, width), Some(key_hash)))
    } else {
        Some((query % width, rt.key_hash(event)))
    }
}

/// One shard: an engine per query it hosts ([`hosts`]), plus the shard's
/// private reorder buffer under slack. Driven by exactly one caller — a
/// worker thread's [`shard_loop`], or the pool itself at width 1 — and
/// that driver, not the shard, decides when to sample the memory peak:
/// a sample is a few adds per engine, and the sampling sites are part of
/// what `peak` means, so they stay where the drivers put them.
struct Shard {
    engines: Vec<Option<Engine>>,
    /// Per-shard disorder repair ([`PoolConfig::slack`]); the admission
    /// decision already happened at the pool's [`LateGate`].
    reorder: Option<ReorderBuffer<Item>>,
    slack: u64,
    /// The largest raw event time this shard has seen in its sub-stream.
    local_watermark: Timestamp,
    /// Scratch for released items (reused across batches).
    released: Vec<Item>,
    /// [`ShardMetrics::peak`].
    peak: usize,
    /// [`ShardMetrics::events`].
    events: u64,
}

impl Shard {
    /// A shard over pre-built engines; `events` seeds the ingest counter
    /// so a respawned shard resumes its accounting.
    fn new(engines: Vec<Option<Engine>>, slack: Option<u64>, events: u64) -> Shard {
        let mut shard = Shard {
            engines,
            reorder: slack.map(|_| ReorderBuffer::new()),
            slack: slack.unwrap_or(0),
            local_watermark: Timestamp::ZERO,
            released: Vec::new(),
            peak: 0,
            events,
        };
        shard.peak = shard.memory();
        shard
    }

    /// Serialize the shard for a pool snapshot or recovery baseline:
    /// every hosted engine's state, the reorder buffer's in-flight items
    /// in release order, and the ingest counter.
    fn snapshot(&self) -> Result<ShardSnapshot, CheckpointError> {
        let states = self
            .engines
            .iter()
            .map(|e| e.as_ref().map(|e| e.save_state()).transpose())
            .collect::<Result<_, _>>()?;
        let buffered = match &self.reorder {
            Some(buffer) => buffer
                .ordered()
                .into_iter()
                .map(|(_, item)| InFlight {
                    query: item.query,
                    stamp: item.stamp,
                    event: item.event.clone(),
                })
                .collect(),
            None => Vec::new(),
        };
        Ok(ShardSnapshot {
            states,
            buffered,
            events: self.events,
        })
    }

    fn memory(&self) -> usize {
        self.engines
            .iter()
            .flatten()
            .map(|e| e.memory_bytes())
            .sum()
    }

    fn key_overflow(&self) -> Option<u32> {
        self.engines.iter().flatten().find_map(|e| e.key_overflow())
    }

    /// The shard's counters right now: O(engines), no state is visited.
    fn metrics(&self) -> ShardMetrics {
        let mut m = ShardMetrics {
            peak: self.peak,
            key_overflow: self.key_overflow(),
            events: self.events,
            ..ShardMetrics::default()
        };
        for e in self.engines.iter().flatten() {
            m.memory += e.memory_bytes();
            m.stats.merge(e.run_stats());
        }
        m
    }

    fn sample_peak(&mut self) {
        self.peak = self.peak.max(self.memory());
    }

    /// Ingest one trusted-ordered event, in place, into every engine — the
    /// inline shard hosts them all and no placement hash was computed.
    fn process(&mut self, event: &Event) {
        for engine in self.engines.iter_mut().flatten() {
            engine.process(event);
            self.events += 1;
        }
    }

    /// Feed one placed event to its query's engine. The pool hashed the
    /// key to place the event; reuse it so the key is extracted once per
    /// event.
    fn ingest(&mut self, event: &Event, query: u32, key_hash: Option<u64>) {
        let engine = self.engines[query as usize]
            .as_mut()
            .expect("the pool only targets hosted queries");
        engine.process_prehashed(event, key_hash);
        self.events += 1;
    }

    /// Take one delivered item: straight into its engine when the stream
    /// is trusted ordered, into the shard's reorder buffer otherwise
    /// (until the next [`Shard::release`]).
    fn push(&mut self, item: Item) {
        match &mut self.reorder {
            None => self.ingest(&item.event, item.query, item.key_hash),
            Some(buffer) => {
                self.local_watermark = self.local_watermark.max(item.event.time);
                buffer.push(item.event.time, item);
            }
        }
    }

    /// Ingest every buffered item at or before `safe`, in order.
    fn release_up_to(&mut self, safe: Timestamp) {
        if let Some(buffer) = &mut self.reorder {
            let mut released = std::mem::take(&mut self.released);
            buffer.release_up_to(safe, &mut released);
            for item in released.drain(..) {
                self.ingest(&item.event, item.query, item.key_hash);
            }
            self.released = released;
        }
    }

    /// Release everything slack ticks behind this shard's own watermark.
    fn release(&mut self) {
        self.release_up_to(self.local_watermark.saturating_sub(self.slack));
    }

    /// Catch the shard up to the pool's safe watermark: release every
    /// buffered item at or before it (the gate guarantees anything still
    /// buffered beyond it is not yet globally final), then advance every
    /// hosted engine so globally-closed windows finalize even if this
    /// shard's own sub-stream went quiet.
    fn advance_to(&mut self, safe: Timestamp) {
        self.release_up_to(safe);
        for e in self.engines.iter_mut().flatten() {
            e.advance_watermark(safe);
        }
    }

    /// End of stream: flush the reorder buffer into the engines.
    fn flush(&mut self) {
        self.release_up_to(Timestamp(u64::MAX));
    }

    /// Emit what is final at the engines' watermarks, tagged per query.
    fn drain_into(&mut self, out: &mut dyn FnMut(u32, WindowResult)) {
        for (q, e) in self.engines.iter_mut().enumerate() {
            if let Some(e) = e {
                e.drain_into(&mut |r| out(q as u32, r));
            }
        }
    }

    /// Close every open window, tagged per query, and fold the engines'
    /// finalization spikes (invisible to sampling) into the peak.
    fn finish_into(&mut self, out: &mut dyn FnMut(u32, WindowResult)) {
        let mut hint = 0usize;
        for (q, e) in self.engines.iter_mut().enumerate() {
            if let Some(e) = e {
                e.finish_into(&mut |r| out(q as u32, r));
                hint += e.peak_hint();
            }
        }
        self.peak = self.peak.max(hint);
    }
}

/// The supervisor wrapper around a shard's worker loop: a panic anywhere
/// in the body is caught and reported in-band as a failure [`Reply`]
/// instead of being re-raised into the coordinator — the coordinator
/// recovers per its [`FailurePolicy`]. The shard's state is discarded on
/// unwind (a replacement is rebuilt from the recovery baseline), so
/// `AssertUnwindSafe` is sound here.
fn shard_worker(
    shard: Shard,
    index: usize,
    attach_snapshots: bool,
    projection: &Projection,
    rx: Receiver<Cmd>,
    tx: Sender<Reply>,
) {
    let failure_tx = tx.clone();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        shard_loop(shard, index, attach_snapshots, projection, rx, tx)
    }));
    if let Err(payload) = result {
        let _ = failure_tx.send(Reply {
            failure: Some(panic_message(payload.as_ref())),
            ..Reply::default()
        });
    }
}

/// Render a caught panic payload — the `panic!` message when there is
/// one, a generic marker otherwise.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "shard worker panicked".to_string()
    }
}

/// Ingest one transported batch, sampling the memory peak every 64 items
/// and at the batch-flush boundary — a burst shorter than the stride
/// would otherwise leave its peak invisible until the next drain. A
/// trusted-ordered shard replays the routes through `scratch`
/// ([`Projection::scratch`]), loading a row once for all its (adjacent)
/// routes; under slack each route becomes an owned [`Item`] for the
/// reorder buffer.
fn ingest_batch(shard: &mut Shard, batch: &Batch, projection: &Projection, scratch: &mut [Event]) {
    // `scratch` holds some other batch's rows on entry.
    let mut loaded = usize::MAX;
    for stride in batch.routes.chunks(64) {
        for route in stride {
            if shard.reorder.is_some() {
                shard.push(Item {
                    event: batch.event(route.row, projection),
                    query: route.query,
                    key_hash: route.key_hash,
                    stamp: batch.rows[route.row].stamp,
                });
            } else {
                let event = if loaded == route.row {
                    &scratch[batch.rows[route.row].type_id.index()]
                } else {
                    loaded = route.row;
                    batch.load(route.row, projection, scratch)
                };
                shard.ingest(event, route.query, route.key_hash);
            }
        }
        shard.release();
        shard.sample_peak();
    }
}

/// One shard's worker loop: drive the shard over its sub-stream, replying
/// to drain/snapshot/finish round trips. With the `faults` feature,
/// per-shard failpoints (`worker/batch/{i}`, `worker/drain/{i}`,
/// `worker/snapshot/{i}`, `worker/finish/{i}`) panic the loop on schedule
/// — each shard's command stream is deterministic given the routing, so
/// the hit counters are too.
fn shard_loop(
    mut shard: Shard,
    index: usize,
    attach_snapshots: bool,
    projection: &Projection,
    rx: Receiver<Cmd>,
    tx: Sender<Reply>,
) {
    // A scheduled kill of this worker: the supervisor wrapper reports the
    // panic in-band.
    let kill = |fault: Option<String>| {
        if let Some(fault) = fault {
            panic!("{fault}");
        }
    };
    // Worker threads only host COGRA engines, which always snapshot.
    let snapshot = |shard: &Shard| shard.snapshot().expect("router-backed engines snapshot");
    // The only events the engines ever see: each row is loaded into its
    // type's.
    let mut scratch = projection.scratch();
    while let Ok(cmd) = recv_polling(&rx) {
        let mut results = Vec::new();
        let finish = matches!(cmd, Cmd::Finish);
        let snapshot = match cmd {
            Cmd::Batch(batch) => {
                ingest_batch(&mut shard, &batch, projection, &mut scratch);
                // Fire *after* the batch mutated the engines: recovery
                // must discard the partial work, not resume over it.
                kill(probe!("worker/batch/{index}"));
                continue;
            }
            Cmd::Drain(wm) => {
                kill(probe!("worker/drain/{index}"));
                shard.advance_to(wm);
                shard.sample_peak();
                shard.drain_into(&mut |q, r| results.push((q, r)));
                attach_snapshots.then(|| snapshot(&shard))
            }
            Cmd::Snapshot => {
                kill(probe!("worker/snapshot/{index}"));
                shard.sample_peak();
                Some(snapshot(&shard))
            }
            Cmd::Finish => {
                kill(probe!("worker/finish/{index}"));
                shard.flush();
                shard.sample_peak();
                shard.finish_into(&mut |q, r| results.push((q, r)));
                None
            }
        };
        let reply = Reply {
            results,
            metrics: shard.metrics(),
            snapshot,
            failure: None,
        };
        // A failed send means the coordinator dropped mid-round-trip.
        if tx.send(reply).is_err() || finish {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cogra_events::{EventBuilder, TypeRegistry, Value, ValueKind};

    fn setup(n: usize) -> (Arc<QueryRuntime>, Vec<Event>) {
        let mut reg = TypeRegistry::new();
        let a = reg.register_type("A", vec![("g", ValueKind::Int), ("v", ValueKind::Int)]);
        let b = reg.register_type("B", vec![("g", ValueKind::Int), ("v", ValueKind::Int)]);
        let q = cogra_query::parse(
            "RETURN g, COUNT(*), SUM(A.v) PATTERN SEQ(A+, B) SEMANTICS ANY \
             GROUP-BY g WITHIN 16 SLIDE 8",
        )
        .unwrap();
        let rt = Arc::new(QueryRuntime::new(
            cogra_query::compile(&q, &reg).unwrap(),
            &reg,
        ));
        let mut builder = EventBuilder::new();
        let events: Vec<Event> = (0..n)
            .map(|i| {
                let ty = if i % 3 == 2 { b } else { a };
                builder.event(
                    (i + 1) as u64,
                    ty,
                    vec![Value::Int((i % 7) as i64), Value::Int((i % 5) as i64)],
                )
            })
            .collect();
        (rt, events)
    }

    fn pool(rt: &Arc<QueryRuntime>, workers: usize, batch: usize) -> StreamingPool {
        StreamingPool::new(
            vec![Arc::clone(rt)],
            workers,
            PoolConfig {
                batch_size: batch,
                slack: None,
                policy: FailurePolicy::Fail,
            },
        )
        .unwrap()
    }

    #[test]
    fn shared_pool_serves_multiple_queries_with_tagged_results() {
        let (rt, events) = setup(200);
        let q2 = cogra_query::parse(
            "RETURN g, COUNT(*) PATTERN SEQ(A+, B) SEMANTICS NEXT \
             GROUP-BY g WITHIN 16 SLIDE 8",
        )
        .unwrap();
        let mut reg = TypeRegistry::new();
        reg.register_type("A", vec![("g", ValueKind::Int), ("v", ValueKind::Int)]);
        reg.register_type("B", vec![("g", ValueKind::Int), ("v", ValueKind::Int)]);
        let rt2 = Arc::new(QueryRuntime::new(
            cogra_query::compile(&q2, &reg).unwrap(),
            &reg,
        ));
        let mut pool = StreamingPool::new(
            vec![Arc::clone(&rt), Arc::clone(&rt2)],
            4,
            PoolConfig::default(),
        )
        .unwrap();
        assert_eq!(pool.queries(), 2);
        for e in &events {
            pool.route(e);
        }
        // Both queries group by `g`, so they want every event on the same
        // shard: it is stored there once and routed twice. (Nothing has
        // shipped yet — each shard holds fewer routes than a batch.)
        let rows: usize = pool.lanes.iter().map(|l| l.open.rows.len()).sum();
        let routes: usize = pool.lanes.iter().map(|l| l.open.routes.len()).sum();
        assert_eq!(rows, events.len(), "one row per event");
        assert_eq!(routes, 2 * events.len(), "one route per (event, query)");
        assert_eq!(pool.routed_items(), routes as u64);
    }

    #[test]
    fn a_row_carries_the_union_read_set_of_the_hosted_queries() {
        let mut reg = TypeRegistry::new();
        let attrs = vec![
            ("g", ValueKind::Int),
            ("tag", ValueKind::Str),
            ("v", ValueKind::Int),
            ("ok", ValueKind::Bool),
            ("w", ValueKind::Float),
        ];
        let a = reg.register_type("A", attrs.clone());
        let b = reg.register_type("B", attrs);
        let runtime = |query: &str| {
            let plan = cogra_query::compile(&cogra_query::parse(query).unwrap(), &reg).unwrap();
            Arc::new(QueryRuntime::new(plan, &reg))
        };
        // A: g, v (the first query) — B: g (both) and w (the second).
        let sums = runtime(
            "RETURN g, SUM(A.v) PATTERN SEQ(A+, B) SEMANTICS ANY GROUP-BY g WITHIN 16 SLIDE 8",
        );
        let peaks = runtime(
            "RETURN g, COUNT(*) PATTERN SEQ(A+, B) SEMANTICS NEXT WHERE B.w > 1.5 \
             GROUP-BY g WITHIN 16 SLIDE 8",
        );
        let mut pool = StreamingPool::new(vec![sums, peaks], 2, PoolConfig::default()).unwrap();
        let mut builder = EventBuilder::new();
        let events: Vec<Event> = (0..40i64)
            .map(|i| {
                let attrs = vec![
                    Value::Int(i % 5),
                    Value::str("unread"),
                    Value::Int(i),
                    Value::Bool(true),
                    Value::Float(i as f64),
                ];
                builder.event((i + 1) as u64, if i % 3 == 2 { b } else { a }, attrs)
            })
            .collect();
        events.iter().for_each(|e| pool.route(e));
        let mut rows = 0;
        let mut scratch = pool.projection.scratch();
        for batch in pool.lanes.iter().map(|lane| &lane.open) {
            assert_eq!(batch.routes.len(), 2 * batch.rows.len(), "stored once");
            for (r, row) in batch.rows.iter().enumerate() {
                let event = &events[row.id.0 as usize];
                let read: &[usize] = if row.type_id == a { &[0, 2] } else { &[0, 4] };
                let expected: Vec<Value> = read.iter().map(|&i| event.attrs[i].clone()).collect();
                assert_eq!(batch.attrs_of(r), expected, "row of {event:?}");
                // What a worker hands its engines: blanks around the row.
                let loaded = batch.load(r, &pool.projection, &mut scratch);
                assert_eq!(*loaded, pool.projection.owned(event));
                assert_eq!(loaded.attrs[1], Value::str(""), "unread: {loaded:?}");
                assert_eq!(loaded.attrs[3], Value::Bool(false), "unread: {loaded:?}");
                rows += 1;
            }
        }
        assert_eq!(rows, events.len(), "one row per event");
    }

    /// Drive `pool` over `events`, draining after every `chunk` events.
    fn drive(pool: &mut StreamingPool, events: &[Event], chunk: usize) -> Vec<Vec<WindowResult>> {
        let mut per_query = vec![Vec::new(); pool.queries()];
        for part in events.chunks(chunk) {
            for e in part {
                pool.route(e);
            }
            pool.drain_into(&mut |q, r| per_query[q].push(r));
        }
        pool.finish_into(&mut |q, r| per_query[q].push(r));
        per_query
    }

    #[test]
    fn a_recycled_batch_carries_nothing_of_its_previous_life() {
        // Two arities and a string attribute: stale rows, offsets or
        // values surviving a recycle would misalign every later row.
        let mut reg = TypeRegistry::new();
        let a = reg.register_type("A", vec![("g", ValueKind::Int), ("v", ValueKind::Int)]);
        let b = reg.register_type(
            "B",
            vec![
                ("g", ValueKind::Int),
                ("tag", ValueKind::Str),
                ("w", ValueKind::Float),
                ("v", ValueKind::Int),
            ],
        );
        let q = cogra_query::parse(
            "RETURN g, COUNT(*), SUM(A.v), MAX(B.v) PATTERN SEQ(A+, B) SEMANTICS ANY \
             WHERE B.tag = hot GROUP-BY g WITHIN 16 SLIDE 8",
        )
        .unwrap();
        let rt = Arc::new(QueryRuntime::new(
            cogra_query::compile(&q, &reg).unwrap(),
            &reg,
        ));
        let mut builder = EventBuilder::new();
        // Three chunks: A only, B only, then mixed.
        let events: Vec<Event> = (0..90i64)
            .map(|i| {
                let g = Value::Int(i % 4);
                let is_b = (30..60).contains(&i) || (i >= 60 && i % 3 == 2);
                if is_b {
                    let tag = Value::str(if i % 2 == 0 { "hot" } else { "cold" });
                    let attrs = vec![g, tag, Value::Float(i as f64), Value::Int(i)];
                    builder.event((i + 1) as u64, b, attrs)
                } else {
                    builder.event((i + 1) as u64, a, vec![g, Value::Int(i % 5)])
                }
            })
            .collect();
        let mut recycling = pool(&rt, 2, 8);
        let got = drive(&mut recycling, &events, 30);
        assert!(!got[0].is_empty());
        assert_eq!(got, drive(&mut pool(&rt, 1, 8), &events, 30), "vs inline");
        for lane in &recycling.lanes {
            let reopened = &lane.open;
            assert!(
                reopened.rows.capacity() > 0,
                "the open batch is a recycled one"
            );
            assert!(reopened.rows.is_empty() && reopened.routes.is_empty());
            assert!(reopened.attrs.is_empty(), "no value outlives its batch");
        }
    }

    #[test]
    fn restart_journals_batch_handles_not_items() {
        let (rt, events) = setup(300);
        let batch_size = 7;
        let mut pool = StreamingPool::new(
            vec![Arc::clone(&rt)],
            2,
            PoolConfig {
                batch_size,
                slack: None,
                policy: FailurePolicy::Restart,
            },
        )
        .unwrap();
        for e in &events {
            pool.route(e);
        }
        for (lane, &delivered) in pool.lanes.iter().zip(&pool.delivered) {
            let delivered = delivered as usize;
            assert!(delivered > batch_size, "both shards see traffic");
            assert_eq!(
                lane.shipped.len(),
                delivered / batch_size,
                "one handle per batch"
            );
            assert_eq!(lane.open.routes.len(), delivered % batch_size);
            let journaled: usize = lane.shipped.iter().map(|b| b.routes.len()).sum();
            assert_eq!(journaled + lane.open.routes.len(), delivered);
        }
        // A drain refreshes every baseline: the journal is retired into
        // spares, not dropped.
        pool.drain_into(&mut |_q, _r| {});
        for lane in &pool.lanes {
            assert!(
                lane.shipped.is_empty(),
                "the baseline supersedes the journal"
            );
            assert!(!lane.spare.is_empty());
            assert!(lane.spare.iter().all(|b| b.routes.is_empty()));
        }
    }

    #[test]
    fn batch_flush_samples_peak_below_the_64_event_stride() {
        // A burst shorter than the 64-event sampling stride must still
        // register its peak at the batch-flush boundary — sampling only
        // every 64 events under-reported sub-interval bursts.
        let (rt, events) = setup(10);
        let hosted = [(EngineKind::Cogra, Arc::clone(&rt))];
        let engines = shard_engines(&hosted, 1, 0, vec![None]).unwrap();
        let mut shard = Shard::new(engines, None, 0);
        let projection = Projection::of(&hosted);
        let mut batch = Batch::default();
        for (i, e) in events.iter().enumerate() {
            batch.push_row(e, i as u64 + 1, &projection);
            batch.push_route(0, rt.key_hash(e));
        }
        ingest_batch(&mut shard, &batch, &projection, &mut projection.scratch());
        assert!(shard.memory() > 0);
        assert_eq!(
            shard.peak,
            shard.memory(),
            "a 10-event batch samples peak at its flush boundary"
        );
        assert_eq!(shard.events, 10, "per-shard ingest counter");
    }
}
