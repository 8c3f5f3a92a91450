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
//! partition results by) and is pinned to one shard instead. That rule is
//! written once (`Placement`), and everything that places reads it.
//!
//! A `Shard` — one engine per hosted query — is the only thing that ever
//! hosts engines, and the pool (`StreamingPool`, which only a session
//! builds) is the only thing that drives shards. Which `(query, shard)`
//! pairs an event goes to is decided per type when the pool opens
//! (`SessionRoute`); an event no query wants only moves the stream clock.
//! The effective width picks the transport, nothing else:
//! * **width 1** — the one shard is held by value and driven on the
//!   caller's thread, by reference: no thread, no channel, no staging, no
//!   event clone and no placement hash;
//! * **width n ≥ 2** — one long-lived worker thread per shard, fed by a
//!   bounded channel carrying **batch arenas** (`Batch`): per shard, the
//!   coordinator copies of each routed event what the hosted plans read
//!   (`Projection`: the union of their read-sets) once into the open
//!   batch — a row of its [`Rows`] arena — and appends one `(row, query)`
//!   route per query that wants it there. The worker replays the routes
//!   through one scratch `Event` per type, blank outside the read-set,
//!   into each query's engine, which finds the event's partition itself
//!   (the coordinator hashes only the `GROUP-BY` prefixes that place it).
//!   The coordinator, which keeps a handle to every shipped batch
//!   ([`Recycler`]), reopens a batch as soon as the worker has dropped
//!   its own. Steady state allocates nothing per routed event on
//!   either thread, no memory allocated on one thread is freed on another,
//!   and both ends of a hand-off poll before they park ([`recv_polling`]).
//!   The arena, the recycler and the receive are [`handoff`]'s; the
//!   server's ingest chunks travel the same way.
//!   Watermark broadcasts make a drain emit every result that is globally
//!   final — even on shards whose sub-stream went quiet — and each worker
//!   supervises its own shard per [`FailurePolicy`]: under `Restart` it
//!   revives the shard on its own thread (`shard_worker`), so the
//!   coordinator only ever learns of a death it has to act on.
//!
//! Disorder repair happens once, in front of the session route, at every
//! width: under `.slack(n)` every admitted event is pushed once onto the
//! pool's one [`ReorderBuffer`] — with the event itself when some query
//! wants it, bare when it only moves the clock — which drops exactly what
//! a single front `Reorderer` would and hands the rest to the shards in
//! time-stamp order, ties in arrival order: the §8 scheduler's stream
//! transactions. A shard only ever sees its sub-stream in order, so it
//! holds engines and nothing else.

use crate::engine::TrendEngine;
use crate::metrics::Metrics;
use crate::output::WindowResult;
use crate::runtime::QueryRuntime;
use crate::session::{EngineKind, OpenError, SessionError};
use cogra_checkpoint::{CheckpointError, Dec, Enc};
use cogra_engine::{entry_group_hash, RouterState, RunStats};
use cogra_events::{AttrId, Event, ReorderBuffer, Timestamp, TypeId, TypeRegistry, Value};
use handoff::{recv_polling, Recycler, Reusable, Rows};
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

pub mod handoff;

/// Where a pool's work goes — THE placement rule of §8, the one answer
/// live routing ([`SessionRoute`]), the engines a shard hosts
/// ([`shard_engines`]), the re-sharding of a restored snapshot
/// ([`reshard`]), quarantine rerouting and the reported width all read,
/// so none of them can disagree. A query with a `GROUP-BY` prefix is
/// hosted on every shard, and its events go to the shard of their group
/// hash; one without cannot shard and is *pinned* to shard `q % width`,
/// so even a session of only such queries spreads across the pool.
#[derive(Clone)]
struct Placement {
    /// The shard count: what a group hash is reduced modulo.
    width: usize,
    /// Per hosted query: whether it has no `GROUP-BY` prefix.
    pinned: Vec<bool>,
}

impl Placement {
    /// `hosted` over `requested` workers: that many shards when any query
    /// can shard, otherwise at most one per (pinned) query.
    fn of(hosted: &[Hosted], requested: usize) -> Placement {
        let pinned: Vec<bool> = (hosted.iter())
            .map(|(_, rt)| rt.query.group_prefix == 0)
            .collect();
        let mut width = requested.max(1);
        if !pinned.contains(&false) {
            width = width.min(hosted.len());
        }
        Placement { width, pinned }
    }

    /// The one shard every event of query `q` goes to unhashed, if there
    /// is one: its home when pinned, and at width 1 shard 0 for any query.
    /// `None`: `q`'s events go to [`Placement::by_hash`]'s shard.
    fn fixed(&self, q: usize) -> Option<usize> {
        (self.width == 1 || self.pinned[q]).then(|| self.home(q))
    }

    /// The shard of a query [`Placement::fixed`] to one.
    #[inline]
    fn home(&self, q: usize) -> usize {
        q % self.width
    }

    /// The shard of a `GROUP-BY`-prefix hash.
    #[inline]
    fn by_hash(&self, group_hash: u64) -> usize {
        (group_hash % self.width as u64) as usize
    }

    /// Whether shard `s` hosts query `q`: every shard hosts one placed by
    /// hash.
    fn hosts(&self, q: usize, s: usize) -> bool {
        self.fixed(q).is_none_or(|home| home == s)
    }

    /// The width the session reports ([`Metrics::workers`], and what its
    /// snapshot's config section stores): 1 when every query is pinned.
    fn workers(&self) -> usize {
        if self.pinned.contains(&false) {
            self.width
        } else {
            1
        }
    }
}

/// Which engines see an event, decided per registered type when the pool
/// opens: query `q` wants a type iff its compiled route keeps it (not
/// `Route::Nothing` in [`QueryRuntime::routes`]) and the type carries its
/// partition key. Any other event would only move `q`'s watermark, which
/// drains broadcast anyway ([`Shard::advance_to`]).
struct SessionRoute {
    placement: Placement,
    types: Vec<TypeRoute>,
}

/// The queries that want one registered type.
#[derive(Clone)]
struct TypeRoute {
    /// The ones placed by hash, by distinct `GROUP-BY` attribute list: one
    /// hash, by the first runtime's, places the list.
    hashed: Vec<(Arc<QueryRuntime>, Vec<u32>)>,
    /// Per query, whether it is one of the others, each on its
    /// [`Placement::fixed`] shard. A mask, not a list, so that the inline
    /// shard's engine calls wait on no loaded index.
    fixed: Vec<bool>,
}

/// A query's `GROUP-BY` attributes: what places its events on a shard.
fn group_by(rt: &QueryRuntime) -> &[String] {
    &rt.query.partition_attrs[..rt.query.group_prefix]
}

impl SessionRoute {
    fn of(hosted: &[Hosted], placement: Placement) -> SessionRoute {
        let (hashed, fixed) = (Vec::new(), vec![false; hosted.len()]);
        let mut types = vec![TypeRoute { hashed, fixed }; hosted[0].1.routes.len()];
        for (t, route) in types.iter_mut().enumerate() {
            for (q, (_, rt)) in hosted.iter().enumerate() {
                let drops = matches!(rt.routes[t], cogra_query::Route::Nothing);
                if drops || rt.partition_attr_ids[t].is_none() {
                    continue;
                } else if placement.fixed(q).is_some() {
                    route.fixed[q] = true;
                    continue;
                }
                let hashed = &mut route.hashed;
                match hashed.iter().position(|(f, _)| group_by(f) == group_by(rt)) {
                    Some(list) => hashed[list].1.push(q as u32),
                    None => hashed.push((Arc::clone(rt), vec![q as u32])),
                }
            }
        }
        SessionRoute { placement, types }
    }

    /// THE routing decision: `to(query, shard)` for every query that wants
    /// `event`, hashing one `GROUP-BY` prefix per distinct attribute list.
    #[inline]
    fn each(&self, event: &Event, mut to: impl FnMut(u32, usize)) {
        let route = &self.types[event.type_id.index()];
        for (first, queries) in &route.hashed {
            let hash = first.group_hash(event).expect("a wanted type has the key");
            let shard = self.placement.by_hash(hash);
            queries.iter().for_each(|&q| to(q, shard));
        }
        for (q, _) in route.fixed.iter().enumerate().filter(|(_, fixed)| **fixed) {
            to(q as u32, self.placement.home(q));
        }
    }

    /// Whether any query wants events of `event`'s type.
    #[inline]
    fn wants(&self, event: &Event) -> bool {
        let route = &self.types[event.type_id.index()];
        !route.hashed.is_empty() || route.fixed.contains(&true)
    }
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
    /// and the events already handed to it are counted as dropped, the
    /// events for its groups the pool's reorder buffer has not released
    /// yet and all future ones reroute to the next live shard (fresh
    /// state), and the run reports which shards degraded. Availability
    /// over completeness — nothing is lost *silently*.
    Degrade,
    /// Revive the shard on its worker thread: rebuild its engines from
    /// the state the worker saved last (when it started, and at every
    /// drain or snapshot it answered), replay the batches it received
    /// since, then retry the interrupted command. The merged output is
    /// byte-identical to a run without the failure (asserted by
    /// `tests/chaos_props.rs`). Costs each worker a serialization of its
    /// shard at every drain and every 64 batches between drains, and a
    /// handle to each batch since its last one.
    /// A shard that dies a ninth time escalates to a sticky failure, as
    /// under [`FailurePolicy::Fail`].
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
pub(crate) struct PoolConfig {
    /// Routed items — `(event, query)` pairs — staged per shard before
    /// its open batch is shipped. Staged items also flush on every
    /// drain/finish (and thus on every watermark broadcast), so the batch
    /// size bounds transport latency, never result completeness. 1
    /// degenerates to per-item sends. Unused at width 1 — there is no
    /// transport.
    pub(crate) batch_size: usize,
    /// Repair up to this many ticks of disorder before any shard sees an
    /// event: the pool's one [`ReorderBuffer`] drops exactly what one
    /// stream-wide front reorderer would and releases the rest in order,
    /// once the stream clock is this many ticks past it.
    pub(crate) slack: Option<u64>,
    /// Recovery behavior when a shard worker dies (width ≥ 2 only — the
    /// inline shard has no worker to supervise).
    pub(crate) policy: FailurePolicy,
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

/// One physical run a pool hosts: its engine kind and the compiled
/// runtime every shard's engine for it shares.
pub(crate) type Hosted = (EngineKind, Arc<QueryRuntime>);

/// A hosted engine of any [`EngineKind`]; `Send` so its shard can move
/// onto a worker thread.
pub(crate) type Engine = Box<dyn TrendEngine + Send>;

/// A pool's live state, layout-independent: what
/// [`StreamingPool::snapshot`] captures and a pool opened over it resumes
/// from — at any width. A snapshot's engine states are its `q<i>`
/// sections; the rest is its `reorder` section
/// ([`PoolState::save_reorder`]).
pub(crate) struct PoolState {
    /// Per-query engine states, merged across shards.
    pub(crate) states: Vec<RouterState>,
    /// The reorder buffer, verbatim (`None`: no slack): every admitted
    /// event it has not released, the ones some query wants with the
    /// event, unrouted.
    pub(crate) reorder: Option<ReorderBuffer<Event>>,
    /// Events admitted so far: the arrival stamp of the latest one.
    arrivals: u64,
    /// The stream clock: the largest admitted event time.
    clock: Timestamp,
}

impl PoolState {
    /// Encode the `reorder` section — one shape at every worker count.
    /// Without slack: only the stream clock, so a restored pool's
    /// admission floor matches the original's. With slack: the reorder
    /// buffer verbatim — slack, the stream clock, safe watermark, late-drop
    /// count, the time of every entry in ascending order — the arrival
    /// counter, and the entries that carry an event, as `(stamp, event)` in
    /// the order the buffer releases them: by time, and within a time stamp
    /// by arrival.
    pub(crate) fn save_reorder(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        let Some(reorder) = &self.reorder else {
            enc.bool(false);
            enc.u64(self.clock.ticks());
            return enc.into_bytes();
        };
        enc.bool(true);
        enc.u64(reorder.slack());
        enc.u64(self.clock.ticks());
        enc.u64(reorder.safe_watermark().ticks());
        enc.u64(reorder.late_events());
        let entries = reorder.ordered();
        enc.usize(entries.len());
        for (time, _, _) in &entries {
            enc.u64(time.ticks());
        }
        enc.u64(self.arrivals);
        let in_flight: Vec<_> = (entries.into_iter())
            .filter_map(|(_, stamp, event)| Some((stamp, event?)))
            .collect();
        enc.usize(in_flight.len());
        for (stamp, event) in in_flight {
            enc.u64(stamp);
            event.save(&mut enc);
        }
        enc.into_bytes()
    }

    /// Decode a `reorder` section ([`PoolState::save_reorder`]): everything
    /// of a pool state but the engine states, which have sections of their
    /// own. Each in-flight event takes the place of one entry of its time;
    /// an entry left over holds no event. What a stamp or a time says of an
    /// in-flight event is checked here, what its values say when the pool
    /// opens ([`StreamingPool::open`]).
    pub(crate) fn load_reorder(bytes: &[u8]) -> Result<PoolState, CheckpointError> {
        let dec = &mut Dec::new(bytes);
        let mut state = PoolState {
            states: Vec::new(),
            reorder: None,
            arrivals: 0,
            clock: Timestamp::ZERO,
        };
        if !dec.bool()? {
            state.clock = Timestamp(dec.u64()?);
            dec.finish("reorder section")?;
            return Ok(state);
        }
        let slack = dec.u64()?;
        state.clock = Timestamp(dec.u64()?);
        let released_to = Timestamp(dec.u64()?);
        let late = dec.u64()?;
        let n = dec.usize()?;
        let mut pending = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            pending.push(Timestamp(dec.u64()?));
        }
        state.arrivals = dec.u64()?;
        let n = dec.usize()?;
        let mut in_flight = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let stamp = dec.u64()?;
            // Stamps count admitted events from 1; one past the counter
            // would be handed out again to an event yet to arrive.
            if !(1..=state.arrivals).contains(&stamp) {
                return Err(CheckpointError::Corrupt(format!(
                    "in-flight event stamped {stamp} of {} arrivals",
                    state.arrivals
                )));
            }
            in_flight.push((stamp, Event::load(dec)?));
        }
        // A stamp is one admitted event: a repeat would be staged as the
        // row of the event before it.
        let mut stamps: Vec<u64> = in_flight.iter().map(|(stamp, _)| *stamp).collect();
        stamps.sort_unstable();
        if let Some(pair) = stamps.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(CheckpointError::Corrupt(format!(
                "two in-flight events stamped {}",
                pair[0]
            )));
        }
        pending.sort_unstable();
        in_flight.sort_by_key(|(stamp, event)| (event.time, *stamp));
        let mut in_flight = in_flight.into_iter().peekable();
        let mut entries = Vec::with_capacity(pending.len());
        for time in pending {
            match in_flight.next_if(|(_, event)| event.time == time) {
                Some((stamp, event)) => entries.push((time, stamp, Some(event))),
                // An entry without an event is released unseen; its stamp
                // orders nothing.
                None => entries.push((time, 0, None)),
            }
        }
        if let Some((_, event)) = in_flight.next() {
            return Err(CheckpointError::Corrupt(format!(
                "in-flight event {} at {} is not among the pending times",
                event.id, event.time
            )));
        }
        dec.finish("reorder section")?;
        state.reorder = Some(ReorderBuffer::from_parts(slack, released_to, late, entries));
        Ok(state)
    }

    /// Whether every engine state's clock ([`Frame::clock`]) is at or
    /// before the admission floor. An engine cannot have been handed an
    /// event the pool had not admitted; a state that says so is another
    /// session's, and an event between the two clocks would probe a ring
    /// [`Router::from_state`] never checked for it.
    ///
    /// [`Frame::clock`]: cogra_engine::Frame::clock
    /// [`Router::from_state`]: cogra_engine::Router::from_state
    fn check_clocks(&self) -> Result<(), CheckpointError> {
        // No event to come is earlier than the floor, and no event an
        // engine was handed is later: the reorder buffer's safe watermark
        // (the pool releases nothing past it), or without slack the clock.
        let floor = (self.reorder.as_ref()).map_or(self.clock, ReorderBuffer::safe_watermark);
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

/// What a pool's engines read of an event, and what stands in for the
/// rest: per type, the union of the hosted plans' read-sets
/// ([`QueryRuntime::read_set`]) and the type's blank row. Only the
/// read-set travels to a worker, and every event the pool *owns* — its
/// reorder buffer's — is the blank row with the read-set written over
/// it, so a snapshot's in-flight events are the same bytes whichever
/// width took it.
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

    /// `event` as the pool's reorder buffer owns it: the type's blank row,
    /// projected onto — written into `reuse`, a row of the type the buffer
    /// released, when there is one. Only read slots are ever written, so
    /// that row is blank outside them too.
    fn owned(&self, event: &Event, reuse: Option<Vec<Value>>) -> Event {
        let mut attrs = reuse.unwrap_or_else(|| self.blank[event.type_id.index()].clone());
        self.scatter(event.type_id, self.read(event), &mut attrs);
        Event::new(event.id, event.time, event.type_id, attrs)
    }

    /// A worker's scratch events: per type, one blank event for
    /// [`Batch::load`] to write rows of that type into.
    fn scratch(&self) -> Vec<Event> {
        let blank =
            |(t, row): (usize, &Vec<Value>)| Event::new(0, 0, TypeId(t as u32), row.clone());
        self.blank.iter().enumerate().map(blank).collect()
    }
}

/// One routed item of a [`Batch`]: row `row` is for query `query`.
struct Route {
    row: usize,
    query: u32,
}

/// The unit of shard transport: a slice of one shard's sub-stream. Every
/// event is stored once — a row of the [`Rows`] arena carrying the values
/// the pool reads ([`Projection::read`]) — however many of the shard's
/// queries want it; `routes` lists the `(row, query)` items in global
/// routing order, and is what a worker replays. Staging an event is
/// therefore a few `Vec` appends into retained capacity: no `Event` is
/// cloned and nothing is allocated once a batch has been through one fill.
#[derive(Default)]
struct Batch {
    rows: Rows,
    routes: Vec<Route>,
}

impl Reusable for Batch {
    fn clear(&mut self) {
        self.rows.clear();
        self.routes.clear();
    }
}

impl Batch {
    /// Append `event` as the batch's last row.
    fn push_row(&mut self, event: &Event, projection: &Projection) {
        let read = |values: &mut Vec<_>| values.extend(projection.read(event).cloned());
        self.rows.push(event.id, event.time, event.type_id, read);
    }

    /// Route the last row to `query`.
    fn push_route(&mut self, query: u32) {
        let row = self.rows.len() - 1;
        self.routes.push(Route { row, query });
    }

    /// Load row `row` into its type's scratch event ([`Projection::scratch`]),
    /// which is returned: only the read slots are written, the others
    /// stay blank.
    fn load<'s>(&self, row: usize, projection: &Projection, scratch: &'s mut [Event]) -> &'s Event {
        let row = self.rows.row(row);
        let event = &mut scratch[row.type_id.index()];
        event.id = row.id;
        event.time = row.time;
        projection.scatter(row.type_id, row.values.iter(), &mut event.attrs);
        event
    }
}

/// Commands the coordinator sends down a worker's bounded channel.
#[derive(Clone)]
enum Cmd {
    /// The next slice of this shard's sub-stream. The coordinator keeps a
    /// second handle (see [`Lane::batches`]); the worker only reads, and
    /// under [`FailurePolicy::Restart`] holds it until its next save
    /// ([`Recovery`]).
    Batch(Arc<Batch>),
    /// Advance to the given safe watermark and emit everything now final.
    Drain(Timestamp),
    /// Serialize every hosted engine, without advancing or emitting
    /// anything — the pool stays live after a snapshot.
    Snapshot,
    /// End of stream: close every open window, report, and exit.
    Finish,
}

/// The coordinator's side of one shard worker: its thread, the channels
/// both ways, the shard's transport and what the coordinator knows of the
/// shard without asking.
struct Lane {
    /// `None` once the pool has finished or the worker is gone (dropping
    /// it closes the channel).
    tx: Option<SyncSender<Cmd>>,
    rx: Receiver<Reply>,
    thread: Option<JoinHandle<()>>,
    /// The open batch: what was staged for the shard since the last ship.
    open: Batch,
    /// Arrival stamp of the event that is `open`'s last row (0: none), so
    /// an event several queries want on this shard is stored once.
    last_stamp: u64,
    /// The shipped batches the worker may still hold, and the spares.
    batches: Recycler<Batch>,
    /// Items staged for the shard since the pool opened (delivered or in
    /// flight); frozen at 0 once the shard is quarantined.
    delivered: u64,
    /// Quarantined by [`FailurePolicy::Degrade`]: the shard is dead and
    /// stays dead; its groups reroute to the next live shard.
    quarantined: bool,
    /// The worker's last reported counters, so [`StreamingPool::metrics`]
    /// needs no synchronous round trip.
    mirror: ShardMetrics,
}

impl Lane {
    /// Start shard `index`'s worker thread over `shard`, reviving it per
    /// `recovery` ([`FailurePolicy::Restart`]). `Err`: the OS refused the
    /// thread.
    fn spawn(
        shard: Shard,
        index: usize,
        recovery: Option<Recovery>,
        projection: Arc<Projection>,
    ) -> std::io::Result<Lane> {
        let (cmd_tx, cmd_rx) = std::sync::mpsc::sync_channel(CHANNEL_CAPACITY);
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        // Mirror the shard's counters immediately so a freshly restored
        // pool reports its footprint before any drain.
        let mirror = shard.metrics();
        let thread = std::thread::Builder::new()
            .name(format!("cogra-shard-{index}"))
            .spawn(move || shard_worker(shard, index, recovery, &projection, cmd_rx, reply_tx))?;
        Ok(Lane {
            tx: Some(cmd_tx),
            rx: reply_rx,
            thread: Some(thread),
            open: Batch::default(),
            last_stamp: 0,
            batches: Recycler::default(),
            delivered: 0,
            quarantined: false,
            mirror,
        })
    }

    /// Forget everything staged and shipped (the shard is gone).
    fn clear(&mut self) {
        self.open.clear();
        self.last_stamp = 0;
        self.batches.forget();
    }
}

/// One shard's engine states and ingest counter: its contribution to a
/// pool snapshot, and what a worker under [`FailurePolicy::Restart`]
/// revives its shard from ([`Recovery`]).
#[derive(Clone, Default)]
struct ShardSnapshot {
    /// Per query: the hosted engine's state (`None` where not hosted).
    states: Vec<Option<RouterState>>,
    /// The shard's ingest counter at snapshot time, so a revived shard
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
    /// Engine state, in reply to [`Cmd::Snapshot`].
    snapshot: Option<ShardSnapshot>,
    /// The worker's last word: its shard died and it will not revive it
    /// (the policy is not [`FailurePolicy::Restart`], or revival gave up).
    failure: Option<String>,
}

/// A shard that dies this many times over its worker's life has its next
/// death escalated to a sticky failure — a deterministic crash would
/// otherwise revive and die forever.
const MAX_RESTARTS: u32 = 8;

/// How many batches a worker under [`FailurePolicy::Restart`] keeps
/// ([`Recovery`]) before it saves its shard on its own: without a drain,
/// what it keeps would grow with the stream.
const MAX_KEPT_BATCHES: usize = 64;

/// Backpressure bound, in batches: a worker that falls this many batches
/// behind blocks ingestion instead of buffering without limit.
const CHANNEL_CAPACITY: usize = 16;

/// Live §8 sharded execution, shared across a whole session's queries:
/// every `Shard` hosts one engine per query it serves, and the pool
/// drives either the one inline shard or `n ≥ 2` worker threads (see the
/// module docs).
///
/// * **Shared pool** — one pool serves every query of a session: an
///   event goes only to the queries that want its type, is hashed once
///   per distinct `GROUP-BY` attribute list among them and staged once
///   per target shard. A query without a `GROUP-BY` prefix cannot shard;
///   it is pinned to the shard `query % width`.
/// * **Batch-arena transport** (width ≥ 2) — an event is copied once
///   into the open batch of each shard that wants it, with one route
///   per wanting query; a batch ships once it holds
///   [`PoolConfig::batch_size`] routes and on every drain/finish, so
///   batching changes hand-off cost, never the result set. Consumed
///   batches are reopened, not reallocated.
/// * **One reorderer, in front of the route** — with
///   [`PoolConfig::slack`], every admitted event is pushed once onto the
///   pool's [`ReorderBuffer`], whose drop rule is a single front
///   [`Reorderer`]'s, and leaves it in order through the same dispatch an
///   in-order stream takes.
/// * **Watermark broadcasts** — [`StreamingPool::drain_into`] hands every
///   shard the safe watermark before collecting: every window that closed
///   globally is emitted, even on a shard whose sub-stream went quiet.
///
/// The merged output equals each query run alone on one inline shard —
/// asserted by the model battery (`tests/common/model.rs`) across widths ×
/// chunkings × batch sizes.
///
/// [`Reorderer`]: cogra_events::Reorderer
pub(crate) struct StreamingPool {
    hosted: Vec<Hosted>,
    session_route: SessionRoute,
    /// What of an event the hosted plans read: all a worker is sent, and
    /// all the reorder buffer keeps.
    projection: Arc<Projection>,
    /// Width 1: THE shard, driven on the caller's thread. Exactly one of
    /// `inline` and `lanes` is populated.
    inline: Option<Box<Shard>>,
    /// Width n ≥ 2: one lane per shard worker. Everything below down to
    /// `dropped` is their coordinator's bookkeeping, idle at width 1.
    lanes: Vec<Lane>,
    /// [`PoolConfig::batch_size`], at least 1: also what a snapshot stores.
    pub(crate) batch_size: usize,
    /// What the coordinator does with a worker that reports its shard
    /// dead: quarantine it under [`FailurePolicy::Degrade`], fail the pool
    /// otherwise (a worker under `Restart` reports only once it gave up).
    policy: FailurePolicy,
    /// The sticky terminal failure ([`FailurePolicy::Fail`] or escalation).
    failed: Option<WorkerFailure>,
    /// Items lost to quarantined shards ([`FailurePolicy::Degrade`]).
    dropped: u64,
    /// Under slack, every admitted event not released yet, those some
    /// query wants with the event, unrouted (`None`: the stream is
    /// trusted ordered).
    reorder: Option<ReorderBuffer<Event>>,
    /// Per type, the rows of events the reorder buffer has released, which
    /// the next admitted events of the type are written into: in steady
    /// state, admitting an event allocates nothing. At most as many as
    /// the buffer has held at once.
    released_rows: Vec<Vec<Vec<Value>>>,
    /// The stream clock: the largest admitted event time.
    clock: Timestamp,
    /// Events admitted so far — the latest one's arrival stamp, which
    /// orders the reorder buffer's ties and keys a staged row.
    seq: u64,
    /// Reusable round-trip scratch: which shards took the broadcast, and
    /// the replies' results per query.
    sent: Vec<bool>,
    merged: Vec<Vec<WindowResult>>,
    /// Reusable scratch: the `(query, shard)` pairs of the event staged.
    targets: Vec<(u32, usize)>,
    finished: bool,
}

impl StreamingPool {
    /// Open a pool over `hosted`, fresh or — with `resume` — from
    /// checkpointed state: the session's one way to build its pool.
    ///
    /// The width is `workers` when any query can shard; a session of only
    /// unshardable (no `GROUP-BY`) queries clamps to one shard per query
    /// at most, since each such query is pinned anyway ([`Placement`]).
    /// Width 1 is driven inline and hosts any [`EngineKind`]; wider pools
    /// spawn one thread per shard (the session admits only COGRA there).
    ///
    /// A resumed pool may have a *different* width than the snapshotting
    /// one: each query's partition entries are re-sharded by replaying the
    /// same `GROUP-BY`-prefix hash live routing uses, so the new layout is
    /// exactly what fresh shards fed the same stream would hold, and the
    /// reorder buffer is restored verbatim — once each of its in-flight
    /// events is found to be what the buffer could hold.
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
        let placement = Placement::of(&hosted, workers);
        if let Some(resume) = &resume {
            resume.check_clocks()?;
        }
        let (states, reorder, clock, arrivals) = match resume {
            Some(r) => (Some(r.states), r.reorder, r.clock, r.arrivals),
            None => (
                None,
                config.slack.map(ReorderBuffer::new),
                Timestamp::ZERO,
                0,
            ),
        };
        let shard_states = reshard(&hosted, &placement, states)?;
        // Build the engines here, not on the worker threads, so a corrupt
        // entry surfaces as a typed error instead of a worker panic.
        let mut shards = Vec::with_capacity(placement.width);
        for (index, states) in shard_states.into_iter().enumerate() {
            let engines = shard_engines(&hosted, &placement, index, states)?;
            shards.push(Shard::new(engines, 0));
        }
        // Every in-flight event is of a registered type, shaped like it and
        // of its schema's kinds (it is the type's blank row projected
        // onto), some query wants it (no other is ever buffered), and it
        // fits the state of every engine it is about to be delivered into —
        // checked while the engines are still here to ask.
        let session_route = SessionRoute::of(&hosted, placement.clone());
        let blank = &hosted[0].1.blank_rows;
        let in_flight = reorder.iter().flat_map(ReorderBuffer::ordered);
        for event in in_flight.filter_map(|(_, _, event)| event) {
            let row = blank.get(event.type_id.index());
            let why = match row.filter(|row| row.len() == event.attrs.len()) {
                None => "is of no registered type",
                Some(row)
                    if row
                        .iter()
                        .zip(&event.attrs)
                        .any(|(b, v)| b.kind() != v.kind()) =>
                {
                    "holds a value off its type's schema"
                }
                Some(_) if !session_route.wants(event) => "is wanted by no query",
                Some(_) => {
                    let mut fits = true;
                    session_route.each(event, |q, shard| {
                        let engine = shards[shard].engines[q as usize].as_ref();
                        fits &= engine.expect("a wanting query is hosted").accepts(event);
                    });
                    if fits {
                        continue;
                    }
                    "does not fit the state of a query that wants it"
                }
            };
            return Err(OpenError::State(CheckpointError::Corrupt(format!(
                "in-flight event {} at {} {why}",
                event.id, event.time
            ))));
        }
        let projection = Arc::new(Projection::of(&hosted));
        let mut lanes = Vec::new();
        let inline = if placement.width == 1 {
            shards.pop().map(Box::new)
        } else {
            for (index, shard) in shards.into_iter().enumerate() {
                let recovery = (config.policy == FailurePolicy::Restart)
                    .then(|| Recovery::new(hosted.clone(), placement.clone(), index));
                match Lane::spawn(shard, index, recovery, Arc::clone(&projection)) {
                    Ok(lane) => lanes.push(lane),
                    Err(e) => {
                        join_workers(&mut lanes);
                        return Err(OpenError::Session(SessionError::WorkerSpawn {
                            shard: index,
                            error: e.to_string(),
                        }));
                    }
                }
            }
            None
        };
        Ok(StreamingPool {
            inline,
            lanes,
            batch_size: config.batch_size.max(1),
            policy: config.policy,
            failed: None,
            dropped: 0,
            reorder,
            released_rows: vec![Vec::new(); projection.blank.len()],
            clock,
            seq: arrivals,
            sent: Vec::new(),
            merged: Vec::new(),
            targets: Vec::new(),
            finished: false,
            hosted,
            session_route,
            projection,
        })
    }

    /// Whether the pool drives its one shard on the caller's thread (no
    /// worker thread, no channel) — what `Session::run` picks its drain
    /// cadence from.
    pub(crate) fn is_inline(&self) -> bool {
        self.inline.is_some()
    }

    /// The session's fan-out — what [`SessionRoute::each`] does with an
    /// event of each type of `registry` (the one the pool was built for),
    /// a line a type: the engines it reaches, `name` naming hosted engine
    /// `q`, each hash group under its `GROUP-BY` list, then the engines on
    /// a fixed shard; `none` when no engine wants the type. What
    /// `cogra-run --explain` prints for a session.
    pub(crate) fn describe_fan_out(
        &self,
        registry: &TypeRegistry,
        name: &dyn Fn(u32) -> String,
    ) -> String {
        let SessionRoute { placement, types } = &self.session_route;
        let names = |queries: &mut dyn Iterator<Item = u32>| {
            queries.map(name).collect::<Vec<_>>().join(" ")
        };
        let mut out = format!("fan-out over {} shard(s):", placement.width);
        for ((_, schema), route) in registry.iter().zip(types) {
            let mut parts: Vec<String> = (route.hashed.iter())
                .map(|(first, queries)| {
                    let group = group_by(first).join(", ");
                    format!("by [{group}]: {}", names(&mut queries.iter().copied()))
                })
                .collect();
            for shard in 0..placement.width {
                let mut pinned = (0..route.fixed.len() as u32).filter(|&q| {
                    route.fixed[q as usize] && placement.fixed(q as usize) == Some(shard)
                });
                let pinned = names(&mut pinned);
                if !pinned.is_empty() {
                    parts.push(format!("shard {shard}: {pinned}"));
                }
            }
            let parts = if parts.is_empty() {
                "none".to_string()
            } else {
                parts.join("; ")
            };
            out.push_str(&format!("\n  {} → {parts}", schema.name()));
        }
        out
    }

    /// The width the session reports ([`Placement::workers`]).
    pub(crate) fn workers(&self) -> usize {
        self.session_route.placement.workers()
    }

    /// Observable stream progress: results for windows closing at or
    /// before it are final after the next [`StreamingPool::drain_into`].
    /// Without slack this is the largest routed event time; with slack it
    /// is the [`ReorderBuffer`]'s safe watermark (the largest time it has
    /// released), exactly like a front reorderer's released output.
    pub(crate) fn watermark(&self) -> Timestamp {
        (self.reorder.as_ref()).map_or(self.clock, ReorderBuffer::safe_watermark)
    }

    /// The disorder the pool repairs, in ticks (`None`: no slack).
    pub(crate) fn slack(&self) -> Option<u64> {
        self.reorder.as_ref().map(ReorderBuffer::slack)
    }

    /// Every shard's counters, in shard order: read live off the inline
    /// shard, or as of each worker's last drain (the workers run
    /// concurrently; there is no synchronous round trip here) and final
    /// once the pool has finished.
    fn shards(&self) -> impl Iterator<Item = ShardMetrics> + '_ {
        (self.inline.iter().map(|shard| shard.metrics()))
            .chain(self.lanes.iter().map(|lane| lane.mirror))
    }

    /// The pool's part of a session's [`Metrics`], in one pass over its
    /// shards: late drops, watermark, width, memory, routing counters,
    /// per-shard events and the shards' health. Shards run concurrently,
    /// so their memory adds. The session's own counters (`events`,
    /// `results`, `queries`, `physical`) and `ingested` stay 0.
    pub(crate) fn metrics(&self) -> Metrics {
        let mut m = Metrics {
            late: self.reorder.as_ref().map_or(0, ReorderBuffer::late_events),
            watermark: self.watermark().ticks(),
            workers: self.workers(),
            degraded: (self.lanes.iter().enumerate())
                .filter(|(_, lane)| lane.quarantined)
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
    pub(crate) fn key_overflow(&self) -> Option<u32> {
        match &self.inline {
            Some(shard) => shard.key_overflow(),
            None => self.lanes.iter().find_map(|lane| lane.mirror.key_overflow),
        }
    }

    /// Query `query`'s engine, while the pool is inline (worker threads
    /// own theirs).
    pub(crate) fn engine(&self, query: usize) -> Option<&dyn TrendEngine> {
        let engine = self.inline.as_ref()?.engines.get(query)?.as_deref()?;
        Some(engine)
    }

    /// The sticky terminal failure, if a shard worker died under
    /// [`FailurePolicy::Fail`] (or a restart loop escalated). Once set,
    /// the pool accepts no more events and emits nothing further.
    pub(crate) fn failure(&self) -> Option<&WorkerFailure> {
        self.failed.as_ref()
    }

    /// Snapshot the pool's live state without advancing it: flushes staged
    /// batches, then collects every shard's engine states (merged per
    /// query in shard-index order) next to a copy of the reorder buffer.
    /// The pool remains fully usable afterwards.
    ///
    /// A finished pool, a failed one ([`FailurePolicy::Fail`]) or a
    /// degraded one ([`FailurePolicy::Degrade`] after a quarantine) cannot
    /// checkpoint — part of its state is gone; the error is typed, never a
    /// partial snapshot. A worker whose shard dies *during* the snapshot
    /// under [`FailurePolicy::Restart`] revives it and answers anyway.
    pub(crate) fn snapshot(&mut self) -> Result<PoolState, CheckpointError> {
        if self.finished {
            return Err(CheckpointError::Unsupported(
                "cannot checkpoint a finished session".to_string(),
            ));
        }
        if let Some(shard) = &self.inline {
            // The one shard hosts every query: no `None` slots to merge.
            let states = shard.snapshot()?.states.into_iter().flatten().collect();
            return Ok(self.state_of(states));
        }
        self.snapshot_guard()?;
        self.ship_all();
        self.snapshot_guard()?;
        self.broadcast(&Cmd::Snapshot);
        let mut merged: Vec<Option<RouterState>> = (0..self.hosted.len()).map(|_| None).collect();
        for s in 0..self.lanes.len() {
            if !self.sent[s] {
                continue;
            }
            let Some(mut reply) = self.recv_reply(s) else {
                continue;
            };
            let snap = reply
                .snapshot
                .take()
                .expect("snapshot round trip returns shard state");
            self.absorb(s, &reply);
            for (q, st) in snap.states.into_iter().enumerate() {
                if let Some(st) = st {
                    match &mut merged[q] {
                        None => merged[q] = Some(st),
                        Some(m) => m.merge(st),
                    }
                }
            }
        }
        self.snapshot_guard()?;
        let states = merged
            .into_iter()
            .map(|m| m.expect("every query is hosted by at least one shard"))
            .collect();
        Ok(self.state_of(states))
    }

    /// The shards' collected state plus the pool's own: the reorder
    /// buffer and the stream clock.
    fn state_of(&self, states: Vec<RouterState>) -> PoolState {
        PoolState {
            states,
            reorder: self.reorder.clone(),
            arrivals: self.seq,
            clock: self.clock,
        }
    }

    /// The typed reasons a pool cannot produce a complete snapshot.
    fn snapshot_guard(&self) -> Result<(), CheckpointError> {
        if let Some(f) = &self.failed {
            return Err(CheckpointError::Unsupported(format!(
                "cannot checkpoint a failed session ({f})"
            )));
        }
        if self.lanes.iter().any(|lane| lane.quarantined) {
            return Err(CheckpointError::Unsupported(
                "cannot checkpoint a degraded session (a shard worker was quarantined)".into(),
            ));
        }
        Ok(())
    }

    /// Take in a live reply: mirror the shard's counters, and reclaim the
    /// batches it has let go — every one shipped before the command, since
    /// the worker drops its handles before it answers.
    fn absorb(&mut self, shard: usize, reply: &Reply) {
        let lane = &mut self.lanes[shard];
        lane.mirror = reply.metrics;
        lane.batches.reclaim();
    }

    /// Send `cmd` to every shard before any reply is collected, so the
    /// shards work on it concurrently; `self.sent` records who took it.
    fn broadcast(&mut self, cmd: &Cmd) {
        self.sent.clear();
        for shard in 0..self.lanes.len() {
            let sent = self.send_control(shard, cmd);
            self.sent.push(sent);
        }
    }

    /// Send one control command (`Drain`/`Snapshot`/`Finish`) to a shard,
    /// recovering per policy if its channel is dead. `false`: the shard is
    /// not participating (quarantined, or the pool failed).
    fn send_control(&mut self, shard: usize, cmd: &Cmd) -> bool {
        if self.failed.is_some() {
            return false;
        }
        let Some(tx) = self.lanes[shard].tx.as_ref() else {
            return false;
        };
        if tx.send(cmd.clone()).is_ok() {
            return true;
        }
        self.recover(shard, None);
        false
    }

    /// Receive a shard's reply to the command just broadcast, recovering
    /// per policy when its worker reported the shard dead instead. `None`:
    /// the shard dropped out of this round trip (quarantined or pool
    /// failed).
    fn recv_reply(&mut self, shard: usize) -> Option<Reply> {
        if self.failed.is_some() || self.lanes[shard].tx.is_none() {
            return None;
        }
        match recv_polling(&self.lanes[shard].rx) {
            Ok(reply) if reply.failure.is_none() => return Some(reply),
            Ok(reply) => self.recover(shard, reply.failure),
            Err(_) => self.recover(shard, None),
        }
        None
    }

    /// The worker on `shard` is gone (send failed, receive disconnected,
    /// or its failure reply arrived — passed as `got`): quarantine the
    /// shard under [`FailurePolicy::Degrade`], fail the pool otherwise. A
    /// worker under [`FailurePolicy::Restart`] revives its shard itself,
    /// so it is gone only once it gave up.
    fn recover(&mut self, shard: usize, got: Option<String>) {
        let failure = self.failure_of(shard, got);
        match self.policy {
            FailurePolicy::Degrade => self.quarantine(shard),
            FailurePolicy::Fail | FailurePolicy::Restart => self.fail_all(failure),
        }
    }

    /// Reap a dead worker and name its failure: close our end, skim its
    /// reply channel for the failure reply (it races the channel
    /// teardown), and join the thread.
    fn failure_of(&mut self, shard: usize, got: Option<String>) -> WorkerFailure {
        let lane = &mut self.lanes[shard];
        lane.tx = None;
        let mut message = got;
        while message.is_none() {
            match lane.rx.recv_timeout(std::time::Duration::from_secs(10)) {
                Ok(reply) => message = reply.failure, // skim data replies
                Err(_) => break,
            }
        }
        if let Some(t) = lane.thread.take() {
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
        join_workers(&mut self.lanes);
        self.lanes.iter_mut().for_each(Lane::clear);
    }

    /// [`FailurePolicy::Degrade`]: the shard stays dead. Everything ever
    /// staged for it (processed state and shipped or open batches alike)
    /// is accounted as dropped; its groups reroute to the next live shard
    /// from here on, the pool's reorder buffer included.
    fn quarantine(&mut self, shard: usize) {
        let lane = &mut self.lanes[shard];
        lane.quarantined = true;
        lane.mirror.memory = 0;
        lane.mirror.events = 0;
        self.dropped += std::mem::take(&mut lane.delivered);
        lane.clear();
    }

    /// Where an item bound for `shard` actually goes: the shard itself
    /// while it lives; after a quarantine, the next live shard (shardable
    /// queries — every shard hosts them) or nowhere (pinned queries whose
    /// home worker is gone).
    fn live_target(&self, shard: usize, query: u32) -> Option<usize> {
        if !self.lanes[shard].quarantined {
            return Some(shard);
        }
        if self.session_route.placement.fixed(query as usize).is_some() {
            return None;
        }
        let n = self.lanes.len();
        (1..n)
            .map(|k| (shard + k) % n)
            .find(|&s| !self.lanes[s].quarantined)
    }

    /// Ingest one event, by reference, for every `(query, shard)` pair the
    /// `SessionRoute` names; one no query wants only moves the stream
    /// clock and takes its stamp. At width 1 without slack the shard reads
    /// it in place: nothing is cloned, staged or hashed. At width n ≥ 2
    /// what the hosted plans read of it is copied once into the open batch
    /// of each target shard, with one route per query; a worker a bounded
    /// number of batches behind blocks the caller (backpressure). Without
    /// slack, events must arrive in non-decreasing time order; with slack,
    /// an admitted event waits in the reorder buffer — projected once if
    /// some query wants it, bare otherwise — until the stream clock is
    /// the slack past it, and is then dispatched like an in-order event;
    /// anything later than the slack allows is dropped and counted. A
    /// finished or failed pool ignores it.
    pub(crate) fn route(&mut self, event: &Event) {
        if self.finished || self.failed.is_some() {
            // Finished or terminally failed: ignore further input; the
            // caller sees `finished()` / the sticky `failure()`, never a
            // panic.
            return;
        }
        let Some(reorder) = &mut self.reorder else {
            self.seq += 1;
            self.clock = self.clock.max(event.time);
            return self.dispatch(event, self.seq);
        };
        let (route, projection) = (&self.session_route, &self.projection);
        let rows = &mut self.released_rows[event.type_id.index()];
        let owned = || projection.owned(event, rows.pop());
        let wanted = || route.wants(event).then(owned);
        if !reorder.push(event.time, self.seq + 1, wanted) {
            return;
        }
        self.seq += 1;
        self.clock = self.clock.max(event.time);
        let clock = self.clock;
        while let Some((stamp, event)) = self.reorder.as_mut().and_then(|r| r.release(clock)) {
            self.dispatch(&event, stamp);
            self.released_rows[event.type_id.index()].push(event.attrs);
        }
    }

    /// THE dispatch of an admitted event, in order — as it arrives without
    /// slack, or as the reorder buffer releases it — to every `(query,
    /// shard)` pair the `SessionRoute` names: into the inline shard's
    /// engines, or staged for the workers'.
    #[inline]
    fn dispatch(&mut self, event: &Event, stamp: u64) {
        let route = &self.session_route;
        if let Some(shard) = &mut self.inline {
            return route.each(event, |q, _| shard.process(event, q));
        }
        let targets = &mut self.targets;
        targets.clear();
        route.each(event, |q, s| targets.push((q, s)));
        for i in 0..self.targets.len() {
            let (query, shard) = self.targets[i];
            self.stage(shard, event, query, stamp);
        }
    }

    /// Stage `event`, admitted as number `stamp`, for `query` on a shard's
    /// open batch (rerouted past quarantined shards): its row, unless an
    /// earlier query already put it there, and a route. Ships the batch
    /// once it holds the configured number of routes.
    fn stage(&mut self, shard: usize, event: &Event, query: u32, stamp: u64) {
        let Some(shard) = self.live_target(shard, query) else {
            // A pinned query's home worker is quarantined — the item has
            // nowhere correct to go; count it instead of losing it silently.
            self.dropped += 1;
            return;
        };
        let lane = &mut self.lanes[shard];
        lane.delivered += 1;
        if lane.last_stamp != stamp {
            lane.open.push_row(event, &self.projection);
            lane.last_stamp = stamp;
        }
        lane.open.push_route(query);
        if lane.open.routes.len() >= self.batch_size {
            self.ship(shard);
        }
    }

    /// Send a shard's open batch as one [`Cmd::Batch`], keeping a handle,
    /// and reopen a spare in its place. A closed channel means the worker
    /// is gone, and the coordinator acts per policy; the batch is part of
    /// what that shard lost.
    fn ship(&mut self, shard: usize) {
        let lane = &mut self.lanes[shard];
        if lane.open.routes.is_empty() {
            return;
        }
        lane.batches.reclaim();
        let reopened = lane.batches.reopen();
        let batch = lane
            .batches
            .ship(std::mem::replace(&mut lane.open, reopened));
        lane.last_stamp = 0;
        let Some(tx) = lane.tx.as_ref() else {
            return; // quarantined or failed since staging
        };
        if tx.send(Cmd::Batch(batch)).is_err() {
            self.recover(shard, None);
        }
    }

    /// Ship every shard's open batch — always precedes a broadcast, so a
    /// drain or finish never outruns staged events.
    fn ship_all(&mut self) {
        for shard in 0..self.lanes.len() {
            self.ship(shard);
        }
    }

    /// Emit every result final at the safe watermark, per query in
    /// deterministic (window, group) order. Every shard first catches up
    /// to the watermark (workers: staged batches flush, then a broadcast),
    /// so shards whose sub-stream went quiet still close the windows that
    /// closed globally.
    pub(crate) fn drain_into(&mut self, out: &mut dyn FnMut(usize, WindowResult)) {
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

    /// End of stream: flush the reorder buffer and staged batches, close
    /// every open window on every shard, emit the merged remainder, and
    /// join the worker threads. Further drains are no-ops and further
    /// routing is ignored. On a terminally failed pool this emits nothing
    /// — the caller sees [`StreamingPool::failure`].
    pub(crate) fn finish_into(&mut self, out: &mut dyn FnMut(usize, WindowResult)) {
        if self.finished {
            return;
        }
        self.finished = true;
        if self.failed.is_none() {
            while let Some((stamp, event)) = self.reorder.as_mut().and_then(ReorderBuffer::flush) {
                self.dispatch(&event, stamp);
            }
        }
        match &mut self.inline {
            Some(shard) => shard.finish_into(&mut |q, r| out(q as usize, r)),
            None => {
                if self.failed.is_none() {
                    self.ship_all();
                    self.round_trip(Cmd::Finish, out);
                }
                join_workers(&mut self.lanes);
            }
        }
    }

    /// Broadcast one command to every live shard, then merge the replies
    /// per query. Command fan-out happens before any reply collection so
    /// the shards drain concurrently. Worker deaths along the way are
    /// handled per policy; a pool that fails terminally mid-trip emits
    /// nothing (no partial result set masquerading as a complete one).
    fn round_trip(&mut self, cmd: Cmd, out: &mut dyn FnMut(usize, WindowResult)) {
        self.broadcast(&cmd);
        let mut merged = std::mem::take(&mut self.merged);
        merged.resize_with(self.hosted.len(), Vec::new);
        for s in 0..self.lanes.len() {
            if !self.sent[s] {
                continue;
            }
            let Some(reply) = self.recv_reply(s) else {
                continue;
            };
            self.absorb(s, &reply);
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
fn join_workers(lanes: &mut [Lane]) {
    for lane in lanes {
        lane.tx = None;
        if let Some(t) = lane.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for StreamingPool {
    fn drop(&mut self) {
        join_workers(&mut self.lanes);
    }
}

/// Split checkpointed per-query states into `placement`'s shard layout
/// (`None` states: a fresh pool — every slot starts empty). Partition
/// entries follow their `GROUP-BY` hash; counters and the finalize spike
/// live once, on the query's first hosting shard; the watermark and drain
/// floor are global and go to every hosting shard.
fn reshard(
    hosted: &[Hosted],
    placement: &Placement,
    states: Option<Vec<RouterState>>,
) -> Result<Vec<Vec<Option<RouterState>>>, CheckpointError> {
    let width = placement.width;
    let mut shard_states: Vec<Vec<Option<RouterState>>> = (0..width)
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
        let fixed = placement.fixed(q);
        let home = fixed.unwrap_or(0);
        let mut split: Vec<Vec<Vec<u8>>> = (0..width).map(|_| Vec::new()).collect();
        if fixed.is_some() {
            split[home] = entries;
        } else {
            for entry in entries {
                let h = entry_group_hash(&entry, rt.query.group_prefix)?;
                split[placement.by_hash(h)].push(entry);
            }
        }
        for (s, entries) in split.into_iter().enumerate() {
            if !placement.hosts(q, s) {
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
/// hosts ([`Placement::hosts`]), revived from `states` where the layout
/// carries one.
fn shard_engines(
    hosted: &[Hosted],
    placement: &Placement,
    index: usize,
    states: Vec<Option<RouterState>>,
) -> Result<Vec<Option<Engine>>, CheckpointError> {
    hosted
        .iter()
        .zip(states)
        .enumerate()
        .map(|(q, ((kind, rt), state))| {
            if state.is_some() || placement.hosts(q, index) {
                kind.engine(Arc::clone(rt), state).map(Some)
            } else {
                Ok(None)
            }
        })
        .collect()
}

/// One shard: an engine per query it hosts ([`Placement::hosts`]), fed
/// its sub-stream in time-stamp order (the pool repairs disorder before
/// any shard sees an event). Driven by exactly one caller — a worker
/// thread's [`shard_worker`], or the pool itself at width 1 — and that driver, not
/// the shard, decides when to sample the memory peak: a sample is a few
/// adds per engine, and the sampling sites are part of what `peak`
/// means, so they stay where the drivers put them.
struct Shard {
    engines: Vec<Option<Engine>>,
    /// [`ShardMetrics::peak`].
    peak: usize,
    /// [`ShardMetrics::events`].
    events: u64,
}

impl Shard {
    /// A shard over pre-built engines; `events` seeds the ingest counter
    /// so a revived shard resumes its accounting.
    fn new(engines: Vec<Option<Engine>>, events: u64) -> Shard {
        let mut shard = Shard {
            engines,
            peak: 0,
            events,
        };
        shard.peak = shard.memory();
        shard
    }

    /// Serialize the shard for a pool snapshot or a worker's save
    /// ([`Recovery`]): every hosted engine's state and the ingest counter.
    fn snapshot(&self) -> Result<ShardSnapshot, CheckpointError> {
        let states = self
            .engines
            .iter()
            .map(|e| e.as_ref().map(|e| e.save_state()).transpose())
            .collect::<Result<_, _>>()?;
        Ok(ShardSnapshot {
            states,
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

    /// Feed `event` to query `query`'s engine — the one way into it.
    fn process(&mut self, event: &Event, query: u32) {
        let engine = self.engines[query as usize]
            .as_mut()
            .expect("the pool only targets hosted queries");
        engine.process(event);
        self.events += 1;
    }

    /// Catch the shard up to the pool's safe watermark — every event at
    /// or before it was handed over already — so globally-closed windows
    /// finalize even if this shard's own sub-stream went quiet.
    fn advance_to(&mut self, safe: Timestamp) {
        for e in self.engines.iter_mut().flatten() {
            e.advance_watermark(safe);
        }
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

/// What a worker under [`FailurePolicy::Restart`] revives its shard from:
/// the shard as the worker last saved it — when it started, at every
/// drain or snapshot it answered, and after every [`MAX_KEPT_BATCHES`]
/// batches it ingested in between — and every batch it received since.
/// Nothing left the shard in between (results leave only at drains), so
/// the saved engines fed the kept batches are the shard as it was.
struct Recovery {
    /// What [`shard_engines`] rebuilds the engines from.
    hosted: Vec<Hosted>,
    placement: Placement,
    index: usize,
    saved: ShardSnapshot,
    kept: Vec<Arc<Batch>>,
    /// Revivals over the worker's life, for the [`MAX_RESTARTS`] escalation.
    restarts: u32,
}

impl Recovery {
    fn new(hosted: Vec<Hosted>, placement: Placement, index: usize) -> Recovery {
        Recovery {
            hosted,
            placement,
            index,
            saved: ShardSnapshot::default(),
            kept: Vec::new(),
            restarts: 0,
        }
    }

    /// Save the shard as it stands and let go of the batches it absorbed.
    fn save(&mut self, shard: &Shard) {
        // Worker threads only host COGRA engines, which always snapshot.
        self.saved = shard.snapshot().expect("router-backed engines snapshot");
        self.kept.clear();
    }

    /// Revive `shard`, which died with `message`: rebuild it from the saved
    /// state and replay every kept batch, again if the replay dies too.
    /// `Err`: the failure to report instead — the shard died a
    /// [`MAX_RESTARTS`]-plus-first time, or the saved state does not
    /// rebuild.
    fn revive(
        &mut self,
        shard: &mut Shard,
        mut message: String,
        projection: &Projection,
        scratch: &mut [Event],
    ) -> Result<(), String> {
        loop {
            if self.restarts == MAX_RESTARTS {
                return Err(format!(
                    "giving up after {MAX_RESTARTS} restarts: {message}"
                ));
            }
            self.restarts += 1;
            let states = self.saved.states.clone();
            let engines = shard_engines(&self.hosted, &self.placement, self.index, states)
                .map_err(|e| format!("recovery baseline is unusable: {e}"))?;
            // The dead shard's peak was reached all the same.
            let peak = shard.peak;
            *shard = Shard::new(engines, self.saved.events);
            shard.peak = shard.peak.max(peak);
            let replay = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for batch in &self.kept {
                    ingest_batch(shard, batch, projection, scratch);
                    kill(format_args!("worker/replay/{}", self.index));
                }
            }));
            match replay {
                Ok(()) => return Ok(()),
                Err(payload) => message = panic_message(payload.as_ref()),
            }
        }
    }
}

/// A shard's worker thread: drive the shard over its sub-stream, replying
/// to drain/snapshot/finish round trips ([`shard_step`]), and supervise
/// it. A panic in a step is caught, never re-raised into the coordinator.
/// With `recovery` ([`FailurePolicy::Restart`]) the worker revives the
/// shard here, replays the batch it was ingesting with the others it
/// kept, and runs an interrupted control command again; otherwise, or once
/// revival gives up, it sends the failure as its last [`Reply`] and exits,
/// and the coordinator acts per policy. Of a dead shard only the memory
/// peak is read again before it is replaced or dropped, so
/// `AssertUnwindSafe` is sound.
fn shard_worker(
    mut shard: Shard,
    index: usize,
    mut recovery: Option<Recovery>,
    projection: &Projection,
    rx: Receiver<Cmd>,
    tx: Sender<Reply>,
) {
    // The only events the engines ever see: each row is loaded into its
    // type's.
    let mut scratch = projection.scratch();
    if let Some(recovery) = &mut recovery {
        recovery.save(&shard);
    }
    let mut retry = None;
    while let Some(cmd) = retry.take().or_else(|| recv_polling(&rx).ok()) {
        if let (Some(recovery), Cmd::Batch(batch)) = (&mut recovery, &cmd) {
            recovery.kept.push(Arc::clone(batch));
        }
        let step = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shard_step(&mut shard, index, &cmd, projection, &mut scratch)
        }));
        let message = match step {
            Ok(None) => {
                if let Some(recovery) = recovery.as_mut() {
                    if recovery.kept.len() >= MAX_KEPT_BATCHES {
                        recovery.save(&shard);
                    }
                }
                continue;
            }
            Ok(Some(reply)) => {
                let finish = matches!(cmd, Cmd::Finish);
                if let Some(recovery) = recovery.as_mut().filter(|_| !finish) {
                    recovery.save(&shard);
                }
                // A failed send means the coordinator dropped mid-round-trip.
                if tx.send(reply).is_err() || finish {
                    return;
                }
                continue;
            }
            Err(payload) => panic_message(payload.as_ref()),
        };
        let revived = match &mut recovery {
            Some(recovery) => recovery.revive(&mut shard, message, projection, &mut scratch),
            None => Err(message),
        };
        match revived {
            // A batch was replayed with the kept ones.
            Ok(()) => retry = (!matches!(cmd, Cmd::Batch(_))).then_some(cmd),
            Err(message) => {
                let failure = Some(message);
                let _ = tx.send(Reply {
                    failure,
                    ..Reply::default()
                });
                return;
            }
        }
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

/// A scheduled kill of a worker's shard at fault site `site` (`--features
/// faults`): the worker's supervisor catches the panic.
fn kill(site: std::fmt::Arguments<'_>) {
    if let Some(fault) = cogra_faults::message(site) {
        panic!("{fault}");
    }
}

/// Ingest one transported batch, sampling the memory peak every 64 items
/// and at the batch-flush boundary — a burst shorter than the stride
/// would otherwise leave its peak invisible until the next drain. The
/// routes replay through `scratch` ([`Projection::scratch`]), loading a
/// row once for all its (adjacent) routes.
fn ingest_batch(shard: &mut Shard, batch: &Batch, projection: &Projection, scratch: &mut [Event]) {
    // `scratch` holds some other batch's rows on entry.
    let mut loaded = usize::MAX;
    for stride in batch.routes.chunks(64) {
        for route in stride {
            let event = if loaded == route.row {
                &scratch[batch.rows.row(route.row).type_id.index()]
            } else {
                loaded = route.row;
                batch.load(route.row, projection, scratch)
            };
            shard.process(event, route.query);
        }
        shard.sample_peak();
    }
}

/// Run one command on the shard: ingest a batch (no reply), or answer a
/// drain, snapshot or finish. With the `faults` feature, per-shard
/// failpoints (`worker/batch/{i}`, `worker/drain/{i}`,
/// `worker/snapshot/{i}`, `worker/finish/{i}`, and `worker/replay/{i}`
/// while a revived shard replays a batch) panic the step on schedule —
/// each shard's command stream is deterministic given the routing, so the
/// hit counters are too.
fn shard_step(
    shard: &mut Shard,
    index: usize,
    cmd: &Cmd,
    projection: &Projection,
    scratch: &mut [Event],
) -> Option<Reply> {
    let mut results = Vec::new();
    let snapshot = match cmd {
        Cmd::Batch(batch) => {
            ingest_batch(shard, batch, projection, scratch);
            // Fire *after* the batch mutated the engines: recovery must
            // discard the partial work, not resume over it.
            kill(format_args!("worker/batch/{index}"));
            return None;
        }
        Cmd::Drain(wm) => {
            kill(format_args!("worker/drain/{index}"));
            shard.advance_to(*wm);
            shard.sample_peak();
            shard.drain_into(&mut |q, r| results.push((q, r)));
            None
        }
        Cmd::Snapshot => {
            kill(format_args!("worker/snapshot/{index}"));
            shard.sample_peak();
            Some(shard.snapshot().expect("router-backed engines snapshot"))
        }
        Cmd::Finish => {
            kill(format_args!("worker/finish/{index}"));
            shard.sample_peak();
            shard.finish_into(&mut |q, r| results.push((q, r)));
            None
        }
    };
    Some(Reply {
        results,
        metrics: shard.metrics(),
        snapshot,
        failure: None,
    })
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

    /// Transport tuning: `batch_size`, no slack, `Fail`.
    fn config(batch_size: usize) -> PoolConfig {
        PoolConfig {
            batch_size,
            slack: None,
            policy: FailurePolicy::Fail,
        }
    }

    /// A fresh pool of COGRA engines over `runtimes`, as a session opens it.
    fn open(runtimes: Vec<Arc<QueryRuntime>>, workers: usize, config: PoolConfig) -> StreamingPool {
        let hosted = (runtimes.into_iter()).map(|rt| (EngineKind::Cogra, rt));
        let pool = StreamingPool::open(hosted.collect(), workers, config, None);
        pool.unwrap_or_else(|_| panic!("a fresh pool opens"))
    }

    fn pool(rt: &Arc<QueryRuntime>, workers: usize, batch: usize) -> StreamingPool {
        open(vec![Arc::clone(rt)], workers, config(batch))
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
        let runtimes = vec![Arc::clone(&rt), Arc::clone(&rt2)];
        let mut pool = open(runtimes, 4, config(DEFAULT_BATCH_SIZE));
        assert_eq!(pool.hosted.len(), 2);
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
        let mut pool = open(vec![sums, peaks], 2, config(DEFAULT_BATCH_SIZE));
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
                assert_eq!(row.values, expected, "row of {event:?}");
                // What a worker hands its engines: blanks around the row.
                let loaded = batch.load(r, &pool.projection, &mut scratch);
                assert_eq!(*loaded, pool.projection.owned(event, None));
                assert_eq!(loaded.attrs[1], Value::str(""), "unread: {loaded:?}");
                assert_eq!(loaded.attrs[3], Value::Bool(false), "unread: {loaded:?}");
                rows += 1;
            }
        }
        assert_eq!(rows, events.len(), "one row per event");
    }

    /// Drive `pool` over `events`, draining after every `chunk` events.
    fn drive(pool: &mut StreamingPool, events: &[Event], chunk: usize) -> Vec<Vec<WindowResult>> {
        let mut per_query = vec![Vec::new(); pool.hosted.len()];
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
        // The workers have joined, so every shipped batch is free: the one
        // reopened is recycled whatever the threads' timing was.
        for lane in &mut recycling.lanes {
            lane.batches.reclaim();
            let reopened = &lane.batches.reopen();
            assert!(
                reopened.rows.heads.capacity() > 0,
                "the open batch is a recycled one"
            );
            assert!(reopened.rows.is_empty() && reopened.routes.is_empty());
            assert!(
                reopened.rows.values.is_empty(),
                "no value outlives its batch"
            );
        }
    }

    #[test]
    fn restart_journals_batch_handles_not_items() {
        let (rt, events) = setup(300);
        let batch_size = 7;
        let restart = PoolConfig {
            policy: FailurePolicy::Restart,
            ..config(batch_size)
        };
        let mut pool = open(vec![Arc::clone(&rt)], 2, restart);
        for e in &events {
            pool.route(e);
        }
        // Each worker keeps every batch it received since it started, so
        // the coordinator reclaims none of them before the drain: one
        // handle per shipped batch, every staged item in one of them or in
        // the open batch.
        for lane in &pool.lanes {
            let delivered = lane.delivered as usize;
            assert!(delivered > batch_size, "both shards see traffic");
            assert_eq!(
                lane.batches.shipped.len(),
                delivered / batch_size,
                "one handle per batch"
            );
            assert_eq!(lane.open.routes.len(), delivered % batch_size);
            let kept: usize = lane.batches.shipped.iter().map(|b| b.routes.len()).sum();
            assert_eq!(kept + lane.open.routes.len(), delivered);
        }
        // A drain is a save: the workers let go of their batches before
        // they answer, and the coordinator reclaims them as spares.
        pool.drain_into(&mut |_q, _r| {});
        for lane in &pool.lanes {
            assert!(
                lane.batches.shipped.is_empty(),
                "the save supersedes the kept batches"
            );
            assert!(!lane.batches.spare.is_empty());
            assert!(lane.batches.spare.iter().all(|b| b.routes.is_empty()));
        }
    }

    #[test]
    fn a_restart_worker_keeps_a_bounded_number_of_batches_between_drains() {
        let (rt, events) = setup(4_000);
        let config = PoolConfig {
            policy: FailurePolicy::Restart,
            ..config(1)
        };
        let mut restart = open(vec![Arc::clone(&rt)], 2, config);
        for e in &events {
            restart.route(e);
        }
        // Far more batches than the bound went to each worker, and no
        // drain came: once a worker has ingested them all, it holds no
        // more than the ones since its last save on its own, and the
        // coordinator reclaims the rest.
        for lane in &mut restart.lanes {
            assert!(lane.delivered as usize > 10 * MAX_KEPT_BATCHES);
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
            loop {
                lane.batches.reclaim();
                let held = lane.batches.shipped.len();
                if held < MAX_KEPT_BATCHES || std::time::Instant::now() > deadline {
                    assert!(held < MAX_KEPT_BATCHES, "{held} batches still held");
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let mut got = Vec::new();
        restart.finish_into(&mut |_q, r| got.push(r));
        let mut inline = pool(&rt, 1, 1);
        for e in &events {
            inline.route(e);
        }
        let mut want = Vec::new();
        inline.finish_into(&mut |_q, r| want.push(r));
        assert_eq!(got, want, "saving on its own changes no result");
    }

    /// The runtime of `query` over `registry`.
    fn runtime(query: &str, registry: &TypeRegistry) -> Arc<QueryRuntime> {
        let plan = cogra_query::compile(&cogra_query::parse(query).unwrap(), registry).unwrap();
        Arc::new(QueryRuntime::new(plan, registry))
    }

    #[test]
    fn queries_with_one_group_by_share_one_hash_per_type() {
        let mut reg = TypeRegistry::new();
        let attrs = || vec![("g", ValueKind::Int), ("h", ValueKind::Int)];
        let a = reg.register_type("A", attrs());
        let b = reg.register_type("B", attrs());
        let c = reg.register_type("C", vec![("v", ValueKind::Int)]);
        let hosted: Vec<Hosted> = [
            "RETURN g, COUNT(*) PATTERN SEQ(A+, B) SEMANTICS ANY GROUP-BY g WITHIN 16 SLIDE 8",
            "RETURN g, COUNT(*) PATTERN A+ SEMANTICS NEXT GROUP-BY g WITHIN 16 SLIDE 8",
            "RETURN h, COUNT(*) PATTERN SEQ(A, B+) SEMANTICS ANY GROUP-BY h WITHIN 16 SLIDE 8",
            "RETURN COUNT(*) PATTERN SEQ(A, B) SEMANTICS ANY WITHIN 16 SLIDE 8",
        ]
        .iter()
        .map(|q| (EngineKind::Cogra, runtime(q, &reg)))
        .collect();
        let entries = |route: &SessionRoute, t: TypeId| {
            let (placement, route) = (&route.placement, &route.types[t.index()]);
            let hashed = route.hashed.iter().map(|(_, q)| q.clone()).collect();
            let fixed = (route.fixed.iter().enumerate()).filter(|(_, fixed)| **fixed);
            let fixed = fixed
                .map(|(q, _)| (q as u32, placement.fixed(q).unwrap()))
                .collect();
            (hashed, fixed)
        };
        let wide = SessionRoute::of(&hosted, Placement::of(&hosted, 2));
        // q0 and q1 group by `g`: one hash places both. q2 groups by `h`,
        // q3 is pinned to shard 3 % 2.
        assert_eq!(entries(&wide, a), (vec![vec![0, 1], vec![2]], vec![(3, 1)]));
        // q1 binds no `B`: under NEXT it drops one before any window.
        assert_eq!(entries(&wide, b), (vec![vec![0], vec![2]], vec![(3, 1)]));
        // `C` carries no key and is bound by no one: nobody wants it.
        assert_eq!(entries(&wide, c), (vec![], vec![]));
        // Width 1 hashes nothing: every wanting query is on shard 0.
        let inline = SessionRoute::of(&hosted, Placement::of(&hosted, 1));
        let all = vec![(0, 0), (1, 0), (2, 0), (3, 0)];
        assert_eq!(entries(&inline, a), (vec![], all));
        assert_eq!(entries(&inline, c), (vec![], vec![]));
    }

    #[test]
    fn every_placement_answer_is_the_one_rule() {
        // Two `GROUP-BY` lists and two group-free queries: the shards the
        // route names, the engines a shard hosts, where a restored
        // snapshot's entries land and what `--explain` prints must be the
        // answers of one rule at every width.
        let mut reg = TypeRegistry::new();
        let attrs = || vec![("g", ValueKind::Int), ("h", ValueKind::Int)];
        let a = reg.register_type("A", attrs());
        let b = reg.register_type("B", attrs());
        let hosted: Vec<Hosted> = [
            "RETURN g, COUNT(*) PATTERN SEQ(A+, B) SEMANTICS ANY GROUP-BY g WITHIN 16 SLIDE 8",
            "RETURN h, COUNT(*) PATTERN SEQ(A, B+) SEMANTICS ANY GROUP-BY h WITHIN 16 SLIDE 8",
            "RETURN COUNT(*) PATTERN SEQ(A+, B) SEMANTICS ANY WITHIN 16 SLIDE 8",
            "RETURN COUNT(*) PATTERN A+ SEMANTICS NEXT WITHIN 16 SLIDE 8",
        ]
        .iter()
        .map(|q| (EngineKind::Cogra, runtime(q, &reg)))
        .collect();
        let mut builder = EventBuilder::new();
        let events: Vec<Event> = (0..120i64)
            .map(|i| {
                let attrs = vec![Value::Int(i % 5), Value::Int(i % 7)];
                builder.event(i as u64 + 1, if i % 3 == 2 { b } else { a }, attrs)
            })
            .collect();
        // Every query's partitions mid-stream: what a snapshot holds.
        let open_at = |width| {
            let pool = StreamingPool::open(hosted.clone(), width, config(4), None);
            pool.unwrap_or_else(|_| panic!("a fresh pool opens"))
        };
        let mut inline = open_at(1);
        events.iter().for_each(|e| inline.route(e));
        let states = inline.snapshot().unwrap().states;
        for width in 1..=4 {
            let pool = open_at(width);
            let placement = &pool.session_route.placement;
            assert_eq!(pool.metrics().workers, width);
            let fresh = || (0..hosted.len()).map(|_| None).collect();
            let engines: Vec<Vec<Option<Engine>>> = (0..width)
                .map(|s| shard_engines(&hosted, placement, s, fresh()).unwrap())
                .collect();
            // The route names only shards that host the query.
            let mut routed = std::collections::BTreeSet::new();
            for e in &events {
                pool.session_route.each(e, |q, s| {
                    let q = q as usize;
                    assert!(engines[s][q].is_some(), "width {width}: q{q} to shard {s}");
                    routed.insert((e.type_id.index(), q, s));
                });
            }
            // A restored snapshot's entries sit on hosting shards, each on
            // one the route named for its query.
            let split = reshard(&hosted, placement, Some(states.clone())).unwrap();
            for (s, shard) in split.iter().enumerate() {
                for (q, state) in shard.iter().enumerate() {
                    assert_eq!(state.is_some(), placement.hosts(q, s), "q{q} on {s}");
                    if state
                        .as_ref()
                        .is_some_and(|state| !state.entries.is_empty())
                    {
                        assert!(routed.iter().any(|&(_, rq, rs)| (rq, rs) == (q, s)));
                    }
                }
            }
            let entries = |q: usize| split.iter().flat_map(move |shard| &shard[q]);
            for (q, state) in states.iter().enumerate() {
                let count: usize = entries(q).map(|state| state.entries.len()).sum();
                assert_eq!(count, state.entries.len(), "width {width}: q{q}'s entries");
            }
            // `--explain` lists every pair the route names, and beyond them
            // only queries placed by hash (on every shard).
            let text = pool.describe_fan_out(&reg, &|q| format!("q{q}"));
            for (t, line) in text.lines().skip(1).enumerate() {
                let mut listed = std::collections::BTreeSet::new();
                for part in line.split_once(" → ").unwrap().1.split("; ") {
                    let (head, names) = part.split_once(": ").unwrap();
                    let shards: Vec<usize> = match head.strip_prefix("shard ") {
                        Some(shard) => vec![shard.parse().unwrap()],
                        None => (0..width).collect(),
                    };
                    for name in names.split(' ') {
                        let q: usize = name[1..].parse().unwrap();
                        listed.extend(shards.iter().map(|&s| (t, q, s)));
                    }
                }
                let of_t = routed.iter().filter(|(rt, _, _)| *rt == t).copied();
                let of_t: std::collections::BTreeSet<_> = of_t.collect();
                assert!(of_t.is_subset(&listed), "width {width}: {line}");
                for (_, q, s) in listed.difference(&of_t) {
                    assert!(placement.fixed(*q).is_none(), "width {width}: q{q} on {s}");
                }
            }
        }
    }

    #[test]
    fn an_unwanted_event_is_never_staged_yet_closes_its_windows() {
        let mut reg = TypeRegistry::new();
        let a = reg.register_type("A", vec![("g", ValueKind::Int), ("v", ValueKind::Int)]);
        let b = reg.register_type("B", vec![("g", ValueKind::Int), ("v", ValueKind::Int)]);
        let t = reg.register_type("T", vec![("v", ValueKind::Int)]);
        let rt = runtime(
            "RETURN g, COUNT(*) PATTERN SEQ(A+, B) SEMANTICS ANY GROUP-BY g WITHIN 16 SLIDE 8",
            &reg,
        );
        let mut builder = EventBuilder::new();
        let events: Vec<Event> = (0..12i64)
            .map(|i| {
                builder.event(
                    i as u64 + 1,
                    if i % 3 == 2 { b } else { a },
                    vec![Value::Int(i % 2), Value::Int(i)],
                )
            })
            .collect();
        // What a drain at 40 emits after the same prefix and a wanted
        // event at 40, which none of the windows it closes holds.
        let closing = |last: Event| {
            let mut pool = pool(&rt, 2, 1_000);
            events.iter().for_each(|e| pool.route(e));
            let staged = |pool: &StreamingPool| {
                let rows: usize = pool.lanes.iter().map(|l| l.open.rows.len()).sum();
                let routes: usize = pool.lanes.iter().map(|l| l.open.routes.len()).sum();
                (rows, routes)
            };
            let before = staged(&pool);
            pool.route(&last);
            let after = staged(&pool);
            let mut results = Vec::new();
            pool.drain_into(&mut |_, r| results.push(r));
            WindowResult::sort(&mut results);
            (before, after, results, pool.watermark())
        };
        let tick = builder.event(40, t, vec![Value::Int(0)]);
        let (before, after, results, watermark) = closing(tick);
        assert_eq!(before, after, "no row, no route");
        assert_eq!(watermark, Timestamp(40), "it moved the clock");
        assert!(!results.is_empty());
        let wanted = builder.event(40, b, vec![Value::Int(0), Value::Int(0)]);
        let (_, staged, same, _) = closing(wanted);
        assert_ne!(staged, before, "a wanted event is staged");
        assert_eq!(results, same, "the windows its time closed");
    }

    #[test]
    fn a_checkpoint_holds_only_what_the_buffer_has_not_released() {
        // Disordered within the slack; the last stretch only for group 0,
        // so the shard without it hears nothing newer. Whatever the buffer
        // has released is in the engines at every width, quiet shard or
        // not: a snapshot's buffered entries are all later than its safe
        // watermark.
        let (rt, events) = setup(240);
        let mut events: Vec<Event> = (events.into_iter().enumerate())
            .map(|(i, mut e)| {
                if i >= 160 {
                    e.attrs[0] = Value::Int(0);
                }
                e
            })
            .collect();
        events.chunks_mut(4).for_each(<[Event]>::reverse);
        let config = PoolConfig {
            slack: Some(6),
            ..config(16)
        };
        let mut pool = open(vec![rt], 2, config);
        events.iter().for_each(|e| pool.route(e));
        let safe = pool.watermark();
        let state = pool.snapshot().unwrap();
        assert!(safe > Timestamp(200), "the buffer passed the quiet stretch");
        let reorder = state.reorder.expect("slack");
        let held = reorder.ordered();
        assert!(
            held.iter().any(|(_, _, event)| event.is_some()),
            "the slack holds the tail"
        );
        for (time, stamp, _) in held {
            assert!(time > safe, "item {stamp} at {time} is at or before {safe}");
        }
    }

    #[test]
    fn batch_flush_samples_peak_below_the_64_event_stride() {
        // A burst shorter than the 64-event sampling stride must still
        // register its peak at the batch-flush boundary — sampling only
        // every 64 events under-reported sub-interval bursts.
        let (rt, events) = setup(10);
        let hosted = [(EngineKind::Cogra, Arc::clone(&rt))];
        let engines = shard_engines(&hosted, &Placement::of(&hosted, 1), 0, vec![None]).unwrap();
        let mut shard = Shard::new(engines, 0);
        let projection = Projection::of(&hosted);
        let mut batch = Batch::default();
        for e in &events {
            batch.push_row(e, &projection);
            batch.push_route(0);
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
