//! Generic partition/window router shared by COGRA and the baseline
//! engines.
//!
//! Every engine in this workspace has the same outer structure (§7):
//! partition the stream by the `GROUP-BY` ∪ equivalence attributes, assign
//! each event to its sliding windows, run a per-window algorithm, and
//! finalize a window once the watermark passes its end. Only the
//! per-window algorithm differs — COGRA's coarse-grained aggregators,
//! SASE's stacks + DFS, GRETA's event graph, A-Seq's prefix counters,
//! Flink's two-step sequence construction, or the brute-force oracle.
//! [`Router`] implements the shared structure over a [`WindowAlgo`].
//!
//! ## The hot path is allocation-free
//!
//! Routing an event performs no heap allocation and no tree probe,
//! whether or not its key, its partition or its windows are new:
//!
//! * the partition key is hashed **in place** off the event's attributes
//!   ([`QueryRuntime::key_hash`]) and resolved to a dense
//!   [`PartitionId`] by the [`KeyInterner`] — a first-seen key is copied
//!   straight into the interner's flat buffer;
//! * partitions live in a `Vec` indexed by [`PartitionId`], not a
//!   `HashMap<GroupKey, _>`;
//! * a partition's open windows form a contiguous [`WindowId`] range, so
//!   they live in a ring buffer (a `VecDeque` whose tail is
//!   id-consecutive) and the per-event per-window "probe" is an index
//!   computation off the back entry's id, not a `BTreeMap` walk;
//! * what a drain closes is what the next events open: a closed window
//!   is [`WindowAlgo::reset`] in place and reopened with its buffers, a
//!   partition whose ring drained empty lends the ring to the next
//!   partition that opens its first window, and the drain's list of
//!   closing cells is reused from slide to slide (see `Recycled`). The
//!   pools are bounded by the peak number of simultaneously open
//!   windows, and pooled capacity is not state:
//!   [`TrendEngine::memory_bytes`] does not count it.
//!
//! What is left is amortised growth (the interner's and the partition
//! table's doubling, up to the peak resident key count) and the two
//! vectors of each emitted result.
//!
//! ## State is O(resident keys)
//!
//! A partition is *resident* while it holds an open window. The drain
//! that closes its last window retires it: every window that could
//! contain one of its events has closed, so nothing a future event needs
//! is lost. Its key leaves the interner, its [`PartitionId`] goes on the
//! interner's free list, and the next first-seen key takes over the id,
//! the key slot and the (empty) partition slot. An id is therefore
//! stable only while its partition is resident, and which id a key gets
//! depends on when drains ran — so nothing observable does:
//!
//! * results are emitted in `(window, group)` order and the cells of one
//!   group merge in **partition-key order**, both read off the keys
//!   themselves (the `GROUP-BY` values are a prefix of the partition
//!   key, so one sort by `(window, partition key)` yields both);
//! * [`RunStats::key_allocs`] counts key *lives* by a rule on the stream
//!   alone (see `Router::ingest`), not interner insertions;
//! * a snapshot holds the resident partitions, which is all there is.
//!
//! The one exception is a configured `key_limit`: it bounds resident
//! keys, so which keys are refused follows the drain cadence.
//!
//! ## One way in
//!
//! [`TrendEngine::process`] is the only way an event enters a router, at
//! every width. The router reads the type's compiled route first and
//! hashes the full partition key only for an event that reaches a window;
//! nothing upstream hands it a hash. A §8 shard pool places an event by
//! its `GROUP-BY` prefix alone, which is a different hash over fewer
//! attributes. [`Router::run_stats`] counts probes vs. first-seen keys.

use crate::agg::Cell;
use crate::capabilities::Capabilities;
use crate::engine::TrendEngine;
use crate::intern::{hash_values, KeyInterner, PartitionId, RunStats};
use crate::output::WindowResult;
use crate::runtime::{EngineConfig, QueryRuntime};
use cogra_checkpoint::{CheckpointError, Dec, Enc};
use cogra_events::{Event, Timestamp, TypeRegistry, Value, WindowId, WindowSpan, WindowSpec};
use cogra_query::{CompiledQuery, NegId, QueryError, QueryResult, Route, StateId};
use std::collections::VecDeque;
use std::sync::Arc;

/// Per-disjunct bindings of the current event: the states it can bind to
/// (type matched, local predicates passed) and the negated variables it
/// matches. Compiled once per type where no local filter decides them
/// ([`Route::Static`] in [`QueryRuntime::routes`]), evaluated per event by
/// the router where one does.
#[derive(Debug, Default)]
pub struct EventBinds {
    /// `(positive states, matched negations)` per disjunct.
    pub per_disjunct: Vec<(Vec<StateId>, Vec<NegId>)>,
}

impl EventBinds {
    /// Whether the event binds no positive state and no negation in any
    /// disjunct (it is still delivered — contiguous semantics and the
    /// two-step baselines need to see every event of the partition).
    pub fn is_irrelevant(&self) -> bool {
        self.per_disjunct
            .iter()
            .all(|(b, n)| b.is_empty() && n.is_empty())
    }
}

/// A per-window algorithm plugged into the [`Router`]: what one approach
/// of the evaluation does inside a window, its name and its Table 9 row.
pub trait WindowAlgo {
    /// The engine's lower-case name, as [`TrendEngine::name`] reports it
    /// and a snapshot records it.
    const NAME: &'static str;

    /// The engine's row of Table 9: the query features it supports, which
    /// [`Router::admit`] enforces.
    const TABLE9: Capabilities;

    /// Inline bytes of `Self` that are accounting instruments — a running
    /// byte counter kept in the window struct — rather than state. The
    /// router leaves them out of a ring slot's size, as the window leaves
    /// them out of its own, so adding an instrument never moves a
    /// reported figure.
    const INSTRUMENT_BYTES: usize = 0;

    /// Fresh state for one window instance.
    fn new(rt: &QueryRuntime) -> Self;

    /// Return a closed window to the state [`WindowAlgo::new`] builds, so
    /// the router can reopen it under another id. Implementations that
    /// can clear in place override this to keep their buffers' capacity;
    /// either way `memory_bytes()` afterwards is a fresh window's.
    fn reset(&mut self, rt: &QueryRuntime)
    where
        Self: Sized,
    {
        *self = Self::new(rt);
    }

    /// Process one event of this window's partition. Events arrive in
    /// non-decreasing time order; `binds` was computed by the router.
    /// Returns the change in [`WindowAlgo::memory_bytes`] the event caused:
    /// the router folds it into its running total, so the per-event path
    /// never reads a window's footprint.
    fn on_event(&mut self, rt: &QueryRuntime, event: &Event, binds: &EventBinds) -> isize;

    /// Finalize: the combined aggregate cell of this window (across
    /// disjuncts). Called exactly once, when the window closes.
    fn final_cell(&mut self, rt: &QueryRuntime) -> Cell;

    /// Logical memory footprint in bytes. Must be O(1): implementations
    /// maintain the figure where their state changes instead of computing
    /// it here.
    fn memory_bytes(&self) -> usize;

    /// The definition [`WindowAlgo::memory_bytes`] must equal, computed by
    /// walking the window's state — read through the plan it was built
    /// by — the reference the debug build asserts the running figure
    /// against. Compiled in every build, so that a crate built with debug
    /// assertions links against one built without (rustdoc's release
    /// doc-tests); only the assertions are debug-only.
    fn audit_bytes(&self, rt: &QueryRuntime) -> usize;

    /// Serialize this window's full mutable state for a checkpoint.
    /// Inverse of [`WindowAlgo::load`].
    fn save(&self, rt: &QueryRuntime, enc: &mut Enc);

    /// Rebuild a window from bytes produced by [`WindowAlgo::save`]
    /// against the same compiled runtime.
    fn load(rt: &QueryRuntime, dec: &mut Dec) -> Result<Self, CheckpointError>
    where
        Self: Sized;
}

/// A partition's window store: `(window id, state)` in id order.
type Ring<W> = VecDeque<(u64, W)>;

/// What closing leaves behind for the next opening, and the drain's own
/// scratch. All of it is capacity, none of it state: pooled windows are
/// reset, pooled rings and the scratch are empty between drains, and no
/// byte of it is reported by [`TrendEngine::memory_bytes`]. Bounded by
/// construction — a window or ring gets here only by having been open.
struct Recycled<W> {
    /// Closed windows, reset — reopened before a fresh one is built.
    windows: Vec<W>,
    /// Rings of partitions that drained empty.
    rings: Vec<Ring<W>>,
    /// The drain's non-zero closing cells, sorted into emission order.
    closing: Vec<(WindowId, PartitionId, Cell)>,
}

/// One partition's open windows: a ring buffer over the contiguous
/// [`WindowId`]s, so opening appends at the back and closing pops from
/// the front, and the per-event probe is pure index arithmetic off the
/// back entry's id.
///
/// The load-bearing invariant: an event instantiates its whole
/// (non-drained) window range in one `process` call, and
/// `windows_of(t)`'s first id is non-decreasing in `t` — so the tail of
/// the ring is always id-consecutive from any id a later event can still
/// probe. A probe id at or below the back id therefore sits exactly
/// `back - id` entries from the back; anything above the back id is a
/// fresh append. Time gaps in a sparse sub-stream cost *nothing*: ids
/// that no event instantiated are never stored (no filler slots), and
/// the gap is jumped by appending at the new id.
#[derive(Debug)]
struct Partition<W> {
    /// Open windows `(id, state)`, id-sorted, tail id-consecutive. Empty
    /// only in a slot whose id is on the interner's free list.
    windows: Ring<W>,
}

impl<W> Default for Partition<W> {
    fn default() -> Self {
        Partition {
            windows: VecDeque::new(),
        }
    }
}

impl<W> Partition<W> {
    /// The state of window `wid`, created via `new` if absent — in a ring
    /// borrowed from `rings` when this partition holds none. `wid` must
    /// be at or past the front id — guaranteed because event times are
    /// non-decreasing and closed windows are never re-created (and
    /// enforced: a contract-violating probe panics instead of corrupting
    /// the ring).
    fn window_mut(
        &mut self,
        wid: WindowId,
        rings: &mut Vec<Ring<W>>,
        new: impl FnOnce() -> W,
    ) -> &mut W {
        let w = wid.0;
        match self.windows.back() {
            Some(&(back, _)) if w <= back => {
                let offset = (back - w) as usize;
                assert!(
                    offset < self.windows.len(),
                    "window {wid} precedes the open ring (events out of order?)"
                );
                let idx = self.windows.len() - 1 - offset;
                // One u64 compare guards the tail-consecutive invariant in
                // release too: an out-of-order event whose window falls in
                // an id gap must fail loudly, not merge into a neighbour.
                assert_eq!(
                    self.windows[idx].0, w,
                    "window {wid} falls in a ring gap (events out of order?)"
                );
                &mut self.windows[idx].1
            }
            _ => {
                if self.windows.capacity() == 0 {
                    self.windows = rings.pop().unwrap_or_default();
                }
                self.windows.push_back((w, new()));
                &mut self.windows.back_mut().expect("just pushed").1
            }
        }
    }

    /// Pop every window at or before `up_to`, front to back, handing them
    /// to `f` in increasing window order.
    fn close_up_to(&mut self, up_to: u64, mut f: impl FnMut(WindowId, W)) {
        while self.windows.front().is_some_and(|&(id, _)| id <= up_to) {
            let (id, state) = self.windows.pop_front().expect("checked non-empty");
            f(WindowId(id), state);
        }
    }
}

impl<W: WindowAlgo> Partition<W> {
    /// One ring slot of an open window: its id and inline state.
    const SLOT_BYTES: usize = std::mem::size_of::<(u64, W)>() - W::INSTRUMENT_BYTES;

    fn audit_bytes(&self, rt: &QueryRuntime) -> usize {
        self.windows
            .iter()
            .map(|(_, w)| w.audit_bytes(rt))
            .sum::<usize>()
            + self.windows.len() * Self::SLOT_BYTES
    }
}

/// Partition/window router turning any [`WindowAlgo`] into a full
/// [`TrendEngine`].
pub struct Router<W: WindowAlgo> {
    rt: Arc<QueryRuntime>,
    /// Full partition key → dense id, for the resident partitions.
    interner: KeyInterner,
    /// Partition slots, indexed by [`PartitionId`]: one per id the
    /// interner ever handed out, so as many as were resident at once.
    partitions: Vec<Partition<W>>,
    /// Ids of the resident partitions — each holds an open window. What
    /// a closing drain scans and what a snapshot writes.
    resident: Vec<u32>,
    /// Footprint of every open window (ring slot + state), kept current
    /// at window open, by each `on_event`'s delta, and at close — so
    /// [`TrendEngine::memory_bytes`] never visits a partition.
    window_bytes: usize,
    watermark: Timestamp,
    /// [`Frame::clock`] of the state this router was restored from
    /// ([`Router::from_state`]): a restore resumes at the slowest shard's
    /// watermark, and the windows it brings may be a faster one's.
    restored_clock: Timestamp,
    drained_to: Option<WindowId>,
    binds: EventBinds,
    /// Largest window footprint observed during finalization — two-step
    /// engines materialize their trends inside `final_cell`, a spike that
    /// periodic sampling would miss.
    finalize_spike: usize,
    /// Sticky record of the first interner overflow: `Some(limit)` once
    /// any event was dropped because its first-seen key would exceed
    /// `EngineConfig::key_limit`. Overflow drops the event, never the
    /// engine — no worker-thread panic.
    key_overflow: Option<u32>,
    /// Probes and key lives begun, counted here — where an event meets
    /// its partition — because a life is a fact about windows.
    stats: RunStats,
    recycled: Recycled<W>,
    /// The windows of the last routed event's time and the stretch of
    /// time they cover ([`WindowSpec::span_at`]): re-derived only when an
    /// event falls outside it, once per window boundary. A cache, not
    /// state.
    span: WindowSpan,
}

impl<W: WindowAlgo> Router<W> {
    /// The router struct itself, less its byte counters (`window_bytes`
    /// and the one inside the interner) and less the handles of its
    /// pools and scratch (`recycled`, `span`): the first are the
    /// instrument, the second capacity or cache, and neither is the state
    /// being measured.
    const INLINE_BYTES: usize = std::mem::size_of::<Self>()
        - std::mem::size_of::<usize>()
        - KeyInterner::INSTRUMENT_BYTES
        - std::mem::size_of::<Recycled<W>>()
        - std::mem::size_of::<WindowSpan>();

    /// Debug builds re-derive the footprint by walking the state wherever
    /// windows close and at snapshot/restore, and require the running
    /// counters to agree — every test battery checks them for free.
    #[inline]
    fn debug_audit(&self) {
        #[cfg(debug_assertions)]
        assert_eq!(
            TrendEngine::memory_bytes(self),
            TrendEngine::audit_bytes(self),
            "running byte counters diverged from the walked footprint"
        );
    }

    /// THE admission step of every engine: the runtime `W` runs `plan`
    /// under, or the [`QueryError`] naming the feature of `plan` that
    /// `W`'s Table 9 row lacks.
    pub fn admit(
        plan: &CompiledQuery,
        registry: &TypeRegistry,
        config: &EngineConfig,
    ) -> QueryResult<Arc<QueryRuntime>> {
        W::TABLE9.supports(plan).map_err(|unsupported| {
            QueryError::compile(format!(
                "engine `{}` {unsupported} (its Table 9 semantics: {})",
                W::NAME,
                W::TABLE9.semantics().join(", ")
            ))
        })?;
        let rt = QueryRuntime::new(plan.clone(), registry).with_config(config.clone());
        Ok(Arc::new(rt))
    }

    /// Parse, compile and [`Router::admit`] `text` under the default
    /// [`EngineConfig`], and build a router over it.
    pub fn from_text(text: &str, registry: &TypeRegistry) -> QueryResult<Router<W>> {
        let plan = cogra_query::compile(&cogra_query::parse(text)?, registry)?;
        let rt = Router::<W>::admit(&plan, registry, &EngineConfig::default())?;
        Ok(Router::new(rt))
    }

    /// Build a router over a compiled query runtime.
    pub fn new(rt: Arc<QueryRuntime>) -> Router<W> {
        let binds = EventBinds {
            per_disjunct: rt.disjuncts.iter().map(|_| Default::default()).collect(),
        };
        let mut interner = KeyInterner::new(rt.query.partition_attrs.len());
        if let Some(limit) = rt.config.key_limit {
            interner.set_limit(limit);
        }
        Router {
            rt,
            interner,
            partitions: Vec::new(),
            resident: Vec::new(),
            window_bytes: 0,
            watermark: Timestamp::ZERO,
            restored_clock: Timestamp::ZERO,
            drained_to: None,
            binds,
            finalize_spike: 0,
            key_overflow: None,
            stats: RunStats::default(),
            recycled: Recycled {
                windows: Vec::new(),
                rings: Vec::new(),
                closing: Vec::new(),
            },
            span: WindowSpan::EMPTY,
        }
    }

    /// The query runtime (for introspection).
    pub fn runtime(&self) -> &QueryRuntime {
        &self.rt
    }

    /// Route one event: move the watermark, read its type's compiled route,
    /// and only if the event is not dropped there
    /// ([`CompiledQuery::drops_unbound`]) hash its key
    /// ([`QueryRuntime::key_hash`]) and update its open windows.
    #[inline(always)]
    fn ingest(&mut self, event: &Event) {
        debug_assert!(
            event.time >= self.watermark,
            "events must arrive in time order"
        );
        self.watermark = self.watermark.max(event.time);
        let rt: &QueryRuntime = &self.rt;
        // An event the plan drops changes no window: skip the window
        // fan-out (and partition/window-state creation) early.
        let binds = match rt.route(event) {
            Route::Nothing => return,
            Route::Static(binds) => binds,
            Route::Filtered => {
                let per_disjunct = self.binds.per_disjunct.iter_mut();
                for ((binds, negs), drt) in per_disjunct.zip(&rt.disjuncts) {
                    drt.binds(event, binds);
                    drt.negation_matches(event, negs);
                }
                if self.binds.is_irrelevant() && rt.query.drops_unbound() {
                    return;
                }
                &self.binds
            }
        };
        let Some(hash) = rt.key_hash(event) else {
            // The type lacks a partition attribute (a `GROUP-BY` or
            // equivalence attribute its schema does not declare): the event
            // belongs to no sub-stream, so every engine drops it — after it
            // moved the watermark.
            return;
        };
        // The event's windows that have not been drained. None (the
        // router was finished) means nothing to update — and nothing to
        // make resident.
        if !self.span.holds(event.time) {
            self.span = rt.query.window.span_at(event.time);
        }
        let Some((first, last)) = self.span.above(self.drained_to) else {
            return;
        };
        self.stats.key_probes += 1;
        let attrs = rt.partition_attrs(event).expect("key hash implies a key");
        let pid = match self.interner.intern_with(
            hash,
            |candidate| rt.key_matches(event, candidate),
            attrs.iter().map(|a| event.attr(*a).clone()),
        ) {
            Ok(pid) => pid,
            Err(overflow) => {
                // A first-seen key past the configured limit: drop the
                // event and record the overflow stickily; resident keys
                // keep flowing.
                self.key_overflow = Some(overflow.limit);
                return;
            }
        };
        if pid.index() == self.partitions.len() {
            self.partitions.push(Partition::default());
        }
        let partition = &mut self.partitions[pid.index()];
        // A key's life begins with an event that none of the key's windows
        // so far could hold: a key never seen, or one whose last window
        // ended at or before this event. Whether a drain had retired it
        // by now (empty ring, fresh from the interner) or not (its ring
        // still ends below `first`) is the cadence's business, not the
        // count's.
        match partition.windows.back() {
            None => {
                self.stats.key_allocs += 1;
                self.resident.push(pid.0);
            }
            Some(&(back, _)) if back < first.0 => self.stats.key_allocs += 1,
            Some(_) => {}
        }
        let Recycled { windows, rings, .. } = &mut self.recycled;
        let mut window_bytes = self.window_bytes;
        for wid in first.0..=last.0 {
            let window = partition.window_mut(WindowId(wid), rings, || {
                let fresh = windows.pop().unwrap_or_else(|| W::new(rt));
                window_bytes += Partition::<W>::SLOT_BYTES + fresh.memory_bytes();
                fresh
            });
            let delta = window.on_event(rt, event, binds);
            window_bytes = window_bytes.wrapping_add_signed(delta);
        }
        self.window_bytes = window_bytes;
    }

    /// Finalize every window at or before `up_to`, push the merged
    /// results into `out` in deterministic (window, group) order, then
    /// retire the partitions left without a window.
    fn emit_up_to(&mut self, up_to: WindowId, out: &mut dyn FnMut(WindowResult)) {
        if self.drained_to.is_some_and(|d| d >= up_to) {
            return; // nothing new closed — skip the partition scan
        }
        let rt: &QueryRuntime = &self.rt;
        let drained_to = self.drained_to;
        let Recycled {
            windows: spare,
            rings,
            closing,
        } = &mut self.recycled;
        let mut spike = self.finalize_spike;
        let mut closed_bytes = 0;
        // Scan only the resident partitions, in whatever order they sit:
        // the sort below puts their cells into emission order.
        for &pid in &self.resident {
            self.partitions[pid as usize].close_up_to(up_to.0, |wid, mut state| {
                // What the window contributed while open — read before
                // finalization changes it.
                closed_bytes += Partition::<W>::SLOT_BYTES + state.memory_bytes();
                if drained_to.is_none_or(|d| wid > d) {
                    let cell = state.final_cell(rt);
                    // Measure after finalization: two-step algorithms hold
                    // their constructed trends until the window is reset.
                    spike = spike.max(state.memory_bytes());
                    #[cfg(debug_assertions)]
                    assert_eq!(state.memory_bytes(), state.audit_bytes(rt));
                    if !cell.is_zero() {
                        closing.push((wid, PartitionId(pid), cell));
                    }
                }
                state.reset(rt);
                #[cfg(debug_assertions)]
                assert_eq!(state.memory_bytes(), state.audit_bytes(rt));
                spare.push(state);
            });
        }
        self.finalize_spike = spike;
        self.window_bytes -= closed_bytes;
        self.drained_to = Some(match self.drained_to {
            Some(d) => WindowId(d.0.max(up_to.0)),
            None => up_to,
        });
        // Ids say nothing about keys, so order by the keys themselves. The
        // `GROUP-BY` values are a prefix of the partition key: sorted by
        // (window, partition key), the cells of one result are adjacent,
        // results come in (window, group) order and same-group cells merge
        // in partition-key order — float sums included, whatever ids the
        // keys landed on. (No two entries compare equal — a partition has
        // one window per id — so the in-place unstable sort yields that
        // one order.)
        let keys = &self.interner;
        closing.sort_unstable_by(|(wa, pa, _), (wb, pb, _)| {
            wa.cmp(wb)
                .then_with(|| keys.resolve(*pa).cmp(keys.resolve(*pb)))
        });
        let group_of = |pid: PartitionId| &keys.resolve(pid)[..rt.query.group_prefix];
        let mut cells = closing.drain(..).peekable();
        while let Some((window, pid, mut cell)) = cells.next() {
            let group = group_of(pid);
            while let Some((_, _, more)) =
                cells.next_if(|(w, p, _)| *w == window && group_of(*p) == group)
            {
                cell.merge(&rt.layout, &more);
            }
            out(WindowResult {
                window,
                group: group.to_vec(),
                values: cell.outputs(&rt.layout),
            });
        }
        drop(cells);
        // Results are resolved; a partition without a window holds nothing
        // a future event needs. Its ring goes to the pool, its key and id
        // back to the interner.
        let (partitions, interner) = (&mut self.partitions, &mut self.interner);
        self.resident.retain(|&pid| {
            let partition = &mut partitions[pid as usize];
            let stays = !partition.windows.is_empty();
            if !stays {
                rings.push(std::mem::take(&mut partition.windows));
                interner.retire(PartitionId(pid));
            }
            stays
        });
        self.debug_audit();
    }
}

/// A router's serialized mutable state: the piece of a snapshot that one
/// engine section carries. `entries` holds one opaque blob per resident
/// partition — a partition without a window is not resident, in a
/// snapshot or anywhere else. Each blob starts with the partition's full
/// key, so a restore coordinator can re-shard entries by `GROUP-BY` hash
/// without parsing the window payloads behind it.
#[derive(Debug, Clone)]
pub struct RouterState {
    /// The watermark to restore with. Across shards of one query this
    /// merges as the *minimum*: a shard whose sub-stream went quiet sits
    /// behind a busier shard's clock until the next drain broadcast, and a
    /// restored engine must never sit ahead of an event it has yet to
    /// ingest.
    pub watermark: Timestamp,
    /// Probe/key-life counters at snapshot time.
    pub stats: RunStats,
    /// Last drained window (`None` = never drained).
    pub drained_to: Option<WindowId>,
    /// Largest finalization footprint observed so far.
    pub finalize_spike: usize,
    /// What the rings were built under.
    pub frame: Frame,
    /// One blob per resident partition, in no particular order (nothing
    /// depends on which id a key restores to):
    /// `[key][n_windows][(wid, window bytes)...]`.
    pub entries: Vec<Vec<u8>>,
}

/// The window spec and the clock a [`RouterState`]'s rings were built
/// under: what tells whether a ring's window ids can be theirs
/// ([`Router::from_state`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// The query's `WITHIN/SLIDE` — window ids mean nothing under another.
    pub window: WindowSpec,
    /// The latest time a router that wrote part of the state had reached
    /// (across shards of one query this merges as the *maximum*, where
    /// [`RouterState::watermark`] takes the minimum). Every event in the
    /// state came at or before it, so every open window starts at or
    /// before it; and it is at or before the stream's admission floor, so
    /// every event to come — in-flight ones aside, which are checked one
    /// by one ([`TrendEngine::accepts`]) — comes at or after it.
    pub clock: Timestamp,
}

impl RouterState {
    /// Serialize into an engine-section payload.
    pub fn save(&self, enc: &mut Enc) {
        enc.u64(self.watermark.ticks());
        self.stats.save(enc);
        enc.opt_u64(self.drained_to.map(|w| w.0));
        enc.usize(self.finalize_spike);
        enc.u64(self.frame.window.within);
        enc.u64(self.frame.window.slide);
        enc.u64(self.frame.clock.ticks());
        enc.usize(self.entries.len());
        for e in &self.entries {
            enc.bytes(e);
        }
    }

    /// Inverse of [`RouterState::save`].
    pub fn load(dec: &mut Dec) -> Result<RouterState, CheckpointError> {
        let watermark = Timestamp(dec.u64()?);
        let stats = RunStats::load(dec)?;
        let drained_to = dec.opt_u64()?.map(WindowId);
        let finalize_spike = dec.usize()?;
        // Read as numbers, not through `WindowSpec::new`: all that is done
        // with them is a comparison with the query's.
        let (within, slide) = (dec.u64()?, dec.u64()?);
        let frame = Frame {
            window: WindowSpec { within, slide },
            clock: Timestamp(dec.u64()?),
        };
        let n = dec.usize()?;
        let mut entries = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            entries.push(dec.bytes()?.to_vec());
        }
        Ok(RouterState {
            watermark,
            stats,
            drained_to,
            finalize_spike,
            frame,
            entries,
        })
    }

    /// Fold another shard's state for the *same* query into this one:
    /// counters sum, spikes max, entries concatenate (callers merge in
    /// shard-index order so entry order is deterministic), the merged
    /// drain floor is the *minimum* (a window is only globally drained if
    /// every contributing shard drained it), and so is the watermark (see
    /// [`RouterState::watermark`]: re-advancing a window that stayed open
    /// is free, skipping an event is not) — while the frame's clock is the
    /// *maximum*, which bounds every shard's windows.
    pub fn merge(&mut self, other: RouterState) {
        debug_assert_eq!(self.frame.window, other.frame.window, "one query");
        self.frame.clock = self.frame.clock.max(other.frame.clock);
        self.stats.merge(other.stats);
        self.drained_to = match (self.drained_to, other.drained_to) {
            (Some(a), Some(b)) => Some(WindowId(a.0.min(b.0))),
            _ => None,
        };
        self.finalize_spike = self.finalize_spike.max(other.finalize_spike);
        self.watermark = self.watermark.min(other.watermark);
        self.entries.extend(other.entries);
    }
}

/// Hash of the `GROUP-BY` prefix of a saved partition entry's key —
/// exactly the hash live routing places shards with — decoded from the
/// blob's leading key without touching the window payloads.
pub fn entry_group_hash(entry: &[u8], group_prefix: usize) -> Result<u64, CheckpointError> {
    let mut dec = Dec::new(entry);
    let key = Value::load_vec(&mut dec)?;
    if key.len() < group_prefix {
        return Err(CheckpointError::Corrupt(format!(
            "partition key with {} values is shorter than the GROUP-BY prefix ({group_prefix})",
            key.len()
        )));
    }
    Ok(hash_values(key[..group_prefix].iter()))
}

impl<W: WindowAlgo> Router<W> {
    /// Snapshot the router's mutable state: the resident partitions —
    /// the same set a drain keeps, so there is no dead key to skip.
    pub fn snapshot_state(&self) -> RouterState {
        self.debug_audit();
        let entries = self
            .resident
            .iter()
            .map(|&pid| {
                let partition = &self.partitions[pid as usize];
                let mut e = Enc::new();
                Value::save_slice(self.interner.resolve(PartitionId(pid)), &mut e);
                e.usize(partition.windows.len());
                for (wid, w) in &partition.windows {
                    e.u64(*wid);
                    let mut we = Enc::new();
                    w.save(&self.rt, &mut we);
                    e.bytes(we.as_slice());
                }
                e.into_bytes()
            })
            .collect();
        RouterState {
            watermark: self.watermark,
            stats: self.stats,
            drained_to: self.drained_to,
            finalize_spike: self.finalize_spike,
            frame: Frame {
                window: self.rt.query.window,
                clock: self.restored_clock.max(self.watermark),
            },
            entries,
        }
    }

    /// Rebuild a router from a saved state: every entry's key is interned
    /// as a first-seen key would be and its windows reopened. Keys a
    /// snapshot taken under the same `key_limit` held are all admitted —
    /// a restore at a narrower width may put more of them on one shard
    /// than the limit would have let in — and the limit then counts them
    /// as a fresh router counts its resident keys.
    ///
    /// A state whose [`Frame`] is another query's, or that holds a ring
    /// the frame's clock could not have left behind — one an event at or
    /// after that clock would find a hole in — is
    /// [`CheckpointError::Corrupt`]: `Partition::window_mut` panics on such
    /// a probe. (That the clock is no later than the events to come is the
    /// caller's to check: it knows the stream.)
    pub fn from_state(
        rt: Arc<QueryRuntime>,
        state: RouterState,
    ) -> Result<Router<W>, CheckpointError> {
        let (window, frame) = (&rt.query.window, state.frame);
        if frame.window != *window {
            return Err(CheckpointError::Corrupt(format!(
                "engine state was written under WITHIN {} SLIDE {}, the query says \
                 WITHIN {} SLIDE {}",
                frame.window.within, frame.window.slide, window.within, window.slide
            )));
        }
        if state.watermark > frame.clock {
            return Err(CheckpointError::Corrupt(format!(
                "engine watermark {} is past the engine's clock {}",
                state.watermark, frame.clock
            )));
        }
        let mut router = Router::new(Arc::clone(&rt));
        router.restored_clock = frame.clock;
        router.watermark = state.watermark;
        router.drained_to = state.drained_to;
        router.finalize_spike = state.finalize_spike;
        router.stats = state.stats;
        router.interner.set_limit(u32::MAX);
        for blob in &state.entries {
            let mut dec = Dec::new(blob);
            let key = Value::load_vec(&mut dec)?;
            // A key of another arity is a partition no event could ever
            // reach again (and would mis-stride the flat interner).
            if key.len() != router.interner.arity() {
                return Err(CheckpointError::Corrupt(format!(
                    "partition key with {} values where the query partitions by {}",
                    key.len(),
                    router.interner.arity()
                )));
            }
            let n_windows = dec.usize()?;
            let pid = router
                .interner
                .intern_with(
                    hash_values(key.iter()),
                    |candidate| candidate == key,
                    key.iter().cloned(),
                )
                .map_err(|o| {
                    CheckpointError::Corrupt(format!(
                        "snapshot holds more than {} partitions",
                        o.limit
                    ))
                })?;
            // Resident means holding a window, and one key is one
            // partition: anything else was not written by a router.
            if n_windows == 0 {
                return Err(CheckpointError::Corrupt(format!(
                    "partition {key:?} holds no window"
                )));
            }
            if pid.index() != router.partitions.len() {
                return Err(CheckpointError::Corrupt(format!(
                    "partition {key:?} is saved twice"
                )));
            }
            let mut partition = Partition::default();
            let mut last = None;
            for _ in 0..n_windows {
                let wid = dec.u64()?;
                if last.is_some_and(|l| wid <= l) {
                    return Err(CheckpointError::Corrupt(format!(
                        "window ids out of order in partition {key:?}"
                    )));
                }
                last = Some(wid);
                let mut wdec = Dec::new(dec.bytes()?);
                let w = W::load(&rt, &mut wdec)?;
                wdec.finish("window")?;
                router.window_bytes += Partition::<W>::SLOT_BYTES + w.memory_bytes();
                partition.windows.push_back((wid, w));
            }
            dec.finish("partition")?;
            // The ring's load-bearing invariant (see `Partition`). The
            // event that opened the back window opened all of its windows
            // past the drain floor, and the first of an event's windows is
            // non-decreasing in time: whatever an event no earlier than
            // that one probes is in the ring, up to the back. The events
            // to come are no earlier than the frame's clock, and that one
            // was no later — so the back window starts at or before the
            // clock, and what the clock would probe is there.
            // `window_mut` panics on a ring without it.
            let back = last.expect("a partition holds a window");
            if back
                .checked_mul(window.slide)
                .is_none_or(|start| start > frame.clock.ticks())
            {
                return Err(CheckpointError::Corrupt(format!(
                    "window {back} of partition {key:?} starts after the engine's clock {}",
                    frame.clock
                )));
            }
            let floor = state.drained_to.map_or(0, |d| d.0.saturating_add(1));
            let probed = window
                .windows_of(frame.clock)
                .next()
                .map_or(floor, |w| w.0.max(floor));
            let reachable = partition.windows.iter().filter(|(id, _)| *id >= probed);
            if back >= probed && reachable.count() as u64 != back - probed + 1 {
                return Err(CheckpointError::Corrupt(format!(
                    "partition {key:?} is missing a window between {probed} and {back}"
                )));
            }
            router.resident.push(pid.0);
            router.partitions.push(partition);
        }
        if let Some(limit) = rt.config.key_limit {
            router.interner.set_limit(limit);
        }
        router.debug_audit();
        Ok(router)
    }
}

impl<W: WindowAlgo> TrendEngine for Router<W> {
    fn process(&mut self, event: &Event) {
        self.ingest(event);
    }

    fn drain_into(&mut self, out: &mut dyn FnMut(WindowResult)) {
        if let Some(wid) = self.rt.query.window.last_closed(self.watermark) {
            self.emit_up_to(wid, out);
        }
    }

    fn finish_into(&mut self, out: &mut dyn FnMut(WindowResult)) {
        self.emit_up_to(WindowId(u64::MAX), out);
    }

    fn memory_bytes(&self) -> usize {
        Self::INLINE_BYTES
            + self.interner.memory_bytes()
            + self.interner.len() * std::mem::size_of::<Partition<W>>()
            + self.window_bytes
    }

    fn audit_bytes(&self) -> usize {
        // Every slot outside the resident list must be an empty one.
        let vacant = self.partitions.iter().filter(|p| p.windows.is_empty());
        assert_eq!(vacant.count(), self.partitions.len() - self.resident.len());
        assert_eq!(self.resident.len(), self.interner.len());
        Self::INLINE_BYTES
            + self.interner.audit_bytes()
            + self.resident.len() * std::mem::size_of::<Partition<W>>()
            + self
                .resident
                .iter()
                .map(|&pid| self.partitions[pid as usize].audit_bytes(&self.rt))
                .sum::<usize>()
    }

    fn peak_hint(&self) -> usize {
        self.finalize_spike
    }

    fn name(&self) -> &'static str {
        W::NAME
    }

    fn watermark(&self) -> Timestamp {
        self.watermark
    }

    fn advance_watermark(&mut self, to: Timestamp) {
        // Safe because callers promise no event with time < `to` follows:
        // windows containing `to` itself stay open (a window is closed
        // only when its *exclusive* end is at or before the watermark), so
        // an in-flight stream transaction at exactly `to` still lands in
        // every window it belongs to.
        self.watermark = self.watermark.max(to);
    }

    fn run_stats(&self) -> RunStats {
        self.stats
    }

    fn key_overflow(&self) -> Option<u32> {
        self.key_overflow
    }

    fn accepts(&self, event: &Event) -> bool {
        if event.time < self.watermark {
            return false;
        }
        let rt: &QueryRuntime = &self.rt;
        let partition = rt
            .key_hash(event)
            .and_then(|hash| {
                self.interner
                    .find(hash, |candidate| rt.key_matches(event, candidate))
            })
            .map(|pid| &self.partitions[pid.index()].windows);
        // What `Partition::window_mut` requires of every window the event
        // updates: past the back of the ring, or at its place in it.
        let Some((ring, back)) = partition.and_then(|ring| Some((ring, ring.back()?.0))) else {
            return true;
        };
        let span = rt.query.window.span_at(event.time);
        let Some((first, last)) = span.above(self.drained_to) else {
            return true;
        };
        (first.0..=last.0.min(back)).all(|wid| {
            let offset = (back - wid) as usize;
            offset < ring.len() && ring[ring.len() - 1 - offset].0 == wid
        })
    }

    fn save_state(&self) -> Result<RouterState, CheckpointError> {
        Ok(self.snapshot_state())
    }
}
