//! Shared runtime plumbing for the COGRA aggregators: precomputed
//! per-disjunct routing tables, state binding, and negation clocks.

use crate::agg::{AggLayout, CellTable, CountTable, DisjunctFeeds};
use crate::router::EventBinds;
use cogra_checkpoint::CheckpointError;
use cogra_events::{Event, Timestamp, TypeRegistry, Value, ValueKind};
use cogra_query::{
    CompiledAdjacent, CompiledDisjunct, CompiledQuery, Granularity, NegId, Route, StateId,
};

/// One incoming contribution source of a state.
#[derive(Debug, Clone)]
pub struct PredSource {
    /// Predecessor state.
    pub from: StateId,
    /// The row of a type-grained window's table that flows along this
    /// transition: `from`'s own, or — when the transition is
    /// negation-tagged — its shadow row
    /// ([`DisjunctRuntime::shadow_row`]).
    pub row: usize,
    /// The negated variables on this transition.
    pub negations: Vec<NegId>,
    /// The predicates on adjacent events attached to this transition,
    /// resolved when the runtime is built: no per-event lookup by state
    /// pair.
    pub adjacents: Vec<CompiledAdjacent>,
}

impl PredSource {
    /// Whether a predecessor bound to `from`, of which `stored` was kept
    /// ([`DisjunctRuntime::store`]), and the arriving `event` satisfy every
    /// predicate on this transition (Definition 7 condition 3).
    #[inline]
    pub fn adjacents_pass(&self, stored: &[Value], event: &Event) -> bool {
        self.adjacents
            .iter()
            .all(|adj| adj.eval_value(&stored[adj.pred_slot], event))
    }
}

/// A negation-tagged transition (for shadow-cell bookkeeping).
#[derive(Debug, Clone)]
pub struct NegEdge {
    /// Source state whose aggregates flow along this transition.
    pub from: StateId,
    /// The negated variables that reset it.
    pub negations: Vec<NegId>,
}

/// Algorithm 1's step as one disjunct's plan shapes it, worked out once
/// when the runtime is built: what a type-grained window — and the `Tt`
/// half of a mixed-grained one — reads per event instead of the plan; and
/// Algorithm 3's, for a pattern-grained window of counts.
#[derive(Debug, Clone)]
pub struct StepKernel {
    /// The table as rows of counts alone, when it is one
    /// ([`CellTable::counts`]: `COUNT(*)`, at most 64 rows) — the step's
    /// inline arm, where folding a row is one add.
    pub counts: Option<CountTable>,
    /// [`StepKernel::counts`], when besides the disjunct negates no
    /// variable and has no predicate on adjacent events — Algorithm 3's
    /// inline arm, where a bound state's count is its start and its live
    /// predecessors' counts summed, and nothing of an event is stored.
    pub bare_counts: Option<CountTable>,
    /// Where the open transaction's time stamp sits in a window's slab:
    /// the table's length in words ([`CellTable::words`]). Its journal
    /// starts one word later.
    pub time_at: usize,
    /// `pred_rows[from..to]` are state `s`'s, `(from, to)` its entry.
    pred_spans: Box<[(u32, u32)]>,
    /// The table rows that flow into each state, state after state: one
    /// per incoming transition, its [`PredSource::row`] — under
    /// [`StepKernel::bare_counts`], the predecessor state itself.
    pred_rows: Box<[u32]>,
}

impl StepKernel {
    fn build(
        disjunct: &CompiledDisjunct,
        pred_sources: &[Vec<PredSource>],
        table: &CellTable,
    ) -> StepKernel {
        let mut pred_spans = Vec::with_capacity(pred_sources.len());
        let mut pred_rows = Vec::new();
        for sources in pred_sources {
            let from = pred_rows.len() as u32;
            pred_rows.extend(sources.iter().map(|src| src.row as u32));
            pred_spans.push((from, pred_rows.len() as u32));
        }
        let bare = disjunct.automaton.num_negated() == 0 && disjunct.adjacents.is_empty();
        StepKernel {
            counts: table.counts(),
            bare_counts: table.counts().filter(|_| bare),
            time_at: table.words(),
            pred_spans: pred_spans.into(),
            pred_rows: pred_rows.into(),
        }
    }

    /// The table rows that flow into state `s`, one per incoming
    /// transition.
    #[inline]
    pub fn pred_rows(&self, s: StateId) -> &[u32] {
        let (from, to) = self.pred_spans[s.index()];
        &self.pred_rows[from as usize..to as usize]
    }
}

/// Precomputed routing tables for one compiled disjunct.
#[derive(Debug)]
pub struct DisjunctRuntime {
    /// The compiled disjunct.
    pub disjunct: CompiledDisjunct,
    /// Feed table for the query's aggregation layout.
    pub feeds: DisjunctFeeds,
    /// `pred_sources[s]` — contribution sources of state `s`.
    pub pred_sources: Vec<Vec<PredSource>>,
    /// All negation-tagged transitions; number `i` has shadow row
    /// [`DisjunctRuntime::shadow_row`]`(i)`.
    pub neg_edges: Vec<NegEdge>,
    /// The query's aggregation layout (every disjunct holds the same one):
    /// what the rows of this disjunct's windows are read through.
    pub layout: AggLayout,
    /// The table at the front of a window's slab at this disjunct's
    /// granularity: [`DisjunctRuntime::type_rows`] rows for Algorithm 1,
    /// one more — the finished-trend accumulator — for Algorithm 2, and
    /// `2l + 1` for Algorithm 3 (two halves of a row per state, and the
    /// accumulator).
    pub table: CellTable,
    /// Algorithms 1 and 3's step over [`DisjunctRuntime::table`], shaped
    /// for this disjunct.
    pub kernel: StepKernel,
    /// Value kinds of the disjunct's stored projection
    /// ([`CompiledDisjunct::stored`]), by [`TypeId`] — what a stored tuple
    /// read back from a snapshot is checked against.
    ///
    /// [`TypeId`]: cogra_events::TypeId
    stored_kinds: Vec<Vec<ValueKind>>,
}

impl DisjunctRuntime {
    fn build(
        disjunct: CompiledDisjunct,
        feeds: DisjunctFeeds,
        layout: &AggLayout,
        registry: &TypeRegistry,
    ) -> DisjunctRuntime {
        let n = disjunct.automaton.num_states();
        let mut pred_sources: Vec<Vec<PredSource>> = Vec::with_capacity(n);
        let mut neg_edges = Vec::new();
        for s in 0..n {
            let sid = StateId(s as u32);
            let mut sources = Vec::new();
            for edge in disjunct.automaton.preds(sid) {
                let row = if edge.negations.is_empty() {
                    edge.from.index()
                } else {
                    neg_edges.push(NegEdge {
                        from: edge.from,
                        negations: edge.negations.clone(),
                    });
                    n + neg_edges.len() - 1
                };
                sources.push(PredSource {
                    from: edge.from,
                    row,
                    negations: edge.negations.clone(),
                    adjacents: disjunct.adjacents_of(edge.from, sid).copied().collect(),
                });
            }
            pred_sources.push(sources);
        }
        let stored_kinds = registry
            .iter()
            .zip(&disjunct.stored)
            .map(|((_, schema), attrs)| attrs.iter().map(|a| schema.attr_kind(*a)).collect())
            .collect();
        let rows = match disjunct.granularity {
            Granularity::Type => n + neg_edges.len(),
            Granularity::Mixed => n + neg_edges.len() + 1,
            Granularity::Pattern => 2 * n + 1,
        };
        let table = CellTable::new(layout, rows);
        DisjunctRuntime {
            kernel: StepKernel::build(&disjunct, &pred_sources, &table),
            disjunct,
            feeds,
            pred_sources,
            neg_edges,
            table,
            layout: layout.clone(),
            stored_kinds,
        }
    }

    /// Rows of a type-grained window's table: one per state, then one
    /// shadow per negation-tagged transition.
    #[inline]
    pub fn type_rows(&self) -> usize {
        self.disjunct.automaton.num_states() + self.neg_edges.len()
    }

    /// The shadow row of negation-tagged transition `neg_edge`.
    #[inline]
    pub fn shadow_row(&self, neg_edge: usize) -> usize {
        self.disjunct.automaton.num_states() + neg_edge
    }

    /// Append to `out` what the aggregators keep of a matched `event`
    /// beside its time stamp: the stored projection of its type
    /// ([`CompiledDisjunct::stored`]) — what [`PredSource::adjacents_pass`]
    /// reads. The event binds a state, so its type is a registered one.
    /// Returns the bytes appended ([`Value::memory_bytes`]).
    #[inline]
    pub fn store(&self, event: &Event, out: &mut Vec<Value>) -> usize {
        let attrs = &self.disjunct.stored[event.type_id.index()];
        let mut bytes = 0;
        out.extend(attrs.iter().map(|a| {
            let value = event.attr(*a).clone();
            bytes += value.memory_bytes();
            value
        }));
        bytes
    }

    /// Whether `stored`, read back from a snapshot as what was kept of an
    /// event bound to `state`, is what [`DisjunctRuntime::store`] would
    /// have kept of one: `state` is one of the plan's, and the tuple has
    /// the width and value kinds of its type's stored projection — what the
    /// predicates evaluated on it index by.
    pub fn check_stored(&self, stored: &[Value], state: StateId) -> Result<(), CheckpointError> {
        let automaton = &self.disjunct.automaton;
        let kinds = (state.index() < automaton.num_states())
            .then(|| &self.stored_kinds[automaton.state(state).type_id.index()]);
        if kinds.is_some_and(|kinds| stored.iter().map(Value::kind).eq(kinds.iter().copied())) {
            return Ok(());
        }
        Err(CheckpointError::Corrupt(format!(
            "stored values {stored:?} are not what the plan keeps of an event bound to state {}",
            state.0
        )))
    }

    /// Algorithms 1–2's step at one state `event` binds to, on the scratch
    /// row its new aggregates are computed in (its slots the identity, its
    /// count any word): the start-of-trend `+1`, then `fill`,
    /// which folds the predecessors into the row and says whether any of
    /// them was live, then — if any trend ends at the event — its own
    /// contribution. Returns whether one does; a row none does is the
    /// caller's to drop (see the `agg` module docs on liveness).
    #[inline]
    pub fn bind_row(
        &self,
        state: StateId,
        event: &Event,
        row: &mut [u64],
        fill: impl FnOnce(&mut [u64]) -> bool,
    ) -> bool {
        let start = self.is_start(state);
        row[0] = u64::from(start);
        let live = fill(row) | start;
        if live {
            self.layout.contribute_row(row, self.feeds.of(state), event);
        }
        live
    }

    /// Whether `s` is the pattern's start state.
    #[inline]
    pub fn is_start(&self, s: StateId) -> bool {
        self.disjunct.automaton.start() == s
    }

    /// The pattern's end state.
    #[inline]
    pub fn end(&self) -> StateId {
        self.disjunct.automaton.end()
    }

    /// The states `event` can bind to: its type's states whose local
    /// filters pass (Definition 7 conditions on event types and single-
    /// event predicates).
    pub fn binds(&self, event: &Event, out: &mut Vec<StateId>) {
        out.clear();
        for &s in self.disjunct.automaton.states_of_type(event.type_id) {
            if self.disjunct.locals_pass(s, event) {
                out.push(s);
            }
        }
    }

    /// The negated variables `event` matches.
    pub fn negation_matches(&self, event: &Event, out: &mut Vec<NegId>) {
        out.clear();
        for &n in self.disjunct.automaton.negations_of_type(event.type_id) {
            if self.disjunct.neg_locals_pass(n, event) {
                out.push(n);
            }
        }
    }
}

/// Engine-level configuration knobs read by some [`WindowAlgo`]
/// implementations.
///
/// [`WindowAlgo`]: crate::router::WindowAlgo
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Maximum flattened sequence length for the engines that simulate
    /// Kleene closure with fixed-length sequence queries (Flink, A-Seq;
    /// §9.1: "we first determine the length l of the longest match of P,
    /// then specify a set of fixed-length event sequence queries that
    /// cover all possible lengths up to l"). `None` = unbounded (exact,
    /// but the covered length grows with the window content).
    pub flatten_cap: Option<usize>,
    /// Maximum number of partition keys the router's [`KeyInterner`]
    /// holds *resident* — keys with a window still open, which is what
    /// costs memory. `None` = the full dense-id space (`u32::MAX`).
    /// Events whose first-seen key would exceed the limit are dropped
    /// with a sticky, typed overflow instead of panicking — the guard
    /// rail for streams of unbounded key cardinality. A key stops
    /// counting when the drain that closes its last window retires it, so
    /// a stream that keeps fewer than `limit` keys alive between drains
    /// never overflows, however many it mints — and which keys a too-low
    /// limit refuses follows the drain cadence (deterministic for one
    /// cadence; everything else a session reports is cadence-free).
    /// Under `.workers(n)` each shard owns its own interner, so the
    /// limit is per shard, not global; a restore counts the restored
    /// partitions the same way.
    ///
    /// [`KeyInterner`]: crate::intern::KeyInterner
    pub key_limit: Option<u32>,
}

/// Everything an engine needs to execute one compiled query.
#[derive(Debug)]
pub struct QueryRuntime {
    /// The compiled query.
    pub query: CompiledQuery,
    /// Engine-level configuration (see [`EngineConfig`]).
    pub config: EngineConfig,
    /// Aggregation slot/output layout (shared by all disjuncts).
    pub layout: AggLayout,
    /// One runtime per disjunct.
    pub disjuncts: Vec<DisjunctRuntime>,
    /// Per registered type: positional ids of the partition attributes
    /// (`None` = type cannot be partitioned, events dropped).
    pub partition_attr_ids: Vec<Option<Vec<cogra_events::AttrId>>>,
    /// Per registered type: the attributes the plan reads, ascending
    /// ([`CompiledQuery::read_set`]) — all of an event its engines need.
    pub read_set: Vec<Vec<cogra_events::AttrId>>,
    /// Per registered type: its [`CompiledQuery::route`] — what the router
    /// does with an event of the type before it looks at its attributes —
    /// with a static route's binds prebuilt as the [`EventBinds`] every
    /// window it reaches reads.
    pub routes: Vec<Route<EventBinds>>,
    /// Per registered type: a row of the type's arity and kinds holding
    /// blanks ([`ValueKind::blank`]) — what a transport that carries only
    /// the read-set fills the other attributes with.
    ///
    /// [`ValueKind::blank`]: cogra_events::ValueKind::blank
    pub blank_rows: Vec<Vec<cogra_events::Value>>,
}

impl QueryRuntime {
    /// Build the runtime for a compiled query.
    pub fn new(query: CompiledQuery, registry: &TypeRegistry) -> QueryRuntime {
        assert!(
            !query.disjuncts.is_empty(),
            "compiled query has no disjuncts"
        );
        let partition_attr_ids = query.partition_attr_ids(registry);
        let read_set = query.read_set(registry);
        let blank_rows = registry
            .iter()
            .map(|(_, schema)| schema.iter().map(|(_, kind)| kind.blank()).collect())
            .collect();
        let routes = registry
            .iter()
            .map(|(type_id, _)| {
                let route = query.route(type_id);
                route.map(|per_disjunct| EventBinds { per_disjunct })
            })
            .collect();
        let (layout, first_feeds) = AggLayout::build(&query.disjuncts[0]);
        let mut disjuncts = Vec::with_capacity(query.disjuncts.len());
        for (i, d) in query.disjuncts.iter().enumerate() {
            let feeds = if i == 0 {
                first_feeds.clone()
            } else {
                layout.feeds_for(d)
            };
            disjuncts.push(DisjunctRuntime::build(d.clone(), feeds, &layout, registry));
        }
        QueryRuntime {
            query,
            config: EngineConfig::default(),
            layout,
            disjuncts,
            partition_attr_ids,
            read_set,
            routes,
            blank_rows,
        }
    }

    /// Set the engine configuration (builder style).
    pub fn with_config(mut self, config: EngineConfig) -> QueryRuntime {
        self.config = config;
        self
    }

    /// The route of the event's type.
    #[inline]
    pub fn route(&self, event: &Event) -> &Route<EventBinds> {
        &self.routes[event.type_id.index()]
    }

    /// Extract the partition key of an event; `None` drops the event.
    pub fn partition_key(&self, event: &Event) -> Option<Vec<cogra_events::Value>> {
        self.partition_attr_ids[event.type_id.index()]
            .as_ref()
            .map(|ids| ids.iter().map(|a| event.attr(*a).clone()).collect())
    }

    /// The event's partition attribute ids; `None` drops the event.
    #[inline]
    pub fn partition_attrs(&self, event: &Event) -> Option<&[cogra_events::AttrId]> {
        self.partition_attr_ids[event.type_id.index()].as_deref()
    }

    /// Hash the event's full partition key **in place** — no `Vec`
    /// materialized — with the same value-sequence hash the router's
    /// interner probes with ([`crate::intern::hash_values`]). `None` when
    /// the event's type lacks the partition attributes (dropped).
    #[inline]
    pub fn key_hash(&self, event: &Event) -> Option<u64> {
        self.route_hashes(event).map(|(_, key)| key)
    }

    /// The hasher state after folding in the event's `GROUP-BY` prefix
    /// attributes, plus the full partition attribute list.
    #[inline]
    fn prefix_state(&self, event: &Event) -> Option<(fxhash::FxHasher, &[cogra_events::AttrId])> {
        use std::hash::Hash;
        let ids = self.partition_attrs(event)?;
        // compile() guarantees the GROUP-BY attributes form a prefix of
        // every type's partition attributes — the same invariant the
        // router relies on when it slices `key[..group_prefix]`.
        debug_assert!(self.query.group_prefix <= ids.len());
        let mut h = fxhash::FxHasher::default();
        for a in &ids[..self.query.group_prefix] {
            event.attr(*a).hash(&mut h);
        }
        Some((h, ids))
    }

    /// Hash the event's `GROUP-BY` prefix of the partition attributes
    /// **in place** — what places the event on a §8 shard. `None` when
    /// the event's type lacks the partition attributes.
    #[inline]
    pub fn group_hash(&self, event: &Event) -> Option<u64> {
        use std::hash::Hasher;
        self.prefix_state(event).map(|(h, _)| h.finish())
    }

    /// `(group hash, full key hash)` of the event, both computed in one
    /// in-place pass: the group hash is [`QueryRuntime::group_hash`], the
    /// key hash [`QueryRuntime::key_hash`].
    #[inline]
    pub fn route_hashes(&self, event: &Event) -> Option<(u64, u64)> {
        use std::hash::{Hash, Hasher};
        let (mut h, ids) = self.prefix_state(event)?;
        let group = h.finish();
        for a in &ids[self.query.group_prefix..] {
            event.attr(*a).hash(&mut h);
        }
        Some((group, h.finish()))
    }

    /// Whether the event's partition key equals `key`, compared
    /// element-wise against the event's attributes — the allocation-free
    /// candidate check of the interner probe. The event's type must have
    /// partition attributes (the caller checked via
    /// [`QueryRuntime::key_hash`]).
    #[inline]
    pub fn key_matches(&self, event: &Event, key: &[cogra_events::Value]) -> bool {
        let Some(ids) = self.partition_attrs(event) else {
            return false;
        };
        ids.len() == key.len() && ids.iter().zip(key).all(|(a, v)| event.attr(*a) == v)
    }
}

/// Per-negated-variable match clock.
///
/// Tracks the last two distinct match time stamps so "does a match of `g`
/// exist strictly between `ep.time` and `e.time`?" is answerable while the
/// current stream transaction (events sharing `e.time`) is still open: a
/// match at exactly `e.time` is not *between* (Definition 7 uses strict
/// inequalities), so when `last == e.time` the clock falls back to the
/// previous distinct match time.
#[derive(Debug, Clone, Default)]
pub struct NegClock {
    last: Option<Timestamp>,
    prev_distinct: Option<Timestamp>,
}

impl NegClock {
    /// Record a match at `t` (non-decreasing).
    pub fn record(&mut self, t: Timestamp) {
        match self.last {
            Some(l) if l == t => {}
            Some(l) => {
                debug_assert!(t > l, "negation clock must advance");
                self.prev_distinct = Some(l);
                self.last = Some(t);
            }
            None => self.last = Some(t),
        }
    }

    /// Serialize both stored match times.
    pub fn save(&self, enc: &mut cogra_checkpoint::Enc) {
        enc.opt_u64(self.last.map(|t| t.ticks()));
        enc.opt_u64(self.prev_distinct.map(|t| t.ticks()));
    }

    /// Inverse of [`NegClock::save`].
    pub fn load(
        dec: &mut cogra_checkpoint::Dec,
    ) -> Result<NegClock, cogra_checkpoint::CheckpointError> {
        Ok(NegClock {
            last: dec.opt_u64()?.map(Timestamp),
            prev_distinct: dec.opt_u64()?.map(Timestamp),
        })
    }

    /// Whether a match exists strictly inside `(after, before)`.
    pub fn blocked(&self, after: Timestamp, before: Timestamp) -> bool {
        let candidate = match self.last {
            Some(l) if l < before => Some(l),
            _ => self.prev_distinct.filter(|p| *p < before),
        };
        matches!(candidate, Some(m) if m > after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neg_clock_strict_interval() {
        let mut c = NegClock::default();
        assert!(!c.blocked(Timestamp(0), Timestamp(10)));
        c.record(Timestamp(5));
        assert!(c.blocked(Timestamp(0), Timestamp(10)));
        assert!(
            !c.blocked(Timestamp(5), Timestamp(10)),
            "m == after is not between"
        );
        assert!(
            !c.blocked(Timestamp(0), Timestamp(5)),
            "m == before is not between"
        );
    }

    #[test]
    fn neg_clock_same_transaction_fallback() {
        let mut c = NegClock::default();
        c.record(Timestamp(3));
        c.record(Timestamp(7));
        // Current transaction at t=7: the match at 7 is not between, but
        // the earlier one at 3 is.
        assert!(c.blocked(Timestamp(1), Timestamp(7)));
        assert!(!c.blocked(Timestamp(3), Timestamp(7)));
        // Duplicate record at the same time keeps prev_distinct.
        c.record(Timestamp(7));
        assert!(c.blocked(Timestamp(1), Timestamp(7)));
    }
}
