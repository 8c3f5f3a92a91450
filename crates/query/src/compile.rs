//! Static Query Analyzer (§3): lowering a surface [`Query`] into the
//! executable [`CompiledQuery`].
//!
//! Compilation (1) rewrites the pattern into disjuncts of core patterns
//! (§8), (2) builds one [`Automaton`] per disjunct (§3.1), (3) classifies
//! the `WHERE` predicates into equivalence / local / adjacent classes
//! (§3.2), resolving variables to automaton states and attribute names to
//! positional ids, and (4) selects the aggregation granularity (§3.3,
//! Table 4) together with the per-state event-grained set `Te` of
//! Theorem 5.1.

use crate::ast::{AggCall, CmpOp, PatternExpr, PredicateExpr, Query, ReturnItem, Semantics};
use crate::automaton::{Automaton, NegId, StateId};
use crate::error::{QueryError, QueryResult};
use crate::rewrite;
use cogra_events::{AttrId, TypeId, TypeRegistry, Value, ValueKind, WindowSpec};
use std::collections::HashMap;

/// The granularity at which trend aggregates are maintained (Figure 1,
/// Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Granularity {
    /// One aggregate per pattern — NEXT and CONT semantics (Algorithm 3).
    Pattern,
    /// One aggregate per event type (state) — ANY without predicates on
    /// adjacent events (Algorithm 1).
    Type,
    /// Aggregates per type for `Tt` and per matched event for `Te` — ANY
    /// with predicates on adjacent events (Algorithm 2).
    Mixed,
}

impl std::fmt::Display for Granularity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Granularity::Pattern => write!(f, "pattern"),
            Granularity::Type => write!(f, "type"),
            Granularity::Mixed => write!(f, "mixed"),
        }
    }
}

/// Select the aggregation granularity per Table 4.
pub fn select_granularity(semantics: Semantics, has_adjacent_predicates: bool) -> Granularity {
    match (semantics, has_adjacent_predicates) {
        (Semantics::Next | Semantics::Cont, _) => Granularity::Pattern,
        (Semantics::Any, false) => Granularity::Type,
        (Semantics::Any, true) => Granularity::Mixed,
    }
}

/// A compiled local predicate: `event.attr op value` (§3.2 "predicates on
/// single events" that filter, as opposed to partition).
#[derive(Debug, Clone, PartialEq)]
pub struct LocalFilter {
    /// Attribute to test.
    pub attr: AttrId,
    /// Comparison operator.
    pub op: CmpOp,
    /// Constant operand.
    pub value: Value,
}

impl LocalFilter {
    /// Whether `event` satisfies this filter.
    #[inline]
    pub fn eval(&self, event: &cogra_events::Event) -> bool {
        self.op.eval(event.attr(self.attr).compare(&self.value))
    }
}

/// A compiled predicate on adjacent events: for an adjacent pair
/// `(ep bound to pred, e bound to succ)`, require
/// `ep.pred_attr op e.succ_attr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledAdjacent {
    /// State the predecessor event is bound to.
    pub pred: StateId,
    /// Attribute of the predecessor event.
    pub pred_attr: AttrId,
    /// Where `pred_attr` sits in the stored projection of the predecessor
    /// event's type ([`CompiledDisjunct::stored`]).
    pub pred_slot: usize,
    /// State the successor event is bound to.
    pub succ: StateId,
    /// Attribute of the successor event.
    pub succ_attr: AttrId,
    /// Comparison operator.
    pub op: CmpOp,
}

impl CompiledAdjacent {
    /// Whether an adjacent pair satisfies this predicate, given the
    /// predecessor's `pred_attr` value and the successor `e` — THE
    /// evaluator: all an aggregator keeps of a predecessor is that value.
    #[inline]
    pub fn eval_value(&self, pred_value: &Value, e: &cogra_events::Event) -> bool {
        self.op.eval(pred_value.compare(e.attr(self.succ_attr)))
    }

    /// Whether the adjacent pair `(ep, e)` satisfies this predicate — for
    /// the engines that keep whole events.
    #[inline]
    pub fn eval(&self, ep: &cogra_events::Event, e: &cogra_events::Event) -> bool {
        self.eval_value(ep.attr(self.pred_attr), e)
    }
}

/// Aggregation function kind, with its variable/attribute resolved to
/// automaton states per disjunct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)`.
    CountStar,
    /// `COUNT(V)`.
    CountVar,
    /// `MIN(V.attr)`.
    Min,
    /// `MAX(V.attr)`.
    Max,
    /// `SUM(V.attr)`.
    Sum,
    /// `AVG(V.attr)`.
    Avg,
}

/// One aggregate of the `RETURN` clause, resolved against a disjunct's
/// automaton. `targets` lists the states whose events feed the aggregate
/// (several, when min-length unrolling duplicated a variable); empty when
/// the variable does not occur in this disjunct, in which case the
/// disjunct contributes the aggregation identity.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledAgg {
    /// Function kind.
    pub func: AggFunc,
    /// `(state, attr)` pairs feeding this aggregate; `attr` is `None` for
    /// the COUNT family.
    pub targets: Vec<(StateId, Option<AttrId>)>,
}

/// One compiled pattern disjunct: automaton + resolved predicates +
/// granularity configuration.
#[derive(Debug, Clone)]
pub struct CompiledDisjunct {
    /// The FSA (§3.1).
    pub automaton: Automaton,
    /// Local filters per state (indexed by `StateId`).
    pub locals: Vec<Vec<LocalFilter>>,
    /// Local filters per negated variable (indexed by `NegId`).
    pub neg_locals: Vec<Vec<LocalFilter>>,
    /// All predicates on adjacent events.
    pub adjacents: Vec<CompiledAdjacent>,
    /// Indexes into `adjacents`, keyed by `(pred, succ)` state pair.
    pub adj_by_pair: HashMap<(StateId, StateId), Vec<usize>>,
    /// The **stored projection**: per registered type (indexed by
    /// `TypeId`), the ascending ids of the attributes this disjunct reads
    /// off an event of that type *after* it was matched — the `pred_attr`s
    /// of the predicates on adjacent events whose predecessor state has
    /// the type. That, and its time stamp, is all an aggregator keeps of a
    /// matched event; [`CompiledAdjacent::pred_slot`] indexes this list.
    /// (The same walk as [`CompiledQuery::read_set`], predecessor side
    /// only: the partition key is the partition's, not the event's.)
    pub stored: Vec<Vec<AttrId>>,
    /// Per state: does it belong to `Te` (event-grained, Theorem 5.1)?
    pub event_grained: Vec<bool>,
    /// Selected granularity (Table 4).
    pub granularity: Granularity,
    /// Aggregates aligned with [`CompiledQuery::agg_calls`].
    pub aggs: Vec<CompiledAgg>,
}

impl CompiledDisjunct {
    /// Whether `event` passes the local filters of `state`.
    #[inline]
    pub fn locals_pass(&self, state: StateId, event: &cogra_events::Event) -> bool {
        self.locals[state.index()].iter().all(|f| f.eval(event))
    }

    /// Whether `event` passes the local filters of negated variable `neg`.
    #[inline]
    pub fn neg_locals_pass(&self, neg: NegId, event: &cogra_events::Event) -> bool {
        self.neg_locals[neg.index()].iter().all(|f| f.eval(event))
    }

    /// The **route** of an event of `type_id` through this disjunct: the
    /// states it binds and the negated variables it matches, as far as the
    /// plan decides them. Only a local filter on one of the type's states
    /// or negated variables leaves the answer to the event; otherwise every
    /// event of the type binds what [`Automaton::states_of_type`] and
    /// [`Automaton::negations_of_type`] list.
    pub fn route(&self, type_id: TypeId) -> Route<(Vec<StateId>, Vec<NegId>)> {
        let a = &self.automaton;
        let (binds, negations) = (a.states_of_type(type_id), a.negations_of_type(type_id));
        let filtered = binds.iter().any(|s| !self.locals[s.index()].is_empty())
            || negations
                .iter()
                .any(|n| !self.neg_locals[n.index()].is_empty());
        if filtered {
            Route::Filtered
        } else if binds.is_empty() && negations.is_empty() {
            Route::Nothing
        } else {
            Route::Static((binds.to_vec(), negations.to_vec()))
        }
    }

    /// The predicates on adjacent events attached to the `(pred, succ)`
    /// state pair.
    pub fn adjacents_of(
        &self,
        pred: StateId,
        succ: StateId,
    ) -> impl Iterator<Item = &CompiledAdjacent> {
        let ids = self.adj_by_pair.get(&(pred, succ));
        ids.into_iter().flatten().map(|&i| &self.adjacents[i])
    }

    /// Whether the adjacent pair `(ep@pred, e@succ)` satisfies every
    /// adjacent predicate attached to that state pair (Definition 7
    /// condition 3) — for the engines that keep whole events and look the
    /// pair up per call; the COGRA aggregators resolve it once, at build
    /// time, from [`CompiledDisjunct::adjacents_of`].
    #[inline]
    pub fn adjacency_predicates_pass(
        &self,
        pred: StateId,
        succ: StateId,
        ep: &cogra_events::Event,
        e: &cogra_events::Event,
    ) -> bool {
        self.adjacents_of(pred, succ).all(|adj| adj.eval(ep, e))
    }
}

/// What an event of one type does, decided once per plan so an engine
/// reads it instead of evaluating it per event: in one disjunct
/// ([`CompiledDisjunct::route`]) or across the query
/// ([`CompiledQuery::route`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route<B> {
    /// It does nothing: in a disjunct, it binds no state and matches no
    /// negated variable; in a query, that holds in every disjunct and the
    /// semantics drops such an event ([`CompiledQuery::drops_unbound`]).
    Nothing,
    /// It binds `B` whatever its attributes: no state or negated variable
    /// of its type carries a local filter.
    Static(B),
    /// A state or negated variable of its type carries a local filter:
    /// what it binds is decided per event.
    Filtered,
}

impl<B> Route<B> {
    /// The route with its static binds mapped by `f`.
    pub fn map<C>(self, f: impl FnOnce(B) -> C) -> Route<C> {
        match self {
            Route::Nothing => Route::Nothing,
            Route::Static(binds) => Route::Static(f(binds)),
            Route::Filtered => Route::Filtered,
        }
    }
}

/// A fully compiled event trend aggregation query.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    /// Event matching semantics.
    pub semantics: Semantics,
    /// Sliding window.
    pub window: WindowSpec,
    /// Partition-key attribute names: `GROUP-BY` attributes plus
    /// equivalence-predicate attributes (§7) — both partition the stream
    /// into non-overlapping sub-streams. The first
    /// [`group_prefix`](Self::group_prefix) entries are the `GROUP-BY`
    /// attributes; results are emitted per distinct value of that prefix.
    pub partition_attrs: Vec<String>,
    /// Number of leading `partition_attrs` that form the output group key.
    pub group_prefix: usize,
    /// The surface aggregate calls, in `RETURN` order.
    pub agg_calls: Vec<AggCall>,
    /// Compiled disjuncts; results combine across them (§8).
    pub disjuncts: Vec<CompiledDisjunct>,
}

impl CompiledQuery {
    /// Whether an event that binds nothing in any disjunct is dropped
    /// before it reaches a window. It changes no window's aggregates —
    /// except under the contiguous semantics, where it breaks the partial
    /// trends it falls between.
    #[inline]
    pub fn drops_unbound(&self) -> bool {
        self.semantics != Semantics::Cont
    }

    /// The **route** of an event of `type_id` through the query: its
    /// [`CompiledDisjunct::route`] in every disjunct, one bind list per
    /// disjunct when all are static; [`Route::Filtered`] when a filter
    /// decides any of them; [`Route::Nothing`] when it binds nothing
    /// anywhere and [`drops_unbound`](Self::drops_unbound) holds.
    pub fn route(&self, type_id: TypeId) -> Route<Vec<(Vec<StateId>, Vec<NegId>)>> {
        let mut per_disjunct = Vec::with_capacity(self.disjuncts.len());
        for d in &self.disjuncts {
            per_disjunct.push(match d.route(type_id) {
                Route::Filtered => return Route::Filtered,
                Route::Nothing => Default::default(),
                Route::Static(binds) => binds,
            });
        }
        let unbound = per_disjunct
            .iter()
            .all(|(binds, negations)| binds.is_empty() && negations.is_empty());
        if unbound && self.drops_unbound() {
            Route::Nothing
        } else {
            Route::Static(per_disjunct)
        }
    }

    /// The coarsest granularity across disjuncts (for reporting).
    pub fn granularity(&self) -> Granularity {
        let mut g = Granularity::Pattern;
        for d in &self.disjuncts {
            g = match (g, d.granularity) {
                (_, Granularity::Mixed) | (Granularity::Mixed, _) => Granularity::Mixed,
                (_, Granularity::Type) | (Granularity::Type, _) => Granularity::Type,
                _ => Granularity::Pattern,
            };
        }
        g
    }

    /// Resolve the partition attributes for every registered type. Types
    /// missing any partition attribute map to `None`: their events cannot
    /// be assigned to a partition and are dropped by the engines — the
    /// paper leaves the case open; dropping keeps every sub-stream a
    /// function of its key alone.
    pub fn partition_attr_ids(&self, registry: &TypeRegistry) -> Vec<Option<Vec<AttrId>>> {
        registry
            .iter()
            .map(|(_, schema)| {
                self.partition_attrs
                    .iter()
                    .map(|a| schema.attr(a))
                    .collect::<Option<Vec<AttrId>>>()
            })
            .collect()
    }

    /// The **read-set** of the plan: per registered type (indexed by
    /// `TypeId`), the ascending ids of the attributes anything in it reads
    /// off an event of that type — the partition key, the local filters of
    /// its states and negated variables, both sides of every predicate on
    /// adjacent events, and the aggregate targets. Every other attribute
    /// of an event is dead weight to this query: an engine may be handed
    /// any value in its place. A type without the partition attributes
    /// reads nothing — its events are dropped before anything looks at
    /// them ([`CompiledQuery::partition_attr_ids`]).
    pub fn read_set(&self, registry: &TypeRegistry) -> Vec<Vec<AttrId>> {
        let keys = self.partition_attr_ids(registry);
        let mut reads: Vec<Vec<AttrId>> =
            keys.iter().map(|k| k.clone().unwrap_or_default()).collect();
        for d in &self.disjuncts {
            let a = &d.automaton;
            let state_type = |s: StateId| a.state(s).type_id.index();
            for (s, _) in a.states() {
                let filters = d.locals[s.index()].iter().map(|f| f.attr);
                reads[state_type(s)].extend(filters);
            }
            for (n, v) in a.negated_vars() {
                let filters = d.neg_locals[n.index()].iter().map(|f| f.attr);
                reads[v.type_id.index()].extend(filters);
            }
            for adj in &d.adjacents {
                reads[state_type(adj.pred)].push(adj.pred_attr);
                reads[state_type(adj.succ)].push(adj.succ_attr);
            }
            for (s, attr) in d.aggs.iter().flat_map(|agg| &agg.targets) {
                reads[state_type(*s)].extend(attr);
            }
        }
        for (attrs, key) in reads.iter_mut().zip(&keys) {
            if key.is_none() {
                attrs.clear();
            }
            attrs.sort_unstable_by_key(|a| a.0);
            attrs.dedup();
        }
        reads
    }
}

/// Compile a surface query against a type registry.
pub fn compile(query: &Query, registry: &TypeRegistry) -> QueryResult<CompiledQuery> {
    // -- Partition attributes: GROUP-BY ∪ equivalence predicates (§7).
    let mut partition_attrs: Vec<String> = Vec::new();
    fn push_attr(attrs: &mut Vec<String>, name: &str) {
        let name = strip_var_prefix(name);
        if !attrs.iter().any(|a| a == name) {
            attrs.push(name.to_string());
        }
    }
    for g in &query.group_by {
        push_attr(&mut partition_attrs, g);
    }
    let group_prefix = partition_attrs.len();
    for p in &query.predicates {
        if let PredicateExpr::Equivalence { attr } = p {
            push_attr(&mut partition_attrs, attr);
        }
    }

    // -- RETURN attributes must come from the grouping key.
    for item in &query.ret {
        if let ReturnItem::Attr(a) = item {
            let a = strip_var_prefix(a);
            if !partition_attrs.iter().any(|p| p == a) {
                return Err(QueryError::compile(format!(
                    "RETURN attribute `{a}` is not a GROUP-BY or equivalence attribute"
                )));
            }
        }
    }

    let agg_calls: Vec<AggCall> = query.aggregates().cloned().collect();
    if agg_calls.is_empty() {
        return Err(QueryError::compile(
            "RETURN clause must contain at least one aggregation function",
        ));
    }

    let disjunct_patterns = rewrite::to_disjuncts(&query.pattern)?;
    let mut disjuncts = Vec::with_capacity(disjunct_patterns.len());
    for pattern in &disjunct_patterns {
        disjuncts.push(compile_disjunct(pattern, query, &agg_calls, registry)?);
    }

    Ok(CompiledQuery {
        semantics: query.semantics,
        window: query.window,
        partition_attrs,
        group_prefix,
        agg_calls,
        disjuncts,
    })
}

/// `A.company` → `company`; `sector` → `sector`.
fn strip_var_prefix(name: &str) -> &str {
    match name.split_once('.') {
        Some((_, attr)) => attr,
        None => name,
    }
}

fn kinds_comparable(a: ValueKind, b: ValueKind) -> bool {
    use ValueKind::*;
    matches!(
        (a, b),
        (Int | Float, Int | Float) | (Str, Str) | (Bool, Bool)
    )
}

fn compile_disjunct(
    pattern: &PatternExpr,
    query: &Query,
    agg_calls: &[AggCall],
    registry: &TypeRegistry,
) -> QueryResult<CompiledDisjunct> {
    let automaton = Automaton::build(pattern, registry)?;

    // A variable reference `A` resolves to the state named `A` plus any
    // `A__unrollN` copies produced by the minimal-trend-length rewrite.
    let states_for_var = |var: &str| -> Vec<StateId> {
        let prefix = format!("{var}__unroll");
        automaton
            .states()
            .filter(|(_, v)| v.name == var || v.name.starts_with(&prefix))
            .map(|(s, _)| s)
            .collect()
    };

    let resolve_attr = |var: &str, attr: &str, state: StateId| -> QueryResult<AttrId> {
        let type_id = automaton.state(state).type_id;
        let schema = registry.schema(type_id);
        schema.attr(attr).ok_or_else(|| {
            QueryError::compile(format!(
                "type `{}` (variable `{var}`) has no attribute `{attr}`",
                schema.name()
            ))
        })
    };

    let mut locals: Vec<Vec<LocalFilter>> = vec![Vec::new(); automaton.num_states()];
    let mut neg_locals: Vec<Vec<LocalFilter>> = vec![Vec::new(); automaton.num_negated()];
    let mut adjacents: Vec<CompiledAdjacent> = Vec::new();

    for p in &query.predicates {
        match p {
            PredicateExpr::Equivalence { .. } => {} // handled at query level
            PredicateExpr::Local { lhs, op, rhs } => {
                if lhs.next {
                    return Err(QueryError::compile(format!(
                        "NEXT({}) cannot be compared against a constant",
                        lhs.var
                    )));
                }
                let value = rhs.to_value();
                let states = states_for_var(&lhs.var);
                if states.is_empty() {
                    // Maybe a negated variable; otherwise the variable is
                    // absent from this disjunct (dropped by sugar
                    // expansion) and the predicate is vacuous here.
                    if let Some(neg) = automaton.negated_of_var(&lhs.var) {
                        let type_id = automaton.negated_var(neg).type_id;
                        let schema = registry.schema(type_id);
                        let attr = schema.attr(&lhs.attr).ok_or_else(|| {
                            QueryError::compile(format!(
                                "type `{}` has no attribute `{}`",
                                schema.name(),
                                lhs.attr
                            ))
                        })?;
                        check_kinds(schema.attr_kind(attr), &value, &lhs.attr)?;
                        neg_locals[neg.index()].push(LocalFilter {
                            attr,
                            op: *op,
                            value,
                        });
                    }
                    continue;
                }
                for state in states {
                    let attr = resolve_attr(&lhs.var, &lhs.attr, state)?;
                    let kind = registry
                        .schema(automaton.state(state).type_id)
                        .attr_kind(attr);
                    check_kinds(kind, &value, &lhs.attr)?;
                    locals[state.index()].push(LocalFilter {
                        attr,
                        op: *op,
                        value: value.clone(),
                    });
                }
            }
            PredicateExpr::Adjacent { lhs, op, rhs } => {
                // Orient the predicate: the NEXT(...) side (or by
                // convention the right-hand side) is the successor.
                let (pred_ref, succ_ref, op) = match (lhs.next, rhs.next) {
                    (true, true) => {
                        return Err(QueryError::compile(
                            "at most one side of a predicate may be NEXT(...)",
                        ))
                    }
                    (false, true) => (lhs, rhs, *op),
                    (true, false) => (rhs, lhs, op.flipped()),
                    (false, false) => {
                        if lhs.var == rhs.var {
                            return Err(QueryError::compile(format!(
                                "predicate relates `{}` to itself; use NEXT({}) for adjacent occurrences",
                                lhs.var, lhs.var
                            )));
                        }
                        (lhs, rhs, *op)
                    }
                };
                let pred_states = states_for_var(&pred_ref.var);
                let succ_states = states_for_var(&succ_ref.var);
                if pred_states.is_empty() || succ_states.is_empty() {
                    continue; // variable absent from this disjunct
                }
                // Attach to every existing pred→succ edge; if none exists
                // in that orientation but the reverse does, flip.
                let mut attached = false;
                for &ps in &pred_states {
                    for &ss in &succ_states {
                        if automaton.is_pred(ps, ss) {
                            adjacents.push(CompiledAdjacent {
                                pred: ps,
                                pred_attr: resolve_attr(&pred_ref.var, &pred_ref.attr, ps)?,
                                pred_slot: 0, // resolved below, once the lists are known
                                succ: ss,
                                succ_attr: resolve_attr(&succ_ref.var, &succ_ref.attr, ss)?,
                                op,
                            });
                            attached = true;
                        }
                    }
                }
                if !attached {
                    let mut flipped = false;
                    for &ss in &succ_states {
                        for &ps in &pred_states {
                            if automaton.is_pred(ss, ps) {
                                adjacents.push(CompiledAdjacent {
                                    pred: ss,
                                    pred_attr: resolve_attr(&succ_ref.var, &succ_ref.attr, ss)?,
                                    pred_slot: 0,
                                    succ: ps,
                                    succ_attr: resolve_attr(&pred_ref.var, &pred_ref.attr, ps)?,
                                    op: op.flipped(),
                                });
                                flipped = true;
                            }
                        }
                    }
                    if !flipped {
                        return Err(QueryError::compile(format!(
                            "predicate relates `{}` and `{}`, but those variables are never adjacent in the pattern",
                            pred_ref.var, succ_ref.var
                        )));
                    }
                }
            }
        }
    }

    // -- The stored projection: what is read off a matched event later on,
    // per type, and where in it each predicate finds its value.
    let pred_type = |a: &CompiledAdjacent| automaton.state(a.pred).type_id.index();
    let mut stored: Vec<Vec<AttrId>> = vec![Vec::new(); registry.len()];
    for a in &adjacents {
        stored[pred_type(a)].push(a.pred_attr);
    }
    for attrs in &mut stored {
        attrs.sort_unstable_by_key(|a| a.0);
        attrs.dedup();
    }
    for a in &mut adjacents {
        let attrs = &stored[pred_type(a)];
        a.pred_slot = attrs
            .iter()
            .position(|attr| *attr == a.pred_attr)
            .expect("the list was built from these predicates");
    }

    let mut adj_by_pair: HashMap<(StateId, StateId), Vec<usize>> = HashMap::new();
    for (i, a) in adjacents.iter().enumerate() {
        adj_by_pair.entry((a.pred, a.succ)).or_default().push(i);
    }

    // -- Te (Theorem 5.1): state E is event-grained iff some adjacent
    // predicate tests E's events as predecessors of a later state.
    let mut event_grained = vec![false; automaton.num_states()];
    for a in &adjacents {
        event_grained[a.pred.index()] = true;
    }

    let granularity = select_granularity(query.semantics, !adjacents.is_empty());

    // -- Aggregates.
    let mut aggs = Vec::with_capacity(agg_calls.len());
    for call in agg_calls {
        let (func, var, attr) = match call {
            AggCall::CountStar => (AggFunc::CountStar, None, None),
            AggCall::CountVar(v) => (AggFunc::CountVar, Some(v), None),
            AggCall::Min(v, a) => (AggFunc::Min, Some(v), Some(a)),
            AggCall::Max(v, a) => (AggFunc::Max, Some(v), Some(a)),
            AggCall::Sum(v, a) => (AggFunc::Sum, Some(v), Some(a)),
            AggCall::Avg(v, a) => (AggFunc::Avg, Some(v), Some(a)),
        };
        let targets = match var {
            None => Vec::new(),
            Some(v) => {
                let states = states_for_var(v);
                if states.is_empty() && automaton.negated_of_var(v).is_some() {
                    return Err(QueryError::compile(format!(
                        "cannot aggregate over negated variable `{v}`"
                    )));
                }
                let mut targets = Vec::with_capacity(states.len());
                for s in states {
                    let attr_id = match attr {
                        Some(a) => {
                            let id = resolve_attr(v, a, s)?;
                            let kind = registry.schema(automaton.state(s).type_id).attr_kind(id);
                            if !matches!(kind, ValueKind::Int | ValueKind::Float) {
                                return Err(QueryError::compile(format!(
                                    "aggregate {call} requires a numeric attribute, `{a}` is {kind}"
                                )));
                            }
                            Some(id)
                        }
                        None => None,
                    };
                    targets.push((s, attr_id));
                }
                targets
            }
        };
        // A variable that exists in the surface pattern but not in this
        // disjunct (dropped by star/optional expansion) yields empty
        // targets: the disjunct contributes the aggregation identity.
        if func != AggFunc::CountStar && targets.is_empty() && !states_exist_somewhere(var, query) {
            return Err(QueryError::compile(format!(
                "aggregate references unknown variable `{}`",
                var.map(String::as_str).unwrap_or("?")
            )));
        }
        aggs.push(CompiledAgg { func, targets });
    }

    Ok(CompiledDisjunct {
        automaton,
        locals,
        neg_locals,
        adjacents,
        adj_by_pair,
        stored,
        event_grained,
        granularity,
        aggs,
    })
}

fn check_kinds(attr_kind: ValueKind, value: &Value, attr: &str) -> QueryResult<()> {
    if !kinds_comparable(attr_kind, value.kind()) {
        return Err(QueryError::compile(format!(
            "attribute `{attr}` of kind {attr_kind} is not comparable to a {} literal",
            value.kind()
        )));
    }
    Ok(())
}

fn states_exist_somewhere(var: Option<&String>, query: &Query) -> bool {
    let Some(var) = var else { return false };
    fn contains(p: &PatternExpr, var: &str) -> bool {
        match p {
            PatternExpr::Leaf(l) => l.var == var,
            PatternExpr::Not(p)
            | PatternExpr::Plus(p)
            | PatternExpr::Star(p)
            | PatternExpr::Opt(p) => contains(p, var),
            PatternExpr::Seq(ps) | PatternExpr::Or(ps) => ps.iter().any(|q| contains(q, var)),
        }
    }
    contains(&query.pattern, var)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{AttrRef, Leaf, Literal};
    use cogra_events::ValueKind;

    fn registry() -> TypeRegistry {
        let mut r = TypeRegistry::new();
        r.register_type(
            "Stock",
            vec![
                ("company", ValueKind::Int),
                ("sector", ValueKind::Int),
                ("price", ValueKind::Float),
            ],
        );
        r.register_type(
            "Measurement",
            vec![
                ("patient", ValueKind::Int),
                ("activity", ValueKind::Str),
                ("rate", ValueKind::Int),
            ],
        );
        r
    }

    fn q3_query() -> Query {
        // Simplified q3: SEQ(Stock A+, Stock B+) under ANY with a
        // predicate on adjacent A events.
        Query {
            ret: vec![
                ReturnItem::Attr("company".into()),
                ReturnItem::Agg(AggCall::Avg("B".into(), "price".into())),
            ],
            pattern: PatternExpr::seq(vec![
                PatternExpr::aliased("Stock", "A").plus(),
                PatternExpr::aliased("Stock", "B").plus(),
            ]),
            semantics: Semantics::Any,
            predicates: vec![
                PredicateExpr::Equivalence {
                    attr: "company".into(),
                },
                PredicateExpr::Adjacent {
                    lhs: AttrRef {
                        var: "A".into(),
                        attr: "price".into(),
                        next: false,
                    },
                    op: CmpOp::Gt,
                    rhs: AttrRef {
                        var: "A".into(),
                        attr: "price".into(),
                        next: true,
                    },
                },
            ],
            group_by: vec!["sector".into()],
            window: WindowSpec::new(600, 10),
        }
    }

    #[test]
    fn granularity_table4() {
        assert_eq!(select_granularity(Semantics::Any, false), Granularity::Type);
        assert_eq!(select_granularity(Semantics::Any, true), Granularity::Mixed);
        assert_eq!(
            select_granularity(Semantics::Next, false),
            Granularity::Pattern
        );
        assert_eq!(
            select_granularity(Semantics::Next, true),
            Granularity::Pattern
        );
        assert_eq!(
            select_granularity(Semantics::Cont, false),
            Granularity::Pattern
        );
        assert_eq!(
            select_granularity(Semantics::Cont, true),
            Granularity::Pattern
        );
    }

    #[test]
    fn q3_compiles_to_mixed_granularity() {
        let cq = compile(&q3_query(), &registry()).unwrap();
        assert_eq!(cq.disjuncts.len(), 1);
        let d = &cq.disjuncts[0];
        assert_eq!(d.granularity, Granularity::Mixed);
        // The predicate constrains A as predecessor of A (self-loop) —
        // only A is event-grained.
        let a = d.automaton.state_of_var("A").unwrap();
        let b = d.automaton.state_of_var("B").unwrap();
        assert!(d.event_grained[a.index()]);
        assert!(!d.event_grained[b.index()]);
        // Partition key: group-by sector ∪ equivalence company.
        assert_eq!(cq.partition_attrs, vec!["sector", "company"]);
    }

    #[test]
    fn next_side_is_successor() {
        let cq = compile(&q3_query(), &registry()).unwrap();
        let d = &cq.disjuncts[0];
        assert_eq!(d.adjacents.len(), 1);
        let adj = d.adjacents[0];
        let a = d.automaton.state_of_var("A").unwrap();
        assert_eq!(adj.pred, a);
        assert_eq!(adj.succ, a);
        assert_eq!(adj.op, CmpOp::Gt);
    }

    #[test]
    fn q1_compiles_to_pattern_granularity_under_cont() {
        let q = Query {
            ret: vec![
                ReturnItem::Attr("patient".into()),
                ReturnItem::Agg(AggCall::Min("M".into(), "rate".into())),
                ReturnItem::Agg(AggCall::Max("M".into(), "rate".into())),
            ],
            pattern: PatternExpr::Leaf(Leaf::aliased("Measurement", "M")).plus(),
            semantics: Semantics::Cont,
            predicates: vec![
                PredicateExpr::Equivalence {
                    attr: "patient".into(),
                },
                PredicateExpr::Adjacent {
                    lhs: AttrRef {
                        var: "M".into(),
                        attr: "rate".into(),
                        next: false,
                    },
                    op: CmpOp::Lt,
                    rhs: AttrRef {
                        var: "M".into(),
                        attr: "rate".into(),
                        next: true,
                    },
                },
                PredicateExpr::Local {
                    lhs: AttrRef {
                        var: "M".into(),
                        attr: "activity".into(),
                        next: false,
                    },
                    op: CmpOp::Eq,
                    rhs: Literal::Str("passive".into()),
                },
            ],
            group_by: vec!["patient".into()],
            window: WindowSpec::new(600, 30),
        };
        let cq = compile(&q, &registry()).unwrap();
        assert_eq!(cq.granularity(), Granularity::Pattern);
        let d = &cq.disjuncts[0];
        let m = d.automaton.state_of_var("M").unwrap();
        assert_eq!(d.locals[m.index()].len(), 1);
        assert_eq!(cq.partition_attrs, vec!["patient"]);
    }

    #[test]
    fn any_without_adjacent_predicates_is_type_grained() {
        let mut q = q3_query();
        q.predicates
            .retain(|p| matches!(p, PredicateExpr::Equivalence { .. }));
        let cq = compile(&q, &registry()).unwrap();
        assert_eq!(cq.granularity(), Granularity::Type);
    }

    #[test]
    fn return_attr_must_be_grouping_attr() {
        let mut q = q3_query();
        q.ret.push(ReturnItem::Attr("price".into()));
        let err = compile(&q, &registry()).unwrap_err();
        assert!(err.to_string().contains("GROUP-BY"));
    }

    #[test]
    fn aggregate_requires_numeric_attr() {
        let q = Query {
            ret: vec![ReturnItem::Agg(AggCall::Sum("M".into(), "activity".into()))],
            pattern: PatternExpr::Leaf(Leaf::aliased("Measurement", "M")).plus(),
            semantics: Semantics::Any,
            predicates: vec![],
            group_by: vec![],
            window: WindowSpec::new(10, 10),
        };
        let err = compile(&q, &registry()).unwrap_err();
        assert!(err.to_string().contains("numeric"));
    }

    #[test]
    fn missing_aggregate_rejected() {
        let q = Query {
            ret: vec![],
            pattern: PatternExpr::leaf("Stock").plus(),
            semantics: Semantics::Any,
            predicates: vec![],
            group_by: vec![],
            window: WindowSpec::new(10, 10),
        };
        assert!(compile(&q, &registry()).is_err());
    }

    #[test]
    fn self_relating_predicate_without_next_rejected() {
        let mut q = q3_query();
        q.predicates.push(PredicateExpr::Adjacent {
            lhs: AttrRef {
                var: "B".into(),
                attr: "price".into(),
                next: false,
            },
            op: CmpOp::Lt,
            rhs: AttrRef {
                var: "B".into(),
                attr: "price".into(),
                next: false,
            },
        });
        let err = compile(&q, &registry()).unwrap_err();
        assert!(err.to_string().contains("NEXT"));
    }

    #[test]
    fn cross_variable_predicate_attaches_to_edge() {
        // A.price < B.price between adjacent A and B.
        let mut q = q3_query();
        q.predicates.push(PredicateExpr::Adjacent {
            lhs: AttrRef {
                var: "A".into(),
                attr: "price".into(),
                next: false,
            },
            op: CmpOp::Lt,
            rhs: AttrRef {
                var: "B".into(),
                attr: "price".into(),
                next: false,
            },
        });
        let cq = compile(&q, &registry()).unwrap();
        let d = &cq.disjuncts[0];
        let a = d.automaton.state_of_var("A").unwrap();
        let b = d.automaton.state_of_var("B").unwrap();
        assert!(d.adj_by_pair.contains_key(&(a, b)));
        // Now B is also... no: the pred side is A, so A stays in Te, B
        // still only appears as successor.
        assert!(d.event_grained[a.index()]);
    }

    #[test]
    fn stored_projection_lists_what_predecessors_are_read_for() {
        // Per type, ascending and without repeats: `A.price` is read twice
        // (on the self-loop and on the A→B edge), `A.sector` once; `B` is
        // a successor only, but shares the type. Nothing of a Measurement,
        // and the partition attribute `company` is not there for being one.
        let mut q = q3_query();
        for (lhs, rhs) in [
            (("A", "price"), ("B", "price")),
            (("A", "sector"), ("B", "company")),
        ] {
            let side = |(var, attr): (&str, &str)| AttrRef {
                var: var.into(),
                attr: attr.into(),
                next: false,
            };
            q.predicates.push(PredicateExpr::Adjacent {
                lhs: side(lhs),
                op: CmpOp::Le,
                rhs: side(rhs),
            });
        }
        let reg = registry();
        let cq = compile(&q, &reg).unwrap();
        let d = &cq.disjuncts[0];
        let stock = reg.id_of("Stock").unwrap();
        let attr = |name: &str| reg.schema(stock).attr(name).unwrap();
        assert_eq!(d.stored[stock.index()], [attr("sector"), attr("price")]);
        assert!(d.stored[reg.id_of("Measurement").unwrap().index()].is_empty());
        for adj in &d.adjacents {
            assert_eq!(d.stored[stock.index()][adj.pred_slot], adj.pred_attr);
        }

        // No predicate on adjacent events: nothing but the time is kept.
        q.predicates
            .retain(|p| matches!(p, PredicateExpr::Equivalence { .. }));
        let cq = compile(&q, &reg).unwrap();
        assert!(cq.disjuncts[0].stored.iter().all(Vec::is_empty));
    }

    #[test]
    fn reversed_cross_variable_predicate_is_flipped() {
        // B.price > A.price written "backwards": B never precedes A, so
        // the compiler flips it onto the A→B edge.
        let mut q = q3_query();
        q.predicates
            .retain(|p| matches!(p, PredicateExpr::Equivalence { .. }));
        q.predicates.push(PredicateExpr::Adjacent {
            lhs: AttrRef {
                var: "B".into(),
                attr: "price".into(),
                next: false,
            },
            op: CmpOp::Gt,
            rhs: AttrRef {
                var: "A".into(),
                attr: "price".into(),
                next: false,
            },
        });
        let cq = compile(&q, &registry()).unwrap();
        let d = &cq.disjuncts[0];
        let a = d.automaton.state_of_var("A").unwrap();
        let adj = d.adjacents.iter().find(|x| x.pred == a).unwrap();
        assert_eq!(adj.op, CmpOp::Lt); // flipped
    }

    #[test]
    fn star_disjuncts_share_agg_layout() {
        // SEQ(A*, B) under ANY: two disjuncts; COUNT(A) has targets only
        // in the first.
        let mut r = TypeRegistry::new();
        r.register_type("A", vec![("v", ValueKind::Int)]);
        r.register_type("B", vec![("v", ValueKind::Int)]);
        let q = Query {
            ret: vec![ReturnItem::Agg(AggCall::CountVar("A".into()))],
            pattern: PatternExpr::seq(vec![PatternExpr::leaf("A").star(), PatternExpr::leaf("B")]),
            semantics: Semantics::Any,
            predicates: vec![],
            group_by: vec![],
            window: WindowSpec::new(10, 10),
        };
        let cq = compile(&q, &r).unwrap();
        assert_eq!(cq.disjuncts.len(), 2);
        assert_eq!(cq.disjuncts[0].aggs[0].targets.len(), 1);
        assert_eq!(cq.disjuncts[1].aggs[0].targets.len(), 0);
    }

    #[test]
    fn partition_attr_ids_resolution() {
        let cq = compile(&q3_query(), &registry()).unwrap();
        let reg = registry();
        let ids = cq.partition_attr_ids(&reg);
        let stock = reg.id_of("Stock").unwrap();
        // Stock has sector + company.
        assert!(ids[stock.index()].is_some());
        // Measurement lacks them → None.
        let m = reg.id_of("Measurement").unwrap();
        assert!(ids[m.index()].is_none());
    }
}
