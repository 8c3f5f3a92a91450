//! Populations derived from a compiled plan instead of sampled: for every
//! transition of every disjunct's automaton, the smallest stream that
//! takes the edge and the smallest that just fails to — equal time stamps
//! (the stream-transaction rule), each adjacent predicate off by one, each
//! negated event on the gap's boundary and just inside it, each local
//! predicate off by one, the partition key off by one. Random streams
//! rarely reach a given transition of a low-selectivity pattern; these are
//! the "significant examples" that do.

use cogra::events::{AttrId, TypeId};
use cogra::prelude::*;
use cogra::query::{CmpOp, CompiledDisjunct, NegId, StateId};

/// How the edge under test is approached.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Variant {
    /// Predecessor, then successor one tick later: the edge is taken.
    Takes,
    /// Both in one stream transaction: not adjacent.
    SameTime,
    /// Adjacent predicate `k` of the edge violated by one.
    AdjacentOff(usize),
    /// Negated variable matched at the predecessor's own time stamp — the
    /// last moment that does not block.
    NegationOnBoundary(NegId),
    /// …and one tick later, strictly inside the gap: blocked.
    NegationInside(NegId),
    /// Local predicate `k` of the successor violated by one.
    LocalOff(usize),
    /// The successor in the neighbouring partition.
    KeyOff,
}

/// `value + by` as a value of `kind` (strings and booleans: any other one).
fn shifted(kind: ValueKind, value: &Value, by: i64) -> Value {
    match kind {
        ValueKind::Int => Value::Int(value.as_f64().unwrap_or(1.0) as i64 + by),
        ValueKind::Float => Value::Float(value.as_f64().unwrap_or(1.0) + by as f64),
        ValueKind::Str => {
            let value = value.as_str().unwrap_or("x");
            Value::str(format!("{value}{}", if by == 0 { "" } else { "~" }))
        }
        ValueKind::Bool => Value::Bool(value.as_bool().unwrap_or(true) ^ (by != 0)),
    }
}

/// The right-hand side of `left op right`, relative to the left, that
/// satisfies `op` with nothing to spare — and the one that misses by one.
/// (Negated, they place the left-hand side relative to the right.)
fn offsets(op: CmpOp) -> (i64, i64) {
    match op {
        CmpOp::Lt => (1, 0),
        CmpOp::Le => (0, -1),
        CmpOp::Gt => (-1, 0),
        CmpOp::Ge => (0, 1),
        CmpOp::Eq => (0, 1),
        CmpOp::Ne => (1, 0),
    }
}

struct Planner<'a> {
    registry: &'a TypeRegistry,
    partition_attrs: &'a [String],
    disjunct: &'a CompiledDisjunct,
}

impl Planner<'_> {
    /// An event of `type_id` with every attribute at its kind's default,
    /// which puts all events into one partition.
    fn default_attrs(&self, type_id: TypeId) -> Vec<Value> {
        let schema = self.registry.schema(type_id);
        let default = |(_, kind)| shifted(kind, &Value::Int(1), 0);
        schema.iter().map(default).collect()
    }

    fn kind(&self, type_id: TypeId, attr: AttrId) -> ValueKind {
        self.registry.schema(type_id).attr_kind(attr)
    }

    /// The events of a walk along `states`, the edge under test (if any)
    /// being `states[edge] → states[edge + 1]`, approached as `variant`
    /// says.
    fn walk(&self, states: &[StateId], edge: Option<usize>, variant: Variant) -> Vec<Event> {
        let automaton = &self.disjunct.automaton;
        let mut rows: Vec<(u64, TypeId, Vec<Value>)> = Vec::new();
        let mut time = 0;
        for (i, &state) in states.iter().enumerate() {
            let tested = edge.is_some_and(|edge| i == edge + 1);
            let type_id = automaton.state(state).type_id;
            let mut attrs = self.default_attrs(type_id);
            for (k, filter) in self.disjunct.locals[state.index()].iter().enumerate() {
                // `attr op constant`: the attribute is the left-hand side.
                let (pass, miss) = offsets(filter.op);
                let off = tested && variant == Variant::LocalOff(k);
                attrs[filter.attr.index()] = shifted(
                    self.kind(type_id, filter.attr),
                    &filter.value,
                    -if off { miss } else { pass },
                );
            }
            if let Some((_, _, previous)) = rows.last().filter(|_| i > 0) {
                let adjacents = self.disjunct.adj_by_pair.get(&(states[i - 1], state));
                for (k, &p) in adjacents.into_iter().flatten().enumerate() {
                    let p = &self.disjunct.adjacents[p];
                    let (pass, miss) = offsets(p.op);
                    let off = tested && variant == Variant::AdjacentOff(k);
                    attrs[p.succ_attr.index()] = shifted(
                        self.kind(type_id, p.succ_attr),
                        &previous[p.pred_attr.index()],
                        if off { miss } else { pass },
                    );
                }
            }
            if tested && variant == Variant::KeyOff {
                let schema = self.registry.schema(type_id);
                if let Some(attr) = self.partition_attrs.iter().find_map(|a| schema.attr(a)) {
                    attrs[attr.index()] = shifted(schema.attr_kind(attr), &attrs[attr.index()], 1);
                }
            }
            let negated = match variant {
                Variant::NegationOnBoundary(n) if tested => Some((time, n)),
                Variant::NegationInside(n) if tested => {
                    time += 1;
                    Some((time, n))
                }
                _ => None,
            };
            if let Some((at, n)) = negated {
                let type_id = automaton.negated_var(n).type_id;
                let mut attrs = self.default_attrs(type_id);
                for filter in &self.disjunct.neg_locals[n.index()] {
                    attrs[filter.attr.index()] = shifted(
                        self.kind(type_id, filter.attr),
                        &filter.value,
                        -offsets(filter.op).0,
                    );
                }
                rows.push((at, type_id, attrs));
            }
            if !(tested && variant == Variant::SameTime) {
                time += 1;
            }
            rows.push((time, type_id, attrs));
        }
        // The negated event on the boundary was planned after its
        // predecessor and shares its time stamp: the order holds.
        let mut builder = EventBuilder::new();
        rows.into_iter()
            .map(|(time, type_id, attrs)| builder.event(time, type_id, attrs))
            .collect()
    }
}

/// Shortest walks through `disjunct`'s automaton: from the start state to
/// each state, and from each state to the end state.
fn shortest_walks(disjunct: &CompiledDisjunct) -> (Vec<Vec<StateId>>, Vec<Vec<StateId>>) {
    let automaton = &disjunct.automaton;
    let n = automaton.num_states();
    let states = || (0..n as u32).map(StateId);
    let search = |root: StateId, forward: bool| {
        let mut walks: Vec<Vec<StateId>> = vec![Vec::new(); n];
        walks[root.index()] = vec![root];
        let mut frontier = vec![root];
        while let Some(at) = frontier.pop() {
            for next in states() {
                let linked = if forward {
                    automaton.is_pred(at, next)
                } else {
                    automaton.is_pred(next, at)
                };
                if linked && walks[next.index()].is_empty() {
                    let mut walk = walks[at.index()].clone();
                    walk.push(next);
                    walks[next.index()] = walk;
                    frontier.insert(0, next);
                }
            }
        }
        walks
    };
    let mut to_end = search(automaton.end(), false);
    to_end.iter_mut().for_each(|walk| walk.reverse());
    (search(automaton.start(), true), to_end)
}

/// Every edge population of `query`: `(what it probes, the stream)`.
pub fn populations(query: &str, registry: &TypeRegistry) -> Vec<(String, Vec<Event>)> {
    let plan = compile(&parse(query).expect("query parses"), registry).expect("query compiles");
    let mut out = Vec::new();
    for (d, disjunct) in plan.disjuncts.iter().enumerate() {
        let planner = Planner {
            registry,
            partition_attrs: &plan.partition_attrs,
            disjunct,
        };
        let automaton = &disjunct.automaton;
        let (from_start, to_end) = shortest_walks(disjunct);
        let name = |s: StateId| automaton.state(s).name.as_str();
        // The shortest trend at all; the only population of a pattern
        // without transitions.
        let shortest = &to_end[automaton.start().index()];
        out.push((
            format!("d{d} shortest trend"),
            planner.walk(shortest, None, Variant::Takes),
        ));
        for (to, _) in automaton.states() {
            for incoming in automaton.preds(to) {
                let from = incoming.from;
                let mut walk = from_start[from.index()].clone();
                let edge = walk.len() - 1;
                walk.extend(&to_end[to.index()]);
                let mut variants = vec![Variant::Takes, Variant::SameTime, Variant::KeyOff];
                let adjacents = disjunct.adj_by_pair.get(&(from, to)).map_or(0, Vec::len);
                variants.extend((0..adjacents).map(Variant::AdjacentOff));
                variants.extend((0..disjunct.locals[to.index()].len()).map(Variant::LocalOff));
                for &n in &incoming.negations {
                    variants.push(Variant::NegationOnBoundary(n));
                    variants.push(Variant::NegationInside(n));
                }
                for variant in variants {
                    out.push((
                        format!("d{d} {} → {} {variant:?}", name(from), name(to)),
                        planner.walk(&walk, Some(edge), variant),
                    ));
                }
            }
        }
    }
    out
}
