//! Pattern Analyzer (§3.1): translation of a core pattern into its Finite
//! State Automaton representation.
//!
//! States are labelled by the pattern's event-type occurrences (pattern
//! *variables*, so `SEQ(Stock A+, Stock B+)` has two states even though both
//! share the `Stock` type — §8 "multiple event type occurrences").
//! Transitions are labelled by the operators and connect the types of events
//! adjacent in a trend: if a transition connects state `E'` to `E`, then
//! `E'` is a *predecessor type* of `E` (`P.predTypes(E)`, Definition 7
//! condition 1).
//!
//! Negated event types (§8) never become states; instead they tag the
//! transitions that cross them: a match of the negated type invalidates the
//! predecessor aggregates flowing along those transitions.

use crate::ast::{Leaf, PatternExpr};
use crate::error::{QueryError, QueryResult};
use cogra_events::{TypeId, TypeRegistry};
use std::collections::HashMap;
use std::fmt;

/// Identifier of an automaton state (one per positive pattern variable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u32);

impl StateId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Identifier of a negated pattern variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NegId(pub u32);

impl NegId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A pattern variable: a positive state or a negated occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarInfo {
    /// Variable name (unique within the pattern).
    pub name: String,
    /// Event type name.
    pub event_type: String,
    /// Resolved event type.
    pub type_id: TypeId,
}

/// An incoming transition of a state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredEdge {
    /// Predecessor state (`from ∈ P.predTypes(target)`).
    pub from: StateId,
    /// Negated variables this transition crosses: a match of any of them
    /// invalidates older predecessor aggregates on this edge.
    pub negations: Vec<NegId>,
}

/// FSA representation of one core pattern disjunct.
#[derive(Debug, Clone)]
pub struct Automaton {
    states: Vec<VarInfo>,
    negated: Vec<VarInfo>,
    /// `preds[s]` = incoming edges of state `s`.
    preds: Vec<Vec<PredEdge>>,
    start: StateId,
    end: StateId,
    /// `by_type[t]` = states an event of type `t` can bind to. Type ids
    /// are dense, so the per-event lookup is an index, not a hash probe;
    /// types past the pattern's largest have no entry.
    by_type: Vec<Vec<StateId>>,
    /// `neg_by_type[t]` = negated variables an event of type `t` matches.
    neg_by_type: Vec<Vec<NegId>>,
}

/// The ids of `vars` (`id(position)`), grouped by variable type and
/// indexed by [`TypeId`].
fn index_by_type<I: Copy>(vars: &[VarInfo], id: impl Fn(u32) -> I) -> Vec<Vec<I>> {
    let mut by_type: Vec<Vec<I>> = Vec::new();
    for (i, v) in vars.iter().enumerate() {
        let t = v.type_id.index();
        if by_type.len() <= t {
            by_type.resize_with(t + 1, Vec::new);
        }
        by_type[t].push(id(i as u32));
    }
    by_type
}

impl Automaton {
    /// Build the automaton for a core pattern (a disjunct produced by
    /// [`crate::rewrite::to_disjuncts`]), resolving event type names
    /// against `registry`.
    pub fn build(pattern: &PatternExpr, registry: &TypeRegistry) -> QueryResult<Automaton> {
        let mut b = Builder {
            registry,
            states: Vec::new(),
            negated: Vec::new(),
            state_by_var: HashMap::new(),
            edges: Vec::new(),
        };
        let span = b.walk(pattern)?;
        let [start] = span.firsts[..] else {
            return Err(QueryError::compile(
                "pattern must have exactly one start type",
            ));
        };
        let [end] = span.lasts[..] else {
            return Err(QueryError::compile(
                "pattern must have exactly one end type",
            ));
        };
        // Deduplicate edges: degenerate nestings like `(P+)+` connect the
        // same state pair once per Kleene level. Adjacency is a *relation*
        // (Definition 7), not a multiset of derivations — a duplicate edge
        // would double-count predecessor contributions. When duplicates
        // carry different negation tags, the pair is adjacent if any
        // derivation permits it, so the tag sets intersect.
        let mut preds: Vec<Vec<PredEdge>> = vec![Vec::new(); b.states.len()];
        for (from, to, negations) in b.edges {
            let bucket = &mut preds[to.index()];
            match bucket.iter_mut().find(|e| e.from == from) {
                Some(existing) => {
                    existing.negations.retain(|n| negations.contains(n));
                }
                None => bucket.push(PredEdge { from, negations }),
            }
        }
        let by_type = index_by_type(&b.states, StateId);
        let neg_by_type = index_by_type(&b.negated, NegId);
        Ok(Automaton {
            states: b.states,
            negated: b.negated,
            preds,
            start,
            end,
            by_type,
            neg_by_type,
        })
    }

    /// Number of states (= pattern length `l` in the complexity theorems).
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Number of negated variables.
    pub fn num_negated(&self) -> usize {
        self.negated.len()
    }

    /// The unique start state (`start(P)`); a trend always begins with an
    /// event bound here.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// The unique end state (`end(P)`); only events bound here finish
    /// trends (Definition 5).
    pub fn end(&self) -> StateId {
        self.end
    }

    /// State metadata.
    pub fn state(&self, s: StateId) -> &VarInfo {
        &self.states[s.index()]
    }

    /// Negated-variable metadata.
    pub fn negated_var(&self, n: NegId) -> &VarInfo {
        &self.negated[n.index()]
    }

    /// Incoming transitions of `s` (`P.predTypes`, with negation tags).
    pub fn preds(&self, s: StateId) -> &[PredEdge] {
        &self.preds[s.index()]
    }

    /// Whether state `from` is a predecessor type of state `to`.
    pub fn is_pred(&self, from: StateId, to: StateId) -> bool {
        self.preds[to.index()].iter().any(|e| e.from == from)
    }

    /// The edge `from → to` if it exists.
    pub fn edge(&self, from: StateId, to: StateId) -> Option<&PredEdge> {
        self.preds[to.index()].iter().find(|e| e.from == from)
    }

    /// States an event of `type_id` can bind to.
    pub fn states_of_type(&self, type_id: TypeId) -> &[StateId] {
        self.by_type.get(type_id.index()).map_or(&[], Vec::as_slice)
    }

    /// Negated variables an event of `type_id` can match.
    pub fn negations_of_type(&self, type_id: TypeId) -> &[NegId] {
        self.neg_by_type
            .get(type_id.index())
            .map_or(&[], Vec::as_slice)
    }

    /// Resolve a variable name to its state.
    pub fn state_of_var(&self, var: &str) -> Option<StateId> {
        self.states
            .iter()
            .position(|v| v.name == var)
            .map(|i| StateId(i as u32))
    }

    /// Resolve a variable name to its negated id.
    pub fn negated_of_var(&self, var: &str) -> Option<NegId> {
        self.negated
            .iter()
            .position(|v| v.name == var)
            .map(|i| NegId(i as u32))
    }

    /// Iterate all states.
    pub fn states(&self) -> impl Iterator<Item = (StateId, &VarInfo)> {
        self.states
            .iter()
            .enumerate()
            .map(|(i, v)| (StateId(i as u32), v))
    }

    /// Iterate all negated variables.
    pub fn negated_vars(&self) -> impl Iterator<Item = (NegId, &VarInfo)> {
        self.negated
            .iter()
            .enumerate()
            .map(|(i, v)| (NegId(i as u32), v))
    }

    /// All event types that occur (positively or negated) in the pattern.
    pub fn relevant_types(&self) -> Vec<TypeId> {
        let mut out: Vec<TypeId> = self
            .states
            .iter()
            .chain(&self.negated)
            .map(|v| v.type_id)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// first/last state sets of a sub-pattern during construction.
struct Span {
    firsts: Vec<StateId>,
    lasts: Vec<StateId>,
}

struct Builder<'a> {
    registry: &'a TypeRegistry,
    states: Vec<VarInfo>,
    negated: Vec<VarInfo>,
    state_by_var: HashMap<String, ()>,
    edges: Vec<(StateId, StateId, Vec<NegId>)>,
}

impl Builder<'_> {
    fn resolve(&self, leaf: &Leaf) -> QueryResult<TypeId> {
        self.registry
            .id_of(&leaf.event_type)
            .ok_or_else(|| QueryError::compile(format!("unknown event type `{}`", leaf.event_type)))
    }

    fn add_state(&mut self, leaf: &Leaf) -> QueryResult<StateId> {
        if self.state_by_var.insert(leaf.var.clone(), ()).is_some() {
            return Err(QueryError::compile(format!(
                "variable `{}` occurs more than once in the pattern; alias repeated types (e.g. `Stock A+, Stock B+`)",
                leaf.var
            )));
        }
        let type_id = self.resolve(leaf)?;
        let id = StateId(self.states.len() as u32);
        self.states.push(VarInfo {
            name: leaf.var.clone(),
            event_type: leaf.event_type.clone(),
            type_id,
        });
        Ok(id)
    }

    fn add_negated(&mut self, leaf: &Leaf) -> QueryResult<NegId> {
        if self.state_by_var.insert(leaf.var.clone(), ()).is_some() {
            return Err(QueryError::compile(format!(
                "variable `{}` occurs more than once in the pattern",
                leaf.var
            )));
        }
        let type_id = self.resolve(leaf)?;
        let id = NegId(self.negated.len() as u32);
        self.negated.push(VarInfo {
            name: leaf.var.clone(),
            event_type: leaf.event_type.clone(),
            type_id,
        });
        Ok(id)
    }

    fn connect(&mut self, froms: &[StateId], tos: &[StateId], negs: &[NegId]) {
        for &f in froms {
            for &t in tos {
                self.edges.push((f, t, negs.to_vec()));
            }
        }
    }

    fn walk(&mut self, p: &PatternExpr) -> QueryResult<Span> {
        match p {
            PatternExpr::Leaf(l) => {
                let s = self.add_state(l)?;
                Ok(Span {
                    firsts: vec![s],
                    lasts: vec![s],
                })
            }
            PatternExpr::Plus(inner) => {
                let span = self.walk(inner)?;
                // Kleene loop: the end of one iteration precedes the start
                // of the next (Definition 2: sl.end.time < sl+1.start.time).
                let lasts = span.lasts.clone();
                let firsts = span.firsts.clone();
                self.connect(&lasts, &firsts, &[]);
                Ok(span)
            }
            PatternExpr::Seq(parts) => {
                let mut firsts: Option<Vec<StateId>> = None;
                let mut prev_lasts: Vec<StateId> = Vec::new();
                let mut pending_negs: Vec<NegId> = Vec::new();
                for part in parts {
                    if let PatternExpr::Not(inner) = part {
                        let PatternExpr::Leaf(l) = inner.as_ref() else {
                            return Err(QueryError::compile(
                                "NOT may only negate a single event type",
                            ));
                        };
                        pending_negs.push(self.add_negated(l)?);
                        continue;
                    }
                    let span = self.walk(part)?;
                    if firsts.is_none() {
                        firsts = Some(span.firsts.clone());
                    } else {
                        self.connect(&prev_lasts, &span.firsts, &pending_negs);
                    }
                    pending_negs.clear();
                    prev_lasts = span.lasts;
                }
                let firsts = firsts.ok_or_else(|| {
                    QueryError::compile("SEQ pattern needs at least one positive element")
                })?;
                if !pending_negs.is_empty() {
                    return Err(QueryError::compile(
                        "NOT may not be the last element of a SEQ",
                    ));
                }
                Ok(Span {
                    firsts,
                    lasts: prev_lasts,
                })
            }
            PatternExpr::Not(_) => Err(QueryError::compile(
                "NOT may only appear between elements of a SEQ",
            )),
            PatternExpr::Star(_) | PatternExpr::Opt(_) | PatternExpr::Or(_) => Err(
                QueryError::compile("internal: sugar operator reached the automaton builder"),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cogra_events::ValueKind;

    fn registry() -> TypeRegistry {
        let mut r = TypeRegistry::new();
        for t in ["A", "B", "C", "D", "Stock"] {
            r.register_type(t, vec![("v", ValueKind::Int)]);
        }
        r
    }

    fn leaf(t: &str) -> PatternExpr {
        PatternExpr::leaf(t)
    }

    fn pred_names(a: &Automaton, s: &str) -> Vec<String> {
        let sid = a.state_of_var(s).unwrap();
        let mut v: Vec<String> = a
            .preds(sid)
            .iter()
            .map(|e| a.state(e.from).name.clone())
            .collect();
        v.sort();
        v
    }

    #[test]
    fn figure4_running_example() {
        // P = (SEQ(A+, B))+  → predTypes(A) = {A, B}, predTypes(B) = {A},
        // start(P)=A, end(P)=B (Figure 4).
        let p = PatternExpr::seq(vec![leaf("A").plus(), leaf("B")]).plus();
        let a = Automaton::build(&p, &registry()).unwrap();
        assert_eq!(a.num_states(), 2);
        assert_eq!(a.state(a.start()).name, "A");
        assert_eq!(a.state(a.end()).name, "B");
        assert_eq!(pred_names(&a, "A"), vec!["A", "B"]);
        assert_eq!(pred_names(&a, "B"), vec!["A"]);
    }

    #[test]
    fn plain_sequence_has_chain_edges() {
        let p = PatternExpr::seq(vec![leaf("A"), leaf("B"), leaf("C")]);
        let a = Automaton::build(&p, &registry()).unwrap();
        assert_eq!(pred_names(&a, "A"), Vec::<String>::new());
        assert_eq!(pred_names(&a, "B"), vec!["A"]);
        assert_eq!(pred_names(&a, "C"), vec!["B"]);
    }

    #[test]
    fn kleene_leaf_self_loop() {
        let p = leaf("A").plus();
        let a = Automaton::build(&p, &registry()).unwrap();
        assert_eq!(pred_names(&a, "A"), vec!["A"]);
        assert_eq!(a.start(), a.end());
    }

    #[test]
    fn q2_shape_uber() {
        // SEQ(Accept, (SEQ(Call, Cancel))+, Finish) with A/B/C/D stand-ins:
        // SEQ(A, (SEQ(B, C))+, D)
        let p = PatternExpr::seq(vec![
            leaf("A"),
            PatternExpr::seq(vec![leaf("B"), leaf("C")]).plus(),
            leaf("D"),
        ]);
        let a = Automaton::build(&p, &registry()).unwrap();
        assert_eq!(pred_names(&a, "B"), vec!["A", "C"]);
        assert_eq!(pred_names(&a, "C"), vec!["B"]);
        assert_eq!(pred_names(&a, "D"), vec!["C"]);
        assert_eq!(a.state(a.start()).name, "A");
        assert_eq!(a.state(a.end()).name, "D");
    }

    #[test]
    fn q3_shape_shared_type() {
        // SEQ(Stock A+, Stock B+): two states over one event type.
        let p = PatternExpr::seq(vec![
            PatternExpr::aliased("Stock", "A").plus(),
            PatternExpr::aliased("Stock", "B").plus(),
        ]);
        let a = Automaton::build(&p, &registry()).unwrap();
        assert_eq!(a.num_states(), 2);
        let stock = registry().id_of("Stock").unwrap();
        assert_eq!(a.states_of_type(stock).len(), 2);
        assert_eq!(pred_names(&a, "A"), vec!["A"]);
        assert_eq!(pred_names(&a, "B"), vec!["A", "B"]);
    }

    #[test]
    fn duplicate_variable_rejected() {
        let p = PatternExpr::seq(vec![leaf("A"), leaf("A")]);
        assert!(Automaton::build(&p, &registry()).is_err());
    }

    #[test]
    fn unknown_type_rejected() {
        let p = leaf("Nope").plus();
        let err = Automaton::build(&p, &registry()).unwrap_err();
        assert!(err.to_string().contains("unknown event type"));
    }

    #[test]
    fn negation_tags_crossing_edge_only() {
        // SEQ(A, NOT C, B)+: the A→B edge carries the negation, the outer
        // loop edge B→A does not.
        let p = PatternExpr::seq(vec![leaf("A"), leaf("C").not(), leaf("B")]).plus();
        let a = Automaton::build(&p, &registry()).unwrap();
        assert_eq!(a.num_negated(), 1);
        let sa = a.state_of_var("A").unwrap();
        let sb = a.state_of_var("B").unwrap();
        let ab = a.edge(sa, sb).unwrap();
        assert_eq!(ab.negations.len(), 1);
        let ba = a.edge(sb, sa).unwrap();
        assert!(ba.negations.is_empty());
        let c = registry().id_of("C").unwrap();
        assert_eq!(a.negations_of_type(c).len(), 1);
    }

    #[test]
    fn nested_kleene_edges() {
        // ((A+ B)+ C)+ style nesting: SEQ(SEQ(A+, B)+, C)+
        let p = PatternExpr::seq(vec![
            PatternExpr::seq(vec![leaf("A").plus(), leaf("B")]).plus(),
            leaf("C"),
        ])
        .plus();
        let a = Automaton::build(&p, &registry()).unwrap();
        assert_eq!(pred_names(&a, "A"), vec!["A", "B", "C"]);
        assert_eq!(pred_names(&a, "B"), vec!["A"]);
        assert_eq!(pred_names(&a, "C"), vec!["B"]);
    }

    #[test]
    fn relevant_types_includes_negated() {
        let p = PatternExpr::seq(vec![leaf("A"), leaf("C").not(), leaf("B")]);
        let a = Automaton::build(&p, &registry()).unwrap();
        let reg = registry();
        let mut want = vec![
            reg.id_of("A").unwrap(),
            reg.id_of("B").unwrap(),
            reg.id_of("C").unwrap(),
        ];
        want.sort_unstable();
        assert_eq!(a.relevant_types(), want);
    }
}
