//! Engine agreement: COGRA, SASE, GRETA, A-Seq, Flink and the brute-force
//! oracle must produce identical window results for every query each of
//! them supports (Table 9) — the paper's own correctness criterion is
//! returning "the same aggregates as the two-step approach".

use cogra_core::runtime::EngineConfig;
use cogra_core::session::EngineKind;
use cogra_core::{run_to_completion, AggValue, WindowResult};
use cogra_events::{Event, EventBuilder, TypeRegistry, Value, ValueKind};
use cogra_query::{parse, Semantics};
use proptest::prelude::*;

fn registry() -> TypeRegistry {
    let mut r = TypeRegistry::new();
    for t in ["A", "B", "C", "D", "S"] {
        r.register_type(t, vec![("g", ValueKind::Int), ("v", ValueKind::Int)]);
    }
    r
}

/// A compact random stream description: (type index 0..=4, same-time flag,
/// group 0..2, value 0..5).
type RawEvent = (usize, bool, i64, i64);

fn build_stream(raw: &[RawEvent], reg: &TypeRegistry) -> Vec<Event> {
    let types = ["A", "B", "C", "D", "S"].map(|t| reg.id_of(t).unwrap());
    let mut b = EventBuilder::new();
    let mut t = 0u64;
    raw.iter()
        .map(|&(ty, same_time, g, v)| {
            if !same_time {
                t += 1;
            }
            b.event(t.max(1), types[ty], vec![Value::Int(g), Value::Int(v)])
        })
        .collect()
}

fn values_eq(a: &AggValue, b: &AggValue) -> bool {
    match (a, b) {
        (AggValue::Count(x), AggValue::Count(y)) => x == y,
        (AggValue::Null, AggValue::Null) => true,
        (AggValue::Float(x), AggValue::Float(y)) => {
            (x - y).abs() <= 1e-6 * (1.0 + x.abs().max(y.abs()))
        }
        _ => false,
    }
}

fn results_eq(a: &[WindowResult], b: &[WindowResult]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.window == y.window
                && x.group == y.group
                && x.values.len() == y.values.len()
                && x.values.iter().zip(&y.values).all(|(u, v)| values_eq(u, v))
        })
}

/// Run every engine that supports the query; assert all agree with the
/// oracle.
fn assert_agreement(query_text: &str, raw: &[RawEvent]) {
    let reg = registry();
    let events = build_stream(raw, &reg);
    let query = parse(query_text).unwrap();
    let cfg = EngineConfig::default();

    let mut oracle = EngineKind::Oracle.build(&query, &reg, &cfg).unwrap();
    let (expected, _) = run_to_completion(oracle.as_mut(), &events, 1);

    let mut engines = Vec::new();
    for kind in EngineKind::PAPER_ROSTER {
        match kind.build(&query, &reg, &cfg) {
            Ok(engine) => engines.push(engine),
            // Table 9: COGRA and SASE run every query, GRETA every ANY
            // one, Flink every one but NEXT; A-Seq also refuses adjacent
            // predicates.
            Err(e) => assert!(
                match kind {
                    EngineKind::Greta => query.semantics != Semantics::Any,
                    EngineKind::Flink => query.semantics == Semantics::Next,
                    kind => kind == EngineKind::Aseq,
                },
                "{kind} refused `{query_text}`: {e}"
            ),
        }
    }

    for engine in &mut engines {
        let name = engine.name();
        let (got, _) = run_to_completion(engine.as_mut(), &events, usize::MAX);
        assert!(
            results_eq(&expected, &got),
            "{name} disagrees with oracle on `{query_text}`\nstream: {raw:?}\noracle: {expected:#?}\n{name}: {got:#?}"
        );
    }
}

const Q_KLEENE_ANY: &str = "RETURN g, COUNT(*) PATTERN (SEQ(A+, B))+ SEMANTICS ANY \
                            GROUP-BY g WITHIN 8 SLIDE 3";
const Q_KLEENE_NEXT: &str = "RETURN g, COUNT(*) PATTERN (SEQ(A+, B))+ SEMANTICS NEXT \
                             GROUP-BY g WITHIN 8 SLIDE 3";
const Q_KLEENE_CONT: &str = "RETURN g, COUNT(*) PATTERN (SEQ(A+, B))+ SEMANTICS CONT \
                             GROUP-BY g WITHIN 8 SLIDE 3";
const Q_UBER: &str = "RETURN g, COUNT(*) PATTERN SEQ(A, (SEQ(B, C))+, D) SEMANTICS NEXT \
                      GROUP-BY g WITHIN 10 SLIDE 5";
const Q_SHARED_TYPE: &str = "RETURN g, COUNT(*), AVG(Y.v) PATTERN SEQ(S X+, S Y+) \
                             SEMANTICS ANY GROUP-BY g WITHIN 8 SLIDE 4";
const Q_ADJ_PRED: &str = "RETURN g, COUNT(*) PATTERN (SEQ(A+, B))+ SEMANTICS ANY \
                          WHERE B.v <= NEXT(A).v GROUP-BY g WITHIN 8 SLIDE 3";
const Q_ADJ_SELF: &str = "RETURN g, COUNT(*), MAX(A.v) PATTERN A+ SEMANTICS ANY \
                          WHERE A.v < NEXT(A).v GROUP-BY g WITHIN 8 SLIDE 3";
const Q_LOCAL_CONT: &str = "RETURN g, COUNT(*) PATTERN A+ SEMANTICS CONT \
                            WHERE A.v > 1 GROUP-BY g WITHIN 8 SLIDE 3";
const Q_AGGS: &str = "RETURN g, COUNT(*), COUNT(A), MIN(A.v), MAX(B.v), SUM(A.v), AVG(A.v) \
                      PATTERN SEQ(A+, B) SEMANTICS ANY GROUP-BY g WITHIN 8 SLIDE 3";
const Q_NEGATION: &str = "RETURN g, COUNT(*) PATTERN SEQ(A+, NOT C, B) SEMANTICS ANY \
                          GROUP-BY g WITHIN 8 SLIDE 3";
const Q_STAR: &str = "RETURN g, COUNT(*) PATTERN SEQ(A*, B) SEMANTICS ANY \
                      GROUP-BY g WITHIN 8 SLIDE 3";
const Q_DISJUNCTION: &str = "RETURN g, COUNT(*) PATTERN OR(SEQ(A+, B), SEQ(C, D)) \
                             SEMANTICS ANY GROUP-BY g WITHIN 8 SLIDE 3";
// Degenerate nesting: `(A+)+` must behave exactly like `A+` (adjacency is
// a relation, not a multiset of derivations — regression test for the
// duplicate-edge bug the automaton property tests caught).
const Q_NESTED_PLUS: &str = "RETURN g, COUNT(*) PATTERN ((A+)+)+ SEMANTICS ANY \
                             GROUP-BY g WITHIN 8 SLIDE 3";

const ALL_QUERIES: &[&str] = &[
    Q_KLEENE_ANY,
    Q_KLEENE_NEXT,
    Q_KLEENE_CONT,
    Q_UBER,
    Q_SHARED_TYPE,
    Q_ADJ_PRED,
    Q_ADJ_SELF,
    Q_LOCAL_CONT,
    Q_AGGS,
    Q_NEGATION,
    Q_STAR,
    Q_DISJUNCTION,
    Q_NESTED_PLUS,
];

#[test]
fn figure2_stream_all_queries() {
    // The running example stream shape: a b a a c b a b, one group.
    let raw: Vec<RawEvent> = [0, 1, 0, 0, 2, 1, 0, 1]
        .iter()
        .enumerate()
        .map(|(i, &ty)| (ty, false, 0, (i as i64 * 3) % 6))
        .collect();
    for q in ALL_QUERIES {
        assert_agreement(q, &raw);
    }
}

#[test]
fn two_groups_interleaved() {
    let raw: Vec<RawEvent> = vec![
        (0, false, 0, 1),
        (0, false, 1, 2),
        (1, false, 0, 3),
        (1, false, 1, 0),
        (0, false, 0, 4),
        (2, false, 1, 1),
        (1, false, 0, 5),
        (3, false, 1, 2),
        (4, false, 0, 3),
        (4, false, 1, 4),
    ];
    for q in ALL_QUERIES {
        assert_agreement(q, &raw);
    }
}

#[test]
fn simultaneous_events_never_chain() {
    // Pairs of same-time events: Definition 7 condition 2 forbids them
    // from being adjacent.
    let raw: Vec<RawEvent> = vec![
        (0, false, 0, 1),
        (0, true, 0, 2),
        (1, false, 0, 3),
        (1, true, 0, 1),
        (0, false, 0, 2),
        (1, false, 0, 5),
    ];
    for q in ALL_QUERIES {
        assert_agreement(q, &raw);
    }
}

#[test]
fn empty_and_irrelevant_streams() {
    assert_agreement(Q_KLEENE_ANY, &[]);
    // Only C/D events: no A/B matches for the Kleene queries.
    let raw: Vec<RawEvent> = vec![(2, false, 0, 1), (3, false, 0, 2), (2, false, 0, 3)];
    assert_agreement(Q_KLEENE_ANY, &raw);
    assert_agreement(Q_KLEENE_CONT, &raw);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_streams_agree_any(raw in proptest::collection::vec(
        (0usize..5, any::<bool>(), 0i64..2, 0i64..5), 0..12)) {
        assert_agreement(Q_KLEENE_ANY, &raw);
        assert_agreement(Q_ADJ_PRED, &raw);
        assert_agreement(Q_SHARED_TYPE, &raw);
        assert_agreement(Q_AGGS, &raw);
    }

    #[test]
    fn random_streams_agree_next_cont(raw in proptest::collection::vec(
        (0usize..5, any::<bool>(), 0i64..2, 0i64..5), 0..14)) {
        assert_agreement(Q_KLEENE_NEXT, &raw);
        assert_agreement(Q_KLEENE_CONT, &raw);
        assert_agreement(Q_UBER, &raw);
        assert_agreement(Q_LOCAL_CONT, &raw);
    }

    #[test]
    fn random_streams_agree_extensions(raw in proptest::collection::vec(
        (0usize..5, any::<bool>(), 0i64..2, 0i64..5), 0..11)) {
        assert_agreement(Q_NEGATION, &raw);
        assert_agreement(Q_STAR, &raw);
        assert_agreement(Q_DISJUNCTION, &raw);
        assert_agreement(Q_ADJ_SELF, &raw);
        assert_agreement(Q_NESTED_PLUS, &raw);
    }
}
