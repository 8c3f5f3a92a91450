//! Never-panic guarantee for the query front-end: any input string fed
//! through parse → compile either succeeds or returns a typed
//! [`QueryError`] — it must not panic, hang, or exhaust memory. Random
//! garbage exercises the lexer; mutated well-formed queries exercise the
//! parser and the Static Query Analyzer behind a valid token stream.
//!
//! Whatever does compile is checked for **projection soundness**: of a
//! matched event the aggregators keep the stored projection of its type
//! and nothing else, and a predicate on adjacent events finds its
//! predecessor's value there by slot — so every predicate's `pred_attr`
//! must sit in its `pred` state's type list at the resolved slot, and the
//! lists must hold nothing no predicate reads.

use cogra_events::{TypeRegistry, ValueKind};
use cogra_query::{compile, parse, CompiledQuery, QueryError};
use proptest::prelude::*;

fn registry() -> TypeRegistry {
    let mut r = TypeRegistry::new();
    for t in ["A", "B", "Stock", "Measurement"] {
        r.register_type(
            t,
            vec![
                ("v", ValueKind::Int),
                ("rate", ValueKind::Int),
                ("price", ValueKind::Float),
                ("sector", ValueKind::Str),
                ("company", ValueKind::Str),
                ("patient", ValueKind::Int),
                ("activity", ValueKind::Str),
            ],
        );
    }
    r
}

/// The whole front-end: any panic here fails the proptest case.
fn front_end(src: &str) -> Result<(), QueryError> {
    let q = parse(src)?;
    let registry = registry();
    assert_projection_sound(&compile(&q, &registry)?, &registry, src);
    Ok(())
}

/// Projection soundness of a compiled plan (see the module docs).
fn assert_projection_sound(plan: &CompiledQuery, registry: &TypeRegistry, src: &str) {
    for d in &plan.disjuncts {
        assert_eq!(d.stored.len(), registry.len(), "{src}");
        let type_of = |adj: &cogra_query::CompiledAdjacent| d.automaton.state(adj.pred).type_id;
        for adj in &d.adjacents {
            assert_eq!(
                d.stored[type_of(adj).index()].get(adj.pred_slot),
                Some(&adj.pred_attr),
                "{adj:?} of {src}"
            );
        }
        for ((type_id, _), attrs) in registry.iter().zip(&d.stored) {
            assert!(
                attrs.windows(2).all(|w| w[0].0 < w[1].0),
                "{attrs:?} of {src}"
            );
            for attr in attrs {
                let mut preds = d.adjacents.iter().filter(|adj| type_of(adj) == type_id);
                assert!(preds.any(|adj| adj.pred_attr == *attr), "{attr:?} of {src}");
            }
        }
    }
}

const SEEDS: [&str; 5] = [
    // One type at two states with predicates of their own, and one across.
    "RETURN COUNT(*), MAX(B.rate) PATTERN SEQ(Stock A+, Stock B+, Measurement M) \
     SEMANTICS skip-till-next-match WHERE A.price > NEXT(A).price AND B.v < NEXT(B).v \
     AND A.rate <= B.rate AND B.company = M.company AND A.sector = NEXT(A).sector \
     WITHIN 10 SLIDE 5",
    "RETURN patient, MIN(M.rate), MAX(M.rate) PATTERN Measurement M+ \
     SEMANTICS contiguous WHERE [patient] AND M.rate < NEXT(M).rate \
     AND M.activity = passive GROUP-BY patient WITHIN 10 minutes SLIDE 30 seconds",
    "RETURN sector, COUNT(*), AVG(B.price) PATTERN SEQ(Stock A+, Stock B+) \
     SEMANTICS skip-till-any-match WHERE [company] AND A.price > NEXT(A).price \
     GROUP-BY sector, company WITHIN 10 minutes SLIDE 10 seconds",
    "RETURN COUNT(*), SUM(A.v) PATTERN SEQ(A?, A?) SEMANTICS ANY WITHIN 10 SLIDE 10",
    "RETURN COUNT(*) PATTERN SEQ(A, NOT B, A*) OR(A, B) WITHIN 2 hours SLIDE 5",
];

/// Token-ish fragments spliced into seeds to hit parser edge paths.
const FRAGS: [&str; 15] = [
    "?",
    "*",
    "+",
    "(",
    ")",
    ",",
    ".",
    "NEXT(",
    "SEQ(",
    "OR(",
    "NOT ",
    "WITHIN ",
    "9223372036854775807",
    "'",
    "--",
];

/// One random edit applied to a seed query string (char-safe). Positions
/// are raw draws reduced modulo the current length at application time.
#[derive(Debug, Clone)]
enum Edit {
    /// Delete `len` chars starting at position `a`.
    Delete(usize, usize),
    /// Copy `len` chars starting at `a` and insert them at `b`.
    Duplicate(usize, usize, usize),
    /// Overwrite the char at `a` with `FRAGS[frag]`.
    Splice(usize, usize),
}

fn apply(src: &str, edit: &Edit) -> String {
    let chars: Vec<char> = src.chars().collect();
    let at = |raw: usize| {
        if chars.is_empty() {
            0
        } else {
            raw % (chars.len() + 1)
        }
    };
    match edit {
        Edit::Delete(a, len) => {
            let start = at(*a);
            let end = (start + len).min(chars.len());
            chars[..start].iter().chain(&chars[end..]).collect()
        }
        Edit::Duplicate(a, b, len) => {
            let start = at(*a);
            let end = (start + len).min(chars.len());
            let span: Vec<char> = chars[start..end].to_vec();
            let pos = at(*b);
            let mut out = chars[..pos].to_vec();
            out.extend(span);
            out.extend(&chars[pos..]);
            out.into_iter().collect()
        }
        Edit::Splice(a, frag) => {
            let pos = at(*a);
            let mut out: String = chars[..pos].iter().collect();
            out.push_str(FRAGS[frag % FRAGS.len()]);
            out.extend(&chars[(pos + 1).min(chars.len())..]);
            out
        }
    }
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (0usize..1024, 0usize..20).prop_map(|(a, l)| Edit::Delete(a, l)),
        (0usize..1024, 0usize..1024, 0usize..20).prop_map(|(a, b, l)| Edit::Duplicate(a, b, l)),
        (0usize..1024, 0usize..FRAGS.len()).prop_map(|(a, f)| Edit::Splice(a, f)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_garbage_never_panics(
        bytes in proptest::collection::vec(32u8..127, 0..120),
    ) {
        let src = String::from_utf8(bytes.clone()).unwrap();
        let _ = front_end(&src);
    }

    #[test]
    fn random_unicode_never_panics(
        points in proptest::collection::vec(any::<u32>(), 0..60),
    ) {
        let src: String = points
            .iter()
            .map(|&c| char::from_u32(c % 0x110000).unwrap_or('\u{FFFD}'))
            .collect();
        let _ = front_end(&src);
    }

    #[test]
    fn mutated_queries_never_panic(
        seed in 0usize..SEEDS.len(),
        edits in proptest::collection::vec(arb_edit(), 1..6),
    ) {
        let mut src = SEEDS[seed].to_string();
        for e in &edits {
            src = apply(&src, e);
        }
        let _ = front_end(&src);
    }
}

#[test]
fn the_soundness_check_has_something_to_check() {
    // The first seed compiles, unmutated, to one type bound at two states
    // with a list of four attributes between them, and a second type's.
    let registry = registry();
    let plan = compile(&parse(SEEDS[0]).expect("parses"), &registry).expect("compiles");
    assert_projection_sound(&plan, &registry, SEEDS[0]);
    let d = &plan.disjuncts[0];
    let lists: Vec<usize> = d.stored.iter().map(Vec::len).collect();
    assert_eq!(d.adjacents.len(), 5, "{:?}", d.adjacents);
    // Registry order: A, B, Stock, Measurement. `M` is only ever a
    // successor: nothing of a Measurement is kept.
    assert_eq!(lists, [0, 0, 5, 0], "{:?}", d.stored);
}

#[test]
fn duration_overflow_is_an_error_not_a_panic() {
    let err = front_end("RETURN COUNT(*) PATTERN A+ WITHIN 9223372036854775807 hours SLIDE 1");
    assert!(matches!(err, Err(QueryError::Parse { .. })), "{err:?}");
}

#[test]
fn exponential_expansion_is_capped() {
    // 13 optionals would expand to 2^13 = 8192 disjuncts, past the cap.
    let parts: Vec<String> = (0..13).map(|i| format!("A V{i}?")).collect();
    let src = format!(
        "RETURN COUNT(*) PATTERN SEQ({}) WITHIN 10 SLIDE 10",
        parts.join(", ")
    );
    let err = front_end(&src);
    assert!(
        matches!(&err, Err(QueryError::Compile(m)) if m.contains("disjuncts")),
        "{err:?}"
    );
}
