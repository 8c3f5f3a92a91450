//! Table 9: the expressive-power matrix, enforced by the one admission
//! step every engine kind goes through — an engine must refuse exactly
//! the query features its Table 9 row lacks.
#![allow(clippy::assertions_on_constants)] // the constants ARE the matrix under test

use cogra::core::runtime::EngineConfig;
use cogra::engine::Capabilities;
use cogra::prelude::*;

fn registry() -> TypeRegistry {
    let mut r = TypeRegistry::new();
    for t in ["A", "B"] {
        r.register_type(t, vec![("v", ValueKind::Int)]);
    }
    r
}

fn query(semantics: &str, theta: bool) -> Query {
    let theta = if theta { "WHERE A.v < NEXT(A).v " } else { "" };
    parse(&format!(
        "RETURN COUNT(*) PATTERN SEQ(A+, B) SEMANTICS {semantics} {theta}WITHIN 10 SLIDE 5"
    ))
    .unwrap()
}

/// Whether `kind` builds for `query`; a build and [`EngineKind::supports`]
/// must say the same.
fn builds(kind: EngineKind, query: &Query) -> bool {
    let reg = registry();
    let built = kind.build(query, &reg, &EngineConfig::default()).is_ok();
    assert_eq!(built, kind.supports(query, &reg), "{kind} on `{query}`");
    built
}

#[test]
fn cogra_supports_every_cell_of_table9() {
    for sem in ["ANY", "NEXT", "CONT"] {
        for theta in [false, true] {
            assert!(
                builds(EngineKind::Cogra, &query(sem, theta)),
                "{sem} theta={theta}"
            );
        }
    }
}

#[test]
fn sase_supports_all_semantics_two_step() {
    for sem in ["ANY", "NEXT", "CONT"] {
        assert!(builds(EngineKind::Sase, &query(sem, true)), "{sem}");
    }
    assert!(!Capabilities::SASE.online);
}

#[test]
fn greta_is_any_only() {
    assert!(builds(EngineKind::Greta, &query("ANY", true)));
    assert!(!builds(EngineKind::Greta, &query("NEXT", false)));
    assert!(!builds(EngineKind::Greta, &query("CONT", false)));
    assert!(Capabilities::GRETA.online);
}

#[test]
fn aseq_rejects_next_cont_and_adjacent_predicates() {
    assert!(builds(EngineKind::Aseq, &query("ANY", false)));
    assert!(!builds(EngineKind::Aseq, &query("ANY", true)));
    assert!(!builds(EngineKind::Aseq, &query("NEXT", false)));
    assert!(!builds(EngineKind::Aseq, &query("CONT", false)));
    let negated =
        parse("RETURN COUNT(*) PATTERN SEQ(A+, NOT B, A) SEMANTICS ANY WITHIN 10 SLIDE 5").unwrap();
    assert!(!builds(EngineKind::Aseq, &negated));
    assert!(builds(EngineKind::Greta, &negated));
    assert!(!Capabilities::ASEQ.native_kleene);
    assert!(!Capabilities::ASEQ.negation);
}

#[test]
fn flink_rejects_next_only() {
    assert!(builds(EngineKind::Flink, &query("ANY", true)));
    assert!(builds(EngineKind::Flink, &query("CONT", true)));
    assert!(!builds(EngineKind::Flink, &query("NEXT", false)));
    assert!(!Capabilities::FLINK.native_kleene);
}

#[test]
fn capabilities_matrix_matches_paper_rows() {
    // Spot-check the struct constants against Table 9.
    assert!(Capabilities::COGRA.native_kleene && Capabilities::COGRA.online);
    assert!(Capabilities::COGRA.any && Capabilities::COGRA.next && Capabilities::COGRA.cont);
    assert!(Capabilities::SASE.next && !Capabilities::FLINK.next);
    assert!(Capabilities::FLINK.cont && !Capabilities::GRETA.cont);
    assert!(!Capabilities::ASEQ.adjacent_predicates);
    assert!(Capabilities::GRETA.adjacent_predicates);
    // A refusal names the engine, the missing feature and the row.
    let err = EngineKind::Greta
        .build(&query("CONT", false), &registry(), &EngineConfig::default())
        .err()
        .expect("GRETA refuses CONT");
    assert_eq!(
        err.to_string(),
        "compile error: engine `greta` does not support contiguous semantics \
         (its Table 9 semantics: skip-till-any-match)"
    );
}
