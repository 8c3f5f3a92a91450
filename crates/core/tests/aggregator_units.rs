//! Focused unit tests of the three aggregators' internal behaviours that
//! the end-to-end suites exercise only incidentally: stream-transaction
//! snapshotting, negation shadow cells, contiguity resets, Te storage
//! growth, and the pattern-grained chain under shared event types.

use cogra_core::mixed_grained::MixedWindow;
use cogra_core::pattern_grained::PatternWindow;
use cogra_core::runtime::QueryRuntime;
use cogra_core::type_grained::TypeGrainedWindow;
use cogra_core::{CograWindow, WindowAlgo};
use cogra_events::{Event, EventBuilder, TypeRegistry, Value, ValueKind};
use cogra_query::{compile, parse, Semantics, StateId};

fn registry() -> TypeRegistry {
    let mut r = TypeRegistry::new();
    for t in ["A", "B", "C", "S"] {
        r.register_type(t, vec![("v", ValueKind::Int)]);
    }
    r
}

fn runtime(query: &str) -> QueryRuntime {
    let reg = registry();
    QueryRuntime::new(compile(&parse(query).unwrap(), &reg).unwrap(), &reg)
}

fn binds(rt: &QueryRuntime, e: &Event) -> Vec<StateId> {
    let mut out = Vec::new();
    rt.disjuncts[0].binds(e, &mut out);
    out
}

fn ev(b: &mut EventBuilder, reg: &TypeRegistry, t: u64, ty: &str, v: i64) -> Event {
    b.event(t, reg.id_of(ty).unwrap(), vec![Value::Int(v)])
}

#[test]
fn type_grained_simultaneous_events_do_not_chain() {
    // Two a's in the same stream transaction must not count each other as
    // predecessors (Definition 7 condition 2 / §8 transactions) — on both
    // arms of the step: a `COUNT(*)` row (one word) and a wider one.
    for query in [
        "RETURN COUNT(*) PATTERN A+ SEMANTICS ANY WITHIN 100 SLIDE 100",
        "RETURN COUNT(*), SUM(A.v) PATTERN A+ SEMANTICS ANY WITHIN 100 SLIDE 100",
    ] {
        let rt = runtime(query);
        let drt = &rt.disjuncts[0];
        assert_eq!(
            drt.kernel.counts.is_some(),
            !query.contains("SUM"),
            "{query}"
        );
        let mut w = TypeGrainedWindow::new(drt);
        let reg = registry();
        let mut b = EventBuilder::new();
        let e1 = ev(&mut b, &reg, 1, "A", 0);
        let e2 = ev(&mut b, &reg, 1, "A", 0); // same time stamp
        w.step(drt, &e1, &binds(&rt, &e1), &[]);
        w.step(drt, &e2, &binds(&rt, &e2), &[]);
        // Two singleton trends, no {e1,e2} pair.
        assert_eq!(w.final_cell(drt).count, 2, "{query}");

        // Control: distinct times chain — {e1}, {e2}, {e1,e2}.
        let mut w = TypeGrainedWindow::new(drt);
        let e3 = ev(&mut b, &reg, 2, "A", 0);
        w.step(drt, &e1, &binds(&rt, &e1), &[]);
        w.step(drt, &e3, &binds(&rt, &e3), &[]);
        assert_eq!(w.final_cell(drt).count, 3, "{query}");
    }
}

#[test]
fn type_grained_negation_shadow_blocks_old_contributions_only() {
    // SEQ(A+, NOT C, B): a C match invalidates a-counts accumulated
    // before it for the A→B edge, but a's arriving after the C count.
    let rt =
        runtime("RETURN COUNT(*) PATTERN SEQ(A+, NOT C, B) SEMANTICS ANY WITHIN 100 SLIDE 100");
    let drt = &rt.disjuncts[0];
    let reg = registry();
    let mut b = EventBuilder::new();
    let mut w = TypeGrainedWindow::new(drt);
    let a1 = ev(&mut b, &reg, 1, "A", 0);
    let c2 = ev(&mut b, &reg, 2, "C", 0);
    let a3 = ev(&mut b, &reg, 3, "A", 0);
    let b4 = ev(&mut b, &reg, 4, "B", 0);
    w.step(drt, &a1, &binds(&rt, &a1), &[]);
    let mut negs = Vec::new();
    drt.negation_matches(&c2, &mut negs);
    assert_eq!(negs.len(), 1);
    w.step(drt, &c2, &[], &negs);
    w.step(drt, &a3, &binds(&rt, &a3), &[]);
    w.step(drt, &b4, &binds(&rt, &b4), &[]);
    // Valid trends ending at b4: {a3, b4} and {a1, a3, b4} (their last A
    // is after the C); {a1, b4} is blocked. Count = 2.
    assert_eq!(w.final_cell(drt).count, 2);
}

/// `query` as written, whose rows are `COUNT(*)` alone, and a copy that
/// also sums `sum`'s `v` — the two arms of Algorithm 3's step — each with
/// the arm its runtime takes asserted.
fn both_arms(query: &str, sum: &str) -> [QueryRuntime; 2] {
    let wide = query.replace("COUNT(*)", &format!("COUNT(*), SUM({sum}.v)"));
    [query.to_string(), wide].map(|query| {
        let rt = runtime(&query);
        let kernel = &rt.disjuncts[0].kernel;
        assert_eq!(
            kernel.bare_counts.is_some(),
            !query.contains("SUM"),
            "{query}"
        );
        rt
    })
}

#[test]
fn pattern_grained_simultaneous_events_do_not_chain() {
    // Two a's sharing a time stamp are `el`-adjacent but must not chain
    // (Definition 7 condition 2) — on both arms of the step.
    for rt in both_arms(
        "RETURN COUNT(*) PATTERN A+ SEMANTICS NEXT WITHIN 100 SLIDE 100",
        "A",
    ) {
        let drt = &rt.disjuncts[0];
        let reg = registry();
        let mut b = EventBuilder::new();
        let e1 = ev(&mut b, &reg, 1, "A", 0);
        let e2 = ev(&mut b, &reg, 1, "A", 0); // same time stamp
        let mut w = PatternWindow::new(drt);
        w.step(drt, &e1, &binds(&rt, &e1), &[], Semantics::Next);
        w.step(drt, &e2, &binds(&rt, &e2), &[], Semantics::Next);
        // Two singleton trends, no {e1,e2} pair.
        assert_eq!(w.final_cell(drt).count, 2);

        // Control: distinct times chain — {e1}, {e2}, {e1,e2}.
        let e3 = ev(&mut b, &reg, 2, "A", 0);
        let mut w = PatternWindow::new(drt);
        w.step(drt, &e1, &binds(&rt, &e1), &[], Semantics::Next);
        w.step(drt, &e3, &binds(&rt, &e3), &[], Semantics::Next);
        assert_eq!(w.final_cell(drt).count, 3);
    }
}

#[test]
fn pattern_grained_cont_reset_preserves_final_count() {
    // Algorithm 3 lines 8–9: an unmatched event under CONT nulls the last
    // event but never the final count.
    for rt in both_arms(
        "RETURN COUNT(*) PATTERN SEQ(A, B) SEMANTICS CONT WITHIN 100 SLIDE 100",
        "A",
    ) {
        let drt = &rt.disjuncts[0];
        let reg = registry();
        let mut b = EventBuilder::new();
        let mut w = PatternWindow::new(drt);
        let stream = [
            ev(&mut b, &reg, 1, "A", 0),
            ev(&mut b, &reg, 2, "B", 0), // finishes (a1, b2): final = 1
            ev(&mut b, &reg, 3, "C", 0), // reset
            ev(&mut b, &reg, 4, "B", 0), // cannot match: no el, not a start
        ];
        for e in &stream {
            w.step(drt, e, &binds(&rt, e), &[], Semantics::Cont);
        }
        assert_eq!(w.final_cell(drt).count, 1);
    }
}

#[test]
fn pattern_grained_next_skips_where_cont_resets() {
    let reg = registry();
    let mut b = EventBuilder::new();
    let stream = [
        ev(&mut b, &reg, 1, "A", 0),
        ev(&mut b, &reg, 2, "C", 0), // irrelevant
        ev(&mut b, &reg, 3, "B", 0),
    ];
    for (sem, expected) in [(Semantics::Next, 1), (Semantics::Cont, 0)] {
        let query = format!(
            "RETURN COUNT(*) PATTERN SEQ(A, B) SEMANTICS {} WITHIN 100 SLIDE 100",
            sem.keyword()
        );
        for rt in both_arms(&query, "A") {
            let drt = &rt.disjuncts[0];
            let mut w = PatternWindow::new(drt);
            for e in &stream {
                w.step(drt, e, &binds(&rt, e), &[], sem);
            }
            assert_eq!(w.final_cell(drt).count, expected, "{sem:?}");
        }
    }
}

#[test]
fn pattern_grained_shared_type_tracks_multiple_bindings() {
    // SEQ(S X+, S Y+) under NEXT: one S event may extend as X and as Y;
    // the last-event cell table carries both bindings.
    for rt in both_arms(
        "RETURN COUNT(*) PATTERN SEQ(S X+, S Y+) SEMANTICS NEXT WITHIN 100 SLIDE 100",
        "X",
    ) {
        let drt = &rt.disjuncts[0];
        let reg = registry();
        let mut b = EventBuilder::new();
        let mut w = PatternWindow::new(drt);
        for t in 1..=3 {
            let e = ev(&mut b, &reg, t, "S", 0);
            w.step(drt, &e, &binds(&rt, &e), &[], Semantics::Next);
        }
        // Chains over 3 s-events: trends are the X/Y splits of contiguous
        // chain suffixes. s1s2s3 with every split point, plus shorter chains
        // starting at s2 and s3: (x1|y2), (x1|y2 y3), (x1 x2|y3), (x2|y3) and
        // the start-anchored singletons ending in Y... enumerate via oracle
        // instead of hand-counting: compare against the chain oracle.
        let events: Vec<Event> = {
            let mut b = EventBuilder::new();
            (1..=3).map(|t| ev(&mut b, &reg, t, "S", 0)).collect()
        };
        let expected = cogra_baselines::oracle::count_trends(drt, &events, Semantics::Next);
        assert_eq!(w.final_cell(drt).count, expected);
        assert!(expected > 0);
    }
}

#[test]
fn mixed_grained_stores_only_te_events() {
    // A.v < NEXT(A).v makes A event-grained; B stays type-grained, so
    // stored events = number of a's (Theorem 5.2's nₑ).
    let rt = runtime(
        "RETURN COUNT(*) PATTERN SEQ(A+, B) SEMANTICS ANY WHERE A.v < NEXT(A).v \
         WITHIN 100 SLIDE 100",
    );
    let drt = &rt.disjuncts[0];
    let reg = registry();
    let mut b = EventBuilder::new();
    let mut w = MixedWindow::new(drt);
    for t in 1..=5 {
        let e = ev(&mut b, &reg, t, "A", t as i64);
        w.step(drt, &e, &binds(&rt, &e), &[]);
    }
    let e = ev(&mut b, &reg, 6, "B", 0);
    w.step(drt, &e, &binds(&rt, &e), &[]);
    assert_eq!(
        w.stored_events(drt),
        5,
        "five a's stored, b aggregated per type"
    );
    // Increasing values: every subset of a's in order forms a trend ended
    // by b → 2^5 - 1 = 31.
    assert_eq!(w.final_cell(drt).count, 31);
}

#[test]
fn mixed_grained_adjacency_predicate_prunes_contributions() {
    let rt = runtime(
        "RETURN COUNT(*) PATTERN SEQ(A+, B) SEMANTICS ANY WHERE A.v < NEXT(A).v \
         WITHIN 100 SLIDE 100",
    );
    let drt = &rt.disjuncts[0];
    let reg = registry();
    let mut b = EventBuilder::new();
    let mut w = MixedWindow::new(drt);
    // Decreasing values: no a-to-a adjacency passes; only singleton A
    // prefixes survive → trends {a}·b per a = 3.
    for t in 1..=3 {
        let e = ev(&mut b, &reg, t, "A", -(t as i64));
        w.step(drt, &e, &binds(&rt, &e), &[]);
    }
    let e = ev(&mut b, &reg, 4, "B", 0);
    w.step(drt, &e, &binds(&rt, &e), &[]);
    assert_eq!(w.final_cell(drt).count, 3);
}

#[test]
fn type_grained_window_memory_is_constant() {
    let rt = runtime("RETURN COUNT(*), SUM(A.v) PATTERN A+ SEMANTICS ANY WITHIN 1000 SLIDE 1000");
    let drt = &rt.disjuncts[0];
    let reg = registry();
    let mut b = EventBuilder::new();
    let mut w = TypeGrainedWindow::new(drt);
    let mut sizes = Vec::new();
    for t in 1..=200 {
        let e = ev(&mut b, &reg, t, "A", 1);
        w.step(drt, &e, &binds(&rt, &e), &[]);
        if t % 100 == 0 {
            sizes.push(w.memory_bytes());
        }
    }
    assert_eq!(sizes[0], sizes[1], "Θ(l) space regardless of events");
}

#[test]
#[cfg(target_pointer_width = "64")]
fn window_bytes_follow_the_documented_formulas() {
    // README "Bytes per window": l states, s negation-tagged transitions,
    // k slots (AVG is two), ⌈n/64⌉ words of live bits for n rows; what a
    // window holds beside its ring slot — a type-grained window its slab,
    // a mixed- or pattern-grained one its box and what the box points to.
    let l = 2;
    let returns = [
        (0, "COUNT(*)"),
        (1, "COUNT(*), MAX(B.v)"),
        (3, "COUNT(*), AVG(A.v), MIN(B.v)"),
    ];
    let patterns = [(0, "SEQ(A+, B+)"), (1, "SEQ(A+, NOT C, B+)")];
    let reg = registry();
    let mut b = EventBuilder::new();
    for ((k, returns), (s, pattern)) in returns.into_iter().flat_map(|r| patterns.map(|p| (r, p))) {
        let query = |semantics: &str, adjacent: &str| {
            runtime(&format!(
                "RETURN {returns} PATTERN {pattern} SEMANTICS {semantics} {adjacent} \
                 WITHIN 100 SLIDE 100"
            ))
        };
        let table = |rows: usize| 8 * (rows * (1 + k) + rows.div_ceil(64));
        let update = 8 * (2 + k);
        let fresh = |rt: &QueryRuntime| <CograWindow as WindowAlgo>::new(rt).memory_bytes();
        let case = format!("k = {k}, s = {s}");

        // Type-grained: the table and the transaction's time stamp, then
        // a word per negation and `2 + k` per update staged.
        let rt = query("ANY", "");
        let drt = &rt.disjuncts[0];
        let mut w = TypeGrainedWindow::new(drt);
        let empty = table(l + s) + 8;
        assert_eq!(fresh(&rt), empty, "{case}");
        for staged in 0..=2 {
            if staged > 0 {
                let e = ev(&mut b, &reg, 1, "A", 1);
                w.step(drt, &e, &binds(&rt, &e), &[]);
            }
            assert_eq!(w.memory_bytes(), empty + staged * update, "{case}");
        }
        let c = ev(&mut b, &reg, 1, "C", 0);
        let mut negs = Vec::new();
        drt.negation_matches(&c, &mut negs);
        assert_eq!(negs.len(), s, "{case}");
        w.step(drt, &c, &[], &negs);
        assert_eq!(w.memory_bytes(), empty + 2 * update + 8 * s, "{case}");
        let e = ev(&mut b, &reg, 2, "A", 1);
        w.step(drt, &e, &binds(&rt, &e), &[]);
        assert_eq!(w.memory_bytes(), empty + update, "{case}: committed");

        // Mixed-grained: a 88-byte box, the type-grained slab with one row
        // more, and `16 + 8·(1 + k)` bytes per stored event plus its stored
        // values — here `A{v}`, one value.
        let rt = query("ANY", "WHERE A.v < NEXT(A).v");
        let drt = &rt.disjuncts[0];
        let mut w = MixedWindow::new(drt);
        let empty = table(l + s + 1) + 8;
        assert_eq!(w.memory_bytes(), empty, "{case}");
        assert_eq!(fresh(&rt), 88 + empty, "{case}");
        let e = ev(&mut b, &reg, 1, "A", 1);
        w.step(drt, &e, &binds(&rt, &e), &[]);
        let stored = 16 + 8 * (1 + k) + Value::Int(1).memory_bytes();
        assert_eq!(w.memory_bytes(), empty + stored, "{case}");
        for staged in 1..=2 {
            let e = ev(&mut b, &reg, 2, "B", 0);
            w.step(drt, &e, &binds(&rt, &e), &[]);
            assert_eq!(w.memory_bytes(), empty + stored + staged * update, "{case}");
        }
        assert_eq!(w.stored_events(drt), 1, "{case}");

        // Pattern-grained: a 72-byte box and the accumulator's row; while
        // a last matched event is held, its `l` rows and its stored values
        // — none without a predicate on adjacent events, `A{v}` with one.
        for (adjacent, values) in [("", 0), ("WHERE A.v < NEXT(A).v", 1)] {
            let rt = query("NEXT", adjacent);
            let drt = &rt.disjuncts[0];
            let mut w = PatternWindow::new(drt);
            let fixed = 8 * ((1 + k) + (2 * l + 1usize).div_ceil(64));
            assert_eq!(fresh(&rt), 72 + fixed, "{case}");
            for matched in 0..=2 {
                if matched > 0 {
                    let e = ev(&mut b, &reg, matched as u64, "A", 1);
                    w.step(drt, &e, &binds(&rt, &e), &[], Semantics::Next);
                }
                let held = 8 * l * (1 + k) + values * Value::Int(1).memory_bytes();
                let held = if matched > 0 { held } else { 0 };
                assert_eq!(w.memory_bytes(), fixed + held, "{case} {adjacent}");
            }
        }
    }
}
