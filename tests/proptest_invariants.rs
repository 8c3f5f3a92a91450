//! Property-based invariants of the core data structures and the engine:
//! parser round-trips, window arithmetic, aggregate consistency, and
//! cross-granularity agreement on randomized queries.

use cogra::core::run_to_completion;
use cogra::prelude::*;
use proptest::prelude::*;

// ---------------------------------------------------------------- parser

/// Generator for random surface patterns over types A..E.
fn arb_pattern() -> impl Strategy<Value = PatternExpr> {
    let leaf = (0u8..5).prop_map(|i| {
        let name = ["A", "B", "C", "D", "E"][i as usize];
        PatternExpr::leaf(name)
    });
    leaf.prop_recursive(3, 12, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(PatternExpr::plus),
            inner.clone().prop_map(PatternExpr::star),
            inner.clone().prop_map(PatternExpr::opt),
            proptest::collection::vec(inner.clone(), 2..4).prop_map(PatternExpr::Seq),
            proptest::collection::vec(inner, 2..3).prop_map(PatternExpr::Or),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Pretty-printing a random pattern and re-parsing it yields an
    /// equivalent pattern (modulo the variable aliasing that printing
    /// normalizes away — we compare printed forms).
    #[test]
    fn pattern_display_reparse_fixpoint(p in arb_pattern()) {
        let text = format!("RETURN COUNT(*) PATTERN {p} WITHIN 10 SLIDE 5");
        let Ok(q) = parse(&text) else {
            // Patterns with duplicate variables parse but won't compile;
            // parsing itself must still succeed.
            return Err(TestCaseError::fail(format!("parse failed for {text}")));
        };
        let printed = q.to_string();
        let q2 = parse(&printed).map_err(|e| {
            TestCaseError::fail(format!("reparse of `{printed}`: {e}"))
        })?;
        prop_assert_eq!(q, q2);
    }

    /// Window membership is exactly interval containment, and the
    /// per-event window count never exceeds the ceil(w/s) bound.
    #[test]
    fn window_assignment_invariants(within in 1u64..200, slide_raw in 1u64..200, t in 0u64..5000) {
        let slide = slide_raw.min(within);
        let spec = WindowSpec::new(within, slide);
        let wids: Vec<_> = spec.windows_of(Timestamp(t)).collect();
        prop_assert!(!wids.is_empty(), "every event falls in some window");
        prop_assert!(wids.len() <= spec.windows_per_event());
        for w in &wids {
            let start = spec.window_start(*w);
            let end = spec.window_end(*w);
            prop_assert!(start.ticks() <= t && t < end.ticks());
        }
        // Windows not listed must not contain t.
        let max_wid = wids.last().unwrap().0;
        for k in (0..=max_wid + 2).map(cogra::events::WindowId) {
            let contains = spec.window_start(k).ticks() <= t && t < spec.window_end(k).ticks();
            prop_assert_eq!(contains, wids.contains(&k), "wid {}", k.0);
        }
    }
}

// ------------------------------------------------------- engine invariants

fn registry() -> TypeRegistry {
    let mut r = TypeRegistry::new();
    for t in ["A", "B"] {
        r.register_type(t, vec![("g", ValueKind::Int), ("v", ValueKind::Int)]);
    }
    r
}

fn stream(raw: &[(bool, i64, i64)], reg: &TypeRegistry) -> Vec<Event> {
    let a = reg.id_of("A").unwrap();
    let b = reg.id_of("B").unwrap();
    let mut builder = EventBuilder::new();
    raw.iter()
        .enumerate()
        .map(|(i, &(is_b, g, v))| {
            builder.event(
                (i + 1) as u64,
                if is_b { b } else { a },
                vec![Value::Int(g), Value::Int(v)],
            )
        })
        .collect()
}

fn run_query(text: &str, events: &[Event]) -> Vec<cogra::core::WindowResult> {
    let reg = registry();
    let mut engine = CograEngine::from_text(text, &reg).unwrap();
    run_to_completion(&mut engine, events, usize::MAX).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// SUM / COUNT / AVG consistency: for every emitted group,
    /// AVG(A.v) == SUM(A.v) / COUNT(A) (§2.3: AVG is algebraic).
    #[test]
    fn avg_equals_sum_over_count(raw in proptest::collection::vec(
        (any::<bool>(), 0i64..2, 0i64..6), 1..24)) {
        let events = stream(&raw, &registry());
        let results = run_query(
            "RETURN g, SUM(A.v), COUNT(A), AVG(A.v) PATTERN SEQ(A+, B) \
             SEMANTICS ANY GROUP-BY g WITHIN 12 SLIDE 6",
            &events,
        );
        for r in &results {
            let (AggValue::Float(sum), AggValue::Count(cnt)) = (r.values[0], r.values[1]) else {
                // No A occurrences: all three must be the identity.
                prop_assert_eq!(r.values[2], AggValue::Null);
                continue;
            };
            match r.values[2] {
                AggValue::Float(avg) => {
                    prop_assert!((avg - sum / cnt as f64).abs() < 1e-9);
                }
                AggValue::Null => prop_assert_eq!(cnt, 0),
                other => return Err(TestCaseError::fail(format!("unexpected {other:?}"))),
            }
        }
    }

    /// MIN <= MAX whenever both exist, and both lie within the value
    /// domain of the stream.
    #[test]
    fn min_le_max_within_domain(raw in proptest::collection::vec(
        (any::<bool>(), 0i64..2, -5i64..10), 1..24)) {
        let events = stream(&raw, &registry());
        let results = run_query(
            "RETURN g, MIN(A.v), MAX(A.v) PATTERN A+ \
             SEMANTICS ANY GROUP-BY g WITHIN 12 SLIDE 4",
            &events,
        );
        for r in &results {
            if let (AggValue::Float(lo), AggValue::Float(hi)) = (r.values[0], r.values[1]) {
                prop_assert!(lo <= hi);
                prop_assert!((-5.0..10.0).contains(&lo) && (-5.0..10.0).contains(&hi));
            }
        }
    }

    /// Drain timing is irrelevant to the final result: draining after
    /// every event or only at the end produces the same sorted output.
    #[test]
    fn drain_granularity_is_observationally_pure(raw in proptest::collection::vec(
        (any::<bool>(), 0i64..2, 0i64..6), 0..20)) {
        let reg = registry();
        let events = stream(&raw, &reg);
        let text = "RETURN g, COUNT(*) PATTERN SEQ(A+, B) SEMANTICS ANY \
                    GROUP-BY g WITHIN 8 SLIDE 2";
        let eager = run_query(text, &events);
        let mut lazy_engine = CograEngine::from_text(text, &reg).unwrap();
        for e in &events {
            lazy_engine.process(e); // never drain mid-stream
        }
        let mut lazy = lazy_engine.finish();
        cogra::core::WindowResult::sort(&mut lazy);
        prop_assert_eq!(eager, lazy);
    }

    /// Prefix monotonicity of COUNT(*) per window under ANY without
    /// negation: feeding more events never lowers an already-closed
    /// window's count — and a closed window's result never changes.
    #[test]
    fn closed_windows_are_immutable(raw in proptest::collection::vec(
        (any::<bool>(), 0i64..2, 0i64..6), 2..24), cut in 1usize..23) {
        let reg = registry();
        let events = stream(&raw, &reg);
        let cut = cut.min(events.len());
        let text = "RETURN g, COUNT(*) PATTERN A+ SEMANTICS ANY \
                    GROUP-BY g WITHIN 6 SLIDE 3";
        // Run on the prefix, record results of windows closed by the cut
        // watermark; run on the full stream; those windows must match.
        let full = run_query(text, &events);
        let mut engine = CograEngine::from_text(text, &reg).unwrap();
        let mut early = Vec::new();
        for e in &events[..cut] {
            engine.process(e);
            early.extend(engine.drain());
        }
        for r in &early {
            let in_full = full.iter().find(|f| f.window == r.window && f.group == r.group);
            prop_assert_eq!(Some(r), in_full, "closed window changed");
        }
    }
}
