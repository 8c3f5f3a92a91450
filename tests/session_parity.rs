//! Parity: the [`Session`] facade must be observationally identical to
//! the direct engine entry points (`run_to_completion`, `run_parallel`,
//! manual `Reorderer` plumbing) it replaced — byte-identical
//! `WindowResult`s on the evaluation's stock and transport workloads, in
//! every configuration the builder offers.

use cogra::core::QueryRuntime;
use cogra::events::Reorderer;
use cogra::prelude::*;
use cogra::workloads::{stock, transport, StockConfig, TransportConfig};
use std::sync::Arc;

fn stock_setup() -> (TypeRegistry, Vec<Event>, String) {
    let registry = stock::registry();
    let events = stock::generate(&StockConfig {
        events: 240,
        ..Default::default()
    });
    let query = stock::q3_query_no_adjacent(60, 30);
    (registry, events, query)
}

fn transport_setup() -> (TypeRegistry, Vec<Event>, String) {
    let registry = transport::registry();
    let events = transport::generate(&TransportConfig {
        events: 600,
        ..Default::default()
    });
    let query = transport::grouping_query(120, 60);
    (registry, events, query)
}

fn direct(
    kind: EngineKind,
    query: &str,
    registry: &TypeRegistry,
    events: &[Event],
) -> Vec<WindowResult> {
    let parsed = parse(query).expect("query parses");
    let mut engine = kind
        .build(&parsed, registry, &EngineConfig::default())
        .expect("engine supports query");
    run_to_completion(engine.as_mut(), events, 64).0
}

fn session(kind: EngineKind, query: &str, registry: &TypeRegistry, events: &[Event]) -> SessionRun {
    Session::builder()
        .query(query)
        .engine(kind)
        .build(registry)
        .expect("session builds")
        .run(events)
}

#[test]
fn single_query_matches_run_to_completion_on_stock() {
    let (registry, events, query) = stock_setup();
    for kind in [
        EngineKind::Cogra,
        EngineKind::Sase,
        EngineKind::Greta,
        EngineKind::Aseq,
    ] {
        let expected = direct(kind, &query, &registry, &events);
        let run = session(kind, &query, &registry, &events);
        assert!(!expected.is_empty(), "{kind}: workload produces results");
        assert_eq!(run.per_query, vec![expected], "{kind}");
    }
}

#[test]
fn single_query_matches_run_to_completion_on_transport() {
    let (registry, events, query) = transport_setup();
    for kind in [EngineKind::Cogra, EngineKind::Sase] {
        let expected = direct(kind, &query, &registry, &events);
        let run = session(kind, &query, &registry, &events);
        assert!(!expected.is_empty(), "{kind}: workload produces results");
        assert_eq!(run.per_query, vec![expected], "{kind}");
    }
}

#[test]
fn multi_query_session_matches_individual_runs() {
    let (registry, events, _) = transport_setup();
    let queries = [
        transport::grouping_query(120, 60),
        transport::next_query(120, 60),
    ];
    let run = Session::builder()
        .query(queries[0].as_str())
        .query(queries[1].as_str())
        .build(&registry)
        .expect("session builds")
        .run(&events);
    assert_eq!(run.per_query.len(), 2);
    for (i, q) in queries.iter().enumerate() {
        let expected = direct(EngineKind::Cogra, q, &registry, &events);
        assert_eq!(run.per_query[i], expected, "query {i}");
    }
}

/// Deterministically disorder a stream: reverse blocks of `block` events.
fn disorder(events: &[Event], block: usize) -> Vec<Event> {
    let mut out = Vec::with_capacity(events.len());
    for chunk in events.chunks(block) {
        out.extend(chunk.iter().rev().cloned());
    }
    out
}

#[test]
fn slack_session_matches_manual_reorder_pipeline() {
    let (registry, events, query) = transport_setup();
    let shuffled = disorder(&events, 5);
    for slack in [0, 3, 50] {
        // The replaced pipeline: manual Reorderer, then run_to_completion.
        let mut reorderer = Reorderer::new(slack);
        let mut repaired = Vec::with_capacity(shuffled.len());
        for e in &shuffled {
            reorderer.push(e.clone(), &mut repaired);
        }
        reorderer.flush(&mut repaired);
        let expected = direct(EngineKind::Cogra, &query, &registry, &repaired);

        let run = Session::builder()
            .query(query.as_str())
            .slack(slack)
            .build(&registry)
            .expect("session builds")
            .run(&shuffled);
        assert_eq!(run.per_query, vec![expected], "slack={slack}");
        assert_eq!(run.late_events, reorderer.late_events(), "slack={slack}");
    }
}

#[test]
fn workers_session_matches_run_parallel() {
    let (registry, events, query) = transport_setup();
    let parsed = parse(&query).expect("query parses");
    let rt = Arc::new(QueryRuntime::new(
        compile(&parsed, &registry).expect("query compiles"),
        &registry,
    ));
    for workers in [2, 4, 8] {
        let expected = run_parallel(&rt, &events, workers);
        let run = Session::builder()
            .query(query.as_str())
            .workers(workers)
            .build(&registry)
            .expect("session builds")
            .run(&events);
        assert_eq!(run.per_query, vec![expected.results], "workers={workers}");
        assert_eq!(run.workers, expected.workers, "workers={workers}");
    }
}

#[test]
fn one_worker_equals_many_workers() {
    let (registry, events, query) = transport_setup();
    let base = session(EngineKind::Cogra, &query, &registry, &events);
    for workers in [2, 4, 8] {
        let sharded = Session::builder()
            .query(query.as_str())
            .workers(workers)
            .build(&registry)
            .expect("session builds")
            .run(&events);
        assert_eq!(sharded.per_query, base.per_query, "workers={workers}");
    }
}

/// Incremental emission under sharded execution: every mid-stream drain
/// must emit a *prefix-consistent* slice of the final result set — only
/// results that survive to the end (subset), and *all* of them for every
/// window that closed at or before the drain's watermark (completeness).
#[test]
fn workers_drains_are_prefix_consistent_and_complete() {
    let (registry, events, query) = transport_setup();
    let expected = direct(EngineKind::Cogra, &query, &registry, &events);
    // transport_setup uses grouping_query(120, 60).
    let spec = WindowSpec::new(120, 60);
    for workers in [2, 4, 8] {
        let mut session = Session::builder()
            .query(query.as_str())
            .workers(workers)
            .build(&registry)
            .expect("session builds");
        let mut emitted: Vec<WindowResult> = Vec::new();
        let mut drains_with_output = 0usize;
        for (i, e) in events.iter().enumerate() {
            session.process(e);
            if i % 25 == 24 {
                let before = emitted.len();
                session.drain_into(&mut emitted);
                if emitted.len() > before {
                    drains_with_output += 1;
                }
                for r in &emitted[before..] {
                    assert!(
                        expected.contains(r),
                        "workers={workers}: drained result not in final set: {r}"
                    );
                }
                let watermark = session.watermark();
                if let Some(last_closed) = spec.last_closed(watermark) {
                    for r in expected.iter().filter(|r| r.window <= last_closed) {
                        assert!(
                            emitted.contains(r),
                            "workers={workers}: window {} closed at watermark {} \
                             but its result was not emitted",
                            r.window,
                            watermark.ticks(),
                        );
                    }
                }
            }
        }
        assert!(
            drains_with_output > 1,
            "workers={workers}: results must flow live, not only at finish()"
        );
        session.finish_into(&mut emitted);
        WindowResult::sort(&mut emitted);
        assert_eq!(emitted, expected, "workers={workers}");
    }
}

/// `.slack(n)` × `.workers(n)`: one stream-wide gate decides the drops in
/// front of the shards, so late-event drop counts must not depend on the
/// worker count, and every admitted event must land on the shard its
/// group hashes to — proven by byte-identical results across counts.
#[test]
fn slack_late_drops_are_identical_across_worker_counts() {
    let (registry, events, query) = transport_setup();
    let mut shuffled = disorder(&events, 5);
    // Re-append the first 10 events at the end of the stream: their times
    // are far behind the watermark by then, so each is a guaranteed drop.
    shuffled.extend(events[..10].iter().cloned());

    let reference = Session::builder()
        .query(query.as_str())
        .slack(3)
        .build(&registry)
        .expect("session builds")
        .run(&shuffled);
    assert!(
        reference.late_events >= 10,
        "the stragglers must actually be dropped (got {})",
        reference.late_events
    );

    for workers in [1, 2, 4, 8] {
        let run = Session::builder()
            .query(query.as_str())
            .slack(3)
            .workers(workers)
            .build(&registry)
            .expect("session builds")
            .run(&shuffled);
        assert_eq!(
            run.late_events, reference.late_events,
            "workers={workers}: late-drop count depends on worker count"
        );
        assert_eq!(
            run.per_query, reference.per_query,
            "workers={workers}: a released late event landed on the wrong shard"
        );
    }
}

#[test]
fn slack_composes_with_workers() {
    let (registry, events, query) = transport_setup();
    let shuffled = disorder(&events, 4);
    let one_worker = Session::builder()
        .query(query.as_str())
        .slack(10)
        .build(&registry)
        .expect("session builds")
        .run(&shuffled);
    let sharded = Session::builder()
        .query(query.as_str())
        .slack(10)
        .workers(4)
        .build(&registry)
        .expect("session builds")
        .run(&shuffled);
    assert_eq!(sharded.per_query, one_worker.per_query);
    assert_eq!(sharded.late_events, one_worker.late_events);
}

/// A finished session is exhausted, identically at every width: further
/// `process` calls are ignored (no panic, no state change), further
/// drains and finishes emit nothing, and it refuses to checkpoint.
#[test]
fn ingest_after_finish_is_ignored_at_every_width() {
    let (registry, events, query) = transport_setup();
    for workers in [1, 4] {
        let mut session = Session::builder()
            .query(query.as_str())
            .workers(workers)
            .build(&registry)
            .expect("session builds");
        let mut emitted: Vec<WindowResult> = Vec::new();
        for e in &events {
            session.process(e);
        }
        session.finish_into(&mut emitted);
        assert!(!emitted.is_empty(), "workers={workers}");
        let (count, watermark) = (emitted.len(), session.watermark());
        let (stats, shard_events) = (session.run_stats(), session.shard_events());

        for e in &events[..50] {
            session.process(e);
        }
        session.drain_into(&mut emitted);
        session.finish_into(&mut emitted);
        assert_eq!(
            emitted.len(),
            count,
            "workers={workers}: post-finish output"
        );
        assert_eq!(session.watermark(), watermark, "workers={workers}");
        assert_eq!(session.run_stats(), stats, "workers={workers}");
        assert_eq!(session.shard_events(), shard_events, "workers={workers}");
        assert!(session.worker_failure().is_none(), "workers={workers}");
        assert!(
            session.checkpoint(Vec::new()).is_err(),
            "workers={workers}: a finished session cannot checkpoint"
        );
    }
}
