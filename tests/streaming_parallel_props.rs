//! Width-invariance battery for the one execution path: over random
//! workloads, worker counts {1,2,4,8} (one inline shard, or shards on
//! worker threads), ingest chunkings and transport batch sizes, a
//! `.workers(n)` session must be **byte-identical** to the batch reference
//! (`run_parallel`) and to a single sequential engine — results, plus
//! workers/peak-memory metadata sanity. A slack × workers battery
//! additionally pins that the pool's gate + per-shard reorder buffers
//! drop exactly the events a single front `Reorderer` would, no matter
//! how the stream shards.

use cogra::core::QueryRuntime;
use cogra::events::Reorderer;
use cogra::prelude::*;
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;

/// Queries the battery cycles through: grouped (shardable) under ANY and
/// NEXT, and a group-free query that must pin to one shard.
const QUERIES: [&str; 3] = [
    "RETURN g, COUNT(*), SUM(A.v) PATTERN SEQ(A+, B) SEMANTICS ANY \
     GROUP-BY g WITHIN 10 SLIDE 5",
    "RETURN g, COUNT(*) PATTERN SEQ(A+, B) SEMANTICS NEXT \
     GROUP-BY g WITHIN 12 SLIDE 4",
    "RETURN COUNT(*) PATTERN SEQ(A+, B) SEMANTICS ANY WITHIN 10 SLIDE 5",
];

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Transport batch sizes the sweeps cycle through: degenerate per-event
/// sends, an odd mid-size, the default, and "bigger than the stream"
/// (events only ever flush on drain/finish).
const BATCH_SIZES: [usize; 4] = [1, 7, 256, 100_000];

fn registry() -> TypeRegistry {
    let mut r = TypeRegistry::new();
    for t in ["A", "B"] {
        r.register_type(t, vec![("g", ValueKind::Int), ("v", ValueKind::Int)]);
    }
    r
}

/// Turn sampled `(dt, type, g, v)` rows into a time-ordered stream.
/// `dt == 0` keeps the previous timestamp, so multi-event stream
/// transactions (several events at one time) are exercised.
fn build_events(reg: &TypeRegistry, rows: &[(u64, usize, i64, i64)]) -> Vec<Event> {
    let ids = [reg.id_of("A").unwrap(), reg.id_of("B").unwrap()];
    let mut builder = EventBuilder::new();
    let mut t = 1u64;
    rows.iter()
        .map(|&(dt, ty, g, v)| {
            t += dt;
            builder.event(t, ids[ty], vec![Value::Int(g), Value::Int(v)])
        })
        .collect()
}

/// Turn sampled `(time, type, g, v)` rows into a stream in *arrival*
/// order with unconstrained disorder — input for the slack battery.
fn build_disordered(reg: &TypeRegistry, rows: &[(u64, usize, i64, i64)]) -> Vec<Event> {
    let ids = [reg.id_of("A").unwrap(), reg.id_of("B").unwrap()];
    let mut builder = EventBuilder::new();
    rows.iter()
        .map(|&(t, ty, g, v)| builder.event(t + 1, ids[ty], vec![Value::Int(g), Value::Int(v)]))
        .collect()
}

/// The live path: a `.workers(n)` session fed chunk by chunk, with a
/// drain between chunks, finished at the end. Returns the sorted union of
/// everything emitted.
fn live(
    query: &str,
    reg: &TypeRegistry,
    events: &[Event],
    workers: usize,
    chunk: usize,
    batch: usize,
) -> Vec<WindowResult> {
    let mut session = Session::builder()
        .query(query)
        .workers(workers)
        .batch_size(batch)
        .build(reg)
        .expect("session builds");
    let mut out: Vec<WindowResult> = Vec::new();
    for chunk in events.chunks(chunk.max(1)) {
        for e in chunk {
            session.process(e);
        }
        session.drain_into(&mut out);
    }
    session.finish_into(&mut out);
    WindowResult::sort(&mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn streaming_equals_batch_equals_sequential(
        rows in vec((0u64..3, 0usize..2, 0i64..5, -4i64..5), 1..160),
        worker_idx in 0usize..4,
        chunk in 1usize..40,
        batch_idx in 0usize..4,
        query_idx in 0usize..3,
    ) {
        let reg = registry();
        let events = build_events(&reg, &rows);
        let query = QUERIES[query_idx];
        let workers = WORKER_COUNTS[worker_idx];
        let batch = BATCH_SIZES[batch_idx];

        // Reference 1: one sequential engine over the whole stream.
        let mut engine = CograEngine::from_text(query, &reg).expect("query compiles");
        let (sequential, _) = run_to_completion(&mut engine, &events, 64);

        // Reference 2: the batch shard-then-join implementation.
        let parsed = parse(query).expect("query parses");
        let rt = Arc::new(QueryRuntime::new(
            compile(&parsed, &reg).expect("query compiles"),
            &reg,
        ));
        let batch_run = run_parallel(&rt, &events, workers);
        prop_assert_eq!(&batch_run.results, &sequential, "batch vs sequential");

        // Live path: chunked ingestion with mid-stream drains, over the
        // sampled transport batch size.
        let live = live(query, &reg, &events, workers, chunk, batch);
        prop_assert_eq!(&live, &sequential, "live vs sequential");

        // Metadata sanity via the collecting runner.
        let run = Session::builder()
            .query(query)
            .workers(workers)
            .batch_size(batch)
            .build(&reg)
            .expect("session builds")
            .run(&events);
        prop_assert_eq!(&run.per_query, &vec![sequential]);
        let effective = if rt.query.group_prefix == 0 { 1 } else { workers };
        prop_assert_eq!(run.workers, effective, "effective shard count");
        prop_assert!(run.peak_bytes > 0, "workers report their peaks");
        prop_assert_eq!(run.late_events, 0);
    }

    #[test]
    fn drain_points_and_batch_sizes_never_change_the_result_set(
        rows in vec((0u64..4, 0usize..2, 0i64..4, -4i64..5), 1..120),
        chunk_a in 1usize..30,
        chunk_b in 1usize..30,
        batch_a in 0usize..4,
        batch_b in 0usize..4,
    ) {
        // Two different drain cadences × transport batch sizes over the
        // same stream and shard count must collect the same results —
        // emission timing is observable, the aggregate contents are not.
        // In particular a flush forced by a drain mid-batch must be
        // invisible in the collected set (flush-boundary invariance).
        let reg = registry();
        let events = build_events(&reg, &rows);
        let a = live(QUERIES[0], &reg, &events, 4, chunk_a, BATCH_SIZES[batch_a]);
        let b = live(QUERIES[0], &reg, &events, 4, chunk_b, BATCH_SIZES[batch_b]);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn per_shard_reorderers_match_the_front_reorderer(
        rows in vec((0u64..40, 0usize..2, 0i64..5, -4i64..5), 1..160),
        slack in 0u64..9,
        worker_idx in 0usize..4,
        batch_idx in 0usize..4,
        chunk in 1usize..40,
    ) {
        // Slack × workers: every width repairs disorder with one
        // ReorderBuffer per shard behind a pool-side LateGate. Against
        // arbitrarily disordered streams it must produce (a) the same
        // results and (b) the same late-drop count as the reference
        // architecture — a single front Reorderer, then one sequential
        // engine — and as a 1-worker `.slack(n)` session.
        let reg = registry();
        let events = build_disordered(&reg, &rows);
        let workers = WORKER_COUNTS[worker_idx];

        let mut front = Reorderer::new(slack);
        let mut repaired = Vec::with_capacity(events.len());
        for e in &events {
            front.push(e.clone(), &mut repaired);
        }
        front.flush(&mut repaired);
        let mut engine = CograEngine::from_text(QUERIES[0], &reg).expect("query compiles");
        let (front_results, _) = run_to_completion(&mut engine, &repaired, 64);

        let reference = Session::builder()
            .query(QUERIES[0])
            .slack(slack)
            .build(&reg)
            .expect("session builds")
            .run(&events);
        prop_assert_eq!(reference.late_events, front.late_events(), "1 worker vs front reorderer");
        prop_assert_eq!(&reference.per_query, &vec![front_results]);

        let mut session = Session::builder()
            .query(QUERIES[0])
            .slack(slack)
            .workers(workers)
            .batch_size(BATCH_SIZES[batch_idx])
            .build(&reg)
            .expect("session builds");
        let mut out: Vec<WindowResult> = Vec::new();
        for chunk in events.chunks(chunk) {
            for e in chunk {
                session.process(e);
            }
            session.drain_into(&mut out);
        }
        let late = {
            let mut sink: Vec<WindowResult> = Vec::new();
            session.finish_into(&mut sink);
            out.extend(sink);
            session.late_events()
        };
        WindowResult::sort(&mut out);

        prop_assert_eq!(
            late,
            reference.late_events,
            "per-shard late drops must sum to the front reorderer's count \
             (slack={}, workers={})", slack, workers
        );
        prop_assert_eq!(&vec![out], &reference.per_query);
    }

    #[test]
    fn burst_disorder_keeps_late_drops_invariant_across_workers(
        seed in 0u64..10_000,
        disorder in 0u64..40,
        slack_idx in 0usize..3,
        worker_idx in 0usize..4,
        batch_idx in 0usize..4,
        chunk in 1usize..40,
    ) {
        // The same slack × workers invariant, but over the adversarial
        // flash-crowd generator instead of uniformly random rows: bursts
        // pack ~4 events per tick with time stamps scattered up to
        // `disorder` ticks backwards, so slack < disorder *must* drop
        // events — identically on every worker count and transport batch
        // size. Shrinking stays enabled: a failure minimizes to the
        // smallest hostile (seed, disorder, slack) triple.
        use cogra::workloads::{burst, BurstConfig};
        let slack = [0u64, 8, 24][slack_idx];
        let workers = WORKER_COUNTS[worker_idx];
        let reg = burst::registry();
        let query = burst::count_query(16, 8);
        let events = burst::generate(&BurstConfig {
            disorder,
            events: 320,
            seed,
            ..BurstConfig::default()
        });

        let reference = Session::builder()
            .query(query.as_str())
            .slack(slack)
            .build(&reg)
            .expect("session builds")
            .run(&events);

        let mut session = Session::builder()
            .query(query.as_str())
            .slack(slack)
            .workers(workers)
            .batch_size(BATCH_SIZES[batch_idx])
            .build(&reg)
            .expect("session builds");
        let mut out: Vec<WindowResult> = Vec::new();
        for chunk in events.chunks(chunk) {
            for e in chunk {
                session.process(e);
            }
            session.drain_into(&mut out);
        }
        session.finish_into(&mut out);
        let late = session.late_events();
        WindowResult::sort(&mut out);

        prop_assert_eq!(
            late,
            reference.late_events,
            "burst late drops (disorder={}, slack={}, workers={})",
            disorder, slack, workers
        );
        prop_assert_eq!(&vec![out], &reference.per_query);
        // With slack at least as deep as the disorder, nothing may drop.
        if slack >= disorder.max(1) {
            prop_assert_eq!(late, 0, "slack {} covers disorder {}", slack, disorder);
        }
    }
}
