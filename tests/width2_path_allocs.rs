//! The two-worker path stages events in recycled batch arenas: between
//! drains, a `.workers(2)` session fed by reference must not allocate per
//! routed event on either side of the channel — no `Event` clone on the
//! coordinator (at least one allocation per event each), none on the
//! workers, and no batch built afresh once the first few have been round
//! the loop. What remains is what the one-worker path has too (see
//! `inline_path_allocs.rs`): the engines' own first-seen-key and window
//! bookkeeping. An event two queries want on the same shard is stored
//! once and routed twice, so a second query adds only its engine's share.
//! And only what the plans read travels (the read-set pin): a `Str`
//! attribute no query reads is never cloned, so its `Arc`'s count — a
//! cache line the coordinator and a worker would otherwise trade on every
//! event — never moves.
//!
//! One test, in a binary of its own: the counting allocator is
//! process-wide, which is how the worker threads' allocations are seen.

use cogra::prelude::*;
use cogra::workloads::{stock, StockConfig};
use std::sync::Arc;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{calls, counting, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn two_worker_ingest_allocates_nothing_per_routed_event() {
    const EVENTS: usize = 50_000;
    const CHUNK: usize = 2_048;
    const WARM_UP_CHUNKS: usize = 4;
    // The stock schema plus `venue`, a string nothing reads.
    let stock_registry = stock::registry();
    let stock_schema = stock_registry.schema(stock_registry.id_of("Stock").expect("registered"));
    let mut attrs: Vec<(&str, ValueKind)> = stock_schema.iter().collect();
    attrs.push(("venue", ValueKind::Str));
    let mut registry = TypeRegistry::new();
    registry.register_type("Stock", attrs);
    let venue: Arc<str> = Arc::from("XNYS");
    let mut events = stock::generate(&StockConfig {
        events: EVENTS,
        ..Default::default()
    });
    for e in &mut events {
        e.attrs.push(Value::Str(Arc::clone(&venue)));
    }
    let venues = Arc::strong_count(&venue);
    // Both queries group by company, so they place every event on the
    // same shard; both are type-grained, so neither engine stores events.
    let plain = stock::q3_query_no_adjacent(1000, 500);
    let wider = stock::q3_query_no_adjacent(2000, 1000);
    for (queries, bound) in [(vec![&plain], 0.25), (vec![&plain, &wider], 0.30)] {
        let n = queries.len();
        let mut builder = Session::builder().workers(2);
        for query in queries {
            builder = builder.query(query.as_str());
        }
        let mut session = builder.build(&registry).expect("session builds");
        assert_eq!(session.workers(), 2);
        let mut results: Vec<WindowResult> = Vec::new();
        let mut counted = 0usize;
        let calls_before = calls();
        for (i, chunk) in events.chunks(CHUNK).enumerate() {
            // The first chunks build the batches that circulate afterwards.
            let warm = i >= WARM_UP_CHUNKS;
            counting(warm);
            for e in chunk {
                session.process(e);
            }
            counting(false);
            if warm {
                counted += chunk.len();
            }
            session.drain_into(&mut results);
            // The drain reclaimed the batches shipped in this chunk; the
            // workers' scratch events are still held.
            assert_eq!(
                Arc::strong_count(&venue),
                venues,
                "chunk {i}: an attribute no query reads was cloned into the transport"
            );
        }
        session.finish_into(&mut results);
        assert!(!results.is_empty(), "the workload emits results");
        let calls = calls() - calls_before;
        let per_event = calls as f64 / counted as f64;
        assert!(
            per_event < bound,
            "{per_event:.3} allocations per ingested event with {n} queries at 2 workers: \
             the shard transport is cloning events or rebuilding batches"
        );
    }
}
