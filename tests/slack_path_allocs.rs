//! Under `.slack(n)` the pool's reorder buffer owns every admitted event
//! some query wants until it releases it: the type's blank row with what
//! the plans read written over it. A released row is kept for the next
//! admitted event of its type, so in steady state admitting an event
//! allocates nothing — on a disordered stream, at widths 1 and 2, a
//! session under slack allocates per event what the same session makes of
//! the stream in order without slack: the engines' own first-seen-key and
//! window bookkeeping, and at width 2 the transport's recycled batches.
//!
//! One test, in a binary of its own: the counting allocator is
//! process-wide, which is how the worker threads' allocations are seen.

use cogra::prelude::*;
use cogra::workloads::{stock, StockConfig};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{calls, counting, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const EVENTS: usize = 50_000;
const CHUNK: usize = 2_048;
const WARM_UP_CHUNKS: usize = 4;

/// Feed `events` to a session over `query` at `workers`, draining after
/// every chunk: the allocations per event of the chunks after the warm-up,
/// and every result, sorted.
fn allocs_per_event(
    registry: &TypeRegistry,
    query: &str,
    workers: usize,
    slack: Option<u64>,
    events: &[Event],
) -> (f64, Vec<WindowResult>) {
    let mut builder = Session::builder().query(query).workers(workers);
    if let Some(slack) = slack {
        builder = builder.slack(slack);
    }
    let mut session = builder.build(registry).expect("session builds");
    assert_eq!(session.workers(), workers);
    let mut results: Vec<WindowResult> = Vec::new();
    let (mut counted, mut allocations) = (0usize, 0u64);
    for (i, chunk) in events.chunks(CHUNK).enumerate() {
        // The first chunks fill the buffer, the spare rows and the batches.
        let warm = i >= WARM_UP_CHUNKS;
        let before = calls();
        counting(warm);
        for e in chunk {
            session.process(e);
        }
        counting(false);
        if warm {
            counted += chunk.len();
            allocations += calls() - before;
        }
        session.drain_into(&mut results);
    }
    session.finish_into(&mut results);
    assert_eq!(session.late_events(), 0, "the slack repairs the stream");
    WindowResult::sort(&mut results);
    (allocations as f64 / counted as f64, results)
}

#[test]
fn admitting_an_event_under_slack_allocates_nothing() {
    const SLACK: u64 = 4;
    let registry = stock::registry();
    let ordered = stock::generate(&StockConfig {
        events: EVENTS,
        ..Default::default()
    });
    // One event per tick, each run of four arriving backwards: three ticks
    // of disorder at most, repaired into `ordered` by the slack.
    let mut disordered = ordered.clone();
    disordered.chunks_mut(4).for_each(<[Event]>::reverse);
    let query = stock::q3_query_no_adjacent(1000, 500);
    for workers in [1, 2] {
        let (plain, expected) = allocs_per_event(&registry, &query, workers, None, &ordered);
        let (repaired, results) =
            allocs_per_event(&registry, &query, workers, Some(SLACK), &disordered);
        assert!(!expected.is_empty(), "the workload emits results");
        assert_eq!(results, expected, "workers={workers}");
        assert!(
            repaired - plain < 0.01,
            "{repaired:.3} allocations per event under slack against {plain:.3} in order \
             (workers={workers}): the reorder buffer allocates per admitted event"
        );
    }
}
