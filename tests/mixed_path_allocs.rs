//! The mixed-grained path builds no cell: on `stock::q3_query` (Algorithm
//! 2 — a predicate on adjacent events, an `AVG` so every row has slots) a
//! bound event's aggregates are computed in the row they end up in — the
//! next row of the window's store, or the next staged update — and dropped
//! from there if no trend ends at the event — and what the window keeps of
//! the event itself (its time stamp, its state, and the plan's stored
//! projection: here its price) is appended to the window's arena, three
//! `Vec` appends into retained capacity. What is left is amortised growth
//! of the stores and the cell and two vectors of every emitted result.
//! (Before the flat rows a bound state of a window of an event cost a
//! vector of tagged slot values of its own: 6.11 allocations per event on
//! this workload;
//! while a stored event was a clone of the `Event`, its attribute vector
//! in each of its two windows: 2.12.)
//!
//! One test, in a binary of its own: the counting allocator is
//! process-wide.

use cogra::prelude::*;
use cogra::workloads::{stock, StockConfig};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{calls, counting, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Events per `process` … `drain_into` round, as the benchmark drives it.
const CHUNK: usize = 2_048;
const WARM_UP: usize = 4 * CHUNK;
const COUNTED: usize = 50_000;

#[test]
fn a_stored_event_is_appended_to_the_arena_not_cloned() {
    let events = stock::generate(&StockConfig {
        events: WARM_UP + COUNTED,
        ..Default::default()
    });
    let mut session = Session::builder()
        .query(stock::q3_query(1000, 500).as_str())
        .workers(1)
        .build(&stock::registry())
        .expect("session builds");
    assert_eq!(
        session.plan(0).expect("one query").granularity(),
        Granularity::Mixed
    );
    // Room for every result up front: the sink's own growth is not the
    // engine's.
    let mut results: Vec<WindowResult> = Vec::with_capacity(events.len());
    let mut ingest = |chunks: &[Event]| {
        for chunk in chunks.chunks(CHUNK) {
            for e in chunk {
                session.process(e);
            }
            session.drain_into(&mut results);
        }
    };
    ingest(&events[..WARM_UP]);
    let before = calls();
    counting(true);
    ingest(&events[WARM_UP..]);
    counting(false);
    let allocated = calls() - before;
    // Measured: 6,132 — 0.123 per event, what the ~1,900 results cost.
    assert!(
        allocated * 20 <= 3 * COUNTED as u64,
        "{allocated} allocations for {COUNTED} events: more than 0.15 per event — a bound \
         state builds a cell again (6 per event), or a stored event is cloned (2 per event)"
    );
    assert!(results.len() > 1_000, "the stream emits: {}", results.len());
}
