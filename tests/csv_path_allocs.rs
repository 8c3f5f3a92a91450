//! The CSV ingest path decodes into one reused event: between drains,
//! `Session::ingest_csv` must not allocate per row — no `Vec<String>` of
//! cells, no `String` per cell, no attribute `Vec` per event (the reader
//! this replaced made seven allocations per four-column row). Allowed is
//! what the engine allocates for the same events fed by `process(&Event)`
//! at one worker, measured alongside (~0.12 per event: first-seen keys
//! and window bookkeeping, see `inline_path_allocs.rs`) — at two workers
//! too, where rows are copied once into recycled batch arenas (see
//! `width2_path_allocs.rs`) and only the part of the workers' engine work
//! that overlaps the counted ingest is seen, so the one-worker figure is
//! the ceiling. What remains per *block* is the reader's header and
//! column map.
//!
//! One test, in a binary of its own: the counting allocator is
//! process-wide, which is how the worker threads' allocations are seen.

use cogra::prelude::*;
use cogra::workloads::{rideshare, RideshareConfig};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{calls, counting, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const EVENTS: usize = 50_000;
const CHUNK: usize = 2_048;
/// The first chunks build the batches that circulate afterwards.
const WARM_UP_CHUNKS: usize = 4;

/// Allocation calls per event while `feed` ingests each chunk after the
/// warm-up, draining (uncounted) in between.
fn allocs_per_event(
    workers: usize,
    chunks: usize,
    mut feed: impl FnMut(&mut Session, usize),
) -> f64 {
    // q2 under skip-till-any-match is type-grained: the engine stores no
    // events, so its allocations do not drown the decode path's.
    let mut session = Session::builder()
        .query(
            rideshare::q2_query(1000, 500)
                .replace("next-match", "any-match")
                .as_str(),
        )
        .workers(workers)
        .build(&rideshare::registry())
        .expect("session builds");
    assert_eq!(session.workers(), workers);
    let mut results: Vec<WindowResult> = Vec::new();
    let calls_before = calls();
    for chunk in 0..chunks {
        counting(chunk >= WARM_UP_CHUNKS);
        feed(&mut session, chunk);
        counting(false);
        session.drain_into(&mut results);
    }
    session.finish_into(&mut results);
    assert!(!results.is_empty(), "the workload emits results");
    let counted = EVENTS - WARM_UP_CHUNKS * CHUNK;
    (calls() - calls_before) as f64 / counted as f64
}

#[test]
fn csv_ingest_allocates_nothing_per_row() {
    let registry = rideshare::registry();
    let events = rideshare::generate(&RideshareConfig {
        events: EVENTS,
        ..Default::default()
    });
    let chunks: Vec<&[Event]> = events.chunks(CHUNK).collect();
    let blocks: Vec<String> = chunks
        .iter()
        .map(|chunk| write_events(chunk, &registry))
        .collect();
    let by_reference = allocs_per_event(1, chunks.len(), |session, i| {
        for event in chunks[i] {
            session.process(event);
        }
    });
    for workers in [1, 2] {
        let from_csv = allocs_per_event(workers, blocks.len(), |session, i| {
            let rows = session
                .ingest_csv(&blocks[i], &registry)
                .expect("the generated CSV ingests");
            assert_eq!(rows as usize, chunks[i].len());
        });
        assert!(
            from_csv < by_reference + 0.05,
            "{from_csv:.3} allocations per CSV row at {workers} worker(s) against \
             {by_reference:.3} per event fed by reference: the decode path allocates per row"
        );
    }
}
