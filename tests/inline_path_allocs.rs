//! The one-worker path reads events in place: between drains, a
//! no-slack `.workers(1)` session fed by reference must not allocate per
//! event (no batch staging, no `Event` clone — a clone alone is at least
//! one allocation per event) and must not spawn a thread. What remains is
//! the engines' own first-seen-key and window bookkeeping, ~0.19
//! allocations per event on this workload (the benchmark's
//! `session.allocs_per_event` on `stock-type`).
//!
//! One test, in a binary of its own: the counting allocator and the
//! thread count are process-wide.

use cogra::prelude::*;
use cogra::workloads::{stock, StockConfig};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{calls, counting, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Threads of this process (`None` where `/proc` does not say).
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line["Threads:".len()..].trim().parse().ok()
}

#[test]
fn one_worker_ingest_neither_clones_events_nor_spawns_threads() {
    const EVENTS: usize = 50_000;
    const CHUNK: usize = 2_048;
    let registry = stock::registry();
    let events = stock::generate(&StockConfig {
        events: EVENTS,
        ..Default::default()
    });
    // `.workers(1)`, and `.workers(4)` over a query without a `GROUP-BY`
    // prefix to shard on: both have effective width 1, so both run inline.
    let ungrouped = "RETURN COUNT(*) PATTERN SEQ(Stock A+, Stock B+) \
                     SEMANTICS skip-till-any-match WHERE [company] WITHIN 1000 SLIDE 500";
    let grouped = stock::q3_query_no_adjacent(1000, 500);
    for (query, workers) in [(grouped.as_str(), 1), (ungrouped, 4)] {
        let threads_before = thread_count();
        let mut session = Session::builder()
            .query(query)
            .workers(workers)
            .build(&registry)
            .expect("session builds");
        assert_eq!(session.workers(), 1, "workers={workers}");
        let mut results: Vec<WindowResult> = Vec::new();
        let calls_before = calls();
        for chunk in events.chunks(CHUNK) {
            counting(true);
            for e in chunk {
                session.process(e);
            }
            counting(false);
            session.drain_into(&mut results);
        }
        assert_eq!(
            thread_count(),
            threads_before,
            "a width-1 session spawned a thread (workers={workers})"
        );
        session.finish_into(&mut results);
        assert!(!results.is_empty(), "the workload emits results");
        let calls = calls() - calls_before;
        let per_event = calls as f64 / EVENTS as f64;
        assert!(
            per_event < 0.25,
            "{per_event:.3} allocations per ingested event (workers={workers}): \
             the inline path is staging or cloning"
        );
    }
}
