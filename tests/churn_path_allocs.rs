//! Key churn costs no heap traffic of its own: on a stream that mints a
//! fresh partition key every eight events, first sight of a key, opening
//! a window, closing one and retiring a partition allocate nothing once
//! the router's pools are warm — a key is copied into the slot of the
//! interner's flat buffer that a retired key left, under that key's id;
//! closed windows and drained rings are reopened; the drain reuses its
//! list of closing cells. What is left is the two vectors of every
//! emitted result (`group`, `values`) and a handful of doublings, should
//! the resident set still grow a little past its warm-up size. (Before
//! the flat interner and the pools a short-lived key cost about sixteen
//! blocks, and before retirement the per-key tables kept doubling with
//! the stream.)
//!
//! The state is as bounded as the traffic: what the session holds after
//! six thousand more keys is what it held after the warm-up, give or take
//! the windows open at the two moments.
//!
//! Teardown likewise: dropping a session frees a number of blocks that
//! does not depend on how many keys it has seen.
//!
//! One test, in a binary of its own: the counting allocator is
//! process-wide.

use cogra::prelude::*;
use cogra::workloads::{churn, ChurnConfig};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{calls, counting, frees, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Events before counting starts: eight slides, so every pool has been
/// through a few drains.
const WARM_UP: usize = 4_000;
const COUNTED: usize = 50_000;

/// The churn stream's first `WARM_UP + counted` events through an inline
/// session, drained after every event like `Session::run`. Returns
/// `(allocation calls while the counted events were ingested and
/// drained, results they emitted, keys seen, blocks freed by dropping the
/// finished session, state bytes before and after the counted events)`.
fn run(counted: usize) -> (u64, usize, u64, u64, [usize; 2]) {
    let events = churn::generate(&ChurnConfig {
        events: WARM_UP + counted,
        ..Default::default()
    });
    let mut session = Session::builder()
        .query(churn::count_query(1000, 500).as_str())
        .workers(1)
        .build(&churn::registry())
        .expect("session builds");
    // Room for every result up front: the sink's own growth is not the
    // engine's.
    let mut results: Vec<WindowResult> = Vec::with_capacity(4 * events.len());
    for e in &events[..WARM_UP] {
        session.process(e);
        session.drain_into(&mut results);
    }
    let (calls_before, results_before) = (calls(), results.len());
    let warm_bytes = session.memory_bytes();
    counting(true);
    for e in &events[WARM_UP..] {
        session.process(e);
        session.drain_into(&mut results);
    }
    counting(false);
    let allocated = calls() - calls_before;
    let emitted = results.len() - results_before;
    let bytes = [warm_bytes, session.memory_bytes()];
    session.finish_into(&mut results);
    let keys = session.run_stats().key_allocs;
    let frees_before = frees();
    counting(true);
    drop(session);
    counting(false);
    (allocated, emitted, keys, frees() - frees_before, bytes)
}

#[test]
fn churn_allocates_for_results_only_and_teardown_is_constant() {
    let (allocated, emitted, keys, freed, [warm, churned]) = run(COUNTED);
    assert!(keys > 6_000, "the stream churns: {keys} keys");
    assert!(emitted > 10_000, "the stream emits: {emitted} results");
    assert!(
        allocated <= 2 * emitted as u64 + 16,
        "{allocated} allocations for {emitted} results over {keys} keys: more than two per \
         result plus a few doublings — a first-seen key, a window open/close or a retired \
         partition allocates again, or slots are not reused and the tables grow"
    );
    assert!(
        churned <= warm + warm / 4,
        "{churned} B of state after {keys} keys against {warm} B after the warm-up: keys \
         without a window are not retired"
    );
    // A fifth of the counted stream, under a third of the keys — and the
    // same teardown,
    // give or take the pools (bounded by the windows open at once, which
    // does not grow with the stream).
    let (_, _, fewer_keys, freed_short, _) = run(COUNTED / 5);
    assert!(fewer_keys * 3 < keys);
    assert!(
        freed <= freed_short + 64,
        "dropping the session freed {freed} blocks after {keys} keys against {freed_short} \
         after {fewer_keys}: teardown walks per-key blocks"
    );
}
