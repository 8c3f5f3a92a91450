//! The served ingest path allocates per block, not per row: an `INGEST`
//! block through a loopback [`Server`] must allocate no more per row than
//! `Session::ingest_csv` of the same block in-process, plus a constant per
//! block. The connection thread decodes into one stage kept for the
//! connection's life and ships each full stage into a recycled chunk, so a
//! stage built again per block (13 heap blocks while its two vectors grow
//! to a chunk's size) or per chunk (13 a chunk, ~200 a block) shows here.
//! What the constant allows is the per-block machinery around the rows,
//! measured at 26 ([`PER_BLOCK`]): the `Arc` of each of the 16 chunks a
//! block ships, and the reply — the actor's `Metrics` and their encoding,
//! the client's reply line and its decoding.
//!
//! One test, in a binary of its own: the counting allocator is
//! process-wide, which is how the server's and the client's threads are
//! seen.

use cogra::prelude::*;
use cogra::workloads::{rideshare, RideshareConfig};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{calls, counting, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const EVENTS: usize = 50_000;
const BLOCK: usize = 2_048;
/// The first blocks build the stage and the chunks that circulate
/// afterwards.
const WARM_UP_BLOCKS: usize = 4;
/// Allocation calls a served block may make beyond `ingest_csv`'s: 26.4
/// measured on x86-64 Linux, with a margin that stays below the 13 a
/// stage built per block would add.
const PER_BLOCK: f64 = 32.0;

/// q2 under skip-till-any-match is type-grained: the engine stores no
/// events, so its allocations do not drown the ingest path's.
fn session() -> SessionBuilder {
    let query = rideshare::q2_query(1000, 500).replace("next-match", "any-match");
    Session::builder().query(query.as_str())
}

/// Allocation calls per row while `feed` ingests each block into `sink`
/// after the warm-up; `drain` runs (uncounted) after every block.
fn allocs_per_row<S>(
    blocks: &[String],
    sink: &mut S,
    feed: impl Fn(&mut S, &str),
    drain: impl Fn(&mut S),
) -> f64 {
    let calls_before = calls();
    for (i, block) in blocks.iter().enumerate() {
        counting(i >= WARM_UP_BLOCKS);
        feed(sink, block);
        counting(false);
        drain(sink);
    }
    let counted = EVENTS - WARM_UP_BLOCKS * BLOCK;
    (calls() - calls_before) as f64 / counted as f64
}

#[test]
fn a_served_block_allocates_per_block_not_per_row() {
    let registry = rideshare::registry();
    let events = rideshare::generate(&RideshareConfig {
        events: EVENTS,
        ..Default::default()
    });
    assert_eq!(events.len(), EVENTS);
    let blocks: Vec<String> = events
        .chunks(BLOCK)
        .map(|block| write_events(block, &registry))
        .collect();

    let local = session().build(&registry).expect("session builds");
    let mut local = (local, Vec::<WindowResult>::new());
    let in_process = allocs_per_row(
        &blocks,
        &mut local,
        |(session, _), block| {
            let rows = session
                .ingest_csv(block, &registry)
                .expect("the generated CSV ingests");
            assert!(rows as usize <= BLOCK);
        },
        |(session, results)| session.drain_into(results),
    );
    let (mut local, mut results) = local;
    local.finish_into(&mut results);
    assert!(!results.is_empty(), "the workload emits results");

    // Drained on request, as in-process, so both count the same work.
    let config = ServerConfig {
        drain_on_ingest: false,
        ..ServerConfig::default()
    };
    let server =
        Server::spawn(session(), registry.clone(), "127.0.0.1:0", config).expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("client connects");
    let served = allocs_per_row(
        &blocks,
        &mut client,
        |client, block| {
            let report = client.ingest(block).expect("transport").expect("ingests");
            assert!(report.ingested as usize <= BLOCK);
        },
        |client| {
            client.drain().expect("transport").expect("drains");
        },
    );
    let finished = client.finish().expect("transport").expect("finishes");
    let local = local.metrics();
    assert_eq!(
        (finished.events, finished.results),
        (local.events, local.results),
        "the same stream"
    );
    server.shutdown();

    let per_block = (served - in_process) * BLOCK as f64;
    println!(
        "served {served:.4} against {in_process:.4} allocations a row: {per_block:.1} a block"
    );
    assert!(
        served <= in_process + PER_BLOCK / BLOCK as f64,
        "{served:.4} allocations per served row against {in_process:.4} in-process: \
         {per_block:.1} a block beyond ingest_csv's, {PER_BLOCK} allowed — the \
         connection builds its stage or its chunks again"
    );
}
