//! Width-invariance arms of the model (`tests/common/mod.rs`): over
//! sampled rows, worker counts {1,2,4,8} (one inline shard, or shards on
//! worker threads), ingest chunkings and transport batch sizes, a session
//! observes the reference — results, effective worker count, and, under
//! slack, exactly the late drops of a single front `Reorderer`, no matter
//! how the stream shards.

mod common;

use common::model::{self, chunked, Config, Reference, BATCHES, WIDTHS};
use common::workloads::{burst_case, rows_case};
use proptest::collection::vec;
use proptest::prelude::*;

/// Queries the arms cycle through: grouped (shardable) under ANY and
/// NEXT, and a group-free query that must pin to one shard.
const QUERIES: [&str; 3] = [
    "RETURN g, COUNT(*), SUM(A.v) PATTERN SEQ(A+, B) SEMANTICS ANY \
     GROUP-BY g WITHIN 10 SLIDE 5",
    "RETURN g, COUNT(*) PATTERN SEQ(A+, B) SEMANTICS NEXT \
     GROUP-BY g WITHIN 12 SLIDE 4",
    "RETURN COUNT(*) PATTERN SEQ(A+, B) SEMANTICS ANY WITHIN 10 SLIDE 5",
];

fn config(width: usize, batch: usize) -> Config {
    Config {
        workers: WIDTHS[width],
        batch: BATCHES[batch],
        ..Config::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn streaming_equals_the_reference_at_every_width(
        rows in vec((0u64..3, 0usize..2, 0i64..5, -4i64..5), 1..160),
        width in 0usize..4,
        chunk in 1usize..40,
        batch in 0usize..4,
        query in 0usize..4,
    ) {
        // Also in the observation: the effective worker count — the
        // requested one, or 1 for the query without `GROUP-BY`; the widest
        // when all three share one pool.
        let roster = if query == 3 { &QUERIES[..] } else { &QUERIES[query..=query] };
        let case = rows_case(roster, &rows, None);
        let reference = Reference::of(&case).expect("COGRA takes every query");
        model::check(&case, &reference, &config(width, batch), &chunked(&case, chunk))
            .map_err(TestCaseError::fail)?;
    }

    #[test]
    fn drain_points_and_batch_sizes_never_change_the_result_set(
        rows in vec((0u64..4, 0usize..2, 0i64..4, -4i64..5), 1..120),
        chunk_a in 1usize..30,
        chunk_b in 1usize..30,
        batch_a in 0usize..4,
        batch_b in 0usize..4,
    ) {
        // Emission timing is observable, the collected results are not: in
        // particular a flush forced by a drain mid-batch must be invisible
        // (flush-boundary invariance).
        let case = rows_case(&[QUERIES[0]], &rows, None);
        let reference = Reference::of(&case).expect("COGRA takes every query");
        for (chunk, batch) in [(chunk_a, batch_a), (chunk_b, batch_b)] {
            model::check(&case, &reference, &config(2, batch), &chunked(&case, chunk))
                .map_err(TestCaseError::fail)?;
        }
    }

    #[test]
    fn the_pool_reorderer_matches_the_front_reorderer(
        rows in vec((0u64..40, 0usize..2, 0i64..5, -4i64..5), 1..160),
        slack in 0u64..9,
        width in 0usize..4,
        batch in 0usize..4,
        chunk in 1usize..40,
    ) {
        // Every width repairs disorder once, in the pool: its one
        // ReorderBuffer admits every event and releases the ones some
        // query wants, in order, to the shards. Against arbitrarily
        // disordered streams that must give the results and the late-drop
        // count of the reference architecture — a single front Reorderer.
        let case = rows_case(&[QUERIES[0]], &rows, Some(slack));
        let reference = Reference::of(&case).expect("COGRA takes every query");
        for (config, ops) in [
            (Config::default(), Vec::new()),
            (config(width, batch), chunked(&case, chunk)),
        ] {
            model::check(&case, &reference, &config, &ops).map_err(TestCaseError::fail)?;
        }
    }

    #[test]
    fn burst_disorder_keeps_late_drops_invariant_across_workers(
        seed in 0u64..10_000,
        disorder in 0u64..40,
        slack in 0usize..3,
        width in 0usize..4,
        batch in 0usize..4,
        chunk in 1usize..40,
    ) {
        // The same invariant over the flash-crowd generator: bursts pack
        // ~4 events per tick with time stamps scattered up to `disorder`
        // ticks backwards, so slack < disorder *must* drop events —
        // identically at every width and batch size.
        let slack = [0u64, 8, 24][slack];
        let case = burst_case(seed, 320, disorder, Some(slack));
        let reference = Reference::of(&case).expect("COGRA takes every query");
        model::check(&case, &reference, &config(width, batch), &chunked(&case, chunk))
            .map_err(TestCaseError::fail)?;
        // With slack at least as deep as the disorder, nothing may drop.
        if slack >= disorder.max(1) {
            prop_assert_eq!(reference.late, 0, "slack {} covers disorder {}", slack, disorder);
        }
    }
}
