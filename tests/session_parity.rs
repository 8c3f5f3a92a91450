//! Parity arms of the model (`tests/common/mod.rs`) on the evaluation's
//! stock and transport workloads: in every configuration the builder
//! offers — engine kind, multi-query, slack, workers — a [`Session`]
//! observes what each query observes alone on one inline shard, fed in
//! order by a front `Reorderer`.

mod common;

use cogra::prelude::*;
use common::disorder;
use common::model::{chunked, sweep, Case, Config, Op, WIDTHS};
use common::workloads::{workload, STOCK_TYPE, TRANSPORT};

/// The transport stream under its skip-till-any-match grouping query.
fn transport() -> Case {
    workload(TRANSPORT, 23, 600).only(0)
}

/// One run of `case`, drained after every event like `Session::run`.
fn run(case: &Case, config: Config) {
    let (reference, _) = sweep(case, [config], |case| chunked(case, 1));
    assert!(reference.results() > 0, "{}: no results", case.name);
}

#[test]
fn single_query_matches_run_to_completion_on_stock() {
    for kind in [
        EngineKind::Cogra,
        EngineKind::Sase,
        EngineKind::Greta,
        EngineKind::Aseq,
    ] {
        run(
            &workload(STOCK_TYPE, 7, 240).only(0).on(kind),
            Config::default(),
        );
    }
}

#[test]
fn single_query_matches_run_to_completion_on_transport() {
    for kind in [EngineKind::Cogra, EngineKind::Sase] {
        run(&transport().on(kind), Config::default());
    }
}

#[test]
fn multi_query_session_matches_individual_runs() {
    // Grouping (ANY) and waiting-time (NEXT) queries over one stream — on
    // COGRA both, then each on the engine that suits it.
    let mut case = workload(TRANSPORT, 23, 600);
    run(&case, Config::default());
    case.roster[1].1 = EngineKind::Sase;
    run(&case, Config::default());
}

#[test]
fn slack_session_matches_manual_reorder_pipeline() {
    for slack in [0, 3, 50] {
        // Blocks of five arrive reversed: slack 0 and 3 must drop.
        let mut case = transport();
        case.events = disorder(&case.events, 5);
        case.slack = Some(slack);
        run(&case, Config::default());
    }
}

#[test]
fn one_worker_equals_many_workers() {
    let widths = WIDTHS.map(Config::workers);
    sweep(&transport(), widths, |_| Vec::new());
}

/// Incremental emission under sharded execution: every mid-stream drain
/// emits a *prefix-consistent* slice of the final result set — only
/// results of windows closed at the drain's watermark, and *all* of them
/// (the driver checks both at every `Op::Drain`).
#[test]
fn workers_drains_are_prefix_consistent_and_complete() {
    let widths = WIDTHS.map(Config::workers);
    let (_, runs) = sweep(&transport(), widths, |case| chunked(case, 25));
    for run in runs {
        assert!(run.live > 0, "results must flow live, not only at finish()");
    }
}

/// `.slack(n)` × `.workers(n)`: one stream-wide gate decides the drops in
/// front of the shards, so late-drop counts must not depend on the worker
/// count, and every admitted event must land on the shard its group
/// hashes to.
#[test]
fn slack_late_drops_are_identical_across_worker_counts() {
    let mut case = transport();
    // Re-append the first 10 events at the end of the stream: their times
    // are far behind the watermark by then, so each is a guaranteed drop.
    let stragglers = case.events[..10].to_vec();
    case.events = disorder(&case.events, 5);
    case.events.extend(stragglers);
    case.slack = Some(3);
    let (reference, _) = sweep(&case, WIDTHS.map(Config::workers), |_| Vec::new());
    assert!(
        reference.late >= 10,
        "the stragglers must actually be dropped (got {})",
        reference.late
    );
}

#[test]
fn slack_composes_with_workers() {
    // Slack deep enough to repair everything: nothing may drop at width 4.
    let mut case = transport();
    case.events = disorder(&case.events, 4);
    case.slack = Some(10);
    let (reference, _) = sweep(&case, [Config::workers(4)], |case| chunked(case, 64));
    assert_eq!(reference.late, 0);
}

/// A finished session is exhausted, identically at every width: further
/// `process` calls are ignored (no panic, no state change), further
/// drains and finishes emit nothing, and it refuses to checkpoint — the
/// epilogue of every in-memory run of the driver; here after a restore too.
#[test]
fn ingest_after_finish_is_ignored_at_every_width() {
    let restored = |case: &Case| {
        vec![
            Op::Ingest(case.events.len() / 2),
            Op::Restore {
                workers: 2,
                batch: 7,
            },
        ]
    };
    sweep(&transport(), [1, 4].map(Config::workers), restored);
}
