//! The model battery proper: the arms no narrower battery file owns.
//!
//! * **random lives** — a generated case of the workload table, a
//!   generated configuration (width, batch size, sharing, transport) and
//!   a generated op sequence (ingest / drain / restore elsewhere), held to
//!   the reference by `model::check`; the vendored proptest shrinks all of
//!   it. The narrower files (`streaming_parallel_props`, `session_parity`,
//!   `sharing_battery`, `adversarial_props`, `checkpoint_props`,
//!   `server_e2e_props`, `accounting_props::cadence`, `chaos_props`) are
//!   deterministic slices of the same space plus what is not an
//!   equivalence.
//! * **edge populations** — for every transition, negation edge and
//!   predicate of a compiled plan, the smallest stream that takes the edge
//!   and the smallest that just fails to, against the oracle.

mod common;

use cogra::prelude::*;
use common::model::{self, Case, Config, Reference, Transport, BATCHES, WIDTHS};
use common::workloads::{disordered, rows_case, workload, BURST, MATRIX, WORKLOADS};
use common::{edges, watchdog};
use proptest::collection::vec;
use proptest::prelude::*;

/// One random life: a case of the workload table, a configuration and an
/// op sequence, all sampled, held to the reference.
fn a_life(
    (wl, seed, n): (usize, u64, usize),
    (width, batch, sharing, jitter): (usize, usize, bool, bool),
    transport: Transport,
    raw: Vec<(usize, usize)>,
) -> Result<(), TestCaseError> {
    // `COMEBACK` too: a third of its events share a time stamp with
    // their predecessor and NEXT makes the order inside a time stamp
    // observable, so a restore must bring in-flight events back in
    // arrival order — jittered, their ids no longer are.
    // (`BURST` is born disordered, under the slack that repairs it.)
    let jitter = jitter && wl != BURST;
    let case = disordered(wl, seed, n, if jitter { 8 } else { 0 });
    let config = Config {
        workers: WIDTHS[width],
        batch: BATCHES[batch],
        sharing,
        transport,
        ..Config::default()
    };
    let ops = model::ops(&case, &raw);
    watchdog("a random life", move || {
        let reference = Reference::of(&case).expect("COGRA takes every workload query");
        model::check(&case, &reference, &config, &ops).map(drop)
    })
    .map_err(TestCaseError::fail)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn any_life_of_any_workload_observes_the_reference(
        case in (0usize..WORKLOADS, 0u64..10_000, 100usize..360),
        shape in (0usize..4, 0usize..4, any::<bool>(), any::<bool>()),
        csv in any::<bool>(),
        raw in vec((0usize..5, 0usize..48), 0..24),
    ) {
        a_life(case, shape, if csv { Transport::Csv } else { Transport::Memory }, raw)?;
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_served_life_of_any_workload_observes_the_reference(
        case in (0usize..WORKLOADS, 0u64..10_000, 100usize..360),
        shape in (0usize..4, 0usize..4, any::<bool>(), any::<bool>()),
        block in 1usize..98,
        raw in vec((0usize..5, 0usize..48), 0..24),
    ) {
        a_life(case, shape, Transport::Socket(block), raw)?;
    }
}

/// The three repeated-sub-pattern rosters of `tests/dedup_regression.rs`,
/// each next to its expansion written out by hand: a disjunct expanded
/// twice must count once.
const REPEATS: [(&str, &str); 3] = [
    ("OR(A, A)", "A"),
    ("SEQ(A?, A?)", "OR(SEQ(A, A), A)"),
    ("SEQ(A*, A*)", "OR(SEQ(A+, A+), A+)"),
];

#[test]
fn edge_populations_match_the_oracle() {
    // The rosters, as cases without a stream yet: every query of the
    // matrix and of the workload table alone, every repeat beside its
    // expansion.
    let alone = |case: Case| (0..case.roster.len()).map(move |q| case.clone().only(q));
    let matrix: Vec<&str> = MATRIX.iter().map(|(q, _)| *q).collect();
    let mut rosters: Vec<Case> = alone(rows_case(&matrix, &[], None)).collect();
    rosters.extend((0..WORKLOADS).flat_map(|wl| alone(workload(wl, 1, 0))));
    for (surface, expanded) in REPEATS {
        let query = |pattern: &str| {
            format!("RETURN COUNT(*), SUM(A.v) PATTERN {pattern} SEMANTICS ANY WITHIN 10 SLIDE 10")
        };
        let mut pair = rows_case(&[&query(surface), &query(expanded)], &[], None);
        pair.same = vec![(0, 1)];
        rosters.push(pair);
    }

    let mut populations = 0;
    for roster in rosters {
        let streams: Vec<(String, Vec<Event>)> = roster
            .roster
            .iter()
            .flat_map(|(q, _)| edges::populations(q, &roster.registry))
            .collect();
        let edges = streams.iter().any(|(probe, _)| probe.contains('→'));
        let mut outcomes = std::collections::HashSet::new();
        for (probe, events) in streams {
            populations += 1;
            let case = Case {
                name: format!("{probe} of {}", roster.name),
                events,
                ..roster.clone()
            };
            let reference = Reference::of(&case).expect("COGRA takes every query");
            assert_eq!(
                reference.enumerated,
                case.roster.len(),
                "{}: a smallest population is within the oracle's reach",
                case.name
            );
            // Through the stream-transaction rule with a drain after every
            // event, on two shards.
            let ops = model::chunked(&case, 1);
            let run = model::hold(&case, &reference, &Config::workers(2), &ops);
            outcomes.insert(format!("{:?}", run.observation.per_query));
        }
        assert!(
            outcomes.len() > 1 || !edges,
            "{}: taking an edge and just failing to must not look the same",
            roster.name
        );
    }
    assert!(populations > 200, "only {populations} populations");
}
