//! The model battery proper: the arms no narrower battery file owns.
//!
//! * **random lives** — a generated case of the workload table, a
//!   generated configuration (width, batch size, transport) and
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
use common::model::{self, Case, Config, Op, Reference, Transport, BATCHES, WIDTHS};
use common::workloads::{
    disordered, rows_case, stored_case, workload, BURST, KEYLESS, MATRIX, WORKLOADS,
};
use common::{edges, watchdog};
use proptest::collection::vec;
use proptest::prelude::*;

/// One random life: a case of the workload table, a configuration and an
/// op sequence, all sampled, held to the reference.
fn a_life(
    (wl, seed, n): (usize, u64, usize),
    (width, batch, jitter): (usize, usize, bool),
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
        shape in (0usize..4, 0usize..4, any::<bool>()),
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
        shape in (0usize..4, 0usize..4, any::<bool>()),
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

/// Every query of the matrix, of the stored-projection roster and of the
/// workload table alone, as cases of `n` events (the table's; the others
/// have no stream).
fn each_query_alone(n: usize) -> Vec<Case> {
    let alone = |case: Case| (0..case.roster.len()).map(move |q| case.clone().only(q));
    let matrix: Vec<&str> = MATRIX.iter().map(|(q, _)| *q).collect();
    let mut rosters: Vec<Case> = alone(rows_case(&matrix, &[], None)).collect();
    rosters.extend(alone(stored_case()));
    rosters.extend((0..WORKLOADS).flat_map(|wl| alone(workload(wl, 1, n))));
    rosters
}

/// The edge populations of `roster`'s queries: `(what it probes, the
/// stream)`.
fn edge_streams(roster: &Case) -> Vec<(String, Vec<Event>)> {
    let queries = roster.roster.iter();
    queries
        .flat_map(|(q, _)| edges::populations(q, &roster.registry))
        .collect()
}

#[test]
fn read_sets_name_what_the_plans_read() {
    use cogra::query::explain;
    use cogra::workloads::{rideshare, stock};
    let abc = common::workloads::abc_registry();
    // `D` carries no `g`: under GROUP-BY `g` its events belong to no
    // partition and are dropped unread, whatever the query says of them.
    let mut keyless = TypeRegistry::new();
    keyless.register_type("A", vec![("g", ValueKind::Int), ("v", ValueKind::Int)]);
    keyless.register_type("D", vec![("v", ValueKind::Int)]);
    let driver = rideshare::TYPES
        .map(|t| format!("{t}{{driver}}"))
        .join(", ");
    let table: [(TypeRegistry, String, &str); 8] = [
        (
            stock::registry(),
            stock::q3_query_no_adjacent(40, 20),
            "Stock{company}",
        ),
        (
            stock::registry(),
            stock::q3_query(40, 20),
            "Stock{company, price}",
        ),
        // Both sides of the predicate on adjacent events.
        (
            stock::registry(),
            stock::selectivity_query(40, 20),
            "Stock{company, sel, gate}",
        ),
        // Every type carries the key, noise types included.
        (rideshare::registry(), rideshare::q2_query(80, 40), &driver),
        // Aggregate targets: SUM(A.v), MIN(B.v).
        (
            abc.clone(),
            MATRIX[0].0.to_string(),
            "A{g, v}, B{g, v}, C{g}",
        ),
        // MAX(A.v), AVG, and a local filter on the negated variable.
        (
            abc.clone(),
            "RETURN g, MAX(A.v), AVG(A.v) PATTERN SEQ(A+, NOT C, B) SEMANTICS ANY \
             WHERE C.v > 3 GROUP-BY g WITHIN 10 SLIDE 5"
                .to_string(),
            "A{g, v}, B{g}, C{g, v}",
        ),
        // A local filter on a state, under an equivalence predicate.
        (
            abc,
            "RETURN COUNT(*) PATTERN SEQ(A+, B) SEMANTICS NEXT WHERE [g] AND B.v = 2 \
             WITHIN 10 SLIDE 5"
                .to_string(),
            "A{g}, B{g, v}, C{g}",
        ),
        (
            keyless,
            "RETURN g, COUNT(*), SUM(D.v) PATTERN SEQ(A+, D) SEMANTICS ANY \
             GROUP-BY g WITHIN 10 SLIDE 5"
                .to_string(),
            "A{g}",
        ),
    ];
    for (registry, query, reads) in table {
        let plan = compile(&parse(&query).expect("parses"), &registry).expect("compiles");
        assert_eq!(explain::reads(&plan, &registry), reads, "{query}");
    }
}

#[test]
fn attributes_outside_the_read_set_are_never_read() {
    // Read-set soundness (`CompiledQuery::read_set` is all a shard worker
    // is sent of an event): every attribute outside it overwritten with
    // noise, every engine kind must still observe the reference of the
    // clean stream. Judged where events are read in place — one inline
    // shard, no slack; any other transport would project the noise away.
    let mut held = 0;
    for roster in each_query_alone(160) {
        let mut streams = edge_streams(&roster);
        // The table's own stream too, its disorder (burst) repaired up
        // front: the sort is stable, as the reorderer's release is.
        let mut events = roster.events.clone();
        events.sort_by_key(|e| e.time);
        streams.push(("the table's stream".to_string(), events));
        for (probe, events) in streams {
            for kind in EngineKind::ALL {
                let case = Case {
                    name: format!("{probe} of {} on {kind}", roster.name),
                    events: events.clone(),
                    slack: None,
                    ..roster.clone().on(kind)
                };
                // `None`: outside the kind's Table 9 row.
                let Some(reference) = Reference::of(&case) else {
                    continue;
                };
                let ops = model::chunked(&case, 16);
                model::hold(&case.noised(), &reference, &Config::default(), &ops);
                held += 1;
            }
        }
    }
    assert!(held > 600, "only {held} noised lives");
}

#[test]
fn edge_populations_match_the_oracle() {
    // The rosters, as cases without a stream yet: every query of the
    // matrix and of the workload table alone, every repeat beside its
    // expansion.
    let mut rosters = each_query_alone(0);
    for (surface, expanded) in REPEATS {
        let query = |pattern: &str| {
            format!("RETURN COUNT(*), SUM(A.v) PATTERN {pattern} SEMANTICS ANY WITHIN 10 SLIDE 10")
        };
        let mut pair = rows_case(&[&query(surface), &query(expanded)], &[], None);
        pair.same = vec![(0, 1)];
        rosters.push(pair);
    }

    let (mut populations, mut restored) = (0, 0);
    for roster in rosters {
        let streams = edge_streams(&roster);
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
            let mut ops = model::chunked(&case, 1);
            let run = model::hold(&case, &reference, &Config::workers(2), &ops);
            outcomes.insert(format!("{:?}", run.observation.per_query));
            // What a window keeps of a matched event, through a snapshot
            // taken before one of the events (which one moves along with
            // the populations: for some the edge's predecessor is stored
            // and its successor still to come) and restored at either
            // width.
            if roster.name.starts_with("stored") {
                let restore = Op::Restore {
                    workers: 1 + populations / 2 % 2,
                    batch: 512,
                };
                ops.insert(2 * (populations % case.events.len()), restore);
                model::hold(&case, &reference, &Config::workers(2), &ops);
                restored += 1;
            }
        }
        assert!(
            outcomes.len() > 1 || !edges,
            "{}: taking an edge and just failing to must not look the same",
            roster.name
        );
    }
    assert!(populations > 200, "only {populations} populations");
    assert!(
        restored > 60,
        "only {restored} populations through a snapshot"
    );
}

/// Events a query does not want — of a type without its partition key,
/// or one its plan neither binds nor keeps — never reach its engine, and
/// events no query wants reach none: so the shard counters sum to the
/// same at every width, with and without slack, across restores from one
/// width to another (one of them after the stream's unwanted tail) and
/// under every failure policy, and the windows the unwanted tail closes
/// are emitted all the same.
#[test]
fn keyless_events_are_dropped_alike_at_every_width_slack_restore_and_policy() {
    let policies = [
        FailurePolicy::Fail,
        FailurePolicy::Degrade,
        FailurePolicy::Restart,
    ];
    for slack in [0, 8] {
        let case = disordered(KEYLESS, 5, 300, slack);
        let configs = WIDTHS.into_iter().flat_map(|workers| {
            policies.map(|policy| Config {
                policy,
                ..Config::workers(workers)
            })
        });
        let restores = |case: &Case| {
            let mut ops = model::chunked(case, 40);
            ops.insert(
                4,
                Op::Restore {
                    workers: 1,
                    batch: 7,
                },
            );
            ops.insert(
                8,
                Op::Restore {
                    workers: 4,
                    batch: 256,
                },
            );
            // After the last chunk, all ticks, before its drain.
            let last = ops.len() - 1;
            ops.insert(
                last,
                Op::Restore {
                    workers: 2,
                    batch: 1,
                },
            );
            ops
        };
        let (reference, _) = model::sweep(&case, configs, restores);
        for q in 0..2 {
            assert!(!reference.query(q).is_empty(), "q{q} has no results");
        }
    }
}
