//! The **adversarial** generators (`cogra::workloads::{skew, churn, burst,
//! fraud}`) as arms of the model (`tests/common/mod.rs`): for every hostile
//! stream shape a `.workers(n)` session observes the reference — results,
//! late drops, and shard counters that account for every event. Beside the
//! arms, what is not an equivalence: the guard rails the hostile shapes
//! exist to trip — shard imbalance under skew, key-limit overflow under
//! churn — must show, and fire *identically* on every worker count.

mod common;

use cogra::prelude::*;
use cogra::workloads::{skew, SkewConfig};
use common::model::{self, chunked, sweep, Config, Reference, BATCHES, WIDTHS};
use common::watchdog;
use common::workloads::{workload, BURST, CHURN, FRAUD, SKEW};
use proptest::prelude::*;

const HOSTILE: [usize; 4] = [SKEW, CHURN, BURST, FRAUD];

#[test]
fn adversarial_streams_are_worker_count_invariant() {
    // The deterministic sweep CI runs under `timeout`: every generator ×
    // worker counts {1, 2, 4, 8} × a degenerate and a default transport
    // batch. Liveness: each generator must actually produce results, or
    // the equalities were vacuous.
    for wl in HOSTILE {
        watchdog("adversarial sweep", move || {
            let configs = WIDTHS.into_iter().flat_map(|workers| {
                [7, 256].map(|batch| Config {
                    batch,
                    ..Config::workers(workers)
                })
            });
            let (reference, _) = sweep(&workload(wl, 29, 600), configs, |case| chunked(case, 37));
            assert!(reference.results() > 0, "workload {wl} emitted nothing");
        });
    }
}

#[test]
fn skewed_keys_surface_as_shard_imbalance() {
    // The point of the skew generator: a hot key is a hot shard. With a
    // sharp power law the rank-1 user draws a large constant share of
    // the stream onto one shard, and the per-shard counters make that
    // visible.
    watchdog("skew-imbalance", || {
        let cfg = SkewConfig {
            alpha: 1.5,
            events: 4_000,
            seed: 17,
            ..SkewConfig::default()
        };
        let registry = skew::registry();
        let run = Session::builder()
            .query(skew::count_query(50, 25).as_str())
            .workers(4)
            .build(&registry)
            .expect("session builds")
            .run(&skew::generate(&cfg));
        let counts = &run.shard_events;
        assert_eq!(counts.len(), 4, "one counter per shard: {counts:?}");
        assert_eq!(counts.iter().sum::<u64>(), cfg.events as u64);
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(
            max - min > cfg.events as u64 / 20,
            "no visible imbalance under alpha=1.5: {counts:?}"
        );
    });
}

#[test]
fn churn_overflow_fires_identically_on_every_worker_count() {
    // The churn generator never stops minting keys, and a session that
    // is fed without a drain retires none of them: every key it admits
    // stays resident. With a `key_limit` in the way, every worker count
    // must report the same sticky overflow while everything already
    // admitted keeps aggregating. (Which keys a limit refuses follows the
    // drain cadence by design, so a limit is not an axis of the model.)
    watchdog("churn-overflow", || {
        let case = workload(CHURN, 3, 800);
        let capped = |workers: usize, limit: u32| {
            Session::builder()
                .query(case.roster[0].0.as_str())
                .workers(workers)
                .config(EngineConfig {
                    key_limit: Some(limit),
                    ..EngineConfig::default()
                })
                .build(&case.registry)
                .expect("session builds")
        };
        let distinct: std::collections::HashSet<&Value> =
            case.events.iter().map(|e| &e.attrs[0]).collect();
        assert!(distinct.len() > 80, "churn stream too tame for the caps");
        for workers in WIDTHS {
            let mut session = capped(workers, 8);
            case.events.iter().for_each(|e| session.process(e));
            let mut sink: Vec<TaggedResult> = Vec::new();
            session.finish_into(&mut sink);
            assert_eq!(session.key_overflow(), Some(8), "workers={workers}");
            assert!(
                !sink.is_empty(),
                "workers={workers}: admitted keys vanished"
            );
        }
        // The limit counts resident keys, not keys ever seen: 16 live
        // sessions, each resident for at most WITHIN + SLIDE = 18 ticks
        // past its last event, are never 80 at once — so drained as it
        // goes, the stream stays under a limit of 80 on every width while
        // minting more keys than that, and loses nothing.
        let uncapped = Reference::of(&case).expect("COGRA takes the query");
        for workers in WIDTHS {
            let mut session = capped(workers, 80);
            let mut sink: Vec<WindowResult> = Vec::new();
            for e in &case.events {
                session.process(e);
                session.drain_into(&mut sink);
            }
            session.finish_into(&mut sink);
            assert_eq!(session.key_overflow(), None, "workers={workers}");
            WindowResult::sort(&mut sink);
            assert_eq!(sink, uncapped.query(0), "workers={workers}");
        }
    });
}

#[test]
fn fraud_chains_are_found_and_worker_count_invariant() {
    // Near-zero selectivity with long Kleene closures: the planted
    // chains must be detected (no vacuous identity), and the match sets
    // must not depend on how the stream shards.
    watchdog("fraud-detect", || {
        let case = workload(FRAUD, 41, 1_000);
        let (reference, _) = sweep(&case, [Config::workers(4)], |case| chunked(case, 64));
        assert!(reference.results() > 0, "no planted fraud chain detected");
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_adversarial_streams_round_trip_the_pool(
        wl in 0usize..4,
        seed in 0u64..10_000,
        n in 100usize..500,
        width in 0usize..4,
        chunk in 1usize..60,
        batch in 0usize..3,
    ) {
        // Randomized sweep with shrinking enabled: a failure minimizes
        // to the smallest hostile (generator, seed, n) triple.
        let config = Config {
            batch: BATCHES[batch],
            ..Config::workers(WIDTHS[width])
        };
        watchdog("a hostile life", move || {
            let case = workload(HOSTILE[wl], seed, n);
            let reference = Reference::of(&case).expect("COGRA takes the query");
            model::check(&case, &reference, &config, &chunked(&case, chunk)).map(drop)
        })
        .map_err(TestCaseError::fail)?;
    }
}
