//! Differential battery over the **adversarial** workload generators
//! (`cogra::workloads::{skew, churn, burst, fraud}`, ROADMAP direction
//! 5): for every hostile stream shape a `.workers(n)` session must
//! stay byte-identical to a one-worker one, the per-shard
//! ingest counters must account for every event, and the guard rails the
//! hostile shapes exist to trip — key-limit overflow, late-drop policy —
//! must fire *identically* on every worker count.
//!
//! Complements the hooks the adversarial generators have in the other
//! batteries: `checkpoint_props` (skew/churn rescale round-trips),
//! `routing_intern_props` (churn vs. the reference router) and
//! `streaming_parallel_props` (burst slack × workers late-drop
//! invariance under shrinking).

use cogra::prelude::*;
use cogra::workloads::{burst, churn, fraud, skew};
use cogra::workloads::{BurstConfig, ChurnConfig, FraudConfig, SkewConfig};
use proptest::prelude::*;
use std::sync::mpsc;
use std::time::Duration;

/// Per-test timeout: generous for debug builds, far below CI's patience.
const WATCHDOG_SECS: u64 = 120;

/// Run `f` on its own thread; panic if it does not finish in time.
fn watchdog<T: Send + 'static>(name: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(WATCHDOG_SECS)) {
        Ok(value) => {
            let _ = worker.join();
            value
        }
        Err(_) => panic!("{name}: hung for {WATCHDOG_SECS}s (shard pool deadlock?)"),
    }
}

/// One adversarial workload: registry, query, stream, and the slack its
/// disorder needs (0 for the time-ordered generators).
fn workload(idx: usize, seed: u64, n: usize) -> (TypeRegistry, String, Vec<Event>, u64) {
    match idx {
        0 => (
            skew::registry(),
            skew::count_query(50, 25),
            skew::generate(&SkewConfig {
                events: n,
                seed,
                ..SkewConfig::default()
            }),
            0,
        ),
        1 => (
            churn::registry(),
            churn::count_query(40, 20),
            churn::generate(&ChurnConfig {
                events: n,
                seed,
                ..ChurnConfig::default()
            }),
            0,
        ),
        2 => {
            let cfg = BurstConfig {
                events: n,
                seed,
                ..BurstConfig::default()
            };
            (
                burst::registry(),
                burst::count_query(16, 8),
                burst::generate(&cfg),
                cfg.disorder,
            )
        }
        _ => (
            fraud::registry(),
            fraud::detect_query(60, 30),
            fraud::generate(&FraudConfig {
                events: n,
                seed,
                // High enough that a few-hundred-event stream still
                // plants complete chains.
                fraud_rate: 0.02,
                ..FraudConfig::default()
            }),
            0,
        ),
    }
}

/// The differential core: sequential reference vs. a `.workers(n)`
/// session fed chunk by chunk with live drains. Returns the reference
/// result count for battery-wide liveness checks.
fn diff_case(wl: usize, seed: u64, n: usize, workers: usize, chunk: usize, batch: usize) -> usize {
    let (registry, query, events, slack) = workload(wl, seed, n);
    let label = format!("wl={wl} seed={seed} n={n} workers={workers} chunk={chunk} batch={batch}");

    let mut reference_builder = Session::builder().query(query.as_str());
    if slack > 0 {
        reference_builder = reference_builder.slack(slack);
    }
    let reference = reference_builder
        .build(&registry)
        .expect("reference session builds")
        .run(&events);

    let mut builder = Session::builder()
        .query(query.as_str())
        .workers(workers)
        .batch_size(batch);
    if slack > 0 {
        builder = builder.slack(slack);
    }
    let mut session = builder.build(&registry).expect("session builds");
    let mut out: Vec<WindowResult> = Vec::new();
    for c in events.chunks(chunk.max(1)) {
        for e in c {
            session.process(e);
        }
        session.drain_into(&mut out);
    }
    session.finish_into(&mut out);
    let late = session.late_events();
    let shard_events = session.shard_events();
    WindowResult::sort(&mut out);

    assert_eq!(vec![out], reference.per_query, "results differ ({label})");
    assert_eq!(late, reference.late_events, "late drops differ ({label})");
    // Per-shard ingest accounting: one slot per shard worker, summing to
    // the routed (non-late-dropped) event count.
    let routed = events.len() as u64 - late;
    assert_eq!(
        shard_events.iter().sum::<u64>(),
        routed,
        "shard counters lose events ({label}): {shard_events:?}"
    );
    reference.per_query[0].len()
}

#[test]
fn adversarial_streams_are_worker_count_invariant() {
    // The deterministic sweep CI runs under `timeout`: every generator ×
    // worker counts {1, 2, 4, 8} × a degenerate and a default transport
    // batch. Liveness: each generator must actually produce results, or
    // the identity assertions above were vacuous.
    for wl in 0..4 {
        let mut results = 0usize;
        for workers in [1usize, 2, 4, 8] {
            for batch in [7usize, 256] {
                let label = format!("adversarial wl={wl} workers={workers} batch={batch}");
                results += watchdog(&label.clone(), move || {
                    diff_case(wl, 29, 600, workers, 37, batch)
                });
            }
        }
        assert!(results > 0, "workload {wl} emitted nothing anywhere");
    }
}

#[test]
fn skewed_keys_surface_as_shard_imbalance() {
    // The point of the skew generator: a hot key is a hot shard. With a
    // sharp power law the rank-1 user draws a large constant share of
    // the stream onto one shard, and the per-shard counters make that
    // visible — the spread is the observability contract this PR adds.
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
    // must (a) report the same sticky overflow and (b) stay
    // byte-identical on the *prefix* semantics: events whose first-seen
    // key exceeds a shard's limit are dropped, everything already
    // admitted keeps aggregating.
    watchdog("churn-overflow", || {
        let registry = churn::registry();
        let query = churn::count_query(40, 20);
        let events = churn::generate(&ChurnConfig {
            events: 800,
            seed: 3,
            ..ChurnConfig::default()
        });
        let distinct: std::collections::HashSet<&Value> =
            events.iter().map(|e| &e.attrs[0]).collect();
        let limit = 8u32;
        assert!(
            distinct.len() > 8 * limit as usize,
            "churn stream too tame for the cap: {} keys",
            distinct.len()
        );
        for workers in [1usize, 2, 4, 8] {
            let mut session = Session::builder()
                .query(query.as_str())
                .workers(workers)
                .config(EngineConfig {
                    key_limit: Some(limit),
                    ..EngineConfig::default()
                })
                .build(&registry)
                .expect("session builds");
            for e in &events {
                session.process(e);
            }
            let mut sink: Vec<TaggedResult> = Vec::new();
            session.finish_into(&mut sink);
            assert_eq!(
                session.key_overflow(),
                Some(limit),
                "workers={workers}: overflow not reported"
            );
            assert!(
                !sink.is_empty(),
                "workers={workers}: admitted keys vanished"
            );
        }
        // The limit counts resident keys, not keys ever seen: 16 live
        // sessions, each resident for at most WITHIN + SLIDE = 60 ticks
        // past its last event, are never 80 at once — so drained as it
        // goes, the stream stays under a limit of 80 on every width while
        // minting more keys than that, and loses nothing.
        assert!(distinct.len() > 80);
        let uncapped = Session::builder()
            .query(query.as_str())
            .build(&registry)
            .expect("session builds")
            .run(&events);
        for workers in [1usize, 2, 4, 8] {
            let mut session = Session::builder()
                .query(query.as_str())
                .workers(workers)
                .config(EngineConfig {
                    key_limit: Some(80),
                    ..EngineConfig::default()
                })
                .build(&registry)
                .expect("session builds");
            let mut sink: Vec<TaggedResult> = Vec::new();
            for e in &events {
                session.process(e);
                session.drain_into(&mut sink);
            }
            session.finish_into(&mut sink);
            assert_eq!(session.key_overflow(), None, "workers={workers}");
            let mut results: Vec<WindowResult> = sink.into_iter().map(|t| t.result).collect();
            WindowResult::sort(&mut results);
            assert_eq!(vec![results], uncapped.per_query, "workers={workers}");
        }
    });
}

#[test]
fn fraud_chains_are_found_and_worker_count_invariant() {
    // Near-zero selectivity with long Kleene closures: the planted
    // chains must be detected (no vacuous identity), and the match sets
    // must not depend on how the stream shards.
    watchdog("fraud-detect", || {
        let found = diff_case(3, 41, 1_000, 4, 64, 256);
        assert!(found > 0, "no planted fraud chain detected");
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_adversarial_streams_round_trip_the_pool(
        wl in 0usize..4,
        seed in 0u64..10_000,
        n in 100usize..500,
        workers_idx in 0usize..4,
        chunk in 1usize..60,
        batch_idx in 0usize..3,
    ) {
        // Randomized sweep with shrinking enabled: a failure minimizes
        // to the smallest hostile (generator, seed, n) triple.
        let workers = [1usize, 2, 4, 8][workers_idx];
        let batch = [1usize, 7, 256][batch_idx];
        let label = format!("prop wl={wl} seed={seed} n={n} workers={workers}");
        watchdog(&label.clone(), move || {
            diff_case(wl, seed, n, workers, chunk, batch);
        });
    }
}
