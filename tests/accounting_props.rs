//! The state accounting is maintained, not recomputed: every
//! `memory_bytes()` behind [`TrendEngine::memory_bytes`] is a running
//! counter bumped where state is inserted and closed. This battery holds
//! the counters to their definition.
//!
//! * **counter ≡ walk, as a property** (debug builds, where
//!   `audit_bytes()` — the walked reference — exists): generated op
//!   sequences of ingest chunk / drain / checkpoint → restore at another
//!   width, over churn, stock and fraud streams, for all six
//!   [`EngineKind`]s, with a `key_limit` low enough that the stream
//!   overflows it mid-sequence. After every op the counter equals the
//!   walk. (Inside the engines the same equality is a `debug_assert` at
//!   every window close, snapshot and restore, so worker-thread engines
//!   are covered too: a divergence there surfaces as a worker failure.)
//! * **the figures did not move**: peak and finalization-spike bytes on a
//!   fixed seed equal the values the walking formulas produced before the
//!   counters existed (less what later layouts saved per key, and what
//!   keys without a window used to hold) — two-step engines'
//!   constructed-trend spike included.
//! * **refused keys leave no trace**: once `key_limit` is hit, a stream's
//!   further distinct keys do not grow the session — and the limit counts
//!   *resident* keys: a stream that keeps fewer than that many alive
//!   between drains never hits it, however many it mints.
//! * **state follows the resident keys, unobservably** (an arm of the
//!   model, `tests/common/mod.rs`): a partition leaves with its last
//!   window and its id and key slot serve the next first-seen key, so
//!   which slot a key sits in depends on when drains ran. Results (float
//!   sums to the bit) and [`RunStats`] do not: drain-per-event, an
//!   arbitrary sequence of chunks, drains and checkpoint → restore at
//!   widths 1/2/4/8, and the finish-only reference agree, on churn and on
//!   a stream whose keys go quiet for longer than `WITHIN` and come back,
//!   under a query that feeds each group from several partitions.
//! * **recycled ≡ fresh**: pooled windows and rings are capacity, never
//!   state. A router that opens every window of a stream out of its pool
//!   — it closed the same stream's windows just before — emits the
//!   results and reports the bytes of a router that has seen nothing,
//!   for all six [`EngineKind`]s and all three COGRA granularities
//!   (negation shadows and clocks, stored events, contiguous
//!   invalidation of the last matched event included).

mod common;

use cogra::engine::EngineConfig;
use cogra::prelude::*;
use common::workloads::{self, CHURN, COMEBACK, MATRIX};

/// The arms of the workload table this battery accounts for: churn, stock
/// at all three granularities, fraud, comeback.
const WORKLOADS: usize = 6;

/// Workload `idx` of the table under its namesake query.
fn workload(idx: usize, seed: u64, n: usize) -> (TypeRegistry, String, Vec<Event>) {
    let case = workloads::workload(idx, seed, n).only(0);
    (case.registry, case.roster[0].0.clone(), case.events)
}

fn builder(query: &str, kind: EngineKind, key_limit: Option<u32>) -> SessionBuilder {
    Session::builder()
        .query(query)
        .engine(kind)
        .config(EngineConfig {
            // Bounds Flink's flattened workload like the paper's set-up.
            flatten_cap: Some(6),
            key_limit,
        })
}

#[test]
fn refused_keys_do_not_grow_a_session() {
    // Regression (session level) for the interner's bucket leak: churn
    // mints a fresh session id every few events, nothing is drained so
    // every admitted key stays resident, `key_limit` refuses all but the
    // first 16. What the session holds — with every window still open,
    // and again once they have all closed — must be the same whether 2K
    // or 20K events (≈2.5K refused keys) went by.
    let footprint = |n: usize| {
        let (registry, query, events) = workload(0, 7, n);
        let mut session = builder(&query, EngineKind::Cogra, Some(16))
            .build(&registry)
            .expect("session builds");
        let mut sink: Vec<TaggedResult> = Vec::new();
        for e in &events {
            session.process(e);
        }
        assert_eq!(session.key_overflow(), Some(16));
        let open = session.memory_bytes();
        session.finish_into(&mut sink);
        (open, session.memory_bytes())
    };
    assert_eq!(footprint(2_000), footprint(20_000));
}

#[test]
fn the_key_limit_counts_resident_keys() {
    // Churn keeps 16 sessions going at a time and a key stays resident
    // for at most WITHIN + SLIDE = 18 ticks (= events) after its last
    // event: drained as it goes, the stream holds fewer than 24 keys at
    // any moment while minting thousands, and a limit of 24 never fires
    // — the results are the unlimited run's. Fed without a drain, every
    // key it mints stays resident and the same limit does fire: which
    // keys a limit refuses follows the drain cadence, by design.
    let (registry, query, events) = workload(0, 7, 20_000);
    let drained = |key_limit: Option<u32>| {
        let mut session = builder(&query, EngineKind::Cogra, key_limit)
            .build(&registry)
            .expect("session builds");
        let mut sink: Vec<TaggedResult> = Vec::new();
        for e in &events {
            session.process(e);
            session.drain_into(&mut sink);
        }
        session.finish_into(&mut sink);
        (sink, session.run_stats(), session.key_overflow())
    };
    let (results, stats, overflow) = drained(Some(24));
    assert_eq!(overflow, None);
    assert!(stats.key_allocs > 2_000, "the stream churns: {stats:?}");
    assert_eq!((results, stats, None), drained(None));

    let mut undrained = builder(&query, EngineKind::Cogra, Some(24))
        .build(&registry)
        .expect("session builds");
    for e in &events {
        undrained.process(e);
    }
    assert_eq!(undrained.key_overflow(), Some(24));
}

/// Peak bytes of `Session::run` and the engine's finalization spike, per
/// workload (churn, stock type-grained, fraud) × engine kind, seed 7 —
/// recorded with the walking formulas at the commit before the counters
/// replaced them, and re-derived twice since. When the interner went
/// flat a key stopped paying a 24 B `Vec` header and its hash a 32 B
/// table entry instead of 16 B. When state began to follow the resident
/// keys, the router lost its group interner, `partition_group` and the
/// partitions' `queued` flag — 112 B inline, and per resident key its
/// `GROUP-BY` values + 20 B of table, 4 B and 8 B — and everything it
/// held for keys whose windows had all closed: most of a churn row, a
/// third of a fraud row, and a tenth of a stock row (19 companies, of
/// which a few are between windows at any time). No spike moved. When the
/// COGRA windows became one flat table each, a window stopped paying, per
/// state, a 40 B `Cell` (count, live byte, the header of its vector of
/// tagged slot values) plus 16 B per slot for 8 B of count and 8 B per slot; per staged update
/// 44 B for 16 B; and inline, the three vector headers of the cell, shadow
/// and staging tables (72 B) for one 24 B table handle — 136 B of 304 B on
/// the stock row's two-state windows, and the spike (a closed window after
/// its commit) 80 B of 184 B. Only the COGRA rows moved: it is now the
/// smallest of the six on all three workloads. When snapshots began to
/// record the clock their rings were built under, every router gained the
/// 8 B of the clock it was restored with — every row but the one that is a
/// spike moved by exactly that, and by nothing else: all three workloads
/// are type-grained under COGRA, and a type-grained window keeps no event
/// (what the pattern- and mixed-grained ones keep of one is pinned in
/// `crates/core/tests/aggregator_units.rs`). When a COGRA window became
/// one slab — its table, the open transaction's time stamp and its staged
/// updates — held inline in its ring slot, it stopped paying an 80 B
/// struct (the table's handle, the staging vectors' headers, the time
/// stamp) for one 8 B word of time stamp: 168 B → 96 B a stock window with
/// its slot and two staged updates, and the spike (a committed window)
/// 104 B → 32 B; only the COGRA rows moved, all down. The Flink rows are
/// dominated by the sequences it materializes inside `final_cell`: its
/// stock peak *is* the spike. When every engine came to aggregate on
/// words, a baseline's `Cell` became an owned row — count, live byte and
/// the header of its boxed slot words — and went from `40 + 16·k` B to
/// `32 + 8·k` B for `k` slots. Only GRETA (its nodes and final accumulator)
/// and A-Seq (its counters and staged cells) keep cells between events, so
/// only their rows moved, all down; SASE, Flink and the oracle build cells
/// inside `final_cell` alone, and no COGRA row moved. When a router stopped
/// carrying its engine's name — the window algorithm states it — every
/// router lost a 16 B `&str`: every peak moved by exactly −16 B but
/// Flink's stock row, whose peak is its spike, and no spike moved.
#[cfg(target_pointer_width = "64")]
const PINNED: [(usize, EngineKind, usize, usize); 18] = [
    (0, EngineKind::Cogra, 2028, 24),
    (0, EngineKind::Sase, 4980, 752),
    (0, EngineKind::Greta, 4572, 568),
    (0, EngineKind::Aseq, 2940, 152),
    (0, EngineKind::Flink, 4236, 1048),
    (0, EngineKind::Oracle, 3516, 408),
    (1, EngineKind::Cogra, 4340, 32),
    (1, EngineKind::Sase, 26348, 3788),
    (1, EngineKind::Greta, 22760, 2968),
    (1, EngineKind::Aseq, 9492, 408),
    (1, EngineKind::Flink, 19368, 19368),
    (1, EngineKind::Oracle, 14100, 1368),
    (4, EngineKind::Cogra, 5048, 32),
    (4, EngineKind::Sase, 11864, 2160),
    (4, EngineKind::Greta, 10848, 1464),
    (4, EngineKind::Aseq, 8288, 408),
    (4, EngineKind::Flink, 10064, 4192),
    (4, EngineKind::Oracle, 8288, 1080),
];

/// `(SessionRun::peak_bytes, TrendEngine::peak_hint)` of one pinned case.
#[cfg(target_pointer_width = "64")]
fn measure(wl: usize, kind: EngineKind) -> (usize, usize) {
    let (registry, query, events) = workload(wl, 7, 600);
    let peak = builder(&query, kind, None)
        .build(&registry)
        .expect("pinned cases are supported")
        .run(&events)
        .peak_bytes;
    let mut session = builder(&query, kind, None)
        .build(&registry)
        .expect("pinned cases are supported");
    let mut sink: Vec<TaggedResult> = Vec::new();
    for e in &events {
        session.process(e);
    }
    session.finish_into(&mut sink);
    let spike = session.engine(0).expect("inline engine").peak_hint();
    (peak, spike)
}

#[test]
#[cfg(target_pointer_width = "64")]
fn reported_bytes_equal_the_walked_figures_they_replaced() {
    for (wl, kind, peak, spike) in PINNED {
        assert_eq!(
            measure(wl, kind),
            (peak, spike),
            "wl={wl} {kind}: (peak_bytes, peak_hint) moved"
        );
    }
}

/// Prints the table above; run at a commit to (re)record it:
/// `cargo test --test accounting_props print_pins -- --ignored --nocapture`.
#[test]
#[ignore = "recording aid, not a check"]
#[cfg(target_pointer_width = "64")]
fn print_pins() {
    for (wl, kind, _, _) in PINNED {
        let (peak, spike) = measure(wl, kind);
        println!("    ({wl}, EngineKind::{kind:?}, {peak}, {spike}),");
    }
}

mod recycling {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// `A`, `B`, `C` over `(g, v)`, and `Tick`: without the partition
    /// attribute `g` the router drops it — after moving its watermark.
    fn registry() -> TypeRegistry {
        let mut r = workloads::abc_registry();
        r.register_type("Tick", vec![]);
        r
    }

    /// `rows` as events after `start`: `(time step, type, g, v)`.
    fn events(reg: &TypeRegistry, rows: &[(u64, usize, i64, i64)], start: u64) -> Vec<Event> {
        let ids = ["A", "B", "C"].map(|t| reg.id_of(t).expect("registered"));
        let mut builder = EventBuilder::new();
        let mut t = start;
        rows.iter()
            .map(|&(dt, ty, g, v)| {
                t += dt;
                builder.event(t, ids[ty], vec![Value::Int(g), Value::Int(v)])
            })
            .collect()
    }

    /// The session's bytes — counter against walk.
    fn audited(session: &Session) -> usize {
        assert_eq!(
            session.memory_bytes(),
            session.engine(0).expect("inline engine").audit_bytes()
        );
        session.memory_bytes()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn a_router_that_recycled_every_window_equals_a_fresh_one(
            rows in vec((0u64..3, 0usize..3, 0i64..4, -4i64..5), 1..80),
            case in 0usize..MATRIX.len() * EngineKind::ALL.len(),
            chunk in 1usize..12,
        ) {
            let kind = EngineKind::ALL[case % EngineKind::ALL.len()];
            let (query, granularity) = MATRIX[case / EngineKind::ALL.len()];
            let reg = registry();
            let build = || builder(query, kind, None).build(&reg);
            let Ok(mut fresh) = build() else {
                // Outside the kind's Table 9 row.
                return Ok(());
            };
            prop_assert_eq!(fresh.plan(0).expect("one query").granularity(), granularity);
            let mut recycled = build().expect("built once already");

            // First pass, `recycled` only: the stream with drains (so the
            // pools are in use already), then a tick past every window's
            // end — everything closes into the pools.
            let mut first_pass: Vec<TaggedResult> = Vec::new();
            for c in events(&reg, &rows, 0).chunks(chunk) {
                for e in c {
                    recycled.process(e);
                }
                recycled.drain_into(&mut first_pass);
                audited(&recycled);
            }
            let span: u64 = rows.iter().map(|r| r.0).sum();
            let tick = Event::new(0, span + 20, reg.id_of("Tick").expect("registered"), vec![]);
            recycled.process(&tick);
            recycled.drain_into(&mut first_pass);
            fresh.process(&tick);

            // Second pass, both: the same rows again — the same keys in the
            // same first-seen order, and as many windows open at once as
            // the pools now hold, so `recycled` builds none.
            let (mut from_pool, mut from_scratch): (Vec<TaggedResult>, Vec<TaggedResult>) =
                Default::default();
            for c in events(&reg, &rows, span + 20).chunks(chunk) {
                for e in c {
                    recycled.process(e);
                    fresh.process(e);
                }
                recycled.drain_into(&mut from_pool);
                fresh.drain_into(&mut from_scratch);
                audited(&recycled);
                audited(&fresh);
            }
            // Every key seen, the same windows open: the same bytes.
            prop_assert_eq!(audited(&recycled), audited(&fresh), "{} {}", kind, query);
            recycled.finish_into(&mut from_pool);
            fresh.finish_into(&mut from_scratch);
            prop_assert_eq!(audited(&recycled), audited(&fresh), "{} {}", kind, query);
            prop_assert_eq!(from_pool, from_scratch, "{} {}", kind, query);
        }
    }
}

/// Checkpoint `session` and bring it back on `workers` shards.
fn restore(
    session: &mut Session,
    registry: &TypeRegistry,
    workers: usize,
) -> Result<Session, proptest::prelude::TestCaseError> {
    use proptest::prelude::TestCaseError;
    let mut snap = Vec::new();
    session
        .checkpoint(&mut snap)
        .map_err(|e| TestCaseError::fail(format!("checkpoint: {e}")))?;
    Session::builder()
        .workers(workers)
        .restore(registry, snap.as_slice())
        .map_err(|e| TestCaseError::fail(format!("restore at {workers}: {e}")))
}

mod cadence {
    use super::*;
    use common::model::{self, chunked, Reference};
    use proptest::collection::vec;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn results_and_stats_ignore_cadence_width_and_restore(
            // Churn, or the stream whose keys go quiet and come back.
            comes_back in any::<bool>(),
            kind_idx in 0usize..6,
            seed in 0u64..1000,
            // 0–2 ingest a chunk, 3 drain, 4 checkpoint → restore at
            // another width (only COGRA shards; the others restore in place).
            raw in vec((0usize..5, 0usize..48), 1..40),
        ) {
            let case = workloads::workload(if comes_back { COMEBACK } else { CHURN }, seed, 300)
                .on(EngineKind::ALL[kind_idx]);
            let Some(reference) = Reference::of(&case) else {
                // Outside the kind's Table 9 row.
                return Ok(());
            };
            for ops in [chunked(&case, 1), model::ops(&case, &raw)] {
                let run = model::check(&case, &reference, &model::Config::default(), &ops)
                    .map_err(TestCaseError::fail)?;
                let stats = run.observation.stats;
                prop_assert!(stats.key_allocs > 12, "keys come and go: {:?}", stats);
            }
        }
    }
}

mod audit {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Counter vs. walk over every engine the session can reach. At width
    /// 1 the engines are inline and audited directly; worker threads own
    /// theirs and, in a debug build, audit themselves at every
    /// close/snapshot/restore, where a failed audit is a worker failure.
    fn audit(session: &Session, label: &str) -> Result<(), TestCaseError> {
        prop_assert!(
            session.worker_failure().is_none(),
            "{}: {:?}",
            label,
            session.worker_failure()
        );
        if session.workers() > 1 {
            return Ok(());
        }
        let engine = session.engine(0).expect("inline engine");
        prop_assert_eq!(engine.memory_bytes(), engine.audit_bytes(), "{}", label);
        prop_assert_eq!(session.memory_bytes(), engine.audit_bytes(), "{}", label);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn counters_equal_the_walk_after_every_op(
            wl in 0usize..WORKLOADS,
            kind_idx in 0usize..6,
            seed in 0u64..1000,
            // 0 = no limit; otherwise low enough that the stream overflows.
            limit in 0u32..12,
            // (op, argument): 0–2 ingest a chunk, 3 drain, 4 checkpoint →
            // restore at another width.
            ops in vec((0usize..5, 0usize..48), 1..40),
        ) {
            let kind = EngineKind::ALL[kind_idx];
            let (registry, query, events) = workload(wl, seed, 400);
            let key_limit = (limit > 0).then_some(limit + 2);
            let Ok(mut session) = builder(&query, kind, key_limit).build(&registry) else {
                // Outside the kind's Table 9 row — nothing to account for.
                return Ok(());
            };
            audit(&session, "fresh")?;
            let mut sink: Vec<TaggedResult> = Vec::new();
            let mut fed = 0;
            for (i, &(op, arg)) in ops.iter().enumerate() {
                let label = format!(
                    "{kind} wl={wl} seed={seed} limit={key_limit:?} op#{i}=({op},{arg})"
                );
                match op {
                    0..=2 => {
                        let end = (fed + arg + 1).min(events.len());
                        for e in &events[fed..end] {
                            session.process(e);
                        }
                        fed = end;
                    }
                    3 => session.drain_into(&mut sink),
                    _ => {
                        // Only COGRA shards; the others restore in place.
                        let workers = match kind {
                            EngineKind::Cogra => [1, 2, 4, 1][arg % 4],
                            _ => 1,
                        };
                        session = restore(&mut session, &registry, workers)?;
                    }
                }
                audit(&session, &label)?;
            }
            // Back to one inline shard, whatever the sequence ended on, so
            // the final states are audited directly: live, then finished.
            session.drain_into(&mut sink);
            session = restore(&mut session, &registry, 1)?;
            audit(&session, "restored inline")?;
            for e in &events[fed..] {
                session.process(e);
            }
            audit(&session, "tail ingested")?;
            session.finish_into(&mut sink);
            audit(&session, "finished")?;
            // The guard, if it tripped, is the configured one.
            prop_assert!(session.key_overflow().is_none_or(|l| Some(l) == key_limit));
        }
    }
}
