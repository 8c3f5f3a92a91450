//! The durability subsystem. As arms of the model (`tests/common/mod.rs`):
//! a run-prefix → `Session::checkpoint` → `SessionBuilder::restore` →
//! run-suffix life observes the reference — results, late-drop counts,
//! run stats — across workloads {stock, rideshare, transport, skew, churn}
//! × snapshot/restore workers {1, 2, 4, 8} × slack {0, 8}, including
//! elastic rescales (snapshot width ≠ restore width), edge splits
//! (checkpoint before the first / after the last event), chained snapshots
//! (restore of a restore), and a server killed without `FINISH` and
//! resumed from its snapshot file at another width.
//!
//! Beside the arms, what is not an equivalence:
//! * error-text pinning: a damaged snapshot produces the *same*
//!   `{path}: {CheckpointError}` text from the CLI (`--restore`) and the
//!   server (`spawn_restored`), for every corruption class;
//! * snapshots are layout-free: the `reorder` section is the same bytes at
//!   every width, and damaged partition entries are refused typed;
//! * the residency pin: on a partition-churning stream the live session
//!   holds exactly what a restore of its snapshot holds — partitions with
//!   an open window, nothing for keys gone quiet — and a revived key
//!   begins a new life on both.
//!
//! Every test body runs under a watchdog so a wedged shard pool or a
//! hung server fails fast instead of stalling CI.

mod common;

use cogra::prelude::*;
use common::model::{
    self, chunked, sweep, Case, Config, Op, Reference, Transport, BATCHES, WIDTHS,
};
use common::workloads::{
    disordered, rows_case, workload, CHURN, COMEBACK, RIDESHARE, SKEW, STOCK_MIXED, TRANSPORT,
};
use common::{jitter, watchdog, Fixture};
use proptest::collection::vec;
use proptest::prelude::*;

/// The workloads the round trips sweep: the friendly ones, and the
/// hostile key shapes (skew; churn, whose restores land amid partitions
/// retiring and ids being reused).
const ROUND_TRIPPED: [usize; 5] = [STOCK_MIXED, RIDESHARE, TRANSPORT, SKEW, CHURN];

/// Workload `wl`, jittered beyond `slack` if there is any, and its
/// reference.
fn prepared(wl: usize, seed: u64, n: usize, slack: u64) -> (Case, Reference) {
    let case = disordered(wl, seed, n, slack);
    let reference = Reference::of(&case).expect("COGRA takes every query");
    (case, reference)
}

/// The round trip: `split` events, drained one by one, at `widths.0`
/// workers; checkpoint; restore at `widths.1` workers; the rest. The
/// batch-size axis is derived from the seed: the prefix session picks one
/// shard-transport batch size, the restored one independently overrides
/// another — the snapshot boundary must be transparent to both.
fn split_case(case: &Case, reference: &Reference, seed: u64, widths: (usize, usize), split: usize) {
    let config = Config {
        batch: BATCHES[(seed % 4) as usize],
        ..Config::workers(widths.0)
    };
    let mut ops = chunked(case, 1);
    ops.truncate(2 * split.min(case.events.len()));
    ops.push(Op::Restore {
        workers: widths.1,
        batch: BATCHES[(seed / 4 % 4) as usize],
    });
    model::hold(case, reference, &config, &ops);
}

#[test]
fn grid_rescale_round_trips() {
    // The first workload runs the full {1,2,4,8}² rescale grid; the others
    // cover the interesting corners (scale-up, scale-down, identity, and
    // the inline↔threaded transitions through width 1).
    let corners: [(usize, usize); 6] = [(1, 4), (4, 1), (2, 8), (8, 2), (1, 1), (8, 8)];
    let mut late_total = 0u64;
    for (i, wl) in ROUND_TRIPPED.into_iter().enumerate() {
        let pairs: Vec<(usize, usize)> = if i == 0 {
            WIDTHS
                .iter()
                .flat_map(|&sw| WIDTHS.iter().map(move |&rw| (sw, rw)))
                .collect()
        } else {
            corners.to_vec()
        };
        for slack in [0u64, 8] {
            let pairs = pairs.clone();
            late_total += watchdog("a grid row", move || {
                let (case, reference) = prepared(wl, 11, 320, slack);
                for widths in pairs {
                    split_case(&case, &reference, 11, widths, 140);
                }
                reference.late
            });
        }
    }
    // The slack axis must have exercised real drops, or the late-drop
    // parity was vacuous.
    assert!(late_total > 0, "the jittered grid cases dropped no events");
}

#[test]
fn edge_splits_round_trip() {
    // split = 0: the snapshot captures a virgin session (with slack, an
    // empty reorder buffer). split = n: the whole stream is inside the
    // snapshot and the restored session only has to finish.
    for slack in [0u64, 8] {
        watchdog("the edge splits", move || {
            let (case, reference) = prepared(RIDESHARE, 5, 200, slack);
            for widths in [(1usize, 4usize), (4, 2)] {
                for split in [0usize, 200] {
                    split_case(&case, &reference, 5, widths, split);
                }
            }
        });
    }
}

#[test]
fn chained_checkpoints_round_trip() {
    // A restore of a restore: the stream crosses several snapshots, each
    // resuming at a different width. Proves restored sessions checkpoint
    // as well as built ones.
    fn chain(wl: usize, widths: &'static [usize], slack: u64) {
        let case = disordered(wl, 13, 360, slack);
        let legs = |case: &Case| {
            let leg = case.events.len() / widths.len();
            let hop = |&workers| {
                [
                    Op::Ingest(leg),
                    Op::Drain,
                    Op::Restore {
                        workers,
                        batch: 512,
                    },
                ]
            };
            widths[1..].iter().flat_map(hop).collect()
        };
        sweep(&case, [Config::workers(widths[0])], legs);
    }
    watchdog("chain-wide", || chain(STOCK_MIXED, &[4, 1, 8, 2], 0));
    watchdog("chain-slack", || chain(TRANSPORT, &[1, 4, 2], 8));
    // Back to back, nothing drained between: a restore resumes every shard
    // at the slowest one's watermark, so a shard snapshotted again before
    // it is sent an event holds windows that start past its own — the
    // clock its state came with is what they are judged by.
    watchdog("chain-idle", || {
        let case = workload(CHURN, 13, 240);
        let hop = |workers| Op::Restore {
            workers,
            batch: 512,
        };
        let ops = |case: &Case| vec![Op::Ingest(case.events.len() / 2), hop(2), hop(4), hop(1)];
        sweep(&case, [Config::workers(2)], ops);
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_splits_round_trip(
        wl in 0usize..5,
        pair_idx in 0usize..16,
        slack_idx in 0usize..2,
        seed in 0u64..10_000,
        n in 120usize..420,
        split_pct in 0usize..101,
    ) {
        let widths = (WIDTHS[pair_idx / 4], WIDTHS[pair_idx % 4]);
        let slack = [0u64, 8][slack_idx];
        watchdog("a random split", move || {
            let (case, reference) = prepared(ROUND_TRIPPED[wl], seed, n, slack);
            split_case(&case, &reference, seed, widths, n * split_pct / 100);
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_slide_that_does_not_divide_within_round_trips(
        rows in vec((0u64..4, 0usize..2, 0i64..3, -4i64..5), 1..80),
        split_pct in 0usize..101,
        pair_idx in 0usize..16,
        drained in any::<bool>(),
    ) {
        // Regression: `WITHIN 8 SLIDE 3` — an event late in its slide opens
        // fewer windows than the slide's first tick would (t = 11 is in
        // windows 2 and 3, t = 9 in 1 to 3), and a restore that expected
        // the latter refused the snapshot. Snapshots taken with no drain
        // ever run are the ones that keep such a ring whole.
        let widths = (WIDTHS[pair_idx / 4], WIDTHS[pair_idx % 4]);
        let case = rows_case(&UNEVEN, &rows, None);
        let reference = Reference::of(&case).expect("COGRA takes every query");
        let split = rows.len() * split_pct / 100;
        let mut ops = vec![Op::Ingest(split)];
        ops.extend(drained.then_some(Op::Drain));
        ops.push(Op::Restore { workers: widths.1, batch: 512 });
        model::check(&case, &reference, &Config::workers(widths.0), &ops)
            .map_err(TestCaseError::fail)?;
    }
}

/// One query per granularity — type, mixed, pattern — whose slide does not
/// divide its window.
const UNEVEN: [&str; 3] = [
    "RETURN g, COUNT(*), SUM(A.v) PATTERN SEQ(A+, B) SEMANTICS ANY \
     GROUP-BY g WITHIN 8 SLIDE 3",
    "RETURN g, COUNT(*), SUM(A.v) PATTERN SEQ(A+, B) SEMANTICS ANY \
     WHERE A.v < NEXT(A).v GROUP-BY g WITHIN 8 SLIDE 3",
    "RETURN g, COUNT(*), AVG(A.v) PATTERN SEQ(A+, B) SEMANTICS NEXT \
     GROUP-BY g WITHIN 8 SLIDE 3",
];

#[test]
fn the_first_event_of_a_key_late_in_its_slide_restores() {
    // The smallest such life: one key whose first event comes at t = 11,
    // snapshotted with windows 2 and 3 open and nothing drained.
    let case = rows_case(&UNEVEN, &[(10, 0, 1, 1), (1, 1, 1, 2)], None);
    assert_eq!(case.events[0].time, Timestamp(11));
    let reference = Reference::of(&case).expect("COGRA takes every query");
    let restore = Op::Restore {
        workers: 1,
        batch: 512,
    };
    model::hold(
        &case,
        &reference,
        &Config::workers(1),
        &[Op::Ingest(1), restore],
    );
}

#[test]
fn server_kill_and_resume_equals_uninterrupted() {
    watchdog("kill-and-resume", || {
        // Server 1 (4 workers, slack 8): ingest the prefix, SNAPSHOT, hard
        // stop — no FINISH, so open windows are *not* force-closed; they
        // live in the file. Server 2: resume from the file at 2 workers,
        // replay the suffix, FINISH for real. The two subscribers' rows
        // concatenate to the reference, the late counter crossed the
        // restart inside the snapshot, and FINISH reports 2 workers.
        let case = workload(STOCK_MIXED, 21, 320).jittered(8, 0x5eed);
        let config = Config {
            transport: Transport::Socket(64),
            ..Config::workers(4)
        };
        let ops = [
            Op::Ingest(case.events.len() / 2),
            Op::Drain,
            Op::Restore {
                workers: 2,
                batch: 512,
            },
        ];
        let reference = Reference::of(&case).expect("COGRA takes the query");
        let run = model::hold(&case, &reference, &config, &ops);
        assert!(run.live > 0, "the split emitted nothing before the kill");
        assert!(reference.late > 0, "the jitter dropped nothing");
    });
}

#[test]
fn corrupt_snapshot_errors_pin_cli_and_server() {
    watchdog("corruption-pinning", || {
        // A real snapshot to damage, from a tiny churn-free session.
        let mut registry = TypeRegistry::new();
        let t = registry.register_type("T", vec![("g", ValueKind::Int), ("v", ValueKind::Int)]);
        let query = "RETURN g, COUNT(*) PATTERN T t+ SEMANTICS skip-till-any-match \
                     GROUP-BY g WITHIN 8 SLIDE 8";
        let mut builder = EventBuilder::new();
        let events: Vec<Event> = (0..24)
            .map(|i| builder.event(i + 1, t, vec![Value::Int(i as i64 / 4), Value::Int(1)]))
            .collect();
        let mut session = Session::builder()
            .query(query)
            .build(&registry)
            .expect("session builds");
        for e in &events {
            session.process(e);
        }
        let mut valid = Vec::new();
        session.checkpoint(&mut valid).expect("checkpoint");

        // The CLI needs a schema and an events file; the restore error
        // fires before either stream row is parsed.
        let stream = write_events(&events, &registry);
        let files = Fixture::new("corrupt", "T,g,int\nT,v,int\n", query, stream.as_bytes());
        type Damage = Box<dyn Fn(&mut Vec<u8>)>;
        let version =
            |v: u32| -> Damage { Box::new(move |b| b[8..12].copy_from_slice(&v.to_le_bytes())) };
        let classes: [(&str, Damage, &str); 5] = [
            (
                "bad-magic",
                Box::new(|b| b[0] ^= 0xff),
                "not a cogra snapshot",
            ),
            ("retired-version", version(1), "older than supported"),
            ("future-version", version(99), "newer than supported"),
            (
                "truncated",
                Box::new(|b| b.truncate(b.len() / 2)),
                "truncated",
            ),
            (
                "checksum",
                Box::new(|b| *b.last_mut().unwrap() ^= 0xff),
                "checksum mismatch",
            ),
        ];
        // Every class: the CLI (`--restore`) and the server
        // (`spawn_restored`) report the *identical* `{path}: {error}` text.
        for (tag, damage, expected) in classes {
            let mut bytes = valid.clone();
            damage(&mut bytes);
            let snap = files.path(tag);
            std::fs::write(&snap, &bytes).expect("write damaged snapshot");

            // Server side: the typed error, displayed exactly as the ERR
            // payload.
            let server_err = match Server::spawn_restored(
                Session::builder(),
                registry.clone(),
                &*snap,
                "127.0.0.1:0",
                ServerConfig::default(),
            ) {
                Err(e) => e.to_string(),
                Ok(_) => panic!("{tag}: server restored a damaged snapshot"),
            };
            assert!(
                server_err.contains(expected) && server_err.starts_with(&snap),
                "{tag}: server error `{server_err}` is not `{snap}: …{expected}…`"
            );

            // CLI side: `error: {path}: {display}` on stderr, nonzero exit.
            let output = files
                .cogra_run(None)
                .args(["--events", &files.path("stream.csv"), "--restore", &snap])
                .output()
                .expect("cogra-run executes");
            assert!(!output.status.success(), "{tag}: CLI exited 0");
            let stderr = String::from_utf8_lossy(&output.stderr);
            let cli_line = stderr.lines().find(|l| l.starts_with("error: "));
            assert_eq!(
                cli_line,
                Some(format!("error: {server_err}").as_str()),
                "{tag}: CLI and server disagree on the error text ({stderr})"
            );
        }
    });
}

/// The payload of section `name` of a snapshot.
fn section(snapshot: &[u8], name: &str) -> Vec<u8> {
    let mut reader = cogra_checkpoint::SnapshotReader::new(snapshot).expect("snapshot header");
    while let Some((found, payload)) = reader.next_section().expect("intact section") {
        if found == name {
            return payload;
        }
    }
    panic!("snapshot has no `{name}` section");
}

/// `snapshot` with section `name`'s payload replaced by `edit`'s, every
/// checksum recomputed — damage that only the section's own decoder can
/// notice.
fn rewrite_section(snapshot: &[u8], name: &str, edit: impl Fn(&[u8]) -> Vec<u8>) -> Vec<u8> {
    let mut reader = cogra_checkpoint::SnapshotReader::new(snapshot).expect("snapshot header");
    let mut out = Vec::new();
    let mut writer = cogra_checkpoint::SnapshotWriter::new(&mut out).expect("header");
    while let Some((found, payload)) = reader.next_section().expect("intact section") {
        let payload = if found == name {
            edit(&payload)
        } else {
            payload
        };
        writer.section(&found, &payload).expect("section");
    }
    writer.finish().expect("trailer");
    out
}

/// The engine section `payload`, written by this build.
fn engine_section(payload: &[u8]) -> cogra::engine::RouterState {
    cogra::engine::RouterState::load(&mut cogra_checkpoint::Dec::new(payload))
        .expect("engine section")
}

/// A churn session's snapshot mid-stream (every partition resident), and
/// the same with `damage` done to the partition entries of its engine
/// section.
fn damaged_entries(damage: impl Fn(&mut Vec<Vec<u8>>)) -> (TypeRegistry, Vec<u8>, Vec<u8>) {
    use cogra_checkpoint::Enc;
    let Case {
        registry,
        roster,
        events,
        ..
    } = workload(CHURN, 5, 120);
    let mut session = Session::builder()
        .query(roster[0].0.as_str())
        .build(&registry)
        .expect("session builds");
    for e in &events {
        session.process(e);
    }
    let mut valid = Vec::new();
    session.checkpoint(&mut valid).expect("checkpoint");
    let damaged = rewrite_section(&valid, "q0", |payload| {
        let mut state = engine_section(payload);
        damage(&mut state.entries);
        let mut enc = Enc::new();
        state.save(&mut enc);
        enc.into_bytes()
    });
    (registry, valid, damaged)
}

/// Every width restores `valid` and refuses `damaged` as corrupt, saying
/// `why` — never a panic, never a restore.
fn assert_refused_as_corrupt(registry: &TypeRegistry, valid: &[u8], damaged: &[u8], why: &str) {
    assert_refused_as_corrupt_at(&[1, 2, 4], registry, valid, damaged, why);
}

/// [`assert_refused_as_corrupt`] at the `widths` given.
fn assert_refused_as_corrupt_at(
    widths: &[usize],
    registry: &TypeRegistry,
    valid: &[u8],
    damaged: &[u8],
    why: &str,
) {
    for &workers in widths {
        assert!(
            Session::builder()
                .workers(workers)
                .restore(registry, valid)
                .is_ok(),
            "battery bug: the undamaged snapshot must restore at {workers}"
        );
        match Session::builder()
            .workers(workers)
            .restore(registry, damaged)
        {
            Err(CheckpointError::Corrupt(said)) => {
                assert!(said.contains(why), "workers={workers}: {said}")
            }
            Err(other) => panic!("workers={workers}: expected Corrupt, got {other:?}"),
            Ok(_) => panic!("workers={workers}: restored a snapshot with {why}"),
        }
    }
}

#[test]
fn partition_key_of_another_arity_is_rejected_typed() {
    watchdog("key-arity", || {
        // Regression: a saved partition key only had to be at least as
        // long as the GROUP-BY prefix, so a key with a value too many
        // restored as a partition no event could ever reach again (and
        // would shift every later key of a flat interner). Churn
        // partitions by `[session]` alone; widen the first live key to
        // two values and every width must refuse the snapshot.
        use cogra_checkpoint::{Dec, Enc};
        let (registry, valid, damaged) = damaged_entries(|entries| {
            let blob = &entries[0];
            let mut entry = Dec::new(blob);
            let mut key = Value::load_vec(&mut entry).expect("leading key");
            assert_eq!(key.len(), 1, "battery bug: churn partitions by session");
            key.push(Value::Int(0));
            let mut enc = Enc::new();
            Value::save_slice(&key, &mut enc);
            let mut rewritten = enc.into_bytes();
            rewritten.extend_from_slice(&blob[blob.len() - entry.remaining()..]);
            entries[0] = rewritten;
        });
        assert_refused_as_corrupt(
            &registry,
            &valid,
            &damaged,
            "where the query partitions by 1",
        );
    });
}

#[test]
fn a_partition_saved_twice_or_without_a_window_is_rejected_typed() {
    watchdog("key-residency", || {
        // One key is one partition, and a partition is resident because
        // it holds a window. A second entry under a key would shadow the
        // first; an entry without windows would sit in the interner with
        // nothing to ever retire it.
        use cogra_checkpoint::{Dec, Enc};
        let (registry, valid, twice) = damaged_entries(|entries| {
            let first = entries[0].clone();
            entries.push(first);
        });
        assert_refused_as_corrupt(&registry, &valid, &twice, "is saved twice");
        let (registry, valid, hollow) = damaged_entries(|entries| {
            let mut entry = Dec::new(&entries[0]);
            let key = Value::load_vec(&mut entry).expect("leading key");
            let mut enc = Enc::new();
            Value::save_slice(&key, &mut enc);
            enc.usize(0);
            entries[0] = enc.into_bytes();
        });
        assert_refused_as_corrupt(&registry, &valid, &hollow, "holds no window");
    });
}

/// `SEQ(Stock A+, Stock B+)` per company over the stock stream, at the
/// granularity `shape` selects — 0: type (ANY), 1: mixed (ANY with a
/// predicate on adjacent events), 2: pattern (NEXT), 3: pattern with the
/// predicate (its last matched event has a stored value) — returning
/// `returns`.
fn stock_query(returns: &str, shape: usize) -> String {
    stock_query_within(returns, shape, "WITHIN 1000 SLIDE 500")
}

/// [`stock_query`] over another `window`.
fn stock_query_within(returns: &str, shape: usize, window: &str) -> String {
    let semantics = ["any", "any", "next", "next"][shape];
    let adjacent = ["", " AND A.price > NEXT(A).price"][shape % 2];
    stock_query_over(returns, semantics, adjacent, window)
}

/// The shapes of [`stock_query`].
const SHAPES: usize = 4;

/// [`stock_query`] under `skip-till-<semantics>-match`, with `adjacent`
/// appended to its `WHERE` clause, over `window`.
fn stock_query_over(returns: &str, semantics: &str, adjacent: &str, window: &str) -> String {
    format!(
        "RETURN company, {returns} PATTERN SEQ(Stock A+, Stock B+) \
         SEMANTICS skip-till-{semantics}-match WHERE [company]{adjacent} GROUP-BY company {window}"
    )
}

/// The `RETURN` lists the layout batteries cross: no slot, `AVG`'s two
/// (a sum and a count), and one slot each of two further kinds.
const RETURNS: [&str; 4] = [
    "COUNT(*)",
    "COUNT(*), AVG(B.price)",
    "COUNT(*), MIN(B.price)",
    "COUNT(*), SUM(B.price)",
];

/// The first 200 stock events of seed 3, and what is left of 260.
fn stock_stream() -> (TypeRegistry, Vec<Event>) {
    let case = workload(STOCK_MIXED, 3, 260);
    (case.registry, case.events)
}

/// A snapshot of `query` over the first 200 stock events, every window
/// still open.
fn stock_snapshot(query: &str, slack: Option<u64>) -> Vec<u8> {
    stock_snapshot_at(EngineKind::Cogra, query, slack, 200)
}

/// A snapshot of `query` on `kind` over the first `n` stock events.
fn stock_snapshot_at(kind: EngineKind, query: &str, slack: Option<u64>, n: usize) -> Vec<u8> {
    let (registry, events) = stock_stream();
    let mut builder = Session::builder().engine(kind).query(query);
    if let Some(slack) = slack {
        builder = builder.slack(slack);
    }
    let mut session = builder.build(&registry).expect("session builds");
    for e in &events[..n] {
        session.process(e);
    }
    let mut snap = Vec::new();
    session.checkpoint(&mut snap).expect("checkpoint");
    snap
}

#[test]
fn a_window_cell_of_another_layout_is_rejected_typed() {
    watchdog("cell-layout", || {
        // Regression: a window's cells only had to be as many as the plan
        // has states. A snapshot with every checksum intact whose `q0`
        // came from the same query less its `AVG` restored, and `finish`
        // indexed a slot the cell did not have; with `MIN` for `SUM` a
        // merge met a slot of another kind. A row is loaded through the
        // layout now, at all three granularities — and so is a baseline's
        // cell: GRETA's nodes and A-Seq's counters took any cells, then
        // panicked at a merge or an output after the restore, or emitted
        // rows. (Both baselines run at width 1 only.)
        let (registry, _) = stock_stream();
        let cogra = (0..SHAPES).map(|shape| (EngineKind::Cogra, shape, &[1, 2, 4][..]));
        let baselines = [EngineKind::Greta, EngineKind::Aseq].map(|kind| (kind, 0, &[1][..]));
        for (kind, shape, widths) in cogra.chain(baselines) {
            let snaps = RETURNS
                .map(|returns| stock_snapshot_at(kind, &stock_query(returns, shape), None, 200));
            for (config, cells, why) in [
                (1, 0, "cell has 0 slots where the layout has 2"),
                (0, 1, "cell has 2 slots where the layout has 0"),
                (3, 2, "slot 0 holds Min"),
                (2, 3, "slot 0 holds Sum"),
            ] {
                let q0 = section(&snaps[cells], "q0");
                let crossed = rewrite_section(&snaps[config], "q0", |_| q0.clone());
                assert_refused_as_corrupt_at(widths, &registry, &snaps[config], &crossed, why);
            }
        }
    });
}

#[test]
fn stored_values_of_another_plan_are_rejected_typed() {
    watchdog("stored-values", || {
        // What a window keeps of a matched event is the plan's stored
        // projection, and a predicate indexes it by slot: a snapshot whose
        // `q0` came from the same query with another predicate on adjacent
        // events — one value of another kind, or one more — must not
        // restore, in the mixed-grained store or as a pattern window's
        // last matched event.
        let (registry, _) = stock_stream();
        for semantics in ["any", "next"] {
            let snaps = [
                " AND A.price > NEXT(A).price",
                " AND A.volume > NEXT(A).volume",
                " AND A.price > NEXT(A).price AND A.volume > NEXT(A).volume",
            ]
            .map(|adjacent| {
                let window = "WITHIN 1000 SLIDE 500";
                let query = stock_query_over("COUNT(*)", semantics, adjacent, window);
                stock_snapshot(&query, None)
            });
            for (config, stored) in [(0, 1), (1, 0), (0, 2), (2, 0)] {
                let q0 = section(&snaps[stored], "q0");
                let crossed = rewrite_section(&snaps[config], "q0", |_| q0.clone());
                let why = "are not what the plan keeps of an event bound to state 0";
                assert_refused_as_corrupt(&registry, &snaps[config], &crossed, why);
            }
        }
    });
}

#[test]
fn a_value_off_its_schemas_kind_is_aggregated_but_not_restored() {
    watchdog("off-kind values", || {
        // The `Event` contract: values of the schema's kinds. An `Int`
        // where the schema says `Float` is read numerically — the rows are
        // those of the same stream with the value as a `Float` — but a
        // mixed-grained window that stores it (its stored projection is
        // `T{v}`) writes a snapshot no restore takes back.
        let mut registry = TypeRegistry::new();
        let t = registry.register_type("T", vec![("g", ValueKind::Int), ("v", ValueKind::Float)]);
        let query = "RETURN g, COUNT(*), SUM(X.v) PATTERN T X+ SEMANTICS skip-till-any-match \
                     WHERE X.v < NEXT(X).v GROUP-BY g WITHIN 20 SLIDE 10";
        let stream = |v: fn(i64) -> Value| {
            let mut builder = EventBuilder::new();
            (0..120u64)
                .map(|i| {
                    let attrs = vec![Value::Int((i % 3) as i64), v((i * 7 % 11) as i64)];
                    builder.event(i / 2 + 1, t, attrs)
                })
                .collect::<Vec<Event>>()
        };
        let (on_kind, off_kind) = (stream(|x| Value::Float(x as f64)), stream(Value::Int));
        let session = || {
            let session = Session::builder().query(query).build(&registry);
            session.expect("session builds")
        };
        let run = |events: &[Event]| {
            let mut rows = session_rows(&mut session(), events);
            rows.sort_by_key(|r| (r.result.window, format!("{:?}", r.result.group)));
            rows
        };
        let rows = run(&on_kind);
        assert!(rows.len() > 10, "battery bug: nothing emitted");
        assert_eq!(run(&off_kind), rows, "aggregated as the same numbers");

        let snapshot = |events: &[Event]| {
            let mut session = session();
            events[..75].iter().for_each(|e| session.process(e));
            let mut snapshot = Vec::new();
            session.checkpoint(&mut snapshot).expect("checkpoint");
            snapshot
        };
        let why = "are not what the plan keeps of an event bound to state 0";
        assert_refused_as_corrupt(&registry, &snapshot(&on_kind), &snapshot(&off_kind), why);
    });
}

#[test]
fn a_ring_no_such_stream_leaves_behind_is_rejected_typed() {
    watchdog("ring-clock", || {
        // Regression: an engine section once recorded neither the window
        // spec nor the time it was written at, so a window id changed with
        // nothing in flight — or a `config` section under another
        // `WITHIN/SLIDE` — restored, and a *later* live event that probed
        // below the ring's back window panicked at width 1
        // (`Partition::window_mut`'s assert) and failed a worker at width
        // 2. Every engine section records both, and `Router::from_state`
        // checks the ring against them.
        use cogra_checkpoint::{Dec, Enc};
        let (registry, valid, future) = damaged_entries(|entries| {
            // The back window of the first partition, moved far ahead.
            let mut entry = Dec::new(&entries[0]);
            let key = Value::load_vec(&mut entry).expect("leading key");
            let n = entry.usize().expect("window count");
            let mut enc = Enc::new();
            Value::save_slice(&key, &mut enc);
            enc.usize(n);
            for i in 0..n {
                let wid = entry.u64().expect("window id");
                enc.u64(if i + 1 == n { wid + 1_000 } else { wid });
                enc.bytes(entry.bytes().expect("window"));
            }
            entries[0] = enc.into_bytes();
        });
        let why = "starts after the engine's clock";
        assert_refused_as_corrupt(&registry, &valid, &future, why);

        // Another session's window spec, either way round.
        let (registry, _) = stock_stream();
        let snaps = ["WITHIN 1000 SLIDE 500", "WITHIN 600 SLIDE 200"]
            .map(|window| stock_snapshot(&stock_query_within("COUNT(*)", 2, window), None));
        for (config, rings) in [(0, 1), (1, 0)] {
            let q0 = section(&snaps[rings], "q0");
            let crossed = rewrite_section(&snaps[config], "q0", |_| q0.clone());
            let why = "engine state was written under WITHIN";
            assert_refused_as_corrupt(&registry, &snaps[config], &crossed, why);
        }

        // An engine ahead of the stream it is fed from: the `reorder`
        // section of the same session, 100 events earlier.
        for slack in [None, Some(4)] {
            let query = stock_query("COUNT(*)", 2);
            let early = section(
                &stock_snapshot_at(EngineKind::Cogra, &query, slack, 100),
                "reorder",
            );
            let valid = stock_snapshot(&query, slack);
            let crossed = rewrite_section(&valid, "reorder", |_| early.clone());
            let why = "past the stream clock";
            assert_refused_as_corrupt(&registry, &valid, &crossed, why);
        }
    });
}

#[test]
fn window_bytes_are_the_ones_cells_wrote() {
    // A window's rows are saved as the cells they stand for, so the
    // partition entries of an engine section are, byte for byte, what the
    // build before the flat tables wrote (and reads): the first checksum
    // below was taken there, over a layout with all of a count, a float
    // sum and a MIN without a value yet. The other two are format 4's: a
    // matched event is its time stamp and the stored projection (the
    // mixed-grained query's `Stock{price}`, nothing for the NEXT one),
    // taken by the build that introduced that layout.
    let pinned = [0x237a_721a_u32, 0x31f1_6e43, 0xb92c_e505];
    for (shape, crc) in pinned.into_iter().enumerate() {
        let query = stock_query("COUNT(*), AVG(B.price), MIN(A.price)", shape);
        let q0 = section(&stock_snapshot(&query, None), "q0");
        let state = engine_section(&q0);
        assert_eq!(
            cogra_checkpoint::crc32(&state.entries.concat()),
            crc,
            "the saved windows of granularity {shape} moved"
        );
    }
}

/// Every valid snapshot the never-panic arm damages: the four shapes ×
/// four `RETURN` lists × without and with slack, and each shape once more
/// under another window spec — all of one stream prefix.
fn snapshot_pool() -> &'static Vec<Vec<u8>> {
    static POOL: std::sync::OnceLock<Vec<Vec<u8>>> = std::sync::OnceLock::new();
    POOL.get_or_init(|| {
        let mut pool = Vec::new();
        for shape in 0..SHAPES {
            for returns in RETURNS {
                for slack in [None, Some(4)] {
                    pool.push(stock_snapshot(&stock_query(returns, shape), slack));
                }
            }
            let query = stock_query_within(RETURNS[1], shape, "WITHIN 600 SLIDE 200");
            pool.push(stock_snapshot(&query, None));
        }
        assert_eq!(pool.len(), POOL_SIZE);
        pool
    })
}

const POOL_SIZE: usize = SHAPES * (RETURNS.len() * 2 + 1);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn a_damaged_snapshot_is_a_typed_error_or_a_session_that_finishes(
        (victim, donor) in (0usize..POOL_SIZE, 0usize..POOL_SIZE),
        damage in 0usize..3,
        part in 0usize..3,
        at in any::<u64>(),
        bits in 1usize..256,
        workers in 1usize..3,
    ) {
        // Never-panic for the snapshot decoder, as
        // `crates/query/tests/never_panic_props.rs` is for the query front
        // end: truncation, a byte changed inside a section with the
        // checksum recomputed, a section taken from another valid
        // snapshot. Whatever comes back is a typed error or a session
        // that takes the rest of the stream and finishes.
        let pool = snapshot_pool();
        let name = ["config", "reorder", "q0"][part];
        let valid = &pool[victim];
        let damaged = match damage {
            0 => valid[..at as usize % valid.len()].to_vec(),
            // The `config` section holds the query text: a changed byte
            // there is another query, not a damaged snapshot.
            1 => rewrite_section(valid, ["reorder", "q0"][part % 2], |payload| {
                let mut payload = payload.to_vec();
                let at = at as usize % payload.len();
                payload[at] ^= bits as u8;
                payload
            }),
            _ => {
                let other = section(&pool[donor], name);
                rewrite_section(valid, name, |_| other.clone())
            }
        };
        watchdog("a damaged snapshot", move || {
            let (registry, events) = stock_stream();
            let restored = Session::builder().workers(workers).restore(&registry, damaged.as_slice());
            let Ok(mut session) = restored else {
                return;
            };
            let mut sink: Vec<TaggedResult> = Vec::new();
            // Whatever restores has clocks that agree — the engines' with
            // their rings and with the stream's — so it takes the events
            // still to come.
            for e in &events[200..] {
                session.process(e);
            }
            session.finish_into(&mut sink);
            assert!(session.worker_failure().is_none(), "{:?}", session.worker_failure());
        });
    }
}

#[test]
fn reorder_section_has_one_shape_at_every_width() {
    watchdog("reorder-shape", || {
        // The same jittered prefix under `.slack(8)`: whatever the worker
        // count, the admission gate and the in-flight events are the same
        // stream state, so the snapshot's `reorder` section must be the
        // same bytes — there is no per-width style to migrate between.
        let case = workload(STOCK_MIXED, 17, 200);
        let (registry, query) = (&case.registry, case.roster[0].0.as_str());
        let events = jitter(case.events.clone(), 12, 0xa11);
        let mut sections: Vec<Vec<u8>> = Vec::new();
        for workers in [1usize, 2, 4] {
            let mut session = Session::builder()
                .query(query)
                .workers(workers)
                .slack(8)
                .build(registry)
                .expect("session builds");
            let mut sink: Vec<TaggedResult> = Vec::new();
            for e in &events[..150] {
                session.process(e);
            }
            // Catch every shard up to the gate's safe watermark; a lagging
            // worker's buffer would otherwise still hold released events.
            session.drain_into(&mut sink);
            let mut snap = Vec::new();
            session.checkpoint(&mut snap).expect("checkpoint");
            sections.push(section(&snap, "reorder"));
        }
        assert!(
            sections[0].len() > 64,
            "battery bug: the prefix left nothing in flight ({} bytes)",
            sections[0].len()
        );
        assert_eq!(sections[0], sections[1], "width 1 vs 2");
        assert_eq!(sections[0], sections[2], "width 1 vs 4");
    });
}

#[test]
fn a_mostly_unread_schema_round_trips_from_two_workers() {
    watchdog("unread kinds", || {
        // One attribute of every kind, and the queries read two of them
        // (`g`, `v`): between two workers only those travel, so the events
        // a `.workers(2).slack(8)` snapshot holds in flight — and the ones
        // the mixed-grained windows stored — are blank elsewhere. Blank,
        // not missing: every width takes them back as events of the
        // registered type, and finishes with the reference's rows.
        let mut registry = TypeRegistry::new();
        let tick = registry.register_type(
            "Tick",
            vec![
                ("note", ValueKind::Str),
                ("g", ValueKind::Int),
                ("ok", ValueKind::Bool),
                ("v", ValueKind::Float),
                ("w", ValueKind::Int),
                ("tag", ValueKind::Str),
            ],
        );
        let mut builder = EventBuilder::new();
        let events: Vec<Event> = (0..240u64)
            .map(|i| {
                let v = ((i * 37) % 23) as f64 / 4.0;
                let attrs = vec![
                    Value::str(format!("note {i}")),
                    Value::Int((i % 5) as i64),
                    Value::Bool(i % 2 == 0),
                    Value::Float(v),
                    Value::Int(i as i64),
                    Value::str("tag"),
                ];
                builder.event(i / 2 + 1, tick, attrs)
            })
            .collect();
        let queries = [
            "RETURN g, COUNT(*), SUM(T.v) PATTERN Tick T+ SEMANTICS ANY \
             WHERE T.v < NEXT(T).v GROUP-BY g WITHIN 12 SLIDE 6",
            "RETURN g, COUNT(*), MAX(T.v) PATTERN Tick T+ SEMANTICS NEXT \
             GROUP-BY g WITHIN 12 SLIDE 6",
        ];
        let case = Case {
            name: "mostly unread".to_string(),
            registry,
            roster: queries.map(|q| (q.to_string(), EngineKind::Cogra)).to_vec(),
            events,
            slack: None,
            same: Vec::new(),
        }
        .jittered(8, 0xb1a);
        let reference = Reference::of(&case).expect("COGRA takes both queries");
        assert!(reference.results() > 20, "the battery emits");

        // The snapshot under test holds events in flight, blank where
        // nothing reads them.
        let split = 150;
        let mut session = Session::builder().workers(2).slack(8);
        for query in queries {
            session = session.query(query);
        }
        let mut session = session.build(&case.registry).expect("session builds");
        case.events[..split].iter().for_each(|e| session.process(e));
        let mut snapshot = Vec::new();
        session.checkpoint(&mut snapshot).expect("checkpoint");
        let in_flight = section(&snapshot, "reorder");
        assert!(in_flight.len() > 256, "nothing in flight");
        let holds = |text: &str| in_flight.windows(text.len()).any(|w| w == text.as_bytes());
        assert!(!holds("note") && !holds("tag"), "unread strings travelled");

        for workers in [1, 2, 4] {
            let restore = Op::Restore {
                workers,
                batch: BATCHES[workers % 4],
            };
            let ops = [Op::Ingest(split), restore];
            model::hold(&case, &reference, &Config::workers(2), &ops);
        }
    });
}

#[test]
fn in_flight_events_of_one_time_stamp_come_back_in_arrival_order() {
    // Regression: the `reorder` section listed in-flight events by
    // `(time, id, query)`. Comeback runs under NEXT, where the order of
    // two events of one partition inside a time stamp decides the result,
    // and jittered its ids no longer grow with arrival — so a restore
    // taken while two such events were buffered resumed to other rows.
    // The section stamps every buffered event with its arrival.
    for seed in 0..4u64 {
        watchdog("arrival order", move || {
            let (case, reference) = prepared(COMEBACK, seed, 240, 8);
            for split in (5..240).step_by(7) {
                split_case(&case, &reference, seed, (1, 2), split);
                split_case(&case, &reference, seed, (2, 1), split);
            }
        });
    }
}

/// `valid` with `damage` done to its `reorder` section's pending times
/// and in-flight `(stamp, event)`s, everything else as it was.
fn damaged_reorder(
    valid: &[u8],
    damage: impl Fn(&mut Vec<u64>, &mut Vec<(u64, Event)>),
) -> Vec<u8> {
    use cogra_checkpoint::{Dec, Enc};
    rewrite_section(valid, "reorder", |payload| {
        let (mut dec, mut enc) = (Dec::new(payload), Enc::new());
        // The slack flag; slack, watermark, safe watermark, late drops.
        enc.bool(dec.bool().unwrap());
        (0..4).for_each(|_| enc.u64(dec.u64().unwrap()));
        let mut pending: Vec<u64> = (0..dec.usize().unwrap())
            .map(|_| dec.u64().unwrap())
            .collect();
        let arrivals = dec.u64().unwrap();
        let mut in_flight: Vec<(u64, Event)> = (0..dec.usize().unwrap())
            .map(|_| (dec.u64().unwrap(), Event::load(&mut dec).unwrap()))
            .collect();
        damage(&mut pending, &mut in_flight);
        enc.usize(pending.len());
        pending.iter().for_each(|&t| enc.u64(t));
        enc.u64(arrivals);
        enc.usize(in_flight.len());
        for (stamp, event) in &in_flight {
            enc.u64(*stamp);
            event.save(&mut enc);
        }
        enc.into_bytes()
    })
}

#[test]
fn an_in_flight_event_stamped_twice_is_rejected_typed() {
    // Regression: only the range of a stamp was checked, and a worker
    // stores an event several of its queries want as one row, keyed by the
    // stamp — so two in-flight events of one stamp restored at width 2 as
    // the first event twice and the others not at all.
    watchdog("in-flight stamps", || {
        let (registry, _) = old_format_life();
        let valid = old_life_checkpoint();
        // Every in-flight event stamped as the first one.
        let damaged = damaged_reorder(&valid, |_, in_flight| {
            assert!(in_flight.len() > 1, "battery bug: less than two in flight");
            let first = in_flight[0].0;
            in_flight.iter_mut().for_each(|(stamp, _)| *stamp = first);
        });
        let why = "two in-flight events stamped";
        assert_refused_as_corrupt_at(&[1, 2], &registry, &valid, &damaged, why);
    });
}

#[test]
fn an_in_flight_event_off_the_pending_times_is_rejected_typed() {
    // An in-flight event is one of the reorder buffer's entries: its time
    // is among the pending times, and a restore that finds it elsewhere
    // holds a snapshot no buffer wrote.
    watchdog("in-flight times", || {
        let (registry, _) = old_format_life();
        let valid = old_life_checkpoint();
        let damaged = damaged_reorder(&valid, |pending, in_flight| {
            assert!(!in_flight.is_empty(), "battery bug: nothing in flight");
            pending.clear();
        });
        let why = "is not among the pending times";
        assert_refused_as_corrupt_at(&[1, 2], &registry, &valid, &damaged, why);
    });
}

#[test]
fn an_in_flight_event_off_its_schemas_kind_is_rejected_typed() {
    // Regression: an in-flight event's type and arity were checked, not
    // its values' kinds, so a `Str` in an `Int` key slot restored and
    // was aggregated — while a stored window value of the wrong kind was
    // already refused (`a_value_off_its_schemas_kind_is_aggregated_but_not_restored`).
    watchdog("in-flight kinds", || {
        let (registry, _) = old_format_life();
        let valid = old_life_checkpoint();
        let damaged = damaged_reorder(&valid, |_, in_flight| {
            let (_, event) = in_flight
                .first_mut()
                .expect("battery bug: nothing in flight");
            let key = (event.attrs.iter()).position(|v| matches!(v, Value::Int(_)));
            event.attrs[key.expect("every type of the life has an `Int` key")] = Value::str("g");
        });
        let why = "holds a value off its type's schema";
        assert_refused_as_corrupt_at(&[1, 2], &registry, &valid, &damaged, why);
    });
}

/// The life behind `tests/fixtures/`: `OLD_QUERIES` — mixed-grained with
/// a Kleene self-loop predicate; NEXT with predicates on adjacent events,
/// one of them on a `Str`, at two states of one type; CONT with one;
/// type-grained; a transition with a negation and a predicate at once,
/// under ANY and under NEXT — under `.slack(8)` over 240 events (every
/// 11th a `Halt`) that arrive up to 5 ticks out of order (every 53rd
/// hopelessly late), ids growing with arrival.
///
/// `format5.snap` is the `.workers(2)` session's checkpoint after
/// `OLD_SPLIT` events and a drain ([`old_life_checkpoint`]), taken by the
/// first build to write format 5; `parent_rows.txt` holds the rows of the
/// uninterrupted run, as the build of commit da5b066 printed them. A build
/// reads only the format it writes: a format bump regenerates
/// `format5.snap` with [`old_life_checkpoint`] (under the new format's
/// name) rather than keeping a reader for the old one.
fn old_format_life() -> (TypeRegistry, Vec<Event>) {
    let mut registry = TypeRegistry::new();
    let tick = registry.register_type(
        "Tick",
        vec![
            ("sym", ValueKind::Str),
            ("g", ValueKind::Int),
            ("v", ValueKind::Float),
            ("w", ValueKind::Int),
        ],
    );
    let halt = registry.register_type("Halt", vec![("g", ValueKind::Int)]);
    let mut builder = EventBuilder::new();
    let events = (0..240u64)
        .map(|i| {
            let on_time = i / 2 + 1 + [3, 0, 5, 1, 0, 4, 2][(i % 7) as usize];
            let time = if i % 53 == 52 {
                on_time.saturating_sub(20).max(1)
            } else {
                on_time
            };
            if i % 11 == 10 {
                return builder.event(time, halt, vec![Value::Int((i % 3) as i64)]);
            }
            let attrs = vec![
                Value::str(["aa", "ab", "b", "c"][(i * 3 % 4) as usize]),
                Value::Int((i % 3) as i64),
                Value::Float(((i * 37) % 23) as f64 / 4.0),
                Value::Int((i * 11 % 17) as i64),
            ];
            builder.event(time, tick, attrs)
        })
        .collect();
    (registry, events)
}

const OLD_QUERIES: [&str; 6] = [
    "RETURN g, COUNT(*), SUM(T.v) PATTERN Tick T+ SEMANTICS skip-till-any-match \
     WHERE T.v < NEXT(T).v GROUP-BY g WITHIN 12 SLIDE 6",
    "RETURN g, COUNT(*), MAX(B.v) PATTERN SEQ(Tick A+, Tick B+) SEMANTICS skip-till-next-match \
     WHERE A.sym <= NEXT(A).sym AND B.w < NEXT(B).w GROUP-BY g WITHIN 12 SLIDE 6",
    "RETURN g, COUNT(*), AVG(T.v) PATTERN Tick T+ SEMANTICS contiguous \
     WHERE T.w <= NEXT(T).w GROUP-BY g WITHIN 12 SLIDE 6",
    "RETURN g, COUNT(*), MIN(T.v) PATTERN Tick T+ SEMANTICS skip-till-any-match \
     GROUP-BY g WITHIN 12 SLIDE 6",
    "RETURN g, COUNT(*), MAX(A.v) PATTERN SEQ(Tick A+, NOT Halt H, Tick B) \
     SEMANTICS skip-till-any-match WHERE A.v < B.v GROUP-BY g WITHIN 12 SLIDE 6",
    "RETURN g, COUNT(*), MAX(A.v) PATTERN SEQ(Tick A+, NOT Halt H, Tick B) \
     SEMANTICS skip-till-next-match WHERE A.v < B.v GROUP-BY g WITHIN 12 SLIDE 6",
];
const OLD_SPLIT: usize = 150;

/// A file under `tests/fixtures/`.
fn fixture(file: &str) -> Vec<u8> {
    let path = format!("{}/tests/fixtures/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn format_5_snapshots_still_restore() {
    // An older build's snapshot of the format this build writes restores
    // at every width and finishes with that build's rows — which are this
    // build's too, bit for bit.
    watchdog("format5.snap", || {
        let rendered = |mut rows: Vec<TaggedResult>| {
            rows.sort_by_key(|r| (r.query, r.result.window, format!("{:?}", r.result.group)));
            rows.iter().map(|r| format!("{r:?}\n")).collect::<String>()
        };
        let parent_rows = String::from_utf8(fixture("parent_rows.txt")).expect("text");
        let (registry, events) = old_format_life();
        let build = || {
            let roster = OLD_QUERIES.into_iter();
            let builder = roster.fold(Session::builder().slack(8), |b, query| b.query(query));
            builder.build(&registry).expect("session builds")
        };
        let mut session = build();
        let mut whole = session_rows(&mut session, &events);
        session.finish_into(&mut whole);
        assert_eq!(rendered(whole), parent_rows, "uninterrupted");
        assert!(session.late_events() > 0, "battery bug: nothing came late");

        // What the old session had emitted before its snapshot.
        let drained = session_rows(&mut build(), &events[..OLD_SPLIT]);
        assert!(!drained.is_empty(), "battery bug: nothing drained");

        let old = fixture("format5.snap");
        assert_eq!(old[8..12], 5u32.to_le_bytes());
        for workers in [1usize, 2, 4] {
            let mut resumed = Session::builder()
                .workers(workers)
                .restore(&registry, old.as_slice())
                .unwrap_or_else(|e| panic!("a format-5 snapshot restores: {e}"));
            let mut rows = drained.clone();
            rows.extend(session_rows(&mut resumed, &events[OLD_SPLIT..]));
            resumed.finish_into(&mut rows);
            assert_eq!(rendered(rows), parent_rows, "workers={workers}");
            assert_eq!(resumed.late_events(), session.late_events());
        }
    });
    // That build's checkpoint is written again to the byte — but for the
    // one byte *count* a snapshot records, an engine's largest window
    // footprint at finalization, which follows the accounting: it is
    // compared apart, and may only have shrunk.
    watchdog("format 5 rewritten", || {
        let (ours, our_spikes) = spikes_apart(&old_life_checkpoint());
        let (theirs, their_spikes) = spikes_apart(&fixture("format5.snap"));
        assert!(ours == theirs, "this build's checkpoint of the life moved");
        assert_eq!(our_spikes.len(), OLD_QUERIES.len());
        for (q, (ours, theirs)) in our_spikes.iter().zip(&their_spikes).enumerate() {
            assert!(
                ours <= theirs,
                "q{q}: finalization footprint {theirs} → {ours}"
            );
        }
    });
}

/// This build's checkpoint of [`old_format_life`], taken the way
/// `format5.snap` was: a `.workers(2)` session after `OLD_SPLIT` events
/// and a drain.
fn old_life_checkpoint() -> Vec<u8> {
    let (registry, events) = old_format_life();
    let roster = OLD_QUERIES.into_iter();
    let builder = roster.fold(Session::builder().workers(2).slack(8), |b, q| b.query(q));
    let mut session = builder.build(&registry).expect("session builds");
    session_rows(&mut session, &events[..OLD_SPLIT]);
    let mut snapshot = Vec::new();
    session.checkpoint(&mut snapshot).expect("checkpoint");
    snapshot
}

/// `events` through `session`, then a drain: the rows.
fn session_rows(session: &mut Session, events: &[Event]) -> Vec<TaggedResult> {
    let mut rows = Vec::new();
    for e in events {
        session.process(e);
    }
    session.drain_into(&mut rows);
    rows
}

/// `snapshot` with every engine section's `finalize_spike` zeroed, and the
/// figures that were there, in section order.
fn spikes_apart(snapshot: &[u8]) -> (Vec<u8>, Vec<usize>) {
    let mut reader = cogra_checkpoint::SnapshotReader::new(snapshot).expect("snapshot header");
    let (mut out, mut spikes) = (Vec::new(), Vec::new());
    let mut writer = cogra_checkpoint::SnapshotWriter::new(&mut out).expect("header");
    while let Some((name, mut payload)) = reader.next_section().expect("intact section") {
        if name
            .strip_prefix('q')
            .is_some_and(|i| i.parse::<usize>().is_ok())
        {
            let mut state = engine_section(&payload);
            spikes.push(std::mem::take(&mut state.finalize_spike));
            let mut enc = cogra_checkpoint::Enc::new();
            state.save(&mut enc);
            payload = enc.into_bytes();
        }
        writer.section(&name, &payload).expect("section");
    }
    writer.finish().expect("trailer");
    (out, spikes)
}

#[test]
fn a_snapshot_of_a_deeply_nested_query_is_a_typed_error() {
    // A restore parses the query text the snapshot stores: one nested
    // 30,000 levels deep is refused by the parser, not a stack overflow.
    use cogra_checkpoint::{Dec, Enc};
    let case = workload(STOCK_MIXED, 3, 40);
    let (registry, query) = (&case.registry, case.roster[0].0.as_str());
    let mut session = Session::builder().query(query).build(registry).unwrap();
    case.events.iter().for_each(|e| session.process(e));
    let mut snapshot = Vec::new();
    session.checkpoint(&mut snapshot).expect("checkpoint");
    let depth = 30_000;
    let deep = format!(
        "RETURN company, COUNT(*) PATTERN {}Stock S+{} GROUP-BY company WITHIN 40 SLIDE 20",
        "(".repeat(depth),
        ")".repeat(depth)
    );
    let damaged = rewrite_section(&snapshot, "config", |payload| {
        // One query: its count and text, then the rest verbatim.
        let mut dec = Dec::new(payload);
        assert_eq!(dec.usize().unwrap(), 1);
        let text = dec.str().unwrap();
        let mut stored = Enc::new();
        stored.usize(1);
        stored.str(&text);
        let mut enc = Enc::new();
        enc.usize(1);
        enc.str(&deep);
        let mut out = enc.into_bytes();
        out.extend_from_slice(&payload[stored.into_bytes().len()..]);
        out
    });
    for workers in [1, 2] {
        let restored = Session::builder()
            .workers(workers)
            .restore(registry, damaged.as_slice());
        match restored {
            Err(CheckpointError::Corrupt(message)) => {
                assert!(message.contains("query 0 failed to parse"), "{message}");
                assert!(message.contains("nested more than"), "{message}");
            }
            Err(other) => panic!("another error: {other}"),
            Ok(_) => panic!("a 30,000-deep query restored"),
        }
    }
}

#[test]
fn version_1_snapshots_are_rejected_typed() {
    // A build reads only the format it writes: a file of any older format
    // must fail on its header with the version error, not somewhere inside
    // a section as `Corrupt` — and so must one of a newer format.
    use cogra_checkpoint::FORMAT_VERSION;
    let case = workload(STOCK_MIXED, 3, 1);
    let registry = case.registry;
    let mut snap = Vec::new();
    Session::builder()
        .query(case.roster[0].0.as_str())
        .slack(8)
        .build(&registry)
        .expect("session builds")
        .checkpoint(&mut snap)
        .expect("checkpoint");
    assert_eq!(snap[8..12], FORMAT_VERSION.to_le_bytes());
    assert_eq!(FORMAT_VERSION, 5);
    let restore = |version: u32| {
        let mut snap = snap.clone();
        snap[8..12].copy_from_slice(&version.to_le_bytes());
        Session::builder().restore(&registry, snap.as_slice())
    };
    assert!(
        restore(FORMAT_VERSION).is_ok(),
        "only the header was edited"
    );
    for version in 1..FORMAT_VERSION {
        match restore(version) {
            Err(CheckpointError::RetiredVersion { found, supported }) => {
                assert_eq!((found, supported), (version, 5));
            }
            other => panic!("version {version}: expected RetiredVersion, got {other:?}"),
        }
    }
    match restore(FORMAT_VERSION + 1) {
        Err(CheckpointError::FutureVersion { found, supported }) => {
            assert_eq!((found, supported), (FORMAT_VERSION + 1, 5));
        }
        other => panic!("expected FutureVersion, got {other:?}"),
    }
}

#[test]
fn a_churned_session_holds_what_its_snapshot_restores() {
    watchdog("churn-residency", || {
        // 100 group keys, each alive for 4 ticks under WITHIN 8 SLIDE 8:
        // by the end of the stream almost every partition's windows have
        // closed and drained. Once only a snapshot rewrite shed those
        // keys; now the drain that closes a partition's last window does,
        // so a restore has nothing left to compact.
        let mut registry = TypeRegistry::new();
        let t = registry.register_type("T", vec![("g", ValueKind::Int), ("v", ValueKind::Int)]);
        let query = "RETURN g, COUNT(*) PATTERN T t+ SEMANTICS skip-till-any-match \
                     GROUP-BY g WITHIN 8 SLIDE 8";
        let mut builder = EventBuilder::new();
        let events: Vec<Event> = (0..400u64)
            .map(|i| builder.event(i + 1, t, vec![Value::Int(i as i64 / 4), Value::Int(1)]))
            .collect();

        let mut session = Session::builder()
            .query(query)
            .build(&registry)
            .expect("session builds");
        let empty = session.memory_bytes();
        let mut drained: Vec<TaggedResult> = Vec::new();
        let mut peak = 0;
        for e in &events {
            session.process(e);
            session.drain_into(&mut drained);
            peak = peak.max(session.memory_bytes());
        }
        let before = session.memory_bytes();
        assert!(before > empty, "a window is open at the end of the stream");
        // At most three keys hold a window at once (two in the window
        // that just filled, one in the next): the hundredth key costs
        // what the third did.
        let per_key = before - empty;
        assert!(
            peak <= empty + 3 * per_key,
            "state grew with the stream: peak {peak} over an empty {empty}, {per_key} a key"
        );

        let mut snap = Vec::new();
        session.checkpoint(&mut snap).expect("checkpoint");
        let mut restored = Session::builder()
            .restore(&registry, snap.as_slice())
            .expect("restore");
        assert_eq!(
            restored.memory_bytes(),
            before,
            "a restore holds something other than the resident partitions"
        );

        // "Resident == holds a window" on both: reviving the long-gone
        // key g=0 begins a new life on the original and on the restored
        // session alike.
        let allocs_orig = session.run_stats().key_allocs;
        let allocs_restored = restored.run_stats().key_allocs;
        // An odd key's fourth event opens the next window, its first
        // having just ended: a second life.
        assert_eq!(allocs_orig, 150, "one life per key and window it touched");
        assert_eq!(
            allocs_orig, allocs_restored,
            "restore changed the checkpointed alloc counter"
        );
        let revival = builder.event(401, t, vec![Value::Int(0), Value::Int(1)]);
        session.process(&revival);
        restored.process(&revival);
        assert_eq!(session.run_stats().key_allocs, allocs_orig + 1);
        assert_eq!(restored.run_stats().key_allocs, allocs_restored + 1);
        assert_eq!(session.memory_bytes(), restored.memory_bytes());

        // And both sessions finish with identical remaining results.
        let mut tail_orig: Vec<TaggedResult> = session.finish();
        let mut tail_restored: Vec<TaggedResult> = restored.finish();
        let key = |t: &TaggedResult| (t.query, t.result.to_string());
        tail_orig.sort_by_key(key);
        tail_restored.sort_by_key(key);
        assert_eq!(
            tail_orig.len(),
            tail_restored.len(),
            "restored tail emits a different result count"
        );
        for (a, b) in tail_orig.iter().zip(&tail_restored) {
            assert_eq!(a.query, b.query);
            assert_eq!(a.result, b.result);
        }
        assert!(
            !tail_orig.is_empty(),
            "battery bug: the churn tail emitted nothing"
        );
    });
}
