//! Differential battery for the durability subsystem: a run-prefix →
//! `Session::checkpoint` → `SessionBuilder::restore` → run-suffix
//! pipeline must be **byte-identical** — results, late-drop counts, run
//! stats — to the same stream run uninterrupted, across workloads
//! {stock, rideshare, transport, skew, churn} × snapshot/restore workers {1, 2, 4, 8}
//! × slack {0, 8}, including elastic rescales (snapshot width ≠ restore
//! width), edge splits (checkpoint before the first / after the last
//! event) and chained snapshots (restore of a restore).
//!
//! On top of the in-process battery:
//! * a server kill-and-resume e2e: ingest a prefix through
//!   `cogra-server`, `SNAPSHOT`, hard-stop the server *without* `FINISH`,
//!   resume a second server from the file at a different width, replay
//!   the suffix — the two subscribers' pushed rows concatenate to the
//!   uninterrupted run;
//! * error-text pinning: a damaged snapshot produces the *same*
//!   `{path}: {CheckpointError}` text from the CLI (`--restore`) and the
//!   server (`spawn_restored`), for every corruption class;
//! * the residency pin: on a partition-churning stream the live session
//!   holds exactly what a restore of its snapshot holds — partitions with
//!   an open window, nothing for keys gone quiet — and a revived key
//!   begins a new life on both.
//!
//! Every test body runs under a watchdog so a wedged shard pool or a
//! hung server fails fast instead of stalling CI.

use cogra::prelude::*;
use cogra::workloads::{churn, rideshare, skew, stock, transport};
use cogra::workloads::{ChurnConfig, RideshareConfig, SkewConfig, StockConfig, TransportConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
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
        Err(_) => panic!("{name}: hung for {WATCHDOG_SECS}s (shard pool / server deadlock?)"),
    }
}

/// One battery workload: registry, query, and a generated stream.
fn workload(idx: usize, seed: u64, n: usize) -> (TypeRegistry, String, Vec<Event>) {
    match idx {
        0 => (
            stock::registry(),
            stock::q3_query(50, 25),
            stock::generate(&StockConfig {
                events: n,
                seed,
                ..StockConfig::default()
            }),
        ),
        1 => (
            rideshare::registry(),
            rideshare::q2_query(80, 40),
            rideshare::generate(&RideshareConfig {
                events: n,
                seed,
                ..RideshareConfig::default()
            }),
        ),
        2 => (
            transport::registry(),
            transport::next_query(40, 20),
            transport::generate(&TransportConfig {
                events: n,
                seed,
                ..TransportConfig::default()
            }),
        ),
        // Adversarial workloads: the hostile key shapes must round-trip
        // a checkpoint/rescale as cleanly as the friendly ones.
        3 => (
            skew::registry(),
            skew::count_query(50, 25),
            skew::generate(&SkewConfig {
                events: n,
                seed,
                ..SkewConfig::default()
            }),
        ),
        // Churn floods the interner with short-lived session ids, so a
        // rescale restore lands amid partitions retiring and ids reused.
        _ => (
            churn::registry(),
            churn::count_query(40, 20),
            churn::generate(&ChurnConfig {
                events: n,
                seed,
                ..ChurnConfig::default()
            }),
        ),
    }
}

/// Disorder the arrival order with bounded displacement (same idiom as
/// `tests/server_e2e_props.rs`): offsets beyond the session's slack make
/// some events hopelessly late, so the battery checks late-drop
/// accounting across the checkpoint too.
fn jitter(events: Vec<Event>, extent: u64, seed: u64) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keyed: Vec<(u64, usize, Event)> = events
        .into_iter()
        .enumerate()
        .map(|(i, e)| (e.time.ticks() + rng.random_range(0..=extent), i, e))
        .collect();
    keyed.sort_by_key(|&(key, position, _)| (key, position));
    keyed.into_iter().map(|(_, _, e)| e).collect()
}

fn builder_for(query: &str, workers: usize, slack: u64) -> SessionBuilder {
    let mut builder = Session::builder().query(query).workers(workers);
    if slack > 0 {
        builder = builder.slack(slack);
    }
    builder
}

/// A collision-free scratch path under the OS temp dir.
fn temp_path(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("cogra-ckpt-{}-{tag}.snap", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

/// The differential core: feed `events[..split]` at `snap_workers`,
/// checkpoint, restore the snapshot at `restore_workers`, feed the rest,
/// finish — and compare everything observable against the uninterrupted
/// run. The batch-size axis is derived from the seed: the prefix session
/// (and its reference) picks one shard-transport batch size, the
/// restored session independently overrides another — the snapshot
/// boundary must be transparent to both. Returns
/// `(snapshot_bytes, late_drops)` for battery-wide liveness checks.
fn split_case(
    wl: usize,
    seed: u64,
    n: usize,
    snap_workers: usize,
    restore_workers: usize,
    slack: u64,
    split: usize,
) -> (usize, u64) {
    const BATCHES: [usize; 4] = [1, 7, 256, 512];
    let snap_batch = BATCHES[(seed % 4) as usize];
    let restore_batch = BATCHES[(seed / 4 % 4) as usize];
    let (registry, query, events) = workload(wl, seed, n);
    let events = if slack > 0 {
        jitter(events, slack + 4, seed ^ 0x9e37)
    } else {
        events
    };
    let split = split.min(events.len());
    let label = format!(
        "wl={wl} seed={seed} split={split}/{n} {snap_workers}→{restore_workers} workers \
         slack={slack} batch {snap_batch}→{restore_batch}"
    );

    let reference = builder_for(&query, snap_workers, slack)
        .batch_size(snap_batch)
        .build(&registry)
        .expect("reference session builds")
        .run(&events);

    let mut session = builder_for(&query, snap_workers, slack)
        .batch_size(snap_batch)
        .build(&registry)
        .expect("prefix session builds");
    let mut collected: Vec<TaggedResult> = Vec::new();
    for e in &events[..split] {
        session.process(e);
        session.drain_into(&mut collected);
    }
    let mut snap = Vec::new();
    session.checkpoint(&mut snap).expect("checkpoint");
    drop(session);

    let mut restored = Session::builder()
        .workers(restore_workers)
        .batch_size(restore_batch)
        .restore(&registry, snap.as_slice())
        .unwrap_or_else(|e| panic!("restore failed ({label}): {e}"));
    for e in &events[split..] {
        restored.process(e);
        restored.drain_into(&mut collected);
    }
    restored.finish_into(&mut collected);
    let stats = restored.run_stats();
    let late = restored.late_events();

    let mut per_query: Vec<Vec<WindowResult>> = vec![Vec::new(); reference.per_query.len()];
    for t in collected {
        per_query[t.query].push(t.result);
    }
    for results in &mut per_query {
        WindowResult::sort(results);
    }

    assert_eq!(per_query, reference.per_query, "results differ ({label})");
    assert_eq!(late, reference.late_events, "late drops differ ({label})");
    // Routed (event, engine) pairs are identical on both paths, and a
    // key's lives are a fact about the stream: a restore holds exactly
    // the partitions the checkpointed session did, so neither moves.
    assert_eq!(stats, reference.stats, "run stats differ ({label})");
    (snap.len(), late)
}

#[test]
fn grid_rescale_round_trips() {
    // Workload 0 runs the full {1,2,4,8}² rescale grid; the others cover
    // the interesting corners (scale-up, scale-down, identity, and the
    // inline↔threaded transitions through width 1).
    const FULL: [usize; 4] = [1, 2, 4, 8];
    let corners: [(usize, usize); 6] = [(1, 4), (4, 1), (2, 8), (8, 2), (1, 1), (8, 8)];
    let mut late_total = 0u64;
    for wl in 0..5 {
        let pairs: Vec<(usize, usize)> = if wl == 0 {
            FULL.iter()
                .flat_map(|&sw| FULL.iter().map(move |&rw| (sw, rw)))
                .collect()
        } else {
            corners.to_vec()
        };
        for slack in [0u64, 8] {
            for &(sw, rw) in &pairs {
                let label = format!("grid wl={wl} {sw}→{rw} slack={slack}");
                late_total += watchdog(&label.clone(), move || {
                    split_case(wl, 11, 320, sw, rw, slack, 140).1
                });
            }
        }
    }
    // The slack axis must have exercised real drops, or the late-drop
    // parity assertions above were vacuous.
    assert!(late_total > 0, "the jittered grid cases dropped no events");
}

#[test]
fn edge_splits_round_trip() {
    // split = 0: the snapshot captures a virgin session (with slack, an
    // empty reorder buffer). split = n: the whole stream is inside the
    // snapshot and the restored session only has to finish.
    for (sw, rw) in [(1usize, 4usize), (4, 2)] {
        for slack in [0u64, 8] {
            for split in [0usize, 200] {
                let label = format!("edge {sw}→{rw} slack={slack} split={split}");
                watchdog(&label.clone(), move || {
                    split_case(1, 5, 200, sw, rw, slack, split);
                });
            }
        }
    }
}

#[test]
fn chained_checkpoints_round_trip() {
    // A restore of a restore: the stream crosses several snapshots, each
    // resuming at a different width. Proves restored sessions checkpoint
    // as well as built ones.
    fn chain(wl: usize, widths: &[usize], slack: u64) {
        let n = 360;
        let (registry, query, events) = workload(wl, 13, n);
        let events = if slack > 0 {
            jitter(events, slack + 4, 0x51ac)
        } else {
            events
        };
        let reference = builder_for(&query, widths[0], slack)
            .build(&registry)
            .expect("reference builds")
            .run(&events);

        let mut collected: Vec<TaggedResult> = Vec::new();
        let mut session = builder_for(&query, widths[0], slack)
            .build(&registry)
            .expect("first session builds");
        let cut = events.len() / widths.len();
        for (leg, width) in widths.iter().enumerate().skip(1) {
            for e in &events[(leg - 1) * cut..leg * cut] {
                session.process(e);
                session.drain_into(&mut collected);
            }
            let mut snap = Vec::new();
            session.checkpoint(&mut snap).expect("checkpoint");
            session = Session::builder()
                .workers(*width)
                .restore(&registry, snap.as_slice())
                .unwrap_or_else(|e| panic!("leg {leg} restore: {e}"));
        }
        for e in &events[(widths.len() - 1) * cut..] {
            session.process(e);
            session.drain_into(&mut collected);
        }
        session.finish_into(&mut collected);

        let mut per_query: Vec<Vec<WindowResult>> = vec![Vec::new(); reference.per_query.len()];
        for t in collected {
            per_query[t.query].push(t.result);
        }
        for results in &mut per_query {
            WindowResult::sort(results);
        }
        let label = format!("chain wl={wl} widths={widths:?} slack={slack}");
        assert_eq!(per_query, reference.per_query, "results differ ({label})");
        assert_eq!(
            session.late_events(),
            reference.late_events,
            "late drops differ ({label})"
        );
    }
    watchdog("chain-wide", || chain(0, &[4, 1, 8, 2], 0));
    watchdog("chain-slack", || chain(2, &[1, 4, 2], 8));
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
        let sw = [1, 2, 4, 8][pair_idx / 4];
        let rw = [1, 2, 4, 8][pair_idx % 4];
        let slack = [0u64, 8][slack_idx];
        let split = n * split_pct / 100;
        let label = format!("prop wl={wl} {sw}→{rw} slack={slack} seed={seed} split={split}");
        watchdog(&label.clone(), move || {
            split_case(wl, seed, n, sw, rw, slack, split);
        });
    }
}

/// Collect pushed rows until `EOS` *or* the connection drops — the
/// kill-and-resume test hard-stops the first server mid-stream, so its
/// subscriber ends on a reset, not an `EOS`.
fn collect_rows(subscription: Subscription) -> Vec<String> {
    let mut rows = Vec::new();
    for item in subscription {
        match item {
            Ok((q, row)) => rows.push(format!("q{q} {row}")),
            Err(_) => break,
        }
    }
    rows
}

#[test]
fn server_kill_and_resume_equals_uninterrupted() {
    watchdog("kill-and-resume", || {
        let slack = 8u64;
        let (registry, query, events) = workload(0, 21, 320);
        let events = jitter(events, slack + 4, 0x5eed);
        let reference = builder_for(&query, 4, slack)
            .build(&registry)
            .expect("reference builds")
            .run(&events);
        let mut expected: Vec<String> = reference
            .per_query
            .iter()
            .enumerate()
            .flat_map(|(q, results)| results.iter().map(move |r| format!("q{q} {r}")))
            .collect();
        expected.sort();

        let split = events.len() / 2;
        let head = write_events(&events[..split], &registry);
        let tail = write_events(&events[split..], &registry);
        let snap = temp_path("resume");

        // Server 1: ingest the prefix, SNAPSHOT, hard stop — no FINISH,
        // so open windows are *not* force-closed; they live in the file.
        let server = Server::spawn(
            builder_for(&query, 4, slack),
            registry.clone(),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .expect("server 1 starts");
        let addr = server.local_addr();
        let subscription = Client::connect(addr)
            .expect("subscriber 1 connects")
            .subscribe(None)
            .expect("subscribe io")
            .expect("subscribe accepted");
        let collector = std::thread::spawn(move || collect_rows(subscription));
        let mut feed = Client::connect(addr).expect("feed 1 connects");
        feed.replay_csv(&head, 64).expect("io").expect("ingest ok");
        feed.drain().expect("io").expect("drain ok");
        feed.snapshot(&snap).expect("io").expect("snapshot ok");
        server.shutdown();
        let mut rows = collector.join().expect("subscriber 1 joins");

        // Server 2: resume from the file at a different width, replay the
        // suffix, FINISH for real.
        let server = Server::spawn_restored(
            Session::builder().workers(2),
            registry.clone(),
            &*snap,
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .expect("server 2 restores");
        let addr = server.local_addr();
        let subscription = Client::connect(addr)
            .expect("subscriber 2 connects")
            .subscribe(None)
            .expect("subscribe io")
            .expect("subscribe accepted");
        let collector = std::thread::spawn(move || collect_rows(subscription));
        let mut feed = Client::connect(addr).expect("feed 2 connects");
        feed.replay_csv(&tail, 64).expect("io").expect("ingest ok");
        let finish = feed.finish().expect("io").expect("finish ok");
        rows.extend(collector.join().expect("subscriber 2 joins"));
        server.shutdown();
        std::fs::remove_file(&snap).ok();

        rows.sort();
        assert_eq!(rows, expected, "prefix + resumed rows ≠ uninterrupted run");
        // The reorderer's late counter crossed the restart inside the
        // snapshot: the resumed server reports the *stream-wide* total.
        assert_eq!(
            finish.late, reference.late_events,
            "late drops lost across the restart"
        );
        assert_eq!(finish.workers, 2, "resume did not rescale to 2 workers");
        assert!(finish.finished);
        assert!(
            !rows.is_empty(),
            "battery bug: the split emitted nothing before the kill"
        );
    });
}

/// One corruption case: damage a valid snapshot with `damage`, then
/// assert the CLI (`--restore`) and the server (`spawn_restored`) report
/// the *identical* `{path}: {CheckpointError}` text.
fn pin_corruption_case(
    tag: &str,
    valid: &[u8],
    registry: &TypeRegistry,
    schema_path: &str,
    events_path: &str,
    damage: impl FnOnce(&mut Vec<u8>),
    expect_contains: &str,
) {
    let mut bytes = valid.to_vec();
    damage(&mut bytes);
    let snap = temp_path(tag);
    std::fs::write(&snap, &bytes).expect("write damaged snapshot");

    // Server side: the typed error, displayed exactly as the ERR payload.
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
        server_err.contains(expect_contains),
        "{tag}: server error `{server_err}` does not mention `{expect_contains}`"
    );
    assert!(
        server_err.starts_with(&snap),
        "{tag}: server error `{server_err}` is not `{{path}}: …`"
    );

    // CLI side: `error: {path}: {display}` on stderr, nonzero exit.
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_cogra-run"))
        .args([
            "--schema",
            schema_path,
            "--events",
            events_path,
            "--restore",
            &snap,
        ])
        .output()
        .expect("cogra-run executes");
    assert!(!output.status.success(), "{tag}: CLI exited 0");
    let stderr = String::from_utf8_lossy(&output.stderr);
    let cli_line = stderr
        .lines()
        .find(|l| l.starts_with("error: "))
        .unwrap_or_else(|| panic!("{tag}: no `error:` line in CLI stderr `{stderr}`"));
    assert_eq!(
        cli_line,
        format!("error: {server_err}"),
        "{tag}: CLI and server disagree on the error text"
    );
    std::fs::remove_file(&snap).ok();
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
        let schema_path = temp_path("schema");
        let events_path = temp_path("events");
        std::fs::write(&schema_path, "T,g,int\nT,v,int\n").expect("write schema");
        std::fs::write(&events_path, write_events(&events, &registry)).expect("write events");

        pin_corruption_case(
            "bad-magic",
            &valid,
            &registry,
            &schema_path,
            &events_path,
            |b| b[0] ^= 0xff,
            "not a cogra snapshot",
        );
        pin_corruption_case(
            "retired-version",
            &valid,
            &registry,
            &schema_path,
            &events_path,
            |b| b[8..12].copy_from_slice(&1u32.to_le_bytes()),
            "older than supported",
        );
        pin_corruption_case(
            "future-version",
            &valid,
            &registry,
            &schema_path,
            &events_path,
            |b| b[8..12].copy_from_slice(&99u32.to_le_bytes()),
            "newer than supported",
        );
        let half = valid.len() / 2;
        pin_corruption_case(
            "truncated",
            &valid,
            &registry,
            &schema_path,
            &events_path,
            move |b| b.truncate(half),
            "truncated",
        );
        let last = valid.len() - 1;
        pin_corruption_case(
            "checksum",
            &valid,
            &registry,
            &schema_path,
            &events_path,
            move |b| b[last] ^= 0xff,
            "checksum mismatch",
        );

        std::fs::remove_file(&schema_path).ok();
        std::fs::remove_file(&events_path).ok();
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

/// A churn session's snapshot mid-stream (every partition resident), and
/// the same with `damage` done to the partition entries of its engine
/// section.
fn damaged_entries(damage: impl Fn(&mut Vec<Vec<u8>>)) -> (TypeRegistry, Vec<u8>, Vec<u8>) {
    use cogra::engine::RouterState;
    use cogra_checkpoint::{Dec, Enc};
    let (registry, query, events) = workload(4, 5, 120);
    let mut session = builder_for(&query, 1, 0)
        .build(&registry)
        .expect("session builds");
    for e in &events {
        session.process(e);
    }
    let mut valid = Vec::new();
    session.checkpoint(&mut valid).expect("checkpoint");
    let damaged = rewrite_section(&valid, "q0", |payload| {
        let mut dec = Dec::new(payload);
        let mut state = RouterState::load(&mut dec).expect("engine section");
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
    for workers in [1usize, 2, 4] {
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

#[test]
fn reorder_section_has_one_shape_at_every_width() {
    watchdog("reorder-shape", || {
        // The same jittered prefix under `.slack(8)`: whatever the worker
        // count, the admission gate and the in-flight events are the same
        // stream state, so the snapshot's `reorder` section must be the
        // same bytes — there is no per-width style to migrate between.
        let (registry, query, events) = workload(0, 17, 200);
        let events = jitter(events, 12, 0xa11);
        let mut sections: Vec<Vec<u8>> = Vec::new();
        for workers in [1usize, 2, 4] {
            let mut session = builder_for(&query, workers, 8)
                .build(&registry)
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
fn version_1_snapshots_are_rejected_typed() {
    // Format 2 retired the style-tagged reorder section and the guarded
    // config tail: a v1 file must fail on its header with the version
    // error, not somewhere inside a section as `Corrupt`.
    let (registry, query, _) = workload(0, 3, 1);
    let mut snap = Vec::new();
    builder_for(&query, 1, 8)
        .build(&registry)
        .expect("session builds")
        .checkpoint(&mut snap)
        .expect("checkpoint");
    assert_eq!(snap[8..12], cogra_checkpoint::FORMAT_VERSION.to_le_bytes());
    assert_eq!(cogra_checkpoint::FORMAT_VERSION, 2);
    snap[8..12].copy_from_slice(&1u32.to_le_bytes());
    match Session::builder().restore(&registry, snap.as_slice()) {
        Err(CheckpointError::RetiredVersion { found, supported }) => {
            assert_eq!((found, supported), (1, 2));
        }
        other => panic!("expected RetiredVersion, got {other:?}"),
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
