//! The chaos battery: deterministic fault injection (`cogra-faults`)
//! driven through the supervised runtime, pinning the fault-tolerance
//! contracts end to end. Compiled only with `--features faults`:
//!
//! ```text
//! cargo test -p cogra --test chaos_props --features faults
//! ```
//!
//! Contracts pinned here:
//!
//! * **Restart ≡ no-fault run** (arms of the model, `tests/common/mod.rs`:
//!   `Op::Fault` arms a failpoint mid-life) — a shard worker killed at
//!   any failpoint (batch / drain / finish / snapshot, any shard, any hit
//!   count) under `FailurePolicy::Restart` is revived on its worker
//!   thread from the state the worker saved last plus the batches it kept
//!   since — again if it dies during that replay — and the session
//!   observes the reference:
//!   results and late drops to the byte, no sticky failure, no quarantine
//!   (stats/peak are explicitly NOT part of the contract — replay
//!   re-probes).
//! * **Degrade conserves the event accounting** — after a quarantine,
//!   `routed_items == Σ live shard_events + dropped_events`, and the
//!   losses surface through `SessionRun`.
//! * **Fail is sticky and typed** — `ingest_csv` returns
//!   `IngestError::WorkerFailed`, further input is refused, a failed or
//!   degraded session refuses to checkpoint.
//! * **A block that dies between two chunks is resumed, not repeated** —
//!   the server's own sites (`server/conn/chunk`: the connection dies
//!   between two chunk sends; `server/actor/chunk`: the actor loses a
//!   chunk), as lives of the model over a socket: the rows shipped before
//!   the fault are ingested and counted, the ingest turn is free again,
//!   and a client that resumes from `STATS events` observes the reference.
//! * **A crash mid-snapshot never yields a readable-but-wrong file** —
//!   `write_atomic` killed during the write or the rename leaves the
//!   previous snapshot byte-intact (and the leftover `.tmp` of a
//!   half-write does not restore), from the library *and* from the CLI.
//!
//! Every test serializes on one mutex: the fault registry is process
//! global, and these tests would otherwise arm each other's failpoints.

#![cfg(feature = "faults")]

mod common;

use std::sync::{Arc, Mutex, MutexGuard, Once, OnceLock};

use cogra::core::{PoolConfig, QueryRuntime, StreamingPool};
use cogra::prelude::*;
use cogra_checkpoint::write_atomic;
use cogra_faults::{SeedSequence, Trigger};
use common::model::{self, chunked, Case, Config, Op, Reference, Transport};
use common::workloads::{abc_registry, disordered, rows_case, KEYLESS};
use common::{watchdog, Fixture};
use proptest::prelude::*;

/// One grouped Kleene query — shardable, so every worker-count knob and
/// failpoint site is exercised.
const QUERY: &str = "RETURN g, COUNT(*), SUM(A.v) PATTERN SEQ(A+, B) SEMANTICS ANY \
                     GROUP-BY g WITHIN 10 SLIDE 5";

fn registry() -> TypeRegistry {
    abc_registry()
}

/// Serialize the whole battery on the process-global fault registry,
/// leaving it clean for the test body. Also quiets the injected panics:
/// every kill below is intentional, and hundreds of backtraces would
/// bury a real failure.
fn guard() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let g = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with("injected fault at"));
            if !injected {
                default(info);
            }
        }));
    });
    cogra_faults::reset();
    g
}

/// A deterministic mixed A/B stream over `queries`: 7 groups, B every
/// third event, one tick apart.
fn stream(queries: &[&str], n: usize) -> Case {
    let rows: Vec<_> = (0..n)
        .map(|i| (1, usize::from(i % 3 == 2), (i % 7) as i64, (i % 5) as i64))
        .collect();
    rows_case(queries, &rows, None)
}

fn build_events(n: usize) -> Vec<Event> {
    stream(&[QUERY], n).events
}

/// A session over [`QUERY`] on 4 shards.
fn session(batch: usize, policy: FailurePolicy) -> Session {
    Session::builder()
        .query(QUERY)
        .workers(4)
        .batch_size(batch)
        .on_worker_failure(policy)
        .build(&registry())
        .expect("query builds")
}

/// Hold a life of `case` on 4 shards under `FailurePolicy::Restart` to the
/// reference: `site` armed to fire on its `hit`-th hit, then chunks of
/// `chunk` events with a drain after each. The failpoint must actually
/// fire — a schedule that never reaches its site proves nothing.
fn killed_and_restarted(case: &Case, site: &str, hit: u64, batch: usize, chunk: usize) {
    cogra_faults::reset();
    let reference = Reference::of(case).expect("COGRA takes the query");
    assert!(reference.results() > 0);
    let config = Config {
        batch,
        policy: FailurePolicy::Restart,
        ..Config::workers(4)
    };
    let mut ops = vec![Op::Fault {
        site: site.to_string(),
        hit,
    }];
    ops.extend(chunked(case, chunk));
    model::hold(case, &reference, &config, &ops);
    assert!(
        cogra_faults::hits(site) >= hit,
        "failpoint {site} was never reached (hits={})",
        cogra_faults::hits(site)
    );
}

/// The stream as the CSV document `ingest_csv` reads.
fn build_csv(n: usize) -> String {
    let mut s = String::from("type,time,g,v\n");
    for i in 0..n {
        let ty = if i % 3 == 2 { "B" } else { "A" };
        s.push_str(&format!("{ty},{},{},{}\n", i + 1, i % 7, i % 5));
    }
    s
}

// ---------------------------------------------------------------------
// Restart ≡ no-fault run
// ---------------------------------------------------------------------

/// Kill one worker at every failpoint kind, on two shards, at different
/// hit counts: the Restart recovery must reproduce the no-fault run's
/// emitted rows byte-for-byte, leave no sticky failure and no quarantine.
#[test]
fn restart_recovers_byte_identically_across_sites() {
    let _g = guard();
    for shard in [0usize, 1] {
        for (kind, hit) in [("batch", 1), ("batch", 3), ("drain", 2), ("finish", 1)] {
            let site = format!("worker/{kind}/{shard}");
            killed_and_restarted(&stream(&[QUERY], 240), &site, hit, 7, 31);
        }
    }
    // Two queries with one GROUP-BY place every event on the same shard,
    // so the kept batches hold one row with two routes each: the replay
    // must feed both engines from the shared rows.
    let roster = [
        QUERY,
        "RETURN g, COUNT(*) PATTERN SEQ(A+, B) SEMANTICS NEXT GROUP-BY g WITHIN 10 SLIDE 5",
    ];
    for hit in [1, 3] {
        killed_and_restarted(&stream(&roster, 240), "worker/batch/1", hit, 7, 31);
    }
    // The workload table's keyless arm: the pool stages an event only for
    // the queries that want it — a beacon for the pinned query alone, a
    // tick for none — and a restarted shard replays exactly that, ordered
    // or under slack.
    for slack in [0, 8] {
        let case = disordered(KEYLESS, 11, 240, slack);
        for site in ["worker/batch/1", "worker/drain/0"] {
            killed_and_restarted(&case, site, 2, 7, 31);
        }
    }
}

/// A worker killed while `.slack(n)` holds events in flight: the pool's
/// reorder buffer stays with the coordinator, and the revived shard
/// replays exactly what the buffer had released to it.
#[test]
fn restart_replays_the_reorder_buffer_under_slack() {
    let _g = guard();
    // Bounded disorder (each 4-event cell arrives 0,2,1,3), repaired
    // exactly by `.slack(2)` or wider.
    let mut case = stream(&[QUERY], 200);
    case.events
        .chunks_exact_mut(4)
        .for_each(|cell| cell.swap(1, 2));
    case.slack = Some(3);
    for site in ["worker/batch/0", "worker/drain/1"] {
        killed_and_restarted(&case, site, 2, 5, 23);
    }
}

/// A second death while the worker replays its kept batches after the
/// first (`worker/replay/{i}` fires only inside a revival, on its first
/// hit here): the worker starts the revival over from the same save, and
/// the life still observes the reference.
#[test]
fn a_second_death_during_the_replay_is_revived_again() {
    let _g = guard();
    for (first, hit, shard) in [("batch", 3, 1), ("drain", 2, 0), ("batch", 1, 3)] {
        cogra_faults::reset();
        let case = stream(&[QUERY], 240);
        let reference = Reference::of(&case).expect("COGRA takes the query");
        let config = Config {
            batch: 7,
            policy: FailurePolicy::Restart,
            ..Config::workers(4)
        };
        let first = format!("worker/{first}/{shard}");
        let replay = format!("worker/replay/{shard}");
        let mut ops = vec![
            Op::Fault {
                site: first.clone(),
                hit,
            },
            Op::Fault {
                site: replay.clone(),
                hit: 1,
            },
        ];
        ops.extend(chunked(&case, 31));
        model::hold(&case, &reference, &config, &ops);
        assert!(cogra_faults::hits(&first) >= hit, "{first} never fired");
        // A first replay that reaches its site fires it; a second one
        // revived the shard past it.
        assert!(
            cogra_faults::hits(&replay) >= 2,
            "{replay} was reached {} time(s)",
            cogra_faults::hits(&replay)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Randomized fault-schedule sweep (with shrinking): one seed derives
    /// the whole schedule — pool shape, chunking, site, shard and hit
    /// count — through `SeedSequence`, so a failing seed replays exactly.
    #[test]
    fn restart_matches_no_fault_run_for_random_schedules(seed in any::<u64>()) {
        let _g = guard();
        let mut seq = SeedSequence::new(seed);
        let workers = 2 + (seq.next_u64() % 3) as usize; // 2..=4
        let batch = 1 + (seq.next_u64() % 12) as usize; // 1..=12
        let chunk = 8 + (seq.next_u64() % 32) as usize; // 8..=39
        let n = 60 + (seq.next_u64() % 160) as usize; // 60..=219
        let kind = ["batch", "drain", "finish"][(seq.next_u64() % 3) as usize];
        let shard = (seq.next_u64() % workers as u64) as usize;
        let site = format!("worker/{kind}/{shard}");
        let hit = seq.next_hit(6);

        let case = stream(&[QUERY], n);
        let reference = Reference::of(&case).expect("COGRA takes the query");
        let config = Config {
            batch,
            policy: FailurePolicy::Restart,
            ..Config::workers(workers)
        };
        let mut ops = vec![Op::Fault { site, hit }];
        ops.extend(chunked(&case, chunk));
        model::check(&case, &reference, &config, &ops).map_err(TestCaseError::fail)?;
    }
}

/// A shard killed *during* `SNAPSHOT` under Restart is revived and the
/// snapshot taken again on its worker: the checkpoint still completes,
/// and the snapshot resumes to the reference's rows.
#[test]
fn snapshot_interrupted_by_a_worker_death_is_retried_under_restart() {
    let _g = guard();
    let site = "worker/snapshot/0";
    let case = stream(&[QUERY], 160);
    let reference = Reference::of(&case).expect("COGRA takes the query");
    let config = Config {
        batch: 7,
        policy: FailurePolicy::Restart,
        ..Config::workers(4)
    };
    let ops = [
        Op::Ingest(100),
        Op::Drain,
        Op::Fault {
            site: site.to_string(),
            hit: 1,
        },
        Op::Restore {
            workers: 4,
            batch: 7,
        },
    ];
    model::hold(&case, &reference, &config, &ops);
    assert!(
        cogra_faults::hits(site) >= 1,
        "failpoint {site} never reached"
    );
}

// ---------------------------------------------------------------------
// The server's sites: a block dies between two chunks
// ---------------------------------------------------------------------

/// An `INGEST` block travels from its connection thread to the session
/// actor in chunks. Kill the connection between two chunk sends, or lose a
/// chunk at the actor: the rows that got through are ingested and counted
/// in `STATS events`, the rest of the block is not, the ingest turn is
/// released — the model's driver resumes from that count on a new
/// connection, which would hang on a held turn — and the life observes
/// the reference.
#[test]
fn a_block_cut_between_two_chunks_is_resumed_from_stats_events() {
    use cogra::server::INGEST_CHUNK_ROWS as CHUNK;
    let _g = guard();
    let block = 3 * CHUNK + 7;
    for (site, hit, workers) in [
        ("server/conn/chunk", 1, 1),
        ("server/conn/chunk", 3, 2),
        ("server/actor/chunk", 1, 1),
        ("server/actor/chunk", 6, 2),
    ] {
        cogra_faults::reset();
        let case = stream(&[QUERY], 2 * block + 60);
        let reference = Reference::of(&case).expect("COGRA takes the query");
        assert!(reference.results() > 0);
        let config = Config {
            transport: Transport::Socket(block),
            ..Config::workers(workers)
        };
        let ops = [
            Op::Ingest(50),
            Op::Drain,
            Op::Fault {
                site: site.to_string(),
                hit,
            },
        ];
        watchdog(site, move || model::hold(&case, &reference, &config, &ops));
        assert!(
            cogra_faults::hits(site) >= hit,
            "failpoint {site} was never reached (hits={})",
            cogra_faults::hits(site)
        );
    }
}

// ---------------------------------------------------------------------
// Degrade: quarantine + conservation
// ---------------------------------------------------------------------

/// The conservation invariant, at the pool: every routed item is either
/// in a live shard's count or in `dropped_events` — nothing vanishes
/// silently when a shard is quarantined. Under `.slack(n)`, on a
/// disordered stream, an item is routed when the pool's reorder buffer
/// releases it: one still buffered when its shard dies goes to the next
/// live shard, like every later event of its group.
#[test]
fn degrade_conserves_event_accounting_at_the_pool() {
    let _g = guard();
    let reg = registry();
    let q = cogra::query::parse(QUERY).unwrap();
    let rt = Arc::new(QueryRuntime::new(
        cogra::query::compile(&q, &reg).unwrap(),
        &reg,
    ));
    for slack in [None, Some(8)] {
        let case = stream(&[QUERY], 240);
        let events = match slack {
            Some(slack) => case.jittered(slack, 11).events,
            None => case.events,
        };
        cogra_faults::configure("worker/batch/1", Trigger::OnHit(2));
        let mut pool = StreamingPool::new(
            vec![Arc::clone(&rt)],
            4,
            PoolConfig {
                batch_size: 5,
                slack,
                policy: FailurePolicy::Degrade,
            },
        )
        .unwrap();
        let mut results = Vec::new();
        let mut push = |_q: usize, r: WindowResult| results.push(r);
        for (i, e) in events.iter().enumerate() {
            pool.route(e);
            if i % 40 == 39 {
                pool.drain_into(&mut push);
            }
        }
        pool.finish_into(&mut push);
        let metrics = pool.metrics();
        assert_eq!(metrics.degraded, vec![1], "slack {slack:?}");
        assert!(pool.failure().is_none(), "Degrade must not fail the pool");
        assert!(
            metrics.dropped > 0,
            "a quarantine with no losses proves nothing (slack {slack:?})"
        );
        let live: u64 = metrics.shard_events.iter().sum();
        assert_eq!(
            pool.routed_items(),
            live + metrics.dropped,
            "conservation violated (slack {slack:?}): {} routed, {} live, {} dropped",
            pool.routed_items(),
            live,
            metrics.dropped
        );
        assert!(!results.is_empty(), "live shards must keep emitting");
    }
}

/// The same quarantine, observed from the batch surface: `SessionRun`
/// reports the degraded shard and the losses instead of panicking or
/// silently returning partial rows as if they were complete.
#[test]
fn degrade_quarantines_and_reports_through_session_run() {
    let _g = guard();
    let events = build_events(240);
    cogra_faults::configure("worker/batch/1", Trigger::OnHit(2));
    let run = session(5, FailurePolicy::Degrade).run(&events);
    assert_eq!(run.degraded, vec![1]);
    assert!(run.dropped_events > 0);
    assert!(!run.results().is_empty());
}

// ---------------------------------------------------------------------
// Fail: sticky, typed, checkpoint-refusing
// ---------------------------------------------------------------------

/// Under the default policy a worker death surfaces as a typed
/// `IngestError::WorkerFailed` from `ingest_csv`, stays sticky for
/// further input, emits nothing at finish, and refuses to checkpoint.
#[test]
fn fail_policy_surfaces_a_typed_csv_error_and_stays_sticky() {
    let _g = guard();
    cogra_faults::configure("worker/batch/0", Trigger::OnHit(1));
    let reg = registry();
    let mut session = session(2, FailurePolicy::Fail);
    let err = session
        .ingest_csv(&build_csv(300), &reg)
        .expect_err("the killed worker must surface");
    assert!(
        matches!(err, IngestError::WorkerFailed(_)),
        "expected WorkerFailed, got {err:?}"
    );
    assert!(
        err.to_string()
            .contains("worker failed: injected fault at worker/batch/0"),
        "untyped message: {err}"
    );
    // Sticky: the next document (in time order — the watermark check
    // runs first) is refused with the same failure…
    let again = session
        .ingest_csv("type,time,g,v\nA,1000,0,0\n", &reg)
        .expect_err("sticky");
    assert_eq!(again.to_string(), err.to_string());
    // …checkpointing is a typed refusal, not a partial snapshot…
    let refusal = session
        .checkpoint(&mut Vec::new())
        .expect_err("no checkpoint");
    assert!(
        refusal
            .to_string()
            .contains("cannot checkpoint a failed session"),
        "wrong refusal: {refusal}"
    );
    // …and the finish emits nothing (no partial rows masquerading as
    // complete results).
    assert!(session.drain().is_empty());
    assert!(session.finish().is_empty());
    assert!(session.worker_failure().is_some());
}

/// A degraded session's state is partially gone — it must refuse to
/// checkpoint too.
#[test]
fn degraded_session_refuses_to_checkpoint() {
    let _g = guard();
    cogra_faults::configure("worker/batch/1", Trigger::OnHit(2));
    let events = build_events(240);
    let mut session = session(5, FailurePolicy::Degrade);
    for e in &events {
        session.process(e);
    }
    let _ = session.drain();
    assert_eq!(session.metrics().degraded, vec![1]);
    let refusal = session
        .checkpoint(&mut Vec::new())
        .expect_err("no checkpoint");
    assert!(
        refusal
            .to_string()
            .contains("cannot checkpoint a degraded session"),
        "wrong refusal: {refusal}"
    );
}

/// A shard that dies on *every* delivery cannot be restarted forever:
/// the supervisor escalates to a sticky failure naming the restart cap.
#[test]
fn restart_escalates_after_max_restarts() {
    let _g = guard();
    cogra_faults::configure("worker/batch/0", Trigger::Always);
    let events = build_events(300);
    let mut session = session(2, FailurePolicy::Restart);
    for e in &events {
        session.process(e);
    }
    let _ = session.drain();
    let _ = session.finish();
    let failure = session
        .worker_failure()
        .expect("the restart loop must give up");
    assert!(
        failure.to_string().contains("giving up after 8 restarts"),
        "missing escalation marker: {failure}"
    );
    assert!(
        failure
            .to_string()
            .contains("injected fault at worker/batch/0"),
        "escalation lost the root cause: {failure}"
    );
}

// ---------------------------------------------------------------------
// Crash-safe snapshots
// ---------------------------------------------------------------------

/// `write_atomic` killed mid-write or mid-rename: the previous snapshot
/// at the final path stays byte-intact, the half-written `.tmp` does not
/// restore (readable-but-wrong is impossible), and a clean retry after
/// the fault clears produces a working snapshot.
#[test]
fn crash_mid_snapshot_write_preserves_the_previous_checkpoint() {
    let _g = guard();
    let tmp = Fixture::dir("atomic");
    let path = tmp.path("snap.cogra");
    let reg = registry();
    let events = build_events(160);
    let mut session = session(7, FailurePolicy::Fail);
    for e in &events[..100] {
        session.process(e);
    }
    let _ = session.drain();
    write_atomic(&path, |buf| session.checkpoint(buf)).expect("first snapshot lands");
    let previous = std::fs::read(&path).unwrap();

    for e in &events[100..] {
        session.process(e);
    }
    let _ = session.drain();

    // Killed mid-write: a prefix of the new snapshot lands in `.tmp`.
    cogra_faults::configure("checkpoint/write", Trigger::Always);
    let err = write_atomic(&path, |buf| session.checkpoint(buf)).expect_err("injected");
    assert_eq!(
        err.to_string(),
        "i/o error: injected fault at checkpoint/write"
    );
    assert_eq!(
        std::fs::read(&path).unwrap(),
        previous,
        "previous snapshot damaged"
    );
    let half = std::fs::read(format!("{path}.tmp")).expect("the crash leaves a .tmp");
    assert!(!half.is_empty() && half.len() < previous.len() * 2);
    assert!(
        Session::builder().restore(&reg, &half[..]).is_err(),
        "a half-written snapshot must never restore"
    );

    // Killed between write and rename: same contract.
    cogra_faults::reset();
    cogra_faults::configure("checkpoint/rename", Trigger::Always);
    let err = write_atomic(&path, |buf| session.checkpoint(buf)).expect_err("injected");
    assert_eq!(
        err.to_string(),
        "i/o error: injected fault at checkpoint/rename"
    );
    assert_eq!(
        std::fs::read(&path).unwrap(),
        previous,
        "previous snapshot damaged"
    );

    // Fault cleared: the retry replaces the snapshot atomically and the
    // replacement restores to the same rows the live session finishes to.
    cogra_faults::reset();
    write_atomic(&path, |buf| session.checkpoint(buf)).expect("retry lands");
    let bytes = std::fs::read(&path).unwrap();
    assert_ne!(bytes, previous, "the retry must hold the newer state");
    let restored_rows = Session::builder()
        .restore(&reg, &bytes[..])
        .expect("the retried snapshot restores")
        .finish();
    assert_eq!(restored_rows, session.finish());
}

/// The same crash, injected into the CLI through the `COGRA_FAULTS`
/// environment schedule: `--checkpoint` exits non-zero with the typed
/// `error: <path>: i/o error: …` line, the prior snapshot survives
/// byte-identically, and a `--restore` run against it still works.
#[test]
fn cli_checkpoint_crash_leaves_prior_snapshot_restorable() {
    const SCHEMA: &str = "type,attr,kind\n\
                          Measurement,patient,int\n\
                          Measurement,rate,int\n";
    const CLI_QUERY: &str = "RETURN patient, COUNT(*)\n\
                             PATTERN Measurement M+\n\
                             SEMANTICS skip-till-any-match\n\
                             WHERE [patient]\n\
                             GROUP-BY patient\n\
                             WITHIN 100 SLIDE 100\n";
    const STREAM: &str = "type,time,patient,rate\n\
                          Measurement,1,7,60\n\
                          Measurement,2,7,62\n\
                          Measurement,3,8,70\n\
                          Measurement,4,8,75\n";
    let _g = guard();
    let tmp = Fixture::new("chaos-cli", SCHEMA, CLI_QUERY, STREAM.as_bytes());
    // The restore leg replays no events — the snapshot carries the state.
    std::fs::write(tmp.path("empty.csv"), "type,time,patient,rate\n").unwrap();
    let snap = tmp.path("snap.cogra");
    let run = |extra: &[&str], faults: Option<&str>| {
        let mut cmd = tmp.cogra_run(None);
        cmd.args(extra);
        if let Some(schedule) = faults {
            cmd.env("COGRA_FAULTS", schedule);
        }
        let out = cmd.output().expect("binary runs");
        (
            out.status.success(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };

    // A clean checkpoint run seeds the snapshot.
    let query = tmp.path("query.cep");
    let stream = tmp.path("stream.csv");
    let (ok, _, stderr) = run(
        &[
            "--events",
            &stream,
            "--query",
            &query,
            "--checkpoint",
            &snap,
        ],
        None,
    );
    assert!(ok, "seed run failed: {stderr}");
    let previous = std::fs::read(&snap).unwrap();

    // The armed run crashes mid-write — typed stderr, intact snapshot.
    let (ok, _, stderr) = run(
        &[
            "--events",
            &stream,
            "--query",
            &query,
            "--checkpoint",
            &snap,
        ],
        Some("checkpoint/write=always"),
    );
    assert!(!ok, "the injected crash must fail the run");
    assert!(
        stderr.contains(&format!(
            "error: {snap}: i/o error: injected fault at checkpoint/write"
        )),
        "wrong stderr: {stderr}"
    );
    assert_eq!(
        std::fs::read(&snap).unwrap(),
        previous,
        "prior snapshot damaged"
    );

    // The surviving snapshot still restores and finishes the windows.
    let empty = tmp.path("empty.csv");
    let (ok, stdout, stderr) = run(&["--events", &empty, "--restore", &snap], None);
    assert!(ok, "restore after the crash failed: {stderr}");
    assert!(
        stdout.contains("[7]") && stdout.contains("[8]"),
        "missing rows: {stdout}"
    );
}
