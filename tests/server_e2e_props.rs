//! The network front-end. As arms of the model (`tests/common/mod.rs`):
//! a workload replayed over a loopback socket through `cogra-server`, in
//! `INGEST` blocks with `DRAIN`s in between, observes the reference —
//! pushed rows, late drops, run stats, `STATS` event and result counters —
//! across workloads {stock, rideshare, transport} × workers {1, 4} × slack
//! {0, 8}; so do records whose cells span lines, in any block size, and
//! blocks cut around the chunks an `INGEST` travels in (a block of one
//! chunk less a row, exactly one, one and a row, several, none).
//!
//! Beside the arms, the protocol: every counter reply is the session's
//! `Metrics`, byte for byte, and one is pinned as a literal; one shared
//! run fanned out to duplicate subscriptions, reconnect-after-`FINISH`,
//! error replies and caps,
//! subscriber back-pressure, hostile connections, racing feeds and control
//! verbs landing between the chunks of a block, and the loopback-only bind
//! guard.
//!
//! Every test body runs under a watchdog so a hung accept loop or a
//! deadlocked actor fails fast instead of stalling CI.

mod common;

use cogra::prelude::*;
use cogra::server::INGEST_CHUNK_ROWS as CHUNK;
use cogra::workloads::{stock, StockConfig};
use common::model::{chunked, sweep, Case, Config, Op, Reference, Transport};
use common::workloads::{
    disordered, rows_case, workload, DUPLICATES, RIDESHARE, STOCK_MIXED, STOCK_TYPE, TRANSPORT,
};
use common::{watchdog, Fixture, Raw};
use proptest::prelude::*;
use std::sync::{Arc, Barrier};
use std::time::Duration;

const SERVED: [usize; 3] = [STOCK_MIXED, RIDESHARE, TRANSPORT];

/// One served life: `chunk`-row `INGEST` blocks with a `DRAIN` after each.
/// Returns `(results pushed before FINISH, late drops)` for the sweeps'
/// liveness checks ("results flow before FINISH"; "the slack axis actually
/// drops events, 0 == 0 proves nothing").
fn served(
    wl: usize,
    seed: u64,
    n: usize,
    workers: usize,
    slack: u64,
    chunk: usize,
) -> (usize, u64) {
    // Displacement beyond the slack: some drops.
    let case = disordered(wl, seed, n, slack);
    let config = Config {
        transport: Transport::Socket(chunk),
        ..Config::workers(workers)
    };
    let (reference, runs) = sweep(&case, [config], |case| chunked(case, chunk));
    (runs[0].live, reference.late)
}

#[test]
fn grid_socket_equals_in_process() {
    // The full acceptance grid: ≥3 workloads × workers {1,4} × slack
    // {0,8}, chunked ingest with a DRAIN between chunks.
    let (mut live, mut late) = (0, 0);
    for wl in SERVED {
        for workers in [1usize, 4] {
            for slack in [0u64, 8] {
                let run = watchdog("a served grid case", move || {
                    served(wl, 7, 400, workers, slack, 90)
                });
                live += run.0;
                late += run.1;
            }
        }
    }
    // Liveness: across the grid, windows closed (and were pushed) while
    // streams were still flowing — the server is not buffer-and-reply.
    assert!(live > 0, "no grid case emitted results before FINISH");
    assert!(late > 0, "the jittered grid cases dropped no events");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn random_workloads_socket_equals_in_process(
        wl in 0usize..3,
        workers_idx in 0usize..2,
        slack_idx in 0usize..2,
        seed in 0u64..10_000,
        n in 120usize..420,
        chunk in 17usize..160,
    ) {
        let (workers, slack) = ([1usize, 4][workers_idx], [0u64, 8][slack_idx]);
        watchdog("a served random case", move || {
            served(SERVED[wl], seed, n, workers, slack, chunk);
        });
    }
}

#[test]
fn records_spanning_lines_survive_the_socket_in_any_chunking() {
    watchdog("multi-line-records", || {
        // Cells holding newlines, `\r`, quotes and nothing: `INGEST` counts
        // physical lines and `replay_csv` cuts blocks at record ends, so a
        // record spanning lines is never split, whatever the block size.
        let mut registry = TypeRegistry::new();
        let note = registry.register_type(
            "Note",
            vec![("g", ValueKind::Int), ("text", ValueKind::Str)],
        );
        let texts = ["a\nb", "", "c\r", "say \"hi\"", "\r\n,", "plain"];
        let mut builder = EventBuilder::new();
        let events: Vec<Event> = (0..60)
            .map(|i| {
                let text = Value::str(texts[i as usize % texts.len()]);
                builder.event(i as u64 + 1, note, vec![Value::Int(i % 3), text])
            })
            .collect();
        let csv = write_events(&events, &registry);
        assert!(csv.lines().count() > events.len() + 1, "records span lines");
        let query = "RETURN g, COUNT(*) PATTERN Note N+ SEMANTICS skip-till-any-match \
                     WHERE [g] GROUP-BY g WITHIN 20 SLIDE 10";
        let case = Case {
            name: "notes".to_string(),
            registry,
            roster: vec![(query.to_string(), EngineKind::Cogra)],
            events,
            slack: None,
            same: Vec::new(),
        };
        let blocks = [1, 7, 1000].map(|rows_per_block| Config {
            transport: Transport::Socket(rows_per_block),
            ..Config::default()
        });
        let (reference, _) = sweep(&case, blocks, |_| Vec::new());
        assert!(reference.results() > 0);
    });
}

#[test]
fn blocks_cut_around_the_chunk_seam_observe_the_reference() {
    // An `INGEST` block reaches the session in chunks of `CHUNK` rows: a
    // block that is one short of a chunk, exactly one, one over, several
    // and a bit, a single row — and no row at all, which the driver sends
    // whenever an ingest op has nothing left to send (here: the first op,
    // and the end of the stream).
    let blocks = [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7];
    for slack in [0, 8] {
        watchdog("blocks around the chunk seam", move || {
            let case = disordered(RIDESHARE, 11, 2 * (3 * CHUNK + 7) + 40, slack);
            let configs = blocks.map(|block| Config {
                transport: Transport::Socket(block),
                ..Config::default()
            });
            let ops = |_: &Case| vec![Op::Ingest(0), Op::Ingest(3 * CHUNK + 7), Op::Drain];
            let (reference, runs) = sweep(&case, configs, ops);
            assert!(reference.results() > 0 && runs.iter().all(|run| run.live > 0));
        });
    }
}

/// A server over `case` at `workers`, and the builder it was spawned from
/// for an in-process twin.
fn twin_server(case: &Case, workers: usize) -> (Server, SessionBuilder) {
    let builder = case.builder(&Config::workers(workers));
    let server = Server::spawn(
        builder.clone(),
        case.registry.clone(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("server starts");
    (server, builder)
}

#[test]
fn every_counter_reply_is_the_sessions_metrics_byte_for_byte() {
    // The same CSV blocks to a server and to `Session::ingest_csv`, each
    // drained after every block (the server drains on ingest): its
    // `INGEST`, `STATS` and `FINISH` replies are the in-process session's
    // `metrics()`, encoded — the stock roster (which shares, so
    // `physical=` shows) at widths 1 and 2 with and without slack, and
    // the duplicate roster.
    let stock = [(1, 0), (1, 8), (2, 0), (2, 8)].map(|(w, slack)| (STOCK_TYPE, w, slack));
    for (wl, workers, slack) in stock.into_iter().chain([(DUPLICATES, 1, 0)]) {
        watchdog("counter replies", move || {
            let case = disordered(wl, 7, 300, slack);
            let (server, builder) = twin_server(&case, workers);
            let mut session = builder.build(&case.registry).expect("builds");
            let mut raw = Raw::connect(server.local_addr());
            let ok = |metrics: Metrics| format!("OK {}\n", metrics.encode());
            for events in case.events.chunks(90) {
                let csv = write_events(events, &case.registry);
                let ingested = session.ingest_csv(&csv, &case.registry).expect("ingests");
                session.drain();
                let lines = csv.split_inclusive('\n').count();
                let expected = Metrics {
                    ingested,
                    ..session.metrics()
                };
                assert_eq!(raw.ask(format!("INGEST {lines}\n{csv}")), ok(expected));
                assert_eq!(raw.ask("STATS\n"), ok(session.metrics()));
            }
            session.finish();
            assert_eq!(raw.ask("FINISH\n"), ok(session.metrics()));
            assert!(session.metrics().physical < session.queries());
            server.shutdown();
        });
    }
}

#[test]
fn a_counter_reply_is_pinned_byte_for_byte() {
    // The `STATS` line as its `v1`: a slack session at two workers over a
    // roster that shares, so `shards=` and `physical=` are in it.
    watchdog("pinned reply", || {
        let case = disordered(STOCK_TYPE, 7, 120, 8);
        let (server, _) = twin_server(&case, 2);
        let csv = write_events(&case.events, &case.registry);
        let mut raw = Raw::connect(server.local_addr());
        raw.ask(format!("INGEST {}\n{csv}", csv.lines().count()));
        assert_eq!(
            raw.ask("STATS\n"),
            "OK ingested=0 events=120 late=8 results=120 watermark=112 queries=3 workers=2 \
             memory=11216 key_probes=208 key_allocs=72 shards=116,92 physical=2 \
             finished=false\n"
        );
        assert_eq!(
            raw.ask("FINISH\n"),
            "OK ingested=0 events=120 late=8 results=180 watermark=112 queries=3 workers=2 \
             memory=1056 key_probes=224 key_allocs=72 shards=128,96 physical=2 \
             finished=true\n"
        );
        server.shutdown();
    });
}

/// `n` rows one tick apart — row `i` is at time `i + 2` — over seven
/// groups, every third a `B`, for [`SEAM_QUERY`].
fn seam_case(n: usize) -> Case {
    let rows: Vec<_> = (0..n)
        .map(|i| (1, usize::from(i % 3 == 2), (i % 7) as i64, (i % 5) as i64))
        .collect();
    rows_case(&[SEAM_QUERY], &rows, None)
}

const SEAM_QUERY: &str = "RETURN g, COUNT(*), SUM(A.v) PATTERN SEQ(A+, B) SEMANTICS ANY \
                          GROUP-BY g WITHIN 10 SLIDE 5";

/// A server for [`SEAM_QUERY`] with a `*` subscriber, whose rows come back
/// sorted once the server finished or shut down.
fn seam_server(config: ServerConfig) -> (Server, std::thread::JoinHandle<Vec<String>>) {
    let registry = seam_case(0).registry;
    let server = Server::spawn(
        Session::builder().query(SEAM_QUERY),
        registry,
        "127.0.0.1:0",
        config,
    )
    .expect("server starts");
    let subscription = Client::connect(server.local_addr())
        .expect("subscriber connects")
        .subscribe(None)
        .expect("subscribe io")
        .expect("subscribe accepted");
    let rows = std::thread::spawn(move || {
        let mut rows: Vec<String> = subscription.map_while(Result::ok).map(|r| r.1).collect();
        rows.sort();
        rows
    });
    (server, rows)
}

/// What [`SEAM_QUERY`] emits for `events`, as the wire's rows, sorted.
fn seam_rows(case: &Case, events: &[Event]) -> Vec<String> {
    let case = Case {
        events: events.to_vec(),
        ..case.clone()
    };
    let reference = Reference::of(&case).expect("COGRA takes the query");
    let mut rows: Vec<String> = (reference.query(0).iter().map(|r| r.to_string())).collect();
    rows.sort();
    rows
}

#[test]
fn racing_feeds_are_ingested_block_after_block() {
    watchdog("racing feeds", || {
        // Two feeds, one block each — rows [0, N) and [N, 2N) of one
        // ordered stream, several chunks long — sent at the same moment to
        // a session without slack. Whole blocks in either order have two
        // outcomes: first then second (everything ingested), or second then
        // first (the first block's first row is late: refused whole). Any
        // interleaving of their chunks would ingest part of the late block.
        const N: usize = 3 * CHUNK + 7;
        let case = seam_case(2 * N);
        let blocks = [0, N].map(|from| write_events(&case.events[from..from + N], &case.registry));
        let late = {
            let mut session = (Session::builder().query(SEAM_QUERY))
                .build(&case.registry)
                .expect("query builds");
            session
                .ingest_csv(&blocks[1], &case.registry)
                .expect("in order");
            let refusal = session.ingest_csv(&blocks[0], &case.registry);
            refusal.expect_err("late").to_string()
        };
        for _ in 0..12 {
            let (server, rows) = seam_server(ServerConfig::default());
            let start = Arc::new(Barrier::new(2));
            let feeds = blocks.clone().map(|block| {
                let (addr, start) = (server.local_addr(), Arc::clone(&start));
                std::thread::spawn(move || {
                    let mut feed = Client::connect(addr).expect("feed connects");
                    start.wait();
                    feed.ingest(&block).expect("ingest io")
                })
            });
            let [first, second] = feeds.map(|feed| feed.join().expect("feed joins"));
            let mut control = Client::connect(server.local_addr()).expect("connects");
            let finish = control.finish().expect("finish io").expect("finish ok");
            let pushed = rows.join().expect("subscriber joins");
            assert_eq!(second.expect("never late").ingested, N as u64);
            match first {
                Ok(report) => {
                    assert_eq!((report.ingested, finish.events), (N as u64, 2 * N as u64));
                    assert_eq!(pushed, seam_rows(&case, &case.events));
                }
                Err(refusal) => {
                    assert_eq!((refusal, finish.events), (late.clone(), N as u64));
                    assert_eq!(pushed, seam_rows(&case, &case.events[N..]));
                }
            }
            server.shutdown();
        }
    });
}

#[test]
fn control_verbs_between_the_chunks_of_a_block_see_a_chunk_boundary() {
    watchdog("verbs between chunks", || {
        // One feed sends one long block; a second connection waits for its
        // first rows to show in `STATS` and then asks for a verb, which the
        // actor takes between two chunks of the block (or, should the race
        // go that way, after it — the same assertions hold). A queue of
        // one request keeps the feed's connection a chunk ahead of the
        // actor, so the block is still arriving when the verb does.
        const N: usize = 150 * CHUNK + 5;
        let case = seam_case(N);
        let block = write_events(&case.events, &case.registry);
        // Rows at or before `watermark`: row `i` is at time `i + 2`.
        let rows_until = |watermark: u64| (watermark as usize).saturating_sub(1).min(N);
        let at_a_boundary = |rows: usize| rows.is_multiple_of(CHUNK) || rows == N;
        let race = |verb: &(dyn Fn(&mut Client) + Sync), config: ServerConfig| {
            let (server, rows) = seam_server(config);
            let mut feed = Client::connect(server.local_addr()).expect("feed connects");
            let mut control = Client::connect(server.local_addr()).expect("control connects");
            let fed = std::thread::scope(|scope| {
                let fed = scope.spawn(|| feed.ingest(&block).expect("ingest io"));
                while control.stats().expect("stats io").expect("stats ok").events == 0 {}
                verb(&mut control);
                fed.join().expect("feed joins")
            });
            (server, rows, fed, control)
        };
        let tight = ServerConfig {
            queue_depth: 1,
            ..ServerConfig::default()
        };
        let mut between = 0;
        for _ in 0..3 {
            // DRAIN: what it pushes is final, and nothing is pushed twice.
            let drain = |control: &mut Client| drop(control.drain().expect("drain io"));
            let (server, rows, fed, mut control) = race(&drain, tight.clone());
            assert_eq!(fed.expect("ingest ok").ingested, N as u64);
            control.finish().expect("finish io").expect("finish ok");
            assert_eq!(
                rows.join().expect("subscriber joins"),
                seam_rows(&case, &case.events)
            );
            server.shutdown();

            // FINISH: the rows before it are in, the rest of the block is
            // refused, and what was pushed is what those rows make.
            let finish = |control: &mut Client| drop(control.finish().expect("finish io"));
            let (server, rows, fed, mut control) = race(&finish, tight.clone());
            let events = control.stats().expect("stats io").expect("stats ok").events as usize;
            assert!(
                at_a_boundary(events),
                "FINISH landed inside a chunk, at row {events}"
            );
            match fed {
                Ok(report) => assert_eq!((report.ingested as usize, events), (N, N)),
                Err(refusal) => assert_eq!(refusal, "session finished"),
            }
            between += usize::from(events < N);
            let pushed = rows.join().expect("subscriber joins");
            assert_eq!(pushed, seam_rows(&case, &case.events[..events]));
            server.shutdown();

            // SNAPSHOT (nothing drained before it, so the snapshot holds
            // every window): restored and fed the rows after its
            // watermark, it finishes to the whole stream's results.
            let snapshots = Fixture::dir("verbs-between-chunks");
            let path = snapshots.path("mid-block.snap");
            let snapshot = |control: &mut Client| {
                control
                    .snapshot(&path)
                    .expect("snapshot io")
                    .expect("snapshot ok");
            };
            let quiet = ServerConfig {
                drain_on_ingest: false,
                ..tight.clone()
            };
            let (server, _, fed, _) = race(&snapshot, quiet);
            assert_eq!(fed.expect("ingest ok").ingested, N as u64);
            server.shutdown();
            let file = std::fs::File::open(&path).expect("snapshot written");
            let mut restored = (Session::builder())
                .restore(&case.registry, std::io::BufReader::new(file))
                .expect("snapshot restores");
            let held = rows_until(restored.watermark().ticks());
            assert!(
                at_a_boundary(held),
                "SNAPSHOT landed inside a chunk, at row {held}"
            );
            between += usize::from(held < N);
            case.events[held..].iter().for_each(|e| restored.process(e));
            let mut rows: Vec<String> = (restored.finish().iter())
                .map(|t| t.result.to_string())
                .collect();
            rows.sort();
            assert_eq!(rows, seam_rows(&case, &case.events));
        }
        assert!(
            between > 0,
            "no FINISH or SNAPSHOT of six landed inside its block"
        );
    });
}

/// Served from here on: the mixed-grained stock query, one worker.
fn stock_server(seed: u64, n: usize) -> (Server, String) {
    let case = workload(STOCK_MIXED, seed, n);
    let server = Server::spawn(
        Session::builder().query(case.roster[0].0.as_str()),
        case.registry.clone(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("server starts");
    (server, write_events(&case.events, &case.registry))
}

#[test]
fn duplicate_query_roster_shares_one_run_and_fans_out_identically() {
    watchdog("duplicate-roster", || {
        let case = workload(STOCK_MIXED, 5, 300);
        let csv = write_events(&case.events, &case.registry);
        let query = case.roster[0].0.as_str();
        let server = Server::spawn(
            Session::builder().query(query).query(query),
            case.registry,
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .expect("server starts");
        let addr = server.local_addr();

        // One subscriber per roster entry: both SUBSCRIBE streams must be
        // byte-identical — the shared physical run fans out to each.
        let collectors: Vec<_> = (0..2)
            .map(|q| {
                let subscription = Client::connect(addr)
                    .expect("subscriber connects")
                    .subscribe(Some(q))
                    .expect("subscribe io")
                    .expect("subscribe accepted");
                std::thread::spawn(move || {
                    subscription
                        .map(|item| item.expect("well-formed result line").1)
                        .collect::<Vec<String>>()
                })
            })
            .collect();

        let mut feed = Client::connect(addr).expect("feed connects");
        feed.ingest(&csv).expect("ingest io").expect("ingest ok");
        let stats = feed.stats().expect("stats io").expect("stats ok");
        let finish = feed.finish().expect("finish io").expect("finish ok");

        // STATS says the shared run executed once: 2 queries, 1 physical.
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.physical, 1, "STATS must report the collapsed roster");
        assert_eq!(finish.physical, 1);

        let mut streams = collectors
            .into_iter()
            .map(|c| c.join().expect("subscriber joins"));
        let q0 = streams.next().unwrap();
        let q1 = streams.next().unwrap();
        assert!(!q0.is_empty(), "the workload must produce results");
        assert_eq!(q0, q1, "duplicate SUBSCRIBE streams must be byte-identical");
        assert_eq!(finish.results, (q0.len() + q1.len()) as u64);
        server.shutdown();
    });
}

#[test]
fn reconnect_after_finish_is_an_error() {
    watchdog("reconnect-after-finish", || {
        let (server, csv) = stock_server(3, 60);
        let addr = server.local_addr();

        let mut feed = Client::connect(addr).expect("connects");
        feed.ingest(&csv).expect("io").expect("ingest ok");
        feed.finish().expect("io").expect("finish ok");

        // Same connection: the session is gone for every mutating verb.
        let err = feed.finish().expect("io").unwrap_err();
        assert!(err.contains("session finished"), "{err}");
        let err = feed.ingest(&csv).expect("io").unwrap_err();
        assert!(err.contains("session finished"), "{err}");

        // Reconnect: same answer — the server outlives the session and
        // keeps refusing, it does not hang or accept new events.
        let mut late_client = Client::connect(addr).expect("reconnects");
        let err = late_client.ingest(&csv).expect("io").unwrap_err();
        assert!(err.contains("session finished"), "{err}");
        let stats = late_client.stats().expect("io").expect("stats still ok");
        assert!(stats.finished);
        assert_eq!(stats.events, 60);
        // Per-shard ingest counters ride STATS: one worker, one shard,
        // so the whole stream sits in one slot.
        assert_eq!(stats.shard_events, vec![60]);

        // A late subscription is answered with an immediate EOS — the
        // results were push-only, nothing is replayed.
        let drained: Vec<_> = Client::connect(addr)
            .expect("reconnects")
            .subscribe(None)
            .expect("io")
            .expect("subscribe accepted")
            .collect();
        assert!(drained.is_empty(), "{drained:?}");

        server.shutdown();
    });
}

#[test]
fn protocol_error_replies() {
    watchdog("protocol-errors", || {
        let (server, _) = stock_server(1, 10);
        let addr = server.local_addr();

        // Subscribing to a query the session does not have.
        let err = Client::connect(addr)
            .expect("connects")
            .subscribe(Some(5))
            .expect("io")
            .unwrap_err();
        assert!(err.contains("unknown query q5"), "{err}");

        // Raw socket: unknown verbs and malformed INGEST counts answer
        // ERR without killing the connection.
        let mut raw = Raw::connect(addr);
        let line = raw.ask("NONSENSE\n");
        assert!(line.starts_with("ERR unknown command"), "{line}");
        let line = raw.ask("INGEST many\n");
        assert!(line.starts_with("ERR INGEST needs a line count"), "{line}");
        let line = raw.ask("QUIT\n");
        assert!(line.starts_with("OK bye"), "{line}");

        // A newline-free flood is answered with ERR at the line-length
        // cap and the connection is closed — not buffered unbounded.
        // Exactly the cap, no newline: the server consumes every byte
        // (so this write cannot be cut short by its close), hits the
        // limit, and answers ERR.
        let mut flood = Raw::connect(addr);
        let line = flood.ask(vec![b'x'; 1024 * 1024]);
        assert!(
            line.starts_with("ERR") && line.contains("line-length limit"),
            "{line}"
        );
        // The server closes with part of the flood unread, so the tail
        // is either a clean EOF or a reset — both mean "closed".
        assert_eq!(flood.reply(), None, "connection still open after the cap");

        // An INGEST block is capped in bytes too (1M lines of up to 1 MiB
        // each would otherwise be a terabyte): 64 lines of exactly 1 MiB
        // — the line cap, so the byte cap is what trips — out of the
        // 100000 announced. As above the server consumes every byte
        // before it answers and closes.
        let mut mebibyte = vec![b'x'; 1024 * 1024];
        *mebibyte.last_mut().unwrap() = b'\n';
        let mut big = Raw::connect(addr);
        big.send("INGEST 100000\n");
        (0..63).for_each(|_| big.send(&mebibyte));
        assert_eq!(
            big.ask(&mebibyte),
            "ERR INGEST block too large (max 67108864 bytes)\n",
            "the sibling of the line-count reply"
        );
        assert_eq!(big.reply(), None, "connection still open after the cap");
        // The line-count cap still answers on a connection that lives on.
        assert_eq!(
            Raw::connect(addr).ask("INGEST 1000001\n"),
            "ERR INGEST block too large (max 1000000 lines)\n"
        );

        server.shutdown();
    });
}

#[test]
fn subscribers_get_their_streams_whole_and_a_stalled_one_is_dropped() {
    watchdog("multi-subscriber", || {
        // q0 once, q1 in many copies: sharing runs the copies as one
        // physical run and fans every result out to each, so a `*`
        // subscriber is owed far more bytes than loopback buffers hold.
        const COPIES: usize = 150;
        let registry = stock::registry();
        let events = stock::generate(&StockConfig {
            events: 6_000,
            seed: 3,
            ..StockConfig::default()
        });
        let csv = write_events(&events, &registry);
        let (sparse, dense) = (stock::q3_query(50, 25), stock::q3_query(10, 5));
        let mut lines = csv.lines();
        let header = lines.next().expect("csv has a header");
        let rows: Vec<&str> = lines.collect();
        let blocks: Vec<String> = rows
            .chunks(500)
            .map(|block| format!("{header}\n{}\n", block.join("\n")))
            .collect();

        // Unbatched, in process: each block ingested and drained, every
        // row formatted as it is emitted.
        let mut reference = Session::builder()
            .query(sparse.as_str())
            .query(dense.as_str())
            .build(&registry)
            .expect("reference session builds");
        let mut expected: [Vec<String>; 2] = [Vec::new(), Vec::new()];
        let mut sink =
            |query: usize, result: WindowResult| expected[query].push(result.to_string());
        for block in &blocks {
            reference.ingest_csv(block, &registry).expect("ingests");
            reference.drain_into(&mut sink);
        }
        reference.finish_into(&mut sink);
        let owed_to_all: usize = expected[0].iter().map(|row| row.len() + 11).sum::<usize>()
            + COPIES * expected[1].iter().map(|row| row.len() + 11).sum::<usize>();
        assert!(
            owed_to_all > 8 << 20,
            "the `*` stream ({owed_to_all} bytes) must not fit in the socket buffers of a \
             peer that never reads (Linux: 4 MiB of send buffer + 128 KiB of window)"
        );

        let mut builder = Session::builder().query(sparse.as_str());
        for _ in 0..COPIES {
            builder = builder.query(dense.as_str());
        }
        let timeout = Duration::from_secs(1);
        let server = Server::spawn(
            builder,
            registry,
            "127.0.0.1:0",
            ServerConfig {
                subscriber_write_timeout: timeout,
                ..ServerConfig::default()
            },
        )
        .expect("server starts");
        let addr = server.local_addr();

        // Two reading subscribers with different filters...
        let collectors: Vec<_> = (0..2)
            .map(|q| {
                let subscription = Client::connect(addr)
                    .expect("subscriber connects")
                    .subscribe(Some(q))
                    .expect("subscribe io")
                    .expect("subscribe accepted");
                std::thread::spawn(move || {
                    subscription
                        .map(|item| item.expect("well-formed result line"))
                        .collect::<Vec<(usize, String)>>()
                })
            })
            .collect();
        // ...and one that subscribes to everything and stops reading.
        let mut stalled = Raw::connect(addr);
        assert_eq!(stalled.ask("SUBSCRIBE *\n"), "OK subscribed *\n");

        let started = std::time::Instant::now();
        let mut feed = Client::connect(addr).expect("feed connects");
        for block in &blocks {
            feed.ingest(block).expect("ingest io").expect("ingest ok");
        }
        let finish = feed.finish().expect("finish io").expect("finish ok");
        let elapsed = started.elapsed();

        // The readers got exactly their query's rows, in emission order,
        // and the EOS that ends the iteration.
        for (q, collector) in collectors.into_iter().enumerate() {
            let got = collector.join().expect("subscriber joins");
            assert!(got.iter().all(|(query, _)| *query == q), "q{q} filter");
            let rows: Vec<String> = got.into_iter().map(|(_, row)| row).collect();
            assert_eq!(rows, expected[q], "q{q} stream");
        }
        assert_eq!(
            finish.results as usize,
            expected[0].len() + COPIES * expected[1].len()
        );
        // The stalled one was cut off once a write to it timed out — it
        // holds only what the socket buffers took, and no EOS — and cost
        // the others a few timeouts (the kernel hands a blocked write back
        // partly done while its buffers still grow), not one per drain:
        // the buffers are full with seven of the twelve blocks to come.
        let received = stalled.rest();
        assert!(
            received.len() < owed_to_all && !received.ends_with(b"EOS\n"),
            "the stalled subscriber was served to the end ({} bytes)",
            received.len()
        );
        assert!(
            elapsed >= timeout && elapsed < timeout * 8,
            "feeding took {elapsed:?} around a {timeout:?} write timeout"
        );
        server.shutdown();
    });
}

#[test]
fn misbehaving_connections_do_not_take_the_server_down() {
    watchdog("misbehaving-connections", || {
        let (server, csv) = stock_server(11, 80);
        let addr = server.local_addr();

        // Hostile connection 1: binary garbage, then an abrupt drop.
        Raw::connect(addr).send(b"\x00\xffINGEST\x07 not-a-count\n\x13\x37\n");

        // Hostile connection 2: announce an INGEST block, send half of
        // it, and vanish mid-payload.
        Raw::connect(addr).send("INGEST 500\ntype,time\n");

        // Hostile connection 3: a well-formed verb answered with ERR,
        // then the connection is dropped.
        let line = Raw::connect(addr).ask("FEED ME\n");
        assert!(line.starts_with("ERR unknown command"), "{line}");

        // A healthy connection still gets full service: ingest, finish,
        // and the wait_finished() handshake all work.
        let mut feed = Client::connect(addr).expect("healthy client connects");
        feed.ingest(&csv).expect("ingest io").expect("ingest ok");
        let report = feed.finish().expect("finish io").expect("finish ok");
        assert!(report.finished);
        assert_eq!(report.events, 80);
        assert!(
            server.wait_finished(Duration::from_secs(30)),
            "wait_finished sees the FINISH despite earlier hostile connections"
        );
        server.shutdown();
    });
}

#[test]
fn server_refuses_nonlocal_bind() {
    watchdog("loopback-guard", || {
        let case = workload(STOCK_MIXED, 1, 10);
        let (registry, builder) = (
            case.registry,
            Session::builder().query(case.roster[0].0.as_str()),
        );
        let err = match Server::spawn(
            builder.clone(),
            registry.clone(),
            "0.0.0.0:0",
            ServerConfig::default(),
        ) {
            Err(e) => e,
            Ok(_) => panic!("non-loopback bind must be refused by default"),
        };
        assert!(
            matches!(err, ServeError::NotLoopback(_)),
            "unexpected error {err}"
        );

        // The guard is an explicit opt-out, not a hard limit.
        let server = Server::spawn(
            builder,
            registry,
            "0.0.0.0:0",
            ServerConfig {
                allow_nonlocal: true,
                ..ServerConfig::default()
            },
        )
        .expect("explicit opt-in binds");
        server.shutdown();
    });
}
