//! End-to-end differential battery for the network front-end: a
//! workload replayed over a loopback socket through `cogra-server` must
//! be **byte-identical** to the same `Session` run in-process — results,
//! late-drop counts, and run stats — across workloads
//! {stock, rideshare, transport} × workers {1, 4} × slack {0, 8},
//! including mid-stream `DRAIN`s. Plus the protocol's error cases:
//! reconnect-after-`FINISH`, double `FINISH`, and the loopback-only
//! bind guard.
//!
//! Both sides consume the *same CSV text* (the server through `INGEST`
//! blocks, the reference through `Session::run_csv`), so any divergence
//! is the server's fault — framing, chunking, actor ordering, or sink
//! plumbing — never a decode asymmetry.
//!
//! Every test body runs under a watchdog so a hung accept loop or a
//! deadlocked actor fails fast instead of stalling CI.

use cogra::prelude::*;
use cogra::workloads::{rideshare, stock, transport};
use cogra::workloads::{RideshareConfig, StockConfig, TransportConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::mpsc;
use std::time::Duration;

/// Per-test timeout: generous for debug builds, far below CI's patience.
const WATCHDOG_SECS: u64 = 120;

/// Run `f` on its own thread; panic if it does not finish in time. A
/// hung server (accept loop, actor, subscriber) then fails the test
/// instead of hanging the whole `cargo test` job.
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
        Err(_) => panic!("{name}: hung for {WATCHDOG_SECS}s (accept loop / actor deadlock?)"),
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
        _ => (
            transport::registry(),
            transport::next_query(40, 20),
            transport::generate(&TransportConfig {
                events: n,
                seed,
                ..TransportConfig::default()
            }),
        ),
    }
}

/// Disorder the *arrival* order with bounded displacement: each event's
/// sort key is its time plus a random offset in `[0, extent]`, ties
/// broken by original position. With `extent` above the session's slack
/// some events arrive hopelessly late — exercising identical late-drop
/// accounting on both paths.
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

/// Serve `csv` over a loopback socket in `chunk`-row `INGEST` blocks
/// with a `DRAIN` after every block; return the pushed result lines (as
/// `q<i> <row>` strings, unsorted), the per-drain reports, and the
/// `FINISH` report.
fn serve_csv(
    query: &str,
    registry: &TypeRegistry,
    csv: &str,
    workers: usize,
    slack: u64,
    chunk: usize,
) -> (Vec<String>, Vec<StatsReport>, StatsReport) {
    let server = Server::spawn(
        builder_for(query, workers, slack),
        registry.clone(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("server starts");
    let addr = server.local_addr();

    let subscription = Client::connect(addr)
        .expect("subscriber connects")
        .subscribe(None)
        .expect("subscribe io")
        .expect("subscribe accepted");
    let collector = std::thread::spawn(move || {
        subscription
            .map(|item| {
                let (q, row) = item.expect("well-formed result line");
                format!("q{q} {row}")
            })
            .collect::<Vec<String>>()
    });

    let mut feed = Client::connect(addr).expect("feed connects");
    let mut lines = csv.lines();
    let header = lines.next().expect("csv has a header");
    let rows: Vec<&str> = lines.collect();
    let mut drains = Vec::new();
    for block in rows.chunks(chunk.max(1)) {
        let mut doc = String::with_capacity(header.len() + block.len() * 24);
        doc.push_str(header);
        doc.push('\n');
        for row in block {
            doc.push_str(row);
            doc.push('\n');
        }
        feed.ingest(&doc).expect("ingest io").expect("ingest ok");
        drains.push(feed.drain().expect("drain io").expect("drain ok"));
    }
    let finish = feed.finish().expect("finish io").expect("finish ok");
    let pushed = collector.join().expect("subscriber joins");
    server.shutdown();
    (pushed, drains, finish)
}

/// The differential core: socket-served vs in-process, byte for byte.
/// Returns `(mid_stream_results, late_drops)` — the number of results
/// already emitted by the last mid-stream drain and the late-drop count
/// — for the battery-wide liveness checks ("results flow before FINISH";
/// "the slack axis actually drops events, 0 == 0 proves nothing").
fn diff_case(
    wl: usize,
    seed: u64,
    n: usize,
    workers: usize,
    slack: u64,
    chunk: usize,
) -> (u64, u64) {
    let (registry, query, events) = workload(wl, seed, n);
    let events = if slack > 0 {
        // Displacement beyond the slack: some drops on both paths.
        jitter(events, slack + 4, seed ^ 0x9e37)
    } else {
        events
    };
    let csv = write_events(&events, &registry);

    // In-process reference: the same CSV text through Session::run_csv.
    let reference = builder_for(&query, workers, slack)
        .build(&registry)
        .expect("reference session builds")
        .run_csv(&csv, &registry)
        .expect("reference ingests");
    let mut expected: Vec<String> = reference
        .per_query
        .iter()
        .enumerate()
        .flat_map(|(q, results)| results.iter().map(move |r| format!("q{q} {r}")))
        .collect();
    expected.sort();

    let (mut pushed, drains, finish) = serve_csv(&query, &registry, &csv, workers, slack, chunk);
    pushed.sort();

    let label = format!("workload {wl} workers {workers} slack {slack} chunk {chunk}");
    assert_eq!(pushed, expected, "results differ ({label})");
    assert_eq!(finish.events, reference.events, "event counts ({label})");
    assert_eq!(finish.late, reference.late_events, "late drops ({label})");
    assert_eq!(finish.workers, reference.workers, "workers ({label})");
    assert_eq!(
        (finish.key_probes, finish.key_allocs),
        (reference.stats.key_probes, reference.stats.key_allocs),
        "run stats ({label})"
    );
    assert_eq!(
        finish.results,
        expected.len() as u64,
        "result count ({label})"
    );
    assert!(finish.finished, "finish reply says finished ({label})");

    // Mid-stream DRAIN prefix-consistency: the emitted count only grows,
    // never exceeds the final total, and everything pushed before FINISH
    // is part of the final (reference-identical) set — the subscriber
    // stream is append-only, so the multiset equality above seals it.
    let mut last = 0u64;
    for report in &drains {
        assert!(
            report.results >= last,
            "drain counter regressed ({label}): {} < {last}",
            report.results
        );
        last = report.results;
    }
    assert!(last <= finish.results, "drains exceed finish ({label})");
    (last, finish.late)
}

#[test]
fn grid_socket_equals_in_process() {
    // The full acceptance grid: ≥3 workloads × workers {1,4} × slack
    // {0,8}, chunked ingest with a DRAIN between chunks.
    let mut mid_stream_results = 0u64;
    let mut late_drops = 0u64;
    for wl in 0..3 {
        for workers in [1usize, 4] {
            for slack in [0u64, 8] {
                let label = format!("grid wl={wl} workers={workers} slack={slack}");
                let (mid, late) = watchdog(&label.clone(), move || {
                    diff_case(wl, 7, 400, workers, slack, 90)
                });
                mid_stream_results += mid;
                late_drops += late;
            }
        }
    }
    // Liveness: across the grid, windows closed (and were pushed) while
    // streams were still flowing — the server is not buffer-and-reply.
    assert!(
        mid_stream_results > 0,
        "no grid case emitted results before FINISH"
    );
    // The slack axis must have exercised real drops: both paths counting
    // zero late events would make the late-drop parity assertion vacuous.
    assert!(late_drops > 0, "the jittered grid cases dropped no events");
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
        let workers = [1usize, 4][workers_idx];
        let slack = [0u64, 8][slack_idx];
        let label = format!("prop wl={wl} workers={workers} slack={slack} seed={seed}");
        watchdog(&label.clone(), move || {
            diff_case(wl, seed, n, workers, slack, chunk);
        });
    }
}

#[test]
fn duplicate_query_roster_shares_one_run_and_fans_out_identically() {
    watchdog("duplicate-roster", || {
        let (registry, query, events) = workload(0, 5, 300);
        let csv = write_events(&events, &registry);
        let server = Server::spawn(
            Session::builder()
                .query(query.as_str())
                .query(query.as_str()),
            registry,
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
fn records_spanning_lines_survive_the_socket_in_any_chunking() {
    watchdog("multi-line-records", || {
        // Cells holding newlines, `\r`, quotes and nothing: `INGEST` counts
        // physical lines and `replay_csv` cuts blocks at record ends, so a
        // record spanning lines is never split, whatever the block size.
        let mut registry = TypeRegistry::new();
        registry.register_type(
            "Note",
            vec![("g", ValueKind::Int), ("text", ValueKind::Str)],
        );
        let note = registry.id_of("Note").unwrap();
        let texts = ["a\nb", "", "c\r", "say \"hi\"", "\r\n,", "plain"];
        let mut builder = EventBuilder::new();
        let events: Vec<Event> = (0..60)
            .map(|i| {
                let attrs = vec![
                    Value::Int(i % 3),
                    Value::str(texts[i as usize % texts.len()]),
                ];
                builder.event(i as u64 + 1, note, attrs)
            })
            .collect();
        let csv = write_events(&events, &registry);
        assert!(csv.lines().count() > events.len() + 1, "records span lines");
        let query = "RETURN g, COUNT(*) PATTERN Note N+ SEMANTICS skip-till-any-match \
                     WHERE [g] GROUP-BY g WITHIN 20 SLIDE 10";
        let reference = Session::builder()
            .query(query)
            .build(&registry)
            .expect("reference session builds")
            .run_csv(&csv, &registry)
            .expect("reference ingests");
        let mut expected: Vec<String> = reference.per_query[0]
            .iter()
            .map(|r| r.to_string())
            .collect();
        expected.sort();
        assert!(!expected.is_empty());

        for rows_per_block in [1, 7, 1000] {
            let server = Server::spawn(
                Session::builder().query(query),
                registry.clone(),
                "127.0.0.1:0",
                ServerConfig::default(),
            )
            .expect("server starts");
            let subscription = Client::connect(server.local_addr())
                .expect("subscriber connects")
                .subscribe(Some(0))
                .expect("subscribe io")
                .expect("subscribe accepted");
            let mut feed = Client::connect(server.local_addr()).expect("feed connects");
            feed.replay_csv(&csv, rows_per_block)
                .expect("replay io")
                .expect("replay ok");
            let finish = feed.finish().expect("finish io").expect("finish ok");
            assert_eq!(finish.events, 60, "rows per block {rows_per_block}");
            let mut pushed: Vec<String> = subscription
                .map(|item| item.expect("well-formed result line").1)
                .collect();
            pushed.sort();
            assert_eq!(pushed, expected, "rows per block {rows_per_block}");
            server.shutdown();
        }
    });
}

#[test]
fn reconnect_after_finish_is_an_error() {
    watchdog("reconnect-after-finish", || {
        let (registry, query, events) = workload(0, 3, 60);
        let csv = write_events(&events, &registry);
        let server = Server::spawn(
            builder_for(&query, 1, 0),
            registry,
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .expect("server starts");
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
        let (registry, query, _) = workload(2, 1, 10);
        let server = Server::spawn(
            builder_for(&query, 1, 0),
            registry,
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .expect("server starts");
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
        use std::io::{BufRead, BufReader, Write};
        let mut raw = std::net::TcpStream::connect(addr).expect("connects");
        let mut replies = BufReader::new(raw.try_clone().expect("clone"));
        let mut line = String::new();
        raw.write_all(b"NONSENSE\n").expect("write");
        replies.read_line(&mut line).expect("read");
        assert!(line.starts_with("ERR unknown command"), "{line}");
        line.clear();
        raw.write_all(b"INGEST many\n").expect("write");
        replies.read_line(&mut line).expect("read");
        assert!(line.starts_with("ERR INGEST needs a line count"), "{line}");
        line.clear();
        raw.write_all(b"QUIT\n").expect("write");
        replies.read_line(&mut line).expect("read");
        assert!(line.starts_with("OK bye"), "{line}");

        // A newline-free flood is answered with ERR at the line-length
        // cap and the connection is closed — not buffered unbounded.
        let mut flood = std::net::TcpStream::connect(addr).expect("connects");
        let mut flood_replies = BufReader::new(flood.try_clone().expect("clone"));
        // Exactly the cap, no newline: the server consumes every byte
        // (so this write cannot be cut short by its close), hits the
        // limit, and answers ERR.
        flood.write_all(&vec![b'x'; 1024 * 1024]).expect("write");
        line.clear();
        flood_replies.read_line(&mut line).expect("read");
        assert!(
            line.starts_with("ERR") && line.contains("line-length limit"),
            "{line}"
        );
        line.clear();
        // The server closes with part of the flood unread, so the tail
        // is either a clean EOF or a reset — both mean "closed".
        match flood_replies.read_line(&mut line) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("connection still open after the cap: read {n} bytes `{line}`"),
        }

        // An INGEST block is capped in bytes too (1M lines of up to 1 MiB
        // each would otherwise be a terabyte): 64 lines of exactly 1 MiB
        // — the line cap, so the byte cap is what trips — out of the
        // 100000 announced. As above the server consumes every byte
        // before it answers and closes.
        let mut big = std::net::TcpStream::connect(addr).expect("connects");
        let mut big_replies = BufReader::new(big.try_clone().expect("clone"));
        let mut mebibyte = vec![b'x'; 1024 * 1024];
        *mebibyte.last_mut().unwrap() = b'\n';
        big.write_all(b"INGEST 100000\n").expect("write");
        for _ in 0..64 {
            big.write_all(&mebibyte).expect("write");
        }
        line.clear();
        big_replies.read_line(&mut line).expect("read");
        assert_eq!(
            line, "ERR INGEST block too large (max 67108864 bytes)\n",
            "the sibling of the line-count reply"
        );
        line.clear();
        match big_replies.read_line(&mut line) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("connection still open after the cap: read {n} bytes `{line}`"),
        }
        // The line-count cap still answers on a connection that lives on.
        let mut raw = std::net::TcpStream::connect(addr).expect("connects");
        let mut replies = BufReader::new(raw.try_clone().expect("clone"));
        raw.write_all(b"INGEST 1000001\n").expect("write");
        line.clear();
        replies.read_line(&mut line).expect("read");
        assert_eq!(line, "ERR INGEST block too large (max 1000000 lines)\n");

        server.shutdown();
    });
}

#[test]
fn subscribers_get_their_streams_whole_and_a_stalled_one_is_dropped() {
    watchdog("multi-subscriber", || {
        use std::io::{BufRead, BufReader, Read, Write};

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
        let mut stalled = std::net::TcpStream::connect(addr).expect("connects");
        stalled.write_all(b"SUBSCRIBE *\n").expect("write");
        let mut stalled_stream = BufReader::new(stalled.try_clone().expect("clone"));
        let mut line = String::new();
        stalled_stream.read_line(&mut line).expect("read");
        assert_eq!(line, "OK subscribed *\n");

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
        let mut received = Vec::new();
        stalled_stream
            .read_to_end(&mut received)
            .expect("the dropped subscriber's socket was closed");
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
        use std::io::{BufRead, BufReader, Write};

        let (registry, query, events) = workload(0, 11, 80);
        let csv = write_events(&events, &registry);
        let server = Server::spawn(
            builder_for(&query, 1, 0),
            registry,
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .expect("server starts");
        let addr = server.local_addr();

        // Hostile connection 1: binary garbage, then an abrupt drop.
        let mut garbage = std::net::TcpStream::connect(addr).expect("connects");
        garbage
            .write_all(b"\x00\xffINGEST\x07 not-a-count\n\x13\x37\n")
            .expect("write");
        drop(garbage);

        // Hostile connection 2: announce an INGEST block, send half of
        // it, and vanish mid-payload.
        let mut truncated = std::net::TcpStream::connect(addr).expect("connects");
        truncated
            .write_all(b"INGEST 500\ntype,time\n")
            .expect("write");
        drop(truncated);

        // Hostile connection 3: a well-formed verb answered with ERR,
        // then the connection keeps being served.
        let mut raw = std::net::TcpStream::connect(addr).expect("connects");
        let mut replies = BufReader::new(raw.try_clone().expect("clone"));
        let mut line = String::new();
        raw.write_all(b"FEED ME\n").expect("write");
        replies.read_line(&mut line).expect("read");
        assert!(line.starts_with("ERR unknown command"), "{line}");
        drop(raw);

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
        let (registry, query, _) = workload(0, 1, 10);
        let err = match Server::spawn(
            builder_for(&query, 1, 0),
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
            builder_for(&query, 1, 0),
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
