//! The `csv::EventReader` error paths, as seen from every ingestion
//! surface. The CLI (`run_csv`) and the network front-end
//! (`INGEST` → `Session::ingest_csv`) share ONE decode path, so a given
//! malformed stream must produce the **same `IngestError`** on both —
//! asserted here by computing the expected error once (straight from
//! `Session::ingest_csv`, the shared site) and matching the CLI's stderr
//! and the server's `ERR` reply against it, byte for byte.
//!
//! Covered: a truncated row (field-count mismatch), a time-regressing
//! row without `.slack(n)` — each also in the first, a middle and the last
//! of the chunks a long `INGEST` block reaches the session in —, and
//! non-UTF-8 input (which each surface rejects *before* the decode path —
//! with its own transport's wording, since `EventReader` itself only ever
//! sees `&str`).

mod common;

use cogra::prelude::*;

const SCHEMA: &str = "type,attr,kind\n\
                      Measurement,patient,int\n\
                      Measurement,rate,int\n";

const QUERY: &str = "RETURN patient, COUNT(*)\n\
                     PATTERN Measurement M+\n\
                     SEMANTICS skip-till-any-match\n\
                     WHERE [patient]\n\
                     GROUP-BY patient\n\
                     WITHIN 100 SLIDE 100\n";

/// A row with 2 fields where 4 are declared.
const TRUNCATED: &str = "type,time,patient,rate\n\
                         Measurement,1,7,60\n\
                         Measurement,2\n";

/// Time regresses 5 → 3 with no slack to repair it.
const OUT_OF_ORDER: &str = "type,time,patient,rate\n\
                            Measurement,5,7,60\n\
                            Measurement,3,7,61\n";

/// Three distinct patients — one more than the `--key-limit 2` cap the
/// key-overflow test configures.
const THREE_PATIENTS: &str = "type,time,patient,rate\n\
                              Measurement,1,1,60\n\
                              Measurement,2,2,61\n\
                              Measurement,3,3,62\n";

/// Three patients again, but never more than two with a window open
/// when a row arrives (`WITHIN 100 SLIDE 100`): patient 1's return at
/// t=150 closes window 0 and with it patient 2's partition, so patient 3
/// finds room under `--key-limit 2`.
const PATIENTS_IN_TURN: &str = "type,time,patient,rate\n\
                                Measurement,1,1,60\n\
                                Measurement,2,2,61\n\
                                Measurement,150,1,62\n\
                                Measurement,151,3,63\n";

fn registry() -> TypeRegistry {
    let mut r = TypeRegistry::new();
    r.register_type(
        "Measurement",
        vec![("patient", ValueKind::Int), ("rate", ValueKind::Int)],
    );
    r
}

/// The expected error, computed once at the shared site.
fn expected_ingest_error(csv: &str) -> String {
    let mut session = Session::builder()
        .query(QUERY)
        .build(&registry())
        .expect("query builds");
    session
        .ingest_csv(csv, &registry())
        .expect_err("stream is malformed")
        .to_string()
}

/// Run the CLI over `events` with `extra` flags; return (success, stderr).
fn run_cli(name: &str, events: &[u8], extra: &[&str]) -> (bool, String) {
    let fixture = common::Fixture::new(&format!("err-{name}"), SCHEMA, QUERY, events);
    let (ok, _, stderr) = fixture.run(extra);
    (ok, stderr)
}

/// Send `csv` through a fresh server's INGEST; return the ERR payload.
fn server_ingest_error(csv: &str) -> String {
    let server = Server::spawn(
        Session::builder().query(QUERY),
        registry(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let err = client
        .ingest(csv)
        .expect("io")
        .expect_err("stream is malformed");
    server.shutdown();
    err
}

#[test]
fn truncated_row_reports_the_same_error_on_cli_and_server() {
    let expected = expected_ingest_error(TRUNCATED);
    assert!(
        expected.contains("csv line 3") && expected.contains("expected 4 fields, found 2"),
        "{expected}"
    );

    let (ok, stderr) = run_cli("truncated", TRUNCATED.as_bytes(), &[]);
    assert!(!ok);
    assert!(
        stderr.contains(&expected),
        "cli: {stderr}\nwant: {expected}"
    );

    let server_err = server_ingest_error(TRUNCATED);
    assert_eq!(server_err, expected, "server vs shared decode path");
}

/// Ingestion is not transactional: the rows before a bad row are in the
/// engines, and every counter says so — the server's `STATS events` too,
/// which used to count only blocks that decoded to the end (and so fell
/// behind `shards=`, and behind `late=` on a slack session, for good).
#[test]
fn rows_before_a_bad_row_are_counted_by_every_surface() {
    // Three rows, the third late under slack 1 (the second has released
    // the first), then the truncated row.
    const BLOCK: &str = "type,time,patient,rate\n\
                         Measurement,5,7,60\n\
                         Measurement,9,7,61\n\
                         Measurement,3,7,62\n\
                         Measurement,10\n";
    let builder = || Session::builder().query(QUERY).slack(1);

    // The shared site, as the CLI's `run_csv` error path leaves it.
    let mut session = builder().build(&registry()).expect("query builds");
    let expected = session
        .ingest_csv(BLOCK, &registry())
        .expect_err("the fourth row is truncated")
        .to_string();
    let metrics = session.metrics();
    assert_eq!((metrics.events, metrics.late), (3, 1));

    let server = Server::spawn(
        builder(),
        registry(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let err = client.ingest(BLOCK).expect("io").expect_err("truncated");
    assert_eq!(err, expected);
    let stats = client.stats().expect("io").expect("stats ok");
    assert_eq!((stats.events, stats.late), (3, 1), "{stats:?}");
    // What the shards hold was counted (the row at 9 is still in the
    // reorder buffer): `events - late`, as `cogra-run connect` prints
    // it, can no longer underflow or fall behind `shards=`.
    assert!(stats.events - stats.late >= stats.shard_events.iter().sum::<u64>());
    // A good block afterwards counts on from there.
    let report = client
        .ingest("type,time,patient,rate\nMeasurement,11,7,62\n")
        .expect("io")
        .expect("ingest ok");
    assert_eq!((report.ingested, report.events), (1, 4));
    server.shutdown();
}

/// The server decodes an `INGEST` block on the connection's thread and
/// hands it to the session in chunks: wherever in the block the bad row
/// sits, the reply is the text `Session::ingest_csv` (and so the CLI)
/// gives, exactly the rows before it are ingested, and the rest of the
/// block — the chunks already on their way included — is discarded.
#[test]
fn a_bad_row_in_any_chunk_of_a_block_is_the_shared_paths_error() {
    use cogra::server::INGEST_CHUNK_ROWS as CHUNK;
    const ROWS: usize = 3 * CHUNK + 7;
    let block = |bad: usize, row: &str| {
        let mut csv = String::from("type,time,patient,rate\n");
        for i in 0..ROWS {
            if i == bad {
                csv.push_str(row);
            } else {
                csv.push_str(&format!("Measurement,{},{},60\n", i + 10, i % 5));
            }
        }
        csv
    };
    // First chunk, a middle one, the last one; and both sides of a seam.
    for bad in [5, CHUNK - 1, CHUNK, CHUNK + 40, 3 * CHUNK + 3, ROWS - 1] {
        for row in ["Measurement,2\n", "Measurement,3,7,61\n"] {
            let csv = block(bad, row);
            let mut session = Session::builder()
                .query(QUERY)
                .build(&registry())
                .expect("query builds");
            let expected = session
                .ingest_csv(&csv, &registry())
                .expect_err("one row is bad")
                .to_string();
            assert_eq!(session.metrics().events, bad as u64);

            let server = Server::spawn(
                Session::builder().query(QUERY),
                registry(),
                "127.0.0.1:0",
                ServerConfig::default(),
            )
            .expect("server starts");
            let mut client = Client::connect(server.local_addr()).expect("connects");
            let err = client
                .ingest(&csv)
                .expect("io")
                .expect_err("one row is bad");
            assert_eq!(err, expected, "row {bad}: server vs shared decode path");
            let stats = client.stats().expect("io").expect("stats ok");
            assert_eq!(
                stats.events, bad as u64,
                "row {bad}: rows before it, no more"
            );
            // The next block starts clean, after the rows that made it in.
            let next = format!("type,time,patient,rate\nMeasurement,{},1,60\n", ROWS + 10);
            let report = client.ingest(&next).expect("io").expect("ingest ok");
            assert_eq!((report.ingested, report.events), (1, bad as u64 + 1));
            server.shutdown();

            if bad == CHUNK + 40 {
                let (ok, stderr) = run_cli("bad-row-mid-block", csv.as_bytes(), &[]);
                assert!(
                    !ok && stderr.contains(&expected),
                    "cli: {stderr}\nwant: {expected}"
                );
            }
        }
    }
}

#[test]
fn out_of_order_without_slack_reports_the_same_error_on_cli_and_server() {
    let expected = expected_ingest_error(OUT_OF_ORDER);
    assert!(
        expected.contains("arrived after watermark") && expected.contains("--slack"),
        "{expected}"
    );

    let (ok, stderr) = run_cli("ooo", OUT_OF_ORDER.as_bytes(), &[]);
    assert!(!ok);
    assert!(
        stderr.contains(&expected),
        "cli: {stderr}\nwant: {expected}"
    );

    let server_err = server_ingest_error(OUT_OF_ORDER);
    assert_eq!(server_err, expected, "server vs shared decode path");

    // With slack the same stream is repaired, on both surfaces alike —
    // the error is about the missing reorderer, not the data.
    let mut session = Session::builder()
        .query(QUERY)
        .slack(4)
        .build(&registry())
        .expect("query builds");
    assert_eq!(session.ingest_csv(OUT_OF_ORDER, &registry()), Ok(2));
}

#[test]
fn key_limit_overflow_reports_the_same_error_on_cli_and_server() {
    // The shared site: a session capped at 2 resident partition keys
    // fails the third patient's first event — the first two still hold
    // their window — with a typed error instead of panicking inside the
    // interner.
    let capped = || {
        Session::builder().query(QUERY).config(EngineConfig {
            key_limit: Some(2),
            ..EngineConfig::default()
        })
    };
    let expected = capped()
        .build(&registry())
        .expect("query builds")
        .ingest_csv(THREE_PATIENTS, &registry())
        .expect_err("third distinct key overflows")
        .to_string();
    assert!(
        expected.contains("limit of 2 resident partition keys") && expected.contains("--key-limit"),
        "{expected}"
    );

    let (ok, stderr) = run_cli("keylimit", THREE_PATIENTS.as_bytes(), &["--key-limit", "2"]);
    assert!(!ok);
    assert!(
        stderr.contains(&expected),
        "cli: {stderr}\nwant: {expected}"
    );

    // A limit the stream fits under runs clean on the same fixture.
    let (ok, stderr) = run_cli("keylimit", THREE_PATIENTS.as_bytes(), &["--key-limit", "3"]);
    assert!(ok, "cli: {stderr}");

    // So does a stream of three patients that holds two at a time: the
    // limit counts keys with a window open, not keys ever seen.
    let in_turn = PATIENTS_IN_TURN.as_bytes();
    let (ok, stderr) = run_cli("keylimit-in-turn", in_turn, &["--key-limit", "2"]);
    assert!(ok, "cli: {stderr}");

    // Server: the same capped builder behind INGEST answers with the
    // same error text, and the connection survives to serve STATS.
    let server = Server::spawn(capped(), registry(), "127.0.0.1:0", ServerConfig::default())
        .expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let err = client
        .ingest(THREE_PATIENTS)
        .expect("io")
        .expect_err("third distinct key overflows");
    assert_eq!(err, expected, "server vs shared decode path");
    let stats = client.stats().expect("io").expect("stats still served");
    assert!(!stats.finished);
    server.shutdown();

    // Pool mode: the limit caps each shard's own interner, so hash
    // spreading means 3 keys over 2 shards may fit. Feed enough distinct
    // keys that every shard must overflow, and check the overflow is
    // surfaced by finish (detection is at drain/finish boundaries in
    // pool mode, so the sticky accessor is the contract there, not
    // ingest_csv's row granularity).
    let mut many = String::from("type,time,patient,rate\n");
    for patient in 1..=32 {
        many.push_str(&format!("Measurement,{patient},{patient},60\n"));
    }
    let mut pooled = capped()
        .workers(2)
        .build(&registry())
        .expect("query builds");
    let outcome = pooled.ingest_csv(&many, &registry());
    let mut sink: Vec<TaggedResult> = Vec::new();
    pooled.finish_into(&mut sink);
    assert!(
        outcome.is_err() || pooled.key_overflow() == Some(2),
        "pool mode reports the overflow by finish: {outcome:?}"
    );
}

#[test]
fn non_utf8_input_is_rejected_before_the_decode_path() {
    // EventReader only ever sees &str, so each surface rejects bad bytes
    // at its transport boundary — both must say so, naming UTF-8.
    let mut bad = Vec::from("type,time,patient,rate\nMeasurement,1,7,");
    bad.extend_from_slice(&[0xff, 0xfe, b'\n']);

    let (ok, stderr) = run_cli("utf8", &bad, &[]);
    assert!(!ok);
    assert!(stderr.contains("UTF-8"), "cli: {stderr}");

    // Server: a raw INGEST block carrying the same bytes.
    let server = Server::spawn(
        Session::builder().query(QUERY),
        registry(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("server starts");
    let mut block = Vec::from("INGEST 2\n");
    block.extend_from_slice(&bad);
    let reply = common::Raw::connect(server.local_addr()).ask(block);
    assert!(
        reply.starts_with("ERR") && reply.contains("UTF-8"),
        "server: {reply}"
    );
    server.shutdown();
}
