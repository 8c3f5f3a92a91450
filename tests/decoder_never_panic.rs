//! Never-panic for the byte-level decoders that face input from outside
//! the program and had hand-written rejection tables only: the CSV record
//! scanner (`cogra::events::csv`) and the wire protocol — its reply
//! decoders (`cogra::server::wire`) and the server's command reader behind
//! a socket. Valid inputs are damaged with the generators of the snapshot
//! arm (`tests/checkpoint_props.rs`): truncation, a changed byte, a
//! segment of another valid input spliced in. Whatever comes back is a
//! typed error or a success — never a panic (on any thread), a hang, or
//! an allocation larger than the input allows.
//!
//! One test, in a binary of its own: the counting allocator and the panic
//! hook are process-wide.

mod common;

use cogra::events::csv::record_ends;
use cogra::prelude::*;
use cogra::server::wire::{decode_result, parse_subscription};
use common::watchdog;
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{counting, take_largest, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Set by the panic hook: a panic on a server thread ends one connection
/// and would otherwise go unseen.
static PANICKED: AtomicBool = AtomicBool::new(false);

/// `Note` has an attribute of every kind, `Ping` a key only.
fn registry() -> TypeRegistry {
    let mut registry = TypeRegistry::new();
    registry.register_type(
        "Note",
        vec![
            ("g", ValueKind::Int),
            ("text", ValueKind::Str),
            ("x", ValueKind::Float),
            ("ok", ValueKind::Bool),
        ],
    );
    registry.register_type("Ping", vec![("g", ValueKind::Int)]);
    registry
}

/// Valid CSV documents whose cells use all of the quoting rules.
fn documents() -> &'static Vec<String> {
    static DOCUMENTS: OnceLock<Vec<String>> = OnceLock::new();
    DOCUMENTS.get_or_init(|| {
        let registry = registry();
        let (note, ping) = (
            registry.id_of("Note").unwrap(),
            registry.id_of("Ping").unwrap(),
        );
        let texts = [
            "plain",
            "",
            "a,b",
            "say \"hi\"",
            "two\nlines",
            "cr\r\nlf",
            "\"",
            "ünï",
        ];
        (0..3usize)
            .map(|d| {
                let mut builder = EventBuilder::new();
                let events: Vec<Event> = (0..12 + 20 * d)
                    .map(|i| {
                        let g = Value::Int((i % 3) as i64);
                        if (i + d) % 4 == 3 {
                            return builder.event(i as u64, ping, vec![g]);
                        }
                        let text = Value::str(texts[(i + d) % texts.len()]);
                        let x = Value::Float(i as f64 / 8.0);
                        builder.event(i as u64, note, vec![g, text, x, Value::Bool(i % 2 == 0)])
                    })
                    .collect();
                write_events(&events, &registry)
            })
            .collect()
    })
}

/// Valid lines of the wire protocol: `STATS` payloads, a `RESULT` payload,
/// `SUBSCRIBE` arguments.
fn lines() -> Vec<String> {
    let report = StatsReport {
        ingested: 4,
        events: 10,
        results: 7,
        watermark: u64::MAX,
        queries: 3,
        workers: 4,
        shard_events: vec![6, 0, 4, 0],
        degraded: vec![1, 3],
        dropped: 5,
        physical: 2,
        finished: true,
        ..StatsReport::default()
    };
    vec![
        report.encode(),
        StatsReport::default().encode(),
        "q1 w0 [7, \"x y\"] → 9 1.5".to_string(),
        "q12".to_string(),
        "*".to_string(),
    ]
}

/// A server over the `Note` schema that every served case talks to: what
/// one damaged transcript leaves behind is the next one's starting state.
fn server() -> &'static Server {
    static SERVER: OnceLock<Server> = OnceLock::new();
    SERVER.get_or_init(|| {
        let query = "RETURN g, COUNT(*), SUM(N.x) PATTERN Note N+ SEMANTICS ANY \
                     GROUP-BY g WITHIN 8 SLIDE 4";
        Server::spawn(
            Session::builder().query(query).slack(64),
            registry(),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .expect("server starts")
    })
}

/// A feed connection's life as bytes: an `INGEST` block and the verbs
/// around it. (No `SUBSCRIBE`, which turns the connection into a stream
/// that ends with the session; no `SNAPSHOT`, which names a file; no
/// `FINISH`, after which there is nothing left to damage.)
fn transcript(document: &str) -> String {
    let lines = document.split_inclusive('\n').count();
    format!("STATS\nINGEST {lines}\n{document}DRAIN\nNONSENSE\nINGEST 0\nSTATS\nQUIT\n")
}

/// Bytes worth changing a byte into.
const HOSTILE: &[u8] = b",\"\n\r =*q0-9\xff\x00";

/// `valid`, damaged: cut short, a byte changed, or a stretch replaced by a
/// stretch of `donor`.
fn damaged(valid: &str, donor: &str, damage: usize, at: u64, bits: usize) -> String {
    let mut bytes = valid.as_bytes().to_vec();
    let (lo, hi) = (at as u32 as usize, (at >> 32) as usize);
    match damage {
        0 => bytes.truncate(lo % bytes.len()),
        1 => bytes[lo % valid.len()] = HOSTILE[bits % HOSTILE.len()],
        _ => {
            let (from, to) = (lo % bytes.len(), hi % bytes.len());
            let (from, to) = (from.min(to), from.max(to));
            let donor = donor.as_bytes();
            let take = (bits % donor.len(), (bits / 7) % donor.len());
            let stretch = &donor[take.0.min(take.1)..take.0.max(take.1)];
            bytes.splice(from..to, stretch.iter().copied());
        }
    }
    // The decoders take text: whatever is not UTF-8 any more arrives as
    // U+FFFD, as it does from `cogra-run` and the server.
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Run `decode` with the counting allocator on: the largest block it
/// asked for must be within a small multiple of `input` bytes.
fn bounded<T>(input: &str, decode: impl FnOnce() -> T) -> T {
    take_largest();
    counting(true);
    let out = decode();
    counting(false);
    let (largest, bound) = (take_largest(), 64 * input.len() as u64 + 4096);
    assert!(
        largest <= bound,
        "a {largest}-byte block for {} bytes of input",
        input.len()
    );
    out
}

fn scan_csv(text: &str) {
    let registry = registry();
    let lines = text.split('\n').count();
    let ends = bounded(text, || record_ends(text));
    assert!(ends.windows(2).all(|w| w[0] < w[1]), "{ends:?}");
    assert!(ends.iter().all(|&e| text.is_char_boundary(e)), "{ends:?}");
    assert_eq!(ends.last().copied().unwrap_or(0), text.len(), "{ends:?}");
    // The collecting and the lending decoder are one function.
    let collected = bounded(text, || read_events(text, &registry));
    let mut lent = Vec::new();
    let streamed = bounded(text, || {
        let mut reader = EventReader::new(text, &registry)?;
        let mut event = Event::new(0, 0, cogra::events::TypeId(0), Vec::new());
        while let Some(row) = reader.read_into(&mut event) {
            row?;
            lent.push(event.clone());
        }
        Ok(())
    });
    match (collected, streamed) {
        (Ok(events), Ok(())) => {
            assert!(
                events.len() <= lines,
                "{} rows of {lines} lines",
                events.len()
            );
            assert_eq!(events, lent);
        }
        (Err(e), Err(streamed)) => {
            assert_eq!(e, streamed);
            assert!((1..=lines).contains(&e.line), "{e} of {lines} lines");
        }
        (collected, streamed) => panic!("{collected:?} but {streamed:?}"),
    }
}

fn decode_wire(text: &str) {
    let report = bounded(text, || StatsReport::decode(text));
    if let Ok(report) = report {
        assert!(report.shard_events.len() <= text.len());
        StatsReport::decode(&report.encode()).expect("what was decoded encodes");
    }
    if let Ok((_, row)) = bounded(text, || decode_result(text)) {
        assert!(text.ends_with(row));
    }
    let _ = bounded(text, || parse_subscription(text));
}

fn serve(transcript: &str) {
    let addr = server().local_addr();
    let mut socket = TcpStream::connect(addr).expect("the server accepts");
    let patience = Some(Duration::from_secs(20));
    socket.set_read_timeout(patience).expect("timeout");
    // The server may have hung up on an earlier line already.
    let _ = socket.write_all(transcript.as_bytes());
    let _ = socket.shutdown(Shutdown::Write);
    let mut replies = Vec::new();
    if let Err(e) = socket.read_to_end(&mut replies) {
        let reset = e.kind() == std::io::ErrorKind::ConnectionReset;
        assert!(reset, "the server neither answered nor hung up: {e}");
    }
    for reply in String::from_utf8_lossy(&replies).lines() {
        assert!(
            reply.starts_with("OK") || reply.starts_with("ERR"),
            "{reply}"
        );
    }
    let stats = Client::connect(addr).expect("still accepting").stats();
    stats.expect("still answering").expect("STATS is always OK");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1536))]

    #[test]
    fn damaged_input_is_a_typed_error_or_a_success(
        decoder in 0usize..8,
        (victim, donor) in (0usize..15, 0usize..15),
        damage in 0usize..3,
        at in any::<u64>(),
        bits in 0usize..4096,
    ) {
        static HOOK: std::sync::Once = std::sync::Once::new();
        HOOK.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                PANICKED.store(true, Ordering::SeqCst);
                default(info);
            }));
        });
        let (documents, lines) = (documents(), lines());
        let pick = |pool: &[String], i: usize| pool[i % pool.len()].clone();
        // A socket round trip costs a hundred scans: one case in eight.
        let run: Box<dyn FnOnce() + Send> = match decoder {
            0..=3 => {
                let text = damaged(&pick(documents, victim), &pick(documents, donor), damage, at, bits);
                Box::new(move || scan_csv(&text))
            }
            4..=6 => {
                let text = damaged(&pick(&lines, victim), &pick(&lines, donor), damage, at, bits);
                Box::new(move || decode_wire(&text))
            }
            _ => {
                let (valid, donor) = (transcript(&pick(documents, victim)), pick(documents, donor));
                let text = damaged(&valid, &donor, damage, at, bits);
                Box::new(move || serve(&text))
            }
        };
        watchdog("a damaged input", run);
        prop_assert!(!PANICKED.load(Ordering::SeqCst), "a thread panicked");
    }
}
