//! What handing decoded rows to another thread costs, on the server's
//! `INGEST` path: rideshare rows as CSV in 2,048-row blocks, decoded with
//! `EventReader::read_into` into a [`Rows`] stage and cut into chunks of
//! [`INGEST_CHUNK_ROWS`] rows. Three figures, in ns per row, best of
//! several interleaved rounds:
//! * **decode alone** — each full stage is emptied in place;
//! * **decode, shipped** — each full stage goes by [`Recycler::ship`] over
//!   a bounded channel to a thread that copies every row out into one
//!   `Event`, as the server's actor does before `ingest_checked`;
//! * **shipped, dropped unread** — the same, to a thread that drops each
//!   chunk as it arrives: the floor of the hand-off.
//!
//! Every shipped round asserts that the consumer saw every row once (the
//! copying one: in order, each with its time stamp), so a run checks the
//! path it times.
//!
//! Run: `cargo run --release --example handoff_cost [rows] [rounds]`

use cogra::core::parallel::handoff::{recv_polling, Recycler, Reusable, Rows};
use cogra::events::TypeId;
use cogra::prelude::*;
use cogra::server::INGEST_CHUNK_ROWS;
use cogra::workloads::rideshare::{self, RideshareConfig};
use std::hint::black_box;
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::time::Instant;

/// Rows per CSV block, as `perfbench`'s `ride-remote` feeds the server.
const BLOCK_ROWS: usize = 2_048;

/// Chunks in flight, as the server's default request queue.
const QUEUE_DEPTH: usize = 64;

/// What the consumer thread does with a chunk.
#[derive(Clone, Copy)]
enum Consumer {
    /// Copy each row into one event, checking it against the stream.
    Copy,
    /// Drop the chunk unread.
    Drop,
}

/// Decode every block into `stage`, handing each full stage (and each
/// block's last rows) to `hand`.
fn decode(
    blocks: &[String],
    registry: &TypeRegistry,
    stage: &mut Rows,
    mut hand: impl FnMut(&mut Rows),
) {
    let mut decoded = Event::new(0, 0, TypeId(0), Vec::new());
    for block in blocks {
        let mut reader = EventReader::new(block, registry).expect("the header reads");
        while let Some(read) = reader.read_into(&mut decoded) {
            read.expect("the generated CSV decodes");
            if stage.len() == INGEST_CHUNK_ROWS {
                hand(stage);
            }
            let values = |buffer: &mut Vec<_>| buffer.append(&mut decoded.attrs);
            stage.push(decoded.id, decoded.time, decoded.type_id, values);
        }
        if !stage.is_empty() {
            hand(stage);
        }
    }
}

/// Read chunks off `chunks` until the producer hangs up; the number of
/// rows seen. A copying consumer checks row `n` against `times[n]`, and
/// its id against its place in its block (the reader numbers each
/// block's rows from 0).
fn consume(chunks: Receiver<Arc<Rows>>, consumer: Consumer, times: &[Timestamp]) -> usize {
    let mut event = Event::new(0, 0, TypeId(0), Vec::new());
    let mut seen = 0;
    while let Ok(chunk) = recv_polling(&chunks) {
        match consumer {
            Consumer::Copy => {
                for row in chunk.iter() {
                    (event.id, event.time, event.type_id) = (row.id, row.time, row.type_id);
                    event.attrs.clear();
                    event.attrs.extend_from_slice(row.values);
                    black_box(&event);
                    assert_eq!(
                        event.id.0 as usize,
                        seen % BLOCK_ROWS,
                        "row {seen} out of order"
                    );
                    assert_eq!(event.time, times[seen], "row {seen} out of order");
                    seen += 1;
                }
                // The last row's values are the producer's to free.
                event.attrs.clear();
            }
            Consumer::Drop => seen += chunk.len(),
        }
    }
    seen
}

/// Nanoseconds per row of decoding every block, alone.
fn decode_pass(blocks: &[String], registry: &TypeRegistry, rows: usize) -> f64 {
    let mut stage = Rows::default();
    let start = Instant::now();
    decode(blocks, registry, &mut stage, |stage| {
        black_box(&*stage);
        stage.clear();
    });
    start.elapsed().as_nanos() as f64 / rows as f64
}

/// Nanoseconds per row of decoding every block and shipping it to a
/// consumer thread, until that thread is done.
fn shipped_pass(
    blocks: &[String],
    registry: &TypeRegistry,
    times: &Arc<Vec<Timestamp>>,
    consumer: Consumer,
) -> f64 {
    let (tx, rx) = sync_channel(QUEUE_DEPTH);
    let consumed = Arc::clone(times);
    let (mut chunks, mut stage) = (Recycler::default(), Rows::default());
    let start = Instant::now();
    let thread = std::thread::spawn(move || consume(rx, consumer, &consumed));
    decode(blocks, registry, &mut stage, |stage| {
        tx.send(chunks.ship(stage)).expect("the consumer runs");
    });
    drop(tx);
    let seen = thread.join().expect("the consumer finishes");
    let ns = start.elapsed().as_nanos() as f64 / seen as f64;
    assert_eq!(seen, times.len(), "every row reached the consumer");
    ns
}

fn main() {
    let mut args = std::env::args().skip(1).map(|a| a.parse::<usize>());
    let rows_n = args.next().and_then(Result::ok).unwrap_or(500_000);
    let rounds = args.next().and_then(Result::ok).unwrap_or(6);
    let registry = rideshare::registry();
    let events = rideshare::generate(&RideshareConfig {
        events: rows_n,
        ..Default::default()
    });
    let times = Arc::new(events.iter().map(|e| e.time).collect::<Vec<_>>());
    let blocks: Vec<String> = events
        .chunks(BLOCK_ROWS)
        .map(|block| write_events(block, &registry))
        .collect();
    let rows = events.len();
    let (mut alone, mut copied, mut dropped) = (f64::MAX, f64::MAX, f64::MAX);
    for _ in 0..rounds {
        alone = alone.min(decode_pass(&blocks, &registry, rows));
        copied = copied.min(shipped_pass(&blocks, &registry, &times, Consumer::Copy));
        dropped = dropped.min(shipped_pass(&blocks, &registry, &times, Consumer::Drop));
    }
    println!(
        "{rows} rideshare rows in {BLOCK_ROWS}-row blocks, {INGEST_CHUNK_ROWS}-row chunks, \
         best of {rounds} interleaved rounds:"
    );
    println!("  decode alone                {alone:6.1} ns/row");
    println!("  decode, shipped, copied out {copied:6.1} ns/row");
    println!("  decode, shipped, dropped    {dropped:6.1} ns/row");
}
