//! Standalone layer probes of the traced run: each drives one layer's
//! public functions over the workload's own input, outside any session,
//! and is recorded as a span of its own next to the repetition spans.

use crate::phases::builder;
use crate::spans::Tracer;
use crate::workloads::{Input, SATURATED_CHUNK};
use cogra_core::session::Session;
use cogra_core::{CograEngine, TrendEngine, WindowResult};
use cogra_events::{Event, EventReader, Reorderer};
use cogra_server::wire;
use std::hint::black_box;

/// `events.csv`: decode every block with `EventReader`, nothing else.
/// Returns `(rows, bytes)`; the time is the `events.csv.decode` spans.
pub fn csv_decode(input: &Input, blocks: &[String], tracer: &mut Tracer) -> (u64, u64) {
    let mut rows = 0u64;
    let mut bytes = 0u64;
    for block in blocks {
        bytes += block.len() as u64;
        rows += tracer.span("events.csv.decode", || {
            let reader =
                EventReader::new(block, &input.registry).expect("generated CSV has a header");
            let mut rows = 0u64;
            for row in reader {
                black_box(row.expect("generated CSV decodes"));
                rows += 1;
            }
            rows
        });
    }
    (rows, bytes)
}

/// What the reorder probe saw.
pub struct Reordered {
    /// The stream in the order the engine receives it.
    pub ordered: Vec<Event>,
    /// Largest number of events buffered after any chunk.
    pub max_buffered: usize,
    /// Events dropped as late.
    pub late_events: u64,
}

/// `events.reorder`: push the stream through a bare `Reorderer` in the
/// saturated chunks (cloning each event, as `Session::process` does) and
/// flush. The time is the `events.reorder.push` and `.flush` spans.
pub fn reorder(input: &Input, tracer: &mut Tracer) -> Reordered {
    let mut reorderer = Reorderer::new(input.slack);
    let mut ordered = Vec::with_capacity(input.events.len());
    let mut max_buffered = 0;
    for chunk in input.events.chunks(SATURATED_CHUNK) {
        tracer.span("events.reorder.push", || {
            for e in chunk {
                reorderer.push(e.clone(), &mut ordered);
            }
        });
        max_buffered = max_buffered.max(reorderer.buffered());
    }
    tracer.span("events.reorder.flush", || reorderer.flush(&mut ordered));
    Reordered {
        ordered,
        max_buffered,
        late_events: reorderer.late_events(),
    }
}

/// `engine.runtime`: `QueryRuntime::route_hashes` over the stream, as one
/// `engine.hash` span.
pub fn hash(input: &Input, tracer: &mut Tracer) {
    let engine =
        CograEngine::from_text(&input.query, &input.registry).expect("the workload's query builds");
    let rt = engine.runtime();
    tracer.span("engine.hash", || {
        for e in &input.events {
            black_box(rt.route_hashes(black_box(e)));
        }
    });
}

/// `engine`: a bare `CograEngine` driven over `ordered` in the saturated
/// chunks — `process` under `engine.update` spans, `drain_into` and
/// `finish_into` under `engine.emit` spans. Returns the result count.
pub fn bare_engine(input: &Input, ordered: &[Event], tracer: &mut Tracer) -> usize {
    let mut engine =
        CograEngine::from_text(&input.query, &input.registry).expect("the workload's query builds");
    let mut results = 0usize;
    let mut sink = |r: WindowResult| {
        black_box(r);
        results += 1;
    };
    for chunk in ordered.chunks(SATURATED_CHUNK) {
        tracer.span("engine.update", || {
            for e in chunk {
                engine.process(e);
            }
        });
        tracer.span("engine.emit", || engine.drain_into(&mut sink));
    }
    tracer.span("engine.emit", || engine.finish_into(&mut sink));
    results
}

/// What the state probe measured.
pub struct StateProbe {
    /// Cost of one `Session::memory_bytes()` call at 25 %, 50 % and 100 %
    /// of the stream, in microseconds.
    pub memory_bytes_us: [f64; 3],
    /// `Session::checkpoint` time at end of stream, in ms.
    pub save_ms: f64,
    /// Size of that snapshot.
    pub snapshot_bytes: usize,
    /// `SessionBuilder::restore` time from that snapshot, in ms.
    pub restore_ms: f64,
    /// `memory_bytes()` of the restored session.
    pub restored_state_bytes: usize,
}

/// `engine.intern` and `checkpoint`: one untimed session pass that stops
/// at 25 %, 50 % and 100 % of the stream to time a `memory_bytes()` call
/// (the instrument's own cost), then checkpoints and restores at end of
/// stream, before `finish`.
pub fn state(input: &Input, workers: usize, tracer: &mut Tracer) -> StateProbe {
    let mut s = builder(input, workers)
        .build(&input.registry)
        .expect("the workload's query builds");
    let mut sink = |_query: usize, r: WindowResult| {
        black_box(r);
    };
    let n = input.events.len();
    let mut memory_bytes_us = [0.0; 3];
    let mut fed = 0;
    for (slot, stop) in memory_bytes_us.iter_mut().zip([n / 4, n / 2, n]) {
        for chunk in input.events[fed..stop].chunks(SATURATED_CHUNK) {
            for e in chunk {
                s.process(e);
            }
            s.drain_into(&mut sink);
        }
        fed = stop;
        let span = tracer.open("engine.intern.memory_bytes");
        black_box(s.memory_bytes());
        *slot = tracer.close(span) as f64 / 1e3;
    }

    let mut snapshot = Vec::new();
    let span = tracer.open("checkpoint.save");
    s.checkpoint(&mut snapshot)
        .expect("a live session checkpoints");
    let save_ms = tracer.close(span) as f64 / 1e6;
    let span = tracer.open("checkpoint.restore");
    let restored = Session::builder()
        .workers(workers)
        .restore(&input.registry, snapshot.as_slice())
        .expect("the snapshot just written restores");
    let restore_ms = tracer.close(span) as f64 / 1e6;
    let restored_state_bytes = restored.memory_bytes();
    s.finish_into(&mut sink);
    StateProbe {
        memory_bytes_us,
        save_ms,
        snapshot_bytes: snapshot.len(),
        restore_ms,
        restored_state_bytes,
    }
}

/// `server.wire`: `encode_result` over `results`, then `decode_result`
/// over the encoded lines, as one span each. Returns the line count.
pub fn wire_codec(results: &[WindowResult], tracer: &mut Tracer) -> usize {
    let lines: Vec<String> = tracer.span("wire.encode", || {
        results.iter().map(|r| wire::encode_result(0, r)).collect()
    });
    tracer.span("wire.decode", || {
        for line in &lines {
            let payload = line
                .strip_prefix(wire::RESULT)
                .expect("encode_result writes the prefix")
                .trim_start();
            black_box(wire::decode_result(payload).expect("an encoded result decodes"));
        }
    });
    lines.len()
}
