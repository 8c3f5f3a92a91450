//! The ROADMAP's scaling pin for the state accounting (direction 1(a)):
//! reading `memory_bytes()` must not get more expensive as the stream
//! grows, so `Session::run` — which samples it every 64 events — stays
//! linear on `churn`, the stream that never stops minting keys. Before
//! the byte counters, each sample walked every key ever interned:
//! 200K churn events cost ~6× the per-event time of 50K, and one read
//! after 200K events ~100× one after 2K.
//!
//! And the figure itself must not grow with the stream (direction 2):
//! state follows the keys that still hold a window, so ten times the
//! churn peaks where one times does, and a finished session is back to
//! an empty one's bytes. Before partitions retired, the 2M-event peak was
//! 10× the 200K-event one — 132 B for every key ever seen.
//!
//! Release only: a debug build audits the counters against the walk on
//! purpose, which is exactly the cost this pins away. CI runs it as its
//! own `cargo test --release` step.
#![cfg(not(debug_assertions))]

use cogra::prelude::*;
use cogra::workloads::{churn, ChurnConfig};
use std::hint::black_box;
use std::time::Instant;

fn stream(events: usize) -> Vec<Event> {
    churn::generate(&ChurnConfig {
        events,
        ..ChurnConfig::default()
    })
}

fn session() -> Session {
    Session::builder()
        .query(churn::count_query(1000, 500).as_str())
        .build(&churn::registry())
        .expect("the churn query builds")
}

/// Best-of-5 nanoseconds per event of `Session::run` over the stream.
fn run_ns_per_event(events: &[Event]) -> f64 {
    (0..5)
        .map(|_| {
            let s = session();
            let t = Instant::now();
            black_box(s.run(black_box(events)));
            t.elapsed().as_nanos() as f64 / events.len() as f64
        })
        .fold(f64::MAX, f64::min)
}

#[test]
fn run_on_churn_is_linear_in_the_stream() {
    let long = stream(200_000);
    let short = &long[..50_000];
    // Interleaved, so a noisy stretch of the host hits both sizes; a
    // shared runner gets a few more rounds to find a calm one (the minima
    // only tighten — a quadratic run loop stays ~6× however often asked).
    let (mut at_50k, mut at_200k) = (f64::MAX, f64::MAX);
    for _ in 0..4 {
        at_50k = at_50k.min(run_ns_per_event(short));
        at_200k = at_200k.min(run_ns_per_event(&long));
        if at_200k <= 1.3 * at_50k {
            break;
        }
    }
    assert!(
        at_200k <= 1.3 * at_50k,
        "Session::run on churn: {at_200k:.0} ns/event at 200K events vs {at_50k:.0} at 50K \
         ({:.2}×; the pin is 1.3×)",
        at_200k / at_50k
    );
}

/// Best-of-7 nanoseconds per `memory_bytes()` read of a live session that
/// has ingested the stream (each sample averages 10K reads).
fn read_ns(events: &[Event]) -> f64 {
    const READS: usize = 10_000;
    let mut s = session();
    let mut sink: Vec<TaggedResult> = Vec::new();
    for e in events {
        s.process(e);
    }
    s.drain_into(&mut sink);
    (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..READS {
                black_box(black_box(&s).memory_bytes());
            }
            t.elapsed().as_nanos() as f64 / READS as f64
        })
        .fold(f64::MAX, f64::min)
}

#[test]
fn one_read_costs_the_same_after_2k_and_200k_events() {
    // Host-independent twin of the pin above: a ratio of two reads on the
    // same machine, a hundredfold apart in keys seen (≈250 vs ≈25K).
    let long = stream(200_000);
    let small = read_ns(&long[..2_000]);
    let large = read_ns(&long);
    assert!(
        large <= 4.0 * small.max(1.0),
        "memory_bytes(): {large:.1} ns after 200K churn events vs {small:.1} ns after 2K"
    );
}

#[test]
fn peak_state_is_flat_in_the_stream_and_finish_returns_it() {
    // The 200K-event stream, and ten laps of it as one 2M-event stream:
    // each lap's times and session ids are shifted past the previous
    // lap's, so time keeps advancing and no key ever comes back — 250K
    // keys where the short run sees 25K, never materialized as a `Vec`.
    let lap = stream(200_000);
    let span = lap.last().expect("non-empty").time.ticks();
    let ids = 1 + lap
        .iter()
        .filter_map(|e| e.attrs[0].as_i64())
        .max()
        .expect("sessions are ints");
    let laps = (0..10i64).flat_map(|n| {
        lap.iter().map(move |e| {
            let mut e = e.clone();
            e.time = Timestamp(e.time.ticks() + n as u64 * span);
            e.attrs[0] = Value::Int(e.attrs[0].as_i64().expect("sessions are ints") + n * ids);
            e
        })
    });
    let short = session().run(&lap);
    let long = session().run(laps);
    assert_eq!(long.events, 2_000_000);
    assert!(long.stats.key_allocs >= 10 * short.stats.key_allocs);
    assert!(
        long.peak_bytes as f64 <= 1.2 * short.peak_bytes as f64,
        "peak state: {} B over 2M churn events vs {} B over 200K (the pin is 1.2×)",
        long.peak_bytes,
        short.peak_bytes
    );

    let fresh = session().memory_bytes();
    let mut finished = session();
    let mut sink: Vec<TaggedResult> = Vec::new();
    for e in &lap {
        finished.process(e);
        finished.drain_into(&mut sink);
    }
    assert!(
        finished.memory_bytes() > fresh,
        "windows are open mid-stream"
    );
    finished.finish_into(&mut sink);
    assert_eq!(
        finished.memory_bytes(),
        fresh,
        "a finished session holds more than an empty one"
    );
}
