//! What routing an event costs: two streams — `stock-type` (the
//! type-grained q3, 19 companies, `WITHIN 1000 SLIDE 500`) and rideshare q2
//! (pattern-grained, skip-till-next-match, `COUNT(*)`, 20 drivers, the
//! same window) — each through a [`Router`] over a window that does
//! nothing, through the COGRA router, and through an inline [`Session`],
//! drained every 1,024 events, best of several interleaved rounds,
//! reported in ns per event. The first figure is the router alone: key
//! hash, compiled route, window range, interner probe and ring indexing.
//! Every round asserts that the COGRA router and the session emit the
//! same number of results, so a run checks the two paths it times against
//! each other.
//!
//! Run: `cargo run --release --example route_cost [events] [rounds]`

use cogra::engine::{Capabilities, Cell, EventBinds, QueryRuntime, Router, WindowAlgo};
use cogra::prelude::*;
use cogra::workloads::rideshare::{self, RideshareConfig};
use cogra::workloads::stock::{self, StockConfig};
use cogra_checkpoint::{CheckpointError, Dec, Enc};
use std::time::Instant;

/// A window that keeps nothing and computes nothing.
struct NoopWindow;

impl WindowAlgo for NoopWindow {
    const NAME: &'static str = "noop";
    const TABLE9: Capabilities = Capabilities::COGRA;

    fn new(_rt: &QueryRuntime) -> Self {
        NoopWindow
    }

    fn on_event(&mut self, _rt: &QueryRuntime, _event: &Event, _binds: &EventBinds) -> isize {
        0
    }

    fn final_cell(&mut self, rt: &QueryRuntime) -> Cell {
        rt.layout.zero_cell()
    }

    fn memory_bytes(&self) -> usize {
        0
    }

    fn audit_bytes(&self, _rt: &QueryRuntime) -> usize {
        0
    }

    fn save(&self, _rt: &QueryRuntime, _enc: &mut Enc) {}

    fn load(_rt: &QueryRuntime, _dec: &mut Dec) -> Result<Self, CheckpointError> {
        Ok(NoopWindow)
    }
}

const DRAIN_EVERY: usize = 1024;

/// Nanoseconds per event of one pass of `events` through `engine`, and
/// the number of results it emitted.
fn engine_pass(engine: &mut dyn TrendEngine, events: &[Event]) -> (f64, usize) {
    let mut results = 0usize;
    let mut count = |_: WindowResult| results += 1;
    let start = Instant::now();
    for chunk in events.chunks(DRAIN_EVERY) {
        for e in chunk {
            engine.process(e);
        }
        engine.drain_into(&mut count);
    }
    engine.finish_into(&mut count);
    let ns = start.elapsed().as_nanos() as f64 / events.len() as f64;
    (ns, results)
}

/// Nanoseconds per event of one pass of `events` through a fresh inline
/// session, and the number of results it emitted.
fn session_pass(query: &str, registry: &TypeRegistry, events: &[Event]) -> (f64, usize) {
    let mut session = Session::builder()
        .query(query)
        .build(registry)
        .expect("the query builds");
    let mut sink: Vec<TaggedResult> = Vec::new();
    let mut results = 0;
    let start = Instant::now();
    for chunk in events.chunks(DRAIN_EVERY) {
        for e in chunk {
            session.process(e);
        }
        session.drain_into(&mut sink);
        results += sink.len();
        sink.clear();
    }
    session.finish_into(&mut sink);
    let ns = start.elapsed().as_nanos() as f64 / events.len() as f64;
    (ns, results + sink.len())
}

/// Best-of-`rounds` ns/event of the no-op router, the COGRA router and
/// the inline session over `events`, rounds interleaved.
fn costs(query: &str, registry: &TypeRegistry, events: &[Event], rounds: usize) -> [f64; 3] {
    let (mut noop, mut cogra, mut session) = (f64::MAX, f64::MAX, f64::MAX);
    for _ in 0..rounds {
        let mut router = Router::<NoopWindow>::from_text(query, registry).expect("compiles");
        noop = noop.min(engine_pass(&mut router, events).0);
        let mut router = CograEngine::from_text(query, registry).expect("compiles");
        let (ns, routed) = engine_pass(&mut router, events);
        cogra = cogra.min(ns);
        let (ns, sessioned) = session_pass(query, registry, events);
        session = session.min(ns);
        assert_eq!(
            routed, sessioned,
            "the COGRA router and the inline session emit as many results"
        );
    }
    [noop, cogra, session]
}

fn main() {
    let mut args = std::env::args().skip(1).map(|a| a.parse::<usize>());
    let events_n = args.next().and_then(Result::ok).unwrap_or(1_000_000);
    let rounds = args.next().and_then(Result::ok).unwrap_or(10);
    let stock_events = stock::generate(&StockConfig {
        events: events_n,
        ..Default::default()
    });
    let ride_events = rideshare::generate(&RideshareConfig {
        events: events_n,
        ..Default::default()
    });
    let workloads = [
        (
            "stock-type",
            stock::registry(),
            stock::q3_query_no_adjacent(1000, 500),
            stock_events,
        ),
        (
            "rideshare q2",
            rideshare::registry(),
            rideshare::q2_query(1000, 500),
            ride_events,
        ),
    ];
    println!("{events_n} events, best of {rounds} interleaved rounds:");
    for (name, registry, query, events) in &workloads {
        let [noop, cogra, session] = costs(query, registry, events, rounds);
        println!("  {name}");
        println!("    router over a no-op window  {noop:6.1} ns/event");
        println!("    COGRA router                {cogra:6.1} ns/event");
        println!("    inline session              {session:6.1} ns/event");
    }
}
