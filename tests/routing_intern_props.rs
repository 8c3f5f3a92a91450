//! Differential battery for the interned/dense routing hot path.
//!
//! PR 3 replaced the router's `HashMap<GroupKey, BTreeMap<WindowId, _>>`
//! bookkeeping with interned keys, a dense partition `Vec` and
//! ring-buffer window stores — with **byte-identical output** as the hard
//! constraint. This battery keeps the seed-style `Vec<Value>`-keyed
//! router alive as an executable reference ([`RefEngine`], a
//! line-for-line reimplementation of the pre-interning routing) and diffs
//! the real engines against it over random workloads × semantics ×
//! worker counts {1,2,4,8} × drain cadences, plus the counters of the
//! routing path: one probe per event, and `RunStats::key_allocs` equal to
//! the number of key *lives* the stream holds — a rule on event times
//! alone, whenever the drains that retire partitions happen to run.

mod common;

use cogra::core::{CograWindow, QueryRuntime};
use cogra::engine::agg::Cell;
use cogra::engine::router::WindowAlgo;
use cogra::engine::{EventBinds, GroupKey};
use cogra::events::{WindowId, WindowSpec};
use cogra::prelude::*;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The semantics × grouping × route matrix the battery cycles through.
/// CONT is included deliberately: it is the one case where *irrelevant*
/// events still create partition/window state, exercising the interner on
/// the no-binds path. `C` events bind nothing in the first four rows —
/// the route drops them before their key is hashed, except under CONT.
/// The last three put a local filter on a state or a negated variable,
/// so the router evaluates those types' binds per event while the
/// reference does so for every type.
const QUERIES: [&str; 7] = [
    "RETURN g, COUNT(*), SUM(A.v) PATTERN SEQ(A+, B) SEMANTICS ANY \
     GROUP-BY g WITHIN 10 SLIDE 5",
    "RETURN g, COUNT(*) PATTERN SEQ(A+, B) SEMANTICS NEXT \
     GROUP-BY g WITHIN 12 SLIDE 4",
    "RETURN g, COUNT(*) PATTERN SEQ(A+, B) SEMANTICS CONT \
     GROUP-BY g WITHIN 8 SLIDE 4",
    "RETURN COUNT(*) PATTERN SEQ(A+, B) SEMANTICS ANY WITHIN 10 SLIDE 5",
    "RETURN g, COUNT(*), SUM(A.v) PATTERN SEQ(A+, B) SEMANTICS ANY \
     WHERE A.v > 2 GROUP-BY g WITHIN 10 SLIDE 5",
    "RETURN g, COUNT(*) PATTERN SEQ(A+, NOT C, B) SEMANTICS ANY \
     WHERE C.v < 5 GROUP-BY g WITHIN 10 SLIDE 5",
    "RETURN g, COUNT(*) PATTERN SEQ(A+, B) SEMANTICS CONT \
     WHERE A.v > 2 GROUP-BY g WITHIN 8 SLIDE 4",
];

use common::model::WIDTHS as WORKER_COUNTS;
use common::workloads::{abc_registry as registry, rows_case};

/// The seed router, verbatim: partitions in a `HashMap` keyed by a
/// freshly materialized `Vec<Value>` per event, windows in a `BTreeMap`
/// per partition, group keys sliced out of the partition key per closed
/// window. Slow by design — it exists so the interned/dense router has a
/// byte-level specification to be diffed against.
struct RefEngine {
    rt: Arc<QueryRuntime>,
    partitions: HashMap<GroupKey, BTreeMap<WindowId, CograWindow>>,
    watermark: Timestamp,
    drained_to: Option<WindowId>,
    binds: EventBinds,
}

impl RefEngine {
    fn new(query: &str, reg: &TypeRegistry) -> RefEngine {
        let parsed = parse(query).expect("query parses");
        let rt = Arc::new(QueryRuntime::new(
            compile(&parsed, reg).expect("query compiles"),
            reg,
        ));
        let binds = EventBinds {
            per_disjunct: rt.disjuncts.iter().map(|_| Default::default()).collect(),
        };
        RefEngine {
            rt,
            partitions: HashMap::new(),
            watermark: Timestamp::ZERO,
            drained_to: None,
            binds,
        }
    }

    fn emit_up_to(&mut self, up_to: WindowId, out: &mut dyn FnMut(WindowResult)) {
        let rt = Arc::clone(&self.rt);
        let group_prefix = rt.query.group_prefix;
        let mut combined: BTreeMap<(WindowId, GroupKey), Cell> = BTreeMap::new();
        for (key, windows) in &mut self.partitions {
            let closed = match up_to.0.checked_add(1) {
                None => std::mem::take(windows),
                Some(next) => {
                    let mut open = windows.split_off(&WindowId(next));
                    std::mem::swap(&mut open, windows);
                    open
                }
            };
            for (wid, mut state) in closed {
                if self.drained_to.is_some_and(|d| wid <= d) {
                    continue;
                }
                let cell = state.final_cell(&rt);
                if cell.is_zero() {
                    continue;
                }
                let group: GroupKey = key[..group_prefix].to_vec();
                combined
                    .entry((wid, group))
                    .and_modify(|acc| acc.merge(&rt.layout, &cell))
                    .or_insert(cell);
            }
        }
        self.partitions.retain(|_, w| !w.is_empty());
        self.drained_to = Some(match self.drained_to {
            Some(d) => WindowId(d.0.max(up_to.0)),
            None => up_to,
        });
        for ((window, group), cell) in combined {
            out(WindowResult {
                window,
                group,
                values: cell.outputs(&rt.layout),
            });
        }
    }
}

impl TrendEngine for RefEngine {
    fn process(&mut self, event: &Event) {
        self.watermark = self.watermark.max(event.time);
        let rt = Arc::clone(&self.rt);
        let Some(key) = rt.partition_key(event) else {
            return;
        };
        for ((binds, negs), drt) in self.binds.per_disjunct.iter_mut().zip(&rt.disjuncts) {
            drt.binds(event, binds);
            drt.negation_matches(event, negs);
        }
        if self.binds.is_irrelevant() && rt.query.semantics != Semantics::Cont {
            return;
        }
        let partition = self.partitions.entry(key).or_default();
        for wid in rt.query.window.windows_of(event.time) {
            if self.drained_to.is_some_and(|d| wid <= d) {
                continue;
            }
            partition
                .entry(wid)
                .or_insert_with(|| CograWindow::new(&rt))
                .on_event(&rt, event, &self.binds);
        }
    }

    fn drain_into(&mut self, out: &mut dyn FnMut(WindowResult)) {
        if let Some(wid) = self.rt.query.window.last_closed(self.watermark) {
            self.emit_up_to(wid, out);
        }
    }

    fn finish_into(&mut self, out: &mut dyn FnMut(WindowResult)) {
        self.emit_up_to(WindowId(u64::MAX), out);
    }

    fn memory_bytes(&self) -> usize {
        0 // not under test; the reference specifies results only
    }

    fn name(&self) -> &'static str {
        "reference"
    }

    fn watermark(&self) -> Timestamp {
        self.watermark
    }
}

/// The key lives in a stream, by definition: an event begins one when its
/// key has no earlier event, or when every window of the key's previous
/// event ended at or before it.
fn key_lives(events: &[Event], window: WindowSpec) -> u64 {
    let mut last_window: HashMap<&Value, WindowId> = HashMap::new();
    let mut lives = 0;
    for e in events {
        let mut windows = window.windows_of(e.time);
        let first = windows
            .next()
            .expect("SLIDE <= WITHIN: every time has a window");
        let last = windows.last().unwrap_or(first);
        if last_window
            .insert(&e.attrs[0], last)
            .is_none_or(|prev| prev < first)
        {
            lives += 1;
        }
    }
    lives
}

/// Run the reference router over the stream with a drain after every
/// `chunk` events (1 = the per-event cadence `run_to_completion` uses).
fn reference(query: &str, reg: &TypeRegistry, events: &[Event], chunk: usize) -> Vec<WindowResult> {
    let mut engine = RefEngine::new(query, reg);
    let mut out: Vec<WindowResult> = Vec::new();
    let mut push = |r: WindowResult| out.push(r);
    for c in events.chunks(chunk.max(1)) {
        for e in c {
            engine.process(e);
        }
        engine.drain_into(&mut push);
    }
    engine.finish_into(&mut push);
    WindowResult::sort(&mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn interned_routing_is_byte_identical_to_the_reference(
        rows in vec((0u64..3, 0usize..3, 0i64..5, -4i64..8), 1..160),
        worker_idx in 0usize..4,
        chunk in 1usize..40,
        query_idx in 0usize..QUERIES.len(),
    ) {
        let reg = registry();
        let events = rows_case(&[], &rows, None).events;
        let query = QUERIES[query_idx];
        let workers = WORKER_COUNTS[worker_idx];
        let expected = reference(query, &reg, &events, 1);

        // Sequential interned router, per-event drains.
        let mut engine = CograEngine::from_text(query, &reg).expect("query compiles");
        let (sequential, _) = run_to_completion(&mut engine, &events, 64);
        prop_assert_eq!(&sequential, &expected, "interned vs reference");

        // A different drain cadence on the reference itself changes
        // nothing (sanity: the spec is cadence-free too).
        prop_assert_eq!(&reference(query, &reg, &events, chunk), &expected);

        // Sharded interned routing, all worker counts.
        let run = Session::builder()
            .query(query)
            .workers(workers)
            .build(&reg)
            .expect("session builds")
            .run(&events);
        prop_assert_eq!(&run.per_query, &vec![expected], "workers={}", workers);
    }

    #[test]
    fn every_engine_rides_the_interned_router_identically(
        rows in vec((0u64..3, 0usize..2, 0i64..4, -4i64..5), 1..60),
    ) {
        // The router rewrite is shared substrate: every baseline engine
        // must still agree with the reference on the common ANY query.
        let reg = registry();
        let events = rows_case(&[], &rows, None).events;
        let query = QUERIES[0];
        let expected = reference(query, &reg, &events, 1);
        for kind in EngineKind::ALL {
            let run = Session::builder()
                .query(query)
                .engine(kind)
                .build(&reg)
                .expect("ANY is universally supported")
                .run(&events);
            prop_assert_eq!(&run.per_query, &vec![expected.clone()], "{}", kind);
        }
    }

    #[test]
    fn key_allocs_count_key_lives_whatever_the_drain_cadence(
        rows in vec((0u64..6, 0usize..2, 0i64..4, -4i64..5), 1..120),
        chunk in 1usize..30,
    ) {
        let reg = registry();
        let events = rows_case(&[], &rows, None).events;
        let distinct: std::collections::HashSet<i64> =
            rows.iter().map(|&(_, _, g, _)| g).collect();
        let lives = key_lives(&events, WindowSpec::new(10, 5));
        prop_assert!(lives >= distinct.len() as u64);

        // Mid-stream drains retire partitions whose windows have closed,
        // and a key that comes back later is interned afresh — or, with
        // no drain in between, found where it was. Either way it counts
        // as a new life exactly when the stream says so.
        let mut session = Session::builder()
            .query(QUERIES[0])
            .build(&reg)
            .expect("session builds");
        let mut sink: Vec<TaggedResult> = Vec::new();
        for c in events.chunks(chunk) {
            for e in c {
                session.process(e);
            }
            session.drain_into(&mut sink);
        }
        session.finish_into(&mut sink);
        let stats = session.run_stats();
        prop_assert_eq!(stats.key_probes, events.len() as u64, "every event probes once");
        prop_assert_eq!(stats.key_allocs, lives, "one per key life, none within a life");

        // And the collecting runner surfaces the same counters.
        let run = Session::builder()
            .query(QUERIES[0])
            .build(&reg)
            .expect("session builds")
            .run(&events);
        prop_assert_eq!(run.stats, stats, "cadence-independent counters");
        prop_assert_eq!(run.events, events.len() as u64);
    }
}

/// Adversarial key churn: every session id is fresh and short-lived, so
/// partitions retire and their ids and key slots are reused all along the
/// stream — and the interned/dense router still matches the
/// `Vec<Value>`-keyed reference (which knows no ids at all) byte for
/// byte, across all worker counts.
#[test]
fn churn_streams_match_the_reference_while_ids_are_reused() {
    use cogra::workloads::{churn, ChurnConfig};
    let reg = churn::registry();
    let query = churn::count_query(40, 20);
    let events = churn::generate(&ChurnConfig {
        events: 600,
        seed: 23,
        ..ChurnConfig::default()
    });
    let distinct: std::collections::HashSet<&Value> = events.iter().map(|e| &e.attrs[0]).collect();
    assert!(
        distinct.len() >= events.len() / 20,
        "churn generator lost its bite: {} keys over {} events",
        distinct.len(),
        events.len()
    );
    let lives = key_lives(&events, WindowSpec::new(40, 20));
    assert!(lives >= distinct.len() as u64);

    let expected = reference(&query, &reg, &events, 1);
    assert!(!expected.is_empty(), "churn stream closes windows");
    for workers in WORKER_COUNTS {
        let run = Session::builder()
            .query(query.as_str())
            .workers(workers)
            .build(&reg)
            .expect("session builds")
            .run(&events);
        assert_eq!(run.per_query, vec![expected.clone()], "workers={workers}");
        assert_eq!(
            run.stats.key_allocs, lives,
            "workers={workers}: one per life of a session id"
        );
    }
}

/// Deterministic spot check of the RunStats plumbing end to end,
/// including the sharded path (where counters come back from the worker
/// threads' replies).
#[test]
fn run_stats_surface_through_workers() {
    let reg = registry();
    let rows: Vec<(u64, usize, i64, i64)> = (0..200)
        .map(|i| (1u64, i % 2, (i % 3) as i64, i as i64))
        .collect();
    let events = rows_case(&[], &rows, None).events;
    for workers in WORKER_COUNTS {
        let run = Session::builder()
            .query(QUERIES[0])
            .workers(workers)
            .build(&reg)
            .expect("session builds")
            .run(&events);
        assert_eq!(
            run.stats.key_probes,
            events.len() as u64,
            "workers={workers}: every routed event probes exactly once"
        );
        assert_eq!(
            run.stats.key_allocs, 3,
            "workers={workers}: three groups ⇒ three materializations"
        );
    }
}
