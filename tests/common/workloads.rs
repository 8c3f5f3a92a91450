//! The one workload table: every generated case the batteries run.
//!
//! Windows are short and fraud chains shallow, so the two-step engines
//! (exponential per window) stay fast and most arms are within the
//! oracle's reach.

use super::model::Case;
use cogra::prelude::*;
use cogra::workloads::{activity, burst, churn, fraud, rideshare, skew, stock, transport};
use cogra::workloads::{
    ActivityConfig, BurstConfig, ChurnConfig, FraudConfig, RideshareConfig, SkewConfig,
    StockConfig, TransportConfig,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Arms of [`workload`].
pub const WORKLOADS: usize = 12;

/// The arms, by name.
pub const CHURN: usize = 0;
pub const STOCK_TYPE: usize = 1;
pub const STOCK_MIXED: usize = 2;
pub const STOCK_PATTERN: usize = 3;
pub const FRAUD: usize = 4;
pub const COMEBACK: usize = 5;
pub const SKEW: usize = 6;
pub const BURST: usize = 7;
pub const RIDESHARE: usize = 8;
pub const TRANSPORT: usize = 9;
pub const DUPLICATES: usize = 10;
pub const KEYLESS: usize = 11;

fn case(name: &str, registry: TypeRegistry, queries: Vec<String>, events: Vec<Event>) -> Case {
    Case {
        name: name.to_string(),
        registry,
        roster: queries
            .into_iter()
            .map(|q| (q, EngineKind::Cogra))
            .collect(),
        events,
        slack: None,
        same: Vec::new(),
    }
}

/// The stream of [`COMEBACK`]: `Reading(g, k, v)` over 2 × 6 partition
/// keys `(g, k)`, of which a different third — two per group — is awake
/// in each stretch of 40 ticks. So every key falls silent for several
/// `WITHIN 10`s on end, its partition retires, and it comes back to
/// whatever slot is free then. `v` is a float with no short binary
/// expansion: the per-group `SUM` depends on the order its partitions
/// merge in, to the last bit.
fn comeback(seed: u64, n: usize) -> Case {
    let mut registry = TypeRegistry::new();
    let reading = registry.register_type(
        "Reading",
        vec![
            ("g", ValueKind::Int),
            ("k", ValueKind::Int),
            ("v", ValueKind::Float),
        ],
    );
    // Equivalence on `k` under GROUP-BY `g`: partition key (g, k), result
    // group (g) — each result merges two to four partitions.
    let query = "RETURN g, COUNT(*), SUM(R.v), AVG(R.v) PATTERN Reading R+ SEMANTICS NEXT \
                 WHERE [k] GROUP-BY g WITHIN 10 SLIDE 5"
        .to_string();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next = move |bound: u64| rng.random_range(0..bound);
    let mut builder = EventBuilder::new();
    let mut t = 0;
    let events = (0..n)
        .map(|_| {
            t += next(3);
            let stretch = t / 40;
            // Four of the twelve keys are awake in a stretch.
            let key = (next(4) * 3 + stretch % 3) as i64;
            let v = 0.1 + next(1000) as f64 / 7.0;
            let attrs = vec![Value::Int(key / 6), Value::Int(key % 6), Value::Float(v)];
            builder.event(t, reading, attrs)
        })
        .collect();
    case("comeback", registry, vec![query], events)
}

/// The stream of [`KEYLESS`]: `Reading(g, v)` over four groups, with a
/// `Beacon(v)` — a type without `g` — about every fourth event, a
/// `Noise(g, v)` and a `Tick(v)` about every eighth, and ticks to end on.
/// Under `GROUP-BY g` a beacon belongs to no sub-stream; the contiguous
/// query keeps noise, which breaks a group's trends. The pinned query (no
/// `GROUP-BY`: one shard) pairs readings with beacons. No query wants a
/// tick, yet the windows its time closes must be emitted.
fn keyless(seed: u64, n: usize) -> Case {
    let mut registry = TypeRegistry::new();
    let keyed = || vec![("g", ValueKind::Int), ("v", ValueKind::Int)];
    let reading = registry.register_type("Reading", keyed());
    let beacon = registry.register_type("Beacon", vec![("v", ValueKind::Int)]);
    let noise = registry.register_type("Noise", keyed());
    let tick = registry.register_type("Tick", vec![("v", ValueKind::Int)]);
    let queries = [
        "RETURN g, COUNT(*), SUM(R.v) PATTERN Reading R+ SEMANTICS CONT \
         GROUP-BY g WITHIN 10 SLIDE 5",
        "RETURN COUNT(*), SUM(B.v) PATTERN SEQ(Reading R, Beacon B) SEMANTICS ANY \
         WITHIN 10 SLIDE 5",
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next = move |bound: u64| rng.random_range(0..bound);
    let mut builder = EventBuilder::new();
    let mut t = 0;
    let events = (0..n)
        .map(|i| {
            t += next(2);
            let v = Value::Int(next(100) as i64);
            let g = Value::Int(next(4) as i64);
            match next(8) {
                k if k == 3 || i >= n - n / 8 => builder.event(t, tick, vec![v]),
                0 | 1 => builder.event(t, beacon, vec![v]),
                2 => builder.event(t, noise, vec![g, v]),
                _ => builder.event(t, reading, vec![g, v]),
            }
        })
        .collect();
    let queries = queries.map(str::to_string).to_vec();
    case("keyless", registry, queries, events)
}

/// Workload `idx` of the table: `n` events under `seed`. The first roster
/// entry is the arm's namesake; the others ride along on the same stream.
pub fn workload(idx: usize, seed: u64, n: usize) -> Case {
    let stock_events = || {
        stock::generate(&StockConfig {
            events: n,
            seed,
            ..StockConfig::default()
        })
    };
    match idx {
        CHURN => case(
            "churn",
            churn::registry(),
            vec![churn::count_query(12, 6)],
            churn::generate(&ChurnConfig {
                events: n,
                seed,
                ..ChurnConfig::default()
            }),
        ),
        // Type-grained, and inside every baseline's Table 9 row; with a
        // selectivity query and a duplicate of the first, so sharing
        // collapses three roster entries onto two runs.
        STOCK_TYPE => case(
            "stock-type",
            stock::registry(),
            vec![
                stock::q3_query_no_adjacent(40, 20),
                stock::selectivity_query(40, 20),
                stock::q3_query_no_adjacent(40, 20),
            ],
            stock_events(),
        ),
        // Mixed-grained (stored events); A-Seq rejects the predicate.
        STOCK_MIXED => case(
            "stock-mixed",
            stock::registry(),
            vec![stock::q3_query(40, 20)],
            stock_events(),
        ),
        // Pattern-grained (contiguous); GRETA and A-Seq are ANY-only.
        STOCK_PATTERN => case(
            "stock-pattern",
            stock::registry(),
            vec![stock::q3_query_no_adjacent(40, 20).replace("skip-till-any-match", "contiguous")],
            stock_events(),
        ),
        // Near-zero selectivity; the rate is high enough that a
        // few-hundred-event stream still plants complete chains.
        FRAUD => case(
            "fraud",
            fraud::registry(),
            vec![fraud::detect_query(30, 15)],
            fraud::generate(&FraudConfig {
                events: n,
                seed,
                fraud_rate: 0.03,
                chain_len: 5,
                ..FraudConfig::default()
            }),
        ),
        COMEBACK => comeback(seed, n),
        // A hot key is a hot shard.
        SKEW => case(
            "skew",
            skew::registry(),
            vec![skew::count_query(50, 25)],
            skew::generate(&SkewConfig {
                events: n,
                seed,
                ..SkewConfig::default()
            }),
        ),
        // Flash crowds, ~4 events a tick, time stamps scattered up to 24
        // ticks backwards: the one arm that is born disordered.
        BURST => burst_case(seed, n, BurstConfig::default().disorder, None),
        // The same skip-till-next-match query twice: one physical run.
        RIDESHARE => case(
            "rideshare",
            rideshare::registry(),
            vec![rideshare::q2_query(80, 40), rideshare::q2_query(80, 40)],
            rideshare::generate(&RideshareConfig {
                events: n,
                seed,
                ..RideshareConfig::default()
            }),
        ),
        TRANSPORT => case(
            "transport",
            transport::registry(),
            vec![
                transport::grouping_query(60, 30),
                transport::next_query(40, 20),
            ],
            transport::generate(&TransportConfig {
                events: n,
                seed,
                ..TransportConfig::default()
            }),
        ),
        KEYLESS => keyless(seed, n),
        // The healthcare-style duplicate roster: q1, a renamed-variable
        // copy (textually different, same canonical signature), q1 again.
        _ => {
            let q1 = activity::q1_query(60, 30);
            let renamed = q1
                .replace("Measurement M+", "Measurement R+")
                .replace("NEXT(M)", "NEXT(R)")
                .replace("M.", "R.");
            assert_ne!(q1, renamed);
            let events = activity::generate(&ActivityConfig {
                events: n,
                seed,
                ..ActivityConfig::default()
            });
            let mut case = case(
                "duplicates",
                activity::registry(),
                vec![q1.clone(), renamed, q1],
                events,
            );
            case.same = vec![(0, 1)];
            case
        }
    }
}

/// [`workload`], its arrival order jittered beyond `slack` (so some events
/// are hopelessly late) under `.slack(slack)` — as it is for `slack` 0.
pub fn disordered(idx: usize, seed: u64, n: usize, slack: u64) -> Case {
    let case = workload(idx, seed, n);
    if slack == 0 {
        return case;
    }
    case.jittered(slack, seed ^ 0x9e37)
}

/// The burst generator with `disorder` ticks of scatter, repaired with
/// `slack` (default: all of it).
pub fn burst_case(seed: u64, n: usize, disorder: u64, slack: Option<u64>) -> Case {
    let events = burst::generate(&BurstConfig {
        disorder,
        events: n,
        seed,
        ..BurstConfig::default()
    });
    let query = vec![burst::count_query(16, 8)];
    let mut case = case("burst", burst::registry(), query, events);
    case.slack = Some(slack.unwrap_or(disorder));
    case
}

/// The granularity × negation matrix over [`abc_registry`]. `C` is the
/// negated type where the pattern has one and an irrelevant one elsewhere
/// — which under the contiguous semantics still reaches the windows and
/// invalidates the last matched event.
pub const MATRIX: [(&str, Granularity); 8] = [
    (
        "RETURN g, COUNT(*), SUM(A.v), MIN(B.v) PATTERN SEQ(A+, B) SEMANTICS ANY \
         GROUP-BY g WITHIN 10 SLIDE 5",
        Granularity::Type,
    ),
    (
        "RETURN g, COUNT(*), MAX(A.v) PATTERN SEQ(A+, NOT C, B) SEMANTICS ANY \
         GROUP-BY g WITHIN 10 SLIDE 5",
        Granularity::Type,
    ),
    (
        "RETURN g, COUNT(*), SUM(A.v) PATTERN SEQ(A+, B) SEMANTICS ANY \
         WHERE A.v < NEXT(A).v GROUP-BY g WITHIN 10 SLIDE 5",
        Granularity::Mixed,
    ),
    (
        "RETURN g, COUNT(*), COUNT(A) PATTERN SEQ(A+, NOT C, B) SEMANTICS ANY \
         WHERE A.v < NEXT(A).v GROUP-BY g WITHIN 10 SLIDE 5",
        Granularity::Mixed,
    ),
    // The end state stores events: results come from the accumulator.
    (
        "RETURN g, COUNT(*), SUM(A.v) PATTERN A+ SEMANTICS ANY \
         WHERE A.v < NEXT(A).v GROUP-BY g WITHIN 10 SLIDE 5",
        Granularity::Mixed,
    ),
    (
        "RETURN g, COUNT(*), SUM(A.v) PATTERN SEQ(A+, B) SEMANTICS NEXT \
         GROUP-BY g WITHIN 12 SLIDE 4",
        Granularity::Pattern,
    ),
    (
        "RETURN g, COUNT(*), AVG(A.v) PATTERN SEQ(A+, B) SEMANTICS CONT \
         GROUP-BY g WITHIN 8 SLIDE 4",
        Granularity::Pattern,
    ),
    (
        "RETURN g, COUNT(*) PATTERN SEQ(A+, NOT C, B) SEMANTICS NEXT \
         GROUP-BY g WITHIN 12 SLIDE 4",
        Granularity::Pattern,
    ),
];

/// What the stored projection has to get right, under each semantics
/// (ANY: the mixed-grained arena; NEXT, CONT: the last matched event): one
/// type bound at two states whose predicates on adjacent events read
/// different attributes of it — one of them a string, both on Kleene
/// self-loops — and one across; and a transition carrying a negation and
/// such a predicate at once. Over [`stored_registry`], without a stream:
/// the edge populations are derived from the plans.
pub fn stored_case() -> Case {
    let queries = ["ANY", "NEXT", "CONT"].into_iter().flat_map(|semantics| {
        [
            format!(
                "RETURN g, COUNT(*), SUM(X.v) PATTERN SEQ(A X+, A Y+, B) SEMANTICS {semantics} \
                 WHERE X.v < NEXT(X).v AND Y.s < NEXT(Y).s AND X.v <= Y.v \
                 GROUP-BY g WITHIN 10 SLIDE 5"
            ),
            format!(
                "RETURN g, COUNT(*), MAX(A.v) PATTERN SEQ(A+, NOT C, B) SEMANTICS {semantics} \
                 WHERE A.v < NEXT(A).v AND A.v < B.v GROUP-BY g WITHIN 10 SLIDE 5"
            ),
        ]
    });
    case("stored", stored_registry(), queries.collect(), Vec::new())
}

/// [`abc_registry`] with a string beside the integer: `(g, v, s)`.
pub fn stored_registry() -> TypeRegistry {
    let mut registry = TypeRegistry::new();
    let attrs = [
        ("g", ValueKind::Int),
        ("v", ValueKind::Int),
        ("s", ValueKind::Str),
    ];
    for t in ["A", "B", "C"] {
        registry.register_type(t, attrs.to_vec());
    }
    registry
}

/// Types `A`, `B`, `C` over `(g, v)`: what sampled rows and the edge
/// populations are made of.
pub fn abc_registry() -> TypeRegistry {
    let mut registry = TypeRegistry::new();
    for t in ["A", "B", "C"] {
        registry.register_type(t, vec![("g", ValueKind::Int), ("v", ValueKind::Int)]);
    }
    registry
}

/// Sampled `(time step, type, g, v)` rows as a time-ordered stream over
/// [`abc_registry`] (a step of 0 keeps the time stamp: several events in
/// one stream transaction) — or, with `slack`, `(time, type, g, v)` rows
/// in arrival order, disordered without bound.
pub fn rows_case(queries: &[&str], rows: &[(u64, usize, i64, i64)], slack: Option<u64>) -> Case {
    let registry = abc_registry();
    let ids = ["A", "B", "C"].map(|t| registry.id_of(t).expect("registered"));
    let mut builder = EventBuilder::new();
    let mut t = 1;
    let events = rows
        .iter()
        .map(|&(step, ty, g, v)| {
            t = if slack.is_some() { step + 1 } else { t + step };
            builder.event(t, ids[ty], vec![Value::Int(g), Value::Int(v)])
        })
        .collect();
    let queries = queries.iter().map(|q| q.to_string()).collect();
    let mut case = case("rows", registry, queries, events);
    case.slack = slack;
    case
}
