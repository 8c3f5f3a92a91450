//! The §9 experiments: one runner per figure and table of the paper's
//! evaluation. Each runner prints the same series the paper plots
//! (latency / peak memory / throughput per approach, over the swept
//! parameter) as report tables, to be read against the paper's plots.
//!
//! Scaling note: the paper ran a 16-core /
//! 128 GB server for hours; these sweeps use laptop-scale sizes with the
//! same *shapes*. Two mechanisms stand in for the paper's "does not
//! terminate": a per-point time budget (once an engine exceeds it, larger
//! points are DNF), and a hard skip for two-step engines under
//! skip-till-any-match once the densest partition-window content exceeds
//! [`FLINK_ANY_LIMIT`] / [`SASE_ANY_LIMIT`] events (the trend count is
//! exponential in that number, so Flink's materialized sequences and
//! SASE's DFS time blow up past any budget).

use crate::harness::{human_bytes, BudgetedSweep, Measurement, Outcome};
use crate::table::Table;
use cogra_core::runtime::EngineConfig;
use cogra_core::session::EngineKind;
use cogra_events::{Event, TypeRegistry};
use cogra_query::{Query, Semantics};
use cogra_workloads::{activity, rideshare, stock, transport};
use std::collections::HashMap;
use std::time::Duration;

/// Flink is hard-skipped under skip-till-any-match when some partition's
/// window holds more events than this: it *materializes* all trends, whose
/// number is exponential in the window content (Table 3), so memory blows
/// up first (Figure 7(b)).
pub const FLINK_ANY_LIMIT: usize = 20;

/// SASE is hard-skipped under skip-till-any-match past this per-partition
/// window occupancy: it enumerates the exponential trend set by DFS
/// without storing it, so it survives slightly further than Flink before
/// its latency blows up (Figure 7(a)).
pub const SASE_ANY_LIMIT: usize = 24;

/// Experiment options.
#[derive(Debug, Clone, Default)]
pub struct ExpOptions {
    /// Reduced sizes for smoke runs (`--quick`).
    pub quick: bool,
}

/// One sweep point: a label, its stream, and its query.
struct Point {
    label: String,
    registry: TypeRegistry,
    events: Vec<Event>,
    query: Query,
    /// Engines hard-skipped at this point (expected non-termination).
    skip: Vec<EngineKind>,
}

impl Point {
    fn new(
        label: impl Into<String>,
        registry: TypeRegistry,
        events: Vec<Event>,
        query_text: &str,
    ) -> Point {
        Point {
            label: label.into(),
            registry,
            events,
            query: cogra_query::parse(query_text).expect("experiment query parses"),
            skip: Vec::new(),
        }
    }

    /// Hard-skip the two-step engines when the densest partition-window
    /// of this point exceeds their exponential-blow-up limits. Uses the
    /// exact occupancy (partition assignment is random, so the densest
    /// partition can be well above the mean).
    fn skip_two_step_any(mut self) -> Point {
        if self.query.semantics != Semantics::Any {
            return self;
        }
        let occupancy = max_partition_window_occupancy(&self.query, &self.registry, &self.events);
        if occupancy > FLINK_ANY_LIMIT {
            self.skip.push(EngineKind::Flink);
        }
        if occupancy > SASE_ANY_LIMIT {
            self.skip.push(EngineKind::Sase);
        }
        self
    }
}

/// The number of events in the densest (partition, window) pair.
fn max_partition_window_occupancy(
    query: &Query,
    registry: &TypeRegistry,
    events: &[Event],
) -> usize {
    let compiled = cogra_query::compile(query, registry).expect("experiment query compiles");
    let window = compiled.window;
    let attr_ids = compiled.partition_attr_ids(registry);
    let mut counts: HashMap<(Vec<cogra_events::Value>, cogra_events::WindowId), usize> =
        HashMap::new();
    let mut max = 0;
    for e in events {
        let Some(ids) = &attr_ids[e.type_id.index()] else {
            continue;
        };
        let key: Vec<cogra_events::Value> = ids.iter().map(|a| e.attr(*a).clone()).collect();
        for wid in window.windows_of(e.time) {
            let c = counts.entry((key.clone(), wid)).or_insert(0);
            *c += 1;
            max = max.max(*c);
        }
    }
    max
}

/// Run a sweep over `points` for `engines`, producing latency, memory and
/// (optionally) throughput tables shaped like the paper's figures.
fn run_sweep(
    figure: &str,
    param: &str,
    engines: &[EngineKind],
    points: Vec<Point>,
    budget: Duration,
    with_throughput: bool,
) -> Vec<Table> {
    let cfg = EngineConfig::default();
    let mut sweeps: HashMap<EngineKind, BudgetedSweep> = engines
        .iter()
        .map(|&e| (e, BudgetedSweep::new(budget)))
        .collect();
    // outcomes[point][engine]
    let mut outcomes: Vec<Vec<Option<Outcome>>> = Vec::new();
    for point in &points {
        let mut row = Vec::new();
        let mut digests: Vec<(EngineKind, u64, usize)> = Vec::new();
        for &engine in engines {
            if point.skip.contains(&engine) {
                row.push(Some(Outcome::Dnf));
                continue;
            }
            let built = match engine.build(&point.query, &point.registry, &cfg) {
                Ok(built) => built,
                // COGRA and SASE support every query feature (Table 9) —
                // a build failure there is a regression, not a skip.
                Err(e) if matches!(engine, EngineKind::Cogra | EngineKind::Sase) => {
                    panic!("{engine} must support every experiment query: {e}")
                }
                Err(_) => {
                    row.push(None); // unsupported (Table 9): not shown
                    continue;
                }
            };
            let mut built = Some(built);
            let outcome = sweeps.get_mut(&engine).expect("registered").run(
                || built.take().expect("engine built"),
                &point.events,
                (point.events.len() / 64).max(1),
            );
            if let Outcome::Done(m) = &outcome {
                digests.push((engine, m.digest, m.results));
            }
            row.push(Some(outcome));
        }
        if let Some(&(first_name, d0, r0)) = digests.first() {
            for &(name, d, r) in &digests[1..] {
                if d != d0 || r != r0 {
                    eprintln!(
                        "WARNING [{figure} @ {}]: {name} disagrees with {first_name}",
                        point.label
                    );
                }
            }
        }
        outcomes.push(row);
    }

    let mut columns = vec![param];
    columns.extend(engines.iter().map(|e| e.name()));
    let render = |title: String, f: &dyn Fn(&Measurement) -> String| -> Table {
        let mut t = Table::new(title, columns.clone());
        for (point, row) in points.iter().zip(&outcomes) {
            let mut cells = vec![point.label.clone()];
            for outcome in row {
                cells.push(match outcome {
                    None => "n/a".to_string(),
                    Some(Outcome::Dnf) => "DNF".to_string(),
                    Some(Outcome::Done(m)) => f(m),
                });
            }
            t.row(cells);
        }
        t
    };

    let mut tables = vec![
        render(format!("{figure}: latency [ms]"), &|m| {
            format!("{:.2}", m.latency_ms())
        }),
        render(format!("{figure}: peak memory"), &|m| {
            human_bytes(m.peak_bytes)
        }),
    ];
    if with_throughput {
        tables.push(render(format!("{figure}: throughput [events/s]"), &|m| {
            format!("{:.0}", m.throughput)
        }));
    }
    tables
}

/// Events-per-window sweep sizes.
fn sizes(opts: &ExpOptions, full: &[usize], quick: &[usize]) -> Vec<usize> {
    if opts.quick {
        quick.to_vec()
    } else {
        full.to_vec()
    }
}

/// Figure 5 — contiguous semantics, physical activity workload, all
/// approaches that support CONT (Flink, SASE, COGRA per Table 9).
pub fn fig5(opts: &ExpOptions) -> Vec<Table> {
    let points = sizes(opts, &[1_000, 5_000, 20_000, 50_000], &[400, 1_600])
        .into_iter()
        .map(|w| {
            let cfg = activity::ActivityConfig {
                events: 2 * w,
                ..Default::default()
            };
            Point::new(
                w.to_string(),
                activity::registry(),
                activity::generate(&cfg),
                &activity::contiguous_count_query(w as u64, (w / 2) as u64),
            )
        })
        .collect();
    run_sweep(
        "Figure 5 (CONT, physical activity)",
        "events/window",
        &[EngineKind::Flink, EngineKind::Sase, EngineKind::Cogra],
        points,
        Duration::from_secs(if opts.quick { 2 } else { 15 }),
        false,
    )
}

/// Figure 6 — skip-till-next-match, public transportation workload;
/// COGRA vs SASE (the only baselines with NEXT, Table 9).
pub fn fig6(opts: &ExpOptions) -> Vec<Table> {
    let points = sizes(
        opts,
        &[1_000, 5_000, 20_000, 50_000, 100_000],
        &[400, 1_600],
    )
    .into_iter()
    .map(|w| {
        let cfg = transport::TransportConfig {
            events: 2 * w,
            ..Default::default()
        };
        Point::new(
            w.to_string(),
            transport::registry(),
            transport::generate(&cfg),
            &transport::next_query(w as u64, (w / 2) as u64),
        )
    })
    .collect();
    run_sweep(
        "Figure 6 (NEXT, public transportation)",
        "events/window",
        &[EngineKind::Sase, EngineKind::Cogra],
        points,
        Duration::from_secs(if opts.quick { 2 } else { 15 }),
        false,
    )
}

/// Figure 7(a–c) — skip-till-any-match, stock workload, all approaches.
/// Two-step engines are hard-skipped once the densest per-company window
/// content exceeds [`FLINK_ANY_LIMIT`] / [`SASE_ANY_LIMIT`] (their trend
/// construction is exponential — the paper's Flink/SASE "do not
/// terminate" past 40k).
pub fn fig7(opts: &ExpOptions) -> Vec<Table> {
    let companies = 19;
    let points = sizes(opts, &[60, 120, 240, 480, 960], &[60, 120])
        .into_iter()
        .map(|w| {
            let cfg = stock::StockConfig {
                events: 2 * w,
                ..Default::default()
            };
            Point::new(
                w.to_string(),
                stock::registry(),
                stock::generate(&cfg),
                &stock::q3_query_no_adjacent(w as u64, (w / 2) as u64),
            )
            .skip_two_step_any()
        })
        .collect();
    let _ = companies;
    run_sweep(
        "Figure 7 (ANY, stock, all approaches)",
        "events/window",
        &EngineKind::PAPER_ROSTER,
        points,
        Duration::from_secs(if opts.quick { 2 } else { 20 }),
        true,
    )
}

/// Figure 8(a–c) — skip-till-any-match at high rates, online approaches
/// only (GRETA, A-Seq, COGRA).
pub fn fig8(opts: &ExpOptions) -> Vec<Table> {
    let points = sizes(opts, &[1_000, 4_000, 16_000, 64_000], &[500, 2_000])
        .into_iter()
        .map(|w| {
            let cfg = stock::StockConfig {
                events: 2 * w,
                ..Default::default()
            };
            Point::new(
                w.to_string(),
                stock::registry(),
                stock::generate(&cfg),
                &stock::q3_query_no_adjacent(w as u64, (w / 2) as u64),
            )
        })
        .collect();
    run_sweep(
        "Figure 8 (ANY, stock, online approaches)",
        "events/window",
        &[EngineKind::Greta, EngineKind::Aseq, EngineKind::Cogra],
        points,
        Duration::from_secs(if opts.quick { 2 } else { 20 }),
        true,
    )
}

/// Figure 9(a,b) — predicate selectivity 10%–90% under
/// skip-till-any-match with a predicate on adjacent events. A-Seq is
/// excluded (no such predicates, §9.3).
pub fn fig9(opts: &ExpOptions) -> Vec<Table> {
    let w = if opts.quick { 120 } else { 240 };
    let points = [0.1, 0.3, 0.5, 0.7, 0.9]
        .into_iter()
        .map(|sel| {
            let cfg = stock::StockConfig {
                events: 2 * w,
                selectivity: sel,
                ..Default::default()
            };
            Point::new(
                format!("{:.0}%", sel * 100.0),
                stock::registry(),
                stock::generate(&cfg),
                &stock::selectivity_query(w as u64, (w / 2) as u64),
            )
        })
        .collect();
    run_sweep(
        "Figure 9 (predicate selectivity, stock)",
        "selectivity",
        &[
            EngineKind::Flink,
            EngineKind::Sase,
            EngineKind::Greta,
            EngineKind::Cogra,
        ],
        points,
        Duration::from_secs(if opts.quick { 3 } else { 20 }),
        false,
    )
}

/// Figure 10(a,b) — number of trend groups, public transportation
/// workload, skip-till-any-match. Fewer groups ⇒ more events per
/// partition ⇒ the two-step engines stop terminating (the paper: Flink
/// fails below 15 groups, SASE below 25).
pub fn fig10(opts: &ExpOptions) -> Vec<Table> {
    let w: usize = if opts.quick { 120 } else { 240 };
    // Descending difficulty: more groups = fewer events per partition, so
    // sweep from many groups down to few (the budget mechanism assumes
    // points get harder along the sweep).
    let groups = if opts.quick {
        vec![30usize, 10]
    } else {
        vec![30, 25, 20, 15, 10, 5]
    };
    let points = groups
        .into_iter()
        .map(|g| {
            let cfg = transport::TransportConfig {
                passengers: g,
                events: 2 * w,
                ..Default::default()
            };
            Point::new(
                g.to_string(),
                transport::registry(),
                transport::generate(&cfg),
                &transport::grouping_query(w as u64, (w / 2) as u64),
            )
            .skip_two_step_any()
        })
        .collect();
    run_sweep(
        "Figure 10 (trend groups, public transportation)",
        "groups",
        &EngineKind::PAPER_ROSTER,
        points,
        Duration::from_secs(if opts.quick { 3 } else { 20 }),
        false,
    )
}

/// Table 3 — number of trends by pattern class × matching semantics,
/// counted exactly by the oracle enumerator on an A/B stream.
pub fn table3(opts: &ExpOptions) -> Vec<Table> {
    use cogra_baselines::oracle::count_trends;
    use cogra_core::QueryRuntime;
    use cogra_events::{EventBuilder, Value, ValueKind};

    let mut reg = TypeRegistry::new();
    for t in ["A", "B", "C"] {
        reg.register_type(t, vec![("v", ValueKind::Int)]);
    }
    let ns: Vec<usize> = if opts.quick {
        vec![4, 8]
    } else {
        vec![4, 6, 8, 10, 12, 14]
    };
    let mut t = Table::new(
        "Table 3: number of trends in the number of events (exact oracle counts)",
        vec![
            "events n",
            "seq ANY",
            "seq NEXT",
            "seq CONT",
            "kleene ANY",
            "kleene NEXT",
            "kleene CONT",
        ],
    );
    for &n in &ns {
        // Alternating a b a b ... stream with one trailing c to exercise
        // the contiguity reset.
        let mut b = EventBuilder::new();
        let a_id = reg.id_of("A").unwrap();
        let b_id = reg.id_of("B").unwrap();
        let events: Vec<Event> = (0..n)
            .map(|i| {
                let ty = if i % 2 == 0 { a_id } else { b_id };
                b.event((i + 1) as u64, ty, vec![Value::Int(i as i64)])
            })
            .collect();
        let mut cells = vec![n.to_string()];
        for pattern in ["SEQ(A, B)", "(SEQ(A+, B))+"] {
            for sem in [Semantics::Any, Semantics::Next, Semantics::Cont] {
                let q = cogra_query::parse(&format!(
                    "RETURN COUNT(*) PATTERN {pattern} SEMANTICS {} WITHIN 1000000 SLIDE 1000000",
                    sem.keyword()
                ))
                .unwrap();
                let compiled = cogra_query::compile(&q, &reg).unwrap();
                let rt = QueryRuntime::new(compiled, &reg);
                let count = count_trends(&rt.disjuncts[0], &events, sem);
                cells.push(count.to_string());
            }
        }
        t.row(cells);
    }
    vec![t]
}

/// Table 8 — aggregation functions at the three granularities: run every
/// function over the same workload per semantics and report COGRA's
/// latency (they must all stay in the same ballpark — incremental
/// maintenance is O(1) per slot).
pub fn table8(opts: &ExpOptions) -> Vec<Table> {
    let w: usize = if opts.quick { 2_000 } else { 20_000 };
    let cfg = stock::StockConfig {
        events: 2 * w,
        ..Default::default()
    };
    let events = stock::generate(&cfg);
    let reg = stock::registry();
    let aggs = [
        ("COUNT(*)", "COUNT(*)"),
        ("COUNT(E)", "COUNT(B)"),
        ("MIN", "MIN(B.price)"),
        ("MAX", "MAX(B.price)"),
        ("SUM", "SUM(B.price)"),
        ("AVG", "AVG(B.price)"),
    ];
    let mut t = Table::new(
        "Table 8: aggregation functions — COGRA latency [ms] per semantics/granularity",
        vec!["function", "ANY (type)", "ANY+θ (mixed)", "NEXT (pattern)"],
    );
    for (label, agg) in aggs {
        let mut cells = vec![label.to_string()];
        for (sem, theta) in [
            ("skip-till-any-match", ""),
            ("skip-till-any-match", "AND A.sel <= NEXT(A).gate "),
            ("skip-till-next-match", ""),
        ] {
            let text = format!(
                "RETURN company, {agg} PATTERN SEQ(Stock A+, Stock B+) SEMANTICS {sem} \
                 WHERE [company] {theta}GROUP-BY company WITHIN {w} SLIDE {}",
                w / 2
            );
            let query = cogra_query::parse(&text).unwrap();
            let mut engine = EngineKind::Cogra
                .build(&query, &reg, &EngineConfig::default())
                .expect("cogra supports everything");
            let m = crate::harness::measure(engine.as_mut(), &events, events.len());
            cells.push(format!("{:.2}", m.latency_ms()));
        }
        t.row(cells);
    }
    vec![t]
}

/// Ridesharing demo experiment (query q2 end to end) — not a paper
/// figure, but exercises the Uber use case of §1 at scale.
pub fn rideshare_demo(opts: &ExpOptions) -> Vec<Table> {
    let w: usize = if opts.quick { 2_000 } else { 50_000 };
    let cfg = rideshare::RideshareConfig {
        events: 2 * w,
        ..Default::default()
    };
    let points = vec![Point::new(
        w.to_string(),
        rideshare::registry(),
        rideshare::generate(&cfg),
        &rideshare::q2_query(w as u64, (w / 2) as u64),
    )];
    run_sweep(
        "Query q2 (ridesharing, NEXT)",
        "events/window",
        &[EngineKind::Sase, EngineKind::Cogra],
        points,
        Duration::from_secs(30),
        true,
    )
}

/// All experiment names, in presentation order.
pub const ALL: [&str; 9] = [
    "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table3", "table8", "q2",
];

/// Run one experiment by name.
pub fn run(name: &str, opts: &ExpOptions) -> Vec<Table> {
    match name {
        "fig5" => fig5(opts),
        "fig6" => fig6(opts),
        "fig7" => fig7(opts),
        "fig8" => fig8(opts),
        "fig9" => fig9(opts),
        "fig10" => fig10(opts),
        "table3" => table3(opts),
        "table8" => table8(opts),
        "q2" => rideshare_demo(opts),
        other => panic!("unknown experiment `{other}` (expected one of {ALL:?})"),
    }
}
