//! Criterion micro-benches: one group per paper figure/table, exercising
//! the same workload × query × engine combinations as the `experiments`
//! binary at bench-friendly sizes. Absolute numbers are laptop-scale; the
//! *relative* ordering of the engines is what reproduces the paper
//! (README, "Reproduce the evaluation").

use cogra_core::run_to_completion;
use cogra_core::runtime::EngineConfig;
use cogra_core::session::{EngineKind, Session};
use cogra_events::{Event, TypeRegistry};
use cogra_workloads::{activity, stock, transport};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

struct Scenario {
    registry: TypeRegistry,
    events: Vec<Event>,
    query: cogra_query::Query,
}

fn scenario(registry: TypeRegistry, events: Vec<Event>, query: &str) -> Scenario {
    Scenario {
        registry,
        events,
        query: cogra_query::parse(query).expect("bench query parses"),
    }
}

fn bench_engines(c: &mut Criterion, group: &str, s: &Scenario, engines: &[EngineKind]) {
    let mut g = c.benchmark_group(group);
    g.sample_size(10);
    for &engine in engines {
        let cfg = EngineConfig::default();
        if !engine.supports(&s.query, &s.registry) {
            assert!(
                !matches!(engine, EngineKind::Cogra | EngineKind::Sase),
                "{engine} must support every bench query (Table 9)"
            );
            continue; // unsupported (Table 9)
        }
        g.bench_with_input(BenchmarkId::from_parameter(engine), &engine, |b, &kind| {
            b.iter(|| {
                let mut e = kind
                    .build(&s.query, &s.registry, &cfg)
                    .expect("checked above");
                let (results, peak) =
                    run_to_completion(e.as_mut(), black_box(&s.events), usize::MAX);
                black_box((results.len(), peak))
            });
        });
    }
    g.finish();
}

/// Figure 5: contiguous semantics, physical activity.
fn fig5(c: &mut Criterion) {
    let w = 800usize;
    let cfg = activity::ActivityConfig {
        events: 2 * w,
        ..Default::default()
    };
    let s = scenario(
        activity::registry(),
        activity::generate(&cfg),
        &activity::contiguous_count_query(w as u64, (w / 2) as u64),
    );
    bench_engines(
        c,
        "fig5_contiguous",
        &s,
        &[EngineKind::Flink, EngineKind::Sase, EngineKind::Cogra],
    );
}

/// Figure 6: skip-till-next-match, public transportation.
fn fig6(c: &mut Criterion) {
    let w = 800usize;
    let cfg = transport::TransportConfig {
        events: 2 * w,
        ..Default::default()
    };
    let s = scenario(
        transport::registry(),
        transport::generate(&cfg),
        &transport::next_query(w as u64, (w / 2) as u64),
    );
    bench_engines(c, "fig6_next", &s, &[EngineKind::Sase, EngineKind::Cogra]);
}

/// Figure 7: skip-till-any-match, stock, all approaches (small window so
/// the two-step engines terminate).
fn fig7(c: &mut Criterion) {
    let w = 120usize;
    let cfg = stock::StockConfig {
        events: 2 * w,
        ..Default::default()
    };
    let s = scenario(
        stock::registry(),
        stock::generate(&cfg),
        &stock::q3_query_no_adjacent(w as u64, (w / 2) as u64),
    );
    bench_engines(c, "fig7_any_all", &s, &EngineKind::PAPER_ROSTER);
}

/// Figure 8: skip-till-any-match at a higher rate, online approaches.
fn fig8(c: &mut Criterion) {
    let w = 4_000usize;
    let cfg = stock::StockConfig {
        events: 2 * w,
        ..Default::default()
    };
    let s = scenario(
        stock::registry(),
        stock::generate(&cfg),
        &stock::q3_query_no_adjacent(w as u64, (w / 2) as u64),
    );
    bench_engines(
        c,
        "fig8_any_online",
        &s,
        &[EngineKind::Greta, EngineKind::Aseq, EngineKind::Cogra],
    );
}

/// Figure 9: predicate selectivity (90% — the most demanding point).
fn fig9(c: &mut Criterion) {
    let w = 150usize;
    let cfg = stock::StockConfig {
        events: 2 * w,
        selectivity: 0.9,
        ..Default::default()
    };
    let s = scenario(
        stock::registry(),
        stock::generate(&cfg),
        &stock::selectivity_query(w as u64, (w / 2) as u64),
    );
    bench_engines(
        c,
        "fig9_selectivity",
        &s,
        &[
            EngineKind::Flink,
            EngineKind::Sase,
            EngineKind::Greta,
            EngineKind::Cogra,
        ],
    );
}

/// Figure 10: trend grouping (30 groups — every engine terminates).
fn fig10(c: &mut Criterion) {
    let w = 240usize;
    let cfg = transport::TransportConfig {
        passengers: 30,
        events: 2 * w,
        ..Default::default()
    };
    let s = scenario(
        transport::registry(),
        transport::generate(&cfg),
        &transport::grouping_query(w as u64, (w / 2) as u64),
    );
    bench_engines(c, "fig10_grouping", &s, &EngineKind::PAPER_ROSTER);
}

/// §8 scalability: the Figure 10 trend-grouping scenario executed through
/// the streaming shard router at increasing worker counts — the `workers`
/// axis that makes the sharding speedup measurable.
fn fig10_workers(c: &mut Criterion) {
    let w = 240usize;
    let cfg = transport::TransportConfig {
        passengers: 30,
        events: 8 * w,
        ..Default::default()
    };
    let registry = transport::registry();
    let events = transport::generate(&cfg);
    let query = transport::grouping_query(w as u64, (w / 2) as u64);
    let mut g = c.benchmark_group("fig10_workers");
    g.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &n| {
            b.iter(|| {
                let run = Session::builder()
                    .query(query.as_str())
                    .workers(n)
                    .build(&registry)
                    .expect("bench session builds")
                    .run(black_box(&events));
                black_box((run.per_query[0].len(), run.peak_bytes))
            });
        });
    }
    g.finish();
}

/// Table 8: each aggregation function on COGRA (type granularity).
fn table8(c: &mut Criterion) {
    let w = 4_000usize;
    let cfg = stock::StockConfig {
        events: 2 * w,
        ..Default::default()
    };
    let events = stock::generate(&cfg);
    let registry = stock::registry();
    let mut g = c.benchmark_group("table8_functions");
    g.sample_size(10);
    for agg in [
        "COUNT(*)",
        "COUNT(B)",
        "MIN(B.price)",
        "SUM(B.price)",
        "AVG(B.price)",
    ] {
        let text = format!(
            "RETURN company, {agg} PATTERN SEQ(Stock A+, Stock B+) \
             SEMANTICS skip-till-any-match WHERE [company] GROUP-BY company \
             WITHIN {w} SLIDE {}",
            w / 2
        );
        let query = cogra_query::parse(&text).unwrap();
        g.bench_with_input(BenchmarkId::from_parameter(agg), &query, |b, q| {
            b.iter(|| {
                let mut e = EngineKind::Cogra
                    .build(q, &registry, &EngineConfig::default())
                    .unwrap();
                let out = run_to_completion(e.as_mut(), black_box(&events), usize::MAX);
                black_box(out.0.len())
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig10_workers,
    table8
);
criterion_main!(benches);
