//! Stock-market workload (§9.1: "stock real data set \[3\] contains 225k
//! transaction records of 19 companies in 10 sectors").
//!
//! This synthetic generator stands in for the EODData historical feed the
//! paper replays (a proprietary download; README, "Reproduce the
//! evaluation"). It reproduces the
//! characteristics the evaluation depends on: 19 companies spread over 10
//! sectors, per-company price random walks with a configurable down-tick
//! probability (query q3 detects down-trends), and a pair of auxiliary
//! attributes (`sel`, `gate`) that give the Figure 9 experiment *exact*
//! control over the selectivity of a predicate on adjacent events:
//! `sel ~ U[0,100]` on the predecessor and `gate` distributed such that
//! `P(sel <= gate) = selectivity` for independent pairs.

use cogra_events::{Event, EventBuilder, TypeRegistry, Value, ValueKind};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configuration of the stock stream.
#[derive(Debug, Clone)]
pub struct StockConfig {
    /// Number of companies (the paper's data set has 19).
    pub companies: usize,
    /// Number of sectors (the paper's data set has 10).
    pub sectors: usize,
    /// Number of events to generate.
    pub events: usize,
    /// Probability that a price tick moves down (q3 matches down-trends).
    pub down_prob: f64,
    /// Target selectivity of the `A.sel <= NEXT(A).gate` predicate on
    /// adjacent events, in `[0, 1]` (Figure 9 sweeps 10%–90%).
    pub selectivity: f64,
    /// RNG seed — streams are fully deterministic.
    pub seed: u64,
}

impl Default for StockConfig {
    fn default() -> Self {
        StockConfig {
            companies: 19,
            sectors: 10,
            events: 10_000,
            down_prob: 0.5,
            selectivity: 0.5,
            seed: 7,
        }
    }
}

/// Register the `Stock` event type.
pub fn registry() -> TypeRegistry {
    let mut r = TypeRegistry::new();
    r.register_type(
        "Stock",
        vec![
            ("company", ValueKind::Int),
            ("sector", ValueKind::Int),
            ("price", ValueKind::Float),
            ("volume", ValueKind::Int),
            ("sel", ValueKind::Float),
            ("gate", ValueKind::Float),
        ],
    );
    r
}

/// Generate the stream: one event per tick, companies drawn uniformly,
/// sector = company % sectors (fixed mapping, as in the real feed where a
/// company's sector never changes).
pub fn generate(cfg: &StockConfig) -> Vec<Event> {
    assert!(cfg.companies > 0 && cfg.sectors > 0);
    assert!((0.0..=1.0).contains(&cfg.selectivity));
    let reg = registry();
    let stock = reg.id_of("Stock").expect("registered above");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut prices: Vec<f64> = (0..cfg.companies)
        .map(|_| rng.random_range(50.0..150.0))
        .collect();
    let mut b = EventBuilder::new();
    let mut out = Vec::with_capacity(cfg.events);
    for i in 0..cfg.events {
        let company = rng.random_range(0..cfg.companies);
        let sector = company % cfg.sectors;
        let step: f64 = rng.random_range(0.01..1.0);
        if rng.random::<f64>() < cfg.down_prob {
            prices[company] = (prices[company] - step).max(1.0);
        } else {
            prices[company] += step;
        }
        let sel: f64 = rng.random_range(0.0..100.0);
        let gate = gate_sample(&mut rng, cfg.selectivity);
        out.push(b.event(
            (i + 1) as u64,
            stock,
            vec![
                Value::Int(company as i64),
                Value::Int(sector as i64),
                Value::Float(prices[company]),
                Value::Int(rng.random_range(1..1_000)),
                Value::Float(sel),
                Value::Float(gate),
            ],
        ));
    }
    out
}

/// Draw `gate` such that `P(U[0,100] <= gate) = selectivity` exactly:
/// for σ ≤ 0.5, `gate ~ U[0, 200σ]`; for σ > 0.5, `gate ~ U[200σ−100, 100]`.
fn gate_sample(rng: &mut StdRng, selectivity: f64) -> f64 {
    if selectivity <= 0.5 {
        rng.random_range(0.0..=(200.0 * selectivity).max(f64::MIN_POSITIVE))
    } else {
        rng.random_range((200.0 * selectivity - 100.0)..=100.0)
    }
}

/// Query q3 (§1), adapted to how this engine partitions: the paper's q3
/// groups by sector while its equivalence predicate is on the company,
/// and results are emitted per `GROUP-BY` prefix of the partition key — so
/// trends are grouped per company (19 groups, as §9.1 reports) and the
/// sector is echoed through the company key.
pub fn q3_query(within: u64, slide: u64) -> String {
    format!(
        "RETURN company, COUNT(*), AVG(B.price) \
         PATTERN SEQ(Stock A+, Stock B+) \
         SEMANTICS skip-till-any-match \
         WHERE [company] AND A.price > NEXT(A).price \
         GROUP-BY company \
         WITHIN {within} SLIDE {slide}"
    )
}

/// q3 without the predicate on adjacent events — the default Figure 7/8
/// configuration (§9.1: "since A-Seq does not support arbitrary
/// predicates on adjacent events, we evaluate our queries without such
/// predicates by default").
pub fn q3_query_no_adjacent(within: u64, slide: u64) -> String {
    format!(
        "RETURN company, COUNT(*) \
         PATTERN SEQ(Stock A+, Stock B+) \
         SEMANTICS skip-till-any-match \
         WHERE [company] \
         GROUP-BY company \
         WITHIN {within} SLIDE {slide}"
    )
}

/// The Figure 9 query: selectivity-calibrated predicate on adjacent
/// events (`A.sel <= NEXT(A).gate` holds with exactly the configured
/// probability for independent event pairs).
pub fn selectivity_query(within: u64, slide: u64) -> String {
    format!(
        "RETURN company, COUNT(*) \
         PATTERN SEQ(Stock A+, Stock B+) \
         SEMANTICS skip-till-any-match \
         WHERE [company] AND A.sel <= NEXT(A).gate \
         GROUP-BY company \
         WITHIN {within} SLIDE {slide}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cogra_events::validate_ordered;

    #[test]
    fn stream_is_deterministic_and_ordered() {
        let cfg = StockConfig {
            events: 500,
            ..Default::default()
        };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a, b);
        assert!(validate_ordered(&a).is_ok());
        assert_eq!(a.len(), 500);
    }

    #[test]
    fn sectors_are_stable_per_company() {
        let cfg = StockConfig {
            events: 1_000,
            ..Default::default()
        };
        let reg = registry();
        let schema = reg.schema(reg.id_of("Stock").unwrap());
        let company = schema.attr("company").unwrap();
        let sector = schema.attr("sector").unwrap();
        let mut seen = std::collections::HashMap::new();
        for e in generate(&cfg) {
            let c = e.attr(company).as_i64().unwrap();
            let s = e.attr(sector).as_i64().unwrap();
            let prev = seen.insert(c, s);
            assert!(prev.is_none_or(|p| p == s), "company changed sector");
        }
    }

    #[test]
    fn selectivity_is_calibrated() {
        for target in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let cfg = StockConfig {
                events: 20_000,
                selectivity: target,
                seed: 42,
                ..Default::default()
            };
            let reg = registry();
            let schema = reg.schema(reg.id_of("Stock").unwrap());
            let sel = schema.attr("sel").unwrap();
            let gate = schema.attr("gate").unwrap();
            let events = generate(&cfg);
            // Empirical selectivity over independent (shifted) pairs.
            let mut hits = 0usize;
            let mut total = 0usize;
            for pair in events.windows(2) {
                let s = pair[0].attr(sel).as_f64().unwrap();
                let g = pair[1].attr(gate).as_f64().unwrap();
                total += 1;
                if s <= g {
                    hits += 1;
                }
            }
            let measured = hits as f64 / total as f64;
            assert!(
                (measured - target).abs() < 0.02,
                "target {target}, measured {measured}"
            );
        }
    }

    #[test]
    fn prices_stay_positive() {
        let cfg = StockConfig {
            events: 5_000,
            down_prob: 0.95,
            ..Default::default()
        };
        let reg = registry();
        let price = reg
            .schema(reg.id_of("Stock").unwrap())
            .attr("price")
            .unwrap();
        for e in generate(&cfg) {
            assert!(e.attr(price).as_f64().unwrap() >= 1.0);
        }
    }

    #[test]
    fn queries_parse_and_compile() {
        let reg = registry();
        for q in [
            q3_query(600, 10),
            q3_query_no_adjacent(600, 10),
            selectivity_query(600, 10),
        ] {
            let parsed = cogra_query::parse(&q).unwrap();
            cogra_query::compile(&parsed, &reg).unwrap();
        }
    }
}
