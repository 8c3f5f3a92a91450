//! Physical-activity-monitoring workload (§9.1: "physical activity
//! monitoring real data set \[34\] contains physical activity reports for
//! 14 people ... 18 activities are considered. A report carries time
//! stamp in seconds, person identifier, activity identifier, and heart
//! rate").
//!
//! Synthetic stand-in for the PAMAP2 recording (not redistributable):
//! each person cycles through activity episodes; during
//! *passive* episodes the heart rate performs a biased random walk whose
//! up-step probability controls how long the contiguously-increasing runs
//! are that query q1 detects under the contiguous semantics.

use cogra_events::{Event, EventBuilder, TypeRegistry, Value, ValueKind};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configuration of the activity stream.
#[derive(Debug, Clone)]
pub struct ActivityConfig {
    /// Number of monitored people (14 in the paper's data set).
    pub persons: usize,
    /// Number of distinct activities (18 in the paper's data set); the
    /// first `passive_activities` of them count as passive.
    pub activities: usize,
    /// How many of the activities are passive (reading, watching TV, ...).
    pub passive_activities: usize,
    /// Number of events to generate.
    pub events: usize,
    /// Probability that a passive-phase heart-rate step goes up — longer
    /// increasing runs make more/longer q1 trends.
    pub up_prob: f64,
    /// Mean activity episode length in reports.
    pub episode_len: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ActivityConfig {
    fn default() -> Self {
        ActivityConfig {
            persons: 14,
            activities: 18,
            passive_activities: 6,
            events: 10_000,
            up_prob: 0.6,
            episode_len: 40,
            seed: 11,
        }
    }
}

/// Register the `Measurement` event type.
pub fn registry() -> TypeRegistry {
    let mut r = TypeRegistry::new();
    r.register_type(
        "Measurement",
        vec![
            ("patient", ValueKind::Int),
            ("activity", ValueKind::Str),
            ("rate", ValueKind::Int),
        ],
    );
    r
}

/// Activity label: `passive` for passive episodes, `active<i>` otherwise.
fn activity_label(cfg: &ActivityConfig, activity: usize) -> Value {
    if activity < cfg.passive_activities {
        Value::str("passive")
    } else {
        Value::str(format!("active{activity}"))
    }
}

/// Per-person monitoring state.
struct Person {
    activity: usize,
    remaining: usize,
    rate: i64,
}

/// Generate the stream: round-robin over persons (every person reports at
/// a steady cadence, like the body-worn sensors in PAMAP2).
pub fn generate(cfg: &ActivityConfig) -> Vec<Event> {
    assert!(cfg.persons > 0 && cfg.activities > 0);
    assert!(cfg.passive_activities <= cfg.activities);
    let reg = registry();
    let ty = reg.id_of("Measurement").expect("registered above");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut persons: Vec<Person> = (0..cfg.persons)
        .map(|_| Person {
            activity: rng.random_range(0..cfg.activities),
            remaining: rng.random_range(1..=cfg.episode_len.max(1)),
            rate: rng.random_range(55..85),
        })
        .collect();
    let mut b = EventBuilder::new();
    let mut out = Vec::with_capacity(cfg.events);
    for i in 0..cfg.events {
        let pid = i % cfg.persons;
        let p = &mut persons[pid];
        if p.remaining == 0 {
            p.activity = rng.random_range(0..cfg.activities);
            p.remaining = rng.random_range(1..=cfg.episode_len.max(1));
        }
        p.remaining -= 1;
        let passive = p.activity < cfg.passive_activities;
        let step = rng.random_range(1..4);
        // Passive phases follow the biased walk; active phases jump
        // around more (exercise), breaking monotone runs.
        let up = if passive {
            rng.random::<f64>() < cfg.up_prob
        } else {
            rng.random::<f64>() < 0.5
        };
        let magnitude = if passive { step } else { step * 4 };
        p.rate = (p.rate + if up { magnitude } else { -magnitude }).clamp(40, 200);
        out.push(b.event(
            (i + 1) as u64,
            ty,
            vec![
                Value::Int(pid as i64),
                activity_label(cfg, p.activity),
                Value::Int(p.rate),
            ],
        ));
    }
    out
}

/// Query q1 (§1): min/max heart rate of contiguously increasing runs
/// during passive activities, per patient.
pub fn q1_query(within: u64, slide: u64) -> String {
    format!(
        "RETURN patient, MIN(M.rate), MAX(M.rate) \
         PATTERN Measurement M+ \
         SEMANTICS contiguous \
         WHERE [patient] AND M.rate < NEXT(M).rate AND M.activity = passive \
         GROUP-BY patient \
         WITHIN {within} SLIDE {slide}"
    )
}

/// Figure 5 variant: trend count of contiguous increasing runs (COUNT is
/// the aggregate the paper's latency plots use throughout).
pub fn contiguous_count_query(within: u64, slide: u64) -> String {
    format!(
        "RETURN patient, COUNT(*) \
         PATTERN Measurement M+ \
         SEMANTICS contiguous \
         WHERE [patient] AND M.rate < NEXT(M).rate AND M.activity = passive \
         GROUP-BY patient \
         WITHIN {within} SLIDE {slide}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cogra_events::validate_ordered;

    #[test]
    fn deterministic_and_ordered() {
        let cfg = ActivityConfig {
            events: 300,
            ..Default::default()
        };
        assert_eq!(generate(&cfg), generate(&cfg));
        assert!(validate_ordered(&generate(&cfg)).is_ok());
    }

    #[test]
    fn rates_stay_in_physiological_range() {
        let cfg = ActivityConfig {
            events: 2_000,
            ..Default::default()
        };
        let reg = registry();
        let rate = reg
            .schema(reg.id_of("Measurement").unwrap())
            .attr("rate")
            .unwrap();
        for e in generate(&cfg) {
            let r = e.attr(rate).as_i64().unwrap();
            assert!((40..=200).contains(&r));
        }
    }

    #[test]
    fn passive_share_reflects_config() {
        let cfg = ActivityConfig {
            events: 5_000,
            passive_activities: 9, // half of 18
            ..Default::default()
        };
        let reg = registry();
        let activity = reg
            .schema(reg.id_of("Measurement").unwrap())
            .attr("activity")
            .unwrap();
        let passive = generate(&cfg)
            .iter()
            .filter(|e| e.attr(activity).as_str() == Some("passive"))
            .count();
        let share = passive as f64 / 5_000.0;
        assert!((0.3..0.7).contains(&share), "share {share}");
    }

    #[test]
    fn q1_matches_exist() {
        use cogra_core::{run_to_completion, CograEngine};
        let cfg = ActivityConfig {
            events: 3_000,
            up_prob: 0.7,
            ..Default::default()
        };
        let reg = registry();
        let events = generate(&cfg);
        let mut engine = CograEngine::from_text(&q1_query(600, 300), &reg).unwrap();
        let (results, _) = run_to_completion(&mut engine, &events, usize::MAX);
        assert!(!results.is_empty(), "expected q1 trends in the stream");
    }

    #[test]
    fn queries_parse_and_compile() {
        let reg = registry();
        for q in [q1_query(600, 30), contiguous_count_query(600, 30)] {
            let parsed = cogra_query::parse(&q).unwrap();
            let compiled = cogra_query::compile(&parsed, &reg).unwrap();
            assert_eq!(compiled.granularity(), cogra_query::Granularity::Pattern);
        }
    }
}
