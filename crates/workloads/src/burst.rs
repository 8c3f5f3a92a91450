//! Adversarial workload: flash-crowd bursts with deep disorder (ROADMAP
//! direction 5).
//!
//! A quiet baseline click stream punctuated by flash crowds: during a
//! burst, many events land on the same few ticks *and* arrive with their
//! time stamps scattered backwards by up to `disorder` ticks — far deeper
//! than the shallow jitter the friendly workloads apply. The stream is
//! returned in **arrival order**, not time order: it is input for
//! `.slack(n)` sessions and stresses the depth of the session's one
//! `ReorderBuffer` and its drop rule (events displaced beyond the
//! configured slack are *supposed* to be dropped, identically on every
//! worker count).

use cogra_events::{Event, EventBuilder, TypeRegistry, Value, ValueKind};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configuration of the bursty click stream.
#[derive(Debug, Clone)]
pub struct BurstConfig {
    /// Number of distinct pages (the group key).
    pub pages: usize,
    /// Events per burst; between bursts the stream idles at one event
    /// per tick.
    pub burst_len: usize,
    /// Baseline events between two bursts.
    pub quiet_len: usize,
    /// Maximum backwards time-stamp displacement during a burst, in
    /// ticks. Baseline events are displaced by at most 1.
    pub disorder: u64,
    /// Number of events to generate.
    pub events: usize,
    /// RNG seed — streams are fully deterministic.
    pub seed: u64,
}

impl Default for BurstConfig {
    fn default() -> Self {
        BurstConfig {
            pages: 12,
            burst_len: 64,
            quiet_len: 48,
            disorder: 24,
            events: 10_000,
            seed: 7,
        }
    }
}

/// Register the `Click` event type.
pub fn registry() -> TypeRegistry {
    let mut r = TypeRegistry::new();
    r.register_type(
        "Click",
        vec![("page", ValueKind::Int), ("user", ValueKind::Int)],
    );
    r
}

/// Generate the stream in arrival order. The underlying timeline always
/// advances; arrival time stamps are the timeline minus a random
/// displacement (≤ 1 in quiet stretches, ≤ `disorder` inside a burst),
/// clamped to stay positive.
pub fn generate(cfg: &BurstConfig) -> Vec<Event> {
    assert!(cfg.pages > 0 && cfg.burst_len > 0 && cfg.quiet_len > 0);
    let reg = registry();
    let click = reg.id_of("Click").expect("registered above");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut b = EventBuilder::new();
    let mut out = Vec::with_capacity(cfg.events);
    let period = cfg.burst_len + cfg.quiet_len;
    let mut timeline = cfg.disorder + 1;
    let mut emitted = 0usize;
    while emitted < cfg.events {
        let in_burst = emitted % period < cfg.burst_len;
        if in_burst {
            // Flash crowd: ~4 events per tick, hammering one hot page,
            // time stamps scattered deep into the past.
            timeline += u64::from(emitted.is_multiple_of(4));
            let hot = (emitted / period) % cfg.pages;
            let page = if rng.random::<f64>() < 0.7 {
                hot
            } else {
                rng.random_range(0..cfg.pages)
            };
            let shift = rng.random_range(0..=cfg.disorder);
            out.push(b.event(
                timeline.saturating_sub(shift).max(1),
                click,
                vec![
                    Value::Int(page as i64),
                    Value::Int(rng.random_range(0..10_000)),
                ],
            ));
        } else {
            // Quiet baseline: one event per tick, near-ordered.
            timeline += 1;
            let shift = rng.random_range(0..=1u64);
            out.push(b.event(
                timeline.saturating_sub(shift).max(1),
                click,
                vec![
                    Value::Int(rng.random_range(0..cfg.pages) as i64),
                    Value::Int(rng.random_range(0..10_000)),
                ],
            ));
        }
        emitted += 1;
    }
    out
}

/// Per-page click-run count over sliding windows.
pub fn count_query(within: u64, slide: u64) -> String {
    format!(
        "RETURN page, COUNT(*) \
         PATTERN Click C+ \
         SEMANTICS skip-till-any-match \
         GROUP-BY page \
         WITHIN {within} SLIDE {slide}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic() {
        let cfg = BurstConfig {
            events: 500,
            ..Default::default()
        };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
    }

    #[test]
    fn disorder_is_deep_but_bounded() {
        let cfg = BurstConfig {
            events: 4_000,
            disorder: 24,
            ..Default::default()
        };
        let events = generate(&cfg);
        // Displacement of each event vs. the running watermark.
        let mut watermark = 0u64;
        let mut deepest = 0u64;
        for e in &events {
            let t = e.time.ticks();
            deepest = deepest.max(watermark.saturating_sub(t));
            watermark = watermark.max(t);
        }
        assert!(
            deepest > cfg.disorder / 2,
            "deepest displacement {deepest} — bursts are not deep"
        );
        assert!(
            deepest <= cfg.disorder,
            "displacement {deepest} exceeds the configured bound {}",
            cfg.disorder
        );
    }

    #[test]
    fn bursts_concentrate_arrivals() {
        let cfg = BurstConfig {
            events: 4_000,
            ..Default::default()
        };
        let events = generate(&cfg);
        // Events per distinct tick: a burst packs ~4 events per tick, the
        // baseline exactly 1 — so the mean must sit clearly above 1.
        let distinct: std::collections::HashSet<u64> =
            events.iter().map(|e| e.time.ticks()).collect();
        let per_tick = events.len() as f64 / distinct.len() as f64;
        assert!(per_tick > 1.5, "mean {per_tick} events/tick — no crowding");
    }

    #[test]
    fn queries_parse_and_compile() {
        let reg = registry();
        let q = count_query(100, 50);
        let parsed = cogra_query::parse(&q).unwrap();
        cogra_query::compile(&parsed, &reg).unwrap();
    }
}
