//! Adversarial workload: unbounded key churn (ROADMAP direction 5).
//!
//! Session-id-like group keys: a bounded set of sessions is live at any
//! moment, but each session dies after a fixed lifetime and is replaced by
//! a *fresh* id that has never been seen before. The distinct-key count
//! grows linearly with stream length, so a key interner (`cogra-engine`'s
//! `KeyInterner`) that kept every key would grow without bound — exactly
//! the stress partition retirement (a key leaves with its last window, its
//! id and slot are reused) and the resident-key limit exist for.

use cogra_events::{Event, EventBuilder, TypeRegistry, Value, ValueKind};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configuration of the churning request stream.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Number of sessions live at any instant.
    pub concurrent: usize,
    /// Events a session receives before it is retired and replaced by a
    /// fresh id.
    pub lifetime: usize,
    /// Number of events to generate.
    pub events: usize,
    /// RNG seed — streams are fully deterministic.
    pub seed: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            concurrent: 16,
            lifetime: 8,
            events: 10_000,
            seed: 7,
        }
    }
}

/// Register the `Request` event type.
pub fn registry() -> TypeRegistry {
    let mut r = TypeRegistry::new();
    r.register_type(
        "Request",
        vec![("session", ValueKind::Int), ("status", ValueKind::Int)],
    );
    r
}

/// Generate the stream: each event goes to a random live session; a
/// session that has received `lifetime` events retires and its slot is
/// taken by the next fresh id — ids are never reused.
pub fn generate(cfg: &ChurnConfig) -> Vec<Event> {
    assert!(cfg.concurrent > 0 && cfg.lifetime > 0);
    let reg = registry();
    let request = reg.id_of("Request").expect("registered above");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut next_id = cfg.concurrent as i64;
    // (session id, events remaining before retirement) per live slot.
    let mut live: Vec<(i64, usize)> = (0..cfg.concurrent as i64)
        .map(|id| (id, cfg.lifetime))
        .collect();
    let mut b = EventBuilder::new();
    let mut out = Vec::with_capacity(cfg.events);
    for i in 0..cfg.events {
        let slot = rng.random_range(0..live.len());
        let (session, remaining) = &mut live[slot];
        let id = *session;
        *remaining -= 1;
        if *remaining == 0 {
            *session = next_id;
            *remaining = cfg.lifetime;
            next_id += 1;
        }
        out.push(b.event(
            (i + 1) as u64,
            request,
            vec![Value::Int(id), Value::Int(rng.random_range(0..3))],
        ));
    }
    out
}

/// Per-session request-run count — every fresh session id is a fresh
/// partition key.
pub fn count_query(within: u64, slide: u64) -> String {
    format!(
        "RETURN session, COUNT(*) \
         PATTERN Request R+ \
         SEMANTICS skip-till-any-match \
         GROUP-BY session \
         WITHIN {within} SLIDE {slide}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cogra_events::validate_ordered;
    use std::collections::HashSet;

    #[test]
    fn stream_is_deterministic_and_ordered() {
        let cfg = ChurnConfig {
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
    fn distinct_keys_grow_linearly_with_stream_length() {
        let reg = registry();
        let session = reg
            .schema(reg.id_of("Request").unwrap())
            .attr("session")
            .unwrap();
        let distinct = |events: usize| -> usize {
            let cfg = ChurnConfig {
                events,
                seed: 3,
                ..Default::default()
            };
            generate(&cfg)
                .iter()
                .map(|e| e.attr(session).as_i64().unwrap())
                .collect::<HashSet<i64>>()
                .len()
        };
        let short = distinct(2_000);
        let long = distinct(20_000);
        // lifetime 8 ⇒ roughly one fresh key per 8 events, forever.
        assert!(short > 2_000 / 10, "only {short} keys in 2k events");
        assert!(
            long > 8 * short,
            "churn flattened out: {long} keys at 20k vs {short} at 2k"
        );
    }

    #[test]
    fn session_ids_are_fresh_and_contiguous() {
        let cfg = ChurnConfig {
            events: 5_000,
            ..Default::default()
        };
        let reg = registry();
        let session = reg
            .schema(reg.id_of("Request").unwrap())
            .attr("session")
            .unwrap();
        // Ids are handed out sequentially and never reused, so the seen
        // id space is dense up to the live tail.
        let mut seen = HashSet::new();
        for e in generate(&cfg) {
            seen.insert(e.attr(session).as_i64().unwrap());
        }
        // An allocated-but-unseen id is still occupying its live slot, so
        // at most `concurrent` ids can be missing from the seen set.
        let max = *seen.iter().max().unwrap();
        assert!(
            seen.len() as i64 >= max + 1 - cfg.concurrent as i64,
            "id space has holes beyond the live tail — an id was reused"
        );
    }

    #[test]
    fn queries_parse_and_compile() {
        let reg = registry();
        let q = count_query(100, 50);
        let parsed = cogra_query::parse(&q).unwrap();
        cogra_query::compile(&parsed, &reg).unwrap();
    }
}
