//! Measurement harness for the §9 experiments.
//!
//! Metrics (§9.1):
//! * **latency** — wall-clock milliseconds to process the stream and emit
//!   every window result (the paper reports the average delay between a
//!   result and its latest contributing event; in a saturated replay —
//!   events offered as fast as the engine takes them — the two are
//!   proportional);
//! * **throughput** — events per second over the same run;
//! * **peak memory** — the maximum of the engine's exact logical
//!   accounting ([`TrendEngine::memory_bytes`]) over the run, including
//!   finalization spikes.
//!
//! The paper's servers ran two-step baselines for hours before declaring
//! "does not terminate"; this harness instead runs each sweep in
//! ascending size and marks an engine DNF for all remaining points once a
//! point exceeds its time budget — same semantics, bounded wall-clock.

use cogra_core::{run_to_completion, TrendEngine, WindowResult};
use cogra_events::Event;
use std::time::{Duration, Instant};

/// One measured run.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Engine name.
    pub engine: &'static str,
    /// Events processed.
    pub events: usize,
    /// Wall-clock processing time.
    pub elapsed: Duration,
    /// Events per second.
    pub throughput: f64,
    /// Peak logical memory in bytes.
    pub peak_bytes: usize,
    /// Number of emitted window results (sanity check across engines).
    pub results: usize,
    /// Digest of the result values (engines must agree).
    pub digest: u64,
}

impl Measurement {
    /// Latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.elapsed.as_secs_f64() * 1e3
    }
}

/// Outcome of one sweep point.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Completed within budget.
    Done(Measurement),
    /// Skipped: a smaller point already exceeded the budget ("does not
    /// terminate" in the paper's terms).
    Dnf,
}

impl Outcome {
    /// The measurement, if the run completed.
    pub fn measurement(&self) -> Option<&Measurement> {
        match self {
            Outcome::Done(m) => Some(m),
            Outcome::Dnf => None,
        }
    }
}

/// Order-insensitive digest of the emitted results, for cross-engine
/// agreement checks inside experiments (floats are rounded to 6 decimals
/// so accumulation order does not flip bits).
pub fn digest(results: &[WindowResult]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut acc = 0u64;
    for r in results {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        r.window.0.hash(&mut h);
        r.group.hash(&mut h);
        for v in &r.values {
            match v {
                cogra_core::AggValue::Count(c) => (0u8, *c).hash(&mut h),
                cogra_core::AggValue::Float(f) => (1u8, (f * 1e6).round() as i64).hash(&mut h),
                cogra_core::AggValue::Null => 2u8.hash(&mut h),
            }
        }
        acc = acc.wrapping_add(h.finish());
    }
    acc
}

/// Run one engine over a stream, sampling memory every `sample_every`
/// events.
pub fn measure(engine: &mut dyn TrendEngine, events: &[Event], sample_every: usize) -> Measurement {
    let name = engine.name();
    let start = Instant::now();
    let (results, peak) = run_to_completion(engine, events, sample_every);
    let elapsed = start.elapsed();
    Measurement {
        engine: name,
        events: events.len(),
        elapsed,
        throughput: events.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        peak_bytes: peak,
        results: results.len(),
        digest: digest(&results),
    }
}

/// Sweep driver with a per-point time budget: once an engine exceeds the
/// budget, every larger point is a [`Outcome::Dnf`].
pub struct BudgetedSweep {
    budget: Duration,
    exhausted: bool,
}

impl BudgetedSweep {
    /// New sweep with the given per-point budget.
    pub fn new(budget: Duration) -> BudgetedSweep {
        BudgetedSweep {
            budget,
            exhausted: false,
        }
    }

    /// Run one point, unless a previous point already blew the budget.
    pub fn run(
        &mut self,
        make_engine: impl FnOnce() -> Box<dyn TrendEngine>,
        events: &[Event],
        sample_every: usize,
    ) -> Outcome {
        if self.exhausted {
            return Outcome::Dnf;
        }
        let mut engine = make_engine();
        let m = measure(engine.as_mut(), events, sample_every);
        if m.elapsed > self.budget {
            self.exhausted = true;
        }
        Outcome::Done(m)
    }
}

/// Pretty-print bytes.
pub fn human_bytes(bytes: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.1} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_bytes_formats() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.0 KiB");
        assert_eq!(human_bytes(3 * 1024 * 1024), "3.0 MiB");
    }

    #[test]
    fn budgeted_sweep_marks_dnf_after_blowout() {
        use cogra_core::CograEngine;
        let reg = cogra_workloads::transport::registry();
        let events = cogra_workloads::transport::generate(&cogra_workloads::TransportConfig {
            events: 200,
            ..Default::default()
        });
        let q = cogra_workloads::transport::grouping_query(50, 25);
        let mk = || -> Box<dyn TrendEngine> {
            Box::new(CograEngine::from_text(&q, &cogra_workloads::transport::registry()).unwrap())
        };
        let _ = reg;
        // Zero budget: first point completes, second is DNF.
        let mut sweep = BudgetedSweep::new(Duration::ZERO);
        assert!(matches!(sweep.run(mk, &events, 10), Outcome::Done(_)));
        let mk2 = || -> Box<dyn TrendEngine> {
            Box::new(CograEngine::from_text(&q, &cogra_workloads::transport::registry()).unwrap())
        };
        assert!(matches!(sweep.run(mk2, &events, 10), Outcome::Dnf));
    }

    #[test]
    fn digest_is_order_insensitive() {
        use cogra_core::{AggValue, WindowResult};
        use cogra_events::{Value, WindowId};
        let a = WindowResult {
            window: WindowId(0),
            group: vec![Value::Int(1)],
            values: vec![AggValue::Count(3)],
        };
        let b = WindowResult {
            window: WindowId(1),
            group: vec![Value::Int(2)],
            values: vec![AggValue::Float(1.5)],
        };
        assert_eq!(digest(&[a.clone(), b.clone()]), digest(&[b, a]));
    }
}
