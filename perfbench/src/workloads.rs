//! The seven named workloads: one table of sizes and rates, and the
//! generators that turn a seed into each workload's input.
//!
//! `BENCHMARK.json` declares four of them, which is how many fit the
//! driver's time limit at a run length that repeats on a shared host:
//! `stock-type`, `stock-2w`, `churn-batch` and `ride-remote`. The other
//! three run by name, or with the rest when no `--workload` is given.
//!
//! Why each workload exists is recorded in `BENCHMARK.md` (and, for the
//! declared four, in `BENCHMARK.json`); the comments here say only what
//! differs between rows. Every query runs `WITHIN 1000 SLIDE 500`.

use cogra_core::session::EngineKind;
use cogra_events::{write_events, Event, TypeRegistry};
use cogra_workloads::{burst, churn, rideshare, stock};
use cogra_workloads::{BurstConfig, ChurnConfig, RideshareConfig, StockConfig};

/// Events per chunk in the saturated phase (and rows per `INGEST` block).
pub const SATURATED_CHUNK: usize = 2048;
/// Events per chunk in the paced phase.
pub const PACED_CHUNK: usize = 256;
/// `WITHIN` of every query, in ticks.
pub const WITHIN: u64 = 1000;
/// `SLIDE` of every query, in ticks.
pub const SLIDE: u64 = 500;

/// Which generator and query a workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Stock ticks, `q3_query_no_adjacent`: type-grained.
    StockType,
    /// Stock ticks, `q3_query` (adjacent predicate + AVG): mixed-grained.
    StockMixed,
    /// Short-lived session keys, `count_query`.
    Churn,
    /// Flash crowds arriving out of order, `count_query`, run with
    /// `.slack(disorder)`.
    Burst,
    /// Ridesharing trips, `q2_query`: skip-till-next-match,
    /// pattern-grained.
    Ride,
}

/// How the stream reaches the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// In-process `Session::process` + `drain_into`, with this many
    /// workers.
    Streaming {
        /// `.workers(n)`
        workers: usize,
    },
    /// One-shot `Session::run`, as the `cogra-run` CLI drives it.
    Batch,
    /// CSV blocks through `cogra-server` on loopback: one feed
    /// connection, one subscriber.
    Remote,
}

/// One row of the workload table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    /// The name used in `BENCHMARK.json` and on the command line.
    pub name: &'static str,
    /// Generator and query.
    pub source: Source,
    /// Delivery path.
    pub path: Path,
    /// Stream length.
    pub events: usize,
    /// Rate of the open-loop phase, in events per second. `None` for the
    /// batch workload, which has no paced phase.
    pub paced_rate: Option<u64>,
    /// Length of the stream prefix the independent engine re-computes.
    pub check_prefix: usize,
    /// The independent engine of the correctness gate.
    pub reference: EngineKind,
}

impl Spec {
    /// `.workers(n)` of the workload's session.
    pub fn workers(&self) -> usize {
        match self.path {
            Path::Streaming { workers } => workers,
            Path::Batch | Path::Remote => 1,
        }
    }
}

/// The full-size table.
pub fn table() -> Vec<Spec> {
    use EngineKind::{Greta, Sase};
    let streaming = Path::Streaming { workers: 1 };
    let row = |name, source, path, events, paced_rate, check_prefix, reference| Spec {
        name,
        source,
        path,
        events,
        paced_rate,
        check_prefix,
        reference,
    };
    vec![
        row(
            "stock-type",
            Source::StockType,
            streaming,
            1_000_000,
            Some(200_000),
            20_000,
            Greta,
        ),
        // The adjacent predicate makes each event ~17× dearer, so the
        // stream is half as long and paced at half the rate.
        row(
            "stock-mixed",
            Source::StockMixed,
            streaming,
            500_000,
            Some(100_000),
            10_000,
            Greta,
        ),
        row(
            "stock-2w",
            Source::StockType,
            Path::Streaming { workers: 2 },
            1_000_000,
            Some(200_000),
            20_000,
            Greta,
        ),
        row(
            "churn-keys",
            Source::Churn,
            streaming,
            1_000_000,
            Some(200_000),
            20_000,
            Greta,
        ),
        // `Session::run` walks every interned key each 64 events, so this
        // stream is the first 200K churn events only.
        row(
            "churn-batch",
            Source::Churn,
            Path::Batch,
            200_000,
            None,
            20_000,
            Greta,
        ),
        row(
            "burst-slack",
            Source::Burst,
            streaming,
            1_000_000,
            Some(200_000),
            20_000,
            Greta,
        ),
        // GRETA does not support skip-till-next-match; SASE does.
        row(
            "ride-remote",
            Source::Ride,
            Path::Remote,
            500_000,
            Some(150_000),
            20_000,
            Sase,
        ),
    ]
}

/// The table with every stream `divisor` times shorter (never below a
/// few windows' worth), for tests. Rates stay, so the paced phase lasts
/// `divisor` times less.
pub fn shrunken(divisor: usize) -> Vec<Spec> {
    let mut specs = table();
    for spec in &mut specs {
        spec.events = (spec.events / divisor).max(4 * WITHIN as usize);
        spec.check_prefix = (spec.check_prefix / divisor).max(2 * WITHIN as usize);
    }
    specs
}

/// What the program under test receives: nothing but generated inputs.
#[derive(Debug, Clone)]
pub struct Input {
    /// Schema of the stream.
    pub registry: TypeRegistry,
    /// Query text.
    pub query: String,
    /// The stream, in arrival order.
    pub events: Vec<Event>,
    /// `.slack(n)` of the session; 0 = none.
    pub slack: u64,
}

/// Generate `spec`'s input from `seed`: same seed, same input.
pub fn generate(spec: &Spec, seed: u64) -> Input {
    let events = spec.events;
    match spec.source {
        Source::StockType | Source::StockMixed => Input {
            registry: stock::registry(),
            query: if spec.source == Source::StockType {
                stock::q3_query_no_adjacent(WITHIN, SLIDE)
            } else {
                stock::q3_query(WITHIN, SLIDE)
            },
            events: stock::generate(&StockConfig {
                events,
                seed,
                ..Default::default()
            }),
            slack: 0,
        },
        Source::Churn => Input {
            registry: churn::registry(),
            query: churn::count_query(WITHIN, SLIDE),
            events: churn::generate(&ChurnConfig {
                events,
                seed,
                ..Default::default()
            }),
            slack: 0,
        },
        Source::Burst => {
            let cfg = BurstConfig {
                events,
                seed,
                ..Default::default()
            };
            Input {
                registry: burst::registry(),
                query: burst::count_query(WITHIN, SLIDE),
                events: burst::generate(&cfg),
                // Slack equal to the generator's disorder bound: no event
                // may be dropped as late.
                slack: cfg.disorder,
            }
        }
        Source::Ride => Input {
            registry: rideshare::registry(),
            query: rideshare::q2_query(WITHIN, SLIDE),
            events: rideshare::generate(&RideshareConfig {
                events,
                seed,
                ..Default::default()
            }),
            slack: 0,
        },
    }
}

/// The stream as self-contained CSV documents of `rows` rows each (the
/// header is repeated in every block), as `Client::ingest` sends them.
pub fn csv_blocks(input: &Input, rows: usize) -> Vec<String> {
    input
        .events
        .chunks(rows)
        .map(|chunk| write_events(chunk, &input.registry))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_input_and_seeds_differ() {
        for spec in shrunken(100) {
            let a = generate(&spec, 11);
            let b = generate(&spec, 11);
            assert_eq!(a.events, b.events, "{}", spec.name);
            assert_eq!(a.events.len(), spec.events);
            assert_ne!(a.events, generate(&spec, 12).events, "{}", spec.name);
        }
    }

    #[test]
    fn csv_blocks_cover_the_stream() {
        let spec = &shrunken(100)[6];
        let input = generate(spec, 3);
        let blocks = csv_blocks(&input, 256);
        assert_eq!(blocks.len(), spec.events.div_ceil(256));
        let rows: usize = blocks.iter().map(|b| b.lines().count() - 1).sum();
        assert_eq!(rows, spec.events);
    }
}
