//! Sharing arms of the model (`tests/common/mod.rs`): a roster with
//! duplicates, which a session always runs shared, observes the reference
//! — each query alone, so unshared: per-query results, late drops,
//! routing counters summed over the physical runs — across workloads,
//! worker counts, slack settings and a restore. Sharing is an
//! *optimization*; this is the proof that it is never a *semantic* one.

mod common;

use common::disorder;
use common::model::{chunked, sweep, Config, Op};
use common::workloads::{workload, DUPLICATES, RIDESHARE, STOCK_TYPE};

/// The rosters with duplicates, and the physical run count each must
/// collapse to under sharing: two distinct stock queries plus a duplicate
/// of the first; the same rideshare query twice; the healthcare query, a
/// renamed-variable copy and a verbatim one.
const ROSTERS: [(usize, usize, usize); 3] = [
    (STOCK_TYPE, 240, 2),
    (RIDESHARE, 400, 1),
    (DUPLICATES, 300, 1),
];

#[test]
fn shared_and_unshared_sessions_are_byte_identical() {
    for (wl, n, physical) in ROSTERS {
        for workers in [1, 4] {
            for slack in [None, Some(8)] {
                let mut case = workload(wl, 7, n);
                if slack.is_some() {
                    case.events = disorder(&case.events, 5);
                    case.slack = slack;
                }
                let config = Config::workers(workers);
                let (reference, runs) = sweep(&case, [config], |case| chunked(case, 64));
                let label = format!("{} workers={workers} slack={slack:?}", case.name);
                assert!(reference.results() > 0, "{label}: no results");
                let [shared] = &runs[..] else {
                    unreachable!("one configuration")
                };
                assert_eq!(
                    shared.factoring.physical(),
                    physical,
                    "{label}: the roster collapses"
                );
                // A collapsed roster probes strictly less than its queries
                // alone: fewer engines see the stream.
                let alone: u64 = reference.stats.iter().map(|s| s.key_probes).sum();
                let probes = shared.observation.stats.key_probes;
                assert!(probes < alone, "{label}: {probes} probes, {alone} alone");
            }
        }
    }
}

/// Checkpoint a shared session mid-stream, restore, finish — the restored
/// session re-derives the fan-out from the stored sharing map (the driver
/// checks the factoring survived) and still observes the reference, which
/// is unshared by definition.
#[test]
fn shared_checkpoint_restore_matches_unshared_run() {
    for (wl, n, _) in ROSTERS {
        for workers in [1, 4] {
            let restored = |case: &common::model::Case| {
                let mut ops = chunked(case, 1);
                ops.truncate(n);
                ops.push(Op::Restore {
                    workers,
                    batch: 512,
                });
                ops
            };
            sweep(&workload(wl, 7, n), [Config::default()], restored);
        }
    }
}
