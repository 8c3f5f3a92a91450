//! A shrunken pass over all seven workloads, traced and untraced: the
//! names and units each run emits are exactly those `BENCHMARK.json`
//! declares, every value is finite, and the correctness gate passes.
//! `BENCHMARK.json` declares four of the seven workloads.

use cogra_perfbench::report::{self, Declared};
use cogra_perfbench::run::{run_workload, Options, END_TO_END, PER_LAYER};
use cogra_perfbench::workloads::{shrunken, table};

fn declared() -> Declared {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    Declared::parse(&text).expect("BENCHMARK.json parses")
}

#[test]
fn code_and_benchmark_json_declare_the_same_names() {
    let declared = declared();
    // The declared workloads are rows of the table, in its order.
    let names: Vec<&str> = table()
        .iter()
        .map(|s| s.name)
        .filter(|name| declared.workloads.iter().any(|w| w == name))
        .collect();
    assert_eq!(declared.workloads, names);
    assert_eq!(
        names,
        ["stock-type", "stock-2w", "churn-batch", "ride-remote"]
    );
    let pairs = |metrics: &[report::DeclaredMetric]| -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.clone()))
            .collect()
    };
    let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(pairs(&declared.end_to_end), owned(&END_TO_END));
    assert_eq!(pairs(&declared.per_layer), owned(&PER_LAYER));
    assert!(declared.end_to_end.iter().all(|m| m.bound.is_some()));
    assert!(declared.per_layer.iter().all(|m| m.bound.is_none()));
}

#[test]
fn every_workload_runs_shrunken_and_passes_its_check() {
    let declared = declared();
    for trace in [false, true] {
        let expected = if trace {
            &declared.per_layer
        } else {
            &declared.end_to_end
        };
        for spec in shrunken(50) {
            let opts = Options {
                seed: 5,
                seconds: 0.2,
                trace,
            };
            let outcome = run_workload(&spec, &opts);
            let what = format!("{} (trace {trace})", spec.name);
            assert!(
                outcome.correct(),
                "{what}: {} of {} failed",
                outcome.failed,
                outcome.attempted
            );
            assert!(outcome.attempted > spec.events as u64, "{what}");
            let emitted: Vec<(&str, &str)> =
                outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
            let wanted: Vec<(&str, &str)> = expected
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str()))
                .collect();
            assert_eq!(emitted, wanted, "{what}");
            for m in &outcome.metrics {
                assert!(m.value.is_finite(), "{what}: {} = {}", m.name, m.value);
            }
            if !trace {
                // End-to-end metrics are never 0.
                for m in &outcome.metrics {
                    assert!(m.value > 0.0, "{what}: {} = {}", m.name, m.value);
                }
            }
            // The result line is the contract's shape and parses back.
            let line = report::result_line(&outcome);
            let doc = cogra_perfbench::json::Json::parse(&line).expect("the result line is JSON");
            let keys: Vec<&str> = doc
                .as_obj()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{what}"
            );
        }
    }
}
