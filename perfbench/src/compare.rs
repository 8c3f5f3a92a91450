//! `bench --compare A B`: do two sets of runs agree within the bounds
//! `BENCHMARK.json` fixes?
//!
//! Each file holds `--out` records, any number per workload. For every
//! (end-to-end metric, workload) pair the verdict is `ok`, `regressed`
//! (B's median is worse than A's by more than the bound) or `unresolved`
//! (the runs within a file spread wider than the bound, so the medians
//! cannot settle it). Every ratio is printed next to its base.

use crate::json::Json;
use crate::report::{Declared, DeclaredMetric};
use crate::stats::{median, quartile_spread};
use crate::workloads::{table, Path};
use std::fmt::Write as _;

/// The verdict on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Regressed,
    /// The spread within a file exceeds the bound, or the host cannot
    /// measure the pair.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The records of one `--out` file that belong to untraced runs.
struct Records {
    /// `(workload, metric name, value)` of every record.
    values: Vec<(String, String, f64)>,
    /// Smallest `cpus` any record was taken on.
    cpus: usize,
}

fn parse_records(text: &str) -> Result<Records, String> {
    let mut records = Records {
        values: Vec::new(),
        cpus: usize::MAX,
    };
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if doc.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no `workload`", i + 1))?;
        if let Some(cpus) = doc.get("cpus").and_then(Json::as_f64) {
            records.cpus = records.cpus.min(cpus as usize);
        }
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("line {}: no `metrics`", i + 1))?;
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                records
                    .values
                    .push((workload.to_string(), name.clone(), value));
            }
        }
    }
    Ok(records)
}

impl Records {
    fn of(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.values
            .iter()
            .filter(|(w, m, _)| w == workload && m == metric)
            .map(|(_, _, v)| *v)
            .collect()
    }
}

/// The verdict for one pair, given both files' values.
pub fn verdict(metric: &DeclaredMetric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.unwrap_or(0.0);
    if quartile_spread(a).max(quartile_spread(b)) > bound {
        return Verdict::Unresolved;
    }
    let (a, b) = (median(&mut a.to_vec()), median(&mut b.to_vec()));
    let worse_by = if metric.higher_is_better {
        (a - b) / a.abs()
    } else {
        (b - a) / a.abs()
    };
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Compare the records in `a` (the base) and `b`. Returns the printed
/// table and whether any pair regressed.
pub fn compare(declared: &Declared, a: &str, b: &str) -> Result<(String, bool), String> {
    let (a, b) = (parse_records(a)?, parse_records(b)?);
    let cpus = a.cpus.min(b.cpus);
    let multi_worker: Vec<&str> = table()
        .iter()
        .filter(|s| matches!(s.path, Path::Streaming { workers } if workers > 1))
        .map(|s| s.name)
        .collect();
    let mut out = format!(
        "{:<14} {:<24} {:>16} {:>16} {:>8} {:>8} {:>7}  verdict\n",
        "workload", "metric", "base median", "new median", "new/base", "spread", "bound"
    );
    let mut regressed = false;
    for workload in &declared.workloads {
        for metric in &declared.end_to_end {
            let (va, vb) = (a.of(workload, &metric.name), b.of(workload, &metric.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            // With fewer CPUs than threads, a multi-worker wall-clock
            // number measures the scheduler: only counts are compared.
            let wall_clock = metric.unit != "bytes" && metric.unit != "count";
            let v = if cpus < 2 && wall_clock && multi_worker.contains(&workload.as_str()) {
                Verdict::Unresolved
            } else {
                verdict(metric, &va, &vb)
            };
            regressed |= v == Verdict::Regressed;
            let (ma, mb) = (median(&mut va.clone()), median(&mut vb.clone()));
            let _ = writeln!(
                out,
                "{:<14} {:<24} {:>16.4} {:>16.4} {:>8.4} {:>8.4} {:>7.2}  {} (n={}/{})",
                workload,
                metric.name,
                ma,
                mb,
                mb / ma,
                quartile_spread(&va).max(quartile_spread(&vb)),
                metric.bound.unwrap_or(0.0),
                v.label(),
                va.len(),
                vb.len()
            );
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool, bound: f64) -> DeclaredMetric {
        DeclaredMetric {
            name: "m".to_string(),
            unit: "ms".to_string(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let lower = metric(false, 0.10);
        assert_eq!(verdict(&lower, &[100.0], &[109.0]), Verdict::Ok);
        assert_eq!(verdict(&lower, &[100.0], &[111.0]), Verdict::Regressed);
        assert_eq!(verdict(&lower, &[100.0], &[50.0]), Verdict::Ok);
        let higher = metric(true, 0.10);
        assert_eq!(verdict(&higher, &[100.0], &[91.0]), Verdict::Ok);
        assert_eq!(verdict(&higher, &[100.0], &[89.0]), Verdict::Regressed);
        assert_eq!(verdict(&higher, &[100.0], &[200.0]), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let lower = metric(false, 0.10);
        let noisy = [80.0, 100.0, 120.0, 140.0];
        assert_eq!(verdict(&lower, &noisy, &[100.0]), Verdict::Unresolved);
        let steady = [99.0, 100.0, 101.0, 100.5];
        assert_eq!(verdict(&lower, &steady, &steady), Verdict::Ok);
    }

    fn record(workload: &str, cpus: usize, value: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"trace\": false, \"cpus\": {cpus}, \
             \"metrics\": {{\"throughput_eps\": {{\"value\": {value}, \"unit\": \"events/s\"}}, \
             \"peak_state_bytes\": {{\"value\": 1000, \"unit\": \"bytes\"}}}}}}\n"
        )
    }

    fn declared() -> Declared {
        Declared::parse(
            r#"{"workloads": [{"name": "stock-type"}, {"name": "stock-2w"}],
                "end_to_end": [
                  {"name": "throughput_eps", "unit": "events/s", "better": "higher", "bound": 0.1},
                  {"name": "peak_state_bytes", "unit": "bytes", "better": "lower", "bound": 0.02}],
                "per_layer": []}"#,
        )
        .unwrap()
    }

    #[test]
    fn compare_reports_each_pair_and_flags_regressions() {
        let a = record("stock-type", 2, 100.0) + &record("stock-2w", 2, 100.0);
        let b = record("stock-type", 2, 80.0) + &record("stock-2w", 2, 101.0);
        let (text, regressed) = compare(&declared(), &a, &b).unwrap();
        assert!(regressed);
        assert_eq!(text.matches("regressed").count(), 1, "{text}");
        assert_eq!(text.matches(" ok ").count(), 3, "{text}");
    }

    #[test]
    fn one_cpu_leaves_multi_worker_wall_clock_unresolved() {
        let a = record("stock-2w", 1, 100.0);
        let b = record("stock-2w", 1, 50.0);
        let (text, regressed) = compare(&declared(), &a, &b).unwrap();
        assert!(!regressed);
        // Throughput is unresolved; the byte count is still compared.
        assert_eq!(text.matches("unresolved").count(), 1, "{text}");
        assert_eq!(text.matches(" ok ").count(), 1, "{text}");
    }

    #[test]
    fn traced_records_are_skipped() {
        let traced = "{\"workload\": \"stock-type\", \"trace\": true, \"cpus\": 2, \
                      \"metrics\": {\"throughput_eps\": {\"value\": 1, \"unit\": \"events/s\"}}}\n";
        let a = record("stock-type", 2, 100.0) + traced;
        let (text, _) = compare(&declared(), &a, &a).unwrap();
        assert!(text.contains("n=1/1"), "{text}");
    }
}
