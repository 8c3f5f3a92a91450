//! What a run prints, and what `BENCHMARK.json` declares.

use crate::json::{self, Json};
use crate::run::{Metric, Options, Outcome};
use std::fmt::Write as _;
use std::process::Command;

fn metrics_object(metrics: &[Metric]) -> String {
    let members: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(m.name),
                json::number(m.value),
                json::quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// The members every result carries: `correct`, `attempted`, `failed`
/// and `metrics`, without the surrounding braces.
fn result_members(outcome: &Outcome) -> String {
    format!(
        "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics_object(&outcome.metrics)
    )
}

/// The one-line result the driver reads: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    format!("{{{}}}", result_members(outcome))
}

/// The host a record was taken on.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub cpus: usize,
    /// `git rev-parse --short HEAD`, or `unknown` outside a repository.
    pub commit: String,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
}

impl Host {
    /// Describe this host. Runs `git` and `rustc` and waits for both;
    /// `git` is kept from searching above the current directory.
    pub fn detect() -> Host {
        let output = |cmd: &mut Command| {
            cmd.output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
        };
        let mut git = Command::new("git");
        git.args(["rev-parse", "--short", "HEAD"]);
        if let Some(parent) = std::env::current_dir()
            .ok()
            .and_then(|d| d.parent().map(std::path::Path::to_path_buf))
        {
            git.env("GIT_CEILING_DIRECTORIES", parent);
        }
        Host {
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            commit: output(&mut git),
            rustc: output(Command::new("rustc").arg("--version")),
        }
    }
}

/// One line of an `--out` file: the result plus what identifies the run.
/// `--compare` reads these.
pub fn record_line(outcome: &Outcome, opts: &Options, host: &Host) -> String {
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"cpus\": {}, \
         \"commit\": {}, \"rustc\": {}, {}}}",
        json::quote(outcome.workload),
        opts.seed,
        json::number(opts.seconds),
        opts.trace,
        host.cpus,
        json::quote(&host.commit),
        json::quote(&host.rustc),
        result_members(outcome)
    )
}

/// Every metric by name with its unit, and the run's notes, for a human.
pub fn table(outcome: &Outcome) -> String {
    let mut out = format!(
        "== {} — {} ({} failed of {} attempted)\n",
        outcome.workload,
        if outcome.correct() {
            "correct"
        } else {
            "INCORRECT"
        },
        outcome.failed,
        outcome.attempted
    );
    for m in &outcome.metrics {
        let _ = writeln!(out, "  {:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for note in &outcome.notes {
        let _ = writeln!(out, "  # {note}");
    }
    out
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct DeclaredMetric {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether `higher` is better; `lower` otherwise.
    pub higher_is_better: bool,
    /// End-to-end metrics: the share of the base's median by which the
    /// metric may get worse. `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` this crate reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// End-to-end metrics, in order.
    pub end_to_end: Vec<DeclaredMetric>,
    /// Per-layer metrics, in order.
    pub per_layer: Vec<DeclaredMetric>,
}

impl Declared {
    /// Parse the text of a `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Declared, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json has no `{key}` array"))
        };
        let string = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: an entry has no `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<DeclaredMetric>, String> {
            list(key)?
                .iter()
                .map(|item| {
                    Ok(DeclaredMetric {
                        name: string(item, "name")?,
                        unit: string(item, "unit")?,
                        higher_is_better: string(item, "better")? == "higher",
                        bound: item.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Declared {
            workloads: list("workloads")?
                .iter()
                .map(|item| string(item, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}
