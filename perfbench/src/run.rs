//! One run of one workload: set-up, saturated phase, paced phase, check,
//! and — in the traced run — the layer probes.

use crate::phases::{self, Pass};
use crate::probes;
use crate::spans::{self, Tracer};
use crate::stats::{median, percentile, sort};
use crate::workloads::{csv_blocks, generate, Input, Path, Spec, PACED_CHUNK, SATURATED_CHUNK};
use cogra_bench::harness::digest;
use cogra_core::session::EngineKind;
use cogra_core::{AggValue, WindowResult};
use std::time::{Duration, Instant};

/// `(name, unit)` of every end-to-end metric, as `BENCHMARK.json`
/// declares them. Reported by the untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_eps", "events/s"),
    ("result_latency_p50_ms", "ms"),
    ("peak_state_bytes", "bytes"),
];

/// `(name, unit)` of every per-layer metric, as `BENCHMARK.json` declares
/// them. Reported by the traced run; a metric of a layer the workload
/// does not use is 0.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("workloads.generate_s", "s"),
    ("query.build_ms", "ms"),
    ("events.csv.decode_s", "s"),
    ("events.csv.rows", "count"),
    ("events.csv.bytes", "bytes"),
    ("events.csv.ns_per_row", "ns"),
    ("events.reorder.busy_s", "s"),
    ("events.reorder.max_buffered", "count"),
    ("events.reorder.late_events", "count"),
    ("engine.hash.busy_s", "s"),
    ("engine.intern.key_probes", "count"),
    ("engine.intern.key_allocs", "count"),
    ("engine.intern.alloc_ratio", "ratio"),
    ("engine.intern.memory_bytes_us", "us"),
    ("engine.update_s", "s"),
    ("engine.emit_s", "s"),
    ("engine.results", "count"),
    ("engine.ns_per_event", "ns"),
    ("session.ingest_s", "s"),
    ("session.drain_s", "s"),
    ("session.finish_s", "s"),
    ("session.overhead_share", "ratio"),
    ("session.chunk_p99_ms", "ms"),
    ("session.chunk_max_ms", "ms"),
    ("session.allocs_per_event", "count"),
    ("session.alloc_bytes_per_event", "bytes"),
    ("parallel.route_s", "s"),
    ("parallel.drain_wait_s", "s"),
    ("parallel.routed_items", "count"),
    ("parallel.shard_skew", "ratio"),
    ("parallel.speedup_vs_1w", "ratio"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.snapshot_bytes", "bytes"),
    ("checkpoint.restore_ms", "ms"),
    ("checkpoint.restored_state_bytes", "bytes"),
    ("server.ingest_rtt_p50_ms", "ms"),
    ("server.bytes_sent", "bytes"),
    ("server.results_pushed", "count"),
    ("server.failed_replies", "count"),
    ("wire.encode_ns_per_result", "ns"),
    ("wire.decode_ns_per_result", "ns"),
    ("paced.latency_p99_ms", "ms"),
    ("paced.latency_max_ms", "ms"),
    ("paced.samples", "count"),
    ("paced.utilisation", "ratio"),
    ("paced.generator_late_p99_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.rep_coverage", "ratio"),
    ("check.failed_share", "ratio"),
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest saturated repetitions, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Share of `--seconds` the paced phase takes; the saturated phase gets
/// the rest.
const PACED_SHARE: f64 = 0.5;
/// Length of one paced pass, in seconds of schedule. Short, so that a run
/// holds many: a result's calm latency is its shortest over the passes.
const PACED_PASS_S: f64 = 1.0;
/// Fewest paced passes, however short `--seconds` is.
const MIN_PACED_PASSES: usize = 3;

/// Command-line choices for one run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Seed of the workload's generator.
    pub seed: u64,
    /// How long the two measured phases last together.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Declared name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Declared unit.
    pub unit: &'static str,
}

/// What one run of one workload reports.
#[derive(Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Operations attempted: events offered, results expected, requests
    /// sent.
    pub attempted: u64,
    /// Operations failed: events rejected or dropped, results missing or
    /// different from the reference, failed replies.
    pub failed: u64,
    /// Every end-to-end metric (untraced) or per-layer metric (traced).
    pub metrics: Vec<Metric>,
    /// Sample counts and other remarks for the human reader.
    pub notes: Vec<String>,
    /// The spans of the run (set-up spans only, when untraced).
    pub tracer: Tracer,
}

impl Outcome {
    /// Whether the correctness gate passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// The metrics of one run, every declared name present from the start.
struct Metrics(Vec<Metric>);

impl Metrics {
    fn declared(table: &[(&'static str, &'static str)]) -> Metrics {
        Metrics(
            table
                .iter()
                .map(|&(name, unit)| Metric {
                    name,
                    value: 0.0,
                    unit,
                })
                .collect(),
        )
    }

    fn set(&mut self, name: &str, value: f64) {
        let metric = self
            .0
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared"));
        metric.value = value;
    }
}

/// Failures counted against operations attempted.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed.min(attempted);
    }

    /// Everything a pass offered and everything that went wrong in it.
    fn pass(&mut self, pass: &Pass) {
        let refused = pass.offered.saturating_sub(pass.events);
        self.add(
            pass.offered,
            pass.late_events + pass.dropped_events + refused,
        );
        self.add(pass.requests, pass.failed_replies);
    }
}

/// The generated input and what making it cost.
struct Setup {
    input: Input,
    /// Remote path: the stream as CSV blocks for the saturated and the
    /// paced phase.
    blocks: Option<(Vec<String>, Vec<String>)>,
    generate_s: f64,
    build_ms: f64,
    total_s: f64,
}

impl Setup {
    /// The remote path's `(saturated, paced)` CSV blocks.
    fn blocks(&self) -> &(Vec<String>, Vec<String>) {
        self.blocks
            .as_ref()
            .expect("the remote path's set-up encodes CSV blocks")
    }
}

/// Generate the stream, encode it if the path needs CSV, and build the
/// session (and start and stop the server) once, so that work moved into
/// compilation or start-up shows in `setup_s`.
fn setup(spec: &Spec, seed: u64, tracer: &mut Tracer) -> Setup {
    let t0 = Instant::now();
    let input = tracer.span("workloads.generate", || generate(spec, seed));
    let generate_s = t0.elapsed().as_secs_f64();
    let blocks = (spec.path == Path::Remote).then(|| {
        tracer.span("events.csv.encode", || {
            (
                csv_blocks(&input, SATURATED_CHUNK),
                csv_blocks(&input, PACED_CHUNK),
            )
        })
    });
    let t1 = Instant::now();
    tracer.span("query.build", || {
        let session = phases::builder(&input, spec.workers())
            .build(&input.registry)
            .expect("the workload's query builds");
        drop(session);
    });
    let build_ms = t1.elapsed().as_secs_f64() * 1e3;
    if spec.path == Path::Remote {
        tracer.span("server.spawn", || phases::spawn_server(&input).shutdown());
    }
    Setup {
        input,
        blocks,
        generate_s,
        build_ms,
        total_s: t0.elapsed().as_secs_f64(),
    }
}

/// Results that are missing from, extra in, or different between two
/// result sets. Floats may differ in the last digits: engines accumulate
/// in different orders.
fn mismatches(a: &[WindowResult], b: &[WindowResult]) -> u64 {
    let mut a = a.to_vec();
    let mut b = b.to_vec();
    WindowResult::sort(&mut a);
    WindowResult::sort(&mut b);
    let same_value = |x: &AggValue, y: &AggValue| match (x, y) {
        (AggValue::Float(x), AggValue::Float(y)) => {
            (x - y).abs() <= 1e-6 * x.abs().max(y.abs()).max(1.0)
        }
        (x, y) => x == y,
    };
    let differing = a
        .iter()
        .zip(&b)
        .filter(|(x, y)| {
            x.window != y.window
                || x.group != y.group
                || x.values.len() != y.values.len()
                || !x
                    .values
                    .iter()
                    .zip(&y.values)
                    .all(|(x, y)| same_value(x, y))
        })
        .count();
    (differing + a.len().abs_diff(b.len())) as u64
}

/// The correctness gate's independent computation: the COGRA session's
/// results on a prefix of the stream against another engine's, both
/// through `Session::run`. Returns `(results expected, mismatches)`.
fn check_prefix(spec: &Spec, input: &Input) -> (u64, u64) {
    let prefix = &input.events[..spec.check_prefix.min(input.events.len())];
    let run = |kind: EngineKind| {
        let run = phases::builder(input, 1)
            .engine(kind)
            .build(&input.registry)
            .expect("the reference engine supports the workload's query")
            .run(prefix);
        run.per_query.into_iter().next().unwrap_or_default()
    };
    let expected = run(spec.reference);
    let got = run(EngineKind::Cogra);
    (expected.len() as u64, mismatches(&expected, &got))
}

/// The first pass's results, which every later pass must reproduce.
struct Reference {
    /// In-process paths: result count and order-insensitive digest.
    results: (usize, u64),
    /// Remote path: the subscriber's rows, in order and sorted.
    rows: Vec<String>,
    sorted_rows: Vec<String>,
}

impl Reference {
    /// Take `pass`'s results as the reference.
    fn of(pass: &mut Pass) -> Reference {
        let rows = std::mem::take(&mut pass.rows);
        let mut sorted_rows = rows.clone();
        sorted_rows.sort_unstable();
        let results = std::mem::take(&mut pass.results);
        Reference {
            results: (results.len(), digest(&results)),
            rows,
            sorted_rows,
        }
    }

    fn result_count(&self) -> usize {
        self.results.0.max(self.rows.len())
    }

    /// Check `pass` against the reference and drop its results: same
    /// count and digest in process, the same rows (in any order) over the
    /// wire. A pass that differs fails every result.
    fn check(&self, tally: &mut Tally, pass: &mut Pass) {
        let same = if self.rows.is_empty() {
            (pass.results.len(), digest(&pass.results)) == self.results
        } else {
            pass.rows.sort_unstable();
            pass.rows == self.sorted_rows
        };
        let expected = self.result_count() as u64;
        tally.add(expected, if same { 0 } else { expected.max(1) });
        pass.results = Vec::new();
        pass.rows = Vec::new();
    }
}

/// Which of the times a step took across the repetitions is taken as
/// what the step costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Calm {
    /// The shortest. On one thread the host only ever slows a step — for
    /// milliseconds (a preempted thread) or for seconds (a busy
    /// neighbour) — and never speeds one up, and a step of a few
    /// milliseconds is left alone in most repetitions.
    Shortest,
    /// The median, where the shortest is a matter of luck.
    ///
    /// A step that waits for worker threads also varies with where those
    /// threads are: `stock-2w` runs up to three times faster for as long
    /// as no virtual CPU goes to sleep between two batches, which it does
    /// for a share of a run that differs from run to run (and nearly
    /// always while another process keeps the CPUs awake).
    ///
    /// The batch path's one step is the whole `Session::run`, most of a
    /// second that the host never leaves alone from end to end (ten 28 s
    /// runs of `churn-batch`: the fastest repetition spread 9.2 %, the
    /// median repetition 5.1 %; beside a process burning a CPU half of the
    /// time 7.2 % and 3.0 %).
    Median,
}

impl Calm {
    fn of(spec: &Spec) -> Calm {
        match spec.path {
            Path::Streaming { workers: 1 } | Path::Remote => Calm::Shortest,
            Path::Streaming { .. } | Path::Batch => Calm::Median,
        }
    }
}

/// The saturated phase's throughput on a calm machine: the stream's
/// events over the sum, step by step, of the time `calm` picks among the
/// times the repetitions took for that step. The repetitions do the same
/// work step for step, so what differs between them is the host (or the
/// threads' luck), and a slow stretch spoils only the steps it covers.
///
/// Measured over ten 30 s processes on different seeds, as the distance
/// between the quartiles over the median: the median repetition spread
/// 10.7 % (`stock-mixed`), 5.7 % (`ride-remote`) and 2.6 % (`stock-2w`);
/// the fastest-tenth repetition 8.9 %, 6.6 % and 11 %; the sum of shortest
/// steps 2.8 %, 1.6 % and 25 %; the sum of median steps 9.9 %, 5.2 % and
/// 3.0 %.
fn calm_throughput(passes: &[Pass], calm: Calm) -> f64 {
    let Some(first) = passes.first() else {
        return 0.0;
    };
    let calm_ns: f64 = (0..first.step_ns.len())
        .map(|i| {
            let mut took: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.step_ns.get(i))
                .map(|&ns| ns as f64)
                .collect();
            match calm {
                Calm::Shortest => took.iter().copied().fold(f64::INFINITY, f64::min),
                Calm::Median => median(&mut took),
            }
        })
        .sum();
    first.events as f64 / (calm_ns / 1e9).max(1e-9)
}

/// The paced phase's median latency on a calm machine: every pass closes
/// the same windows, so each result's latency is taken from the pass that
/// delivered it soonest, and the median of those is reported. Whatever
/// delays a result — the host, or a thread that had to be woken — only
/// adds to its latency.
///
/// Measured over ten 28 s processes on different seeds: the median of all
/// samples spread 5.3 % (`stock-2w`) and 3.9 % (`ride-remote`) in a calm
/// hour, 30 % and 9.9 % beside a process that burns one CPU half of the
/// time; this 3.6 % and 4.3 %, 7.2 % and 10 %.
fn calm_latency_p50(passes: &[Pass]) -> f64 {
    let Some(first) = passes.first() else {
        return 0.0;
    };
    let mut calm: Vec<f64> = (0..first.latencies.len())
        .map(|i| {
            passes
                .iter()
                .filter_map(|p| p.latencies.get(i))
                .map(|&(_, ms)| ms)
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    median(&mut calm)
}

/// One saturated repetition on whatever path the workload uses.
fn saturated(spec: &Spec, setup: &Setup, capacity: usize, tracer: Option<&mut Tracer>) -> Pass {
    match spec.path {
        Path::Streaming { workers } => {
            phases::saturated_streaming(&setup.input, workers, capacity, tracer)
        }
        Path::Batch => phases::saturated_batch(&setup.input, tracer),
        Path::Remote => {
            let (blocks, _) = setup.blocks();
            phases::remote(&setup.input, blocks, SATURATED_CHUNK, None, tracer)
        }
    }
}

/// The paced passes, if the workload has a paced phase: as many passes
/// of [`PACED_PASS_S`] seconds at the workload's rate as fit `budget`,
/// each over the same prefix of the stream, in whole chunks.
fn paced(spec: &Spec, setup: &Setup, budget: f64) -> Vec<Pass> {
    let Some(rate) = spec.paced_rate else {
        return Vec::new();
    };
    let len = setup.input.events.len();
    let fits = (PACED_PASS_S * rate as f64).round() as usize;
    let events = (fits / PACED_CHUNK * PACED_CHUNK).clamp(PACED_CHUNK.min(len), len);
    let pass_s = events as f64 / rate as f64;
    let passes = ((budget / pass_s) as usize).max(MIN_PACED_PASSES);
    (0..passes)
        .map(|_| match spec.path {
            Path::Streaming { workers } => {
                phases::paced_streaming(&setup.input, workers, rate, events)
            }
            Path::Remote => {
                let (_, blocks) = setup.blocks();
                let blocks = &blocks[..events.div_ceil(PACED_CHUNK)];
                phases::remote(&setup.input, blocks, PACED_CHUNK, Some(rate), None)
            }
            Path::Batch => unreachable!("the batch workload has no paced rate"),
        })
        .collect()
}

/// What the phases of a traced run measured, for [`per_layer`].
struct Measured<'a> {
    spec: &'a Spec,
    setup: &'a Setup,
    untraced: &'a [Pass],
    traced: &'a [Pass],
    paced: &'a [Pass],
    /// Every paced pass's latencies together, ascending.
    latencies: &'a [f64],
    reference: &'a Reference,
    throughput_eps: f64,
    speedup_vs_1w: f64,
    failed_share: f64,
}

/// The per-layer metrics: the traced repetitions' spans, then the
/// standalone probes, each run here and recorded as spans of its own.
fn per_layer(measured: &Measured, tracer: &mut Tracer, m: &mut Metrics, notes: &mut Vec<String>) {
    let Measured {
        spec,
        setup,
        untraced,
        traced,
        paced,
        latencies,
        reference,
        throughput_eps,
        speedup_vs_1w,
        failed_share,
    } = *measured;
    let input = &setup.input;
    let n = input.events.len() as u64;
    let reps = traced.len() as f64;
    m.set("workloads.generate_s", setup.generate_s);
    m.set("query.build_ms", setup.build_ms);

    // core.session (or server): the traced repetitions' spans.
    let per_rep = |name: &str| tracer.total_s(name) / reps;
    let ingest_s = per_rep("session.ingest") + per_rep("session.run") + per_rep("server.ingest");
    let drain_s = per_rep("session.drain");
    let finish_s = per_rep("session.finish") + per_rep("server.finish");
    m.set("session.ingest_s", ingest_s);
    m.set("session.drain_s", drain_s);
    m.set("session.finish_s", finish_s);
    let mut chunks: Vec<f64> = tracer
        .durations_ns("chunk")
        .into_iter()
        .chain(tracer.durations_ns("server.ingest"))
        .map(|ns| ns as f64 / 1e6)
        .collect();
    sort(&mut chunks);
    m.set("session.chunk_p99_ms", percentile(&chunks, 99.0));
    m.set(
        "session.chunk_max_ms",
        chunks.last().copied().unwrap_or(0.0),
    );
    let allocs: Vec<(u64, u64)> = traced.iter().map(|p| p.allocs).collect();
    m.set("session.allocs_per_event", allocs[0].0 as f64 / n as f64);
    m.set(
        "session.alloc_bytes_per_event",
        allocs[0].1 as f64 / n as f64,
    );
    notes.push(format!(
        "allocation counts {} across the {} traced repetitions",
        if allocs.iter().all(|a| *a == allocs[0]) {
            "repeated exactly"
        } else {
            "did NOT repeat exactly"
        },
        allocs.len()
    ));
    m.set(
        "trace.overhead_share",
        1.0 - calm_throughput(traced, Calm::of(spec)) / throughput_eps,
    );
    m.set(
        "trace.rep_coverage",
        spans::min_child_coverage(tracer.spans(), "rep"),
    );

    // engine.intern
    let last = traced.last().expect("the traced run has repetitions");
    m.set("engine.intern.key_probes", last.stats.key_probes as f64);
    m.set("engine.intern.key_allocs", last.stats.key_allocs as f64);
    m.set(
        "engine.intern.alloc_ratio",
        last.stats.key_allocs as f64 / (last.stats.key_probes as f64).max(1.0),
    );

    // Standalone probes.
    let workers = spec.workers();
    probes::hash(input, tracer);
    m.set("engine.hash.busy_s", tracer.total_s("engine.hash"));
    let ordered = if input.slack > 0 {
        let r = probes::reorder(input, tracer);
        m.set(
            "events.reorder.busy_s",
            tracer.total_s("events.reorder.push") + tracer.total_s("events.reorder.flush"),
        );
        m.set("events.reorder.max_buffered", r.max_buffered as f64);
        m.set("events.reorder.late_events", r.late_events as f64);
        Some(r.ordered)
    } else {
        None
    };
    let engine_results =
        probes::bare_engine(input, ordered.as_deref().unwrap_or(&input.events), tracer);
    let update_s = tracer.total_s("engine.update");
    let emit_s = tracer.total_s("engine.emit");
    m.set("engine.update_s", update_s);
    m.set("engine.emit_s", emit_s);
    m.set("engine.results", engine_results as f64);
    m.set("engine.ns_per_event", (update_s + emit_s) * 1e9 / n as f64);
    let session_s = ingest_s + drain_s + finish_s;
    m.set(
        "session.overhead_share",
        (session_s - update_s - emit_s) / session_s,
    );
    let state = probes::state(input, workers, tracer);
    m.set("engine.intern.memory_bytes_us", state.memory_bytes_us[2]);
    notes.push(format!(
        "one Session::memory_bytes() call at 25/50/100 % of the stream: {:.1} / {:.1} / {:.1} us",
        state.memory_bytes_us[0], state.memory_bytes_us[1], state.memory_bytes_us[2]
    ));
    m.set("checkpoint.save_ms", state.save_ms);
    m.set("checkpoint.snapshot_bytes", state.snapshot_bytes as f64);
    m.set("checkpoint.restore_ms", state.restore_ms);
    m.set(
        "checkpoint.restored_state_bytes",
        state.restored_state_bytes as f64,
    );

    if workers > 1 {
        m.set("parallel.route_s", ingest_s);
        m.set("parallel.drain_wait_s", drain_s + finish_s);
        let shards = &last.shard_events;
        let routed: u64 = shards.iter().sum();
        m.set("parallel.routed_items", routed as f64);
        let mean = routed as f64 / shards.len().max(1) as f64;
        let max = shards.iter().copied().max().unwrap_or(0) as f64;
        m.set(
            "parallel.shard_skew",
            if mean > 0.0 { max / mean } else { 0.0 },
        );
        m.set("parallel.speedup_vs_1w", speedup_vs_1w);
    }

    if let Some((blocks, _)) = &setup.blocks {
        let (rows, bytes) = probes::csv_decode(input, blocks, tracer);
        let decode_s = tracer.total_s("events.csv.decode");
        m.set("events.csv.decode_s", decode_s);
        m.set("events.csv.rows", rows as f64);
        m.set("events.csv.bytes", bytes as f64);
        m.set(
            "events.csv.ns_per_row",
            decode_s * 1e9 / (rows as f64).max(1.0),
        );
        let mut rtts: Vec<f64> = last.rtts.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        m.set("server.ingest_rtt_p50_ms", median(&mut rtts));
        m.set("server.bytes_sent", bytes as f64);
        m.set("server.results_pushed", reference.rows.len() as f64);
        let failed_replies: u64 = untraced
            .iter()
            .chain(traced)
            .chain(paced)
            .map(|p| p.failed_replies)
            .sum();
        m.set("server.failed_replies", failed_replies as f64);
        // The result set as structured values, for the codec probe.
        let results = phases::saturated_streaming(input, 1, 0, None).results;
        let lines = probes::wire_codec(&results, tracer) as f64;
        m.set(
            "wire.encode_ns_per_result",
            tracer.total_s("wire.encode") * 1e9 / lines.max(1.0),
        );
        m.set(
            "wire.decode_ns_per_result",
            tracer.total_s("wire.decode") * 1e9 / lines.max(1.0),
        );
    }

    if !paced.is_empty() {
        m.set("paced.latency_p99_ms", percentile(latencies, 99.0));
        m.set(
            "paced.latency_max_ms",
            latencies.last().copied().unwrap_or(0.0),
        );
        m.set("paced.samples", latencies.len() as f64);
        let total = |f: fn(&Pass) -> Duration| paced.iter().map(f).sum::<Duration>();
        m.set(
            "paced.utilisation",
            total(|p| p.busy).as_secs_f64() / total(|p| p.wall).as_secs_f64().max(1e-9),
        );
        let mut late: Vec<f64> = paced
            .iter()
            .flat_map(|p| p.generator_late_ms.iter().copied())
            .collect();
        sort(&mut late);
        m.set("paced.generator_late_p99_ms", percentile(&late, 99.0));
    }
    m.set("check.failed_share", failed_share);
}

/// Run one workload once and report its metrics.
pub fn run_workload(spec: &Spec, opts: &Options) -> Outcome {
    let mut tracer = Tracer::new();
    let mut tally = Tally::default();
    let mut notes = vec![format!(
        "seed {}, {} s, {} cpus",
        opts.seed,
        opts.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    )];

    // --- set-up ---------------------------------------------------------
    // `setup_s` is a median of several set-ups, all made here, before
    // anything else allocates: the same allocations in the same order on
    // every run, so the allocator reuses or faults in the same pages every
    // time, and the heap the measured phases start from is the same too.
    // The first set-up's input is the one measured: its events lie in
    // memory in stream order.
    let setup = setup(spec, opts.seed, &mut tracer);
    let mut setup_totals = vec![setup.total_s];
    for _ in 1..if opts.trace { 1 } else { SETUP_REPS } {
        setup_totals.push(self::setup(spec, opts.seed, &mut tracer).total_s);
    }
    let setup_s = median(&mut setup_totals);
    let input = &setup.input;
    let n = input.events.len() as u64;

    // --- saturated phase, then paced phase --------------------------------
    // The saturated repetitions all run first, on the heap the set-up
    // left: a paced pass in between leaves threads and freed state behind
    // that shift the repetitions after it (measured: stock-2w 3x faster
    // for a second, churn-keys 30 % slower for good).
    let paced_budget = spec.paced_rate.map_or(0.0, |_| opts.seconds * PACED_SHARE);
    let saturated_budget = Duration::from_secs_f64((opts.seconds - paced_budget).max(0.0));
    let phase_start = Instant::now();
    let mut reference: Option<Reference> = None;
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut capacity = 0;
    while untraced.len() < MIN_REPS || phase_start.elapsed() < saturated_budget {
        // Traced and untraced repetitions alternate, so both kinds see the
        // same machine.
        for kind in [None, Some(&mut tracer)] {
            if kind.is_some() && !opts.trace {
                continue;
            }
            let into = if kind.is_some() {
                &mut traced
            } else {
                &mut untraced
            };
            let mut pass = saturated(spec, &setup, capacity, kind);
            capacity = pass.result_count();
            tally.pass(&pass);
            match &reference {
                Some(reference) => reference.check(&mut tally, &mut pass),
                None => reference = Some(Reference::of(&mut pass)),
            }
            into.push(pass);
        }
    }
    let reference = reference.expect("the saturated phase ran");
    let mut paced = paced(spec, &setup, paced_budget);

    let throughput_eps = calm_throughput(&untraced, Calm::of(spec));
    let peak_state_bytes = untraced.iter().map(|p| p.peak_bytes).max().unwrap_or(0);
    let mut rates: Vec<f64> = untraced.iter().map(Pass::throughput_eps).collect();
    sort(&mut rates);
    notes.push(format!(
        "saturated: {} repetitions of {n} events, closed loop, one caller; \
         slowest {:.0}, median {:.0}, fastest {:.0} events/s",
        rates.len(),
        rates[0],
        percentile(&rates, 50.0),
        rates[rates.len() - 1]
    ));

    let mut latencies: Vec<f64> = paced
        .iter()
        .flat_map(|p| p.latencies.iter().map(|&(_, ms)| ms))
        .collect();
    sort(&mut latencies);
    let result_latency_p50_ms = if paced.is_empty() {
        // Batch: time from input to the complete result, of the same
        // repetition `throughput_eps` reports.
        n as f64 / throughput_eps * 1e3
    } else {
        let calm = calm_latency_p50(&paced);
        notes.push(format!(
            "paced: open loop at {} events/s, {} passes of {} events, {} latency samples, \
             median of all {:.4} ms",
            spec.paced_rate.unwrap_or(0),
            paced.len(),
            paced[0].offered,
            latencies.len(),
            percentile(&latencies, 50.0)
        ));
        // Every paced pass must produce what the first did.
        let mut passes = paced.iter_mut();
        let first = passes.next().expect("the paced phase ran");
        tally.pass(first);
        let paced_reference = Reference::of(first);
        for p in passes {
            tally.pass(p);
            paced_reference.check(&mut tally, p);
        }
        calm
    };

    // --- check ------------------------------------------------------------
    let (expected, wrong) = check_prefix(spec, input);
    tally.add(expected, wrong);
    let mut speedup_vs_1w = 0.0;
    match spec.path {
        Path::Streaming { workers } if workers > 1 => {
            // Same stream, one worker: the results must not depend on the
            // worker count.
            let mut single = phases::saturated_streaming(input, 1, capacity, None);
            speedup_vs_1w = throughput_eps / single.throughput_eps();
            tally.pass(&single);
            reference.check(&mut tally, &mut single);
        }
        Path::Remote => {
            // The subscriber's rows against the in-process run of the
            // same blocks, in order, byte for byte.
            let (blocks, _) = setup.blocks();
            let in_process = phases::in_process_rows(input, blocks);
            let differing = in_process
                .iter()
                .zip(&reference.rows)
                .filter(|(a, b)| a != b)
                .count()
                + in_process.len().abs_diff(reference.rows.len());
            tally.add(in_process.len() as u64, differing as u64);
        }
        _ => {}
    }

    // --- metrics --------------------------------------------------------
    let mut metrics = Metrics::declared(if opts.trace { &PER_LAYER } else { &END_TO_END });
    if opts.trace {
        let measured = Measured {
            spec,
            setup: &setup,
            untraced: &untraced,
            traced: &traced,
            paced: &paced,
            latencies: &latencies,
            reference: &reference,
            throughput_eps,
            speedup_vs_1w,
            failed_share: tally.failed as f64 / tally.attempted.max(1) as f64,
        };
        per_layer(&measured, &mut tracer, &mut metrics, &mut notes);
    } else {
        metrics.set("setup_s", setup_s);
        metrics.set("throughput_eps", throughput_eps);
        metrics.set("result_latency_p50_ms", result_latency_p50_ms);
        metrics.set("peak_state_bytes", peak_state_bytes as f64);
    }

    Outcome {
        workload: spec.name,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: metrics.0,
        notes,
        tracer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calm_throughput_sums_each_steps_shortest_time() {
        let pass = |step_ns: &[u64]| Pass {
            events: 1000,
            step_ns: step_ns.to_vec(),
            ..Pass::default()
        };
        // A stall hits a different step of each repetition: 1 ms + 2 ms of
        // calm time for 1000 events.
        let passes = [
            pass(&[1_000_000, 9_000_000]),
            pass(&[5_000_000, 2_000_000]),
            pass(&[2_000_000, 3_000_000]),
        ];
        let close = |a: f64, b: f64| (a - b).abs() < 1e-6;
        assert!(close(
            calm_throughput(&passes, Calm::Shortest),
            1000.0 / 0.003
        ));
        assert!(close(
            calm_throughput(&passes, Calm::Median),
            1000.0 / 0.005
        ));
        assert!(close(
            calm_throughput(&passes[..1], Calm::Shortest),
            1000.0 / 0.010
        ));
        assert_eq!(calm_throughput(&[], Calm::Shortest), 0.0);
    }

    #[test]
    fn calm_latency_takes_each_result_from_its_soonest_pass() {
        let pass = |ms: &[f64]| Pass {
            latencies: ms.iter().map(|&ms| (0, ms)).collect(),
            ..Pass::default()
        };
        // One pass is stalled at its start, the other at its end.
        let passes = [
            pass(&[9.0, 9.0, 2.0, 3.0, 4.0]),
            pass(&[1.0, 2.0, 2.0, 9.0, 9.0]),
        ];
        assert_eq!(calm_latency_p50(&passes), 2.0);
        assert_eq!(calm_latency_p50(&passes[..1]), 4.0);
        assert_eq!(calm_latency_p50(&[]), 0.0);
    }
}
