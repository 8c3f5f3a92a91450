//! The measured phases: one saturated repetition and one paced pass, for
//! each of the three delivery paths.
//!
//! Only calls into the product are timed. `Session::memory_bytes()` and
//! all span bookkeeping of the untraced run sit outside the timed
//! regions. When a [`Tracer`] is passed, the same loop records spans
//! around the same calls and switches the counting allocator on inside
//! them; the time those spans cost is the tracing overhead reported as
//! `trace.overhead_share`.

use crate::alloc;
use crate::pacing::{due_chunk, running_max_times, Schedule};
use crate::spans::Tracer;
use crate::workloads::{Input, PACED_CHUNK, SATURATED_CHUNK, SLIDE, WITHIN};
use cogra_core::session::{Session, SessionBuilder};
use cogra_core::{RunStats, WindowResult};
use cogra_events::{WindowId, WindowSpec};
use cogra_server::{Client, Server, ServerConfig};
use std::time::{Duration, Instant};

/// Memory is sampled every this many chunks, outside the timed region.
const MEMORY_STRIDE: usize = 64;

/// The session configuration of a workload.
pub fn builder(input: &Input, workers: usize) -> SessionBuilder {
    let mut b = Session::builder()
        .query(input.query.as_str())
        .workers(workers);
    if input.slack > 0 {
        b = b.slack(input.slack);
    }
    b
}

fn session(input: &Input, workers: usize) -> Session {
    builder(input, workers)
        .build(&input.registry)
        .expect("the workload's query builds")
}

/// A server for the workload's session on an ephemeral loopback port.
pub fn spawn_server(input: &Input) -> Server {
    Server::spawn(
        builder(input, 1),
        input.registry.clone(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("the server starts on loopback")
}

/// Open a span if the pass is traced.
fn open(tracer: &mut Option<&mut Tracer>, name: &'static str) -> Option<usize> {
    tracer.as_deref_mut().map(|t| t.open(name))
}

/// Close a span opened by [`open`].
fn close(tracer: &mut Option<&mut Tracer>, span: Option<usize>) {
    if let (Some(t), Some(span)) = (tracer.as_deref_mut(), span) {
        t.close(span);
    }
}

/// What one pass over the stream produced and cost.
#[derive(Debug, Default)]
pub struct Pass {
    /// Time spent inside calls into the product.
    pub busy: Duration,
    /// Saturated passes: that time call by call, in nanoseconds — one
    /// entry per chunk (or block, or the one `Session::run`), then one for
    /// the finish. Every repetition of a stream has the same entries.
    pub step_ns: Vec<u64>,
    /// Events offered.
    pub offered: u64,
    /// Events the product accepted (late and dropped ones included).
    pub events: u64,
    /// In-process paths: every result, in emission order.
    pub results: Vec<WindowResult>,
    /// Remote path: every `RESULT` row the subscriber read, in order.
    pub rows: Vec<String>,
    /// Largest sampled logical state size.
    pub peak_bytes: usize,
    /// Events dropped as late by `.slack(n)`.
    pub late_events: u64,
    /// Events lost to degraded shards.
    pub dropped_events: u64,
    /// Routing counters at end of stream.
    pub stats: RunStats,
    /// Events per shard at end of stream.
    pub shard_events: Vec<u64>,
    /// Remote path: requests sent.
    pub requests: u64,
    /// Remote path: requests that got `ERR` or a transport error.
    pub failed_replies: u64,
    /// Remote path: round-trip time of each `INGEST` block.
    pub rtts: Vec<Duration>,
    /// Traced passes: allocator calls and bytes inside product calls.
    pub allocs: (u64, u64),
    /// Paced passes: `(due chunk, latency in ms)` of every result an
    /// event made final, ascending. Passes over the same stream emit the
    /// same results, so entry `i` of one pass and entry `i` of another
    /// belong to the same window close.
    pub latencies: Vec<(usize, f64)>,
    /// Paced passes: how late the generator offered each chunk, in ms.
    pub generator_late_ms: Vec<f64>,
    /// Paced passes: wall-clock length of the schedule that was fed.
    pub wall: Duration,
}

impl Pass {
    /// Results produced, whichever path produced them.
    pub fn result_count(&self) -> usize {
        self.results.len().max(self.rows.len())
    }

    /// Events per second of product time.
    pub fn throughput_eps(&self) -> f64 {
        self.events as f64 / self.busy.as_secs_f64().max(1e-9)
    }
}

impl Pass {
    /// Record one timed call into the product.
    fn step(&mut self, took: Duration) {
        self.busy += took;
        self.step_ns.push(took.as_nanos() as u64);
    }
}

/// Run `f` with the counting allocator on, adding what it counted to
/// `total`.
fn counted<T>(total: &mut (u64, u64), f: impl FnOnce() -> T) -> T {
    let before = alloc::counted();
    alloc::set_counting(true);
    let out = f();
    alloc::set_counting(false);
    let after = alloc::counted();
    total.0 += after.0 - before.0;
    total.1 += after.1 - before.1;
    out
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One saturated repetition of an in-process streaming workload: a fresh
/// session fed the whole stream in [`SATURATED_CHUNK`]-event chunks, each
/// followed by a drain. `capacity` pre-sizes the result buffer (the
/// previous repetition's result count), so its growth is not timed.
pub fn saturated_streaming(
    input: &Input,
    workers: usize,
    capacity: usize,
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let mut s = session(input, workers);
    let mut pass = Pass {
        offered: input.events.len() as u64,
        events: input.events.len() as u64,
        results: Vec::with_capacity(capacity),
        step_ns: Vec::with_capacity(input.events.len().div_ceil(SATURATED_CHUNK) + 1),
        ..Pass::default()
    };
    if let Some(t) = tracer.as_deref_mut() {
        t.next_run();
    }
    let rep = open(&mut tracer, "rep");
    for (i, chunk) in input.events.chunks(SATURATED_CHUNK).enumerate() {
        match tracer.as_deref_mut() {
            None => {
                let t0 = Instant::now();
                for e in chunk {
                    s.process(e);
                }
                s.drain_into(&mut pass.results);
                pass.step(t0.elapsed());
            }
            Some(t) => {
                // Only the product's calls are counted: a span pushed onto
                // the tracer's own list may allocate too.
                let span = t.open("chunk");
                let ingest = t.open("session.ingest");
                counted(&mut pass.allocs, || {
                    for e in chunk {
                        s.process(e);
                    }
                });
                t.close(ingest);
                let drain = t.open("session.drain");
                counted(&mut pass.allocs, || s.drain_into(&mut pass.results));
                t.close(drain);
                pass.step(Duration::from_nanos(t.close(span)));
            }
        }
        if i % MEMORY_STRIDE == 0 {
            sample_memory(&s, &mut pass, tracer.as_deref_mut());
        }
    }
    sample_memory(&s, &mut pass, tracer.as_deref_mut());
    match tracer.as_deref_mut() {
        None => {
            let t0 = Instant::now();
            s.finish_into(&mut pass.results);
            pass.step(t0.elapsed());
        }
        Some(t) => {
            let span = t.open("session.finish");
            counted(&mut pass.allocs, || s.finish_into(&mut pass.results));
            pass.step(Duration::from_nanos(t.close(span)));
        }
    }
    close(&mut tracer, rep);
    end_of_stream(&s, &mut pass);
    pass
}

/// Sample the logical state size. Never inside a timed region; in a
/// traced repetition it is a span of its own, so the repetition's time is
/// fully attributed and the instrument's cost shows.
fn sample_memory(s: &Session, pass: &mut Pass, tracer: Option<&mut Tracer>) {
    let bytes = match tracer {
        None => s.memory_bytes(),
        Some(t) => t.span("session.memory_bytes", || s.memory_bytes()),
    };
    pass.peak_bytes = pass.peak_bytes.max(bytes);
}

fn end_of_stream(s: &Session, pass: &mut Pass) {
    pass.late_events = s.late_events();
    pass.dropped_events = s.dropped_events();
    pass.stats = s.run_stats();
    pass.shard_events = s.shard_events();
}

/// One saturated repetition of the batch workload: `Session::run` over
/// the whole stream, timed as one call. The run loop samples memory
/// itself; that is part of what this workload measures.
pub fn saturated_batch(input: &Input, tracer: Option<&mut Tracer>) -> Pass {
    let s = session(input, 1);
    let mut pass = Pass {
        offered: input.events.len() as u64,
        events: input.events.len() as u64,
        ..Pass::default()
    };
    let run = match tracer {
        None => {
            let t0 = Instant::now();
            let run = s.run(&input.events);
            pass.step(t0.elapsed());
            run
        }
        Some(t) => {
            t.next_run();
            let rep = t.open("rep");
            let span = t.open("session.run");
            let run = counted(&mut pass.allocs, || s.run(&input.events));
            pass.step(Duration::from_nanos(t.close(span)));
            t.close(rep);
            run
        }
    };
    pass.peak_bytes = run.peak_bytes;
    pass.late_events = run.late_events;
    pass.dropped_events = run.dropped_events;
    pass.stats = run.stats;
    pass.shard_events = run.shard_events;
    pass.results = run.per_query.into_iter().next().unwrap_or_default();
    pass
}

/// One open-loop pass of an in-process streaming workload: the first
/// `events` events in [`PACED_CHUNK`]-event chunks, chunk `i` offered
/// when the schedule says so and no earlier.
pub fn paced_streaming(input: &Input, workers: usize, rate: u64, events: usize) -> Pass {
    let stream = &input.events[..events];
    let running_max = running_max_times(stream, PACED_CHUNK);
    let mut s = session(input, workers);
    let mut pass = Pass {
        offered: events as u64,
        events: events as u64,
        ..Pass::default()
    };
    let mut arrived: Vec<Instant> = Vec::new();
    let schedule = Schedule::new(Instant::now() + Duration::from_millis(5), PACED_CHUNK, rate);
    for (i, chunk) in stream.chunks(PACED_CHUNK).enumerate() {
        pass.generator_late_ms.push(ms(schedule.wait(i)));
        let t0 = Instant::now();
        for e in chunk {
            s.process(e);
        }
        s.drain_into(&mut |_query: usize, r: WindowResult| {
            arrived.push(Instant::now());
            pass.results.push(r);
        });
        pass.busy += t0.elapsed();
    }
    pass.wall = Instant::now().saturating_duration_since(schedule.due(0));
    pass.peak_bytes = s.memory_bytes();
    // Windows still open are closed by `finish`, not by an event: they
    // count as results but have no latency.
    s.finish_into(&mut pass.results);
    end_of_stream(&s, &mut pass);
    let windows = pass.results.iter().map(|r| r.window);
    pass.latencies = latencies(&schedule, &running_max, input.slack, windows, &arrived);
    pass
}

/// Latency of each result that has an arrival time: arrival minus the due
/// time of the chunk that made its window final, with that chunk's index,
/// ascending.
fn latencies(
    schedule: &Schedule,
    running_max: &[u64],
    slack: u64,
    windows: impl Iterator<Item = WindowId>,
    arrived: &[Instant],
) -> Vec<(usize, f64)> {
    let spec = WindowSpec::new(WITHIN, SLIDE);
    let mut out: Vec<(usize, f64)> = windows
        .zip(arrived)
        .filter_map(|(window, at)| {
            let chunk = due_chunk(running_max, spec, slack, window)?;
            Some((chunk, ms(at.saturating_duration_since(schedule.due(chunk)))))
        })
        .collect();
    out.sort_by(|a, b| a.partial_cmp(b).expect("latencies are never NaN"));
    out
}

/// The window id at the start of a `RESULT` row (`w12 [..] → ..`).
fn row_window(row: &str) -> Option<WindowId> {
    let id = row.strip_prefix('w')?.split(' ').next()?;
    id.parse().ok().map(WindowId)
}

/// One pass of the remote workload: a fresh server on loopback, one
/// subscriber connection reading every `RESULT`, one feed connection
/// sending `blocks` with `Client::ingest` and waiting for each reply.
/// With `paced`, block `i` is sent when the schedule says so; without, as
/// fast as replies come back. Timed: the ingest calls and `FINISH`.
pub fn remote(
    input: &Input,
    blocks: &[String],
    rows_per_block: usize,
    paced: Option<u64>,
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let mut pass = Pass {
        offered: (blocks.len() * rows_per_block).min(input.events.len()) as u64,
        step_ns: Vec::with_capacity(blocks.len() + 1),
        ..Pass::default()
    };
    let server = spawn_server(input);
    let subscription = Client::connect(server.local_addr())
        .expect("the subscriber connects")
        .subscribe(None)
        .expect("subscribe is answered")
        .expect("subscribe is accepted");
    let consumer = std::thread::spawn(move || {
        let mut rows: Vec<(Instant, String)> = Vec::new();
        for item in subscription {
            match item {
                Ok((_query, row)) => rows.push((Instant::now(), row)),
                Err(_) => break,
            }
        }
        rows
    });
    let mut feed = Client::connect(server.local_addr()).expect("the feed connects");

    if let Some(t) = tracer.as_deref_mut() {
        t.next_run();
    }
    let rep = open(&mut tracer, "rep");
    let schedule = paced.map(|rate| {
        Schedule::new(
            Instant::now() + Duration::from_millis(5),
            rows_per_block,
            rate,
        )
    });
    for (i, block) in blocks.iter().enumerate() {
        if let Some(schedule) = &schedule {
            pass.generator_late_ms.push(ms(schedule.wait(i)));
        }
        let span = open(&mut tracer, "server.ingest");
        let t0 = Instant::now();
        let reply = if span.is_some() {
            // The counters are global: the server's threads count too.
            counted(&mut pass.allocs, || feed.ingest(block))
        } else {
            feed.ingest(block)
        };
        let rtt = t0.elapsed();
        close(&mut tracer, span);
        pass.step(rtt);
        pass.requests += 1;
        match reply {
            Ok(Ok(report)) => {
                pass.events += report.ingested;
                pass.peak_bytes = pass.peak_bytes.max(report.memory);
                pass.rtts.push(rtt);
            }
            _ => pass.failed_replies += 1,
        }
    }
    if let Some(schedule) = &schedule {
        pass.wall = Instant::now().saturating_duration_since(schedule.due(0));
    }
    let span = open(&mut tracer, "server.finish");
    let t0 = Instant::now();
    let finished = feed.finish();
    pass.step(t0.elapsed());
    close(&mut tracer, span);
    close(&mut tracer, rep);
    pass.requests += 1;
    // After a successful FINISH the server has pushed EOS, which ends the
    // subscriber; after a failed one only closing the server does.
    let rows = match finished {
        Ok(Ok(report)) => {
            pass.late_events = report.late;
            pass.dropped_events = report.dropped;
            pass.stats = RunStats {
                key_probes: report.key_probes,
                key_allocs: report.key_allocs,
            };
            pass.shard_events = report.shard_events;
            let rows = consumer.join().expect("the subscriber thread ends");
            server.shutdown();
            rows
        }
        _ => {
            pass.failed_replies += 1;
            server.shutdown();
            consumer.join().expect("the subscriber thread ends")
        }
    };

    if let Some(schedule) = &schedule {
        // Rows pushed by FINISH close windows no event closed: they are
        // filtered out by `due_chunk` returning `None`.
        let running_max = running_max_times(&input.events, rows_per_block);
        let (arrived, windows): (Vec<Instant>, Vec<WindowId>) = rows
            .iter()
            .filter_map(|(at, row)| Some((*at, row_window(row)?)))
            .unzip();
        pass.latencies = latencies(
            schedule,
            &running_max[..blocks.len()],
            input.slack,
            windows.into_iter(),
            &arrived,
        );
    }
    pass.rows = rows.into_iter().map(|(_, row)| row).collect();
    pass
}

/// The rows an in-process session emits for the same CSV blocks, each
/// block ingested with `Session::ingest_csv` and then drained — what the
/// server does, without the server.
pub fn in_process_rows(input: &Input, blocks: &[String]) -> Vec<String> {
    let mut s = session(input, 1);
    let mut rows = Vec::new();
    let mut sink = |_query: usize, r: WindowResult| rows.push(r.to_string());
    for block in blocks {
        s.ingest_csv(block, &input.registry)
            .expect("generated CSV decodes");
        s.drain_into(&mut sink);
    }
    s.finish_into(&mut sink);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_window_reads_the_leading_id() {
        assert_eq!(row_window("w12 [7] → 3"), Some(WindowId(12)));
        assert_eq!(row_window("x12 [7] → 3"), None);
        assert_eq!(row_window("w [7]"), None);
    }
}
