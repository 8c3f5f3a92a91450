//! The [`TrendEngine`] abstraction every aggregation engine implements —
//! COGRA itself and the five baselines (SASE, GRETA, A-Seq, Flink and the
//! trend oracle) — so that the experiment harness and the correctness tests
//! treat them uniformly. Each of the six is one
//! [`Router`](crate::Router) over its [`WindowAlgo`](crate::WindowAlgo),
//! admitted by the Table 9 row that algorithm states
//! ([`Router::admit`](crate::Router::admit)) and built one way.

use crate::intern::RunStats;
use crate::output::WindowResult;
use crate::router::RouterState;
use cogra_checkpoint::CheckpointError;
use cogra_events::{Event, Timestamp};

/// A streaming event trend aggregation engine.
///
/// Contract:
/// * events are fed in non-decreasing time order ([`TrendEngine::process`]);
/// * a window's result is final once the engine has seen an event at or
///   past the window's end; [`TrendEngine::drain_into`] emits (and forgets)
///   all results final at the current watermark;
/// * [`TrendEngine::finish_into`] closes every remaining window.
///
/// Every engine a session builds is a [`Router`](crate::Router), which
/// overrides each provided method below that stands in for machinery; the
/// defaults serve only an engine written outside the router, today the
/// test reference `RefEngine` (`tests/routing_intern_props.rs`).
///
/// The push-based `*_into` methods are the primitives — implementations
/// hand each result to the sink as it is finalized, without building an
/// intermediate `Vec` on the per-event hot path. The collecting
/// [`TrendEngine::drain`] / [`TrendEngine::finish`] are thin compatibility
/// wrappers for callers that want owned results.
pub trait TrendEngine {
    /// Ingest one event — the only way an event enters an engine, at
    /// every width: a shard pool places an event by its `GROUP-BY` prefix
    /// and hands it over, and the engine finds the event's partition
    /// itself.
    fn process(&mut self, event: &Event);

    /// Emit results for all windows closed at the current watermark,
    /// pushing each into `out`.
    fn drain_into(&mut self, out: &mut dyn FnMut(WindowResult));

    /// End of stream: emit results for every window still open, pushing
    /// each into `out`.
    fn finish_into(&mut self, out: &mut dyn FnMut(WindowResult));

    /// Collecting wrapper over [`TrendEngine::drain_into`].
    fn drain(&mut self) -> Vec<WindowResult> {
        let mut results = Vec::new();
        self.drain_into(&mut |r| results.push(r));
        results
    }

    /// Collecting wrapper over [`TrendEngine::finish_into`].
    fn finish(&mut self) -> Vec<WindowResult> {
        let mut results = Vec::new();
        self.finish_into(&mut |r| results.push(r));
        results
    }

    /// Current logical memory footprint in bytes — aggregates, stored
    /// events, stacks, pointers, graphs, depending on the engine. This is
    /// the "peak memory" metric of §9.1, measured exactly instead of via
    /// process RSS. Cheap enough to sample at any cadence: router-backed
    /// engines maintain the figure incrementally, so a read sums a
    /// handful of integers and visits no key, partition or window.
    fn memory_bytes(&self) -> usize;

    /// The definition [`TrendEngine::memory_bytes`] must equal, computed
    /// by walking every interned key, open window and stored event — the
    /// reference the debug build and the test batteries hold the running
    /// counters to. The default is `memory_bytes`, for an engine that
    /// keeps no counters and so already computes the definition.
    fn audit_bytes(&self) -> usize {
        self.memory_bytes()
    }

    /// Additional internal memory peak not visible to periodic sampling
    /// (e.g. trends materialized while a window is being finalized).
    fn peak_hint(&self) -> usize {
        0
    }

    /// Engine name for reports.
    fn name(&self) -> &'static str;

    /// The latest event time seen.
    fn watermark(&self) -> Timestamp;

    /// Advance the watermark without an event, promising that every event
    /// still to come has time `>= to`. Used by sharded execution: a
    /// coordinator broadcasts global stream progress so a shard whose
    /// sub-stream went quiet can still finalize windows that closed
    /// globally. Times already passed are ignored; the default is a no-op,
    /// for an engine that only ever sees the whole stream.
    fn advance_watermark(&mut self, to: Timestamp) {
        let _ = to;
    }

    /// Routing hot-path statistics: interner probes vs. key lives begun
    /// ([`RunStats`]). The router reports real counters; the default is
    /// all-zero.
    fn run_stats(&self) -> RunStats {
        RunStats::default()
    }

    /// Sticky partition-key overflow: `Some(limit)` once any event was
    /// dropped because materializing its first-seen key would exceed the
    /// configured `EngineConfig::key_limit`. The router reports the real
    /// flag; the default is `None`.
    fn key_overflow(&self) -> Option<u32> {
        None
    }

    /// Whether an event a snapshot holds in flight for this engine can
    /// still be ingested into the state restored beside it: it is not
    /// behind the engine's clock, and its partition's open windows are
    /// where the event will look for them. A restore asks before it
    /// re-delivers; `false` means the snapshot's sections contradict each
    /// other. The default accepts, for an engine that checks nothing on
    /// ingest.
    fn accepts(&self, event: &Event) -> bool {
        let _ = event;
        true
    }

    /// Snapshot the engine's full mutable state — what one checkpoint
    /// engine section carries. The router writes it; the default refuses,
    /// so an engine outside the router, which has no restore path, can
    /// never produce a snapshot it cannot honor.
    fn save_state(&self) -> Result<RouterState, CheckpointError> {
        Err(CheckpointError::Unsupported(format!(
            "engine `{}` does not support checkpointing",
            self.name()
        )))
    }
}

/// Run an engine over a full stream, tracking the peak of
/// [`TrendEngine::memory_bytes`], and return `(results, peak_bytes)`.
///
/// Memory is sampled after every `sample_every` events (1 = every event;
/// larger values reduce measurement overhead on long streams).
pub fn run_to_completion(
    engine: &mut dyn TrendEngine,
    events: &[Event],
    sample_every: usize,
) -> (Vec<WindowResult>, usize) {
    let stride = sample_every.max(1);
    let mut peak = engine.memory_bytes();
    let mut results = Vec::new();
    let mut push = |r| results.push(r);
    for (i, e) in events.iter().enumerate() {
        engine.process(e);
        engine.drain_into(&mut push);
        if i % stride == 0 {
            peak = peak.max(engine.memory_bytes());
        }
    }
    peak = peak.max(engine.memory_bytes());
    engine.finish_into(&mut push);
    peak = peak.max(engine.peak_hint());
    WindowResult::sort(&mut results);
    (results, peak)
}
