//! The model: case, configuration, ops, observation, reference — and the
//! one driver, [`check`], that holds a session to the reference. The
//! module header of `tests/common/mod.rs` states the model.

use cogra::events::Reorderer;
use cogra::prelude::*;
use cogra_faults::Trigger;
use std::collections::HashMap;

/// What is computed: a roster of queries over a stream.
#[derive(Debug, Clone)]
pub struct Case {
    /// Names the case in failure messages.
    pub name: String,
    pub registry: TypeRegistry,
    /// The queries, each with the engine kind it runs on.
    pub roster: Vec<(String, EngineKind)>,
    /// The stream, in arrival order.
    pub events: Vec<Event>,
    /// The slack the stream's disorder needs (`None`: it is ordered).
    pub slack: Option<u64>,
    /// Roster entries that are one query written twice — a renamed
    /// duplicate, a surface pattern and its hand expansion: their
    /// reference results must be equal.
    pub same: Vec<(usize, usize)>,
}

impl Case {
    /// The case with only roster entry `i`.
    pub fn only(mut self, i: usize) -> Case {
        self.roster = vec![self.roster.swap_remove(i)];
        self.same.clear();
        self
    }

    /// The case with every roster entry on `kind`.
    pub fn on(mut self, kind: EngineKind) -> Case {
        self.roster.iter_mut().for_each(|entry| entry.1 = kind);
        self
    }

    /// The case with its arrival order jittered beyond `slack` (so some
    /// events are hopelessly late), under `.slack(slack)`.
    pub fn jittered(mut self, slack: u64, seed: u64) -> Case {
        self.events = super::jitter(self.events, slack + 4, seed);
        self.slack = Some(slack);
        self
    }

    /// The case with every attribute no roster query reads
    /// (`CompiledQuery::read_set`) overwritten with noise of its kind: to
    /// engines that read no more than their plans say, the same case.
    pub fn noised(mut self) -> Case {
        let mut read: Vec<Vec<bool>> = (self.registry.iter())
            .map(|(_, schema)| vec![false; schema.arity()])
            .collect();
        for (query, _) in &self.roster {
            let plan = compile(&parse(query).expect("query parses"), &self.registry);
            let reads = plan.expect("query compiles").read_set(&self.registry);
            for (read, attrs) in read.iter_mut().zip(reads) {
                attrs.iter().for_each(|a| read[a.index()] = true);
            }
        }
        for (i, event) in self.events.iter_mut().enumerate() {
            let read = &read[event.type_id.index()];
            let kinds = self.registry.schema(event.type_id).iter();
            for (a, (_, kind)) in kinds.enumerate().filter(|(a, _)| !read[*a]) {
                event.attrs[a] = match kind {
                    ValueKind::Int => Value::Int(i64::MIN / 2 + i as i64),
                    ValueKind::Float if i % 2 == 0 => Value::Float(f64::NAN),
                    ValueKind::Float => Value::Float(-1e300),
                    ValueKind::Str => Value::str(format!("noise{i}")),
                    ValueKind::Bool => Value::Bool(i % 2 == 0),
                };
            }
        }
        self
    }

    /// Whether every query runs on COGRA — only then may a session shard.
    pub fn shards(&self) -> bool {
        self.roster
            .iter()
            .all(|(_, kind)| *kind == EngineKind::Cogra)
    }

    /// The session `config` builds for the case.
    pub fn builder(&self, config: &Config) -> SessionBuilder {
        let mut builder = Session::builder()
            .workers(config.workers)
            .batch_size(config.batch)
            .on_worker_failure(config.policy);
        for (query, kind) in &self.roster {
            builder = builder.query_with_engine(query.as_str(), *kind);
        }
        match self.slack {
            Some(slack) => builder.slack(slack),
            None => builder,
        }
    }
}

/// How events reach the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `Session::process`, event by event.
    Memory,
    /// `Session::ingest_csv`, one document per ingest op.
    Csv,
    /// `INGEST` blocks of this many rows through a loopback
    /// `cogra-server`, results pushed to a `SUBSCRIBE *` connection.
    Socket(usize),
}

/// How it is computed — none of it may show in the observation.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub workers: usize,
    pub batch: usize,
    pub policy: FailurePolicy,
    pub transport: Transport,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            workers: 1,
            batch: 512,
            policy: FailurePolicy::Fail,
            transport: Transport::Memory,
        }
    }
}

impl Config {
    pub fn workers(workers: usize) -> Config {
        Config {
            workers,
            ..Config::default()
        }
    }
}

/// The worker counts and transport batch sizes the sweeps cycle through:
/// inline and threaded widths; per-item sends, an odd size, the default's
/// order of magnitude, and "bigger than the stream" (flush on drain only).
pub const WIDTHS: [usize; 4] = [1, 2, 4, 8];
pub const BATCHES: [usize; 4] = [1, 7, 256, 100_000];

/// One step of a session's life. After the last op the driver ingests
/// the rest of the stream and finishes.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Ingest the next `n` events of the stream.
    Ingest(usize),
    Drain,
    /// Checkpoint, drop the session (over a socket: hard-stop the server,
    /// no `FINISH`), and restore the snapshot at this width and batch.
    Restore {
        workers: usize,
        batch: usize,
    },
    /// Arm `site` to fire on its `hit`-th hit from here on
    /// (`--features faults`; the policy decides what follows).
    Fault {
        site: String,
        hit: u64,
    },
}

/// Sampled `(kind, argument)` pairs as ops — 0–2 ingest a chunk, 3 drains,
/// 4 restores at a width and batch size the argument picks. A roster that
/// cannot shard restores in place.
pub fn ops(case: &Case, raw: &[(usize, usize)]) -> Vec<Op> {
    raw.iter()
        .map(|&(kind, arg)| match kind {
            0..=2 => Op::Ingest(3 * arg + 1),
            3 => Op::Drain,
            _ => Op::Restore {
                workers: if case.shards() { WIDTHS[arg % 4] } else { 1 },
                batch: BATCHES[arg / 4 % 4],
            },
        })
        .collect()
}

/// Ingest `chunk` events, drain, and again, to the end of the stream.
pub fn chunked(case: &Case, chunk: usize) -> Vec<Op> {
    let chunks = case.events.len().div_ceil(chunk.max(1));
    let round = |_| [Op::Ingest(chunk.max(1)), Op::Drain];
    (0..chunks).flat_map(round).collect()
}

/// What a run is observed by.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Per query: its results in (window, group) order, rendered — with
    /// `{:?}`, so floats compare by their bits, or as the wire's rows.
    pub per_query: Vec<Vec<String>>,
    /// Events the slack repair dropped as hopelessly late.
    pub late: u64,
    pub stats: RunStats,
    /// Σ shard events + events lost to quarantines.
    pub routed: u64,
    /// Effective shard count.
    pub workers: usize,
}

impl Observation {
    /// What a session's counters say, on either transport: `metrics` is
    /// `Session::metrics()` or the `FINISH` reply, `routed_before` the
    /// routed items of the sessions a restore replaced.
    fn of(per_query: Vec<Vec<String>>, metrics: &Metrics, routed_before: u64) -> Observation {
        Observation {
            per_query,
            late: metrics.late,
            stats: RunStats {
                key_probes: metrics.key_probes,
                key_allocs: metrics.key_allocs,
            },
            routed: routed_before + routed(metrics),
            workers: metrics.workers,
        }
    }
}

/// Σ shard events + events lost to quarantines.
fn routed(metrics: &Metrics) -> u64 {
    metrics.shard_events.iter().sum::<u64>() + metrics.dropped
}

/// A checked run: what it observed (equal to the reference's) and what
/// the sweeps need for their liveness assertions.
#[derive(Debug)]
pub struct Run {
    pub observation: Observation,
    /// Results emitted by drain ops, before `finish`.
    pub live: usize,
    /// The factoring the roster executed as: which physical run served
    /// each query.
    pub factoring: SharedPlan,
    /// The width the session was last opened at.
    width: usize,
    /// Whether a failpoint was armed.
    faulted: bool,
}

/// The specification a case is held to.
#[derive(Debug)]
pub struct Reference {
    /// Per query: its results alone on its own engine kind — to the bit,
    /// so that float sums are held to one merge order — which COGRA and,
    /// where it ran, the oracle confirmed up to rounding.
    per_query: Vec<Vec<WindowResult>>,
    /// Per query: the routing counters of its run alone.
    pub stats: Vec<RunStats>,
    /// Whether any query has a `GROUP-BY` prefix to shard on.
    shards: bool,
    /// Per query: the released events of a type it wants (one with its key
    /// that it binds or, being CONT, keeps): what every width hands it.
    handed: Vec<u64>,
    /// What a front `Reorderer` dropped.
    pub late: u64,
    /// How many queries the oracle judged too.
    pub enumerated: usize,
}

/// The most relevant events any (partition, window) of query `plan` holds
/// — what the oracle's enumeration is exponential in.
fn densest_window(plan: &cogra::query::CompiledQuery, case: &Case, events: &[Event]) -> usize {
    let keys = plan.partition_attr_ids(&case.registry);
    let relevant: Vec<_> = plan
        .disjuncts
        .iter()
        .flat_map(|d| d.automaton.relevant_types())
        .collect();
    let mut population: HashMap<String, usize> = HashMap::new();
    for e in events.iter().filter(|e| relevant.contains(&e.type_id)) {
        let Some(attrs) = &keys[e.type_id.index()] else {
            continue;
        };
        let key: Vec<&Value> = attrs.iter().map(|a| e.attr(*a)).collect();
        for window in plan.window.windows_of(e.time) {
            *population.entry(format!("{window} {key:?}")).or_default() += 1;
        }
    }
    population.values().copied().max().unwrap_or(0)
}

/// Whether two engines' results are the same up to the order floats were
/// added in (the oracle sums trend by trend, COGRA cell by cell).
fn agree(a: &[WindowResult], b: &[WindowResult]) -> bool {
    let close = |x: &AggValue, y: &AggValue| match (x, y) {
        (AggValue::Float(x), AggValue::Float(y)) => (x - y).abs() <= 1e-9 * x.abs().max(1.0),
        _ => x == y,
    };
    a.len() == b.len()
        && a.iter().zip(b).all(|(a, b)| {
            (a.window, &a.group, a.values.len()) == (b.window, &b.group, b.values.len())
                && a.values.iter().zip(&b.values).all(|(x, y)| close(x, y))
        })
}

/// Windows up to this many events are enumerated by the oracle.
const ENUMERABLE: usize = 9;

impl Reference {
    /// The reference of `case`; `None` when a roster entry is outside its
    /// engine kind's Table 9 row (there is nothing to hold it to).
    pub fn of(case: &Case) -> Option<Reference> {
        let (mut repaired, mut late) = (case.events.clone(), 0);
        if let Some(slack) = case.slack {
            let mut front = Reorderer::new(slack);
            repaired.clear();
            for e in &case.events {
                front.push(e.clone(), &mut repaired);
            }
            front.flush(&mut repaired);
            late = front.late_events();
        }
        let alone = |query: &str, kind: EngineKind| {
            let mut session = Session::builder()
                .query(query)
                .engine(kind)
                .build(&case.registry)
                .ok()?;
            for e in &repaired {
                session.process(e);
            }
            let mut results: Vec<WindowResult> = Vec::new();
            session.finish_into(&mut results);
            WindowResult::sort(&mut results);
            Some((results, session.run_stats(), session))
        };
        let mut reference = Reference {
            per_query: Vec::new(),
            stats: Vec::new(),
            shards: false,
            handed: Vec::new(),
            late,
            enumerated: 0,
        };
        for (query, kind) in &case.roster {
            // The query alone on its own kind — whose bits the session is
            // held to — must say what COGRA says and, where the windows can
            // be enumerated, what the oracle says.
            let (results, stats, session) = alone(query, *kind)?;
            let plan = session.plan(0).expect("one query");
            reference.shards |= plan.group_prefix > 0;
            let keys = plan.partition_attr_ids(&case.registry);
            let relevant: Vec<_> = (plan.disjuncts.iter())
                .flat_map(|d| d.automaton.relevant_types())
                .collect();
            let cont = plan.semantics == Semantics::Cont;
            let wants = |e: &&Event| {
                keys[e.type_id.index()].is_some() && (cont || relevant.contains(&e.type_id))
            };
            reference
                .handed
                .push(repaired.iter().filter(wants).count() as u64);
            let enumerable = densest_window(plan, case, &repaired) <= ENUMERABLE;
            reference.enumerated += usize::from(enumerable);
            let judges = [(EngineKind::Cogra, true), (EngineKind::Oracle, enumerable)];
            for (judge, _) in judges.iter().filter(|(judge, runs)| *runs && judge != kind) {
                let (judged, judged_stats, _) = alone(query, *judge)?;
                assert!(
                    agree(&results, &judged),
                    "{}: {kind} and {judge} disagree on `{query}`:\n{results:?}\n{judged:?}",
                    case.name
                );
                assert_eq!(stats, judged_stats, "{}: routing counters", case.name);
            }
            reference.per_query.push(results);
            reference.stats.push(stats);
        }
        for &(a, b) in &case.same {
            assert_eq!(
                format!("{:?}", reference.per_query[a]),
                format!("{:?}", reference.per_query[b]),
                "{}: `{}` and `{}` are the same query",
                case.name,
                case.roster[a].0,
                case.roster[b].0
            );
        }
        Some(reference)
    }

    /// Query `q`'s results, in (window, group) order.
    pub fn query(&self, q: usize) -> &[WindowResult] {
        &self.per_query[q]
    }

    /// How many results the reference holds, over all queries.
    pub fn results(&self) -> usize {
        self.per_query.iter().map(Vec::len).sum()
    }

    /// What `run`, a life of the case under `config`, must have observed.
    fn expected(&self, config: &Config, run: &Run) -> Observation {
        let socket = matches!(config.transport, Transport::Socket(_));
        // The routing counters are summed over the physical runs the
        // session factored the roster into (the arms that care pin the
        // factoring itself).
        let runs = run.factoring.members.iter().map(|members| members[0]);
        let mut stats = RunStats::default();
        runs.clone().for_each(|q| stats.merge(self.stats[q]));
        let rendered = |results: &Vec<WindowResult>| {
            let render = |r: &WindowResult| {
                if socket {
                    r.to_string()
                } else {
                    format!("{r:?}")
                }
            };
            let mut rows: Vec<String> = results.iter().map(render).collect();
            if socket {
                rows.sort();
            }
            rows
        };
        Observation {
            per_query: self.per_query.iter().map(rendered).collect(),
            late: self.late,
            stats,
            routed: runs.map(|q| self.handed[q]).sum(),
            workers: if self.shards { run.width } else { 1 },
        }
    }
}

/// Hold one run of `case` — `config`, then `ops`, the rest of the stream,
/// `finish` — to `reference`.
pub fn check(
    case: &Case,
    reference: &Reference,
    config: &Config,
    ops: &[Op],
) -> Result<Run, String> {
    let label = |what: String| format!("{}: {what} ({config:?}, ops {ops:?})", case.name);
    let mut run = match config.transport {
        Transport::Socket(block) => socket::drive(case, reference, config, ops, block),
        _ => drive(case, reference, config, ops),
    }
    .map_err(label)?;
    let mut expected = reference.expected(config, &run);
    if run.faulted {
        // A revived shard replays the batches since its worker's last
        // save: the routing counters count the replay too, and are not
        // part of the recovery contract.
        run.observation.stats = expected.stats;
        run.observation.routed = expected.routed;
    }
    if run.observation == expected {
        return Ok(run);
    }
    // Say where: the first differing row, or else the counters.
    let got = std::mem::take(&mut run.observation.per_query).into_iter();
    let want = std::mem::take(&mut expected.per_query);
    for (q, (got, want)) in got.zip(want).enumerate() {
        if let Some(at) = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i)) {
            let (got, want) = (got.get(at), want.get(at));
            return Err(label(format!(
                "q{q} result {at} is {got:?}, the reference's {want:?}"
            )));
        }
    }
    Err(label(format!(
        "observed {:?}, the reference {expected:?}",
        run.observation
    )))
}

/// [`check`], for arms that are not properties.
pub fn hold(case: &Case, reference: &Reference, config: &Config, ops: &[Op]) -> Run {
    check(case, reference, config, ops).unwrap_or_else(|e| panic!("{e}"))
}

/// Hold `case` under each of `configs` — each a life of `ops(case)` — to
/// its reference, which is handed back with the runs.
pub fn sweep(
    case: &Case,
    configs: impl IntoIterator<Item = Config>,
    ops: impl Fn(&Case) -> Vec<Op>,
) -> (Reference, Vec<Run>) {
    let reference = Reference::of(case).expect("the roster's kinds take its queries");
    let ops = ops(case);
    let runs = configs
        .into_iter()
        .map(|config| hold(case, &reference, &config, &ops))
        .collect();
    (reference, runs)
}

/// Holds the drains of a live session to the reference: whatever has been
/// emitted belongs to windows closed at the watermark, and every result of
/// every such window has been emitted (that each one *is* a reference
/// result follows from the final equality — the sink only grows).
struct Drains {
    seen: usize,
    per_query: Vec<usize>,
}

impl Drains {
    fn check(
        &mut self,
        session: &Session,
        sink: &[TaggedResult],
        reference: &Reference,
    ) -> Result<(), String> {
        self.per_query.resize(reference.per_query.len(), 0);
        let watermark = session.watermark();
        let closed = |q: usize| {
            session
                .plan(q)
                .expect("roster")
                .window
                .last_closed(watermark)
        };
        for t in &sink[self.seen..] {
            self.per_query[t.query] += 1;
            if closed(t.query).is_none_or(|closed| t.result.window > closed) {
                return Err(format!(
                    "a drain at watermark {watermark} emitted {} of q{}, still open",
                    t.result, t.query
                ));
            }
        }
        self.seen = sink.len();
        for (q, results) in reference.per_query.iter().enumerate() {
            let due = closed(q).map_or(0, |closed| results.partition_point(|r| r.window <= closed));
            if self.per_query[q] != due {
                return Err(format!(
                    "after a drain at watermark {watermark} q{q} has emitted {} results, \
                     the windows closed by then hold {due}",
                    self.per_query[q]
                ));
            }
        }
        Ok(())
    }
}

/// Drive an in-process session.
fn drive(case: &Case, reference: &Reference, config: &Config, ops: &[Op]) -> Result<Run, String> {
    let registry = &case.registry;
    let mut session = case
        .builder(config)
        .build(registry)
        .map_err(|e| format!("build: {e}"))?;
    let factoring = session.shared_plan().clone();
    let empty = session.memory_bytes();
    let feed = |session: &mut Session, events: &[Event]| -> Result<(), String> {
        match config.transport {
            Transport::Csv if !events.is_empty() => session
                .ingest_csv(&write_events(events, registry), registry)
                .map(drop)
                .map_err(|e| format!("ingest_csv: {e}")),
            Transport::Csv => Ok(()),
            _ => {
                events.iter().for_each(|e| session.process(e));
                Ok(())
            }
        }
    };
    let mut sink: Vec<TaggedResult> = Vec::new();
    let mut drains = Drains {
        seen: 0,
        per_query: Vec::new(),
    };
    // A session's counters start over with every restore; the snapshot
    // round trip before it leaves them current.
    let (mut events_before, mut results_before, mut routed_before) = (0, 0, 0);
    let (mut fed, mut width, mut faulted) = (0, config.workers, false);
    for op in ops {
        match op {
            Op::Ingest(n) => {
                let end = (fed + n).min(case.events.len());
                feed(&mut session, &case.events[fed..end])?;
                fed = end;
            }
            Op::Drain => {
                session.drain_into(&mut sink);
                drains.check(&session, &sink, reference)?;
            }
            Op::Restore { workers, batch } => {
                let mut snapshot = Vec::new();
                session
                    .checkpoint(&mut snapshot)
                    .map_err(|e| format!("checkpoint: {e}"))?;
                let metrics = session.metrics();
                events_before += metrics.events;
                results_before += metrics.results;
                routed_before += routed(&metrics);
                session = Session::builder()
                    .workers(*workers)
                    .batch_size(*batch)
                    .on_worker_failure(config.policy)
                    .restore(registry, snapshot.as_slice())
                    .map_err(|e| format!("restore at {workers}: {e}"))?;
                if *session.shared_plan() != factoring {
                    return Err("a restore changed the sharing factoring".to_string());
                }
                width = *workers;
            }
            Op::Fault { site, hit } => {
                cogra_faults::configure(site, Trigger::OnHit(*hit));
                faulted = true;
            }
        }
    }
    feed(&mut session, &case.events[fed..])?;
    let live = sink.len();
    session.finish_into(&mut sink);
    if let Some(failure) = session.worker_failure() {
        return Err(format!("the session failed: {failure}"));
    }
    let metrics = session.metrics();
    if !metrics.degraded.is_empty() {
        return Err(format!("shards {:?} were quarantined", metrics.degraded));
    }
    // Every event fed was counted once, and every result emitted.
    let counted = (
        events_before + metrics.events,
        results_before + metrics.results,
    );
    if counted != (case.events.len() as u64, sink.len() as u64) || !metrics.finished {
        return Err(format!(
            "the counters say {counted:?} (events, results) and {metrics:?} of the last \
             session; {} events were fed and {} results emitted",
            case.events.len(),
            sink.len()
        ));
    }

    let mut per_query: Vec<Vec<WindowResult>> = vec![Vec::new(); case.roster.len()];
    for t in &sink {
        per_query[t.query].push(t.result.clone());
    }
    let per_query = (per_query.iter_mut())
        .map(|results| {
            WindowResult::sort(results);
            results.iter().map(|r| format!("{r:?}")).collect()
        })
        .collect();
    let observation = Observation::of(per_query, &metrics, routed_before);

    // A finished session is exhausted, identically at every width: further
    // input is counted but ignored, further drains and finishes emit
    // nothing, and it refuses to checkpoint.
    case.events.iter().take(8).for_each(|e| session.process(e));
    session.drain_into(&mut sink);
    session.finish_into(&mut sink);
    let after = session.metrics();
    if (Metrics {
        events: metrics.events,
        ..after.clone()
    }) != metrics
    {
        return Err(format!("a finished session moved: {metrics:?} → {after:?}"));
    }
    if session.checkpoint(Vec::new()).is_ok() {
        return Err("a finished session checkpointed".to_string());
    }
    // …and holds nothing: every partition retired with its last window.
    let empty = if width == config.workers {
        empty
    } else {
        let rescaled = Config {
            workers: width,
            ..*config
        };
        let fresh = case.builder(&rescaled).build(registry);
        fresh.expect("built before").memory_bytes()
    };
    if session.memory_bytes() != empty {
        return Err(format!(
            "a finished session holds {} bytes, an empty one {empty}",
            session.memory_bytes()
        ));
    }
    Ok(Run {
        observation,
        live,
        factoring,
        width,
        faulted,
    })
}

/// The same life, lived behind `cogra-server` on a loopback socket.
mod socket {
    use super::*;
    use std::thread::JoinHandle;

    type Rows = JoinHandle<Vec<(usize, String)>>;

    /// Subscribe to everything; the rows arrive until `EOS` — or until
    /// the connection drops, when the server is hard-stopped.
    fn subscribe(server: &Server) -> Result<Rows, String> {
        let subscription = Client::connect(server.local_addr())
            .and_then(|client| client.subscribe(None))
            .map_err(|e| format!("subscribe: {e}"))??;
        Ok(std::thread::spawn(move || {
            subscription.map_while(Result::ok).collect()
        }))
    }

    fn said<T>(reply: std::io::Result<Result<T, String>>, verb: &str) -> Result<T, String> {
        reply
            .map_err(|e| format!("{verb}: {e}"))?
            .map_err(|e| format!("{verb}: server: {e}"))
    }

    pub fn drive(
        case: &Case,
        reference: &Reference,
        config: &Config,
        ops: &[Op],
        block: usize,
    ) -> Result<Run, String> {
        let registry = &case.registry;
        let open = |server: Result<Server, ServeError>| -> Result<_, String> {
            let server = server.map_err(|e| format!("server: {e}"))?;
            let rows = subscribe(&server)?;
            let feed = Client::connect(server.local_addr()).map_err(|e| format!("feed: {e}"))?;
            Ok((server, rows, feed))
        };
        let (mut server, mut rows, mut feed) = open(Server::spawn(
            case.builder(config),
            registry.clone(),
            "127.0.0.1:0",
            ServerConfig::default(),
        ))?;
        let snapshots =
            super::super::Fixture::dir(&format!("model-{:?}", std::thread::current().id()));
        // The stream's rows `rows` as `INGEST` blocks — no rows at all as a
        // header-only block. On a faulted life a block may die with its
        // connection, or lose a chunk: what the server ingested of it is in
        // `STATS events` (`before` counts earlier servers' rows), and a new
        // connection resumes from there, a few times over.
        let send = |feed: &mut Client,
                    server: &Server,
                    mut rows: std::ops::Range<usize>,
                    (before, faulted): (u64, bool)|
         -> Result<(), String> {
            for attempt in 0.. {
                let csv = write_events(&case.events[rows.clone()], registry);
                let Err(e) = said(feed.replay_csv(&csv, block), "INGEST") else {
                    break;
                };
                if !faulted || attempt == 3 {
                    return Err(e);
                }
                *feed = Client::connect(server.local_addr()).map_err(|e| format!("feed: {e}"))?;
                rows.start = (before + said(feed.stats(), "STATS")?.events) as usize;
            }
            Ok(())
        };
        let mut pushed: Vec<(usize, String)> = Vec::new();
        // `STATS` counts per server; the stream-wide totals are summed over
        // the restarts (the snapshot round trip leaves the counters current).
        let (mut events, mut results_before, mut routed_before) = (0, 0, 0);
        let (mut fed, mut width, mut faulted, mut live) = (0, config.workers, false, 0);
        for op in ops {
            match op {
                Op::Ingest(n) => {
                    let end = (fed + n).min(case.events.len());
                    send(&mut feed, &server, fed..end, (events, faulted))?;
                    fed = end;
                }
                Op::Drain => {
                    let report = said(feed.drain(), "DRAIN")?;
                    if report.results < live {
                        return Err(format!(
                            "the drain counter regressed: {} < {live}",
                            report.results
                        ));
                    }
                    live = report.results;
                }
                Op::Restore { workers, batch } => {
                    let path = snapshots.path("resume.snap");
                    said(feed.snapshot(&path), "SNAPSHOT")?;
                    let stats = said(feed.stats(), "STATS")?;
                    events += stats.events;
                    routed_before += routed(&stats);
                    server.shutdown();
                    pushed.extend(rows.join().expect("subscriber joins"));
                    (results_before, live) = (pushed.len() as u64, 0);
                    (server, rows, feed) = open(Server::spawn_restored(
                        Session::builder()
                            .workers(*workers)
                            .batch_size(*batch)
                            .on_worker_failure(config.policy),
                        registry.clone(),
                        &*path,
                        "127.0.0.1:0",
                        ServerConfig::default(),
                    ))?;
                    width = *workers;
                }
                Op::Fault { site, hit } => {
                    cogra_faults::configure(site, Trigger::OnHit(*hit));
                    faulted = true;
                }
            }
        }
        send(
            &mut feed,
            &server,
            fed..case.events.len(),
            (events, faulted),
        )?;
        let finish = said(feed.finish(), "FINISH")?;
        pushed.extend(rows.join().expect("subscriber joins"));
        server.shutdown();

        let total = pushed.len() as u64;
        if !finish.finished
            || events + finish.events != case.events.len() as u64
            || results_before + finish.results != total
            || live > finish.results
        {
            return Err(format!(
                "FINISH said {finish:?} after {events} events and {results_before} results of \
                 earlier servers, {live} drained; {total} rows were pushed"
            ));
        }
        let mut per_query = vec![Vec::new(); reference.per_query.len()];
        for (q, row) in pushed {
            per_query[q].push(row);
        }
        per_query.iter_mut().for_each(|rows| rows.sort());
        Ok(Run {
            observation: Observation::of(per_query, &finish, routed_before),
            live: (results_before + live) as usize,
            // `STATS` carries the count only; the members come from the
            // same roster factored in process.
            factoring: (case.builder(&Config {
                workers: 1,
                ..*config
            }))
            .build(registry)
            .expect("built by the server")
            .shared_plan()
            .clone(),
            width,
            faulted,
        })
    }
}
