//! `cogra-run` — run event trend aggregation queries against a recorded
//! CSV stream from the command line, through the unified [`Session`] API.
//!
//! ```text
//! cogra-run --schema schema.csv --events stream.csv --query query.cep
//!           [--engine cogra|sase|greta|aseq|flink|oracle] [--workers N]
//!           [--explain] [--dot] [--slack N] [--key-limit N] [--memory]
//!           [--checkpoint snap.cogra] [--restore snap.cogra]
//! cogra-run serve   --schema schema.csv --query query.cep
//!           [--engine E] [--workers N] [--slack N] [--key-limit N]
//!           [--listen 127.0.0.1:7878] [--restore snap.cogra]
//!           [--read-timeout SECS] [--snapshot-on-term snap.cogra]
//! cogra-run connect --addr HOST:PORT --events stream.csv
//!           [--chunk N] [--stats] [--snapshot snap.cogra]
//!           [--retry N] [--backoff-ms M]
//! ```
//!
//! * `--schema` — CSV with rows `type,attr,kind` (kind ∈ int|float|str|bool)
//!   declaring the event types;
//! * `--events` — the stream in the `cogra_events::csv` format
//!   (`type,time,<attribute columns>`);
//! * `--query`  — a file containing one query in the paper's language
//!   (repeat the flag for a multi-query workload over the same stream);
//! * `--engine` — which engine to run (default `cogra`);
//! * `--workers` — parallel per-partition shards (§8, COGRA only);
//!   execution streams through per-worker threads and the summary line
//!   reports the *effective* shard count (1 when a query has no
//!   `GROUP-BY` prefix to shard on);
//! * `--slack`  — repair up to N ticks of disorder before ingestion and
//!   report how many late events had to be dropped;
//! * `--key-limit` — hold at most N partition keys resident (keys with
//!   a window still open; the run drains after every event); a stream
//!   that needs more at once fails ingestion with a typed error instead
//!   of growing without bound;
//! * `--explain` / `--dot` — print the compiled plan / Graphviz automaton;
//!   with several queries, `--explain` also prints the session's fan-out:
//!   per event type, the queries an event reaches and under which hash
//!   group (`GROUP-BY` list) or on which fixed shard;
//! * `--memory` — report peak memory after the run;
//! * `--checkpoint SNAP` — ingest the stream, print what is final at the
//!   watermark, then write the session's remaining live state to `SNAP`
//!   instead of closing the open windows;
//! * `--restore SNAP` — resume from a snapshot instead of `--query`
//!   (queries, engines and slack come from the snapshot; `--workers N`
//!   rescales elastically). A `--checkpoint` prefix run plus a
//!   `--restore` suffix run print exactly the uninterrupted run's rows.
//!
//! `serve` wraps the same session in the `cogra-server` TCP front-end
//! (loopback-only; `--listen 127.0.0.1:0` picks an ephemeral port,
//! printed as `listening on ADDR`), serves `INGEST`/`SUBSCRIBE`/
//! `DRAIN`/`STATS`/`FINISH`, and exits once a client sends `FINISH`.
//! `--read-timeout SECS` disconnects silent command connections;
//! on Unix, SIGTERM shuts down gracefully — drain, snapshot to the
//! `--snapshot-on-term` path if given (a later `serve --restore` resumes
//! there), exit 0.
//! `connect` is the matching replay client: it subscribes to every
//! query, replays a recorded CSV stream in `--chunk`-row blocks, sends
//! `FINISH`, and prints the pushed results — the same rows the plain
//! run mode would print, modulo the push-order vs sorted-order
//! difference (`tests/cli.rs` pins the sorted outputs equal).
//! `--retry N` retries a refused connection with `--backoff-ms M`
//! exponential backoff, so a client racing its server's startup wins.

use cogra::prelude::*;
use cogra::query::{explain, to_dot};
use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

/// The flags `run` and `serve` share: which session to build or restore.
#[derive(Default)]
struct SessionFlags {
    schema: Option<String>,
    queries: Vec<String>,
    engine: Option<EngineKind>,
    workers: Option<usize>,
    slack: Option<u64>,
    key_limit: Option<u32>,
    restore: Option<String>,
}

/// The one cursor every flag loop walks: `flag()` yields the next
/// argument, `value` / `integer` take the value that must follow it.
struct Cursor<'a>(std::slice::Iter<'a, String>);

impl Cursor<'_> {
    fn new(argv: &[String]) -> Cursor<'_> {
        Cursor(argv.iter())
    }

    fn flag(&mut self) -> Option<String> {
        self.0.next().cloned()
    }

    fn value(&mut self, name: &str) -> Result<String, String> {
        self.flag().ok_or_else(|| format!("{name} needs a value"))
    }

    fn integer<T: std::str::FromStr>(&mut self, name: &str) -> Result<T, String> {
        self.value(name)?
            .parse()
            .map_err(|_| format!("{name} needs an integer"))
    }
}

/// Split `argv` into the session flags and everything else, in order, for
/// the subcommand's own parser.
fn parse_session_flags(argv: &[String]) -> Result<(SessionFlags, Vec<String>), String> {
    let mut flags = SessionFlags::default();
    let mut rest = Vec::new();
    let mut args = Cursor::new(argv);
    while let Some(arg) = args.flag() {
        match arg.as_str() {
            "--schema" => flags.schema = Some(args.value(&arg)?),
            "--query" => flags.queries.push(args.value(&arg)?),
            "--engine" => flags.engine = Some(args.value(&arg)?.parse::<EngineKind>()?),
            "--workers" => flags.workers = Some(args.integer(&arg)?),
            "--slack" => flags.slack = Some(args.integer(&arg)?),
            "--key-limit" => flags.key_limit = Some(args.integer(&arg)?),
            "--restore" => flags.restore = Some(args.value(&arg)?),
            _ => rest.push(arg),
        }
    }
    Ok((flags, rest))
}

impl SessionFlags {
    /// Reject flag combinations no session can honor; hands back the
    /// schema path. With `--restore` the snapshot fixes queries, engines
    /// and slack; only the execution-shape knobs may be overridden
    /// (Session enforces the same contract — this just gives flag-level
    /// messages).
    fn check(&self) -> Result<&str, String> {
        if self.restore.is_some() {
            if !self.queries.is_empty() {
                return Err("--query cannot be combined with --restore \
                            (the snapshot defines the queries)"
                    .into());
            }
            if self.engine.is_some() {
                return Err("--engine cannot be combined with --restore".into());
            }
            if self.slack.is_some() {
                return Err("--slack cannot be combined with --restore".into());
            }
            if self.key_limit.is_some() {
                return Err("--key-limit cannot be combined with --restore".into());
            }
        } else if self.queries.is_empty() {
            return Err("--query is required".into());
        }
        Ok(self.schema.as_deref().ok_or("--schema is required")?)
    }

    /// The registry the `--schema` file declares.
    fn registry(&self) -> Result<TypeRegistry, String> {
        load_registry(&read(self.check()?)?)
    }

    /// The `--query` files, parsed; errors name the file.
    fn parsed_queries(&self) -> Result<Vec<Query>, String> {
        self.queries
            .iter()
            .map(|path| parse(&read(path)?).map_err(|e| format!("{path}: {e}")))
            .collect()
    }

    /// The builder these flags describe: everything for a fresh session;
    /// for `--restore`, only the elastic-rescale knob (the snapshot is
    /// authoritative for the rest).
    fn builder(&self, queries: &[Query]) -> SessionBuilder {
        let mut builder = Session::builder();
        if self.restore.is_some() {
            if let Some(workers) = self.workers {
                builder = builder.workers(workers);
            }
            return builder;
        }
        builder = builder
            .engine(self.engine.unwrap_or(EngineKind::Cogra))
            .workers(self.workers.unwrap_or(1));
        if let Some(slack) = self.slack {
            builder = builder.slack(slack);
        }
        if let Some(limit) = self.key_limit {
            builder = builder.config(EngineConfig {
                key_limit: Some(limit),
                ..EngineConfig::default()
            });
        }
        for query in queries {
            builder = builder.query(query);
        }
        builder
    }
}

struct Args {
    session: SessionFlags,
    events: String,
    checkpoint: Option<String>,
    explain: bool,
    dot: bool,
    memory: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (session, rest) = parse_session_flags(argv)?;
    let mut events = None;
    let mut checkpoint = None;
    let mut explain = false;
    let mut dot = false;
    let mut memory = false;
    let mut args = Cursor::new(&rest);
    while let Some(arg) = args.flag() {
        match arg.as_str() {
            "--events" => events = Some(args.value(&arg)?),
            "--checkpoint" => checkpoint = Some(args.value(&arg)?),
            "--explain" => explain = true,
            "--dot" => dot = true,
            "--memory" => memory = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    session.check()?;
    Ok(Args {
        session,
        events: events.ok_or("--events is required")?,
        checkpoint,
        explain,
        dot,
        memory,
    })
}

/// Parse the `type,attr,kind` schema file into a registry.
fn load_registry(text: &str) -> Result<TypeRegistry, String> {
    let mut decls: Vec<(String, Vec<(String, ValueKind)>)> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || (i == 0 && line == "type,attr,kind") {
            continue;
        }
        let parts: Vec<&str> = line.split(',').map(str::trim).collect();
        let [ty, attr, kind] = parts[..] else {
            return Err(format!("schema line {}: expected `type,attr,kind`", i + 1));
        };
        let kind = match kind {
            "int" => ValueKind::Int,
            "float" => ValueKind::Float,
            "str" | "string" => ValueKind::Str,
            "bool" => ValueKind::Bool,
            other => return Err(format!("schema line {}: unknown kind `{other}`", i + 1)),
        };
        match decls.iter_mut().find(|(t, _)| t == ty) {
            Some((_, attrs)) => attrs.push((attr.to_string(), kind)),
            None => decls.push((ty.to_string(), vec![(attr.to_string(), kind)])),
        }
    }
    let mut registry = TypeRegistry::new();
    for (ty, attrs) in &decls {
        registry.register_type(ty, attrs.iter().map(|(a, k)| (a.as_str(), *k)).collect());
    }
    if registry.is_empty() {
        return Err("schema declares no event types".into());
    }
    Ok(registry)
}

/// Read a file, attributing errors to the path.
fn read(p: &str) -> Result<String, String> {
    std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv)?;
    let registry = args.session.registry()?;
    let events = args.events.as_str();
    let queries = args.session.parsed_queries()?;
    if args.explain || args.dot {
        for query in &queries {
            let compiled = compile(query, &registry).map_err(|e| e.to_string())?;
            if args.explain {
                eprintln!("{}", explain(&compiled, &registry));
            }
            if args.dot {
                println!("{}", to_dot(&compiled));
            }
        }
        if args.dot && !args.explain {
            return Ok(());
        }
    }

    let stream = read(events)?;

    let builder = args.session.builder(&queries);
    let session = if let Some(snap) = &args.session.restore {
        let file = std::fs::File::open(snap).map_err(|e| format!("{snap}: {e}"))?;
        builder
            .restore(&registry, std::io::BufReader::new(file))
            .map_err(|e| format!("{snap}: {e}"))?
    } else {
        builder.build(&registry).map_err(|e| match e {
            // Attribute per-query failures to their query file.
            SessionError::Query { query, error } => {
                format!("{}: {error}", args.session.queries[query])
            }
            other => other.to_string(),
        })?
    };
    if args.explain && session.queries() > 1 {
        eprintln!("{}", session.fan_out(&registry));
    }
    if let Some(path) = &args.checkpoint {
        return checkpoint_run(session, &args, events, &stream, &registry, path);
    }

    // One pass: CSV rows are decoded and ingested through the Session's
    // shared decode path (`run_csv`), never materializing the event
    // vector. Out-of-order rows fail here unless --slack repairs them.
    let (engine, restored_late) = (session.kind(), session.late_events());
    let run = session
        .run_csv(&stream, &registry)
        .map_err(|e| format!("{events}: {e}"))?;

    report(
        &args,
        &run.per_query,
        engine,
        run.workers,
        run.events,
        restored_late..run.late_events,
        || Ok(String::new()),
    )?;
    if args.memory {
        eprintln!("peak memory: {} bytes", run.peak_bytes);
    }
    Ok(())
}

/// Print every query's results (`qN:`-prefixed when there are several),
/// run `finish` (the `--checkpoint` snapshot), then the summary line with
/// `finish`'s suffix and, under `--slack` or after a late drop, `reorder:`.
/// `events` are the rows this run read; `late` runs from the session's
/// late-drop count before them (a restored session's earlier drops) to
/// its count after.
fn report(
    args: &Args,
    per_query: &[Vec<WindowResult>],
    engine: EngineKind,
    workers: usize,
    events: u64,
    late: std::ops::Range<u64>,
    finish: impl FnOnce() -> Result<String, String>,
) -> Result<(), String> {
    let multi = per_query.len() > 1;
    for (i, results) in per_query.iter().enumerate() {
        for r in results {
            if multi {
                println!("q{i}: {r}");
            } else {
                println!("{r}");
            }
        }
    }
    let suffix = finish()?;
    let total: usize = per_query.iter().map(Vec::len).sum();
    // Count what the engines actually ingested of this run's rows: late
    // drops are reported on their own line, as the session's total.
    let ingested = events - (late.end - late.start);
    let workers = format_workers(args.session.workers, workers);
    eprintln!("{ingested} events → {total} results ({engine}{workers}){suffix}");
    if args.session.slack.is_some() || late.end > 0 {
        eprintln!("reorder: {} late event(s) dropped", late.end);
    }
    Ok(())
}

/// Shard-count suffix of the summary line: report the count actually
/// used, not the one requested — a query without a GROUP-BY prefix
/// clamps to one worker.
fn format_workers(requested: Option<usize>, effective: usize) -> String {
    match (requested, effective) {
        (None | Some(0) | Some(1), 0..=1) => String::new(),
        (None, effective) => format!(", {effective} workers"),
        (Some(requested), effective) if effective == requested => {
            format!(", {effective} workers")
        }
        (Some(requested), effective) => format!(", {effective} of {requested} workers effective"),
    }
}

/// `--checkpoint PATH`: ingest the stream, print what is final at the
/// watermark, then snapshot the session's remaining live state to PATH
/// *instead of* finishing it — the open windows live on in the snapshot
/// and a later `--restore PATH` run picks up exactly where this left
/// off (together they print precisely the uninterrupted run's rows).
fn checkpoint_run(
    mut session: Session,
    args: &Args,
    events: &str,
    stream: &str,
    registry: &TypeRegistry,
    path: &str,
) -> Result<(), String> {
    let restored_late = session.late_events();
    let count = session
        .ingest_csv(stream, registry)
        .map_err(|e| format!("{events}: {e}"))?;
    let mut per_query: Vec<Vec<WindowResult>> = vec![Vec::new(); session.queries()];
    session.drain_into(&mut |query: usize, result: WindowResult| per_query[query].push(result));
    for results in &mut per_query {
        WindowResult::sort(results);
    }
    let (engine, workers) = (session.kind(), session.workers());
    let late = restored_late..session.late_events();
    report(args, &per_query, engine, workers, count, late, || {
        // Atomic write ({path}.tmp + fsync + rename): a crash mid-snapshot
        // leaves any previous snapshot at PATH intact, never a truncated
        // one. Same `{path}: {error}` text the server's SNAPSHOT verb
        // reports.
        cogra_checkpoint::write_atomic(path, |buf| session.checkpoint(buf))
            .map_err(|e| format!("{path}: {e}"))?;
        Ok(format!("; snapshot → {path}"))
    })?;
    if args.memory {
        eprintln!("memory: {} bytes", session.memory_bytes());
    }
    Ok(())
}

/// `serve`: wrap the session in the TCP front-end and serve until a
/// client sends `FINISH`.
fn serve(argv: &[String]) -> Result<(), String> {
    let (session, rest) = parse_session_flags(argv)?;
    let mut listen = "127.0.0.1:7878".to_string();
    let mut read_timeout: Option<Duration> = None;
    let mut snapshot_on_term: Option<String> = None;
    let mut args = Cursor::new(&rest);
    while let Some(arg) = args.flag() {
        match arg.as_str() {
            "--listen" => listen = args.value(&arg)?,
            "--read-timeout" => {
                let secs = args
                    .value(&arg)?
                    .parse::<f64>()
                    .map_err(|_| "--read-timeout needs a number of seconds".to_string())?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--read-timeout needs a positive number of seconds".into());
                }
                read_timeout = Some(Duration::from_secs_f64(secs));
            }
            "--snapshot-on-term" => snapshot_on_term = Some(args.value(&arg)?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let config = ServerConfig {
        read_timeout,
        ..ServerConfig::default()
    };
    let registry = session.registry()?;
    let builder = session.builder(&session.parsed_queries()?);
    let server = match &session.restore {
        Some(snap) => Server::spawn_restored(builder, registry, snap, &*listen, config),
        None => Server::spawn(builder, registry, &*listen, config),
    }
    .map_err(|e| e.to_string())?;
    serve_loop(server, snapshot_on_term)
}

/// SIGTERM → a process-wide flag, installed via the raw `signal(2)` FFI
/// (no signal-handling crate in the workspace). The handler only stores
/// an atomic — async-signal-safe by construction.
#[cfg(unix)]
mod term_signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);
    const SIGTERM: i32 = 15;

    extern "C" fn on_term(_sig: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install() {
        unsafe {
            signal(SIGTERM, on_term as extern "C" fn(i32) as usize);
        }
    }

    pub fn fired() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

/// The common serving tail: announce the port, serve until a client's
/// `FINISH` — or, on Unix, until SIGTERM, which shuts down gracefully:
/// drain results to subscribers, snapshot the live session to the
/// `--snapshot-on-term` path (atomic write; a later `serve --restore`
/// resumes exactly there), exit 0.
fn serve_loop(server: Server, snapshot_on_term: Option<String>) -> Result<(), String> {
    // The port line is the handshake scripts parse — flush past the
    // pipe buffering println! would leave it in.
    println!("listening on {}", server.local_addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    #[cfg(unix)]
    term_signal::install();
    #[cfg(not(unix))]
    let _ = &snapshot_on_term;
    loop {
        if server.wait_finished(Duration::from_secs(1)) {
            server.shutdown();
            eprintln!("session finished; server exiting");
            return Ok(());
        }
        #[cfg(unix)]
        if term_signal::fired() {
            // Drain first so subscribers hold every result the snapshot
            // accounts for, then checkpoint what is still live.
            server.drain().map_err(|e| format!("drain: {e}"))?;
            if let Some(path) = &snapshot_on_term {
                server.snapshot(path.clone()).map_err(|e| e.to_string())?;
                eprintln!("SIGTERM: snapshot → {path}");
            }
            server.shutdown();
            eprintln!("terminated; server exiting");
            return Ok(());
        }
    }
}

/// Dial `addr`, retrying a refused/unreachable connection up to `retry`
/// times with exponential backoff (`backoff_ms`, doubling per attempt) —
/// lets a `connect` launched before its `serve` counterpart finishes
/// binding win the race instead of failing.
fn connect_with_retry(addr: &str, retry: u32, backoff_ms: u64) -> std::io::Result<Client> {
    let mut delay = backoff_ms.max(1);
    let mut attempts_left = retry;
    loop {
        match Client::connect(addr) {
            Ok(client) => return Ok(client),
            Err(e) => {
                if attempts_left == 0 {
                    return Err(e);
                }
                attempts_left -= 1;
                std::thread::sleep(Duration::from_millis(delay));
                delay = delay.saturating_mul(2);
            }
        }
    }
}

/// `connect`: replay a recorded CSV stream into a serving session and
/// print the results it pushes back.
fn connect(argv: &[String]) -> Result<(), String> {
    let mut addr = None;
    let mut events = None;
    let mut chunk = 1_000usize;
    let mut stats = false;
    let mut snapshot: Option<String> = None;
    let mut retry = 0u32;
    let mut backoff_ms = 100u64;
    let mut args = Cursor::new(argv);
    while let Some(arg) = args.flag() {
        match arg.as_str() {
            "--addr" => addr = Some(args.value(&arg)?),
            "--events" => events = Some(args.value(&arg)?),
            "--chunk" => chunk = args.integer::<usize>(&arg)?.max(1),
            "--stats" => stats = true,
            "--snapshot" => snapshot = Some(args.value(&arg)?),
            "--retry" => retry = args.integer(&arg)?,
            "--backoff-ms" => backoff_ms = args.integer(&arg)?,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let addr = addr.ok_or("--addr is required")?;
    let events_path = events.ok_or("--events is required")?;
    let csv = read(&events_path)?;

    let io_err = |e: std::io::Error| format!("{addr}: {e}");
    let srv_err = |e: String| format!("{addr}: server: {e}");
    let mut control = connect_with_retry(&addr, retry, backoff_ms).map_err(io_err)?;
    let pre = control.stats().map_err(io_err)?.map_err(srv_err)?;
    let multi = pre.queries > 1;

    // Subscription on its own connection: the server pushes RESULT lines
    // there while this connection drives ingestion. Retry applies here
    // too — the server proved reachable above, but it may still be
    // fd-starved for a moment under load.
    let subscription = connect_with_retry(&addr, retry, backoff_ms)
        .map_err(io_err)?
        .subscribe(None)
        .map_err(io_err)?
        .map_err(srv_err)?;
    let printer = std::thread::spawn(move || -> Result<u64, String> {
        let mut printed = 0u64;
        for item in subscription {
            let (query, row) = item.map_err(|e| format!("subscription: {e}"))?;
            if multi {
                println!("q{query}: {row}");
            } else {
                println!("{row}");
            }
            printed += 1;
        }
        Ok(printed)
    });

    control
        .replay_csv(&csv, chunk)
        .map_err(io_err)?
        .map_err(|e| format!("{events_path}: {e}"))?;
    if let Some(path) = &snapshot {
        // Checkpoint the still-open session (server-side file) before
        // FINISH discards its live state.
        control.snapshot(path).map_err(io_err)?.map_err(srv_err)?;
        eprintln!("snapshot → {path}");
    }
    let report = control.finish().map_err(io_err)?.map_err(srv_err)?;
    let printed = printer
        .join()
        .map_err(|_| "subscription thread panicked")??;

    let workers = if report.workers > 1 {
        format!(", {} workers", report.workers)
    } else {
        String::new()
    };
    // This feed's rows less its late drops, both deltas over the feed of
    // monotone counters: `events` counts from the server's restore, `late`
    // from the session's start, so neither total belongs to this feed.
    let fed = report.events - pre.events;
    let ingested = fed - (report.late - pre.late);
    eprintln!("{ingested} events → {printed} results (remote{workers})");
    if report.late > 0 {
        eprintln!("reorder: {} late event(s) dropped", report.late);
    }
    if stats {
        eprintln!("stats: {}", report.encode());
    }
    Ok(())
}

const USAGE: &str = "usage: cogra-run --schema schema.csv --events stream.csv --query query.cep \
     [--engine cogra|sase|greta|aseq|flink|oracle] [--workers N] [--slack N] [--key-limit N] \
     [--checkpoint SNAP] [--explain] [--dot] [--memory]\n\
       cogra-run --schema schema.csv --events stream.csv --restore SNAP [--workers N] \
     [--checkpoint SNAP] [--memory]\n\
       cogra-run serve --schema schema.csv --query query.cep [--engine E] \
     [--workers N] [--slack N] [--key-limit N] [--listen ADDR] [--read-timeout SECS] \
     [--snapshot-on-term SNAP]\n\
       cogra-run serve --schema schema.csv --restore SNAP [--workers N] [--listen ADDR] \
     [--read-timeout SECS] [--snapshot-on-term SNAP]\n\
       cogra-run connect --addr HOST:PORT --events stream.csv [--chunk N] [--stats] \
     [--snapshot SNAP] [--retry N] [--backoff-ms M]";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("serve") => serve(&argv[1..]),
        Some("connect") => connect(&argv[1..]),
        _ => run(&argv),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) if msg.is_empty() => {
            eprintln!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
