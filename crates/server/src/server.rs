//! The threaded TCP server.
//!
//! One [`Server`] wraps one [`Session`] — multi-query, `.workers(n)`,
//! `.slack(n)` and `.batch_size(n)` all supported, because the server
//! never touches engine internals: it is a serving loop in front of the
//! exact `Session` the CLI and the harness run in-process.
//!
//! Architecture: an **accept thread** takes connections and hands each to
//! its own **connection thread**; connection threads never touch the
//! session — they parse commands and forward them over one bounded
//! request queue to the **session actor thread**, which owns the
//! `Session`, the type registry, and every subscriber's write half.
//! The bounded queue is the ingest backpressure: when the actor falls
//! behind, connection threads block in `send` (each connection has at
//! most one request in flight — commands are answered before the next is
//! read), so a fast client cannot buffer unbounded event batches inside
//! the server. Result emission is push-based end to end: the actor's
//! drains hand each finalized [`WindowResult`] to a sink that appends its
//! `RESULT` line to every matching subscriber's buffer, and each buffer
//! is written to its socket once when the drain (or `FINISH`) ends —
//! results stream out incrementally as shard windows close, one `write`
//! per subscriber per drain, never buffer-and-reply.
//!
//! An `INGEST` payload is taken off the socket in bulk: the connection
//! thread scans the read buffer for the announced number of newlines and
//! moves whole chunks, under a per-line and a per-block byte cap.
//!
//! Safety guard: the server refuses to bind a non-loopback address
//! unless [`ServerConfig::allow_nonlocal`] is set — there is no TLS and
//! no auth yet (see ROADMAP follow-ons), so remote exposure must be an
//! explicit decision.
//!
//! [`WindowResult`]: cogra_engine::WindowResult

use crate::wire::{self, StatsReport, EOS};
use cogra_core::session::{Session, SessionBuilder, SessionError};
use cogra_core::CheckpointError;
use cogra_core::Metrics;
use cogra_events::TypeRegistry;
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Hard cap on the line count of one `INGEST` block — a malformed count
/// must not make the connection thread buffer unbounded payload.
const MAX_INGEST_LINES: usize = 1_000_000;

/// Hard cap on the byte length of any single protocol line (command or
/// CSV row) — a newline-free flood must not buffer unbounded either.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Hard cap on the byte length of one `INGEST` block — the line-count and
/// line-length caps alone would let a single block buffer a terabyte.
const MAX_INGEST_BYTES: usize = 64 << 20;

/// Read-buffer size of a command connection: a typical `INGEST` block
/// (a few thousand rows) arrives in one or two reads.
const READ_BUFFER_BYTES: usize = 64 << 10;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Capacity of the bounded request queue feeding the session actor —
    /// the ingest backpressure bound (in requests, i.e. INGEST blocks).
    pub queue_depth: usize,
    /// Permit binding non-loopback addresses. Off by default: the
    /// protocol has no TLS/auth, so serving beyond localhost must be
    /// opted into explicitly.
    pub allow_nonlocal: bool,
    /// Drain (and push results to subscribers) after every `INGEST`
    /// block, so results flow without the client asking. `DRAIN` still
    /// works either way.
    pub drain_on_ingest: bool,
    /// Write timeout on subscriber sockets. A subscriber that stops
    /// *reading* would otherwise block the session actor forever once
    /// the kernel socket buffer fills; after this long mid-write it is
    /// treated as dead and dropped instead.
    pub subscriber_write_timeout: Duration,
    /// Read timeout on command connections (`None` = wait forever, the
    /// default). A client that connects and then goes silent holds a
    /// connection thread and a file descriptor; with a timeout set, such
    /// a connection gets one `ERR idle connection timed out` line and is
    /// closed. Subscriber streams are unaffected — they are write-only
    /// after `SUBSCRIBE`.
    pub read_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            queue_depth: 64,
            allow_nonlocal: false,
            drain_on_ingest: true,
            subscriber_write_timeout: Duration::from_secs(10),
            read_timeout: None,
        }
    }
}

/// Errors starting a [`Server`].
#[derive(Debug)]
pub enum ServeError {
    /// Binding the listener failed.
    Bind(io::Error),
    /// The address is not loopback and [`ServerConfig::allow_nonlocal`]
    /// is off.
    NotLoopback(SocketAddr),
    /// The session failed to build (bad query, unsupported engine, ...).
    Session(SessionError),
    /// Restoring the session from a snapshot failed
    /// ([`Server::spawn_restored`]).
    Restore {
        /// Path of the snapshot file.
        path: String,
        /// What went wrong — the message is formatted `{path}: {error}`,
        /// the same text the CLI's `--restore` prints after `error: `.
        error: CheckpointError,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Bind(e) => write!(f, "bind: {e}"),
            ServeError::NotLoopback(addr) => write!(
                f,
                "refusing to serve on non-loopback address {addr} \
                 (no TLS/auth yet; set ServerConfig::allow_nonlocal to override)"
            ),
            ServeError::Session(e) => write!(f, "session: {e}"),
            ServeError::Restore { path, error } => write!(f, "{path}: {error}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Requests forwarded from connection threads to the session actor.
enum Req {
    /// One CSV document (header + rows) to decode and ingest.
    Ingest {
        csv: String,
        reply: Sender<Result<StatsReport, String>>,
    },
    /// Emit everything final at the current watermark.
    Drain { reply: Sender<StatsReport> },
    /// Report counters.
    Stats { reply: Sender<StatsReport> },
    /// End of stream: close every window, end subscriptions.
    Finish {
        reply: Sender<Result<StatsReport, String>>,
    },
    /// Checkpoint the live session to a server-side file (`SNAPSHOT`).
    Snapshot {
        path: String,
        reply: Sender<Result<String, String>>,
    },
    /// Register `stream` as a subscriber. The actor itself writes the
    /// `OK subscribed` line (and every later `RESULT`) so subscription
    /// output is totally ordered.
    Subscribe {
        query: Option<usize>,
        stream: TcpStream,
        reply: Sender<Result<(), String>>,
    },
    /// Stop the actor (server shutdown).
    Shutdown,
}

/// Deferred session construction: `spawn` builds from scratch,
/// `spawn_restored` replays a snapshot file — the actor thread runs
/// whichever it is handed.
type SessionFactory = Box<dyn FnOnce(&TypeRegistry) -> Result<Session, ServeError> + Send>;

/// A running server: accept loop + session actor, live until
/// [`Server::shutdown`].
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    requests: SyncSender<Req>,
    accept: Option<JoinHandle<()>>,
    actor: Option<JoinHandle<()>>,
    finished: Arc<(Mutex<bool>, Condvar)>,
}

impl Server {
    /// Build the session from `builder` and serve it on `addr`
    /// (`"127.0.0.1:0"` picks an ephemeral port — read it back via
    /// [`Server::local_addr`]). Returns once the listener is bound and
    /// the session built; serving happens on background threads.
    pub fn spawn(
        builder: SessionBuilder,
        registry: TypeRegistry,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> Result<Server, ServeError> {
        Self::spawn_with(
            Box::new(move |reg| builder.build(reg).map_err(ServeError::Session)),
            registry,
            addr,
            config,
        )
    }

    /// Like [`Server::spawn`], but the session is restored from the
    /// snapshot file at `snapshot` ([`Session::checkpoint`]) instead of
    /// built from scratch — the durability path: kill a serving process,
    /// restart from its last snapshot, and clients resume against the
    /// identical live state. `builder` may carry only the restore-legal
    /// overrides (`.workers(n)` for elastic rescale, `.batch_size(n)`).
    pub fn spawn_restored(
        builder: SessionBuilder,
        registry: TypeRegistry,
        snapshot: impl Into<String>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> Result<Server, ServeError> {
        let path = snapshot.into();
        Self::spawn_with(
            Box::new(move |reg| {
                std::fs::File::open(&path)
                    .map_err(CheckpointError::Io)
                    .and_then(|file| builder.restore(reg, io::BufReader::new(file)))
                    .map_err(|error| ServeError::Restore { path, error })
            }),
            registry,
            addr,
            config,
        )
    }

    fn spawn_with(
        build: SessionFactory,
        registry: TypeRegistry,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(addr).map_err(ServeError::Bind)?;
        let local = listener.local_addr().map_err(ServeError::Bind)?;
        if !config.allow_nonlocal && !local.ip().is_loopback() {
            return Err(ServeError::NotLoopback(local));
        }

        let (requests, request_rx) = mpsc::sync_channel(config.queue_depth.max(1));
        let finished = Arc::new((Mutex::new(false), Condvar::new()));
        let shutdown = Arc::new(AtomicBool::new(false));

        // The session is built inside the actor thread (it owns it for
        // its whole life); a handshake channel surfaces build errors.
        let (built_tx, built_rx) = mpsc::channel();
        let actor = {
            let config = config.clone();
            std::thread::spawn(move || {
                let session = match build(&registry) {
                    Ok(session) => {
                        let _ = built_tx.send(Ok(()));
                        session
                    }
                    Err(e) => {
                        let _ = built_tx.send(Err(e));
                        return;
                    }
                };
                session_actor(session, registry, request_rx, config);
            })
        };
        if let Err(e) = built_rx.recv().expect("actor handshakes before serving") {
            let _ = actor.join();
            return Err(e);
        }

        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let requests = requests.clone();
            let finished = Arc::clone(&finished);
            let read_timeout = config.read_timeout;
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else {
                        // A persistent accept error (e.g. fd exhaustion
                        // from too many connections) must not busy-spin
                        // the loop; back off and let fds free up.
                        std::thread::sleep(Duration::from_millis(50));
                        continue;
                    };
                    let requests = requests.clone();
                    let finished = Arc::clone(&finished);
                    std::thread::spawn(move || {
                        // Connection errors just end that connection.
                        let _ = serve_connection(stream, requests, finished, read_timeout);
                    });
                }
            })
        };

        Ok(Server {
            addr: local,
            shutdown,
            requests,
            accept: Some(accept),
            actor: Some(actor),
            finished,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until a `FINISH` command has been processed, or `timeout`
    /// elapses. Returns whether the session finished.
    pub fn wait_finished(&self, timeout: Duration) -> bool {
        wait_finished_flag(&self.finished, timeout)
    }

    /// Drain the session in-process — flush and push everything final at
    /// the current watermark to subscribers, exactly as a client `DRAIN`
    /// would. The graceful-shutdown path (`cogra-run serve` on SIGTERM)
    /// drains before snapshotting so subscribers receive every result
    /// the snapshot already accounts for.
    pub fn drain(&self) -> Result<StatsReport, String> {
        let (tx, rx) = mpsc::channel();
        self.requests
            .send(Req::Drain { reply: tx })
            .map_err(|_| "server shutting down".to_string())?;
        rx.recv().map_err(|_| "server shutting down".to_string())
    }

    /// Checkpoint the live session to a server-side file in-process,
    /// exactly as a client `SNAPSHOT` would: the write is atomic
    /// (`{path}.tmp` + fsync + rename) and the error string is the same
    /// `{path}: {error}` text the wire protocol reports.
    pub fn snapshot(&self, path: impl Into<String>) -> Result<(), String> {
        let (tx, rx) = mpsc::channel();
        self.requests
            .send(Req::Snapshot {
                path: path.into(),
                reply: tx,
            })
            .map_err(|_| "server shutting down".to_string())?;
        rx.recv()
            .map_err(|_| "server shutting down".to_string())?
            .map(|_| ())
    }

    /// Stop serving: close the accept loop and the session actor, then
    /// join both. Open connections are abandoned (their next request gets
    /// an error); subscribers were already closed if the session
    /// finished.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let _ = self.requests.send(Req::Shutdown);
        if let Some(h) = self.actor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept.is_some() || self.actor.is_some() {
            self.stop();
        }
    }
}

/// One registered subscriber: the write half of a connection, its query
/// filter (`None` = all queries) and the lines not yet written to it.
struct Subscriber {
    query: Option<usize>,
    stream: TcpStream,
    /// Lines pushed since the last [`Subscriber::flush`].
    pending: Vec<u8>,
    dead: bool,
}

impl Subscriber {
    fn push(&mut self, line: &str) {
        self.pending.extend_from_slice(line.as_bytes());
        self.pending.push(b'\n');
    }

    /// Write the pending lines in one go. A failed or timed-out write
    /// marks the subscriber dead.
    fn flush(&mut self) {
        if !self.pending.is_empty() && self.stream.write_all(&self.pending).is_err() {
            self.dead = true;
        }
        self.pending.clear();
    }
}

/// Every registered subscriber — the result sink wired to sockets.
#[derive(Default)]
struct Subscribers {
    list: Vec<Subscriber>,
    /// Results pushed so far (`results=` in `STATS`).
    results: u64,
    /// The result being encoded; reused.
    line: Vec<u8>,
}

impl Subscribers {
    /// Queue one finalized result for every matching subscriber — the one
    /// sink body behind both `drain_into` and `finish_into`.
    fn push_result(&mut self, query: usize, result: &cogra_engine::WindowResult) {
        self.results += 1;
        self.line.clear();
        wire::push_result_line(&mut self.line, query, result);
        for sub in &mut self.list {
            if sub.query.is_none_or(|q| q == query) {
                sub.pending.extend_from_slice(&self.line);
            }
        }
    }

    /// Emit every result final at the current watermark to the matching
    /// subscribers.
    fn drain(&mut self, session: &mut Session) {
        session.drain_into(&mut |query: usize, result: cogra_engine::WindowResult| {
            self.push_result(query, &result)
        });
        self.flush();
    }

    /// Write out what was queued, one write per subscriber, and forget
    /// the subscribers whose write failed.
    fn flush(&mut self) {
        self.list.iter_mut().for_each(Subscriber::flush);
        self.list.retain(|s| !s.dead);
    }
}

/// The session actor: single-threaded owner of the [`Session`] and every
/// subscriber. Requests are processed strictly in arrival order, so a
/// single-connection client observes the exact semantics of driving a
/// `Session` in-process.
fn session_actor(
    mut session: Session,
    registry: TypeRegistry,
    requests: Receiver<Req>,
    config: ServerConfig,
) {
    let mut subscribers = Subscribers::default();
    let mut finished = false;

    let stats = |session: &Session, results: u64, finished: bool| {
        // One read of the shard counters, so the totals and the per-shard
        // event counts describe the same instant.
        let shards = session.shard_metrics();
        let total = Metrics::total(&shards);
        StatsReport {
            ingested: 0,
            // The session's own count: rows ingested before a bad row of
            // a failed `INGEST` are in the stream, and in here.
            events: session.csv_rows(),
            late: session.late_events(),
            results,
            watermark: session.watermark().ticks(),
            queries: session.queries(),
            workers: session.workers(),
            memory: total.memory,
            key_probes: total.stats.key_probes,
            key_allocs: total.stats.key_allocs,
            shard_events: shards.iter().map(|m| m.events).collect(),
            degraded: session.degraded_shards(),
            dropped: session.dropped_events(),
            physical: session.physical_runs(),
            finished,
        }
    };

    for req in requests {
        match req {
            Req::Ingest { csv, reply } => {
                let outcome = if finished {
                    Err("session finished".to_string())
                } else {
                    // THE shared decode path: the same
                    // `Session::ingest_csv` the CLI's `run_csv` rides, so
                    // both surfaces report the same `IngestError`. Not
                    // transactional: rows before a bad row are already
                    // part of the stream.
                    match session.ingest_csv(&csv, &registry) {
                        Ok(count) => {
                            if config.drain_on_ingest {
                                subscribers.drain(&mut session);
                            }
                            let mut report = stats(&session, subscribers.results, finished);
                            report.ingested = count;
                            Ok(report)
                        }
                        Err(e) => Err(e.to_string()),
                    }
                };
                let _ = reply.send(outcome);
            }
            Req::Drain { reply } => {
                if !finished {
                    subscribers.drain(&mut session);
                }
                let _ = reply.send(stats(&session, subscribers.results, finished));
            }
            Req::Stats { reply } => {
                let _ = reply.send(stats(&session, subscribers.results, finished));
            }
            Req::Finish { reply } => {
                let outcome = if finished {
                    Err("session finished".to_string())
                } else {
                    session.finish_into(&mut |query: usize, result: cogra_engine::WindowResult| {
                        subscribers.push_result(query, &result)
                    });
                    finished = true;
                    for sub in &mut subscribers.list {
                        sub.push(EOS);
                    }
                    subscribers.flush();
                    subscribers.list.clear();
                    // The finished condvar is NOT signalled here: the
                    // connection thread signals it only after the OK
                    // reply reached the socket, so a `wait_finished` →
                    // shutdown caller (the CLI's serve mode, which
                    // exits) cannot kill the reply mid-write.
                    Ok(stats(&session, subscribers.results, finished))
                };
                let _ = reply.send(outcome);
            }
            Req::Snapshot { path, reply } => {
                // Atomic write ({path}.tmp + fsync + rename): a crash
                // mid-snapshot leaves the previous file intact, never a
                // readable-but-truncated one. Error text stays
                // `{path}: {CheckpointError}` — identical to what the
                // CLI's `--restore`/`--checkpoint` prints after
                // `error: `, so both surfaces pin the same messages.
                let outcome = cogra_checkpoint::write_atomic(&path, |buf| session.checkpoint(buf))
                    .map(|()| path.clone())
                    .map_err(|e| format!("{path}: {e}"));
                let _ = reply.send(outcome);
            }
            Req::Subscribe {
                query,
                stream,
                reply,
            } => {
                let outcome = match query {
                    Some(q) if q >= session.queries() => Err(format!(
                        "unknown query q{q} (session has {} queries)",
                        session.queries()
                    )),
                    _ => Ok(()),
                };
                if outcome.is_ok() {
                    // A subscriber that stops reading must not wedge this
                    // actor once the socket buffer fills: bound every
                    // write, treat a timeout as a dead peer.
                    let _ = stream.set_write_timeout(Some(config.subscriber_write_timeout));
                    let mut sub = Subscriber {
                        query,
                        stream,
                        pending: Vec::new(),
                        dead: false,
                    };
                    let tag = match query {
                        Some(q) => format!("q{q}"),
                        None => "*".to_string(),
                    };
                    sub.push(&format!("{} subscribed {tag}", wire::OK));
                    if finished {
                        // Late subscription: nothing will ever be pushed
                        // (results are push-only, not replayed) — say so
                        // immediately.
                        sub.push(EOS);
                    }
                    sub.flush();
                    if !finished {
                        subscribers.list.push(sub);
                    }
                }
                let _ = reply.send(outcome);
            }
            Req::Shutdown => break,
        }
    }
}

/// Why [`read_lines`] stopped short of the lines asked for.
enum ReadStop {
    /// The peer closed the connection first.
    Eof,
    /// A line reached [`MAX_LINE_BYTES`] without a newline.
    LineTooLong,
    /// The lines together reached [`MAX_INGEST_BYTES`].
    BlockTooLarge,
    Io(io::Error),
}

/// Append the next `lines` `\n`-terminated lines to `out` — one command,
/// or a whole `INGEST` payload — by scanning the reader's buffer in place
/// and moving each chunk across whole. A final line cut short by EOF
/// counts as a line. Neither a newline-free flood nor a long block is
/// buffered past its cap.
fn read_lines(
    reader: &mut BufReader<TcpStream>,
    lines: usize,
    out: &mut Vec<u8>,
) -> Result<(), ReadStop> {
    let mut remaining = lines;
    let mut line_len = 0; // of the line in progress, across chunks
    let mut budget = MAX_INGEST_BYTES;
    while remaining > 0 {
        if budget == 0 {
            return Err(ReadStop::BlockTooLarge);
        }
        let chunk = match reader.fill_buf() {
            Ok(chunk) => &chunk[..chunk.len().min(budget)],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ReadStop::Io(e)),
        };
        if chunk.is_empty() {
            return if remaining == 1 && line_len > 0 {
                Ok(())
            } else {
                Err(ReadStop::Eof)
            };
        }
        let mut taken = 0;
        while remaining > 0 && taken < chunk.len() {
            let newline = chunk[taken..].iter().position(|&b| b == b'\n');
            let step = newline.map_or(chunk.len() - taken, |at| at + 1);
            taken += step;
            line_len += step;
            if line_len > MAX_LINE_BYTES || (line_len == MAX_LINE_BYTES && newline.is_none()) {
                return Err(ReadStop::LineTooLong);
            }
            if newline.is_some() {
                remaining -= 1;
                line_len = 0;
            }
        }
        out.extend_from_slice(&chunk[..taken]);
        reader.consume(taken);
        budget -= taken;
    }
    Ok(())
}

/// Read commands off one connection and forward them to the actor. Every
/// command is answered before the next is read, so the connection has at
/// most one request in flight (see the module docs on backpressure).
/// `finished` is the server-wide condvar behind [`Server::wait_finished`]
/// — signalled here, after a successful `FINISH` reply hit the socket,
/// never by the actor (a waiter that shuts the process down on it must
/// not be able to kill the reply mid-write).
fn serve_connection(
    stream: TcpStream,
    requests: SyncSender<Req>,
    finished: Arc<(Mutex<bool>, Condvar)>,
    read_timeout: Option<Duration>,
) -> io::Result<()> {
    // A silent client must not hold this thread (and its fd) forever:
    // with a timeout configured, a read that sits idle past it gets one
    // ERR line and the connection closes. Subscriber streams are exempt —
    // the actor owns their write half and this thread exits on SUBSCRIBE.
    stream.set_read_timeout(read_timeout)?;
    let mut reader = BufReader::with_capacity(READ_BUFFER_BYTES, stream.try_clone()?);
    let mut writer = stream;
    let mut line_buf: Vec<u8> = Vec::new();
    loop {
        line_buf.clear();
        match read_lines(&mut reader, 1, &mut line_buf) {
            Ok(()) => {}
            Err(ReadStop::Eof) => return Ok(()), // client hung up
            Err(stop) => return refuse(&mut writer, stop),
        }
        let line = match std::str::from_utf8(&line_buf) {
            Ok(s) => s.trim(),
            Err(_) => {
                reply_err(&mut writer, "command line is not valid UTF-8")?;
                continue;
            }
        };
        if line.is_empty() {
            continue;
        }
        let (verb, arg) = match line.split_once(' ') {
            Some((v, a)) => (v, a.trim()),
            None => (line, ""),
        };
        match verb {
            "INGEST" => {
                let Ok(n) = arg.parse::<usize>() else {
                    reply_err(&mut writer, "INGEST needs a line count")?;
                    continue;
                };
                if n > MAX_INGEST_LINES {
                    reply_err(
                        &mut writer,
                        &format!("INGEST block too large (max {MAX_INGEST_LINES} lines)"),
                    )?;
                    continue;
                }
                let mut payload: Vec<u8> = Vec::new();
                if let Err(stop) = read_lines(&mut reader, n, &mut payload) {
                    return refuse(&mut writer, stop);
                }
                match String::from_utf8(payload) {
                    Err(_) => reply_err(&mut writer, "ingest payload is not valid UTF-8")?,
                    Ok(csv) => {
                        let (tx, rx) = mpsc::channel();
                        if requests.send(Req::Ingest { csv, reply: tx }).is_err() {
                            reply_err(&mut writer, "server shutting down")?;
                            return Ok(());
                        }
                        match rx.recv() {
                            Ok(Ok(report)) => reply_ok(&mut writer, &report.encode())?,
                            Ok(Err(msg)) => reply_err(&mut writer, &msg)?,
                            Err(_) => {
                                reply_err(&mut writer, "server shutting down")?;
                                return Ok(());
                            }
                        }
                    }
                }
            }
            "DRAIN" | "STATS" => {
                let (tx, rx) = mpsc::channel();
                let req = if verb == "DRAIN" {
                    Req::Drain { reply: tx }
                } else {
                    Req::Stats { reply: tx }
                };
                if requests.send(req).is_err() {
                    reply_err(&mut writer, "server shutting down")?;
                    return Ok(());
                }
                match rx.recv() {
                    Ok(report) => reply_ok(&mut writer, &report.encode())?,
                    Err(_) => {
                        reply_err(&mut writer, "server shutting down")?;
                        return Ok(());
                    }
                }
            }
            "FINISH" => {
                let (tx, rx) = mpsc::channel();
                if requests.send(Req::Finish { reply: tx }).is_err() {
                    reply_err(&mut writer, "server shutting down")?;
                    return Ok(());
                }
                match rx.recv() {
                    Ok(Ok(report)) => {
                        reply_ok(&mut writer, &report.encode())?;
                        // Reply delivered — only now may wait_finished
                        // waiters proceed (and possibly exit the process).
                        set_finished_flag(&finished);
                    }
                    Ok(Err(msg)) => reply_err(&mut writer, &msg)?,
                    Err(_) => {
                        reply_err(&mut writer, "server shutting down")?;
                        return Ok(());
                    }
                }
            }
            "SUBSCRIBE" => {
                let query = match wire::parse_subscription(arg) {
                    Ok(q) => q,
                    Err(msg) => {
                        reply_err(&mut writer, &msg)?;
                        continue;
                    }
                };
                let (tx, rx) = mpsc::channel();
                let clone = writer.try_clone()?;
                if requests
                    .send(Req::Subscribe {
                        query,
                        stream: clone,
                        reply: tx,
                    })
                    .is_err()
                {
                    reply_err(&mut writer, "server shutting down")?;
                    return Ok(());
                }
                match rx.recv() {
                    // The actor wrote `OK subscribed` itself and now owns
                    // the write half; this thread's job is done (its fds
                    // close, the actor's clone keeps the socket open).
                    Ok(Ok(())) => return Ok(()),
                    Ok(Err(msg)) => reply_err(&mut writer, &msg)?,
                    Err(_) => {
                        reply_err(&mut writer, "server shutting down")?;
                        return Ok(());
                    }
                }
            }
            "SNAPSHOT" => {
                if arg.is_empty() {
                    reply_err(&mut writer, "SNAPSHOT needs a file path")?;
                    continue;
                }
                let (tx, rx) = mpsc::channel();
                if requests
                    .send(Req::Snapshot {
                        path: arg.to_string(),
                        reply: tx,
                    })
                    .is_err()
                {
                    reply_err(&mut writer, "server shutting down")?;
                    return Ok(());
                }
                match rx.recv() {
                    Ok(Ok(path)) => reply_ok(&mut writer, &format!("snapshot {path}"))?,
                    Ok(Err(msg)) => reply_err(&mut writer, &msg)?,
                    Err(_) => {
                        reply_err(&mut writer, "server shutting down")?;
                        return Ok(());
                    }
                }
            }
            "QUIT" => {
                reply_ok(&mut writer, "bye")?;
                return Ok(());
            }
            _ => reply_err(&mut writer, &format!("unknown command `{verb}`"))?,
        }
    }
}

/// Answer a read that stopped short with its one `ERR` line; the caller
/// closes the connection. Transport errors other than the idle timeout
/// just end it. (EOF *between* commands is a hang-up, not an error: the
/// caller never passes it here.)
fn refuse(writer: &mut TcpStream, stop: ReadStop) -> io::Result<()> {
    match stop {
        ReadStop::Eof => reply_err(writer, "unexpected EOF inside INGEST payload"),
        ReadStop::LineTooLong => reply_err(writer, "protocol line exceeds the line-length limit"),
        ReadStop::BlockTooLarge => reply_err(
            writer,
            &format!("INGEST block too large (max {MAX_INGEST_BYTES} bytes)"),
        ),
        ReadStop::Io(e) if idle_timeout(&e) => reply_err(writer, "idle connection timed out"),
        ReadStop::Io(e) => Err(e),
    }
}

/// Whether a read error is the configured idle timeout firing — the
/// kernel reports `SO_RCVTIMEO` expiry as `WouldBlock` on Unix and
/// `TimedOut` on Windows.
fn idle_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn reply_ok(writer: &mut TcpStream, payload: &str) -> io::Result<()> {
    writer.write_all(format!("{} {payload}\n", wire::OK).as_bytes())
}

fn reply_err(writer: &mut TcpStream, message: &str) -> io::Result<()> {
    writer.write_all(format!("{} {message}\n", wire::ERR).as_bytes())
}

/// Set the finished flag and wake every waiter. The flag is a plain
/// bool, so a connection thread that panicked while holding the lock
/// cannot have left it half-written — recover a poisoned guard instead
/// of propagating the panic into [`Server::wait_finished`] callers and
/// taking the whole server down with one misbehaving connection.
fn set_finished_flag(finished: &(Mutex<bool>, Condvar)) {
    let (lock, cvar) = finished;
    *lock.lock().unwrap_or_else(|p| p.into_inner()) = true;
    cvar.notify_all();
}

/// Block until the finished flag is set or `timeout` elapses; returns
/// the flag. Poison-tolerant for the same reason as
/// [`set_finished_flag`].
fn wait_finished_flag(finished: &(Mutex<bool>, Condvar), timeout: Duration) -> bool {
    let (lock, cvar) = finished;
    let guard = lock.lock().unwrap_or_else(|p| p.into_inner());
    let (guard, _) = cvar
        .wait_timeout_while(guard, timeout, |done| !*done)
        .unwrap_or_else(|p| p.into_inner());
    *guard
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finished_flag_survives_a_poisoned_lock() {
        // A thread that panics while holding the lock poisons it; the
        // flag helpers must recover (the bool carries no invariant a
        // panicked holder could break) instead of panicking every later
        // wait_finished() call.
        let finished = Arc::new((Mutex::new(false), Condvar::new()));
        let poisoner = Arc::clone(&finished);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.0.lock().unwrap();
            panic!("poison the finished flag lock");
        })
        .join();
        assert!(finished.0.lock().is_err(), "the lock is actually poisoned");

        assert!(
            !wait_finished_flag(&finished, Duration::from_millis(10)),
            "an unfinished poisoned flag still reports unfinished"
        );
        set_finished_flag(&finished);
        assert!(
            wait_finished_flag(&finished, Duration::from_millis(10)),
            "the flag set through a poisoned lock is observable"
        );
    }
}
