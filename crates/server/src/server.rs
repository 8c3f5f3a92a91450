//! The threaded TCP server.
//!
//! One [`Server`] wraps one [`Session`] — multi-query, `.workers(n)`,
//! `.slack(n)` and `.batch_size(n)` all supported, because the server
//! never touches engine internals: it is a serving loop in front of the
//! exact `Session` the CLI and the harness run in-process.
//!
//! Architecture: an **accept thread** takes connections and hands each to
//! its own **connection thread**; the **session actor thread** owns the
//! `Session` and every subscriber's write half, and takes requests off one
//! bounded queue in arrival order. Connection threads never touch the
//! session, but they do the work that needs no session: they parse
//! commands, take an `INGEST` payload off the socket in bulk (scanning the
//! read buffer for the announced number of newlines, under a per-line and
//! a per-block byte cap), check it is UTF-8 and **decode it** — the same
//! `EventReader` the CLI runs — into chunks of [`INGEST_CHUNK_ROWS`] rows,
//! each sent to the actor as soon as it is full. The actor hands every row
//! of a chunk to [`Session::ingest_checked`], the per-row step of
//! `Session::ingest_csv`, so the row a block is refused at and the `ERR`
//! text are the CLI's; while it aggregates chunk *k* the connection decodes
//! chunk *k + 1*. The last chunk of a block carries the reply handle (a
//! block of at most one chunk is one message), and the actor then drains
//! and answers. Rows are decoded into the connection's stage, a [`Rows`]
//! arena that never leaves its thread, and a full stage is moved (one
//! `Vec::append` a vector) into a chunk recycled, not allocated, by a
//! [`Recycler`] — the hand-off of `cogra_core::parallel::handoff`, which
//! the shard transport's batches travel by too — so the decode never
//! stores into lines the actor's core has just read, and a row's memory
//! is written and freed on one thread.
//!
//! The bounded queue is the ingest backpressure, and it counts *requests*:
//! a chunk or a control verb each take one slot, so at most
//! `queue_depth × INGEST_CHUNK_ROWS` decoded rows wait inside the server
//! however fast its clients are. When the actor falls behind, connection
//! threads block in `send`; each connection has one command in flight
//! (it is answered before the next is read). Both blocking receives —
//! the actor's next request, a connection's reply — poll for a few tens of
//! microseconds before they park ([`recv_polling`], the shard
//! transport's): in the middle of a block the next chunk is one chunk's
//! decode away and the reply one chunk's aggregation and a drain, and a
//! futex sleep plus the sender's wake-up call cost more than either wait.
//!
//! Blocks of different connections do not interleave: a connection holds
//! the server's **ingest turn** (a mutex) from a block's first chunk to
//! its reply, so racing feeds are ingested block after block in the order
//! they took the turn — exactly the outcomes a single `Session` fed whole
//! documents can produce. Control verbs do not take the turn: a `DRAIN`,
//! `SNAPSHOT` or `FINISH` from another connection may land between two
//! chunks of a block, and sees the session as of that chunk boundary (after
//! a `FINISH` the rest of the block is refused with `session finished`).
//! A block whose connection dies half-way leaves the chunks it shipped
//! ingested and counted (`STATS events`), like the rows before a bad row.
//!
//! Result emission is push-based end to end: the actor's
//! drains hand each finalized [`WindowResult`] to a sink that appends its
//! `RESULT` line to every matching subscriber's buffer, and each buffer
//! is written to its socket once when the drain (or `FINISH`) ends —
//! results stream out incrementally as shard windows close, one `write`
//! per subscriber per drain, never buffer-and-reply.
//!
//! Safety guard: the server refuses to bind a non-loopback address
//! unless [`ServerConfig::allow_nonlocal`] is set — there is no TLS and
//! no auth yet (see ROADMAP follow-ons), so remote exposure must be an
//! explicit decision.
//!
//! [`WindowResult`]: cogra_engine::WindowResult

use crate::wire::{self, EOS};
use cogra_core::parallel::handoff::{recv_polling, Recycler, Rows};
use cogra_core::session::{IngestError, Session, SessionBuilder, SessionError};
use cogra_core::{CheckpointError, Metrics};
use cogra_events::{Event, EventReader, TypeId, TypeRegistry};
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

/// Rows per chunk of a decoded `INGEST` block — the unit the connection
/// thread hands to the session actor, and so how far decode runs ahead of
/// aggregation. Small enough that the actor starts on a block while most
/// of it is still text (a 256-row block is two chunks, so its second half
/// decodes while the actor wakes up), large enough that a hand-off (a
/// move of the stage, ~1 µs polled) is noise beside the ~8 µs a chunk
/// takes to decode (rideshare rows, ~60 ns each on a 2-vCPU x86-64 host).
/// A constant, not a knob: measured alike at 128 and 256 on throughput,
/// and the right value follows the cost of a row, which no caller knows
/// better.
pub const INGEST_CHUNK_ROWS: usize = 128;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Capacity of the bounded request queue feeding the session actor —
    /// the ingest backpressure bound, in requests: a chunk of
    /// [`INGEST_CHUNK_ROWS`] decoded rows or a control verb each take one.
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

/// What the actor answers a request with: the session's counters after
/// it ([`Session::metrics`]), or the text of the `ERR` line.
type Reply = Result<Metrics, String>;

/// The way back to whoever sent a request. A request is answered exactly
/// once: by [`ReplyHandle::send`], or — when it is dropped unanswered,
/// with the actor's queue at shutdown — by `server shutting down`. A
/// connection can therefore keep one reply channel for its whole life and
/// wait on it without a timeout.
struct ReplyHandle(Option<Sender<Reply>>);

impl ReplyHandle {
    fn new(tx: &Sender<Reply>) -> ReplyHandle {
        ReplyHandle(Some(tx.clone()))
    }

    fn send(mut self, reply: Reply) {
        if let Some(tx) = self.0.take() {
            let _ = tx.send(reply);
        }
    }
}

impl Drop for ReplyHandle {
    fn drop(&mut self) {
        if let Some(tx) = self.0.take() {
            let _ = tx.send(Err(SHUTTING_DOWN.to_string()));
        }
    }
}

const SHUTTING_DOWN: &str = "server shutting down";

/// How an `INGEST` block ended on its connection thread.
struct BlockEnd {
    /// The row the decode stopped at, as the `ERR` text it earns — after
    /// the rows before it, which travel in the same chunk.
    stop: Option<String>,
    reply: ReplyHandle,
}

/// Requests forwarded from connection threads to the session actor.
enum Req {
    /// The next rows of the `INGEST` block whose connection holds the
    /// ingest turn.
    Chunk {
        rows: Arc<Rows>,
        /// The block starts here: whatever an abandoned block left behind
        /// is forgotten.
        first: bool,
        /// The block ends here, and is answered.
        end: Option<BlockEnd>,
    },
    /// Emit everything final at the current watermark.
    Drain { reply: ReplyHandle },
    /// Report counters.
    Stats { reply: ReplyHandle },
    /// End of stream: close every window, end subscriptions.
    Finish { reply: ReplyHandle },
    /// Checkpoint the live session to a server-side file (`SNAPSHOT`).
    Snapshot { path: String, reply: ReplyHandle },
    /// Register `stream` as a subscriber. The actor itself writes the
    /// `OK subscribed` line (and every later `RESULT`) so subscription
    /// output is totally ordered.
    Subscribe {
        query: Option<usize>,
        stream: TcpStream,
        reply: ReplyHandle,
    },
    /// Stop the actor (server shutdown).
    Shutdown,
}

/// Deferred session construction: `spawn` builds from scratch,
/// `spawn_restored` replays a snapshot file — the actor thread runs
/// whichever it is handed.
type SessionFactory = Box<dyn FnOnce(&TypeRegistry) -> Result<Session, ServeError> + Send>;

/// What the connection threads share with each other and the [`Server`].
struct Shared {
    /// The bounded queue into the session actor.
    requests: SyncSender<Req>,
    /// Connection threads decode against it; the actor built the session
    /// from it.
    registry: TypeRegistry,
    /// The ingest turn: held by a connection from the first chunk of an
    /// `INGEST` block to its reply, so blocks reach the actor whole and
    /// one after the other. It guards no data — a holder that panicked
    /// left nothing half-written, and the next one recovers the guard.
    turn: Mutex<()>,
    /// Behind [`Server::wait_finished`].
    finished: (Mutex<bool>, Condvar),
    read_timeout: Option<Duration>,
}

impl Shared {
    /// Send `req`, whose answer comes back on `replies`, and wait for it.
    fn ask(&self, req: Req, replies: &Receiver<Reply>) -> Reply {
        // Every request is answered (see `ReplyHandle`) — one the queue
        // refuses too, dropped right here.
        let _ = self.requests.send(req);
        recv_polling(replies).unwrap_or_else(|_| Err(SHUTTING_DOWN.to_string()))
    }
}

/// A running server: accept loop + session actor, live until
/// [`Server::shutdown`].
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    actor: Option<JoinHandle<()>>,
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
        let shared = Arc::new(Shared {
            requests,
            registry,
            turn: Mutex::new(()),
            finished: (Mutex::new(false), Condvar::new()),
            read_timeout: config.read_timeout,
        });
        let shutdown = Arc::new(AtomicBool::new(false));

        // The session is built inside the actor thread (it owns it for
        // its whole life); a handshake channel surfaces build errors.
        let (built_tx, built_rx) = mpsc::channel();
        let actor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let session = match build(&shared.registry) {
                    Ok(session) => {
                        let _ = built_tx.send(Ok(()));
                        session
                    }
                    Err(e) => {
                        let _ = built_tx.send(Err(e));
                        return;
                    }
                };
                // The actor must not keep its own queue's sender alive.
                drop(shared);
                session_actor(session, request_rx, config);
            })
        };
        if let Err(e) = built_rx.recv().expect("actor handshakes before serving") {
            let _ = actor.join();
            return Err(e);
        }

        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let shared = Arc::clone(&shared);
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
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || {
                        // Connection errors just end that connection.
                        let _ = serve_connection(stream, &shared);
                    });
                }
            })
        };

        Ok(Server {
            addr: local,
            shutdown,
            shared,
            accept: Some(accept),
            actor: Some(actor),
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until a `FINISH` command has been processed, or `timeout`
    /// elapses. Returns whether the session finished.
    pub fn wait_finished(&self, timeout: Duration) -> bool {
        wait_finished_flag(&self.shared.finished, timeout)
    }

    /// Drain the session in-process — flush and push everything final at
    /// the current watermark to subscribers, exactly as a client `DRAIN`
    /// would. The graceful-shutdown path (`cogra-run serve` on SIGTERM)
    /// drains before snapshotting so subscribers receive every result
    /// the snapshot already accounts for.
    pub fn drain(&self) -> Result<Metrics, String> {
        let (tx, rx) = mpsc::channel();
        let reply = ReplyHandle::new(&tx);
        self.shared.ask(Req::Drain { reply }, &rx)
    }

    /// Checkpoint the live session to a server-side file in-process,
    /// exactly as a client `SNAPSHOT` would: the write is atomic
    /// (`{path}.tmp` + fsync + rename) and the error string is the same
    /// `{path}: {error}` text the wire protocol reports.
    pub fn snapshot(&self, path: impl Into<String>) -> Result<(), String> {
        let (tx, rx) = mpsc::channel();
        let (path, reply) = (path.into(), ReplyHandle::new(&tx));
        self.shared
            .ask(Req::Snapshot { path, reply }, &rx)
            .map(drop)
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
        let _ = self.shared.requests.send(Req::Shutdown);
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
    /// The result being encoded; reused.
    line: Vec<u8>,
}

impl Subscribers {
    /// Queue one finalized result for every matching subscriber — the one
    /// sink body behind both `drain_into` and `finish_into`.
    fn push_result(&mut self, query: usize, result: &cogra_engine::WindowResult) {
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
/// subscriber. Requests are processed strictly in arrival order, and the
/// chunks of an `INGEST` block arrive whole and in row order (the ingest
/// turn), so a single-connection client observes the exact semantics of
/// driving a `Session` in-process — and every reply is what
/// [`Session::metrics`] says after the request, with `ingested` set on an
/// `INGEST` block's.
fn session_actor(mut session: Session, requests: Receiver<Req>, config: ServerConfig) {
    let mut subscribers = Subscribers::default();
    let mut finished = false;
    // The `INGEST` block in progress: the session's event count at its
    // first chunk, and what it failed with — the rest of a failed block is
    // discarded, as `Session::ingest_csv` stops at its first bad row. Rows
    // ingested before a bad row are in the stream, and in that count.
    let mut block_start = 0;
    let mut block_error: Option<String> = None;
    // The event every row of every chunk is copied into.
    let mut event = Event::new(0, 0, TypeId(0), Vec::new());

    // Polled before parked: mid-block the next chunk is microseconds away.
    while let Ok(req) = recv_polling(&requests) {
        match req {
            Req::Chunk { rows, first, end } => {
                if first {
                    (block_start, block_error) = (session.metrics().events, None);
                }
                if block_error.is_none() {
                    block_error = if finished {
                        Some("session finished".to_string())
                    } else if let Some(fault) =
                        cogra_faults::message(format_args!("server/actor/chunk"))
                    {
                        Some(fault)
                    } else {
                        // THE checked step `Session::ingest_csv` runs per
                        // row, so both surfaces report the same
                        // `IngestError`. Not transactional: rows before a
                        // bad row are already part of the stream.
                        rows.iter()
                            .try_for_each(|row| {
                                (event.id, event.time, event.type_id) =
                                    (row.id, row.time, row.type_id);
                                event.attrs.clear();
                                event.attrs.extend_from_slice(row.values);
                                session.ingest_checked(&event)
                            })
                            .err()
                            .map(|e| e.to_string())
                    };
                }
                // Hand the chunk back before anything slow — the connection
                // fills it again once this handle is gone — and with it
                // the last row's values, which are the connection's to free.
                event.attrs.clear();
                drop(rows);
                let Some(BlockEnd { stop, reply }) = end else {
                    continue;
                };
                reply.send(match block_error.take().or(stop) {
                    Some(message) => Err(message),
                    None => {
                        if config.drain_on_ingest {
                            subscribers.drain(&mut session);
                        }
                        // Under `.workers(n)` the per-row check reads the
                        // lanes' mirrors, which the drain refreshes: an
                        // overflow a shard met in this block shows now.
                        match session.key_overflow() {
                            Some(limit) => Err(IngestError::KeyOverflow { limit }.to_string()),
                            None => {
                                let mut metrics = session.metrics();
                                metrics.ingested = metrics.events - block_start;
                                Ok(metrics)
                            }
                        }
                    }
                });
            }
            Req::Drain { reply } => {
                if !finished {
                    subscribers.drain(&mut session);
                }
                reply.send(Ok(session.metrics()));
            }
            Req::Stats { reply } => reply.send(Ok(session.metrics())),
            Req::Finish { reply } => {
                if finished {
                    reply.send(Err("session finished".to_string()));
                    continue;
                }
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
                reply.send(Ok(session.metrics()));
            }
            Req::Snapshot { path, reply } => {
                // Atomic write ({path}.tmp + fsync + rename): a crash
                // mid-snapshot leaves the previous file intact, never a
                // readable-but-truncated one. Error text stays
                // `{path}: {CheckpointError}` — identical to what the
                // CLI's `--restore`/`--checkpoint` prints after
                // `error: `, so both surfaces pin the same messages.
                reply.send(
                    cogra_checkpoint::write_atomic(&path, |buf| session.checkpoint(buf))
                        .map(|()| session.metrics())
                        .map_err(|e| format!("{path}: {e}")),
                );
            }
            Req::Subscribe {
                query,
                stream,
                reply,
            } => {
                if let Some(q) = query.filter(|&q| q >= session.queries()) {
                    reply.send(Err(format!(
                        "unknown query q{q} (session has {} queries)",
                        session.queries()
                    )));
                    continue;
                }
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
                reply.send(Ok(session.metrics()));
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
            let newline = find_newline(&chunk[taken..]);
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

/// The index of the first `\n` in `bytes`, searched eight bytes at a time:
/// a `\n` is a zero byte of the word XOR `0x0a…0a`, and the zero-byte
/// test `(v - 0x01…01) & !v & 0x80…80` flags the lowest zero byte exactly
/// (its borrow can only flag bytes *above* a zero byte), so reading the
/// word little-endian, the first flagged byte is the first newline.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_le_bytes([b'\n'; 8]);
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let v = u64::from_le_bytes(word.try_into().expect("eight bytes")) ^ NEWLINES;
        let newlines = v.wrapping_sub(ONES) & !v & HIGHS;
        if newlines != 0 {
            return Some(at + newlines.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    let tail = words.remainder().iter().position(|&b| b == b'\n');
    tail.map(|i| at + i)
}

/// Read commands off one connection and forward them to the actor. Every
/// command is answered before the next is read, so the connection has at
/// most one command in flight (see the module docs on backpressure), and
/// one payload buffer, one reply channel, one stage, one recycler of
/// chunks and one decoded row serve it for its whole life. The
/// [`Shared::finished`] condvar is signalled here, after a successful
/// `FINISH` reply hit the socket, never by the actor (a waiter that shuts
/// the process down on it must not be able to kill the reply mid-write).
fn serve_connection(stream: TcpStream, shared: &Shared) -> io::Result<()> {
    // A silent client must not hold this thread (and its fd) forever:
    // with a timeout configured, a read that sits idle past it gets one
    // ERR line and the connection closes. Subscriber streams are exempt —
    // the actor owns their write half and this thread exits on SUBSCRIBE.
    stream.set_read_timeout(shared.read_timeout)?;
    let mut reader = BufReader::with_capacity(READ_BUFFER_BYTES, stream.try_clone()?);
    let mut writer = stream;
    let mut line_buf: Vec<u8> = Vec::new();
    let mut payload: Vec<u8> = Vec::new();
    let (mut chunks, mut stage) = (Recycler::default(), Rows::default());
    let mut decoded = Event::new(0, 0, TypeId(0), Vec::new());
    let (reply_tx, replies) = mpsc::channel();
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
        let reply = || ReplyHandle::new(&reply_tx);
        let answer = match verb {
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
                payload.clear();
                if let Err(stop) = read_lines(&mut reader, n, &mut payload) {
                    return refuse(&mut writer, stop);
                }
                let Ok(csv) = std::str::from_utf8(&payload) else {
                    reply_err(&mut writer, "ingest payload is not valid UTF-8")?;
                    continue;
                };
                let (stage, decoded) = (&mut stage, &mut decoded);
                ingest_block(csv, shared, &mut chunks, stage, decoded, reply(), &replies)?
            }
            "DRAIN" => shared.ask(Req::Drain { reply: reply() }, &replies),
            "STATS" => shared.ask(Req::Stats { reply: reply() }, &replies),
            "FINISH" => shared.ask(Req::Finish { reply: reply() }, &replies),
            "SUBSCRIBE" => {
                let query = match wire::parse_subscription(arg) {
                    Ok(q) => q,
                    Err(msg) => {
                        reply_err(&mut writer, &msg)?;
                        continue;
                    }
                };
                let stream = writer.try_clone()?;
                let subscribe = Req::Subscribe {
                    query,
                    stream,
                    reply: reply(),
                };
                match shared.ask(subscribe, &replies) {
                    // The actor wrote `OK subscribed` itself and now owns
                    // the write half; this thread's job is done (its fds
                    // close, the actor's clone keeps the socket open).
                    Ok(_) => return Ok(()),
                    Err(msg) => Err(msg),
                }
            }
            "SNAPSHOT" => {
                if arg.is_empty() {
                    reply_err(&mut writer, "SNAPSHOT needs a file path")?;
                    continue;
                }
                let (path, reply) = (arg.to_string(), reply());
                match shared.ask(Req::Snapshot { path, reply }, &replies) {
                    Ok(_) => {
                        reply_ok(&mut writer, &format!("snapshot {arg}"))?;
                        continue;
                    }
                    Err(msg) => Err(msg),
                }
            }
            "QUIT" => {
                reply_ok(&mut writer, "bye")?;
                return Ok(());
            }
            _ => Err(format!("unknown command `{verb}`")),
        };
        match answer {
            Ok(report) => {
                reply_ok(&mut writer, &report.encode())?;
                if verb == "FINISH" {
                    // Reply delivered — only now may wait_finished
                    // waiters proceed (and possibly exit the process).
                    set_finished_flag(&shared.finished);
                }
            }
            Err(msg) => {
                reply_err(&mut writer, &msg)?;
                if msg == SHUTTING_DOWN {
                    return Ok(());
                }
            }
        }
    }
}

/// Decode one `INGEST` block into `stage` and stream it to the actor,
/// chunk by chunk, under the ingest turn; returns the actor's answer, and
/// leaves `stage` empty. The decode of a chunk runs while the actor
/// aggregates the one before it.
fn ingest_block(
    csv: &str,
    shared: &Shared,
    chunks: &mut Recycler<Rows>,
    stage: &mut Rows,
    decoded: &mut Event,
    reply: ReplyHandle,
    replies: &Receiver<Reply>,
) -> io::Result<Reply> {
    let _turn = shared.turn.lock().unwrap_or_else(|p| p.into_inner());
    let mut first = true;
    // Why the rows end: the document did, or a row (or the header) earned
    // an error — the same `IngestError` text `Session::ingest_csv` gives.
    let mut stop = None;
    match EventReader::new(csv, &shared.registry) {
        Err(e) => stop = Some(e),
        Ok(mut rows) => loop {
            match rows.read_into(decoded) {
                None => break,
                Some(Err(e)) => {
                    stop = Some(e);
                    break;
                }
                Some(Ok(())) => {}
            }
            if stage.len() == INGEST_CHUNK_ROWS {
                // Full, and the block goes on: this chunk is not its last.
                let rows = chunks.ship(stage);
                let sent = shared.requests.send(Req::Chunk {
                    rows,
                    first,
                    end: None,
                });
                if sent.is_err() {
                    return Ok(Err(SHUTTING_DOWN.to_string()));
                }
                first = false;
                if let Some(fault) = cogra_faults::message(format_args!("server/conn/chunk")) {
                    return Err(io::Error::other(fault));
                }
            }
            // The values move over; `decoded` keeps its capacity.
            let values = |buffer: &mut Vec<_>| buffer.append(&mut decoded.attrs);
            stage.push(decoded.id, decoded.time, decoded.type_id, values);
        },
    }
    let end = Some(BlockEnd {
        stop: stop.map(|e| IngestError::from(e).to_string()),
        reply,
    });
    let rows = chunks.ship(stage);
    Ok(shared.ask(Req::Chunk { rows, first, end }, replies))
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
    fn the_word_at_a_time_newline_search_is_the_bytewise_one() {
        // Every length to past two words, a newline at every position or
        // none, over fill bytes that stress the zero-byte test: 0x0b and
        // 0x09 (one bit from `\n`), 0x8a (`\n` with the high bit), 0x00.
        for fill in [b'a', 0x0b, 0x09, 0x8a, 0x00, 0xff] {
            for len in 0..20 {
                for newline in (0..len).map(Some).chain([None]) {
                    let mut bytes = vec![fill; len];
                    if let Some(at) = newline {
                        bytes[at] = b'\n';
                        // A second one after the first must not win.
                        if at + 3 < len {
                            bytes[at + 3] = b'\n';
                        }
                    }
                    let bytewise = bytes.iter().position(|&b| b == b'\n');
                    assert_eq!(
                        find_newline(&bytes),
                        bytewise,
                        "{fill:#x} {len} {newline:?}"
                    );
                    // And from every offset into the buffer.
                    for from in 0..len {
                        let bytewise = bytes[from..].iter().position(|&b| b == b'\n');
                        assert_eq!(find_newline(&bytes[from..]), bytewise);
                    }
                }
            }
        }
    }

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
