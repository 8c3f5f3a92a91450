//! ONE executable specification for the equivalence batteries.
//!
//! Every "A ≡ B" this repository promises — any worker count ≡ one, any
//! drain cadence ≡ finish-only, shared ≡ unshared, restored ≡
//! uninterrupted, restarted ≡ undisturbed, CSV ≡ in-memory, socket ≡
//! in-process — is one statement: **whatever the configuration and the
//! operation sequence, a session observes what the reference observes.**
//!
//! * **case** ([`model::Case`]) — a type registry, a roster of queries
//!   with their engine kinds, a stream in arrival order and the slack its
//!   disorder needs; drawn from the one workload table
//!   ([`workloads::workload`]: churn, stock at all three granularities,
//!   fraud, comeback, skew, burst, rideshare, transport, a duplicate
//!   roster), from sampled rows ([`workloads::rows_case`]) or from a
//!   compiled automaton's edges ([`edges::populations`]).
//! * **configuration** ([`model::Config`]) — workers, transport batch
//!   size, failure policy, and how events travel: in memory, as CSV
//!   through `ingest_csv`, or over a loopback socket through
//!   `cogra-server`. Sharing is always on; the reference is unshared.
//! * **ops** ([`model::Op`]) — ingest a chunk / drain / checkpoint →
//!   restore at another width and batch size / arm a failpoint; the rest
//!   of the stream and `finish` follow the last op. Generated ops shrink
//!   under the vendored proptest.
//! * **observation** ([`model::Observation`]) — per-query results in
//!   (window, group) order, rendered so floats compare by their bits;
//!   late drops; `RunStats`; Σ shard events + dropped; effective workers
//!   — the counters read off one `Metrics`, `Session::metrics()` in
//!   process or the `FINISH` reply over a socket. Along the way the
//!   driver also holds every mid-stream drain to the reference (nothing
//!   from a window still open, everything of every window that closed),
//!   the `events` and `results` counters to the rows fed and emitted, and
//!   a finished session to being exhausted.
//! * **reference** ([`model::Reference`]) — each query alone on its own
//!   engine kind, one inline shard, nothing to share, finish-only, disorder
//!   repaired by a front `Reorderer`. Its bits are what a session is held
//!   to; COGRA and — where the windows are small enough to enumerate —
//!   `EngineKind::Oracle` run the same query and must agree with it up to
//!   the order floats were added in. Roster entries a case declares
//!   equivalent (a renamed duplicate, a surface pattern and its hand
//!   expansion) must agree in the reference itself.
//!
//! [`model::check`] is the one driver; the battery files are its arms —
//! each picks cases, configurations and ops, and adds only what is not an
//! equivalence (liveness of the sweep, counters, error texts). The rest of
//! this module is plumbing the non-differential tests share.

#![allow(dead_code)]

pub mod edges;
pub mod model;
pub mod workloads;

use cogra::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::process::Command;
use std::sync::mpsc;
use std::time::Duration;

/// Per-test timeout: generous for debug builds, far below CI's patience.
const WATCHDOG_SECS: u64 = 120;

/// Run `f` on its own thread; panic if it does not finish in time, so a
/// wedged shard pool or a hung server fails one test instead of stalling
/// the whole `cargo test` job.
pub fn watchdog<T: Send + 'static>(name: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(WATCHDOG_SECS)) {
        Ok(value) => {
            let _ = worker.join();
            value
        }
        // The closure panicked: surface its message, not a timeout.
        Err(mpsc::RecvTimeoutError::Disconnected) => match worker.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the sender is dropped only by a panic"),
        },
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{name}: hung for {WATCHDOG_SECS}s (shard pool / server deadlock?)")
        }
    }
}

/// Disorder the *arrival* order with bounded displacement: each event's
/// sort key is its time plus a random offset in `[0, extent]`, ties broken
/// by original position. With `extent` above a session's slack some
/// events arrive hopelessly late.
pub fn jitter(events: Vec<Event>, extent: u64, seed: u64) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keyed: Vec<(u64, usize, Event)> = events
        .into_iter()
        .enumerate()
        .map(|(i, e)| (e.time.ticks() + rng.random_range(0..=extent), i, e))
        .collect();
    keyed.sort_by_key(|&(key, position, _)| (key, position));
    keyed.into_iter().map(|(_, _, e)| e).collect()
}

/// Deterministically disorder a stream: reverse blocks of `block` events.
pub fn disorder(events: &[Event], block: usize) -> Vec<Event> {
    events
        .chunks(block)
        .flat_map(|chunk| chunk.iter().rev().cloned())
        .collect()
}

/// A raw protocol connection to a server: bytes out, reply lines in.
pub struct Raw {
    out: TcpStream,
    replies: BufReader<TcpStream>,
}

impl Raw {
    pub fn connect(addr: impl ToSocketAddrs) -> Raw {
        let out = TcpStream::connect(addr).expect("server reachable");
        let replies = BufReader::new(out.try_clone().expect("clone"));
        Raw { out, replies }
    }

    pub fn send(&mut self, bytes: impl AsRef<[u8]>) {
        self.out.write_all(bytes.as_ref()).expect("write");
    }

    /// Send `bytes` and read the one-line reply.
    pub fn ask(&mut self, bytes: impl AsRef<[u8]>) -> String {
        self.send(bytes);
        self.reply().expect("the server replies")
    }

    /// Everything the server still sends before it closes the connection.
    pub fn rest(&mut self) -> Vec<u8> {
        let mut bytes = Vec::new();
        self.replies
            .read_to_end(&mut bytes)
            .expect("the server closed the socket");
        bytes
    }

    /// The next line; `None` once the server closed (or reset) the
    /// connection.
    pub fn reply(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.replies.read_line(&mut line) {
            Ok(0) | Err(_) => None,
            Ok(_) => Some(line),
        }
    }
}

/// A self-cleaning scratch directory, optionally holding the three files
/// a `cogra-run` invocation reads.
pub struct Fixture {
    pub dir: PathBuf,
}

impl Fixture {
    /// An empty directory unique to `name` and this process.
    pub fn dir(name: &str) -> Fixture {
        let dir = std::env::temp_dir().join(format!("cogra-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Fixture { dir }
    }

    /// A directory holding `schema.csv`, `query.cep` and `stream.csv`.
    pub fn new(name: &str, schema: &str, query: &str, stream: &[u8]) -> Fixture {
        let fixture = Fixture::dir(name);
        std::fs::write(fixture.dir.join("schema.csv"), schema).unwrap();
        std::fs::write(fixture.dir.join("query.cep"), query).unwrap();
        std::fs::write(fixture.dir.join("stream.csv"), stream).unwrap();
        fixture
    }

    /// The path of `file` inside the directory.
    pub fn path(&self, file: &str) -> String {
        self.dir.join(file).to_string_lossy().into_owned()
    }

    /// `cogra-run [mode] --schema <the fixture's>`.
    pub fn cogra_run(&self, mode: Option<&str>) -> Command {
        let mut command = Command::new(env!("CARGO_BIN_EXE_cogra-run"));
        command
            .args(mode)
            .args(["--schema", &self.path("schema.csv")]);
        command
    }

    /// The plain run mode over the fixture's stream with `extra` flags:
    /// `(success, stdout, stderr)`.
    pub fn run(&self, extra: &[&str]) -> (bool, String, String) {
        let out = self
            .cogra_run(None)
            .args(["--events", &self.path("stream.csv")])
            .args(["--query", &self.path("query.cep")])
            .args(extra)
            .output()
            .expect("binary runs");
        (
            out.status.success(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
