//! # cogra-server — network front-end for COGRA sessions
//!
//! The ROADMAP's "heavy traffic" direction: accept events over a socket
//! and serve result sinks as subscriptions. One [`Server`] wraps one
//! [`Session`] (multi-query, `.workers(n)`, `.slack(n)`, `.batch_size(n)`
//! all supported) behind a simple line-delimited TCP protocol:
//!
//! * clients `INGEST` CSV-framed events — decoded by the *same*
//!   `cogra_events::csv::EventReader` and ingested through the same
//!   checked per-row step the CLI and harness ride, so every surface
//!   reports the same `IngestError`; decode runs on the connection's
//!   thread, a chunk of rows ahead of the session's window updates;
//! * `SUBSCRIBE` turns a connection into a push stream: one `RESULT`
//!   line per finalized window result, emitted as shard windows close
//!   (COGRA's incremental maintenance pays off online, not
//!   buffer-and-reply), the lines of one drain in one write;
//! * `DRAIN` / `STATS` / `FINISH` surface watermarks, late-drop counts
//!   and the routing [`RunStats`](cogra_engine::RunStats).
//!
//! The networked path is pinned **byte-identical** to in-process
//! [`Session`] runs by the end-to-end differential battery
//! (`tests/server_e2e_props.rs`): same results, same late-drop counts,
//! same stats, across workloads × workers × slack, including mid-stream
//! drains.
//!
//! ```no_run
//! use cogra_core::session::Session;
//! use cogra_events::{TypeRegistry, ValueKind};
//! use cogra_server::{Client, Server, ServerConfig};
//!
//! let mut registry = TypeRegistry::new();
//! registry.register_type("Tick", vec![("v", ValueKind::Int)]);
//! let builder = Session::builder()
//!     .query("RETURN COUNT(*) PATTERN Tick T+ SEMANTICS ANY WITHIN 10 SLIDE 10");
//! let server = Server::spawn(builder, registry, "127.0.0.1:0", ServerConfig::default())?;
//!
//! let results = Client::connect(server.local_addr())?.subscribe(None)?.unwrap();
//! let mut feed = Client::connect(server.local_addr())?;
//! feed.ingest("type,time,v\nTick,1,42\nTick,2,7\n")?.unwrap();
//! feed.finish()?.unwrap();
//! for item in results {
//!     let (query, row) = item?;
//!     println!("q{query}: {row}");
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`Session`]: cogra_core::session::Session

#![warn(missing_docs)]

pub mod client;
pub mod server;
pub mod wire;

pub use client::{Client, Reply, Subscription};
pub use server::{ServeError, Server, ServerConfig, INGEST_CHUNK_ROWS};
pub use wire::StatsReport;
