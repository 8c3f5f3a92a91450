//! # cogra-bench
//!
//! Experiment harness regenerating every table and figure of the COGRA
//! evaluation (§9):
//!
//! * [`harness`] — metrics (latency / throughput / exact peak memory),
//!   budgeted sweeps with the paper's "does not terminate" semantics;
//! * [`experiments`] — one runner per figure (5–10) and table (3, 8),
//!   plus the q2 ridesharing demo; engines are constructed through the
//!   typed [`cogra_core::session::EngineKind`] roster;
//! * [`table`] — markdown/CSV report tables.
//!
//! Run everything: `cargo run -p cogra-bench --release --bin experiments`.

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod table;
