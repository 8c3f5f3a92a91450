//! # cogra-baselines
//!
//! The state-of-the-art comparators of the COGRA evaluation (§9.1,
//! Table 9), re-implemented from their papers' descriptions on top of the
//! shared [`cogra_engine::Router`] substrate, plus a brute-force oracle.
//! A baseline is a [`WindowAlgo`] — what it does inside one window, its
//! name and its Table 9 row ([`WindowAlgo::TABLE9`]) — and nothing else:
//! the router turns it into an engine, and [`Router::admit`] refuses the
//! queries its row lacks, for every engine alike.
//!
//! * [`sase`] — SASE: two-step, stacks + predecessor pointers + DFS trend
//!   construction; all semantics;
//! * [`flink`] — Flink-style: Kleene flattened into fixed-length sequence
//!   queries, constructed then aggregated; ANY + CONT;
//! * [`greta`] — GRETA: online event-granularity graph; ANY only;
//! * [`aseq`] — A-Seq: online prefix counters over the flattened
//!   workload; ANY only, no adjacent predicates, no negation;
//! * [`oracle`] — reference trend enumerator implementing Definitions 2–4
//!   directly; ground truth for the engine-agreement tests.
//!
//! [`WindowAlgo`]: cogra_engine::WindowAlgo
//! [`WindowAlgo::TABLE9`]: cogra_engine::WindowAlgo::TABLE9
//! [`Router::admit`]: cogra_engine::Router::admit

#![warn(missing_docs)]

pub mod aseq;
pub mod flink;
pub mod greta;
pub mod oracle;
pub mod sase;

pub use aseq::ASeqWindow;
pub use flink::FlinkWindow;
pub use greta::GretaWindow;
pub use oracle::OracleWindow;
pub use sase::SaseWindow;
