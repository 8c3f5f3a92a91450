//! # cogra-perfbench — the repository benchmark
//!
//! Seven named workloads, each run as set-up → saturated phase (closed
//! loop) → paced phase (open loop) → check, reporting the end-to-end
//! metrics `BENCHMARK.json` declares; a traced run repeats the saturated
//! phase under spans and adds standalone layer probes, reporting the
//! per-layer metrics. See `BENCHMARK.md` next to this crate's manifest.
//!
//! Every layer is measured from outside, by spans the runner records
//! around calls into that layer's public functions: the product carries
//! no tracing.

#![warn(missing_docs)]

pub mod alloc;
pub mod compare;
pub mod json;
pub mod pacing;
pub mod phases;
pub mod probes;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
