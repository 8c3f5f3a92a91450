//! # cogra-workloads
//!
//! Synthetic workload generators reproducing the data sets of the COGRA
//! evaluation (§9.1), deterministic under a seed:
//!
//! * [`stock`] — 19 companies / 10 sectors stock ticks (stand-in for the
//!   EODData feed), with exact selectivity control for Figure 9;
//! * [`activity`] — 14-person physical-activity heart-rate reports
//!   (stand-in for PAMAP2), driving the contiguous-semantics experiments;
//! * [`transport`] — 30 passengers / 100 stations public-transportation
//!   trips, exactly as the paper describes its synthetic generator;
//! * [`rideshare`] — Uber-style Accept/(Call Cancel)+/Finish sessions for
//!   query q2 and the skip-till-next-match experiments.
//!
//! The two real data sets are not redistributable, so each generator
//! reproduces the *characteristics* §9.1 reports for its data set — key
//! counts, event mix, run lengths — and says so in its module docs.
//!
//! On top of the paper's (friendly) workloads, an **adversarial** layer
//! stresses what production would (ROADMAP direction 5):
//!
//! * [`skew`] — power-law key skew: a few hot users absorb most traffic,
//!   exposing shard imbalance in the group-prefix hash;
//! * [`churn`] — unbounded session-id-like keys growing the interner
//!   linearly with stream length;
//! * [`burst`] — flash-crowd arrival with deep time-stamp disorder,
//!   stressing reorder-buffer sizing and the late-drop policy;
//! * [`fraud`] — rare long pattern matches over a mostly-noise stream.

#![warn(missing_docs)]

pub mod activity;
pub mod burst;
pub mod churn;
pub mod fraud;
pub mod rideshare;
pub mod skew;
pub mod stock;
pub mod transport;

pub use activity::ActivityConfig;
pub use burst::BurstConfig;
pub use churn::ChurnConfig;
pub use fraud::FraudConfig;
pub use rideshare::RideshareConfig;
pub use skew::SkewConfig;
pub use stock::StockConfig;
pub use transport::TransportConfig;
