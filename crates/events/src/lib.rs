//! # cogra-events
//!
//! Event model for the COGRA event-trend-aggregation system: attribute
//! [`Value`]s, per-type [`Schema`]s interned in a [`TypeRegistry`],
//! time-stamped [`Event`]s, sliding-[`WindowSpec`] arithmetic, and ordered
//! stream helpers.
//!
//! This crate is the substrate shared by the query compiler
//! (`cogra-query`), the COGRA executor (`cogra-core`), the baseline engines
//! (`cogra-baselines`) and the workload generators (`cogra-workloads`). It
//! corresponds to §2.1 (data model) and the window portion of §7 of the
//! paper.

#![warn(missing_docs)]

pub mod csv;
pub mod event;
pub mod reorder;
pub mod schema;
pub mod snap;
pub mod stream;
pub mod value;
pub mod window;

pub use csv::{read_events, record_ends, write_events, CsvError, EventReader};
pub use event::{Event, EventId, Timestamp};
pub use reorder::{ReorderBuffer, Reorderer};
pub use schema::{AttrId, Schema, TypeId, TypeRegistry};
pub use stream::{transactions, validate_ordered, EventBuilder, OutOfOrderError};
pub use value::{Value, ValueKind};
pub use window::{WindowId, WindowSpan, WindowSpec};
