//! Events and time (§2.1).
//!
//! Time is a linearly ordered set of time points; the paper uses
//! second-resolution application time stamps assigned by the event source.
//! We represent time as unsigned integer *ticks* ([`Timestamp`]); the unit is
//! workload-defined (the bundled generators use seconds).

use crate::schema::{AttrId, TypeId};
use crate::value::Value;
use std::fmt;

/// Application time stamp in ticks (non-negative, totally ordered).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The zero time point.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Raw tick count.
    #[inline]
    pub fn ticks(self) -> u64 {
        self.0
    }

    /// Saturating addition of a duration in ticks.
    #[inline]
    pub fn saturating_add(self, d: u64) -> Timestamp {
        Timestamp(self.0.saturating_add(d))
    }

    /// Saturating subtraction of a duration in ticks.
    #[inline]
    pub fn saturating_sub(self, d: u64) -> Timestamp {
        Timestamp(self.0.saturating_sub(d))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<u64> for Timestamp {
    fn from(t: u64) -> Self {
        Timestamp(t)
    }
}

/// Stable per-stream sequence number.
///
/// The paper assumes events arrive in time-stamp order and processes all
/// events with equal time stamps as one *stream transaction* (§8). The
/// sequence number gives every event a stable identity for trend
/// enumeration, pointers in the SASE baseline, and deterministic test
/// output; it does **not** refine the temporal order (two events with equal
/// time stamps are still temporally incomparable, so neither can precede the
/// other in a trend, per Definition 7 condition 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct EventId(pub u64);

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A primitive event: typed, time-stamped tuple of attribute values.
///
/// **Contract:** `attrs` has its type's arity, and every value is of the
/// kind its schema declares ([`ValueKind`]). The decoders keep it; an
/// event built by hand must. It is not re-checked on ingestion: a value of
/// another kind is read as it comes — an `Int` where the schema says
/// `Float` is aggregated and compared numerically — but a snapshot that
/// stores it is refused on restore as not what the plan keeps.
///
/// [`ValueKind`]: crate::value::ValueKind
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Stable identity within its stream.
    pub id: EventId,
    /// Application time assigned by the source.
    pub time: Timestamp,
    /// The event's type.
    pub type_id: TypeId,
    /// Attribute values, positionally matching the type's [`Schema`].
    ///
    /// [`Schema`]: crate::schema::Schema
    pub attrs: Vec<Value>,
}

impl Event {
    /// Construct an event.
    pub fn new(
        id: impl Into<EventId>,
        time: impl Into<Timestamp>,
        type_id: TypeId,
        attrs: Vec<Value>,
    ) -> Self {
        Event {
            id: id.into(),
            time: time.into(),
            type_id,
            attrs,
        }
    }

    /// Attribute value by positional id. Panics on out-of-range ids, which
    /// indicate a query/schema mismatch that validation should have caught.
    #[inline]
    pub fn attr(&self, id: AttrId) -> &Value {
        &self.attrs[id.index()]
    }

    /// Approximate logical footprint in bytes (for peak-memory accounting).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Event>() + self.attrs.iter().map(Value::memory_bytes).sum::<usize>()
    }
}

impl From<u64> for EventId {
    fn from(v: u64) -> Self {
        EventId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_arithmetic_saturates() {
        assert_eq!(Timestamp(5).saturating_sub(10), Timestamp(0));
        assert_eq!(Timestamp(u64::MAX).saturating_add(1), Timestamp(u64::MAX));
        assert_eq!(Timestamp(3).saturating_add(4), Timestamp(7));
    }

    #[test]
    fn timestamp_ordering() {
        assert!(Timestamp(1) < Timestamp(2));
        assert_eq!(Timestamp::ZERO, Timestamp(0));
    }

    #[test]
    fn event_attr_access() {
        let e = Event::new(0, 7, TypeId(0), vec![Value::Int(42), Value::str("x")]);
        assert_eq!(e.attr(AttrId(0)), &Value::Int(42));
        assert_eq!(e.time, Timestamp(7));
    }

    #[test]
    fn event_memory_includes_attrs() {
        let small = Event::new(0, 0, TypeId(0), vec![]);
        let big = Event::new(0, 0, TypeId(0), vec![Value::Int(1); 8]);
        assert!(big.memory_bytes() > small.memory_bytes());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Timestamp(9).to_string(), "t9");
        assert_eq!(EventId(3).to_string(), "#3");
    }
}
