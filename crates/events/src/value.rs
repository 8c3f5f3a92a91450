//! Attribute values carried by events.
//!
//! The paper's data model (§2.1) describes events as tuples conforming to a
//! per-type schema. Values are deliberately kept to a small closed set of
//! variants: integers, floats, strings and booleans cover every attribute
//! used by the paper's workloads (time stamps, identifiers, heart rates,
//! prices, volumes, waiting times, activity labels).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A single attribute value.
///
/// `Value` implements [`Eq`] and [`Hash`] so it can serve as (part of) a
/// grouping or partitioning key (§7: equivalence predicates and `GROUP-BY`
/// partition the stream by attribute values). Floats are compared and hashed
/// by their bit pattern via [`f64::total_cmp`], which gives a coherent total
/// order; this matters only for grouping on floating-point attributes, which
/// the paper's queries never do, but the library must not panic if a user
/// does.
#[derive(Debug, Clone)]
pub enum Value {
    /// 64-bit signed integer (identifiers, counts, waiting times).
    Int(i64),
    /// 64-bit float (prices, heart rates).
    Float(f64),
    /// Interned immutable string (activity labels, company symbols).
    /// `Arc<str>` makes cloning an event O(#attrs) pointer bumps.
    Str(Arc<str>),
    /// Boolean flag.
    Bool(bool),
}

impl Value {
    /// Build a string value (interning is the caller's concern).
    pub fn str(s: impl Into<Arc<str>>) -> Self {
        Value::Str(s.into())
    }

    /// The value as `f64` if it is numeric, for arithmetic aggregation
    /// (SUM/AVG/MIN/MAX are defined over numeric attributes, §2.3).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Str(_) | Value::Bool(_) => None,
        }
    }

    /// The value as `i64` if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as `&str` if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool` if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The runtime kind of this value.
    pub fn kind(&self) -> ValueKind {
        match self {
            Value::Int(_) => ValueKind::Int,
            Value::Float(_) => ValueKind::Float,
            Value::Str(_) => ValueKind::Str,
            Value::Bool(_) => ValueKind::Bool,
        }
    }

    /// Compare two values the way a predicate does (§3.2).
    ///
    /// Numeric values compare numerically across `Int`/`Float`; strings and
    /// booleans only compare against their own kind. Returns `None` for
    /// incomparable kinds — a predicate over incomparable values is simply
    /// unsatisfied, mirroring three-valued SQL comparison semantics.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => {
                let a = self.as_f64()?;
                let b = other.as_f64()?;
                a.partial_cmp(&b)
            }
        }
    }

    /// Approximate heap + inline footprint in bytes, used by the logical
    /// memory accounting that replaces the paper's JVM peak-memory metric.
    pub fn memory_bytes(&self) -> usize {
        let inline = std::mem::size_of::<Value>();
        match self {
            Value::Str(s) => inline + s.len(),
            _ => inline,
        }
    }
}

/// The kind (runtime type tag) of a [`Value`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueKind {
    /// Signed integer.
    Int,
    /// Floating point.
    Float,
    /// String.
    Str,
    /// Boolean.
    Bool,
}

impl ValueKind {
    /// The kind's blank value — `0`, `0.0`, the empty string, `false`:
    /// what stands in for an attribute no query reads.
    pub fn blank(self) -> Value {
        match self {
            ValueKind::Int => Value::Int(0),
            ValueKind::Float => Value::Float(0.0),
            ValueKind::Str => Value::str(""),
            ValueKind::Bool => Value::Bool(false),
        }
    }
}

impl fmt::Display for ValueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueKind::Int => write!(f, "int"),
            ValueKind::Float => write!(f, "float"),
            ValueKind::Str => write!(f, "str"),
            ValueKind::Bool => write!(f, "bool"),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b) == Ordering::Equal,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Total order used for deterministic result ordering (group keys in
/// emitted window results). Values order by kind tag first, then by value;
/// floats use [`f64::total_cmp`]. This is *not* the predicate comparison —
/// see [`Value::compare`] for that.
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        fn tag(v: &Value) -> u8 {
            match v {
                Value::Int(_) => 0,
                Value::Float(_) => 1,
                Value::Str(_) => 2,
                Value::Bool(_) => 3,
            }
        }
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (a, b) => tag(a).cmp(&tag(b)),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Int(i) => {
                0u8.hash(state);
                i.hash(state);
            }
            Value::Float(f) => {
                1u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
            Value::Bool(b) => {
                3u8.hash(state);
                b.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn numeric_cross_kind_comparison() {
        assert_eq!(
            Value::Int(3).compare(&Value::Float(3.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Float(4.0).compare(&Value::Int(4)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(10).compare(&Value::Int(2)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn incomparable_kinds_yield_none() {
        assert_eq!(Value::str("a").compare(&Value::Int(1)), None);
        assert_eq!(Value::Bool(true).compare(&Value::Float(1.0)), None);
        assert_eq!(Value::str("a").compare(&Value::Bool(true)), None);
    }

    #[test]
    fn string_ordering() {
        assert_eq!(
            Value::str("apple").compare(&Value::str("banana")),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn float_nan_comparison_is_none() {
        assert_eq!(Value::Float(f64::NAN).compare(&Value::Float(1.0)), None);
    }

    #[test]
    fn equality_is_kind_strict() {
        // Grouping keys must distinguish Int(1) from Float(1.0): a stream
        // partitioned on a typed attribute never mixes kinds, and key
        // identity must be cheap and total.
        assert_ne!(Value::Int(1), Value::Float(1.0));
        assert_eq!(Value::str("x"), Value::str("x"));
    }

    #[test]
    fn nan_equals_itself_for_grouping() {
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
        assert_eq!(
            hash_of(&Value::Float(f64::NAN)),
            hash_of(&Value::Float(f64::NAN))
        );
    }

    #[test]
    fn hash_consistent_with_eq() {
        let a = Value::str("driver-7");
        let b = Value::str("driver-7");
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn as_f64_conversions() {
        assert_eq!(Value::Int(5).as_f64(), Some(5.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::str("x").as_f64(), None);
    }

    #[test]
    fn memory_accounting_counts_string_payload() {
        let short = Value::Int(1).memory_bytes();
        let long = Value::str("abcdefghij").memory_bytes();
        assert!(long >= short + 10);
    }

    #[test]
    fn display_round_trip_kinds() {
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Bool(true).to_string(), "true");
        assert_eq!(Value::str("IBM").to_string(), "IBM");
        assert_eq!(ValueKind::Float.to_string(), "float");
    }
}
