//! Event types and schemas (§2.1).
//!
//! Every event belongs to exactly one event type `E`, "described by a schema
//! that specifies the set of event attributes and the domains of their
//! values". A [`TypeRegistry`] interns type names to dense [`TypeId`]s so the
//! hot aggregation paths index arrays instead of hashing strings.

use crate::value::ValueKind;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Dense identifier of an event type within a [`TypeRegistry`].
///
/// `TypeId`s are handed out contiguously from zero, so per-type state (e.g.
/// the type-grained aggregates of Algorithm 1) can live in a flat `Vec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(pub u32);

impl TypeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Index of an attribute within its type's schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AttrId(pub u32);

impl AttrId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Schema of one event type: ordered, named, kinded attributes.
#[derive(Debug, Clone)]
pub struct Schema {
    name: Arc<str>,
    attrs: Vec<(Arc<str>, ValueKind)>,
    by_name: HashMap<Arc<str>, AttrId>,
}

impl Schema {
    /// Create a schema. Panics on duplicate attribute names — schemas are
    /// static configuration, so a duplicate is a programming error, not a
    /// runtime condition.
    pub fn new(name: impl Into<Arc<str>>, attrs: Vec<(&str, ValueKind)>) -> Self {
        let name = name.into();
        let attrs: Vec<(Arc<str>, ValueKind)> = attrs
            .into_iter()
            .map(|(n, k)| (Arc::<str>::from(n), k))
            .collect();
        let mut by_name = HashMap::with_capacity(attrs.len());
        for (i, (n, _)) in attrs.iter().enumerate() {
            let prev = by_name.insert(Arc::clone(n), AttrId(i as u32));
            assert!(
                prev.is_none(),
                "duplicate attribute `{n}` in schema `{name}`"
            );
        }
        Schema {
            name,
            attrs,
            by_name,
        }
    }

    /// Type name this schema describes.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Look up an attribute index by name.
    pub fn attr(&self, name: &str) -> Option<AttrId> {
        self.by_name.get(name).copied()
    }

    /// Name of an attribute.
    pub fn attr_name(&self, id: AttrId) -> &str {
        &self.attrs[id.index()].0
    }

    /// Declared kind of an attribute.
    pub fn attr_kind(&self, id: AttrId) -> ValueKind {
        self.attrs[id.index()].1
    }

    /// Iterate `(name, kind)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, ValueKind)> {
        self.attrs.iter().map(|(n, k)| (n.as_ref(), *k))
    }
}

/// Registry interning event type names to dense [`TypeId`]s.
///
/// The registry is immutable once handed to an engine; registration happens
/// during query/workload setup.
#[derive(Debug, Default, Clone)]
pub struct TypeRegistry {
    schemas: Vec<Schema>,
    /// Each type's [`NameKey`], by id.
    keys: Vec<NameKey>,
    /// What [`TypeRegistry::id_of`] probes — cheaper than hashing the name
    /// with a general hasher and cheaper than a scan of the names (a CSV
    /// reader resolves every row's `type` cell here): an open-addressed
    /// table of `id + 1` (0 for an empty slot) by [`NameKey::slot`], its
    /// length a power of two and at least twice the number of types.
    index: Vec<u32>,
}

impl TypeRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a type schema, returning its id. Re-registering the same
    /// name returns the existing id if the schema arity matches and panics
    /// otherwise (static misconfiguration).
    pub fn register(&mut self, schema: Schema) -> TypeId {
        if let Some(id) = self.id_of(schema.name()) {
            assert_eq!(
                self.schemas[id.index()].arity(),
                schema.arity(),
                "conflicting re-registration of type `{}`",
                schema.name()
            );
            return id;
        }
        let id = TypeId(self.schemas.len() as u32);
        self.keys.push(NameKey::of(schema.name()));
        self.schemas.push(schema);
        if self.index.len() < 2 * self.keys.len() {
            // Grown: every type is placed again.
            self.index = vec![0; (2 * self.keys.len()).next_power_of_two()];
            for at in 0..self.keys.len() {
                self.place(at);
            }
        } else {
            self.place(id.index());
        }
        id
    }

    /// Put type `id` into the first empty slot from its key's.
    fn place(&mut self, id: usize) {
        let mask = self.index.len() - 1;
        let mut at = self.keys[id].slot() & mask;
        while self.index[at] != 0 {
            at = (at + 1) & mask;
        }
        self.index[at] = id as u32 + 1;
    }

    /// Convenience: register `name` with the given attributes.
    pub fn register_type(&mut self, name: &str, attrs: Vec<(&str, ValueKind)>) -> TypeId {
        self.register(Schema::new(name, attrs))
    }

    /// Resolve a type name: one probe of an index keyed by the name's
    /// length and its first and last 8 bytes in the common case, the whole
    /// name compared only when it is longer than 16 bytes.
    #[inline]
    pub fn id_of(&self, name: &str) -> Option<TypeId> {
        let key = NameKey::of(name);
        let mask = self.index.len().checked_sub(1)?;
        let mut at = key.slot() & mask;
        loop {
            let id = self.index[at].checked_sub(1)? as usize;
            if self.keys[id] == key && (name.len() <= 16 || self.schemas[id].name() == name) {
                return Some(TypeId(id as u32));
            }
            at = (at + 1) & mask;
        }
    }

    /// Schema of a type.
    pub fn schema(&self, id: TypeId) -> &Schema {
        &self.schemas[id.index()]
    }

    /// Number of registered types.
    pub fn len(&self) -> usize {
        self.schemas.len()
    }

    /// Whether no types are registered.
    pub fn is_empty(&self) -> bool {
        self.schemas.is_empty()
    }

    /// Iterate all `(TypeId, &Schema)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TypeId, &Schema)> {
        self.schemas
            .iter()
            .enumerate()
            .map(|(i, s)| (TypeId(i as u32), s))
    }
}

/// A name's length, its first 8 bytes and its last 8 — zero-padded, and
/// the last word zero for a name of at most 8 bytes: the name itself, for
/// one of at most 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NameKey {
    len: usize,
    first: u64,
    last: u64,
}

impl NameKey {
    #[inline]
    fn of(name: &str) -> NameKey {
        let bytes = name.as_bytes();
        let len = bytes.len();
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        let (first, last) = match len {
            9.. => (word(0), word(len - 8)),
            // Two overlapping reads of 4 bytes, or three of 1: no copy of a
            // length known only at run time.
            4..=8 => {
                let half = |at: usize| {
                    u64::from(u32::from_le_bytes(
                        bytes[at..at + 4].try_into().expect("4 bytes"),
                    ))
                };
                (half(0) | half(len - 4) << (8 * (len - 4)), 0)
            }
            1..=3 => {
                let byte = |at: usize| u64::from(bytes[at]) << (8 * at);
                (byte(0) | byte(len / 2) | byte(len - 1), 0)
            }
            0 => (0, 0),
        };
        NameKey { len, first, last }
    }

    /// Where the key's probe starts (before masking).
    #[inline]
    fn slot(&self) -> usize {
        let mixed = self.first ^ self.last.rotate_left(29) ^ self.len as u64;
        (mixed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stock_schema() -> Schema {
        Schema::new(
            "Stock",
            vec![
                ("company", ValueKind::Int),
                ("sector", ValueKind::Int),
                ("price", ValueKind::Float),
            ],
        )
    }

    #[test]
    fn schema_lookup_by_name() {
        let s = stock_schema();
        assert_eq!(s.attr("price"), Some(AttrId(2)));
        assert_eq!(s.attr("sector"), Some(AttrId(1)));
        assert_eq!(s.attr("missing"), None);
        assert_eq!(s.attr_name(AttrId(0)), "company");
        assert_eq!(s.attr_kind(AttrId(2)), ValueKind::Float);
        assert_eq!(s.arity(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate attribute")]
    fn duplicate_attribute_panics() {
        Schema::new("T", vec![("a", ValueKind::Int), ("a", ValueKind::Int)]);
    }

    #[test]
    fn registry_interns_dense_ids() {
        let mut reg = TypeRegistry::new();
        let a = reg.register_type("A", vec![("v", ValueKind::Int)]);
        let b = reg.register_type("B", vec![("v", ValueKind::Int)]);
        assert_eq!(a, TypeId(0));
        assert_eq!(b, TypeId(1));
        assert_eq!(reg.id_of("A"), Some(a));
        assert_eq!(reg.id_of("C"), None);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn names_resolve_exactly_past_their_first_eight_bytes() {
        // Names alike in length and in their first 8 bytes, short ones, a
        // prefix of another, the empty name, and two long names alike in
        // length and in their first and last 8 bytes.
        let names = [
            "Measurement",
            "Measurements",
            "MeasurementZ",
            "A",
            "Ab",
            "",
            "Abcd",
            "Abc",
            "Abcdefgh",
            "Measurement, first of a long name",
            "Measurement, other of a long name",
        ];
        let mut reg = TypeRegistry::new();
        for name in names {
            reg.register_type(name, vec![("v", ValueKind::Int)]);
        }
        for (i, name) in names.iter().enumerate() {
            assert_eq!(reg.id_of(name), Some(TypeId(i as u32)), "{name:?}");
        }
        let ghosts = [
            "Measuremen",
            "MeasurementY",
            "Measurement ",
            "B",
            "a",
            "Measurementss",
            "Abce",
            "Abd",
            "Abcdefgi",
            "Measurement, third of a long name",
        ];
        for ghost in ghosts {
            assert_eq!(reg.id_of(ghost), None, "{ghost:?}");
        }
    }

    #[test]
    fn reregistration_is_idempotent() {
        let mut reg = TypeRegistry::new();
        let a1 = reg.register_type("A", vec![("v", ValueKind::Int)]);
        let a2 = reg.register_type("A", vec![("v", ValueKind::Int)]);
        assert_eq!(a1, a2);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn iterate_registry() {
        let mut reg = TypeRegistry::new();
        reg.register_type("A", vec![]);
        reg.register_type("B", vec![]);
        let names: Vec<&str> = reg.iter().map(|(_, s)| s.name()).collect();
        assert_eq!(names, vec!["A", "B"]);
    }
}
