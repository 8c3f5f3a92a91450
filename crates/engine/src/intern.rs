//! Partition-key interning: the zero-allocation half of the routing hot
//! path.
//!
//! The paper's constant-time-per-event claim (§3, §7) only holds if the
//! per-event bookkeeping is constant too. The seed router paid for a
//! fresh `Vec<Value>` *per event* just to probe `HashMap<GroupKey, _>`,
//! plus a SipHash over that vector. [`KeyInterner`] removes both costs,
//! and a key costs no heap block of its own either:
//!
//! * the event's partition attributes are hashed **in place** (the caller
//!   folds each [`Value`] into an [`fxhash::FxHasher`] straight off the
//!   event, no scratch vector);
//! * the hash probes a `hash → head id` table; the ids sharing that hash
//!   (almost always exactly one) are chained through a `next` array, and
//!   each candidate is confirmed by comparing the event's attributes
//!   against the interned key **element-wise**, again without
//!   materializing;
//! * keys are stored **flat**: every key of one interner has the same
//!   arity (the query's partition arity, fixed at compile time), so key
//!   `id` is the slice `values[id * arity..][..arity]` of one shared
//!   buffer. A **first-seen** key is written straight off the event into
//!   that buffer — the only heap traffic is the amortised doubling of
//!   four containers, and dropping an interner frees four blocks however
//!   many keys it has held.
//!
//! Dense ids are the second half of the bargain: `PartitionId(u32)`
//! indexes a plain `Vec` of partition states, so the router's per-event
//! map lookup becomes an array index.
//!
//! The table follows the *resident* key set, not the stream's history:
//! the owner [retires](KeyInterner::retire) a key once nothing hangs off
//! its id any more, which unlinks it, drops its values and puts the id on
//! a free list; the next first-seen key takes that id and overwrites that
//! slot of the flat buffer (same arity, same stride). An id is therefore
//! stable exactly as long as its key is resident, and *which* id a key
//! gets depends on what was retired before it arrived — so nothing an
//! owner reports may depend on id values or their order.

use cogra_checkpoint::CheckpointError;
use cogra_events::Value;
use fxhash::{FxHashMap, FxHasher};
use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};

/// Dense identifier of a resident partition key: an index into
/// contiguous `Vec` storage. Fresh ids are handed out in first-seen
/// order; a retired id is handed out again before a fresh one is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PartitionId(pub u32);

impl PartitionId {
    /// The id as a `Vec` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Routing hot-path statistics, aggregated across engines and shards.
/// Both are functions of the stream alone — not of when drains ran, how
/// many shards there are, or whether a checkpoint/restore intervened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Interner probes — one per event that reached partition routing.
    pub key_probes: u64,
    /// Key lives begun: probes of a key none of whose windows could still
    /// hold the event — a key never seen before, or one whose last window
    /// ended at or before the event's time (whether or not a drain had
    /// already retired it). `key_probes - key_allocs` events joined a
    /// life in progress.
    pub key_allocs: u64,
}

impl RunStats {
    /// Fold another engine's/shard's counters into this one.
    pub fn merge(&mut self, other: RunStats) {
        self.key_probes += other.key_probes;
        self.key_allocs += other.key_allocs;
    }

    /// Serialize both counters.
    pub fn save(&self, enc: &mut cogra_checkpoint::Enc) {
        enc.u64(self.key_probes);
        enc.u64(self.key_allocs);
    }

    /// Inverse of [`RunStats::save`].
    pub fn load(dec: &mut cogra_checkpoint::Dec) -> Result<RunStats, CheckpointError> {
        Ok(RunStats {
            key_probes: dec.u64()?,
            key_allocs: dec.u64()?,
        })
    }
}

/// The interner refused another key: the number of resident partition
/// keys reached the configured ceiling (by default `u32::MAX`, the
/// dense-id address space itself). Surfaced as a typed ingest error
/// instead of a worker-thread panic — unbounded key cardinality is a data
/// problem, not a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyOverflow {
    /// The limit that was hit.
    pub limit: u32,
}

/// End of a same-hash chain in [`KeyInterner::next`]. Never a key id:
/// ids stay below the limit, which is at most `u32::MAX`.
const NIL: u32 = u32::MAX;

/// What a slot of the flat buffer holds between a key's retirement and
/// the slot's reuse: no heap part, so a retired key's strings are gone.
const VACANT: Value = Value::Int(0);

/// Interner from resident partition keys to dense [`PartitionId`]s.
///
/// Generic over nothing but driven by a closure, so the caller decides
/// how to compare a candidate against the (never materialized) probe key
/// — see [`KeyInterner::intern_with`].
#[derive(Debug)]
pub struct KeyInterner {
    /// Values per key — the stride of `values`.
    arity: usize,
    /// One slot per id ever handed out, back to back: key `id` is
    /// `values[id * arity..][..arity]`; the slot of an id on the free
    /// list holds [`VACANT`]s. Grows to the peak resident count only.
    values: Vec<Value>,
    /// `next[id]` — the next id with the same hash, or [`NIL`]. One entry
    /// per slot (also when `arity` is 0).
    next: Vec<u32>,
    /// hash → the first id on that hash's chain; same-hash keys interned
    /// later hang off it through `next`.
    heads: FxHashMap<u64, u32>,
    /// Retired ids, reused (last retired first) before a fresh one is
    /// minted. Keeps its capacity, so steady churn allocates nothing.
    free: Vec<u32>,
    /// [`KeyInterner::memory_bytes`], maintained where keys are inserted
    /// and retired so a read costs nothing ([`KeyInterner::audit_bytes`]
    /// is the walked definition it must equal).
    bytes: usize,
    /// Maximum number of resident keys this interner will hold. The
    /// default is the full `u32` id space; sessions lower it via
    /// `EngineConfig::key_limit` to turn unbounded key cardinality into a
    /// typed error instead of unbounded memory growth.
    limit: u32,
}

/// Fold a sequence of values into an [`FxHasher`], exactly as
/// [`KeyInterner`] expects probe hashes to be computed. Hashing the
/// values of a materialized `GroupKey` and hashing the same values
/// straight off an event produce the same hash — that equivalence is what
/// makes the in-place probe sound.
#[inline]
pub fn hash_values<'a>(values: impl Iterator<Item = &'a Value>) -> u64 {
    let mut h = FxHasher::default();
    for v in values {
        v.hash(&mut h);
    }
    h.finish()
}

impl KeyInterner {
    /// Inline bytes of the interner struct that are accounting instrument
    /// (its running byte counter), not state — for owners that report
    /// their own `size_of` and want the figure free of instruments.
    pub const INSTRUMENT_BYTES: usize = std::mem::size_of::<usize>();

    /// Table overhead of one key: its link in `next`.
    const LINK_BYTES: usize = std::mem::size_of::<u32>();
    /// Table overhead of one distinct hash: its `heads` entry.
    const HEAD_BYTES: usize = std::mem::size_of::<(u64, u32)>();

    /// An empty interner of keys with `arity` values each.
    pub fn new(arity: usize) -> KeyInterner {
        KeyInterner {
            arity,
            values: Vec::new(),
            next: Vec::new(),
            heads: FxHashMap::default(),
            free: Vec::new(),
            bytes: 0,
            limit: u32::MAX,
        }
    }

    /// Values per key.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Cap the number of resident keys at `limit`. Resident keys are
    /// unaffected; while `len()` is at or above the limit, every
    /// first-seen probe returns [`KeyOverflow`].
    pub fn set_limit(&mut self, limit: u32) {
        self.limit = limit;
    }

    /// The configured resident-key ceiling.
    #[inline]
    pub fn limit(&self) -> u32 {
        self.limit
    }

    /// Intern the key with the given `hash`. `matches` decides whether a
    /// resident candidate equals the probe key (called for each key with
    /// that hash — usually at most one); `key` yields the key's values
    /// and is consumed if, and only if, the key is not resident: they are
    /// written straight into the flat buffer, no temporary.
    ///
    /// `hash` must be [`hash_values`] over the same value sequence that
    /// `matches` compares and `key` yields, and `key` must yield exactly
    /// [`KeyInterner::arity`] values (anything else is a bug in the
    /// caller and panics rather than mis-stride every later key).
    ///
    /// A first-seen key past the configured limit is refused with
    /// [`KeyOverflow`] and leaves no trace; re-probes of resident keys
    /// always succeed.
    pub fn intern_with(
        &mut self,
        hash: u64,
        mut matches: impl FnMut(&[Value]) -> bool,
        key: impl IntoIterator<Item = Value>,
    ) -> Result<PartitionId, KeyOverflow> {
        // A refused key must leave no trace, so nothing is touched before
        // the check. `len() < limit <= u32::MAX` guarantees a fresh id
        // fits in a `u32` (and is not `NIL`) without a checked cast.
        let full = self.len() >= self.limit as usize;
        let overflow = KeyOverflow { limit: self.limit };
        // The id a first-seen key would get: the last retired one, or
        // else a fresh one.
        let id = self.free.last().copied().unwrap_or(self.next.len() as u32);
        match self.heads.entry(hash) {
            Entry::Occupied(head) => {
                let mut at = *head.get();
                loop {
                    let start = at as usize * self.arity;
                    if matches(&self.values[start..start + self.arity]) {
                        return Ok(PartitionId(at));
                    }
                    match self.next[at as usize] {
                        NIL => break,
                        later => at = later,
                    }
                }
                if full {
                    return Err(overflow);
                }
                self.next[at as usize] = id;
            }
            Entry::Vacant(slot) => {
                if full {
                    return Err(overflow);
                }
                slot.insert(id);
                self.bytes += Self::HEAD_BYTES;
            }
        }
        let start = id as usize * self.arity;
        if self.free.pop().is_some() {
            self.next[id as usize] = NIL;
        } else {
            self.next.push(NIL);
            self.values.resize(start + self.arity, VACANT);
        }
        let mut key = key.into_iter();
        for slot in &mut self.values[start..start + self.arity] {
            *slot = key.next().expect("a key must have the interner's arity");
        }
        assert!(key.next().is_none(), "a key must have the interner's arity");
        self.bytes += self.key_bytes(start);
        debug_assert!(
            matches(&self.values[start..start + self.arity]),
            "an interned key must match its own probe"
        );
        Ok(PartitionId(id))
    }

    /// The id of the resident key with the given `hash` that `matches`
    /// (as in [`KeyInterner::intern_with`]), if there is one.
    pub fn find(&self, hash: u64, matches: impl Fn(&[Value]) -> bool) -> Option<PartitionId> {
        let mut at = *self.heads.get(&hash)?;
        loop {
            let start = at as usize * self.arity;
            if matches(&self.values[start..start + self.arity]) {
                return Some(PartitionId(at));
            }
            match self.next[at as usize] {
                NIL => return None,
                later => at = later,
            }
        }
    }

    /// What the key in the slot at `start` adds to `bytes`: its values
    /// and its link.
    fn key_bytes(&self, start: usize) -> usize {
        Self::LINK_BYTES
            + self.values[start..start + self.arity]
                .iter()
                .map(Value::memory_bytes)
                .sum::<usize>()
    }

    /// Forget the resident key `id`: unlink it from its hash chain, drop
    /// its values and free the id for the next first-seen key. The caller
    /// guarantees `id` is resident and that nothing refers to it any
    /// more; a later probe of the same key is a first-seen one.
    pub fn retire(&mut self, id: PartitionId) {
        self.unlink(id, hash_values(self.resolve(id).iter()));
    }

    /// [`KeyInterner::retire`] for a key interned under `hash`.
    fn unlink(&mut self, id: PartitionId, hash: u64) {
        let start = id.index() * self.arity;
        self.bytes -= self.key_bytes(start);
        self.values[start..start + self.arity].fill(VACANT);
        let after = self.next[id.index()];
        let Entry::Occupied(mut head) = self.heads.entry(hash) else {
            unreachable!("a resident key has a chain under its hash");
        };
        if *head.get() != id.0 {
            // Walking off the chain's end indexes `next[NIL]`: a key that
            // is not on its hash's chain is a bug, not a case.
            let mut before = *head.get() as usize;
            while self.next[before] != id.0 {
                before = self.next[before] as usize;
            }
            self.next[before] = after;
        } else if after != NIL {
            head.insert(after);
        } else {
            head.remove();
            self.bytes -= Self::HEAD_BYTES;
        }
        self.free.push(id.0);
    }

    /// The resident key of `id`.
    #[inline]
    pub fn resolve(&self, id: PartitionId) -> &[Value] {
        let start = id.index() * self.arity;
        &self.values[start..start + self.arity]
    }

    /// Number of resident keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.next.len() - self.free.len()
    }

    /// Whether no key is resident.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical memory footprint: resident key values plus table overhead
    /// (a 4-byte link per key, a 16-byte entry per distinct hash). Slots
    /// of retired keys are capacity, like a `Vec`'s spare room, and are
    /// not counted. O(1): the figure is maintained at insert and retire.
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.bytes
    }

    /// The definition [`KeyInterner::memory_bytes`] must equal, computed
    /// by walking the flat buffer and the table — the test oracle, never
    /// called on a release hot path. Free slots are told apart by count, not
    /// by content: a retired key that kept a heap part fails the audit.
    pub fn audit_bytes(&self) -> usize {
        self.values.iter().map(Value::memory_bytes).sum::<usize>()
            - self.free.len() * self.arity * std::mem::size_of::<Value>()
            + self.len() * Self::LINK_BYTES
            + self.heads.len() * Self::HEAD_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::GroupKey;

    fn key(vals: &[i64]) -> GroupKey {
        vals.iter().copied().map(Value::Int).collect()
    }

    /// Probe `k` under a caller-chosen hash (a fake one forces a chain).
    fn probe(
        interner: &mut KeyInterner,
        hash: u64,
        k: &GroupKey,
    ) -> Result<PartitionId, KeyOverflow> {
        interner.intern_with(hash, |cand| cand == &k[..], k.iter().cloned())
    }

    fn intern(interner: &mut KeyInterner, vals: &[i64]) -> PartitionId {
        let k = key(vals);
        probe(interner, hash_values(k.iter()), &k).expect("under the key limit")
    }

    #[test]
    fn dense_ids_in_first_seen_order() {
        let mut i = KeyInterner::new(1);
        assert_eq!(intern(&mut i, &[7]), PartitionId(0));
        assert_eq!(intern(&mut i, &[9]), PartitionId(1));
        assert_eq!(
            intern(&mut i, &[7]),
            PartitionId(0),
            "stable while resident"
        );
        assert_eq!(i.len(), 2);
        assert_eq!(i.resolve(PartitionId(1)), &key(&[9])[..]);
    }

    #[test]
    fn a_retired_id_and_slot_serve_the_next_first_seen_key() {
        let mut i = KeyInterner::new(2);
        let (a, b) = (intern(&mut i, &[1, 10]), intern(&mut i, &[2, 20]));
        let two = i.memory_bytes();
        i.retire(a);
        assert_eq!(i.len(), 1);
        assert_eq!(i.memory_bytes(), two / 2);
        assert_eq!(i.memory_bytes(), i.audit_bytes());
        assert_eq!(intern(&mut i, &[2, 20]), b, "the survivor is untouched");
        // The next first-seen key lands on the freed id, in the freed
        // slot: the buffer does not grow.
        assert_eq!(intern(&mut i, &[3, 30]), a);
        assert_eq!(i.resolve(a), &key(&[3, 30])[..]);
        assert_eq!(i.values.len(), 4);
        assert_eq!(i.memory_bytes(), two);
        // The retired key is first-seen again when it returns.
        assert_eq!(intern(&mut i, &[1, 10]), PartitionId(2));
        assert_eq!(i.memory_bytes(), i.audit_bytes());
        // Retired down to nothing, the footprint is an empty interner's.
        for id in 0..3 {
            i.retire(PartitionId(id));
        }
        assert!(i.is_empty());
        assert_eq!(i.memory_bytes(), 0);
        assert_eq!(i.audit_bytes(), 0);
        assert!(i.heads.is_empty());
    }

    #[test]
    fn retiring_releases_a_keys_strings() {
        let mut i = KeyInterner::new(1);
        let s: GroupKey = vec![Value::str("a-rather-long-session-id")];
        let held = match &s[0] {
            Value::Str(text) => std::sync::Arc::clone(text),
            _ => unreachable!(),
        };
        let id = probe(&mut i, hash_values(s.iter()), &s).unwrap();
        drop(s);
        assert_eq!(std::sync::Arc::strong_count(&held), 2);
        i.retire(id);
        assert_eq!(std::sync::Arc::strong_count(&held), 1, "the slot let go");
        assert_eq!(i.memory_bytes(), 0);
        assert_eq!(i.audit_bytes(), 0);
    }

    #[test]
    fn collision_probe_separates_distinct_keys() {
        // Force three keys onto one chain with an identical (fake) hash:
        // the element-wise equality check must keep them apart, wherever
        // in the chain they sit.
        let mut i = KeyInterner::new(2);
        let keys = [key(&[1, 2]), key(&[2, 1]), key(&[3, 3])];
        let ids: Vec<_> = keys.iter().map(|k| probe(&mut i, 42, k).unwrap()).collect();
        assert_eq!(ids, [PartitionId(0), PartitionId(1), PartitionId(2)]);
        for (k, id) in keys.iter().zip(&ids) {
            assert_eq!(probe(&mut i, 42, k), Ok(*id));
            assert_eq!(i.resolve(*id), &k[..]);
        }
        assert_eq!(i.len(), 3);
        assert_eq!(i.heads.len(), 1, "one hash, one head");
    }

    #[test]
    fn unlinking_keeps_the_rest_of_a_chain_reachable() {
        // Head, middle and tail of a three-key chain, each retired in
        // turn from a fresh chain: the other two still resolve, the
        // counter follows the walk, and the freed id rejoins at the tail.
        let keys = [key(&[1, 2]), key(&[2, 1]), key(&[3, 3])];
        for gone in 0..3 {
            let mut i = KeyInterner::new(2);
            for k in &keys {
                probe(&mut i, 42, k).unwrap();
            }
            i.unlink(PartitionId(gone as u32), 42);
            assert_eq!(i.memory_bytes(), i.audit_bytes());
            assert_eq!(i.heads.len(), 1);
            for (id, k) in keys.iter().enumerate().filter(|(id, _)| *id != gone) {
                assert_eq!(probe(&mut i, 42, k), Ok(PartitionId(id as u32)));
            }
            assert_eq!(probe(&mut i, 42, &keys[gone]), Ok(PartitionId(gone as u32)));
            assert_eq!(i.len(), 3);
            assert_eq!(i.memory_bytes(), i.audit_bytes());
        }
        // The last key of a chain takes the head entry with it.
        let mut i = KeyInterner::new(2);
        probe(&mut i, 42, &keys[0]).unwrap();
        i.unlink(PartitionId(0), 42);
        assert!(i.heads.is_empty());
        assert_eq!(i.memory_bytes(), 0);
    }

    #[test]
    fn memory_accounting_follows_resident_keys_only() {
        let mut i = KeyInterner::new(1);
        assert_eq!(i.memory_bytes(), 0);
        intern(&mut i, &[1]);
        let one = i.memory_bytes();
        assert_eq!(one, i.audit_bytes());
        // The per-key formula: the value, a link, a head.
        assert_eq!(one, Value::Int(1).memory_bytes() + 4 + 16);
        for _ in 0..100 {
            intern(&mut i, &[1]);
        }
        assert_eq!(i.memory_bytes(), one, "re-probes intern nothing");
        intern(&mut i, &[2]);
        assert_eq!(i.memory_bytes(), 2 * one);
        assert_eq!(i.memory_bytes(), i.audit_bytes());
        // A thousand keys through one slot: never more than two resident.
        for fresh in 3..1_003 {
            let id = intern(&mut i, &[fresh]);
            assert_eq!(i.memory_bytes(), 3 * one);
            i.retire(id);
        }
        assert_eq!(i.memory_bytes(), 2 * one);
        assert_eq!(i.memory_bytes(), i.audit_bytes());
        assert_eq!(i.next.len(), 3, "one slot served them all");
    }

    #[test]
    fn counter_equals_the_walk_across_collisions_and_strings() {
        let mut i = KeyInterner::new(2);
        // Two keys forced onto one chain, one alone, one with a heap part.
        let a = key(&[1, 2]);
        let b = key(&[2, 1]);
        let s: GroupKey = vec![Value::str("a-rather-long-session-id"), Value::Int(9)];
        probe(&mut i, 42, &a).unwrap();
        assert_eq!(i.memory_bytes(), i.audit_bytes());
        probe(&mut i, 42, &b).unwrap();
        assert_eq!(i.memory_bytes(), i.audit_bytes());
        let sid = probe(&mut i, hash_values(s.iter()), &s).unwrap();
        assert_eq!(i.memory_bytes(), i.audit_bytes());
        // The string key's slot, reused by a key without a heap part.
        i.retire(sid);
        assert_eq!(i.memory_bytes(), i.audit_bytes());
        assert_eq!(intern(&mut i, &[5, 6]), sid);
        assert_eq!(i.memory_bytes(), i.audit_bytes());
    }

    #[test]
    fn arity_zero_holds_the_one_empty_key() {
        // A query with neither GROUP-BY nor equivalence attributes has
        // one partition whose key is empty.
        let mut i = KeyInterner::new(0);
        assert_eq!(intern(&mut i, &[]), PartitionId(0));
        assert_eq!(intern(&mut i, &[]), PartitionId(0));
        assert_eq!(i.len(), 1);
        assert!(i.resolve(PartitionId(0)).is_empty());
        assert_eq!(i.memory_bytes(), i.audit_bytes());
        i.retire(PartitionId(0));
        assert!(i.is_empty());
        assert_eq!(i.memory_bytes(), 0);
        assert_eq!(intern(&mut i, &[]), PartitionId(0));
        assert_eq!(i.memory_bytes(), i.audit_bytes());
    }

    #[test]
    fn refused_keys_leave_no_trace_in_the_table() {
        // Regression: the probe used to touch the table *before* the limit
        // check, so every refused first-seen key left an entry behind and
        // the table grew without bound under the very guard meant to
        // bound it. Refusals both off a fresh hash and off the end of an
        // existing chain must leave keys, links, heads and the free list
        // as they were.
        let mut i = KeyInterner::new(1);
        i.set_limit(2);
        intern(&mut i, &[1]);
        let chained = key(&[2]);
        probe(&mut i, hash_values(key(&[1]).iter()), &chained).unwrap();
        let (bytes, heads, next) = (i.memory_bytes(), i.heads.len(), i.next.clone());
        for fresh in 100..10_100 {
            let k = key(&[fresh]);
            probe(&mut i, hash_values(k.iter()), &k).expect_err("past the limit");
            probe(&mut i, hash_values(key(&[1]).iter()), &k).expect_err("past the limit");
        }
        assert_eq!(i.memory_bytes(), bytes);
        assert_eq!(i.audit_bytes(), bytes);
        assert_eq!(i.len(), 2);
        assert_eq!(i.heads.len(), heads);
        assert_eq!(i.next, next);
        assert_eq!(i.values.len(), 2);
        assert!(i.free.is_empty());
        assert_eq!(intern(&mut i, &[1]), PartitionId(0));
        assert_eq!(
            probe(&mut i, hash_values(key(&[1]).iter()), &chained),
            Ok(PartitionId(1))
        );
    }

    #[test]
    fn key_limit_bounds_resident_keys_not_keys_ever_seen() {
        // Regression for the former `expect("more than u32::MAX
        // partitions")` panic: at the ceiling the interner returns a
        // typed error instead, and everything resident still routes.
        let mut i = KeyInterner::new(1);
        i.set_limit(2);
        assert_eq!(intern(&mut i, &[1]), PartitionId(0));
        assert_eq!(intern(&mut i, &[2]), PartitionId(1));
        let k = key(&[3]);
        let overflow =
            probe(&mut i, hash_values(k.iter()), &k).expect_err("third resident key is over");
        assert_eq!(overflow, KeyOverflow { limit: 2 });
        assert_eq!(intern(&mut i, &[1]), PartitionId(0));
        assert_eq!(intern(&mut i, &[2]), PartitionId(1));
        assert_eq!(i.len(), 2);
        // Room is what retiring makes: the refused key fits once another
        // has gone, and a stream that keeps at most two keys resident
        // never overflows however many it mints.
        i.retire(PartitionId(0));
        assert_eq!(probe(&mut i, hash_values(k.iter()), &k), Ok(PartitionId(0)));
        for fresh in 10..1_000 {
            i.retire(PartitionId(0));
            assert_eq!(intern(&mut i, &[fresh]), PartitionId(0));
        }
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn in_place_hash_equals_materialized_hash() {
        let k = key(&[1, -9, 42]);
        let h1 = hash_values(k.iter());
        // "In place": hash the same logical values from another container.
        let vals = [Value::Int(1), Value::Int(-9), Value::Int(42)];
        let h2 = hash_values(vals.iter());
        assert_eq!(h1, h2);
    }
}
