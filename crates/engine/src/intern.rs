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
//!   that buffer and gets the next dense id — the only heap traffic is
//!   the amortised doubling of three containers, and dropping an interner
//!   frees three blocks however many keys it holds.
//!
//! Dense ids are the second half of the bargain: `PartitionId(u32)`
//! indexes a plain `Vec` of partition states, so the router's per-event
//! map lookup becomes an array index. Ids are stable for the interner's
//! lifetime — a partition that goes quiet and returns maps back to the
//! same id, which also keeps results reproducible across drain cadences.
//!
//! [`RunStats`] counts probes and first-seen keys; the difference is the
//! number of events whose key was already known, surfaced all the way up
//! through `SessionRun` so tests (and users) can watch key churn.

use crate::output::GroupKey;
use cogra_checkpoint::CheckpointError;
use cogra_events::Value;
use fxhash::{FxHashMap, FxHasher};
use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};

/// Dense identifier of an interned partition key. Ids are handed out in
/// first-seen order, so they index contiguous `Vec` storage directly.
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Interner probes — one per event that reached partition routing.
    pub key_probes: u64,
    /// First-seen keys: probes that found no interned key and appended
    /// one. `key_probes - key_allocs` events carried a key already known.
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

/// The interner refused another key: the number of distinct partition
/// keys reached the configured ceiling (by default `u32::MAX`, the
/// dense-id address space itself). Surfaced as a typed ingest error
/// instead of a worker-thread panic — unbounded key churn is a data
/// problem, not a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyOverflow {
    /// The limit that was hit.
    pub limit: u32,
}

/// End of a same-hash chain in [`KeyInterner::next`]. Never a key id:
/// ids stay below the limit, which is at most `u32::MAX`.
const NIL: u32 = u32::MAX;

/// Interner from partition keys to dense [`PartitionId`]s.
///
/// Generic over nothing but driven by a closure, so the caller decides
/// how to compare a candidate against the (never materialized) probe key
/// — see [`KeyInterner::intern_with`].
#[derive(Debug)]
pub struct KeyInterner {
    /// Values per key — the stride of `values`.
    arity: usize,
    /// Every key back to back, dense-id order: key `id` is
    /// `values[id * arity..][..arity]`. Never shrinks: id stability is
    /// part of the contract.
    values: Vec<Value>,
    /// `next[id]` — the next id with the same hash, or [`NIL`]. One entry
    /// per key, so its length is the key count (also when `arity` is 0).
    next: Vec<u32>,
    /// hash → the first-interned id with that hash; later ones hang off
    /// it through `next`, in first-seen order.
    heads: FxHashMap<u64, u32>,
    stats: RunStats,
    /// [`KeyInterner::memory_bytes`], maintained where keys are inserted
    /// so a read costs nothing ([`KeyInterner::audit_bytes`] is the
    /// walked definition it must equal).
    bytes: usize,
    /// Maximum number of distinct keys this interner will hold. The
    /// default is the full `u32` id space; sessions lower it via
    /// `EngineConfig::key_limit` to turn unbounded key churn into a typed
    /// error instead of unbounded memory growth.
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
            stats: RunStats::default(),
            bytes: 0,
            limit: u32::MAX,
        }
    }

    /// Values per key.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Cap the number of distinct keys at `limit`. Existing keys are
    /// unaffected (ids are stable); once `len()` reaches the limit, every
    /// first-seen probe returns [`KeyOverflow`].
    pub fn set_limit(&mut self, limit: u32) {
        self.limit = limit;
    }

    /// The configured distinct-key ceiling.
    #[inline]
    pub fn limit(&self) -> u32 {
        self.limit
    }

    /// Intern the key with the given `hash`. `matches` decides whether a
    /// stored candidate equals the probe key (called for each key with
    /// that hash — usually at most one); `key` yields the key's values
    /// and is consumed if, and only if, the key was never seen before:
    /// they are written straight into the flat buffer, no temporary.
    ///
    /// `hash` must be [`hash_values`] over the same value sequence that
    /// `matches` compares and `key` yields, and `key` must yield exactly
    /// [`KeyInterner::arity`] values (anything else is a bug in the
    /// caller and panics rather than mis-stride every later key).
    ///
    /// A first-seen key past the configured limit is refused with
    /// [`KeyOverflow`] and leaves no trace; re-probes of already-interned
    /// keys always succeed.
    pub fn intern_with(
        &mut self,
        hash: u64,
        mut matches: impl FnMut(&[Value]) -> bool,
        key: impl IntoIterator<Item = Value>,
    ) -> Result<PartitionId, KeyOverflow> {
        self.stats.key_probes += 1;
        let known = self.next.len();
        let id = self.find_or_append(hash, &mut matches, key)?;
        if id.index() == known {
            self.stats.key_allocs += 1;
            debug_assert!(
                matches(self.resolve(id)),
                "an interned key must match its own probe"
            );
        }
        Ok(id)
    }

    /// The id of the key under `hash` that `matches` accepts, or else the
    /// next dense id with `key` appended under it — the one place the
    /// table grows, and so the one place `bytes` does.
    fn find_or_append(
        &mut self,
        hash: u64,
        matches: &mut impl FnMut(&[Value]) -> bool,
        key: impl IntoIterator<Item = Value>,
    ) -> Result<PartitionId, KeyOverflow> {
        // `len() < limit <= u32::MAX` below guarantees the next id fits in
        // a `u32` (and is not `NIL`) without a checked cast. A refused key
        // must leave no trace, so nothing is touched before the check.
        let id = self.next.len();
        let full = id >= self.limit as usize;
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
                    return Err(KeyOverflow { limit: self.limit });
                }
                self.next[at as usize] = id as u32;
            }
            Entry::Vacant(slot) => {
                if full {
                    return Err(KeyOverflow { limit: self.limit });
                }
                slot.insert(id as u32);
                self.bytes += Self::HEAD_BYTES;
            }
        }
        self.next.push(NIL);
        self.values.extend(key);
        let start = id * self.arity;
        assert_eq!(
            self.values.len(),
            start + self.arity,
            "a key must have the interner's arity"
        );
        self.bytes += Self::LINK_BYTES
            + self.values[start..]
                .iter()
                .map(Value::memory_bytes)
                .sum::<usize>();
        Ok(PartitionId(id as u32))
    }

    /// The interned key of `id`.
    #[inline]
    pub fn resolve(&self, id: PartitionId) -> &[Value] {
        let start = id.index() * self.arity;
        &self.values[start..start + self.arity]
    }

    /// Number of distinct keys interned so far (also the next id).
    #[inline]
    pub fn len(&self) -> usize {
        self.next.len()
    }

    /// Whether no key has been interned yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.next.is_empty()
    }

    /// Probe/first-seen counters since construction.
    #[inline]
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Rebuild an interner from saved keys (dense-id order) and counters.
    /// The table is recomputed with [`hash_values`], so ids and probe
    /// behavior match an interner that saw the same keys first-hand —
    /// this is how a restored router re-interns a (possibly compacted)
    /// key set. A key of another arity, or a key set too large for the
    /// dense `u32` id space, cannot come from a well-formed snapshot: it
    /// is refused as corruption instead of mis-striding or panicking.
    pub fn from_parts(
        arity: usize,
        keys: Vec<GroupKey>,
        stats: RunStats,
    ) -> Result<KeyInterner, CheckpointError> {
        if u32::try_from(keys.len()).is_err() {
            return Err(CheckpointError::Corrupt(format!(
                "snapshot holds more than {} distinct partition keys",
                u32::MAX
            )));
        }
        let mut interner = KeyInterner::new(arity);
        interner.stats = stats;
        interner.values.reserve(keys.len() * arity);
        interner.next.reserve(keys.len());
        for key in keys {
            if key.len() != arity {
                return Err(CheckpointError::Corrupt(format!(
                    "partition key with {} values where the query partitions by {arity}",
                    key.len()
                )));
            }
            // Saved keys are distinct ids by position, whatever they hold.
            interner
                .find_or_append(hash_values(key.iter()), &mut |_| false, key)
                .expect("the key count was checked against the id space");
        }
        Ok(interner)
    }

    /// Logical memory footprint: interned key values plus table overhead
    /// (a 4-byte link per key, a 16-byte entry per distinct hash). Keys
    /// are retained for the interner's lifetime (id stability), so this
    /// grows with the number of *distinct* keys, not with the stream.
    /// O(1): the figure is maintained at insert.
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.bytes
    }

    /// The definition [`KeyInterner::memory_bytes`] must equal, computed
    /// by walking the flat buffer and the table — the test oracle, not
    /// built into release code.
    #[cfg(any(test, debug_assertions))]
    pub fn audit_bytes(&self) -> usize {
        self.values.iter().map(Value::memory_bytes).sum::<usize>()
            + self.next.len() * Self::LINK_BYTES
            + self.heads.len() * Self::HEAD_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(intern(&mut i, &[7]), PartitionId(0), "id is stable");
        assert_eq!(i.len(), 2);
        assert_eq!(i.resolve(PartitionId(1)), &key(&[9])[..]);
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
        let s = i.stats();
        assert_eq!(s.key_probes, 6);
        assert_eq!(s.key_allocs, 3, "re-probes intern nothing");
    }

    #[test]
    fn stats_count_probes_and_first_seen_keys() {
        let mut i = KeyInterner::new(1);
        for _ in 0..5 {
            intern(&mut i, &[3]);
        }
        intern(&mut i, &[4]);
        let s = i.stats();
        assert_eq!(s.key_probes, 6);
        assert_eq!(s.key_allocs, 2);
        let mut total = RunStats::default();
        total.merge(s);
        total.merge(s);
        assert_eq!(total.key_probes, 12);
    }

    #[test]
    fn memory_accounting_grows_with_distinct_keys_only() {
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
    }

    #[test]
    fn counter_equals_the_walk_across_collisions_strings_and_rebuilds() {
        let mut i = KeyInterner::new(2);
        // Two keys forced onto one chain, one alone, one with a heap part.
        let a = key(&[1, 2]);
        let b = key(&[2, 1]);
        let s: GroupKey = vec![Value::str("a-rather-long-session-id"), Value::Int(9)];
        probe(&mut i, 42, &a).unwrap();
        assert_eq!(i.memory_bytes(), i.audit_bytes());
        probe(&mut i, 42, &b).unwrap();
        assert_eq!(i.memory_bytes(), i.audit_bytes());
        probe(&mut i, hash_values(s.iter()), &s).unwrap();
        assert_eq!(i.memory_bytes(), i.audit_bytes());
        // A rebuilt interner re-chains by the real hashes: same keys and
        // ids, its own table, and a counter seeded to match it.
        let keys = vec![a.clone(), b.clone(), s.clone()];
        let mut rebuilt = KeyInterner::from_parts(2, keys.clone(), i.stats()).unwrap();
        assert_eq!(rebuilt.memory_bytes(), rebuilt.audit_bytes());
        assert_eq!(rebuilt.len(), 3);
        assert_eq!(rebuilt.stats(), i.stats());
        for (id, k) in keys.iter().enumerate() {
            assert_eq!(rebuilt.resolve(PartitionId(id as u32)), &k[..]);
            assert_eq!(
                probe(&mut rebuilt, hash_values(k.iter()), k),
                Ok(PartitionId(id as u32))
            );
        }
    }

    #[test]
    fn from_parts_refuses_a_key_of_another_arity() {
        let err = KeyInterner::from_parts(2, vec![key(&[1, 2]), key(&[3])], RunStats::default())
            .expect_err("a one-value key among two-value keys");
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err:?}");
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
    }

    #[test]
    fn refused_keys_leave_no_trace_in_the_table() {
        // Regression: the probe used to touch the table *before* the limit
        // check, so every refused first-seen key left an entry behind and
        // the table grew without bound under the very guard meant to
        // bound it. Refusals both off a fresh hash and off the end of an
        // existing chain must leave keys, links and heads as they were.
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
        assert_eq!(intern(&mut i, &[1]), PartitionId(0));
        assert_eq!(
            probe(&mut i, hash_values(key(&[1]).iter()), &chained),
            Ok(PartitionId(1))
        );
    }

    #[test]
    fn key_limit_refuses_fresh_keys_but_keeps_serving_old_ones() {
        // Regression for the former `expect("more than u32::MAX
        // partitions")` panic: past the ceiling the interner returns a
        // typed error instead, and everything already interned still
        // routes.
        let mut i = KeyInterner::new(1);
        i.set_limit(2);
        assert_eq!(intern(&mut i, &[1]), PartitionId(0));
        assert_eq!(intern(&mut i, &[2]), PartitionId(1));
        let k = key(&[3]);
        let overflow =
            probe(&mut i, hash_values(k.iter()), &k).expect_err("third distinct key is over");
        assert_eq!(overflow, KeyOverflow { limit: 2 });
        // Old keys keep resolving to their stable ids…
        assert_eq!(intern(&mut i, &[1]), PartitionId(0));
        assert_eq!(intern(&mut i, &[2]), PartitionId(1));
        assert_eq!(i.len(), 2);
        // …and the refused probe counted as a probe, not a first-seen key.
        let s = i.stats();
        assert_eq!(s.key_probes, 5);
        assert_eq!(s.key_allocs, 2);
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
