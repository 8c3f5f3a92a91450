//! Partition-key interning: the zero-allocation half of the routing hot
//! path.
//!
//! The paper's constant-time-per-event claim (§3, §7) only holds if the
//! per-event bookkeeping is constant too. The seed router paid for a
//! fresh `Vec<Value>` *per event* just to probe `HashMap<GroupKey, _>`,
//! plus a SipHash over that vector. [`KeyInterner`] removes both costs:
//!
//! * the event's partition attributes are hashed **in place** (the caller
//!   folds each [`Value`] into an [`fxhash::FxHasher`] straight off the
//!   event, no scratch vector);
//! * the hash probes a bucket of candidate [`PartitionId`]s; candidates
//!   are confirmed by comparing the event's attributes against the
//!   interned key **element-wise**, again without materializing;
//! * only a **first-seen** key allocates: the caller's `materialize`
//!   closure builds the one `Vec<Value>` that lives for the interner's
//!   lifetime, and the key gets the next dense id.
//!
//! Dense ids are the second half of the bargain: `PartitionId(u32)`
//! indexes a plain `Vec` of partition states, so the router's per-event
//! map lookup becomes an array index. Ids are stable for the interner's
//! lifetime — a partition that goes quiet and returns maps back to the
//! same id, which also keeps results reproducible across drain cadences.
//!
//! [`RunStats`] counts probes and first-seen materializations; the
//! difference is the number of events routed with **zero** heap
//! allocations, surfaced all the way up through `SessionRun` so tests
//! (and users) can assert the hot path stays allocation-free.

use crate::output::GroupKey;
use cogra_events::Value;
use fxhash::{FxHashMap, FxHasher};
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
    /// First-seen partition keys materialized. The *only* probes that
    /// heap-allocate; `key_probes - key_allocs` events were routed with
    /// zero allocations.
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
    pub fn load(
        dec: &mut cogra_checkpoint::Dec,
    ) -> Result<RunStats, cogra_checkpoint::CheckpointError> {
        Ok(RunStats {
            key_probes: dec.u64()?,
            key_allocs: dec.u64()?,
        })
    }
}

/// The interner refused to materialize another key: the number of
/// distinct partition keys reached the configured ceiling (by default
/// `u32::MAX`, the dense-id address space itself). Surfaced as a typed
/// ingest error instead of a worker-thread panic — unbounded key churn is
/// a data problem, not a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyOverflow {
    /// The limit that was hit.
    pub limit: u32,
}

/// Interner from partition keys to dense [`PartitionId`]s.
///
/// Generic over nothing but driven by closures, so the caller decides how
/// to compare a candidate against the (never materialized) probe key and
/// how to build the key on first sight — see [`KeyInterner::intern_with`].
#[derive(Debug)]
pub struct KeyInterner {
    /// `keys[id]` — the interned key. Never shrinks: id stability is part
    /// of the contract.
    keys: Vec<GroupKey>,
    /// hash → ids of the keys with that hash (almost always exactly one;
    /// collisions are resolved by the caller's equality check).
    buckets: FxHashMap<u64, Vec<u32>>,
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

impl Default for KeyInterner {
    fn default() -> KeyInterner {
        KeyInterner {
            keys: Vec::new(),
            buckets: FxHashMap::default(),
            stats: RunStats::default(),
            bytes: 0,
            limit: u32::MAX,
        }
    }
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

    /// An empty interner.
    pub fn new() -> KeyInterner {
        KeyInterner::default()
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
    /// stored candidate equals the probe key (called for each candidate in
    /// the hash's bucket — usually at most one); `materialize` builds the
    /// owned key if, and only if, it was never seen before.
    ///
    /// `hash` must be [`hash_values`] over the same value sequence that
    /// `matches` compares and `materialize` produces.
    ///
    /// A first-seen key past the configured limit is refused with
    /// [`KeyOverflow`]; re-probes of already-interned keys always succeed.
    pub fn intern_with(
        &mut self,
        hash: u64,
        mut matches: impl FnMut(&[Value]) -> bool,
        materialize: impl FnOnce() -> GroupKey,
    ) -> Result<PartitionId, KeyOverflow> {
        self.stats.key_probes += 1;
        if let Some(bucket) = self.buckets.get(&hash) {
            for &id in bucket {
                if matches(&self.keys[id as usize]) {
                    return Ok(PartitionId(id));
                }
            }
        }
        // First sight: materialize and assign the next dense id — unless
        // the key population hit the ceiling. (`len() < limit <= u32::MAX`
        // also guarantees the id fits in a `u32` without a checked cast.)
        // A refused key must leave no trace, so the table is only touched
        // once the key is accepted.
        if self.keys.len() >= self.limit as usize {
            return Err(KeyOverflow { limit: self.limit });
        }
        self.stats.key_allocs += 1;
        let key = materialize();
        debug_assert!(matches(&key), "materialized key must match its own probe");
        Ok(self.insert(hash, key))
    }

    /// Append `key` under `hash` with the next dense id — the one place
    /// the table grows, and so the one place `bytes` does.
    fn insert(&mut self, hash: u64, key: GroupKey) -> PartitionId {
        let id = self.keys.len() as u32;
        self.bytes += std::mem::size_of::<GroupKey>()
            + key.iter().map(Value::memory_bytes).sum::<usize>()
            + std::mem::size_of::<u32>();
        let bucket = self.buckets.entry(hash).or_insert_with(|| {
            self.bytes += std::mem::size_of::<(u64, Vec<u32>)>();
            Vec::new()
        });
        bucket.push(id);
        self.keys.push(key);
        PartitionId(id)
    }

    /// The interned key of `id`.
    #[inline]
    pub fn resolve(&self, id: PartitionId) -> &[Value] {
        &self.keys[id.index()]
    }

    /// Number of distinct keys interned so far (also the next id).
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no key has been interned yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Probe/allocation counters since construction.
    #[inline]
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// All interned keys in dense-id order.
    #[inline]
    pub fn keys(&self) -> &[GroupKey] {
        &self.keys
    }

    /// Rebuild an interner from saved keys (dense-id order) and counters.
    /// Buckets are recomputed with [`hash_values`], so ids and probe
    /// behavior match an interner that saw the same keys first-hand —
    /// this is how a restored router re-interns a (possibly compacted)
    /// key set. A key set too large for the dense `u32` id space is
    /// refused instead of panicking (it cannot come from a well-formed
    /// snapshot, so it is corruption, not load).
    pub fn from_parts(keys: Vec<GroupKey>, stats: RunStats) -> Result<KeyInterner, KeyOverflow> {
        if u32::try_from(keys.len()).is_err() {
            return Err(KeyOverflow { limit: u32::MAX });
        }
        let mut interner = KeyInterner {
            stats,
            ..KeyInterner::default()
        };
        interner.keys.reserve(keys.len());
        for key in keys {
            interner.insert(hash_values(key.iter()), key);
        }
        Ok(interner)
    }

    /// Logical memory footprint: interned key values plus table overhead.
    /// Keys are retained for the interner's lifetime (id stability), so
    /// this grows with the number of *distinct* keys, not with the stream.
    /// O(1): the figure is maintained at insert.
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.bytes
    }

    /// The definition [`KeyInterner::memory_bytes`] must equal, computed
    /// by walking every key and bucket — the test oracle, not built into
    /// release code.
    #[cfg(any(test, debug_assertions))]
    pub fn audit_bytes(&self) -> usize {
        let keys: usize = self
            .keys
            .iter()
            .map(|k| {
                std::mem::size_of::<GroupKey>() + k.iter().map(Value::memory_bytes).sum::<usize>()
            })
            .sum();
        let table: usize = self
            .buckets
            .values()
            .map(|ids| std::mem::size_of::<(u64, Vec<u32>)>() + std::mem::size_of_val(&ids[..]))
            .sum();
        keys + table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(vals: &[i64]) -> GroupKey {
        vals.iter().copied().map(Value::Int).collect()
    }

    fn intern(interner: &mut KeyInterner, vals: &[i64]) -> PartitionId {
        let k = key(vals);
        let hash = hash_values(k.iter());
        interner
            .intern_with(hash, |cand| cand == &k[..], || k.clone())
            .expect("under the key limit")
    }

    #[test]
    fn dense_ids_in_first_seen_order() {
        let mut i = KeyInterner::new();
        assert_eq!(intern(&mut i, &[7]), PartitionId(0));
        assert_eq!(intern(&mut i, &[9]), PartitionId(1));
        assert_eq!(intern(&mut i, &[7]), PartitionId(0), "id is stable");
        assert_eq!(i.len(), 2);
        assert_eq!(i.resolve(PartitionId(1)), &key(&[9])[..]);
    }

    #[test]
    fn collision_probe_separates_distinct_keys() {
        // Force both keys into one bucket with an identical (fake) hash:
        // the element-wise equality check must keep them apart.
        let mut i = KeyInterner::new();
        let a = key(&[1, 2]);
        let b = key(&[2, 1]);
        let ia = i.intern_with(42, |c| c == &a[..], || a.clone());
        let ib = i.intern_with(42, |c| c == &b[..], || b.clone());
        assert_ne!(ia, ib);
        assert_eq!(i.intern_with(42, |c| c == &a[..], || a.clone()), ia);
        assert_eq!(i.intern_with(42, |c| c == &b[..], || b.clone()), ib);
        assert_eq!(i.len(), 2);
        let s = i.stats();
        assert_eq!(s.key_probes, 4);
        assert_eq!(s.key_allocs, 2, "re-probes allocate nothing");
    }

    #[test]
    fn stats_count_probes_and_allocs() {
        let mut i = KeyInterner::new();
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
        let mut i = KeyInterner::new();
        assert_eq!(i.memory_bytes(), 0);
        intern(&mut i, &[1]);
        let one = i.memory_bytes();
        assert_eq!(one, i.audit_bytes());
        for _ in 0..100 {
            intern(&mut i, &[1]);
        }
        assert_eq!(i.memory_bytes(), one, "re-probes allocate nothing");
        intern(&mut i, &[2]);
        assert!(i.memory_bytes() > one);
        assert_eq!(i.memory_bytes(), i.audit_bytes());
    }

    #[test]
    fn counter_equals_the_walk_across_collisions_strings_and_rebuilds() {
        let mut i = KeyInterner::new();
        // Two keys forced into one bucket, one alone, one with a heap part.
        let a = key(&[1, 2]);
        let b = key(&[2, 1]);
        let s: GroupKey = vec![Value::str("a-rather-long-session-id"), Value::Int(9)];
        i.intern_with(42, |c| c == &a[..], || a.clone()).unwrap();
        assert_eq!(i.memory_bytes(), i.audit_bytes());
        i.intern_with(42, |c| c == &b[..], || b.clone()).unwrap();
        assert_eq!(i.memory_bytes(), i.audit_bytes());
        i.intern_with(hash_values(s.iter()), |c| c == &s[..], || s.clone())
            .unwrap();
        assert_eq!(i.memory_bytes(), i.audit_bytes());
        // A rebuilt interner re-buckets by the real hashes: same keys, its
        // own table, and a counter seeded to match it.
        let rebuilt = KeyInterner::from_parts(i.keys().to_vec(), i.stats()).unwrap();
        assert_eq!(rebuilt.memory_bytes(), rebuilt.audit_bytes());
        assert_eq!(rebuilt.len(), 3);
    }

    #[test]
    fn refused_keys_leave_no_trace_in_the_table() {
        // Regression: the probe used to create the hash's bucket *before*
        // the limit check, so every refused first-seen key left an empty
        // bucket behind and the table grew without bound under the very
        // guard meant to bound it.
        let mut i = KeyInterner::new();
        i.set_limit(2);
        intern(&mut i, &[1]);
        intern(&mut i, &[2]);
        let (bytes, buckets) = (i.memory_bytes(), i.buckets.len());
        for fresh in 100..10_100 {
            let k = key(&[fresh]);
            i.intern_with(hash_values(k.iter()), |c| c == &k[..], || k.clone())
                .expect_err("past the limit");
        }
        assert_eq!(i.memory_bytes(), bytes);
        assert_eq!(i.audit_bytes(), bytes);
        assert_eq!(i.len(), 2);
        assert_eq!(i.buckets.len(), buckets);
        assert_eq!(intern(&mut i, &[1]), PartitionId(0));
        assert_eq!(intern(&mut i, &[2]), PartitionId(1));
    }

    #[test]
    fn key_limit_refuses_fresh_keys_but_keeps_serving_old_ones() {
        // Regression for the former `expect("more than u32::MAX
        // partitions")` panic: past the ceiling the interner returns a
        // typed error instead, and everything already interned still
        // routes.
        let mut i = KeyInterner::new();
        i.set_limit(2);
        assert_eq!(intern(&mut i, &[1]), PartitionId(0));
        assert_eq!(intern(&mut i, &[2]), PartitionId(1));
        let k = key(&[3]);
        let overflow = i
            .intern_with(hash_values(k.iter()), |c| c == &k[..], || k.clone())
            .expect_err("third distinct key is over the limit");
        assert_eq!(overflow, KeyOverflow { limit: 2 });
        // Old keys keep resolving to their stable ids…
        assert_eq!(intern(&mut i, &[1]), PartitionId(0));
        assert_eq!(intern(&mut i, &[2]), PartitionId(1));
        assert_eq!(i.len(), 2);
        // …and the refused probe counted as a probe, not an allocation.
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
