//! The one cache primitive behind every TTL/LRU cache in the system.
//!
//! The gateway content cache, the host page cache, the database's
//! `select_eq` cache and its search memo are all the same structure: a
//! derived projection of some source of truth, answered from memory
//! while fresh, dropped by a TTL measured in simulated nanoseconds, by
//! least-recently-used eviction under a cost budget, or by a post-write
//! invalidation hook. [`TtlLru`] is that structure once; each cache is a
//! thin adapter that owns only its key rendering, admission rules and
//! cost.
//!
//! Probes never allocate. Callers hash their *borrowed* key fields
//! (see [`probe_hasher`](crate::intern::probe_hasher)) and pass an
//! equality closure against stored keys; an owned key is built only
//! when an entry is actually inserted, and it lives and dies with its
//! entry. A high-cardinality key stream therefore holds no more memory
//! than the entries the budget admits.
//!
//! Everything is deterministic: no wall clock, and the LRU clock is a
//! logical tick bumped on every touch, so the eviction victim (minimum
//! tick) is unique whatever the `HashMap` iteration order.

use std::collections::hash_map::{Entry as MapEntry, OccupiedEntry};
use std::collections::HashMap;

#[derive(Debug, Clone)]
struct Slot<K, V> {
    key: K,
    value: V,
    stored_ns: u64,
    last_used: u64,
    cost: usize,
}

type Bucket<K, V> = Vec<Slot<K, V>>;

/// Removes slot `i` from its bucket, dropping the bucket when it empties
/// so that memory follows the live entries.
fn take<K, V>(mut bucket: OccupiedEntry<'_, u64, Bucket<K, V>>, i: usize) -> Slot<K, V> {
    let slot = bucket.get_mut().swap_remove(i);
    if bucket.get().is_empty() {
        bucket.remove();
    }
    slot
}

/// A TTL + LRU cache over caller-hashed keys, bounded by a cost budget.
#[derive(Debug, Clone)]
pub struct TtlLru<K, V> {
    ttl_ns: Option<u64>,
    budget: usize,
    /// Caller probe hash → the entries sharing it; never an empty bucket.
    buckets: HashMap<u64, Bucket<K, V>>,
    cost: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl<K, V> TtlLru<K, V> {
    /// An empty cache. An entry stored at `t` is fresh strictly before
    /// `t + ttl` and expired at exactly `t + ttl`; `None` disables
    /// expiry. Entries are admitted while their summed cost stays within
    /// `budget`.
    pub fn new(ttl_ns: Option<u64>, budget: usize) -> Self {
        TtlLru {
            ttl_ns,
            budget,
            buckets: HashMap::new(),
            cost: 0,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The freshness window in force.
    pub fn ttl_ns(&self) -> Option<u64> {
        self.ttl_ns
    }

    /// Replaces the freshness window; stored entries are judged by the
    /// new one from the next probe on.
    pub fn set_ttl(&mut self, ttl_ns: Option<u64>) {
        self.ttl_ns = ttl_ns;
    }

    /// Returns the fresh value whose key has probe hash `hash` and
    /// satisfies `eq`, counting a hit or a miss. A hit marks the entry
    /// most recently used; an expired entry is dropped through the same
    /// probe.
    pub fn get(&mut self, hash: u64, mut eq: impl FnMut(&K) -> bool, now_ns: u64) -> Option<&V> {
        let found = match self.buckets.entry(hash) {
            MapEntry::Occupied(occ) => occ.get().iter().position(|s| eq(&s.key)).map(|i| (occ, i)),
            MapEntry::Vacant(_) => None,
        };
        let Some((occ, i)) = found else {
            self.misses += 1;
            return None;
        };
        let age = now_ns.saturating_sub(occ.get()[i].stored_ns);
        if self.ttl_ns.is_some_and(|ttl| age >= ttl) {
            self.cost -= take(occ, i).cost;
            self.misses += 1;
            return None;
        }
        self.hits += 1;
        self.tick += 1;
        let slot = &mut occ.into_mut()[i];
        slot.last_used = self.tick;
        Some(&slot.value)
    }

    /// Stores `value` under the key with probe hash `hash` that `eq`
    /// matches, replacing an existing entry or building the key with
    /// `make_key`, then evicts least-recently-used entries until the
    /// budget holds. Returns the number of evictions. An entry costing
    /// more than the whole budget is not stored.
    pub fn insert(
        &mut self,
        hash: u64,
        mut eq: impl FnMut(&K) -> bool,
        make_key: impl FnOnce() -> K,
        value: V,
        cost: usize,
        now_ns: u64,
    ) -> usize {
        if cost > self.budget {
            return 0;
        }
        self.tick += 1;
        let bucket = self.buckets.entry(hash).or_default();
        let key = match bucket.iter().position(|s| eq(&s.key)) {
            Some(i) => {
                let old = bucket.swap_remove(i);
                self.cost -= old.cost;
                old.key
            }
            None => make_key(),
        };
        bucket.push(Slot {
            key,
            value,
            stored_ns: now_ns,
            last_used: self.tick,
            cost,
        });
        self.cost += cost;
        let mut evicted = 0;
        while self.cost > self.budget {
            self.evict_lru();
            evicted += 1;
        }
        evicted
    }

    /// Drops the least-recently-used entry: one scan, deliberately — the
    /// caches that evict at all hold tens of entries.
    fn evict_lru(&mut self) {
        let (_, hash, i) = self
            .buckets
            .iter()
            .flat_map(|(&h, b)| b.iter().enumerate().map(move |(i, s)| (s.last_used, h, i)))
            .min()
            .expect("over budget implies non-empty");
        let MapEntry::Occupied(occ) = self.buckets.entry(hash) else {
            unreachable!("the victim's bucket exists");
        };
        self.cost -= take(occ, i).cost;
    }

    /// Keeps only the entries whose key satisfies `keep` — the
    /// invalidation hook. Returns whether anything was dropped.
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) -> bool {
        let before = self.len();
        self.buckets.retain(|_, bucket| {
            bucket.retain(|s| keep(&s.key));
            !bucket.is_empty()
        });
        self.cost = self.buckets.values().flatten().map(|s| s.cost).sum();
        self.len() != before
    }

    /// Drops every entry; hit/miss counts are kept.
    pub fn clear(&mut self) {
        self.buckets.clear();
        self.cost = 0;
    }

    /// Number of live entries, each holding its own key.
    pub fn len(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Summed cost of the live entries.
    pub fn cost(&self) -> usize {
        self.cost
    }

    /// Fresh lookups answered since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing fresh since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Keys in these tests are small integers hashed to themselves; a
    /// few share hashes to exercise bucket collisions.
    fn hash(k: u32) -> u64 {
        u64::from(k % 5)
    }

    fn get(c: &mut TtlLru<u32, u32>, k: u32, now: u64) -> Option<u32> {
        c.get(hash(k), |&s| s == k, now).copied()
    }

    fn insert(c: &mut TtlLru<u32, u32>, k: u32, v: u32, cost: usize, now: u64) -> usize {
        c.insert(hash(k), |&s| s == k, || k, v, cost, now)
    }

    #[test]
    fn entries_expire_at_exactly_the_ttl_boundary() {
        let mut c = TtlLru::new(Some(1_000), 10);
        insert(&mut c, 1, 7, 1, 0);
        assert_eq!(get(&mut c, 1, 999), Some(7), "one tick early: fresh");
        assert_eq!(
            get(&mut c, 1, 1_000),
            None,
            "at exactly stored + ttl: expired"
        );
        assert!(c.is_empty(), "the expired entry is dropped by the probe");
        assert_eq!(c.cost(), 0);
    }

    #[test]
    fn no_ttl_means_no_expiry() {
        let mut c = TtlLru::new(None, 10);
        insert(&mut c, 1, 7, 1, 0);
        assert_eq!(get(&mut c, 1, u64::MAX), Some(7));
        c.set_ttl(Some(10));
        assert_eq!(
            get(&mut c, 1, 10),
            None,
            "a new window applies to old entries"
        );
    }

    #[test]
    fn the_least_recently_used_entry_is_evicted_first() {
        let mut c = TtlLru::new(None, 3);
        for k in [1, 2, 3] {
            insert(&mut c, k, k, 1, 0);
        }
        // Touch 1, then re-store 2: 3 is now the oldest.
        assert_eq!(get(&mut c, 1, 1), Some(1));
        insert(&mut c, 2, 20, 1, 1);
        assert_eq!(insert(&mut c, 4, 4, 1, 2), 1);
        assert_eq!(get(&mut c, 3, 3), None);
        // A cost-2 entry then takes 1 (touched before 2's re-store) and 2.
        assert_eq!(insert(&mut c, 5, 5, 2, 3), 2);
        assert_eq!(get(&mut c, 1, 4), None);
        assert_eq!(get(&mut c, 2, 4), None);
        assert_eq!(get(&mut c, 4, 4), Some(4));
        assert_eq!(get(&mut c, 5, 4), Some(5));
        assert_eq!((c.len(), c.cost()), (2, 3));
    }

    #[test]
    fn oversized_entries_are_rejected_and_leave_the_old_value() {
        let mut c = TtlLru::new(None, 10);
        insert(&mut c, 1, 7, 4, 0);
        assert_eq!(insert(&mut c, 1, 8, 11, 1), 0);
        assert_eq!(get(&mut c, 1, 2), Some(7));
        assert_eq!(c.cost(), 4);
    }

    #[test]
    fn retain_drops_exactly_the_rejected_keys() {
        let mut c = TtlLru::new(None, 100);
        for k in 0..10 {
            insert(&mut c, k, k, 2, 0);
        }
        assert!(c.retain(|&k| k % 2 == 0));
        assert!(!c.retain(|&k| k % 2 == 0), "nothing left to drop");
        assert_eq!((c.len(), c.cost()), (5, 10));
        assert_eq!(get(&mut c, 3, 1), None);
        assert_eq!(get(&mut c, 4, 1), Some(4));
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn hits_and_misses_count_every_probe() {
        let mut c = TtlLru::new(Some(10), 10);
        assert_eq!(get(&mut c, 1, 0), None); // absent
        insert(&mut c, 1, 1, 1, 0);
        assert_eq!(get(&mut c, 6, 0), None); // same bucket, other key
        assert_eq!(get(&mut c, 1, 5), Some(1));
        assert_eq!(get(&mut c, 1, 10), None); // expired
        assert_eq!((c.hits(), c.misses()), (1, 3));
    }

    #[test]
    fn distinct_keys_are_held_only_while_their_entries_live() {
        // The interner this replaces kept every key ever stored, so an
        // admitted high-cardinality stream grew it without bound.
        let mut c: TtlLru<String, u32> = TtlLru::new(None, 2);
        for i in 0..10_000u64 {
            let key = format!("/search?q=term{i}");
            c.insert(i, |k| *k == key, || key.clone(), 0, 1, i);
        }
        assert!(c.len() <= 2);
        assert!(c.buckets.len() <= 2, "empty buckets are dropped too");
    }

    #[derive(Debug, Clone)]
    enum Op {
        Get(u32),
        Insert(u32, usize),
        Retain(u32),
        Clear,
        Advance(u64),
    }

    fn op() -> impl Strategy<Value = Op> {
        // Gets and inserts drawn three times as often as the rest.
        let get = || (0..12u32).prop_map(Op::Get);
        let insert = || (0..12u32, 0..5usize).prop_map(|(k, c)| Op::Insert(k, c));
        prop_oneof![
            get(),
            get(),
            get(),
            insert(),
            insert(),
            insert(),
            (1..4u32).prop_map(Op::Retain),
            Just(Op::Clear),
            // Short steps against short TTLs land on the boundary often.
            (0..6u64).prop_map(Op::Advance),
        ]
    }

    /// Today's semantics, spelled out naively: a list of
    /// `(key, value, stored, last_used, cost)` scanned on every call.
    #[derive(Default)]
    struct Model {
        entries: Vec<(u32, u32, u64, u64, usize)>,
        tick: u64,
        hits: u64,
        misses: u64,
    }

    impl Model {
        fn get(&mut self, ttl: Option<u64>, k: u32, now: u64) -> Option<u32> {
            let Some(i) = self.entries.iter().position(|e| e.0 == k) else {
                self.misses += 1;
                return None;
            };
            if ttl.is_some_and(|t| now - self.entries[i].2 >= t) {
                self.entries.remove(i);
                self.misses += 1;
                return None;
            }
            self.hits += 1;
            self.tick += 1;
            self.entries[i].3 = self.tick;
            Some(self.entries[i].1)
        }

        fn insert(&mut self, budget: usize, k: u32, v: u32, cost: usize, now: u64) -> usize {
            if cost > budget {
                return 0;
            }
            self.tick += 1;
            self.entries.retain(|e| e.0 != k);
            self.entries.push((k, v, now, self.tick, cost));
            let mut evicted = 0;
            while self.entries.iter().map(|e| e.4).sum::<usize>() > budget {
                let victim = (0..self.entries.len())
                    .min_by_key(|&i| self.entries[i].3)
                    .expect("non-empty");
                self.entries.remove(victim);
                evicted += 1;
            }
            evicted
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn matches_a_naive_model(
            ttl in prop_oneof![Just(None), (1..10u64).prop_map(Some)],
            budget in 0..12usize,
            ops in proptest::collection::vec(op(), 0..200),
        ) {
            let mut c = TtlLru::new(ttl, budget);
            let mut m = Model::default();
            let mut now = 0u64;
            for (n, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Get(k) => prop_assert_eq!(get(&mut c, k, now), m.get(ttl, k, now)),
                    Op::Insert(k, cost) => {
                        let v = n as u32;
                        prop_assert_eq!(insert(&mut c, k, v, cost, now), m.insert(budget, k, v, cost, now));
                    }
                    Op::Retain(d) => {
                        let before = m.entries.len();
                        m.entries.retain(|e| e.0 % d != 0);
                        prop_assert_eq!(c.retain(|&k| k % d != 0), m.entries.len() != before);
                    }
                    Op::Clear => {
                        c.clear();
                        m.entries.clear();
                    }
                    Op::Advance(dt) => now += dt,
                }
                prop_assert_eq!(c.len(), m.entries.len());
                prop_assert_eq!(c.cost(), m.entries.iter().map(|e| e.4).sum::<usize>());
                prop_assert_eq!((c.hits(), c.misses()), (m.hits, m.misses));
            }
        }
    }
}
