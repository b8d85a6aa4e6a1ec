//! A content-addressed artifact cache: byte-bounded LRU with
//! single-flight deduplication.
//!
//! * **Exact keys** — the cache is generic over a structured `Eq + Hash`
//!   key; it never compares by hash digest, so two different
//!   compilations can never alias.
//! * **Byte budget** — each resident value carries a charged size;
//!   inserting past the budget evicts least-recently-used values first
//!   (an over-budget value is still *returned*, it just doesn't stay
//!   resident).
//! * **Ordered recency** — every resident key sits in an order index
//!   under its unique last-used tick, so a hit re-files one key and an
//!   eviction pops the oldest: O(log n) either way, with no scan of the
//!   resident set and no key clone. The map and the index share one
//!   `Arc` per key, so no key is ever held twice.
//! * **Single flight** — N concurrent requests for the same absent key
//!   produce exactly one compute; the leader publishes the result and
//!   every waiter shares the same `Arc`. Waiters carry their own
//!   deadlines: a waiter can time out and leave while the flight
//!   continues for the others.
//! * **Panic safety** — if the leader's compute panics, a drop guard
//!   marks the flight abandoned and clears the key; waiters wake and
//!   retry (one of them becomes the new leader) instead of hanging.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// How a value was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Already resident.
    Hit,
    /// This request led the compute.
    Computed,
    /// Another request led the compute; this one waited and shared it.
    Joined,
}

/// Why [`Cache::get_or_compute`] failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError<E> {
    /// The compute itself failed (the error is shared with all waiters).
    Compute(E),
    /// This request's deadline expired while waiting on the flight.
    TimedOut,
}

/// A point-in-time view of the cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests served from a resident value.
    pub hits: u64,
    /// Requests that led a compute.
    pub misses: u64,
    /// Requests that joined another request's flight.
    pub joins: u64,
    /// Values evicted to stay within budget.
    pub evictions: u64,
    /// Bytes currently charged.
    pub resident_bytes: usize,
    /// Values currently resident.
    pub resident_count: usize,
}

enum FlightState<V, E> {
    /// The leader is still computing.
    Pending,
    /// The leader finished (either way).
    Done(Result<Arc<V>, E>),
    /// The leader's compute panicked; waiters should retry the key.
    Abandoned,
}

struct Flight<V, E> {
    state: Mutex<FlightState<V, E>>,
    cv: Condvar,
}

enum Entry<V, E> {
    Resident { value: Arc<V>, bytes: usize, last_used: u64 },
    InFlight(Arc<Flight<V, E>>),
}

struct Inner<K, V, E> {
    map: HashMap<Arc<K>, Entry<V, E>>,
    /// Resident keys by last-used tick, oldest first. A key is here
    /// exactly when its entry is `Resident`, under that entry's
    /// `last_used`; in-flight keys are never indexed, so they are never
    /// evicted. Ticks are unique, so the order is total.
    order: BTreeMap<u64, Arc<K>>,
    tick: u64,
    stats: CacheStats,
    /// Evicted keys, oldest eviction first (the victim-order oracle
    /// compares against it).
    #[cfg(test)]
    evicted: Vec<Arc<K>>,
}

impl<K: Eq + Hash, V, E> Inner<K, V, E> {
    /// Advance and return the recency clock.
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// A resident `key`'s value, marked used at `tick` (moved, not
    /// cloned, to its new place in the order index).
    fn touch(&mut self, key: &K, tick: u64) -> Option<Arc<V>> {
        let Some(Entry::Resident { value, last_used, .. }) = self.map.get_mut(key) else {
            return None;
        };
        let old = std::mem::replace(last_used, tick);
        let value = value.clone();
        refile(&mut self.order, old, tick);
        Some(value)
    }

    /// Make `key` resident with `value`, used at `tick`, replacing its
    /// in-flight entry if it has one. The index shares the map's `Arc`.
    fn publish(&mut self, key: Arc<K>, value: Arc<V>, bytes: usize, tick: u64) {
        self.map.insert(key.clone(), Entry::Resident { value, bytes, last_used: tick });
        self.order.insert(tick, key);
        self.stats.resident_bytes += bytes;
        self.stats.resident_count += 1;
    }
}

/// Move a resident key from tick `old` to tick `new` in the order index
/// (by value: the key is not cloned).
fn refile<K>(order: &mut BTreeMap<u64, Arc<K>>, old: u64, new: u64) {
    let k = order.remove(&old).expect("resident keys are indexed");
    order.insert(new, k);
}

/// The cache. `K` is the exact content address, `V` the artifact, `E`
/// the (cloneable) compute error shared with flight waiters.
pub struct Cache<K, V, E> {
    inner: Mutex<Inner<K, V, E>>,
    budget_bytes: usize,
}

impl<K, V, E> std::fmt::Debug for Cache<K, V, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cache").field("budget_bytes", &self.budget_bytes).finish_non_exhaustive()
    }
}

enum JoinOutcome<V, E> {
    Value(Arc<V>),
    Failed(E),
    Abandoned,
    TimedOut,
}

impl<K: Eq + Hash + Clone, V, E: Clone> Cache<K, V, E> {
    /// A cache that holds at most `budget_bytes` of charged value bytes.
    pub fn new(budget_bytes: usize) -> Cache<K, V, E> {
        Cache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: BTreeMap::new(),
                tick: 0,
                stats: CacheStats::default(),
                #[cfg(test)]
                evicted: Vec::new(),
            }),
            budget_bytes,
        }
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().expect("cache lock").stats
    }

    /// Resident-only lookup (no flight join, no compute). Counts as a
    /// hit when it returns `Some`; counts nothing otherwise.
    pub fn try_get(&self, key: &K) -> Option<Arc<V>> {
        let mut inner = self.inner.lock().expect("cache lock");
        let tick = inner.next_tick();
        let v = inner.touch(key, tick)?;
        inner.stats.hits += 1;
        Some(v)
    }

    /// Admit an already-computed value without running a flight — the
    /// spill store's startup re-admission and peer fills use this.
    ///
    /// An in-flight key is left alone (the leader is about to publish
    /// the same content; replacing the entry under it would strand its
    /// waiters) and a resident value is replaced. The admitted value is
    /// returned either way, and the usual LRU eviction applies — counts
    /// nothing (the caller tracks its own hit/refill stats).
    pub fn insert(&self, key: K, value: V, bytes: usize) -> Arc<V> {
        let value = Arc::new(value);
        let mut inner = self.inner.lock().expect("cache lock");
        let tick = inner.next_tick();
        let inner = &mut *inner;
        match inner.map.get_mut(&key) {
            Some(Entry::InFlight(_)) => return value,
            // Replace in place, so the map keeps its one `Arc` of the key.
            Some(Entry::Resident { value: v, bytes: b, last_used }) => {
                *v = value.clone();
                inner.stats.resident_bytes = inner.stats.resident_bytes - *b + bytes;
                *b = bytes;
                refile(&mut inner.order, std::mem::replace(last_used, tick), tick);
            }
            None => inner.publish(Arc::new(key), value.clone(), bytes, tick),
        }
        self.evict_to_budget(inner);
        value
    }

    /// Look up `key`; on a miss, run `compute` exactly once across all
    /// concurrent callers and share the result.
    ///
    /// `deadline` bounds only the *waiting*: a joiner whose deadline
    /// passes gets [`CacheError::TimedOut`] while the flight continues.
    /// (The leader's own compute is expected to watch the deadline
    /// itself — e.g. via the phase-cancellation hook — and return an `E`
    /// if it gives up.)
    ///
    /// `compute` returns the value and its charged size in bytes.
    ///
    /// # Errors
    ///
    /// [`CacheError::Compute`] if the compute failed (leader and all
    /// waiters see the same error; the key is cleared so a retry
    /// recomputes), or [`CacheError::TimedOut`] if this caller's
    /// deadline expired while waiting.
    pub fn get_or_compute(
        &self,
        key: &K,
        deadline: Option<Instant>,
        compute: impl FnOnce() -> Result<(V, usize), E>,
    ) -> Result<(Arc<V>, Source), CacheError<E>> {
        enum Action<K, V, E> {
            Hit(Arc<V>),
            Join(Arc<Flight<V, E>>),
            Lead(Arc<K>, Arc<Flight<V, E>>),
        }
        let mut compute = Some(compute);
        loop {
            let flight = {
                let mut inner = self.inner.lock().expect("cache lock");
                let tick = inner.next_tick();
                let action = if let Some(v) = inner.touch(key, tick) {
                    Action::Hit(v)
                } else if let Some(Entry::InFlight(f)) = inner.map.get(key) {
                    Action::Join(f.clone())
                } else {
                    let f = Arc::new(Flight {
                        state: Mutex::new(FlightState::Pending),
                        cv: Condvar::new(),
                    });
                    // The one copy of the key this cache will hold: the
                    // map shares it with the order index once the flight
                    // publishes.
                    let k = Arc::new(key.clone());
                    inner.map.insert(k.clone(), Entry::InFlight(f.clone()));
                    Action::Lead(k, f)
                };
                match action {
                    Action::Hit(v) => {
                        inner.stats.hits += 1;
                        return Ok((v, Source::Hit));
                    }
                    Action::Join(f) => {
                        inner.stats.joins += 1;
                        f
                    }
                    Action::Lead(k, f) => {
                        inner.stats.misses += 1;
                        drop(inner);
                        let compute = compute.take().expect("compute consumed only as leader");
                        return self.lead(k, f, compute);
                    }
                }
            };
            match self.join(flight, deadline) {
                JoinOutcome::Value(v) => return Ok((v, Source::Joined)),
                JoinOutcome::Failed(e) => return Err(CacheError::Compute(e)),
                JoinOutcome::TimedOut => return Err(CacheError::TimedOut),
                // The leader panicked; the key is clear — go around and
                // either find a new flight or lead one ourselves.
                JoinOutcome::Abandoned => continue,
            }
        }
    }

    /// Leader path: run the compute, publish, wake waiters.
    fn lead(
        &self,
        key: Arc<K>,
        flight: Arc<Flight<V, E>>,
        compute: impl FnOnce() -> Result<(V, usize), E>,
    ) -> Result<(Arc<V>, Source), CacheError<E>> {
        // If `compute` panics, this guard clears the key and marks the
        // flight abandoned so waiters wake and retry instead of
        // sleeping until their deadlines.
        struct Guard<'a, K: Eq + Hash, V, E> {
            cache: &'a Cache<K, V, E>,
            key: &'a K,
            flight: &'a Flight<V, E>,
            armed: bool,
        }
        impl<K: Eq + Hash, V, E> Drop for Guard<'_, K, V, E> {
            fn drop(&mut self) {
                if !self.armed {
                    return;
                }
                if let Ok(mut inner) = self.cache.inner.lock() {
                    inner.map.remove(self.key);
                }
                if let Ok(mut state) = self.flight.state.lock() {
                    *state = FlightState::Abandoned;
                }
                self.flight.cv.notify_all();
            }
        }
        let mut guard = Guard { cache: self, key: &key, flight: &flight, armed: true };

        let result = compute();
        guard.armed = false;
        drop(guard);

        match result {
            Ok((value, bytes)) => {
                let value = Arc::new(value);
                {
                    let mut inner = self.inner.lock().expect("cache lock");
                    let tick = inner.next_tick();
                    inner.publish(key, value.clone(), bytes, tick);
                    self.evict_to_budget(&mut inner);
                }
                let mut state = flight.state.lock().expect("flight lock");
                *state = FlightState::Done(Ok(value.clone()));
                drop(state);
                flight.cv.notify_all();
                Ok((value, Source::Computed))
            }
            Err(e) => {
                {
                    let mut inner = self.inner.lock().expect("cache lock");
                    inner.map.remove(&*key);
                }
                let mut state = flight.state.lock().expect("flight lock");
                *state = FlightState::Done(Err(e.clone()));
                drop(state);
                flight.cv.notify_all();
                Err(CacheError::Compute(e))
            }
        }
    }

    /// Waiter path: block on the flight until it resolves, is
    /// abandoned, or the deadline passes.
    fn join(&self, flight: Arc<Flight<V, E>>, deadline: Option<Instant>) -> JoinOutcome<V, E> {
        let mut state = flight.state.lock().expect("flight lock");
        loop {
            match &*state {
                FlightState::Done(Ok(v)) => return JoinOutcome::Value(v.clone()),
                FlightState::Done(Err(e)) => return JoinOutcome::Failed(e.clone()),
                FlightState::Abandoned => return JoinOutcome::Abandoned,
                FlightState::Pending => {}
            }
            match deadline {
                None => state = flight.cv.wait(state).expect("flight lock"),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return JoinOutcome::TimedOut;
                    }
                    let (g, _timeout) =
                        flight.cv.wait_timeout(state, d - now).expect("flight lock");
                    state = g;
                }
            }
        }
    }

    /// Evict least-recently-used residents until within budget: pop
    /// the oldest tick off the order index, O(log n) per victim. Runs
    /// with the cache lock held; in-flight entries are not indexed, so
    /// they are never evicted.
    fn evict_to_budget(&self, inner: &mut Inner<K, V, E>) {
        while inner.stats.resident_bytes > self.budget_bytes {
            let Some((_, key)) = inner.order.pop_first() else { break };
            if let Some(Entry::Resident { bytes, .. }) = inner.map.remove(&*key) {
                inner.stats.resident_bytes -= bytes;
                inner.stats.resident_count -= 1;
                inner.stats.evictions += 1;
            }
            #[cfg(test)]
            inner.evicted.push(key);
        }
    }
}

#[cfg(test)]
impl<K: Eq + Hash + Clone, V, E> Cache<K, V, E> {
    /// Resident keys, least recently used first, after checking that the
    /// order index holds exactly the resident entries under their ticks
    /// and shares the map's `Arc` of each key.
    fn lru_order(&self) -> Vec<K> {
        let inner = self.inner.lock().expect("cache lock");
        let resident = inner.map.values().filter(|e| matches!(e, Entry::Resident { .. })).count();
        assert_eq!(inner.order.len(), resident, "index holds exactly the residents");
        assert_eq!(resident, inner.stats.resident_count);
        inner
            .order
            .iter()
            .map(|(tick, k)| {
                let (mk, e) = inner.map.get_key_value(&**k).expect("indexed key is mapped");
                assert!(Arc::ptr_eq(mk, k), "the index shares the map's key");
                assert!(matches!(e, Entry::Resident { last_used, .. } if last_used == tick));
                K::clone(k)
            })
            .collect()
    }

    /// Every key evicted so far, oldest eviction first.
    fn evicted(&self) -> Vec<K> {
        self.inner.lock().expect("cache lock").evicted.iter().map(|k| K::clone(k)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    type C = Cache<String, u64, String>;

    /// The cache before its order index, kept as the LRU oracle: the same
    /// bookkeeping single-threaded, with the old eviction — a scan of
    /// every entry for the least-recently-used resident, cloning each
    /// candidate key.
    struct ScanModel {
        map: HashMap<u32, ModelEntry>,
        tick: u64,
        stats: CacheStats,
        evicted: Vec<u32>,
        budget: usize,
    }

    enum ModelEntry {
        Resident { value: u64, bytes: usize, last_used: u64 },
        InFlight,
    }

    /// What the model expects of `get_or_compute`.
    enum Begin {
        Hit(u64),
        Lead,
    }

    impl ScanModel {
        fn new(budget: usize) -> ScanModel {
            ScanModel {
                map: HashMap::new(),
                tick: 0,
                stats: CacheStats::default(),
                evicted: Vec::new(),
                budget,
            }
        }

        fn in_flight(&self, k: u32) -> bool {
            matches!(self.map.get(&k), Some(ModelEntry::InFlight))
        }

        fn try_get(&mut self, k: u32) -> Option<u64> {
            self.tick += 1;
            let tick = self.tick;
            match self.map.get_mut(&k) {
                Some(ModelEntry::Resident { value, last_used, .. }) => {
                    *last_used = tick;
                    self.stats.hits += 1;
                    Some(*value)
                }
                _ => None,
            }
        }

        fn insert(&mut self, k: u32, value: u64, bytes: usize) {
            self.tick += 1;
            if self.in_flight(k) {
                return;
            }
            let entry = ModelEntry::Resident { value, bytes, last_used: self.tick };
            if let Some(ModelEntry::Resident { bytes: old, .. }) = self.map.insert(k, entry) {
                self.stats.resident_bytes -= old;
                self.stats.resident_count -= 1;
            }
            self.stats.resident_bytes += bytes;
            self.stats.resident_count += 1;
            self.evict_to_budget();
        }

        /// The lock-held half of `get_or_compute` (the key is never in
        /// flight here: a single thread joining its own flight would
        /// wait forever).
        fn begin(&mut self, k: u32) -> Begin {
            if let Some(v) = self.try_get(k) {
                return Begin::Hit(v);
            }
            self.map.insert(k, ModelEntry::InFlight);
            self.stats.misses += 1;
            Begin::Lead
        }

        fn publish(&mut self, k: u32, value: u64, bytes: usize) {
            self.tick += 1;
            self.map.insert(k, ModelEntry::Resident { value, bytes, last_used: self.tick });
            self.stats.resident_bytes += bytes;
            self.stats.resident_count += 1;
            self.evict_to_budget();
        }

        fn fail(&mut self, k: u32) {
            self.map.remove(&k);
        }

        fn evict_to_budget(&mut self) {
            while self.stats.resident_bytes > self.budget {
                let victim = self
                    .map
                    .iter()
                    .filter_map(|(k, e)| match e {
                        ModelEntry::Resident { last_used, .. } => Some((*last_used, *k)),
                        ModelEntry::InFlight => None,
                    })
                    .min_by_key(|(tick, _)| *tick);
                let Some((_, key)) = victim else { break };
                if let Some(ModelEntry::Resident { bytes, .. }) = self.map.remove(&key) {
                    self.stats.resident_bytes -= bytes;
                    self.stats.resident_count -= 1;
                    self.stats.evictions += 1;
                }
                self.evicted.push(key);
            }
        }

        fn lru_order(&self) -> Vec<u32> {
            let mut r: Vec<(u64, u32)> = self
                .map
                .iter()
                .filter_map(|(k, e)| match e {
                    ModelEntry::Resident { last_used, .. } => Some((*last_used, *k)),
                    ModelEntry::InFlight => None,
                })
                .collect();
            r.sort_unstable();
            r.into_iter().map(|(_, k)| k).collect()
        }
    }

    /// One step of a random workload. A `Compute` that leads runs its
    /// `nested` steps inside the compute, while its key is in flight.
    #[derive(Debug)]
    enum Op {
        TryGet(u32),
        Insert(u32, usize),
        Compute { key: u32, bytes: usize, fail: bool, nested: Vec<Op> },
    }

    const MODEL_BUDGET: usize = 200;

    fn gen_ops(rng: &mut StdRng, n: usize, depth: u32) -> Vec<Op> {
        let bytes = |rng: &mut StdRng| {
            // Mostly small, sometimes alone over the whole budget.
            if rng.gen_bool(0.05) {
                rng.gen_range(MODEL_BUDGET + 1..=2 * MODEL_BUDGET)
            } else {
                rng.gen_range(1..=60)
            }
        };
        (0..n)
            .map(|_| match rng.gen_range(0..10u32) {
                0..=2 => Op::TryGet(rng.gen_range(0..24)),
                3..=4 => Op::Insert(rng.gen_range(0..24), bytes(rng)),
                _ => Op::Compute {
                    key: rng.gen_range(0..24),
                    bytes: bytes(rng),
                    fail: rng.gen_bool(0.15),
                    nested: if depth > 0 && rng.gen_bool(0.2) {
                        let n = rng.gen_range(1..6);
                        gen_ops(rng, n, depth - 1)
                    } else {
                        Vec::new()
                    },
                },
            })
            .collect()
    }

    type M = Cache<u32, u64, String>;

    /// Run `op` on the cache and the model alike, then require the same
    /// counters, evictions in the same order, and the same residents in
    /// the same recency order. `next` numbers the values.
    fn step(c: &M, m: &mut ScanModel, op: &Op, next: &mut u64) -> Result<(), TestCaseError> {
        *next += 1;
        let value = *next;
        match op {
            Op::TryGet(k) => {
                prop_assert_eq!(c.try_get(k).map(|v| *v), m.try_get(*k), "try_get {}", k);
            }
            Op::Insert(k, bytes) => {
                prop_assert_eq!(*c.insert(*k, value, *bytes), value);
                m.insert(*k, value, *bytes);
            }
            Op::Compute { key, .. } if m.in_flight(*key) => {
                prop_assert!(c.try_get(key).is_none(), "an in-flight key is not resident");
                prop_assert_eq!(m.try_get(*key), None);
            }
            Op::Compute { key, bytes, fail, nested } => {
                let expect = m.begin(*key);
                let mut inner_result = Ok(());
                let got = c.get_or_compute(key, None, || {
                    for op in nested {
                        if inner_result.is_ok() {
                            inner_result = step(c, m, op, next);
                        }
                    }
                    if *fail {
                        Err(format!("fail {key}"))
                    } else {
                        Ok((value, *bytes))
                    }
                });
                inner_result?;
                match (expect, got) {
                    (Begin::Hit(v), Ok((got, Source::Hit))) => prop_assert_eq!(*got, v),
                    (Begin::Lead, Ok((got, Source::Computed))) if !*fail => {
                        prop_assert_eq!(*got, value);
                        m.publish(*key, value, *bytes);
                    }
                    (Begin::Lead, Err(CacheError::Compute(e))) if *fail => {
                        prop_assert_eq!(e, format!("fail {key}"));
                        m.fail(*key);
                    }
                    (_, got) => {
                        return Err(TestCaseError::fail(format!("{op:?}: unexpected {got:?}")))
                    }
                }
            }
        }
        prop_assert_eq!(c.stats(), m.stats, "after {:?}", op);
        prop_assert_eq!(c.evicted(), m.evicted.clone(), "victim order after {:?}", op);
        prop_assert_eq!(c.lru_order(), m.lru_order(), "residents after {:?}", op);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The order index evicts exactly what the old full scan evicted,
        /// in the same order, and keeps the same counters and residents,
        /// over random mixes of lookups, inserts, computes that succeed,
        /// fail or overflow the budget, and work done while keys are in
        /// flight.
        #[test]
        fn order_index_matches_the_scan_oracle(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ops = gen_ops(&mut rng, 160, 2);
            let c: M = Cache::new(MODEL_BUDGET);
            let mut m = ScanModel::new(MODEL_BUDGET);
            let mut next = 0;
            for op in &ops {
                step(&c, &mut m, op, &mut next)?;
            }
        }
    }

    thread_local! {
        static KEY_CLONES: Cell<usize> = const { Cell::new(0) };
    }

    /// A key that counts its clones (per thread, so parallel tests do
    /// not interfere).
    #[derive(Debug, PartialEq, Eq, Hash)]
    struct Counted(u64);

    impl Clone for Counted {
        fn clone(&self) -> Counted {
            KEY_CLONES.with(|c| c.set(c.get() + 1));
            Counted(self.0)
        }
    }

    fn clones_during(f: impl FnOnce()) -> usize {
        let before = KEY_CLONES.with(Cell::get);
        f();
        KEY_CLONES.with(Cell::get) - before
    }

    #[test]
    fn eviction_and_hits_clone_no_key() {
        const N: u64 = 10_000;
        let c: Cache<Counted, u64, String> = Cache::new(N as usize);
        for i in 0..N {
            c.get_or_compute(&Counted(i), None, || Ok((i, 1))).unwrap();
        }
        assert_eq!(c.stats().resident_count, N as usize);
        // A miss keeps one copy of its key; each of its evictions adds
        // none, however many keys are resident.
        let misses = 1_000;
        let clones = clones_during(|| {
            for i in N..N + misses {
                c.get_or_compute(&Counted(i), None, || Ok((i, 1))).unwrap();
            }
        });
        assert_eq!(c.stats().evictions, misses);
        assert!(clones <= misses as usize, "{clones} key clones for {misses} evictions");
        // Admitting an owned key, and the evictions it causes, clone
        // nothing; nor does a hit.
        let clones = clones_during(|| {
            for i in 2 * N..2 * N + misses {
                c.insert(Counted(i), i, 1);
            }
            for i in 2 * N..2 * N + misses {
                assert!(c.try_get(&Counted(i)).is_some());
                c.get_or_compute(&Counted(i), None, || panic!("resident")).unwrap();
            }
        });
        assert_eq!(c.stats().evictions, 2 * misses);
        assert_eq!(clones, 0);
    }

    #[test]
    fn hit_after_compute() {
        let c: C = Cache::new(1 << 20);
        let (v, src) = c.get_or_compute(&"k".to_string(), None, || Ok((7, 100))).unwrap();
        assert_eq!((*v, src), (7, Source::Computed));
        let (v, src) =
            c.get_or_compute(&"k".to_string(), None, || panic!("must not recompute")).unwrap();
        assert_eq!((*v, src), (7, Source::Hit));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.resident_count, s.resident_bytes), (1, 1, 1, 100));
    }

    #[test]
    fn compute_error_clears_the_key() {
        let c: C = Cache::new(1 << 20);
        let err = c.get_or_compute(&"k".to_string(), None, || Err("boom".to_string())).unwrap_err();
        assert_eq!(err, CacheError::Compute("boom".into()));
        // Retry recomputes (the key was cleared).
        let (v, src) = c.get_or_compute(&"k".to_string(), None, || Ok((1, 1))).unwrap();
        assert_eq!((*v, src), (1, Source::Computed));
    }

    #[test]
    fn lru_eviction_respects_recency_and_budget() {
        let c: C = Cache::new(250);
        c.get_or_compute(&"a".to_string(), None, || Ok((1, 100))).unwrap();
        c.get_or_compute(&"b".to_string(), None, || Ok((2, 100))).unwrap();
        // Touch `a` so `b` is the LRU.
        assert!(c.try_get(&"a".to_string()).is_some());
        c.get_or_compute(&"c".to_string(), None, || Ok((3, 100))).unwrap();
        assert!(c.try_get(&"b".to_string()).is_none(), "LRU entry should be evicted");
        assert!(c.try_get(&"a".to_string()).is_some());
        assert!(c.try_get(&"c".to_string()).is_some());
        let s = c.stats();
        assert_eq!((s.evictions, s.resident_count, s.resident_bytes), (1, 2, 200));
    }

    #[test]
    fn over_budget_value_is_served_but_not_retained() {
        let c: C = Cache::new(50);
        let (v, src) = c.get_or_compute(&"big".to_string(), None, || Ok((9, 1000))).unwrap();
        assert_eq!((*v, src), (9, Source::Computed));
        assert!(c.try_get(&"big".to_string()).is_none());
        assert_eq!(c.stats().resident_bytes, 0);
    }

    #[test]
    fn insert_admits_and_replaces() {
        let c: C = Cache::new(250);
        c.insert("a".to_string(), 1, 100);
        let (v, src) = c.get_or_compute(&"a".to_string(), None, || panic!("resident")).unwrap();
        assert_eq!((*v, src), (1, Source::Hit));
        // Replacement adjusts the charged bytes instead of double-counting.
        c.insert("a".to_string(), 2, 120);
        assert_eq!(c.stats().resident_bytes, 120);
        assert_eq!(*c.try_get(&"a".to_string()).unwrap(), 2);
        // Inserting past the budget evicts, same as a computed value.
        c.insert("b".to_string(), 3, 200);
        assert_eq!(c.stats().resident_count, 1);
    }

    #[test]
    fn insert_never_stomps_an_inflight_key() {
        let c: Arc<C> = Arc::new(Cache::new(1 << 20));
        let leader = {
            let c = c.clone();
            std::thread::spawn(move || {
                c.get_or_compute(&"k".to_string(), None, || {
                    std::thread::sleep(Duration::from_millis(80));
                    Ok((7, 10))
                })
                .unwrap()
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        // The flight is pending; the insert must not replace it.
        let v = c.insert("k".to_string(), 99, 10);
        assert_eq!(*v, 99, "caller still gets its value back");
        let (v, src) = leader.join().unwrap();
        assert_eq!((*v, src), (7, Source::Computed));
        assert_eq!(*c.try_get(&"k".to_string()).unwrap(), 7, "leader's publish won");
    }

    #[test]
    fn single_flight_deduplicates_concurrent_computes() {
        let c: Arc<C> = Arc::new(Cache::new(1 << 20));
        let computes = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = c.clone();
            let computes = computes.clone();
            handles.push(std::thread::spawn(move || {
                c.get_or_compute(&"k".to_string(), None, || {
                    computes.fetch_add(1, Ordering::SeqCst);
                    // Widen the race window so joiners actually wait.
                    std::thread::sleep(Duration::from_millis(30));
                    Ok((42, 10))
                })
                .unwrap()
            }));
        }
        let results: Vec<(Arc<u64>, Source)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(computes.load(Ordering::SeqCst), 1, "exactly one compute");
        assert!(results.iter().all(|(v, _)| **v == 42));
        assert_eq!(
            results.iter().filter(|(_, s)| *s == Source::Computed).count(),
            1,
            "exactly one leader"
        );
    }

    #[test]
    fn waiter_deadline_expires_while_flight_continues() {
        let c: Arc<C> = Arc::new(Cache::new(1 << 20));
        let leader = {
            let c = c.clone();
            std::thread::spawn(move || {
                c.get_or_compute(&"slow".to_string(), None, || {
                    std::thread::sleep(Duration::from_millis(200));
                    Ok((5, 10))
                })
                .unwrap()
            })
        };
        // Give the leader time to claim the flight.
        std::thread::sleep(Duration::from_millis(50));
        let deadline = Some(Instant::now() + Duration::from_millis(20));
        let err = c
            .get_or_compute(&"slow".to_string(), deadline, || panic!("joiner must not compute"))
            .unwrap_err();
        assert_eq!(err, CacheError::TimedOut);
        // The flight itself completes and the value lands in the cache.
        let (v, src) = leader.join().unwrap();
        assert_eq!((*v, src), (5, Source::Computed));
        assert!(c.try_get(&"slow".to_string()).is_some());
    }

    #[test]
    fn leader_panic_lets_a_waiter_take_over() {
        let c: Arc<C> = Arc::new(Cache::new(1 << 20));
        let leader = {
            let c = c.clone();
            std::thread::spawn(move || {
                let _ =
                    c.get_or_compute(&"k".to_string(), None, || -> Result<(u64, usize), String> {
                        std::thread::sleep(Duration::from_millis(50));
                        panic!("leader dies")
                    });
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        // The waiter survives the abandoned flight by leading a fresh
        // compute itself.
        let (v, src) = c
            .get_or_compute(&"k".to_string(), Some(Instant::now() + Duration::from_secs(5)), || {
                Ok((3, 1))
            })
            .unwrap();
        assert_eq!((*v, src), (3, Source::Computed));
        assert!(leader.join().is_err(), "leader thread panicked");
        assert!(c.try_get(&"k".to_string()).is_some());
    }
}
