//! Token interning: string ↔ `u32` id, plus the flat numeric kernels that
//! make the per-pair hot path string-free.
//!
//! The match engine's voters are invoked for up to ~10^6 pairs per run, and
//! historically every one of those invocations hashed and compared owned
//! `String` tokens (name-bag Jaccards, TF-IDF cosines over
//! `Vec<(String, f64)>`). Token vocabularies, by contrast, are tiny — a few
//! thousand distinct normalized tokens at the paper's 1378×784 scale — so
//! the classic fix applies: intern every token once into a [`TokenArena`]
//! and move integers afterwards. Set overlap then becomes a branch-light
//! merge-walk over sorted `u32` slices ([`sorted_ids_intersection`],
//! [`sorted_ids_jaccard`]) with no hashing and no string comparisons.
//!
//! Ids are assigned in first-intern order and never change for the lifetime
//! of the arena, so any two data structures built against the same arena can
//! exchange ids freely ([`TokenArena::global`] is the process-wide instance
//! behind the feature cache). Because insertion order is *not* lexicographic,
//! consumers that need a deterministic, string-compatible float summation
//! order (the TF-IDF corpus, IDF weight totals) sort ids by their resolved
//! strings once at build time — see [`TokenArena::sort_lexical`].

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

/// An interned token: a dense `u32` handle into a [`TokenArena`].
///
/// Equality of ids is equality of the underlying strings *within one arena*;
/// ids from different arenas are not comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TokenId(pub u32);

impl TokenId {
    /// The id as a dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Default)]
struct ArenaInner {
    /// string → id. Keys are the same `Arc<str>`s held by `strings`, so the
    /// arena stores each distinct token exactly once.
    map: HashMap<Arc<str>, u32>,
    /// id → string, in first-intern order.
    strings: Vec<Arc<str>>,
}

/// A concurrent, append-only string interner.
///
/// `intern` takes a read lock on the hit path and a write lock only for
/// never-before-seen tokens, so steady-state interning (warm vocabulary) is
/// contention-free readers. Ids are stable: once a string has an id, every
/// later intern of an equal string returns the same id, from any thread.
pub struct TokenArena {
    /// Process-unique arena identity; disambiguates ids from different
    /// arenas in cross-arena-unsafe caches (see [`PairMemo`]).
    tag: u32,
    inner: RwLock<ArenaInner>,
}

impl TokenArena {
    /// An empty arena with a fresh process-unique [`Self::tag`].
    pub fn new() -> Self {
        static NEXT_TAG: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        TokenArena {
            tag: NEXT_TAG.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            inner: RwLock::new(ArenaInner::default()),
        }
    }

    /// This arena's process-unique identity. Ids are only meaningful within
    /// one arena; caches keyed by id pairs (the Jaro-Winkler and
    /// edit-distance memos) fold the tag into their keys so two arenas that
    /// both hand out ids `0, 1, 2, …` for different strings can never serve
    /// each other's entries.
    pub fn tag(&self) -> u32 {
        self.tag
    }

    /// The process-wide arena. The feature cache and every prepared schema
    /// intern through this instance by default, so ids are exchangeable
    /// across caches, engines, and repository indices.
    pub fn global() -> &'static Arc<TokenArena> {
        static GLOBAL: OnceLock<Arc<TokenArena>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(TokenArena::new()))
    }

    /// Intern a token, returning its stable id.
    pub fn intern(&self, token: &str) -> TokenId {
        if let Some(&id) = self
            .inner
            .read()
            .expect("token arena poisoned")
            .map
            .get(token)
        {
            return TokenId(id);
        }
        let mut inner = self.inner.write().expect("token arena poisoned");
        // Double-check: another thread may have interned it between locks.
        if let Some(&id) = inner.map.get(token) {
            return TokenId(id);
        }
        let id = u32::try_from(inner.strings.len()).expect("token arena overflow");
        let shared: Arc<str> = Arc::from(token);
        inner.strings.push(Arc::clone(&shared));
        inner.map.insert(shared, id);
        TokenId(id)
    }

    /// Intern a slice of tokens in order.
    pub fn intern_all<S: AsRef<str>>(&self, tokens: &[S]) -> Vec<TokenId> {
        tokens.iter().map(|t| self.intern(t.as_ref())).collect()
    }

    /// The id of a token if it has been interned (never inserts).
    pub fn lookup(&self, token: &str) -> Option<TokenId> {
        self.inner
            .read()
            .expect("token arena poisoned")
            .map
            .get(token)
            .map(|&id| TokenId(id))
    }

    /// The string of an id (cheap refcount clone).
    ///
    /// # Panics
    /// Panics when `id` was not produced by this arena.
    pub fn resolve(&self, id: TokenId) -> Arc<str> {
        Arc::clone(&self.inner.read().expect("token arena poisoned").strings[id.index()])
    }

    /// Resolve a slice of ids to owned strings.
    pub fn resolve_all(&self, ids: &[TokenId]) -> Vec<String> {
        let inner = self.inner.read().expect("token arena poisoned");
        ids.iter()
            .map(|id| inner.strings[id.index()].to_string())
            .collect()
    }

    /// Resolve a slice of ids to shared strings under one read lock —
    /// reference-count bumps only, no per-token heap allocation. The
    /// allocation-free sibling of [`Self::resolve_all`] for bulk read paths
    /// (e.g. registry serialization) where transient `String` churn is the
    /// dominant cost.
    pub fn resolve_shared(&self, ids: &[TokenId]) -> Vec<Arc<str>> {
        let inner = self.inner.read().expect("token arena poisoned");
        ids.iter()
            .map(|id| Arc::clone(&inner.strings[id.index()]))
            .collect()
    }

    /// Sort ids by their resolved strings (ascending), under one read lock.
    ///
    /// Ids are handed out in first-intern order, so sorting by id is *not*
    /// sorting by string. Consumers that must sum floats in the historical
    /// string-sorted order (TF-IDF norms, IDF signature totals — float
    /// addition is not associative) sort once through this method at build
    /// time and then walk plain integers forever after.
    pub fn sort_lexical(&self, ids: &mut [TokenId]) {
        let inner = self.inner.read().expect("token arena poisoned");
        ids.sort_by(|a, b| inner.strings[a.index()].cmp(&inner.strings[b.index()]));
    }

    /// Number of distinct interned tokens.
    pub fn len(&self) -> usize {
        self.inner
            .read()
            .expect("token arena poisoned")
            .strings
            .len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for TokenArena {
    fn default() -> Self {
        TokenArena::new()
    }
}

impl std::fmt::Debug for TokenArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TokenArena")
            .field("len", &self.len())
            .finish()
    }
}

/// Size of the intersection of two sorted, deduplicated id slices — a
/// branch-light merge walk, no hashing.
#[inline]
pub fn sorted_ids_intersection(a: &[TokenId], b: &[TokenId]) -> usize {
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    inter
}

/// Jaccard similarity of two sorted, deduplicated id slices. Matches the
/// edge semantics of [`crate::similarity::set_jaccard`]: two empty sets are
/// identical (1.0), one empty set is disjoint from anything (0.0).
#[inline]
pub fn sorted_ids_jaccard(a: &[TokenId], b: &[TokenId]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let inter = sorted_ids_intersection(a, b);
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Multiplicative hasher for the [`PairMemo`] keys — the keys are already
/// unique `u64`s, so one odd-constant multiply mixes them plenty and skips
/// SipHash entirely on the hot path.
#[derive(Default, Clone, Copy)]
pub struct PairKeyHasher(u64);

impl std::hash::Hasher for PairKeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are ever hashed; this path exists to satisfy the
        // trait.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        // Multiply then fold the high half down: the table derives bucket
        // indices from the low bits, which a bare multiply leaves weak.
        let p = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = p ^ (p >> 32);
    }
}

/// `BuildHasher` for [`PairKeyHasher`].
pub type PairKeyBuild = std::hash::BuildHasherDefault<PairKeyHasher>;

/// A memo table for pure `f64` functions of an *ordered* token-id pair
/// within one arena — the shared backing of the per-thread Jaro-Winkler and
/// edit-distance caches.
///
/// The pair is deliberately not order-normalized: callers memoize functions
/// whose float results may differ in the last ulp under operand swap
/// (Jaro's additive terms), and byte-stability beats halving the table.
/// Entries are valid for the arena's lifetime (arenas are append-only); the
/// table remembers which arena ([`TokenArena::tag`]) filled it and clears
/// itself when a different arena shows up, so two arenas that both hand out
/// ids `0, 1, 2, …` for different strings can never serve each other's
/// values.
///
/// Occupancy is bounded by a capacity ([`Self::CAPACITY`] by default): the
/// memos live in thread-locals on *persistent* executor workers (process
/// lifetime, not per-run scoped threads), so an unbounded table would grow
/// with every distinct pair a long-running service ever scores. Hitting the
/// bound clears the table — memoized functions are pure, so a flush can
/// never change a result, only recompute it. Misses and capacity flushes
/// feed process-wide counters ([`pair_memo_stats`]); both events already
/// sit on the slow path (a miss pays the memoized computation), so the hit
/// path stays atomic-free.
pub struct PairMemo {
    tag: u32,
    cap: usize,
    map: HashMap<u64, f64, PairKeyBuild>,
}

impl Default for PairMemo {
    fn default() -> Self {
        PairMemo::new()
    }
}

/// Process-wide movement counters for every [`PairMemo`] in the process
/// (the per-thread Jaro-Winkler and edit-distance memos), in the style of
/// the feature cache's `CacheStats`. Hits are not tracked — counting them
/// would put an atomic on the memo hit path, which is exactly the path the
/// memos exist to keep cheap. `misses` counts recomputations (each one
/// paid the underlying measure), `flushes` counts capacity evictions
/// (whole-table clears).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Memoized-function invocations (first sight or post-flush re-sight).
    pub misses: u64,
    /// Capacity-triggered whole-table clears.
    pub flushes: u64,
}

static MEMO_MISSES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static MEMO_FLUSHES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// A snapshot of the process-wide [`PairMemo`] counters. Counters are
/// cumulative for the process lifetime; callers interested in one
/// workload's movement snapshot before and after and difference.
pub fn pair_memo_stats() -> MemoStats {
    MemoStats {
        misses: MEMO_MISSES.load(std::sync::atomic::Ordering::Relaxed),
        flushes: MEMO_FLUSHES.load(std::sync::atomic::Ordering::Relaxed),
    }
}

impl PairMemo {
    /// Default maximum resident entries before the table flushes. At 2^18
    /// occupied entries a std `HashMap<u64, f64>` holds roughly twice that
    /// many ~17-byte slots (control byte + key + value), i.e. on the order
    /// of 10 MB per memo per worker thread — bounded and predictable,
    /// versus unbounded growth over a service's lifetime.
    pub const CAPACITY: usize = 1 << 18;

    /// An empty memo with the default capacity.
    pub fn new() -> Self {
        PairMemo::with_capacity(Self::CAPACITY)
    }

    /// An empty memo flushing at `capacity` resident entries (primarily
    /// for tests that want to exercise the flush path cheaply).
    pub fn with_capacity(capacity: usize) -> Self {
        PairMemo {
            tag: 0,
            cap: capacity.max(1),
            map: HashMap::default(),
        }
    }

    /// The memoized value of `(a, b)` under `tag`'s arena, computing (and
    /// storing verbatim) via `f` on first sight.
    #[inline]
    pub fn get_or_insert_with(
        &mut self,
        tag: u32,
        a: TokenId,
        b: TokenId,
        f: impl FnOnce() -> f64,
    ) -> f64 {
        if self.tag != tag {
            self.map.clear();
            self.tag = tag;
        }
        let key = (u64::from(a.0) << 32) | u64::from(b.0);
        if let Some(&v) = self.map.get(&key) {
            return v;
        }
        if self.map.len() >= self.cap {
            self.map.clear();
            MEMO_FLUSHES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        MEMO_MISSES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let v = f();
        self.map.insert(key, v);
        v
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Is `id` a member of a sorted, deduplicated id slice?
#[inline]
pub fn sorted_ids_contains(set: &[TokenId], id: TokenId) -> bool {
    set.binary_search(&id).is_ok()
}

/// Sort and deduplicate a list of ids into set form.
pub fn to_sorted_set(mut ids: Vec<TokenId>) -> Vec<TokenId> {
    ids.sort_unstable();
    ids.dedup();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_resolvable() {
        let arena = TokenArena::new();
        let a = arena.intern("date");
        let b = arena.intern("begin");
        let a2 = arena.intern("date");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(&*arena.resolve(a), "date");
        assert_eq!(&*arena.resolve(b), "begin");
        assert_eq!(arena.lookup("date"), Some(a));
        assert_eq!(arena.lookup("absent"), None);
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn sort_lexical_orders_by_string_not_id() {
        let arena = TokenArena::new();
        let z = arena.intern("zulu");
        let a = arena.intern("alpha");
        let m = arena.intern("mike");
        let mut ids = vec![z, a, m];
        arena.sort_lexical(&mut ids);
        assert_eq!(ids, vec![a, m, z]);
        // Id order disagrees with string order by construction here.
        assert!(z < a || a < z); // ids are comparable...
        assert!(z.0 < a.0, "zulu interned first gets the smaller id");
    }

    #[test]
    fn ids_stable_under_concurrent_interning() {
        // Many threads intern overlapping vocabularies; every thread must
        // observe the same id for the same string, and the arena must end up
        // with exactly the distinct vocabulary.
        let arena = Arc::new(TokenArena::new());
        let words: Vec<String> = (0..200).map(|i| format!("tok{}", i % 50)).collect();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let arena = Arc::clone(&arena);
                let mut words = words.clone();
                // Each thread interns in a different order.
                words.rotate_left(t * 7);
                std::thread::spawn(move || {
                    words
                        .iter()
                        .map(|w| (w.clone(), arena.intern(w)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut seen: HashMap<String, TokenId> = HashMap::new();
        for h in handles {
            for (w, id) in h.join().expect("interner thread panicked") {
                // Same string ⇒ same id, across all threads.
                let prev = seen.insert(w.clone(), id);
                if let Some(prev) = prev {
                    assert_eq!(prev, id, "id for {w:?} changed across threads");
                }
                assert_eq!(&*arena.resolve(id), w, "resolve disagrees with intern");
            }
        }
        assert_eq!(arena.len(), 50, "exactly the distinct vocabulary");
        // Ids are dense 0..len.
        let mut ids: Vec<u32> = seen.values().map(|id| id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn merge_walk_set_kernels() {
        let arena = TokenArena::new();
        let ids = |words: &[&str]| to_sorted_set(arena.intern_all(words));
        let a = ids(&["event", "begin", "date"]);
        let b = ids(&["begin", "date"]);
        assert_eq!(sorted_ids_intersection(&a, &b), 2);
        assert!((sorted_ids_jaccard(&a, &b) - 2.0 / 3.0).abs() < 1e-12);
        assert!(sorted_ids_contains(&a, arena.intern("event")));
        assert!(!sorted_ids_contains(&b, arena.intern("event")));
        assert_eq!(sorted_ids_jaccard(&[], &[]), 1.0);
        assert_eq!(sorted_ids_jaccard(&a, &[]), 0.0);
    }

    #[test]
    fn arena_tags_are_unique_and_memo_respects_them() {
        let a = TokenArena::new();
        let b = TokenArena::new();
        assert_ne!(a.tag(), b.tag());
        let (x, y) = (a.intern("foo"), b.intern("bar"));
        assert_eq!(x, y, "both arenas hand out id 0 first");
        // A memo filled under arena `a` must not serve arena `b`'s ids.
        let mut memo = PairMemo::new();
        assert_eq!(memo.get_or_insert_with(a.tag(), x, x, || 0.25), 0.25);
        assert_eq!(memo.get_or_insert_with(a.tag(), x, x, || 0.99), 0.25, "hit");
        assert_eq!(
            memo.get_or_insert_with(b.tag(), y, y, || 0.75),
            0.75,
            "tag switch must invalidate, not serve arena a's value"
        );
        // Ordered pairs are distinct entries (JW is not bit-symmetric).
        let z = a.intern("baz");
        let mut memo = PairMemo::new();
        assert_eq!(memo.get_or_insert_with(a.tag(), x, z, || 0.1), 0.1);
        assert_eq!(memo.get_or_insert_with(a.tag(), z, x, || 0.2), 0.2);
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn pair_memo_occupancy_is_bounded() {
        // Distinct pairs beyond CAPACITY flush the table instead of growing
        // it without bound (the memos live on persistent worker threads).
        let arena = TokenArena::new();
        let mut memo = PairMemo::new();
        let probes = PairMemo::CAPACITY + 1000;
        for i in 0..probes {
            let a = TokenId(i as u32);
            let b = TokenId((i % 7) as u32);
            memo.get_or_insert_with(arena.tag(), a, b, || 0.5);
        }
        assert!(memo.len() <= PairMemo::CAPACITY);
        assert!(!memo.is_empty());
        // Values survive a flush semantically: recomputation is pure.
        let v = memo.get_or_insert_with(arena.tag(), TokenId(0), TokenId(0), || 0.25);
        assert!(v == 0.25 || v == 0.5);
    }

    #[test]
    fn memo_stats_count_misses_and_flushes() {
        let arena = TokenArena::new();
        let before = pair_memo_stats();
        let mut memo = PairMemo::with_capacity(4);
        // 6 distinct pairs through a 4-entry table: every probe is a miss,
        // and the 5th insert flushes.
        for i in 0..6u32 {
            memo.get_or_insert_with(arena.tag(), TokenId(i), TokenId(i), || 1.0);
        }
        assert!(memo.len() <= 4);
        // A repeat within capacity is a hit: no counter movement from it.
        let resident = memo.len() as u32;
        memo.get_or_insert_with(arena.tag(), TokenId(5), TokenId(5), || 2.0);
        assert_eq!(memo.len() as u32, resident);
        let after = pair_memo_stats();
        assert!(after.misses >= before.misses + 6, "all probes were misses");
        assert!(after.flushes > before.flushes, "capacity flush counted");
    }

    #[test]
    fn global_arena_is_shared() {
        let g1 = TokenArena::global();
        let g2 = TokenArena::global();
        assert!(Arc::ptr_eq(g1, g2));
        let id = g1.intern("global-arena-probe");
        assert_eq!(g2.lookup("global-arena-probe"), Some(id));
    }
}
