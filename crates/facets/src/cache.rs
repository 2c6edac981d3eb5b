//! Generation-keyed facet cache.
//!
//! Interactive sessions revisit states constantly — the back button, the
//! breadcrumb trail, two users exploring the same class. Marker computation
//! is pure: its output depends only on the store contents and the extension.
//! The cache therefore keys entries by `(store generation, extension
//! fingerprint, extension length, marker kind)`; the store bumps its
//! [`rdfa_store::Store::generation`] counter on every effective mutation, so
//! entries from a stale store can never be served — no explicit
//! invalidation hooks, updates just stop matching.
//!
//! The cache is `Sync` (a mutexed map plus atomic counters) and intended to
//! be shared via `Arc` across sessions and server worker threads.

use crate::markers::{class_markers_opts, property_facets_opts, ClassMarker, FacetOptions, PropertyFacet};
use crate::FacetError;
use rdfa_store::{ExtSet, Store};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    Classes,
    Facets,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    kind: Kind,
    generation: u64,
    ext_len: usize,
    fingerprint: u64,
}

impl Key {
    fn new(kind: Kind, store: &Store, ext: &ExtSet) -> Self {
        Key {
            kind,
            generation: store.generation(),
            ext_len: ext.len(),
            fingerprint: ext.fingerprint(),
        }
    }
}

#[derive(Clone)]
enum CachedValue {
    Classes(Arc<Vec<ClassMarker>>),
    Facets(Arc<Vec<PropertyFacet>>),
}

struct Entry {
    value: CachedValue,
    /// Last-access tick, for LRU eviction.
    tick: u64,
}

struct Inner {
    map: HashMap<Key, Entry>,
    tick: u64,
}

/// Whether one fresh lookup was answered from the cache or computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    Hit,
    Miss,
}

/// Point-in-time cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FacetCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Lookups answered from a superseded generation (graceful degradation
    /// under deadline pressure; see the `*_stale` methods).
    pub stale_hits: u64,
    pub entries: usize,
    pub capacity: usize,
}

/// An LRU cache of computed markers, keyed by store generation and
/// extension fingerprint. See the module docs for the invalidation story.
pub struct FacetCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    stale_hits: AtomicU64,
}

/// Default number of cached marker sets (two entries per distinct state).
pub const DEFAULT_FACET_CACHE_ENTRIES: usize = 128;

impl Default for FacetCache {
    fn default() -> Self {
        FacetCache::new(DEFAULT_FACET_CACHE_ENTRIES)
    }
}

impl FacetCache {
    /// A cache holding at most `capacity` marker sets (class trees and
    /// property-facet lists count separately). A capacity of `0` disables
    /// caching: every lookup is a miss and nothing is stored.
    pub fn new(capacity: usize) -> Self {
        FacetCache {
            capacity,
            inner: Mutex::new(Inner { map: HashMap::new(), tick: 0 }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            stale_hits: AtomicU64::new(0),
        }
    }

    /// Class markers for `ext`, served from cache when the store generation
    /// and extension fingerprint match, computed (and cached) otherwise.
    /// Deadline errors are returned without caching.
    pub fn class_markers(
        &self,
        store: &Store,
        ext: &ExtSet,
        opts: FacetOptions,
    ) -> Result<Arc<Vec<ClassMarker>>, FacetError> {
        self.class_markers_traced(store, ext, opts).map(|(v, _)| v)
    }

    /// [`FacetCache::class_markers`], also reporting whether this call was
    /// answered from the cache. The outcome belongs to this call alone; the
    /// shared [`FacetCache::stats`] counters also move with every other
    /// caller's lookups, so diffing them cannot label one request.
    pub fn class_markers_traced(
        &self,
        store: &Store,
        ext: &ExtSet,
        opts: FacetOptions,
    ) -> Result<(Arc<Vec<ClassMarker>>, CacheOutcome), FacetError> {
        let key = Key::new(Kind::Classes, store, ext);
        if let Some(CachedValue::Classes(v)) = self.lookup(key) {
            return Ok((v, CacheOutcome::Hit));
        }
        let computed = Arc::new(class_markers_opts(store, ext, opts)?);
        self.store_entry(key, CachedValue::Classes(Arc::clone(&computed)));
        Ok((computed, CacheOutcome::Miss))
    }

    /// Property facets for `ext`; caching behaves as for
    /// [`FacetCache::class_markers`].
    pub fn property_facets(
        &self,
        store: &Store,
        ext: &ExtSet,
        opts: FacetOptions,
    ) -> Result<Arc<Vec<PropertyFacet>>, FacetError> {
        self.property_facets_traced(store, ext, opts).map(|(v, _)| v)
    }

    /// [`FacetCache::property_facets`] with this call's own hit or miss; see
    /// [`FacetCache::class_markers_traced`].
    pub fn property_facets_traced(
        &self,
        store: &Store,
        ext: &ExtSet,
        opts: FacetOptions,
    ) -> Result<(Arc<Vec<PropertyFacet>>, CacheOutcome), FacetError> {
        let key = Key::new(Kind::Facets, store, ext);
        if let Some(CachedValue::Facets(v)) = self.lookup(key) {
            return Ok((v, CacheOutcome::Hit));
        }
        let computed = Arc::new(property_facets_opts(store, ext, opts)?);
        self.store_entry(key, CachedValue::Facets(Arc::clone(&computed)));
        Ok((computed, CacheOutcome::Miss))
    }

    /// Best stale class markers for `ext`: the newest cached entry for this
    /// extension at **any** generation. Returns the value and the
    /// generation it was computed at. Used for graceful degradation — when
    /// a fresh computation would blow its deadline, a recent answer with an
    /// honest staleness label beats a 504.
    pub fn class_markers_stale(&self, ext: &ExtSet) -> Option<(Arc<Vec<ClassMarker>>, u64)> {
        match self.lookup_stale(Kind::Classes, ext) {
            Some((CachedValue::Classes(v), generation)) => Some((v, generation)),
            _ => None,
        }
    }

    /// Best stale property facets for `ext`; see
    /// [`FacetCache::class_markers_stale`].
    pub fn property_facets_stale(&self, ext: &ExtSet) -> Option<(Arc<Vec<PropertyFacet>>, u64)> {
        match self.lookup_stale(Kind::Facets, ext) {
            Some((CachedValue::Facets(v), generation)) => Some((v, generation)),
            _ => None,
        }
    }

    fn lookup_stale(&self, kind: Kind, ext: &ExtSet) -> Option<(CachedValue, u64)> {
        let (ext_len, fingerprint) = (ext.len(), ext.fingerprint());
        let mut inner = self.inner.lock().expect("facet cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        // linear scan over ≤ capacity entries, off the fresh-hit fast path
        let best = inner
            .map
            .keys()
            .filter(|k| k.kind == kind && k.ext_len == ext_len && k.fingerprint == fingerprint)
            .max_by_key(|k| k.generation)
            .copied()?;
        let entry = inner.map.get_mut(&best).expect("key just found");
        entry.tick = tick;
        let value = entry.value.clone();
        drop(inner);
        self.stale_hits.fetch_add(1, Ordering::Relaxed);
        Some((value, best.generation))
    }

    fn lookup(&self, key: Key) -> Option<CachedValue> {
        let mut inner = self.inner.lock().expect("facet cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&key) {
            Some(entry) => {
                entry.tick = tick;
                let value = entry.value.clone();
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn store_entry(&self, key: Key, value: CachedValue) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("facet cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            // evict the least-recently-used entry (linear scan: capacities
            // are small and eviction is off the hot hit path)
            if let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| *k)
            {
                inner.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.map.insert(key, Entry { value, tick });
    }

    /// Hit/miss/eviction counters and current occupancy.
    pub fn stats(&self) -> FacetCacheStats {
        let entries = self.inner.lock().expect("facet cache poisoned").map.len();
        FacetCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            stale_hits: self.stale_hits.load(Ordering::Relaxed),
            entries,
            capacity: self.capacity,
        }
    }

    /// Drop all entries (counters are kept).
    pub fn clear(&self) {
        self.inner.lock().expect("facet cache poisoned").map.clear();
    }
}

impl std::fmt::Debug for FacetCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("FacetCache")
            .field("capacity", &s.capacity)
            .field("entries", &s.entries)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("evictions", &s.evictions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfa_store::TermId;

    const EX: &str = "http://e/";

    fn store() -> Store {
        let mut s = Store::new();
        s.load_turtle(&format!(
            r#"@prefix ex: <{EX}> .
               ex:l1 a ex:Laptop ; ex:manufacturer ex:DELL .
               ex:l2 a ex:Laptop ; ex:manufacturer ex:Lenovo .
            "#
        ))
        .unwrap();
        s
    }

    fn ext(s: &Store) -> ExtSet {
        s.instances_set(s.lookup_iri(&format!("{EX}Laptop")).unwrap())
    }

    #[test]
    fn second_lookup_hits() {
        let s = store();
        let cache = FacetCache::new(8);
        let opts = FacetOptions::default();
        let a = cache.class_markers(&s, &ext(&s), opts.clone()).unwrap();
        let b = cache.class_markers(&s, &ext(&s), opts.clone()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let st = cache.stats();
        assert_eq!((st.hits, st.misses), (1, 1));
    }

    #[test]
    fn store_mutation_invalidates() {
        let mut s = store();
        let cache = FacetCache::new(8);
        let opts = FacetOptions::default();
        let e = ext(&s);
        let a = cache.class_markers(&s, &e, opts.clone()).unwrap();
        s.load_turtle(&format!("@prefix ex: <{EX}> . ex:l3 a ex:Laptop ."))
            .unwrap();
        // same extension value, new generation: must recompute
        let b = cache.class_markers(&s, &e, opts.clone()).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn distinct_extensions_do_not_collide() {
        let s = store();
        let cache = FacetCache::new(8);
        let opts = FacetOptions::default();
        let full = ext(&s);
        let one: ExtSet = full.iter().take(1).collect();
        let a = cache.property_facets(&s, &full, opts.clone()).unwrap();
        let b = cache.property_facets(&s, &one, opts.clone()).unwrap();
        assert_ne!(*a, *b);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        let s = store();
        let cache = FacetCache::new(2);
        let opts = FacetOptions::default();
        let full = ext(&s);
        let singles: Vec<ExtSet> = full.iter().map(|id| [id].into_iter().collect::<ExtSet>()).collect();
        cache.class_markers(&s, &full, opts.clone()).unwrap();
        cache.class_markers(&s, &singles[0], opts.clone()).unwrap();
        // touch `full` so `singles[0]` is the LRU victim
        cache.class_markers(&s, &full, opts.clone()).unwrap();
        cache.class_markers(&s, &singles[1], opts.clone()).unwrap();
        let st = cache.stats();
        assert_eq!(st.evictions, 1);
        assert_eq!(st.entries, 2);
        // `full` survived the eviction
        cache.class_markers(&s, &full, opts.clone()).unwrap();
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let s = store();
        let cache = FacetCache::new(0);
        let opts = FacetOptions::default();
        cache.class_markers(&s, &ext(&s), opts.clone()).unwrap();
        cache.class_markers(&s, &ext(&s), opts.clone()).unwrap();
        let st = cache.stats();
        assert_eq!(st.hits, 0);
        assert_eq!(st.entries, 0);
    }

    #[test]
    fn shared_across_threads() {
        let s = store();
        let cache = Arc::new(FacetCache::new(8));
        let e = ext(&s);
        // warm the entry, then hit it from four threads concurrently
        cache.class_markers(&s, &e, FacetOptions::default()).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (cache, s, e) = (Arc::clone(&cache), &s, &e);
                scope.spawn(move || {
                    cache.class_markers(s, e, FacetOptions::default()).unwrap();
                });
            }
        });
        let st = cache.stats();
        assert_eq!((st.hits, st.misses), (4, 1), "{st:?}");
    }

    /// Each call reports its own outcome, per marker kind.
    #[test]
    fn traced_lookups_report_their_own_outcome() {
        let s = store();
        let cache = FacetCache::new(8);
        let opts = FacetOptions::default();
        let e = ext(&s);
        let (_, first) = cache.property_facets_traced(&s, &e, opts.clone()).unwrap();
        let (_, warm) = cache.property_facets_traced(&s, &e, opts.clone()).unwrap();
        let (_, classes) = cache.class_markers_traced(&s, &e, opts).unwrap();
        assert_eq!(
            (first, warm, classes),
            (CacheOutcome::Miss, CacheOutcome::Hit, CacheOutcome::Miss)
        );
    }

    #[test]
    fn stale_lookup_serves_newest_superseded_generation() {
        let mut s = store();
        let cache = FacetCache::new(8);
        let opts = FacetOptions::default();
        let e = ext(&s);
        let old = cache.class_markers(&s, &e, opts.clone()).unwrap();
        let old_gen = s.generation();
        // mutate: the cached entry is now stale for fresh lookups...
        s.load_turtle(&format!("@prefix ex: <{EX}> . ex:x1 a ex:Desktop ."))
            .unwrap();
        assert!(s.generation() > old_gen);
        // ...but the stale path still finds it, labeled with its generation
        let (v, g) = cache.class_markers_stale(&e).expect("stale entry available");
        assert!(Arc::ptr_eq(&old, &v));
        assert_eq!(g, old_gen);
        assert_eq!(cache.stats().stale_hits, 1);
        // newest generation wins once a fresher entry exists
        let newer = cache.class_markers(&s, &e, opts.clone()).unwrap();
        let (v2, g2) = cache.class_markers_stale(&e).unwrap();
        assert!(Arc::ptr_eq(&newer, &v2));
        assert_eq!(g2, s.generation());
        // unknown extension: no stale answer
        let other: ExtSet = [TermId(9999)].into_iter().collect();
        assert!(cache.class_markers_stale(&other).is_none());
    }

    #[test]
    fn fingerprint_distinguishes_same_len() {
        // same length, different members: keys must differ
        let a: ExtSet = [TermId(1), TermId(2)].into_iter().collect();
        let b: ExtSet = [TermId(1), TermId(3)].into_iter().collect();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
