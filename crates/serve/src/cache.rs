//! The path-prefix result cache: an LRU map from activation-path prefix
//! fingerprints to served verdicts.
//!
//! Repeated and near-duplicate inputs (the common case in real traffic — think
//! retries, frame-to-frame video redundancy, replayed probes) activate the same
//! early-layer important neurons, so their
//! [`ptolemy_core::ActivationPath::prefix_fingerprint`] collides by
//! construction.  Caching the final verdict under that fingerprint lets the
//! server skip classifier re-scoring and — far more importantly under tiered
//! routing — the expensive tier-2 re-extraction for such inputs.
//!
//! The cache trades exactness for throughput: two inputs whose paths agree on
//! the first `prefix_segments` extraction layers share a verdict.  Serving with
//! the cache disabled is bit-for-bit identical to direct engine calls; that
//! parity is what the serve test-suite pins down.
//!
//! In front of the path-prefix map the server keeps an equally-sized LRU from
//! *input* fingerprints to path-prefix keys, so a byte-identical repeat skips
//! even the screening extraction — the path-prefix level then catches the
//! near-duplicates whose bytes differ but whose early-layer paths collide.
//!
//! With [`CacheConfig::persist_path`] set, the cache also survives restarts:
//! the server serialises the LRU (in recency order, bit-exact verdicts) to
//! disk on shutdown and reloads it on start, but **only** when the persisted
//! file was written by an identical engine — see [`CacheConfig`] for the
//! format and the fingerprint-mismatch behaviour.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use ptolemy_core::json::{self, JsonValue};
use ptolemy_core::Detection;

use crate::server::{Served, Tier};

/// Configuration of the path-prefix result cache.
///
/// # Persistence format
///
/// With [`CacheConfig::persist_path`] set, [`crate::Server::shutdown`] (or
/// drop) writes the cache to that path as a JSON document produced by the
/// workspace's hand-rolled [`ptolemy_core::json`] module:
///
/// ```json
/// {"version":1,
///  "engine_fingerprint":"fw|ab0.05|…",
///  "prefix_segments":2,
///  "entries":[{"key":"1f9a…","tier":0,"is_adversary":1,
///              "score":"3f2e147b","similarity":"3e99999a","predicted_class":3}, …]}
/// ```
///
/// `key` is the path-prefix cache key and `score`/`similarity` are the
/// verdict's IEEE-754 bit patterns, all hex-encoded — a reloaded entry replays
/// the original verdict **bit for bit**.  `entries` are ordered most- to
/// least-recently used, so a restarted server also inherits the eviction
/// order.
///
/// # Fingerprint-mismatch behaviour
///
/// On start the server reloads the file only if `engine_fingerprint` equals
/// the *screening* engine's build-time [`ptolemy_core::DetectionEngine::fingerprint`]
/// (cache keys are seeded with it) **and** `prefix_segments` matches this
/// configuration.  A missing file starts cold silently; a mismatched, corrupt
/// or unreadable file is **ignored** — the server starts with an empty cache
/// and reports it in [`crate::ServeStats::cache_load_rejected`] instead of
/// serving another engine's verdicts or failing startup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum number of cached verdicts (least-recently-used eviction).
    pub capacity: usize,
    /// Number of leading path segments (in extraction order) hashed into the
    /// cache key.  Fewer segments mean coarser matching and more hits; pass
    /// `usize::MAX` to key on the entire path (exact-duplicate matching only).
    pub prefix_segments: usize,
    /// Where to persist the cache across restarts: loaded on
    /// [`crate::ServerBuilder::start`], written on shutdown.  `None` (the
    /// default) keeps the cache purely in memory.
    pub persist_path: Option<PathBuf>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 1024,
            prefix_segments: 2,
            persist_path: None,
        }
    }
}

/// A served verdict as stored in the path-prefix cache: the detection plus the
/// tier that produced it (so replayed hits report their original provenance).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CachedVerdict {
    pub(crate) detection: Detection,
    pub(crate) tier: Tier,
}

impl CachedVerdict {
    /// The [`Served`] a hit on this entry resolves to: the stored verdict and
    /// tier, flagged as a hit.  Never degraded — degraded verdicts are not
    /// cached.
    pub(crate) fn hit(self) -> Served {
        Served {
            detection: self.detection,
            tier: self.tier,
            cache_hit: true,
            degraded: false,
        }
    }
}

/// Format version of the persisted cache file.
const PERSIST_VERSION: u64 = 1;

/// Outcome of trying to reload a persisted cache file.
pub(crate) enum CacheLoad {
    /// No file at the configured path: start cold, not an error.
    Missing,
    /// The file exists but is corrupt, unreadable or was written by a
    /// different engine/prefix configuration: ignored (counted in
    /// [`crate::ServeStats::cache_load_rejected`]).
    Rejected,
    /// Entries restored from disk, most-recently-used first.
    Loaded(Vec<(u64, CachedVerdict)>),
}

/// Reloads a persisted cache written by an engine whose fingerprint and prefix
/// depth match; anything else is [`CacheLoad::Rejected`].
pub(crate) fn load_persisted(path: &Path, fingerprint: &str, prefix_segments: usize) -> CacheLoad {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CacheLoad::Missing,
        Err(_) => return CacheLoad::Rejected,
    };
    match parse_persisted(&text, fingerprint, prefix_segments) {
        Some(entries) => CacheLoad::Loaded(entries),
        None => CacheLoad::Rejected,
    }
}

fn parse_persisted(
    text: &str,
    fingerprint: &str,
    prefix_segments: usize,
) -> Option<Vec<(u64, CachedVerdict)>> {
    let doc = json::parse(text).ok()?;
    if doc.get("version")?.as_u64()? != PERSIST_VERSION
        || doc.get("engine_fingerprint")?.as_str()? != fingerprint
        || doc.get("prefix_segments")?.as_u64()? != prefix_segments as u64
    {
        return None;
    }
    doc.get("entries")?
        .as_array()?
        .iter()
        .map(parse_entry)
        .collect()
}

fn parse_entry(entry: &JsonValue) -> Option<(u64, CachedVerdict)> {
    let key = u64::from_str_radix(entry.get("key")?.as_str()?, 16).ok()?;
    let tier = match entry.get("tier")?.as_u64()? {
        0 => Tier::Screen,
        1 => Tier::Escalated,
        _ => return None,
    };
    let is_adversary = match entry.get("is_adversary")?.as_u64()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let bits = |field: &str| -> Option<f32> {
        let raw = entry.get(field)?.as_str()?;
        Some(f32::from_bits(u32::from_str_radix(raw, 16).ok()?))
    };
    Some((
        key,
        CachedVerdict {
            detection: Detection {
                is_adversary,
                score: bits("score")?,
                similarity: bits("similarity")?,
                predicted_class: entry.get("predicted_class")?.as_u64()? as usize,
            },
            tier,
        },
    ))
}

/// Writes the cache to `path` in the [`CacheConfig`] persistence format
/// (entries most-recently-used first).  Returns the number of entries written.
pub(crate) fn persist(
    path: &Path,
    fingerprint: &str,
    prefix_segments: usize,
    cache: &LruCache<CachedVerdict>,
) -> std::io::Result<usize> {
    let entries: Vec<JsonValue> = cache
        .iter()
        .map(|(key, cached)| {
            JsonValue::Object(vec![
                ("key".into(), JsonValue::String(format!("{key:x}"))),
                (
                    "tier".into(),
                    JsonValue::UInt(match cached.tier {
                        Tier::Screen => 0,
                        Tier::Escalated => 1,
                    }),
                ),
                (
                    "is_adversary".into(),
                    JsonValue::UInt(u64::from(cached.detection.is_adversary)),
                ),
                (
                    "score".into(),
                    JsonValue::String(format!("{:08x}", cached.detection.score.to_bits())),
                ),
                (
                    "similarity".into(),
                    JsonValue::String(format!("{:08x}", cached.detection.similarity.to_bits())),
                ),
                (
                    "predicted_class".into(),
                    JsonValue::UInt(cached.detection.predicted_class as u64),
                ),
            ])
        })
        .collect();
    let count = entries.len();
    let doc = JsonValue::Object(vec![
        ("version".into(), JsonValue::UInt(PERSIST_VERSION)),
        (
            "engine_fingerprint".into(),
            JsonValue::String(fingerprint.to_string()),
        ),
        (
            "prefix_segments".into(),
            JsonValue::UInt(prefix_segments as u64),
        ),
        ("entries".into(), JsonValue::Array(entries)),
    ]);
    // Write-to-temp then rename: a shutdown killed mid-flush must not tear
    // the previous run's valid file (a torn file would be rejected on the
    // next start and the warm cache lost).
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, doc.to_json())?;
    std::fs::rename(&tmp, path)?;
    Ok(count)
}

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot<V> {
    key: u64,
    value: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity LRU map from `u64` fingerprints to values.
///
/// Entries live in a slab indexed by an intrusive doubly-linked recency list,
/// so `get` and `insert` are O(1); the slab never reallocates after the cache
/// first fills.
#[derive(Debug)]
pub struct LruCache<V> {
    map: HashMap<u64, usize>,
    slots: Vec<Slot<V>>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl<V> LruCache<V> {
    /// Creates an empty cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (the server builder validates this first).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU cache capacity must be nonzero");
        LruCache {
            map: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates the cached `(key, value)` pairs from most- to least-recently
    /// used, without touching recency (used by cache persistence, so the saved
    /// file reproduces the eviction order).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        std::iter::successors((self.head != NIL).then_some(self.head), move |&slot| {
            let next = self.slots[slot].next;
            (next != NIL).then_some(next)
        })
        .map(move |slot| (self.slots[slot].key, &self.slots[slot].value))
    }

    /// Looks up `key`, marking the entry most-recently-used on a hit.
    pub fn get(&mut self, key: u64) -> Option<&V> {
        let slot = *self.map.get(&key)?;
        self.touch(slot);
        Some(&self.slots[slot].value)
    }

    /// Inserts (or replaces) `key`, evicting the least-recently-used entry if
    /// the cache is full.  The inserted entry becomes most-recently-used.
    pub fn insert(&mut self, key: u64, value: V) {
        if let Some(&slot) = self.map.get(&key) {
            self.slots[slot].value = value;
            self.touch(slot);
            return;
        }
        let slot = if self.map.len() < self.capacity {
            self.slots.push(Slot {
                key,
                value,
                prev: NIL,
                next: NIL,
            });
            self.slots.len() - 1
        } else {
            // Reuse the least-recently-used slot.
            let slot = self.tail;
            self.unlink(slot);
            self.map.remove(&self.slots[slot].key);
            self.slots[slot].key = key;
            self.slots[slot].value = value;
            slot
        };
        self.map.insert(key, slot);
        self.push_front(slot);
    }

    fn touch(&mut self, slot: usize) {
        if self.head == slot {
            return;
        }
        self.unlink(slot);
        self.push_front(slot);
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_and_replace() {
        let mut cache = LruCache::new(2);
        assert!(cache.is_empty());
        cache.insert(1, "a");
        cache.insert(2, "b");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.capacity(), 2);
        assert_eq!(cache.get(1), Some(&"a"));
        assert_eq!(cache.get(3), None);
        cache.insert(1, "a2");
        assert_eq!(cache.get(1), Some(&"a2"));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = LruCache::new(2);
        cache.insert(1, 1);
        cache.insert(2, 2);
        // Touch 1 so 2 becomes LRU.
        assert_eq!(cache.get(1), Some(&1));
        cache.insert(3, 3);
        assert_eq!(cache.get(2), None, "LRU entry must be evicted");
        assert_eq!(cache.get(1), Some(&1));
        assert_eq!(cache.get(3), Some(&3));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn single_slot_cache_cycles() {
        let mut cache = LruCache::new(1);
        for i in 0..10u64 {
            cache.insert(i, i);
            assert_eq!(cache.get(i), Some(&i));
            assert_eq!(cache.len(), 1);
            if i > 0 {
                assert_eq!(cache.get(i - 1), None);
            }
        }
    }

    #[test]
    fn eviction_order_follows_recency_under_churn() {
        let mut cache = LruCache::new(3);
        for i in 0..3u64 {
            cache.insert(i, i);
        }
        // Recency now 2 > 1 > 0; touch 0 -> 0 > 2 > 1.
        cache.get(0);
        cache.insert(3, 3); // evicts 1
        cache.insert(4, 4); // evicts 2
        assert_eq!(cache.get(1), None);
        assert_eq!(cache.get(2), None);
        assert!(cache.get(0).is_some() && cache.get(3).is_some() && cache.get(4).is_some());
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        let _ = LruCache::<u8>::new(0);
    }

    #[test]
    fn iter_walks_recency_order_without_touching_it() {
        let mut cache = LruCache::new(3);
        assert_eq!(cache.iter().count(), 0);
        for i in 0..3u64 {
            cache.insert(i, i * 10);
        }
        cache.get(0); // recency now 0 > 2 > 1
        let order: Vec<(u64, u64)> = cache.iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(order, vec![(0, 0), (2, 20), (1, 10)]);
        // Iterating twice yields the same order: iter is read-only.
        let again: Vec<u64> = cache.iter().map(|(k, _)| k).collect();
        assert_eq!(again, vec![0, 2, 1]);
    }

    fn verdict(score: f32, tier: Tier) -> CachedVerdict {
        CachedVerdict {
            detection: Detection {
                is_adversary: score >= 0.5,
                score,
                similarity: 1.0 - score,
                predicted_class: 7,
            },
            tier,
        }
    }

    fn temp_file(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ptolemy-cache-{}-{name}.json", std::process::id()))
    }

    #[test]
    fn persisted_cache_roundtrips_bit_exactly_in_recency_order() {
        let path = temp_file("roundtrip");
        let mut cache = LruCache::new(8);
        // Include awkward floats: negative-zero score survives only if the
        // serialisation is bit-exact.
        cache.insert(1, verdict(-0.0, Tier::Screen));
        cache.insert(2, verdict(0.75, Tier::Escalated));
        cache.get(1);
        let written = persist(&path, "fp-a", 2, &cache).unwrap();
        assert_eq!(written, 2);

        match load_persisted(&path, "fp-a", 2) {
            CacheLoad::Loaded(entries) => {
                assert_eq!(entries.len(), 2);
                // MRU first: key 1 was touched last.
                assert_eq!(entries[0].0, 1);
                assert_eq!(entries[0].1.detection.score.to_bits(), (-0.0f32).to_bits());
                assert_eq!(entries[1].1, *cache.get(2).unwrap());
            }
            _ => panic!("expected a loaded cache"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mismatched_or_corrupt_persisted_caches_are_rejected() {
        let path = temp_file("reject");
        let mut cache = LruCache::new(4);
        cache.insert(9, verdict(0.25, Tier::Screen));
        persist(&path, "fp-a", 3, &cache).unwrap();

        // Wrong engine fingerprint and wrong prefix depth are both rejected.
        assert!(matches!(
            load_persisted(&path, "fp-b", 3),
            CacheLoad::Rejected
        ));
        assert!(matches!(
            load_persisted(&path, "fp-a", 2),
            CacheLoad::Rejected
        ));
        // The matching configuration still loads.
        assert!(matches!(
            load_persisted(&path, "fp-a", 3),
            CacheLoad::Loaded(_)
        ));
        // Corrupt bytes are rejected; a missing file is merely missing.
        std::fs::write(&path, "not json at all").unwrap();
        assert!(matches!(
            load_persisted(&path, "fp-a", 3),
            CacheLoad::Rejected
        ));
        let _ = std::fs::remove_file(&path);
        assert!(matches!(
            load_persisted(&path, "fp-a", 3),
            CacheLoad::Missing
        ));
    }
}
