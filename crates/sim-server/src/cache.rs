//! Content-addressed result cache: [`CellKey`] → opaque result payload.
//!
//! The cache stores *encoded* cell results (the owner wires in the
//! harness entry codec) keyed by the canonical spec hash. An in-memory
//! LRU with a configurable capacity fronts an optional on-disk snapshot:
//! the whole cache serializes to a deterministic, sorted, line-oriented
//! `simcache v1` document (same token codec as the key module) that the
//! owner persists with `atomic_write`. It is the only on-disk cell
//! format: `harness serve --cache` and the `harness --state` sweep
//! checkpoint both write it, so either file restores into the other.
//! Corrupt snapshot lines are dropped, not fatal — a damaged cache costs
//! recomputation, never a crash.

use crate::key::{esc, unesc, CellKey, CellSpec, Tokens};
use std::collections::HashMap;

const MAGIC: &str = "simcache v1";

/// One cached result: the spec it answers plus the encoded payload.
#[derive(Clone, Debug)]
pub struct CachedCell {
    pub spec: CellSpec,
    pub payload: String,
    /// LRU stamp: larger = more recently used.
    stamp: u64,
}

/// Running totals; monotone over the life of the cache (survive eviction,
/// not restarts).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
}

/// An in-memory LRU keyed by [`CellKey`].
///
/// Not internally synchronized: the server owns it behind a mutex. All
/// operations are O(1) except eviction's victim scan, which is O(n) —
/// fine for the thousands-of-cells scale this serves, and it keeps the
/// structure a plain `HashMap` with no unsafe intrusive lists.
pub struct Cache {
    capacity: usize,
    map: HashMap<CellKey, CachedCell>,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// `capacity` of 0 disables storage entirely (every lookup misses).
    pub fn new(capacity: usize) -> Cache {
        Cache {
            capacity,
            map: HashMap::new(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Look up a key, refreshing its recency. Counts a hit or a miss.
    pub fn get(&mut self, key: CellKey) -> Option<CachedCell> {
        self.clock += 1;
        let clock = self.clock;
        match self.map.get_mut(&key) {
            Some(cell) => {
                cell.stamp = clock;
                self.stats.hits += 1;
                Some(cell.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Look up without touching recency or counters (metrics, tests).
    pub fn peek(&self, key: CellKey) -> Option<&CachedCell> {
        self.map.get(&key)
    }

    /// Insert (or refresh) a result, evicting the least-recently-used
    /// entries if over capacity. Idempotent for identical payloads.
    pub fn insert(&mut self, spec: CellSpec, payload: String) {
        if self.capacity == 0 {
            return;
        }
        let key = spec.key();
        self.clock += 1;
        let stamp = self.clock;
        self.stats.insertions += 1;
        self.map.insert(
            key,
            CachedCell {
                spec,
                payload,
                stamp,
            },
        );
        while self.map.len() > self.capacity {
            // O(n) victim scan; see the struct-level note.
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, c)| c.stamp)
                .map(|(k, _)| *k)
                .expect("non-empty map over capacity");
            self.map.remove(&victim);
            self.stats.evictions += 1;
        }
    }

    /// Serialize to the `simcache v1` snapshot format. Lines are sorted
    /// by key, so the bytes are a pure function of the *set* of entries
    /// (recency and counters are deliberately not persisted).
    pub fn snapshot(&self) -> Vec<u8> {
        let mut lines: Vec<String> = self
            .map
            .iter()
            .map(|(k, c)| format!("{k}|{}|{}", esc(&c.spec.canonical()), esc(&c.payload)))
            .collect();
        lines.sort_unstable();
        let mut out = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum::<usize>() + 16);
        out.push_str(MAGIC);
        out.push('\n');
        for l in &lines {
            out.push_str(l);
            out.push('\n');
        }
        out.into_bytes()
    }

    /// Restore entries from a snapshot produced by [`snapshot`](Self::snapshot).
    ///
    /// Returns the number of entries loaded, or `None` when the document
    /// is not a simcache at all. Lines whose stored key does not match
    /// the recomputed spec hash (tampering, torn write, schema change)
    /// are dropped. `validate` lets the owner reject payloads it cannot
    /// decode. Loaded entries land in sorted-key order (deterministic
    /// recency) and respect capacity.
    pub fn restore(&mut self, bytes: &[u8], validate: impl Fn(&str) -> bool) -> Option<usize> {
        let text = std::str::from_utf8(bytes).ok()?;
        let mut lines = text.lines();
        if lines.next()? != MAGIC {
            return None;
        }
        let mut loaded = 0;
        for line in lines {
            let mut t = Tokens::new(line);
            let parsed = (|| {
                let key: CellKey = t.str()?.parse().ok()?;
                let spec = CellSpec::from_canonical(&unesc(t.str()?)?)?;
                let payload = unesc(t.str()?)?;
                if spec.key() != key || !validate(&payload) {
                    return None;
                }
                Some((spec, payload))
            })();
            if let Some((spec, payload)) = parsed {
                // Bypass the hit/miss/insertion counters: a warm start is
                // bookkeeping, not traffic.
                if self.capacity > 0 {
                    let key = spec.key();
                    self.clock += 1;
                    let stamp = self.clock;
                    self.map.insert(
                        key,
                        CachedCell {
                            spec,
                            payload,
                            stamp,
                        },
                    );
                    if self.map.len() <= self.capacity {
                        loaded += 1;
                    } else {
                        self.map.remove(&key);
                    }
                }
            }
        }
        Some(loaded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(bench: &str) -> CellSpec {
        CellSpec {
            sim_version: "0.1.0".into(),
            device: "exynos5250".into(),
            scale: "test".into(),
            bench: bench.into(),
            version: "Serial".into(),
            precision: 32,
            fault_seed: None,
            passes: None,
        }
    }

    #[test]
    fn hit_miss_and_counters() {
        let mut c = Cache::new(8);
        let k = spec("spmv").key();
        assert!(c.get(k).is_none());
        c.insert(spec("spmv"), "payload-a".into());
        let got = c.get(k).unwrap();
        assert_eq!(got.payload, "payload-a");
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                insertions: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn lru_evicts_the_coldest() {
        let mut c = Cache::new(2);
        c.insert(spec("a"), "1".into());
        c.insert(spec("b"), "2".into());
        // Touch "a" so "b" is the LRU victim.
        assert!(c.get(spec("a").key()).is_some());
        c.insert(spec("c"), "3".into());
        assert_eq!(c.len(), 2);
        assert!(c.peek(spec("a").key()).is_some());
        assert!(c.peek(spec("b").key()).is_none());
        assert!(c.peek(spec("c").key()).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let mut c = Cache::new(0);
        c.insert(spec("a"), "1".into());
        assert!(c.is_empty());
        assert!(c.get(spec("a").key()).is_none());
    }

    #[test]
    fn snapshot_is_deterministic_and_restores() {
        let mut a = Cache::new(16);
        a.insert(spec("spmv"), "p1".into());
        a.insert(spec("vecop"), "p2".into());
        a.insert(spec("hist"), "p3".into());
        let snap = a.snapshot();
        // Insertion order must not matter.
        let mut b = Cache::new(16);
        b.insert(spec("hist"), "p3".into());
        b.insert(spec("vecop"), "p2".into());
        b.insert(spec("spmv"), "p1".into());
        assert_eq!(snap, b.snapshot());

        let mut c = Cache::new(16);
        assert_eq!(c.restore(&snap, |_| true), Some(3));
        assert_eq!(c.snapshot(), snap);
        // Restore does not count as traffic.
        assert_eq!(c.stats(), CacheStats::default());
        assert_eq!(c.get(spec("vecop").key()).unwrap().payload, "p2");
    }

    #[test]
    fn corrupt_snapshot_lines_are_dropped() {
        let mut a = Cache::new(16);
        a.insert(spec("spmv"), "p1".into());
        a.insert(spec("vecop"), "p2".into());
        let mut text = String::from_utf8(a.snapshot()).unwrap();
        text.push_str("not|a|valid|line\n");
        // Tampered key: flip a hex digit of the first entry line.
        let tampered = {
            let mut lines: Vec<&str> = text.lines().collect();
            let flipped = lines[1].replacen(
                &lines[1][..1],
                if &lines[1][..1] == "0" { "1" } else { "0" },
                1,
            );
            let owned = flipped;
            lines[1] = &owned;
            lines.join("\n") + "\n"
        };
        let mut c = Cache::new(16);
        // Exactly one pristine line survives (the untampered second entry).
        assert_eq!(c.restore(tampered.as_bytes(), |_| true), Some(1));

        // Validation hook rejects undecodable payloads.
        let mut d = Cache::new(16);
        assert_eq!(d.restore(&a.snapshot(), |p| p != "p1"), Some(1));
        assert!(d.peek(spec("spmv").key()).is_none());
        assert!(d.peek(spec("vecop").key()).is_some());

        // A foreign document is rejected outright.
        assert_eq!(Cache::new(4).restore(b"nonsense\n", |_| true), None);
    }

    #[test]
    fn restore_respects_capacity() {
        let mut a = Cache::new(16);
        for name in ["a", "b", "c", "d"] {
            a.insert(spec(name), name.to_string());
        }
        let snap = a.snapshot();
        let mut small = Cache::new(2);
        let loaded = small.restore(&snap, |_| true).unwrap();
        assert_eq!(loaded, 2);
        assert_eq!(small.len(), 2);
    }
}
