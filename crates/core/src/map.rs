//! The Inlined mode (§3.1, mode 1): 8-byte keys and 8-byte values stored
//! directly in the index slots. This is DLHT's hot configuration — a pointer
//! cache for a query engine, a pointer-to-pointer map for a storage engine —
//! and the one all the headline numbers (Figures 3–8) are measured on.

use crate::batch::{Batch, BatchPolicy, Request, Response};
use crate::config::DlhtConfig;
use crate::error::{DlhtError, InsertOutcome};
use crate::session::Session;
use crate::stats::TableStats;
use crate::table::RawTable;

/// Concurrent hash map with inlined 8-byte keys and values.
///
/// All operations are thread-safe and practically non-blocking; see the crate
/// docs for the full feature description.
///
/// ```
/// use dlht_core::DlhtMap;
///
/// let map = DlhtMap::with_capacity(1024);
/// map.insert(1, 100).unwrap();
/// assert_eq!(map.get(1), Some(100));
/// map.put(1, 200);
/// assert_eq!(map.delete(1), Some(200));
/// ```
pub struct DlhtMap {
    table: RawTable,
}

impl DlhtMap {
    /// Create a map from an explicit configuration.
    pub fn with_config(config: DlhtConfig) -> Self {
        DlhtMap {
            table: RawTable::with_config(config),
        }
    }

    /// Create a map sized to hold about `keys` keys before its first resize.
    pub fn with_capacity(keys: usize) -> Self {
        Self::with_config(DlhtConfig::for_capacity(keys))
    }

    /// Create a map with `num_bins` bins and default configuration.
    pub fn new(num_bins: usize) -> Self {
        Self::with_config(DlhtConfig::new(num_bins))
    }

    /// The active configuration.
    pub fn config(&self) -> &DlhtConfig {
        self.table.config()
    }

    /// Look up `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u64> {
        self.table.get(key)
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.table.contains(key)
    }

    /// Insert `key -> value`; fails (without overwriting) if the key exists.
    #[inline]
    pub fn insert(&self, key: u64, value: u64) -> Result<InsertOutcome, DlhtError> {
        self.table.insert(key, value)
    }

    /// Update the value of an existing key; returns the previous value.
    #[inline]
    pub fn put(&self, key: u64, value: u64) -> Option<u64> {
        self.table.put(key, value)
    }

    /// Insert if absent, otherwise update; returns the previous value on
    /// update, `Ok(None)` on a fresh insert, and propagates insert failures
    /// (see [`RawTable::upsert`]).
    #[inline]
    pub fn upsert(&self, key: u64, value: u64) -> Result<Option<u64>, DlhtError> {
        self.table.upsert(key, value)
    }

    /// Delete `key`, returning its value. The slot is immediately reusable.
    #[inline]
    pub fn delete(&self, key: u64) -> Option<u64> {
        self.table.delete(key)
    }

    /// Shadow-insert (transactional lock) — see §3.2.2 "Transactions".
    #[inline]
    pub fn insert_shadow(&self, key: u64, value: u64) -> Result<InsertOutcome, DlhtError> {
        self.table.insert_shadow(key, value)
    }

    /// Commit (`true`) or abort (`false`) a prior shadow insert.
    #[inline]
    pub fn commit_shadow(&self, key: u64, commit: bool) -> bool {
        self.table.commit_shadow(key, commit)
    }

    /// Execute the queued requests of `batch` in order, overlapping their
    /// memory latencies with software prefetching (§3.3). The batch's own
    /// response storage is reused, so a warm batch executes with zero heap
    /// allocations — see [`Batch`].
    #[inline]
    pub fn execute(&self, batch: &mut Batch, policy: BatchPolicy) {
        self.table.execute(batch, policy)
    }

    /// [`DlhtMap::execute`] without the up-front prefetch sweep, for callers
    /// that already prefetched each request's bin (see
    /// [`RawTable::execute_prefetched`]).
    #[inline]
    pub fn execute_prefetched(&self, batch: &mut Batch, policy: BatchPolicy) {
        self.table.execute_prefetched(batch, policy)
    }

    /// One-shot convenience over [`DlhtMap::execute`]: builds a temporary
    /// [`Batch`] from `requests` and returns the responses (allocates per
    /// call).
    #[inline]
    pub fn execute_batch(&self, requests: &[Request], policy: BatchPolicy) -> Vec<Response> {
        self.table.execute_batch(requests, policy)
    }

    /// Open a per-thread [`Session`] with a cached registry slot — the entry
    /// point for reusable batches and the bounded prefetch
    /// [`crate::Pipeline`].
    pub fn session(&self) -> Session<'_> {
        Session::new(&self.table)
    }

    /// Prefetch the bin `key` hashes to (coroutine interoperation, §3.3).
    #[inline]
    pub fn prefetch(&self, key: u64) {
        self.table.prefetch(key)
    }

    /// Visit every pair under a weakly-consistent snapshot (§3.4.4).
    pub fn for_each(&self, f: impl FnMut(u64, u64)) {
        self.table.for_each(f)
    }

    /// Iterate over a weakly-consistent snapshot of the map.
    pub fn iter(&self) -> crate::iter::Iter<'_> {
        crate::iter::Iter::new(&self.table)
    }

    /// Number of live keys (linear scan).
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Structural statistics (occupancy, link usage, resizes).
    pub fn stats(&self) -> TableStats {
        self.table.stats()
    }

    /// Number of resizes since creation.
    pub fn resizes(&self) -> u64 {
        self.table.resizes()
    }

    /// Free retired index generations that are no longer referenced.
    pub fn collect_garbage(&self) {
        self.table.collect_retired()
    }

    /// Borrow the underlying raw table (advanced / benchmarking use).
    pub fn raw(&self) -> &RawTable {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_api() {
        let m = DlhtMap::with_capacity(100);
        assert!(m.is_empty());
        let _ = m.insert(1, 10).unwrap();
        let _ = m.insert(2, 20).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(1), Some(10));
        assert_eq!(m.put(2, 21), Some(20));
        assert_eq!(m.delete(1), Some(10));
        assert!(!m.contains(1));
        assert!(m.contains(2));
    }

    #[test]
    fn upsert_inserts_then_updates() {
        let m = DlhtMap::with_capacity(16);
        assert_eq!(m.upsert(5, 1).unwrap(), None);
        assert_eq!(m.upsert(5, 2).unwrap(), Some(1));
        assert_eq!(m.get(5), Some(2));
    }

    #[test]
    fn upsert_propagates_insert_errors() {
        let m = DlhtMap::with_capacity(16);
        assert_eq!(m.upsert(u64::MAX, 1), Err(DlhtError::ReservedKey));
        // A tiny fixed-size table eventually reports TableFull.
        let full = DlhtMap::with_config(crate::DlhtConfig::new(2).with_resizing(false));
        let mut saw_full = false;
        for k in 0..1_000u64 {
            match full.upsert(k, k) {
                Ok(_) => {}
                Err(DlhtError::TableFull) => {
                    saw_full = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(saw_full);
    }

    #[test]
    fn iterator_yields_all_pairs() {
        let m = DlhtMap::with_capacity(64);
        for k in 0..40u64 {
            let _ = m.insert(k, k * k).unwrap();
        }
        let mut items: Vec<_> = m.iter().collect();
        items.sort_unstable();
        assert_eq!(items.len(), 40);
        for (i, (k, v)) in items.iter().enumerate() {
            assert_eq!(*k, i as u64);
            assert_eq!(*v, (i * i) as u64);
        }
    }

    #[test]
    fn concurrent_upserts_from_many_threads() {
        let m = std::sync::Arc::new(DlhtMap::with_capacity(10_000));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let m = std::sync::Arc::clone(&m);
                s.spawn(move || {
                    for k in 0..1_000u64 {
                        m.upsert(k, t).unwrap();
                    }
                });
            }
        });
        assert_eq!(m.len(), 1_000);
        for k in 0..1_000u64 {
            assert!(m.get(k).unwrap() < 4);
        }
    }
}
