//! The HashSet mode (§3.1, mode 3): keys only, no values. Used by the
//! paper's clients for semi-/anti-joins and as a database lock manager, where
//! inserting a key locks a record and deleting it releases the lock (§5.3.3).

use crate::config::DlhtConfig;
use crate::error::{DlhtError, InsertOutcome};
use crate::stats::TableStats;
use crate::table::DlhtMap;

/// Concurrent hash set over 8-byte keys.
///
/// ```
/// use dlht_core::DlhtSet;
///
/// let locks = DlhtSet::with_capacity(1024);
/// assert!(locks.insert(42).unwrap());       // lock record 42
/// assert!(!locks.insert(42).unwrap());      // already locked
/// assert!(locks.remove(42));                // unlock
/// ```
pub struct DlhtSet {
    table: DlhtMap,
}

impl DlhtSet {
    /// Create a set from an explicit configuration.
    pub fn with_config(config: DlhtConfig) -> Self {
        DlhtSet {
            table: DlhtMap::with_config(config),
        }
    }

    /// Create a set sized for about `keys` keys.
    pub fn with_capacity(keys: usize) -> Self {
        Self::with_config(DlhtConfig::for_capacity(keys))
    }

    /// Create a set with `num_bins` bins.
    pub fn new(num_bins: usize) -> Self {
        Self::with_config(DlhtConfig::new(num_bins))
    }

    /// Insert `key`. Returns `Ok(true)` if it was inserted, `Ok(false)` if it
    /// was already present.
    pub fn insert(&self, key: u64) -> Result<bool, DlhtError> {
        Ok(matches!(
            self.table.insert(key, 0)?,
            InsertOutcome::Inserted
        ))
    }

    /// Whether `key` is in the set.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.table.contains(key)
    }

    /// Remove `key`; returns whether it was present.
    #[inline]
    pub fn remove(&self, key: u64) -> bool {
        self.table.delete(key).is_some()
    }

    /// Try to acquire all of `keys` in order, lock-manager style: on the first
    /// key that is already held, the keys acquired so far are released and
    /// `false` is returned. Keys must be passed in a globally consistent order
    /// by the caller to avoid deadlocks — which DLHT's order-preserving
    /// batching makes possible (§5.3.3).
    pub fn try_lock_all(&self, keys: &[u64]) -> Result<bool, DlhtError> {
        for (i, &k) in keys.iter().enumerate() {
            if !self.insert(k)? {
                for &held in &keys[..i] {
                    self.remove(held);
                }
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Release all of `keys` (inverse of [`DlhtSet::try_lock_all`]).
    pub fn unlock_all(&self, keys: &[u64]) {
        for &k in keys {
            self.remove(k);
        }
    }

    /// Number of keys in the set (linear scan).
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Structural statistics.
    pub fn stats(&self) -> TableStats {
        self.table.stats()
    }

    /// Open a per-thread [`crate::Session`] with a cached registry slot —
    /// lock managers drive their order-preserving batches through this.
    pub fn session(&self) -> crate::Session<'_> {
        crate::Session::new(&self.table)
    }

    /// Borrow the underlying table, whose value words the set ignores
    /// (advanced / benchmarking use).
    pub fn raw(&self) -> &DlhtMap {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let s = DlhtSet::with_capacity(64);
        assert!(s.insert(1).unwrap());
        assert!(!s.insert(1).unwrap());
        assert!(s.contains(1));
        assert!(s.remove(1));
        assert!(!s.remove(1));
        assert!(!s.contains(1));
    }

    #[test]
    fn lock_all_rolls_back_on_conflict() {
        let s = DlhtSet::with_capacity(64);
        assert!(s.insert(5).unwrap()); // someone else holds 5
        assert!(!s.try_lock_all(&[1, 2, 5, 9]).unwrap());
        // 1 and 2 must have been released.
        assert!(!s.contains(1));
        assert!(!s.contains(2));
        assert!(!s.contains(9));
        assert!(s.contains(5));

        assert!(s.try_lock_all(&[1, 2, 9]).unwrap());
        assert_eq!(s.len(), 4);
        s.unlock_all(&[1, 2, 9]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn concurrent_locking_is_mutually_exclusive() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let s = std::sync::Arc::new(DlhtSet::with_capacity(64));
        let in_cs = std::sync::Arc::new(AtomicU64::new(0));
        let max_seen = std::sync::Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = std::sync::Arc::clone(&s);
                let in_cs = std::sync::Arc::clone(&in_cs);
                let max_seen = std::sync::Arc::clone(&max_seen);
                scope.spawn(move || {
                    let mut acquired = 0;
                    while acquired < 200 {
                        if s.insert(7).unwrap() {
                            let now = in_cs.fetch_add(1, Ordering::SeqCst) + 1;
                            max_seen.fetch_max(now, Ordering::SeqCst);
                            in_cs.fetch_sub(1, Ordering::SeqCst);
                            assert!(s.remove(7));
                            acquired += 1;
                        }
                    }
                });
            }
        });
        assert_eq!(
            max_seen.load(Ordering::SeqCst),
            1,
            "lock must never be held by two threads"
        );
        assert!(s.is_empty());
    }
}
