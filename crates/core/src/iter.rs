//! Weakly-consistent snapshot iterator (§3.4.4).
//!
//! The paper offers both a strongly-consistent snapshot (via a same-size index
//! migration that briefly stalls updates) and the weakly-consistent,
//! non-blocking variant its clients prefer. This module implements the latter:
//! the iterator walks the bins, reading each bin under the same seqlock-style
//! version validation that Gets use, so every yielded pair existed at some
//! point during the iteration, but pairs inserted or deleted concurrently may
//! or may not be observed.

use crate::table::DlhtMap;

/// Weakly-consistent iterator over the live key-value pairs of a table.
///
/// The snapshot is materialized bin-by-bin when the iterator is created, so
/// the iterator itself does not hold the table pinned while the caller
/// processes items.
pub struct Iter<'a> {
    _table: &'a DlhtMap,
    items: std::vec::IntoIter<(u64, u64)>,
}

impl<'a> Iter<'a> {
    /// Capture a weak snapshot of `table`.
    pub(crate) fn new(table: &'a DlhtMap) -> Self {
        let mut items = Vec::new();
        table.for_each(|k, v| items.push((k, v)));
        Iter {
            _table: table,
            items: items.into_iter(),
        }
    }

    /// Number of pairs remaining.
    pub fn remaining(&self) -> usize {
        self.items.len()
    }
}

impl Iterator for Iter<'_> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<Self::Item> {
        self.items.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.items.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use crate::config::DlhtConfig;
    use crate::table::DlhtMap;

    #[test]
    fn iterates_all_pairs_exactly_once() {
        let t = DlhtMap::with_config(DlhtConfig::new(128));
        for k in 0..64u64 {
            let _ = t.insert(k, k + 1).unwrap();
        }
        let iter = super::Iter::new(&t);
        assert_eq!(iter.remaining(), 64);
        let mut seen = std::collections::HashSet::new();
        for (k, v) in iter {
            assert_eq!(v, k + 1);
            assert!(seen.insert(k), "key {k} yielded twice");
        }
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn snapshot_is_unaffected_by_later_mutations() {
        let t = DlhtMap::with_config(DlhtConfig::new(128));
        for k in 0..10u64 {
            let _ = t.insert(k, k).unwrap();
        }
        let iter = super::Iter::new(&t);
        // Mutate after the snapshot was taken.
        for k in 0..10u64 {
            t.delete(k);
        }
        assert_eq!(iter.count(), 10);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn concurrent_iteration_sees_stable_keys() {
        let t = std::sync::Arc::new(DlhtMap::with_config(DlhtConfig::new(512)));
        for k in 0..100u64 {
            let _ = t.insert(k, 1).unwrap();
        }
        std::thread::scope(|s| {
            // Churn on a disjoint key range.
            {
                let t = std::sync::Arc::clone(&t);
                s.spawn(move || {
                    for round in 0..50u64 {
                        for k in 1_000..1_050u64 {
                            let _ = t.insert(k, round).unwrap();
                        }
                        for k in 1_000..1_050u64 {
                            t.delete(k);
                        }
                    }
                });
            }
            for _ in 0..4 {
                let t = std::sync::Arc::clone(&t);
                s.spawn(move || {
                    let stable = super::Iter::new(&t).filter(|(k, _)| *k < 100).count();
                    assert_eq!(stable, 100, "stable keys must always be present");
                });
            }
        });
    }
}
