//! Single-threaded, synchronization-free mode (§3.4.5).
//!
//! The paper "keeps the same bin/bucket structure and simply downgrades the
//! atomics": [`crate::DlhtMap`]'s bin scan, placement and bin walk run here on
//! an [`Index`] under `&mut self`, so writes are plain `Relaxed` stores and
//! reads need neither the transfer check nor the version re-read of a probe.

use crate::batch::{Batch, BatchPolicy, Request, Response};
use crate::bucket::{is_reserved_key, LinkMeta, PrimaryBucket};
use crate::config::DlhtConfig;
use crate::error::{DlhtError, InsertOutcome};
use crate::header::{BinHeader, SlotState};
use crate::index::Index;
use crate::table::Found;
use std::sync::atomic::Ordering;

/// Single-threaded DLHT map (Inlined mode) on [`crate::DlhtMap`]'s layout.
pub struct SingleThreadMap {
    index: Index,
    config: DlhtConfig,
    len: usize,
}

impl SingleThreadMap {
    /// Create a map from a configuration.
    pub fn with_config(config: DlhtConfig) -> Self {
        SingleThreadMap {
            index: Index::new(config.num_bins, &config, 0),
            config,
            len: 0,
        }
    }

    /// Create a map sized for about `keys` keys.
    pub fn with_capacity(keys: usize) -> Self {
        Self::with_config(DlhtConfig::for_capacity(keys))
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of resizes performed: the generation of the current index.
    pub fn resizes(&self) -> u64 {
        u64::from(self.index.generation())
    }

    /// `key`'s bin and its `Valid` slot, if any, by the bin scan both maps share.
    #[inline(always)]
    fn find(&self, key: u64) -> (&PrimaryBucket, Option<Found<'_>>) {
        let bin = self.index.bin(self.index.bin_of(key));
        let h = BinHeader(bin.header.load(Ordering::Relaxed));
        let valid = |st| st == SlotState::Valid;
        let found = self.index.scan_for_key(bin, h, key, valid, None);
        (bin, found.unwrap_or(None))
    }

    /// Look up `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u64> {
        self.find(key).1.map(|(_, _, v)| v)
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Update an existing key; returns the previous value.
    pub fn put(&mut self, key: u64, value: u64) -> Option<u64> {
        let (_, pair, old) = self.find(key).1?;
        pair.store(key, value, Ordering::Relaxed);
        Some(old)
    }

    /// Delete `key`; the slot is immediately reusable.
    #[inline]
    pub fn delete(&mut self, key: u64) -> Option<u64> {
        let (bin, found) = self.find(key);
        let (slot, _, old) = found?;
        let h = BinHeader(bin.header.load(Ordering::Relaxed));
        let freed = h.with_slot_state(slot, SlotState::Invalid);
        bin.header.store(freed.0, Ordering::Relaxed);
        self.len -= 1;
        Some(old)
    }

    /// Insert `key -> value`; fails if the key exists.
    #[inline]
    pub fn insert(&mut self, key: u64, value: u64) -> Result<InsertOutcome, DlhtError> {
        if is_reserved_key(key) {
            return Err(DlhtError::ReservedKey);
        }
        loop {
            let (bin, found) = self.find(key);
            if let Some((_, _, existing)) = found {
                return Ok(InsertOutcome::AlreadyExists(existing));
            }
            if self.place(bin, key, value).is_some() {
                self.len += 1;
                return Ok(InsertOutcome::Inserted);
            }
            if !self.config.resizing {
                return Err(DlhtError::TableFull);
            }
            self.grow();
        }
    }

    /// Place the pair by `DlhtMap`'s rule, minus the claim; `None` if no room.
    #[inline]
    fn place(&self, bin: &PrimaryBucket, key: u64, value: u64) -> Option<()> {
        let h = BinHeader(bin.header.load(Ordering::Relaxed));
        let slot = h.first_invalid_slot()?;
        self.index.ensure_chained(bin, slot).ok()?;
        let meta = LinkMeta(bin.link.load(Ordering::Relaxed));
        let pair = self.index.slot_pair(bin, meta, slot)?;
        pair.store(key, value, Ordering::Relaxed);
        let valid = h.with_slot_state(slot, SlotState::Valid);
        bin.header.store(valid.0, Ordering::Relaxed);
        Some(())
    }

    /// Swap in the next generation at the paper's growth factor and reinsert
    /// every pair; an overflowing reinsertion grows again, as in `DlhtMap`.
    #[cold]
    fn grow(&mut self) {
        let bins = self.index.num_bins();
        let bins = bins * DlhtConfig::growth_factor(bins);
        let next = Index::new(bins, &self.config, self.index.generation() + 1);
        let old = std::mem::replace(&mut self.index, next);
        self.len = 0;
        old.for_each_in(&mut |k, v| _ = self.insert(k, v));
    }

    /// Visit every live pair.
    pub fn for_each(&self, mut f: impl FnMut(u64, u64)) {
        self.index.for_each_in(&mut f);
    }

    /// Run `batch` in order after a prefetch sweep, as a [`crate::Session`] does.
    pub fn execute(&mut self, batch: &mut Batch, policy: BatchPolicy) {
        for req in batch.requests() {
            self.index.prefetch_bin(self.index.bin_of(req.key()));
        }
        batch.run_in_order(policy, |req| match req {
            Request::Get(k) => Response::Value(self.get(k)),
            Request::Put(k, v) => Response::Updated(self.put(k, v)),
            Request::Insert(k, v) => Response::Inserted(self.insert(k, v)),
            Request::Delete(k) => Response::Deleted(self.delete(k)),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlht_hash::HashKind;
    use dlht_util::miri_scaled;

    #[test]
    fn basic_operations() {
        let mut m = SingleThreadMap::with_capacity(100);
        assert_eq!(m.get(1), None);
        assert!(m.insert(1, 10).unwrap().inserted());
        assert!(!m.insert(1, 11).unwrap().inserted());
        assert_eq!(m.get(1), Some(10));
        assert_eq!(m.put(1, 12), Some(10));
        assert_eq!(m.delete(1), Some(12));
        assert_eq!(m.delete(1), None);
        assert!(m.is_empty());
    }

    #[test]
    fn grows_transparently() {
        let n = miri_scaled(5_000);
        let mut m = SingleThreadMap::with_config(DlhtConfig::new(4).with_hash(HashKind::WyHash));
        for k in 0..n {
            assert!(m.insert(k, k * 2).unwrap().inserted());
        }
        assert!(m.resizes() > 0);
        assert_eq!(m.len() as u64, n);
        let mut visited = 0;
        m.for_each(|k, v| {
            assert_eq!(v, k * 2);
            visited += 1;
        });
        assert_eq!(visited, n);
        for k in 0..n {
            assert_eq!(m.get(k), Some(k * 2));
        }
    }

    #[test]
    fn matches_std_hashmap_on_random_ops() {
        use std::collections::HashMap;
        let mut m = SingleThreadMap::with_config(DlhtConfig::new(8).with_hash(HashKind::WyHash));
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut state = 0x12345678u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..miri_scaled(20_000) {
            let key = rng() % 500;
            match rng() % 4 {
                0 => {
                    let inserted = m.insert(key, key + 1).unwrap().inserted();
                    let model_inserted = !model.contains_key(&key);
                    if model_inserted {
                        model.insert(key, key + 1);
                    }
                    assert_eq!(inserted, model_inserted);
                }
                1 => assert_eq!(m.delete(key), model.remove(&key)),
                2 => assert_eq!(m.get(key), model.get(&key).copied()),
                _ => {
                    let new_v = key + 77;
                    let expected = model.get(&key).copied();
                    assert_eq!(m.put(key, new_v), expected);
                    if expected.is_some() {
                        model.insert(key, new_v);
                    }
                }
            }
        }
        assert_eq!(m.len(), model.len());
    }

    #[test]
    fn batch_api_without_synchronization() {
        use crate::batch::{Batch, BatchPolicy, Request, Response};
        let mut m = SingleThreadMap::with_capacity(64);
        let mut batch: Batch = [
            Request::Insert(1, 1),
            Request::Get(1),
            Request::Get(2),
            Request::Insert(2, 2),
        ]
        .into_iter()
        .collect();
        m.execute(&mut batch, BatchPolicy::StopOnFailure);
        let resps = batch.responses();
        assert_eq!(resps[1], Response::Value(Some(1)));
        assert_eq!(resps[2], Response::Value(None));
        assert_eq!(resps[3], Response::Skipped);
    }

    #[test]
    fn reusable_batch_on_the_single_thread_map() {
        use crate::batch::{Batch, BatchPolicy, Response};
        let mut m = SingleThreadMap::with_capacity(64);
        let mut batch = Batch::with_capacity(3);
        for round in 0..10u64 {
            batch.clear();
            batch.push_insert(round, round);
            batch.push_get(round);
            batch.push_delete(round);
            m.execute(&mut batch, BatchPolicy::RunAll);
            assert_eq!(batch.responses()[1], Response::Value(Some(round)));
        }
        assert!(m.is_empty());
    }

    #[test]
    fn table_full_without_resizing() {
        let mut m = SingleThreadMap::with_config(
            DlhtConfig::new(2).with_link_ratio(1).with_resizing(false),
        );
        let mut err = None;
        for k in 0..200u64 {
            if let Err(e) = m.insert(k * 2, k) {
                err = Some(e);
                break;
            }
        }
        assert_eq!(err, Some(DlhtError::TableFull));
    }

    /// One layout, one placement rule: fed the same inserts under the same
    /// config, both modes resize at the same keys and, with resizing off,
    /// run out of room at the same key.
    #[test]
    fn shares_the_layout_of_the_concurrent_map() {
        for resizing in [true, false] {
            let cfg = DlhtConfig::new(4)
                .with_link_ratio(4)
                .with_hash(HashKind::WyHash)
                .with_resizing(resizing);
            let concurrent = crate::DlhtMap::with_config(cfg.clone());
            let mut single = SingleThreadMap::with_config(cfg);
            let mut rng = 0x51A7_u64;
            let mut full_at = None;
            for i in 0..miri_scaled(4_000) {
                let key = dlht_util::splitmix64(&mut rng) >> 2;
                let outcome = single.insert(key, i);
                assert_eq!(outcome, concurrent.insert(key, i), "insert {i}");
                assert_eq!(single.resizes(), concurrent.resizes(), "insert {i}");
                if let Err(e) = outcome {
                    assert_eq!(e, DlhtError::TableFull);
                    full_at = Some(i);
                    break;
                }
            }
            assert_eq!(full_at.is_some(), !resizing, "{full_at:?}");
            assert_eq!(single.resizes() > 0, resizing);
            assert_eq!(single.len(), concurrent.len());
        }
    }
}
