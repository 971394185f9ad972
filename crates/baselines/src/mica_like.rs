//! MICA-like baseline (CRCW variant): closed addressing, **lock-based**
//! writes, software prefetching for batches, but values are **not inlined**
//! in the index — every request chases a pointer into a separate value store,
//! and every Insert/Delete (de)allocates (Table 1, §2.2, §5.1.2).

use dlht_core::{Batch, BatchPolicy, DlhtError, Engine, InsertOutcome, KvBackend, MapFeatures};
use dlht_hash::{Hasher64, WyHash};
use dlht_util::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One bucket: a small spin-locked vector of (key, boxed value) entries —
/// the pointer indirection is the point: at least two memory accesses per
/// request even without collisions.
struct Bucket {
    entries: Mutex<Vec<(u64, Box<u64>)>>,
}

/// MICA-like lock-based, non-inlined, non-resizable map.
pub struct MicaLikeMap {
    buckets: Vec<Bucket>,
    live: AtomicUsize,
}

impl MicaLikeMap {
    /// Create a map with about one bucket per expected key.
    pub fn with_capacity(capacity: usize) -> Self {
        let buckets = capacity.max(16).next_power_of_two();
        MicaLikeMap {
            buckets: (0..buckets)
                .map(|_| Bucket {
                    entries: Mutex::new(Vec::new()),
                })
                .collect(),
            live: AtomicUsize::new(0),
        }
    }

    #[inline]
    fn bucket_of(&self, key: u64) -> &Bucket {
        let h = WyHash.hash_u64(key);
        &self.buckets[(h as usize) & (self.buckets.len() - 1)]
    }
}

impl KvBackend for MicaLikeMap {
    fn get(&self, key: u64) -> Option<u64> {
        let b = self.bucket_of(key);
        let entries = b.entries.lock();
        entries.iter().find(|(k, _)| *k == key).map(|(_, v)| **v)
    }

    fn insert(&self, key: u64, value: u64) -> Result<InsertOutcome, DlhtError> {
        if dlht_core::bucket::is_reserved_key(key) {
            return Err(DlhtError::ReservedKey);
        }
        let b = self.bucket_of(key);
        let mut entries = b.entries.lock();
        if let Some((_, v)) = entries.iter().find(|(k, _)| *k == key) {
            return Ok(InsertOutcome::AlreadyExists(**v));
        }
        // The allocation per insert is intentional (non-inlined design).
        entries.push((key, Box::new(value)));
        self.live.fetch_add(1, Ordering::Relaxed);
        Ok(InsertOutcome::Inserted)
    }

    fn put(&self, key: u64, value: u64) -> Option<u64> {
        let b = self.bucket_of(key);
        let mut entries = b.entries.lock();
        if let Some((_, v)) = entries.iter_mut().find(|(k, _)| *k == key) {
            let prev = **v;
            **v = value;
            Some(prev)
        } else {
            None
        }
    }

    fn delete(&self, key: u64) -> Option<u64> {
        let b = self.bucket_of(key);
        let mut entries = b.entries.lock();
        if let Some(pos) = entries.iter().position(|(k, _)| *k == key) {
            // Deallocation per delete, as in MICA's non-inlined store.
            let (_, v) = entries.swap_remove(pos);
            self.live.fetch_sub(1, Ordering::Relaxed);
            Some(*v)
        } else {
            None
        }
    }

    fn len(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    fn name(&self) -> &'static str {
        "MICA-like"
    }

    fn features(&self) -> MapFeatures {
        MapFeatures {
            collision_handling: "closed-addressing",
            lock_free_gets: true,
            non_blocking_puts: false, // lock-based
            non_blocking_inserts: false,
            deletes_free_slots: true,
            resizable: false,
            non_blocking_resize: false,
            overlaps_memory_accesses: true,
            inline_values: false,
        }
    }

    fn supports_batching(&self) -> bool {
        true
    }

    fn engine(&self) -> Box<dyn Engine + '_> {
        Box::new(self)
    }
}

/// The map is its own engine: a batch prefetches every bucket (MICA
/// pioneered this technique), then executes in order through the shared
/// serial loop, so the batch contract lives in one place.
impl Engine for MicaLikeMap {
    fn prefetch(&self, key: u64) {
        dlht_core::prefetch::prefetch_read(self.bucket_of(key) as *const Bucket);
    }

    fn execute_prefetched(&self, batch: &mut Batch, policy: BatchPolicy) {
        dlht_core::kv::execute_serial(self, batch, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;
    use dlht_core::{Request, Response};

    #[test]
    fn basic_semantics() {
        conformance::basic_semantics(&MicaLikeMap::with_capacity(1024));
    }

    #[test]
    fn concurrent_inserts() {
        conformance::concurrent_inserts(&MicaLikeMap::with_capacity(50_000), 2_000);
    }

    #[test]
    fn collisions_chain_in_the_bucket() {
        let m = MicaLikeMap::with_capacity(16);
        for k in 0..200u64 {
            assert!(m.insert(k, k + 1).unwrap().inserted());
        }
        assert_eq!(m.len(), 200);
        for k in 0..200u64 {
            assert_eq!(m.get(k), Some(k + 1));
        }
    }

    #[test]
    fn batch_executes_in_order() {
        let m = MicaLikeMap::with_capacity(64);
        let reqs = [
            Request::Insert(1, 1),
            Request::Put(1, 2),
            Request::Get(1),
            Request::Delete(1),
            Request::Get(1),
        ];
        let mut batch = Batch::from(&reqs[..]);
        m.execute(&mut batch, BatchPolicy::RunAll);
        let out = batch.responses();
        assert_eq!(out[1], Response::Updated(Some(1)));
        assert_eq!(out[2], Response::Value(Some(2)));
        assert_eq!(out[3], Response::Deleted(Some(2)));
        assert_eq!(out[4], Response::Value(None));
    }
}
