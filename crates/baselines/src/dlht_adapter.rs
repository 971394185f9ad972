//! `DLHT-NoBatch` (Table 3) through the common [`KvBackend`] interface.
//!
//! `DlhtMap` and `ShardedTable` implement [`KvBackend`] directly (as `DLHT`
//! and `DLHT-<n>shards`). This wrapper exists because the NoBatch variant
//! really does behave differently: its engine is a plain per-request loop,
//! so memory latencies are not overlapped.

use dlht_core::{
    DlhtConfig, DlhtError, DlhtMap, InsertOutcome, KvBackend, MapFeatures, TableStats,
};

/// DLHT without the batching API (`DLHT-NoBatch` in Table 3): identical
/// algorithms, but requests are issued one at a time so memory latencies are
/// not overlapped.
pub struct DlhtNoBatchAdapter {
    map: DlhtMap,
}

impl DlhtNoBatchAdapter {
    /// Wrap a DLHT instance sized for `capacity` keys.
    pub fn with_capacity(capacity: usize) -> Self {
        DlhtNoBatchAdapter {
            map: DlhtMap::with_capacity(capacity),
        }
    }

    /// Wrap an explicit configuration.
    pub fn with_config(config: DlhtConfig) -> Self {
        DlhtNoBatchAdapter {
            map: DlhtMap::with_config(config),
        }
    }
}

impl KvBackend for DlhtNoBatchAdapter {
    fn get(&self, key: u64) -> Option<u64> {
        self.map.get(key)
    }

    fn contains(&self, key: u64) -> bool {
        self.map.contains(key)
    }

    fn insert(&self, key: u64, value: u64) -> Result<InsertOutcome, DlhtError> {
        self.map.insert(key, value)
    }

    fn put(&self, key: u64, value: u64) -> Option<u64> {
        self.map.put(key, value)
    }

    fn delete(&self, key: u64) -> Option<u64> {
        self.map.delete(key)
    }

    fn upsert(&self, key: u64, value: u64) -> Result<Option<u64>, DlhtError> {
        self.map.upsert(key, value)
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn name(&self) -> &'static str {
        "DLHT-NoBatch"
    }

    fn features(&self) -> MapFeatures {
        MapFeatures {
            overlaps_memory_accesses: false,
            ..MapFeatures::dlht()
        }
    }

    fn stats(&self) -> TableStats {
        self.map.stats()
    }

    fn retired_indexes(&self) -> usize {
        self.map.retired_indexes()
    }

    // supports_batching and engine stay the default per-request loop: no
    // prefetch sweep, no enter/leave amortization.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;
    use dlht_core::{Batch, BatchPolicy, Engine, Request, Response};

    /// Run `reqs` as one batch through `map`'s engine.
    fn run(map: &dyn KvBackend, reqs: &[Request]) -> Vec<Response> {
        let mut batch = Batch::from(reqs);
        map.engine().execute(&mut batch, BatchPolicy::RunAll);
        batch.into_responses()
    }

    #[test]
    fn adapter_basic_semantics() {
        conformance::basic_semantics(&DlhtMap::with_capacity(1024));
        conformance::basic_semantics(&DlhtNoBatchAdapter::with_capacity(1024));
    }

    #[test]
    fn adapter_concurrent_inserts() {
        conformance::concurrent_inserts(&DlhtMap::with_capacity(50_000), 2_000);
    }

    #[test]
    fn batched_requests_resolve_in_order() {
        let m = DlhtMap::with_capacity(256);
        let reqs = vec![
            Request::Insert(1, 10),
            Request::Get(1),
            Request::Put(1, 11),
            Request::Get(1),
            Request::Delete(1),
            Request::Get(1),
        ];
        let out = run(&m, &reqs);
        assert_eq!(out[1], Response::Value(Some(10)));
        assert_eq!(out[2], Response::Updated(Some(10)));
        assert_eq!(out[3], Response::Value(Some(11)));
        assert_eq!(out[4], Response::Deleted(Some(11)));
        assert_eq!(out[5], Response::Value(None));
    }

    #[test]
    fn nobatch_adapter_still_answers_batches_without_prefetching() {
        let m = DlhtNoBatchAdapter::with_capacity(64);
        assert!(!m.supports_batching());
        let out = run(&m, &[Request::Insert(5, 50), Request::Get(5)]);
        assert_eq!(out[1], Response::Value(Some(50)));
    }

    #[test]
    fn adapter_reuses_batch_storage() {
        let m = DlhtMap::with_capacity(256);
        let engine = m.engine();
        let mut batch = Batch::with_capacity(2);
        for round in 0..4u64 {
            batch.clear();
            batch.push_insert(round, round);
            batch.push_get(round);
            engine.execute(&mut batch, BatchPolicy::RunAll);
            assert_eq!(batch.responses()[1], Response::Value(Some(round)));
        }
        assert_eq!(m.len(), 4);
    }
}
