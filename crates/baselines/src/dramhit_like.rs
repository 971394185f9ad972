//! DRAMHiT-like baseline: open addressing with an inlined index and software
//! prefetching over client batches, but **no resizing**, tombstone deletes
//! that cannot reclaim slots, upsert-only writes, and batches whose requests
//! may be **reordered** (Table 1, §2.2, §5.3.3).

use crate::open_addr::{is_unsupported_key, CellArray, InsertCell};
use dlht_core::{
    Batch, BatchPolicy, DlhtError, Engine, InsertOutcome, KvBackend, MapFeatures, Pipeline,
    Request, Response,
};
use std::cell::Cell;

const MAX_PROBES: u64 = 256;

/// DRAMHiT-like batched open-addressing map.
pub struct DramhitLikeMap {
    cells: CellArray,
}

impl DramhitLikeMap {
    /// Create a map with room for about `capacity` keys at ~60% load.
    pub fn with_capacity(capacity: usize) -> Self {
        DramhitLikeMap {
            cells: CellArray::new(capacity * 5 / 3),
        }
    }

    /// Open the native pipelined submission interface — the shape DRAMHiT's
    /// own API has: prefetch the home cell at submit time, keep up to `depth`
    /// requests in flight, and execute each flushed chunk through the
    /// reordering engine ([`BatchPolicy::Unordered`]). Responses still come
    /// back in submission order; execution within a chunk does not.
    pub fn pipeline(&self, depth: usize) -> Pipeline<DramhitEngine<'_>> {
        Pipeline::with_flush_policy(DramhitEngine::new(self), depth, BatchPolicy::Unordered)
    }
}

impl KvBackend for DramhitLikeMap {
    fn get(&self, key: u64) -> Option<u64> {
        if is_unsupported_key(key) {
            return None;
        }
        self.cells.get(key, MAX_PROBES, false)
    }

    fn insert(&self, key: u64, value: u64) -> Result<InsertOutcome, DlhtError> {
        if is_unsupported_key(key) {
            return Err(DlhtError::ReservedKey);
        }
        match self.cells.insert(key, value, MAX_PROBES, false) {
            InsertCell::Inserted => Ok(InsertOutcome::Inserted),
            InsertCell::Exists(v) => Ok(InsertOutcome::AlreadyExists(v)),
            InsertCell::Full => Err(DlhtError::TableFull),
        }
    }

    /// DRAMHiT cannot express a pure Put: this may silently insert (the
    /// upsert-only write of the original design), in which case there is no
    /// previous value to report.
    fn put(&self, key: u64, value: u64) -> Option<u64> {
        if is_unsupported_key(key) {
            return None;
        }
        match self.cells.insert(key, value, MAX_PROBES, false) {
            InsertCell::Inserted => None,
            InsertCell::Exists(prev) => {
                self.cells.update(key, value, MAX_PROBES, false);
                Some(prev)
            }
            InsertCell::Full => None,
        }
    }

    fn delete(&self, key: u64) -> Option<u64> {
        if is_unsupported_key(key) {
            return None;
        }
        self.cells.remove(key, MAX_PROBES, false)
    }

    fn len(&self) -> usize {
        self.cells.live()
    }

    fn name(&self) -> &'static str {
        "DRAMHiT-like"
    }

    fn features(&self) -> MapFeatures {
        MapFeatures {
            collision_handling: "open-addressing",
            lock_free_gets: true,
            non_blocking_puts: false, // only upserts
            non_blocking_inserts: false,
            deletes_free_slots: false,
            resizable: false,
            non_blocking_resize: false,
            overlaps_memory_accesses: true,
            inline_values: true,
        }
    }

    fn supports_batching(&self) -> bool {
        true
    }

    fn engine(&self) -> Box<dyn Engine + '_> {
        Box::new(DramhitEngine::new(self))
    }
}

/// The DRAMHiT-like engine: a batch prefetches every home cell, then runs
/// reordered. The order buffer is the engine's, so a warm batch on a warm
/// engine allocates nothing.
pub struct DramhitEngine<'a> {
    map: &'a DramhitLikeMap,
    /// Execution order of the last batch; taken and put back by each one.
    order: Cell<Vec<usize>>,
}

impl<'a> DramhitEngine<'a> {
    fn new(map: &'a DramhitLikeMap) -> Self {
        DramhitEngine {
            map,
            order: Cell::new(Vec::new()),
        }
    }
}

impl Engine for DramhitEngine<'_> {
    fn prefetch(&self, key: u64) {
        dlht_core::prefetch::prefetch_read(self.map.cells.home_cell_ptr(key));
    }

    /// Faithfully to DRAMHiT, the requests are **reordered** (grouped by
    /// home cell) to maximize overlap. Results are written back in
    /// submission order, but their effects may interleave differently than
    /// submitted, which is what can deadlock a lock manager built on top
    /// (§5.3.3). For the same reason, [`BatchPolicy::StopOnFailure`] cannot
    /// be honored: dependent batches are not supported by a reordering
    /// engine, so every request executes regardless of policy.
    /// [`BatchPolicy::Unordered`] is this engine's native mode.
    fn execute_prefetched(&self, batch: &mut Batch, _policy: BatchPolicy) {
        let (requests, out) = batch.begin_execution();
        out.resize(requests.len(), Response::Value(None));
        // Reorder by home-cell address (asynchronous engine emulation),
        // ties in submission order. Sorting on (cell, index) gives the order
        // a stable sort by cell gives, without a stable sort's scratch buffer.
        let mut order = self.order.take();
        order.clear();
        order.extend(0..requests.len());
        order.sort_unstable_by_key(|&i| {
            (self.map.cells.home_cell_ptr(requests[i].key()) as usize, i)
        });
        let map = self.map;
        for &i in &order {
            out[i] = match requests[i] {
                Request::Get(k) => Response::Value(map.get(k)),
                Request::Put(k, v) => Response::Updated(map.put(k, v)),
                Request::Insert(k, v) => Response::Inserted(map.insert(k, v)),
                Request::Delete(k) => Response::Deleted(map.delete(k)),
            };
        }
        self.order.set(order);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;

    #[test]
    fn basic_semantics() {
        conformance::basic_semantics(&DramhitLikeMap::with_capacity(1024));
    }

    #[test]
    fn concurrent_inserts() {
        conformance::concurrent_inserts(&DramhitLikeMap::with_capacity(50_000), 2_000);
    }

    #[test]
    fn put_silently_inserts() {
        let m = DramhitLikeMap::with_capacity(64);
        assert_eq!(
            m.put(5, 50),
            None,
            "upsert-only write must insert missing keys without a previous value"
        );
        assert_eq!(m.get(5), Some(50));
        assert_eq!(m.put(5, 51), Some(50));
        assert_eq!(m.get(5), Some(51));
    }

    #[test]
    fn batch_results_follow_submission_order_even_if_execution_reorders() {
        let m = DramhitLikeMap::with_capacity(256);
        for k in 0..50u64 {
            let _ = m.insert(k, k).unwrap();
        }
        let reqs: Vec<Request> = (0..50u64).rev().map(Request::Get).collect();
        let mut batch = Batch::from(&reqs[..]);
        m.engine().execute(&mut batch, BatchPolicy::Unordered);
        let out = batch.responses();
        for (i, r) in out.iter().enumerate() {
            let expected_key = 49 - i as u64;
            assert_eq!(*r, Response::Value(Some(expected_key)));
        }
    }

    #[test]
    fn batch_may_reorder_dependent_requests() {
        // Insert(k) followed by Delete(k') where k' hashes earlier can execute
        // out of order — demonstrate the behavioural difference from DLHT by
        // checking a dependent sequence is NOT guaranteed to succeed.
        let m = DramhitLikeMap::with_capacity(256);
        let reqs = [Request::Insert(10, 1), Request::Get(10)];
        let mut batch = Batch::from(&reqs[..]);
        m.engine().execute(&mut batch, BatchPolicy::RunAll);
        let out = batch.responses();
        // Whatever the internal order, results land in submission slots.
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0], Response::Inserted(_)));
        assert!(matches!(out[1], Response::Value(_)));
    }

    #[test]
    fn native_pipeline_prefetches_and_completes_in_submission_order() {
        let m = DramhitLikeMap::with_capacity(4_096);
        for k in 0..500u64 {
            let _ = m.insert(k, k + 7).unwrap();
        }
        let mut pipe = m.pipeline(16);
        let mut got = Vec::new();
        for k in 0..500u64 {
            if let Some(r) = pipe.submit(Request::Get(k)) {
                got.push(r);
            }
        }
        pipe.drain_into(&mut got);
        assert_eq!(got.len(), 500);
        for (k, r) in got.iter().enumerate() {
            assert_eq!(*r, Response::Value(Some(k as u64 + 7)));
        }
    }
}
