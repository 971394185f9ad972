//! Per-thread submission sessions (§3.2.5 + §3.3).
//!
//! Every DLHT request must announce itself in the table's thread registry,
//! so that what a resize or a record writer retires outlives its readers.
//! The plain operations look the announcement slot up through a
//! thread-local on every call; a [`Session`] claims the slot **once** and
//! reuses it, so each single operation and each executed batch pays one
//! enter/leave pair (the two stores the paper describes) — and it is the
//! factory for the [`Pipeline`] submission interface.
//!
//! Prefetch hints take no announcement at all. A session keeps the geometry
//! of the index it last entered (bins address, bin count, hash) and
//! [`Session::prefetch`] works from that copy after one relaxed load of the
//! table's current index; it enters only when that index has changed. The
//! copy is never dereferenced, so a stale one only wastes a prefetch.
//!
//! ```
//! use dlht_core::{Batch, BatchPolicy, DlhtMap, Request, Response};
//!
//! let map = DlhtMap::with_capacity(1024);
//! let session = map.session(); // per-thread handle
//!
//! // Slot-cached single operations...
//! session.insert(1, 100).unwrap();
//! assert_eq!(session.get(1), Some(100));
//!
//! // ...reusable batches...
//! let mut batch = Batch::with_capacity(2);
//! batch.push_put(1, 101);
//! batch.push_get(1);
//! session.execute(&mut batch, BatchPolicy::RunAll);
//! assert_eq!(batch.responses()[1], Response::Value(Some(101)));
//!
//! // ...and bounded prefetch pipelines.
//! let mut pipe = session.pipeline(16);
//! pipe.submit(Request::Delete(1));
//! assert_eq!(pipe.drain()[0], Response::Deleted(Some(101)));
//! ```

use crate::batch::{Batch, BatchPolicy};
use crate::engine::Engine;
use crate::error::{DlhtError, InsertOutcome};
use crate::header::SlotState;
use crate::index::BinGeometry;
use crate::pipeline::Pipeline;
use crate::table::{DlhtMap, EnterGuard};
use std::cell::Cell;
use std::marker::PhantomData;

/// A per-thread handle over a [`DlhtMap`] (or any mode wrapping one) with a
/// pre-claimed registry announcement slot.
///
/// `Session` is deliberately **not** `Send`/`Sync`: the cached slot belongs to
/// the creating thread. Create one session per worker thread (they are cheap)
/// and drive batches or a [`Pipeline`] through it.
pub struct Session<'t> {
    table: &'t DlhtMap,
    /// The claimed announcement slot; `None` when the table skips the
    /// enter/leave protocol entirely (§3.4.5, see [`DlhtMap::announces`]).
    slot: Option<usize>,
    /// Geometry of the index this session last entered: the hint
    /// [`Session::prefetch`] works from without entering.
    hint: Cell<BinGeometry>,
    /// Pins the session to its creating thread.
    _not_send: PhantomData<*mut ()>,
}

impl<'t> Session<'t> {
    pub(crate) fn new(table: &'t DlhtMap) -> Self {
        let slot = table
            .announces()
            .then(|| table.registry().slot_for_current_thread());
        Session {
            table,
            slot,
            hint: Cell::new(BinGeometry::NONE),
            _not_send: PhantomData,
        }
    }

    /// Enter the table, refreshing the prefetch hint from the entered index.
    #[inline]
    pub(crate) fn enter(&self) -> EnterGuard<'t> {
        let guard = match self.slot {
            Some(slot) => self.table.enter_with_slot(slot),
            None => self.table.enter(),
        };
        // SAFETY: the guard protects the index it entered.
        self.hint.set(unsafe { &*guard.index_ptr() }.bin_geometry());
        guard
    }

    /// The index the prefetch hint was read from (never dereferenced).
    #[cfg(test)]
    fn hint_index(&self) -> *const crate::index::Index {
        self.hint.get().index
    }

    /// The table this session operates on.
    pub fn table(&self) -> &'t DlhtMap {
        self.table
    }

    /// Run `f` on the index this session enters, pinned for the call.
    #[inline]
    fn entered<T>(&self, f: impl FnOnce(*mut crate::index::Index) -> T) -> T {
        let guard = self.enter();
        let r = f(guard.index_ptr());
        drop(guard);
        r
    }

    /// Look up `key`.
    pub fn get(&self, key: u64) -> Option<u64> {
        self.entered(|start| self.table.get_guarded(start, key))
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Insert `key -> value`; fails (without overwriting) if the key exists.
    pub fn insert(&self, key: u64, value: u64) -> Result<InsertOutcome, DlhtError> {
        self.entered(|start| {
            self.table
                .insert_guarded(start, key, value, SlotState::Valid)
        })
    }

    /// Update an existing key's value; returns the previous value.
    pub fn put(&self, key: u64, value: u64) -> Option<u64> {
        self.entered(|start| self.table.put_guarded(start, key, value))
    }

    /// Delete `key`, returning its value if it was present.
    pub fn delete(&self, key: u64) -> Option<u64> {
        self.entered(|start| self.table.delete_guarded(start, key))
    }

    /// Retire `record`, which this thread just unlinked from a record
    /// table, into this session's slot.
    pub(crate) fn retire(&self, record: *mut u8) {
        let slot = self
            .slot
            .unwrap_or_else(|| self.table.registry().slot_for_current_thread());
        self.table.retire_record(slot, record);
    }

    /// Issue a software prefetch for the bin `key` hashes to.
    ///
    /// A prefetch is a hint, so this takes no announcement: it computes the
    /// bin from the geometry of the index the session last entered, and
    /// enters (refreshing that geometry) only when the table's current index
    /// is a different one. Racing a resize costs at most one wasted
    /// prefetch; the operation that follows enters and finds the key.
    #[inline]
    pub fn prefetch(&self, key: u64) {
        if self.hint.get().index != self.table.current_unpinned() {
            drop(self.enter());
        }
        self.hint.get().prefetch(key);
    }

    /// Prefetch `key`'s bin in the index this session last entered, with no
    /// check against the current index: for a sweep run while the caller
    /// holds that entry, which makes the hint the entered index.
    #[inline]
    pub(crate) fn prefetch_entered(&self, key: u64) {
        self.hint.get().prefetch(key);
    }

    /// Execute `batch` in order, reusing the batch's response storage: one
    /// enter/leave announcement covers the whole batch (§3.3). Every
    /// request's bin is prefetched from the entered index, then the requests
    /// run as in [`Session::execute_prefetched`].
    pub fn execute(&self, batch: &mut Batch, policy: BatchPolicy) {
        self.entered(|start| {
            for req in batch.requests() {
                self.prefetch_entered(req.key());
            }
            batch.run_in_order(policy, |req| self.table.exec_guarded(start, req))
        });
    }

    /// Execute a batch whose requests were already prefetched (the
    /// pipeline's flush path) strictly in submission order. One enter/leave
    /// announcement (through the cached slot) covers the whole batch.
    pub fn execute_prefetched(&self, batch: &mut Batch, policy: BatchPolicy) {
        self.entered(|start| batch.run_in_order(policy, |req| self.table.exec_guarded(start, req)));
    }

    /// Open a bounded prefetch [`Pipeline`] of `depth` in-flight requests
    /// submitting through this session.
    pub fn pipeline(&self, depth: usize) -> Pipeline<&Self> {
        Pipeline::new(self, depth)
    }
}

impl Engine for Session<'_> {
    fn prefetch(&self, key: u64) {
        Session::prefetch(self, key);
    }
    fn execute(&self, batch: &mut Batch, policy: BatchPolicy) {
        Session::execute(self, batch, policy);
    }
    fn execute_prefetched(&self, batch: &mut Batch, policy: BatchPolicy) {
        Session::execute_prefetched(self, batch, policy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{Request, Response};
    use crate::config::DlhtConfig;
    use crate::table::DlhtMap;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn session_single_ops_roundtrip() {
        let map = DlhtMap::with_capacity(256);
        let s = map.session();
        assert!(s.insert(1, 10).unwrap().inserted());
        assert_eq!(s.get(1), Some(10));
        assert!(s.contains(1));
        assert_eq!(s.put(1, 11), Some(10));
        assert_eq!(s.delete(1), Some(11));
        assert_eq!(s.get(1), None);
    }

    #[test]
    fn session_without_resizing_skips_the_registry() {
        let map = DlhtMap::with_config(DlhtConfig::new(64).with_resizing(false));
        let s = map.session();
        assert!(s.slot.is_none());
        assert!(s.insert(2, 20).unwrap().inserted());
        assert_eq!(s.get(2), Some(20));
    }

    #[test]
    fn session_batches_and_pipeline_share_the_cached_slot() {
        let map = DlhtMap::with_capacity(1024);
        let s = map.session();
        let mut batch = Batch::new();
        for k in 0..32u64 {
            batch.push_insert(k, k);
        }
        s.execute(&mut batch, BatchPolicy::RunAll);
        assert!(batch.responses().iter().all(|r| r.succeeded()));

        let mut pipe = s.pipeline(8);
        let mut hits = 0usize;
        for k in 0..64u64 {
            if let Some(Response::Value(Some(_))) = pipe.submit(Request::Get(k)) {
                hits += 1;
            }
        }
        for r in pipe.drain() {
            if matches!(r, Response::Value(Some(_))) {
                hits += 1;
            }
        }
        assert_eq!(hits, 32);
    }

    #[test]
    #[cfg_attr(miri, ignore = "thousands of spinning batches are too slow under Miri")]
    fn prefetch_hints_follow_resizes_and_reclaim() {
        const KEYS: u64 = 512;
        const GROWS: u64 = 3;
        let value = |k: u64| k * 7 + 1;
        let map = DlhtMap::with_config(DlhtConfig::new(64).with_chunk_bins(8));
        for k in 0..KEYS {
            assert!(map.insert(k, value(k)).unwrap().inserted());
        }
        let resizes_before = map.resizes();
        // Grows the grower has finished (and reclaimed the old index of);
        // grows after which the reader has checked its hint.
        let grown = AtomicU64::new(0);
        let checked = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let session = map.session();
                let mut batch = Batch::with_capacity(16);
                let mut keys = [0u64; 16];
                let mut next = 0u64;
                let mut last_hint = std::ptr::null();
                while checked.load(Ordering::Acquire) < GROWS {
                    let g = grown.load(Ordering::Acquire);
                    if g > checked.load(Ordering::Relaxed) {
                        // The grower waits for this check, so `current` is
                        // stable while it runs.
                        session.prefetch(next % KEYS);
                        let current = map.current_unpinned();
                        assert_eq!(session.hint_index(), current, "hint stale after grow {g}");
                        assert_ne!(current, last_hint, "grow {g} left the index in place");
                        last_hint = current;
                        checked.store(g, Ordering::Release);
                    }
                    batch.clear();
                    for k in keys.iter_mut() {
                        *k = next % KEYS;
                        next += 1;
                        session.prefetch(*k);
                        batch.push_get(*k);
                    }
                    session.execute_prefetched(&mut batch, BatchPolicy::RunAll);
                    for (k, r) in keys.iter().zip(batch.responses()) {
                        assert_eq!(*r, Response::Value(Some(value(*k))), "key {k}");
                    }
                }
            });
            let mut fresh = 1 << 32;
            // A reader that stopped early failed an assertion: stop growing so
            // the scope joins it and reports the panic.
            for g in 1..=GROWS {
                if reader.is_finished() {
                    break;
                }
                let before = map.resizes();
                while map.resizes() == before {
                    assert!(map.insert(fresh, 0).unwrap().inserted());
                    fresh += 1;
                }
                while map.retired_indexes() > 0 {
                    map.collect_garbage();
                    std::thread::yield_now();
                }
                grown.store(g, Ordering::Release);
                while checked.load(Ordering::Acquire) < g && !reader.is_finished() {
                    std::thread::yield_now();
                }
            }
        });
        assert!(map.resizes() - resizes_before >= GROWS);
    }

    #[test]
    fn a_stale_hint_to_a_freed_index_is_only_compared() {
        let map = DlhtMap::with_config(DlhtConfig::new(4).with_chunk_bins(2));
        let s = map.session();
        assert!(s.insert(1, 10).unwrap().inserted());
        s.prefetch(1);
        let stale = s.hint_index();
        let mut k = 2u64;
        while map.resizes() < 2 {
            assert!(map.insert(k, k).unwrap().inserted());
            k += 1;
        }
        map.collect_garbage();
        assert_eq!(map.retired_indexes(), 0, "both old indexes must be freed");
        assert_eq!(s.hint_index(), stale, "only an enter refreshes the hint");
        assert_ne!(stale, map.current_unpinned());
        // The hint now points at a freed index: prefetch may only compare it.
        s.prefetch(1);
        assert_eq!(s.hint_index(), map.current_unpinned());
        assert_eq!(s.get(1), Some(10));
        for key in 2..k {
            assert_eq!(s.get(key), Some(key));
        }
    }

    #[test]
    fn sessions_survive_resizes() {
        let map = DlhtMap::with_config(DlhtConfig::new(4).with_chunk_bins(2));
        let s = map.session();
        for k in 0..2_000u64 {
            let _ = s.insert(k, k).unwrap();
        }
        assert!(map.resizes() > 0, "the tiny index must have grown");
        for k in 0..2_000u64 {
            assert_eq!(s.get(k), Some(k), "key {k} lost across resize");
        }
    }
}
