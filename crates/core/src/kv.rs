//! The unified operations API: one [`KvBackend`] trait implemented by every
//! table in the repository — DLHT's own modes and all the baseline
//! hashtables — so workloads, benchmarks, and applications drive any of them
//! interchangeably. Batches of the shared `Request`/`Response` vocabulary
//! run through the per-thread [`Engine`] that [`KvBackend::engine`] hands
//! out.
//!
//! This replaces the historical split where `dlht-baselines` carried a second,
//! incompatible `ConcurrentMap` + `BatchOp`/`BatchResult` interface next to
//! the core's `Request`/`Response`. The trait is deliberately the paper's
//! operation set (§3.2): Get / Insert / Put / Delete; the order-preserving
//! batch entry point of §3.3 is [`Engine::execute`].

use crate::batch::{Batch, BatchPolicy, Request, Response};
use crate::engine::{BackendEngine, Engine};
use crate::error::{DlhtError, InsertOutcome};
use crate::set::DlhtSet;
use crate::sharded::{sharded_display_name, ShardedTable};
use crate::stats::TableStats;
use crate::table::DlhtMap;
use std::sync::Arc;

/// Feature matrix entries (Table 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapFeatures {
    /// "closed-addressing" or "open-addressing".
    pub collision_handling: &'static str,
    /// Non-blocking Gets.
    pub lock_free_gets: bool,
    /// Supports pure Puts (update-only) without locks.
    pub non_blocking_puts: bool,
    /// Supports pure Inserts without locks.
    pub non_blocking_inserts: bool,
    /// Deletes that immediately free index slots.
    pub deletes_free_slots: bool,
    /// Supports growing the index at all.
    pub resizable: bool,
    /// Resizes do not block all other operations.
    pub non_blocking_resize: bool,
    /// Uses software prefetching to overlap memory accesses.
    pub overlaps_memory_accesses: bool,
    /// Values (≤ 8 B) are stored inline in the index.
    pub inline_values: bool,
}

impl MapFeatures {
    /// The feature set of DLHT itself (with batching).
    pub const fn dlht() -> MapFeatures {
        MapFeatures {
            collision_handling: "closed-addressing",
            lock_free_gets: true,
            non_blocking_puts: true,
            non_blocking_inserts: true,
            deletes_free_slots: true,
            resizable: true,
            non_blocking_resize: true,
            overlaps_memory_accesses: true,
            inline_values: true,
        }
    }
}

/// Thread-safe map over 8-byte keys and values — the single operations API
/// every table in the repository implements (§5's evaluation harness shape).
///
/// Semantics follow the paper's operation set:
///
/// * [`KvBackend::insert`] never overwrites: an existing key yields
///   `Ok(InsertOutcome::AlreadyExists(_))`, and designs that cannot
///   accommodate the key report `Err` (`TableFull`, `ReservedKey`, ...).
/// * [`KvBackend::put`] never inserts: it updates an existing key and returns
///   the previous value, or `None` when the key is absent or the design
///   cannot express a pure update (e.g. CLHT).
/// * [`KvBackend::delete`] returns the removed value when present.
///
/// Batches run through [`KvBackend::engine`] (see [`Engine::execute`]).
pub trait KvBackend: Send + Sync {
    /// Look up `key`.
    fn get(&self, key: u64) -> Option<u64>;

    /// Whether `key` is present.
    fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Insert `key -> value`; fails (without overwriting) if the key exists.
    fn insert(&self, key: u64, value: u64) -> Result<InsertOutcome, DlhtError>;

    /// Update an existing key's value; returns the previous value (`None` if
    /// the key is absent or the design cannot express a pure update).
    fn put(&self, key: u64, value: u64) -> Option<u64>;

    /// Remove `key`, returning its value if it was present.
    fn delete(&self, key: u64) -> Option<u64>;

    /// Insert if absent, otherwise update. Returns the previous value on
    /// update, `Ok(None)` on a fresh insert — and **propagates** insert errors
    /// (table full, reserved key) instead of swallowing them.
    fn upsert(&self, key: u64, value: u64) -> Result<Option<u64>, DlhtError> {
        loop {
            match self.insert(key, value)? {
                InsertOutcome::Inserted => return Ok(None),
                InsertOutcome::AlreadyExists(existing) => {
                    // The key existed; try to overwrite. A concurrent delete
                    // may remove it between the two calls — retry the insert
                    // then.
                    if let Some(prev) = self.put(key, value) {
                        return Ok(Some(prev));
                    }
                    // `put` failed but the key is still present: this design
                    // cannot express a pure update (e.g. CLHT, sets). Report
                    // the existing value rather than spinning forever.
                    if self.contains(key) {
                        return Ok(Some(existing));
                    }
                }
            }
        }
    }

    /// Number of live keys (may be linear-time).
    fn len(&self) -> usize;

    /// Whether the map is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Short display name used in benchmark tables.
    fn name(&self) -> &'static str;

    /// Feature flags for Table 1.
    fn features(&self) -> MapFeatures;

    /// Structural statistics. Designs without a DLHT-style index report the
    /// default (all-zero) snapshot.
    fn stats(&self) -> TableStats {
        TableStats::default()
    }

    /// Retired-but-not-yet-freed index generations (a proxy for resize memory
    /// still awaiting epoch reclamation, captured per data point by the
    /// benchmark harness). Designs without DLHT-style index retirement
    /// report 0.
    fn retired_indexes(&self) -> usize {
        0
    }

    /// Whether the [`KvBackend::engine`]'s batches actually overlap memory
    /// accesses (software prefetching) rather than falling back to a loop.
    fn supports_batching(&self) -> bool {
        false
    }

    /// A per-thread [`Engine`] over this backend, for a [`crate::Pipeline`]
    /// or a wire service to drive. Take one per worker thread: DLHT's tables
    /// return a session, designs with their own prefetch engine return
    /// themselves, and the default is the [`BackendEngine`] adapter (no
    /// prefetch, the single-request operations in order).
    fn engine(&self) -> Box<dyn Engine + '_> {
        Box::new(BackendEngine(self))
    }
}

/// Execute a batch serially through `backend`'s single-request operations,
/// honoring the [`BatchPolicy`] contract: the batch loop of every engine
/// over a backend's single-request operations ([`BackendEngine`], the
/// MICA-like baseline), so the batch contract lives in one place.
pub fn execute_serial<B: KvBackend + ?Sized>(backend: &B, batch: &mut Batch, policy: BatchPolicy) {
    batch.run_in_order(policy, |req| match req {
        Request::Get(k) => Response::Value(backend.get(k)),
        Request::Put(k, v) => Response::Updated(backend.put(k, v)),
        Request::Insert(k, v) => Response::Inserted(backend.insert(k, v)),
        Request::Delete(k) => Response::Deleted(backend.delete(k)),
    });
}

/// Blanket impls so `Arc<M>` and `Box<M>` can be used wherever a backend is
/// expected: every method forwards to the pointee.
macro_rules! forward_kv_backend {
    ($($ptr:ident),+) => {$(
        impl<M: KvBackend + ?Sized> KvBackend for $ptr<M> {
            fn get(&self, key: u64) -> Option<u64> {
                (**self).get(key)
            }
            fn contains(&self, key: u64) -> bool {
                (**self).contains(key)
            }
            fn insert(&self, key: u64, value: u64) -> Result<InsertOutcome, DlhtError> {
                (**self).insert(key, value)
            }
            fn put(&self, key: u64, value: u64) -> Option<u64> {
                (**self).put(key, value)
            }
            fn delete(&self, key: u64) -> Option<u64> {
                (**self).delete(key)
            }
            fn upsert(&self, key: u64, value: u64) -> Result<Option<u64>, DlhtError> {
                (**self).upsert(key, value)
            }
            fn len(&self) -> usize {
                (**self).len()
            }
            fn name(&self) -> &'static str {
                (**self).name()
            }
            fn features(&self) -> MapFeatures {
                (**self).features()
            }
            fn stats(&self) -> TableStats {
                (**self).stats()
            }
            fn retired_indexes(&self) -> usize {
                (**self).retired_indexes()
            }
            fn supports_batching(&self) -> bool {
                (**self).supports_batching()
            }
            fn engine(&self) -> Box<dyn Engine + '_> {
                (**self).engine()
            }
        }
    )+};
}

forward_kv_backend!(Arc, Box);

/// `DlhtMap` and `ShardedTable` through the unified API: every method
/// calls the table's inherent method of the same name, and the per-thread
/// engine is the table's session. `name` is computed from the table bound
/// to `$this`.
macro_rules! native_kv_backend {
    ($($table:ident, |$this:ident| $name:expr);+) => {$(
        impl KvBackend for $table {
            fn get(&self, key: u64) -> Option<u64> {
                $table::get(self, key)
            }
            fn contains(&self, key: u64) -> bool {
                $table::contains(self, key)
            }
            fn insert(&self, key: u64, value: u64) -> Result<InsertOutcome, DlhtError> {
                $table::insert(self, key, value)
            }
            fn put(&self, key: u64, value: u64) -> Option<u64> {
                $table::put(self, key, value)
            }
            fn delete(&self, key: u64) -> Option<u64> {
                $table::delete(self, key)
            }
            fn upsert(&self, key: u64, value: u64) -> Result<Option<u64>, DlhtError> {
                $table::upsert(self, key, value)
            }
            fn len(&self) -> usize {
                $table::len(self)
            }
            fn name(&self) -> &'static str {
                let $this = self;
                $name
            }
            fn features(&self) -> MapFeatures {
                MapFeatures::dlht()
            }
            fn stats(&self) -> TableStats {
                $table::stats(self)
            }
            fn retired_indexes(&self) -> usize {
                $table::retired_indexes(self)
            }
            fn supports_batching(&self) -> bool {
                true
            }
            fn engine(&self) -> Box<dyn Engine + '_> {
                Box::new($table::session(self))
            }
        }
    )+};
}

// The sharded front has the same per-key and batch semantics as `DlhtMap`,
// with shard-local (independent) resizes.
native_kv_backend!(
    DlhtMap, |_map| "DLHT";
    ShardedTable, |table| sharded_display_name(table.num_shards())
);

/// The HashSet mode through the unified API: values are ignored on insert
/// (stored as the given word) and a member key reads back its stored word.
/// `put` is not meaningful for a set and returns `None` — and batches go
/// through the serial engine so a batched `Put` agrees with `put`
/// (delegating to the raw table would let a batch update a member's stored
/// word, which the single-request surface cannot express). Callers that want
/// the prefetched batch engine underneath can drop to [`DlhtSet::raw`].
impl KvBackend for DlhtSet {
    fn get(&self, key: u64) -> Option<u64> {
        self.raw().get(key)
    }
    fn contains(&self, key: u64) -> bool {
        DlhtSet::contains(self, key)
    }
    fn insert(&self, key: u64, value: u64) -> Result<InsertOutcome, DlhtError> {
        self.raw().insert(key, value)
    }
    fn put(&self, _key: u64, _value: u64) -> Option<u64> {
        None
    }
    fn delete(&self, key: u64) -> Option<u64> {
        self.raw().delete(key)
    }
    fn len(&self) -> usize {
        DlhtSet::len(self)
    }
    fn name(&self) -> &'static str {
        "DLHT-set"
    }
    fn features(&self) -> MapFeatures {
        MapFeatures {
            non_blocking_puts: false,
            ..MapFeatures::dlht()
        }
    }
    fn stats(&self) -> TableStats {
        DlhtSet::stats(self)
    }
    fn retired_indexes(&self) -> usize {
        self.raw().retired_indexes()
    }
    // `supports_batching` and `engine` stay the serial defaults so the batch
    // surface matches the single-request one (no Puts on sets).
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DlhtConfig;

    fn as_backend(map: &DlhtMap) -> &dyn KvBackend {
        map
    }

    #[test]
    fn trait_object_roundtrip() {
        let map = DlhtMap::with_capacity(256);
        let b = as_backend(&map);
        assert!(b.insert(1, 10).unwrap().inserted());
        assert_eq!(b.get(1), Some(10));
        assert_eq!(b.put(1, 11), Some(10));
        assert_eq!(b.delete(1), Some(11));
        assert!(b.is_empty());
        assert_eq!(b.name(), "DLHT");
        assert!(b.features().non_blocking_resize);
        assert!(b.supports_batching());
    }

    #[test]
    fn default_upsert_propagates_table_full() {
        // A tiny non-resizing table must eventually report TableFull through
        // upsert rather than masking it as "no previous value".
        let map = DlhtMap::with_config(DlhtConfig::new(2).with_resizing(false));
        let mut saw_full = false;
        for k in 0..1_000u64 {
            match KvBackend::upsert(&map, k, k) {
                Ok(_) => {}
                Err(DlhtError::TableFull) => {
                    saw_full = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(saw_full, "table-full must surface through upsert");
    }

    #[test]
    fn default_batch_honors_stop_on_failure() {
        let set = DlhtSet::with_capacity(64);
        let reqs = [
            Request::Insert(1, 0),
            Request::Insert(1, 0), // duplicate -> failure
            Request::Insert(2, 0),
        ];
        let mut batch = Batch::from(&reqs[..]);
        set.engine().execute(&mut batch, BatchPolicy::StopOnFailure);
        let out = batch.into_responses();
        assert!(out[0].succeeded());
        assert!(!out[1].succeeded());
        assert_eq!(out[2], Response::Skipped);
        assert!(!KvBackend::contains(&set, 2));
    }

    #[test]
    fn trait_execute_reuses_batch_storage() {
        let map = DlhtMap::with_capacity(256);
        let backend: &dyn KvBackend = &map;
        let engine = backend.engine();
        let mut batch = Batch::with_capacity(2);
        for round in 0..8u64 {
            batch.clear();
            batch.push_insert(round, round * 7);
            batch.push_get(round);
            engine.execute(&mut batch, BatchPolicy::RunAll);
            assert_eq!(batch.responses()[1], Response::Value(Some(round * 7)));
        }
        assert_eq!(map.len(), 8);
    }

    #[test]
    fn arc_and_box_blankets_delegate() {
        let arc = std::sync::Arc::new(DlhtMap::with_capacity(64));
        assert!(arc.insert(3, 30).unwrap().inserted());
        assert_eq!(KvBackend::get(&arc, 3), Some(30));
        let boxed: Box<dyn KvBackend> = Box::new(DlhtMap::with_capacity(64));
        assert!(boxed.insert(4, 40).unwrap().inserted());
        assert_eq!(boxed.get(4), Some(40));
        assert_eq!(boxed.stats().occupied_slots, 1);
    }

    #[test]
    fn reserved_keys_rejected_via_trait_and_batch() {
        let map = DlhtMap::with_capacity(64);
        let b: &dyn KvBackend = &map;
        assert_eq!(b.insert(u64::MAX, 1), Err(DlhtError::ReservedKey));
        assert_eq!(b.insert(u64::MAX - 1, 1), Err(DlhtError::ReservedKey));
        assert_eq!(b.upsert(u64::MAX, 1), Err(DlhtError::ReservedKey));
        let mut batch = Batch::from(&[Request::Insert(u64::MAX, 1)][..]);
        b.engine().execute(&mut batch, BatchPolicy::RunAll);
        assert_eq!(
            batch.responses()[0],
            Response::Inserted(Err(DlhtError::ReservedKey))
        );
    }
}
