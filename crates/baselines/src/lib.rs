//! From-scratch re-implementations of the concurrent hashtables the DLHT
//! paper compares against (Table 3), all exposed through the **single**
//! [`KvBackend`] operations trait from `dlht-core` — the same trait DLHT's
//! own modes implement — so the workload runner and every benchmark drive
//! them interchangeably with one `Request`/`Response` vocabulary.
//!
//! | Type | Stands in for | Key properties reproduced |
//! |---|---|---|
//! | [`ClhtMap`] | CLHT (lock-free variant) | closed addressing, no chaining, no Puts, serial blocking resize |
//! | [`GrowtLikeMap`] | uaGrowT | open addressing, tombstone deletes, blocking full-table migrations |
//! | [`FollyLikeMap`] | Folly AtomicHashMap | open addressing, non-resizable, deletes never reclaim slots |
//! | [`DramhitLikeMap`] | DRAMHiT | inlined + prefetched batches, upsert-only, may reorder batch requests |
//! | [`MicaLikeMap`] | MICA (CRCW) | closed addressing, lock-based writes, values not inlined (pointer chase) |
//! | [`CuckooMap`] | libcuckoo | bucketized cuckoo hashing with striped locks |
//! | [`LeapfrogLikeMap`] | Junction Leapfrog | quadratic probing, non-resizable, tombstones |
//! | [`ShardedStdMap`] | Intel TBB concurrent_hash_map | RwLock-sharded general-purpose map |
//! | `dlht_core::DlhtMap` / [`DlhtNoBatchAdapter`] | DLHT / DLHT-NoBatch | the paper's system, with and without batching |
//!
//! These are *algorithmic* stand-ins, not line-by-line ports: each reproduces
//! the collision handling, delete semantics, resize behaviour, inlining, and
//! prefetching properties that Table 1 attributes to the original, which is
//! what drives the performance comparison in §5.

#![forbid(unsafe_code)]

mod clht;
mod cuckoo;
mod dlht_adapter;
mod dramhit_like;
mod folly_like;
mod growt_like;
mod leapfrog_like;
mod mica_like;
mod open_addr;
mod tbb_like;

pub use clht::ClhtMap;
pub use cuckoo::CuckooMap;
pub use dlht_adapter::DlhtNoBatchAdapter;
pub use dramhit_like::{DramhitEngine, DramhitLikeMap};
pub use folly_like::FollyLikeMap;
pub use growt_like::GrowtLikeMap;
pub use leapfrog_like::LeapfrogLikeMap;
pub use mica_like::MicaLikeMap;
pub use open_addr::CellArray;
pub use tbb_like::ShardedStdMap;

use dlht_core::sharded::sharded_display_name;
use dlht_core::{DlhtMap, ShardedTable};

// The one operations API everything here implements (re-exported so
// downstream crates need only this dependency to drive any table).
pub use dlht_core::{
    Batch, BatchPolicy, DlhtError, Engine, InsertOutcome, KvBackend, MapFeatures, Pipeline,
    Request, Response,
};

/// Identifier for every hashtable in the evaluation (Table 3), plus the
/// shard-partitioned DLHT front added on top of the paper's set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapKind {
    /// DLHT with batching (software prefetching).
    Dlht,
    /// DLHT issuing requests one at a time.
    DlhtNoBatch,
    /// DLHT partitioned over this many independent shards (rounded up to a
    /// power of two), each resizing on its own — `dlht_core::ShardedTable`.
    DlhtSharded(u8),
    /// CLHT-like closed-addressing baseline.
    Clht,
    /// GrowT-like open-addressing resizable baseline.
    Growt,
    /// Folly-like open-addressing non-resizable baseline.
    Folly,
    /// DRAMHiT-like batched open-addressing baseline.
    Dramhit,
    /// MICA-like lock-based non-inlined baseline.
    Mica,
    /// libcuckoo-like baseline.
    Cuckoo,
    /// Junction-Leapfrog-like baseline.
    Leapfrog,
    /// TBB-like sharded-lock baseline.
    Tbb,
}

impl MapKind {
    /// All evaluated hashtables (the full Figure 1 set, plus the sharded
    /// DLHT front at its default fan-out).
    pub fn all() -> Vec<MapKind> {
        vec![
            MapKind::Dlht,
            MapKind::DlhtNoBatch,
            MapKind::DlhtSharded(4),
            MapKind::Clht,
            MapKind::Growt,
            MapKind::Folly,
            MapKind::Dramhit,
            MapKind::Mica,
            MapKind::Cuckoo,
            MapKind::Leapfrog,
            MapKind::Tbb,
        ]
    }

    /// The fast subset the paper focuses on after Figure 3.
    pub fn fastest() -> Vec<MapKind> {
        vec![
            MapKind::Dlht,
            MapKind::DlhtNoBatch,
            MapKind::Clht,
            MapKind::Growt,
            MapKind::Folly,
            MapKind::Dramhit,
            MapKind::Mica,
        ]
    }

    /// Hashtables that support growing their index (Figure 7).
    pub fn resizable() -> Vec<MapKind> {
        vec![
            MapKind::Dlht,
            MapKind::DlhtSharded(4),
            MapKind::Clht,
            MapKind::Growt,
        ]
    }

    /// Display name (matches Table 3; the sharded front names its fan-out
    /// for the common power-of-two counts).
    pub fn name(self) -> &'static str {
        match self {
            MapKind::Dlht => "DLHT",
            MapKind::DlhtNoBatch => "DLHT-NoBatch",
            MapKind::DlhtSharded(n) => sharded_display_name(n as usize),
            MapKind::Clht => "CLHT",
            MapKind::Growt => "GrowT-like",
            MapKind::Folly => "Folly-like",
            MapKind::Dramhit => "DRAMHiT-like",
            MapKind::Mica => "MICA-like",
            MapKind::Cuckoo => "Cuckoo",
            MapKind::Leapfrog => "Leapfrog-like",
            MapKind::Tbb => "TBB-like",
        }
    }

    /// Instantiate the hashtable sized for `capacity` keys, behind the
    /// unified operations trait.
    pub fn build(self, capacity: usize) -> Box<dyn KvBackend> {
        match self {
            MapKind::Dlht => Box::new(DlhtMap::with_capacity(capacity)),
            MapKind::DlhtNoBatch => Box::new(DlhtNoBatchAdapter::with_capacity(capacity)),
            MapKind::DlhtSharded(shards) => Box::new(ShardedTable::with_capacity(
                (shards as usize).max(1),
                capacity,
            )),
            MapKind::Clht => Box::new(ClhtMap::with_capacity(capacity)),
            MapKind::Growt => Box::new(GrowtLikeMap::with_capacity(capacity)),
            MapKind::Folly => Box::new(FollyLikeMap::with_capacity(capacity)),
            MapKind::Dramhit => Box::new(DramhitLikeMap::with_capacity(capacity)),
            MapKind::Mica => Box::new(MicaLikeMap::with_capacity(capacity)),
            MapKind::Cuckoo => Box::new(CuckooMap::with_capacity(capacity)),
            MapKind::Leapfrog => Box::new(LeapfrogLikeMap::with_capacity(capacity)),
            MapKind::Tbb => Box::new(ShardedStdMap::with_capacity(capacity)),
        }
    }
}

/// Shared conformance checks run against every implementation.
#[cfg(test)]
pub(crate) mod conformance {
    use super::*;

    /// Basic single-threaded semantics every backend must satisfy.
    pub fn basic_semantics<M: KvBackend>(map: &M) {
        let name = map.name();
        assert_eq!(map.get(1), None, "{name}");
        assert!(map.insert(1, 10).unwrap().inserted(), "{name}");
        assert!(
            !map.insert(1, 11).unwrap().inserted(),
            "{name}: duplicate insert must fail"
        );
        assert_eq!(map.get(1), Some(10), "{name}");
        assert!(map.contains(1), "{name}");
        // Backends that support pure updates must report the previous value
        // and reflect the new one; the rest must leave the old value intact.
        match map.put(1, 12) {
            Some(prev) => {
                assert_eq!(prev, 10, "{name}");
                assert_eq!(map.get(1), Some(12), "{name}");
            }
            None => assert_eq!(map.get(1), Some(10), "{name}"),
        }
        // Removal (tombstone or reclaiming) must hide the key from Gets and
        // report the removed value.
        let current = map.get(1).unwrap();
        if let Some(removed) = map.delete(1) {
            assert_eq!(removed, current, "{name}");
            assert_eq!(map.get(1), None, "{name}");
            assert_eq!(map.delete(1), None, "{name}: double delete must fail");
        }
        // Misses stay misses.
        assert_eq!(map.get(999), None, "{name}");
    }

    /// Concurrent smoke test: unique-winner inserts plus read stability.
    pub fn concurrent_inserts<M: KvBackend>(map: &M, keys: u64) {
        use std::sync::atomic::{AtomicU64, Ordering};
        let wins = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for k in 0..keys {
                        if matches!(map.insert(k, k * 2), Ok(o) if o.inserted()) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), keys, "{}", map.name());
        for k in 0..keys {
            assert_eq!(map.get(k), Some(k * 2), "{} key {k}", map.name());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_builds_and_works() {
        for kind in MapKind::all() {
            let map = kind.build(4_096);
            assert_eq!(map.name(), kind.name());
            assert!(map.insert(1, 10).unwrap().inserted(), "{}", kind.name());
            assert_eq!(map.get(1), Some(10), "{}", kind.name());
            assert_eq!(map.len(), 1, "{}", kind.name());
        }
    }

    #[test]
    fn sharded_kind_and_adapter_agree_on_names_after_rounding() {
        // The shard count rounds up to a power of two inside the table; the
        // MapKind label and the built adapter's name() must agree anyway.
        for n in [1u8, 2, 3, 4, 5, 8, 16, 32] {
            let kind = MapKind::DlhtSharded(n);
            assert_eq!(kind.build(64).name(), kind.name(), "shards={n}");
        }
    }

    #[test]
    fn kind_subsets_are_consistent() {
        let all = MapKind::all();
        for k in MapKind::fastest() {
            assert!(all.contains(&k));
        }
        for k in MapKind::resizable() {
            assert!(all.contains(&k));
            let features = k.build(64).features();
            assert!(features.resizable, "{} must be resizable", k.name());
        }
    }

    #[test]
    fn only_dlht_has_a_non_blocking_resize() {
        for kind in MapKind::all() {
            let f = kind.build(64).features();
            let is_dlht = matches!(
                kind,
                MapKind::Dlht | MapKind::DlhtNoBatch | MapKind::DlhtSharded(_)
            );
            assert_eq!(f.non_blocking_resize, is_dlht, "{}", kind.name());
        }
    }

    #[test]
    fn every_kind_executes_the_unified_batch_api() {
        for kind in MapKind::all() {
            let map = kind.build(4_096);
            let reqs = [
                Request::Insert(1, 10),
                Request::Get(1),
                Request::Delete(1),
                Request::Get(1),
            ];
            let mut batch = Batch::from(&reqs[..]);
            map.engine().execute(&mut batch, BatchPolicy::RunAll);
            let out = batch.responses();
            assert_eq!(out.len(), 4, "{}", kind.name());
            assert_eq!(out[1], Response::Value(Some(10)), "{}", kind.name());
            assert_eq!(out[3], Response::Value(None), "{}", kind.name());
        }
    }

    #[test]
    fn every_kind_reuses_a_batch_buffer() {
        for kind in MapKind::all() {
            let map = kind.build(4_096);
            let engine = map.engine();
            let mut batch = Batch::with_capacity(2);
            for round in 0..4u64 {
                batch.clear();
                batch.push_insert(round, round * 2);
                batch.push_get(round);
                engine.execute(&mut batch, BatchPolicy::RunAll);
                assert_eq!(
                    batch.responses()[1],
                    Response::Value(Some(round * 2)),
                    "{}",
                    kind.name()
                );
            }
            assert_eq!(map.len(), 4, "{}", kind.name());
        }
    }

    #[test]
    fn every_kind_drives_a_pipeline_in_submission_order() {
        // The generic prefetch pipeline works over any backend — designs
        // without prefetch support just skip the submit-time hint.
        for kind in MapKind::all() {
            let map = kind.build(4_096);
            for k in 0..200u64 {
                let _ = map.insert(k, k + 1).unwrap();
            }
            let mut pipe = Pipeline::new(map.engine(), 8);
            let mut got = Vec::new();
            for k in 0..200u64 {
                if let Some(r) = pipe.submit(Request::Get(k)) {
                    got.push(r);
                }
            }
            pipe.drain_into(&mut got);
            assert_eq!(got.len(), 200, "{}", kind.name());
            for (k, r) in got.iter().enumerate() {
                assert_eq!(
                    *r,
                    Response::Value(Some(k as u64 + 1)),
                    "{} key {k}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn default_upsert_works_for_every_kind() {
        for kind in MapKind::all() {
            let map = kind.build(4_096);
            assert_eq!(map.upsert(7, 70).unwrap(), None, "{}", kind.name());
            // Kinds with pure-Put support overwrite; the others (CLHT has no
            // Put) terminate reporting the existing value unchanged.
            match map.upsert(7, 71).unwrap() {
                Some(prev) => {
                    assert_eq!(prev, 70, "{}", kind.name());
                    let now = map.get(7).unwrap();
                    assert!(now == 71 || now == 70, "{}", kind.name());
                }
                None => assert_eq!(map.get(7), Some(70), "{}", kind.name()),
            }
        }
    }
}
