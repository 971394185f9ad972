//! # dlht — Dandelion HashTable
//!
//! Facade crate for the DLHT reproduction (HPDC 2024). It re-exports:
//!
//! * the **typed facade** [`Dlht<K, V>`] — one generic table that picks the
//!   right paper mode at compile time (Inlined slots for 8-byte-encodable
//!   types, Allocator-mode records for everything else);
//! * the **unified operations API** [`KvBackend`] + [`Request`]/[`Response`]
//!   — the single trait implemented by every DLHT mode *and* every baseline
//!   hashtable in `dlht-baselines`, so workloads and benchmarks drive any
//!   table interchangeably;
//! * the mode-specific types ([`DlhtMap`], [`DlhtAllocMap`], [`DlhtSet`],
//!   [`SingleThreadMap`]) and the substrate crates (hash functions, value
//!   allocators);
//! * the **sharded front** [`ShardedTable`] — N independent DLHT shards
//!   with shard-local (independent) resizes behind the same `KvBackend`
//!   surface.
//!
//! The same generic code path serves inline and out-of-line pairs:
//!
//! ```
//! use dlht::{Dlht, DlhtError, KvCodec};
//!
//! fn exercise<K: KvCodec, V: KvCodec + PartialEq + std::fmt::Debug>(
//!     map: &Dlht<K, V>,
//!     key: K,
//!     value: V,
//! ) -> Result<(), DlhtError> {
//!     assert!(map.insert(&key, &value)?);
//!     assert_eq!(map.get(&key).as_ref(), Some(&value));
//!     assert_eq!(map.remove(&key), Some(value));
//!     Ok(())
//! }
//!
//! // Inlined mode: both halves pack into the 8-byte slot words.
//! let ids: Dlht<u64, u64> = Dlht::with_capacity(1024);
//! exercise(&ids, 42, 4200).unwrap();
//!
//! // Allocator mode: out-of-line records, epoch-reclaimed deletes.
//! let docs: Dlht<String, Vec<u8>> = Dlht::with_capacity(1024);
//! exercise(&docs, "answer".to_string(), vec![42u8; 100]).unwrap();
//! ```
//!
//! And the unified batch-and-pipeline API works on any backend, through the
//! per-thread [`Engine`] every backend hands out. A reusable [`Batch`] owns
//! request *and* response storage (zero allocations once warm),
//! [`BatchPolicy`] replaces the old `stop_on_failure: bool`, and a bounded
//! [`Pipeline`] keeps a stream of prefetched operations in flight with
//! order-preserving completion:
//!
//! ```
//! use dlht::{Batch, BatchPolicy, DlhtMap, KvBackend, Pipeline, Request, Response};
//!
//! let map = DlhtMap::with_capacity(1024);
//! let backend: &dyn KvBackend = &map;
//! backend.insert(1, 100).unwrap();
//!
//! let engine = backend.engine(); // one per worker thread
//! let mut batch = Batch::with_capacity(1);
//! batch.push_get(1);
//! engine.execute(&mut batch, BatchPolicy::RunAll);
//! assert_eq!(batch.responses()[0], Response::Value(Some(100)));
//!
//! let mut pipe = Pipeline::new(&engine, 8);
//! pipe.submit(Request::Get(1));
//! assert_eq!(pipe.drain()[0], Response::Value(Some(100)));
//! ```
//!
//! See `README.md` for the architecture overview, the mode-selection table,
//! and the migration notes from the pre-`Batch` API.

#![forbid(unsafe_code)]

pub use dlht_core::{
    AllocSession, BackendEngine, Batch, BatchPolicy, ByteCodec, Dlht, DlhtAllocMap, DlhtConfig,
    DlhtError, DlhtMap, DlhtSet, Engine, Inline8, InsertOutcome, KvBackend, KvCodec, MapFeatures,
    Pipeline, Request, Response, Session, ShardedSession, ShardedTable, SingleThreadMap,
    TableStats, TaggedPtr, TypedBatch, TypedResponse, MAX_KEY_LEN, MAX_NAMESPACES, MAX_SHARDS,
};

// Codec-implementation macros for user newtypes.
pub use dlht_core::{impl_bytes_codec, impl_inline8_codec};

/// Value allocators for the Allocator mode (system malloc and the pooled
/// mimalloc stand-in).
pub use dlht_alloc as alloc;
/// Low-level building blocks (headers, buckets, batch types, prefetching).
pub use dlht_core as core;
/// The hash functions of the paper's Table 2 (modulo, wyhash).
pub use dlht_hash as hash;

#[cfg(test)]
mod smoke {
    use super::*;

    #[test]
    fn facade_reexports_are_usable() {
        let map = DlhtMap::with_config(DlhtConfig::new(64).with_hash(hash::HashKind::WyHash));
        let _ = map.insert(5, 50).unwrap();
        assert_eq!(map.get(5), Some(50));
        let set = DlhtSet::with_capacity(16);
        assert!(set.insert(9).unwrap());
        let stats: TableStats = map.stats();
        assert_eq!(stats.occupied_slots, 1);
    }

    #[test]
    fn typed_facade_and_backend_trait_compose() {
        let typed: Dlht<u64, u64> = Dlht::with_capacity(64);
        typed.insert(&1, &10).unwrap();
        // The inline path is a real DlhtMap, which is itself a KvBackend.
        let backend: &dyn KvBackend = typed.inline_map().unwrap();
        assert_eq!(backend.get(1), Some(10));
        assert_eq!(backend.name(), "DLHT");
    }
}
