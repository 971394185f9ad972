//! # DLHT core
//!
//! A from-scratch Rust implementation of the **Dandelion HashTable (DLHT)**
//! from *"DLHT: A Non-blocking Resizable Hashtable with Fast Deletes and
//! Memory-awareness"* (HPDC 2024).
//!
//! DLHT is a concurrent, in-memory, closed-addressing hashtable built on
//! **bounded cache-line chaining**: the index is an array of bins, each bin is
//! a chain of at most four 64-byte buckets (one primary + up to three link
//! buckets), and all of a bin's concurrency metadata lives in a single 8-byte
//! header so every state transition is one CAS. The design delivers:
//!
//! 1. **Lock-free index operations**, including Deletes that reclaim their
//!    slot instantly (unlike tombstone-based open addressing).
//! 2. **~One memory access per request**: small keys/values are inlined in the
//!    index, and Gets perform no write-backs.
//! 3. **Software prefetching** via an order-preserving batch API that overlaps
//!    the memory latency of one request with work on others.
//! 4. **A non-blocking, parallel resize**: requests keep completing (with
//!    strong consistency) while all threads that hit the full index cooperate
//!    to migrate 16 Ki-bin chunks to the new index.
//!
//! ## Modes
//!
//! | Type | Paper mode | Keys | Values |
//! |---|---|---|---|
//! | [`Dlht<K, V>`] | typed facade | any `KvCodec` | any `KvCodec` — picks a mode below at compile time |
//! | [`DlhtMap`] | Inlined — the table itself; the set and Allocator modes wrap it | 8 B | 8 B, stored in the slot |
//! | [`DlhtAllocMap`] | Allocator | any size | any size, out-of-line record + pointer API |
//! | [`DlhtSet`] | HashSet | 8 B | none |
//! | [`SingleThreadMap`] | Single-thread | 8 B | 8 B, on `DlhtMap`'s bin layout without synchronization |
//! | [`ShardedTable`] | sharded front | 8 B | 8 B; N independent shards, shard-local resizes |
//!
//! All concurrent modes (and every baseline in `dlht-baselines`) implement
//! the single [`KvBackend`] operations trait. Batches of the
//! [`Request`]/[`Response`] vocabulary below run through the per-thread
//! [`Engine`] it hands out — one API from micro-bench to application
//! workloads.
//!
//! ## Quick start
//!
//! ```
//! use dlht_core::{Batch, BatchPolicy, DlhtMap, Request, Response};
//!
//! let map = DlhtMap::with_capacity(10_000);
//! map.insert(7, 700).unwrap();
//!
//! // Batched execution with software prefetching (order preserving), through
//! // a per-thread session. The batch owns request and response storage;
//! // clear() + re-push makes steady-state execution allocation-free.
//! let session = map.session();
//! let mut batch = Batch::with_capacity(3);
//! batch.push_get(7);
//! batch.push_put(7, 701);
//! batch.push_get(7);
//! session.execute(&mut batch, BatchPolicy::RunAll);
//! assert_eq!(batch.responses()[2], Response::Value(Some(701)));
//!
//! // Or keep a stream of operations in flight with a bounded pipeline:
//! // prefetch at submit, order-preserving completion.
//! let mut pipe = session.pipeline(16);
//! pipe.submit(Request::Get(7));
//! assert_eq!(pipe.drain()[0], Response::Value(Some(701)));
//! ```
//!
//! ## Reserved keys
//!
//! Keys `u64::MAX` and `u64::MAX - 1` are reserved as the resize protocol's
//! transfer keys and are rejected by the API.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod atomic128;
pub mod batch;
pub mod bucket;
pub mod config;
pub mod engine;
pub mod error;
pub mod header;
pub mod index;
pub mod kv;
pub mod pipeline;
pub mod prefetch;
pub mod session;
pub mod sharded;
pub mod stats;
pub mod tagged_ptr;
pub mod typed;

mod alloc_map;
mod cache;
mod record;
mod registry;
mod set;
mod single_thread;
mod table;

pub use alloc_map::{AllocSession, DlhtAllocMap};
pub use batch::{Batch, BatchPolicy, Request, Response};
pub use cache::{
    format_decimal_u64, parse_decimal_u64, CacheClock, CacheConfig, CacheMap, CacheSession,
    CacheStats, CacheView, CounterError, EvictionPolicy, ManualClock, MonotonicClock, ReapOutcome,
    StoreOutcome, MAX_RELATIVE_EXPIRY,
};
pub use config::DlhtConfig;
pub use engine::{BackendEngine, Engine};
pub use error::{DlhtError, InsertOutcome};
pub use kv::{KvBackend, MapFeatures};
pub use pipeline::Pipeline;
pub use record::MAX_KEY_LEN;
pub use session::Session;
pub use set::DlhtSet;
pub use sharded::{ShardedSession, ShardedTable, MAX_SHARDS};
pub use single_thread::SingleThreadMap;
pub use stats::TableStats;
pub use table::DlhtMap;
pub use tagged_ptr::{TaggedPtr, MAX_NAMESPACES};
pub use typed::{ByteCodec, Dlht, Inline8, KvCodec, TypedBatch, TypedResponse};

// Re-export the substrate crates so downstream users need only one dependency.
pub use dlht_alloc as alloc;
pub use dlht_hash as hash;

#[cfg(test)]
mod model_tests {
    //! Deterministic property testing: the single-threaded behaviour of the
    //! concurrent map must match `std::collections::HashMap` under
    //! pseudo-random operation sequences (64 seeds × 400 operations),
    //! including the value-conditional `put_if` / `delete_if`.

    use crate::{DlhtConfig, DlhtMap};
    use dlht_hash::HashKind;
    use dlht_util::splitmix64 as splitmix;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn matches_std_hashmap() {
        for seed in 0..64u64 {
            // A tiny index with wyhash forces chaining and resizes; a small
            // key universe maximizes collisions and slot reuse.
            let map = DlhtMap::with_config(
                DlhtConfig::new(4)
                    .with_hash(HashKind::WyHash)
                    .with_chunk_bins(2),
            );
            let mut model: HashMap<u64, u64> = HashMap::new();
            let mut rng = 0xD15C0 + seed;
            for _ in 0..400 {
                let k = splitmix(&mut rng) % 64;
                let v = splitmix(&mut rng) % 1_000_000;
                // Conditional ops expect the current value half the time
                // (a match when present) and a fresh value otherwise.
                let expected = match model.get(&k) {
                    Some(&cur) if splitmix(&mut rng).is_multiple_of(2) => cur,
                    _ => splitmix(&mut rng) % 1_000_000,
                };
                let held = model.get(&k).copied();
                let matches = held == Some(expected);
                match splitmix(&mut rng) % 6 {
                    0 => {
                        let inserted = map.insert(k, v).unwrap().inserted();
                        let expected = !model.contains_key(&k);
                        if expected {
                            model.insert(k, v);
                        }
                        assert_eq!(inserted, expected, "seed {seed}");
                    }
                    1 => assert_eq!(map.delete(k), model.remove(&k), "seed {seed}"),
                    2 => assert_eq!(map.get(k), model.get(&k).copied(), "seed {seed}"),
                    3 => {
                        let want = if matches { Ok(()) } else { Err(held) };
                        assert_eq!(map.enter().put_if(k, expected, v), want, "seed {seed}");
                        if matches {
                            model.insert(k, v);
                        }
                    }
                    4 => {
                        let want = if matches { Ok(()) } else { Err(held) };
                        assert_eq!(map.enter().delete_if(k, expected), want, "seed {seed}");
                        if matches {
                            model.remove(&k);
                        }
                    }
                    _ => {
                        let prev = model.get(&k).copied();
                        assert_eq!(map.put(k, v), prev, "seed {seed}");
                        if prev.is_some() {
                            model.insert(k, v);
                        }
                    }
                }
            }
            assert_eq!(map.len(), model.len(), "seed {seed}");
            // Every model pair must be present with the right value.
            for (k, v) in &model {
                assert_eq!(map.get(*k), Some(*v), "seed {seed}");
            }
        }
    }

    #[test]
    fn resize_preserves_random_contents() {
        for seed in 0..8u64 {
            let map = DlhtMap::with_config(
                DlhtConfig::new(2)
                    .with_hash(HashKind::WyHash)
                    .with_chunk_bins(4),
            );
            let mut rng = 0xAB ^ (seed << 32);
            let mut keys: HashSet<u64> = HashSet::new();
            let n = 1 + splitmix(&mut rng) % 800;
            while (keys.len() as u64) < n {
                keys.insert(splitmix(&mut rng) % 100_000);
            }
            for &k in &keys {
                assert!(map.insert(k, k ^ 0xABCD).unwrap().inserted(), "seed {seed}");
            }
            for &k in &keys {
                assert_eq!(map.get(k), Some(k ^ 0xABCD), "seed {seed}");
            }
            assert_eq!(map.len(), keys.len(), "seed {seed}");
        }
    }
}
