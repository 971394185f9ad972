//! Shard-partitioned front over N independent [`DlhtMap`]s — the scaling
//! axis *above* the single-table index.
//!
//! DLHT's own index already scales across threads (§5.1), but a single table
//! still shares one link-bucket pool, one resize, and one thread registry.
//! [`ShardedTable`] partitions the key space over a power-of-two number of
//! independent [`DlhtMap`] shards so that:
//!
//! * **Resizes are shard-local.** A hot shard grows (non-blocking, §3.2.5)
//!   without the sibling shards participating in — or even noticing — the
//!   transfer. Cold shards keep their smaller, cache-friendlier indexes.
//! * **Contention is partitioned.** Registry announcements, link-bucket
//!   allocation, and retire/GC bookkeeping are all per shard.
//! * **The operations API is unchanged.** `ShardedTable` implements the full
//!   [`crate::KvBackend`] contract, with a [`ShardedSession`] as the engine
//!   its batches and a [`Pipeline`] run through, so every workload,
//!   benchmark, and example drives it interchangeably with a single table.
//!
//! ## Routing
//!
//! A key's shard is selected from the **high bits** of a finalizing mix of
//! its configured hash ([`dlht_hash::mix64`]), while each shard's bin index
//! keeps using the *unmixed* hash modulo the shard's bin count — exactly what
//! a single `DlhtMap` does. The two selections draw from independent parts
//! of the hash, so sharding leaves per-shard bin indexing undisturbed, and a
//! key's shard never changes: shard count is fixed at construction, so
//! routing is stable across any number of per-shard resizes.
//!
//! ## Batch semantics
//!
//! Batches run through a per-thread [`ShardedSession`], which holds one
//! [`Session`] per shard and routes each request to its shard's session.
//! [`ShardedSession::execute`] enters every shard once, prefetches each
//! request's bin from the index its shard entered, then runs through the
//! same in-order loop as a single [`DlhtMap`]:
//!
//! * requests execute strictly in submission order under every policy,
//!   [`BatchPolicy::Unordered`] included, as they do on a [`DlhtMap`]
//!   (§5.3.3);
//! * a failure under [`BatchPolicy::StopOnFailure`] skips every later
//!   request **across all shards**.
//!
//! ```
//! use dlht_core::{Batch, BatchPolicy, Response, ShardedTable};
//!
//! let table = ShardedTable::with_capacity(4, 10_000);
//! table.insert(7, 700).unwrap();
//!
//! let session = table.session(); // one per worker thread
//! let mut batch = Batch::with_capacity(2);
//! batch.push_get(7);
//! batch.push_put(7, 701);
//! session.execute(&mut batch, BatchPolicy::RunAll);
//! assert_eq!(batch.responses()[0], Response::Value(Some(700)));
//! assert_eq!(table.shard_stats().len(), 4);
//! ```

use crate::batch::{Batch, BatchPolicy};
use crate::config::DlhtConfig;
use crate::engine::Engine;
use crate::error::{DlhtError, InsertOutcome};
use crate::index::Index;
use crate::pipeline::Pipeline;
use crate::session::Session;
use crate::stats::TableStats;
use crate::table::{DlhtMap, EnterGuard};
use dlht_hash::mix64;
use std::cell::Cell;

/// Upper bound on the shard count (sanity cap, far above any useful fan-out).
pub const MAX_SHARDS: usize = 1 << 12;

/// Display name of a [`ShardedTable`] of `shards` shards, as its
/// [`crate::KvBackend::name`] reports it. Applies the table's own
/// power-of-two rounding, so a label computed from a requested shard count
/// matches the table actually built.
pub fn sharded_display_name(shards: usize) -> &'static str {
    match shards.max(1).next_power_of_two() {
        1 => "DLHT-1shard",
        2 => "DLHT-2shards",
        4 => "DLHT-4shards",
        8 => "DLHT-8shards",
        16 => "DLHT-16shards",
        _ => "DLHT-Sharded",
    }
}

/// A hashtable partitioned over independent [`DlhtMap`] shards (module docs
/// above for the design).
///
/// All operations take `&self` and are thread-safe. Shard count is rounded up
/// to a power of two and fixed for the table's lifetime.
pub struct ShardedTable {
    shards: Box<[DlhtMap]>,
    /// `log2(shards.len())`; routing takes this many *high* bits of the mixed
    /// hash, so 0 bits (one shard) routes everything to shard 0.
    shard_bits: u32,
    config: DlhtConfig,
}

impl ShardedTable {
    /// Create a table of `shards` shards (rounded up to a power of two,
    /// clamped to `1..=`[`MAX_SHARDS`]) whose **combined** initial bin budget
    /// is `config.num_bins` — each shard starts with `num_bins / shards` bins
    /// (at least 2) and all other knobs of `config`.
    pub fn with_config(shards: usize, config: DlhtConfig) -> Self {
        Self::build(shards, config, DlhtMap::with_config)
    }

    /// [`ShardedTable::with_config`] with each shard built by `shard` from
    /// its share of `config` (a record table's shards are
    /// [`DlhtMap::for_records`]).
    pub(crate) fn build(
        shards: usize,
        config: DlhtConfig,
        shard: impl Fn(DlhtConfig) -> DlhtMap,
    ) -> Self {
        let shards = shards.clamp(1, MAX_SHARDS).next_power_of_two();
        let shard_bits = shards.trailing_zeros();
        let per_shard = DlhtConfig {
            num_bins: (config.num_bins / shards).max(2),
            ..config.clone()
        };
        ShardedTable {
            shards: (0..shards).map(|_| shard(per_shard.clone())).collect(),
            shard_bits,
            config,
        }
    }

    /// Create a table of `shards` shards sized to hold about `keys` pairs in
    /// total before any shard's first resize.
    pub fn with_capacity(shards: usize, keys: usize) -> Self {
        Self::with_config(shards, DlhtConfig::for_capacity(keys))
    }

    /// Create a table of `shards` shards with `num_bins` total bins and
    /// default configuration.
    pub fn new(shards: usize, num_bins: usize) -> Self {
        Self::with_config(shards, DlhtConfig::new(num_bins))
    }

    /// The configuration the table was built from (shard count excluded; the
    /// per-shard bin budget is `num_bins / num_shards`).
    pub fn config(&self) -> &DlhtConfig {
        &self.config
    }

    /// Number of shards (a power of two).
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard `key` routes to. Stable for the table's lifetime — resizes
    /// never move a key across shards.
    #[inline]
    pub fn shard_of(&self, key: u64) -> usize {
        if self.shard_bits == 0 {
            return 0;
        }
        // High bits of a finalizing mix of the configured hash: independent
        // of the `hash % bins` index each shard computes from the same key.
        (mix64(self.config.hash.hash_u64(key)) >> (64 - self.shard_bits)) as usize
    }

    /// Borrow shard `i` (stats, targeted tests, advanced use).
    pub fn shard(&self, i: usize) -> &DlhtMap {
        &self.shards[i]
    }

    /// Iterate over the shards in routing order.
    pub fn shards(&self) -> impl Iterator<Item = &DlhtMap> {
        self.shards.iter()
    }

    #[inline]
    fn route(&self, key: u64) -> &DlhtMap {
        &self.shards[self.shard_of(key)]
    }

    /// Open a per-thread [`ShardedSession`] with one cached registry slot per
    /// shard — the entry point for batches (see module docs) and the bounded
    /// prefetch [`Pipeline`] over a sharded table.
    pub fn session(&self) -> ShardedSession<'_> {
        ShardedSession::new(self)
    }

    // ------------------------------------------------------------------
    // Single-request operations (route + delegate)
    // ------------------------------------------------------------------

    /// Look up `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u64> {
        self.route(key).get(key)
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.route(key).contains(key)
    }

    /// Insert `key -> value`; fails (without overwriting) if the key exists.
    #[inline]
    pub fn insert(&self, key: u64, value: u64) -> Result<InsertOutcome, DlhtError> {
        self.route(key).insert(key, value)
    }

    /// Update an existing key's value; returns the previous value.
    #[inline]
    pub fn put(&self, key: u64, value: u64) -> Option<u64> {
        self.route(key).put(key, value)
    }

    /// Delete `key`, returning its value. The slot is immediately reusable.
    #[inline]
    pub fn delete(&self, key: u64) -> Option<u64> {
        self.route(key).delete(key)
    }

    /// Insert if absent, otherwise update; returns the previous value on
    /// update and propagates insert errors (see [`DlhtMap::upsert`]).
    #[inline]
    pub fn upsert(&self, key: u64, value: u64) -> Result<Option<u64>, DlhtError> {
        self.route(key).upsert(key, value)
    }

    /// Shadow-insert (transactional lock, §3.2.2) on the key's shard.
    #[inline]
    pub fn insert_shadow(&self, key: u64, value: u64) -> Result<InsertOutcome, DlhtError> {
        self.route(key).insert_shadow(key, value)
    }

    /// Commit (`true`) or abort (`false`) a prior shadow insert.
    #[inline]
    pub fn commit_shadow(&self, key: u64, commit: bool) -> bool {
        self.route(key).commit_shadow(key, commit)
    }

    // ------------------------------------------------------------------
    // Whole-table scans and statistics (aggregate across shards)
    // ------------------------------------------------------------------

    /// Visit every live pair across all shards (weakly consistent snapshot).
    pub fn for_each(&self, mut f: impl FnMut(u64, u64)) {
        for shard in self.shards.iter() {
            shard.for_each(&mut f);
        }
    }

    /// Number of live keys across all shards (linear scan).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Whether no shard holds any key.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// Total resizes across all shards since creation. Shards resize
    /// independently — see [`ShardedTable::shard_stats`] for the breakdown.
    pub fn resizes(&self) -> u64 {
        self.shards.iter().map(|s| s.resizes()).sum()
    }

    /// Aggregated structural statistics: sums across shards, with
    /// `occupancy` recomputed from the summed slot counts and `generation`
    /// reporting the **highest** shard generation (shards resize
    /// independently, so generations diverge on skewed load).
    pub fn stats(&self) -> TableStats {
        self.shards.iter().map(DlhtMap::stats).sum()
    }

    /// [`TableStats::index_bytes`] summed across shards, without the slot
    /// walk a full [`ShardedTable::stats`] pays.
    pub(crate) fn index_bytes(&self) -> usize {
        self.shards.iter().map(DlhtMap::index_bytes).sum()
    }

    /// Per-shard statistics, in routing order — the view that makes
    /// independent shard resizes observable (a hot shard's `resizes` /
    /// `generation` advance while its siblings' stay put).
    pub fn shard_stats(&self) -> Vec<TableStats> {
        self.shards.iter().map(|s| s.stats()).collect()
    }

    /// Free retired index generations (and records) on every shard.
    pub fn collect_retired(&self) {
        for shard in self.shards.iter() {
            shard.collect_garbage();
        }
    }

    /// Retired-but-not-yet-freed index generations summed across shards.
    pub fn retired_indexes(&self) -> usize {
        self.shards.iter().map(|s| s.retired_indexes()).sum()
    }

    /// Retired-but-not-yet-freed records summed across shards.
    pub(crate) fn pending_records(&self) -> usize {
        self.shards.iter().map(DlhtMap::pending_records).sum()
    }

    /// Run [`DlhtMap::check_invariants`] on every shard, labelling failures
    /// with the shard index. Quiescent-point use only, like the per-shard
    /// sweep.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, shard) in self.shards.iter().enumerate() {
            shard
                .check_invariants()
                .map_err(|e| format!("shard {i}: {e}"))?;
        }
        Ok(())
    }
}

/// A per-thread handle over a [`ShardedTable`] with one pre-claimed registry
/// slot **per shard**, so batch execution pays each shard's enter/leave
/// announcement through a cached slot instead of a thread-local lookup.
///
/// Like [`Session`], a `ShardedSession` is deliberately not `Send`/`Sync`:
/// the cached slots belong to the creating thread. It is the [`Engine`] a
/// [`Pipeline`] or a wire service drives over a sharded table.
pub struct ShardedSession<'t> {
    table: &'t ShardedTable,
    /// One slot per shard, in routing order.
    shards: Box<[ShardSlot<'t>]>,
}

/// One shard of a [`ShardedSession`]: the shard's session and the entry a
/// running batch holds on it. Kept in one allocation with its siblings, so
/// a session executes batches without touching the allocator.
struct ShardSlot<'t> {
    session: Session<'t>,
    /// The announcement a running batch holds on this shard; `None` between
    /// batches.
    guard: Cell<Option<EnterGuard<'t>>>,
    /// The index `guard` entered: where this shard's requests start.
    start: Cell<*mut Index>,
}

impl<'t> ShardedSession<'t> {
    pub(crate) fn new(table: &'t ShardedTable) -> Self {
        let shards = table.shards.iter().map(|shard| ShardSlot {
            session: Session::new(shard),
            guard: Cell::new(None),
            start: Cell::new(std::ptr::null_mut()),
        });
        ShardedSession {
            table,
            shards: shards.collect(),
        }
    }

    /// The table this session operates on.
    pub fn table(&self) -> &'t ShardedTable {
        self.table
    }

    /// The session of the shard `key` routes to.
    #[inline]
    pub(crate) fn session_for(&self, key: u64) -> &Session<'t> {
        &self.shards[self.table.shard_of(key)].session
    }

    /// Look up `key` through the shard-local cached slot.
    pub fn get(&self, key: u64) -> Option<u64> {
        self.session_for(key).get(key)
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: u64) -> bool {
        self.session_for(key).contains(key)
    }

    /// Insert `key -> value`; fails (without overwriting) if the key exists.
    pub fn insert(&self, key: u64, value: u64) -> Result<InsertOutcome, DlhtError> {
        self.session_for(key).insert(key, value)
    }

    /// Update an existing key's value; returns the previous value.
    pub fn put(&self, key: u64, value: u64) -> Option<u64> {
        self.session_for(key).put(key, value)
    }

    /// Delete `key`, returning its value if it was present.
    pub fn delete(&self, key: u64) -> Option<u64> {
        self.session_for(key).delete(key)
    }

    /// Issue a software prefetch for the bin `key` hashes to in its shard.
    pub fn prefetch(&self, key: u64) {
        self.session_for(key).prefetch(key)
    }

    /// Execute `batch` in order, reusing the batch's response storage. Every
    /// shard is entered once for the whole batch, every request's bin is
    /// prefetched from the index its shard entered, then the requests run as
    /// in [`ShardedSession::execute_prefetched`].
    pub fn execute(&self, batch: &mut Batch, policy: BatchPolicy) {
        self.entered(|| {
            for req in batch.requests() {
                self.session_for(req.key()).prefetch_entered(req.key());
            }
            self.run_entered(batch, policy);
        });
    }

    /// Execute a batch whose requests were already prefetched (the
    /// pipeline's flush path) strictly in submission order. Every shard is
    /// entered once through its session's cached slot, and each request runs
    /// on the index its shard entered.
    pub fn execute_prefetched(&self, batch: &mut Batch, policy: BatchPolicy) {
        self.entered(|| self.run_entered(batch, policy));
    }

    /// Run `f` with every shard entered through its session, each entry held
    /// in its [`ShardSlot`] until `f` returns. Not re-entrant: an inner call
    /// would drop the outer call's entries.
    pub(crate) fn entered<T>(&self, f: impl FnOnce() -> T) -> T {
        for slot in self.shards.iter() {
            let guard = slot.session.enter();
            slot.start.set(guard.index_ptr());
            slot.guard.set(Some(guard));
        }
        let r = f();
        for slot in self.shards.iter() {
            drop(slot.guard.take());
        }
        r
    }

    /// The in-order loop, each request on the index its shard entered. Only
    /// called inside [`ShardedSession::entered`].
    fn run_entered(&self, batch: &mut Batch, policy: BatchPolicy) {
        batch.run_in_order(policy, |req| {
            let shard = self.table.shard_of(req.key());
            self.table.shards[shard].exec_guarded(self.shards[shard].start.get(), req)
        });
    }

    /// Open a bounded prefetch [`Pipeline`] of `depth` in-flight requests
    /// submitting through this session's shard-local slots.
    pub fn pipeline(&self, depth: usize) -> Pipeline<&Self> {
        Pipeline::new(self, depth)
    }
}

impl Engine for ShardedSession<'_> {
    fn prefetch(&self, key: u64) {
        ShardedSession::prefetch(self, key);
    }
    fn execute(&self, batch: &mut Batch, policy: BatchPolicy) {
        ShardedSession::execute(self, batch, policy);
    }
    fn execute_prefetched(&self, batch: &mut Batch, policy: BatchPolicy) {
        ShardedSession::execute_prefetched(self, batch, policy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{Request, Response};
    use dlht_hash::HashKind;

    fn small(shards: usize) -> ShardedTable {
        ShardedTable::with_config(
            shards,
            DlhtConfig::new(64)
                .with_hash(HashKind::WyHash)
                .with_chunk_bins(4),
        )
    }

    #[test]
    fn a_batch_enters_each_table_once() {
        use crate::registry::announce_count::during;
        use crate::KvBackend;
        let mut batch: Batch = (0..32u64).map(Request::Get).collect();
        // Fresh sessions included: a session's first prefetch must not enter.
        // The boxed engine of the unified API must keep the sessions'
        // enter-once `execute`, not fall back to prefetch-then-execute.
        let map = DlhtMap::with_capacity(64);
        let session = map.session();
        assert_eq!(
            during(|| session.execute(&mut batch, BatchPolicy::RunAll)),
            1
        );
        let engine = KvBackend::engine(&map);
        assert_eq!(
            during(|| engine.execute(&mut batch, BatchPolicy::RunAll)),
            1
        );
        for shards in [1, 4] {
            let t = small(shards);
            let n = shards as u64;
            let session = t.session();
            assert_eq!(
                during(|| session.execute(&mut batch, BatchPolicy::RunAll)),
                n
            );
            assert_eq!(
                during(|| session.execute_prefetched(&mut batch, BatchPolicy::RunAll)),
                n
            );
            let engine = KvBackend::engine(&t);
            assert_eq!(
                during(|| engine.execute(&mut batch, BatchPolicy::RunAll)),
                n
            );
        }
    }

    #[test]
    fn shard_count_rounds_up_to_power_of_two() {
        assert_eq!(ShardedTable::with_capacity(1, 64).num_shards(), 1);
        assert_eq!(ShardedTable::with_capacity(3, 64).num_shards(), 4);
        assert_eq!(ShardedTable::with_capacity(8, 64).num_shards(), 8);
        assert_eq!(ShardedTable::with_capacity(0, 64).num_shards(), 1);
    }

    #[test]
    fn routing_covers_every_shard() {
        let t = small(8);
        let mut seen = [false; 8];
        for k in 0..1_000u64 {
            let s = t.shard_of(k);
            assert!(s < 8);
            seen[s] = true;
        }
        assert!(seen.iter().all(|&s| s), "1000 keys must touch all 8 shards");
    }

    #[test]
    fn basic_ops_roundtrip_across_shards() {
        let t = small(4);
        for k in 0..200u64 {
            assert!(t.insert(k, k * 3).unwrap().inserted());
        }
        assert_eq!(t.len(), 200);
        for k in 0..200u64 {
            assert_eq!(t.get(k), Some(k * 3));
            assert_eq!(t.put(k, k), Some(k * 3));
        }
        assert_eq!(t.upsert(1_000, 1).unwrap(), None);
        assert_eq!(t.upsert(1_000, 2).unwrap(), Some(1));
        for k in 0..200u64 {
            assert_eq!(t.delete(k), Some(k));
        }
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert_eq!(t.delete(1_000), Some(2));
        assert!(t.is_empty());
    }

    #[test]
    fn reserved_keys_are_rejected_on_every_shard_route() {
        let t = small(4);
        assert_eq!(t.insert(u64::MAX, 1), Err(DlhtError::ReservedKey));
        assert_eq!(t.insert(u64::MAX - 1, 1), Err(DlhtError::ReservedKey));
        assert_eq!(t.upsert(u64::MAX, 1), Err(DlhtError::ReservedKey));
        assert_eq!(t.get(u64::MAX), None);
        assert_eq!(t.delete(u64::MAX), None);
        assert_eq!(t.put(u64::MAX, 1), None);
    }

    #[test]
    fn shadow_inserts_route_to_the_owning_shard() {
        let t = small(4);
        assert!(t.insert_shadow(5, 50).unwrap().inserted());
        assert_eq!(t.get(5), None);
        assert!(!t.insert(5, 51).unwrap().inserted());
        assert!(t.commit_shadow(5, true));
        assert_eq!(t.get(5), Some(50));
        assert!(t.insert_shadow(6, 60).unwrap().inserted());
        assert!(t.commit_shadow(6, false));
        assert_eq!(t.get(6), None);
    }

    #[test]
    fn for_each_and_stats_aggregate() {
        let t = small(4);
        for k in 0..300u64 {
            let _ = t.insert(k, k + 1).unwrap();
        }
        let mut seen = std::collections::HashMap::new();
        t.for_each(|k, v| {
            seen.insert(k, v);
        });
        assert_eq!(seen.len(), 300);
        let agg = t.stats();
        assert_eq!(agg.occupied_slots, 300);
        let per: usize = t.shard_stats().iter().map(|s| s.occupied_slots).sum();
        assert_eq!(per, 300);
        assert_eq!(
            agg.bins,
            t.shard_stats().iter().map(|s| s.bins).sum::<usize>()
        );
        assert!(agg.occupancy > 0.0 && agg.occupancy <= 1.0);
    }

    #[test]
    fn sharded_session_and_pipeline_roundtrip() {
        let t = small(4);
        let session = t.session();
        for k in 0..64u64 {
            let _ = session.insert(k, k + 7).unwrap();
        }
        let mut batch = Batch::with_capacity(8);
        for k in 0..8u64 {
            batch.push_get(k);
        }
        session.execute(&mut batch, BatchPolicy::RunAll);
        for (k, r) in batch.responses().iter().enumerate() {
            assert_eq!(*r, Response::Value(Some(k as u64 + 7)));
        }

        let mut pipe = session.pipeline(8);
        let mut got = Vec::new();
        for k in 0..64u64 {
            if let Some(r) = pipe.submit(Request::Get(k)) {
                got.push(r);
            }
        }
        pipe.drain_into(&mut got);
        assert_eq!(got.len(), 64);
        for (k, r) in got.iter().enumerate() {
            assert_eq!(*r, Response::Value(Some(k as u64 + 7)));
        }
    }

    #[test]
    fn drop_frees_all_shards_after_resizes() {
        let t = ShardedTable::with_config(
            2,
            DlhtConfig::new(4)
                .with_hash(HashKind::WyHash)
                .with_chunk_bins(2),
        );
        for k in 0..3_000u64 {
            let _ = t.insert(k, k).unwrap();
        }
        assert!(t.resizes() > 0);
        t.collect_retired();
        assert_eq!(t.retired_indexes(), 0);
        t.check_invariants()
            .expect("structural sweep after resizes");
        drop(t); // Drop walks every shard's chain
    }
}
