//! Cache persona storage: per-entry TTL, expiry reaping, and eviction under
//! a memory budget, layered over the DLHT index.
//!
//! [`CacheMap`] is the storage engine behind the memcache-compatible text
//! protocol in `dlht-net`. Its entries are the same out-of-line records as
//! [`crate::DlhtAllocMap`]'s (see [`crate::record`] for the layout, key words
//! and reclamation), each carrying an [`EntryMeta`] block with the fields a
//! cache needs: `flags`, `deadline`, `cas` and `last_access`.
//!
//! * **TTL** — `deadline` is an absolute cache-clock second (`0` = never
//!   expires). Reads check it lazily, so an expired entry is *never served*
//!   even before the reaper removes it; `touch` publishes a copy of the entry
//!   with the new deadline.
//! * **Reaping** — [`CacheSession::sweep_expired`] scans the index for dead
//!   deadlines and retires those entries into their shards, so a background
//!   reaper drains expiry storms in bulk without stopping readers.
//! * **Eviction** — with a non-zero memory budget, [`CacheSession::maybe_evict`]
//!   keeps `index_bytes + value bytes` under the watermark by removing the
//!   least-recently-used entries ([`EvictionPolicy::Lru`], via the atomic
//!   `last_access` stamp) or the oldest-inserted ([`EvictionPolicy::Fifo`],
//!   via the monotone `cas` sequence — the comparison baseline).
//!
//! ## Concurrency
//!
//! Nothing takes a lock. Each read happens inside one enter on the key's
//! shard, which keeps the entry alive, exactly like `DlhtAllocMap`. A
//! published entry is immutable apart from its `last_access` stamp, so
//! every mutation (store, delete, touch, incr/decr, reap, evict) is "read
//! the entry pointer, act only if the key still holds it": a conditional
//! Put or Delete on the pointer in the index, inside the same enter as the
//! read. When a racing writer got there first, the
//! mutation re-reads the key and decides again, so read-modify-write ops
//! lose no update and the reaper never unlinks an entry that a racing
//! `touch` or `set` replaced. An unlinked entry retires into its shard and
//! is freed once no reader can reach it; [`CacheSession::quiesce`] frees
//! what is freeable at once (the server's reaper calls it on every pass).

use crate::config::DlhtConfig;
use crate::error::{DlhtError, InsertOutcome};
use crate::record::{key_word, Records};
use crate::session::Session;
use crate::sharded::{ShardedSession, ShardedTable};
use crate::stats::TableStats;
use crate::table::{DlhtMap, EnterGuard};
use dlht_alloc::AllocatorKind;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Seed for the key-fingerprint hash (distinct from the index's bin hash so
/// bin placement and fingerprints stay independent).
const CACHE_HASH_SEED: u64 = 0xC_AC4E_5EED;

/// Memcache's relative/absolute expiry pivot: an exptime of more than 30
/// days is an absolute unix timestamp, anything smaller is relative seconds.
pub const MAX_RELATIVE_EXPIRY: i64 = 60 * 60 * 24 * 30;

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

/// The cache's second-resolution clock. Implementations must be monotone.
///
/// Cache time starts at **1**, because deadline `0` is the "never expires"
/// sentinel packed into every entry.
pub trait CacheClock: Send + Sync + 'static {
    /// Seconds on the cache clock (monotone, starts at 1).
    fn now(&self) -> u32;
}

/// Wall-clock seconds since the cache was created (plus one), measured with
/// a monotonic timer so host clock jumps cannot un-expire entries.
pub struct MonotonicClock {
    start: Instant,
}

impl MonotonicClock {
    /// A clock starting at second 1.
    pub fn new() -> Self {
        MonotonicClock {
            start: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl CacheClock for MonotonicClock {
    fn now(&self) -> u32 {
        let secs = self.start.elapsed().as_secs();
        secs.min(u32::MAX as u64 - 1) as u32 + 1
    }
}

/// A hand-driven clock for deterministic TTL tests.
pub struct ManualClock {
    secs: AtomicU32,
}

impl ManualClock {
    /// Create at `secs` (must be ≥ 1; 0 is the no-deadline sentinel).
    pub fn new(secs: u32) -> Self {
        ManualClock {
            secs: AtomicU32::new(secs.max(1)),
        }
    }

    /// Jump to an absolute second (ignored if it would move backwards).
    pub fn set(&self, secs: u32) {
        self.secs.fetch_max(secs.max(1), Ordering::Release);
    }

    /// Advance by `delta` seconds.
    pub fn advance(&self, delta: u32) {
        self.secs.fetch_add(delta, Ordering::Release);
    }
}

impl CacheClock for ManualClock {
    fn now(&self) -> u32 {
        self.secs.load(Ordering::Acquire)
    }
}

// ---------------------------------------------------------------------------
// Entry metadata
// ---------------------------------------------------------------------------

/// Per-entry metadata, written once into every record (see
/// [`crate::record`]) and never changed after the entry is published — a
/// new deadline or value means a new record — except `last_access`, the
/// atomic LRU stamp that hits update in place.
#[repr(C)]
struct EntryMeta {
    flags: u32,
    /// Absolute cache-clock second after which the entry is dead; 0 = never.
    deadline: u32,
    /// Monotone store sequence — memcache `cas` id, doubles as FIFO age.
    cas: u64,
    /// Stamp from the map's access sequence at the last hit (LRU eviction
    /// order — a sequence, not seconds, so recency resolves below one
    /// second; approximate again only after 2³² accesses wrap it).
    last_access: AtomicU32,
}

impl EntryMeta {
    fn expired_at(&self, now: u32) -> bool {
        self.deadline != 0 && self.deadline <= now
    }
}

// ---------------------------------------------------------------------------
// Public configuration and result types
// ---------------------------------------------------------------------------

/// Which entries go first when the memory budget forces eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Least-recently-used first (via each entry's atomic `last_access`
    /// stamp). The production default.
    Lru,
    /// Oldest-inserted first, ignoring access recency — the baseline the
    /// LRU hit-ratio is measured against.
    Fifo,
}

/// Construction parameters for [`CacheMap`].
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Index shards (hot shards resize independently).
    pub shards: usize,
    /// Index capacity in keys (the index still resizes beyond it).
    pub capacity: usize,
    /// Watermark in bytes over `index_bytes + value bytes`; 0 = unlimited.
    pub memory_budget: u64,
    /// Eviction order once the budget is exceeded.
    pub eviction: EvictionPolicy,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            shards: 4,
            capacity: 64 * 1024,
            memory_budget: 0,
            eviction: EvictionPolicy::Lru,
        }
    }
}

/// Result of a conditional store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOutcome {
    /// The value was stored.
    Stored,
    /// The store condition failed (`add` on a live key, `replace` on a
    /// missing one). Nothing changed.
    NotStored,
}

/// Why `incr`/`decr` failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterError {
    /// No live entry under the key.
    NotFound,
    /// The stored value is not an unsigned decimal integer.
    NotNumeric,
}

/// A borrowed view of a live entry inside [`CacheSession::get_with`].
pub struct CacheView<'a> {
    /// The value bytes (valid for the closure only).
    pub value: &'a [u8],
    /// The client-opaque flags stored with the value.
    pub flags: u32,
    /// The entry's store sequence number (memcache `cas`).
    pub cas: u64,
}

/// Point-in-time cache counters, surfaced through the memcache `stats`
/// command, the admin plane, and the bench harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Live entries.
    pub items: u64,
    /// Resident record bytes (headers + keys + values) linked in the index.
    pub value_bytes: u64,
    /// Index structure bytes (bins + link buckets).
    pub index_bytes: u64,
    /// Configured watermark (0 = unlimited).
    pub budget: u64,
    /// Successful gets.
    pub hits: u64,
    /// Gets that found nothing (including lazily-expired entries).
    pub misses: u64,
    /// Stores that landed (set/add/replace/incr/decr rewrites).
    pub sets: u64,
    /// Entries removed because their deadline passed.
    pub expired: u64,
    /// Entries removed by the memory-budget watermark.
    pub evicted: u64,
    /// `flush_all` invocations.
    pub flushes: u64,
    /// Bytes of retired records not yet freed.
    pub pending_reclaim_bytes: u64,
    /// Seconds on the cache clock since creation.
    pub uptime_secs: u32,
}

impl CacheStats {
    /// The number the memory budget gates: index + resident record bytes.
    pub fn total_bytes(&self) -> u64 {
        self.index_bytes + self.value_bytes
    }

    /// Hits over lookups, 0.0 when nothing was looked up.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// What one reap pass removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReapOutcome {
    /// Entries whose deadline had passed.
    pub expired: u64,
    /// Entries evicted to get back under the memory budget.
    pub evicted: u64,
}

// ---------------------------------------------------------------------------
// CacheMap
// ---------------------------------------------------------------------------

/// The cache storage engine: a sharded DLHT index whose value words point at
/// TTL-carrying entry records. See the module docs for the design.
pub struct CacheMap {
    table: ShardedTable,
    records: Arc<Records<EntryMeta>>,
    clock: Arc<dyn CacheClock>,
    /// Unix seconds at cache-clock second 1 (for absolute memcache expiry).
    unix_at_start: u64,
    budget: u64,
    eviction: EvictionPolicy,
    /// Monotone store sequence (cas ids; also the FIFO eviction order).
    cas_seq: AtomicU64,
    /// Monotone access sequence feeding every entry's `last_access` stamp.
    access_seq: AtomicU32,
    /// Last index_bytes observed by an enforcement pass, so the store fast
    /// path can gate on `value_bytes` alone without recomputing table stats.
    index_bytes_cache: AtomicU64,
    items: AtomicU64,
    value_bytes: AtomicU64,
    pending_reclaim_bytes: Arc<AtomicU64>,
    hits: AtomicU64,
    misses: AtomicU64,
    sets: AtomicU64,
    expired: AtomicU64,
    evicted: AtomicU64,
    flushes: AtomicU64,
}

impl CacheMap {
    /// Create a cache with the default monotonic clock.
    pub fn new(config: CacheConfig) -> Self {
        Self::with_clock(config, Arc::new(MonotonicClock::new()))
    }

    /// Create a cache driving TTL decisions from an explicit clock
    /// (deterministic tests use [`ManualClock`]).
    pub fn with_clock(config: CacheConfig, clock: Arc<dyn CacheClock>) -> Self {
        let records = Arc::new(Records::new(AllocatorKind::Pool.build(), None));
        let pending_reclaim_bytes = Arc::new(AtomicU64::new(0));
        let free = {
            let (records, pending) = (Arc::clone(&records), Arc::clone(&pending_reclaim_bytes));
            // SAFETY: each shard calls its free hook once per entry it
            // retired, after no reader can reach the entry.
            Arc::new(move |ptr: *mut u8| unsafe {
                let size = records.size(ptr) as u64;
                pending.fetch_sub(size, Ordering::Relaxed);
                records.free(ptr)
            })
        };
        let sizing = DlhtConfig::for_capacity(config.capacity.max(64));
        let table = ShardedTable::build(config.shards.max(1), sizing, |c| {
            DlhtMap::for_records(c, free.clone())
        });
        let index_bytes = table.index_bytes() as u64;
        let unix_at_start = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        CacheMap {
            table,
            records,
            clock,
            unix_at_start,
            budget: config.memory_budget,
            eviction: config.eviction,
            cas_seq: AtomicU64::new(0),
            access_seq: AtomicU32::new(1),
            index_bytes_cache: AtomicU64::new(index_bytes),
            items: AtomicU64::new(0),
            value_bytes: AtomicU64::new(0),
            pending_reclaim_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            sets: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
        }
    }

    /// Convenience constructor sized for `keys` entries, no budget.
    pub fn with_capacity(keys: usize) -> Self {
        Self::new(CacheConfig {
            capacity: keys,
            ..CacheConfig::default()
        })
    }

    /// Open a per-thread session (cheap: it caches the thread's slots).
    pub fn session(&self) -> CacheSession<'_> {
        CacheSession {
            map: self,
            session: self.table.session(),
        }
    }

    /// Seconds on the cache clock.
    pub fn now(&self) -> u32 {
        self.clock.now()
    }

    /// Translate a memcache `exptime` into an absolute cache-clock deadline:
    /// `0` = never, negative = already expired, ≤ 30 days = relative
    /// seconds, larger = absolute unix timestamp.
    pub fn deadline_for(&self, exptime: i64) -> u32 {
        let now = self.clock.now();
        if exptime == 0 {
            return 0;
        }
        if exptime < 0 {
            return 1; // now() is always ≥ 1, so 1 is "already dead"
        }
        let relative = if exptime <= MAX_RELATIVE_EXPIRY {
            exptime as u64
        } else {
            let unix_now = self.unix_at_start + (now as u64 - 1);
            match (exptime as u64).checked_sub(unix_now) {
                Some(rel) if rel > 0 => rel,
                _ => return 1,
            }
        };
        u64::from(now).saturating_add(relative).min(u32::MAX as u64) as u32
    }

    /// Live entries (O(1) gauge, not a scan).
    pub fn len(&self) -> u64 {
        self.items.load(Ordering::Relaxed)
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured memory watermark (0 = unlimited).
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Structural statistics of the underlying index.
    pub fn table_stats(&self) -> TableStats {
        self.table.stats()
    }

    /// Retired-but-unfreed index generations of the underlying index.
    pub fn retired_indexes(&self) -> usize {
        self.table.retired_indexes()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            items: self.items.load(Ordering::Relaxed),
            value_bytes: self.value_bytes.load(Ordering::Relaxed),
            index_bytes: self.table.index_bytes() as u64,
            budget: self.budget,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            sets: self.sets.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            pending_reclaim_bytes: self.pending_reclaim_bytes.load(Ordering::Relaxed),
            uptime_secs: self.clock.now().saturating_sub(1),
        }
    }

    // ---- internals --------------------------------------------------------

    /// Allocate and fill an entry record; returns its pointer.
    fn write_entry(
        &self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        deadline: u32,
        cas: u64,
    ) -> *mut u8 {
        let meta = EntryMeta {
            flags,
            deadline,
            cas,
            last_access: AtomicU32::new(self.access_stamp()),
        };
        let size = self.records.size_for(key.len(), value.len());
        self.value_bytes.fetch_add(size as u64, Ordering::Relaxed);
        self.records.write(key, value, meta)
    }

    /// Undo a `write_entry` that never got linked into the index.
    fn discard_entry(&self, ptr: *mut u8) {
        // SAFETY: the entry was just written by `write_entry` and is not
        // linked anywhere, so this thread holds the only reference.
        unsafe {
            let size = self.records.size(ptr);
            self.value_bytes.fetch_sub(size as u64, Ordering::Relaxed);
            self.records.free(ptr);
        }
    }

    /// Retire an entry that `shard` just unlinked from the index: move its
    /// bytes from the resident gauge to the pending-reclaim gauge and hand
    /// it to the shard, which frees it once no reader can reach it.
    fn retire_entry(&self, shard: &Session<'_>, word_value: u64) {
        let ptr = word_value as *mut u8;
        // SAFETY: the caller's own Put or Delete unlinked the entry and it
        // is not retired yet, so nothing can free it before the line below.
        let size = unsafe { self.records.size(ptr) } as u64;
        self.value_bytes.fetch_sub(size, Ordering::Relaxed);
        self.pending_reclaim_bytes
            .fetch_add(size, Ordering::Relaxed);
        shard.retire(ptr);
    }

    /// Metadata of a published entry.
    ///
    /// # Safety
    /// `word_value` must have been read from this map's index inside an
    /// enter on its shard that is still held, or be unlinked by the caller
    /// and not yet retired; the reference must not outlive that.
    unsafe fn meta<'r>(&self, word_value: u64) -> &'r EntryMeta {
        // SAFETY: caller contract.
        unsafe { self.records.meta(word_value as *const u8) }
    }

    /// Next LRU recency stamp.
    fn access_stamp(&self) -> u32 {
        self.access_seq.fetch_add(1, Ordering::Relaxed)
    }
}

impl Drop for CacheMap {
    fn drop(&mut self) {
        self.table.for_each(|_, word| {
            // SAFETY: `&mut self` means no session is open, so no reader can
            // reach a record; the index links each record once.
            unsafe { self.records.free(word as *mut u8) }
        });
    }
}

// ---------------------------------------------------------------------------
// CacheSession
// ---------------------------------------------------------------------------

/// How a slot looked when a mutation examined it.
enum SlotState {
    Empty,
    /// A live entry with the same key.
    Live(u64),
    /// Same key, deadline passed — logically absent, physically present.
    Expired(u64),
    /// Fingerprint collision: a different key owns this word. Treated as
    /// absent for conditionals; unconditional stores overwrite it
    /// (last-writer-wins, a ~2⁻⁶⁴ event per pair).
    Foreign(u64),
}

/// Per-thread session over a [`CacheMap`]: a [`ShardedSession`] on its
/// index, and like one not `Send`. A session between calls holds nothing
/// back.
pub struct CacheSession<'a> {
    map: &'a CacheMap,
    session: ShardedSession<'a>,
}

impl<'a> CacheSession<'a> {
    /// The cache this session operates on.
    pub fn map(&self) -> &'a CacheMap {
        self.map
    }

    /// The session of the shard `word` routes to.
    fn shard(&self, word: u64) -> &Session<'a> {
        self.session.session_for(word)
    }

    /// Classify what currently occupies `word`, read inside `entered`.
    fn slot_state(
        &self,
        entered: &EnterGuard<'_>,
        word: u64,
        exact: bool,
        key: &[u8],
        now: u32,
    ) -> SlotState {
        match entered.get(word) {
            None => SlotState::Empty,
            Some(cur) => {
                // SAFETY: `cur` was read inside `entered`, which keeps it
                // alive.
                let (holds, meta) = unsafe {
                    (
                        self.map.records.holds(cur as *const u8, key, exact),
                        self.map.meta(cur),
                    )
                };
                if !holds {
                    SlotState::Foreign(cur)
                } else if meta.expired_at(now) {
                    SlotState::Expired(cur)
                } else {
                    SlotState::Live(cur)
                }
            }
        }
    }

    /// Unlink `word` if it still holds `cur`, and retire the record. `false`
    /// when a racing write replaced or removed it first. The caller holds
    /// an enter on the shard from the read of `cur` on, so `cur` cannot have
    /// been freed and reused meanwhile.
    fn unlink(&self, word: u64, cur: u64) -> bool {
        let shard = self.shard(word);
        if shard.enter().delete_if(word, cur).is_err() {
            return false;
        }
        self.map.items.fetch_sub(1, Ordering::Relaxed);
        self.map.retire_entry(shard, cur);
        true
    }

    /// Unconditional store (memcache `set`).
    pub fn set(
        &mut self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        exptime: i64,
    ) -> Result<StoreOutcome, DlhtError> {
        self.store_entry(key, value, flags, exptime, None)
    }

    /// Store only if the key is absent (memcache `add`).
    pub fn add(
        &mut self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        exptime: i64,
    ) -> Result<StoreOutcome, DlhtError> {
        self.store_entry(key, value, flags, exptime, Some(false))
    }

    /// Store only if the key is live (memcache `replace`).
    pub fn replace(
        &mut self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        exptime: i64,
    ) -> Result<StoreOutcome, DlhtError> {
        self.store_entry(key, value, flags, exptime, Some(true))
    }

    /// `require_live`: `None` = unconditional, `Some(false)` = only when
    /// absent, `Some(true)` = only when live.
    fn store_entry(
        &mut self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        exptime: i64,
        require_live: Option<bool>,
    ) -> Result<StoreOutcome, DlhtError> {
        self.map.records.check(key, value)?;
        let deadline = self.map.deadline_for(exptime);
        let now = self.map.clock.now();
        let (word, exact) = key_word(key, CACHE_HASH_SEED, true);
        let shard = self.shard(word);
        let entered = shard.enter();
        // Written on first need and reused across retries.
        let mut entry: Option<*mut u8> = None;
        let stored = loop {
            let replaces = match (
                require_live,
                self.slot_state(&entered, word, exact, key, now),
            ) {
                // An expired entry is logically absent: remove it here so
                // `add` can take the slot and the accounting reflects reality.
                (_, SlotState::Expired(cur)) => {
                    if self.unlink(word, cur) {
                        self.map.expired.fetch_add(1, Ordering::Relaxed);
                    }
                    continue;
                }
                (Some(true), SlotState::Live(cur)) => Some(cur),
                (Some(true), _) | (Some(false), SlotState::Live(_)) => {
                    break StoreOutcome::NotStored;
                }
                // A colliding foreign key is overwritten even by `add`:
                // the word can only hold one record.
                (_, SlotState::Live(cur) | SlotState::Foreign(cur)) => Some(cur),
                (_, SlotState::Empty) => None,
            };
            let new = *entry.get_or_insert_with(|| {
                let cas = self.map.cas_seq.fetch_add(1, Ordering::Relaxed) + 1;
                self.map.write_entry(key, value, flags, deadline, cas)
            });
            match replaces {
                Some(cur) => {
                    if entered.put_if(word, cur, new as u64).is_ok() {
                        self.map.retire_entry(shard, cur);
                        break StoreOutcome::Stored;
                    }
                }
                None => match shard.insert(word, new as u64) {
                    Ok(InsertOutcome::Inserted) => {
                        self.map.items.fetch_add(1, Ordering::Relaxed);
                        break StoreOutcome::Stored;
                    }
                    // A racing store linked the word first: look again.
                    Ok(InsertOutcome::AlreadyExists(_)) => {}
                    Err(e) => {
                        self.map.discard_entry(new);
                        return Err(e);
                    }
                },
            }
        };
        drop(entered);
        if stored == StoreOutcome::Stored {
            self.map.sets.fetch_add(1, Ordering::Relaxed);
        } else if let Some(unlinked) = entry {
            self.map.discard_entry(unlinked);
        }
        self.maybe_evict();
        Ok(stored)
    }

    /// Lock-free lookup: invoke `f` on the live entry, or return `None` on
    /// a miss. Entries past their deadline are **never** surfaced, even
    /// before the reaper removes them. The lookup, the key check and `f` run
    /// inside one enter on the key's shard.
    // HOT: the cache read path — no locks, one index Get, one record read.
    pub fn get_with<R>(&mut self, key: &[u8], f: impl FnOnce(CacheView<'_>) -> R) -> Option<R> {
        let now = self.map.clock.now();
        let (word, exact) = key_word(key, CACHE_HASH_SEED, true);
        let miss = |map: &CacheMap| {
            map.misses.fetch_add(1, Ordering::Relaxed);
        };
        let entered = self.shard(word).enter();
        let Some(cur) = entered.get(word) else {
            miss(self.map);
            return None;
        };
        let ptr = cur as *const u8;
        // SAFETY: `cur` was read inside `entered`, which keeps it alive
        // until this function returns.
        let meta = unsafe { self.map.meta(cur) };
        // SAFETY: as above.
        if !unsafe { self.map.records.holds(ptr, key, exact) } || meta.expired_at(now) {
            miss(self.map);
            return None;
        }
        meta.last_access
            .store(self.map.access_stamp(), Ordering::Relaxed);
        self.map.hits.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above — the value slice lives inside the same record.
        let value = unsafe { self.map.records.value(ptr) };
        Some(f(CacheView {
            value,
            flags: meta.flags,
            cas: meta.cas,
        }))
    }

    /// Copying lookup.
    pub fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        self.get_with(key, |view| view.value.to_vec())
    }

    /// Remove `key`. Returns `true` only if a live entry was removed
    /// (memcache `DELETED` vs `NOT_FOUND`); an expired entry is removed
    /// physically but reported as absent.
    pub fn delete(&mut self, key: &[u8]) -> bool {
        let now = self.map.clock.now();
        let (word, exact) = key_word(key, CACHE_HASH_SEED, true);
        let entered = self.shard(word).enter();
        loop {
            match self.slot_state(&entered, word, exact, key, now) {
                SlotState::Empty | SlotState::Foreign(_) => return false,
                SlotState::Expired(cur) => {
                    if self.unlink(word, cur) {
                        self.map.expired.fetch_add(1, Ordering::Relaxed);
                        return false;
                    }
                }
                SlotState::Live(cur) => {
                    if self.unlink(word, cur) {
                        return true;
                    }
                }
            }
        }
    }

    /// Give a live entry a new deadline (memcache `touch`): publishes a copy
    /// with the same value, flags and cas. Returns `false` when the key is
    /// absent or already expired.
    pub fn touch(&mut self, key: &[u8], exptime: i64) -> bool {
        let deadline = self.map.deadline_for(exptime);
        self.rewrite(key, Some(deadline), |_| Ok(None)).is_ok()
    }

    /// Add `delta` to a numeric value (wrapping, per memcache).
    pub fn incr(&mut self, key: &[u8], delta: u64) -> Result<u64, CounterError> {
        self.counter_op(key, delta, true)
    }

    /// Subtract `delta` from a numeric value (floored at 0, per memcache).
    pub fn decr(&mut self, key: &[u8], delta: u64) -> Result<u64, CounterError> {
        self.counter_op(key, delta, false)
    }

    fn counter_op(&mut self, key: &[u8], delta: u64, up: bool) -> Result<u64, CounterError> {
        let next = self.rewrite(key, None, |value| {
            let current = parse_decimal_u64(value).ok_or(CounterError::NotNumeric)?;
            Ok(Some(if up {
                current.wrapping_add(delta)
            } else {
                current.saturating_sub(delta)
            }))
        })?;
        self.map.sets.fetch_add(1, Ordering::Relaxed);
        Ok(next.unwrap_or_default())
    }

    /// Publish a copy of the live entry under `key` with one field changed,
    /// by one Put of the new pointer that lands only if the key still holds
    /// the entry read; a racing write sends us back to read it again. `edit`
    /// sees the current value: `Some(n)` rewrites it to decimal `n` with a
    /// fresh cas (`incr`/`decr`), `None` keeps value and cas (`touch`, which
    /// passes its new `deadline`). Flags are always kept.
    fn rewrite(
        &mut self,
        key: &[u8],
        deadline: Option<u32>,
        edit: impl Fn(&[u8]) -> Result<Option<u64>, CounterError>,
    ) -> Result<Option<u64>, CounterError> {
        let now = self.map.clock.now();
        let (word, exact) = key_word(key, CACHE_HASH_SEED, true);
        let map = self.map;
        let shard = self.shard(word);
        let entered = shard.enter();
        loop {
            let SlotState::Live(cur) = self.slot_state(&entered, word, exact, key, now) else {
                return Err(CounterError::NotFound);
            };
            // SAFETY: read inside `entered`, which keeps it alive.
            let (value, meta) = unsafe { (map.records.value(cur as *const u8), map.meta(cur)) };
            let next = edit(value)?;
            let mut buf = [0u8; 20];
            let (value, cas) = match next {
                Some(n) => (
                    format_decimal_u64(&mut buf, n),
                    map.cas_seq.fetch_add(1, Ordering::Relaxed) + 1,
                ),
                None => (value, meta.cas),
            };
            let deadline = deadline.unwrap_or(meta.deadline);
            let entry = map.write_entry(key, value, meta.flags, deadline, cas);
            if entered.put_if(word, cur, entry as u64).is_ok() {
                map.retire_entry(shard, cur);
                return Ok(next);
            }
            map.discard_entry(entry);
        }
    }

    /// Remove every entry (memcache `flush_all`). Returns the number of
    /// entries removed.
    pub fn flush_all(&mut self) -> u64 {
        let mut words: Vec<u64> = Vec::new();
        self.map.table.for_each(|word, _| words.push(word));
        let mut removed = 0;
        for word in words {
            let shard = self.shard(word);
            if let Some(cur) = shard.delete(word) {
                self.map.items.fetch_sub(1, Ordering::Relaxed);
                self.map.retire_entry(shard, cur);
                removed += 1;
            }
        }
        self.map.flushes.fetch_add(1, Ordering::Relaxed);
        removed
    }

    /// One reaper pass: sweep expired entries, then enforce the memory
    /// budget, then free what is freeable.
    pub fn reap(&mut self) -> ReapOutcome {
        let expired = self.sweep_expired();
        let evicted = self.maybe_evict();
        self.quiesce();
        ReapOutcome { expired, evicted }
    }

    /// Scan the index and retire every entry whose deadline has passed.
    /// Concurrent-safe: each victim is unlinked only if its key still holds
    /// the scanned entry (a racing `touch`/`set` replaced it and wins). One
    /// enter on every shard spans the scan and the unlinks.
    pub fn sweep_expired(&mut self) -> u64 {
        let now = self.map.clock.now();
        self.session.entered(|| {
            let mut victims: Vec<(u64, u64)> = Vec::new();
            self.map.table.for_each(|word, value_word| {
                // SAFETY: read inside the enter on every shard.
                if unsafe { self.map.meta(value_word) }.expired_at(now) {
                    victims.push((word, value_word));
                }
            });
            let mut reaped = 0;
            for (word, value_word) in victims {
                if self.unlink(word, value_word) {
                    self.map.expired.fetch_add(1, Ordering::Relaxed);
                    reaped += 1;
                }
            }
            reaped
        })
    }

    /// Enforce the memory budget: when `index_bytes + value bytes` exceeds
    /// the watermark, retire entries in eviction order until usage drops to
    /// 7/8 of the budget (batching avoids one-at-a-time thrash). Returns
    /// the number of entries evicted.
    pub fn maybe_evict(&mut self) -> u64 {
        let budget = self.map.budget;
        if budget == 0 {
            return 0;
        }
        // Fast path: gate on the resident gauge plus the index size cached
        // by the last enforcement, so stores under budget pay one load.
        let cached_index = self.map.index_bytes_cache.load(Ordering::Relaxed);
        if self.map.value_bytes.load(Ordering::Relaxed) + cached_index <= budget {
            return 0;
        }
        let index_bytes = self.map.table.index_bytes() as u64;
        self.map
            .index_bytes_cache
            .store(index_bytes, Ordering::Relaxed);
        if self.map.value_bytes.load(Ordering::Relaxed) + index_bytes <= budget {
            return 0;
        }
        // Evict down to the low watermark. If the index alone exceeds the
        // budget the target is 0 — everything goes (documented: budgets
        // must leave room for the index).
        let target = budget
            .saturating_sub(budget / 8)
            .saturating_sub(index_bytes);
        let now = self.map.clock.now();
        let fifo = self.map.eviction == EvictionPolicy::Fifo;
        // One enter on every shard spans the scan and the unlinks.
        self.session.entered(|| {
            let mut candidates: Vec<(u64, u64, u64)> = Vec::new();
            self.map.table.for_each(|word, value_word| {
                // SAFETY: read inside the enter on every shard.
                let meta = unsafe { self.map.meta(value_word) };
                let order = if fifo {
                    meta.cas
                } else {
                    // LRU: coldest access first; ties broken by insert order.
                    ((meta.last_access.load(Ordering::Relaxed) as u64) << 32)
                        | (meta.cas & 0xFFFF_FFFF)
                };
                candidates.push((order, word, value_word));
            });
            candidates.sort_unstable_by_key(|&(order, _, _)| order);
            let mut evicted = 0;
            for (_, word, value_word) in candidates {
                if self.map.value_bytes.load(Ordering::Relaxed) <= target {
                    break;
                }
                // SAFETY: scanned inside the same enter.
                let was_expired = unsafe { self.map.meta(value_word) }.expired_at(now);
                if !self.unlink(word, value_word) {
                    continue; // replaced or removed since the scan
                }
                if was_expired {
                    self.map.expired.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.map.evicted.fetch_add(1, Ordering::Relaxed);
                    evicted += 1;
                }
            }
            evicted
        })
    }

    /// Free every retired entry (of any session) that no reader can reach
    /// any more. Other sessions do not need this call to make progress:
    /// retirements collect on their own every few dozen entries, and this
    /// only frees the rest now.
    pub fn quiesce(&mut self) {
        self.map.table.collect_retired();
    }

    /// Entries retired on this cache (by any session) and not yet freed.
    pub fn pending_garbage(&self) -> usize {
        self.map.table.pending_records()
    }
}

/// Strict unsigned-decimal parse (what memcache `incr`/`decr` accept):
/// non-empty, digits only, must fit u64.
pub fn parse_decimal_u64(text: &[u8]) -> Option<u64> {
    if text.is_empty() || text.len() > 20 {
        return None;
    }
    let mut value: u64 = 0;
    for &byte in text {
        if !byte.is_ascii_digit() {
            return None;
        }
        value = value.checked_mul(10)?.checked_add(u64::from(byte - b'0'))?;
    }
    Some(value)
}

/// Format `value` into `buf`, returning the used suffix.
pub fn format_decimal_u64(buf: &mut [u8; 20], mut value: u64) -> &[u8] {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    &buf[at..]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manual_cache(budget: u64, eviction: EvictionPolicy) -> (Arc<ManualClock>, CacheMap) {
        let clock = Arc::new(ManualClock::new(1));
        let map = CacheMap::with_clock(
            CacheConfig {
                shards: 2,
                capacity: 4096,
                memory_budget: budget,
                eviction,
            },
            clock.clone(),
        );
        (clock, map)
    }

    #[test]
    fn set_get_add_replace_delete_roundtrip() {
        let (_clock, map) = manual_cache(0, EvictionPolicy::Lru);
        let mut s = map.session();
        assert_eq!(s.set(b"k", b"v1", 7, 0).unwrap(), StoreOutcome::Stored);
        assert_eq!(s.add(b"k", b"v2", 0, 0).unwrap(), StoreOutcome::NotStored);
        assert_eq!(s.replace(b"k", b"v3", 9, 0).unwrap(), StoreOutcome::Stored);
        let (value, flags) = s
            .get_with(b"k", |v| (v.value.to_vec(), v.flags))
            .expect("hit");
        assert_eq!(value, b"v3");
        assert_eq!(flags, 9);
        assert!(s.delete(b"k"));
        assert!(!s.delete(b"k"));
        assert_eq!(s.get(b"k"), None);
        assert_eq!(
            s.replace(b"k", b"v", 0, 0).unwrap(),
            StoreOutcome::NotStored
        );
        assert_eq!(s.add(b"k", b"v4", 0, 0).unwrap(), StoreOutcome::Stored);
        assert_eq!(s.get(b"k").unwrap(), b"v4");
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn cas_is_monotone_per_store() {
        let (_clock, map) = manual_cache(0, EvictionPolicy::Lru);
        let mut s = map.session();
        s.set(b"a", b"1", 0, 0).unwrap();
        let cas1 = s.get_with(b"a", |v| v.cas).unwrap();
        s.set(b"a", b"2", 0, 0).unwrap();
        let cas2 = s.get_with(b"a", |v| v.cas).unwrap();
        assert!(cas2 > cas1);
    }

    #[test]
    fn expired_entries_are_never_served() {
        let (clock, map) = manual_cache(0, EvictionPolicy::Lru);
        let mut s = map.session();
        s.set(b"ttl", b"v", 0, 10).unwrap();
        assert_eq!(s.get(b"ttl").unwrap(), b"v");
        clock.advance(9); // now = 10: deadline (1 + 10 = 11) not yet passed
        assert_eq!(s.get(b"ttl").unwrap(), b"v");
        clock.advance(1); // now = 11 == deadline → dead
        assert_eq!(s.get(b"ttl"), None);
        // Logically absent everywhere: add succeeds, delete reports miss.
        assert!(!s.delete(b"ttl"));
        assert_eq!(s.add(b"ttl", b"v2", 0, 0).unwrap(), StoreOutcome::Stored);
        assert_eq!(s.get(b"ttl").unwrap(), b"v2");
    }

    #[test]
    fn negative_exptime_is_immediately_dead() {
        let (_clock, map) = manual_cache(0, EvictionPolicy::Lru);
        let mut s = map.session();
        s.set(b"dead", b"v", 0, -1).unwrap();
        assert_eq!(s.get(b"dead"), None);
    }

    #[test]
    fn absolute_unix_exptime_converts() {
        let (clock, map) = manual_cache(0, EvictionPolicy::Lru);
        // Cache second 1 corresponds to unix_at_start; +100s absolute.
        let unix_target = map.unix_at_start + 100;
        let deadline = map.deadline_for(unix_target as i64);
        assert_eq!(deadline, 101);
        // A past absolute timestamp is already dead.
        assert_eq!(map.deadline_for(map.unix_at_start as i64), 1);
        clock.advance(1);
        assert_eq!(map.deadline_for(unix_target as i64), 101);
    }

    #[test]
    fn touch_extends_deadline_in_place() {
        let (clock, map) = manual_cache(0, EvictionPolicy::Lru);
        let mut s = map.session();
        s.set(b"t", b"v", 0, 5).unwrap();
        clock.advance(4);
        assert!(s.touch(b"t", 100));
        clock.advance(50);
        assert_eq!(s.get(b"t").unwrap(), b"v", "touch moved the deadline");
        clock.advance(60);
        assert_eq!(s.get(b"t"), None);
        assert!(!s.touch(b"t", 100), "expired entries cannot be touched");
    }

    #[test]
    fn incr_decr_semantics() {
        let (_clock, map) = manual_cache(0, EvictionPolicy::Lru);
        let mut s = map.session();
        assert_eq!(s.incr(b"n", 1), Err(CounterError::NotFound));
        s.set(b"n", b"10", 0, 0).unwrap();
        assert_eq!(s.incr(b"n", 5).unwrap(), 15);
        assert_eq!(s.decr(b"n", 100).unwrap(), 0, "decr floors at zero");
        assert_eq!(s.get(b"n").unwrap(), b"0");
        s.set(b"n", &u64::MAX.to_string().into_bytes(), 0, 0)
            .unwrap();
        assert_eq!(s.incr(b"n", 2).unwrap(), 1, "incr wraps");
        s.set(b"x", b"12x", 0, 0).unwrap();
        assert_eq!(s.incr(b"x", 1), Err(CounterError::NotNumeric));
        s.set(b"big", b"99999999999999999999999", 0, 0).unwrap();
        assert_eq!(s.incr(b"big", 1), Err(CounterError::NotNumeric));
    }

    #[test]
    fn sweep_expired_drains_a_storm_and_epoch_frees_it() {
        let (clock, map) = manual_cache(0, EvictionPolicy::Lru);
        let mut s = map.session();
        for i in 0..200u64 {
            s.set(format!("storm:{i}").as_bytes(), &[7u8; 64], 0, 5)
                .unwrap();
        }
        assert_eq!(map.len(), 200);
        clock.advance(10);
        let reaped = s.sweep_expired();
        assert_eq!(reaped, 200);
        assert_eq!(map.len(), 0);
        assert_eq!(map.stats().expired, 200);
        // Retired bytes drain to zero once the epoch advances.
        assert!(map.stats().pending_reclaim_bytes > 0);
        for _ in 0..4 {
            s.quiesce();
        }
        assert_eq!(map.stats().pending_reclaim_bytes, 0);
        assert_eq!(map.stats().value_bytes, 0);
    }

    #[test]
    fn an_idle_session_holds_nothing_back() {
        let (_clock, map) = manual_cache(0, EvictionPolicy::Lru);
        let (opened, done) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        let left = std::thread::scope(|s| {
            // A session on another thread that stays open and idle.
            s.spawn(|| {
                let _idle = map.session();
                opened.wait();
                done.wait();
            });
            opened.wait();
            let mut busy = map.session();
            for i in 0..1_000u64 {
                let key = format!("idle:{i}");
                busy.set(key.as_bytes(), &[3u8; 16], 0, 0).unwrap();
                assert!(busy.delete(key.as_bytes()));
                busy.quiesce();
            }
            // Read before the idle thread may leave, asserted after: a
            // failed assertion must not strand it at the barrier.
            let left = (busy.pending_garbage(), map.stats().pending_reclaim_bytes);
            done.wait();
            left
        });
        assert_eq!(left, (0, 0), "the idle session pins entries");
    }

    #[test]
    fn eviction_respects_budget_and_lru_keeps_hot_keys() {
        let value = [1u8; 1024];
        let (_clock, map) = {
            let clock = Arc::new(ManualClock::new(1));
            let map = CacheMap::with_clock(
                CacheConfig {
                    shards: 1,
                    capacity: 1024,
                    memory_budget: 256 * 1024,
                    eviction: EvictionPolicy::Lru,
                },
                clock.clone(),
            );
            (clock, map)
        };
        let mut s = map.session();
        let budget = map.budget();
        // Keep key 0 hot by re-reading it between stores.
        for i in 0..1000u64 {
            s.set(format!("fill:{i:04}").as_bytes(), &value, 0, 0)
                .unwrap();
            let _ = s.get(b"fill:0000");
            let stats = map.stats();
            assert!(
                stats.total_bytes() <= budget,
                "over budget after store {i}: {} > {budget}",
                stats.total_bytes()
            );
        }
        let stats = map.stats();
        assert!(stats.evicted > 0, "the fill must have forced evictions");
        assert!(
            s.get(b"fill:0000").is_some(),
            "LRU must keep the hot key resident"
        );
    }

    #[test]
    fn fifo_evicts_in_insert_order() {
        let value = [2u8; 512];
        let clock = Arc::new(ManualClock::new(1));
        let map = CacheMap::with_clock(
            CacheConfig {
                shards: 1,
                capacity: 1024,
                memory_budget: 128 * 1024,
                eviction: EvictionPolicy::Fifo,
            },
            clock.clone(),
        );
        let mut s = map.session();
        for i in 0..500u64 {
            s.set(format!("f:{i:04}").as_bytes(), &value, 0, 0).unwrap();
            let _ = s.get(b"f:0000"); // recency must NOT save it under FIFO
        }
        assert!(map.stats().evicted > 0);
        assert_eq!(s.get(b"f:0000"), None, "FIFO ignores recency");
        assert!(s.get(b"f:0499").is_some(), "newest entries survive");
    }

    #[test]
    fn flush_all_empties_the_cache() {
        let (_clock, map) = manual_cache(0, EvictionPolicy::Lru);
        let mut s = map.session();
        for i in 0..50u64 {
            s.set(format!("k{i}").as_bytes(), b"v", 0, 0).unwrap();
        }
        assert_eq!(s.flush_all(), 50);
        assert_eq!(map.len(), 0);
        assert_eq!(s.get(b"k0"), None);
        assert_eq!(map.stats().flushes, 1);
    }

    #[test]
    fn a_read_keeps_its_entry_until_its_closure_returns() {
        let (_clock, map) = manual_cache(0, EvictionPolicy::Lru);
        let mut reader = map.session();
        reader.set(b"k", b"value", 0, 0).unwrap();
        let pending_inside = reader
            .get_with(b"k", |view| {
                // Another thread deletes the entry and frees what it can
                // while this closure still reads it.
                std::thread::scope(|s| {
                    s.spawn(|| {
                        let mut writer = map.session();
                        assert!(writer.delete(b"k"));
                        writer.quiesce();
                    });
                });
                assert_eq!(view.value, b"value");
                map.stats().pending_reclaim_bytes
            })
            .unwrap();
        assert!(pending_inside > 0, "freed under a running read");
        reader.quiesce();
        assert_eq!(map.stats().pending_reclaim_bytes, 0);
    }

    #[test]
    fn stats_counters_track_operations() {
        let (_clock, map) = manual_cache(0, EvictionPolicy::Lru);
        let mut s = map.session();
        s.set(b"a", b"1", 0, 0).unwrap();
        let _ = s.get(b"a");
        let _ = s.get(b"missing");
        let stats = map.stats();
        assert_eq!(stats.items, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.sets, 1);
        assert_eq!(stats.value_bytes, map.records.size_for(1, 1) as u64);
        assert!((stats.hit_ratio() - 0.5).abs() < f64::EPSILON);
    }

    #[test]
    fn eight_byte_keys_inline_and_long_keys_fingerprint() {
        let (_clock, map) = manual_cache(0, EvictionPolicy::Lru);
        let mut s = map.session();
        s.set(b"exactly8", b"inline", 0, 0).unwrap();
        let long = vec![b'x'; 200];
        s.set(&long, b"hashed", 0, 0).unwrap();
        assert_eq!(s.get(b"exactly8").unwrap(), b"inline");
        assert_eq!(s.get(&long).unwrap(), b"hashed");
        assert_eq!(s.get(b"exactly9"), None);
        assert!(s.set(b"", b"v", 0, 0).is_err(), "empty keys are rejected");
    }

    #[test]
    fn concurrent_churn_with_reaper_stays_consistent() {
        let clock = Arc::new(ManualClock::new(1));
        let map = Arc::new(CacheMap::with_clock(
            CacheConfig {
                shards: 4,
                capacity: 8192,
                memory_budget: 0,
                eviction: EvictionPolicy::Lru,
            },
            clock.clone(),
        ));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let map = Arc::clone(&map);
                let clock = Arc::clone(&clock);
                scope.spawn(move || {
                    let mut s = map.session();
                    for i in 0..800u64 {
                        let key = format!("churn:{t}:{}", i % 64);
                        match i % 5 {
                            0 | 1 => {
                                s.set(key.as_bytes(), &i.to_le_bytes(), 0, 2).unwrap();
                            }
                            2 => {
                                let _ = s.get(key.as_bytes());
                            }
                            3 => {
                                let _ = s.touch(key.as_bytes(), 4);
                            }
                            _ => {
                                let _ = s.delete(key.as_bytes());
                            }
                        }
                        if i % 100 == 0 {
                            clock.advance(1);
                            s.sweep_expired();
                        }
                        if i % 32 == 0 {
                            s.quiesce();
                        }
                    }
                });
            }
        });
        // Drain: expire everything and verify the books balance.
        clock.advance(100);
        let mut s = map.session();
        s.sweep_expired();
        assert_eq!(map.len(), 0);
        for _ in 0..4 {
            s.quiesce();
        }
        assert_eq!(map.stats().pending_reclaim_bytes, 0);
        assert_eq!(map.stats().value_bytes, 0);
    }

    #[test]
    fn decimal_helpers_roundtrip() {
        let mut buf = [0u8; 20];
        for v in [0u64, 1, 9, 10, 12345, u64::MAX] {
            let text = format_decimal_u64(&mut buf, v);
            assert_eq!(parse_decimal_u64(text), Some(v));
        }
        assert_eq!(parse_decimal_u64(b""), None);
        assert_eq!(parse_decimal_u64(b"1a"), None);
        assert_eq!(parse_decimal_u64(b"18446744073709551616"), None);
        assert_eq!(parse_decimal_u64(b"018446744073709551615"), None);
    }
}
