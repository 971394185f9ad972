//! The core table: lock-free Get/Insert/Delete, dw-CAS Put, and the
//! non-blocking parallel resize (§3.2).
//!
//! [`DlhtMap`] stores 8-byte keys and 8-byte value words, and it *is* the
//! Inlined mode (§3.1, mode 1): values live directly in the value word. This
//! is DLHT's hot configuration — a pointer cache for a query engine, a
//! pointer-to-pointer map for a storage engine — and the one all the headline
//! numbers (Figures 3–8) are measured on. The other modes wrap it: the
//! HashSet ignores the value word, and the Allocator map stores a tagged
//! pointer in it.

use crate::atomic128::AtomicPair;
use crate::bucket::{
    fill_key_for_bin, is_reserved_key, transfer_key_for_bin, LinkMeta, PrimaryBucket, NO_LINK,
};
use crate::config::DlhtConfig;
use crate::error::{DlhtError, InsertOutcome};
use crate::header::{BinHeader, BinState, SlotState, SLOTS_PER_BIN};
use crate::index::Index;
use crate::registry::{ThreadRegistry, MAX_THREADS};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Outcome of attempting an operation on one index generation.
enum Probe<T> {
    /// The operation completed with this result.
    Done(T),
    /// The bin is currently being transferred; retry shortly.
    Busy,
    /// The bin has been transferred; retry on the next index.
    Moved,
    /// The bin (or the link-bucket pool) is full; a resize is required.
    NeedResize,
}

impl<T> Probe<T> {
    #[inline]
    fn map<U>(self, f: impl FnOnce(T) -> U) -> Probe<U> {
        match self {
            Probe::Done(v) => Probe::Done(f(v)),
            Probe::Busy => Probe::Busy,
            Probe::Moved => Probe::Moved,
            Probe::NeedResize => Probe::NeedResize,
        }
    }
}

/// A `Valid` slot holding the probed key, as a validated probe saw it:
/// (slot index, its key-value pair, value word).
pub(crate) type Found<'a> = (usize, &'a AtomicPair, u64);

/// How a record table frees a retired record no thread can reach anymore.
pub(crate) type FreeRecord = Arc<dyn Fn(*mut u8) + Send + Sync>;

/// Concurrent hash map with inlined 8-byte keys and values.
///
/// All operations are *practically non-blocking* (§2.1): an operation on key
/// `K_A` never impedes operations on a different key `K_B`; only operations on
/// a bin currently being copied by a resize wait, and only for the duration of
/// that single bin's transfer.
///
/// ```
/// use dlht_core::DlhtMap;
///
/// let map = DlhtMap::with_capacity(1024);
/// map.insert(1, 100).unwrap();
/// assert_eq!(map.get(1), Some(100));
/// map.put(1, 200);
/// assert_eq!(map.delete(1), Some(200));
/// ```
pub struct DlhtMap {
    current: AtomicPtr<Index>,
    registry: ThreadRegistry,
    config: DlhtConfig,
    /// Frees retired records; `None` unless value words point at records.
    free_record: Option<FreeRecord>,
    /// Indexes that have been replaced, with their retirement stamps, but
    /// may still be referenced by in-flight operations. Freed oldest-first.
    retired: Mutex<VecDeque<(u64, usize)>>,
    resizes: AtomicU64,
}

// SAFETY: all interior state is atomics / mutex-protected; the raw Index
// pointers are managed by the epoch protocol described in registry.rs, and
// `free_record` is `Send + Sync`.
unsafe impl Send for DlhtMap {}
// SAFETY: as above — shared access goes through atomics, the registry
// handshake, or the retired-list Mutex.
unsafe impl Sync for DlhtMap {}

/// RAII announcement that the current thread is operating on the table
/// (the paper's per-thread pointer, §3.2.5 "GC old index"). Whatever the
/// thread reads from the table while it holds one is not freed.
pub(crate) struct EnterGuard<'a> {
    table: &'a DlhtMap,
    slot: Option<usize>,
    index: *mut Index,
}

impl<'a> EnterGuard<'a> {
    /// The index generation this guard entered on.
    #[inline]
    pub(crate) fn index_ptr(&self) -> *mut Index {
        self.index
    }

    /// Look up `key` from the index this guard entered: for a record read
    /// that must stay inside the same enter as its lookup.
    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<u64> {
        self.table.get_guarded(self.index, key)
    }

    /// Replace `key`'s value with `new` only if it still holds `current`.
    /// `Err` carries the value actually found (`None` = absent).
    pub(crate) fn put_if(&self, key: u64, current: u64, new: u64) -> Result<(), Option<u64>> {
        let put = |idx: &Index| self.table.put_in(idx, key, Some(current), new);
        self.table.run(self.index, put).map(drop)
    }

    /// Delete `key` only if it still holds `current`. `Err` carries the
    /// value actually found (`None` = absent).
    pub(crate) fn delete_if(&self, key: u64, current: u64) -> Result<(), Option<u64>> {
        let delete = |idx: &Index| self.table.delete_in(idx, key, Some(current));
        self.table.run(self.index, delete).map(drop)
    }
}

impl Drop for EnterGuard<'_> {
    fn drop(&mut self) {
        if let Some(slot) = self.slot {
            self.table.registry.leave(slot);
        }
    }
}

impl DlhtMap {
    /// Create a map from an explicit configuration.
    pub fn with_config(config: DlhtConfig) -> Self {
        Self::build(config, None)
    }

    /// A table whose value words point at records: it retires what its
    /// writers unlink and frees each record with `free` once no thread can
    /// reach it. Its enters always announce, whatever `config.resizing`.
    pub(crate) fn for_records(config: DlhtConfig, free: FreeRecord) -> Self {
        Self::build(config, Some(free))
    }

    fn build(config: DlhtConfig, free_record: Option<FreeRecord>) -> Self {
        let initial = Box::into_raw(Box::new(Index::new(config.num_bins, &config, 0)));
        DlhtMap {
            current: AtomicPtr::new(initial),
            registry: ThreadRegistry::with_capacity(MAX_THREADS),
            config,
            free_record,
            retired: Mutex::new(VecDeque::new()),
            resizes: AtomicU64::new(0),
        }
    }

    /// Create a map sized by [`DlhtConfig::for_capacity`] for about `keys`
    /// keys (read its docs for when the first resize comes).
    pub fn with_capacity(keys: usize) -> Self {
        Self::with_config(DlhtConfig::for_capacity(keys))
    }

    /// Create a map with `num_bins` bins and default configuration.
    pub fn new(num_bins: usize) -> Self {
        Self::with_config(DlhtConfig::new(num_bins))
    }

    /// Returns `self`: the map is its own table. Code that reaches the
    /// table's diagnostics through `map.raw()` (benchmark harnesses reading
    /// `map.raw().retired_indexes()` or `current_generation()`) keeps
    /// compiling; new code calls the method on the map directly.
    pub fn raw(&self) -> &Self {
        self
    }

    /// Open a per-thread [`Session`](crate::Session) with a cached registry
    /// slot — the entry point for reusable batches and the bounded prefetch
    /// [`crate::Pipeline`].
    pub fn session(&self) -> crate::Session<'_> {
        crate::Session::new(self)
    }

    /// The active configuration.
    pub fn config(&self) -> &DlhtConfig {
        &self.config
    }

    /// Number of resizes completed or in progress since creation.
    pub fn resizes(&self) -> u64 {
        self.resizes.load(Ordering::Relaxed)
    }

    // ------------------------------------------------------------------
    // Entering / leaving (the reclamation protocol, registry.rs)
    // ------------------------------------------------------------------

    /// Whether enters announce: not for an Inlined table with resizing off,
    /// which frees nothing threads may read (§3.4.5 / §5.2.5).
    #[inline]
    pub(crate) fn announces(&self) -> bool {
        self.config.resizing || self.free_record.is_some()
    }

    /// Announce entry into the table and pin the current index generation.
    pub(crate) fn enter(&self) -> EnterGuard<'_> {
        if !self.announces() {
            return EnterGuard {
                table: self,
                slot: None,
                index: self.current.load(Ordering::Acquire),
            };
        }
        self.enter_with_slot(self.registry.slot_for_current_thread())
    }

    /// [`DlhtMap::enter`] with an already-claimed registry slot — the
    /// [`crate::Session`] fast path, which caches its slot at construction and
    /// skips the thread-local lookup on every request.
    #[inline]
    pub(crate) fn enter_with_slot(&self, slot: usize) -> EnterGuard<'_> {
        self.registry.enter(slot);
        // ORDERING: Acquire — pairs with the grower's swap. Read after the
        // enter's fence, so a resize that retires this index stamps it with
        // an epoch the announcement holds back (see registry.rs).
        let index = self.current.load(Ordering::Acquire);
        EnterGuard {
            table: self,
            slot: Some(slot),
            index,
        }
    }

    /// The current index, for comparison only: nothing pins it, so it must
    /// never be dereferenced. [`crate::Session::prefetch`] checks its hint
    /// against it.
    #[inline]
    pub(crate) fn current_unpinned(&self) -> *const Index {
        // ORDERING: Relaxed — the pointer is only compared with a session's
        // prefetch hint. A stale value costs one wasted prefetch or one extra
        // enter; every access that dereferences the index enters first.
        self.current.load(Ordering::Relaxed)
    }

    /// The per-table thread registry (used by [`crate::Session`] to claim its
    /// announcement slot once).
    pub(crate) fn registry(&self) -> &ThreadRegistry {
        &self.registry
    }

    // ------------------------------------------------------------------
    // Public operations
    // ------------------------------------------------------------------

    /// Run `f` on the current index generation, pinned for the call.
    #[inline]
    pub(crate) fn entered<T>(&self, f: impl FnOnce(*mut Index) -> T) -> T {
        let guard = self.enter();
        let r = f(guard.index_ptr());
        drop(guard);
        r
    }

    /// Look up `key`, returning its value word.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u64> {
        self.entered(|start| self.get_guarded(start, key))
    }

    /// Get starting from an already-pinned index generation (batch API).
    pub(crate) fn get_guarded(&self, start: *mut Index, key: u64) -> Option<u64> {
        if is_reserved_key(key) {
            return None;
        }
        self.run(start, |idx| {
            let found = idx.probe(idx.bin(idx.bin_of(key)), key);
            found.map(|hit| hit.map(|(_, _, v)| v))
        })
    }

    /// Insert `key -> value`. Fails with `AlreadyExists` if present.
    #[inline]
    pub fn insert(&self, key: u64, value: u64) -> Result<InsertOutcome, DlhtError> {
        self.entered(|start| self.insert_guarded(start, key, value, SlotState::Valid))
    }

    /// Shadow-insert `key` (§3.2.2 "Transactions"): the key is claimed (a
    /// second insert fails) but hidden from Get/Put/Delete until
    /// [`DlhtMap::commit_shadow`] is called.
    #[inline]
    pub fn insert_shadow(&self, key: u64, value: u64) -> Result<InsertOutcome, DlhtError> {
        self.entered(|start| self.insert_guarded(start, key, value, SlotState::Shadow))
    }

    /// Commit (`true`) or abort (`false`) a shadow insert. Returns whether a
    /// shadow entry for `key` was found.
    #[inline]
    pub fn commit_shadow(&self, key: u64, commit: bool) -> bool {
        !is_reserved_key(key)
            && self.entered(|start| self.run(start, |idx| self.finish_shadow_in(idx, key, commit)))
    }

    /// Update the value of an existing key with a 16-byte dw-CAS (§3.2.4).
    /// Returns the previous value word, or `None` if the key is absent.
    #[inline]
    pub fn put(&self, key: u64, value: u64) -> Option<u64> {
        self.entered(|start| self.put_guarded(start, key, value))
    }

    /// Put starting from an already-pinned index generation (batch API).
    pub(crate) fn put_guarded(&self, start: *mut Index, key: u64, value: u64) -> Option<u64> {
        self.run(start, |idx| self.put_in(idx, key, None, value))
            .ok()
    }

    /// Insert if absent, otherwise update. Returns the previous value on
    /// update, `Ok(None)` on a fresh insert, and propagates insert errors
    /// (reserved key, table full with resizing disabled).
    ///
    /// Every `Some(prev)` comes from the `put` that wrote `value`: when a
    /// concurrent delete empties the key between the insert and the put, the
    /// loop retries the insert rather than report a value it never replaced.
    #[inline]
    pub fn upsert(&self, key: u64, value: u64) -> Result<Option<u64>, DlhtError> {
        loop {
            if self.insert(key, value)?.inserted() {
                return Ok(None);
            }
            if let Some(prev) = self.put(key, value) {
                return Ok(Some(prev));
            }
        }
    }

    /// Delete `key`, immediately reclaiming its slot (§3.2.3). Returns the
    /// deleted value word.
    #[inline]
    pub fn delete(&self, key: u64) -> Option<u64> {
        self.entered(|start| self.delete_guarded(start, key))
    }

    /// Delete starting from an already-pinned index generation (batch API).
    pub(crate) fn delete_guarded(&self, start: *mut Index, key: u64) -> Option<u64> {
        self.run(start, |idx| self.delete_in(idx, key, None)).ok()
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Insert starting from an already-pinned index generation (batch API).
    pub(crate) fn insert_guarded(
        &self,
        start: *mut Index,
        key: u64,
        value: u64,
        state: SlotState,
    ) -> Result<InsertOutcome, DlhtError> {
        if is_reserved_key(key) {
            return Err(DlhtError::ReservedKey);
        }
        self.run(start, |idx| match self.insert_in(idx, key, value, state) {
            Probe::NeedResize if !self.config.resizing => Probe::Done(Err(DlhtError::TableFull)),
            outcome => outcome.map(Ok),
        })
    }

    /// Drive `op` from `start` across Busy/Moved outcomes, growing the table
    /// when it reports NeedResize (only inserts ever do).
    fn run<T>(&self, start: *mut Index, mut op: impl FnMut(&Index) -> Probe<T>) -> T {
        let mut idx_ptr = start;
        loop {
            // SAFETY: idx_ptr is protected by the caller's EnterGuard (entered
            // index) plus the oldest-first retirement rule for newer
            // generations.
            let idx = unsafe { &*idx_ptr };
            match op(idx) {
                Probe::Done(v) => return v,
                Probe::Busy => std::hint::spin_loop(),
                Probe::Moved => {
                    idx_ptr = idx.next_ptr();
                    debug_assert!(!idx_ptr.is_null(), "DoneTransfer bin without a next index");
                }
                Probe::NeedResize => idx_ptr = self.grow(idx_ptr),
            }
        }
    }

    // ------------------------------------------------------------------
    // Per-index algorithms
    // ------------------------------------------------------------------

    /// Lock-free Insert à la CLHT with bounded chaining (§3.2.2).
    ///
    /// The claimed slot holds the bin's fill key until it is published; the
    /// real key is written right after the publishing CAS, which is the
    /// insert's linearization point. So no Put or Delete that read an earlier
    /// occupant of the slot can ever match a slot an insert still owns (see
    /// docs/CORRECTNESS.md, "Put and Delete: the freeze").
    fn insert_in(
        &self,
        idx: &Index,
        key: u64,
        value: u64,
        target_state: SlotState,
    ) -> Probe<InsertOutcome> {
        let bin_no = idx.bin_of(key);
        let bin = idx.bin(bin_no);
        let fill = fill_key_for_bin(bin_no);
        let visible = |st| st == SlotState::Valid || st == SlotState::Shadow;
        'outer: loop {
            // Step 1: read the header.
            let h = BinHeader(bin.header.load(Ordering::Acquire));
            match h.bin_state() {
                BinState::InTransfer | BinState::Snapshot => return Probe::Busy,
                BinState::DoneTransfer => return Probe::Moved,
                BinState::NoTransfer => {}
            }
            // Step 2: the key must not already exist (shadow entries count).
            match idx.scan_for_key(bin, h, key, visible, Some(fill)) {
                Ok(None) => {}
                Ok(Some((_, _, existing))) => {
                    // Validate the snapshot the same way a Get does.
                    let h2 = BinHeader(bin.header.load(Ordering::Acquire));
                    if h2.version() == h.version() {
                        return Probe::Done(InsertOutcome::AlreadyExists(existing));
                    }
                    continue 'outer;
                }
                Err(()) => {
                    std::hint::spin_loop();
                    continue 'outer;
                }
            }
            // Step 3: find the first Invalid slot.
            let Some(slot) = h.first_invalid_slot() else {
                return Probe::NeedResize;
            };
            // Step 4: claim it by CASing Invalid -> TryInsert.
            let claimed = h.with_slot_state(slot, SlotState::TryInsert);
            if bin
                .header
                .compare_exchange(h.0, claimed.0, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue 'outer;
            }
            // Chain link buckets if the claimed slot lives in one (§3.2.2
            // "Chaining buckets").
            match idx.ensure_chained(bin, slot) {
                Ok(()) => {}
                Err(()) => {
                    self.release_slot(bin, slot);
                    return Probe::NeedResize;
                }
            }
            // Step 4.1: fill the slot while it is exclusively ours, parking
            // the fill key where the key goes.
            let meta_now = LinkMeta(bin.link.load(Ordering::Acquire));
            let pair = idx
                .slot_pair(bin, meta_now, slot)
                .expect("claimed slot must be addressable after chaining");
            pair.store(fill, value, Ordering::Release);
            // Step 5: publish by CASing TryInsert -> Valid (or Shadow).
            loop {
                let h2 = BinHeader(bin.header.load(Ordering::Acquire));
                match h2.bin_state() {
                    BinState::NoTransfer => {}
                    BinState::InTransfer | BinState::Snapshot => {
                        self.release_slot(bin, slot);
                        return Probe::Busy;
                    }
                    BinState::DoneTransfer => {
                        self.release_slot(bin, slot);
                        return Probe::Moved;
                    }
                }
                debug_assert_eq!(h2.slot_state(slot), SlotState::TryInsert);
                // Re-run the duplicate check (paper: "start over from step 1,
                // but skip steps 3 and 4"); our own TryInsert slot is not
                // visible to it.
                match idx.scan_for_key(bin, h2, key, visible, Some(fill)) {
                    Ok(None) => {}
                    Ok(Some((_, _, existing))) => {
                        self.release_slot(bin, slot);
                        return Probe::Done(InsertOutcome::AlreadyExists(existing));
                    }
                    Err(()) => {
                        std::hint::spin_loop();
                        continue;
                    }
                }
                let published = h2.with_slot_state(slot, target_state);
                if bin
                    .header
                    .compare_exchange(h2.0, published.0, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    // The slot is ours until the key lands: scans that meet
                    // the fill key wait for this store.
                    pair.store_lo(key, Ordering::Release);
                    return Probe::Done(InsertOutcome::Inserted);
                }
            }
        }
    }

    /// CAS a slot we own back from TryInsert to Invalid (abort path).
    fn release_slot(&self, bin: &PrimaryBucket, slot: usize) {
        loop {
            let h = BinHeader(bin.header.load(Ordering::Acquire));
            debug_assert_eq!(h.slot_state(slot), SlotState::TryInsert);
            let released = h.with_slot_state(slot, SlotState::Invalid);
            if bin
                .header
                .compare_exchange(h.0, released.0, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return;
            }
        }
    }

    /// The one write path behind Put and Delete: dw-CAS the pair of `key`,
    /// as a validated probe saw it, to `to(value)` — if it holds `expected`
    /// (any value when `None`). `Err(found)` when it does not (`None` =
    /// absent). The dw-CAS covers both words: if a Delete froze the slot,
    /// the resize swapped in a transfer key, or another Put got there first,
    /// it fails and we probe again.
    #[inline]
    fn swap_in<'a>(
        &self,
        idx: &'a Index,
        bin: &'a PrimaryBucket,
        key: u64,
        expected: Option<u64>,
        to: impl Fn(u64) -> (u64, u64),
    ) -> Probe<Result<Found<'a>, Option<u64>>> {
        if is_reserved_key(key) {
            return Probe::Done(Err(None));
        }
        loop {
            let (slot, pair, v) = match idx.probe(bin, key) {
                Probe::Done(Some(f)) if expected.is_none_or(|e| e == f.2) => f,
                other => return other.map(|found| Err(found.map(|(_, _, v)| v))),
            };
            // ORDERING: fixed inside AtomicPair::compare_exchange
            // (lock cmpxchg16b is sequentially consistent; the fallback
            // pairs an Acquire lock with a Release fence).
            let swapped = pair.compare_exchange((key, v), to(v));
            if swapped.is_ok() {
                return Probe::Done(Ok((slot, pair, v)));
            }
        }
    }

    /// Put via dw-CAS on the whole slot (§3.2.4), conditional on `expected`
    /// as in [`DlhtMap::swap_in`]; `Ok(prev)` when written.
    fn put_in(
        &self,
        idx: &Index,
        key: u64,
        expected: Option<u64>,
        value: u64,
    ) -> Probe<Result<u64, Option<u64>>> {
        let bin = idx.bin(idx.bin_of(key));
        self.swap_in(idx, bin, key, expected, |_| (key, value))
            .map(|r| r.map(|(_, _, prev)| prev))
    }

    /// Lock-free Delete with immediate slot reclamation (§3.2.3), conditional
    /// like [`DlhtMap::put_in`]. The delete first *freezes* the pair — swaps
    /// the bin's transfer key in over the key, its linearization point — and
    /// only then frees the slot in the header.
    fn delete_in(
        &self,
        idx: &Index,
        key: u64,
        expected: Option<u64>,
    ) -> Probe<Result<u64, Option<u64>>> {
        let bin_no = idx.bin_of(key);
        let bin = idx.bin(bin_no);
        let tkey = transfer_key_for_bin(bin_no);
        let (slot, value) = match self.swap_in(idx, bin, key, expected, |v| (tkey, v)) {
            Probe::Done(Ok((slot, _, value))) => (slot, value),
            other => return other.map(|r| r.map(|(_, _, prev)| prev)),
        };
        // Frozen: no Put, Delete or transfer touches the pair again, so the
        // slot stays Valid until we free it.
        loop {
            let h = BinHeader(bin.header.load(Ordering::Acquire));
            if matches!(h.bin_state(), BinState::InTransfer | BinState::DoneTransfer) {
                // The transfer skips reserved keys: the pair is never copied,
                // so the delete is already complete.
                return Probe::Done(Ok(value));
            }
            debug_assert_eq!(h.slot_state(slot), SlotState::Valid);
            let freed = h.with_slot_state(slot, SlotState::Invalid);
            if bin
                .header
                .compare_exchange(h.0, freed.0, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Probe::Done(Ok(value));
            }
        }
    }

    /// Transition a shadow entry for `key` to Valid (commit) or Invalid
    /// (abort).
    fn finish_shadow_in(&self, idx: &Index, key: u64, commit: bool) -> Probe<bool> {
        let bin_no = idx.bin_of(key);
        let bin = idx.bin(bin_no);
        let shadow = |st| st == SlotState::Shadow;
        loop {
            let h = BinHeader(bin.header.load(Ordering::Acquire));
            match h.bin_state() {
                BinState::InTransfer | BinState::Snapshot => return Probe::Busy,
                BinState::DoneTransfer => return Probe::Moved,
                BinState::NoTransfer => {}
            }
            let fill = fill_key_for_bin(bin_no);
            let slot = match idx.scan_for_key(bin, h, key, shadow, Some(fill)) {
                Ok(Some((slot, _, _))) => slot,
                Ok(None) => {
                    let h2 = BinHeader(bin.header.load(Ordering::Acquire));
                    if h2.version() == h.version() {
                        return Probe::Done(false);
                    }
                    continue;
                }
                Err(()) => continue,
            };
            let target = if commit {
                SlotState::Valid
            } else {
                SlotState::Invalid
            };
            let next = h.with_slot_state(slot, target);
            if bin
                .header
                .compare_exchange(h.0, next.0, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Probe::Done(true);
            }
        }
    }

    // ------------------------------------------------------------------
    // Resize (§3.2.5)
    // ------------------------------------------------------------------

    /// Grow the table starting from `old_ptr`; returns the next index to
    /// retry the blocked insert on. Requires an active [`EnterGuard`].
    // Cold and out of line: `run` drives Gets too, whose code must not carry it.
    #[cold]
    #[inline(never)]
    fn grow(&self, old_ptr: *mut Index) -> *mut Index {
        // SAFETY: protected by the caller's EnterGuard.
        let old = unsafe { &*old_ptr };
        if old.next_ptr().is_null() {
            if old.claim_resize() {
                let factor = DlhtConfig::growth_factor(old.num_bins());
                let new_bins = old.num_bins().saturating_mul(factor);
                let new = Box::into_raw(Box::new(Index::new(
                    new_bins,
                    &self.config,
                    old.generation() + 1,
                )));
                self.resizes.fetch_add(1, Ordering::Relaxed);
                old.publish_next(new);
            } else {
                // Another thread is allocating the new index; wait for it
                // (§3.2.5 "Collaboration": helpers first wait for the new
                // index to be allocated).
                while old.next_ptr().is_null() {
                    std::hint::spin_loop();
                }
            }
        }
        let new_ptr = old.next_ptr();
        // SAFETY: next pointers are only cleared when the index is freed,
        // which cannot happen while `old` is reachable.
        let new = unsafe { &*new_ptr };
        // Help transfer chunks until none are left.
        self.help_transfer(old, new);
        // Wait for stragglers still copying their claimed chunks.
        while !old.fully_transferred() {
            std::hint::spin_loop();
        }
        // Redirect new entrants to the new index; whoever wins retires `old`,
        // stamped after the swap (the stamp's fence orders the two).
        if self
            .current
            .compare_exchange(old_ptr, new_ptr, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            let mut retired = self.retired.lock().unwrap();
            // Stamped under the lock, so the list's stamps never decrease.
            retired.push_back((self.registry.stamp(), old_ptr as usize));
        }
        self.collect_garbage();
        new_ptr
    }

    /// Transfer chunks of bins from `old` to `new` until none remain.
    fn help_transfer(&self, old: &Index, new: &Index) {
        while let Some(range) = old.claim_chunk() {
            for b in range {
                self.transfer_bin(old, b, new);
            }
            old.chunk_transferred();
        }
    }

    /// Copy one bin to the new index, blocking operations on this bin only
    /// for the duration of the copy.
    fn transfer_bin(&self, old: &Index, bin_no: usize, new: &Index) {
        let bin = old.bin(bin_no);
        // Announce the transfer: CAS the bin state to InTransfer. Concurrent
        // Inserts/Deletes either completed before this CAS or will fail their
        // own CAS and retry, observing the new state.
        let mut h;
        loop {
            h = BinHeader(bin.header.load(Ordering::Acquire));
            match h.bin_state() {
                BinState::NoTransfer | BinState::Snapshot => {}
                BinState::InTransfer | BinState::DoneTransfer => return,
            }
            let next = h.with_bin_state(BinState::InTransfer);
            if bin
                .header
                .compare_exchange(h.0, next.0, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                h = next;
                break;
            }
        }
        let meta = LinkMeta(bin.link.load(Ordering::Acquire));
        let tkey = transfer_key_for_bin(bin_no);
        let fill = fill_key_for_bin(bin_no);
        for slot in 0..SLOTS_PER_BIN {
            let st = h.slot_state(slot);
            if st != SlotState::Valid && st != SlotState::Shadow {
                continue;
            }
            let Some(pair) = old.slot_pair(bin, meta, slot) else {
                continue;
            };
            // Swap in the transfer key with a dw-CAS so a racing Put either
            // lands before the copy (and is copied) or fails and retries on
            // the new index (§3.2.5 "Practically non-blocking operations").
            // A slot holding the fill key was published before the transfer
            // began, and its inserter is about to write the key: wait.
            let (key, value) = loop {
                let (k, v) = pair.load(Ordering::Acquire);
                if is_reserved_key(k) && k != fill {
                    break (k, v);
                }
                // ORDERING: fixed inside AtomicPair::compare_exchange (see
                // the Put path above for the same justification).
                if k != fill && pair.compare_exchange((k, v), (tkey, v)).is_ok() {
                    break (k, v);
                }
                std::hint::spin_loop();
            };
            if is_reserved_key(key) {
                continue;
            }
            // Grows further in the pathological case where the new index
            // also fills up mid-transfer; the chain forward from a live index
            // stays allocated while our EnterGuard protects its head.
            let target = new as *const Index as *mut Index;
            let _ = self.run(target, |idx| self.insert_in(idx, key, value, st));
        }
        // Publish completion.
        loop {
            let h2 = BinHeader(bin.header.load(Ordering::Acquire));
            let done = h2.with_bin_state(BinState::DoneTransfer);
            if bin
                .header
                .compare_exchange(h2.0, done.0, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return;
            }
        }
    }

    /// Free every retired index generation and record that no thread can
    /// reach anymore: advance the epoch (at most twice, as far as the
    /// entered threads allow), then free what is two epochs older than it.
    /// With no thread entered, one call frees all.
    pub fn collect_garbage(&self) {
        let Ok(mut retired) = self.retired.try_lock() else {
            return;
        };
        if retired.is_empty() && self.pending_records() == 0 {
            return;
        }
        // Every stamp is at most the current epoch.
        let epoch = self.registry.advance_to(self.registry.epoch() + 2);
        while let Some(&(stamp, front)) = retired.front() {
            if stamp + 2 > epoch {
                break;
            }
            retired.pop_front();
            // SAFETY: the index was swapped out of `current` before its
            // stamp was read, and the epoch has advanced twice since, so no
            // thread that could have read it is still entered.
            drop(unsafe { Box::from_raw(front as *mut Index) });
        }
        drop(retired);
        if let Some(free) = &self.free_record {
            self.registry
                .free_records(epoch, |addr| free(addr as *mut u8));
        }
    }

    /// Retire `record`, just unlinked from this record table by the caller
    /// on registry `slot`: it is freed once no thread can reach it.
    pub(crate) fn retire_record(&self, slot: usize, record: *mut u8) {
        if self.registry.retire(slot, record as usize) {
            self.collect_garbage();
        }
    }

    /// Records retired and not yet freed.
    pub(crate) fn pending_records(&self) -> usize {
        self.registry.pending_records()
    }

    /// Number of retired-but-not-yet-freed index generations (stats/tests).
    pub fn retired_indexes(&self) -> usize {
        self.retired.lock().unwrap().len()
    }

    // ------------------------------------------------------------------
    // Whole-table scans (len, iteration, occupancy)
    // ------------------------------------------------------------------

    /// Visit every live key-value pair (weakly consistent snapshot, §3.4.4).
    pub fn for_each(&self, mut f: impl FnMut(u64, u64)) {
        self.entered(|mut idx_ptr| {
            while !idx_ptr.is_null() {
                // SAFETY: `entered` pins the chain from the entered index on.
                let idx = unsafe { &*idx_ptr };
                idx.for_each_in(&mut f);
                idx_ptr = idx.next_ptr();
            }
        })
    }

    /// Number of live keys (linear scan; weakly consistent under concurrency).
    pub fn len(&self) -> usize {
        let mut n = 0;
        self.for_each(|_, _| n += 1);
        n
    }

    /// Whether the table holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of structural statistics (occupancy, link usage, resizes).
    pub fn stats(&self) -> crate::stats::TableStats {
        // SAFETY: `entered` pins the index for the closure.
        self.entered(|idx| crate::stats::TableStats::capture(unsafe { &*idx }, self.resizes()))
    }

    /// [`crate::TableStats::index_bytes`] of the current index, without the
    /// slot walk a full [`DlhtMap::stats`] pays.
    pub(crate) fn index_bytes(&self) -> usize {
        // SAFETY: `entered` pins the index for the closure.
        self.entered(|idx| unsafe { &*idx }.memory_bytes())
    }

    /// Generation number of the current index (0 until the first resize
    /// completes). Useful for observing resize progress in tests and
    /// benchmarks.
    pub fn current_generation(&self) -> u32 {
        // SAFETY: `entered` pins the index for the closure.
        self.entered(|idx| unsafe { (*idx).generation() })
    }
}

// ----------------------------------------------------------------------
// Bin scan, chaining and walk, shared with the single-thread map
// ----------------------------------------------------------------------

/// The bin reads and the link-bucket chaining use no [`DlhtMap`] state, so
/// [`crate::SingleThreadMap`] runs on them too: both modes find a key by one
/// scan, place it by one rule and walk a bin one way. Only the seqlock and
/// transfer checks of [`Index::probe`] are the concurrent map's alone.
impl Index {
    /// The one probe behind Get, Put and Delete (§3.2.1): a seqlock-style
    /// scan of `bin` for a `Valid` slot holding `key`, returned only if the
    /// header version did not move meanwhile. Usually a single cache line /
    /// memory access.
    // HOT: the per-request probe loop — must not panic.
    #[inline(always)]
    fn probe<'a>(&'a self, bin: &'a PrimaryBucket, key: u64) -> Probe<Option<Found<'a>>> {
        loop {
            let h = BinHeader(bin.header.load(Ordering::Acquire));
            match h.bin_state() {
                BinState::InTransfer => return Probe::Busy,
                BinState::DoneTransfer => return Probe::Moved,
                BinState::NoTransfer | BinState::Snapshot => {}
            }
            // No fill key: a slot whose insert has not written its key yet is
            // simply absent here.
            let found = self.scan_for_key(bin, h, key, |st| st == SlotState::Valid, None);
            let h2 = BinHeader(bin.header.load(Ordering::Acquire));
            if h2.version() == h.version() {
                return Probe::Done(found.unwrap_or(None));
            }
        }
    }

    /// Scan `bin` (under header snapshot `h`) for `key` among slots whose
    /// state passes `visible`. `Err(())` when a visible slot holds `fill`: an
    /// insert has published it but not yet written its key, so the answer is
    /// not known yet — reload the header and scan again.
    // HOT: inner bin scan shared by every probe.
    #[inline(always)]
    pub(crate) fn scan_for_key<'a>(
        &'a self,
        bin: &'a PrimaryBucket,
        h: BinHeader,
        key: u64,
        visible: impl Fn(SlotState) -> bool,
        fill: Option<u64>,
    ) -> Result<Option<Found<'a>>, ()> {
        let meta = LinkMeta(bin.link.load(Ordering::Acquire));
        // Only the slots that are not `Invalid`, lowest first.
        let mut live = h.live_mask();
        while live != 0 {
            let slot = live.trailing_zeros() as usize / 2;
            live &= live - 1;
            if !visible(h.slot_state(slot)) {
                continue;
            }
            let Some(pair) = self.slot_pair(bin, meta, slot) else {
                continue;
            };
            let k = pair.load_lo(Ordering::Acquire);
            if k == key {
                return Ok(Some((slot, pair, pair.load_hi(Ordering::Acquire))));
            }
            if Some(k) == fill {
                return Err(());
            }
        }
        Ok(None)
    }

    /// Make sure the link bucket(s) needed to address `slot` are chained to
    /// the bin, allocating from the index's pool if necessary. `Err(())`
    /// means the pool is exhausted and a resize is needed.
    pub(crate) fn ensure_chained(&self, bin: &PrimaryBucket, slot: usize) -> Result<(), ()> {
        let need = crate::bucket::required_chain(slot);
        if need == 0 {
            return Ok(());
        }
        loop {
            let meta = LinkMeta(bin.link.load(Ordering::Acquire));
            let missing_first = need >= 1 && meta.first() == NO_LINK;
            let missing_pair = need >= 2 && meta.pair() == NO_LINK;
            if need == 1 && !missing_first {
                return Ok(());
            }
            if need == 2 && !missing_pair {
                return Ok(());
            }
            if missing_first && need == 1 {
                let Some(l) = self.alloc_link_buckets(1) else {
                    return Err(());
                };
                let new_meta = meta.with_first(l);
                // If the CAS fails someone else chained concurrently; the
                // allocated bucket is abandoned (bounded waste, as in the
                // paper's fetch-add allocation scheme).
                let _ = bin.link.compare_exchange(
                    meta.0,
                    new_meta.0,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
                continue;
            }
            if missing_pair {
                let Some(l) = self.alloc_link_buckets(2) else {
                    return Err(());
                };
                let new_meta = meta.with_pair(l);
                let _ = bin.link.compare_exchange(
                    meta.0,
                    new_meta.0,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
                continue;
            }
            return Ok(());
        }
    }

    /// Visit every `Valid` pair of this index's untransferred bins. Each
    /// bin's pairs are collected on the stack and handed to `f` only once
    /// the header version shows the bin did not change meanwhile.
    pub(crate) fn for_each_in(&self, f: &mut impl FnMut(u64, u64)) {
        for bin_no in 0..self.num_bins() {
            let bin = self.bin(bin_no);
            loop {
                let h = BinHeader(bin.header.load(Ordering::Acquire));
                match h.bin_state() {
                    // Transferred bins are visited through the next index.
                    BinState::DoneTransfer => break,
                    BinState::InTransfer => {
                        std::hint::spin_loop();
                        continue;
                    }
                    BinState::NoTransfer | BinState::Snapshot => {}
                }
                let meta = LinkMeta(bin.link.load(Ordering::Acquire));
                let mut pairs = [(0u64, 0u64); SLOTS_PER_BIN];
                let mut n = 0;
                for slot in 0..h.occupied_extent() {
                    if h.slot_state(slot) != SlotState::Valid {
                        continue;
                    }
                    let Some(pair) = self.slot_pair(bin, meta, slot) else {
                        continue;
                    };
                    let k = pair.load_lo(Ordering::Acquire);
                    if is_reserved_key(k) {
                        continue;
                    }
                    pairs[n] = (k, pair.load_hi(Ordering::Acquire));
                    n += 1;
                }
                let h2 = BinHeader(bin.header.load(Ordering::Acquire));
                if h2.version() == h.version() {
                    for &(k, v) in &pairs[..n] {
                        f(k, v);
                    }
                    break;
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Structural invariant sweep (debug/test support)
// ----------------------------------------------------------------------

impl DlhtMap {
    /// Walk every index generation, bin, and slot and verify the table's
    /// structural invariants, returning a description of the first violation.
    ///
    /// Intended for *quiescent points* in tests — the torture and
    /// model-differential suites run it between workload phases. The sweep
    /// pins the index chain with an `EnterGuard` so nothing is freed
    /// underneath it, but concurrent mutators can make per-bin checks fail
    /// spuriously, so do not call it while a workload is running.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.registry.check_invariants()?;
        {
            // The retired list must never hold null or duplicate pointers —
            // either would become a bad free in `collect_garbage` — and its
            // stamps must not decrease, or an oldest-first free stops early.
            let retired = self.retired.lock().unwrap();
            for (i, &(stamp, p)) in retired.iter().enumerate() {
                if p == 0 {
                    return Err(format!("retired[{i}] is null"));
                }
                if retired.iter().skip(i + 1).any(|&(_, q)| q == p) {
                    return Err(format!("retired[{i}] {p:#x} appears twice"));
                }
                if retired.get(i + 1).is_some_and(|&(next, _)| next < stamp) {
                    return Err(format!("retired[{i}] stamp {stamp} above the next one"));
                }
            }
        }
        let guard = self.enter();
        let mut ptr = guard.index_ptr();
        let mut prev_generation: Option<u32> = None;
        let mut result = Ok(());
        while !ptr.is_null() {
            // SAFETY: the chain is pinned by `guard`: every index from the
            // entered one onward was retired after the announcement, so it
            // is not freed before the guard drops.
            let idx = unsafe { &*ptr };
            let next = idx.next_ptr();
            if let Some(prev) = prev_generation {
                if idx.generation() <= prev {
                    result = Err(format!(
                        "index chain generations not increasing: {} then {}",
                        prev,
                        idx.generation()
                    ));
                    break;
                }
            }
            prev_generation = Some(idx.generation());
            result = Self::check_index(idx, !next.is_null());
            if result.is_err() {
                break;
            }
            ptr = next;
        }
        drop(guard);
        result
    }

    /// Invariants local to one index generation.
    fn check_index(idx: &Index, has_next: bool) -> Result<(), String> {
        let g = idx.generation();
        if idx.chunks_done() > idx.num_chunks() {
            return Err(format!(
                "gen {g}: chunks_done {} exceeds num_chunks {}",
                idx.chunks_done(),
                idx.num_chunks()
            ));
        }
        if idx.fully_transferred() && !has_next {
            return Err(format!("gen {g}: fully transferred but no next index"));
        }
        let mut keys: Vec<u64> = Vec::with_capacity(SLOTS_PER_BIN);
        for b in 0..idx.num_bins() {
            let bin = idx.bin(b);
            let h = BinHeader(bin.header.load(Ordering::Acquire));
            let meta = LinkMeta(bin.link.load(Ordering::Acquire));
            let links_used = idx.links_used();
            if meta.first() != NO_LINK && (meta.first() as usize) >= links_used {
                return Err(format!(
                    "gen {g} bin {b}: first link {} outside handed-out range {links_used}",
                    meta.first()
                ));
            }
            if meta.pair() != NO_LINK && (meta.pair() as usize + 2) > links_used {
                return Err(format!(
                    "gen {g} bin {b}: pair link {} outside handed-out range {links_used}",
                    meta.pair()
                ));
            }
            if h.bin_state() == BinState::DoneTransfer && !has_next {
                return Err(format!("gen {g} bin {b}: DoneTransfer but no next index"));
            }
            keys.clear();
            let extent = h.occupied_extent();
            for slot in 0..extent {
                let st = h.slot_state(slot);
                if st == SlotState::Invalid {
                    continue;
                }
                let Some(pair) = idx.slot_pair(bin, meta, slot) else {
                    return Err(format!(
                        "gen {g} bin {b} slot {slot}: state {st:?} but its link bucket is not chained"
                    ));
                };
                if st != SlotState::Valid {
                    continue;
                }
                let key = pair.load_lo(Ordering::Acquire);
                if is_reserved_key(key) {
                    // Transfer keys are legal only in bins the resize has
                    // touched.
                    if h.bin_state() == BinState::NoTransfer {
                        return Err(format!(
                            "gen {g} bin {b} slot {slot}: reserved transfer key in a NoTransfer bin"
                        ));
                    }
                    continue;
                }
                if h.bin_state() == BinState::NoTransfer && idx.bin_of(key) != b {
                    return Err(format!(
                        "gen {g} bin {b} slot {slot}: key {key:#x} hashes to bin {}",
                        idx.bin_of(key)
                    ));
                }
                if keys.contains(&key) {
                    return Err(format!("gen {g} bin {b}: duplicate key {key:#x}"));
                }
                keys.push(key);
            }
        }
        Ok(())
    }
}

impl Drop for DlhtMap {
    fn drop(&mut self) {
        // Exclusive access: free every retired record and generation, then
        // the live chain.
        if let Some(free) = &self.free_record {
            // Whatever the stamps: no thread can enter anymore.
            self.registry
                .free_records(u64::MAX, |addr| free(addr as *mut u8));
        }
        let mut retired = std::mem::take(&mut *self.retired.lock().unwrap());
        for (_, ptr) in retired.drain(..) {
            // SAFETY: exclusive access on drop.
            drop(unsafe { Box::from_raw(ptr as *mut Index) });
        }
        let mut ptr = self.current.load(Ordering::Acquire);
        while !ptr.is_null() {
            // SAFETY: exclusive access on drop; walk the remaining chain.
            let next = unsafe { (*ptr).next_ptr() };
            // SAFETY: each chain node was Box::into_raw'd at creation and is
            // freed exactly once here.
            drop(unsafe { Box::from_raw(ptr) });
            ptr = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlht_hash::HashKind;

    fn small_table() -> DlhtMap {
        DlhtMap::with_config(DlhtConfig::new(64).with_chunk_bins(16))
    }

    #[test]
    fn insert_get_delete_roundtrip() {
        let t = small_table();
        assert_eq!(t.get(1), None);
        assert!(t.insert(1, 100).unwrap().inserted());
        assert_eq!(t.get(1), Some(100));
        assert!(t.contains(1));
        assert_eq!(t.delete(1), Some(100));
        assert_eq!(t.get(1), None);
        assert_eq!(t.delete(1), None);
    }

    #[test]
    fn duplicate_inserts_are_rejected() {
        let t = small_table();
        assert!(t.insert(7, 70).unwrap().inserted());
        assert_eq!(t.insert(7, 71).unwrap(), InsertOutcome::AlreadyExists(70));
        assert_eq!(t.get(7), Some(70));
    }

    #[test]
    fn put_updates_only_existing_keys() {
        let t = small_table();
        assert_eq!(t.put(9, 1), None);
        let _ = t.insert(9, 90).unwrap();
        assert_eq!(t.put(9, 91), Some(90));
        assert_eq!(t.get(9), Some(91));
    }

    #[test]
    fn deleted_slots_are_reused_immediately() {
        // One bin (all keys collide); 15 slots max. Insert/delete cycles far
        // beyond 15 keys must succeed without a resize.
        let cfg = DlhtConfig::new(2)
            .with_link_ratio(1)
            .with_resizing(false)
            .with_hash(HashKind::Modulo);
        let t = DlhtMap::with_config(cfg);
        for i in 0..200u64 {
            let key = i * 2; // all even keys -> bin 0
            assert!(t.insert(key, i).unwrap().inserted(), "insert {i}");
            assert_eq!(t.delete(key), Some(i));
        }
        assert_eq!(t.resizes(), 0);
        assert!(t.is_empty());
    }

    #[test]
    fn full_bin_without_resizing_reports_table_full() {
        let cfg = DlhtConfig::new(2).with_link_ratio(1).with_resizing(false);
        let t = DlhtMap::with_config(cfg);
        let mut inserted = 0;
        let mut full = false;
        for i in 0..64u64 {
            match t.insert(i * 2, i) {
                Ok(o) if o.inserted() => inserted += 1,
                Ok(_) => {}
                Err(DlhtError::TableFull) => {
                    full = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(full, "bin should eventually fill");
        assert!(inserted >= 3, "at least the primary bucket fits");
    }

    #[test]
    fn reserved_keys_are_rejected() {
        let t = small_table();
        assert_eq!(t.insert(u64::MAX, 1), Err(DlhtError::ReservedKey));
        assert_eq!(t.insert(u64::MAX - 1, 1), Err(DlhtError::ReservedKey));
        assert_eq!(t.get(u64::MAX), None);
        assert_eq!(t.delete(u64::MAX), None);
        assert_eq!(t.put(u64::MAX, 2), None);
    }

    #[test]
    fn shadow_insert_lifecycle() {
        let t = small_table();
        assert!(t.insert_shadow(5, 50).unwrap().inserted());
        // Hidden from reads and deletes until committed.
        assert_eq!(t.get(5), None);
        assert_eq!(t.delete(5), None);
        // But a second insert sees it (the key is "locked").
        assert!(!t.insert(5, 51).unwrap().inserted());
        assert!(t.commit_shadow(5, true));
        assert_eq!(t.get(5), Some(50));
        // Abort path.
        assert!(t.insert_shadow(6, 60).unwrap().inserted());
        assert!(t.commit_shadow(6, false));
        assert_eq!(t.get(6), None);
        assert!(t.insert(6, 61).unwrap().inserted());
    }

    #[test]
    fn chaining_extends_a_bin_past_three_slots() {
        let cfg = DlhtConfig::new(2).with_link_ratio(1).with_resizing(false);
        let t = DlhtMap::with_config(cfg);
        // All even keys collide into bin 0; 15 slots available (3 + 4 + 4 + 4)
        // but the pool only has 2 link buckets for 2 bins... link_ratio 1 =>
        // 2 link buckets, so bin 0 can chain first(1 bucket) + pair(2) only if
        // available; expect at least 3 + 4 = 7 inserts to succeed.
        let mut ok = 0;
        for i in 0..32u64 {
            match t.insert(i * 2, i) {
                Ok(o) if o.inserted() => ok += 1,
                _ => break,
            }
        }
        assert!(ok >= 7, "expected chaining to allow >= 7 keys, got {ok}");
        for i in 0..ok {
            assert_eq!(t.get(i * 2), Some(i), "key {i} must survive chaining");
        }
    }

    #[test]
    fn resize_preserves_all_keys() {
        let cfg = DlhtConfig::new(8)
            .with_chunk_bins(4)
            .with_hash(HashKind::WyHash);
        let t = DlhtMap::with_config(cfg);
        const N: u64 = 5_000;
        for i in 0..N {
            assert!(t.insert(i, i * 10).unwrap().inserted(), "insert {i}");
        }
        assert!(t.resizes() > 0, "the table must have grown");
        for i in 0..N {
            assert_eq!(t.get(i), Some(i * 10), "key {i} lost after resize");
        }
        assert_eq!(t.len(), N as usize);
    }

    #[test]
    fn stats_reflect_occupancy() {
        let t = small_table();
        for i in 0..50u64 {
            let _ = t.insert(i, i).unwrap();
        }
        let s = t.stats();
        assert_eq!(s.occupied_slots, 50);
        assert!(s.occupancy > 0.0 && s.occupancy <= 1.0);
        assert_eq!(s.resizes, 0);
    }

    #[test]
    fn for_each_sees_all_pairs() {
        let t = small_table();
        for i in 0..100u64 {
            let _ = t.insert(i, i + 1000).unwrap();
        }
        let mut seen = std::collections::HashMap::new();
        t.for_each(|k, v| {
            seen.insert(k, v);
        });
        assert_eq!(seen.len(), 100);
        for i in 0..100u64 {
            assert_eq!(seen[&i], i + 1000);
        }
    }

    #[test]
    fn iterates_all_pairs_exactly_once() {
        let t = DlhtMap::with_config(DlhtConfig::new(128));
        for k in 0..64u64 {
            let _ = t.insert(k, k + 1).unwrap();
        }
        let mut seen = std::collections::HashSet::new();
        t.for_each(|k, v| {
            assert_eq!(v, k + 1);
            assert!(seen.insert(k), "key {k} yielded twice");
        });
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn concurrent_iteration_sees_stable_keys() {
        let t = std::sync::Arc::new(DlhtMap::with_config(DlhtConfig::new(512)));
        for k in 0..100u64 {
            let _ = t.insert(k, 1).unwrap();
        }
        std::thread::scope(|s| {
            // Churn on a disjoint key range.
            {
                let t = std::sync::Arc::clone(&t);
                s.spawn(move || {
                    for round in 0..50u64 {
                        for k in 1_000..1_050u64 {
                            let _ = t.insert(k, round).unwrap();
                        }
                        for k in 1_000..1_050u64 {
                            t.delete(k);
                        }
                    }
                });
            }
            for _ in 0..4 {
                let t = std::sync::Arc::clone(&t);
                s.spawn(move || {
                    let mut stable = 0;
                    t.for_each(|k, _| stable += usize::from(k < 100));
                    assert_eq!(stable, 100, "stable keys must always be present");
                });
            }
        });
    }

    #[test]
    fn concurrent_inserts_one_winner_per_key() {
        use std::sync::atomic::AtomicUsize;
        let t = std::sync::Arc::new(DlhtMap::with_config(
            DlhtConfig::new(512).with_hash(HashKind::WyHash),
        ));
        let wins = std::sync::Arc::new(AtomicUsize::new(0));
        const THREADS: usize = 4;
        const KEYS: u64 = 2_000;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let t = std::sync::Arc::clone(&t);
                let wins = std::sync::Arc::clone(&wins);
                s.spawn(move || {
                    for k in 0..KEYS {
                        if t.insert(k, k).unwrap().inserted() {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(
            wins.load(Ordering::Relaxed),
            KEYS as usize,
            "every key must have exactly one successful insert"
        );
        assert_eq!(t.len(), KEYS as usize);
    }

    #[test]
    fn concurrent_insert_delete_get_stress() {
        let t = std::sync::Arc::new(DlhtMap::with_config(
            DlhtConfig::new(1024).with_hash(HashKind::WyHash),
        ));
        // Pre-populate a stable set that is never deleted.
        for k in 0..500u64 {
            let _ = t.insert(k, k * 3).unwrap();
        }
        std::thread::scope(|s| {
            // Mutators: insert/delete their own disjoint key ranges.
            for tid in 0..3u64 {
                let t = std::sync::Arc::clone(&t);
                s.spawn(move || {
                    let base = 10_000 + tid * 10_000;
                    for round in 0..dlht_util::miri_scaled(200) {
                        for k in 0..20u64 {
                            let key = base + k;
                            assert!(t.insert(key, round).unwrap().inserted());
                        }
                        for k in 0..20u64 {
                            let key = base + k;
                            assert_eq!(t.delete(key), Some(round));
                        }
                    }
                });
            }
            // Readers: the stable set must always be visible and correct.
            for _ in 0..2 {
                let t = std::sync::Arc::clone(&t);
                s.spawn(move || {
                    for _ in 0..dlht_util::miri_scaled(2_000) {
                        let k = 499;
                        assert_eq!(t.get(k), Some(k * 3));
                        assert_eq!(t.get(77), Some(77 * 3));
                        assert_eq!(t.get(100_000_000), None);
                    }
                });
            }
        });
        assert_eq!(t.len(), 500);
    }

    #[test]
    fn concurrent_puts_last_value_wins_and_no_corruption() {
        let t = std::sync::Arc::new(small_table());
        let _ = t.insert(42, 0).unwrap();
        let per_thread = dlht_util::miri_scaled(5_000);
        std::thread::scope(|s| {
            for tid in 1..=4u64 {
                let t = std::sync::Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..per_thread {
                        let v = tid * 1_000_000 + i;
                        assert!(t.put(42, v).is_some());
                    }
                });
            }
        });
        let v = t.get(42).unwrap();
        let tid = v / 1_000_000;
        let i = v % 1_000_000;
        assert!((1..=4).contains(&tid));
        assert!(i < per_thread);
    }

    #[test]
    fn gets_remain_correct_during_concurrent_resize() {
        let cfg = DlhtConfig::new(8)
            .with_chunk_bins(2)
            .with_hash(HashKind::WyHash);
        let t = std::sync::Arc::new(DlhtMap::with_config(cfg));
        for k in 0..200u64 {
            let _ = t.insert(k, k + 7).unwrap();
        }
        let growth_keys = dlht_util::miri_scaled(5_000);
        std::thread::scope(|s| {
            // Writer drives repeated growth.
            {
                let t = std::sync::Arc::clone(&t);
                s.spawn(move || {
                    for k in 1_000..1_000 + growth_keys {
                        let _ = t.insert(k, k).unwrap();
                    }
                });
            }
            // Readers check the stable keys throughout.
            for _ in 0..3 {
                let t = std::sync::Arc::clone(&t);
                s.spawn(move || {
                    for _ in 0..dlht_util::miri_scaled(3_000) {
                        for k in [0u64, 50, 199] {
                            assert_eq!(t.get(k), Some(k + 7));
                        }
                    }
                });
            }
        });
        assert!(t.resizes() >= 1);
        for k in 0..200u64 {
            assert_eq!(t.get(k), Some(k + 7));
        }
        for k in 1_000..1_000 + growth_keys {
            assert_eq!(t.get(k), Some(k));
        }
        // After the dust settles, retired indexes should be collectable.
        t.collect_garbage();
        assert_eq!(t.retired_indexes(), 0);
    }

    #[test]
    fn basic_api() {
        let m = DlhtMap::with_capacity(100);
        assert!(m.is_empty());
        let _ = m.insert(1, 10).unwrap();
        let _ = m.insert(2, 20).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(1), Some(10));
        assert_eq!(m.put(2, 21), Some(20));
        assert_eq!(m.delete(1), Some(10));
        assert!(!m.contains(1));
        assert!(m.contains(2));
    }

    #[test]
    fn upsert_inserts_then_updates() {
        let m = DlhtMap::with_capacity(16);
        assert_eq!(m.upsert(5, 1).unwrap(), None);
        assert_eq!(m.upsert(5, 2).unwrap(), Some(1));
        assert_eq!(m.get(5), Some(2));
    }

    #[test]
    fn upsert_propagates_insert_errors() {
        let m = DlhtMap::with_capacity(16);
        assert_eq!(m.upsert(u64::MAX, 1), Err(DlhtError::ReservedKey));
        // A tiny fixed-size table eventually reports TableFull.
        let full = DlhtMap::with_config(crate::DlhtConfig::new(2).with_resizing(false));
        let mut saw_full = false;
        for k in 0..1_000u64 {
            match full.upsert(k, k) {
                Ok(_) => {}
                Err(DlhtError::TableFull) => {
                    saw_full = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(saw_full);
    }

    #[test]
    fn concurrent_upserts_from_many_threads() {
        let m = std::sync::Arc::new(DlhtMap::with_capacity(10_000));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let m = std::sync::Arc::clone(&m);
                s.spawn(move || {
                    for k in 0..1_000u64 {
                        m.upsert(k, t).unwrap();
                    }
                });
            }
        });
        assert_eq!(m.len(), 1_000);
        for k in 0..1_000u64 {
            assert!(m.get(k).unwrap() < 4);
        }
    }

    #[test]
    fn a_nested_enter_keeps_the_outer_enters_protection() {
        let map = DlhtMap::with_config(DlhtConfig::new(4).with_chunk_bins(2));
        for k in 0..4u64 {
            assert!(map.insert(k, k).unwrap().inserted());
        }
        let outer = map.enter();
        // An enter and leave nested inside `outer`, as a `for_each` closure
        // that calls `get` makes.
        assert_eq!(map.get(1), Some(1));
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut k = 100u64;
                while map.resizes() == 0 {
                    assert!(map.insert(k, k).unwrap().inserted());
                    k += 1;
                }
                map.collect_garbage();
            });
        });
        // The index `outer` entered on must survive the collection (it is
        // only compared here, never dereferenced).
        assert_ne!(outer.index_ptr(), map.current_unpinned() as *mut Index);
        assert_eq!(map.retired_indexes(), 1, "freed under a live outer enter");
        drop(outer);
        map.collect_garbage();
        assert_eq!(map.retired_indexes(), 0);
    }

    #[test]
    fn one_type_serves_every_entry_point() {
        use crate::kv::KvBackend;
        use crate::sharded::ShardedTable;
        let map = DlhtMap::with_capacity(64);
        assert!(std::ptr::eq(map.session().table(), &map));
        assert!(std::ptr::eq(map.raw(), &map));
        assert_eq!(<DlhtMap as KvBackend>::name(&map), "DLHT");
        assert_eq!(ShardedTable::with_capacity(4, 64).name(), "DLHT-4shards");
    }
}

/// Exact-reclamation accounting for records retired into a table: every
/// retired item is freed exactly once — through epoch advances, through
/// another session's collection, and at the table's drop — and nothing is
/// freed while a reader that could hold it is entered.
#[cfg(test)]
mod drop_count {
    use super::*;
    use dlht_util::miri_scaled;
    use std::sync::atomic::AtomicUsize;

    /// A payload that counts its drops and detects double frees: dropping
    /// it twice underflows the live counter and panics.
    struct Tracked {
        drops: Arc<AtomicUsize>,
        live: Arc<AtomicUsize>,
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::SeqCst);
            let was = self.live.fetch_sub(1, Ordering::SeqCst);
            assert!(was > 0, "double drop detected");
        }
    }

    #[derive(Default)]
    struct Counts {
        drops: Arc<AtomicUsize>,
        live: Arc<AtomicUsize>,
    }

    impl Counts {
        fn item(&self) -> *mut u8 {
            self.live.fetch_add(1, Ordering::SeqCst);
            let item = Box::new(Tracked {
                drops: Arc::clone(&self.drops),
                live: Arc::clone(&self.live),
            });
            Box::into_raw(item).cast()
        }

        fn drops(&self) -> usize {
            self.drops.load(Ordering::SeqCst)
        }

        fn live(&self) -> usize {
            self.live.load(Ordering::SeqCst)
        }
    }

    /// A record table whose "records" are `Tracked` boxes.
    fn table() -> DlhtMap {
        // SAFETY: the table frees each item it retired once, and every
        // retired item came from `Counts::item`'s `Box::into_raw`.
        let free = |p: *mut u8| drop(unsafe { Box::from_raw(p.cast::<Tracked>()) });
        DlhtMap::for_records(DlhtConfig::new(16), Arc::new(free))
    }

    #[test]
    fn every_retired_item_is_freed_exactly_once() {
        let counts = Counts::default();
        let map = table();
        let session = map.session();
        let total = miri_scaled(300) as usize;
        for i in 0..total {
            session.retire(counts.item());
            if i % 5 == 0 {
                map.collect_garbage();
            }
            // Nothing is freed early or lost: what is not freed is pending.
            assert_eq!(counts.live(), map.pending_records());
            assert_eq!(counts.drops() + map.pending_records(), i + 1);
            map.check_invariants().expect("invariants mid-retire");
        }
        // No thread is entered, so one collection frees the rest...
        map.collect_garbage();
        assert_eq!(map.pending_records(), 0);
        assert_eq!(counts.drops(), total);
        // ...and the drop frees nothing twice.
        drop(map);
        assert_eq!(counts.drops(), total);
        assert_eq!(counts.live(), 0);
    }

    #[test]
    fn a_dropped_sessions_garbage_is_freed_by_a_surviving_session() {
        let counts = Counts::default();
        let map = table();
        let survivor = map.session();
        let per_session = miri_scaled(100) as usize;
        // The survivor stays entered while the others come and go, so
        // nothing they retire can be freed yet.
        let pin = survivor.enter();
        for _ in 0..4 {
            // Each short-lived session retires on its own thread, and the
            // thread exits (releasing its slot) with the garbage unfreed.
            std::thread::scope(|s| {
                s.spawn(|| {
                    let session = map.session();
                    for _ in 0..per_session {
                        session.retire(counts.item());
                    }
                    map.collect_garbage();
                });
            });
        }
        assert_eq!(counts.drops(), 0, "freed under a live enter");
        assert_eq!(map.pending_records(), 4 * per_session);
        map.check_invariants()
            .expect("invariants with departed sessions");
        // The survivor's collection frees every departed session's garbage.
        drop(pin);
        map.collect_garbage();
        assert_eq!(counts.drops(), 4 * per_session);
        assert_eq!(counts.live(), 0);
    }

    #[test]
    fn multithreaded_churn_loses_and_doubles_nothing() {
        let counts = Counts::default();
        let map = table();
        const THREADS: usize = 4;
        let per_thread = miri_scaled(400) as usize;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (map, counts) = (&map, &counts);
                s.spawn(move || {
                    let session = map.session();
                    for i in 0..per_thread {
                        // Readers stay entered across some retirements.
                        let pin = (i % 7 < 3).then(|| session.enter());
                        session.retire(counts.item());
                        drop(pin);
                        if i % (3 + t) == 0 {
                            map.collect_garbage();
                        }
                    }
                });
            }
        });
        assert_eq!(counts.drops() + map.pending_records(), THREADS * per_thread);
        map.check_invariants().expect("invariants after the churn");
        drop(map);
        assert_eq!(counts.drops(), THREADS * per_thread);
        assert_eq!(counts.live(), 0);
    }

    #[test]
    fn everything_left_is_freed_when_the_table_is_dropped() {
        let counts = Counts::default();
        let map = table();
        let total = miri_scaled(100) as usize;
        let session = map.session();
        let pin = session.enter();
        for _ in 0..total {
            session.retire(counts.item());
        }
        map.collect_garbage();
        assert_eq!(counts.drops(), 0, "freed under a live enter");
        drop(pin);
        drop(map);
        assert_eq!(counts.drops(), total);
        assert_eq!(counts.live(), 0);
    }
}
