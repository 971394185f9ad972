//! The Allocator mode (§3.1, mode 2): keys and/or values larger than 8 bytes
//! are stored in out-of-line records obtained from a [`ValueAllocator`]; the
//! slot's value word holds a [`TaggedPtr`] to the record. The record layout,
//! key words and record reclamation live in [`crate::record`]; this map uses
//! them with no per-record metadata.
//!
//! Features implemented here, as described by the paper:
//!
//! * **Pointer API** (§3.2.1): a Get can expose the record so the client
//!   modifies the value in place ([`AllocSession::with_value_ptr`]);
//!   [`AllocSession::replace_with`] swaps in a whole new record with one Put
//!   of its pointer.
//! * **Variable-size keys and values in a single index** (§3.4.1): when
//!   enabled, every record carries its own key/value lengths.
//! * **Namespaces** (§3.4.2): a 12-bit namespace id packed in the tagged
//!   pointer; keys in different namespaces never conflict.
//! * **Epoch-based GC for deletes** (§3.2.3): a deleted or replaced record
//!   is retired into the table and freed two epoch advances later, by the
//!   enter/leave protocol that frees old indexes (`registry.rs`).
//!
//! Threads interact through an [`AllocSession`], a [`Session`] on the
//! index. Each record read happens inside one enter, which keeps the record
//! alive, so a session between calls holds nothing back.

use crate::config::DlhtConfig;
use crate::error::{DlhtError, InsertOutcome};
use crate::record::{key_word, Records};
use crate::session::Session;
use crate::stats::TableStats;
use crate::table::{DlhtMap, EnterGuard};
use crate::tagged_ptr::TaggedPtr;
use dlht_alloc::ValueAllocator;
use std::sync::Arc;

/// Concurrent map for out-of-line (≥ 8 B) keys and values.
pub struct DlhtAllocMap {
    table: DlhtMap,
    records: Arc<Records<()>>,
}

impl DlhtAllocMap {
    /// Create an Allocator-mode map.
    ///
    /// `fixed_key_len` / `fixed_val_len` define the record layout when
    /// variable-size support is disabled in `config`; they are ignored (and
    /// may be 0) when it is enabled.
    pub fn new(
        config: DlhtConfig,
        allocator: Arc<dyn ValueAllocator>,
        fixed_key_len: usize,
        fixed_val_len: usize,
    ) -> Self {
        let fixed = (!config.variable_size).then_some((fixed_key_len, fixed_val_len));
        let records = Arc::new(Records::new(allocator, fixed));
        let free = {
            let records = Arc::clone(&records);
            // SAFETY: the table calls its free hook once per record it
            // retired, after no reader can reach the record.
            Arc::new(move |ptr| unsafe { records.free(ptr) })
        };
        DlhtAllocMap {
            table: DlhtMap::for_records(config, free),
            records,
        }
    }

    /// Convenience constructor sized for `keys` fixed-size pairs.
    pub fn with_capacity(keys: usize, key_len: usize, val_len: usize) -> Self {
        Self::new(
            DlhtConfig::for_capacity(keys),
            dlht_alloc::AllocatorKind::Pool.build(),
            key_len,
            val_len,
        )
    }

    /// Open a per-thread session (cheap: it caches the thread's slot).
    pub fn session(&self) -> AllocSession<'_> {
        AllocSession {
            map: self,
            session: self.table.session(),
        }
    }

    /// Structural statistics of the index.
    pub fn stats(&self) -> TableStats {
        self.table.stats()
    }

    /// Number of live keys (linear scan).
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The active configuration.
    pub fn config(&self) -> &DlhtConfig {
        self.table.config()
    }

    /// [`key_word`] of `key` under `namespace` (the fingerprint seed). With
    /// namespaces enabled every key is fingerprinted, because the namespace
    /// must separate equal keys.
    fn word(&self, namespace: u16, key: &[u8]) -> (u64, bool) {
        key_word(key, namespace as u64 + 1, !self.config().namespaces)
    }

    /// Write a record for `key -> value` and tag its pointer with
    /// `namespace`.
    fn new_record(&self, namespace: u16, key: &[u8], value: &[u8]) -> Result<TaggedPtr, DlhtError> {
        self.records.check(key, value)?;
        let record = self.records.write(key, value, ());
        let inline_size = if key.len() <= 8 { key.len() } else { 0 };
        TaggedPtr::pack(record, namespace, inline_size).inspect_err(|_| {
            // SAFETY: just written and never published.
            unsafe { self.records.free(record) };
        })
    }
}

impl Drop for DlhtAllocMap {
    fn drop(&mut self) {
        self.table.for_each(|_, word| {
            // SAFETY: `&mut self` means no session is open, so no reader can
            // reach a record; the index links each record once. Retired
            // records are not linked: the table's drop frees those.
            unsafe { self.records.free(TaggedPtr(word).ptr()) }
        });
    }
}

/// Per-thread session over a [`DlhtAllocMap`]: a [`Session`] on its index,
/// and like one not `Send`.
pub struct AllocSession<'a> {
    map: &'a DlhtAllocMap,
    session: Session<'a>,
}

impl AllocSession<'_> {
    /// Insert `key -> value` under `namespace`. Returns `Ok(false)` if the key
    /// already exists (the existing value is left untouched).
    pub fn insert(&mut self, namespace: u16, key: &[u8], value: &[u8]) -> Result<bool, DlhtError> {
        let tagged = self.map.new_record(namespace, key, value)?;
        let (word, _) = self.map.word(namespace, key);
        let result = self.session.insert(word, tagged.0);
        if !matches!(result, Ok(InsertOutcome::Inserted)) {
            // The paper notes the Insert may fail after allocating; the
            // allocation is released before returning (§3.2.2 Allocator).
            // SAFETY: the record was never published.
            unsafe { self.map.records.free(tagged.ptr()) };
        }
        result.map(|outcome| outcome.inserted())
    }

    /// Issue a software prefetch for the index bin `key` hashes to under
    /// `namespace` — the batch/pipeline interoperation hook (§3.3): prefetch
    /// a handful of keys, then issue the lookups, so the random index
    /// accesses overlap.
    pub fn prefetch(&mut self, namespace: u16, key: &[u8]) {
        let (word, _) = self.map.word(namespace, key);
        self.session.prefetch(word);
    }

    /// The key word of `key` and the tagged record pointer it maps to,
    /// verified against the stored key when the word is a fingerprint. The
    /// record stays readable while `entered` is held.
    fn find(&self, entered: &EnterGuard, namespace: u16, key: &[u8]) -> Option<(u64, TaggedPtr)> {
        let (word, exact) = self.map.word(namespace, key);
        let tagged = TaggedPtr(entered.get(word)?);
        // SAFETY: the record was linked in the index after `entered`
        // announced, so it is not freed before the guard drops.
        let holds = unsafe { self.map.records.holds(tagged.ptr(), key, exact) };
        (tagged.namespace() == namespace && holds).then_some((word, tagged))
    }

    /// Look up `key`, invoking `f` on the value bytes without copying them
    /// (the pointer API of §3.2.1). The lookup, the key check and `f` run
    /// inside one enter.
    pub fn get_with<R>(
        &mut self,
        namespace: u16,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> Option<R> {
        let entered = self.session.enter();
        let (_, tagged) = self.find(&entered, namespace, key)?;
        // SAFETY: `find` returns a record that `entered` keeps alive.
        Some(f(unsafe { self.map.records.value(tagged.ptr()) }))
    }

    /// Look up `key` and return a copy of its value bytes.
    pub fn get(&mut self, namespace: u16, key: &[u8]) -> Option<Vec<u8>> {
        self.get_with(namespace, key, |v| v.to_vec())
    }

    /// Pointer API for in-place modification: calls `f` with the raw value
    /// pointer and length, which stay valid while `f` runs. The caller is
    /// responsible for coordinating concurrent writers (e.g. with a lock
    /// embedded in the value, as the paper's transactional clients do).
    pub fn with_value_ptr<R>(
        &mut self,
        namespace: u16,
        key: &[u8],
        f: impl FnOnce(*mut u8, usize) -> R,
    ) -> Option<R> {
        let entered = self.session.enter();
        let (_, tagged) = self.find(&entered, namespace, key)?;
        // SAFETY: `find` returns a record that `entered` keeps alive.
        let (ptr, len) = unsafe { self.map.records.value_ptr(tagged.ptr()) };
        Some(f(ptr, len))
    }

    /// Whether `key` exists under `namespace`.
    pub fn contains(&mut self, namespace: u16, key: &[u8]) -> bool {
        let entered = self.session.enter();
        self.find(&entered, namespace, key).is_some()
    }

    /// Replace the value of an existing `key` with `value`, calling `f` on
    /// the previous value; `Ok(None)` when the key is absent.
    ///
    /// The new record is published by one Put of its pointer (§3.2.4), so a
    /// concurrent reader sees either the old or the new value, never a gap;
    /// the old record is retired and freed once no reader can reach it. The
    /// Put lands only if the key still holds the record `find` verified, so
    /// a racing write or a colliding fingerprint sends us back to `find`.
    /// One enter covers the whole exchange, so no record `find` verified can
    /// be freed (and its address reused) before the Put compares it.
    pub fn replace_with<R>(
        &mut self,
        namespace: u16,
        key: &[u8],
        value: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<Option<R>, DlhtError> {
        let entered = self.session.enter();
        let Some((word, mut old)) = self.find(&entered, namespace, key) else {
            return Ok(None);
        };
        let new = self.map.new_record(namespace, key, value)?;
        while entered.put_if(word, old.0, new.0).is_err() {
            let Some((_, cur)) = self.find(&entered, namespace, key) else {
                // SAFETY: the record was never published.
                unsafe { self.map.records.free(new.ptr()) };
                return Ok(None);
            };
            old = cur;
        }
        // SAFETY: our Put unlinked `old`, which is retired here, once.
        Ok(Some(unsafe { self.retire_with(old, f) }))
    }

    /// Delete `key`, calling `f` on the value it removed; `None` when the key
    /// is absent. The index slot is reclaimed immediately; the record is
    /// retired and freed once no reader can reach it.
    pub(crate) fn remove_with<R>(
        &mut self,
        namespace: u16,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> Option<R> {
        let entered = self.session.enter();
        loop {
            let (word, old) = self.find(&entered, namespace, key)?;
            if entered.delete_if(word, old.0).is_ok() {
                // SAFETY: our Delete unlinked `old`, which is retired here,
                // once.
                return Some(unsafe { self.retire_with(old, f) });
            }
        }
    }

    /// Delete `key`. The index slot is reclaimed immediately; the record is
    /// retired and freed once no reader can reach it.
    pub fn delete(&mut self, namespace: u16, key: &[u8]) -> bool {
        self.remove_with(namespace, key, |_| ()).is_some()
    }

    /// Call `f` on the value of the record `old`, then retire the record.
    ///
    /// # Safety
    /// This session must have just unlinked `old` from the index.
    unsafe fn retire_with<R>(&mut self, old: TaggedPtr, f: impl FnOnce(&[u8]) -> R) -> R {
        // SAFETY: caller contract — `old` is unlinked by us and not retired
        // yet, so nothing frees it before the `retire` below.
        let result = f(unsafe { self.map.records.value(old.ptr()) });
        self.session.retire(old.ptr());
        result
    }

    /// Free every retired record (of any session) that no reader can reach
    /// any more. Other sessions do not need this call to make progress:
    /// retirements collect on their own every few dozen records, and this
    /// only frees the rest now.
    pub fn quiesce(&mut self) {
        self.map.table.collect_garbage();
    }

    /// Records retired on this map (by any session) and not yet freed.
    pub fn pending_garbage(&self) -> usize {
        self.map.table.pending_records()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlht_alloc::{AllocatorKind, CountingAllocator, SystemAllocator};

    fn var_map() -> DlhtAllocMap {
        DlhtAllocMap::new(
            DlhtConfig::new(256)
                .with_variable_size(true)
                .with_namespaces(true),
            AllocatorKind::System.build(),
            0,
            0,
        )
    }

    #[test]
    fn fixed_size_insert_get_delete() {
        let map = DlhtAllocMap::with_capacity(100, 8, 32);
        let mut s = map.session();
        let key = 42u64.to_le_bytes();
        let value = [7u8; 32];
        assert!(s.insert(0, &key, &value).unwrap());
        assert!(!s.insert(0, &key, &value).unwrap());
        assert_eq!(s.get(0, &key).unwrap(), value.to_vec());
        assert!(s.delete(0, &key));
        assert!(!s.delete(0, &key));
        assert_eq!(s.get(0, &key), None);
    }

    #[test]
    fn variable_sizes_in_one_index() {
        let map = var_map();
        let mut s = map.session();
        // The paper's example: a 2-byte key with a 5-byte value next to a
        // 128-byte key with a 1024-byte value (§3.4.1).
        assert!(s.insert(0, b"ab", b"hello").unwrap());
        let big_key = vec![9u8; 128];
        let big_val = vec![3u8; 1024];
        assert!(s.insert(0, &big_key, &big_val).unwrap());
        assert_eq!(s.get(0, b"ab").unwrap(), b"hello".to_vec());
        assert_eq!(s.get(0, &big_key).unwrap(), big_val);
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn namespaces_do_not_conflict() {
        let map = var_map();
        let mut s = map.session();
        assert!(s.insert(1, b"same-key", b"one").unwrap());
        assert!(s.insert(2, b"same-key", b"two").unwrap());
        assert_eq!(s.get(1, b"same-key").unwrap(), b"one".to_vec());
        assert_eq!(s.get(2, b"same-key").unwrap(), b"two".to_vec());
        assert!(s.delete(1, b"same-key"));
        assert_eq!(s.get(1, b"same-key"), None);
        assert_eq!(s.get(2, b"same-key").unwrap(), b"two".to_vec());
    }

    #[test]
    fn invalid_namespace_is_rejected() {
        let map = var_map();
        let mut s = map.session();
        assert_eq!(s.insert(4096, b"k", b"v"), Err(DlhtError::InvalidNamespace));
    }

    #[test]
    fn pointer_api_allows_in_place_update() {
        let map = DlhtAllocMap::with_capacity(16, 8, 8);
        let mut s = map.session();
        let key = 1u64.to_le_bytes();
        s.insert(0, &key, &0u64.to_le_bytes()).unwrap();
        let len = s
            .with_value_ptr(0, &key, |ptr, len| {
                // SAFETY: single-threaded test, pointer valid inside the
                // closure.
                unsafe { std::ptr::copy_nonoverlapping(99u64.to_le_bytes().as_ptr(), ptr, len) };
                len
            })
            .unwrap();
        assert_eq!(len, 8);
        assert_eq!(s.get(0, &key).unwrap(), 99u64.to_le_bytes().to_vec());
    }

    #[test]
    fn get_with_reads_without_copying() {
        let map = var_map();
        let mut s = map.session();
        s.insert(0, b"k1", b"abcdef").unwrap();
        let len = s.get_with(0, b"k1", |v| v.len()).unwrap();
        assert_eq!(len, 6);
        assert!(s.get_with(0, b"nope", |_| ()).is_none());
    }

    #[test]
    fn deleted_records_are_freed_after_quiescence() {
        let counting = Arc::new(CountingAllocator::new(SystemAllocator::new()));
        let map = DlhtAllocMap::new(
            DlhtConfig::new(64).with_variable_size(true),
            counting.clone() as Arc<dyn ValueAllocator>,
            0,
            0,
        );
        {
            let mut s = map.session();
            for i in 0..50u64 {
                s.insert(0, &i.to_le_bytes(), &[1u8; 64]).unwrap();
            }
            for i in 0..50u64 {
                assert!(s.delete(0, &i.to_le_bytes()));
            }
            assert_eq!(counting.deallocs(), 0, "records must outlive the epoch");
            for _ in 0..4 {
                s.quiesce();
            }
            assert_eq!(counting.deallocs(), 50);
        }
        drop(map);
        assert_eq!(counting.live(), 0, "every allocation must be released");
    }

    #[test]
    fn an_idle_session_holds_nothing_back() {
        let counting = Arc::new(CountingAllocator::new(SystemAllocator::new()));
        let map = DlhtAllocMap::new(
            DlhtConfig::new(64).with_variable_size(true),
            counting.clone() as Arc<dyn ValueAllocator>,
            0,
            0,
        );
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
                let key = i.to_le_bytes();
                assert!(busy.insert(0, &key, &[1u8; 16]).unwrap());
                assert!(busy.delete(0, &key));
                busy.quiesce();
            }
            // Read before the idle thread may leave, asserted after: a
            // failed assertion must not strand it at the barrier.
            let left = (busy.pending_garbage(), counting.live());
            done.wait();
            left
        });
        assert_eq!(left, (0, 0), "the idle session pins records");
    }

    #[test]
    fn drop_frees_live_records() {
        let counting = Arc::new(CountingAllocator::new(SystemAllocator::new()));
        {
            let map = DlhtAllocMap::new(
                DlhtConfig::new(64).with_variable_size(true),
                counting.clone() as Arc<dyn ValueAllocator>,
                0,
                0,
            );
            let mut s = map.session();
            for i in 0..20u64 {
                s.insert(0, &i.to_le_bytes(), &[2u8; 16]).unwrap();
            }
        }
        assert_eq!(counting.live(), 0);
    }

    #[test]
    fn wrong_length_rejected_in_fixed_mode() {
        let map = DlhtAllocMap::with_capacity(16, 8, 16);
        let mut s = map.session();
        assert!(s.insert(0, b"short", &[0u8; 16]).is_err());
        assert!(s.insert(0, &[0u8; 8], &[0u8; 15]).is_err());
    }

    #[test]
    fn a_read_keeps_its_record_until_its_closure_returns() {
        let counting = Arc::new(CountingAllocator::new(SystemAllocator::new()));
        let map = DlhtAllocMap::new(
            DlhtConfig::new(64).with_variable_size(true),
            counting.clone() as Arc<dyn ValueAllocator>,
            0,
            0,
        );
        let mut reader = map.session();
        reader.insert(0, b"k", b"value").unwrap();
        let freed_inside = reader
            .get_with(0, b"k", |value| {
                // Another thread deletes the record and frees what it can
                // while this closure still reads it.
                std::thread::scope(|s| {
                    s.spawn(|| {
                        let mut writer = map.session();
                        assert!(writer.delete(0, b"k"));
                        writer.quiesce();
                    });
                });
                assert_eq!(value, b"value");
                counting.deallocs()
            })
            .unwrap();
        assert_eq!(freed_inside, 0, "freed under a running read");
        reader.quiesce();
        assert_eq!(counting.deallocs(), 1);
    }

    #[test]
    fn a_record_map_without_resizing_still_announces() {
        // An Inlined table with resizing off skips the announcements
        // (§3.4.5); a record map must not, or nothing protects its reads.
        let counting = Arc::new(CountingAllocator::new(SystemAllocator::new()));
        let map = DlhtAllocMap::new(
            DlhtConfig::new(64)
                .with_variable_size(true)
                .with_resizing(false),
            counting.clone() as Arc<dyn ValueAllocator>,
            0,
            0,
        );
        let mut reader = map.session();
        reader.insert(0, b"k", b"v").unwrap();
        let freed_inside = reader.get_with(0, b"k", |_| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    let mut writer = map.session();
                    assert!(writer.delete(0, b"k"));
                    writer.quiesce();
                });
            });
            counting.deallocs()
        });
        assert_eq!(freed_inside, Some(0), "freed under a running read");
    }

    #[test]
    fn concurrent_sessions_insert_and_read() {
        let map = Arc::new(DlhtAllocMap::new(
            DlhtConfig::new(1024).with_variable_size(true),
            AllocatorKind::Pool.build(),
            0,
            0,
        ));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let map = Arc::clone(&map);
                scope.spawn(move || {
                    let mut s = map.session();
                    for i in 0..500u64 {
                        let key = (t * 1_000_000 + i).to_le_bytes();
                        let val = vec![t as u8; 24];
                        assert!(s.insert(0, &key, &val).unwrap());
                        assert_eq!(s.get(0, &key).unwrap(), val);
                        if i % 16 == 0 {
                            s.quiesce();
                        }
                    }
                });
            }
        });
        assert_eq!(map.len(), 2_000);
    }
}
