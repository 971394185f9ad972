//! Out-of-line records (§3.1 mode 2, §3.4.1): the one place that knows the
//! record layout, shared by [`crate::DlhtAllocMap`] and [`crate::CacheMap`].
//! The index slot's value word points at a record; a lookup on a fingerprint
//! key word ([`key_word`]) verifies the key stored in the record; a delete
//! retires the record into the table it was unlinked from, which frees it
//! through [`Records::free`] once no reader can reach it (§3.2.3, the
//! epoch of `registry.rs`).
//!
//! ```text
//!  record (VALUE_ALIGN-aligned, one allocation)
//!  ┌─────────────────────────────────┬────────────┬───────────┬─────────────┐
//!  │ key_len:u16 pad:u16 val_len:u32 │ metadata M │ key bytes │ value bytes │
//!  └─────────────────────────────────┴────────────┴───────────┴─────────────┘
//!    variable-size stores only
//! ```
//!
//! A fixed-size store (the paper's default) is headerless: the lengths live
//! in the store. `M` is written once per record (`()` for the map, the
//! TTL/CAS/LRU block for the cache) and never dropped; its atomics may be
//! updated in place while readers hold the record. The record size follows
//! from the lengths, so nothing stores it.

use crate::error::DlhtError;
use dlht_alloc::{ValueAllocator, VALUE_ALIGN};
use dlht_hash::WyHash;
use std::marker::PhantomData;
use std::mem::{align_of, needs_drop, size_of};
use std::sync::Arc;

/// Maximum supported key length in bytes.
pub const MAX_KEY_LEN: usize = u16::MAX as usize;

/// Length header at the start of every variable-size record.
#[repr(C)]
struct Header {
    key_len: u16,
    _pad: u16,
    val_len: u32,
}

const HEADER_LEN: usize = size_of::<Header>();

/// Index key word for `key`, and whether the word *is* the key (so a hit
/// needs no verification against the record).
///
/// An 8-byte key is used verbatim when `exact_ok` allows it and it avoids
/// the index's reserved transfer words; every other key is a 64-bit
/// fingerprint under `seed`, resolved on a hit by comparing the key stored
/// in the record.
pub(crate) fn key_word(key: &[u8], seed: u64, exact_ok: bool) -> (u64, bool) {
    if let (true, Ok(bytes)) = (exact_ok, <[u8; 8]>::try_from(key)) {
        let word = u64::from_le_bytes(bytes);
        if !crate::bucket::is_reserved_key(word) {
            return (word, true);
        }
    }
    let mut fp = WyHash::hash_bytes_seeded(key, seed);
    if crate::bucket::is_reserved_key(fp) {
        fp ^= 1;
    }
    (fp, false)
}

/// An allocator plus the layout of the records it holds. See the module
/// docs for the layout.
pub(crate) struct Records<M> {
    allocator: Arc<dyn ValueAllocator>,
    /// `Some((key_len, val_len))` for a headerless fixed-size store, `None`
    /// when every record carries its own lengths.
    fixed: Option<(usize, usize)>,
    _meta: PhantomData<fn(M) -> M>,
}

impl<M: Sync> Records<M> {
    /// The metadata block must fit the allocator's alignment guarantee and
    /// must need no drop (records are freed as raw bytes).
    const META_OK: () = assert!(align_of::<M>() <= VALUE_ALIGN && !needs_drop::<M>());

    /// A store over `allocator`; `fixed` gives the one key and value length
    /// of a fixed-size store, `None` makes it variable-size.
    pub(crate) fn new(allocator: Arc<dyn ValueAllocator>, fixed: Option<(usize, usize)>) -> Self {
        let () = Self::META_OK;
        Records {
            allocator,
            fixed,
            _meta: PhantomData,
        }
    }

    fn meta_offset(&self) -> usize {
        match self.fixed {
            Some(_) => 0,
            None => HEADER_LEN.next_multiple_of(align_of::<M>()),
        }
    }

    fn key_offset(&self) -> usize {
        self.meta_offset() + size_of::<M>()
    }

    /// Bytes of a record holding a `key_len`-byte key and `val_len`-byte
    /// value.
    pub(crate) fn size_for(&self, key_len: usize, val_len: usize) -> usize {
        self.key_offset() + key_len + val_len
    }

    /// Reject keys and values this store cannot hold.
    pub(crate) fn check(&self, key: &[u8], value: &[u8]) -> Result<(), DlhtError> {
        let fits = match self.fixed {
            Some(lens) => lens == (key.len(), value.len()),
            None => value.len() <= u32::MAX as usize,
        };
        if key.is_empty() || key.len() > MAX_KEY_LEN || !fits {
            return Err(DlhtError::KeyTooLong);
        }
        Ok(())
    }

    /// Allocate a record and fill it with `key`, `value` and `meta`. The
    /// lengths must have passed [`Records::check`].
    pub(crate) fn write(&self, key: &[u8], value: &[u8], meta: M) -> *mut u8 {
        debug_assert!(self.check(key, value).is_ok());
        let ptr = self.allocator.alloc(self.size_for(key.len(), value.len()));
        let key_at = self.key_offset();
        // SAFETY: `ptr` is a fresh VALUE_ALIGN-aligned allocation of
        // `size_for` bytes; header, metadata (aligned by `META_OK` and
        // `meta_offset`), key and value ranges are disjoint and in bounds.
        unsafe {
            if self.fixed.is_none() {
                let header = Header {
                    key_len: key.len() as u16,
                    _pad: 0,
                    val_len: value.len() as u32,
                };
                std::ptr::write(ptr.cast::<Header>(), header);
            }
            std::ptr::write(ptr.add(self.meta_offset()).cast::<M>(), meta);
            std::ptr::copy_nonoverlapping(key.as_ptr(), ptr.add(key_at), key.len());
            std::ptr::copy_nonoverlapping(value.as_ptr(), ptr.add(key_at + key.len()), value.len());
        }
        ptr
    }

    /// # Safety
    /// `ptr` is a live record written by this store's [`Records::write`] —
    /// the contract of every `unsafe fn` here; references they return must
    /// not outlive the record.
    unsafe fn lengths(&self, ptr: *const u8) -> (usize, usize) {
        match self.fixed {
            Some(lens) => lens,
            None => {
                // SAFETY: caller contract — a variable-size record starts
                // with an initialized, aligned `Header`.
                let header = unsafe { &*ptr.cast::<Header>() };
                (header.key_len as usize, header.val_len as usize)
            }
        }
    }

    /// Allocation size of the record at `ptr`.
    /// # Safety
    /// As [`Records::lengths`].
    pub(crate) unsafe fn size(&self, ptr: *const u8) -> usize {
        // SAFETY: caller contract.
        let (key_len, val_len) = unsafe { self.lengths(ptr) };
        self.size_for(key_len, val_len)
    }

    /// The metadata block of the record at `ptr`.
    /// # Safety
    /// As [`Records::lengths`].
    pub(crate) unsafe fn meta<'a>(&self, ptr: *const u8) -> &'a M {
        // SAFETY: caller contract — `write` stored an `M` at `meta_offset`.
        unsafe { &*ptr.add(self.meta_offset()).cast::<M>() }
    }

    /// Pointer to, and length of, the value in the record at `ptr`, derived
    /// from `ptr` so callers may write through it (pointer API, §3.2.1).
    /// # Safety
    /// As [`Records::lengths`].
    pub(crate) unsafe fn value_ptr(&self, ptr: *mut u8) -> (*mut u8, usize) {
        // SAFETY: caller contract — `val_len` value bytes follow the key,
        // all inside the record's single allocation.
        unsafe {
            let (key_len, val_len) = self.lengths(ptr);
            (ptr.add(self.key_offset() + key_len), val_len)
        }
    }

    /// The value stored in the record at `ptr`.
    /// # Safety
    /// As [`Records::lengths`].
    pub(crate) unsafe fn value<'a>(&self, ptr: *const u8) -> &'a [u8] {
        // SAFETY: caller contract; the slice only reads.
        unsafe {
            let (value, len) = self.value_ptr(ptr.cast_mut());
            std::slice::from_raw_parts(value, len)
        }
    }

    /// Whether the record at `ptr`, found under a [`key_word`] with the given
    /// `exact` flag, holds `key`.
    /// # Safety
    /// As [`Records::lengths`].
    pub(crate) unsafe fn holds(&self, ptr: *const u8, key: &[u8], exact: bool) -> bool {
        if exact {
            return true;
        }
        // SAFETY: caller contract — `key_len` key bytes follow the metadata.
        unsafe {
            std::slice::from_raw_parts(ptr.add(self.key_offset()), self.lengths(ptr).0) == key
        }
    }

    /// Free a record at once: one never published, one still linked in an
    /// index being dropped, or one its table retired and no reader can
    /// reach any more.
    /// # Safety
    /// As [`Records::lengths`], and no other thread can reach the record.
    pub(crate) unsafe fn free(&self, ptr: *mut u8) {
        // SAFETY: caller contract — `size` is the size `write` allocated.
        unsafe { self.allocator.dealloc(ptr, self.size(ptr)) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DlhtConfig, DlhtMap};
    use dlht_alloc::{CountingAllocator, SystemAllocator};
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn variable_records_roundtrip_with_metadata() {
        let alloc = Arc::new(CountingAllocator::new(SystemAllocator::new()));
        let records: Records<(AtomicU32, u64)> = Records::new(alloc.clone(), None);
        assert_eq!(records.check(b"", b"v"), Err(DlhtError::KeyTooLong));
        assert_eq!(
            records.check(&[0; MAX_KEY_LEN + 1], b""),
            Err(DlhtError::KeyTooLong)
        );
        let ptr = records.write(b"key", b"value!", (AtomicU32::new(5), 9));
        assert_eq!(ptr as usize % VALUE_ALIGN, 0);
        // SAFETY: `ptr` is a live record of `records`, freed once below.
        unsafe {
            assert!(records.holds(ptr, b"key", false) && !records.holds(ptr, b"kez", false));
            assert_eq!(records.value(ptr), b"value!");
            records.meta(ptr).0.store(6, Ordering::Relaxed);
            assert_eq!(records.meta(ptr).0.load(Ordering::Relaxed), 6);
            assert_eq!(records.meta(ptr).1, 9);
            assert_eq!(records.size(ptr), HEADER_LEN + 16 + 3 + 6);
            records.free(ptr);
        }
        assert_eq!(alloc.live(), 0);
    }

    #[test]
    fn fixed_records_are_headerless_and_writable_in_place() {
        let records: Records<()> = Records::new(Arc::new(SystemAllocator::new()), Some((8, 4)));
        assert_eq!(records.check(&[1; 7], &[2; 4]), Err(DlhtError::KeyTooLong));
        let ptr = records.write(&[1; 8], &[2; 4], ());
        // SAFETY: live record, freed once below.
        unsafe {
            assert_eq!(records.size(ptr), 12);
            let (value, len) = records.value_ptr(ptr);
            assert_eq!(len, 4);
            value.write(7);
            assert!(records.holds(ptr, &[1; 8], false));
            assert_eq!(records.value(ptr), &[7, 2, 2, 2]);
            records.free(ptr);
        }
    }

    #[test]
    fn retired_records_are_freed_after_quiescence() {
        let alloc = Arc::new(CountingAllocator::new(SystemAllocator::new()));
        let records: Arc<Records<()>> = Arc::new(Records::new(alloc.clone(), None));
        let freed = Arc::new(AtomicU32::new(0));
        let hook = {
            let (records, freed) = (Arc::clone(&records), Arc::clone(&freed));
            // SAFETY: the table frees each record it retired once, after no
            // reader can reach it.
            Arc::new(move |ptr: *mut u8| unsafe {
                freed.fetch_add(records.size(ptr) as u32, Ordering::Relaxed);
                records.free(ptr)
            })
        };
        let table = DlhtMap::for_records(DlhtConfig::new(16), hook);
        let session = table.session();
        let reader = table.session();
        let pin = reader.enter();
        for i in 0..10u32 {
            // Never published, so unlinked: retired once.
            session.retire(records.write(&i.to_le_bytes(), &[0; 20], ()));
        }
        table.collect_garbage();
        assert_eq!(alloc.deallocs(), 0, "an entered reader holds them back");
        drop(pin);
        table.collect_garbage();
        assert_eq!(alloc.live(), 0);
        assert_eq!(
            freed.load(Ordering::Relaxed),
            10 * (HEADER_LEN + 4 + 20) as u32
        );
    }
}
