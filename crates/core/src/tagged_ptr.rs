//! Tagged value pointers for the Allocator mode (§3.4.1, §3.4.2).
//!
//! In Allocator mode the 8-byte value word of a slot holds a pointer to the
//! out-of-line record instead of an inlined value. x86-64 pointers only use 48
//! bits, so the 16 most significant bits are overloaded:
//!
//! ```text
//!  63..60       59..48        47..0
//! +---------+-------------+----------------+
//! | key size| namespace id| 48-bit pointer |
//! +---------+-------------+----------------+
//! ```
//!
//! * **key size** (4 bits): length of an inlined (≤ 8 B) key, or 0 when the
//!   key is stored inside the record.
//! * **namespace id** (12 bits): 0..4096 namespaces (§3.4.2); keys with
//!   different namespace ids never conflict.

use crate::error::DlhtError;

/// Number of distinct namespaces supported (12 tag bits).
pub const MAX_NAMESPACES: u16 = 4096;

const PTR_BITS: u32 = 48;
const PTR_MASK: u64 = (1 << PTR_BITS) - 1;
const NS_SHIFT: u32 = 48;
const NS_MASK: u64 = 0xFFF;
const KEYSIZE_SHIFT: u32 = 60;

/// A value word carrying a 48-bit pointer, a namespace id, and an inline key
/// size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaggedPtr(pub u64);

impl TaggedPtr {
    /// Pack a pointer with its namespace and inline key size (0 or 1..=8).
    ///
    /// # Errors
    /// Returns [`DlhtError::InvalidNamespace`] if `namespace >= 4096`.
    ///
    /// # Panics
    /// Panics (debug assertion) if the pointer does not fit in 48 bits or the
    /// key size exceeds 8.
    pub fn pack(ptr: *mut u8, namespace: u16, key_size: usize) -> Result<TaggedPtr, DlhtError> {
        if namespace as u64 > NS_MASK {
            return Err(DlhtError::InvalidNamespace);
        }
        debug_assert!(key_size <= 8, "inline key size must be 0..=8");
        let addr = ptr as u64;
        debug_assert_eq!(addr & !PTR_MASK, 0, "pointer exceeds 48 bits");
        Ok(TaggedPtr(
            (addr & PTR_MASK)
                | ((namespace as u64 & NS_MASK) << NS_SHIFT)
                | ((key_size as u64 & 0xF) << KEYSIZE_SHIFT),
        ))
    }

    /// The 48-bit pointer.
    // ESCAPE: pure bit-field accessor on a copied word — it dereferences
    // nothing and confers no lifetime. Whether the address may be followed
    // is decided by the caller's enter guard, not by this decoder.
    #[inline]
    pub fn ptr(self) -> *mut u8 {
        (self.0 & PTR_MASK) as *mut u8
    }

    /// The namespace id.
    #[inline]
    pub fn namespace(self) -> u16 {
        ((self.0 >> NS_SHIFT) & NS_MASK) as u16
    }

    /// The inline key size (0 when the key lives in the record).
    #[inline]
    pub fn key_size(self) -> usize {
        ((self.0 >> KEYSIZE_SHIFT) & 0xF) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let fake = 0x0000_7ffd_1234_5678u64 as *mut u8;
        let t = TaggedPtr::pack(fake, 77, 8).unwrap();
        assert_eq!(t.ptr(), fake);
        assert_eq!(t.namespace(), 77);
        assert_eq!(t.key_size(), 8);
    }

    #[test]
    fn zero_values() {
        let t = TaggedPtr::pack(std::ptr::null_mut(), 0, 0).unwrap();
        assert!(t.ptr().is_null());
        assert_eq!(t.namespace(), 0);
        assert_eq!(t.key_size(), 0);
        assert_eq!(t.0, 0);
    }

    #[test]
    fn namespace_bounds_are_enforced() {
        assert!(TaggedPtr::pack(std::ptr::null_mut(), 4095, 0).is_ok());
        assert_eq!(
            TaggedPtr::pack(std::ptr::null_mut(), 4096, 0),
            Err(DlhtError::InvalidNamespace)
        );
    }

    #[test]
    fn real_allocation_pointers_roundtrip() {
        // Pointers from the allocator must fit in 48 bits on x86-64/Linux.
        for _ in 0..8 {
            let b: Box<u64> = Box::new(7);
            let raw = Box::into_raw(b) as *mut u8;
            let t = TaggedPtr::pack(raw, 4095, 5).unwrap();
            assert_eq!(t.ptr(), raw);
            assert_eq!(t.namespace(), 4095);
            assert_eq!(t.key_size(), 5);
            // SAFETY: round-tripping the Box we just leaked.
            drop(unsafe { Box::from_raw(raw as *mut u64) });
        }
    }
}

#[cfg(test)]
mod proptests {
    //! Deterministic pseudo-random property checks (offline replacement for
    //! the former proptest strategies).

    use super::*;
    use dlht_util::splitmix64 as splitmix;

    #[test]
    fn roundtrip_any_48bit_pointer() {
        let mut rng = 0x7A66_u64;
        for i in 0..4_096u64 {
            let addr = splitmix(&mut rng) & ((1 << 48) - 1);
            let ns = (splitmix(&mut rng) % 4096) as u16;
            let ks = (splitmix(&mut rng) % 9) as usize;
            let t = TaggedPtr::pack(addr as *mut u8, ns, ks).unwrap();
            assert_eq!(t.ptr() as u64, addr, "case {i}");
            assert_eq!(t.namespace(), ns, "case {i}");
            assert_eq!(t.key_size(), ks, "case {i}");
        }
    }
}
