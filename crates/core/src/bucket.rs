//! Bucket memory layout (§3.1, Figure 2).
//!
//! * A **primary bucket** is one cache line: an 8-byte bin header, an 8-byte
//!   link-meta word, and three 16-byte slots.
//! * A **link bucket** is one cache line holding four 16-byte slots.
//! * The link-meta word stores two 32-bit indexes into the index's link-bucket
//!   array: the first chains one bucket to the bin, the second chains two
//!   *consecutive* buckets (§3.1, "Link Meta").
//!
//! Slots within a bin are numbered 0..15: 0..3 live in the primary bucket,
//! 3..7 in the first link bucket, 7..11 and 11..15 in the consecutive pair.

use crate::atomic128::AtomicPair;
use crate::header::{LINK_SLOTS, PRIMARY_SLOTS, SLOTS_PER_BIN};
use std::sync::atomic::AtomicU64;

/// Reserved key used by the resize transfer for even-numbered bins (§3.2.5).
pub const TRANSFER_KEY_EVEN: u64 = u64::MAX;
/// Reserved key used by the resize transfer for odd-numbered bins.
pub const TRANSFER_KEY_ODD: u64 = u64::MAX - 1;

/// Transfer key for bin `bin` (one key for odd and another for even bins, so
/// a racing Put can never mistake it for its own key).
#[inline]
pub fn transfer_key_for_bin(bin: usize) -> u64 {
    if bin.is_multiple_of(2) {
        TRANSFER_KEY_EVEN
    } else {
        TRANSFER_KEY_ODD
    }
}

/// Placeholder key an Insert parks in its claimed slot until the slot is
/// published: the reserved key of the other parity, so it never equals the
/// bin's transfer key, and no Put or Delete can match it.
#[inline]
pub fn fill_key_for_bin(bin: usize) -> u64 {
    transfer_key_for_bin(bin + 1)
}

/// Whether `key` is one of the reserved transfer keys and therefore rejected
/// by the public API.
#[inline]
pub fn is_reserved_key(key: u64) -> bool {
    key == TRANSFER_KEY_EVEN || key == TRANSFER_KEY_ODD
}

/// Sentinel for "no link bucket chained".
pub const NO_LINK: u32 = u32::MAX;

/// Decoded view of the 8-byte link-meta word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkMeta(pub u64);

impl LinkMeta {
    /// Link meta with no buckets chained.
    pub const EMPTY: LinkMeta = LinkMeta((NO_LINK as u64) | ((NO_LINK as u64) << 32));

    /// Index of the single chained bucket (slots 3..7), or `NO_LINK`.
    #[inline]
    pub fn first(self) -> u32 {
        (self.0 & 0xFFFF_FFFF) as u32
    }

    /// Index of the first of the two consecutive chained buckets
    /// (slots 7..15), or `NO_LINK`.
    #[inline]
    pub fn pair(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// New meta with the single-bucket index set.
    #[inline]
    pub fn with_first(self, idx: u32) -> LinkMeta {
        LinkMeta((self.0 & !0xFFFF_FFFF) | idx as u64)
    }

    /// New meta with the consecutive-pair index set.
    #[inline]
    pub fn with_pair(self, idx: u32) -> LinkMeta {
        LinkMeta((self.0 & 0xFFFF_FFFF) | ((idx as u64) << 32))
    }

    /// Number of link buckets currently chained (0, 1, or 3).
    #[inline]
    pub fn chained_buckets(self) -> usize {
        let mut n = 0;
        if self.first() != NO_LINK {
            n += 1;
        }
        if self.pair() != NO_LINK {
            n += 2;
        }
        n
    }
}

/// The primary (first) bucket of a bin. Exactly one cache line.
#[repr(C, align(64))]
pub struct PrimaryBucket {
    /// Concurrency metadata; see [`crate::header::BinHeader`].
    pub header: AtomicU64,
    /// Link-bucket chaining metadata; see [`LinkMeta`].
    pub link: AtomicU64,
    /// Three inline key-value slots.
    pub slots: [AtomicPair; PRIMARY_SLOTS],
}

impl PrimaryBucket {
    /// A fresh, empty bucket.
    pub fn new() -> Self {
        PrimaryBucket {
            header: AtomicU64::new(0),
            link: AtomicU64::new(LinkMeta::EMPTY.0),
            slots: std::array::from_fn(|_| AtomicPair::new(0, 0)),
        }
    }
}

impl Default for PrimaryBucket {
    fn default() -> Self {
        Self::new()
    }
}

/// A chained link bucket. Exactly one cache line of four slots.
#[repr(C, align(64))]
pub struct LinkBucket {
    /// Four inline key-value slots.
    pub slots: [AtomicPair; LINK_SLOTS],
}

impl LinkBucket {
    /// A fresh, empty link bucket.
    pub fn new() -> Self {
        LinkBucket {
            slots: std::array::from_fn(|_| AtomicPair::new(0, 0)),
        }
    }
}

impl Default for LinkBucket {
    fn default() -> Self {
        Self::new()
    }
}

/// Where a bin-relative slot index physically lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotLocation {
    /// `slots[idx]` of the primary bucket.
    Primary(usize),
    /// `slots[idx]` of the single chained link bucket (`LinkMeta::first`).
    FirstLink(usize),
    /// `slots[idx]` of link bucket `LinkMeta::pair() + bucket` (bucket ∈ {0,1}).
    PairLink { bucket: usize, idx: usize },
}

/// Map a bin-relative slot index (0..15) to its physical location.
#[inline]
pub fn slot_location(slot: usize) -> SlotLocation {
    debug_assert!(slot < SLOTS_PER_BIN);
    if slot < PRIMARY_SLOTS {
        SlotLocation::Primary(slot)
    } else if slot < PRIMARY_SLOTS + LINK_SLOTS {
        SlotLocation::FirstLink(slot - PRIMARY_SLOTS)
    } else {
        let rel = slot - PRIMARY_SLOTS - LINK_SLOTS;
        SlotLocation::PairLink {
            bucket: rel / LINK_SLOTS,
            idx: rel % LINK_SLOTS,
        }
    }
}

/// Which chained bucket (if any) a slot index requires: 0 = primary only,
/// 1 = needs the single link bucket, 2 = needs the consecutive pair.
#[inline]
pub fn required_chain(slot: usize) -> usize {
    match slot_location(slot) {
        SlotLocation::Primary(_) => 0,
        SlotLocation::FirstLink(_) => 1,
        SlotLocation::PairLink { .. } => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_exactly_one_cache_line() {
        assert_eq!(std::mem::size_of::<PrimaryBucket>(), 64);
        assert_eq!(std::mem::align_of::<PrimaryBucket>(), 64);
        assert_eq!(std::mem::size_of::<LinkBucket>(), 64);
        assert_eq!(std::mem::align_of::<LinkBucket>(), 64);
    }

    #[test]
    fn link_meta_roundtrip() {
        let m = LinkMeta::EMPTY;
        assert_eq!(m.first(), NO_LINK);
        assert_eq!(m.pair(), NO_LINK);
        assert_eq!(m.chained_buckets(), 0);

        let m = m.with_first(7);
        assert_eq!(m.first(), 7);
        assert_eq!(m.pair(), NO_LINK);
        assert_eq!(m.chained_buckets(), 1);

        let m = m.with_pair(42);
        assert_eq!(m.first(), 7);
        assert_eq!(m.pair(), 42);
        assert_eq!(m.chained_buckets(), 3);
    }

    #[test]
    fn slot_location_mapping_covers_all_fifteen_slots() {
        assert_eq!(slot_location(0), SlotLocation::Primary(0));
        assert_eq!(slot_location(2), SlotLocation::Primary(2));
        assert_eq!(slot_location(3), SlotLocation::FirstLink(0));
        assert_eq!(slot_location(6), SlotLocation::FirstLink(3));
        assert_eq!(
            slot_location(7),
            SlotLocation::PairLink { bucket: 0, idx: 0 }
        );
        assert_eq!(
            slot_location(10),
            SlotLocation::PairLink { bucket: 0, idx: 3 }
        );
        assert_eq!(
            slot_location(11),
            SlotLocation::PairLink { bucket: 1, idx: 0 }
        );
        assert_eq!(
            slot_location(14),
            SlotLocation::PairLink { bucket: 1, idx: 3 }
        );
    }

    #[test]
    fn required_chain_matches_locations() {
        assert_eq!(required_chain(0), 0);
        assert_eq!(required_chain(2), 0);
        assert_eq!(required_chain(3), 1);
        assert_eq!(required_chain(6), 1);
        assert_eq!(required_chain(7), 2);
        assert_eq!(required_chain(14), 2);
    }

    #[test]
    fn transfer_keys_by_parity() {
        assert_eq!(transfer_key_for_bin(0), TRANSFER_KEY_EVEN);
        assert_eq!(transfer_key_for_bin(1), TRANSFER_KEY_ODD);
        assert_eq!(transfer_key_for_bin(2), TRANSFER_KEY_EVEN);
        assert!(is_reserved_key(TRANSFER_KEY_EVEN));
        assert!(is_reserved_key(TRANSFER_KEY_ODD));
        assert!(!is_reserved_key(0));
        assert!(!is_reserved_key(12345));
    }
}
