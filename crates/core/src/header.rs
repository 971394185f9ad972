//! Bin-header bit layout (§3.1, "Bin Header (8 B)").
//!
//! The first 8 bytes of every primary bucket pack all of a bin's concurrency
//! metadata so that every state transition (Insert, Delete, shadow
//! commit/abort, resize transfer) is a single compare-and-swap:
//!
//! ```text
//!  bit 63 .. 34        33..32      31..0
//! +---------------+--------------+----------+
//! | 15 × 2-bit    | 2-bit bin    | 32-bit   |
//! | slot states   | state        | version  |
//! +---------------+--------------+----------+
//! ```
//!
//! Every successful CAS bumps the version, which (a) lets Gets read a
//! consistent view seqlock-style and (b) protects the header CASes themselves
//! from ABA (§3.2.2).

/// Number of key-value slots a bin can hold across its (up to) four buckets:
/// 3 in the primary bucket plus 4 in each of up to 3 link buckets.
pub const SLOTS_PER_BIN: usize = 15;

/// Number of slots in the primary bucket.
pub const PRIMARY_SLOTS: usize = 3;

/// Number of slots in a link bucket.
pub const LINK_SLOTS: usize = 4;

const VERSION_BITS: u32 = 32;
const VERSION_MASK: u64 = (1 << VERSION_BITS) - 1;
const BIN_STATE_SHIFT: u32 = 32;
const BIN_STATE_MASK: u64 = 0b11 << BIN_STATE_SHIFT;
const SLOT_STATE_BASE: u32 = 34;
/// The low bit of each slot's 2-bit field, once shifted down by
/// `SLOT_STATE_BASE`: bits 0, 2, .., 28.
const SLOT_LOW_BITS: u64 = 0x1555_5555;

/// Per-slot state (2 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SlotState {
    /// Empty / reusable slot.
    Invalid = 0,
    /// An Insert has claimed the slot but not yet published it (§3.2.2 step 4).
    TryInsert = 1,
    /// The slot holds a live key-value pair.
    Valid = 2,
    /// Shadow-inserted key: present for duplicate detection but hidden from
    /// Get/Put/Delete until committed (§3.2.2 "Transactions").
    Shadow = 3,
}

impl SlotState {
    #[inline]
    fn from_bits(bits: u64) -> SlotState {
        match bits & 0b11 {
            0 => SlotState::Invalid,
            1 => SlotState::TryInsert,
            2 => SlotState::Valid,
            _ => SlotState::Shadow,
        }
    }
}

/// Per-bin state (2 bits), driving the non-blocking resize (§3.2.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum BinState {
    /// Normal operation; the bin lives in this index.
    NoTransfer = 0,
    /// A resize helper is currently copying this bin to the new index.
    InTransfer = 1,
    /// The bin has been copied; operations must go to the new index.
    DoneTransfer = 2,
    /// Reserved for the strongly-consistent iterator snapshot (§3.4.4).
    Snapshot = 3,
}

impl BinState {
    #[inline]
    fn from_bits(bits: u64) -> BinState {
        match bits & 0b11 {
            0 => BinState::NoTransfer,
            1 => BinState::InTransfer,
            2 => BinState::DoneTransfer,
            _ => BinState::Snapshot,
        }
    }
}

/// A decoded/encodable view of the 8-byte bin header.
///
/// All mutators return a *new* header value with the version bumped, ready to
/// be installed with a CAS. In a [`crate::DlhtMap`] the header word in memory
/// is only ever modified through `AtomicU64::compare_exchange`. A
/// [`crate::SingleThreadMap`] installs the same values with plain `Relaxed`
/// stores: it mutates only through `&mut self`, so no other access to its
/// index can run between its load of the header and its store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinHeader(pub u64);

impl BinHeader {
    /// The header of a freshly initialized bin: version 0, `NoTransfer`, all
    /// slots `Invalid`.
    pub const EMPTY: BinHeader = BinHeader(0);

    /// 32-bit version counter.
    #[inline]
    pub fn version(self) -> u32 {
        (self.0 & VERSION_MASK) as u32
    }

    /// Bin (transfer) state.
    #[inline]
    pub fn bin_state(self) -> BinState {
        BinState::from_bits(self.0 >> BIN_STATE_SHIFT)
    }

    /// State of slot `i` (`i < SLOTS_PER_BIN`).
    #[inline]
    pub fn slot_state(self, i: usize) -> SlotState {
        debug_assert!(i < SLOTS_PER_BIN);
        SlotState::from_bits(self.0 >> (SLOT_STATE_BASE + 2 * i as u32))
    }

    /// New header with the version incremented (wrapping in 32 bits).
    #[inline]
    pub fn bump_version(self) -> BinHeader {
        let v = (self.version().wrapping_add(1)) as u64;
        BinHeader((self.0 & !VERSION_MASK) | v)
    }

    /// New header with slot `i` set to `state` and the version bumped.
    #[inline]
    pub fn with_slot_state(self, i: usize, state: SlotState) -> BinHeader {
        debug_assert!(i < SLOTS_PER_BIN);
        let shift = SLOT_STATE_BASE + 2 * i as u32;
        let cleared = self.0 & !(0b11u64 << shift);
        BinHeader(cleared | ((state as u64) << shift)).bump_version()
    }

    /// New header with the bin state set to `state` and the version bumped.
    #[inline]
    pub fn with_bin_state(self, state: BinState) -> BinHeader {
        let cleared = self.0 & !BIN_STATE_MASK;
        BinHeader(cleared | ((state as u64) << BIN_STATE_SHIFT)).bump_version()
    }

    /// One bit per non-`Invalid` slot, at bit `2 * slot`.
    #[inline]
    pub(crate) fn live_mask(self) -> u64 {
        let s = self.0 >> SLOT_STATE_BASE;
        (s | (s >> 1)) & SLOT_LOW_BITS
    }

    /// Index of the first slot in `Invalid` state, if any.
    #[inline]
    pub fn first_invalid_slot(self) -> Option<usize> {
        let free = !self.live_mask() & SLOT_LOW_BITS;
        (free != 0).then(|| free.trailing_zeros() as usize / 2)
    }

    /// Number of slots currently in `Valid` or `Shadow` state.
    #[inline]
    pub fn occupied_slots(self) -> usize {
        (0..SLOTS_PER_BIN)
            .filter(|&i| matches!(self.slot_state(i), SlotState::Valid | SlotState::Shadow))
            .count()
    }

    /// Highest slot index in any non-`Invalid` state, plus one. Used to bound
    /// scans and to decide whether link buckets are reachable.
    #[inline]
    pub fn occupied_extent(self) -> usize {
        (0..SLOTS_PER_BIN)
            .rev()
            .find(|&i| self.slot_state(i) != SlotState::Invalid)
            .map_or(0, |i| i + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_header_properties() {
        let h = BinHeader::EMPTY;
        assert_eq!(h.version(), 0);
        assert_eq!(h.bin_state(), BinState::NoTransfer);
        for i in 0..SLOTS_PER_BIN {
            assert_eq!(h.slot_state(i), SlotState::Invalid);
        }
        assert_eq!(h.first_invalid_slot(), Some(0));
        assert_eq!(h.occupied_slots(), 0);
        assert_eq!(h.occupied_extent(), 0);
    }

    #[test]
    fn slot_state_roundtrip_does_not_disturb_neighbours() {
        let mut h = BinHeader::EMPTY;
        h = h.with_slot_state(4, SlotState::Valid);
        h = h.with_slot_state(14, SlotState::TryInsert);
        h = h.with_slot_state(0, SlotState::Shadow);
        assert_eq!(h.slot_state(4), SlotState::Valid);
        assert_eq!(h.slot_state(14), SlotState::TryInsert);
        assert_eq!(h.slot_state(0), SlotState::Shadow);
        for i in [1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13] {
            assert_eq!(h.slot_state(i), SlotState::Invalid, "slot {i}");
        }
        assert_eq!(h.version(), 3, "each mutation bumps the version");
    }

    #[test]
    fn bin_state_roundtrip() {
        let h = BinHeader::EMPTY
            .with_slot_state(2, SlotState::Valid)
            .with_bin_state(BinState::InTransfer);
        assert_eq!(h.bin_state(), BinState::InTransfer);
        assert_eq!(h.slot_state(2), SlotState::Valid);
        let h = h.with_bin_state(BinState::DoneTransfer);
        assert_eq!(h.bin_state(), BinState::DoneTransfer);
        assert_eq!(h.slot_state(2), SlotState::Valid);
    }

    #[test]
    fn version_wraps_in_32_bits() {
        let h = BinHeader(u32::MAX as u64 | (0b10 << 40));
        let bumped = h.bump_version();
        assert_eq!(bumped.version(), 0);
        // Slot bits untouched by wrap.
        assert_eq!(bumped.0 >> 34, h.0 >> 34);
    }

    #[test]
    fn first_invalid_and_occupancy() {
        let mut h = BinHeader::EMPTY;
        for i in 0..5 {
            h = h.with_slot_state(i, SlotState::Valid);
        }
        assert_eq!(h.first_invalid_slot(), Some(5));
        assert_eq!(h.occupied_slots(), 5);
        assert_eq!(h.occupied_extent(), 5);

        let mut full = BinHeader::EMPTY;
        for i in 0..SLOTS_PER_BIN {
            full = full.with_slot_state(i, SlotState::Valid);
        }
        assert_eq!(full.first_invalid_slot(), None);
        assert_eq!(full.occupied_slots(), SLOTS_PER_BIN);
    }

    #[test]
    fn occupied_extent_sees_try_insert() {
        let h = BinHeader::EMPTY.with_slot_state(9, SlotState::TryInsert);
        assert_eq!(h.occupied_extent(), 10);
        assert_eq!(h.occupied_slots(), 0);
    }
}

#[cfg(test)]
mod proptests {
    //! Deterministic pseudo-random property checks (offline replacement for
    //! the former proptest strategies).

    use super::*;
    use dlht_util::splitmix64 as splitmix;

    fn state_of(n: u64) -> SlotState {
        match n % 4 {
            0 => SlotState::Invalid,
            1 => SlotState::TryInsert,
            2 => SlotState::Valid,
            _ => SlotState::Shadow,
        }
    }

    #[test]
    fn arbitrary_sequences_of_mutations_roundtrip() {
        for seed in 0..256u64 {
            let mut rng = 0xBEEF ^ (seed << 17);
            let mut h = BinHeader::EMPTY;
            let mut model = [SlotState::Invalid; SLOTS_PER_BIN];
            let ops = 1 + splitmix(&mut rng) as usize % 63;
            for _ in 0..ops {
                let i = splitmix(&mut rng) as usize % SLOTS_PER_BIN;
                let s = state_of(splitmix(&mut rng));
                h = h.with_slot_state(i, s);
                model[i] = s;
            }
            for (i, expected) in model.iter().enumerate() {
                assert_eq!(h.slot_state(i), *expected, "seed {seed} slot {i}");
            }
            assert_eq!(h.bin_state(), BinState::NoTransfer, "seed {seed}");
        }
    }

    #[test]
    fn version_only_changes_by_one_per_mutation() {
        let mut rng = 0x5EED_u64;
        for _ in 0..256 {
            let slot = splitmix(&mut rng) as usize % SLOTS_PER_BIN;
            let s = state_of(splitmix(&mut rng));
            let h = BinHeader(0xABCD_EF01_2345_6789 & !(0b11 << 32)); // arbitrary, NoTransfer
            let h2 = h.with_slot_state(slot, s);
            assert_eq!(h2.version(), h.version().wrapping_add(1));
        }
    }
}
