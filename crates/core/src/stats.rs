//! Structural statistics used by the occupancy study (§5.1.5).

use crate::index::Index;

/// A snapshot of the current index generation's structure.
///
/// The all-zero [`Default`] snapshot is what [`crate::KvBackend::stats`]
/// reports for designs without a DLHT-style index.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableStats {
    /// Bins in the current index.
    pub bins: usize,
    /// Link buckets in the pool.
    pub link_buckets: usize,
    /// Link buckets already chained to bins.
    pub links_used: usize,
    /// Slots holding a Valid or Shadow entry.
    pub occupied_slots: usize,
    /// Slots reachable right now (primary + chained link buckets).
    pub addressable_slots: usize,
    /// Slots if every link bucket were chained — the denominator the paper
    /// uses when it reports "occupancy until resize".
    pub max_slots: usize,
    /// `occupied_slots / max_slots`.
    pub occupancy: f64,
    /// Resizes since table creation.
    pub resizes: u64,
    /// Generation number of the current index (0 = never resized).
    pub generation: u32,
    /// Approximate bytes used by index structures (not Allocator-mode values).
    pub index_bytes: usize,
}

impl TableStats {
    /// Capture statistics from an index.
    pub(crate) fn capture(idx: &Index, resizes: u64) -> TableStats {
        let occupied = idx.occupied_slots();
        let max_slots = idx.max_slots();
        TableStats {
            bins: idx.num_bins(),
            link_buckets: idx.num_links(),
            links_used: idx.links_used(),
            occupied_slots: occupied,
            addressable_slots: idx.addressable_slots(),
            max_slots,
            occupancy: if max_slots == 0 {
                0.0
            } else {
                occupied as f64 / max_slots as f64
            },
            resizes,
            generation: idx.generation(),
            index_bytes: idx.memory_bytes(),
        }
    }
}

/// Aggregate per-shard snapshots: counts add up, `generation` is the
/// newest, and `occupancy` is recomputed over the summed `max_slots`.
impl std::iter::Sum for TableStats {
    fn sum<I: Iterator<Item = TableStats>>(parts: I) -> TableStats {
        let mut agg = TableStats::default();
        for s in parts {
            agg.bins += s.bins;
            agg.link_buckets += s.link_buckets;
            agg.links_used += s.links_used;
            agg.occupied_slots += s.occupied_slots;
            agg.addressable_slots += s.addressable_slots;
            agg.max_slots += s.max_slots;
            agg.resizes += s.resizes;
            agg.generation = agg.generation.max(s.generation);
            agg.index_bytes += s.index_bytes;
        }
        agg.occupancy = if agg.max_slots == 0 {
            0.0
        } else {
            agg.occupied_slots as f64 / agg.max_slots as f64
        };
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DlhtConfig;

    #[test]
    fn capture_on_empty_index() {
        let idx = Index::new(64, &DlhtConfig::new(64), 0);
        let s = TableStats::capture(&idx, 0);
        assert_eq!(s.bins, 64);
        assert_eq!(s.occupied_slots, 0);
        assert_eq!(s.occupancy, 0.0);
        assert_eq!(s.max_slots, 64 * 3 + 8 * 4);
        assert_eq!(s.generation, 0);
        assert!(s.index_bytes >= 64 * 64);
    }
}
