//! Table configuration, mirroring the knobs of Table 2 in the paper.

use dlht_hash::HashKind;

/// Ratio of bins to link buckets (`bins / link_ratio` link buckets are
/// allocated). The paper's default is 8 (§3.1), and §5.1.5 also evaluates 5.
pub const DEFAULT_LINK_RATIO: usize = 8;

/// Bins transferred per resize work unit (§3.2.5 uses 16 Ki-bin chunks).
pub const DEFAULT_CHUNK_BINS: usize = 16 * 1024;

/// Configuration for a DLHT instance.
///
/// Construct with [`DlhtConfig::new`] / [`DlhtConfig::default`] and chain the
/// builder-style setters. Features that cost performance are off by default,
/// matching the paper's "clients only pay for the features they need" policy
/// (§3.4).
#[derive(Debug, Clone)]
pub struct DlhtConfig {
    /// Number of bins in the initial index (rounded up to at least 2).
    pub num_bins: usize,
    /// `num_bins / link_ratio` link buckets are allocated per index.
    pub link_ratio: usize,
    /// Hash function mapping keys to bins. The default,
    /// [`HashKind::Modulo`], assumes keys spread evenly modulo the bin
    /// count.
    pub hash: HashKind,
    /// Whether the index may grow. When disabled, a full bin makes inserts
    /// fail with [`crate::DlhtError::TableFull`], and an Inlined table skips
    /// the per-request enter/leave notifications (§5.2.5 "Resizing" bar);
    /// a record table still makes them, since it frees records.
    pub resizing: bool,
    /// Bins per transfer chunk during a resize.
    pub chunk_bins: usize,
    /// Namespace tagging of Allocator-mode values (§3.4.2).
    pub namespaces: bool,
    /// Store per-pair key/value sizes so every pair may have a different size
    /// (§3.4.1).
    pub variable_size: bool,
}

impl Default for DlhtConfig {
    fn default() -> Self {
        DlhtConfig {
            num_bins: 1 << 16,
            link_ratio: DEFAULT_LINK_RATIO,
            hash: HashKind::Modulo,
            resizing: true,
            chunk_bins: DEFAULT_CHUNK_BINS,
            namespaces: false,
            variable_size: false,
        }
    }
}

impl DlhtConfig {
    /// Default configuration with `num_bins` bins.
    pub fn new(num_bins: usize) -> Self {
        DlhtConfig {
            num_bins,
            ..Default::default()
        }
    }

    /// Configuration sized for about `keys` keys: enough bins that `keys`
    /// would fill ~55% of the primary slots plus the link budget.
    ///
    /// It does **not** hold `keys` keys without resizing. With the default
    /// link ratio the link-bucket pool runs out first, at about 1.9 keys per
    /// bin, so a table filled with uniformly random keys resizes once at
    /// roughly 98% of `keys` (measured: key 257,451 of 262,144 and key
    /// 1,027,811 of 1,048,576). The 4× growth then leaves it at 13.75%
    /// occupancy and about 150 bytes of index per key. Sizing from the
    /// measured exhaustion point is ROADMAP item 2.
    ///
    /// The default hash is [`HashKind::Modulo`], which assumes the keys
    /// spread evenly modulo the bin count. Keys with a common stride (all
    /// odd keys on an even bin count, say) fill some bins and leave others
    /// empty, and resize sooner; use [`DlhtConfig::with_hash`] with a mixing
    /// hash for such keys.
    pub fn for_capacity(keys: usize) -> Self {
        // slots ≈ bins * (3 + 4/link_ratio·…); conservatively count the
        // primary slots plus the shared link budget.
        let link_ratio = DEFAULT_LINK_RATIO;
        let slots_per_bin = 3.0 + (4.0 / link_ratio as f64);
        let bins = ((keys as f64) / (slots_per_bin * 0.55)).ceil() as usize;
        DlhtConfig::new(bins.max(2))
    }

    /// Set the number of bins.
    pub fn with_bins(mut self, num_bins: usize) -> Self {
        self.num_bins = num_bins;
        self
    }

    /// Set the bins-to-link-buckets ratio.
    pub fn with_link_ratio(mut self, ratio: usize) -> Self {
        self.link_ratio = ratio.max(1);
        self
    }

    /// Select the hash function.
    pub fn with_hash(mut self, hash: HashKind) -> Self {
        self.hash = hash;
        self
    }

    /// Enable or disable resizing.
    pub fn with_resizing(mut self, enabled: bool) -> Self {
        self.resizing = enabled;
        self
    }

    /// Set the resize chunk size in bins.
    pub fn with_chunk_bins(mut self, bins: usize) -> Self {
        self.chunk_bins = bins.max(1);
        self
    }

    /// Enable namespaces (Allocator mode).
    pub fn with_namespaces(mut self, enabled: bool) -> Self {
        self.namespaces = enabled;
        self
    }

    /// Enable variable-size keys/values (Allocator mode).
    pub fn with_variable_size(mut self, enabled: bool) -> Self {
        self.variable_size = enabled;
        self
    }

    /// Number of link buckets for an index with `bins` bins under this config.
    pub fn link_buckets_for(&self, bins: usize) -> usize {
        (bins / self.link_ratio).max(1)
    }

    /// Growth factor the paper prescribes for an index of `bins` bins
    /// (§3.2.5: 8× below 4 Ki bins, 4× below 64 Mi, 2× above).
    pub fn growth_factor(bins: usize) -> usize {
        if bins < 4 * 1024 {
            8
        } else if bins < 64 * 1024 * 1024 {
            4
        } else {
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DlhtConfig::default();
        assert_eq!(c.link_ratio, 8);
        assert_eq!(c.chunk_bins, 16 * 1024);
        assert!(c.resizing);
        assert!(!c.namespaces);
        assert!(!c.variable_size);
        assert_eq!(c.hash, HashKind::Modulo);
    }

    #[test]
    fn growth_schedule() {
        assert_eq!(DlhtConfig::growth_factor(1024), 8);
        assert_eq!(DlhtConfig::growth_factor(4 * 1024), 4);
        assert_eq!(DlhtConfig::growth_factor(1 << 20), 4);
        assert_eq!(DlhtConfig::growth_factor(64 * 1024 * 1024), 2);
        assert_eq!(DlhtConfig::growth_factor(1 << 30), 2);
    }

    #[test]
    fn capacity_sizing_leaves_headroom() {
        let keys = 100_000;
        let c = DlhtConfig::for_capacity(keys);
        let slots = c.num_bins * 3 + c.link_buckets_for(c.num_bins) * 4;
        assert!(
            slots > keys,
            "must have more slots ({slots}) than keys ({keys})"
        );
        // ...but not absurdly oversized either.
        assert!(slots < keys * 4);
    }

    #[test]
    fn builder_chain() {
        let c = DlhtConfig::new(128)
            .with_link_ratio(5)
            .with_hash(HashKind::WyHash)
            .with_resizing(false)
            .with_chunk_bins(64)
            .with_namespaces(true)
            .with_variable_size(true);
        assert_eq!(c.num_bins, 128);
        assert_eq!(c.link_ratio, 5);
        assert_eq!(c.hash, HashKind::WyHash);
        assert!(!c.resizing);
        assert_eq!(c.chunk_bins, 64);
        assert!(c.namespaces);
        assert!(c.variable_size);
        assert_eq!(c.link_buckets_for(100), 20);
    }
}
