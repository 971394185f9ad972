//! Hash functions used by DLHT.
//!
//! The paper (§3.4.3) defaults to a plain modulo mapping from key to bin and
//! optionally uses [wyhash] for keys whose low bits are poorly distributed;
//! [`HashKind`] selects between the two (`cargo bench -p dlht-bench --bench
//! hash_functions` compares them). [`Murmur64`] is not an index hash: the
//! cuckoo baseline uses it as its second, independent hash.
//!
//! Two call shapes are supported:
//!
//! * [`Hasher64::hash_u64`] — the hot path for 8-byte inlined keys.
//! * [`Hasher64::hash_bytes`] — used by the Allocator mode for keys larger
//!   than 8 bytes.
//!
//! All hashers are zero-sized, `Copy`, and free of interior state, so a table
//! can embed one by value without enlarging its header.
//!
//! [wyhash]: https://github.com/wangyi-fudan/wyhash

#![forbid(unsafe_code)]

mod mix;
mod modulo;
mod murmur;
mod wyhash;

pub use mix::{mix64, mum, wymix};
pub use modulo::Modulo;
pub use murmur::Murmur64;
pub use wyhash::WyHash;

/// A 64-bit hash function usable for both inlined (`u64`) and byte-slice keys.
pub trait Hasher64: Copy + Send + Sync + 'static {
    /// Hash an 8-byte inlined key.
    fn hash_u64(&self, key: u64) -> u64;

    /// Hash an arbitrary byte string (Allocator-mode keys larger than 8 B).
    fn hash_bytes(&self, key: &[u8]) -> u64;

    /// Short human-readable name used in benchmark output.
    fn name(&self) -> &'static str;
}

/// Runtime-selectable hash function, mirroring the paper's
/// `Hash Function: modulo, wyhash` configuration row (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HashKind {
    /// `bin_id = key % number_of_bins` — the paper's default.
    #[default]
    Modulo,
    /// wyhash, the paper's choice when a real hash function is required.
    WyHash,
}

impl HashKind {
    /// Hash an inlined key with the selected function.
    #[inline]
    pub fn hash_u64(self, key: u64) -> u64 {
        match self {
            HashKind::Modulo => Modulo.hash_u64(key),
            HashKind::WyHash => WyHash.hash_u64(key),
        }
    }

    /// Hash a byte-string key with the selected function.
    #[inline]
    pub fn hash_bytes(self, key: &[u8]) -> u64 {
        match self {
            HashKind::Modulo => Modulo.hash_bytes(key),
            HashKind::WyHash => WyHash.hash_bytes(key),
        }
    }

    /// Name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            HashKind::Modulo => "modulo",
            HashKind::WyHash => "wyhash",
        }
    }

    /// All variants, for sweeps.
    pub fn all() -> [HashKind; 2] {
        [HashKind::Modulo, HashKind::WyHash]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_named() -> Vec<(&'static str, HashKind)> {
        HashKind::all().iter().map(|k| (k.name(), *k)).collect()
    }

    #[test]
    fn kinds_are_deterministic() {
        for (name, kind) in all_named() {
            for key in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF_CAFE_F00D] {
                assert_eq!(kind.hash_u64(key), kind.hash_u64(key), "{name} key {key}");
            }
            let bytes = b"the quick brown fox jumps over the lazy dog";
            assert_eq!(kind.hash_bytes(bytes), kind.hash_bytes(bytes), "{name}");
        }
    }

    #[test]
    fn non_modulo_kinds_change_most_keys() {
        for (name, kind) in all_named() {
            if kind == HashKind::Modulo {
                continue;
            }
            let changed = (0u64..1024).filter(|&k| kind.hash_u64(k) != k).count();
            assert!(
                changed > 1000,
                "{name} left too many keys unhashed: {changed}"
            );
        }
    }

    #[test]
    fn low_bit_distribution_is_balanced() {
        // With sequential keys, a decent hash function should set the low bit
        // of roughly half of the outputs.
        for (name, kind) in all_named() {
            if kind == HashKind::Modulo {
                continue;
            }
            let ones = (0u64..4096).filter(|&k| kind.hash_u64(k) & 1 == 1).count();
            assert!(
                (1500..=2600).contains(&ones),
                "{name}: low-bit imbalance, {ones}/4096 ones"
            );
        }
    }

    #[test]
    fn bytes_and_u64_agree_on_modulo_identity() {
        assert_eq!(HashKind::Modulo.hash_u64(77), 77);
        assert_eq!(
            HashKind::Modulo.hash_bytes(&77u64.to_le_bytes()),
            HashKind::Modulo.hash_u64(77)
        );
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = HashKind::all().iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 2);
    }
}
