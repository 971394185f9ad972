//! Murmur-style 64-bit hash (MurmurHash2 64A construction plus the Murmur3
//! finalizer for the single-word fast path). The cuckoo baseline's second
//! hash; not selectable as a DLHT index hash.

use crate::Hasher64;

const M: u64 = 0xc6a4_a793_5bd1_e995;
const R: u32 = 47;
const SEED: u64 = 0x9747_b28c;

/// MurmurHash64A-style hasher.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Murmur64;

/// Murmur3's fmix64 finalizer.
#[inline(always)]
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^= k >> 33;
    k
}

impl Hasher64 for Murmur64 {
    #[inline(always)]
    fn hash_u64(&self, key: u64) -> u64 {
        // Single-word fast path: the fmix64 finalizer provides full avalanche.
        fmix64(key ^ SEED)
    }

    fn hash_bytes(&self, key: &[u8]) -> u64 {
        let len = key.len();
        let mut h: u64 = SEED ^ (len as u64).wrapping_mul(M);

        let chunks = len / 8;
        for i in 0..chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&key[i * 8..i * 8 + 8]);
            let mut k = u64::from_le_bytes(buf);
            k = k.wrapping_mul(M);
            k ^= k >> R;
            k = k.wrapping_mul(M);
            h ^= k;
            h = h.wrapping_mul(M);
        }

        let tail = &key[chunks * 8..];
        if !tail.is_empty() {
            let mut k: u64 = 0;
            for (i, &b) in tail.iter().enumerate() {
                k |= (b as u64) << (8 * i);
            }
            h ^= k;
            h = h.wrapping_mul(M);
        }

        h ^= h >> R;
        h = h.wrapping_mul(M);
        h ^= h >> R;
        h
    }

    fn name(&self) -> &'static str {
        "murmur64"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_spreads() {
        let a = Murmur64.hash_u64(1);
        let b = Murmur64.hash_u64(2);
        assert_eq!(a, Murmur64.hash_u64(1));
        assert_ne!(a, b);
        assert!((a ^ b).count_ones() >= 16);
    }

    #[test]
    fn tail_bytes_matter() {
        assert_ne!(
            Murmur64.hash_bytes(b"12345678x"),
            Murmur64.hash_bytes(b"12345678y")
        );
        assert_ne!(
            Murmur64.hash_bytes(b"1234567"),
            Murmur64.hash_bytes(b"12345678")
        );
    }

    #[test]
    fn fmix_is_bijective_spot_check() {
        // fmix64 is a bijection; distinct inputs must give distinct outputs.
        let mut seen = std::collections::HashSet::new();
        for k in 0..10_000u64 {
            assert!(seen.insert(Murmur64.hash_u64(k)));
        }
    }

    #[test]
    fn distribution_over_bins() {
        let bins = 512u64;
        let mut histogram = vec![0u32; bins as usize];
        for k in 0..16384u64 {
            histogram[(Murmur64.hash_u64(k) % bins) as usize] += 1;
        }
        assert!(*histogram.iter().max().unwrap() < 80);
    }
}
