//! Micro-benchmark: the index hash functions `HashKind` selects, modulo and
//! wyhash (§3.4.3), on 8-byte and 64-byte keys.
//!
//! Run with: `cargo bench -p dlht-bench --bench hash_functions`

use dlht_bench::microbench;
use dlht_hash::HashKind;
use std::hint::black_box;

fn main() {
    let long_key = vec![0xA5u8; 64];
    for kind in HashKind::all() {
        let mut k = 0u64;
        microbench(&format!("{}_u64", kind.name()), 4_000_000, || {
            k = k.wrapping_add(0x9E37_79B9);
            black_box(kind.hash_u64(black_box(k)));
        });
        microbench(&format!("{}_64B", kind.name()), 4_000_000, || {
            black_box(kind.hash_bytes(black_box(&long_key)));
        });
    }
}
