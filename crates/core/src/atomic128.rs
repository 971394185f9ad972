//! Double-word (16-byte) compare-and-swap, used by Puts and by the resize
//! transfer to swap a whole slot atomically (§3.2.4, §3.2.5).
//!
//! On `x86_64` this compiles to a `lock cmpxchg16b` (the dw-CAS the paper
//! relies on). On other architectures — or on the rare x86-64 CPU without the
//! `cmpxchg16b` feature — a striped spin-lock fallback provides the same
//! *check-both-words-then-swap* semantics. The fallback is correct because the
//! two words of a slot are plain `AtomicU64`s: readers never observe torn
//! words, only the pair-atomicity of the swap needs protecting, and every
//! writer of the pair (Put and the resize transfer) goes through this module.

use std::sync::atomic::{AtomicU64, Ordering};

/// A 16-byte, 16-byte-aligned pair of atomics supporting dw-CAS.
#[repr(C, align(16))]
pub struct AtomicPair {
    lo: AtomicU64,
    hi: AtomicU64,
}

impl Default for AtomicPair {
    fn default() -> Self {
        Self::new(0, 0)
    }
}

impl AtomicPair {
    /// Create a pair initialized to `(lo, hi)`.
    pub const fn new(lo: u64, hi: u64) -> Self {
        AtomicPair {
            lo: AtomicU64::new(lo),
            hi: AtomicU64::new(hi),
        }
    }

    /// Load both words (not atomically as a pair; callers validate via the bin
    /// header version or via [`AtomicPair::compare_exchange`]).
    #[inline]
    pub fn load(&self, order: Ordering) -> (u64, u64) {
        (self.lo.load(order), self.hi.load(order))
    }

    /// Load only the low word (the key word of a slot).
    #[inline]
    pub fn load_lo(&self, order: Ordering) -> u64 {
        self.lo.load(order)
    }

    /// Load only the high word (the value word of a slot).
    #[inline]
    pub fn load_hi(&self, order: Ordering) -> u64 {
        self.hi.load(order)
    }

    /// Store both words (used only during initialization or while the slot is
    /// exclusively owned, e.g. in `TryInsert` state).
    #[inline]
    pub fn store(&self, lo: u64, hi: u64, order: Ordering) {
        self.lo.store(lo, order);
        self.hi.store(hi, order);
    }

    /// Store only the low word (an Insert writing the key into a slot it has
    /// already published with a reserved placeholder key).
    #[inline]
    pub fn store_lo(&self, lo: u64, order: Ordering) {
        self.lo.store(lo, order);
    }

    /// Atomically compare the pair against `current` and, if equal, replace it
    /// with `new`. Returns `Ok(())` on success and `Err(observed_pair)` on
    /// failure.
    #[inline]
    pub fn compare_exchange(&self, current: (u64, u64), new: (u64, u64)) -> Result<(), (u64, u64)> {
        // Miri cannot execute inline asm, so it always takes the fallback,
        // which exercises the same pair-atomicity protocol.
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            if cmpxchg16b_supported() {
                // SAFETY: `self` is 16-byte aligned (repr align(16)) and the
                // CPU supports cmpxchg16b.
                return unsafe { cmpxchg16b(self as *const _ as *mut u128, current, new) };
            }
        }
        self.compare_exchange_fallback(current, new)
    }

    /// Striped-lock fallback used when a true 128-bit CAS is unavailable.
    fn compare_exchange_fallback(
        &self,
        current: (u64, u64),
        new: (u64, u64),
    ) -> Result<(), (u64, u64)> {
        let _guard = fallback_lock(self as *const _ as usize);
        let observed = (
            self.lo.load(Ordering::Relaxed),
            self.hi.load(Ordering::Relaxed),
        );
        if observed == current {
            self.lo.store(new.0, Ordering::Relaxed);
            self.hi.store(new.1, Ordering::Relaxed);
            std::sync::atomic::fence(Ordering::Release);
            Ok(())
        } else {
            Err(observed)
        }
    }
}

/// Whether the running CPU provides `cmpxchg16b`.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[inline]
pub fn cmpxchg16b_supported() -> bool {
    use std::sync::atomic::AtomicU8;
    static STATE: AtomicU8 = AtomicU8::new(0); // 0 unknown, 1 yes, 2 no
    match STATE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let yes = std::arch::is_x86_feature_detected!("cmpxchg16b");
            STATE.store(if yes { 1 } else { 2 }, Ordering::Relaxed);
            yes
        }
    }
}

/// Whether the running CPU provides a native 128-bit CAS (always `false` off
/// x86-64 and under Miri, which cannot execute the inline-asm fast path).
#[cfg(not(all(target_arch = "x86_64", not(miri))))]
#[inline]
pub fn cmpxchg16b_supported() -> bool {
    false
}

/// Raw `lock cmpxchg16b` wrapper.
///
/// # Safety
/// `ptr` must be valid, 16-byte aligned, and the CPU must support the
/// `cmpxchg16b` instruction.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[inline]
unsafe fn cmpxchg16b(
    ptr: *mut u128,
    current: (u64, u64),
    new: (u64, u64),
) -> Result<(), (u64, u64)> {
    let mut out_lo = current.0;
    let mut out_hi = current.1;
    let ok: u8;
    // rbx cannot be named as an operand, so stash the new-low value through
    // a scratch register around the instruction. The pointer is pinned to
    // rdi: a `reg` operand may be allocated to rbx, which the first xchg
    // overwrites. `sete` runs after rbx is restored (xchg leaves the flags
    // alone), so `ok` survives even if it is allocated to bl.
    // SAFETY: caller contract — `ptr` is valid and 16-byte aligned and the
    // CPU supports cmpxchg16b; rbx is restored by the second xchg, so no
    // LLVM-reserved register is left clobbered.
    unsafe {
        std::arch::asm!(
            "xchg {new_lo}, rbx",
            "lock cmpxchg16b [rdi]",
            "xchg {new_lo}, rbx",
            "sete {ok}",
            in("rdi") ptr,
            new_lo = inout(reg) new.0 => _,
            in("rcx") new.1,
            inout("rax") out_lo,
            inout("rdx") out_hi,
            ok = out(reg_byte) ok,
            options(nostack),
        );
    }
    if ok != 0 {
        Ok(())
    } else {
        Err((out_lo, out_hi))
    }
}

/// A tiny striped spin-lock table for the fallback path.
struct FallbackGuard {
    lock: &'static AtomicU64,
}

impl Drop for FallbackGuard {
    fn drop(&mut self) {
        self.lock.store(0, Ordering::Release);
    }
}

fn fallback_lock(addr: usize) -> FallbackGuard {
    const STRIPES: usize = 64;
    static LOCKS: [AtomicU64; 64] = {
        // AUDIT: allow(declare_interior_mutable_const) — the const is the
        // canonical array-initializer idiom; each element is its own atomic.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        [ZERO; 64]
    };
    let lock = &LOCKS[(addr >> 4) % STRIPES];
    loop {
        if lock
            .compare_exchange_weak(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            return FallbackGuard { lock };
        }
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic_success_and_failure() {
        let p = AtomicPair::new(1, 2);
        assert_eq!(p.load(Ordering::Relaxed), (1, 2));
        assert_eq!(p.compare_exchange((1, 2), (3, 4)), Ok(()));
        assert_eq!(p.load(Ordering::Relaxed), (3, 4));
        assert_eq!(p.compare_exchange((1, 2), (9, 9)), Err((3, 4)));
        assert_eq!(p.load(Ordering::Relaxed), (3, 4));
    }

    #[test]
    fn fallback_matches_native_semantics() {
        let p = AtomicPair::new(10, 20);
        assert_eq!(p.compare_exchange_fallback((10, 20), (11, 21)), Ok(()));
        assert_eq!(p.compare_exchange_fallback((10, 20), (0, 0)), Err((11, 21)));
    }

    #[test]
    fn partial_match_fails() {
        let p = AtomicPair::new(5, 6);
        // Low word matches, high word does not: must fail and report both.
        assert_eq!(p.compare_exchange((5, 999), (0, 0)), Err((5, 6)));
        assert_eq!(p.compare_exchange((999, 6), (0, 0)), Err((5, 6)));
    }

    #[test]
    fn alignment_is_sixteen_bytes() {
        assert_eq!(std::mem::align_of::<AtomicPair>(), 16);
        assert_eq!(std::mem::size_of::<AtomicPair>(), 16);
    }

    #[test]
    fn concurrent_counter_via_dwcas_loses_no_updates() {
        // Each thread repeatedly dw-CASes (n, checksum) -> (n+1, checksum+n).
        // Any lost or doubled update breaks the checksum relation.
        let pair = Arc::new(AtomicPair::new(0, 0));
        const THREADS: u64 = 4;
        let per_thread = dlht_util::miri_scaled(20_000);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let pair = Arc::clone(&pair);
                s.spawn(move || {
                    for _ in 0..per_thread {
                        loop {
                            let cur = pair.load(Ordering::Acquire);
                            let next = (cur.0 + 1, cur.1 + cur.0);
                            if pair.compare_exchange(cur, next).is_ok() {
                                break;
                            }
                        }
                    }
                });
            }
        });
        let (n, checksum) = pair.load(Ordering::Acquire);
        assert_eq!(n, THREADS * per_thread);
        assert_eq!(checksum, n * (n - 1) / 2);
    }
}
