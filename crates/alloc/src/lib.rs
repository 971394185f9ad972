//! Value allocators for DLHT's Allocator mode.
//!
//! The paper's testbed preloads **mimalloc** with 2 MB huge pages and Fig. 14
//! contrasts it against plain `malloc` ("No mimalloc" bar). Neither of those
//! is a Rust crate we take as a dependency; instead this crate provides:
//!
//! * [`SystemAllocator`] — a thin adapter over the global Rust allocator,
//!   playing the role of plain `malloc`.
//! * [`PoolAllocator`] — a sharded, size-classed, slab-backed pool allocator
//!   playing the role of mimalloc: allocations of the hot sizes are served
//!   from per-shard free lists carved out of large slabs, avoiding the global
//!   allocator on the request path.
//! * [`CountingAllocator`] — a wrapper that counts allocations/deallocations,
//!   used by tests.
//!
//! In Allocator mode DLHT takes one of these "as in C++ containers" (§3.1):
//! every Insert of an out-of-line key/value allocates through it and every
//! Delete eventually releases through it (via the epoch GC).

#![deny(unsafe_op_in_unsafe_fn)]

mod pool;
mod system;

pub use pool::PoolAllocator;
pub use system::SystemAllocator;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Minimum alignment guaranteed by every [`ValueAllocator`].
pub const VALUE_ALIGN: usize = 16;

/// A thread-safe allocator for out-of-line key/value storage.
///
/// Implementors must return `VALUE_ALIGN`-aligned memory and tolerate
/// `dealloc` being called from a different thread than `alloc`.
pub trait ValueAllocator: Send + Sync + 'static {
    /// Allocate `size` bytes (never zero). Returns a non-null pointer or
    /// panics on out-of-memory (matching the paper's in-memory setting where
    /// OOM is fatal).
    fn alloc(&self, size: usize) -> *mut u8;

    /// Release an allocation previously returned by [`ValueAllocator::alloc`]
    /// with the same `size`.
    ///
    /// # Safety
    /// `ptr` must come from `alloc(size)` on this allocator and must not be
    /// used afterwards.
    unsafe fn dealloc(&self, ptr: *mut u8, size: usize);

    /// Human-readable name for benchmark output.
    fn name(&self) -> &'static str;
}

/// Statistics-collecting wrapper around any [`ValueAllocator`].
pub struct CountingAllocator<A: ValueAllocator> {
    inner: A,
    allocs: AtomicU64,
    deallocs: AtomicU64,
    bytes: AtomicU64,
}

impl<A: ValueAllocator> CountingAllocator<A> {
    /// Wrap `inner`.
    pub fn new(inner: A) -> Self {
        CountingAllocator {
            inner,
            allocs: AtomicU64::new(0),
            deallocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Number of `alloc` calls so far.
    pub fn allocs(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }

    /// Number of `dealloc` calls so far.
    pub fn deallocs(&self) -> u64 {
        self.deallocs.load(Ordering::Relaxed)
    }

    /// Total bytes requested so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Live allocations (allocs minus deallocs).
    pub fn live(&self) -> i64 {
        self.allocs() as i64 - self.deallocs() as i64
    }
}

impl<A: ValueAllocator> ValueAllocator for CountingAllocator<A> {
    fn alloc(&self, size: usize) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size as u64, Ordering::Relaxed);
        self.inner.alloc(size)
    }

    // SAFETY: pure forwarding wrapper — the caller's obligations on `ptr` and
    // `size` are exactly the inner allocator's.
    unsafe fn dealloc(&self, ptr: *mut u8, size: usize) {
        self.deallocs.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `alloc` forwards to `inner.alloc`, so a pointer the caller
        // got from us came from `inner` with the same size.
        unsafe { self.inner.dealloc(ptr, size) }
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Blanket impl so `Arc<A>` can be passed wherever an allocator is expected.
impl<A: ValueAllocator + ?Sized> ValueAllocator for Arc<A> {
    fn alloc(&self, size: usize) -> *mut u8 {
        (**self).alloc(size)
    }

    // SAFETY: pure forwarding wrapper — `Arc` adds sharing, not new invariants.
    unsafe fn dealloc(&self, ptr: *mut u8, size: usize) {
        // SAFETY: `alloc` forwards to the inner allocator, so the caller's
        // pointer/size contract transfers unchanged.
        unsafe { (**self).dealloc(ptr, size) }
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Which allocator to instantiate, mirroring Table 2's
/// `Allocator: mimalloc (2MB pages), malloc` row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocatorKind {
    /// Pooled allocator (mimalloc stand-in) — the paper's default.
    #[default]
    Pool,
    /// The global Rust/system allocator (plain `malloc` stand-in).
    System,
}

impl AllocatorKind {
    /// Instantiate the selected allocator behind a trait object.
    pub fn build(self) -> Arc<dyn ValueAllocator> {
        match self {
            AllocatorKind::Pool => Arc::new(PoolAllocator::new()),
            AllocatorKind::System => Arc::new(SystemAllocator::new()),
        }
    }

    /// Name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            AllocatorKind::Pool => "pool(mimalloc-substitute)",
            AllocatorKind::System => "system-malloc",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<A: ValueAllocator>(a: &A) {
        let sizes = [1usize, 8, 16, 24, 100, 256, 1024, 5000, 70_000];
        let mut ptrs = Vec::new();
        for &s in &sizes {
            let p = a.alloc(s);
            assert!(!p.is_null());
            assert_eq!(p as usize % VALUE_ALIGN, 0, "misaligned for size {s}");
            // Touch the whole allocation to catch undersized slabs.
            // SAFETY: `p` was just returned by `alloc(s)`, so `s` bytes are
            // writable.
            unsafe { std::ptr::write_bytes(p, 0xAB, s) };
            ptrs.push((p, s));
        }
        for (p, s) in ptrs {
            // SAFETY: each pointer came from `a.alloc(s)` and is freed once.
            unsafe { a.dealloc(p, s) };
        }
    }

    #[test]
    fn system_allocator_roundtrip() {
        exercise(&SystemAllocator::new());
    }

    #[test]
    fn pool_allocator_roundtrip() {
        exercise(&PoolAllocator::new());
    }

    #[test]
    fn counting_allocator_tracks_usage() {
        let a = CountingAllocator::new(SystemAllocator::new());
        let p1 = a.alloc(64);
        let p2 = a.alloc(128);
        assert_eq!(a.allocs(), 2);
        assert_eq!(a.bytes(), 192);
        assert_eq!(a.live(), 2);
        // SAFETY: both pointers came from `a.alloc` with the same sizes.
        unsafe {
            a.dealloc(p1, 64);
            a.dealloc(p2, 128);
        }
        assert_eq!(a.deallocs(), 2);
        assert_eq!(a.live(), 0);
    }

    #[test]
    fn kind_builds_named_allocators() {
        let pool = AllocatorKind::Pool.build();
        let sys = AllocatorKind::System.build();
        assert_ne!(pool.name(), sys.name());
        let p = pool.alloc(40);
        // SAFETY: `p` came from `pool.alloc(40)`.
        unsafe { pool.dealloc(p, 40) };
        let p = sys.alloc(40);
        // SAFETY: `p` came from `sys.alloc(40)`.
        unsafe { sys.dealloc(p, 40) };
    }
}
