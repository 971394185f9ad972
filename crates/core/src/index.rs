//! The index: an array of bins plus the shared link-bucket array and the
//! per-index resize bookkeeping (§3.1, §3.2.5).
//!
//! Both arrays live in a `Slab`: one allocation that, from 2 MiB up, is
//! aligned to a transparent huge page and advised `MADV_HUGEPAGE` before its
//! first write (see `docs/ARCHITECTURE.md`, "Index memory").

use crate::bucket::{LinkBucket, LinkMeta, PrimaryBucket, NO_LINK};
use crate::config::DlhtConfig;
use crate::header::BinHeader;
use crate::prefetch::prefetch_read;
use dlht_hash::HashKind;
use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicUsize, Ordering};

/// `key`'s bin among `num_bins` bins under `hash` — [`Index::bin_of`] and
/// [`BinGeometry::prefetch`] share it.
#[inline]
fn bin_for(hash: HashKind, num_bins: usize, key: u64) -> usize {
    (hash.hash_u64(key) % num_bins as u64) as usize
}

/// What a prefetch needs from an index: where its bins start, how many there
/// are, and the hash that picks one. A plain copy that may outlive the index
/// it was read from, so neither pointer is ever dereferenced: a stale
/// geometry (the index was replaced, freed, or its address reused) costs at
/// most one wasted prefetch of an address `prefetch_read` may be given
/// (it never faults).
#[derive(Clone, Copy)]
pub(crate) struct BinGeometry {
    /// The index this was read from; compared, never dereferenced.
    pub(crate) index: *const Index,
    bins: *const PrimaryBucket,
    num_bins: usize,
    hash: HashKind,
}

impl BinGeometry {
    /// Matches no index: a table's current index is never null.
    pub(crate) const NONE: Self = BinGeometry {
        index: std::ptr::null(),
        bins: std::ptr::null(),
        num_bins: 1,
        hash: HashKind::Modulo,
    };

    /// Prefetch the primary bucket `key` hashes to (§3.3). The address is
    /// computed with wrapping arithmetic and only prefetched.
    #[inline]
    pub(crate) fn prefetch(&self, key: u64) {
        let bin = bin_for(self.hash, self.num_bins, key);
        prefetch_read(self.bins.wrapping_add(bin));
    }
}

/// One generation of the table: bins, link buckets, and resize state.
///
/// Indexes are linked into a forward chain through `Index::next` by the
/// resize protocol; the chain is only ever extended at the tail and freed from
/// the head (oldest first). Every index reachable from the one a thread
/// entered on is retired after its enter announced, so the announcement
/// protects the whole traversal (see `registry.rs`).
pub struct Index {
    bins: Slab<PrimaryBucket>,
    links: Slab<LinkBucket>,
    /// Bump cursor into `links`; link buckets are never individually freed.
    link_cursor: AtomicU32,
    num_bins: usize,
    hash: HashKind,

    /// The index objects are chained oldest -> newest during resizes.
    next: AtomicPtr<Index>,
    /// Set by the thread that wins the right to allocate the next index.
    resize_claimed: AtomicBool,
    /// Next chunk of bins to be claimed by a transfer helper.
    chunk_cursor: AtomicUsize,
    /// Chunks fully transferred so far.
    chunks_done: AtomicUsize,
    num_chunks: usize,
    chunk_bins: usize,
    /// Monotonically increasing generation number (0 for the initial index).
    generation: u32,
}

impl Index {
    /// Allocate an empty index with `num_bins` bins.
    pub fn new(num_bins: usize, config: &DlhtConfig, generation: u32) -> Self {
        let num_bins = num_bins.max(2);
        let num_links = config.link_buckets_for(num_bins);
        let chunk_bins = config.chunk_bins.max(1);
        Index {
            bins: Slab::new(num_bins, PrimaryBucket::new),
            links: Slab::new(num_links, LinkBucket::new),
            link_cursor: AtomicU32::new(0),
            num_bins,
            hash: config.hash,
            next: AtomicPtr::new(std::ptr::null_mut()),
            resize_claimed: AtomicBool::new(false),
            chunk_cursor: AtomicUsize::new(0),
            chunks_done: AtomicUsize::new(0),
            num_chunks: num_bins.div_ceil(chunk_bins),
            chunk_bins,
            generation,
        }
    }

    /// Number of bins.
    #[inline]
    pub fn num_bins(&self) -> usize {
        self.num_bins
    }

    /// Number of link buckets in the pool.
    #[inline]
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Number of link buckets already handed out.
    #[inline]
    pub fn links_used(&self) -> usize {
        (self.link_cursor.load(Ordering::Relaxed) as usize).min(self.links.len())
    }

    /// Generation number of this index (0 = initial).
    #[inline]
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Hash function in use.
    #[inline]
    pub fn hash_kind(&self) -> HashKind {
        self.hash
    }

    /// Map a key to its bin.
    #[inline]
    pub fn bin_of(&self, key: u64) -> usize {
        bin_for(self.hash, self.num_bins, key)
    }

    /// The primary bucket of bin `b`.
    #[inline]
    pub fn bin(&self, b: usize) -> &PrimaryBucket {
        &self.bins[b]
    }

    /// Link bucket `idx`.
    #[inline]
    pub fn link(&self, idx: u32) -> &LinkBucket {
        &self.links[idx as usize]
    }

    /// Issue a software prefetch for the primary bucket of bin `b` (§3.3).
    #[inline]
    pub fn prefetch_bin(&self, b: usize) {
        prefetch_read(&self.bins[b] as *const PrimaryBucket);
    }

    /// This index's [`BinGeometry`], kept by a [`crate::Session`] as its
    /// prefetch hint.
    // ESCAPE: the copied `bins` and `self` pointers outlive the guard that
    // made `&self` reachable, but nothing dereferences them: the index
    // pointer is only compared and the bins pointer only offset (wrapping)
    // and prefetched, which never faults (see `BinGeometry`).
    #[inline]
    pub(crate) fn bin_geometry(&self) -> BinGeometry {
        BinGeometry {
            index: self,
            bins: self.bins.as_ptr(),
            num_bins: self.num_bins,
            hash: self.hash,
        }
    }

    /// Allocate `n` consecutive link buckets (n is 1 or 2). Returns the index
    /// of the first, or `None` when the pool is exhausted — which is a resize
    /// trigger (§3.2.2 "Chaining buckets").
    pub fn alloc_link_buckets(&self, n: u32) -> Option<u32> {
        debug_assert!(n == 1 || n == 2);
        loop {
            let cur = self.link_cursor.load(Ordering::Relaxed);
            let end = cur.checked_add(n)?;
            if end as usize > self.links.len() {
                return None;
            }
            if self
                .link_cursor
                .compare_exchange_weak(cur, end, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return Some(cur);
            }
        }
    }

    /// Resolve bin-relative slot index `slot` to its [`crate::atomic128::AtomicPair`],
    /// given the bin's current link meta. Returns `None` if the needed link
    /// bucket is not chained (the slot is unreachable).
    #[inline]
    pub fn slot_pair<'a>(
        &'a self,
        bin: &'a PrimaryBucket,
        meta: LinkMeta,
        slot: usize,
    ) -> Option<&'a crate::atomic128::AtomicPair> {
        use crate::bucket::{slot_location, SlotLocation};
        match slot_location(slot) {
            SlotLocation::Primary(i) => Some(&bin.slots[i]),
            SlotLocation::FirstLink(i) => {
                let l = meta.first();
                if l == NO_LINK {
                    None
                } else {
                    Some(&self.links[l as usize].slots[i])
                }
            }
            SlotLocation::PairLink { bucket, idx } => {
                let l = meta.pair();
                if l == NO_LINK {
                    None
                } else {
                    Some(&self.links[l as usize + bucket].slots[idx])
                }
            }
        }
    }

    // ----- resize bookkeeping -------------------------------------------------

    /// Pointer to the next (newer) index, if a resize has been initiated.
    // ESCAPE: the `&self` borrow is itself only reachable through a guard
    // (indexes are handed out via `EnterGuard::index_ptr`), and the returned
    // next-index pointer stays valid for the same guard scope: the old and
    // new index are retired together, after every session has migrated.
    #[inline]
    pub fn next_ptr(&self) -> *mut Index {
        self.next.load(Ordering::Acquire)
    }

    /// Publish the next index (called once, by the resize winner).
    pub(crate) fn publish_next(&self, next: *mut Index) {
        self.next.store(next, Ordering::Release);
    }

    /// Try to become the thread that allocates the next index.
    pub(crate) fn claim_resize(&self) -> bool {
        self.resize_claimed
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }

    /// Whether a resize of this index has been initiated.
    #[inline]
    pub fn resize_in_progress(&self) -> bool {
        self.resize_claimed.load(Ordering::Acquire)
    }

    /// Claim the next untransferred chunk of bins; returns its bin range.
    pub(crate) fn claim_chunk(&self) -> Option<std::ops::Range<usize>> {
        loop {
            let c = self.chunk_cursor.load(Ordering::Relaxed);
            if c >= self.num_chunks {
                return None;
            }
            if self
                .chunk_cursor
                .compare_exchange_weak(c, c + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                let start = c * self.chunk_bins;
                let end = ((c + 1) * self.chunk_bins).min(self.num_bins);
                return Some(start..end);
            }
        }
    }

    /// Record that one chunk has been fully transferred.
    pub(crate) fn chunk_transferred(&self) {
        self.chunks_done.fetch_add(1, Ordering::AcqRel);
    }

    /// Whether every bin of this index has been transferred to the next one.
    #[inline]
    pub fn fully_transferred(&self) -> bool {
        self.chunks_done.load(Ordering::Acquire) >= self.num_chunks
    }

    /// Total number of transfer chunks.
    #[inline]
    pub fn num_chunks(&self) -> usize {
        self.num_chunks
    }

    /// Chunks recorded as fully transferred so far (for the invariant sweep).
    #[inline]
    pub fn chunks_done(&self) -> usize {
        self.chunks_done.load(Ordering::Acquire)
    }

    // ----- statistics ----------------------------------------------------------

    /// Number of Valid or Shadow slots (linear scan; intended for stats, not
    /// the hot path).
    pub fn occupied_slots(&self) -> usize {
        self.bins
            .iter()
            .map(|b| BinHeader(b.header.load(Ordering::Acquire)).occupied_slots())
            .sum()
    }

    /// Total slots addressable right now: 3 per bin plus 4 per handed-out link
    /// bucket.
    pub fn addressable_slots(&self) -> usize {
        self.num_bins * crate::header::PRIMARY_SLOTS + self.links_used() * crate::header::LINK_SLOTS
    }

    /// Total slots if every link bucket were chained.
    pub fn max_slots(&self) -> usize {
        self.num_bins * crate::header::PRIMARY_SLOTS + self.links.len() * crate::header::LINK_SLOTS
    }

    /// Memory footprint of the index's buckets in bytes (the alignment slack
    /// of a huge-page-aligned array is not counted).
    pub fn memory_bytes(&self) -> usize {
        self.bins.len() * std::mem::size_of::<PrimaryBucket>()
            + self.links.len() * std::mem::size_of::<LinkBucket>()
    }
}

/// Transparent-huge-page size: the alignment of every [`Slab`] this large.
const HUGE_PAGE: usize = 2 << 20;

/// A fixed-length bucket array in one heap allocation: the storage of an
/// index's bins and of its link buckets.
///
/// An array of [`HUGE_PAGE`] bytes or more is aligned to a huge page and
/// advised `MADV_HUGEPAGE` *before* any bucket is written. The order
/// matters: the first write faults the pages in, and pages faulted in before
/// the advice are 4 KiB pages (memory zeroed by the allocator gets none).
/// Backed by huge pages, one TLB entry covers 32768 buckets instead of 64,
/// so a random probe of an index far larger than the cache costs a data
/// miss and not a data miss plus a page walk. Smaller arrays, non-Linux
/// targets, Miri, and a refused `madvise` take the layout a `Box<[T]>` of
/// the same length has.
struct Slab<T> {
    ptr: NonNull<T>,
    len: usize,
    /// The layout `ptr` was allocated with.
    layout: Layout,
}

// SAFETY: `ptr` uniquely owns the `len` elements (no other handle to the
// allocation exists), exactly as a `Box<[T]>` does; `len` and `layout` are
// plain data. Sending the slab sends the elements, hence `T: Send`.
unsafe impl<T: Send> Send for Slab<T> {}
// SAFETY: through `&Slab<T>` only `&[T]` is reachable (`Deref`), as through
// `&Box<[T]>`, hence `T: Sync`.
unsafe impl<T: Sync> Sync for Slab<T> {}

impl<T> Slab<T> {
    /// `len` (at least one) elements, each written by `init`.
    fn new(len: usize, init: fn() -> T) -> Self {
        let plain = Layout::array::<T>(len).expect("index size overflows the address space");
        assert!(plain.size() > 0, "index arrays are never empty");
        let huge = if plain.size() >= HUGE_PAGE {
            alloc_huge(plain)
        } else {
            None
        };
        // SAFETY: `plain` has a non-zero size (asserted above).
        let (raw, layout) = huge.unwrap_or_else(|| (unsafe { alloc(plain) }, plain));
        let ptr = NonNull::new(raw.cast::<T>()).unwrap_or_else(|| handle_alloc_error(layout));
        for i in 0..len {
            // SAFETY: `i < len`, and the allocation holds `len` elements of `T`.
            unsafe { ptr.as_ptr().add(i).write(init()) };
        }
        Slab { ptr, len, layout }
    }
}

impl<T> Deref for Slab<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: `ptr` holds `len` initialised elements until `drop`.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T> Drop for Slab<T> {
    fn drop(&mut self) {
        let elems = std::ptr::slice_from_raw_parts_mut(self.ptr.as_ptr(), self.len);
        // SAFETY: the `len` elements were initialised in `new` and are dropped
        // only here; `layout` is the layout `ptr` was allocated with.
        unsafe {
            std::ptr::drop_in_place(elems);
            dealloc(self.ptr.as_ptr().cast(), self.layout);
        }
    }
}

/// `plain`'s size allocated on a [`HUGE_PAGE`] boundary, with its whole
/// huge pages advised `MADV_HUGEPAGE`; `None` (nothing allocated) if the
/// allocator or the kernel refuses. `madvise` is declared by hand (no libc
/// crate), as `dlht-net`'s `poll(2)` binding is.
#[cfg(all(target_os = "linux", not(miri)))]
fn alloc_huge(plain: Layout) -> Option<(*mut u8, Layout)> {
    use std::os::raw::{c_int, c_void};
    /// `MADV_HUGEPAGE` from `<asm-generic/mman-common.h>`.
    const MADV_HUGEPAGE: c_int = 14;
    extern "C" {
        /// `int madvise(void *addr, size_t length, int advice)` — Linux.
        fn madvise(addr: *mut c_void, length: usize, advice: c_int) -> c_int;
    }
    let huge = plain.align_to(HUGE_PAGE).ok()?;
    // SAFETY: `huge` has `plain`'s non-zero size.
    let raw = unsafe { alloc(huge) };
    if raw.is_null() {
        return None;
    }
    // Whole huge pages only: a huge page under the partial tail would grow
    // RSS past the end of the array.
    let advised = plain.size() & !(HUGE_PAGE - 1);
    // SAFETY: `[raw, raw + advised)` lies inside the allocation just made,
    // `raw` is page aligned, and MADV_HUGEPAGE changes only how the kernel
    // backs the range, never its contents.
    if unsafe { madvise(raw.cast(), advised, MADV_HUGEPAGE) } == 0 {
        return Some((raw, huge));
    }
    // SAFETY: `raw` was allocated above with `huge` and is not used again.
    unsafe { dealloc(raw, huge) };
    None
}

/// Huge pages need Linux's `madvise`, and Miri cannot call foreign code:
/// elsewhere every slab takes the plain layout.
#[cfg(not(all(target_os = "linux", not(miri))))]
fn alloc_huge(_plain: Layout) -> Option<(*mut u8, Layout)> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> DlhtConfig {
        DlhtConfig::new(16).with_link_ratio(8)
    }

    #[test]
    fn construction_and_sizes() {
        let idx = Index::new(16, &small_config(), 0);
        assert_eq!(idx.num_bins(), 16);
        assert_eq!(idx.num_links(), 2);
        assert_eq!(idx.max_slots(), 16 * 3 + 2 * 4);
        assert_eq!(idx.addressable_slots(), 48);
        assert_eq!(idx.occupied_slots(), 0);
        assert_eq!(idx.memory_bytes(), 16 * 64 + 2 * 64);
        assert_eq!(idx.generation(), 0);
    }

    #[test]
    fn bin_mapping_respects_modulo() {
        let idx = Index::new(16, &small_config(), 0);
        assert_eq!(idx.bin_of(0), 0);
        assert_eq!(idx.bin_of(5), 5);
        assert_eq!(idx.bin_of(16), 0);
        assert_eq!(idx.bin_of(31), 15);
    }

    #[test]
    fn link_allocation_is_bounded() {
        let idx = Index::new(16, &small_config(), 0);
        assert_eq!(idx.alloc_link_buckets(1), Some(0));
        assert_eq!(idx.alloc_link_buckets(1), Some(1));
        assert_eq!(idx.alloc_link_buckets(1), None, "pool exhausted");
        assert_eq!(idx.links_used(), 2);
    }

    #[test]
    fn pair_allocation_never_splits_across_capacity() {
        let cfg = DlhtConfig::new(24).with_link_ratio(8); // 3 link buckets
        let idx = Index::new(24, &cfg, 0);
        assert_eq!(idx.alloc_link_buckets(2), Some(0));
        // Only one bucket left; a pair request must fail, a single succeeds.
        assert_eq!(idx.alloc_link_buckets(2), None);
        assert_eq!(idx.alloc_link_buckets(1), Some(2));
    }

    #[test]
    fn chunk_claiming_partitions_all_bins() {
        let cfg = DlhtConfig::new(100).with_chunk_bins(16);
        let idx = Index::new(100, &cfg, 0);
        assert_eq!(idx.num_chunks(), 7);
        let mut covered = [false; 100];
        while let Some(range) = idx.claim_chunk() {
            for b in range {
                assert!(!covered[b], "bin {b} claimed twice");
                covered[b] = true;
            }
            idx.chunk_transferred();
        }
        assert!(covered.iter().all(|&c| c));
        assert!(idx.fully_transferred());
    }

    #[test]
    fn resize_claim_is_exclusive() {
        let idx = Index::new(8, &small_config(), 0);
        assert!(!idx.resize_in_progress());
        assert!(idx.claim_resize());
        assert!(!idx.claim_resize());
        assert!(idx.resize_in_progress());
    }

    /// Bins of one huge page: the smallest index whose bins take the
    /// huge-page path.
    const HUGE_BINS: usize = HUGE_PAGE / std::mem::size_of::<PrimaryBucket>();

    #[test]
    #[cfg(all(target_os = "linux", not(miri)))]
    fn huge_page_sized_bins_start_on_a_huge_page_boundary() {
        if std::fs::metadata("/sys/kernel/mm/transparent_hugepage/enabled").is_err() {
            eprintln!("skipped: kernel without transparent huge pages refuses MADV_HUGEPAGE");
            return;
        }
        for bins in [HUGE_BINS, 3 * HUGE_BINS + 5] {
            let idx = Index::new(bins, &small_config(), 0);
            assert!(idx.memory_bytes() >= HUGE_PAGE);
            let addr = idx.bin(0) as *const PrimaryBucket as usize;
            assert_eq!(addr % HUGE_PAGE, 0, "{bins} bins at {addr:#x}");
        }
    }

    #[test]
    fn fresh_small_and_large_indexes_are_empty() {
        // Miri interprets every store: it builds the small index only (both
        // take the same plain layout there).
        let sizes: &[usize] = if cfg!(miri) {
            &[16]
        } else {
            &[16, HUGE_BINS + 1]
        };
        for &bins in sizes {
            let idx = Index::new(bins, &DlhtConfig::new(bins).with_link_ratio(2), 0);
            for b in 0..idx.num_bins() {
                let bin = idx.bin(b);
                assert_eq!(
                    BinHeader(bin.header.load(Ordering::Relaxed)),
                    BinHeader::EMPTY
                );
                assert_eq!(LinkMeta(bin.link.load(Ordering::Relaxed)), LinkMeta::EMPTY);
                assert!(
                    bin.slots
                        .iter()
                        .all(|s| s.load(Ordering::Relaxed) == (0, 0)),
                    "bin {b}"
                );
            }
            for l in 0..idx.num_links() {
                let link = idx.link(l as u32);
                assert!(
                    link.slots
                        .iter()
                        .all(|s| s.load(Ordering::Relaxed) == (0, 0)),
                    "link {l}"
                );
            }
            assert_eq!(idx.occupied_slots(), 0, "{bins} bins");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "tens of thousands of inserts are too slow under Miri")]
    fn growing_from_a_small_to_a_huge_page_index_keeps_every_key() {
        use crate::table::DlhtMap;
        // 8 Ki bins (512 KiB) grow 4x to 32 Ki bins, exactly one huge page.
        let table = DlhtMap::new(HUGE_BINS / 4);
        assert!(table.stats().index_bytes < HUGE_PAGE);
        let mut rng = 0x5EED_u64;
        let keys: Vec<u64> = (0..30_000)
            .map(|_| dlht_util::splitmix64(&mut rng) >> 2)
            .collect();
        for &k in &keys {
            assert!(table.insert(k, !k).unwrap().inserted(), "key {k}");
        }
        let stats = table.stats();
        assert!(stats.resizes > 0, "30000 keys overflow 8 Ki bins");
        assert!(stats.bins * std::mem::size_of::<PrimaryBucket>() >= HUGE_PAGE);
        for &k in &keys {
            assert_eq!(table.get(k), Some(!k), "key {k}");
        }
        assert_eq!(table.len(), keys.len());
    }

    #[test]
    fn slot_pair_resolution_needs_links() {
        let cfg = DlhtConfig::new(8).with_link_ratio(1); // 8 link buckets
        let idx = Index::new(8, &cfg, 0);
        let bin = idx.bin(0);
        let empty = LinkMeta::EMPTY;
        assert!(idx.slot_pair(bin, empty, 0).is_some());
        assert!(idx.slot_pair(bin, empty, 2).is_some());
        assert!(idx.slot_pair(bin, empty, 3).is_none());
        assert!(idx.slot_pair(bin, empty, 14).is_none());

        let chained = empty.with_first(0).with_pair(1);
        assert!(idx.slot_pair(bin, chained, 6).is_some());
        assert!(idx.slot_pair(bin, chained, 7).is_some());
        assert!(idx.slot_pair(bin, chained, 14).is_some());
    }
}
