//! Thread registry used to garbage-collect retired indexes after a resize
//! (§3.2.5, "GC old index"):
//!
//! > "we mandate that threads notify each other when finishing a request. We
//! > implement this with a per-thread pointer. When a thread enters DLHT
//! > (e.g., on a Get), we set the pointer to the current index. Just before
//! > the thread leaves DLHT, it sets the pointer to null."
//!
//! The registry is a fixed array of cache-padded announcement slots. A thread
//! lazily claims a slot the first time it touches a given table and caches
//! the slot id in a thread-local, so the per-request overhead is exactly the
//! two stores the paper describes (amortized over a batch by the batch API).
//! The thread-local releases its slots when the thread exits, so the slot
//! count bounds the threads using a table *at once*, not over its lifetime.
//! It holds each registry's slot array weakly: a table dropped first leaves
//! nothing to release, and the entry is pruned at the thread's next claim.
//!
//! Announcing the *entered* index protects the whole forward chain of `next`
//! pointers, because retired indexes are freed strictly oldest-first (see
//! `table.rs`): an index can only be freed once every index before it has
//! been freed, and an index with a live announcement is never freed.

use dlht_util::CachePadded;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

/// Maximum number of threads that can concurrently operate on one table.
pub const MAX_THREADS: usize = 1024;

/// Unique id per registry instance, used to key the thread-local slot cache.
static NEXT_REGISTRY_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The slots the current thread holds, one per live registry it touched.
    static SLOT_CACHE: RefCell<Claims> = const { RefCell::new(Claims(Vec::new())) };
}

/// A slot claimed by the current thread in registry `registry`.
struct Claim {
    registry: u64,
    slots: Weak<[CachePadded<Slot>]>,
    slot: usize,
}

/// The current thread's claims; dropping them (at thread exit) releases
/// every slot whose registry is still alive.
struct Claims(Vec<Claim>);

impl Drop for Claims {
    fn drop(&mut self) {
        for claim in &self.0 {
            if let Some(slots) = claim.slots.upgrade() {
                let slot = &slots[claim.slot];
                // ORDERING: SeqCst — read on the same total order as
                // `announce`/`clear`. A slot that still announces an index
                // (a leaked guard) stays claimed, so the scan keeps seeing it.
                if slot.announced.load(Ordering::SeqCst) == 0 {
                    // ORDERING: Release — pairs with the next claimant's
                    // AcqRel compare-exchange.
                    slot.claimed.store(false, Ordering::Release);
                }
            }
        }
    }
}

struct Slot {
    /// Pointer to the index the thread is currently operating on (as usize),
    /// or 0 when the thread is outside the table.
    announced: AtomicUsize,
    /// Whether this slot has been claimed by some thread.
    claimed: AtomicBool,
}

/// Per-table thread registry.
pub struct ThreadRegistry {
    id: u64,
    /// Shared with the weak references in each claimant's [`SLOT_CACHE`].
    slots: Arc<[CachePadded<Slot>]>,
}

impl ThreadRegistry {
    /// Create a registry with capacity for [`MAX_THREADS`] threads.
    pub fn new() -> Self {
        Self::with_capacity(MAX_THREADS)
    }

    /// Create a registry with capacity for `capacity` threads.
    pub fn with_capacity(capacity: usize) -> Self {
        ThreadRegistry {
            id: NEXT_REGISTRY_ID.fetch_add(1, Ordering::Relaxed),
            slots: (0..capacity)
                .map(|_| {
                    CachePadded::new(Slot {
                        announced: AtomicUsize::new(0),
                        claimed: AtomicBool::new(false),
                    })
                })
                .collect(),
        }
    }

    /// Claim (or look up the already-claimed) slot for the calling thread.
    /// The slot stays the thread's until the thread exits.
    ///
    /// # Panics
    /// Panics if more than `capacity` live threads hold a slot at once.
    pub fn slot_for_current_thread(&self) -> usize {
        if let Some(slot) = SLOT_CACHE.with(|c| {
            c.borrow()
                .0
                .iter()
                .find(|c| c.registry == self.id)
                .map(|c| c.slot)
        }) {
            return slot;
        }
        for (i, slot) in self.slots.iter().enumerate() {
            if slot
                .claimed
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                SLOT_CACHE.with(|c| {
                    let claims = &mut c.borrow_mut().0;
                    // Forget the claims on registries dropped since.
                    claims.retain(|c| c.slots.strong_count() > 0);
                    claims.push(Claim {
                        registry: self.id,
                        slots: Arc::downgrade(&self.slots),
                        slot: i,
                    });
                });
                return i;
            }
        }
        panic!(
            "ThreadRegistry capacity ({}) exceeded: too many threads use this table at once",
            self.slots.len()
        );
    }

    /// Announce that the calling thread's `slot` is operating on `index_ptr`.
    ///
    /// Uses `SeqCst` so the announcement is totally ordered against the
    /// resizer's scan (hazard-pointer style).
    #[inline]
    pub fn announce(&self, slot: usize, index_ptr: usize) {
        #[cfg(test)]
        announce_count::record();
        // ORDERING: SeqCst — the hazard-pointer publish must be totally
        // ordered against the retirer's `anyone_announces` scan; with anything
        // weaker the store and the scan could both miss each other and a live
        // index could be freed.
        self.slots[slot]
            .announced
            .store(index_ptr, Ordering::SeqCst); // ORDERING: see above
    }

    /// Read back what `slot` currently announces (used by validation loops).
    #[inline]
    pub fn announced(&self, slot: usize) -> usize {
        // ORDERING: SeqCst — reads the hazard slot on the same total order as
        // `announce`/`clear` so validation loops can't see a stale value.
        self.slots[slot].announced.load(Ordering::SeqCst)
    }

    /// Clear the announcement for `slot` (thread leaving the table).
    #[inline]
    pub fn clear(&self, slot: usize) {
        // ORDERING: SeqCst — un-publishing participates in the same total
        // order as `announce`, so a retirer never frees while we still hold.
        self.slots[slot].announced.store(0, Ordering::SeqCst);
    }

    /// Whether any thread currently announces `index_ptr`.
    pub fn anyone_announces(&self, index_ptr: usize) -> bool {
        self.slots.iter().any(|s| {
            // ORDERING: SeqCst on `announced` — the retirement scan must be
            // totally ordered against every `announce` (hazard-pointer
            // handshake); see `announce` for the failure mode.
            s.claimed.load(Ordering::Acquire) && s.announced.load(Ordering::SeqCst) == index_ptr
        })
    }

    /// Number of claimed slots (for stats/tests).
    pub fn claimed_slots(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.claimed.load(Ordering::Acquire))
            .count()
    }
}

impl Default for ThreadRegistry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_is_stable_per_thread() {
        let reg = ThreadRegistry::with_capacity(8);
        let a = reg.slot_for_current_thread();
        let b = reg.slot_for_current_thread();
        assert_eq!(a, b);
        assert_eq!(reg.claimed_slots(), 1);
    }

    #[test]
    fn distinct_registries_get_distinct_cache_entries() {
        let r1 = ThreadRegistry::with_capacity(4);
        let r2 = ThreadRegistry::with_capacity(4);
        let s1 = r1.slot_for_current_thread();
        let s2 = r2.slot_for_current_thread();
        // Both may be slot 0 in their own registry; announcing in one must not
        // leak into the other.
        r1.announce(s1, 0x1000);
        assert!(r1.anyone_announces(0x1000));
        assert!(!r2.anyone_announces(0x1000));
        r2.announce(s2, 0x2000);
        r1.clear(s1);
        assert!(!r1.anyone_announces(0x1000));
        assert!(r2.anyone_announces(0x2000));
    }

    #[test]
    fn announcements_from_multiple_threads_are_visible() {
        let reg = ThreadRegistry::with_capacity(16);
        let all_claimed = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            let workers: Vec<_> = (1..=4usize)
                .map(|t| {
                    let (reg, all_claimed) = (&reg, &all_claimed);
                    s.spawn(move || {
                        let slot = reg.slot_for_current_thread();
                        reg.announce(slot, t * 0x100);
                        assert!(reg.anyone_announces(t * 0x100));
                        all_claimed.wait();
                        assert_eq!(reg.claimed_slots(), 4);
                        reg.clear(slot);
                        // No thread exits (and releases) before all counted.
                        all_claimed.wait();
                    })
                })
                .collect();
            // `join` returns after the thread's exit, slot release included.
            for w in workers {
                w.join().unwrap();
            }
        });
        assert_eq!(reg.claimed_slots(), 0);
        for t in 1..=4usize {
            assert!(!reg.anyone_announces(t * 0x100));
        }
    }

    #[test]
    fn sequential_threads_reuse_released_slots() {
        const CAPACITY: usize = 2;
        let reg = ThreadRegistry::with_capacity(CAPACITY);
        for t in 1..=CAPACITY + 4 {
            std::thread::scope(|s| {
                s.spawn(|| {
                    let slot = reg.slot_for_current_thread();
                    reg.announce(slot, t * 0x100);
                    assert!(reg.anyone_announces(t * 0x100));
                    reg.clear(slot);
                })
                .join()
                .unwrap_or_else(|_| panic!("thread {t} found no free slot"));
            });
            assert_eq!(reg.claimed_slots(), 0, "thread {t} kept its slot");
        }
    }

    #[test]
    fn exit_release_skips_announcing_slots_and_dropped_registries() {
        let pinned = ThreadRegistry::with_capacity(1);
        let dropped = ThreadRegistry::with_capacity(1);
        std::thread::scope(|s| {
            s.spawn(|| {
                let slot = pinned.slot_for_current_thread();
                pinned.announce(slot, 0x100);
                let _ = dropped.slot_for_current_thread();
                drop(dropped);
            })
            .join()
            .unwrap();
        });
        // A slot still announcing an index is never released.
        assert_eq!(pinned.claimed_slots(), 1);
        assert!(pinned.anyone_announces(0x100));
    }

    #[test]
    fn claims_on_dropped_registries_are_pruned() {
        for _ in 0..8 {
            let reg = ThreadRegistry::with_capacity(1);
            let _ = reg.slot_for_current_thread();
        }
        let live = ThreadRegistry::with_capacity(1);
        let _ = live.slot_for_current_thread();
        assert_eq!(SLOT_CACHE.with(|c| c.borrow().0.len()), 1);
    }

    #[test]
    fn exceeding_capacity_panics_in_the_extra_thread() {
        let reg = ThreadRegistry::with_capacity(1);
        // First claim from this thread succeeds...
        let _ = reg.slot_for_current_thread();
        // ...a second thread must observe a panic when claiming.
        let overflowed = std::thread::scope(|s| {
            s.spawn(|| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    reg.slot_for_current_thread()
                }))
                .is_err()
            })
            .join()
            .unwrap()
        });
        assert!(overflowed);
    }
}

/// Counts the announcements (enters) each thread makes, on any registry,
/// for tests that check how often a batch enters a table.
#[cfg(test)]
pub(crate) mod announce_count {
    use std::cell::Cell;

    thread_local! {
        static ANNOUNCES: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn record() {
        ANNOUNCES.with(|n| n.set(n.get() + 1));
    }

    /// Announcements the current thread makes while running `f`.
    pub(crate) fn during(f: impl FnOnce()) -> u64 {
        let before = ANNOUNCES.with(Cell::get);
        f();
        ANNOUNCES.with(Cell::get) - before
    }
}
