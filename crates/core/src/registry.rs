//! The table's one reclamation protocol, behind both "GC old index" (§3.2.5)
//! and the record GC of the Allocator mode's deletes (§3.2.3). As the paper
//! has it, a thread announces itself when it enters DLHT and clears the
//! announcement just before it leaves; here it announces the table's
//! *epoch*. Whatever a writer unlinks — an index replaced by a resize, a
//! record replaced or deleted — is retired stamped with the epoch it reads
//! after the unlink, and freed once the epoch has advanced twice past that
//! stamp. The epoch advances only when every *entered* slot announces it, so
//! an idle thread or session blocks nothing. The argument, nesting included,
//! is in `docs/CORRECTNESS.md`, "Reclamation: one epoch".
//!
//! * **Nesting.** Only a thread's outermost enter announces and only its
//!   leave clears; a per-slot depth counts the enters in between.
//! * **Slots.** A thread claims a slot the first time it touches a table and
//!   caches the slot id in a thread-local, which releases it when the thread
//!   exits (so the slot count bounds the threads using a table *at once*),
//!   unless the table was dropped first; such entries are pruned at the
//!   thread's next claim.
//! * **Bags.** Records retire into their thread's slot, in stamp order; any
//!   thread's collection frees any slot's freeable records, so a session or
//!   thread that goes away leaves nothing stranded. Retired indexes stay on
//!   the table's own list (`table.rs`), stamped from the same epoch.

use dlht_util::{CachePadded, Mutex};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

/// Maximum number of threads that can concurrently operate on one table.
pub const MAX_THREADS: usize = 1024;

/// A slot collects once per this many records it retires (plus on every
/// explicit collection), so retirement stays O(1) amortized.
const COLLECT_EVERY: u32 = 64;

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
                // ORDERING: SeqCst — read on the same total order as the
                // announcement. A slot that is still entered (a leaked
                // guard) stays claimed, so the epoch scan keeps seeing it.
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
    /// The epoch the thread's outermost enter announced, or 0 when the
    /// thread is outside the table.
    announced: AtomicU64,
    /// Enters the owning thread holds (written by that thread only).
    depth: AtomicUsize,
    /// Whether this slot has been claimed by some thread.
    claimed: AtomicBool,
    /// Records retired through this slot, oldest stamp first.
    bag: Mutex<Bag>,
}

#[derive(Default)]
struct Bag {
    /// `(stamp, record address)` pairs, stamps non-decreasing.
    records: VecDeque<(u64, usize)>,
    /// Records retired since this slot last triggered a collection.
    since_collect: u32,
}

/// Per-table thread registry, epoch and record bags.
pub struct ThreadRegistry {
    id: u64,
    /// Shared with the weak references in each claimant's [`SLOT_CACHE`].
    slots: Arc<[CachePadded<Slot>]>,
    /// The table's epoch; starts at 1, since 0 means "not entered".
    epoch: CachePadded<AtomicU64>,
    /// One past the highest slot ever claimed: the scans stop here.
    high_water: AtomicUsize,
}

impl ThreadRegistry {
    /// Create a registry with capacity for `capacity` threads.
    pub fn with_capacity(capacity: usize) -> Self {
        ThreadRegistry {
            id: NEXT_REGISTRY_ID.fetch_add(1, Ordering::Relaxed),
            slots: (0..capacity)
                .map(|_| {
                    CachePadded::new(Slot {
                        announced: AtomicU64::new(0),
                        depth: AtomicUsize::new(0),
                        claimed: AtomicBool::new(false),
                        bag: Mutex::new(Bag::default()),
                    })
                })
                .collect(),
            epoch: CachePadded::new(AtomicU64::new(1)),
            high_water: AtomicUsize::new(0),
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
                // ORDERING: Release — sequenced before this thread's first
                // enter fence: a scan whose fence follows that fence in the
                // total order reads the new mark, and one whose fence
                // precedes it makes the enter see the advance (`enter`).
                self.high_water.fetch_max(i + 1, Ordering::Release);
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

    /// Enter on the calling thread's `slot`. The outermost enter announces
    /// the current epoch; a nested one only counts itself.
    #[inline]
    pub fn enter(&self, slot: usize) {
        let s = &self.slots[slot];
        // ORDERING: Relaxed — only the owning thread reads or writes `depth`.
        let depth = s.depth.load(Ordering::Relaxed);
        // ORDERING: Relaxed — as above.
        s.depth.store(depth + 1, Ordering::Relaxed);
        if depth > 0 {
            return;
        }
        #[cfg(test)]
        announce_count::record();
        loop {
            // ORDERING: Acquire — pairs with the advancing CAS, so the advance
            // to `e` happens before the fence below (a writer's stamp read
            // after a later fence is then at least `e`).
            let e = self.epoch.load(Ordering::Acquire);
            // ORDERING: Relaxed — ordered by the fence below.
            s.announced.store(e, Ordering::Relaxed);
            // ORDERING: SeqCst fence — pairs with the fences of `advance_to`
            // and `stamp`. Against an advancer: its scan either reads this
            // announcement, or its fence came first and the re-load below
            // sees its advance, so we announce again; while the slot
            // announces `e` the epoch stays at most `e + 1`. Against a
            // writer: every read this thread makes from here on either sees
            // the writer's unlink, or follows a fence that precedes the
            // writer's, whose stamp is then at least `e`.
            fence(Ordering::SeqCst);
            // ORDERING: Relaxed — after the fence (see above).
            if self.epoch.load(Ordering::Relaxed) == e {
                return;
            }
        }
    }

    /// Leave `slot`: the outermost leave clears the announcement.
    #[inline]
    pub fn leave(&self, slot: usize) {
        let s = &self.slots[slot];
        // ORDERING: Relaxed — only the owning thread reads or writes `depth`.
        let depth = s.depth.load(Ordering::Relaxed);
        debug_assert!(depth > 0, "leave without enter");
        // ORDERING: Relaxed — as above.
        s.depth.store(depth - 1, Ordering::Relaxed);
        if depth == 1 {
            // ORDERING: Release — every read made while entered happens
            // before an advancer that sees the cleared slot, and so before
            // any free that advance allows.
            s.announced.store(0, Ordering::Release);
        }
    }

    /// The current epoch.
    #[inline]
    pub fn epoch(&self) -> u64 {
        // ORDERING: Acquire — pairs with the advancing CAS.
        self.epoch.load(Ordering::Acquire)
    }

    /// The stamp for an item the calling thread has just unlinked: the
    /// epoch, read after a fence that follows the unlink.
    #[inline]
    pub fn stamp(&self) -> u64 {
        // ORDERING: SeqCst fence — pairs with `enter`'s: a reader whose
        // fence comes later cannot read the unlinked item, and one whose
        // fence came first announced at most the epoch read here.
        fence(Ordering::SeqCst);
        self.epoch()
    }

    /// Advance the epoch until it reaches `target` or an entered slot still
    /// announces an older epoch. Returns the epoch reached.
    pub fn advance_to(&self, target: u64) -> u64 {
        let mut epoch = self.epoch();
        while epoch < target {
            // ORDERING: SeqCst fence — pairs with `enter`'s (see there): the
            // scan below reads every announcement whose fence came first.
            fence(Ordering::SeqCst);
            let lagging = self.claimed_slots_iter().any(|s| {
                // ORDERING: Acquire — pairs with `leave`'s Release clear, so
                // the leaver's reads happen before any free this allows.
                let a = s.announced.load(Ordering::Acquire);
                a != 0 && a != epoch
            });
            if lagging {
                break;
            }
            // ORDERING: AcqRel — a later advancer or stamp reads this value
            // with everything before it.
            epoch = match self.epoch.compare_exchange(
                epoch,
                epoch + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => epoch + 1,
                Err(now) => now,
            };
        }
        epoch
    }

    /// Retire the record at `addr` into `slot`'s bag, stamped with the
    /// current epoch. Returns whether this slot is due to collect.
    pub fn retire(&self, slot: usize, addr: usize) -> bool {
        let mut bag = self.slots[slot].bag.lock();
        // Read under the lock, so the bag's stamps never decrease.
        let stamp = self.stamp();
        bag.records.push_back((stamp, addr));
        bag.since_collect = (bag.since_collect + 1) % COLLECT_EVERY;
        bag.since_collect == 0
    }

    /// Hand every record stamped at least two epochs before `epoch` to
    /// `free`, removing it from its bag.
    pub fn free_records(&self, epoch: u64, mut free: impl FnMut(usize)) {
        for slot in self.claimed_slots_iter() {
            let mut bag = slot.bag.lock();
            while let Some(&(stamp, addr)) = bag.records.front() {
                if stamp + 2 > epoch {
                    break;
                }
                bag.records.pop_front();
                free(addr);
            }
        }
    }

    /// Records retired and not yet freed.
    pub fn pending_records(&self) -> usize {
        self.claimed_slots_iter()
            .map(|s| s.bag.lock().records.len())
            .sum()
    }

    /// Every slot that has ever been claimed.
    fn claimed_slots_iter(&self) -> impl Iterator<Item = &CachePadded<Slot>> {
        // ORDERING: Acquire — pairs with the claim's Release update.
        let claimed = self.high_water.load(Ordering::Acquire);
        self.slots[..claimed].iter()
    }

    /// The reclamation invariants, for quiescent points: no slot announces
    /// an epoch past the table's, and every bag is in stamp order with no
    /// stamp from the future. Returns the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        let epoch = self.epoch();
        for (i, slot) in self.claimed_slots_iter().enumerate() {
            // ORDERING: Acquire — pairs with `leave`'s Release clear.
            let mut stamps = vec![slot.announced.load(Ordering::Acquire)];
            stamps.extend(slot.bag.lock().records.iter().map(|&(stamp, _)| stamp));
            if stamps.iter().any(|&s| s > epoch) || !stamps[1..].is_sorted() {
                return Err(format!("slot {i}: stamps {stamps:?} (epoch {epoch})"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ThreadRegistry {
        /// Number of claimed slots.
        fn claimed_slots(&self) -> usize {
            self.slots
                .iter()
                .filter(|s| s.claimed.load(Ordering::Acquire))
                .count()
        }

        /// Whether any slot is currently entered.
        fn anyone_entered(&self) -> bool {
            self.slots
                .iter()
                .any(|s| s.announced.load(Ordering::SeqCst) != 0)
        }
    }

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
        // Both may be slot 0 in their own registry; entering one must not
        // leak into the other.
        r1.enter(s1);
        assert!(r1.anyone_entered());
        assert!(!r2.anyone_entered());
        r2.enter(s2);
        r1.leave(s1);
        assert!(!r1.anyone_entered());
        assert!(r2.anyone_entered());
        r2.leave(s2);
    }

    #[test]
    fn announcements_from_multiple_threads_are_visible() {
        let reg = ThreadRegistry::with_capacity(16);
        let all_entered = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    let (reg, all_entered) = (&reg, &all_entered);
                    s.spawn(move || {
                        let slot = reg.slot_for_current_thread();
                        reg.enter(slot);
                        all_entered.wait();
                        assert_eq!(reg.claimed_slots(), 4);
                        // Everyone announces the one epoch: one advance is
                        // allowed, the next waits for the laggards.
                        let epoch = reg.epoch();
                        assert!(reg.advance_to(epoch + 2) <= epoch + 1);
                        all_entered.wait();
                        reg.leave(slot);
                        // No thread exits (and releases) before all counted.
                        all_entered.wait();
                    })
                })
                .collect();
            // `join` returns after the thread's exit, slot release included.
            for w in workers {
                w.join().unwrap();
            }
        });
        assert_eq!(reg.claimed_slots(), 0);
        assert!(!reg.anyone_entered());
        let epoch = reg.epoch();
        assert_eq!(reg.advance_to(epoch + 2), epoch + 2);
    }

    #[test]
    fn sequential_threads_reuse_released_slots() {
        const CAPACITY: usize = 2;
        let reg = ThreadRegistry::with_capacity(CAPACITY);
        for t in 1..=CAPACITY + 4 {
            std::thread::scope(|s| {
                s.spawn(|| {
                    let slot = reg.slot_for_current_thread();
                    reg.enter(slot);
                    assert!(reg.anyone_entered());
                    reg.leave(slot);
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
                pinned.enter(slot);
                let _ = dropped.slot_for_current_thread();
                drop(dropped);
            })
            .join()
            .unwrap();
        });
        // A slot still entered is never released, and it still holds the
        // epoch back.
        assert_eq!(pinned.claimed_slots(), 1);
        assert!(pinned.anyone_entered());
        let epoch = pinned.epoch();
        assert!(pinned.advance_to(epoch + 2) <= epoch + 1);
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

    #[test]
    fn only_the_outermost_enter_announces_and_clears() {
        let reg = ThreadRegistry::with_capacity(2);
        let slot = reg.slot_for_current_thread();
        reg.enter(slot);
        let announced = reg.slots[slot].announced.load(Ordering::SeqCst);
        // Another thread's advance moves the epoch once; the inner enter
        // must keep the outer announcement, not take the newer epoch.
        assert_eq!(reg.advance_to(announced + 1), announced + 1);
        reg.enter(slot);
        assert_eq!(reg.slots[slot].announced.load(Ordering::SeqCst), announced);
        reg.leave(slot);
        assert!(reg.anyone_entered(), "an inner leave cleared the slot");
        assert_eq!(reg.advance_to(announced + 2), announced + 1);
        reg.leave(slot);
        assert!(!reg.anyone_entered());
        assert_eq!(reg.advance_to(announced + 2), announced + 2);
    }

    #[test]
    fn records_free_two_epochs_after_their_stamp() {
        let reg = ThreadRegistry::with_capacity(2);
        let slot = reg.slot_for_current_thread();
        let stamp = reg.epoch();
        assert!(!reg.retire(slot, 0x10));
        let mut freed = Vec::new();
        reg.free_records(stamp + 1, |a| freed.push(a));
        assert!(freed.is_empty());
        assert_eq!(reg.pending_records(), 1);
        let epoch = reg.advance_to(stamp + 2);
        reg.free_records(epoch, |a| freed.push(a));
        assert_eq!(freed, [0x10]);
        assert_eq!(reg.pending_records(), 0);
    }
}

/// Counts the announcements (outermost enters) each thread makes, on any
/// registry, for tests that check how often a batch enters a table.
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
