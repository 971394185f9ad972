//! Racing writers over the table's value-conditional Put and Delete, seen
//! through the two record stores built on them.
//!
//! * Allocator mode frees every record exactly once, and never one a reader
//!   still reads: `replace_with` racing `delete` + `insert` on a few keys,
//!   a reader on the same keys and an idle session, with a tracking
//!   allocator that poisons freed blocks and counts double frees, frees of
//!   unknown pointers, and records left live.
//! * The lock-free cache still adds up: racing set/incr/touch/delete plus a
//!   reaper lose no increment, and the item gauge, the index and the
//!   pending-reclaim gauge agree once the sessions quiesce.

use dlht::alloc::ValueAllocator;
use dlht::{DlhtAllocMap, DlhtConfig};
use dlht_core::{CacheConfig, CacheMap, EvictionPolicy, ManualClock};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Freed blocks held back from `System` before release, so an address is not
/// handed out again while a late second free of it could still arrive.
const QUARANTINE: usize = 1 << 16;

/// The byte a freed block is filled with before it enters the quarantine.
const POISON: u8 = 0xA5;

#[derive(Default)]
struct Books {
    /// Every block not yet released to `System`: size and whether it is live.
    blocks: HashMap<usize, (usize, bool)>,
    quarantine: VecDeque<usize>,
    live: u64,
    double_frees: u64,
    unknown_frees: u64,
}

/// A [`ValueAllocator`] over `System` that keeps books on every pointer.
#[derive(Default)]
struct Tracking {
    books: Mutex<Books>,
}

impl Tracking {
    fn report(&self) -> (u64, u64, u64) {
        let b = self.books.lock().unwrap();
        (b.double_frees, b.unknown_frees, b.live)
    }
}

impl ValueAllocator for Tracking {
    fn alloc(&self, size: usize) -> *mut u8 {
        let layout = Layout::from_size_align(size, 16).unwrap();
        // SAFETY: `size` is never zero (trait contract).
        let ptr = unsafe { System.alloc(layout) };
        assert!(!ptr.is_null(), "out of memory");
        let mut b = self.books.lock().unwrap();
        b.blocks.insert(ptr as usize, (size, true));
        b.live += 1;
        ptr
    }

    // SAFETY: only books the pointer; a block reaches `System.dealloc` once,
    // when it leaves the quarantine or the tracker is dropped.
    unsafe fn dealloc(&self, ptr: *mut u8, size: usize) {
        let mut b = self.books.lock().unwrap();
        match b.blocks.get_mut(&(ptr as usize)) {
            None => b.unknown_frees += 1,
            Some((_, false)) => b.double_frees += 1,
            Some((len, live)) => {
                assert_eq!(*len, size, "freed with a different size");
                // SAFETY: a live block of `size` bytes from `alloc`; a reader
                // that still reads it sees the poison.
                unsafe { std::ptr::write_bytes(ptr, POISON, size) };
                *live = false;
                b.live -= 1;
                b.quarantine.push_back(ptr as usize);
                if b.quarantine.len() > QUARANTINE {
                    let old = b.quarantine.pop_front().unwrap();
                    let (len, _) = b.blocks.remove(&old).unwrap();
                    let layout = Layout::from_size_align(len, 16).unwrap();
                    // SAFETY: allocated above with this layout, freed once
                    // by the map, and released to `System` once, here.
                    unsafe { System.dealloc(old as *mut u8, layout) };
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "tracking"
    }
}

impl Drop for Tracking {
    fn drop(&mut self) {
        for (&ptr, &(len, _)) in &self.books.get_mut().unwrap().blocks {
            let layout = Layout::from_size_align(len, 16).unwrap();
            // SAFETY: every block still on the books came from `alloc` and
            // was not yet released to `System`.
            unsafe { System.dealloc(ptr as *mut u8, layout) };
        }
    }
}

#[test]
fn allocator_mode_frees_each_record_exactly_once() {
    const ITERS: u64 = 500_000; // per thread
    const KEYS: u64 = 4;
    let tracking = Arc::new(Tracking::default());
    let map = DlhtAllocMap::new(
        DlhtConfig::new(64),
        tracking.clone() as Arc<dyn ValueAllocator>,
        8,
        8,
    );
    // Open for the whole run and never used: it must not hold frees back.
    let idle = map.session();
    let writers_done = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Reader: every value it reads is one a writer stored, never the
        // poison of a freed record.
        let reader = s.spawn(|| {
            let mut session = map.session();
            let mut reads = 0u64;
            while !writers_done.load(Ordering::Acquire) {
                for k in 0..KEYS {
                    if let Some(value) = session.get_with(0, &k.to_le_bytes(), |v| v.to_vec()) {
                        assert_ne!(value, [POISON; 8], "read a freed record");
                        reads += 1;
                    }
                }
            }
            reads
        });
        // Replacer: swap in a new record for whatever the key holds.
        let replacer = s.spawn(|| {
            let mut session = map.session();
            for i in 0..ITERS {
                let key = (i % KEYS).to_le_bytes();
                let _ = session.replace_with(0, &key, &i.to_le_bytes(), |_| ());
                if i % 64 == 0 {
                    session.quiesce();
                }
            }
        });
        // Churner: delete the key and insert it again.
        let churner = s.spawn(|| {
            let mut session = map.session();
            for i in 0..ITERS {
                let key = (i / 2 % KEYS).to_le_bytes();
                if i % 2 == 0 {
                    session.delete(0, &key);
                } else {
                    session.insert(0, &key, &i.to_le_bytes()).unwrap();
                }
                if i % 64 == 0 {
                    session.quiesce();
                }
            }
        });
        replacer.join().unwrap();
        churner.join().unwrap();
        writers_done.store(true, Ordering::Release);
        assert!(reader.join().unwrap() > 0, "the reader never hit");
    });
    // Let every retired record reach its free.
    {
        let mut session = map.session();
        for _ in 0..4 {
            session.quiesce();
        }
    }
    assert_eq!(
        idle.pending_garbage(),
        0,
        "the idle session held frees back"
    );
    drop(map);
    let (double_frees, unknown_frees, live) = tracking.report();
    assert_eq!(double_frees, 0, "records freed twice");
    assert_eq!(unknown_frees, 0, "frees of pointers never allocated");
    assert_eq!(live, 0, "records leaked past the map's drop");
}

#[test]
fn lock_free_cache_loses_no_increment() {
    const WORKERS: u64 = 3;
    const ROUNDS: u64 = 4_000;
    let clock = Arc::new(ManualClock::new(1));
    let map = CacheMap::with_clock(
        CacheConfig {
            shards: 4,
            capacity: 4096,
            memory_budget: 0,
            eviction: EvictionPolicy::Lru,
        },
        clock.clone(),
    );
    let keys: Vec<Vec<u8>> = (0..5).map(|i| format!("key:{i}").into_bytes()).collect();
    map.session().set(b"counter", b"0", 0, 0).unwrap();
    let increments = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let (map, clock, done) = (&map, &clock, &done);
        let reaper = s.spawn(move || {
            let mut session = map.session();
            while !done.load(Ordering::Acquire) {
                clock.advance(1);
                session.reap();
            }
        });
        let workers: Vec<_> = (0..WORKERS)
            .map(|t| {
                let (keys, increments) = (&keys, &increments);
                s.spawn(move || {
                    let mut session = map.session();
                    for i in 0..ROUNDS {
                        // The counter only sees incr and deadline-free touches.
                        match i % 3 {
                            0 => {
                                assert!(session.touch(b"counter", 0), "counter vanished");
                            }
                            _ => {
                                session.incr(b"counter", 1).expect("counter vanished");
                                increments.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        let key = &keys[((i + t) % keys.len() as u64) as usize];
                        match (i / 3 + t) % 4 {
                            0 => {
                                session.set(key, b"7", 0, 2).unwrap();
                            }
                            1 => {
                                let _ = session.incr(key, 1);
                            }
                            2 => {
                                let _ = session.touch(key, 3);
                            }
                            _ => {
                                let _ = session.delete(key);
                            }
                        }
                        if i % 32 == 0 {
                            session.quiesce();
                        }
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().unwrap();
        }
        done.store(true, Ordering::Release);
        reaper.join().unwrap();
    });
    let mut session = map.session();
    let counter = session.get(b"counter").expect("counter vanished");
    assert_eq!(
        counter,
        increments.load(Ordering::Relaxed).to_string().into_bytes(),
        "an increment was lost"
    );
    for _ in 0..4 {
        session.quiesce();
    }
    let stats = map.stats();
    assert_eq!(
        stats.items,
        map.table_stats().occupied_slots as u64,
        "the item gauge disagrees with the index"
    );
    assert_eq!(
        stats.pending_reclaim_bytes, 0,
        "retired records never freed"
    );
}
