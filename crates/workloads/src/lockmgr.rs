//! Database lock manager over DLHT's HashSet mode (§5.3.3, Fig. 17).
//!
//! Locking a record inserts its key into the table; unlocking deletes it.
//! Transactions lock a handful of keys in a globally consistent (sorted)
//! order and then release them — two-phase-locking style — which requires the
//! hashtable's batching to preserve request order (the property DRAMHiT's
//! reordering batches violate). The workload drives any [`KvBackend`]; the
//! default entry point uses [`DlhtSet`], the paper's configuration.

use crate::rng::Xoshiro256;
use dlht_core::{Batch, BatchPolicy, DlhtSet, KvBackend, Response};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Result of a lock-manager run.
#[derive(Debug, Clone)]
pub struct LockMgrResult {
    /// Lock + unlock operations completed.
    pub lock_ops: u64,
    /// Transactions that acquired all their locks.
    pub acquired: u64,
    /// Transactions that found a lock busy and rolled back.
    pub conflicted: u64,
    /// Million lock/unlock operations per second (Fig. 17's y-axis).
    pub mops: f64,
    /// Wall-clock time.
    pub elapsed: Duration,
}

/// Run the lock-manager workload over DLHT's HashSet mode (the paper's
/// configuration): each transaction locks `locks_per_txn` records (sorted
/// order), then unlocks them. With `batched`, the lock and unlock phases are
/// submitted as order-preserving batches.
pub fn run_lock_manager(
    records: u64,
    locks_per_txn: usize,
    threads: usize,
    duration: Duration,
    batched: bool,
) -> LockMgrResult {
    let set = DlhtSet::with_capacity(records as usize + 1024);
    run_lock_manager_on(&set, records, locks_per_txn, threads, duration, batched)
}

/// Run the lock-manager workload against any [`KvBackend`] used as a lock
/// table (insert = lock, delete = unlock).
pub fn run_lock_manager_on(
    locks: &dyn KvBackend,
    records: u64,
    locks_per_txn: usize,
    threads: usize,
    duration: Duration,
    batched: bool,
) -> LockMgrResult {
    let stop = AtomicBool::new(false);
    let lock_ops = AtomicU64::new(0);
    let acquired = AtomicU64::new(0);
    let conflicted = AtomicU64::new(0);
    let start = Instant::now();

    std::thread::scope(|s| {
        for t in 0..threads.max(1) {
            let locks = &locks;
            let stop = &stop;
            let lock_ops = &lock_ops;
            let acquired = &acquired;
            let conflicted = &conflicted;
            s.spawn(move || {
                let engine = locks.engine();
                let mut rng = Xoshiro256::new(0x10C4 + t as u64);
                let mut ops = 0u64;
                let mut ok = 0u64;
                let mut busy = 0u64;
                let mut keys = Vec::with_capacity(locks_per_txn);
                // Reused across transactions: the steady-state lock/unlock
                // phases allocate nothing.
                let mut lock_batch = Batch::with_capacity(locks_per_txn);
                let mut unlock_batch = Batch::with_capacity(locks_per_txn);
                while !stop.load(Ordering::Relaxed) {
                    keys.clear();
                    for _ in 0..locks_per_txn {
                        keys.push(rng.next_below(records));
                    }
                    keys.sort_unstable();
                    keys.dedup();
                    let got_all = if batched {
                        // Lock phase: stop at the first busy lock, then release
                        // whatever was acquired. A skipped slot was never
                        // attempted, so it is neither counted as an operation
                        // nor released.
                        lock_batch.clear();
                        for &k in &keys {
                            lock_batch.push_insert(k, 0);
                        }
                        engine.execute(&mut lock_batch, BatchPolicy::StopOnFailure);
                        let mut all = true;
                        unlock_batch.clear();
                        for (&k, resp) in keys.iter().zip(lock_batch.responses()) {
                            match resp {
                                Response::Skipped => all = false, // never attempted
                                r if r.succeeded() => {
                                    ops += 1;
                                    unlock_batch.push_delete(k);
                                }
                                _ => {
                                    // Attempted but busy: counted, not held.
                                    ops += 1;
                                    all = false;
                                }
                            }
                        }
                        if !unlock_batch.is_empty() {
                            ops += unlock_batch.len() as u64;
                            engine.execute(&mut unlock_batch, BatchPolicy::RunAll);
                        }
                        all
                    } else {
                        // Unbatched two-phase locking through the same trait:
                        // acquire in sorted order, roll back on the first
                        // conflict.
                        let mut held = 0usize;
                        let mut all = true;
                        for &k in &keys {
                            ops += 1;
                            if matches!(locks.insert(k, 0), Ok(o) if o.inserted()) {
                                held += 1;
                            } else {
                                all = false;
                                break;
                            }
                        }
                        for &k in &keys[..held] {
                            ops += 1;
                            locks.delete(k);
                        }
                        all
                    };
                    if got_all {
                        ok += 1;
                    } else {
                        busy += 1;
                    }
                }
                lock_ops.fetch_add(ops, Ordering::Relaxed);
                acquired.fetch_add(ok, Ordering::Relaxed);
                conflicted.fetch_add(busy, Ordering::Relaxed);
            });
        }
        let stop = &stop;
        s.spawn(move || {
            std::thread::sleep(duration);
            stop.store(true, Ordering::Relaxed);
        });
    });

    let elapsed = start.elapsed();
    let ops = lock_ops.load(Ordering::Relaxed);
    LockMgrResult {
        lock_ops: ops,
        acquired: acquired.load(Ordering::Relaxed),
        conflicted: conflicted.load(Ordering::Relaxed),
        mops: ops as f64 / elapsed.as_secs_f64() / 1e6,
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_lock_manager_makes_progress_and_releases_everything() {
        let r = run_lock_manager(10_000, 4, 2, Duration::from_millis(60), true);
        assert!(r.lock_ops > 0);
        assert!(r.acquired > 0);
        assert!(r.mops > 0.0);
    }

    #[test]
    fn unbatched_lock_manager_also_works() {
        let r = run_lock_manager(10_000, 4, 2, Duration::from_millis(60), false);
        assert!(r.lock_ops > 0);
        assert!(r.acquired > 0);
    }

    #[test]
    fn heavy_contention_produces_conflicts_but_no_lost_locks() {
        // 4 threads fighting over 8 records: conflicts must occur, and at the
        // end no lock may remain held.
        let r = run_lock_manager(8, 3, 4, Duration::from_millis(60), true);
        assert!(r.conflicted > 0, "contention must cause conflicts");
        assert!(r.acquired > 0, "some transactions must still succeed");
    }

    #[test]
    fn lock_table_is_empty_after_a_run() {
        let set = DlhtSet::with_capacity(2_048);
        let r = run_lock_manager_on(&set, 1_000, 4, 2, Duration::from_millis(40), true);
        assert!(r.lock_ops > 0);
        assert!(
            set.is_empty(),
            "every acquired lock must have been released"
        );
    }

    #[test]
    fn any_backend_can_serve_as_the_lock_table() {
        // The unified trait means the lock manager also runs over a baseline.
        let map = dlht_core::DlhtMap::with_capacity(2_048);
        let r = run_lock_manager_on(&map, 1_000, 3, 2, Duration::from_millis(40), false);
        assert!(r.acquired > 0);
        assert!(map.is_empty());
    }
}
