//! A database lock manager over the HashSet mode (§5.3.3), driven entirely
//! through the unified batch API: inserting a key locks a record, deleting it
//! releases the lock, and order-preserving batches implement two-phase
//! locking without deadlocks.
//!
//! Each worker holds one engine and reuses one [`Batch`] for its lock phase
//! and one for its unlock phase, so the steady-state transaction loop
//! performs no heap allocations;
//! [`BatchPolicy::StopOnFailure`] expresses "stop at the first busy lock",
//! and skipped slots (never attempted) are handled explicitly.
//!
//! Run with: `cargo run --release --example lock_manager`

use dlht::{Batch, BatchPolicy, DlhtSet, KvBackend, Response};
use std::sync::atomic::{AtomicU64, Ordering};

fn main() {
    let set = DlhtSet::with_capacity(100_000);
    let locks: &dyn KvBackend = &set;
    let committed = AtomicU64::new(0);
    let aborted = AtomicU64::new(0);

    std::thread::scope(|s| {
        for t in 0..4u64 {
            let committed = &committed;
            let aborted = &aborted;
            s.spawn(move || {
                let mut seed = t + 1;
                let mut rng = move || {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    seed
                };
                let engine = locks.engine();
                let mut lock_batch = Batch::with_capacity(4);
                let mut unlock_batch = Batch::with_capacity(4);
                for _ in 0..10_000 {
                    // A transaction touches 4 records; lock them in sorted
                    // order (two-phase locking).
                    let mut records: Vec<u64> = (0..4).map(|_| rng() % 1_000).collect();
                    records.sort_unstable();
                    records.dedup();

                    // Lock phase as a single order-preserving batch that stops
                    // at the first busy lock.
                    lock_batch.clear();
                    for &r in &records {
                        lock_batch.push_insert(r, t);
                    }
                    engine.execute(&mut lock_batch, BatchPolicy::StopOnFailure);

                    // Release exactly what was acquired: skipped slots were
                    // never attempted, failed slots were busy — neither holds
                    // a lock.
                    let mut all_locked = true;
                    unlock_batch.clear();
                    for (&r, resp) in records.iter().zip(lock_batch.responses()) {
                        match resp {
                            Response::Skipped => all_locked = false,
                            resp if resp.succeeded() => unlock_batch.push_delete(r),
                            _ => all_locked = false,
                        }
                    }
                    if all_locked {
                        committed.fetch_add(1, Ordering::Relaxed);
                    } else {
                        aborted.fetch_add(1, Ordering::Relaxed);
                    }
                    if !unlock_batch.is_empty() {
                        engine.execute(&mut unlock_batch, BatchPolicy::RunAll);
                    }
                }
            });
        }
    });

    println!(
        "transactions committed = {}, aborted on lock conflict = {}",
        committed.load(Ordering::Relaxed),
        aborted.load(Ordering::Relaxed)
    );
    assert!(
        locks.is_empty(),
        "every acquired lock must have been released"
    );
    println!("all locks released: table is empty");
}
