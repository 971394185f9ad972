//! Cross-crate integration tests: concurrent correctness of the public API
//! under mixed workloads, resizes, and batching.

use dlht::hash::HashKind;
use dlht::{
    Batch, BatchPolicy, Dlht, DlhtConfig, DlhtMap, KvBackend, Pipeline, Request, Response,
    ShardedTable,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

#[test]
fn mixed_readers_writers_and_resizes_preserve_disjoint_key_ranges() {
    let map = DlhtMap::with_config(
        DlhtConfig::new(32)
            .with_hash(HashKind::WyHash)
            .with_chunk_bins(8),
    );
    // Stable range owned by the main thread.
    for k in 0..1_000u64 {
        let _ = map.insert(k, k + 1).unwrap();
    }

    std::thread::scope(|s| {
        // Writers on disjoint ranges drive repeated growth.
        for t in 0..3u64 {
            let map = &map;
            s.spawn(move || {
                let base = 100_000 + t * 100_000;
                for k in 0..4_000u64 {
                    assert!(map.insert(base + k, k).unwrap().inserted());
                }
                for k in 0..2_000u64 {
                    assert_eq!(map.delete(base + k), Some(k));
                }
            });
        }
        // Readers continuously validate the stable range.
        for _ in 0..2 {
            let map = &map;
            s.spawn(move || {
                for _ in 0..2_000 {
                    for k in [0u64, 1, 500, 999] {
                        assert_eq!(map.get(k), Some(k + 1));
                    }
                }
            });
        }
    });

    assert!(map.resizes() > 0, "the tiny initial index must have grown");
    // Final contents: stable range + the undeleted halves of each writer range.
    assert_eq!(map.len(), 1_000 + 3 * 2_000);
    for k in 0..1_000u64 {
        assert_eq!(map.get(k), Some(k + 1));
    }
}

#[test]
fn puts_never_resurrect_or_corrupt_under_delete_races() {
    let map = DlhtMap::with_capacity(10_000);
    for k in 0..100u64 {
        let _ = map.insert(k, 1_000_000 + k).unwrap();
    }
    let updates = AtomicU64::new(0);
    std::thread::scope(|s| {
        // Updaters put new values on the shared keys.
        for t in 0..2u64 {
            let map = &map;
            let updates = &updates;
            s.spawn(move || {
                for round in 0..5_000u64 {
                    let k = round % 100;
                    if map.put(k, t * 10_000_000 + round).is_some() {
                        updates.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        // A deleter/reinserter churns the same keys.
        {
            let map = &map;
            s.spawn(move || {
                for round in 0..2_000u64 {
                    let k = round % 100;
                    map.delete(k);
                    let _ = map.insert(k, 1_000_000 + k).unwrap();
                }
            });
        }
    });
    assert!(updates.load(Ordering::Relaxed) > 0);
    // Every key must still resolve to one of the values some writer wrote.
    for k in 0..100u64 {
        if let Some(v) = map.get(k) {
            let plausible = v == 1_000_000 + k
                || (10_000_000..20_000_000).contains(&v)
                || v < 10_000
                || (20_000_000..30_000_000).contains(&v);
            assert!(plausible, "key {k} has implausible value {v}");
        }
    }
}

#[test]
fn batches_interleaved_with_singles_agree() {
    let map = DlhtMap::with_capacity(50_000);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let map = &map;
            s.spawn(move || {
                let base = t * 1_000_000;
                let mut batch: Batch = (0..500).map(|i| Request::Insert(base + i, i)).collect();
                map.session().execute(&mut batch, BatchPolicy::RunAll);
                assert!(batch.responses().iter().all(|r| r.succeeded()));
                // Read them back through the single-request path.
                for i in 0..500u64 {
                    assert_eq!(map.get(base + i), Some(i));
                }
            });
        }
    });
    assert_eq!(map.len(), 2_000);
    // And via a batch of gets.
    let mut gets: Batch = (0..500).map(Request::Get).collect();
    map.session().execute(&mut gets, BatchPolicy::RunAll);
    for (i, r) in gets.responses().iter().enumerate() {
        assert_eq!(*r, Response::Value(Some(i as u64)));
    }
}

#[test]
fn reused_batches_race_deletes_and_resizes_with_order_preserved() {
    // Batches of writes over a tiny growing index, racing deleters and a
    // resize storm: every thread's responses must arrive in submission order
    // with the per-thread invariants intact (slot i of the batch answers
    // request i). Each worker owns a disjoint key range so the expected
    // values are exact even under heavy interleaving.
    let map = DlhtMap::with_config(
        DlhtConfig::new(16)
            .with_hash(HashKind::WyHash)
            .with_chunk_bins(4),
    );
    std::thread::scope(|s| {
        // Batch workers: insert -> get -> put -> get -> delete -> get per key,
        // all through one reused Batch per thread.
        for t in 0..3u64 {
            let map = &map;
            s.spawn(move || {
                let base = 10_000_000 * (t + 1);
                let session = map.session();
                let mut batch = Batch::with_capacity(24);
                for round in 0..400u64 {
                    batch.clear();
                    for i in 0..4u64 {
                        let k = base + round * 4 + i;
                        batch.push_insert(k, k);
                        batch.push_get(k);
                        batch.push_put(k, k + 1);
                        batch.push_get(k);
                        batch.push_delete(k);
                        batch.push_get(k);
                    }
                    session.execute(&mut batch, BatchPolicy::RunAll);
                    let resps = batch.responses();
                    assert_eq!(resps.len(), 24);
                    for i in 0..4usize {
                        let k = base + round * 4 + i as u64;
                        let r = &resps[i * 6..i * 6 + 6];
                        assert!(matches!(r[0], Response::Inserted(Ok(o)) if o.inserted()));
                        assert_eq!(r[1], Response::Value(Some(k)), "slot order broken");
                        assert_eq!(r[2], Response::Updated(Some(k)));
                        assert_eq!(r[3], Response::Value(Some(k + 1)));
                        assert_eq!(r[4], Response::Deleted(Some(k + 1)));
                        assert_eq!(r[5], Response::Value(None));
                    }
                }
            });
        }
        // A pipeline worker doing the same dance through submit/drain.
        {
            let map = &map;
            s.spawn(move || {
                let base = 50_000_000u64;
                let mut pipe = Pipeline::new(map.engine(), 12);
                let mut got = Vec::new();
                for k in base..base + 1_000 {
                    for req in [Request::Insert(k, k), Request::Get(k), Request::Delete(k)] {
                        if let Some(r) = pipe.submit(req) {
                            got.push(r);
                        }
                    }
                }
                pipe.drain_into(&mut got);
                assert_eq!(got.len(), 3_000);
                for (i, chunk) in got.chunks(3).enumerate() {
                    let k = base + i as u64;
                    assert_eq!(chunk[1], Response::Value(Some(k)), "pipeline order broken");
                    assert_eq!(chunk[2], Response::Deleted(Some(k)));
                }
            });
        }
        // Resize drivers: grow the shared range so the index migrates under
        // the batches.
        for t in 0..2u64 {
            let map = &map;
            s.spawn(move || {
                let base = 1_000_000 * (t + 1);
                for k in 0..3_000u64 {
                    assert!(map.insert(base + k, k).unwrap().inserted());
                }
            });
        }
    });
    assert!(map.resizes() > 0, "the tiny index must have resized");
    assert_eq!(map.len(), 2 * 3_000, "only the resize drivers' keys remain");
}

#[test]
fn shadow_inserts_act_as_record_locks_across_threads() {
    let map = DlhtMap::with_capacity(1_000);
    // Thread A shadow-inserts (locks) a key; other threads cannot insert it,
    // and readers cannot see it until committed.
    let _ = map.insert_shadow(77, 770).unwrap();
    std::thread::scope(|s| {
        let map = &map;
        s.spawn(move || {
            assert!(!map.insert(77, 771).unwrap().inserted());
            assert_eq!(map.get(77), None);
        });
    });
    assert!(map.commit_shadow(77, true));
    assert_eq!(map.get(77), Some(770));
}

#[test]
fn allocator_mode_overwrites_never_hide_the_key() {
    // An Allocator-mode `put`/`upsert` publishes the new record with one
    // pointer swap, so a reader racing the writer sees the old or the new
    // value — never a missing key, never a torn one.
    const WRITES: u64 = 20_000;
    let encode = |i: u64| i.to_le_bytes().repeat(3);
    let map: Dlht<String, Vec<u8>> = Dlht::with_capacity(64);
    let key = "hot-key".to_string();
    assert!(map.insert(&key, &encode(0)).unwrap());
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..2 {
            let (map, key, done) = (&map, &key, &done);
            s.spawn(move || {
                let mut reads = 0u64;
                while !done.load(Ordering::Acquire) || reads < 1_000 {
                    let value = map.get(key).expect("an overwrite hid the key");
                    let (first, rest) = value.split_at(8);
                    assert_eq!(rest, first.repeat(2), "torn value {value:?}");
                    let i = u64::from_le_bytes(first.try_into().unwrap());
                    assert!(i <= WRITES, "value {i} was never written");
                    reads += 1;
                }
            });
        }
        let (map, key, done) = (&map, &key, &done);
        s.spawn(move || {
            for i in 1..=WRITES {
                let prev = if i % 2 == 0 {
                    map.put(key, &encode(i)).unwrap()
                } else {
                    map.upsert(key, &encode(i)).unwrap()
                };
                assert_eq!(
                    prev,
                    Some(encode(i - 1)),
                    "single writer sees its last write"
                );
            }
            done.store(true, Ordering::Release);
        });
    });
    assert_eq!(map.get(&key), Some(encode(WRITES)));
    assert_eq!(map.len(), 1);
}

/// One thread upserts the distinct values `1..=UPSERTS` into one key while
/// another deletes it and re-inserts values of its own. Every `Some(prev)` an
/// upsert returns must be a value some thread wrote, and an upsert that ran
/// while no one else wrote must leave its own value readable. Strong form:
/// every value actually written (by a successful insert or update) leaves
/// the key exactly once — as an upsert's `prev`, as a delete's return, or as
/// the final value.
fn upserts_race_delete_and_reinsert(table: &dyn KvBackend) {
    const KEY: u64 = 0xD1_47;
    const UPSERTS: u64 = 20_000;
    const CHURN: u64 = 1 << 40; // the churner's n-th value is CHURN | n
    let name = table.name();
    // Even while the churner is idle, odd while one of its writes runs.
    let clock = AtomicU64::new(0);
    // The churner's values written so far are CHURN | 1 ..= CHURN | churned.
    let churned = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let mut quiet_upserts = 0u64;
    // Values that left the key, and the churner's values that were written.
    let mut left: Vec<u64> = Vec::new();
    let churner = std::thread::scope(|s| {
        let churner = s.spawn(|| {
            let (mut deleted, mut inserted) = (Vec::new(), Vec::new());
            let mut n = 0u64;
            while !done.load(Ordering::Acquire) {
                clock.fetch_add(1, Ordering::SeqCst);
                deleted.extend(table.delete(KEY));
                n += 1;
                churned.store(n, Ordering::SeqCst);
                if table.insert(KEY, CHURN | n).unwrap().inserted() {
                    inserted.push(CHURN | n);
                }
                clock.fetch_add(1, Ordering::SeqCst);
                // Idle gaps of varying length, so upserts meet both racing
                // and quiet windows.
                for _ in 0..n % 512 {
                    std::hint::spin_loop();
                }
            }
            (deleted, inserted)
        });
        for i in 1..=UPSERTS {
            let before = clock.load(Ordering::SeqCst);
            if let Some(prev) = table.upsert(KEY, i).unwrap() {
                let written = if prev & CHURN != 0 {
                    prev & !CHURN <= churned.load(Ordering::SeqCst)
                } else {
                    prev < i
                };
                assert!(
                    written,
                    "{name}: upsert {i} reported {prev:#x}, never written"
                );
                left.push(prev);
            }
            let now = table.get(KEY);
            if before.is_multiple_of(2) && clock.load(Ordering::SeqCst) == before {
                assert_eq!(now, Some(i), "{name}: quiet upsert {i} not readable");
                quiet_upserts += 1;
            }
        }
        done.store(true, Ordering::Release);
        churner.join().unwrap()
    });
    assert!(quiet_upserts > 0, "{name}: no upsert ran in a quiet window");
    let (deleted, inserted) = churner;
    left.extend(deleted);
    left.extend(table.get(KEY));
    let mut leaves: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
    for v in left {
        *leaves.entry(v).or_default() += 1;
    }
    for v in (1..=UPSERTS).chain(inserted) {
        let n = leaves.remove(&v).unwrap_or(0);
        assert_eq!(n, 1, "{name}: written value {v:#x} left the key {n} times");
    }
    assert!(
        leaves.is_empty(),
        "{name}: values that were never written left the key: {leaves:?}"
    );
}

#[test]
fn upserts_racing_delete_and_reinsert_write_what_they_report() {
    upserts_race_delete_and_reinsert(&DlhtMap::new(64));
    upserts_race_delete_and_reinsert(&ShardedTable::new(4, 64));
}
