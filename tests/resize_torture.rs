//! Resize torture: tiny-bin configurations so a handful of threads
//! continuously trigger `grow`/`help_transfer` while racing deletes, puts,
//! and shadow-commits — the place DHash-style designs break.
//!
//! Invariants asserted:
//! * per-key last-write-wins (each thread owns a disjoint key range and
//!   checks its own final writes),
//! * `current_generation()` is monotonic under concurrent observation,
//! * retired indexes drain to **zero** at quiescence — through
//!   `collect_garbage` in the single-table cases and `collect_retired` in
//!   the sharded case,
//! * shards resize independently (a hot shard grows, its siblings do not),
//! * `check_invariants()` — the full structural sweep over every index
//!   generation, bin, and slot — passes at every quiescent point.
//!
//! `DLHT_STRESS=1` (or any positive integer) multiplies the round counts.

use dlht::{DlhtConfig, DlhtError, DlhtMap, ShardedTable};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn stress() -> u64 {
    std::env::var("DLHT_STRESS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&v| v > 0)
        .map(|v| v * 4)
        .unwrap_or(1)
}

/// A deliberately tiny, fast-churning configuration: 4 bins, 2-bin transfer
/// chunks, so inserts hit `NeedResize` constantly and every thread becomes a
/// transfer helper.
fn torture_config() -> DlhtConfig {
    DlhtConfig::new(4)
        .with_hash(dlht::hash::HashKind::WyHash)
        .with_chunk_bins(2)
        .with_link_ratio(1)
}

#[test]
fn torture_grow_with_racing_deletes_and_shadow_commits() {
    const WRITERS: u64 = 3;
    let rounds = 60 * stress();
    let keys_per_round: u64 = 40;

    let table = Arc::new(DlhtMap::with_config(torture_config()));
    let stop = Arc::new(AtomicBool::new(false));

    // A generation monitor races every grow: the observed generation must
    // never decrease.
    let monitor = {
        let table = Arc::clone(&table);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut last = 0u32;
            let mut observations = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let g = table.current_generation();
                assert!(
                    g >= last,
                    "generation went backwards: {last} -> {g} after {observations} observations"
                );
                last = g;
                observations += 1;
            }
            (last, observations)
        })
    };

    // Writer threads: disjoint key ranges; each round inserts a fresh batch,
    // rewrites half of it with puts, deletes a third, and records what must
    // survive. Inserts on the tiny index trigger grow/help_transfer all the
    // way through.
    let final_states: Vec<HashMap<u64, Option<u64>>> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for tid in 0..WRITERS {
            let table = Arc::clone(&table);
            handles.push(s.spawn(move || {
                let base = 1 + tid * (1 << 40);
                let mut expected: HashMap<u64, Option<u64>> = HashMap::new();
                for round in 0..rounds {
                    for i in 0..keys_per_round {
                        let key = base + round * keys_per_round + i;
                        assert!(
                            table.insert(key, key).unwrap().inserted(),
                            "fresh key {key:#x} must insert"
                        );
                        let last = if i % 2 == 0 {
                            // Rewrite mid-resize: the dw-CAS put must land on
                            // whichever index generation holds the key.
                            let prev = table.put(key, key ^ 0xFFFF);
                            assert_eq!(prev, Some(key), "put({key:#x}) lost the insert");
                            key ^ 0xFFFF
                        } else {
                            key
                        };
                        if i % 3 == 0 {
                            assert_eq!(
                                table.delete(key),
                                Some(last),
                                "delete({key:#x}) removed the wrong value"
                            );
                            expected.insert(key, None);
                        } else {
                            expected.insert(key, Some(last));
                        }
                    }
                }
                expected
            }));
        }
        // A shadow-commit thread races the transfers: shadow entries must be
        // carried across resizes in the Shadow state, stay invisible until
        // committed, and abort cleanly.
        let shadow = {
            let table = Arc::clone(&table);
            s.spawn(move || {
                let base = 1 + WRITERS * (1 << 40);
                let mut expected: HashMap<u64, Option<u64>> = HashMap::new();
                for round in 0..rounds {
                    for i in 0..8u64 {
                        let key = base + round * 8 + i;
                        assert!(table.insert_shadow(key, key * 3).unwrap().inserted());
                        // Invisible while shadow — even while bins transfer.
                        assert_eq!(table.get(key), None, "shadow {key:#x} leaked");
                        assert_eq!(table.delete(key), None, "shadow {key:#x} deletable");
                        let commit = i % 2 == 0;
                        assert!(
                            table.commit_shadow(key, commit),
                            "shadow {key:#x} vanished during a transfer"
                        );
                        expected.insert(key, commit.then_some(key * 3));
                    }
                }
                expected
            })
        };
        let mut states: Vec<HashMap<u64, Option<u64>>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        states.push(shadow.join().unwrap());
        states
    });

    stop.store(true, Ordering::Relaxed);
    let (final_gen, observations) = monitor.join().unwrap();

    // The tiny index must have grown many times under this load.
    assert!(
        table.resizes() >= 3,
        "expected repeated growth, saw {} resizes",
        table.resizes()
    );
    assert!(observations > 0);
    assert!(final_gen <= table.current_generation());

    // Per-key last-write-wins for every thread's disjoint range.
    let mut live = 0usize;
    for expected in &final_states {
        for (&key, &want) in expected {
            assert_eq!(table.get(key), want, "key {key:#x} lost its last write");
            if want.is_some() {
                live += 1;
            }
        }
    }
    assert_eq!(table.len(), live, "stray keys survived the torture");

    // Quiescence: with no thread inside the table, every retired index
    // generation must be collectable, down to zero.
    table.collect_garbage();
    assert_eq!(
        table.retired_indexes(),
        0,
        "retired index generations leaked at quiescence"
    );
    table
        .check_invariants()
        .expect("structural sweep after the torture");
}

#[test]
fn torture_gets_never_block_and_stable_keys_survive() {
    let rounds = 2_000 * stress();
    let table = Arc::new(DlhtMap::with_config(torture_config()));
    for k in 0..64u64 {
        assert!(table.insert(k, k + 1).unwrap().inserted());
    }
    std::thread::scope(|s| {
        // Growth driver.
        {
            let table = Arc::clone(&table);
            s.spawn(move || {
                for k in 0..rounds {
                    let key = 1_000_000 + k;
                    assert!(table.insert(key, key).unwrap().inserted());
                    if k % 4 == 0 {
                        assert_eq!(table.delete(key), Some(key));
                    }
                }
            });
        }
        // Readers: the stable prefix stays visible through every transfer.
        for _ in 0..3 {
            let table = Arc::clone(&table);
            s.spawn(move || {
                for i in 0..rounds {
                    let k = i % 64;
                    assert_eq!(table.get(k), Some(k + 1), "stable key {k} vanished");
                }
            });
        }
    });
    assert!(table.resizes() > 0);
    table.collect_garbage();
    assert_eq!(table.retired_indexes(), 0);
    table
        .check_invariants()
        .expect("structural sweep after reader torture");
}

#[test]
fn torture_table_full_is_clean_when_resizing_disabled() {
    // The failure edge of the same machinery: with resizing off the bin
    // reports TableFull instead of growing, and the table stays consistent.
    let table = DlhtMap::with_config(torture_config().with_resizing(false));
    let mut inserted = Vec::new();
    for k in 0..10_000u64 {
        match table.insert(k, k) {
            Ok(o) if o.inserted() => inserted.push(k),
            Ok(_) => unreachable!("fresh keys cannot collide"),
            Err(DlhtError::TableFull) => break,
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert!(!inserted.is_empty());
    for &k in &inserted {
        assert_eq!(table.get(k), Some(k));
    }
    assert_eq!(table.resizes(), 0);
    assert_eq!(table.retired_indexes(), 0);
    table
        .check_invariants()
        .expect("structural sweep of the full table");
}

#[test]
fn torture_sharded_hot_shard_grows_alone() {
    let per_round = 400 * stress();
    let table = Arc::new(ShardedTable::with_config(4, torture_config()));

    // Pick the shard key 1 routes to and hammer only keys on that shard from
    // several threads, with racing deletes.
    let hot = table.shard_of(1);
    let hot_keys: Vec<u64> = {
        let mut keys = Vec::new();
        let mut k = 0u64;
        while (keys.len() as u64) < per_round * 4 {
            if table.shard_of(k) == hot {
                keys.push(k);
            }
            k += 1;
        }
        keys
    };

    std::thread::scope(|s| {
        for t in 0..4usize {
            let table = Arc::clone(&table);
            let chunk: Vec<u64> = hot_keys.iter().skip(t).step_by(4).copied().collect();
            s.spawn(move || {
                for &key in &chunk {
                    assert!(table.insert(key, key).unwrap().inserted());
                    if key % 3 == 0 {
                        assert_eq!(table.delete(key), Some(key));
                    }
                }
            });
        }
    });

    // Only the hot shard resized; its siblings never saw a transfer.
    let per_shard: Vec<u64> = table.shards().map(|sh| sh.resizes()).collect();
    assert!(
        per_shard[hot] > 0,
        "the hot shard must have grown: {per_shard:?}"
    );
    for (i, &r) in per_shard.iter().enumerate() {
        if i != hot {
            assert_eq!(r, 0, "cold shard {i} resized: {per_shard:?}");
        }
    }

    // The aggregated stats expose the same independence: summed resizes and
    // the max generation both come from the hot shard alone.
    let agg = table.stats();
    assert_eq!(agg.resizes, per_shard.iter().sum::<u64>());
    assert_eq!(
        agg.generation,
        table.shard(hot).current_generation(),
        "aggregated generation must be the hot shard's"
    );
    for (i, st) in table.shard_stats().iter().enumerate() {
        if i != hot {
            assert_eq!(st.generation, 0, "cold shard {i} changed generation");
        }
    }

    // Last-write-wins per key and retired-index drain across every shard.
    for &key in &hot_keys {
        let want = if key % 3 == 0 { None } else { Some(key) };
        assert_eq!(table.get(key), want, "key {key:#x}");
    }
    table.collect_retired();
    assert_eq!(table.retired_indexes(), 0);
    table
        .check_invariants()
        .expect("structural sweep across all shards");
}
