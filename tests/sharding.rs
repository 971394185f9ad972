//! Shard-routing suite: routing stability across resizes, 1-shard
//! equivalence with `DlhtMap`, and cross-shard batch splitting under every
//! `BatchPolicy` (including `Response::Skipped` slots).

use dlht::{Batch, BatchPolicy, DlhtConfig, DlhtMap, KvBackend, Request, Response, ShardedTable};
use dlht_util::splitmix64 as splitmix;

fn tiny() -> DlhtConfig {
    DlhtConfig::new(16)
        .with_hash(dlht::hash::HashKind::WyHash)
        .with_chunk_bins(2)
}

#[test]
fn shard_assignment_is_stable_across_resizes() {
    let table = ShardedTable::with_config(8, tiny());
    // Record the routing of a key population before any resize...
    let before: Vec<usize> = (0..1_000u64).map(|k| table.shard_of(k)).collect();
    for k in 0..1_000u64 {
        assert!(table.insert(k, k * 7).unwrap().inserted());
    }
    // ...force several generations of growth...
    for k in 10_000..30_000u64 {
        let _ = table.insert(k, k).unwrap();
    }
    assert!(table.resizes() > 0, "growth must have happened");
    // ...and the assignment (and every key) must be unchanged.
    for (k, &s) in before.iter().enumerate() {
        let k = k as u64;
        assert_eq!(table.shard_of(k), s, "key {k} moved shards across a resize");
        assert_eq!(table.get(k), Some(k * 7), "key {k} lost across resizes");
        // The key is physically findable on its assigned shard and absent
        // from every other shard.
        for (i, shard) in table.shards().enumerate() {
            let expect = (i == s).then_some(k * 7);
            assert_eq!(shard.get(k), expect, "key {k} visible on shard {i}");
        }
    }
}

/// Run `reqs` as one batch through `backend`'s engine.
fn run(backend: &dyn KvBackend, reqs: &[Request], policy: BatchPolicy) -> Vec<Response> {
    let mut batch = Batch::from(reqs);
    backend.engine().execute(&mut batch, policy);
    batch.into_responses()
}

/// Drive the same seeded operation sequence (singles + batches under every
/// policy) through two backends and assert identical observable behaviour.
fn assert_behaviorally_identical(a: &dyn KvBackend, b: &dyn KvBackend, seed: u64, ops: usize) {
    let mut rng = 0x1DE ^ (seed << 24);
    for step in 0..ops {
        let dice = splitmix(&mut rng) % 100;
        let k = splitmix(&mut rng) % 64;
        let v = splitmix(&mut rng) % 1_000_000;
        let ctx = format!("seed {seed} step {step}");
        if dice < 80 {
            match dice % 4 {
                0 => assert_eq!(a.get(k), b.get(k), "{ctx}"),
                1 => assert_eq!(a.insert(k, v), b.insert(k, v), "{ctx}"),
                2 => assert_eq!(a.put(k, v), b.put(k, v), "{ctx}"),
                _ => assert_eq!(a.delete(k), b.delete(k), "{ctx}"),
            }
        } else {
            let len = 2 + (splitmix(&mut rng) % 6) as usize;
            let reqs: Vec<Request> = (0..len)
                .map(|_| {
                    let k = splitmix(&mut rng) % 64;
                    let v = splitmix(&mut rng) % 1_000_000;
                    match splitmix(&mut rng) % 4 {
                        0 => Request::Get(k),
                        1 => Request::Put(k, v),
                        2 => Request::Insert(k, v),
                        _ => Request::Delete(k),
                    }
                })
                .collect();
            let policy = match splitmix(&mut rng) % 3 {
                0 => BatchPolicy::RunAll,
                1 => BatchPolicy::StopOnFailure,
                _ => BatchPolicy::Unordered,
            };
            assert_eq!(
                run(a, &reqs, policy),
                run(b, &reqs, policy),
                "{ctx} ({policy:?})"
            );
        }
    }
    assert_eq!(a.len(), b.len(), "seed {seed}: diverged in population");
    for k in 0..64u64 {
        assert_eq!(a.get(k), b.get(k), "seed {seed}: final key {k}");
    }
}

#[test]
fn one_shard_is_behaviorally_identical_to_raw_table() {
    for seed in 0..8u64 {
        // Same config on both sides: a 1-shard table is the same index with
        // the routing layer collapsed to shard 0.
        let sharded = ShardedTable::with_config(1, tiny());
        let raw = DlhtMap::with_config(tiny());
        assert_eq!(sharded.num_shards(), 1);
        assert_behaviorally_identical(&sharded, &raw, seed, 400);
        // Identical op sequences on identical configs resize identically.
        assert_eq!(sharded.resizes(), raw.resizes(), "seed {seed}");
        assert_eq!(sharded.stats().bins, raw.stats().bins, "seed {seed}");
        assert_eq!(
            sharded.stats().occupied_slots,
            raw.stats().occupied_slots,
            "seed {seed}"
        );
    }
}

/// A request mix that demonstrably crosses shards: a fresh key per shard of
/// an 8-shard table, interleaved so consecutive requests route differently.
fn cross_shard_keys(table: &ShardedTable, n: usize) -> Vec<u64> {
    let mut keys = Vec::new();
    let mut k = 0u64;
    let mut last_shard = usize::MAX;
    while keys.len() < n {
        let s = table.shard_of(k);
        if s != last_shard {
            keys.push(k);
            last_shard = s;
        }
        k += 1;
    }
    keys
}

#[test]
fn cross_shard_batches_keep_submission_slot_order_under_every_policy() {
    for shards in [2usize, 4, 8] {
        let table = ShardedTable::with_config(shards, DlhtConfig::new(64));
        let keys = cross_shard_keys(&table, 6);
        // Sanity: the batch genuinely spans more than one shard.
        let touched: std::collections::BTreeSet<usize> =
            keys.iter().map(|&k| table.shard_of(k)).collect();
        assert!(
            touched.len() > 1,
            "{shards} shards: batch must cross shards"
        );

        // RunAll: insert -> get -> put -> get -> delete -> get per key,
        // interleaved across keys so consecutive requests hop shards.
        let mut batch = Batch::new();
        for &k in &keys {
            batch.push_insert(k, k + 1);
        }
        for &k in &keys {
            batch.push_get(k);
        }
        for &k in &keys {
            batch.push_put(k, k + 2);
        }
        for &k in &keys {
            batch.push_delete(k);
        }
        let session = table.session();
        session.execute(&mut batch, BatchPolicy::RunAll);
        let n = keys.len();
        for (i, &k) in keys.iter().enumerate() {
            assert!(
                matches!(batch.responses()[i], Response::Inserted(Ok(o)) if o.inserted()),
                "{shards} shards: insert slot {i}"
            );
            assert_eq!(batch.responses()[n + i], Response::Value(Some(k + 1)));
            assert_eq!(batch.responses()[2 * n + i], Response::Updated(Some(k + 1)));
            assert_eq!(batch.responses()[3 * n + i], Response::Deleted(Some(k + 2)));
        }

        // Unordered: sharded batches run in submission order under every
        // policy, so each key's insert at a lower slot is visible to its get
        // at a higher slot, and responses land in submission slots.
        let mut batch = Batch::new();
        for &k in &keys {
            batch.push_insert(k, k * 10);
            batch.push_get(k);
        }
        session.execute(&mut batch, BatchPolicy::Unordered);
        for (i, &k) in keys.iter().enumerate() {
            assert!(
                matches!(batch.responses()[2 * i], Response::Inserted(Ok(o)) if o.inserted()),
                "{shards} shards: unordered insert slot {}",
                2 * i
            );
            assert_eq!(
                batch.responses()[2 * i + 1],
                Response::Value(Some(k * 10)),
                "{shards} shards: within-shard order broke at key {k}"
            );
        }
        for &k in &keys {
            assert_eq!(table.delete(k), Some(k * 10));
        }

        // StopOnFailure: a failure on one shard must skip later requests on
        // *other* shards too, and skipped requests must have no effect.
        assert!(table.insert(keys[0], 5).unwrap().inserted());
        let reqs = vec![
            Request::Get(keys[0]),       // hit
            Request::Insert(keys[0], 9), // duplicate -> failure
            Request::Insert(keys[1], 9), // other shard -> must be skipped
            Request::Get(keys[2]),       // third shard -> must be skipped
        ];
        let out = run(&table, &reqs, BatchPolicy::StopOnFailure);
        assert_eq!(out[0], Response::Value(Some(5)));
        assert!(!out[1].succeeded());
        assert!(!out[1].is_skipped(), "the failing request itself executed");
        assert_eq!(out[2], Response::Skipped);
        assert_eq!(out[3], Response::Skipped);
        assert_eq!(
            table.get(keys[1]),
            None,
            "{shards} shards: a skipped insert must not reach its shard"
        );
        assert_eq!(table.delete(keys[0]), Some(5));
    }
}

#[test]
fn sharded_session_pipeline_matches_serial_execution() {
    let table = ShardedTable::with_config(4, tiny());
    let serial = ShardedTable::with_config(4, tiny());
    let session = table.session();
    for depth in [1usize, 2, 7, 16] {
        let mut rng = 0xBEEF ^ (depth as u64);
        let mut submitted = Vec::new();
        let mut piped = Vec::new();
        {
            let mut pipe = session.pipeline(depth);
            for _ in 0..200 {
                let k = splitmix(&mut rng) % 48;
                let v = splitmix(&mut rng) % 1_000;
                let req = match splitmix(&mut rng) % 4 {
                    0 => Request::Get(k),
                    1 => Request::Put(k, v),
                    2 => Request::Insert(k, v),
                    _ => Request::Delete(k),
                };
                submitted.push(req);
                if let Some(r) = pipe.submit(req) {
                    piped.push(r);
                }
            }
            pipe.drain_into(&mut piped);
        }
        // The pipeline must behave exactly like serial execution of the same
        // stream on an identical table.
        let serial_out = run(&serial, &submitted, BatchPolicy::RunAll);
        assert_eq!(piped, serial_out, "depth {depth}");
        // Keep the tables in lockstep for the next depth.
        for k in 0..48u64 {
            assert_eq!(table.get(k), serial.get(k), "depth {depth} key {k}");
        }
    }
}

#[test]
fn routing_distributes_and_respects_power_of_two() {
    for shards in [2usize, 4, 8, 16] {
        let table = ShardedTable::with_capacity(shards, 1 << 12);
        let mut counts = vec![0usize; shards];
        for k in 0..4_096u64 {
            counts[table.shard_of(k)] += 1;
        }
        let expect = 4_096 / shards;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c > expect / 4 && c < expect * 4,
                "{shards} shards: shard {i} got {c}/{expect} keys — routing is lopsided"
            );
        }
    }
    // Non-power-of-two requests round up.
    assert_eq!(ShardedTable::with_capacity(5, 64).num_shards(), 8);
    assert_eq!(ShardedTable::with_capacity(9, 64).num_shards(), 16);
}
