//! Sharding: the `ShardedTable` front — N independent DLHT shards, each
//! resizing on its own, behind the same `KvBackend` surface as a single
//! table.
//!
//! Run with: `cargo run --release --example sharded`

use dlht::{Batch, BatchPolicy, DlhtConfig, Response, ShardedTable};

fn main() {
    // Keys route by the high bits of their mixed hash, so a key's shard
    // never changes — resizes are per shard and never move keys between
    // shards.
    let map = ShardedTable::with_capacity(8, 100_000);
    println!("shards: {}", map.num_shards());

    // One session per worker thread caches a registry slot in every shard.
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let map = &map;
            s.spawn(move || {
                let session = map.session();
                for k in (t..200_000).step_by(4) {
                    assert!(session.insert(k, k * 10).unwrap().inserted());
                }
            });
        }
    });
    println!("population: {} keys", map.len());
    assert_eq!(map.get(123_456), Some(1_234_560));

    // Shards resize independently: the aggregated stats sum across shards,
    // while the per-shard view shows each shard's own generation/resizes.
    let agg = map.stats();
    println!(
        "aggregated: {} bins, {} occupied slots, {} resizes (max generation {})",
        agg.bins, agg.occupied_slots, agg.resizes, agg.generation
    );
    for (i, s) in map.shard_stats().iter().enumerate() {
        println!(
            "  shard {i}: {:>6} bins  {:>6} keys  {} resizes (generation {})",
            s.bins, s.occupied_slots, s.resizes, s.generation
        );
    }

    // ShardedTable implements the full KvBackend contract: batches run in
    // submission order through a per-thread session that holds one session
    // per shard, and a bounded prefetch pipeline rides on the same session.
    let session = map.session();
    let mut batch = Batch::with_capacity(4);
    batch.push_get(0);
    batch.push_put(0, 7);
    batch.push_get(0);
    batch.push_delete(0);
    session.execute(&mut batch, BatchPolicy::RunAll);
    assert_eq!(batch.responses()[2], Response::Value(Some(7)));

    let mut pipe = session.pipeline(16);
    let mut hits = 0usize;
    for k in 1..10_000u64 {
        if let Some(Response::Value(Some(_))) = pipe.submit(dlht::Request::Get(k)) {
            hits += 1;
        }
    }
    for r in pipe.drain() {
        if matches!(r, Response::Value(Some(_))) {
            hits += 1;
        }
    }
    println!("pipelined hits: {hits}");

    // A deliberately skewed table: only one shard takes inserts, and only
    // that shard grows — its siblings keep their small indexes untouched.
    let skewed = ShardedTable::with_config(4, DlhtConfig::new(64));
    let hot = skewed.shard_of(1);
    let mut k = 0u64;
    let mut routed = 0;
    while routed < 20_000 {
        if skewed.shard_of(k) == hot {
            let _ = skewed.insert(k, k).unwrap();
            routed += 1;
        }
        k += 1;
    }
    let resizes: Vec<u64> = skewed.shards().map(|s| s.resizes()).collect();
    println!("skewed load resizes per shard: {resizes:?} (only shard {hot} grew)");
    assert!(resizes[hot] > 0);

    println!("OK");
}
