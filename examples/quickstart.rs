//! Quickstart: the typed `Dlht<K, V>` facade and the unified `KvBackend`
//! operations API — insert, get, put, delete, batched and pipelined access,
//! statistics.
//!
//! Run with: `cargo run --release --example quickstart`

use dlht::{Batch, BatchPolicy, Dlht, KvBackend, Request, Response, TypedBatch, TypedResponse};

fn main() {
    // The typed facade picks the paper mode from the types: u64 -> u64 packs
    // into the Inlined 8 B/8 B slots; String -> Vec<u8> goes out of line.
    let ids: Dlht<u64, u64> = Dlht::with_capacity(1_000_000);
    let docs: Dlht<String, Vec<u8>> = Dlht::with_capacity(10_000);
    println!("Dlht<u64, u64> mode      : {}", ids.mode());
    println!("Dlht<String, Vec<u8>> mode: {}", docs.mode());

    // Basic operations. Inserts never overwrite; Puts never insert.
    ids.insert(&42, &4200).unwrap();
    assert_eq!(ids.get(&42), Some(4200));
    assert_eq!(ids.put(&42, &4300).unwrap(), Some(4200));
    assert_eq!(ids.remove(&42), Some(4300));

    docs.insert(&"hello".to_string(), &b"world".to_vec())
        .unwrap();
    assert_eq!(docs.get(&"hello".to_string()), Some(b"world".to_vec()));

    // Populate a few thousand keys from several threads.
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let ids = &ids;
            s.spawn(move || {
                for k in (t..20_000).step_by(4) {
                    ids.insert(&k, &(k * 10)).unwrap();
                }
            });
        }
    });
    println!("population: {} keys", ids.len());

    // Typed batched lookup into a reused buffer: one prefetch sweep,
    // in-order execution, no per-call result vector.
    let keys: Vec<u64> = (0..32).map(|k| k * 100).collect();
    let mut results = Vec::new();
    ids.get_many_into(&keys, &mut results);
    let hits = results.iter().filter(|v| v.is_some()).count();
    println!("typed batched gets: {hits}/32 hits");

    // Mixed typed batch: requests and decoded responses share one reusable
    // buffer.
    let mut tbatch: TypedBatch<u64, u64> = TypedBatch::with_capacity(3);
    tbatch.push_insert(&777_777, &1);
    tbatch.push_get(&777_777);
    tbatch.push_delete(&777_777);
    ids.execute(&mut tbatch, BatchPolicy::RunAll).unwrap();
    assert_eq!(tbatch.response(1), Some(TypedResponse::Value(Some(1))));

    // The same table through the unified KvBackend trait — the interface the
    // workload runner drives every table (DLHT and baselines) with. Batches
    // run through the per-thread engine it hands out. The Batch owns request
    // *and* response storage: clear() + refill executes with zero
    // steady-state allocations.
    let backend: &dyn KvBackend = ids.inline_map().unwrap();
    let engine = backend.engine();
    let mut batch = Batch::with_capacity(32);
    for k in 0..32u64 {
        batch.push_get(k * 100);
    }
    engine.execute(&mut batch, BatchPolicy::RunAll);
    let hits = batch
        .responses()
        .iter()
        .filter(|r| matches!(r, Response::Value(Some(_))))
        .count();
    println!("trait batched gets: {hits}/32 hits");

    // Or keep a bounded stream of requests in flight: a session caches the
    // thread's registry slot, and its pipeline prefetches at submit time with
    // order-preserving completion (depth-16 window here).
    let session = ids.inline_map().unwrap().session();
    let mut pipe = session.pipeline(16);
    let mut hits = 0usize;
    for k in 0..32u64 {
        if let Some(Response::Value(Some(_))) = pipe.submit(Request::Get(k * 100)) {
            hits += 1;
        }
    }
    hits += pipe
        .drain()
        .iter()
        .filter(|r| matches!(r, Response::Value(Some(_))))
        .count();
    println!("pipelined gets    : {hits}/32 hits");

    // Structural statistics (occupancy, chaining, resizes).
    let stats = backend.stats();
    println!(
        "bins = {}, occupied slots = {}, occupancy = {:.1}%, resizes = {}",
        stats.bins,
        stats.occupied_slots,
        stats.occupancy * 100.0,
        stats.resizes
    );
}
