//! Non-partitioned hash join over DLHT (§5.3.6), driven through the unified
//! batch API twice over: the probe relation streams once through a reusable
//! [`Batch`] (discrete windows) and once through a bounded prefetch
//! [`Pipeline`] (continuous submission), so software prefetching hides the
//! random index accesses either way.
//!
//! Run with: `cargo run --release --example hash_join`

use dlht::{Batch, BatchPolicy, DlhtMap, KvBackend, Pipeline, Request, Response};
use std::time::Instant;

fn main() {
    // R (build): 2^17 tuples, S (probe): 2^21 tuples — scaled-down workload A.
    let r_tuples: u64 = 1 << 17;
    let s_tuples: u64 = 1 << 21;
    let table = DlhtMap::with_capacity(r_tuples as usize);
    let map: &dyn KvBackend = &table;

    let start = Instant::now();
    for key in 0..r_tuples {
        let _ = map.insert(key, key * 2).unwrap(); // payload = "row id"
    }
    let build_time = start.elapsed();

    // Probe pass 1: discrete batches of 32 through one reused buffer on the
    // per-thread engine both passes share — zero steady-state allocations.
    let engine = map.engine();
    let probe_start = Instant::now();
    let mut matches = 0u64;
    let mut join_sum = 0u64;
    let mut batch = Batch::with_capacity(32);
    let mut s = 0u64;
    while s < s_tuples {
        batch.clear();
        while batch.len() < 32 && s < s_tuples {
            // Foreign keys reference R round-robin: every probe matches.
            batch.push_get(s % r_tuples);
            s += 1;
        }
        engine.execute(&mut batch, BatchPolicy::RunAll);
        for resp in batch.responses() {
            if let Response::Value(Some(row)) = resp {
                matches += 1;
                join_sum = join_sum.wrapping_add(*row);
            }
        }
    }
    let probe_time = probe_start.elapsed();

    // Probe pass 2: the same stream through a depth-32 pipeline — prefetch at
    // submit, order-preserving completion, no window boundaries.
    let pipe_start = Instant::now();
    let mut pipe_matches = 0u64;
    let mut pipe = Pipeline::new(&engine, 32);
    let mut count_match = |resp: Response| {
        if matches!(resp, Response::Value(Some(_))) {
            pipe_matches += 1;
        }
    };
    for s in 0..s_tuples {
        if let Some(resp) = pipe.submit(Request::Get(s % r_tuples)) {
            count_match(resp);
        }
    }
    for resp in pipe.drain() {
        count_match(resp);
    }
    let pipe_time = pipe_start.elapsed();

    let total = (r_tuples + s_tuples) as f64;
    println!("build : {} tuples in {:?}", r_tuples, build_time);
    println!(
        "probe (batched)  : {} tuples in {:?}, {} matches",
        s_tuples, probe_time, matches
    );
    println!(
        "probe (pipelined): {} tuples in {:?}, {} matches",
        s_tuples, pipe_time, pipe_matches
    );
    println!(
        "join throughput: {:.1} M tuples/s batched, {:.1} M tuples/s pipelined (checksum {join_sum})",
        total / (build_time + probe_time).as_secs_f64() / 1e6,
        total / (build_time + pipe_time).as_secs_f64() / 1e6
    );
    assert_eq!(matches, s_tuples);
    assert_eq!(pipe_matches, s_tuples);
}
