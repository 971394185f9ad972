//! Steady-state allocation accounting for the submission API: once a
//! reusable [`Batch`] (or [`Pipeline`]) is warm, re-executing it must not
//! touch the heap at all. Verified with a counting global allocator, which is
//! why this lives in its own integration-test binary. The count is per
//! thread, so tests running in parallel do not see each other's allocations.

use dlht::{
    Batch, BatchPolicy, DlhtMap, Engine, KvBackend, Pipeline, Request, Response, ShardedTable,
    SingleThreadMap,
};
use dlht_baselines::DramhitLikeMap;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` init and a `Copy` payload: no lazy setup and no destructor,
    // so the allocator can touch it without allocating or re-entering.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` fails only during thread teardown, which no test measures.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

struct CountingAlloc;

// SAFETY: delegates directly to the system allocator; the counter has no
// effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards the caller's layout to the system allocator unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: caller upholds the GlobalAlloc contract for `layout`.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: forwards to the system allocator `ptr` came from.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller upholds the GlobalAlloc contract for `ptr`/`layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    // SAFETY: forwards to the system allocator `ptr` came from.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: caller upholds the GlobalAlloc contract for the arguments.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn warm_batch_reexecution_allocates_nothing() {
    // Ample capacity: the InsDel pattern below never triggers a resize, and
    // the link-bucket pool is preallocated with the index.
    let map = DlhtMap::with_capacity(100_000);
    let sharded = ShardedTable::with_capacity(4, 100_000);
    let one_shard = ShardedTable::with_capacity(1, 100_000);
    for k in 0..10_000u64 {
        let _ = map.insert(k, k).unwrap();
        let _ = sharded.insert(k, k).unwrap();
        let _ = one_shard.insert(k, k).unwrap();
    }
    let session = map.session();
    assert_warm_batches_allocate_nothing(|batch| session.execute(batch, BatchPolicy::RunAll));
    // A sharded session enters every shard per batch and holds each entry in
    // the per-shard slot it keeps across batches.
    let session = sharded.session();
    assert_warm_batches_allocate_nothing(|batch| session.execute(batch, BatchPolicy::RunAll));
    // The engines the unified API hands out, over one shard and over four:
    // a warm engine is a warm session, whatever the shard count.
    for table in [&map as &dyn KvBackend, &one_shard, &sharded] {
        let engine = table.engine();
        assert_warm_batches_allocate_nothing(|batch| engine.execute(batch, BatchPolicy::RunAll));
    }
    // The reordering engine keeps its order buffer across batches.
    let dramhit = DramhitLikeMap::with_capacity(100_000);
    let mut single = SingleThreadMap::with_capacity(100_000);
    for k in 0..10_000u64 {
        let _ = dramhit.insert(k, k).unwrap();
        let _ = single.insert(k, k).unwrap();
    }
    let engine = dramhit.engine();
    assert_warm_batches_allocate_nothing(|batch| engine.execute(batch, BatchPolicy::RunAll));
    assert_warm_batches_allocate_nothing(|batch| single.execute(batch, BatchPolicy::RunAll));
}

#[test]
fn whole_table_scans_allocate_nothing() {
    let map = DlhtMap::with_capacity(100_000);
    for k in 0..10_000u64 {
        let _ = map.insert(k, k).unwrap();
    }
    // Warm-up: claims this thread's registry slot.
    assert_eq!(map.len(), 10_000);

    let before = allocations();
    let mut sum = 0u64;
    map.for_each(|_, v| sum += v);
    assert_eq!(map.len(), 10_000);
    let after = allocations();
    assert_eq!(sum, (0..10_000u64).sum::<u64>());
    assert_eq!(
        after - before,
        0,
        "len() and for_each must not allocate per bin"
    );
}

/// Re-execute a warm batch 100 times through `execute` and assert it made no
/// heap allocation.
fn assert_warm_batches_allocate_nothing(mut execute: impl FnMut(&mut Batch)) {
    let mut batch = Batch::with_capacity(64);
    let fill = |batch: &mut Batch, round: u64| {
        batch.clear();
        for i in 0..16u64 {
            let k = (round * 16 + i) % 10_000;
            batch.push_get(k);
            batch.push_put(k, k + 1);
        }
        // Fresh insert + delete of the same key (the paper's InsDel shape).
        let fresh = 1_000_000 + round;
        batch.push_insert(fresh, fresh);
        batch.push_delete(fresh);
    };

    // Warm-up: claims the registry slots, grows the response vector once.
    for round in 0..4u64 {
        fill(&mut batch, round);
        execute(&mut batch);
    }

    let before = allocations();
    for round in 0..100u64 {
        fill(&mut batch, round);
        execute(&mut batch);
        assert_eq!(batch.responses().len(), 34);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state Batch re-execution must perform zero heap allocations"
    );
}

#[test]
fn warm_pipeline_submission_allocates_nothing() {
    let map = DlhtMap::with_capacity(100_000);
    // The per-thread engines a `Box<dyn KvBackend>` hands out: a missing
    // forwarding arm would fall back to the adapter or allocate per call.
    let boxed: [Box<dyn KvBackend>; 2] = [
        Box::new(DlhtMap::with_capacity(100_000)),
        Box::new(ShardedTable::with_capacity(4, 100_000)),
    ];
    for k in 0..10_000u64 {
        let _ = map.insert(k, k).unwrap();
        for table in &boxed {
            let _ = table.insert(k, k).unwrap();
        }
    }
    let session = map.session();
    assert_warm_submission_allocates_nothing(session.pipeline(16));
    for table in &boxed {
        assert_warm_submission_allocates_nothing(Pipeline::new(table.engine(), 16));
    }
}

fn assert_warm_submission_allocates_nothing<E: Engine>(mut pipe: Pipeline<E>) {
    // Warm-up: fills the ring buffers and the scratch batch.
    for k in 0..200u64 {
        std::hint::black_box(pipe.submit(Request::Get(k % 10_000)));
    }

    let before = allocations();
    let mut hits = 0u64;
    for k in 0..10_000u64 {
        if let Some(Response::Value(Some(_))) = pipe.submit(Request::Get(k % 10_000)) {
            hits += 1;
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state pipeline submission must perform zero heap allocations"
    );
    assert!(hits > 0);
}
