//! Integration tests for the session-based submission API: reused `Batch`
//! aliasing (clear + refill), pipeline-vs-sequential equivalence across every
//! depth 1..=64, and policy semantics through the public facade.

use dlht::{Batch, BatchPolicy, DlhtMap, DlhtSet, KvBackend, Pipeline, Request, Response};

/// A deterministic mixed request stream over a small, collision-heavy key
/// space (hits, misses, duplicate inserts, deletes of absent keys).
fn request_stream(len: usize) -> Vec<Request> {
    let mut state = 0x5EED_u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..len)
        .map(|_| {
            let k = rng() % 64;
            match rng() % 4 {
                0 => Request::Get(k),
                1 => Request::Insert(k, k + 1),
                2 => Request::Put(k, k + 2),
                _ => Request::Delete(k),
            }
        })
        .collect()
}

/// Execute `stream` one request at a time through the single-request API.
fn sequential_reference(stream: &[Request]) -> Vec<Response> {
    let map = DlhtMap::with_capacity(4_096);
    stream
        .iter()
        .map(|req| match *req {
            Request::Get(k) => Response::Value(map.get(k)),
            Request::Put(k, v) => Response::Updated(map.put(k, v)),
            Request::Insert(k, v) => Response::Inserted(map.insert(k, v)),
            Request::Delete(k) => Response::Deleted(map.delete(k)),
        })
        .collect()
}

#[test]
fn pipeline_matches_sequential_execution_at_every_depth() {
    let stream = request_stream(1_000);
    let expected = sequential_reference(&stream);
    for depth in 1..=64usize {
        let map = DlhtMap::with_capacity(4_096);
        let session = map.session();
        let mut pipe = session.pipeline(depth);
        let mut got = Vec::with_capacity(stream.len());
        for req in &stream {
            if let Some(r) = pipe.submit(*req) {
                got.push(r);
            }
        }
        pipe.drain_into(&mut got);
        assert_eq!(
            got, expected,
            "pipeline depth {depth} diverged from sequential execution"
        );
    }
}

#[test]
fn batched_execution_matches_sequential_execution() {
    let stream = request_stream(1_000);
    let expected = sequential_reference(&stream);
    for window in [1usize, 3, 16, 64, 1_000] {
        let map = DlhtMap::with_capacity(4_096);
        let session = map.session();
        let mut batch = Batch::with_capacity(window);
        let mut got = Vec::with_capacity(stream.len());
        for chunk in stream.chunks(window) {
            batch.clear();
            batch.extend(chunk.iter().copied());
            session.execute(&mut batch, BatchPolicy::RunAll);
            got.extend_from_slice(batch.responses());
        }
        assert_eq!(got, expected, "batch window {window} diverged");
    }
}

#[test]
fn cleared_batch_refills_without_stale_state() {
    // Aliasing check: a batch reused across wildly different shapes must
    // never leak requests or responses from a previous round.
    let map = DlhtMap::with_capacity(1_024);
    let session = map.session();
    let mut batch = Batch::new();

    batch.push_insert(1, 10);
    batch.push_insert(2, 20);
    batch.push_insert(3, 30);
    session.execute(&mut batch, BatchPolicy::RunAll);
    assert_eq!(batch.len(), 3);
    assert_eq!(batch.responses().len(), 3);

    // Smaller refill: lengths shrink, old slots are gone.
    batch.clear();
    batch.push_get(2);
    session.execute(&mut batch, BatchPolicy::RunAll);
    assert_eq!(batch.requests(), &[Request::Get(2)]);
    assert_eq!(batch.responses(), &[Response::Value(Some(20))]);

    // Executing the SAME batch again without clearing re-runs the same
    // requests and overwrites the responses (no accumulation).
    session.execute(&mut batch, BatchPolicy::RunAll);
    assert_eq!(batch.responses(), &[Response::Value(Some(20))]);

    // Larger refill after clear.
    batch.clear();
    for k in 0..10u64 {
        batch.push_get(k);
    }
    session.execute(&mut batch, BatchPolicy::RunAll);
    assert_eq!(batch.responses().len(), 10);
    assert_eq!(batch.responses()[1], Response::Value(Some(10)));
    assert_eq!(batch.responses()[5], Response::Value(None));
}

#[test]
fn stop_on_failure_policy_via_set_sessions() {
    // The lock-manager shape through the public API: a session per "thread",
    // StopOnFailure batches, skipped slots never execute.
    let set = DlhtSet::with_capacity(256);
    let session = set.session();
    let mut batch = Batch::with_capacity(3);
    batch.push_insert(1, 0);
    batch.push_insert(1, 0); // busy -> failure
    batch.push_insert(2, 0);
    session.execute(&mut batch, BatchPolicy::StopOnFailure);
    assert!(batch.responses()[0].succeeded());
    assert!(!batch.responses()[1].succeeded());
    assert!(batch.responses()[2].is_skipped());
    assert!(!set.contains(2), "skipped insert must not execute");
    assert!(set.contains(1));
}

#[test]
fn pipeline_over_trait_objects_works() {
    // A &dyn KvBackend hands out the engine a pipeline drives.
    let map = DlhtMap::with_capacity(256);
    let backend: &dyn KvBackend = &map;
    let mut pipe = Pipeline::new(backend.engine(), 4);
    let mut out = Vec::new();
    for k in 0..20u64 {
        if let Some(r) = pipe.submit(Request::Insert(k, k)) {
            out.push(r);
        }
    }
    pipe.drain_into(&mut out);
    assert_eq!(out.len(), 20);
    assert!(out.iter().all(|r| r.succeeded()));
    assert_eq!(map.len(), 20);
}
