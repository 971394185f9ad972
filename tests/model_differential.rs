//! Model-differential testing: seeded random operation sequences replayed
//! against a `BTreeMap` oracle, across every DLHT mode, the sharded front at
//! 1/2/8 shards, and all nine baseline hashtables.
//!
//! The oracle is *response-driven*: after every operation the backend's
//! actual response is validated against the model (wrong previous value,
//! ghost key, lost update, wrong skip), and the model advances from what the
//! backend reported. Backend capabilities that legitimately differ — CLHT
//! has no pure Put, DRAMHiT's Put silently inserts, open-addressing designs
//! reject their sentinel keys — are probed up front, not hard-coded.
//!
//! The same sequences also replay **through the wire**: the `dlht-net`
//! loopback transport serves each backend behind the binary protocol
//! (singles, pipelined plain frames, and `BATCH` frames under all three
//! `BatchPolicy` values), so the oracle validates the encode → decode →
//! batch-execute → encode path too.
//!
//! `DLHT_STRESS=1` (or any positive integer) multiplies the seed count; the
//! CI stress step runs these suites that way.

use dlht::{
    Batch, BatchPolicy, DlhtConfig, DlhtMap, DlhtSet, InsertOutcome, KvBackend, Pipeline, Request,
    Response, ShardedTable, SingleThreadMap,
};
use dlht_baselines::MapKind;
use dlht_util::splitmix64 as splitmix;
use std::collections::BTreeMap;

/// Seed multiplier from `DLHT_STRESS` (1 when unset/zero).
fn stress() -> u64 {
    std::env::var("DLHT_STRESS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&v| v > 0)
        .map(|v| v * 4)
        .unwrap_or(1)
}

/// The small key universe (maximizes collisions and slot reuse) plus the
/// special keys that exercise each design's reserved/sentinel handling.
const UNIVERSE: u64 = 96;
const SPECIAL_KEYS: [u64; 3] = [0, u64::MAX - 1, u64::MAX];

fn sample_key(rng: &mut u64) -> u64 {
    if splitmix(rng).is_multiple_of(20) {
        SPECIAL_KEYS[(splitmix(rng) % 3) as usize]
    } else {
        splitmix(rng) % UNIVERSE
    }
}

/// How a backend treats a pure Put of an absent key (probed, not assumed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PutMode {
    /// Put updates existing keys only (DLHT, most baselines).
    Exact,
    /// The design has no pure Put; Put never takes effect (CLHT, the set).
    NoPut,
    /// Put is an upsert: an absent key is silently inserted (DRAMHiT).
    UpsertOnPut,
}

struct Caps {
    put: PutMode,
    /// Keys this backend rejects outright (DLHT's transfer keys, the
    /// open-addressing EMPTY/TOMBSTONE/LOCKED sentinels).
    rejected: Vec<u64>,
    /// Whether batches and pipeline flushes execute in submission order.
    /// DRAMHiT-like reorders every batch (and so cannot honor
    /// `StopOnFailure`) — the documented §5.3.3 behaviour.
    ordered: bool,
}

impl Caps {
    fn rejects(&self, k: u64) -> bool {
        self.rejected.contains(&k)
    }
}

/// Probe put semantics and rejected keys with keys far outside the test
/// universe, leaving the table empty again afterwards.
fn probe_caps(map: &dyn KvBackend) -> Caps {
    const P1: u64 = 1 << 51;
    const P2: u64 = (1 << 51) + 1;
    let put = {
        let _ = map.put(P1, 5);
        if map.get(P1).is_some() {
            let _ = map.delete(P1);
            PutMode::UpsertOnPut
        } else {
            let _ = map.insert(P2, 5);
            let r = map.put(P2, 6);
            let _ = map.delete(P2);
            if r.is_some() {
                PutMode::Exact
            } else {
                PutMode::NoPut
            }
        }
    };
    let mut rejected = Vec::new();
    for k in SPECIAL_KEYS {
        match map.insert(k, 123) {
            Err(_) => rejected.push(k),
            Ok(o) => {
                assert!(
                    o.inserted(),
                    "{}: probe key {k:#x} must be fresh",
                    map.name()
                );
                let _ = map.delete(k);
            }
        }
    }
    Caps {
        put,
        rejected,
        ordered: map.name() != "DRAMHiT-like",
    }
}

/// Validate one actual [`Response`] against the model and advance the model
/// accordingly. `ctx` names the backend/seed/step for failure messages.
fn check_response(
    model: &mut BTreeMap<u64, u64>,
    caps: &Caps,
    req: Request,
    resp: Response,
    ctx: &str,
) {
    match (req, resp) {
        (Request::Get(k), Response::Value(v)) => {
            assert_eq!(v, model.get(&k).copied(), "{ctx}: Get({k:#x})");
        }
        (Request::Insert(k, v), Response::Inserted(Ok(InsertOutcome::Inserted))) => {
            assert!(
                !model.contains_key(&k) && !caps.rejects(k),
                "{ctx}: Insert({k:#x}) succeeded but the model disagrees"
            );
            model.insert(k, v);
        }
        (Request::Insert(k, _), Response::Inserted(Ok(InsertOutcome::AlreadyExists(e)))) => {
            assert_eq!(
                Some(e),
                model.get(&k).copied(),
                "{ctx}: Insert({k:#x}) reported the wrong existing value"
            );
        }
        (Request::Insert(k, _), Response::Inserted(Err(_))) => {
            assert!(
                caps.rejects(k),
                "{ctx}: Insert({k:#x}) errored on a supported key"
            );
        }
        (Request::Put(k, v), Response::Updated(Some(prev))) => {
            assert_eq!(
                Some(prev),
                model.get(&k).copied(),
                "{ctx}: Put({k:#x}) reported the wrong previous value"
            );
            assert_ne!(caps.put, PutMode::NoPut, "{ctx}: NoPut design updated");
            model.insert(k, v);
        }
        (Request::Put(k, v), Response::Updated(None)) => {
            match caps.put {
                PutMode::Exact | PutMode::UpsertOnPut => assert!(
                    !model.contains_key(&k),
                    "{ctx}: Put({k:#x}) missed a present key"
                ),
                // A put-less design reports None unconditionally.
                PutMode::NoPut => {}
            }
            // DRAMHiT's upsert-only write inserts the missing key.
            if caps.put == PutMode::UpsertOnPut && !caps.rejects(k) {
                model.insert(k, v);
            }
        }
        (Request::Delete(k), Response::Deleted(Some(v))) => {
            assert_eq!(
                Some(v),
                model.remove(&k),
                "{ctx}: Delete({k:#x}) removed the wrong value"
            );
        }
        (Request::Delete(k), Response::Deleted(None)) => {
            assert!(
                !model.contains_key(&k),
                "{ctx}: Delete({k:#x}) missed a present key"
            );
        }
        (req, resp) => panic!("{ctx}: mismatched response {resp:?} for request {req:?}"),
    }
}

/// Validate `upsert`'s composite result.
fn check_upsert(
    model: &mut BTreeMap<u64, u64>,
    caps: &Caps,
    k: u64,
    v: u64,
    actual: Result<Option<u64>, dlht::DlhtError>,
    ctx: &str,
) {
    match actual {
        Ok(None) => {
            assert!(
                !model.contains_key(&k) && !caps.rejects(k),
                "{ctx}: upsert({k:#x}) inserted over the model's objection"
            );
            model.insert(k, v);
        }
        Ok(Some(prev)) => {
            assert_eq!(
                Some(prev),
                model.get(&k).copied(),
                "{ctx}: upsert({k:#x}) reported the wrong previous value"
            );
            if caps.put != PutMode::NoPut {
                model.insert(k, v);
            }
        }
        Err(_) => assert!(caps.rejects(k), "{ctx}: upsert({k:#x}) errored"),
    }
}

/// Build one random request.
fn random_request(rng: &mut u64) -> Request {
    random_request_on(sample_key(rng), rng)
}

fn random_request_on(k: u64, rng: &mut u64) -> Request {
    let v = splitmix(rng) % 1_000_000;
    match splitmix(rng) % 4 {
        0 => Request::Get(k),
        1 => Request::Put(k, v),
        2 => Request::Insert(k, v),
        _ => Request::Delete(k),
    }
}

/// Requests for one batch. For order-preserving engines any keys work; for
/// reordering engines (DRAMHiT-like) the keys are kept distinct within the
/// batch, so per-slot responses and the final state stay order-independent
/// and the model still applies.
fn batch_requests(rng: &mut u64, len: usize, caps: &Caps) -> Vec<Request> {
    if caps.ordered {
        return (0..len).map(|_| random_request(rng)).collect();
    }
    let mut keys: Vec<u64> = Vec::with_capacity(len);
    while keys.len() < len {
        let k = sample_key(rng);
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    keys.into_iter()
        .map(|k| random_request_on(k, rng))
        .collect()
}

/// Replay `ops` random operations (singles + batches under every policy,
/// through one engine) against `map`, validating every response against the
/// model.
fn differential_run(map: &dyn KvBackend, seed: u64, ops: usize) {
    let caps = probe_caps(map);
    let engine = map.engine();
    let run = |reqs: &[Request], policy| {
        let mut batch = Batch::from(reqs);
        engine.execute(&mut batch, policy);
        batch.into_responses()
    };
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut rng = 0xD1FF ^ (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let name = map.name();
    for step in 0..ops {
        let ctx = format!("{name} seed {seed} step {step}");
        match splitmix(&mut rng) % 100 {
            // Batches, cycling through the three policies.
            0..=9 => {
                let len = 2 + (splitmix(&mut rng) % 7) as usize;
                match splitmix(&mut rng) % 3 {
                    0 => {
                        let reqs = batch_requests(&mut rng, len, &caps);
                        let out = run(&reqs, BatchPolicy::RunAll);
                        assert_eq!(out.len(), reqs.len(), "{ctx}");
                        for (req, resp) in reqs.iter().zip(&out) {
                            check_response(&mut model, &caps, *req, *resp, &ctx);
                        }
                    }
                    1 => {
                        let reqs = batch_requests(&mut rng, len, &caps);
                        let out = run(&reqs, BatchPolicy::StopOnFailure);
                        let mut stopped = false;
                        for (i, (req, resp)) in reqs.iter().zip(&out).enumerate() {
                            if stopped {
                                assert_eq!(
                                    *resp,
                                    Response::Skipped,
                                    "{ctx}: slot {i} must be skipped"
                                );
                                continue;
                            }
                            check_response(&mut model, &caps, *req, *resp, &ctx);
                            // A reordering engine cannot honor StopOnFailure
                            // and executes the whole batch (§5.3.3).
                            if caps.ordered && !resp.succeeded() {
                                stopped = true;
                            }
                        }
                    }
                    _ => {
                        // Unordered executions may interleave shards/engines
                        // freely, so restrict the differential batch to Gets:
                        // responses must still land in submission slots.
                        let reqs: Vec<Request> = (0..len)
                            .map(|_| Request::Get(sample_key(&mut rng)))
                            .collect();
                        let out = run(&reqs, BatchPolicy::Unordered);
                        for (req, resp) in reqs.iter().zip(&out) {
                            check_response(&mut model, &caps, *req, *resp, &ctx);
                        }
                    }
                }
            }
            10..=19 => {
                let k = sample_key(&mut rng);
                let v = splitmix(&mut rng) % 1_000_000;
                let actual = map.upsert(k, v);
                check_upsert(&mut model, &caps, k, v, actual, &ctx);
            }
            _ => {
                let req = random_request(&mut rng);
                let resp = match req {
                    Request::Get(k) => Response::Value(map.get(k)),
                    Request::Put(k, v) => Response::Updated(map.put(k, v)),
                    Request::Insert(k, v) => Response::Inserted(map.insert(k, v)),
                    Request::Delete(k) => Response::Deleted(map.delete(k)),
                };
                check_response(&mut model, &caps, req, resp, &ctx);
            }
        }
    }
    // Final sweep: every universe key (and the specials) must agree.
    for k in (0..UNIVERSE).chain(SPECIAL_KEYS) {
        assert_eq!(
            map.get(k),
            model.get(&k).copied(),
            "{name} seed {seed}: final state diverged at key {k:#x}"
        );
    }
}

/// Every backend under differential test: all `MapKind`s (the nine baselines
/// plus the DLHT adapters and the sharded front) and the DLHT core modes on
/// deliberately tiny indexes so resizes fire mid-sequence.
fn all_backends() -> Vec<(String, Box<dyn KvBackend>)> {
    let tiny = || {
        DlhtConfig::new(8)
            .with_hash(dlht::hash::HashKind::WyHash)
            .with_chunk_bins(2)
    };
    let mut backends: Vec<(String, Box<dyn KvBackend>)> = Vec::new();
    for kind in MapKind::all() {
        backends.push((kind.name().to_string(), kind.build(4_096)));
    }
    backends.push((
        "DlhtMap/tiny".into(),
        Box::new(DlhtMap::with_config(tiny())),
    ));
    backends.push((
        "DlhtSet/tiny".into(),
        Box::new(DlhtSet::with_config(tiny())),
    ));
    for shards in [1usize, 2, 8] {
        backends.push((
            format!("ShardedTable/{shards}/tiny"),
            Box::new(ShardedTable::with_config(shards, tiny())),
        ));
    }
    backends
}

#[test]
fn differential_singles_and_batches_all_backends() {
    let seeds = 6 * stress();
    for seed in 0..seeds {
        for (name, map) in all_backends() {
            let _ = &name;
            differential_run(map.as_ref(), seed, 300);
        }
    }
}

#[test]
fn differential_core_tables_pass_structural_sweep() {
    // The DLHT cores from `all_backends`, re-run with the concrete types in
    // hand so the full `check_invariants()` structural sweep (every index
    // generation, bin, link chain, and slot) can run at the quiescent end of
    // every seed — the tiny indexes guarantee the sequences crossed resizes.
    let tiny = DlhtConfig::new(8)
        .with_hash(dlht::hash::HashKind::WyHash)
        .with_chunk_bins(2);
    let seeds = 2 * stress();
    for seed in 0..seeds {
        let table = DlhtMap::with_config(tiny.clone());
        differential_run(&table, seed, 300);
        table.collect_garbage();
        table
            .check_invariants()
            .expect("DlhtMap structural sweep after the differential run");
        for shards in [1usize, 2, 8] {
            let sharded = ShardedTable::with_config(shards, tiny.clone());
            differential_run(&sharded, seed, 300);
            sharded.collect_retired();
            sharded
                .check_invariants()
                .expect("ShardedTable structural sweep after the differential run");
        }
    }
}

#[test]
fn differential_loopback_wire_backends() {
    // The same oracle, but every backend is served **through the wire**: the
    // dlht-net loopback transport encodes every operation into frames, the
    // server-side Service decodes and executes them, and the response frames
    // decode back — so the whole protocol path (singles, batches
    // under all three BatchPolicy values, upserts, reserved keys) is
    // validated against the BTreeMap model. `name()` passes through, so the
    // capability probing treats each wrapped table like the bare one.
    let seeds = 2 * stress();
    for seed in 0..seeds {
        for (name, map) in all_backends() {
            let _ = &name;
            let wire = dlht_net::LoopbackBackend::new(std::sync::Arc::from(map));
            differential_run(&wire, seed, 250);
        }
    }
}

#[test]
fn differential_loopback_pipelined_singles() {
    // RunAll batches travel as pipelined plain frames (the server drains
    // them into one prefetched batch — wire pipelining ≙ batching); policies
    // needing the envelope still use BATCH frames. Same oracle either way.
    let seeds = stress();
    for seed in 0..seeds {
        for (name, map) in all_backends() {
            let _ = &name;
            let wire = dlht_net::LoopbackBackend::with_pipelined_singles(std::sync::Arc::from(map));
            differential_run(&wire, seed ^ 0x5151, 250);
        }
    }
}

#[test]
fn differential_pipeline_over_the_wire() {
    // The generic prefetch Pipeline driving a loopback-served backend: every
    // flush becomes a pipelined wire window. Depths beyond the flush chunk
    // exercise multi-frame drains.
    for depth in [1usize, 4, 16] {
        for (caps_probe_name, map) in all_backends() {
            let wire = dlht_net::LoopbackBackend::new(std::sync::Arc::from(map));
            let caps = probe_caps(&wire);
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut rng = 0x00C0_FFEE ^ ((depth as u64) << 40);
            let mut submitted: Vec<Request> = Vec::new();
            let mut responses: Vec<Response> = Vec::new();
            {
                let mut pipe = Pipeline::new(wire.engine(), depth);
                for step in 0..100u64 {
                    let req = if caps.ordered {
                        random_request(&mut rng)
                    } else {
                        random_request_on(step % UNIVERSE, &mut rng)
                    };
                    submitted.push(req);
                    if let Some(r) = pipe.submit(req) {
                        responses.push(r);
                    }
                }
                pipe.drain_into(&mut responses);
            }
            assert_eq!(responses.len(), submitted.len(), "{caps_probe_name}");
            for (step, (req, resp)) in submitted.iter().zip(&responses).enumerate() {
                let ctx = format!("{caps_probe_name} wire-pipeline depth {depth} step {step}");
                check_response(&mut model, &caps, *req, *resp, &ctx);
            }
            for k in (0..UNIVERSE).chain(SPECIAL_KEYS) {
                assert_eq!(
                    wire.get(k),
                    model.get(&k).copied(),
                    "{caps_probe_name} depth {depth}: final state diverged at key {k:#x}"
                );
            }
        }
    }
}

#[test]
fn differential_pipelines_depths_1_to_16() {
    let seeds = stress();
    for seed in 0..seeds {
        for depth in 1..=16usize {
            for (name, map) in all_backends() {
                let caps = probe_caps(map.as_ref());
                let mut model: BTreeMap<u64, u64> = BTreeMap::new();
                let mut rng = 0x9199_u64 ^ seed ^ ((depth as u64) << 32);
                let mut submitted: Vec<Request> = Vec::new();
                let mut responses: Vec<Response> = Vec::new();
                {
                    let mut pipe = Pipeline::new(map.engine(), depth);
                    for step in 0..120u64 {
                        let req = if caps.ordered {
                            random_request(&mut rng)
                        } else {
                            // Reordering engines (DRAMHiT-like) shuffle each
                            // flush chunk; round-robin keys keep every chunk's
                            // keys distinct so responses stay well-defined.
                            random_request_on(step % UNIVERSE, &mut rng)
                        };
                        submitted.push(req);
                        if let Some(r) = pipe.submit(req) {
                            responses.push(r);
                        }
                    }
                    pipe.drain_into(&mut responses);
                }
                assert_eq!(
                    responses.len(),
                    submitted.len(),
                    "{name} depth {depth}: every submission must complete"
                );
                // A pipeline executes in submission order at every depth, so
                // the response stream must replay exactly like a serial run.
                for (step, (req, resp)) in submitted.iter().zip(&responses).enumerate() {
                    let ctx = format!("{name} seed {seed} depth {depth} step {step}");
                    check_response(&mut model, &caps, *req, *resp, &ctx);
                }
                for k in (0..UNIVERSE).chain(SPECIAL_KEYS) {
                    assert_eq!(
                        map.get(k),
                        model.get(&k).copied(),
                        "{name} depth {depth}: final state diverged at key {k:#x}"
                    );
                }
            }
        }
    }
}

#[test]
fn differential_single_thread_mode() {
    // The Single-thread mode has a `&mut self` API outside `KvBackend`;
    // replay the same sequences against it directly.
    let seeds = 8 * stress();
    for seed in 0..seeds {
        let mut map = SingleThreadMap::with_config(
            DlhtConfig::new(8)
                .with_hash(dlht::hash::HashKind::WyHash)
                .with_chunk_bins(2),
        );
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut rng = 0x517 ^ (seed << 20);
        for step in 0..400 {
            let k = splitmix(&mut rng) % UNIVERSE;
            let v = splitmix(&mut rng) % 1_000_000;
            let ctx = format!("SingleThreadMap seed {seed} step {step}");
            match splitmix(&mut rng) % 4 {
                0 => {
                    let inserted = map.insert(k, v).unwrap().inserted();
                    assert_eq!(inserted, !model.contains_key(&k), "{ctx}");
                    if inserted {
                        model.insert(k, v);
                    }
                }
                1 => assert_eq!(map.delete(k), model.remove(&k), "{ctx}"),
                2 => assert_eq!(map.get(k), model.get(&k).copied(), "{ctx}"),
                _ => {
                    let prev = model.get(&k).copied();
                    assert_eq!(map.put(k, v), prev, "{ctx}");
                    if prev.is_some() {
                        model.insert(k, v);
                    }
                }
            }
        }
        assert_eq!(map.len(), model.len(), "seed {seed}");
        for (k, v) in &model {
            assert_eq!(map.get(*k), Some(*v), "seed {seed}");
        }
    }
}

#[test]
fn differential_typed_facade_inline() {
    use dlht::Dlht;
    // The sharded table runs the same differential as an untyped backend
    // (`all_backends`); this covers the typed Inlined facade on top.
    let seeds = 4 * stress();
    for seed in 0..seeds {
        let map: Dlht<u64, u64> = Dlht::with_capacity(64);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut rng = 0x7A9 ^ (seed << 16);
        for step in 0..300 {
            let k = splitmix(&mut rng) % UNIVERSE;
            let v = splitmix(&mut rng) % 1_000_000;
            let op = splitmix(&mut rng) % 5;
            let expect_prev = model.get(&k).copied();
            let ctx = format!("seed {seed} step {step} key {k}");
            match op {
                0 => {
                    let fresh = !model.contains_key(&k);
                    assert_eq!(map.insert(&k, &v).unwrap(), fresh, "{ctx}");
                    if fresh {
                        model.insert(k, v);
                    }
                }
                1 => assert_eq!(map.get(&k), expect_prev, "{ctx}"),
                2 => {
                    assert_eq!(map.put(&k, &v).unwrap(), expect_prev, "{ctx}");
                    if expect_prev.is_some() {
                        model.insert(k, v);
                    }
                }
                3 => {
                    assert_eq!(map.upsert(&k, &v).unwrap(), expect_prev, "{ctx}");
                    model.insert(k, v);
                }
                _ => {
                    assert_eq!(map.remove(&k), expect_prev, "{ctx}");
                    model.remove(&k);
                }
            }
        }
        assert_eq!(map.len(), model.len(), "seed {seed}");
        for (k, v) in &model {
            assert_eq!(map.get(k), Some(*v), "seed {seed}");
        }
    }
}

#[test]
fn differential_alloc_mode_facade() {
    use dlht::Dlht;
    // The Allocator mode (mixed inline/bytes pair) under the same random
    // sequences; `put` there builds a new record and publishes it with one
    // pointer swap (`AllocSession::replace_with`). Building the record can
    // fail, so it returns a Result.
    let seeds = 2 * stress();
    for seed in 0..seeds {
        let map: Dlht<u64, Vec<u8>> = Dlht::with_capacity(256);
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut rng = 0xA110C ^ (seed << 8);
        for step in 0..200 {
            let k = splitmix(&mut rng) % 48;
            let v = vec![(splitmix(&mut rng) % 251) as u8; 1 + (splitmix(&mut rng) % 24) as usize];
            let ctx = format!("alloc seed {seed} step {step} key {k}");
            match splitmix(&mut rng) % 5 {
                0 => {
                    let fresh = !model.contains_key(&k);
                    assert_eq!(map.insert(&k, &v).unwrap(), fresh, "{ctx}");
                    if fresh {
                        model.insert(k, v);
                    }
                }
                1 => assert_eq!(map.get(&k), model.get(&k).cloned(), "{ctx}"),
                2 => {
                    let prev = model.get(&k).cloned();
                    assert_eq!(map.put(&k, &v).unwrap(), prev, "{ctx}");
                    if prev.is_some() {
                        model.insert(k, v);
                    }
                }
                3 => {
                    let prev = model.get(&k).cloned();
                    assert_eq!(map.upsert(&k, &v).unwrap(), prev, "{ctx}");
                    model.insert(k, v);
                }
                _ => {
                    assert_eq!(map.remove(&k), model.remove(&k), "{ctx}");
                }
            }
        }
        assert_eq!(map.len(), model.len(), "seed {seed}");
    }
}
