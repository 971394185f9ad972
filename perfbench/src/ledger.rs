//! The per-layer ledger of the traced run.
//!
//! Each function times calls into one layer's public functions on a given
//! key stream. A workload measures the layers it reaches on its own
//! structures; [`fill_probes`] measures the rest on small fixtures holding
//! a sample of the workload's own keys, so every traced run prints every
//! per-layer metric, each marked `own` or `probe`.

use crate::measure::{median, stream_seed, value_of, Check, Lat};
use crate::{cache_evict, wire_kv, Opts, Report, Source};
use dlht_core::{Batch, BatchPolicy, DlhtMap, Response, ShardedTable};
use dlht_hash::HashKind;
use dlht_workloads::Xoshiro256;
use std::hint::black_box;
use std::time::Instant;

/// Requests per batch on the in-process paths.
pub const BATCH: usize = 16;
/// Keys in a probe fixture: small enough to stay cache-resident.
pub const PROBE_KEYS: usize = 1 << 16;
/// Timed repetitions of each micro-loop; the median is reported.
const REPS: usize = 5;

/// A uniform stream of `len` keys drawn from `keys`.
pub fn sample_stream(keys: &[u64], len: usize, seed: u64) -> Vec<u64> {
    let mut rng = Xoshiro256::new(seed);
    (0..len)
        .map(|_| keys[rng.next_below(keys.len() as u64) as usize])
        .collect()
}

/// Median over [`REPS`] runs of `f`, in nanoseconds per item.
fn ns_per(items: usize, mut f: impl FnMut()) -> f64 {
    let runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / items.max(1) as f64
        })
        .collect();
    median(&runs)
}

/// `hash.ns_per_key`: `HashKind::hash_u64` over the stream.
pub fn hash_ns_per_key(kind: HashKind, stream: &[u64]) -> f64 {
    ns_per(stream.len() * 8, || {
        let mut acc = 0u64;
        for _ in 0..8 {
            for &k in stream {
                acc ^= kind.hash_u64(black_box(k));
            }
        }
        black_box(acc);
    })
}

/// Fill `batch` with one prefetched Get per key: the submit half of the
/// `Pipeline` path, whose flush half is `execute_prefetched`.
#[inline]
pub fn submit_gets(session: &dlht_core::Session<'_>, batch: &mut Batch, keys: &[u64]) {
    batch.clear();
    for &k in keys {
        session.prefetch(k);
        batch.push_get(k);
    }
}

/// Check the responses of a batch of Gets whose keys are all live.
#[inline]
pub fn check_gets(check: &mut Check, keys: &[u64], responses: &[Response]) -> u64 {
    let mut hits = 0;
    for (&k, r) in keys.iter().zip(responses) {
        let got = match *r {
            Response::Value(Some(v)) => Some(check.tamper(v)),
            _ => None,
        };
        hits += u64::from(got.is_some());
        check.expect(got == Some(value_of(k)), || {
            format!("get {k:#x}: {r:?}, expected {:#x}", value_of(k))
        });
    }
    hits
}

/// `core.table.get_ns`, `core.session.get_ns`, `core.batch.ns_per_op` and
/// `core.batch.prefetch_gain` on `map`, whose live keys include `stream`.
///
/// The stream is cut into `3 × REPS` parts and every repetition of every
/// call kind gets a part of its own, interleaved, so that on a table larger
/// than the cache no kind runs on lines an earlier one brought in.
pub fn core_costs(report: &mut Report, map: &DlhtMap, stream: &[u64], source: Source) {
    let raw = map.raw();
    let session = map.session();
    let mut batch = Batch::with_capacity(BATCH);
    let part = (stream.len() / (3 * REPS)).max(BATCH);
    let mut parts = stream.chunks(part);
    let mut sink = 0u64;
    let (mut table, mut single, mut batched) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        let (Some(a), Some(b), Some(c)) = (parts.next(), parts.next(), parts.next()) else {
            break;
        };
        let t = Instant::now();
        for &k in a {
            sink ^= raw.get(k).unwrap_or(0);
        }
        table.push(t.elapsed().as_nanos() as f64 / a.len() as f64);
        let t = Instant::now();
        for &k in b {
            sink ^= session.get(k).unwrap_or(0);
        }
        single.push(t.elapsed().as_nanos() as f64 / b.len() as f64);
        let t = Instant::now();
        for chunk in c.chunks(BATCH) {
            submit_gets(&session, &mut batch, chunk);
            session.execute_prefetched(&mut batch, BatchPolicy::RunAll);
            check_gets(&mut report.check, chunk, batch.responses());
        }
        batched.push(t.elapsed().as_nanos() as f64 / c.len() as f64);
    }
    black_box(sink);
    let (table, single, batched) = (median(&table), median(&single), median(&batched));
    report.set("core.table.get_ns", table, source);
    report.set("core.session.get_ns", single, source);
    report.set("core.batch.ns_per_op", batched, source);
    report.set("core.batch.prefetch_gain", single / batched, source);
}

/// Which calls overlapped a resize, observed at call boundaries through the
/// table's public `resizes()` counter (bumped when a new index is
/// allocated) and `current_generation()` (bumped when the switch to it
/// completes): a resize is in flight while the counter is ahead.
#[derive(Debug, Default)]
pub struct ResizeObs {
    overlap: Lat,
    steady: Lat,
    first_start: Option<Instant>,
    last_end: Option<Instant>,
    /// Windows of earlier rounds, closed by [`ResizeObs::close_round`].
    windows_s: Vec<f64>,
}

impl ResizeObs {
    /// `before`/`after` are `(resizes, generation)` read around the call.
    #[inline]
    pub fn record(&mut self, start: Instant, end: Instant, before: (u64, u32), after: (u64, u32)) {
        let in_flight = |(r, g): (u64, u32)| r > u64::from(g);
        let changed = before != after;
        if changed || in_flight(before) || in_flight(after) {
            self.overlap.record(start, end);
            if after.0 > before.0 || in_flight(before) {
                self.first_start.get_or_insert(start);
            }
            if after.1 != before.1 {
                self.last_end = Some(end);
            }
        } else {
            self.steady.record(start, end);
        }
    }

    /// Fold another thread's observations of the same round into this one.
    pub fn merge(&mut self, other: ResizeObs) {
        self.overlap.extend(&other.overlap);
        self.steady.extend(&other.steady);
        self.windows_s.extend(other.windows_s);
        self.first_start = match (self.first_start, other.first_start) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last_end = match (self.last_end, other.last_end) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// End a round: its window joins the per-round list.
    pub fn close_round(&mut self) {
        if let (Some(a), Some(b)) = (self.first_start, self.last_end) {
            self.windows_s
                .push(b.saturating_duration_since(a).as_secs_f64());
        }
        self.first_start = None;
        self.last_end = None;
    }

    /// Median resize window over the rounds that resized.
    pub fn window_s(&mut self) -> f64 {
        self.close_round();
        median(&self.windows_s)
    }

    /// Report the resize family with `count` resizes.
    pub fn report(&mut self, report: &mut Report, count: u64, source: Source) {
        let p99 = |l: &Lat| l.percentiles_us(&[0.99])[0];
        report.set("core.resize.count", count as f64, source);
        report.set("core.resize.window_s", self.window_s(), source);
        report.set("core.resize.overlap_lat_p99_us", p99(&self.overlap), source);
        report.set("core.resize.steady_lat_p99_us", p99(&self.steady), source);
    }
}

/// `(resizes, generation)` of a table, for [`ResizeObs::record`].
#[inline]
pub fn resize_state(map: &DlhtMap) -> (u64, u32) {
    (map.resizes(), map.raw().current_generation())
}

/// Resize probe: insert `keys` in batches into a table sized by
/// `with_capacity` for an eighth of them, so it grows mid-stream.
fn resize_probe(report: &mut Report, keys: &[u64]) {
    let map = DlhtMap::with_capacity((keys.len() / 8).max(64));
    let base = map.resizes();
    let session = map.session();
    let mut batch = Batch::with_capacity(BATCH);
    let mut obs = ResizeObs::default();
    for chunk in keys.chunks(BATCH) {
        let before = resize_state(&map);
        let t0 = Instant::now();
        batch.clear();
        for &k in chunk {
            session.prefetch(k);
            batch.push_insert(k, value_of(k));
        }
        session.execute_prefetched(&mut batch, BatchPolicy::RunAll);
        let t1 = Instant::now();
        obs.record(t0, t1, before, resize_state(&map));
        for (&k, r) in chunk.iter().zip(batch.responses()) {
            let ok = matches!(
                r,
                Response::Inserted(Ok(dlht_core::InsertOutcome::Inserted))
            );
            report
                .check
                .expect(ok, || format!("probe insert {k:#x}: {r:?}"));
        }
    }
    obs.report(report, map.resizes() - base, Source::Probe);
}

/// `epoch.collect_ns`: median cost of one `collect` call.
pub fn collect_ns(mut collect: impl FnMut()) -> f64 {
    ns_per(64, || {
        for _ in 0..64 {
            collect();
        }
    })
}

/// `core.sharded.ns_per_op`: `ShardedSession::execute_prefetched` over the
/// stream, in batches submitted the same way as the unsharded path.
pub fn sharded_ns_per_op(check: &mut Check, table: &ShardedTable, stream: &[u64]) -> f64 {
    let session = table.session();
    let mut batch = Batch::with_capacity(BATCH);
    ns_per(stream.len(), || {
        for chunk in stream.chunks(BATCH) {
            batch.clear();
            for &k in chunk {
                session.prefetch(k);
                batch.push_get(k);
            }
            session.execute_prefetched(&mut batch, BatchPolicy::RunAll);
            check_gets(check, chunk, batch.responses());
        }
    })
}

/// `net.service.ns_per_frame`: the wire windows of `wire-kv` through
/// `Service::process` over the in-process loopback transport (no sockets).
pub fn service_ns_per_frame(check: &mut Check, table: &ShardedTable, stream: &[u64]) -> f64 {
    let session = table.session();
    let mut client = dlht_net::loopback_client(&session);
    let mut window = Vec::with_capacity(wire_kv::WINDOW);
    let mut out = Vec::with_capacity(wire_kv::WINDOW);
    ns_per(stream.len(), || {
        for chunk in stream.chunks(wire_kv::WINDOW) {
            window.clear();
            window.extend(chunk.iter().map(|&k| dlht_core::Request::Get(k)));
            out.clear();
            match client.pipelined_into(&window, &mut out) {
                Ok(()) => {
                    check_gets(check, chunk, &out);
                }
                Err(e) => check.error(|| format!("loopback window: {e}")),
            }
        }
    })
}

/// Insert every key of a probe fixture (value = `value_of(key)`).
fn insert_all(
    check: &mut Check,
    keys: &[u64],
    insert: impl Fn(u64, u64) -> Result<dlht_core::InsertOutcome, dlht_core::DlhtError>,
) {
    for &k in keys {
        let r = insert(k, value_of(k));
        check.expect(matches!(r, Ok(dlht_core::InsertOutcome::Inserted)), || {
            format!("probe insert {k:#x}: {r:?}")
        });
    }
}

/// Measure, on probe fixtures built from `keys` (a sample of the
/// workload's own keys), every per-layer metric the workload did not
/// measure itself. Fixtures are sized with `with_capacity`, as a user
/// would, and the sharded one has the `dlht_server` default of 4 shards.
pub fn fill_probes(opts: &Opts, report: &mut Report, keys: &[u64], pinning: &crate::sys::Pinning) {
    let keys = &keys[..keys.len().min(opts.size(PROBE_KEYS, 4096))];
    let stream = sample_stream(
        keys,
        opts.size(1 << 17, 1 << 12),
        stream_seed(opts.seed, &[0x1ED6]),
    );
    if !report.has("core.table.get_ns") {
        let map = DlhtMap::with_capacity(keys.len());
        insert_all(&mut report.check, keys, |k, v| map.insert(k, v));
        core_costs(report, &map, &stream, Source::Probe);
    }
    if !report.has("core.resize.count") {
        resize_probe(report, keys);
    }
    let needs_sharded = [
        "core.sharded.ns_per_op",
        "net.service.ns_per_frame",
        "net.server.request_ns_p50",
    ]
    .iter()
    .any(|m| !report.has(m));
    if needs_sharded {
        let table = ShardedTable::with_capacity(wire_kv::SHARDS, keys.len());
        insert_all(&mut report.check, keys, |k, v| table.insert(k, v));
        if !report.has("core.sharded.ns_per_op") {
            let v = sharded_ns_per_op(&mut report.check, &table, &stream);
            report.probe("core.sharded.ns_per_op", v);
        }
        if !report.has("net.service.ns_per_frame") {
            let v = service_ns_per_frame(&mut report.check, &table, &stream);
            report.probe("net.service.ns_per_frame", v);
        }
        if !report.has("net.server.request_ns_p50") {
            wire_kv::server_probe(report, table, &stream, pinning);
        }
    }
    if !report.has("core.cache.get_ns") {
        cache_evict::cache_probe(opts, report, keys, pinning);
    }
}
