//! Multi-threaded throughput/latency runner — the equivalent of the paper's
//! micro-benchmark harness (§4, "Workloads").
//!
//! The two default workloads are reproduced exactly as described:
//!
//! * **Get**: 100% Gets over keys prepopulated before the measurement,
//!   selected uniformly at random.
//! * **InsDel**: 50% Inserts / 50% Deletes, where every Insert picks a key
//!   that was *not* prepopulated (so it pays the full insertion cost) and is
//!   immediately followed by a Delete of the same key.
//!
//! Additional mixes (Put-heavy, YCSB-style read/update blends, skewed
//! accesses) are expressed through [`WorkloadSpec`].

use crate::rng::{KeySampler, Xoshiro256};
use dlht_core::{Batch, BatchPolicy, KvBackend, Pipeline, Request};
use dlht_obs::LocalHistogram;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Operation mix in percent (must sum to 100).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Percentage of Gets.
    pub get: u32,
    /// Percentage of Puts (update existing keys).
    pub put: u32,
    /// Percentage of Inserts (new keys, each followed by a Delete when
    /// `insert_then_delete` is set on the spec).
    pub insert: u32,
    /// Percentage of standalone Deletes.
    pub delete: u32,
}

impl Mix {
    /// 100% Gets (the paper's default `Get` workload).
    pub const GET: Mix = Mix {
        get: 100,
        put: 0,
        insert: 0,
        delete: 0,
    };
    /// 50% Inserts + 50% Deletes (the paper's default `InsDel` workload).
    pub const INS_DEL: Mix = Mix {
        get: 0,
        put: 0,
        insert: 100,
        delete: 0,
    };
    /// 50% Gets + 50% Puts (the Put-heavy workload of §5.1.3).
    pub const PUT_HEAVY: Mix = Mix {
        get: 50,
        put: 50,
        insert: 0,
        delete: 0,
    };

    /// A read/update mix with `read` percent Gets and the rest Puts.
    pub const fn read_update(read: u32) -> Mix {
        Mix {
            get: read,
            put: 100 - read,
            insert: 0,
            delete: 0,
        }
    }
}

/// Full workload specification.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Operation mix.
    pub mix: Mix,
    /// Number of prepopulated keys (Gets/Puts/Deletes draw from `0..prepopulated`).
    pub prepopulated: u64,
    /// Key sampler for Gets/Puts/Deletes.
    pub sampler: KeySampler,
    /// Threads issuing requests.
    pub threads: usize,
    /// Measurement duration.
    pub duration: Duration,
    /// Requests per batch; 0 or 1 disables batching.
    pub batch_size: usize,
    /// When > 0, requests are driven through a bounded prefetch
    /// [`Pipeline`] of this depth instead of discrete batches: every request
    /// is prefetched at submit time and executes (order-preserving) once
    /// `pipeline_depth` later requests are in flight behind it. Per-operation
    /// latency recording is unavailable in this mode (execution is deferred,
    /// so a submit-side timestamp would measure the wrong requests).
    pub pipeline_depth: usize,
    /// When true (the paper's InsDel pattern) every Insert of a fresh key is
    /// immediately followed by a Delete of the same key.
    pub insert_then_delete: bool,
    /// Record per-operation latency (adds timing overhead; used for Fig. 15).
    pub record_latency: bool,
    /// Artificial per-memory-access delay in nanoseconds, used by the CXL /
    /// remote-memory emulation (§5.3.2). Applied once per unbatched request
    /// and once per batch when batching (prefetching overlaps the latency).
    pub remote_latency_ns: u64,
    /// Root RNG seed; each worker thread derives its stream from it. Defaults
    /// to [`crate::report::DEFAULT_SEED`] — the scenario harness overwrites it
    /// with the run-wide `BenchScale::seed` so the seed recorded in
    /// `BENCH_*.json` is the one that actually drove the keys.
    pub seed: u64,
    /// Offset added to every thread's fresh-insert key space (must stay below
    /// 2^39 so thread spaces cannot overlap). The harness sets a nonzero salt
    /// on its **warmup** pass so that mixes whose inserts are not followed by
    /// deletes (e.g. Fig. 13's hot-delete InsDel) leave no residue colliding
    /// with the measured pass's fresh keys.
    pub fresh_key_salt: u64,
}

impl WorkloadSpec {
    /// The paper's default Get workload over `prepopulated` keys.
    pub fn get_default(prepopulated: u64, threads: usize, duration: Duration) -> Self {
        WorkloadSpec {
            mix: Mix::GET,
            prepopulated,
            sampler: KeySampler::uniform(prepopulated),
            threads,
            duration,
            batch_size: 16,
            pipeline_depth: 0,
            insert_then_delete: false,
            record_latency: false,
            remote_latency_ns: 0,
            seed: crate::report::DEFAULT_SEED,
            fresh_key_salt: 0,
        }
    }

    /// The paper's default InsDel workload.
    pub fn insdel_default(prepopulated: u64, threads: usize, duration: Duration) -> Self {
        WorkloadSpec {
            mix: Mix::INS_DEL,
            insert_then_delete: true,
            ..Self::get_default(prepopulated, threads, duration)
        }
    }

    /// Disable batching (the `-NoBatch` configurations).
    pub fn without_batching(mut self) -> Self {
        self.batch_size = 1;
        self
    }

    /// Set the batch size.
    pub fn with_batch_size(mut self, batch: usize) -> Self {
        self.batch_size = batch;
        self
    }

    /// Drive requests through a bounded prefetch [`Pipeline`] of `depth`
    /// in-flight requests (0 restores discrete batches).
    pub fn with_pipeline(mut self, depth: usize) -> Self {
        self.pipeline_depth = depth;
        self
    }

    /// Use a specific key sampler (skew, zipfian, ...).
    pub fn with_sampler(mut self, sampler: KeySampler) -> Self {
        self.sampler = sampler;
        self
    }

    /// Record per-operation latencies.
    pub fn with_latency_recording(mut self) -> Self {
        self.record_latency = true;
        self
    }

    /// Use an explicit root seed (one source of truth per benchmark run; the
    /// scenario harness sets this from `BenchScale::seed`).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Result of one measurement run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Total requests completed (batched requests count individually).
    pub total_ops: u64,
    /// Wall-clock measurement time.
    pub elapsed: Duration,
    /// Million requests per second.
    pub mops: f64,
    /// Latency histogram (empty unless latency recording was enabled).
    pub latency: LocalHistogram,
    /// Number of threads used.
    pub threads: usize,
}

impl RunResult {
    /// Requests per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.mops * 1e6
    }
}

/// Prepopulate `map` with keys `0..n` (value = key, as in the paper's setup).
pub fn prepopulate(map: &dyn KvBackend, n: u64) {
    for k in 0..n {
        let _ = map.insert(k, k);
    }
}

/// [`prepopulate`] through the batch path, `chunk` inserts per batch on
/// one engine. Same final contents; essential for remote backends
/// (`dlht-net`'s `--server` mode), where each batch is one network round
/// trip instead of `n` of them.
pub fn prepopulate_batched(map: &dyn KvBackend, n: u64, chunk: usize) {
    let chunk = (chunk.max(1) as u64).min(n.max(1));
    let engine = map.engine();
    let mut batch = Batch::with_capacity(chunk as usize);
    let mut k = 0u64;
    while k < n {
        batch.clear();
        while k < n && (batch.len() as u64) < chunk {
            batch.push_insert(k, k);
            k += 1;
        }
        engine.execute(&mut batch, BatchPolicy::RunAll);
    }
}

/// Busy-wait for approximately `ns` nanoseconds (remote-memory emulation).
#[inline]
fn spin_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    let start = Instant::now();
    while (start.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

/// Run `spec` against `map` and report throughput (and optionally latency).
///
/// The map must already be prepopulated (see [`prepopulate`]); Gets and Puts
/// target prepopulated keys, Inserts target fresh keys disjoint from the
/// prepopulated range and from other threads.
pub fn run_workload(map: &dyn KvBackend, spec: &WorkloadSpec) -> RunResult {
    let stop = AtomicBool::new(false);
    let threads = spec.threads.max(1);
    let batching = spec.batch_size > 1 && map.supports_batching();
    let started = Instant::now();

    let results: Vec<(u64, LocalHistogram)> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for tid in 0..threads {
            let stop = &stop;
            let spec_ref = spec;
            handles.push(s.spawn(move || run_thread(map, spec_ref, tid as u64, stop, batching)));
        }
        // Timer thread.
        let duration = spec.duration;
        let stop_ref = &stop;
        s.spawn(move || {
            std::thread::sleep(duration);
            stop_ref.store(true, Ordering::Relaxed);
        });
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let elapsed = started.elapsed();
    let total_ops: u64 = results.iter().map(|(n, _)| n).sum();
    let mut latency = LocalHistogram::new();
    for (_, h) in &results {
        latency.merge(h);
    }
    RunResult {
        total_ops,
        elapsed,
        mops: total_ops as f64 / elapsed.as_secs_f64() / 1e6,
        latency,
        threads,
    }
}

fn run_thread(
    map: &dyn KvBackend,
    spec: &WorkloadSpec,
    tid: u64,
    stop: &AtomicBool,
    batching: bool,
) -> (u64, LocalHistogram) {
    let mut rng = Xoshiro256::new(spec.seed ^ (tid + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut hist = LocalHistogram::new();
    let mut ops_done: u64 = 0;
    // Fresh-key space for Inserts: above the prepopulated range, per thread
    // (plus the harness's warmup salt, which is < 2^39 < the 2^40 stride).
    let mut next_fresh = spec.prepopulated + 1 + spec.fresh_key_salt + tid * (1 << 40);
    let batch_size = spec.batch_size.max(1);
    // Reused across every iteration: steady-state execution touches the
    // allocator only while the buffers warm up.
    let mut batch = Batch::with_capacity(batch_size * 2);
    // One per-thread engine (a session for DLHT's tables) carries every batch
    // and every pipelined submission: one enter/leave per batch or flush,
    // none per prefetch.
    let engine = map.engine();
    let mut pipeline =
        (spec.pipeline_depth > 0).then(|| Pipeline::new(&engine, spec.pipeline_depth));
    let mix = spec.mix;

    while !stop.load(Ordering::Relaxed) {
        batch.clear();
        // Build one batch worth of requests (a single request when unbatched).
        let build = if batching || pipeline.is_some() {
            batch_size
        } else {
            1
        };
        for _ in 0..build {
            let dice = rng.next_below(100) as u32;
            if dice < mix.get {
                batch.push_get(spec.sampler.sample(&mut rng));
            } else if dice < mix.get + mix.put {
                let k = spec.sampler.sample(&mut rng);
                batch.push_put(k, rng.next_u64());
            } else if dice < mix.get + mix.put + mix.insert {
                let k = next_fresh;
                next_fresh += 1;
                batch.push_insert(k, k);
                if spec.insert_then_delete {
                    batch.push_delete(k);
                }
            } else {
                batch.push_delete(spec.sampler.sample(&mut rng));
            }
        }

        // Latency is not recorded in pipeline mode: execution lags submission
        // by up to `depth` requests, so a timestamp around the submit loop
        // would charge earlier requests' execution to this window.
        let t0 = if spec.record_latency && pipeline.is_none() {
            Some(Instant::now())
        } else {
            None
        };

        if let Some(pipe) = pipeline.as_mut() {
            // Pipelined submission: prefetch now, execute once `depth` later
            // requests are in flight. Responses (which lag the submissions)
            // are consumed on the spot.
            spin_ns(spec.remote_latency_ns); // one exposed miss per window
            for req in batch.requests() {
                std::hint::black_box(pipe.submit(*req));
            }
        } else if batching {
            spin_ns(spec.remote_latency_ns); // one exposed miss per batch
            engine.execute(&mut batch, BatchPolicy::RunAll);
            std::hint::black_box(batch.responses());
        } else {
            for req in batch.requests() {
                spin_ns(spec.remote_latency_ns);
                match *req {
                    Request::Get(k) => {
                        std::hint::black_box(map.get(k));
                    }
                    Request::Put(k, v) => {
                        std::hint::black_box(map.put(k, v));
                    }
                    Request::Insert(k, v) => {
                        std::hint::black_box(map.insert(k, v).is_ok());
                    }
                    Request::Delete(k) => {
                        std::hint::black_box(map.delete(k));
                    }
                }
            }
        }

        if let Some(t0) = t0 {
            let per_op = t0.elapsed().as_nanos() as u64 / batch.len() as u64;
            for _ in 0..batch.len() {
                hist.record(per_op);
            }
        }
        ops_done += batch.len() as u64;
    }
    // Everything still in flight executes here (counted above at submission).
    if let Some(mut pipe) = pipeline {
        pipe.flush();
    }
    (ops_done, hist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlht_baselines::MapKind;

    fn quick(spec: WorkloadSpec) -> WorkloadSpec {
        WorkloadSpec {
            duration: Duration::from_millis(50),
            threads: 2,
            ..spec
        }
    }

    #[test]
    fn prepopulate_batched_matches_prepopulate() {
        let a = MapKind::Dlht.build(10_000);
        let b = MapKind::Dlht.build(10_000);
        prepopulate(a.as_ref(), 1_000);
        prepopulate_batched(b.as_ref(), 1_000, 128);
        assert_eq!(a.len(), b.len());
        for k in 0..1_000u64 {
            assert_eq!(a.get(k), b.get(k), "key {k}");
        }
        // Chunk edge cases: zero chunk clamps to 1, chunk > n finishes.
        let c = MapKind::Dlht.build(256);
        prepopulate_batched(c.as_ref(), 10, 0);
        assert_eq!(c.len(), 10);
        let d = MapKind::Dlht.build(256);
        prepopulate_batched(d.as_ref(), 10, 64);
        assert_eq!(d.len(), 10);
    }

    #[test]
    fn get_workload_reports_throughput() {
        let map = MapKind::Dlht.build(10_000);
        prepopulate(map.as_ref(), 5_000);
        let spec = quick(WorkloadSpec::get_default(
            5_000,
            2,
            Duration::from_millis(50),
        ));
        let r = run_workload(map.as_ref(), &spec);
        assert!(r.total_ops > 0);
        assert!(r.mops > 0.0);
        assert_eq!(r.threads, 2);
    }

    #[test]
    fn insdel_workload_leaves_population_unchanged() {
        let map = MapKind::Dlht.build(50_000);
        prepopulate(map.as_ref(), 1_000);
        let spec = quick(WorkloadSpec::insdel_default(
            1_000,
            2,
            Duration::from_millis(50),
        ));
        let r = run_workload(map.as_ref(), &spec);
        assert!(r.total_ops > 0);
        assert_eq!(map.len(), 1_000, "every inserted key must also be deleted");
    }

    #[test]
    fn latency_recording_populates_histogram() {
        let map = MapKind::Dlht.build(10_000);
        prepopulate(map.as_ref(), 1_000);
        let spec = quick(WorkloadSpec::get_default(
            1_000,
            1,
            Duration::from_millis(50),
        ))
        .with_latency_recording();
        let r = run_workload(map.as_ref(), &spec);
        assert!(r.latency.count() > 0);
        assert!(r.latency.mean_ns() > 0.0);
        let lat = r.latency.snapshot();
        assert!(lat.percentile_ns(99.0) >= lat.percentile_ns(50.0));
    }

    #[test]
    fn unbatched_runs_work_for_every_map_kind() {
        for kind in [MapKind::Clht, MapKind::Mica, MapKind::Tbb] {
            let map = kind.build(10_000);
            prepopulate(map.as_ref(), 1_000);
            let spec = quick(WorkloadSpec::get_default(
                1_000,
                2,
                Duration::from_millis(30),
            ))
            .without_batching();
            let r = run_workload(map.as_ref(), &spec);
            assert!(r.total_ops > 0, "{}", kind.name());
        }
    }

    #[test]
    fn pipelined_runs_report_throughput_and_leave_population_unchanged() {
        // A session engine, a sharded session engine, and a baseline that is
        // its own engine.
        for kind in [MapKind::Dlht, MapKind::DlhtSharded(4), MapKind::Mica] {
            let map = kind.build(50_000);
            prepopulate(map.as_ref(), 1_000);
            let spec = quick(WorkloadSpec::insdel_default(
                1_000,
                2,
                Duration::from_millis(50),
            ))
            .with_pipeline(16);
            let r = run_workload(map.as_ref(), &spec);
            assert!(r.total_ops > 0, "{}", kind.name());
            assert_eq!(
                map.len(),
                1_000,
                "{}: pipelined InsDel must execute every submitted request",
                kind.name()
            );
        }
    }

    #[test]
    fn seed_defaults_to_the_shared_constant_and_is_overridable() {
        let spec = WorkloadSpec::get_default(100, 1, Duration::from_millis(10));
        assert_eq!(spec.seed, crate::report::DEFAULT_SEED);
        assert_eq!(spec.with_seed(99).seed, 99);
    }

    #[test]
    fn put_heavy_mix_executes_puts() {
        let map = MapKind::Dlht.build(10_000);
        prepopulate(map.as_ref(), 1_000);
        let mut spec = quick(WorkloadSpec::get_default(
            1_000,
            2,
            Duration::from_millis(40),
        ));
        spec.mix = Mix::PUT_HEAVY;
        let r = run_workload(map.as_ref(), &spec);
        assert!(r.total_ops > 0);
        assert_eq!(map.len(), 1_000);
    }
}
