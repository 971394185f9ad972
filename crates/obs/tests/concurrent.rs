//! Concurrency correctness for the metrics layer: the atomic histogram
//! against an exact Vec oracle under multi-thread hammering, plus
//! registry snapshots taken while recording is in flight.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use dlht_obs::{bucket_lower, bucket_of, Histogram, LocalHistogram, MetricsRegistry};

const THREADS: usize = 4;
const PER_THREAD: usize = 50_000;

/// Four threads hammer one shared histogram; every thread also keeps its
/// exact sample list. Afterwards the histogram must agree bin-for-bin
/// with the oracle — no lost updates — and percentiles must match a
/// sort-based computation to within one bucket.
#[test]
fn concurrent_records_match_vec_oracle() {
    let hist = Histogram::new();
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let hist = hist.clone();
            thread::spawn(move || {
                let mut seed = 0x9E37_79B9_7F4A_7C15u64 ^ (t as u64);
                let mut samples = Vec::with_capacity(PER_THREAD);
                for _ in 0..PER_THREAD {
                    // Mix of fast-path and tail latencies (1 ns .. ~16 ms).
                    let ns = (dlht_util::splitmix64(&mut seed) % 16_000_000).max(1);
                    hist.record(ns);
                    samples.push(ns);
                }
                samples
            })
        })
        .collect();

    let mut all: Vec<u64> = Vec::with_capacity(THREADS * PER_THREAD);
    for h in handles {
        all.extend(h.join().unwrap());
    }

    let snap = hist.snapshot();
    assert_eq!(snap.count(), (THREADS * PER_THREAD) as u64, "lost updates");
    assert_eq!(
        snap.sum_ns(),
        all.iter().map(|&n| u128::from(n)).sum::<u128>()
    );
    assert_eq!(snap.max_ns(), *all.iter().max().unwrap());

    // Bin-for-bin agreement with a sequential oracle.
    let mut oracle = LocalHistogram::new();
    for &ns in &all {
        oracle.record(ns);
    }
    let oracle_snap = oracle.snapshot();
    let a: Vec<_> = snap.nonzero_buckets().collect();
    let b: Vec<_> = oracle_snap.nonzero_buckets().collect();
    assert_eq!(a, b, "bin contents diverged from oracle");

    // Percentiles agree with an exact sort to within the bucket's own
    // resolution: the bucketed percentile is the lower bound of the bucket
    // holding the exact percentile sample.
    all.sort_unstable();
    for p in [50.0, 90.0, 99.0, 99.9] {
        let rank = ((p / 100.0) * all.len() as f64).ceil().max(1.0) as usize - 1;
        let exact = all[rank];
        let bucketed = snap.percentile_ns(p);
        assert_eq!(
            bucketed,
            bucket_lower(bucket_of(exact)),
            "p{p}: bucketed {bucketed} vs exact {exact}"
        );
    }
}

/// Merging per-thread histograms must equal recording into one shared
/// histogram, regardless of merge order.
#[test]
fn per_thread_merge_equals_shared_recording() {
    let shared = Histogram::new();
    let mut locals: Vec<LocalHistogram> = Vec::new();
    let mut seed = 7u64;
    for _ in 0..THREADS {
        let mut local = LocalHistogram::new();
        for _ in 0..10_000 {
            let ns = dlht_util::splitmix64(&mut seed) % 1_000_000;
            shared.record(ns);
            local.record(ns);
        }
        locals.push(local);
    }
    let mut forward = locals[0].snapshot();
    for l in &locals[1..] {
        forward.merge(&l.snapshot());
    }
    let mut backward = locals[THREADS - 1].snapshot();
    for l in locals[..THREADS - 1].iter().rev() {
        backward.merge(&l.snapshot());
    }
    let shared_snap = shared.snapshot();
    for s in [&forward, &backward] {
        assert_eq!(s.count(), shared_snap.count());
        assert_eq!(s.sum_ns(), shared_snap.sum_ns());
        assert_eq!(s.max_ns(), shared_snap.max_ns());
        for p in [50.0, 99.0, 99.9] {
            assert_eq!(s.percentile_ns(p), shared_snap.percentile_ns(p));
        }
    }
}

/// Snapshots taken while recorders are running must be internally
/// consistent (monotone percentiles, count equals the bin total by
/// construction) and monotone over time for counters.
#[test]
fn registry_snapshot_while_recording() {
    let reg = Arc::new(MetricsRegistry::new(THREADS));
    let ops = reg.counter("ops_total", "ops");
    let inflight = reg.gauge("inflight", "in-flight ops");
    let lat = reg.histogram("lat_ns", "latency");
    let stop = Arc::new(AtomicBool::new(false));

    let recorders: Vec<_> = (0..THREADS)
        .map(|lane| {
            let ops = ops.clone();
            let inflight = inflight.clone();
            let lat = lat.clone();
            let stop = stop.clone();
            thread::spawn(move || {
                let mut seed = lane as u64 + 1;
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    inflight.add(lane, 1);
                    lat.record(dlht_util::splitmix64(&mut seed) % 100_000);
                    ops.incr(lane);
                    // Decrement on a different lane than the increment to
                    // exercise the wrapping fold.
                    inflight.sub(lane + 1, 1);
                    n += 1;
                }
                n
            })
        })
        .collect();

    let mut last_ops = 0u64;
    let mut last_lat = 0u64;
    for _ in 0..50 {
        let ops_before = ops.value();
        let snap = reg.snapshot();
        let ops_after = ops.value();
        let ops_now = snap.total("ops_total");
        let lat_now = snap.total("lat_ns");
        assert!(ops_now >= last_ops, "counter went backwards");
        assert!(lat_now >= last_lat, "histogram count went backwards");
        last_ops = ops_now;
        last_lat = lat_now;
        // A scrape folds the lanes one at a time while the recorders run,
        // so it can pair an add read early with a sub read late (or the
        // reverse, across the lane wrap): the folded gauge may be off by
        // every add/sub pair that completed during the scrape, plus one
        // in-flight op per recorder on each side — and by no more. The bound
        // assumes each recorder's Relaxed stores (add, incr, sub) are seen
        // in program order and the scrape's loads are not reordered, which
        // x86-TSO guarantees; weakly ordered hardware does not.
        let inflight_now = snap.total("inflight") as i64;
        let skew = (ops_after - ops_before) as i64 + 2 * THREADS as i64;
        assert!(
            inflight_now.abs() <= skew,
            "gauge fold broke: {inflight_now} with {skew} ops of skew"
        );
        if let Some(sample) = snap.get("lat_ns") {
            if let dlht_obs::SampleValue::Histogram(h) = &sample.value {
                let mut prev = 0;
                for p in [50.0, 90.0, 99.0, 99.9] {
                    let v = h.percentile_ns(p);
                    assert!(v >= prev);
                    prev = v;
                }
            }
        }
        thread::yield_now();
    }

    stop.store(true, Ordering::Relaxed);
    let total: u64 = recorders.into_iter().map(|h| h.join().unwrap()).sum();
    let snap = reg.snapshot();
    assert_eq!(snap.total("ops_total"), total);
    assert_eq!(snap.total("lat_ns"), total);
    assert_eq!(snap.total("inflight"), 0);
}
