//! Non-partitioned hash join (OLAP application, §5.3.6, Fig. 20).
//!
//! Workload A from the literature the paper follows: 16-byte tuples, a build
//! relation `R` and a probe relation `S` with |S| = 16·|R| (2^27 and 2^31 in
//! the paper; scaled down by default here). The build phase inserts R into a
//! DLHT instance; the probe phase streams S in batches so DLHT's software
//! prefetching can overlap the random index accesses. Throughput is reported
//! as `(|R| + |S|) / runtime` tuples per second, as in the paper.

use dlht_core::{Batch, BatchPolicy, DlhtMap, KvBackend, Response};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Result of one join run.
#[derive(Debug, Clone)]
pub struct JoinResult {
    /// Tuples in the build relation.
    pub build_tuples: u64,
    /// Tuples in the probe relation.
    pub probe_tuples: u64,
    /// Probe tuples that found a match.
    pub matches: u64,
    /// Wall-clock runtime of build + probe.
    pub elapsed: Duration,
    /// Million tuples per second: (|R| + |S|) / runtime.
    pub mtuples_per_sec: f64,
}

/// Run the non-partitioned join over DLHT (the paper's configuration): build
/// `r_tuples` keys, probe `s_tuples` lookups from `threads` threads, with or
/// without batching.
pub fn run_hash_join(
    r_tuples: u64,
    s_tuples: u64,
    threads: usize,
    batch_size: usize,
    batched: bool,
) -> JoinResult {
    let map = DlhtMap::with_capacity(r_tuples as usize + 1);
    run_hash_join_on(&map, r_tuples, s_tuples, threads, batch_size, batched)
}

/// Run the non-partitioned join against any [`KvBackend`].
pub fn run_hash_join_on(
    map: &dyn KvBackend,
    r_tuples: u64,
    s_tuples: u64,
    threads: usize,
    batch_size: usize,
    batched: bool,
) -> JoinResult {
    let threads = threads.max(1) as u64;
    let matches = AtomicU64::new(0);
    let start = Instant::now();

    // Build phase: every thread inserts a stripe of R. Key i carries payload
    // i (the "row id" of the 16-byte tuple).
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let mut k = t;
                while k < r_tuples {
                    let _ = map.insert(k, k).unwrap();
                    k += threads;
                }
            });
        }
    });

    // Probe phase: S references R keys round-robin (every probe matches, as
    // in workload A's primary-key/foreign-key join).
    std::thread::scope(|s| {
        for t in 0..threads {
            let matches = &matches;
            s.spawn(move || {
                let mut local_matches = 0u64;
                let mut probe = t;
                // One engine and one reusable batch per thread: the probe loop
                // allocates nothing once the buffers are warm.
                let engine = map.engine();
                let mut batch = Batch::with_capacity(batch_size.max(1));
                while probe < s_tuples {
                    if batched {
                        batch.clear();
                        while batch.len() < batch_size && probe < s_tuples {
                            batch.push_get(probe % r_tuples);
                            probe += threads;
                        }
                        engine.execute(&mut batch, BatchPolicy::RunAll);
                        for resp in batch.responses() {
                            match resp {
                                Response::Value(Some(_)) => local_matches += 1,
                                Response::Value(None) => {}
                                // RunAll never skips, and a Get-only batch
                                // yields only Value responses.
                                other => unreachable!("unexpected probe response {other:?}"),
                            }
                        }
                    } else {
                        if map.get(probe % r_tuples).is_some() {
                            local_matches += 1;
                        }
                        probe += threads;
                    }
                }
                matches.fetch_add(local_matches, Ordering::Relaxed);
            });
        }
    });

    let elapsed = start.elapsed();
    JoinResult {
        build_tuples: r_tuples,
        probe_tuples: s_tuples,
        matches: matches.load(Ordering::Relaxed),
        elapsed,
        mtuples_per_sec: (r_tuples + s_tuples) as f64 / elapsed.as_secs_f64() / 1e6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_matches_in_workload_a() {
        let r = run_hash_join(10_000, 40_000, 2, 16, true);
        assert_eq!(r.build_tuples, 10_000);
        assert_eq!(r.probe_tuples, 40_000);
        assert_eq!(r.matches, 40_000, "PK/FK join: every probe must match");
        assert!(r.mtuples_per_sec > 0.0);
    }

    #[test]
    fn batched_and_unbatched_produce_identical_matches() {
        let a = run_hash_join(5_000, 20_000, 2, 32, true);
        let b = run_hash_join(5_000, 20_000, 2, 32, false);
        assert_eq!(a.matches, b.matches);
    }
}
