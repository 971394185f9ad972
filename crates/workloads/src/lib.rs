//! Workload generators, measurement runner, and application scenarios for the
//! DLHT evaluation (§4–§5 of the paper).
//!
//! * [`runner`] — the micro-benchmark harness: Get / InsDel / Put-heavy mixes,
//!   uniform and skewed access, batching on/off, latency recording into a
//!   [`dlht_obs::LocalHistogram`], and the remote-memory (CXL emulation)
//!   delay knob.
//! * [`rng`] — fast deterministic RNG and key samplers (uniform, 1000-hot-key
//!   skew, zipfian).
//! * [`population`] — growing-index population (Fig. 7) and the resize
//!   timeline (Fig. 8).
//! * [`ycsb`], [`tatp`], [`smallbank`] — the single-key and multi-key OLTP
//!   benchmarks of §5.3.4–5.3.5.
//! * [`hashjoin`] — the non-partitioned OLAP join of §5.3.6.
//! * [`lockmgr`] — the HashSet-based database lock manager of §5.3.3.
//! * [`report`] — table/CSV/markdown rendering plus [`BenchScale`], the
//!   one-source-of-truth run configuration (keys, threads, seconds, shards,
//!   seed, smoke/full tier) every `dlht-bench` scenario embeds in its
//!   `BENCH_*.json` header.
//!
//! # Example: measure a workload
//!
//! ```
//! use dlht_baselines::MapKind;
//! use dlht_workloads::{prepopulate, run_workload, WorkloadSpec};
//! use std::time::Duration;
//!
//! let map = MapKind::Dlht.build(4_096);
//! prepopulate(map.as_ref(), 1_000);
//! let spec = WorkloadSpec::get_default(1_000, 2, Duration::from_millis(30))
//!     .with_seed(42)
//!     .with_latency_recording();
//! let result = run_workload(map.as_ref(), &spec);
//! assert!(result.total_ops > 0);
//! let lat = result.latency.snapshot().summary();
//! assert!(lat.p99_ns >= lat.p50_ns);
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod hashjoin;
pub mod lockmgr;
pub mod population;
pub mod report;
pub mod rng;
pub mod runner;
pub mod smallbank;
pub mod tatp;
pub mod ycsb;

pub use cache::{cache_key_bytes, CacheOp, ExpiryStorm, ZipfianChurn};
pub use report::{fmt_mops, BenchScale, Table, Tier, DEFAULT_SEED};
pub use rng::{KeySampler, SplitMix64, Xoshiro256};
pub use runner::{prepopulate, prepopulate_batched, run_workload, Mix, RunResult, WorkloadSpec};

#[cfg(test)]
mod integration {
    //! Cross-module smoke tests: the runner driven against several baselines
    //! with the paper's two default workloads.

    use super::*;
    use dlht_baselines::MapKind;
    use std::time::Duration;

    #[test]
    fn default_workloads_run_on_every_kind_of_map() {
        // Not a performance assertion (CI machines vary wildly); just checks
        // that every map kind can execute both default workloads end to end.
        for kind in [MapKind::Dlht, MapKind::DlhtNoBatch, MapKind::Growt] {
            let map = kind.build(20_000);
            prepopulate(map.as_ref(), 2_000);
            let get = run_workload(
                map.as_ref(),
                &WorkloadSpec::get_default(2_000, 2, Duration::from_millis(30)),
            );
            let insdel = run_workload(
                map.as_ref(),
                &WorkloadSpec::insdel_default(2_000, 2, Duration::from_millis(30)),
            );
            assert!(get.total_ops > 0, "{}", kind.name());
            assert!(insdel.total_ops > 0, "{}", kind.name());
        }
    }

    #[test]
    fn remote_latency_knob_slows_unbatched_runs() {
        let map = MapKind::DlhtNoBatch.build(10_000);
        prepopulate(map.as_ref(), 1_000);
        let fast = run_workload(
            map.as_ref(),
            &WorkloadSpec::get_default(1_000, 1, Duration::from_millis(40)).without_batching(),
        );
        let mut slow_spec =
            WorkloadSpec::get_default(1_000, 1, Duration::from_millis(40)).without_batching();
        slow_spec.remote_latency_ns = 2_000;
        let slow = run_workload(map.as_ref(), &slow_spec);
        assert!(
            slow.mops < fast.mops,
            "injected remote-memory latency must reduce throughput ({} !< {})",
            slow.mops,
            fast.mops
        );
    }
}
