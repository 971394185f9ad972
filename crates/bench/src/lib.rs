//! The unified benchmark harness behind every table and figure of the DLHT
//! paper's evaluation (§5).
//!
//! Each figure/table has its own binary (`cargo run --release -p dlht-bench
//! --bin fig03_get_throughput`), but they all run on one shared [`scenario`]
//! harness: a static [`scenario::REGISTRY`] describing what each binary
//! reproduces, a common driver with explicit warmup/measure phases, and one
//! schema-versioned JSON line per data point written to `BENCH_<name>.json`
//! (stdout carries the same JSON; human-readable tables go to stderr).
//! `run_all` executes the whole suite (`--smoke` for the CI tier, `--full`
//! for the environment-scaled defaults) and `bench_report` renders a markdown
//! regression diff between two recorded runs.
//!
//! Scaling: all binaries read `DLHT_KEYS`, `DLHT_THREADS` (comma-separated
//! sweep), `DLHT_SECS` and `DLHT_SEED` from the environment so the same code
//! runs on a laptop/CI box (defaults) or can be scaled toward the paper's
//! 100 M-key, 71-thread configuration on a large server. See
//! `docs/BENCHMARKS.md` for the binary → paper-figure map and the JSON
//! schema.
//!
//! # Example: inspect the registry and build a scenario context
//!
//! ```
//! use dlht_bench::{find, REGISTRY};
//!
//! assert_eq!(REGISTRY.len(), 23);
//! let fig3 = find("fig03_get_throughput").unwrap();
//! assert_eq!(fig3.figure, "Figure 3");
//! ```

#![forbid(unsafe_code)]

pub use dlht_obs::json;

pub mod scenario;

pub use json::Json;
pub use scenario::{find, run_scenario, Scenario, ScenarioCtx, SweepPoint, REGISTRY, SCHEMA};

use dlht_baselines::{KvBackend, MapKind};
use dlht_workloads::{prepopulate, BenchScale, Table};

/// Render sweep points as a "threads × map" throughput table (M req/s), the
/// shape of the paper's line plots.
pub fn throughput_table(title: &str, points: &[SweepPoint], scale: &BenchScale) -> Table {
    let kinds: Vec<MapKind> = {
        let mut ks: Vec<MapKind> = Vec::new();
        for p in points {
            if !ks.contains(&p.kind) {
                ks.push(p.kind);
            }
        }
        ks
    };
    let mut headers: Vec<&str> = vec!["threads"];
    let names: Vec<String> = kinds.iter().map(|k| k.name().to_string()).collect();
    for n in &names {
        headers.push(n.as_str());
    }
    let mut table = Table::new(title, &headers);
    for &threads in &scale.threads {
        let mut row = vec![threads.to_string()];
        for &kind in &kinds {
            let cell = points
                .iter()
                .find(|p| p.kind == kind && p.threads == threads)
                .map(|p| dlht_workloads::fmt_mops(p.result.mops))
                .unwrap_or_else(|| "-".to_string());
            row.push(cell);
        }
        table.row(&row);
    }
    table
}

/// Build and prepopulate one map kind at the sweep scale.
pub fn build_prepopulated(kind: MapKind, scale: &BenchScale) -> Box<dyn KvBackend> {
    let map = kind.build(scale.keys as usize * 2);
    prepopulate(map.as_ref(), scale.keys);
    map
}

/// Run `warmup_iters` untimed passes of `op(i)` followed by `iters` timed
/// ones, returning M ops/s — the warmup/measure shape for the hand-rolled
/// single-thread loops (Figs. 9/10/14/16) that don't go through the
/// multi-threaded workload runner.
pub fn timed_mops<F: FnMut(u64)>(iters: u64, warmup_iters: u64, mut op: F) -> f64 {
    for i in 0..warmup_iters {
        op(i);
    }
    let t = std::time::Instant::now();
    for i in warmup_iters..warmup_iters + iters {
        op(i);
    }
    iters as f64 / t.elapsed().as_secs_f64() / 1e6
}

/// Minimal self-contained micro-benchmark harness used by the `benches/`
/// targets (`harness = false`; the environment builds without external
/// benchmarking frameworks): runs `op` in a warm-up pass and three timed
/// passes, printing the best ns/op and derived M ops/s.
pub fn microbench<F: FnMut()>(name: &str, iters: u64, op: F) {
    let best = microbench_ns(name, iters, op);
    let _ = best;
}

/// [`microbench`] returning the best ns/op (so callers can also emit the
/// measurement machine-readably, e.g. as JSON for the perf trajectory).
pub fn microbench_ns<F: FnMut()>(name: &str, iters: u64, mut op: F) -> f64 {
    let warmup = (iters / 10).max(1);
    for _ in 0..warmup {
        op();
    }
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = std::time::Instant::now();
        for _ in 0..iters {
            op();
        }
        let ns = t.elapsed().as_nanos() as f64 / iters as f64;
        if ns < best {
            best = ns;
        }
    }
    println!(
        "{name:<40} {best:>10.1} ns/op   {:>8.2} M ops/s",
        1e3 / best
    );
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlht_workloads::{Tier, WorkloadSpec};

    #[test]
    fn sweep_and_table_shapes_match() {
        let scale = BenchScale {
            keys: 2_000,
            threads: vec![1, 2],
            secs: 0.03,
            shards: 2,
            seed: 1,
            tier: Tier::Smoke,
        };
        let meta = find("fig03_get_throughput").unwrap();
        let ctx = ScenarioCtx::for_test(meta, scale.clone());
        let kinds = [MapKind::Dlht, MapKind::Clht];
        let points = ctx.sweep(&kinds, |threads| {
            WorkloadSpec::get_default(2_000, threads, std::time::Duration::from_millis(30))
        });
        assert_eq!(points.len(), 4);
        let table = throughput_table("test", &points, &scale);
        assert_eq!(table.len(), 2, "one row per thread count");
        let rendered = table.render();
        assert!(rendered.contains("DLHT"));
        assert!(rendered.contains("CLHT"));
    }

    #[test]
    fn timed_mops_reports_positive_throughput() {
        let mut acc = 0u64;
        let mops = timed_mops(10_000, 1_000, |i| acc = acc.wrapping_add(i));
        std::hint::black_box(acc);
        assert!(mops > 0.0);
    }
}
