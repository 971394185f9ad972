//! Figure 16: single-threaded application with and without the
//! synchronization-free optimizations (§3.4.5): InsDel, InsDel-Resize,
//! InsDel-Resize-NoBatch, and Get. Each row runs for the scale's duration
//! (`DLHT_SECS`), after a warm-up window, whatever the key count.

use dlht_bench::run_scenario;
use dlht_core::{Batch, BatchPolicy, DlhtConfig, DlhtMap, SingleThreadMap};
use dlht_workloads::{fmt_mops, Table, Xoshiro256};
use std::time::{Duration, Instant};

const BATCH: usize = 16;

/// Steps between two reads of the clock; a step is [`BATCH`] operations.
const STEPS_PER_CHECK: u64 = 64;

/// Run `step`, which performs [`BATCH`] operations, until `window` has
/// passed; returns the throughput in M ops/s.
fn timed(window: Duration, mut step: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut ops = 0;
    loop {
        for _ in 0..STEPS_PER_CHECK {
            step();
        }
        ops += STEPS_PER_CHECK * BATCH as u64;
        let elapsed = t.elapsed();
        if elapsed >= window {
            return ops as f64 / elapsed.as_secs_f64() / 1e6;
        }
    }
}

/// Fill `batch` with one step of `workload`: random Gets, or fresh keys
/// inserted then deleted (InsDel leaves the population unchanged).
fn fill(batch: &mut Batch, workload: &str, keys: u64, next: &mut u64, rng: &mut Xoshiro256) {
    batch.clear();
    if workload == "Get" {
        for _ in 0..BATCH {
            batch.push_get(rng.next_below(keys));
        }
    } else {
        for _ in 0..BATCH / 2 {
            batch.push_insert(*next, *next);
            batch.push_delete(*next);
            *next += 1;
        }
    }
}

fn run_concurrent_map(
    map: &DlhtMap,
    keys: u64,
    window: Duration,
    workload: &str,
    batched: bool,
    rng: &mut Xoshiro256,
) -> f64 {
    let session = map.session();
    let mut batch = Batch::with_capacity(BATCH);
    let mut next = keys + 1;
    timed(window, || {
        if batched {
            fill(&mut batch, workload, keys, &mut next, rng);
            session.execute(&mut batch, BatchPolicy::RunAll);
            std::hint::black_box(batch.responses());
        } else if workload == "Get" {
            for _ in 0..BATCH {
                std::hint::black_box(map.get(rng.next_below(keys)));
            }
        } else {
            for _ in 0..BATCH / 2 {
                let _ = map.insert(next, next).unwrap();
                map.delete(next);
                next += 1;
            }
        }
    })
}

fn run_single_thread_map(
    map: &mut SingleThreadMap,
    keys: u64,
    window: Duration,
    workload: &str,
    batched: bool,
    rng: &mut Xoshiro256,
) -> f64 {
    let mut batch = Batch::with_capacity(BATCH);
    let mut next = keys + 1;
    timed(window, || {
        if batched {
            fill(&mut batch, workload, keys, &mut next, rng);
            map.execute(&mut batch, BatchPolicy::RunAll);
            std::hint::black_box(batch.responses());
        } else if workload == "Get" {
            for _ in 0..BATCH {
                std::hint::black_box(map.get(rng.next_below(keys)));
            }
        } else {
            for _ in 0..BATCH / 2 {
                let _ = map.insert(next, next).unwrap();
                map.delete(next);
                next += 1;
            }
        }
    })
}

fn main() {
    run_scenario("fig16_single_thread", |ctx| {
        let scale = ctx.scale.clone();
        let keys = scale.keys;
        let (warmup, window) = (scale.warmup(), scale.duration());
        let mut table = Table::new(
            "Fig. 16 — single-thread throughput (M req/s)",
            &[
                "workload",
                "thread-safe DLHT",
                "single-thread optimized",
                "speedup",
            ],
        );
        for (workload, resizing, batched) in [
            ("InsDel", false, true),
            ("InsDel-Resize", true, true),
            ("InsDel-Resize-NoBatch", true, false),
            ("Get", false, true),
        ] {
            let cfg = DlhtConfig::for_capacity(keys as usize * 2).with_resizing(resizing);
            let concurrent = DlhtMap::with_config(cfg.clone());
            let mut single = SingleThreadMap::with_config(cfg);
            for k in 0..keys {
                let _ = concurrent.insert(k, k).unwrap();
                let _ = single.insert(k, k).unwrap();
            }
            let mut rng = scale.stream("fig16");
            // Warm-up window (discarded), then the measured window.
            let _ = run_concurrent_map(&concurrent, keys, warmup, workload, batched, &mut rng);
            let base = run_concurrent_map(&concurrent, keys, window, workload, batched, &mut rng);
            let _ = run_single_thread_map(&mut single, keys, warmup, workload, batched, &mut rng);
            let opt = run_single_thread_map(&mut single, keys, window, workload, batched, &mut rng);
            let speedup_pct = (opt / base - 1.0) * 100.0;
            for (series, mops) in [("thread-safe", base), ("single-thread", opt)] {
                ctx.point(series)
                    .axis("workload", workload)
                    .mops(mops)
                    .extra("speedup_pct", speedup_pct)
                    .emit();
            }
            table.row(&[
                workload.to_string(),
                fmt_mops(base),
                fmt_mops(opt),
                format!("{speedup_pct:+.0}%"),
            ]);
        }
        ctx.table(&table);
    });
}
