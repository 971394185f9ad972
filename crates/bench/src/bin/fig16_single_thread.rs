//! Figure 16: single-threaded application with and without the
//! synchronization-free optimizations (§3.4.5): InsDel, InsDel-Resize,
//! InsDel-Resize-NoBatch, and Get.

use dlht_bench::run_scenario;
use dlht_core::{Batch, BatchPolicy, DlhtConfig, DlhtMap, SingleThreadMap};
use dlht_workloads::{fmt_mops, Table, Xoshiro256};
use std::time::Instant;

const BATCH: usize = 16;

fn run_concurrent_map(
    map: &DlhtMap,
    keys: u64,
    ops: u64,
    workload: &str,
    batched: bool,
    rng: &mut Xoshiro256,
) -> f64 {
    let session = map.session();
    let mut batch = Batch::with_capacity(BATCH);
    let t = Instant::now();
    match workload {
        "Get" => {
            if batched {
                let mut done = 0;
                while done < ops {
                    batch.clear();
                    for _ in 0..BATCH {
                        batch.push_get(rng.next_below(keys));
                    }
                    session.execute(&mut batch, BatchPolicy::RunAll);
                    std::hint::black_box(batch.responses());
                    done += BATCH as u64;
                }
            } else {
                for _ in 0..ops {
                    std::hint::black_box(map.get(rng.next_below(keys)));
                }
            }
        }
        _ => {
            // InsDel: insert a fresh key then delete it, optionally batched.
            if batched {
                let mut next = keys + 1;
                let mut done = 0;
                while done < ops {
                    batch.clear();
                    for _ in 0..BATCH / 2 {
                        batch.push_insert(next, next);
                        batch.push_delete(next);
                        next += 1;
                    }
                    session.execute(&mut batch, BatchPolicy::RunAll);
                    std::hint::black_box(batch.responses());
                    done += BATCH as u64;
                }
            } else {
                for next in keys + 1..keys + 1 + ops / 2 {
                    let _ = map.insert(next, next).unwrap();
                    map.delete(next);
                }
            }
        }
    }
    ops as f64 / t.elapsed().as_secs_f64() / 1e6
}

fn run_single_thread_map(
    map: &mut SingleThreadMap,
    keys: u64,
    ops: u64,
    workload: &str,
    batched: bool,
    rng: &mut Xoshiro256,
) -> f64 {
    let mut batch = Batch::with_capacity(BATCH);
    let t = Instant::now();
    match workload {
        "Get" => {
            if batched {
                let mut done = 0;
                while done < ops {
                    batch.clear();
                    for _ in 0..BATCH {
                        batch.push_get(rng.next_below(keys));
                    }
                    map.execute(&mut batch, BatchPolicy::RunAll);
                    std::hint::black_box(batch.responses());
                    done += BATCH as u64;
                }
            } else {
                for _ in 0..ops {
                    std::hint::black_box(map.get(rng.next_below(keys)));
                }
            }
        }
        _ => {
            if batched {
                let mut next = keys + 1;
                let mut done = 0;
                while done < ops {
                    batch.clear();
                    for _ in 0..BATCH / 2 {
                        batch.push_insert(next, next);
                        batch.push_delete(next);
                        next += 1;
                    }
                    map.execute(&mut batch, BatchPolicy::RunAll);
                    std::hint::black_box(batch.responses());
                    done += BATCH as u64;
                }
            } else {
                for next in keys + 1..keys + 1 + ops / 2 {
                    let _ = map.insert(next, next).unwrap();
                    map.delete(next);
                }
            }
        }
    }
    ops as f64 / t.elapsed().as_secs_f64() / 1e6
}

fn main() {
    run_scenario("fig16_single_thread", |ctx| {
        let scale = ctx.scale.clone();
        let keys = scale.keys;
        let ops = (keys * 4).max(100_000);
        let warmup_ops = (ops / 10).max(BATCH as u64);
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
            // Warm-up pass (discarded), then the measured pass. InsDel leaves
            // the population unchanged, so the key space is reusable.
            let _ = run_concurrent_map(&concurrent, keys, warmup_ops, workload, batched, &mut rng);
            let base = run_concurrent_map(&concurrent, keys, ops, workload, batched, &mut rng);
            let _ =
                run_single_thread_map(&mut single, keys, warmup_ops, workload, batched, &mut rng);
            let opt = run_single_thread_map(&mut single, keys, ops, workload, batched, &mut rng);
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
