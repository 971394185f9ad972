//! Micro-benchmark: batched (prefetching) vs pipelined vs one-at-a-time Gets
//! — a laptop-scale proxy for Fig. 12, driven through the unified submission
//! API: a reusable [`Batch`] per window, a bounded [`Pipeline`] sweep over
//! depth 1..=64, and the single-request path as the baseline.
//!
//! Besides the human-readable table, every measurement is emitted as one JSON
//! line (`{"bench":"batch_vs_single",...}`) so the perf trajectory can be
//! tracked across commits:
//!
//! Run with: `cargo bench -p dlht-bench --bench batch_vs_single`

use dlht_bench::microbench_ns;
use dlht_core::{Batch, BatchPolicy, DlhtMap, Request};
use dlht_workloads::Xoshiro256;
use std::hint::black_box;

fn emit_json(mode: &str, width: usize, ns_per_op: f64) {
    println!(
        "{{\"bench\":\"batch_vs_single\",\"mode\":\"{mode}\",\"width\":{width},\"ns_per_op\":{ns_per_op:.2},\"mops\":{:.2}}}",
        1e3 / ns_per_op
    );
}

fn main() {
    let keys: u64 = 200_000;
    let map = DlhtMap::with_capacity(keys as usize * 2);
    for k in 0..keys {
        let _ = map.insert(k, k).unwrap();
    }
    const WIDTHS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

    // Batched execution through one session and one reused Batch (zero
    // steady-state allocs).
    for &width in &WIDTHS {
        let mut rng = Xoshiro256::new(1);
        let session = map.session();
        let mut batch = Batch::with_capacity(width);
        let ns = microbench_ns(
            &format!("batched_get/{width} (per batch)"),
            2_000_000 / width as u64,
            || {
                batch.clear();
                for _ in 0..width {
                    batch.push_get(rng.next_below(keys));
                }
                session.execute(&mut batch, BatchPolicy::RunAll);
                black_box(batch.responses());
            },
        );
        emit_json("batch", width, ns / width as f64);
    }

    // Pipelined submission: prefetch at submit, execution deferred a full
    // window, order-preserving completion. One pipeline per depth, reused
    // across all timed passes (its scratch structures stay warm).
    for &depth in &WIDTHS {
        let mut rng = Xoshiro256::new(1);
        let session = map.session();
        let mut pipe = session.pipeline(depth);
        let ns = microbench_ns(
            &format!("pipelined_get/{depth} (per {depth} submits)"),
            2_000_000 / depth as u64,
            || {
                for _ in 0..depth {
                    black_box(pipe.submit(Request::Get(rng.next_below(keys))));
                }
            },
        );
        emit_json("pipeline", depth, ns / depth as f64);
    }

    // Single-request baseline at matching widths.
    for &width in &WIDTHS {
        let mut rng = Xoshiro256::new(1);
        let ns = microbench_ns(
            &format!("single_get/{width} (per {width} gets)"),
            2_000_000 / width as u64,
            || {
                for _ in 0..width {
                    black_box(map.get(rng.next_below(keys)));
                }
            },
        );
        emit_json("single", width, ns / width as f64);
    }
}
