//! Figure 14: throughput cost of enabling features (resizing checks, wyhash,
//! variable value/key sizes, namespaces, switching off the pooled allocator),
//! stacked and one-at-a-time, for the Get and InsDel workloads.

use dlht_bench::{run_scenario, timed_mops, ScenarioCtx};
use dlht_core::{DlhtAllocMap, DlhtConfig, DlhtMap};
use dlht_hash::HashKind;
use dlht_workloads::{fmt_mops, prepopulate, Table, WorkloadSpec};

/// Measure Get and InsDel throughput of an Inlined-mode configuration.
fn measure_inlined(ctx: &ScenarioCtx, config: DlhtConfig) -> (f64, f64) {
    let scale = &ctx.scale;
    let threads = *scale.threads.iter().max().unwrap_or(&1);
    let map = DlhtMap::with_config(config);
    prepopulate(&map, scale.keys);
    let get = ctx.measure(
        &map,
        &WorkloadSpec::get_default(scale.keys, threads, scale.duration()),
    );
    let insdel = ctx.measure(
        &map,
        &WorkloadSpec::insdel_default(scale.keys, threads, scale.duration()),
    );
    (get.mops, insdel.mops)
}

/// Measure Get and InsDel throughput of an Allocator-mode configuration with
/// 32-byte values (the figure's default value size).
fn measure_alloc(
    ctx: &ScenarioCtx,
    config: DlhtConfig,
    allocator: dlht_core::alloc::AllocatorKind,
) -> (f64, f64) {
    let scale = &ctx.scale;
    let keys = scale.keys.min(100_000);
    let map = DlhtAllocMap::new(config, allocator.build(), 8, 32);
    let mut session = map.session();
    let value = [5u8; 32];
    for k in 0..keys {
        session.insert(0, &k.to_le_bytes(), &value).unwrap();
    }
    let ops = (keys * 2).max(20_000);
    let mut rng = scale.stream("fig14/alloc");
    let get = timed_mops(ops, ops / 10, |_| {
        let k = rng.next_below(keys).to_le_bytes();
        std::hint::black_box(session.get_with(0, &k, |_| ()));
    });
    let insdel = 2.0
        * timed_mops(ops / 4, ops / 40, |i| {
            let k = (keys + 1 + i).to_le_bytes();
            session.insert(0, &k, &value).unwrap();
            session.delete(0, &k);
            if i % 64 == 0 {
                session.quiesce();
            }
        });
    (get, insdel)
}

fn main() {
    run_scenario("fig14_features", |ctx| {
        let mut table = Table::new(
            "Fig. 14 — throughput with features enabled (M req/s)",
            &["configuration", "Get", "InsDel"],
        );
        let base_bins = DlhtConfig::for_capacity(ctx.scale.keys as usize * 2).num_bins;

        // Inlined-mode bars: default, +resizing, +wyhash (stacked).
        let default_cfg = DlhtConfig::new(base_bins).with_resizing(false);
        let resizing = default_cfg.clone().with_resizing(true);
        let hashed = resizing.clone().with_hash(HashKind::WyHash);
        let inlined: [(&str, DlhtConfig); 3] = [
            ("default (no features)", default_cfg),
            ("+ resizing checks", resizing),
            ("+ wyhash", hashed),
        ];
        let mut rows: Vec<(String, f64, f64)> = Vec::new();
        for (label, cfg) in inlined {
            let (g, i) = measure_inlined(ctx, cfg);
            rows.push((label.to_string(), g, i));
        }

        // Allocator-mode bars (32-byte values): variable sizes, namespaces,
        // malloc.
        let alloc_base = DlhtConfig::new(base_bins).with_hash(HashKind::WyHash);
        let var = alloc_base.clone().with_variable_size(true);
        let ns = var.clone().with_namespaces(true);
        let alloc: [(&str, DlhtConfig, dlht_core::alloc::AllocatorKind); 4] = [
            (
                "allocator mode (fixed sizes, pool)",
                alloc_base,
                dlht_core::alloc::AllocatorKind::Pool,
            ),
            (
                "+ variable key/value sizes",
                var,
                dlht_core::alloc::AllocatorKind::Pool,
            ),
            (
                "+ namespaces",
                ns.clone(),
                dlht_core::alloc::AllocatorKind::Pool,
            ),
            (
                "+ no mimalloc (system malloc)",
                ns,
                dlht_core::alloc::AllocatorKind::System,
            ),
        ];
        for (label, cfg, kind) in alloc {
            let (g, i) = measure_alloc(ctx, cfg, kind);
            rows.push((label.to_string(), g, i));
        }

        for (label, get, insdel) in &rows {
            for (workload, mops) in [("Get", *get), ("InsDel", *insdel)] {
                ctx.point(label.as_str())
                    .axis("workload", workload)
                    .mops(mops)
                    .emit();
            }
            table.row(&[label.clone(), fmt_mops(*get), fmt_mops(*insdel)]);
        }
        ctx.table(&table);
    });
}
