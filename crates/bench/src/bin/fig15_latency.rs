//! Figure 15: average and 99th-percentile latency of Gets and InsDel as the
//! offered load (thread count) increases.

use dlht_baselines::MapKind;
use dlht_bench::{build_prepopulated, run_scenario};
use dlht_workloads::{Table, WorkloadSpec};

fn main() {
    run_scenario("fig15_latency", |ctx| {
        let scale = ctx.scale.clone();
        let map = build_prepopulated(MapKind::Dlht, &scale);
        let mut table = Table::new(
            "Fig. 15 — latency vs load",
            &["threads", "workload", "Mreq/s", "avg (ns)", "p99 (ns)"],
        );
        for &threads in &scale.threads {
            for (name, spec) in [
                (
                    "Get",
                    WorkloadSpec::get_default(scale.keys, threads, scale.duration())
                        .with_latency_recording(),
                ),
                (
                    "InsDel",
                    WorkloadSpec::insdel_default(scale.keys, threads, scale.duration())
                        .with_latency_recording(),
                ),
            ] {
                let r = ctx.measure(map.as_ref(), &spec);
                ctx.point(name)
                    .axis("threads", threads)
                    .result(&r)
                    .stats(&map.stats())
                    .retired(map.retired_indexes())
                    .emit();
                table.row(&[
                    threads.to_string(),
                    name.to_string(),
                    dlht_workloads::fmt_mops(r.mops),
                    format!("{:.0}", r.latency.mean_ns()),
                    r.latency.snapshot().percentile_ns(99.0).to_string(),
                ]);
            }
        }
        ctx.table(&table);
    });
}
