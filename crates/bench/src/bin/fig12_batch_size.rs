//! Figure 12: varying the batch size (1..128) for Get, InsDel, and
//! Get-Resizing (resizing compiled in but not exercised), plus the
//! pipelined submission interface (depth = batch size) for comparison.

use dlht_bench::run_scenario;
use dlht_core::{DlhtConfig, DlhtMap};
use dlht_workloads::{fmt_mops, prepopulate, Table, WorkloadSpec};

fn main() {
    run_scenario("fig12_batch_size", |ctx| {
        let scale = ctx.scale.clone();
        let threads = *scale.threads.iter().max().unwrap_or(&1);
        let duration = scale.duration();
        let keys = scale.keys;

        // Get / Get-Resizing / InsDel maps: resizing disabled vs enabled.
        let no_resize =
            DlhtMap::with_config(DlhtConfig::for_capacity(keys as usize * 2).with_resizing(false));
        let with_resize =
            DlhtMap::with_config(DlhtConfig::for_capacity(keys as usize * 2).with_resizing(true));
        prepopulate(&no_resize, keys);
        prepopulate(&with_resize, keys);

        let mut table = Table::new(
            "Fig. 12 — throughput vs batch size (M req/s)",
            &["batch", "Get", "Get-Pipelined", "Get-Resizing", "InsDel"],
        );
        for &batch in &[1usize, 2, 4, 8, 16, 24, 32, 64, 128] {
            let get = ctx.measure(
                &no_resize,
                &WorkloadSpec::get_default(keys, threads, duration).with_batch_size(batch),
            );
            let get_pipelined = ctx.measure(
                &no_resize,
                &WorkloadSpec::get_default(keys, threads, duration)
                    .with_batch_size(batch)
                    .with_pipeline(batch),
            );
            let get_resizing = ctx.measure(
                &with_resize,
                &WorkloadSpec::get_default(keys, threads, duration).with_batch_size(batch),
            );
            let insdel = ctx.measure(
                &no_resize,
                &WorkloadSpec::insdel_default(keys, threads, duration).with_batch_size(batch),
            );
            for (series, r) in [
                ("Get", &get),
                ("Get-Pipelined", &get_pipelined),
                ("Get-Resizing", &get_resizing),
                ("InsDel", &insdel),
            ] {
                ctx.point(series)
                    .axis("batch", batch)
                    .axis("threads", threads)
                    .result(r)
                    .emit();
            }
            table.row(&[
                batch.to_string(),
                fmt_mops(get.mops),
                fmt_mops(get_pipelined.mops),
                fmt_mops(get_resizing.mops),
                fmt_mops(insdel.mops),
            ]);
        }
        ctx.table(&table);
    });
}
