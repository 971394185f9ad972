//! Table 1: the feature matrix (collision handling, non-blocking operations,
//! memory-access awareness) plus the occupancy-until-resize study of §5.1.5.

use dlht_baselines::{KvBackend, MapKind};
use dlht_bench::run_scenario;
use dlht_core::{DlhtConfig, DlhtMap};
use dlht_hash::HashKind;
use dlht_workloads::Table;

/// Measure DLHT's occupancy when an insert-only population first triggers a
/// resize (wyhash, link buckets limited to one-fifth of the bins as in
/// §5.1.5).
fn dlht_occupancy_until_resize(bins: usize) -> f64 {
    let map = DlhtMap::with_config(
        DlhtConfig::new(bins)
            .with_hash(HashKind::WyHash)
            .with_link_ratio(5),
    );
    let mut k = 0u64;
    loop {
        let _ = map.insert(k, k);
        k += 1;
        if map.resizes() > 0 {
            break;
        }
    }
    // Occupancy right before the grow: keys inserted over the slots of the
    // original index.
    let original_slots = bins * 3 + (bins / 5) * 4;
    (k as usize - 1) as f64 / original_slots as f64
}

/// Measure the CLHT-like baseline's occupancy when it first resizes.
fn clht_occupancy_until_resize(capacity: usize) -> f64 {
    let map = dlht_baselines::ClhtMap::with_capacity(capacity);
    let mut k = 0u64;
    loop {
        let _ = map.insert(k, k);
        k += 1;
        if map.resizes() > 0 {
            break;
        }
    }
    (k as usize - 1) as f64 / capacity as f64
}

fn main() {
    run_scenario("table1_features", |ctx| {
        let scale = ctx.scale.clone();
        let mut table = Table::new(
            "Table 1 — feature matrix",
            &[
                "map",
                "collision handling",
                "lock-free gets",
                "puts",
                "inserts",
                "deletes free slots",
                "resizable",
                "non-blocking resize",
                "prefetching",
                "inlined values",
            ],
        );
        let yes_no = |b: bool| if b { "yes" } else { "no" }.to_string();
        for kind in MapKind::all() {
            let f = kind.build(64).features();
            ctx.point(kind.name())
                .axis("table", "features")
                .extra("collision_handling", f.collision_handling)
                .extra("lock_free_gets", f.lock_free_gets)
                .extra("non_blocking_puts", f.non_blocking_puts)
                .extra("non_blocking_inserts", f.non_blocking_inserts)
                .extra("deletes_free_slots", f.deletes_free_slots)
                .extra("resizable", f.resizable)
                .extra("non_blocking_resize", f.non_blocking_resize)
                .extra("prefetching", f.overlaps_memory_accesses)
                .extra("inline_values", f.inline_values)
                .emit();
            table.row(&[
                kind.name().to_string(),
                f.collision_handling.to_string(),
                yes_no(f.lock_free_gets),
                yes_no(f.non_blocking_puts),
                yes_no(f.non_blocking_inserts),
                yes_no(f.deletes_free_slots),
                yes_no(f.resizable),
                yes_no(f.non_blocking_resize),
                yes_no(f.overlaps_memory_accesses),
                yes_no(f.inline_values),
            ]);
        }
        ctx.table(&table);

        let bins = (scale.keys as usize / 2).max(4_096);
        let dlht_occ = dlht_occupancy_until_resize(bins);
        let clht_occ = clht_occupancy_until_resize(bins * 3);
        let mut occ = Table::new(
            "§5.1.5 — occupancy until resize (wyhash)",
            &["map", "occupancy at first resize", "paper"],
        );
        for (series, occupancy, paper) in [
            ("DLHT (links = bins/5)", dlht_occ, "61-72%"),
            ("CLHT (no chaining)", clht_occ, "1-5%"),
        ] {
            ctx.point(series)
                .axis("table", "occupancy_until_resize")
                .extra("occupancy", occupancy)
                .extra("paper_range", paper)
                .emit();
            occ.row(&[
                series.to_string(),
                format!("{:.0}%", occupancy * 100.0),
                paper.to_string(),
            ]);
        }
        occ.row(&[
            "open-addressing rebuild threshold (GrowT codebase)".to_string(),
            "30%".to_string(),
            "30-50%".to_string(),
        ]);
        ctx.table(&occ);
    });
}
