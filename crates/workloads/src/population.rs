//! Growing-index experiments: population throughput (Fig. 7) and the
//! resize-timeline experiment showing Gets continuing during a non-blocking
//! resize (Fig. 8).

use dlht_core::{DlhtConfig, DlhtMap, KvBackend, ShardedTable};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Result of a population run (Fig. 7).
#[derive(Debug, Clone)]
pub struct PopulationResult {
    /// Keys inserted.
    pub keys: u64,
    /// Wall-clock time for the whole population.
    pub elapsed: Duration,
    /// Million inserts per second.
    pub mops: f64,
}

/// Insert `keys` fresh keys into `map` from `threads` threads, starting from a
/// deliberately small index so the map must grow repeatedly (Fig. 7: "Avg.
/// Population throughput: Inserting 800M keys over a growing index").
pub fn populate_growing(map: &dyn KvBackend, keys: u64, threads: usize) -> PopulationResult {
    let threads = threads.max(1) as u64;
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let mut k = t;
                while k < keys {
                    let _ = map.insert(k, k);
                    k += threads;
                }
            });
        }
    });
    let elapsed = start.elapsed();
    PopulationResult {
        keys,
        elapsed,
        mops: keys as f64 / elapsed.as_secs_f64() / 1e6,
    }
}

/// One sample of the resize-timeline experiment (Fig. 8).
#[derive(Debug, Clone)]
pub struct TimelineSample {
    /// Milliseconds since the experiment started.
    pub at_ms: u64,
    /// Get throughput over the sampling window (M req/s).
    pub get_mops: f64,
    /// Insert throughput over the sampling window (M req/s).
    pub insert_mops: f64,
    /// Index generation observed at the end of the window (counts resizes).
    pub generation: u32,
}

/// Reproduce Fig. 8: `get_threads` threads issue Gets on a prepopulated key
/// range while `insert_threads` threads keep inserting fresh keys, forcing the
/// index to grow; throughput is sampled every `sample_every`.
pub fn resize_timeline(
    prepopulated: u64,
    extra_inserts: u64,
    get_threads: usize,
    insert_threads: usize,
    sample_every: Duration,
    num_bins: usize,
) -> Vec<TimelineSample> {
    let map = DlhtMap::with_config(
        DlhtConfig::new(num_bins)
            .with_hash(dlht_hash::HashKind::WyHash)
            .with_chunk_bins(1024),
    );
    for k in 0..prepopulated {
        let _ = map.insert(k, k).unwrap();
    }
    timeline_inner(
        &map,
        prepopulated,
        extra_inserts,
        get_threads,
        insert_threads,
        sample_every,
        &|| map.current_generation(),
    )
}

/// A sharded resize timeline: the throughput samples plus the per-shard
/// resize counts at the end of the run, which make the shard-local resizes
/// visible (generations diverge; siblings of a hot shard stay put).
#[derive(Debug, Clone)]
pub struct ShardedTimeline {
    /// Throughput samples; `generation` reports the **highest** shard
    /// generation in each window.
    pub samples: Vec<TimelineSample>,
    /// Resizes per shard, in routing order, at the end of the run.
    pub shard_resizes: Vec<u64>,
}

/// [`resize_timeline`] over a [`ShardedTable`] of `shards` shards: Gets keep
/// completing while each shard grows **independently** under the insert
/// pressure that actually reaches it.
pub fn resize_timeline_sharded(
    prepopulated: u64,
    extra_inserts: u64,
    get_threads: usize,
    insert_threads: usize,
    sample_every: Duration,
    num_bins: usize,
    shards: usize,
) -> ShardedTimeline {
    let table = ShardedTable::with_config(
        shards,
        DlhtConfig::new(num_bins)
            .with_hash(dlht_hash::HashKind::WyHash)
            .with_chunk_bins(1024),
    );
    for k in 0..prepopulated {
        let _ = table.insert(k, k).unwrap();
    }
    let samples = timeline_inner(
        &table,
        prepopulated,
        extra_inserts,
        get_threads,
        insert_threads,
        sample_every,
        &|| {
            table
                .shards()
                .map(|s| s.current_generation())
                .max()
                .unwrap_or(0)
        },
    );
    ShardedTimeline {
        samples,
        shard_resizes: table.shards().map(|s| s.resizes()).collect(),
    }
}

/// Shared timeline driver: Gets on the prepopulated range racing fresh
/// inserts, with a sampler thread recording windowed throughput and the
/// map-specific `generation` observation.
fn timeline_inner<M: KvBackend + ?Sized>(
    map: &M,
    prepopulated: u64,
    extra_inserts: u64,
    get_threads: usize,
    insert_threads: usize,
    sample_every: Duration,
    generation: &(dyn Fn() -> u32 + Sync),
) -> Vec<TimelineSample> {
    let gets = AtomicU64::new(0);
    let inserts = AtomicU64::new(0);
    let inserters_done = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let mut samples = Vec::new();

    std::thread::scope(|s| {
        for t in 0..get_threads.max(1) {
            let map = &map;
            let gets = &gets;
            let stop = &stop;
            s.spawn(move || {
                let mut rng = crate::rng::Xoshiro256::new(100 + t as u64);
                let mut local = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let k = rng.next_below(prepopulated);
                    std::hint::black_box(map.get(k));
                    local += 1;
                    if local.is_multiple_of(256) {
                        gets.fetch_add(256, Ordering::Relaxed);
                    }
                }
                gets.fetch_add(local % 256, Ordering::Relaxed);
            });
        }
        let num_inserters = insert_threads.max(1);
        for t in 0..num_inserters {
            let map = &map;
            let inserts = &inserts;
            let inserters_done = &inserters_done;
            let stop = &stop;
            let per_thread = extra_inserts / num_inserters as u64;
            s.spawn(move || {
                let base = prepopulated + 1 + t as u64 * (1 << 40);
                for i in 0..per_thread {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let _ = map.insert(base + i, i);
                    if i.is_multiple_of(256) {
                        inserts.fetch_add(256, Ordering::Relaxed);
                    }
                }
                inserters_done.fetch_add(1, Ordering::Relaxed);
            });
        }

        // Sampler: record windows until the inserters are done (or a cap).
        let started = Instant::now();
        let mut last_gets = 0u64;
        let mut last_inserts = 0u64;
        loop {
            std::thread::sleep(sample_every);
            let g = gets.load(Ordering::Relaxed);
            let i = inserts.load(Ordering::Relaxed);
            let window = sample_every.as_secs_f64();
            samples.push(TimelineSample {
                at_ms: started.elapsed().as_millis() as u64,
                get_mops: (g - last_gets) as f64 / window / 1e6,
                insert_mops: (i - last_inserts) as f64 / window / 1e6,
                generation: generation(),
            });
            last_gets = g;
            last_inserts = i;
            if inserters_done.load(Ordering::Relaxed) >= num_inserters as u64
                || started.elapsed() > Duration::from_secs(30)
            {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlht_baselines::MapKind;

    #[test]
    fn population_grows_and_counts() {
        for kind in MapKind::resizable() {
            // Small initial capacity forces growth for every resizable design.
            let map = kind.build(128);
            let r = populate_growing(map.as_ref(), 20_000, 2);
            assert_eq!(map.len(), 20_000, "{}", kind.name());
            assert!(r.mops > 0.0);
            assert_eq!(r.keys, 20_000);
        }
    }

    #[test]
    fn sharded_timeline_grows_shards_independently() {
        let t = resize_timeline_sharded(
            2_000,
            30_000,
            1,
            1,
            Duration::from_millis(20),
            64, // tiny combined index => guaranteed per-shard resizes
            4,
        );
        assert!(!t.samples.is_empty());
        assert_eq!(t.shard_resizes.len(), 4);
        assert!(
            t.shard_resizes.iter().any(|&r| r > 0),
            "at least one shard must have resized"
        );
        // Gets keep completing while shards grow on their own.
        assert!(t.samples.iter().any(|s| s.get_mops > 0.0));
        assert!(t.samples.last().unwrap().generation > 0);
    }

    #[test]
    fn timeline_records_samples_and_growth() {
        let samples = resize_timeline(
            2_000,
            30_000,
            1,
            1,
            Duration::from_millis(20),
            64, // tiny index => guaranteed resizes
        );
        assert!(!samples.is_empty());
        let last = samples.last().unwrap();
        assert!(
            last.generation > 0,
            "the index must have grown during the timeline"
        );
        // Gets keep completing in every window (non-blocking resize).
        assert!(samples.iter().all(|s| s.get_mops >= 0.0));
        assert!(samples.iter().any(|s| s.get_mops > 0.0));
    }
}
