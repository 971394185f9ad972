//! `cache-evict`: an in-process LRU `CacheMap` whose memory budget is a
//! quarter of the working set. Two pinned threads run a cache-aside loop
//! (get, and set on a miss) over zipfian (θ = 0.99) byte keys.

use crate::ledger;
use crate::measure::{
    key_of, median, mix, on_threads, run_threads, stream_seed, Check, Lat, RoundClock,
};
use crate::sys::{Machine, Pinning};
use crate::trace::{Tracer, NO_PARENT};
use crate::{Opts, Report};
use dlht_core::{CacheConfig, CacheMap, CacheSession, EvictionPolicy, StoreOutcome};
use dlht_workloads::{cache_key_bytes, KeySampler, Xoshiro256};
use std::time::Instant;

const THREADS: usize = 2;
const THETA: f64 = 0.99;
/// Cache-aside callers announce a quiescent point this often.
const QUIESCE_EVERY: usize = 256;

/// Value length of key id `id`: 64..=1024 bytes.
fn value_len(id: u64) -> usize {
    64 + (mix(id ^ 0x7A1E_0000) % 961) as usize
}

/// Order-dependent checksum over the value body.
fn checksum(bytes: &[u8]) -> u64 {
    let mut acc = 0xCB_F29C_E484_2222u64 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        acc = (acc.rotate_left(23) ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    for &b in chunks.remainder() {
        acc = (acc.rotate_left(7) ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    acc
}

/// The value stored under key id `id`: `[id][body][checksum]`, where the
/// body is derived from the id and the checksum covers id and body.
pub fn fill_value(buf: &mut Vec<u8>, id: u64) {
    let len = value_len(id);
    buf.clear();
    buf.extend_from_slice(&id.to_le_bytes());
    let mut s = id;
    while buf.len() < len - 8 {
        let w = dlht_util::splitmix64(&mut s).to_le_bytes();
        let take = (len - 8 - buf.len()).min(8);
        buf.extend_from_slice(&w[..take]);
    }
    let sum = checksum(buf);
    buf.extend_from_slice(&sum.to_le_bytes());
}

/// Whether `bytes` is a well-formed value for key id `id`.
pub fn value_ok(id: u64, bytes: &[u8]) -> bool {
    if bytes.len() != value_len(id) {
        return false;
    }
    let (body, sum) = bytes.split_at(bytes.len() - 8);
    body[..8] == id.to_le_bytes() && sum == checksum(body).to_le_bytes()
}

/// Record bytes a key id costs when resident (value, key, entry header).
fn record_bytes(id: u64) -> u64 {
    let mut kb = [0u8; 24];
    (value_len(id) + cache_key_bytes(&mut kb, id).len() + 32) as u64
}

/// Figures from one cache-aside pass.
#[derive(Default)]
struct PassOut {
    gets: u64,
    hits: u64,
    sets: u64,
    get_lat: Lat,
    set_lat: Lat,
}

/// Run the cache-aside loop over `ids` on `session`.
fn cache_aside(
    session: &mut CacheSession<'_>,
    ids: &[u64],
    check: &mut Check,
    tracer: &mut Tracer,
) -> PassOut {
    let mut out = PassOut::default();
    let mut kb = [0u8; 24];
    let mut got = Vec::with_capacity(1024);
    let mut fresh = Vec::with_capacity(1024);
    for (i, &id) in ids.iter().enumerate() {
        let key = cache_key_bytes(&mut kb, id);
        let req = i as u64;
        let root = tracer.begin("request", NO_PARENT, req);
        let g = tracer.begin("core.cache.get", root, req);
        let c0 = Instant::now();
        let hit = session
            .get_with(key, |view| {
                got.clear();
                got.extend_from_slice(view.value);
            })
            .is_some();
        let c1 = Instant::now();
        tracer.end(g);
        out.get_lat.record(c0, c1);
        out.gets += 1;
        let v = tracer.begin("bench.verify", root, req);
        if hit {
            out.hits += 1;
            check.tamper_bytes(&mut got);
            check.expect(value_ok(id, &got), || {
                format!("get k{id}: wrong value bytes")
            });
        } else {
            fill_value(&mut fresh, id);
        }
        tracer.end(v);
        if !hit {
            let s = tracer.begin("core.cache.set", root, req);
            let c2 = Instant::now();
            let r = session.set(key, &fresh, 0, 0);
            let c3 = Instant::now();
            tracer.end(s);
            out.set_lat.record(c2, c3);
            out.sets += 1;
            check.expect(matches!(r, Ok(StoreOutcome::Stored)), || {
                format!("set k{id}: {r:?}")
            });
        }
        tracer.end(root);
        if i % QUIESCE_EVERY == QUIESCE_EVERY - 1 {
            session.quiesce();
        }
    }
    session.quiesce();
    out
}

/// A cache sized for `ids` with a budget of a quarter of their records.
fn build_cache(ids: &[u64]) -> (CacheMap, u64) {
    let working_set: u64 = ids.iter().map(|&id| record_bytes(id)).sum();
    let budget = working_set / 4;
    let cache = CacheMap::new(CacheConfig {
        shards: 4,
        capacity: ids.len(),
        memory_budget: budget,
        eviction: EvictionPolicy::Lru,
    });
    (cache, working_set)
}

/// Populate with the hottest quarter of `ranked` (ids by popularity), from
/// `threads` pinned threads.
fn populate(
    cache: &CacheMap,
    ranked: &[u64],
    threads: usize,
    pinning: &Pinning,
    check: &mut Check,
) {
    let hot = &ranked[..ranked.len() / 4];
    let checks = on_threads(threads, pinning, |t| {
        let mut check = Check::new(false);
        let mut session = cache.session();
        let mut value = Vec::with_capacity(1024);
        let mut kb = [0u8; 24];
        for &id in hot.iter().skip(t).step_by(threads) {
            fill_value(&mut value, id);
            let r = session.set(cache_key_bytes(&mut kb, id), &value, 0, 0);
            check.expect(matches!(r, Ok(StoreOutcome::Stored)), || {
                format!("setup set k{id}: {r:?}")
            });
        }
        session.quiesce();
        check
    });
    for c in checks {
        check.merge(c);
    }
}

/// One thread's zipfian id stream for a round.
fn id_stream(sampler: &KeySampler, ranked: &[u64], len: usize, seed: u64) -> Vec<u64> {
    let mut rng = Xoshiro256::new(seed);
    (0..len)
        .map(|_| ranked[sampler.sample(&mut rng) as usize])
        .collect()
}

pub fn run(opts: &Opts, machine: &Machine, pinning: &mut Pinning) -> Report {
    let population = opts.size(1 << 18, 1 << 11);
    let round_ops = opts.size(1 << 17, 1 << 10);
    let salt = stream_seed(opts.seed, &[31]);
    // Rank r (0 = hottest) is key id `ranked[r]`.
    let ranked: Vec<u64> = (0..population as u64).map(|r| key_of(salt, r)).collect();
    let sampler = KeySampler::zipfian(population as u64, THETA);
    let mut report = Report::default();
    for t in 0..THREADS {
        pinning.note(&format!("load{t}"), t);
    }
    pinning.pin(0);

    let mut setups = Vec::new();
    let mut cache = None;
    let mut working_set = 0;
    for _ in 0..opts.size(9, 2) {
        drop(cache.take());
        let t0 = Instant::now();
        let (c, ws) = build_cache(&ranked);
        populate(&c, &ranked, THREADS, pinning, &mut report.check);
        setups.push(t0.elapsed().as_secs_f64());
        cache = Some(c);
        working_set = ws;
    }
    let cache = cache.expect("at least one setup");
    let setup_stats = cache.table_stats();
    report.header.push(format!(
        "key_ids={population} zipf_theta={THETA} value_bytes=64..1024 working_set={working_set} budget={} policy=lru threads={THREADS} index_bytes={} ({:.3}x LLC)",
        cache.budget(),
        setup_stats.index_bytes,
        setup_stats.index_bytes as f64 / machine.llc_bytes.max(1) as f64
    ));

    let mut measured = Vec::new();
    let mut traced_mops = Vec::new();
    let (mut get_lat, mut set_lat) = (Lat::default(), Lat::default());
    let mut gen_ns = Vec::new();
    let mut tracers = Vec::new();
    let (mut gets, mut hits, mut sets) = (0u64, 0u64, 0u64);
    let evicted_before = cache.stats().evicted;
    let resizes_before = setup_stats.resizes;
    let clock = || {
        if opts.trace {
            RoundClock::new(0.0, 7, 7)
        } else {
            RoundClock::new(opts.seconds, 3, 100_000)
        }
    };
    let span_cap = if opts.trace {
        3 * 4 * round_ops + 16
    } else {
        0
    };
    let (rounds, threads) = run_threads(
        THREADS,
        pinning,
        clock,
        opts.trace,
        |t| {
            let check = Check::new(opts.inject_fault && t == 0);
            (
                cache.session(),
                check,
                Tracer::new(Instant::now(), span_cap),
            )
        },
        |_, t, round| {
            let seed = stream_seed(opts.seed, &[32, round, t as u64]);
            (id_stream(&sampler, &ranked, round_ops, seed), round_ops)
        },
        |(session, check, tracer), ids, traced| {
            tracer.set_on(traced);
            cache_aside(session, &ids, check, tracer)
        },
        |(_, check, tracer)| (check, tracer),
    );
    for (check, tracer) in threads {
        report.check.merge(check);
        tracers.push(tracer);
    }
    // Round 0 warms up.
    for (r, slices) in rounds.rounds.iter().enumerate().skip(1) {
        let ops: u64 = slices.iter().map(|s| s.out.gets + s.out.sets).sum();
        let mops = rounds.mops(r, ops);
        let traced = slices[0].traced;
        let mut lat = Lat::default();
        for s in slices {
            gen_ns.push(s.gen_ns);
            gets += s.out.gets;
            hits += s.out.hits;
            sets += s.out.sets;
            if traced {
                get_lat.extend(&s.out.get_lat);
                set_lat.extend(&s.out.set_lat);
            } else {
                lat.extend(&s.out.get_lat);
                lat.extend(&s.out.set_lat);
            }
        }
        if traced {
            traced_mops.push(mops);
        } else {
            measured.push((mops, lat));
        }
    }

    let stats = cache.stats();
    report
        .check
        .expect(stats.total_bytes() <= stats.budget, || {
            format!(
                "resident {} B over the {} B budget",
                stats.total_bytes(),
                stats.budget
            )
        });
    let round_mops: Vec<f64> = measured.iter().map(|m| m.0).collect();
    report.set_e2e(
        &measured,
        &setups,
        stats.total_bytes() as f64 / stats.items.max(1) as f64,
        hits as f64 / gets.max(1) as f64,
    );
    report.notes.push(format!(
        "cache at end: items={} value_bytes={} index_bytes={} evicted={}",
        stats.items, stats.value_bytes, stats.index_bytes, stats.evicted
    ));

    if opts.trace {
        let end_stats = cache.table_stats();
        let sample: Vec<u64> = ranked.iter().copied().take(ledger::PROBE_KEYS).collect();
        let stream = ledger::sample_stream(
            &sample,
            opts.size(1 << 17, 1 << 12),
            stream_seed(opts.seed, &[33]),
        );
        report.own(
            "hash.ns_per_key",
            ledger::hash_ns_per_key(dlht_hash::HashKind::default(), &stream),
        );
        report.own("core.table.setup_resizes", setup_stats.resizes as f64);
        report.own("core.table.occupancy", setup_stats.occupancy);
        report.own(
            "core.table.links_used_ratio",
            setup_stats.links_used as f64 / setup_stats.link_buckets.max(1) as f64,
        );
        report.own(
            "core.resize.loop_resizes",
            (end_stats.resizes - resizes_before) as f64,
        );
        report.own("epoch.retired_indexes_end", cache.retired_indexes() as f64);
        let mut session = cache.session();
        report.own("epoch.collect_ns", ledger::collect_ns(|| session.quiesce()));
        drop(session);
        report.own("core.cache.get_ns", get_lat.percentiles_us(&[0.5])[0] * 1e3);
        report.own("core.cache.set_ns", set_lat.percentiles_us(&[0.5])[0] * 1e3);
        report.own(
            "core.cache.evicted_per_set",
            (stats.evicted - evicted_before) as f64 / sets.max(1) as f64,
        );
        report.own(
            "core.cache.pending_reclaim_bytes",
            stats.pending_reclaim_bytes as f64,
        );
        report.own("workloads.gen_ns_per_op", median(&gen_ns));
        crate::trace::finish(opts, &mut report, &tracers, &round_mops, &traced_mops);
        ledger::fill_probes(opts, &mut report, &sample, pinning);
    }
    report
}

/// Cache probe for workloads that do not reach the cache: one pinned
/// thread runs the cache-aside loop over zipfian draws from `ids`.
pub fn cache_probe(opts: &Opts, report: &mut Report, ids: &[u64], pinning: &Pinning) {
    pinning.pin(0);
    let (cache, _) = build_cache(ids);
    populate(&cache, ids, 1, pinning, &mut report.check);
    let sampler = KeySampler::zipfian(ids.len() as u64, THETA);
    let stream = id_stream(
        &sampler,
        ids,
        opts.size(1 << 17, 1 << 10),
        stream_seed(opts.seed, &[34]),
    );
    let evicted_before = cache.stats().evicted;
    let mut session = cache.session();
    let mut tracer = Tracer::new(Instant::now(), 0);
    let out = cache_aside(&mut session, &stream, &mut report.check, &mut tracer);
    drop(session);
    let stats = cache.stats();
    report.probe(
        "core.cache.get_ns",
        out.get_lat.percentiles_us(&[0.5])[0] * 1e3,
    );
    report.probe(
        "core.cache.set_ns",
        out.set_lat.percentiles_us(&[0.5])[0] * 1e3,
    );
    report.probe(
        "core.cache.evicted_per_set",
        (stats.evicted - evicted_before) as f64 / out.sets.max(1) as f64,
    );
    report.probe(
        "core.cache.pending_reclaim_bytes",
        stats.pending_reclaim_bytes as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_and_corruption_is_caught() {
        let mut v = Vec::new();
        for id in [1u64, 77, 1 << 40, u64::MAX - 3] {
            fill_value(&mut v, id);
            assert!((64..=1024).contains(&v.len()));
            assert!(value_ok(id, &v));
            assert!(!value_ok(id + 1, &v));
            for i in [0, v.len() / 2, v.len() - 1] {
                v[i] ^= 0x10;
                assert!(!value_ok(id, &v), "flip at {i} not caught");
                v[i] ^= 0x10;
            }
        }
    }
}
