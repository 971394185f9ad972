//! `get-large`: read-only Gets on a table far larger than the last-level
//! cache, from two pinned threads in 16-request prefetched batches.

use crate::ledger::{self, check_gets, submit_gets, BATCH};
use crate::measure::{
    key_of, on_threads, run_threads, stream_seed, value_of, Check, Lat, RoundClock,
};
use crate::sys::{Machine, Pinning};
use crate::trace::{self, Tracer, NO_PARENT};
use crate::{Opts, Report, Source};
use dlht_core::{BatchPolicy, DlhtMap, InsertOutcome};
use dlht_workloads::Xoshiro256;
use std::time::Instant;

/// Load threads, each pinned to its own CPU.
const THREADS: usize = 2;

/// One load thread's state.
struct Load<'t> {
    session: dlht_core::Session<'t>,
    batch: dlht_core::Batch,
    check: Check,
    tracer: Tracer,
    gets: u64,
    hits: u64,
}

impl Load<'_> {
    /// Send `keys` as 16-Get batches: prefetch each key at submit, then
    /// `execute_prefetched` (the `Pipeline` flush path).
    fn round(&mut self, keys: &[u64], round: u64, traced: bool) -> Lat {
        let tr = &mut self.tracer;
        tr.set_on(traced);
        let mut lat = Lat::with_capacity(if traced { 0 } else { keys.len() / BATCH + 1 });
        for (i, chunk) in keys.chunks(BATCH).enumerate() {
            let req = (round << 32) | i as u64;
            let root = tr.begin("request", NO_PARENT, req);
            let s = tr.begin("core.session.prefetch", root, req);
            let c0 = Instant::now();
            submit_gets(&self.session, &mut self.batch, chunk);
            tr.end(s);
            let e = tr.begin("core.session.execute_prefetched", root, req);
            self.session
                .execute_prefetched(&mut self.batch, BatchPolicy::RunAll);
            let c1 = Instant::now();
            tr.end(e);
            if !traced {
                lat.record(c0, c1);
            }
            let v = tr.begin("bench.verify", root, req);
            self.hits += check_gets(&mut self.check, chunk, self.batch.responses());
            self.gets += chunk.len() as u64;
            tr.end(v);
            tr.end(root);
        }
        lat
    }
}

/// Build the table the way a user would and populate it with `n` keys,
/// each load thread inserting its share.
fn build(check: &mut Check, salt: u64, n: usize, pinning: &Pinning) -> DlhtMap {
    let map = DlhtMap::with_capacity(n);
    let checks = on_threads(THREADS, pinning, |t| {
        let mut check = Check::new(false);
        for id in (t as u64..n as u64).step_by(THREADS) {
            let k = key_of(salt, id);
            let r = map.insert(k, value_of(k));
            check.expect(matches!(r, Ok(InsertOutcome::Inserted)), || {
                format!("setup insert {k:#x}: {r:?}")
            });
        }
        check
    });
    for c in checks {
        check.merge(c);
    }
    map
}

pub fn run(opts: &Opts, machine: &Machine, pinning: &mut Pinning) -> Report {
    let n = opts.size(8_000_000, 20_000);
    let round_ops = opts.size(1 << 20, 1 << 12);
    let salt = stream_seed(opts.seed, &[1]);
    let mut report = Report {
        check: Check::new(opts.inject_fault),
        ..Report::default()
    };
    for t in 0..THREADS {
        pinning.note(&format!("load{t}"), t);
    }
    pinning.pin(0);

    let mut setups = Vec::new();
    let mut map = None;
    for _ in 0..opts.size(5, 2) {
        drop(map.take());
        let t0 = Instant::now();
        let m = build(&mut report.check, salt, n, pinning);
        setups.push(t0.elapsed().as_secs_f64());
        map = Some(m);
    }
    let map = map.expect("at least one setup");
    let stats = map.stats();
    let llc_ratio = stats.index_bytes as f64 / machine.llc_bytes.max(1) as f64;
    report.header.push(format!(
        "keys={n} index_bytes={} ({:.2}x LLC; get-large requires >= 2x: {}) bins={} resizes_in_setup={}",
        stats.index_bytes,
        llc_ratio,
        if llc_ratio >= 2.0 { "yes" } else { "NO" },
        stats.bins,
        stats.resizes
    ));

    let resizes_before = map.resizes();
    let clock = || {
        if opts.trace {
            RoundClock::new(0.0, 9, 9)
        } else {
            RoundClock::new(opts.seconds, 3, 100_000)
        }
    };
    let per_thread_ops = round_ops / THREADS;
    let span_cap = if opts.trace {
        4 * 4 * (per_thread_ops / BATCH) + 16
    } else {
        0
    };
    let (rounds, threads) = run_threads(
        THREADS,
        pinning,
        clock,
        opts.trace,
        |t| Load {
            session: map.session(),
            batch: dlht_core::Batch::with_capacity(BATCH),
            check: Check::new(opts.inject_fault && t == 0),
            tracer: Tracer::new(Instant::now(), span_cap),
            gets: 0,
            hits: 0,
        },
        |_, t, round| {
            let mut rng = Xoshiro256::new(stream_seed(opts.seed, &[2, round, t as u64]));
            let keys: Vec<u64> = (0..per_thread_ops)
                .map(|_| key_of(salt, rng.next_below(n as u64)))
                .collect();
            ((keys, round), per_thread_ops)
        },
        |load, (keys, round), traced| load.round(&keys, round, traced),
        |load| (load.check, load.tracer, load.gets, load.hits),
    );
    let mut tracers = Vec::new();
    let (mut gets, mut hits) = (0u64, 0u64);
    for (check, tracer, g, h) in threads {
        report.check.merge(check);
        tracers.push(tracer);
        gets += g;
        hits += h;
    }
    // Round 0 warms up.
    let (mut measured, mut traced_mops, mut gen_ns) = (Vec::new(), Vec::new(), Vec::new());
    for r in 1..rounds.rounds.len() {
        let mops = rounds.mops(r, (per_thread_ops * THREADS) as u64);
        if rounds.rounds[r][0].traced {
            traced_mops.push(mops);
        } else {
            measured.push((mops, rounds.merged(r, |out| out)));
        }
        gen_ns.extend(rounds.rounds[r].iter().map(|s| s.gen_ns));
    }

    let loop_resizes = map.resizes() - resizes_before;
    report.check.expect(loop_resizes == 0, || {
        format!("read-only loop resized the table {loop_resizes} times")
    });
    // Every key is still there, exactly once.
    let len = map.len();
    report
        .check
        .expect(len == n, || format!("len() = {len}, expected {n}"));

    let round_mops: Vec<f64> = measured.iter().map(|m| m.0).collect();
    report.set_e2e(
        &measured,
        &setups,
        stats.index_bytes as f64 / n as f64,
        hits as f64 / gets.max(1) as f64,
    );

    if opts.trace {
        let sample: Vec<u64> = (0..n.min(ledger::PROBE_KEYS) as u64)
            .map(|id| {
                key_of(
                    salt,
                    id * (n as u64 / ledger::PROBE_KEYS.min(n) as u64).max(1),
                )
            })
            .collect();
        // Fresh keys for each of the 15 timed parts of `core_costs`.
        let mut rng = Xoshiro256::new(stream_seed(opts.seed, &[3]));
        let stream: Vec<u64> = (0..opts.size(15 << 16, 1 << 12))
            .map(|_| key_of(salt, rng.next_below(n as u64)))
            .collect();
        report.own(
            "hash.ns_per_key",
            ledger::hash_ns_per_key(map.config().hash, &stream),
        );
        ledger::core_costs(&mut report, &map, &stream, Source::Own);
        report.own("core.table.setup_resizes", stats.resizes as f64);
        report.own("core.table.occupancy", stats.occupancy);
        report.own(
            "core.table.links_used_ratio",
            stats.links_used as f64 / stats.link_buckets.max(1) as f64,
        );
        report.own("core.resize.loop_resizes", loop_resizes as f64);
        report.own(
            "epoch.retired_indexes_end",
            map.raw().retired_indexes() as f64,
        );
        report.own(
            "epoch.collect_ns",
            ledger::collect_ns(|| map.collect_garbage()),
        );
        report.own("workloads.gen_ns_per_op", crate::measure::median(&gen_ns));
        trace::finish(opts, &mut report, &tracers, &round_mops, &traced_mops);
        ledger::fill_probes(opts, &mut report, &sample, pinning);
    }
    report
}
