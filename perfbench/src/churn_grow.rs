//! `churn-grow`: two pinned threads, each owning its keys, send 16-request
//! batches mixing insert-fresh, get-live and delete-oldest while the live
//! set grows several-fold, so the table resizes mid-run.

use crate::ledger::{self, resize_state, ResizeObs, BATCH};
use crate::measure::{key_of, median, on_threads, stream_seed, value_of, Check, Lat, RoundClock};
use crate::sys::{Machine, Pinning};
use crate::trace::{Tracer, NO_PARENT};
use crate::{Opts, Report, Source};
use dlht_core::{Batch, BatchPolicy, DlhtMap, InsertOutcome, Request, Response};
use dlht_workloads::Xoshiro256;
use std::sync::Barrier;
use std::time::Instant;

const THREADS: u64 = 2;

/// Thread `t`'s `seq`-th key.
#[inline]
fn owned_key(salt: u64, t: u64, seq: u64) -> u64 {
    key_of(salt, seq * THREADS + t)
}

/// One thread's request sequence for one round, with its live window
/// `[lo, hi)` of sequence numbers before and after.
struct Plan {
    requests: Vec<Request>,
    hi_end: u64,
    lo_end: u64,
}

/// Insert-fresh (8/16), get-live (6/16), delete-oldest (2/16); the live set
/// grows by about 6 keys per 16 requests.
fn plan(salt: u64, t: u64, live: u64, requests: usize, seed: u64) -> Plan {
    let mut rng = Xoshiro256::new(seed);
    let (mut lo, mut hi) = (0u64, live);
    let requests = (0..requests)
        .map(|_| match rng.next_below(16) {
            0..=7 => {
                let k = owned_key(salt, t, hi);
                hi += 1;
                Request::Insert(k, value_of(k))
            }
            8..=13 => Request::Get(owned_key(salt, t, lo + rng.next_below(hi - lo))),
            _ => {
                let k = owned_key(salt, t, lo);
                lo += 1;
                Request::Delete(k)
            }
        })
        .collect();
    Plan {
        requests,
        hi_end: hi,
        lo_end: lo,
    }
}

fn check_response(check: &mut Check, req: &Request, resp: &Response) -> bool {
    match (*req, *resp) {
        (Request::Get(k), Response::Value(v)) => {
            let v = v.map(|v| check.tamper(v));
            check.expect(v == Some(value_of(k)), || format!("get {k:#x}: {v:?}"));
            v.is_some()
        }
        (Request::Insert(k, _), Response::Inserted(r)) => {
            check.expect(matches!(r, Ok(InsertOutcome::Inserted)), || {
                format!("insert {k:#x}: {r:?}")
            });
            false
        }
        (Request::Delete(k), Response::Deleted(v)) => {
            check.expect(v == Some(value_of(k)), || format!("delete {k:#x}: {v:?}"));
            false
        }
        (req, resp) => {
            check.error(|| format!("{req:?} answered {resp:?}"));
            false
        }
    }
}

/// What one load thread brings back from a round.
struct ThreadOut {
    setup_done: Instant,
    /// Thread 0 only: the table's structure once setup is done.
    setup_stats: Option<dlht_core::TableStats>,
    start: Instant,
    end: Instant,
    lat: Lat,
    check: Check,
    resize: ResizeObs,
    tracer: Tracer,
    gets: u64,
    hits: u64,
}

pub fn run(opts: &Opts, machine: &Machine, pinning: &mut Pinning) -> Report {
    let prepop = opts.size(1 << 18, 1 << 11) as u64;
    let per_thread_live = prepop / THREADS;
    // Enough requests for the live set to grow about six-fold.
    let requests = (5 * prepop / THREADS * 16 / 6) as usize;
    let salt = stream_seed(opts.seed, &[11]);
    let mut report = Report::default();
    for t in 0..THREADS as usize {
        pinning.note(&format!("load{t}"), t);
    }

    let mut setups = Vec::new();
    let mut measured = Vec::new();
    let mut traced_mops = Vec::new();
    let mut resize = ResizeObs::default();
    let mut tracers = Vec::new();
    let mut gen_ns = Vec::new();
    let mut bytes_per_key = Vec::new();
    let (mut gets, mut hits) = (0u64, 0u64);
    let mut setup_stats = None;
    let (mut loop_resizes, mut retired_end, mut collect) = (Vec::new(), Vec::new(), Vec::new());
    let mut windows = Vec::new();
    let mut last_map = None;

    let mut clock = if opts.trace {
        RoundClock::new(0.0, 7, 7)
    } else {
        RoundClock::new(opts.seconds, 3, 10_000)
    };
    let mut round = 0u64;
    while clock.next() {
        let traced = opts.trace && round % 2 == 1;
        let t_gen = Instant::now();
        let plans: Vec<Plan> = (0..THREADS)
            .map(|t| {
                plan(
                    salt,
                    t,
                    per_thread_live,
                    requests,
                    stream_seed(opts.seed, &[12, round, t]),
                )
            })
            .collect();
        gen_ns.push(t_gen.elapsed().as_nanos() as f64 / (requests as f64 * THREADS as f64));
        drop(last_map.take());

        let barriers = [
            Barrier::new(THREADS as usize),
            Barrier::new(THREADS as usize),
        ];
        let t_setup = Instant::now();
        let map = DlhtMap::with_capacity(prepop as usize);
        let span_cap = if traced { 4 * requests / BATCH + 16 } else { 0 };
        let outs: Vec<ThreadOut> = on_threads(THREADS as usize, pinning, |t| {
            let inject = opts.inject_fault && t == 0 && round == 0;
            load_thread(
                &map,
                &barriers,
                &plans[t],
                salt,
                t as u64,
                per_thread_live,
                traced,
                span_cap,
                inject,
            )
        });

        let setup_done = outs.iter().map(|o| o.setup_done).max().expect("threads");
        let start = outs.iter().map(|o| o.start).min().expect("threads");
        let end = outs.iter().map(|o| o.end).max().expect("threads");
        let mops =
            (requests as f64 * THREADS as f64) / end.duration_since(start).as_secs_f64() / 1e6;
        let stats = outs[0]
            .setup_stats
            .clone()
            .expect("thread 0 reads setup stats");
        loop_resizes.push((map.resizes() - stats.resizes) as f64);
        retired_end.push(map.raw().retired_indexes() as f64);
        let tc = Instant::now();
        map.collect_garbage();
        collect.push(tc.elapsed().as_nanos() as f64);

        let live: u64 = plans.iter().map(|p| p.hi_end - p.lo_end).sum();
        let len = map.len() as u64;
        report
            .check
            .expect(len == live, || format!("len() = {len}, expected {live}"));
        let end_stats = map.stats();
        bytes_per_key.push(end_stats.index_bytes as f64 / live.max(1) as f64);
        windows = plans.iter().map(|p| (p.lo_end, p.hi_end)).collect();
        setup_stats = Some(stats);

        let mut round_resize = ResizeObs::default();
        let mut lat = Lat::default();
        for mut o in outs {
            report.check.merge(std::mem::take(&mut o.check));
            gets += o.gets;
            hits += o.hits;
            if round > 0 {
                if traced {
                    round_resize.merge(o.resize);
                    tracers.push(o.tracer);
                } else {
                    lat.extend(&o.lat);
                }
            }
        }
        if traced {
            round_resize.close_round();
            resize.merge(round_resize);
        }
        if round > 0 {
            setups.push(setup_done.duration_since(t_setup).as_secs_f64());
            if traced {
                traced_mops.push(mops);
            } else {
                measured.push((mops, lat));
            }
        }
        last_map = Some(map);
        round += 1;
    }
    let map = last_map.expect("at least one round");
    let setup_stats = setup_stats.expect("at least one round");
    let live_keys: Vec<u64> = windows
        .iter()
        .enumerate()
        .flat_map(|(t, &(lo, hi))| (lo..hi).map(move |seq| owned_key(salt, t as u64, seq)))
        .take(ledger::PROBE_KEYS)
        .collect();
    report.header.push(format!(
        "threads={THREADS} prepopulated={prepop} requests_per_round={} live_at_end={} index_bytes_after_setup={} index_bytes_at_end={} ({:.3}x LLC)",
        requests as u64 * THREADS,
        windows.iter().map(|(lo, hi)| hi - lo).sum::<u64>(),
        setup_stats.index_bytes,
        map.stats().index_bytes,
        map.stats().index_bytes as f64 / machine.llc_bytes.max(1) as f64
    ));

    let round_mops: Vec<f64> = measured.iter().map(|m| m.0).collect();
    report.set_e2e(
        &measured,
        &setups,
        median(&bytes_per_key),
        hits as f64 / gets.max(1) as f64,
    );

    if opts.trace {
        let stream = ledger::sample_stream(
            &live_keys,
            opts.size(1 << 17, 1 << 12),
            stream_seed(opts.seed, &[13]),
        );
        report.own(
            "hash.ns_per_key",
            ledger::hash_ns_per_key(map.config().hash, &stream),
        );
        ledger::core_costs(&mut report, &map, &stream, Source::Own);
        report.own("core.table.setup_resizes", setup_stats.resizes as f64);
        report.own("core.table.occupancy", setup_stats.occupancy);
        report.own(
            "core.table.links_used_ratio",
            setup_stats.links_used as f64 / setup_stats.link_buckets.max(1) as f64,
        );
        resize.report(&mut report, median(&loop_resizes) as u64, Source::Own);
        report.own("core.resize.loop_resizes", median(&loop_resizes));
        report.own("epoch.retired_indexes_end", median(&retired_end));
        report.own("epoch.collect_ns", median(&collect));
        report.own("workloads.gen_ns_per_op", median(&gen_ns));
        crate::trace::finish(opts, &mut report, &tracers, &round_mops, &traced_mops);
        ledger::fill_probes(opts, &mut report, &live_keys, pinning);
    }
    report
}

// AUDIT: one call site; the arguments are the round's shared inputs.
#[allow(clippy::too_many_arguments)]
fn load_thread(
    map: &DlhtMap,
    barriers: &[Barrier; 2],
    plan: &Plan,
    salt: u64,
    t: u64,
    live: u64,
    traced: bool,
    span_cap: usize,
    inject: bool,
) -> ThreadOut {
    let mut check = Check::new(inject);
    for seq in 0..live {
        let k = owned_key(salt, t, seq);
        let r = map.insert(k, value_of(k));
        check.expect(matches!(r, Ok(InsertOutcome::Inserted)), || {
            format!("setup insert {k:#x}: {r:?}")
        });
    }
    let setup_done = Instant::now();
    barriers[0].wait();
    let setup_stats = (t == 0).then(|| map.stats());
    barriers[1].wait();
    let session = map.session();
    let mut batch = Batch::with_capacity(BATCH);
    let mut lat = Lat::with_capacity(if traced {
        0
    } else {
        plan.requests.len() / BATCH + 1
    });
    let mut resize = ResizeObs::default();
    let mut tracer = Tracer::new(Instant::now(), span_cap);
    tracer.set_on(traced);
    let (mut gets, mut hits) = (0u64, 0u64);
    let start = Instant::now();
    for (i, chunk) in plan.requests.chunks(BATCH).enumerate() {
        let req_id = (t << 48) | i as u64;
        let root = tracer.begin("request", NO_PARENT, req_id);
        let before = if traced { resize_state(map) } else { (0, 0) };
        let s = tracer.begin("core.session.prefetch", root, req_id);
        let c0 = Instant::now();
        batch.clear();
        for req in chunk {
            session.prefetch(req.key());
            batch.push(*req);
        }
        tracer.end(s);
        let e = tracer.begin("core.session.execute_prefetched", root, req_id);
        session.execute_prefetched(&mut batch, BatchPolicy::RunAll);
        let c1 = Instant::now();
        tracer.end(e);
        if traced {
            resize.record(c0, c1, before, resize_state(map));
        } else {
            lat.record(c0, c1);
        }
        let v = tracer.begin("bench.verify", root, req_id);
        for (req, resp) in chunk.iter().zip(batch.responses()) {
            if let Request::Get(_) = req {
                gets += 1;
            }
            hits += u64::from(check_response(&mut check, req, resp));
        }
        tracer.end(v);
        tracer.end(root);
    }
    let end = Instant::now();
    ThreadOut {
        setup_done,
        setup_stats,
        start,
        end,
        lat,
        check,
        resize,
        tracer,
        gets,
        hits,
    }
}
