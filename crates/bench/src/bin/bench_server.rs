//! `server` scenario: throughput and scaling of the `dlht-net` wire
//! protocol over TCP loopback against the event-driven server.
//!
//! Four series:
//!
//! 1. **GET sweep** — connection count × client pipeline depth. Depth 1
//!    issues one request per network round trip; depth `d` pipelines `d`
//!    requests per round trip, which the server drains into **one**
//!    prefetched batch execution — the depth axis is simultaneously the
//!    wire-pipelining axis and the server-side batch-size axis (paper §3.3
//!    over a socket). Acceptance bar: depth ≥ 8 beats depth 1 by ≥ 2×.
//! 2. **Worker scaling** — fixed connection count, sweeping the event-loop
//!    worker pool size (one server per point). Throughput should follow
//!    workers, not connections: connections are just poll registrations.
//! 3. **Connection sweep** — hold hundreds of live connections (256 in
//!    smoke, 1024 in `--full`) that each ran real traffic, and measure
//!    `buffer_bytes / connections`. The point records `bytes_per_conn` and
//!    the scenario **fails** if per-connection memory is not flat (rings
//!    must shrink back after their burst).
//! 4. **Admin probe under load** — round-trip `STATS` on the admin plane
//!    while every worker is saturated with pipelined data traffic,
//!    recording the admin latency.
//! 5. **Metrics overhead** — GET throughput with a 10 Hz Prometheus
//!    scraper hammering `GET /metrics` on the admin plane versus the same
//!    run unscraped, over 7 interleaved pairs that alternate which side runs
//!    first. The scenario **fails** if the median per-pair overhead is above
//!    2% of throughput: the registry promises scrapes never touch the hot
//!    path.
//!
//! One extra series runs YCSB A *over the wire* through [`RemoteBackend`],
//! demonstrating that the whole workload harness drives a remote table
//! unchanged (the same switch `fig18_ycsb --server <addr>` exposes).

use dlht_bench::run_scenario;
use dlht_core::{KvBackend, Request, Response, ShardedTable};
use dlht_net::{bind_ephemeral, ByteRing, DlhtClient, RemoteBackend, ServerConfig};
use dlht_workloads::report::Tier;
use dlht_workloads::ycsb::{run_ycsb, YcsbMix};
use dlht_workloads::{fmt_mops, prepopulate, Table, Xoshiro256};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pipeline depths swept at every connection count (1 = no pipelining).
const DEPTHS: [usize; 3] = [1, 8, 32];

/// Flat-memory bar for the connection sweep: average ring capacity pinned
/// per live connection after its burst drained. Two rings per connection,
/// each allowed its retained capacity.
const FLAT_BYTES_PER_CONN: u64 = 2 * ByteRing::SHRINK_CAPACITY as u64;

/// Scraped/unscraped window pairs behind the metrics-overhead verdict.
const OVERHEAD_PAIRS: usize = 7;

/// Median of `xs` (upper median for an even count); leaves `xs` sorted.
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Drive 100%-GET traffic from `connections` clients at `depth`, returning
/// (total ops, wall time).
fn run_wire_gets(
    addr: std::net::SocketAddr,
    connections: usize,
    depth: usize,
    keys: u64,
    seed: u64,
    duration: Duration,
) -> (u64, Duration) {
    let started = Instant::now();
    let totals: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|tid| {
                s.spawn(move || {
                    let mut client = DlhtClient::connect(addr).expect("connect to bench server");
                    let mut rng = Xoshiro256::new(
                        seed ^ (tid as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    let mut reqs: Vec<Request> = Vec::with_capacity(depth);
                    let mut resps: Vec<Response> = Vec::with_capacity(depth);
                    let deadline = Instant::now() + duration;
                    let mut ops = 0u64;
                    while Instant::now() < deadline {
                        reqs.clear();
                        for _ in 0..depth {
                            reqs.push(Request::Get(rng.next_below(keys.max(1))));
                        }
                        if depth == 1 {
                            let r = client.request(reqs[0]).expect("wire get");
                            std::hint::black_box(&r);
                        } else {
                            resps.clear();
                            client
                                .pipelined_into(&reqs, &mut resps)
                                .expect("pipelined wire gets");
                            std::hint::black_box(&resps);
                        }
                        ops += depth as u64;
                    }
                    ops
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    (totals.iter().sum(), started.elapsed())
}

/// One `GET /metrics` scrape over plain HTTP/1.1; returns the body length
/// so the scraper can prove the exposition was non-trivial.
fn scrape_once(addr: std::net::SocketAddr) -> usize {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("scraper connect");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
        .expect("scraper request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("scraper response");
    response.len()
}

fn main() {
    run_scenario("server", |ctx| {
        let scale = ctx.scale.clone();
        let table = Arc::new(ShardedTable::with_capacity(
            scale.shards,
            scale.keys as usize * 2,
        ));
        prepopulate(&*table as &dyn KvBackend, scale.keys);
        let server = bind_ephemeral(table.clone(), ServerConfig::default());
        let addr = server.local_addr();
        ctx.note(&format!(
            "Serving on {addr} ({} event-loop workers, {} shards, {} keys prepopulated).",
            server.workers(),
            scale.shards,
            scale.keys
        ));

        // --- Series 1: GET throughput, connections × pipeline depth -----
        let mut table_out = Table::new(
            "dlht-net — GET throughput over TCP loopback (M req/s)",
            &[
                "connections",
                "depth 1",
                "depth 8",
                "depth 32",
                "depth8/depth1",
            ],
        );
        let connection_counts = scale.threads.clone();
        for &connections in &connection_counts {
            let mut mops_by_depth: Vec<(usize, f64)> = Vec::new();
            for depth in DEPTHS {
                let seed = scale.seed_for(&format!("server/c{connections}/d{depth}"));
                // Warm-up pass (discarded): connections, caches, allocator.
                let _ = run_wire_gets(addr, connections, depth, scale.keys, seed, scale.warmup());
                let (ops, elapsed) =
                    run_wire_gets(addr, connections, depth, scale.keys, seed, scale.duration());
                let mops = ops as f64 / elapsed.as_secs_f64() / 1e6;
                mops_by_depth.push((depth, mops));
                let depth1 = mops_by_depth[0].1;
                let mut point = ctx
                    .point("GET")
                    .axis("connections", connections)
                    .axis("depth", depth)
                    .mops(mops)
                    .ops(ops);
                if depth >= 8 && depth1 > 0.0 {
                    point = point.extra("speedup_vs_depth1", mops / depth1);
                }
                point.emit();
            }
            let depth1 = mops_by_depth[0].1;
            let speedup8 = mops_by_depth[1].1 / depth1.max(f64::MIN_POSITIVE);
            table_out.row(&[
                connections.to_string(),
                fmt_mops(mops_by_depth[0].1),
                fmt_mops(mops_by_depth[1].1),
                fmt_mops(mops_by_depth[2].1),
                format!("{speedup8:.1}x"),
            ]);
        }

        // --- Series 2: worker scaling (one server per pool size) --------
        // Throughput should track the worker axis, not the connection
        // count: with the readiness loop, connections are just poll
        // registrations. (On a single-core runner all points land close
        // together — the JSON still records the curve.)
        let mut worker_table = Table::new(
            "dlht-net — worker scaling (fixed connections, depth 32)",
            &["workers", "M req/s"],
        );
        let fixed_conns = connection_counts.last().copied().unwrap_or(1) * 2;
        for &workers in &scale.threads {
            let wtable = Arc::new(ShardedTable::with_capacity(
                scale.shards,
                scale.keys as usize * 2,
            ));
            prepopulate(&*wtable as &dyn KvBackend, scale.keys);
            let wserver = bind_ephemeral(
                wtable,
                ServerConfig {
                    workers,
                    ..ServerConfig::default()
                },
            );
            let seed = scale.seed_for(&format!("server/workers{workers}"));
            let _ = run_wire_gets(
                wserver.local_addr(),
                fixed_conns,
                32,
                scale.keys,
                seed,
                scale.warmup(),
            );
            let (ops, elapsed) = run_wire_gets(
                wserver.local_addr(),
                fixed_conns,
                32,
                scale.keys,
                seed,
                scale.duration(),
            );
            let mops = ops as f64 / elapsed.as_secs_f64() / 1e6;
            ctx.point("GET (worker scaling)")
                .axis("workers", workers)
                .axis("connections", fixed_conns)
                .axis("depth", 32usize)
                .mops(mops)
                .ops(ops)
                .emit();
            worker_table.row(&[workers.to_string(), fmt_mops(mops)]);
            wserver.shutdown();
        }

        // --- Series 3: connection sweep with flat-memory assertion ------
        let sweep_conns: usize = match scale.tier {
            Tier::Smoke => 256,
            Tier::Full => 1024,
        };
        {
            let deadline = Instant::now() + Duration::from_secs(60);
            let mut held: Vec<DlhtClient<std::net::TcpStream>> = Vec::with_capacity(sweep_conns);
            for i in 0..sweep_conns {
                let mut c =
                    DlhtClient::connect(addr).unwrap_or_else(|e| panic!("sweep connect #{i}: {e}"));
                // Real traffic on every connection so its rings see use.
                let reqs: Vec<Request> = (0..16u64)
                    .map(|k| Request::Get((i as u64 * 16 + k) % scale.keys.max(1)))
                    .collect();
                let resps = c.pipelined(&reqs).expect("sweep pipelined GETs");
                assert_eq!(resps.len(), 16);
                held.push(c);
                assert!(Instant::now() < deadline, "connection sweep timed out");
            }
            // Let the workers finish their passes, then read the gauge.
            std::thread::sleep(Duration::from_millis(100));
            let live = server.counters().active;
            assert!(
                live >= sweep_conns as u64,
                "expected {sweep_conns} live connections, server sees {live}"
            );
            let buffered = server.buffer_bytes();
            let bytes_per_conn = buffered / sweep_conns as u64;
            ctx.point("connection sweep")
                .axis("connections", sweep_conns)
                .ops(sweep_conns as u64 * 16)
                .extra("buffer_bytes", buffered as f64)
                .extra("bytes_per_conn", bytes_per_conn as f64)
                .emit();
            ctx.note(&format!(
                "Connection sweep: {sweep_conns} live connections hold {buffered} buffer bytes \
                 ({bytes_per_conn} B/conn; flat bar {FLAT_BYTES_PER_CONN} B/conn)."
            ));
            assert!(
                bytes_per_conn <= FLAT_BYTES_PER_CONN,
                "per-connection memory is not flat: {bytes_per_conn} B/conn \
                 (bar {FLAT_BYTES_PER_CONN})"
            );
            drop(held);
            // Wait for the server to notice the closes (keeps the YCSB
            // series below from sharing the sweep's fds).
            let deadline = Instant::now() + Duration::from_secs(30);
            while server.counters().active > 0 {
                assert!(Instant::now() < deadline, "sweep connections never drained");
                std::thread::sleep(Duration::from_millis(20));
            }
        }

        // --- Series 4: admin plane probed under data-plane saturation ---
        {
            let atable = Arc::new(ShardedTable::with_capacity(
                scale.shards,
                scale.keys as usize * 2,
            ));
            prepopulate(&*atable as &dyn KvBackend, scale.keys);
            let aserver = bind_ephemeral(
                atable,
                ServerConfig {
                    admin_addr: Some("127.0.0.1:0".to_string()),
                    ..ServerConfig::default()
                },
            );
            let data_addr = aserver.local_addr();
            let admin_addr = aserver.admin_addr().expect("admin plane");
            let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let hammers: Vec<_> = (0..2)
                .map(|tid| {
                    let stop = stop.clone();
                    let keys = scale.keys;
                    std::thread::spawn(move || {
                        let mut client = DlhtClient::connect(data_addr).expect("hammer connect");
                        let mut rng = Xoshiro256::new(0xAD1A + tid as u64);
                        let mut reqs: Vec<Request> = Vec::with_capacity(32);
                        while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                            reqs.clear();
                            for _ in 0..32 {
                                reqs.push(Request::Get(rng.next_below(keys.max(1))));
                            }
                            let _ = client.pipelined(&reqs).expect("hammer pipeline");
                        }
                    })
                })
                .collect();
            let mut admin = DlhtClient::connect(admin_addr).expect("admin connect");
            let probes = 32u32;
            let t = Instant::now();
            for _ in 0..probes {
                let stats = admin.stats().expect("admin STATS under load");
                std::hint::black_box(&stats);
            }
            let avg_us = t.elapsed().as_secs_f64() * 1e6 / probes as f64;
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            for h in hammers {
                h.join().expect("hammer thread");
            }
            ctx.point("admin STATS under load")
                .axis("connections", 2usize)
                .ops(probes as u64)
                .extra("admin_stats_us", avg_us)
                .emit();
            ctx.note(&format!(
                "Admin plane answered {probes} STATS probes at {avg_us:.0} µs average while \
                 the data plane ran saturated pipelines."
            ));
            aserver.shutdown();
        }

        // --- Series 5: metrics overhead under a 10 Hz scraper -----------
        {
            let mtable = Arc::new(ShardedTable::with_capacity(
                scale.shards,
                scale.keys as usize * 2,
            ));
            prepopulate(&*mtable as &dyn KvBackend, scale.keys);
            let mserver = bind_ephemeral(
                mtable,
                ServerConfig {
                    admin_addr: Some("127.0.0.1:0".to_string()),
                    ..ServerConfig::default()
                },
            );
            let data_addr = mserver.local_addr();
            let metrics_addr = mserver.admin_addr().expect("admin plane");
            let conns = 2usize;
            // Floor the measurement window: smoke-tier 60 ms rounds would
            // see at most one scrape and drown a 2% delta in noise.
            let window = scale.duration().max(Duration::from_millis(400));
            let seed = scale.seed_for("server/metrics-overhead");
            let _ = run_wire_gets(data_addr, conns, 32, scale.keys, seed, scale.warmup());
            // Interleaved pairs, alternating which side runs first, so drift
            // and run order hit both modes alike. The verdict is the median
            // per-pair overhead: one noisy window moves one pair, not the
            // decision.
            let mut overheads = Vec::with_capacity(OVERHEAD_PAIRS);
            let mut scraped_mops = Vec::with_capacity(OVERHEAD_PAIRS);
            let mut unscraped_mops = Vec::with_capacity(OVERHEAD_PAIRS);
            let mut scrapes = 0u64;
            for pair in 0..OVERHEAD_PAIRS {
                // Mops of the pair, indexed by `scraped as usize`.
                let mut mops_of = [0.0f64; 2];
                let first = pair % 2 == 1;
                for scraped in [first, !first] {
                    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
                    let scraper = scraped.then(|| {
                        let stop = stop.clone();
                        std::thread::spawn(move || {
                            let mut count = 0u64;
                            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                                assert!(scrape_once(metrics_addr) > 0, "empty scrape");
                                count += 1;
                                std::thread::sleep(Duration::from_millis(100));
                            }
                            count
                        })
                    });
                    let round_seed =
                        scale.seed_for(&format!("server/metrics-overhead/{pair}/{scraped}"));
                    let (ops, elapsed) =
                        run_wire_gets(data_addr, conns, 32, scale.keys, round_seed, window);
                    stop.store(true, std::sync::atomic::Ordering::Relaxed);
                    if let Some(h) = scraper {
                        scrapes += h.join().expect("scraper thread");
                    }
                    mops_of[scraped as usize] = ops as f64 / elapsed.as_secs_f64() / 1e6;
                }
                let [unscraped, scraped] = mops_of;
                overheads.push((unscraped - scraped) / unscraped * 100.0);
                unscraped_mops.push(unscraped);
                scraped_mops.push(scraped);
            }
            let overhead_pct = median(&mut overheads);
            let (lo, hi) = (overheads[0], overheads[OVERHEAD_PAIRS - 1]);
            let median_scraped = median(&mut scraped_mops);
            let median_unscraped = median(&mut unscraped_mops);
            ctx.point("metrics-overhead")
                .axis("connections", conns)
                .axis("depth", 32usize)
                .mops(median_scraped)
                .extra("mops_scraped", median_scraped)
                .extra("mops_unscraped", median_unscraped)
                .extra("overhead_pct", overhead_pct)
                .extra("overhead_pct_min", lo)
                .extra("overhead_pct_max", hi)
                .extra("pairs", OVERHEAD_PAIRS as f64)
                .extra("scrapes", scrapes as f64)
                .emit();
            ctx.note(&format!(
                "Metrics overhead: {} scraped vs {} unscraped (medians) under {scrapes} \
                 10 Hz scrapes — median {overhead_pct:.2}% over {OVERHEAD_PAIRS} pairs, \
                 per-pair {lo:.2}% to {hi:.2}% (bar 2%).",
                fmt_mops(median_scraped),
                fmt_mops(median_unscraped)
            ));
            assert!(
                overhead_pct <= 2.0,
                "Prometheus scraping cost a median {overhead_pct:.2}% GET throughput over \
                 {OVERHEAD_PAIRS} pairs (per-pair {lo:.2}% to {hi:.2}%; bar 2%)"
            );
            mserver.shutdown();
        }

        // --- YCSB A over the wire (workload harness unchanged) ----------
        let connections = *connection_counts.last().unwrap_or(&1);
        let remote = RemoteBackend::connect(addr.to_string()).expect("connect remote backend");
        let _ = run_ycsb(
            &remote,
            YcsbMix::A,
            scale.keys,
            connections,
            scale.warmup(),
            true,
        );
        let r = run_ycsb(
            &remote,
            YcsbMix::A,
            scale.keys,
            connections,
            scale.duration(),
            true,
        );
        ctx.point("YCSB A (wire)")
            .axis("connections", connections)
            .result(&r)
            .emit();
        table_out.row(&[
            format!("{connections} (YCSB A)"),
            "-".into(),
            fmt_mops(r.mops),
            "-".into(),
            "-".into(),
        ]);

        ctx.table(&table_out);
        ctx.table(&worker_table);
        let counters = server.shutdown();
        ctx.note(&format!(
            "Server counters: {} connections, {} ops in {} batches ({} protocol errors, \
             {} panics).",
            counters.connections,
            counters.ops,
            counters.batches,
            counters.protocol_errors,
            counters.panics
        ));
    });
}
