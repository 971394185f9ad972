//! `wire-kv`: one kv-persona `DlhtServer` with one worker over a 4-shard
//! `ShardedTable`, and one client thread sending pipelined windows of 32
//! requests (90% Get, 10% Put) over TCP loopback.

use crate::ledger::{self, check_gets};
use crate::measure::{
    key_of, median, on_threads, run_threads, stream_seed, value_of, Check, Lat, RoundClock,
};
use crate::sys::{Machine, Pinning};
use crate::trace::{Tracer, NO_PARENT};
use crate::{Opts, Report, Source};
use dlht_core::{InsertOutcome, Request, Response, ShardedTable};
use dlht_net::{DlhtClient, DlhtServer, ServerConfig};
use dlht_obs::SampleValue;
use dlht_workloads::Xoshiro256;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

/// Requests per pipelined window.
pub const WINDOW: usize = 32;
/// The `dlht_server` default shard count.
pub const SHARDS: usize = 4;
/// Load slots: the client thread, and the server's threads.
const CLIENT_SLOT: usize = 0;
const SERVER_SLOT: usize = 1;

/// A running server with one connected client.
pub struct Rig {
    pub table: Arc<ShardedTable>,
    server: DlhtServer,
    client: DlhtClient<TcpStream>,
}

impl Rig {
    /// Bind a one-worker server over `table` with its threads on the server
    /// CPU, and connect a client from the calling thread, left on the
    /// client CPU.
    pub fn start(table: Arc<ShardedTable>, pinning: &Pinning) -> std::io::Result<Rig> {
        // Threads inherit the creator's affinity: the acceptor and worker
        // spawned by bind_with land on the server CPU.
        pinning.pin(SERVER_SLOT);
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let server = DlhtServer::bind_with("127.0.0.1:0", table.clone(), config);
        pinning.pin(CLIENT_SLOT);
        let server = server?;
        let mut client = DlhtClient::connect(server.local_addr())?;
        client
            .ping()
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        Ok(Rig {
            table,
            server,
            client,
        })
    }

    pub fn window(&mut self, reqs: &[Request], out: &mut Vec<Response>) -> Result<(), String> {
        out.clear();
        self.client
            .pipelined_into(reqs, out)
            .map_err(|e| e.to_string())
    }

    /// `net.server.request_ns_p50`, `net.server.frames_per_batch` and
    /// `net.tcp.overhead_us`, read from the server's own metrics registry
    /// against the client-side window round trips `rtt`.
    pub fn server_figures(&self, report: &mut Report, rtt: &Lat, source: Source) {
        let snap = self.server.metrics().registry().snapshot();
        let mut hist = dlht_obs::HistogramSnapshot::default();
        for s in snap
            .samples
            .iter()
            .filter(|s| s.name == "dlht_request_latency_ns")
        {
            if let SampleValue::Histogram(h) = &s.value {
                hist.merge(h);
            }
        }
        let request_p50_ns = interpolated_median_ns(&hist);
        let frames = snap.total("dlht_frames_total") as f64;
        let batches = snap.total("dlht_batches_total").max(1) as f64;
        let rtt_p50_us = rtt.percentiles_us(&[0.5])[0];
        let overhead_us = rtt_p50_us - request_p50_ns / 1e3;
        report.set("net.server.request_ns_p50", request_p50_ns, source);
        report.set("net.server.frames_per_batch", frames / batches, source);
        report.set("net.tcp.overhead_us", overhead_us, source);
    }

    pub fn stop(self) {
        drop(self.client);
        let _ = self.server.shutdown();
    }
}

/// Median of a log-bucketed histogram, interpolated linearly inside the
/// bucket that holds it (the bucket's lower bound alone would repeat
/// exactly from run to run).
fn interpolated_median_ns(hist: &dlht_obs::HistogramSnapshot) -> f64 {
    let half = hist.count() as f64 / 2.0;
    let mut seen = 0.0;
    for (lower, upper, count) in hist.nonzero_buckets() {
        let count = count as f64;
        if seen + count >= half {
            return lower as f64 + (upper - lower) as f64 * ((half - seen) / count);
        }
        seen += count;
    }
    0.0
}

/// A table of `keys` keys (value = `value_of(key)`) sized as a user would,
/// populated from both load slots.
fn build_table(check: &mut Check, salt: u64, keys: usize, pinning: &Pinning) -> Arc<ShardedTable> {
    let table = ShardedTable::with_capacity(SHARDS, keys);
    let checks = on_threads(2, pinning, |t| {
        let mut check = Check::new(false);
        for id in (t as u64..keys as u64).step_by(2) {
            let k = key_of(salt, id);
            let r = table.insert(k, value_of(k));
            check.expect(matches!(r, Ok(InsertOutcome::Inserted)), || {
                format!("setup insert {k:#x}: {r:?}")
            });
        }
        check
    });
    for c in checks {
        check.merge(c);
    }
    Arc::new(table)
}

fn check_window(check: &mut Check, reqs: &[Request], out: &[Response]) -> (u64, u64) {
    check.expect(out.len() == reqs.len(), || {
        format!("{} responses to {} requests", out.len(), reqs.len())
    });
    let (mut gets, mut hits) = (0, 0);
    for (req, resp) in reqs.iter().zip(out) {
        match (*req, *resp) {
            (Request::Get(k), _) => {
                gets += 1;
                hits += check_gets(check, &[k], std::slice::from_ref(resp));
            }
            (Request::Put(k, _), Response::Updated(prev)) => {
                check.expect(prev == Some(value_of(k)), || {
                    format!("put {k:#x}: {prev:?}")
                });
            }
            (req, resp) => check.error(|| format!("{req:?} answered {resp:?}")),
        }
    }
    (gets, hits)
}

/// The client thread's state.
struct Client {
    rig: Rig,
    check: Check,
    tracer: Tracer,
    /// Window round trips of the traced rounds.
    traced_rtt: Lat,
    out: Vec<Response>,
    gets: u64,
    hits: u64,
}

impl Client {
    fn new(rig: Rig, check: Check, span_cap: usize) -> Self {
        Client {
            rig,
            check,
            tracer: Tracer::new(Instant::now(), span_cap),
            traced_rtt: Lat::default(),
            out: Vec::with_capacity(WINDOW),
            gets: 0,
            hits: 0,
        }
    }

    /// Send `reqs` as pipelined windows and check every answer; returns
    /// the round trip of each window of an untraced round.
    fn round(&mut self, reqs: &[Request], round: u64, traced: bool) -> Lat {
        let tr = &mut self.tracer;
        tr.set_on(traced);
        let mut lat = Lat::with_capacity(reqs.len() / WINDOW + 1);
        for (i, window) in reqs.chunks(WINDOW).enumerate() {
            let req_id = (round << 32) | i as u64;
            let root = tr.begin("request", NO_PARENT, req_id);
            let w = tr.begin("net.client.pipelined_into", root, req_id);
            let c0 = Instant::now();
            let sent = self.rig.window(window, &mut self.out);
            let c1 = Instant::now();
            tr.end(w);
            if traced {
                self.traced_rtt.record(c0, c1);
            } else {
                lat.record(c0, c1);
            }
            let v = tr.begin("bench.verify", root, req_id);
            match sent {
                Ok(()) => {
                    let (g, h) = check_window(&mut self.check, window, &self.out);
                    self.gets += g;
                    self.hits += h;
                }
                Err(e) => self.check.error(|| format!("window: {e}")),
            }
            tr.end(v);
            tr.end(root);
        }
        lat
    }
}

pub fn run(opts: &Opts, machine: &Machine, pinning: &mut Pinning) -> Report {
    let keys = opts.size(100_000, 4_000);
    let round_windows = opts.size(2048, 64);
    let salt = stream_seed(opts.seed, &[21]);
    let mut report = Report {
        check: Check::new(opts.inject_fault),
        ..Report::default()
    };
    pinning.note("client", CLIENT_SLOT);
    pinning.note("server(acceptor+1 worker)", SERVER_SLOT);
    pinning.pin(CLIENT_SLOT);

    let mut setups = Vec::new();
    let mut rig: Option<Rig> = None;
    let mut setup_stats = None;
    for _ in 0..opts.size(15, 2) {
        if let Some(old) = rig.take() {
            old.stop();
        }
        let t0 = Instant::now();
        let table = build_table(&mut report.check, salt, keys, pinning);
        let stats = table.stats();
        match Rig::start(table, pinning) {
            Ok(r) => {
                setups.push(t0.elapsed().as_secs_f64());
                rig = Some(r);
                setup_stats = Some(stats);
            }
            Err(e) => {
                report.check.error(|| format!("server start: {e}"));
                return report;
            }
        }
    }
    let rig = rig.expect("at least one setup");
    let setup_stats = setup_stats.expect("at least one setup");
    report.header.push(format!(
        "keys={keys} shards={SHARDS} server_workers=1 window={WINDOW} index_bytes={} ({:.3}x LLC)",
        setup_stats.index_bytes,
        setup_stats.index_bytes as f64 / machine.llc_bytes.max(1) as f64
    ));

    let resizes_before = rig.table.resizes();
    let clock = || {
        if opts.trace {
            RoundClock::new(0.0, 9, 9)
        } else {
            RoundClock::new(opts.seconds, 3, 100_000)
        }
    };
    let span_cap = if opts.trace {
        3 * round_windows * 4 + 16
    } else {
        0
    };
    // The client and the answer check move to the load thread and come
    // back when it ends.
    let handoff = std::sync::Mutex::new(Some((rig, std::mem::take(&mut report.check))));
    let (mut rounds, mut clients) = run_threads(
        1,
        pinning,
        clock,
        opts.trace,
        |_| {
            let (rig, check) = handoff
                .lock()
                .expect("handoff lock")
                .take()
                .expect("one client thread");
            Client::new(rig, check, span_cap)
        },
        |_, _, round| {
            let mut rng = Xoshiro256::new(stream_seed(opts.seed, &[22, round]));
            let reqs: Vec<Request> = (0..round_windows * WINDOW)
                .map(|_| {
                    let k = key_of(salt, rng.next_below(keys as u64));
                    if rng.next_below(10) == 0 {
                        Request::Put(k, value_of(k))
                    } else {
                        Request::Get(k)
                    }
                })
                .collect();
            let n = reqs.len();
            ((reqs, round), n)
        },
        |client, (reqs, round), traced| client.round(&reqs, round, traced),
        |client| client,
    );
    let client = clients.pop().expect("one client thread");
    let rig = client.rig;
    report.check = client.check;
    let (gets, hits) = (client.gets, client.hits);
    // Round 0 warms up.
    let (mut measured, mut traced_mops, mut gen_ns) = (Vec::new(), Vec::new(), Vec::new());
    for r in 1..rounds.rounds.len() {
        let mops = rounds.mops(r, (round_windows * WINDOW) as u64);
        let slice = &mut rounds.rounds[r][0];
        gen_ns.push(slice.gen_ns);
        if slice.traced {
            traced_mops.push(mops);
        } else {
            measured.push((mops, std::mem::take(&mut slice.out)));
        }
    }
    let (tracer, traced_lat) = (client.tracer, client.traced_rtt);
    let loop_resizes = rig.table.resizes() - resizes_before;
    let len = rig.table.len();
    report
        .check
        .expect(len == keys, || format!("len() = {len}, expected {keys}"));
    let end_stats = rig.table.stats();
    let round_mops: Vec<f64> = measured.iter().map(|m| m.0).collect();
    report.set_e2e(
        &measured,
        &setups,
        end_stats.index_bytes as f64 / keys as f64,
        hits as f64 / gets.max(1) as f64,
    );

    if opts.trace {
        let sample: Vec<u64> = (0..keys.min(ledger::PROBE_KEYS) as u64)
            .map(|id| key_of(salt, id))
            .collect();
        let mut rng = Xoshiro256::new(stream_seed(opts.seed, &[23]));
        let stream: Vec<u64> = (0..opts.size(1 << 17, 1 << 12))
            .map(|_| key_of(salt, rng.next_below(keys as u64)))
            .collect();
        rig.server_figures(&mut report, &traced_lat, Source::Own);
        report.own(
            "hash.ns_per_key",
            ledger::hash_ns_per_key(rig.table.config().hash, &stream),
        );
        report.own("core.table.setup_resizes", setup_stats.resizes as f64);
        report.own("core.table.occupancy", setup_stats.occupancy);
        report.own(
            "core.table.links_used_ratio",
            setup_stats.links_used as f64 / setup_stats.link_buckets.max(1) as f64,
        );
        report.own("core.resize.loop_resizes", loop_resizes as f64);
        report.own(
            "epoch.retired_indexes_end",
            rig.table.retired_indexes() as f64,
        );
        report.own(
            "epoch.collect_ns",
            ledger::collect_ns(|| rig.table.collect_retired()),
        );
        let v = ledger::sharded_ns_per_op(&mut report.check, &rig.table, &stream);
        report.own("core.sharded.ns_per_op", v);
        let v = ledger::service_ns_per_frame(&mut report.check, &rig.table, &stream);
        report.own("net.service.ns_per_frame", v);
        report.own("workloads.gen_ns_per_op", median(&gen_ns));
        crate::trace::finish(opts, &mut report, &[tracer], &round_mops, &traced_mops);
        rig.stop();
        ledger::fill_probes(opts, &mut report, &sample, pinning);
    } else {
        rig.stop();
    }
    report
}

/// Server probe for workloads that do not reach the network layers:
/// windows of Gets from `stream` against a server over `table`.
pub fn server_probe(report: &mut Report, table: ShardedTable, stream: &[u64], pinning: &Pinning) {
    let mut rig = match Rig::start(Arc::new(table), pinning) {
        Ok(r) => r,
        Err(e) => return report.check.error(|| format!("probe server start: {e}")),
    };
    let mut rtt = Lat::default();
    let mut out = Vec::with_capacity(WINDOW);
    let mut window = Vec::with_capacity(WINDOW);
    for chunk in stream.chunks(WINDOW) {
        window.clear();
        window.extend(chunk.iter().map(|&k| Request::Get(k)));
        let c0 = Instant::now();
        let sent = rig.window(&window, &mut out);
        rtt.record(c0, Instant::now());
        match sent {
            Ok(()) => {
                check_window(&mut report.check, &window, &out);
            }
            Err(e) => report.check.error(|| format!("probe window: {e}")),
        }
    }
    rig.server_figures(report, &rtt, Source::Probe);
    rig.stop();
}
