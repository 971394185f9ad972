//! The server's observability surface: one [`ServerMetrics`] per
//! [`crate::DlhtServer`] owning a `dlht-obs` [`MetricsRegistry`] (striped
//! counters, gauges, per-opcode/per-command latency histograms), the
//! per-worker slow-op [`TraceRing`]s, and the admin plane's HTTP
//! responders (`GET /metrics`, `/metrics.json`, `/trace`).
//!
//! Lane discipline: every worker thread passes its own lane index into the
//! striped instruments so hot-path increments never share a cache line;
//! the acceptor stamps each connection with its destination worker's lane
//! and the connection's drop guard decrements that same lane, keeping the
//! `active` gauge exact per cell. The admin plane uses lane 0 (low rate).

use crate::server::ServerCounters;
use dlht_core::{CacheMap, CacheStats, Request, ShardedTable, TableStats};
use dlht_obs::json::Json;
use dlht_obs::{
    bytes_fingerprint, key_fingerprint, Capture, Counter, Gauge, Histogram, MetricsRegistry,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Entries kept per worker in the slow-op ring (newest win).
pub const TRACE_RING_CAP: usize = 64;

/// Header-size cap for admin-plane HTTP requests.
pub(crate) const MAX_HTTP_HEADER: usize = 8 * 1024;

/// One slow (or, with `--trace-slow-us 0`, any) request captured by a
/// worker's trace ring — the p999-debugging breadcrumb: what ran, how
/// long, where, and how deep the pipeline was around it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Opcode (kv) or command (memcache) name.
    pub op: &'static str,
    /// Fingerprint of the key (SplitMix64 / FNV-1a mix — never the raw
    /// key).
    pub key_hash: u64,
    /// Decode→response-queued latency in microseconds.
    pub micros: u64,
    /// Shard the key routes to (0 where not applicable).
    pub shard: u32,
    /// Requests in the same drained pipeline window.
    pub queue_depth: u32,
    /// Monotone per-ring sequence number (ordering within a lane).
    pub seq: u64,
}

/// A fixed-size ring of the most recent qualifying requests on one worker.
#[derive(Debug)]
pub struct TraceRing {
    entries: dlht_util::Mutex<VecDeque<TraceEntry>>,
    seq: AtomicU64,
}

impl TraceRing {
    fn new() -> TraceRing {
        TraceRing {
            entries: dlht_util::Mutex::new(VecDeque::with_capacity(TRACE_RING_CAP)),
            seq: AtomicU64::new(0),
        }
    }

    // HOT: runs on the data path whenever a request crosses the slow
    // threshold (every request at `--trace-slow-us 0`); the dlht-util
    // mutex has no poisoning, so this stays panic-free.
    fn push(&self, mut entry: TraceEntry) {
        // ORDERING: seq only orders entries within this ring; Relaxed.
        entry.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.entries.lock();
        if entries.len() >= TRACE_RING_CAP {
            entries.pop_front();
        }
        entries.push_back(entry);
    }

    fn drain_to(&self, out: &mut Vec<TraceEntry>) {
        out.extend(self.entries.lock().iter().cloned());
    }
}

/// Per-opcode (kv) or per-command (memcache) latency histogram handles.
enum ProtoHists {
    Kv {
        get: Histogram,
        put: Histogram,
        insert: Histogram,
        delete: Histogram,
        batch: Histogram,
    },
    Cache {
        /// Indexed by [`classify_line`]'s command index.
        cmds: Box<[(&'static str, Histogram)]>,
    },
}

/// The memcache commands that get their own latency series (index order is
/// [`classify_line`]'s contract); anything else lands in `other`.
const MC_COMMANDS: [&str; 10] = [
    "get", "gets", "set", "add", "replace", "delete", "touch", "incr", "decr", "other",
];

/// Map a memcache command line to `(command index, key fingerprint)`. The
/// index addresses [`MC_COMMANDS`]; the fingerprint mixes the first key
/// token (0 when the command carries none).
// HOT: runs once per command line on the memcache data path; panic-free.
pub(crate) fn classify_line(line: &[u8]) -> (usize, u64) {
    let mut parts = line.splitn(3, |&b| b == b' ').filter(|t| !t.is_empty());
    let cmd = parts.next().unwrap_or(b"");
    let idx = match cmd {
        b"get" => 0,
        b"gets" => 1,
        b"set" => 2,
        b"add" => 3,
        b"replace" => 4,
        b"delete" => 5,
        b"touch" => 6,
        b"incr" => 7,
        b"decr" => 8,
        _ => 9,
    };
    let key_fp = parts.next().map_or(0, bytes_fingerprint);
    (idx, key_fp)
}

/// The whole observability state of one running server: registry,
/// server-wide counter/gauge handles, per-persona latency histograms, and
/// the per-worker trace rings.
pub struct ServerMetrics {
    registry: Arc<MetricsRegistry>,
    pub(crate) connections: Counter,
    pub(crate) frames: Counter,
    pub(crate) ops: Counter,
    pub(crate) batches: Counter,
    pub(crate) protocol_errors: Counter,
    pub(crate) panics: Counter,
    pub(crate) admin_frames: Counter,
    pub(crate) admin_http_requests: Counter,
    pub(crate) active: Gauge,
    proto: ProtoHists,
    trace: Box<[Arc<TraceRing>]>,
    trace_slow_us: Option<u64>,
}

impl ServerMetrics {
    fn new_common(lanes: usize, trace_slow_us: Option<u64>, proto: ProtoHists) -> ServerMetrics {
        let registry = Arc::new(MetricsRegistry::new(lanes));
        ServerMetrics {
            connections: registry.counter(
                "dlht_connections_total",
                "Data connections accepted since bind",
            ),
            frames: registry.counter(
                "dlht_frames_total",
                "Request frames (kv) / command lines (memcache) decoded",
            ),
            ops: registry.counter("dlht_ops_total", "Table operations executed"),
            batches: registry.counter(
                "dlht_batches_total",
                "Batch executions (drained pipeline windows + explicit BATCH frames)",
            ),
            protocol_errors: registry.counter(
                "dlht_protocol_errors_total",
                "Connections closed for violating the protocol",
            ),
            panics: registry.counter(
                "dlht_panics_total",
                "Connections torn down by an unwind-caught handler panic",
            ),
            admin_frames: registry.counter(
                "dlht_admin_frames_total",
                "Binary frames served by the admin plane",
            ),
            admin_http_requests: registry.counter(
                "dlht_admin_http_requests_total",
                "HTTP requests served by the admin plane",
            ),
            active: registry.gauge("dlht_active_connections", "Data connections currently open"),
            proto,
            trace: (0..lanes.max(1))
                .map(|_| Arc::new(TraceRing::new()))
                .collect(),
            trace_slow_us,
            registry,
        }
    }

    /// Metrics for a kv-persona server with `lanes` workers.
    pub(crate) fn new_kv(lanes: usize, trace_slow_us: Option<u64>) -> ServerMetrics {
        let mut metrics = Self::new_common(
            lanes,
            trace_slow_us,
            ProtoHists::Cache { cmds: Box::new([]) },
        );
        let reg = metrics.registry.clone();
        let hist = |op: &str| {
            reg.histogram_with(
                "dlht_request_latency_ns",
                "Decode-to-response-queued request latency",
                &[("op", op)],
            )
        };
        metrics.proto = ProtoHists::Kv {
            get: hist("get"),
            put: hist("put"),
            insert: hist("insert"),
            delete: hist("delete"),
            batch: hist("batch"),
        };
        metrics
    }

    /// Metrics for a memcache-persona server with `lanes` workers.
    pub(crate) fn new_cache(lanes: usize, trace_slow_us: Option<u64>) -> ServerMetrics {
        let mut metrics = Self::new_common(
            lanes,
            trace_slow_us,
            ProtoHists::Cache { cmds: Box::new([]) },
        );
        let cmds: Box<[(&'static str, Histogram)]> = MC_COMMANDS
            .iter()
            .map(|&cmd| {
                (
                    cmd,
                    metrics.registry.histogram_with(
                        "dlht_request_latency_ns",
                        "Decode-to-response-queued request latency",
                        &[("cmd", cmd)],
                    ),
                )
            })
            .collect();
        metrics.proto = ProtoHists::Cache { cmds };
        metrics
    }

    /// The underlying registry, for scrape-time callback registration
    /// (table/cache gauges, buffer bytes).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The per-opcode recording handle for worker `lane` (kv persona only).
    pub(crate) fn kv_obs(&self, lane: usize) -> Option<ServiceObs> {
        match &self.proto {
            ProtoHists::Kv {
                get,
                put,
                insert,
                delete,
                batch,
            } => Some(ServiceObs {
                get: get.clone(),
                put: put.clone(),
                insert: insert.clone(),
                delete: delete.clone(),
                batch: batch.clone(),
                trace: self.lane_ring(lane),
                trace_slow_us: self.trace_slow_us,
            }),
            ProtoHists::Cache { .. } => None,
        }
    }

    /// The per-command recording handle for worker `lane` (memcache only).
    pub(crate) fn mc_obs(&self, lane: usize) -> Option<McObs> {
        match &self.proto {
            ProtoHists::Cache { cmds } => Some(McObs {
                cmds: cmds.clone().into(),
                trace: self.lane_ring(lane),
                trace_slow_us: self.trace_slow_us,
            }),
            ProtoHists::Kv { .. } => None,
        }
    }

    fn lane_ring(&self, lane: usize) -> Arc<TraceRing> {
        let idx = lane % self.trace.len().max(1);
        self.trace
            .get(idx)
            .cloned()
            .unwrap_or_else(|| Arc::new(TraceRing::new()))
    }

    /// All trace-ring entries across every worker, slowest first.
    pub fn trace_entries(&self) -> Vec<TraceEntry> {
        let mut out = Vec::new();
        for ring in self.trace.iter() {
            ring.drain_to(&mut out);
        }
        out.sort_by(|a, b| b.micros.cmp(&a.micros).then(b.seq.cmp(&a.seq)));
        out
    }

    /// The legacy counter snapshot ([`crate::DlhtServer::counters`]),
    /// folded from the striped registry cells.
    pub fn server_counters(&self) -> ServerCounters {
        // ORDERING: uniformly Relaxed (inside Counter/Gauge::value) — this
        // is a statistical snapshot with no synchronizing role; exactness
        // at quiescence comes from the thread joins in shutdown(), not from
        // memory ordering here.
        ServerCounters {
            connections: self.connections.value(),
            active: self.active.value(),
            frames: self.frames.value(),
            ops: self.ops.value(),
            batches: self.batches.value(),
            protocol_errors: self.protocol_errors.value(),
            panics: self.panics.value(),
            admin_frames: self.admin_frames.value(),
        }
    }

    /// Render the registry as Prometheus text exposition.
    pub fn render_prometheus(&self) -> String {
        self.registry.snapshot().render_prometheus()
    }

    /// Render the registry as a `dlht-obs/v1` JSON document.
    pub fn render_json(&self) -> String {
        self.registry.snapshot().to_json().render()
    }

    /// Render the slow-op trace rings as a JSON document.
    pub fn render_trace_json(&self) -> String {
        let entries: Vec<Json> = self
            .trace_entries()
            .into_iter()
            .map(|e| {
                Json::obj([
                    ("op".to_string(), Json::from(e.op)),
                    ("key_hash".to_string(), Json::from(e.key_hash)),
                    ("micros".to_string(), Json::from(e.micros)),
                    ("shard".to_string(), Json::from(e.shard)),
                    ("queue_depth".to_string(), Json::from(e.queue_depth)),
                    ("seq".to_string(), Json::from(e.seq)),
                ])
            })
            .collect();
        Json::obj([
            ("schema".to_string(), Json::from("dlht-trace/v1")),
            (
                "trace_slow_us".to_string(),
                match self.trace_slow_us {
                    Some(us) => Json::from(us),
                    None => Json::Null,
                },
            ),
            ("entries".to_string(), Json::Arr(entries)),
        ])
        .render()
    }
}

/// (metric name, help, field picker) for stats-backed callback metrics.
type StatMetric<T> = (&'static str, &'static str, fn(&T) -> u64);

/// One scrape's capture of the table behind either persona: every
/// callback metric of a scrape reads the same capture.
struct Scrape {
    /// The whole table (for the kv persona, the sum of `shards`).
    table: TableStats,
    /// Per-shard stats (kv persona only).
    shards: Vec<TableStats>,
    retired: usize,
    /// Cache counters (cache persona only).
    cache: CacheStats,
}

/// The table gauges both personas export.
fn register_table_gauges(registry: &MetricsRegistry, cap: &Capture<Scrape>) {
    let table: [StatMetric<TableStats>; 4] = [
        (
            "dlht_table_occupied_slots",
            "Occupied slots across all shards",
            |t| t.occupied_slots as u64,
        ),
        (
            "dlht_table_addressable_slots",
            "Addressable slots across all shards",
            |t| t.addressable_slots as u64,
        ),
        (
            "dlht_table_max_slots",
            "Slots if every link bucket were chained (the occupancy denominator)",
            |t| t.max_slots as u64,
        ),
        (
            "dlht_table_occupancy_ppm",
            "Table occupancy in parts per million",
            |t| (t.occupancy * 1e6) as u64,
        ),
    ];
    for (name, help, pick) in table {
        registry.gauge_fn(name, help, &[], cap.read(move |s| pick(&s.table)));
    }
    registry.counter_fn(
        "dlht_table_resizes_total",
        "Completed index resizes across all shards",
        &[],
        cap.read(|s| s.table.resizes),
    );
    registry.gauge_fn(
        "dlht_table_retired_indexes",
        "Old index generations awaiting epoch reclamation",
        &[],
        cap.read(|s| s.retired as u64),
    );
}

/// Register the kv persona's table gauges: scrape-time callbacks over one
/// capture of the live [`ShardedTable`] per scrape. (`LEN`/live-key
/// counting is deliberately not exposed — it is linear-time per scrape.)
pub(crate) fn register_kv_gauges(registry: &MetricsRegistry, table: Arc<ShardedTable>) {
    let shards = table.shard_stats().len();
    let cap = registry.capture(move || {
        let shards = table.shard_stats();
        Scrape {
            table: shards.iter().cloned().sum(),
            shards,
            retired: table.retired_indexes(),
            cache: CacheStats::default(),
        }
    });
    register_table_gauges(registry, &cap);
    registry.gauge_fn(
        "dlht_table_index_bytes",
        "Bytes of index structure across all shards",
        &[],
        cap.read(|s| s.table.index_bytes as u64),
    );
    for shard in 0..shards {
        let label = shard.to_string();
        registry.gauge_fn(
            "dlht_shard_occupied_slots",
            "Occupied slots in one shard",
            &[("shard", label.as_str())],
            cap.read(move |s| s.shards.get(shard).map_or(0, |t| t.occupied_slots as u64)),
        );
        registry.gauge_fn(
            "dlht_shard_generation",
            "Resize generation of one shard's index",
            &[("shard", label.as_str())],
            cap.read(move |s| s.shards.get(shard).map_or(0, |t| u64::from(t.generation))),
        );
    }
}

/// Register the cache persona's gauges and counters: the table structure
/// plus the hit/expiry/eviction and memory-awareness story (§5), all read
/// from one capture of the [`CacheMap`] per scrape.
pub(crate) fn register_cache_gauges(registry: &MetricsRegistry, cache: Arc<CacheMap>) {
    let cap = registry.capture(move || Scrape {
        table: cache.table_stats(),
        shards: Vec::new(),
        retired: cache.retired_indexes(),
        cache: cache.stats(),
    });
    register_table_gauges(registry, &cap);
    let counters: [StatMetric<CacheStats>; 6] = [
        ("dlht_cache_hits_total", "get hits", |s| s.hits),
        ("dlht_cache_misses_total", "get misses", |s| s.misses),
        ("dlht_cache_sets_total", "Completed stores", |s| s.sets),
        ("dlht_cache_expired_total", "Entries expired by TTL", |s| {
            s.expired
        }),
        (
            "dlht_cache_evicted_total",
            "Entries evicted under the memory budget",
            |s| s.evicted,
        ),
        ("dlht_cache_flushes_total", "flush_all invocations", |s| {
            s.flushes
        }),
    ];
    for (name, help, pick) in counters {
        registry.counter_fn(name, help, &[], cap.read(move |s| pick(&s.cache)));
    }
    let gauges: [StatMetric<CacheStats>; 6] = [
        ("dlht_cache_items", "Live cache entries", |s| s.items),
        (
            "dlht_cache_value_bytes",
            "Resident value bytes (the memory-budget numerator)",
            |s| s.value_bytes,
        ),
        ("dlht_cache_index_bytes", "Bytes of index structure", |s| {
            s.index_bytes
        }),
        (
            "dlht_cache_memory_budget_bytes",
            "Configured memory budget (0 = unlimited)",
            |s| s.budget,
        ),
        (
            "dlht_pending_reclaim_bytes",
            "Bytes retired but not yet epoch-reclaimed",
            |s| s.pending_reclaim_bytes,
        ),
        (
            "dlht_cache_uptime_seconds",
            "Seconds since the cache was built",
            |s| u64::from(s.uptime_secs),
        ),
    ];
    for (name, help, pick) in gauges {
        registry.gauge_fn(name, help, &[], cap.read(move |s| pick(&s.cache)));
    }
}

/// Per-worker recording handle for the kv persona: one histogram per
/// opcode plus this lane's trace ring.
#[derive(Clone)]
pub struct ServiceObs {
    get: Histogram,
    put: Histogram,
    insert: Histogram,
    delete: Histogram,
    batch: Histogram,
    trace: Arc<TraceRing>,
    trace_slow_us: Option<u64>,
}

impl ServiceObs {
    // HOT: once per request on the kv data path; panic-free.
    /// Record one request's decode→response-queued latency and, past the
    /// slow threshold, a trace entry. `shard` is asked only for a trace
    /// entry, so an untraced request does not pay for its routing.
    #[inline]
    pub(crate) fn record_request(
        &self,
        req: &Request,
        shard: impl FnOnce() -> u32,
        queue_depth: u32,
        ns: u64,
    ) {
        let (op, hist) = match req {
            Request::Get(_) => ("get", &self.get),
            Request::Put(..) => ("put", &self.put),
            Request::Insert(..) => ("insert", &self.insert),
            Request::Delete(_) => ("delete", &self.delete),
        };
        hist.record(ns);
        if let Some(limit) = self.trace_slow_us {
            let micros = ns / 1_000;
            if micros >= limit {
                self.trace.push(TraceEntry {
                    op,
                    key_hash: key_fingerprint(req.key()),
                    micros,
                    shard: shard(),
                    queue_depth,
                    seq: 0,
                });
            }
        }
    }

    // HOT: once per explicit BATCH frame on the kv data path; panic-free.
    /// Record one explicit `BATCH` frame's end-to-end latency and, past the
    /// slow threshold, a trace entry (`key_hash` fingerprints the batch's
    /// first key; `queue_depth` is the batch size).
    #[inline]
    pub(crate) fn record_batch(&self, first_key: Option<u64>, len: u32, ns: u64) {
        self.batch.record(ns);
        if let Some(limit) = self.trace_slow_us {
            let micros = ns / 1_000;
            if micros >= limit {
                self.trace.push(TraceEntry {
                    op: "batch",
                    key_hash: first_key.map_or(0, key_fingerprint),
                    micros,
                    shard: 0,
                    queue_depth: len,
                    seq: 0,
                });
            }
        }
    }
}

/// Per-worker recording handle for the memcache persona: one histogram per
/// command (indexed by `classify_line`) plus this lane's trace ring.
#[derive(Clone)]
pub struct McObs {
    cmds: Arc<[(&'static str, Histogram)]>,
    trace: Arc<TraceRing>,
    trace_slow_us: Option<u64>,
}

impl McObs {
    // HOT: once per command line on the memcache data path; panic-free.
    /// Record one command's decode→response-queued latency and, past the
    /// slow threshold, a trace entry.
    #[inline]
    pub(crate) fn record(&self, cmd_idx: usize, key_fp: u64, ns: u64) {
        let Some((name, hist)) = self.cmds.get(cmd_idx) else {
            return;
        };
        hist.record(ns);
        if let Some(limit) = self.trace_slow_us {
            let micros = ns / 1_000;
            if micros >= limit {
                self.trace.push(TraceEntry {
                    op: name,
                    key_hash: key_fp,
                    micros,
                    shard: 0,
                    queue_depth: 0,
                    seq: 0,
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Admin-plane HTTP
// ---------------------------------------------------------------------------

/// Build the full HTTP/1.1 response for one admin request whose header
/// block is in `head`. Always `Connection: close` — the admin plane serves
/// one HTTP request per connection.
pub(crate) fn respond_http(metrics: &ServerMetrics, head: &[u8]) -> Vec<u8> {
    let first_line = head
        .split(|&b| b == b'\r' || b == b'\n')
        .next()
        .unwrap_or(b"");
    let mut parts = first_line.split(|&b| b == b' ').filter(|t| !t.is_empty());
    let method = parts.next().unwrap_or(b"");
    let path = parts.next().unwrap_or(b"");
    if method != b"GET" {
        return http_response(
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n",
        );
    }
    // Strip any query string; the endpoints take no parameters.
    let path = path.split(|&b| b == b'?').next().unwrap_or(b"");
    match path {
        b"/metrics" => http_response(
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            &metrics.render_prometheus(),
        ),
        b"/metrics.json" => http_response("200 OK", "application/json", &metrics.render_json()),
        b"/trace" => http_response("200 OK", "application/json", &metrics.render_trace_json()),
        _ => http_response("404 Not Found", "text/plain; charset=utf-8", "not found\n"),
    }
}

fn http_response(status: &str, content_type: &str, body: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 128);
    out.extend_from_slice(b"HTTP/1.1 ");
    out.extend_from_slice(status.as_bytes());
    out.extend_from_slice(b"\r\nContent-Type: ");
    out.extend_from_slice(content_type.as_bytes());
    out.extend_from_slice(b"\r\nContent-Length: ");
    out.extend_from_slice(body.len().to_string().as_bytes());
    out.extend_from_slice(b"\r\nConnection: close\r\n\r\n");
    out.extend_from_slice(body.as_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_line_maps_commands_and_keys() {
        assert_eq!(classify_line(b"get foo").0, 0);
        assert_eq!(classify_line(b"gets foo bar").0, 1);
        assert_eq!(classify_line(b"set k 0 0 3").0, 2);
        assert_eq!(classify_line(b"incr n 5").0, 7);
        assert_eq!(classify_line(b"version").0, 9);
        assert_eq!(classify_line(b""), (9, 0));
        let (_, fp) = classify_line(b"get foo");
        assert_eq!(fp, bytes_fingerprint(b"foo"));
        // Collapsed spaces still find the key token.
        assert_eq!(classify_line(b"get  foo").1, fp);
    }

    #[test]
    fn trace_ring_keeps_newest_and_sorts_slowest_first() {
        let metrics = ServerMetrics::new_kv(2, Some(0));
        let obs = metrics.kv_obs(0).unwrap();
        for i in 0..(TRACE_RING_CAP as u64 + 10) {
            obs.record_request(&Request::Get(i), || 1, 4, i * 1_000);
        }
        let entries = metrics.trace_entries();
        assert_eq!(entries.len(), TRACE_RING_CAP, "ring is bounded");
        // Slowest first, and the oldest (fastest) entries were evicted.
        assert!(entries[0].micros >= entries[entries.len() - 1].micros);
        assert_eq!(entries[0].micros, TRACE_RING_CAP as u64 + 9);
        assert_eq!(entries[0].op, "get");
        assert_eq!(entries[0].shard, 1);
        assert_eq!(entries[0].queue_depth, 4);
    }

    #[test]
    fn trace_threshold_filters() {
        let metrics = ServerMetrics::new_kv(1, Some(100));
        let obs = metrics.kv_obs(0).unwrap();
        // An untraced request never asks for its shard.
        let untraced = || panic!("shard asked for an untraced request");
        obs.record_request(&Request::Get(1), untraced, 1, 50_000); // 50 µs: below
        obs.record_request(&Request::Put(2, 2), || 0, 1, 250_000); // 250 µs: above
        let entries = metrics.trace_entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].op, "put");
        let disabled = ServerMetrics::new_kv(1, None);
        let obs = disabled.kv_obs(0).unwrap();
        obs.record_request(&Request::Get(1), untraced, 1, u64::MAX / 2);
        assert!(disabled.trace_entries().is_empty());
    }

    #[test]
    fn http_responder_routes() {
        let metrics = ServerMetrics::new_kv(1, Some(0));
        let ok = respond_http(&metrics, b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        let text = String::from_utf8(ok).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("dlht_connections_total 0"), "{text}");
        assert!(text.contains("dlht_request_latency_ns_bucket"), "{text}");
        let json = respond_http(&metrics, b"GET /metrics.json?x=1 HTTP/1.1\r\n\r\n");
        assert!(String::from_utf8(json).unwrap().contains("dlht-obs/v1"));
        let trace = respond_http(&metrics, b"GET /trace HTTP/1.1\r\n\r\n");
        assert!(String::from_utf8(trace).unwrap().contains("dlht-trace/v1"));
        let missing = respond_http(&metrics, b"GET /nope HTTP/1.1\r\n\r\n");
        assert!(String::from_utf8(missing)
            .unwrap()
            .starts_with("HTTP/1.1 404"));
        let post = respond_http(&metrics, b"POST /metrics HTTP/1.1\r\n\r\n");
        assert!(String::from_utf8(post).unwrap().starts_with("HTTP/1.1 405"));
    }

    #[test]
    fn mc_obs_records_per_command() {
        let metrics = ServerMetrics::new_cache(2, Some(0));
        let obs = metrics.mc_obs(1).unwrap();
        let (idx, fp) = classify_line(b"set k 0 0 3");
        obs.record(idx, fp, 42_000);
        let text = metrics.render_prometheus();
        assert!(
            text.contains("dlht_request_latency_ns_count{cmd=\"set\"} 1"),
            "{text}"
        );
        assert_eq!(metrics.trace_entries()[0].op, "set");
    }

    #[test]
    fn server_counters_fold_lanes() {
        let metrics = ServerMetrics::new_kv(4, None);
        metrics.connections.incr(0);
        metrics.connections.incr(3);
        metrics.active.add(1, 1);
        metrics.active.sub(1, 1);
        metrics.ops.add(2, 10);
        let c = metrics.server_counters();
        assert_eq!(c.connections, 2);
        assert_eq!(c.active, 0);
        assert_eq!(c.ops, 10);
    }
}
