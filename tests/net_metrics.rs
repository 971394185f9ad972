//! End-to-end observability: a live server in each persona must serve a
//! parseable Prometheus exposition (and its JSON twin, and the slow-op
//! trace ring) on the admin plane, with the counters/histograms/gauges
//! reflecting the traffic that actually happened — while the binary
//! `STATS` dialect keeps working on the same port.

use dlht_core::{CacheConfig, CacheMap, EvictionPolicy, ShardedTable};
use dlht_net::{DlhtClient, DlhtServer, ServerConfig};
use dlht_obs::{json::Json, parse_prometheus, sum_samples, PromSample};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One admin-plane HTTP request; returns (status line, body).
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect admin");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header terminator");
    (
        head.lines().next().unwrap_or("").to_string(),
        body.to_string(),
    )
}

fn scrape(addr: SocketAddr) -> Vec<PromSample> {
    let (status, body) = http_get(addr, "/metrics");
    assert!(status.contains(" 200 "), "scrape status: {status}");
    parse_prometheus(&body).expect("valid Prometheus exposition")
}

/// Poll `cond` against fresh scrapes until it holds (worker gauges update
/// once per event-loop pass, so a just-closed connection needs a beat).
fn wait_for(addr: SocketAddr, what: &str, cond: impl Fn(&[PromSample]) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let samples = scrape(addr);
        if cond(&samples) {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn kv_server() -> (DlhtServer, Arc<ShardedTable>) {
    let table = Arc::new(ShardedTable::with_capacity(4, 4_096));
    let server = DlhtServer::bind_with(
        "127.0.0.1:0",
        table.clone(),
        ServerConfig {
            workers: 2,
            admin_addr: Some("127.0.0.1:0".to_string()),
            trace_slow_us: Some(0),
            ..ServerConfig::default()
        },
    )
    .expect("bind kv");
    (server, table)
}

#[test]
fn kv_server_serves_prometheus_exposition() {
    let (server, _table) = kv_server();
    let admin = server.admin_addr().expect("admin plane");

    let mut client = DlhtClient::connect(server.local_addr()).expect("connect");
    let ops = 40u64;
    for k in 0..ops / 2 {
        assert!(client.insert(k, k * 7).unwrap().inserted());
        assert_eq!(client.get(k).unwrap(), Some(k * 7));
    }

    let samples = scrape(admin);
    // Request accounting: every op was counted, and per-opcode histograms
    // saw every request (ops ≥ frames would hold too — each frame here is
    // one op).
    assert_eq!(sum_samples(&samples, "dlht_connections_total"), Some(1.0));
    let total_ops = sum_samples(&samples, "dlht_ops_total").expect("ops counter");
    let frames = sum_samples(&samples, "dlht_frames_total").expect("frames counter");
    assert!(total_ops >= ops as f64, "ops = {total_ops}");
    assert!(
        total_ops >= frames - 1.0,
        "ops {total_ops} vs frames {frames}"
    );
    let hist_count =
        sum_samples(&samples, "dlht_request_latency_ns_count").expect("latency histogram");
    assert_eq!(hist_count, ops as f64, "every request sampled");
    let inserts = samples
        .iter()
        .find(|s| s.name == "dlht_request_latency_ns_count" && s.label("op") == Some("insert"))
        .expect("per-opcode series");
    assert_eq!(inserts.value, (ops / 2) as f64);
    let sum_ns = sum_samples(&samples, "dlht_request_latency_ns_sum").expect("latency sum");
    assert!(sum_ns > 0.0, "latencies are non-zero");
    // Table structure gauges reflect the live table.
    assert_eq!(
        sum_samples(&samples, "dlht_table_occupied_slots"),
        Some((ops / 2) as f64)
    );
    assert!(sum_samples(&samples, "dlht_table_occupancy_ppm").unwrap() > 0.0);
    assert!(sum_samples(&samples, "dlht_table_resizes_total").is_some());
    assert!(sum_samples(&samples, "dlht_table_retired_indexes").is_some());
    // Per-shard gauges: one series per shard, summing to the total.
    let shard_sum = sum_samples(&samples, "dlht_shard_occupied_slots").expect("per-shard gauges");
    assert_eq!(shard_sum, (ops / 2) as f64);
    assert_eq!(
        samples
            .iter()
            .filter(|s| s.name == "dlht_shard_generation")
            .count(),
        4
    );
    assert_eq!(sum_samples(&samples, "dlht_workers"), Some(2.0));

    // The connection is open: active = 1, buffer bytes pinned. After the
    // client leaves, both drain to zero.
    assert_eq!(sum_samples(&samples, "dlht_active_connections"), Some(1.0));
    drop(client);
    wait_for(admin, "connection teardown", |s| {
        sum_samples(s, "dlht_active_connections") == Some(0.0)
            && sum_samples(s, "dlht_buffer_bytes") == Some(0.0)
    });

    server.shutdown();
}

#[test]
fn one_scrape_reads_one_table_capture() {
    let (server, table) = kv_server();
    let admin = server.admin_addr().expect("admin plane");
    let stop = Arc::new(AtomicBool::new(false));
    let inserter = {
        let (table, stop) = (table.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut k = 1u64;
            while !stop.load(Ordering::Relaxed) && k < 400_000 {
                assert!(table.insert(k, k).expect("insert").inserted());
                k += 1;
            }
            k - 1
        })
    };
    let mut seen = Vec::new();
    for _ in 0..30 {
        let samples = scrape(admin);
        let get = |name| sum_samples(&samples, name).expect(name);
        let occupied = get("dlht_table_occupied_slots");
        let addressable = get("dlht_table_addressable_slots");
        let max_slots = get("dlht_table_max_slots");
        let ppm = get("dlht_table_occupancy_ppm");
        // Every gauge of a scrape reads the same capture, even while the
        // table grows and resizes under it.
        let expected = (occupied * 1e6 / max_slots).floor();
        assert!(
            (ppm - expected).abs() <= 1.0,
            "occupancy {ppm} ppm vs {occupied}/{max_slots} slots in one scrape"
        );
        assert!(occupied <= addressable && addressable <= max_slots);
        assert_eq!(get("dlht_shard_occupied_slots"), occupied);
        seen.push(occupied);
    }
    stop.store(true, Ordering::Relaxed);
    let inserted = inserter.join().unwrap();
    seen.dedup();
    assert!(
        seen.len() > 1,
        "no scrape overlapped the {inserted} inserts: {seen:?}"
    );
    server.shutdown();
}

#[test]
fn kv_admin_plane_speaks_json_trace_and_binary_stats() {
    let (server, _table) = kv_server();
    let admin = server.admin_addr().expect("admin plane");

    let mut client = DlhtClient::connect(server.local_addr()).expect("connect");
    assert!(client.insert(1, 10).unwrap().inserted());
    assert_eq!(client.get(1).unwrap(), Some(10));

    // JSON twin parses and carries the same families.
    let (status, body) = http_get(admin, "/metrics.json");
    assert!(status.contains(" 200 "), "{status}");
    let doc = Json::parse(&body).expect("valid JSON");
    assert_eq!(
        doc.get("schema").and_then(|s| s.as_str()),
        Some("dlht-obs/v1")
    );
    let metrics = doc
        .get("metrics")
        .and_then(|m| m.as_array())
        .expect("metrics array");
    assert!(metrics
        .iter()
        .any(|m| m.get("name").and_then(|n| n.as_str()) == Some("dlht_ops_total")));

    // Slow-op ring at --trace-slow-us 0 captured the requests.
    let (status, body) = http_get(admin, "/trace");
    assert!(status.contains(" 200 "), "{status}");
    let doc = Json::parse(&body).expect("valid trace JSON");
    assert_eq!(
        doc.get("schema").and_then(|s| s.as_str()),
        Some("dlht-trace/v1")
    );
    let entries = doc
        .get("entries")
        .and_then(|e| e.as_array())
        .expect("entries array");
    assert!(!entries.is_empty(), "threshold 0 traces every request");
    let ops: Vec<&str> = entries
        .iter()
        .filter_map(|e| e.get("op").and_then(|o| o.as_str()))
        .collect();
    assert!(ops.contains(&"insert") && ops.contains(&"get"), "{ops:?}");
    for e in entries {
        assert!(e.get("micros").and_then(|m| m.as_u64()).is_some());
        assert!(e.get("key_hash").is_some());
        assert!(e.get("queue_depth").is_some());
    }

    // Unknown paths and non-GET methods answer without closing the server.
    let (status, _) = http_get(admin, "/nope");
    assert!(status.starts_with("HTTP/1.1 404"), "{status}");

    // The binary dialect still works on the very same port.
    let mut admin_client = DlhtClient::connect(admin).expect("binary admin client");
    admin_client.ping().unwrap();
    let stats = admin_client.stats().unwrap();
    assert_eq!(stats.table.occupied_slots, 1);

    let counters = server.shutdown();
    assert_eq!(counters.protocol_errors, 0);
}

#[test]
fn memcache_server_serves_cache_metrics() {
    let cache = Arc::new(CacheMap::new(CacheConfig {
        shards: 2,
        capacity: 4_096,
        memory_budget: 0,
        eviction: EvictionPolicy::Lru,
    }));
    let server = DlhtServer::bind_memcache(
        "127.0.0.1:0",
        cache,
        ServerConfig {
            workers: 1,
            admin_addr: Some("127.0.0.1:0".to_string()),
            trace_slow_us: Some(0),
            ..ServerConfig::default()
        },
    )
    .expect("bind memcache");
    let admin = server.admin_addr().expect("admin plane");

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect data");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(b"set k1 0 0 5\r\nhello\r\nget k1\r\nget missing\r\n")
        .expect("send commands");
    let mut reply = [0u8; 256];
    let mut got = 0;
    while String::from_utf8_lossy(&reply[..got])
        .matches("END\r\n")
        .count()
        < 2
    {
        let n = stream.read(&mut reply[got..]).expect("read reply");
        assert!(n > 0, "server closed early");
        got += n;
    }
    let reply = String::from_utf8_lossy(&reply[..got]);
    assert!(
        reply.contains("STORED") && reply.contains("VALUE k1"),
        "{reply}"
    );

    let samples = scrape(admin);
    // Per-command histograms under the cmd label.
    for cmd in ["set", "get"] {
        let s = samples
            .iter()
            .find(|s| s.name == "dlht_request_latency_ns_count" && s.label("cmd") == Some(cmd))
            .unwrap_or_else(|| panic!("missing cmd={cmd} series"));
        assert!(s.value >= 1.0, "cmd={cmd} count {}", s.value);
    }
    // Cache counters: one hit (k1), one miss (missing), one set.
    assert_eq!(sum_samples(&samples, "dlht_cache_hits_total"), Some(1.0));
    assert_eq!(sum_samples(&samples, "dlht_cache_misses_total"), Some(1.0));
    assert_eq!(sum_samples(&samples, "dlht_cache_sets_total"), Some(1.0));
    assert!(sum_samples(&samples, "dlht_cache_evicted_total").is_some());
    assert!(sum_samples(&samples, "dlht_cache_expired_total").is_some());
    assert_eq!(sum_samples(&samples, "dlht_cache_items"), Some(1.0));
    // value_bytes accounts the whole stored entry (key + header + payload),
    // so it is at least the 5-byte payload.
    assert!(sum_samples(&samples, "dlht_cache_value_bytes").unwrap() >= 5.0);
    assert!(sum_samples(&samples, "dlht_pending_reclaim_bytes").is_some());
    assert_eq!(
        sum_samples(&samples, "dlht_cache_memory_budget_bytes"),
        Some(0.0)
    );

    // The trace ring saw the memcache commands too.
    let (_, body) = http_get(admin, "/trace");
    let doc = Json::parse(&body).expect("valid trace JSON");
    let entries = doc.get("entries").and_then(|e| e.as_array()).unwrap();
    let ops: Vec<&str> = entries
        .iter()
        .filter_map(|e| e.get("op").and_then(|o| o.as_str()))
        .collect();
    assert!(ops.contains(&"set") && ops.contains(&"get"), "{ops:?}");

    drop(stream);
    server.shutdown();
}
