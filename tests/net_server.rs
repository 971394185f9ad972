//! Event-loop server integration tests: the failure modes the
//! thread-per-connection server shipped with, pinned as regressions.
//!
//! * A client that pipelines requests and **never reads** must cost a
//!   bounded buffer, not a pinned server thread (the old server blocked
//!   forever in `write_all`).
//! * Hundreds of concurrent connections must all be served by the fixed
//!   worker pool, and `active` must return to exactly 0 on shutdown.
//! * A panicking connection handler must take down only its connection —
//!   accounting stays exact, other connections keep working.
//! * The admin plane must answer while the data plane is saturated, and
//!   survive hostile admin peers (a byte-at-a-time HTTP request, an
//!   oversized header, a connection that never speaks) without disturbing
//!   its other clients.
//! * A response burst past the backpressure high-water mark must still be
//!   delivered in full once the client starts reading (read interest
//!   resumes on drain).

use dlht_core::{KvBackend, Request, Response, ShardedTable};
use dlht_net::{DlhtClient, DlhtServer, ServerConfig, WRITE_HIGH_WATER};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn full_run() -> bool {
    std::env::args().any(|a| a == "--full") || std::env::var_os("DLHT_FULL_TESTS").is_some()
}

fn bind(config: ServerConfig) -> (DlhtServer, Arc<ShardedTable>) {
    let table = Arc::new(ShardedTable::with_capacity(8, 1 << 17));
    let server = dlht_net::bind_ephemeral(table.clone(), config);
    (server, table)
}

/// Encode one GET frame for `key` by hand (tests that deliberately bypass
/// `DlhtClient`'s read path need raw bytes).
fn get_frame(key: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    dlht_net::wire::put_header(&mut out, dlht_net::wire::op::GET, 8);
    out.extend_from_slice(&key.to_le_bytes());
    out
}

/// Regression: a peer that sends pipelined requests and never reads its
/// responses used to pin a server thread forever inside `write_all`. The
/// event loop must instead park the connection under backpressure, keep
/// serving everyone else, and shut down promptly.
#[test]
fn non_reading_client_does_not_pin_the_server() {
    let (server, table) = bind(ServerConfig {
        workers: 1, // one worker: the dead client and the live one share it
        ..ServerConfig::default()
    });
    assert!(table.insert(1, 11).unwrap().inserted());

    // The hostile client: pipeline far more responses than the socket +
    // write ring absorb, and never read a byte.
    let mut hostile = TcpStream::connect(server.local_addr()).unwrap();
    let frame = get_frame(1);
    // Enough GETs that the responses overflow WRITE_HIGH_WATER several
    // times over (each response is 17 bytes: header + tag + value).
    let frames_needed = (4 * WRITE_HIGH_WATER) / 17;
    let mut burst = Vec::with_capacity(frames_needed * frame.len());
    for _ in 0..frames_needed {
        burst.extend_from_slice(&frame);
    }
    hostile.set_nonblocking(true).unwrap();
    let mut sent = 0;
    let deadline = Instant::now() + Duration::from_secs(5);
    // Write until the server stops reading (our send would block for a
    // while) or we delivered the whole burst.
    while sent < burst.len() && Instant::now() < deadline {
        match hostile.write(&burst[sent..]) {
            Ok(n) => sent += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("hostile write failed: {e}"),
        }
    }
    assert!(sent > 0, "hostile client never got a byte out");

    // The same worker must still serve a well-behaved client promptly.
    let mut polite = DlhtClient::connect(server.local_addr()).unwrap();
    let t = Instant::now();
    for _ in 0..50 {
        assert_eq!(polite.get(1).unwrap(), Some(11));
    }
    assert!(
        t.elapsed() < Duration::from_secs(2),
        "live client starved behind a non-reading one: {:?}",
        t.elapsed()
    );

    // The parked connection holds a bounded buffer, not unbounded memory:
    // the write ring stops growing at the high-water mark (plus one pass
    // of overshoot).
    let buffered = server.buffer_bytes();
    assert!(
        buffered <= 4 * WRITE_HIGH_WATER as u64,
        "write buffering must be bounded, got {buffered} bytes"
    );

    // And shutdown stays bounded with the hostile connection still open.
    let t = Instant::now();
    let counters = server.shutdown();
    assert!(
        t.elapsed() < Duration::from_secs(2),
        "shutdown blocked on a non-reading client: {:?}",
        t.elapsed()
    );
    assert_eq!(counters.active, 0);
    drop(hostile);
}

/// Scale test: hundreds of concurrent connections (1024 with `--full` /
/// `DLHT_FULL_TESTS`), each pipelining GETs, all served by a 2-worker
/// pool; every response arrives and `active` returns to exactly 0.
#[test]
fn many_concurrent_connections_all_get_answers() {
    let conns: usize = if full_run() { 1024 } else { 256 };
    let (server, table) = bind(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    for k in 0..64u64 {
        assert!(table.insert(k, k * 7).unwrap().inserted());
    }
    let addr = server.local_addr();

    // Phase 1: open all connections before anyone speaks, so the peak
    // concurrent count really is `conns`.
    let clients: Vec<DlhtClient<TcpStream>> = (0..conns)
        .map(|i| DlhtClient::connect(addr).unwrap_or_else(|e| panic!("connect #{i} failed: {e}")))
        .collect();
    // Phase 2: drive them from a handful of threads (the point is server
    // concurrency, not client thread count).
    let driver_count = 8;
    let mut drivers = Vec::new();
    let clients = Arc::new(std::sync::Mutex::new(clients));
    for d in 0..driver_count {
        let clients = clients.clone();
        drivers.push(std::thread::spawn(move || {
            loop {
                let Some(mut client) = clients.lock().unwrap().pop() else {
                    return;
                };
                let reqs: Vec<Request> = (0..64u64).map(|k| Request::Get((k + d) % 64)).collect();
                let resps = client.pipelined(&reqs).expect("pipelined GETs");
                assert_eq!(resps.len(), 64);
                for (r, req) in resps.iter().zip(&reqs) {
                    let Request::Get(k) = req else { unreachable!() };
                    assert_eq!(*r, Response::Value(Some(k * 7)));
                }
                // client drops here -> connection closes
            }
        }));
    }
    for d in drivers {
        d.join().expect("driver panicked");
    }

    // All connections closed; active must drain to 0 (drop guards).
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if server.counters().active == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "active connections never drained"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let counters = server.shutdown();
    assert_eq!(counters.connections, conns as u64);
    assert_eq!(counters.active, 0);
    assert_eq!(counters.protocol_errors, 0);
    assert_eq!(counters.panics, 0);
}

/// Regression: a panic inside a connection handler used to leak the
/// accounting (`active` never decremented). With the drop guard +
/// unwind-catch, the faulting connection dies alone, `panics` counts it,
/// and other connections — including ones on the same worker — continue.
#[test]
fn panicking_connection_is_isolated_and_accounted() {
    const FAULT_KEY: u64 = 0xDEAD_BEEF;
    let (server, table) = bind(ServerConfig {
        workers: 1, // same worker must survive its neighbor's panic
        fault_key: Some(FAULT_KEY),
        ..ServerConfig::default()
    });
    assert!(table.insert(3, 33).unwrap().inserted());

    let mut bystander = DlhtClient::connect(server.local_addr()).unwrap();
    assert_eq!(bystander.get(3).unwrap(), Some(33));

    // The victim trips the injected fault; its connection must just die.
    let mut victim = TcpStream::connect(server.local_addr()).unwrap();
    victim.write_all(&get_frame(FAULT_KEY)).unwrap();
    let mut buf = Vec::new();
    let n = victim.read_to_end(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "faulted connection must close without a response");

    // Bystander on the same worker is unaffected.
    assert_eq!(bystander.get(3).unwrap(), Some(33));

    let deadline = Instant::now() + Duration::from_secs(5);
    while server.counters().active != 1 {
        assert!(
            Instant::now() < deadline,
            "victim's drop guard never ran: counters {:?}",
            server.counters()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let counters = server.shutdown();
    assert_eq!(counters.panics, 1, "the injected panic must be counted");
    assert_eq!(counters.active, 0, "drop guards must zero the gauge");
    assert_eq!(counters.connections, 2);
}

/// The admin plane answers `STATS`/`LEN`/`PING` while every data worker is
/// saturated with pipelined traffic.
#[test]
fn admin_plane_answers_while_data_plane_is_saturated() {
    let (server, table) = bind(ServerConfig {
        workers: 2,
        admin_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    });
    for k in 0..256u64 {
        assert!(table.insert(k, k).unwrap().inserted());
    }
    let addr = server.local_addr();
    let admin_addr = server.admin_addr().expect("admin plane");

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut hammers = Vec::new();
    for _ in 0..4 {
        let stop = stop.clone();
        hammers.push(std::thread::spawn(move || {
            let mut client = DlhtClient::connect(addr).unwrap();
            let reqs: Vec<Request> = (0..256u64).map(Request::Get).collect();
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let resps = client.pipelined(&reqs).expect("hammer pipeline");
                assert_eq!(resps.len(), 256);
            }
        }));
    }

    // While the hammering runs, the admin plane must answer promptly.
    let mut admin = DlhtClient::connect(admin_addr).unwrap();
    for _ in 0..20 {
        let t = Instant::now();
        admin.ping().unwrap();
        assert_eq!(admin.server_len().unwrap(), 256);
        let stats = admin.stats().unwrap();
        assert!(stats.table.occupied_slots > 0);
        assert!(
            t.elapsed() < Duration::from_secs(1),
            "admin round-trip took {:?} under data-plane load",
            t.elapsed()
        );
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for h in hammers {
        h.join().expect("hammer panicked");
    }
    let counters = server.shutdown();
    assert!(counters.admin_frames >= 60);
    assert_eq!(counters.protocol_errors, 0);
}

/// Backpressure release: pipeline a burst whose responses blow well past
/// the write high-water mark while reading slowly — every response must
/// still arrive (read interest resumes when the ring drains) and the
/// buffers must shrink back afterwards.
#[test]
fn backpressure_pauses_and_resumes_without_losing_responses() {
    let (server, table) = bind(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    assert!(table.insert(42, 4242).unwrap().inserted());
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    // ~50k GETs -> ~850 KB of responses, > 3x WRITE_HIGH_WATER.
    let count: usize = 50_000;
    let frame = get_frame(42);
    let writer = {
        let mut tx = stream.try_clone().unwrap();
        let frame = frame.clone();
        std::thread::spawn(move || {
            for _ in 0..count {
                tx.write_all(&frame).expect("burst write");
            }
            tx.flush().unwrap();
        })
    };

    // Read every response, deliberately slowly at first to let the server
    // hit the high-water mark.
    let resp_len = 17; // header(8) + tag(1) + value(8)
    let mut expected = vec![0u8; resp_len];
    {
        let mut prototype = Vec::new();
        dlht_net::wire::encode_response(&mut prototype, Response::Value(Some(4242)));
        expected.copy_from_slice(&prototype);
    }
    let mut got = 0usize;
    let mut buf = vec![0u8; 64 * 1024];
    let mut pending: Vec<u8> = Vec::new();
    let t = Instant::now();
    while got < count {
        if got < count / 10 {
            // Slow phase: trickle-read so the server's ring really fills.
            std::thread::sleep(Duration::from_millis(1));
        }
        let n = stream.read(&mut buf).expect("read responses");
        assert!(n > 0, "server closed early at {got}/{count} responses");
        pending.extend_from_slice(&buf[..n]);
        while pending.len() >= resp_len {
            assert_eq!(&pending[..resp_len], &expected[..], "response #{got}");
            pending.drain(..resp_len);
            got += 1;
        }
        assert!(
            t.elapsed() < Duration::from_secs(60),
            "stalled at {got}/{count} responses"
        );
    }
    writer.join().expect("writer panicked");
    assert_eq!(got, count);

    // Once drained, per-connection memory must fall back to flat: the
    // rings shrink to their retained capacity.
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let bytes = server.buffer_bytes();
        if bytes <= 2 * dlht_net::ByteRing::SHRINK_CAPACITY as u64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "buffers never shrank after drain: {bytes} bytes"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let counters = server.shutdown();
    assert_eq!(counters.protocol_errors, 0);
    assert_eq!(counters.active, 0);
}

fn bind_with_admin() -> (DlhtServer, std::net::SocketAddr) {
    let (server, _table) = bind(ServerConfig {
        workers: 1,
        admin_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    });
    let admin_addr = server.admin_addr().expect("admin plane");
    (server, admin_addr)
}

/// An admin client whose reads give up after 5 s, so a stalled admin plane
/// fails the test instead of hanging it.
fn admin_client(addr: std::net::SocketAddr) -> DlhtClient<TcpStream> {
    let client = DlhtClient::connect(addr).unwrap();
    client
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    client
}

/// An admin-plane HTTP request that trickles in one byte per segment is
/// still answered once its header block completes.
#[test]
fn admin_http_request_sent_byte_by_byte_is_answered() {
    let (server, admin_addr) = bind_with_admin();
    let mut stream = TcpStream::connect(admin_addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    for &b in b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n" {
        stream.write_all(&[b]).unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert!(response.starts_with("HTTP/1.1 200 "), "{response:?}");
    assert!(response.contains("dlht_workers"), "{response:?}");
    let counters = server.shutdown();
    assert_eq!(counters.protocol_errors, 0);
    assert_eq!(counters.connections, 0, "admin conns are counted apart");
}

/// A header block larger than the admin plane's 8 KiB limit closes that
/// connection unanswered, while another admin client keeps being served.
#[test]
fn oversized_admin_http_header_closes_only_that_connection() {
    let (server, admin_addr) = bind_with_admin();
    let mut other = admin_client(admin_addr);
    other.ping().unwrap();

    let mut hostile = TcpStream::connect(admin_addr).unwrap();
    hostile
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut request = b"GET /metrics HTTP/1.1\r\nX-Pad: ".to_vec();
    request.resize(request.len() + 16 * 1024, b'a');
    // The server may close mid-write; only its reaction matters here.
    let _ = hostile.write_all(&request);
    let mut buf = [0u8; 256];
    match hostile.read(&mut buf) {
        Ok(n) => assert_eq!(n, 0, "no answer to an oversized header"),
        Err(e) => assert_ne!(
            e.kind(),
            std::io::ErrorKind::WouldBlock,
            "connection left open"
        ),
    }

    let stats = other.stats().expect("the other admin client still answers");
    assert_eq!(stats.table.occupied_slots, 0);
    server.shutdown();
}

/// An admin connection that never sends a byte must not hold up another
/// client's `PING`.
#[test]
fn idle_admin_connection_does_not_delay_a_ping() {
    let (server, admin_addr) = bind_with_admin();
    let _idle = TcpStream::connect(admin_addr).unwrap();
    let mut probe = admin_client(admin_addr);
    for _ in 0..5 {
        let t = Instant::now();
        probe.ping().unwrap();
        assert!(
            t.elapsed() < Duration::from_secs(1),
            "PING took {:?} next to an idle admin connection",
            t.elapsed()
        );
    }
    let t = Instant::now();
    server.shutdown();
    assert!(
        t.elapsed() < Duration::from_secs(2),
        "shutdown must be bounded"
    );
}

/// Write `request` to `addr` on a fresh connection and return the raw bytes
/// of the first `frames` response frames.
fn raw_answers(addr: std::net::SocketAddr, request: &[u8], frames: usize) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(request).unwrap();
    let mut answers = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        let (mut used, mut seen) = (0, 0);
        while let Some((_, n)) = dlht_net::wire::decode_frame(&answers[used..]).unwrap() {
            used += n;
            seen += 1;
        }
        if seen >= frames {
            return answers;
        }
        let n = stream.read(&mut buf).expect("read answers");
        assert!(n > 0, "connection closed after {seen} of {frames} frames");
        answers.extend_from_slice(&buf[..n]);
    }
}

/// One answerer: the data port and the admin plane answer `STATS`, `LEN`
/// and `PING` with the same bytes.
#[test]
fn data_and_admin_ports_answer_control_frames_identically() {
    let (server, admin_addr) = bind_with_admin();
    let mut data = DlhtClient::connect(server.local_addr()).unwrap();
    for k in 0..100u64 {
        assert!(data.insert(k, k * 7).unwrap().inserted());
    }
    assert_eq!(data.delete(0).unwrap(), Some(0));

    use dlht_net::wire::{self, op};
    let mut request = Vec::new();
    wire::encode_empty(&mut request, op::STATS);
    wire::encode_empty(&mut request, op::LEN);
    wire::put_header(&mut request, op::PING, 4);
    request.extend_from_slice(b"ping");
    let on_data = raw_answers(server.local_addr(), &request, 3);
    let on_admin = raw_answers(admin_addr, &request, 3);
    assert_eq!(on_data, on_admin, "data and admin answers differ");

    let (stats, used) = wire::decode_frame(&on_data).unwrap().unwrap();
    assert_eq!(stats.opcode, wire::resp::RESP_STATS);
    assert_eq!(
        wire::decode_stats(stats.payload)
            .unwrap()
            .table
            .occupied_slots,
        99
    );
    let (len, _) = wire::decode_frame(&on_data[used..]).unwrap().unwrap();
    assert_eq!(len.opcode, wire::resp::RESP_LEN);
    assert_eq!(wire::decode_len(len.payload).unwrap(), 99);
    server.shutdown();
}
