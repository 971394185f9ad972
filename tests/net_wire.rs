//! Integration tests for the `dlht-net` subsystem: frame-codec round-trip
//! properties, protocol robustness (truncated / oversized / garbage frames
//! must error cleanly, never panic), the deterministic loopback transport,
//! and the real TCP server/client path including graceful shutdown and
//! YCSB over the wire.

use dlht::{
    BackendEngine, BatchPolicy, DlhtError, InsertOutcome, KvBackend, Request, Response,
    ShardedTable,
};
use dlht_net::wire::{self, WireError};
use dlht_net::{loopback_client, DlhtClient, DlhtServer, NetError, RemoteBackend, Service};
use dlht_util::splitmix64 as splitmix;
use std::sync::Arc;

fn random_request(rng: &mut u64) -> Request {
    let k = splitmix(rng);
    let v = splitmix(rng);
    match splitmix(rng) % 4 {
        0 => Request::Get(k),
        1 => Request::Put(k, v),
        2 => Request::Insert(k, v),
        _ => Request::Delete(k),
    }
}

fn random_response(rng: &mut u64) -> Response {
    let v = splitmix(rng);
    match splitmix(rng) % 10 {
        0 => Response::Value(None),
        1 => Response::Value(Some(v)),
        2 => Response::Updated(None),
        3 => Response::Updated(Some(v)),
        4 => Response::Inserted(Ok(InsertOutcome::Inserted)),
        5 => Response::Inserted(Ok(InsertOutcome::AlreadyExists(v))),
        6 => Response::Inserted(Err(match splitmix(rng) % 5 {
            0 => DlhtError::ReservedKey,
            1 => DlhtError::TableFull,
            2 => DlhtError::KeyTooLong,
            3 => DlhtError::InvalidNamespace,
            _ => DlhtError::UnsupportedInMode,
        })),
        7 => Response::Deleted(None),
        8 => Response::Deleted(Some(v)),
        _ => Response::Skipped,
    }
}

// ---------------------------------------------------------------------------
// Codec properties (seeded, deterministic)
// ---------------------------------------------------------------------------

#[test]
fn property_request_frames_roundtrip() {
    let mut rng = 0xF4A3_u64;
    for _ in 0..2_000 {
        let req = random_request(&mut rng);
        let mut buf = Vec::new();
        wire::encode_request(&mut buf, req);
        let (frame, used) = wire::decode_frame(&buf).unwrap().unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(
            wire::decode_request(frame.opcode, frame.payload).unwrap(),
            req
        );
    }
}

#[test]
fn property_batches_and_responses_roundtrip() {
    let mut rng = 0xBEEF_u64;
    for round in 0..400 {
        let len = (splitmix(&mut rng) % 20) as usize;
        let reqs: Vec<Request> = (0..len).map(|_| random_request(&mut rng)).collect();
        let policy = match round % 3 {
            0 => BatchPolicy::RunAll,
            1 => BatchPolicy::StopOnFailure,
            _ => BatchPolicy::Unordered,
        };
        let mut buf = Vec::new();
        wire::encode_batch(&mut buf, &reqs, policy);
        let (frame, used) = wire::decode_frame(&buf).unwrap().unwrap();
        assert_eq!(used, buf.len());
        let (p, count, items) = wire::decode_batch_header(frame.payload).unwrap();
        assert_eq!(p, policy);
        assert_eq!(count as usize, reqs.len());
        let mut iter = wire::BatchIter::new(items, count);
        let decoded: Vec<Request> = iter.by_ref().map(|r| r.unwrap()).collect();
        assert_eq!(decoded, reqs);
        iter.finish().unwrap();

        let resps: Vec<Response> = (0..len).map(|_| random_response(&mut rng)).collect();
        let mut rbuf = Vec::new();
        wire::encode_batch_responses(&mut rbuf, &resps);
        let (rframe, rused) = wire::decode_frame(&rbuf).unwrap().unwrap();
        assert_eq!(rused, rbuf.len());
        let mut out = Vec::new();
        wire::decode_batch_responses(rframe.payload, &mut out).unwrap();
        assert_eq!(out, resps);
    }
}

#[test]
fn property_truncated_valid_streams_never_error() {
    // Any prefix of a valid frame stream must decode to "need more bytes"
    // after the complete frames — never to an error, never to a panic.
    let mut rng = 0x77AA_u64;
    for _ in 0..200 {
        let mut stream = Vec::new();
        let n_frames = 1 + (splitmix(&mut rng) % 5) as usize;
        for _ in 0..n_frames {
            wire::encode_request(&mut stream, random_request(&mut rng));
        }
        let cut = (splitmix(&mut rng) % (stream.len() as u64 + 1)) as usize;
        let mut offset = 0;
        loop {
            match wire::decode_frame(&stream[offset..cut]) {
                Ok(Some((_, used))) => offset += used,
                Ok(None) => break,
                Err(e) => panic!("prefix of a valid stream errored: {e}"),
            }
        }
    }
}

#[test]
fn property_garbage_never_panics_the_decoder() {
    // Arbitrary bytes: the decoder must always return (not panic), and any
    // frame it does accept must re-encode no longer than the input.
    let mut rng = 0xDEAD_u64;
    for _ in 0..2_000 {
        let len = (splitmix(&mut rng) % 64) as usize;
        let bytes: Vec<u8> = (0..len)
            .map(|_| (splitmix(&mut rng) & 0xFF) as u8)
            .collect();
        if let Ok(Some((frame, used))) = wire::decode_frame(&bytes) {
            assert!(used <= bytes.len());
            // Whatever decoded must also survive payload decoding attempts
            // without panicking.
            let _ = wire::decode_request(frame.opcode, frame.payload);
            let _ = wire::decode_response(frame.payload);
            let _ = wire::decode_stats(frame.payload);
            let _ = wire::decode_batch_header(frame.payload);
        }
    }
}

// ---------------------------------------------------------------------------
// Service robustness over the loopback transport
// ---------------------------------------------------------------------------

type DynService = Service<BackendEngine<Arc<dyn KvBackend>>>;

fn service_over(table_keys: u64) -> (DynService, Arc<dyn KvBackend>) {
    let table: Arc<dyn KvBackend> = Arc::new(ShardedTable::with_capacity(2, 4_096));
    for k in 0..table_keys {
        let _ = table.insert(k, k).unwrap();
    }
    (Service::new(BackendEngine(table.clone())), table)
}

/// The malformed inputs every server must reject with an `ERR` frame (and
/// close) instead of panicking or executing garbage.
fn poison_frames() -> Vec<(&'static str, Vec<u8>)> {
    let mut cases = Vec::new();
    cases.push(("bad magic", vec![0x00u8; 16]));
    cases.push(("bad version", {
        let mut b = vec![wire::MAGIC, 99, 0x01, 0, 8, 0, 0, 0];
        b.extend_from_slice(&7u64.to_le_bytes());
        b
    }));
    cases.push(("nonzero reserved byte", {
        let mut b = vec![wire::MAGIC, wire::VERSION, 0x01, 7, 8, 0, 0, 0];
        b.extend_from_slice(&7u64.to_le_bytes());
        b
    }));
    cases.push(("unknown opcode", {
        let mut b = Vec::new();
        wire::put_header(&mut b, 0x6F, 0);
        b
    }));
    cases.push(("oversized length prefix", {
        let mut b = vec![wire::MAGIC, wire::VERSION, 0x01, 0];
        b.extend_from_slice(&(u32::MAX).to_le_bytes());
        b
    }));
    cases.push(("get with wrong payload size", {
        let mut b = Vec::new();
        wire::put_header(&mut b, 0x01, 3);
        b.extend_from_slice(&[1, 2, 3]);
        b
    }));
    cases.push(("stats with a payload", {
        let mut b = Vec::new();
        wire::put_header(&mut b, 0x06, 4);
        b.extend_from_slice(&[0; 4]);
        b
    }));
    cases.push(("batch count larger than payload", {
        let mut b = Vec::new();
        wire::put_header(&mut b, 0x05, 5);
        b.push(0); // RunAll
        b.extend_from_slice(&100u32.to_le_bytes()); // claims 100 requests, has 0
        b
    }));
    cases.push(("batch with trailing bytes", {
        let mut inner = Vec::new();
        wire::encode_batch(&mut inner, &[Request::Get(1)], BatchPolicy::RunAll);
        // Lie about the payload length to smuggle two extra bytes.
        let mut b = Vec::new();
        wire::put_header(&mut b, 0x05, inner.len() - wire::HEADER_LEN + 2);
        b.extend_from_slice(&inner[wire::HEADER_LEN..]);
        b.extend_from_slice(&[9, 9]);
        b
    }));
    cases.push(("batch with unknown inner opcode", {
        let mut b = Vec::new();
        wire::put_header(&mut b, 0x05, 5 + 9);
        b.push(0);
        b.extend_from_slice(&1u32.to_le_bytes());
        b.push(0x6E); // not an op
        b.extend_from_slice(&1u64.to_le_bytes());
        b
    }));
    cases
}

#[test]
fn poison_frames_error_cleanly_and_close() {
    for (label, bytes) in poison_frames() {
        let (mut service, table) = service_over(4);
        let before = table.len();
        let mut out = Vec::new();
        let err = service
            .process(&bytes, &mut out)
            .expect_err(&format!("{label}: must be rejected"));
        // The reply ends with an ERR frame carrying the error's code.
        let mut offset = 0;
        let mut last = None;
        while let Ok(Some((frame, used))) = wire::decode_frame(&out[offset..]) {
            offset += used;
            last = Some((frame.opcode, frame.payload.to_vec()));
        }
        let (opcode, payload) = last.expect(label);
        assert_eq!(opcode, wire::resp::ERR, "{label}");
        assert_eq!(payload[0], err.code(), "{label}");
        // The poisoned frame must not have mutated the table.
        assert_eq!(
            table.len(),
            before,
            "{label}: malformed frame mutated state"
        );
    }
}

#[test]
fn poison_after_valid_pipeline_still_answers_the_valid_prefix() {
    for (label, bytes) in poison_frames() {
        let (mut service, table) = service_over(0);
        let mut input = Vec::new();
        wire::encode_request(&mut input, Request::Insert(900, 9));
        wire::encode_request(&mut input, Request::Get(900));
        input.extend_from_slice(&bytes);
        let mut out = Vec::new();
        assert!(service.process(&input, &mut out).is_err(), "{label}");
        // Two RESP frames then the ERR frame.
        let (f1, u1) = wire::decode_frame(&out).unwrap().unwrap();
        assert_eq!(f1.opcode, wire::resp::RESP, "{label}");
        let (f2, u2) = wire::decode_frame(&out[u1..]).unwrap().unwrap();
        assert_eq!(
            wire::decode_response(f2.payload).unwrap(),
            Response::Value(Some(9)),
            "{label}"
        );
        let (f3, _) = wire::decode_frame(&out[u1 + u2..]).unwrap().unwrap();
        assert_eq!(f3.opcode, wire::resp::ERR, "{label}");
        assert_eq!(table.get(900), Some(9), "{label}");
    }
}

#[test]
fn loopback_client_surfaces_server_errors_and_stays_closed() {
    let table: Arc<dyn KvBackend> = Arc::new(ShardedTable::with_capacity(2, 1_024));
    let mut client = loopback_client(BackendEngine(table));
    assert!(client.insert(1, 10).unwrap().inserted());
    // Inject garbage below the client API, as a desynchronized peer would.
    {
        use std::io::Write;
        let transport = client.get_mut();
        transport.write_all(&[0xAB; 8]).unwrap();
    }
    match client.get(1) {
        Err(NetError::Server { code, message }) => {
            assert_eq!(code, WireError::BadMagic(0xAB).code());
            assert!(message.contains("magic"), "{message}");
        }
        other => panic!("expected a server protocol rejection, got {other:?}"),
    }
    // The loopback connection is closed now, like a real socket.
    assert!(matches!(
        client.get(1),
        Err(NetError::Io(_) | NetError::Closed)
    ));
}

// ---------------------------------------------------------------------------
// TCP path
// ---------------------------------------------------------------------------

fn start_server(shards: usize) -> (DlhtServer, Arc<ShardedTable>) {
    let table = Arc::new(ShardedTable::with_capacity(shards, 16_384));
    let server = DlhtServer::bind("127.0.0.1:0", table.clone()).expect("bind");
    (server, table)
}

#[test]
fn tcp_pipelined_matches_sequential_and_local() {
    let (server, table) = start_server(4);
    let mut seq = DlhtClient::connect(server.local_addr()).unwrap();
    let mut pip = DlhtClient::connect(server.local_addr()).unwrap();
    let mut rng = 0x1C9_u64;
    for round in 0..20 {
        let len = 1 + (splitmix(&mut rng) % 24) as usize;
        let reqs: Vec<Request> = (0..len)
            .map(|_| {
                let k = splitmix(&mut rng) % 64;
                let v = splitmix(&mut rng) % 1_000;
                match splitmix(&mut rng) % 4 {
                    0 => Request::Get(k),
                    1 => Request::Put(k + 1_000, v),
                    2 => Request::Insert(k, v),
                    _ => Request::Delete(k),
                }
            })
            .collect();
        // Pipelined on one connection, then replayed sequentially on the
        // other against a *fresh* key range must observe its own writes in
        // submission order. (Interleaving between the two connections is
        // avoided by alternating rounds.)
        let resps = if round % 2 == 0 {
            pip.pipelined(&reqs).unwrap()
        } else {
            reqs.iter().map(|r| seq.request(*r).unwrap()).collect()
        };
        assert_eq!(resps.len(), reqs.len());
    }
    // Spot-check convergence against the real table through a third client.
    let mut check = DlhtClient::connect(server.local_addr()).unwrap();
    for k in 0..64u64 {
        assert_eq!(check.get(k).unwrap(), table.get(k), "key {k}");
    }
    server.shutdown();
}

#[test]
fn tcp_concurrent_clients_and_typed_stats() {
    let (server, table) = start_server(4);
    let addr = server.local_addr();
    std::thread::scope(|s| {
        for t in 0..4u64 {
            s.spawn(move || {
                let mut client = DlhtClient::connect(addr).unwrap();
                let base = t * 10_000;
                for k in 0..200u64 {
                    assert!(client.insert(base + k, k).unwrap().inserted());
                }
                let reqs: Vec<Request> = (0..200u64).map(|k| Request::Get(base + k)).collect();
                for (k, r) in client.pipelined(&reqs).unwrap().into_iter().enumerate() {
                    assert_eq!(r, Response::Value(Some(k as u64)));
                }
            });
        }
    });
    assert_eq!(table.len(), 800);
    let mut client = DlhtClient::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.table.occupied_slots, 800);
    assert_eq!(stats.table, table.stats(), "typed stats must match local");
    assert_eq!(client.server_len().unwrap(), 800);
    let counters = server.shutdown();
    assert_eq!(counters.connections, 5);
    assert_eq!(counters.protocol_errors, 0);
    assert!(counters.ops >= 4 * 400);
}

#[test]
fn ycsb_runs_over_the_wire_through_the_remote_backend() {
    use dlht_workloads::ycsb::{run_ycsb, YcsbMix};
    let (server, table) = start_server(4);
    let remote = RemoteBackend::connect(server.local_addr().to_string()).expect("connect");
    dlht_workloads::prepopulate_batched(&remote, 2_000, 128);
    assert_eq!(table.len(), 2_000);
    let r = run_ycsb(
        &remote,
        YcsbMix::A,
        2_000,
        2,
        std::time::Duration::from_millis(40),
        true,
    );
    assert!(r.total_ops > 0);
    // Update-only YCSB F must leave the population unchanged.
    let f = run_ycsb(
        &remote,
        YcsbMix::F,
        2_000,
        2,
        std::time::Duration::from_millis(30),
        true,
    );
    assert!(f.total_ops > 0);
    assert_eq!(remote.len(), 2_000);
    let counters = server.shutdown();
    assert!(counters.batches > 0, "YCSB must use the wire batch path");
}
