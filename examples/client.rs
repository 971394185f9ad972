//! A pipelining `dlht-net` client.
//!
//! ```text
//! cargo run --release --example client -- 127.0.0.1:4455
//! ```
//!
//! Without an address argument (or `DLHT_SERVER`), the example starts its
//! own in-process server on an ephemeral port so it always has something to
//! talk to, then demonstrates the client surface: single requests, a
//! pipelined window (one round trip, one server-side batch), an explicit
//! `BATCH` with `StopOnFailure`, and the typed `STATS` struct.

use dlht::{Batch, BatchPolicy, Request, Response, ShardedTable};
use dlht_net::{DlhtClient, DlhtServer};
use std::sync::Arc;

fn main() {
    let addr_arg = std::env::args()
        .nth(1)
        .or_else(|| std::env::var("DLHT_SERVER").ok());

    // Connect to the given server, or spin one up for the demo.
    let own_server = if addr_arg.is_none() {
        let table = Arc::new(ShardedTable::with_capacity(4, 100_000));
        let server = DlhtServer::bind("127.0.0.1:0", table).expect("bind demo server");
        println!("no address given; demo server on {}", server.local_addr());
        Some(server)
    } else {
        None
    };
    let addr = addr_arg.unwrap_or_else(|| own_server.as_ref().unwrap().local_addr().to_string());

    let mut client = DlhtClient::connect(&addr).expect("connect");
    client.ping().expect("ping");
    println!("connected to {addr}");

    // Single requests: one network round trip each. The server may be
    // prepopulated (dlht_server --keys), so fall back to an update.
    if !client.insert(1, 100).expect("insert").inserted() {
        client.put(1, 100).expect("put");
    }
    println!("get(1) = {:?}", client.get(1).expect("get"));

    // Pipelined: 64 requests, one flush, one round trip — the server drains
    // them into a single prefetched batch execution.
    let reqs: Vec<Request> = (0..64).map(|k| Request::Insert(k, k * 2)).collect();
    let acks = client.pipelined(&reqs).expect("pipelined inserts");
    println!(
        "pipelined 64 inserts -> {} fresh",
        acks.iter().filter(|r| r.succeeded()).count()
    );

    // Explicit batch with a policy: the first failure skips the rest.
    let mut batch = Batch::from(
        &[
            Request::Get(1),
            Request::Get(9_999_999), // miss -> stop
            Request::Delete(1),
        ][..],
    );
    client
        .execute(&mut batch, BatchPolicy::StopOnFailure)
        .expect("batch");
    let out = batch.responses();
    assert_eq!(out[2], Response::Skipped);
    println!("StopOnFailure batch: {:?}", out);

    // Typed stats — a struct, not a string to parse.
    let stats = client.stats().expect("stats");
    println!(
        "server: {} keys, {} bins, occupancy {:.1}%, {} resizes, {} retired indexes",
        client.server_len().expect("len"),
        stats.table.bins,
        stats.table.occupancy * 100.0,
        stats.table.resizes,
        stats.retired
    );

    if let Some(server) = own_server {
        let counters = server.shutdown();
        println!(
            "demo server shutdown: {} ops in {} batches",
            counters.ops, counters.batches
        );
    }
}
