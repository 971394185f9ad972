//! # dlht-net
//!
//! A pipelined key-value wire protocol and server/client subsystem over the
//! DLHT sharded table — the layer that lets the repository answer requests
//! from outside the process.
//!
//! The design follows the shape production cache servers (Twitter's Pelikan,
//! memcached's binary protocol) converged on: a thin, dependency-free,
//! length-prefixed binary protocol whose **client-side pipelining maps
//! directly onto server-side batched execution** — which is exactly the
//! interface DLHT's batch + prefetch engine (paper §3.3) was built for.
//! Requests a client writes back-to-back are drained by the server into one
//! reusable [`dlht_core::Batch`], prefetched at decode time, and executed
//! through the table's per-thread [`dlht_core::Engine`]: wire pipelining ≙
//! prefetch pipeline depth.
//!
//! ## Pieces
//!
//! * [`wire`] — the versioned frame codec: `GET`/`PUT`/`INSERT`/`DELETE`
//!   plus `BATCH` (explicit [`dlht_core::BatchPolicy`]), `STATS` (typed),
//!   `LEN` and `PING`, with zero-copy decode into [`dlht_core::Request`].
//! * [`service`] — the transport-independent connection engine (frames →
//!   batch → responses) every transport shares, over two planes: the
//!   table's [`dlht_core::Engine`] runs the data opcodes, and
//!   [`AdminBackend`] answers `STATS`/`LEN`/`PING` through one function on
//!   the data port and the admin plane alike.
//! * [`buf`] — [`ByteRing`], the per-connection sliding byte buffer with
//!   amortized O(1) consumption and capacity release on drain.
//! * [`poll`] — a dependency-free readiness abstraction: [`poll::Poller`]
//!   over `poll(2)` plus a loopback-socket [`poll::Waker`].
//! * [`server`] — [`DlhtServer`]: an event-driven non-blocking readiness
//!   loop with a fixed worker pool (one cached
//!   [`dlht_core::ShardedSession`] per worker, shared by all of that
//!   worker's connections), per-connection read/write rings with
//!   write-side backpressure, an optional admin plane on a separate port
//!   (`STATS`/`LEN`/`PING`), graceful shutdown, live counters.
//! * [`client`] — [`DlhtClient`]: a pipelining client over any
//!   `Read + Write` transport (TCP or loopback).
//! * [`remote`] — [`WireBackend`]: a server presented as a local
//!   [`dlht_core::KvBackend`], written once over a [`Link`] to a client.
//!   [`RemoteBackend`] links over TCP (one connection per worker thread),
//!   so workloads like YCSB run over the wire unchanged.
//! * [`loopback`] — a deterministic in-process transport so protocol tests
//!   run offline, plus [`LoopbackBackend`], the wire backend over it, which
//!   puts any `KvBackend` behind the wire for the differential oracle.
//!
//! ## Example (in-process loopback; the TCP path is identical)
//!
//! ```
//! use dlht_core::{Request, Response, ShardedTable};
//! use dlht_net::loopback_client;
//!
//! let table = ShardedTable::with_capacity(4, 10_000);
//! let session = table.session();
//! let mut client = loopback_client(&session);
//!
//! client.insert(7, 700).unwrap();
//! assert_eq!(client.get(7).unwrap(), Some(700));
//!
//! // Pipelined: one flush, one server-side prefetched batch execution.
//! let reqs: Vec<Request> = (0..16).map(Request::Get).collect();
//! let resps = client.pipelined(&reqs).unwrap();
//! assert_eq!(resps[7], Response::Value(Some(700)));
//!
//! // Typed stats — no string parsing.
//! let stats = client.stats().unwrap();
//! assert_eq!(stats.table.occupied_slots, 1);
//! ```
//!
//! Over TCP: [`DlhtServer::bind`] + [`DlhtClient::connect`] — see
//! `examples/server.rs` / `examples/client.rs` at the workspace root.

// The one unsafe site in this crate is the `poll(2)` FFI declaration and
// call in [`poll`]; everything else stays safe, and that site carries a
// `// SAFETY:` justification.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod buf;
pub mod client;
pub mod loopback;
pub mod memcache;
pub mod metrics;
pub mod poll;
pub mod remote;
pub mod server;
pub mod service;
pub mod test_util;
pub mod wire;

pub use buf::ByteRing;
pub use client::{DlhtClient, NetError};
pub use loopback::{loopback_client, LoopbackBackend, LoopbackTransport};
pub use memcache::MemcacheConn;
pub use metrics::{ServerMetrics, TraceEntry, TRACE_RING_CAP};
pub use remote::{flag_value, server_addr_from_args, Link, RemoteBackend, WireBackend};
pub use server::{DlhtServer, ServerConfig, ServerCounters, WRITE_HIGH_WATER};
pub use service::{AdminBackend, ConnStats, Drive, Service};
pub use test_util::{bind_ephemeral, bind_ephemeral_memcache};
pub use wire::{RemoteCacheStats, RemoteStats, WireError, MAX_PAYLOAD, VERSION};
