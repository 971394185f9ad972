//! [`WireBackend`]: a `dlht-net` server presented as a local [`KvBackend`],
//! so every workload, benchmark, and test harness in the repository can run
//! **over the wire** unchanged (`--server <addr>` in the workload-driving
//! binaries, the wire column of the model-differential oracle).
//!
//! The backend is written once; its [`Link`] says how it reaches a
//! [`DlhtClient`]:
//!
//! * [`RemoteBackend`] ([`TcpLink`]) keeps **one TCP connection per
//!   (thread, backend)** in a thread-local registry. The workload runner
//!   drives one shared `&dyn KvBackend` from many threads, and a TCP
//!   connection cannot be shared that way without serializing everything
//!   behind a lock; one connection per thread mirrors the server's model,
//!   so an N-thread workload run exercises N server connections.
//! * [`crate::LoopbackBackend`] ([`crate::loopback::LoopbackLink`]) serves
//!   any in-process backend through one shared loopback connection.
//!
//! The backend is its own [`Engine`]: a batch maps to one `BATCH` frame
//! (one round trip per batch: wire batching ≙ table batching), or, with
//! pipelined singles, a `RunAll` batch travels as pipelined plain frames.
//!
//! Network failures inside the `KvBackend` surface (which has no error
//! channel for Gets/Puts/Deletes) **panic** with context rather than
//! silently reporting misses — a measurement harness must never turn a dead
//! server into plausible-looking data.

use crate::client::{DlhtClient, NetError};
use crate::wire::RemoteStats;
use dlht_core::{
    Batch, BatchPolicy, DlhtError, Engine, InsertOutcome, KvBackend, MapFeatures, TableStats,
};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};

/// How a [`WireBackend`] reaches a [`DlhtClient`]. `Display` names the
/// peer in the panic message of a failed operation.
pub trait Link: fmt::Display {
    /// The byte transport under the client.
    type Transport: Read + Write;

    /// Run `f` on the client the calling thread talks through.
    fn with_client<R>(
        &self,
        f: impl FnOnce(&mut DlhtClient<Self::Transport>) -> Result<R, NetError>,
    ) -> Result<R, NetError>;
}

/// A `dlht-net` server behind the [`KvBackend`] trait, reached through `L`
/// (module docs above).
pub struct WireBackend<L> {
    pub(crate) link: L,
    pub(crate) name: &'static str,
    pub(crate) features: MapFeatures,
    /// Send `RunAll` batches as pipelined plain frames (the server's
    /// drain-into-batch path) instead of one `BATCH` frame.
    pub(crate) pipelined_singles: bool,
}

impl<L: Link> WireBackend<L> {
    /// Run `f` on this thread's client, panicking on any failure.
    fn call<R>(&self, f: impl FnOnce(&mut DlhtClient<L::Transport>) -> Result<R, NetError>) -> R {
        self.link
            .with_client(f)
            .unwrap_or_else(|e| panic!("{} failed: {e}", self.link))
    }

    /// Typed statistics snapshot from the server (the same `STATS` command
    /// a remote client issues).
    pub fn remote_stats(&self) -> RemoteStats {
        self.call(|c| c.stats())
    }
}

impl<L: Link + Send + Sync> KvBackend for WireBackend<L> {
    fn get(&self, key: u64) -> Option<u64> {
        self.call(|c| c.get(key))
    }

    fn insert(&self, key: u64, value: u64) -> Result<InsertOutcome, DlhtError> {
        // A table error (reserved key, full table) is a healthy answer.
        self.call(|c| match c.insert(key, value) {
            Err(NetError::Table(e)) => Ok(Err(e)),
            answer => answer.map(Ok),
        })
    }

    fn put(&self, key: u64, value: u64) -> Option<u64> {
        self.call(|c| c.put(key, value))
    }

    fn delete(&self, key: u64) -> Option<u64> {
        self.call(|c| c.delete(key))
    }

    fn len(&self) -> usize {
        self.call(|c| c.server_len()) as usize
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn features(&self) -> MapFeatures {
        self.features
    }

    fn stats(&self) -> TableStats {
        self.remote_stats().table
    }

    fn retired_indexes(&self) -> usize {
        self.remote_stats().retired as usize
    }

    fn supports_batching(&self) -> bool {
        true
    }

    fn engine(&self) -> Box<dyn Engine + '_> {
        Box::new(self)
    }
}

/// Nothing to prefetch on this side of the wire: a batch is one round trip.
impl<L: Link> Engine for WireBackend<L> {
    fn prefetch(&self, _key: u64) {}

    fn execute_prefetched(&self, batch: &mut Batch, policy: BatchPolicy) {
        if self.pipelined_singles && policy == BatchPolicy::RunAll {
            let (requests, responses) = batch.begin_execution();
            self.call(|c| c.pipelined_into(requests, responses));
        } else {
            self.call(|c| c.execute(batch, policy));
        }
    }
}

static NEXT_LINK_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's open connections, one per live [`TcpLink`].
    static CONNECTIONS: RefCell<HashMap<u64, DlhtClient<TcpStream>>> =
        RefCell::new(HashMap::new());
}

/// One TCP connection per (thread, link), opened on first use. A failed
/// call (transport or protocol error) drops the connection so the next call
/// reconnects.
pub struct TcpLink {
    addr: String,
    id: u64,
}

impl fmt::Display for TcpLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "remote backend {}", self.addr)
    }
}

impl Link for TcpLink {
    type Transport = TcpStream;

    fn with_client<R>(
        &self,
        f: impl FnOnce(&mut DlhtClient<TcpStream>) -> Result<R, NetError>,
    ) -> Result<R, NetError> {
        CONNECTIONS.with(|cell| {
            let mut conns = cell.borrow_mut();
            let client = match conns.entry(self.id) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(DlhtClient::connect(&self.addr)?)
                }
            };
            let result = f(client);
            if result.is_err() {
                conns.remove(&self.id);
            }
            result
        })
    }
}

impl Drop for TcpLink {
    fn drop(&mut self) {
        // Release the dropping thread's connection for this link so
        // repeated create/drop cycles on one thread don't accumulate open
        // sockets. Other threads' entries (keyed by this link's unique id,
        // never reused) die with their threads.
        let _ = CONNECTIONS.try_with(|cell| {
            if let Ok(mut conns) = cell.try_borrow_mut() {
                conns.remove(&self.id);
            }
        });
    }
}

/// A remote `dlht-net` server over TCP, one connection per thread.
pub type RemoteBackend = WireBackend<TcpLink>;

impl RemoteBackend {
    /// Connect to `addr` (e.g. `127.0.0.1:4455`), validating the server with
    /// a `PING` round trip.
    pub fn connect(addr: impl Into<String>) -> Result<RemoteBackend, NetError> {
        let backend = WireBackend {
            link: TcpLink {
                addr: addr.into(),
                id: NEXT_LINK_ID.fetch_add(1, Ordering::Relaxed),
            },
            name: "DLHT-Remote",
            features: MapFeatures::dlht(),
            pipelined_singles: false,
        };
        backend.link.with_client(|c| c.ping())?;
        Ok(backend)
    }

    /// The server address this backend talks to.
    pub fn addr(&self) -> &str {
        &self.link.addr
    }
}

/// Scan an argument list for `--name VALUE` / `--name=VALUE` (the one flag
/// parser the `dlht-net` binaries and examples share). A flag with a
/// missing value yields `None`.
pub fn flag_value(args: &[String], name: &str) -> Option<String> {
    let eq = format!("{name}=");
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if let Some(v) = arg.strip_prefix(&eq) {
            return Some(v.to_string());
        }
        if arg == name {
            return iter.next().cloned();
        }
    }
    None
}

/// Scan an argument list for `--server ADDR` / `--server=ADDR`, falling back
/// to the `DLHT_SERVER` environment variable — the remote-backend switch the
/// workload-driving binaries share.
pub fn server_addr_from_args<I: IntoIterator<Item = String>>(args: I) -> Option<String> {
    let args: Vec<String> = args.into_iter().collect();
    flag_value(&args, "--server")
        .or_else(|| std::env::var("DLHT_SERVER").ok().filter(|v| !v.is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::DlhtServer;
    use dlht_core::{Request, Response, ShardedTable};
    use std::sync::Arc;

    #[test]
    fn server_addr_parses_both_spellings() {
        assert_eq!(
            server_addr_from_args(["--server".into(), "1.2.3.4:5".into()]),
            Some("1.2.3.4:5".to_string())
        );
        assert_eq!(
            server_addr_from_args(["--server=h:1".into()]),
            Some("h:1".to_string())
        );
        if std::env::var("DLHT_SERVER").is_err() {
            assert_eq!(server_addr_from_args(["--smoke".into()]), None);
            assert_eq!(server_addr_from_args(["--server".into()]), None);
        }
    }

    #[test]
    fn remote_backend_roundtrip_and_multithreaded_connections() {
        let table = Arc::new(ShardedTable::with_capacity(2, 4_096));
        let server = DlhtServer::bind("127.0.0.1:0", table).expect("bind");
        let remote = RemoteBackend::connect(server.local_addr().to_string()).expect("connect");
        assert!(remote.insert(1, 10).unwrap().inserted());
        assert_eq!(remote.get(1), Some(10));
        // Each worker thread gets its own connection.
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let remote = &remote;
                s.spawn(move || {
                    for k in 0..50u64 {
                        let key = 1_000 + t * 100 + k;
                        assert!(remote.insert(key, key).unwrap().inserted());
                        assert_eq!(remote.get(key), Some(key));
                    }
                });
            }
        });
        assert_eq!(remote.len(), 1 + 150);
        let mut batch: Batch = [Request::Get(1), Request::Delete(1), Request::Get(1)]
            .into_iter()
            .collect();
        remote.engine().execute(&mut batch, BatchPolicy::RunAll);
        let out = batch.responses();
        assert_eq!(out[0], Response::Value(Some(10)));
        assert_eq!(out[2], Response::Value(None));
        let counters = server.shutdown();
        assert!(
            counters.connections >= 4,
            "main + 3 worker threads = at least 4 connections, saw {}",
            counters.connections
        );
    }
}
