//! The TCP server: an event-driven, non-blocking readiness loop over a
//! shared [`ShardedTable`].
//!
//! ## Shape
//!
//! ```text
//!  acceptor thread ──round-robin──▶ worker 0 ┐
//!     (blocking accept)            worker 1  │ fixed pool, one thread each
//!                                  …         │
//!                                  worker N-1┘
//!
//!  each worker owns:   one cached ShardedSession (per-shard registry slots)
//!                      one Poller (level-triggered poll(2) readiness)
//!                      its connections: TcpStream + read/write ByteRing
//!                                       + a Service (reusable Batch)
//!
//!  admin thread (optional, own port): the same event loop, polling its
//!                      own listener instead of a hand-off queue
//! ```
//!
//! Every accepted connection is handed to one worker and stays there, so a
//! connection's frames are always processed in order by a single thread —
//! and that thread drives *all* of its connections through one
//! [`crate::poll::Poller`]: thousands of connections cost N threads, not
//! thousands. Each readiness pass reads whatever a socket has into the
//! connection's read ring, lets the shared [`Service`] engine drain every
//! complete pipelined frame into one prefetched batch execution, appends
//! the response bytes to the write ring, and writes as much as the socket
//! accepts — never blocking on a peer. After a pass that had events, the
//! worker polls without sleeping for a 50 µs budget before it blocks in
//! `poll(2)` again, so a pipelined client's next window costs no sleep and
//! no wakeup; an idle worker spins once per burst, then sleeps.
//!
//! ## Backpressure and memory
//!
//! * A connection whose peer stops reading accumulates responses in its
//!   write ring; at [`WRITE_HIGH_WATER`] the worker stops *reading* from it
//!   (level-triggered polling resumes the read automatically once the
//!   write side drains). A dead or non-reading client therefore costs a
//!   bounded buffer — never a pinned thread (the old thread-per-connection
//!   server blocked forever in `write_all`).
//! * [`crate::ByteRing`] keeps per-connection memory flat: amortized O(1)
//!   consumption (no quadratic `Vec::drain`) and capacity released once a
//!   buffer drains after an oversized frame. [`DlhtServer::buffer_bytes`]
//!   exposes the live total for the flat-memory acceptance check.
//!
//! ## Robustness
//!
//! * Per-connection accounting hangs off a drop guard: however a
//!   connection dies — EOF, protocol error, io error, even a panic in its
//!   handler — the `active` gauge is decremented exactly once when the
//!   connection's state drops. Panics are additionally unwind-caught per
//!   connection so one poisoned connection cannot take down its worker's
//!   other connections ([`ServerCounters::panics`] counts them).
//! * An optional **admin plane** on a separate port
//!   ([`ServerConfig::admin_addr`]) serves `STATS`/`LEN`/`PING` only, so
//!   operational queries never queue behind data traffic; data opcodes on
//!   the admin port are rejected with
//!   [`crate::wire::WireError::AdminRestricted`]. It runs the workers'
//!   event loop on one thread of its own, so an idle or hostile admin peer
//!   costs a buffer, never a thread.
//!
//! Shutdown is graceful and bounded: [`DlhtServer::shutdown`] flips a
//! flag, wakes the acceptor, the admin plane, and every worker, and joins
//! all threads; every connection's drop guard runs, so the final counter
//! snapshot always reports `active == 0`.

use crate::buf::ByteRing;
use crate::memcache::MemcacheConn;
use crate::metrics::{self, ServerMetrics};
use crate::poll::{waker_pair, Event, Interest, Poller, Source, WakeReceiver, Waker, SPIN_BUDGET};
use crate::service::{answer_control, AdminBackend, ConnStats, Drive, Service};
use crate::wire::{self, WireError};
use dlht_core::{CacheMap, CacheSession, ShardedSession, ShardedTable};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper bound on how long any loop sleeps before re-checking the shutdown
/// flag (workers are normally woken long before this via their wakers).
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Bytes read from a socket per `read` call on the event loop.
const READ_CHUNK: usize = 16 * 1024;

/// Write-ring backpressure threshold: once a connection has this many
/// unsent response bytes, the worker stops reading new requests from it
/// until the write side drains. (One pass can overshoot by at most the
/// responses to one 16 KiB read chunk of requests plus one maximum-size batch
/// response, so per-connection memory stays bounded.)
pub const WRITE_HIGH_WATER: usize = 256 * 1024;

/// A point-in-time snapshot of the server-wide counters, folded from the
/// striped [`ServerMetrics`] registry cells (the full registry — gauges,
/// histograms, trace ring — is reachable via [`DlhtServer::metrics`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Data connections accepted since bind (the admin plane counts
    /// separately, in [`ServerCounters::admin_frames`]).
    pub connections: u64,
    /// Data connections currently open.
    pub active: u64,
    /// Request frames decoded across all connections.
    pub frames: u64,
    /// Table operations executed across all connections.
    pub ops: u64,
    /// Batch executions (drained pipeline windows + explicit `BATCH`
    /// frames).
    pub batches: u64,
    /// Connections closed for violating the protocol.
    pub protocol_errors: u64,
    /// Connections torn down because their handler panicked (each panic is
    /// unwind-caught and isolated to its connection).
    pub panics: u64,
    /// Frames served by the admin plane (`STATS`/`LEN`/`PING`).
    pub admin_frames: u64,
}

/// Configuration for [`DlhtServer::bind_with`].
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Event-loop worker threads (each owns one cached
    /// [`ShardedSession`]). `0` picks a default:
    /// `min(4, available_parallelism)`.
    pub workers: usize,
    /// Bind an admin plane on this address (e.g. `"127.0.0.1:0"`) serving
    /// binary `STATS`/`LEN`/`PING` and HTTP `GET /metrics`,
    /// `/metrics.json` and `/trace` on its own port and thread, isolated
    /// from data traffic. One non-blocking event loop serves every admin
    /// connection. `None` disables it.
    pub admin_addr: Option<String>,
    /// Test-only fault injection: panic the connection handler when a `GET`
    /// for this key arrives (before any table execution). Exercises the
    /// unwind isolation and drop-guard accounting; leave `None` outside
    /// tests.
    #[doc(hidden)]
    pub fault_key: Option<u64>,
    /// Cache persona only: how often the background reaper sweeps expired
    /// entries and enforces the memory budget, in milliseconds. `0` picks
    /// the default (500 ms).
    pub reap_interval_ms: u64,
    /// Record every request at least this slow (µs) into the per-worker
    /// slow-op trace ring served at `GET /trace` on the admin plane. `0`
    /// traces every request; `None` disables tracing.
    pub trace_slow_us: Option<u64>,
}

impl ServerConfig {
    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .clamp(1, 4)
    }

    fn resolved_reap_interval(&self) -> Duration {
        if self.reap_interval_ms > 0 {
            Duration::from_millis(self.reap_interval_ms)
        } else {
            Duration::from_millis(500)
        }
    }
}

/// Which protocol a listener speaks, and the store behind it.
enum Persona {
    /// The binary kv wire protocol over a [`ShardedTable`] (the default).
    Kv {
        table: Arc<ShardedTable>,
        fault_key: Option<u64>,
    },
    /// The memcache text protocol over a [`CacheMap`] (TTL + eviction).
    Cache { cache: Arc<CacheMap> },
}

/// Per-worker channel from the acceptor (and the shutdown path) into the
/// worker's event loop.
struct WorkerShared {
    /// Connections handed over by the acceptor, not yet adopted.
    incoming: Mutex<Vec<(TcpStream, Option<ActiveGuard>)>>,
    /// Interrupts the worker's poll.
    waker: Waker,
    /// Live gauge: bytes of ring-buffer capacity pinned by this worker's
    /// connections (stored once per event-loop pass).
    buffer_bytes: AtomicU64,
}

struct WorkerHandle {
    shared: Arc<WorkerShared>,
    thread: JoinHandle<()>,
}

/// A running `dlht-net` TCP server (handle). Dropping the handle without
/// calling [`DlhtServer::shutdown`] leaves the threads serving until the
/// process exits.
pub struct DlhtServer {
    local_addr: SocketAddr,
    admin_addr: Option<SocketAddr>,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<ServerMetrics>,
    accept_thread: JoinHandle<()>,
    workers: Vec<WorkerHandle>,
    admin_thread: Option<JoinHandle<()>>,
    reaper_thread: Option<JoinHandle<()>>,
    cache: Option<Arc<CacheMap>>,
}

impl DlhtServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `table` with the default [`ServerConfig`]. Returns as soon as the
    /// listener is live.
    pub fn bind(addr: impl ToSocketAddrs, table: Arc<ShardedTable>) -> std::io::Result<DlhtServer> {
        Self::bind_with(addr, table, ServerConfig::default())
    }

    /// [`DlhtServer::bind`] with explicit worker count, admin plane, and
    /// test hooks.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        table: Arc<ShardedTable>,
        config: ServerConfig,
    ) -> std::io::Result<DlhtServer> {
        let fault_key = config.fault_key;
        Self::bind_persona(addr, Persona::Kv { table, fault_key }, config)
    }

    /// Bind the cache persona: the same event-loop server core speaking the
    /// memcache text protocol over `cache`, with a background expiry/
    /// eviction reaper ticking every
    /// [`ServerConfig::reap_interval_ms`] milliseconds.
    pub fn bind_memcache(
        addr: impl ToSocketAddrs,
        cache: Arc<CacheMap>,
        config: ServerConfig,
    ) -> std::io::Result<DlhtServer> {
        Self::bind_persona(addr, Persona::Cache { cache }, config)
    }

    fn bind_persona(
        addr: impl ToSocketAddrs,
        persona: Persona,
        config: ServerConfig,
    ) -> std::io::Result<DlhtServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let lanes = config.resolved_workers();
        let metrics = Arc::new(match &persona {
            Persona::Kv { .. } => ServerMetrics::new_kv(lanes, config.trace_slow_us),
            Persona::Cache { .. } => ServerMetrics::new_cache(lanes, config.trace_slow_us),
        });
        // Structural gauges read the live store at scrape time — no
        // hot-path cost, always-current values.
        match &persona {
            Persona::Kv { table, .. } => {
                metrics::register_kv_gauges(metrics.registry(), table.clone());
            }
            Persona::Cache { cache } => {
                metrics::register_cache_gauges(metrics.registry(), cache.clone());
            }
        }

        let mut workers = Vec::new();
        for i in 0..lanes {
            let (waker, wake_rx) = waker_pair()?;
            let shared = Arc::new(WorkerShared {
                incoming: Mutex::new(Vec::new()),
                waker,
                buffer_bytes: AtomicU64::new(0),
            });
            let thread = std::thread::Builder::new()
                .name(format!("dlht-worker-{i}"))
                .spawn({
                    let shared = shared.clone();
                    let shutdown = shutdown.clone();
                    let metrics = metrics.clone();
                    match &persona {
                        Persona::Kv { table, fault_key } => {
                            let table = table.clone();
                            let fault_key = *fault_key;
                            Box::new(move || {
                                worker_loop_kv(
                                    &table, &shared, wake_rx, &shutdown, &metrics, i, fault_key,
                                )
                            }) as Box<dyn FnOnce() + Send>
                        }
                        Persona::Cache { cache } => {
                            let cache = cache.clone();
                            Box::new(move || {
                                worker_loop_cache(&cache, &shared, wake_rx, &shutdown, &metrics, i)
                            }) as Box<dyn FnOnce() + Send>
                        }
                    }
                })?;
            workers.push(WorkerHandle { shared, thread });
        }

        {
            let shareds: Vec<Arc<WorkerShared>> =
                workers.iter().map(|w| w.shared.clone()).collect();
            metrics.registry().gauge_fn(
                "dlht_buffer_bytes",
                "Ring-buffer capacity pinned across all data connections",
                &[],
                move || {
                    shareds
                        .iter()
                        .map(|s| s.buffer_bytes.load(Ordering::Relaxed))
                        .sum()
                },
            );
            let n = workers.len() as u64;
            metrics.registry().gauge_fn(
                "dlht_workers",
                "Event-loop worker threads serving data connections",
                &[],
                move || n,
            );
        }

        let accept_thread = {
            let shutdown = shutdown.clone();
            let metrics = metrics.clone();
            let shareds: Vec<Arc<WorkerShared>> =
                workers.iter().map(|w| w.shared.clone()).collect();
            std::thread::Builder::new()
                .name("dlht-accept".to_string())
                .spawn(move || accept_loop(listener, &shutdown, &metrics, &shareds))?
        };

        let admin_backend: Arc<dyn AdminBackend + Send + Sync> = match &persona {
            Persona::Kv { table, .. } => table.clone(),
            Persona::Cache { cache } => cache.clone(),
        };
        let (admin_thread, admin_addr) = match &config.admin_addr {
            None => (None, None),
            Some(addr) => {
                let admin_listener = TcpListener::bind(addr.as_str())?;
                let admin_addr = admin_listener.local_addr()?;
                admin_listener.set_nonblocking(true)?;
                let thread = std::thread::Builder::new()
                    .name("dlht-admin".to_string())
                    .spawn({
                        let shutdown = shutdown.clone();
                        let metrics = metrics.clone();
                        move || admin_loop(admin_listener, &*admin_backend, &shutdown, &metrics)
                    })?;
                (Some(thread), Some(admin_addr))
            }
        };

        let cache = match &persona {
            Persona::Kv { .. } => None,
            Persona::Cache { cache } => Some(cache.clone()),
        };
        let reaper_thread = match &cache {
            None => None,
            Some(cache) => Some(
                std::thread::Builder::new()
                    .name("dlht-reaper".to_string())
                    .spawn({
                        let cache = cache.clone();
                        let shutdown = shutdown.clone();
                        let interval = config.resolved_reap_interval();
                        move || reaper_loop(&cache, interval, &shutdown)
                    })?,
            ),
        };

        Ok(DlhtServer {
            local_addr,
            admin_addr,
            shutdown,
            metrics,
            accept_thread,
            workers,
            admin_thread,
            reaper_thread,
            cache,
        })
    }

    /// The cache behind a memcache-persona listener (`None` on kv).
    pub fn cache(&self) -> Option<&Arc<CacheMap>> {
        self.cache.as_ref()
    }

    /// The address the data plane is listening on (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The admin plane's address, if one was configured.
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin_addr
    }

    /// Number of event-loop worker threads serving data connections.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Bytes of ring-buffer capacity currently pinned across every data
    /// connection (the flat-per-connection-memory gauge; updated once per
    /// event-loop pass on each worker).
    pub fn buffer_bytes(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.shared.buffer_bytes.load(Ordering::Relaxed))
            .sum()
    }

    /// Snapshot the server-wide counters. Per-connection contributions are
    /// folded in as each event-loop pass runs, so the numbers are live,
    /// not close-time.
    pub fn counters(&self) -> ServerCounters {
        self.metrics.server_counters()
    }

    /// The full observability surface behind this server: the metrics
    /// registry (counters, gauges, per-opcode latency histograms) and the
    /// slow-op trace rings — everything the admin plane serves at
    /// `GET /metrics`, `/metrics.json`, and `/trace`.
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.metrics
    }

    /// Gracefully stop: wake the acceptor, the admin plane, and every
    /// worker; join all threads. Returns the final counter snapshot
    /// (always with `active == 0` — every connection's drop guard has run).
    pub fn shutdown(self) -> ServerCounters {
        // ORDERING: a plain stop flag needs no total order — Release pairs
        // with the Acquire polls in the acceptor/worker/admin loops, and
        // the joins below provide the actual synchronization.
        self.shutdown.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection; the
        // acceptor re-checks the flag before handling it. An unspecified
        // bind address (0.0.0.0 / ::) is not connectable on every platform
        // — wake through the matching loopback address instead.
        let _ = TcpStream::connect(connectable(self.local_addr));
        let _ = self.accept_thread.join();
        // Workers: interrupt their polls, join, then release any accepted-
        // but-never-adopted connections so their guards run before the
        // final snapshot.
        for worker in &self.workers {
            worker.shared.waker.wake();
        }
        for worker in self.workers {
            let _ = worker.thread.join();
            worker
                .shared
                .incoming
                .lock()
                .expect("incoming lock")
                .clear();
        }
        // Admin plane: its poll set holds its listener, so a throwaway
        // connection wakes it like the data acceptor; its event loop then
        // closes every admin connection on the way out.
        if let Some(thread) = self.admin_thread {
            if let Some(addr) = self.admin_addr {
                let _ = TcpStream::connect(connectable(addr));
            }
            let _ = thread.join();
        }
        // The reaper re-checks the shutdown flag at least every
        // POLL_INTERVAL, so this join is bounded too.
        if let Some(reaper) = self.reaper_thread {
            let _ = reaper.join();
        }
        self.metrics.server_counters()
    }
}

/// Rewrite an unspecified listen address (0.0.0.0 / ::) into the matching
/// loopback so the shutdown wake-up connect succeeds everywhere.
fn connectable(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            std::net::IpAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
            std::net::IpAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
        });
    }
    addr
}

/// Decrements the server-wide `active` gauge exactly once, however the
/// owning connection dies (EOF, protocol error, io error, handler panic,
/// worker shutdown, or never being adopted at all): the guard is created at
/// accept time and travels with the connection, so the decrement rides
/// `Drop` instead of any particular exit path.
struct ActiveGuard {
    metrics: Arc<ServerMetrics>,
    /// The destination worker's lane: increment and decrement hit the same
    /// striped cell, so each lane's contribution returns to exactly zero.
    lane: usize,
}

impl ActiveGuard {
    fn new(metrics: Arc<ServerMetrics>, lane: usize) -> ActiveGuard {
        metrics.active.add(lane, 1);
        ActiveGuard { metrics, lane }
    }
}

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.metrics.active.sub(self.lane, 1);
    }
}

fn accept_loop(
    listener: TcpListener,
    shutdown: &AtomicBool,
    metrics: &Arc<ServerMetrics>,
    workers: &[Arc<WorkerShared>],
) {
    let mut next = 0usize;
    loop {
        let (stream, _) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(_) => {
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
                // A persistent accept error (EMFILE under fd pressure, ...)
                // must not busy-spin the acceptor.
                std::thread::sleep(POLL_INTERVAL);
                continue;
            }
        };
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        // Round-robin hand-off: a connection lives on one worker for its
        // whole lifetime (per-connection frame order needs no locking), and
        // its accounting uses that worker's metric lane.
        let lane = next % workers.len();
        next = next.wrapping_add(1);
        metrics.connections.incr(lane);
        let guard = ActiveGuard::new(metrics.clone(), lane);
        let _ = stream.set_nodelay(true);
        let _ = stream.set_nonblocking(true);
        let shared = &workers[lane];
        shared
            .incoming
            .lock()
            .expect("incoming lock")
            .push((stream, Some(guard)));
        shared.waker.wake();
    }
}

/// Connection lifecycle on its worker.
enum ConnState {
    /// Reading requests and serving responses.
    Open,
    /// Closing after the write ring drains: either a protocol violation
    /// (the ring ends with the error answer) or a clean `quit` (the ring
    /// ends with the last pipelined responses). No more reads.
    Draining,
}

/// One protocol adapter instance per connection: turn input bytes into
/// response bytes against the worker's shared engine `E`. The
/// implementations are the binary kv [`Service`] (engine `()` — the service
/// holds its session itself), the memcache [`MemcacheConn`] (engine
/// [`CacheSession`]) and the admin plane's [`AdminProto`] (engine `()`).
trait ConnProto<E> {
    /// Serve every complete request in `input`, appending responses to
    /// `out`. Returns consumed bytes (partial trailing input must consume
    /// nothing) and how the connection proceeds.
    fn process(&mut self, engine: &mut E, input: &[u8], out: &mut Vec<u8>) -> (usize, Drive);
    /// Live per-connection counters, folded into the server totals.
    fn stats(&self) -> ConnStats;
}

/// The binary kv protocol as a [`ConnProto`]: [`Service`] already holds the
/// worker's `&ShardedSession`, so the event-loop engine is `()`. (Two
/// lifetimes, because the borrow of the worker-local session is strictly
/// shorter than the session's own borrow of the table.)
struct KvProto<'s, 't> {
    service: Service<&'s ShardedSession<'t>>,
    fault_key: Option<u64>,
}

impl ConnProto<()> for KvProto<'_, '_> {
    fn process(&mut self, _engine: &mut (), input: &[u8], out: &mut Vec<u8>) -> (usize, Drive) {
        if let Some(key) = self.fault_key {
            maybe_inject_fault(input, key);
        }
        match self.service.process(input, out) {
            Ok(consumed) => (consumed, Drive::Keep),
            // The rest of the input can never become valid; the ERR frame
            // is already in `out`.
            Err(_) => (input.len(), Drive::CloseError),
        }
    }
    fn stats(&self) -> ConnStats {
        self.service.stats()
    }
}

impl<'a> ConnProto<CacheSession<'a>> for MemcacheConn {
    fn process(
        &mut self,
        engine: &mut CacheSession<'a>,
        input: &[u8],
        out: &mut Vec<u8>,
    ) -> (usize, Drive) {
        MemcacheConn::process(self, engine, input, out)
    }
    fn stats(&self) -> ConnStats {
        MemcacheConn::stats(self)
    }
}

/// One connection's event-loop state: its socket, rings, and protocol
/// adapter `P` (which carries the per-connection parser/batch state).
struct Conn<P> {
    stream: TcpStream,
    proto: P,
    rbuf: ByteRing,
    wbuf: ByteRing,
    reported: ConnStats,
    state: ConnState,
    /// `None` on the admin plane: the connection gauges count data
    /// connections only.
    _guard: Option<ActiveGuard>,
}

enum Disposition {
    Keep,
    Close,
}

enum FlushOutcome {
    /// Wrote what the socket would take (possibly zero bytes).
    Progress,
    /// The connection is gone.
    Fatal,
}

/// The kv persona's worker: one cached [`ShardedSession`] shared by every
/// connection on this worker, exactly like the paper's per-thread protocol
/// (§3.2.5) intends — N workers, N sessions, regardless of connection
/// count.
fn worker_loop_kv(
    table: &ShardedTable,
    shared: &WorkerShared,
    wake_rx: WakeReceiver,
    shutdown: &AtomicBool,
    metrics: &ServerMetrics,
    lane: usize,
    fault_key: Option<u64>,
) {
    let session = table.session();
    let session = &session;
    let obs = metrics.kv_obs(lane);
    let env = WorkerEnv {
        buffer_bytes: &shared.buffer_bytes,
        shutdown,
        metrics,
        lane,
    };
    run_event_loop(
        &mut (),
        || {
            let mut service = Service::new(session);
            if let Some(obs) = obs.clone() {
                service = service.with_obs(obs);
            }
            KvProto { service, fault_key }
        },
        &env,
        Handoff { shared, wake_rx },
    );
}

/// The cache persona's worker: one [`CacheSession`] shared by every
/// memcache connection on this worker. The records its deletes and
/// evictions retire are collected by the session every 64 retirements per
/// shard, and by the reaper's sweep every [`ServerConfig::reap_interval_ms`]:
/// up to 63 retired records per worker and shard may wait for that sweep.
fn worker_loop_cache(
    cache: &CacheMap,
    shared: &WorkerShared,
    wake_rx: WakeReceiver,
    shutdown: &AtomicBool,
    metrics: &ServerMetrics,
    lane: usize,
) {
    let mut session = cache.session();
    let obs = metrics.mc_obs(lane);
    let env = WorkerEnv {
        buffer_bytes: &shared.buffer_bytes,
        shutdown,
        metrics,
        lane,
    };
    run_event_loop(
        &mut session,
        || {
            let mut conn = MemcacheConn::new();
            if let Some(obs) = obs.clone() {
                conn = conn.with_obs(obs);
            }
            conn
        },
        &env,
        Handoff { shared, wake_rx },
    );
}

/// One worker's view of the server-wide plumbing, bundled so the event
/// loop and its helpers take one context instead of four parallel
/// references. `lane` is this worker's stripe in every
/// [`ServerMetrics`] instrument; `buffer_bytes` is where the loop publishes
/// its ring capacity.
struct WorkerEnv<'a> {
    buffer_bytes: &'a AtomicU64,
    shutdown: &'a AtomicBool,
    metrics: &'a ServerMetrics,
    lane: usize,
}

/// Where an event loop's connections come from. Its source is always
/// source 0 of the loop's poll set.
trait Inbox {
    /// The handle that polls readable when connections (or a wake-up)
    /// arrive.
    fn source(&self) -> Source;
    /// Source 0 polled readable.
    fn ready(&mut self) {}
    /// Connections to adopt, taken at the top of every pass.
    fn adopt(&mut self) -> Vec<(TcpStream, Option<ActiveGuard>)>;
}

/// A data worker's inbox: the acceptor's hand-off queue plus the waker that
/// the acceptor and shutdown ring.
struct Handoff<'a> {
    shared: &'a WorkerShared,
    wake_rx: WakeReceiver,
}

impl Inbox for Handoff<'_> {
    fn source(&self) -> Source {
        self.wake_rx.source()
    }
    fn ready(&mut self) {
        self.wake_rx.drain();
    }
    fn adopt(&mut self) -> Vec<(TcpStream, Option<ActiveGuard>)> {
        std::mem::take(&mut *self.shared.incoming.lock().expect("incoming lock"))
    }
}

/// The event loop every persona and the admin plane run: adopt new
/// connections, poll readiness, drive each ready connection through its
/// [`ConnProto`], and publish the buffer gauge.
fn run_event_loop<E, P: ConnProto<E>>(
    engine: &mut E,
    mut new_proto: impl FnMut() -> P,
    env: &WorkerEnv<'_>,
    mut inbox: impl Inbox,
) {
    let mut poller = Poller::new();
    let mut conns: Vec<Option<Conn<P>>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut sources: Vec<(Source, Interest)> = Vec::new();
    let mut slots: Vec<usize> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    // End of the last pass that had events: the next wait spins until
    // SPIN_BUDGET after it.
    let mut last_busy = Instant::now();

    while !env.shutdown.load(Ordering::Acquire) {
        // Adopt new connections.
        for (stream, guard) in inbox.adopt() {
            let conn = Conn {
                stream,
                proto: new_proto(),
                rbuf: ByteRing::new(),
                wbuf: ByteRing::new(),
                reported: ConnStats::default(),
                state: ConnState::Open,
                _guard: guard,
            };
            match free.pop() {
                Some(slot) => conns[slot] = Some(conn),
                None => conns.push(Some(conn)),
            }
        }

        // Build this pass's interest set; source 0 is always the inbox.
        sources.clear();
        slots.clear();
        sources.push((inbox.source(), Interest::READ));
        slots.push(usize::MAX);
        for (slot, conn) in conns.iter().enumerate() {
            let Some(conn) = conn else { continue };
            let interest = Interest {
                readable: matches!(conn.state, ConnState::Open)
                    && conn.wbuf.len() < WRITE_HIGH_WATER,
                writable: !conn.wbuf.is_empty(),
            };
            sources.push((Source::from_stream(&conn.stream), interest));
            slots.push(slot);
        }

        let spin_until = (conns.len() > free.len()).then_some(last_busy + SPIN_BUDGET);
        if wait_for_events(&mut poller, &sources, &mut events, spin_until, env.shutdown).is_err() {
            // A persistently failing poll must not busy-spin the worker.
            std::thread::sleep(POLL_INTERVAL);
            continue;
        }

        for ev in &events {
            let Some(&slot) = slots.get(ev.token) else {
                continue;
            };
            if slot == usize::MAX {
                inbox.ready();
                continue;
            }
            let Some(conn) = conns.get_mut(slot).and_then(|c| c.as_mut()) else {
                continue;
            };
            // One poisoned connection must not take down the worker's other
            // connections: unwind-catch the drive and tear only this
            // connection down (its drop guard keeps `active` exact).
            let drive = std::panic::catch_unwind(AssertUnwindSafe(|| {
                drive_connection(conn, engine, *ev, env)
            }));
            let close = match drive {
                Ok(Disposition::Keep) => false,
                Ok(Disposition::Close) => true,
                Err(_) => {
                    env.metrics.panics.incr(env.lane);
                    true
                }
            };
            if close {
                if let Some(dead) = conns.get_mut(slot).and_then(|c| c.take()) {
                    let _ = dead.stream.shutdown(Shutdown::Both);
                    free.push(slot);
                    // Dropping `dead` runs its ActiveGuard.
                }
            }
        }

        // Flat-memory gauge: ring capacity pinned by this worker's
        // connections right now.
        let bytes: u64 = conns
            .iter()
            .flatten()
            .map(|c| (c.rbuf.capacity() + c.wbuf.capacity()) as u64)
            .sum();
        env.buffer_bytes.store(bytes, Ordering::Relaxed);
        if !events.is_empty() {
            last_busy = Instant::now();
        }
    }

    // Shutdown: close every socket so peers observe it immediately, then
    // drop the connection table (each guard decrements `active`).
    for conn in conns.iter().flatten() {
        let _ = conn.stream.shutdown(Shutdown::Both);
    }
    conns.clear();
    env.buffer_bytes.store(0, Ordering::Relaxed);
}

/// Fill `events` with this pass's readiness. Until `spin_until`, poll
/// without sleeping and yield the CPU between attempts, so a pipelined
/// peer's next window is picked up without a sleep and a wakeup; then, or
/// with no deadline, block for up to [`POLL_INTERVAL`]. Every attempt is a
/// fresh `poll`, which clears `events` first: a spin never replays the
/// previous pass's events. Shutdown ends the spin early.
fn wait_for_events(
    poller: &mut Poller,
    sources: &[(Source, Interest)],
    events: &mut Vec<Event>,
    spin_until: Option<Instant>,
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    if let Some(deadline) = spin_until {
        loop {
            poller.poll(sources, Duration::ZERO, events)?;
            if !events.is_empty() || shutdown.load(Ordering::Acquire) {
                return Ok(());
            }
            if Instant::now() >= deadline {
                break;
            }
            std::thread::yield_now();
        }
    }
    poller.poll(sources, POLL_INTERVAL, events)
}

/// Handle one readiness event for one connection. Never blocks: reads and
/// writes are non-blocking, and `WouldBlock` simply defers to the next
/// readiness pass.
fn drive_connection<E, P: ConnProto<E>>(
    conn: &mut Conn<P>,
    engine: &mut E,
    ev: Event,
    env: &WorkerEnv<'_>,
) -> Disposition {
    // Writes first: draining the write ring both delivers queued responses
    // and lifts read backpressure at the next interest build.
    if ev.writable {
        if matches!(flush_writes(conn), FlushOutcome::Fatal) {
            return Disposition::Close;
        }
        if conn.wbuf.is_empty() && matches!(conn.state, ConnState::Draining) {
            return Disposition::Close; // final answer delivered
        }
    }
    if ev.readable && matches!(conn.state, ConnState::Open) {
        loop {
            match conn.rbuf.read_from(&mut conn.stream, READ_CHUNK) {
                Ok(0) => {
                    // EOF: answer what was validly pipelined, best-effort
                    // flush, close.
                    let _ = process_input(conn, engine, env);
                    let _ = flush_writes(conn);
                    return Disposition::Close;
                }
                Ok(n) => {
                    if !matches!(process_input(conn, engine, env), Drive::Keep) {
                        conn.state = ConnState::Draining;
                        break;
                    }
                    // Stop when the peer stops consuming its responses
                    // (backpressure) or the socket ran dry.
                    if conn.wbuf.len() >= WRITE_HIGH_WATER || n < READ_CHUNK {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Disposition::Close,
            }
        }
        // Common case: the responses fit the socket buffer — deliver now
        // rather than waiting for the next writable event.
        if matches!(flush_writes(conn), FlushOutcome::Fatal) {
            return Disposition::Close;
        }
        if conn.wbuf.is_empty() && matches!(conn.state, ConnState::Draining) {
            return Disposition::Close;
        }
    }
    Disposition::Keep
}

/// Write as much of the write ring as the socket accepts, without blocking.
fn flush_writes<P>(conn: &mut Conn<P>) -> FlushOutcome {
    while !conn.wbuf.is_empty() {
        match conn.stream.write(conn.wbuf.data()) {
            Ok(0) => return FlushOutcome::Fatal,
            Ok(n) => conn.wbuf.consume(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return FlushOutcome::Progress,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return FlushOutcome::Fatal,
        }
    }
    FlushOutcome::Progress
}

/// Drain every complete request in the read ring through the connection's
/// protocol adapter, appending response bytes straight into the write ring.
/// Anything but [`Drive::Keep`] makes the caller switch the connection to
/// [`ConnState::Draining`] (the final answer is already queued); only
/// [`Drive::CloseError`] counts as a protocol error.
fn process_input<E, P: ConnProto<E>>(
    conn: &mut Conn<P>,
    engine: &mut E,
    env: &WorkerEnv<'_>,
) -> Drive {
    let Conn {
        rbuf, wbuf, proto, ..
    } = conn;
    let (consumed, drive) = wbuf.append_with(|out| proto.process(engine, rbuf.data(), out));
    rbuf.consume(consumed);
    fold_stats(env, &mut conn.reported, conn.proto.stats());
    if !matches!(drive, Drive::Keep) {
        // Whatever input is still buffered will never be served; drop it.
        conn.rbuf.clear();
    }
    if matches!(drive, Drive::CloseError) {
        env.metrics.protocol_errors.incr(env.lane);
    }
    drive
}

/// The cache persona's background reaper: its own [`CacheSession`] sweeps
/// expired entries and enforces the memory budget every `interval`, then
/// frees what is freeable (its own retirements and the workers'). Re-checks
/// the shutdown flag at least every
/// [`POLL_INTERVAL`], so shutdown joins stay bounded.
fn reaper_loop(cache: &CacheMap, interval: Duration, shutdown: &AtomicBool) {
    let mut session = cache.session();
    let step = interval.min(POLL_INTERVAL);
    let mut since_reap = Duration::ZERO;
    while !shutdown.load(Ordering::Acquire) {
        std::thread::sleep(step);
        since_reap += step;
        if since_reap >= interval {
            since_reap = Duration::ZERO;
            session.reap();
        }
    }
}

/// Test-only failure injection ([`ServerConfig::fault_key`]): panic before
/// any table execution when the next complete frame is a `GET` for the
/// configured key, exercising the worker's unwind isolation and the
/// drop-guard accounting without touching shared state.
fn maybe_inject_fault(data: &[u8], key: u64) {
    if let Ok(Some((frame, _))) = wire::decode_frame(data) {
        if let Ok(req) = wire::decode_request(frame.opcode, frame.payload) {
            if matches!(req, dlht_core::Request::Get(k) if k == key) {
                panic!("injected connection fault for key {key:#x} (test hook)");
            }
        }
    }
}

/// Fold the delta between the service's counters and what was already
/// reported into the server-wide totals (on this worker's metric lane).
fn fold_stats(env: &WorkerEnv<'_>, reported: &mut ConnStats, now: ConnStats) {
    env.metrics
        .frames
        .add(env.lane, now.frames - reported.frames);
    env.metrics.ops.add(env.lane, now.ops - reported.ops);
    env.metrics
        .batches
        .add(env.lane, now.batches - reported.batches);
    *reported = now;
}

// ---------------------------------------------------------------------------
// Admin plane
// ---------------------------------------------------------------------------

/// The admin plane: the workers' event loop on a thread and port of its
/// own, so no amount of data-plane saturation can queue ahead of it. It
/// polls its own listener, answers on metric lane 0, and publishes no
/// buffer gauge (`dlht_buffer_bytes` counts data connections only).
fn admin_loop(
    listener: TcpListener,
    backend: &dyn AdminBackend,
    shutdown: &AtomicBool,
    metrics: &ServerMetrics,
) {
    let env = WorkerEnv {
        buffer_bytes: &AtomicU64::new(0),
        shutdown,
        metrics,
        lane: 0,
    };
    let new_proto = || AdminProto {
        backend,
        metrics,
        binary: None,
    };
    run_event_loop(&mut (), new_proto, &env, listener);
}

/// The admin plane's inbox: its own non-blocking listener, accepted from
/// directly. Admin connections carry no [`ActiveGuard`].
impl Inbox for TcpListener {
    fn source(&self) -> Source {
        Source::from_listener(self)
    }
    fn adopt(&mut self) -> Vec<(TcpStream, Option<ActiveGuard>)> {
        let mut accepted = Vec::new();
        loop {
            match self.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_nonblocking(true);
                    accepted.push((stream, None));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return accepted,
                Err(_) => {
                    // A persistent accept error (EMFILE, ...) keeps the
                    // listener readable; do not busy-spin on it.
                    std::thread::sleep(POLL_INTERVAL);
                    return accepted;
                }
            }
        }
    }
}

/// One admin connection. The first byte picks the dialect: the binary wire
/// magic ([`wire::MAGIC`]) serves `STATS`/`LEN`/`PING` frames (data
/// opcodes rejected with [`WireError::AdminRestricted`]); anything else is
/// treated as an HTTP request and served one `GET /metrics` /
/// `/metrics.json` / `/trace` response before closing — so the same port
/// answers typed probes and Prometheus scrapes.
struct AdminProto<'a> {
    backend: &'a dyn AdminBackend,
    metrics: &'a ServerMetrics,
    /// The dialect, fixed by the connection's first byte.
    binary: Option<bool>,
}

impl ConnProto<()> for AdminProto<'_> {
    fn process(&mut self, _engine: &mut (), input: &[u8], out: &mut Vec<u8>) -> (usize, Drive) {
        let Some(&first) = input.first() else {
            return (0, Drive::Keep);
        };
        if *self.binary.get_or_insert(first == wire::MAGIC) {
            return match admin_process(self.backend, input, out, self.metrics) {
                Ok(used) => (used, Drive::Keep),
                Err(e) => {
                    wire::encode_error_frame(out, &e);
                    (input.len(), Drive::CloseError)
                }
            };
        }
        // HTTP: wait for the end of the header block, answer once, close
        // (the response says `Connection: close`). An oversized header
        // closes without an answer.
        match find_header_end(input) {
            Some(end) => {
                self.metrics.admin_http_requests.incr(0);
                out.extend_from_slice(&metrics::respond_http(self.metrics, &input[..end]));
                (input.len(), Drive::CloseClean)
            }
            None if input.len() > metrics::MAX_HTTP_HEADER => (input.len(), Drive::CloseClean),
            None => (0, Drive::Keep),
        }
    }
    fn stats(&self) -> ConnStats {
        // Admin frames count in `admin_frames`, not in the data totals.
        ConnStats::default()
    }
}

/// Byte offset just past the first `\r\n\r\n` in `data`, if present.
fn find_header_end(data: &[u8]) -> Option<usize> {
    data.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| i + 4)
}

/// Serve every complete admin frame in `input`, appending responses to
/// `out`; returns the bytes consumed. Control frames are answered like on
/// the data port (the cache persona's `STATS` carries the extended
/// payload); data opcodes are refused.
fn admin_process(
    backend: &dyn AdminBackend,
    input: &[u8],
    out: &mut Vec<u8>,
    metrics: &ServerMetrics,
) -> Result<usize, WireError> {
    let mut used = 0;
    while let Some((frame, n)) = wire::decode_frame(&input[used..])? {
        metrics.admin_frames.incr(0);
        if let op @ (wire::op::GET
        | wire::op::PUT
        | wire::op::INSERT
        | wire::op::DELETE
        | wire::op::BATCH) = frame.opcode
        {
            return Err(WireError::AdminRestricted(op));
        }
        answer_control(backend, frame.opcode, frame.payload, out)?;
        used += n;
    }
    Ok(used)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::DlhtClient;
    use dlht_core::{Batch, BatchPolicy, KvBackend, Request, Response};

    fn start() -> (DlhtServer, Arc<ShardedTable>) {
        let table = Arc::new(ShardedTable::with_capacity(4, 4_096));
        let server = DlhtServer::bind("127.0.0.1:0", table.clone()).expect("bind");
        (server, table)
    }

    #[test]
    fn tcp_roundtrip_singles_and_stats() {
        let (server, table) = start();
        let mut client = DlhtClient::connect(server.local_addr()).expect("connect");
        client.ping().unwrap();
        assert!(client.insert(1, 10).unwrap().inserted());
        assert_eq!(client.get(1).unwrap(), Some(10));
        assert_eq!(client.put(1, 11).unwrap(), Some(10));
        assert_eq!(client.delete(1).unwrap(), Some(11));
        assert_eq!(client.get(1).unwrap(), None);
        assert!(matches!(
            client.insert(u64::MAX, 1),
            Err(crate::client::NetError::Table(
                dlht_core::DlhtError::ReservedKey
            ))
        ));
        let _ = client.insert(2, 20).unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.table.occupied_slots, 1);
        assert_eq!(client.server_len().unwrap(), 1);
        assert_eq!(table.get(2), Some(20), "served writes hit the real table");
        let counters = server.shutdown();
        assert_eq!(counters.connections, 1);
        assert_eq!(counters.protocol_errors, 0);
        assert!(counters.ops >= 7);
    }

    #[test]
    fn pipelined_and_batch_paths_match_local_semantics() {
        let (server, table) = start();
        let mut client = DlhtClient::connect(server.local_addr()).expect("connect");
        let reqs: Vec<Request> = (0..32u64).map(|k| Request::Insert(k, k * 3)).collect();
        let resps = client.pipelined(&reqs).unwrap();
        assert!(resps.iter().all(|r| r.succeeded()));
        let mut batch = Batch::from(
            &[
                Request::Get(31),
                Request::Get(999), // miss -> stop
                Request::Delete(0),
            ][..],
        );
        client
            .execute(&mut batch, BatchPolicy::StopOnFailure)
            .unwrap();
        let out = batch.responses();
        assert_eq!(out[0], Response::Value(Some(93)));
        assert_eq!(out[2], Response::Skipped);
        assert_eq!(table.len(), 32, "skipped delete must not run");
        server.shutdown();
    }

    #[test]
    fn garbage_closes_the_connection_but_not_the_server() {
        use std::io::Read;
        let (server, _table) = start();
        // Connection 1 sends garbage and must be rejected.
        {
            let mut bad = TcpStream::connect(server.local_addr()).unwrap();
            bad.write_all(&[0xAB; 32]).unwrap();
            let mut buf = Vec::new();
            let _ = bad.read_to_end(&mut buf); // server replies ERR then closes
            let (frame, _) = crate::wire::decode_frame(&buf).unwrap().unwrap();
            assert_eq!(frame.opcode, crate::wire::resp::ERR);
        }
        // Connection 2 still works.
        let mut good = DlhtClient::connect(server.local_addr()).unwrap();
        assert!(good.insert(5, 50).unwrap().inserted());
        assert_eq!(good.get(5).unwrap(), Some(50));
        let counters = server.shutdown();
        assert_eq!(counters.protocol_errors, 1);
    }

    #[test]
    fn shutdown_joins_all_threads_quickly() {
        let (server, _) = start();
        let mut clients: Vec<_> = (0..4)
            .map(|_| DlhtClient::connect(server.local_addr()).unwrap())
            .collect();
        for (i, c) in clients.iter_mut().enumerate() {
            assert!(c.insert(i as u64, 1).unwrap().inserted());
        }
        let t = std::time::Instant::now();
        let counters = server.shutdown();
        assert!(
            t.elapsed() < Duration::from_secs(2),
            "graceful shutdown must be bounded"
        );
        assert_eq!(counters.connections, 4);
        assert_eq!(counters.active, 0);
    }

    #[test]
    fn worker_pool_size_is_configurable_and_connections_spread() {
        let table = Arc::new(ShardedTable::with_capacity(4, 4_096));
        let server = DlhtServer::bind_with(
            "127.0.0.1:0",
            table,
            ServerConfig {
                workers: 3,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        assert_eq!(server.workers(), 3);
        let mut clients: Vec<_> = (0..6u64)
            .map(|i| {
                let mut c = DlhtClient::connect(server.local_addr()).unwrap();
                assert!(c.insert(i, i).unwrap().inserted(), "key {i}");
                c
            })
            .collect();
        for (i, c) in clients.iter_mut().enumerate() {
            assert_eq!(c.get(i as u64).unwrap(), Some(i as u64));
        }
        let counters = server.shutdown();
        assert_eq!(counters.connections, 6);
        assert_eq!(counters.active, 0);
    }

    #[test]
    fn admin_plane_serves_stats_and_rejects_data_ops() {
        let table = Arc::new(ShardedTable::with_capacity(4, 4_096));
        let server = DlhtServer::bind_with(
            "127.0.0.1:0",
            table,
            ServerConfig {
                admin_addr: Some("127.0.0.1:0".to_string()),
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let admin_addr = server.admin_addr().expect("admin plane configured");

        let mut data = DlhtClient::connect(server.local_addr()).unwrap();
        assert!(data.insert(9, 90).unwrap().inserted());

        let mut admin = DlhtClient::connect(admin_addr).unwrap();
        admin.ping().unwrap();
        assert_eq!(admin.server_len().unwrap(), 1);
        let stats = admin.stats().unwrap();
        assert_eq!(stats.table.occupied_slots, 1);
        // Data ops on the admin port are refused with the dedicated code.
        match admin.get(9) {
            Err(crate::client::NetError::Server { code, message }) => {
                assert_eq!(code, WireError::AdminRestricted(wire::op::GET).code());
                assert!(message.contains("admin"), "{message}");
            }
            other => panic!("expected an admin restriction, got {other:?}"),
        }
        let counters = server.shutdown();
        assert_eq!(counters.connections, 1, "admin conns are counted apart");
        assert!(counters.admin_frames >= 3);
    }
}
