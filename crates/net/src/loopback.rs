//! In-process loopback transport: the full wire path — encode, frame,
//! decode, batch, execute, encode back — with no sockets, no threads, and no
//! timing dependence, so tests of the protocol are deterministic and
//! offline.
//!
//! [`LoopbackTransport`] implements `Read + Write` over an internal byte
//! pair: client writes buffer up, `flush` runs the same [`Service`] engine a
//! TCP connection uses, and reads drain the produced response bytes. A
//! [`DlhtClient`] over it behaves exactly like one over TCP — including the
//! pipelining-becomes-batching property, since everything written before a
//! flush is processed as one drain.
//!
//! [`LoopbackBackend`] closes the loop for the test suites: the one
//! [`WireBackend`] over a [`LoopbackLink`], driving any inner backend
//! *through the wire*, so the model-differential oracle validates the
//! protocol path with the same random sequences it replays against the
//! tables directly.

use crate::client::{DlhtClient, NetError};
use crate::remote::{Link, WireBackend};
use crate::service::{AdminBackend, Service};
use dlht_core::{Batch, BatchPolicy, Engine, KvBackend, TableStats};
use std::fmt;
use std::io::{Read, Write};
use std::sync::{Arc, Mutex};

/// A deterministic in-process byte transport over a [`Service`] (module docs
/// above).
pub struct LoopbackTransport<E: Engine + AdminBackend> {
    service: Service<E>,
    /// Client → server bytes not yet processed.
    inbound: Vec<u8>,
    /// Server → client bytes not yet read.
    outbound: Vec<u8>,
    opos: usize,
    /// Set after a protocol error: the "server" has closed the connection.
    closed: bool,
}

impl<E: Engine + AdminBackend> LoopbackTransport<E> {
    /// Wrap `engine` in a loopback connection.
    pub fn new(engine: E) -> Self {
        LoopbackTransport {
            service: Service::new(engine),
            inbound: Vec::new(),
            outbound: Vec::new(),
            opos: 0,
            closed: false,
        }
    }

    /// Borrow the server-side service (per-connection stats, engine access).
    pub fn service(&self) -> &Service<E> {
        &self.service
    }

    fn pump(&mut self) {
        if self.closed || self.inbound.is_empty() {
            return;
        }
        if self.opos == self.outbound.len() {
            self.outbound.clear();
            self.opos = 0;
        }
        match self.service.process(&self.inbound, &mut self.outbound) {
            Ok(consumed) => {
                self.inbound.drain(..consumed);
            }
            Err(_) => {
                // The ERR frame is already in `outbound`; everything after
                // the violation is discarded, like a real closed socket.
                self.inbound.clear();
                self.closed = true;
            }
        }
    }
}

impl<E: Engine + AdminBackend> Write for LoopbackTransport<E> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.closed && self.outbound.len() == self.opos {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "loopback connection closed by protocol error",
            ));
        }
        self.inbound.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.pump();
        Ok(())
    }
}

impl<E: Engine + AdminBackend> Read for LoopbackTransport<E> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.opos == self.outbound.len() {
            self.pump();
        }
        let available = &self.outbound[self.opos..];
        if available.is_empty() {
            // EOF: either the server closed, or the client forgot to flush —
            // both must surface as a clean end-of-stream, never a hang.
            return Ok(0);
        }
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.opos += n;
        Ok(n)
    }
}

/// A [`DlhtClient`] over an in-process loopback connection to `engine`.
pub fn loopback_client<E: Engine + AdminBackend>(engine: E) -> DlhtClient<LoopbackTransport<E>> {
    DlhtClient::new(LoopbackTransport::new(engine))
}

/// The server side of a [`LoopbackBackend`]: each batch runs on a fresh
/// engine of the served backend (a test harness can afford one per batch),
/// so the wire keeps that backend's own batch semantics, reordering included.
pub struct Served(Arc<dyn KvBackend>);

impl Engine for Served {
    fn prefetch(&self, _key: u64) {}
    fn execute_prefetched(&self, batch: &mut Batch, policy: BatchPolicy) {
        self.0.engine().execute(batch, policy);
    }
}

impl AdminBackend for Served {
    fn table_stats(&self) -> TableStats {
        self.0.stats()
    }
    fn retired_indexes(&self) -> usize {
        self.0.retired_indexes()
    }
    fn live_keys(&self) -> u64 {
        self.0.len() as u64
    }
}

/// One loopback connection to a [`Served`] backend, shared by every thread
/// behind a lock.
pub struct LoopbackLink(Mutex<DlhtClient<LoopbackTransport<Served>>>);

impl fmt::Display for LoopbackLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("loopback wire")
    }
}

impl Link for LoopbackLink {
    type Transport = LoopbackTransport<Served>;

    fn with_client<R>(
        &self,
        f: impl FnOnce(&mut DlhtClient<Self::Transport>) -> Result<R, NetError>,
    ) -> Result<R, NetError> {
        f(&mut self.0.lock().expect("loopback client lock"))
    }
}

/// Any [`KvBackend`] served **through the wire protocol** in-process: every
/// operation is encoded into frames, decoded by the server-side [`Service`],
/// executed on the inner backend, and the response decoded back.
///
/// `name()` and `features()` pass through to the inner backend so
/// capability-probing test harnesses (the model-differential oracle) treat
/// the wrapped table exactly like the bare one.
pub type LoopbackBackend = WireBackend<LoopbackLink>;

impl LoopbackBackend {
    /// Serve `backend` through a loopback wire connection, with batches sent
    /// as explicit `BATCH` frames.
    pub fn new(backend: Arc<dyn KvBackend>) -> Self {
        Self::serve(backend, false)
    }

    /// Like [`LoopbackBackend::new`], but `RunAll` batches travel as
    /// pipelined plain frames (the wire-pipelining path); policies that need
    /// the batch envelope (`StopOnFailure`, `Unordered`) still use `BATCH`
    /// frames.
    pub fn with_pipelined_singles(backend: Arc<dyn KvBackend>) -> Self {
        Self::serve(backend, true)
    }

    fn serve(backend: Arc<dyn KvBackend>, pipelined_singles: bool) -> Self {
        WireBackend {
            name: backend.name(),
            features: backend.features(),
            link: LoopbackLink(Mutex::new(loopback_client(Served(backend)))),
            pipelined_singles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlht_core::{DlhtError, Request, Response, ShardedTable};

    fn run(lb: &LoopbackBackend, reqs: &[Request], policy: BatchPolicy) -> Vec<Response> {
        let mut batch = Batch::from(reqs);
        lb.engine().execute(&mut batch, policy);
        batch.into_responses()
    }

    fn loopback(pipelined: bool) -> LoopbackBackend {
        let table: Arc<dyn KvBackend> = Arc::new(ShardedTable::with_capacity(2, 1024));
        if pipelined {
            LoopbackBackend::with_pipelined_singles(table)
        } else {
            LoopbackBackend::new(table)
        }
    }

    #[test]
    fn singles_roundtrip_through_the_wire() {
        let lb = loopback(false);
        assert!(lb.insert(1, 10).unwrap().inserted());
        assert_eq!(lb.get(1), Some(10));
        assert_eq!(lb.put(1, 11), Some(10));
        assert_eq!(lb.delete(1), Some(11));
        assert_eq!(lb.get(1), None);
        assert_eq!(lb.insert(u64::MAX, 1), Err(DlhtError::ReservedKey));
        assert_eq!(lb.len(), 0);
    }

    #[test]
    fn both_batch_transports_agree_with_local_execution() {
        for pipelined in [false, true] {
            let lb = loopback(pipelined);
            let reqs = [
                Request::Insert(1, 10),
                Request::Get(1),
                Request::Put(1, 11),
                Request::Get(1),
                Request::Delete(1),
                Request::Get(1),
            ];
            let out = run(&lb, &reqs, BatchPolicy::RunAll);
            assert_eq!(out[1], Response::Value(Some(10)), "pipelined={pipelined}");
            assert_eq!(out[3], Response::Value(Some(11)), "pipelined={pipelined}");
            assert_eq!(out[5], Response::Value(None), "pipelined={pipelined}");
        }
    }

    #[test]
    fn stop_on_failure_skips_over_the_wire() {
        for pipelined in [false, true] {
            let lb = loopback(pipelined);
            let out = run(
                &lb,
                &[
                    Request::Insert(1, 1),
                    Request::Get(999),
                    Request::Insert(2, 2),
                ],
                BatchPolicy::StopOnFailure,
            );
            assert_eq!(out[2], Response::Skipped);
            assert_eq!(lb.get(2), None);
        }
    }

    #[test]
    fn typed_stats_cross_the_wire() {
        let lb = loopback(false);
        for k in 0..50u64 {
            let _ = lb.insert(k, k).unwrap();
        }
        let stats = lb.remote_stats();
        assert_eq!(stats.table.occupied_slots, 50);
        assert!(stats.table.bins > 0);
        assert_eq!(stats.retired, 0);
        assert_eq!(KvBackend::stats(&lb).occupied_slots, 50);
        assert_eq!(lb.len(), 50);
    }

    #[test]
    fn reusable_batches_stay_consistent_across_reuse() {
        let lb = loopback(true);
        let engine = lb.engine();
        let mut batch = Batch::with_capacity(3);
        for round in 0..10u64 {
            batch.clear();
            batch.push_insert(round, round * 7);
            batch.push_get(round);
            batch.push_delete(round);
            engine.execute(&mut batch, BatchPolicy::RunAll);
            assert_eq!(batch.responses()[1], Response::Value(Some(round * 7)));
        }
        assert_eq!(lb.len(), 0);
    }
}
