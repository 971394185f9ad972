//! The server-side protocol engine: turn a stream of wire frames into
//! batched table execution.
//!
//! A [`Service`] is the piece every transport shares — the TCP connection
//! handler and the in-process [`crate::loopback`] transport both feed raw
//! bytes into [`Service::process`]. Its central move is the wire equivalent
//! of the core's prefetch [`dlht_core::Pipeline`]:
//!
//! 1. every *complete* plain request frame in the input is decoded
//!    (zero-copy) and pushed into one reusable [`Batch`], issuing the
//!    request's software prefetch **at decode time**;
//! 2. when the input runs dry (= the bytes one socket read returned), the
//!    accumulated batch executes via [`Engine::execute_prefetched`] — the
//!    sweep was already paid frame by frame;
//! 3. one `RESP` frame per request is appended to the output, in submission
//!    order.
//!
//! A client that pipelines N requests in one write therefore gets exactly
//! the paper's batch execution (§3.3) on the server: wire pipelining ≙
//! prefetch pipeline depth. Explicit `BATCH` frames carry a
//! [`BatchPolicy`] and execute as their own batch.
//!
//! The wire boundary has two planes, each written once. The data plane is
//! the table's per-thread [`Engine`]: the server hands each connection its
//! worker's [`dlht_core::ShardedSession`], and the loopback transport takes
//! any engine, [`dlht_core::BackendEngine`] included. The control plane is
//! [`AdminBackend`]: `STATS`/`LEN`/`PING` are answered from it by one
//! function on both the data port (where they are barriers that flush the
//! pending singles first, so global ordering holds) and the admin plane.

use crate::metrics::ServiceObs;
use crate::wire::{self, WireError};
use dlht_core::{
    BackendEngine, Batch, BatchPolicy, CacheMap, CacheStats, Engine, KvBackend, ShardedSession,
    ShardedTable, TableStats,
};
use std::ops::Deref;
use std::time::Instant;

/// The control plane: what a server answers `STATS` and `LEN` from, and
/// which shard a slow-op trace entry names. The data port asks it of the
/// connection's engine, the admin plane of the shared store.
pub trait AdminBackend {
    /// Structural statistics for the `STATS` command.
    fn table_stats(&self) -> TableStats;
    /// Retired-index count for the `STATS` command.
    fn retired_indexes(&self) -> usize;
    /// Live keys for the `LEN` command (may be linear-time).
    fn live_keys(&self) -> u64;
    /// Cache persona counters; `None` on the kv persona (the `STATS`
    /// response is then the plain, unextended payload).
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }
    /// Which shard `key` routes to, for slow-op trace attribution.
    /// Unsharded stores stay on the default.
    fn shard_of(&self, _key: u64) -> u32 {
        0
    }
}

/// Several connections on one event-loop worker share that worker's
/// session by reference.
impl<T: AdminBackend + ?Sized> AdminBackend for &T {
    fn table_stats(&self) -> TableStats {
        (**self).table_stats()
    }
    fn retired_indexes(&self) -> usize {
        (**self).retired_indexes()
    }
    fn live_keys(&self) -> u64 {
        (**self).live_keys()
    }
    fn cache_stats(&self) -> Option<CacheStats> {
        (**self).cache_stats()
    }
    fn shard_of(&self, key: u64) -> u32 {
        (**self).shard_of(key)
    }
}

impl AdminBackend for ShardedTable {
    fn table_stats(&self) -> TableStats {
        self.stats()
    }
    fn retired_indexes(&self) -> usize {
        ShardedTable::retired_indexes(self)
    }
    fn live_keys(&self) -> u64 {
        self.len() as u64
    }
}

/// A worker's session answers for the table it routes into.
impl AdminBackend for ShardedSession<'_> {
    fn table_stats(&self) -> TableStats {
        self.table().table_stats()
    }
    fn retired_indexes(&self) -> usize {
        self.table().retired_indexes()
    }
    fn live_keys(&self) -> u64 {
        self.table().live_keys()
    }
    fn shard_of(&self, key: u64) -> u32 {
        self.table().shard_of(key) as u32
    }
}

impl AdminBackend for CacheMap {
    fn table_stats(&self) -> TableStats {
        CacheMap::table_stats(self)
    }
    fn retired_indexes(&self) -> usize {
        CacheMap::retired_indexes(self)
    }
    fn live_keys(&self) -> u64 {
        self.len()
    }
    fn cache_stats(&self) -> Option<CacheStats> {
        Some(self.stats())
    }
}

impl<P: Deref> AdminBackend for BackendEngine<P>
where
    P::Target: KvBackend,
{
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

/// Answer one `STATS`, `LEN` or `PING` frame from `backend`, appending the
/// response to `out` — the one answerer of the data port and the admin
/// plane. Any other opcode is [`WireError::UnknownOpcode`].
pub(crate) fn answer_control<B: AdminBackend + ?Sized>(
    backend: &B,
    opcode: u8,
    payload: &[u8],
    out: &mut Vec<u8>,
) -> Result<(), WireError> {
    match opcode {
        wire::op::STATS | wire::op::LEN if !payload.is_empty() => Err(WireError::BadPayload {
            opcode,
            len: payload.len(),
        }),
        wire::op::STATS => {
            let table = backend.table_stats();
            let retired = backend.retired_indexes();
            match backend.cache_stats() {
                Some(cache) => wire::encode_stats_cache(out, &table, retired, &cache),
                None => wire::encode_stats(out, &table, retired),
            }
            Ok(())
        }
        wire::op::LEN => {
            wire::encode_len(out, backend.live_keys());
            Ok(())
        }
        wire::op::PING => {
            wire::put_header(out, wire::resp::PONG, payload.len());
            out.extend_from_slice(payload);
            Ok(())
        }
        other => Err(WireError::UnknownOpcode(other)),
    }
}

/// Per-connection counters, merged into the server-wide totals when the
/// connection closes (and visible live through [`Service::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Request frames decoded.
    pub frames: u64,
    /// Table operations executed (batch items count individually).
    pub ops: u64,
    /// Batch executions (each covers one drained pipeline window or one
    /// explicit `BATCH` frame).
    pub batches: u64,
    /// Deepest pipelined drain observed (requests per batch execution).
    pub max_drain: usize,
}

/// How the event loop should proceed after a protocol adapter handled a
/// chunk of input. The binary [`Service`] maps its `Result` onto this;
/// line-oriented adapters (the memcache persona) return it directly so a
/// clean `quit` is distinguishable from a protocol violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// Keep serving the connection.
    Keep,
    /// The peer asked to close (e.g. memcache `quit`): flush pending
    /// writes, then close without counting a protocol error.
    CloseClean,
    /// Unrecoverable protocol violation: flush the error answer already in
    /// the write buffer, count a protocol error, then close.
    CloseError,
}

/// The transport-independent connection engine (module docs above).
pub struct Service<E: Engine + AdminBackend> {
    engine: E,
    /// Reusable batch: steady-state processing is allocation-free.
    batch: Batch,
    stats: ConnStats,
    /// Per-opcode latency recording; `None` keeps the hot path free of
    /// even the `Instant::now` calls.
    obs: Option<ServiceObs>,
}

impl<E: Engine + AdminBackend> Service<E> {
    /// Create a service executing against `engine`.
    pub fn new(engine: E) -> Self {
        Service {
            engine,
            batch: Batch::with_capacity(64),
            stats: ConnStats::default(),
            obs: None,
        }
    }

    /// Record per-opcode decode→response-queued latencies (and slow-op
    /// traces) through `obs`.
    pub fn with_obs(mut self, obs: ServiceObs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// This connection's counters so far.
    pub fn stats(&self) -> ConnStats {
        self.stats
    }

    /// Borrow the engine (tests, direct stats access).
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Execute the accumulated plain-frame batch, appending one `RESP` frame
    /// per request to `out`.
    fn flush_singles(&mut self, out: &mut Vec<u8>, t0: Option<Instant>) {
        if self.batch.is_empty() {
            return;
        }
        self.stats.ops += self.batch.len() as u64;
        self.stats.batches += 1;
        self.stats.max_drain = self.stats.max_drain.max(self.batch.len());
        // Pipelined wire requests carry no policy: they execute RunAll, like
        // a pipeline flush (a stream has no meaningful batch boundary).
        self.engine
            .execute_prefetched(&mut self.batch, BatchPolicy::RunAll);
        for r in self.batch.responses() {
            wire::encode_response(out, *r);
        }
        // Every request in the drained window shares the window's
        // decode→response-queued span: that is the latency its client
        // observes, queueing included.
        if let (Some(obs), Some(t0)) = (&self.obs, t0) {
            let ns = t0.elapsed().as_nanos() as u64;
            let depth = self.batch.len() as u32;
            for req in self.batch.requests() {
                obs.record_request(req, || self.engine.shard_of(req.key()), depth, ns);
            }
        }
        self.batch.clear();
    }

    /// Consume as many complete frames as `input` holds, appending response
    /// bytes to `out`. Returns how many input bytes were consumed; the
    /// caller keeps the unconsumed tail (an incomplete frame) for the next
    /// call.
    ///
    /// `Err` means the peer violated the protocol: every request decoded
    /// *before* the violation has executed and its response is in `out`,
    /// followed by one final [`wire::resp::ERR`] frame — the caller must
    /// write `out` and close the connection. The engine is untouched by the
    /// malformed frame itself, and this function never panics on arbitrary
    /// input.
    pub fn process(&mut self, input: &[u8], out: &mut Vec<u8>) -> Result<usize, WireError> {
        let t0 = self.obs.as_ref().map(|_| Instant::now());
        let mut consumed = 0;
        let result = loop {
            match wire::decode_frame(&input[consumed..]) {
                Ok(None) => break Ok(()),
                Err(e) => break Err(e),
                Ok(Some((frame, used))) => {
                    consumed += used;
                    self.stats.frames += 1;
                    if let Err(e) = self.handle_frame(frame.opcode, frame.payload, out, t0) {
                        break Err(e);
                    }
                }
            }
        };
        // Answer everything that was validly pipelined before the cut.
        self.flush_singles(out, t0);
        match result {
            Ok(()) => Ok(consumed),
            Err(e) => {
                wire::encode_error_frame(out, &e);
                Err(e)
            }
        }
    }

    fn handle_frame(
        &mut self,
        opcode: u8,
        payload: &[u8],
        out: &mut Vec<u8>,
        t0: Option<Instant>,
    ) -> Result<(), WireError> {
        match opcode {
            wire::op::GET | wire::op::PUT | wire::op::INSERT | wire::op::DELETE => {
                let req = wire::decode_request(opcode, payload)?;
                // The wire pipeline's submit-time prefetch: by the time the
                // drain executes, this request's cache line has had the rest
                // of the drained window to arrive.
                self.engine.prefetch(req.key());
                self.batch.push(req);
                Ok(())
            }
            wire::op::BATCH => {
                let (policy, count, items) = wire::decode_batch_header(payload)?;
                // Decode fully before executing: a malformed item must not
                // half-execute the batch. Ordering still holds because the
                // pending singles flush first.
                self.flush_singles(out, t0);
                debug_assert!(self.batch.is_empty());
                let mut iter = wire::BatchIter::new(items, count);
                for item in iter.by_ref() {
                    match item {
                        Ok(req) => {
                            self.engine.prefetch(req.key());
                            self.batch.push(req);
                        }
                        Err(e) => {
                            self.batch.clear();
                            return Err(e);
                        }
                    }
                }
                if let Err(e) = iter.finish() {
                    self.batch.clear();
                    return Err(e);
                }
                self.stats.ops += self.batch.len() as u64;
                self.stats.batches += 1;
                self.stats.max_drain = self.stats.max_drain.max(self.batch.len());
                self.engine.execute_prefetched(&mut self.batch, policy);
                wire::encode_batch_responses(out, self.batch.responses());
                if let (Some(obs), Some(t0)) = (&self.obs, t0) {
                    let first_key = self.batch.requests().first().map(|r| r.key());
                    let len = self.batch.len() as u32;
                    obs.record_batch(first_key, len, t0.elapsed().as_nanos() as u64);
                }
                self.batch.clear();
                Ok(())
            }
            // STATS, LEN and PING are barriers: the pending singles are
            // answered first, so global ordering holds.
            _ => {
                self.flush_singles(out, t0);
                answer_control(&self.engine, opcode, payload, out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlht_core::{BackendEngine, KvBackend, Request, Response, ShardedTable};
    use std::sync::Arc;

    fn service() -> Service<BackendEngine<Arc<ShardedTable>>> {
        let table = Arc::new(ShardedTable::with_capacity(2, 1024));
        Service::new(BackendEngine(table))
    }

    fn run(svc: &mut Service<BackendEngine<Arc<ShardedTable>>>, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let consumed = svc.process(input, &mut out).expect("valid input");
        assert_eq!(consumed, input.len());
        out
    }

    fn parse_responses(mut bytes: &[u8]) -> Vec<Response> {
        let mut resps = Vec::new();
        while !bytes.is_empty() {
            let (frame, used) = wire::decode_frame(bytes).unwrap().unwrap();
            assert_eq!(frame.opcode, wire::resp::RESP);
            resps.push(wire::decode_response(frame.payload).unwrap());
            bytes = &bytes[used..];
        }
        resps
    }

    #[test]
    fn pipelined_singles_drain_into_one_batch() {
        let mut svc = service();
        let mut input = Vec::new();
        wire::encode_request(&mut input, Request::Insert(1, 10));
        wire::encode_request(&mut input, Request::Get(1));
        wire::encode_request(&mut input, Request::Delete(1));
        wire::encode_request(&mut input, Request::Get(1));
        let out = run(&mut svc, &input);
        let resps = parse_responses(&out);
        assert_eq!(resps[1], Response::Value(Some(10)));
        assert_eq!(resps[2], Response::Deleted(Some(10)));
        assert_eq!(resps[3], Response::Value(None));
        let stats = svc.stats();
        assert_eq!(stats.frames, 4);
        assert_eq!(stats.ops, 4);
        assert_eq!(stats.batches, 1, "one drain = one batch execution");
        assert_eq!(stats.max_drain, 4);
    }

    #[test]
    fn partial_frames_consume_nothing() {
        let mut svc = service();
        let mut input = Vec::new();
        wire::encode_request(&mut input, Request::Get(9));
        let mut out = Vec::new();
        for cut in 0..input.len() {
            assert_eq!(svc.process(&input[..cut], &mut out).unwrap(), 0);
            assert!(out.is_empty());
        }
        // One trailing partial frame after a complete one: only the complete
        // frame is consumed.
        let full_len = input.len();
        wire::encode_request(&mut input, Request::Get(10));
        let consumed = svc.process(&input[..full_len + 3], &mut out).unwrap();
        assert_eq!(consumed, full_len);
        assert_eq!(parse_responses(&out).len(), 1);
    }

    #[test]
    fn malformed_frame_answers_earlier_requests_then_errs() {
        let mut svc = service();
        let mut input = Vec::new();
        wire::encode_request(&mut input, Request::Insert(5, 50));
        input.extend_from_slice(&[0x00; 8]); // bad magic
        let mut out = Vec::new();
        let err = svc.process(&input, &mut out).unwrap_err();
        assert_eq!(err, WireError::BadMagic(0));
        // The valid insert executed and was answered; then the ERR frame.
        let (frame, used) = wire::decode_frame(&out).unwrap().unwrap();
        assert_eq!(frame.opcode, wire::resp::RESP);
        assert!(wire::decode_response(frame.payload).unwrap().succeeded());
        let (err_frame, _) = wire::decode_frame(&out[used..]).unwrap().unwrap();
        assert_eq!(err_frame.opcode, wire::resp::ERR);
        assert_eq!(svc.engine().0.get(5), Some(50));
    }

    #[test]
    fn explicit_batch_respects_policy_and_slots() {
        let mut svc = service();
        let mut input = Vec::new();
        wire::encode_batch(
            &mut input,
            &[
                Request::Insert(1, 1),
                Request::Insert(1, 2), // duplicate -> failure
                Request::Insert(2, 2),
            ],
            BatchPolicy::StopOnFailure,
        );
        let out = run(&mut svc, &input);
        let (frame, _) = wire::decode_frame(&out).unwrap().unwrap();
        assert_eq!(frame.opcode, wire::resp::RESP_BATCH);
        let mut resps = Vec::new();
        wire::decode_batch_responses(frame.payload, &mut resps).unwrap();
        assert!(resps[0].succeeded());
        assert!(!resps[1].succeeded());
        assert_eq!(resps[2], Response::Skipped);
        assert_eq!(svc.engine().0.get(2), None, "skipped insert must not run");
    }

    #[test]
    fn stats_len_and_ping_are_barriers() {
        let mut svc = service();
        let mut input = Vec::new();
        wire::encode_request(&mut input, Request::Insert(3, 30));
        wire::encode_empty(&mut input, wire::op::STATS);
        wire::encode_empty(&mut input, wire::op::LEN);
        wire::put_header(&mut input, wire::op::PING, 2);
        input.extend_from_slice(b"hi");
        let out = run(&mut svc, &input);
        // RESP (the flushed insert), then STATS, LEN, PONG.
        let (f1, u1) = wire::decode_frame(&out).unwrap().unwrap();
        assert_eq!(f1.opcode, wire::resp::RESP);
        let (f2, u2) = wire::decode_frame(&out[u1..]).unwrap().unwrap();
        assert_eq!(f2.opcode, wire::resp::RESP_STATS);
        let stats = wire::decode_stats(f2.payload).unwrap();
        assert_eq!(stats.table.occupied_slots, 1);
        let (f3, u3) = wire::decode_frame(&out[u1 + u2..]).unwrap().unwrap();
        assert_eq!(f3.opcode, wire::resp::RESP_LEN);
        assert_eq!(wire::decode_len(f3.payload).unwrap(), 1);
        let (f4, _) = wire::decode_frame(&out[u1 + u2 + u3..]).unwrap().unwrap();
        assert_eq!(f4.opcode, wire::resp::PONG);
        assert_eq!(f4.payload, b"hi");
    }

    #[test]
    fn session_engine_serves_the_same_semantics() {
        let table = ShardedTable::with_capacity(4, 1024);
        let session = table.session();
        let mut svc = Service::new(session);
        let mut input = Vec::new();
        wire::encode_request(&mut input, Request::Insert(7, 70));
        wire::encode_request(&mut input, Request::Get(7));
        let mut out = Vec::new();
        svc.process(&input, &mut out).unwrap();
        let resps = parse_responses(&out);
        assert_eq!(resps[1], Response::Value(Some(70)));
        assert_eq!(svc.engine().table().len(), 1);
    }
}
