//! Bounded prefetch pipeline: DRAMHiT-style submission with DLHT's
//! no-reorder guarantee.
//!
//! Where a [`crate::Batch`] overlaps memory latencies *within* one call, a
//! [`Pipeline`] keeps a stream of operations in flight *across* calls: every
//! [`Pipeline::submit`] issues the software prefetch for the request's bin
//! immediately, and the request executes only once up to `depth` later
//! requests have been submitted behind it (or on [`Pipeline::poll`] /
//! [`Pipeline::drain`]). By the time a request executes, its cache line has
//! had the whole pipeline depth worth of work to arrive — the interface shape
//! DRAMHiT uses to reach memory-bandwidth-bound throughput, but with
//! **order-preserving completion**: responses always come back in submission
//! order, the property §5.3.3 shows a lock manager needs to avoid deadlock.
//!
//! ```
//! use dlht_core::{DlhtMap, Pipeline, Request, Response};
//!
//! let map = DlhtMap::with_capacity(1024);
//! map.insert(7, 700).unwrap();
//!
//! let mut pipe = Pipeline::new(map.session(), 8);
//! let mut hits = 0;
//! for key in 0..100u64 {
//!     // Prefetch now, execute once the pipeline is full.
//!     if let Some(Response::Value(Some(_))) = pipe.submit(Request::Get(key)) {
//!         hits += 1;
//!     }
//! }
//! for resp in pipe.drain() {
//!     if matches!(resp, Response::Value(Some(_))) {
//!         hits += 1;
//!     }
//! }
//! assert_eq!(hits, 1);
//! ```

use crate::batch::{Batch, BatchPolicy, Request, Response};
use crate::engine::Engine;
use std::collections::VecDeque;

/// A bounded in-flight window of operations over an [`Engine`].
///
/// Up to `depth` submitted requests are held *pending*: prefetched but not
/// yet executed. When the window fills, the oldest `depth/2` pending requests
/// execute as one batch (amortizing the enter/leave announcement) and their
/// responses queue up for retrieval — strictly in submission order.
///
/// # Completion order
///
/// Responses are returned in exactly the order their requests were submitted,
/// at every depth; a pipeline of depth 1 is behaviourally identical to
/// calling the single-request operations in a loop.
///
/// # Dropping
///
/// Dropping a pipeline **executes** any still-pending requests (discarding
/// their responses), so a submitted write always takes effect. Call
/// [`Pipeline::drain`] first when the responses matter.
#[must_use = "a Pipeline executes requests only when driven (submit/poll/drain); \
              dropping it unused discards the prefetch window"]
pub struct Pipeline<E: Engine> {
    engine: E,
    depth: usize,
    /// How many pending requests execute per flush: `max(depth / 2, 1)`, so a
    /// full window keeps at least half its prefetch distance after a flush.
    chunk: usize,
    flush_policy: BatchPolicy,
    pending: VecDeque<Request>,
    ready: VecDeque<Response>,
    scratch: Batch,
}

impl<E: Engine> Pipeline<E> {
    /// Create a pipeline of at most `depth` in-flight requests over `engine`
    /// (`depth` is clamped to at least 1). Executes with
    /// [`BatchPolicy::RunAll`]; streams have no meaningful "stop the batch"
    /// boundary.
    pub fn new(engine: E, depth: usize) -> Self {
        Self::with_flush_policy(engine, depth, BatchPolicy::RunAll)
    }

    /// [`Pipeline::new`] with an explicit flush policy. The only other policy
    /// that makes sense for a stream is [`BatchPolicy::Unordered`], which lets
    /// reordering engines (the DRAMHiT-like baseline) run each flushed chunk
    /// natively out of order; responses still come back in submission order.
    pub fn with_flush_policy(engine: E, depth: usize, flush_policy: BatchPolicy) -> Self {
        let depth = depth.max(1);
        Pipeline {
            engine,
            depth,
            chunk: (depth / 2).max(1),
            flush_policy,
            pending: VecDeque::with_capacity(depth),
            ready: VecDeque::with_capacity(depth),
            scratch: Batch::with_capacity((depth / 2).max(1)),
        }
    }

    /// The configured maximum number of in-flight (pending) requests.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Requests submitted but not yet executed.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Responses executed but not yet retrieved.
    pub fn ready(&self) -> usize {
        self.ready.len()
    }

    /// Submit a request: its prefetch is issued immediately, execution is
    /// deferred until the in-flight window fills (or a poll/drain).
    ///
    /// Returns the oldest completed response, if one is available — in steady
    /// state every submit returns exactly one response, lag `depth` behind
    /// the submission stream.
    // HOT: per-op path on the pipelined client loop — must not panic.
    pub fn submit(&mut self, request: Request) -> Option<Response> {
        self.engine.prefetch(request.key());
        self.pending.push_back(request);
        if self.pending.len() >= self.depth {
            self.flush_n(self.chunk);
        }
        self.ready.pop_front()
    }

    /// Retrieve the oldest response, executing pending requests if none is
    /// ready yet. Returns `None` only when the pipeline is empty.
    // HOT: per-op path on the pipelined client loop — must not panic.
    pub fn poll(&mut self) -> Option<Response> {
        if self.ready.is_empty() && !self.pending.is_empty() {
            self.flush_n(self.chunk.min(self.pending.len()));
        }
        self.ready.pop_front()
    }

    /// Execute every pending request now (responses become retrievable via
    /// [`Pipeline::poll`] / [`Pipeline::drain`]).
    pub fn flush(&mut self) {
        let n = self.pending.len();
        self.flush_n(n);
    }

    /// Execute everything still pending and append all remaining responses to
    /// `out`, in submission order. Returns how many responses were appended.
    /// `out` is not cleared, so a caller-provided buffer can accumulate.
    pub fn drain_into(&mut self, out: &mut Vec<Response>) -> usize {
        self.flush();
        let n = self.ready.len();
        out.reserve(n);
        while let Some(resp) = self.ready.pop_front() {
            out.push(resp);
        }
        n
    }

    /// Convenience over [`Pipeline::drain_into`] allocating a fresh vector.
    pub fn drain(&mut self) -> Vec<Response> {
        let mut out = Vec::new();
        self.drain_into(&mut out);
        out
    }

    /// Execute the oldest `n` pending requests as one batch.
    // HOT: per-op path under Pipeline::submit/poll — must not panic.
    fn flush_n(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        self.scratch.clear();
        // Bounded by whatever is actually pending: a caller-supplied `n`
        // larger than the queue flushes everything rather than panicking.
        for _ in 0..n {
            match self.pending.pop_front() {
                Some(req) => self.scratch.push(req),
                None => break,
            }
        }
        self.engine
            .execute_prefetched(&mut self.scratch, self.flush_policy);
        self.ready.extend(self.scratch.responses().iter().copied());
    }
}

impl<E: Engine> Drop for Pipeline<E> {
    fn drop(&mut self) {
        // A submitted request must take effect even if the caller never
        // polled for its response — but not while unwinding from a panic in
        // the executor itself, where re-executing would panic again and turn
        // the unwind into a process abort.
        if !std::thread::panicking() {
            self.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::DlhtMap;

    #[test]
    fn depth_is_clamped_and_reported() {
        let map = DlhtMap::with_capacity(64);
        let pipe = Pipeline::new(map.session(), 0);
        assert_eq!(pipe.depth(), 1);
        let pipe = Pipeline::new(map.session(), 32);
        assert_eq!(pipe.depth(), 32);
    }

    #[test]
    fn responses_preserve_submission_order() {
        let map = DlhtMap::with_capacity(1024);
        for k in 0..64u64 {
            let _ = map.insert(k, k * 3).unwrap();
        }
        let mut pipe = Pipeline::new(map.session(), 8);
        let mut got = Vec::new();
        for k in 0..64u64 {
            if let Some(r) = pipe.submit(Request::Get(k)) {
                got.push(r);
            }
        }
        pipe.drain_into(&mut got);
        assert_eq!(got.len(), 64);
        for (k, r) in got.iter().enumerate() {
            assert_eq!(*r, Response::Value(Some(k as u64 * 3)));
        }
    }

    #[test]
    fn dependent_requests_observe_earlier_submissions() {
        // Insert then Get of the same key through the pipeline: the Get must
        // see the Insert because execution is strictly in submission order.
        let map = DlhtMap::with_capacity(1024);
        let mut pipe = Pipeline::new(map.session(), 16);
        let mut out = Vec::new();
        for k in 0..50u64 {
            for req in [
                Request::Insert(k, k + 1),
                Request::Get(k),
                Request::Delete(k),
            ] {
                if let Some(r) = pipe.submit(req) {
                    out.push(r);
                }
            }
        }
        pipe.drain_into(&mut out);
        assert_eq!(out.len(), 150);
        for k in 0..50usize {
            assert_eq!(out[3 * k + 1], Response::Value(Some(k as u64 + 1)));
            assert_eq!(out[3 * k + 2], Response::Deleted(Some(k as u64 + 1)));
        }
        assert!(map.is_empty());
    }

    #[test]
    fn in_flight_stays_bounded_by_depth() {
        let map = DlhtMap::with_capacity(1024);
        let mut pipe = Pipeline::new(map.session(), 8);
        for k in 0..1000u64 {
            pipe.submit(Request::Get(k));
            assert!(pipe.in_flight() < 8 + 1, "window must stay bounded");
        }
    }

    #[test]
    fn drop_executes_pending_writes() {
        let map = DlhtMap::with_capacity(64);
        {
            let mut pipe = Pipeline::new(map.session(), 32);
            pipe.submit(Request::Insert(5, 50));
            // Dropped without poll/drain.
        }
        assert_eq!(map.get(5), Some(50));
    }

    #[test]
    fn poll_on_empty_pipeline_is_none() {
        let map = DlhtMap::with_capacity(64);
        let mut pipe = Pipeline::new(map.session(), 4);
        assert_eq!(pipe.poll(), None);
        pipe.submit(Request::Get(1));
        assert_eq!(pipe.poll(), Some(Response::Value(None)));
        assert_eq!(pipe.poll(), None);
    }
}
