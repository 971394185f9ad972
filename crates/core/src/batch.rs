//! Order-preserving request batching with software prefetching (§3.3).
//!
//! A batch is an array of requests of possibly different types. Execution
//! first sweeps the array issuing a prefetch for every request's bin, then
//! executes the requests **strictly in order** (unlike DRAMHiT, which may
//! reorder — a property §5.3.3 shows can deadlock a lock manager). The
//! enter/leave index-GC notifications are paid once per batch instead of once
//! per request.
//!
//! The submission surface is built from three pieces:
//!
//! * [`Request`] / [`Response`] — the operation vocabulary shared by every
//!   backend in the repository;
//! * [`Batch`] — a reusable buffer owning request **and** response storage,
//!   so steady-state batch execution performs zero heap allocations;
//! * [`BatchPolicy`] — what happens when a request in the batch fails.
//!
//! Every batch runs through a per-thread [`crate::Engine`] — a table's
//! session, or [`crate::KvBackend::engine`] for any backend. Hot loops hold
//! the engine and a [`Batch`] (or a [`crate::Pipeline`]) and re-fill it:
//!
//! ```
//! use dlht_core::{Batch, BatchPolicy, DlhtMap, Response};
//!
//! let map = DlhtMap::with_capacity(1024);
//! let session = map.session(); // one per worker thread
//! let mut batch = Batch::with_capacity(3);
//! for round in 0..10u64 {
//!     batch.clear(); // keeps the allocations
//!     batch.push_insert(round, round * 10);
//!     batch.push_get(round);
//!     batch.push_delete(round);
//!     session.execute(&mut batch, BatchPolicy::RunAll);
//!     assert_eq!(batch.responses()[1], Response::Value(Some(round * 10)));
//! }
//! ```

use crate::error::{DlhtError, InsertOutcome};
use crate::table::DlhtMap;

/// One request in a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Look up a key.
    Get(u64),
    /// Update an existing key's value (Inlined mode).
    Put(u64, u64),
    /// Insert a new key-value pair.
    Insert(u64, u64),
    /// Delete a key.
    Delete(u64),
}

impl Request {
    /// The key this request targets.
    #[inline]
    pub fn key(&self) -> u64 {
        match *self {
            Request::Get(k) | Request::Put(k, _) | Request::Insert(k, _) | Request::Delete(k) => k,
        }
    }

    /// The value this request carries, if the operation has one (`Put` and
    /// `Insert`) — what a wire codec writes after the key.
    #[inline]
    pub fn value(&self) -> Option<u64> {
        match *self {
            Request::Put(_, v) | Request::Insert(_, v) => Some(v),
            Request::Get(_) | Request::Delete(_) => None,
        }
    }
}

/// The result of one request in a batch.
#[must_use = "a Response reports whether (and how) the request took effect; \
              inspect it or bind it to `_`"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Response {
    /// Result of a `Get`: the value if present.
    Value(Option<u64>),
    /// Result of a `Put`: the previous value if the key existed.
    Updated(Option<u64>),
    /// Result of an `Insert`.
    Inserted(Result<InsertOutcome, DlhtError>),
    /// Result of a `Delete`: the removed value if the key existed.
    Deleted(Option<u64>),
    /// The request was skipped because an earlier request failed and the
    /// batch was submitted with [`BatchPolicy::StopOnFailure`].
    Skipped,
}

impl Response {
    /// Whether the request "succeeded" in the sense used by
    /// [`BatchPolicy::StopOnFailure`]: Gets/Puts/Deletes succeed when the key
    /// was found, Inserts when the key was actually inserted.
    pub fn succeeded(&self) -> bool {
        match self {
            Response::Value(v) => v.is_some(),
            Response::Updated(v) => v.is_some(),
            Response::Inserted(r) => matches!(r, Ok(o) if o.inserted()),
            Response::Deleted(v) => v.is_some(),
            Response::Skipped => false,
        }
    }

    /// Whether this slot was skipped by [`BatchPolicy::StopOnFailure`].
    ///
    /// Callers inspecting per-slot results should match on
    /// [`Response::Skipped`] explicitly rather than conflating "skipped" with
    /// "executed and failed" — a skipped request had **no effect** on the
    /// table.
    #[inline]
    pub fn is_skipped(&self) -> bool {
        matches!(self, Response::Skipped)
    }
}

/// What happens when a request in a batch does not succeed
/// (see [`Response::succeeded`]).
///
/// This replaces the historical bare `stop_on_failure: bool` argument that
/// leaked through every layer of the repository.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BatchPolicy {
    /// Execute every request regardless of failures (the common case).
    #[default]
    RunAll,
    /// The first request that does not succeed terminates the batch; the
    /// remaining slots are filled with [`Response::Skipped`] and have no
    /// effect — the behaviour DLHT offers to clients such as lock managers
    /// (§3.3, §5.3.3).
    StopOnFailure,
    /// The caller does not depend on execution order: backends whose engine
    /// reorders requests (DRAMHiT-like) may do so freely. DLHT itself still
    /// executes in submission order — its no-reorder guarantee is
    /// unconditional (§5.3.3) — so on DLHT this behaves like
    /// [`BatchPolicy::RunAll`]. Responses always land in submission slots.
    Unordered,
}

impl BatchPolicy {
    /// Whether the first failing request terminates the batch.
    #[inline]
    pub fn stops_on_failure(self) -> bool {
        matches!(self, BatchPolicy::StopOnFailure)
    }
}

/// A reusable batch of requests that owns its response storage.
///
/// `Batch` is the repository's steady-state submission buffer: push requests,
/// hand the batch to [`crate::Engine::execute`] (or
/// [`crate::Session::execute`]), read [`Batch::responses`], then
/// [`Batch::clear`] and re-fill. Both internal `Vec`s retain their capacity
/// across `clear`, so a warm batch executes without touching the allocator.
///
/// Response slot `i` always corresponds to request slot `i`, for every
/// backend (even the reordering DRAMHiT-like baseline writes results back in
/// submission order).
#[must_use = "a Batch does nothing until executed (Engine::execute / Session::execute)"]
#[derive(Debug, Default, Clone)]
pub struct Batch {
    requests: Vec<Request>,
    responses: Vec<Response>,
}

impl Batch {
    /// Create an empty batch.
    pub fn new() -> Self {
        Batch::default()
    }

    /// Create an empty batch with room for `capacity` requests (and their
    /// responses) before any reallocation.
    pub fn with_capacity(capacity: usize) -> Self {
        Batch {
            requests: Vec::with_capacity(capacity),
            responses: Vec::with_capacity(capacity),
        }
    }

    /// Queue a request.
    #[inline]
    pub fn push(&mut self, request: Request) {
        self.requests.push(request);
    }

    /// Queue a `Get(key)`.
    #[inline]
    pub fn push_get(&mut self, key: u64) {
        self.push(Request::Get(key));
    }

    /// Queue a `Put(key, value)`.
    #[inline]
    pub fn push_put(&mut self, key: u64, value: u64) {
        self.push(Request::Put(key, value));
    }

    /// Queue an `Insert(key, value)`.
    #[inline]
    pub fn push_insert(&mut self, key: u64, value: u64) {
        self.push(Request::Insert(key, value));
    }

    /// Queue a `Delete(key)`.
    #[inline]
    pub fn push_delete(&mut self, key: u64) {
        self.push(Request::Delete(key));
    }

    /// Number of queued requests.
    #[inline]
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether no requests are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Request capacity before the next reallocation.
    pub fn capacity(&self) -> usize {
        self.requests.capacity()
    }

    /// Drop all queued requests and responses, **keeping** both allocations —
    /// the reuse entry point for steady-state execution.
    pub fn clear(&mut self) {
        self.requests.clear();
        self.responses.clear();
    }

    /// The queued requests, in submission order.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// The responses of the most recent execution, one per request in
    /// submission order. Empty until the batch has been executed.
    pub fn responses(&self) -> &[Response] {
        &self.responses
    }

    /// Consume the batch and return the response storage (one-shot callers).
    pub fn into_responses(self) -> Vec<Response> {
        self.responses
    }

    /// Split the batch for an executor: clears (and pre-reserves) the
    /// response vector and returns `(requests, responses)`.
    ///
    /// **Executor contract** (for [`crate::Engine::execute_prefetched`]
    /// implementations only): push exactly one [`Response`] per request, in
    /// submission-slot order. Regular callers never need this.
    pub fn begin_execution(&mut self) -> (&[Request], &mut Vec<Response>) {
        self.responses.clear();
        self.responses.reserve(self.requests.len());
        (&self.requests, &mut self.responses)
    }

    /// Run the queued requests through `step` strictly in submission order,
    /// one [`Response`] per request into the batch's response storage. Under
    /// [`BatchPolicy::StopOnFailure`] the first request that does not succeed
    /// ends the batch: every later slot is [`Response::Skipped`] and `step`
    /// never sees its request. DLHT's no-reorder guarantee holds under
    /// [`BatchPolicy::Unordered`] too (§5.3.3).
    ///
    /// This is the one execution loop behind every table's batch entry
    /// point; each table supplies only the per-request step.
    // HOT: per-batch path under Pipeline::flush — must not panic.
    #[inline]
    pub(crate) fn run_in_order(
        &mut self,
        policy: BatchPolicy,
        mut step: impl FnMut(Request) -> Response,
    ) {
        let (requests, responses) = self.begin_execution();
        let mut stopped = false;
        for &req in requests {
            if stopped {
                responses.push(Response::Skipped);
                continue;
            }
            let resp = step(req);
            stopped = policy.stops_on_failure() && !resp.succeeded();
            responses.push(resp);
        }
    }
}

impl From<&[Request]> for Batch {
    fn from(requests: &[Request]) -> Self {
        Batch {
            requests: requests.to_vec(),
            responses: Vec::with_capacity(requests.len()),
        }
    }
}

impl FromIterator<Request> for Batch {
    fn from_iter<I: IntoIterator<Item = Request>>(iter: I) -> Self {
        Batch {
            requests: iter.into_iter().collect(),
            responses: Vec::new(),
        }
    }
}

impl Extend<Request> for Batch {
    fn extend<I: IntoIterator<Item = Request>>(&mut self, iter: I) {
        self.requests.extend(iter);
    }
}

impl DlhtMap {
    /// Execute one request starting from an already-announced index
    /// generation (the caller holds the `EnterGuard` that produced `start`).
    #[inline]
    pub(crate) fn exec_guarded(&self, start: *mut crate::index::Index, req: Request) -> Response {
        match req {
            Request::Get(k) => Response::Value(self.get_guarded(start, k)),
            Request::Put(k, v) => Response::Updated(self.put_guarded(start, k, v)),
            Request::Insert(k, v) => Response::Inserted(self.insert_guarded(
                start,
                k,
                v,
                crate::header::SlotState::Valid,
            )),
            Request::Delete(k) => Response::Deleted(self.delete_guarded(start, k)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DlhtConfig;

    fn table() -> DlhtMap {
        DlhtMap::with_config(DlhtConfig::new(256))
    }

    /// Run `reqs` as one batch through a session of `t`.
    fn run(t: &DlhtMap, reqs: &[Request], policy: BatchPolicy) -> Vec<Response> {
        let mut batch = Batch::from(reqs);
        t.session().execute(&mut batch, policy);
        batch.into_responses()
    }

    #[test]
    fn mixed_batch_respects_order() {
        let t = table();
        let reqs = vec![
            Request::Insert(1, 10),
            Request::Get(1),
            Request::Put(1, 11),
            Request::Get(1),
            Request::Delete(1),
            Request::Get(1),
        ];
        let resps = run(&t, &reqs, BatchPolicy::RunAll);
        assert_eq!(resps[1], Response::Value(Some(10)));
        assert_eq!(resps[2], Response::Updated(Some(10)));
        assert_eq!(resps[3], Response::Value(Some(11)));
        assert_eq!(resps[4], Response::Deleted(Some(11)));
        assert_eq!(resps[5], Response::Value(None));
    }

    #[test]
    fn stop_on_failure_skips_the_rest() {
        let t = table();
        let _ = t.insert(7, 70).unwrap();
        let reqs = vec![
            Request::Get(7),
            Request::Get(999), // miss -> failure
            Request::Insert(8, 80),
            Request::Delete(7),
        ];
        let resps = run(&t, &reqs, BatchPolicy::StopOnFailure);
        assert_eq!(resps[0], Response::Value(Some(70)));
        assert_eq!(resps[1], Response::Value(None));
        assert_eq!(resps[2], Response::Skipped);
        assert_eq!(resps[3], Response::Skipped);
        assert!(resps[2].is_skipped() && resps[3].is_skipped());
        // The skipped requests must not have executed.
        assert_eq!(t.get(8), None);
        assert_eq!(t.get(7), Some(70));
    }

    #[test]
    fn duplicate_insert_counts_as_failure_for_lock_managers() {
        let t = table();
        let reqs = vec![
            Request::Insert(1, 0),
            Request::Insert(1, 0), // lock already held -> failure
            Request::Insert(2, 0),
        ];
        let resps = run(&t, &reqs, BatchPolicy::StopOnFailure);
        assert!(resps[0].succeeded());
        assert!(!resps[1].succeeded());
        assert_eq!(resps[2], Response::Skipped);
    }

    #[test]
    fn request_key_accessor() {
        assert_eq!(Request::Get(3).key(), 3);
        assert_eq!(Request::Put(4, 0).key(), 4);
        assert_eq!(Request::Insert(5, 0).key(), 5);
        assert_eq!(Request::Delete(6).key(), 6);
    }

    #[test]
    fn large_batch_with_prefetching_matches_sequential_results() {
        let t = table();
        for k in 0..128u64 {
            let _ = t.insert(k, k * 2).unwrap();
        }
        let reqs: Vec<Request> = (0..256u64).map(Request::Get).collect();
        let resps = run(&t, &reqs, BatchPolicy::RunAll);
        for k in 0..256u64 {
            let expected = if k < 128 { Some(k * 2) } else { None };
            assert_eq!(resps[k as usize], Response::Value(expected));
        }
    }

    #[test]
    fn reused_batch_keeps_capacity_and_clears_responses() {
        let t = table();
        let session = t.session();
        let mut batch = Batch::with_capacity(4);
        for round in 0..16u64 {
            batch.clear();
            batch.push_insert(round, round);
            batch.push_get(round);
            batch.push_delete(round);
            session.execute(&mut batch, BatchPolicy::RunAll);
            assert_eq!(batch.responses().len(), 3);
            assert_eq!(batch.responses()[1], Response::Value(Some(round)));
        }
        assert!(batch.capacity() >= 4);
        batch.clear();
        assert!(batch.is_empty());
        assert!(batch.responses().is_empty());
    }

    #[test]
    fn unordered_policy_still_executes_in_order_on_dlht() {
        let t = table();
        let mut batch: Batch = [
            Request::Insert(9, 90),
            Request::Get(9),
            Request::Delete(9),
            Request::Get(9),
        ]
        .into_iter()
        .collect();
        t.session().execute(&mut batch, BatchPolicy::Unordered);
        assert_eq!(batch.responses()[1], Response::Value(Some(90)));
        assert_eq!(batch.responses()[3], Response::Value(None));
    }

    #[test]
    fn batch_collectors_and_extend() {
        let mut b: Batch = (0..4u64).map(Request::Get).collect();
        assert_eq!(b.len(), 4);
        b.extend([Request::Delete(1)]);
        assert_eq!(b.len(), 5);
        assert_eq!(b.requests()[4], Request::Delete(1));
        let from_slice = Batch::from(&[Request::Get(1)][..]);
        assert_eq!(from_slice.len(), 1);
    }
}
