//! The per-thread engine: the one way to run a batch, and the interface a
//! [`crate::Pipeline`], a wire service and the workload runner drive a table
//! through. The paper issues prefetches through the per-thread batch
//! interface and pays one enter/leave per batch, not per key (§3.2.5, §3.3);
//! an [`Engine`] is that interface, and [`KvBackend::engine`] hands one out.
//! It only prefetches and runs batches: what a server asks about the table
//! (`STATS`, `LEN`) goes through the table itself.

use crate::batch::{Batch, BatchPolicy};
use crate::kv::{execute_serial, KvBackend};
use std::ops::Deref;

/// Prefetch a key and execute a batch — what a caller, a [`crate::Pipeline`]
/// or a wire service drives.
///
/// Engines need not be `Send`: a session is pinned to its creating thread.
/// No method shares a name with a [`KvBackend`] method, so a type may
/// implement both without making calls ambiguous.
pub trait Engine {
    /// Issue a software prefetch for wherever `key` lives (best effort; a
    /// no-op for engines without prefetch support).
    fn prefetch(&self, key: u64);

    /// Execute `batch`, one [`crate::Response`] per request into its (reused)
    /// response storage in submission-slot order. Requests execute **in
    /// submission order** unless a design documents otherwise (DRAMHiT-like
    /// reordering), and a warm [`Batch`] on a warm engine allocates nothing.
    /// The default prefetches every request, then runs
    /// [`Engine::execute_prefetched`]; DLHT's sessions enter once for both.
    fn execute(&self, batch: &mut Batch, policy: BatchPolicy) {
        for req in batch.requests() {
            self.prefetch(req.key());
        }
        self.execute_prefetched(batch, policy);
    }

    /// Execute a batch whose requests were already prefetched one by one via
    /// [`Engine::prefetch`], filling its response storage in submission-slot
    /// order. Engines with an up-front prefetch sweep skip it here instead
    /// of prefetching every request twice.
    fn execute_prefetched(&self, batch: &mut Batch, policy: BatchPolicy);
}

/// Shared references and boxes are engines too: several connections on one
/// event-loop worker share that worker's session, and
/// [`KvBackend::engine`] returns a box.
macro_rules! forward_engine {
    ($($ptr:ty),+) => {$(
        impl<E: Engine + ?Sized> Engine for $ptr {
            fn prefetch(&self, key: u64) {
                (**self).prefetch(key)
            }
            fn execute(&self, batch: &mut Batch, policy: BatchPolicy) {
                (**self).execute(batch, policy)
            }
            fn execute_prefetched(&self, batch: &mut Batch, policy: BatchPolicy) {
                (**self).execute_prefetched(batch, policy)
            }
        }
    )+};
}

forward_engine!(&E, Box<E>);

/// The engine of a backend without one of its own: it issues no prefetch
/// and runs the backend's single-request operations in order
/// ([`execute_serial`]). `P` is any pointer to a backend — a
/// reference, an `Arc<dyn KvBackend>`, a `Box`.
pub struct BackendEngine<P>(pub P);

impl<P: Deref> Engine for BackendEngine<P>
where
    P::Target: KvBackend,
{
    fn prefetch(&self, _key: u64) {}

    fn execute_prefetched(&self, batch: &mut Batch, policy: BatchPolicy) {
        execute_serial(&*self.0, batch, policy)
    }
}
