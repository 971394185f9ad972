//! `dlht-obs`: the observability layer shared by the DLHT server and the
//! bench harness — a metrics registry of striped counters/gauges and
//! lock-free latency histograms, Prometheus text + JSON exposition, and a
//! strict exposition parser for probes and tests.
//!
//! Dependency-free (only `dlht-util` for `CachePadded`/`Mutex`/
//! `splitmix64`). Everything the server data path calls is tagged
//! `// HOT:` and panic-free so `dlht_audit`'s `no-panic-hot-path` rule
//! holds across the workspace.
//!
//! Layout:
//! - [`hist`] — the log2/sub-bucketed histogram family: one bucketing
//!   scheme ([`BINS`] bins) for both the server's [`AtomicHistogram`] and
//!   the bench harness's [`LocalHistogram`], with mergeable
//!   [`HistogramSnapshot`]s and p50/p90/p99/p999 extraction.
//! - [`registry`] — [`MetricsRegistry`] of named instruments; counters
//!   and gauges stripe across cache-line-padded per-worker lanes.
//! - [`json`] — the dependency-free JSON emitter/parser (moved here from
//!   `dlht-bench` so the server can serve `/metrics.json` without a
//!   dependency cycle; the bench crate re-exports it).
//! - [`expo`] — Prometheus text-format parser
//!   ([`parse_prometheus`]) for `--probe --expect-metric` and CI.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod expo;
pub mod hist;
pub mod json;
pub mod registry;

pub use expo::{parse_prometheus, sum_samples, PromSample};
pub use hist::{
    bucket_lower, bucket_of, bucket_upper, bytes_fingerprint, key_fingerprint, AtomicHistogram,
    Histogram, HistogramSnapshot, LatencySummary, LocalHistogram, BINS, GROUPS, SUB,
};
pub use registry::{
    Capture, Counter, Gauge, MetricSample, MetricsRegistry, MetricsSnapshot, SampleValue,
};
