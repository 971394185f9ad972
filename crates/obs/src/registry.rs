//! The metrics registry: named [`Counter`]/[`Gauge`]/[`Histogram`]
//! instruments plus callback-backed metrics, snapshotted into Prometheus
//! text or JSON.
//!
//! Counters and gauges are striped across cache-line-padded per-lane
//! atomic cells (one lane per worker thread) so hot-path increments never
//! contend; reads fold the lanes. Registration is cold-path (startup) and
//! may panic on programmer error (duplicate names); everything the server
//! data path touches is wait-free and panic-free.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dlht_util::{CachePadded, Mutex};

use crate::hist::Histogram;
use crate::json::Json;
use crate::HistogramSnapshot;

/// Round a lane-count hint up to a power of two (min 1) so lane selection
/// is a mask, not a modulo.
fn lane_count(hint: usize) -> usize {
    hint.max(1).next_power_of_two()
}

#[derive(Debug)]
struct Lanes {
    cells: Box<[CachePadded<AtomicU64>]>,
    mask: usize,
}

impl Lanes {
    fn new(hint: usize) -> Arc<Lanes> {
        let n = lane_count(hint);
        Arc::new(Lanes {
            cells: (0..n)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            mask: n - 1,
        })
    }

    // HOT: per-request counter bump on the server data path; panic-free.
    #[inline]
    fn add(&self, lane: usize, n: u64) {
        // ORDERING: statistical counter cells — nothing is published through
        // them and reads tolerate skew, so Relaxed.
        if let Some(cell) = self.cells.get(lane & self.mask) {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    // HOT: gauge decrement may run on any thread (drop guards); panic-free.
    #[inline]
    fn sub(&self, lane: usize, n: u64) {
        // ORDERING: see add() — per-lane cells may individually wrap, the
        // wrapping_add fold in value() restores the true total.
        if let Some(cell) = self.cells.get(lane & self.mask) {
            cell.fetch_sub(n, Ordering::Relaxed);
        }
    }

    fn value(&self) -> u64 {
        // ORDERING: Relaxed — a scrape is a statistical snapshot; lanes are
        // folded with wrapping_add so a lane that went "negative" (inc on
        // lane A, dec on lane B) still sums to the true non-negative total.
        self.cells
            .iter()
            .fold(0u64, |acc, c| acc.wrapping_add(c.load(Ordering::Relaxed)))
    }
}

/// A monotonically increasing counter, striped per lane. Clones share the
/// cells.
#[derive(Debug, Clone)]
pub struct Counter {
    lanes: Arc<Lanes>,
}

impl Counter {
    /// A registry-independent counter (tests, ad-hoc use).
    pub fn unregistered(lanes_hint: usize) -> Counter {
        Counter {
            lanes: Lanes::new(lanes_hint),
        }
    }

    // HOT: called per request/frame on the server data path.
    /// Add `n` to the lane's cell, wait-free.
    #[inline]
    pub fn add(&self, lane: usize, n: u64) {
        self.lanes.add(lane, n);
    }

    // HOT: called per request/frame on the server data path.
    /// Increment the lane's cell by one, wait-free.
    #[inline]
    pub fn incr(&self, lane: usize) {
        self.lanes.add(lane, 1);
    }

    /// Fold all lanes into the current total.
    pub fn value(&self) -> u64 {
        self.lanes.value()
    }
}

/// A gauge (can go up and down), striped per lane. Increments and
/// decrements may land on different lanes; the folded total is what
/// matters. Clones share the cells.
#[derive(Debug, Clone)]
pub struct Gauge {
    lanes: Arc<Lanes>,
}

impl Gauge {
    /// A registry-independent gauge (tests, ad-hoc use).
    pub fn unregistered(lanes_hint: usize) -> Gauge {
        Gauge {
            lanes: Lanes::new(lanes_hint),
        }
    }

    // HOT: connection-accept path.
    /// Add `n` to the lane's cell, wait-free.
    #[inline]
    pub fn add(&self, lane: usize, n: u64) {
        self.lanes.add(lane, n);
    }

    // HOT: connection-teardown (drop-guard) path.
    /// Subtract `n` from the lane's cell, wait-free.
    #[inline]
    pub fn sub(&self, lane: usize, n: u64) {
        self.lanes.sub(lane, n);
    }

    /// Fold all lanes into the current total (wrapping fold — see module
    /// docs — so cross-lane inc/dec pairs cancel exactly).
    pub fn value(&self) -> u64 {
        self.lanes.value()
    }
}

enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
    /// Counter whose value is computed at scrape time (e.g. folded from an
    /// engine's own stats).
    CounterFn(Box<dyn Fn() -> u64 + Send + Sync>),
    /// Gauge computed at scrape time.
    GaugeFn(Box<dyn Fn() -> u64 + Send + Sync>),
}

struct Metric {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    instrument: Instrument,
}

/// A value taken once per [`MetricsRegistry::snapshot`] and shared by the
/// callback metrics built with [`Capture::read`], so they all report the
/// same capture (one table walk per scrape, not one per metric).
pub struct Capture<S> {
    cell: Arc<Mutex<Option<S>>>,
}

impl<S: Send + 'static> Capture<S> {
    /// A callback for [`MetricsRegistry::gauge_fn`] /
    /// [`MetricsRegistry::counter_fn`] reading `pick` from the current
    /// snapshot's capture.
    pub fn read(
        &self,
        pick: impl Fn(&S) -> u64 + Send + Sync + 'static,
    ) -> impl Fn() -> u64 + Send + Sync + 'static {
        let cell = self.cell.clone();
        move || cell.lock().as_ref().map_or(0, &pick)
    }
}

/// The set of registered metrics. Registration happens at startup (cold,
/// lock-guarded, panics on duplicate name+labels); instruments are handles
/// that record without touching the registry; [`MetricsRegistry::snapshot`]
/// walks the set for exposition.
pub struct MetricsRegistry {
    lanes_hint: usize,
    metrics: Mutex<Vec<Metric>>,
    /// Refreshers of every [`Capture`], run at the start of each snapshot
    /// while it holds the `metrics` lock.
    captures: Mutex<Vec<Box<dyn Fn() + Send + Sync>>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("lanes_hint", &self.lanes_hint)
            .finish_non_exhaustive()
    }
}

impl MetricsRegistry {
    /// A registry whose striped instruments get `lanes_hint` lanes
    /// (rounded up to a power of two; pass the worker count).
    pub fn new(lanes_hint: usize) -> MetricsRegistry {
        MetricsRegistry {
            lanes_hint,
            metrics: Mutex::new(Vec::new()),
            captures: Mutex::new(Vec::new()),
        }
    }

    fn register(&self, name: &str, help: &str, labels: &[(&str, &str)], instrument: Instrument) {
        assert!(
            is_valid_metric_name(name),
            "invalid metric name: {name:?} (want [a-zA-Z_:][a-zA-Z0-9_:]*)"
        );
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut metrics = self.metrics.lock();
        assert!(
            !metrics.iter().any(|m| m.name == name && m.labels == labels),
            "duplicate metric registered: {name} {labels:?}"
        );
        metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            instrument,
        });
    }

    /// Register a counter (name should end in `_total`).
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Register a labelled counter.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let c = Counter::unregistered(self.lanes_hint);
        self.register(name, help, labels, Instrument::Counter(c.clone()));
        c
    }

    /// Register a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Register a labelled gauge.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let g = Gauge::unregistered(self.lanes_hint);
        self.register(name, help, labels, Instrument::Gauge(g.clone()));
        g
    }

    /// Register a latency histogram (values in nanoseconds).
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, help, &[])
    }

    /// Register a labelled latency histogram.
    pub fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        let h = Histogram::new();
        self.register(name, help, labels, Instrument::Histogram(h.clone()));
        h
    }

    /// Register a counter whose value is computed at scrape time.
    pub fn counter_fn(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.register(name, help, labels, Instrument::CounterFn(Box::new(f)));
    }

    /// Register a gauge whose value is computed at scrape time.
    pub fn gauge_fn(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.register(name, help, labels, Instrument::GaugeFn(Box::new(f)));
    }

    /// Register a value `take` computes once per snapshot, before any
    /// callback metric runs; metrics built with [`Capture::read`] read it.
    pub fn capture<S: Send + 'static>(
        &self,
        take: impl Fn() -> S + Send + Sync + 'static,
    ) -> Capture<S> {
        let cell = Arc::new(Mutex::new(None));
        let target = cell.clone();
        self.captures
            .lock()
            .push(Box::new(move || *target.lock() = Some(take())));
        Capture { cell }
    }

    /// Capture every metric's current value. Safe to call while recording
    /// continues; captures refresh first, then callback metrics run their
    /// closures. Snapshots are serialized, so every callback of one
    /// snapshot sees that snapshot's captures.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.metrics.lock();
        for refresh in self.captures.lock().iter() {
            refresh();
        }
        let samples = metrics
            .iter()
            .map(|m| {
                let value = match &m.instrument {
                    Instrument::Counter(c) => SampleValue::Counter(c.value()),
                    Instrument::Gauge(g) => SampleValue::Gauge(g.value()),
                    Instrument::Histogram(h) => SampleValue::Histogram(Box::new(h.snapshot())),
                    Instrument::CounterFn(f) => SampleValue::Counter(f()),
                    Instrument::GaugeFn(f) => SampleValue::Gauge(f()),
                };
                MetricSample {
                    name: m.name.clone(),
                    help: m.help.clone(),
                    labels: m.labels.clone(),
                    value,
                }
            })
            .collect();
        MetricsSnapshot { samples }
    }
}

/// One metric's captured value.
#[derive(Debug, Clone)]
pub enum SampleValue {
    /// Monotone counter total.
    Counter(u64),
    /// Instantaneous gauge value.
    Gauge(u64),
    /// Full histogram state (boxed: the 128-bin snapshot dwarfs the
    /// scalar variants).
    Histogram(Box<HistogramSnapshot>),
}

/// One metric captured at snapshot time.
#[derive(Debug, Clone)]
pub struct MetricSample {
    /// Metric family name (no label suffix).
    pub name: String,
    /// Help text.
    pub help: String,
    /// Label pairs, in registration order.
    pub labels: Vec<(String, String)>,
    /// The captured value.
    pub value: SampleValue,
}

/// A point-in-time capture of the whole registry, renderable as
/// Prometheus text or JSON.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Every registered metric, in registration order.
    pub samples: Vec<MetricSample>,
}

impl MetricsSnapshot {
    /// Look up the first sample with this family name (any labels).
    pub fn get(&self, name: &str) -> Option<&MetricSample> {
        self.samples.iter().find(|s| s.name == name)
    }

    /// Sum a counter/gauge family across all label sets.
    pub fn total(&self, name: &str) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| match &s.value {
                SampleValue::Counter(v) | SampleValue::Gauge(v) => *v,
                SampleValue::Histogram(h) => h.count(),
            })
            .sum()
    }

    /// Render Prometheus text exposition format (version 0.0.4): `# HELP`
    /// and `# TYPE` once per family (first-seen order), histogram families
    /// as cumulative `_bucket{le="..."}` + `_sum` + `_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut seen_families: Vec<&str> = Vec::new();
        for sample in &self.samples {
            if !seen_families.iter().any(|f| *f == sample.name) {
                seen_families.push(&sample.name);
                let kind = match sample.value {
                    SampleValue::Counter(_) => "counter",
                    SampleValue::Gauge(_) => "gauge",
                    SampleValue::Histogram(_) => "histogram",
                };
                out.push_str("# HELP ");
                out.push_str(&sample.name);
                out.push(' ');
                out.push_str(&escape_help(&sample.help));
                out.push('\n');
                out.push_str("# TYPE ");
                out.push_str(&sample.name);
                out.push(' ');
                out.push_str(kind);
                out.push('\n');
            }
            match &sample.value {
                SampleValue::Counter(v) | SampleValue::Gauge(v) => {
                    out.push_str(&sample.name);
                    render_labels(&mut out, &sample.labels, None);
                    out.push(' ');
                    out.push_str(&v.to_string());
                    out.push('\n');
                }
                SampleValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (upper, cum) in h.cumulative_buckets() {
                        cumulative = cum;
                        out.push_str(&sample.name);
                        out.push_str("_bucket");
                        // `le` bounds stay integer nanoseconds (the `_ns`
                        // family suffix documents the unit) so they render
                        // exactly and parse back losslessly.
                        render_labels(&mut out, &sample.labels, Some(&upper.to_string()));
                        out.push(' ');
                        out.push_str(&cum.to_string());
                        out.push('\n');
                    }
                    out.push_str(&sample.name);
                    out.push_str("_bucket");
                    render_labels(&mut out, &sample.labels, Some("+Inf"));
                    out.push(' ');
                    out.push_str(&cumulative.to_string());
                    out.push('\n');
                    out.push_str(&sample.name);
                    out.push_str("_sum");
                    render_labels(&mut out, &sample.labels, None);
                    out.push(' ');
                    out.push_str(&h.sum_ns().to_string());
                    out.push('\n');
                    out.push_str(&sample.name);
                    out.push_str("_count");
                    render_labels(&mut out, &sample.labels, None);
                    out.push(' ');
                    out.push_str(&h.count().to_string());
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Render the snapshot as a JSON document (schema `dlht-obs/v1`):
    /// counters/gauges as numbers, histograms as percentile summaries plus
    /// non-empty buckets.
    pub fn to_json(&self) -> Json {
        let metrics: Vec<Json> = self
            .samples
            .iter()
            .map(|s| {
                let labels = Json::obj(
                    s.labels
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(v.as_str()))),
                );
                match &s.value {
                    SampleValue::Counter(v) => Json::obj([
                        ("name".to_string(), Json::from(s.name.as_str())),
                        ("type".to_string(), Json::from("counter")),
                        ("labels".to_string(), labels),
                        ("value".to_string(), Json::from(*v)),
                    ]),
                    SampleValue::Gauge(v) => Json::obj([
                        ("name".to_string(), Json::from(s.name.as_str())),
                        ("type".to_string(), Json::from("gauge")),
                        ("labels".to_string(), labels),
                        ("value".to_string(), Json::from(*v)),
                    ]),
                    SampleValue::Histogram(h) => {
                        let sum = h.summary();
                        let buckets: Vec<Json> = h
                            .nonzero_buckets()
                            .map(|(lo, hi, c)| {
                                Json::obj([
                                    ("lower_ns".to_string(), Json::from(lo)),
                                    ("upper_ns".to_string(), Json::from(hi)),
                                    ("count".to_string(), Json::from(c)),
                                ])
                            })
                            .collect();
                        Json::obj([
                            ("name".to_string(), Json::from(s.name.as_str())),
                            ("type".to_string(), Json::from("histogram")),
                            ("labels".to_string(), labels),
                            ("count".to_string(), Json::from(sum.samples)),
                            ("mean_ns".to_string(), Json::from(sum.mean_ns)),
                            ("p50_ns".to_string(), Json::from(sum.p50_ns)),
                            ("p90_ns".to_string(), Json::from(sum.p90_ns)),
                            ("p99_ns".to_string(), Json::from(sum.p99_ns)),
                            ("p999_ns".to_string(), Json::from(sum.p999_ns)),
                            ("max_ns".to_string(), Json::from(sum.max_ns)),
                            ("buckets".to_string(), Json::Arr(buckets)),
                        ])
                    }
                }
            })
            .collect();
        Json::obj([
            ("schema".to_string(), Json::from("dlht-obs/v1")),
            ("metrics".to_string(), Json::Arr(metrics)),
        ])
    }
}

fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_labels(out: &mut String, labels: &[(String, String)], le: Option<&str>) {
    if labels.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label_value(v));
        out.push('"');
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str("le=\"");
        out.push_str(le);
        out.push('"');
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_fold_across_lanes() {
        let c = Counter::unregistered(4);
        c.incr(0);
        c.incr(1);
        c.incr(2);
        c.add(3, 10);
        c.incr(7); // wraps to lane 3 via the mask
        assert_eq!(c.value(), 14);
    }

    #[test]
    fn gauges_cancel_across_lanes() {
        let g = Gauge::unregistered(4);
        g.add(0, 5);
        g.sub(2, 3); // different lane than the increment
        assert_eq!(g.value(), 2);
        g.sub(1, 2);
        assert_eq!(g.value(), 0);
    }

    #[test]
    fn registry_renders_prometheus_text() {
        let reg = MetricsRegistry::new(2);
        let c = reg.counter("test_ops_total", "Operations served");
        let g = reg.gauge_with("test_occupancy", "Live entries", &[("shard", "0")]);
        let h = reg.histogram_with("test_latency_ns", "Latency", &[("op", "get")]);
        reg.gauge_fn("test_workers", "Worker count", &[], || 4);
        c.add(0, 7);
        g.add(0, 3);
        h.record(100);
        h.record(1000);
        let text = reg.snapshot().render_prometheus();
        assert!(text.contains("# HELP test_ops_total Operations served"));
        assert!(text.contains("# TYPE test_ops_total counter"));
        assert!(text.contains("test_ops_total 7"));
        assert!(text.contains("test_occupancy{shard=\"0\"} 3"));
        assert!(text.contains("# TYPE test_latency_ns histogram"));
        assert!(text.contains("test_latency_ns_bucket{op=\"get\",le=\"+Inf\"} 2"));
        assert!(text.contains("test_latency_ns_sum{op=\"get\"} 1100"));
        assert!(text.contains("test_latency_ns_count{op=\"get\"} 2"));
        assert!(text.contains("test_workers 4"));
    }

    #[test]
    fn capture_is_taken_once_per_snapshot() {
        let reg = MetricsRegistry::new(1);
        let takes = Arc::new(AtomicU64::new(0));
        let counted = takes.clone();
        let cap = reg.capture(move || counted.fetch_add(1, Ordering::Relaxed) + 1);
        reg.gauge_fn("test_a", "a", &[], cap.read(|n| *n));
        reg.counter_fn("test_b_total", "b", &[], cap.read(|n| *n * 10));
        for scrape in 1..=3 {
            let snap = reg.snapshot();
            assert_eq!(snap.total("test_a"), scrape);
            assert_eq!(snap.total("test_b_total"), scrape * 10);
        }
        assert_eq!(takes.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn snapshot_json_has_schema_and_percentiles() {
        let reg = MetricsRegistry::new(1);
        let h = reg.histogram("lat_ns", "latency");
        for _ in 0..100 {
            h.record(500);
        }
        let json = reg.snapshot().to_json();
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some("dlht-obs/v1")
        );
        let metrics = json.get("metrics").and_then(Json::as_array).unwrap();
        let m = &metrics[0];
        assert_eq!(m.get("type").and_then(Json::as_str), Some("histogram"));
        assert_eq!(m.get("count").and_then(Json::as_u64), Some(100));
        assert!(m.get("p99_ns").and_then(Json::as_u64).unwrap() <= 500);
        // Reparses cleanly (integral f64s come back as the exact variant,
        // so compare fields, not variants).
        let reparsed = Json::parse(&json.render()).unwrap();
        let m = &reparsed.get("metrics").and_then(Json::as_array).unwrap()[0];
        assert_eq!(m.get("mean_ns").and_then(Json::as_f64), Some(500.0));
    }

    #[test]
    #[should_panic(expected = "duplicate metric")]
    fn duplicate_registration_panics() {
        let reg = MetricsRegistry::new(1);
        let _a = reg.counter("dup_total", "a");
        let _b = reg.counter("dup_total", "b");
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = MetricsRegistry::new(1);
        let _g = reg.gauge_with("esc", "x", &[("k", "a\"b\\c")]);
        let text = reg.snapshot().render_prometheus();
        assert!(text.contains("esc{k=\"a\\\"b\\\\c\"} 0"));
    }

    #[test]
    fn snapshot_total_sums_label_sets() {
        let reg = MetricsRegistry::new(1);
        let a = reg.counter_with("multi_total", "x", &[("op", "get")]);
        let b = reg.counter_with("multi_total", "x", &[("op", "put")]);
        a.add(0, 3);
        b.add(0, 4);
        assert_eq!(reg.snapshot().total("multi_total"), 7);
    }
}
