//! DLHT end-to-end and per-layer benchmark.
//!
//! ```text
//! dlht-perfbench --workload <get-large|churn-grow|wire-kv|cache-evict>
//!                --seed N --seconds S --trace 0|1 [--tiny] [--inject-fault]
//! ```
//!
//! Prints a run header and a human-readable table, then, as its last line,
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ledger. See `README.md` for what each workload exercises.

mod cache_evict;
mod churn_grow;
mod get_large;
mod ledger;
mod measure;
mod sys;
mod trace;
mod wire_kv;

use measure::Check;
use std::collections::BTreeMap;
use std::path::PathBuf;

pub const WORKLOADS: [&str; 4] = ["get-large", "churn-grow", "wire-kv", "cache-evict"];

/// End-to-end metrics, printed by every untraced run.
pub const E2E: [(&str, &str); 6] = [
    ("throughput_mops", "Mops"),
    ("lat_p50_us", "us"),
    ("lat_p99_us", "us"),
    ("setup_s", "s"),
    ("bytes_per_key", "B"),
    ("hit_ratio", "ratio"),
];

/// Per-layer metrics, printed by every traced run.
pub const LAYERS: [(&str, &str); 27] = [
    ("hash.ns_per_key", "ns"),
    ("core.table.get_ns", "ns"),
    ("core.session.get_ns", "ns"),
    ("core.batch.ns_per_op", "ns"),
    ("core.batch.prefetch_gain", "x"),
    ("core.table.setup_resizes", "count"),
    ("core.table.occupancy", "ratio"),
    ("core.table.links_used_ratio", "ratio"),
    ("core.resize.count", "count"),
    ("core.resize.window_s", "s"),
    ("core.resize.overlap_lat_p99_us", "us"),
    ("core.resize.steady_lat_p99_us", "us"),
    ("core.resize.loop_resizes", "count"),
    ("epoch.retired_indexes_end", "count"),
    ("epoch.collect_ns", "ns"),
    ("core.sharded.ns_per_op", "ns"),
    ("net.service.ns_per_frame", "ns"),
    ("net.server.request_ns_p50", "ns"),
    ("net.server.frames_per_batch", "frames"),
    ("net.tcp.overhead_us", "us"),
    ("core.cache.get_ns", "ns"),
    ("core.cache.set_ns", "ns"),
    ("core.cache.evicted_per_set", "ratio"),
    ("core.cache.pending_reclaim_bytes", "B"),
    ("workloads.gen_ns_per_op", "ns"),
    ("trace.throughput_ratio", "ratio"),
    ("trace.library_share", "ratio"),
];

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes for the self-test; the figures mean nothing.
    pub tiny: bool,
    /// Corrupt one answer before it is checked (self-test).
    pub inject_fault: bool,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
}

impl Opts {
    /// `full` at normal scale, `tiny` under `--tiny`.
    pub fn size(&self, full: usize, tiny: usize) -> usize {
        if self.tiny {
            tiny
        } else {
            full
        }
    }
}

/// Where a per-layer figure came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The workload's own run, structures or timed loop.
    Own,
    /// A small probe of a layer the workload does not reach, fed with the
    /// workload's own keys.
    Probe,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub value: f64,
    pub source: Source,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub check: Check,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, Metric>,
    /// Run-header lines specific to the workload (key counts, index bytes).
    pub header: Vec<String>,
    /// Diagnostics printed but not gated on.
    pub notes: Vec<String>,
}

impl Report {
    /// Record a per-layer figure. A probe never replaces a figure the
    /// workload measured itself.
    pub fn set(&mut self, name: &'static str, value: f64, source: Source) {
        let metric = Metric { value, source };
        match source {
            Source::Own => {
                self.layers.insert(name, metric);
            }
            Source::Probe => {
                self.layers.entry(name).or_insert(metric);
            }
        }
    }

    pub fn own(&mut self, name: &'static str, value: f64) {
        self.set(name, value, Source::Own);
    }

    pub fn probe(&mut self, name: &'static str, value: f64) {
        self.set(name, value, Source::Probe);
    }

    pub fn has(&self, name: &str) -> bool {
        self.layers.contains_key(name)
    }

    /// Fill the shared end-to-end figures from the measured rounds (each
    /// its throughput in Mops and its per-call latencies) and the setup
    /// times.
    ///
    /// Each figure is the median round: the median of round throughputs,
    /// and the median of the per-round p50 and p99. On a 2-vCPU VM of a
    /// shared host, a DRAM-bound loop runs up to 1.6x faster or slower for
    /// one to several seconds at a time; the median ignores such bursts,
    /// fast or slow, while they cover less than half of a run, and still
    /// moves with any change that affects most rounds.
    pub fn set_e2e(
        &mut self,
        rounds: &[(f64, measure::Lat)],
        setups_s: &[f64],
        bytes_per_key: f64,
        hit_ratio: f64,
    ) {
        use measure::{median, quantile};
        let mops: Vec<f64> = rounds.iter().map(|r| r.0).collect();
        let pct: Vec<Vec<f64>> = rounds
            .iter()
            .map(|r| r.1.percentiles_us(&[0.5, 0.99]))
            .collect();
        let p50: Vec<f64> = pct.iter().map(|p| p[0]).collect();
        let p99: Vec<f64> = pct.iter().map(|p| p[1]).collect();
        self.e2e.insert("throughput_mops", median(&mops));
        self.e2e.insert("lat_p50_us", median(&p50));
        self.e2e.insert("lat_p99_us", median(&p99));
        self.e2e.insert("setup_s", median(setups_s));
        self.e2e.insert("bytes_per_key", bytes_per_key);
        self.e2e.insert("hit_ratio", hit_ratio);
        let mut pooled = measure::Lat::default();
        for r in rounds {
            pooled.extend(&r.1);
        }
        let all = pooled.percentiles_us(&[0.5, 0.99, 0.999]);
        self.notes.push(format!(
            "{} rounds: Mops min {:.3} q1 {:.3} q3 {:.3} max {:.3}; per-call samples {} ({} in the smallest round)",
            rounds.len(),
            quantile(&mops, 0.0),
            quantile(&mops, 0.25),
            quantile(&mops, 0.75),
            quantile(&mops, 1.0),
            pooled.ns.len(),
            rounds.iter().map(|r| r.1.ns.len()).min().unwrap_or(0),
        ));
        self.notes.push(format!(
            "all rounds pooled (not gated): lat_p50_us {:.3} lat_p99_us {:.3} lat_p999_us {:.3}",
            all[0], all[1], all[2]
        ));
        self.notes.push(format!(
            "setups {} (s: {:?})",
            setups_s.len(),
            setups_s
                .iter()
                .map(|s| (s * 1e3).round() / 1e3)
                .collect::<Vec<_>>()
        ));
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: dlht-perfbench --workload <{}> --seed N --seconds S --trace 0|1 \
         [--tiny] [--inject-fault] [--out-dir DIR]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let Some(workload) = value("--workload").filter(|w| WORKLOADS.contains(&w.as_str())) else {
        usage()
    };
    let seed = value("--seed").and_then(|v| v.parse().ok()).unwrap_or(1);
    let seconds = value("--seconds")
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
        .unwrap_or(10.0);
    let trace = match value("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => usage(),
    };
    let out_dir = value("--out-dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build/perfbench"));
    Opts {
        workload,
        seed,
        seconds,
        trace,
        tiny: args.iter().any(|a| a == "--tiny"),
        inject_fault: args.iter().any(|a| a == "--inject-fault"),
        out_dir,
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let opts = parse_args();
    let machine = sys::Machine::probe();
    let mut pinning = sys::Pinning::new();
    let report = match opts.workload.as_str() {
        "get-large" => get_large::run(&opts, &machine, &mut pinning),
        "churn-grow" => churn_grow::run(&opts, &machine, &mut pinning),
        "wire-kv" => wire_kv::run(&opts, &machine, &mut pinning),
        "cache-evict" => cache_evict::run(&opts, &machine, &mut pinning),
        _ => usage(),
    };

    println!(
        "# dlht-perfbench workload={} seed={} seconds={} trace={}{}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        if opts.tiny { " scale=tiny" } else { "" }
    );
    println!(
        "# machine: nproc={} cpu=\"{}\" l2={} KiB llc={} KiB kernel={}",
        machine.nproc,
        machine.cpu_model,
        machine.l2_bytes >> 10,
        machine.llc_bytes >> 10,
        machine.kernel
    );
    println!("# pinning: {}", pinning.map.join(" "));
    for line in &report.header {
        println!("# {line}");
    }
    for line in &report.notes {
        println!("# {line}");
    }

    let check = &report.check;
    let failed_ratio = if check.attempted == 0 {
        1.0
    } else {
        check.failed as f64 / check.attempted as f64
    };
    println!(
        "{:<36} {:>16} {:<6}",
        "failed_ratio",
        json_number(failed_ratio),
        "ratio"
    );
    if let Some(first) = &check.first_failure {
        println!("# first wrong answer: {first}");
    }

    let mut metrics = Vec::new();
    let mut missing = Vec::new();
    if opts.trace {
        for (name, unit) in LAYERS {
            match report.layers.get(name) {
                Some(m) => {
                    let source = match m.source {
                        Source::Own => "own",
                        Source::Probe => "probe",
                    };
                    println!("{name:<36} {:>16.4} {unit:<6} {source}", m.value);
                    metrics.push((name, m.value, unit));
                }
                None => missing.push(name),
            }
        }
    } else {
        for (name, unit) in E2E {
            match report.e2e.get(name) {
                Some(&v) => {
                    println!("{name:<36} {v:>16.4} {unit:<6}");
                    metrics.push((name, v, unit));
                }
                None => missing.push(name),
            }
        }
    }
    if !missing.is_empty() {
        eprintln!("dlht-perfbench: metrics not produced: {missing:?}");
        std::process::exit(1);
    }

    let correct = check.failed == 0 && check.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        check.attempted.max(1),
        check.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
