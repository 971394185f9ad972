//! The shared scenario harness behind every figure/table binary.
//!
//! Each binary is one registered [`Scenario`]: it declares which paper figure
//! it reproduces, which axes it sweeps, and what the expected qualitative
//! result is. [`run_scenario`] wraps the binary's body with the common
//! driver: it reads the run configuration ([`BenchScale`] — keys, threads,
//! seconds, shards, **seed**, smoke/full tier), prints the human-readable
//! header and tables to **stderr**, and streams one schema-versioned JSON
//! record per data point to **stdout** and to `BENCH_<scenario>.json`
//! (`DLHT_BENCH_DIR`, default the working directory) — the repo's
//! machine-readable perf trajectory that `bench_report` diffs across runs.
//!
//! Record schema (`dlht-bench/v1`, JSON lines):
//!
//! ```json
//! {"type":"header","schema":"dlht-bench/v1","scenario":"fig03_get_throughput",
//!  "figure":"Figure 3","tier":"smoke","keys":20000,"threads":[1,2],
//!  "secs":0.06,"warmup_secs":0.02,"shards":4,"seed":53735}
//! {"type":"point","scenario":"fig03_get_throughput","series":"DLHT",
//!  "axes":{"threads":2},"mops":34.1,"total_ops":2100000,"elapsed_s":0.061,
//!  "lat":{"samples":2100000,"mean_ns":57.2,"p50_ns":48,"p90_ns":88,
//!  "p99_ns":160,"p999_ns":320,"max_ns":81920},
//!  "stats":{"bins":8192,"occupancy":0.41,"resizes":0,...},"retired":0}
//! {"type":"footer","scenario":"fig03_get_throughput","points":16,"wall_s":4.2}
//! ```
//!
//! Measured points go through an explicit **warmup phase**
//! ([`BenchScale::warmup`]) followed by the **measure phase** with percentile
//! latency capture (via `dlht_obs::LocalHistogram`), and throughput plus the
//! table's [`TableStats`] / retired-index count are recorded alongside. The
//! exception is the cold-start scenarios (fig07 population, fig08 resize
//! timeline), where the growth transient from a cold table **is** the
//! measurement and a warmup pass would erase it.

use crate::json::Json;
use dlht_baselines::{KvBackend, MapKind};
use dlht_core::stats::TableStats;
use dlht_obs::LocalHistogram;
use dlht_workloads::{prepopulate, run_workload, BenchScale, RunResult, Table, WorkloadSpec};
use std::io::Write;
use std::time::Instant;

/// Version tag embedded in every `BENCH_*.json` header.
pub const SCHEMA: &str = "dlht-bench/v1";

/// Static description of one registered benchmark scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// Scenario name, also the `BENCH_<name>.json` artifact name.
    pub name: &'static str,
    /// Binary name (`cargo run --release -p dlht-bench --bin <bin>`).
    /// Identical to `name` for the paper figures; the wire-protocol scenario
    /// keeps its artifact (`BENCH_server.json`) shorter than its binary
    /// (`bench_server`).
    pub bin: &'static str,
    /// Paper figure/table/section this reproduces.
    pub figure: &'static str,
    /// One-line title.
    pub title: &'static str,
    /// The paper's experimental setup for this figure.
    pub paper_setup: &'static str,
    /// The axes this scenario sweeps (human-readable).
    pub axes: &'static str,
    /// Expected qualitative result (printed after the tables; the
    /// pass/fail-by-eye criterion docs/BENCHMARKS.md tabulates).
    pub expected: &'static str,
}

/// Every figure/table scenario, in `run_all` execution order.
pub const REGISTRY: &[Scenario] = &[
    Scenario {
        name: "fig01_overview",
        bin: "fig01_overview",
        figure: "Figure 1",
        title: "headline Get and InsDel throughput of all maps",
        paper_setup: "2x18-core Xeon, 64 threads, 100M prepopulated keys, uniform access",
        axes: "map kind × {Get, InsDel} at the highest thread count",
        expected: "DLHT leads both workloads (paper: 1660 M Gets/s; ~12x GrowT on deletes)",
    },
    Scenario {
        name: "table1_features",
        bin: "table1_features",
        figure: "Table 1 + §5.1.5",
        title: "feature matrix and occupancy-until-resize",
        paper_setup: "feature matrix of GrowT, Folly, DRAMHiT, MICA, CLHT, DLHT; wyhash occupancy",
        axes: "map kind; occupancy measured at first resize",
        expected: "DLHT resizes at 61-72% occupancy, CLHT at 1-5%, open addressing rebuilds at 30-50%",
    },
    Scenario {
        name: "fig03_get_throughput",
        bin: "fig03_get_throughput",
        figure: "Figure 3",
        title: "Get throughput vs thread count",
        paper_setup: "100% Gets, uniform over 100M keys, 1..71 threads",
        axes: "threads × fastest map kinds (incl. sharded DLHT)",
        expected: "DLHT > DRAMHiT-like > (CLHT, GrowT-like, Folly-like, DLHT-NoBatch) > MICA-like",
    },
    Scenario {
        name: "fig05_insdel_throughput",
        bin: "fig05_insdel_throughput",
        figure: "Figure 5",
        title: "InsDel throughput vs thread count",
        paper_setup: "Insert immediately followed by Delete of the same key; empty 100M-capacity tables",
        axes: "threads × {DLHT, DLHT-NoBatch, CLHT, GrowT-like, MICA-like}",
        expected: "DLHT ~3x CLHT and >10x GrowT-like (which must migrate to shed tombstones)",
    },
    Scenario {
        name: "fig06_put_heavy",
        bin: "fig06_put_heavy",
        figure: "Figure 6",
        title: "Put-heavy (50% Get / 50% Put) throughput",
        paper_setup: "50% Gets + 50% Puts over 100M prepopulated keys; CLHT omitted (no Puts)",
        axes: "threads × map kind",
        expected: "DLHT first (paper: 1042 M req/s), DRAMHiT-like close, MICA-like last",
    },
    Scenario {
        name: "fig07_population",
        bin: "fig07_population",
        figure: "Figure 7",
        title: "population throughput of a growing index",
        paper_setup: "800M keys inserted into a small growing index",
        axes: "threads × resizable map kinds",
        expected: "DLHT fastest (parallel non-blocking resize; paper 3.9x GrowT, 8x CLHT)",
    },
    Scenario {
        name: "fig08_resize_timeline",
        bin: "fig08_resize_timeline",
        figure: "Figure 8",
        title: "Gets and Inserts during a non-blocking resize",
        paper_setup: "32 Get threads + 32 Insert threads, 800M -> 1.6B keys",
        axes: "time (ms) × {Gets, Inserts}, monolithic and sharded",
        expected: "Get throughput dips during transfers but never reaches zero; shard-local resizes shrink the dips",
    },
    Scenario {
        name: "fig09_value_size",
        bin: "fig09_value_size",
        figure: "Figure 9",
        title: "throughput vs value size (8B..1.5KB)",
        paper_setup: "8B..1.5KB values; Gets return pointers so only Get-Access pays for large values",
        axes: "value bytes × {Get, InsDel, Get-Access}, single thread",
        expected: "Get nearly flat (pointer API), InsDel degrades with allocation size, Get-Access drops fastest",
    },
    Scenario {
        name: "fig10_key_size",
        bin: "fig10_key_size",
        figure: "Figure 10",
        title: "throughput vs key size (8B..256B)",
        paper_setup: "8B..256B keys, 8B values; >8B keys leave only a signature in the slot",
        axes: "key bytes × {Get, InsDel}, single thread",
        expected: "clear drop from 8B to 16B keys (extra dereference), gentle decline after",
    },
    Scenario {
        name: "fig11_index_size",
        bin: "fig11_index_size",
        figure: "Figure 11",
        title: "throughput vs index size",
        paper_setup: "1MB (8K keys) .. 64GB (1B keys) index",
        axes: "prepopulated keys × {Get, Get-NoBatch, InsDel}",
        expected: "Get and Get-NoBatch converge for cache-resident sizes; the gap widens as the index grows",
    },
    Scenario {
        name: "fig12_batch_size",
        bin: "fig12_batch_size",
        figure: "Figure 12",
        title: "throughput vs batch size (1..128)",
        paper_setup: "batch 1..128; gains saturate around 24 (MSHR/TLB limits)",
        axes: "batch size × {Get, Get-Pipelined, Get-Resizing, InsDel}",
        expected: "throughput rises with batch size and saturates; the pipeline tracks the batch curve",
    },
    Scenario {
        name: "fig13_skew",
        bin: "fig13_skew",
        figure: "Figure 13",
        title: "skewed access with 1000 hot keys",
        paper_setup: "0%..100% of accesses to 1000 hot keys",
        axes: "hot-access % × {Get, Get-Sharded, Get-NoBatch, InsDel-hot-deletes}",
        expected: "Get rises with skew; at 100% skew Get-NoBatch overtakes batched Get; InsDel falls under contention",
    },
    Scenario {
        name: "fig14_features",
        bin: "fig14_features",
        figure: "Figure 14",
        title: "throughput cost of enabling features",
        paper_setup: "default -> +resizing -> +wyhash -> +variable sizes -> +namespaces -> no mimalloc; 32B values",
        axes: "feature configuration × {Get, InsDel}",
        expected: "each feature shaves a little throughput; the allocator swap mainly hurts InsDel",
    },
    Scenario {
        name: "fig15_latency",
        bin: "fig15_latency",
        figure: "Figure 15",
        title: "average and p99 latency vs offered load",
        paper_setup: "average in the 100s of ns, tail below 1us even under high load",
        axes: "threads × {Get, InsDel}, latency recording on",
        expected: "latency grows with load; InsDel above Get; p99 well under a microsecond at low load",
    },
    Scenario {
        name: "fig16_single_thread",
        bin: "fig16_single_thread",
        figure: "Figure 16",
        title: "single-threaded synchronization-free optimizations",
        paper_setup: "InsDel +31%, InsDel-Resize +35%, InsDel-Resize-NoBatch +91%, Get unchanged",
        axes: "workload × {thread-safe DLHT, single-thread optimized}",
        expected: "the optimized variant wins most where CASes and enter/leave notifications dominate",
    },
    Scenario {
        name: "fig17_lock_manager",
        bin: "fig17_lock_manager",
        figure: "Figure 17",
        title: "database lock manager over HashSet mode",
        paper_setup: "locks/unlocks per second; batching peaks near 1.5B ops/s, ~2.2x unbatched",
        axes: "threads × {batched, unbatched}",
        expected: "batched locking scales with threads and stays ahead of the unbatched variant",
    },
    Scenario {
        name: "fig18_ycsb",
        bin: "fig18_ycsb",
        figure: "Figure 18",
        title: "YCSB A/B/C/F mixes",
        paper_setup: "read-only C roughly 2x the update-only F at saturation",
        axes: "threads × YCSB mix",
        expected: "all mixes scale with threads; C (read-only) highest, F (update-only) lowest",
    },
    Scenario {
        name: "fig19_oltp",
        bin: "fig19_oltp",
        figure: "Figure 19",
        title: "TATP and Smallbank transactions per second",
        paper_setup: "1M TATP subscribers, 10M Smallbank accounts; paper: 175M / 129M txns/s at 64 threads",
        axes: "threads × {TATP, Smallbank}",
        expected: "both scale with threads; TATP (80% reads) ahead of Smallbank (15% reads)",
    },
    Scenario {
        name: "fig20_hash_join",
        bin: "fig20_hash_join",
        figure: "Figure 20",
        title: "non-partitioned hash join (workload A)",
        paper_setup: "build 2^27 tuples, probe 2^31; DLHT reaches 1.4B tuples/s, 2.2x DLHT-NoBatch",
        axes: "threads × {batched, unbatched}",
        expected: "batching (prefetching the probe side) clearly ahead of the unbatched join",
    },
    Scenario {
        name: "fig_cxl_emulation",
        bin: "fig_cxl_emulation",
        figure: "§5.3.2",
        title: "remote-memory (CXL) emulation",
        paper_setup: "paper pins DLHT memory on the remote socket; here a per-miss delay is injected",
        axes: "injected latency (ns) × {batched, unbatched}",
        expected: "the batched/unbatched gap widens with the emulated memory latency (paper: 2.9x)",
    },
    Scenario {
        name: "table5_summary",
        bin: "table5_summary",
        figure: "Table 5",
        title: "DLHT advantage over each baseline",
        paper_setup: "CLHT 3.5x slower Gets / 8x slower population; GrowT 12.8x slower InsDel; MICA 4.8x; DRAMHiT 1.7x",
        axes: "baseline × {Get ratio, InsDel ratio, Population ratio}",
        expected: "every ratio > 1 (DLHT faster), with the InsDel gap largest against GrowT-like",
    },
    Scenario {
        name: "server",
        bin: "bench_server",
        figure: "dlht-net (no paper counterpart)",
        title: "pipelined wire-protocol serving over the sharded table",
        paper_setup: "Pelikan-style pipelined TCP service; wire pipelining drains into DLHT's prefetched batch execution (§3.3)",
        axes: "connections × pipeline depth (GETs over TCP loopback, plus YCSB-A over the wire)",
        expected: "pipelined (depth >= 8) throughput >= 2x unpipelined at the same connection count",
    },
    Scenario {
        name: "cache",
        bin: "bench_cache",
        figure: "cache persona (fig09/fig11 memory-awareness applied)",
        title: "hit-ratio vs memory budget under zipfian cache-aside churn",
        paper_setup: "memcache-style cache over the TTL/eviction CacheMap; budget swept as a fraction of the working set, LRU vs FIFO",
        axes: "budget fraction × {LRU, FIFO} (zipfian cache-aside), plus an expiry-storm drain",
        expected: "hit-ratio rises with budget, LRU >= FIFO at every budget, resident bytes stay under the watermark, and the expiry storm drains to zero",
    },
];

/// Look up a scenario by binary name.
pub fn find(name: &str) -> Option<&'static Scenario> {
    REGISTRY.iter().find(|s| s.name == name)
}

/// A figure/table sweep point: one map kind at one thread count, with the
/// structural statistics captured right after the measured phase.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Hashtable under test.
    pub kind: MapKind,
    /// Threads used.
    pub threads: usize,
    /// Measured result.
    pub result: RunResult,
    /// Index statistics after the measured run (resizes, occupancy, ...).
    pub stats: TableStats,
    /// Retired-but-unfreed index generations after the measured run.
    pub retired: usize,
}

enum Sink {
    File(std::io::BufWriter<std::fs::File>, std::path::PathBuf),
    Memory(Vec<String>),
}

/// The per-run driver handle every scenario body receives: the run
/// configuration plus the JSON point emitter.
pub struct ScenarioCtx {
    /// The scenario being run.
    pub meta: &'static Scenario,
    /// The run configuration (one source of truth, recorded in the header —
    /// including the RNG seed every workload stream derives from).
    pub scale: BenchScale,
    sink: Sink,
    echo_stdout: bool,
    points: usize,
    started: Instant,
}

impl ScenarioCtx {
    fn create(meta: &'static Scenario, scale: BenchScale, echo_stdout: bool) -> ScenarioCtx {
        let dir = std::env::var("DLHT_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
        let path = std::path::Path::new(&dir).join(format!("BENCH_{}.json", meta.name));
        let file = std::fs::File::create(&path)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
        let mut ctx = ScenarioCtx {
            meta,
            scale,
            sink: Sink::File(std::io::BufWriter::new(file), path),
            echo_stdout,
            points: 0,
            started: Instant::now(),
        };
        ctx.emit_header();
        ctx
    }

    /// An in-memory context for tests: nothing touches the filesystem or
    /// stdout; emitted lines are collected via [`ScenarioCtx::lines`].
    pub fn for_test(meta: &'static Scenario, scale: BenchScale) -> ScenarioCtx {
        let mut ctx = ScenarioCtx {
            meta,
            scale,
            sink: Sink::Memory(Vec::new()),
            echo_stdout: false,
            points: 0,
            started: Instant::now(),
        };
        ctx.emit_header();
        ctx
    }

    /// The JSON lines emitted so far (test sink only).
    pub fn lines(&self) -> &[String] {
        match &self.sink {
            Sink::Memory(lines) => lines,
            Sink::File(..) => &[],
        }
    }

    /// Number of data points emitted so far.
    pub fn points(&self) -> usize {
        self.points
    }

    fn emit_line(&mut self, json: Json) {
        let line = json.render();
        match &mut self.sink {
            Sink::File(w, path) => {
                writeln!(w, "{line}")
                    .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
                if self.echo_stdout {
                    // Best-effort echo: a consumer closing the pipe (e.g.
                    // `| head`) must not kill the run — the file is the
                    // artifact of record.
                    let _ = writeln!(std::io::stdout(), "{line}");
                }
            }
            Sink::Memory(lines) => lines.push(line),
        }
    }

    fn emit_header(&mut self) {
        let header = Json::obj([
            ("type".to_string(), Json::from("header")),
            ("schema".to_string(), Json::from(SCHEMA)),
            ("scenario".to_string(), Json::from(self.meta.name)),
            ("figure".to_string(), Json::from(self.meta.figure)),
            ("title".to_string(), Json::from(self.meta.title)),
            ("tier".to_string(), Json::from(self.scale.tier.name())),
            ("keys".to_string(), Json::from(self.scale.keys)),
            (
                "threads".to_string(),
                Json::Arr(self.scale.threads.iter().map(|&t| Json::from(t)).collect()),
            ),
            // The *effective* (clamp-applied) measure duration, so the
            // recorded config is the one that drove the run even when
            // DLHT_SECS was below the 50ms floor.
            (
                "secs".to_string(),
                Json::from(self.scale.duration().as_secs_f64()),
            ),
            (
                "warmup_secs".to_string(),
                Json::from(self.scale.warmup().as_secs_f64()),
            ),
            ("shards".to_string(), Json::from(self.scale.shards)),
            ("seed".to_string(), Json::from(self.scale.seed)),
        ]);
        self.emit_line(header);
    }

    /// Start building one data point for `series` (a map kind or workload
    /// variant name). Attach axes/measurements, then [`PointBuilder::emit`].
    pub fn point(&mut self, series: impl Into<String>) -> PointBuilder<'_> {
        PointBuilder {
            ctx: self,
            series: series.into(),
            axes: Vec::new(),
            mops: None,
            total_ops: None,
            elapsed_s: None,
            lat: None,
            stats: None,
            retired: None,
            extra: Vec::new(),
        }
    }

    /// Run `spec` against `map` with the harness's two explicit phases:
    /// a warm-up pass ([`BenchScale::warmup`], discarded) followed by the
    /// measured pass with percentile-latency capture (skipped in pipeline
    /// mode, where per-op submit-side timing would be wrong). The spec's seed
    /// is overwritten with the run-wide [`BenchScale::seed`] so the recorded
    /// configuration is the one that drove the keys.
    pub fn measure(&self, map: &dyn KvBackend, spec: &WorkloadSpec) -> RunResult {
        let mut warm = spec.clone();
        warm.duration = self.scale.warmup();
        warm.record_latency = false;
        warm.seed = self.scale.seed;
        // Keep warmup inserts out of the measured pass's fresh-key space:
        // mixes whose inserts are not deleted again (insert_then_delete off)
        // would otherwise leave the warmup's keys resident and turn every
        // measured insert into a duplicate-key collision.
        warm.fresh_key_salt = 1 << 38;
        let _ = run_workload(map, &warm);

        let mut measured = spec.clone();
        measured.seed = self.scale.seed;
        if measured.pipeline_depth == 0 {
            measured.record_latency = true;
        }
        run_workload(map, &measured)
    }

    /// Run `spec_for(threads)` against every map kind in `kinds`
    /// (prepopulating each with `scale.keys` keys), through
    /// [`ScenarioCtx::measure`]'s warmup/measure phases, capturing stats and
    /// retired-index counts per point.
    pub fn sweep<F>(&self, kinds: &[MapKind], mut spec_for: F) -> Vec<SweepPoint>
    where
        F: FnMut(usize) -> WorkloadSpec,
    {
        let mut points = Vec::new();
        for &kind in kinds {
            for &threads in &self.scale.threads {
                let map = kind.build(self.scale.keys as usize * 2);
                prepopulate(map.as_ref(), self.scale.keys);
                let result = self.measure(map.as_ref(), &spec_for(threads));
                points.push(SweepPoint {
                    kind,
                    threads,
                    result,
                    stats: map.stats(),
                    retired: map.retired_indexes(),
                });
            }
        }
        points
    }

    /// Emit one JSON point per sweep point (series = map name, axis =
    /// threads, plus throughput/latency/stats capture).
    pub fn emit_sweep(&mut self, points: &[SweepPoint]) {
        for p in points {
            self.point(p.kind.name())
                .axis("threads", p.threads)
                .result(&p.result)
                .stats(&p.stats)
                .retired(p.retired)
                .emit();
        }
    }

    /// Print a human-readable table (stderr; stdout carries the JSON lines).
    pub fn table(&mut self, table: &Table) {
        match &self.sink {
            Sink::Memory(_) => {}
            Sink::File(..) => table.print_stderr(),
        }
    }

    /// Print a human-readable note line (stderr).
    pub fn note(&self, msg: &str) {
        if matches!(self.sink, Sink::File(..)) {
            eprintln!("{msg}");
        }
    }

    fn finish(mut self) {
        let footer = Json::obj([
            ("type".to_string(), Json::from("footer")),
            ("scenario".to_string(), Json::from(self.meta.name)),
            ("points".to_string(), Json::from(self.points)),
            (
                "wall_s".to_string(),
                Json::from(self.started.elapsed().as_secs_f64()),
            ),
        ]);
        self.emit_line(footer);
        if let Sink::File(w, path) = &mut self.sink {
            w.flush()
                .unwrap_or_else(|e| panic!("cannot flush {}: {e}", path.display()));
            eprintln!("Expected shape: {}.", self.meta.expected);
            eprintln!(
                "Wrote {} ({} points, {:.1}s).",
                path.display(),
                self.points,
                self.started.elapsed().as_secs_f64()
            );
        }
    }
}

/// One data point under construction; finalize with [`PointBuilder::emit`].
pub struct PointBuilder<'a> {
    ctx: &'a mut ScenarioCtx,
    series: String,
    axes: Vec<(String, Json)>,
    mops: Option<f64>,
    total_ops: Option<u64>,
    elapsed_s: Option<f64>,
    lat: Option<Json>,
    stats: Option<Json>,
    retired: Option<usize>,
    extra: Vec<(String, Json)>,
}

impl PointBuilder<'_> {
    /// Attach one swept-axis coordinate (threads, batch size, hot %, ...).
    pub fn axis(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.axes.push((key.to_string(), value.into()));
        self
    }

    /// Record throughput in million requests per second.
    pub fn mops(mut self, mops: f64) -> Self {
        self.mops = Some(mops);
        self
    }

    /// Record the total operation count.
    pub fn ops(mut self, ops: u64) -> Self {
        self.total_ops = Some(ops);
        self
    }

    /// Capture everything a [`RunResult`] carries (throughput, op count,
    /// elapsed time, latency summary when recorded).
    pub fn result(mut self, r: &RunResult) -> Self {
        self.mops = Some(r.mops);
        self.total_ops = Some(r.total_ops);
        self.elapsed_s = Some(r.elapsed.as_secs_f64());
        if r.latency.count() > 0 {
            self = self.latency(&r.latency);
        }
        self
    }

    /// Capture a latency histogram's percentile summary.
    pub fn latency(mut self, hist: &LocalHistogram) -> Self {
        let s = hist.snapshot().summary();
        self.lat = Some(Json::obj([
            ("samples".to_string(), Json::from(s.samples)),
            ("mean_ns".to_string(), Json::from(s.mean_ns)),
            ("p50_ns".to_string(), Json::from(s.p50_ns)),
            ("p90_ns".to_string(), Json::from(s.p90_ns)),
            ("p99_ns".to_string(), Json::from(s.p99_ns)),
            ("p999_ns".to_string(), Json::from(s.p999_ns)),
            ("max_ns".to_string(), Json::from(s.max_ns)),
        ]));
        self
    }

    /// Capture the table's structural statistics (occupancy, resizes, ...).
    pub fn stats(mut self, stats: &TableStats) -> Self {
        self.stats = Some(Json::obj([
            ("bins".to_string(), Json::from(stats.bins)),
            ("links_used".to_string(), Json::from(stats.links_used)),
            (
                "occupied_slots".to_string(),
                Json::from(stats.occupied_slots),
            ),
            ("max_slots".to_string(), Json::from(stats.max_slots)),
            ("occupancy".to_string(), Json::from(stats.occupancy)),
            ("resizes".to_string(), Json::from(stats.resizes)),
            ("generation".to_string(), Json::from(stats.generation)),
            ("index_bytes".to_string(), Json::from(stats.index_bytes)),
        ]));
        self
    }

    /// Capture the retired-but-unfreed index generation count.
    pub fn retired(mut self, retired: usize) -> Self {
        self.retired = Some(retired);
        self
    }

    /// Attach a scenario-specific extra measurement (hit ratios, conflict
    /// counts, speedup ratios, ...).
    pub fn extra(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.extra.push((key.to_string(), value.into()));
        self
    }

    /// Write the point as one JSON line (file + stdout) and count it.
    pub fn emit(self) {
        let mut pairs: Vec<(String, Json)> = vec![
            ("type".to_string(), Json::from("point")),
            ("scenario".to_string(), Json::from(self.ctx.meta.name)),
            ("series".to_string(), Json::Str(self.series)),
            ("axes".to_string(), Json::Obj(self.axes)),
        ];
        if let Some(m) = self.mops {
            pairs.push(("mops".to_string(), Json::from(m)));
        }
        if let Some(n) = self.total_ops {
            pairs.push(("total_ops".to_string(), Json::from(n)));
        }
        if let Some(e) = self.elapsed_s {
            pairs.push(("elapsed_s".to_string(), Json::from(e)));
        }
        if let Some(lat) = self.lat {
            pairs.push(("lat".to_string(), lat));
        }
        if let Some(stats) = self.stats {
            pairs.push(("stats".to_string(), stats));
        }
        if let Some(r) = self.retired {
            pairs.push(("retired".to_string(), Json::from(r)));
        }
        if !self.extra.is_empty() {
            pairs.push(("extra".to_string(), Json::Obj(self.extra)));
        }
        self.ctx.points += 1;
        self.ctx.emit_line(Json::Obj(pairs));
    }
}

/// The entry point every figure binary wraps its body in: looks up `name` in
/// the [`REGISTRY`], reads the [`BenchScale`] configuration, prints the
/// header (stderr), opens `BENCH_<name>.json`, runs `body`, then prints the
/// expected-shape line and flushes the artifact.
pub fn run_scenario(name: &str, body: impl FnOnce(&mut ScenarioCtx)) {
    let meta = find(name)
        .unwrap_or_else(|| panic!("scenario {name} is not in dlht_bench::scenario::REGISTRY"));
    let scale = BenchScale::from_env();
    eprintln!("== Reproducing {} ({}) ==", meta.figure, meta.title);
    eprintln!("Paper setup    : {}", meta.paper_setup);
    eprintln!("Swept axes     : {}", meta.axes);
    eprintln!(
        "This run       : tier {}, {} keys, threads {:?}, {:.2}s measure + {:.2}s warmup per point, seed {} (DLHT_KEYS/DLHT_THREADS/DLHT_SECS/DLHT_SEED, --smoke/--full)",
        scale.tier.name(),
        scale.keys,
        scale.threads,
        scale.duration().as_secs_f64(),
        scale.warmup().as_secs_f64(),
        scale.seed,
    );
    eprintln!();
    let mut ctx = ScenarioCtx::create(meta, scale, true);
    body(&mut ctx);
    ctx.finish();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn smoke_scale() -> BenchScale {
        BenchScale {
            keys: 2_000,
            threads: vec![1, 2],
            secs: 0.03,
            shards: 2,
            seed: 7,
            tier: dlht_workloads::Tier::Smoke,
        }
    }

    #[test]
    fn registry_names_are_unique_and_cover_all_figures() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|s| s.name).collect();
        assert_eq!(
            names.len(),
            23,
            "one scenario per figure/table binary plus the wire-protocol server and the cache persona"
        );
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 23, "duplicate scenario names");
        let mut bins: Vec<&str> = REGISTRY.iter().map(|s| s.bin).collect();
        bins.sort_unstable();
        bins.dedup();
        assert_eq!(bins.len(), 23, "duplicate scenario binaries");
        for fig in [
            "Figure 1",
            "Table 1",
            "Figure 3",
            "Figure 5",
            "Figure 6",
            "Figure 7",
            "Figure 8",
            "Figure 9",
            "Figure 10",
            "Figure 11",
            "Figure 12",
            "Figure 13",
            "Figure 14",
            "Figure 15",
            "Figure 16",
            "Figure 17",
            "Figure 18",
            "Figure 19",
            "Figure 20",
            "§5.3.2",
            "Table 5",
            "dlht-net",
        ] {
            assert!(
                REGISTRY.iter().any(|s| s.figure.starts_with(fig)),
                "no scenario covers {fig}"
            );
        }
        assert!(find("fig03_get_throughput").is_some());
        assert!(find("nope").is_none());
    }

    #[test]
    fn points_emit_schema_versioned_json_lines() {
        let meta = find("fig03_get_throughput").unwrap();
        let mut ctx = ScenarioCtx::for_test(meta, smoke_scale());
        let map = MapKind::Dlht.build(4_096);
        prepopulate(map.as_ref(), 1_000);
        let spec = WorkloadSpec::get_default(1_000, 2, Duration::from_millis(20));
        let r = ctx.measure(map.as_ref(), &spec);
        assert!(r.total_ops > 0);
        assert!(
            r.latency.count() > 0,
            "measure() must capture percentile latency"
        );
        ctx.point("DLHT")
            .axis("threads", 2usize)
            .result(&r)
            .stats(&map.stats())
            .retired(map.retired_indexes())
            .extra("note", "test")
            .emit();
        assert_eq!(ctx.points(), 1);

        let lines = ctx.lines().to_vec();
        assert_eq!(lines.len(), 2, "header + one point");
        let header = Json::parse(&lines[0]).unwrap();
        assert_eq!(header.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(header.get("seed").and_then(Json::as_u64), Some(7));
        assert_eq!(header.get("tier").and_then(Json::as_str), Some("smoke"));
        let point = Json::parse(&lines[1]).unwrap();
        assert_eq!(point.get("series").and_then(Json::as_str), Some("DLHT"));
        assert_eq!(
            point
                .get("axes")
                .and_then(|a| a.get("threads"))
                .and_then(Json::as_u64),
            Some(2)
        );
        assert!(point.get("mops").and_then(Json::as_f64).unwrap() > 0.0);
        let lat = point.get("lat").expect("latency summary captured");
        assert!(lat.get("p99_ns").and_then(Json::as_u64).unwrap() > 0);
        let stats = point.get("stats").expect("table stats captured");
        assert!(stats.get("bins").and_then(Json::as_u64).unwrap() > 0);
        assert_eq!(point.get("retired").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn sweep_runs_warmup_and_measure_for_every_kind_and_thread_count() {
        let meta = find("fig03_get_throughput").unwrap();
        let mut ctx = ScenarioCtx::for_test(meta, smoke_scale());
        let keys = ctx.scale.keys;
        let duration = ctx.scale.duration();
        let points = ctx.sweep(&[MapKind::Dlht, MapKind::Clht], |threads| {
            WorkloadSpec::get_default(keys, threads, duration)
        });
        assert_eq!(points.len(), 4);
        assert!(points.iter().all(|p| p.result.total_ops > 0));
        ctx.emit_sweep(&points);
        assert_eq!(ctx.points(), 4);
        // 1 header + 4 points; every point parses and carries stats.
        for line in &ctx.lines()[1..] {
            let j = Json::parse(line).unwrap();
            assert_eq!(j.get("type").and_then(Json::as_str), Some("point"));
            assert!(j.get("stats").is_some());
        }
    }
}
