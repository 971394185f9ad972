//! Inputs, answer checking and statistics shared by every workload.

use std::time::Instant;

/// splitmix64's output function: a bijection on `u64`, so distinct ids give
/// distinct keys, and the keys are spread over the whole key space (never
/// `0..N`, which the default modulo hash would place round-robin).
#[inline]
pub fn mix(x: u64) -> u64 {
    let mut s = x;
    dlht_util::splitmix64(&mut s)
}

/// Derive an independent stream seed from the run seed and labels.
pub fn stream_seed(seed: u64, labels: &[u64]) -> u64 {
    labels
        .iter()
        .fold(mix(seed ^ 0x5EED_BE4C_0000_0000), |acc, &l| mix(acc ^ l))
}

/// The key of id `id` under a workload `salt`. The two keys the table
/// reserves (`u64::MAX`, `u64::MAX - 1`) map elsewhere.
#[inline]
pub fn key_of(salt: u64, id: u64) -> u64 {
    let k = mix(id ^ salt);
    if dlht_core::bucket::is_reserved_key(k) {
        k >> 1
    } else {
        k
    }
}

/// The value every workload stores under `key`: a function of the key, so
/// any answer can be checked without a shadow map.
#[inline]
pub fn value_of(key: u64) -> u64 {
    mix(key ^ 0x0A15_7E5D_00D1_1A7E)
}

/// Counts answers and wrong answers. With fault injection on, the first
/// answer passed through [`Check::tamper`] is corrupted before it is
/// compared, so the comparison itself is shown to catch it.
#[derive(Debug, Default)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    inject: bool,
}

impl Check {
    pub fn new(inject: bool) -> Self {
        Check {
            inject,
            ..Check::default()
        }
    }

    /// Corrupt `v` if a fault is still to be injected.
    #[inline]
    pub fn tamper(&mut self, v: u64) -> u64 {
        if self.inject {
            self.inject = false;
            v ^ 1
        } else {
            v
        }
    }

    /// Corrupt one byte of `bytes` if a fault is still to be injected.
    pub fn tamper_bytes(&mut self, bytes: &mut [u8]) {
        if self.inject && !bytes.is_empty() {
            self.inject = false;
            bytes[0] ^= 1;
        }
    }

    #[inline]
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(what());
            }
        }
    }

    /// An operation that returned an error instead of an answer.
    pub fn error(&mut self, what: impl FnOnce() -> String) {
        self.expect(false, what);
    }

    pub fn merge(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// Per-call latencies in nanoseconds, kept raw so percentiles are exact.
#[derive(Debug, Default, Clone)]
pub struct Lat {
    pub ns: Vec<u32>,
}

impl Lat {
    pub fn with_capacity(n: usize) -> Self {
        Lat {
            ns: Vec::with_capacity(n),
        }
    }

    #[inline]
    pub fn record(&mut self, start: Instant, end: Instant) {
        let ns = end.duration_since(start).as_nanos();
        self.ns.push(ns.min(u32::MAX as u128) as u32);
    }

    pub fn extend(&mut self, other: &Lat) {
        self.ns.extend_from_slice(&other.ns);
    }

    /// Percentiles (`p` in 0..=1) of the recorded samples, in microseconds.
    pub fn percentiles_us(&self, ps: &[f64]) -> Vec<f64> {
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        ps.iter()
            .map(|&p| quantile_sorted(&sorted, p) / 1e3)
            .collect()
    }
}

/// Linear-interpolated quantile of sorted integer samples.
fn quantile_sorted(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

/// Quantile `q` (0..=1) of `values`, interpolated linearly.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Decides how many fixed-work rounds a run makes: rounds continue until
/// the measuring time is spent, with a floor and a ceiling on the count.
pub struct RoundClock {
    start: Instant,
    seconds: f64,
    min_rounds: usize,
    max_rounds: usize,
    done: usize,
}

impl RoundClock {
    pub fn new(seconds: f64, min_rounds: usize, max_rounds: usize) -> Self {
        RoundClock {
            start: Instant::now(),
            seconds,
            min_rounds,
            max_rounds,
            done: 0,
        }
    }

    /// Whether another round should run; call once before each round.
    pub fn next(&mut self) -> bool {
        let more = self.done < self.min_rounds
            || (self.done < self.max_rounds && self.start.elapsed().as_secs_f64() < self.seconds);
        if more {
            self.done += 1;
        }
        more
    }
}

/// Run `f(t)` on `threads` scoped threads, thread `t` pinned to load slot
/// `t`, and collect the results in thread order.
pub fn on_threads<T: Send>(
    threads: usize,
    pinning: &crate::sys::Pinning,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let f = &f;
                s.spawn(move || {
                    pinning.pin(t);
                    f(t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    })
}

/// One load thread's part of one round.
pub struct Slice<R> {
    pub traced: bool,
    pub start: Instant,
    pub end: Instant,
    /// Input generation cost, per item of the round's input.
    pub gen_ns: f64,
    pub out: R,
}

/// Rounds of a multi-threaded run: `rounds[r][t]` is thread `t`'s slice.
pub struct Rounds<R> {
    pub rounds: Vec<Vec<Slice<R>>>,
}

impl<R> Rounds<R> {
    /// The per-call latencies of round `r`, all threads together.
    pub fn merged(&self, r: usize, lat: impl Fn(&R) -> &Lat) -> Lat {
        let mut all = Lat::default();
        for s in &self.rounds[r] {
            all.extend(lat(&s.out));
        }
        all
    }

    /// Throughput of round `r` in Mops, given its operation count: from the
    /// first thread's start to the last thread's end.
    pub fn mops(&self, r: usize, ops: u64) -> f64 {
        let slices = &self.rounds[r];
        let start = slices.iter().map(|s| s.start).min().expect("threads");
        let end = slices.iter().map(|s| s.end).max().expect("threads");
        ops as f64 / end.duration_since(start).as_secs_f64() / 1e6
    }
}

/// Run rounds of fixed work on `threads` pinned load threads that live for
/// the whole run (a thread that touches a table keeps a registry slot, so
/// threads are not respawned per round). Each thread builds its state with
/// `init`, then per round makes its input with `prepare` (untimed), waits
/// for the others, and times `work`. Thread 0's clock decides whether
/// another round runs; in a traced run odd rounds are traced. `finish`
/// turns each thread's state into what it hands back.
// AUDIT: the closures are the runner's whole interface; a struct of them
// would only rename the arguments.
#[allow(clippy::too_many_arguments)]
pub fn run_threads<S, I, R: Send, F: Send>(
    threads: usize,
    pinning: &crate::sys::Pinning,
    clock: impl Fn() -> RoundClock + Sync,
    trace: bool,
    init: impl Fn(usize) -> S + Sync,
    prepare: impl Fn(&mut S, usize, u64) -> (I, usize) + Sync,
    work: impl Fn(&mut S, I, bool) -> R + Sync,
    finish: impl Fn(S) -> F + Sync,
) -> (Rounds<R>, Vec<F>) {
    use std::sync::atomic::{AtomicBool, Ordering};
    let go = AtomicBool::new(false);
    let barrier = std::sync::Barrier::new(threads);
    let per_thread: Vec<(Vec<Slice<R>>, F)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (go, barrier) = (&go, &barrier);
                let (clock, init, prepare, work, finish) =
                    (&clock, &init, &prepare, &work, &finish);
                s.spawn(move || {
                    pinning.pin(t);
                    let mut state = init(t);
                    let mut clock = clock();
                    let mut slices = Vec::new();
                    for round in 0u64.. {
                        // ORDERING: Relaxed — the flag publishes no other
                        // data; the barrier orders the store before the loads.
                        if t == 0 {
                            go.store(clock.next(), Ordering::Relaxed);
                        }
                        barrier.wait();
                        if !go.load(Ordering::Relaxed) {
                            break;
                        }
                        let traced = trace && round % 2 == 1;
                        let t_gen = Instant::now();
                        let (input, items) = prepare(&mut state, t, round);
                        let gen_ns = t_gen.elapsed().as_nanos() as f64 / items.max(1) as f64;
                        barrier.wait();
                        let start = Instant::now();
                        let out = work(&mut state, input, traced);
                        let end = Instant::now();
                        slices.push(Slice {
                            traced,
                            start,
                            end,
                            gen_ns,
                            out,
                        });
                        barrier.wait();
                    }
                    (slices, finish(state))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut finished = Vec::new();
    let mut iters: Vec<_> = Vec::new();
    for (slices, f) in per_thread {
        finished.push(f);
        iters.push(slices.into_iter());
    }
    let mut rounds = Vec::new();
    loop {
        let round: Vec<Slice<R>> = iters.iter_mut().filter_map(|i| i.next()).collect();
        if round.is_empty() {
            break;
        }
        rounds.push(round);
    }
    (Rounds { rounds }, finished)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted = [10, 20, 30, 40, 50];
        assert_eq!(quantile_sorted(&sorted, 0.5), 30.0);
        assert_eq!(quantile_sorted(&sorted, 0.0), 10.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 50.0);
        assert_eq!(quantile_sorted(&sorted, 0.125), 15.0);
    }

    #[test]
    fn keys_are_distinct_and_never_reserved() {
        let mut seen = std::collections::HashSet::new();
        for id in 0..100_000 {
            let k = key_of(42, id);
            assert!(!dlht_core::bucket::is_reserved_key(k));
            assert!(seen.insert(k));
        }
    }

    #[test]
    fn injected_fault_is_counted_once() {
        let mut c = Check::new(true);
        for _ in 0..3 {
            let v = c.tamper(7);
            c.expect(v == 7, || "wrong".into());
        }
        assert_eq!((c.attempted, c.failed), (3, 1));
    }
}
