//! A minimal, API-compatible stand-in for the `criterion` crate, vendored
//! so `cargo bench` runs in a sandboxed (offline) build.
//!
//! It keeps criterion's bench-authoring surface — `Criterion`,
//! `benchmark_group`, `sample_size`, `bench_function`, `Bencher::iter`,
//! `criterion_group!`, `criterion_main!`, `black_box` — but replaces the
//! statistics engine with a plain fixed-count timing loop: per benchmark it
//! runs one warm-up sample plus `sample_size` timed samples of
//! [`ITERS_PER_SAMPLE`] iterations each and prints the median and minimum
//! ns per iteration. Both shrug off the odd preempted sample that drags a
//! mean around on a shared host. Good enough to spot regressions without
//! the dependency tree.

use std::time::Instant;

pub use std::hint::black_box;

/// Iterations timed per sample. Low on purpose: the spin-mode benches
/// busy-wait real nanoseconds per modelled operation.
pub const ITERS_PER_SAMPLE: u64 = 8;

/// Top-level harness handle.
#[derive(Debug)]
pub struct Criterion {
    default_sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            default_sample_size: 10,
        }
    }
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.default_sample_size,
            _c: self,
        }
    }

    /// Sets the default sample count for subsequent groups.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.default_sample_size = n.max(1);
        self
    }
}

/// A group of benchmarks sharing a name prefix and sample count.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _c: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one benchmark and prints its per-iteration timing.
    pub fn bench_function(
        &mut self,
        id: impl std::fmt::Display,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        // Warm-up sample (not reported).
        let mut b = Bencher::default();
        f(&mut b);
        let mut per_iter: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let mut b = Bencher::default();
            f(&mut b);
            if b.iters > 0 {
                per_iter.push(b.elapsed_ns as f64 / b.iters as f64);
            }
        }
        let (median, min) = summarize(&mut per_iter);
        println!(
            "bench {}/{}: {:>12.1} ns/iter median (min {:.1}, {} samples)",
            self.name,
            id,
            median,
            min,
            per_iter.len()
        );
        self
    }

    /// Ends the group (all reporting already happened inline).
    pub fn finish(self) {}
}

/// The median and minimum of `samples` (sorted in place); the median of
/// an even count is the mean of the middle two.
fn summarize(samples: &mut [f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    let median = if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    };
    (median, samples[0])
}

/// Timing handle passed to the closure of `bench_function`.
#[derive(Debug, Default)]
pub struct Bencher {
    iters: u64,
    elapsed_ns: u128,
}

impl Bencher {
    /// Times `f` over a fixed number of iterations.
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        let t0 = Instant::now();
        for _ in 0..ITERS_PER_SAMPLE {
            black_box(f());
        }
        self.elapsed_ns += t0.elapsed().as_nanos();
        self.iters += ITERS_PER_SAMPLE;
    }
}

impl Bencher {
    /// Times `routine` over a fixed number of iterations, each on a fresh
    /// input from `setup`; only `routine` is timed.
    pub fn iter_with_setup<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
    ) {
        for _ in 0..ITERS_PER_SAMPLE {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(input));
            self.elapsed_ns += t0.elapsed().as_nanos();
        }
        self.iters += ITERS_PER_SAMPLE;
    }
}

/// Bundles benchmark functions into one named runner function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// The bench binary's `main`, running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_and_counts() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("selftest");
        g.sample_size(3);
        let mut calls = 0u64;
        g.bench_function("count", |b| b.iter(|| calls += 1));
        g.finish();
        // 1 warm-up + 3 samples, ITERS_PER_SAMPLE iterations each.
        assert_eq!(calls, 4 * ITERS_PER_SAMPLE);
    }

    #[test]
    fn setup_runs_once_per_timed_iteration() {
        let mut b = Bencher::default();
        let (mut setups, mut runs) = (0u64, 0u64);
        b.iter_with_setup(|| setups += 1, |()| runs += 1);
        assert_eq!(
            (setups, runs, b.iters),
            (ITERS_PER_SAMPLE, ITERS_PER_SAMPLE, ITERS_PER_SAMPLE)
        );
    }

    #[test]
    fn summary_is_median_and_min() {
        // Odd count: the middle sample, not the mean (which is 35).
        assert_eq!(summarize(&mut [100.0, 2.0, 3.0]), (3.0, 2.0));
        // Even count: the mean of the middle two.
        assert_eq!(summarize(&mut [9.0, 1.0, 5.0, 3.0]), (4.0, 1.0));
        assert_eq!(summarize(&mut [7.0]), (7.0, 7.0));
        assert_eq!(summarize(&mut []), (0.0, 0.0));
    }

    criterion_group!(self_group, noop_bench);

    fn noop_bench(c: &mut Criterion) {
        c.benchmark_group("noop")
            .bench_function("nothing", |b| b.iter(|| 1 + 1));
    }

    #[test]
    fn macros_compose() {
        self_group();
    }
}
