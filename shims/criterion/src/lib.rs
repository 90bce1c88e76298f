//! Offline stand-in for the `criterion` benchmark harness.
//!
//! Implements exactly the subset the workspace benches use:
//! `Criterion::default()` with `measurement_time` / `warm_up_time`,
//! `Criterion::bench_function`, `benchmark_group` with `sample_size` /
//! `bench_with_input` / `bench_function` / `finish`, `BenchmarkId`,
//! `Bencher::iter`, and the `criterion_group!` (`name = …; config = …;
//! targets = …` form) / `criterion_main!` macros. The benches take
//! `black_box` from `std::hint`. Instead of criterion's statistical engine it
//! performs a short warm-up followed by `sample_size` timed batches and
//! reports the median and min per-iteration time — enough to compare hot
//! paths locally while keeping `cargo bench` runs fast and dependency-free.

use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Benchmark label; mirrors `criterion::BenchmarkId`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId { id: format!("{}/{}", function_name.into(), parameter) }
    }

    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId { id: parameter.to_string() }
    }
}

#[derive(Debug, Clone)]
struct Settings {
    measurement_time: Duration,
    warm_up_time: Duration,
    sample_size: usize,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            measurement_time: Duration::from_secs(1),
            warm_up_time: Duration::from_millis(200),
            sample_size: 10,
        }
    }
}

#[derive(Debug, Default)]
pub struct Criterion {
    settings: Settings,
}

impl Criterion {
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.settings.measurement_time = d;
        self
    }

    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.settings.warm_up_time = d;
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { name: name.into(), settings: self.settings.clone(), _parent: self }
    }

    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(name, self.settings.clone(), f);
        self
    }
}

pub struct BenchmarkGroup<'a> {
    name: String,
    settings: Settings,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.settings.sample_size = n;
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&format!("{}/{}", self.name, id), self.settings.clone(), f);
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        run_benchmark(&format!("{}/{}", self.name, id.id), self.settings.clone(), |b| f(b, input));
        self
    }

    pub fn finish(self) {}
}

pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(label: &str, settings: Settings, mut f: F) {
    // Warm-up: discover a per-sample iteration count that fits the budget.
    let mut b = Bencher { iters: 1, elapsed: Duration::ZERO };
    let warm_start = Instant::now();
    f(&mut b);
    let mut per_iter = b.elapsed.max(Duration::from_nanos(1));
    while warm_start.elapsed() < settings.warm_up_time {
        f(&mut b);
        per_iter = (per_iter + b.elapsed.max(Duration::from_nanos(1))) / 2;
    }
    let budget_per_sample = settings.measurement_time / settings.sample_size.max(1) as u32;
    let iters =
        (budget_per_sample.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1_000_000) as u64;

    let mut samples: Vec<f64> = Vec::with_capacity(settings.sample_size);
    for _ in 0..settings.sample_size {
        let mut b = Bencher { iters, elapsed: Duration::ZERO };
        f(&mut b);
        samples.push(b.elapsed.as_secs_f64() / iters as f64);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let median = samples[samples.len() / 2];
    let min = samples[0];
    println!(
        "bench {label:<48} median {:>12} min {:>12} ({} samples x {iters} iters)",
        fmt_time(median),
        fmt_time(min),
        samples.len()
    );
}

fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

/// Mirror of `criterion_group!`'s `name = …; config = …; targets = …`
/// form.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
}

/// Mirror of `criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
