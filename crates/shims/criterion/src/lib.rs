//! Offline stand-in for the `criterion` crate.
//!
//! Implements the harness surface this workspace's `harness = false` benches
//! use — `Criterion::benchmark_group`, `sample_size`, `throughput`,
//! `bench_function`, `bench_with_input`, `Bencher::iter`, `BenchmarkId`,
//! `Throughput`, and the `criterion_group!`/`criterion_main!` macros. Each
//! benchmark runs one warm-up iteration and `sample_size` timed iterations,
//! then prints min/mean/max wall time in a single line per benchmark, each
//! to four significant digits in the unit its magnitude calls for.

use std::time::{Duration, Instant};

/// Re-export of the standard optimisation barrier, matching
/// `criterion::black_box`.
pub use std::hint::black_box;

/// Identifies one benchmark within a group: a function name plus an optional
/// input parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
    parameter: Option<String>,
}

impl BenchmarkId {
    /// A benchmark id `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            name: name.into(),
            parameter: Some(parameter.to_string()),
        }
    }

    fn render(&self) -> String {
        match &self.parameter {
            Some(p) => format!("{}/{}", self.name, p),
            None => self.name.clone(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(name: &str) -> Self {
        BenchmarkId {
            name: name.to_string(),
            parameter: None,
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(name: String) -> Self {
        BenchmarkId {
            name,
            parameter: None,
        }
    }
}

/// Work-per-iteration declaration; recorded for display only.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Runs the measured closure and accumulates per-iteration timings.
pub struct Bencher {
    samples: usize,
    times: Vec<Duration>,
}

impl Bencher {
    /// Times `routine` once per sample after a warm-up call.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        black_box(routine());
        self.times.clear();
        self.times.reserve(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            black_box(routine());
            self.times.push(start.elapsed());
        }
    }
}

fn report(group: &str, id: &str, throughput: Option<Throughput>, times: &[Duration]) {
    if times.is_empty() {
        println!("{group}/{id}: no samples recorded");
        return;
    }
    let min = times.iter().min().unwrap();
    let max = times.iter().max().unwrap();
    let mean = times.iter().sum::<Duration>() / times.len() as u32;
    let rate = match throughput {
        Some(Throughput::Elements(n)) => {
            format!("  {:.3} Melem/s", n as f64 / mean.as_secs_f64() / 1e6)
        }
        Some(Throughput::Bytes(n)) => {
            format!(
                "  {:.3} MiB/s",
                n as f64 / mean.as_secs_f64() / (1024.0 * 1024.0)
            )
        }
        None => String::new(),
    };
    println!(
        "{group}/{id}: [{} {} {}] ({} samples){rate}",
        format_duration(*min),
        format_duration(mean),
        format_duration(*max),
        times.len(),
    );
}

/// `d` to four significant digits, in ns, µs, ms or s by magnitude.
fn format_duration(d: Duration) -> String {
    let mut value = d.as_secs_f64() * 1e9;
    for unit in ["ns", "µs", "ms"] {
        // Anything from 999.95 up rounds to 1000 at four digits.
        if value < 999.95 {
            return four_digits(value, unit);
        }
        value /= 1e3;
    }
    four_digits(value, "s")
}

fn four_digits(value: f64, unit: &str) -> String {
    let decimals = if value >= 99.995 {
        1
    } else if value >= 9.9995 {
        2
    } else {
        3
    };
    format!("{value:.decimals$} {unit}")
}

/// A named set of related benchmarks sharing sample-count and throughput
/// settings.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed iterations per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Declares work done per iteration (shown as a rate in the report).
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut bencher = Bencher {
            samples: self.sample_size,
            times: Vec::new(),
        };
        f(&mut bencher);
        report(&self.name, &id.render(), self.throughput, &bencher.times);
        self
    }

    /// Runs one benchmark parameterised by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Top-level harness state, mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Fresh harness with default settings.
    pub fn new() -> Self {
        Criterion {}
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size: 20,
            throughput: None,
        }
    }

    /// Runs a single stand-alone benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.benchmark_group("bench").bench_function(id, f);
        self
    }
}

/// Declares a benchmark group function, mirroring `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::new();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench `main` function, mirroring `criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("shim_test");
        group.sample_size(3);
        group.throughput(Throughput::Elements(100));
        group.bench_function("sum", |b| b.iter(|| (0u64..100).sum::<u64>()));
        group.bench_with_input(BenchmarkId::new("sum_to", 50u32), &50u64, |b, &n| {
            b.iter(|| (0u64..n).sum::<u64>());
        });
        group.finish();
    }

    criterion_group!(benches, sample_bench);

    #[test]
    fn group_macro_runs_targets() {
        benches();
    }

    #[test]
    fn durations_print_four_digits_in_the_unit_of_their_magnitude() {
        let f = |ns| format_duration(Duration::from_nanos(ns));
        assert_eq!(f(0), "0.000 ns");
        assert_eq!(f(312), "312.0 ns");
        assert_eq!(f(612), "612.0 ns");
        assert_eq!(f(1_234), "1.234 µs");
        assert_eq!(f(12_346), "12.35 µs");
        assert_eq!(f(123_456), "123.5 µs");
        assert_eq!(f(999_960), "1.000 ms");
        assert_eq!(f(7_654_321), "7.654 ms");
        assert_eq!(f(2_500_000_000), "2.500 s");
    }

    #[test]
    fn id_rendering() {
        assert_eq!(BenchmarkId::new("f", 3).render(), "f/3");
        assert_eq!(BenchmarkId::from("plain").render(), "plain");
    }
}
