//! Shared plumbing: seeded randomness, circuit text, sample statistics,
//! the metric sheet every workload fills, and the per-run temp dir.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dna_netlist::{format, suite, Circuit};

/// SplitMix64: small, seedable and identical on every platform, so a
/// seed always yields the same circuits, deltas and tenant choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Derives an independent sub-seed (`stream`) from the workload seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03)).next_u64()
}

/// A suite circuit as the `.ckt` text the workloads parse: the program
/// under test only ever sees the text.
pub fn circuit_text(name: &str, seed: u64) -> String {
    let circuit = suite::benchmark(name, seed).expect("suite circuit names are valid");
    format::write(&circuit)
}

/// Parses `.ckt` text, returning the circuit and the parse time.
pub fn parse_timed(text: &str) -> (Circuit, Duration) {
    let t = Instant::now();
    let circuit = format::parse(text).expect("generated circuit text parses");
    (circuit, t.elapsed())
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile (0..=1) of `values`, linearly interpolated between
/// order statistics; 0 for an empty set.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process (`VmHWM`) in MiB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named metric: value, unit, and whether it is computed from other
/// measurements rather than timed or counted directly.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub derived: bool,
    pub note: String,
}

/// What one workload run produced: its metrics, its operation counts and
/// the human-readable lines of the report.
#[derive(Default)]
pub struct Sheet {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
}

impl Sheet {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric { name, value, unit, derived: false, note });
    }

    pub fn derived(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric { name, value, unit, derived: true, note });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Records one failed operation with its reason on stderr.
    pub fn fail(&mut self, why: &str) {
        self.failed += 1;
        eprintln!("perfbench: failed operation: {why}");
    }

    /// Records a fingerprint comparison; a mismatch is a failed operation.
    pub fn check_fp(&mut self, what: &str, got: u64, want: u64) {
        if let Some(why) = mismatch("", what, got, want) {
            self.mismatches += 1;
            self.fail(why.trim_start());
        }
    }
}

/// Latency samples of one operation kind.
#[derive(Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn p50(&self) -> f64 {
        median(&self.0)
    }

    pub fn p90(&self) -> f64 {
        quantile(&self.0, 0.9)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// "median of N" / "p90 of N (M beyond)" annotation for the report.
    pub fn note_p50(&self) -> String {
        format!("median of {}", self.len())
    }

    pub fn note_p90(&self) -> String {
        let beyond = self.len() - (self.len() as f64 * 0.9).ceil() as usize;
        format!("p90 of {} ({} beyond)", self.len(), beyond)
    }
}

/// Per-run scratch directory inside the working directory, removed on
/// drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str, seed: u64) -> Self {
        let dir = PathBuf::from(".bench_tmp").join(format!("{tag}-{seed}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the run's temp dir");
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the parent too once the last run is gone.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// The median of `n` set-up attempts, each timed by `once`.
pub fn median_setup(n: usize, mut once: impl FnMut() -> Duration) -> (f64, Vec<f64>) {
    let all: Vec<f64> = (0..n).map(|_| once().as_secs_f64()).collect();
    (median(&all), all)
}

/// `items.iter().map(f)` on two threads, in order.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let (left, right) = items.split_at(items.len() / 2);
    std::thread::scope(|s| {
        let handle = s.spawn(|| left.iter().map(&f).collect::<Vec<_>>());
        let mut tail: Vec<R> = right.iter().map(&f).collect();
        let mut out = handle.join().expect("replay thread");
        out.append(&mut tail);
        out
    })
}

/// A fingerprint mismatch report, if `got` differs from the reference.
pub fn mismatch(tag: &str, what: &str, got: u64, want: u64) -> Option<String> {
    (got != want).then(|| format!("{tag} {what}: fingerprint {got:016x} != reference {want:016x}"))
}
